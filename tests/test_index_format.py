"""Index format 6 on disk: one ``index.npz`` holding records as UTF-8
columns, narrow postings and each vector view's columns as held in memory;
its content hash and readable, typed arrays checked at load; and durable
atomic saves, which also replace an index of an older format."""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplehop import (
    ExpansionConfig,
    HashEmbedder,
    IndexBuildError,
    Passage,
    RetrievalConfig,
    Triple,
    bm25_search,
    build_index,
    dense_search,
    hybrid_search,
    load_index,
    naive_ge_retrieve,
    save_index,
)
from triplehop.corpus_index import (
    PASSAGES,
    TRIPLES,
    _write_npz,
    load_passages_jsonl,
    load_triples_jsonl,
)

from .conftest import build_hop_corpus, graph_of
from .test_lexical_index import record_column, record_values, reseal, rewrite_npz, v3_copy

QUERIES = ("enta linksto entb", "island kind", "ledger three")
DATA = Path(__file__).parent / "data"


def assert_same_rankings(loaded, fresh, queries=QUERIES, k=5):
    for query in queries:
        for view in (PASSAGES, TRIPLES):
            for search in (bm25_search, dense_search, hybrid_search):
                assert search(loaded, query, view, k) == search(fresh, query, view, k)


def assert_same_index(loaded, fresh):
    """Every piece of in-memory state a load derives equals a fresh build's,
    arrays by dtype and bytes."""
    assert loaded.passages == fresh.passages
    assert loaded.triples == fresh.triples
    assert loaded.alignment == fresh.alignment
    assert graph_of(loaded) == graph_of(fresh)
    for back, built in ((loaded.passages, fresh.passages), (loaded.triples, fresh.triples)):
        assert back.ids == built.ids
        for (text, a), (want, b) in zip(back.columns.values(), built.columns.values()):
            assert text == want and (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    for a, b in zip(*([i.triple_passage, i.entity_codes, *i.entity_csr, *i.passage_csr]
                      for i in (loaded, fresh))):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    for view in (PASSAGES, TRIPLES):
        back, built = loaded.lexical[view], fresh.lexical[view]
        assert back.ids == built.ids
        assert list(back.rows.items()) == list(built.rows.items())
        for key in ("doc_lengths", "indptr", "doc_positions", "term_freqs"):
            a, b = getattr(back, key), getattr(built, key)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        back, built = loaded.vectors[view], fresh.vectors[view]
        assert back.ids == built.ids
        for a, b in ((back.sq_norms, built.sq_norms), (back.columns, built.columns)):
            assert_same_array(a, b)
    assert_same_array(loaded.triple_rows, fresh.triple_rows)


def assert_same_array(a, b):
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
        b.flags.c_contiguous, b.flags.f_contiguous
    )


# ---------------------------------------------------------------------------
# What is stored
# ---------------------------------------------------------------------------

def test_format_6_load_equals_a_fresh_build(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == ["index.npz", "manifest.json"]
    assert_same_index(load_index(tmp_path / "idx"), chain_index)


_THIRDS = HashEmbedder(32)


def thirds(text: str) -> np.ndarray:
    """A plain callable with fractional rows: hashed counts at dim 32, over 3."""
    return _THIRDS(text) / 3.0


@pytest.mark.parametrize(
    "name, embedder", [("index_v6_hash64", HashEmbedder(64)), ("index_v6_float", thirds)]
)
def test_a_saved_format_6_index_loads_and_ranks_as_a_fresh_build(name, embedder):
    # Both fixtures are the hop corpus, saved when a view also held its rows.
    passages, triples, questions = build_hop_corpus()
    fresh = build_index(passages, triples, embedder)
    loaded = load_index(DATA / name, embedder=None if name.endswith("hash64") else embedder)
    assert loaded.embedder == fresh.embedder
    assert_same_index(loaded, fresh)  # sq_norms and triple_rows bit for bit
    texts = [q.question for q in questions] + list(QUERIES)
    rankings = []
    for index in (loaded, fresh):
        ranked = [search(index, texts, view, 8) for view in (PASSAGES, TRIPLES)
                  for search in (bm25_search, dense_search, hybrid_search)]
        retrieval, expansion = RetrievalConfig(k=8), ExpansionConfig()
        ranked.append([naive_ge_retrieve(index, text, retrieval, expansion) for text in texts])
        rankings.append(ranked)
    assert rankings[0] == rankings[1]  # ids and scores, bit for bit


def readme_index_keys() -> list[str]:
    """The keys listed in the one ``text`` block of README "Data formats"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Data formats\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```text\n(.*?)```", section, re.S)
    return block.split()


def test_readme_lists_the_keys_a_save_writes(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    with np.load(tmp_path / "index.npz") as npz:
        assert readme_index_keys() == npz.files


def test_records_are_utf8_columns_in_ascending_id_order(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    path = tmp_path / "idx" / "index.npz"
    fields = {
        "passage": {"id": "id", "title": "title", "text": "body"},
        "triple": {key: key for key in ("id", "passage_id", "subject", "predicate", "object")},
    }
    with np.load(path) as rec:
        for kind in fields:
            for key in fields[kind]:
                for part in ("utf8", "offsets"):
                    # every offset of the chain is below 256
                    assert rec[f"{kind}_{key}_{part}"].dtype == np.uint8
    for kind, records in (("passage", chain_index.passages), ("triple", chain_index.triples)):
        for key, attr in fields[kind].items():
            want = [getattr(records[i], attr) for i in sorted(records)]
            assert record_values(path, f"{kind}_{key}") == want


def test_index_npz_members_are_deflated_npy(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    with zipfile.ZipFile(tmp_path / "idx" / "index.npz") as zf:
        infos = zf.infolist()
        assert infos and all(i.filename.endswith(".npy") for i in infos)
        assert all(i.compress_type == zipfile.ZIP_DEFLATED for i in infos)


@pytest.mark.parametrize(
    "array",
    [
        np.arange(300_000, dtype=np.int64),  # several pieces
        np.array(5, dtype=np.int64),
        np.arange(12.0).reshape(3, 4).T,  # Fortran order
        np.arange(24).reshape(4, 6)[:, ::2],  # neither order
        np.array(["ab", "Σx"]),
        np.asarray([], dtype=np.str_),
        np.zeros((5, 0)),
    ],
    ids=["pieces", "0-d", "fortran", "strided", "str", "empty-str", "no-columns"],
)
def test_npz_members_hold_the_bytes_np_save_writes(tmp_path, array):
    _write_npz(tmp_path / "x.npz", iter([("a", array)]))
    want = io.BytesIO()
    np.save(want, array, allow_pickle=False)
    with zipfile.ZipFile(tmp_path / "x.npz") as zf:
        assert zf.read("a.npy") == want.getvalue()


def test_postings_are_stored_narrow_and_loaded_as_int64(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    keys = ("doc_lengths", "indptr", "doc_positions", "term_freqs")
    with np.load(tmp_path / "idx" / "index.npz") as lex:
        for prefix, view in (("p", PASSAGES), ("t", TRIPLES)):
            built, back = chain_index.lexical[view], loaded.lexical[view]
            for key in keys:
                stored = lex[f"{prefix}_{key}"]
                assert stored.dtype == np.uint8  # every value of the chain is below 256
                assert getattr(back, key).dtype == np.int64
                assert getattr(back, key).tobytes() == getattr(built, key).tobytes()
            assert lex[f"{prefix}_doc_freq"].dtype == np.uint8


def test_wide_values_keep_a_dtype_that_holds_them(tmp_path):
    # 300 passages: positions reach 299, past uint8
    passages = [Passage(f"p{i:03d}", "", f"word{i % 7} shared") for i in range(300)]
    index = build_index(passages, [], HashEmbedder(32))
    save_index(index, tmp_path / "idx")
    with np.load(tmp_path / "idx" / "index.npz") as lex:
        assert lex["p_doc_positions"].dtype == np.uint16
        assert lex["p_doc_positions"].max() == 299
    loaded = load_index(tmp_path / "idx")
    assert bm25_search(loaded, "shared word3", PASSAGES, 50) == bm25_search(
        index, "shared word3", PASSAGES, 50
    )


def test_a_view_without_rows_round_trips(tmp_path):
    index = build_index([Passage("p1", "", "lonely body")], [], HashEmbedder(32))
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    assert loaded.vectors[TRIPLES].columns.shape == index.vectors[TRIPLES].columns.shape == (0, 0)
    assert loaded.triple_rows.shape == index.triple_rows.shape == (0, 0)
    assert dense_search(loaded, "lonely", TRIPLES, 3).entries == ()
    assert dense_search(loaded, "lonely", PASSAGES, 3) == dense_search(index, "lonely", PASSAGES, 3)


def lengths(text: str) -> np.ndarray:
    """An embedder that never encodes its text, so lone surrogates pass."""
    return np.array([len(text), text.count(" "), 1.0, 0.5])


ROUND_TRIP_WORDS = ("ada", "vell", "linksto", "island", "kind", "ledger")
round_trip_text = st.lists(st.sampled_from(ROUND_TRIP_WORDS), max_size=8).map(" ".join)


@settings(max_examples=25, deadline=None)
@example(bodies=[], facts=[], embedder=lengths)  # no view has a row
@example(bodies=["ada vell"], facts=[], embedder=HashEmbedder(8))  # no triple
@given(
    bodies=st.lists(round_trip_text, max_size=6),
    facts=st.lists(st.tuples(*[st.sampled_from(ROUND_TRIP_WORDS)] * 3), max_size=6),
    # hashed rows (int8), and a plain callable's fractional rows (float64)
    embedder=st.sampled_from([HashEmbedder(8), HashEmbedder(200), lengths]),
)
def test_views_round_trip_as_their_columns(bodies, facts, embedder):
    passages = [Passage(f"p{i}", "", body) for i, body in enumerate(bodies)]
    triples = [Triple(f"t{i}", *fact, f"p{i % len(bodies)}")
               for i, fact in enumerate(facts if bodies else [])]
    fresh = build_index(passages, triples, embedder)
    with tempfile.TemporaryDirectory() as tmp:
        save_index(fresh, tmp)
        with np.load(Path(tmp) / "index.npz") as npz:
            for name, view in (("passage", PASSAGES), ("triple", TRIPLES)):
                stored, held = npz[f"{name}_columns"], fresh.vectors[view].columns
                assert (stored.dtype, stored.shape, stored.tobytes()) == (
                    held.dtype, held.shape, held.tobytes()
                )
        loaded = load_index(tmp, embedder=embedder)
    assert_same_index(loaded, fresh)
    assert_same_rankings(loaded, fresh, (" ".join(ROUND_TRIP_WORDS[:3]), "island ledger", "kind"))


def test_unusual_text_round_trips(tmp_path):
    # JSON escapes a lone surrogate and reads it back; JSONL numbers are text
    passages = [
        {"id": "p1", "title": "lone \ud800 mark", "text": "plain body"},
        {"id": "p2", "title": "", "text": "star \U0001F31F body"},
        {"id": 3, "title": 1999, "text": 2.5},
        {"id": "p4", "title": "\U0001D518\U0001D52B\U0001D526 \udfff", "text": "\u00e9t\u00e9"},
    ]
    triples = [
        {"id": "t1", "passage_id": "p1", "subject": "Ada \udc00", "predicate": "met \U0001F642",
         "object": "x \ud83d"},
        # the object columns hold "\ud83d" and "\ude00" side by side: two lone
        # surrogates, not one pair
        {"id": "t2", "passage_id": "p2", "subject": "\U0001F31F", "predicate": "1999",
         "object": "\ude00 y"},
        {"passage_id": "3", "subject": 1999, "predicate": "year", "object": 2000},
    ]
    (tmp_path / "p.jsonl").write_text("".join(json.dumps(r) + "\n" for r in passages))
    (tmp_path / "t.jsonl").write_text("".join(json.dumps(r) + "\n" for r in triples))
    fresh = build_index(
        load_passages_jsonl(tmp_path / "p.jsonl"), load_triples_jsonl(tmp_path / "t.jsonl"), lengths
    )
    assert fresh.passages["3"] == Passage("3", "1999", "2.5")
    assert fresh.triples["3#0"] == Triple("3#0", "1999", "year", "2000", "3")
    assert fresh.passages["p4"].title == "\U0001D518\U0001D52B\U0001D526 \udfff"
    save_index(fresh, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx", embedder=lengths)
    assert_same_index(loaded, fresh)
    assert loaded.triples["t1"].object == "x \ud83d"
    assert loaded.triples["t2"].object == "\ude00 y"
    assert_same_rankings(loaded, fresh, ("lone mark", "star body", "1999", "ada met"), k=4)


def test_an_empty_index_round_trips(tmp_path):
    fresh = build_index([], [], HashEmbedder(32))
    save_index(fresh, tmp_path / "idx")
    manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
    assert (manifest["passages"], manifest["triples"], manifest["dim"]) == (0, 0, 0)
    loaded = load_index(tmp_path / "idx")
    assert_same_index(loaded, fresh)
    assert bm25_search(loaded, "anything", PASSAGES, 3).entries == ()


# ---------------------------------------------------------------------------
# Checks on the columns (files resealed, so the hashes pass)
# ---------------------------------------------------------------------------

def stored(path: Path, key: str) -> np.ndarray:
    with np.load(path) as npz:
        return npz[key].copy()


@pytest.fixture()
def saved(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    return tmp_path / "index.npz"


def test_load_rejects_a_bucket_outside_dim(saved):
    # one bucket more than the manifest's dim of 128: a 129th row of columns
    columns = stored(saved, "triple_columns")
    rewrite_npz(saved, triple_columns=np.vstack([columns, columns[:1]]))
    with pytest.raises(
        IndexBuildError, match=r"manifest\.json: dim 128, but 129-wide triple vectors"
    ):
        load_index(saved.parent)


# ---------------------------------------------------------------------------
# Checks on the records (files resealed, so the hashes pass)
# ---------------------------------------------------------------------------

def test_load_rejects_text_offsets_not_from_zero(saved):
    offsets = stored(saved, "passage_title_offsets")
    offsets[0] = 1
    rewrite_npz(saved, passage_title_offsets=offsets)
    with pytest.raises(IndexBuildError, match="index.npz: passage_title_offsets is not"):
        load_index(saved.parent)


def test_load_rejects_decreasing_text_offsets(saved):
    offsets = stored(saved, "triple_subject_offsets")
    offsets[1], offsets[2] = offsets[2], offsets[1]
    rewrite_npz(saved, triple_subject_offsets=offsets)
    with pytest.raises(IndexBuildError, match="index.npz: triple_subject_offsets is not"):
        load_index(saved.parent)


def test_load_rejects_text_offsets_short_of_the_decoded_length(saved):
    data = stored(saved, "passage_text_utf8")
    rewrite_npz(saved, passage_text_utf8=np.append(data, np.uint8(ord("x"))))
    with pytest.raises(IndexBuildError, match="index.npz: passage_text_offsets is not"):
        load_index(saved.parent)


def test_load_rejects_text_offsets_past_the_decoded_length(saved):
    offsets = stored(saved, "triple_object_offsets")
    offsets[-1] += 1
    rewrite_npz(saved, triple_object_offsets=offsets)
    with pytest.raises(IndexBuildError, match="index.npz: triple_object_offsets is not"):
        load_index(saved.parent)


def test_load_rejects_fields_of_one_kind_with_different_counts(saved):
    titles = record_values(saved, "passage_title")
    rewrite_npz(saved, **record_column("passage_title", titles[:-1]))
    with pytest.raises(
        IndexBuildError, match="index.npz: passage fields differ in count: id 4, title 3, text 4"
    ):
        load_index(saved.parent)


@pytest.mark.parametrize("kind", ["passage", "triple"])
def test_load_rejects_record_counts_unlike_the_manifest(saved, kind):
    manifest_path = saved.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[f"{kind}s"] += 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(
        IndexBuildError, match=rf"index.npz: 4 {kind}s, but manifest.json records 5"
    ):
        load_index(saved.parent)


def test_load_rejects_record_bytes_that_are_not_utf8(saved):
    data = stored(saved, "triple_predicate_utf8")
    data[0] = 0xFF
    rewrite_npz(saved, triple_predicate_utf8=data)
    with pytest.raises(
        IndexBuildError, match="index.npz: triple_predicate_utf8 is not UTF-8: invalid start byte"
    ):
        load_index(saved.parent)


# ---------------------------------------------------------------------------
# Content hashes
# ---------------------------------------------------------------------------

def test_load_rejects_records_edited_in_place(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    path = tmp_path / "idx" / "index.npz"
    texts = record_values(path, "passage_text")
    texts[0] = "zeta eta"
    with np.load(path) as rec:
        arrays = {**rec, **record_column("passage_text", texts)}
    np.savez_compressed(path, **arrays)
    with pytest.raises(IndexBuildError, match=r"index\.npz: content differs from its sha256"):
        load_index(tmp_path / "idx")


# Format 4 kept records, postings and vectors in three files; each case
# changes one array of that part of ``index.npz``, to a value that still loads
# if the hash is not checked.
@pytest.mark.parametrize(
    "key",
    ["passage_title_utf8", "t_term_freqs", "triple_columns"],
    ids=["records.npz", "lexical.npz", "embeddings.npz"],
)
def test_load_rejects_any_file_changed_after_the_save(tmp_path, chain_index, key):
    directory = tmp_path / "idx"
    save_index(chain_index, directory)
    path = directory / "index.npz"
    with np.load(path) as npz:
        arrays = dict(npz)
    changed = arrays[key].copy()
    changed[0] += 1
    np.savez_compressed(path, **{**arrays, key: changed})
    with pytest.raises(IndexBuildError, match=r"index\.npz: content differs from its sha256"):
        load_index(directory)


def test_load_rejects_a_manifest_without_every_hash(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    manifest_path = tmp_path / "idx" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["sha256"]["index.npz"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexBuildError, match=r"manifest\.json: sha256 must name"):
        load_index(tmp_path / "idx")


def test_load_rejects_a_missing_file(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    (tmp_path / "idx" / "index.npz").unlink()
    with pytest.raises(IndexBuildError, match=r"index\.npz: missing"):
        load_index(tmp_path / "idx")


def test_resealed_files_pass_the_hash_check(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    reseal(tmp_path / "idx")
    assert load_index(tmp_path / "idx").passages == chain_index.passages


# ---------------------------------------------------------------------------
# Arrays that do not read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ["passage_title_utf8", "t_doc_freq", "triple_columns"])
def test_load_names_an_array_missing_from_its_npz(tmp_path, chain_index, key):
    save_index(chain_index, tmp_path)
    path = tmp_path / "index.npz"
    with np.load(path) as stored:
        arrays = {k: stored[k] for k in stored.files if k != key}
    np.savez_compressed(path, **arrays)
    reseal(tmp_path)
    with pytest.raises(IndexBuildError, match=rf"index\.npz: no array '{key}'"):
        load_index(tmp_path)


@pytest.mark.parametrize("content", [b"", b"not an npz\n", b"\x93NUMPY"], ids=["empty", "text", "npy"])
def test_load_names_an_npz_that_is_not_one(tmp_path, chain_index, content):
    save_index(chain_index, tmp_path)
    (tmp_path / "index.npz").write_bytes(content)
    reseal(tmp_path)
    with pytest.raises(IndexBuildError, match=r"index\.npz: not an \.npz file"):
        load_index(tmp_path)


def test_load_names_an_array_that_does_not_read(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    path = tmp_path / "index.npz"
    with np.load(path) as stored:
        # an object array needs pickle, which a load never allows
        arrays = {**stored, "p_vocab": np.asarray(["p1", None], dtype=object)}
    with zipfile.ZipFile(path, "w") as zf:
        for key, array in arrays.items():
            with zf.open(f"{key}.npy", "w") as fh:
                np.lib.format.write_array(fh, array)
    reseal(tmp_path)
    with pytest.raises(IndexBuildError, match=r"index\.npz: array 'p_vocab' does not read"):
        load_index(tmp_path)


def rewrite_member(path: Path, key: str, encode) -> None:
    """Replace the member of array ``key`` of an ``index.npz`` with
    ``encode(array)``, given the array it held, and reseal the index."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    array = np.lib.format.read_array(io.BytesIO(members[f"{key}.npy"]))
    members[f"{key}.npy"] = encode(array)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    reseal(path.parent)


def restate_header(path: Path, key: str, shape: tuple[int, ...]) -> None:
    """Give array ``key`` of an ``index.npz`` a header that states ``shape``
    over the same data bytes, and reseal the index."""

    def encode(array: np.ndarray) -> bytes:
        header = io.BytesIO()
        descr = np.lib.format.dtype_to_descr(array.dtype)
        np.lib.format.write_array_header_1_0(
            header, {"descr": descr, "fortran_order": False, "shape": shape}
        )
        return header.getvalue() + array.tobytes()

    rewrite_member(path, key, encode)


def test_load_names_an_array_saved_with_a_version_2_header(tmp_path, chain_index):
    """A save writes ``.npy`` version 1.0 only, and a load reads no other."""
    save_index(chain_index, tmp_path)

    def version_2(array: np.ndarray) -> bytes:
        member = io.BytesIO()
        np.lib.format.write_array(member, array, version=(2, 0))
        return member.getvalue()

    rewrite_member(tmp_path / "index.npz", "p_indptr", version_2)
    with pytest.raises(
        IndexBuildError,
        match=r"index\.npz: array 'p_indptr' does not read: unsupported \.npy version \(2, 0\)",
    ):
        load_index(tmp_path)


@pytest.mark.parametrize("shape", [(2**44,), (1,)], ids=["past-memory", "short"])
def test_load_names_an_array_whose_header_misstates_its_size(tmp_path, chain_index, shape):
    """A header is checked against the member's size before its array is
    allocated: 2**44 entries would otherwise raise MemoryError."""
    save_index(chain_index, tmp_path)
    restate_header(tmp_path / "index.npz", "p_doc_positions", shape)
    with pytest.raises(
        IndexBuildError, match=rf"index\.npz: array 'p_doc_positions' claims shape \({shape[0]},\)"
    ):
        load_index(tmp_path)


@pytest.mark.parametrize(
    "key, change, stored_as",
    [
        pytest.param("p_indptr", lambda a: np.full(len(a), "a"), "1-D <U1", id="letters"),
        pytest.param("p_indptr", lambda a: a + 0.5, "1-D float64", id="float"),
        pytest.param("p_indptr", lambda a: np.stack([a, a]), "2-D uint8", id="2-d"),
        pytest.param("p_doc_lengths", lambda a: a[:, None], "2-D uint8", id="2-d-doc-lengths"),
        pytest.param(
            "triple_subject_offsets", lambda a: a.astype(np.float32), "1-D float32",
            id="float-text-offsets",
        ),
        pytest.param("t_vocab", lambda a: a[:, None], "2-D <U8", id="2-d-vocab"),
        pytest.param("passage_columns", lambda a: a.astype(np.int16), "2-D int16", id="wide-values"),
        pytest.param("triple_columns", lambda a: a.view(np.uint8), "2-D uint8", id="unsigned-values"),
        pytest.param("passage_columns", np.ravel, "1-D int8", id="1-d-columns"),
        pytest.param("triple_columns", lambda a: a[..., None], "3-D int8", id="3-d-columns"),
    ],
)
def test_load_rejects_an_array_stored_with_another_type(saved, key, change, stored_as):
    rewrite_npz(saved, **{key: change(stored(saved, key))})
    wanted = "2-D int8 or float64" if key.endswith("_columns") else "1-D"
    with pytest.raises(IndexBuildError, match=rf"index\.npz: {key} is {stored_as}, not {wanted}"):
        load_index(saved.parent)


def test_load_rejects_dense_rows_stored_with_another_type(tmp_path):
    def halves(text):
        return np.full(4, 0.5)

    save_index(build_index([Passage("p1", "", "body")], [], halves), tmp_path)
    rewrite_npz(tmp_path / "index.npz", passage_columns=np.full((4, 1), 0.5, dtype=np.float32))
    with pytest.raises(
        IndexBuildError, match=r"index\.npz: passage_columns is 2-D float32, not 2-D int8 or float64"
    ):
        load_index(tmp_path, embedder=halves)


# ---------------------------------------------------------------------------
# Atomic saves
# ---------------------------------------------------------------------------

def other_index():
    return build_index(
        [Passage("p1", "", "zeta eta"), Passage("p9", "", "theta iota")],
        [Triple("t9", "zeta", "near", "theta", "p9")],
        HashEmbedder(128),
    )


def test_save_over_an_index_replaces_it_and_leaves_no_sibling(tmp_path, chain_index):
    target = tmp_path / "idx"
    save_index(chain_index, target)
    save_index(other_index(), target)
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]
    loaded = load_index(target)
    assert sorted(loaded.passages) == ["p1", "p9"]
    assert_same_rankings(loaded, other_index(), ("zeta", "theta near"))


def test_interrupted_save_leaves_the_old_index(tmp_path, chain_index, monkeypatch):
    target = tmp_path / "idx"
    save_index(chain_index, target)
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    # a save writes each array's .npy header with write_array_header_1_0
    write_header = np.lib.format.write_array_header_1_0
    calls = []

    def fail_on_the_third_array(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("No space left on device")
        return write_header(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fail_on_the_third_array)
    with pytest.raises(OSError, match="No space left"):
        save_index(other_index(), target)
    monkeypatch.undo()
    assert len(calls) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]
    assert {p.name: p.read_bytes() for p in target.iterdir()} == before
    assert_same_rankings(load_index(target), chain_index)


def test_interrupted_first_save_leaves_nothing(tmp_path, chain_index, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fail)
    with pytest.raises(OSError):
        save_index(chain_index, tmp_path / "idx")
    assert list(tmp_path.iterdir()) == []


def test_save_over_a_symlinked_index_writes_where_it_points(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "real")
    (tmp_path / "link").symlink_to(tmp_path / "real", target_is_directory=True)
    save_index(other_index(), tmp_path / "link")
    assert (tmp_path / "link").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]
    assert_same_rankings(load_index(tmp_path / "real"), other_index(), ("zeta",))


def test_next_save_restores_an_index_left_aside_by_a_killed_save(
    tmp_path, chain_index, monkeypatch
):
    # A save killed between its two renames: the old index renamed aside, the
    # new one still in its unfinished sibling.
    target = tmp_path / "idx"
    save_index(chain_index, target)
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    target.rename(tmp_path / ".idx.old-0123abcd")
    (tmp_path / ".idx.saving-89abcdef").mkdir()
    (tmp_path / ".idx.saving-89abcdef" / "passages.jsonl").write_text("{}\n")

    def fail(*args, **kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fail)
    with pytest.raises(OSError):
        save_index(other_index(), target)
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]
    assert {p.name: p.read_bytes() for p in target.iterdir()} == before


def test_next_save_removes_a_retired_index_left_by_a_killed_save(tmp_path, chain_index):
    # A save killed after its second rename: the new index in place, the old
    # one not yet removed.
    save_index(chain_index, tmp_path / "idx")
    save_index(chain_index, tmp_path / ".idx.old-0123abcd")
    (tmp_path / ".idx.old-0123abcd.keep").mkdir()
    save_index(other_index(), tmp_path / "idx")
    assert sorted(p.name for p in tmp_path.iterdir()) == [".idx.old-0123abcd.keep", "idx"]
    assert sorted(load_index(tmp_path / "idx").passages) == ["p1", "p9"]


def test_save_over_a_format_3_index_leaves_no_jsonl(tmp_path, chain_index):
    directory = v3_copy(tmp_path)
    save_index(chain_index, directory)
    assert sorted(p.name for p in directory.iterdir()) == ["index.npz", "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v3"]
    assert_same_index(load_index(directory), chain_index)


def test_save_fsyncs_the_files_and_directory_before_the_swap_and_the_parent_after(
    tmp_path, chain_index, monkeypatch
):
    target = tmp_path / "idx"
    save_index(chain_index, target)
    events = []
    fsync, replace = os.fsync, os.replace

    def recorded_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def recorded_replace(src, dst):
        events.append(("replace", Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    save_index(other_index(), target)
    monkeypatch.undo()
    # a rename keeps the inode: the staging directory and its files are now the target's
    files = sorted(p.stat().st_ino for p in target.iterdir())
    assert len(files) == 2
    assert sorted(ino for _, ino in events[:2]) == files
    assert [kind for kind, _ in events[:2]] == ["fsync"] * 2
    assert events[2] == ("fsync", target.stat().st_ino)
    assert events[3][0] == "replace" and events[3][1].startswith(".idx.old-")
    assert events[4:] == [("replace", "idx"), ("fsync", tmp_path.stat().st_ino)]
    assert_same_rankings(load_index(target), other_index(), ("zeta",))


def test_save_refuses_a_directory_holding_other_files(tmp_path, chain_index):
    (tmp_path / "notes.txt").write_text("keep me")
    with pytest.raises(IndexBuildError, match="holds notes.txt"):
        save_index(chain_index, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


def test_save_refuses_a_path_that_is_a_file(tmp_path, chain_index):
    (tmp_path / "idx").write_text("not an index")
    with pytest.raises(IndexBuildError, match="idx: not a directory"):
        save_index(chain_index, tmp_path / "idx")
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]


def test_save_into_an_empty_directory(tmp_path, chain_index):
    (tmp_path / "idx").mkdir()
    save_index(chain_index, tmp_path / "idx")
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]
    assert load_index(tmp_path / "idx").passages == chain_index.passages
