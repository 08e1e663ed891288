"""Index format 6 on disk: one ``index.npz`` holding records as UTF-8
columns, narrow postings and each vector view's columns as held in memory;
its content hash and readable, typed arrays checked at load; and durable
atomic saves, which also replace an index of an older format."""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import tempfile
import threading
import time
import zipfile
import zlib
from functools import partial
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
    get_neighbours,
    hybrid_search,
    load_index,
    naive_ge_retrieve,
    save_index,
)
from triplehop import corpus_index
from triplehop.corpus_index import (
    PASSAGES,
    TRIPLES,
    _write_npz,
    load_passages_jsonl,
    load_triples_jsonl,
)

from .conftest import build_hop_corpus, graph_of
from .oracles import brute_force_adjacency
from .test_lexical_index import (
    record_column,
    record_values,
    reseal,
    rewrite_npz,
    rewrite_records,
    v3_copy,
)

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
        assert back.ids == built.ids and back.positive_norms is built.positive_norms
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


def test_no_two_npy_headers_are_parsed_at_once(tmp_path, chain_index, monkeypatch):
    """numpy parses a ``.npy`` header with ``ast``, which is not thread-safe
    in Python 3.11. A load's pool reads each view's columns and computes what
    they give while the caller reads the other arrays, and the two threads
    take turns to parse headers."""
    save_index(chain_index, tmp_path)
    parse, derive = np.lib.format.read_array_header_1_0, corpus_index._derived
    parsing, parsed, derived = [], [], []

    def parse_alone(*args, **kwargs):
        parsing.append(threading.get_ident())
        try:
            assert len(parsing) == 1, "two .npy headers parsed at once"
            parsed.append(threading.get_ident())
            time.sleep(0.001)  # long enough for the other thread to come in
            return parse(*args, **kwargs)
        finally:
            parsing.remove(threading.get_ident())

    def recorded(*args, **kwargs):
        derived.append(threading.get_ident())
        return derive(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "read_array_header_1_0", parse_alone)
    monkeypatch.setattr(corpus_index, "_derived", recorded)
    loaded = load_index(tmp_path)
    with zipfile.ZipFile(tmp_path / "index.npz") as zf:
        assert len(parsed) == len(zf.namelist())
    assert len(set(parsed)) == 2 and threading.get_ident() in parsed
    assert len(derived) == 2 and threading.get_ident() not in derived
    # sq_norms, positive_norms and triple_rows by dtype, contiguity and bits
    assert_same_index(loaded, chain_index)


def npy(array: np.ndarray) -> bytes:
    member = io.BytesIO()
    np.lib.format.write_array(member, array)
    return member.getvalue()


class OpenedByEmptyBlocks:
    """A raw deflate compressor whose stream opens with 500 empty stored
    blocks of 5 bytes each: valid deflate that outputs nothing for 2,500 bytes."""

    def __init__(self):
        self.deflate, self.opening = zlib.compressobj(6, zlib.DEFLATED, -15), b"\0\0\0\xff\xff" * 500

    def compress(self, data: bytes) -> bytes:
        opening, self.opening = self.opening, b""
        return opening + self.deflate.compress(data)

    def flush(self) -> bytes:
        return self.opening + self.deflate.flush()


@pytest.mark.parametrize("stored_as", ["big-endian", "opened-by-empty-blocks"])
def test_columns_stored_otherwise_load_with_a_builds_norms_and_rows(
    tmp_path, chain_index, monkeypatch, stored_as
):
    """Columns that a load accepts but a save does not write, big-endian
    float64 or a deflate stream that opens with empty blocks, give a build's
    norms and rows."""
    save_index(chain_index, tmp_path)
    if stored_as == "big-endian":
        rewrite_member(tmp_path / "index.npz", "triple_columns", lambda a: npy(a.astype(">f8")))
    else:  # every member of index.npz is rewritten, each opened by empty blocks
        with monkeypatch.context() as patch:
            patch.setattr(zipfile, "_get_compressor", lambda *args: OpenedByEmptyBlocks())
            rewrite_member(tmp_path / "index.npz", "triple_columns", npy)
    loaded = fails_naming_the_file_or_answers(tmp_path)
    assert loaded is not None
    if stored_as == "big-endian":
        assert loaded.vectors[TRIPLES].columns.dtype == np.dtype(">f8")
        for view in (PASSAGES, TRIPLES):
            back, built = loaded.vectors[view], chain_index.vectors[view]
            assert back.sq_norms.dtype == np.float64 and back.positive_norms is built.positive_norms
            assert np.array_equal(back.sq_norms, built.sq_norms)
        assert loaded.triple_rows.flags.c_contiguous
        assert np.array_equal(loaded.triple_rows, chain_index.triple_rows)
    else:
        assert_same_index(loaded, chain_index)


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


def test_postings_are_stored_narrow_and_loaded_as_stored(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    keys = ("doc_lengths", "indptr", "doc_positions", "term_freqs")
    with np.load(tmp_path / "idx" / "index.npz") as lex:
        for prefix, view in (("p", PASSAGES), ("t", TRIPLES)):
            built, back = chain_index.lexical[view], loaded.lexical[view]
            for key in keys:
                stored = lex[f"{prefix}_{key}"]
                assert stored.dtype == np.uint8  # every value of the chain is below 256
                assert getattr(back, key).dtype == getattr(built, key).dtype == np.uint8
                assert getattr(back, key).tobytes() == getattr(built, key).tobytes()
            assert lex[f"{prefix}_doc_freq"].dtype == np.uint8


def test_a_loaded_index_keeps_its_stored_arrays_read_only(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    loaded = load_index(tmp_path)
    kept = [loaded.vectors[view].columns for view in (PASSAGES, TRIPLES)]
    for view in (PASSAGES, TRIPLES):
        lex = loaded.lexical[view]
        kept += [lex.doc_lengths, lex.indptr, lex.doc_positions, lex.term_freqs]
    kept += [offsets for records in (loaded.passages, loaded.triples)
             for _, offsets in records.columns.values()]
    assert kept and not any(array.flags.writeable for array in kept)


def held_integer_arrays(index) -> dict[str, np.ndarray]:
    """Every integer array ``index`` holds, by its key in ``index.npz``, or
    by its ``CorpusIndex`` field for the graph, which is not stored."""
    held = {}
    for records in (index.passages, index.triples):
        held.update({f"{records.kind}_{key}_offsets": offsets
                     for key, (_, offsets) in records.columns.items()})
    for view, prefix in ((PASSAGES, "p"), (TRIPLES, "t")):
        lex = index.lexical[view]
        held.update({f"{prefix}_{key}": getattr(lex, key)
                     for key in ("doc_lengths", "indptr", "doc_positions", "term_freqs")})
    held.update(triple_passage=index.triple_passage, entity_codes=index.entity_codes)
    held.update(zip(("entity_indptr", "entity_members", "passage_indptr", "passage_members"),
                    (*index.entity_csr, *index.passage_csr)))
    return held


@pytest.mark.parametrize(
    "n_passages, positions", [(4, np.uint8), (300, np.uint16), (70_000, np.uint32)]
)
def test_no_loaded_integer_array_is_wider_than_its_stored_member(tmp_path, n_passages, positions):
    # Positions reach n_passages - 1; each held array takes the smallest
    # dtype that holds its values, built or loaded, as stored.
    passages = [Passage(f"p{i:05d}", "", f"w{i % 7}") for i in range(n_passages)]
    triples = [Triple(f"t{i:05d}", f"e{i % 5}", "r", f"e{i % 3}", f"p{i % n_passages:05d}")
               for i in range(40)]
    built = build_index(passages, triples, HashEmbedder(8))
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    held, fresh = held_integer_arrays(loaded), held_integer_arrays(built)
    assert held["p_doc_positions"].dtype == positions
    with np.load(tmp_path / "index.npz") as npz:
        for key, array in held.items():
            assert (array.dtype, array.tobytes()) == (fresh[key].dtype, fresh[key].tobytes()), key
            assert array.dtype == np.min_scalar_type(array.max()), key
            if key in npz.files:
                assert array.dtype == npz[key].dtype and array.tobytes() == npz[key].tobytes(), key


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

def drop_member(directory: Path, key: str) -> None:
    """Rewrite a saved index without array ``key``, and reseal it."""
    path = directory / "index.npz"
    with np.load(path) as stored:
        arrays = {k: stored[k] for k in stored.files if k != key}
    np.savez_compressed(path, **arrays)
    reseal(directory)


@pytest.mark.parametrize("key", ["passage_title_utf8", "t_doc_freq", "triple_columns"])
def test_load_names_an_array_missing_from_its_npz(tmp_path, chain_index, key):
    save_index(chain_index, tmp_path)
    drop_member(tmp_path, key)
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


def version_2(array: np.ndarray) -> bytes:
    member = io.BytesIO()
    np.lib.format.write_array(member, array, version=(2, 0))
    return member.getvalue()


def test_load_names_an_array_saved_with_a_version_2_header(tmp_path, chain_index):
    """A save writes ``.npy`` version 1.0 only, and a load reads no other."""
    save_index(chain_index, tmp_path)
    rewrite_member(tmp_path / "index.npz", "p_indptr", version_2)
    with pytest.raises(
        IndexBuildError,
        match=r"index\.npz: array 'p_indptr' does not read: unsupported \.npy version \(2, 0\)",
    ):
        load_index(tmp_path)


@pytest.mark.parametrize("key", ["p_indptr", "triple_columns"])
@pytest.mark.parametrize(
    "header",
    [
        "{'descr': '<i1', 'fortran_order': False, 'shape': (3,}",
        "{'descr': (), 'fortran_order': False, 'shape': (3,), }",
        "{'descr': '<i1', 'fortran_order': False, 'shape': (3,), }\n    x\n  y",
    ],
    ids=["unclosed", "empty-descr", "misindented"],
)
def test_load_names_an_array_whose_header_does_not_parse(tmp_path, chain_index, key, header):
    """numpy's header parser raises TokenError, IndexError and IndentationError
    on these, not ValueError. The triple columns' header is parsed on the
    load's second thread, and the error raised on its caller's."""
    save_index(chain_index, tmp_path)

    def encode(array: np.ndarray) -> bytes:
        text = header.encode("latin1") + b"\n"
        return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + array.tobytes()

    rewrite_member(tmp_path / "index.npz", key, encode)
    with pytest.raises(IndexBuildError, match=rf"index\.npz: array '{key}' does not read"):
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


def test_load_names_an_array_whose_directory_entry_overstates_its_size(tmp_path, chain_index):
    """An array is inflated into a buffer of the size its directory entry
    states, so that size is checked first: 2**40 bytes would otherwise raise
    MemoryError."""
    save_index(chain_index, tmp_path)
    path = tmp_path / "index.npz"
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in members.items():
            zf.writestr(name, data)
        zf.getinfo("p_doc_positions.npy").file_size = 2**40  # written with the directory
    reseal(tmp_path)
    with pytest.raises(
        IndexBuildError,
        match=rf"index\.npz: array 'p_doc_positions' does not read: {2**40} bytes inflated from",
    ):
        load_index(tmp_path)


def flip_a_deflated_byte(directory: Path, key: str) -> None:
    """Flip the bits of the middle byte of array ``key``'s deflated member in
    a saved index's ``index.npz``, and reseal the index."""
    path = directory / "index.npz"
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{key}.npy")
    at = info.header_offset  # a local header is 30 bytes, then the name and extra field
    start = at + 30 + int.from_bytes(data[at + 26 : at + 28], "little")
    start += int.from_bytes(data[at + 28 : at + 30], "little")
    data[start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(data)
    reseal(directory)


# p_doc_positions is inflated by the caller; triple_columns by the load's second thread
@pytest.mark.parametrize("key", ["p_doc_positions", "triple_columns"])
def test_load_names_an_array_whose_deflated_bytes_changed(tmp_path, chain_index, key):
    save_index(chain_index, tmp_path)
    flip_a_deflated_byte(tmp_path, key)
    with pytest.raises(IndexBuildError, match=rf"index\.npz: array '{key}' does not read"):
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
        # kept as stored, an integer array must index and count as it is
        pytest.param(
            "p_doc_positions", lambda a: a.astype(np.uint64), "1-D uint64", id="past-intp"
        ),
        pytest.param(
            "passage_text_offsets", lambda a: a.astype(">u2"), "1-D >u2", id="big-endian"
        ),
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


# The stored integer members a fuzzed edit changes, by key suffix.
FUZZED = ("_offsets", "_indptr", "_doc_positions", "_term_freqs", "_doc_lengths", "_doc_freq")


@pytest.fixture(scope="module")
def fuzz_source(tmp_path_factory):
    """A saved hop corpus, and each of its members that ``FUZZED`` names."""
    passages, triples, _ = build_hop_corpus(n_chains=2, n_distractors=3)
    directory = tmp_path_factory.mktemp("fuzz") / "idx"
    save_index(build_index(passages, triples, HashEmbedder(16)), directory)
    with np.load(directory / "index.npz") as npz:
        members = {key: npz[key] for key in npz.files if key.endswith(FUZZED)}
    return directory, members


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_changed_integer_fails_naming_the_file_or_loads_an_index_that_answers(
    fuzz_source, data
):
    directory, members = fuzz_source
    key = data.draw(st.sampled_from(sorted(members)), label="key")
    array = members[key].copy()
    at = data.draw(st.integers(0, len(array) - 1), label="at")
    bounds, old = np.iinfo(array.dtype), int(array[at])
    near = st.integers(max(bounds.min, old - 2), min(bounds.max, old + 2))
    array[at] = data.draw(near | st.integers(bounds.min, bounds.max), label="value")

    def encode(_) -> bytes:
        member = io.BytesIO()
        np.lib.format.write_array(member, array)
        return member.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(shutil.copytree(directory, Path(tmp) / "idx"))
        rewrite_member(copy / "index.npz", key, encode)
        fails_naming_the_file_or_answers(copy)


def fails_naming_the_file_or_answers(directory: Path):
    """Load ``directory``: it raises IndexBuildError naming its index.npz, or
    its index answers BM25, dense, hybrid and naive-GE searches and is
    returned."""
    try:
        index = load_index(directory)
    except IndexBuildError as e:
        assert str(e).startswith(f"{directory / 'index.npz'}: ")
        return None
    retrieval, expansion = RetrievalConfig(k=5), ExpansionConfig()
    for query in ("ent1a linksto", "ledger two closing"):
        for view in (PASSAGES, TRIPLES):
            for search in (bm25_search, dense_search, hybrid_search):
                search(index, query, view, 5)
        naive_ge_retrieve(index, query, retrieval, expansion)
    return index


# The members the integer fuzz leaves alone, by key suffix: record text,
# vocabularies and vector columns.
TEXT_FUZZED = ("_utf8", "_vocab", "_columns")
# Bytes a changed text byte is drawn from besides any: whitespace that
# ``str.isspace`` accepts (9, 28, 31, 32), a capital, DEL, and the bytes that
# begin or continue multi-byte UTF-8 ("é" is c3 a9, a no-break space c2 a0).
TEXT_BYTES = (0x09, 0x1C, 0x1F, 0x20, 0x41, 0x7F, 0xA0, 0xA9, 0xC2, 0xC3, 0xE3, 0xFF)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_changed_character_or_byte_fails_naming_the_file_or_loads_an_index_that_answers(
    fuzz_source, data
):
    """One byte of a record text column or vector column, or one character
    of a vocabulary, changed in place: the member keeps its length. A load
    that succeeds derives the graph the oracle derives from its records."""
    directory, _ = fuzz_source
    with np.load(directory / "index.npz") as npz:
        key = data.draw(st.sampled_from(sorted(k for k in npz.files if k.endswith(TEXT_FUZZED))), "key")
        array = npz[key].copy()
    at = data.draw(st.integers(0, array.size - 1), label="at")
    if key.endswith("_vocab"):
        term = str(array.flat[at])
        where = data.draw(st.integers(0, len(term) - 1), label="where")
        char = data.draw(st.sampled_from(" \t\x1cAz\xe9\u3000") | st.characters(), label="char")
        array.flat[at] = term[:where] + char + term[where + 1 :]
    elif key.endswith("_utf8"):
        array.flat[at] = data.draw(st.sampled_from(TEXT_BYTES) | st.integers(0, 255), label="byte")
    else:
        array.flat[at] = data.draw(st.integers(-128, 127), label="value")

    def encode(_) -> bytes:
        member = io.BytesIO()
        np.lib.format.write_array(member, array)
        return member.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(shutil.copytree(directory, Path(tmp) / "idx"))
        rewrite_member(copy / "index.npz", key, encode)
        index = fails_naming_the_file_or_answers(copy)
    if index is not None:
        oracle = brute_force_adjacency({tid: index.triples[tid] for tid in index.triples})
        assert {tid: get_neighbours(index, tid) for tid in oracle} == {
            tid: tuple(sorted(linked)) for tid, linked in oracle.items()
        }


def directory_entry(data: bytes, name: str) -> int:
    """Where member ``name``'s central directory entry starts in a zip file."""
    entry = data.rindex(name.encode()) - 46  # the name ends the entry's fixed part
    assert data[entry : entry + 4] == b"PK\x01\x02"
    return entry


# Fields of a central directory entry, by their offset in it, set to values
# the reader refuses: the flags, the compression method and the offset of
# the member's local header (0: the first member's).
@pytest.mark.parametrize(
    "at, value, problem",
    [
        pytest.param(8, b"\x01\x00", "the member is encrypted", id="encrypted"),
        pytest.param(8, b"\x40\x00", "the member is encrypted", id="strongly-encrypted"),
        pytest.param(10, b"\x0c\x00", "compression method 12", id="bzip2"),
        pytest.param(
            42, bytes(4), "its local header is not the one its directory entry names",
            id="another-member's-header",
        ),
    ],
)
def test_load_refuses_a_member_it_cannot_inflate_itself(tmp_path, chain_index, at, value, problem):
    save_index(chain_index, tmp_path)
    path = tmp_path / "index.npz"
    data = bytearray(path.read_bytes())
    entry = directory_entry(data, "t_doc_lengths.npy") + at
    data[entry : entry + len(value)] = value
    path.write_bytes(data)
    reseal(tmp_path)
    with pytest.raises(
        IndexBuildError, match=rf"index\.npz: array 't_doc_lengths' does not read: {problem}"
    ):
        load_index(tmp_path)


# Bits of t_doc_lengths.npy's central directory entry, as (byte of the entry,
# bit), that zipfile's reader raised untyped errors on: flag bit 0
# (encrypted), flag bit 6 (strong encryption), and the high bit of the
# version needed to extract, which makes 4.5 read as 17.3.
ENCRYPTED, STRONGLY_ENCRYPTED, VERSION_17_3 = (8, 0), (8, 6), (6, 7)


@settings(max_examples=60, deadline=None)
@example(flip=ENCRYPTED)
@example(flip=STRONGLY_ENCRYPTED)
@example(flip=VERSION_17_3)
@given(flip=st.integers(min_value=0))
def test_one_flipped_bit_fails_naming_the_file_or_loads_an_index_that_answers(fuzz_source, flip):
    """``flip`` is a bit of the file, wrapped to its length, or a bit of a
    central directory entry as (byte, bit)."""
    directory, _ = fuzz_source
    data = bytearray((directory / "index.npz").read_bytes())
    if isinstance(flip, tuple):
        at, bit = directory_entry(data, "t_doc_lengths.npy") + flip[0], flip[1]
    else:
        at, bit = divmod(flip % (8 * len(data)), 8)
    data[at] ^= 1 << bit
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(shutil.copytree(directory, Path(tmp) / "idx"))
        (copy / "index.npz").write_bytes(data)
        reseal(copy)
        fails_naming_the_file_or_answers(copy)


def misstate_crc(directory: Path, key: str) -> None:
    """Change the CRC-32 that array ``key``'s central directory entry states
    in a saved index's ``index.npz``, and reseal the index."""
    path = directory / "index.npz"
    data = bytearray(path.read_bytes())
    data[directory_entry(data, f"{key}.npy") + 16] ^= 0xFF  # the entry's CRC-32 starts there
    path.write_bytes(data)
    reseal(directory)


def with_a_version_2_header(directory: Path, key: str) -> None:
    rewrite_member(directory / "index.npz", key, version_2)


def dangle_a_passage_reference(directory: Path) -> None:
    rewrite_records(
        directory, "triple", lambda rows: rows + [{**rows[0], "id": "tX", "passage_id": "nope"}]
    )


@pytest.mark.parametrize(
    "edits, error",
    [
        pytest.param([], None, id="loads"),
        pytest.param(
            [dangle_a_passage_reference], "triple 'tX' references unknown passage", id="records"
        ),
        pytest.param(
            [partial(drop_member, key="triple_columns")], "no array 'triple_columns'",
            id="columns-missing",
        ),
        pytest.param(
            [partial(flip_a_deflated_byte, key="triple_columns")],
            "array 'triple_columns' does not read", id="columns-do-not-inflate",
        ),
        pytest.param(
            [dangle_a_passage_reference, partial(drop_member, key="triple_columns")],
            "triple 'tX' references unknown passage", id="records-first",
        ),
        # the pool job that inflates the columns and derives the norms and rows fails
        pytest.param(
            [partial(misstate_crc, key="triple_columns")],
            "array 'triple_columns' does not read: its length or CRC-32 differs", id="columns-crc",
        ),
        pytest.param(
            [dangle_a_passage_reference, partial(misstate_crc, key="triple_columns")],
            "triple 'tX' references unknown passage", id="records-before-the-pool's-error",
        ),
        # the pool job fails on the columns' header
        pytest.param(
            [partial(with_a_version_2_header, key="triple_columns")],
            r"array 'triple_columns' does not read: unsupported \.npy version", id="columns-version-2",
        ),
    ],
)
def test_a_load_leaves_no_thread_behind(tmp_path, chain_index, edits, error):
    """Each load, whether it succeeds or fails, joins its second thread, and
    a failing one raises the first error in the order the arrays are used."""
    save_index(chain_index, tmp_path)
    for edit in edits:
        edit(tmp_path)
    threads = threading.active_count()
    if error is None:
        assert load_index(tmp_path).passages == chain_index.passages
    else:
        with pytest.raises(IndexBuildError, match=rf"index\.npz: {error}"):
            load_index(tmp_path)
    assert threading.active_count() == threads


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
