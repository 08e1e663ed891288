"""Index format 3 on disk: sparse int8 rows, narrow postings, content hashes
checked at load, atomic saves, and format-2 indexes that still load."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from triplehop import (
    HashEmbedder,
    IndexBuildError,
    Passage,
    Triple,
    bm25_search,
    build_index,
    dense_search,
    hybrid_search,
    load_index,
    save_index,
)
from triplehop.corpus_index import (
    PASSAGES,
    TRIPLES,
    load_passages_jsonl,
    load_triples_jsonl,
)

from .test_lexical_index import reseal, rewrite_npz

QUERIES = ("enta linksto entb", "island kind", "ledger three")


def assert_same_rankings(loaded, fresh, queries=QUERIES, k=5):
    for query in queries:
        for view in (PASSAGES, TRIPLES):
            for search in (bm25_search, dense_search, hybrid_search):
                assert search(loaded, query, view, k) == search(fresh, query, view, k)


# ---------------------------------------------------------------------------
# What is stored
# ---------------------------------------------------------------------------

def test_sidecars_are_deflated_npz_members(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    for name in ("embeddings.npz", "lexical.npz"):
        with zipfile.ZipFile(tmp_path / "idx" / name) as zf:
            infos = zf.infolist()
            assert infos and all(i.filename.endswith(".npy") for i in infos)
            assert all(i.compress_type == zipfile.ZIP_DEFLATED for i in infos)


def test_postings_are_stored_narrow_and_loaded_as_int64(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    keys = ("doc_lengths", "indptr", "doc_positions", "term_freqs")
    with np.load(tmp_path / "idx" / "lexical.npz") as lex:
        for prefix, view in (("p", PASSAGES), ("t", TRIPLES)):
            built, back = chain_index.lexical[view], loaded.lexical[view]
            for key in keys:
                stored = lex[f"{prefix}_{key}"]
                assert stored.dtype == np.uint8  # every value of the chain is below 256
                assert getattr(back, key).dtype == np.int64
                assert getattr(back, key).tobytes() == getattr(built, key).tobytes()
            assert lex[f"{prefix}_doc_freq"].dtype == np.uint8
            assert back.avg_doc_length == built.avg_doc_length


def test_wide_values_keep_a_dtype_that_holds_them(tmp_path):
    # 300 passages: positions reach 299, past uint8
    passages = [Passage(f"p{i:03d}", "", f"word{i % 7} shared") for i in range(300)]
    index = build_index(passages, [], HashEmbedder(32))
    save_index(index, tmp_path / "idx")
    with np.load(tmp_path / "idx" / "lexical.npz") as lex:
        assert lex["p_doc_positions"].dtype == np.uint16
        assert lex["p_doc_positions"].max() == 299
    loaded = load_index(tmp_path / "idx")
    assert bm25_search(loaded, "shared word3", PASSAGES, 50) == bm25_search(
        index, "shared word3", PASSAGES, 50
    )


def test_sparse_rows_span_several_row_blocks(tmp_path):
    # 1,100 passages: more than two blocks of rows, with empty rows among them
    passages = [
        Passage(f"p{i:04d}", "", "" if i % 97 == 0 else f"name {i} lives in town {i % 13}")
        for i in range(1100)
    ]
    triples = [Triple(f"t{i:04d}", f"name {i}", "lives in", f"town {i % 13}", f"p{i:04d}")
               for i in range(1, 1100, 3)]
    index = build_index(passages, triples, HashEmbedder(64))
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    for view in (PASSAGES, TRIPLES):
        assert loaded.vectors[view].vectors.tobytes() == index.vectors[view].vectors.tobytes()
        assert loaded.vectors[view].columns.tobytes() == index.vectors[view].columns.tobytes()
    assert_same_rankings(loaded, index, ("name 5 lives in town 5", "town 12"), k=20)


def test_a_view_without_rows_round_trips(tmp_path):
    index = build_index([Passage("p1", "", "lonely body")], [], HashEmbedder(32))
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    assert loaded.vectors[TRIPLES].vectors.shape == index.vectors[TRIPLES].vectors.shape
    assert dense_search(loaded, "lonely", TRIPLES, 3).entries == ()
    assert dense_search(loaded, "lonely", PASSAGES, 3) == dense_search(index, "lonely", PASSAGES, 3)


# ---------------------------------------------------------------------------
# Checks on the sparse rows (files resealed, so the hashes pass)
# ---------------------------------------------------------------------------

def stored(path: Path, key: str) -> np.ndarray:
    with np.load(path) as npz:
        return npz[key].copy()


@pytest.fixture()
def saved(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    return tmp_path / "embeddings.npz"


def test_load_rejects_offsets_not_from_zero(saved):
    offsets = stored(saved, "passage_offsets")
    offsets[0] = 1
    rewrite_npz(saved, passage_offsets=offsets)
    with pytest.raises(IndexBuildError, match="embeddings.npz: passage_offsets is not"):
        load_index(saved.parent)


def test_load_rejects_decreasing_offsets(saved):
    offsets = stored(saved, "triple_offsets")
    offsets[1], offsets[2] = offsets[2], offsets[1]
    rewrite_npz(saved, triple_offsets=offsets)
    with pytest.raises(IndexBuildError, match="embeddings.npz: triple_offsets is not"):
        load_index(saved.parent)


def test_load_rejects_offsets_short_of_the_value_count(saved):
    values = stored(saved, "passage_values")
    buckets = stored(saved, "passage_buckets")
    rewrite_npz(
        saved,
        passage_values=np.append(values, np.int8(1)),
        passage_buckets=np.append(buckets, np.uint8(0)),
    )
    with pytest.raises(IndexBuildError, match="embeddings.npz: passage_offsets is not"):
        load_index(saved.parent)


def test_load_rejects_a_bucket_outside_dim(saved):
    buckets = stored(saved, "triple_buckets")
    buckets[-1] = 128
    rewrite_npz(saved, triple_buckets=buckets)
    with pytest.raises(IndexBuildError, match=r"triple_buckets has a bucket outside \[0, 128\)"):
        load_index(saved.parent)


def test_load_rejects_buckets_and_values_of_other_lengths(saved):
    rewrite_npz(saved, passage_buckets=stored(saved, "passage_buckets")[:-1])
    with pytest.raises(IndexBuildError, match="embeddings.npz: passage_offsets, _buckets"):
        load_index(saved.parent)


def test_load_rejects_offsets_of_another_row_count(saved):
    rewrite_npz(saved, triple_offsets=stored(saved, "triple_offsets")[:-1])
    with pytest.raises(IndexBuildError, match="embeddings.npz: triple_offsets, _buckets"):
        load_index(saved.parent)


def test_load_rejects_a_shape_that_is_not_rows_by_dim(saved):
    rewrite_npz(saved, passage_shape=np.asarray([4, 128, 1]))
    with pytest.raises(IndexBuildError, match=r"embeddings.npz: passage_shape is not \(rows, dim\)"):
        load_index(saved.parent)


# ---------------------------------------------------------------------------
# Content hashes
# ---------------------------------------------------------------------------

def test_load_rejects_a_passage_edited_in_place(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    path = tmp_path / "idx" / "passages.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    assert record["id"] == "p1"
    lines[0] = json.dumps({**record, "text": "zeta eta"})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexBuildError, match=r"passages\.jsonl: content differs from its sha256"):
        load_index(tmp_path / "idx")


@pytest.mark.parametrize("name", ["triples.jsonl", "lexical.npz", "embeddings.npz"])
def test_load_rejects_any_file_changed_after_the_save(tmp_path, chain_index, name):
    save_index(chain_index, tmp_path / "idx")
    path = tmp_path / "idx" / name
    path.write_bytes(path.read_bytes() + b"\n")
    with pytest.raises(IndexBuildError, match=rf"{name}: content differs from its sha256"):
        load_index(tmp_path / "idx")


def test_load_rejects_a_manifest_without_every_hash(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    manifest_path = tmp_path / "idx" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["sha256"]["lexical.npz"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexBuildError, match=r"manifest\.json: sha256 must name"):
        load_index(tmp_path / "idx")


def test_load_rejects_a_missing_file(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    (tmp_path / "idx" / "embeddings.npz").unlink()
    with pytest.raises(IndexBuildError, match=r"embeddings\.npz: missing"):
        load_index(tmp_path / "idx")


def test_resealed_files_pass_the_hash_check(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    reseal(tmp_path / "idx")
    assert load_index(tmp_path / "idx").passages == chain_index.passages


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
    write_array = np.lib.format.write_array
    calls = []

    def fail_on_the_third_array(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("No space left on device")
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_the_third_array)
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

    monkeypatch.setattr(np.lib.format, "write_array", fail)
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

    monkeypatch.setattr(np.lib.format, "write_array", fail)
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


# ---------------------------------------------------------------------------
# Format 2
# ---------------------------------------------------------------------------

# Saved by the code of format version 2 (dense int8 rows, level-6 deflate, no
# hashes), from the records of index_v1.
V2_INDEX = Path(__file__).parent / "data" / "index_v2"


def test_format_2_index_loads_and_ranks_like_a_fresh_build():
    manifest = json.loads((V2_INDEX / "manifest.json").read_text())
    assert manifest["format_version"] == 2 and "sha256" not in manifest
    with np.load(V2_INDEX / "embeddings.npz") as emb:
        assert emb["passage_vectors"].dtype == np.int8
    loaded = load_index(V2_INDEX)
    fresh = build_index(
        load_passages_jsonl(V2_INDEX / "passages.jsonl"),
        load_triples_jsonl(V2_INDEX / "triples.jsonl"),
        HashEmbedder(manifest["dim"]),
    )
    assert loaded.passages == fresh.passages
    assert loaded.triples == fresh.triples
    assert loaded.entity_adjacency == fresh.entity_adjacency
    for view in (PASSAGES, TRIPLES):
        assert loaded.vectors[view].vectors.tobytes() == fresh.vectors[view].vectors.tobytes()
    queries = ("Ada Vell met Bo Rinn", "born in Marsh Bay", "Quill", "who met Fay Lund")
    assert_same_rankings(loaded, fresh, queries, k=8)
