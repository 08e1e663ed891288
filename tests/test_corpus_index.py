from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    IndexBuildError,
    Passage,
    RetrievalError,
    ScriptedBackend,
    Triple,
    bm25_search,
    build_index,
    dense_search,
    get_neighbours,
    load_index,
    load_questions_jsonl,
    normalize_entity,
    save_index,
    serialize_sequence,
    serialize_triple,
    triple_to_passage,
    triples_to_passages,
)
from triplehop.corpus_index import (
    PASSAGES,
    TRIPLES,
    Memo,
    VectorView,
    load_passages_jsonl,
    load_triples_jsonl,
    read_jsonl,
    tokenize,
)

from .conftest import graph_of


def make_index(passages, triples, dim=64):
    return build_index(passages, triples, HashEmbedder(dim))


def test_empty_index():
    index = make_index([], [])
    assert index.passages == {}
    assert index.triples == {}
    assert graph_of(index) == ({}, {}, {})
    with pytest.raises(KeyError, match="unknown triple id: 'x'"):
        get_neighbours(index, "x")
    assert bm25_search(index, "anything", PASSAGES, 5).entries == ()
    assert dense_search(index, "anything", TRIPLES, 5).entries == ()


def test_single_triple_adjacency_keys():
    index = make_index(
        [Passage("P1", "t", "body")],
        [Triple("x", "A", "r", "B", "P1")],
    )
    assert get_neighbours(index, "x") == ()
    # x is linked under normalize_entity("A") and normalize_entity("B"): a
    # triple naming either key, in any case, is its neighbour
    probed = make_index(
        [Passage("P1", "t", "body")],
        [Triple("x", "A", "r", "B", "P1"), Triple("ya", " a ", "s", "E", "P1"),
         Triple("yb", "F", "s", "b", "P1")],
    )
    assert get_neighbours(probed, "ya") == get_neighbours(probed, "yb") == ("x",)
    assert get_neighbours(probed, "x") == ("ya", "yb")


def test_shared_entity_adjacency_hand_enumerated():
    index = make_index(
        [Passage("P1", "", "one"), Passage("P2", "", "two")],
        [Triple("x", "A", "r", "B", "P1"), Triple("y", "B", "s", "C", "P2")],
    )
    # x and y share normalize_entity("B")
    assert get_neighbours(index, "x") == ("y",)
    assert get_neighbours(index, "y") == ("x",)


def test_duplicate_passage_id_names_id():
    with pytest.raises(IndexBuildError, match="P1"):
        make_index([Passage("P1", "", "a"), Passage("P1", "", "b")], [])


def test_duplicate_triple_id_names_id():
    passages = [Passage("P1", "", "a")]
    triples = [Triple("t", "A", "r", "B", "P1"), Triple("t", "C", "s", "D", "P1")]
    with pytest.raises(IndexBuildError, match="'t'"):
        make_index(passages, triples)


def test_dangling_passage_reference_names_triple():
    with pytest.raises(IndexBuildError, match="tX"):
        make_index([Passage("P1", "", "a")], [Triple("tX", "A", "r", "B", "NOPE")])


def test_blank_triple_field_rejected():
    with pytest.raises(IndexBuildError, match="t0"):
        make_index([Passage("P1", "", "a")], [Triple("t0", "  ", "r", "B", "P1")])


def test_neighbours_chain():
    index = make_index(
        [Passage("P", "", "x")],
        [
            Triple("ab", "A", "r", "B", "P"),
            Triple("bc", "B", "s", "C", "P"),
            Triple("cd", "C", "u", "D", "P"),
        ],
    )
    assert get_neighbours(index, "ab") == ("bc",)
    assert get_neighbours(index, "bc") == ("ab", "cd")


def test_neighbours_isolated_triple():
    index = make_index(
        [Passage("P", "", "x")],
        [Triple("xy", "X", "y", "Z", "P"), Triple("ab", "A", "r", "B", "P")],
    )
    assert get_neighbours(index, "xy") == ()


def test_neighbours_mutual_shared_both_ways():
    index = make_index(
        [Passage("P", "", "x")],
        [Triple("ab", "A", "r", "B", "P"), Triple("ba", "B", "s", "A", "P")],
    )
    assert get_neighbours(index, "ab") == ("ba",)
    assert get_neighbours(index, "ba") == ("ab",)


def test_neighbours_unknown_id():
    index = make_index([], [])
    with pytest.raises(KeyError):
        get_neighbours(index, "missing")


def test_memo_keeps_the_first_value_stored():
    # ``compute`` stores a value under its key before it returns another, as
    # a thread that loses a race on the key would find: the lookup returns
    # the stored value, and the memo keeps it.
    def compute(key):
        memo[key] = ["stored", key]
        return ["returned", key]

    memo = Memo(compute)
    first = memo["a"]
    assert first == ["stored", "a"]
    assert memo == {"a": ["stored", "a"]}
    assert memo["a"] is first

    def fail(key):
        raise KeyError(key)

    failing = Memo(fail)
    with pytest.raises(KeyError):
        failing["b"]
    assert failing == {}


def test_serialize_triple_direct_join():
    t = Triple("t", "Bremen", "part of", "Germany", "P")
    assert serialize_triple(t) == "Bremen part of Germany"


def test_serialize_triple_trims_fields():
    t = Triple("t", " A ", "r", "B ", "P")
    assert serialize_triple(t) == "A r B"


def test_serialize_sequence_joins_with_semicolons():
    index = make_index(
        [Passage("P", "", "x")],
        [Triple("t1", "A", "r", "B", "P"), Triple("t2", "B", "s", "C", "P")],
    )
    assert serialize_sequence(index, ["t1", "t2"]) == "A r B; B s C"


def test_triple_to_passage_alignment():
    index = make_index(
        [Passage("P7", "", "x"), Passage("P8", "", "y")],
        [
            Triple("t1", "A", "r", "B", "P7"),
            Triple("t2", "C", "s", "D", "P7"),
            Triple("t3", "E", "u", "F", "P8"),
        ],
    )
    assert triple_to_passage(index, "t1") == "P7"
    assert triple_to_passage(index, "t2") == "P7"
    with pytest.raises(KeyError):
        triple_to_passage(index, "nope")


def test_triples_to_passages_first_occurrence_dedupe():
    index = make_index(
        [Passage("P1", "", "x"), Passage("P2", "", "y")],
        [
            Triple("t1", "A", "r", "B", "P1"),
            Triple("t2", "C", "s", "D", "P2"),
            Triple("t3", "E", "u", "F", "P1"),
        ],
    )
    assert triples_to_passages(index, ["t1", "t2", "t3"]) == ["P1", "P2"]


def test_passage_triples_sorted():
    index = make_index(
        [Passage("P1", "", "x"), Passage("P2", "", "y")],
        [
            Triple("b", "A", "r", "B", "P1"),
            Triple("a", "C", "s", "D", "P1"),
            Triple("c", "E", "u", "F", "P2"),
        ],
    )
    assert index.passage_triples("P1") == ("a", "b")
    assert index.passage_triples("P2") == ("c",)
    with pytest.raises(KeyError):
        index.passage_triples("P3")


def test_normalize_entity_rules():
    assert normalize_entity("  Foo   Bar ") == "foo bar"
    assert normalize_entity("ABC") == "abc"
    # NFC: decomposed e + combining acute equals the composed form
    assert normalize_entity("Café") == normalize_entity("Café")


def test_tokenize_splits_non_alphanumeric():
    assert tokenize("Hello, World_2!") == ["hello", "world", "2"]
    assert tokenize("") == []


entity = st.text(alphabet="abcdef", min_size=1, max_size=2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(entity, entity), min_size=1, max_size=8))
def test_adjacency_symmetry_and_soundness(pairs):
    passages = [Passage("P", "", "body")]
    triples = [
        Triple(f"t{i}", subj, "rel", obj, "P") for i, (subj, obj) in enumerate(pairs)
    ]
    index = make_index(passages, triples)
    for t in triples:
        neighbours = get_neighbours(index, t.id)
        for other_id in neighbours:
            # symmetry
            assert t.id in get_neighbours(index, other_id)
            # soundness: shared normalized entity re-derived from raw fields
            other = index.triples[other_id]
            mine = {normalize_entity(t.subject), normalize_entity(t.object)}
            theirs = {normalize_entity(other.subject), normalize_entity(other.object)}
            assert mine & theirs


def test_repeated_queries_are_identical(chain_index):
    first = bm25_search(chain_index, "enta linksto", PASSAGES, 5)
    second = bm25_search(chain_index, "enta linksto", PASSAGES, 5)
    assert first == second
    d1 = dense_search(chain_index, "enta linksto", TRIPLES, 5)
    d2 = dense_search(chain_index, "enta linksto", TRIPLES, 5)
    assert d1 == d2


def test_view_rows_are_the_embedders_output(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    texts = {
        PASSAGES: {pid: p.body for pid, p in chain_index.passages.items()},
        TRIPLES: {tid: serialize_triple(t) for tid, t in chain_index.triples.items()},
    }
    for index in (chain_index, loaded):
        for view, by_id in texts.items():
            vv = index.vectors[view]
            assert vv.ids == tuple(sorted(by_id))
            assert vv.columns.dtype == np.int8
            wide = vv.columns.T.astype(np.float64)
            for row, item_id in zip(wide, vv.ids):
                assert row.tobytes() == index.embedder(by_id[item_id]).tobytes()
            assert vv.sq_norms.tolist() == [float(r @ r) for r in wide]


def test_jsonl_loading_and_auto_ids(tmp_path):
    ppath = tmp_path / "passages.jsonl"
    tpath = tmp_path / "triples.jsonl"
    ppath.write_text(
        json.dumps({"id": "p1", "title": "T", "text": "body text"}) + "\n"
    )
    tpath.write_text(
        json.dumps({"passage_id": "p1", "subject": "A", "predicate": "r",
                    "object": "B"}) + "\n"
        + json.dumps({"passage_id": "p1", "subject": "B", "predicate": "s",
                      "object": "C"}) + "\n"
        + json.dumps({"id": "named", "passage_id": "p1", "subject": "C",
                      "predicate": "u", "object": "D"}) + "\n"
    )
    passages = load_passages_jsonl(ppath)
    triples = load_triples_jsonl(tpath)
    assert [p.id for p in passages] == ["p1"]
    assert [t.id for t in triples] == ["p1#0", "p1#1", "named"]


def test_persistence_round_trip(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")

    assert loaded.passages == chain_index.passages
    assert loaded.triples == chain_index.triples
    assert loaded.alignment == chain_index.alignment
    assert graph_of(loaded) == graph_of(chain_index)

    manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
    assert manifest["format_version"] == 6
    assert manifest["embedder"] == "hash:128"
    assert manifest["dim"] == 128
    data = (tmp_path / "idx" / "index.npz").read_bytes()
    assert manifest["sha256"] == {"index.npz": hashlib.sha256(data).hexdigest()}

    for query in ("enta linksto entb", "island kind"):
        for view in (PASSAGES, TRIPLES):
            assert (
                bm25_search(loaded, query, view, 5)
                == bm25_search(chain_index, query, view, 5)
            )
            assert (
                dense_search(loaded, query, view, 5).entries
                == dense_search(chain_index, query, view, 5).entries
            )


def test_an_index_and_its_views_compare_and_hash_by_identity(tmp_path, chain_index):
    """Arrays have no one truth value for ``==``, so an index and each of
    its views equal only themselves, hash as objects do, and have a short
    ``repr`` however large their arrays."""
    save_index(chain_index, tmp_path / "idx")
    first, second = load_index(tmp_path / "idx"), load_index(tmp_path / "idx")
    pairs = [
        (first, second),
        (first.lexical[PASSAGES], second.lexical[PASSAGES]),
        (first.vectors[TRIPLES], second.vectors[TRIPLES]),
    ]
    for one, other in pairs:
        assert one == one and one != other
        assert {one: "one", other: "other"}[one] == "one"
        assert len(repr(one)) < 100


def test_custom_embedder_round_trip_requires_explicit_embedder(tmp_path):
    def my_embedder(text):
        return np.ones(16) if text else np.zeros(16)

    index = build_index(
        [Passage("p1", "", "body")], [Triple("t1", "A", "r", "B", "p1")], my_embedder
    )
    save_index(index, tmp_path / "idx")
    manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
    assert manifest["embedder"] == "custom"
    with pytest.raises(IndexBuildError, match="custom"):
        load_index(tmp_path / "idx")
    loaded = load_index(tmp_path / "idx", embedder=my_embedder)
    assert loaded.passages == index.passages


@pytest.mark.parametrize(
    "edit, problem",
    [
        *(
            pytest.param(
                lambda m, v=version: {**m, "format_version": v},
                rf"format_version {version}, but only 6 loads; .*`triplehop index build`",
                id=f"format-{version}",
            )
            for version in (1, 2, 3, 4, 5, 999)
        ),
        pytest.param(lambda m: b"{not json", "not JSON", id="not-json"),
        pytest.param(lambda m: b'{"format_version": 6, "\xff": 1}', "not JSON", id="not-utf8"),
        pytest.param(lambda m: [], "not a JSON object", id="not-an-object"),
        pytest.param(
            lambda m: {**m, "embedder": "nope"},
            "embedder 'nope': unknown embedder spec",
            id="unknown-embedder",
        ),
        pytest.param(lambda m: {**m, "embedder": 7}, "embedder 7: ", id="embedder-not-a-string"),
    ],
)
def test_load_rejects_unknown_format(tmp_path, chain_index, edit, problem):
    save_index(chain_index, tmp_path / "idx")
    manifest_path = tmp_path / "idx" / "manifest.json"
    manifest = edit(json.loads(manifest_path.read_text()))
    if not isinstance(manifest, bytes):
        manifest = json.dumps(manifest).encode()
    manifest_path.write_bytes(manifest)
    with pytest.raises(IndexBuildError, match=rf"manifest\.json: {problem}"):
        load_index(tmp_path / "idx")


def test_hashed_rows_are_stored_as_int8_and_other_rows_as_float64(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "hashed")
    with np.load(tmp_path / "hashed" / "index.npz") as emb:
        for name, view in (("passage", PASSAGES), ("triple", TRIPLES)):
            held = chain_index.vectors[view].columns
            # a view stores one array; the records' keys end in _utf8 and _offsets
            view_keys = [key for key in emb.files if key.startswith(f"{name}_")
                         and not key.endswith(("_utf8", "_offsets"))]
            assert view_keys == [f"{name}_columns"]
            columns = emb[f"{name}_columns"]
            assert columns.dtype == np.int8 and columns.flags.c_contiguous
            assert columns.shape == (128, len(chain_index.vectors[view].ids))
            assert columns.tobytes() == held.tobytes()

    def halves(text):
        return np.full(4, 0.5 if text else 0.0)

    index = build_index(
        [Passage("p1", "", "body")], [Triple("t1", "A", "r", "B", "p1")], halves
    )
    save_index(index, tmp_path / "custom")
    with np.load(tmp_path / "custom" / "index.npz") as emb:
        assert emb["passage_columns"].dtype == np.float64
        assert emb["passage_columns"].tobytes() == halves("body").tobytes()
    loaded = load_index(tmp_path / "custom", embedder=halves)
    assert loaded.vectors[PASSAGES].columns.tobytes() == halves("body").tobytes()


def test_hashed_views_hold_int8_rows_and_an_int8_column_copy(tmp_path, chain_index):
    save_index(chain_index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    for index in (chain_index, loaded):
        for view in (PASSAGES, TRIPLES):
            vv = index.vectors[view]
            assert vv.columns.dtype == np.int8
            assert vv.columns.flags.c_contiguous
            assert vv.columns.shape == (128, len(vv.ids))
            wide = vv.columns.T.astype(np.float64)
            assert vv.sq_norms.dtype == np.float64
            assert vv.sq_norms.tobytes() == np.einsum("ij,ij->i", wide, wide).tobytes()
            assert vv.sq_norms.tobytes() == chain_index.vectors[view].sq_norms.tobytes()
        rows = index.triple_rows
        assert rows.dtype == np.int8 and rows.flags.c_contiguous
        assert rows.shape == (len(index.triples), 128)
        assert np.array_equal(rows, index.vectors[TRIPLES].columns.T)


def test_int8_columns_span_several_transpose_blocks():
    # 300 triples: two embedding blocks, each written transposed into the columns
    rows = np.random.default_rng(7).integers(-8, 9, size=(300, 16)).astype(np.float64)
    triples = [Triple(f"t{i:03d}", f"a{i}", "r", f"b{i}", "p1") for i in range(300)]
    by_text = {serialize_triple(t): row for t, row in zip(triples, rows)}

    def embed(text):
        return by_text.get(text, rows[0])

    index = build_index([Passage("p1", "", "a0 r b0")], triples, embed)
    vv = index.vectors[TRIPLES]
    assert vv.columns.dtype == np.int8 and vv.columns.flags.c_contiguous
    assert np.array_equal(vv.columns, rows.T)
    assert index.triple_rows.dtype == np.int8 and index.triple_rows.flags.c_contiguous
    assert index.triple_rows.astype(np.float64).tobytes() == rows.tobytes()
    assert vv.sq_norms.tobytes() == np.einsum("ij,ij->i", rows, rows).tobytes()
    # a value int8 cannot hold, in the second block, makes the view float64:
    # Fortran-order columns, each vector's values contiguous as the embedder
    # gave them, whose transposed view is the triple rows
    rows[299, 15] = 200.0
    index = build_index([Passage("p1", "", "a0 r b0")], triples, embed)
    vv = index.vectors[TRIPLES]
    assert vv.columns.dtype == np.float64 and vv.columns.flags.f_contiguous
    assert np.array_equal(vv.columns, rows.T)
    assert np.shares_memory(index.triple_rows, vv.columns)
    assert index.triple_rows.flags.c_contiguous and index.triple_rows.tobytes() == rows.tobytes()
    assert vv.sq_norms.tobytes() == np.einsum("ij,ij->i", rows, rows).tobytes()


@pytest.mark.parametrize("dim", [1023, 1025])
def test_squared_norms_of_int8_rows_are_exact(dim):
    # -128 in every bucket but the last, 1 there: at dim 1025 the first
    # vector's sum is 2**24 + 1, which float32 does not hold; at 1023 it is
    # below 2**24
    rows = np.full((2, dim), -128, dtype=np.int8)
    rows[:, -1] = 1
    rows[1, ::2] = 3
    vv = VectorView(("a", "b"), np.ascontiguousarray(rows.T))
    assert vv.sq_norms.dtype == np.float64
    assert vv.sq_norms.tolist() == [sum(v * v for v in row) for row in rows.tolist()]


def test_a_hashed_build_holds_no_float64_copy_of_a_view():
    # 3,000 triples at dim 1024, embedded in 12 blocks of 256: a float64 copy
    # of the triple view is 24.6 MB, its int8 rows and columns 6.1 MB, and
    # the records and lexical views a few MB more.
    dim, n = 1024, 3000
    passages = [Passage(f"p{i:02d}", "", f"passage {i}") for i in range(30)]
    triples = [
        Triple(f"t{i:04d}", f"entity {i}", "relates to", f"thing {i % 97}", f"p{i % 30:02d}")
        for i in range(n)
    ]
    # numpy reports its buffers to tracemalloc, so its peak sees every array.
    tracemalloc.start()
    try:
        index = build_index(passages, triples, HashEmbedder(dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.vectors[TRIPLES].columns.dtype == np.int8
    assert peak < n * dim * 8


def held_by(make):
    """What ``make()`` returns, and the traced bytes still live once it has."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        gc.collect()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_an_index_holds_one_copy_of_each_view(tmp_path):
    # 20,000 passages at dim 512: 10.2 MB of int8 passage columns, and a few
    # hundred kB each of text, postings and norms beside them. A second
    # layout of the passage view would be 10.2 MB more.
    n, dim = 20_000, 512
    passages = [Passage(f"p{i:05d}", "", f"w{i % 50} x{i % 7}") for i in range(n)]
    triples = [Triple(f"t{i}", f"w{i}", "r", f"x{i}", f"p{i:05d}") for i in range(10)]
    built, built_bytes = held_by(lambda: build_index(passages, triples, HashEmbedder(dim)))
    save_index(built, tmp_path / "idx")
    loaded, loaded_bytes = held_by(lambda: load_index(tmp_path / "idx"))
    one_copy = n * dim
    assert built.vectors[PASSAGES].columns.nbytes == one_copy
    assert [f.name for f in fields(VectorView)] == ["ids", "columns", "sq_norms", "positive_norms"]
    for index, nbytes in ((built, built_bytes), (loaded, loaded_bytes)):
        assert nbytes < one_copy * 1.5
        rows, columns = index.triple_rows, index.vectors[TRIPLES].columns
        assert rows.dtype == np.int8 and rows.flags.c_contiguous
        assert rows.shape == (len(triples), dim)
        assert rows.tobytes() == np.ascontiguousarray(columns.T).tobytes()


def test_a_save_holds_one_stored_array_at_a_time(tmp_path):
    # 20,000 passages and triples: about 9.4 MB of stored arrays, the largest
    # the 4.2 MB of passage text. A save that made every array before writing
    # held them all at once (13.1 MB traced); one that makes, writes and drops
    # each in turn holds the largest and zlib's and the ids' few buffers.
    n = 20_000
    passages = [Passage(f"p{i:05d}", f"title {i}", f"body {i} " + "word " * 40) for i in range(n)]
    triples = [
        Triple(f"t{i:05d}", f"entity {i}", "relates to", f"thing {i % 97}", f"p{i:05d}")
        for i in range(n)
    ]
    index = build_index(passages, triples, HashEmbedder(64))
    tracemalloc.start()
    try:
        save_index(index, tmp_path / "idx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with np.load(tmp_path / "idx" / "index.npz") as npz:
        sizes = sorted(npz[key].nbytes for key in npz.files)
    largest, total = sizes[-1], sum(sizes)
    assert largest > 4_000_000 and total > 9_000_000
    # the largest array, and less than half the others' bytes beside it
    assert peak < largest + (total - largest) / 2


def test_float_rows_are_their_own_columns(tmp_path):
    def halves(text):
        return np.full(4, 0.5 if text else 0.0)

    index = build_index(
        [Passage("p1", "", "body"), Passage("p2", "", "more")],
        [Triple("t1", "A", "r", "B", "p1")],
        halves,
    )
    save_index(index, tmp_path / "idx")
    for searched in (index, load_index(tmp_path / "idx", embedder=halves)):
        for view in (PASSAGES, TRIPLES):
            assert searched.vectors[view].columns.dtype == np.float64
        columns = searched.vectors[TRIPLES].columns
        assert np.shares_memory(searched.triple_rows, columns)
        assert np.array_equal(searched.triple_rows, columns.T)


def test_loading_hashed_rows_skips_the_int8_check(tmp_path, chain_index, monkeypatch):
    save_index(chain_index, tmp_path / "idx")

    def fail(rows):
        raise AssertionError("exact_int8 called at load")

    monkeypatch.setattr("triplehop.corpus_index.exact_int8", fail)
    loaded = load_index(tmp_path / "idx")
    for view in (PASSAGES, TRIPLES):
        assert loaded.vectors[view].columns.dtype == np.int8


def test_dense_search_rejects_queries_narrower_than_the_rows(tmp_path):
    index = build_index([Passage("p1", "", "body")], [], lambda text: np.ones(8))
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx", embedder=lambda text: np.ones(4))
    with pytest.raises(RetrievalError, match="4-wide query vectors against 8-wide passages"):
        dense_search(loaded, "body", PASSAGES, 1)


def test_build_rejects_an_embedder_whose_vectors_differ_in_shape():
    def ragged(text):
        return np.ones(8 if text.startswith("A") else 1)

    passages = [Passage("p1", "", "A body"), Passage("p2", "", "B body")]
    with pytest.raises(IndexBuildError, match=r"shape \(1,\) for 'p2', not \(8,\)"):
        build_index(passages, [], ragged)
    with pytest.raises(IndexBuildError, match=r"shape \(1, 8\) for 'p1'"):
        build_index(passages, [], lambda text: np.ones((1, 8)))


def test_load_rejects_an_embedder_of_another_dim(tmp_path):
    index = make_index([Passage("p1", "", "body text")], [], dim=64)
    save_index(index, tmp_path / "idx")
    assert load_index(tmp_path / "idx").embedder == HashEmbedder(64)
    with pytest.raises(IndexBuildError, match=r"manifest\.json: dim 64.*hash:128"):
        load_index(tmp_path / "idx", embedder=HashEmbedder(128))
    # an empty index stores dim 0 and loads with any embedder
    save_index(make_index([], [], dim=64), tmp_path / "empty")
    assert load_index(tmp_path / "empty", embedder=HashEmbedder(128)).passages == {}


def test_load_rejects_a_manifest_dim_unlike_the_stored_rows(tmp_path):
    save_index(make_index([Passage("p1", "", "body text")], [], dim=64), tmp_path / "idx")
    manifest_path = tmp_path / "idx" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["dim"] = 32
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexBuildError, match=r"manifest\.json: dim 32, but 64-wide passage"):
        load_index(tmp_path / "idx", embedder=lambda text: np.zeros(32))


def test_passages_loader_names_both_lines_of_a_repeated_id(tmp_path):
    path = tmp_path / "passages.jsonl"
    records = [{"id": "p1", "text": "a"}, {"id": "p2", "text": "b"}, {"id": "p1", "text": "c"}]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with pytest.raises(
        IndexBuildError, match=r"passages.jsonl:3: duplicate passage id: 'p1', first on line 1"
    ):
        load_passages_jsonl(path)


def test_triples_loader_names_both_lines_of_a_repeated_id(tmp_path):
    path = tmp_path / "triples.jsonl"
    fact = {"passage_id": "p1", "subject": "A", "predicate": "r", "object": "B"}
    # the second line's default id, "p1#1" (its passage's second triple), is
    # the first line's explicit id
    path.write_text(json.dumps({**fact, "id": "p1#1"}) + "\n" + json.dumps(fact) + "\n")
    with pytest.raises(
        IndexBuildError, match=r"triples.jsonl:2: duplicate triple id: 'p1#1', first on line 1"
    ):
        load_triples_jsonl(path)


def test_passages_loader_names_line_of_missing_field(tmp_path):
    path = tmp_path / "passages.jsonl"
    path.write_text(
        json.dumps({"id": "p1", "text": "a"}) + "\n\n" + json.dumps({"text": "b"}) + "\n"
    )
    with pytest.raises(IndexBuildError, match=r"passages.jsonl:3: missing field 'id'"):
        load_passages_jsonl(path)


def test_triples_loader_names_line_of_missing_field(tmp_path):
    path = tmp_path / "triples.jsonl"
    path.write_text(
        json.dumps({"passage_id": "p1", "predicate": "r", "object": "B"}) + "\n"
    )
    with pytest.raises(IndexBuildError, match=r"triples.jsonl:1: missing field 'subject'"):
        load_triples_jsonl(path)
    path.write_text('["p1", "A", "r", "B"]\n')
    with pytest.raises(IndexBuildError, match=r"triples.jsonl:1: expected a JSON object"):
        load_triples_jsonl(path)


def test_passages_loader_rejects_null_text(tmp_path):
    path = tmp_path / "passages.jsonl"
    for field in ("id", "title", "text"):
        path.write_text(json.dumps({"id": "p1", "title": "T", "text": "a", field: None}) + "\n")
        with pytest.raises(
            IndexBuildError, match=rf"passages.jsonl:1: field '{field}' must be a string, got null"
        ):
            load_passages_jsonl(path)


def test_triples_loader_rejects_wrong_json_types(tmp_path):
    path = tmp_path / "triples.jsonl"
    good = {"passage_id": "p1", "subject": "A", "predicate": "r", "object": "B"}
    for field, value, kind in (
        ("subject", None, "null"), ("object", ["B"], "an array"), ("passage_id", {}, "an object"),
    ):
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(
            IndexBuildError, match=rf"triples.jsonl:2: field '{field}' must be a string, got {kind}"
        ):
            load_triples_jsonl(path)
    # a numeric id or text is read as its text; a null id is a missing one
    path.write_text(json.dumps({**good, "id": 7, "object": 1999}) + "\n"
                    + json.dumps({**good, "id": None}) + "\n")
    assert [(t.id, t.object) for t in load_triples_jsonl(path)] == [("7", "1999"), ("p1#1", "B")]


def test_read_jsonl_names_line_of_type_error(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"n": [1]}\n{"n": 5}\n')
    with pytest.raises(IndexBuildError, match=r"records.jsonl:2: object of type 'int' has no len"):
        read_jsonl(path, lambda obj: len(obj["n"]))


@pytest.mark.parametrize(
    "read, error, record",
    [
        (load_passages_jsonl, IndexBuildError,
         lambda i, text: {"id": f"p{i}", "title": "T", "text": text}),
        (load_triples_jsonl, IndexBuildError,
         lambda i, text: {"passage_id": "p1", "subject": text, "predicate": "r", "object": "B"}),
        (load_questions_jsonl, ValueError,
         lambda i, text: {"id": f"q{i}", "question": text, "gold_passage_ids": ["p1"],
                          "answers": ["B"]}),
        (lambda path: ScriptedBackend.from_jsonl(path)._fixtures, ValueError,
         lambda i, text: {"kind": "reader", "key": f"k{i}", "response": text}),
    ],
    ids=["passages", "triples", "questions", "fixtures"],
)
def test_jsonl_readers_name_the_line_that_is_not_utf8(tmp_path, read, error, record):
    # \r\n, a lone \r and \n end lines alike; the long line puts the bad byte
    # past the decoder's first chunk of the file
    lines = [json.dumps(record(i, text)).encode() for i, text in enumerate(["one", "two" * 5000])]
    lines.append(json.dumps(record(2, "thrée")).encode())
    path = tmp_path / "records.jsonl"
    path.write_bytes(lines[0] + b"\r\n" + lines[1] + b"\r" + lines[2] + b"\n")
    with_crlf = read(path)
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert read(path) == with_crlf
    path.write_bytes(lines[0] + b"\r\n" + lines[1] + b"\r" + lines[2].replace(b"thr", b"th\xff"))
    with pytest.raises(error) as raised:
        read(path)
    assert raised.type is error
    at = lines[2].index(b"thr") + 2
    assert str(raised.value) == f"{path}:3: not UTF-8: invalid start byte at byte {at} of the line"
