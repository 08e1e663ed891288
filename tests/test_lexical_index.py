"""The CSR lexical index: its postings and BM25 against the oracles, and the
integrity checks ``load_index`` makes on what it reads."""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    IndexBuildError,
    Passage,
    Triple,
    bm25_search,
    build_index,
    load_index,
    save_index,
    serialize_triple,
)
from triplehop.corpus_index import PASSAGES, TRIPLES, LexicalView, passage_search_text

from .oracles import oracle_bm25, oracle_postings

K1_VALUES = (0.0, 1.2, 2.0)
B_VALUES = (0.0, 0.75, 1.0)
# "every" is added to every passage and triple by ``make_corpus(common=True)``.
WORDS = ("alpha", "beta", "gamma", "delta", "Beta", "every")


def view_texts(index, view: str) -> dict[str, str]:
    if view == PASSAGES:
        return {pid: passage_search_text(p) for pid, p in index.passages.items()}
    return {tid: serialize_triple(t) for tid, t in index.triples.items()}


def assert_matches_oracle(index, query: str, k1: float, b: float, k: int = 50):
    for view in (PASSAGES, TRIPLES):
        got = bm25_search(index, query, view, k, k1=k1, b=b).entries
        want = oracle_bm25(view_texts(index, view), query, k, k1, b)
        assert [item_id for item_id, _ in got] == [item_id for item_id, _ in want]
        assert [score for _, score in got] == [score for _, score in want]


def make_corpus(bodies: list[str], facts: list[tuple[str, str, str]], common: bool):
    extra = " every" if common else ""
    passages = [Passage(f"p{i:02d}", "", body + extra) for i, body in enumerate(bodies)]
    triples = [
        Triple(f"t{i:02d}", s, p + extra, o, f"p{i % len(bodies):02d}")
        for i, (s, p, o) in enumerate(facts)
    ]
    return build_index(passages, triples, HashEmbedder(16))


def saved_and_loaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        return load_index(tmp)


# Lengths 0 to 17: the divisions in the length normalisation round, so a
# reordered formula shows up in the last bit.
FIXED_BODIES = ["", "alpha beta beta", "gamma", "alpha alpha alpha delta beta", "", "", "",
                " ".join(["alpha"] * 17)]
FIXED_FACTS = [("alpha", "is", "beta"), ("gamma", "is", "gamma"), ("delta", "of", "x")]


@pytest.mark.parametrize("b", B_VALUES)
@pytest.mark.parametrize("k1", K1_VALUES)
def test_bm25_equals_oracle_fixed_corpus(k1, b):
    index = make_corpus(FIXED_BODIES, FIXED_FACTS, common=True)
    loaded = saved_and_loaded(index)
    # repeated terms, a term every doc holds, an unknown term, case folding
    for query in ("beta beta alpha", "every", "every alpha every", "nope", "BETA", ""):
        assert_matches_oracle(index, query, k1, b)
        assert_matches_oracle(loaded, query, k1, b)


text = st.lists(st.sampled_from(WORDS[:-1]), max_size=20).map(" ".join)
word = st.sampled_from(WORDS[:-1])


@settings(max_examples=60, deadline=None)
@given(
    bodies=st.lists(text, min_size=1, max_size=8),
    facts=st.lists(st.tuples(word, word, word), max_size=8),
    common=st.booleans(),
    query=st.lists(st.sampled_from(WORDS + ("nope",)), max_size=6).map(" ".join),
)
def test_bm25_equals_oracle(bodies, facts, common, query):
    index = make_corpus(bodies, facts, common)
    loaded = saved_and_loaded(index)
    for k1 in K1_VALUES:
        for b in B_VALUES:
            assert_matches_oracle(index, query, k1, b)
            assert_matches_oracle(loaded, query, k1, b)


# Pieces with no token ("-", "_", " "), case mappings that change length or
# depend on context ("İ", "Σ", "ß"), and lone surrogates, which JSON input may
# hold; short texts of few pieces repeat terms.
PIECES = ("a", "b", "ab", "1", "İ", "Σ", "σ", "ς", "ß", "SS", "\ud800", "\udfff", "-", "_", " ")


@settings(max_examples=200, deadline=None)
@example([])
@example(["", "--", "_"])
@example(["a b a a", "İ Σ ß \ud800", "ΣΑΣ ßSS", "b"])
@given(st.lists(st.lists(st.sampled_from(PIECES), max_size=10).map("".join), max_size=8))
def test_from_texts_equals_postings_oracle(texts):
    view = LexicalView.from_texts([f"d{i}" for i in range(len(texts))], texts)
    rows, arrays = oracle_postings(texts)
    assert list(view.rows.items()) == list(rows.items())
    for key, want in arrays.items():
        got = getattr(view, key)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_from_texts_holds_no_string_per_posting():
    # 50,000 postings over 500 terms: 0.84 MB as int64 arrays (the view
    # returns them narrower). A build that keeps a string and a Python int
    # per posting, as the oracle does, peaks at 7.7 times that; one that
    # holds integer arrays per token, 2.9.
    words = [f"w{i:03d}" for i in range(500)]
    texts = [" ".join(words[(i * 7 + j * 13) % 500] for j in range(10)) for i in range(5000)]
    tracemalloc.start()
    try:
        view = LexicalView.from_texts([f"d{i:04d}" for i in range(5000)], texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (view.doc_lengths, view.indptr, view.doc_positions, view.term_freqs)
    assert len(view.doc_positions) == 50_000
    assert peak < 4 * 8 * sum(a.size for a in arrays)


def hex_entries(ranked) -> list[tuple[str, str]]:
    return [(item_id, score.hex()) for item_id, score in ranked.entries]


def oracle_hex(index, view: str, query: str, k1: float, b: float) -> list[tuple[str, str]]:
    want = oracle_bm25(view_texts(index, view), query, 50, k1, b)
    return [(item_id, score.hex()) for item_id, score in want]


# Each query below, in both views, at each of two (k1, b) pairs.
MEMO_QUERIES = ("beta beta alpha", "every", "every alpha every", "gamma delta", "nope")
MEMO_PAIRS = ((1.2, 0.75), (2.0, 0.3))


def test_bm25_weight_memo_per_pair_equals_oracle():
    index = make_corpus(FIXED_BODIES, FIXED_FACTS, common=True)
    for searched in (index, saved_and_loaded(index)):
        # Weights are filled on first use, not at build or load.
        assert all(not searched.lexical[view].bm25_weights for view in (PASSAGES, TRIPLES))
        # A, B, then A again from the memo.
        for k1, b in (*MEMO_PAIRS, MEMO_PAIRS[0]):
            for view in (PASSAGES, TRIPLES):
                for query in MEMO_QUERIES:
                    got = bm25_search(searched, query, view, 50, k1=k1, b=b)
                    assert hex_entries(got) == oracle_hex(searched, view, query, k1, b)
                batched = bm25_search(searched, list(MEMO_QUERIES), view, 50, k1=k1, b=b)
                assert [hex_entries(ranked) for ranked in batched] == [
                    oracle_hex(searched, view, query, k1, b) for query in MEMO_QUERIES
                ]
        for view in (PASSAGES, TRIPLES):
            memo = searched.lexical[view].bm25_weights
            assert sorted(memo) == sorted(MEMO_PAIRS)
            assert all(len(w) == len(searched.lexical[view].doc_positions) for w in memo.values())
            kept = dict(memo)
            bm25_search(searched, "alpha", view, 5, k1=1.2, b=0.75)
            assert all(memo[pair] is kept[pair] for pair in MEMO_PAIRS)


def test_bm25_weight_memo_is_thread_safe():
    index = make_corpus(FIXED_BODIES * 4, FIXED_FACTS * 4, common=True)
    calls = [
        (view, query, pair)
        for _ in range(6)
        for pair in MEMO_PAIRS
        for view in (PASSAGES, TRIPLES)
        for query in MEMO_QUERIES
    ]

    def search(call):
        view, query, (k1, b) = call
        return hex_entries(bm25_search(index, query, view, 50, k1=k1, b=b))

    assert all(not index.lexical[view].bm25_weights for view in (PASSAGES, TRIPLES))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(search, calls))
    finally:
        sys.setswitchinterval(interval)
    for call, got in zip(calls, threaded):
        view, query, (k1, b) = call
        assert got == oracle_hex(index, view, query, k1, b)
    # A fresh index fills its memo in one thread; the arrays must agree.
    fresh = make_corpus(FIXED_BODIES * 4, FIXED_FACTS * 4, common=True)
    for view, query, (k1, b) in calls:
        bm25_search(fresh, query, view, 50, k1=k1, b=b)
    for view in (PASSAGES, TRIPLES):
        memo, want = index.lexical[view].bm25_weights, fresh.lexical[view].bm25_weights
        assert sorted(memo) == sorted(want) == sorted(MEMO_PAIRS)
        for pair in MEMO_PAIRS:
            assert memo[pair].tobytes() == want[pair].tobytes()


def test_index_npz_keys_unchanged(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    fields = {"passage": ("id", "title", "text"),
              "triple": ("id", "subject", "predicate", "object", "passage_id")}
    keys = [f"{kind}_{key}_{part}" for kind, names in fields.items() for key in names
            for part in ("utf8", "offsets")]
    for prefix, name in (("p", "passage"), ("t", "triple")):
        keys += [f"{prefix}_{key}" for key in ("doc_lengths", "vocab", "doc_freq", "indptr",
                                                "doc_positions", "term_freqs")]
        keys.append(f"{name}_columns")
    with np.load(tmp_path / "index.npz") as npz:
        assert npz.files == keys
        for prefix, view in (("p", PASSAGES), ("t", TRIPLES)):
            assert np.array_equal(
                npz[f"{prefix}_doc_freq"], np.diff(chain_index.lexical[view].indptr)
            )


# ---------------------------------------------------------------------------
# Integrity at load
# ---------------------------------------------------------------------------

def reseal(directory: Path) -> None:
    """Record the files' current sha256 in the manifest, as if they had been
    saved as they now are, so a load reaches the checks behind the hashes."""
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for name in manifest["sha256"]:
        manifest["sha256"][name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def rewrite_npz(path: Path, **changes) -> None:
    with np.load(path) as stored:
        arrays = dict(stored)
    arrays.update(changes)
    np.savez_compressed(path, **arrays)
    reseal(path.parent)


def record_values(path: Path, key: str) -> list[str]:
    """The values of one text field of an ``index.npz``."""
    with np.load(path) as rec:
        text = rec[f"{key}_utf8"].tobytes().decode("utf-8", "surrogatepass")
        bounds = rec[f"{key}_offsets"].tolist()
    return [text[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def record_column(key: str, values: list[str]) -> dict[str, np.ndarray]:
    """The two arrays of an ``index.npz`` text field holding ``values``."""
    data = "".join(values).encode("utf-8", "surrogatepass")
    return {
        f"{key}_utf8": np.frombuffer(data, dtype=np.uint8),
        f"{key}_offsets": np.cumsum([0, *map(len, values)]),
    }


def rewrite_records(directory: Path, kind: str, edit) -> None:
    """Replace the ``kind`` ("passage" or "triple") records of a saved
    index's ``index.npz`` with ``edit(rows)``, each row a dict of field ->
    text; set the manifest's count to match and reseal."""
    path = directory / "index.npz"
    with np.load(path) as rec:
        keys = [
            name[len(kind) + 1 : -len("_utf8")] for name in rec.files
            if name.startswith(f"{kind}_") and name.endswith("_utf8")
        ]
    columns = [record_values(path, f"{kind}_{key}") for key in keys]
    rows = edit([dict(zip(keys, values)) for values in zip(*columns)])
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[f"{kind}s"] = len(rows)
    manifest_path.write_text(json.dumps(manifest))
    arrays = {}
    for key in keys:
        arrays.update(record_column(f"{kind}_{key}", [row[key] for row in rows]))
    rewrite_npz(path, **arrays)


# Saved by the code of format version 3 (records as JSONL files, hashed) and
# of format version 4 (records.npz, lexical.npz and embeddings.npz), from the
# same input: the old indexes kept, which a load refuses and a save replaces.
V3_INDEX = Path(__file__).parent / "data" / "index_v3"
V4_INDEX = Path(__file__).parent / "data" / "index_v4"


def v3_copy(tmp_path: Path) -> Path:
    return Path(shutil.copytree(V3_INDEX, tmp_path / "v3"))


def v4_copy(tmp_path: Path) -> Path:
    return Path(shutil.copytree(V4_INDEX, tmp_path / "v4"))


def test_load_rejects_passage_added_to_records_after_save(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    late = {"id": "p5", "title": "", "text": "late island"}
    rewrite_records(tmp_path, "passage", lambda rows: rows + [late])
    # the views' rows are the saved four, not the records' five
    with pytest.raises(IndexBuildError, match="index.npz: p_arrays disagree in length"):
        load_index(tmp_path)


def test_load_rejects_vector_row_count(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    emb = tmp_path / "index.npz"
    # the columns of the first three of four passages
    with np.load(emb) as stored:
        columns = stored["passage_columns"]
    rewrite_npz(emb, passage_columns=np.ascontiguousarray(columns[:, :3]))
    with pytest.raises(IndexBuildError, match="index.npz: 3 passage vectors for 4 ids"):
        load_index(tmp_path)


def test_load_rejects_doc_freq_mismatch(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    lex = tmp_path / "index.npz"
    doc_freq = np.load(lex)["t_doc_freq"].copy()
    doc_freq[0] += 1
    rewrite_npz(lex, t_doc_freq=doc_freq)
    with pytest.raises(IndexBuildError, match="index.npz: t_doc_freq"):
        load_index(tmp_path)


def test_load_rejects_decreasing_indptr(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    lex = tmp_path / "index.npz"
    indptr = np.load(lex)["p_indptr"].copy()
    indptr[1], indptr[2] = indptr[2], indptr[1]
    rewrite_npz(lex, p_indptr=indptr, p_doc_freq=np.diff(indptr))
    with pytest.raises(IndexBuildError, match="index.npz: p_indptr"):
        load_index(tmp_path)


def test_load_rejects_doc_position_out_of_range(tmp_path, chain_index):
    save_index(chain_index, tmp_path)
    lex = tmp_path / "index.npz"
    positions = np.load(lex)["p_doc_positions"].copy()
    positions[-1] = len(chain_index.passages)
    rewrite_npz(lex, p_doc_positions=positions)
    with pytest.raises(IndexBuildError, match="index.npz: p_doc_positions"):
        load_index(tmp_path)


@pytest.mark.parametrize("prefix", ["p", "t"])
@pytest.mark.parametrize(
    "vocab", [["alpha", "alpha", "gamma"], ["gamma", "beta", "alpha"]], ids=["repeated", "reordered"]
)
def test_load_rejects_a_vocab_not_strictly_ascending(tmp_path, prefix, vocab):
    # A vocabulary's order is its rows': loaded out of order, "alpha" would
    # find both passages and "gamma" the first.
    passages = [Passage("p1", "", "alpha beta"), Passage("p2", "", "beta gamma")]
    triples = [Triple("t1", "alpha", "beta", "gamma", "p1")]
    save_index(build_index(passages, triples, HashEmbedder(16)), tmp_path)
    with np.load(tmp_path / "index.npz") as stored:
        assert stored[f"{prefix}_vocab"].tolist() == ["alpha", "beta", "gamma"]
    rewrite_npz(tmp_path / "index.npz", **{f"{prefix}_vocab": np.asarray(vocab)})
    with pytest.raises(IndexBuildError, match=rf"index\.npz: {prefix}_vocab is not strictly ascending"):
        load_index(tmp_path)


# "alpha" is the first row of both views, at positions [0, 2] with term
# frequencies [2, 1]. Each edit below passes the length, range and
# ``indptr`` checks, and an index that took it would rank wrongly: "alpha"
# would find p1 alone, or p3 above p1, or nothing.
@pytest.mark.parametrize("prefix", ["p", "t"])
@pytest.mark.parametrize(
    "key, at, value",
    [
        ("doc_positions", slice(0, 2), [0, 0]),
        ("doc_positions", slice(0, 2), [2, 0]),
        ("term_freqs", slice(None), 0),
        ("doc_lengths", 0, 100),
    ],
    ids=["repeated-position", "reversed-row", "zero-term-freqs", "longer-text"],
)
def test_load_rejects_postings_that_disagree_with_themselves(tmp_path, prefix, key, at, value):
    passages = [Passage("p1", "", "alpha alpha beta"), Passage("p2", "", "beta gamma"),
                Passage("p3", "", "alpha delta")]
    triples = [Triple("t1", "alpha", "alpha", "beta", "p1"),
               Triple("t2", "beta", "is", "gamma", "p2"),
               Triple("t3", "alpha", "is", "delta", "p3")]
    save_index(build_index(passages, triples, HashEmbedder(16)), tmp_path)
    with np.load(tmp_path / "index.npz") as stored:
        assert stored[f"{prefix}_vocab"][0] == "alpha" and stored[f"{prefix}_indptr"][1] == 2
        assert stored[f"{prefix}_doc_positions"][:2].tolist() == [0, 2]
        assert stored[f"{prefix}_term_freqs"][:2].tolist() == [2, 1]
        array = stored[f"{prefix}_{key}"].copy()
    array[at] = value
    rewrite_npz(tmp_path / "index.npz", **{f"{prefix}_{key}": array})
    with pytest.raises(IndexBuildError, match=rf"index\.npz: {prefix}_{key} "):
        load_index(tmp_path)


@pytest.mark.parametrize(
    "kind, edit, problem",
    [
        ("passage", lambda rows: rows + rows[:1], "duplicate passage id: 'p1'"),
        ("passage", lambda rows: [{**rows[0], "id": ""}, *rows[1:]], "passage with empty id"),
        ("triple", lambda rows: rows + rows[:1], "duplicate triple id: 't1'"),
        (
            "triple",
            lambda rows: rows + [{**rows[0], "id": "tX", "passage_id": "nope"}],
            "triple 'tX' references unknown passage 'nope'",
        ),
        ("triple", lambda rows: [{**rows[0], "subject": " "}, *rows[1:]], "triple 't1' has a blank field"),
        ("triple", lambda rows: [*rows[:-1], {**rows[-1], "object": ""}], "triple 't4' has a blank field"),
        # blank by str.isspace, which accepts 28-31 and ideographic spaces too
        ("triple", lambda rows: [rows[0], {**rows[1], "predicate": "\x1f"}, *rows[2:]],
         "triple 't2' has a blank field"),
        ("triple", lambda rows: [*rows[:2], {**rows[2], "subject": "\u3000"}, rows[3]],
         "triple 't3' has a blank field"),
        # the first blank triple is named, whichever field and column it is in,
        # with every column plain (an empty object) or not (a space)
        (
            "triple",
            lambda rows: [rows[0], {**rows[1], "object": ""}, {**rows[2], "predicate": ""}, rows[3]],
            "triple 't2' has a blank field",
        ),
        (
            "triple",
            lambda rows: [rows[0], {**rows[1], "object": " "}, {**rows[2], "predicate": ""}, rows[3]],
            "triple 't2' has a blank field",
        ),
    ],
)
def test_load_applies_build_record_checks_to_records_npz(tmp_path, chain_index, kind, edit, problem):
    save_index(chain_index, tmp_path)
    rewrite_records(tmp_path, kind, edit)
    with pytest.raises(IndexBuildError, match=rf"index\.npz: {problem}"):
        load_index(tmp_path)
