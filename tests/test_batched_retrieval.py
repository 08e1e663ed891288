"""Batched retrieval. A sequence of queries gives, query by query, the list
each query gets alone, bit for bit; a single ``str`` is the one-row batch.
The top-k selection equals the first k of a full stable sort, including ties
that straddle the k-th place."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    Passage,
    RankedList,
    RetrievalConfig,
    RetrievalError,
    Triple,
    base_retrieve,
    bm25_search,
    build_index,
    dense_search,
    hash_embed,
    hybrid_search,
    load_index,
    save_index,
)
from triplehop.base_retrieval import top_k
from triplehop.corpus_index import PASSAGES, TRIPLES


def saved_and_loaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        return load_index(tmp)


def bits(ranked: RankedList) -> list[tuple[str, str]]:
    return [(item_id, score.hex()) for item_id, score in ranked.entries]


def searches(k: int):
    """Every batched entry point, as (name, query -> result) at depth k."""
    return [
        ("bm25", lambda index, q, view: bm25_search(index, q, view, k, k1=1.5, b=0.5)),
        ("dense", lambda index, q, view: dense_search(index, q, view, k)),
        ("hybrid", lambda index, q, view: hybrid_search(index, q, view, k)),
    ] + [
        (retriever, lambda index, q, view, r=retriever: base_retrieve(
            index, q, view, RetrievalConfig(k=3, retriever=r), k=k))
        for retriever in ("bm25", "dense", "hybrid")
    ]


_WORDS = st.sampled_from(["vo", "va", "gu", "de", "bo", "ki", "Vova", "gude", "bova", "deguvo"])
_TEXT = st.lists(_WORDS, min_size=0, max_size=6).map(" ".join)
# Always in the batch: an empty query, one with no trigrams (the zero
# vector) but a known BM25 term, and one with neither tokens nor trigrams.
_FIXED_QUERIES = ["", "vo", "!"]


@settings(max_examples=60, deadline=None)
@given(
    bodies=st.lists(_TEXT, min_size=1, max_size=12),
    facts=st.lists(st.tuples(_TEXT, _TEXT, _TEXT), max_size=12),
    dim=st.sampled_from([8, 16]),
    queries=st.lists(_TEXT, min_size=1, max_size=5),
    k=st.sampled_from([1, 2, 5, 100]),
)
@example(bodies=["vo va", "vo va", "gude"], facts=[], dim=8, queries=["vo va"], k=1)
def test_batch_equals_single_calls(bodies, facts, dim, queries, k):
    passages = [Passage(f"p{i:02d}", "", body) for i, body in enumerate(bodies)]
    triples = [
        Triple(f"t{i:02d}", f"s{s}", f"r{p}", f"o{o}", f"p{i % len(bodies):02d}")
        for i, (s, p, o) in enumerate(facts)
    ]
    index = build_index(passages, triples, HashEmbedder(dim))
    # duplicates: the first drawn query appears twice
    batch = [*queries, *_FIXED_QUERIES, queries[0]]
    for searched in (index, saved_and_loaded(index)):
        for view in (PASSAGES, TRIPLES):
            for name, search in searches(k):
                batched = search(searched, batch, view)
                assert isinstance(batched, list) and len(batched) == len(batch), name
                for query, got in zip(batch, batched):
                    alone = search(searched, query, view)
                    assert isinstance(alone, RankedList), name
                    assert bits(got) == bits(alone), (name, view, query)
                    assert got.provenance == alone.provenance


@pytest.mark.parametrize("search", [bm25_search, dense_search, hybrid_search])
def test_empty_batch_returns_empty_list(search):
    index = build_index([Passage("p1", "", "alpha beta")], [], HashEmbedder(16))
    assert search(index, [], PASSAGES, 5) == []
    assert base_retrieve(index, (), PASSAGES, RetrievalConfig()) == []


def test_embedder_failing_mid_batch_raises_retrieval_error():
    class FailsThird:
        name = "fails-third"

        def __init__(self):
            self.calls = 0

        def __call__(self, text):
            self.calls += 1
            if text == "third":
                raise RuntimeError("backend down")
            return hash_embed(text, 16)

    embedder = FailsThird()
    index = build_index([Passage("p1", "", "alpha beta")], [], embedder)
    embedder.calls = 0
    with pytest.raises(RetrievalError, match="backend down"):
        dense_search(index, ["first", "second", "third", "fourth"], PASSAGES, 1)
    assert embedder.calls == 3
    with pytest.raises(RetrievalError):
        base_retrieve(index, ["first", "second", "third"], PASSAGES, RetrievalConfig())


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------

def test_top_k_ties_straddling_the_cut_keep_smallest_positions():
    # Positions 1, 3, 4 and 6 tie at the 2nd-4th place; a top 3 must take the
    # 9 and then the two smallest tied positions, 1 and 3.
    scores = np.array([0.5, 2.0, 0.0, 2.0, 2.0, 9.0, 2.0, -1.0])
    assert [top.tolist() for top in top_k(scores[None], 3)] == [[5, 1, 3]]
    assert [top.tolist() for top in top_k(scores[None], 5)] == [[5, 1, 3, 4, 6]]
    assert [top.tolist() for top in top_k(-scores[None], 2)] == [[7, 2]]
    # Each row of a batch is cut at its own k-th score.
    both = np.stack([scores, -scores])
    assert [top.tolist() for top in top_k(both, 3)] == [[5, 1, 3], [7, 2, 0]]
    assert [top.tolist() for top in top_k(both, 3, positive=True)] == [[5, 1, 3], [7]]


def expected_top_k(row: np.ndarray, k: int, positive: bool) -> list[int]:
    order = np.argsort(-row, kind="stable")
    if positive:
        order = order[row[order] > 0]
    return order[:k].tolist()


# Few distinct values make ties at the k-th place common; -0.0 ties with 0.0.
_SCORES = st.one_of(st.integers(-3, 3).map(lambda v: v / 4.0), st.just(-0.0))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 30).flatmap(
        lambda n: st.lists(st.lists(_SCORES, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    st.integers(0, 32),
    st.booleans(),
)
@example(rows=[[0.0] * 6, [-0.0] * 6], k=3, positive=True)
@example(rows=[[0.0, -0.0, 0.5, -0.5]] * 2, k=4, positive=False)
@example(rows=[[0.25, -0.25, 0.25]], k=5, positive=True)
@example(rows=[[], []], k=1, positive=False)
def test_top_k_equals_prefix_of_stable_argsort(rows, k, positive):
    scores = np.array(rows, dtype=np.float64)
    got = top_k(scores, k, positive)
    assert len(got) == len(rows)
    for row, top in zip(scores, got):
        assert top.tolist() == expected_top_k(row, k, positive)


def test_top_k_of_no_rows():
    assert top_k(np.zeros((0, 4)), 2) == []
    assert top_k(np.zeros((0, 0)), 2, positive=True) == []


def test_bm25_tie_at_the_cut_breaks_by_id():
    # "zeta" is touched first and hits p3 and p4; "theta" hits p0 and p1. All
    # four score the same, so a top 2 is p0 and p1, not the first touched.
    bodies = ["theta eta", "theta eta", "eta eta", "zeta eta", "zeta eta"]
    index = build_index(
        [Passage(f"p{i}", "", body) for i, body in enumerate(bodies)], [], HashEmbedder(16)
    )
    result = bm25_search(index, "zeta theta", PASSAGES, 2)
    assert result.ids == ["p0", "p1"]
    assert result.entries[0][1] == result.entries[1][1]
    assert bm25_search(index, "zeta theta", PASSAGES, 4).ids == ["p0", "p1", "p3", "p4"]
