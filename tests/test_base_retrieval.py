from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    Passage,
    RankedList,
    RetrievalConfig,
    RetrievalError,
    bm25_search,
    build_index,
    dense_search,
    hash_embed,
    hybrid_search,
    rrf_fuse,
)
from triplehop.corpus_index import PASSAGES

from .oracles import oracle_cosine_ranking


def make_index(passages, triples=(), dim=64, embedder=None):
    return build_index(passages, list(triples), embedder or HashEmbedder(dim))


def ranked(*ids):
    return RankedList(tuple((i, 1.0 / (rank + 1)) for rank, i in enumerate(ids)))


# ---------------------------------------------------------------------------
# BM25
# ---------------------------------------------------------------------------

def test_bm25_no_match_is_empty():
    index = make_index([Passage("p1", "", "alpha beta")])
    assert bm25_search(index, "zzz qqq", PASSAGES, 5).entries == ()


def test_bm25_empty_query_is_empty():
    index = make_index([Passage("p1", "", "alpha beta")])
    assert bm25_search(index, "...!!!", PASSAGES, 5).entries == ()


def test_bm25_singleton_corpus():
    index = make_index([Passage("p1", "", "alpha beta gamma")])
    result = bm25_search(index, "beta", PASSAGES, 5)
    assert result.ids == ["p1"]
    assert result.entries[0][1] > 0


def test_bm25_hand_computed_two_doc_case():
    # Both docs are 4 tokens long; "zebra" appears twice in A, once in B.
    # idf = ln(1 + (2 - 2 + 0.5)/(2 + 0.5)) = ln(1.2)
    # score(A) = idf * 2*2.2 / (2 + 1.2*(0.25 + 0.75*1)) = idf * 1.375
    # score(B) = idf * 1*2.2 / (1 + 1.2)                 = idf * 1.0
    index = make_index(
        [
            Passage("a", "", "zebra zebra lion tiger"),
            Passage("b", "", "zebra lion tiger bear"),
        ]
    )
    result = bm25_search(index, "zebra", PASSAGES, 5, k1=1.2, b=0.75)
    assert result.ids == ["a", "b"]
    idf = math.log(1.2)
    assert abs(result.entries[0][1] - idf * 1.375) < 1e-9
    assert abs(result.entries[0][1] - 0.2506921405916876) < 1e-9
    assert abs(result.entries[1][1] - 0.1823215567939546) < 1e-9


def test_bm25_tie_breaks_ascending_id():
    index = make_index(
        [Passage("b", "", "same text here"), Passage("a", "", "same text here")]
    )
    assert bm25_search(index, "same", PASSAGES, 5).ids == ["a", "b"]


def test_bm25_searches_titles_too():
    index = make_index(
        [Passage("p1", "unique title word", "body"), Passage("p2", "", "body")]
    )
    assert bm25_search(index, "unique", PASSAGES, 5).ids == ["p1"]


def test_bm25_truncates_to_k():
    passages = [Passage(f"p{i}", "", f"shared word{i}") for i in range(10)]
    index = make_index(passages)
    assert len(bm25_search(index, "shared", PASSAGES, 3)) == 3


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------

def test_dense_identity_text_ranks_first():
    index = make_index(
        [Passage("p1", "", "an exact matching sentence"),
         Passage("p2", "", "something altogether different")]
    )
    result = dense_search(index, "an exact matching sentence", PASSAGES, 2)
    assert result.ids[0] == "p1"
    assert abs(result.entries[0][1] - 1.0) < 1e-9


def test_dense_k_larger_than_corpus_returns_all():
    index = make_index([Passage("p1", "", "alpha"), Passage("p2", "", "beta")])
    assert len(dense_search(index, "alpha", PASSAGES, 50)) == 2


def test_dense_disjoint_ngrams_cosine_zero():
    # "aaaa" and "bbbb" share no character 3-grams; verified to land in
    # different hash buckets at dim=64.
    index = make_index([Passage("p1", "", "aaaa")])
    result = dense_search(index, "bbbb", PASSAGES, 1)
    assert abs(result.entries[0][1]) < 1e-12


def test_dense_embedder_failure_raises_retrieval_error():
    def broken(text):
        raise RuntimeError("backend down")

    class Broken:
        name = "broken"

        def __call__(self, text):
            if text == "trigger":
                raise RuntimeError("backend down")
            return hash_embed(text, 64)

    index = make_index([Passage("p1", "", "alpha")], embedder=Broken())
    with pytest.raises(RetrievalError):
        dense_search(index, "trigger", PASSAGES, 1)


def test_dense_matches_brute_force_oracle():
    passages = [
        Passage(f"p{i:03d}", "", f"text number {i} about topic {i % 7}")
        for i in range(100)
    ]
    index = make_index(passages, dim=64)
    query = "text about topic 3"
    result = dense_search(index, query, PASSAGES, 10)

    item_vectors = {
        p.id: list(hash_embed(p.body, 64)) for p in passages
    }
    expected = oracle_cosine_ranking(
        list(hash_embed(query, 64)), item_vectors, 10, exact=True
    )
    assert result.ids == [item_id for item_id, _ in expected]
    for (_, got), (_, want) in zip(result.entries, expected):
        assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# RRF
# ---------------------------------------------------------------------------

def test_rrf_single_list_keeps_order_with_rrf_scores():
    fused = rrf_fuse([ranked("x", "y", "z")], 60)
    assert fused.ids == ["x", "y", "z"]
    assert [score for _, score in fused.entries] == [1 / 61, 1 / 62, 1 / 63]


def test_rrf_hand_computed_case():
    fused = rrf_fuse([ranked("A", "B"), ranked("B", "C", "A")], 60)
    assert fused.ids == ["B", "A", "C"]
    scores = dict(fused.entries)
    assert abs(scores["A"] - (1 / 61 + 1 / 63)) < 1e-9
    assert abs(scores["B"] - (1 / 62 + 1 / 61)) < 1e-9
    assert abs(scores["C"] - 1 / 62) < 1e-9


def test_rrf_identical_lists_double_scores():
    one = rrf_fuse([ranked("a", "b")], 60)
    two = rrf_fuse([ranked("a", "b"), ranked("a", "b")], 60)
    assert one.ids == two.ids
    for (_, s1), (_, s2) in zip(one.entries, two.entries):
        assert abs(s2 - 2 * s1) < 1e-12


def test_rrf_output_is_union_of_inputs():
    fused = rrf_fuse([ranked("a", "b"), ranked(), ranked("c")], 60)
    assert set(fused.ids) == {"a", "b", "c"}


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=8),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=0.001, max_value=1000.0),
)
def test_rrf_invariant_to_score_rescaling(id_lists, factor):
    def as_ranked(ids, scale=1.0):
        return RankedList(
            tuple((i, scale / (rank + 1)) for rank, i in enumerate(ids))
        )

    plain = rrf_fuse([as_ranked(ids) for ids in id_lists], 60)
    rescaled = rrf_fuse([as_ranked(ids, factor) for ids in id_lists], 60)
    assert plain.ids == rescaled.ids
    assert plain.entries == rescaled.entries


# ---------------------------------------------------------------------------
# Hybrid
# ---------------------------------------------------------------------------

def test_hybrid_agreement_on_singleton():
    index = make_index([Passage("p1", "", "only document alpha")])
    result = hybrid_search(index, "only document alpha", PASSAGES, 5)
    assert result.ids[0] == "p1"


def test_hybrid_equals_dense_when_bm25_empty():
    index = make_index(
        [Passage("p1", "", "aaaa bbbb"), Passage("p2", "", "cccc dddd")]
    )
    # no lexical overlap: query tokens appear in no document
    query = "zzzz xxxx"
    hybrid = hybrid_search(index, query, PASSAGES, 2)
    dense = dense_search(index, query, PASSAGES, 2)
    assert hybrid.ids == dense.ids


def test_hybrid_disagreement_matches_hand_computed_rrf():
    # craft a corpus where bm25 and dense put different docs first
    passages = [
        Passage("p1", "", "uncommonword uncommonword filler filler"),
        Passage("p2", "", "uncommonword close to the query text here"),
        Passage("p3", "", "completely unrelated material"),
    ]
    index = make_index(passages)
    query = "uncommonword close to the query text here"
    sparse = bm25_search(index, query, PASSAGES, 3)
    dense = dense_search(index, query, PASSAGES, 3)
    fused = hybrid_search(index, query, PASSAGES, 3)

    expected: dict[str, float] = {}
    for lst in (sparse, dense):
        for rank, (pid, _) in enumerate(lst.entries, start=1):
            expected[pid] = expected.get(pid, 0.0) + 1.0 / (60 + rank)
    want = [pid for pid, _ in sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))]
    assert fused.ids == want[:3]


def test_truncation_consistency_topk_prefix():
    passages = [
        Passage(f"p{i}", "", f"common filler {'extra ' * (i % 3)}word{i}")
        for i in range(12)
    ]
    index = make_index(passages)
    for search in (
        lambda k: bm25_search(index, "common filler", PASSAGES, k),
        lambda k: dense_search(index, "common filler", PASSAGES, k),
    ):
        for k in range(1, 8):
            assert search(k).entries == search(k + 1).entries[:k]


# ---------------------------------------------------------------------------
# Hash embedder
# ---------------------------------------------------------------------------

def test_hash_embed_deterministic():
    a = hash_embed("The same text", 128)
    b = hash_embed("The same text", 128)
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(a, np.round(a))  # signed counts, not a unit vector


def test_hash_embed_empty_text_zero_vector():
    zero = hash_embed("", 64)
    assert not zero.any()
    other = hash_embed("anything", 64)
    assert float(zero @ other) == 0.0


def test_hash_embed_word_permutation_differs():
    a = hash_embed("alpha beta", 256)
    b = hash_embed("beta alpha", 256)
    assert not np.allclose(a, b)


def test_hash_embed_rejects_small_dim():
    with pytest.raises(ValueError):
        hash_embed("text", 4)


def test_hash_embed_signed_counts():
    text = "some nontrivial text"  # 18 trigrams
    vec = hash_embed(text, 64)
    assert vec.dtype == np.float64
    assert np.array_equal(vec, np.round(vec))
    # each trigram adds +1 or -1 to one bucket
    total = int(np.abs(vec).sum())
    assert total <= len(text) - 2 and (len(text) - 2 - total) % 2 == 0
    assert total > 0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_ranked_list_rejects_duplicates_and_rising_scores():
    with pytest.raises(ValueError):
        RankedList((("a", 1.0), ("a", 0.5)))
    with pytest.raises(ValueError):
        RankedList((("a", 0.5), ("b", 1.0)))


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(k=0)
    with pytest.raises(ValueError):
        RetrievalConfig(rrf_constant=0)
    with pytest.raises(ValueError):
        RetrievalConfig(bm25_b=1.5)
    with pytest.raises(ValueError):
        RetrievalConfig(retriever="nope")


@pytest.mark.parametrize("constant", [0, -1, -5])
def test_rrf_fuse_rejects_a_constant_below_one(constant):
    # Unchecked, -1 divided by zero at rank 1, and -5 scored ranks 1-4
    # below zero before dividing by zero at rank 5.
    six = ranked("a", "b", "c", "d", "e", "f")
    with pytest.raises(ValueError, match="rrf_constant must be >= 1"):
        rrf_fuse([six, ranked("f", "a")], constant)
