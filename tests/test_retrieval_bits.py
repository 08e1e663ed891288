"""The BM25 and dense scoring kernels, pinned to reference arithmetic bit for
bit: BM25 to the posting-at-a-time oracle, dense search to the signed squared
cosine ratio computed into a fresh zero array, and the float32 guard to its
two-test definition."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplehop import HashEmbedder, Passage, Triple, bm25_search, build_index, dense_search
from triplehop.base_retrieval import _float32_exact, top_k
from triplehop.corpus_index import PASSAGES, passage_search_text

from .oracles import oracle_bm25


def hexed(entries) -> list[tuple[str, str]]:
    return [(item_id, float(score).hex()) for item_id, score in entries]


_BODIES = [
    "Vova Gude married to Pupiba Fatu.",
    "Vova Gude was born in Gude.",
    "Pupiba Fatu was born in Fefe Puno.",
    "Deguvo Bova owned by Vova Gude and Vova Fatu.",
    "ab",  # under three characters: the zero vector
    "Kisode vodemi novifi.",
]


def test_bm25_batch_equals_the_posting_oracle_and_single_calls():
    passages = [Passage(f"p{i}", "T" if i % 2 else "", body) for i, body in enumerate(_BODIES)]
    index = build_index(passages, [], HashEmbedder(32))
    docs = {p.id: passage_search_text(p) for p in passages}
    queries = [
        "vova gude vova Gude",  # repeated terms add their weights twice
        "Pupiba born in Fefe gude",  # p2 matches several terms
        "",
        "zzz qqq",  # only unknown terms
        "vova",
    ]
    k1, b, k = 1.5, 0.6, 10
    batch = bm25_search(index, queries, PASSAGES, k, k1=k1, b=b)
    for query, ranked in zip(queries, batch):
        want = hexed(oracle_bm25(docs, query, k, k1, b))
        assert hexed(ranked.entries) == want
        assert hexed(bm25_search(index, query, PASSAGES, k, k1=k1, b=b).entries) == want
    assert len(batch[0]) == 3 and not batch[2] and not batch[3]
    twice = dict(batch[0].entries)["p1"]
    once = dict(bm25_search(index, "vova gude", PASSAGES, k, k1=k1, b=b).entries)["p1"]
    assert math.isclose(twice, 2 * once)


def reference_dense(index, embed, texts, view, k):
    """Each text's (id, ``float.hex`` of its cosine), from the product over
    the dimensions some text uses and the ratio divided into a zero array."""
    vv = index.vectors[view]
    embedded = np.stack([embed(text) for text in texts])
    queries, columns = embedded, vv.columns
    used = embedded.any(axis=0)
    if not used.all():
        used = np.flatnonzero(used)
        queries, columns = embedded[:, used], columns[used]
    if columns.dtype == np.int8 and old_float32_exact(queries):
        dots = (queries.astype(np.float32) @ columns.astype(np.float32)).astype(np.float64)
    else:
        dots = queries @ columns.astype(np.float64, copy=False)
    denom = np.outer([float(q @ q) for q in embedded], vv.sq_norms)
    ratios = np.divide(dots * np.abs(dots), denom, out=np.zeros_like(dots), where=denom > 0)
    out = []
    for row, order in zip(ratios, top_k(ratios, k)):
        cosines = np.copysign(np.sqrt(np.abs(row[order])), row[order])
        out.append([(vv.ids[pos], float(c).hex()) for pos, c in zip(order.tolist(), cosines)])
    return out


def test_hashed_zero_query_and_zero_passage_score_zero_by_ascending_id():
    passages = [Passage(f"p{i}", "", body) for i, body in enumerate(_BODIES)]
    embedder = HashEmbedder(32)
    index = build_index(passages, [], embedder)
    assert index.vectors[PASSAGES].sq_norms[4] == 0
    texts = ["x", "Vova Gude married", "ab", "Pupiba Fatu"]
    got = dense_search(index, texts, PASSAGES, 10)
    want = reference_dense(index, embedder, texts, PASSAGES, 10)
    assert [hexed(ranked.entries) for ranked in got] == want
    zero = (0.0).hex()
    for ranked in (got[0], got[2]):  # zero queries: every ratio is 0.0
        assert hexed(ranked.entries) == [(f"p{i}", zero) for i in range(len(_BODIES))]
    for ranked in (got[1], got[3]):
        assert dict(hexed(ranked.entries))["p4"] == zero


def test_float_embedder_batch_keeps_the_ratio_bits():
    weights = np.sqrt(np.arange(2, 34, dtype=np.float64))

    def weighted(text):
        return HashEmbedder(32)(text) * weights

    passages = [Passage(f"p{i}", "", body) for i, body in enumerate(_BODIES)]
    triples = [Triple("t0", "Vova Gude", "married to", "Pupiba Fatu", "p0")]
    index = build_index(passages, triples, weighted)
    assert index.vectors[PASSAGES].columns.dtype == np.float64
    texts = ["Vova Gude married to what?", "x", "Pupiba", "ab", "who owned Vova Fatu"]
    for k in (1, 3, 10):
        got = dense_search(index, texts, PASSAGES, k)
        assert [hexed(ranked.entries) for ranked in got] == reference_dense(
            index, weighted, texts, PASSAGES, k
        )


def old_float32_exact(queries: np.ndarray) -> bool:
    return bool(
        np.array_equal(queries, np.trunc(queries))
        and np.abs(queries).sum(axis=1).max() * 128 < 2**24
    )


_VALUES = st.one_of(
    st.integers(-(2**18), 2**18).map(float),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -0.0, 131071.0, 131072.0, -131071.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda rows: st.integers(0, 5).flatmap(
        lambda cols: st.lists(
            st.lists(_VALUES, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        ).map(lambda values: np.array(values, dtype=np.float64).reshape(rows, cols))
    )
))
@example(np.zeros((3, 0)))
@example(np.array([[131071.0]]))
@example(np.array([[131072.0]]))
@example(np.array([[65536.0, 65535.0], [1.0, 2.5]]))
@example(np.array([[math.nan, 1.0]]))
@example(np.array([[math.inf, 1.0]]))
@example(np.array([[-math.inf, 0.5]]))
def test_float32_exact_equals_its_definition(queries):
    with np.errstate(over="ignore"):
        assert _float32_exact(queries) == old_float32_exact(queries)
