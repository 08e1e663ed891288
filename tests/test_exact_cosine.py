"""Dense search over the embedder's own rows. Hashed embeddings are integer
counts, so mathematically equal cosines must come out as equal floats in
ascending id order: the ids must equal the exact rational oracle's."""

from __future__ import annotations

import itertools
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    Passage,
    Triple,
    build_index,
    dense_search,
    hash_embed,
    load_index,
    save_index,
    serialize_triple,
)
from triplehop.base_retrieval import _float32_exact, top_k
from triplehop.corpus_index import PASSAGES, TRIPLES

from .oracles import oracle_cosine_ranking, oracle_hash_embed


def saved_and_loaded(index, embedder=None):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        return load_index(tmp, embedder)


def test_equal_cosines_rank_by_ascending_id():
    # Two passages of a 10k-passage synthetic corpus: against this query both
    # have dot product 18 and squared norm 124 at dim 256, so their cosines
    # are equal, and float rounding of other formulas can put either first.
    passages = [
        Passage(
            "p009511",
            "Moroni Fefito",
            "Moroni Fefito owned by Nubu Pati. Moroni Fefito married to Funo Vara. "
            "Levu lura rova suno mase kuno.",
        ),
        Passage(
            "p004765",
            "Vova Gude",
            "Vova Gude married to Pupiba Fatu. Vova Gude was born in Fefe Puno. "
            "Kisode vodemi novifi bebige guluse gaduge kinu.",
        ),
    ]
    index = build_index(passages, [], HashEmbedder(256))
    for searched in (index, saved_and_loaded(index)):
        result = dense_search(searched, "Deguvo Bova married to what?", PASSAGES, 2)
        assert result.ids == ["p004765", "p009511"]
        assert result.entries[0][1] == result.entries[1][1]


def view_texts(index, view: str) -> dict[str, str]:
    if view == PASSAGES:
        return {pid: p.body for pid, p in index.passages.items()}
    return {tid: serialize_triple(t) for tid, t in index.triples.items()}


# Few, short, overlapping words and small dims make equal cosines of
# different rows (and negative cosines) common.
_WORDS = st.sampled_from(
    ["vo", "va", "gu", "de", "bo", "ki", "nu", "fe", "Vova", "gude", "bova", "deguvo"]
)
_TEXT = st.lists(_WORDS, min_size=0, max_size=8).map(" ".join)


@st.composite
def small_corpora(draw):
    bodies = draw(st.lists(_TEXT, min_size=1, max_size=24))
    passages = [Passage(f"p{i:02d}", "", body) for i, body in enumerate(bodies)]
    facts = draw(st.lists(st.tuples(_TEXT, _TEXT, _TEXT), max_size=24))
    triples = [
        Triple(f"t{i:02d}", f"s{s}", f"r{p}", f"o{o}", f"p{i % len(bodies):02d}")
        for i, (s, p, o) in enumerate(facts)
    ]
    dim = draw(st.sampled_from([8, 16, 32]))
    return build_index(passages, triples, HashEmbedder(dim)), dim


@settings(max_examples=200, deadline=None)
@given(small_corpora(), _TEXT)
def test_dense_ids_equal_exact_oracle(corpus, query):
    index, dim = corpus
    loaded = saved_and_loaded(index)
    for view in (PASSAGES, TRIPLES):
        texts = view_texts(index, view)
        vectors = {item_id: oracle_hash_embed(text, dim) for item_id, text in texts.items()}
        want = oracle_cosine_ranking(
            oracle_hash_embed(query, dim), vectors, len(texts), exact=True
        )
        for searched in (index, loaded):
            single = dense_search(searched, query, view, len(texts) or 1)
            # the query batched between two others is ranked as it is alone
            batched = dense_search(searched, ["vova", query, ""], view, len(texts) or 1)
            assert batched[1].entries == single.entries
            got = single.entries
            assert [item_id for item_id, _ in got] == [item_id for item_id, _ in want]
            for (_, score), (_, want_score) in zip(got, want):
                assert abs(score - want_score) <= 1e-12


def reference_entries(index, texts, view, k):
    """The ranking from the full float64 product ``Q @ columns``, every
    dimension read, then the signed squared cosine ratio and ``top_k``; each
    entry as (id, ``float.hex`` of the score)."""
    vv = index.vectors[view]
    if not vv.ids:
        return [[] for _ in texts]
    embedded = np.stack([index.embed_query(text) for text in texts])
    dots = embedded @ vv.columns.astype(np.float64)
    denom = np.outer([float(q @ q) for q in embedded], vv.sq_norms)
    ratios = np.divide(dots * np.abs(dots), denom, out=np.zeros_like(dots), where=denom > 0)
    out = []
    for row, order in zip(ratios, top_k(ratios, k)):
        cosines = np.copysign(np.sqrt(np.abs(row[order])), row[order])
        out.append([(vv.ids[pos], float(c).hex()) for pos, c in zip(order, cosines)])
    return out


def hex_entries(ranked):
    return [(item_id, score.hex()) for item_id, score in ranked.entries]


@settings(max_examples=150, deadline=None)
@given(small_corpora(), st.lists(_TEXT, min_size=1, max_size=5), st.integers(1, 30))
def test_column_gather_equals_the_full_product(corpus, queries, k):
    index, _ = corpus
    loaded = saved_and_loaded(index)
    for view in (PASSAGES, TRIPLES):
        want = reference_entries(index, queries, view, k)
        for searched in (index, loaded):
            batched = dense_search(searched, queries, view, k)
            assert [hex_entries(ranked) for ranked in batched] == want
            for query, expected in zip(queries, want):
                assert hex_entries(dense_search(searched, query, view, k)) == expected


def test_column_gather_edge_cases():
    dim = 32
    words = ["vova", "gude", "bova", "deguvo", "kinu", "fefe", "nubu", "pati"]
    support = {w: set(np.flatnonzero(hash_embed(w, dim)).tolist()) for w in words}
    disjoint = [(a, b) for a in words for b in words if a < b and not support[a] & support[b]]
    assert disjoint, "no two words with disjoint buckets"
    passages = [Passage(f"p{i}", "", f"{w} {v}") for i, (w, v) in enumerate(zip(words, words[1:]))]
    index = build_index(passages, [], HashEmbedder(dim))
    n = len(passages)
    # every three-letter word over nine letters: together they use every bucket
    every = ["".join(letters) for letters in itertools.product("aeioubdgk", repeat=3)]
    assert np.stack([hash_embed(text, dim) for text in every]).any(axis=0).all()
    batches = [list(disjoint[0]), ["vo"], ["vo", ""], ["vo", "vova"], every]
    for searched in (index, saved_and_loaded(index)):
        for batch in batches:
            for k in (1, 3, n, n + 5):
                got = dense_search(searched, batch, PASSAGES, k)
                want = reference_entries(index, batch, PASSAGES, k)
                assert [hex_entries(ranked) for ranked in got] == want
                assert all(len(ranked) == min(k, n) for ranked in got)
            # the empty triple view
            empty = dense_search(searched, batch, TRIPLES, 5)
            assert [ranked.entries for ranked in empty] == [()] * len(batch)


def test_float_rows_gather_within_rounding_of_the_oracle():
    # Non-integer rows: the gathered product may round unlike the full one,
    # but ranks as the brute-force cosine does.
    weights = np.sqrt(np.arange(2, 66, dtype=np.float64))

    def weighted(text):
        return hash_embed(text, 64) * weights

    bodies = [
        "Moroni Fefito owned by Nubu Pati.",
        "Vova Gude married to Pupiba Fatu.",
        "Kisode vodemi novifi bebige guluse.",
        "Levu lura rova suno mase kuno.",
        "Deguvo Bova was born in Fefe Puno.",
        "Funo Vara lives in Gaduge.",
    ]
    passages = [Passage(f"p{i}", "", body) for i, body in enumerate(bodies)]
    index = build_index(passages, [], weighted)
    vectors = {p.id: weighted(p.body) for p in passages}
    queries = ["Deguvo Bova married to what?", "who owned Nubu", "Vova"]
    for query in queries:
        assert np.count_nonzero(weighted(query)) < 64
    for searched in (index, saved_and_loaded(index, weighted)):
        assert searched.vectors[PASSAGES].columns.dtype == np.float64
        for query, got in zip(queries, dense_search(searched, queries, PASSAGES, 6)):
            want = oracle_cosine_ranking(weighted(query), vectors, 6)
            assert got.ids == [item_id for item_id, _ in want]
            for (_, score), (_, want_score) in zip(got.entries, want):
                assert abs(score - want_score) <= 1e-12


# ---------------------------------------------------------------------------
# float32 products of int8 columns
# ---------------------------------------------------------------------------

def takes_float32(index, texts, view) -> bool:
    """Whether ``dense_search`` multiplies this batch's gathered ``int8``
    columns in float32."""
    vv = index.vectors[view]
    embedded = np.stack([index.embed_query(text) for text in texts])
    used = np.flatnonzero(embedded.any(axis=0))
    return vv.columns.dtype == np.int8 and _float32_exact(embedded[:, used])


def assert_exact_and_float64_bits(index, embed, texts, view, k):
    """Ids as the exact rational oracle ranks them, scores with the bits of
    the float64 product over every dimension, batched and alone."""
    vectors = {item_id: embed(text) for item_id, text in view_texts(index, view).items()}
    want = reference_entries(index, texts, view, k)
    got = dense_search(index, texts, view, k)
    assert [hex_entries(ranked) for ranked in got] == want
    for text, ranked, expected in zip(texts, got, want):
        assert hex_entries(dense_search(index, text, view, k)) == expected
        exact = oracle_cosine_ranking(embed(text), vectors, k, exact=True)
        assert ranked.ids == [item_id for item_id, _ in exact]


_GUARD_BODIES = [
    "a" * 129,  # "aaa" 127 times: the largest count int8 holds
    "a" * 100 + " vova",
    "baaab gude",
    "Vova Gude married to Pupiba Fatu.",
    "Deguvo Bova was born in Fefe Puno.",
    "",
]
_GUARD_FACTS = [("Vova Gude", "married to", "Pupiba Fatu"), ("aaaa", "is", "a" * 60)]
_QUESTIONS = ["Deguvo Bova married to what?", "who is aaaa", "Vova", "vo", ""]


def guard_index(embedder):
    passages = [Passage(f"p{i}", "", body) for i, body in enumerate(_GUARD_BODIES)]
    triples = [Triple(f"t{i}", s, p, o, "p0") for i, (s, p, o) in enumerate(_GUARD_FACTS)]
    return build_index(passages, triples, embedder)


def test_float32_product_of_hashed_batches_equals_float64_product():
    # At dim 8 the long question uses every bucket, so its batch gathers the
    # int8 columns whole.
    questions = [*_QUESTIONS, "who married Pupiba Fatu and was born in Fefe Puno"]
    assert np.count_nonzero(hash_embed(questions[-1], 8)) == 8
    for dim in (64, 8):
        index = guard_index(HashEmbedder(dim))
        for searched in (index, saved_and_loaded(index)):
            for view in (PASSAGES, TRIPLES):
                assert searched.vectors[view].columns.dtype == np.int8
                assert takes_float32(searched, questions, view)
                for k in (1, 3, 10):
                    assert_exact_and_float64_bits(
                        searched, lambda text: oracle_hash_embed(text, dim), questions, view, k
                    )


def test_query_over_the_float32_bound_takes_the_float64_product():
    # 139,999 "aaa" trigrams: ‖q‖₁ · 128 >= 2**24, and the dot product with
    # the row holding 127 of them, 17,779,873, is odd and above 2**24, so
    # float32 would round it.
    long_query = "a" * 140_001
    index = guard_index(HashEmbedder(64))
    for searched in (index, saved_and_loaded(index)):
        for batch in ([long_query], [*_QUESTIONS, long_query]):
            assert not takes_float32(searched, batch, PASSAGES)
            assert_exact_and_float64_bits(
                searched, lambda text: oracle_hash_embed(text, 64), batch, PASSAGES, 4
            )
        # just under the bound: 131,071 trigrams take float32, exactly
        under = ["a" * 131_073, "vova"]
        assert takes_float32(searched, under, PASSAGES)
        assert_exact_and_float64_bits(
            searched, lambda text: oracle_hash_embed(text, 64), under, PASSAGES, 4
        )


class _FractionalQuestions:
    """Hashed counts at dim 64, times 1 + 2**-30 for texts ending in "?": the
    corpus rows stay int8-exact, the question vectors are fractional. float64
    holds every product and sum of them exactly; float32 cannot hold the
    factor."""

    name = "fractional-questions"

    def __call__(self, text):
        counts = hash_embed(text, 64)
        return counts * (1.0 + 2.0**-30) if text.endswith("?") else counts


def test_fractional_query_vectors_take_the_float64_product():
    embedder = _FractionalQuestions()
    index = guard_index(embedder)
    questions = ["Deguvo Bova married to what?", "who is aaaa?", "Vova?", "vova"]
    for searched in (index, saved_and_loaded(index, embedder)):
        for view in (PASSAGES, TRIPLES):
            assert searched.vectors[view].columns.dtype == np.int8
            assert not takes_float32(searched, questions, view)
            assert_exact_and_float64_bits(searched, embedder, questions, view, 5)
