"""Dense search over the embedder's own rows. Hashed embeddings are integer
counts, so mathematically equal cosines must come out as equal floats in
ascending id order: the ids must equal the exact rational oracle's."""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    Passage,
    Triple,
    build_index,
    dense_search,
    load_index,
    save_index,
    serialize_triple,
)
from triplehop.corpus_index import PASSAGES, TRIPLES

from .oracles import oracle_cosine_ranking, oracle_hash_embed


def saved_and_loaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        return load_index(tmp)


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
