"""Hybrid search and naive and sync graph expansion against compositions of
the oracles: the BM25 and exact-cosine rankings fused by RRF, and the
brute-force beam search with the serialize-and-embed scorer, flattened and
fused with the base list. Sync expansion starts from each proximal triple's
top triple in the oracle ranking of the triple view. Ids and scores must be
equal, on the built and the loaded index."""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    ExpansionConfig,
    HashEmbedder,
    LLMGateway,
    Passage,
    ProximalTriple,
    RetrievalConfig,
    ScriptedBackend,
    Triple,
    build_index,
    hybrid_search,
    load_index,
    naive_ge_retrieve,
    save_index,
    serialize_facts,
    serialize_triple,
    sync_ge_detail,
)
from triplehop.corpus_index import PASSAGES, TRIPLES
from triplehop.sync import reader_variables

from .oracles import (
    oracle_beam_search,
    oracle_bm25,
    oracle_cosine_ranking,
    oracle_hash_embed,
    oracle_rrf,
    oracle_sequence_scorer,
)

# Few short words, shared by bodies, entities and queries, so that ties,
# zero-score items and connected triples are common.
_WORDS = st.sampled_from(["vo", "va", "gu", "de", "Vova", "gude", "İva", "Σo"])
_TEXT = st.lists(_WORDS, max_size=6).map(" ".join)


@st.composite
def graph_corpora(draw):
    """Passages with titles and bodies, each with up to three triples over a
    handful of entities."""
    entities = draw(st.lists(_WORDS, min_size=2, max_size=4, unique=True))
    passages, triples = [], []
    for i in range(draw(st.integers(1, 7))):
        passages.append(Passage(f"p{i}", draw(_TEXT), draw(_TEXT)))
        for j in range(draw(st.integers(0, 3))):
            subject, obj = draw(st.sampled_from(entities)), draw(st.sampled_from(entities))
            triples.append(Triple(f"t{i}{j}", subject, draw(_WORDS), obj, f"p{i}"))
    dim = draw(st.sampled_from([8, 16, 32]))
    return build_index(passages, triples, HashEmbedder(dim)), dim


def saved_and_loaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        return load_index(tmp)


def texts(index, view: str, lexical: bool) -> dict[str, str]:
    """BM25 reads a passage's title and body, dense search its body only."""
    if view == PASSAGES:
        return {
            pid: f"{p.title} {p.body}" if lexical and p.title else p.body
            for pid, p in index.passages.items()
        }
    return {
        tid: " ".join(part.strip() for part in (t.subject, t.predicate, t.object))
        for tid, t in index.triples.items()
    }


def oracle_lists(index, dim, query, view, cfg: RetrievalConfig) -> tuple[list[str], list[str]]:
    """The ids of the oracle BM25 and exact-cosine top ``cfg.k``."""
    sparse = oracle_bm25(texts(index, view, True), query, cfg.k, cfg.bm25_k1, cfg.bm25_b)
    vectors = {
        item_id: oracle_hash_embed(text, dim) for item_id, text in texts(index, view, False).items()
    }
    dense = oracle_cosine_ranking(oracle_hash_embed(query, dim), vectors, cfg.k, exact=True)
    return [item_id for item_id, _ in sparse], [item_id for item_id, _ in dense]


def expected_hybrid(index, dim, query, view, cfg: RetrievalConfig) -> list[tuple[str, float]]:
    return oracle_rrf(oracle_lists(index, dim, query, view, cfg), cfg.rrf_constant)[: cfg.k]


def expected_base(index, dim, query, cfg: RetrievalConfig) -> list[str]:
    if cfg.retriever == "hybrid":
        return [item_id for item_id, _ in expected_hybrid(index, dim, query, PASSAGES, cfg)]
    sparse, dense = oracle_lists(index, dim, query, PASSAGES, cfg)
    return sparse if cfg.retriever == "bm25" else dense


def expected_fused(index, dim, query, base, initial, retrieval, expansion):
    """The oracle beam search from ``initial``, its passages fused with ``base``."""
    scorer = oracle_sequence_scorer(index.triples, lambda text: oracle_hash_embed(text, dim))
    beams = oracle_beam_search(query, initial, index.triples, expansion, scorer)
    # Breadth first: every beam's first triple, then every second, ...
    flattened = []
    for position in range(max((len(seq) for _, seq in beams), default=0)):
        flattened += [seq[position] for _, seq in beams if position < len(seq)]
    expanded = list(dict.fromkeys(index.triples[tid].passage_id for tid in flattened))
    return oracle_rrf([expanded, base], retrieval.rrf_constant)[: retrieval.k]


def expected_naive_ge(index, dim, query, retrieval, expansion) -> list[tuple[str, float]]:
    base = expected_base(index, dim, query, retrieval)
    initial = [
        tid
        for pid in base
        for tid in sorted(tid for tid, t in index.triples.items() if t.passage_id == pid)
    ]
    return expected_fused(index, dim, query, base, initial, retrieval, expansion)


def expected_initial_nodes(index, dim, proximals, cfg: RetrievalConfig) -> list[str]:
    """Per proximal triple, the first id of the oracle ranking of the triple
    view at ``cfg.k``, if any; deduped in order."""
    linked = []
    for proximal in proximals:
        sparse, dense = oracle_lists(index, dim, serialize_triple(proximal), TRIPLES, cfg)
        if cfg.retriever == "hybrid":
            ranking = [item_id for item_id, _ in oracle_rrf((sparse, dense), cfg.rrf_constant)]
        else:
            ranking = sparse if cfg.retriever == "bm25" else dense
        linked += ranking[:1]
    return list(dict.fromkeys(linked))


RETRIEVAL = st.builds(
    RetrievalConfig,
    k=st.integers(1, 6),
    retriever=st.sampled_from(["bm25", "dense", "hybrid"]),
    rrf_constant=st.sampled_from([1, 60]),
)
PROXIMALS = st.lists(st.builds(ProximalTriple, _WORDS, _WORDS, _WORDS), max_size=4)
EXPANSION = st.builds(
    ExpansionConfig,
    beam_width=st.integers(1, 4),
    max_length=st.integers(1, 3),
    neighbour_cap=st.integers(1, 3),
    gamma=st.sampled_from([1.0, 20.0]),
)


@settings(max_examples=80, deadline=None)
@given(graph_corpora(), _TEXT, RETRIEVAL)
def test_hybrid_search_equals_fused_oracles(corpus, query, cfg):
    index, dim = corpus
    loaded = saved_and_loaded(index)
    for view in (PASSAGES, TRIPLES):
        want = expected_hybrid(index, dim, query, view, cfg)
        for searched in (index, loaded):
            got = hybrid_search(searched, query, view, cfg.k, config=cfg)
            assert list(got.entries) == want


@settings(max_examples=80, deadline=None)
@given(graph_corpora(), _TEXT, RETRIEVAL, EXPANSION)
def test_naive_ge_equals_fused_oracles(corpus, query, retrieval, expansion):
    index, dim = corpus
    want = expected_naive_ge(index, dim, query, retrieval, expansion)
    for searched in (index, saved_and_loaded(index)):
        assert list(naive_ge_retrieve(searched, query, retrieval, expansion).entries) == want


@settings(max_examples=80, deadline=None)
@given(graph_corpora(), _TEXT, PROXIMALS, RETRIEVAL, EXPANSION)
def test_sync_ge_equals_fused_oracles(corpus, query, proximals, retrieval, expansion):
    index, dim = corpus
    base = expected_base(index, dim, query, retrieval)
    initial = expected_initial_nodes(index, dim, proximals, retrieval)
    want = expected_fused(index, dim, query, base, initial, retrieval, expansion)
    # the reader answers only a read of the oracle's base passages
    reader = ScriptedBackend()
    reader.register("reader", reader_variables(index, base, query)[1], serialize_facts(proximals))
    for searched in (index, saved_and_loaded(index)):
        detail = sync_ge_detail(searched, query, retrieval, expansion, LLMGateway(reader))
        assert list(detail.proximals) == proximals
        assert list(detail.initial_nodes) == initial
        assert list(detail.fused.entries) == want
