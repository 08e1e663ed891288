"""Hybrid search, naive and sync graph expansion and the agent against
compositions of the oracles: the BM25 and exact-cosine rankings fused by
RRF, and the brute-force beam search with the serialize-and-embed scorer,
flattened and fused with the base list. Sync expansion starts from each
proximal triple's top triple in the oracle ranking of the triple view. The
agent's loop is replayed on those oracles with a scripted reader, reasoner
and rewriter. Ids and scores must be equal, on the built and the loaded
index. Last, every list the package's producers make passes the checks of
the public ``RankedList`` constructor."""

from __future__ import annotations

import random
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    AgentConfig,
    AgentSystem,
    EvalQuestion,
    ExpansionConfig,
    HashEmbedder,
    LLMGateway,
    Passage,
    ProximalTriple,
    RankedList,
    RetrievalConfig,
    ScriptedBackend,
    Triple,
    bm25_search,
    build_index,
    dense_search,
    hybrid_search,
    load_index,
    naive_ge_retrieve,
    passage_link,
    rrf_fuse,
    run_agent,
    run_eval,
    save_index,
    serialize_facts,
    serialize_triple,
    sync_ge_detail,
)
from triplehop.corpus_index import PASSAGES, TRIPLES
from triplehop.graph_expansion import naive_ge_detail
from triplehop.llm_gateway import canonical_key
from triplehop.sync import reader_variables

from .conftest import RecordingBackend
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


def expected_ranking(index, dim, query, view, cfg: RetrievalConfig) -> list[str]:
    """The ids of the oracle ranking of ``view`` by ``cfg.retriever`` at ``cfg.k``."""
    if cfg.retriever == "hybrid":
        return [item_id for item_id, _ in expected_hybrid(index, dim, query, view, cfg)]
    sparse, dense = oracle_lists(index, dim, query, view, cfg)
    return sparse if cfg.retriever == "bm25" else dense


def expected_base(index, dim, query, cfg: RetrievalConfig) -> list[str]:
    return expected_ranking(index, dim, query, PASSAGES, cfg)


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
        linked += expected_ranking(index, dim, serialize_triple(proximal), TRIPLES, cfg)[:1]
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


_WHY = "more facts needed"  # the scripted reasoner's reason for going on


class AgentScript:
    """A reader, reasoner and rewriter whose every reply is a function of its
    request, so runs on any thread and the oracle replay get the same reply.
    A read returns a subset of ``facts`` picked by the request; the reasoner
    answers once the memory holds ``patience`` facts (never for None); the
    rewriter picks one of ``rewrites``, a blank one meaning the original
    question."""

    def __init__(self, facts, salt: int, patience: int | None, rewrites):
        self.facts, self.salt, self.patience, self.rewrites = facts, salt, patience, rewrites

    def _rng(self, kind: str, variables: dict) -> random.Random:
        return random.Random(f"{self.salt} {kind} {canonical_key(variables)}")

    def read(self, kind: str, variables: dict) -> list[ProximalTriple]:
        rng = self._rng(kind, variables)
        return rng.sample(self.facts, rng.randint(0, len(self.facts)))

    def answerable(self, facts_in_memory: int) -> bool:
        return self.patience is not None and facts_in_memory >= self.patience

    def rewrite(self, variables: dict) -> str:
        return self._rng("rewriter", variables).choice(self.rewrites)

    def __call__(self, kind: str, variables: dict) -> str:
        if kind.startswith("reader"):
            return serialize_facts(self.read(kind, variables)) or "No relevant facts."
        if kind == "reasoner":
            if self.answerable(variables["triples"].count("(")):
                return "Answerable: Yes\nAnswer: done"
            return f"Answerable: No\nWhy: {_WHY}"
        return f"Next Question: {self.rewrite(variables)}"


def expected_link(index, dim, fact, retrieval: RetrievalConfig, k: int) -> list[tuple[str, float]]:
    """RRF of the oracle passage-view ranking of the fact and its triple-view
    ranking mapped to each triple's passage record by first occurrence,
    both at depth ``k``, cut to ``k``."""
    cfg = replace(retrieval, k=k)
    query = serialize_triple(fact)
    triples = expected_ranking(index, dim, query, TRIPLES, cfg)
    mapped = list(dict.fromkeys(index.triples[tid].passage_id for tid in triples))
    passages = expected_ranking(index, dim, query, PASSAGES, cfg)
    return oracle_rrf([passages, mapped], retrieval.rrf_constant)[:k]


def expected_agent(index, dim, question: str, cfg: AgentConfig, script: AgentScript) -> dict:
    """The agent loop replayed on the oracles: per iteration its query and
    the sync-GE oracle's base, proximals, initial nodes and fused list; the
    memory deduped in first-occurrence order; a link list per linked fact;
    the final fusion and the termination cause."""
    retrieval, cap = cfg.retrieval, cfg.per_iteration_k
    memory: list[ProximalTriple] = []
    iterations = []
    query, cause = question, "max_iterations"
    for n in range(1, cfg.max_iterations + 1):
        base = expected_base(index, dim, query, retrieval)
        proximals = script.read(*reader_variables(index, base, query, cap=cap))
        initial = expected_initial_nodes(index, dim, proximals, retrieval)
        fused = expected_fused(index, dim, query, base, initial, retrieval, cfg.expansion)
        iterations.append((query, base, proximals, initial, fused))
        read_memory = memory if n >= 2 else None
        ids = [pid for pid, _ in fused]
        memory += script.read(*reader_variables(index, ids, question, read_memory, cap))
        if script.answerable(len(memory)):
            cause = "answerable"
            break
        if n < cfg.max_iterations:
            variables = {"query": question, "triples": serialize_facts(memory), "reason": _WHY}
            query = script.rewrite(variables).strip() or question
    linked = list(dict.fromkeys(memory))
    links = [expected_link(index, dim, fact, retrieval, cfg.passage_link_k) for fact in linked]
    rankings = [[pid for pid, _ in ranked] for ranked in [*links, *(it[4] for it in iterations)]]
    final = oracle_rrf(rankings, retrieval.rrf_constant)
    return {
        "iterations": iterations, "linked": linked, "links": links, "final": final, "cause": cause
    }


def check_agent(index, dim, questions: list[str], cfg: AgentConfig, script: AgentScript) -> None:
    """``run_agent`` on the built and the loaded index, and ``run_eval`` at
    four workers on the built one, against ``expected_agent``."""
    expected = {q: expected_agent(index, dim, q, cfg, script) for q in questions}
    for searched in (index, saved_and_loaded(index)):
        for question, want in expected.items():
            trace = run_agent(searched, question, cfg, LLMGateway(RecordingBackend(script)))
            got = [
                (r.query, r.detail.base.ids, list(r.detail.proximals),
                 list(r.detail.initial_nodes), list(r.detail.fused.entries))
                for r in trace.iterations
            ]
            assert got == want["iterations"]
            assert trace.termination_cause == want["cause"]
            assert list(trace.linked_facts) == want["linked"]
            links = passage_link(searched, trace.linked_facts, cfg.retrieval, cfg.passage_link_k)
            assert [list(ranked.entries) for ranked in links] == want["links"]
            assert list(trace.final.entries) == want["final"]

    finals: dict[str, tuple] = {}

    class Recorded(AgentSystem):
        def run(self, question):
            result = super().run(question)
            finals[question.question] = result.ranked.entries
            return result

    evals = [
        EvalQuestion(f"q{i}", question, frozenset({"p0"}), ("done",))
        for i, question in enumerate(questions)
    ]
    system = Recorded(index, cfg, RecordingBackend(script), qa_fallback=False)
    report = run_eval(evals, system, workers=4)
    assert report.failures == 0
    assert finals == {question: tuple(want["final"]) for question, want in expected.items()}


AGENT_SCRIPTS = st.builds(
    AgentScript,
    st.lists(st.builds(ProximalTriple, _WORDS, _WORDS, _WORDS), min_size=1, max_size=3).map(tuple),
    st.integers(0, 2**16),
    st.sampled_from([0, 1, 3, None]),
    st.lists(_TEXT, min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=30, deadline=None)
@given(
    graph_corpora(),
    st.lists(_TEXT, min_size=1, max_size=2, unique=True),
    AGENT_SCRIPTS,
    RETRIEVAL,
    EXPANSION,
    st.integers(1, 3),
    st.integers(1, 8),
)
def test_agent_equals_fused_oracles(
    corpus, questions, script, retrieval, expansion, max_iterations, link_k
):
    index, dim = corpus
    cfg = AgentConfig(
        retrieval, expansion, max_iterations=max_iterations, per_iteration_k=retrieval.k,
        passage_link_k=link_k,
    )
    check_agent(index, dim, questions, cfg, script)


@pytest.mark.parametrize("retriever", ["bm25", "hybrid"])
@pytest.mark.parametrize("patience", [0, None])
def test_agent_on_an_empty_triple_view_equals_fused_oracles(retriever, patience):
    # No triples: every fact links to nothing on the triple view, and the
    # fact "zz zz zz" shares no word with any passage, so BM25 links it to
    # nothing at all. Patience 0 answers at iteration 1; None runs to the
    # last iteration.
    passages = [Passage("p0", "vo", "va gu"), Passage("p1", "", "de vo")]
    index = build_index(passages, [], HashEmbedder(8))
    facts = (ProximalTriple("zz", "zz", "zz"), ProximalTriple("vo", "va", "de"))
    script = AgentScript(facts, 7, patience, ("", "gu de"))
    cfg = AgentConfig(
        RetrievalConfig(k=2, retriever=retriever), ExpansionConfig(beam_width=2),
        max_iterations=3, passage_link_k=3,
    )
    check_agent(index, 8, ["vo va", "gu"], cfg, script)


@settings(max_examples=40, deadline=None)
@given(graph_corpora(), st.lists(_TEXT, min_size=1, max_size=3), PROXIMALS, RETRIEVAL, EXPANSION,
       st.integers(0, 8))
def test_every_producer_makes_a_list_the_checked_constructor_accepts(
    corpus, queries, facts, retrieval, expansion, cut
):
    # The package's producers build their lists unchecked; each must hold
    # what ``RankedList(entries, provenance)`` checks.
    index, _ = corpus
    made = []
    for view in (PASSAGES, TRIPLES):
        for search in (bm25_search, dense_search, hybrid_search):
            made += search(index, queries, view, retrieval.k)
    made.append(rrf_fuse(made, retrieval.rrf_constant))
    made += [ranked.truncated(cut) for ranked in made]
    made += passage_link(index, facts, retrieval, retrieval.k + cut)
    reader = RecordingBackend(lambda kind, variables: serialize_facts(facts))
    for query in queries:
        for detail in (
            naive_ge_detail(index, query, retrieval, expansion),
            sync_ge_detail(index, query, retrieval, expansion, LLMGateway(reader)),
        ):
            made += [detail.base, detail.fused]
    for ranked in made:
        assert RankedList(ranked.entries, ranked.provenance) == ranked
