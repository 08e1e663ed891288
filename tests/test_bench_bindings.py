"""The benchmark's tracer wraps package functions by name where they are
bound. Installing and uninstalling it must find every such name and put every
original back, so renaming or deleting a wrapped name fails here rather than
only in a traced benchmark run."""

from __future__ import annotations

from pathlib import Path

import pytest

from triplehop import (
    AgentConfig,
    ExpansionConfig,
    HashEmbedder,
    Passage,
    RankedList,
    RetrievalConfig,
    base_retrieve,
    bm25_search,
    build_index,
    dense_search,
    hybrid_search,
)
from triplehop import base_retrieval, eval_harness, graph_expansion
from triplehop.corpus_index import PASSAGES

from .conftest import RecordingBackend, build_hop_corpus, hop_reader_script

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_bound_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    targets = [
        (module, name)
        for _, name, modules in tracing.FUNCTIONS
        for module in modules
    ] + [(cls, name) for _, cls, name in tracing.METHODS]
    originals = [(owner, name, owner.__dict__[name]) for owner, name in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, name, original in originals:
            assert owner.__dict__[name] is not original, (owner, name)
    finally:
        tracer.uninstall()
    for owner, name, original in originals:
        assert owner.__dict__[name] is original, (owner, name)


def _traced_span_names(tracing) -> set[str]:
    """The span name each wrapped name records under; the scorer factory's
    span is the scorer it returns."""
    names = {
        f"{layer}.{'score' if name == 'make_cosine_scorer' else name}"
        for layer, name, _ in tracing.FUNCTIONS
    }
    return names | {f"{layer}.{name}" for layer, _, name in tracing.METHODS}


def _run_every_operation(embedder) -> None:
    """Base, naive-ge, sync-ge and agent queries on a tiny index, each name
    looked up through its module as the benchmark's operations do."""
    passages, triples, questions = build_hop_corpus(n_chains=2, n_distractors=2)
    index = build_index(passages, triples, embedder)
    retrieval = RetrievalConfig(k=3)
    expansion = ExpansionConfig(beam_width=3, max_length=2)
    question = questions[0].question
    base_retrieval.base_retrieve(index, question, PASSAGES, retrieval)
    graph_expansion.naive_ge_retrieve(index, question, retrieval, expansion)
    backend = RecordingBackend(hop_reader_script)
    systems = [
        eval_harness.AgentSystem(
            index, AgentConfig(retrieval, expansion, max_iterations=2), backend,
            qa_fallback=False,
        ),
        eval_harness.RetrieverSystem(index, retrieval, "sync-ge", expansion, backend),
    ]
    for system in systems:
        report = eval_harness.run_eval(questions[:1], system, cutoffs=(3,), workers=1)
        assert report.failures == 0


def test_every_wrapped_name_is_called_by_the_package(monkeypatch):
    # A wrapped name the package never calls reads 0 in every traced run, so
    # it measures nothing. The plain-callable embedder has no ``hash:<dim>``
    # name, which sends the beam scorer down its serialize-and-embed path.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    hashed = HashEmbedder(64)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for embedder in (hashed, lambda text: hashed(text)):
            _run_every_operation(embedder)
    finally:
        tracer.uninstall()
    uncalled = {name for name in _traced_span_names(tracing) if not tracer.calls[name]}
    # CorpusIndex.embed_query is kept for the tracer's bindings alone.
    assert uncalled == {"corpus_index.embed_query"}


@pytest.mark.parametrize(
    "search",
    [
        bm25_search,
        dense_search,
        hybrid_search,
        lambda index, q, view, k: base_retrieve(index, q, view, RetrievalConfig(k=k)),
    ],
)
def test_str_query_returns_one_ranked_list(search):
    # The benchmark's operations and output checks pass one question as a
    # str and read ``.entries``; a str is also a Sequence[str], and searching
    # it as a batch would search one character at a time.
    index = build_index([Passage("p1", "", "alpha beta"), Passage("p2", "", "beta")],
                        [], HashEmbedder(16))
    result = search(index, "alpha beta", PASSAGES, 2)
    assert isinstance(result, RankedList)
    assert result.ids[0] == "p1"
