"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of each triplehop module with
timing wrappers, at every module that binds them by name (a function
imported with ``from .x import f`` must be wrapped where it was imported, or
its calls go unseen), and ``uninstall`` puts the originals back. A span is
one wrapped call; its self time is its duration minus the spans it encloses.
Spans are folded into per-name totals as they close rather than kept one by
one, so tracing the thousands of scorer calls of a hub question stays cheap.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from triplehop import (
    agent,
    base_retrieval,
    corpus_index,
    eval_harness,
    graph_expansion,
    llm_gateway,
    sync,
)

LAYERS = (
    "corpus_index",
    "base_retrieval",
    "sync",
    "graph_expansion",
    "agent",
    "llm_gateway",
    "eval_harness",
)

# (layer, function name, modules that bind it by name). The first module is
# the one that defines it; calls inside that module look the name up there.
FUNCTIONS = (
    ("corpus_index", "get_neighbours", (corpus_index, graph_expansion)),
    ("corpus_index", "serialize_sequence", (corpus_index, graph_expansion)),
    ("corpus_index", "triples_to_passages", (corpus_index, graph_expansion)),
    ("corpus_index", "triple_to_passage", (corpus_index, agent)),
    ("corpus_index", "serialize_triple", (corpus_index, sync, agent)),
    ("base_retrieval", "base_retrieve", (base_retrieval, sync, graph_expansion, agent, eval_harness)),
    ("base_retrieval", "bm25_search", (base_retrieval,)),
    ("base_retrieval", "dense_search", (base_retrieval,)),
    ("base_retrieval", "hybrid_search", (base_retrieval,)),
    ("base_retrieval", "rrf_fuse", (base_retrieval, graph_expansion, agent)),
    ("sync", "read_proximal", (sync, graph_expansion, agent)),
    ("sync", "locate_initial_nodes", (sync, graph_expansion)),
    ("sync", "triple_link", (sync,)),
    ("graph_expansion", "naive_ge_retrieve", (graph_expansion,)),
    ("graph_expansion", "naive_ge_detail", (graph_expansion, eval_harness)),
    ("graph_expansion", "sync_ge_detail", (graph_expansion, agent, eval_harness)),
    ("graph_expansion", "diverse_beam_search", (graph_expansion,)),
    ("graph_expansion", "make_cosine_scorer", (graph_expansion,)),
    ("graph_expansion", "flatten_beams", (graph_expansion,)),
    ("agent", "run_agent", (agent, eval_harness)),
    ("agent", "passage_link", (agent,)),
    ("agent", "reason_step", (agent,)),
    ("agent", "rewrite_step", (agent,)),
    ("eval_harness", "run_eval", (eval_harness,)),
)
METHODS = (
    ("corpus_index", corpus_index.CorpusIndex, "passage_triples"),
    ("corpus_index", corpus_index.CorpusIndex, "embed_query"),
    ("llm_gateway", llm_gateway.LLMGateway, "complete"),
    ("eval_harness", eval_harness.AgentSystem, "run"),
    ("eval_harness", eval_harness.RetrieverSystem, "run"),
)


class Tracer:
    """Span recorder: call counts, total and self time per span name."""

    def __init__(self):
        self._open: list[float] = []  # time covered by children, per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)  # per layer
        self.counts: dict[str, float] = defaultdict(float)
        self.top_s = 0.0  # time under spans opened with no span open
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.total_s, self.self_s, self.counts):
            table.clear()
        self.top_s = 0.0

    def span(self, layer: str, name: str, fn, observe=None):
        """Wrap ``fn`` so each call is a span ``layer.name``."""
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += took
                else:
                    self.top_s += took
                self.self_s[layer] += took - children
                self.calls[key] += 1
                self.total_s[key] += took
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        observers = {
            "get_neighbours": self._count_neighbours,
            "locate_initial_nodes": self._count_links,
            "diverse_beam_search": self._count_beam_passages,
            "complete": self._count_tokens,
        }
        for layer, name, modules in FUNCTIONS:
            original = getattr(modules[0], name)
            if name == "make_cosine_scorer":
                wrapped = self._scorer_factory(original)
            else:
                wrapped = self.span(layer, name, original, observers.get(name))
            for module in modules:
                self._patch(module, name, wrapped)
        for layer, cls, name in METHODS:
            self._patch(cls, name, self.span(layer, name, cls.__dict__[name], observers.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- counters observed at span boundaries ---------------------------------

    def _count_neighbours(self, args, out) -> None:
        self.counts["neighbours_returned"] += len(out)
        self.counts["max_neighbours"] = max(self.counts["max_neighbours"], len(out))

    def _count_links(self, args, out) -> None:
        self.counts["proximals"] += len(args[1])
        self.counts["initial_nodes"] += len(out)

    def _count_beam_passages(self, args, out) -> None:
        index = args[0]
        self.counts["beam_passages"] += len(
            {index.alignment[tid] for beam in out for tid in beam.sequence}
        )

    def _count_tokens(self, args, out) -> None:
        record = args[0].ledger.records[-1]
        self.counts["input_tokens"] += record.input_tokens
        self.counts["output_tokens"] += record.output_tokens

    def _scorer_factory(self, make_scorer):
        @functools.wraps(make_scorer)
        def make(index):
            return self.span("graph_expansion", "score", make_scorer(index))

        return make


class TracedEmbedder:
    """Embedder wrapper that keeps the inner embedder's name; each call is a
    ``base_retrieval.embed`` span and its text length is counted."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self._call = tracer.span("base_retrieval", "embed", inner, self._count)

    @property
    def name(self) -> str:
        return self.inner.name

    def _count(self, args, out) -> None:
        self.tracer.counts["embed_chars"] += len(args[0])

    def __call__(self, text: str):
        return self._call(text)


class TracedBackend:
    """Chat backend wrapper: backend time is its own span, outside every layer,
    so the gateway's self time is its overhead over the backend."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.complete = tracer.span("backend", "complete", inner.complete)
