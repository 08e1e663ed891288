"""The three workloads: the operation each question runs, the output checks,
and the end-to-end and per-layer metrics of one run.

- base-large: about 10k passages, the default hybrid base retriever over the
  passage view; build, save, load and the BM25/dense/RRF scans dominate.
- hub-expand: naive graph expansion over a BM25 base on a corpus where three
  hub entities each join a thousand triples; a quarter of the questions start
  next to a hub, so neighbour lookup and candidate scoring dominate.
- agent-chains: 3- and 4-hop chains run through ``run_eval`` with the agent,
  the default hybrid retriever and the rule-based chat backend.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import gen
from backend import RuleBackend
from timing import REF_NOMINAL_S, RefClock, peak_rss_mb
from tracing import LAYERS, TracedBackend, TracedEmbedder, Tracer
from triplehop import (
    PASSAGES,
    AgentConfig,
    EvalQuestion,
    ExpansionConfig,
    HashEmbedder,
    Passage,
    RetrievalConfig,
    Triple,
    build_index,
    load_index,
    save_index,
)
from triplehop import base_retrieval, eval_harness, graph_expansion

WORKLOADS = tuple(gen.WORKLOADS)
K = 10
EMBEDDER = HashEmbedder(256)
BASE = RetrievalConfig(k=K)
HUB_BASE = RetrievalConfig(k=K, retriever="bm25")
EXPANSION = ExpansionConfig()
AGENT = AgentConfig()

SETUP_REPEATS = 3
LOAD_REPEATS = 5  # at least this many loads, for at least LOAD_SECONDS
LOAD_SECONDS = 1.0
MIN_ROUNDS = 3  # so a per-question median is robust to one slow round
TAIL_BEYOND = 10  # questions beyond the reported tail percentile
CHECK_EVERY = {"base-large": 10, "hub-expand": 7, "agent-chains": 5}


@dataclass(frozen=True)
class Outcome:
    """What one question returned: its ranking, or the error it raised."""

    entries: tuple = ()
    iterations: int = 0
    tokens: int = 0
    error: str = ""


def fingerprint(outcomes: dict) -> str:
    digest = hashlib.sha256()
    for qid in sorted(outcomes):
        digest.update(f"{qid}\t{outcomes[qid].entries!r}\n".encode())
    return digest.hexdigest()


class _Recorded:
    """Eval system that keeps the last result; run_eval reports only scores."""

    def __init__(self, system):
        self.system = system
        self.index = system.index
        self.last = None

    def run(self, question):
        self.last = self.system.run(question)
        return self.last


def make_op(workload: str, index, backend):
    """The call one question makes; module attributes are looked up per call,
    so a traced run goes through the wrappers."""
    if workload == "base-large":
        return lambda q: Outcome(
            base_retrieval.base_retrieve(index, q.question, PASSAGES, BASE).entries
        )
    if workload == "hub-expand":
        return lambda q: Outcome(
            graph_expansion.naive_ge_retrieve(index, q.question, HUB_BASE, EXPANSION).entries
        )
    system = _Recorded(eval_harness.AgentSystem(index, AGENT, backend))

    def agent_op(q):
        row = eval_harness.run_eval([q], system, cutoffs=(K,), workers=1).rows[0]
        if row.error is not None:
            return Outcome(error=row.error)
        result = system.last
        return Outcome(
            result.ranked.entries, result.iterations, result.input_tokens + result.output_tokens
        )

    return agent_op


def _guarded(op, question) -> Outcome:
    try:
        return op(question)
    except Exception as e:  # a failed operation is counted, not fatal
        return Outcome(error=f"{type(e).__name__}: {e}")


def run_rounds(clock: RefClock, questions, op, seconds: float, phase: str, after=None,
               min_rounds: int = MIN_ROUNDS):
    """Whole rounds over every question until ``seconds`` have passed."""
    rounds = []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        gc.collect()
        outcomes = {}
        for q in questions:
            outcomes[q.id] = clock.time((phase, q.id), _guarded, op, q)
            if after is not None:
                after(q)
        rounds.append(outcomes)
    clock.flush()
    return rounds


def latency(clock: RefClock, questions, phase: str) -> dict:
    """Median and tail of per-question medians, and closed-loop throughput."""
    per_question = sorted(
        statistics.median(clock.corrected[(phase, q.id)]) for q in questions
    )
    return {
        "p50_ms": statistics.median(per_question) * 1e3,
        "tail_ms": per_question[len(per_question) - TAIL_BEYOND - 1] * 1e3,
        "tail_pct": 100.0 * (len(per_question) - TAIL_BEYOND) / len(per_question),
        # one client, closed loop: a question starts when the last one ends
        "qps": len(per_question) / sum(per_question),
        "raw_p50_ms": statistics.median(
            statistics.median(clock.raw[(phase, q.id)]) for q in questions
        ) * 1e3,
    }


def setup(passages, triples, embedder, directory: Path) -> None:
    save_index(build_index(passages, triples, embedder), directory)


def run(workload: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    inputs = gen.generate(workload, seed)
    passages = [Passage(p["id"], p["title"], p["text"]) for p in inputs.passages]
    triples = [Triple(f.id, f.subject, f.predicate, f.object, f.passage_id) for f in inputs.facts]
    questions = [
        EvalQuestion(q.id, q.question, frozenset(q.gold_passage_ids), (q.answer,))
        for q in inputs.questions
    ]
    if len(questions) < 4 * TAIL_BEYOND:
        raise ValueError("a tail needs at least 40 questions")
    info = [
        f"workload {workload} seed {seed}: {len(passages)} passages, {len(triples)} "
        f"triples, {len(questions)} questions"
    ]
    clock = RefClock()
    backend = RuleBackend()
    index_dir = out_dir / "index"
    clock.start()
    try:
        if traced:
            metrics, all_rounds, index = _traced_run(
                workload, inputs, passages, triples, questions, clock, backend, seconds,
                index_dir, info,
            )
        else:
            metrics, all_rounds, index = _plain_run(
                workload, passages, triples, questions, clock, backend, seconds, index_dir, info,
            )
    finally:
        clock.stop()

    results = _check(workload, index, inputs, questions, all_rounds[0], backend)
    prints = {fingerprint(r) for r in all_rounds}
    results.append([] if len(prints) == 1 else [f"{len(prints)} distinct fingerprints across rounds"])
    info.append(f"fingerprint {fingerprint(all_rounds[0])}")
    errors = [o.error for r in all_rounds for o in r.values() if o.error]
    wrong = [msgs for msgs in results if msgs]
    for msgs in wrong:
        info.extend(f"CHECK FAILED: {m}" for m in msgs)
    info.extend(f"ERROR: {e}" for e in sorted(set(errors)))
    samples = clock.sample_times()
    info.append(
        f"reference loop: median {statistics.median(samples) * 1e3:.3f} ms raw over "
        f"{len(samples)} samples (min {min(samples) * 1e3:.3f}, max {max(samples) * 1e3:.3f}); "
        f"nominal {REF_NOMINAL_S * 1e3:.3f} ms"
    )
    return {
        "info": info,
        "correct": not wrong,
        "attempted": sum(len(r) for r in all_rounds) + len(results),
        "failed": len(errors) + len(wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _plain_run(workload, passages, triples, questions, clock, backend, seconds, index_dir, info):
    # each repeat starts from a collected heap, so the garbage of the one
    # before does not land in its time
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(index_dir, ignore_errors=True)
        gc.collect()
        clock.time("setup", setup, passages, triples, EMBEDDER, index_dir)
    start = perf_counter()
    while len(clock.corrected.get("load", ())) < LOAD_REPEATS or perf_counter() - start < LOAD_SECONDS:
        index = None
        gc.collect()
        index = clock.time("load", load_index, index_dir, EMBEDDER)
        clock.flush()
    clock.flush()
    rounds = run_rounds(clock, questions, make_op(workload, index, backend), seconds, "query")
    rss = peak_rss_mb()
    lat = latency(clock, questions, "query")
    first = rounds[0]
    recall = statistics.fmean(
        len(q.gold_passage_ids & {pid for pid, _ in first[q.id].entries[:K]})
        / len(q.gold_passage_ids)
        for q in questions
    )
    disk = sum(f.stat().st_size for f in index_dir.iterdir()) / 1e6
    info.append(
        f"{len(rounds)} rounds; query_tail_ms is p{lat['tail_pct']:.1f} of "
        f"{len(questions)} per-question medians; raw (uncorrected) query p50 "
        f"{lat['raw_p50_ms']:.3f} ms; raw setup {statistics.median(clock.raw['setup']):.3f} s"
    )
    if workload == "agent-chains":
        info.append(
            f"iterations_per_q {statistics.fmean(first[q.id].iterations for q in questions):.4f}, "
            f"llm_tokens_per_q {statistics.fmean(first[q.id].tokens for q in questions):.2f}"
        )
    metrics = {
        "setup_s": (statistics.median(clock.corrected["setup"]), "s"),
        "load_s": (statistics.median(clock.corrected["load"]), "s"),
        "query_p50_ms": (lat["p50_ms"], "ms"),
        "query_tail_ms": (lat["tail_ms"], "ms"),
        "queries_per_s": (lat["qps"], "1/s"),
        "recall_at_10": (recall, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "index_disk_mb": (disk, "MB"),
    }
    return metrics, rounds, index


def _traced_run(workload, inputs, passages, triples, questions, clock, backend, seconds,
                index_dir, info):
    tracer = Tracer()
    embedder = TracedEmbedder(EMBEDDER, tracer)
    gc.collect()
    built = clock.time("build", build_index, passages, triples, embedder)
    clock.flush()
    build_embed = (tracer.calls["base_retrieval.embed"], tracer.total_s["base_retrieval.embed"])
    build_factor = clock.corrected["build"][0] / clock.raw["build"][0]
    clock.time("save", save_index, built, index_dir)
    clock.flush()
    del built
    tracer.reset()

    index = load_index(index_dir, EMBEDDER)
    # per-layer figures need no per-question medians: one round per phase
    # may do, which keeps a traced run about as long as an untraced one
    plain = run_rounds(
        clock, questions, make_op(workload, index, backend), seconds / 2, "plain", min_rounds=1
    )
    traced_index = load_index(index_dir, embedder)
    hub_min = max(1, inputs.settings.hub_degree // 2) if inputs.settings.hub_degree else None
    through_hub: set[str] = set()

    def after(q):
        if hub_min and tracer.counts["max_neighbours"] >= hub_min:
            through_hub.add(q.id)
        tracer.counts["max_neighbours"] = 0

    tracer.install()
    try:
        op = make_op(workload, traced_index, TracedBackend(backend, tracer))
        rounds = run_rounds(clock, questions, op, seconds / 2, "traced", after, min_rounds=1)
    finally:
        tracer.uninstall()

    untraced = latency(clock, questions, "plain")["p50_ms"]
    traced_p50 = latency(clock, questions, "traced")["p50_ms"]
    # spans include the reference samples taken inside them: scale wall time
    wall_s = sum(sum(clock.wall[("traced", q.id)]) for q in questions)
    factor = sum(sum(clock.corrected[("traced", q.id)]) for q in questions) / wall_s
    n = len(rounds) * len(questions)
    calls = lambda key: tracer.calls[key] / n  # noqa: E731
    ms = lambda key: tracer.total_s[key] * factor * 1e3 / n  # noqa: E731
    count = lambda key: tracer.counts[key] / n  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics = {
        "corpus_index.build_s": (clock.corrected["build"][0], "s"),
        "corpus_index.save_s": (clock.corrected["save"][0], "s"),
        "corpus_index.neighbour_calls_per_q": (calls("corpus_index.get_neighbours"), "count"),
        "corpus_index.neighbours_returned_per_q": (count("neighbours_returned"), "count"),
        "corpus_index.neighbour_ms_per_q": (ms("corpus_index.get_neighbours"), "ms"),
        "base_retrieval.embed_calls_per_q": (calls("base_retrieval.embed"), "count"),
        "base_retrieval.embed_chars_per_q": (count("embed_chars"), "chars"),
        "base_retrieval.embed_ms_per_q": (ms("base_retrieval.embed"), "ms"),
        "base_retrieval.build_embed_calls": (build_embed[0], "count"),
        "base_retrieval.build_embed_s": (build_embed[1] * build_factor, "s"),
        "base_retrieval.bm25_calls_per_q": (calls("base_retrieval.bm25_search"), "count"),
        "base_retrieval.bm25_ms_per_q": (ms("base_retrieval.bm25_search"), "ms"),
        "base_retrieval.dense_calls_per_q": (calls("base_retrieval.dense_search"), "count"),
        "base_retrieval.dense_ms_per_q": (ms("base_retrieval.dense_search"), "ms"),
        "base_retrieval.rrf_calls_per_q": (calls("base_retrieval.rrf_fuse"), "count"),
        "base_retrieval.rrf_ms_per_q": (ms("base_retrieval.rrf_fuse"), "ms"),
        "sync.read_calls_per_q": (calls("sync.read_proximal"), "count"),
        "sync.read_ms_per_q": (ms("sync.read_proximal"), "ms"),
        "sync.triple_link_calls_per_q": (calls("sync.triple_link"), "count"),
        "sync.triple_link_ms_per_q": (ms("sync.triple_link"), "ms"),
        "sync.link_yield": (
            ratio(tracer.counts["initial_nodes"], tracer.counts["proximals"]), "ratio"
        ),
        "graph_expansion.beam_search_ms_per_q": (ms("graph_expansion.diverse_beam_search"), "ms"),
        "graph_expansion.candidates_scored_per_q": (calls("graph_expansion.score"), "count"),
        "graph_expansion.score_ms_per_q": (ms("graph_expansion.score"), "ms"),
        "graph_expansion.useful_ratio": (
            ratio(tracer.counts["beam_passages"], tracer.calls["graph_expansion.score"]), "ratio"
        ),
        "agent.run_ms_per_q": (ms("agent.run_agent"), "ms"),
        "agent.passage_link_calls_per_q": (calls("agent.passage_link"), "count"),
        "agent.passage_link_ms_per_q": (ms("agent.passage_link"), "ms"),
        "agent.iterations_per_q": (
            statistics.fmean(rounds[0][q.id].iterations for q in questions), "count"
        ),
        "llm_gateway.calls_per_q": (calls("llm_gateway.complete"), "count"),
        "llm_gateway.input_tokens_per_q": (count("input_tokens"), "tokens"),
        "llm_gateway.output_tokens_per_q": (count("output_tokens"), "tokens"),
        "llm_gateway.tokens_per_q": (count("input_tokens") + count("output_tokens"), "tokens"),
        "llm_gateway.overhead_ms_per_q": (
            ms("llm_gateway.complete") - ms("backend.complete"), "ms"
        ),
        "eval_harness.system_run_ms_per_q": (ms("eval_harness.run"), "ms"),
        "eval_harness.overhead_ms_per_q": (
            ms("eval_harness.run_eval") - ms("eval_harness.run"), "ms"
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_q"] = (
            tracer.self_s[layer] * factor * 1e3 / n, "ms"
        )
    metrics["trace.coverage"] = (tracer.top_s / wall_s, "ratio")
    metrics["trace.overhead"] = ((traced_p50 - untraced) / untraced, "ratio")
    if hub_min:
        info.append(
            f"{len(through_hub)} of {len(questions)} questions expand through a hub "
            f"(a neighbour lookup returning >= {hub_min} triples)"
        )
    return metrics, plain + rounds, index


# -- output checks -------------------------------------------------------------


def _check(workload, index, inputs, questions, outcomes, backend) -> list[list[str]]:
    sample = questions[:: CHECK_EVERY[workload]]
    if workload == "base-large":
        return _check_base(index, inputs, sample, outcomes)
    if workload == "hub-expand":
        return _check_hub(index, inputs, sample, outcomes)
    return _check_agent(index, inputs, sample, outcomes, backend)


def _search_texts(inputs) -> dict[str, str]:
    # BM25 indexes a passage's title and body together
    return {p["id"]: f"{p['title']} {p['text']}" for p in inputs.passages}


def _check_base(index, inputs, sample, outcomes) -> list[list[str]]:
    bm25 = checks.Bm25(_search_texts(inputs))
    cosine = checks.Cosine({p["id"]: p["text"] for p in inputs.passages}, EMBEDDER)
    results = []
    for q in sample:
        got_bm25 = base_retrieval.bm25_search(index, q.question, PASSAGES, K).entries
        got_dense = base_retrieval.dense_search(index, q.question, PASSAGES, K).entries
        want_bm25 = checks.follow_ties(bm25.search(q.question, 2 * K), got_bm25)
        want_dense = checks.follow_ties(cosine.search(q.question, 2 * K), got_dense)
        results.append(checks.compare_rankings(f"{q.id} bm25", got_bm25, want_bm25, K))
        results.append(checks.compare_rankings(f"{q.id} dense", got_dense, want_dense, K))
        want = checks.rrf([want_bm25[:K], want_dense[:K]], K)
        results.append(checks.compare_rankings(f"{q.id} hybrid", outcomes[q.id].entries, want, K))
    return results


def _check_hub(index, inputs, sample, outcomes) -> list[list[str]]:
    bm25 = checks.Bm25(_search_texts(inputs))
    graph = checks.Graph(inputs.facts)
    score = checks.cosine_scorer(graph, EMBEDDER)
    results = []
    for q in sample:
        detail = graph_expansion.naive_ge_detail(index, q.question, HUB_BASE, EXPANSION)
        want_base = checks.follow_ties(bm25.search(q.question, 2 * K), detail.base.entries)
        results.append(checks.compare_rankings(f"{q.id} base", detail.base.entries, want_base, K))
        base = want_base[:K]
        initial = [t for pid, _ in base for t in sorted(graph.by_passage[pid])]
        want = checks.beam_search(q.question, initial, graph, EXPANSION, score)
        got = [(beam.score, beam.sequence) for beam in detail.beams]
        results.append(checks.beam_properties([seq for _, seq in got], graph, EXPANSION))
        results.append(checks.compare_beams(f"{q.id} beams", got, want))
        expanded = []
        for tid in checks.flatten([seq for _, seq in want]):
            pid = graph.facts[tid].passage_id
            if pid not in expanded:
                expanded.append(pid)
        fused = checks.rrf([[(pid, 0.0) for pid in expanded], base], K)
        results.append(checks.compare_rankings(f"{q.id} fused", outcomes[q.id].entries, fused, K))
    return results


def _check_agent(index, inputs, sample, outcomes, backend) -> list[list[str]]:
    answers = {q.id: q.answer for q in inputs.questions}
    system = eval_harness.AgentSystem(index, AGENT, backend)
    results = []
    for q in sample:
        before = (backend.input_tokens, backend.output_tokens)
        result = system.run(q)
        seen = (backend.input_tokens - before[0], backend.output_tokens - before[1])
        answer = (result.answer or "").strip()
        results.append(
            [] if answer.lower() == answers[q.id].lower()
            else [f"{q.id}: answered {answer!r}, the chain ends at {answers[q.id]!r}"]
        )
        results.append(
            [] if (result.input_tokens, result.output_tokens) == seen
            else [f"{q.id}: ledger has {(result.input_tokens, result.output_tokens)} tokens, "
                  f"the backend saw {seen}"]
        )
        results.append(
            [] if result.ranked.entries == outcomes[q.id].entries
            else [f"{q.id}: ranking differs from the timed run"]
        )
    return results
