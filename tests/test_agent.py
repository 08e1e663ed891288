from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from triplehop import (
    AgentConfig,
    AgentRunError,
    ExpansionConfig,
    LLMGateway,
    Passage,
    ProximalTriple,
    RetrievalConfig,
    ScriptedBackend,
    build_index,
    passage_link,
    reason_step,
    rewrite_step,
    run_agent,
    rrf_fuse,
    serialize_facts,
)
from triplehop.base_retrieval import base_retrieve
from triplehop.corpus_index import PASSAGES, TRIPLES, triple_to_passage

from .conftest import RecordingBackend

BM25 = RetrievalConfig(k=5, retriever="bm25")

AGENT_CFG = AgentConfig(
    retrieval=RetrievalConfig(k=3, retriever="bm25"),
    expansion=ExpansionConfig(beam_width=4, max_length=3, gamma=8.0),
    max_iterations=4,
    per_iteration_k=10,
    passage_link_k=5,
)

WALKTHROUGH_REWRITE = (
    "What is the location of the basilica dedicated to St. Peter, "
    "and when did that location become a country?"
)


# ---------------------------------------------------------------------------
# reason / rewrite steps
# ---------------------------------------------------------------------------

def test_serialize_facts_joins_triples_in_order():
    facts = [ProximalTriple("a", "r", "b"), ProximalTriple("c", "s", "d")]
    assert serialize_facts(facts) == '("a", "r", "b"), ("c", "s", "d")'
    assert serialize_facts([]) == ""


def test_reason_step_walkthrough_answer():
    memory = [ProximalTriple("Bremen", "part of", "Germany")]
    backend = ScriptedBackend()
    backend.register(
        "reasoner",
        {"query": "when?", "triples": serialize_facts(memory)},
        "Answerable: Yes\nAnswer: 1929",
    )
    outcome = reason_step(memory, "when?", LLMGateway(backend))
    assert outcome.answerable is True
    assert outcome.payload == "1929"


def test_reason_step_continue_signal():
    memory = [ProximalTriple("a", "r", "b")]
    backend = ScriptedBackend()
    backend.register(
        "reasoner",
        {"query": "q", "triples": serialize_facts(memory)},
        "Answerable: No\nWhy: the location is missing",
    )
    outcome = reason_step(memory, "q", LLMGateway(backend))
    assert outcome.answerable is False
    assert outcome.payload == "the location is missing"


def test_reason_step_empty_memory():
    memory = []
    backend = ScriptedBackend()
    backend.register(
        "reasoner", {"query": "q", "triples": ""}, "Answerable: No\nWhy: no facts"
    )
    outcome = reason_step(memory, "q", LLMGateway(backend))
    assert outcome.answerable is False


def test_rewrite_step_walkthrough_fixture():
    memory = [ProximalTriple("Bremen Cathedral", "dedicated to", "St. Peter")]
    query = (
        "When did the location of the basilica which is named for the same "
        "saint that the Bremen Cathedral is named for become a country?"
    )
    reason = "The provided facts do not mention the basilica's location."
    backend = ScriptedBackend()
    backend.register(
        "rewriter",
        {"query": query, "triples": serialize_facts(memory), "reason": reason},
        WALKTHROUGH_REWRITE,
    )
    gateway = LLMGateway(backend)
    rewritten, fallback = rewrite_step(memory, query, reason, gateway)
    assert rewritten == WALKTHROUGH_REWRITE
    assert fallback is False
    again, _ = rewrite_step(memory, query, reason, gateway)
    assert again == rewritten


def test_rewrite_step_blank_falls_back_to_original():
    memory = [ProximalTriple("a", "r", "b")]
    backend = ScriptedBackend()
    backend.register(
        "rewriter",
        {"query": "the original", "triples": serialize_facts(memory), "reason": "r"},
        "   ",
    )
    rewritten, fallback = rewrite_step(memory, "the original", "r", LLMGateway(backend))
    assert rewritten == "the original"
    assert fallback is True


# ---------------------------------------------------------------------------
# passage_link
# ---------------------------------------------------------------------------

def test_passage_link_agreement_puts_source_first(chain_index):
    [linked] = passage_link(
        chain_index, [ProximalTriple("entb", "linksto", "entc")], BM25, k=5
    )
    assert linked.ids[0] == "p2"


def test_passage_link_empty_triple_index(embedder):
    index = build_index(
        [Passage("p1", "", "entb linksto entc right here")], [], embedder
    )
    [linked] = passage_link(index, [ProximalTriple("entb", "linksto", "entc")], BM25, k=5)
    base = base_retrieve(index, "entb linksto entc", PASSAGES, BM25, k=5)
    assert linked.ids == base.ids


def test_passage_link_matches_hand_computed_rrf(chain_index):
    triple = ProximalTriple("entb", "linksto", "entc")
    query = "entb linksto entc"
    list_c = base_retrieve(chain_index, query, PASSAGES, BM25, k=5)
    list_t = base_retrieve(chain_index, query, TRIPLES, BM25, k=5)
    mapped, seen = [], set()
    for tid, score in list_t.entries:
        pid = triple_to_passage(chain_index, tid)
        if pid not in seen:
            seen.add(pid)
            mapped.append((pid, score))
    expected: dict[str, float] = {}
    for entries in (list_c.entries, tuple(mapped)):
        for rank, (pid, _) in enumerate(entries, start=1):
            expected[pid] = expected.get(pid, 0.0) + 1.0 / (60 + rank)
    want = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:5]

    [linked] = passage_link(chain_index, [triple], BM25, k=5)
    assert linked.ids == [pid for pid, _ in want]
    for (_, got), (_, expected_score) in zip(linked.entries, want):
        assert abs(got - expected_score) < 1e-9


# ---------------------------------------------------------------------------
# run_agent
# ---------------------------------------------------------------------------

def immediate_answer_script(kind, variables):
    if kind in ("reader", "reader_with_memory"):
        return 'Facts: ("enta", "linksto", "entb")'
    if kind == "reasoner":
        return "Answerable: Yes\nAnswer: entd"
    raise AssertionError(f"unexpected kind {kind}")


def never_answerable_script(kind, variables):
    if kind in ("reader", "reader_with_memory"):
        return 'Facts: ("enta", "linksto", "entb")'
    if kind == "reasoner":
        return "Answerable: No\nWhy: still missing the endpoint"
    if kind == "rewriter":
        return "Next Question: what comes after entb?"
    raise AssertionError(f"unexpected kind {kind}")


def test_agent_answerable_first_iteration(chain_index):
    recorder = RecordingBackend(immediate_answer_script)
    trace = run_agent(
        chain_index, "where does the trail from enta finish",
        AGENT_CFG, LLMGateway(recorder),
    )
    assert len(trace.iterations) == 1
    assert trace.termination_cause == "answerable"
    assert trace.answer == "entd"
    assert trace.iterations[0].rewritten_query is None
    # final fusion covers gist links plus the single iteration list
    assert set(trace.final.ids) >= {"p1", "p2"}


def test_agent_never_answerable_runs_max_iterations(chain_index):
    recorder = RecordingBackend(never_answerable_script)
    trace = run_agent(
        chain_index, "where does the trail from enta finish",
        AGENT_CFG, LLMGateway(recorder),
    )
    assert len(trace.iterations) == 4
    assert trace.termination_cause == "max_iterations"
    assert trace.answer is None
    # rewritten on all but the last iteration
    assert [r.rewritten_query is not None for r in trace.iterations] == [
        True, True, True, False,
    ]


def test_agent_trace_detailed_shape(chain_index):
    recorder = RecordingBackend(never_answerable_script)
    trace = run_agent(
        chain_index, "where does the trail from enta finish",
        AGENT_CFG, LLMGateway(recorder),
    )
    record = trace.iterations[0]
    assert record.query == "where does the trail from enta finish"
    assert trace.iterations[1].query == "what comes after entb?"
    assert record.detail.base.ids == ["p1"]
    assert record.detail.initial_nodes == ("t1",)
    assert record.gist_additions == (ProximalTriple("enta", "linksto", "entb"),)
    assert record.reason.answerable is False
    payload = json.loads(trace.to_json())
    assert payload["termination_cause"] == "max_iterations"
    assert len(payload["iterations"]) == 4
    assert payload["config"]["max_iterations"] == 4


def test_agent_empty_gist_final_is_rrf_of_iteration_lists(chain_index):
    def silent_script(kind, variables):
        if kind in ("reader", "reader_with_memory"):
            return "nothing found"
        if kind == "reasoner":
            return "Answerable: No\nWhy: no facts at all"
        if kind == "rewriter":
            return "Next Question: still the same trail?"
        raise AssertionError(kind)

    recorder = RecordingBackend(silent_script)
    cfg = AgentConfig(
        retrieval=RetrievalConfig(k=3, retriever="bm25"),
        expansion=ExpansionConfig(beam_width=4, max_length=2),
        max_iterations=2,
    )
    trace = run_agent(
        chain_index, "where does the trail from enta finish", cfg,
        LLMGateway(recorder),
    )
    expected = rrf_fuse(
        [record.detail.fused for record in trace.iterations], cfg.retrieval.rrf_constant
    )
    assert trace.final == expected


def test_agent_memory_reaches_later_reads(chain_index):
    seen_memory_payloads = []

    def script(kind, variables):
        if kind == "reader":
            return 'Facts: ("enta", "linksto", "entb")'
        if kind == "reader_with_memory":
            seen_memory_payloads.append(variables["triples"])
            return 'Facts: ("entb", "linksto", "entc")'
        if kind == "reasoner":
            return "Answerable: No\nWhy: incomplete"
        if kind == "rewriter":
            return "Next Question: and after entb?"
        raise AssertionError(kind)

    cfg = AgentConfig(
        retrieval=RetrievalConfig(k=3, retriever="bm25"),
        expansion=ExpansionConfig(beam_width=4, max_length=2),
        max_iterations=2,
    )
    trace = run_agent(
        chain_index, "where does the trail from enta finish", cfg,
        LLMGateway(RecordingBackend(script)),
    )
    # iteration 2's gist read is conditioned on iteration 1's facts
    assert seen_memory_payloads == ['("enta", "linksto", "entb")']
    assert trace.iterations[1].gist_additions == (
        ProximalTriple("entb", "linksto", "entc"),
    )


def test_agent_links_each_fact_once_in_first_occurrence_order(chain_index):
    ab = ProximalTriple("enta", "linksto", "entb")
    bc = ProximalTriple("entb", "linksto", "entc")
    cd = ProximalTriple("entc", "linksto", "entd")

    def script(kind, variables):
        if kind == "reader":
            return (
                'Facts: ("entb", "linksto", "entc"), ("enta", "linksto", "entb"), '
                '("entb", "linksto", "entc")'
            )
        if kind == "reader_with_memory":
            return 'Facts: ("entc", "linksto", "entd"), ("enta", "linksto", "entb")'
        if kind == "reasoner":
            return "Answerable: No\nWhy: incomplete"
        if kind == "rewriter":
            return "Next Question: and after entb?"
        raise AssertionError(kind)

    cfg = AgentConfig(
        retrieval=RetrievalConfig(k=3, retriever="bm25"),
        expansion=ExpansionConfig(beam_width=4, max_length=2),
        max_iterations=2,
    )
    trace = run_agent(
        chain_index, "where does the trail from enta finish", cfg,
        LLMGateway(RecordingBackend(script)),
    )
    assert [record.gist_additions for record in trace.iterations] == [
        (bc, ab, bc), (cd, ab),
    ]
    assert trace.linked_facts == (bc, ab, cd)
    assert trace.to_dict()["linked_facts"] == [
        ["entb", "linksto", "entc"], ["enta", "linksto", "entb"], ["entc", "linksto", "entd"],
    ]


def test_agent_byte_identical_traces_with_scripted_backend(chain_index):
    recorder = RecordingBackend(never_answerable_script)
    query = "where does the trail from enta finish"
    run_agent(chain_index, query, AGENT_CFG, LLMGateway(recorder))
    scripted = recorder.to_scripted()
    first = run_agent(chain_index, query, AGENT_CFG, LLMGateway(scripted))
    second = run_agent(chain_index, query, AGENT_CFG, LLMGateway(scripted))
    assert first.to_json() == second.to_json()


PINNED_TRACE = Path(__file__).parent / "data" / "agent_trace_chain.json"


def pinned_trace_json(chain_index) -> str:
    """The trace JSON of a scripted two-iteration run on the chain corpus."""
    trace = run_agent(
        chain_index, "where does the trail from enta finish",
        replace(AGENT_CFG, max_iterations=2),
        LLMGateway(RecordingBackend(never_answerable_script)),
    )
    return trace.to_json() + "\n"


def test_agent_trace_matches_pinned_json(chain_index):
    # The determinism test above compares two runs of the same code; this
    # compares against a trace written out once, so a change to how traces
    # are assembled must keep every key, value and byte of the output.
    assert pinned_trace_json(chain_index) == PINNED_TRACE.read_text(encoding="utf-8")


def test_agent_gist_memory_prefix_is_stable(chain_index):
    recorder = RecordingBackend(never_answerable_script)
    trace = run_agent(
        chain_index, "where does the trail from enta finish",
        AGENT_CFG, LLMGateway(recorder),
    )
    prefixes = []
    acc = []
    for record in trace.iterations:
        acc.extend(record.gist_additions)
        prefixes.append(tuple(acc))
    for shorter, longer in zip(prefixes, prefixes[1:]):
        assert longer[: len(shorter)] == shorter


def test_agent_error_carries_partial_trace(chain_index):
    # record a 2-iteration run; replaying with 4 allowed iterations misses the
    # iteration-2 rewriter fixture and aborts mid-iteration
    recorder = RecordingBackend(never_answerable_script)
    query = "where does the trail from enta finish"
    cfg = AgentConfig(
        retrieval=RetrievalConfig(k=3, retriever="bm25"),
        expansion=ExpansionConfig(beam_width=4, max_length=2),
        max_iterations=2,
    )
    run_agent(chain_index, query, cfg, LLMGateway(recorder))
    scripted = recorder.to_scripted()
    four_cfg = AgentConfig(
        retrieval=cfg.retrieval, expansion=cfg.expansion, max_iterations=4
    )
    with pytest.raises(AgentRunError) as err:
        run_agent(chain_index, query, four_cfg, LLMGateway(scripted))
    assert err.value.trace.termination_cause == "error"
    assert len(err.value.trace.iterations) == 1


def test_agent_token_ledger_partitions_by_iteration(chain_index):
    recorder = RecordingBackend(never_answerable_script)
    gateway = LLMGateway(recorder)
    trace = run_agent(
        chain_index, "where does the trail from enta finish", AGENT_CFG, gateway
    )
    ledger = gateway.ledger
    by_iteration = ledger.by_iteration()
    assert set(by_iteration) == {1, 2, 3, 4}
    assert sum(tin for tin, _ in by_iteration.values()) == ledger.total_input()
    assert sum(tout for _, tout in by_iteration.values()) == ledger.total_output()
    assert trace.tokens["total_input"] == ledger.total_input()
