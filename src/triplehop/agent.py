"""Multi-step retrieval agent.

Each iteration runs graph-expanded retrieval for the current query, reads the
retrieved passages into the gist memory, and asks the reasoner whether the
original question is now answerable. If not, the query is rewritten and the
loop continues. After termination every memorised fact is linked back to
passages, and all per-iteration and linked lists are fused into one ranking.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .base_retrieval import RankedList, RetrievalConfig, base_retrieve, rrf_fuse
from .corpus_index import (
    PASSAGES,
    TRIPLES,
    CorpusIndex,
    serialize_triple,
    triple_to_passage,
)
from .graph_expansion import ExpansionConfig, GraphRetrievalDetail, sync_ge_detail
from .llm_gateway import (
    LLMGateway,
    ProximalTriple,
    ReasonOutcome,
    check_settings,
    parse_next_question,
    parse_reason,
    serialize_facts,
)
from .sync import read_proximal


class AgentRunError(RuntimeError):
    """A step failed mid-run; carries the trace up to the failure."""

    def __init__(self, message: str, trace: "AgentTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class AgentConfig:
    retrieval: RetrievalConfig = RetrievalConfig()
    expansion: ExpansionConfig = ExpansionConfig()
    max_iterations: int = 4
    per_iteration_k: int = 10
    passage_link_k: int = 15

    def __post_init__(self):
        check_settings(AgentConfig, vars(self))

    def to_dict(self) -> dict:
        return asdict(self)


def _triple_list(triples: Sequence[ProximalTriple]) -> list[list[str]]:
    return [[t.subject, t.predicate, t.object] for t in triples]


@dataclass
class IterationRecord:
    """One iteration: its query, its graph-expanded retrieval (``detail``,
    whose ``fused`` list is the iteration's ranking) and the memory, reason
    and rewrite steps that followed."""

    iteration: int
    query: str
    detail: GraphRetrievalDetail
    gist_additions: tuple[ProximalTriple, ...]
    reason: ReasonOutcome
    rewritten_query: str | None
    rewrite_fallback: bool

    def to_dict(self) -> dict:
        detail = self.detail
        return {
            "iteration": self.iteration,
            "query": self.query,
            "base": detail.base.to_dict(),
            "proximals": _triple_list(detail.proximals),
            "initial_nodes": list(detail.initial_nodes),
            "beams": [
                {"score": beam.score, "sequence": list(beam.sequence)}
                for beam in detail.beams
            ],
            "expanded": detail.fused.to_dict(),
            "gist_additions": _triple_list(self.gist_additions),
            "reason": {
                "answerable": self.reason.answerable,
                "payload": self.reason.payload,
            },
            "rewritten_query": self.rewritten_query,
            "rewrite_fallback": self.rewrite_fallback,
            "expansion_stopped_at": detail.expansion_stopped_at,
        }


@dataclass
class AgentTrace:
    query: str
    iterations: list[IterationRecord]
    final: RankedList
    termination_cause: str
    answer: str | None
    config: dict
    tokens: dict = field(default_factory=dict)
    # memory facts deduplicated for the passage-link fan-out; the raw
    # (possibly repeating) accumulation lives in the iteration records
    linked_facts: tuple[ProximalTriple, ...] = ()

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "iterations": [record.to_dict() for record in self.iterations],
            "final": self.final.to_dict(),
            "termination_cause": self.termination_cause,
            "answer": self.answer,
            "config": self.config,
            "tokens": self.tokens,
            "linked_facts": _triple_list(self.linked_facts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def reason_step(
    memory: Sequence[ProximalTriple], query: str, gateway: LLMGateway
) -> ReasonOutcome:
    """Ask whether the memorised facts answer the original question."""
    raw = gateway.complete(
        "reasoner", {"query": query, "triples": serialize_facts(memory)}
    )
    return parse_reason(raw)


def rewrite_step(
    memory: Sequence[ProximalTriple],
    query: str,
    reason_text: str,
    gateway: LLMGateway,
) -> tuple[str, bool]:
    """Produce the next query; falls back to the original when the reply is blank.

    Returns (next_query, used_fallback).
    """
    raw = gateway.complete(
        "rewriter",
        {"query": query, "triples": serialize_facts(memory), "reason": reason_text},
    )
    next_query = parse_next_question(raw)
    if not next_query:
        return query, True
    return next_query, False


def passage_link(
    index: CorpusIndex,
    triples: Sequence[ProximalTriple],
    retrieval: RetrievalConfig,
    k: int = 15,
) -> list[RankedList]:
    """Link each fact to passages: fuse passage-view and triple-view retrieval.

    Returns one list per fact, in order, each cut to ``k``. Each view is
    searched once for the whole batch, at depth ``k``. A fact's triple-view
    hits are mapped to source passages by one ``triple_to_passage`` call
    (first occurrence wins) before fusion.
    """
    queries = [serialize_triple(triple) for triple in triples]
    passage_lists = base_retrieve(index, queries, PASSAGES, retrieval, k=k)
    triple_lists = base_retrieve(index, queries, TRIPLES, retrieval, k=k)
    linked = []
    for passage_list, triple_list in zip(passage_lists, triple_lists):
        first: dict[str, float] = {}  # passage id -> its first triple's score
        for pid, (_, score) in zip(triple_to_passage(index, triple_list.ids), triple_list.entries):
            first.setdefault(pid, score)
        # A first-occurrence subsequence of a ranked list is one.
        mapped = RankedList._unchecked(tuple(first.items()), "triples->passages")
        linked.append(rrf_fuse([passage_list, mapped], retrieval.rrf_constant).truncated(k))
    return linked


def run_agent(
    index: CorpusIndex,
    query: str,
    cfg: AgentConfig,
    gateway: LLMGateway,
) -> AgentTrace:
    """Run the full multi-step loop and return the complete trace."""
    memory: list[ProximalTriple] = []  # every fact read, in order, repeats kept
    records: list[IterationRecord] = []
    current_query = query
    cause = "max_iterations"
    answer: str | None = None

    def partial_trace() -> AgentTrace:
        return AgentTrace(
            query=query,
            iterations=records,
            final=RankedList(()),
            termination_cause="error",
            answer=None,
            config=cfg.to_dict(),
            tokens=gateway.ledger.to_dict(),
        )

    try:
        for n in range(1, cfg.max_iterations + 1):
            gateway.set_iteration(n)
            detail = sync_ge_detail(
                index,
                current_query,
                cfg.retrieval,
                cfg.expansion,
                gateway,
                chunk_cap=cfg.per_iteration_k,
            )

            additions = read_proximal(
                index,
                detail.fused.ids,
                query,
                gateway,
                memory=memory if n >= 2 else None,
                cap=cfg.per_iteration_k,
            )
            memory.extend(additions)

            outcome = reason_step(memory, query, gateway)
            rewritten: str | None = None
            fallback = False
            if outcome.answerable:
                cause = "answerable"
                answer = outcome.payload
            elif n < cfg.max_iterations:
                rewritten, fallback = rewrite_step(
                    memory, query, outcome.payload, gateway
                )

            records.append(
                IterationRecord(
                    iteration=n,
                    query=current_query,
                    detail=detail,
                    gist_additions=tuple(additions),
                    reason=outcome,
                    rewritten_query=rewritten,
                    rewrite_fallback=fallback,
                )
            )
            if outcome.answerable:
                break
            if rewritten is not None:
                current_query = rewritten
    except Exception as e:
        raise AgentRunError(str(e), partial_trace()) from e
    finally:
        gateway.set_iteration(0)

    linked_facts = list(dict.fromkeys(memory))
    link_lists = passage_link(index, linked_facts, cfg.retrieval, cfg.passage_link_k)
    final = rrf_fuse(
        [*link_lists, *(record.detail.fused for record in records)],
        cfg.retrieval.rrf_constant,
    )
    return AgentTrace(
        query=query,
        iterations=records,
        final=final,
        termination_cause=cause,
        answer=answer,
        config=cfg.to_dict(),
        tokens=gateway.ledger.to_dict(),
        linked_facts=tuple(linked_facts),
    )
