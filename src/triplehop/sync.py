"""Knowledge synchronisation: LLM reads passages into proximal triples, and
each proximal triple is grounded to its most similar indexed triple.

The reader takes passage ids in rank order (a ranking's ``.ids``). The
grounded triples become the starting nodes for graph expansion.
"""

from __future__ import annotations

from typing import Sequence

from .base_retrieval import RetrievalConfig, base_retrieve
from .corpus_index import TRIPLES, CorpusIndex, serialize_triple
from .llm_gateway import LLMGateway, ProximalTriple, parse_facts, serialize_facts


def format_docs(
    index: CorpusIndex,
    passage_ids: Sequence[str],
    cap: int | None = None,
) -> str:
    """Render passages as "title\\nbody" blocks in rank order, capped to ``cap``."""
    blocks = []
    for pid in passage_ids[:cap]:
        passage = index.passages[pid]
        blocks.append(f"{passage.title}\n{passage.body}")
    return "\n\n".join(blocks)


def reader_variables(
    index: CorpusIndex,
    passage_ids: Sequence[str],
    query: str,
    memory: Sequence[ProximalTriple] | None = None,
    cap: int | None = 10,
) -> tuple[str, dict[str, str]]:
    """Template name and variable map for a read call; shared with test fixtures."""
    variables = {"docs": format_docs(index, passage_ids, cap), "query": query}
    if memory is None:
        return "reader", variables
    variables["triples"] = serialize_facts(memory)
    return "reader_with_memory", variables


def read_proximal(
    index: CorpusIndex,
    passage_ids: Sequence[str],
    query: str,
    gateway: LLMGateway,
    memory: Sequence[ProximalTriple] | None = None,
    cap: int | None = 10,
) -> list[ProximalTriple]:
    """Ask the LLM to summarise the passages into supporting fact triples.

    With a memory the read is conditioned on the accumulated facts; an empty
    or fact-free completion yields an empty list.
    """
    template, variables = reader_variables(index, passage_ids, query, memory, cap)
    return parse_facts(gateway.complete(template, variables))


def triple_link(
    index: CorpusIndex,
    proximals: Sequence[ProximalTriple],
    config: RetrievalConfig,
) -> list[str | None]:
    """Ground each proximal triple to its most similar indexed triple.

    Returns one triple id, or None where nothing matches, per proximal triple
    in order, from one ``base_retrieve`` call over the whole batch. Each link
    is the top of a ranking made at ``config.k``, so a hybrid link fuses lists
    of that depth, not two one-item lists.
    """
    queries = [serialize_triple(proximal) for proximal in proximals]
    results = base_retrieve(index, queries, TRIPLES, config)
    return [result.entries[0][0] if result.entries else None for result in results]


def locate_initial_nodes(
    index: CorpusIndex,
    proximals: Sequence[ProximalTriple],
    config: RetrievalConfig,
) -> list[str]:
    """Link every proximal triple in one ``triple_link`` call; drop failures,
    dedupe keeping first occurrence."""
    linked = dict.fromkeys(triple_link(index, proximals, config))
    return [tid for tid in linked if tid is not None]
