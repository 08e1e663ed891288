"""Diverse beam search over the triple graph and the graph-expanded retrievers.

Beams are scored sequences of triples connected by shared entities. Candidate
extensions within each beam are down-weighted by their sorted position, which
pushes the surviving beams apart and lets one query follow several reasoning
chains at once. Flattened beams map back to source passages, which are fused
with the base retrieval list by reciprocal rank fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .base_retrieval import (
    RankedList,
    RetrievalConfig,
    base_retrieve,
    hash_dim,
    rrf_fuse,
    trigram_counts,
    unit_vector,
)
from .corpus_index import (
    PASSAGES,
    CorpusIndex,
    get_neighbours,
    serialize_sequence,
    triples_to_passages,
)
from .llm_gateway import LLMGateway, ProximalTriple
from .sync import locate_initial_nodes, read_proximal

Scorer = Callable[[str, tuple[str, ...]], float]


@dataclass(frozen=True)
class Beam:
    """A scored sequence of triple ids; consecutive triples are neighbours."""

    score: float
    sequence: tuple[str, ...]


@dataclass(frozen=True)
class ExpansionConfig:
    beam_width: int = 10
    max_length: int = 2
    neighbour_cap: int = 100
    gamma: float = 20.0
    keep_stranded_beams: bool = False

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.neighbour_cap < 1:
            raise ValueError("neighbour_cap must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")


def diversity_weight(position: int, gamma: float) -> float:
    """Position-based down-weighting factor e^(-min(position, gamma)/gamma).

    1.0 at position 0, decaying to a floor of e^(-1) for positions >= gamma.
    """
    return math.exp(-min(position, gamma) / gamma)


def score_sequence(index: CorpusIndex, query: str, sequence: Sequence[str]) -> float:
    """Cosine similarity between the query and the serialized triple sequence."""
    return make_cosine_scorer(index)(query, tuple(sequence))


def make_cosine_scorer(index: CorpusIndex) -> Scorer:
    """Default sequence scorer: cosine of the query and the serialized sequence.

    Embeddings are cached within one search. When the index embeds with the
    hash embedder (``hash_dim`` finds its name ``hash:<dim>``), no candidate
    is serialized or embedded. ``serialize_sequence`` joins triples with
    ``"; "``, and lower-casing never carries context across ``";"``, so the
    lower-cased text of ``a; b`` is ``low(a) + "; " + low(b)`` and its
    trigram counts are

        counts(a) + counts(low(a)[-2:] + "; " + low(b)[:2]) + counts(b),

    the middle term being the trigrams that touch the separator. The slices
    are taken after lower-casing, because ``'İ'.lower()`` is two characters.
    Counts are integer-valued float64, so the sum is exact; counts of each
    triple, beam prefix and boundary window are kept for the whole search. The
    sum then goes through ``hash_embed``'s normalisation, this scorer's own
    and the same dot product, so scores are bit-identical to embedding the
    serialized text. Any other embedder is called on the serialized text.
    """
    cache: dict[str, np.ndarray] = {}

    def embed_unit(text: str) -> np.ndarray:
        vec = cache.get(text)
        if vec is None:
            vec = cache[text] = unit_vector(np.asarray(index.embedder(text), dtype=np.float64))
        return vec

    dim = hash_dim(index.embedder)
    if dim is None:

        def scorer(query: str, sequence: tuple[str, ...]) -> float:
            return float(embed_unit(query) @ embed_unit(serialize_sequence(index, sequence)))

        return scorer

    # tid -> (counts, lower-cased text); sequence -> (counts, its last two
    # lower-cased characters), for sequences that are prefixes of candidates.
    triples: dict[str, tuple[np.ndarray, str]] = {}
    prefixes: dict[tuple[str, ...], tuple[np.ndarray, str]] = {}
    boundaries: dict[str, np.ndarray] = {}

    def triple_counts(tid: str) -> tuple[np.ndarray, str]:
        entry = triples.get(tid)
        if entry is None:
            low = serialize_sequence(index, (tid,)).lower()
            entry = triples[tid] = (trigram_counts(low, dim), low)
        return entry

    def sequence_counts(sequence: tuple[str, ...]) -> tuple[np.ndarray, str]:
        counts, low = triple_counts(sequence[-1])
        if len(sequence) == 1:
            return counts, low[-2:]
        prefix = sequence[:-1]
        entry = prefixes.get(prefix)
        if entry is None:
            entry = prefixes[prefix] = sequence_counts(prefix)
        prefix_counts, tail = entry
        window = tail + "; " + low[:2]
        boundary = boundaries.get(window)
        if boundary is None:
            boundary = boundaries[window] = trigram_counts(window, dim)
        return prefix_counts + boundary + counts, (tail + "; " + low)[-2:]

    def scorer(query: str, sequence: tuple[str, ...]) -> float:
        counts, _ = sequence_counts(sequence)
        return float(embed_unit(query) @ unit_vector(unit_vector(counts)))

    return scorer


def diverse_beam_search(
    index: CorpusIndex,
    query: str,
    initial_ids: Sequence[str],
    cfg: ExpansionConfig,
    scorer: Scorer | None = None,
    trace: dict | None = None,
) -> list[Beam]:
    """Beam search over triple sequences with per-beam diversity reweighting.

    Each step extends every surviving beam with neighbours of its last triple,
    skipping triples already present in any surviving sequence. Candidates are
    sorted per beam, truncated to the neighbour cap, then down-weighted by
    sorted position before the global top-b cut. Beams with no extensions drop
    out unless ``keep_stranded_beams`` is set. If a step yields no candidates
    at all, the previous step's beams are returned and the trace is flagged.
    """
    if trace is not None:
        trace["stopped_early_at"] = None
    if not initial_ids:
        return []
    score = scorer or make_cosine_scorer(index)

    beams = [(score(query, (tid,)), (tid,)) for tid in initial_ids]
    beams.sort(key=lambda entry: (-entry[0], entry[1]))
    del beams[cfg.beam_width:]

    for step in range(1, cfg.max_length):
        visited = {tid for _, seq in beams for tid in seq}
        pool: list[tuple[float, tuple[str, ...]]] = []
        for accumulated, seq in beams:
            candidates = []
            for tid in sorted(get_neighbours(index, seq[-1])):
                if tid in visited:
                    continue
                extended = seq + (tid,)
                candidates.append((accumulated + score(query, extended), extended))
            candidates.sort(key=lambda entry: (-entry[0], entry[1]))
            del candidates[cfg.neighbour_cap:]
            for position, (weighted, extended) in enumerate(candidates):
                pool.append(
                    (weighted * diversity_weight(position, cfg.gamma), extended)
                )
            if not candidates and cfg.keep_stranded_beams:
                pool.append((accumulated, seq))
        if not pool:
            if trace is not None:
                trace["stopped_early_at"] = step
            break
        pool.sort(key=lambda entry: (-entry[0], entry[1]))
        beams = pool[: cfg.beam_width]

    return [Beam(score_value, seq) for score_value, seq in beams]


def flatten_beams(beams: Sequence[Beam]) -> list[str]:
    """Breadth-first flattening: first elements of all beams, then second, ...

    Duplicates keep their first occurrence.
    """
    seen: set[str] = set()
    out: list[str] = []
    longest = max((len(b.sequence) for b in beams), default=0)
    for position in range(longest):
        for beam in beams:
            if position >= len(beam.sequence):
                continue
            tid = beam.sequence[position]
            if tid not in seen:
                seen.add(tid)
                out.append(tid)
    return out


@dataclass(frozen=True)
class GraphRetrievalDetail:
    """Everything a graph-expanded retrieval produced, for traces and tests."""

    base: RankedList
    proximals: tuple[ProximalTriple, ...]
    initial_nodes: tuple[str, ...]
    beams: tuple[Beam, ...]
    fused: RankedList
    expansion_stopped_at: int | None


def _expand_and_fuse(
    index: CorpusIndex,
    query: str,
    base: RankedList,
    initial_nodes: Sequence[str],
    proximals: Sequence[ProximalTriple],
    retrieval: RetrievalConfig,
    expansion: ExpansionConfig,
    scorer: Scorer | None,
) -> GraphRetrievalDetail:
    trace: dict = {}
    beams = diverse_beam_search(index, query, initial_nodes, expansion, scorer, trace)
    passage_ids = triples_to_passages(index, flatten_beams(beams))
    expanded = RankedList(
        tuple((pid, 1.0 / (rank + 1)) for rank, pid in enumerate(passage_ids)),
        provenance="graph-expansion",
    )
    fused = rrf_fuse([expanded, base], retrieval.rrf_constant).truncated(retrieval.k)
    return GraphRetrievalDetail(
        base=base,
        proximals=tuple(proximals),
        initial_nodes=tuple(initial_nodes),
        beams=tuple(beams),
        fused=fused,
        expansion_stopped_at=trace["stopped_early_at"],
    )


def sync_ge_detail(
    index: CorpusIndex,
    query: str,
    retrieval: RetrievalConfig,
    expansion: ExpansionConfig,
    gateway: LLMGateway,
    memory: Sequence[ProximalTriple] | None = None,
    chunk_cap: int = 10,
    scorer: Scorer | None = None,
) -> GraphRetrievalDetail:
    """Graph-expanded retrieval with LLM-located starting nodes (full detail)."""
    base = base_retrieve(index, query, PASSAGES, retrieval)
    proximals = read_proximal(index, base, query, gateway, memory=memory, cap=chunk_cap)
    initial_nodes = locate_initial_nodes(index, proximals, retrieval)
    return _expand_and_fuse(
        index, query, base, initial_nodes, proximals, retrieval, expansion, scorer
    )


def sync_ge_retrieve(
    index: CorpusIndex,
    query: str,
    retrieval: RetrievalConfig,
    expansion: ExpansionConfig,
    gateway: LLMGateway,
    memory: Sequence[ProximalTriple] | None = None,
    chunk_cap: int = 10,
    scorer: Scorer | None = None,
) -> RankedList:
    """Base retrieval + LLM-located nodes + beam expansion + rank fusion."""
    return sync_ge_detail(
        index, query, retrieval, expansion, gateway, memory, chunk_cap, scorer
    ).fused


def naive_ge_detail(
    index: CorpusIndex,
    query: str,
    retrieval: RetrievalConfig,
    expansion: ExpansionConfig,
    scorer: Scorer | None = None,
) -> GraphRetrievalDetail:
    """Graph expansion seeded with every triple of the base-retrieved passages."""
    base = base_retrieve(index, query, PASSAGES, retrieval)
    initial_nodes: list[str] = []
    for pid in base.ids:
        initial_nodes.extend(index.passage_triples(pid))
    return _expand_and_fuse(
        index, query, base, initial_nodes, (), retrieval, expansion, scorer
    )


def naive_ge_retrieve(
    index: CorpusIndex,
    query: str,
    retrieval: RetrievalConfig,
    expansion: ExpansionConfig,
    scorer: Scorer | None = None,
) -> RankedList:
    """Like sync_ge_retrieve but with no LLM: all aligned triples seed the search."""
    return naive_ge_detail(index, query, retrieval, expansion, scorer).fused
