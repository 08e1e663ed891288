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
    trigram_codes,
    unit_vector,
)
from .corpus_index import (
    PASSAGES,
    CorpusIndex,
    embed_texts,
    get_neighbours,
    serialize_sequence,
    triples_to_passages,
)
from .llm_gateway import LLMGateway, ProximalTriple
from .sync import locate_initial_nodes, read_proximal

Scorer = Callable[[str, Sequence[tuple[str, ...]]], list[float]]

# Sequences the hash scorer works on at once, so its working arrays stay
# 128 x dim floats (256 KB at dim 256) however many candidates a step has.
_BLOCK_ROWS = 128


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


def make_cosine_scorer(index: CorpusIndex) -> Scorer:
    """Default scorer: ``scorer(query, sequences)`` is the cosine of the query
    and each serialized sequence, one float per sequence.

    ``diverse_beam_search`` calls it once per step with every extension of
    every beam. Make one scorer per search: it caches the query's unit vector
    and the counts below.

    With the hash embedder (``hash_dim`` finds its name ``hash:<dim>``) no
    candidate text is hashed. ``serialize_sequence`` joins triples with
    ``"; "``, and lower-casing never carries context across ``";"``, so with A
    and B the lower-cased texts of triples a and b, the counts of ``a; b`` are

        counts(a) + tail(a) + head(b) + counts(b),

    tail(a) being the trigrams ``A[-2:] + ";"`` and ``A[-1] + "; "``, head(b)
    ``"; " + B[0]`` and ``" " + B[:2]``, each a code of the shared trigram
    memo (``trigram_codes``). That needs A and B of at least 2 characters;
    each is at least 5 (three non-blank fields joined by spaces), and is
    sliced after lower-casing, because ``'İ'.lower()`` is two characters. A
    triple's counts are its (``int8``) row of ``index.triple_rows``; its
    row and ends come from the index's ``triple_ends`` memo. Both memos are
    ``Memo``s: threads that miss on one entry may each compute it, and all
    get the value stored first, so scorers on several threads share them
    with no lock. A search keeps each beam prefix's counts plus its last
    triple's tail, and each distinct head's codes. A batch, 128 sequences at
    a time, gathers its prefix vectors by an index array, adds the last
    triples' rows and heads, and normalises all rows with one ``einsum`` and
    one division. Counts are integers, so every sum and squared norm is
    exact and each unit row has the bits of the serialized text's unit
    vector. The final dot product stays one 1-D dot per row: a matrix-vector
    product sums in another order, changes last bits and so reorders exact
    ties. Every score is therefore bit-identical to embedding
    the serialized text. Any other embedder embeds the serialized texts: one
    ``embed_texts`` call per batch for the query and the texts this scorer
    has not embedded yet (one ``embed_many`` call, or one call per text for
    a plain callable).
    """
    # text -> its unit vector: the query's, and on the non-hash path every
    # serialized sequence's.
    cache: dict[str, np.ndarray] = {}

    def embed_units(texts: list[str]) -> None:
        missing = [text for text in dict.fromkeys(texts) if text not in cache]
        for text, row in zip(missing, embed_texts(index.embedder, missing)):
            cache[text] = unit_vector(row)

    dim = hash_dim(index.embedder)
    if dim is None:

        def scorer(query: str, sequences: Sequence[tuple[str, ...]]) -> list[float]:
            texts = [serialize_sequence(index, seq) for seq in sequences]
            embed_units([query, *texts])
            unit_query = cache[query]
            return [float(unit_query @ cache[text]) for text in texts]

    else:
        rows = index.triple_rows
        ends = index.triple_ends
        codes = trigram_codes(dim)
        # prefix -> its counts plus its last triple's tail, zero for (); head
        # -> its slot in ``heads``: the (bucket, sign) of "; " + head[0], then
        # of " " + head. Slot 0 adds +0.0, which changes no sum of ±1s.
        prefix_vectors: dict[tuple[str, ...], np.ndarray] = {(): np.zeros(dim)}
        slots: dict[str, int] = {}
        heads: list[tuple[int, float, int, float]] = [(0, 0.0, 0, 0.0)]
        table = [np.array(column) for column in zip(*heads)]

        def signed(trigram: str) -> tuple[int, float]:
            code = codes[trigram]
            return code >> 1, code % 2 * 2.0 - 1.0

        def prefix_vector(prefix: tuple[str, ...]) -> np.ndarray:
            counts = prefix_vectors.get(prefix)
            if counts is None:
                row, head, tail = ends[prefix[-1]]
                counts = prefix_vectors[prefix] = prefix_vector(prefix[:-1]) + rows[row]
                trigrams = [tail + ";", tail[-1] + "; "]
                if len(prefix) > 1:
                    trigrams += ["; " + head[0], " " + head]
                for bucket, sign in map(signed, trigrams):
                    counts[bucket] += sign
            return counts

        def scorer(query: str, sequences: Sequence[tuple[str, ...]]) -> list[float]:
            nonlocal table
            embed_units([query])
            unit_query = cache[query]
            scores: list[float] = []
            for lo in range(0, len(sequences), _BLOCK_ROWS):
                block = sequences[lo : lo + _BLOCK_ROWS]
                last_rows, last_heads, _ = zip(*[ends[seq[-1]] for seq in block])
                keys: dict[tuple[str, ...], int] = {}
                picks = [keys.setdefault(seq[:-1], len(keys)) for seq in block]
                counts = np.stack([prefix_vector(key) for key in keys])[picks]
                counts += rows[list(last_rows)]
                if keys.keys() != {()}:  # one-triple sequences have no head
                    for head in dict.fromkeys(last_heads):
                        if head not in slots:
                            slots[head] = len(heads)
                            heads.append(signed("; " + head[0]) + signed(" " + head))
                    if len(table[0]) < len(heads):
                        table = [np.array(column) for column in zip(*heads)]
                    picked = np.fromiter(map(slots.__getitem__, last_heads), np.intp, len(block))
                    if () in keys:
                        picked[np.array(picks) == keys[()]] = 0
                    one, one_sign, two, two_sign = (column[picked] for column in table)
                    # Two +=, at flat positions: at a small dim a head's two
                    # trigrams can share a bucket, which one += adds once.
                    lines = np.arange(0, counts.size, dim)
                    counts.ravel()[one + lines] += one_sign
                    counts.ravel()[two + lines] += two_sign
                norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
                counts /= np.where(norms > 0, norms, 1.0)[:, None]
                # One 1-D dot per row, as ``unit_query @ row``: matmul over a
                # stack of (1, dim) @ (dim, 1) pairs calls the same dot kernel
                # per pair, while ``counts @ unit_query`` sums in another order.
                scores += np.matmul(counts[:, None, :], unit_query[:, None]).ravel().tolist()
            return scores

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

    The scorer (``make_cosine_scorer``'s by default) is called once for the
    initial triples, as given, and once per step with the extensions of all
    beams: beam by beam, each beam's neighbours in ascending id order.
    """
    if trace is not None:
        trace["stopped_early_at"] = None
    if not initial_ids:
        return []
    score = scorer or make_cosine_scorer(index)
    # Weights to ceil(gamma), where they reach the floor e^(-1), or past the cap.
    size = math.ceil(min(cfg.neighbour_cap, cfg.gamma)) + 1
    weights = [diversity_weight(position, cfg.gamma) for position in range(size)]

    starts = [(tid,) for tid in initial_ids]
    beams = sorted(
        zip(score(query, starts), starts), key=lambda entry: (-entry[0], entry[1])
    )
    del beams[cfg.beam_width:]

    for step in range(1, cfg.max_length):
        visited = {tid for _, seq in beams for tid in seq}
        extensions = [
            [seq + (tid,) for tid in get_neighbours(index, seq[-1]) if tid not in visited]
            for _, seq in beams
        ]
        scores = iter(score(query, [ext for exts in extensions for ext in exts]))
        pool: list[tuple[float, tuple[str, ...]]] = []
        for (accumulated, seq), extended in zip(beams, extensions):
            # Ascending (-score, sequence): best first, ties by sequence.
            candidates = sorted([(-(accumulated + next(scores)), ext) for ext in extended])
            del candidates[cfg.neighbour_cap:]
            for position, (negated, ext) in enumerate(candidates):
                pool.append((-negated * weights[min(position, size - 1)], ext))
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
    longest = max((len(b.sequence) for b in beams), default=0)
    return list(dict.fromkeys(
        beam.sequence[position]
        for position in range(longest)
        for beam in beams
        if position < len(beam.sequence)
    ))


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
) -> GraphRetrievalDetail:
    trace: dict = {}
    beams = diverse_beam_search(index, query, initial_nodes, expansion, trace=trace)
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
    chunk_cap: int = 10,
) -> GraphRetrievalDetail:
    """Base retrieval + LLM-located nodes + beam expansion + rank fusion.

    The proximal read sees no gist memory; the agent makes its own
    memory-conditioned read. ``.fused`` is the final ranking."""
    base = base_retrieve(index, query, PASSAGES, retrieval)
    proximals = read_proximal(index, base.ids, query, gateway, cap=chunk_cap)
    initial_nodes = locate_initial_nodes(index, proximals, retrieval)
    return _expand_and_fuse(index, query, base, initial_nodes, proximals, retrieval, expansion)


def naive_ge_detail(
    index: CorpusIndex,
    query: str,
    retrieval: RetrievalConfig,
    expansion: ExpansionConfig,
) -> GraphRetrievalDetail:
    """Graph expansion seeded with every triple of the base-retrieved passages."""
    base = base_retrieve(index, query, PASSAGES, retrieval)
    initial_nodes: list[str] = []
    for pid in base.ids:
        initial_nodes.extend(index.passage_triples(pid))
    return _expand_and_fuse(index, query, base, initial_nodes, (), retrieval, expansion)


def naive_ge_retrieve(
    index: CorpusIndex,
    query: str,
    retrieval: RetrievalConfig,
    expansion: ExpansionConfig,
) -> RankedList:
    """``naive_ge_detail(...).fused``: the ranking alone, as the README
    quickstart, demo 02 and the benchmark's hub-expand operation take it."""
    return naive_ge_detail(index, query, retrieval, expansion).fused
