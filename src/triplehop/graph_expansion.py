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
from itertools import chain, compress, islice, repeat
from operator import itemgetter, le
from typing import Callable, Sequence

import numpy as np

from .base_retrieval import (
    RankedList,
    RetrievalError,
    RetrievalConfig,
    base_retrieve,
    hash_dim,
    rrf_fuse,
    unit_vector,
)
from .corpus_index import (
    PASSAGES,
    CorpusIndex,
    Memo,
    embed_texts,
    get_neighbours,
    serialize_sequence,
    triples_to_passages,
)
from .llm_gateway import LLMGateway, ProximalTriple, check_settings
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
        check_settings(ExpansionConfig, vars(self))
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma!r}")


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
    row and its head's and tail's codes come from the index's
    ``triple_ends`` memo. Both memos are ``Memo``s: threads that miss on one
    entry may each compute it, and all get the value stored first, so
    scorers on several threads share them with no lock. A search keeps each
    beam prefix's counts plus its last triple's tail. A call first makes its
    index arrays in one pass: each sequence's last-triple row and head codes
    (one ``np.fromiter`` over their ``triple_ends`` entries) and its
    prefix's number (one dict pass). Then each block of 128 rows
    is array work only: gather the rows and prefix vectors, add the heads,
    normalise with one ``einsum`` and one division. Counts are integers, so
    every sum and squared norm is exact and each unit row has the bits of the
    serialized text's unit vector. The final dot product stays one 1-D dot
    per row: a matrix-vector product sums in another order, changes last
    bits and so reorders exact ties. Every score is therefore bit-identical
    to embedding the serialized text. Any other embedder embeds the
    serialized texts: one ``embed_texts`` call per batch for the query and
    the texts this scorer has not embedded yet.
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

        # prefix -> its counts plus its last triple's tail, zero for ().
        def prefix_vector(prefix: tuple[str, ...]) -> np.ndarray:
            row, *codes = ends[prefix[-1]]  # two head codes, then two tail codes
            counts = prefix_vectors[prefix[:-1]] + rows[row]
            for code in codes if len(prefix) > 1 else codes[2:]:
                counts[code >> 1] += code % 2 * 2.0 - 1.0
            return counts

        prefix_vectors = Memo(prefix_vector)
        prefix_vectors[()] = np.zeros(dim)

        def scorer(query: str, sequences: Sequence[tuple[str, ...]]) -> list[float]:
            embed_units([query])
            unit_query = cache[query]
            # The index pass: last triples' (row, head codes, tail codes), and
            # prefix numbers.
            last = chain.from_iterable(map(ends.__getitem__, map(itemgetter(-1), sequences)))
            table = np.fromiter(last, np.intp, 5 * len(sequences)).reshape(-1, 5)
            keys: Memo = Memo(lambda _: len(keys))  # numbered by first appearance
            prefixes = map(itemgetter(slice(None, -1)), sequences)
            picks = np.fromiter(map(keys.__getitem__, prefixes), np.intp, len(sequences))
            prefix_table = np.array([prefix_vectors[key] for key in keys])
            with_heads = keys.keys() != {()}  # one-triple sequences have no head
            if with_heads:
                buckets, signs = table[:, 1:3] >> 1, table[:, 1:3] % 2 * 2.0 - 1.0
                if () in keys:  # one-triple sequences add +0.0
                    signs[picks == keys[()]] = 0.0
            scores: list[float] = []
            for lo in range(0, len(sequences), _BLOCK_ROWS):
                block = slice(lo, lo + _BLOCK_ROWS)
                counts = rows[table[block, 0]].astype(np.float64)
                counts += prefix_table[picks[block]]
                if with_heads:
                    # Two +=, at flat positions: at a small dim a head's two
                    # trigrams can share a bucket, which one += adds once.
                    lines = np.arange(0, counts.size, dim)
                    counts.ravel()[buckets[block, 0] + lines] += signs[block, 0]
                    counts.ravel()[buckets[block, 1] + lines] += signs[block, 1]
                norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
                counts /= np.where(norms > 0, norms, 1.0)[:, None]
                # One 1-D dot per row, as ``unit_query @ row``: matmul over a
                # stack of (1, dim) @ (dim, 1) pairs calls the same dot kernel
                # per pair, while ``counts @ unit_query`` sums in another order.
                scores += np.matmul(counts[:, None, :], unit_query[:, None]).ravel().tolist()
            return scores

    return scorer


def _checked(query: str, sequences: Sequence[tuple[str, ...]], scores: list[float]) -> list[float]:
    """``scores``, unless one is NaN: then ``RetrievalError`` names the first."""
    if math.isnan(sum(scores)):  # or +inf met -inf, with no NaN
        for sequence in compress(sequences, map(math.isnan, scores)):
            raise RetrievalError(f"beam score of {sequence} is NaN for query {query!r}")
    return scores


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
    skipping triples already present in any surviving sequence. A beam's
    candidates are put in order by one stable sort of their float totals,
    truncated to the neighbour cap, then down-weighted by position. The top-b
    cut sorts bare floats for the b-th score, and only the entries at or
    above it by (-score, sequence). Beams with no extensions drop out unless
    ``keep_stranded_beams`` is set. If a step yields no candidates at all,
    the previous step's beams are returned and the trace is flagged. A NaN
    score or total raises ``RetrievalError``.

    The scorer (``make_cosine_scorer``'s by default) is called once for the
    initial triples, as given, and once per step with the extensions of all
    beams: beam by beam, each beam's neighbours in ascending id order.
    """
    if trace is not None:
        trace["stopped_early_at"] = None
    if not initial_ids:
        return []
    score = scorer or make_cosine_scorer(index)
    # One weight per position the cap keeps (a beam has fewer neighbours than
    # the index has triples); from ceil(gamma) on, each is the floor e^(-1).
    size = min(cfg.neighbour_cap, len(index.triples))
    weights = [diversity_weight(p, cfg.gamma) for p in range(min(size, math.ceil(cfg.gamma) + 1))]
    weights += weights[-1:] * (size - len(weights))

    starts = [(tid,) for tid in initial_ids]
    pool = list(zip(_checked(query, starts, score(query, starts)), starts))
    for step in range(1, cfg.max_length + 1):
        # The top-b cut: only entries at or above the b-th highest bare
        # float can be among the best b by (-score, sequence).
        floor = sorted(map(itemgetter(0), pool), reverse=True)[min(cfg.beam_width, len(pool)) - 1]
        kept = compress(pool, map(le, repeat(floor), map(itemgetter(0), pool)))
        beams = sorted(kept, key=lambda entry: (-entry[0], entry[1]))[: cfg.beam_width]
        if step == cfg.max_length:
            break
        visited = {tid for _, seq in beams for tid in seq}
        extensions = [
            [seq + (tid,) for tid in get_neighbours(index, seq[-1]) if tid not in visited]
            for _, seq in beams
        ]
        scores = iter(score(query, [ext for exts in extensions for ext in exts]))
        pool = []
        for (accumulated, seq), extended in zip(beams, extensions):
            totals = [accumulated + value for value in islice(scores, len(extended))]
            _checked(query, extended, totals)
            # Best first: a stable sort keeps equal totals in neighbour
            # order, which is ascending sequence order. ``zip`` cuts at the cap.
            order = sorted(range(len(totals)), key=totals.__getitem__, reverse=True)
            pool += [(totals[i] * weight, extended[i]) for i, weight in zip(order, weights)]
            if not extended and cfg.keep_stranded_beams:
                pool.append((accumulated, seq))
        if not pool:
            if trace is not None:
                trace["stopped_early_at"] = step
            break

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
    # Distinct passages, each scored below the one before.
    expanded = RankedList._unchecked(
        tuple((pid, 1.0 / (rank + 1)) for rank, pid in enumerate(passage_ids)),
        "graph-expansion",
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
