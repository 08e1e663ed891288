"""Independent computations the benchmark checks the program's outputs against.

Each function here recomputes a result from the generator's own records and
the documented formulas, without calling triplehop's retrieval, graph or
agent code, and returns a list of failure messages (empty when the program
agrees). The benchmark runs them outside the timed rounds, on a sample of
the questions, and counts each failure as a failed operation.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter, defaultdict

import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+")
TOL = 1e-9


def tokens(text: str) -> list[str]:
    """Lower-cased runs of letters and digits, as the index documents them."""
    return _TOKEN_RE.findall(text.lower())


def entity_key(text: str) -> str:
    """NFC, lower case, whitespace collapsed: the documented entity identity."""
    return " ".join(unicodedata.normalize("NFC", text).lower().split())


def compare_rankings(label: str, got, want, k: int) -> list[str]:
    """Compare (id, score) lists; items whose scores tie within TOL may swap.

    ``want`` may run past ``k`` so that a tie straddling the cut is allowed.
    """
    if len(got) != min(k, len(want)):
        return [f"{label}: {len(got)} results, expected {min(k, len(want))}"]
    for pos, (item, score) in enumerate(got):
        want_item, want_score = want[pos]
        if abs(score - want_score) > TOL * max(1.0, abs(want_score)):
            return [f"{label}: rank {pos + 1} scores {score!r}, expected {want_score!r}"]
        if item != want_item and not any(
            other == item and abs(s - want_score) <= TOL * max(1.0, abs(want_score))
            for other, s in want
        ):
            return [f"{label}: rank {pos + 1} is {item}, expected {want_item}"]
    return []


def follow_ties(want, got):
    """``want`` with each run of scores tied within TOL put in ``got``'s order.

    Hashed embeddings give different items mathematically equal cosines, and
    rounding then orders them differently here and in the program; either
    order is a correct ranking, and fusion must see the program's.
    """
    pos = {item: i for i, (item, _) in enumerate(got)}
    out: list = []
    group: list = []
    for entry in [*want, None]:
        if entry is None or (
            group and abs(entry[1] - group[0][1]) > TOL * max(1.0, abs(group[0][1]))
        ):
            out.extend(sorted(group, key=lambda e: pos.get(e[0], len(pos))))
            group = []
        if entry is not None:
            group.append(entry)
    return out


def compare_beams(label: str, got, want) -> list[str]:
    """Compare (score, sequence) beams: same sequences in order, same scores."""
    if [seq for _, seq in got] != [seq for _, seq in want]:
        return [f"{label}: beams {[s for _, s in got]}, expected {[s for _, s in want]}"]
    for (score, seq), (want_score, _) in zip(got, want):
        if abs(score - want_score) > TOL * max(1.0, abs(want_score)):
            return [f"{label}: beam {seq} scores {score!r}, expected {want_score!r}"]
    return []


def rrf(lists, k: int, constant: int = 60) -> list[tuple[str, float]]:
    """Reciprocal rank fusion: sum of 1/(constant + rank), ties by id."""
    fused: dict[str, float] = {}
    for ranked in lists:
        for rank, (item, _) in enumerate(ranked, start=1):
            fused[item] = fused.get(item, 0.0) + 1.0 / (constant + rank)
    return sorted(fused.items(), key=lambda e: (-e[1], e[0]))[:k]


class Bm25:
    """Okapi BM25, recomputed in plain Python from its documented formula.

    score(d) = sum over query tokens t of
    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl)),
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)); zero scores are dropped
    and ties break by ascending id.
    """

    def __init__(self, texts: dict[str, str], k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.ids = sorted(texts)
        self.tf = [Counter(tokens(texts[i])) for i in self.ids]
        self.length = [sum(c.values()) for c in self.tf]
        self.avg = sum(self.length) / len(self.ids)
        self.postings: dict[str, list[int]] = defaultdict(list)
        for pos, counts in enumerate(self.tf):
            for term in counts:
                self.postings[term].append(pos)

    def search(self, query: str, k: int) -> list[tuple[str, float]]:
        n = len(self.ids)
        scores: dict[int, float] = defaultdict(float)
        for term in tokens(query):
            docs = self.postings.get(term)
            if not docs:
                continue
            idf = math.log(1.0 + (n - len(docs) + 0.5) / (len(docs) + 0.5))
            for pos in docs:
                tf = self.tf[pos][term]
                norm = 1.0 - self.b + self.b * self.length[pos] / self.avg
                scores[pos] += idf * (tf * (self.k1 + 1.0)) / (tf + self.k1 * norm)
        ranked = sorted(
            ((self.ids[pos], s) for pos, s in scores.items() if s > 0.0),
            key=lambda e: (-e[1], e[0]),
        )
        return ranked[:k]


def unit(vector) -> np.ndarray:
    vec = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0 else vec


class Cosine:
    """Brute-force cosine ranking over vectors taken fresh from the embedder."""

    def __init__(self, texts: dict[str, str], embedder):
        self.embedder = embedder
        self.ids = sorted(texts)
        self.matrix = np.vstack([unit(embedder(texts[i])) for i in self.ids])

    def search(self, query: str, k: int) -> list[tuple[str, float]]:
        scores = self.matrix @ unit(self.embedder(query))
        ranked = sorted(zip(self.ids, map(float, scores)), key=lambda e: (-e[1], e[0]))
        return ranked[:k]


class Graph:
    """The generator's triples, joined by shared normalised entities."""

    def __init__(self, facts):
        self.facts = {f.id: f for f in facts}
        self.by_entity: dict[str, set[str]] = defaultdict(set)
        self.by_passage: dict[str, list[str]] = defaultdict(list)
        for f in facts:
            self.by_entity[entity_key(f.subject)].add(f.id)
            self.by_entity[entity_key(f.object)].add(f.id)
            self.by_passage[f.passage_id].append(f.id)

    def entities(self, fact_id: str) -> set[str]:
        f = self.facts[fact_id]
        return {entity_key(f.subject), entity_key(f.object)}

    def neighbours(self, fact_id: str) -> set[str]:
        out = set().union(*(self.by_entity[e] for e in self.entities(fact_id)))
        out.discard(fact_id)
        return out

    def text(self, seq) -> str:
        return "; ".join(
            f"{self.facts[t].subject} {self.facts[t].predicate} {self.facts[t].object}"
            for t in seq
        )


def cosine_scorer(graph: Graph, embedder):
    """Query-to-sequence cosine over fresh embeddings, as the README documents it."""
    cache: dict[str, np.ndarray] = {}

    def vec(text: str) -> np.ndarray:
        if text not in cache:
            cache[text] = unit(embedder(text))
        return cache[text]

    return lambda query, seq: float(vec(query) @ vec(graph.text(seq)))


def beam_search(query, initial, graph: Graph, cfg, score) -> list[tuple[float, tuple]]:
    """Enumerate every extension of every beam and replay the selection rules."""
    key = lambda e: (-e[0], e[1])  # noqa: E731
    level = sorted(((score(query, (t,)), (t,)) for t in initial), key=key)[: cfg.beam_width]
    for _ in range(1, cfg.max_length):
        used = {t for _, seq in level for t in seq}
        pool = []
        for total, seq in level:
            grown = sorted(
                (
                    (total + score(query, seq + (t,)), seq + (t,))
                    for t in graph.neighbours(seq[-1])
                    if t not in used
                ),
                key=key,
            )[: cfg.neighbour_cap]
            for pos, (s, longer) in enumerate(grown):
                pool.append((s * math.exp(-min(pos, cfg.gamma) / cfg.gamma), longer))
            if not grown and cfg.keep_stranded_beams:
                pool.append((total, seq))
        if not pool:
            break
        level = sorted(pool, key=key)[: cfg.beam_width]
    return level


def beam_properties(beams, graph: Graph, cfg) -> list[str]:
    """Each beam is a path of distinct triples joined by shared entities."""
    errors = []
    if len(beams) > cfg.beam_width:
        errors.append(f"{len(beams)} beams, beam_width is {cfg.beam_width}")
    for seq in beams:
        if not 1 <= len(seq) <= cfg.max_length:
            errors.append(f"beam {seq} has {len(seq)} triples, max_length is {cfg.max_length}")
        if len(set(seq)) != len(seq):
            errors.append(f"beam {seq} repeats a triple")
        for a, b in zip(seq, seq[1:]):
            if not graph.entities(a) & graph.entities(b):
                errors.append(f"beam {seq}: {a} and {b} share no entity")
    return errors


def flatten(beams) -> list[str]:
    """Breadth-first: every beam's first triple, then every second, ..."""
    out: list[str] = []
    for pos in range(max((len(s) for s in beams), default=0)):
        for seq in beams:
            if pos < len(seq) and seq[pos] not in out:
                out.append(seq[pos])
    return out
