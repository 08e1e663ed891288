"""Independent reference implementations used to check the real ones.

The beam-search oracle re-derives the triple graph by brute-force pairwise
entity comparison and enumerates candidate sequences level by level, replaying
the same scoring and diversity arithmetic; it shares no code with the package
implementation. The dense oracle recomputes cosine ranking with plain python
sorting over independently computed embeddings. The hash-embedding and
sequence-scorer oracles are the straightforward forms the package replaced
with memoised and incremental ones: hash every trigram, and serialize every
candidate before embedding it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def brute_force_adjacency(triples: dict) -> dict[str, set[str]]:
    """O(n^2) neighbour derivation straight from the raw triple fields."""

    def norm(text: str) -> str:
        return " ".join(text.lower().split())

    keys = {
        tid: {norm(t.subject), norm(t.object)} for tid, t in triples.items()
    }
    out: dict[str, set[str]] = {tid: set() for tid in triples}
    for a in triples:
        for b in triples:
            if a != b and keys[a] & keys[b]:
                out[a].add(b)
    return out


def oracle_beam_search(query, initial_ids, triples, cfg, score_fn):
    """Enumerate valid sequences and replay the selection arithmetic.

    Returns (score, sequence) pairs in final rank order. ``score_fn`` must be
    the same scoring function handed to the implementation under test; the
    adjacency, enumeration, sorting, capping, and reweighting are all re-done
    here from scratch.
    """
    if not initial_ids:
        return []
    adjacency = brute_force_adjacency(triples)

    level = [(score_fn(query, (tid,)), (tid,)) for tid in initial_ids]
    level = sorted(level, key=lambda entry: (-entry[0], entry[1]))
    level = level[: cfg.beam_width]

    for _ in range(1, cfg.max_length):
        members: set[str] = set()
        for _, seq in level:
            members.update(seq)
        pool = []
        for score, seq in level:
            extensions = []
            for tid in sorted(adjacency[seq[-1]]):
                if tid in members:
                    continue
                extended = seq + (tid,)
                extensions.append((score + score_fn(query, extended), extended))
            extensions.sort(key=lambda entry: (-entry[0], entry[1]))
            extensions = extensions[: cfg.neighbour_cap]
            for position, (total, extended) in enumerate(extensions):
                weight = math.exp(-min(position, cfg.gamma) / cfg.gamma)
                pool.append((total * weight, extended))
            if not extensions and cfg.keep_stranded_beams:
                pool.append((score, seq))
        if not pool:
            break
        pool.sort(key=lambda entry: (-entry[0], entry[1]))
        level = pool[: cfg.beam_width]
    return level


def oracle_cosine_ranking(query_vector, item_vectors: dict, k: int):
    """Brute-force cosine ranking: plain dot products and python sorting."""
    norm = math.sqrt(sum(x * x for x in query_vector))
    scored = []
    for item_id, vector in item_vectors.items():
        dot = sum(a * b for a, b in zip(query_vector, vector))
        vnorm = math.sqrt(sum(x * x for x in vector))
        if norm > 0 and vnorm > 0:
            scored.append((item_id, dot / (norm * vnorm)))
        else:
            scored.append((item_id, 0.0))
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored[:k]


def oracle_hash_embed(text: str, dim: int) -> np.ndarray:
    """Feature hashing with one blake2b digest per trigram occurrence."""
    vec = np.zeros(dim, dtype=np.float64)
    low = text.lower()
    for i in range(len(low) - 2):
        digest = hashlib.blake2b(low[i : i + 3].encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest[:4], "little") % dim
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def oracle_sequence_scorer(triples: dict, embed):
    """Cosine of the query and the whole serialized sequence, embedded anew
    on every call: "s p o; s p o; ..." with each field stripped."""

    def unit(text: str) -> np.ndarray:
        vec = np.asarray(embed(text), dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        return vec / norm if norm > 0 else vec

    def scorer(query: str, sequence: tuple[str, ...]) -> float:
        text = "; ".join(
            " ".join(part.strip() for part in (t.subject, t.predicate, t.object))
            for t in (triples[tid] for tid in sequence)
        )
        return float(unit(query) @ unit(text))

    return scorer
