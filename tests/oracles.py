"""Independent reference implementations used to check the real ones.

The beam-search oracle re-derives the triple graph by brute-force pairwise
entity comparison and enumerates candidate sequences level by level, replaying
the same scoring and diversity arithmetic; it shares no code with the package
implementation. The dense oracle recomputes cosine ranking with plain python
sorting over independently computed embeddings, optionally in exact
rationals. The BM25 oracle is the
scalar per-posting loop over dict postings that the columnar scorer replaced,
with its own tokenizer and statistics. The postings oracle is the CSR build
the single-sort one replaced: a ``Counter`` per text, Python lists, then a
stable sort by row. The hash-embedding and
sequence-scorer oracles are the straightforward forms the package replaced
with memoised and incremental ones: hash every trigram, and serialize every
candidate before embedding it. The RRF oracle fuses plain id lists.
"""

from __future__ import annotations

import hashlib
import math
import re
import unicodedata
from collections import Counter
from fractions import Fraction

import numpy as np


def brute_force_adjacency(triples: dict) -> dict[str, set[str]]:
    """O(n^2) neighbour derivation straight from the raw triple fields."""

    def norm(text: str) -> str:
        return " ".join(unicodedata.normalize("NFC", text).lower().split())

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


def oracle_cosine_ranking(query_vector, item_vectors: dict, k: int, exact: bool = False):
    """Brute-force cosine ranking: plain dot products and python sorting.

    With ``exact`` items are ordered by the signed squared cosine
    dot·|dot| / (‖d‖²·‖q‖²) in exact rationals of the vectors' float values
    (for hashed counts, of integers), then by id: mathematically equal
    cosines tie exactly.
    """
    norm = math.sqrt(sum(x * x for x in query_vector))
    scored = []
    for item_id, vector in item_vectors.items():
        dot = sum(a * b for a, b in zip(query_vector, vector))
        vnorm = math.sqrt(sum(x * x for x in vector))
        cosine = dot / (norm * vnorm) if norm > 0 and vnorm > 0 else 0.0
        key = cosine
        if exact:
            q, v = _rationals(query_vector), _rationals(vector)
            idot = sum(a * b for a, b in zip(q, v))
            denom = sum(x * x for x in q) * sum(x * x for x in v)
            key = idot * abs(idot) / denom if denom else Fraction(0)
        scored.append((key, item_id, cosine))
    scored.sort(key=lambda entry: (-entry[0], entry[1]))
    return [(item_id, cosine) for _, item_id, cosine in scored[:k]]


def _rationals(vector) -> list[Fraction]:
    return [Fraction(float(x)) for x in vector]


def oracle_hash_embed(text: str, dim: int) -> np.ndarray:
    """Feature hashing with one blake2b digest per trigram occurrence, of its
    UTF-8 bytes (lone surrogates by ``surrogatepass``): the signed bucket
    counts, not normalised."""
    vec = np.zeros(dim, dtype=np.float64)
    low = text.lower()
    for i in range(len(low) - 2):
        data = low[i : i + 3].encode("utf-8", "surrogatepass")
        digest = hashlib.blake2b(data, digest_size=8).digest()
        bucket = int.from_bytes(digest[:4], "little") % dim
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[bucket] += sign
    return vec


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


def _tokens(text: str) -> list[str]:
    return re.findall(r"[^\W_]+", text.lower())


def oracle_postings(texts: list[str]) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """The CSR postings of ``texts``: term -> row with the terms ascending,
    and the arrays ``doc_lengths``, ``indptr``, ``doc_positions`` and
    ``term_freqs`` (see ``LexicalView``), each in the first of uint8, uint16,
    uint32 and uint64 that holds its values."""
    lengths = np.zeros(len(texts), dtype=np.int64)
    terms: list[str] = []
    positions: list[int] = []
    freqs: list[int] = []
    for pos, text in enumerate(texts):
        tokens = _tokens(text)
        lengths[pos] = len(tokens)
        counts = Counter(tokens)
        terms.extend(counts)
        freqs.extend(counts.values())
        positions.extend([pos] * len(counts))
    vocab = sorted(set(terms))
    row_of = {term: row for row, term in enumerate(vocab)}
    rows = np.array([row_of[term] for term in terms], dtype=np.int64)
    # A stable sort by row keeps each row's positions ascending.
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(len(vocab) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=len(vocab)))
    arrays = {
        "doc_lengths": lengths,
        "indptr": indptr,
        "doc_positions": np.asarray(positions, dtype=np.int64)[order],
        "term_freqs": np.asarray(freqs, dtype=np.int64)[order],
    }
    return row_of, {key: _smallest_unsigned(values) for key, values in arrays.items()}


def _smallest_unsigned(values: np.ndarray) -> np.ndarray:
    top = int(values.max()) if values.size else 0
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if top <= np.iinfo(t).max)
    return values.astype(dtype)


def oracle_bm25(docs: dict[str, str], query: str, k: int, k1: float, b: float):
    """Okapi BM25 (idf ln(1 + (N - df + 0.5)/(df + 0.5))) one posting at a
    time over dict postings built here from ``docs`` (id -> search text);
    zero scores are dropped, ties break by ascending id."""
    ids = sorted(docs)
    lengths: list[int] = []
    doc_freq: dict[str, int] = {}
    postings: dict[str, list[tuple[int, int]]] = {}
    for pos, item_id in enumerate(ids):
        words = _tokens(docs[item_id])
        lengths.append(len(words))
        for term, tf in sorted(Counter(words).items()):
            doc_freq[term] = doc_freq.get(term, 0) + 1
            postings.setdefault(term, []).append((pos, tf))
    n_docs = len(ids)
    avg = (sum(lengths) / n_docs if n_docs else 0.0) or 1.0
    scores = [0.0] * n_docs
    for term in _tokens(query):
        df = doc_freq.get(term)
        if not df:
            continue
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for pos, tf in postings[term]:
            dl = float(lengths[pos])
            denom = tf + k1 * (1.0 - b + b * dl / avg)
            scores[pos] += idf * (tf * (k1 + 1.0)) / denom
    ranked = sorted(
        ((ids[pos], score) for pos, score in enumerate(scores) if score > 0.0),
        key=lambda entry: (-entry[1], entry[0]),
    )
    return ranked[:k]


def oracle_rrf(rankings, rrf_constant: int) -> list[tuple[str, float]]:
    """Reciprocal rank fusion of id lists: an id scores the sum, list by list
    in the order given, of 1 / (rrf_constant + its 1-based rank); highest
    first, ties by ascending id."""
    fused: dict[str, float] = {}
    for ranking in rankings:
        for position, item_id in enumerate(ranking):
            fused[item_id] = fused.get(item_id, 0.0) + 1.0 / (rrf_constant + position + 1)
    return sorted(fused.items(), key=lambda entry: (-entry[1], entry[0]))
