"""Single-step ranked retrieval over either index view.

Implements the three base retrievers (Okapi BM25, exhaustive dense cosine,
and their reciprocal-rank-fusion hybrid), the generic RRF fuser used all over
the engine, and the deterministic feature-hashing embedder that lets every
test and demo run without a real embedding model.

All ranking is deterministic: ties break by ascending item id.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import requests

from .corpus_index import PASSAGES, CorpusIndex, tokenize


class RetrievalError(RuntimeError):
    """Raised when a retrieval step cannot produce a result (e.g. embedder failure)."""


@dataclass(frozen=True)
class RankedList:
    """An ordered retrieval result: (item_id, score) with non-increasing scores."""

    entries: tuple[tuple[str, float], ...]
    provenance: str = ""

    def __post_init__(self):
        ids = [item_id for item_id, _ in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("ranked list contains duplicate item ids")
        scores = [score for _, score in self.entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("ranked list scores must be non-increasing")

    @property
    def ids(self) -> list[str]:
        return [item_id for item_id, _ in self.entries]

    def truncated(self, k: int) -> "RankedList":
        return RankedList(self.entries[:k], self.provenance)

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "entries": [[item_id, score] for item_id, score in self.entries],
        }


@dataclass(frozen=True)
class RetrievalConfig:
    """Base retriever settings shared by every retrieval call site."""

    k: int = 10
    retriever: str = "hybrid"
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    rrf_constant: int = 60

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.rrf_constant < 1:
            raise ValueError("rrf_constant must be >= 1")
        if self.bm25_k1 < 0:
            raise ValueError("bm25_k1 must be >= 0")
        if not 0 <= self.bm25_b <= 1:
            raise ValueError("bm25_b must be in [0, 1]")
        if self.retriever not in ("bm25", "dense", "hybrid"):
            raise ValueError(f"unknown retriever: {self.retriever!r}")


def rrf_fuse(lists: Sequence[RankedList], rrf_constant: int = 60) -> RankedList:
    """Reciprocal rank fusion: score(d) = sum over lists of 1/(c + rank_d).

    Ranks are 1-based; input scores are ignored. The output contains the union
    of all input items, sorted by fused score, ties by ascending id.
    """
    fused: dict[str, float] = {}
    for ranked in lists:
        for rank, (item_id, _) in enumerate(ranked.entries, start=1):
            fused[item_id] = fused.get(item_id, 0.0) + 1.0 / (rrf_constant + rank)
    ordered = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
    return RankedList(tuple(ordered), provenance="rrf")


def bm25_search(
    index: CorpusIndex,
    query: str,
    view: str = PASSAGES,
    k: int = 10,
    *,
    k1: float = 1.2,
    b: float = 0.75,
) -> RankedList:
    """Okapi BM25 over the tokenized view texts.

    Uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5)), so
    documents matching a term held by every document still score above zero.
    Zero-score items are omitted.
    """
    lex = index.lexical[view]
    n_docs = len(lex.ids)
    scores = np.zeros(n_docs, dtype=np.float64)
    for term in tokenize(query):
        df = lex.doc_freq.get(term)
        if not df:
            continue
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for pos, tf in lex.postings[term]:
            dl = float(lex.doc_lengths[pos])
            avg = lex.avg_doc_length or 1.0
            denom = tf + k1 * (1.0 - b + b * dl / avg)
            scores[pos] += idf * (tf * (k1 + 1.0)) / denom
    order = np.argsort(-scores, kind="stable")
    entries = []
    for pos in order:
        if scores[pos] <= 0.0 or len(entries) == k:
            break
        entries.append((lex.ids[pos], float(scores[pos])))
    return RankedList(tuple(entries), provenance="bm25")


def dense_search(
    index: CorpusIndex, query: str, view: str = PASSAGES, k: int = 10
) -> RankedList:
    """Exhaustive cosine similarity between the query embedding and the view."""
    vv = index.vectors[view]
    if len(vv.ids) == 0:
        return RankedList((), provenance="dense")
    try:
        q = index.embed_query(query)
    except Exception as e:
        raise RetrievalError(f"query embedding failed: {e}") from e
    norm = float(np.linalg.norm(q))
    if norm > 0:
        q = q / norm
    scores = vv.vectors @ q
    order = np.argsort(-scores, kind="stable")[:k]
    entries = tuple((vv.ids[pos], float(scores[pos])) for pos in order)
    return RankedList(entries, provenance="dense")


def hybrid_search(
    index: CorpusIndex,
    query: str,
    view: str = PASSAGES,
    k: int = 10,
    *,
    config: RetrievalConfig | None = None,
) -> RankedList:
    """RRF of the BM25 and dense result lists, truncated to k."""
    cfg = config or RetrievalConfig(k=k)
    sparse = bm25_search(index, query, view, k, k1=cfg.bm25_k1, b=cfg.bm25_b)
    dense = dense_search(index, query, view, k)
    return rrf_fuse([sparse, dense], cfg.rrf_constant).truncated(k)


def base_retrieve(
    index: CorpusIndex,
    query: str,
    view: str,
    config: RetrievalConfig,
    k: int | None = None,
) -> RankedList:
    """Run the configured base retriever (bm25 | dense | hybrid)."""
    k = config.k if k is None else k
    if config.retriever == "bm25":
        return bm25_search(index, query, view, k, k1=config.bm25_k1, b=config.bm25_b)
    if config.retriever == "dense":
        return dense_search(index, query, view, k)
    return hybrid_search(index, query, view, k, config=config)


# ---------------------------------------------------------------------------
# Embedders
# ---------------------------------------------------------------------------

class _TrigramCodes(dict):
    """trigram -> 2 * bucket + (1 if the sign is +1 else 0), for one dim.

    A trigram is hashed on its first lookup and answered from the dict after
    that, so the memo holds one entry per distinct trigram seen at this dim.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, trigram: str) -> int:
        digest = hashlib.blake2b(trigram.encode("utf-8"), digest_size=8).digest()
        code = 2 * (int.from_bytes(digest[:4], "little") % self.dim) + (digest[4] & 1)
        self[trigram] = code
        return code


# One memo per dim, shared by every index and thread of the process. Two
# threads that miss on the same trigram store the same code, so no lock.
_TRIGRAM_CODES: dict[int, _TrigramCodes] = {}


def trigram_counts(low: str, dim: int) -> np.ndarray:
    """Signed bucket counts of the character 3-grams of an already lower-cased
    text: the vector ``hash_embed`` normalises.

    Every entry is a sum of +1s and -1s, so it is an exact integer in float64
    and counts of concatenated pieces may be added in any order.
    """
    if dim < 8:
        raise ValueError("dim must be >= 8")
    codes = _TRIGRAM_CODES.get(dim)
    if codes is None:
        codes = _TRIGRAM_CODES.setdefault(dim, _TrigramCodes(dim))
    tallies = np.bincount(
        np.array([codes[low[i : i + 3]] for i in range(len(low) - 2)], dtype=np.intp),
        minlength=2 * dim,
    )
    return (tallies[1::2] - tallies[0::2]).astype(np.float64)


def hash_embed(text: str, dim: int) -> np.ndarray:
    """Feature-hash character 3-grams of the lowercased text into a unit vector.

    Each trigram's bucket and sign come from blake2b, 8-byte digest, of its
    UTF-8 bytes (the first four bytes, little-endian, modulo ``dim`` pick the
    bucket; the low bit of the fifth, the sign), so vectors are stable across
    processes and platforms. The (bucket, sign) of each trigram is memoised
    per dim for the life of the process; the memo is bounded by the distinct
    trigrams seen. Texts shorter than 3 characters produce the zero vector;
    cosine against the zero vector is defined as 0.
    """
    return unit_vector(trigram_counts(text.lower(), dim))


def unit_vector(vec: np.ndarray) -> np.ndarray:
    """``vec`` divided by its Euclidean norm; the zero vector stays zero."""
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def hash_dim(embedder) -> int | None:
    """``dim`` if the embedder is named ``hash:<dim>`` (a ``HashEmbedder``, or a
    wrapper that keeps its name), else None.

    ``load_index`` likewise takes the name as the identity of the embedding
    function.
    """
    name = getattr(embedder, "name", None)
    if isinstance(name, str) and name.startswith("hash:") and name[5:].isdecimal():
        return int(name[5:])
    return None


@dataclass(frozen=True)
class HashEmbedder:
    """Deterministic offline embedder; drop-in for a dense embedding model."""

    dim: int = 256

    @property
    def name(self) -> str:
        return f"hash:{self.dim}"

    def __call__(self, text: str) -> np.ndarray:
        return hash_embed(text, self.dim)


class HttpEmbedder:
    """Client for a remote embedding endpoint speaking the common JSON shape.

    POSTs {"model": ..., "input": [text]} and reads data[0].embedding from the
    response.
    """

    def __init__(self, endpoint: str, model: str | None = None, timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout

    @property
    def name(self) -> str:
        return f"http:{self.endpoint}"

    def __call__(self, text: str) -> np.ndarray:
        payload: dict = {"input": [text]}
        if self.model:
            payload["model"] = self.model
        response = requests.post(self.endpoint, json=payload, timeout=self.timeout)
        response.raise_for_status()
        data = response.json()
        return np.asarray(data["data"][0]["embedding"], dtype=np.float64)


def resolve_embedder(spec: str) -> Callable[[str], np.ndarray]:
    """Build an embedder from a config string: "hash:<dim>" or "http:<endpoint>"."""
    if spec.startswith("hash:"):
        return HashEmbedder(int(spec.split(":", 1)[1]))
    if spec.startswith(("http://", "https://")):
        return HttpEmbedder(spec)
    if spec.startswith("http:"):
        return HttpEmbedder(spec.split(":", 1)[1])
    raise ValueError(f"unknown embedder spec: {spec!r}")
