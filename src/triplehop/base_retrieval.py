"""Single-step ranked retrieval over either index view.

Implements the three base retrievers (Okapi BM25, exhaustive dense cosine,
and their reciprocal-rank-fusion hybrid), the generic RRF fuser used all over
the engine, and the deterministic feature-hashing embedder that lets every
test and demo run without a real embedding model.

All ranking is deterministic: ties break by ascending item id.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .corpus_index import PASSAGES, CorpusIndex, Memo, embed_texts, tokenize
from .llm_gateway import check_settings, post_json


class RetrievalError(RuntimeError):
    """Raised when a retrieval step cannot produce a result (e.g. embedder failure)."""


@dataclass(frozen=True)
class RankedList:
    """An ordered retrieval result: (item_id, score) with non-increasing scores."""

    entries: tuple[tuple[str, float], ...]
    provenance: str = ""

    def __post_init__(self):
        ids, scores = zip(*self.entries) if self.entries else ((), ())
        if len(ids) != len(set(ids)):
            raise ValueError("ranked list contains duplicate item ids")
        # ``lt``, not ``not ge``: a NaN score fails no comparison, as before.
        if any(map(operator.lt, scores, scores[1:])):
            raise ValueError("ranked list scores must be non-increasing")

    @classmethod
    def _unchecked(cls, entries: tuple, provenance: str) -> "RankedList":
        """A list whose maker guarantees unique ids and non-increasing
        scores, made without the checks (see README, "What is kept where")."""
        ranked = object.__new__(cls)
        object.__setattr__(ranked, "entries", entries)
        object.__setattr__(ranked, "provenance", provenance)
        return ranked

    @property
    def ids(self) -> list[str]:
        return [item_id for item_id, _ in self.entries]

    def truncated(self, k: int) -> "RankedList":
        return RankedList._unchecked(self.entries[:k], self.provenance)

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
        check_settings(RetrievalConfig, vars(self))
        if self.bm25_b > 1:
            raise ValueError(f"bm25_b must be in [0, 1], got {self.bm25_b!r}")
        if self.retriever not in ("bm25", "dense", "hybrid"):
            raise ValueError(f"unknown retriever: {self.retriever!r}")


def rrf_fuse(lists: Sequence[RankedList], rrf_constant: int = 60) -> RankedList:
    """Reciprocal rank fusion: score(d) = sum over lists of 1/(c + rank_d).

    Ranks are 1-based; input scores are ignored. The output contains the union
    of all input items, sorted by fused score, ties by ascending id. Raises
    ValueError unless ``1 <= rrf_constant < inf``, as ``RetrievalConfig`` does.
    """
    if not 1 <= rrf_constant < np.inf:
        raise ValueError(f"rrf_constant must be >= 1, got {rrf_constant!r}")
    weights: list[float] = []  # 1 / (c + rank), grown to the longest list
    fused: dict[str, float] = {}
    for ranked in lists:
        weights += [1.0 / (rrf_constant + r) for r in range(len(weights) + 1, len(ranked) + 1)]
        for (item_id, _), weight in zip(ranked.entries, weights):
            fused[item_id] = fused.get(item_id, 0.0) + weight
    # Ascending ids (each is distinct), then a stable sort by score, highest
    # first: ties keep ascending id order, with no Python key function per item.
    entries = sorted(fused.items())
    entries.sort(key=operator.itemgetter(1), reverse=True)
    return RankedList._unchecked(tuple(entries), "rrf")


def _batch(query: str | Sequence[str]) -> list[str]:
    # A str is itself a Sequence[str], so it must be tested first.
    return [query] if isinstance(query, str) else list(query)


def _unbatch(query: str | Sequence[str], results: list[RankedList]):
    return results[0] if isinstance(query, str) else results


def top_k(scores: np.ndarray, k: int, positive: bool = False) -> list[np.ndarray]:
    """Per row of the 2-D ``scores``, the positions of its k highest scores,
    highest first, ties by ascending position: the first k of
    ``np.argsort(-row, kind="stable")``, of only the positions scoring above
    0 when ``positive``.

    One partition takes every row's k-th highest score. The positions scoring
    at least that (and above 0 when ``positive``) are sorted once by (row,
    -score, position) and each row is cut at k, so a tie that straddles the
    k-th place keeps its smallest positions.
    """
    n_rows, n = scores.shape
    k = min(k, n)
    if k <= 0:
        return [np.zeros(0, dtype=np.intp)] * n_rows
    negated = -scores
    negated.partition(k - 1, axis=1)
    kth = -negated[:, k - 1 : k]
    # With ``positive``, no lower than the least float above 0: the same as
    # also requiring a score above 0.
    keep = scores >= (np.maximum(kth, np.nextafter(0.0, 1.0)) if positive else kth)
    flat = np.flatnonzero(keep)
    if len(flat) > 2 * k * n_rows:
        # A wide tie at the k-th score: keep a row's positions above it and,
        # of its tied ones (a run of ``ties``), the first it has room for.
        tied = keep & (scores == kth)
        keep ^= tied
        ties = np.flatnonzero(tied)
        starts = np.searchsorted(ties, np.arange(n_rows + 1) * n)
        room = np.minimum(k - np.count_nonzero(keep, axis=1), np.diff(starts))
        firsts = starts[:-1, None] + np.arange(k)
        flat = np.concatenate([np.flatnonzero(keep), ties[firsts[np.arange(k) < room[:, None]]]])
    rows, cols = np.divmod(flat, n)
    order = np.lexsort((cols, -scores.ravel()[flat], rows))
    rows, cols = rows[order], cols[order]
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    return [cols[lo : min(hi, lo + k)] for lo, hi in zip(bounds, bounds[1:])]


def bm25_search(
    index: CorpusIndex,
    query: str | Sequence[str],
    view: str = PASSAGES,
    k: int = 10,
    *,
    k1: float = 1.2,
    b: float = 0.75,
) -> RankedList | list[RankedList]:
    """Okapi BM25 over the tokenized view texts.

    ``query`` is one text, giving one RankedList, or a sequence of texts,
    giving one RankedList per text in order; a single text is the one-row
    batch. Every posting's term weight at (k1, b) is computed once per index
    and kept (``LexicalView.bm25_weights``; the formula is
    ``corpus_index._posting_weights``), so each text is scored by one
    weighted ``np.bincount`` of its terms' weight slices, in its token
    order, into its row of one (len(query) × view-size) score array: a
    score does not depend on the rest of the batch, and the working arrays
    stay one text's size.

    Uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5)), so
    documents matching a term held by every document still score above zero.
    Zero-score items are omitted. Ties break by ascending id, also across the
    k-th place (see ``top_k``).
    """
    texts = _batch(query)
    lex = index.lexical[view]
    postings, weights = lex.doc_positions, lex.bm25_weights[k1, b]
    all_scores = np.empty((len(texts), len(lex.ids)))
    for scores, text in zip(all_scores, texts):
        slices = [
            slice(lex.indptr[row], lex.indptr[row + 1])
            for row in map(lex.rows.get, tokenize(text))
            if row is not None
        ]
        # bincount adds each position's weights from 0.0 in input order, the
        # text's token order: the bits of adding the terms one by one. The
        # empty slices give a text with no known term its zeros.
        positions = np.concatenate([postings[:0]] + [postings[span] for span in slices])
        added = np.concatenate([weights[:0]] + [weights[span] for span in slices])
        scores[:] = np.bincount(positions, added, len(scores))
    results = []
    for scores, top in zip(all_scores, top_k(all_scores, k, positive=True)):
        entries = tuple(zip([lex.ids[pos] for pos in top.tolist()], scores[top].tolist()))
        results.append(RankedList._unchecked(entries, "bm25"))
    return _unbatch(query, results)


def dense_search(
    index: CorpusIndex,
    query: str | Sequence[str],
    view: str = PASSAGES,
    k: int = 10,
) -> RankedList | list[RankedList]:
    """Exhaustive cosine similarity between the query embeddings and the view.

    ``query`` is one text, giving one RankedList, or a sequence of texts,
    giving one RankedList per text in order; a single text is the one-row
    batch. The batch is embedded by one ``embed_texts`` call (one
    ``embed_many`` call for ``HashEmbedder`` and ``HttpEmbedder``, one call
    per text for a plain callable), and the view is read once, by one
    product over only the ``used`` dimensions, those nonzero in some query:
    ``Q[:, used] @ columns[used]`` (see ``VectorView.columns``), or
    ``Q @ columns`` with no gather when the batch uses every dimension. For
    hashed rows that reads the ``int8`` bucket columns a batch touches. The
    working arrays hold len(query) × view-size floats, and the ratios below
    are made in place in the product's: by one plain division when every
    query and row norm is positive (``VectorView.positive_norms``), else by
    a masked one that leaves a zero denominator's ratio 0.

    The ``int8`` columns are multiplied in float32 when the queries are
    integer-valued and max‖q‖₁ · 128 < 2**24: every product and partial sum
    is then an integer below 2**24, which float32 holds exactly, so the
    result equals the float64 product bit for bit; other queries take the
    float64 product.

    Ranks by the signed squared cosine dot·|dot| / (‖d‖²·‖q‖²) and takes the
    root of the top k only. For hashed rows that is one rounding of a ratio of
    exact integers, so equal cosines tie exactly and ascending id decides, also
    across the k-th place (see ``top_k``). Integer dot products are exact with
    or without the zero terms, so with hashed rows a query gets the same bits
    in any batch; the products of other embedders' rows may round differently
    with the batch's queries.
    """
    texts = _batch(query)
    vv = index.vectors[view]
    if len(vv.ids) == 0 or not texts:
        return _unbatch(query, [RankedList((), provenance="dense") for _ in texts])
    try:
        embedded = embed_texts(index.embedder, texts, texts)
    except Exception as e:
        raise RetrievalError(f"query embedding failed: {e}") from e
    if embedded.shape[1] != len(vv.columns):
        width = f"{embedded.shape[1]}-wide query vectors"
        raise RetrievalError(f"{width} against {len(vv.columns)}-wide {view} rows")
    queries, columns = embedded, vv.columns
    used = np.flatnonzero(embedded.any(axis=0))
    if len(used) < len(columns):
        queries, columns = embedded[:, used], columns[used]
    if columns.dtype == np.int8 and _float32_exact(queries):
        dots = (queries.astype(np.float32) @ columns.astype(np.float32)).astype(np.float64)
    else:
        dots = queries @ columns.astype(np.float64, copy=False)
    q_norms = np.array([float(q @ q) for q in embedded])
    denom = np.multiply.outer(q_norms, vv.sq_norms)
    dots *= np.abs(dots)
    if vv.positive_norms and (q_norms > 0).all():
        dots /= denom
    else:
        positive = denom > 0
        np.divide(dots, denom, out=dots, where=positive)
        dots[~positive] = 0.0
    results = []
    for ratios, order in zip(dots, top_k(dots, k)):
        top = ratios[order]
        cosines = np.copysign(np.sqrt(np.abs(top)), top).tolist()
        entries = tuple(zip([vv.ids[pos] for pos in order.tolist()], cosines))
        results.append(RankedList._unchecked(entries, "dense"))
    return _unbatch(query, results)


def _float32_exact(queries: np.ndarray) -> bool:
    """Whether float32 holds every product and partial sum of ``queries``
    times ``int8`` columns exactly: integer values with max‖q‖₁ · 128 < 2**24
    (an ``int8`` is at most 128 in size). NaN and inf fail the bound."""
    return bool(
        np.abs(queries).sum(axis=1).max() * 128 < 2**24
        and (np.trunc(queries) == queries).all()
    )


def hybrid_search(
    index: CorpusIndex,
    query: str | Sequence[str],
    view: str = PASSAGES,
    k: int = 10,
    *,
    config: RetrievalConfig | None = None,
) -> RankedList | list[RankedList]:
    """RRF of the BM25 and dense result lists, truncated to k.

    ``query`` is one text or a sequence of texts, as for ``bm25_search``;
    each retriever is called once for the whole batch.
    """
    cfg = config or RetrievalConfig(k=k)
    texts = _batch(query)
    sparse = bm25_search(index, texts, view, k, k1=cfg.bm25_k1, b=cfg.bm25_b)
    dense = dense_search(index, texts, view, k)
    fused = [rrf_fuse(pair, cfg.rrf_constant).truncated(k) for pair in zip(sparse, dense)]
    return _unbatch(query, fused)


def base_retrieve(
    index: CorpusIndex,
    query: str | Sequence[str],
    view: str,
    config: RetrievalConfig,
    k: int | None = None,
) -> RankedList | list[RankedList]:
    """Run the configured base retriever (bm25 | dense | hybrid).

    One text gives one RankedList; a sequence of texts gives one RankedList
    per text, in order, from one call of each retriever.
    """
    k = config.k if k is None else k
    if config.retriever == "bm25":
        return bm25_search(index, query, view, k, k1=config.bm25_k1, b=config.bm25_b)
    if config.retriever == "dense":
        return dense_search(index, query, view, k)
    return hybrid_search(index, query, view, k, config=config)


# ---------------------------------------------------------------------------
# Embedders
# ---------------------------------------------------------------------------

def _trigram_code(dim: int, trigram: str) -> int:
    """2 * bucket + (1 if the sign is +1 else 0) of a trigram at ``dim``."""
    digest = hashlib.blake2b(trigram.encode("utf-8", "surrogatepass"), digest_size=8).digest()
    return 2 * (int.from_bytes(digest[:4], "little") % dim) + (digest[4] & 1)


# dim -> trigram -> its code: one memo per dim, shared by every index and
# thread of the process, holding one entry per distinct trigram seen.
_TRIGRAM_CODES = Memo(lambda dim: Memo(partial(_trigram_code, dim)))

# Texts ``hash_embed_many`` hashes at once, so its working arrays stay about
# 256 texts' trigrams however many texts a call has.
_EMBED_CHUNK = 256
# A batch of fewer characters than this, or of one text, goes through
# ``hash_embed`` one text at a time: the array passes cost about as much as
# hashing 300-350 characters that way, nine fact-length or five
# question-length texts (agent-chains), and never pay off for one text.
_EMBED_ARRAY_CHARS = 320


def trigram_codes(dim: int) -> Memo:
    """The shared trigram memo at ``dim``: trigram -> 2 * bucket + (1 if the
    sign is +1 else 0), as ``hash_embed`` hashes it. The beam scorer reads
    its boundary trigrams from it."""
    if dim < 8:
        raise ValueError("dim must be >= 8")
    return _TRIGRAM_CODES[dim]


def hash_embed_many(texts: Sequence[str], dim: int) -> np.ndarray:
    """``np.stack([hash_embed(text, dim) for text in texts])``, byte for byte,
    with shape (len(texts), dim), made in array passes over chunks of 256
    texts (``_EMBED_CHUNK``), so the working arrays stay a chunk's size
    however many texts there are.

    Each text is lower-cased on its own: ``str.lower`` turns a final ``Σ``
    into ``ς`` by its neighbours, so lower-casing the joined chunk could
    change it. The chunk's code points are read as UTF-32, and each trigram
    lying inside one text is packed into one int64 key (3 × 21 bits). Each
    distinct key is looked up once in the trigram memo, which hashes it on a
    miss exactly as ``hash_embed`` does. One weighted ``np.bincount`` then
    sums the chunk's ±1 signs by (text, bucket); sums of ±1 are exact in
    float64 and never -0.0, so each row has ``hash_embed``'s bits.

    One text, or texts of under 320 characters in all (``_EMBED_ARRAY_CHARS``),
    go through ``hash_embed`` one at a time, as that is cheaper.
    """
    codes = trigram_codes(dim)
    texts = list(texts)
    out = np.empty((len(texts), dim), dtype=np.float64)
    if len(texts) < 2 or sum(map(len, texts)) < _EMBED_ARRAY_CHARS:
        for row, text in enumerate(texts):
            out[row] = hash_embed(text, dim)
        return out
    for lo in range(0, len(texts), _EMBED_CHUNK):
        lows = [text.lower() for text in texts[lo : lo + _EMBED_CHUNK]]
        out[lo : lo + len(lows)] = _chunk_counts(lows, dim, codes)
    return out


def _chunk_counts(lows: list[str], dim: int, codes: Memo) -> np.ndarray:
    """The (len(lows), dim) signed trigram counts of lower-cased texts; see
    ``hash_embed_many``. Each big array is dropped once it is used, so a
    chunk's working set stays small."""
    joined = "".join(lows)
    # A lone surrogate is kept, so the memo hashes it as hash_embed does.
    points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    lengths = np.fromiter(map(len, lows), dtype=np.int64, count=len(lows))
    # A trigram starts anywhere in a text but at its last two positions.
    inside = np.ones(len(joined), dtype=bool)
    ends = np.cumsum(lengths)
    for back in (1, 2):
        inside[(ends - back)[lengths >= back]] = False
    starts = np.flatnonzero(inside)
    keys = np.left_shift(points[starts], 42, dtype=np.int64)
    keys |= np.left_shift(points[starts + 1], 21, dtype=np.int64)
    keys |= points[starts + 2]
    del points, inside
    unique, inverse = np.unique(keys, return_inverse=True)
    del keys
    # A position of each distinct trigram; any of its positions will do.
    where = np.empty(len(unique), dtype=np.intp)
    where[inverse] = starts
    del starts
    signed = np.fromiter(
        (codes[joined[pos : pos + 3]] for pos in where.tolist()),
        dtype=np.int64,
        count=len(unique),
    )
    index = np.repeat(np.arange(0, len(lows) * dim, dim), np.maximum(lengths - 2, 0))
    index += (signed >> 1)[inverse]
    signs = np.where(signed & 1, 1.0, -1.0)[inverse]
    del inverse
    return np.bincount(index, signs, len(lows) * dim).reshape(len(lows), dim)


def hash_embed(text: str, dim: int) -> np.ndarray:
    """Feature-hash character 3-grams of the lowercased text into signed
    bucket counts (Weinberger et al., 2009): integer-valued, not normalised.

    Each trigram's bucket and sign come from blake2b, 8-byte digest, of its
    UTF-8 bytes (``surrogatepass``: a lone surrogate gets its 3-byte form;
    the first four bytes, little-endian, modulo ``dim`` pick the bucket; the
    low bit of the fifth, the sign), so vectors are stable across processes
    and platforms. The (bucket, sign) of each trigram is memoised per dim
    for the life of the process; the memo is bounded by the distinct
    trigrams seen. Texts shorter than 3 characters produce the zero vector;
    cosine against the zero vector is defined as 0.

    Every entry is a sum of +1s and -1s, so it is an exact integer in float64
    and counts of concatenated pieces may be added in any order.
    """
    codes = trigram_codes(dim)
    low = text.lower()
    tallies = np.bincount(
        np.array([codes[low[i : i + 3]] for i in range(len(low) - 2)], dtype=np.intp),
        minlength=2 * dim,
    )
    return (tallies[1::2] - tallies[0::2]).astype(np.float64)


def unit_vector(vec: np.ndarray) -> np.ndarray:
    """``vec`` divided by its Euclidean norm; the zero vector stays zero."""
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def hash_dim(embedder) -> int | None:
    """``dim`` if the embedder is named ``hash:<dim>`` (a ``HashEmbedder``, or a
    wrapper that keeps its name), else None."""
    name = getattr(embedder, "name", None)
    if isinstance(name, str) and name.startswith("hash:") and name[5:].isdecimal():
        return int(name[5:])
    return None


@dataclass(frozen=True)
class HashEmbedder:
    """Deterministic offline embedder; drop-in for a dense embedding model.

    ``embedder(text)`` is ``hash_embed(text, dim)``, and
    ``embedder.embed_many(texts)`` the same rows for many texts at once (see
    ``hash_embed_many``). A ``dim`` below 8 is rejected here, at
    construction.
    """

    dim: int = 256

    def __post_init__(self):
        if self.dim < 8:
            raise ValueError(f"HashEmbedder dim must be >= 8, got {self.dim!r}")

    @property
    def name(self) -> str:
        return f"hash:{self.dim}"

    def __call__(self, text: str) -> np.ndarray:
        return hash_embed(text, self.dim)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        return hash_embed_many(texts, self.dim)


# Texts ``HttpEmbedder.embed_many`` sends in its first request: the default
# client batch limit of text-embeddings-inference (``--max-client-batch-size``).
# Hosted APIs in this JSON shape take more per request; an endpoint that takes
# fewer gets smaller requests (see ``HttpEmbedder``).
_HTTP_EMBED_CHUNK = 32


class HttpEmbedder:
    """Client for a remote embedding endpoint speaking the common JSON shape.

    ``embed_many(texts)`` POSTs {"model": ..., "input": [...]} with up to 32
    texts per request (``_HTTP_EMBED_CHUNK``) and puts each reply item's
    ``embedding`` in the row its ``index`` names (reply order when no item
    has one); ``embedder(text)`` is a request of one text. A reply with
    another number of items, or indexes that are not 0..n-1, raises
    ``RetrievalError`` at once. Retries follow ``post_json``'s defaults, and
    ``timeout`` bounds each request.

    A request of several texts that gets a 4xx reply other than 429 (such as
    413 for too many inputs), or that times out on every attempt, is sent
    again as requests of half its size, down to one text; the embedder keeps
    the smaller size for its later requests. A one-text request fails as
    before: every failure raises ``RetrievalError``.
    """

    def __init__(self, endpoint: str, model: str | None = None, timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self._chunk = _HTTP_EMBED_CHUNK

    @property
    def name(self) -> str:
        return f"http:{self.endpoint}"

    def __call__(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        texts = list(texts)
        chunks = []
        lo = 0
        while lo < len(texts):
            part = texts[lo : lo + self._chunk]
            try:
                chunks.append(self._request(part))
            except RetrievalError as e:
                if len(part) == 1 or not _smaller_may_pass(e):
                    raise
                # min: another thread may have shrunk it further meanwhile.
                self._chunk = min(self._chunk, len(part) // 2)
                continue
            lo += len(part)
        return np.concatenate(chunks) if chunks else np.zeros((0, 0))

    def _request(self, texts: list[str]) -> np.ndarray:
        def parse(data: dict) -> np.ndarray:
            items = data["data"]
            if len(items) != len(texts):
                raise ValueError(f"{len(items)} embeddings for {len(texts)} texts")
            slots = [item.get("index", pos) for pos, item in enumerate(items)]
            if sorted(slots) != list(range(len(texts))):
                raise ValueError(f"indexes {slots} for {len(texts)} texts")
            rows = [None] * len(texts)
            for slot, item in zip(slots, items):
                rows[slot] = item["embedding"]
            out = np.asarray(rows, dtype=np.float64)
            if out.ndim != 2:
                raise ValueError(f"embeddings of shape {out.shape} for {len(texts)} texts")
            return out

        payload: dict = {"input": texts}
        if self.model:
            payload["model"] = self.model
        return post_json(self.endpoint, payload, parse, RetrievalError, timeout=self.timeout)


def _smaller_may_pass(failure: RetrievalError) -> bool:
    """Whether a smaller request may pass where this one failed: it got a 4xx
    reply (``post_json`` retries 429 itself) or timed out on its last attempt."""
    import requests  # loaded already: ``post_json`` made the request

    cause = failure.__cause__
    if isinstance(cause, requests.Timeout):
        return True
    status = getattr(getattr(cause, "response", None), "status_code", None)
    return status is not None and 400 <= status < 500


def resolve_embedder(spec: str) -> Callable[[str], np.ndarray]:
    """Build an embedder from a config string: "hash:<dim>" or "http:<endpoint>"."""
    if spec.startswith("hash:"):
        try:
            return HashEmbedder(int(spec[5:]))
        except ValueError:
            raise ValueError(
                f"bad embedder spec {spec!r}: expected hash:<dim> with an integer dim >= 8"
            ) from None
    if spec.startswith(("http://", "https://")):
        return HttpEmbedder(spec)
    if spec.startswith("http:"):
        return HttpEmbedder(spec.split(":", 1)[1])
    raise ValueError(f"unknown embedder spec: {spec!r}")
