"""Aligned passage/triple indexing with entity adjacency for graph traversal.

The index couples two views of a corpus: text passages and the
(subject, predicate, object) triples extracted from them. Each triple belongs
to exactly one passage; triples that share a normalized head or tail entity
are graph neighbours. Lexical statistics and embedding vectors for both views
are computed once at build time, after which the index is immutable and safe
to share across threads.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import secrets
import shutil
import threading
import unicodedata
import zipfile
import zlib
from bisect import bisect_left
from array import array
from collections import Counter, defaultdict
from collections.abc import Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import count
from operator import attrgetter, lt
from pathlib import Path
from tokenize import TokenError
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

FORMAT_VERSION = 6

# Index view names: the passage index and the triple index.
PASSAGES = "passages"
TRIPLES = "triples"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class IndexBuildError(ValueError):
    """Raised when index inputs violate the build contract."""


class Memo(dict):
    """A dict that fills a missing key with ``compute(key)`` on its first
    lookup and keeps it.

    It takes no lock. Threads that miss on one key may each compute it, and
    every thread gets the value stored first, so ``compute`` need only give
    equal values for one key. An exception from ``compute`` stores nothing.
    """

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        return self.setdefault(key, self.compute(key))


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def normalize_entity(text: str) -> str:
    """Canonical entity key: NFC-normalized, lowercased, whitespace collapsed."""
    return " ".join(unicodedata.normalize("NFC", text).lower().split())


@dataclass(frozen=True)
class Passage:
    id: str
    title: str
    body: str


@dataclass(frozen=True)
class Triple:
    id: str
    subject: str
    predicate: str
    object: str
    passage_id: str


def serialize_triple(triple) -> str:
    """Render a triple (indexed or proximal) as "subject predicate object"."""
    return f"{triple.subject.strip()} {triple.predicate.strip()} {triple.object.strip()}"


def _narrow(values: np.ndarray) -> np.ndarray:
    """A non-negative integer array in the smallest dtype that holds it: the
    one layout of every integer array an index holds, and stores as held."""
    return values.astype(np.min_scalar_type(values.max() if values.size else 0), copy=False)


def _text_column(values: list[str]) -> tuple[str, np.ndarray]:
    """Texts as one column: joined, and the offsets where each starts, plus the total."""
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, values), np.int64, len(values)), out=offsets[1:])
    return "".join(values), _narrow(offsets)


def _slices(text: str, offsets: np.ndarray) -> list[str]:
    bounds = offsets.tolist()
    return [text[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class Records(Mapping):
    """Read-only id -> record mapping over columns, as ``index.npz`` holds
    them: ``ids`` ascending, and each other field, by its key there, as
    ``(text, offsets)``, value ``i`` being ``text[offsets[i]:offsets[i + 1]]``.
    A lookup bisects ``ids`` and builds the record, ``make(id, *fields)``."""

    def __init__(self, kind: str, make: Callable, ids: tuple[str, ...], columns: dict):
        self.kind, self.make, self.ids, self.columns = kind, make, ids, columns
        # a memoryview indexes to Python ints several times faster than numpy
        self._cuts = [(text, memoryview(offsets)) for text, offsets in columns.values()]

    @classmethod
    def of(cls, kind: str, objects: list) -> "Records":
        """``objects`` of ``kind``'s record type, in ascending id order."""
        make, keys = _RECORD_KINDS[kind]
        values = {key: list(map(attrgetter(f.name), objects)) for key, f in zip(keys, fields(make))}
        return cls(kind, make, tuple(values.pop("id")), {k: _text_column(v) for k, v in values.items()})

    def position(self, key: str) -> int:
        at = bisect_left(self.ids, key) if isinstance(key, str) else len(self.ids)
        if at == len(self.ids) or self.ids[at] != key:
            raise KeyError(f"unknown {self.kind} id: {key!r}")
        return at

    def __getitem__(self, key: str):
        at = self.position(key)
        return self.make(self.ids[at], *[text[cut[at] : cut[at + 1]] for text, cut in self._cuts])

    def __contains__(self, key) -> bool:  # bisects as ``position`` does, and builds no record
        at = bisect_left(self.ids, key) if isinstance(key, str) else len(self.ids)
        return at < len(self.ids) and self.ids[at] == key

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _posting_weights(avg, indptr, doc_positions, term_freqs, doc_lengths, pair):
    """Every posting's BM25 term weight at ``pair`` = (k1, b), aligned with
    ``doc_positions``: idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl /
    avg)), with the non-negative idf ln(1 + (N - df + 0.5) / (df + 0.5))."""
    k1, b = pair
    n_docs = len(doc_lengths)
    df = np.diff(indptr)
    idf = [math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5)) for d in df.tolist()]
    # Keep this operation order: the per-posting loop in tests/oracles.py
    # must give the same bits.
    denom = term_freqs + k1 * (1.0 - b + b * doc_lengths[doc_positions] / avg)
    return np.repeat(np.asarray(idf, dtype=np.float64), df) * (term_freqs * (k1 + 1.0)) / denom


@dataclass(frozen=True, eq=False, repr=False)
class LexicalView:
    """Per-view term statistics backing BM25 scoring, as CSR postings.

    ``ids`` is sorted ascending so positional order doubles as the
    deterministic tie-break order everywhere downstream. ``rows`` maps each
    term to its row, in ascending term order, and is the view's one copy of
    its vocabulary. The postings of row ``r`` are the slice
    ``indptr[r]:indptr[r + 1]`` of ``doc_positions`` (ascending positions
    into ``ids``) and ``term_freqs``. These arrays but ``ids`` (each as
    ``_narrow`` makes it), and ``rows``' keys as ``vocab``, are what ``index.npz`` stores.

    ``bm25_weights`` is a ``Memo`` of (k1, b) -> every posting's BM25 term
    weight (``_posting_weights``), aligned with ``doc_positions``.
    ``bm25_search`` fills an entry on first use and it is kept for the life
    of the index, in memory only.
    """

    ids: tuple[str, ...]
    doc_lengths: np.ndarray
    indptr: np.ndarray
    doc_positions: np.ndarray
    term_freqs: np.ndarray
    rows: dict[str, int]
    bm25_weights: Memo = field(init=False)

    def __post_init__(self):
        avg = float(self.doc_lengths.mean()) if len(self.ids) else 0.0
        weights = partial(
            _posting_weights, avg or 1.0, self.indptr, self.doc_positions,
            self.term_freqs, self.doc_lengths,
        )
        object.__setattr__(self, "bm25_weights", Memo(weights))

    @classmethod
    def from_texts(cls, ids: Sequence[str], texts: Sequence[str]) -> "LexicalView":
        """The view of ``texts``, ``texts[i]`` the search text of ``ids[i]``.
        Each token's key is its term's row times ``len(ids)`` plus its text's
        position, so the distinct keys, sorted and counted, are the postings
        in CSR order with their term frequencies."""
        codes: dict[str, int] = defaultdict(count().__next__)
        token_codes = array("q")
        lengths = np.zeros(len(ids), dtype=np.int64)
        for pos, text in enumerate(texts):
            tokens = tokenize(text)
            lengths[pos] = len(tokens)
            token_codes.extend(map(codes.__getitem__, tokens))
        rows = dict(zip(sorted(codes), count()))
        row_of_code = np.fromiter(map(rows.__getitem__, codes), np.int64, len(rows))
        n = len(ids) or 1
        keys = row_of_code[np.frombuffer(token_codes, np.int64)] * n
        keys += np.repeat(np.arange(len(ids)), lengths)
        del codes, token_codes  # freed before np.unique copies and sorts the keys
        keys, term_freqs = np.unique(keys, return_counts=True)
        term_rows, positions = np.divmod(keys, n)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(term_rows, minlength=len(rows)), out=indptr[1:])
        return cls(tuple(ids), *map(_narrow, (lengths, indptr, positions, term_freqs)), rows)


def exact_int8(rows: np.ndarray) -> np.ndarray:
    """``rows`` as ``int8`` when that holds every value exactly, as it does
    hashed counts, else ``rows`` itself. A value ``int8`` cannot hold casts
    to one that fails the comparison."""
    with np.errstate(invalid="ignore"):
        small = rows.astype(np.int8)
    return small if np.array_equal(small, rows) else rows


@dataclass(frozen=True, eq=False, repr=False)
class VectorView:
    """Per-view embedding matrix in one layout, as dense search reads it and
    ``index.npz`` stores it: ``columns``, the embedder's rows in ascending id
    order transposed, (dim, N), and ``sq_norms``, each row's squared norm in
    float64, with ``positive_norms``, whether each is above 0. A build
    passes the columns ``_embed_view`` makes, and a load the stored ones;
    they are kept as given, unchecked and never widened, with ``_derived``'s norms.

    ``columns`` is ``int8`` when that holds every value exactly (see
    ``exact_int8``), as for hashed counts, and then C-contiguous, so a
    bucket's values over the view are N contiguous bytes that dense search
    gathers (in float32 when that is exact). Otherwise it is float64 in
    Fortran order, each vector's values contiguous as the embedder gave
    them, so fractional sums round as the embedder's rows' do.
    """

    ids: tuple[str, ...]
    columns: np.ndarray
    sq_norms: np.ndarray
    positive_norms: bool


def _derived(columns: np.ndarray, rows: bool = False) -> tuple:
    """``VectorView.sq_norms`` and ``positive_norms`` of ``columns``, to a build and
    a load alike, and ``CorpusIndex.triple_rows`` if ``rows``, else None."""
    # einsum widens int8 columns to ``dtype`` in small buffers, not whole.
    # An int8 square is at most 128**2, so with under 1024 buckets every
    # partial sum of a column is an integer below 2**24, which float32
    # holds exactly: the float64 sum's bits in half the time.
    wide = np.float32 if columns.dtype == np.int8 and len(columns) < 1024 else np.float64
    sq_norms = np.einsum("ij,ij->j", columns, columns, dtype=wide).astype(np.float64, copy=False)
    triple_rows = None if not rows else (
        columns.T if columns.dtype == np.float64 else np.ascontiguousarray(columns.T))
    return sq_norms, bool((sq_norms > 0).all()), triple_rows


def _triple_ends(triples: Records, embedder, triple_id: str) -> tuple[int, int, int, int, int]:
    from .base_retrieval import hash_dim, trigram_codes  # it imports this module
    codes = trigram_codes(hash_dim(embedder))
    low = serialize_triple(triples[triple_id]).lower()
    heads = codes["; " + low[0]], codes[" " + low[:2]]
    return triples.position(triple_id), *heads, codes[low[-2:] + ";"], codes[low[-1] + "; "]


def _neighbours(triples: Records, entity_codes, entity_csr, triple_id: str) -> tuple[str, ...]:
    at = triples.position(triple_id)
    indptr, members = entity_csr
    linked = np.union1d(*(members[indptr[c] : indptr[c + 1]] for c in entity_codes[at].tolist()))
    return tuple(map(triples.ids.__getitem__, linked[linked != at].tolist()))


@dataclass(eq=False, repr=False)
class CorpusIndex:
    """Immutable joint index over passages and their aligned triples.

    Made by ``build_index`` and ``load_index``, both through ``_assemble``.
    The graph is arrays over positions in ``passages.ids`` and
    ``triples.ids``: each triple's passage (``triple_passage``) and subject
    and object entity codes (``entity_codes``, a code per ``normalize_entity``
    key), and (indptr, ascending triple positions) CSR pairs by entity code
    (a triple naming one entity twice is in its group twice) and by passage,
    each as ``_narrow`` makes it.
    ``alignment`` maps triple id -> passage id.

    ``triple_rows`` is the triple view's columns transposed for the beam
    scorer, the one view held by row: a C-contiguous copy of ``int8``
    columns, and ``columns.T`` itself of float64 ones (see ``_derived``).

    The only state it gains afterwards is ``Memo``s, kept for the life of
    the index: ``triple_ends``, triple id -> (its row in ``triple_rows``,
    then the trigram codes of its two head and two tail trigrams, as the
    hash beam scorer adds them; see ``make_cosine_scorer``); ``neighbour_ids``,
    triple id -> its neighbours, ascending; and each lexical view's
    ``bm25_weights``. Threads that miss on one entry may each compute it,
    and all get the value stored first, so there is no lock. An index and
    its views compare and hash by identity. A loaded index's stored arrays
    (record offsets, postings and columns) are read-only views.
    """

    passages: Records
    triples: Records
    lexical: dict[str, LexicalView]
    vectors: dict[str, VectorView]
    embedder: Callable[[str], np.ndarray]
    triple_passage: np.ndarray
    entity_codes: np.ndarray
    entity_csr: tuple[np.ndarray, np.ndarray]
    passage_csr: tuple[np.ndarray, np.ndarray]
    triple_rows: np.ndarray
    alignment: Records = field(init=False)
    triple_ends: Memo = field(init=False)
    neighbour_ids: Memo = field(init=False)

    def __post_init__(self):
        by_passage = {"passage_id": self.triples.columns["passage_id"]}
        self.alignment = Records("triple", lambda _, pid: pid, self.triples.ids, by_passage)
        self.triple_ends = Memo(partial(_triple_ends, self.triples, self.embedder))
        self.neighbour_ids = Memo(
            partial(_neighbours, self.triples, self.entity_codes, self.entity_csr)
        )

    def embed_query(self, text: str) -> np.ndarray:
        return np.asarray(self.embedder(text), dtype=np.float64)

    def passage_triples(self, passage_id: str) -> tuple[str, ...]:
        """Ids of the triples aligned to a passage, ascending."""
        at = self.passages.position(passage_id)
        indptr, members = self.passage_csr
        return tuple(map(self.triples.ids.__getitem__, members[indptr[at] : indptr[at + 1]].tolist()))


def passage_search_text(passage: Passage) -> str:
    """Lexical search text for a passage: title and body together."""
    return f"{passage.title} {passage.body}" if passage.title else passage.body


def _csr(keys: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``values`` grouped by ``keys`` in [0, n), keeping their order in each
    group: (indptr, grouped), group ``k`` being ``grouped[indptr[k]:indptr[k + 1]]``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return _narrow(indptr), _narrow(values[np.argsort(keys, kind="stable")])


def _plain(text: str, offsets: np.ndarray) -> bool:
    """Whether ``normalize_entity`` is ``str.lower`` on each value of a column
    (see ``Records``): it is ASCII with no control character (``str.isspace``
    accepts 9-13 and 28-31), no two spaces in a row, and no value starts or ends with one."""
    if not text.isascii() or "  " in text:
        return False
    codes, filled = np.frombuffer(text.encode("ascii"), np.uint8), offsets[:-1] < offsets[1:]
    lo, hi = offsets[:-1][filled], offsets[1:][filled]  # the non-empty values' bounds
    return not (codes < 32).any() and 32 not in codes[lo] and 32 not in codes[hi - 1]


def _graph(passages: Records, triples: Records, fail: Callable) -> tuple:
    """Check each triple's passage and fields, and derive the graph arrays
    of ``CorpusIndex``, in its field order: ``triple_passage``,
    ``entity_codes``, ``entity_csr`` and ``passage_csr``. If all three columns
    are ``_plain``, a blank field is an empty one and ``str.lower`` keys an
    entity; else each value is stripped and keyed by ``normalize_entity``. Its
    own function, so slices and dicts are freed before any view is made."""
    triple_ids, n = triples.ids, len(triples)
    at = dict(zip(passages.ids, range(len(passages))))
    owners = _slices(*triples.columns["passage_id"])
    triple_passage = np.fromiter(map(at.get, owners, [-1] * n), np.int64, n)
    if n and triple_passage.min() < 0:
        first = int((triple_passage < 0).argmax())
        raise fail(f"triple {triple_ids[first]!r} references unknown passage {owners[first]!r}")
    columns = [triples.columns[key] for key in ("subject", "predicate", "object")]
    if all(_plain(*column) for column in columns):
        blank = np.logical_or.reduce([offsets[1:] == offsets[:-1] for _, offsets in columns])
        if blank.any():
            raise fail(f"triple {triple_ids[int(blank.argmax())]!r} has a blank field")
        (subjects, subject_at), _, (objects, object_at) = columns
        entities = _slices(subjects.lower(), subject_at) + _slices(objects.lower(), object_at)
        seen: dict[str, int] = {}  # each key's first position, renumbered in that order
        at_first = np.fromiter(map(seen.setdefault, entities, count()), np.int64, 2 * n)
        codes, n_codes = (np.cumsum(at_first == np.arange(2 * n)) - 1)[at_first], len(seen)
    else:
        parts = [_slices(*column) for column in columns]
        if not all(all(map(str.strip, values)) for values in parts):
            first = min(i for values in parts for i, value in enumerate(values) if not value.strip())
            raise fail(f"triple {triple_ids[first]!r} has a blank field")
        entities = parts[0] + parts[2]  # every subject, then every object
        keys: dict[str, int] = {}  # normalize_entity(raw entity) -> its code
        code_of = {raw: keys.setdefault(normalize_entity(raw), len(keys))
                   for raw in dict.fromkeys(entities)}
        codes, n_codes = np.fromiter(map(code_of.__getitem__, entities), np.int64, 2 * n), len(keys)
    ends = _narrow(np.ascontiguousarray(codes.reshape(2, n).T))  # each triple's (subject, object) codes
    triple_passage = _narrow(triple_passage)  # ``_csr`` sorts 16-bit keys by radix, int64 ones not
    return (
        triple_passage, ends,
        _csr(ends.ravel(), np.repeat(np.arange(n), 2), n_codes),
        _csr(triple_passage, np.arange(n), len(passages)),
    )


def _assemble(
    passages: Records,
    triples: Records,
    embedder: Callable[[str], np.ndarray],
    make_views: Callable,
    source: Path | None = None,
) -> CorpusIndex:
    """Check the records and derive the graph arrays (``_graph``), then make
    the views. ``build_index`` and ``load_index`` differ only in
    ``make_views(passage_ids, triple_ids)``, which returns the lexical and
    the vector views, then ``triple_rows``, in that order.

    Raises IndexBuildError on empty ids, ids not strictly ascending (naming
    the first repeated id, if any), dangling passage references, or triples
    with blank fields, before any view is made; the message names the
    offending record, after ``source`` (the file the records were read from)
    when one is given.
    """

    def fail(problem: str) -> IndexBuildError:
        return IndexBuildError(problem if source is None else f"{source}: {problem}")

    for records in (passages, triples):
        ids = records.ids
        if not all(map(lt, ids, ids[1:])):
            ordered = sorted(ids)
            repeated = [a for a, b in zip(ordered, ordered[1:]) if a == b]
            problem = f"duplicate {records.kind} id: {repeated[0]!r}" if repeated else None
            raise fail(problem or f"{records.kind} ids are not ascending")
        if ids and not ids[0]:
            raise fail(f"{records.kind} with empty id")

    graph = _graph(passages, triples, fail)
    lexical, vectors, triple_rows = make_views(passages.ids, triples.ids)
    return CorpusIndex(passages, triples, lexical, vectors, embedder, *graph, triple_rows)


def embed_texts(
    embedder: Callable[[str], np.ndarray],
    texts: Sequence[str],
    labels: Sequence[str] | None = None,
) -> np.ndarray:
    """The embedder's rows for ``texts``: one float64 array of shape
    (len(texts), dim), and (0, 0) with no call for no texts.

    This is the batch embedding protocol. An embedder with an
    ``embed_many(texts)`` method, such as ``HashEmbedder`` and
    ``HttpEmbedder``, is called once with all the texts. Any other callable,
    such as a plain function or a wrapper that does not pass ``embed_many``
    on, is called once per text, in order.

    Raises IndexBuildError when ``embed_many`` returns another shape, or a
    per-text vector is not 1-D or differs in length from the first; the
    message names the text by its entry in ``labels``, or by its position.
    """
    if not texts:
        return np.zeros((0, 0), dtype=np.float64)
    embed_many = getattr(embedder, "embed_many", None)
    if embed_many is not None:
        rows = np.asarray(embed_many(texts), dtype=np.float64)
        if rows.ndim != 2 or len(rows) != len(texts):
            raise IndexBuildError(
                f"embedder returned shape {rows.shape} for {len(texts)} texts"
            )
        return rows
    rows = None
    for row, text in enumerate(texts):
        vec = np.asarray(embedder(text), dtype=np.float64)
        if rows is None:
            rows = np.empty((len(texts), vec.size), dtype=np.float64)
        if vec.shape != rows.shape[1:]:
            label = repr(labels[row]) if labels is not None else f"text {row}"
            raise IndexBuildError(
                f"embedder returned shape {vec.shape} for {label}, not ({rows.shape[1]},)"
            )
        rows[row] = vec
    return rows


# Texts per ``embed_texts`` call of a build: an int8 view is float64 one
# block at most, the chunk ``hash_embed_many`` hashes at once.
_EMBED_BLOCK = 256
# Rows per transposed write into the columns: twice as fast as a whole block.
_WRITE_ROWS = 128


def _embed_view(embedder, texts: list[str], labels: tuple[str, ...]) -> np.ndarray:
    """A view's columns (see ``VectorView``), one ``embed_texts`` call per
    256 texts (``_EMBED_BLOCK``), each block narrowed by ``exact_int8`` and
    written into them transposed: ``int8``, or Fortran-order float64 from
    the first block ``int8`` does not hold; (0, 0) and no call for no texts.
    A block of another width than the first raises IndexBuildError naming it."""
    columns = np.zeros((0, 0), dtype=np.float64)
    for lo in range(0, len(texts), _EMBED_BLOCK):
        hi = lo + _EMBED_BLOCK
        block = embed_texts(embedder, texts[lo:hi], labels[lo:hi])
        if not lo:
            columns = np.zeros((block.shape[1], len(texts)), dtype=np.int8)
        elif block.shape[1] != len(columns):
            width = f"{block.shape[1]}-wide rows from {labels[lo]!r} on"
            raise IndexBuildError(f"embedder returned {width}, not {len(columns)}-wide")
        if columns.dtype == np.int8:
            block = exact_int8(block)
            columns = columns if block.dtype == np.int8 else columns.astype(np.float64, order="F")
        for at in range(0, len(block), _WRITE_ROWS):
            part = block[at : at + _WRITE_ROWS]
            columns[:, lo + at : lo + at + len(part)] = part.T
    return columns


def build_index(
    passages: Iterable[Passage],
    triples: Iterable[Triple],
    embedder: Callable[[str], np.ndarray],
) -> CorpusIndex:
    """Build the full index: the record columns, the graph, lexical stats and
    embeddings. The records are sorted by id first.

    The records are checked and the graph derived before any view is made
    (see ``_assemble``). Each view is embedded by one ``embed_texts`` call
    per 256 texts (see ``_embed_view``): one ``embedder.embed_many(texts)``
    call when the embedder has it (``HttpEmbedder`` sends up to 32 texts per
    request), else one call per text. Rows that ``int8`` holds exactly, as
    hashed counts, stay ``int8``, so a hashed view is float64 one block of
    256 rows at most, and each block goes straight into the view's columns.

    Raises IndexBuildError on invalid records, as ``_assemble`` describes, and
    when the embedder's rows are not one 1-D vector of one length per text.
    """
    passages = sorted(passages, key=attrgetter("id"))
    triples = sorted(triples, key=attrgetter("id"))

    def compute_views(passage_ids, triple_ids):
        triple_texts = list(map(serialize_triple, triples))
        lexical = {
            PASSAGES: LexicalView.from_texts(passage_ids, list(map(passage_search_text, passages))),
            TRIPLES: LexicalView.from_texts(triple_ids, triple_texts),
        }
        columns = _embed_view(embedder, [p.body for p in passages], passage_ids)
        vectors = {PASSAGES: VectorView(passage_ids, columns, *_derived(columns)[:2])}
        columns = _embed_view(embedder, triple_texts, triple_ids)
        *norms, triple_rows = _derived(columns, rows=True)
        vectors[TRIPLES] = VectorView(triple_ids, columns, *norms)
        return lexical, vectors, triple_rows

    records = Records.of("passage", passages), Records.of("triple", triples)
    return _assemble(*records, embedder, compute_views)


def get_neighbours(index: CorpusIndex, triple_id: str) -> tuple[str, ...]:
    """Ids of the triples sharing a normalized head or tail entity with
    ``triple_id``, ascending: the union of its two entity groups in
    ``index.entity_csr``, less itself, memoised in ``index.neighbour_ids``."""
    return index.neighbour_ids[triple_id]


def triple_to_passage(index: CorpusIndex, triple_id: str | Sequence[str]) -> str | list[str]:
    """Source passage id for a triple; for a sequence of triple ids, theirs
    in order, repeats kept, by one ``index.triple_passage`` lookup."""
    if isinstance(triple_id, str):
        return index.passages.ids[index.triple_passage[index.triples.position(triple_id)]]
    owners = index.triple_passage[list(map(index.triples.position, triple_id))]
    return list(map(index.passages.ids.__getitem__, owners.tolist()))


def triples_to_passages(index: CorpusIndex, triple_ids: Iterable[str]) -> list[str]:
    """Map triples to source passages, deduplicating on first occurrence."""
    return list(dict.fromkeys(triple_to_passage(index, list(triple_ids))))


def serialize_sequence(index: CorpusIndex, triple_ids: Sequence[str]) -> str:
    """Render a triple sequence as "s p o; s p o; ..."."""
    return "; ".join(serialize_triple(index.triples[tid]) for tid in triple_ids)


# ---------------------------------------------------------------------------
# JSONL ingestion and on-disk persistence
# ---------------------------------------------------------------------------

def read_jsonl(
    path: str | Path,
    parse: Callable[[dict], object],
    error: type[Exception] = IndexBuildError,
    kind: str | None = None,
) -> list:
    """``parse`` each non-blank line of a JSON Lines file into a record.

    A line that is not UTF-8, invalid JSON, a line that is not an object, a
    missing field (``KeyError`` from ``parse``), a field of the wrong JSON
    type (``TypeError``) or a rejected value (``ValueError``) raises
    ``error`` naming ``path:line``. With ``kind`` given, the records' ``id``s
    must be distinct: a repeated one raises ``error`` naming its
    ``path:line`` and the line it first appeared on.
    """
    out, linenos = [], []  # each record and its line
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise error(f"{path}:{lineno}: invalid JSON: {e}") from e
                if not isinstance(obj, dict):
                    raise error(f"{path}:{lineno}: expected a JSON object")
                try:
                    out.append(parse(obj))
                except KeyError as e:
                    raise error(f"{path}:{lineno}: missing field {e}") from e
                except (TypeError, ValueError) as e:
                    raise error(f"{path}:{lineno}: {e}") from e
                linenos.append(lineno)
    except UnicodeDecodeError as e:  # raised by the file's decoder, a chunk at a time
        raise error(_not_utf8(path)) from e
    if kind is not None and len({record.id for record in out}) < len(out):
        first_line: dict[str, int] = {}
        for record, lineno in zip(out, linenos):
            first = first_line.setdefault(record.id, lineno)
            if first != lineno:
                raise error(
                    f"{path}:{lineno}: duplicate {kind} id: {record.id!r}, first on line {first}"
                )
    return out


def _not_utf8(path: str | Path) -> str:
    """``path:line`` of the first line of a file that is not UTF-8, and why,
    the lines split where text mode splits them: at \\n, \\r and \\r\\n."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return f"{path}:{lineno}: not UTF-8: {e.reason} at byte {e.start} of the line"
    return f"{path}: not UTF-8"


_JSON_KINDS = {
    type(None): "null", bool: "a boolean", int: "a number", float: "a number",
    str: "a string", list: "an array", dict: "an object",
}


def _as_text(value, key: str) -> str:
    if type(value) not in (str, int, float):  # a bool's type is bool, not int
        raise TypeError(f"field {key!r} must be a string, got {_JSON_KINDS[type(value)]}")
    return str(value)


def text_field(obj: dict, key: str, default: str | None = None) -> str:
    """Field ``key`` of a JSONL record as text: a JSON string or number.

    A missing key gives ``default`` (KeyError when it is None); null, a
    boolean, an array or an object raises TypeError.
    """
    value = obj[key] if default is None else obj.get(key, default)
    return value if type(value) is str else _as_text(value, key)


def text_list_field(obj: dict, key: str) -> list[str]:
    """Field ``key`` of a JSONL record as a JSON array of texts (see
    ``text_field``); any other JSON type raises TypeError."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"field {key!r} must be an array, got {_JSON_KINDS[type(value)]}")
    return [_as_text(item, f"{key}[{i}]") for i, item in enumerate(value)]


def load_passages_jsonl(path: str | Path) -> list[Passage]:
    """Read passages from JSON Lines: {"id", "title", "text"}. A repeated id
    raises IndexBuildError naming both lines."""
    return read_jsonl(
        path,
        lambda obj: Passage(
            id=text_field(obj, "id"),
            title=text_field(obj, "title", ""),
            body=text_field(obj, "text", ""),
        ),
        kind="passage",
    )


def load_triples_jsonl(path: str | Path) -> list[Triple]:
    """Read triples from JSON Lines; missing ids become "<passage_id>#<ordinal>".
    A repeated id, given or made, raises IndexBuildError naming both lines."""
    per_passage: Counter = Counter()

    def parse(obj: dict) -> Triple:
        pid = text_field(obj, "passage_id")
        tid = f"{pid}#{per_passage[pid]}" if obj.get("id") is None else text_field(obj, "id")
        per_passage[pid] += 1
        return Triple(
            id=tid,
            subject=text_field(obj, "subject"),
            predicate=text_field(obj, "predicate"),
            object=text_field(obj, "object"),
            passage_id=pid,
        )

    return read_jsonl(path, parse, kind="triple")


# Per-view key prefixes in index.npz: of the postings, and of the columns.
_NPZ_PREFIXES = ((PASSAGES, "p", "passage"), (TRIPLES, "t", "triple"))

# The one array file of an index besides its manifest (which records its
# sha256), and the files that formats 1-4 held instead, which a save replaces.
_INDEX_FILE = "index.npz"
_OLD_FILES = ("records.npz", "lexical.npz", "embeddings.npz", "passages.jsonl", "triples.jsonl")

# Each record kind in index.npz: its key prefix (and, plus "s", its count in
# the manifest), its type, and its fields' keys in the order of the type's
# fields (a passage's ``body`` is stored as "text", as in the JSONL input).
_RECORD_KINDS = {
    "passage": (Passage, ("id", "title", "text")),
    "triple": (Triple, ("id", "subject", "predicate", "object", "passage_id")),
}

# Bytes of array data written at a time: the pieces ``read_array`` reads.
_NPY_PIECE = 1 << 18


def _write_npz(path: Path, arrays: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write ``(key, array)`` pairs as an ``.npz`` that ``np.load`` reads:
    one ``.npy`` member per key, deflated at level 2 (several times faster
    than ``np.savez_compressed``'s level 6, for about the same size here;
    the lowest level at which a view's ``int8`` columns take no more space
    than the sparse rows of format 5 did).

    Each member holds the bytes ``np.save`` writes: a version 1.0 header,
    then the data in the order it names, written here in ``_NPY_PIECE``
    pieces rather than by ``write_array``, which first copies an array of up
    to 16 MiB whole. Each array is dropped once written, so pairs from a
    generator are held one at a time."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=2) as zf:
        for key, array in arrays:
            array = np.asanyarray(array)
            with zf.open(f"{key}.npy", "w", force_zip64=True) as fh:
                header = np.lib.format.header_data_from_array_1_0(array)
                np.lib.format.write_array_header_1_0(fh, header)
                # "A": Fortran order for the arrays whose header says so
                data = array.ravel(order="A").view(np.uint8)
                for lo in range(0, len(data), _NPY_PIECE):
                    fh.write(data[lo : lo + _NPY_PIECE])
            del array, data


def _utf8_column(key: str, text: str, offsets: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """One text field of every record (see ``Records``) as stored: the values'
    UTF-8 bytes, back to back, and the code-point offsets where each value
    starts, plus the total. ``surrogatepass`` keeps lone surrogates, which
    JSON input may hold."""
    yield f"{key}_utf8", np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    yield f"{key}_offsets", offsets


def _index_arrays(index: CorpusIndex) -> Iterator[tuple[str, np.ndarray]]:
    """What ``index.npz`` stores, as ``(key, array)`` pairs in its order: the
    record columns, then each view's postings and ``VectorView.columns``,
    as held in memory. Each id is stored once, in its record column. Each
    array is made when the next pair is asked for, so ``_write_npz`` holds
    one at a time."""
    for by_id in (index.passages, index.triples):
        columns = {"id": _text_column(list(by_id.ids)), **by_id.columns}
        for key in _RECORD_KINDS[by_id.kind][1]:
            yield from _utf8_column(f"{by_id.kind}_{key}", *columns[key])
    for view, prefix, name in _NPZ_PREFIXES:
        lex = index.lexical[view]
        yield f"{prefix}_doc_lengths", lex.doc_lengths
        yield f"{prefix}_vocab", np.asarray(list(lex.rows), dtype=np.str_)
        yield f"{prefix}_doc_freq", _narrow(np.diff(lex.indptr))
        yield f"{prefix}_indptr", lex.indptr
        yield f"{prefix}_doc_positions", lex.doc_positions
        yield f"{prefix}_term_freqs", lex.term_freqs
        yield f"{name}_columns", index.vectors[view].columns


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync(path: Path) -> None:
    """Flush a file or a directory to its device."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sibling(directory: Path, tag: str) -> Path:
    """A fresh hidden path beside ``directory``."""
    return directory.with_name(f".{directory.name}.{tag}-{secrets.token_hex(4)}")


def _recover(directory: Path) -> None:
    """Clear what a killed save left beside ``directory``: if it was killed
    between its two renames, move the old index back; then remove every
    unfinished (``saving``) and retired (``old``) copy."""
    left = re.compile(rf"\.{re.escape(directory.name)}\.(saving|old)-[0-9a-f]{{8}}")
    found = [
        entry for entry in directory.parent.iterdir()
        if left.fullmatch(entry.name) and entry.is_dir()
    ]
    retired = [entry for entry in found if entry.name.startswith(f".{directory.name}.old-")]
    if retired and not directory.exists():
        newest = max(retired, key=lambda entry: entry.stat().st_mtime_ns)
        os.replace(newest, directory)
        found.remove(newest)
    for entry in found:
        shutil.rmtree(entry, ignore_errors=True)


def save_index(index: CorpusIndex, directory: str | Path) -> None:
    """Persist the index as format 6: ``index.npz`` and a manifest (see
    README "Data formats").

    ``index.npz`` holds every record field as one UTF-8 column in ascending
    id order, each view's CSR postings, and each view's ``columns`` as held
    in memory: ``int8`` for hashed rows (those ``int8`` holds exactly), else
    float64. The ids are stored once, as the record id columns. Offsets and
    postings are stored in the smallest dtype that holds them, and the file
    is deflated at level 2. Each array is made, written and dropped before
    the next (``_index_arrays``), so a save holds one stored array beside
    the index at a time. The manifest records the embedder, ``dim``, the
    record counts and the file's sha256.

    The files are written into a hidden sibling directory and fsynced, with
    that directory, which then takes the place of ``directory`` (a symlink
    is followed) by two renames: an existing index aside, the new one in.
    A save that raises before the renames leaves an existing index as it
    was. The next save to ``directory`` clears what a killed save left (see
    ``_recover``), so saves to one directory must not run at once. An
    existing ``directory`` must be a directory holding nothing but the files
    of an index of any format, or IndexBuildError is raised before anything
    is written; a save replaces an index of formats 1-4 in place.
    """
    directory = Path(directory).resolve()
    if directory.parent.is_dir():
        _recover(directory)
    if directory.exists():
        if not directory.is_dir():
            raise IndexBuildError(f"{directory}: not a directory")
        foreign = sorted(
            entry.name for entry in directory.iterdir()
            if entry.name not in (_INDEX_FILE, "manifest.json", *_OLD_FILES)
        )
        if foreign:
            raise IndexBuildError(
                f"{directory}: holds {', '.join(foreign)}; an index is saved only "
                "into a new directory or over another index"
            )
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = _sibling(directory, "saving")
    staging.mkdir()
    retired = None
    try:
        _write_npz(staging / _INDEX_FILE, _index_arrays(index))
        manifest = {
            "format_version": FORMAT_VERSION,
            "embedder": getattr(index.embedder, "name", "custom"),
            "dim": len(index.vectors[PASSAGES].columns),
            "passages": len(index.passages),
            "triples": len(index.triples),
            "sha256": {_INDEX_FILE: _sha256(staging / _INDEX_FILE)},
        }
        with open(staging / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        _fsync(staging / _INDEX_FILE)
        _fsync(staging / "manifest.json")
        _fsync(staging)
        if directory.exists():
            retired = _sibling(directory, "old")
            os.replace(directory, retired)
            try:
                os.replace(staging, directory)
            except BaseException:
                os.replace(retired, directory)
                raise
        else:
            os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _fsync(directory.parent)
    if retired is not None:
        shutil.rmtree(retired, ignore_errors=True)


# numpy parses a ``.npy`` header with ``ast``, which is not thread-safe in
# Python 3.11, and a load reads arrays on two threads: each parse holds this.
_HEADER_LOCK = threading.Lock()


class _Npz:
    """The ``index.npz`` at ``path``, parsed from ``data``, its bytes. Threads may
    read arrays at once: each header is parsed under ``_HEADER_LOCK``, and the
    rest takes no lock. Whatever does not read raises IndexBuildError naming ``path``."""

    # what an array that does not read raises; numpy's header parser, the last three too
    unreadable = (ValueError, zlib.error, IndexError, SyntaxError, TokenError)

    def __init__(self, path: Path, data: bytes):
        self.path, self.data = path, data
        try:
            with zipfile.ZipFile(io.BytesIO(data)) as zf:
                self.members = {info.filename: info for info in zf.infolist()}
        except (zipfile.BadZipFile, NotImplementedError) as e:  # a zip version past zipfile's
            raise self.fail(f"not an .npz file: {e}") from None

    def fail(self, problem: str) -> IndexBuildError:
        return IndexBuildError(f"{self.path}: {problem}")

    def __getitem__(self, key: str) -> np.ndarray:
        """Array ``key`` as ``np.load`` reads it without pickle, but as a read-only
        view of its member's bytes, and its header parsed once, not again by ``read_array``."""
        try:
            raw = self.inflate(key)
            fh = io.BytesIO(raw)
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):  # the one version ``_write_npz`` writes
                raise ValueError(f"unsupported .npy version {version}")
            with _HEADER_LOCK:
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype.hasobject:
                raise ValueError("an object array needs pickle, which a load never allows")
            size, held = math.prod(shape) * dtype.itemsize, len(raw) - fh.tell()
            if size != held:
                raise self.fail(f"array {key!r} claims shape {shape} of {dtype}, {size} bytes, "
                                f"but holds {held}")
            # ``np.ndarray``, not ``np.frombuffer``, which refuses a zero-width string.
            return np.ndarray(shape, dtype, raw, fh.tell(), order="F" if fortran else "C")
        except IndexBuildError:
            raise
        except self.unreadable as e:
            raise self.fail(f"array {key!r} does not read: {e}") from e

    def inflate(self, key: str) -> bytes:
        """Array ``key``'s member, inflated by one ``zlib`` call (which lets go of
        the interpreter) into the length its entry states, within deflate's 1032:1
        bound. ValueError unless it is stored or deflated, unencrypted, behind the
        local header its entry names, and of its entry's length and CRC-32."""
        info = self.members.get(f"{key}.npy")
        if info is None:
            raise self.fail(f"no array {key!r}")
        if info.flag_bits & 0x41:  # bit 0: encrypted; bit 6: strongly encrypted
            raise ValueError("the member is encrypted")
        if info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
            raise ValueError(f"compression method {info.compress_type}")
        at, name = info.header_offset, info.filename.encode()
        if self.data[at : at + 4] != b"PK\x03\x04" or self.data[at + 30 : at + 30 + len(name)] != name:
            raise ValueError("its local header is not the one its directory entry names")
        # the name and then the extra field follow the 30-byte local header
        start = at + 30 + len(name) + int.from_bytes(self.data[at + 28 : at + 30], "little")
        member = memoryview(self.data)[start:][: info.compress_size]
        if info.file_size > 1032 * len(member):  # checked before the buffer is allocated
            raise ValueError(f"{info.file_size} bytes inflated from {len(member)} pass deflate's 1032:1")
        raw = zlib.decompress(member, -15, info.file_size) if info.compress_type else bytes(member)
        if len(raw) != info.file_size or zlib.crc32(raw) != info.CRC:
            raise ValueError("its length or CRC-32 differs from its directory entry's")
        return raw

    def array(self, key: str, *dtypes: type, ndim: int = 1) -> np.ndarray:
        """Array ``key``, which must have ``ndim`` dimensions and a dtype that
        ``np.issubdtype`` counts as one of ``dtypes``. With none given, it
        must be an integer dtype in native byte order that ``np.intp``
        holds, so it is kept as stored and indexes, slices and counts as is.
        Any other raises IndexBuildError naming the key."""
        array = self[key]
        dtype = array.dtype
        wanted = " or ".join(d.__name__ for d in dtypes) or "native integer within intp"
        fits = any(np.issubdtype(dtype, d) for d in dtypes) if dtypes else (
            dtype.kind in "iu" and dtype.isnative and np.can_cast(dtype, np.intp))
        if array.ndim != ndim or not fits:
            raise self.fail(f"{key} is {array.ndim}-D {dtype}, not {ndim}-D {wanted}")
        return array

    def check_offsets(self, key: str, offsets: np.ndarray, total: int, of: str) -> None:
        """Raise IndexBuildError naming ``key`` unless ``offsets`` runs
        non-decreasing from 0 to ``total``, which the message calls ``of``.
        Neighbours are compared: a difference of unsigned values wraps."""
        if (
            not len(offsets) or offsets[0] != 0 or offsets[-1] != total
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise self.fail(f"{key} is not non-decreasing from 0 to {of}")


def _read_columns(npz: _Npz, name: str) -> tuple:
    """A view's columns, with ``_derived``'s norms and, for the triples', rows."""
    columns = npz.array(f"{name}_columns", np.int8, np.float64, ndim=2)
    return columns, _derived(columns, name == "triple")


def _read_vector_view(npz: _Npz, name: str, ids: tuple[str, ...], dim, read: Future) -> tuple:
    """The view, and the triple rows if it is the triples' (else None), from
    ``read``, a ``_read_columns`` job."""
    columns, (norms, positive, rows) = read.result()
    width, n = columns.shape
    if n != len(ids):
        raise npz.fail(f"{n} {name} vectors for {len(ids)} ids")
    if len(ids) and width != dim:
        width = f"{width}-wide {name} vectors"
        raise IndexBuildError(f"{npz.path.parent / 'manifest.json'}: dim {dim!r}, but {width}")
    return VectorView(ids, columns, norms, positive), rows


def _read_lexical_view(npz: _Npz, prefix: str, ids: tuple[str, ...]) -> LexicalView:
    doc_lengths, indptr, positions, term_freqs = (
        npz.array(f"{prefix}_{key}")
        for key in ("doc_lengths", "indptr", "doc_positions", "term_freqs")
    )
    vocab = npz.array(f"{prefix}_vocab", np.str_).tolist()
    if (
        len(doc_lengths) != len(ids)
        or len(term_freqs) != len(positions)
        or len(indptr) != len(vocab) + 1
    ):
        raise npz.fail(f"{prefix}_arrays disagree in length")
    if not all(map(lt, vocab, vocab[1:])):
        raise npz.fail(f"{prefix}_vocab is not strictly ascending")
    npz.check_offsets(f"{prefix}_indptr", indptr, len(positions), f"len({prefix}_doc_positions)")
    # ``indptr`` is non-decreasing now, so its differences do not wrap
    if not np.array_equal(npz[f"{prefix}_doc_freq"], np.diff(indptr)):
        raise npz.fail(f"{prefix}_doc_freq differs from np.diff(indptr)")
    if len(positions) and (positions.min() < 0 or positions.max() >= len(ids)):
        raise npz.fail(f"{prefix}_doc_positions has a position outside [0, {len(ids)})")
    ascending = positions[1:] > positions[:-1]
    starts = indptr[1:-1]  # a row's first position may be below the previous row's last
    ascending[starts[(starts > 0) & (starts < len(positions))] - 1] = True
    if not ascending.all():
        raise npz.fail(f"{prefix}_doc_positions is not strictly ascending within a row")
    if len(term_freqs) and term_freqs.min() < 1:
        raise npz.fail(f"{prefix}_term_freqs holds a frequency below 1")
    if not np.array_equal(doc_lengths, np.bincount(positions, term_freqs, len(ids))):
        raise npz.fail(f"{prefix}_doc_lengths differs from the term frequencies summed per text")
    return LexicalView(ids, doc_lengths, indptr, positions, term_freqs, dict(zip(vocab, count())))


def _read_utf8_column(npz: _Npz, key: str) -> tuple[str, np.ndarray]:
    """A text field of ``index.npz`` (see ``_utf8_column``) as ``(text, offsets)``."""
    try:
        text = str(npz[f"{key}_utf8"].data, "utf-8", "surrogatepass")
    except UnicodeDecodeError as e:
        raise npz.fail(f"{key}_utf8 is not UTF-8: {e.reason} at byte {e.start}") from e
    offsets = npz.array(f"{key}_offsets")
    of = f"the {len(text)} characters of {key}_utf8"
    npz.check_offsets(f"{key}_offsets", offsets, len(text), of)
    return text, offsets


def _read_records(npz: _Npz, manifest: dict) -> tuple[Records, Records]:
    """The passages and triples of ``index.npz``, each field decoded once
    and kept as a column; only the ids are sliced, and they are the one
    stored copy of the ids, which the views take too. Raises IndexBuildError
    naming the file when a field is not UTF-8, its offsets do not cut its
    text, the fields of a kind differ in count, or a count differs from the
    manifest's."""
    kinds = []
    for kind, (make, keys) in _RECORD_KINDS.items():
        columns = {key: _read_utf8_column(npz, f"{kind}_{key}") for key in keys}
        counts = [len(offsets) - 1 for _, offsets in columns.values()]
        if len(set(counts)) > 1:
            listed = ", ".join(f"{key} {n}" for key, n in zip(keys, counts))
            raise npz.fail(f"{kind} fields differ in count: {listed}")
        recorded = manifest.get(f"{kind}s")
        if counts[0] != recorded:
            raise npz.fail(f"{counts[0]} {kind}s, but manifest.json records {recorded!r}")
        kinds.append(Records(kind, make, tuple(_slices(*columns.pop("id"))), columns))
    return kinds[0], kinds[1]


def load_index(
    directory: str | Path,
    embedder: Callable[[str], np.ndarray] | None = None,
) -> CorpusIndex:
    """Load a persisted index of format 6 without recomputation. Any other
    ``format_version`` raises IndexBuildError naming ``triplehop index build``.

    The embedder is reconstructed from the manifest name unless one is passed
    explicitly (required for indexes saved with a custom embedding function).
    ``index.npz`` is read once, and must match the sha256 the manifest records
    for it before any of it is parsed: a file changed after the save fails,
    and what is parsed is what was hashed. The records get ``build_index``'s
    checks (``_graph``), and the views take their ids from them, while a second
    thread reads the views' columns and derives their norms and the triple rows
    (``_read_columns``). An array that does not read,
    is stored in another shape or dtype than a save writes, or disagrees with
    the others, and a manifest ``dim`` unlike the stored views' or a
    ``hash:<dim>`` embedder's, raises IndexBuildError naming the file. Every
    array is kept as stored, a read-only view of the inflated bytes: the
    integer arrays in the smallest dtype that holds them, as a build holds
    them (see ``_narrow``), and each view's columns.
    """
    from .base_retrieval import hash_dim, resolve_embedder

    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise IndexBuildError(f"{manifest_path}: not JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise IndexBuildError(f"{manifest_path}: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexBuildError(
            f"{manifest_path}: format_version {version!r}, but only {FORMAT_VERSION} "
            "loads; rebuild the index with `triplehop index build`"
        )
    path, recorded = directory / _INDEX_FILE, manifest.get("sha256")
    if not isinstance(recorded, dict) or list(recorded) != [_INDEX_FILE]:
        raise IndexBuildError(f"{manifest_path}: sha256 must name {_INDEX_FILE} alone")
    if not path.is_file():
        raise IndexBuildError(f"{path}: missing")
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != recorded[_INDEX_FILE]:
        raise IndexBuildError(f"{path}: content differs from its sha256 in {manifest_path.name}")
    if embedder is None:
        name = manifest.get("embedder", "custom")
        if name == "custom":
            raise IndexBuildError("index was saved with a custom embedder; pass one to load_index")
        try:
            embedder = resolve_embedder(str(name))
        except ValueError as e:
            raise IndexBuildError(f"{manifest_path}: embedder {name!r}: {e}") from e
    dim = manifest.get("dim")
    # An empty index stores dim 0, and any embedder may load it.
    if dim and hash_dim(embedder) not in (None, dim):
        raise IndexBuildError(f"{manifest_path}: dim {dim!r}, but the embedder is {embedder.name}")

    def read_views(passage_ids, triple_ids):
        lexical, vectors = {}, {}
        for (view, prefix, name), ids in zip(_NPZ_PREFIXES, (passage_ids, triple_ids)):
            lexical[view] = _read_lexical_view(npz, prefix, ids)
            vectors[view], rows = _read_vector_view(npz, name, ids, dim, reads[name])
        return lexical, vectors, rows  # the triple view's, read last

    npz = _Npz(path, data)
    with ThreadPoolExecutor(1) as pool:
        reads = {name: pool.submit(_read_columns, npz, name) for _, _, name in _NPZ_PREFIXES}
        return _assemble(*_read_records(npz, manifest), embedder, read_views, path)
