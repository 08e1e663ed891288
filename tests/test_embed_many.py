"""The batch embedding protocol: ``embed_many(texts)`` gives one row per
text, equal byte for byte to embedding each text alone, and every multi-text
call site (index build, dense search, the non-hash sequence scorer) makes one
call per batch instead of one per text.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    HttpEmbedder,
    Passage,
    RetrievalError,
    Triple,
    build_index,
    dense_search,
    hash_embed,
    load_index,
    resolve_embedder,
    save_index,
)
from triplehop import base_retrieval, corpus_index
from triplehop.corpus_index import PASSAGES, TRIPLES, IndexBuildError, serialize_triple
from triplehop.graph_expansion import make_cosine_scorer

from .conftest import build_hop_corpus
from .oracles import oracle_hash_embed

DIMS = [8, 64, 256, 257]

# 'İ' lower-cases to two characters, 'Σ' to 'σ' or a final 'ς' by its
# neighbours, 'ß' has a two-character upper case, and '𝔘' and '😀' are
# astral (one code point, two UTF-16 units).
ALPHABET = "aB İΣσςß;Ω𝔘😀"
TEXTS = st.text(alphabet=ALPHABET, max_size=12)


def stacked(texts, dim):
    """The reference: each text embedded alone."""
    if not texts:
        return np.zeros((0, dim))
    return np.stack([hash_embed(text, dim) for text in texts])


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# HashEmbedder.embed_many against hash_embed
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.text(alphabet=ALPHABET, max_size=2), TEXTS), max_size=14),
    st.sampled_from(DIMS),
    st.integers(1, 5),
    st.sampled_from([0, 10, base_retrieval._EMBED_ARRAY_CHARS]),
)
def test_embed_many_equals_stacked_hash_embed(texts, dim, chunk, array_chars):
    # A chunk of 1-5 texts puts most drawn batches over one chunk, and a
    # lowered ``_EMBED_ARRAY_CHARS`` sends small batches through the arrays too.
    saved = base_retrieval._EMBED_CHUNK, base_retrieval._EMBED_ARRAY_CHARS
    base_retrieval._EMBED_CHUNK, base_retrieval._EMBED_ARRAY_CHARS = chunk, array_chars
    try:
        got = HashEmbedder(dim).embed_many(texts)
    finally:
        base_retrieval._EMBED_CHUNK, base_retrieval._EMBED_ARRAY_CHARS = saved
    assert_bytes_equal(got, stacked(texts, dim))


CHUNK = base_retrieval._EMBED_CHUNK


@pytest.mark.parametrize("size", [0, 1, 2, 5, 6, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK + 7])
def test_embed_many_across_whole_chunks(size):
    texts = [f"Passage {i} of {size}: İstanbul ΟΔΟΣ straße {'𝔘' * (i % 4)}" for i in range(size)]
    texts[size // 2 : size // 2 + 3] = ["", "a", "ab"][: max(0, size - size // 2)]
    assert_bytes_equal(HashEmbedder(256).embed_many(texts), stacked(texts, 256))


@pytest.mark.parametrize("dim", DIMS)
def test_embed_many_lower_cases_each_text_on_its_own(monkeypatch, dim):
    # Joined before lower-casing, "ΑΣ" + "Α" would read "ΑΣΑ", whose Σ is not
    # final; alone it lower-cases to "ας". Pairs take the arrays too here.
    monkeypatch.setattr(base_retrieval, "_EMBED_ARRAY_CHARS", 0)
    texts = ["ΑΣ", "Α", "ΟΔΟΣ", "ΣΑ", "İ", "İİ", "aİb", "ß", "Straße", "😀😀😀", "a𝔘b𝔘"]
    assert "ΑΣ".lower() + "Α".lower() != ("ΑΣ" + "Α").lower()
    got = HashEmbedder(dim).embed_many(texts)
    assert_bytes_equal(got, stacked(texts, dim))
    for pair in (["ΑΣ", "Α"], ["Α", "ΑΣ"], ["ΣΣ", "ΣΣ"]):
        assert_bytes_equal(HashEmbedder(dim).embed_many(pair), stacked(pair, dim))


def test_embed_many_keeps_apart_trigrams_that_share_low_bits(monkeypatch):
    # Packed into 16 bits each, "ab" + U+10063 and "acc" would give one key;
    # 21 bits hold every code point up to U+10FFFF.
    monkeypatch.setattr(base_retrieval, "_EMBED_ARRAY_CHARS", 0)
    texts = ["ab\U00010063", "acc", "\U0010ffff\U0010ffff\U0010ffff", "\U0010fffe\U0010ffff\U0010ffff"]
    for dim in DIMS:
        assert_bytes_equal(HashEmbedder(dim).embed_many(texts), stacked(texts, dim))


@pytest.mark.parametrize("array_chars", [0, base_retrieval._EMBED_ARRAY_CHARS])
def test_embed_many_takes_any_sequence_and_hashes_as_hash_embed_does(monkeypatch, array_chars):
    monkeypatch.setattr(base_retrieval, "_EMBED_ARRAY_CHARS", array_chars)
    texts = ("alpha beta", "gamma")
    assert_bytes_equal(HashEmbedder(64).embed_many(texts), stacked(list(texts), 64))
    # A lone surrogate hashes by its surrogatepass bytes, alone or in a batch.
    lone = ["fine", "a\ud800b", "\udfff\ud800\udfff", "x\udc80", "\ud800", "ok!", "a\ud83d\ude00b"]
    assert_bytes_equal(HashEmbedder(64).embed_many(lone), stacked(lone, 64))
    for text in lone:
        assert hash_embed(text, 64).tobytes() == oracle_hash_embed(text, 64).tobytes()


# ---------------------------------------------------------------------------
# HashEmbedder construction and specs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [-1, 0, 4, 7])
def test_hash_embedder_rejects_a_dim_below_8(dim):
    with pytest.raises(ValueError, match=rf"dim must be >= 8, got {dim}"):
        HashEmbedder(dim)
    assert HashEmbedder(8).dim == 8


@pytest.mark.parametrize("spec", ["hash:x", "hash:", "hash:2.5", "hash:4"])
def test_resolve_embedder_names_a_bad_hash_spec(spec):
    with pytest.raises(ValueError, match=rf"embedder spec '{spec}'.*integer dim >= 8"):
        resolve_embedder(spec)
    assert resolve_embedder("hash:64") == HashEmbedder(64)


# ---------------------------------------------------------------------------
# Call sites: build, dense search, the non-hash scorer
# ---------------------------------------------------------------------------


class RecordingEmbedder:
    """Hash rows through ``embed_many`` only; records each batch. No
    ``hash:<dim>`` name, so the beam scorer takes its non-hash path."""

    name = "recording"

    def __init__(self, dim: int = 64):
        self.dim = dim
        self.batches: list[list[str]] = []

    def __call__(self, text):
        raise AssertionError("called one text at a time")

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return HashEmbedder(self.dim).embed_many(texts)


def _corpus():
    passages, triples, _ = build_hop_corpus(n_chains=3, n_distractors=2)
    passages.append(Passage("odd", "ΣΑ", "ΟΔΟΣ İstanbul straße 😀"))
    triples.append(Triple("odd1", "ΟΔΟΣ", "in", "İstanbul 𝔘", "odd"))
    return passages, triples


def _view_texts(index):
    passages = [index.passages[i].body for i in index.vectors[PASSAGES].ids]
    triples = [serialize_triple(index.triples[i]) for i in index.vectors[TRIPLES].ids]
    return passages, triples


@pytest.mark.parametrize("dim", [8, 128, 257])
def test_built_and_loaded_views_equal_per_text_vectors(tmp_path, dim):
    passages, triples = _corpus()
    index = build_index(passages, triples, HashEmbedder(dim))
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    # A plain callable takes the one-text-at-a-time path.
    plain = build_index(passages, triples, lambda text: hash_embed(text, dim))
    for view, texts in zip((PASSAGES, TRIPLES), _view_texts(index)):
        want = stacked(texts, dim)
        for got in (index, loaded, plain):
            assert got.vectors[view].columns.dtype == np.int8
            assert_bytes_equal(got.vectors[view].columns.T.astype(np.float64), want)
            assert got.vectors[view].sq_norms.tobytes() == index.vectors[view].sq_norms.tobytes()


def test_build_embeds_each_view_in_one_call():
    passages, triples = _corpus()
    embedder = RecordingEmbedder()
    index = build_index(passages, triples, embedder)
    want_passages, want_triples = _view_texts(index)
    assert embedder.batches == [want_passages, want_triples]
    # No texts, no call, and the (0, 0) columns of today's format.
    empty = RecordingEmbedder()
    no_triples = build_index(passages[:2], [], empty)
    assert len(empty.batches) == 1
    assert no_triples.vectors[TRIPLES].columns.shape == (0, 0)


def _block_corpus(n=10):
    passages = [Passage(f"p{i:02d}", "", f"body {i} of the corpus") for i in range(n)]
    triples = [Triple(f"t{i:02d}", f"s{i}", "r", f"o{i}", f"p{i:02d}") for i in range(n)]
    return passages, triples


def test_build_embeds_a_view_in_fixed_blocks_as_int8(monkeypatch):
    monkeypatch.setattr(corpus_index, "_EMBED_BLOCK", 4)
    passages, triples = _block_corpus()
    embedder = RecordingEmbedder()
    index = build_index(passages, triples, embedder)
    want_passages, want_triples = _view_texts(index)
    assert embedder.batches == [
        want_passages[:4], want_passages[4:8], want_passages[8:],
        want_triples[:4], want_triples[4:8], want_triples[8:],
    ]
    for view, texts in zip((PASSAGES, TRIPLES), (want_passages, want_triples)):
        columns = index.vectors[view].columns
        assert columns.dtype == np.int8 and columns.flags.c_contiguous
        assert_bytes_equal(columns.T.astype(np.float64), stacked(texts, 64))
    # An empty view is still (0, 0), with no call.
    empty = RecordingEmbedder()
    no_triples = build_index(passages, [], empty)
    assert len(empty.batches) == 3
    assert no_triples.vectors[TRIPLES].columns.shape == (0, 0)


class _FractionalFrom:
    """Hashed counts at dim 64, times 1.5 for texts that contain ``marker``:
    integer rows until the first such text, fractional ones from there."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self, text):
        counts = hash_embed(text, 64)
        return counts * 1.5 if self.marker in text else counts

    def embed_many(self, texts):
        return np.stack([self(text) for text in texts])


@pytest.mark.parametrize("batched", [True, False])
def test_a_view_turns_float64_from_its_first_fractional_block(monkeypatch, batched):
    monkeypatch.setattr(corpus_index, "_EMBED_BLOCK", 4)
    passages, triples = _block_corpus()
    # "body 6 " is in the second block of passages only; no triple has it.
    embedder = _FractionalFrom("body 6 ")
    if not batched:
        embedder = embedder.__call__
    index = build_index(passages, triples, embedder)
    want_passages, want_triples = _view_texts(index)
    columns = index.vectors[PASSAGES].columns
    assert columns.dtype == np.float64 and columns.flags.f_contiguous
    assert_bytes_equal(columns.T, np.stack([embedder(text) for text in want_passages]))
    assert index.vectors[TRIPLES].columns.dtype == np.int8
    assert_bytes_equal(index.vectors[TRIPLES].columns.T.astype(np.float64), stacked(want_triples, 64))


@pytest.mark.parametrize("batched", [True, False])
def test_build_rejects_blocks_of_different_widths(monkeypatch, batched):
    monkeypatch.setattr(corpus_index, "_EMBED_BLOCK", 4)
    passages, triples = _block_corpus()

    def widening(text):
        # bodies of passages p04 on are 16 wide, the rest 8
        return np.ones(16 if int(text.split()[1]) >= 4 else 8)

    class Batched:
        def __call__(self, text):
            raise AssertionError("called one text at a time")

        def embed_many(self, texts):
            return np.stack([widening(text) for text in texts])

    embedder = Batched() if batched else widening
    with pytest.raises(IndexBuildError, match=r"16-wide rows from 'p04' on, not 8-wide"):
        build_index(passages, triples, embedder)


def test_build_rejects_embed_many_rows_of_the_wrong_shape():
    class Short(RecordingEmbedder):
        def embed_many(self, texts):
            return super().embed_many(texts)[:-1]

    class Flat(RecordingEmbedder):
        def embed_many(self, texts):
            return np.zeros(len(texts))

    passages = [Passage("p1", "", "alpha beta"), Passage("p2", "", "gamma delta")]
    with pytest.raises(IndexBuildError, match=r"shape \(1, 64\) for 2 texts"):
        build_index(passages, [], Short())
    with pytest.raises(IndexBuildError, match=r"shape \(2,\) for 2 texts"):
        build_index(passages, [], Flat())


def test_dense_search_embeds_a_batch_in_one_call():
    passages, triples = _corpus()
    embedder = RecordingEmbedder()
    index = build_index(passages, triples, embedder)
    reference = build_index(passages, triples, HashEmbedder(64))
    queries = ["where does ent1a go", "ΟΔΟΣ", "zz", "ledger two"]
    embedder.batches.clear()
    got = dense_search(index, queries, PASSAGES, 5)
    assert embedder.batches == [queries]
    assert got == dense_search(reference, queries, PASSAGES, 5)
    embedder.batches.clear()
    assert dense_search(index, "ledger two", TRIPLES, 3) == dense_search(
        reference, "ledger two", TRIPLES, 3
    )
    assert embedder.batches == [["ledger two"]]


def test_dense_search_wraps_embed_many_failures():
    class Broken(RecordingEmbedder):
        def embed_many(self, texts):
            raise ConnectionError("down")

    index = build_index([Passage("p1", "", "alpha beta")], [], HashEmbedder(64))
    index.embedder = Broken()
    with pytest.raises(RetrievalError, match="query embedding failed: down"):
        dense_search(index, ["alpha", "beta"], PASSAGES, 1)


def test_non_hash_scorer_embeds_the_uncached_texts_of_a_batch_in_one_call():
    passages, triples = _corpus()
    embedder = RecordingEmbedder(128)
    index = build_index(passages, triples, embedder)
    plain = build_index(passages, triples, lambda text: hash_embed(text, 128))
    groups = [((), ["q1t1"]), (("q1t1",), ["q1t2"]), ((), ["q1t1", "odd1"])]
    sequences = [("q1t1",), ("q1t1", "q1t2"), ("q1t1",), ("odd1",)]
    embedder.batches.clear()
    scorer = make_cosine_scorer(index)
    got = scorer("where does ent1a go", groups)
    assert len(got) == 4
    assert got == make_cosine_scorer(plain)("where does ent1a go", groups)
    texts = ["where does ent1a go"] + [
        "; ".join(serialize_triple(index.triples[t]) for t in seq) for seq in sequences[:2]
    ] + ["; ".join(serialize_triple(index.triples[t]) for t in sequences[3])]
    assert embedder.batches == [texts]
    # Cached texts are not embedded again; a batch with nothing new makes no call.
    scorer("where does ent1a go", groups[:2])
    assert len(embedder.batches) == 1
    scorer("where does ent1a go", [((), ["q1t2"])])
    assert embedder.batches[1:] == [[serialize_triple(index.triples["q1t2"])]]


# ---------------------------------------------------------------------------
# The shared trigram memo under threads
# ---------------------------------------------------------------------------


def test_embed_many_fills_the_shared_memo_safely_from_threads():
    passages, triples, _ = build_hop_corpus(n_chains=12, n_distractors=12)
    texts = [p.body for p in passages] + [serialize_triple(t) for t in triples]
    texts += ["ΑΣ", "Α", "İstanbul ΟΔΟΣ", "straße 😀😀", ""]
    batches = [texts[i::3] + texts[: i + 5] for i in range(6)]
    base_retrieval._TRIGRAM_CODES.clear()
    results: list = [None] * len(batches)
    errors: list = []

    def work(slot):
        try:
            results[slot] = HashEmbedder(96).embed_many(batches[slot])
        except Exception as e:  # noqa: BLE001 - reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    threaded_memo = dict(base_retrieval._TRIGRAM_CODES[96])
    base_retrieval._TRIGRAM_CODES.clear()
    for got, batch in zip(results, batches):
        assert_bytes_equal(got, stacked(batch, 96))
    assert threaded_memo == base_retrieval._TRIGRAM_CODES[96]


# ---------------------------------------------------------------------------
# HttpEmbedder: chunked requests
# ---------------------------------------------------------------------------


def _vector(text: str) -> list[float]:
    return [float(len(text)), float(sum(map(ord, text)) % 97), 1.0]


class FakeEmbeddingServer:
    """Stands in for ``requests.post``: answers each request's inputs with
    ``_vector`` rows, their ``index`` items in reversed order. A request of
    more than ``limit`` inputs gets a ``refuse`` reply (a status, or an
    exception to raise)."""

    def __init__(self, drop_last: bool = False, limit: int | None = None, refuse=413):
        self.payloads: list[dict] = []
        self.drop_last = drop_last
        self.limit = limit
        self.refuse = refuse

    def __call__(self, url, **kwargs):
        payload = kwargs["json"]
        self.payloads.append(payload)
        if self.limit is not None and len(payload["input"]) > self.limit:
            if isinstance(self.refuse, Exception):
                raise self.refuse
            return _reply([], self.refuse)
        items = [
            {"object": "embedding", "index": i, "embedding": _vector(text)}
            for i, text in enumerate(payload["input"])
        ][::-1]
        return _reply(items[:-1] if self.drop_last else items)

    def sizes(self) -> list[int]:
        return [len(p["input"]) for p in self.payloads]


def _reply(items: list[dict], status: int = 200) -> requests.Response:
    response = requests.Response()
    response.status_code = status
    response._content = json.dumps({"data": items}).encode()
    return response


@pytest.fixture()
def sleeps(monkeypatch):
    waits: list[float] = []
    monkeypatch.setattr(time, "sleep", waits.append)
    return waits


def test_http_build_sends_each_view_in_fixed_size_chunks(monkeypatch):
    chunk = base_retrieval._HTTP_EMBED_CHUNK
    passages = [Passage(f"p{i:03d}", "", f"body {i} " * (i % 5 + 1)) for i in range(chunk + 7)]
    triples = [Triple(f"t{i}", f"s{i}", "r", f"o{i}", f"p{i:03d}") for i in range(5)]
    server = FakeEmbeddingServer()
    monkeypatch.setattr(requests, "post", server)
    index = build_index(passages, triples, HttpEmbedder("http://embed.invalid/v1", model="m"))
    assert chunk == 32
    assert len(server.payloads) == math.ceil(len(passages) / chunk) + 1
    assert server.sizes() == [chunk, 7, 5]
    assert all(p["model"] == "m" for p in server.payloads)
    passage_texts, triple_texts = _view_texts(index)
    assert [t for p in server.payloads[:2] for t in p["input"]] == passage_texts
    assert server.payloads[2]["input"] == triple_texts
    # Rows follow each item's "index", not the reply's order.
    assert index.vectors[PASSAGES].columns.T.tolist() == [_vector(t) for t in passage_texts]
    assert index.vectors[TRIPLES].columns.T.tolist() == [_vector(t) for t in triple_texts]
    # One text is one request of one input.
    server.payloads.clear()
    assert HttpEmbedder("http://embed.invalid/v1")("abc").tolist() == _vector("abc")
    assert server.payloads == [{"input": ["abc"]}]


def test_http_embed_many_rejects_a_short_reply(monkeypatch, sleeps):
    server = FakeEmbeddingServer(drop_last=True)
    monkeypatch.setattr(requests, "post", server)
    embedder = HttpEmbedder("http://embed.invalid/v1")
    with pytest.raises(RetrievalError, match="2 embeddings for 3 texts"):
        embedder.embed_many(["a", "b", "c"])
    assert len(server.payloads) == 1  # not retried
    with pytest.raises(RetrievalError):
        build_index([Passage("p1", "", "x"), Passage("p2", "", "y")], [], embedder)
    assert sleeps == []


def test_http_embed_many_rejects_indexes_that_are_not_a_permutation(monkeypatch):
    items = [{"index": 0, "embedding": [1.0]}, {"index": 0, "embedding": [2.0]}]
    monkeypatch.setattr(requests, "post", lambda url, **kwargs: _reply(items))
    with pytest.raises(RetrievalError, match=r"indexes \[0, 0\] for 2 texts"):
        HttpEmbedder("http://embed.invalid/v1").embed_many(["a", "b"])


def test_http_embed_many_halves_requests_an_endpoint_refuses(monkeypatch, sleeps):
    # An endpoint that takes at most 6 inputs answers 413 to more, as
    # text-embeddings-inference does past its client batch limit.
    server = FakeEmbeddingServer(limit=6)
    monkeypatch.setattr(requests, "post", server)
    embedder = HttpEmbedder("http://embed.invalid/v1")
    texts = [f"text {i}" for i in range(40)]
    assert embedder.embed_many(texts).tolist() == [_vector(t) for t in texts]
    # 32 and 16 are refused, 8 is refused, then 4-text requests pass and stay.
    assert server.sizes() == [32, 16, 8] + [4] * 10
    assert [t for p in server.payloads if len(p["input"]) == 4 for t in p["input"]] == texts
    server.payloads.clear()
    assert embedder.embed_many(texts[:9]).tolist() == [_vector(t) for t in texts[:9]]
    assert server.sizes() == [4, 4, 1]
    assert sleeps == []  # a 4xx is not retried, only split


def test_http_embed_many_halves_requests_that_time_out(monkeypatch, sleeps):
    server = FakeEmbeddingServer(limit=2, refuse=requests.Timeout("slow"))
    monkeypatch.setattr(requests, "post", server)
    embedder = HttpEmbedder("http://embed.invalid/v1")
    texts = ["alpha", "beta", "gamma", "delta", "epsilon"]
    assert embedder.embed_many(texts).tolist() == [_vector(t) for t in texts]
    # Each size is tried post_json's three times before it is halved.
    assert server.sizes() == [5] * 3 + [2, 2, 1]
    assert len(sleeps) == 2


def test_http_one_text_failures_and_bad_replies_are_not_split(monkeypatch, sleeps):
    # One text that gets a 4xx fails after one request, as it always did.
    server = FakeEmbeddingServer(limit=0, refuse=404)
    monkeypatch.setattr(requests, "post", server)
    with pytest.raises(RetrievalError, match="404"):
        HttpEmbedder("http://embed.invalid/v1")("abc")
    assert server.sizes() == [1]
    # Several texts are split down to one, then fail the same way.
    server.payloads.clear()
    with pytest.raises(RetrievalError, match="404"):
        HttpEmbedder("http://embed.invalid/v1").embed_many(["a", "b", "c", "d"])
    assert server.sizes() == [4, 2, 1]
    # A 5xx on every attempt, or a reply that cannot be read, is not split.
    server = FakeEmbeddingServer(limit=0, refuse=503)
    monkeypatch.setattr(requests, "post", server)
    with pytest.raises(RetrievalError, match="3 attempts: HTTP 503"):
        HttpEmbedder("http://embed.invalid/v1").embed_many(["a", "b"])
    assert server.sizes() == [2, 2, 2]
    server = FakeEmbeddingServer(drop_last=True)
    monkeypatch.setattr(requests, "post", server)
    with pytest.raises(RetrievalError, match="3 embeddings for 4 texts"):
        HttpEmbedder("http://embed.invalid/v1").embed_many(["a", "b", "c", "d"])
    assert server.sizes() == [4]
