"""Microbenchmarks, deselected from the default run: ``pytest -m bench``."""

from __future__ import annotations

import numpy as np
import pytest

from triplehop import (
    ExpansionConfig,
    HashEmbedder,
    Passage,
    ProximalTriple,
    RankedList,
    RetrievalConfig,
    Triple,
    bm25_search,
    build_index,
    dense_search,
    diverse_beam_search,
    hash_embed,
    hybrid_search,
    load_index,
    passage_link,
    rrf_fuse,
    save_index,
)
from triplehop.corpus_index import PASSAGES, LexicalView, get_neighbours, passage_search_text
from triplehop.graph_expansion import make_cosine_scorer

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def hub_index():
    """1,001 people all born in Germany: every triple neighbours 1,000 others."""
    passages, triples = [], []
    for i in range(1001):
        pid = f"p{i:04d}"
        passages.append(Passage(pid, f"Person {i}", f"Person {i} was born in Germany."))
        triples.append(Triple(f"t{i:04d}", f"Person {i}", "born in", "Germany", pid))
    return build_index(passages, triples, HashEmbedder(256))


def test_score_hub_beam(benchmark, hub_index):
    """One beam-search step through the hub, as a search makes it: a fresh
    scorer scores the one initial triple, then all 1,000 extensions of it."""
    cfg = ExpansionConfig(beam_width=1, max_length=2)

    def step():
        return diverse_beam_search(hub_index, "where was Person 7 born", ["t0000"], cfg)

    beams = benchmark(step)
    assert len(get_neighbours(hub_index, "t0000")) == 1000
    assert [len(beam.sequence) for beam in beams] == [2]



def test_score_hub_step_of_33(benchmark, hub_index):
    """One scorer call of one group of 33 extensions off the hub, the size of
    the median scorer call on the hub-expand workload, with the search's
    query and the beam's prefix already made, as in a search's later calls."""
    query = "where was Person 7 born"
    score = make_cosine_scorer(hub_index)
    score(query, [((), ["t0000"])])
    groups = [(("t0000",), [f"t{i:04d}" for i in range(1, 34)])]
    scores = benchmark(score, query, groups)
    assert len(scores) == 33 and scores == make_cosine_scorer(hub_index)(query, groups)


def test_passage_link_ten_facts(benchmark, hub_index):
    """``passage_link`` of ten memory facts at the default depth of 15, as
    the agent links its memory after its last iteration."""
    facts = [ProximalTriple(f"Person {i}", "born in", "Germany") for i in range(0, 1000, 100)]
    linked = benchmark(passage_link, hub_index, facts, RetrievalConfig(), 15)
    assert [len(ranked) for ranked in linked] == [15] * 10


def test_rrf_fuse_two_lists_of_15(benchmark):
    """RRF of two 15-entry lists that share five ids, as hybrid search fuses
    its BM25 and dense lists for one ``passage_link`` fact."""
    first = RankedList(tuple((f"p{i:02d}", 1.0 - i / 100) for i in range(15)))
    second = RankedList(tuple((f"p{i:02d}", 1.0 - i / 100) for i in range(10, 25)))
    fused = benchmark(rrf_fuse, [first, second], 60)
    assert len(fused) == 25


@pytest.fixture(scope="module")
def two_hub_index():
    """500 people born in Germany and 500 in France: two hubs, where every
    triple neighbours the 499 others of its country."""
    passages, triples = [], []
    for i in range(1000):
        pid = f"p{i:04d}"
        country = "Germany" if i < 500 else "France"
        passages.append(Passage(pid, f"Person {i}", f"Person {i} was born in {country}."))
        triples.append(Triple(f"t{i:04d}", f"Person {i}", "born in", country, pid))
    return build_index(passages, triples, HashEmbedder(256))


def test_score_two_hub_beams(benchmark, two_hub_index):
    """One beam-search step with two beams, one on each hub, as the tail
    questions of the hub-expand workload make it: a fresh scorer scores the
    two initial triples, then one group of 499 extensions per beam."""
    cfg = ExpansionConfig(beam_width=2, max_length=2)

    def step():
        return diverse_beam_search(
            two_hub_index, "where was Person 7 born", ["t0000", "t0500"], cfg
        )

    beams = benchmark(step)
    assert [len(get_neighbours(two_hub_index, tid)) for tid in ("t0000", "t0500")] == [499] * 2
    assert [len(beam.sequence) for beam in beams] == [2, 2]


def test_search_ten_beams_on_two_hubs(benchmark, two_hub_index):
    """A search whose ten beams start on two hubs, five on each: its step
    scores 4,950 extensions, cuts each beam at the neighbour cap of 100 and
    selects ten of the 1,000 left, where ``test_score_hub_beam`` keeps its
    one beam's best."""
    cfg = ExpansionConfig(beam_width=10, max_length=2)
    initial = [f"t{i:04d}" for i in (*range(5), *range(500, 505))]

    def search():
        return diverse_beam_search(two_hub_index, "where was Person 7 born", initial, cfg)

    beams = benchmark(search)
    assert [len(beam.sequence) for beam in beams] == [2] * 10

# 32 lower-case letters, so 32 x 32 two-letter heads tell 1,024 subjects apart.
_HEAD_LETTERS = "abcdefghijklmnopqrstuvwxyzàáâãäå"


@pytest.fixture(scope="module")
def distinct_hub_index():
    """``hub_index`` with a distinct first two letters per person, so no two
    triples share the head of their serialization."""
    passages, triples = [], []
    for i in range(1001):
        pid = f"p{i:04d}"
        name = _HEAD_LETTERS[i // 32] + _HEAD_LETTERS[i % 32] + f"son {i}"
        passages.append(Passage(pid, name, f"{name} was born in Germany."))
        triples.append(Triple(f"t{i:04d}", name, "born in", "Germany", pid))
    return build_index(passages, triples, HashEmbedder(256))


def test_score_hub_beam_distinct_heads(benchmark, distinct_hub_index):
    """``test_score_hub_beam``'s step where the 1,000 extensions have 1,000
    distinct heads."""
    cfg = ExpansionConfig(beam_width=1, max_length=2)

    def step():
        return diverse_beam_search(
            distinct_hub_index, "where was Person 7 born", ["t0000"], cfg
        )

    beams = benchmark(step)
    neighbours = get_neighbours(distinct_hub_index, "t0000")
    assert len(neighbours) == 1000
    heads = {distinct_hub_index.triples[tid].subject.lower()[:2] for tid in neighbours}
    assert len(heads) == 1000
    assert [len(beam.sequence) for beam in beams] == [2]


_SYLLABLES = ("ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "vu", "ze")


def _name(i: int) -> str:
    return "".join(_SYLLABLES[int(d)] for d in f"{i:05d}").capitalize()


@pytest.fixture(scope="module")
def dense_index():
    """10,240 passages hashed at dim 256, no triples."""
    passages = [
        Passage(f"p{i:05d}", "", f"{_name(i)} was born in {_name(i * 7 % 10240)}.")
        for i in range(10240)
    ]
    return build_index(passages, [], HashEmbedder(256))


def test_dense_search_one_query(benchmark, dense_index):
    """One question against the 10k-passage view."""
    result = benchmark(dense_search, dense_index, "Where was Kalominupe born?", PASSAGES, 10)
    assert len(result) == 10


def test_dense_search_batch_of_ten(benchmark, dense_index):
    """Ten questions in one call, as the agent links facts."""
    queries = [f"Where was {_name(i)} born?" for i in range(0, 1000, 100)]
    results = benchmark(dense_search, dense_index, queries, PASSAGES, 10)
    assert [len(result) for result in results] == [10] * 10


def test_bm25_search_one_query(benchmark, dense_index):
    """One question against the 10k-passage view."""
    result = benchmark(bm25_search, dense_index, "Where was Kalominupe born?", PASSAGES, 10)
    assert len(result) == 10


def test_bm25_search_batch_of_ten(benchmark, dense_index):
    """Ten questions in one call, as the agent links facts."""
    queries = [f"Where was {_name(i)} born?" for i in range(0, 1000, 100)]
    results = benchmark(bm25_search, dense_index, queries, PASSAGES, 10)
    assert [len(result) for result in results] == [10] * 10


def test_hybrid_search_one_query(benchmark, dense_index):
    """One question against the 10k-passage view, as a base query makes it."""
    result = benchmark(hybrid_search, dense_index, "Where was Kalominupe born?", PASSAGES, 10)
    assert len(result) == 10


def test_hybrid_search_batch_of_ten(benchmark, dense_index):
    """Ten questions in one call, as the agent links facts."""
    queries = [f"Where was {_name(i)} born?" for i in range(0, 1000, 100)]
    results = benchmark(hybrid_search, dense_index, queries, PASSAGES, 10)
    assert [len(result) for result in results] == [10] * 10


def test_lexical_view_from_texts_dense_index_passages(benchmark, dense_index):
    """``LexicalView.from_texts`` over the 10,240 passage texts, as
    ``build_index`` makes the passage view."""
    built = dense_index.lexical[PASSAGES]
    texts = [passage_search_text(dense_index.passages[pid]) for pid in built.ids]
    view = benchmark(LexicalView.from_texts, built.ids, texts)
    assert list(view.rows.items()) == list(built.rows.items())
    for key in ("doc_lengths", "indptr", "doc_positions", "term_freqs"):
        assert getattr(view, key).tobytes() == getattr(built, key).tobytes()


def test_embed_many_dense_index_passages(benchmark, dense_index):
    """``embed_many`` over the 10,240 passage texts, as ``build_index``
    embeds a view."""
    embedder = dense_index.embedder
    texts = [dense_index.passages[pid].body for pid in dense_index.vectors[PASSAGES].ids]
    rows = benchmark(embedder.embed_many, texts)
    assert rows.tobytes() == dense_index.vectors[PASSAGES].columns.T.astype(np.float64).tobytes()


@pytest.mark.parametrize("how", ["embed_many", "hash_embed"])
def test_embed_one_text(benchmark, dense_index, how):
    """A batch of one, as a single query is embedded, against ``hash_embed``
    itself: the one-text path must be no slower."""
    embedder = dense_index.embedder
    text = "Where was Kalominupe born?"
    if how == "embed_many":
        row = benchmark(embedder.embed_many, [text])[0]
    else:
        row = benchmark(hash_embed, text, embedder.dim)
    assert row.tobytes() == hash_embed(text, embedder.dim).tobytes()


def test_save_index_dense_index(benchmark, dense_index, tmp_path):
    """``save_index`` of the 10k-passage index, each round over the last."""
    target = tmp_path / "idx"
    benchmark(save_index, dense_index, target)
    assert load_index(target).passages == dense_index.passages


def test_load_index_dense_index(benchmark, dense_index, tmp_path):
    """``load_index`` of the 10k-passage index."""
    save_index(dense_index, tmp_path / "idx")
    loaded = benchmark(load_index, tmp_path / "idx")
    assert loaded.vectors[PASSAGES].columns.tobytes() == (
        dense_index.vectors[PASSAGES].columns.tobytes()
    )
    assert loaded.triple_rows.tobytes() == dense_index.triple_rows.tobytes()
