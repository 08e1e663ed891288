"""Microbenchmarks, deselected from the default run: ``pytest -m bench``."""

from __future__ import annotations

import pytest

from triplehop import HashEmbedder, Passage, Triple, build_index, dense_search
from triplehop.corpus_index import PASSAGES, get_neighbours
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
    """One beam step through the hub: a fresh scorer (as in one search)
    scores all 1,000 extensions of a one-triple beam."""
    candidates = [("t0000", tid) for tid in sorted(get_neighbours(hub_index, "t0000"))]
    assert len(candidates) == 1000

    def step():
        scorer = make_cosine_scorer(hub_index)
        return [scorer("where was Person 7 born", sequence) for sequence in candidates]

    scores = benchmark(step)
    assert len(scores) == 1000


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
