"""Microbenchmarks, deselected from the default run: ``pytest -m bench``."""

from __future__ import annotations

import pytest

from triplehop import HashEmbedder, Passage, Triple, build_index
from triplehop.corpus_index import get_neighbours
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
