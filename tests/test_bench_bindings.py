"""The benchmark's tracer wraps package functions by name where they are
bound. Installing and uninstalling it must find every such name and put every
original back, so renaming or deleting a wrapped name fails here rather than
only in a traced benchmark run."""

from __future__ import annotations

from pathlib import Path

import pytest

from triplehop import (
    HashEmbedder,
    Passage,
    RankedList,
    RetrievalConfig,
    base_retrieve,
    bm25_search,
    build_index,
    dense_search,
    hybrid_search,
)
from triplehop.corpus_index import PASSAGES

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_bound_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    targets = [
        (module, name)
        for _, name, modules in tracing.FUNCTIONS
        for module in modules
    ] + [(cls, name) for _, cls, name in tracing.METHODS]
    originals = [(owner, name, owner.__dict__[name]) for owner, name in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, name, original in originals:
            assert owner.__dict__[name] is not original, (owner, name)
    finally:
        tracer.uninstall()
    for owner, name, original in originals:
        assert owner.__dict__[name] is original, (owner, name)


@pytest.mark.parametrize(
    "search",
    [
        bm25_search,
        dense_search,
        hybrid_search,
        lambda index, q, view, k: base_retrieve(index, q, view, RetrievalConfig(k=k)),
    ],
)
def test_str_query_returns_one_ranked_list(search):
    # The benchmark's operations and output checks pass one question as a
    # str and read ``.entries``; a str is also a Sequence[str], and searching
    # it as a batch would search one character at a time.
    index = build_index([Passage("p1", "", "alpha beta"), Passage("p2", "", "beta")],
                        [], HashEmbedder(16))
    result = search(index, "alpha beta", PASSAGES, 2)
    assert isinstance(result, RankedList)
    assert result.ids[0] == "p1"
