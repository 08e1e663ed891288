"""Memoised hash embedding and incremental sequence scoring against their
straightforward references: every result must be bit-identical.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    ExpansionConfig,
    HashEmbedder,
    Passage,
    RetrievalConfig,
    Triple,
    build_index,
    diverse_beam_search,
    hash_embed,
)
from triplehop import base_retrieval
from triplehop.eval_harness import RetrieverSystem, run_eval
from triplehop.graph_expansion import make_cosine_scorer

from .conftest import build_hop_corpus
from .oracles import oracle_hash_embed, oracle_sequence_scorer

# 'İ' lower-cases to two characters, 'Σ' to 'σ' or a final 'ς' depending on
# its neighbours, and 'ß' has a two-character upper case.
TEXTS = [
    "",
    "a",
    "ab",
    "abc",
    "İ",
    "İİ",
    "aİb",
    "Σ",
    "ΣΑ",
    "ΟΔΟΣ",
    "ß",
    "Straße",
    "İstanbul; ΣΟΦΙΑ straße",
    "Bremen Cathedral dedicated to St. Peter",
]


@pytest.mark.parametrize("dim", [8, 64, 256, 257])
@pytest.mark.parametrize("text", TEXTS)
def test_hash_embed_matches_reference(text, dim):
    assert hash_embed(text, dim).tobytes() == oracle_hash_embed(text, dim).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="aB İΣσςß;Ω", max_size=20), st.sampled_from([8, 64, 256, 257]))
def test_hash_embed_matches_reference_on_random_text(text, dim):
    assert hash_embed(text, dim).tobytes() == oracle_hash_embed(text, dim).tobytes()


def _nonblank(alphabet: str, max_size: int):
    return st.text(alphabet=alphabet, min_size=1, max_size=max_size).filter(str.strip)


@st.composite
def hash_graphs(draw):
    """A small random graph whose entity names start and end with characters
    that lower-case to more characters or depend on their neighbours."""
    entities = draw(st.lists(_nonblank("aİΣß ", 4), min_size=2, max_size=4))
    n_triples = draw(st.integers(2, 8))
    passages, triples = [], []
    for i in range(n_triples):
        subject = draw(st.sampled_from(entities))
        obj = draw(st.sampled_from(entities))
        predicate = draw(_nonblank("bİΣ", 3))
        passages.append(Passage(f"p{i}", "", f"{subject} {predicate} {obj}"))
        triples.append(Triple(f"t{i}", subject, predicate, obj, f"p{i}"))
    dim = draw(st.sampled_from([8, 64, 257]))
    return build_index(passages, triples, HashEmbedder(dim)), dim


@settings(max_examples=100, deadline=None)
@given(
    hash_graphs(),
    st.text(alphabet="aİΣß b", max_size=12),
    st.data(),
)
def test_incremental_scorer_matches_serialize_and_embed(graph, query, data):
    index, dim = graph
    tids = sorted(index.triples)
    sequences = data.draw(
        st.lists(
            st.lists(st.sampled_from(tids), min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=12,
        )
    )
    reference = oracle_sequence_scorer(index.triples, lambda t: oracle_hash_embed(t, dim))
    # The same embedding without the "hash:<dim>" name takes the
    # serialize-and-embed path.
    unnamed = dataclasses.replace(index, embedder=lambda t: hash_embed(t, dim))
    incremental = make_cosine_scorer(index)
    plain = make_cosine_scorer(unnamed)
    for sequence in sequences:
        expected = reference(query, sequence)
        assert incremental(query, sequence) == expected, sequence
        assert plain(query, sequence) == expected, sequence


@settings(max_examples=50, deadline=None)
@given(hash_graphs(), st.text(alphabet="aİΣß b", max_size=12), st.integers(1, 4))
def test_beam_search_unchanged_by_incremental_scorer(graph, query, max_length):
    index, dim = graph
    cfg = ExpansionConfig(beam_width=3, max_length=max_length, neighbour_cap=3, gamma=2.0)
    initial = sorted(index.triples)[:3]
    reference = oracle_sequence_scorer(index.triples, lambda t: oracle_hash_embed(t, dim))
    assert diverse_beam_search(index, query, initial, cfg) == diverse_beam_search(
        index, query, initial, cfg, scorer=reference
    )


class _RecordingSystem(RetrieverSystem):
    """Keeps every ranked list it returns, keyed by question id."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ranked: dict[str, tuple] = {}

    def run(self, question):
        result = super().run(question)
        self.ranked[question.id] = result.ranked.entries
        return result


def test_shared_trigram_memo_is_thread_safe():
    passages, triples, questions = build_hop_corpus(n_chains=12, n_distractors=12)
    embedder = HashEmbedder(96)
    index = build_index(passages, triples, embedder)
    retrieval = RetrievalConfig(k=5, retriever="hybrid")
    expansion = ExpansionConfig(beam_width=4, max_length=3)
    threaded = _RecordingSystem(index, retrieval, mode="naive-ge", expansion=expansion)
    serial = _RecordingSystem(index, retrieval, mode="naive-ge", expansion=expansion)
    # Start the threaded run from an empty memo so its workers race to fill it.
    base_retrieval._TRIGRAM_CODES.pop(embedder.dim, None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded_report = run_eval(questions, threaded, workers=4)
    finally:
        sys.setswitchinterval(interval)
    serial_report = run_eval(questions, serial, workers=1)
    assert threaded_report.failures == 0
    assert threaded_report.rows == serial_report.rows
    assert threaded.ranked == serial.ranked
    assert len(threaded.ranked) == len(questions)
