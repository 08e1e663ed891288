"""Memoised hash embedding and incremental sequence scoring against their
straightforward references: every result must be bit-identical.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    AgentConfig,
    Beam,
    ExpansionConfig,
    HashEmbedder,
    Passage,
    RetrievalConfig,
    Triple,
    build_index,
    diverse_beam_search,
    hash_embed,
    load_index,
    run_agent,
    save_index,
)
from triplehop import base_retrieval, eval_harness
from triplehop.eval_harness import AgentSystem, RetrieverSystem, run_eval
from triplehop.graph_expansion import make_cosine_scorer

from .conftest import RecordingBackend, build_hop_corpus, hop_reader_script
from .oracles import (
    brute_force_adjacency,
    grouped,
    oracle_beam_search,
    oracle_hash_embed,
    oracle_sequence_scorer,
)

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
    that lower-case to more characters or depend on their neighbours, with a
    hub entity that joins at least five triples, so each of those has more
    neighbours than the ``neighbour_cap`` of the beam tests."""
    entities = draw(st.lists(_nonblank("aİΣß ", 4), min_size=2, max_size=4))
    hub = draw(_nonblank("aİΣß ", 3))
    n_triples = draw(st.integers(2, 8))
    n_hub = draw(st.integers(5, 8))
    passages, triples = [], []
    for i in range(n_triples + n_hub):
        subject = draw(st.sampled_from(entities))
        obj = hub if i >= n_triples else draw(st.sampled_from(entities))
        if i >= n_triples and draw(st.booleans()):
            subject, obj = obj, subject
        predicate = draw(_nonblank("bİΣ", 3))
        passages.append(Passage(f"p{i}", "", f"{subject} {predicate} {obj}"))
        triples.append(Triple(f"t{i}", subject, predicate, obj, f"p{i}"))
    dim = draw(st.sampled_from([8, 64, 257]))
    return build_index(passages, triples, HashEmbedder(dim)), dim


# Queries of fewer than three characters have no trigram: every score is 0.
QUERIES = st.one_of(
    st.text(alphabet="aİΣß b", max_size=2), st.text(alphabet="aİΣß b", max_size=12)
)


@settings(max_examples=100, deadline=None)
@given(hash_graphs(), QUERIES, st.data())
def test_incremental_scorer_matches_serialize_and_embed(graph, query, data):
    index, dim = graph
    tids = sorted(index.triples)
    # Several (prefix, next_ids) groups per call: the empty prefix, prefixes
    # of up to three triples, and groups with no next id.
    groups = data.draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(tids), max_size=3).map(tuple),
                st.lists(st.sampled_from(tids), max_size=4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    reference = oracle_sequence_scorer(index.triples, lambda t: oracle_hash_embed(t, dim))
    # The same embedding without the "hash:<dim>" name takes the
    # serialize-and-embed path.
    unnamed = dataclasses.replace(index, embedder=lambda t: hash_embed(t, dim))
    incremental = make_cosine_scorer(index)
    plain = make_cosine_scorer(unnamed)
    sequences = [prefix + (tid,) for prefix, next_ids in groups for tid in next_ids]
    expected = [reference(query, sequence).hex() for sequence in sequences]

    def bits(scorer, groups):
        return [score.hex() for score in scorer(query, groups)]

    # One call of every group, and each sequence alone.
    assert bits(incremental, groups) == expected
    assert bits(plain, groups) == expected
    for sequence, want in zip(sequences, expected):
        alone = [(sequence[:-1], sequence[-1:])]
        assert bits(incremental, alone) == [want], sequence
        assert bits(plain, alone) == [want], sequence


def hex_beams(beams) -> list[tuple[str, tuple[str, ...]]]:
    """(``float.hex`` of the score, sequence) per Beam."""
    return [(beam.score.hex(), beam.sequence) for beam in beams]


def saved_and_loaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        return load_index(tmp)


@settings(max_examples=60, deadline=None)
@given(
    hash_graphs(), QUERIES, st.integers(1, 4), st.integers(1, 3),
    st.sampled_from([2.0, 2.5, 0.75]), st.data(),
)
def test_beam_search_unchanged_by_incremental_scorer(graph, query, max_length, cap, gamma, data):
    index, dim = graph
    cfg = ExpansionConfig(beam_width=3, max_length=max_length, neighbour_cap=cap, gamma=gamma)
    initial = data.draw(
        st.lists(st.sampled_from(sorted(index.triples)), min_size=1, max_size=4, unique=True)
    )
    reference = oracle_sequence_scorer(index.triples, lambda t: oracle_hash_embed(t, dim))
    oracle_calls: list[tuple[str, ...]] = []

    def recorded(calls):
        def scorer(q, sequence):
            calls.append(sequence)
            return reference(q, sequence)

        return scorer

    want = hex_beams(
        Beam(*entry)
        for entry in oracle_beam_search(query, initial, index.triples, cfg, recorded(oracle_calls))
    )
    # The batched hash path on the built and the loaded index, and the
    # serialize-and-embed path of the same embedding without its name.
    unnamed = dataclasses.replace(index, embedder=lambda t: hash_embed(t, dim))
    for searched in (index, saved_and_loaded(index), unnamed):
        assert hex_beams(diverse_beam_search(searched, query, initial, cfg)) == want
    # The scorer's groups, flattened, are the sequences the oracle scores,
    # in the same order.
    calls: list[tuple[str, ...]] = []
    got = diverse_beam_search(index, query, initial, cfg, scorer=grouped(recorded(calls)))
    assert hex_beams(got) == want
    assert calls == oracle_calls


def _hub_graph():
    """Thirty people born in one country. Ten share the head (the first two
    lower-cased characters of a triple) "pe", the rest share theirs in
    pairs, and 'İ' lower-cases to two characters."""
    names = [f"Person {i}" for i in range(10)] + [f"{c}{c}son" for c in "abcdefghİß"]
    names += [f"{name} Jr" for name in names[10:]]
    passages, triples = [], []
    for i, name in enumerate(names):
        passages.append(Passage(f"p{i:02d}", name, f"{name} was born in Germany."))
        triples.append(Triple(f"t{i:02d}", name, "born in", "Germany", f"p{i:02d}"))
    triples.append(Triple("t99", "Germany", "capital", "Berlin", "p00"))
    return passages, triples


@pytest.mark.parametrize(
    "corpus, query, initial",
    [
        (lambda: build_hop_corpus()[:2], "where does the trail from ent1a finish", ["q1t1", "q2t1"]),
        (_hub_graph, "where was Person 7 born", ["t07", "t99"]),
    ],
    ids=["hop", "hub"],
)
def test_hash_scorer_hashes_no_boundary_window(monkeypatch, corpus, query, initial):
    """A search's boundary trigrams come from each triple's head and tail
    codes: no text holding the ``"; "`` separator is hashed, and the beams
    are the oracle's."""
    passages, triples = corpus()
    index = build_index(passages, triples, HashEmbedder(64))
    real = base_retrieval.hash_embed

    def no_window(text, dim):
        if "; " in text:
            raise AssertionError(f"hashed the boundary window {text!r}")
        return real(text, dim)

    monkeypatch.setattr(base_retrieval, "hash_embed", no_window)
    cfg = ExpansionConfig(beam_width=4, max_length=3, neighbour_cap=10)
    reference = oracle_sequence_scorer(index.triples, lambda t: oracle_hash_embed(t, 64))
    want = hex_beams(
        Beam(*entry) for entry in oracle_beam_search(query, initial, index.triples, cfg, reference)
    )
    got = diverse_beam_search(index, query, initial, cfg)
    assert hex_beams(got) == want
    assert max(len(beam.sequence) for beam in got) == 3


class _Recording:
    """Mixed into a system: keeps every ranked list it returns, keyed by
    question id."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ranked: dict[str, tuple] = {}

    def run(self, question):
        result = super().run(question)
        self.ranked[question.id] = result.ranked.entries
        return result


class _RecordingSystem(_Recording, RetrieverSystem):
    pass


class _RecordingAgent(_Recording, AgentSystem):
    pass


def _threaded_then_serial(threaded_index, serial_index):
    """naive-GE eval of the hop corpus with four workers switching threads as
    often as the interpreter allows, then with one; the reports and the
    systems' ranked lists. Each run starts from an empty trigram memo, so the
    workers race to fill it and the serial run cannot read what they stored."""
    _, _, questions = build_hop_corpus(n_chains=12, n_distractors=12)
    retrieval = RetrievalConfig(k=5, retriever="hybrid")
    expansion = ExpansionConfig(beam_width=4, max_length=3)
    threaded = _RecordingSystem(threaded_index, retrieval, mode="naive-ge", expansion=expansion)
    serial = _RecordingSystem(serial_index, retrieval, mode="naive-ge", expansion=expansion)
    base_retrieval._TRIGRAM_CODES.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded_report = run_eval(questions, threaded, workers=4)
    finally:
        sys.setswitchinterval(interval)
    base_retrieval._TRIGRAM_CODES.clear()
    serial_report = run_eval(questions, serial, workers=1)
    assert threaded_report.failures == 0
    assert len(threaded.ranked) == len(questions)
    return threaded_report, serial_report, threaded.ranked, serial.ranked


def test_shared_trigram_memo_is_thread_safe():
    passages, triples, _ = build_hop_corpus(n_chains=12, n_distractors=12)
    index = build_index(passages, triples, HashEmbedder(96))
    threaded_report, serial_report, threaded, serial = _threaded_then_serial(index, index)
    assert threaded_report.rows == serial_report.rows
    assert threaded == serial


def expected_ends(index, dim: int, triple_id: str) -> tuple[int, ...]:
    """A ``triple_ends`` entry from the oracle embedder: the triple's row,
    then 2 * bucket + (1 if the sign is +1 else 0) of each of its head
    trigrams "; " + head[0] and " " + head, and its tail trigrams tail + ";"
    and tail[-1] + "; ", head and tail being the first and last two
    characters of its lower-cased text."""
    t = index.triples[triple_id]
    low = f"{t.subject.strip()} {t.predicate.strip()} {t.object.strip()}".lower()
    codes = []
    for trigram in ("; " + low[0], " " + low[:2], low[-2:] + ";", low[-1] + "; "):
        vec = oracle_hash_embed(trigram, dim)
        (bucket,) = vec.nonzero()[0]
        codes.append(2 * int(bucket) + int(vec[bucket] > 0))
    return (index.triples.ids.index(triple_id), *codes)


def test_triple_ends_memo_is_thread_safe():
    passages, triples, _ = build_hop_corpus(n_chains=12, n_distractors=12)
    index = build_index(passages, triples, HashEmbedder(96))
    assert not index.triple_ends
    # The serial run gets an index of its own, so a memo the threads filled
    # wrongly cannot make both runs agree.
    fresh = build_index(passages, triples, HashEmbedder(96))
    threaded_report, serial_report, threaded, serial = _threaded_then_serial(index, fresh)
    assert index.triple_ends == fresh.triple_ends
    assert len(index.triple_ends) > 12
    for triple_id, entry in index.triple_ends.items():
        assert entry == expected_ends(index, 96, triple_id)
    assert threaded_report.rows == serial_report.rows
    assert threaded == serial


def test_neighbour_memo_is_thread_safe():
    passages, triples, _ = build_hop_corpus(n_chains=12, n_distractors=12)
    index = build_index(passages, triples, HashEmbedder(96))
    assert not index.neighbour_ids
    fresh = build_index(passages, triples, HashEmbedder(96))
    threaded_report, serial_report, threaded, serial = _threaded_then_serial(index, fresh)
    assert index.neighbour_ids == fresh.neighbour_ids
    assert len(index.neighbour_ids) > 12
    adjacency = brute_force_adjacency(index.triples)
    for triple_id, neighbours in index.neighbour_ids.items():
        assert neighbours == tuple(sorted(adjacency[triple_id]))
    assert threaded_report.rows == serial_report.rows
    assert threaded == serial


@pytest.mark.parametrize("workers", [4, 8])
def test_agent_eval_is_thread_safe(workers, monkeypatch):
    """Agent evals of the hop corpus with ``workers`` threads switching as
    often as the interpreter allows equal a serial eval's, down to each
    question's trace JSON (every token record and its iteration tag). Each
    run gets a freshly built index and an empty trigram memo, so the threads
    race to fill the ``neighbour_ids``, ``triple_ends`` and ``bm25_weights``
    memos and the serial run cannot read what they stored."""
    passages, triples, questions = build_hop_corpus(n_chains=12, n_distractors=12)
    config = AgentConfig(
        RetrievalConfig(k=5, retriever="hybrid"),
        ExpansionConfig(beam_width=4, max_length=3),
        max_iterations=2,
    )
    traces: dict[str, str] = {}  # question -> its trace JSON, for the current run

    def run_and_record(index, query, *args):
        trace = run_agent(index, query, *args)
        traces[query] = trace.to_json()
        return trace

    monkeypatch.setattr(eval_harness, "run_agent", run_and_record)

    def run(workers):
        index = build_index(passages, triples, HashEmbedder(96))
        backend = RecordingBackend(hop_reader_script)
        system = _RecordingAgent(index, config, backend, qa_fallback=False)
        base_retrieval._TRIGRAM_CODES.clear()
        traces.clear()
        report = run_eval(questions, system, workers=workers)
        return index, report, system.ranked, dict(traces)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded_index, threaded_report, threaded, threaded_traces = run(workers)
    finally:
        sys.setswitchinterval(interval)
    serial_index, serial_report, serial, serial_traces = run(1)
    assert threaded_report.failures == 0
    assert len(threaded) == len(questions)
    assert threaded_report.rows == serial_report.rows
    assert threaded == serial
    assert len(threaded_traces) == len(questions)
    assert threaded_traces == serial_traces
    assert len(threaded_index.neighbour_ids) > 12
    assert threaded_index.neighbour_ids == serial_index.neighbour_ids
    assert len(threaded_index.triple_ends) > 12
    assert threaded_index.triple_ends == serial_index.triple_ends
    for triple_id, entry in threaded_index.triple_ends.items():
        assert entry == expected_ends(threaded_index, 96, triple_id)
    for view, lexical in threaded_index.lexical.items():
        weights = serial_index.lexical[view].bm25_weights
        assert lexical.bm25_weights and lexical.bm25_weights.keys() == weights.keys()
        for pair, array in lexical.bm25_weights.items():
            assert array.tobytes() == weights[pair].tobytes()
