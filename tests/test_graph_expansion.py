from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    Beam,
    ExpansionConfig,
    HashEmbedder,
    LLMGateway,
    Passage,
    RetrievalConfig,
    RetrievalError,
    Triple,
    build_index,
    diverse_beam_search,
    diversity_weight,
    flatten_beams,
    naive_ge_retrieve,
)
from triplehop.base_retrieval import base_retrieve
from triplehop.corpus_index import PASSAGES
from triplehop.graph_expansion import make_cosine_scorer, naive_ge_detail, sync_ge_detail

from .conftest import RecordingBackend
from .oracles import grouped, oracle_beam_search

BM25 = RetrievalConfig(k=5, retriever="bm25")


# ---------------------------------------------------------------------------
# Diversity arithmetic
# ---------------------------------------------------------------------------

def test_diversity_weight_boundaries():
    assert diversity_weight(0, 4.0) == 1.0
    assert abs(diversity_weight(4, 4.0) - math.exp(-1)) < 1e-12
    assert abs(diversity_weight(8, 4.0) - math.exp(-1)) < 1e-12
    assert diversity_weight(1000, 4.0) == diversity_weight(4, 4.0)


def test_diversity_weight_monotone_with_floor():
    gamma = 7.0
    weights = [diversity_weight(n, gamma) for n in range(30)]
    assert all(a >= b for a, b in zip(weights, weights[1:]))
    assert all(w >= math.exp(-1) - 1e-15 for w in weights)


# ---------------------------------------------------------------------------
# Sequence scoring
# ---------------------------------------------------------------------------

def test_score_sequence_identity_text(chain_index):
    # query identical to the serialized single-triple sequence
    score = make_cosine_scorer(chain_index)
    [same] = score("enta linksto entb", [((), ["t1"])])
    assert abs(same - 1.0) < 1e-9


def test_score_sequence_empty_query_is_zero(chain_index):
    assert make_cosine_scorer(chain_index)("", [((), ["t1"])]) == [0.0]


def test_score_sequence_changes_with_extension(chain_index):
    single, double = make_cosine_scorer(chain_index)(
        "enta linksto entb", [((), ["t1"]), (("t1",), ["t2"])]
    )
    assert single != double


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

def fixed_scorer(table):
    return grouped(lambda query, sequence: table[sequence])


def test_beam_search_l1_returns_top_singletons(chain_index):
    table = {("t1",): 0.9, ("t2",): 0.5, ("t3",): 0.7, ("t4",): 0.1}
    cfg = ExpansionConfig(beam_width=2, max_length=1)
    beams = diverse_beam_search(
        chain_index, "q", ["t1", "t2", "t3", "t4"], cfg, scorer=fixed_scorer(table)
    )
    assert beams == [Beam(0.9, ("t1",)), Beam(0.7, ("t3",))]


def test_beam_search_empty_initial(chain_index):
    cfg = ExpansionConfig(beam_width=3, max_length=2)
    assert diverse_beam_search(chain_index, "q", [], cfg) == []


def test_beam_search_respects_sequence_invariants(hop_index):
    cfg = ExpansionConfig(beam_width=5, max_length=3, gamma=10.0)
    initial = ["q1t1", "q2t1", "q3t1"]
    beams = diverse_beam_search(hop_index, "trail from ent1a", initial, cfg)
    from triplehop import get_neighbours

    for beam in beams:
        assert 1 <= len(beam.sequence) <= 3
        assert len(set(beam.sequence)) == len(beam.sequence)
        for prev, nxt in zip(beam.sequence, beam.sequence[1:]):
            assert nxt in get_neighbours(hop_index, prev)


def test_beam_search_six_triple_fixture_matches_oracle(embedder):
    # diamond graph plus a detached pair: A-B-C/D with two routes, E-F island
    passages = [Passage("p", "", "x")]
    triples = [
        Triple("t1", "A", "r1", "B", "p"),
        Triple("t2", "B", "r2", "C", "p"),
        Triple("t3", "B", "r3", "D", "p"),
        Triple("t4", "C", "r4", "D", "p"),
        Triple("t5", "E", "r5", "F", "p"),
        Triple("t6", "F", "r6", "A", "p"),
    ]
    index = build_index(passages, triples, embedder)
    rng = random.Random(42)
    for trial in range(5):
        table = {}

        def scorer(query, sequence):
            if sequence not in table:
                table[sequence] = rng.uniform(-1, 1)
            return table[sequence]

        cfg = ExpansionConfig(beam_width=2, max_length=2, neighbour_cap=10, gamma=4.0)
        got = diverse_beam_search(index, "q", [t.id for t in triples], cfg, grouped(scorer))
        want = oracle_beam_search(
            "q", [t.id for t in triples], index.triples, cfg, scorer
        )
        assert [b.sequence for b in got] == [seq for _, seq in want]
        for beam, (score, _) in zip(got, want):
            assert abs(beam.score - score) < 1e-9


def test_beam_search_skips_triples_seen_in_previous_step(chain_index):
    # both chain triples start in the beam set; extending t1 may not revisit t2
    table = {
        ("t1",): 0.9,
        ("t2",): 0.8,
        ("t1", "t2"): 99.0,  # would win if the exists() check were ignored
        ("t2", "t3"): 0.5,
        ("t2", "t1"): 99.0,
    }
    cfg = ExpansionConfig(beam_width=2, max_length=2, gamma=4.0)
    beams = diverse_beam_search(
        chain_index, "q", ["t1", "t2"], cfg, scorer=fixed_scorer(table)
    )
    sequences = [b.sequence for b in beams]
    assert ("t1", "t2") not in sequences
    assert ("t2", "t1") not in sequences
    assert ("t2", "t3") in sequences


def test_beam_search_stranded_beams_drop_out(chain_index):
    # t4 is isolated: with the literal algorithm it disappears at step 1
    table = {("t4",): 0.99, ("t1",): 0.5, ("t1", "t2"): 0.4, ("t2", "t3"): 0.1,
             ("t2",): 0.3}
    cfg = ExpansionConfig(beam_width=2, max_length=2, gamma=4.0)
    beams = diverse_beam_search(
        chain_index, "q", ["t4", "t1"], cfg, scorer=fixed_scorer(table)
    )
    assert [b.sequence for b in beams] == [("t1", "t2")]


def test_beam_search_keep_stranded_beams_flag(chain_index):
    table = {("t4",): 0.99, ("t1",): 0.5, ("t1", "t2"): 0.4, ("t2", "t3"): 0.1,
             ("t2",): 0.3}
    cfg = ExpansionConfig(
        beam_width=2, max_length=2, gamma=4.0, keep_stranded_beams=True
    )
    beams = diverse_beam_search(
        chain_index, "q", ["t4", "t1"], cfg, scorer=fixed_scorer(table)
    )
    assert [b.sequence for b in beams] == [("t4",), ("t1", "t2")]
    assert beams[0].score == 0.99


def test_beam_search_early_stop_returns_last_nonempty(chain_index):
    # only the isolated triple survives step 0: step 1 has no candidates
    table = {("t4",): 0.99}
    cfg = ExpansionConfig(beam_width=1, max_length=3, gamma=4.0)
    trace = {}
    beams = diverse_beam_search(
        chain_index, "q", ["t4"], cfg, scorer=fixed_scorer(table), trace=trace
    )
    assert [b.sequence for b in beams] == [("t4",)]
    assert trace["stopped_early_at"] == 1


@pytest.mark.parametrize("keep", [False, True])
def test_scorer_sees_one_group_per_beam(chain_index, keep):
    # t4 is isolated and t1 - t2 - t3 a chain: the scorer sees the initial
    # ids as given, then one (sequence, unvisited neighbours ascending) group
    # per beam in beam order, and an empty group for a stranded beam.
    table = {("t4",): 0.9, ("t2",): 0.8, ("t2", "t1"): 0.4, ("t2", "t3"): 0.5}
    seen = []
    score = grouped(lambda query, sequence: table[sequence])

    def scorer(query, groups):
        seen.append([(prefix, list(next_ids)) for prefix, next_ids in groups])
        return score(query, groups)

    cfg = ExpansionConfig(beam_width=3, max_length=3, gamma=4.0, keep_stranded_beams=keep)
    trace = {}
    beams = diverse_beam_search(chain_index, "q", ["t4", "t2"], cfg, scorer, trace)
    last = [(("t2", "t3"), []), (("t2", "t1"), [])] + [(("t4",), [])] * keep
    assert seen == [
        [((), ["t4", "t2"])],
        [(("t4",), []), (("t2",), ["t1", "t3"])],
        last,
    ]
    assert [b.sequence for b in beams] == [seq for seq, _ in last]
    assert trace["stopped_early_at"] == (None if keep else 2)


def test_beam_search_diversity_separates_first_triples(embedder):
    # with diversity effectively off both winners extend the same strong root;
    # with gamma = 2*b the second extension is down-weighted below the other root
    passages = [Passage("p", "", "x")]
    triples = [
        Triple("ta", "A", "r", "B", "p"),
        Triple("tx", "B", "r", "X", "p"),
        Triple("ty", "B", "r", "Y", "p"),
        Triple("tb", "C", "r", "D", "p"),
        Triple("tu", "D", "r", "U", "p"),
    ]
    index = build_index(passages, triples, embedder)
    table = {
        ("ta",): 0.9, ("tb",): 0.8,
        ("ta", "tx"): 0.5, ("ta", "ty"): 0.49, ("tb", "tu"): 0.45,
    }
    initial = ["ta", "tb"]
    off = ExpansionConfig(beam_width=2, max_length=2, gamma=1e18)
    beams_off = diverse_beam_search(index, "q", initial, off, fixed_scorer(table))
    assert [b.sequence[0] for b in beams_off] == ["ta", "ta"]

    on = ExpansionConfig(beam_width=2, max_length=2, gamma=4.0)
    beams_on = diverse_beam_search(index, "q", initial, on, fixed_scorer(table))
    firsts = [b.sequence[0] for b in beams_on]
    assert firsts == ["ta", "tb"]


def test_beam_search_deterministic_tie_break_by_sequence(chain_index):
    table = {("t1",): 0.5, ("t2",): 0.5, ("t3",): 0.5, ("t4",): 0.5}
    cfg = ExpansionConfig(beam_width=2, max_length=1)
    beams = diverse_beam_search(
        chain_index, "q", ["t3", "t2", "t4", "t1"], cfg, scorer=fixed_scorer(table)
    )
    assert [b.sequence for b in beams] == [("t1",), ("t2",)]


@pytest.mark.parametrize(
    "table, initial, named",
    [
        # A NaN among the initial triples: the first in the order given.
        ({("t1",): 0.9, ("t2",): math.nan, ("t3",): math.nan}, ["t1", "t3", "t2"], ("t3",)),
        # A NaN extension: the first in the order the scorer saw them.
        ({("t2",): 0.5, ("t2", "t1"): math.nan, ("t2", "t3"): math.nan}, ["t2"], ("t2", "t1")),
        # No NaN from the scorer, but +inf and -inf add up to a NaN total.
        ({("t1",): math.inf, ("t1", "t2"): -math.inf}, ["t1"], ("t1", "t2")),
    ],
)
def test_beam_search_nan_score_raises_naming_query_and_sequence(
    chain_index, table, initial, named
):
    cfg = ExpansionConfig(beam_width=2, max_length=2)
    with pytest.raises(RetrievalError) as raised:
        diverse_beam_search(chain_index, "where is entc", initial, cfg, fixed_scorer(table))
    assert "'where is entc'" in str(raised.value)
    assert str(named) in str(raised.value)


# Few score values, so exact ties are common: within a beam, at the
# neighbour cap, across the beam-width cut, and between a stranded beam and
# another beam's extensions (0.0 adds nothing, and a small gamma gives every
# position past the first the same floor weight).
_TIE_VALUES = (-0.5, 0.0, 0.25, 0.5, 1.0)
_ENTITIES = ("hub", "e1", "e2", "e3")


@st.composite
def _tie_heavy_searches(draw):
    """A graph whose first entity is a hub, with some isolated triples so
    beams strand, a search config, initial triples and a seed for the
    scripted scores."""
    entity = st.sampled_from(_ENTITIES)
    ends = [("hub", draw(entity)) for _ in range(draw(st.integers(3, 12)))]
    ends += draw(st.lists(st.tuples(entity, entity), max_size=8))
    ends += [(f"lone{i}", f"alone{i}") for i in range(draw(st.integers(0, 3)))]
    order = draw(st.permutations(range(len(ends))))
    triples = [
        Triple(f"t{i:02d}", ends[at][0], "r", ends[at][1], "p") for i, at in enumerate(order)
    ]
    cfg = ExpansionConfig(
        beam_width=draw(st.integers(1, 5)),
        max_length=draw(st.integers(1, 3)),
        neighbour_cap=draw(st.integers(1, 6)),
        gamma=draw(st.sampled_from([0.5, 1.0, 3.0, 20.0])),
        keep_stranded_beams=draw(st.booleans()),
    )
    initial = draw(st.lists(st.sampled_from([t.id for t in triples]), min_size=1, unique=True))
    return triples, cfg, initial, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_searches())
def test_beam_search_matches_oracle_under_exact_ties(search):
    triples, cfg, initial, seed = search
    index = build_index([Passage("p", "", "x")], triples, HashEmbedder(16))
    rng = random.Random(seed)
    table: dict[tuple[str, ...], float] = {}

    def score(query, sequence):
        if sequence not in table:
            table[sequence] = rng.choice(_TIE_VALUES)
        return table[sequence]

    got = diverse_beam_search(index, "q", initial, cfg, grouped(score))
    want = oracle_beam_search("q", initial, index.triples, cfg, score)
    assert [(beam.score.hex(), beam.sequence) for beam in got] == [
        (value.hex(), sequence) for value, sequence in want
    ]


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------

def test_flatten_position_major():
    beams = [Beam(1.0, ("a", "b")), Beam(0.5, ("c", "d"))]
    assert flatten_beams(beams) == ["a", "c", "b", "d"]


def test_flatten_dedupes_first_occurrence():
    beams = [Beam(1.0, ("a", "b")), Beam(0.5, ("a", "c"))]
    assert flatten_beams(beams) == ["a", "b", "c"]


def test_flatten_empty():
    assert flatten_beams([]) == []


def test_flatten_ragged_lengths():
    beams = [Beam(1.0, ("a",)), Beam(0.5, ("b", "c"))]
    assert flatten_beams(beams) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Graph-expanded retrieval
# ---------------------------------------------------------------------------

EXPANSION = ExpansionConfig(beam_width=4, max_length=3, gamma=8.0)


def constant_reader_gateway(response):
    return LLMGateway(RecordingBackend(lambda kind, variables: response))


def test_sync_ge_empty_read_degrades_to_base(chain_index):
    gateway = constant_reader_gateway("no facts in sight")
    result = sync_ge_detail(chain_index, "enta", BM25, EXPANSION, gateway).fused
    base = base_retrieve(chain_index, "enta", PASSAGES, BM25)
    assert result.ids == base.ids


def test_sync_ge_two_hop_fixture_recovers_gold(chain_index):
    # base retrieval sees only the first-hop passage; expansion walks the
    # shared-entity chain to the later hops
    query = "where does the trail from enta finish"
    base = base_retrieve(chain_index, query, PASSAGES, BM25)
    assert base.ids == ["p1"]

    gateway = constant_reader_gateway('Facts: ("enta", "linksto", "entb")')
    result = sync_ge_detail(chain_index, query, BM25, EXPANSION, gateway).fused
    assert "p2" in result.ids
    assert "p3" in result.ids


def test_sync_ge_deterministic_across_runs(chain_index):
    query = "where does the trail from enta finish"
    recorder = RecordingBackend(
        lambda kind, variables: 'Facts: ("enta", "linksto", "entb")'
    )
    first = sync_ge_detail(
        chain_index, query, BM25, EXPANSION, LLMGateway(recorder)
    ).fused
    scripted = recorder.to_scripted()
    second = sync_ge_detail(
        chain_index, query, BM25, EXPANSION, LLMGateway(scripted)
    ).fused
    third = sync_ge_detail(
        chain_index, query, BM25, EXPANSION, LLMGateway(scripted)
    ).fused
    assert first == second == third


def test_sync_ge_output_within_union_of_sources(chain_index):
    query = "where does the trail from enta finish"
    gateway = constant_reader_gateway('Facts: ("enta", "linksto", "entb")')
    detail = sync_ge_detail(chain_index, query, BM25, EXPANSION, gateway)
    from triplehop import flatten_beams as flatten
    from triplehop import triples_to_passages

    allowed = set(detail.base.ids) | set(
        triples_to_passages(chain_index, flatten(list(detail.beams)))
    )
    assert set(detail.fused.ids) <= allowed


def test_naive_ge_zero_triple_passages_degrade_to_base(embedder):
    passages = [Passage("p1", "", "alpha beta"), Passage("p2", "", "gamma delta")]
    index = build_index(passages, [], embedder)
    result = naive_ge_retrieve(index, "alpha", BM25, EXPANSION)
    base = base_retrieve(index, "alpha", PASSAGES, BM25)
    assert result.ids == base.ids


def test_naive_ge_initial_nodes_are_all_aligned_triples(chain_index):
    detail = naive_ge_detail(chain_index, "enta linksto", BM25, EXPANSION)
    # base hits p1 and p2 (shared "linksto"); initial nodes follow passage rank
    base_ids = detail.base.ids
    expected = []
    for pid in base_ids:
        expected.extend(chain_index.passage_triples(pid))
    assert list(detail.initial_nodes) == expected


def test_naive_ge_two_hop_fixture_without_llm(chain_index):
    query = "where does the trail from enta finish"
    result = naive_ge_retrieve(chain_index, query, BM25, EXPANSION)
    assert "p2" in result.ids and "p3" in result.ids


def test_single_passage_three_triples_seed_naive(embedder):
    passages = [Passage("p1", "", "rich passage wordx")]
    triples = [
        Triple("a", "A", "r", "B", "p1"),
        Triple("b", "B", "s", "C", "p1"),
        Triple("c", "C", "u", "D", "p1"),
    ]
    index = build_index(passages, triples, embedder)
    detail = naive_ge_detail(index, "wordx", BM25, EXPANSION)
    assert list(detail.initial_nodes) == ["a", "b", "c"]


def test_expansion_config_validation():
    with pytest.raises(ValueError):
        ExpansionConfig(beam_width=0)
    with pytest.raises(ValueError):
        ExpansionConfig(max_length=0)
    with pytest.raises(ValueError):
        ExpansionConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ExpansionConfig(neighbour_cap=0)
