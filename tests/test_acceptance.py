"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager


from triplehop import (
    AgentConfig,
    ExpansionConfig,
    HashEmbedder,
    LLMGateway,
    Passage,
    RankedList,
    RetrievalConfig,
    Triple,
    bm25_search,
    build_index,
    dense_search,
    diverse_beam_search,
    diversity_weight,
    exact_match,
    f1_answer,
    hash_embed,
    normalize_answer,
    recall_at_k,
    rrf_fuse,
    run_agent,
)
from triplehop.corpus_index import PASSAGES
from triplehop.eval_harness import RetrieverSystem, run_eval
from triplehop.graph_expansion import make_cosine_scorer

from .conftest import RecordingBackend, build_hop_corpus, hop_reader_script
from .oracles import oracle_beam_search, oracle_cosine_ranking


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {number}. {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {number}. {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Beam-search oracle equivalence
# ---------------------------------------------------------------------------

def _random_graph(rng: random.Random):
    n_triples = rng.randint(4, 20)
    entities = [f"e{j}" for j in range(rng.randint(4, 10))]
    n_passages = 1 + n_triples // 3
    passages = [Passage(f"p{j}", "", f"passage number {j}") for j in range(n_passages)]
    triples = []
    for i in range(n_triples):
        subject, obj = rng.choice(entities), rng.choice(entities)
        triples.append(
            Triple(
                f"t{i:02d}", subject, f"rel{rng.randint(0, 5)}", obj,
                f"p{rng.randint(0, n_passages - 1)}",
            )
        )
    return passages, triples


def _assert_beams_match_oracle(index, query, initial_ids, cfg, scorer):
    got = diverse_beam_search(index, query, initial_ids, cfg, scorer)
    want = oracle_beam_search(
        query, initial_ids, index.triples, cfg, lambda q, seq: scorer(q, [seq])[0]
    )
    assert [beam.sequence for beam in got] == [seq for _, seq in want]
    for beam, (score, _) in zip(got, want):
        assert abs(beam.score - score) <= 1e-9


def test_criterion_1_beam_search_oracle_equivalence():
    with criterion(1, "beam-search oracle equivalence"):
        started = time.monotonic()
        embedder = HashEmbedder(64)
        rng = random.Random(20240811)
        for round_no in range(50):
            passages, triples = _random_graph(rng)
            index = build_index(passages, triples, embedder)
            scorer = make_cosine_scorer(index)
            ids = sorted(index.triples)
            initial = rng.sample(ids, rng.randint(1, len(ids)))
            query = f"passage number {rng.randint(0, 5)} about e{rng.randint(0, 9)}"

            pruned_cfg = ExpansionConfig(
                beam_width=rng.choice([1, 2, 3, 5]),
                max_length=rng.choice([1, 2, 3]),
                neighbour_cap=rng.choice([2, 4, 100]),
                gamma=rng.choice([1.0, 4.0, 20.0]),
            )
            _assert_beams_match_oracle(index, query, initial, pruned_cfg, scorer)

            # width beyond every candidate count: pure exhaustive enumeration
            exhaustive_cfg = ExpansionConfig(
                beam_width=10**6,
                max_length=rng.choice([2, 3]),
                neighbour_cap=10**6,
                gamma=rng.choice([1.0, 4.0, 20.0]),
            )
            _assert_beams_match_oracle(index, query, initial, exhaustive_cfg, scorer)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Diversity arithmetic
# ---------------------------------------------------------------------------

def test_criterion_2_diversity_arithmetic():
    with criterion(2, "diversity reweighting arithmetic"):
        for gamma in (1.0, 4.0, 20.0, 33.5):
            assert diversity_weight(0, gamma) == 1.0
            # clamped to e^-1 for every position at or past gamma
            for position in range(math.ceil(gamma), math.ceil(4 * gamma) + 3):
                assert abs(diversity_weight(position, gamma) - math.exp(-1)) < 1e-12
        for gamma in (1, 4, 20):  # integer gamma: the boundary position itself
            assert abs(diversity_weight(gamma, float(gamma)) - math.exp(-1)) < 1e-12


# ---------------------------------------------------------------------------
# 3. RRF correctness
# ---------------------------------------------------------------------------

def test_criterion_3_rrf_correctness():
    with criterion(3, "reciprocal rank fusion correctness"):
        def as_ranked(ids, scale=1.0):
            return RankedList(
                tuple((i, scale / (rank + 1)) for rank, i in enumerate(ids))
            )

        fused = rrf_fuse([as_ranked(["A", "B"]), as_ranked(["B", "C", "A"])], 60)
        assert fused.ids == ["B", "A", "C"]
        scores = dict(fused.entries)
        assert abs(scores["A"] - (1 / 61 + 1 / 63)) <= 1e-9
        assert abs(scores["B"] - (1 / 62 + 1 / 61)) <= 1e-9
        assert abs(scores["C"] - 1 / 62) <= 1e-9

        rng = random.Random(7)
        for _ in range(25):
            scale_one = rng.uniform(1e-6, 1e6)
            scale_two = rng.uniform(1e-6, 1e6)
            rescaled = rrf_fuse(
                [as_ranked(["A", "B"], scale_one), as_ranked(["B", "C", "A"], scale_two)],
                60,
            )
            assert rescaled.entries == fused.entries


# ---------------------------------------------------------------------------
# 4. Multi-hop uplift on fixtures
# ---------------------------------------------------------------------------

def test_criterion_4_multi_hop_uplift():
    with criterion(4, "multi-hop uplift: sync-ge >= naive-ge > base"):
        started = time.monotonic()
        passages, triples, questions = build_hop_corpus()
        assert len(passages) == 30
        assert len(triples) == 60
        assert len(questions) == 6
        index = build_index(passages, triples, HashEmbedder(128))

        retrieval = RetrievalConfig(k=5, retriever="bm25")
        expansion = ExpansionConfig(
            beam_width=10, max_length=3, neighbour_cap=100, gamma=20.0
        )

        base_system = RetrieverSystem(index, retrieval, mode="base")
        naive_system = RetrieverSystem(
            index, retrieval, mode="naive-ge", expansion=expansion
        )
        recorder = RecordingBackend(hop_reader_script)
        for question in questions:  # record the reader fixtures once
            RetrieverSystem(
                index, retrieval, mode="sync-ge", expansion=expansion,
                backend=recorder,
            ).run(question)
        sync_system = RetrieverSystem(
            index, retrieval, mode="sync-ge", expansion=expansion,
            backend=recorder.to_scripted(),
        )

        base_report = run_eval(questions, base_system, cutoffs=(5,), workers=1)
        naive_report = run_eval(questions, naive_system, cutoffs=(5,), workers=1)
        sync_report = run_eval(questions, sync_system, cutoffs=(5,), workers=1)

        base_mean = base_report.aggregates["recall@5"]
        naive_mean = naive_report.aggregates["recall@5"]
        sync_mean = sync_report.aggregates["recall@5"]
        assert sync_mean >= naive_mean > base_mean, (
            f"sync={sync_mean} naive={naive_mean} base={base_mean}"
        )

        for question in questions:
            final_hop = f"{question.id}p3"
            sync_ids = sync_system.run(question).ranked.ids[:5]
            base_ids = base_system.run(question).ranked.ids
            assert final_hop in sync_ids, f"{question.id}: sync-ge missed {final_hop}"
            assert final_hop not in base_ids, f"{question.id}: base found {final_hop}"

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"fixture uplift took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 5. Agent termination and determinism
# ---------------------------------------------------------------------------

def _agent_config():
    return AgentConfig(
        retrieval=RetrievalConfig(k=5, retriever="bm25"),
        expansion=ExpansionConfig(beam_width=10, max_length=3, gamma=20.0),
        max_iterations=4,
        per_iteration_k=10,
        passage_link_k=5,
    )


def _hop_index():
    passages, triples, questions = build_hop_corpus()
    return build_index(passages, triples, HashEmbedder(128)), questions


def _answerable_script(kind, variables):
    if kind == "reasoner":
        return "Answerable: Yes\nAnswer: ent1d"
    return hop_reader_script(kind, variables)


def test_criterion_5_agent_termination_and_determinism():
    with criterion(5, "agent termination and byte-identical traces"):
        index, questions = _hop_index()
        cfg = _agent_config()
        query = questions[0].question

        recorder = RecordingBackend(_answerable_script)
        run_agent(index, query, cfg, LLMGateway(recorder))
        scripted = recorder.to_scripted()
        trace = run_agent(index, query, cfg, LLMGateway(scripted))
        assert len(trace.iterations) == 1
        assert trace.termination_cause == "answerable"
        assert trace.answer == "ent1d"

        recorder = RecordingBackend(hop_reader_script)  # reasoner always says No
        run_agent(index, query, cfg, LLMGateway(recorder))
        scripted = recorder.to_scripted()
        first = run_agent(index, query, cfg, LLMGateway(scripted))
        second = run_agent(index, query, cfg, LLMGateway(scripted))
        assert len(first.iterations) == 4
        assert first.termination_cause == "max_iterations"
        assert first.to_json() == second.to_json()


# ---------------------------------------------------------------------------
# 6. Token accounting
# ---------------------------------------------------------------------------

def test_criterion_6_token_accounting():
    with criterion(6, "token ledger totals and iteration partition"):
        index, questions = _hop_index()
        cfg = _agent_config()
        query = questions[0].question
        recorder = RecordingBackend(hop_reader_script)
        run_agent(index, query, cfg, LLMGateway(recorder))
        gateway = LLMGateway(recorder.to_scripted())
        run_agent(index, query, cfg, gateway)
        ledger = gateway.ledger

        records = ledger.records
        assert ledger.total_input() == sum(r.input_tokens for r in records)
        assert ledger.total_output() == sum(r.output_tokens for r in records)

        by_iteration = ledger.by_iteration()
        assert set(by_iteration) == {1, 2, 3, 4}
        assert sum(tin for tin, _ in by_iteration.values()) == ledger.total_input()
        assert sum(tout for _, tout in by_iteration.values()) == ledger.total_output()

        cumulative = 0
        for iteration in sorted(by_iteration):
            tin, tout = by_iteration[iteration]
            assert tin >= 0 and tout >= 0
            step_total = tin + tout
            assert cumulative + step_total >= cumulative
            cumulative += step_total
        assert cumulative == ledger.total_input() + ledger.total_output()


# ---------------------------------------------------------------------------
# 7. Metric suite
# ---------------------------------------------------------------------------

def test_criterion_7_metric_suite():
    with criterion(7, "retrieval and answer metric suite"):
        rng = random.Random(99)
        universe = [f"P{i}" for i in range(30)]
        for _ in range(1000):
            retrieved = rng.sample(universe, rng.randint(0, 20))
            gold = set(rng.sample(universe, rng.randint(1, 8)))
            k = rng.randint(1, 19)
            assert recall_at_k(retrieved, gold, k) <= recall_at_k(retrieved, gold, k + 1)

        gold_answers = ["August 25, 1963.", "the arizona cardinals"]
        for prediction in ("august 25 1963", "The Arizona Cardinals."):
            assert exact_match(prediction, gold_answers) == 1
            assert f1_answer(prediction, gold_answers) == 1.0

        assert abs(
            f1_answer("arizona cardinals team", ["arizona cardinals"]) - 0.8
        ) <= 1e-9

        assert normalize_answer("The Arizona Cardinals.") == "arizona cardinals"
        assert normalize_answer("August 25, 1963") == "august 25 1963"
        assert normalize_answer("") == ""


# ---------------------------------------------------------------------------
# 8. Dense / BM25 oracles
# ---------------------------------------------------------------------------

def test_criterion_8_dense_and_bm25_oracles():
    with criterion(8, "dense cosine and BM25 hand-computed oracles"):
        dim = 64
        passages = [
            Passage(
                f"p{i:04d}", "",
                f"document {i} concerns subject {i % 13} and region {i % 7}",
            )
            for i in range(1000)
        ]
        index = build_index(passages, [], HashEmbedder(dim))
        query = "which document concerns subject 5 in region 3"
        result = dense_search(index, query, PASSAGES, 1000)

        item_vectors = {p.id: list(hash_embed(p.body, dim)) for p in passages}
        expected = oracle_cosine_ranking(
            list(hash_embed(query, dim)), item_vectors, 1000, exact=True
        )
        # rank-aligned scores agree, and ids agree exactly: mathematically
        # tied cosines are ordered by ascending id
        for (_, got), (_, want) in zip(result.entries, expected):
            assert abs(got - want) <= 1e-9
        assert result.ids == [pid for pid, _ in expected]

        two_docs = build_index(
            [
                Passage("a", "", "zebra zebra lion tiger"),
                Passage("b", "", "zebra lion tiger bear"),
            ],
            [],
            HashEmbedder(dim),
        )
        ranked = bm25_search(two_docs, "zebra", PASSAGES, 5, k1=1.2, b=0.75)
        assert ranked.ids == ["a", "b"]
        # idf = ln(1.2); saturation 1.375 for tf=2, 1.0 for tf=1 at equal length
        assert abs(ranked.entries[0][1] - 0.2506921405916876) <= 1e-9
        assert abs(ranked.entries[1][1] - 0.1823215567939546) <= 1e-9
