from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    AgentConfig,
    EvalQuestion,
    ExpansionConfig,
    RankedList,
    RetrievalConfig,
    exact_match,
    f1_answer,
    normalize_answer,
    recall_at_k,
    run_eval,
)
from triplehop.eval_harness import (
    AgentSystem,
    EvalRow,
    RetrieverSystem,
    SystemResult,
    load_questions_jsonl,
)

from .conftest import RecordingBackend, hop_reader_script


# ---------------------------------------------------------------------------
# recall@k
# ---------------------------------------------------------------------------

def test_recall_full():
    assert recall_at_k(["P1", "P2", "P3"], {"P1", "P2"}, 5) == 1.0


def test_recall_half():
    assert recall_at_k(["P1", "X", "Y"], {"P1", "P2"}, 5) == 0.5


def test_recall_miss_short_list():
    assert recall_at_k(["X"], {"P1", "P2"}, 5) == 0.0


def test_recall_empty_gold_raises():
    with pytest.raises(ValueError):
        recall_at_k(["P1"], set(), 5)
    with pytest.raises(ValueError):
        recall_at_k(["P1"], {"P1"}, 0)


def test_recall_binary_variant():
    retrieved = ["P1", "X", "Y"]
    assert recall_at_k(retrieved, {"P1", "P2"}, 5, binary=True) == 0.0
    assert recall_at_k(["P1", "P2"], {"P1", "P2"}, 5, binary=True) == 1.0


def test_recall_respects_cutoff():
    assert recall_at_k(["X", "P1"], {"P1"}, 1) == 0.0
    assert recall_at_k(["X", "P1"], {"P1"}, 2) == 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([f"P{i}" for i in range(12)]), unique=True, max_size=12),
    st.sets(st.sampled_from([f"P{i}" for i in range(12)]), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=11),
)
def test_recall_monotone_in_k(retrieved, gold, k):
    assert recall_at_k(retrieved, gold, k) <= recall_at_k(retrieved, gold, k + 1)


# ---------------------------------------------------------------------------
# answer normalization / EM / F1
# ---------------------------------------------------------------------------

def test_normalize_answer_examples():
    assert normalize_answer("The Arizona Cardinals.") == "arizona cardinals"
    assert normalize_answer("") == ""
    assert normalize_answer("August 25, 1963") == "august 25 1963"


def test_exact_match_cases():
    gold = ["August 25, 1963."]
    assert exact_match("august 25 1963", gold) == 1
    assert exact_match("25 august 1963", gold) == 0
    assert exact_match("", gold) == 0


def test_f1_identical():
    assert f1_answer("same words", ["same words"]) == 1.0


def test_f1_hand_computed_partial_overlap():
    # precision 2/3, recall 1 -> F1 = 0.8
    assert abs(f1_answer("arizona cardinals team", ["arizona cardinals"]) - 0.8) < 1e-9


def test_f1_disjoint_and_empty():
    assert f1_answer("alpha", ["beta"]) == 0.0
    assert f1_answer("", [""]) == 1.0
    assert f1_answer("", ["beta"]) == 0.0
    assert f1_answer("alpha", [""]) == 0.0


def test_f1_max_over_golds():
    assert f1_answer("arizona cardinals", ["bears", "arizona cardinals"]) == 1.0


answer_text = st.text(
    alphabet="abcdefghij 0123456789.,!", min_size=0, max_size=20
)


@settings(max_examples=100, deadline=None)
@given(answer_text, st.lists(answer_text, min_size=1, max_size=3))
def test_em_implies_f1_one(prediction, golds):
    if exact_match(prediction, golds) == 1:
        assert f1_answer(prediction, golds) == 1.0


# ---------------------------------------------------------------------------
# run_eval
# ---------------------------------------------------------------------------

class StubSystem:
    """Fixed per-question rankings/answers for harness-level tests."""

    def __init__(self, index, results):
        self.index = index
        self.results = results

    def run(self, question):
        outcome = self.results[question.id]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ranked(*ids):
    return RankedList(tuple((pid, 1.0 / (i + 1)) for i, pid in enumerate(ids)))


def question(qid, gold):
    return EvalQuestion(
        id=qid, question=f"question {qid}", gold_passage_ids=frozenset(gold),
        gold_answers=("whatever",),
    )


def test_run_eval_empty_dataset(chain_index):
    report = run_eval([], StubSystem(chain_index, {}), cutoffs=(5,), workers=1)
    assert report.rows == []
    assert report.failures == 0
    assert report.aggregates["recall@5"] is None


def test_run_eval_mean_of_known_recalls(chain_index):
    questions = [question("a", {"p1", "p2"}), question("b", {"p1", "p2"})]
    results = {
        "a": SystemResult(ranked("p1", "p2"), None, None, 0, 0),
        "b": SystemResult(ranked("p1", "p4"), None, None, 0, 0),
    }
    report = run_eval(
        questions, StubSystem(chain_index, results), cutoffs=(5,), workers=1
    )
    assert report.rows[0].recall[5] == 1.0
    assert report.rows[1].recall[5] == 0.5
    assert abs(report.aggregates["recall@5"] - 0.75) < 1e-9


def test_run_eval_aggregates_are_row_means(chain_index):
    questions = [question(q, {"p1"}) for q in ("a", "b", "c")]
    results = {
        "a": SystemResult(ranked("p1"), "x", 1, 10, 2),
        "b": SystemResult(ranked("p3"), "whatever", 2, 20, 4),
        "c": SystemResult(ranked("p2", "p1"), None, 3, 30, 6),
    }
    report = run_eval(
        questions, StubSystem(chain_index, results), cutoffs=(1, 5), workers=2
    )
    for k in (1, 5):
        rows = [row.recall[k] for row in report.rows]
        assert abs(report.aggregates[f"recall@{k}"] - sum(rows) / 3) < 1e-9
    ems = [row.em for row in report.rows if row.em is not None]
    assert abs(report.aggregates["em"] - sum(ems) / len(ems)) < 1e-9


def test_run_eval_failures_excluded_and_counted(chain_index):
    questions = [question("ok", {"p1"}), question("boom", {"p1"})]
    results = {
        "ok": SystemResult(ranked("p1"), None, None, 0, 0),
        "boom": RuntimeError("backend exploded"),
    }
    report = run_eval(
        questions, StubSystem(chain_index, results), cutoffs=(5,), workers=2
    )
    assert report.failures == 1
    assert report.rows[1].error == "backend exploded"
    assert report.aggregates["recall@5"] == 1.0
    assert report.rows[1].id == "boom"


class _SilentBackend:
    """A chat backend that fails with no message."""

    def complete(self, request):
        raise RuntimeError()


def test_failed_rows_always_say_why_on_one_line(chain_index):
    questions = [question(q, {"p1"}) for q in ("ok", "blank", "lines", "boom")]
    results = {
        "ok": SystemResult(ranked("p1"), None, None, 0, 0),
        "blank": RuntimeError(),
        "lines": ValueError("first line\nsecond line"),
        "boom": RuntimeError("backend exploded"),
    }
    report = run_eval(questions, StubSystem(chain_index, results), cutoffs=(5,), workers=1)
    errors = [row.error for row in report.rows]
    assert errors == [None, "RuntimeError", "first line\nsecond line", "backend exploded"]
    agent = AgentSystem(
        chain_index, AgentConfig(retrieval=RetrievalConfig(k=3, retriever="bm25")), _SilentBackend()
    )
    [agent_row] = run_eval([question("agent", {"p1"})], agent, cutoffs=(5,), workers=1).rows
    assert agent_row.error == "RuntimeError"
    # One line per row, and only the row that did not fail shows "-".
    lines = report.to_table().splitlines()
    assert len(lines) == len(questions) + 2
    assert [line.split("  ")[-1] for line in lines[1:-1]] == [
        "-", "RuntimeError", "first line second line", "backend exploded",
    ]


def test_run_eval_rejects_unresolved_gold(chain_index):
    questions = [question("a", {"does-not-exist"})]
    with pytest.raises(ValueError, match="does-not-exist"):
        run_eval(questions, StubSystem(chain_index, {}), cutoffs=(5,))


class UnlistedPassages(Mapping):
    """A passage mapping that answers lookups but fails on iteration."""

    def __init__(self, passages):
        self.passages = passages

    def __getitem__(self, pid):
        return self.passages[pid]

    def __contains__(self, pid):
        return pid in self.passages

    def __iter__(self):
        raise AssertionError("the gold check iterated every passage id")

    def __len__(self):
        return len(self.passages)


def test_run_eval_tests_each_gold_id_without_listing_the_index(chain_index):
    index = SimpleNamespace(passages=UnlistedPassages(chain_index.passages))
    questions = [question("a", {"p1", "p3"})]
    report = run_eval(
        questions, StubSystem(index, {"a": SystemResult(ranked("p1"), "x", 1, 2, 3)}),
        cutoffs=(5,), workers=1,
    )
    assert report.failures == 0
    with pytest.raises(ValueError, match=r"unresolved gold passages: \['nope'\]"):
        run_eval([question("b", {"p1", "nope"})], StubSystem(index, {}), cutoffs=(5,))


def test_run_eval_report_json_and_table(chain_index):
    questions = [question("a", {"p1"})]
    results = {"a": SystemResult(ranked("p1"), "answer text", 2, 5, 3)}
    report = run_eval(
        questions, StubSystem(chain_index, results), cutoffs=(5,), workers=1,
        config_snapshot={"retriever": "bm25"},
    )
    payload = json.loads(report.to_json())
    assert payload["config"] == {"retriever": "bm25"}
    assert payload["rows"][0]["recall"]["5"] == 1.0
    table = report.to_table()
    assert "R@5" in table and "mean" in table
    assert "1.000" in table


def test_a_row_dict_holds_evalrow_fields_in_order_with_string_cutoffs():
    row = EvalRow("q1", {5: 0.5, 10: 1.0}, 1, 0.5, 2, 30, 4)
    out = row.to_dict()
    assert list(out) == [f.name for f in fields(EvalRow)]
    assert out == {
        "id": "q1", "recall": {"5": 0.5, "10": 1.0}, "em": 1, "f1": 0.5,
        "iterations": 2, "input_tokens": 30, "output_tokens": 4, "error": None,
    }


def test_run_eval_row_order_follows_dataset_order(chain_index):
    questions = [question(f"q{i}", {"p1"}) for i in range(8)]
    results = {
        f"q{i}": SystemResult(ranked("p1"), None, None, 0, 0) for i in range(8)
    }
    report = run_eval(
        questions, StubSystem(chain_index, results), cutoffs=(5,), workers=4
    )
    assert [row.id for row in report.rows] == [f"q{i}" for i in range(8)]


def test_retriever_system_modes_and_qa(hop_index, hop_corpus):
    _, _, questions = hop_corpus
    base = RetrieverSystem(
        hop_index, RetrievalConfig(k=5, retriever="bm25"), mode="base"
    )
    result = base.run(questions[0])
    assert result.ranked.ids == ["q1p1"]
    assert result.answer is None

    def script(kind, variables):
        if kind == "qa_with_passages":
            return "ent1d"
        return hop_reader_script(kind, variables)

    sync = RetrieverSystem(
        hop_index,
        RetrievalConfig(k=5, retriever="bm25"),
        mode="sync-ge",
        expansion=ExpansionConfig(beam_width=4, max_length=3),
        backend=RecordingBackend(script),
        qa=True,
    )
    result = sync.run(questions[0])
    assert {"q1p1", "q1p2", "q1p3"} <= set(result.ranked.ids)
    assert result.answer == "ent1d"
    assert result.input_tokens > 0


def test_retriever_system_validation(hop_index):
    with pytest.raises(ValueError):
        RetrieverSystem(hop_index, RetrievalConfig(), mode="sync-ge")
    with pytest.raises(ValueError):
        RetrieverSystem(hop_index, RetrievalConfig(), mode="base", qa=True)
    with pytest.raises(ValueError):
        RetrieverSystem(hop_index, RetrievalConfig(), mode="wat")


def test_eval_six_question_scripted_report_byte_identical(hop_index, hop_corpus):
    _, _, questions = hop_corpus
    retrieval = RetrievalConfig(k=5, retriever="bm25")
    expansion = ExpansionConfig(beam_width=10, max_length=3)
    recorder = RecordingBackend(hop_reader_script)
    for q in questions:
        RetrieverSystem(
            hop_index, retrieval, mode="sync-ge", expansion=expansion,
            backend=recorder,
        ).run(q)
    scripted = recorder.to_scripted()

    def report():
        system = RetrieverSystem(
            hop_index, retrieval, mode="sync-ge", expansion=expansion,
            backend=scripted,
        )
        return run_eval(questions, system, cutoffs=(5, 10, 15), workers=3)

    assert report().to_json() == report().to_json()


def test_agent_system_answer_from_terminal_reason(hop_index, hop_corpus):
    _, _, questions = hop_corpus

    def script(kind, variables):
        if kind in ("reader", "reader_with_memory"):
            return hop_reader_script(kind, variables)
        if kind == "reasoner":
            return "Answerable: Yes\nAnswer: ent1d"
        raise AssertionError(kind)

    system = AgentSystem(
        hop_index,
        AgentConfig(
            retrieval=RetrievalConfig(k=5, retriever="bm25"),
            expansion=ExpansionConfig(beam_width=4, max_length=3),
            max_iterations=2,
        ),
        RecordingBackend(script),
    )
    result = system.run(questions[0])
    assert result.answer == "ent1d"
    assert result.iterations == 1
    assert result.input_tokens > 0


# ---------------------------------------------------------------------------
# question loading
# ---------------------------------------------------------------------------

def test_questions_loader_names_line_of_missing_field(tmp_path):
    path = tmp_path / "questions.jsonl"
    good = {"id": "q1", "question": "x", "gold_passage_ids": ["p1"], "answers": ["a"]}
    path.write_text(
        json.dumps(good) + "\n" + json.dumps({k: v for k, v in good.items() if k != "answers"})
    )
    with pytest.raises(ValueError, match=r"questions.jsonl:2: missing field 'answers'"):
        load_questions_jsonl(path)


def test_questions_loader_names_both_lines_of_a_repeated_id(tmp_path):
    path = tmp_path / "questions.jsonl"
    good = {"id": "q1", "question": "x", "gold_passage_ids": ["p1"], "answers": ["a"]}
    path.write_text("\n".join(
        json.dumps({**good, "id": qid}) for qid in ("q1", "q2", "q3", "q2")
    ) + "\n")
    with pytest.raises(
        ValueError, match=r"questions.jsonl:4: duplicate question id: 'q2', first on line 2"
    ):
        load_questions_jsonl(path)


def test_questions_loader_names_line_of_bad_json(tmp_path):
    path = tmp_path / "questions.jsonl"
    path.write_text('{"id": "q1",\n')
    with pytest.raises(ValueError, match=r"questions.jsonl:1: invalid JSON"):
        load_questions_jsonl(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("answers", "Paris", "field 'answers' must be an array, got a string"),
        ("answers", None, "field 'answers' must be an array, got null"),
        ("gold_passage_ids", "p1", "field 'gold_passage_ids' must be an array, got a string"),
        ("gold_passage_ids", 5, "field 'gold_passage_ids' must be an array, got a number"),
        ("gold_passage_ids", ["p1", None], "field 'gold_passage_ids[1]' must be a string, got null"),
        ("question", None, "field 'question' must be a string, got null"),
    ],
)
def test_questions_loader_names_line_of_wrong_json_type(tmp_path, field, value, message):
    path = tmp_path / "questions.jsonl"
    good = {"id": "q1", "question": "x", "gold_passage_ids": ["p1"], "answers": ["a"]}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ValueError, match=rf"questions.jsonl:2: {re.escape(message)}"):
        load_questions_jsonl(path)


def test_questions_loader_names_line_of_rejected_question(tmp_path):
    path = tmp_path / "questions.jsonl"
    path.write_text(json.dumps(
        {"id": "q1", "question": "x", "gold_passage_ids": [], "answers": ["a"]}
    ))
    with pytest.raises(ValueError, match=r"questions.jsonl:1: .*no gold passages"):
        load_questions_jsonl(path)
