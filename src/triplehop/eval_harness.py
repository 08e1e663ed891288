"""Dataset ingestion, retrieval/QA metrics, and batch evaluation runs.

Metrics follow the usual open-domain QA conventions: fractional recall@k over
gold passages (a strict all-found variant is available behind a flag), and
exact match / token F1 over normalized answer strings.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .agent import AgentConfig, run_agent
from .base_retrieval import RankedList, RetrievalConfig, base_retrieve
from .corpus_index import PASSAGES, CorpusIndex, read_jsonl, text_field, text_list_field
from .graph_expansion import ExpansionConfig, naive_ge_detail, sync_ge_detail
from .llm_gateway import ChatBackend, LLMGateway, format_qa_docs


@dataclass(frozen=True)
class EvalQuestion:
    id: str
    question: str
    gold_passage_ids: frozenset[str]
    gold_answers: tuple[str, ...]

    def __post_init__(self):
        if not self.gold_passage_ids:
            raise ValueError(f"question {self.id!r} has no gold passages")
        if not self.gold_answers:
            raise ValueError(f"question {self.id!r} has no gold answers")


def load_questions_jsonl(path: str | Path) -> list[EvalQuestion]:
    """Read questions from JSONL: {"id", "question", "gold_passage_ids", "answers"}.

    ``gold_passage_ids`` and ``answers`` are JSON arrays of strings. Invalid
    JSON, a missing field, a field of the wrong JSON type, a rejected
    question or a repeated id raises ValueError naming ``path:line``.
    """
    return read_jsonl(
        path,
        lambda obj: EvalQuestion(
            id=text_field(obj, "id"),
            question=text_field(obj, "question"),
            gold_passage_ids=frozenset(text_list_field(obj, "gold_passage_ids")),
            gold_answers=tuple(text_list_field(obj, "answers")),
        ),
        ValueError,
        kind="question",
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def recall_at_k(
    retrieved: Sequence[str],
    gold: Iterable[str],
    k: int,
    *,
    binary: bool = False,
) -> float:
    """Fraction of gold passages found in the top-k retrieved list.

    With ``binary=True`` the score is 1.0 only when every gold passage is found.
    """
    gold_set = set(gold)
    if not gold_set:
        raise ValueError("gold set must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = len(gold_set & set(retrieved[:k]))
    if binary:
        return 1.0 if hits == len(gold_set) else 0.0
    return hits / len(gold_set)


_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, drop articles, strip punctuation, collapse whitespace."""
    text = text.lower()
    text = _ARTICLE_RE.sub(" ", text)
    text = text.translate(_PUNCT_TABLE)
    return " ".join(text.split())


def exact_match(prediction: str, gold_answers: Iterable[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold answer."""
    normalized = normalize_answer(prediction)
    return int(any(normalized == normalize_answer(gold) for gold in gold_answers))


def _f1_single(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if common == 0:
        return 0.0
    precision = common / len(pred_tokens)
    recall = common / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_answer(prediction: str, gold_answers: Iterable[str]) -> float:
    """Token-level F1 with multiplicity, maximised over the gold answers."""
    return max(_f1_single(prediction, gold) for gold in gold_answers)


# ---------------------------------------------------------------------------
# Systems under evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemResult:
    ranked: RankedList
    answer: str | None
    iterations: int | None
    input_tokens: int
    output_tokens: int


def generate_answer(
    index: CorpusIndex,
    gateway: LLMGateway,
    question: str,
    ranked: RankedList,
    qa_k: int = 5,
) -> str:
    """Answer from the QA prompt over the top-k retrieved passages."""
    pairs = [
        (index.passages[pid].title, index.passages[pid].body)
        for pid in ranked.ids[:qa_k]
    ]
    raw = gateway.complete(
        "qa_with_passages",
        {"docs": format_qa_docs(pairs), "question": question},
    )
    return raw.strip()


class RetrieverSystem:
    """Single-step system: base retrieval or one of the graph-expanded modes.

    Each question gets a fresh ``LLMGateway(backend)``, so its token counts
    are its own; sampling settings belong to the backend.
    """

    MODES = ("base", "naive-ge", "sync-ge")

    def __init__(
        self,
        index: CorpusIndex,
        retrieval: RetrievalConfig,
        mode: str = "base",
        expansion: ExpansionConfig | None = None,
        backend: ChatBackend | None = None,
        qa: bool = False,
        chunk_cap: int = 10,
        qa_k: int = 5,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown mode: {mode!r}")
        if mode == "sync-ge" and backend is None:
            raise ValueError("sync-ge requires an LLM backend")
        if qa and backend is None:
            raise ValueError("QA metrics require an LLM backend")
        self.index = index
        self.retrieval = retrieval
        self.mode = mode
        self.expansion = expansion or ExpansionConfig()
        self.backend = backend
        self.qa = qa
        self.chunk_cap = chunk_cap
        self.qa_k = qa_k

    def retrieve(self, query: str, gateway: LLMGateway | None = None) -> RankedList:
        """Passages ranked by this system's mode. sync-ge reads through
        ``gateway``, a fresh one if none is given."""
        if self.mode == "base":
            return base_retrieve(self.index, query, PASSAGES, self.retrieval)
        if self.mode == "naive-ge":
            return naive_ge_detail(
                self.index, query, self.retrieval, self.expansion
            ).fused
        if gateway is None:
            gateway = LLMGateway(self.backend)
        return sync_ge_detail(
            self.index,
            query,
            self.retrieval,
            self.expansion,
            gateway,
            chunk_cap=self.chunk_cap,
        ).fused

    def run(self, question: EvalQuestion) -> SystemResult:
        gateway = None
        if self.backend is not None:
            gateway = LLMGateway(self.backend)
        ranked = self.retrieve(question.question, gateway)
        answer = None
        if self.qa and gateway is not None:
            answer = generate_answer(
                self.index, gateway, question.question, ranked, self.qa_k
            )
        tokens_in = gateway.ledger.total_input() if gateway else 0
        tokens_out = gateway.ledger.total_output() if gateway else 0
        return SystemResult(ranked, answer, None, tokens_in, tokens_out)


class AgentSystem:
    """Multi-step system: the full agent loop, with a fresh
    ``LLMGateway(backend)`` per question; sampling settings belong to the
    backend."""

    def __init__(
        self,
        index: CorpusIndex,
        config: AgentConfig,
        backend: ChatBackend,
        qa_fallback: bool = True,
        qa_k: int = 5,
    ):
        self.index = index
        self.config = config
        self.backend = backend
        self.qa_fallback = qa_fallback
        self.qa_k = qa_k

    def run(self, question: EvalQuestion) -> SystemResult:
        gateway = LLMGateway(self.backend)
        trace = run_agent(self.index, question.question, self.config, gateway)
        answer = trace.answer
        if answer is None and self.qa_fallback:
            answer = generate_answer(
                self.index, gateway, question.question, trace.final, self.qa_k
            )
        return SystemResult(
            trace.final,
            answer,
            len(trace.iterations),
            gateway.ledger.total_input(),
            gateway.ledger.total_output(),
        )


# ---------------------------------------------------------------------------
# Batch runs and reports
# ---------------------------------------------------------------------------

@dataclass
class EvalRow:
    id: str
    recall: dict[int, float]
    em: int | None
    f1: float | None
    iterations: int | None
    input_tokens: int
    output_tokens: int
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "recall": {str(k): v for k, v in self.recall.items()},
            "em": self.em,
            "f1": self.f1,
            "iterations": self.iterations,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "error": self.error,
        }


@dataclass
class EvalReport:
    rows: list[EvalRow]
    aggregates: dict[str, float | None]
    failures: int
    config: dict

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "aggregates": self.aggregates,
            "failures": self.failures,
            "questions": len(self.rows),
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_table(self) -> str:
        cutoffs = sorted(self.rows[0].recall) if self.rows else []
        headers = ["id"] + [f"R@{k}" for k in cutoffs] + [
            "EM", "F1", "iters", "tok_in", "tok_out", "error",
        ]
        lines = [headers]
        for row in self.rows:
            lines.append(
                [row.id]
                + [f"{row.recall[k]:.3f}" for k in cutoffs]
                + [
                    "-" if row.em is None else str(row.em),
                    "-" if row.f1 is None else f"{row.f1:.3f}",
                    "-" if row.iterations is None else str(row.iterations),
                    str(row.input_tokens),
                    str(row.output_tokens),
                    row.error or "-",
                ]
            )
        agg = ["mean"] + [
            _fmt_agg(self.aggregates.get(f"recall@{k}")) for k in cutoffs
        ] + [
            _fmt_agg(self.aggregates.get("em")),
            _fmt_agg(self.aggregates.get("f1")),
            "-", "-", "-", f"failures={self.failures}",
        ]
        lines.append(agg)
        return format_columns(lines)


def format_columns(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells as left-aligned columns two spaces apart, one line per
    row with trailing spaces stripped; the first row sets the column count."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def _fmt_agg(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def run_eval(
    questions: Sequence[EvalQuestion],
    system,
    cutoffs: Sequence[int] = (5, 10, 15),
    *,
    workers: int = 4,
    binary_recall: bool = False,
    config_snapshot: dict | None = None,
) -> EvalReport:
    """Evaluate a system over a dataset with a bounded worker pool.

    Row order follows dataset order. Per-question failures are recorded on the
    row and excluded from the aggregates.
    """
    for question in questions:
        unresolved = {pid for pid in question.gold_passage_ids if pid not in system.index.passages}
        if unresolved:
            raise ValueError(
                f"question {question.id!r} has unresolved gold passages: "
                f"{sorted(unresolved)}"
            )

    def run_one(question: EvalQuestion) -> EvalRow:
        try:
            result = system.run(question)
        except Exception as e:
            return EvalRow(
                id=question.id,
                recall={k: 0.0 for k in cutoffs},
                em=None,
                f1=None,
                iterations=None,
                input_tokens=0,
                output_tokens=0,
                error=str(e),
            )
        ids = result.ranked.ids
        recall = {
            k: recall_at_k(ids, question.gold_passage_ids, k, binary=binary_recall)
            for k in cutoffs
        }
        em = f1 = None
        if result.answer is not None:
            em = exact_match(result.answer, question.gold_answers)
            f1 = f1_answer(result.answer, question.gold_answers)
        return EvalRow(
            id=question.id,
            recall=recall,
            em=em,
            f1=f1,
            iterations=result.iterations,
            input_tokens=result.input_tokens,
            output_tokens=result.output_tokens,
        )

    if workers > 1 and len(questions) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_one, questions))
    else:
        rows = [run_one(question) for question in questions]

    ok_rows = [row for row in rows if row.error is None]
    aggregates: dict[str, float | None] = {}
    for k in cutoffs:
        aggregates[f"recall@{k}"] = _mean([row.recall[k] for row in ok_rows])
    aggregates["em"] = _mean([row.em for row in ok_rows if row.em is not None])
    aggregates["f1"] = _mean([row.f1 for row in ok_rows if row.f1 is not None])
    aggregates["iterations"] = _mean(
        [row.iterations for row in ok_rows if row.iterations is not None]
    )
    aggregates["input_tokens"] = _mean([row.input_tokens for row in ok_rows])
    aggregates["output_tokens"] = _mean([row.output_tokens for row in ok_rows])

    return EvalReport(
        rows=rows,
        aggregates=aggregates,
        failures=len(rows) - len(ok_rows),
        config=config_snapshot or {},
    )
