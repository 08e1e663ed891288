"""Command-line driver: index building, single-shot retrieval, agent runs,
and batch evaluation.

Exit codes: 0 success, 1 usage or config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from .agent import run_agent
from .base_retrieval import resolve_embedder
from .config import ConfigError, EngineConfig, load_engine_config, make_backend
from .corpus_index import (
    Triple,
    build_index,
    load_index,
    load_passages_jsonl,
    load_triples_jsonl,
    save_index,
)
from .eval_harness import (
    AgentSystem,
    RetrieverSystem,
    format_columns,
    load_questions_jsonl,
    run_eval,
)
from .llm_gateway import GatewayError, LLMGateway, parse_extraction

log = logging.getLogger(__name__)

EVAL_SYSTEMS = RetrieverSystem.MODES + ("agent",)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triplehop", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_index = sub.add_parser("index", help="index management")
    index_sub = p_index.add_subparsers(dest="index_command")
    p_build = index_sub.add_parser("build", help="build and persist an index")
    p_build.add_argument("--passages", required=True, help="passages JSONL")
    triple_source = p_build.add_mutually_exclusive_group()
    triple_source.add_argument("--triples", help="precomputed triples JSONL")
    triple_source.add_argument(
        "--extract-llm", action="store_true",
        help="extract triples from passages with the configured LLM",
    )
    p_build.add_argument("--out", required=True, help="output index directory")
    p_build.add_argument("--config", help="engine config file")
    p_build.set_defaults(func=cmd_index_build)

    p_retrieve = sub.add_parser("retrieve", help="single-shot retrieval")
    p_retrieve.add_argument("--index", required=True)
    p_retrieve.add_argument("--query", required=True)
    p_retrieve.add_argument("--mode", choices=RetrieverSystem.MODES, default="base")
    p_retrieve.add_argument("--k", type=_positive_int)
    p_retrieve.add_argument("--config")
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_agent = sub.add_parser("agent", help="multi-step agent run")
    p_agent.add_argument("--index", required=True)
    p_agent.add_argument("--query", required=True)
    p_agent.add_argument("--config")
    p_agent.add_argument("--trace", help="write the full trace JSON here")
    p_agent.set_defaults(func=cmd_agent)

    p_eval = sub.add_parser("eval", help="batch evaluation")
    p_eval.add_argument("--index", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--system", choices=EVAL_SYSTEMS, default="base")
    p_eval.add_argument("--config")
    p_eval.add_argument("--report", help="write the report JSON here")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def _load_config(args) -> EngineConfig:
    return load_engine_config(getattr(args, "config", None))


def cmd_index_build(args) -> int:
    cfg = _load_config(args)
    passages = load_passages_jsonl(args.passages)
    if args.triples:
        triples = load_triples_jsonl(args.triples)
    elif args.extract_llm:
        triples = _extract_triples(passages, cfg)
    else:
        triples = []
    embedder = resolve_embedder(cfg.embedder)
    index = build_index(passages, triples, embedder)
    save_index(index, args.out)
    print(
        f"indexed {len(index.passages)} passages, {len(index.triples)} triples "
        f"-> {args.out}"
    )
    return 0


def _extract_triples(passages, cfg: EngineConfig) -> list[Triple]:
    gateway = LLMGateway(make_backend(cfg.llm))
    triples: list[Triple] = []
    for passage in passages:
        try:
            raw = gateway.complete(
                "triple_extraction",
                {"wiki_title": passage.title, "passage": passage.body},
            )
            extracted = parse_extraction(raw)
        except GatewayError as e:
            log.warning("triple extraction failed for passage %s: %s", passage.id, e)
            extracted = []
        if not extracted:
            log.info("passage %s indexed with zero triples", passage.id)
        for ordinal, (subject, predicate, target) in enumerate(extracted):
            triples.append(
                Triple(
                    id=f"{passage.id}#{ordinal}",
                    subject=subject,
                    predicate=predicate,
                    object=target,
                    passage_id=passage.id,
                )
            )
    return triples


def _print_ranked(index, ranked) -> None:
    rows = [["rank", "score", "passage", "title"]]
    for rank, (pid, score) in enumerate(ranked.entries, start=1):
        rows.append([str(rank), f"{score:.6f}", pid, index.passages[pid].title])
    # A lone surrogate (valid JSON "\ud800") prints as its escape.
    print(format_columns(rows).encode("utf-8", "backslashreplace").decode("utf-8"))


def _make_system(index, cfg: EngineConfig, mode: str, qa: bool = False):
    """The eval system for ``mode``: one of RetrieverSystem.MODES, or "agent"."""
    backend = make_backend(cfg.llm) if mode in ("sync-ge", "agent") or qa else None
    if mode == "agent":
        return AgentSystem(
            index, cfg.agent_config(), backend, qa_fallback=qa, qa_k=cfg.eval.qa_k
        )
    return RetrieverSystem(
        index, cfg.retrieval, mode=mode, expansion=cfg.expansion, backend=backend,
        qa=qa, chunk_cap=cfg.agent.per_iteration_k, qa_k=cfg.eval.qa_k,
    )


def cmd_retrieve(args) -> int:
    cfg = _load_config(args)
    if args.k is not None:
        cfg = replace(cfg, retrieval=replace(cfg.retrieval, k=args.k))
    index = load_index(args.index)
    _print_ranked(index, _make_system(index, cfg, args.mode).retrieve(args.query))
    return 0


def cmd_agent(args) -> int:
    cfg = _load_config(args)
    index = load_index(args.index)
    gateway = LLMGateway(make_backend(cfg.llm))
    trace = run_agent(index, args.query, cfg.agent_config(), gateway)
    _print_ranked(index, trace.final.truncated(cfg.retrieval.k))
    if trace.answer is not None:
        print(f"answer: {trace.answer}")
    print(f"termination: {trace.termination_cause} "
          f"after {len(trace.iterations)} iteration(s)")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_json())
            fh.write("\n")
        print(f"trace written to {args.trace}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    index = load_index(args.index)
    questions = load_questions_jsonl(args.dataset)
    system = _make_system(index, cfg, args.system, qa=cfg.eval.qa)
    report = run_eval(
        questions,
        system,
        cutoffs=cfg.eval.cutoffs,
        workers=cfg.eval.workers,
        binary_recall=cfg.eval.binary_recall,
        config_snapshot=cfg.to_dict(),
    )
    print(report.to_table())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse -h/--help
        return int(e.code or 0)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return int(func(args) or 0)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    sys.exit(dispatch())
