from __future__ import annotations

import io
import json
import sys

import pytest
import requests

from triplehop import (
    LLMGateway,
    RetrieverSystem,
    dense_search,
    load_engine_config,
    load_index,
    run_agent,
)
from triplehop.cli import dispatch
from triplehop.corpus_index import PASSAGES, TRIPLES
from triplehop.llm_gateway import ScriptedBackend

from .conftest import RecordingBackend
from .test_lexical_index import v3_copy, v4_copy

WALKTHROUGH_REWRITE = (
    "What is the location of the basilica dedicated to St. Peter, "
    "and when did that location become a country?"
)


def write_chain_corpus(tmp_path):
    passages = [
        {"id": "p1", "title": "first", "text": "enta linksto entb according to ledger one."},
        {"id": "p2", "title": "second", "text": "entb linksto entc according to ledger two."},
        {"id": "p3", "title": "third", "text": "entc linksto entd according to ledger three."},
        {"id": "p4", "title": "other", "text": "island fact lives here."},
    ]
    triples = [
        {"id": "t1", "passage_id": "p1", "subject": "enta", "predicate": "linksto", "object": "entb"},
        {"id": "t2", "passage_id": "p2", "subject": "entb", "predicate": "linksto", "object": "entc"},
        {"id": "t3", "passage_id": "p3", "subject": "entc", "predicate": "linksto", "object": "entd"},
        {"id": "t4", "passage_id": "p4", "subject": "island", "predicate": "kind", "object": "isolated"},
    ]
    ppath = tmp_path / "passages.jsonl"
    tpath = tmp_path / "triples.jsonl"
    ppath.write_text("".join(json.dumps(p) + "\n" for p in passages))
    tpath.write_text("".join(json.dumps(t) + "\n" for t in triples))
    return ppath, tpath


def write_config(tmp_path, fixtures_path=None, extra=""):
    fixtures = f"fixtures = {fixtures_path}" if fixtures_path else ""
    text = f"""
[retrieval]
k = 3
retriever = bm25

[expansion]
beam_width = 4
max_length = 3
gamma = 8.0

[agent]
max_iterations = 2

[llm]
backend = scripted
{fixtures}
{extra}
"""
    path = tmp_path / "engine.cfg"
    path.write_text(text)
    return path


@pytest.fixture()
def built_index(tmp_path):
    ppath, tpath = write_chain_corpus(tmp_path)
    out = tmp_path / "idx"
    config = write_config(tmp_path)
    code = dispatch([
        "index", "build", "--passages", str(ppath), "--triples", str(tpath),
        "--out", str(out), "--config", str(config),
    ])
    assert code == 0
    return out


def test_index_build_reports_counts(tmp_path, capsys):
    ppath, tpath = write_chain_corpus(tmp_path)
    out = tmp_path / "idx"
    code = dispatch([
        "index", "build", "--passages", str(ppath), "--triples", str(tpath),
        "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "4 passages" in captured.out
    assert "4 triples" in captured.out
    assert (out / "manifest.json").exists()


def test_retrieve_base_misses_second_hop_at_k1(built_index, tmp_path, capsys):
    config = write_config(tmp_path)
    code = dispatch([
        "retrieve", "--index", str(built_index),
        "--query", "where does the trail from enta finish",
        "--mode", "base", "--k", "1", "--config", str(config),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "p1" in out
    assert "p2" not in out and "p3" not in out


def test_retrieve_naive_ge_reaches_second_hop(built_index, tmp_path, capsys):
    config = write_config(tmp_path)
    code = dispatch([
        "retrieve", "--index", str(built_index),
        "--query", "where does the trail from enta finish",
        "--mode", "naive-ge", "--k", "5", "--config", str(config),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "p2" in out and "p3" in out


def test_retrieve_repeat_runs_identical_stdout(built_index, tmp_path, capsys):
    config = write_config(tmp_path)
    argv = [
        "retrieve", "--index", str(built_index),
        "--query", "where does the trail from enta finish",
        "--mode", "naive-ge", "--config", str(config),
    ]
    assert dispatch(argv) == 0
    first = capsys.readouterr().out
    assert dispatch(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def walkthrough_script(kind, variables):
    if kind in ("reader", "reader_with_memory"):
        return 'Facts: ("enta", "linksto", "entb")'
    if kind == "reasoner":
        return "Answerable: No\nWhy: the chain endpoint is still unknown."
    if kind == "rewriter":
        return f"Next Question: {WALKTHROUGH_REWRITE}"
    raise AssertionError(kind)


def record_agent_fixtures(index_dir, config_path, query, fixtures_path):
    cfg = load_engine_config(config_path)
    index = load_index(index_dir)
    recorder = RecordingBackend(walkthrough_script)
    run_agent(index, query, cfg.agent_config(), LLMGateway(recorder))
    recorder.to_scripted().save_jsonl(fixtures_path)


def test_agent_command_writes_walkthrough_trace(built_index, tmp_path, capsys):
    fixtures = tmp_path / "fixtures.jsonl"
    config = write_config(tmp_path, fixtures_path=fixtures)
    query = "where does the trail from enta finish"
    record_agent_fixtures(built_index, config, query, fixtures)

    trace_path = tmp_path / "trace.json"
    code = dispatch([
        "agent", "--index", str(built_index), "--query", query,
        "--config", str(config), "--trace", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination: max_iterations" in out
    payload = json.loads(trace_path.read_text())
    assert payload["iterations"][0]["rewritten_query"] == WALKTHROUGH_REWRITE
    assert payload["config"]["max_iterations"] == 2


def test_eval_command_writes_report(built_index, tmp_path, capsys):
    config = write_config(tmp_path)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        json.dumps({
            "id": "q1",
            "question": "where does the trail from enta finish",
            "gold_passage_ids": ["p1", "p2", "p3"],
            "answers": ["entd"],
        }) + "\n"
    )
    report_path = tmp_path / "report.json"
    code = dispatch([
        "eval", "--index", str(built_index), "--dataset", str(dataset),
        "--system", "naive-ge", "--config", str(config),
        "--report", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "R@5" in out
    payload = json.loads(report_path.read_text())
    assert payload["questions"] == 1
    assert payload["failures"] == 0
    # effective config is echoed into the report
    assert payload["config"]["retrieval"]["retriever"] == "bm25"
    assert payload["config"]["agent"]["max_iterations"] == 2


def test_extract_llm_build(tmp_path, capsys):
    ppath, _ = write_chain_corpus(tmp_path)
    fixtures = tmp_path / "fixtures.jsonl"
    backend = ScriptedBackend()
    for title, body, subject, obj in (
        ("first", "enta linksto entb according to ledger one.", "enta", "entb"),
        ("second", "entb linksto entc according to ledger two.", "entb", "entc"),
        ("third", "entc linksto entd according to ledger three.", "entc", "entd"),
    ):
        backend.register(
            "triple_extraction",
            {"wiki_title": title, "passage": body},
            f'{{"triples": [("{subject}", "linksto", "{obj}")]}}',
        )
    backend.register(
        "triple_extraction",
        {"wiki_title": "other", "passage": "island fact lives here."},
        "no structured content",
    )
    backend.save_jsonl(fixtures)
    config = write_config(tmp_path, fixtures_path=fixtures)
    out = tmp_path / "idx2"
    code = dispatch([
        "index", "build", "--passages", str(ppath), "--extract-llm",
        "--out", str(out), "--config", str(config),
    ])
    assert code == 0
    assert "3 triples" in capsys.readouterr().out
    index = load_index(out)
    assert set(index.triples) == {"p1#0", "p2#0", "p3#0"}
    # the passage whose extraction produced nothing is indexed with no triples
    assert index.passage_triples("p4") == ()


def test_index_build_with_a_bad_embedder_spec_exits_1(tmp_path, capsys):
    ppath, tpath = write_chain_corpus(tmp_path)
    config = tmp_path / "engine.cfg"
    config.write_text("[retrieval]\nembedder = hash:4\n")
    code = dispatch([
        "index", "build", "--passages", str(ppath), "--triples", str(tpath),
        "--out", str(tmp_path / "idx"), "--config", str(config),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: [retrieval] embedder: ")
    assert not (tmp_path / "idx").exists()


def test_usage_errors_exit_1(capsys):
    assert dispatch(["retrieve"]) == 1  # missing required flags
    assert dispatch(["no-such-command"]) == 1
    assert dispatch([]) == 1
    assert dispatch(["index"]) == 1
    err = capsys.readouterr().err
    assert err != ""


def test_runtime_errors_exit_2(tmp_path, capsys):
    code = dispatch([
        "retrieve", "--index", str(tmp_path / "missing"), "--query", "x",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_retrieve_from_an_old_format_index_names_the_rebuild(tmp_path, capsys):
    old = v3_copy(tmp_path)
    assert dispatch(["retrieve", "--index", str(old), "--query", "Ada Vell"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {old / 'manifest.json'}: format_version 3, but only 6 loads")
    assert line.endswith("rebuild the index with `triplehop index build`")


def test_index_build_replaces_an_old_format_index_in_place(tmp_path, capsys):
    old = v3_copy(tmp_path)
    code = dispatch([
        "index", "build", "--passages", str(old / "passages.jsonl"),
        "--triples", str(old / "triples.jsonl"), "--out", str(old),
    ])
    assert code == 0, capsys.readouterr().err
    assert sorted(p.name for p in old.iterdir()) == ["index.npz", "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v3"]
    index = load_index(old)
    assert (len(index.passages), len(index.triples)) == (24, 48)
    capsys.readouterr()
    assert dispatch(["retrieve", "--index", str(old), "--query", "Ada Vell", "--k", "1"]) == 0
    assert capsys.readouterr().out != ""


def test_index_build_replaces_a_format_4_index_in_place(tmp_path, capsys):
    # the format-4 fixture holds no JSONL: it is rebuilt from the input it was built from
    old, source = v4_copy(tmp_path), v3_copy(tmp_path)
    assert dispatch(["retrieve", "--index", str(old), "--query", "Ada Vell"]) == 2
    assert "format_version 4, but only 6 loads" in capsys.readouterr().err
    code = dispatch([
        "index", "build", "--passages", str(source / "passages.jsonl"),
        "--triples", str(source / "triples.jsonl"), "--out", str(old),
    ])
    assert code == 0, capsys.readouterr().err
    assert sorted(p.name for p in old.iterdir()) == ["index.npz", "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v3", "v4"]
    index = load_index(old)
    assert (len(index.passages), len(index.triples)) == (24, 48)


def test_index_build_names_the_file_and_lines_of_a_repeated_passage_id(tmp_path, capsys):
    ppath, tpath = write_chain_corpus(tmp_path)
    first = ppath.read_text().splitlines()[0]
    ppath.write_text(ppath.read_text() + first + "\n")
    repeat = len(ppath.read_text().splitlines())
    code = dispatch([
        "index", "build", "--passages", str(ppath), "--triples", str(tpath),
        "--out", str(tmp_path / "x"),
    ])
    assert code != 0
    err = capsys.readouterr().err
    assert f"{ppath}:{repeat}: duplicate passage id" in err and "first on line 1" in err
    assert not (tmp_path / "x").exists()


def test_index_build_takes_text_with_lone_surrogates(tmp_path, capsys):
    # Valid JSON ("\ud800" escapes) that UTF-8 cannot encode without surrogatepass.
    body = "Zorblat \ud800 dwells in Quenth by the \udfff river."
    passages = [
        {"id": "p1", "title": "odd", "text": body},
        {"id": "p2", "title": "plain", "text": "island fact lives here."},
    ]
    triples = [
        {"id": "t1", "passage_id": "p1", "subject": "Zorblat \ud800", "predicate": "dwells in",
         "object": "Quenth"},
        {"id": "t2", "passage_id": "p2", "subject": "island", "predicate": "kind",
         "object": "isolated"},
    ]
    ppath, tpath = tmp_path / "passages.jsonl", tmp_path / "triples.jsonl"
    ppath.write_text("".join(json.dumps(p) + "\n" for p in passages))
    tpath.write_text("".join(json.dumps(t) + "\n" for t in triples))
    out = tmp_path / "idx"
    code = dispatch([
        "index", "build", "--passages", str(ppath), "--triples", str(tpath), "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    loaded = load_index(out)
    assert loaded.passages["p1"].body == body
    assert loaded.triples["t1"].subject == "Zorblat \ud800"
    query = "where does Zorblat \ud800 dwell"
    assert dense_search(loaded, query, PASSAGES, 1).ids == ["p1"]
    assert dense_search(loaded, query, TRIPLES, 1).ids == ["t1"]
    capsys.readouterr()
    code = dispatch(["retrieve", "--index", str(out), "--query", query, "--k", "1"])
    assert code == 0
    assert "p1" in capsys.readouterr().out


def test_mutually_exclusive_triple_sources(tmp_path, capsys):
    ppath, tpath = write_chain_corpus(tmp_path)
    code = dispatch([
        "index", "build", "--passages", str(ppath), "--triples", str(tpath),
        "--extract-llm", "--out", str(tmp_path / "x"),
    ])
    assert code == 1


def test_exclusive_triple_sources_are_a_usage_error_before_any_file_is_read(tmp_path, capsys):
    code = dispatch([
        "index", "build", "--passages", str(tmp_path / "missing.jsonl"),
        "--triples", str(tmp_path / "missing-triples.jsonl"), "--extract-llm",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-2", "three"])
def test_retrieve_k_below_one_is_a_usage_error(built_index, capsys, k):
    code = dispatch(["retrieve", "--index", str(built_index), "--query", "x", "--k", k])
    assert code == 1
    assert "usage error: argument --k" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "triplehop" in capsys.readouterr().out


def _question_dataset(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        json.dumps({
            "id": "q1",
            "question": "where does the trail from enta finish",
            "gold_passage_ids": ["p1"],
            "answers": ["entd"],
        }) + "\n"
    )
    return dataset


# The [llm] sampling settings must reach every request the http backend
# sends, whichever command builds the backend.
LLM_COMMANDS = {
    "eval-sync-ge": lambda idx, tmp: [
        "eval", "--index", str(idx), "--dataset", str(_question_dataset(tmp)),
        "--system", "sync-ge",
    ],
    "eval-agent": lambda idx, tmp: [
        "eval", "--index", str(idx), "--dataset", str(_question_dataset(tmp)),
        "--system", "agent",
    ],
    "retrieve-sync-ge": lambda idx, tmp: [
        "retrieve", "--index", str(idx), "--query", "where does the trail from enta finish",
        "--mode", "sync-ge",
    ],
    "index-build-extract-llm": lambda idx, tmp: [
        "index", "build", "--passages", str(tmp / "passages.jsonl"), "--extract-llm",
        "--out", str(tmp / "extracted"),
    ],
}


@pytest.mark.parametrize("command", sorted(LLM_COMMANDS))
def test_llm_settings_reach_the_wire(built_index, tmp_path, capsys, monkeypatch, command):
    payloads = []
    reply = {"choices": [{"message": {"content": 'Facts: ("enta", "linksto", "entb")'}}]}

    def post(url, **kwargs):
        payloads.append(kwargs["json"])
        response = requests.Response()
        response.status_code = 200
        response._content = json.dumps(reply).encode()
        return response

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    config = tmp_path / "http.cfg"
    config.write_text(
        write_config(tmp_path).read_text().replace(
            "backend = scripted",
            "backend = http\nendpoint = http://chat.invalid/v1\nmodel = m\n"
            "temperature = 0.7\nmax_output_tokens = 77",
        )
    )
    argv = LLM_COMMANDS[command](built_index, tmp_path) + ["--config", str(config)]
    assert dispatch(argv) == 0
    if command.startswith("eval"):
        assert "failures=0" in capsys.readouterr().out
    assert payloads
    assert {(p["temperature"], p["max_tokens"]) for p in payloads} == {(0.7, 77)}


@pytest.mark.parametrize("mode", RetrieverSystem.MODES)
def test_retrieve_prints_the_eval_systems_ranking(
    built_index, tmp_path, capsys, monkeypatch, mode
):
    recorder = RecordingBackend(walkthrough_script)
    monkeypatch.setattr("triplehop.cli.make_backend", lambda cfg: recorder)
    config = write_config(tmp_path)
    query = "where does the trail from enta finish"
    code = dispatch([
        "retrieve", "--index", str(built_index), "--query", query,
        "--mode", mode, "--config", str(config),
    ])
    assert code == 0
    printed = [line.split()[2] for line in capsys.readouterr().out.splitlines()[1:]]
    cfg = load_engine_config(config)
    system = RetrieverSystem(
        load_index(built_index), cfg.retrieval, mode=mode, expansion=cfg.expansion,
        backend=recorder, chunk_cap=cfg.agent.per_iteration_k,
    )
    assert printed == system.retrieve(query).ids


def test_retrieve_prints_a_title_with_a_lone_surrogate_escaped(tmp_path, monkeypatch):
    # build, save and load keep "\ud800" (valid JSON); a strict UTF-8 stdout cannot print it
    passages = [
        {"id": "p1", "title": "Zorblat \ud800 hall", "text": "Zorblat dwells in Quenth."},
        {"id": "p2", "title": "plain", "text": "island fact lives here."},
    ]
    ppath = tmp_path / "passages.jsonl"
    ppath.write_text("".join(json.dumps(p) + "\n" for p in passages))
    out = tmp_path / "idx"
    assert dispatch(["index", "build", "--passages", str(ppath), "--out", str(out)]) == 0
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = dispatch(["retrieve", "--index", str(out), "--query", "Zorblat Quenth", "--k", "1"])
    stdout.flush()
    printed = stdout.buffer.getvalue().decode("utf-8")
    assert code == 0
    assert "p1" in printed and "Zorblat \\ud800 hall" in printed
