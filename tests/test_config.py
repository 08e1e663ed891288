from __future__ import annotations

import configparser
import re
from pathlib import Path

import pytest

from triplehop import (
    AgentConfig,
    HashEmbedder,
    Passage,
    ScriptedBackend,
    build_index,
    load_engine_config,
    make_backend,
    save_index,
)
from triplehop.cli import dispatch
from triplehop.config import ConfigError, EngineConfig, LLMConfig, scalar_fields
from triplehop.llm_gateway import HttpChatBackend


def test_defaults_match_recommended_hyperparameters():
    cfg = EngineConfig()
    assert cfg.retrieval.k == 10
    assert cfg.retrieval.bm25_k1 == 1.2
    assert cfg.retrieval.bm25_b == 0.75
    assert cfg.retrieval.rrf_constant == 60
    assert cfg.expansion.beam_width == 10
    assert cfg.expansion.max_length == 2
    assert cfg.expansion.neighbour_cap == 100
    assert cfg.expansion.gamma == 2 * cfg.expansion.beam_width
    assert cfg.agent.max_iterations == 4
    assert cfg.agent.per_iteration_k == 10
    assert cfg.llm.temperature == 0.0
    assert cfg.llm.max_output_tokens == 1024
    assert cfg.eval.cutoffs == (5, 10, 15)


def test_missing_path_returns_defaults():
    assert load_engine_config(None) == EngineConfig()


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(
        """
[retrieval]
k = 7
retriever = dense
embedder = hash:64

[expansion]
gamma = 6.5
keep_stranded_beams = true

[agent]
reuse_first_read = yes

[eval]
cutoffs = 3, 6
"""
    )
    cfg = load_engine_config(path)
    assert cfg.retrieval.k == 7
    assert cfg.retrieval.retriever == "dense"
    assert cfg.embedder == "hash:64"
    assert cfg.expansion.gamma == 6.5
    assert cfg.expansion.keep_stranded_beams is True
    assert cfg.agent.reuse_first_read is True
    assert cfg.eval.cutoffs == (3, 6)
    # untouched sections keep defaults
    assert cfg.retrieval.bm25_k1 == 1.2
    assert cfg.llm.backend == "scripted"


def test_unknown_section_and_key_rejected(tmp_path):
    path = tmp_path / "bad1.cfg"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        load_engine_config(path)
    path2 = tmp_path / "bad2.cfg"
    path2.write_text("[retrieval]\nbeam_width = 3\n")
    with pytest.raises(ConfigError, match="beam_width"):
        load_engine_config(path2)


def test_invalid_boolean_rejected(tmp_path):
    path = tmp_path / "bad3.cfg"
    path.write_text("[agent]\nreuse_first_read = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_engine_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_engine_config(tmp_path / "nope.cfg")


def test_config_snapshot_round_trips():
    snapshot = EngineConfig().to_dict()
    assert snapshot["retrieval"]["k"] == 10
    assert snapshot["eval"]["cutoffs"] == [5, 10, 15]
    assert snapshot["embedder"] == "hash:256"


def test_make_backend_scripted_and_http(tmp_path):
    assert isinstance(make_backend(LLMConfig()), ScriptedBackend)
    http_cfg = LLMConfig(backend="http", endpoint="http://x/chat", model="m")
    assert isinstance(make_backend(http_cfg), HttpChatBackend)
    with pytest.raises(ConfigError):
        make_backend(LLMConfig(backend="http"))
    with pytest.raises(ConfigError):
        make_backend(LLMConfig(backend="quantum"))


def test_agent_config_composition():
    cfg = EngineConfig()
    agent_cfg = cfg.agent_config()
    assert agent_cfg.retrieval == cfg.retrieval
    assert agent_cfg.expansion == cfg.expansion
    assert agent_cfg.max_iterations == cfg.agent.max_iterations


def readme_ini_block() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    match = re.search(r"```ini\n(.*?)```", readme, re.S)
    assert match, "README has no ini block"
    return match.group(1)


def test_readme_config_example_is_the_defaults_and_names_every_field(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(readme_ini_block())
    assert load_engine_config(path) == EngineConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(path)
    for name, section in EngineConfig().sections().items():
        documented = set(parser.options(name)) - {"embedder"}
        assert documented == set(scalar_fields(type(section))), name
    assert parser.has_option("retrieval", "embedder")


def test_inline_comments_are_stripped(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("[retrieval]\nk = 7 ; result cutoff\nretriever = bm25;x\n")
    with pytest.raises(ConfigError, match="retriever"):
        load_engine_config(path)  # ";" without a space before it is no comment
    path.write_text("[retrieval]\nk = 7 ; result cutoff\n")
    assert load_engine_config(path).retrieval.k == 7


@pytest.mark.parametrize(
    "text, where",
    [
        ("[retrieval]\nk = x\n", r"\[retrieval\] k"),
        ("[eval]\ncutoffs = 5, ten\n", r"\[eval\] cutoffs"),
        ("[expansion]\ngamma = 0\n", r"\[expansion\] gamma"),
        ("[agent]\nmax_iterations = 0\n", r"\[agent\] max_iterations"),
        ("[retrieval]\nretriever = quantum\n", r"\[retrieval\] retriever"),
        ("[eval]\ncutoffs = 0, 10\n", r"\[eval\] cutoffs"),
        ("[eval]\ncutoffs =\n", r"\[eval\] cutoffs"),
        ("[eval]\nqa_k = 0\n", r"\[eval\] qa_k"),
        ("[eval]\nworkers = -3\n", r"\[eval\] workers"),
        ("[llm]\ntimeout = 0\n", r"\[llm\] timeout"),
        ("[llm]\ntimeout = -1\n", r"\[llm\] timeout"),
        ("[llm]\ntimeout = nan\n", r"\[llm\] timeout"),
        ("[llm]\nmax_retries = 0\n", r"\[llm\] max_retries"),
        ("[llm]\nin_flight_limit = 0\n", r"\[llm\] in_flight_limit"),
        ("[llm]\nmax_output_tokens = 0\n", r"\[llm\] max_output_tokens"),
        ("[llm]\ntemperature = -3\n", r"\[llm\] temperature"),
        ("[retrieval]\nbm25_b = 1.5\n", r"\[retrieval\] bm25_b"),
    ],
)
def test_bad_values_raise_config_error_naming_section_and_key(tmp_path, text, where):
    path = tmp_path / "engine.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=where):
        load_engine_config(path)


# Declared type -> values out of the range it gives (see ``check_settings``).
OUT_OF_RANGE = {
    int: [0],
    tuple[int, ...]: [(0,), (), (5, 0)],
    float: [float("nan"), float("inf"), float("-inf"), -1.0],
}


def out_of_range_settings():
    """(section, key, value) for each numeric setting of every section and
    each value out of its type's range, read from ``scalar_fields``."""
    for name, section in EngineConfig().sections().items():
        for key, kind in scalar_fields(type(section)).items():
            for value in OUT_OF_RANGE.get(kind, []):
                yield pytest.param(name, key, value, id=f"{name}.{key}={value}")


@pytest.mark.parametrize("section, key, value", out_of_range_settings())
def test_every_numeric_setting_rejects_values_out_of_its_types_range(
    tmp_path, section, key, value
):
    raw = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
    path = tmp_path / "engine.cfg"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: {key} must be"):
        load_engine_config(path)
    with pytest.raises(ValueError, match=rf"^{key} must be"):
        type(getattr(EngineConfig(), section))(**{key: value})


def test_out_of_range_cases_cover_every_numeric_setting():
    cases = {(p.values[0], p.values[1]) for p in out_of_range_settings()}
    assert ("retrieval", "bm25_k1") in cases and ("expansion", "gamma") in cases
    assert ("llm", "timeout") in cases and ("llm", "temperature") in cases
    assert ("eval", "cutoffs") in cases and ("agent", "max_iterations") in cases
    assert len(cases) == 19


def test_range_edges_load(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(
        "[retrieval]\nbm25_k1 = 0\nbm25_b = 1\nk = 1\n[llm]\ntemperature = 0\n"
        "[expansion]\ngamma = 0.001\n[eval]\ncutoffs = 1\n"
    )
    cfg = load_engine_config(path)
    assert (cfg.retrieval.bm25_k1, cfg.retrieval.bm25_b, cfg.retrieval.k) == (0.0, 1.0, 1)
    assert (cfg.llm.temperature, cfg.expansion.gamma, cfg.eval.cutoffs) == (0.0, 0.001, (1,))


def test_config_error_exits_1_from_the_cli(tmp_path, capsys):
    path = tmp_path / "engine.cfg"
    path.write_text("[agent]\nmax_iterations = 0\n")
    code = dispatch(["retrieve", "--index", str(tmp_path), "--query", "x",
                     "--config", str(path)])
    assert code == 1
    assert "[agent] max_iterations" in capsys.readouterr().err


def test_config_is_read_as_utf8_and_undecodable_bytes_raise_config_error(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_bytes("[llm]\nmodel = modèle-ß\n".encode("utf-8"))
    assert load_engine_config(path).llm.model == "modèle-ß"
    path.write_bytes(b"[llm]\nmodel = mod\xe8le\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
        load_engine_config(path)


def test_an_undecodable_config_exits_1_from_the_cli(tmp_path, capsys):
    path = tmp_path / "engine.cfg"
    path.write_bytes(b"[llm]\nmodel = \xff\n")
    code = dispatch(["retrieve", "--index", str(tmp_path), "--query", "x",
                     "--config", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: 'utf-8' codec")


def test_agent_section_sets_agent_config_fields():
    assert set(scalar_fields(AgentConfig)) == {
        "max_iterations", "per_iteration_k", "passage_link_k", "reuse_first_read",
    }
    cfg = EngineConfig()
    assert cfg.to_dict()["agent"] == {
        "max_iterations": 4, "per_iteration_k": 10, "passage_link_k": 15,
        "reuse_first_read": False,
    }


def test_percent_in_a_value_loads_verbatim(tmp_path, capsys):
    path = tmp_path / "engine.cfg"
    path.write_text("[llm]\nendpoint = http://localhost:1/v1%2Fchat\n")
    assert load_engine_config(path).llm.endpoint == "http://localhost:1/v1%2Fchat"
    index_dir = tmp_path / "idx"
    save_index(
        build_index([Passage("p1", "", "alpha beta")], [], HashEmbedder(64)), index_dir
    )
    code = dispatch(["retrieve", "--index", str(index_dir), "--query", "alpha",
                     "--config", str(path)])
    assert code == 0, capsys.readouterr().err
    assert "p1" in capsys.readouterr().out
