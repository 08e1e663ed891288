"""Engine configuration: INI-style file with sections retrieval, expansion,
agent, llm, and eval. Values from the file override the built-in defaults,
which match the recommended hyperparameters (beam width 10, expansion length
2, 100 neighbours per beam, gamma 20, 4 agent iterations, 10 chunks per
read, temperature 0).

A section's keys and their types are the scalar fields of its dataclass
(``[agent]`` sets the scalar fields of ``AgentConfig``), and each type gives
its values' range (``check_settings``); ``[retrieval]`` also takes
``embedder``, a spec that ``resolve_embedder`` accepts. Text after " ;" on
a line is a comment.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .agent import AgentConfig
from .base_retrieval import RetrievalConfig, resolve_embedder
from .graph_expansion import ExpansionConfig
from .llm_gateway import (
    ChatBackend, HttpChatBackend, ScriptedBackend, check_settings, scalar_fields,
)


@dataclass(frozen=True)
class LLMConfig:
    backend: str = "scripted"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "LLM_API_KEY"
    temperature: float = 0.0
    max_retries: int = 3
    max_output_tokens: int = 1024
    fixtures: str = ""
    in_flight_limit: int = 4
    timeout: float = 60.0

    def __post_init__(self):
        check_settings(LLMConfig, vars(self))
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout!r}")


@dataclass(frozen=True)
class EvalSettings:
    cutoffs: tuple[int, ...] = (5, 10, 15)
    workers: int = 4
    binary_recall: bool = False
    qa: bool = False
    qa_k: int = 5

    def __post_init__(self):
        check_settings(EvalSettings, vars(self))


@dataclass(frozen=True)
class EngineConfig:
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    llm: LLMConfig = field(default_factory=LLMConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)
    embedder: str = "hash:256"

    def sections(self) -> dict[str, object]:
        """Section name -> settings, in file order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if is_dataclass(getattr(self, f.name))
        }

    def agent_config(self) -> AgentConfig:
        """The [agent] settings, run with this config's retrieval and expansion."""
        return replace(self.agent, retrieval=self.retrieval, expansion=self.expansion)

    def to_dict(self) -> dict:
        out: dict = {
            name: {key: getattr(section, key) for key in scalar_fields(type(section))}
            for name, section in self.sections().items()
        }
        out["eval"]["cutoffs"] = list(self.eval.cutoffs)
        out["embedder"] = self.embedder
        return out


class ConfigError(ValueError):
    """Malformed config file, unknown key or invalid value."""


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}


def _coerce(raw: str, target_type):
    if target_type is bool:
        value = _BOOL_VALUES.get(raw.strip().lower())
        if value is None:
            raise ConfigError(f"invalid boolean: {raw!r}")
        return value
    if target_type is str:
        return raw.strip()
    if target_type == tuple[int, ...]:
        return tuple(int(part) for part in raw.replace(",", " ").split())
    return target_type(raw)


def _section(parser: configparser.ConfigParser, name: str, defaults):
    if not parser.has_section(name):
        return defaults
    known = scalar_fields(type(defaults))
    section = defaults
    for key, raw in parser.items(name):
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            section = replace(section, **{key: _coerce(raw, known[key])})
        except (TypeError, ValueError) as e:
            raise ConfigError(f"[{name}] {key}: {e}") from e
    return section


def load_engine_config(path: str | Path | None = None) -> EngineConfig:
    """Read an engine config file, as UTF-8; absent file sections keep their
    defaults. A file that does not parse or decode raises ConfigError naming it."""
    defaults = EngineConfig()
    if path is None:
        return defaults
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    if not read:
        raise ConfigError(f"config file not found: {path}")

    embedder = defaults.embedder
    if parser.has_section("retrieval") and parser.has_option("retrieval", "embedder"):
        embedder = parser.get("retrieval", "embedder").strip()
        parser.remove_option("retrieval", "embedder")
        try:
            resolve_embedder(embedder)
        except ValueError as e:
            raise ConfigError(f"[retrieval] embedder: {e}") from e

    sections = defaults.sections()
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section: [{section}]")

    return EngineConfig(
        **{name: _section(parser, name, value) for name, value in sections.items()},
        embedder=embedder,
    )


def make_backend(cfg: LLMConfig) -> ChatBackend:
    """Construct the chat backend named by the config."""
    if cfg.backend == "scripted":
        if cfg.fixtures:
            return ScriptedBackend.from_jsonl(cfg.fixtures)
        return ScriptedBackend()
    if cfg.backend == "http":
        if not cfg.endpoint or not cfg.model:
            raise ConfigError("http backend requires endpoint and model")
        return HttpChatBackend(
            cfg.endpoint,
            cfg.model,
            temperature=cfg.temperature,
            max_output_tokens=cfg.max_output_tokens,
            api_key=os.environ.get(cfg.api_key_env) or None,
            max_retries=cfg.max_retries,
            timeout=cfg.timeout,
            in_flight_limit=cfg.in_flight_limit,
        )
    raise ConfigError(f"unknown llm backend: {cfg.backend!r}")
