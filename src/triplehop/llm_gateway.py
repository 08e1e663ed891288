"""Single choke point for all LLM interactions.

Everything that talks to a language model goes through LLMGateway: prompt
templating, the remote chat-completion client, a deterministic scripted
backend for offline tests, response parsing, and per-call token accounting.
No other module constructs LLM requests. ``post_json`` is the one HTTP call
with retries, shared with the remote embedder.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import re
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, TypeVar

from .corpus_index import read_jsonl, text_field

TEMPLATE_NAMES = (
    "triple_extraction",
    "reader",
    "reader_with_memory",
    "reasoner",
    "rewriter",
    "qa_with_passages",
)

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class PromptError(ValueError):
    """Unknown template or unbound placeholder at render time."""


class GatewayError(RuntimeError):
    """Base class for completion failures."""


class FixtureMissError(GatewayError):
    """The scripted backend has no fixture for a (kind, key) pair."""


class CompletionError(GatewayError):
    """The remote backend failed: an error not worth retrying, or every retry."""


@dataclass(frozen=True)
class ProximalTriple:
    """A (subject, predicate, object) fact produced by an LLM read."""

    subject: str
    predicate: str
    object: str


@dataclass(frozen=True)
class ReasonOutcome:
    """Termination check result: the answer when answerable, else the reason."""

    answerable: bool
    payload: str


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    if name not in TEMPLATE_NAMES:
        raise PromptError(f"unknown template: {name!r}")
    return (
        resources.files(__package__).joinpath(f"prompts/{name}.txt").read_text("utf-8")
    )


def template_placeholders(name: str) -> frozenset[str]:
    return frozenset(_PLACEHOLDER_RE.findall(load_template(name)))


def render_prompt(template_name: str, variables: Mapping[str, str]) -> str:
    """Substitute named placeholders; no other transformation is applied."""
    text = load_template(template_name)
    referenced = template_placeholders(template_name)
    missing = referenced - set(variables)
    if missing:
        raise PromptError(
            f"unbound placeholders for {template_name!r}: {sorted(missing)}"
        )

    def substitute(match: re.Match) -> str:
        return str(variables[match.group(1)])

    return _PLACEHOLDER_RE.sub(substitute, text)


def serialize_facts(triples: Iterable[ProximalTriple]) -> str:
    """Facts-format serialization: ("s", "p", "o"), ("s", "p", "o"), ..."""
    return ", ".join(
        f'("{t.subject}", "{t.predicate}", "{t.object}")' for t in triples
    )


def format_qa_docs(passages: Iterable[tuple[str, str]]) -> str:
    """Per-passage blocks for the QA prompt, from (title, text) pairs."""
    return "\n\n".join(f"Wikipedia Title: {title}\n{text}" for title, text in passages)


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(r"\(([^()]*)\)")
_QUOTED_TRIPLE_RE = re.compile(
    r'\s*"([^"]*)"\s*,\s*"([^"]*)"\s*,\s*"([^"]*)"\s*$'
)
_ANSWERABLE_RE = re.compile(
    r"^[ \t]*answerable\s*:\s*(yes|no)\b", re.IGNORECASE | re.MULTILINE
)
_NEXT_QUESTION_RE = re.compile(r"next question\s*:\s*(.*)", re.IGNORECASE)


def parse_facts(raw: str) -> list[ProximalTriple]:
    """Extract all well-formed ("a", "b", "c") groups, dropping malformed ones."""
    out = []
    for group in _GROUP_RE.finditer(raw):
        match = _QUOTED_TRIPLE_RE.match(group.group(1))
        if not match:
            continue
        subject, predicate, obj = (part.strip() for part in match.groups())
        if subject and predicate and obj:
            out.append(ProximalTriple(subject, predicate, obj))
    return out


def parse_reason(raw: str) -> ReasonOutcome:
    """Read an "Answerable: Yes/No" reply; anything malformed means not answerable."""
    match = _ANSWERABLE_RE.search(raw)
    if not match:
        return ReasonOutcome(False, raw.strip() or raw)
    answerable = match.group(1).lower() == "yes"
    marker = "answer:" if answerable else "why:"
    lowered = raw.lower()
    pos = lowered.find(marker, match.end())
    if pos < 0:
        return ReasonOutcome(False, raw.strip() or raw)
    payload = raw[pos + len(marker):].strip()
    if not payload:
        return ReasonOutcome(False, raw.strip() or raw)
    return ReasonOutcome(answerable, payload)


def parse_next_question(raw: str) -> str:
    """Rewriter output: the "Next Question:" line, or the whole reply trimmed."""
    match = _NEXT_QUESTION_RE.search(raw)
    return (match.group(1) if match else raw).strip()


def parse_extraction(raw: str) -> list[tuple[str, str, str]]:
    """Triple-extraction output: strict JSON when possible, facts regex otherwise."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict) and isinstance(obj.get("triples"), list):
        triples = []
        for item in obj["triples"]:
            if (
                isinstance(item, (list, tuple))
                and len(item) == 3
                and all(isinstance(part, str) for part in item)
            ):
                subject, predicate, target = (part.strip() for part in item)
                if subject and predicate and target:
                    triples.append((subject, predicate, target))
        return triples
    return [(t.subject, t.predicate, t.object) for t in parse_facts(raw)]


# ---------------------------------------------------------------------------
# Token accounting
# ---------------------------------------------------------------------------

def whitespace_tokens(text: str) -> int:
    return len(text.split())


@dataclass(frozen=True)
class TokenRecord:
    kind: str
    input_tokens: int
    output_tokens: int
    iteration: int


class TokenLedger:
    """Append-only, thread-safe record of every completion call."""

    def __init__(self):
        self._records: list[TokenRecord] = []
        self._lock = threading.Lock()

    def add(self, kind: str, input_tokens: int, output_tokens: int, iteration: int):
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be non-negative")
        with self._lock:
            self._records.append(
                TokenRecord(kind, input_tokens, output_tokens, iteration)
            )

    @property
    def records(self) -> tuple[TokenRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def total_input(self) -> int:
        return sum(r.input_tokens for r in self.records)

    def total_output(self) -> int:
        return sum(r.output_tokens for r in self.records)

    def by_iteration(self) -> dict[int, tuple[int, int]]:
        totals: dict[int, tuple[int, int]] = {}
        for r in self.records:
            tin, tout = totals.get(r.iteration, (0, 0))
            totals[r.iteration] = (tin + r.input_tokens, tout + r.output_tokens)
        return totals

    def to_dict(self) -> dict:
        """The records and their totals, all from one snapshot."""
        records = self.records
        return {
            "records": [dict(vars(r)) for r in records],
            "total_input": sum(r.input_tokens for r in records),
            "total_output": sum(r.output_tokens for r in records),
        }


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompletionRequest:
    kind: str
    prompt: str
    variables: Mapping[str, str]


@dataclass(frozen=True)
class CompletionResult:
    text: str
    input_tokens: int
    output_tokens: int


class ChatBackend(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResult: ...


def canonical_key(variables: Mapping[str, str]) -> str:
    """SHA-256 of the canonical JSON form of a variable map."""
    canon = json.dumps(
        {k: str(v) for k, v in variables.items()},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ScriptedBackend:
    """Deterministic offline backend: fixtures keyed by (kind, variable-map hash)."""

    def __init__(self, fixtures: Mapping[tuple[str, str], str] | None = None):
        self._fixtures: dict[tuple[str, str], str] = dict(fixtures or {})

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedBackend":
        """Fixtures from ``save_jsonl``'s format: {"kind", "key", "response"}
        per line. Invalid JSON, or a field that is missing or not text (see
        ``text_field``), raises ValueError naming ``path:line``."""

        def parse(obj: dict) -> tuple[tuple[str, str], str]:
            kind, key = text_field(obj, "kind"), text_field(obj, "key")
            return (kind, key), text_field(obj, "response")

        entries = read_jsonl(path, parse, ValueError)
        return cls(dict(entries))

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (kind, key), response in sorted(self._fixtures.items()):
                fh.write(
                    json.dumps({"kind": kind, "key": key, "response": response}) + "\n"
                )

    def register(self, kind: str, variables: Mapping[str, str], response: str) -> None:
        self._fixtures[(kind, canonical_key(variables))] = response

    def complete(self, request: CompletionRequest) -> CompletionResult:
        key = canonical_key(request.variables)
        response = self._fixtures.get((request.kind, key))
        if response is None:
            raise FixtureMissError(f"no fixture for kind={request.kind!r} key={key}")
        return CompletionResult(
            response, whitespace_tokens(request.prompt), whitespace_tokens(response)
        )


T = TypeVar("T")


def _retry_after(response) -> float | None:
    """Seconds a ``requests.Response`` asked to wait (delta-seconds or an
    HTTP date), if any."""
    value = response.headers.get("Retry-After")
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    import email.utils

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, when.timestamp() - time.time())


def post_json(
    endpoint: str,
    payload: dict,
    parse: Callable[[dict], T],
    error: type[Exception],
    *,
    headers: Mapping[str, str] | None = None,
    timeout: float = 60.0,
    max_retries: int = 3,
    backoff_base: float = 1.0,
    slots: contextlib.AbstractContextManager | None = None,
) -> T:
    """POST ``payload`` as JSON and return ``parse`` of the decoded reply.

    Connection errors, timeouts, 429 and 5xx replies are retried, ``max_retries``
    attempts in all. Between attempts it waits the reply's ``Retry-After`` if
    it gives one, else ``backoff_base * 2**attempt`` times a random factor in
    [0.5, 1.5). Any other failed request or status, or a reply ``parse``
    cannot read, raises ``error`` at once; so does the last failed attempt.
    The raised error's ``__cause__`` is the exception behind it, if any (a
    ``requests.HTTPError`` carries the reply).
    ``slots``, if given, is held around each request (an in-flight limit).

    ``requests`` is imported here, on the first call, not with the package:
    a process that makes no HTTP request never loads it, urllib3 or ssl.
    """
    import requests

    last_error: object = None
    for attempt in range(max_retries):
        wait = None
        try:
            with slots or contextlib.nullcontext():
                response = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as e:
            last_error = e
        except requests.RequestException as e:
            raise error(f"request to {endpoint} failed: {e}") from e
        else:
            if response.status_code != 429 and response.status_code < 500:
                try:
                    response.raise_for_status()
                    return parse(response.json())
                except (
                    requests.RequestException, AttributeError, KeyError, IndexError,
                    TypeError, ValueError,
                ) as e:
                    raise error(f"request to {endpoint} failed: {e!r}") from e
            last_error = f"HTTP {response.status_code}"
            wait = _retry_after(response)
        if attempt < max_retries - 1:
            if wait is None:
                wait = backoff_base * 2**attempt * (0.5 + random.random())
            time.sleep(wait)
    cause = last_error if isinstance(last_error, Exception) else None
    raise error(f"request to {endpoint} failed after {max_retries} attempts: {last_error}") from cause


def check_http_limits(timeout: float, **counts: int) -> None:
    """Raise ValueError naming the first bad value unless ``timeout`` > 0
    and each of ``counts`` (name -> value) is >= 1."""
    if not timeout > 0:  # also false for NaN
        raise ValueError(f"timeout must be > 0, got {timeout!r}")
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")


class HttpChatBackend:
    """Chat-completion JSON-over-HTTP client with bounded retries.

    The one place sampling settings live: each request sends {"model",
    "messages", "temperature", "max_tokens"}, the last two from this
    backend's ``temperature`` and ``max_output_tokens``. It reads the
    assistant text plus token usage from the response; usage falls back to
    whitespace counts when the server omits it. Retries follow ``post_json``;
    every failure raises ``CompletionError``. A ``timeout`` not above 0, or a
    ``max_retries``, ``in_flight_limit`` or ``max_output_tokens`` below 1,
    raises ValueError here, at construction (``check_http_limits``).
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        temperature: float = 0.0,
        max_output_tokens: int = 1024,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        timeout: float = 60.0,
        in_flight_limit: int = 4,
    ):
        check_http_limits(
            timeout, max_retries=max_retries, in_flight_limit=in_flight_limit,
            max_output_tokens=max_output_tokens,
        )
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.max_output_tokens = max_output_tokens
        self.api_key = api_key
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._slots = threading.Semaphore(in_flight_limit)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        def parse(data: dict) -> CompletionResult:
            text = data["choices"][0]["message"]["content"]
            usage = data.get("usage") or {}
            return CompletionResult(
                text,
                int(usage.get("prompt_tokens", whitespace_tokens(request.prompt))),
                int(usage.get("completion_tokens", whitespace_tokens(text))),
            )

        return post_json(
            self.endpoint, payload, parse, CompletionError,
            headers=headers, timeout=self.timeout, max_retries=self.max_retries,
            backoff_base=self.backoff_base, slots=self._slots,
        )


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

class _IterationTag(threading.local):
    iteration = 0  # each thread starts outside the agent loop


class LLMGateway:
    """Renders prompts, invokes the backend, and accounts for every call.

    It holds no sampling settings: a backend that samples (``HttpChatBackend``)
    owns its own, and the scripted backend does not sample. Its iteration tag
    is per gateway and per thread, and goes with the gateway: two threads
    sharing a gateway each tag their own calls."""

    def __init__(self, backend: ChatBackend):
        self.backend = backend
        self.ledger = TokenLedger()
        self._tag = _IterationTag()

    def set_iteration(self, iteration: int) -> None:
        """Tag this thread's subsequent calls through this gateway with an
        agent iteration (0 = outside the loop), per gateway and per thread.
        Another thread's calls, and a new thread's, keep their own tag (0
        until set)."""
        self._tag.iteration = iteration

    def complete(self, template_name: str, variables: Mapping[str, str]) -> str:
        prompt = render_prompt(template_name, variables)
        request = CompletionRequest(kind=template_name, prompt=prompt, variables=dict(variables))
        result = self.backend.complete(request)
        self.ledger.add(
            template_name, result.input_tokens, result.output_tokens,
            self._tag.iteration,
        )
        return result.text
