from __future__ import annotations

import contextvars
import email.utils
import http.server
import json
import random
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    CompletionError,
    FixtureMissError,
    HttpChatBackend,
    HttpEmbedder,
    LLMGateway,
    PromptError,
    ProximalTriple,
    RetrievalError,
    ScriptedBackend,
    TokenLedger,
    parse_facts,
    parse_reason,
    render_prompt,
    serialize_facts,
)
from triplehop.llm_gateway import (
    TokenRecord,
    canonical_key,
    format_qa_docs,
    load_template,
    parse_extraction,
    parse_next_question,
    whitespace_tokens,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "triplehop"


# ---------------------------------------------------------------------------
# Templates and rendering
# ---------------------------------------------------------------------------

def test_reader_render_substitutes_and_has_no_memory_sentences():
    text = render_prompt("reader", {"docs": "DOC-BLOCK", "query": "Q-TEXT"})
    assert "DOC-BLOCK" in text
    assert "Q-TEXT" in text
    assert "{" not in text
    assert "preliminary facts" not in text


def test_reader_with_memory_carries_facts_line():
    facts = '("A", "r", "B")'
    text = render_prompt(
        "reader_with_memory", {"docs": "D", "query": "Q", "triples": facts}
    )
    assert "and some preliminary facts provided below" in text
    assert f"Facts: {facts}" in text


def test_reasoner_contains_answerable_format_instructions():
    text = render_prompt("reasoner", {"query": "Q", "triples": ""})
    assert "Answerable: Yes" in text
    assert "Answerable: No" in text
    assert "Answer: ..." in text
    assert "Why: ..." in text


def test_unknown_template_and_unbound_placeholder():
    with pytest.raises(PromptError):
        render_prompt("nonexistent", {})
    with pytest.raises(PromptError, match="triples"):
        render_prompt("reasoner", {"query": "Q"})


def test_template_fixed_demonstrations_survive_rendering():
    extraction = render_prompt(
        "triple_extraction", {"wiki_title": "My Title", "passage": "My passage."}
    )
    # the embedded demonstrations arrive byte-identical, double braces included
    assert '{{"named_entities": ["Michigan State", "national championship",' in extraction
    assert '("Magic Johnson", "member of sports team", "Michigan State"),' in extraction
    assert '("George R. R. Martin", "country of citizenship", "United States of America"),' in extraction
    assert "My Title" in extraction and "My passage." in extraction
    assert "{wiki_title}" not in extraction and "{passage}" not in extraction

    rewriter = render_prompt(
        "rewriter", {"query": "Q", "triples": "", "reason": "R"}
    )
    assert '("Guy Shepherdson", "born in", "Jakarta")' in rewriter
    assert "Next Question: What region of Jakarta contains SMA Negeri 68?" in rewriter

    qa = render_prompt("qa_with_passages", {"docs": "D", "question": "Q"})
    assert "Wikipedia Title: Edward L. Cahn" in qa
    assert "Answer: August 25, 1963." in qa


def test_reader_templates_differ_only_in_memory_sections():
    reader = load_template("reader")
    with_memory = load_template("reader_with_memory")
    assert "{triples}" not in reader
    assert "{triples}" in with_memory
    assert reader.splitlines()[0] == with_memory.splitlines()[0]


def test_format_qa_docs_blocks():
    docs = format_qa_docs([("T1", "body one"), ("T2", "body two")])
    assert docs == "Wikipedia Title: T1\nbody one\n\nWikipedia Title: T2\nbody two"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_facts_two_triples_in_order():
    facts = parse_facts('Facts: ("A", "r", "B"), ("C", "s", "D")')
    assert facts == [
        ProximalTriple("A", "r", "B"),
        ProximalTriple("C", "s", "D"),
    ]


def test_parse_facts_no_groups():
    assert parse_facts("There are no facts here, just prose.") == []


def test_parse_facts_drops_malformed_groups():
    assert parse_facts('("A", "r")') == []
    assert parse_facts('("A", "r, "B")') == []
    assert parse_facts('(A, r, B)') == []
    mixed = parse_facts('("ok", "fine", "good"), ("bad", "pair")')
    assert mixed == [ProximalTriple("ok", "fine", "good")]


def test_parse_facts_trims_fields_and_drops_blank():
    assert parse_facts('(" A ", " r ", " B ")') == [ProximalTriple("A", "r", "B")]
    assert parse_facts('("", "r", "B")') == []


safe_field = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz 0123456789", min_size=1, max_size=12
).filter(lambda s: s.strip())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(safe_field, safe_field, safe_field), min_size=1, max_size=5))
def test_facts_serialization_round_trips(fields):
    triples = [
        ProximalTriple(s.strip(), p.strip(), o.strip()) for s, p, o in fields
    ]
    assert parse_facts(serialize_facts(triples)) == triples


def test_parse_reason_yes_answer():
    outcome = parse_reason("Answerable: Yes\nAnswer: 1929")
    assert outcome.answerable is True
    assert outcome.payload == "1929"


def test_parse_reason_no_why():
    outcome = parse_reason("Answerable: No\nWhy: missing facts")
    assert outcome.answerable is False
    assert outcome.payload == "missing facts"


def test_parse_reason_freeform_fallback():
    raw = "I could not decide anything."
    outcome = parse_reason(raw)
    assert outcome.answerable is False
    assert outcome.payload == raw


def test_parse_reason_nonstandard_boolean_falls_back():
    raw = "Answerable: False\nAnswer or reason: facts do not mention it"
    outcome = parse_reason(raw)
    assert outcome.answerable is False
    assert outcome.payload == raw


def test_parse_reason_is_case_insensitive_and_multiline():
    outcome = parse_reason("Some preamble\nANSWERABLE: yes\nANSWER: on line two\nmore")
    assert outcome.answerable is True
    assert outcome.payload == "on line two\nmore"


def test_parse_next_question_variants():
    assert parse_next_question("Next Question: What now?") == "What now?"
    assert parse_next_question("What now?") == "What now?"
    assert parse_next_question("   ") == ""


def test_parse_extraction_strict_json():
    raw = json.dumps(
        {"named_entities": ["A"], "triples": [["A", "r", "B"], ["C", "s", "D"]]}
    )
    assert parse_extraction(raw) == [("A", "r", "B"), ("C", "s", "D")]


def test_parse_extraction_falls_back_to_facts_regex():
    raw = '{"triples": [\n    ("A", "r", "B"),\n    ("C", "s", "D"),\n]}'
    assert parse_extraction(raw) == [("A", "r", "B"), ("C", "s", "D")]


# ---------------------------------------------------------------------------
# Scripted backend and ledger
# ---------------------------------------------------------------------------

def test_scripted_backend_deterministic_and_accounted():
    backend = ScriptedBackend()
    backend.register("reasoner", {"query": "q", "triples": ""}, "Answerable: No\nWhy: x")
    gateway = LLMGateway(backend)
    first = gateway.complete("reasoner", {"query": "q", "triples": ""})
    second = gateway.complete("reasoner", {"query": "q", "triples": ""})
    assert first == second == "Answerable: No\nWhy: x"
    records = gateway.ledger.records
    assert len(records) == 2
    assert records[0] == records[1]
    assert records[0].output_tokens == whitespace_tokens("Answerable: No\nWhy: x")


def test_scripted_backend_miss_names_key():
    gateway = LLMGateway(ScriptedBackend())
    key = canonical_key({"query": "q", "triples": ""})
    with pytest.raises(FixtureMissError, match=key):
        gateway.complete("reasoner", {"query": "q", "triples": ""})


def test_scripted_backend_jsonl_round_trip(tmp_path):
    backend = ScriptedBackend()
    backend.register("reader", {"docs": "D", "query": "Q"}, 'Facts: ("A", "r", "B")')
    path = tmp_path / "fixtures.jsonl"
    backend.save_jsonl(path)
    loaded = ScriptedBackend.from_jsonl(path)
    gateway = LLMGateway(loaded)
    assert gateway.complete("reader", {"docs": "D", "query": "Q"}).startswith("Facts")


def test_scripted_backend_jsonl_names_line_of_missing_response(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    path.write_text(
        json.dumps({"kind": "reader", "key": "k1", "response": "Facts: none"}) + "\n"
        + json.dumps({"kind": "reader", "key": "k2"}) + "\n"
    )
    with pytest.raises(ValueError, match=r"fixtures.jsonl:2: missing field 'response'"):
        ScriptedBackend.from_jsonl(path)


def test_scripted_backend_jsonl_names_line_of_bad_json(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    path.write_text("\n" + '{"kind": "reader",\n')
    with pytest.raises(ValueError, match=r"fixtures.jsonl:2: invalid JSON"):
        ScriptedBackend.from_jsonl(path)


def test_scripted_backend_jsonl_names_line_of_null_response(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    path.write_text(json.dumps({"kind": "reader", "key": "k1", "response": None}) + "\n")
    with pytest.raises(
        ValueError, match=r"fixtures.jsonl:1: field 'response' must be a string, got null"
    ):
        ScriptedBackend.from_jsonl(path)


def test_ledger_iteration_tags_partition_calls():
    backend = ScriptedBackend()
    backend.register("reasoner", {"query": "q", "triples": ""}, "Answerable: No\nWhy: x")
    gateway = LLMGateway(backend)
    gateway.set_iteration(1)
    gateway.complete("reasoner", {"query": "q", "triples": ""})
    gateway.set_iteration(2)
    gateway.complete("reasoner", {"query": "q", "triples": ""})
    gateway.complete("reasoner", {"query": "q", "triples": ""})
    gateway.set_iteration(0)
    by_iter = gateway.ledger.by_iteration()
    assert set(by_iter) == {1, 2}
    total_in = sum(tin for tin, _ in by_iter.values())
    total_out = sum(tout for _, tout in by_iter.values())
    assert total_in == gateway.ledger.total_input()
    assert total_out == gateway.ledger.total_output()
    assert len(gateway.ledger.records) == 3


def test_iteration_tags_are_per_thread_on_a_shared_gateway():
    # Thread a sets its iteration, then thread b sets another before a calls:
    # each call must still carry its own thread's tag.
    backend = ScriptedBackend()
    backend.register("reasoner", {"query": "a", "triples": ""}, "Answerable: No\nWhy: x")
    backend.register("reasoner", {"query": "b", "triples": ""}, "Answerable: No\nWhy: y z")
    gateway = LLMGateway(backend)
    a_set, b_set = threading.Event(), threading.Event()
    errors = []

    def run(query, iteration, mine, theirs):
        try:
            if query == "b":
                assert theirs.wait(5)
            gateway.set_iteration(iteration)
            mine.set()
            if query == "a":
                assert theirs.wait(5)
            gateway.complete("reasoner", {"query": query, "triples": ""})
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    threads = [
        threading.Thread(target=run, args=("a", 1, a_set, b_set)),
        threading.Thread(target=run, args=("b", 2, b_set, a_set)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert errors == []
    # the main thread never set an iteration, so its call is tagged 0
    gateway.complete("reasoner", {"query": "a", "triples": ""})
    tags = {(r.output_tokens, r.iteration) for r in gateway.ledger.records}
    assert tags == {(4, 1), (5, 2), (4, 0)}


def test_iteration_tags_leave_the_thread_context_unchanged():
    # The tag goes with its gateway: gateways that tag and are dropped leave
    # no entry behind in the calling thread's context.
    backend = ScriptedBackend()
    before = len(contextvars.copy_context())
    for iteration in range(1, 51):
        LLMGateway(backend).set_iteration(iteration)
    assert len(contextvars.copy_context()) == before


class _AddOnFirstRelease:
    """Lock stand-in whose first release adds a record, as another thread
    would right after a reader's first read."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.released = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self.released:
            self.released = True
            self.ledger.add("reader", 7, 11, 2)


def test_ledger_to_dict_totals_are_the_sums_of_its_records():
    ledger = TokenLedger()
    ledger.add("reasoner", 3, 5, 1)
    ledger._lock = _AddOnFirstRelease(ledger)
    out = ledger.to_dict()
    assert len(ledger.records) == 2  # the stand-in did add a record
    assert out == {
        "records": [{"kind": "reasoner", "input_tokens": 3, "output_tokens": 5, "iteration": 1}],
        "total_input": 3,
        "total_output": 5,
    }
    # Each record's keys are its fields, in order: the trace JSON's bytes.
    assert list(out["records"][0]) == list(TokenRecord.__dataclass_fields__)


def test_ledger_rejects_negative_counts():
    backend = ScriptedBackend()
    gateway = LLMGateway(backend)
    with pytest.raises(ValueError):
        gateway.ledger.add("reader", -1, 0, 0)


def test_ledger_is_thread_safe():
    ledger = TokenLedger()

    def hammer():
        for _ in range(200):
            ledger.add("reader", 1, 2, 0)

    workers = [threading.Thread(target=hammer) for _ in range(8)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len(ledger.records) == 1600
    assert ledger.total_input() == 1600
    assert ledger.total_output() == 3200


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------

class _ChatHandler(http.server.BaseHTTPRequestHandler):
    hits = 0
    fail_times = 0
    include_usage = True

    def do_POST(self):
        cls = type(self)
        cls.hits += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if cls.hits <= cls.fail_times:
            self.send_response(500)
            self.end_headers()
            return
        body = {
            "choices": [
                {"message": {"content": f"echo:{payload['model']}"}}
            ],
        }
        if cls.include_usage:
            body["usage"] = {"prompt_tokens": 11, "completion_tokens": 7}
        raw = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


# Variables of the qa_with_passages prompt the HTTP backend tests send.
QA_VARIABLES = {"docs": "D", "question": "Q?"}


@pytest.fixture()
def chat_server():
    handler = type("Handler", (_ChatHandler,), {"hits": 0, "fail_times": 0,
                                                "include_usage": True})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/chat", handler
    server.shutdown()
    server.server_close()


def test_http_backend_success_with_usage(chat_server):
    url, handler = chat_server
    backend = HttpChatBackend(url, "test-model", max_retries=2, backoff_base=0.0)
    gateway = LLMGateway(backend)
    text = gateway.complete("qa_with_passages", QA_VARIABLES)
    assert text == "echo:test-model"
    record = gateway.ledger.records[0]
    assert (record.input_tokens, record.output_tokens) == (11, 7)


def test_http_backend_usage_fallback_to_whitespace(chat_server):
    url, handler = chat_server
    handler.include_usage = False
    backend = HttpChatBackend(url, "m", max_retries=1)
    gateway = LLMGateway(backend)
    text = gateway.complete("qa_with_passages", QA_VARIABLES)
    record = gateway.ledger.records[0]
    assert record.output_tokens == whitespace_tokens(text)
    # the whitespace-separated words of the rendered qa_with_passages prompt
    assert record.input_tokens == 590


def test_http_backend_retries_then_succeeds(chat_server):
    url, handler = chat_server
    handler.fail_times = 2
    backend = HttpChatBackend(url, "m", max_retries=3, backoff_base=0.0)
    result = backend.complete(
        _request("qa_with_passages", QA_VARIABLES)
    )
    assert result.text == "echo:m"
    assert handler.hits == 3


def test_http_backend_exhausts_retries(chat_server):
    url, handler = chat_server
    handler.fail_times = 99
    backend = HttpChatBackend(url, "m", max_retries=3, backoff_base=0.0)
    with pytest.raises(CompletionError, match="3 attempts"):
        backend.complete(_request("qa_with_passages", QA_VARIABLES))
    assert handler.hits == 3


def test_http_backend_unreachable_errors():
    backend = HttpChatBackend(
        "http://127.0.0.1:9/nothing", "m", max_retries=2, backoff_base=0.0,
        timeout=0.5,
    )
    with pytest.raises(CompletionError):
        backend.complete(_request("qa_with_passages", QA_VARIABLES))


@pytest.mark.parametrize(
    "setting",
    [
        {"timeout": 0},
        {"timeout": -1.0},
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"temperature": float("nan")},
        {"temperature": -3.0},
        {"backoff_base": float("inf")},
        {"max_retries": 0},
        {"in_flight_limit": 0},
        {"max_output_tokens": 0},
    ],
)
def test_http_backend_rejects_bad_limits_at_construction(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        HttpChatBackend("http://chat.invalid/v1", "m", **setting)


# Retry policy, with requests.post and time.sleep replaced: no network.

class _Replies:
    """Stands in for requests.post: serves the scripted replies in order."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.calls = 0

    def __call__(self, url, **kwargs):
        self.calls += 1
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        status, body, reply_headers = reply
        response = requests.Response()
        response.status_code = status
        response._content = body if isinstance(body, bytes) else json.dumps(body).encode()
        response.headers.update(reply_headers)
        response.url = url
        return response


CHAT_OK = (200, {"choices": [{"message": {"content": "fine"}}]}, {})
EMBED_OK = (200, {"data": [{"embedding": [1.0, 2.0]}]}, {})


@pytest.fixture()
def sleeps(monkeypatch):
    waits: list[float] = []
    monkeypatch.setattr(time, "sleep", waits.append)
    monkeypatch.setattr(random, "random", lambda: 0.25)
    return waits


def _chat(monkeypatch, replies, max_retries=3):
    monkeypatch.setattr(requests, "post", replies)
    backend = HttpChatBackend("http://chat.invalid/v1", "m", max_retries=max_retries,
                              backoff_base=2.0)
    return backend.complete(_request("qa_with_passages", QA_VARIABLES))


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_http_client_errors_fail_at_once(monkeypatch, sleeps, status):
    replies = _Replies((status, {"error": "no"}, {}), CHAT_OK)
    with pytest.raises(CompletionError, match=str(status)):
        _chat(monkeypatch, replies)
    assert replies.calls == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "body",
    [b"not json", {"choices": []}, {"choices": [{"message": {}}]}, [1, 2],
     {"choices": [{"message": {"content": "x"}}], "usage": 5}],
)
def test_http_malformed_body_fails_at_once(monkeypatch, sleeps, body):
    replies = _Replies((200, body, {}), CHAT_OK)
    with pytest.raises(CompletionError):
        _chat(monkeypatch, replies)
    assert replies.calls == 1
    assert sleeps == []


def test_http_retries_transient_failures_with_jittered_backoff(monkeypatch, sleeps):
    replies = _Replies(
        requests.ConnectionError("refused"), requests.Timeout("slow"), (503, b"", {}),
        (429, b"", {}), CHAT_OK,
    )
    result = _chat(monkeypatch, replies, max_retries=5)
    assert result.text == "fine"
    assert replies.calls == 5
    # backoff_base * 2**attempt, times the jitter factor 0.5 + 0.25
    assert sleeps == [1.5, 3.0, 6.0, 12.0]


def test_http_honours_retry_after(monkeypatch, sleeps):
    when = email.utils.formatdate(time.time() + 30, usegmt=True)
    replies = _Replies(
        (429, b"", {"Retry-After": "7"}), (503, b"", {"Retry-After": when}), CHAT_OK
    )
    assert _chat(monkeypatch, replies).text == "fine"
    assert sleeps[0] == 7.0
    assert 25.0 < sleeps[1] <= 30.0


def test_http_exhausted_retries_name_the_last_error(monkeypatch, sleeps):
    replies = _Replies((500, b"", {}), (502, b"", {}), (503, b"", {}))
    with pytest.raises(CompletionError, match="3 attempts: HTTP 503"):
        _chat(monkeypatch, replies)
    assert len(sleeps) == 2


def test_http_embedder_shares_the_retry_policy(monkeypatch, sleeps):
    monkeypatch.setattr(requests, "post", _Replies((500, b"", {}), EMBED_OK))
    embedder = HttpEmbedder("http://embed.invalid/v1")
    assert embedder("text").tolist() == [1.0, 2.0]
    assert sleeps == [0.75]

    for reply in [(404, b"", {}), (200, {"data": []}, {}), (200, b"{", {})]:
        replies = _Replies(reply, EMBED_OK)
        monkeypatch.setattr(requests, "post", replies)
        with pytest.raises(RetrievalError):
            embedder("text")
        assert replies.calls == 1


def _request(kind, variables):
    from triplehop.llm_gateway import CompletionRequest

    return CompletionRequest(kind=kind, prompt=render_prompt(kind, variables), variables=variables)


# ---------------------------------------------------------------------------
# Architecture: the gateway is the only chat-request constructor
# ---------------------------------------------------------------------------

def test_gateway_exclusivity_no_other_module_builds_chat_requests():
    offenders = []
    for path in SRC_DIR.glob("*.py"):
        if path.name in ("llm_gateway.py", "base_retrieval.py"):
            # base_retrieval holds the embedding-service client, not a chat client
            continue
        text = path.read_text()
        if "requests." in text or "import requests" in text:
            offenders.append(path.name)
        if '"messages"' in text:
            offenders.append(path.name)
    assert offenders == []
