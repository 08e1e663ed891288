"""Rule-based chat backend for the agent-chains workload.

It answers every prompt from the prompt variables alone, so it needs no
fixture file and a change to the prompt templates cannot turn into fixture
misses. It behaves like a careful reader:

- the reader returns only facts written in the passages it was shown, that
  concern an entity named in the question or in the memory (following chains
  among the shown facts), reworded as an LLM would: the subject lower-cased
  and the predicate paraphrased, so a fact never matches its indexed triple
  word for word and triple linking has real work to do;
- the reasoner answers from the memory alone, walking the question's
  relations from its start entity;
- the rewriter asks for the next relation of the newest entity that walk
  reached.

Token counts are whitespace counts the backend takes itself; the benchmark
compares them with the program's token ledger.
"""

from __future__ import annotations

import re

from gen import RELATIONS
from triplehop.llm_gateway import CompletionResult

_PHRASE_TO_NOUN = {p: noun for noun, *phrases in RELATIONS for p in phrases}
_REWORD = {phrase: reworded for _, phrase, reworded in RELATIONS}

_SENTENCE_RE = re.compile(
    r"^(?P<s>.+?) (?P<p>" + "|".join(re.escape(p) for p in _REWORD) + r") (?P<o>.+)$"
)
_MEMORY_RE = re.compile(r'\("([^"]*)", "([^"]*)", "([^"]*)"\)')
_QUESTION_RE = re.compile(r"^What is the (?P<chain>.+) of (?P<start>[^?]+)\?$")

MAX_FACTS = 8


def parse_question(text: str) -> tuple[str, list[str]]:
    """Start entity and relation nouns (first hop first) of a chain question."""
    match = _QUESTION_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a chain question: {text!r}")
    return match["start"], list(reversed(match["chain"].split(" of the ")))


def walk(question: str, memory: list[tuple[str, str, str]]) -> tuple[str, list[str]]:
    """Follow the question's relations through the memory.

    Returns the entity reached and the relations still to follow.
    """
    current, relations = parse_question(question)
    for hop, noun in enumerate(relations):
        for subject, predicate, obj in memory:
            if subject.lower() == current.lower() and _PHRASE_TO_NOUN.get(predicate) == noun:
                current = obj
                break
        else:
            return current, relations[hop:]
    return current, []


def read(docs: str, query: str, memory: list[tuple[str, str, str]]) -> list[tuple[str, str, str]]:
    """Facts from the shown passages about entities the question or memory names."""
    shown = []
    for block in docs.split("\n\n"):
        _, _, body = block.partition("\n")
        for sentence in body.split(". "):
            match = _SENTENCE_RE.match(sentence.rstrip("."))
            if match:
                shown.append((match["s"], match["p"], match["o"]))
    known = {s.lower() for s, _, _ in shown if s.lower() in query.lower()}
    for subject, _, obj in memory:
        known.update((subject.lower(), obj.lower()))
    chosen: list[tuple[str, str, str]] = []
    grew = True
    while grew and len(chosen) < MAX_FACTS:
        grew = False
        for fact in shown:
            if fact[0].lower() in known and fact not in chosen and len(chosen) < MAX_FACTS:
                chosen.append(fact)
                known.add(fact[2].lower())
                grew = True
    return [(s.lower(), _REWORD[p], o) for s, p, o in chosen]


class RuleBackend:
    """ChatBackend that answers reader, reasoner and rewriter prompts by rule."""

    def __init__(self):
        self.input_tokens = 0
        self.output_tokens = 0

    def _reply(self, kind: str, variables) -> str:
        memory = [m.groups() for m in _MEMORY_RE.finditer(variables.get("triples", ""))]
        if kind in ("reader", "reader_with_memory"):
            facts = read(variables["docs"], variables["query"], memory)
            if not facts:
                return "No relevant facts."
            return ", ".join(f'("{s}", "{p}", "{o}")' for s, p, o in facts)
        if kind == "reasoner":
            reached, remaining = walk(variables["query"], memory)
            if not remaining:
                return f"Answerable: Yes\nAnswer: {reached}"
            return f"Answerable: No\nWhy: the facts do not give the {remaining[0]} of {reached}."
        if kind == "rewriter":
            reached, remaining = walk(variables["query"], memory)
            if not remaining:
                return f"Next Question: {variables['query']}"
            return f"Next Question: What is the {remaining[0]} of {reached}?"
        if kind == "qa_with_passages":
            return "unknown"
        raise ValueError(f"rule backend has no rule for prompt kind {kind!r}")

    def complete(self, request) -> CompletionResult:
        text = self._reply(request.kind, request.variables)
        tokens_in, tokens_out = len(request.prompt.split()), len(text.split())
        self.input_tokens += tokens_in
        self.output_tokens += tokens_out
        return CompletionResult(text, tokens_in, tokens_out)
