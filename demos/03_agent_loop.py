"""The multi-step agent, fully offline.

A scripted backend stands in for the language model: the reader emits one
fact per iteration, the reasoner refuses to terminate until the memory holds
the whole chain, and the rewriter asks about the newest entity. The trace
shows the gist memory growing and the final fused ranking.
"""

from triplehop import (
    AgentConfig,
    ExpansionConfig,
    HashEmbedder,
    LLMGateway,
    Passage,
    RetrievalConfig,
    Triple,
    build_index,
    run_agent,
)
from triplehop.llm_gateway import CompletionResult, whitespace_tokens


def section(title):
    print(f"\n{title}\n{'-' * len(title)}")


class ScriptBackend:
    """Minimal backend driven by a (kind, variables) -> text function."""

    def __init__(self, script):
        self.script = script

    def complete(self, request):
        text = self.script(request.kind, request.variables)
        return CompletionResult(
            text, whitespace_tokens(request.prompt), whitespace_tokens(text)
        )


passages = [
    Passage("hop1", "opening", "marblehead linksto stonegate in the old ledger."),
    Passage("hop2", "middle", "stonegate linksto ironford in the old ledger."),
    Passage("hop3", "closing", "ironford linksto saltmere in the old ledger."),
]
triples = [
    Triple("h1", "marblehead", "linksto", "stonegate", "hop1"),
    Triple("h2", "stonegate", "linksto", "ironford", "hop2"),
    Triple("h3", "ironford", "linksto", "saltmere", "hop3"),
]
index = build_index(passages, triples, HashEmbedder(256))

question = "where does the trail from marblehead finish"


CHAIN = (
    ("marblehead", "stonegate"),
    ("stonegate", "ironford"),
    ("ironford", "saltmere"),
)


def script(kind, variables):
    if kind in ("reader", "reader_with_memory"):
        # emit the next chain fact reachable from the query or the memory
        known = variables.get("triples", "")
        context = variables["query"] + " " + known
        for head, tail in CHAIN:
            if head in context and tail not in known:
                return f'Facts: ("{head}", "linksto", "{tail}")'
        return "No new facts."
    if kind == "reasoner":
        if "saltmere" in variables["triples"]:
            return "Answerable: Yes\nAnswer: saltmere"
        return "Answerable: No\nWhy: the chain has not reached its endpoint."
    if kind == "rewriter":
        for entity in ("ironford", "stonegate"):
            if entity in variables["triples"]:
                return f"Next Question: where does the trail continue from {entity}?"
        return "Next Question: where does the trail continue?"
    raise AssertionError(kind)


config = AgentConfig(
    retrieval=RetrievalConfig(k=3, retriever="bm25"),
    expansion=ExpansionConfig(beam_width=4, max_length=2, gamma=8.0),
    max_iterations=4,
    passage_link_k=3,
)
gateway = LLMGateway(ScriptBackend(script))
trace = run_agent(index, question, config, gateway)

section("Iterations")
for record in trace.iterations:
    facts = ", ".join(
        f"({t.subject}, {t.predicate}, {t.object})" for t in record.gist_additions
    )
    print(f"  n={record.iteration}  query: {record.query!r}")
    print(f"      retrieved: {record.detail.fused.ids}")
    print(f"      new facts: {facts or '(none)'}")
    print(f"      answerable: {record.reason.answerable}")
    if record.rewritten_query:
        print(f"      next query: {record.rewritten_query!r}")

section("Outcome")
print(f"  termination: {trace.termination_cause}")
print(f"  answer: {trace.answer}")
print(f"  final ranking: {trace.final.ids}")

section("Token accounting")
for iteration, (tokens_in, tokens_out) in sorted(
    gateway.ledger.by_iteration().items()
):
    print(f"  iteration {iteration}: input={tokens_in}  output={tokens_out}")
print(f"  totals: input={gateway.ledger.total_input()} "
      f"output={gateway.ledger.total_output()}")
