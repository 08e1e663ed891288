"""Shared fixtures: small hand-enumerable corpora, the multi-hop fixture
corpus, and a recording backend for scripting agent runs offline.
"""

from __future__ import annotations

import os

# numpy's BLAS must see these before it loads: one thread, as in
# bench/run.py, so the microbenchmarks time the code, not threads contending
# for the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from triplehop import (  # noqa: E402
    EvalQuestion,
    HashEmbedder,
    Passage,
    ScriptedBackend,
    Triple,
    build_index,
    get_neighbours,
    triple_to_passage,
)
from triplehop.llm_gateway import CompletionResult, canonical_key, whitespace_tokens  # noqa: E402


class RecordingBackend:
    """Backend driven by a (kind, variables) -> response function.

    Records every served fixture so a real ScriptedBackend can replay the
    exact run afterwards.
    """

    def __init__(self, script):
        self.script = script
        self.fixtures: dict[tuple[str, str], str] = {}
        self.requests: list = []

    def complete(self, request):
        self.requests.append(request)
        response = self.script(request.kind, request.variables)
        self.fixtures[(request.kind, canonical_key(request.variables))] = response
        return CompletionResult(
            response,
            whitespace_tokens(request.prompt),
            whitespace_tokens(response),
        )

    def to_scripted(self) -> ScriptedBackend:
        return ScriptedBackend(self.fixtures)


def graph_of(index) -> tuple[dict, dict, dict]:
    """The entity graph as the public lookups give it: each triple's
    neighbours and passage, and each passage's triples."""
    return (
        {tid: get_neighbours(index, tid) for tid in index.triples},
        {tid: triple_to_passage(index, tid) for tid in index.triples},
        {pid: index.passage_triples(pid) for pid in index.passages},
    )


@pytest.fixture(scope="session")
def embedder():
    return HashEmbedder(128)


@pytest.fixture()
def chain_index(embedder):
    """Three-passage chain A->B->C->D plus one isolated triple."""
    passages = [
        Passage("p1", "first", "enta linksto entb according to ledger one."),
        Passage("p2", "second", "entb linksto entc according to ledger two."),
        Passage("p3", "third", "entc linksto entd according to ledger three."),
        Passage("p4", "other", "island fact lives here."),
    ]
    triples = [
        Triple("t1", "enta", "linksto", "entb", "p1"),
        Triple("t2", "entb", "linksto", "entc", "p2"),
        Triple("t3", "entc", "linksto", "entd", "p3"),
        Triple("t4", "island", "kind", "isolated", "p4"),
    ]
    return build_index(passages, triples, embedder)


@pytest.fixture()
def cathedral_index(embedder):
    """Compact corpus mirroring the dedication/location walk-through shape."""
    passages = [
        Passage("c1", "Bremen Cathedral",
                "Bremen Cathedral is a church dedicated to St. Peter."),
        Passage("c2", "Munster Cathedral",
                "Munster Cathedral is a cathedral church in Germany."),
        Passage("c3", "Basilica of the Sacred Heart",
                "The Basilica of the Sacred Heart is a basilica."),
        Passage("c4", "Alatri Cathedral",
                "Alatri Cathedral is dedicated to Saint Paul."),
        Passage("c5", "Bremen",
                "Bremen is a city and part of Germany. Germany became a "
                "country in 1929 for the purposes of this fixture."),
        Passage("c6", "Lund Cathedral",
                "Lund Cathedral is dedicated to Saint Lawrence."),
    ]
    triples = [
        Triple("k1", "Bremen Cathedral", "dedicated to", "St. Peter", "c1"),
        Triple("k2", "Alatri Cathedral", "dedicated to", "Saint Paul", "c4"),
        Triple("k3", "Bremen", "part of", "Germany", "c5"),
        Triple("k4", "Lund Cathedral", "dedicated to", "Saint Lawrence", "c6"),
        Triple("k5", "Munster Cathedral", "type", "cathedral church", "c2"),
    ]
    return build_index(passages, triples, embedder)


def build_hop_corpus(n_chains: int = 6, n_distractors: int = 12):
    """Chain-shaped multi-hop corpus: per question a 3-passage entity chain.

    Question text shares vocabulary only with the first-hop passage, so a
    lexical base retriever cannot reach the later hops on its own.
    """
    passages: list[Passage] = []
    triples: list[Triple] = []
    questions: list[EvalQuestion] = []
    for i in range(1, n_chains + 1):
        a, b, c, d = (f"ent{i}{ch}" for ch in "abcd")
        passages += [
            Passage(f"q{i}p1", f"ledger {i} opening",
                    f"{a} linksto {b} according to ledger one."),
            Passage(f"q{i}p2", f"ledger {i} middle",
                    f"{b} linksto {c} according to ledger two."),
            Passage(f"q{i}p3", f"ledger {i} closing",
                    f"{c} linksto {d} according to ledger three."),
        ]
        triples += [
            Triple(f"q{i}t1", a, "linksto", b, f"q{i}p1"),
            Triple(f"q{i}t2", b, "linksto", c, f"q{i}p2"),
            Triple(f"q{i}t3", c, "linksto", d, f"q{i}p3"),
        ]
        questions.append(
            EvalQuestion(
                id=f"q{i}",
                question=f"where does the trail from {a} finish",
                gold_passage_ids=frozenset({f"q{i}p1", f"q{i}p2", f"q{i}p3"}),
                gold_answers=(d,),
            )
        )
    for j in range(1, n_distractors + 1):
        n_triples = 4 if j <= 6 else 3
        body_bits = []
        for t in range(n_triples):
            head, tail = f"dz{j}x{t}", f"dz{j}x{t + 1}"
            triples.append(
                Triple(f"d{j}t{t}", head, "touches", tail, f"d{j}p")
            )
            body_bits.append(f"{head} touches {tail}.")
        passages.append(
            Passage(f"d{j}p", f"noise {j}", " ".join(body_bits))
        )
    return passages, triples, questions


@pytest.fixture(scope="session")
def hop_corpus():
    return build_hop_corpus()


@pytest.fixture(scope="session")
def hop_index(hop_corpus, embedder):
    passages, triples, _ = hop_corpus
    return build_index(passages, triples, embedder)


def hop_reader_script(kind, variables):
    """Scripted reader for the hop corpus: emit the first-hop fact of the
    chain named in the query; other call kinds answer generically."""
    import re

    if kind in ("reader", "reader_with_memory"):
        match = re.search(r"ent(\d+)a", variables["query"])
        if not match:
            return "No relevant facts."
        i = match.group(1)
        return f'Facts: ("ent{i}a", "linksto", "ent{i}b")'
    if kind == "reasoner":
        return "Answerable: No\nWhy: the endpoint is not yet known."
    if kind == "rewriter":
        return "Next Question: where does the next link go?"
    raise AssertionError(f"unexpected call kind: {kind}")
