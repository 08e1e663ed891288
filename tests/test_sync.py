from __future__ import annotations


from triplehop import (
    HashEmbedder,
    LLMGateway,
    Passage,
    ProximalTriple,
    RetrievalConfig,
    ScriptedBackend,
    Triple,
    build_index,
    format_docs,
    locate_initial_nodes,
    read_proximal,
    triple_link,
)
from triplehop.base_retrieval import base_retrieve
from triplehop.corpus_index import PASSAGES, TRIPLES, serialize_triple
from triplehop.sync import reader_variables

from .conftest import RecordingBackend

BM25 = RetrievalConfig(k=5, retriever="bm25")
HYBRID = RetrievalConfig(k=5, retriever="hybrid")


def test_format_docs_rank_order_and_cap(chain_index):
    docs = format_docs(chain_index, ["p2", "p1"], cap=None)
    assert docs.startswith("second\nentb linksto entc")
    assert "first\nenta linksto entb" in docs
    assert docs.index("second") < docs.index("first")
    capped = format_docs(chain_index, ["p2", "p1"], cap=1)
    assert "first" not in capped


def test_read_proximal_fixture_passthrough(chain_index):
    backend = ScriptedBackend()
    base = base_retrieve(chain_index, "enta", PASSAGES, BM25).ids
    template, variables = reader_variables(chain_index, base, "enta", cap=10)
    assert template == "reader"
    backend.register(
        template, variables, 'Facts: ("enta", "linksto", "entb"), ("x", "y", "z")'
    )
    gateway = LLMGateway(backend)
    facts = read_proximal(chain_index, base, "enta", gateway, cap=10)
    assert facts == [
        ProximalTriple("enta", "linksto", "entb"),
        ProximalTriple("x", "y", "z"),
    ]


def test_read_proximal_prose_yields_empty(chain_index):
    backend = ScriptedBackend()
    base = base_retrieve(chain_index, "enta", PASSAGES, BM25).ids
    template, variables = reader_variables(chain_index, base, "enta", cap=10)
    backend.register(template, variables, "I found nothing of note in these texts.")
    gateway = LLMGateway(backend)
    assert read_proximal(chain_index, base, "enta", gateway, cap=10) == []


def test_read_proximal_with_memory_uses_memory_template(chain_index):
    memory = (ProximalTriple("enta", "linksto", "entb"),)
    backend = ScriptedBackend()
    base = base_retrieve(chain_index, "enta", PASSAGES, BM25).ids
    template, variables = reader_variables(
        chain_index, base, "enta", memory=memory, cap=10
    )
    assert template == "reader_with_memory"
    assert variables["triples"] == '("enta", "linksto", "entb")'
    backend.register(template, variables, 'Facts: ("entb", "linksto", "entc")')
    gateway = LLMGateway(backend)
    facts = read_proximal(chain_index, base, "enta", gateway, memory=memory, cap=10)
    assert facts == [ProximalTriple("entb", "linksto", "entc")]


def test_read_walkthrough_style_dedication_fixture(cathedral_index):
    # reading the dedication passages surfaces the church/saint fact
    backend = ScriptedBackend()
    query = (
        "When did the location of the basilica which is named for the same "
        "saint that the Bremen Cathedral is named for become a country?"
    )
    base = base_retrieve(cathedral_index, query, PASSAGES, HYBRID).ids
    template, variables = reader_variables(cathedral_index, base, query, cap=10)
    backend.register(
        template,
        variables,
        'Facts: ("Bremen Cathedral", "dedicated to", "St. Peter"), '
        '("Alatri Cathedral", "dedicated to", "Saint Paul"), '
        '("Bremen", "is located in", "Germany")',
    )
    gateway = LLMGateway(backend)
    facts = read_proximal(cathedral_index, base, query, gateway, cap=10)
    assert ProximalTriple("Bremen Cathedral", "dedicated to", "St. Peter") in facts


def test_triple_link_exact_match_wins(chain_index):
    proximal = ProximalTriple("entb", "linksto", "entc")
    for retriever in ("bm25", "dense", "hybrid"):
        config = RetrievalConfig(k=5, retriever=retriever)
        assert triple_link(chain_index, [proximal], config) == ["t2"]


def test_triple_link_fuses_lists_of_real_depth():
    # BM25 finds only t2 (on "zebrafish"), while the hashed trigrams rank t1
    # first. Fused at depth 1, the two tops tie at 1/61 and the smaller id,
    # t1, wins; fused at depth k, t2 scores 1/61 + 1/62 against t1's 1/61.
    passages = [Passage("p1", "", "first"), Passage("p2", "", "second")]
    triples = [
        Triple("t1", "zebrafishes", "swimmings", "happilyish", "p1"),
        Triple("t2", "zebrafish", "is", "a vertebrate model", "p2"),
    ]
    index = build_index(passages, triples, HashEmbedder(256))
    proximal = ProximalTriple("zebrafish", "swimming", "happily")
    query = serialize_triple(proximal)
    assert base_retrieve(index, query, TRIPLES, RetrievalConfig(retriever="bm25")).ids == ["t2"]
    assert base_retrieve(index, query, TRIPLES, RetrievalConfig(retriever="dense")).ids[0] == "t1"
    assert triple_link(index, [proximal], RetrievalConfig()) == ["t2"]


def test_triple_link_empty_triple_index(embedder):
    index = build_index([Passage("p", "", "text")], [], embedder)
    assert triple_link(index, [ProximalTriple("a", "b", "c")], BM25) == [None]


def test_triple_link_walkthrough_grounding(cathedral_index):
    # the location fact links to the indexed "part of" triple, not to the
    # dedication triples that share the city name
    proximal = ProximalTriple("Bremen", "is located in", "Germany")
    assert triple_link(cathedral_index, [proximal], HYBRID) == ["k3"]


def test_locate_initial_nodes_dedupes(chain_index):
    proximals = [
        ProximalTriple("enta", "linksto", "entb"),
        ProximalTriple("enta", "linksto", "entb"),
    ]
    assert locate_initial_nodes(chain_index, proximals, BM25) == ["t1"]


def test_locate_initial_nodes_all_links_fail(embedder):
    index = build_index([Passage("p", "", "text")], [], embedder)
    proximals = [ProximalTriple("a", "b", "c")]
    assert locate_initial_nodes(index, proximals, BM25) == []


def test_locate_initial_nodes_order_follows_proximals():
    # five-triple fixture: three proximals, each textually closest to a
    # distinct indexed triple; output order must follow proximal order
    passages = [Passage(f"p{i}", "", f"passage {i}") for i in range(1, 6)]
    triples = [
        Triple("ta", "apple", "grows on", "tree", "p1"),
        Triple("tb", "boat", "floats on", "water", "p2"),
        Triple("tc", "cloud", "drifts over", "hill", "p3"),
        Triple("td", "dog", "sleeps in", "kennel", "p4"),
        Triple("te", "eagle", "nests on", "cliff", "p5"),
    ]
    index = build_index(passages, triples, HashEmbedder(128))
    proximals = [
        ProximalTriple("eagle", "nests on", "cliff"),
        ProximalTriple("apple", "grows on", "tree"),
        ProximalTriple("cloud", "drifts over", "hill"),
    ]
    located = locate_initial_nodes(index, proximals, HYBRID)
    assert located == ["te", "ta", "tc"]
    assert len(located) <= len(proximals)


def test_sync_is_pure_under_scripted_backend(chain_index):
    script = lambda kind, variables: 'Facts: ("enta", "linksto", "entb")'
    recorder = RecordingBackend(script)
    gateway = LLMGateway(recorder)
    base = base_retrieve(chain_index, "enta", PASSAGES, BM25).ids
    first = read_proximal(chain_index, base, "enta", gateway, cap=10)
    scripted = LLMGateway(recorder.to_scripted())
    second = read_proximal(chain_index, base, "enta", scripted, cap=10)
    third = read_proximal(chain_index, base, "enta", scripted, cap=10)
    assert first == second == third
