"""Graph-enhanced multi-hop passage retrieval.

A corpus is indexed twice: as passages and as the (subject, predicate, object)
triples extracted from them, with each triple aligned to its source passage.
Retrieval can then walk the triple graph: a base retriever finds entry-point
passages, an LLM read locates starting triples, diverse beam search expands
them along shared entities, and reciprocal rank fusion merges everything back
into a single passage ranking. A multi-step agent wraps this retriever with a
gist memory, termination reasoning, and query rewriting.
"""

from .agent import (
    AgentConfig,
    AgentRunError,
    AgentTrace,
    IterationRecord,
    passage_link,
    reason_step,
    rewrite_step,
    run_agent,
)
from .base_retrieval import (
    HashEmbedder,
    HttpEmbedder,
    RankedList,
    RetrievalConfig,
    RetrievalError,
    base_retrieve,
    bm25_search,
    dense_search,
    hash_embed,
    hybrid_search,
    resolve_embedder,
    rrf_fuse,
)
from .config import (
    EngineConfig,
    EvalSettings,
    LLMConfig,
    load_engine_config,
    make_backend,
)
from .corpus_index import (
    PASSAGES,
    TRIPLES,
    CorpusIndex,
    IndexBuildError,
    Passage,
    Triple,
    build_index,
    get_neighbours,
    load_index,
    load_passages_jsonl,
    load_triples_jsonl,
    normalize_entity,
    save_index,
    serialize_sequence,
    serialize_triple,
    tokenize,
    triple_to_passage,
    triples_to_passages,
)
from .eval_harness import (
    AgentSystem,
    EvalQuestion,
    EvalReport,
    RetrieverSystem,
    exact_match,
    f1_answer,
    load_questions_jsonl,
    normalize_answer,
    recall_at_k,
    run_eval,
)
from .graph_expansion import (
    Beam,
    ExpansionConfig,
    diverse_beam_search,
    diversity_weight,
    flatten_beams,
    naive_ge_retrieve,
    sync_ge_detail,
)
from .llm_gateway import (
    CompletionError,
    FixtureMissError,
    HttpChatBackend,
    LLMGateway,
    PromptError,
    ProximalTriple,
    ReasonOutcome,
    ScriptedBackend,
    TokenLedger,
    parse_facts,
    parse_reason,
    render_prompt,
    serialize_facts,
)
from .sync import format_docs, locate_initial_nodes, read_proximal, triple_link

__version__ = "0.1.0"
