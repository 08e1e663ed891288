"""An offline run loads no HTTP stack: ``requests`` (with urllib3 and ssl)
and ``email`` are imported only where an HTTP request is made or its failure
is classified, so a fresh process that imports the package, builds a hash
index and runs every retrieval mode on the scripted backend never loads
them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HTTP_STACK = ("requests", "urllib3", "email")

# Runs in a fresh interpreter. The agent's replies are recorded from a script
# once, then replayed by a ScriptedBackend, so each mode runs on it.
OFFLINE_RUN = """
import json, sys
from triplehop import (
    AgentConfig, ExpansionConfig, HashEmbedder, LLMGateway, Passage, RetrievalConfig,
    ScriptedBackend, Triple, base_retrieve, build_index, naive_ge_retrieve, run_agent,
    sync_ge_detail,
)
from triplehop.llm_gateway import CompletionResult, canonical_key, whitespace_tokens

index = build_index(
    [
        Passage("hop1", "opening", "marblehead linksto stonegate in the old ledger."),
        Passage("hop2", "middle", "stonegate linksto ironford in the old ledger."),
    ],
    [
        Triple("h1", "marblehead", "linksto", "stonegate", "hop1"),
        Triple("h2", "stonegate", "linksto", "ironford", "hop2"),
    ],
    HashEmbedder(64),
)
query = "where does the trail from stonegate lead"
retrieval, expansion = RetrievalConfig(k=2), ExpansionConfig(beam_width=2, max_length=2)
REPLIES = {
    "reader": 'Facts: ("stonegate", "linksto", "ironford")',
    "reader_with_memory": 'Facts: ("stonegate", "linksto", "ironford")',
    "reasoner": "Answerable: Yes\\nAnswer: ironford",
}


class Recording:
    def __init__(self):
        self.fixtures = {}

    def complete(self, request):
        text = REPLIES[request.kind]
        self.fixtures[(request.kind, canonical_key(request.variables))] = text
        return CompletionResult(text, whitespace_tokens(request.prompt), whitespace_tokens(text))


recording = Recording()
run_agent(index, query, AgentConfig(retrieval=retrieval, expansion=expansion), LLMGateway(recording))
scripted = ScriptedBackend(recording.fixtures)
ranked = [
    base_retrieve(index, query, "passages", retrieval),
    naive_ge_retrieve(index, query, retrieval, expansion),
    sync_ge_detail(index, query, retrieval, expansion, LLMGateway(scripted)).fused,
    run_agent(index, query, AgentConfig(retrieval=retrieval, expansion=expansion),
              LLMGateway(scripted)).final,
]
print(json.dumps({
    "ranked": [r.ids for r in ranked],
    "loaded": sorted({name.split(".")[0] for name in sys.modules} & set(sys.argv[1:])),
}))
"""


def test_an_offline_run_loads_no_http_stack(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUN, *HTTP_STACK], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    # every mode ran and ranked both passages
    assert [sorted(ids) for ids in result["ranked"]] == [["hop1", "hop2"]] * 4
    assert result["loaded"] == []
