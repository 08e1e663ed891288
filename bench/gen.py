"""Seeded input generator for the benchmark workloads.

Every input the benchmark feeds the program comes from here: passages, the
triples aligned to them, and questions with their planted gold passages and
answers. The same workload and seed always give the same inputs. Nothing in
this module imports triplehop, so the checks in ``checks.py`` can use the
generator's own records as ground truth.

Entity names are pseudo-words built from syllables, so a name shares no
token with the question templates or the relation phrases. Every passage is
written as plain sentences "<subject> <relation phrase> <object>." followed
by a filler sentence; the rule-based reader in ``backend.py`` reads facts
back out of that text.

Run as a script to write one workload's inputs as JSON Lines::

    python3 bench/gen.py --workload hub-expand --seed 3 --out /tmp/hub3
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# (question noun, phrase written in passages, phrase the reader rewords it to).
# No passage phrase shares a token with the question template "What is the
# <noun> of ... <entity>?", so lexical retrieval matches questions on entity
# names alone and no passage matches every question.
RELATIONS = (
    ("birthplace", "was born in", "is a native of"),
    ("employer", "works for", "is employed by"),
    ("location", "located in", "lies in"),
    ("founder", "was founded by", "got founded by"),
    ("spouse", "married to", "has the spouse"),
    ("director", "directed by", "has the director"),
    ("owner", "owned by", "belongs to"),
    ("capital", "has capital", "has as its capital"),
)
# Hub triples use a relation, and registry passages a vocabulary, that share
# no token with any question, so lexical retrieval never reaches a hub by
# accident: only the planted hub questions expand through one.
HUB_PHRASE = "sits within region"

_SYLLABLES = [c + v for c in "bdfgklmnprstv" for v in "aeiou"]
_HUB_SYLLABLES = ["zh" + v for v in "aeiou"] + ["x" + v for v in "aeiou"]


@dataclass(frozen=True)
class Settings:
    """Make-up of one workload's inputs."""

    passages: int  # background passages, each about one entity of the pool
    triples_per_passage: int
    hubs: int  # hub entities, each the object of ``hub_degree`` triples
    hub_degree: int
    questions: int  # one planted chain per question
    chain_hops: tuple[int, ...]  # hops of question i: chain_hops[i % len]
    hub_every: int  # every n-th question's first hop also touches a hub (0: none)
    popular: int  # background objects favour this many popular entities
    mentions: int  # extra background passages naming each chain entity
    name_length: int  # words per entity name
    name_words: int  # entity names draw their words from a pool this large (0: fresh words)


WORKLOADS = {
    "base-large": Settings(
        passages=10_000, triples_per_passage=2, hubs=0, hub_degree=0, questions=80,
        chain_hops=(1,), hub_every=0, popular=0, mentions=1, name_length=2, name_words=0,
    ),
    "hub-expand": Settings(
        passages=3_000, triples_per_passage=2, hubs=3, hub_degree=1_000, questions=96,
        chain_hops=(2,), hub_every=6, popular=20, mentions=0, name_length=3, name_words=1500,
    ),
    "agent-chains": Settings(
        passages=600, triples_per_passage=2, hubs=0, hub_degree=0, questions=120,
        chain_hops=(3, 4), hub_every=0, popular=10, mentions=2, name_length=2, name_words=120,
    ),
}


@dataclass(frozen=True)
class Fact:
    id: str
    passage_id: str
    subject: str
    predicate: str
    object: str


@dataclass(frozen=True)
class Question:
    id: str
    question: str
    gold_passage_ids: tuple[str, ...]
    answer: str


@dataclass(frozen=True)
class Inputs:
    settings: Settings
    passages: list[dict]  # {"id", "title", "text"}, as the JSONL loaders read
    facts: list[Fact]
    questions: list[Question]


def question_text(relations, start: str) -> str:
    """"What is the <last> of the ... of the <first> of <start>?"."""
    chain = " of the ".join(reversed(relations))
    return f"What is the {chain} of {start}?"


def fact_question(start: str, phrase: str) -> str:
    """A one-hop question worded like its passage: "<start> <phrase> what?"."""
    return f"{start} {phrase} what?"


class _Names:
    """Unique names of ``length`` pseudo-words drawn from a syllable set."""

    def __init__(self, rng: random.Random, syllables, taken: set[str], length: int, pool: int = 0):
        self.rng = rng
        self.length = length
        self.syllables = syllables
        self.taken = taken
        self.pool = [self.word() for _ in range(pool)]

    def word(self) -> str:
        return "".join(self.rng.choice(self.syllables) for _ in range(self.rng.choice((2, 3))))

    def new(self) -> str:
        pick = (lambda: self.rng.choice(self.pool)) if self.pool else self.word
        while True:
            name = " ".join(pick().capitalize() for _ in range(self.length))
            if name not in self.taken:
                self.taken.add(name)
                return name


def generate(workload: str, seed: int) -> Inputs:
    settings = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    taken: set[str] = set()
    names = _Names(rng, _SYLLABLES, taken, settings.name_length, settings.name_words)
    hub_names = _Names(rng, _HUB_SYLLABLES, taken, 2)
    # fresh words for chains through a hub, so that no other question's
    # partial name match pulls a hub triple into its beams
    fresh_names = _Names(rng, _SYLLABLES, taken, settings.name_length)
    filler = [names.word() for _ in range(400)]
    hub_filler = [hub_names.word() for _ in range(50)]

    passages: list[dict] = []
    facts: list[Fact] = []

    def add_passage(title: str, triples, words) -> str:
        pid = f"p{len(passages):06d}"
        sentences = []
        for n, (subject, phrase, obj) in enumerate(triples):
            facts.append(Fact(f"{pid}t{n}", pid, subject, phrase, obj))
            sentences.append(f"{subject} {phrase} {obj}.")
        tail = " ".join(rng.choice(words) for _ in range(rng.randint(4, 8)))
        sentences.append(tail.capitalize() + ".")
        passages.append({"id": pid, "title": title, "text": " ".join(sentences)})
        return pid

    pool = [names.new() for _ in range(settings.passages)]
    popular = pool[: settings.popular]

    def background_object() -> str:
        if popular and rng.random() < 0.1:
            return rng.choice(popular)
        return rng.choice(pool)

    def other_phrases(excluded: str, n: int) -> list[str]:
        return rng.sample([r[1] for r in RELATIONS if r[1] != excluded], n)

    for entity in pool:
        phrases = other_phrases("", settings.triples_per_passage)
        add_passage(entity, [(entity, p, background_object()) for p in phrases], filler)

    hubs = [hub_names.new() for _ in range(settings.hubs)]
    n_hub_questions = (
        len(range(0, settings.questions, settings.hub_every)) if settings.hub_every else 0
    )
    for h, hub in enumerate(hubs):
        # the hub questions' own hub triples count towards the degree
        planted = len(range(h, n_hub_questions, len(hubs)))
        members = [hub_names.new() for _ in range(settings.hub_degree - planted)]
        for start in range(0, len(members), 4):
            group = members[start : start + 4]
            add_passage(group[0], [(m, HUB_PHRASE, hub) for m in group], hub_filler)

    questions: list[Question] = []
    hub_questions = 0
    for q in range(settings.questions):
        hops = settings.chain_hops[q % len(settings.chain_hops)]
        through_hub = bool(settings.hub_every) and q % settings.hub_every == 0
        chain = [(fresh_names if through_hub else names).new() for _ in range(hops + 1)]
        # one-hop questions cycle through the relations, so every seed asks
        # the same mix of them
        relations = [RELATIONS[q % len(RELATIONS)]] if hops == 1 else rng.sample(RELATIONS, hops)
        gold = []
        for i, (noun, phrase, _) in enumerate(relations):
            triples = [(chain[i], phrase, chain[i + 1])]
            extras = other_phrases(phrase, settings.triples_per_passage - 1)
            if i == 0 and through_hub:
                triples.append((chain[0], HUB_PHRASE, hubs[hub_questions % len(hubs)]))
                extras = extras[1:]
            triples += [(chain[i], p, background_object()) for p in extras]
            gold.append(add_passage(chain[i], triples, filler))
        hub_questions += through_hub
        for entity in chain:
            for _ in range(settings.mentions):
                subject = rng.choice(pool)
                phrase = other_phrases("", 1)[0]
                add_passage(subject, [(subject, phrase, entity)], filler)
        nouns = tuple(r[0] for r in relations)
        questions.append(
            Question(
                id=f"q{q:03d}",
                question=(
                    fact_question(chain[0], relations[0][1]) if hops == 1
                    else question_text(nouns, chain[0])
                ),
                gold_passage_ids=tuple(gold),
                answer=chain[-1],
            )
        )
    return Inputs(settings, passages, facts, questions)


def write_jsonl(inputs: Inputs, out: Path) -> None:
    """Write passages, triples and questions in the formats the CLI reads."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "passages.jsonl", "w", encoding="utf-8") as fh:
        for p in inputs.passages:
            fh.write(json.dumps(p) + "\n")
    with open(out / "triples.jsonl", "w", encoding="utf-8") as fh:
        for f in inputs.facts:
            fh.write(json.dumps(asdict(f)) + "\n")
    with open(out / "questions.jsonl", "w", encoding="utf-8") as fh:
        for q in inputs.questions:
            fh.write(json.dumps({
                "id": q.id,
                "question": q.question,
                "gold_passage_ids": list(q.gold_passage_ids),
                "answers": [q.answer],
            }) + "\n")
    with open(out / "settings.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(inputs.settings), fh, indent=2)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed)
    write_jsonl(inputs, args.out)
    print(
        f"{args.workload} seed {args.seed}: {len(inputs.passages)} passages, "
        f"{len(inputs.facts)} triples, {len(inputs.questions)} questions -> {args.out}"
    )


if __name__ == "__main__":
    main()
