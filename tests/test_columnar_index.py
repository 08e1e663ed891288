"""The index in memory: records held as columns and built on access, the
entity graph as CSR arrays checked against the brute-force oracle, and the
order checks a load makes on the records in ``index.npz``."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplehop import (
    HashEmbedder,
    IndexBuildError,
    Passage,
    Triple,
    build_index,
    get_neighbours,
    load_index,
    save_index,
    triple_to_passage,
)

from .oracles import brute_force_adjacency
from .test_lexical_index import rewrite_records


def test_a_load_builds_no_record_and_an_access_builds_one(tmp_path, chain_index, monkeypatch):
    save_index(chain_index, tmp_path / "idx")
    made = []
    for cls in (Passage, Triple):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    loaded = load_index(tmp_path / "idx")
    assert made == []
    # ids, membership and the graph lookups build none either
    assert sorted(loaded.passages) == ["p1", "p2", "p3", "p4"] and "t9" not in loaded.triples
    assert get_neighbours(loaded, "t2") == ("t1", "t3")
    assert triple_to_passage(loaded, "t3") == "p3" and loaded.passage_triples("p4") == ("t4",)
    assert made == []
    passage = loaded.passages["p2"]
    assert made == ["Passage"]
    triple = loaded.triples["t3"]
    assert made == ["Passage", "Triple"]
    assert (passage.title, passage.body) == ("second", "entb linksto entc according to ledger two.")
    assert (triple.subject, triple.object, triple.passage_id) == ("entc", "entd", "p3")


@pytest.mark.parametrize(
    "key, known",
    [("p2", True), ("p4", True), ("p0", False), ("p22", False), ("", False),
     (2, False), (None, False), (b"p2", False), (("p2",), False), (["p2"], False)],
    ids=["known", "last", "before-all", "between", "empty", "int", "none", "bytes", "tuple",
         "unhashable"],
)
def test_membership_bisects_the_ids_and_builds_no_record(chain_index, monkeypatch, key, known):
    def built(*args):
        raise AssertionError("a membership test built a record")

    monkeypatch.setattr(chain_index.passages, "make", built)
    assert (key in chain_index.passages) is known


@pytest.mark.parametrize("n", [129, 32_769], ids=["uint8", "uint16"])
def test_the_top_entity_code_of_a_narrow_dtype_finds_its_group(tmp_path, n):
    # 2n - 2 distinct entities fill the dtype's codes, and "hub", the last
    # new entity, takes the top one, whose group ends at indptr[code + 1]:
    # code + 1 in the dtype itself would wrap to 0.
    triples = [Triple(f"t{i:05d}", f"s{i if i < n - 1 else 0}", "r",
                      f"o{i}" if i < n - 2 else "hub", "p1") for i in range(n)]
    built = build_index([Passage("p1", "", "body")], triples, HashEmbedder(8))
    save_index(built, tmp_path)
    for index in (built, load_index(tmp_path)):
        assert index.entity_codes.max() == np.iinfo(index.entity_codes.dtype).max
        assert get_neighbours(index, triples[-2].id) == (triples[-1].id,)
        assert get_neighbours(index, triples[-1].id) == (triples[0].id, triples[-2].id)


# Spellings that normalize_entity makes one key: by case, by spaces, and by
# NFC form ("Café" composed and decomposed).
SPELLINGS = (
    ("Ada Vell", "ada vell", " ADA  Vell "),
    ("Caf\u00e9", "Cafe\u0301", "CAF\u00c9"),
    ("Bo", "bo\t"),
    ("Quill",),
)


@st.composite
def corpora(draw):
    pids = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    entity = st.sampled_from([spelling for group in SPELLINGS for spelling in group])
    facts = draw(st.lists(st.tuples(entity, entity, st.sampled_from(pids)), max_size=12))
    # ids in another order than the facts, and "t10" sorting before "t2"
    order = draw(st.permutations(range(len(facts))))
    triples = [Triple(f"t{n}", s, "rel", o, pid) for n, (s, o, pid) in zip(order, facts)]
    # subject and object normalise alike, and a passage without triples
    triples.append(Triple("self", "Caf\u00e9", "is", "Cafe\u0301", pids[0]))
    passages = [Passage(pid, "", f"body {pid}") for pid in [*pids, "p0-empty"]]
    return passages, triples


@settings(max_examples=40, deadline=None)
@given(corpora())
def test_graph_matches_the_oracle_built_and_loaded(corpus):
    passages, triples = corpus
    oracle = brute_force_adjacency({t.id: t for t in triples})
    ascending = {tid: tuple(sorted(linked)) for tid, linked in oracle.items()}
    built = build_index(passages, triples, HashEmbedder(16))
    with tempfile.TemporaryDirectory() as tmp:
        save_index(built, Path(tmp) / "idx")
        loaded = load_index(Path(tmp) / "idx")
    for index in (built, loaded):
        # the first lookup fills the neighbour memo, the second reads it
        assert {tid: get_neighbours(index, tid) for tid in oracle} == ascending
        assert {tid: get_neighbours(index, tid) for tid in oracle} == ascending
        assert index.neighbour_ids == ascending
        assert {tid: triple_to_passage(index, tid) for tid in oracle} == {
            t.id: t.passage_id for t in triples
        }
        assert {p.id: index.passage_triples(p.id) for p in passages} == {
            p.id: tuple(sorted(t.id for t in triples if t.passage_id == p.id)) for p in passages
        }


@pytest.mark.parametrize("kind, prefix", [("passage", "p"), ("triple", "t")])
def test_load_rejects_records_out_of_order_or_repeated(tmp_path, chain_index, kind, prefix):
    # A build sorts its records, and a save stores them in ascending id order,
    # so a load takes them as stored and checks the order.
    save_index(chain_index, tmp_path)
    rewrite_records(tmp_path, kind, lambda rows: rows[::-1])
    with pytest.raises(IndexBuildError, match=rf"index\.npz: {kind} ids are not ascending"):
        load_index(tmp_path)
    save_index(chain_index, tmp_path)
    rewrite_records(tmp_path, kind, lambda rows: [rows[0], {**rows[1], "id": rows[0]["id"]}, *rows[2:]])
    with pytest.raises(IndexBuildError, match=rf"index\.npz: duplicate {kind} id: '{prefix}1'"):
        load_index(tmp_path)
