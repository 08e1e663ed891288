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
from triplehop.corpus_index import Records, _graph, _plain, _text_column, normalize_entity

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
# NFC form ("Café" composed and decomposed). The first group's first two and
# "Bo" and "Quill" are plain (see ``_plain``), so triples of them alone are
# keyed without ``normalize_entity``.
SPELLINGS = (
    ("Ada Vell", "ada vell", " ADA  Vell ", "ada\x1cvell"),
    ("Caf\u00e9", "Cafe\u0301", "CAF\u00c9"),
    ("Bo", "bo\t"),
    ("Quill",),
)
PLAIN_SPELLINGS = ("Ada Vell", "ada vell", "Bo", "Quill")


@st.composite
def corpora(draw, plain: bool):
    pids = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    everything = [spelling for group in SPELLINGS for spelling in group]
    entity = st.sampled_from(PLAIN_SPELLINGS if plain else everything)
    facts = draw(st.lists(st.tuples(entity, entity, st.sampled_from(pids)), max_size=12))
    # ids in another order than the facts, and "t10" sorting before "t2"
    order = draw(st.permutations(range(len(facts))))
    triples = [Triple(f"t{n}", s, "rel", o, pid) for n, (s, o, pid) in zip(order, facts)]
    # subject and object normalise alike, and a passage without triples
    same = ("Ada Vell", "ada vell") if plain else ("Caf\u00e9", "Cafe\u0301")
    triples.append(Triple("self", *same[:1], "is", *same[1:], pids[0]))
    passages = [Passage(pid, "", f"body {pid}") for pid in [*pids, "p0-empty"]]
    return passages, triples


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "general"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_graph_matches_the_oracle_built_and_loaded(plain, data):
    passages, triples = data.draw(corpora(plain))
    oracle = brute_force_adjacency({t.id: t for t in triples})
    ascending = {tid: tuple(sorted(linked)) for tid, linked in oracle.items()}
    # each triple's (subject, object) codes number normalize_entity's keys
    # in order of first appearance, every subject's and then every object's
    ordered = sorted(triples, key=lambda t: t.id)
    keys = [normalize_entity(t.subject) for t in ordered] + [normalize_entity(t.object) for t in ordered]
    codes = dict(zip(dict.fromkeys(keys), range(len(keys))))
    expected = [[codes[s], codes[o]] for s, o in zip(keys, keys[len(ordered):])]
    built = build_index(passages, triples, HashEmbedder(16))
    with tempfile.TemporaryDirectory() as tmp:
        save_index(built, Path(tmp) / "idx")
        loaded = load_index(Path(tmp) / "idx")
    for index in (built, loaded):
        assert [_plain(*index.triples.columns[key]) for key in ("subject", "object")] == [plain] * 2
        assert index.entity_codes.tolist() == expected
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


# Every ASCII character ``str.isspace`` accepts (``string.whitespace`` lacks
# 28-31): the whitespace ``normalize_entity`` splits on, which a plain column
# holds only as single spaces.
ASCII_SPACES = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
# Fragments of field values: cased ASCII, doubled spaces, and non-ASCII text
# that NFC, lowering or splitting changes (decomposed "é", a final capital
# sigma, a no-break and an ideographic space).
FRAGMENTS = ("ada", "Vell", "BO", "q7", " ", "  ", "")
NON_ASCII = ("Caf\u00e9", "Cafe\u0301", "\u039f\u0394\u039f\u03a3", "\xa0", "\u3000")


def test_ascii_spaces_are_every_ascii_character_isspace_accepts():
    assert ASCII_SPACES == "".join(c for c in map(chr, range(128)) if c.isspace())


@pytest.mark.parametrize("space", ASCII_SPACES, ids=[f"{ord(c):#04x}" for c in ASCII_SPACES])
def test_a_column_is_plain_only_with_single_spaces_inside_its_values(space):
    for value in (f"Ab{space}Cd", f"Ab{space * 2}Cd", f"{space}Ab", f"Ab{space}"):
        assert _plain(*_text_column(["Ada Vell", value, ""])) is (value == "Ab Cd")


def graph_of_fields(subjects, predicates, objects) -> tuple:
    """``_graph`` of one passage's triples with these fields, ids ascending
    in the fields' order."""
    fields = zip(subjects, predicates, objects)
    triples = [Triple(f"t{i:03d}", *values, "p") for i, values in enumerate(fields)]
    passages = Records.of("passage", [Passage("p", "", "")])
    return _graph(passages, Records.of("triple", triples), IndexBuildError)


@pytest.mark.parametrize("space", ASCII_SPACES, ids=[f"{ord(c):#04x}" for c in ASCII_SPACES])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_column_is_keyed_by_normalize_entity_and_blank_where_strip_empties(space, data):
    """On both paths: in each field, the first value ``str.strip`` empties is
    the blank one named, and entity codes number ``normalize_entity``'s keys.
    Each column holds ``space`` once inside, twice inside, first or last in
    a value that is otherwise plain, so a plain check that misses it keys
    or checks that value wrongly."""
    fragments = FRAGMENTS + (space,) + (() if data.draw(st.booleans(), "ascii") else NON_ASCII)
    value = st.lists(st.sampled_from(fragments), max_size=4).map("".join)
    spaced = st.sampled_from([f"Ab{space}Cd", f"Ab{space * 2}Cd", f"{space}Ab", f"Ab{space}"])
    values = [*data.draw(st.lists(value, max_size=6), "values"), data.draw(spaced, "spaced")]
    column = _text_column(values)
    text = column[0]
    plain = text.isascii() and min(text) >= " " and all(" ".join(v.split()) == v for v in values)
    assert _plain(*column) == plain

    blank = [not v.strip() for v in values]
    other = ["x"] * len(values)
    for fields in ((values, other, other), (other, values, other), (other, other, values)):
        if any(blank):
            with pytest.raises(IndexBuildError, match=f"triple 't{blank.index(True):03d}' has"):
                graph_of_fields(*fields)
        else:
            graph_of_fields(*fields)
    keyed = [v for v in values if v.strip()]
    keys = list(map(normalize_entity, keyed + keyed[::-1]))
    codes = dict(zip(dict.fromkeys(keys), range(len(keys))))
    ends = graph_of_fields(keyed, keyed, keyed[::-1])[1]
    assert ends.tolist() == [[codes[s], codes[o]] for s, o in zip(keys, keys[len(keyed):])]
