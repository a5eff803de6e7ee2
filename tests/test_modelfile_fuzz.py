"""Seeded fuzzing: any single mutation of a fixture document, or of the
HCF of one, parses or raises ParseError; whatever parses validates
without raising.  An edit of an HCF document's mechanisms section is
refused, or leaves a valid HCF that round-trips."""

import copy
import json
import pathlib
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from decid import (HcfDiagram, ParseError, parse_document, parse_model,
                   serialize_model, to_hcf, validate_diagram, validate_hcf)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
_HCF_DOCS = [json.loads(serialize_model(to_hcf(parse_model(
    (FIXTURES / f"{name}.json").read_text()))))
    for name in ("m1", "fig1", "fig6a", "fig2a")]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


def _locations(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


def _parent(doc, path):
    """The object or list that holds the entry at ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _parse_and_check(text):
    """Parse ``text`` and validate what it gives as what it is; only
    the parse may raise, and only ParseError."""
    parsed = parse_document(text)
    check = validate_hcf if isinstance(parsed, HcfDiagram) else validate_diagram
    assert isinstance(check(parsed), list)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_fixtures_raise_only_parse_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_DOCS + _HCF_DOCS)))
    path = data.draw(st.sampled_from(list(_locations(doc))))
    parent = _parent(doc, path)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON)
    try:
        _parse_and_check(json.dumps(doc))
    except ParseError:
        pass


_VALUES = [None, True, 0, 1, -1, 1.5, float("nan"), "", "no", "nosuch", [],
           ["no"], [0.5, 0.5], {}, {"": [1.0]}]


def test_mutated_hcf_documents_raise_only_parse_error():
    """Two thousand seeded mutations of HCF documents, any location
    deleted or replaced by a value of ``_VALUES``: each is refused with
    ParseError or validates without raising.  At least ten leave a
    mechanism node without a table, which the parser refuses."""
    rng = random.Random(18)
    pool = [(json.dumps(doc), list(_locations(doc))) for doc in _HCF_DOCS]
    tableless = 0
    for _ in range(2000):
        text, locations = rng.choice(pool)
        doc, path = json.loads(text), rng.choice(locations)
        parent = _parent(doc, path)
        if isinstance(parent, dict) and rng.random() < 0.5:
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(_VALUES)
        try:
            _parse_and_check(json.dumps(doc))
        except ParseError as e:
            tableless += "which has no table" in str(e)
    assert tableless >= 10, tableless


def _edit_mechanism(rng, doc) -> str:
    """One edit of one mechanism entry, in place; returns its kind."""
    entries = doc["mechanisms"]
    entry = rng.choice(entries)
    names = [v["name"] for v in doc["variables"]] + ["nosuch"]
    kind = rng.choice(["extra fixed parent", "fixed_parents", "source",
                       "domain", "node", "swap mappings"])
    if kind == "extra fixed parent":
        entry["fixed_parents"] = entry["fixed_parents"] + [rng.choice(names)]
    elif kind in ("fixed_parents", "domain"):
        entry[kind] = rng.sample(names, rng.randint(0, 2))
    elif kind in ("source", "node"):
        entry[kind] = rng.choice(names)
    else:
        other = rng.choice(entries)
        entry["mappings"], other["mappings"] = (other["mappings"],
                                                entry["mappings"])
    return kind


def test_edited_mechanisms_are_refused_or_round_trip():
    rng = random.Random(14)
    outcomes = {"refused": 0, "accepted": 0}
    for _ in range(600):
        doc = copy.deepcopy(rng.choice(_HCF_DOCS))
        kind = _edit_mechanism(rng, doc)
        try:
            h = parse_document(json.dumps(doc))
        except ParseError:
            outcomes["refused"] += 1
            continue
        # The mechanism's prior is keyed by the fixed parents it had.
        assert kind != "extra fixed parent", doc["mechanisms"]
        assert validate_hcf(h) == [], doc["mechanisms"]
        text = serialize_model(h)
        again = parse_document(text)
        assert again.mechanisms == h.mechanisms
        assert serialize_model(again) == text
        outcomes["accepted"] += 1
    assert min(outcomes.values()) >= 50, outcomes
