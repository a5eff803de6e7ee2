"""Seeded fuzzing: any single mutation of a fixture document parses, or
raises ParseError; whatever parses validates without raising."""

import copy
import json
import pathlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from decid import HcfDiagram, ParseError, parse_document, validate_diagram

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]

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


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_fixtures_raise_only_parse_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_DOCS)))
    path = data.draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON)
    try:
        parsed = parse_document(json.dumps(doc))
    except ParseError:
        return
    d = parsed.diagram if isinstance(parsed, HcfDiagram) else parsed
    assert isinstance(validate_diagram(d), list)
