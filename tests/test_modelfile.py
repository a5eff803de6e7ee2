import json
import pathlib

import pytest

from decid import (Diagram, HcfDiagram, chance_node, parse_document,
                   parse_model, serialize_model, set_decision_node, to_hcf,
                   validate_diagram)
from decid.errors import ParseError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))


def _doc(name="m1"):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _expect(doc, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(doc))
    assert fragment in str(err.value)


def _judged(doc, violation):
    """The document parses, and ``validate_diagram`` names its fault."""
    assert violation in validate_diagram(parse_model(json.dumps(doc)))


# ---------------------------------------------------------------------------
# Parse errors name the offending content


def test_invalid_json_reports_line():
    with pytest.raises(ParseError) as err:
        parse_document("{\n  broken\n}")
    assert err.value.line == 2


def test_non_object_document_rejected():
    with pytest.raises(ParseError):
        parse_document("[1, 2]")


def test_unknown_top_level_key():
    doc = _doc()
    doc["extras"] = {}
    _expect(doc, "extras")


def test_unknown_variable_key():
    doc = _doc()
    doc["variables"][0]["color"] = "red"
    _expect(doc, "color")


def test_unknown_kind():
    doc = _doc()
    doc["variables"][0]["kind"] = "stochastic"
    _expect(doc, "stochastic")


def test_duplicate_variable():
    doc = _doc()
    doc["variables"].append(dict(doc["variables"][0]))
    _expect(doc, "duplicate")


def test_missing_cpt_section_entry():
    doc = _doc()
    del doc["cpts"]["lung_cancer"]
    _judged(doc, "lung_cancer: missing conditional table")


def test_row_key_arity_mismatch():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"]["no|extra"] = [0.5, 0.5]
    _judged(doc, "lung_cancer: unexpected CPT row ('no', 'extra')")


def test_row_key_unknown_state():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"]["sometimes"] = [0.5, 0.5]
    _judged(doc, "lung_cancer: unexpected CPT row ('sometimes',)")


def test_probability_out_of_range():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"]["no"] = [1.5, -0.5]
    _judged(doc, "lung_cancer: row ('no',) has entries outside [0, 1]")


def test_nan_probability_is_out_of_range():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"]["no"] = [float("nan"), 0.5]
    _judged(doc, "lung_cancer: row ('no',) has entries outside [0, 1]")


def test_cpt_for_non_chance_variable():
    doc = _doc()
    doc["cpts"]["smoke"] = {"parent_order": [], "rows": {"": [0.5, 0.5]}}
    _expect(doc, "smoke")


def test_non_numeric_utility_value():
    doc = _doc("coin_utility")
    doc["utility"]["values"]["win"] = "high"
    _expect(doc, "high")


def test_utility_node_needs_a_utility_section():
    doc = _doc("coin_utility")
    del doc["utility"]
    _judged(doc, "payoff: missing utility values")


def test_utility_value_too_large_for_a_float():
    doc = _doc("coin_utility")
    doc["utility"]["values"]["win"] = 10 ** 400
    _expect(doc, "payoff: utility value at 'win' is too large")


def test_probability_too_large_for_a_float():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"]["no"] = [10 ** 400, 0]
    _expect(doc, "lung_cancer: row 'no' has a number too large for a float")


def test_mapping_must_be_a_list_of_labels(m1):
    doc = json.loads(serialize_model(to_hcf(m1)))
    doc["mechanisms"][0]["mappings"][0] = "no,no"
    _expect(doc, "lung_cancer(smoke): every mapping must be a list of "
            "state labels")


def test_boolean_probability_is_not_a_number():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"]["no"] = [True, False]
    _expect(doc, "lung_cancer: row 'no' must be a list of numbers")


def test_boolean_utility_value_is_not_a_number():
    doc = _doc("coin_utility")
    doc["utility"]["values"]["win"] = True
    _expect(doc, "utility value True at 'win' is not a number")


def test_bad_decision_order_type():
    doc = _doc()
    doc["decision_order"] = "smoke"
    _expect(doc, "decision_order")


def test_bad_arc_entry():
    doc = _doc()
    doc["relevance_arcs"].append(["only-one"])
    _expect(doc, "relevance_arcs")


def test_unknown_annotation_key():
    doc = _doc()
    doc["annotations"]["verified_by"] = "me"
    _expect(doc, "verified_by")


def test_mechanism_node_without_a_table(m1):
    doc = json.loads(serialize_model(to_hcf(m1)))
    del doc["cpts"]["lung_cancer(smoke)"]
    _expect(doc, "mechanism names 'lung_cancer(smoke)', which has no table")


def test_mechanism_naming_unknown_node():
    doc = _doc()
    doc["mechanisms"] = [{"node": "ghost", "source": "lung_cancer"}]
    _expect(doc, "ghost")


def test_rows_given_as_list():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"] = [[0.9, 0.1]]
    _expect(doc, "rows")


def test_parent_order_given_as_number():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["parent_order"] = 3
    _expect(doc, "parent_order")


def test_causal_annotation_must_be_boolean():
    doc = _doc()
    doc["annotations"]["causal"] = "no"
    _expect(doc, "causal")


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_corpus_round_trips(name):
    text = (FIXTURES / name).read_text()
    parsed = parse_document(text)
    canonical = serialize_model(parsed)
    assert serialize_model(parse_document(canonical)) == canonical


def test_set_decision_round_trips():
    x = chance_node("x", ["0", "1"], [], {(): [0.5, 0.5]})
    d = Diagram((set_decision_node("s", ["0", "1"], "x"), x), (("s", "x"),))
    text = serialize_model(d)
    assert json.loads(text)["variables"][0] == {
        "name": "s", "kind": "decision",
        "states": ["do_nothing", "set=0", "set=1"], "set_decision_for": "x"}
    assert parse_model(text) == d


def test_full_precision_round_trip():
    doc = _doc()
    doc["cpts"]["lung_cancer"]["rows"]["no"] = [2 / 3, 1 / 3]
    d = parse_document(json.dumps(doc))
    again = parse_model(serialize_model(d))
    assert again.node("lung_cancer").table.rows[("no",)] == (2 / 3, 1 / 3)


def test_hcf_round_trip(m1):
    h = to_hcf(m1)
    text = serialize_model(h)
    again = parse_document(text)
    assert isinstance(again, HcfDiagram)
    assert [m.name for m in again.mechanisms] == [m.name for m in h.mechanisms]
    assert again.mechanisms[0].states == h.mechanisms[0].states
    assert validate_diagram(again.diagram) == []
    assert serialize_model(again) == text


def test_parse_model_drops_mechanism_wrapper(m1):
    text = serialize_model(to_hcf(m1))
    d = parse_model(text)
    assert d.has("lung_cancer(smoke)")


def test_parentless_utility_key_is_empty_string():
    doc = _doc("coin_utility")
    doc["relevance_arcs"] = [["d", "w"], ["c", "w"]]
    doc["utility"] = {"parents": [], "values": {"": 7.0}}
    d = parse_document(json.dumps(doc))
    assert d.utility().utility.rows[()] == 7.0
