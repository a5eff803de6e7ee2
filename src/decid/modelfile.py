"""JSON model interchange format.

Sections: variables, relevance_arcs, information_arcs, cpts,
deterministic, utility, decision_order, annotations, and (for diagrams
carrying extracted mechanisms) mechanisms.  Row keys join parent states
with "|" in parent order.  Serialization is canonical, so parse ->
serialize -> parse is identity, mechanisms section included.

The parser decodes and ``validate_diagram`` judges: ParseError is for
what cannot become a Diagram, such as bad JSON, an unknown key or kind,
or a mechanism that does not bind; a missing or malformed table parses,
a mechanism's prior (its node's table) among them.  A table row is
type-checked and converted whole, by builtins.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .model import (CHANCE, DECISION, DETERMINISTIC, UTILITY,
                    ConditionalTable, Diagram, HcfDiagram, MechanismSpec, Node,
                    UtilityTable, Variable, _mechanism_violations)

_TOP_KEYS = {"variables", "relevance_arcs", "information_arcs", "cpts",
             "deterministic", "utility", "decision_order", "annotations",
             "mechanisms"}
_VAR_KEYS = {"name", "kind", "states", "set_decision_for"}
_TABLE_KEYS = {"parent_order", "rows"}
_UTILITY_KEYS = {"parents", "values"}
_ANNOTATION_KEYS = {"causal", "declared_fixed"}
_MECHANISM_KEYS = {"node", "source", "domain", "fixed_parents", "mappings"}
_NAMES = "names"     # _get's type tag for a list of strings
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               bool: "true or false", _NAMES: "a list of strings"}
# Exact types: JSON true and false decode to bool, an int subclass.
_IS_NUMBER = frozenset((int, float)).__contains__


def parse_document(text: str):
    """Parse a model document into a Diagram, or an HcfDiagram when a
    mechanisms section is present.  A document that does not decode
    raises ParseError; the result is not validated."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at column {e.colno}: {e.msg}",
                         line=e.lineno) from e
    _reject_unknown(doc, _TOP_KEYS, "document")

    variables = _get(doc, "variables", list, "document")
    if variables is None:
        raise ParseError("'variables' must be a list")
    nodes = []
    kinds = {}
    for entry in variables:
        _reject_unknown(entry, _VAR_KEYS, "variable entry")
        name = _get(entry, "name", str, "variable entry")
        kind = entry.get("kind")
        if not name:
            raise ParseError(f"variable entry {entry!r} needs a name")
        if name in kinds:
            raise ParseError(f"duplicate variable {name!r}")
        if kind not in (CHANCE, DETERMINISTIC, DECISION, UTILITY):
            raise ParseError(f"{name}: unknown kind {kind!r}")
        states = _get(entry, "states", _NAMES, name, ())
        kinds[name] = kind
        nodes.append((name, kind, states,
                      _get(entry, "set_decision_for", str, name)))

    cpts = _get(doc, "cpts", dict, "document", {})
    dets = _get(doc, "deterministic", dict, "document", {})
    utility = _get(doc, "utility", dict, "document")

    built = []
    for name, kind, states, sdf in nodes:
        if kind in (CHANCE, DETERMINISTIC):
            section = cpts if kind == CHANCE else dets
            table = (_parse_table(name, section[name]) if name in section
                     else None)
            built.append(Node(Variable(name, states), kind, table=table))
        elif kind == DECISION:
            built.append(Node(Variable(name, states), DECISION,
                              set_decision_for=sdf))
        else:
            table = None if utility is None else _parse_utility(name, utility)
            built.append(Node(Variable(name, ()), UTILITY, utility=table))
    for section, label, kind in ((cpts, "cpts", CHANCE),
                                 (dets, "deterministic", DETERMINISTIC)):
        for name in section:
            if kinds.get(name) != kind:
                raise ParseError(f"'{label}' section names {name!r}, which is "
                                 f"not a {kind} variable")

    relevance = _parse_arcs(doc.get("relevance_arcs", []), "relevance_arcs")
    information = _parse_arcs(doc.get("information_arcs", []),
                              "information_arcs")
    ann = _get(doc, "annotations", dict, "document", {})
    _reject_unknown(ann, _ANNOTATION_KEYS, "annotations")
    diagram = Diagram(
        tuple(built), relevance, information,
        _get(doc, "decision_order", _NAMES, "document"),
        causal=_get(ann, "causal", bool, "annotations", False),
        declared_fixed=frozenset(_get(ann, "declared_fixed", _NAMES,
                                      "annotations", ())))

    entries = _get(doc, "mechanisms", list, "document")
    if entries is None:
        return diagram
    mechanisms = []
    for entry in entries:
        _reject_unknown(entry, _MECHANISM_KEYS, "mechanism entry")
        mech = _get(entry, "node", str, "mechanism entry")
        if not diagram.has(mech) or diagram.node(mech).table is None:
            raise ParseError(f"mechanism names {mech!r}, which has no table")
        mappings = _get(entry, "mappings", list, mech, [])
        if not all(map(_is_names, mappings)):
            raise ParseError(f"{mech}: every mapping must be a list of "
                             "state labels")
        spec = MechanismSpec(_get(entry, "source", str, "mechanism entry"),
                             _get(entry, "domain", _NAMES, mech, ()),
                             _get(entry, "fixed_parents", _NAMES, mech, ()),
                             tuple(map(tuple, mappings)),
                             diagram.node(mech).table)
        errors = _mechanism_violations(spec, diagram._by_name, mech)
        if errors:
            raise ParseError(errors[0])
        mechanisms.append(spec)
    return HcfDiagram(diagram, tuple(mechanisms))


def parse_model(text: str) -> Diagram:
    parsed = parse_document(text)
    return parsed.diagram if isinstance(parsed, HcfDiagram) else parsed


def _reject_unknown(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")


def _is_names(value) -> bool:
    return isinstance(value, list) and all(map(str.__instancecheck__, value))


def _get(obj: dict, key, kind, where, default=None):
    """``obj[key]`` checked against a JSON type (a list of strings comes
    back as a tuple); absent or null gives ``default``."""
    value = obj.get(key)
    if value is None:
        return default
    if kind is _NAMES and _is_names(value):
        return tuple(value)
    if kind is not _NAMES and isinstance(value, kind):
        return value
    raise ParseError(f"{where}: '{key}' must be {_TYPE_NAMES[kind]}")


def _parse_arcs(raw, label):
    if not isinstance(raw, list):
        raise ParseError(f"'{label}' must be a list")
    arcs = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(isinstance(e, str) for e in entry)):
            raise ParseError(f"'{label}' entry {entry!r} must be a "
                             "[from, to] pair")
        arcs.append((entry[0], entry[1]))
    return tuple(arcs)


def _row_key(key: str) -> tuple[str, ...]:
    """The parent instance a row key names; "" is the empty instance."""
    return tuple(key.split("|")) if key else ()


def _parse_table(name, spec) -> ConditionalTable:
    _reject_unknown(spec, _TABLE_KEYS, f"table for {name}")
    parents = _get(spec, "parent_order", _NAMES, name, ())
    rows = {}
    for key, dist in _get(spec, "rows", dict, name, {}).items():
        if not (isinstance(dist, list)
                and all(map(_IS_NUMBER, map(type, dist)))):
            raise ParseError(f"{name}: row {key!r} must be a list of numbers")
        try:
            rows[_row_key(key)] = tuple(map(float, dist))
        except OverflowError:
            raise ParseError(f"{name}: row {key!r} has a number too large "
                             "for a float") from None
    return ConditionalTable(parents, rows)


def _parse_utility(name, spec) -> UtilityTable:
    _reject_unknown(spec, _UTILITY_KEYS, "utility section")
    parents = _get(spec, "parents", _NAMES, name, ())
    values = {}
    for key, v in _get(spec, "values", dict, name, {}).items():
        if not _IS_NUMBER(type(v)):
            raise ParseError(f"{name}: utility value {v!r} at {key!r} "
                             "is not a number")
        try:
            values[_row_key(key)] = float(v)
        except OverflowError:
            raise ParseError(f"{name}: utility value at {key!r} is too "
                             "large") from None
    return UtilityTable(parents, values)


# ---------------------------------------------------------------------------
# Serialization


def serialize_model(obj) -> str:
    """Canonical JSON for a Diagram or HcfDiagram.  Probabilities keep
    full float precision so round-trips are exact."""
    hcf = obj if isinstance(obj, HcfDiagram) else None
    d = hcf.diagram if hcf else obj
    doc = {
        "variables": [_variable_entry(n) for n in d.nodes],
        "relevance_arcs": [list(a) for a in sorted(d.relevance_arcs)],
        "information_arcs": [list(a) for a in sorted(d.information_arcs)],
        "cpts": {n.name: _table_entry(n.table) for n in d.nodes
                 if n.kind == CHANCE},
        "deterministic": {n.name: _table_entry(n.table) for n in d.nodes
                          if n.kind == DETERMINISTIC},
        "utility": _utility_entry(d),
        "decision_order": list(d.decision_order)
        if d.decision_order is not None else None,
        "annotations": {"causal": d.causal,
                        "declared_fixed": sorted(d.declared_fixed)},
    }
    if hcf is not None:
        doc["mechanisms"] = [
            {"node": m.name, "source": m.target, "domain": list(m.domain),
             "fixed_parents": list(m.fixed_parents),
             "mappings": [list(s) for s in m.states]}
            for m in hcf.mechanisms]
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _variable_entry(n: Node) -> dict:
    entry = {"name": n.name, "kind": n.kind, "states": list(n.states)}
    if n.kind == UTILITY:
        del entry["states"]
    if n.set_decision_for is not None:
        entry["set_decision_for"] = n.set_decision_for
    return entry


def _table_entry(table: ConditionalTable) -> dict:
    return {"parent_order": list(table.parent_order),
            "rows": {"|".join(k): list(v)
                     for k, v in sorted(table.rows.items())}}


def _utility_entry(d: Diagram):
    u = d.utility()
    if u is None:
        return None
    return {"parents": list(u.utility.parent_order),
            "values": {"|".join(k): v
                       for k, v in sorted(u.utility.rows.items())}}
