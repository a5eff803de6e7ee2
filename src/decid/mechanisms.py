"""Mechanism extraction, the Howard Canonical Form transformation, and
the audits that read tables: marginal reproduction, arc removability
and causal network certification.

A mechanism for a decision-affected chance node x ranges over every
deterministic mapping from the instances of x's non-fixed parents Y to
x's states.  Extracting it turns x into a deterministic function of
Y and the mechanism, and moves x's uncertainty into a node that no
decision can touch.

The default mechanism prior is the product completion: the response at
each Y-instance is drawn independently from x's original conditional
row.  It is the unique independent-response prior reproducing the
original table; callers may supply their own prior, which
``check_marginal_reproduction`` audits by one ``inference.eliminate``
over the canonical form's tables of x and its mechanism, as every query
reads them.  Audits and prior read through ``inference.table_factor``.

Mechanism states are ordered lexicographically (by the mapping's values
over lexicographically ordered Y-instances).  Comparisons against any
externally listed ordering should be content-based.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (MechanismError, NotCausal, ReassessmentRequired,
                     StateSpaceExceeded, UnknownVariable)
from .graphs import is_set_decision
from .inference import eliminate, table_factor
from .model import (CHANCE, DECISION, DETERMINISTIC, TOL, ConditionalTable,
                    Diagram, HcfDiagram, MechanismSpec, Node, StateMapping,
                    Variable, _check_table, _mechanism_violations,
                    chance_node, instance_keys, mechanism_name,
                    mechanism_state_label, parent_variables)

MECHANISM_STATE_CAP = 10 ** 6

def _domain_size(x: Variable, y_vars: list[Variable]) -> int:
    """q, the number of domain instances, once r^q mappings fit
    ``MECHANISM_STATE_CAP``."""
    q = math.prod(len(v.states) for v in y_vars)
    count = len(x.states) ** q
    if count > MECHANISM_STATE_CAP:
        raise StateSpaceExceeded(f"mechanism for {x.name} needs {count} "
                                 f"states, cap is {MECHANISM_STATE_CAP}")
    return q


def enumerate_mechanism_states(x: Variable, domain: list[Variable]
                               ) -> list[StateMapping]:
    """All r^q mappings from domain instances to states of x, in
    canonical lexicographic order."""
    if not domain:
        raise ValueError("mechanism domain must be nonempty")
    if any(v.name == x.name for v in domain):
        raise ValueError(f"{x.name} cannot be in its own mechanism domain")
    return list(itertools.product(x.states,
                                  repeat=_domain_size(x, domain)))


def canonical_mechanism_prior(d: Diagram, target: str) -> MechanismSpec:
    """Product-completion prior over the mechanism states of ``target``.

    For each fixed-parent instance z: P(f | z) = prod over Y-instances y
    of P(x = f(y) | y, z), read from the original table.
    """
    node = d.node(target)
    if node.kind not in (CHANCE, DETERMINISTIC):
        raise ValueError(f"{target} is not a chance node")
    fixed = d.fixed_nodes()
    order = node.table.parent_order
    domain = tuple(p for p in order if p not in fixed)
    z_parents = tuple(p for p in order if p in fixed)
    if not domain:
        raise ValueError(f"{target} has no non-fixed parents; "
                         "nothing to extract")
    return _build_spec(d, node, domain, z_parents)


def _responses(d: Diagram, node: Node, domain, z_parents) -> np.ndarray:
    """P(x | y, z) as an array indexed by z-instance, y-instance and
    state of x, instances in lexicographic order."""
    f = table_factor(d, node)
    v = np.transpose(f.values, [f.scope.index(p)
                                for p in (*z_parents, *domain, node.name)])
    return v.reshape(math.prod(v.shape[:len(z_parents)]), -1, v.shape[-1])


def _build_spec(d: Diagram, node: Node, domain, z_parents) -> MechanismSpec:
    mappings = itertools.product(node.states, repeat=_domain_size(
        node.variable, parent_variables(d, domain)))
    resp = _responses(d, node, domain, z_parents)
    # One Y-instance at a time, in Y order, so each mapping's product is
    # taken left to right; later Y-instances vary fastest, as in
    # ``mappings``.
    prior = resp[:, 0]
    for k in range(1, resp.shape[1]):
        prior = (prior[:, :, None] * resp[:, None, k]).reshape(len(resp), -1)
    z_keys = instance_keys(parent_variables(d, z_parents))
    rows = dict(zip(z_keys, map(tuple, prior.tolist())))
    return MechanismSpec(node.name, tuple(domain), tuple(z_parents),
                         tuple(mappings), ConditionalTable(tuple(z_parents), rows))


# ---------------------------------------------------------------------------
# The transformation


def to_hcf(d: Diagram, assume_causal: bool = False,
           priors: dict | None = None) -> HcfDiagram:
    """Transform a causal diagram so every decision descendant is
    deterministic, extracting one mechanism per affected chance node.

    ``priors`` may override the product prior per target node with a
    ``MechanismSpec`` for that target and its domain.  Mechanisms that
    depend on one another (the marginalized-common-cause case) are
    assessed here too: a spec's ``fixed_parents`` may name another
    mechanism, and its prior table conditions on it.  The transformation
    cannot invent such a dependency.  A given prior is judged as every
    table is.  Each spec returned has its mechanism node's table as prior.
    """
    if not (d.causal or assume_causal):
        raise NotCausal("diagram is not annotated causal; "
                        "pass assume_causal to proceed on your own assertion")
    priors = priors or {}
    fixed = d.fixed_nodes()
    for a, b in d.relevance_arcs:
        if b in fixed and a not in fixed:
            raise ReassessmentRequired(
                f"arc {a}->{b} runs from a non-fixed node into a fixed one; "
                "reassess with the fixed variables ordered first")

    targets = [x for x in d.topological_order()
               if d.node(x).kind == CHANCE and x not in fixed]
    unknown = sorted(set(priors) - set(targets))
    if unknown:
        raise UnknownVariable(f"priors name {unknown[0]!r}, which has no "
                              "mechanism to extract")

    # Every product prior is sized before any is built.
    plan = []
    for x in targets:
        node = d.node(x)
        order = node.table.parent_order
        domain = tuple(p for p in order if p not in fixed)
        if x not in priors:
            _domain_size(node.variable, parent_variables(d, domain))
        plan.append((x, node, domain, tuple(p for p in order if p in fixed)))

    nodes = {n.name: n for n in d.nodes}
    relevance = list(d.relevance_arcs)
    mechanisms = []
    for x, node, domain, z_parents in plan:
        mech = mechanism_name(x, domain)
        if mech in nodes:
            raise ValueError(f"mechanism name {mech!r} collides with a variable")
        spec = priors.get(x)
        if spec is None:
            spec = _build_spec(d, node, domain, z_parents)
        elif (spec.target, spec.domain) != (x, domain):
            raise UnknownVariable(f"the prior given for {x} is for {spec.name}"
                                  f", not {mech}")
        elif errors := _mechanism_violations(spec, nodes):
            raise MechanismError(errors[0])
        labels = [mechanism_state_label(m) for m in spec.states]
        nodes[mech] = chance_node(mech, labels, spec.fixed_parents,
                                  spec.prior.rows)
        # Rewire x: deterministic in (Y, mechanism); Z moves to the
        # mechanism.  Rows share one one-hot tuple per state of x.
        hot = {s: tuple(float(s == t) for t in node.states)
               for s in node.states}
        y_keys = instance_keys(parent_variables(d, domain))
        det_rows = {y_key + (label,): hot[mapping[i]]
                    for i, y_key in enumerate(y_keys)
                    for mapping, label in zip(spec.states, labels)}
        nodes[x] = Node(node.variable, DETERMINISTIC, table=ConditionalTable(
            domain + (mech,), det_rows))
        relevance = [(a, b) for a, b in relevance
                     if not (b == x and a in z_parents)]
        relevance.extend((z, mech) for z in spec.fixed_parents)
        relevance.append((mech, x))
        mechanisms.append(spec._replace(prior=nodes[mech].table))

    out = Diagram(tuple(nodes.values()), tuple(relevance), d.information_arcs,
                  d.decision_order, causal=True,
                  declared_fixed=d.declared_fixed)
    if errors := [e for m in mechanisms if m.target in priors
                  for e in _check_table(out, out.node(m.name))]:
        raise MechanismError(errors[0])
    return HcfDiagram(out, tuple(mechanisms))


# ---------------------------------------------------------------------------
# Audit


def check_marginal_reproduction(orig: Diagram, hcf: HcfDiagram) -> list[str]:
    """The violations of marginal reproduction: P(x | y, z), eliminated
    from ``hcf``'s tables of x and its mechanism, must be the original's.
    A mechanism is one violation if x is no chance node of the original;
    if x's parents are not its domain and fixed parents there (a prior
    on another mechanism, say), or its domain and mechanism in ``hcf``;
    or if ``hcf`` states x or a parent otherwise."""
    d, violations = hcf.diagram, []
    for spec in hcf.mechanisms:
        x, parents = spec.target, set(spec.domain) | set(spec.fixed_parents)
        node = orig.node(x) if orig.has(x) else None
        if node is None or node.kind not in (CHANCE, DETERMINISTIC):
            violations.append(f"{spec.name}: the original has no chance "
                              f"node {x}")
            continue
        if set(node.table.parent_order) != parents:
            violations.append(
                f"{spec.name}: {x} has parents "
                f"{sorted(node.table.parent_order)} in the original, not "
                f"{sorted(parents)}")
            continue
        source, inputs = d.node(x).table, {*spec.domain, spec.name}
        if source is None or set(source.parent_order) != inputs or any(
                d.node(v).states != orig.node(v).states for v in (x, *parents)):
            violations.append(f"{spec.name}: the canonical form does not "
                              f"tabulate {x} over {sorted(inputs)} in the "
                              "original's states")
            continue
        z_keys = instance_keys(parent_variables(orig, spec.fixed_parents))
        if missing := [f"{x}: prior has no row for fixed parents {z}" for z in
                       z_keys if z not in d.node(spec.name).table.rows]:
            violations += missing
            continue
        resp = _responses(orig, node, spec.domain, spec.fixed_parents)
        totals = eliminate(
            [table_factor(d, d.node(n)) for n in (x, spec.name)],
            [*spec.fixed_parents, *spec.domain, x]).values.reshape(resp.shape)
        y_keys = instance_keys(parent_variables(orig, spec.domain))
        for z, i, k in zip(*np.nonzero(np.abs(totals - resp) > TOL)):
            total, want = float(totals[z, i, k]), float(resp[z, i, k])
            violations.append(
                f"{x}: P({x}={node.states[k]} | y={y_keys[i]}, z={z_keys[z]}) "
                f"is {want!r} originally but {total!r} under the prior")
    return violations


# ---------------------------------------------------------------------------
# Minimality and certification


class CertificationReport(NamedTuple):
    certified: bool
    reasons: tuple[str, ...] = ()


def removable_arcs(d: Diagram) -> list[tuple[str, str]]:
    """Relevance arcs whose removal changes no conditional table.

    Arc a->x is removable iff x's table (a utility's values included) is
    constant within tolerance along a's axis.  Arcs from set decisions
    are never removable: the forced alternative always matters.  A
    diagram is minimal iff this list is empty.
    """
    removable, tables = [], {}
    for a, x in d.relevance_arcs:
        if d.node(x).kind == DECISION or d.node(a).set_decision_for == x:
            continue
        if x not in tables:
            tables[x] = table_factor(d, d.node(x))
        f = tables[x]
        v = np.moveaxis(f.values, f.scope.index(a), 0)
        if not np.any(np.abs(v[1:] - v[0]) > TOL):
            removable.append((a, x))
    return removable


def certify_causal_network(d: Diagram) -> CertificationReport:
    """Certify that every chance node's parents are its causes.

    The sufficient condition: the diagram is causal, minimal, and every
    nonleaf uncertain variable has a set decision.  A diagram that fails
    here may still be a causal network by user assertion.
    """
    reasons = []
    if not d.causal:
        reasons.append("diagram is not annotated causal")
    for a, x in removable_arcs(d):
        reasons.append(f"removable arc {a}->{x}")
    for x in d.uncertain():
        if not d.children(x):
            continue  # leaf
        setdecs = [s for s in d.set_decisions_for(x) if is_set_decision(d, s, x)]
        if not setdecs:
            reasons.append(f"missing set decision for nonleaf variable {x}")
    return CertificationReport(not reasons, tuple(reasons))
