"""Mechanism extraction and the Howard Canonical Form transformation.

A mechanism for a decision-affected chance node x ranges over every
deterministic mapping from the instances of x's non-fixed parents Y to
x's states.  Extracting it turns x into a deterministic function of
Y and the mechanism, and moves x's uncertainty into a node that no
decision can touch.

The default mechanism prior is the product completion: the response at
each Y-instance is drawn independently from x's original conditional
row.  It is the unique independent-response prior reproducing the
original table; callers may supply their own prior, which
``check_marginal_reproduction`` audits against the same marginals.

Mechanism states are ordered lexicographically (by the mapping's values
over lexicographically ordered Y-instances).  Comparisons against any
externally listed ordering should be content-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (DependentMechanismsUnassessed, NotCausal,
                     ReassessmentRequired, StateSpaceExceeded)
from .model import (CHANCE, DETERMINISTIC, TOL, ConditionalTable, Diagram,
                    Node, Variable, chance_node, instance_keys,
                    parent_variables, validate_diagram)

MECHANISM_STATE_CAP = 10 ** 6

# A mechanism state is a tuple of target states, one per Y-instance,
# aligned with the lexicographic Y-instance order.
StateMapping = tuple


@dataclass(frozen=True)
class MechanismSpec:
    target: str
    domain: tuple[str, ...]            # non-fixed parents Y, in table order
    fixed_parents: tuple[str, ...]     # parents Z that stay upstream
    states: tuple[StateMapping, ...]
    prior: ConditionalTable

    @property
    def name(self) -> str:
        return mechanism_name(self.target, self.domain)


@dataclass(frozen=True)
class HcfDiagram:
    diagram: Diagram
    mechanisms: tuple[MechanismSpec, ...] = ()
    provenance: dict = field(default_factory=dict)


def _diagram_of(parsed) -> Diagram:
    """The diagram itself, or the one inside an HcfDiagram."""
    return parsed.diagram if isinstance(parsed, HcfDiagram) else parsed


def mechanism_name(target: str, domain) -> str:
    return f"{target}({','.join(domain)})"


def mechanism_state_label(mapping: StateMapping) -> str:
    return ",".join(mapping)


def _mappings(x: Variable, y_vars: list[Variable], cap: int
              ) -> list[StateMapping]:
    q = 1
    for v in y_vars:
        q *= len(v.states)
    count = len(x.states) ** q
    if count > cap:
        raise StateSpaceExceeded(
            f"mechanism for {x.name} needs {count} states, cap is {cap}")
    return list(itertools.product(x.states, repeat=q))


def enumerate_mechanism_states(x: Variable, domain: list[Variable],
                               cap: int = MECHANISM_STATE_CAP
                               ) -> list[StateMapping]:
    """All r^q mappings from domain instances to states of x, in
    canonical lexicographic order."""
    if not domain:
        raise ValueError("mechanism domain must be nonempty")
    if any(v.name == x.name for v in domain):
        raise ValueError(f"{x.name} cannot be in its own mechanism domain")
    return _mappings(x, list(domain), cap)


def canonical_mechanism_prior(d: Diagram, target: str,
                              cap: int = MECHANISM_STATE_CAP) -> MechanismSpec:
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
    return _build_spec(d, node, domain, z_parents, cap)


def _build_spec(d: Diagram, node: Node, domain, z_parents, cap) -> MechanismSpec:
    y_vars = parent_variables(d, domain)
    mappings = _mappings(node.variable, y_vars, cap)
    y_keys = instance_keys(y_vars)
    order = node.table.parent_order
    rows = {}
    for z_key in instance_keys(parent_variables(d, z_parents)):
        bound = dict(zip(z_parents, z_key))
        dist = []
        for mapping in mappings:
            p = 1.0
            for y_key, value in zip(y_keys, mapping):
                bound.update(zip(domain, y_key))
                row = node.table.rows[tuple(bound[a] for a in order)]
                p *= row[node.states.index(value)]
            dist.append(p)
        rows[z_key] = tuple(dist)
    prior = ConditionalTable(tuple(z_parents), rows)
    return MechanismSpec(node.name, tuple(domain), tuple(z_parents),
                         tuple(mappings), prior)


# ---------------------------------------------------------------------------
# The transformation


def to_hcf(d: Diagram, assume_causal: bool = False,
           priors: dict | None = None,
           mechanism_arcs=(), mechanism_priors: dict | None = None,
           cap: int = MECHANISM_STATE_CAP) -> HcfDiagram:
    """Transform a causal diagram so every decision descendant is
    deterministic, extracting one mechanism per affected chance node.

    ``priors`` may override the product prior per target node.
    Dependencies among mechanisms (the marginalized-common-cause case)
    must come with explicit tables via ``mechanism_arcs`` and
    ``mechanism_priors``; the transformation cannot invent them.
    """
    if not (d.causal or assume_causal):
        raise NotCausal("diagram is not annotated causal; "
                        "pass assume_causal to proceed on your own assertion")
    priors = priors or {}
    mechanism_priors = mechanism_priors or {}
    fixed = d.fixed_nodes()
    for a, b in d.relevance_arcs:
        if b in fixed and a not in fixed:
            raise ReassessmentRequired(
                f"arc {a}->{b} runs from a non-fixed node into a fixed one; "
                "reassess with the fixed variables ordered first")
    for a, b in mechanism_arcs:
        if a not in mechanism_priors and b not in mechanism_priors:
            raise DependentMechanismsUnassessed(
                f"declared mechanism dependency {a}->{b} has no joint table")

    targets = [x for x in d.topological_order()
               if d.node(x).kind == CHANCE and x not in fixed]

    nodes = list(d.nodes)
    relevance = list(d.relevance_arcs)
    mechanisms = []
    provenance = {}
    for x in targets:
        node = d.node(x)
        order = node.table.parent_order
        domain = tuple(p for p in order if p not in fixed)
        z_parents = tuple(p for p in order if p in fixed)
        spec = priors.get(x) or _build_spec(d, node, domain, z_parents, cap)
        mech = spec.name
        if d.has(mech) or any(n.name == mech for n in nodes):
            raise ValueError(f"mechanism name {mech!r} collides with a variable")
        labels = [mechanism_state_label(m) for m in spec.states]
        nodes.append(chance_node(
            mech, labels, spec.fixed_parents,
            {k: list(v) for k, v in spec.prior.rows.items()}))
        # Rewire x: deterministic in (Y, mechanism); Z moves to the mechanism.
        y_keys = instance_keys(parent_variables(d, domain))
        det_rows = {}
        for i, y_key in enumerate(y_keys):
            for mapping in spec.states:
                value = mapping[i]
                dist = [1.0 if s == value else 0.0 for s in node.states]
                det_rows[y_key + (mechanism_state_label(mapping),)] = dist
        new_order = domain + (mech,)
        xi = next(i for i, n in enumerate(nodes) if n.name == x)
        nodes[xi] = chance_node(
            x, node.states, new_order, det_rows, deterministic=True)
        relevance = [(a, b) for a, b in relevance
                     if not (b == x and a in z_parents)]
        relevance.extend((z, mech) for z in spec.fixed_parents)
        relevance.append((mech, x))
        mechanisms.append(spec)
        provenance[mech] = x

    for a, b in mechanism_arcs:
        relevance.append((a, b))
        spec_idx = {m.name: i for i, m in enumerate(mechanisms)}
        if b in mechanism_priors and b in spec_idx:
            new_prior = mechanism_priors[b]
            i = spec_idx[b]
            mechanisms[i] = MechanismSpec(
                mechanisms[i].target, mechanisms[i].domain,
                tuple(new_prior.parent_order), mechanisms[i].states, new_prior)
            j = next(k for k, n in enumerate(nodes) if n.name == b)
            nodes[j] = chance_node(b, nodes[j].states, new_prior.parent_order,
                                   {k: list(v) for k, v in new_prior.rows.items()})

    out = Diagram(tuple(nodes), tuple(relevance), d.information_arcs,
                  d.decision_order, causal=True,
                  declared_fixed=d.declared_fixed)
    return HcfDiagram(out, tuple(mechanisms), provenance)


def validate_hcf(h: HcfDiagram) -> list[str]:
    """HCF-specific invariants, on top of ordinary diagram validity."""
    report = validate_diagram(h.diagram)
    d = h.diagram
    if not d.causal:
        report.append("HCF diagram must be annotated causal")
    desc = d.descendants(d.decisions())
    for x in d.uncertain():
        if x in desc and d.node(x).kind != DETERMINISTIC:
            report.append(f"decision descendant {x} is not deterministic")
    for m in h.mechanisms:
        if d.has(m.name) and m.name in desc:
            report.append(f"mechanism {m.name} is a decision descendant")
        r, q = len(d.node(m.target).states), 1
        for v in parent_variables(d, m.domain):
            q *= len(v.states)
        if len(m.states) != r ** q:
            report.append(f"mechanism {m.name} has {len(m.states)} states, "
                          f"expected {r ** q}")
    return report


# ---------------------------------------------------------------------------
# Audit


def check_marginal_reproduction(orig: Diagram, hcf: HcfDiagram) -> list[str]:
    """Verify each mechanism prior reproduces the original conditional
    table: summing P(f | z) over mappings with f(y) = k must give
    P(x = k | y, z).  Returns all violations; empty means pass."""
    violations = []
    for spec in hcf.mechanisms:
        node = orig.node(spec.target)
        order = node.table.parent_order
        y_keys = instance_keys(parent_variables(orig, spec.domain))
        z_keys = instance_keys(parent_variables(orig, spec.fixed_parents))
        for z_key in z_keys:
            # User-supplied priors may condition on extra variables; audit
            # only rows keyed by the declared fixed parents.
            prior_row = spec.prior.rows.get(z_key)
            if prior_row is None:
                violations.append(
                    f"{spec.target}: prior has no row for fixed parents {z_key}")
                continue
            bound = dict(zip(spec.fixed_parents, z_key))
            for i, y_key in enumerate(y_keys):
                bound.update(zip(spec.domain, y_key))
                orig_row = node.table.rows[tuple(bound[a] for a in order)]
                for k, state in enumerate(node.states):
                    total = sum(p for mapping, p in zip(spec.states, prior_row)
                                if mapping[i] == state)
                    if abs(total - orig_row[k]) > TOL:
                        violations.append(
                            f"{spec.target}: P({spec.target}={state} | "
                            f"y={y_key}, z={z_key}) is {orig_row[k]!r} "
                            f"originally but {total!r} under the prior")
    return violations
