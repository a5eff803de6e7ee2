"""Exact inference and the semantic fixed-set / cause oracles.

One core serves every query: ``family_factor`` reads a node's table,
decision parents and set decisions included, as one factor.
``eliminate`` sums variables out of a factor product for ``posterior``
and for expected utility and policy search in ``decisions``; the
oracles' ``propagate`` and ``WorldTable`` index the same factors to
carry worlds forward.  ``joint`` stays a separate route by direct
enumeration: it is the reference that the tests hold the core against.

The oracles realize fixed-set membership literally: every functional
world of positive weight (joint instance of the fixed nodes, mechanisms
included) is propagated under every decision instance, and the target
may not vary across decision choices that agree on the conditioning set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotHcf, UnknownVariable, WorldCapExceeded,
                     ZeroProbabilityEvidence)
from .graphs import CauseReport, d_separated, minimal_sets
from .mechanisms import _diagram_of
from .model import (CHANCE, DECISION, DETERMINISTIC, DO_NOTHING, SET_PREFIX,
                    TOL, UTILITY, Assignment, Diagram, Node, chance_node,
                    enumerate_instances, parent_variables)

WORLD_PAIR_CAP = 10 ** 7


# ---------------------------------------------------------------------------
# Factors


class Factor:
    """Real table over an ordered variable scope; utilities may be negative."""

    __slots__ = ("scope", "states", "values")

    def __init__(self, scope, states, values):
        self.scope = tuple(scope)
        self.states = tuple(map(tuple, states))
        self.values = np.asarray(values, dtype=float)
        assert self.values.shape == tuple(map(len, self.states))

    def __repr__(self):
        return f"Factor(scope={self.scope})"

    def multiply(self, other: "Factor") -> "Factor":
        scope = list(self.scope)
        states = list(self.states)
        for v, s in zip(other.scope, other.states):
            if v not in scope:
                scope.append(v)
                states.append(s)
        a = _expand(self, scope, states)
        b = _expand(other, scope, states)
        return Factor(scope, states, a * b)

    def marginalize(self, var: str) -> "Factor":
        i = self.scope.index(var)
        return Factor(self.scope[:i] + self.scope[i + 1:],
                      self.states[:i] + self.states[i + 1:],
                      self.values.sum(axis=i))

    def reduce(self, var: str, state: str) -> "Factor":
        i = self.scope.index(var)
        j = self.states[i].index(state)
        return Factor(self.scope[:i] + self.scope[i + 1:],
                      self.states[:i] + self.states[i + 1:],
                      np.take(self.values, j, axis=i))

    def normalize(self) -> "Factor":
        z = self.values.sum()
        if z <= 0.0:
            raise ZeroProbabilityEvidence("factor normalizes to zero")
        return Factor(self.scope, self.states, self.values / z)

    def value(self, assignment: Assignment) -> float:
        idx = tuple(self.states[i].index(assignment[v])
                    for i, v in enumerate(self.scope))
        return float(self.values[idx])

    def total(self) -> float:
        return float(self.values.sum())


def _expand(f: Factor, scope, states) -> np.ndarray:
    perm = [f.scope.index(v) for v in scope if v in f.scope]
    arr = np.transpose(f.values, perm) if perm else f.values
    shape = [len(s) if v in f.scope else 1 for v, s in zip(scope, states)]
    return arr.reshape(shape)


# ---------------------------------------------------------------------------
# Local distributions with set-decision composition


def local_distribution(d: Diagram, node: Node, assignment: Assignment
                       ) -> tuple[float, ...]:
    """P(node | parent values in ``assignment``), with any "set x to k"
    intervention composed in."""
    for s in d.set_decisions_for(node.name):
        alt = assignment.get(s)
        if alt is None:
            raise UnknownVariable(f"set decision {s} is unassigned")
        if alt != DO_NOTHING:
            forced = alt[len(SET_PREFIX):]
            return tuple(1.0 if x == forced else 0.0 for x in node.states)
    key = tuple(assignment[p] for p in node.table.parent_order)
    return node.table.rows[key]


def family_factor(d: Diagram, node: Node) -> Factor:
    """The node's table as one factor over its relevance parents,
    decisions included, and the node itself.  A set decision is an axis
    of its own: "do nothing" keeps the table, "set x to k" is one-hot.
    A utility factor holds the utility values and has no axis of its own."""
    table = node.utility if node.kind == UTILITY else node.table
    set_decisions = d.set_decisions_for(node.name)
    parents = list(table.parent_order) + set_decisions
    states = [d.node(p).states for p in parents]
    cells = [local_distribution(d, node, dict(zip(parents, key)))
             if set_decisions else table.rows[key]
             for key in itertools.product(*states)]
    if node.kind != UTILITY:
        parents, states = parents + [node.name], states + [node.states]
    shape = [len(s) for s in states]
    return Factor(parents, states, np.reshape(cells, shape))


# ---------------------------------------------------------------------------
# Full-joint enumeration


def joint(d: Diagram, decisions: Assignment) -> Factor:
    """Joint factor over all uncertain variables given a full decision
    instance, by direct enumeration of conditional-table products."""
    _require_full_decisions(d, decisions)
    names = d.uncertain()
    nodes = [d.node(x) for x in names]
    states = [n.states for n in nodes]
    shape = tuple(len(s) for s in states)
    values = np.empty(shape)
    for combo in itertools.product(*(range(k) for k in shape)):
        assignment = dict(decisions)
        for n, i in zip(nodes, combo):
            assignment[n.name] = n.states[i]
        values[combo] = math.prod(local_distribution(d, n, assignment)[i]
                                  for n, i in zip(nodes, combo))
    return Factor(names, states, values)


def _require_full_decisions(d: Diagram, decisions: Assignment) -> None:
    for dec in d.decisions():
        if dec not in decisions:
            raise UnknownVariable(f"missing decision binding for {dec}")
        if decisions[dec] not in d.node(dec).states:
            raise UnknownVariable(
                f"{decisions[dec]!r} is not an alternative of {dec}")
    for x in decisions:
        if d.node(x).kind != DECISION:
            raise UnknownVariable(f"{x} is not a decision")


# ---------------------------------------------------------------------------
# Variable elimination


def posterior(d: Diagram, decisions: Assignment, evidence: Assignment,
              query) -> Factor:
    """P(query | evidence, decisions) by variable elimination over the
    family factors, reduced at the decisions and the evidence alike."""
    _require_full_decisions(d, decisions)
    query = list(query)
    for x in list(evidence) + query:
        if d.node(x).kind not in (CHANCE, DETERMINISTIC):
            raise UnknownVariable(f"{x} is not an uncertain variable")
    if set(query) & set(evidence):
        raise ValueError("query and evidence overlap")
    for v, s in evidence.items():
        if s not in d.node(v).states:
            raise UnknownVariable(f"{s!r} is not a state of {v}")

    bound = {**decisions, **evidence}
    factors = []
    for x in d.uncertain():
        f = family_factor(d, d.node(x))
        for v in f.scope:
            if v in bound:
                f = f.reduce(v, bound[v])
        factors.append(f)

    result = eliminate(factors, query)
    if result.total() <= 0.0:
        raise ZeroProbabilityEvidence(
            f"evidence {evidence} has zero probability under {decisions}")
    return result.normalize()


def eliminate(factors, keep) -> Factor:
    """Sum every variable outside ``keep`` out of the product of the
    factors, in a greedy min-fill order (name tie-break, so runs are
    reproducible).  The result's scope is ``keep``, in that order."""
    to_eliminate = {v for f in factors for v in f.scope} - set(keep)
    for var in _min_fill_order(factors, to_eliminate):
        related = [f for f in factors if var in f.scope]
        prod = related[0]
        for f in related[1:]:
            prod = prod.multiply(f)
        factors = [f for f in factors if var not in f.scope]
        factors.append(prod.marginalize(var))
    result = factors[0]
    for f in factors[1:]:
        result = result.multiply(f)
    perm = [result.scope.index(v) for v in keep]
    return Factor(keep, [result.states[i] for i in perm],
                  np.transpose(result.values, perm))


def _min_fill_order(factors, to_eliminate) -> list[str]:
    neighbors: dict[str, set[str]] = {}
    for f in factors:
        for v in f.scope:
            neighbors.setdefault(v, set()).update(set(f.scope) - {v})
    remaining = set(to_eliminate)
    order = []
    while remaining:
        def fill(v):
            nbrs = [u for u in neighbors.get(v, ()) if u in neighbors]
            return sum(1 for a, b in itertools.combinations(nbrs, 2)
                       if b not in neighbors[a])
        var = min(remaining, key=lambda v: (fill(v), v))
        order.append(var)
        nbrs = {u for u in neighbors.pop(var, ()) if u in neighbors}
        for a in nbrs:
            neighbors[a].discard(var)
            neighbors[a].update(nbrs - {a})
        remaining.discard(var)
    return order


# ---------------------------------------------------------------------------
# Functional worlds and the semantic oracles


@dataclass(frozen=True)
class FunctionalWorld:
    assignment: dict
    weight: float


def functional_worlds(diagram: Diagram) -> list[FunctionalWorld]:
    """Joint instances of the fixed nodes with their prior weights;
    zero-weight worlds are dropped."""
    worlds = [({}, 1.0)]
    for node in _fixed_in_order(diagram):
        nxt = []
        for assignment, w in worlds:
            key = tuple(assignment[p] for p in node.table.parent_order)
            for s, p in zip(node.states, node.table.rows[key]):
                if w * p > 0.0:
                    nxt.append(({**assignment, node.name: s}, w * p))
        worlds = nxt
    return [FunctionalWorld(a, w) for a, w in worlds]


def count_worlds(diagram: Diagram) -> int:
    """``len(functional_worlds(diagram))`` without listing the worlds:
    elimination over the 0/1 support of each fixed node's table."""
    support = []
    for node in _fixed_in_order(diagram):
        f = family_factor(diagram, node)
        for s in diagram.set_decisions_for(node.name):
            f = f.reduce(s, DO_NOTHING)   # worlds read the plain table
        support.append(Factor(f.scope, f.states, f.values > 0.0))
    return round(eliminate(support, ()).total()) if support else 1


def _fixed_in_order(diagram: Diagram) -> list[Node]:
    """The fixed nodes in topological order; each may have only fixed
    parents."""
    fixed = diagram.fixed_nodes()
    nodes = [diagram.node(x) for x in diagram.topological_order()
             if x in fixed]
    for node in nodes:
        if set(node.table.parent_order) - fixed:
            raise NotHcf(f"fixed node {node.name} has a non-fixed parent")
    return nodes


def value_label_node(node: Node) -> Node:
    """A utility as a deterministic node over its ``f"{v:.12g}"`` value
    labels, sorted by value and merged; any other node as it is."""
    if node.kind != UTILITY:
        return node
    labels = list(dict.fromkeys(
        f"{v:.12g}" for v in sorted(node.utility.rows.values())))
    rows = {k: [float(lab == f"{v:.12g}") for lab in labels]
            for k, v in node.utility.rows.items()}
    return chance_node(node.name, labels, node.utility.parent_order, rows,
                       deterministic=True)


def _fill(d: Diagram, given: dict) -> dict:
    """Extend ``given`` (name -> broadcastable array of state indices)
    to every variable, in topological order, through each node's family
    factor.  Every row a cell reaches must be one-hot within ``TOL``."""
    values = dict(given)
    for x in d.topological_order():
        if x in values:
            continue
        node = value_label_node(d.node(x))
        if node.kind == DECISION:
            raise UnknownVariable(f"missing decision binding for {x}")
        f = family_factor(d, node)
        rows = f.values[tuple(values[p] for p in f.scope[:-1])]
        hits = np.abs(rows - 1.0) <= TOL
        if not np.all(hits.sum(axis=-1) == 1):
            raise NotHcf(f"non-fixed node {x} is not deterministic; "
                         "transform the diagram to Howard Canonical Form first")
        values[x] = hits.argmax(axis=-1)
    return values


def _indices(d: Diagram, cells, shape) -> dict:
    """State indices of the variables bound in ``cells``, as ``shape``."""
    return {x: np.reshape([d.node(x).states.index(c[x]) for c in cells], shape)
            for x in cells[0] if d.has(x)}


def propagate(diagram: Diagram, world: Assignment, decisions: Assignment
              ) -> dict:
    """Deterministically extend a functional world and a decision
    instance to every variable.  Utility nodes get their value's string
    form so they can participate as oracle targets."""
    assignment = {**world, **decisions}
    for x, i in _fill(diagram, _indices(diagram, [assignment], ())).items():
        assignment.setdefault(x, value_label_node(diagram.node(x)).states[i])
    return assignment


class WorldTable:
    """Every functional world propagated under every decision instance.
    ``values[x]`` holds x's state index (a utility's: its value label's)
    as an int array of shape (worlds, decision instances).  The cap is
    checked on ``count_worlds`` before any world is listed."""

    def __init__(self, diagram: Diagram, world_pair_cap: int = WORLD_PAIR_CAP):
        self.diagram = diagram
        self.decision_instances = enumerate_instances(
            parent_variables(diagram, diagram.decisions()))
        n_pairs = count_worlds(diagram) * len(self.decision_instances) ** 2
        if n_pairs > world_pair_cap:
            raise WorldCapExceeded(
                f"{n_pairs} world/decision pairs exceed cap {world_pair_cap}")
        self.worlds = functional_worlds(diagram)
        given = _indices(diagram, [w.assignment for w in self.worlds], (-1, 1))
        given.update(_indices(diagram, self.decision_instances, (1, -1)))
        shape = (len(self.worlds), len(self.decision_instances))
        self.values = {x: np.broadcast_to(v, shape)
                       for x, v in _fill(diagram, given).items()}

    def fixed_given(self, target: str, conditioning) -> bool:
        """In every world, decision instances that agree on the
        conditioning set give the target one value."""
        def same(x):
            return self.values[x][:, :, None] == self.values[x][:, None, :]
        ok = same(target)
        for c in conditioning:
            ok |= ~same(c)
        return bool(ok.all())


def oracle_fixed_set_member(h, target: str, conditioning=frozenset(),
                            world_pair_cap: int = WORLD_PAIR_CAP) -> bool:
    """Definition-level check: in every positive-weight functional world,
    decision choices that agree on the conditioning set give the target
    the same value."""
    diagram = _diagram_of(h)
    _check(diagram, [target], conditioning)
    return WorldTable(diagram, world_pair_cap).fixed_given(target, conditioning)


def oracle_causes(h, target: str, world_pair_cap: int = WORLD_PAIR_CAP,
                  node_budget: int = 20):
    """All minimal cause sets for the target, by world enumeration.

    Empty (with a reason) when the target is already fixed; otherwise
    every inclusion-minimal subset of decisions and uncertain variables
    whose observation pins the target down.
    """
    diagram = _diagram_of(h)
    _check(diagram, [target], ())
    table = WorldTable(diagram, world_pair_cap)
    if table.fixed_given(target, ()):
        return CauseReport(target, (), "oracle",
                           reason=f"{target} is unaffected by the decisions "
                                  "(member of the fixed set)")
    pool = (set(diagram.uncertain()) | set(diagram.decisions())) - {target}
    found = minimal_sets(
        pool, lambda C: table.fixed_given(target, sorted(C)), node_budget)
    return CauseReport(target, tuple(found), "oracle")


def _check(diagram: Diagram, targets, conditioning) -> None:
    for x in targets:
        if diagram.node(x).kind == DECISION:
            raise UnknownVariable(f"{x} is a decision; only chance variables "
                                  "have fixed-set membership")
    for c in conditioning:
        diagram.node(c)


# ---------------------------------------------------------------------------
# D-map oracle


def oracle_is_d_map(d: Diagram, max_cond: int = 2):
    """Check that every numerical conditional independence (up to the
    given conditioning size) is mirrored by d-separation.

    Pairs run over chance variables and over chance-decision pairs; a
    decision pairs as independent when the target's conditional
    distribution is flat across its alternatives.  Returns (verdict,
    counterexample or None).
    """
    chance = d.uncertain()
    decisions = d.decisions()
    dec_instances = enumerate_instances(parent_variables(d, decisions))
    joints = {tuple(sorted(di.items())): joint(d, di) for di in dec_instances}

    for x, y in itertools.combinations(chance, 2):
        others = [v for v in chance if v not in (x, y)]
        for k in range(min(max_cond, len(others)) + 1):
            for Z in itertools.combinations(others, k):
                if all(_ci_chance(joints[tuple(sorted(di.items()))], x, y, Z)
                       for di in dec_instances):
                    if not d_separated(d, {x}, {y}, set(Z) | set(decisions)):
                        return False, {"x": x, "y": y, "given": list(Z)}

    for x in chance:
        for dec in decisions:
            others = [v for v in chance if v != x]
            for k in range(min(max_cond, len(others)) + 1):
                for Z in itertools.combinations(others, k):
                    if _ci_decision(d, joints, dec_instances, x, dec, Z):
                        rest = set(decisions) - {dec}
                        if not d_separated(d, {x}, {dec}, set(Z) | rest):
                            return False, {"x": x, "y": dec, "given": list(Z)}
    return True, None


def _marginal_to(f: Factor, keep) -> Factor:
    for v in f.scope:
        if v not in keep:
            f = f.marginalize(v)
    return f


def _ci_chance(f: Factor, x, y, Z) -> bool:
    """max |P(x,y|z) - P(x|z)P(y|z)| <= tolerance, over z with P(z) > 0."""
    g = _marginal_to(f, {x, y, *Z})
    xi, yi = g.scope.index(x), g.scope.index(y)
    pz = g.values.sum(axis=(xi, yi), keepdims=True)
    px = g.values.sum(axis=yi, keepdims=True)
    py = g.values.sum(axis=xi, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(pz > 0, g.values / pz - (px / pz) * (py / pz), 0.0)
    return bool(np.max(np.abs(dev), initial=0.0) <= TOL)


def _ci_decision(d: Diagram, joints, dec_instances, x, dec, Z) -> bool:
    """x independent of decision dec given Z: for every setting of the
    other decisions and every z, P(x | z) is constant across dec's
    alternatives."""
    groups: dict[tuple, list] = {}
    for di in dec_instances:
        rest = tuple(sorted((k, v) for k, v in di.items() if k != dec))
        f = _marginal_to(joints[tuple(sorted(di.items()))], {x, *Z})
        groups.setdefault(rest, []).append(f)
    for fs in groups.values():
        xi = fs[0].scope.index(x)
        conds = []
        for f in fs:
            pz = f.values.sum(axis=xi, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                conds.append((np.where(pz > 0, f.values / pz, np.nan), pz > 0))
        base, base_ok = conds[0]
        for arr, ok in conds[1:]:
            mask = base_ok & ok
            dev = np.where(mask, base - arr, 0.0)
            if np.max(np.abs(dev), initial=0.0) > TOL:
                return False
    return True
