"""Exact inference and the semantic fixed-set / cause oracles.

One core serves every query: ``table_factor`` reads a node's table, over
its table parents, as one ``Factor``, the table reader of the audits in
``mechanisms``; ``family_factor`` builds on that read, adding an axis
per set decision.  ``eliminate`` sums variables out of a factor product
for ``posterior``, ``joint``, ``oracle_is_d_map``, the HCF audit in
``mechanisms``, and expected utility and policy search in ``decisions``;
it sizes every ``np.einsum`` contraction that ``_plan`` lists before it
runs the first.  ``_requisite_factors`` lists its operands: the
variables asked about and their ancestors, barren nodes left out, and
for each decision asked about and left unbound, chosen and never drawn,
a ones factor.  The oracles' ``propagate`` and ``WorldTable`` carry
worlds forward by reading each deterministic node's factor once, as a
lookup from its rows to the state each picks, and indexing that lookup.

The oracles realize fixed-set membership literally: every functional
world of positive weight (joint instance of the fixed nodes, mechanisms
included) is propagated under every decision instance, and the target
may not vary across decision choices that agree on the conditioning set.
Worlds are listed as state-index arrays; each variable's differences
between decision instances are kept as one bitset per table, and its
values are broadcast to the full (worlds, decision instances) shape
only when read.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (FactorCapExceeded, UnknownVariable, WorldCapExceeded,
                     ZeroProbabilityEvidence)
from .graphs import CauseReport, _check_target, d_separated, minimal_sets
from .model import (CHANCE, DECISION, DETERMINISTIC, DO_NOTHING, SET_PREFIX,
                    TOL, UTILITY, Assignment, Diagram, Node, _diagram_of,
                    _require_hcf, chance_node, enumerate_instances,
                    parent_variables)

WORLD_PAIR_CAP = 10 ** 7
FACTOR_CELL_CAP = 10 ** 7
FUSED_CELLS = 1 << 16      # a speed threshold of ``eliminate``, not a cap


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


def table_factor(d: Diagram, node: Node) -> Factor:
    """The node's own table as one factor over its table parents and
    the node itself.  A utility factor holds the utility values and has
    no axis of its own."""
    table = node.utility if node.kind == UTILITY else node.table
    scope = list(table.parent_order)
    states = [d.node(p).states for p in scope]
    values = np.array([table.rows[key] for key in itertools.product(*states)])
    values = values.reshape([len(s) for s in states] + list(values.shape[1:]))
    if node.kind != UTILITY:
        scope.append(node.name)
        states.append(node.states)
    return Factor(scope, states, values)


def family_factor(d: Diagram, node: Node) -> Factor:
    """``table_factor`` with an axis per set decision on the node, after
    the table parents: "do nothing" keeps the table, "set x to k" is
    one-hot.  A node with no set decision gets ``table_factor`` itself."""
    f = table_factor(d, node)
    setters = d.set_decisions_for(node.name)
    if not setters:
        return f
    scope, states, values = list(f.scope), list(f.states), f.values
    k = len(scope) - (node.kind != UTILITY)
    # Inserted last-first, so the first set decision that sets x wins.
    for s in reversed(setters):
        alts = d.node(s).states
        values = np.stack(
            [values if a == DO_NOTHING else np.broadcast_to(
                np.array(node.states) == a[len(SET_PREFIX):], values.shape)
             for a in alts], axis=k)
        scope.insert(k, s)
        states.insert(k, alts)
    return Factor(scope, states, values)


# ---------------------------------------------------------------------------
# The full joint


def joint(d: Diagram, decisions: Assignment) -> Factor:
    """Joint factor over all uncertain variables given a full decision
    instance: the product of the family factors reduced at it.  ``d``
    may be an ``HcfDiagram``."""
    d = _diagram_of(d)
    _require_full_decisions(d, decisions)
    factors = _requisite_factors(d, decisions, d.uncertain())
    return eliminate(list(factors.values()), d.uncertain())


def _requisite_factors(d: Diagram, bound: Assignment, names) -> dict:
    """The family factors, keyed in node order, of the variables among
    ``names`` and their ancestors (a utility's over its value labels),
    each reduced at ``bound``; a decision among ``names`` that ``bound``
    leaves free is chosen, never drawn: its factor is ones.  Any other
    uncertain variable is barren: its descendants are too and its rows
    sum to 1, so summing it out multiplies by 1."""
    names = set(names)
    need = names | d.ancestors(names)
    factors = {}
    for n in d.nodes:
        if n.kind != DECISION and n.name in need:
            f = family_factor(d, value_label_node(n))
            for v in f.scope:
                if v in bound:
                    f = f.reduce(v, bound[v])
            factors[n.name] = f
        elif n.name in names and n.name not in bound:
            factors[n.name] = Factor([n.name], [n.states],
                                     np.ones(len(n.states)))
    return factors


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
    family factors, reduced at the decisions and the evidence alike.
    ``d`` may be an ``HcfDiagram``."""
    d = _diagram_of(d)
    _require_full_decisions(d, decisions)
    query = list(query)
    _check_query(d.node, evidence, query)
    factors = _requisite_factors(d, {**decisions, **evidence},
                                 query + list(evidence))
    return _conditional(list(factors.values()), query, evidence, decisions)


def _check_query(node, evidence: Assignment, query: list) -> None:
    """The evidence and the query name uncertain variables, as ``node``
    reads them, the evidence a state of each, the query each one once."""
    for x in list(evidence) + query:
        if node(x).kind not in (CHANCE, DETERMINISTIC):
            raise UnknownVariable(f"{x} is not an uncertain variable")
    for v, s in evidence.items():
        if s not in node(v).states:
            raise UnknownVariable(f"{s!r} is not a state of {v}")
    for x in query:
        if query.count(x) > 1:
            raise ValueError(f"query names {x} more than once")


def _conditional(factors, query: list, evidence: Assignment,
                 decisions: Assignment) -> Factor:
    """P(query | evidence, decisions) from ``factors``, already reduced
    at the decisions and the evidence."""
    if set(query) & set(evidence):
        raise ValueError("query and evidence overlap")
    result = eliminate(factors, query)
    if result.total() <= 0.0:
        raise ZeroProbabilityEvidence(
            f"evidence {evidence} has zero probability under {decisions}")
    return result.normalize()


def eliminate(factors, keep) -> Factor:
    """Sum every variable outside ``keep`` out of the product of the
    factors: size each contraction of the ``_plan`` against
    ``FACTOR_CELL_CAP``, then ``_contract`` them in order.  The result's
    scope is ``keep``; with no factors it is the unit factor."""
    if not factors:
        return Factor((), (), 1.0)
    states = {v: s for f in factors for v, s in zip(f.scope, f.states)}
    plan = _plan([f.scope for f in factors], states, keep)
    for var, _, scope in plan:
        cells = math.prod(len(states[v]) for v in scope)
        if cells > FACTOR_CELL_CAP:
            step = "the result" if var is None else f"eliminating {var}"
            raise FactorCapExceeded(f"{cells} factor cells for {step} "
                                    f"exceed cap {FACTOR_CELL_CAP}")
    live = dict(enumerate(factors))
    for k, (_, operands, scope) in enumerate(plan, len(live)):
        live[k] = _contract([live.pop(i) for i in operands], scope, states)
    return live[k]


def _plan(scopes, states, keep) -> list[tuple]:
    """The contractions that sum every variable outside ``keep`` out of
    factors over ``scopes`` (``states``: each variable's states), in
    order: (variable summed out, None for the result; operand positions,
    counting the factors, then the products made before; output scope).
    A product of at most ``FUSED_CELLS`` cells times the factor count,
    over at most 63 factors, is one contraction; any other takes one per
    variable in greedy min-fill order on the live scopes, name
    tie-break.  Past 63 operands, ``np.einsum``'s limit, the first 62
    fold into a product over what the rest or the output still read."""
    n = len(scopes)
    if n <= 63 and math.prod(map(len, states.values())) * n <= FUSED_CELLS:
        return [(None, tuple(range(n)), tuple(keep))]
    scopes, live, plan = list(scopes), list(range(n)), []

    def add(var, operands, out):
        while len(operands) > 63:
            later = {v for i in operands[62:] for v in scopes[i]}.union(out)
            fold = dict.fromkeys(v for i in operands[:62] for v in scopes[i]
                                 if v in later)
            operands = [add(var, operands[:62], tuple(fold)), *operands[62:]]
        plan.append((var, tuple(operands), out))
        scopes.append(out)
        return len(scopes) - 1

    todo = set(states).difference(keep)
    while todo:
        graph = {v: set().union(*(scopes[i] for i in live if v in scopes[i]))
                 for v in states}
        var = min(todo, key=lambda v: (sum(
            b not in graph[a]
            for a, b in itertools.combinations(graph[v] - {v}, 2)), v))
        todo.remove(var)
        related = [i for i in live if var in scopes[i]]
        live = [i for i in live if var not in scopes[i]]
        live.append(add(var, related, tuple(dict.fromkeys(
            v for i in related for v in scopes[i] if v != var))))
    add(None, live, tuple(keep))
    return plan


def _contract(factors, keep, states) -> Factor:
    """The product of at most 63 ``factors`` summed to the scope ``keep``
    (``states`` maps each variable to its states): one ``np.einsum``."""
    ids = {}
    args = [a for f in factors for a in (
        f.values, [ids.setdefault(v, len(ids)) for v in f.scope])]
    return Factor(keep, [states[v] for v in keep],
                  np.einsum(*args, [ids[v] for v in keep]))


# ---------------------------------------------------------------------------
# Functional worlds and the semantic oracles


class FunctionalWorld(NamedTuple):
    assignment: dict
    weight: float


def functional_worlds(diagram: Diagram) -> list[FunctionalWorld]:
    """Joint instances of the fixed nodes with their prior weights;
    zero-weight worlds are dropped.  More worlds than ``WORLD_PAIR_CAP``
    raise before any is listed.  ``diagram`` may be an ``HcfDiagram``."""
    diagram = _diagram_of(diagram)
    return _as_worlds(diagram, *_listed_worlds(diagram, 1, WORLD_PAIR_CAP,
                                               "worlds"))


def _listed_worlds(diagram: Diagram, per_world: int, cap: int, noun: str
                   ) -> tuple[dict, np.ndarray]:
    """The ``_world_arrays`` of the ``_fixed_tables``, once their worlds
    times ``per_world``, counted as ``noun``, are within ``cap``: else
    ``WorldCapExceeded`` before any world is listed.  The worlds are
    counted only when a bound, each table's widest support row per
    world, exceeds the cap."""
    tables = _fixed_tables(diagram)
    n = per_world * math.prod(
        int((f.values > 0.0).sum(-1).max()) for f in tables)
    if n > cap:
        try:
            n = _world_count(tables) * per_world
        except FactorCapExceeded as e:
            raise WorldCapExceeded(
                f"a bound of {n} {noun} exceeds cap {cap}, and counting "
                f"them: {e}") from None
    if n > cap:
        raise WorldCapExceeded(f"{n} {noun} exceed cap {cap}")
    return _world_arrays(tables)


def _world_arrays(tables) -> tuple[dict, np.ndarray]:
    """The positive-weight worlds of the ``_fixed_tables`` as name ->
    state-index array, and their weights, in the order of
    ``functional_worlds``."""
    index, weight = {}, np.ones(1)
    for f in tables:
        p = f.values[tuple(index[v] for v in f.scope[:-1])] * weight[:, None]
        w, s = np.nonzero(p > 0.0)
        index = {v: a[w] for v, a in index.items()} | {f.scope[-1]: s}
        weight = p[w, s]
    return index, weight


def _as_worlds(diagram: Diagram, index: dict, weight) -> list[FunctionalWorld]:
    states = {x: [diagram.node(x).states[i] for i in a.tolist()]
              for x, a in index.items()}
    return [FunctionalWorld({x: s[k] for x, s in states.items()}, w)
            for k, w in enumerate(weight.tolist())]


def count_worlds(diagram: Diagram) -> int:
    """``len(functional_worlds(diagram))``, uncapped and listing no world."""
    return _world_count(_fixed_tables(_diagram_of(diagram)))


def _world_count(tables) -> int:
    """The number of worlds of the ``_fixed_tables``: elimination over
    the 0/1 support of each table."""
    support = [Factor(f.scope, f.states, f.values > 0.0) for f in tables]
    return round(eliminate(support, ()).total()) if support else 1


def _fixed_tables(diagram: Diagram) -> list[Factor]:
    """Each fixed chance node's ``table_factor``, in topological order,
    once the diagram is in canonical form."""
    _require_hcf(diagram)
    fixed = diagram.fixed_nodes().intersection(diagram.uncertain())
    return [table_factor(diagram, diagram.node(x))
            for x in diagram.topological_order() if x in fixed]


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
    to every variable, in topological order: a deterministic node takes
    the state its row puts within ``TOL`` of 1; any other must be given.
    Each table is read once, as a lookup from its rows to that state,
    which is then indexed at the parents' arrays."""
    values = dict(given)
    for x in d.topological_order():
        if x in values:
            continue
        node = value_label_node(d.node(x))
        if node.kind != DETERMINISTIC:
            raise UnknownVariable(f"missing world binding for {x}")
        f = family_factor(d, node)
        lookup = (np.abs(f.values - 1.0) <= TOL).argmax(axis=-1)
        values[x] = lookup[tuple(values[p] for p in f.scope[:-1])]
    return values


def propagate(diagram: Diagram, world: Assignment, decisions: Assignment
              ) -> dict:
    """Deterministically extend a world of fixed variables and a decision
    instance to every variable of ``diagram``, or of an ``HcfDiagram``'s.
    Utility nodes get their value's string form, to be oracle targets."""
    diagram = _diagram_of(diagram)
    _require_hcf(diagram)
    _require_full_decisions(diagram, decisions)
    _check_query(diagram.node, world, [])
    if unfixed := sorted(set(world) - diagram.fixed_nodes()):
        raise UnknownVariable(f"{unfixed[0]} is not a fixed variable")
    assignment = {**world, **decisions}
    given = {x: diagram.node(x).states.index(s) for x, s in assignment.items()}
    for x, i in _fill(diagram, given).items():
        assignment.setdefault(x, value_label_node(diagram.node(x)).states[i])
    return assignment


class WorldTable:
    """Every functional world propagated under every decision instance.
    ``values[x]`` holds x's state index (a utility's: its value label's)
    as an int array of shape (worlds, decision instances).  The cap,
    ``world_pair_cap`` if given, else ``WORLD_PAIR_CAP``, is checked
    before any world is listed.  ``diagram`` may be an ``HcfDiagram``.
    x's difference bitset has a bit per world and pair i < j of decision
    instances, set where x differs; it is 0 without packing when x has
    no decision axis.  ``values`` and ``worlds`` are built when read."""

    def __init__(self, diagram: Diagram, world_pair_cap: int | None = None):
        cap = WORLD_PAIR_CAP if world_pair_cap is None else world_pair_cap
        self.diagram = diagram = _diagram_of(diagram)
        decisions = parent_variables(diagram, diagram.decisions())
        self.decision_instances = enumerate_instances(decisions)
        n = len(self.decision_instances)
        self._index, self._weight = _listed_worlds(
            diagram, n ** 2, cap, "world/decision pairs")
        given = {x: a[:, None] for x, a in self._index.items()}
        # ``np.indices`` lists the decision instances in the same order.
        grid = np.indices([len(v.states) for v in decisions])
        given.update(zip(diagram.decisions(), grid.reshape(-1, 1, n)))
        self._filled = _fill(diagram, given)
        # The pairs i < j in row order, as ``itertools.combinations``
        # lists them; ``np.triu_indices`` costs several times as much.
        r = np.arange(n)
        i, j = np.nonzero(r[:, None] < r)
        shape = (len(self._weight), len(i))
        self._differs = {
            x: int.from_bytes(np.packbits(np.broadcast_to(
                v[:, i] != v[:, j], shape)), "big")
            if v.ndim and v.shape[1] > 1 else 0
            for x, v in self._filled.items()}

    @functools.cached_property
    def values(self) -> dict:
        shape = (len(self._weight), len(self.decision_instances))
        return {x: np.broadcast_to(v, shape) for x, v in self._filled.items()}

    @functools.cached_property
    def worlds(self) -> list[FunctionalWorld]:
        return _as_worlds(self.diagram, self._index, self._weight)

    def fixed_given(self, target: str, conditioning) -> bool:
        """In every world, decision instances that agree on the
        conditioning set give the target one value: no bit of the
        target's difference bitset is outside every conditioning one."""
        t = self._differs[target]
        for c in conditioning:
            t &= ~self._differs[c]
        return not t


def oracle_fixed_set_member(h, target: str, conditioning=frozenset()) -> bool:
    """Definition-level check: in every positive-weight functional world,
    decision choices that agree on the conditioning set give the target
    the same value."""
    diagram = _diagram_of(h)
    _check_target(diagram, target, conditioning)
    return WorldTable(diagram).fixed_given(target, conditioning)


def oracle_causes(h, target: str, world_pair_cap: int | None = None):
    """All minimal cause sets for the target, by world enumeration.

    Empty (with a reason) when the target is already fixed; otherwise
    every inclusion-minimal subset of decisions and uncertain variables
    whose observation pins the target down.  Only decisions and their
    descendants are tried: any other node takes one value per world, so
    observing it never tells two decision choices apart.  The graph
    decides this, not ``declared_fixed``; ``graphs.MINIMAL_SET_NODE_BUDGET``
    counts these nodes.  A ``world_pair_cap`` given replaces
    ``WORLD_PAIR_CAP``.
    """
    diagram = _diagram_of(h)
    _check_target(diagram, target)
    table = WorldTable(diagram, world_pair_cap)
    if table.fixed_given(target, ()):
        return CauseReport(target, (), "oracle",
                           reason=f"{target} is unaffected by the decisions "
                                  "(member of the fixed set)")
    D = set(diagram.decisions())
    pool = D | (diagram.descendants(D) & set(diagram.uncertain()) - {target})
    found = minimal_sets(pool,
                         lambda C: table.fixed_given(target, sorted(C)))
    return CauseReport(target, tuple(found), "oracle")


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
    if max_cond < 0:
        raise ValueError(f"max_cond must be non-negative, got {max_cond}")
    chance, decisions = d.uncertain(), d.decisions()
    factors = _requisite_factors(d, {}, chance + decisions)
    p = eliminate(list(factors.values()), chance + decisions).values
    largest = min(max_cond + 2, len(chance))

    @functools.cache
    def marginal(names: frozenset):
        """P(names | decisions) and its chance scope, in ``chance``
        order; one axis per decision follows.  A set smaller than the
        scan's largest is summed from a cached superset."""
        scope = [v for v in chance if v in names]
        if len(scope) < largest:
            extra = next(v for v in chance if v not in names)
            g, sup = marginal(names | {extra})
            return g.sum(axis=sup.index(extra)), scope
        drop = tuple(i for i, v in enumerate(chance) if v not in names)
        return p.sum(axis=drop), scope

    for x, y in itertools.chain(itertools.combinations(chance, 2),
                                itertools.product(chance, decisions)):
        others = [v for v in chance if v not in (x, y)]
        for k in range(min(max_cond, len(others)) + 1):
            for Z in itertools.combinations(others, k):
                g, scope = marginal(frozenset((x, y, *Z)).intersection(chance))
                if y in decisions:
                    independent = _ci_decision(
                        g, scope.index(x), len(scope) + decisions.index(y))
                else:
                    independent = _ci_chance(g, scope.index(x), scope.index(y))
                if independent and not d_separated(
                        d, {x}, {y}, set(Z) | set(decisions) - {y}):
                    return False, {"x": x, "y": y, "given": list(Z)}
    return True, None


def _ci_chance(g: np.ndarray, xi: int, yi: int) -> bool:
    """max |P(x,y|z) - P(x|z)P(y|z)| <= tolerance, over z with P(z) > 0
    and over every decision instance."""
    pz = g.sum(axis=(xi, yi), keepdims=True)
    px = g.sum(axis=yi, keepdims=True)
    py = g.sum(axis=xi, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(pz > 0, g / pz - (px / pz) * (py / pz), 0.0)
    return bool(np.max(np.abs(dev), initial=0.0) <= TOL)


def _ci_decision(g: np.ndarray, xi: int, di: int) -> bool:
    """x independent of the decision on axis ``di`` given z: for every
    setting of the other decisions and every z, P(x | z) is constant
    across the decision's alternatives under which z has positive
    probability."""
    pz = g.sum(axis=xi, keepdims=True)
    ok = pz > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = g / pz
    hi = np.max(cond, axis=di, where=ok, initial=-np.inf)
    lo = np.min(cond, axis=di, where=ok, initial=np.inf)
    return bool(np.max(hi - lo, initial=0.0) <= TOL)
