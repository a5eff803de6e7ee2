"""Influence diagram data model, validation, and state-space utilities.

A diagram is a DAG over chance, deterministic, decision, and utility
nodes.  Relevance arcs point into chance/deterministic/utility nodes and
carry the conditional tables; information arcs point into decisions and
record what is known when the decision is made.  Diagrams are immutable
after construction and safe to share across workers.  Derived indexes
(name lookup, the bit index, set decisions by target, topological
order) are computed once per diagram, on first use; ``_replace`` and
``with_arcs`` build a new diagram, so an index never outlives the arcs
it was read from.

Every record here is a named tuple: immutable, built positionally or by
keyword, copied with a change by ``_replace``, and equal to the plain
tuple of its fields, which it unpacks to.

The bit index is the one graph index.  It gives each name one bit of an
int, node names lowest, and each bit a child and a parent mask: a set
of names is one int, and ``_reach_bits``, an OR of masks per step, is
the one walk along all arcs.  Children, parents, the topological order,
descendants, ancestors and d-separation all read it.

``validate_diagram`` judges a conditional table whole, by builtins over
its keys and rows, and walks it entry by entry only to word a fault.

Set decisions ("do nothing" / "set x to k") are stored structurally: the
target's conditional table ranges only over its ordinary parents, and
``inference.family_factor`` composes the intervention in as an axis.

The Howard Canonical Form (HCF) types and checks are here too, so this
module, like the parser and ``graphs``, needs no numpy.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import NotHcf, UnknownVariable

# One tolerance for every probability comparison: row sums, one-hot
# rows, propagation, arc removability, marginal and independence audits.
TOL = 1e-9

CHANCE = "chance"
DETERMINISTIC = "deterministic"
DECISION = "decision"
UTILITY = "utility"

KINDS = (CHANCE, DETERMINISTIC, DECISION, UTILITY)

DO_NOTHING = "do_nothing"
SET_PREFIX = "set="

# An assignment binds variable names to state labels.
Assignment = dict


class Variable(NamedTuple):
    """A named variable with an ordered, significant state list."""

    name: str
    states: tuple[str, ...]


class ConditionalTable(NamedTuple):
    """P(child | parents): one distribution row per parent instance.

    Row keys are tuples of parent states aligned with ``parent_order``;
    row values are aligned with the child's state order.
    """

    parent_order: tuple[str, ...]
    rows: Mapping[tuple[str, ...], tuple[float, ...]]


class UtilityTable(NamedTuple):
    """Real-valued utility for each instance of the utility node's parents."""

    parent_order: tuple[str, ...]
    rows: Mapping[tuple[str, ...], float]


class Node(NamedTuple):
    variable: Variable
    kind: str
    table: ConditionalTable | None = None
    utility: UtilityTable | None = None
    set_decision_for: str | None = None

    @property
    def name(self) -> str:
        return self.variable.name

    @property
    def states(self) -> tuple[str, ...]:
        return self.variable.states


def chance_node(name, states, parent_order, rows, deterministic=False) -> Node:
    kind = DETERMINISTIC if deterministic else CHANCE
    table = ConditionalTable(tuple(parent_order), _freeze_rows(rows))
    return Node(Variable(name, tuple(states)), kind, table=table)


def decision_node(name, states, set_decision_for=None) -> Node:
    return Node(Variable(name, tuple(states)), DECISION,
                set_decision_for=set_decision_for)


def set_decision_node(name, target_states, target) -> Node:
    """Decision with alternatives "do nothing" plus one "set=" per target state."""
    states = (DO_NOTHING,) + tuple(SET_PREFIX + s for s in target_states)
    return decision_node(name, states, set_decision_for=target)


def utility_node(name, parent_order, rows) -> Node:
    table = UtilityTable(tuple(parent_order),
                         {tuple(k): float(v) for k, v in rows.items()})
    return Node(Variable(name, ()), UTILITY, utility=table)


def _freeze_rows(rows) -> dict:
    return {tuple(k): tuple(float(v) for v in dist) for k, dist in rows.items()}


class _DiagramFields(NamedTuple):
    nodes: tuple[Node, ...]
    relevance_arcs: tuple[tuple[str, str], ...] = ()
    information_arcs: tuple[tuple[str, str], ...] = ()
    decision_order: tuple[str, ...] | None = None
    causal: bool = False
    declared_fixed: frozenset[str] = frozenset()


class Diagram(_DiagramFields):
    """An influence diagram: its ``nodes``, ``relevance_arcs`` and
    ``information_arcs`` (name pairs), the ``decision_order`` (None when
    undeclared), whether it is ``causal``, and the ``declared_fixed``
    chance variables.  A named tuple of these fields; its indexes are
    per instance, each computed on first use, so the diagrams
    ``_replace`` and ``with_arcs`` build start with none."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Diagram is immutable")

    # -- indexes, computed once per diagram -------------------------------

    @cached_property
    def _by_name(self) -> dict[str, Node]:
        # Reversed, so the first of duplicate names wins.
        return {n.name: n for n in reversed(self.nodes)}

    @cached_property
    def _bits(self) -> "BitIndex":
        # Node names first, so "is a node" is ``bit >> nodes == 0``.
        arcs = self.all_arcs()
        bit = dict.fromkeys(itertools.chain(self._by_name, *arcs), 0)
        for i, x in enumerate(bit):
            bit[x] = 1 << i
        children: dict[int, int] = {}
        parents: dict[int, int] = {}
        for a, b in arcs:
            ba, bb = bit[a], bit[b]
            children[ba] = children.get(ba, 0) | bb
            parents[bb] = parents.get(bb, 0) | ba
        return BitIndex(bit, tuple(bit), len(self._by_name), children, parents)

    @cached_property
    def _set_decisions(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for n in self.nodes:
            if n.kind == DECISION and n.set_decision_for is not None:
                out.setdefault(n.set_decision_for, []).append(n.name)
        return out

    @cached_property
    def _topological_order(self) -> tuple[str, ...]:
        # Kahn's algorithm, smallest ready name first; arcs with an
        # unknown endpoint are ignored.
        ix = self._bits
        nodes = (1 << ix.nodes) - 1
        indeg = {x: (ix.parents.get(ix.bit[x], 0) & nodes).bit_count()
                 for x in ix.names[:ix.nodes]}
        ready = [x for x, k in indeg.items() if k == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for c in ix.names_of(ix.children.get(ix.bit[n], 0) & nodes):
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        return tuple(order)

    # -- lookups ---------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return [n.name for n in self.nodes]

    def decisions(self) -> list[str]:
        return [n.name for n in self.nodes if n.kind == DECISION]

    def uncertain(self) -> list[str]:
        """Chance and deterministic node names."""
        return [n.name for n in self.nodes if n.kind in (CHANCE, DETERMINISTIC)]

    def utility(self) -> Node | None:
        return next((n for n in self.nodes if n.kind == UTILITY), None)

    def all_arcs(self) -> list[tuple[str, str]]:
        return list(self.relevance_arcs) + list(self.information_arcs)

    def parents(self, name: str) -> set[str]:
        """Parents over all arcs, the mirror of ``children``."""
        ix = self._bits
        return ix.names_of(ix.parents.get(ix.bit.get(name, 0), 0))

    def info_parents(self, name: str) -> list[str]:
        # Canonical (sorted) order; information arcs are an unordered set.
        return sorted(a for a, b in self.information_arcs if b == name)

    def children(self, name: str) -> set[str]:
        ix = self._bits
        return ix.names_of(ix.children.get(ix.bit.get(name, 0), 0))

    def set_decisions_for(self, target: str) -> list[str]:
        return list(self._set_decisions.get(target, ()))

    # -- graph structure -------------------------------------------------

    def topological_order(self) -> list[str]:
        """Kahn's order with name tie-breaks; shorter than the node list
        when the combined arc graph has a cycle."""
        return list(self._topological_order)

    def descendants(self, sources: Iterable[str],
                    avoid: Iterable[str] = frozenset()) -> set[str]:
        """Strict descendants of ``sources`` following all arcs, along
        paths that enter no node of ``avoid``."""
        ix = self._bits
        return ix.names_of(_reach_bits(ix.children, ix.mask(sources),
                                       ix.mask(avoid)))

    def ancestors(self, sinks: Iterable[str]) -> set[str]:
        """Strict ancestors of ``sinks`` following all arcs backwards."""
        ix = self._bits
        return ix.names_of(_reach_bits(ix.parents, ix.mask(sinks), 0))

    def fixed_nodes(self) -> frozenset[str]:
        """Graphical fixed set: uncertain non-descendants of all decisions,
        plus any user-declared members."""
        desc = self.descendants(self.decisions())
        fixed = {x for x in self.uncertain() if x not in desc}
        return frozenset(fixed | set(self.declared_fixed))

    def with_arcs(self, relevance=None, information=None) -> "Diagram":
        return self._replace(
            relevance_arcs=tuple(relevance) if relevance is not None else self.relevance_arcs,
            information_arcs=tuple(information) if information is not None else self.information_arcs,
        )


class BitIndex(NamedTuple):
    """``bit[x]`` is x's bit, the ``nodes`` node names taking the lowest;
    ``names[i]`` is the name with bit ``1 << i``; ``children[b]`` and
    ``parents[b]`` mask the neighbours of the name with bit b over all
    arcs."""

    bit: dict[str, int]
    names: tuple[str, ...]
    nodes: int
    children: dict[int, int]
    parents: dict[int, int]

    def mask(self, names: Iterable[str]) -> int:
        """The bits of ``names``.  A name without one sets the bit past
        them all, which no arc reaches and no node has."""
        m, past, get = 0, 1 << len(self.bit), self.bit.get
        for x in names:
            m |= get(x, past)
        return m

    def names_of(self, mask: int) -> set[str]:
        out = set()
        while mask:
            low = mask & -mask
            out.add(self.names[low.bit_length() - 1])
            mask ^= low
        return out


def _reach_bits(masks: Mapping[int, int], frontier: int, avoid: int) -> int:
    """The bits reached from ``frontier`` in one or more steps along
    ``masks``, entering no bit of ``avoid``."""
    seen = 0
    while frontier:
        frontier = _union_bits(masks, frontier) & ~(avoid | seen)
        seen |= frontier
    return seen


def _union_bits(masks: Mapping[int, int], m: int) -> int:
    """The OR of ``masks[b]`` over the bits b of ``m``: one step from
    all of them at once."""
    out = 0
    while m:
        low = m & -m
        out |= masks.get(low, 0)
        m ^= low
    return out


def enumerate_instances(variables: Sequence[Variable]) -> list[Assignment]:
    """All joint assignments, lexicographic by variable order then state
    order.  The empty variable list yields one empty assignment."""
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    return [dict(zip(names, combo))
            for combo in itertools.product(*(v.states for v in variables))]


def instance_keys(variables: Sequence[Variable]) -> list[tuple[str, ...]]:
    """Row keys (state tuples) in the same canonical order as
    :func:`enumerate_instances`."""
    return list(itertools.product(*(v.states for v in variables)))


def parent_variables(d: Diagram, parent_order: Sequence[str]) -> list[Variable]:
    return [d.node(p).variable for p in parent_order]


# ---------------------------------------------------------------------------
# Validation


def validate_diagram(d: Diagram) -> list[str]:
    """Return every violated structural invariant; empty means valid."""
    report: list[str] = []
    names = [n.name for n in d.nodes]
    for x in sorted(x for x, k in Counter(names).items() if k > 1):
        report.append(f"duplicate variable {x!r}")

    for n in d.nodes:
        if n.kind not in KINDS:
            report.append(f"{n.name}: unknown kind {n.kind!r}")
            continue
        if not n.name:
            report.append("empty variable name")
        if n.kind != UTILITY:
            if len(n.states) < 2:
                report.append(f"{n.name}: needs at least 2 states")
            if len(set(n.states)) != len(n.states):
                report.append(f"{n.name}: duplicate state labels")
            for s in n.states:
                # "" is the file format's key for the empty instance.
                if not s:
                    report.append(f"{n.name}: empty state label")
                if "|" in s:
                    report.append(f"{n.name}: state {s!r} contains reserved '|'")

    if sum(n.kind == UTILITY for n in d.nodes) > 1:
        report.append("more than one utility node")

    # Arc sanity.
    for a, b in d.relevance_arcs:
        if not (d.has(a) and d.has(b)):
            report.append(f"relevance arc {a}->{b}: unknown endpoint")
        elif d.node(b).kind == DECISION:
            report.append(f"relevance arc {a}->{b}: arcs into decisions must be information arcs")
    for a, b in d.information_arcs:
        if not (d.has(a) and d.has(b)):
            report.append(f"information arc {a}->{b}: unknown endpoint")
        elif d.node(b).kind != DECISION:
            report.append(f"information arc {a}->{b}: target is not a decision")
        elif d.node(a).kind == UTILITY:
            report.append(f"information arc {a}->{b}: source is a utility")
    if len(d.topological_order()) != len(set(names)):
        report.append("cycle in combined arc graph")

    if report:
        # Table checks below assume a structurally coherent graph.
        return report

    for n in d.nodes:
        rel_parents = d.parents(n.name)
        setdecs = rel_parents.intersection(d._set_decisions.get(n.name, ()))
        if n.kind in (CHANCE, DETERMINISTIC):
            if n.table is None:
                report.append(f"{n.name}: missing conditional table")
                continue
            expected = rel_parents - setdecs
            order = n.table.parent_order
            # Sets, with the length so that a repeated parent differs.
            if len(order) != len(expected) or set(order) != expected:
                report.append(
                    f"{n.name}: table parents {sorted(order)} "
                    f"!= relevance parents {sorted(expected)}")
                continue
            report.extend(_check_table(d, n))
        elif n.kind == DECISION:
            if n.table is not None or n.utility is not None:
                report.append(f"{n.name}: decision nodes carry no tables")
            if n.set_decision_for is not None:
                report.extend(_check_set_decision(d, n, n.set_decision_for))
        elif n.kind == UTILITY:
            if n.utility is None:
                report.append(f"{n.name}: missing utility values")
                continue
            order = n.utility.parent_order
            if len(order) != len(rel_parents) or set(order) != rel_parents:
                report.append(
                    f"{n.name}: utility parents {sorted(order)} "
                    f"!= relevance parents {sorted(rel_parents)}")
                continue
            report += row_coverage(n.name, "utility", instance_keys(
                parent_variables(d, n.utility.parent_order)), n.utility.rows)
            report += [f"{n.name}: non-finite utility at {k}" for k, v in
                       n.utility.rows.items() if not math.isfinite(v)]

    for x in d.uncertain():
        if len(setdecs := d._set_decisions.get(x, ())) > 1:
            report.append(f"{x}: more than one set decision ({sorted(setdecs)})")

    if d.decision_order is not None:
        order = list(d.decision_order)
        if sorted(order) != sorted(d.decisions()):
            report.append("decision_order is not a permutation of the decision nodes")
        for i, dec in enumerate(order):
            upstream = d.ancestors([dec])
            ancestors = [a for a in order[i + 1:] if a in upstream]
            if ancestors:
                report.append(f"decision_order lists {dec} before {ancestors[0]}, "
                              f"but {dec} descends from {ancestors[0]}")
    for x in sorted(d.declared_fixed):
        if not d.has(x):
            report.append(f"declared_fixed names unknown variable {x!r}")
        elif d.node(x).kind not in (CHANCE, DETERMINISTIC):
            report.append(f"declared_fixed names {x}, which is not a chance "
                          "variable")

    return report


def row_coverage(owner: str, what: str, keys, rows) -> list[str]:
    """The ``keys`` that ``rows`` lacks, then its rows for no key, sorted."""
    keys, got = set(keys), set(rows)
    return ([f"{owner}: missing {what} row {k}" for k in sorted(keys - got)]
            + [f"{owner}: unexpected {what} row {k}"
               for k in sorted(got - keys)])


def _check_table(d: Diagram, n: Node) -> list[str]:
    keys = set(instance_keys(parent_variables(d, n.table.parent_order)))
    rows, r = n.table.rows, len(n.states)
    # A finite sum within TOL rules out NaN and +-inf, so min and max bound
    # every entry; an exactly one-hot row is one-hot within TOL.
    if keys == rows.keys() and all(
            len(p) == r and abs(sum(p) - 1.0) <= TOL and min(p) >= 0.0
            and max(p) <= 1.0 and (n.kind != DETERMINISTIC or (
                p.count(1.0) == 1 and p.count(0.0) == r - 1))
            for p in rows.values()):
        return []
    report = row_coverage(n.name, "CPT", keys, rows)
    for k in sorted(keys.intersection(rows)):
        dist = rows[k]
        if len(dist) != r:
            report.append(f"{n.name}: row {k} has {len(dist)} entries, "
                          f"expected {r}")
            continue
        if not all(0 <= p <= 1 for p in dist):
            report.append(f"{n.name}: row {k} has entries outside [0, 1]")
        if abs(sum(dist) - 1.0) > TOL:
            report.append(f"{n.name}: row sum {sum(dist)!r} != 1 at row {k}")
        if n.kind == DETERMINISTIC:
            ones = sum(1 for p in dist if abs(p - 1.0) <= TOL)
            zeros = sum(1 for p in dist if abs(p) <= TOL)
            if ones != 1 or zeros != len(dist) - 1:
                report.append(f"{n.name}: row {k} of deterministic node is not one-hot")
    return report


def _check_set_decision(d: Diagram, n: Node, target: str) -> list[str]:
    """Why decision ``n`` is no set decision for ``target``: one "do
    nothing" alternative plus one "set=" per state of the chance node
    ``target``, its only child."""
    if not d.has(target):
        return [f"{n.name}: set decision targets unknown variable {target!r}"]
    tnode = d.node(target)
    if tnode.kind not in (CHANCE, DETERMINISTIC):
        return [f"{n.name}: set decision target {target} is not a chance node"]
    report = []
    expected = {DO_NOTHING} | {SET_PREFIX + s for s in tnode.states}
    if set(n.states) != expected:
        report.append(f"{n.name}: set decision alternatives {sorted(n.states)} "
                      f"!= {sorted(expected)}")
    if d.children(n.name) != {target}:
        report.append(f"{n.name}: set decision must have {target} as its only child")
    return report


# ---------------------------------------------------------------------------
# Howard Canonical Form


# A mechanism state is a tuple of target states, one per Y-instance,
# aligned with the lexicographic Y-instance order.
StateMapping = tuple


class MechanismSpec(NamedTuple):
    target: str
    domain: tuple[str, ...]            # non-fixed parents Y, in table order
    fixed_parents: tuple[str, ...]     # parents Z that stay upstream
    states: tuple[StateMapping, ...]
    prior: ConditionalTable

    @property
    def name(self) -> str:
        return mechanism_name(self.target, self.domain)


class HcfDiagram(NamedTuple):
    """A diagram in canonical form and its mechanisms.  It reads as its
    diagram: any attribute it lacks is the diagram's, so every function
    that reads a diagram takes it."""

    diagram: Diagram
    mechanisms: tuple[MechanismSpec, ...] = ()

    def __getattr__(self, name):
        return getattr(self.diagram, name)


def mechanism_name(target: str, domain) -> str:
    return f"{target}({','.join(domain)})"


def mechanism_state_label(mapping: StateMapping) -> str:
    return ",".join(mapping)


def _mechanism_violations(spec: MechanismSpec, nodes, mech=None
                          ) -> list[str]:
    """Why ``spec`` is no mechanism over ``nodes`` (name -> Node), in the
    order checked; an unknown name is the only one reported.  A ``mech``
    given is the name its source and domain must give, and names it in
    the messages.  Its prior must be its node's table, if built."""
    at = f"mechanism {mech or spec.name}"
    for role, names in (("source", [spec.target]), ("domain variable",
                        spec.domain), ("fixed parent", spec.fixed_parents)):
        if unknown := [v for v in names if v not in nodes]:
            return [f"{at}: unknown {role} {unknown[0]!r}"]
    target, n = dict.fromkeys(nodes[spec.target].states), len(spec.states)
    r, q = len(target), math.prod(len(nodes[v].states) for v in spec.domain)
    # A long domain's r ** q would not fit in memory; no list is that long.
    count = r ** q if q < 64 or r < 2 else f"{r}^{q}"
    report = [f"{at}: {n} mappings for {count} states"] if n != count else []
    for k, m in enumerate(spec.states):
        if len(m) != q:
            report.append(f"{at}: mapping {k} has {len(m)} entries, not one "
                          f"per domain instance ({q})")
        report += [f"{at}: mapping {k} names {s!r}, not a state of "
                   f"{spec.target}" for s in m if s not in target]
    node = nodes.get(mech or spec.name)
    if node is not None and not report:     # its k-th state labels mapping k
        labels = zip(map(mechanism_state_label, spec.states), node.states)
        report = [f"{at}: mapping {k} is {a!r}, but state {k} of the node is "
                  f"{b!r}" for k, (a, b) in enumerate(labels) if a != b]
        if len(node.states) != n:
            report = [f"{at}: {n} mappings, but the node has "
                      f"{len(node.states)} states"]
    if spec.prior.parent_order != spec.fixed_parents:
        report.append(f"{at}: prior is keyed by {list(spec.prior.parent_order)}"
                      f", not the fixed parents {list(spec.fixed_parents)}")
    elif mech not in (None, spec.name):
        report.append(f"{at}: its source and domain give the name {spec.name}")
    if node is not None and spec.prior != node.table:
        report.append(f"{at}: prior is not the table of its node")
    return report


def _shape_violations(h) -> list[str]:
    """Why ``h`` is not in canonical form: an HcfDiagram is not annotated
    causal (a bare diagram is judged by its shape alone); a fixed node
    has a non-fixed table parent; a decision descendant is not
    deterministic; a mechanism is a decision descendant."""
    mechanisms = h.mechanisms if isinstance(h, HcfDiagram) else None
    report = (["HCF diagram must be annotated causal"]
              if mechanisms is not None and not h.causal else [])
    fixed, desc = h.fixed_nodes(), h.descendants(h.decisions())
    for n in h.nodes:
        if n.name in fixed and n.table is not None and (
                set(n.table.parent_order) - fixed):
            report.append(f"fixed node {n.name} has a non-fixed parent")
        if n.name in desc and n.kind == CHANCE:
            report.append(f"decision descendant {n.name} is not deterministic")
    return report + [f"mechanism {m.name} is a decision descendant"
                     for m in mechanisms or () if m.name in desc]


def _require_hcf(h) -> None:
    """Raise ``_shape_violations``' first fault as ``NotHcf``."""
    if errors := _shape_violations(h):
        raise NotHcf(errors[0])


def validate_hcf(h: HcfDiagram) -> list[str]:
    """HCF invariants, on top of ordinary diagram validity: the
    canonical-form shape, then each mechanism's own violations."""
    nodes = h.diagram._by_name
    return validate_diagram(h.diagram) + _shape_violations(h) + [
        v for m in h.mechanisms for v in _mechanism_violations(m, nodes)]
