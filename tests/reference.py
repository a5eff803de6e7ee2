"""Reference joint by direct enumeration, independent of elimination.

``enumerate_joint`` fills the joint over the uncertain variables cell by
cell, as a product of conditional-table rows, with each "set x to k"
decision composed in at the cell.  The suites hold ``joint``,
``posterior``, expected utility and the world table against it.

``enumerate_worlds`` lists the functional worlds one fixed node at a
time, a dict per world, reading each node's plain table row; the suites
hold the index-array listing of ``functional_worlds`` against it.
``propagate`` carries a world forward under a decision instance, a row
dict at a time; with ``enumerate_worlds`` it answers counterfactuals
without reading a factor, for the suites to hold ``counterfactual``
and the world table against.

``barren`` names the uncertain variables that have no directed path to
a set of names, by a walk down from each, so the suites can check that
their corpora exercise the pruning of such variables.

``multiply`` and ``marginalize`` are factor algebra one step at a time:
the product by broadcasting, and one variable summed out.  The suites
hold elimination's one-contraction steps against them.

``removable_arcs`` and ``product_prior`` walk a node's row dicts key by
key, the arc test and the mechanism prior as the definitions state them;
the suites hold the factor-indexing versions against them.

``reach`` is reachability over name sets, a walk from each source that
enters no node of ``avoid``; the suites hold the bit-mask walk behind
``Diagram.descendants`` and ``Diagram.ancestors`` against it.

``neighbours``, ``kahn_order`` and ``d_separated`` read a list of arcs
one arc at a time: per-name parent and child sets, Kahn's order over an
arc list, and the Koller & Friedman active-trail walk over (name,
direction) pairs.  The suites hold ``Diagram.parents``,
``Diagram.children``, ``Diagram.topological_order`` and
``graphs.d_separated``, which read the bit index, against them.

``enumerate_policies`` lists every policy in canonical order from the
decision order, the information parents and their instances alone, one
``Policy`` at a time, with no cap; ``choose`` reads a policy's rule at
an assignment.  The suites hold the block search of ``optimal_policy``
and ``value_of_information`` against them.
"""

import heapq
import itertools
import math

import numpy as np

from decid import ConditionalTable, Factor, FunctionalWorld, Policy
from decid.model import (CHANCE, DECISION, DETERMINISTIC, DO_NOTHING,
                         SET_PREFIX, TOL, UTILITY, instance_keys,
                         parent_variables)


def local_distribution(d, node, assignment):
    """P(node | parent values in ``assignment``), with any "set x to k"
    intervention composed in."""
    for s in d.set_decisions_for(node.name):
        alt = assignment[s]
        if alt != DO_NOTHING:
            forced = alt[len(SET_PREFIX):]
            return tuple(1.0 if x == forced else 0.0 for x in node.states)
    return node.table.rows[tuple(assignment[p] for p in node.table.parent_order)]


def enumerate_joint(d, decisions):
    """Joint factor over all uncertain variables given a full decision
    instance, one cell at a time."""
    names = d.uncertain()
    nodes = [d.node(x) for x in names]
    states = [n.states for n in nodes]
    values = np.empty([len(s) for s in states])
    for combo in itertools.product(*(range(len(s)) for s in states)):
        assignment = dict(decisions)
        for n, i in zip(nodes, combo):
            assignment[n.name] = n.states[i]
        values[combo] = math.prod(local_distribution(d, n, assignment)[i]
                                  for n, i in zip(nodes, combo))
    return Factor(names, states, values)


def enumerate_worlds(d):
    """Joint instances of the fixed nodes, in topological order, with
    their prior weights; zero-weight worlds are dropped."""
    fixed = d.fixed_nodes()
    worlds = [({}, 1.0)]
    for node in [d.node(x) for x in d.topological_order() if x in fixed]:
        nxt = []
        for assignment, w in worlds:
            key = tuple(assignment[p] for p in node.table.parent_order)
            for s, p in zip(node.states, node.table.rows[key]):
                if w * p > 0.0:
                    nxt.append(({**assignment, node.name: s}, w * p))
        worlds = nxt
    return [FunctionalWorld(a, w) for a, w in worlds]


def propagate(d, world, decisions):
    """Extend a functional world and a decision instance to every
    variable of the canonical form ``d``, in topological order, one row
    dict at a time: each other chance node's row is one-hot within
    ``TOL``, and a utility takes its value's ``f"{v:.12g}"`` label."""
    assignment = {**world, **decisions}
    for x in d.topological_order():
        if x in assignment:
            continue
        node = d.node(x)
        if node.kind == UTILITY:
            u = node.utility
            v = u.rows[tuple(assignment[p] for p in u.parent_order)]
            assignment[x] = f"{v:.12g}"
        else:
            row = local_distribution(d, node, assignment)
            (assignment[x],) = [s for s, p in zip(node.states, row)
                                if abs(p - 1.0) <= TOL]
    return assignment


def barren(d, names):
    """The uncertain variables outside ``names`` with no descendant in
    ``names``."""
    names = set(names)
    return [x for x in d.uncertain()
            if x not in names and not d.descendants([x]) & names]


def multiply(f, g):
    """The product of two factors, over the union of their scopes."""
    scope, states = list(f.scope), list(f.states)
    for v, s in zip(g.scope, g.states):
        if v not in scope:
            scope.append(v)
            states.append(s)
    return Factor(scope, states,
                  _expand(f, scope, states) * _expand(g, scope, states))


def marginalize(f, var):
    """``f`` with ``var`` summed out."""
    i = f.scope.index(var)
    return Factor(f.scope[:i] + f.scope[i + 1:], f.states[:i] + f.states[i + 1:],
                  f.values.sum(axis=i))


def _expand(f, scope, states):
    perm = [f.scope.index(v) for v in scope if v in f.scope]
    arr = np.transpose(f.values, perm) if perm else f.values
    shape = [len(s) if v in f.scope else 1 for v, s in zip(scope, states)]
    return arr.reshape(shape)


def removable_arcs(d):
    """Arcs a->x along which x's rows (a utility's values) agree within
    ``TOL`` with the rows at a's first state, other parents held fixed;
    arcs from x's set decisions excluded."""
    removable = []
    for a, x in d.relevance_arcs:
        xn, src = d.node(x), d.node(a)
        if src.kind == DECISION and src.set_decision_for == x:
            continue
        if xn.kind in (CHANCE, DETERMINISTIC):
            order, rows = xn.table.parent_order, xn.table.rows
        elif xn.kind == UTILITY:
            order = xn.utility.parent_order
            rows = {k: (v,) for k, v in xn.utility.rows.items()}
        else:
            continue
        i = order.index(a)
        rest = parent_variables(d, [p for p in order if p != a])
        base, *others = src.states
        if not any(abs(u - v) > TOL
                   for key in instance_keys(rest) for s in others
                   for u, v in zip(rows[key[:i] + (base,) + key[i:]],
                                   rows[key[:i] + (s,) + key[i:]])):
            removable.append((a, x))
    return removable


def product_prior(d, target, domain, z_parents):
    """The product prior over the mechanism states of ``target``, row by
    row: P(f | z) multiplies P(x = f(y) | y, z) over the y-instances in
    order, a running product."""
    node = d.node(target)
    y_keys = instance_keys(parent_variables(d, domain))
    mappings = list(itertools.product(node.states, repeat=len(y_keys)))
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
    return ConditionalTable(tuple(z_parents), rows)


def reach(arcs, sources, avoid=frozenset()):
    """The names reached from ``sources`` in one or more steps along
    ``arcs`` (a list of (from, to) pairs), entering no name of
    ``avoid``."""
    index = {}
    for a, b in arcs:
        index.setdefault(a, set()).add(b)
    seen = set()
    frontier = list(sources)
    while frontier:
        for c in index.get(frontier.pop(), ()):
            if c not in seen and c not in avoid:
                seen.add(c)
                frontier.append(c)
    return seen


def neighbours(arcs):
    """Per-name parent and child sets over ``arcs``."""
    parents, children = {}, {}
    for a, b in arcs:
        children.setdefault(a, set()).add(b)
        parents.setdefault(b, set()).add(a)
    return parents, children


def kahn_order(names, arcs):
    """Kahn's order over the distinct ``names``, smallest ready name
    first; an arc counts once, and only between two of ``names``."""
    indeg = dict.fromkeys(names, 0)
    arcs = {(a, b) for a, b in arcs if a in indeg and b in indeg}
    for _, b in arcs:
        indeg[b] += 1
    _, children = neighbours(arcs)
    ready = [x for x, k in indeg.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        for c in children.get(x, ()):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    return order


def d_separated(arcs, X, Y, Z):
    """True iff no trail along ``arcs`` from X to Y is active given Z."""
    pa, ch = neighbours(arcs)
    anc_z, frontier = set(), list(Z)
    while frontier:
        x = frontier.pop()
        if x not in anc_z:
            anc_z.add(x)
            frontier.extend(pa.get(x, ()))
    # "up": the trail arrived from a child; "down": from a parent.
    visited, frontier = set(), [(x, "up") for x in X]
    while frontier:
        x, direction = frontier.pop()
        if (x, direction) in visited:
            continue
        visited.add((x, direction))
        if x not in Z and x in Y:
            return False
        if direction == "up" and x not in Z:
            frontier.extend((p, "up") for p in pa.get(x, ()))
            frontier.extend((c, "down") for c in ch.get(x, ()))
        elif direction == "down":
            if x not in Z:
                frontier.extend((c, "down") for c in ch.get(x, ()))
            if x in anc_z:
                frontier.extend((p, "up") for p in pa.get(x, ()))
    return True


def enumerate_policies(d):
    """All policies of ``d``: decisions in decision order, information
    instances lexicographic, alternatives in state order, the last
    (decision, instance) slot varying fastest."""
    info = {dec: tuple(d.info_parents(dec)) for dec in d.decision_order}
    slots = [(dec, key) for dec, parents in info.items()
             for key in instance_keys(parent_variables(d, parents))]
    for alts in itertools.product(*(d.node(dec).states for dec, _ in slots)):
        rules = {dec: {} for dec in info}
        for (dec, key), alt in zip(slots, alts):
            rules[dec][key] = alt
        yield Policy(info, rules)


def choose(policy, decision, assignment):
    """The alternative ``policy`` picks for ``decision`` when its
    information parents take their values in ``assignment``."""
    key = tuple(assignment[p] for p in policy.info_order[decision])
    return policy.rules[decision][key]
