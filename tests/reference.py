"""Reference joint by direct enumeration, independent of elimination.

``enumerate_joint`` fills the joint over the uncertain variables cell by
cell, as a product of conditional-table rows, with each "set x to k"
decision composed in at the cell.  The suites hold ``joint``,
``posterior``, expected utility and the world table against it.

``enumerate_worlds`` lists the functional worlds one fixed node at a
time, a dict per world, reading each node's plain table row; the suites
hold the index-array listing of ``functional_worlds`` against it.

``barren`` names the uncertain variables that have no directed path to
a set of names, by a walk down from each, so the suites can check that
their corpora exercise the pruning of such variables.
"""

import itertools
import math

import numpy as np

from decid import Factor, FunctionalWorld
from decid.model import DO_NOTHING, SET_PREFIX


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


def barren(d, names):
    """The uncertain variables outside ``names`` with no descendant in
    ``names``."""
    names = set(names)
    return [x for x in d.uncertain()
            if x not in names and not d.descendants([x]) & names]
