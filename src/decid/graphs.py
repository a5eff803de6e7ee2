"""Purely structural queries on influence diagrams.

Blocking, minimal blocking sets, d-separation, set decision
recognition, and graphical fixed sets and causes.  Everything here is a
pure function of an immutable diagram's graph and reads no table, so
it needs no numpy; arc removability and causal network certification,
which read tables, are in ``mechanisms``.

Blocking is generalized so that the candidate set C may contain decision
nodes: a directed path counts as blocked when any of its nodes,
including its source decision, lies in C.  This is what makes singleton
decision causes (e.g. a lone decision blocking itself from a target)
expressible.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import NodeBudgetExceeded, UnknownVariable
from .model import (DECISION, Diagram, _check_set_decision, _reach_bits,
                    _union_bits)

MINIMAL_SET_NODE_BUDGET = 20


class BlockingQuery(NamedTuple):
    """Does ``candidate_set`` block every directed path from
    ``decisions`` to ``target``?  A hashable named tuple, like the
    ``model`` records."""

    candidate_set: frozenset[str]
    decisions: frozenset[str]
    target: str


class CauseReport(NamedTuple):
    target: str
    cause_sets: tuple[frozenset[str], ...]
    method: str
    reason: str | None = None


def _check_names(d: Diagram, names) -> None:
    for x in names:
        if not d.has(x):
            # The least unknown name, whatever the set's iteration order.
            x = min(y for y in names if not d.has(y))
            raise UnknownVariable(f"unknown variable {x!r}")


def blocks(d: Diagram, q: BlockingQuery) -> bool:
    """True iff every directed path (relevance and information arcs)
    from a decision in ``q.decisions`` to the target hits ``q.candidate_set``."""
    ix = d._bits
    # ``BitIndex.mask`` inlined: an audit calls this once per candidate set.
    get, past = ix.bit.get, 1 << len(ix.bit)
    C = D = 0
    for c in q.candidate_set:
        C |= get(c, past)
    for c in q.decisions:
        D |= get(c, past)
    x = get(q.target, past)
    if (C | D | x) >> ix.nodes:
        _check_names(d, {*q.candidate_set, *q.decisions, q.target})
    return bool(x & C) or not x & _reach_bits(ix.children, D & ~C, C)


def minimal_sets(pool, holds) -> list[frozenset[str]]:
    """All inclusion-minimal subsets C of ``pool`` with ``holds(C)``,
    smallest first then lexicographic.

    Exhaustive search by size with superset pruning; complete at desk
    scale, capped at ``MINIMAL_SET_NODE_BUDGET`` pool members.  ``holds``
    must be monotone (a superset of a holding set holds too).
    """
    pool = sorted(pool)
    if len(pool) > MINIMAL_SET_NODE_BUDGET:
        raise NodeBudgetExceeded(f"{len(pool)} candidate nodes exceed budget "
                                 f"{MINIMAL_SET_NODE_BUDGET}")
    if holds(frozenset()):
        return [frozenset()]  # every other set is a superset
    found: list[frozenset[str]] = []
    # Combinations of a sorted pool come out lexicographic within a size.
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            cand = frozenset(combo)
            if not any(m <= cand for m in found) and holds(cand):
                found.append(cand)
    return found


def minimal_blocking_sets(d: Diagram, decisions, target, exclude=frozenset()
                          ) -> list[frozenset[str]]:
    """All inclusion-minimal C from (U ∪ D) \\ ({target} ∪ exclude) that
    block the decisions from the target, smallest first then lexicographic.

    Only nodes on a directed path from one of ``decisions`` to the
    target are tried: dropping any other node from a blocking set leaves it
    blocking, so no minimal set holds one.  ``MINIMAL_SET_NODE_BUDGET``
    counts these nodes.
    """
    D = frozenset(decisions)
    _check_names(d, D | {target} | set(exclude))
    on_path = (D | d.descendants(D)) & d.ancestors([target])
    pool = (on_path & (set(d.uncertain()) | set(d.decisions()))
            - {target} - set(exclude))
    ix = d._bits
    dm, x = ix.mask(D), ix.bit[target]
    return minimal_sets(pool, lambda C: not x & _reach_bits(
        ix.children, dm & ~ix.mask(C), ix.mask(C)))


# ---------------------------------------------------------------------------
# d-separation


def d_separated(d: Diagram, X, Y, Z) -> bool:
    """Standard d-separation on the relevance subgraph: every arc except
    those into a decision, so decisions take part as parentless sources.
    On a valid diagram these are exactly the relevance arcs.

    Uses the active-trail walk in its Bayes-Ball form (Shachter 1998) on
    the bit index, one frontier mask per direction: a trail that reaches
    Z from a parent bounces back up, so, unlike Koller & Friedman's
    "Reachable", it needs no ancestor set of Z.
    """
    X, Y, Z = set(X), set(Y), set(Z)
    _check_names(d, X | Y | Z)
    if (X & Y) or (X & Z) or (Y & Z):
        raise ValueError("X, Y, Z must be pairwise disjoint")
    ix = d._bits
    y, z, dec = ix.mask(Y), ix.mask(Z), ix.mask(d.decisions())
    # "up" holds the names a trail reached from a child, "down" those it
    # reached from a parent; each frontier is what the last step added.
    # Decisions are never stepped into from a parent, nor left upwards.
    up = front_up = ix.mask(X)
    down = front_down = 0
    while front_up | front_down:
        if (front_up | front_down) & y:
            return False
        step_down = _union_bits(ix.children, (front_up | front_down) & ~z)
        step_up = _union_bits(ix.parents,
                              (front_up & ~z | front_down & z) & ~dec)
        front_up = step_up & ~up
        front_down = step_down & ~(dec | down)
        up |= front_up
        down |= front_down
    return True


# ---------------------------------------------------------------------------
# Fixed sets and causes, read from the graph


def graphical_fixed_set(d: Diagram, C=frozenset()) -> frozenset[str]:
    """Uncertain variables blocked from all decisions by C.

    Sound (an F-map consequence) only when the diagram is causal; on
    non-causal diagrams the result is merely the graphical claim.
    """
    C = frozenset(C)
    _check_names(d, C)
    ix = d._bits
    c = ix.mask(C)
    unfixed = c | _reach_bits(ix.children, ix.mask(d.decisions()) & ~c, c)
    return frozenset(x for x in d.uncertain() if not ix.bit[x] & unfixed)


def graphical_causes(d: Diagram, target: str) -> CauseReport:
    """Minimal blocking sets read as cause sets (sound on causal D-maps)."""
    _check_names(d, [target])
    D = set(d.decisions())
    if target not in d.descendants(D):
        return CauseReport(target, (), "graphical",
                           reason=f"{target} is unaffected by the decisions "
                                  "(member of the fixed set)")
    sets = minimal_blocking_sets(d, D, target, exclude={target})
    return CauseReport(target, tuple(sets), "graphical")


def is_set_decision(d: Diagram, s: str, x: str) -> bool:
    """True iff s has alternatives "do nothing" plus "set x to k" for each
    state k of the chance node x, and x is s's only child."""
    _check_names(d, [s, x])
    if d.node(s).kind != DECISION:
        raise ValueError(f"{s} is not a decision node")
    return not _check_set_decision(d, d.node(s), x)
