"""Seeded model generator for the benchmark workloads.

Shapes follow the repository's test generators: decisions are binary
roots, chance nodes take up to ``max_parents`` parents from the
decisions and earlier chance nodes, and every conditional row is
strictly positive.  A model is drawn as a structure first, so that its
size (joint cells, functional worlds, policy space) can be computed and
a workload can ask for a given size before any table is filled in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from decid import Diagram, chance_node, decision_node, utility_node

DECISION_STATES = ("a0", "a1")


@dataclass(frozen=True)
class Structure:
    decisions: tuple[str, ...]
    # (name, number of states, parents) per chance node
    chance: tuple[tuple[str, int, tuple[str, ...]], ...]
    info: tuple[tuple[str, str], ...] = ()      # (observed root, decision)
    utility_parents: tuple[str, ...] | None = None

    def states(self, name) -> int:
        if name in self.decisions:
            return len(DECISION_STATES)
        return next(k for x, k, _ in self.chance if x == name)

    def fixed(self) -> set[str]:
        """Chance nodes no decision can reach."""
        affected = set(self.decisions)
        for x, _, parents in self.chance:
            if affected & set(parents):
                affected.add(x)
        return {x for x, _, _ in self.chance if x not in affected}

    def cells(self) -> int:
        return math.prod(k for _, k, _ in self.chance)

    def worlds(self) -> int:
        """Functional worlds of the Howard Canonical Form: each fixed node
        keeps its states, each affected node gets one mechanism state per
        mapping from its non-fixed parents' instances to its states."""
        fixed = self.fixed()
        total = 1
        for x, k, parents in self.chance:
            if x in fixed:
                total *= k
            else:
                q = math.prod(self.states(p) for p in parents
                              if p not in fixed)
                total *= k ** q
        return total

    def policies(self) -> int:
        total = 1
        for dec in self.decisions:
            seen = [r for r, t in self.info if t == dec]
            total *= len(DECISION_STATES) ** math.prod(
                self.states(r) for r in seen)
        return total


def draw_structure(rng, n_decisions, n_chance, n_roots=0, p_three=0.0,
                   max_parents=2, p_arc=0.6, cell_cap=None) -> Structure:
    """Chance nodes ``x0..``; the first ``n_roots`` are binary parentless
    roots.  A node gets three states with probability ``p_three`` while
    the joint stays within ``cell_cap`` cells."""
    decisions = tuple(f"d{i}" for i in range(n_decisions))
    earlier = list(decisions)
    chance = []
    cells = 1
    for i in range(n_chance):
        name = f"x{i}"
        k = 3 if rng.random() < p_three else 2
        if cell_cap is not None and cells * k > cell_cap:
            k = 2
        if i < n_roots:
            k, parents = 2, ()
        else:
            pool = list(earlier)
            rng.shuffle(pool)
            parents = tuple(sorted(p for p in pool[:max_parents]
                                   if rng.random() < p_arc))
        chance.append((name, k, parents))
        cells *= k
        earlier.append(name)
    return Structure(decisions, tuple(chance))


def build(rng, s: Structure) -> Diagram:
    """Fill a structure with random positive tables (and utilities)."""
    nodes = [decision_node(x, DECISION_STATES) for x in s.decisions]
    arcs = []
    states = {x: DECISION_STATES for x in s.decisions}
    for x, k, parents in s.chance:
        states[x] = tuple(f"s{j}" for j in range(k))
        rows = {key: _distribution(rng, k)
                for key in itertools.product(*(states[p] for p in parents))}
        nodes.append(chance_node(x, states[x], parents, rows))
        arcs.extend((p, x) for p in parents)
    if s.utility_parents is not None:
        values = {key: round(rng.uniform(0, 100), 3)
                  for key in itertools.product(
                      *(states[p] for p in s.utility_parents))}
        nodes.append(utility_node("payoff", s.utility_parents, values))
        arcs.extend((p, "payoff") for p in s.utility_parents)
    return Diagram(tuple(nodes), tuple(arcs), tuple(s.info),
                   s.decisions, causal=True)


def _distribution(rng, k):
    raw = [rng.random() + 0.05 for _ in range(k)]
    z = sum(raw)
    return [p / z for p in raw]


def draw_until(rng, draw, accept, tries=100_000):
    """Redraw until ``accept(structure)``; the rng stream makes the
    result a function of the seed."""
    for _ in range(tries):
        s = draw()
        if accept(s):
            return s
    raise RuntimeError("no structure of the requested size in "
                       f"{tries} draws")
