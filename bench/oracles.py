"""Independent routes the benchmark checks decid's answers against.

Everything here is written against the public data model only (nodes,
arcs and tables), never against decid's engines, so a defect in an
engine cannot hide itself:

* blocking by a plain directed search, d-separation by the moralised
  ancestral graph (not the active-trail walk decid uses);
* joint distributions by broadcasting conditional tables in numpy (not
  decid's enumeration or variable elimination);
* expected utility and the exhaustive policy maximum from those joints.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# Graph routes


def blocked(d, C, D, x) -> bool:
    """Every directed path from a decision in D to x meets C."""
    if x in C:
        return True
    out: dict[str, list[str]] = {}
    for a, b in list(d.relevance_arcs) + list(d.information_arcs):
        out.setdefault(a, []).append(b)
    seen = set()
    stack = [s for s in D if s not in C]
    while stack:
        n = stack.pop()
        if n == x:
            return False
        if n in seen:
            continue
        seen.add(n)
        stack.extend(c for c in out.get(n, ()) if c not in C)
    return True


def minimal_blocking_sets(d, D, x, pool) -> set[frozenset]:
    """Inclusion-minimal subsets of ``pool`` that block D from x."""
    found: list[frozenset] = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(sorted(pool), size):
            cand = frozenset(combo)
            if not any(m <= cand for m in found) and blocked(d, cand, D, x):
                found.append(cand)
    return set(found)


def d_separated(d, X, Y, Z) -> bool:
    """Lauritzen's criterion on the relevance-arc graph: X and Y are
    separated by Z in the moral graph of the ancestral set of X, Y, Z."""
    parents: dict[str, set[str]] = {}
    for a, b in d.relevance_arcs:
        parents.setdefault(b, set()).add(a)
    keep = set()
    stack = list(set(X) | set(Y) | set(Z))
    while stack:
        n = stack.pop()
        if n not in keep:
            keep.add(n)
            stack.extend(parents.get(n, ()))
    adj: dict[str, set[str]] = {n: set() for n in keep}
    for b in keep:
        ps = parents.get(b, set())
        for a in ps:
            adj[a].add(b)
            adj[b].add(a)
        for a, c in itertools.combinations(ps, 2):
            adj[a].add(c)
            adj[c].add(a)
    seen = set(X)
    stack = list(X)
    while stack:
        n = stack.pop()
        if n in Y:
            return False
        for m in adj[n]:
            if m not in seen and m not in Z:
                seen.add(m)
                stack.append(m)
    return True


# ---------------------------------------------------------------------------
# Probability routes


def joint_array(d, decisions) -> tuple[list[str], np.ndarray]:
    """P(all uncertain variables | decisions) as an array whose axes
    follow ``d.uncertain()``.  The models carry no set decisions."""
    names = d.uncertain()
    axis = {x: i for i, x in enumerate(names)}
    states = {n.name: n.states for n in d.nodes}
    joint = np.ones([len(states[x]) for x in names])
    for x in names:
        table = d.node(x).table
        free = [p for p in table.parent_order if p not in decisions]
        scope = free + [x]
        arr = np.empty([len(states[v]) for v in scope])
        for combo in itertools.product(*(range(len(states[p])) for p in free)):
            bound = dict(decisions)
            bound.update((p, states[p][i]) for p, i in zip(free, combo))
            key = tuple(bound[p] for p in table.parent_order)
            arr[combo] = table.rows[key]
        order = sorted(range(len(scope)), key=lambda i: axis[scope[i]])
        arr = np.transpose(arr, order)
        shape = [1] * len(names)
        for i in order:
            shape[axis[scope[i]]] = len(states[scope[i]])
        joint = joint * arr.reshape(shape)
    return names, joint


def marginal(d, decisions, evidence, query) -> np.ndarray:
    """P(query | evidence, decisions), axes in query order."""
    names, joint = joint_array(d, decisions)
    for v, s in evidence.items():
        mask = np.zeros(joint.shape[names.index(v)], dtype=bool)
        mask[d.node(v).states.index(s)] = True
        shape = [1] * len(names)
        shape[names.index(v)] = mask.size
        joint = joint * mask.reshape(shape)
    keep = [names.index(q) for q in query]
    drop = tuple(i for i in range(len(names)) if i not in keep)
    out = joint.sum(axis=drop)
    out = np.transpose(out, np.argsort(np.argsort(keep)))
    return out / out.sum()


class PolicyOracle:
    """Expected utility of every policy of a diagram whose decisions
    observe only fixed roots (so each decision instance is an
    intervention on an unchanged prior over the observations)."""

    def __init__(self, d):
        self.decisions = list(d.decision_order)
        self.info = {k: tuple(d.info_parents(k)) for k in self.decisions}
        self.observed = sorted({p for ps in self.info.values() for p in ps})
        self.states = {n.name: n.states for n in d.nodes}
        u = d.utility()
        alts = [self.states[k] for k in self.decisions]
        # value[alternatives][observation instance]
        self.value = {}
        for combo in itertools.product(*alts):
            names, joint = joint_array(d, dict(zip(self.decisions, combo)))
            util = np.zeros(joint.shape)
            for idx in itertools.product(*(range(k) for k in joint.shape)):
                a = {x: self.states[x][i] for x, i in zip(names, idx)}
                util[idx] = u.utility.rows[
                    tuple(a[p] for p in u.utility.parent_order)]
            weighted = joint * util
            keep = [names.index(o) for o in self.observed]
            drop = tuple(i for i in range(len(names)) if i not in keep)
            kept = weighted.sum(axis=drop)
            self.value[combo] = np.transpose(
                kept, np.argsort(np.argsort(keep))).reshape(-1)
        self.instances = list(itertools.product(
            *(self.states[o] for o in self.observed)))

    def eu(self, rules) -> float:
        """``rules``: decision -> {info instance: alternative}."""
        total = 0.0
        for i, inst in enumerate(self.instances):
            a = dict(zip(self.observed, inst))
            combo = tuple(rules[k][tuple(a[p] for p in self.info[k])]
                          for k in self.decisions)
            total += self.value[combo][i]
        return float(total)

    def best_eu(self) -> float:
        per_decision = []
        for k in self.decisions:
            keys = list(itertools.product(
                *(self.states[p] for p in self.info[k])))
            per_decision.append([dict(zip(keys, choice)) for choice in
                                 itertools.product(self.states[k],
                                                   repeat=len(keys))])
        return max(self.eu(dict(zip(self.decisions, rules)))
                   for rules in itertools.product(*per_decision))


def close(a, b, tol=TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
