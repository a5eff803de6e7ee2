"""Seeded random model generators shared by the property suites, and
the world count they filter their corpora by."""

import itertools
import random

from decid import (Diagram, chance_node, decision_node, inference,
                   set_decision_node, utility_node)


def count_worlds(d):
    """The number of functional worlds of the canonical form ``d``, by
    the elimination the world cap counts them with: none is listed."""
    return inference._world_count(inference._fixed_tables(d))


def random_distribution(rng, k):
    raw = [rng.random() + 0.05 for _ in range(k)]
    z = sum(raw)
    return [p / z for p in raw]


def random_diagram(seed, n_chance=4, max_states=3, n_decisions=2,
                   max_parents=2, p_arc=0.6, with_utility=False,
                   causal=True):
    """Random influence diagram: decisions are roots, chance nodes pick
    parents from decisions and earlier chance nodes."""
    rng = random.Random(seed)
    decisions = [f"d{i}" for i in range(n_decisions)]
    nodes = [decision_node(x, ["a0", "a1"]) for x in decisions]
    arcs = []
    earlier = list(decisions)
    chance_names = []
    for i in range(n_chance):
        name = f"x{i}"
        k = rng.randint(2, max_states)
        states = [f"s{j}" for j in range(k)]
        pool = list(earlier)
        rng.shuffle(pool)
        parents = sorted(p for p in pool[:max_parents] if rng.random() < p_arc)
        rows = {}
        parent_states = []
        for p in parents:
            node = next(n for n in nodes if n.name == p)
            parent_states.append(node.states)
        for key in itertools.product(*parent_states):
            rows[key] = random_distribution(rng, k)
        nodes.append(chance_node(name, states, parents, rows))
        arcs.extend((p, name) for p in parents)
        earlier.append(name)
        chance_names.append(name)
    if with_utility:
        k = min(2, len(chance_names))
        parents = sorted(rng.sample(chance_names, k)) if k else []
        parent_states = [next(n for n in nodes if n.name == p).states
                         for p in parents]
        values = {key: round(rng.uniform(0, 100), 3)
                  for key in itertools.product(*parent_states)}
        nodes.append(utility_node("payoff", parents, values))
        arcs.extend((p, "payoff") for p in parents)
    return Diagram(tuple(nodes), tuple(arcs), (),
                   tuple(decisions), causal=causal)


def random_table_diagram(seed):
    """``random_diagram`` with a utility, a set decision on one chance
    node half the time, and about half the tables made constant along
    one parent: the rows at its first state copied to its others."""
    rng = random.Random(seed)
    k = rng.choice([2, 3])
    d = random_diagram(seed, n_chance=rng.randint(2, 5), max_states=k,
                       max_parents=2 if k == 2 else 1, with_utility=True)
    nodes = []
    for n in d.nodes:
        field = "utility" if n.utility else "table"
        table = getattr(n, field)
        if table is not None and table.parent_order and rng.random() < 0.5:
            i = rng.randrange(len(table.parent_order))
            first = d.node(table.parent_order[i]).states[0]
            rows = {k: table.rows[k[:i] + (first,) + k[i + 1:]]
                    for k in table.rows}
            n = n._replace(**{field: table._replace(rows=rows)})
        nodes.append(n)
    relevance, order = list(d.relevance_arcs), d.decision_order
    if rng.random() < 0.5:
        x = d.node(rng.choice(d.uncertain()))
        nodes.append(set_decision_node("s", x.states, x.name))
        relevance.append(("s", x.name))
        order += ("s",)
    return Diagram(tuple(nodes), tuple(relevance), (), order, causal=True)


def random_functional_diagram(seed, n_roots=2, n_det=3, n_decisions=1):
    """Roots plus decisions feeding deterministic nodes: every non-root
    is a random function of its parents (already functional form)."""
    rng = random.Random(seed)
    decisions = [f"d{i}" for i in range(n_decisions)]
    nodes = [decision_node(x, ["a0", "a1"]) for x in decisions]
    arcs = []
    roots = []
    for i in range(n_roots):
        name = f"r{i}"
        nodes.append(chance_node(name, ["s0", "s1"], [],
                                 {(): random_distribution(rng, 2)}))
        roots.append(name)
    earlier = decisions + roots
    for i in range(n_det):
        name = f"f{i}"
        pool = list(earlier)
        rng.shuffle(pool)
        parents = sorted(pool[:rng.randint(1, min(2, len(pool)))])
        parent_states = [next(n for n in nodes if n.name == p).states
                         for p in parents]
        rows = {}
        for key in itertools.product(*parent_states):
            j = rng.randrange(2)
            rows[key] = [1.0 if t == j else 0.0 for t in range(2)]
        nodes.append(chance_node(name, ["s0", "s1"], parents, rows,
                                 deterministic=True))
        arcs.extend((p, name) for p in parents)
        earlier.append(name)
    return Diagram(tuple(nodes), tuple(arcs), (), tuple(decisions),
                   causal=True)


def random_dag(seed, n_nodes=8, n_decisions=2, p_arc=0.3):
    """Bare structural DAG (uniform CPTs are irrelevant; used for purely
    graphical property suites)."""
    rng = random.Random(seed)
    decisions = [f"d{i}" for i in range(n_decisions)]
    names = decisions + [f"x{i}" for i in range(n_nodes - n_decisions)]
    nodes = [decision_node(x, ["a0", "a1"]) for x in decisions]
    arcs = []
    for i, name in enumerate(names):
        if name.startswith("d"):
            continue
        parents = [p for p in names[:i] if rng.random() < p_arc]
        rows = {}
        parent_states = [["a0", "a1"] if p.startswith("d") else ["s0", "s1"]
                         for p in parents]
        for key in itertools.product(*parent_states):
            rows[key] = [0.4, 0.6]
        nodes.append(chance_node(name, ["s0", "s1"], parents, rows))
        arcs.extend((p, name) for p in parents)
    return Diagram(tuple(nodes), tuple(arcs), (), tuple(decisions))


def random_dag_with_information(seed, n_nodes=7, n_decisions=2,
                                p_arc=0.35, p_info=0.3):
    """``random_dag`` plus acyclic information arcs into its decisions."""
    rng = random.Random(seed)
    d = random_dag(seed, n_nodes=n_nodes, n_decisions=n_decisions,
                   p_arc=p_arc)
    info = []
    for dec in d.decisions():
        for x in d.uncertain():
            g = d.with_arcs(information=info)
            if rng.random() < p_info and x not in g.descendants([dec]):
                info.append((x, dec))
    return d.with_arcs(information=info)


def random_policy_diagram(seed, n_chance=4):
    """Random utility diagram for policy-evaluation suites.

    Two ordinary binary decisions, ``d1`` observing ``d0`` half the
    time; a decision that observes no decision observes one fixed root
    half the time; a set decision on
    one chance node half the time; utilities from -50 to 100 over zero
    to two parents, one of them possibly a decision.  Decision order is
    the topological order of the decisions, so the diagram validates.
    """
    rng = random.Random(seed)
    nodes = [decision_node("d0", ["a0", "a1"]),
             decision_node("d1", ["a0", "a1"])]
    relevance, information = [], []
    if rng.random() < 0.5:
        information.append(("d0", "d1"))
    n_roots = rng.randint(1, 2)
    earlier = ["d0", "d1"]
    states = {"d0": ("a0", "a1"), "d1": ("a0", "a1")}
    for i in range(n_chance):
        name = f"x{i}"
        k = rng.randint(2, 3) if i >= n_roots else 2
        states[name] = tuple(f"s{j}" for j in range(k))
        parents = [] if i < n_roots else sorted(
            rng.sample(earlier, rng.randint(1, min(2, len(earlier)))))
        rows = {key: random_distribution(rng, k)
                for key in itertools.product(*(states[p] for p in parents))}
        nodes.append(chance_node(name, states[name], parents, rows))
        relevance.extend((p, name) for p in parents)
        earlier.append(name)
    roots = [f"x{i}" for i in range(n_roots)]
    for dec in ("d0", "d1"):
        if rng.random() < 0.5 and ("d0", dec) not in information:
            information.append((rng.choice(roots), dec))
    if rng.random() < 0.5:
        target = rng.choice(earlier[2 + n_roots:])
        nodes.append(set_decision_node("s", states[target], target))
        relevance.append(("s", target))
    pool = [x for x in earlier if x.startswith("x")]
    parents = sorted(rng.sample(pool, rng.randint(0, 2)))
    if parents and rng.random() < 0.3:
        parents[0] = rng.choice(["d0", "d1"])
    values = {key: round(rng.uniform(-50, 100), 3)
              for key in itertools.product(*(states[p] for p in parents))}
    nodes.append(utility_node("payoff", parents, values))
    relevance.extend((p, "payoff") for p in parents)
    d = Diagram(tuple(nodes), tuple(relevance), tuple(information))
    order = tuple(x for x in d.topological_order() if x in d.decisions())
    return Diagram(tuple(nodes), tuple(relevance), tuple(information), order)


def ladder(rungs):
    """Decision ``d`` and target ``t`` joined by two rails, ``a0..`` and
    ``b0..``, with a rung ``a{i}->b{i}`` at every step: every node lies
    on a path from ``d`` to ``t``."""
    flat = {(s,): [0.5, 0.5] for s in ("0", "1")}
    pair = {(s, u): [0.5, 0.5] for s in ("0", "1") for u in ("0", "1")}
    nodes = [decision_node("d", ["0", "1"])]
    arcs = []
    for i in range(rungs):
        a, b = f"a{i}", f"b{i}"
        up = ("d", "d") if i == 0 else (f"a{i - 1}", f"b{i - 1}")
        nodes.append(chance_node(a, ["0", "1"], [up[0]], flat))
        nodes.append(chance_node(b, ["0", "1"], [up[1], a], pair))
        arcs += [(up[0], a), (up[1], b), (a, b)]
    last = (f"a{rungs - 1}", f"b{rungs - 1}")
    nodes.append(chance_node("t", ["0", "1"], last, pair))
    arcs += [(x, "t") for x in last]
    return Diagram(tuple(nodes), tuple(arcs), (), ("d",))


def chain(n, seed=0):
    """Decision ``d`` into ``x0``, then a binary chain ``x0 -> ... ->
    x{n-1}`` with seeded tables: its joint has 2^n cells, but any one
    variable's posterior is small."""
    rng = random.Random(seed)
    nodes = [decision_node("d", ["a", "b"])]
    arcs = []
    for i in range(n):
        parent = "d" if i == 0 else f"x{i - 1}"
        states = ("a", "b") if i == 0 else ("0", "1")
        nodes.append(chance_node(f"x{i}", ["0", "1"], [parent], {
            (s,): random_distribution(rng, 2) for s in states}))
        arcs.append((parent, f"x{i}"))
    return Diagram(tuple(nodes), tuple(arcs), (), ("d",), causal=True)


def grid(rows, cols, seed=0):
    """Decision ``d`` into the corner ``g0_0`` of a binary grid whose
    node ``g{i}_{j}`` has the parents ``g{i-1}_{j}`` and ``g{i}_{j-1}``,
    with seeded tables: elimination factors grow with the narrower side."""
    rng = random.Random(seed)
    nodes = [decision_node("d", ["a", "b"])]
    arcs = []
    states = {"d": ("a", "b")}
    for i in range(rows):
        for j in range(cols):
            name = f"g{i}_{j}"
            parents = ([f"g{i - 1}_{j}"] if i else []) + (
                [f"g{i}_{j - 1}"] if j else []) or ["d"]
            nodes.append(chance_node(name, ["0", "1"], parents, {
                key: random_distribution(rng, 2)
                for key in itertools.product(*(states[p] for p in parents))}))
            arcs += [(p, name) for p in parents]
            states[name] = ("0", "1")
    return Diagram(tuple(nodes), tuple(arcs), (), ("d",), causal=True)


def star(n, seed=0):
    """Decision ``d`` into ``r``, then ``r -> h`` and ``h -> c0 ...
    c{n-1}``, binary, with seeded tables: with the children observed, a
    posterior multiplies one factor per child."""
    rng = random.Random(seed)
    nodes = [decision_node("d", ["a", "b"]),
             chance_node("r", ["0", "1"], ["d"], {
                 (s,): random_distribution(rng, 2) for s in "ab"}),
             chance_node("h", ["0", "1"], ["r"], {
                 (s,): random_distribution(rng, 2) for s in "01"})]
    arcs = [("d", "r"), ("r", "h")]
    for i in range(n):
        nodes.append(chance_node(f"c{i}", ["0", "1"], ["h"], {
            (s,): random_distribution(rng, 2) for s in "01"}))
        arcs.append(("h", f"c{i}"))
    return Diagram(tuple(nodes), tuple(arcs), (), ("d",), causal=True)
