"""End-to-end acceptance gate.

Each test covers one advertised guarantee of the package and prints a
single pass/fail line so the whole gate can be read at a glance.  The
numeric checks use independent oracles (direct enumeration, functional
world propagation) rather than the engine under test wherever the two
can be decoupled.
"""

import itertools
import pathlib
import time

import numpy as np
import pytest

from decid import (BlockingQuery, CounterfactualQuery, Variable,
                   WorldTable, blocks, canonical_mechanism_prior,
                   chance_node, check_marginal_reproduction, counterfactual,
                   decision_node, Diagram, enumerate_mechanism_states,
                   functional_worlds, graphical_causes, joint, oracle_causes,
                   oracle_is_d_map, parse_model, posterior, propagate, to_hcf,
                   validate_diagram, value_of_information)
from decid.errors import NotObservable, StateSpaceExceeded

from genmodels import random_dag, random_diagram, random_functional_diagram

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load(name):
    d = parse_model((FIXTURES / f"{name}.json").read_text())
    assert validate_diagram(d) == []
    return d


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"acceptance {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
        if detail and not ok:
            line += f"  [{detail}]"
        with capsys.disabled():
            print(line)
        assert ok, f"criterion {num} ({name}): {detail}"
    return _report


def _decision_instances(d):
    decs = d.decisions()
    return [dict(zip(decs, combo))
            for combo in itertools.product(*(d.node(x).states for x in decs))]


# ---------------------------------------------------------------------------


def test_criterion_01_mechanism_states_binary(report):
    x = Variable("x", ("no", "yes"))
    y = Variable("y", ("no", "yes"))
    got = enumerate_mechanism_states(x, [y])
    content_ok = set(got) == {("no", "no"), ("no", "yes"),
                              ("yes", "no"), ("yes", "yes")}
    best = min(
        _timed(lambda: enumerate_mechanism_states(x, [y]))
        for _ in range(5))
    report(1, "mechanism states for binary cause/effect",
           content_ok and best < 1e-3,
           f"content_ok={content_ok} best_runtime={best:.2e}s")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_hcf_preserves_joints(report):
    t0 = time.perf_counter()
    max_err = 0.0
    accepted = 0
    seed = 0
    while accepted < 100:
        d = random_diagram(seed, n_chance=5, max_states=3, n_decisions=2)
        seed += 1
        try:
            h = to_hcf(d, cap=300)
        except StateSpaceExceeded:
            continue
        accepted += 1
        keep = d.uncertain()
        for di in _decision_instances(d):
            orig = joint(d, di)
            got = posterior(h.diagram, di, {}, keep)
            max_err = max(max_err,
                          float(np.max(np.abs(got.values - orig.values))))
    elapsed = time.perf_counter() - t0
    report(2, "transformed joints match originals on 100 random diagrams",
           max_err <= 1e-9 and elapsed < 60,
           f"max_err={max_err:.3e} elapsed={elapsed:.1f}s")


def test_criterion_03_canonical_prior_fixture(report):
    m1 = load("m1")
    spec = canonical_mechanism_prior(m1, "lung_cancer")
    got = dict(zip(spec.states, spec.prior.rows[()]))
    want = {("no", "yes"): 0.19, ("yes", "no"): 0.04,
            ("no", "no"): 0.76, ("yes", "yes"): 0.01}
    prior_ok = (got.keys() == want.keys()
                and all(abs(got[k] - v) <= 1e-12 for k, v in want.items()))
    audit_ok = check_marginal_reproduction(m1, to_hcf(m1)) == []
    report(3, "product prior fixture and reproduction audit",
           prior_ok and audit_ok,
           f"prior={got} audit_ok={audit_ok}")


def test_criterion_04_blocking_implies_fixed(report):
    t0 = time.perf_counter()
    violations = []
    accepted = 0
    seed = 0
    while accepted < 200:
        d = random_diagram(seed, n_chance=3, max_states=2, n_decisions=2)
        seed += 1
        h = to_hcf(d)
        if len(functional_worlds(h.diagram)) > 512:
            continue
        table = WorldTable(h.diagram)
        accepted += 1
        hd = h.diagram
        D = frozenset(hd.decisions())
        pool = sorted(set(hd.uncertain()) | set(D))
        for x in hd.uncertain():
            others = [p for p in pool if p != x]
            for size in range(3):
                for C in itertools.combinations(others, size):
                    q = BlockingQuery(frozenset(C), D, x)
                    if not blocks(hd, q):
                        continue
                    if not table.fixed_given(x, sorted(C)):
                        violations.append((seed - 1, x, C))
    elapsed = time.perf_counter() - t0
    report(4, "blocked variables pass the fixed-set oracle (200 diagrams)",
           not violations and elapsed < 120,
           f"violations={violations[:3]} elapsed={elapsed:.1f}s")


def test_criterion_05_graphical_causes_agree_with_oracle(report):
    checked = 0
    violations = []
    for seed in range(40):
        d = random_diagram(seed, n_chance=3, max_states=2, n_decisions=1)
        h = to_hcf(d)
        ok, _ = oracle_is_d_map(h.diagram, max_cond=2)
        if not ok:
            continue
        checked += 1
        desc = h.diagram.descendants(h.diagram.decisions())
        for x in h.diagram.uncertain():
            if x not in desc:
                continue
            graphical = graphical_causes(h.diagram, x).cause_sets
            semantic = set(oracle_causes(h, x).cause_sets)
            for s in graphical:
                if s not in semantic:
                    violations.append((seed, x, sorted(s)))
    report(5, "graphical cause sets are confirmed semantically",
           checked >= 5 and not violations,
           f"checked={checked} violations={violations[:3]}")


def test_criterion_06_figure_shapes(report):
    problems = []

    h = to_hcf(load("m1"))
    d = h.diagram
    mech = "lung_cancer(smoke)"
    if set(d.names()) != {"smoke", "lung_cancer", mech}:
        problems.append(f"m1 nodes: {sorted(d.names())}")
    if set(d.relevance_arcs) != {("smoke", "lung_cancer"),
                                 (mech, "lung_cancer")}:
        problems.append(f"m1 arcs: {sorted(d.relevance_arcs)}")
    if d.node("lung_cancer").kind != "deterministic":
        problems.append("m1 target not deterministic")
    if d.node(mech).kind != "chance":
        problems.append("m1 mechanism not chance")

    h = to_hcf(load("fig6a"))
    d = h.diagram
    m_lc, m_ca = "lung_cancer(smoke)", "cardio(diet)"
    if set(d.names()) != {"smoke", "diet", "genotype",
                          "lung_cancer", "cardio", m_lc, m_ca}:
        problems.append(f"fig6a nodes: {sorted(d.names())}")
    want_arcs = {("smoke", "lung_cancer"), (m_lc, "lung_cancer"),
                 ("diet", "cardio"), (m_ca, "cardio"),
                 ("genotype", m_lc), ("genotype", m_ca)}
    if set(d.relevance_arcs) != want_arcs:
        problems.append(f"fig6a arcs: {sorted(d.relevance_arcs)}")
    for x, kind in (("lung_cancer", "deterministic"),
                    ("cardio", "deterministic"),
                    (m_lc, "chance"), (m_ca, "chance"),
                    ("genotype", "chance")):
        if d.node(x).kind != kind:
            problems.append(f"fig6a {x} kind {d.node(x).kind}")

    report(6, "canonical-form shapes for the worked diagrams",
           not problems, "; ".join(problems))


def _cf_world_oracle(h, q, target):
    d = h.diagram
    dist, total = {}, 0.0
    for world in functional_worlds(d):
        factual = propagate(d, world.assignment, q.factual_decisions)
        if any(factual[k] != v for k, v in q.factual_evidence.items()):
            continue
        total += world.weight
        alt = propagate(d, world.assignment, q.counterfactual_decisions)
        dist[alt[target]] = dist.get(alt[target], 0.0) + world.weight
    return {k: v / total for k, v in dist.items()}


def test_criterion_07_counterfactual_fixtures(report):
    problems = []

    h = to_hcf(load("coin"))
    q = CounterfactualQuery({"d": "heads"}, {"w": "win"}, {"d": "tails"},
                            ("w",))
    f = counterfactual(h, q)
    p_lose = f.value({"w'": "lose"})
    if p_lose != 1.0:
        problems.append(f"coin: {p_lose!r}")
    oracle = _cf_world_oracle(h, q, "w")
    if oracle != {"lose": 1.0}:
        problems.append(f"coin oracle: {oracle}")

    h = to_hcf(load("m1"))
    q = CounterfactualQuery({"smoke": "no"}, {"lung_cancer": "no"},
                            {"smoke": "yes"}, ("lung_cancer",))
    f = counterfactual(h, q)
    got = f.value({"lung_cancer'": "yes"})
    if abs(got - 0.2) > 1e-9:
        problems.append(f"m1 engine: {got!r}")
    oracle = _cf_world_oracle(h, q, "lung_cancer")
    if abs(oracle.get("yes", 0.0) - 0.2) > 1e-9:
        problems.append(f"m1 oracle: {oracle}")
    if abs(got - oracle.get("yes", 0.0)) > 1e-12:
        problems.append("engine and world oracle disagree")

    report(7, "counterfactual fixtures match the world oracle",
           not problems, "; ".join(problems))


def test_criterion_08_value_of_information(report):
    problems = []

    coin_u = load("coin_utility")
    v = value_of_information(coin_u, "c", "d")
    if abs(v - 0.5) > 1e-12:
        problems.append(f"coin VOI {v!r}")
    try:
        value_of_information(coin_u, "w", "d")
        problems.append("coin: w accepted as observable")
    except NotObservable:
        pass

    checked = 0
    for seed in range(100):
        d = random_diagram(seed, n_chance=2, max_states=2, n_decisions=1,
                           max_parents=1, with_utility=True)
        desc = d.descendants(d.decisions())
        for x in d.uncertain():
            if x in desc:
                try:
                    value_of_information(d, x, "d0")
                    problems.append(f"seed {seed}: descendant {x} observable")
                except NotObservable:
                    pass
        h = to_hcf(d)
        for n in h.diagram.nodes:
            if n.kind != "chance":
                continue
            try:
                v = value_of_information(h.diagram, n.name, "d0")
            except NotObservable:
                problems.append(f"seed {seed}: chance {n.name} unobservable")
                continue
            checked += 1
            if v < 0.0:
                problems.append(f"seed {seed}: VOI({n.name}) = {v!r} < 0")
    report(8, "value of information bounds and observability",
           checked >= 100 and not problems,
           f"checked={checked} " + "; ".join(problems[:3]))


def test_criterion_09_blocking_graphoid_properties(report):
    import random
    problems = []
    for seed in range(1000):
        d = random_dag(seed, n_nodes=7)
        D = frozenset(d.decisions())
        chance = d.uncertain()
        rng = random.Random(seed * 13 + 1)

        def blocked(C, X):
            return all(blocks(d, BlockingQuery(frozenset(C), D, x))
                       for x in X)

        for _ in range(3):
            pool = list(chance)
            rng.shuffle(pool)
            X, W = set(pool[:2]), set(pool[2:4])
            C = set(pool[4:4 + rng.randint(0, 2)])
            if blocked(C, X | W):
                if not blocked(C, X):
                    problems.append((seed, "decomposition"))
                if not blocked(C | W, X):
                    problems.append((seed, "weak union"))
            if blocked(C, X) and blocked(C | X, W) and not blocked(C, X | W):
                problems.append((seed, "contraction"))

    # Stored counterexample: the relation is not symmetric.
    x = chance_node("x", ("0", "1"), (), {(): [0.5, 0.5]})
    dec = decision_node("d", ("a", "b"))
    cd = Diagram((x, dec), (), (("x", "d"),))
    forward = blocks(cd, BlockingQuery(frozenset(), frozenset({"d"}), "x"))
    backward = blocks(cd, BlockingQuery(frozenset(), frozenset({"x"}), "d"))
    if not (forward and not backward):
        problems.append(("counterexample", forward, backward))

    report(9, "graphoid axioms hold, symmetry fails as designed",
           not problems, f"{problems[:3]}")


def test_criterion_10_elimination_matches_enumeration(report):
    corpus = ["m1", "coin", "coin_utility", "fig1", "fig2a", "fig2b", "fig6a"]
    worst = 0.0
    for name in corpus:
        d = load(name)
        if len(d.nodes) > 12:
            continue
        chance = d.uncertain()
        for di in _decision_instances(d):
            full = joint(d, di)
            for x in chance:
                brute = full
                for v in chance:
                    if v != x:
                        brute = brute.marginalize(v)
                fast = posterior(d, di, {}, [x])
                worst = max(worst,
                            float(np.max(np.abs(fast.values - brute.values))))
            for x, y in itertools.permutations(chance, 2):
                marg = full
                for v in chance:
                    if v != y:
                        marg = marg.marginalize(v)
                for s in d.node(y).states:
                    if marg.value({y: s}) <= 0.0:
                        continue
                    brute = full.reduce(y, s)
                    for v in chance:
                        if v not in (x, y):
                            brute = brute.marginalize(v)
                    brute = brute.normalize()
                    fast = posterior(d, di, {y: s}, [x])
                    worst = max(worst, float(
                        np.max(np.abs(fast.values - brute.values))))
    report(10, "variable elimination equals direct enumeration on the corpus",
           worst <= 1e-10, f"worst={worst:.3e}")


def test_criterion_11_mutual_causes_are_functional(report):
    problems = []
    pairs_seen = 0
    for seed in range(60):
        d = random_functional_diagram(seed, n_roots=2, n_det=3, n_decisions=1)
        assert validate_diagram(d) == []
        table = WorldTable(d)
        uncertain = d.uncertain()
        causes = {x: set(oracle_causes(d, x).cause_sets) for x in uncertain}
        for x, y in itertools.combinations(uncertain, 2):
            if frozenset({y}) not in causes[x]:
                continue
            if frozenset({x}) not in causes[y]:
                continue
            pairs_seen += 1
            for a, b in ((x, y), (y, x)):
                # In every state of the world, knowing b (and the
                # decisions) must determine a: the two variables are
                # deterministically related.
                for world in table.worlds:
                    mapping = {}
                    for di in table.decision_instances:
                        row = propagate(d, world.assignment, di)
                        if mapping.setdefault(row[b], row[a]) != row[a]:
                            problems.append((seed, a, b))
                            break
    report(11, "mutual causes are deterministic functions of each other",
           pairs_seen >= 3 and not problems,
           f"pairs={pairs_seen} violations={problems[:3]}")
