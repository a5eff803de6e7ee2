import functools
import itertools
import math
import random

import numpy as np
import pytest

from decid import (Diagram, Factor, Policy, WorldTable, chance_node,
                   count_worlds, decision_node, enumerate_instances,
                   expected_utility, functional_worlds, graphical_fixed_set,
                   graphs, inference, joint, minimal_sets, optimal_policy,
                   oracle_causes, oracle_fixed_set_member, oracle_is_d_map,
                   parse_model, posterior, propagate, serialize_model,
                   set_decision_node, to_hcf, utility_node,
                   validate_diagram, value_of_information)
from decid.errors import (FactorCapExceeded, NodeBudgetExceeded, NotHcf,
                          UnknownVariable, WorldCapExceeded,
                          ZeroProbabilityEvidence)
from decid.inference import value_label_node
from decid.model import TOL, _diagram_of, parent_variables

from genmodels import (chain, grid, random_diagram,
                       random_functional_diagram, random_policy_diagram, star)
import reference
from reference import (barren, enumerate_joint, enumerate_worlds, marginalize,
                       multiply)

SEEDED = list(range(12))


# ---------------------------------------------------------------------------
# Factor algebra


def _f(scope, states, values):
    return Factor(scope, states, values)


def test_factor_multiply_commutes():
    a = _f(["x"], [("0", "1")], [0.3, 0.7])
    b = _f(["y"], [("0", "1")], [0.6, 0.4])
    ab = multiply(a, b)
    ba = multiply(b, a)
    for x in "01":
        for y in "01":
            assert ab.value({"x": x, "y": y}) == pytest.approx(
                ba.value({"x": x, "y": y}), abs=1e-15)


def test_factor_marginalize_sums_out():
    f = _f(["x", "y"], [("0", "1"), ("0", "1")], [[0.1, 0.2], [0.3, 0.4]])
    g = marginalize(f, "y")
    assert g.scope == ("x",)
    assert g.value({"x": "0"}) == pytest.approx(0.3)
    assert g.value({"x": "1"}) == pytest.approx(0.7)


def test_factor_reduce_slices():
    f = _f(["x", "y"], [("0", "1"), ("0", "1")], [[0.1, 0.2], [0.3, 0.4]])
    g = f.reduce("x", "1")
    assert g.scope == ("y",)
    assert g.value({"y": "0"}) == pytest.approx(0.3)


def test_factor_normalize_zero_raises():
    f = _f(["x"], [("0", "1")], [0.0, 0.0])
    with pytest.raises(ZeroProbabilityEvidence):
        f.normalize()


# ---------------------------------------------------------------------------
# Joint and posterior on the worked examples


def test_joint_m1(m1):
    f = joint(m1, {"smoke": "yes"})
    assert f.value({"lung_cancer": "yes"}) == pytest.approx(0.2, abs=1e-12)
    f = joint(m1, {"smoke": "no"})
    assert f.value({"lung_cancer": "yes"}) == pytest.approx(0.05, abs=1e-12)


def test_joint_requires_all_decisions(m1):
    with pytest.raises(UnknownVariable):
        joint(m1, {})
    with pytest.raises(UnknownVariable):
        joint(m1, {"smoke": "maybe"})


@pytest.mark.parametrize("extra", ["smok", "lung_cancer"])
def test_decision_keys_must_name_decisions(m1, extra):
    decisions = {"smoke": "yes", extra: "no"}
    with pytest.raises(UnknownVariable):
        joint(m1, decisions)
    with pytest.raises(UnknownVariable):
        posterior(m1, decisions, {}, ["lung_cancer"])


def test_posterior_fig2a_marginal(fig2a):
    f = posterior(fig2a, {"smoke": "no"}, {}, ["lung_cancer"])
    assert f.value({"lung_cancer": "yes"}) == pytest.approx(
        0.7 * 0.03 + 0.3 * 0.1, abs=1e-12)


def test_posterior_fig2a_diagnostic(fig2a):
    f = posterior(fig2a, {"smoke": "yes"}, {"lung_cancer": "yes"},
                  ["genotype"])
    assert f.value({"genotype": "g1"}) == pytest.approx(7 / 15, abs=1e-12)
    assert f.value({"genotype": "g2"}) == pytest.approx(8 / 15, abs=1e-12)


def test_posterior_coin_evidence_pins_coin(coin):
    f = posterior(coin, {"d": "heads"}, {"w": "win"}, ["c"])
    assert f.value({"c": "heads"}) == pytest.approx(1.0, abs=1e-12)


def _world_table_answer(d):
    table = WorldTable(d)
    return ([(w.assignment, w.weight) for w in table.worlds],
            {x: v.tolist() for x, v in table.values.items()},
            [table.fixed_given(x, ()) for x in table.values])


def _posterior_answer(d):
    return posterior(d, {"smoke": "yes"}, {"lung_cancer": "yes"},
                     ["genotype"]).values.tolist()


@pytest.mark.parametrize("answer", [_world_table_answer, _posterior_answer])
def test_hcf_diagram_argument_gives_the_diagrams_answer(fig2a, answer):
    h = to_hcf(fig2a)
    assert answer(h) == answer(h.diagram)


def _functional_worlds_answer(d):
    return [(w.assignment, w.weight) for w in functional_worlds(d)]


def _count_worlds_answer(d):
    return count_worlds(d)


def _propagate_answer(d):
    b = _diagram_of(d)
    instances = WorldTable(b).decision_instances
    return [propagate(d, w.assignment, di)
            for w in functional_worlds(b)[:16] for di in instances]


@pytest.mark.parametrize("name", ["fig2a", "coin_utility", "fig1"])
@pytest.mark.parametrize("answer", [
    _functional_worlds_answer, _count_worlds_answer, _propagate_answer])
def test_hcf_diagram_argument_gives_the_diagrams_world_answer(
        request, name, answer):
    h = to_hcf(request.getfixturevalue(name))
    assert answer(h) == answer(h.diagram)


def _joint_answer(d):
    b = _diagram_of(d)
    return joint(d, {x: b.node(x).states[-1] for x in b.decisions()}
                 ).values.tolist()


def _expected_utility_answer(d):
    b = _diagram_of(d)
    policy = Policy({x: () for x in b.decisions()},
                    {x: {(): b.node(x).states[-1]} for x in b.decisions()})
    return expected_utility(d, policy)


def _optimal_policy_answer(d):
    return optimal_policy(d)


def _value_of_information_answer(d):
    b = _diagram_of(d)
    observed = next(x for x in b.uncertain() if x in b.fixed_nodes())
    return value_of_information(d, observed, b.decision_order[-1])


@pytest.mark.parametrize("name", ["fig2a", "coin_utility", "fig1"])
@pytest.mark.parametrize("answer", [
    _joint_answer, _expected_utility_answer, _optimal_policy_answer,
    _value_of_information_answer])
def test_hcf_diagram_argument_gives_the_diagrams_utility_answer(
        request, name, answer):
    h = to_hcf(request.getfixturevalue(name))
    assert answer(h) == answer(h.diagram)


@pytest.mark.parametrize("evidence,query,error", [
    ({"smoke": "yes"}, ["lung_cancer"], "smoke is not an uncertain variable"),
    ({}, ["smoke"], "smoke is not an uncertain variable"),
    ({"lung_cancer": "maybe"}, [], "'maybe' is not a state of lung_cancer"),
])
def test_posterior_checks_evidence_and_query(m1, evidence, query, error):
    with pytest.raises(UnknownVariable, match=f"^{error}$"):
        posterior(m1, {"smoke": "yes"}, evidence, query)


def test_posterior_rejects_overlap(coin):
    with pytest.raises(ValueError):
        posterior(coin, {"d": "heads"}, {"c": "heads"}, ["c"])


def test_posterior_zero_probability_evidence():
    c1 = chance_node("c1", ["0", "1"], [], {(): [0.5, 0.5]})
    c2 = chance_node("c2", ["0", "1"], [], {(): [0.5, 0.5]})
    w = chance_node("w", ["0", "1"], ["c1"],
                    {("0",): [1.0, 0.0], ("1",): [0.0, 1.0]},
                    deterministic=True)
    d = Diagram((c1, c2, w), (("c1", "w"),))
    with pytest.raises(ZeroProbabilityEvidence):
        posterior(d, {}, {"c1": "0", "w": "1"}, ["c2"])


def test_set_decision_composes_at_query_time():
    genotype = chance_node("genotype", ["g1", "g2"], [], {(): [0.7, 0.3]})
    lc = chance_node("lc", ["no", "yes"], ["genotype"], {
        ("g1",): [0.97, 0.03], ("g2",): [0.7, 0.3]})
    s_lc = set_decision_node("s_lc", ["no", "yes"], "lc")
    d = Diagram((s_lc, genotype, lc),
                (("s_lc", "lc"), ("genotype", "lc")), (), ("s_lc",),
                causal=True)
    f = marginalize(joint(d, {"s_lc": "do_nothing"}), "genotype")
    assert f.value({"lc": "yes"}) == pytest.approx(0.111, abs=1e-12)
    f = marginalize(joint(d, {"s_lc": "set=yes"}), "genotype")
    assert f.value({"lc": "yes"}) == pytest.approx(1.0, abs=1e-12)
    g = posterior(d, {"s_lc": "set=no"}, {}, ["lc"])
    assert g.value({"lc": "no"}) == pytest.approx(1.0, abs=1e-12)


def test_joint_without_uncertain_variables_is_the_unit_factor():
    d = Diagram((decision_node("d", ["a", "b"]),), (), (), ("d",))
    f = joint(d, {"d": "a"})
    assert f.scope == () and f.total() == 1.0
    assert inference.eliminate([], ()).total() == 1.0


def test_joint_matches_enumeration_with_set_decisions():
    set_decisions = 0
    for seed in range(60):
        d = random_policy_diagram(seed)
        set_decisions += any(d.node(x).set_decision_for for x in d.decisions())
        for di in enumerate_instances(parent_variables(d, d.decisions())):
            got, want = joint(d, di), enumerate_joint(d, di)
            assert got.scope == want.scope and got.states == want.states
            assert np.max(np.abs(got.values - want.values)) <= 1e-15, seed
    assert set_decisions >= 20


# ---------------------------------------------------------------------------
# Variable elimination agrees with brute-force enumeration


def _conditional_from_joint(f, evidence, query):
    for v, s in evidence.items():
        if v in f.scope:
            f = f.reduce(v, s)
    for v in f.scope:
        if v not in query:
            f = marginalize(f, v)
    return f.normalize()


@pytest.mark.parametrize("seed", SEEDED)
def test_posterior_matches_enumeration(seed):
    import random
    d = random_diagram(seed, n_chance=4, max_states=3, n_decisions=2)
    assert validate_diagram(d) == []
    rng = random.Random(seed + 31)
    for combo in itertools.product(["a0", "a1"], repeat=2):
        decisions = {"d0": combo[0], "d1": combo[1]}
        full = enumerate_joint(d, decisions)
        chance = d.uncertain()
        rng.shuffle(chance)
        query = [chance[0]]
        evidence = {}
        for v in chance[1:1 + rng.randint(0, 2)]:
            evidence[v] = rng.choice(d.node(v).states)
        try:
            want = _conditional_from_joint(full, evidence, query)
        except ZeroProbabilityEvidence:
            with pytest.raises(ZeroProbabilityEvidence):
                posterior(d, decisions, evidence, query)
            continue
        got = posterior(d, decisions, evidence, query)
        for s in d.node(query[0]).states:
            assert got.value({query[0]: s}) == pytest.approx(
                want.value({query[0]: s}), abs=1e-10)


def _pruning_corpus():
    """Diagrams with barren variables: plain and policy diagrams (set
    decisions included) and their canonical forms, whose decision
    descendants are deterministic.  A canonical form is skipped when
    its joint has more than 2,048 cells."""
    for seed in range(60):
        yield random_diagram(seed, n_chance=5, max_states=3)
        yield random_policy_diagram(seed, n_chance=5)
        for d in (random_diagram(seed, n_chance=3, max_states=2),
                  random_policy_diagram(seed, n_chance=3)):
            h = to_hcf(d, assume_causal=True).diagram
            if np.prod([len(h.node(x).states) for x in h.uncertain()]) \
                    <= 2048:
                yield h


def test_posterior_with_barren_variables_matches_enumeration():
    """Only the query, the evidence and their ancestors enter the
    elimination; the answer is the enumerated joint's conditional, and
    impossible evidence is still reported."""
    covered = dict.fromkeys(["barren", "barren set decision target",
                             "barren deterministic", "zero probability",
                             "two-variable query"], 0)
    n = 0
    for n, d in enumerate(_pruning_corpus(), 1):
        rng = random.Random(n)
        decisions = {x: rng.choice(d.node(x).states) for x in d.decisions()}
        full = enumerate_joint(d, decisions)
        for _ in range(3):
            chance = d.uncertain()
            rng.shuffle(chance)
            query = chance[:rng.randint(1, 2)]
            evidence = {v: rng.choice(d.node(v).states)
                        for v in chance[len(query):][:rng.randint(0, 2)]}
            dropped = barren(d, query + list(evidence))
            covered["barren"] += bool(dropped)
            covered["barren set decision target"] += any(
                d.node(s).set_decision_for in dropped
                for s in d.decisions())
            covered["barren deterministic"] += any(
                d.node(x).kind == "deterministic" for x in dropped)
            try:
                want = _conditional_from_joint(full, evidence, query)
            except ZeroProbabilityEvidence:
                covered["zero probability"] += 1
                with pytest.raises(ZeroProbabilityEvidence):
                    posterior(d, decisions, evidence, query)
                continue
            got = posterior(d, decisions, evidence, query)
            covered["two-variable query"] += len(query) == 2
            assert got.scope == tuple(query), n
            order = [want.scope.index(v) for v in query]
            assert np.max(np.abs(got.values - np.transpose(
                want.values, order))) <= 1e-12, n
    assert n >= 200 and all(covered.values()), (n, covered)


def test_posterior_rejects_a_repeated_query_variable(m1):
    with pytest.raises(ValueError,
                       match="query names lung_cancer more than once"):
        posterior(m1, {"smoke": "yes"}, {}, ["lung_cancer", "lung_cancer"])


# ---------------------------------------------------------------------------
# One contraction per elimination step


def _eliminate_by_products(factors, keep):
    """The product of ``factors`` by the reference ``multiply``, every
    variable outside ``keep`` summed out by ``marginalize``, as an array
    over ``keep`` in that order."""
    prod = Factor((), (), 1.0)
    for f in factors:
        prod = multiply(prod, f)
    for v in prod.scope:
        if v not in keep:
            prod = marginalize(prod, v)
    return np.transpose(prod.values, [prod.scope.index(v) for v in keep])


@pytest.fixture
def by_elimination(monkeypatch):
    """Every ``eliminate`` sums variables out one by one."""
    monkeypatch.setattr(inference, "FUSED_CELLS", 0)


@pytest.fixture
def in_one_contraction(monkeypatch):
    """Every ``eliminate`` of up to 63 factors whose product has at
    most 2^24 cells times the factor count is one contraction."""
    monkeypatch.setattr(inference, "FUSED_CELLS", 1 << 24)


def test_eliminate_matches_multiply_and_marginalize(by_elimination):
    _check_eliminate_against_products()


def test_one_contraction_matches_multiply_and_marginalize(in_one_contraction):
    _check_eliminate_against_products()


def _check_eliminate_against_products():
    """Random factor sets, signed values as utilities have: scalar
    factors, a hub variable read by most factors, and ``keep`` in any
    order, empty included."""
    covered = dict.fromkeys(["scalar factor", "hub in five factors",
                             "keep out of order", "keep empty"], 0)
    for seed in range(300):
        states, factors, keep = _seeded_factor_set(seed)
        got = inference.eliminate(factors, keep)
        assert got.scope == tuple(keep), seed
        assert got.states == tuple(states[v] for v in keep), seed
        want = _eliminate_by_products(factors, keep)
        assert got.values.shape == want.shape, seed
        assert np.max(np.abs(got.values - want), initial=0.0) <= 1e-12, seed
        read = list(dict.fromkeys(v for f in factors for v in f.scope))
        covered["scalar factor"] += any(not f.scope for f in factors)
        covered["hub in five factors"] += sum(
            "v0" in f.scope for f in factors) >= 5
        covered["keep out of order"] += keep != sorted(
            keep, key=read.index)
        covered["keep empty"] += not keep
    assert all(covered.values()), covered


def _seeded_factor_set(seed):
    """The states of each variable, the factors over them and ``keep``,
    drawn from ``seed``."""
    rng = random.Random(seed)
    states = {f"v{i}": tuple(f"s{j}" for j in range(rng.randint(1, 3)))
              for i in range(rng.randint(1, 7))}
    names = list(states)
    factors = []
    for _ in range(rng.randint(1, 7)):
        scope = rng.sample(names, rng.randint(0, min(3, len(names))))
        if rng.random() < 0.6 and "v0" not in scope:
            scope.append("v0")
        rng.shuffle(scope)
        shape = [len(states[v]) for v in scope]
        factors.append(Factor(scope, [states[v] for v in scope],
                              np.array([rng.uniform(-1.0, 2.0) for _ in
                                        range(int(np.prod(shape)))]
                                       ).reshape(shape)))
    read = list(dict.fromkeys(v for f in factors for v in f.scope))
    return states, factors, rng.sample(read, rng.randint(0, len(read)))


def test_one_contraction_is_taken_exactly_within_fused_cells(monkeypatch):
    """A product of at most ``FUSED_CELLS`` cells times the factor count
    over at most 63 factors is planned as one contraction that reads
    every factor, and any other that sums a variable out in steps.  A
    joint sums nothing out, so both plans of it are one contraction: the
    chains ask for their last variable, a product of the same size."""
    stepped = []
    plan = inference._plan

    def recorded(scopes, size, keep):
        made = plan(scopes, size, keep)
        if len(made) > 1:
            stepped.append(len(scopes))
        else:
            assert made == [(None, tuple(range(len(scopes))), tuple(keep))]
        return made
    monkeypatch.setattr(inference, "_plan", recorded)
    for seed in range(8):
        d = random_policy_diagram(seed)
        value_of_information(d, "x0", d.decision_order[-1])
    # chain(12): 2^12 cells times 12 factors.
    posterior(chain(12), {"d": "a"}, {}, ["x11"])
    # star(n) with its children observed: n + 2 factors over r and h.
    for n in (61, 62):
        posterior(star(n), {"d": "a"}, {f"c{i}": "0" for i in range(n)},
                  ["h"])
        assert stepped == ([] if n == 61 else [64])
    posterior(chain(13), {"d": "a"}, {}, ["x12"])
    monkeypatch.setattr(inference, "FUSED_CELLS", 2 ** 12 * 12 - 1)
    posterior(chain(12), {"d": "a"}, {}, ["x11"])
    assert stepped == [64, 13, 12]


@pytest.mark.parametrize("fused_cells", [0, inference.FUSED_CELLS])
def test_eliminate_runs_the_plan_in_order(monkeypatch, fused_cells):
    """Each ``_contract`` call takes the operands and the output scope
    of the next ``_plan`` entry, over the seeded factor sets and the
    posterior of ``h`` on ``star(130)``, whose last contraction takes
    two folds of 62 factors first."""
    monkeypatch.setattr(inference, "FUSED_CELLS", fused_cells)
    planned, contracted = [], []
    plan, contract = inference._plan, inference._contract

    def recorded_plan(scopes, size, keep):
        made = plan(scopes, size, keep)
        known = [*scopes, *(out for _, _, out in made)]
        planned.extend(([known[i] for i in operands], out)
                       for _, operands, out in made)
        return made

    def recorded_contract(factors, keep, states):
        contracted.append(([f.scope for f in factors], tuple(keep)))
        return contract(factors, keep, states)
    monkeypatch.setattr(inference, "_plan", recorded_plan)
    monkeypatch.setattr(inference, "_contract", recorded_contract)
    for seed in range(300):
        _, factors, keep = _seeded_factor_set(seed)
        inference.eliminate(factors, keep)
    assert contracted == planned
    planned.clear()
    contracted.clear()
    posterior(star(130), {"d": "a"}, {f"c{i}": "0" for i in range(130)},
              ["h"])
    assert contracted == planned
    assert [len(operands) for operands, _ in planned] == [2, 62, 62, 9]


def _star_posteriors(d, evidence):
    """P(r | d=a, evidence) and P(h | d=a, evidence) summed by hand."""
    def p(x, key, state):
        return d.node(x).table.rows[key][int(state)]
    weight = {(r, h): p("r", ("a",), r) * p("h", (r,), h) * math.prod(
        p(c, (h,), s) for c, s in evidence.items())
        for r in "01" for h in "01"}
    z = sum(weight.values())
    return ([sum(w for (r, _), w in weight.items() if r == x) / z
             for x in "01"],
            [sum(w for (_, h), w in weight.items() if h == x) / z
             for x in "01"])


@pytest.mark.parametrize("n", [63, 70, 130])
def test_posterior_past_the_einsum_operand_limit(n):
    """More factors than ``np.einsum`` takes: the query ``h`` contracts
    them all at the end, the query ``r`` when ``h`` is summed out."""
    d = star(n, n)
    evidence = {f"c{i}": "01"[i % 3 == 0] for i in range(n)}
    want = _star_posteriors(d, evidence)
    for x, w in zip("rh", want):
        got = posterior(d, {"d": "a"}, evidence, [x]).values
        assert np.max(np.abs(got - w)) <= 1e-12, (x, got, w)


def test_long_operand_lists_are_folded_and_sized_first(monkeypatch):
    """Seventy factors over ``x`` and ``y``: eliminating ``x`` first
    contracts 62 of them to a factor over both, sized before any
    contraction runs."""
    rng = np.random.default_rng(7)
    states = [("0", "1"), ("0", "1", "2")]
    factors = [Factor(["x", "y"], states, rng.uniform(0.8, 1.2, (2, 3)))
               for _ in range(70)]
    for keep in ([], ["y"], ["y", "x"]):
        want = _eliminate_by_products(factors, keep)
        got = inference.eliminate(factors, keep).values
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)),
                      initial=0.0) <= 1e-12, keep
    outputs = []
    monkeypatch.setattr(inference, "_contract",
                        lambda fs, keep, states: outputs.append(keep))
    monkeypatch.setattr(inference, "FACTOR_CELL_CAP", 5)
    with pytest.raises(FactorCapExceeded, match=(
            r"^6 factor cells for eliminating x exceed cap 5$")):
        inference.eliminate(factors, [])
    assert outputs == []


# ---------------------------------------------------------------------------
# Functional worlds and the semantic oracles


def test_functional_worlds_coin(coin):
    worlds = functional_worlds(coin)
    assert len(worlds) == 2
    assert all(w.weight == pytest.approx(0.5) for w in worlds)
    assert {w.assignment["c"] for w in worlds} == {"heads", "tails"}


def test_propagate_coin(coin):
    assert propagate(coin, {"c": "heads"}, {"d": "heads"})["w"] == "win"
    assert propagate(coin, {"c": "heads"}, {"d": "tails"})["w"] == "lose"


def test_propagate_utility_gets_value_label(coin_utility):
    out = propagate(coin_utility, {"c": "heads"}, {"d": "heads"})
    assert out["payoff"] == "1"


def test_propagate_rejects_non_hcf(m1):
    with pytest.raises(NotHcf):
        propagate(m1, {}, {"smoke": "yes"})


@pytest.mark.parametrize("world,decisions,error", [
    ({"c": "heads"}, {}, "missing decision binding for d"),
    ({}, {"d": "heads"}, "missing world binding for c"),
    ({"c": "heads", "zz": "x"}, {"d": "heads"}, "unknown variable 'zz'"),
    ({"c": "heads"}, {"d": "heads", "zz": "x"}, "unknown variable 'zz'"),
    ({"c": "edge"}, {"d": "heads"}, "'edge' is not a state of c"),
    ({"c": "heads"}, {"d": "edge"}, "'edge' is not an alternative of d"),
    ({"c": "heads", "w": "lose"}, {"d": "heads"}, "w is not a fixed variable"),
    ({"c": "heads", "d": "tails"}, {"d": "heads"},
     "d is not an uncertain variable"),
])
def test_propagate_needs_every_binding(coin, world, decisions, error):
    with pytest.raises(UnknownVariable, match=f"^{error}$"):
        propagate(coin, world, decisions)


def test_oracle_fixed_set_coin(coin):
    assert not oracle_fixed_set_member(coin, "w")
    assert oracle_fixed_set_member(coin, "w", {"d"})
    assert not oracle_fixed_set_member(coin, "w", {"c"})
    assert oracle_fixed_set_member(coin, "c")


def test_oracle_rejects_decision_target(coin):
    with pytest.raises(UnknownVariable):
        oracle_fixed_set_member(coin, "d")


def test_oracle_fixed_set_hcf(fig6a):
    h = to_hcf(fig6a)
    assert not oracle_fixed_set_member(h, "cardio")
    assert oracle_fixed_set_member(h, "cardio", {"diet"})
    assert oracle_fixed_set_member(h, "lung_cancer", {"smoke"})
    assert not oracle_fixed_set_member(h, "lung_cancer", {"diet"})
    for spec in h.mechanisms:
        assert oracle_fixed_set_member(h, spec.name)


def test_oracle_causes_coin(coin):
    report = oracle_causes(coin, "w")
    assert report.cause_sets == (frozenset({"d"}),)
    assert report.method == "oracle"


def test_oracle_causes_fixed_target(coin):
    report = oracle_causes(coin, "c")
    assert report.cause_sets == ()
    assert "fixed set" in report.reason


def test_oracle_causes_checks_fixed_target_before_budget(monkeypatch, coin):
    monkeypatch.setattr(graphs, "MINIMAL_SET_NODE_BUDGET", 0)
    assert oracle_causes(coin, "c").cause_sets == ()
    with pytest.raises(NodeBudgetExceeded):
        oracle_causes(coin, "w")


def test_oracle_causes_budget_counts_decisions_and_their_descendants(
        monkeypatch, fig1):
    nx = pytest.importorskip("networkx")
    h = to_hcf(fig1)
    d = h.diagram
    g = nx.DiGraph(d.relevance_arcs + d.information_arcs)
    D = set(d.decisions())
    reached = D.union(*(nx.descendants(g, x) for x in D))
    pool = reached & (set(d.uncertain()) | D) - {"life"}
    assert len(pool) == 4 < len(set(d.uncertain()) | D) - 1
    want = oracle_causes(h, "life").cause_sets
    monkeypatch.setattr(graphs, "MINIMAL_SET_NODE_BUDGET", len(pool))
    assert oracle_causes(h, "life").cause_sets == want
    monkeypatch.setattr(graphs, "MINIMAL_SET_NODE_BUDGET", len(pool) - 1)
    with pytest.raises(NodeBudgetExceeded,
                       match=f"^{len(pool)} candidate nodes exceed budget"):
        oracle_causes(h, "life")


def _oracle_corpus():
    """Canonical forms of at most 12 nodes, some with utility targets."""
    for seed in range(1200):
        rng = random.Random(seed)
        yield to_hcf(random_functional_diagram(
            seed, n_roots=rng.randint(1, 2), n_det=rng.randint(2, 4),
            n_decisions=rng.randint(1, 2)))
    for seed in range(400):
        yield to_hcf(random_diagram(seed, n_chance=2, max_states=2,
                                    n_decisions=1 + seed % 2,
                                    with_utility=seed % 3 == 0))


def test_oracle_causes_pruned_pool_gives_the_full_pool_answer():
    queries = 0
    for h in _oracle_corpus():
        d = h.diagram
        assert len(d.nodes) <= 12
        table = WorldTable(d)
        utility = [d.utility().name] if d.utility() else []
        for x in d.uncertain() + utility:
            if table.fixed_given(x, ()):
                continue
            pool = (set(d.uncertain()) | set(d.decisions())) - {x}
            full = minimal_sets(
                pool, lambda C: table.fixed_given(x, sorted(C)))
            assert list(oracle_causes(h, x).cause_sets) == full
            queries += 1
    assert queries >= 2000


def test_oracle_causes_m1_hcf(m1):
    report = oracle_causes(to_hcf(m1), "lung_cancer")
    assert report.cause_sets == (frozenset({"smoke"}),)


def test_oracle_causes_utility_target(fig2a):
    report = oracle_causes(to_hcf(fig2a), "payoff")
    assert set(report.cause_sets) == {frozenset({"smoke"}),
                                      frozenset({"lung_cancer", "pleasure"})}


def test_world_pair_cap(monkeypatch, coin):
    with pytest.raises(WorldCapExceeded):
        WorldTable(coin, world_pair_cap=1)
    monkeypatch.setattr(inference, "WORLD_PAIR_CAP", 1)
    for ask in (lambda: WorldTable(coin),
                lambda: oracle_fixed_set_member(coin, "w"),
                lambda: oracle_causes(coin, "w")):
        with pytest.raises(WorldCapExceeded,
                           match="^8 world/decision pairs exceed cap 1$"):
            ask()
    assert oracle_causes(coin, "w", world_pair_cap=8).cause_sets


def test_world_cap_trips_before_the_worlds_are_listed(monkeypatch):
    h = to_hcf(random_diagram(55, n_chance=4, max_states=3, n_decisions=2))
    assert count_worlds(h.diagram) == 15_116_544

    def listed(diagram):
        raise AssertionError("functional worlds listed before the cap check")
    monkeypatch.setattr(inference, "_world_arrays", listed)
    with pytest.raises(WorldCapExceeded, match="241864704 world/decision"):
        WorldTable(h.diagram)


def test_functional_worlds_trip_the_world_cap_before_listing(
        monkeypatch, m1):
    """The cap counts worlds, one pair each, before any is listed."""
    h = to_hcf(random_diagram(55, n_chance=4, max_states=3, n_decisions=2))

    def listed(tables):
        raise AssertionError("functional worlds listed before the cap check")
    with monkeypatch.context() as patched:
        patched.setattr(inference, "_world_arrays", listed)
        with pytest.raises(WorldCapExceeded, match=(
                "^15116544 worlds exceed cap 10000000$")):
            functional_worlds(h.diagram)
    d = to_hcf(m1).diagram
    monkeypatch.setattr(inference, "WORLD_PAIR_CAP", 4)
    assert len(functional_worlds(d)) == 4
    monkeypatch.setattr(inference, "WORLD_PAIR_CAP", 3)
    with pytest.raises(WorldCapExceeded,
                       match="^4 worlds exceed cap 3$"):
        functional_worlds(d)


def _uneven_support():
    """b is one-hot under a=0 and uniform under a=1: 3 worlds, where the
    widest support rows bound them by 2 * 2.  Two decision instances."""
    a = chance_node("a", ["0", "1"], [], {(): [0.5, 0.5]})
    b = chance_node("b", ["0", "1"], ["a"], {("0",): [1.0, 0.0],
                                             ("1",): [0.5, 0.5]})
    x = chance_node("x", ["0", "1"], ["d", "b"], {
        (i, j): [float(i == j), float(i != j)] for i in "01" for j in "01"},
        deterministic=True)
    return Diagram((a, b, decision_node("d", ["0", "1"]), x),
                   (("a", "b"), ("b", "x"), ("d", "x")))


def test_world_cap_between_the_exact_and_the_bounded_pair_counts(
        monkeypatch):
    d = _uneven_support()
    assert count_worlds(d) == 3
    assert len(WorldTable(d, world_pair_cap=14).worlds) == 3
    assert len(WorldTable(d, world_pair_cap=12).worlds) == 3
    with pytest.raises(WorldCapExceeded,
                       match="^12 world/decision pairs exceed cap 11$"):
        WorldTable(d, world_pair_cap=11)

    def counted(tables):
        raise AssertionError("worlds counted under a bound within the cap")
    monkeypatch.setattr(inference, "_world_count", counted)
    assert len(WorldTable(d, world_pair_cap=16).worlds) == 3


def test_non_fixed_parent_is_reported_before_the_cap(m1):
    declared = m1._replace(declared_fixed=frozenset({"lung_cancer"}))
    with pytest.raises(NotHcf, match="non-fixed parent"):
        WorldTable(declared, world_pair_cap=1)


def _ask_chain(seed):
    d = chain(8 + seed, seed)
    return lambda: posterior(d, {"d": "b"}, {"x1": "0"}, [f"x{7 + seed}"])


def _ask_grid(seed):
    rng = random.Random(seed)
    d = grid(4, 4 + seed % 3, seed)
    *above, corner = d.uncertain()
    given = dict.fromkeys(rng.sample(above, 2), "1")
    return lambda: posterior(d, {"d": "a"}, given, [corner])


def _ask_joint(seed):
    d = chain(4 + seed, seed)
    return lambda: joint(d, {"d": "a"})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("asked", [_ask_chain, _ask_grid, _ask_joint])
def test_factor_cap_trips_exactly_past_the_largest_contraction(
        monkeypatch, by_elimination, asked, seed):
    """Every contraction's output is sized before the first runs: the
    cap at the largest output answers alike, one cell less trips with
    that size named and no contraction run."""
    _check_cap_at_the_largest_contraction(monkeypatch, asked(seed))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("asked", [_ask_chain, _ask_grid, _ask_joint])
def test_factor_cap_trips_exactly_past_the_one_contraction(
        monkeypatch, in_one_contraction, asked, seed):
    """The same rule where a product within ``FUSED_CELLS`` is one
    contraction: the 24-variable grid (seed 2) stays on elimination."""
    _check_cap_at_the_largest_contraction(monkeypatch, asked(seed))


def _check_cap_at_the_largest_contraction(monkeypatch, ask):
    outputs = []
    contract = inference._contract

    def recorded(factors, keep, states):
        outputs.append(contract(factors, keep, states))
        return outputs[-1]
    monkeypatch.setattr(inference, "_contract", recorded)
    want = ask().values.tobytes()
    largest = max(f.values.size for f in outputs)
    monkeypatch.setattr(inference, "FACTOR_CELL_CAP", largest)
    assert ask().values.tobytes() == want
    monkeypatch.setattr(inference, "FACTOR_CELL_CAP", largest - 1)
    outputs.clear()
    with pytest.raises(FactorCapExceeded, match=(
            rf"^{largest} factor cells for (eliminating \S+|the result) "
            rf"exceed cap {largest - 1}$")):
        ask()
    assert outputs == []


def test_world_count_past_the_factor_cap_names_both_caps(
        monkeypatch, by_elimination, m1):
    monkeypatch.setattr(inference, "FACTOR_CELL_CAP", 0)
    with pytest.raises(WorldCapExceeded, match=(
            r"^a bound of 16 world/decision pairs exceeds cap 1, and "
            r"counting them: 1 factor cells for eliminating "
            r"lung_cancer\(smoke\) exceed cap 0$")):
        WorldTable(to_hcf(m1).diagram, world_pair_cap=1)


def test_world_count_in_one_contraction_names_the_result(monkeypatch, m1):
    monkeypatch.setattr(inference, "FACTOR_CELL_CAP", 0)
    with pytest.raises(WorldCapExceeded, match=(
            r"^a bound of 16 world/decision pairs exceeds cap 1, and "
            r"counting them: 1 factor cells for the result exceed cap 0$")):
        WorldTable(to_hcf(m1).diagram, world_pair_cap=1)


@pytest.mark.parametrize("seed", range(20))
def test_count_worlds_matches_functional_worlds(seed):
    d = to_hcf(random_diagram(seed, n_chance=4, max_states=2)).diagram
    assert count_worlds(d) == len(functional_worlds(d))
    # Fixed deterministic nodes put zeros in the support.
    f = random_functional_diagram(seed, n_roots=3, n_det=4)
    assert count_worlds(f) == len(functional_worlds(f))


def _listing_corpus():
    """Canonical forms with fixed chance and deterministic nodes, and
    HCFs of policy diagrams with a set decision, its target also
    declared fixed where its parents all are."""
    for seed in range(60):
        yield to_hcf(random_diagram(seed, n_chance=3, max_states=3,
                                    n_decisions=1 + seed % 2)).diagram
        yield random_functional_diagram(seed, n_roots=2, n_det=3,
                                        n_decisions=2)
    for seed in range(120):
        d = to_hcf(random_policy_diagram(seed, n_chance=3),
                   assume_causal=True).diagram
        target = _set_target(d)
        if target is None:
            continue
        yield d
        if set(d.node(target).table.parent_order) <= d.fixed_nodes():
            yield d._replace(declared_fixed=frozenset({target}))


def _set_target(d):
    return next((d.node(x).set_decision_for for x in d.decisions()
                 if d.node(x).set_decision_for), None)


def test_functional_worlds_match_the_literal_listing():
    kinds = {"plain": 0, "set": 0, "fixed set": 0}
    for d in _listing_corpus():
        if count_worlds(d) > 4096:
            continue
        want = enumerate_worlds(d)
        got = functional_worlds(d)
        assert [list(w.assignment.items()) for w in got] == \
            [list(w.assignment.items()) for w in want]
        assert all(abs(a.weight - b.weight) <= 1e-15
                   for a, b in zip(got, want))
        assert len(WorldTable(d).worlds) == len(want)
        target = _set_target(d)
        kinds["fixed set" if target in d.fixed_nodes() else
              "set" if target else "plain"] += 1
    assert sum(kinds.values()) >= 100
    assert kinds["set"] >= 20 and kinds["fixed set"] >= 10, kinds


def _rows_from_joint(d, table):
    """For each world and decision instance, the variables' values at
    the one positive cell of ``enumerate_joint(d, di)`` that agrees with
    the world."""
    rows = [[] for _ in table.worlds]
    for di in table.decision_instances:
        f = enumerate_joint(d, di)
        free = [x for x in f.scope if x not in d.fixed_nodes()]
        for row, world in zip(rows, table.worlds):
            at = tuple(f.states[i].index(world.assignment[x])
                       if x in world.assignment else slice(None)
                       for i, x in enumerate(f.scope))
            cells = np.argwhere(f.values[at] > 0.0)
            assert len(cells) == 1
            row.append({**world.assignment, **di,
                        **{x: d.node(x).states[i]
                           for x, i in zip(free, cells[0])}})
    return rows


def _grouped_fixed_given(rows, target, C):
    for row in rows:
        seen = {}
        for cell in row:
            key = tuple(cell[c] for c in C)
            if seen.setdefault(key, cell[target]) != cell[target]:
                return False
    return True


def _canonical_forms():
    for seed in range(60):
        yield to_hcf(random_diagram(seed, n_chance=3, max_states=2,
                                    n_decisions=2)).diagram
        yield random_functional_diagram(seed, n_roots=2, n_det=3,
                                        n_decisions=2)


def test_array_oracle_matches_joint_and_grouping():
    checked = 0
    for d in _canonical_forms():
        if np.prod([len(d.node(x).states) for x in d.uncertain()]) > 4096:
            continue
        checked += 1
        table = WorldTable(d)
        rows = _rows_from_joint(d, table)
        for x in d.uncertain():
            states = np.array(d.node(x).states)
            want = [[cell[x] for cell in row] for row in rows]
            assert states[table.values[x]].tolist() == want
        pool = sorted(set(d.uncertain()) | set(d.decisions()))
        for x in d.uncertain():
            others = [p for p in pool if p != x]
            for C in itertools.chain.from_iterable(
                    itertools.combinations(others, k) for k in range(3)):
                assert table.fixed_given(x, C) == \
                    _grouped_fixed_given(rows, x, C), (x, C)
    assert checked >= 100


def _rows_by_propagation(d, table):
    """Each literal world propagated under each decision instance,
    utilities as their value labels."""
    return [[propagate(d, w.assignment, di) for di in table.decision_instances]
            for w in enumerate_worlds(d)]


def _check_against_grouping(d, conditioning_pool=None):
    """Every target, utility included, against every conditioning set
    of at most two; returns the number of sets that held."""
    table = WorldTable(d)
    rows = _rows_by_propagation(d, table)
    pool = sorted(conditioning_pool or set(d.uncertain()) | set(d.decisions()))
    utility = [d.utility().name] if d.utility() else []
    held = 0
    for x in d.uncertain() + utility:
        others = [p for p in pool if p != x]
        for C in itertools.chain.from_iterable(
                itertools.combinations(others, k) for k in range(3)):
            want = _grouped_fixed_given(rows, x, C)
            assert table.fixed_given(x, C) == want, (x, C)
            held += want
    return table, held


def _coin_with_payoff(prior):
    c = chance_node("c", ["h", "t"], [], {(): prior})
    d = decision_node("d", ["h", "t"])
    w = chance_node("w", ["win", "lose"], ["c", "d"],
                    {(a, b): [float(a == b), float(a != b)]
                     for a in "ht" for b in "ht"}, deterministic=True)
    u = utility_node("u", ["w", "d"], {("win", "h"): 1.0, ("win", "t"): 2.0,
                                       ("lose", "h"): 0.0, ("lose", "t"): 0.0})
    return Diagram((c, d, w, u), (("c", "w"), ("d", "w"), ("w", "u"),
                                  ("d", "u")), (), ("d",))


def test_bitset_oracle_with_one_decision_instance():
    # No decision: one instance, no pair of instances to tell apart.
    c = chance_node("c", ["0", "1"], [], {(): [0.5, 0.5]})
    x = chance_node("x", ["0", "1"], ["c"],
                    {("0",): [1.0, 0.0], ("1",): [0.0, 1.0]},
                    deterministic=True)
    d = Diagram((c, x), (("c", "x"),), (), ())
    table, held = _check_against_grouping(d)
    assert table.decision_instances == [{}]
    assert held == 4 and table.fixed_given("x", ())


def test_bitset_oracle_on_a_one_world_table():
    d = _coin_with_payoff([1.0, 0.0])
    table, _ = _check_against_grouping(d)
    assert [w.assignment for w in table.worlds] == [{"c": "h"}]
    assert not table.fixed_given("w", ())
    assert table.fixed_given("w", ["d"])


def test_bitset_oracle_on_utility_targets():
    d = _coin_with_payoff([0.5, 0.5])
    table, _ = _check_against_grouping(d)
    assert not table.fixed_given("u", ())
    assert table.fixed_given("u", ["w"])
    assert table.fixed_given("u", ["d"])
    assert table.fixed_given("u", ["d", "c"])
    assert not table.fixed_given("u", ["c"])
    assert oracle_causes(d, "u").cause_sets == (frozenset({"d"}),
                                                frozenset({"w"}))


def test_bitset_oracle_conditioning_on_decisions_and_fixed_nodes():
    checked = 0
    for seed in range(24):
        d = to_hcf(random_diagram(seed, n_chance=3, max_states=2,
                                  n_decisions=2,
                                  with_utility=True)).diagram
        if count_worlds(d) > 256:
            continue
        pool = set(d.decisions()) | d.fixed_nodes()
        _check_against_grouping(d, pool)
        checked += 1
    assert checked >= 15


def _first_split_world(table, x, C):
    """A world in which two decision instances agree on C and differ on
    x, by the table's values, or None."""
    v, n = table.values, len(table.decision_instances)
    for i, j in itertools.combinations(range(n), 2):
        split = v[x][:, i] != v[x][:, j]
        for c in C:
            split &= v[c][:, i] == v[c][:, j]
        if split.any():
            return int(split.argmax())
    return None


@pytest.mark.parametrize("seed,n_chance,max_states",
                         [(0, 4, 2), (4, 3, 3)])
def test_big_world_table_matches_propagate(seed, n_chance, max_states):
    """Tables the size of oracle_sweep's heaviest, at least 1024 worlds
    under 4 decision instances, against the reference's ``propagate`` on
    200 seeded worlds of its ``enumerate_worlds``, a route that shares no
    code with the table: every value there, and every ``fixed_given``
    verdict, which must group the sample when it holds and is witnessed
    by a world that the reference splits when it fails."""
    d = to_hcf(random_diagram(seed, n_chance=n_chance, max_states=max_states,
                              n_decisions=2, with_utility=True)).diagram
    table = WorldTable(d)
    worlds = enumerate_worlds(d)
    assert len(worlds) >= 1024 and len(table.decision_instances) == 4
    assert {v.shape for v in table.values.values()} == {(len(worlds), 4)}

    @functools.cache
    def rows(k):
        return [reference.propagate(d, worlds[k].assignment, di)
                for di in table.decision_instances]

    sample = {k: rows(k) for k in
              random.Random(seed).sample(range(len(worlds)), 200)}
    names = d.uncertain() + [d.utility().name]
    for k, row in sample.items():
        for x in names:
            states = value_label_node(d.node(x)).states
            assert [states[i] for i in table.values[x][k]] == \
                [cell[x] for cell in row], (k, x)
    pool = sorted(set(d.uncertain()) | set(d.decisions()))
    verdicts = set()
    for x in names:
        others = [p for p in pool if p != x]
        for C in itertools.chain.from_iterable(
                itertools.combinations(others, k) for k in range(3)):
            fixed = table.fixed_given(x, C)
            verdicts.add(fixed)
            witness = _first_split_world(table, x, C)
            assert fixed == (witness is None), (x, C)
            if fixed:
                assert _grouped_fixed_given(sample.values(), x, C), (x, C)
            else:
                assert not _grouped_fixed_given([rows(witness)], x, C), (x, C)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Graphical analysis is sound for the semantics


@pytest.mark.parametrize("seed", range(6))
def test_graphical_fixed_set_sound_for_oracle(seed):
    d = random_diagram(seed, n_chance=3, max_states=2, n_decisions=1)
    h = to_hcf(d)
    table = WorldTable(h.diagram)
    pool = h.diagram.uncertain() + h.diagram.decisions()
    for k in range(3):
        for C in itertools.combinations(pool, k):
            graphical = graphical_fixed_set(h.diagram, set(C))
            for x in graphical:
                assert table.fixed_given(x, sorted(C))


# ---------------------------------------------------------------------------
# D-map verdicts


def test_m1_is_a_d_map(m1):
    ok, witness = oracle_is_d_map(m1)
    assert ok and witness is None


def test_flat_rows_break_the_d_map_property():
    smoke = decision_node("smoke", ["no", "yes"])
    lc = chance_node("lung_cancer", ["no", "yes"], ["smoke"], {
        ("no",): [0.95, 0.05], ("yes",): [0.95, 0.05]})
    d = Diagram((smoke, lc), (("smoke", "lung_cancer"),), (), ("smoke",))
    ok, witness = oracle_is_d_map(d)
    assert not ok
    assert witness == {"x": "lung_cancer", "y": "smoke", "given": []}


def test_fig2a_is_a_d_map(fig2a):
    ok, witness = oracle_is_d_map(fig2a)
    assert ok, witness


@pytest.mark.parametrize("seed", range(6))
def test_random_diagrams_are_d_maps(seed):
    d = random_diagram(seed, n_chance=3, max_states=2, n_decisions=2)
    ok, witness = oracle_is_d_map(d, max_cond=1)
    assert ok, witness


def test_decision_alternatives_compare_where_z_is_possible():
    """z = 0 only under a0, so P(x | z = 1) is compared between a1 and a2
    alone, and it differs."""
    dec = decision_node("dec", ["a0", "a1", "a2"])
    z = chance_node("z", ["0", "1"], ["dec"], {
        ("a0",): [1.0, 0.0], ("a1",): [0.0, 1.0], ("a2",): [0.0, 1.0]},
        deterministic=True)
    x = chance_node("x", ["0", "1"], ["dec"], {
        ("a0",): [0.5, 0.5], ("a1",): [0.2, 0.8], ("a2",): [0.9, 0.1]})
    d = Diagram((dec, z, x), (("dec", "z"), ("dec", "x")), (), ("dec",))
    assert oracle_is_d_map(d) == (True, None)


def test_max_cond_must_be_non_negative(m1):
    with pytest.raises(ValueError):
        oracle_is_d_map(m1, max_cond=-1)


def _reference_marginal(f, names) -> dict:
    """P(names) summed cell by cell from the joint factor ``f``."""
    out = {}
    for idx in np.ndindex(f.values.shape):
        cell = {v: s[i] for v, s, i in zip(f.scope, f.states, idx)}
        key = tuple(cell[v] for v in names)
        out[key] = out.get(key, 0.0) + float(f.values[idx])
    return out


def _independent_on_reference(d, x, y, Z) -> bool:
    """The oracle's independence test for one pair, on the reference
    joint of each decision instance."""
    decisions = d.decisions()
    joints = [(di, enumerate_joint(d, di))
              for di in enumerate_instances(parent_variables(d, decisions))]
    if y not in decisions:
        for _, f in joints:
            pxyz = _reference_marginal(f, [x, y, *Z])
            pxz = _reference_marginal(f, [x, *Z])
            pyz = _reference_marginal(f, [y, *Z])
            pz = _reference_marginal(f, Z)
            for (a, b, *z), p in pxyz.items():
                n = pz[tuple(z)]
                if n > 0 and abs(p / n - pxz[(a, *z)] / n * pyz[(b, *z)] / n) > TOL:
                    return False
        return True
    conditionals = {}    # (other decisions, x state, z) -> P(x | z) per alternative
    for di, f in joints:
        rest = tuple(v for k, v in sorted(di.items()) if k != y)
        pz = _reference_marginal(f, Z)
        for (a, *z), p in _reference_marginal(f, [x, *Z]).items():
            if pz[tuple(z)] > 0:
                conditionals.setdefault((rest, a, tuple(z)), []).append(
                    p / pz[tuple(z)])
    return all(max(c) - min(c) <= TOL for c in conditionals.values())


def test_d_map_counterexamples_hold_on_the_reference_joint():
    """Each counterexample is a numerical independence on the reference
    joint that networkx finds d-connected."""
    nx = pytest.importorskip("networkx")
    corpus = itertools.chain(
        (random_diagram(seed, n_chance=4, max_states=3, n_decisions=2)
         for seed in range(40)),
        (to_hcf(random_diagram(seed, n_chance=3, max_states=2,
                               n_decisions=1)).diagram for seed in range(40)),
        (random_functional_diagram(seed, n_roots=2, n_det=3, n_decisions=2)
         for seed in range(40)),
        (random_policy_diagram(seed) for seed in range(30)))
    found = {"chance": 0, "decision": 0}
    for d in corpus:
        ok, witness = oracle_is_d_map(d, max_cond=2)
        if ok:
            continue
        x, y, Z = witness["x"], witness["y"], witness["given"]
        found["decision" if y in d.decisions() else "chance"] += 1
        assert _independent_on_reference(d, x, y, Z), witness
        g = nx.DiGraph()
        g.add_nodes_from(d.names())
        g.add_edges_from(d.relevance_arcs)
        rest = set(d.decisions()) - {y}
        assert not nx.is_d_separator(g, {x}, {y}, set(Z) | rest), witness
    assert found["chance"] >= 40 and found["decision"] >= 5, found
