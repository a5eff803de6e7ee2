import itertools
from dataclasses import replace

import numpy as np
import pytest

from decid import (CounterfactualQuery, Diagram, Policy, build_twin,
                   chance_node, counterfactual, decision_node,
                   enumerate_instances, enumerate_policies, expected_utility,
                   functional_worlds, joint, optimal_policy,
                   oracle_fixed_set_member, propagate, to_hcf, utility_node,
                   validate_diagram, value_of_information)
from decid.errors import (CycleIntroduced, NoDecisionOrder, NotHcf,
                          NotObservable, PolicySpaceExceeded, UnknownVariable,
                          ZeroProbabilityEvidence)
from decid.model import TOL, parent_variables

from genmodels import random_diagram, random_policy_diagram


# ---------------------------------------------------------------------------
# Twin construction


def test_twin_m1_shape(m1):
    twin = build_twin(to_hcf(m1))
    assert len(twin.diagram.nodes) == 5
    assert twin.shared == frozenset({"lung_cancer(smoke)"})
    assert twin.primed == {"smoke": "smoke'", "lung_cancer": "lung_cancer'"}
    assert twin.diagram.decision_order == ("smoke", "smoke'")
    assert validate_diagram(twin.diagram) == []


def test_twin_coin_shape(coin):
    twin = build_twin(to_hcf(coin))
    assert len(twin.diagram.nodes) == 5
    assert twin.shared == frozenset({"c"})
    assert set(twin.primed) == {"d", "w"}
    assert validate_diagram(twin.diagram) == []


def test_twin_carries_utility_as_value_node(coin_utility):
    twin = build_twin(to_hcf(coin_utility))
    assert twin.diagram.has("payoff") and twin.diagram.has("payoff'")
    assert twin.diagram.node("payoff").states == ("0", "1")
    assert twin.diagram.node("payoff").kind == "deterministic"


def test_twin_drops_constant_utility():
    d = decision_node("d", ["heads", "tails"])
    c = chance_node("c", ["heads", "tails"], [], {(): [0.5, 0.5]})
    w = chance_node("w", ["win", "lose"], ["d", "c"], {
        ("heads", "heads"): [1.0, 0.0], ("heads", "tails"): [0.0, 1.0],
        ("tails", "heads"): [0.0, 1.0], ("tails", "tails"): [1.0, 0.0]},
        deterministic=True)
    # 1.0 + 1e-13 also prints as "1" at 12 significant digits, so that
    # utility is as constant as the first.
    for lose in (1.0, 1.0 + 1e-13):
        flat = utility_node("payoff", ["w"], {("win",): 1.0, ("lose",): lose})
        diag = Diagram((d, c, w, flat),
                       (("d", "w"), ("c", "w"), ("w", "payoff")), (), ("d",),
                       causal=True)
        h = to_hcf(diag)
        twin = build_twin(h)
        assert not twin.diagram.has("payoff")
        assert not twin.diagram.has("payoff'")
        assert validate_diagram(twin.diagram) == []
        q = CounterfactualQuery({"d": "heads"}, {}, {"d": "tails"},
                                ("payoff",))
        with pytest.raises(UnknownVariable):
            counterfactual(h, q)
        assert oracle_fixed_set_member(h, "payoff")


def test_twin_rejects_non_hcf(m1):
    from decid import HcfDiagram
    with pytest.raises(NotHcf):
        build_twin(HcfDiagram(m1))


# ---------------------------------------------------------------------------
# Counterfactual queries


def test_counterfactual_coin_other_call_loses(coin):
    h = to_hcf(coin)
    f = counterfactual(h, CounterfactualQuery(
        factual_decisions={"d": "heads"},
        factual_evidence={"w": "win"},
        counterfactual_decisions={"d": "tails"},
        query=("w",)))
    assert f.value({"w'": "lose"}) == pytest.approx(1.0, abs=1e-12)


def test_counterfactual_m1_abstention(m1):
    h = to_hcf(m1)
    f = counterfactual(h, CounterfactualQuery(
        factual_decisions={"smoke": "yes"},
        factual_evidence={"lung_cancer": "yes"},
        counterfactual_decisions={"smoke": "no"},
        query=("lung_cancer",)))
    assert f.value({"lung_cancer'": "yes"}) == pytest.approx(0.05, abs=1e-12)
    assert f.value({"lung_cancer'": "no"}) == pytest.approx(0.95, abs=1e-12)


def test_counterfactual_consistency(m1):
    """Same decisions counterfactually: the evidence must repeat itself."""
    h = to_hcf(m1)
    f = counterfactual(h, CounterfactualQuery(
        factual_decisions={"smoke": "yes"},
        factual_evidence={"lung_cancer": "yes"},
        counterfactual_decisions={"smoke": "yes"},
        query=("lung_cancer",)))
    assert f.value({"lung_cancer'": "yes"}) == pytest.approx(1.0, abs=1e-12)


def _cf_oracle(h, q, target):
    """World-enumeration answer: posterior over worlds given the factual
    run, then deterministic propagation under the counterfactual run."""
    d = h.diagram
    dist = {}
    total = 0.0
    for world in functional_worlds(d):
        factual = propagate(d, world.assignment, q.factual_decisions)
        if any(factual[k] != v for k, v in q.factual_evidence.items()):
            continue
        total += world.weight
        alt = propagate(d, world.assignment, q.counterfactual_decisions)
        dist[alt[target]] = dist.get(alt[target], 0.0) + world.weight
    return {k: v / total for k, v in dist.items()}, total


@pytest.mark.parametrize("seed", range(10))
def test_counterfactual_matches_world_oracle(seed):
    d = random_diagram(seed, n_chance=3, max_states=2, n_decisions=1)
    h = to_hcf(d)
    factual = {"d0": "a0"}
    cf = {"d0": "a1"}
    chance = d.uncertain()
    witness = propagate(h.diagram,
                        functional_worlds(h.diagram)[0].assignment, factual)
    evidence = {chance[0]: witness[chance[0]]}
    target = chance[-1]
    q = CounterfactualQuery(factual, evidence, cf, (target,))
    want, support = _cf_oracle(h, q, target)
    assert support > 0.0
    got = counterfactual(h, q)
    resolved = got.scope[0]
    assert resolved in (target, target + "'")
    for s in d.node(target).states:
        assert got.value({resolved: s}) == pytest.approx(
            want.get(s, 0.0), abs=1e-10)


def test_counterfactual_impossible_evidence(coin):
    h = to_hcf(coin)
    q = CounterfactualQuery({"d": "heads"}, {"c": "tails", "w": "win"},
                            {"d": "tails"}, ("w",))
    with pytest.raises(ZeroProbabilityEvidence):
        counterfactual(h, q)


# ---------------------------------------------------------------------------
# Policies and expected utility


def _policy(diagram, **rules):
    info = {dec: tuple(diagram.info_parents(dec))
            for dec in diagram.decisions()}
    return Policy(info, {dec: dict(table) for dec, table in rules.items()})


def test_expected_utility_coin(coin_utility):
    p = _policy(coin_utility, d={(): "heads"})
    assert expected_utility(coin_utility, p) == pytest.approx(0.5, abs=1e-12)


def test_expected_utility_requires_utility(coin):
    from decid.errors import NoUtilityNode
    with pytest.raises(NoUtilityNode):
        expected_utility(coin, _policy(coin, d={(): "heads"}))


def test_optimal_policy_blind_coin(coin_utility):
    policy, eu = optimal_policy(coin_utility)
    assert eu == pytest.approx(0.5, abs=1e-12)
    # Tie: every policy scores 0.5, the first in canonical order wins.
    assert policy.rules["d"][()] == "heads"


def test_optimal_policy_informed_coin(coin_utility):
    informed = coin_utility.with_arcs(information=[("c", "d")])
    policy, eu = optimal_policy(informed)
    assert eu == pytest.approx(1.0, abs=1e-12)
    assert policy.rules["d"][("heads",)] == "heads"
    assert policy.rules["d"][("tails",)] == "tails"


def test_optimal_policy_fig2a(fig2a):
    policy, eu = optimal_policy(fig2a)
    assert policy.rules["smoke"][()] == "yes"
    assert eu == pytest.approx(75.125, abs=1e-12)
    no = _policy(fig2a, smoke={(): "no"})
    assert expected_utility(fig2a, no) == pytest.approx(61.0675, abs=1e-12)


def test_enumerate_policies_canonical_order(coin_utility):
    informed = coin_utility.with_arcs(information=[("c", "d")])
    policies = list(enumerate_policies(informed))
    assert len(policies) == 4
    first = policies[0]
    assert first.rules["d"] == {("heads",): "heads", ("tails",): "heads"}


def test_policy_space_cap(coin_utility):
    informed = coin_utility.with_arcs(information=[("c", "d")])
    with pytest.raises(PolicySpaceExceeded):
        list(enumerate_policies(informed, cap=2))


def test_policy_space_cap_names_the_size():
    d = random_diagram(5, n_chance=8, max_states=2, with_utility=True)
    d = d.with_arcs(information=[(x, dec) for x in ("x0", "x1")
                                 for dec in ("d0", "d1")])
    with pytest.raises(PolicySpaceExceeded,
                       match="policy space of 256 policies exceeds cap 100"):
        optimal_policy(d, cap=100)
    assert len(list(enumerate_policies(d, cap=256))) == 256
    roots = [chance_node(f"r{i}", ["s0", "s1"], [], {(): [0.5, 0.5]})
             for i in range(11)]
    wide = Diagram((*roots, decision_node("d", ["a0", "a1"])), (),
                   tuple((r.name, "d") for r in roots), ("d",))
    with pytest.raises(PolicySpaceExceeded,
                       match="policy space of about 2\\^2048 policies"):
        list(enumerate_policies(wide, cap=100))


def test_no_decision_order_rejected(coin_utility, coin):
    bare = replace(coin_utility, decision_order=None)
    with pytest.raises(NoDecisionOrder):
        list(enumerate_policies(bare))
    # Without an order and without a utility node, the order is reported.
    with pytest.raises(NoDecisionOrder):
        optimal_policy(replace(coin, decision_order=None))


def _reference_eus(d, policies):
    """Expected utilities by direct enumeration: every decision instance's
    joint, masked to the cells where the policy makes those choices.
    Cells that a policy must match in the same way are summed first."""
    u = d.utility()
    info = {dec: d.info_parents(dec) for dec in d.decisions()}
    weight = {}   # ((decision, info instance, choice), ...) -> sum of p * u
    for di in enumerate_instances(parent_variables(d, d.decisions())):
        f = joint(d, di)
        for idx in np.ndindex(f.values.shape):
            cell = dict(di)
            cell.update((v, f.states[i][k])
                        for i, (v, k) in enumerate(zip(f.scope, idx)))
            need = tuple((dec, tuple(cell[p] for p in info[dec]), di[dec])
                         for dec in info)
            key = tuple(cell[p] for p in u.utility.parent_order)
            weight[need] = weight.get(need, 0.0) + (
                f.values[idx] * u.utility.rows[key])
    return [sum(w for need, w in weight.items()
                if all(p.choose(dec, dict(zip(info[dec], key))) == alt
                       for dec, key, alt in need))
            for p in policies]


def _first_of_ties(eus):
    top = max(eus)
    return next(i for i, eu in enumerate(eus)
                if eu >= top - TOL * max(1.0, abs(top)))


def test_expected_utility_and_optimal_policy_match_enumeration():
    covered = dict.fromkeys(
        ["set decision", "decision observes decision", "negative utility",
         "parentless utility"], 0)
    for seed in range(200):
        d = random_policy_diagram(seed)
        assert validate_diagram(d) == []
        u = d.utility().utility
        covered["set decision"] += any(
            d.node(x).set_decision_for for x in d.decisions())
        covered["decision observes decision"] += any(
            a in d.decisions() for a, _ in d.information_arcs)
        covered["negative utility"] += min(u.rows.values()) < 0
        covered["parentless utility"] += not u.parent_order

        policies = list(enumerate_policies(d))
        want = _reference_eus(d, policies)
        for i in {0, seed % len(policies), len(policies) - 1}:
            assert expected_utility(d, policies[i]) == pytest.approx(
                want[i], rel=1e-12, abs=1e-12), seed
        best, eu = optimal_policy(d)
        i = _first_of_ties(want)
        assert best == policies[i], seed
        assert eu == pytest.approx(want[i], rel=1e-12, abs=1e-12), seed
    assert all(covered.values()), covered


def test_optimal_policy_ties_keep_the_first_policy():
    """Ties within rounding keep the first policy in canonical order."""
    for seed in range(200):
        d = random_diagram(seed, n_chance=4, max_states=2, with_utility=True)
        policies = list(enumerate_policies(d))
        best, _ = optimal_policy(d)
        assert best == policies[_first_of_ties(
            _reference_eus(d, policies))], seed


# ---------------------------------------------------------------------------
# Value of information


def test_voi_coin(coin_utility):
    assert value_of_information(coin_utility, "c", "d") == pytest.approx(
        0.5, abs=1e-12)


def test_voi_without_decision_order_is_rejected(coin_utility):
    bare = replace(coin_utility, decision_order=None)
    for no_forgetting in (False, True):
        with pytest.raises(NoDecisionOrder):
            value_of_information(bare, "c", "d", no_forgetting=no_forgetting)


def test_voi_rejects_decision_affected_variable(coin_utility):
    with pytest.raises(NotObservable):
        value_of_information(coin_utility, "w", "d")


def test_voi_declared_fixed_cycle():
    dec = decision_node("d", ["a", "b"])
    x = chance_node("x", ["0", "1"], ["d"],
                    {("a",): [0.5, 0.5], ("b",): [0.2, 0.8]})
    payoff = utility_node("payoff", ["x"], {("0",): 0.0, ("1",): 1.0})
    d = Diagram((dec, x, payoff), (("d", "x"), ("x", "payoff")), (), ("d",),
                declared_fixed=frozenset({"x"}))
    with pytest.raises(CycleIntroduced):
        value_of_information(d, "x", "d")
    # Indexes already read from d must not leak into the widened diagram.
    assert d.topological_order() == ["d", "x", "payoff"]
    with pytest.raises(CycleIntroduced):
        value_of_information(d, "x", "d")


def _two_stage():
    d0 = decision_node("d0", ["x0", "x1"])
    d1 = decision_node("d1", ["heads", "tails"])
    c = chance_node("c", ["heads", "tails"], [], {(): [0.5, 0.5]})
    w = chance_node("w", ["win", "lose"], ["d1", "c"], {
        ("heads", "heads"): [1.0, 0.0], ("heads", "tails"): [0.0, 1.0],
        ("tails", "heads"): [0.0, 1.0], ("tails", "tails"): [1.0, 0.0]},
        deterministic=True)
    payoff = utility_node("payoff", ["w"], {("win",): 1.0, ("lose",): 0.0})
    return Diagram((d0, d1, c, w, payoff),
                   (("d1", "w"), ("c", "w"), ("w", "payoff")), (),
                   ("d0", "d1"), causal=True)


def test_voi_no_forgetting_propagates_to_later_decisions():
    d = _two_stage()
    assert validate_diagram(d) == []
    assert value_of_information(d, "c", "d0") == pytest.approx(0.0, abs=1e-12)
    assert value_of_information(d, "c", "d1") == pytest.approx(0.5, abs=1e-12)
    assert value_of_information(d, "c", "d0", no_forgetting=True) == \
        pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_voi_is_nonnegative(seed):
    d = random_diagram(seed, n_chance=3, max_states=2, n_decisions=1,
                       with_utility=True)
    fixed = sorted(d.fixed_nodes())
    for x in fixed:
        assert value_of_information(d, x, "d0") >= -1e-12
