import itertools

import numpy as np
import pytest

from decid import (Diagram, Factor, WorldTable, chance_node, decision_node,
                   functional_worlds, graphical_fixed_set, joint,
                   oracle_causes, oracle_fixed_set_member, oracle_is_d_map,
                   parse_model, posterior, propagate, serialize_model,
                   set_decision_node, to_hcf, validate_diagram)
from decid.errors import (NodeBudgetExceeded, NotHcf, UnknownVariable,
                          WorldCapExceeded, ZeroProbabilityEvidence)

from genmodels import random_diagram

SEEDED = list(range(12))


# ---------------------------------------------------------------------------
# Factor algebra


def _f(scope, states, values):
    return Factor(scope, states, values)


def test_factor_multiply_commutes():
    a = _f(["x"], [("0", "1")], [0.3, 0.7])
    b = _f(["y"], [("0", "1")], [0.6, 0.4])
    ab = a.multiply(b)
    ba = b.multiply(a)
    for x in "01":
        for y in "01":
            assert ab.value({"x": x, "y": y}) == pytest.approx(
                ba.value({"x": x, "y": y}), abs=1e-15)


def test_factor_marginalize_sums_out():
    f = _f(["x", "y"], [("0", "1"), ("0", "1")], [[0.1, 0.2], [0.3, 0.4]])
    g = f.marginalize("y")
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
    f = joint(d, {"s_lc": "do_nothing"}).marginalize("genotype")
    assert f.value({"lc": "yes"}) == pytest.approx(0.111, abs=1e-12)
    f = joint(d, {"s_lc": "set=yes"}).marginalize("genotype")
    assert f.value({"lc": "yes"}) == pytest.approx(1.0, abs=1e-12)
    g = posterior(d, {"s_lc": "set=no"}, {}, ["lc"])
    assert g.value({"lc": "no"}) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Variable elimination agrees with brute-force enumeration


def _conditional_from_joint(f, evidence, query):
    for v, s in evidence.items():
        if v in f.scope:
            f = f.reduce(v, s)
    for v in f.scope:
        if v not in query:
            f = f.marginalize(v)
    return f.normalize()


@pytest.mark.parametrize("seed", SEEDED)
def test_posterior_matches_enumeration(seed):
    import random
    d = random_diagram(seed, n_chance=4, max_states=3, n_decisions=2)
    assert validate_diagram(d) == []
    rng = random.Random(seed + 31)
    for combo in itertools.product(["a0", "a1"], repeat=2):
        decisions = {"d0": combo[0], "d1": combo[1]}
        full = joint(d, decisions)
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


def test_oracle_causes_checks_fixed_target_before_budget(coin):
    assert oracle_causes(coin, "c", node_budget=0).cause_sets == ()
    with pytest.raises(NodeBudgetExceeded):
        oracle_causes(coin, "w", node_budget=0)


def test_oracle_causes_m1_hcf(m1):
    report = oracle_causes(to_hcf(m1), "lung_cancer")
    assert report.cause_sets == (frozenset({"smoke"}),)


def test_oracle_causes_utility_target(fig2a):
    report = oracle_causes(to_hcf(fig2a), "payoff")
    assert set(report.cause_sets) == {frozenset({"smoke"}),
                                      frozenset({"lung_cancer", "pleasure"})}


def test_world_pair_cap(coin):
    with pytest.raises(WorldCapExceeded):
        WorldTable(coin, world_pair_cap=1)


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
