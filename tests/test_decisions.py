import itertools
import math
import random
import re

import numpy as np
import pytest

import decid.decisions as decisions
from decid import (CounterfactualQuery, Diagram, HcfDiagram, Policy,
                   WorldTable, chance_node, counterfactual,
                   decision_node, enumerate_instances, expected_utility,
                   functional_worlds, optimal_policy, oracle_fixed_set_member,
                   posterior, propagate, to_hcf, utility_node,
                   validate_diagram, value_of_information)
from decid.errors import (CycleIntroduced, NoDecisionOrder, NotHcf,
                          NotObservable, PolicySpaceExceeded, UnknownVariable,
                          ZeroProbabilityEvidence)
from decid.inference import value_label_node
from decid.model import TOL, UTILITY, instance_keys, parent_variables

from genmodels import (count_worlds, random_diagram,
                       random_policy_diagram, random_table_diagram)
import reference
from reference import barren, choose, enumerate_joint, enumerate_policies


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


def test_counterfactual_reads_a_utility_by_value_labels(coin_utility):
    """An affected utility is queried over its value labels, in both
    worlds: a factual win pays 1, and the other call would have lost."""
    f = counterfactual(to_hcf(coin_utility), CounterfactualQuery(
        {"d": "heads"}, {"payoff": "1"}, {"d": "tails"}, ("payoff", "w")))
    assert f.scope == ("payoff'", "w'")
    assert f.states == (("0", "1"), ("win", "lose"))
    assert f.values.tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_twin_drops_constant_utility():
    """A constant decision-affected utility is answered, not dropped: it
    has one value label, which it takes with probability 1 in the
    counterfactual world, as ``propagate`` says, and the world oracle
    calls it fixed."""
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
        q = CounterfactualQuery({"d": "heads"}, {}, {"d": "tails"},
                                ("payoff",))
        f = counterfactual(h, q)
        assert (f.scope, f.states, f.values.tolist()) == (
            ("payoff'",), (("1",),), [1.0])
        world = functional_worlds(h.diagram)[0].assignment
        assert propagate(h.diagram, world, {"d": "tails"})["payoff"] == "1"
        assert oracle_fixed_set_member(h, "payoff")


def test_counterfactual_without_decision_order(m1):
    """The decision order plays no part in a counterfactual."""
    q = CounterfactualQuery({"smoke": "yes"}, {"lung_cancer": "yes"},
                            {"smoke": "no"}, ("lung_cancer",))
    want = counterfactual(to_hcf(m1), q)
    got = counterfactual(to_hcf(m1._replace(decision_order=None)), q)
    assert got.scope == want.scope
    assert got.values.tobytes() == want.values.tobytes()


def test_counterfactual_rejects_non_hcf(m1):
    q = CounterfactualQuery({"smoke": "yes"}, {}, {"smoke": "no"},
                            ("lung_cancer",))
    with pytest.raises(NotHcf):
        counterfactual(HcfDiagram(m1), q)


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


def test_counterfactual_on_an_unaffected_utility():
    """A utility that no decision affects is read as its value labels,
    as an affected one is: as the query, and as evidence for a query on
    an affected variable.  ``posterior`` still asks for an uncertain
    variable."""
    h = to_hcf(random_diagram(2, with_utility=True))
    d = h.diagram
    assert "payoff" not in d.descendants(d.decisions())
    labels = value_label_node(d.node("payoff")).states
    world = functional_worlds(d)[0].assignment
    factual, cf = {"d0": "a0", "d1": "a0"}, {"d0": "a1", "d1": "a1"}
    seen = propagate(d, world, factual)["payoff"]
    for evidence, target in (({}, "payoff"), ({"payoff": seen}, "x3")):
        q = CounterfactualQuery(factual, evidence, cf, (target,))
        want, support = _cf_oracle(h, q, target)
        assert support > 0.0
        got = counterfactual(h, q)
        resolved = got.scope[0]
        assert resolved == (target if target == "payoff" else target + "'")
        if target == "payoff":
            assert got.states == (labels,)
        for s in got.states[0]:
            assert got.value({resolved: s}) == pytest.approx(
                want.get(s, 0.0), abs=1e-12)
    with pytest.raises(UnknownVariable,
                       match="payoff is not an uncertain variable"):
        posterior(d, factual, {}, ["payoff"])


def test_counterfactual_impossible_evidence(coin):
    h = to_hcf(coin)
    q = CounterfactualQuery({"d": "heads"}, {"c": "tails", "w": "win"},
                            {"d": "tails"}, ("w",))
    with pytest.raises(ZeroProbabilityEvidence):
        counterfactual(h, q)


def _cf_corpus():
    """Canonical forms with two decisions and at most 256 worlds:
    random diagrams with a utility, random table diagrams and random
    policy diagrams (set decisions, a decision observing another)."""
    for seed in range(60):
        for h in (to_hcf(random_diagram(seed, n_chance=3, max_states=2,
                                        n_decisions=2, with_utility=True)),
                  to_hcf(random_table_diagram(seed)),
                  to_hcf(random_policy_diagram(seed, n_chance=3),
                         assume_causal=True)):
            if count_worlds(h.diagram) <= 256:
                yield h


def _reference_answer(worlds, runs, q, states):
    """The counterfactual from the reference worlds: the weights of the
    worlds whose factual run meets the evidence, spread over the
    query's values under the counterfactual decisions.  ``runs`` holds
    each world's ``reference.propagate`` under each decision instance,
    keyed by the instance's items."""
    out = np.zeros([len(states[x]) for x in q.query])
    for w, cf, world in zip(runs[tuple(q.factual_decisions.items())],
                            runs[tuple(q.counterfactual_decisions.items())],
                            worlds):
        if all(w[x] == s for x, s in q.factual_evidence.items()):
            out[tuple(states[x].index(cf[x]) for x in q.query)] += world.weight
    return out


def _world_table_answer(table, q, states):
    """The counterfactual from ``WorldTable`` alone: the weights of the
    worlds whose factual run meets the evidence, spread over the
    query's values under the counterfactual decisions."""
    f = table.decision_instances.index(q.factual_decisions)
    c = table.decision_instances.index(q.counterfactual_decisions)
    weight = np.array([w.weight for w in table.worlds])
    for x, s in q.factual_evidence.items():
        weight = weight * (table.values[x][:, f] == states[x].index(s))
    out = np.zeros([len(states[x]) for x in q.query])
    np.add.at(out, tuple(table.values[x][:, c] for x in q.query), weight)
    return out


def test_counterfactual_matches_the_world_table():
    """Over a thousand seeded counterfactuals, each within 1e-12 of the
    reference worlds and their row-dict runs, a route that shares no
    code with elimination or the world table, and the world table within
    1e-12 of them too: evidence on mechanisms, affected variables and
    utilities, queries on the shared layer, on affected variables and on
    utilities that no decision affects, one or two at a time."""
    rng = np.random.default_rng(7)
    seen = dict.fromkeys(["set decision", "evidence on a mechanism",
                          "evidence on an affected variable",
                          "evidence on an affected utility",
                          "unaffected utility", "shared query",
                          "affected query", "two-variable query",
                          "zero evidence"], 0)
    asked = 0
    for h in _cf_corpus():
        d = h.diagram
        table = WorldTable(d)
        worlds = reference.enumerate_worlds(d)
        runs = {tuple(dec.items()): [reference.propagate(d, w.assignment, dec)
                                     for w in worlds]
                for dec in table.decision_instances}
        affected = d.descendants(d.decisions())
        states = {x: value_label_node(d.node(x)).states for x in d.names()}
        names = [x for x in d.names() if d.node(x).kind != "decision"]
        utilities = {x for x in names if d.node(x).kind == "utility"}
        mechanisms = {m.name for m in h.mechanisms}
        seen["set decision"] += any(
            d.node(x).set_decision_for for x in d.decisions())
        for _ in range(8):
            factual, cf = rng.choice(table.decision_instances, 2)
            world = rng.integers(len(table.worlds))
            evidence = {}
            for x in rng.choice(names, rng.integers(3), replace=False):
                k = table.values[x][world, table.decision_instances.index(
                    factual)]
                if rng.random() < 0.2:
                    k = rng.integers(len(states[x]))
                evidence[str(x)] = states[x][k]
            pool = [x for x in names if x in affected or x not in evidence]
            if not pool:
                continue
            query = tuple(map(str, rng.choice(
                pool, min(len(pool), rng.integers(1, 3)), replace=False)))
            q = CounterfactualQuery(factual, evidence, cf, query)
            want = _reference_answer(worlds, runs, q, states)
            np.testing.assert_allclose(_world_table_answer(table, q, states),
                                       want, rtol=0, atol=1e-12)
            asked += 1
            seen["evidence on a mechanism"] += bool(mechanisms & {*evidence})
            seen["evidence on an affected variable"] += any(
                x in affected and d.node(x).kind != "utility" for x in evidence)
            seen["evidence on an affected utility"] += bool(
                utilities & affected & {*evidence})
            seen["unaffected utility"] += bool(
                (utilities - affected) & {*evidence, *query})
            seen["shared query"] += any(x not in affected for x in query)
            seen["affected query"] += any(x in affected for x in query)
            seen["two-variable query"] += len(query) == 2
            if want.sum() == 0.0:
                seen["zero evidence"] += 1
                with pytest.raises(ZeroProbabilityEvidence):
                    counterfactual(h, q)
                continue
            got = counterfactual(h, q)
            assert got.scope == tuple(
                x + "'" if x in affected else x for x in query)
            assert got.states == tuple(states[x] for x in query)
            np.testing.assert_allclose(got.values, want / want.sum(),
                                       rtol=0, atol=1e-12)
    assert asked >= 1000, asked
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# Policies and expected utility


def _policy(diagram, **rules):
    info = {dec: tuple(diagram.info_parents(dec))
            for dec in diagram.decisions()}
    return Policy(info, {dec: dict(table) for dec, table in rules.items()})


def test_expected_utility_coin(coin_utility):
    p = _policy(coin_utility, d={(): "heads"})
    assert expected_utility(coin_utility, p) == pytest.approx(0.5, abs=1e-12)


def test_expected_utility_checks_the_policy(coin_utility):
    """A rule that picks no alternative of its decision, a missing rule,
    or a utility observed, is named as an unknown variable, not a bare
    lookup or numpy error."""
    with pytest.raises(UnknownVariable,
                       match="'edge' is not an alternative of d"):
        expected_utility(coin_utility, _policy(coin_utility, d={(): "edge"}))
    for rules in ({"d": {}}, {}):
        with pytest.raises(UnknownVariable,
                           match=r"policy for d has no rule for \(\)"):
            expected_utility(coin_utility, Policy({"d": ()}, rules))
    with pytest.raises(UnknownVariable, match="^policy has no rules for d$"):
        expected_utility(coin_utility, Policy({}, {}))
    informed = coin_utility.with_arcs(information=[("c", "d")])
    with pytest.raises(UnknownVariable, match=r"no rule for \('tails',\)"):
        expected_utility(informed,
                         _policy(informed, d={("heads",): "heads"}))
    with pytest.raises(UnknownVariable, match=(
            "^a policy cannot observe the utility payoff$")):
        expected_utility(coin_utility, Policy({"d": ("payoff",)}, {"d": {}}))


def _crossed():
    """d0 sets x and d1 sets y, and the utility reads both; no decision
    observes anything."""
    x = chance_node("x", ["0", "1"], ["d0"],
                    {("a",): [0.9, 0.1], ("b",): [0.2, 0.8]})
    y = chance_node("y", ["0", "1"], ["d1"],
                    {("a",): [0.7, 0.3], ("b",): [0.4, 0.6]})
    u = utility_node("u", ["x", "y"], {("0", "0"): 0.0, ("0", "1"): 1.0,
                                       ("1", "0"): 2.0, ("1", "1"): 3.5})
    return Diagram((decision_node("d0", ["a", "b"]),
                    decision_node("d1", ["a", "b"]), x, y, u),
                   (("d0", "x"), ("d1", "y"), ("x", "u"), ("y", "u")), (),
                   ("d0", "d1"))


def test_expected_utility_refuses_a_policy_that_observes_its_future(
        coin_utility):
    """A decision sees only what is settled before it: an observed
    descendant, the decision itself, or two decisions each observing
    what the other sets close a cycle, as in ``value_of_information``."""
    follow = {("0",): "a", ("1",): "b"}
    for d, policy, arc in [
            (coin_utility, Policy({"d": ("w",)}, {"d": {
                ("win",): "heads", ("lose",): "tails"}}), "w->d"),
            (coin_utility, Policy({"d": ("d",)}, {"d": {
                ("heads",): "heads", ("tails",): "tails"}}), "d->d"),
            (_crossed(), Policy({"d0": ("y",), "d1": ("x",)},
                                {"d0": follow, "d1": follow}), "y->d0")]:
        assert validate_diagram(d) == []
        with pytest.raises(CycleIntroduced, match=(
                f"^information arc {arc} creates a cycle$")):
            expected_utility(d, policy)
    # d1 may observe what d0 sets.
    legal = Policy({"d0": (), "d1": ("x",)}, {"d0": {(): "b"}, "d1": follow})
    informed = _crossed().with_arcs(information=[("x", "d1")])
    assert expected_utility(_crossed(), legal) == pytest.approx(
        _reference_eus(informed, [legal])[0], rel=1e-12, abs=1e-12)


def test_policy_search_refuses_an_information_cycle_of_the_diagram():
    """An unvalidated diagram whose own information arcs run d0 -> d1 ->
    d0: the search judges the diagram's arcs as a policy's."""
    d = _crossed().with_arcs(information=[("d0", "d1"), ("d1", "d0")])
    with pytest.raises(CycleIntroduced, match=(
            "^information arc d0->d1 creates a cycle$")):
        optimal_policy(d)


def test_every_policy_entry_point_refuses_a_cycle_through_observations():
    """An unvalidated diagram whose own arcs run d0 -> x -> d1 -> y ->
    d0: each decision observes what the other sets, through a chance
    node, and the diagram's own arcs are judged all the same."""
    d = _crossed().with_arcs(information=[("x", "d1"), ("y", "d0")])
    assert "cycle in combined arc graph" in validate_diagram(d)
    follow = {("0",): "a", ("1",): "b"}
    policy = Policy({"d0": ("y",), "d1": ("x",)}, {"d0": follow, "d1": follow})
    for call in (lambda: optimal_policy(d),
                 lambda: expected_utility(d, policy)):
        with pytest.raises(CycleIntroduced, match=(
                "^information arc (x->d1|y->d0) creates a cycle$")):
            call()


def test_every_policy_entry_point_refuses_an_observed_utility(coin_utility):
    """An unvalidated diagram in which a second decision, ``bet``, which
    sets nothing, observes the utility: no cycle, only the utility."""
    d = Diagram((*coin_utility.nodes, decision_node("bet", ["no", "yes"])),
                coin_utility.relevance_arcs, (("payoff", "bet"),),
                ("d", "bet"))
    for call in (lambda: optimal_policy(d),
                 lambda: value_of_information(d, "c", "d")):
        with pytest.raises(UnknownVariable, match=(
                "^a policy cannot observe the utility payoff$")):
            call()


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


def test_enumerate_policies_canonical_order(monkeypatch, coin_utility):
    """The search scores policies in the reference's canonical order,
    and a tie keeps the first of them."""
    informed = coin_utility.with_arcs(information=[("c", "d")])
    policies = list(enumerate_policies(informed))
    assert len(policies) == 4
    first = policies[0]
    assert first.rules["d"] == {("heads",): "heads", ("tails",): "heads"}
    blocks = _recorded_blocks(monkeypatch)
    optimal_policy(informed)
    assert np.concatenate(blocks).tolist() == [
        expected_utility(informed, p) for p in policies]
    flat = utility_node("payoff", [], {(): 1.0})
    tie = informed._replace(nodes=tuple(
        flat if n.name == "payoff" else n for n in informed.nodes),
        relevance_arcs=tuple(a for a in informed.relevance_arcs
                             if a[1] != "payoff"))
    assert optimal_policy(tie)[0] == first


def test_policy_space_cap(monkeypatch, coin_utility):
    informed = coin_utility.with_arcs(information=[("c", "d")])
    best = optimal_policy(informed)
    monkeypatch.setattr(decisions, "POLICY_SPACE_CAP", 2)
    with pytest.raises(PolicySpaceExceeded):
        optimal_policy(informed)
    # A cap passed positionally, as the benchmark's self-test passes
    # one, replaces the constant for that call.
    assert optimal_policy(informed, 4) == best
    with pytest.raises(PolicySpaceExceeded,
                       match="policy space of 4 policies exceeds cap 3"):
        optimal_policy(informed, 3)


def test_policy_space_cap_names_the_size(monkeypatch):
    d = random_diagram(5, n_chance=8, max_states=2, with_utility=True)
    d = d.with_arcs(information=[(x, dec) for x in ("x0", "x1")
                                 for dec in ("d0", "d1")])
    monkeypatch.setattr(decisions, "POLICY_SPACE_CAP", 100)
    for search in (lambda: optimal_policy(d),
                   lambda: value_of_information(d, "x3", "d0")):
        with pytest.raises(PolicySpaceExceeded, match="policy space of 256 "
                           "policies exceeds cap 100"):
            search()
    monkeypatch.setattr(decisions, "POLICY_SPACE_CAP", 256)
    optimal_policy(d)
    assert len(list(enumerate_policies(d))) == 256
    roots = [chance_node(f"r{i}", ["s0", "s1"], [], {(): [0.5, 0.5]})
             for i in range(11)]
    wide = Diagram((*roots, decision_node("d", ["a0", "a1"])), (),
                   tuple((r.name, "d") for r in roots), ("d",))
    monkeypatch.setattr(decisions, "POLICY_SPACE_CAP", 100)
    with pytest.raises(PolicySpaceExceeded,
                       match="policy space of about 2\\^2048 policies "
                       "exceeds cap 100"):
        optimal_policy(wide)


def test_no_decision_order_rejected(coin_utility, coin):
    bare = coin_utility._replace(decision_order=None)
    with pytest.raises(NoDecisionOrder):
        optimal_policy(bare)
    # Without an order and without a utility node, the order is reported.
    with pytest.raises(NoDecisionOrder):
        optimal_policy(coin._replace(decision_order=None))


def _reference_eus(d, policies, joints=None):
    """Expected utilities by direct enumeration: every decision instance's
    joint, masked to the cells where the policy makes those choices.
    Cells that a policy must match in the same way are summed first, in
    numpy.  ``joints`` keeps each joint by (tables, decision instance),
    for the calls on diagrams that share ``d``'s nodes while it lives."""
    joints = {} if joints is None else joints
    u = d.utility().utility
    info = {dec: d.info_parents(dec) for dec in d.decisions()}
    weight = {}   # ((decision, info instance, choice), ...) -> sum of p * u
    for di in enumerate_instances(parent_variables(d, d.decisions())):
        key = (id(d.nodes), tuple(di.items()))
        if key not in joints:
            joints[key] = enumerate_joint(d, di)
        f = joints[key]
        states = dict(zip(f.scope, f.states))
        paid = [v for v in f.scope if v in u.parent_order]
        util = np.array([
            u.rows[tuple({**di, **dict(zip(paid, c))}[p]
                         for p in u.parent_order)]
            for c in itertools.product(*(states[v] for v in paid))])
        w = f.values * util.reshape(
            [len(states[v]) if v in paid else 1 for v in f.scope])
        seen = [v for v in f.scope if any(v in ps for ps in info.values())]
        w = w.sum(axis=tuple(i for i, v in enumerate(f.scope)
                             if v not in seen))
        for idx in np.ndindex(w.shape):
            cell = {**di, **{v: states[v][k] for v, k in zip(seen, idx)}}
            need = tuple((dec, tuple(cell[p] for p in info[dec]), di[dec])
                         for dec in info)
            weight[need] = weight.get(need, 0.0) + w[idx]
    return [sum(w for need, w in weight.items()
                if all(choose(p, dec, dict(zip(info[dec], key))) == alt
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


def _barren_corpus():
    """Policy diagrams with five chance nodes and the canonical forms of
    smaller ones, whose decision descendants are deterministic; a
    canonical form is skipped when its joint has more than 512 cells."""
    for seed in range(110):
        yield random_policy_diagram(seed, n_chance=5)
        h = to_hcf(random_policy_diagram(seed, n_chance=3),
                   assume_causal=True).diagram
        if math.prod(len(h.node(x).states) for x in h.uncertain()) <= 512:
            yield h


def test_policy_answers_with_barren_variables_match_enumeration():
    """Variables with no path to the utility or to what a decision
    observes are left out of the utility table; expected utility, the
    optimal policy and the value of information still equal
    enumeration's."""
    covered = dict.fromkeys(["barren", "barren set decision target",
                             "barren deterministic", "voi"], 0)
    n = 0
    for n, d in enumerate(_barren_corpus(), 1):
        info = {dec: d.info_parents(dec) for dec in d.decisions()}
        dropped = barren(d, d.decisions() + ["payoff"] +
                         [p for ps in info.values() for p in ps])
        covered["barren"] += bool(dropped)
        covered["barren set decision target"] += any(
            d.node(s).set_decision_for in dropped for s in d.decisions())
        covered["barren deterministic"] += any(
            d.node(x).kind == "deterministic" for x in dropped)
        policies = list(enumerate_policies(d))
        joints = {}
        want = _reference_eus(d, policies, joints)
        for i in {0, n % len(policies), len(policies) - 1}:
            assert expected_utility(d, policies[i]) == pytest.approx(
                want[i], rel=1e-12, abs=1e-12), n
        best, eu = optimal_policy(d)
        i = _first_of_ties(want)
        assert best == policies[i], n
        assert eu == pytest.approx(want[i], rel=1e-12, abs=1e-12), n
        unseen = [(x, dec) for x in ("x0", "x1") if d.has(x)
                  and not d.parents(x) for dec in ("d0", "d1")
                  if (x, dec) not in d.information_arcs]
        if unseen and n % 2 == 0:
            x, dec = unseen[n // 2 % len(unseen)]
            informed = d.with_arcs(information=[*d.information_arcs,
                                                (x, dec)])
            gain = max(_reference_eus(
                informed, list(enumerate_policies(informed)),
                joints)) - max(want)
            assert value_of_information(d, x, dec) == pytest.approx(
                gain, rel=1e-12, abs=1e-9), (n, x, dec)
            covered["voi"] += 1
    assert n >= 200 and all(covered.values()), (n, covered)


def test_optimal_policy_ties_keep_the_first_policy():
    """Ties within rounding keep the first policy in canonical order."""
    for seed in range(200):
        d = random_diagram(seed, n_chance=4, max_states=2, with_utility=True)
        policies = list(enumerate_policies(d))
        best, _ = optimal_policy(d)
        assert best == policies[_first_of_ties(
            _reference_eus(d, policies))], seed


def test_policy_index_decodes_to_the_enumerated_policy():
    """Policy i of the block search is the mixed-radix number of its
    slots' alternative indices, the last slot fastest: the i-th policy
    ``enumerate_policies`` lists."""
    covered = dict.fromkeys(["set decision", "decision observes decision"],
                            0)
    for seed in range(120):
        d = random_policy_diagram(seed)
        covered["set decision"] += any(
            d.node(x).set_decision_for for x in d.decisions())
        covered["decision observes decision"] += any(
            a in d.decisions() for a, _ in d.information_arcs)
        space = decisions._space(d)
        policies = list(enumerate_policies(d))
        radices = space[2]
        assert len(policies) == math.prod(radices), seed
        rows = decisions._digits(radices, np.arange(len(policies)))
        for i, policy in enumerate(policies):
            assert decisions._policy(d, space, rows[i]) == policy, (seed, i)
            assert decisions._digits(radices, [i]).tolist() == [
                rows[i].tolist()]
    assert all(covered.values()), covered


def _recorded_blocks(monkeypatch):
    """Every block of expected utilities the search scores, in order."""
    blocks = []
    scorer = decisions._scorer

    def recording(q, info_order):
        score = scorer(q, info_order)

        def record(choices):
            blocks.append(score(choices))
            return blocks[-1]
        return record
    monkeypatch.setattr(decisions, "_scorer", recording)
    return blocks


@pytest.mark.parametrize("gather_cells", [9, 24])
def test_small_blocks_score_every_policy(monkeypatch, gather_cells):
    """With blocks of a few policies the search scores every policy as
    the reference does and keeps the first of tied policies, also when
    the ties fall in different blocks."""
    monkeypatch.setattr(decisions, "GATHER_CELLS", gather_cells)
    blocks = _recorded_blocks(monkeypatch)
    covered = dict.fromkeys(["several blocks", "partial last block",
                             "tie across a block edge"], 0)
    corpus = [random_policy_diagram(seed) for seed in range(60)] + [
        random_diagram(seed, n_chance=4, max_states=2, with_utility=True)
        for seed in range(60)] + [_two_stage()]
    for n, d in enumerate(corpus):
        policies = list(enumerate_policies(d))
        want = _reference_eus(d, policies)
        blocks.clear()
        best, eu = optimal_policy(d)
        assert np.concatenate(blocks) == pytest.approx(
            want, rel=1e-12, abs=1e-12), n
        i = _first_of_ties(want)
        assert best == policies[i], n
        assert eu == pytest.approx(want[i], rel=1e-12, abs=1e-12), n
        sizes = [len(b) for b in blocks]
        covered["several blocks"] += len(sizes) > 1
        covered["partial last block"] += len(sizes) > 1 and (
            sizes[-1] < sizes[0])
        top = want[i]
        tied = [j for j, w in enumerate(want)
                if w >= top - TOL * max(1.0, abs(top))]
        edges = np.cumsum(sizes)
        covered["tie across a block edge"] += len(
            set(np.searchsorted(edges, tied, side="right"))) > 1
    assert all(covered.values()), covered


def test_empty_policy_space_is_reported():
    """A decision without alternatives (it fails validation) leaves no
    policy to choose."""
    d = Diagram((decision_node("d", []), utility_node("u", [], {(): 1.0})),
                (), (), ("d",))
    assert list(enumerate_policies(d)) == []
    with pytest.raises(NoDecisionOrder, match="no policies to evaluate"):
        optimal_policy(d)


# ---------------------------------------------------------------------------
# Value of information


def test_voi_coin(coin_utility):
    assert value_of_information(coin_utility, "c", "d") == pytest.approx(
        0.5, abs=1e-12)


def test_voi_without_decision_order_is_rejected(coin_utility):
    bare = coin_utility._replace(decision_order=None)
    for no_forgetting in (False, True):
        with pytest.raises(NoDecisionOrder):
            value_of_information(bare, "c", "d", no_forgetting=no_forgetting)


@pytest.mark.parametrize("observed,decision,error", [
    ("d", "d", "d is not a chance variable"),
    ("c", "c", "c is not a decision"),
])
def test_voi_checks_what_it_is_given(coin_utility, observed, decision, error):
    with pytest.raises(UnknownVariable, match=f"^{error}$"):
        value_of_information(coin_utility, observed, decision)


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


def test_voi_names_the_information_arc_on_the_cycle():
    """x is declared fixed but set by the later decision d1: observing it
    before d0 closes no cycle, and without forgetting, before d1, does."""
    d0, d1 = decision_node("d0", ["a", "b"]), decision_node("d1", ["a", "b"])
    x = chance_node("x", ["0", "1"], ["d1"],
                    {("a",): [0.5, 0.5], ("b",): [0.2, 0.8]})
    payoff = utility_node("payoff", ["x"], {("0",): 0.0, ("1",): 1.0})
    d = Diagram((d0, d1, x, payoff), (("d1", "x"), ("x", "payoff")), (),
                ("d0", "d1"), declared_fixed=frozenset({"x"}))
    assert value_of_information(d, "x", "d0") == 0.0
    with pytest.raises(CycleIntroduced,
                       match="^information arc x->d1 creates a cycle$"):
        value_of_information(d, "x", "d0", no_forgetting=True)


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


def test_voi_on_policy_diagrams_is_exactly_nonnegative():
    """Both searches score on one table, so a base policy's value equals
    that of the informed policy ignoring the new observation bit for
    bit: VOI is never below zero, and is zero when nothing is learned."""
    exact_zero = dict.fromkeys(["arc exists", "no path to utility"], 0)
    for seed in range(200):
        d = random_policy_diagram(seed)
        roots = [x for x in sorted(d.fixed_nodes()) if not d.parents(x)]
        for x in roots:
            for dec in d.decisions():
                voi = value_of_information(d, x, dec)
                assert voi >= 0.0, (seed, x, dec, voi)
                if (x, dec) in d.information_arcs:
                    exact_zero["arc exists"] += 1
                    assert voi == 0.0, (seed, x, dec, voi)
                if "payoff" not in d.descendants([x]):
                    exact_zero["no path to utility"] += 1
                    assert voi == 0.0, (seed, x, dec, voi)
    assert all(exact_zero.values()), exact_zero


def test_one_elimination_per_query(monkeypatch, coin_utility):
    import decid.decisions as decisions
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    eliminate = decisions.eliminate
    monkeypatch.setattr(decisions, "eliminate", counting)
    pol8 = random_diagram(5, n_chance=8, max_states=2, with_utility=True)
    pol8 = pol8.with_arcs(information=[(x, dec) for x in ("x0", "x1")
                                       for dec in ("d0", "d1")])
    informed = coin_utility.with_arcs(information=[("c", "d")])
    for d, size in ((coin_utility, 2), (informed, 4), (pol8, 256)):
        policies = list(enumerate_policies(d))
        assert len(policies) == size
        for query in (lambda: optimal_policy(d),
                      lambda: expected_utility(d, policies[-1])):
            calls.clear()
            query()
            assert len(calls) == 1, size
    for d, x, dec in ((coin_utility, "c", "d"), (pol8, "x3", "d0")):
        calls.clear()
        value_of_information(d, x, dec)
        assert len(calls) == 1


def test_expected_utility_without_decision_order():
    """d1 observes d0 and comes first in the node list; no order given."""
    d1 = decision_node("d1", ["a0", "a1"])
    d0 = decision_node("d0", ["a0", "a1"])
    x = chance_node("x", ["s0", "s1"], ["d0"],
                    {("a0",): [0.3, 0.7], ("a1",): [0.6, 0.4]})
    y = chance_node("y", ["s0", "s1"], ["x", "d1"], {
        ("s0", "a0"): [0.9, 0.1], ("s0", "a1"): [0.2, 0.8],
        ("s1", "a0"): [0.5, 0.5], ("s1", "a1"): [0.35, 0.65]})
    payoff = utility_node("payoff", ["y", "d0"], {
        ("s0", "a0"): 10.0, ("s0", "a1"): -4.0,
        ("s1", "a0"): 3.5, ("s1", "a1"): 7.25})
    d = Diagram((d1, d0, x, y, payoff),
                (("d0", "x"), ("x", "y"), ("d1", "y"), ("y", "payoff"),
                 ("d0", "payoff")), (("d0", "d1"),))
    assert validate_diagram(d) == [] and d.decision_order is None
    policies = [Policy({"d1": ("d0",), "d0": ()},
                       {"d1": {("a0",): r0, ("a1",): r1}, "d0": {(): a}})
                for r0, r1, a in itertools.product(["a0", "a1"], repeat=3)]
    for policy, want in zip(policies, _reference_eus(d, policies)):
        assert expected_utility(d, policy) == pytest.approx(
            want, rel=1e-12, abs=1e-12)
    # Rules that observe each other in a cycle choose nothing.
    cycle = Policy({"d1": ("d0",), "d0": ("d1",)},
                   {"d1": {("a0",): "a0", ("a1",): "a1"},
                    "d0": {("a0",): "a0", ("a1",): "a1"}})
    with pytest.raises(CycleIntroduced,
                       match="^information arc d1->d0 creates a cycle$"):
        expected_utility(d, cycle)


def test_policy_entry_points_refuse_exactly_the_cycles_networkx_finds():
    """An independent route to the one gate: each seeded policy diagram
    gains one or two drawn information arcs from non-utility nodes into
    decisions, in a policy for ``expected_utility`` and in the diagram
    for ``optimal_policy``.  Both refuse exactly when networkx finds a
    cycle in the combined arcs, and name an arc a->b with a path b ~> a."""
    nx = pytest.importorskip("networkx")
    verdicts = []
    for seed in range(1000):
        d = random_policy_diagram(seed)
        rng = random.Random(seed)
        sources = [x for x in d.names() if d.node(x).kind != UTILITY]
        arcs = list(dict.fromkeys([*d.information_arcs, *(
            (rng.choice(sources), rng.choice(d.decisions()))
            for _ in range(rng.randint(1, 2)))]))
        graph = nx.DiGraph([*d.relevance_arcs, *arcs])
        acyclic = nx.is_directed_acyclic_graph(graph)
        informed = d.with_arcs(information=arcs)
        info = {dec: tuple(informed.info_parents(dec))
                for dec in d.decisions()}
        policy = Policy(info, {dec: {
            k: rng.choice(d.node(dec).states)
            for k in instance_keys(parent_variables(d, parents))}
            for dec, parents in info.items()})
        # The search is capped small; the gate runs before the cap.
        for call in (lambda: expected_utility(d, policy),
                     lambda: optimal_policy(informed, cap=4096)):
            try:
                call()
            except CycleIntroduced as e:
                a, b = re.fullmatch("information arc (.+)->(.+) creates a "
                                    "cycle", str(e)).groups()
                assert not acyclic and (a, b) in arcs, seed
                assert nx.has_path(graph, b, a), seed
            except PolicySpaceExceeded:
                assert acyclic, seed
            else:
                assert acyclic, seed
        verdicts.append(acyclic)
    assert 100 < sum(verdicts) < 900


def test_expected_utility_reads_the_policy_information():
    """A policy may observe other variables than the diagram's
    information arcs say; expected utility follows the policy."""
    for seed in range(50):
        d = random_policy_diagram(seed)
        roots = [x for x in d.uncertain() if not d.parents(x)]
        flips = [("d0", "d1")] + [(r, dec) for r in roots
                                  for dec in d.decisions()]
        info = set(d.information_arcs) ^ {flips[seed % len(flips)]}
        other = d.with_arcs(information=sorted(info))
        other = other._replace(decision_order=tuple(
            x for x in other.topological_order() if x in d.decisions()))
        assert validate_diagram(other) == []
        policies = list(enumerate_policies(other))
        want = _reference_eus(other, policies)
        for i in {0, seed % len(policies), len(policies) - 1}:
            assert expected_utility(d, policies[i]) == pytest.approx(
                want[i], rel=1e-12, abs=1e-12), seed
