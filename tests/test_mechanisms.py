import ast
import itertools
import math
import random
import re

import pytest

from decid import (Diagram, HcfDiagram, MechanismSpec, Variable,
                   canonical_mechanism_prior, chance_node,
                   check_marginal_reproduction, decision_node, joint,
                   mechanism_name, mechanism_state_label, posterior,
                   set_decision_node, to_hcf, validate_diagram, validate_hcf)
from decid import (CounterfactualQuery, WorldTable, counterfactual,
                   mechanisms)
from decid.errors import (MechanismError, ModelError, NotCausal, NotHcf,
                          ReassessmentRequired, StateSpaceExceeded,
                          UnknownVariable)
from decid.model import TOL, ConditionalTable

from genmodels import random_diagram, random_table_diagram
from reference import marginalize, product_prior, reproduction

SMOKE = Variable("smoke", ("no", "yes"))
LC = Variable("lung_cancer", ("no", "yes"))


# ---------------------------------------------------------------------------
# Mechanism state enumeration


def _mechanism_states(x, domain):
    """The mechanism states ``to_hcf`` lists for ``x`` under decisions
    ``domain``: every mapping from the domain instances to x's states."""
    rows = {key: [1 / len(x.states)] * len(x.states)
            for key in itertools.product(*(v.states for v in domain))}
    d = Diagram((*(decision_node(v.name, v.states) for v in domain),
                 chance_node(x.name, x.states, [v.name for v in domain],
                             rows)),
                tuple((v.name, x.name) for v in domain))
    return canonical_mechanism_prior(d, x.name).states


def test_binary_target_binary_domain_has_four_mappings():
    got = _mechanism_states(LC, [SMOKE])
    assert got == (("no", "no"), ("no", "yes"), ("yes", "no"), ("yes", "yes"))


def test_mapping_content_for_single_cause():
    """The four responses of a binary variable to a binary cause:
    never, follow, oppose, always."""
    got = set(_mechanism_states(LC, [SMOKE]))
    assert got == {
        ("no", "no"),       # unaffected at "no"
        ("no", "yes"),      # tracks the cause
        ("yes", "no"),      # anti-tracks the cause
        ("yes", "yes"),     # unaffected at "yes"
    }


def test_mapping_count_is_r_to_the_q():
    x3 = Variable("x", ("a", "b", "c"))
    assert len(_mechanism_states(x3, [SMOKE])) == 9
    d2 = Variable("d2", ("0", "1"))
    assert len(_mechanism_states(LC, [SMOKE, d2])) == 16


def test_mapping_cap_enforced(monkeypatch):
    big = Variable("big", tuple(f"s{i}" for i in range(10)))
    big2 = Variable("big2", big.states)
    monkeypatch.setattr(mechanisms, "MECHANISM_STATE_CAP", 1000)
    with pytest.raises(StateSpaceExceeded, match=(
            "^mechanism for lung_cancer needs 1267650600228229401496703205376 "
            "states, cap is 1000$")):
        _mechanism_states(LC, [big, big2])


def test_state_labels_join_mapping_values():
    assert mechanism_state_label(("no", "yes")) == "no,yes"
    assert mechanism_name("lung_cancer", ("smoke",)) == "lung_cancer(smoke)"


# ---------------------------------------------------------------------------
# Canonical product prior


def test_product_prior_m1(m1):
    spec = canonical_mechanism_prior(m1, "lung_cancer")
    assert spec.domain == ("smoke",)
    assert spec.fixed_parents == ()
    want = {("no", "no"): 0.76, ("no", "yes"): 0.19,
            ("yes", "no"): 0.04, ("yes", "yes"): 0.01}
    got = dict(zip(spec.states, spec.prior.rows[()]))
    assert got.keys() == want.keys()
    for mapping, p in want.items():
        assert got[mapping] == pytest.approx(p, abs=1e-12)
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


def test_product_prior_fig6a_conditions_on_genotype(fig6a):
    spec = canonical_mechanism_prior(fig6a, "lung_cancer")
    assert spec.fixed_parents == ("genotype",)
    g1 = dict(zip(spec.states, spec.prior.rows[("g1",)]))
    g2 = dict(zip(spec.states, spec.prior.rows[("g2",)]))
    assert g1[("no", "no")] == pytest.approx(0.97 * 0.85, abs=1e-12)
    assert g1[("no", "yes")] == pytest.approx(0.97 * 0.15, abs=1e-12)
    assert g1[("yes", "no")] == pytest.approx(0.03 * 0.85, abs=1e-12)
    assert g1[("yes", "yes")] == pytest.approx(0.03 * 0.15, abs=1e-12)
    assert g2[("no", "no")] == pytest.approx(0.9 * 0.6, abs=1e-12)
    assert g2[("yes", "yes")] == pytest.approx(0.1 * 0.4, abs=1e-12)


def test_prior_requires_a_chance_node(m1):
    with pytest.raises(ValueError, match="^smoke is not a chance node$"):
        canonical_mechanism_prior(m1, "smoke")


def test_prior_requires_nonfixed_parent(fig6a):
    with pytest.raises(ValueError):
        canonical_mechanism_prior(fig6a, "genotype")


# ---------------------------------------------------------------------------
# The transformation


def test_to_hcf_m1_shape(m1):
    h = to_hcf(m1)
    d = h.diagram
    mech = "lung_cancer(smoke)"
    assert d.has(mech)
    assert len(h.mechanisms) == 1
    assert [(m.name, m.target) for m in h.mechanisms] == [
        (mech, "lung_cancer")]
    lc = d.node("lung_cancer")
    assert lc.kind == "deterministic"
    assert lc.table.parent_order == ("smoke", mech)
    assert set(d.relevance_arcs) == {("smoke", "lung_cancer"),
                                     (mech, "lung_cancer")}
    assert validate_diagram(d) == []
    assert validate_hcf(h) == []


def test_to_hcf_m1_response_semantics(m1):
    h = to_hcf(m1)
    lc = h.diagram.node("lung_cancer")
    # Under the "tracks the cause" state, lung_cancer copies smoke's
    # yes/no; under "unaffected at no" it is always no.
    assert lc.table.rows[("yes", "no,yes")] == (0.0, 1.0)
    assert lc.table.rows[("no", "no,yes")] == (1.0, 0.0)
    assert lc.table.rows[("yes", "no,no")] == (1.0, 0.0)
    assert lc.table.rows[("no", "yes,yes")] == (0.0, 1.0)


def test_to_hcf_fig6a_shape(fig6a):
    h = to_hcf(fig6a)
    d = h.diagram
    assert d.has("lung_cancer(smoke)") and d.has("cardio(diet)")
    assert d.node("lung_cancer(smoke)").table.parent_order == ("genotype",)
    assert d.node("cardio(diet)").table.parent_order == ("genotype",)
    assert d.node("lung_cancer").table.parent_order == (
        "smoke", "lung_cancer(smoke)")
    assert d.node("cardio").table.parent_order == ("diet", "cardio(diet)")
    assert validate_hcf(h) == []
    # Both mechanisms are fixed; the originals are decision descendants.
    fixed = d.fixed_nodes()
    assert {"genotype", "lung_cancer(smoke)", "cardio(diet)"} <= fixed
    assert "lung_cancer" not in fixed and "cardio" not in fixed


def test_to_hcf_preserves_joint(fig6a):
    h = to_hcf(fig6a)
    keep = fig6a.uncertain()
    for smoke in ("no", "yes"):
        for diet in ("good", "poor"):
            decisions = {"smoke": smoke, "diet": diet}
            orig = joint(fig6a, decisions)
            new = joint(h.diagram, decisions)
            for v in new.scope:
                if v not in keep:
                    new = marginalize(new, v)
            for combo in itertools.product(
                    *(fig6a.node(x).states for x in keep)):
                a = dict(zip(keep, combo))
                assert new.value(a) == pytest.approx(orig.value(a), abs=1e-10)


def test_to_hcf_requires_causal_annotation():
    d = random_diagram(3, causal=False)
    with pytest.raises(NotCausal):
        to_hcf(d)
    h = to_hcf(d, assume_causal=True)
    assert h.diagram.causal


def test_to_hcf_rejects_nonfixed_arc_into_declared_fixed():
    dec = decision_node("d", ["a", "b"])
    a = chance_node("a", ["0", "1"], ["d"],
                    {("a",): [0.3, 0.7], ("b",): [0.6, 0.4]})
    b = chance_node("b", ["0", "1"], ["a"],
                    {("0",): [0.5, 0.5], ("1",): [0.2, 0.8]})
    d = Diagram((dec, a, b), (("d", "a"), ("a", "b")), (), ("d",),
                causal=True, declared_fixed=frozenset({"b"}))
    assert validate_diagram(d) == []
    with pytest.raises(ReassessmentRequired):
        to_hcf(d)


def _dependent_spec(fig6a):
    """A prior for lung_cancer's mechanism conditioned on genotype and on
    cardio's mechanism: the product prior when cardio responds to diet,
    all its weight on the "follow smoke" mapping otherwise."""
    base = canonical_mechanism_prior(fig6a, "lung_cancer")
    cardio = to_hcf(fig6a).diagram.node("cardio(diet)")
    follow = tuple(float(m == ("no", "yes")) for m in base.states)
    rows = {(g, c): base.prior.rows[(g,)] if c in ("good,bad", "bad,good")
            else follow
            for g in fig6a.node("genotype").states for c in cardio.states}
    return MechanismSpec(base.target, base.domain,
                         ("genotype", "cardio(diet)"), base.states,
                         ConditionalTable(("genotype", "cardio(diet)"), rows))


def test_to_hcf_takes_a_dependent_prior_through_priors(fig6a):
    h = to_hcf(fig6a, priors={"lung_cancer": _dependent_spec(fig6a)})
    assert validate_hcf(h) == []
    d = h.diagram
    assert d.node("lung_cancer(smoke)").table.parent_order == (
        "genotype", "cardio(diet)")
    assert ("cardio(diet)", "lung_cancer(smoke)") in d.relevance_arcs
    table = WorldTable(d)
    # Per genotype: 4 lung-cancer mechanisms under each of the 2 cardio
    # mechanisms that respond to diet, 1 under each of the other 2.
    assert len(table.worlds) == 2 * (2 * 4 + 2 * 1)
    # Where cardio's mechanism ignores diet, lung cancer follows smoke.
    for w in table.worlds:
        if w.assignment["cardio(diet)"] == "good,good":
            assert w.assignment["lung_cancer(smoke)"] == "no,yes"
    # The audit cannot read a prior conditioned on another mechanism off
    # the original table: one violation names the extra parent.
    assert check_marginal_reproduction(fig6a, h) == [
        "lung_cancer(smoke): lung_cancer has parents ['genotype', 'smoke'] "
        "in the original, not ['cardio(diet)', 'genotype', 'smoke']"]


def test_to_hcf_rejects_a_prior_for_no_target(fig6a):
    spec = canonical_mechanism_prior(fig6a, "lung_cancer")
    with pytest.raises(UnknownVariable, match="lung_cancr"):
        to_hcf(fig6a, priors={"lung_cancr": spec})
    with pytest.raises(UnknownVariable, match="genotype"):
        to_hcf(fig6a, priors={"genotype": spec})


def test_to_hcf_rejects_a_prior_for_another_mechanism(fig6a):
    spec = canonical_mechanism_prior(fig6a, "lung_cancer")
    with pytest.raises(UnknownVariable, match="lung_cancer"):
        to_hcf(fig6a, priors={"cardio": spec})
    other = MechanismSpec(spec.target, ("diet",), spec.fixed_parents,
                          spec.states, spec.prior)
    with pytest.raises(UnknownVariable, match=r"lung_cancer\(diet\)"):
        to_hcf(fig6a, priors={"lung_cancer": other})


def test_to_hcf_checks_a_given_prior_before_building(m1):
    """An entry that is no state of the target, a mapping too short, a
    fixed parent that is no variable: the spec's own faults.  Then the
    prior is judged as every table is: a row without one entry per
    mapping, no row for the one fixed-parent instance, an entry outside
    [0, 1], a row sum off by 1e-6."""
    base = canonical_mechanism_prior(m1, "lung_cancer")
    row = base.prior.rows[()]
    at = r"^mechanism lung_cancer\(smoke\): "
    for fixed, states, rows, message in [
            ((), (("no", "maybe"),) + base.states[1:], {(): row},
             at + "mapping 0 names 'maybe', not a state of lung_cancer$"),
            ((), base.states[:1] + (("no",),) + base.states[2:], {(): row},
             at + r"mapping 1 has 1 entries, not one per domain instance "
             r"\(2\)$"),
            (("nosuch",), base.states, {("a",): row},
             at + "unknown fixed parent 'nosuch'$"),
            ((), base.states, {(): row[:3]},
             r"^lung_cancer\(smoke\): row \(\) has 3 entries, expected 4$"),
            ((), base.states, {},
             r"^lung_cancer\(smoke\): missing CPT row \(\)$"),
            ((), base.states, {(): (0.9, 0.9, -0.5, 0.7)},
             r"^lung_cancer\(smoke\): row \(\) has entries outside "
             r"\[0, 1\]$"),
            ((), base.states, {(): (row[0] + 1e-6,) + row[1:]},
             r"^lung_cancer\(smoke\): row sum 1\.00000\d* != 1 at row "
             r"\(\)$")]:
        spec = MechanismSpec(base.target, base.domain, fixed, states,
                             ConditionalTable(fixed, rows))
        with pytest.raises(MechanismError, match=message):
            to_hcf(m1, priors={"lung_cancer": spec})
    assert issubclass(MechanismError, ModelError)


def test_to_hcf_gives_each_mechanism_its_node_table_as_prior(m1, fig6a):
    """One statement of each prior: the spec's is the node's table, for
    the product prior and for a given one alike."""
    given = canonical_mechanism_prior(m1, "lung_cancer")
    for h in (to_hcf(m1), to_hcf(fig6a),
              to_hcf(m1, priors={"lung_cancer": given})):
        for m in h.mechanisms:
            assert m.prior is h.diagram.node(m.name).table
        assert validate_hcf(h) == []


def test_validate_hcf_reports_every_mechanism_violation(m1):
    """A spec over an unknown variable is reported, not raised; a spec
    over known ones has each of its faults reported, a prior other than
    its node's table among them."""
    h = to_hcf(m1)
    spec = h.mechanisms[0]
    ghost = spec._replace(domain=("ghost",))
    assert validate_hcf(HcfDiagram(h.diagram, (ghost,))) == [
        "mechanism lung_cancer(ghost): unknown domain variable 'ghost'"]
    bad = spec._replace(states=(spec.states[0], ("no",), ("no", "maybe"),
                                spec.states[3]),
                  prior=ConditionalTable((), {(): (0.5, 0.5, 0.0)}))
    assert validate_hcf(HcfDiagram(h.diagram, (bad,))) == [
        "mechanism lung_cancer(smoke): mapping 1 has 1 entries, not one "
        "per domain instance (2)",
        "mechanism lung_cancer(smoke): mapping 2 names 'maybe', not a "
        "state of lung_cancer",
        "mechanism lung_cancer(smoke): prior is not the table of its node"]


def test_a_node_with_fewer_states_than_mappings_is_one_violation(m1):
    """The node's labels are compared whole: with the mapping "yes,yes"
    gone from the node, its table and its source's rows, every table is
    whole and the one fault is the count."""
    h = to_hcf(m1)
    spec, lc = h.mechanisms[0], h.diagram.node("lung_cancer")
    mech = chance_node(spec.name, h.diagram.node(spec.name).states[:3], (),
                       {(): (0.5, 0.3, 0.2)})
    rows = {k: v for k, v in lc.table.rows.items() if k[1] != "yes,yes"}
    short = _with_node(_with_node(h, mech), lc._replace(
        table=lc.table._replace(rows=rows)))
    short = HcfDiagram(short.diagram, (spec._replace(prior=mech.table),))
    assert validate_hcf(short) == [
        "mechanism lung_cancer(smoke): 4 mappings, but the node has 3 states"]


def test_validate_hcf_reports_mapping_order(m1):
    h = to_hcf(m1)
    spec = h.mechanisms[0]
    backwards = spec._replace(states=spec.states[::-1])
    labels = [mechanism_state_label(m) for m in spec.states]
    assert validate_hcf(HcfDiagram(h.diagram, (backwards,))) == [
        f"mechanism lung_cancer(smoke): mapping {k} is {labels[-1 - k]!r}, "
        f"but state {k} of the node is {labels[k]!r}" for k in range(4)]


def _below_smoke(h):
    """``h`` with its one mechanism's prior conditioned on smoke."""
    spec = h.mechanisms[0]
    row = spec.prior.rows[()]
    prior = ConditionalTable(("smoke",), {("no",): row, ("yes",): row})
    mech = chance_node(spec.name, h.diagram.node(spec.name).states,
                       ("smoke",), prior.rows)
    d = h.diagram._replace(nodes=tuple(
        mech if n.name == spec.name else n for n in h.diagram.nodes),
        relevance_arcs=h.diagram.relevance_arcs + (("smoke", spec.name),))
    return HcfDiagram(d, (spec._replace(fixed_parents=("smoke",),
                                  prior=prior),))


def _with_node(h, node):
    """``h`` with ``node`` in place of its namesake."""
    return HcfDiagram(h.diagram._replace(nodes=tuple(
        node if n.name == node.name else n for n in h.diagram.nodes)),
        h.mechanisms)


def _chance_target(h):
    lc = h.diagram.node("lung_cancer")
    rows = dict.fromkeys(lc.table.rows, (0.5, 0.5))
    return _with_node(h, chance_node("lung_cancer", lc.states,
                                     lc.table.parent_order, rows))


@pytest.mark.parametrize("edit,violations", [
    (lambda h: HcfDiagram(h.diagram._replace(causal=False), h.mechanisms),
     ["HCF diagram must be annotated causal"]),
    (_chance_target, ["decision descendant lung_cancer is not deterministic"]),
    (_below_smoke,
     ["decision descendant lung_cancer(smoke) is not deterministic",
      "mechanism lung_cancer(smoke) is a decision descendant"]),
    (lambda h: HcfDiagram(h.diagram._replace(
        declared_fixed=frozenset({"lung_cancer"})), h.mechanisms),
     ["fixed node lung_cancer has a non-fixed parent"]),
])
def test_validate_hcf_reports_the_canonical_form(m1, edit, violations):
    """The one shape check: ``validate_hcf`` reports every fault, and
    counterfactuals and the world oracle raise the first."""
    h = edit(to_hcf(m1))
    assert validate_hcf(h) == violations
    first = f"^{re.escape(violations[0])}$"
    if h.diagram.causal:
        with pytest.raises(NotHcf, match=first):
            WorldTable(h.diagram)
    with pytest.raises(NotHcf, match=first):
        counterfactual(h, CounterfactualQuery(
            {"smoke": "yes"}, {}, {"smoke": "no"}, ("lung_cancer",)))


def test_to_hcf_refuses_a_mechanism_name_in_use(m1):
    taken = chance_node("lung_cancer(smoke)", ["a", "b"], [], {(): [0.5, 0.5]})
    with pytest.raises(ValueError, match=r"^mechanism name "
                       r"'lung_cancer\(smoke\)' collides with a variable$"):
        to_hcf(m1._replace(nodes=m1.nodes + (taken,)))


def test_to_hcf_cap(monkeypatch, fig6a):
    monkeypatch.setattr(mechanisms, "MECHANISM_STATE_CAP", 3)
    with pytest.raises(StateSpaceExceeded):
        to_hcf(fig6a)


def test_to_hcf_sizes_every_mechanism_before_building_any(monkeypatch):
    """x1's 2^16 mappings fit the cap and x2's 3^32 do not: the cap
    trips before x1's mechanism is built."""
    d = decision_node("d", [f"a{i}" for i in range(16)])
    x1 = chance_node("x1", ["0", "1"], ["d"],
                     {(a,): [0.5, 0.5] for a in d.states})
    x2 = chance_node("x2", ["0", "1", "2"], ["x1", "d"],
                     {(s, a): [0.2, 0.3, 0.5]
                      for s in x1.states for a in d.states})
    diagram = Diagram((d, x1, x2), (("d", "x1"), ("x1", "x2"), ("d", "x2")),
                      (), ("d",), causal=True)
    built = []
    monkeypatch.setattr(mechanisms, "_build_spec",
                        lambda *args: built.append(args[1].name))
    with pytest.raises(StateSpaceExceeded, match=(
            f"^mechanism for x2 needs {3 ** 32} states, cap is 1000000$")):
        to_hcf(diagram)
    assert built == []


def test_to_hcf_on_set_decision_target():
    """A node affected only through its set decision gets an empty-domain
    mechanism: the node becomes a pure copy of the mechanism's draw."""
    genotype = chance_node("genotype", ["g1", "g2"], [], {(): [0.7, 0.3]})
    lc = chance_node("lc", ["no", "yes"], ["genotype"], {
        ("g1",): [0.97, 0.03], ("g2",): [0.7, 0.3]})
    s_lc = set_decision_node("s_lc", ["no", "yes"], "lc")
    d = Diagram((s_lc, genotype, lc),
                (("s_lc", "lc"), ("genotype", "lc")), (), ("s_lc",),
                causal=True)
    assert validate_diagram(d) == []
    h = to_hcf(d)
    mech = "lc()"
    assert h.diagram.has(mech)
    assert h.diagram.node(mech).table.parent_order == ("genotype",)
    assert h.diagram.node("lc").table.parent_order == (mech,)
    assert validate_hcf(h) == []
    # Intervening still wins over the mechanism.
    f = joint(h.diagram, {"s_lc": "set=yes"})
    for v in f.scope:
        if v != "lc":
            f = marginalize(f, v)
    assert f.value({"lc": "yes"}) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Marginal reproduction audit


def test_product_prior_reproduces_marginals(m1, fig6a):
    for d in (m1, fig6a):
        assert check_marginal_reproduction(d, to_hcf(d)) == []


def test_prior_without_a_row_fails_reproduction(m1):
    """The audit reads the mechanism node's rows; ``validate_hcf`` holds
    the spec's prior to that table."""
    h = to_hcf(m1)
    mech = h.diagram.node("lung_cancer(smoke)")
    rowless = _with_node(h, chance_node(mech.name, mech.states, (), {}))
    assert check_marginal_reproduction(m1, rowless) == [
        "lung_cancer: prior has no row for fixed parents ()"]
    spec = h.mechanisms[0]._replace(prior=ConditionalTable((), {}))
    assert validate_hcf(HcfDiagram(h.diagram, (spec,))) == [
        "mechanism lung_cancer(smoke): prior is not the table of its node"]
    assert check_marginal_reproduction(
        m1, HcfDiagram(h.diagram, (spec,))) == []


def test_a_reversed_source_row_fails_reproduction(m1):
    """The audit reads the source's table, as every query does: with
    lung_cancer's row for smoke=no under the mapping "no,no" reversed,
    the canonical form still validates, but gives P(lung_cancer=no |
    smoke=no) as 0.19, not 0.95."""
    h = to_hcf(m1)
    lc = h.diagram.node("lung_cancer")
    rows = {**lc.table.rows, ("no", "no,no"): (0.0, 1.0)}
    tampered = _with_node(h, chance_node(
        lc.name, lc.states, lc.table.parent_order, rows, deterministic=True))
    assert validate_hcf(tampered) == []
    assert posterior(tampered, {"smoke": "no"}, {}, ["lung_cancer"]).value(
        {"lung_cancer": "no"}) == pytest.approx(0.19)
    assert check_marginal_reproduction(m1, tampered) == [
        "lung_cancer: P(lung_cancer=no | y=('no',), z=()) is 0.95 "
        "originally but 0.19 under the prior",
        "lung_cancer: P(lung_cancer=yes | y=('no',), z=()) is 0.05 "
        "originally but 0.81 under the prior"]


@pytest.mark.parametrize("node", [
    chance_node("lung_cancer", LC.states, ("lung_cancer(smoke)",), {},
                deterministic=True),
    chance_node("lung_cancer", LC.states, ("smoke",), {},
                deterministic=True),
    chance_node("lung_cancer", ("yes", "no"),
                ("smoke", "lung_cancer(smoke)"), {}, deterministic=True),
    decision_node("smoke", ("no", "yes", "maybe")),
    decision_node("lung_cancer", LC.states)])
def test_a_source_off_its_domain_and_mechanism_fails_reproduction(m1, node):
    """A canonical form that does not tabulate the source over exactly
    its domain and its mechanism, in the original's states, is one
    violation, not an error."""
    assert check_marginal_reproduction(m1, _with_node(to_hcf(m1), node)) == [
        "lung_cancer(smoke): the canonical form does not tabulate "
        "lung_cancer over ['lung_cancer(smoke)', 'smoke'] in the "
        "original's states"]


def test_uniform_prior_fails_reproduction(m1):
    base = canonical_mechanism_prior(m1, "lung_cancer")
    uniform = MechanismSpec(
        base.target, base.domain, base.fixed_parents, base.states,
        ConditionalTable((), {(): (0.25, 0.25, 0.25, 0.25)}))
    h = to_hcf(m1, priors={"lung_cancer": uniform})
    violations = check_marginal_reproduction(m1, h)
    assert violations
    assert all("lung_cancer" in v for v in violations)


def _perturbed_hcf(seed):
    """A seeded diagram and its canonical form under priors whose rows
    are each kept, renormalised at random, or scaled by 1 + 1e-10 u."""
    d = (random_diagram(seed, n_chance=4, max_states=3, n_decisions=2)
         if seed % 2 else random_table_diagram(seed))
    rng = random.Random(-1 - seed)
    priors = {}
    for m in to_hcf(d).mechanisms:
        rows = {}
        for key, row in m.prior.rows.items():
            how = rng.randrange(3)
            if how == 1:
                w = [p * rng.random() for p in row]
                row = tuple(p / sum(w) for p in w)
            elif how == 2:
                row = tuple(p * (1 + 1e-10 * rng.uniform(-1, 1)) for p in row)
            rows[key] = row
        priors[m.target] = m._replace(prior=m.prior._replace(rows=rows))
    return d, to_hcf(d, priors=priors)


VIOLATION = re.compile(r"(\w+): P\(\1=(\w+) \| y=(\(.*\)), z=(\(.*\))\) "
                       r"is (\S+) originally but (\S+) under the prior")


def test_reproduction_audit_matches_the_row_walk():
    """Over 300 canonical forms with perturbed priors, the audit flags
    exactly the cells the row-dict walk of ``reference.reproduction``
    puts beyond ``TOL``, with the same totals to 1e-12."""
    flagged = passed = 0
    for seed in range(300):
        d, h = _perturbed_hcf(seed)
        cells = reproduction(d, h)
        want = {key for key, (p, total) in cells.items()
                if abs(total - p) > TOL}
        got = []
        for v in check_marginal_reproduction(d, h):
            x, k, y, z, p, total = VIOLATION.fullmatch(v).groups()
            key = (x, ast.literal_eval(z), ast.literal_eval(y), k)
            assert float(p) == cells[key][0], (seed, v)
            assert abs(float(total) - cells[key][1]) <= 1e-12, (seed, v)
            got.append(key)
        assert sorted(got) == sorted(want), seed
        flagged += len(got)
        passed += bool(h.mechanisms) and not got
    assert flagged >= 1000 and passed >= 50, (flagged, passed)


@pytest.mark.parametrize("seed", range(8))
def test_to_hcf_random_diagrams(seed):
    d = random_diagram(seed, n_chance=3, max_states=2, n_decisions=1,
                       max_parents=2)
    assert validate_diagram(d) == []
    h = to_hcf(d)
    assert validate_hcf(h) == []
    assert check_marginal_reproduction(d, h) == []
    keep = d.uncertain()
    for alt in ("a0", "a1"):
        orig = joint(d, {"d0": alt})
        new = joint(h.diagram, {"d0": alt})
        for v in new.scope:
            if v not in keep:
                new = marginalize(new, v)
        for combo in itertools.product(*(d.node(x).states for x in keep)):
            a = dict(zip(keep, combo))
            assert new.value(a) == pytest.approx(orig.value(a), abs=1e-10)


def test_product_priors_match_the_row_loop():
    """Every product prior of ``to_hcf`` equals the reference running
    product exactly, set-decision targets with an empty domain and
    tables constant along a parent included; its states are the
    mappings in ``itertools.product`` order, the order of its rows."""
    covered = dict.fromkeys(["empty domain", "fixed parents",
                             "two-parent domain"], 0)
    for seed in range(1000):
        d = random_table_diagram(seed)
        for m in to_hcf(d).mechanisms:
            assert m.prior == product_prior(d, m.target, m.domain,
                                            m.fixed_parents), seed
            q = math.prod(len(d.node(y).states) for y in m.domain)
            assert m.states == tuple(itertools.product(
                d.node(m.target).states, repeat=q)), seed
            covered["empty domain"] += not m.domain
            covered["fixed parents"] += bool(m.fixed_parents)
            covered["two-parent domain"] += len(m.domain) >= 2
    assert all(covered.values()), covered

