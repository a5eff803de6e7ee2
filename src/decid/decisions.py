"""Policy evaluation, value of information, and twin-network
counterfactual queries.

Expected utility runs variable elimination over the same family factors
as ``posterior``: the chance and utility factors of a diagram are built
once and every policy only adds one deterministic rule factor per
decision.  Policy search stays exhaustive over the (capped) policy
space, so it doubles as the oracle for any smarter search added later.
Counterfactuals run ``posterior`` over a twin diagram: the fixed layer
(fixed chance nodes and mechanisms) is shared, every decision-affected
node exists once factually and once primed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (CycleIntroduced, NoDecisionOrder, NotHcf, NotObservable,
                     NoUtilityNode, PolicySpaceExceeded, UnknownVariable)
from .inference import (Factor, eliminate, family_factor, posterior,
                        value_label_node)
from .mechanisms import HcfDiagram
from .model import (CHANCE, DECISION, DETERMINISTIC, TOL, UTILITY,
                    Assignment, Diagram, chance_node, decision_node,
                    instance_keys, parent_variables)

POLICY_SPACE_CAP = 10 ** 6

PRIME = "'"


@dataclass(frozen=True)
class Policy:
    """For each decision, a total mapping from information-parent
    instances (keyed in sorted parent order) to an alternative."""

    info_order: dict            # decision -> tuple of info parent names
    rules: dict                 # decision -> {info instance tuple: alternative}

    def choose(self, decision: str, assignment: Assignment) -> str:
        key = tuple(assignment[p] for p in self.info_order[decision])
        return self.rules[decision][key]


@dataclass(frozen=True)
class TwinDiagram:
    diagram: Diagram
    shared: frozenset[str]
    primed: dict                # original name -> counterfactual copy name


@dataclass(frozen=True)
class CounterfactualQuery:
    factual_decisions: dict
    factual_evidence: dict
    counterfactual_decisions: dict
    query: tuple[str, ...]


# ---------------------------------------------------------------------------
# Expected utility and optimal policy


def expected_utility(d: Diagram, policy: Policy) -> float:
    """Sum over joint outcomes of P(outcome | policy) * utility."""
    return _policy_value(d, _model_factors(d), policy)


def _model_factors(d: Diagram) -> list[Factor]:
    u = d.utility()
    if u is None:
        raise NoUtilityNode("diagram has no utility node")
    return [family_factor(d, d.node(x)) for x in d.uncertain() + [u.name]]


def _policy_value(d: Diagram, model: list[Factor], policy: Policy) -> float:
    """Eliminate every variable from the chance and utility factors and
    one deterministic rule factor per decision."""
    rules = []
    for dec in d.decisions():
        alts = d.node(dec).states
        rows = {key: [1.0 if a == alt else 0.0 for a in alts]
                for key, alt in policy.rules[dec].items()}
        rule = chance_node(dec, alts, policy.info_order[dec], rows)
        rules.append(family_factor(d, rule))
    return float(eliminate(model + rules, ()).values)


def enumerate_policies(d: Diagram, cap: int = POLICY_SPACE_CAP):
    """All policies in canonical order: decisions in decision order,
    information instances lexicographic, alternatives in state order."""
    if d.decision_order is None:
        raise NoDecisionOrder("diagram has no decision order")
    decisions = list(d.decision_order)
    info_order = {dec: tuple(d.info_parents(dec)) for dec in decisions}
    # Each decision has |alternatives| ** |information instances| rules.
    space = [(len(d.node(dec).states), math.prod(
        len(v.states) for v in parent_variables(d, info_order[dec])))
        for dec in decisions]
    bits = sum(n * math.log2(k) for k, n in space if k)
    total = math.prod(k ** n for k, n in space) if bits < 2000 else None
    if total is None or total > cap:
        size = f"about 2^{bits:.0f}" if total is None else total
        raise PolicySpaceExceeded(
            f"policy space of {size} policies exceeds cap {cap}")
    slots = [(dec, key) for dec in decisions
             for key in instance_keys(parent_variables(d, info_order[dec]))]
    for combo in itertools.product(*(d.node(dec).states for dec, _ in slots)):
        rules = {dec: {} for dec in decisions}
        for (dec, key), alt in zip(slots, combo):
            rules[dec][key] = alt
        yield Policy(info_order, rules)


def optimal_policy(d: Diagram, cap: int = POLICY_SPACE_CAP
                   ) -> tuple[Policy, float]:
    """Exhaustively maximize expected utility.  A later policy wins only
    by more than ``TOL * max(1, |best|)``, so ties within rounding keep
    the first policy in canonical order."""
    policies = enumerate_policies(d, cap)
    best = next(policies, None)
    if best is None:
        raise NoDecisionOrder("no policies to evaluate")
    model = _model_factors(d)
    best_eu = _policy_value(d, model, best)
    for policy in policies:
        eu = _policy_value(d, model, policy)
        if eu > best_eu + TOL * max(1.0, abs(best_eu)):
            best, best_eu = policy, eu
    return best, best_eu


# ---------------------------------------------------------------------------
# Value of information


def value_of_information(d: Diagram, observed: str, decision: str,
                         no_forgetting: bool = False,
                         cap: int = POLICY_SPACE_CAP) -> float:
    """Gain in optimal expected utility from observing ``observed``
    before ``decision``.

    Only fixed-set variables are observable: a variable the decisions
    can still affect cannot be seen before those decisions are made, so
    asking for its value of information is rejected.
    """
    node = d.node(observed)
    if node.kind not in (CHANCE, DETERMINISTIC):
        raise UnknownVariable(f"{observed} is not a chance variable")
    if d.node(decision).kind != DECISION:
        raise UnknownVariable(f"{decision} is not a decision")
    if observed not in d.fixed_nodes():
        raise NotObservable(
            f"{observed} is affected by the decisions and cannot be observed "
            "before they are made; transform to Howard Canonical Form to get "
            "an observable mechanism instead")
    targets = [decision]
    if no_forgetting and d.decision_order:
        later = list(d.decision_order)[list(d.decision_order).index(decision):]
        targets = later
    info = list(d.information_arcs)
    info.extend((observed, t) for t in targets if (observed, t) not in info)
    d2 = d.with_arcs(information=info)
    if len(d2.topological_order()) != len(d2.nodes):
        raise CycleIntroduced(
            f"information arc {observed}->{decision} creates a cycle")
    _, base = optimal_policy(d, cap)
    _, informed = optimal_policy(d2, cap)
    return informed - base


# ---------------------------------------------------------------------------
# Twin networks


def build_twin(h: HcfDiagram) -> TwinDiagram:
    """Duplicate every decision-affected node; share the fixed layer.

    Utility nodes touched by decisions are carried into both copies as
    deterministic value-label nodes so counterfactual utility queries
    stay ordinary inference queries.  A constant utility carries no
    information and is dropped from the twin.
    """
    d = h.diagram
    desc = d.descendants(d.decisions())
    for x in d.uncertain():
        if x in desc and d.node(x).kind != DETERMINISTIC:
            raise NotHcf(f"{x} is a non-deterministic decision descendant; "
                         "transform to Howard Canonical Form first")
    shared = {n.name for n in d.nodes if n.name not in desc
              and n.kind != DECISION}
    affected = [value_label_node(n) for n in d.nodes if n.name not in shared]
    primed = {n.name: n.name + PRIME for n in affected}
    dropped = {n.name for n in affected
               if d.node(n.name).kind == UTILITY and len(n.states) < 2}

    def mapped(name, copy2):
        return primed[name] if copy2 and name in primed else name

    nodes = [n for n in d.nodes if n.name in shared]
    relevance = [(a, b) for a, b in d.relevance_arcs
                 if a in shared and b in shared]
    information = []
    for copy2 in (False, True):
        for n in affected:
            name = mapped(n.name, copy2)
            if n.kind == DECISION:
                nodes.append(decision_node(
                    name, n.states, mapped(n.set_decision_for, copy2)))
            elif n.name not in dropped:
                parents = tuple(mapped(p, copy2) for p in n.table.parent_order)
                nodes.append(chance_node(name, n.states, parents, n.table.rows,
                                         deterministic=n.kind == DETERMINISTIC))
        relevance.extend((mapped(a, copy2), mapped(b, copy2))
                         for a, b in d.relevance_arcs
                         if b not in shared and b not in dropped)
        information.extend((mapped(a, copy2), mapped(b, copy2))
                           for a, b in d.information_arcs)

    order = d.decision_order
    if order is None and d.decisions():
        order = d.decisions()
    if order is not None:
        order = tuple(order) + tuple(primed[x] for x in order)
    twin = Diagram(tuple(nodes), tuple(relevance), tuple(information),
                   order, causal=d.causal, declared_fixed=d.declared_fixed)
    return TwinDiagram(twin, frozenset(shared), primed)


def counterfactual(h: HcfDiagram, q: CounterfactualQuery) -> Factor:
    """Answer "had the decisions been different" queries on the twin.

    Factual decisions and evidence instantiate the first copy; the
    counterfactual decisions instantiate the primed copy; the result is
    the normalized posterior over the primed query variables.
    """
    twin = build_twin(h)
    d = h.diagram
    decisions = {}
    for dec in d.decisions():
        if dec not in q.factual_decisions:
            raise UnknownVariable(f"missing factual decision for {dec}")
        if dec not in q.counterfactual_decisions:
            raise UnknownVariable(f"missing counterfactual decision for {dec}")
        decisions[dec] = q.factual_decisions[dec]
        decisions[twin.primed[dec]] = q.counterfactual_decisions[dec]
    evidence = dict(q.factual_evidence)   # copy-1 keeps original names
    query = [twin.primed.get(x, x) for x in q.query]
    for x in query:
        twin.diagram.node(x)
    return posterior(twin.diagram, decisions, evidence, query)
