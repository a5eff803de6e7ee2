"""Policy evaluation, value of information, and twin-network
counterfactual queries.

Expected utility is linear in the policy.  One ``eliminate`` over the
same family factors as ``posterior`` sums every variable but the
decisions and what they observe out of the chance and utility factors,
barren chance nodes left out; at desk scale the product is within
``inference.FUSED_CELLS``, and that is one contraction.  One gather
from that table per block of policies, at the alternatives their rules
choose, and a sum per policy score them all.
A policy search, and both searches of a value of information, run one
elimination.  Policy search stays exhaustive over the (capped) policy
space, so it doubles as the oracle for any smarter search added later.
Counterfactuals eliminate over the family factors of a twin network:
the fixed layer (fixed chance nodes and mechanisms) is shared, and the
factors of every decision-affected variable are read once factually
and once more with their scopes renamed ``x -> x'``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (CycleIntroduced, NoDecisionOrder, NotObservable,
                     NoUtilityNode, PolicySpaceExceeded, UnknownVariable)
from .graphs import _check_names
from .inference import (Factor, _check_query, _conditional,
                        _require_full_decisions, _requisite_factors,
                        eliminate, family_factor, value_label_node)
from .model import (CHANCE, DECISION, DETERMINISTIC, TOL, UTILITY, Diagram,
                    HcfDiagram, _reach_bits, _require_hcf, instance_keys,
                    parent_variables)

POLICY_SPACE_CAP = 10 ** 6
GATHER_CELLS = 1 << 16     # utility-table cells one scoring gather reads

PRIME = "'"


class Policy(NamedTuple):
    """For each decision, a total mapping from information-parent
    instances (keyed in sorted parent order) to an alternative."""

    info_order: dict            # decision -> tuple of info parent names
    rules: dict                 # decision -> {info instance tuple: alternative}


class CounterfactualQuery(NamedTuple):
    factual_decisions: dict
    factual_evidence: dict
    counterfactual_decisions: dict
    query: tuple[str, ...]


# ---------------------------------------------------------------------------
# Expected utility and optimal policy


def expected_utility(d: Diagram, policy: Policy) -> float:
    """Sum over joint outcomes of P(outcome | policy) * utility."""
    for dec in d.decisions():
        if dec not in policy.info_order:
            raise UnknownVariable(f"policy has no rules for {dec}")
    info_order = {dec: policy.info_order[dec] for dec in d.decisions()}
    d = _informed(d, [(p, dec) for dec, ps in info_order.items() for p in ps])
    choices = {dec: [[_choice(d, dec, policy.rules.get(dec, {}), k) for k in
                      instance_keys(parent_variables(d, parents))]]
               for dec, parents in info_order.items()}
    q = _utility_table(d, info_order)
    return float(_scorer(q, info_order)(choices)[0])


def _informed(d: Diagram, arcs) -> Diagram:
    """``d`` with the information arcs ``arcs``, each judged, those not
    of ``d`` first: a policy observes no utility, and no descendant of
    its decision, for that arc closes a cycle."""
    own = set(d.information_arcs)
    d = d if set(arcs) == own else d.with_arcs(information=arcs)
    ix = d._bits
    for a, b in sorted(arcs, key=own.__contains__):
        if d.has(a) and d.node(a).kind == UTILITY:
            raise UnknownVariable(f"a policy cannot observe the utility {a}")
        if _reach_bits(ix.children, ix.bit[b], 0) & ix.bit[a]:
            raise CycleIntroduced(f"information arc {a}->{b} creates a cycle")
    return d


def _choice(d: Diagram, dec: str, rules, key) -> int:
    """The index of the alternative ``rules`` choose at ``key``."""
    if key not in rules:
        raise UnknownVariable(f"policy for {dec} has no rule for {key}")
    if rules[key] not in d.node(dec).states:
        raise UnknownVariable(f"{rules[key]!r} is not an alternative of {dec}")
    return d.node(dec).states.index(rules[key])


def _utility_table(d: Diagram, info_order) -> Factor:
    """Expected utility as a table over the decisions and the variables
    they observe: every other variable is summed out of the chance and
    utility family factors, once.  Expected utility is linear in the
    policy, so this table scores every policy that observes no more."""
    u = d.utility()
    if u is None:
        raise NoUtilityNode("diagram has no utility node")
    observed = [p for parents in info_order.values() for p in parents]
    keep = list(dict.fromkeys(d.decisions() + observed))
    # The utility's own factor holds its values, not its value labels.
    factors = _requisite_factors(d, {}, keep + list(u.utility.parent_order))
    return eliminate([*factors.values(), family_factor(d, u)], keep)


def _scorer(q: Factor, info_order):
    """A function from choices to the expected utility of each policy.
    A decision's choices are a (policies, information instances) array
    of alternative indices, instances in canonical order.  Every axis of
    ``q`` that is not a decision is summed over; each decision's choice
    is an index array over the policies and those axes, read after the
    choices of the decisions it observes, so one gather scores them all."""
    axes = dict(zip(q.scope, q.states))
    free = {x: np.arange(len(s)).reshape(
                [1] + [-1 if x == y else 1 for y in q.scope])
            for x, s in axes.items() if x not in info_order}
    order: list[str] = []

    def place(dec):
        if dec not in order:
            for p in info_order[dec]:
                if p in info_order:
                    place(p)
            order.append(dec)
    for dec in info_order:
        place(dec)

    def value(choices) -> np.ndarray:
        n = max(map(len, choices.values()), default=1)
        at = dict(free)
        policy = np.arange(n).reshape([-1] + [1] * len(q.scope))
        for dec in order:
            parents = info_order[dec]
            choice = np.reshape(choices[dec],
                                [n] + [len(axes[p]) for p in parents])
            at[dec] = choice[(policy, *(at[p] for p in parents))]
        return q.values[tuple(at[x] for x in q.scope)].reshape(n, -1).sum(1)
    return value


def _space(d: Diagram, cap: int | None = None):
    """``d``'s information order, each decision's information instances
    and the alternative count of each (decision, instance) slot, all in
    canonical order; raises before listing any when over ``cap``, by
    default ``POLICY_SPACE_CAP``."""
    cap = POLICY_SPACE_CAP if cap is None else cap
    if d.decision_order is None:
        raise NoDecisionOrder("diagram has no decision order")
    info_order = {dec: tuple(d.info_parents(dec)) for dec in d.decision_order}
    # Each decision has |alternatives| ** |information instances| rules.
    space = [(len(d.node(dec).states), math.prod(
        len(v.states) for v in parent_variables(d, parents)))
        for dec, parents in info_order.items()]
    bits = sum(n * math.log2(k) for k, n in space if k)
    total = math.prod(k ** n for k, n in space) if bits < 2000 else None
    if total is None or total > cap:
        size = f"about 2^{bits:.0f}" if total is None else total
        raise PolicySpaceExceeded(
            f"policy space of {size} policies exceeds cap {cap}")
    keys = {dec: instance_keys(parent_variables(d, parents))
            for dec, parents in info_order.items()}
    return info_order, keys, [k for k, n in space for _ in range(n)]


def _policy(d: Diagram, space, digits) -> Policy:
    """The policy whose slots choose the alternatives ``digits``."""
    info_order, keys, _ = space
    at = iter(digits)
    return Policy(info_order, {dec: {k: d.node(dec).states[next(at)]
                                     for k in keys[dec]} for dec in keys})


def _digits(radices, index) -> np.ndarray:
    """One row of slot digits per policy of ``index``: policy i is the
    mixed-radix number ``radices``, the last slot varying fastest."""
    strides = [math.prod(radices[k + 1:]) for k in range(len(radices))]
    return np.asarray(index)[:, None] // np.array(strides, int) % radices


def _search(d: Diagram, space, q: Factor) -> tuple[Policy, float]:
    """The best policy of ``space`` on ``q`` by the tie rule of
    ``optimal_policy``.  A block of policies is decoded and scored at
    once, its cells and digits under ``GATHER_CELLS``; only the winner
    is built as a ``Policy``."""
    info_order, keys, radices = space
    score = _scorer(q, info_order)
    ends = itertools.accumulate(len(keys[dec]) for dec in info_order)
    columns = {dec: slice(end - len(keys[dec]), end)
               for dec, end in zip(info_order, ends)}
    cells = math.prod(len(s) for x, s in zip(q.scope, q.states)
                      if x not in info_order)
    block = max(1, GATHER_CELLS // (cells + len(radices)))
    total, eus = math.prod(radices), []
    for lo in range(0, total, block):
        digits = _digits(radices, np.arange(lo, min(lo + block, total)))
        eus += score({dec: digits[:, cols] for dec, cols in columns.items()}
                     ).tolist()
    if not eus:
        raise NoDecisionOrder("no policies to evaluate")
    best, bar = 0, eus[0] + TOL * max(1.0, abs(eus[0]))
    for i, eu in enumerate(eus):
        if eu > bar:
            best, bar = i, eu + TOL * max(1.0, abs(eu))
    return _policy(d, space, _digits(radices, [best])[0]), eus[best]


def optimal_policy(d: Diagram, cap: int | None = None
                   ) -> tuple[Policy, float]:
    """Exhaustively maximize expected utility.  A later policy wins only
    by more than ``TOL * max(1, |best|)``, so ties within rounding keep
    the first policy in canonical order: decisions in decision order,
    information instances lexicographic, alternatives in state order.
    A ``cap`` given replaces ``POLICY_SPACE_CAP``; the benchmark's
    self-test passes it."""
    space = _space(_informed(d, d.information_arcs), cap)
    return _search(d, space, _utility_table(d, space[0]))


# ---------------------------------------------------------------------------
# Value of information


def value_of_information(d: Diagram, observed: str, decision: str,
                         no_forgetting: bool = False) -> float:
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
        targets = d.decision_order[d.decision_order.index(decision):]
    info = list(d.information_arcs)
    info.extend((observed, t) for t in targets if (observed, t) not in info)
    d2 = _informed(d, info)
    base = _space(d)
    # One table scores both searches.  Family factors ignore information
    # arcs and d2 observes all that d does, so a base policy scores
    # exactly as the informed policy that ignores ``observed``.
    q = _utility_table(
        d2, {dec: d2.info_parents(dec) for dec in d2.decisions()})
    _, informed_eu = _search(d2, _space(d2), q)
    _, base_eu = _search(d, base, q)
    return informed_eu - base_eu


# ---------------------------------------------------------------------------
# Twin networks


def counterfactual(h: HcfDiagram, q: CounterfactualQuery) -> Factor:
    """Answer "had the decisions been different" queries on the twin
    network.  The factual decisions and evidence reduce the HCF's family
    factors; the counterfactual decisions and the evidence on the shared
    layer reduce a copy of the decision-affected ones, renamed ``x ->
    x'`` (a utility read as its value labels), in which the query is
    read.  A fault names what the caller wrote."""
    _require_hcf(h)
    d = h.diagram
    _require_full_decisions(d, q.factual_decisions)
    _require_full_decisions(d, q.counterfactual_decisions)
    _check_names(d, [*q.factual_evidence, *q.query])
    affected = d.descendants(d.decisions()) | set(d.decisions())
    _check_query(lambda x: value_label_node(d.node(x)), q.factual_evidence,
                 list(q.query))
    rename = {x: x + PRIME if x in affected else x for x in d.names()}
    evidence = dict(q.factual_evidence)
    shared = {x: s for x, s in evidence.items() if x not in affected}
    factual = _requisite_factors(
        d, {**q.factual_decisions, **evidence}, evidence)
    primed = _requisite_factors(
        d, {**q.counterfactual_decisions, **shared}, q.query)
    # The twin's factor order: shared layer, factual copy, primed copy.
    layer = {**primed, **factual}
    factors = ([layer[x] for x in d.names() if x in layer and x not in affected]
               + [f for x, f in factual.items() if x in affected]
               + [Factor(map(rename.get, f.scope), f.states, f.values)
                  for x, f in primed.items() if x in affected])
    decisions = {**q.factual_decisions, **{
        rename[x]: s for x, s in q.counterfactual_decisions.items()}}
    return _conditional(factors, [rename[x] for x in q.query], evidence,
                        decisions)
