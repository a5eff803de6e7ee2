"""The three benchmark workloads: inputs, timed ops and answer checks.

One op is one user question.  A workload's op stream is a sequence of
rounds; every round runs the same list of slots (op kind and model
size), so every run, whatever its seed or speed, measures the same mix.
The seed changes the models inside each slot: op ``(round, slot)`` is
drawn from its own generator seeded with the workload, seed, round and
slot, which makes the op sequence a pure function of the seed.

Each op has four steps.  ``make_op`` generates the model and question
and serialises the model with ``serialize_model`` (untimed input
generation).  ``prepare`` parses the document when the op itself does
not (untimed, the part of set-up that ``setup_s`` measures).  ``run`` is
the timed op; it calls decid only through the tracer.  ``check`` holds
the answer against an independent route (untimed) and ``counts`` reads
work counts from the returned objects (untimed).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from decid import (decisions, graphs, inference, mechanisms, model,
                   modelfile)

import models
import oracles


@dataclass
class Op:
    op_id: int
    kind: str
    doc: str
    params: dict = field(default_factory=dict)
    size: dict = field(default_factory=dict)


def _rng(workload, seed, round_i, slot_i):
    return random.Random(f"{workload}/{seed}/{round_i}/{slot_i}")


class Workload:
    name = ""
    why = ""
    parses_in_op = False
    trace_rounds = 1
    slots: list = []

    def op(self, seed, op_id) -> Op:
        round_i, slot_i = divmod(op_id, len(self.slots))
        rng = _rng(self.name, seed, round_i, slot_i)
        kind, doc, params, size = self.make_op(rng, self.slots[slot_i])
        return Op(op_id, kind, doc, params, size)

    def prepare(self, tr, op: Op):
        if self.parses_in_op:
            return op.doc
        return tr.call("modelfile.parse_document", modelfile.parse_document,
                       op.doc)


def _spread(groups):
    """Interleave slot groups so heavy slots are spread over the round
    instead of bunched; the order is the same for every seed."""
    slots = [spec for count, spec in groups for _ in range(count)]
    random.Random(0).shuffle(slots)
    return slots


# ---------------------------------------------------------------------------
# oracle_sweep


class OracleSweep(Workload):
    name = "oracle_sweep"
    why = ("the blocking => fixed audit on causal diagrams up to 4096 "
           "functional worlds: world-table build and fixed_given dominate, "
           "each table serves many reads; policy search and VE bypassed")
    trace_rounds = 4
    # (functional worlds of the canonical form, chance nodes, chance
    # nodes the decisions affect).  These three fix an op's cost to
    # within about 20%, so a fixed mix keeps runs with different seeds
    # comparable.  Latency groups, so that each percentile falls inside
    # a group rather than between two: 18 cheap ops, 16 of about twice
    # their cost (holding the median), 8 and then 6 (holding the 90th
    # percentile) of about two and then 2.5 times the median, and the 4
    # heaviest, up to the 4096-world table at about 45 times the
    # median.
    slots = _spread([
        (6, (16, 3, 1)), (4, (32, 3, 2)), (4, (32, 4, 1)), (4, (64, 3, 1)),
        (4, (64, 3, 3)), (4, (64, 4, 2)), (4, (128, 3, 2)),
        (4, (128, 4, 1)), (8, (128, 4, 3)), (6, (256, 3, 3)),
        (1, (256, 4, 2)), (1, (512, 3, 2)), (1, (1024, 3, 3)),
        (1, (4096, 3, 3))])

    def make_op(self, rng, slot):
        worlds, n_chance, affected = slot
        s = models.draw_until(
            rng, lambda: models.draw_structure(rng, 2, n_chance),
            lambda s: (s.worlds(), len(s.fixed())) ==
            (worlds, n_chance - affected))
        d = models.build(rng, s)
        size = {"worlds": worlds, "chance": n_chance, "affected": affected}
        return "sweep", modelfile.serialize_model(d), {}, size

    def run(self, tr, op, d):
        h = tr.call("mechanisms.to_hcf", mechanisms.to_hcf, d)
        hd = h.diagram
        table = tr.call("inference.WorldTable", inference.WorldTable, hd)
        D = frozenset(hd.decisions())
        pool = sorted(set(hd.uncertain()) | D)
        results = []
        for x in hd.uncertain():
            others = [p for p in pool if p != x]
            for size in range(3):
                for C in itertools.combinations(others, size):
                    q = graphs.BlockingQuery(frozenset(C), D, x)
                    b = tr.call("graphs.blocks", graphs.blocks, hd, q)
                    f = tr.call("inference.fixed_given", table.fixed_given,
                                x, sorted(C)) if b else None
                    results.append((x, C, b, f))
        return h, table, results

    def check(self, op, d, answer):
        h, table, results = answer
        hd = h.diagram
        D = set(hd.decisions())
        if len(table.worlds) != op.size["worlds"]:
            return False
        for x, C, b, f in results:
            if b != oracles.blocked(hd, set(C), D, x):
                return False
            if b and f is not True:     # the paper: blocking => fixed
                return False
        return bool(results)

    def counts(self, op, d, answer):
        h, table, results = answer
        blocked = sum(1 for r in results if r[2])
        worlds = len(table.worlds)
        return {"to_hcf": 1,
                "mechanism_states": sum(len(m.states) for m in h.mechanisms),
                "tables": 1, "worlds": worlds,
                "pairs": worlds * len(table.decision_instances),
                "blocks": len(results), "blocked": blocked,
                "fixed_given": blocked}


# ---------------------------------------------------------------------------
# policy_eval


class PolicyEval(Workload):
    name = "policy_eval"
    why = ("exhaustive policy search and one-policy expected utility on "
           "utility diagrams with 4-256 policies; world oracle bypassed")
    trace_rounds = 10
    # (kind, chance nodes, roots observed by d0, by d1).  The cost of an
    # op is set by its kind, joint cells (2 ** chance nodes) and policy
    # space.  Latency groups, so that each percentile falls inside a
    # group: 13 cheap ops, 6 expected-utility ops on 256 cells (holding
    # the median), 8 of one to eight times the median, 3 at about 13
    # times it (holding the 90th percentile), and the two heaviest, one
    # of them a search over 256 policies.
    slots = _spread([
        (3, ("expected_utility", 5, 1, 1)), (3, ("expected_utility", 6, 2, 0)),
        (3, ("optimal_policy", 5, 0, 0)), (4, ("expected_utility", 7, 0, 2)),
        (2, ("expected_utility", 8, 2, 2)), (2, ("expected_utility", 8, 1, 0)),
        (2, ("expected_utility", 8, 0, 2)),
        (2, ("value_of_information", 5, 0, 0)),
        (2, ("optimal_policy", 6, 1, 0)), (1, ("optimal_policy", 5, 0, 2)),
        (1, ("optimal_policy", 6, 1, 1)),
        (1, ("value_of_information", 6, 1, 0)),
        (1, ("optimal_policy", 7, 1, 1)),
        (2, ("optimal_policy", 6, 2, 1)),
        (1, ("value_of_information", 8, 0, 0)),
        (1, ("value_of_information", 7, 1, 1)),
        (1, ("optimal_policy", 6, 2, 2)),
    ])

    def make_op(self, rng, slot):
        kind, n_chance, k0, k1 = slot
        base = models.draw_structure(rng, 2, n_chance, n_roots=3)
        roots = ["x0", "x1", "x2"]
        info = tuple((r, "d0") for r in sorted(rng.sample(roots, k0))) + \
            tuple((r, "d1") for r in sorted(rng.sample(roots, k1)))
        inner = [x for x, _, _ in base.chance[3:]]
        s = models.Structure(base.decisions, base.chance, info,
                             tuple(sorted(rng.sample(inner, 2))))
        d = models.build(rng, s)
        params = {}
        policies = s.policies()
        if kind == "expected_utility":
            params["rules"] = {
                dec: {key: rng.choice(models.DECISION_STATES)
                      for key in itertools.product(
                          *(d.node(p).states for p in d.info_parents(dec)))}
                for dec in d.decision_order}
        elif kind == "value_of_information":
            dec = rng.choice([k for k, n in (("d0", k0), ("d1", k1))
                              if n <= 1])
            params["decision"] = dec
            params["observed"] = rng.choice(
                [r for r in roots if (r, dec) not in info])
            informed = models.Structure(
                s.decisions, s.chance, info + ((params["observed"], dec),),
                s.utility_parents)
            policies += informed.policies()
        size = {"chance": n_chance, "cells": s.cells(), "policies": policies}
        return kind, modelfile.serialize_model(d), params, size

    def run(self, tr, op, d):
        if op.kind == "optimal_policy":
            return tr.call("decisions.optimal_policy",
                           decisions.optimal_policy, d)
        if op.kind == "expected_utility":
            policy = decisions.Policy(
                {k: tuple(d.info_parents(k)) for k in d.decision_order},
                op.params["rules"])
            return tr.call("decisions.expected_utility",
                           decisions.expected_utility, d, policy)
        return tr.call("decisions.value_of_information",
                       decisions.value_of_information, d,
                       op.params["observed"], op.params["decision"])

    def check(self, op, d, answer):
        oracle = oracles.PolicyOracle(d)
        if op.kind == "optimal_policy":
            policy, eu = answer
            return (oracles.close(eu, decisions.expected_utility(d, policy))
                    and oracles.close(eu, oracle.eu(policy.rules))
                    and oracles.close(eu, oracle.best_eu()))
        if op.kind == "expected_utility":
            return oracles.close(answer, oracle.eu(op.params["rules"]))
        informed = oracles.PolicyOracle(_observe(d, op.params))
        return (answer >= -oracles.TOL and oracles.close(
            answer, informed.best_eu() - oracle.best_eu()))

    def counts(self, op, d, answer):
        if op.kind == "expected_utility":
            return {"eu_evaluations": 1, "joint_cells": op.size["cells"]}
        policies = op.size["policies"]
        return {"searches": 1, "policies_evaluated": policies,
                "eu_evaluations": policies,
                "joint_cells": policies * op.size["cells"]}


def _observe(d, params):
    arc = (params["observed"], params["decision"])
    return d.with_arcs(information=tuple(d.information_arcs) + (arc,))


# ---------------------------------------------------------------------------
# query_mix


class QueryMix(Workload):
    name = "query_mix"
    why = ("one question per freshly parsed 6-14 node model, as the CLI "
           "asks it: parse, validate, VE and subset search, nothing reused")
    parses_in_op = True
    trace_rounds = 40
    # (kind, total nodes).  Most questions take about a millisecond,
    # parse and validation included, and hold the median; the subset
    # searches on 10-14 nodes hold the 90th percentile and most of the
    # op time.  Each round draws fresh models, so a run averages over
    # many shapes per slot.
    slots = _spread([
        (1, ("posterior", 6)), (1, ("posterior", 7)), (1, ("posterior", 8)),
        (2, ("posterior", 9)), (2, ("posterior", 10)),
        (2, ("posterior", 11)), (1, ("posterior", 12)),
        (1, ("posterior", 13)), (1, ("posterior", 14)),
        (2, ("joint", 6)), (2, ("joint", 7)),
        (2, ("counterfactual", 6)), (2, ("counterfactual", 7)),
        (1, ("graphical_causes", 6)), (1, ("graphical_causes", 8)),
        (1, ("graphical_causes", 10)), (1, ("graphical_causes", 12)),
        (1, ("graphical_causes", 14)),
        (1, ("graphical_fixed_set", 6)), (1, ("graphical_fixed_set", 8)),
        (1, ("graphical_fixed_set", 10)), (1, ("graphical_fixed_set", 12)),
        (1, ("graphical_fixed_set", 14)),
        (1, ("d_separated", 6)), (1, ("d_separated", 8)),
        (1, ("d_separated", 10)), (1, ("d_separated", 12)),
        (1, ("d_separated", 14)),
        (1, ("minimal_blocking_sets", 8)), (1, ("minimal_blocking_sets", 11)),
        (1, ("minimal_blocking_sets", 13)),
        (2, ("oracle_causes", 6)),
    ])
    SMALL_CELLS = 128          # joint: enumerated cell by cell
    CF_WORLDS = 256            # counterfactual: world oracle in the check
    ORACLE_WORLDS = 64         # oracle_causes: table per op, D-map check

    def make_op(self, rng, slot):
        kind, n_nodes = slot
        n_dec = rng.choice((1, 2))
        n_chance = n_nodes - n_dec

        def draw(p_three=0.4):
            return models.draw_structure(rng, n_dec, n_chance,
                                         p_three=p_three, cell_cap=2 ** 16)

        if kind == "joint":
            s = models.draw_until(rng, draw,
                                  lambda s: s.cells() <= self.SMALL_CELLS)
        elif kind == "counterfactual":
            s = models.draw_until(rng, lambda: draw(0.0),
                                  lambda s: _affected(s) and
                                  s.worlds() <= self.CF_WORLDS)
        elif kind == "oracle_causes":
            s = models.draw_until(rng, lambda: draw(0.0),
                                  lambda s: _affected(s) and
                                  s.worlds() <= self.ORACLE_WORLDS)
        else:
            s = models.draw_until(rng, draw, _affected)
        d = models.build(rng, s)
        uncertain = d.uncertain()
        affected = sorted(set(uncertain) - s.fixed())
        choice = {dec: rng.choice(models.DECISION_STATES)
                  for dec in s.decisions}
        params = {"decisions": choice}
        if kind == "posterior":
            picked = rng.sample(uncertain, rng.randint(2, 3))
            params["query"] = picked[:1] if len(picked) == 2 else picked[:2]
            params["evidence"] = {v: rng.choice(d.node(v).states)
                                  for v in picked[len(params["query"]):]}
        elif kind == "counterfactual":
            hd = mechanisms.to_hcf(d).diagram
            world = rng.choice(inference.functional_worlds(hd))
            factual = inference.propagate(hd, world.assignment, choice)
            seen = rng.choice(affected)
            params["evidence"] = {seen: factual[seen]}
            params["counterfactual"] = {
                dec: rng.choice(models.DECISION_STATES)
                for dec in s.decisions}
            params["query"] = [rng.choice(affected)]
        elif kind in ("graphical_causes", "minimal_blocking_sets",
                      "oracle_causes"):
            params["target"] = rng.choice(affected)
        elif kind == "graphical_fixed_set":
            params["given"] = sorted(rng.sample(uncertain, rng.randint(0, 2)))
        elif kind == "d_separated":
            names = uncertain + list(s.decisions)
            picked = rng.sample(names, 2 + rng.randint(0, 3))
            params["x"], params["y"] = [picked[0]], [picked[1]]
            params["given"] = sorted(picked[2:])
        size = {"nodes": n_nodes, "cells": s.cells(), "worlds": s.worlds()}
        return kind, modelfile.serialize_model(d), params, size

    def run(self, tr, op, text):
        d = tr.call("modelfile.parse_document", modelfile.parse_document,
                    text)
        report = tr.call("model.validate_diagram", model.validate_diagram, d)
        if report:
            raise ValueError(f"generated model is invalid: {report}")
        p = op.params
        if op.kind == "posterior":
            out = tr.call("inference.posterior", inference.posterior, d,
                          p["decisions"], p["evidence"], p["query"])
        elif op.kind == "joint":
            out = tr.call("inference.joint", inference.joint, d,
                          p["decisions"])
        elif op.kind == "counterfactual":
            h = tr.call("mechanisms.to_hcf", mechanisms.to_hcf, d)
            q = decisions.CounterfactualQuery(
                p["decisions"], p["evidence"], p["counterfactual"],
                tuple(p["query"]))
            out = h, tr.call("decisions.counterfactual",
                             decisions.counterfactual, h, q)
        elif op.kind == "graphical_causes":
            out = tr.call("graphs.graphical_causes", graphs.graphical_causes,
                          d, p["target"])
        elif op.kind == "graphical_fixed_set":
            out = tr.call("graphs.graphical_fixed_set",
                          graphs.graphical_fixed_set, d, p["given"])
        elif op.kind == "d_separated":
            out = tr.call("graphs.d_separated", graphs.d_separated, d,
                          p["x"], p["y"], p["given"])
        elif op.kind == "minimal_blocking_sets":
            out = tr.call("graphs.minimal_blocking_sets",
                          graphs.minimal_blocking_sets, d,
                          d.decisions(), p["target"])
        else:
            h = tr.call("mechanisms.to_hcf", mechanisms.to_hcf, d)
            out = h, tr.call("inference.oracle_causes",
                             inference.oracle_causes, h, p["target"])
        return d, out

    def check(self, op, text, answer):
        d, out = answer
        p = op.params
        D = set(d.decisions())
        if op.kind == "posterior":
            want = oracles.marginal(d, p["decisions"], p["evidence"],
                                    p["query"])
            return _same(out.values, want) and list(out.scope) == p["query"]
        if op.kind == "joint":
            names, want = oracles.joint_array(d, p["decisions"])
            return list(out.scope) == names and _same(out.values, want)
        if op.kind == "counterfactual":
            h, f = out
            want = _cf_world_oracle(h, p, p["query"][0])
            states = d.node(p["query"][0]).states
            got = dict(zip(states, f.values.tolist()))
            return all(oracles.close(got[s], want.get(s, 0.0))
                       for s in states)
        if op.kind in ("graphical_causes", "minimal_blocking_sets"):
            sets = out.cause_sets if op.kind == "graphical_causes" else out
            pool = (set(d.uncertain()) | D) - {p["target"]}
            return set(sets) == oracles.minimal_blocking_sets(
                d, D, p["target"], pool) and len(set(sets)) == len(sets)
        if op.kind == "graphical_fixed_set":
            want = {x for x in d.uncertain() if x not in p["given"]
                    and oracles.blocked(d, set(p["given"]), D, x)}
            return out == want
        if op.kind == "d_separated":
            return out == oracles.d_separated(d, set(p["x"]), set(p["y"]),
                                              set(p["given"]))
        return _check_oracle_causes(out, p["target"])

    def counts(self, op, text, answer):
        out = answer[1]
        c = {}
        if op.kind in ("counterfactual", "oracle_causes"):
            c["to_hcf"] = 1
            c["mechanism_states"] = sum(len(m.states)
                                        for m in out[0].mechanisms)
        if op.kind == "joint":
            c["joint"] = 1
            c["joint.cells"] = int(out.values.size)
        return c


def _affected(s) -> bool:
    return len(s.fixed()) < len(s.chance)


def _same(got, want) -> bool:
    got = np.asarray(got)
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want), initial=0.0) <= oracles.TOL)


def _cf_world_oracle(h, p, target):
    """Counterfactual by propagating every functional world under the
    factual and the counterfactual decisions."""
    d = h.diagram
    dist, total = {}, 0.0
    for world in inference.functional_worlds(d):
        factual = inference.propagate(d, world.assignment, p["decisions"])
        if any(factual[k] != v for k, v in p["evidence"].items()):
            continue
        total += world.weight
        alt = inference.propagate(d, world.assignment, p["counterfactual"])
        dist[alt[target]] = dist.get(alt[target], 0.0) + world.weight
    return {k: v / total for k, v in dist.items()}


def _check_oracle_causes(out, target) -> bool:
    """Blocking implies fixed, so every graphical cause set contains an
    oracle cause set; on D-maps it is one."""
    h, report = out
    oracle = set(report.cause_sets)
    if report.reason is not None:
        return not oracle
    graphical = graphs.graphical_causes(h.diagram, target).cause_sets
    if not all(any(m <= s for m in oracle) for s in graphical):
        return False
    if inference.oracle_is_d_map(h.diagram, max_cond=2)[0]:
        return all(s in oracle for s in graphical)
    return bool(oracle)


WORKLOADS = {w.name: w for w in (OracleSweep(), PolicyEval(), QueryMix())}
