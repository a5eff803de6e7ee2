"""Command-line surface.

Every subcommand is a thin adapter over the library: parse the model,
validate it, run one query, print a deterministic JSON document (or a
human summary with --pretty).  Exit codes: 0 success, 1 usage error,
2 validation failure, 3 query error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

# Numeric names are read as decid.X when called, so graph work loads no numpy.
import decid
from . import (CapExceeded, HcfDiagram, ModelError, QueryError, UnknownVariable,
               d_separated, graphical_causes, graphical_fixed_set,
               minimal_blocking_sets, parse_document, serialize_model,
               validate_diagram, validate_hcf)

EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_QUERY, EXIT_CAP = 0, 1, 2, 3, 4
JOINT_OUTPUT_CELL_CAP = 10 ** 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _emit(doc, pretty_lines, args) -> int:
    if args.pretty:
        for line in pretty_lines(doc):
            print(line)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _validated(path: str):
    """The document at ``path``, parsed, and its violations: the one
    validation step every model document goes through."""
    with open(path, encoding="utf-8") as f:
        parsed = parse_document(f.read())
    check = validate_hcf if isinstance(parsed, HcfDiagram) else validate_diagram
    return parsed, check(parsed)


def _refuse(violations) -> int:
    print(json.dumps({"valid": False, "violations": violations}, indent=2,
                     sort_keys=True))
    return EXIT_INVALID


def _hcf(parsed, assume_causal=False):
    if isinstance(parsed, HcfDiagram):
        return parsed
    return decid.to_hcf(parsed, assume_causal=assume_causal)


def _pairs(text: str) -> dict:
    """Comma-separated name=state pairs.  A comma splits only where a new
    ``name=`` starts, so mechanism names and states keep their commas."""
    out = {}
    if not text:
        return out
    for part in re.split(r",(?=\s*[^,=()]+(?:\([^()]*\))?\s*=)", text):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"{part!r} is not a name=state pair")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer")
    return int(text)


def _names(text: str) -> list[str]:
    """Comma-separated names.  A comma inside parentheses belongs to the
    name, as in the mechanism ``life(lung_cancer,cardio)``."""
    return [t.strip() for t in re.split(r",(?![^()]*\))", text) if t.strip()]


def _factor_doc(f) -> dict:
    return {
        "scope": list(f.scope),
        "states": [list(s) for s in f.states],
        "probabilities": {
            "|".join(key): sig12(float(v))
            for key, v in zip(
                itertools.product(*f.states), f.values.reshape(-1))
        },
    }


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="decid",
                description="Decision-based causality over influence diagrams")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        c = sub.add_parser(name, **kw)
        c.add_argument("model", help="model file (JSON)")
        c.add_argument("--pretty", action="store_true",
                       help="human-readable summary instead of JSON")
        return c

    cmd("validate", help="check every structural invariant")

    c = cmd("fixed-set", help="graphical fixed set, optionally conditional")
    c.add_argument("--given", type=_names, default=[],
                   help="comma-separated conditioning variables")

    c = cmd("causes", help="minimal cause sets for a variable")
    c.add_argument("--of", required=True, dest="target")
    c.add_argument("--method", choices=["graphical", "oracle"],
                   default="graphical")

    c = cmd("d-sep", help="d-separation verdict")
    c.add_argument("--x", required=True, type=_names)
    c.add_argument("--y", required=True, type=_names)
    c.add_argument("--given", type=_names, default=[])

    c = cmd("minimal", help="minimal blocking sets for a target")
    c.add_argument("--target", required=True)
    c.add_argument("--decisions", type=_names, default=None,
                   help="restrict the decision set (default: all)")
    c.add_argument("--exclude", type=_names, default=[])

    c = cmd("to-hcf", help="transform to Howard Canonical Form")
    c.add_argument("--assume-causal", action="store_true")
    c.add_argument("-o", "--output", help="write the HCF model here")

    c = cmd("check-hcf", help="audit mechanism priors against the original")
    c.add_argument("--original", required=True,
                   help="the pre-transformation model file")

    c = cmd("infer", help="joint or posterior probabilities")
    c.add_argument("--decisions", type=_pairs, default={})
    c.add_argument("--evidence", type=_pairs, default={})
    c.add_argument("--query", type=_names, default=None)

    c = cmd("counterfactual", help="twin-network counterfactual query")
    c.add_argument("--factual-decisions", type=_pairs, default={})
    c.add_argument("--evidence", type=_pairs, default={})
    c.add_argument("--counterfactual-decisions", type=_pairs, default={})
    c.add_argument("--query", required=True, type=_names)
    c.add_argument("--assume-causal", action="store_true")

    cmd("evaluate", help="optimal policy and maximum expected utility")

    c = cmd("voi", help="value of information of observing a node")
    c.add_argument("--node", required=True)
    c.add_argument("--decision", required=True)
    c.add_argument("--no-forgetting", action="store_true")

    cmd("certify-causal", help="certify the diagram as a causal network")

    c = cmd("is-d-map", help="numerical independence vs d-separation scan")
    c.add_argument("--max-cond", type=_count, default=2)

    return p


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _dispatch(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_QUERY
    except (ModelError, QueryError, CapExceeded, ValueError) as e:
        print(json.dumps({"error": str(e)}, indent=2))
        if isinstance(e, ModelError) and not isinstance(e, UnknownVariable):
            return EXIT_INVALID
        return EXIT_CAP if isinstance(e, CapExceeded) else EXIT_QUERY
    except OSError as e:
        print(f"decid: {e}", file=sys.stderr)
        return EXIT_USAGE


def _world_cap() -> int | None:
    raw = os.environ.get("CID_CAP_WORLDS")
    if not raw:
        return None
    if raw.strip().isdecimal() and int(raw) > 0:
        return int(raw)
    print(f"decid: CID_CAP_WORLDS must be a positive integer, got {raw!r}",
          file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _dispatch(args) -> int:
    d, violations = _validated(args.model)
    if args.command == "validate":
        doc = {"valid": not violations, "violations": violations}
        _emit(doc, lambda o: (
            ["model is valid"] if o["valid"]
            else [f"violation: {v}" for v in o["violations"]]), args)
        return EXIT_INVALID if violations else EXIT_OK
    if violations:
        return _refuse(violations)

    if args.command == "fixed-set":
        members = sorted(graphical_fixed_set(d, set(args.given)))
        doc = {"given": sorted(args.given), "fixed_set": members,
               "causal": d.causal}
        return _emit(doc, lambda o: [f"fixed set: {', '.join(o['fixed_set']) or '(empty)'}"
                                     + ("" if o["causal"] else
                                        "  [claim only: diagram not annotated causal]")],
                     args)

    if args.command == "causes":
        if args.method == "graphical":
            report = graphical_causes(d, args.target)
        else:
            cap = _world_cap()
            report = decid.oracle_causes(_hcf(d), args.target,
                                         world_pair_cap=cap)
        doc = {"target": report.target, "method": report.method,
               "cause_sets": [sorted(s) for s in report.cause_sets],
               "reason": report.reason}
        return _emit(doc, lambda o: (
            [f"no causes: {o['reason']}"] if o["reason"] else
            [f"cause set: {{{', '.join(s)}}}" for s in o["cause_sets"]]), args)

    if args.command == "d-sep":
        verdict = d_separated(d, set(args.x), set(args.y), set(args.given))
        doc = {"x": sorted(args.x), "y": sorted(args.y),
               "given": sorted(args.given), "d_separated": verdict}
        return _emit(doc, lambda o: [
            f"{o['x']} and {o['y']} given {o['given']}: "
            + ("d-separated" if o["d_separated"] else "connected")], args)

    if args.command == "minimal":
        decisions = set(args.decisions) if args.decisions is not None \
            else set(d.decisions())
        sets = minimal_blocking_sets(d, decisions, args.target,
                                     exclude=set(args.exclude))
        doc = {"target": args.target, "decisions": sorted(decisions),
               "minimal_blocking_sets": [sorted(s) for s in sets]}
        return _emit(doc, lambda o: [f"{{{', '.join(s)}}}"
                                     for s in o["minimal_blocking_sets"]]
                     or ["(none)"], args)

    if args.command == "to-hcf":
        hcf = decid.to_hcf(d, assume_causal=args.assume_causal)
        text = serialize_model(hcf)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
            doc = {"written": args.output,
                   "mechanisms": [m.name for m in hcf.mechanisms]}
            return _emit(doc, lambda o: [f"wrote {o['written']} with "
                                         f"{len(o['mechanisms'])} mechanism(s)"],
                         args)
        print(text, end="")
        return EXIT_OK

    if args.command == "check-hcf":
        if not isinstance(d, HcfDiagram):
            raise QueryError("model has no mechanisms section; "
                             "run to-hcf first")
        orig, violations = _validated(args.original)
        if violations:
            return _refuse(violations)
        violations = decid.check_marginal_reproduction(orig, d)
        doc = {"pass": not violations, "violations": violations,
               "priors": {m.name: {
                   "|".join(k): [sig12(p) for p in row]
                   for k, row in sorted(d.node(m.name).table.rows.items())}
                   for m in d.mechanisms}}
        _emit(doc, lambda o: (["all mechanism priors reproduce the original "
                               "tables"] if o["pass"] else
                              [f"violation: {v}" for v in o["violations"]]),
              args)
        return EXIT_OK if not violations else EXIT_QUERY

    if args.command == "infer":
        if args.query:
            f = decid.posterior(d, args.decisions, args.evidence, args.query)
        else:
            if args.evidence:
                raise QueryError("--evidence requires --query")
            cells = math.prod(len(d.node(x).states) for x in d.uncertain())
            if cells > JOINT_OUTPUT_CELL_CAP:
                raise CapExceeded(f"{cells} joint cells exceed output cap "
                                  f"{JOINT_OUTPUT_CELL_CAP}; use --query")
            f = decid.joint(d, args.decisions)
        doc = _factor_doc(f)
        return _emit(doc, _pretty_factor, args)

    if args.command == "counterfactual":
        hcf = _hcf(d, assume_causal=args.assume_causal)
        q = decid.CounterfactualQuery(args.factual_decisions, args.evidence,
                                      args.counterfactual_decisions,
                                      tuple(args.query))
        doc = _factor_doc(decid.counterfactual(hcf, q))
        return _emit(doc, _pretty_factor, args)

    if args.command == "evaluate":
        policy, eu = decid.optimal_policy(d)
        doc = {"expected_utility": sig12(eu),
               "policy": {dec: {"|".join(k): v for k, v in rules.items()}
                          for dec, rules in policy.rules.items()},
               "information": {dec: list(policy.info_order[dec])
                               for dec in policy.rules}}
        return _emit(doc, lambda o: [f"maximum expected utility: "
                                     f"{o['expected_utility']}"]
                     + [f"  {dec}: {rules}"
                        for dec, rules in o["policy"].items()], args)

    if args.command == "voi":
        v = decid.value_of_information(d, args.node, args.decision,
                                       no_forgetting=args.no_forgetting)
        doc = {"node": args.node, "decision": args.decision,
               "value_of_information": sig12(v)}
        return _emit(doc, lambda o: [f"VOI({o['node']} -> {o['decision']}) = "
                                     f"{o['value_of_information']}"], args)

    if args.command == "certify-causal":
        report = decid.certify_causal_network(d)
        doc = {"certified": report.certified, "reasons": list(report.reasons)}
        return _emit(doc, lambda o: (["certified causal network"]
                                     if o["certified"] else
                                     [f"not certifiable: {r}"
                                      for r in o["reasons"]]), args)

    # is-d-map: argparse refuses every command not handled above.
    verdict, counterexample = decid.oracle_is_d_map(d, max_cond=args.max_cond)
    doc = {"is_d_map": verdict, "counterexample": counterexample}
    return _emit(doc, lambda o: [
        "D-map" if o["is_d_map"]
        else f"not a D-map: {o['counterexample']}"], args)


def _pretty_factor(doc):
    yield "P(" + ", ".join(doc["scope"]) + ")"
    for key, p in doc["probabilities"].items():
        yield f"  {key or '()'}: {p}"


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
