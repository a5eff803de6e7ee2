"""Wall times of whole ``decid <subcommand>`` processes, parent against change.

    python3 tools/cli_times.py --parent HEAD^ --change . --rounds 3 \
        --out cli_times.json

Each side is a git revision or a directory, as in ``bench_pairs.py``.
Every subcommand runs once per round on each of the fixtures in
``tests/fixtures`` and on its Howard Canonical Form (written by the
change's ``decid to-hcf --assume-causal``), as a fresh
``python -m decid.cli`` process with the side's ``src`` on
``PYTHONPATH``.  The side that runs first alternates from call to call.
One pair is one call on both sides.  Per subcommand the record holds,
for its pairs' times (``wall_s``) and for each time over the parent's
median on the same model (``wall_ratio``), the quartiles, the pairs the
change won, and the claim verdict of ``bench_pairs.summarize``.  The
pairs of a subcommand span every model, so their times spread as far
as the models differ; the ratios spread only as far as runs of one
model do, and a claim rests on them.  A call whose exit code is not a
documented one (0, 2, 3 or 4) counts as failed.  Whether Python writes
``.pyc`` files changes what an import costs, so the record states the
``PYTHONDONTWRITEBYTECODE`` setting the processes inherited.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import checkout, describe, machine, summarize

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
ANSWERS = {0, 2, 3, 4}


def calls(path: Path, original: Path | None) -> dict:
    """One argv per subcommand on the model at ``path``; names are read
    from its ``variables`` section.  ``original`` is the model an HCF
    document came from, for ``check-hcf``."""
    variables = json.loads(path.read_text())["variables"]
    decisions = [v for v in variables if v["kind"] == "decision"]
    uncertain = [v["name"] for v in variables
                 if v["kind"] in ("chance", "deterministic")]
    target, first = uncertain[-1], variables[0]["name"]
    factual = ",".join(f"{v['name']}={v['states'][0]}" for v in decisions)
    other = ",".join(f"{v['name']}={v['states'][-1]}" for v in decisions)
    m = str(path)
    return {
        "validate": ["validate", m],
        "fixed-set": ["fixed-set", m],
        "causes graphical": ["causes", m, "--of", target],
        "causes oracle": ["causes", m, "--of", target, "--method", "oracle"],
        "d-sep": ["d-sep", m, "--x", first, "--y", target],
        "minimal": ["minimal", m, "--target", target],
        "to-hcf": ["to-hcf", m, "--assume-causal"],
        "check-hcf": ["check-hcf", m, "--original", str(original or path)],
        "infer": ["infer", m, "--decisions", factual],
        "counterfactual": ["counterfactual", m, "--factual-decisions",
                           factual, "--counterfactual-decisions", other,
                           "--query", target, "--assume-causal"],
        "evaluate": ["evaluate", m],
        "voi": ["voi", m, "--node", uncertain[0], "--decision",
                decisions[0]["name"] if decisions else first],
        "certify-causal": ["certify-causal", m],
        "is-d-map": ["is-d-map", m],
    }


def run(tree: Path, argv: list[str]) -> tuple[float, int]:
    """Seconds and exit code of one ``decid`` process on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    # Read through pipes: with a timeout and no pipe to read, ``run``
    # polls for the exit at steps that grow to 50 ms, and the times
    # come out rounded up to the next step (0.065, 0.115, 0.165 s...).
    done = subprocess.run([sys.executable, "-m", "decid.cli", *argv],
                          env=env, capture_output=True, timeout=600)
    return time.perf_counter() - start, done.returncode


def models(change: Path, work: Path) -> list[tuple[Path, Path | None]]:
    """Each fixture, then its HCF where ``to-hcf`` makes one."""
    out = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        out.append((fixture, None))
        hcf = work / f"{fixture.stem}_hcf.json"
        if run(change, ["to-hcf", str(fixture), "--assume-causal", "-o",
                        str(hcf)])[1] == 0:
            out.append((hcf, fixture))
    return out


def per_model_ratios(pairs: list[dict]) -> list[dict]:
    """``pairs`` with each side's ``wall_ratio``: its ``wall_s`` over the
    median of the parent's on the pair's model."""
    times = {}
    for p in pairs:
        times.setdefault(p["model"], []).append(p["parent"]["wall_s"])
    median = {m: statistics.median(t) for m, t in times.items()}
    return [p | {side: p[side] | {"wall_ratio": p[side]["wall_s"]
                                  / median[p["model"]]}
                 for side in ("parent", "change")} for p in pairs]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    names = {"parent": describe(args.parent), "change": describe(args.change)}
    pairs: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as work:
        trees = {"parent": checkout(args.parent, Path(work)),
                 "change": checkout(args.change, Path(work))}
        table = [(sub, argv) for path, original in models(trees["change"],
                                                          Path(work))
                 for sub, argv in calls(path, original).items()]
        for r in range(args.rounds):
            for i, (sub, argv) in enumerate(table):
                order = (("parent", "change") if (r + i) % 2 == 0
                         else ("change", "parent"))
                pair = {"model": Path(argv[1]).name}
                for side in order:
                    seconds, code = run(trees[side], argv)
                    pair[side] = {"wall_s": seconds, "exit": code,
                                  "failed": int(code not in ANSWERS)}
                pairs.setdefault(sub, []).append(pair)
            print(f"round {r + 1} of {args.rounds} done", file=sys.stderr,
                  flush=True)

    subcommands = {sub: summarize(per_model_ratios(ps),
                                  {"wall_s": "lower", "wall_ratio": "lower"})
                   | {"exit_mismatches": sum(p["parent"]["exit"]
                                             != p["change"]["exit"]
                                             for p in ps)}
                   for sub, ps in pairs.items()}
    doc = {"parent": names["parent"], "change": names["change"],
           "machine": machine(), "rounds": args.rounds,
           "PYTHONDONTWRITEBYTECODE":
               os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
           "subcommands": subcommands}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for sub, s in subcommands.items():
        w, r = s["metrics"]["wall_s"], s["metrics"]["wall_ratio"]
        print(f"{sub:17} {w['parent']['median']:.3f} -> "
              f"{w['change']['median']:.3f} s  ratio "
              f"{r['change']['median']:.3f} [parent {r['parent']['q1']:.3f}-"
              f"{r['parent']['q3']:.3f}]  won {r['change_wins']}/"
              f"{r['pairs']}  claim {r['claim_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
