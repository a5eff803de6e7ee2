"""Wall time and test count of the tier-1 suite, parent against change.

    python3 tools/tier1_times.py --parent HEAD^ --change . --rounds 3 \
        --out tier1_times.json

Each side is a git revision or a directory, as in ``bench_pairs.py``.
One round runs the tier-1 suite once per side, each as a fresh
``python -m pytest -q --continue-on-collection-errors`` process in the
side's directory with its ``src`` on ``PYTHONPATH``; the side that runs
first alternates from round to round.  One pair is one round.  Per
side and round the record holds the wall time (``wall_s``), the counts
of pytest's closing summary line (passed, failed, errors, ...), the
exit code, and as ``failed`` the tests that failed or errored.  Over
the pairs it holds the quartiles of ``wall_s``, the pairs the change
won, and the claim verdict of ``bench_pairs.summarize``; a verdict on
suites of different test counts compares different work, so the
record states whether the counts matched.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import checkout, describe, machine, summarize

TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# pytest's closing line, as in "2 failed, 789 passed, 1 warning in 33.50s".
COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed"
                   r"|deselected|warnings?)\b")


def counts(output: str) -> dict:
    """The outcome counts of pytest's last summary line in ``output``,
    each named in the singular ("errors" is "error")."""
    last = next((line for line in reversed(output.splitlines())
                 if COUNT.search(line) and " in " in line), "")
    return {name.rstrip("s"): int(n) for n, name in COUNT.findall(last)}


def run(tree: Path) -> dict:
    """One tier-1 run on ``tree``: its wall time, counts and exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", *TIER1], cwd=tree,
                          env=env, capture_output=True, text=True,
                          timeout=3600)
    seconds = time.perf_counter() - start
    c = counts(done.stdout)
    return {"wall_s": seconds, "exit": done.returncode, "counts": c,
            "failed": c.get("failed", 0) + c.get("error", 0)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    names = {"parent": describe(args.parent), "change": describe(args.change)}
    pairs = []
    with tempfile.TemporaryDirectory() as work:
        trees = {"parent": checkout(args.parent, Path(work)),
                 "change": checkout(args.change, Path(work))}
        sides = ("parent", "change")
        for r in range(args.rounds):
            pair = {"round": r + 1}
            for side in sides if r % 2 == 0 else sides[::-1]:
                pair[side] = run(trees[side])
            pairs.append(pair)
            print(f"round {r + 1}: parent {pair['parent']['wall_s']:.2f} s "
                  f"{pair['parent']['counts']}, change "
                  f"{pair['change']['wall_s']:.2f} s "
                  f"{pair['change']['counts']}", file=sys.stderr, flush=True)

    doc = {"parent": names["parent"], "change": names["change"],
           "machine": machine(), "rounds": args.rounds, "tier1": TIER1,
           "PYTHONDONTWRITEBYTECODE":
               os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
           "same_counts": all(p["parent"]["counts"] == p["change"]["counts"]
                              for p in pairs),
           "pairs": pairs,
           "summary": summarize(pairs, {"wall_s": "lower"})}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    s = doc["summary"]["metrics"]["wall_s"]
    print(f"tier-1 {s['parent']['median']:.2f} -> {s['change']['median']:.2f}"
          f" s  won {s['change_wins']}/{s['pairs']}  claim "
          f"{s['claim_holds']}  same counts {doc['same_counts']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
