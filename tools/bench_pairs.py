"""Alternated parent/change pairs of ``bench/run.py``, written to one JSON file.

    python3 tools/bench_pairs.py --parent c5d4d84^ --change c5d4d84 \
        --workload policy_eval --seeds 301-310 --held-out 9001,9001,9001 \
        --out BENCH_5.json

Each side is a git revision, exported with ``git archive`` into a
scratch directory, or an existing directory (``.`` for the working
tree).  The record names each side as it was when the runs began: a
revision by its short hash, a directory by its HEAD's short hash with
``+dirty`` when it holds uncommitted changes.  Both sides run their own
``bench/run.py`` with the same workload and seed for the
``run_seconds`` of ``BENCHMARK.json``, one after the other; the side
that runs first alternates from pair to pair.  One traced run per side
on the first seed gives the per-layer self times.  The file records
the machine, the seeds, every pair's
end-to-end metrics and failed operations, each side's median and
quartiles, the pairs the change won, and for every end-to-end metric
whether a gain on it would meet the claim rule: the change fails no
more operations than the parent, wins at least nine tenths of the
pairs (ties count for neither side), and the medians differ by more
than the parent's interquartile range.  With held-out seeds (repeat a
seed for more pairs) it also records, per metric, whether the change
won every held-out pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
CLAIM_SHARE = 0.9


def checkout(spec: str, work: Path) -> Path:
    """A directory holding ``spec``: itself if it is one, else an export
    of that git revision."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    dest = work / spec.replace("/", "_").replace("^", "_parent")
    archive = subprocess.run(["git", "archive", spec], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest.mkdir()
    with tempfile.TemporaryFile() as f:
        f.write(archive)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(dest, filter="data")
    return dest


def describe(spec: str) -> str:
    """What ``spec`` names, fixed at the time of the run: a revision's
    short hash, or for a directory the short hash of its HEAD with
    ``+dirty`` when ``git status`` lists any change in it; a directory
    outside git is named by its absolute path."""
    def git(*args, cwd=ROOT):
        return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                              capture_output=True).stdout.strip()
    if not Path(spec).is_dir():
        return git("rev-parse", "--short", spec)
    try:
        head = git("rev-parse", "--short", "HEAD", cwd=spec)
        dirty = git("status", "--porcelain", cwd=spec)
    except subprocess.CalledProcessError:
        return str(Path(spec).resolve())
    return head + ("+dirty" if dirty else "")


def run_bench(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """The metrics line of one ``bench/run.py`` process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not last["correct"]:
        raise RuntimeError(f"{tree} seed {seed}: bench failed\n{done.stderr}")
    return {k: v["value"] for k, v in last["metrics"].items()} | {
        "attempted": last["attempted"], "failed": last["failed"]}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain(better: str, parent: float, change: float) -> float:
    """Positive when the change is better, ``better`` being "higher" or
    "lower"."""
    return change - parent if better == "higher" else parent - change


def summarize(pairs: list[dict], directions: dict = BETTER) -> dict:
    """Failed operations per side, and per metric of ``directions``
    (name -> "higher" or "lower"; the end-to-end metrics by default) the
    quartiles, the pairs won and lost, and the claim verdict."""
    failed = failed_ops(pairs)
    metrics = {}
    for name, better in directions.items():
        gains = [gain(better, p["parent"][name], p["change"][name])
                 for p in pairs]
        s = {"better": better,
             "parent": quartiles([p["parent"][name] for p in pairs]),
             "change": quartiles([p["change"][name] for p in pairs]),
             "change_wins": sum(g > 0 for g in gains),
             "change_losses": sum(g < 0 for g in gains),
             "pairs": len(pairs)}
        metrics[name] = s | {"claim_holds": claim_holds(s, failed)}
    return {"failed": failed, "metrics": metrics}


def failed_ops(pairs: list[dict]) -> dict:
    return {side: sum(p[side]["failed"] for p in pairs)
            for side in ("parent", "change")}


def claim_holds(s: dict, failed: dict) -> bool:
    spread = s["parent"]["q3"] - s["parent"]["q1"]
    return (failed["change"] <= failed["parent"] and
            s["change_wins"] >= CLAIM_SHARE * s["pairs"] and
            gain(s["better"], s["parent"]["median"], s["change"]["median"])
            > spread)


def wins_every_pair(held: list[dict]) -> dict:
    """Per end-to-end metric, whether the change won every held-out pair."""
    return {name: all(gain(better, h["parent"][name], h["change"][name]) > 0
                      for h in held)
            for name, better in BETTER.items()}


def collect(trees: dict, workload: str, seeds: list[int]) -> list[dict]:
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(trees[side], workload, seed)
        print(f"seed {seed}: " + ", ".join(
            f"{side} {pair[side]['ops_per_s']:.1f} op/s"
            for side in ("parent", "change")), file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True,
                   help="a range such as 301-310, or a comma list")
    p.add_argument("--held-out", type=seed_list, default=[],
                   help="seeds not used while the change was written")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    names = {"parent": describe(args.parent), "change": describe(args.change)}
    with tempfile.TemporaryDirectory() as work:
        trees = {"parent": checkout(args.parent, Path(work)),
                 "change": checkout(args.change, Path(work))}
        pairs = collect(trees, args.workload, args.seeds)
        held = collect(trees, args.workload, args.held_out)
        traced = {side: run_bench(tree, args.workload, args.seeds[0], trace=1)
                  for side, tree in trees.items()}

    doc = {"parent": names["parent"], "change": names["change"],
           "workload": args.workload, "seconds": BENCHMARK["run_seconds"],
           "machine": machine(), "seeds": args.seeds,
           "held_out_seeds": args.held_out, "pairs": pairs,
           "summary": summarize(pairs)}
    if held:
        doc["held_out"] = {"pairs": held, "failed": failed_ops(held),
                           "change_wins_every_pair": wins_every_pair(held)}
    doc["traced"] = {"seed": args.seeds[0]} | traced
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({name: s["claim_holds"] for name, s
                      in doc["summary"]["metrics"].items()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
