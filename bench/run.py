"""decid benchmark: one seeded workload per process, closed loop.

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 30 \
        --trace 0

One client on one thread sends the next question only after the
previous answer is back.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs a fixed number of rounds with a
span around every call into decid, then the same ops again untraced,
and reports per-layer self times, shares, work counts and the tracing
overhead.  Op times are scaled to a reference host speed sampled around
every op (see ``calibrate.py``); raw times are printed alongside.
Every answer is checked against an independent route outside the timed
region; a wrong or raised answer counts as failed and makes the command
exit 1.  ``--workload all`` runs the three workloads one
after another, each in its own process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate
from tracing import GLUE, NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 9
NAMES = ("oracle_sweep", "policy_eval", "query_mix")

# Every public function a workload calls, as ``<module>.<function>``.
LAYERS = (
    "modelfile.parse_document", "model.validate_diagram",
    "mechanisms.to_hcf", "inference.WorldTable", "inference.fixed_given",
    "graphs.blocks", "decisions.optimal_policy",
    "decisions.expected_utility", "decisions.value_of_information",
    "inference.posterior", "inference.joint", "decisions.counterfactual",
    "graphs.graphical_causes", "graphs.graphical_fixed_set",
    "graphs.d_separated", "graphs.minimal_blocking_sets",
    "inference.oracle_causes",
)
# Work counts: metric name, unit, better, numerator, denominator.
COUNTS = (
    ("inference.world_table.worlds", "worlds/table", "lower",
     "worlds", "tables"),
    ("inference.world_table.pairs", "pairs/table", "lower",
     "pairs", "tables"),
    ("inference.fixed_given.per_table", "calls/table", "higher",
     "fixed_given", "tables"),
    ("graphs.blocks.hit_ratio", "ratio", "higher", "blocked", "blocks"),
    ("mechanisms.mechanism_states", "states/call", "lower",
     "mechanism_states", "to_hcf"),
    ("decisions.policies_evaluated", "policies/call", "lower",
     "policies_evaluated", "searches"),
    ("decisions.joint_cells", "cells/eval", "lower",
     "joint_cells", "eu_evaluations"),
    ("inference.joint.cells", "cells/call", "lower", "joint.cells", "joint"),
    ("modelfile.bytes_parsed", "B/doc", "lower", "bytes_parsed", "parses"),
)


def load_decid():
    """Import decid from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import decid
    except ImportError as e:
        sys.exit(f"bench: cannot import decid from {SRC}: {e}")
    if Path(decid.__file__).resolve().parent != SRC / "decid":
        sys.exit(f"bench: decid was imported from {decid.__file__}, "
                 f"not from {SRC}")


# ---------------------------------------------------------------------------
# Measurement


class Run:
    """Outcome of one measured phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.host: list[float] = []     # host samples around the ops
        self.failed = 0
        self.counts: Counter = Counter()
        self.errors: list[str] = []


def measure(workload, seed, tracer, seconds=None, rounds=None) -> Run:
    """Closed loop over the workload's op stream.  Stops at the first
    round boundary after ``seconds`` of wall time or after ``rounds``
    rounds, whichever is given."""
    per_round = len(workload.slots)
    out = Run()
    out.host.append(calibrate.host_sample())
    start = time.perf_counter()
    n = 0
    while True:
        if n and n % per_round == 0:
            if rounds is not None and n // per_round >= rounds:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        op = workload.op(seed, n)
        tracer.begin(n)
        prepared = workload.prepare(tracer, op)
        answer = None
        t0 = time.perf_counter()
        try:
            answer = tracer.op(workload.run, tracer, op, prepared)
        except Exception:       # a raised answer is a failed op
            out.errors.append(f"op {n} ({op.kind}) raised:\n"
                              + traceback.format_exc())
        out.latencies.append(time.perf_counter() - t0)
        ok = False
        if answer is not None:
            try:
                ok = workload.check(op, prepared, answer) is True
            except Exception:   # a malformed answer fails its check
                out.errors.append(traceback.format_exc())
            if ok:
                out.counts.update(workload.counts(op, prepared, answer))
                out.counts.update(parses=1, bytes_parsed=len(op.doc.encode()))
            else:
                out.errors.append(f"op {n} ({op.kind}) failed its answer "
                                  f"check: params={op.params} size={op.size}")
        out.failed += not ok
        out.host.append(calibrate.host_sample())
        n += 1
    return out


def scale_factors(run: Run) -> list[float]:
    """Per op, the factor that brings its times to reference speed."""
    return [calibrate.scaled(1.0, a, b)
            for a, b in zip(run.host, run.host[1:])]


def scaled_latencies(run: Run) -> list[float]:
    return [t * f for t, f in zip(run.latencies, scale_factors(run))]


def setup_seconds(workload, seed) -> list[float]:
    """Import plus first-round parsing, each in a fresh process.  Not
    scaled: import time follows the host's states less closely than
    the interpreter-bound reference does."""
    docs = [] if workload.parses_in_op else [
        workload.op(seed, i).doc for i in range(len(workload.slots))]
    payload = json.dumps(docs)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              input=payload, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Reports


def end_to_end(workload, seed, seconds):
    setup = setup_seconds(workload, seed)
    run = measure(workload, seed, NullTracer(), seconds=seconds)
    attempted = len(run.latencies)
    metrics, raw = {}, {}
    for out, lat in ((metrics, scaled_latencies(run)), (raw, run.latencies)):
        out["ops_per_s"] = ((attempted - run.failed) / sum(lat), "op/s")
        out["op_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        out["op_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    p90 = metrics["op_p90_ms"][0] / 1e3
    beyond = sum(1 for x in scaled_latencies(run) if x > p90)
    lines = [f"  {k:<12} {v:12.6g} {u}" for k, (v, u) in metrics.items()]
    for i, (v, u) in enumerate(raw.values()):
        lines[i] += f"  (raw {v:.6g} {u})"
    lines[2] += f"  ({attempted} samples, {beyond} beyond p90)"
    lines[3] += f"  (median of {len(setup)} fresh processes, raw)"
    lines.append(f"  {'error_frac':<12} {run.failed / attempted:12.6g} ratio"
                 f"  ({run.failed} of {attempted} ops)")
    host = statistics.median(run.host)
    lines.append(f"  host speed: reference took {host * 1e3:.4g} ms (median "
                 f"of {len(run.host)} samples); times are scaled to "
                 f"{calibrate.REFERENCE_S * 1e3:.3g} ms")
    if beyond < 10:
        lines.append("  warning: fewer than 10 samples beyond p90; "
                     "raise --seconds")
    return [run], metrics, lines


def per_layer(workload, seed, out_dir, **limit):
    """Traced phase, then the same ops untraced.  ``limit`` is passed to
    :func:`measure` and defaults to the workload's trace rounds.  Times
    are scaled to the reference host speed, like the end-to-end ones."""
    limit = limit or {"rounds": workload.trace_rounds}
    tracer = Tracer()
    run = measure(workload, seed, tracer, **limit)
    plain = measure(workload, seed, NullTracer(), **limit)
    op_s = sum(scaled_latencies(run))
    plain_s = sum(scaled_latencies(plain))
    selfs = tracer.self_times(scale_factors(run))
    covered = sum(inside for _, _, inside in selfs.values())
    metrics = {}
    for name in LAYERS:
        calls, self_s, inside = selfs.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.share"] = (inside / op_s, "ratio")
    glue = selfs.get(GLUE, (0, 0.0, 0.0))[1]
    metrics["bench.glue_s"] = (glue, "s")
    metrics["bench.glue.share"] = (glue / op_s, "ratio")
    for name, unit, _, num, den in COUNTS:
        c = run.counts
        metrics[name] = (c[num] / c[den] if c[den] else 0.0, unit)
    metrics.update({
        "bench.op_s": (op_s, "s"),
        "bench.untraced_op_s": (plain_s, "s"),
        "bench.trace_overhead_s": (op_s - plain_s, "s"),
        "bench.span_cover": (covered / op_s, "ratio"),
    })
    tag = f"{workload.name}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{tag}.jsonl")
    summary = {"workload": workload.name, "seed": seed,
               "traced_ops": len(run.latencies),
               "untraced_ops": len(plain.latencies),
               "layers": {name: {"calls": c, "self_s": s,
                                 "share": inside / op_s}
                          for name, (c, s, inside) in sorted(selfs.items())},
               "counts": dict(run.counts),
               "metrics": {k: v for k, (v, _) in metrics.items()}}
    (out_dir / f"layers-{tag}.json").write_text(json.dumps(summary, indent=2))
    lines = [f"  {name:<38} {calls:>7} calls {self_s:10.4f} s "
             f"{inside / op_s:7.2%} of op time"
             for name, (calls, self_s, inside) in sorted(
                 selfs.items(), key=lambda kv: -kv[1][1])]
    lines += [f"  {k:<38} {v:12.6g} {u}" for k, (v, u) in metrics.items()
              if not k.endswith((".calls", ".self_s", ".share"))]
    lines.append(f"  spans and summary: {out_dir}/{{spans,layers}}-{tag}.*")
    if abs(covered / op_s - 1.0) > 0.05:
        lines.append("  warning: layer self times plus glue differ from "
                     "op time by more than 5%")
    return [run, plain], metrics, lines


def run_one(name, seed, seconds, trace) -> int:
    load_decid()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        runs, metrics, lines = per_layer(workload, seed, OUT)
    else:
        runs, metrics, lines = end_to_end(workload, seed, seconds)
    mode = "traced, per layer" if trace else "untraced, end to end"
    print(f"decid bench: workload {name}, seed {seed}, {mode}; "
          "closed loop, 1 client, 1 thread")
    print(f"  why: {workload.why}")
    for line in lines:
        print(line)
    failed = sum(r.failed for r in runs)
    for err in [e for r in runs for e in r.errors][:5]:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(r.latencies) for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=900)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
