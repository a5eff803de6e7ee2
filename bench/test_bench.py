"""Tests of the benchmark itself: smoke runs of tiny versions of each
workload (untraced and traced), determinism of the op stream, the
answer gate, and the shape of what the command prints.

    PYTHONPATH=src python -m pytest -q bench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from decid import decisions, inference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload restricted to the smallest slot of each op kind."""
    w = copy.copy(WORKLOADS[name])
    if name == "oracle_sweep":
        w.slots = [(16, 3, 1), (32, 4, 1), (64, 3, 1)]
    else:
        smallest = {}
        for slot in sorted(w.slots, key=lambda s: (s[1:], s[0])):
            smallest.setdefault(slot[0], slot)
        w.slots = sorted(smallest.values())
    return w


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name):
    w = tiny(name)
    out = run.measure(w, 3, NullTracer(), rounds=2)
    assert out.errors == []
    assert out.failed == 0
    assert len(out.latencies) == 2 * len(w.slots)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    runs, metrics, _ = run.per_layer(tiny(name), 4, tmp_path, rounds=1)
    assert all(r.failed == 0 for r in runs)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert {metrics[m["name"]][1] for m in SPEC["per_layer"]} == \
        {m["unit"] for m in SPEC["per_layer"]}
    # Layer self times plus glue account for the op time.
    assert abs(metrics["bench.span_cover"][0] - 1.0) < 0.05
    spans = (tmp_path / f"spans-{name}-4.jsonl").read_text().splitlines()
    assert len(spans) >= len(runs[0].latencies)
    first = json.loads(spans[0])
    assert set(first) == {"id", "parent", "op", "name", "start", "end"}
    summary = json.loads((tmp_path / f"layers-{name}-4.json").read_text())
    assert summary["layers"]["bench.glue"]["calls"] == len(runs[0].latencies)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_and_counts(name):
    w = WORKLOADS[name]
    ops = [w.op(7, i) for i in range(len(w.slots) + 3)]
    again = [w.op(7, i) for i in range(len(w.slots) + 3)]
    assert [(o.kind, o.doc, o.params) for o in ops] == \
        [(o.kind, o.doc, o.params) for o in again]
    assert [o.doc for o in ops] != [w.op(8, i).doc for i in range(len(ops))]
    t = tiny(name)
    counts = [run.measure(t, 7, NullTracer(), rounds=1).counts
              for _ in range(2)]
    assert counts[0] == counts[1] and counts[0]


def _wrong_posterior(d, decisions_, evidence, query):
    f = ORIGINAL["posterior"](d, decisions_, evidence, query)
    f.values[(0,) * f.values.ndim] += 1e-6
    return f


def _wrong_policy(d, cap=decisions.POLICY_SPACE_CAP):
    policy, eu = ORIGINAL["optimal_policy"](d, cap)
    return policy, eu + 1e-6


def _never_fixed(self, target, conditioning):
    return False


ORIGINAL = {"posterior": inference.posterior,
            "optimal_policy": decisions.optimal_policy}


@pytest.mark.parametrize("name, target, attr, fake", [
    ("query_mix", inference, "posterior", _wrong_posterior),
    ("policy_eval", decisions, "optimal_policy", _wrong_policy),
    ("oracle_sweep", inference.WorldTable, "fixed_given", _never_fixed),
])
def test_corrupted_answers_are_caught(name, target, attr, fake, monkeypatch):
    monkeypatch.setattr(target, attr, fake)
    out = run.measure(tiny(name), 5, NullTracer(), rounds=1)
    assert out.failed > 0


def test_command_fails_on_a_wrong_answer(monkeypatch, capsys):
    monkeypatch.setattr(inference, "posterior", _wrong_posterior)
    status = run.main(["--workload", "query_mix", "--seed", "1",
                       "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] > 0


def test_command_prints_every_end_to_end_metric(capsys):
    status = run.main(["--workload", "query_mix", "--seed", "2",
                       "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert any("seed 2" in line for line in out)
    assert any(line.split()[:1] == ["error_frac"] for line in out)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    done = subprocess.run(SPEC["command"] + [
        "--workload", "query_mix", "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert sorted(WORKLOADS) == sorted(run.NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {n: WORKLOADS[n].why for n in run.NAMES}
    counts = {c[0]: c for c in run.COUNTS}
    for m in SPEC["per_layer"]:
        if m["name"] in counts:
            assert (m["unit"], m["better"]) == counts[m["name"]][1:3]


def test_oracles_agree_with_numpy_reference():
    """The independent joint matches a direct product on one model."""
    import models
    import oracles
    import random

    rng = random.Random(0)
    s = models.draw_structure(rng, 1, 4, p_three=0.5)
    d = models.build(rng, s)
    names, joint = oracles.joint_array(d, {"d0": "a1"})
    assert names == d.uncertain()
    assert np.isclose(joint.sum(), 1.0)
    ref = inference.joint(d, {"d0": "a1"})
    assert np.max(np.abs(ref.values - joint)) < 1e-12
