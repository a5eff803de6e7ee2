import json
import os
import pathlib
import subprocess
import sys

import pytest

import decid
from decid.cli import run_command

from genmodels import random_diagram

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def model(name):
    return str(FIXTURES / f"{name}.json")


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_error_is_exit_1(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "fixed-set")[0] == 1
    assert run(capsys, "no-such-command", model("m1"))[0] == 1


def test_missing_file_is_exit_1(capsys):
    assert run(capsys, "validate", "/nonexistent/model.json")[0] == 1


def test_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, doc = run_json(capsys, "validate", str(bad))
    assert code == 2
    assert "error" in doc


def test_invalid_model_is_exit_2(capsys, tmp_path):
    doc = json.loads((FIXTURES / "m1.json").read_text())
    doc["cpts"]["lung_cancer"]["rows"]["no"] = [0.9, 0.2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_json(capsys, "validate", str(bad))
    assert code == 2
    assert out["valid"] is False
    assert any("row sum" in v for v in out["violations"])
    # Other commands refuse to run on an invalid model.
    assert run(capsys, "fixed-set", str(bad))[0] == 2


def test_unknown_variable_is_exit_3(capsys):
    code, doc = run_json(capsys, "causes", model("m1"), "--of", "ghost")
    assert code == 3
    assert "ghost" in doc["error"]


def test_cap_exceeded_is_exit_4(capsys, monkeypatch):
    monkeypatch.setenv("CID_CAP_WORLDS", "1")
    code, doc = run_json(capsys, "causes", model("coin"),
                         "--of", "w", "--method", "oracle")
    assert code == 4
    assert "cap" in doc["error"]


def test_large_world_space_is_exit_4_without_traceback(tmp_path):
    big = random_diagram(55, n_chance=4, max_states=3, n_decisions=2)
    path = tmp_path / "big.json"
    path.write_text(decid.serialize_model(big))
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(decid.__file__).parents[1]))
    env.pop("CID_CAP_WORLDS", None)
    proc = subprocess.run([sys.executable, "-m", "decid.cli", "causes",
                           str(path), "--of", "x3", "--method", "oracle"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 4
    assert "241864704 world/decision pairs" in json.loads(proc.stdout)["error"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_bad_world_cap_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("CID_CAP_WORLDS", raw)
    code = run_command(["causes", model("coin"), "--of", "w",
                        "--method", "oracle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "CID_CAP_WORLDS must be a positive integer" in captured.err


def test_malformed_table_is_exit_2_without_traceback(tmp_path):
    doc = json.loads((FIXTURES / "m1.json").read_text())
    doc["cpts"]["lung_cancer"]["rows"] = [[0.9, 0.1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(decid.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "decid.cli", "validate",
                           str(bad)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "rows" in json.loads(proc.stdout)["error"]
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# Subcommand behavior


def test_validate_ok(capsys):
    code, doc = run_json(capsys, "validate", model("m1"))
    assert code == 0
    assert doc == {"valid": True, "violations": []}


def test_fixed_set(capsys):
    code, doc = run_json(capsys, "fixed-set", model("fig6a"))
    assert code == 0
    assert doc["fixed_set"] == ["genotype"]
    code, doc = run_json(capsys, "fixed-set", model("fig6a"),
                         "--given", "diet")
    assert doc["fixed_set"] == ["cardio", "genotype"]


def test_causes_graphical(capsys):
    code, doc = run_json(capsys, "causes", model("fig6a"), "--of", "cardio")
    assert code == 0
    assert doc["cause_sets"] == [["diet"]]
    code, doc = run_json(capsys, "causes", model("fig6a"), "--of", "genotype")
    assert doc["cause_sets"] == [] and "fixed set" in doc["reason"]


def test_causes_oracle_transforms_on_the_fly(capsys):
    code, doc = run_json(capsys, "causes", model("m1"),
                         "--of", "lung_cancer", "--method", "oracle")
    assert code == 0
    assert doc["method"] == "oracle"
    assert doc["cause_sets"] == [["smoke"]]


def test_dsep(capsys):
    code, doc = run_json(capsys, "d-sep", model("fig1"),
                         "--x", "lung_cancer", "--y", "cardio",
                         "--given", "smoke,diet,genotype")
    assert code == 0 and doc["d_separated"] is True
    code, doc = run_json(capsys, "d-sep", model("fig1"),
                         "--x", "lung_cancer", "--y", "cardio",
                         "--given", "smoke,diet")
    assert doc["d_separated"] is False


def test_minimal(capsys):
    code, doc = run_json(capsys, "minimal", model("fig2a"),
                         "--target", "payoff")
    assert code == 0
    assert doc["minimal_blocking_sets"] == [["smoke"],
                                            ["lung_cancer", "pleasure"]]


def test_to_hcf_and_check_hcf(capsys, tmp_path):
    out = tmp_path / "m1_hcf.json"
    code, doc = run_json(capsys, "to-hcf", model("m1"), "-o", str(out))
    assert code == 0
    assert doc["mechanisms"] == ["lung_cancer(smoke)"]
    code, doc = run_json(capsys, "check-hcf", str(out),
                         "--original", model("m1"))
    assert code == 0
    assert doc["pass"] is True
    assert doc["priors"]["lung_cancer(smoke)"][""] == [0.76, 0.19, 0.04, 0.01]


def test_check_hcf_flags_broken_prior(capsys, tmp_path):
    out = tmp_path / "m1_hcf.json"
    run(capsys, "to-hcf", model("m1"), "-o", str(out))
    doc = json.loads(out.read_text())
    doc["cpts"]["lung_cancer(smoke)"]["rows"][""] = [0.25, 0.25, 0.25, 0.25]
    out.write_text(json.dumps(doc))
    code, report = run_json(capsys, "check-hcf", str(out),
                            "--original", model("m1"))
    assert code == 3
    assert report["pass"] is False and report["violations"]


def test_check_hcf_requires_mechanisms(capsys):
    code, doc = run_json(capsys, "check-hcf", model("m1"),
                         "--original", model("m1"))
    assert code == 3
    assert "mechanisms" in doc["error"]


def test_infer_joint(capsys):
    code, doc = run_json(capsys, "infer", model("m1"),
                         "--decisions", "smoke=yes")
    assert code == 0
    assert doc["probabilities"]["yes"] == pytest.approx(0.2)


def test_infer_posterior(capsys):
    code, doc = run_json(capsys, "infer", model("fig2a"),
                         "--decisions", "smoke=yes",
                         "--evidence", "lung_cancer=yes",
                         "--query", "genotype")
    assert code == 0
    assert doc["probabilities"]["g1"] == pytest.approx(7 / 15)


def test_infer_zero_probability_evidence_is_exit_3(capsys, tmp_path):
    doc = {
        "variables": [
            {"name": "c1", "kind": "chance", "states": ["0", "1"]},
            {"name": "c2", "kind": "chance", "states": ["0", "1"]},
            {"name": "w", "kind": "deterministic", "states": ["0", "1"]},
        ],
        "relevance_arcs": [["c1", "w"]],
        "information_arcs": [],
        "cpts": {"c1": {"parent_order": [], "rows": {"": [0.5, 0.5]}},
                 "c2": {"parent_order": [], "rows": {"": [0.5, 0.5]}}},
        "deterministic": {"w": {"parent_order": ["c1"],
                                "rows": {"0": [1.0, 0.0], "1": [0.0, 1.0]}}},
        "utility": None,
        "decision_order": [],
        "annotations": {"causal": False, "declared_fixed": []},
    }
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "infer", str(path),
                         "--evidence", "c1=0,w=1", "--query", "c2")
    assert code == 3
    assert "zero" in out["error"]


def test_infer_missing_decision_is_exit_3(capsys):
    code, doc = run_json(capsys, "infer", model("m1"))
    assert code == 3
    assert "smoke" in doc["error"]


def test_infer_misspelt_decision_is_exit_3(capsys):
    code, doc = run_json(capsys, "infer", model("m1"), "--decisions",
                         "smoke=yes,smok=no", "--query", "lung_cancer")
    assert code == 3
    assert "smok" in doc["error"]


def test_counterfactual(capsys):
    code, doc = run_json(capsys, "counterfactual", model("m1"),
                         "--factual-decisions", "smoke=yes",
                         "--evidence", "lung_cancer=yes",
                         "--counterfactual-decisions", "smoke=no",
                         "--query", "lung_cancer")
    assert code == 0
    assert doc["scope"] == ["lung_cancer'"]
    assert doc["probabilities"]["yes"] == pytest.approx(0.05)


def test_evaluate(capsys):
    code, doc = run_json(capsys, "evaluate", model("coin_utility"))
    assert code == 0
    assert doc["expected_utility"] == pytest.approx(0.5)
    assert doc["policy"]["d"][""] == "heads"


def test_evaluate_without_utility_is_exit_3(capsys):
    code, doc = run_json(capsys, "evaluate", model("coin"))
    assert code == 3


def test_voi(capsys):
    code, doc = run_json(capsys, "voi", model("coin_utility"),
                         "--node", "c", "--decision", "d")
    assert code == 0
    assert doc["value_of_information"] == pytest.approx(0.5)


def test_voi_unobservable_is_exit_3(capsys):
    code, doc = run_json(capsys, "voi", model("coin"),
                         "--node", "w", "--decision", "d")
    assert code == 3
    assert "observed" in doc["error"]


def test_certify_causal(capsys):
    code, doc = run_json(capsys, "certify-causal", model("fig2b"))
    assert code == 0
    assert doc["certified"] is False
    assert any("set decision" in r for r in doc["reasons"])


def test_is_d_map(capsys):
    code, doc = run_json(capsys, "is-d-map", model("m1"))
    assert code == 0
    assert doc["is_d_map"] is True and doc["counterexample"] is None


def test_pretty_mode_is_human_readable(capsys):
    code, out = run(capsys, "fixed-set", model("fig6a"), "--pretty")
    assert code == 0
    assert "fixed set: genotype" in out


# ---------------------------------------------------------------------------
# Determinism


@pytest.mark.parametrize("argv", [
    ("fixed-set", "fig6a"),
    ("causes", "fig2a", "--of", "payoff"),
    ("evaluate", "fig2a"),
    ("infer", "fig2a", "--decisions", "smoke=yes", "--query", "genotype"),
    ("is-d-map", "m1"),
])
def test_output_is_deterministic(capsys, argv):
    cmd = [argv[0], model(argv[1]), *argv[2:]]
    first = run(capsys, *cmd)
    second = run(capsys, *cmd)
    assert first == second and first[0] == 0
