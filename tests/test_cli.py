import argparse
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import decid
from decid.cli import _pairs, main, run_command

from genmodels import chain, ladder, random_dag, random_diagram, star

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


@pytest.mark.parametrize("argv,code", [
    (["fixed-set", model("m1")], 0),
    (["validate", __file__], 2),
])
def test_main_exits_with_the_commands_code(monkeypatch, capsys, argv, code):
    """``main`` reads ``sys.argv`` and exits with ``run_command``'s code
    and output."""
    want = run(capsys, *argv)
    assert want[0] == code
    monkeypatch.setattr(sys, "argv", ["decid", *argv])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert (exit_.value.code, capsys.readouterr().out) == want


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


def test_nan_probabilities_are_exit_2(capsys, tmp_path):
    doc = json.loads((FIXTURES / "m1.json").read_text())
    doc["cpts"]["lung_cancer"]["rows"]["no"] = [float("nan")] * 2
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text()     # Python's json reads NaN back
    for argv in (["validate"], ["infer", "--decisions", "smoke=no"]):
        code, out = run_json(capsys, argv[0], str(bad), *argv[1:])
        assert code == 2 and any(
            "outside [0, 1]" in v for v in out["violations"]), argv


@pytest.mark.parametrize("fixture,edit,error", [
    ("m1", lambda doc: doc["cpts"]["lung_cancer"]["rows"].__setitem__(
        "no", [True, False]),
     "lung_cancer: row 'no' must be a list of numbers"),
    ("coin_utility", lambda doc: doc["utility"]["values"].__setitem__(
        "win", True), "payoff: utility value True at 'win' is not a number"),
])
def test_boolean_numbers_are_exit_2(capsys, tmp_path, fixture, edit, error):
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    edit(doc)
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(doc))
    code, out = run_json(capsys, "validate", str(bad))
    assert (code, out) == (2, {"error": error})


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


def test_dsep_names_a_mechanism(capsys, tmp_path):
    """A comma inside parentheses belongs to the mechanism's name."""
    hcf = tmp_path / "fig1_hcf.json"
    run(capsys, "to-hcf", model("fig1"), "-o", str(hcf))
    life = "life(lung_cancer,cardio)"
    code, doc = run_json(capsys, "d-sep", str(hcf), "--x", life,
                         "--y", "smoke", "--given", "diet")
    assert code == 0
    assert doc == {"x": [life], "y": ["smoke"], "given": ["diet"],
                   "d_separated": True}
    code, doc = run_json(capsys, "d-sep", str(hcf), "--x", "smoke",
                         "--y", "diet", "--given", f"{life},life")
    assert code == 0
    assert doc["given"] == ["life", life] and doc["d_separated"] is False


_ORACLE_UNKNOWN = """
import sys
from decid import UnknownVariable, oracle_fixed_set_member, parse_model, to_hcf
h = to_hcf(parse_model(open(sys.argv[1]).read()))
try:
    oracle_fixed_set_member(h, "lung_cancer", {"zz", "aa", "mm"})
except UnknownVariable as e:
    print(e)
"""


def test_unknown_name_does_not_depend_on_hash_seed():
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(decid.__file__).parents[1]))
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "decid.cli", "d-sep", model("fig1"),
             "--x", "smoke", "--y", "nope_b,nope_a", "--given", "diet"],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONHASHSEED": seed})
        assert proc.returncode == 3, seed
        assert json.loads(proc.stdout) == {
            "error": "unknown variable 'nope_a'"}, seed
        proc = subprocess.run(
            [sys.executable, "-c", _ORACLE_UNKNOWN, model("m1")],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONHASHSEED": seed})
        assert (proc.returncode, proc.stdout) == (
            0, "unknown variable 'aa'\n"), seed


def test_minimal(capsys):
    code, doc = run_json(capsys, "minimal", model("fig2a"),
                         "--target", "payoff")
    assert code == 0
    assert doc["minimal_blocking_sets"] == [["smoke"],
                                            ["lung_cancer", "pleasure"]]


def test_minimal_misspelt_exclude_is_exit_3(capsys):
    code, doc = run_json(capsys, "minimal", model("fig2a"),
                         "--target", "payoff", "--exclude", "smokee")
    assert code == 3
    assert doc == {"error": "unknown variable 'smokee'"}


def test_minimal_answers_where_only_the_pruned_pool_fits(capsys, tmp_path):
    # 24 candidates in all, only 10 on a path from a decision to x14.
    path = tmp_path / "dag25.json"
    path.write_text(decid.serialize_model(random_dag(0, n_nodes=25)))
    code, doc = run_json(capsys, "minimal", str(path), "--target", "x14")
    assert code == 0
    assert len(doc["minimal_blocking_sets"]) == 6
    assert doc["minimal_blocking_sets"][0] == ["d0", "d1"]
    code, doc = run_json(capsys, "causes", str(path), "--of", "x14")
    assert code == 0 and len(doc["cause_sets"]) == 6


@pytest.mark.parametrize("n", [63, 70])
def test_infer_past_the_einsum_operand_limit(capsys, tmp_path, n):
    path = tmp_path / "star.json"
    path.write_text(decid.serialize_model(star(n)))
    evidence = ",".join(f"c{i}=1" for i in range(n))
    code, doc = run_json(capsys, "infer", str(path), "--decisions", "d=b",
                         "--evidence", evidence, "--query", "h")
    assert code == 0, doc
    assert doc["scope"] == ["h"]


def test_minimal_budget_is_exit_4_naming_the_pool(capsys, tmp_path):
    path = tmp_path / "ladder.json"
    path.write_text(decid.serialize_model(ladder(10)))
    code, doc = run_json(capsys, "minimal", str(path), "--target", "t")
    assert code == 4
    assert doc["error"] == "21 candidate nodes exceed budget 20"


def test_to_hcf_writes_to_stdout(capsys):
    assert run(capsys, "to-hcf", model("m1")) == (
        0, decid.serialize_model(decid.to_hcf(
            decid.parse_model((FIXTURES / "m1.json").read_text()))))


def test_causes_oracle_reads_an_hcf_document(capsys, tmp_path):
    hcf = tmp_path / "fig2a_hcf.json"
    run(capsys, "to-hcf", model("fig2a"), "-o", str(hcf))
    argv = ["--of", "payoff", "--method", "oracle"]
    code, out = run(capsys, "causes", str(hcf), *argv)
    assert code == 0
    assert (code, out) == run(capsys, "causes", model("fig2a"), *argv)


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


@pytest.mark.parametrize("source,original,violations", [
    ("fig1", "m1", [
        "cardio(diet): the original has no chance node cardio",
        "lung_cancer(smoke): lung_cancer has parents ['smoke'] in the "
        "original, not ['genotype', 'smoke']",
        "life(lung_cancer,cardio): the original has no chance node life"]),
    ("m1", None, [
        "lung_cancer(smoke): lung_cancer has parents "
        "['lung_cancer(smoke)', 'smoke'] in the original, not ['smoke']"]),
])
def test_check_hcf_against_another_original(capsys, tmp_path, source,
                                             original, violations):
    """An original that is not the HCF's source, or the HCF itself, is
    reported mechanism by mechanism, not raised."""
    out = tmp_path / "hcf.json"
    run(capsys, "to-hcf", model(source), "-o", str(out))
    code, doc = run_json(capsys, "check-hcf", str(out), "--original",
                         model(original) if original else str(out))
    assert code == 3
    assert doc["pass"] is False
    assert doc["violations"] == violations


@pytest.mark.parametrize("edit,error", [
    (lambda m: m["mappings"].__setitem__(1, ["no"]),
     "mapping 1 has 1 entries, not one per domain instance (2)"),
    (lambda m: m["mappings"].__setitem__(2, ["no", "maybe"]),
     "mapping 2 names 'maybe', not a state of lung_cancer"),
    (lambda m: m.__setitem__("domain", ["smokes"]),
     "unknown domain variable 'smokes'"),
    (lambda m: m["mappings"].pop(), "3 mappings for 4 states"),
    (lambda m: m.__setitem__("fixed_parents", ["nosuch"]),
     "unknown fixed parent 'nosuch'"),
    (lambda m: m.__setitem__("fixed_parents", ["smoke"]),
     "prior is keyed by [], not the fixed parents ['smoke']"),
    (lambda m: m.__setitem__("source", "smoke"),
     "its source and domain give the name smoke(smoke)"),
    (lambda m: m.__setitem__("domain", ["lung_cancer"]),
     "its source and domain give the name lung_cancer(lung_cancer)"),
    (lambda m: m["mappings"].reverse(),
     "mapping 0 is 'yes,yes', but state 0 of the node is 'no,no'"),
])
def test_malformed_mechanism_mappings_are_exit_2(capsys, tmp_path, edit,
                                                 error):
    out = tmp_path / "m1_hcf.json"
    run(capsys, "to-hcf", model("m1"), "-o", str(out))
    doc = json.loads(out.read_text())
    edit(doc["mechanisms"][0])
    out.write_text(json.dumps(doc))
    for argv in (["check-hcf", str(out), "--original", model("m1")],
                 ["validate", str(out)]):
        code, report = run_json(capsys, *argv)
        assert (code, report) == (
            2, {"error": f"mechanism lung_cancer(smoke): {error}"})


def _m1_hcf():
    """The m1 HCF document, as ``to-hcf`` writes it."""
    return json.loads(decid.serialize_model(decid.to_hcf(
        decid.parse_model((FIXTURES / "m1.json").read_text()))))


def _not_causal(doc):
    doc["annotations"]["causal"] = False


def _chance_lung_cancer(doc):
    next(v for v in doc["variables"] if v["name"] == "lung_cancer")[
        "kind"] = "chance"
    table = doc["deterministic"].pop("lung_cancer")
    table["rows"] = dict.fromkeys(table["rows"], [0.5, 0.5])
    doc["cpts"]["lung_cancer"] = table


def _mechanism_below_smoke(doc):
    doc["mechanisms"][0]["fixed_parents"] = ["smoke"]
    prior = doc["cpts"]["lung_cancer(smoke)"]
    prior["parent_order"] = ["smoke"]
    prior["rows"] = dict.fromkeys(["no", "yes"], prior["rows"][""])
    doc["relevance_arcs"].append(["smoke", "lung_cancer(smoke)"])


_EVERY_QUERY = [
    ["fixed-set"], ["causes", "--of", "lung_cancer"],
    ["causes", "--of", "lung_cancer", "--method", "oracle"],
    ["d-sep", "--x", "smoke", "--y", "lung_cancer"],
    ["minimal", "--target", "lung_cancer"], ["to-hcf"],
    ["check-hcf", "--original", model("m1")],
    ["infer", "--decisions", "smoke=yes"],
    ["counterfactual", "--factual-decisions", "smoke=yes",
     "--counterfactual-decisions", "smoke=no", "--query", "lung_cancer"],
    ["evaluate"], ["voi", "--node", "lung_cancer(smoke)", "--decision", "smoke"],
    ["certify-causal"], ["is-d-map"]]


@pytest.mark.parametrize("edit,violations", [
    (_not_causal, ["HCF diagram must be annotated causal"]),
    (_chance_lung_cancer,
     ["decision descendant lung_cancer is not deterministic"]),
    (_mechanism_below_smoke,
     ["decision descendant lung_cancer(smoke) is not deterministic",
      "mechanism lung_cancer(smoke) is a decision descendant"]),
])
def test_broken_hcf_is_exit_2_for_every_subcommand(capsys, tmp_path, edit,
                                                   violations):
    doc = _m1_hcf()
    edit(doc)
    path = tmp_path / "broken_hcf.json"
    path.write_text(json.dumps(doc))
    refused = {"valid": False, "violations": violations}
    assert run_json(capsys, "validate", str(path)) == (2, refused)
    for command, *rest in _EVERY_QUERY:
        assert run_json(capsys, command, str(path), *rest) == (
            2, refused), command


def _lung_cancer_rows(doc):
    return doc["cpts"]["lung_cancer"]["rows"]


# Fault -> (fixture, edit, the one violation).  Each edit parses.
_TABLE_FAULTS = {
    "table": ("m1", lambda doc: doc["cpts"].pop("lung_cancer"),
              "lung_cancer: missing conditional table"),
    "arity": ("m1", lambda doc: _lung_cancer_rows(doc).__setitem__(
        "no|extra", [0.5, 0.5]),
        "lung_cancer: unexpected CPT row ('no', 'extra')"),
    "state": ("m1", lambda doc: _lung_cancer_rows(doc).__setitem__(
        "sometimes", [0.5, 0.5]),
        "lung_cancer: unexpected CPT row ('sometimes',)"),
    "range": ("m1", lambda doc: _lung_cancer_rows(doc).__setitem__(
        "no", [1.5, -0.5]),
        "lung_cancer: row ('no',) has entries outside [0, 1]"),
    "states": ("m1", lambda doc: doc["variables"][1].__setitem__(
        "states", []), "lung_cancer: needs at least 2 states"),
    "utility": ("coin_utility", lambda doc: doc.pop("utility"),
                "payoff: missing utility values"),
    "repeated parent": ("m1", lambda doc: doc["cpts"].__setitem__(
        "lung_cancer", {"parent_order": ["smoke", "smoke"], "rows": {
            "no|no": [0.95, 0.05], "no|yes": [0.9, 0.1],
            "yes|no": [0.85, 0.15], "yes|yes": [0.8, 0.2]}}),
        "lung_cancer: table parents ['smoke', 'smoke'] != relevance "
        "parents ['smoke']"),
}


@pytest.mark.parametrize("fault", _TABLE_FAULTS)
def test_table_faults_parse_and_are_exit_2(capsys, tmp_path, fault):
    """A fault in a table or a state list parses; ``validate_diagram``
    names it, and every subcommand refuses the model with exit 2."""
    fixture, edit, violation = _TABLE_FAULTS[fault]
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    edit(doc)
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(doc))
    refused = {"valid": False, "violations": [violation]}
    assert decid.validate_diagram(decid.parse_model(path.read_text())) == [
        violation]
    assert run_json(capsys, "validate", str(path)) == (2, refused)
    for command, *rest in _EVERY_QUERY:
        assert run_json(capsys, command, str(path), *rest) == (
            2, refused), command


# Fault -> (edit of m1, the violations).
_BAD_ORIGINALS = {
    "missing row": (lambda doc: _lung_cancer_rows(doc).pop("no"),
                    ["lung_cancer: missing CPT row ('no',)"]),
    "cycle": (lambda doc: doc["relevance_arcs"].append(
        ["lung_cancer", "smoke"]),
        ["relevance arc lung_cancer->smoke: arcs into decisions must be "
         "information arcs", "cycle in combined arc graph"]),
    "short row": (lambda doc: _lung_cancer_rows(doc).__setitem__(
        "no", [1.0]), ["lung_cancer: row ('no',) has 1 entries, expected 2"]),
    **{fault: (edit, [violation]) for fault, (fixture, edit, violation)
       in _TABLE_FAULTS.items() if fixture == "m1"},
}


@pytest.mark.parametrize("fault", _BAD_ORIGINALS)
def test_invalid_original_is_exit_2(capsys, tmp_path, fault):
    """``check-hcf`` puts its original through the same validation step
    as its model."""
    edit, violations = _BAD_ORIGINALS[fault]
    hcf = tmp_path / "m1_hcf.json"
    hcf.write_text(json.dumps(_m1_hcf()))
    doc = json.loads((FIXTURES / "m1.json").read_text())
    edit(doc)
    original = tmp_path / "original.json"
    original.write_text(json.dumps(doc))
    assert run_json(capsys, "check-hcf", str(hcf), "--original",
                    str(original)) == (
        2, {"valid": False, "violations": violations})


def test_declared_fixed_decision_is_exit_2(capsys, tmp_path):
    """A ``declared_fixed`` entry that is no chance variable is a model
    fault, so no subcommand reads the diagram past validation."""
    doc = json.loads((FIXTURES / "fig2a.json").read_text())
    doc["annotations"]["declared_fixed"] = ["smoke"]
    path = tmp_path / "fixed_smoke.json"
    path.write_text(json.dumps(doc))
    refused = {"valid": False, "violations": [
        "declared_fixed names smoke, which is not a chance variable"]}
    assert run_json(capsys, "validate", str(path)) == (2, refused)
    for argv in (["causes", "--of", "payoff", "--method", "oracle"],
                 ["to-hcf"], ["infer", "--decisions", "smoke=yes"]):
        assert run_json(capsys, argv[0], str(path), *argv[1:]) == (
            2, refused), argv


def test_elimination_past_the_factor_cap_is_exit_4(capsys, tmp_path):
    """A 40-variable chain: its joint would take 2^40 cells, and the
    cap trips before any is allocated; one variable's posterior is
    still answered."""
    path = tmp_path / "chain.json"
    path.write_text(decid.serialize_model(chain(40)))
    assert run_json(capsys, "infer", str(path), "--decisions", "d=a") == (
        4, {"error": "1099511627776 factor cells for the result exceed "
                     "cap 10000000"})
    assert run_json(capsys, "is-d-map", str(path)) == (
        4, {"error": "2199023255552 factor cells for the result exceed "
                     "cap 10000000"})
    code, doc = run_json(capsys, "infer", str(path), "--decisions", "d=a",
                         "--query", "x39", "--evidence", "x0=1")
    assert code == 0 and doc["scope"] == ["x39"]


def test_check_hcf_requires_mechanisms(capsys):
    code, doc = run_json(capsys, "check-hcf", model("m1"),
                         "--original", model("m1"))
    assert code == 3
    assert "mechanisms" in doc["error"]


def test_evidence_requires_query(capsys):
    assert run_json(capsys, "infer", model("m1"), "--decisions", "smoke=yes",
                    "--evidence", "lung_cancer=yes") == (
        3, {"error": "--evidence requires --query"})


def test_pretty_factor(capsys):
    assert run(capsys, "infer", model("m1"), "--decisions", "smoke=yes",
               "--pretty") == (0, "P(lung_cancer)\n  no: 0.8\n  yes: 0.2\n")
    assert run(capsys, "counterfactual", model("m1"), "--factual-decisions",
               "smoke=yes", "--evidence", "lung_cancer=yes",
               "--counterfactual-decisions", "smoke=no", "--query",
               "lung_cancer", "--pretty") == (
        0, "P(lung_cancer')\n  no: 0.95\n  yes: 0.05\n")


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


def test_pairs_split_where_a_new_name_starts():
    assert _pairs("smoke=yes, diet=good") == {"smoke": "yes", "diet": "good"}
    assert _pairs("s=set=yes,d=a") == {"s": "set=yes", "d": "a"}
    assert _pairs("life(lung_cancer,cardio)=short,long,cardio(diet)=good,bad") \
        == {"life(lung_cancer,cardio)": "short,long", "cardio(diet)": "good,bad"}
    with pytest.raises(argparse.ArgumentTypeError):
        _pairs("bad,smoke=yes")


@pytest.mark.parametrize("evidence", [
    "life(lung_cancer,cardio)=short,short,short,long",
    "cardio(diet)=good,bad",
])
def test_infer_takes_mechanism_evidence(capsys, tmp_path, evidence):
    hcf = tmp_path / "fig1_hcf.json"
    run(capsys, "to-hcf", model("fig1"), "-o", str(hcf))
    code, doc = run_json(capsys, "infer", str(hcf),
                         "--decisions", "smoke=yes,diet=good",
                         "--evidence", evidence, "--query", "lung_cancer")
    assert code == 0
    name, state = evidence.split("=")
    f = decid.posterior(decid.parse_model(hcf.read_text()),
                        {"smoke": "yes", "diet": "good"}, {name: state},
                        ["lung_cancer"])
    assert doc["probabilities"]["yes"] == pytest.approx(
        f.value({"lung_cancer": "yes"}))


def test_infer_missing_decision_is_exit_3(capsys):
    code, doc = run_json(capsys, "infer", model("m1"))
    assert code == 3
    assert "smoke" in doc["error"]


def test_infer_misspelt_decision_is_exit_3(capsys):
    code, doc = run_json(capsys, "infer", model("m1"), "--decisions",
                         "smoke=yes,smok=no", "--query", "lung_cancer")
    assert code == 3
    assert "smok" in doc["error"]


def test_repeated_query_variable_is_exit_3(capsys):
    code, doc = run_json(capsys, "infer", model("m1"), "--query",
                         "lung_cancer,lung_cancer", "--decisions", "smoke=yes")
    assert code == 3
    assert doc == {"error": "query names lung_cancer more than once"}
    code, doc = run_json(capsys, "counterfactual", model("m1"),
                         "--factual-decisions", "smoke=yes",
                         "--counterfactual-decisions", "smoke=no",
                         "--query", "lung_cancer,lung_cancer")
    assert code == 3
    assert doc == {"error": "query names lung_cancer more than once"}


def test_counterfactual(capsys):
    code, doc = run_json(capsys, "counterfactual", model("m1"),
                         "--factual-decisions", "smoke=yes",
                         "--evidence", "lung_cancer=yes",
                         "--counterfactual-decisions", "smoke=no",
                         "--query", "lung_cancer")
    assert code == 0
    assert doc["scope"] == ["lung_cancer'"]
    assert doc["probabilities"]["yes"] == pytest.approx(0.05)


@pytest.mark.parametrize("argv,error", [
    (["--factual-decisions", "smoke=yes,smok=no"], "unknown variable 'smok'"),
    (["--factual-decisions", "smoke=yes,lung_cancer=yes"],
     "lung_cancer is not a decision"),
    (["--factual-decisions", ""], "missing decision binding for smoke"),
    (["--counterfactual-decisions", "smoke=no,smok=no"],
     "unknown variable 'smok'"),
    (["--counterfactual-decisions", "smoke=no,lung_cancer=yes"],
     "lung_cancer is not a decision"),
    (["--counterfactual-decisions", "smoke=maybe"],
     "'maybe' is not an alternative of smoke"),
    (["--counterfactual-decisions", ""], "missing decision binding for smoke"),
    (["--query", "smoke"], "smoke is not an uncertain variable"),
    (["--query", "lung_canser"], "unknown variable 'lung_canser'"),
    (["--evidence", "lung_cancer'=yes"],
     "unknown variable \"lung_cancer'\""),
    (["--evidence", "lung_cancer=maybe"],
     "'maybe' is not a state of lung_cancer"),
])
def test_counterfactual_refuses_what_the_model_lacks(capsys, argv, error):
    """Every decision key, evidence and query name is one of the model's,
    each fault named as the caller wrote it."""
    args = {"--factual-decisions": "smoke=yes",
            "--counterfactual-decisions": "smoke=no",
            "--query": "lung_cancer", **dict([argv])}
    assert run_json(capsys, "counterfactual", model("m1"),
                    *itertools.chain(*args.items())) == (3, {"error": error})


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


@pytest.mark.parametrize("max_cond", ["-1", "two"])
def test_is_d_map_bad_max_cond_is_usage_error(capsys, max_cond):
    assert run(capsys, "is-d-map", model("m1"), "--max-cond", max_cond)[0] == 1


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
    ("is-d-map", "m1", "--max-cond", "1"),
])
def test_output_is_deterministic(capsys, argv):
    cmd = [argv[0], model(argv[1]), *argv[2:]]
    first = run(capsys, *cmd)
    second = run(capsys, *cmd)
    assert first == second and first[0] == 0
