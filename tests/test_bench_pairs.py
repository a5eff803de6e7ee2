import importlib.util
import pathlib
import subprocess
import sys

from decid.cli import build_parser

TOOLS = pathlib.Path(__file__).parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
cli_times = _tool("cli_times")      # imports bench_pairs by name
tier1_times = _tool("tier1_times")


PARENT = [800, 810, 820, 830, 840, 850, 860, 870, 880, 890]


def _pairs(parent_ops, change_ops, change_failed=0):
    def metrics(ops, failed):
        return {"ops_per_s": ops, "op_p50_ms": 1000 / ops,
                "op_p90_ms": 2000 / ops, "setup_s": 0.15,
                "peak_rss_mb": 35.0, "attempted": ops * 30, "failed": failed}
    return [{"seed": 301 + i, "parent": metrics(p, 0),
             "change": metrics(c, change_failed)}
            for i, (p, c) in enumerate(zip(parent_ops, change_ops))]


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    nine = bench_pairs.summarize(_pairs(PARENT, [1700] * 9 + [890]))
    ops = nine["metrics"]["ops_per_s"]
    assert ops["change_wins"] == 9
    assert ops["change_losses"] == 0                  # one tie
    assert ops["claim_holds"]
    assert nine["metrics"]["op_p50_ms"]["claim_holds"]  # lower is better
    assert nine["metrics"]["setup_s"]["change_wins"] == 0
    assert not nine["metrics"]["setup_s"]["claim_holds"]

    eight = bench_pairs.summarize(_pairs(PARENT, [1700] * 8 + [700] * 2))
    assert not eight["metrics"]["ops_per_s"]["claim_holds"]

    # Ten wins, but the medians differ by less than the parent's spread.
    close = bench_pairs.summarize(_pairs(PARENT, [p + 1 for p in PARENT]))
    assert close["metrics"]["ops_per_s"]["change_wins"] == 10
    assert not close["metrics"]["ops_per_s"]["claim_holds"]


def test_no_claim_when_the_change_fails_more_operations():
    failing = bench_pairs.summarize(_pairs(PARENT, [1700] * 10, 1))
    assert failing["failed"] == {"parent": 0, "change": 10}
    assert failing["metrics"]["ops_per_s"]["change_wins"] == 10
    assert not failing["metrics"]["ops_per_s"]["claim_holds"]


def test_held_out_verdict_needs_every_pair():
    won = bench_pairs.wins_every_pair(_pairs([850] * 3, [1700] * 3))
    assert won["ops_per_s"] and not won["setup_s"]     # a tie is no win
    lost = bench_pairs.wins_every_pair(_pairs([850] * 3, [1700, 1700, 840]))
    assert not lost["ops_per_s"]


def test_summarize_takes_any_metric_and_direction():
    pairs = [{"parent": {"wall_s": 0.30, "failed": 0},
              "change": {"wall_s": 0.15, "failed": 0}}] * 10
    s = bench_pairs.summarize(pairs, {"wall_s": "lower"})
    assert list(s["metrics"]) == ["wall_s"]
    assert s["metrics"]["wall_s"]["change_wins"] == 10
    assert s["metrics"]["wall_s"]["claim_holds"]


def test_cli_times_runs_every_subcommand():
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    calls = cli_times.calls(fixtures / "fig1.json", None)
    commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted({argv[0] for argv in calls.values()}) == sorted(commands)
    assert calls["causes graphical"][1:] == [str(fixtures / "fig1.json"),
                                             "--of", "life"]


def test_cli_times_claims_on_per_model_ratios():
    """Every pair won by 10%, on two models ten times apart: the pooled
    times spread across the models and cannot claim, the ratios to each
    model's parent median can."""
    pairs = [{"model": m, "parent": {"wall_s": base * (1 + e), "failed": 0},
              "change": {"wall_s": base * 0.9 * (1 + e), "failed": 0}}
             for m, base in (("a.json", 0.1), ("b.json", 1.0))
             for e in (0.0, 0.01, 0.02, 0.03, 0.04)]
    metrics = bench_pairs.summarize(cli_times.per_model_ratios(pairs), {
        "wall_s": "lower", "wall_ratio": "lower"})["metrics"]
    assert metrics["wall_s"]["change_wins"] == 10
    assert not metrics["wall_s"]["claim_holds"]
    assert metrics["wall_ratio"]["change_wins"] == 10
    assert metrics["wall_ratio"]["claim_holds"]
    assert abs(metrics["wall_ratio"]["parent"]["median"] - 1.0) < 1e-12


def test_tier1_times_reads_the_closing_summary_line():
    assert tier1_times.counts("....\n793 passed in 31.20s\n") == {
        "passed": 793}
    assert tier1_times.counts(
        "F.\n= short test summary info =\nFAILED t.py::x - 3 passed in\n"
        "2 failed, 789 passed, 1 error, 3 warnings in 33.50s\n") == {
        "failed": 2, "passed": 789, "error": 1, "warning": 3}
    assert tier1_times.counts("no tests ran in 0.01s\n") == {}


def test_tier1_times_runs_the_suite_of_a_tree(tmp_path):
    """One run of a two-test suite: one test fails, and the record holds
    both counts, the failure and pytest's exit code."""
    (tmp_path / "src").mkdir()
    (tmp_path / "test_two.py").write_text(
        "def test_passes():\n    pass\n\n\n"
        "def test_fails():\n    assert False\n")
    out = tier1_times.run(tmp_path)
    assert (out["counts"], out["failed"], out["exit"]) == (
        {"passed": 1, "failed": 1}, 1, 1)
    assert out["wall_s"] > 0


def test_seed_lists():
    assert bench_pairs.seed_list("301-304") == [301, 302, 303, 304]
    assert bench_pairs.seed_list("9001,9001") == [9001, 9001]


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=bench",
         "-c", "user.email=bench@example.com", *args],
        check=True, capture_output=True, text=True).stdout.strip()


def test_both_sides_may_export_one_revision(tmp_path, monkeypatch):
    """An A/A run: each side names HEAD and gets its own export."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("one\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "one")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    work = tmp_path / "work"
    work.mkdir()
    trees = [bench_pairs.checkout("HEAD", work) for _ in range(2)]
    assert trees[0] != trees[1]
    assert [(t / "a.txt").read_text() for t in trees] == ["one\n"] * 2


def test_sides_are_recorded_as_commits(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    hashes = []
    for text in ("one\n", "two\n"):
        (repo / "a.txt").write_text(text)
        _git(repo, "add", "a.txt")
        _git(repo, "commit", "-q", "-m", text.strip())
        hashes.append(_git(repo, "rev-parse", "--short", "HEAD"))
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    assert bench_pairs.describe("HEAD") == hashes[1]
    assert bench_pairs.describe("HEAD^") == hashes[0]
    assert bench_pairs.describe(str(repo)) == hashes[1]
    (repo / "a.txt").write_text("three\n")
    assert bench_pairs.describe(str(repo)) == hashes[1] + "+dirty"
    _git(repo, "checkout", "-q", "a.txt")
    (repo / "b.txt").write_text("untracked\n")
    assert bench_pairs.describe(str(repo)) == hashes[1] + "+dirty"
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.describe(str(plain)) == str(plain.resolve())
