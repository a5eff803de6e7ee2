"""Every subcommand, fuzzed with drawn arguments over the fixtures, their
HCFs and generated diagrams.

Each call returns an exit code in 0-4 and lets no exception escape
``run_command``; a ``ValueError`` it reports as exit 3 is raised by a
``raise`` statement in decid's own code, so no library text leaks; and
a name or state on the command line that the model lacks never ends in
exit 0.  A few calls run as subprocesses, whose stderr must hold no
traceback.  Every model is also fuzzed with edits that still parse: a
relevance arc added, dropped or reversed, an information arc into a
chance node, a state dropped, a row removed, a junk row key, an entry
outside [0, 1], or a table removed; every subcommand then exits 2 and
prints what ``validate_diagram`` finds.
"""

import contextlib
import functools
import io
import json
import linecache
import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import decid
from decid import (ParseError, cli, parse_document, serialize_model, to_hcf,
                   validate_diagram)
from decid.model import _diagram_of

from genmodels import (chain, ladder, random_dag_with_information,
                       random_diagram, random_functional_diagram,
                       random_policy_diagram, random_table_diagram)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = str(pathlib.Path(decid.__file__).parent) + os.sep
JUNK_NAMES = ["nosuch", "smok"]
JUNK_STATES = ["maybe", "set=nosuch"]
COMMANDS = ["validate", "fixed-set", "causes", "d-sep", "minimal", "to-hcf",
            "check-hcf", "infer", "counterfactual", "evaluate", "voi",
            "certify-causal", "is-d-map"]


def _documents():
    """(name, text) of every fuzzed model; the chain's joint is past
    the factor cap."""
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        yield path.stem, text
        yield f"{path.stem}_hcf", serialize_model(to_hcf(parse_document(text)))
    for name, d in [("random", random_diagram(1, with_utility=True)),
                    ("table", random_table_diagram(2)),
                    ("functional", random_functional_diagram(3)),
                    ("policy", random_policy_diagram(4)),
                    ("ladder", ladder(3)),
                    ("information", random_dag_with_information(5)),
                    ("chain", chain(40))]:
        yield name, serialize_model(d)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """The path of every fuzzed model, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _documents():
        (root / f"{name}.json").write_text(text)
    return sorted(str(path) for path in root.iterdir())


@functools.cache
def _diagram(path):
    return _diagram_of(parse_document(pathlib.Path(path).read_text()))


def _argv(choose, models, command=None):
    """A drawn command line over one of the ``models`` paths, and the
    names and states it gives that its model lacks.  ``choose`` picks
    one element of a sequence; the subcommand is drawn unless given."""
    path = choose(models)
    d = _diagram(path)
    lacking = []

    def name():
        x = choose(d.names() * 3 + JUNK_NAMES)
        if not d.has(x):
            lacking.append(x)
        return x

    def names(lo, hi):
        return ",".join(name() for _ in range(choose(range(lo, hi + 1))))

    def pairs(pool, hi):
        """name=state pairs, the names mostly from ``pool``."""
        out = {}
        for _ in range(choose(range(hi + 1))):
            x = choose(pool * 2 + d.names() + JUNK_NAMES)
            out[x] = choose(list(d.node(x).states) * 2 + JUNK_STATES
                            if d.has(x) else JUNK_STATES)
        lacking.extend(x if not d.has(x) else s for x, s in out.items()
                       if not d.has(x) or s in JUNK_STATES)
        return ",".join(f"{x}={s}" for x, s in out.items())

    def decided(hi=1):
        """Every decision bound, then maybe a few more pairs."""
        given = [f"{x}={choose(d.node(x).states)}" for x in d.decisions()
                 if choose([True, True, True, False])]
        extra = pairs(d.uncertain(), hi)
        return ",".join(filter(None, given + [extra]))

    def maybe():
        return choose([False, True])

    command = command or choose(COMMANDS)
    argv = [command, path]
    if command == "fixed-set":
        argv += ["--given", names(0, 2)]
    elif command == "causes":
        argv += ["--of", name(), "--method", choose(["graphical", "oracle"])]
    elif command == "d-sep":
        argv += ["--x", names(1, 2), "--y", names(1, 2),
                 "--given", names(0, 2)]
    elif command == "minimal":
        argv += ["--target", name()]
        if maybe():
            argv += ["--decisions", names(0, 2)]
        if maybe():
            argv += ["--exclude", names(0, 2)]
    elif command == "check-hcf":
        argv += ["--original", choose(models)]
    elif command == "infer":
        argv += ["--decisions", decided()]
        if maybe():
            argv += ["--evidence", pairs(d.uncertain(), 2)]
        if maybe():
            argv += ["--query", names(1, 2)]
    elif command == "counterfactual":
        argv += ["--factual-decisions", decided(),
                 "--counterfactual-decisions", decided(),
                 "--query", names(1, 2)]
        if maybe():
            argv += ["--evidence", pairs(d.uncertain(), 1)]
    elif command == "voi":
        argv += ["--node", name(), "--decision", name()]
    elif command == "is-d-map":
        argv += ["--max-cond", str(choose(range(3)))]
    flags = {"to-hcf": "--assume-causal", "counterfactual": "--assume-causal",
             "voi": "--no-forgetting"}
    if command in flags and maybe():
        argv.append(flags[command])
    if maybe():
        argv.append("--pretty")
    return argv, lacking


def _raised_here(dispatch):
    """``dispatch``, where a ``ValueError`` must come from a ``raise``
    statement in decid's own code; any other origin is an assertion
    error, which ``run_command`` does not catch."""
    def checked(args):
        try:
            return dispatch(args)
        except ValueError as e:
            tb = e.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            where = tb.tb_frame.f_code.co_filename
            line = linecache.getline(where, tb.tb_lineno).strip()
            assert where.startswith(SRC) and line.startswith("raise"), (
                f"{e!r} from {where}:{tb.tb_lineno}: {line}")
            raise
    return checked


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_subcommand_answers_with_a_documented_exit(models, data):
    argv, lacking = _argv(lambda xs: data.draw(st.sampled_from(xs)), models)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_dispatch", _raised_here(cli._dispatch)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    assert code in range(5), (argv, code)
    assert not (lacking and code == 0), (argv, lacking, out.getvalue())


def test_no_traceback_in_a_subprocess_sample(models):
    rng = random.Random(15)
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(decid.__file__).parents[1]))
    for _ in range(4):
        argv, _ = _argv(rng.choice, models)
        proc = subprocess.run([sys.executable, "-m", "decid.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode in range(5), argv
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


EDITS = ["add", "drop", "reverse", "inform", "state", "row", "junk", "range",
         "table"]


def _edited(text, edit, rng):
    """``text`` with one edit drawn by ``rng``: a relevance arc added,
    dropped or reversed, an information arc into a chance node, a
    state of a chance variable dropped, a table row removed, a row keyed
    by a junk state, an entry outside [0, 1], or a table removed.  Each
    leaves a document that parses, unless it hits an HCF document's
    mechanism, and that ``validate_diagram`` refuses."""
    doc = json.loads(text)
    rel, info = doc["relevance_arcs"], doc["information_arcs"]
    kind = {v["name"]: v["kind"] for v in doc["variables"]}
    tables = {**doc["cpts"], **doc["deterministic"]}
    rows = tables[rng.choice(sorted(tables))]["rows"]
    key = rng.choice(sorted(rows))
    if edit == "add":
        rel.append(rng.choice([[a, b] for a in kind for b in kind
                               if a != b and [a, b] not in rel]))
    elif edit == "inform":
        info.append(rng.choice([[a, b] for a in kind for b, k in kind.items()
                                if a != b and k in ("chance", "deterministic")]))
    elif edit in ("drop", "reverse"):
        arc = rel.pop(rng.randrange(len(rel)))
        if edit == "reverse":
            rel.append(arc[::-1])
    elif edit == "state":
        states = rng.choice([v for v in doc["variables"]
                             if v["name"] in tables])["states"]
        states.pop(rng.randrange(len(states)))
    elif edit == "row":
        del rows[key]
    elif edit == "junk":
        parts = key.split("|")
        parts[rng.randrange(len(parts))] = "nosuch"
        rows["|".join(parts)] = rows[key]
    elif edit == "range":
        rows[key][rng.randrange(len(rows[key]))] = rng.choice([1.5, -0.5])
    else:
        name = rng.choice(sorted(tables))
        del doc["cpts" if name in doc["cpts"] else "deterministic"][name]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def edited_models(tmp_path_factory):
    """A directory per edit, holding every fuzzed model under that edit
    by the model's own file name."""
    root = tmp_path_factory.mktemp("edited")
    rng = random.Random(17)
    for edit in EDITS:
        (root / edit).mkdir()
    for name, text in _documents():
        for edit in EDITS:
            (root / edit / f"{name}.json").write_text(_edited(text, edit, rng))
    return root


@pytest.mark.parametrize("edit", EDITS)
def test_structural_edits_exit_2_on_every_subcommand(models, edited_models,
                                                     edit):
    """Every subcommand, on an edited model, exits 2 and prints the
    first violation; ``check-hcf`` reads a valid HCF and an edited
    original.  The parser may refuse an edit of an HCF document's
    mechanism instead."""
    rng = random.Random(EDITS.index(edit))
    hcfs = [path for path in models if path.endswith("_hcf.json")]
    for command in COMMANDS:
        argv, _ = _argv(rng.choice, models, command)
        edited = str(edited_models / edit / pathlib.Path(argv[1]).name)
        if command == "check-hcf":
            argv[1:4] = [rng.choice(hcfs), "--original", edited]
        else:
            argv[1] = edited
        try:
            violations = validate_diagram(_diagram(edited))
        except ParseError as e:
            assert edited.endswith("_hcf.json"), (argv, e)
            violations = [str(e)]
        assert violations, argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(argv)
        assert code == 2, (argv, code, out.getvalue())
        assert violations[0] in out.getvalue(), (argv, out.getvalue())
        assert "Traceback" not in err.getvalue(), argv
