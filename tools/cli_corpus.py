"""The CLI contract: the exit code and stdout of every corpus call.

    python3 tools/cli_corpus.py        # rewrite tests/cli_corpus.json
    python3 tools/cli_corpus.py --help # print usage, write nothing

The corpus holds, in the order they run:

- ``to-hcf --assume-causal -o`` on each fixture of ``tests/fixtures``,
  which writes its HCF document to a scratch directory;
- the ``cli_times.calls`` argvs over each fixture and its HCF, plain and
  with ``--pretty``;
- ``causes --method oracle`` on each of those models with
  ``CID_CAP_WORLDS=1``;
- each of those subcommands on a fixture with one structural edit, as
  ``test_cli_fuzz._edited`` makes it; the edited documents are stored
  in the corpus;
- one call per error exit: a document that is not JSON, a cause query
  on an unknown variable, a query that names a variable twice;
- usage errors: a world cap that is not a positive integer, a missing
  model file and a missing required argument.

Every call runs in process through ``cli.run_command``, with
``CID_CAP_WORLDS`` set as the call says, else empty.  The fixture and
scratch directories read as ``{fixtures}`` and ``{work}`` in the argv
and the stdout.  Stdout up to ``INLINE`` characters is kept as text, a
longer one as its length and sha256.  ``tests/test_cli_corpus.py``
replays the corpus; a change that alters the CLI's output regenerates
it and lists each changed call as a CLI contract change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CORPUS = ROOT / "tests" / "cli_corpus.json"
INLINE = 2000


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``decid`` call."""
    from decid import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(argv)
    return code, out.getvalue()


def _places(work: Path) -> dict:
    return {"{fixtures}": str(FIXTURES), "{work}": str(work)}


def _normal(text: str, work: Path) -> str:
    for mark, path in _places(work).items():
        text = text.replace(path, mark)
    return text


def _real(text: str, work: Path) -> str:
    for mark, path in _places(work).items():
        text = text.replace(mark, path)
    return text


def output(stdout: str) -> dict:
    """The stored form of a normalised stdout."""
    if len(stdout) <= INLINE:
        return {"stdout": stdout}
    return {"stdout_chars": len(stdout),
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def replay(corpus: dict, work: Path) -> list[tuple]:
    """Run every call of ``corpus`` with its documents written to
    ``work``: each call with its exit code and stored output."""
    for name, text in corpus["documents"].items():
        (work / name).write_text(text)
    done = []
    with mock.patch.dict(os.environ):
        for call in corpus["calls"]:
            os.environ.update({"CID_CAP_WORLDS": "", **call.get("env", {})})
            code, stdout = run([_real(a, work) for a in call["argv"]])
            done.append((call, code, output(_normal(stdout, work))))
    return done


def _calls(work: Path) -> tuple[dict, list]:
    """The corpus documents and calls, with outputs still to fill."""
    from cli_times import calls
    from test_cli_fuzz import EDITS, _edited

    fixtures = sorted(FIXTURES.glob("*.json"))
    hcfs = [work / f"{path.stem}_hcf.json" for path in fixtures]
    made = [["to-hcf", str(path), "--assume-causal", "-o", str(hcf)]
            for path, hcf in zip(fixtures, hcfs)]
    for argv in made:
        run(argv)
    models = []
    for path, hcf in zip(fixtures, hcfs):
        models += [(path, None), (hcf, path)]
    todo = made + [argv + pretty for path, original in models
                   for argv in calls(path, original).values()
                   for pretty in ([], ["--pretty"])]
    capped = [calls(path, original)["causes oracle"]
              for path, original in models]

    documents, edited = {}, []
    rng = random.Random(17)
    for i, sub in enumerate(calls(fixtures[0], None)):
        path, edit = fixtures[i % len(fixtures)], EDITS[i % len(EDITS)]
        name = f"{path.stem}_{edit}.json"
        documents[name] = _edited(path.read_text(), edit, rng)
        (work / name).write_text(documents[name])
        edited.append(calls(work / name, None)[sub])

    documents["not_json.json"] = "not json\n"
    m1 = str(FIXTURES / "m1.json")
    errors = [(["validate", str(work / "not_json.json")], {}),
              (["causes", m1, "--of", "nosuch"], {}),
              (["infer", m1, "--decisions", "smoke=yes", "--query",
                "lung_cancer,lung_cancer"], {}),
              (["causes", m1, "--of", "x", "--method", "oracle"],
               {"CID_CAP_WORLDS": "0"}),
              (["validate", str(work / "nosuch.json")], {}),
              (["causes", m1], {})]
    plan = ([(argv, {}) for argv in todo]
            + [(argv, {"CID_CAP_WORLDS": "1"}) for argv in capped]
            + [(argv, {}) for argv in edited] + errors)
    out = []
    for argv, env in plan:
        call = {"argv": [_normal(a, work) for a in argv]}
        if env:
            call["env"] = env
        out.append(call)
    return documents, out


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path[:0] = [str(ROOT / d) for d in ("src", "tools", "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        documents, calls = _calls(work)
        corpus = {"documents": documents, "calls": calls}
        recorded = []
        for call, code, stored in replay(corpus, work):
            recorded.append({**call, "exit": code, **stored})
    corpus["calls"] = recorded
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    codes = {}
    for call in recorded:
        codes[call["exit"]] = codes.get(call["exit"], 0) + 1
    print(f"{len(recorded)} calls, exit codes {dict(sorted(codes.items()))}, "
          f"written to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
