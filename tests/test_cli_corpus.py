"""The CLI contract: every call of ``cli_corpus.json`` gives the exit code
and stdout it gave when the corpus was made.  ``tools/cli_corpus.py``
makes the corpus and says which calls it holds."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "cli_corpus.py"
_spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)


def test_every_corpus_call_gives_its_recorded_exit_and_stdout(tmp_path):
    corpus = json.loads(cli_corpus.CORPUS.read_text())
    changed = []
    for call, code, stored in cli_corpus.replay(corpus, tmp_path):
        want = {k: v for k, v in call.items() if k not in ("argv", "env")}
        if {"exit": code, **stored} != want:
            changed.append((call["argv"], want, {"exit": code, **stored}))
    assert not changed, changed[:3]
    assert {c["exit"] for c in corpus["calls"]} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["--bogus"], 2)])
def test_the_tool_writes_nothing_on_help_or_an_unknown_argument(
        monkeypatch, tmp_path, capsys, argv, code):
    """``--help`` prints usage and an unknown argument is a usage error;
    neither replays a call or writes the corpus."""
    monkeypatch.setattr(cli_corpus, "CORPUS", tmp_path / "cli_corpus.json")
    with pytest.raises(SystemExit) as stop:
        cli_corpus.main(argv)
    assert stop.value.code == code
    assert not cli_corpus.CORPUS.exists()
    out, err = capsys.readouterr()
    assert "usage:" in (err if code else out)
