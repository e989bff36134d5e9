"""The README's examples run as written: the library example and every
compext line of "CLI usage"."""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from compext.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block of language under the README section heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _commands() -> list:
    """The compext command lines of "CLI usage", continuations joined, as argv lists."""
    text = _block("CLI usage", "sh").replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    return [shlex.split(line) for line in lines]


# the README says this one exits 1: its witness rows pass and its scan rows
# keep the confinement check, which a finite section fails
FAILS = ["compext", "verify", "--phi", "1,0.5,0.5,1", "--space", "bergman", "--n", "32"]


def test_library_example_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library example", "python"), {})
    residual, flagged = out.getvalue().split()
    assert float(residual) < 1e-15
    assert flagged == "7"


def test_cli_usage_lists_every_command():
    assert [argv[:2] for argv in _commands()] == [
        ["compext", "classify"], ["compext", "matrix"], ["compext", "matrix"], ["compext", "eigs"],
        ["compext", "extcheck"], ["compext", "extscan"], ["compext", "verify"], ["compext", "verify"],
    ]


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: " ".join(argv[1:]))
def test_cli_usage_line_runs(argv, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # extscan --out writes scan.json and scan.grid.csv here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv[1:])
    assert rc == (1 if argv == FAILS else 0)
    if "--out" in argv:  # "write a JSON report + CSV grid"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scan.grid.csv", "scan.json"]
