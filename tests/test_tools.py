"""Every bench script under tools/ starts from the command line and loads as
a module, so both ways of reaching the shared runner, treebench, work."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tool_module

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.stem for p in (ROOT / "tools").glob("*.py") if p.stem != "treebench")


@pytest.mark.parametrize("name", SCRIPTS)
def test_tool_runs_help_and_loads_as_a_module(name):
    run = subprocess.run(
        [sys.executable, f"tools/{name}.py", "--help"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0 and run.stdout.startswith("usage:"), run.stderr
    assert tool_module(name).__doc__


@pytest.mark.parametrize("parent,warns", [("../parent/src", False), ("../old/src", True)])
def test_treebench_warns_when_tree_paths_differ_in_length(monkeypatch, capsys, parent, warns):
    treebench = tool_module("treebench")
    seen = []
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["bench", "--tree", f"parent={parent}", "--tree", "change=../change/src"]
    monkeypatch.setattr(sys, "argv", argv)
    treebench.main("A bench.", seen.append)
    assert seen == [{"parent": parent, "change": "../change/src"}]
    assert ("warning" in capsys.readouterr().err) == warns
