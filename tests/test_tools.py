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
