"""The pipeline benchmark's tracer (pipebench/bench_trace.py) wraps every
traced function at each module that looks it up, and refuses to run when a
call site is renamed, missing or bound under an unlisted alias.  Installing
and removing it here makes such a refactor fail in the test suite too.  A
traced run of each workload also fails when a function the workload is
designed to exercise is never called, so a change that routes work around a
traced kernel fails here as well."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PIPEBENCH = ROOT / "pipebench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    import bench_trace

    return bench_trace


def test_tracer_installs_and_restores_every_traced_function(bench_trace):
    originals = {
        name: getattr(home, attr) for name, (home, attr, _, _) in bench_trace.TRACED.items()
    }
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for name, (_, attr, sites, _) in bench_trace.TRACED.items():
            for site in sites:
                assert getattr(site, attr) is not originals[name], f"{name} at {site.__name__}"
    finally:
        tracer.uninstall()
    for name, (_, attr, sites, _) in bench_trace.TRACED.items():
        for site in sites:
            assert getattr(site, attr) is originals[name], f"{name} at {site.__name__}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_exits_cleanly(workload):
    command = [sys.executable, str(PIPEBENCH / "run.py"), "--workload", workload]
    run = subprocess.run(
        command + ["--seed", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
