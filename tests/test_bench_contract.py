"""The pipeline benchmark's tracer (pipebench/bench_trace.py) wraps every
traced function at each module that looks it up, and refuses to run when a
call site is renamed, missing or bound under an unlisted alias.  Installing
and removing it here makes such a refactor fail in the test suite too."""

from pathlib import Path

import pytest

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


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
