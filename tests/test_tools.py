"""Every bench script under tools/ starts from the command line and loads as
a module, so both ways of reaching the shared runner, treebench, work; and
treebench runs every tree in one process, each as a package of its own, the
trees taking turns."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sparseobs
from conftest import tool_module, unit_spectral_matrix

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


def _recover_tanh_pair(package):
    """recover_initial_state of package on a 2-sparse tanh problem that
    package builds, the same on every tree."""
    icfg = package.IntegrationConfig.fixed(32)
    system = package.DynamicalSystem.tanh_saturated(unit_spectral_matrix(6, 7).tolist())
    A = package.gen_gaussian_matrix(40, 6, 1003)
    x0 = np.zeros(6)
    x0[[1, 4]] = [0.9, -1.2]
    b = A @ package.integrate(system, x0, 0.5, icfg).final_state
    measurement = package.MeasurementModel(matrix=A, time=0.5, noise_radius=0.0, weights=np.ones(6))
    problem = package.SparseProblem(
        system=system, measurement=measurement, observation=b, sparsity=2
    )
    return package.recover_initial_state(problem, icfg)


@pytest.fixture
def tree_modules():
    """Drop the modules that treebench registers for the trees one and two
    when the test ends."""
    yield
    for name in [n for n in sys.modules if n.split(".")[0] in ("sparseobs_one", "sparseobs_two")]:
        del sys.modules[name]


def test_treebench_imports_each_tree_as_a_package_of_its_own(monkeypatch, tree_modules):
    treebench = tool_module("treebench")
    monkeypatch.setattr(sys, "path", list(sys.path))
    seen = []
    argv = ["bench", "--tree", "one=src", "--tree", f"two={ROOT / 'src'}"]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.chdir(ROOT)
    treebench.main("A bench.", seen.append)
    [trees] = seen
    one, two = trees.values()
    assert list(trees) == ["one", "two"]
    assert (one.__name__, two.__name__) == ("sparseobs_one", "sparseobs_two")
    for name in ("kernels", "ode", "rip", "recover", "model", "harness"):
        modules = [getattr(package, name) for package in (one, two, sparseobs)]
        assert len({id(module) for module in modules}) == 3, name
        assert sys.modules[f"sparseobs_one.{name}"] is modules[0]

    calls = []

    def counted(kernel):
        def call(*args):
            calls.append(1)
            return kernel(*args)

        return call

    with treebench.swapped(one.kernels, "rk4_flow_jacobian", counted):
        plain = _recover_tanh_pair(two)
        assert calls == []
        swapped = _recover_tanh_pair(one)
        assert calls
    home = _recover_tanh_pair(sparseobs)
    assert home.iterations > 1
    assert swapped.estimate.tobytes() == plain.estimate.tobytes() == home.estimate.tobytes()


def test_treebench_rounds_flip_the_first_tree_each_round():
    treebench = tool_module("treebench")
    order = []

    def measure(package, item):
        order.append((package, item))
        return package + item

    runs = treebench.rounds({"p": "P", "c": "C"}, 3, ["x", "y"], measure)
    assert order == [
        ("P", "x"), ("C", "x"), ("P", "y"), ("C", "y"),
        ("C", "x"), ("P", "x"), ("C", "y"), ("P", "y"),
        ("P", "x"), ("C", "x"), ("P", "y"), ("C", "y"),
    ]  # fmt: skip
    assert runs == {"p": [["Px", "Py"]] * 3, "c": [["Cx", "Cy"]] * 3}


def test_bench_bpdn_counts_pivots():
    bench = tool_module("bench_bpdn")
    Phi, y, w, eps = bench.scan_instance("random", 0)
    shape = (Phi, np.zeros(y.size), y, np.empty(0), w, eps)
    row = bench.measure(sparseobs, shape)
    assert row["pivots"] > 0 and row["lasso_calls"] == 1
    # eps = 0 takes no path
    exact = (Phi, np.zeros(y.size), Phi @ np.ones(w.size), np.empty(0), w, 0.0)
    assert bench.measure(sparseobs, exact)["pivots"] == 0


def test_bench_bpdn_lists_the_scan_instances_a_tree_loses():
    bench = tool_module("bench_bpdn")
    count = sum(c for c, _ in bench.SCANS.values())
    x = np.ones(1)

    def solves(misses, uncertified, pivots):
        # solve()'s tuples: in band, certified, lasso calls and iterations,
        # pivots, estimate, wall time
        return [(k not in misses, k not in uncertified, 1, 1, pivots, x, 0.0) for k in range(count)]

    # instance 1 falls out of the band and instance 2 loses its certificate
    summary = bench.scan_summary(
        {"parent": solves({5}, {5, 7}, 2), "change": solves({1, 5}, {1, 2, 5}, 3)}
    )
    scan = summary["random"]
    assert scan["parent"]["lost"] == [] and scan["parent"]["pivots"] == 2 * scan["instances"]
    assert scan["change"]["lost"] == [1, 2] and scan["change"]["pivots"] == 3 * scan["instances"]
    assert scan["certified_by_parent_only"] == [1, 2] and scan["in_band_by_parent_only"] == [1]
    assert scan["certified_by_change_only"] == [7]
    assert summary["near_square"]["change"]["lost"] == []


def test_bench_oracle_exits_when_a_tree_moves_an_estimate_or_its_support(monkeypatch):
    bench = tool_module("bench_oracle")
    x = [1.0, 0.0, -0.5]
    # the middle entry sits just under the support cut, then just over it
    under, over = [1.0, 0.999e-8, -0.5], [1.0, 1.001e-8, -0.5]
    written = []

    def rows(*estimates, examined=(4, 4, 4), converged=True):
        kinds = ("zero", "linear", "tanh_saturated")
        table = [
            [3, k, 1, 1000, 0.5, 1, 1, 3, 0, 0.0, e, count, converged, 1.0]
            for k, e, count in zip(kinds, estimates, examined)
        ]
        return [table] * bench.ROUNDS

    def run(*change, **flags):
        runs = {"parent": rows(x, x, under), "change": rows(*change, **flags)}
        monkeypatch.setattr(bench.treebench, "rounds", lambda *args: runs)
        bench.run({"parent": None, "change": None})

    monkeypatch.setattr(bench, "build_instances", lambda: [])
    monkeypatch.setattr(bench.treebench, "write", lambda name, doc: written.append(doc))
    # a move at rounding level passes
    run(x, np.add(x, 1e-12).tolist(), under)
    totals = written[-1]["results"]["change"]["totals"]
    assert totals["max_abs_estimate_change"] == pytest.approx(1e-12)
    assert written[-1]["results"]["change"]["by_kind"]["linear"]["instances"] == 1
    # a move above ESTIMATE_TOL, a support change within it, another count
    # of supports examined and another converged flag all fail
    cases = [
        ((x, [1.0, 0.0, -0.5 + 1e-6], under), {}, "[1]"),
        ((x, x, over), {}, "[2]"),
        ((x, x, under), {"examined": (4, 3, 4)}, "[1]"),
        ((x, x, under), {"converged": False}, "[0, 1, 2]"),
    ]
    for i, (change, flags, moved) in enumerate(cases):
        with pytest.raises(SystemExit) as exit:
            run(*change, **flags)
        # a string exit code gives the process status 1
        assert isinstance(exit.value.code, str) and f"change: {moved}" in exit.value.code
        # the file is written before the exit
        assert len(written) == 2 + i


def test_bench_oracle_totals_each_kind_and_sparsity(monkeypatch, capsys):
    bench = tool_module("bench_oracle")
    written = []
    # (kind, s, flow Jacobian calls, wall ms, estimate change); supports
    # examined and converged follow the estimate
    spec = [
        ("zero", 1, 1, 0.5, 0.0),
        ("zero", 2, 1, 0.75, 2e-15),
        ("zero", 2, 1, 0.25, 1e-15),
        ("tanh_saturated", 1, 4, 8.0, 3e-16),
        ("tanh_saturated", 2, 9, 20.0, 0.0),
    ]
    table = [
        [6, k, s, 1000 + i, 0.5, calls, calls, 0, 0, 0.0, [d, 0.0], 1 + 6 * s, True, ms]
        for i, (k, s, calls, ms, d) in enumerate(spec)
    ]
    base = [row[:10] + [[0.0, 0.0]] + row[11:] for row in table]
    runs = {"parent": [base] * bench.ROUNDS, "change": [table] * bench.ROUNDS}
    monkeypatch.setattr(bench, "build_instances", lambda: [])
    monkeypatch.setattr(bench.treebench, "rounds", lambda *args: runs)
    monkeypatch.setattr(bench.treebench, "write", lambda name, doc: written.append(doc))
    bench.run({"parent": None, "change": None})
    doc = written[-1]
    pairs = doc["results"]["change"]["by_kind_and_s"]
    assert list(pairs) == ["zero s=1", "zero s=2", "tanh_saturated s=1", "tanh_saturated s=2"]
    assert pairs["zero s=2"]["instances"] == 2
    assert pairs["zero s=2"]["wall_ms"] == pytest.approx(1.0)
    assert pairs["zero s=2"]["flow_jacobian_calls"] == 2
    assert pairs["zero s=2"]["max_abs_estimate_change"] == pytest.approx(2e-15)
    assert pairs["tanh_saturated s=1"]["flow_jacobian_calls"] == 4
    # each instance keeps its supports examined and converged flag, and no
    # time: only the totals read the clock
    instances = doc["results"]["change"]["instances"]
    assert all(len(row) == len(bench.COLUMNS) for row in instances)
    assert "wall_ms" not in bench.COLUMNS
    assert [row[11:] for row in instances] == [
        [7, True],
        [13, True],
        [13, True],
        [7, True],
        [13, True],
    ]
    # equal wall times: every parent-over-change ratio is 1
    ratios = doc["parent_over_change"]["wall_ms_by_kind_and_s"]
    assert ratios == pytest.approx(dict.fromkeys(pairs, 1.0))
    printed = capsys.readouterr().out
    for name in pairs:
        assert f"  change  {name} " in printed


def test_bench_steps_counts_path_solves_and_sensitivity_steps():
    bench = tool_module("bench_steps")
    row = dict(zip(bench.COLUMNS, bench.measure(sparseobs, (0, 0))))
    record = sparseobs.harness.run_trial(bench.workloads(sparseobs)[0][2], 0)
    # trial 0 of the demo: the lock solves some linearizations, and the
    # observation's integration steps the state alone
    assert 0 < row["path_solves"] < record.iterations
    assert 0 < row["sensitivity_row_steps"] < row["row_steps"]
    # every linearization after the first tries the closed form, and each
    # one it does not certify falls back to the path
    tries, certified = row["closed_form_tries"], row["closed_form_certified"]
    assert tries == record.iterations - 1 and 0 < certified < tries
    assert row["path_solves"] == 1 + tries - certified
    # eps = 0 tries no closed form
    names = [name for _, name, _ in bench.workloads(sparseobs)]
    exact = (names.index("tanh_saturated eps=0"), 0)
    row = dict(zip(bench.COLUMNS, bench.measure(sparseobs, exact)))
    assert row["closed_form_tries"] == row["closed_form_certified"] == 0


def test_bench_steps_exits_when_a_tree_moves_an_error_l2(monkeypatch):
    bench = tool_module("bench_steps")
    tol = sparseobs.SolverConfig().outer_tol
    written = []

    def rows(*errors):
        table = [
            ["demo", "demo", i, 0.5, 64, 10, 5, 1, 1, 0, e, 1.0, [0], [1.0]]
            for i, e in enumerate(errors)
        ]
        return [table] * bench.ROUNDS

    def run(*change):
        runs = {"parent": rows(0.0, 0.2, None), "change": rows(*change)}
        monkeypatch.setattr(bench.treebench, "rounds", lambda *args: runs)
        bench.run({"parent": None, "change": None})

    monkeypatch.setattr(bench, "workloads", lambda package: [])
    monkeypatch.setattr(bench, "by_sensor_count", lambda trees: {label: {} for label in trees})
    monkeypatch.setattr(bench, "flow_errors", lambda trials, steps: {k: [0.0] * 3 for k in steps})
    monkeypatch.setattr(bench.treebench, "write", lambda name, doc: written.append(doc))
    # a move under outer_tol passes; a trial's row holds no time, its
    # workload's total does
    run(0.0, 0.2 + 0.5 * tol, None)
    assert written[-1]["max_abs_error_l2_change"]["demo"] == pytest.approx(0.5 * tol)
    change = written[-1]["results"]["change"]
    assert all(len(row) == len(bench.COLUMNS) + 1 for row in change["trials"])
    assert change["totals"]["demo"]["wall_ms"] == pytest.approx(3.0)
    # a move of outer_tol, and an error_l2 on one tree only, both fail
    for i, (change, moved) in enumerate([((tol, 0.2, None), 0), ((0.0, 0.2, 0.3), 2)]):
        with pytest.raises(SystemExit) as exit:
            run(*change)
        # a string exit code gives the process status 1
        assert isinstance(exit.value.code, str) and f"change: [{moved}]" in exit.value.code
        # the file is written before the exit
        assert len(written) == 2 + i


def test_bench_flow_jacobian_records_the_shapes_whose_bits_a_tree_moves(monkeypatch, capsys):
    bench = tool_module("bench_flow_jacobian")
    written = []
    plain = sparseobs.kernels.rk4_flow_jacobian

    def moved(kind, *args):
        # a last-bit move of the tanh sensitivity alone
        XT, P = plain(kind, *args)
        return XT, np.nextafter(P, np.inf) if kind == sparseobs.kernels.RHS_TANH else P

    change = SimpleNamespace(
        DynamicalSystem=sparseobs.DynamicalSystem, kernels=SimpleNamespace(rk4_flow_jacobian=moved)
    )
    monkeypatch.setattr(bench, "SHAPES", [s for s in bench.SHAPES if s[2] == 6])
    monkeypatch.setattr(bench, "CALLS", 3)
    monkeypatch.setattr(bench.treebench, "write", lambda name, doc: written.append(doc))
    # a tree that moves bits is reported, not refused
    bench.run({"parent": sparseobs, "change": change})
    doc = written[-1]
    assert doc["bits_equal_to"] == "parent"
    bits = {
        label: {row["case"]: row["bits_equal"] for row in rows}
        for label, rows in doc["results"].items()
    }
    tanh = [case for case, kind, *_ in bench.SHAPES if kind == "tanh_saturated"]
    assert set(bits["parent"].values()) == {None}
    assert bits["change"] == {case: case not in tanh for case, *_ in bench.SHAPES}
    assert tanh and f"change: x(T) or P differs from parent's bits on {'; '.join(tanh)}" in (
        capsys.readouterr().out
    )
    # bit for bit: -0.0 is not 0.0, and a NaN equals itself
    assert not bench.same_bits([np.zeros(2)], [-np.zeros(2)])
    assert bench.same_bits([np.full(2, np.nan)], [np.full(2, np.nan)])
