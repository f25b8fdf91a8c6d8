import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparseobs import kernels
from sparseobs.errors import ConfigError, DomainError
from sparseobs.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    _stream_seed,
    emit_report,
    gen_gaussian_matrix,
    load_experiment_config,
    run_experiment,
    run_trial,
)
from sparseobs.model import DynamicalSystem, MeasurementModel, SparseProblem
from sparseobs.ode import IntegrationConfig
from sparseobs.recover import l0_oracle

from conftest import unit_spectral_matrix


def _zero_config(**overrides):
    base = dict(
        seed=99,
        trials=3,
        system=DynamicalSystem.zero(8),
        n=128,
        sparsity=1,
        noise_radius=0.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _doc(**overrides):
    doc = {
        "seed": 99,
        "trials": 3,
        "system": {"dim": 8, "rhs": {"kind": "zero"}},
        "matrix": {"n": 128, "m": 8},
        "sparsity": 1,
        "noise_radius": 0.0,
    }
    doc.update(overrides)
    return doc


# --- matrix generation -------------------------------------------------------------


def test_gen_matrix_shape_and_determinism():
    A = gen_gaussian_matrix(16, 4, 7)
    B = gen_gaussian_matrix(16, 4, 7)
    C = gen_gaussian_matrix(16, 4, 8)
    assert A.shape == (16, 4)
    np.testing.assert_array_equal(A, B)
    assert not np.array_equal(A, C)


def test_gen_matrix_column_norms_concentrate():
    A = gen_gaussian_matrix(256, 64, 123)
    norms = np.linalg.norm(A, axis=0)
    assert np.all(norms > 0.8) and np.all(norms < 1.2)


def test_gen_matrix_scale_and_validation():
    A = gen_gaussian_matrix(16, 4, 7)
    A3 = gen_gaussian_matrix(16, 4, 7, scale=3.0)
    np.testing.assert_allclose(A3, 3.0 * A, rtol=1e-15)
    with pytest.raises(DomainError):
        gen_gaussian_matrix(0, 4, 7)
    with pytest.raises(DomainError):
        gen_gaussian_matrix(16, 4, 7, scale=0.0)


# --- config validation -------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        _zero_config(trials=0)
    with pytest.raises(ConfigError):
        _zero_config(sparsity=9)
    with pytest.raises(ConfigError):
        _zero_config(sparsity=0)
    with pytest.raises(ConfigError):
        _zero_config(n=0)
    with pytest.raises(ConfigError):
        _zero_config(ensemble="bernoulli")
    with pytest.raises(ConfigError):
        _zero_config(magnitudes="rademacher")
    with pytest.raises(ConfigError):
        _zero_config(noise_radius=-1e-3)
    with pytest.raises(ConfigError):
        _zero_config(time=-1.0)
    with pytest.raises(ConfigError):
        _zero_config(weights=np.ones(7))
    with pytest.raises(ConfigError):
        _zero_config(weights=np.zeros(8))
    with pytest.raises(ConfigError):
        _zero_config(scale=-1.0)
    with pytest.raises(ConfigError):
        _zero_config(rip_budget=0)


def test_config_from_dict_reports_missing_and_unknown_fields():
    with pytest.raises(ConfigError) as info:
        doc = _doc()
        del doc["seed"]
        ExperimentConfig.from_dict(doc)
    assert "missing config field 'seed'" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(frobnicate=1))
    assert "unknown config fields" in str(info.value) and "frobnicate" in str(info.value)


def test_config_from_dict_wraps_nested_errors():
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(system={"dim": 8, "rhs": {"kind": "cubic"}}))
    assert "in field 'system':" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(solver={"outer_tol": -1.0}))
    assert "in field 'solver':" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(solver={"outer_max_iter": "abc"}))
    assert "in field 'solver':" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(integration={"mode": "sympl"}))
    assert "in field 'integration':" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(integration={"step_count": "x"}))
    assert "in field 'integration':" in str(info.value)
    # a setting the integration mode does not use
    for unused in ({"mode": "adaptive", "step_count": 64}, {"tolerance": 1e-6}):
        with pytest.raises(ConfigError, match="in field 'integration': .* does not apply"):
            ExperimentConfig.from_dict(_doc(integration=unused))
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(matrix={"n": 128, "m": "x"}))
    assert "in field 'matrix.m':" in str(info.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_doc(matrix=[128, 8]))
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(matrix={"n": 128, "m": 12}))
    assert "must match the system dimension" in str(info.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict("not a dict")


def test_config_from_dict_refuses_unknown_nested_keys():
    nested = {
        "matrix": {"n": 128, "m": 8, "rows": 64},
        "system": {"dim": 8, "rhs": {"kind": "zero"}, "lipshitz": 1.0},
        "solver": {"outer_tol": 1e-9, "momentum": 0.9},
        "integration": {"mode": "fixed", "steps": 64},
    }
    for field, value in nested.items():
        with pytest.raises(ConfigError, match=f"in field '{field}': unknown"):
            ExperimentConfig.from_dict(_doc(**{field: value}))
    # ADMM's cap, tolerance and step weight are no longer solver settings
    for removed in ("inner_max_iter", "inner_tol", "penalty"):
        with pytest.raises(ConfigError, match=f"in field 'solver': unknown.*{removed}"):
            ExperimentConfig.from_dict(_doc(solver={removed: 1}))


_INTEGER_FIELDS = (
    "seed",
    "trials",
    "matrix.n",
    "matrix.m",
    "sparsity",
    "rip_budget",
    "solver.outer_max_iter",
    "integration.step_count",
)


def _set_field(doc, path, value):
    *outer, key = path.split(".")
    for part in outer:
        doc = doc.setdefault(part, {})
    doc[key] = value


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("path", _INTEGER_FIELDS)
def test_config_integer_fields_reject_fractions_and_bools(path, value):
    # dimension 2, so that truncating either value (to 2 or 1) would give a
    # valid setting of every field
    doc = _doc(system={"dim": 2, "rhs": {"kind": "zero"}}, matrix={"n": 128, "m": 2})
    _set_field(doc, path, value)
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("field, value", [("noise_radius", True), ("time", "0.5")])
def test_config_real_fields_reject_bools_and_strings(field, value):
    with pytest.raises(ConfigError, match="must be a real number"):
        ExperimentConfig.from_dict(_doc(**{field: value}))


def test_config_integer_fields_accept_integral_floats():
    doc = _doc()
    for path, value in zip(_INTEGER_FIELDS, (99.0, 3.0, 128.0, 8.0, 1.0, 2e5, 30.0, 256.0)):
        _set_field(doc, path, value)
    cfg = ExperimentConfig.from_dict(doc)
    got = (cfg.seed, cfg.trials, cfg.n, cfg.m, cfg.sparsity, cfg.rip_budget)
    got += (cfg.solver.outer_max_iter, cfg.integration.step_count)
    assert got == (99, 3, 128, 8, 1, 200000, 30, 256)
    assert all(type(v) is int for v in got)


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"seed": 1,\n  "trials": }\n')
    with pytest.raises(ConfigError) as info:
        load_experiment_config(p)
    assert "line 2" in str(info.value)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_doc()))
    assert load_experiment_config(good).seed == 99


# --- experiment pipeline -----------------------------------------------------------


def test_static_sweep_recovers_every_trial():
    cfg = _zero_config()
    records = run_experiment(cfg)
    assert [r.trial for r in records] == [0, 1, 2]
    for r in records:
        assert r.feasible and r.reasons == ()
        # no certified horizon is finite for static dynamics: fallback time
        assert r.T == 1.0
        assert r.delta_2s < math.sqrt(2.0) - 1.0
        assert r.error_l2 <= 1e-6
        assert r.bound_satisfied
        assert r.converged
        assert r.observability_T_max == float("inf")
        assert r.recovery_T_max == float("inf")


def test_first_trial_matches_the_combinatorial_oracle():
    cfg = _zero_config()
    r = run_trial(cfg, 0)
    A = gen_gaussian_matrix(cfg.n, cfg.m, _stream_seed(cfg.seed, 0, 0), cfg.scale)
    x0 = np.zeros(cfg.m)
    x0[list(r.support)] = r.values
    problem = SparseProblem(
        system=cfg.system,
        measurement=MeasurementModel(
            matrix=A, time=r.T, noise_radius=0.0, weights=np.ones(cfg.m)
        ),
        observation=A @ x0,
        sparsity=cfg.sparsity,
    )
    oracle = l0_oracle(problem)
    assert oracle.converged
    np.testing.assert_allclose(oracle.estimate, x0, atol=1e-8)
    assert r.error_l2 <= 1e-6


@pytest.mark.parametrize(
    "integration", [None, IntegrationConfig.fixed(48)], ids=["default", "fixed"]
)
def test_trial_observes_and_recovers_at_one_step_count(integration, monkeypatch):
    overrides = {} if integration is None else {"integration": integration}
    cfg = ExperimentConfig(
        seed=4,
        trials=1,
        system=DynamicalSystem.tanh_saturated(unit_spectral_matrix(6, 7)),
        n=64,
        sparsity=1,
        noise_radius=1e-3,
        **overrides,
    )
    assert integration is not None or cfg.integration == IntegrationConfig.adaptive(1e-12)
    calls = []
    for name in ("rk4_path", "rk4_flow_jacobian"):
        kernel = getattr(kernels, name)

        def counting(kind, M, c, X, T, n, name=name, kernel=kernel):
            calls.append((name, n))
            return kernel(kind, M, c, X, T, n)

        monkeypatch.setattr(kernels, name, counting)
    r = run_trial(cfg, 0, force=True)
    assert r.error_l2 is not None
    # the default settles the count at x = 0 before the observation
    observed = calls.index(("rk4_path", r.rk4_steps))
    assert all(name == "rk4_flow_jacobian" for name, _ in calls[:observed])
    if integration is None:
        assert [n for _, n in calls[:observed]] == [8 << i for i in range(observed)]
        assert calls[observed - 1][1] == r.rk4_steps < 256
    else:
        assert observed == 0 and r.rk4_steps == 48
    assert len(calls) > observed + 2
    assert all(n == r.rk4_steps for _, n in calls[observed:])


def test_weighted_sweep_meets_its_bounds():
    w = np.random.Generator(np.random.Philox(41)).uniform(1.0, 2.0, 8)
    cfg = ExperimentConfig(
        seed=5,
        trials=4,
        system=DynamicalSystem.tanh_saturated(unit_spectral_matrix(8, 7)),
        n=128,
        sparsity=1,
        noise_radius=1e-3,
        weights=w,
    )
    assert np.array_equal(cfg.weights, w)
    with pytest.raises(ValueError):
        cfg.weights[0] = 1.0
    records = run_experiment(cfg)
    assert all(r.tau == w.max() / w.min() > 1.0 for r in records)
    feasible = [r for r in records if r.feasible]
    assert feasible
    assert all(r.bound_satisfied and r.error_l2 <= r.bound for r in feasible)


def test_fixed_time_is_honored():
    records = run_experiment(_zero_config(time=0.05, trials=1))
    assert records[0].T == 0.05


def test_reports_are_reproducible_byte_for_byte(tmp_path):
    cfg = _zero_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(run_experiment(cfg), "csv", p1)
    emit_report(run_experiment(cfg), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_count_does_not_change_the_report(tmp_path):
    cfg = _zero_config()
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    emit_report(run_experiment(cfg, workers=1), "csv", p1)
    emit_report(run_experiment(cfg, workers=2), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(DomainError):
        run_experiment(cfg, workers=0)


def test_workers_fall_back_to_the_default_context_without_fork(monkeypatch):
    # where fork is unavailable get_context("fork") raises ValueError; the
    # pool then takes the default context, spawn, whose children import the
    # package afresh
    import multiprocessing

    get_context = multiprocessing.get_context
    asked = []

    def no_fork(method=None):
        asked.append(method)
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method or "spawn")

    demo = load_experiment_config(Path(__file__).resolve().parents[1] / "configs" / "demo.json")
    cfg = dataclasses.replace(demo, trials=4)
    one = run_experiment(cfg)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    two = run_experiment(cfg, workers=2)
    assert asked[:2] == ["fork", None]
    untimed = [[dataclasses.replace(r, wall_ms=0.0) for r in records] for records in (one, two)]
    assert untimed[0] == untimed[1]


def test_package_import_leaves_the_worker_pool_unloaded():
    # a subprocess, because pytest itself may have imported either module;
    # only run_experiment with workers > 1 imports them
    code = """
import sys
import sparseobs
pool = {"multiprocessing", "concurrent.futures"} & set(sys.modules)
assert not pool, sorted(pool)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_noise_scaling_moves_the_bound_not_the_guarantee():
    lo = run_experiment(_zero_config(noise_radius=1e-3))
    hi = run_experiment(_zero_config(noise_radius=2e-3))
    for a, b in zip(lo, hi):
        assert a.bound_satisfied and b.bound_satisfied
        assert b.bound > a.bound
        assert a.error_l2 <= a.bound + 1e-6
        assert b.error_l2 <= b.bound + 1e-6


def test_infeasible_trials_skip_the_solver():
    # 6 rows cannot give an isometry constant small enough for the bound
    cfg = ExperimentConfig(
        seed=5, trials=1, system=DynamicalSystem.zero(12), n=6, sparsity=1, noise_radius=0.0
    )
    r = run_trial(cfg, 0)
    assert not r.feasible
    assert len(r.reasons) > 0
    assert r.delta_2s > math.sqrt(2.0) - 1.0
    for field in ("error_l2", "bound", "bound_satisfied", "residual", "iterations", "converged"):
        assert getattr(r, field) is None
    forced = run_trial(cfg, 0, force=True)
    assert not forced.feasible
    assert forced.error_l2 is not None and forced.residual is not None
    assert forced.bound is None and forced.bound_satisfied is None


def test_tiny_rip_budget_records_the_budget_reason():
    cfg = ExperimentConfig(
        seed=5,
        trials=1,
        system=DynamicalSystem.zero(12),
        n=6,
        sparsity=1,
        noise_radius=0.0,
        rip_budget=1,
    )
    r = run_trial(cfg, 0)
    assert math.isinf(r.delta_2s)
    assert not r.feasible
    assert r.reasons == ("rip-budget-exceeded",)
    assert r.to_dict()["delta_2s"] == "inf"


# --- report emission ---------------------------------------------------------------


def test_csv_report_layout(tmp_path):
    cfg = _zero_config(trials=1)
    records = run_experiment(cfg)
    p = tmp_path / "out.csv"
    emit_report(records, "csv", p)
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == (
        "trial,feasible,s,n,m,T,rk4_steps,eps,error_l2,bound,bound_satisfied,residual,"
        "iterations,wall_ms"
    )
    assert len(lines) == 2
    assert text.endswith("\n")
    cells = lines[1].split(",")
    row = dict(zip(CSV_COLUMNS, cells))
    assert row["trial"] == "0"
    assert row["feasible"] == "true"
    assert row["s"] == "1" and row["n"] == "128" and row["m"] == "8"
    assert float(row["T"]) == records[0].T
    assert row["rk4_steps"] == str(records[0].rk4_steps)
    assert row["bound_satisfied"] == "true"
    assert float(row["error_l2"]) == records[0].error_l2
    # wall clock is zeroed unless timings were requested
    assert row["wall_ms"] == "0.0"


def test_csv_blank_cells_for_skipped_solver_fields(tmp_path):
    cfg = ExperimentConfig(
        seed=5, trials=1, system=DynamicalSystem.zero(12), n=6, sparsity=1, noise_radius=0.0
    )
    p = tmp_path / "out.csv"
    emit_report(run_experiment(cfg), "csv", p)
    row = dict(zip(CSV_COLUMNS, p.read_text().splitlines()[1].split(",")))
    assert row["feasible"] == "false"
    assert row["error_l2"] == "" and row["bound"] == "" and row["bound_satisfied"] == ""


def test_json_report_agrees_with_csv(tmp_path):
    cfg = _zero_config(trials=2, noise_radius=1e-3)
    records = run_experiment(cfg)
    pc, pj = tmp_path / "out.csv", tmp_path / "out.json"
    emit_report(records, "csv", pc)
    emit_report(records, "json", pj)
    docs = json.loads(pj.read_text())
    assert len(docs) == 2
    csv_rows = [
        dict(zip(CSV_COLUMNS, line.split(","))) for line in pc.read_text().splitlines()[1:]
    ]
    for doc, row in zip(docs, csv_rows):
        assert doc["trial"] == int(row["trial"])
        assert doc["feasible"] == (row["feasible"] == "true")
        assert doc["T"] == float(row["T"])
        assert doc["rk4_steps"] == int(row["rk4_steps"])
        assert doc["error_l2"] == float(row["error_l2"])
        assert doc["bound"] == float(row["bound"])
        assert doc["wall_ms"] == 0.0
        # json keeps the certificate detail the csv omits
        assert doc["support"] and isinstance(doc["values"], list)
        assert doc["observability_T_max"] == "inf"


def test_timings_only_appear_on_request(tmp_path):
    records = run_experiment(_zero_config(trials=1))
    assert records[0].wall_ms > 0.0
    p0, p1 = tmp_path / "p0.csv", tmp_path / "p1.csv"
    emit_report(records, "csv", p0)
    emit_report(records, "csv", p1, include_timings=True)
    assert dict(zip(CSV_COLUMNS, p0.read_text().splitlines()[1].split(",")))["wall_ms"] == "0.0"
    timed = dict(zip(CSV_COLUMNS, p1.read_text().splitlines()[1].split(",")))
    assert float(timed["wall_ms"]) > 0.0


def test_report_footer_summarizes_the_run(tmp_path, capsys):
    records = run_experiment(_zero_config(noise_radius=1e-3))
    emit_report(records, "csv", tmp_path / "out.csv")
    out = capsys.readouterr().out
    assert re.match(
        r"trials=3 feasible=3 mean_error=[-0-9.e+]+ max_error_bound_ratio=[-0-9.e+]+\s*$",
        out,
    )
    with pytest.raises(DomainError):
        emit_report([], "csv", tmp_path / "empty.csv")
    with pytest.raises(DomainError):
        emit_report(records, "yaml", tmp_path / "out.yaml")
