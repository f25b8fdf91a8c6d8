import json
import math
import re

import numpy as np
import pytest

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
from sparseobs.recover import l0_oracle


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
        ExperimentConfig.from_dict(_doc(solver={"inner_tol": -1.0}))
    assert "in field 'solver':" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(solver={"inner_max_iter": "abc"}))
    assert "in field 'solver':" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(integration={"mode": "sympl"}))
    assert "in field 'integration':" in str(info.value)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(_doc(integration={"step_count": "x"}))
    assert "in field 'integration':" in str(info.value)
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


_INTEGER_FIELDS = (
    "seed",
    "trials",
    "matrix.n",
    "matrix.m",
    "sparsity",
    "rip_budget",
    "solver.outer_max_iter",
    "solver.inner_max_iter",
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


def test_config_integer_fields_accept_integral_floats():
    doc = _doc()
    for path, value in zip(_INTEGER_FIELDS, (99.0, 3.0, 128.0, 8.0, 1.0, 2e5, 30.0, 5e3, 256.0)):
        _set_field(doc, path, value)
    cfg = ExperimentConfig.from_dict(doc)
    got = (cfg.seed, cfg.trials, cfg.n, cfg.m, cfg.sparsity, cfg.rip_budget)
    got += (cfg.solver.outer_max_iter, cfg.solver.inner_max_iter, cfg.integration.step_count)
    assert got == (99, 3, 128, 8, 1, 200000, 30, 5000, 256)
    assert all(type(v) is int for v in got)


def test_config_round_trips_through_dict():
    cfg = _zero_config(noise_radius=1e-3, time=0.5, magnitudes="uniform")
    doc = cfg.to_dict()
    again = ExperimentConfig.from_dict(doc)
    assert again.to_dict() == doc
    assert json.loads(json.dumps(doc)) == doc


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
    assert lines[0] == "trial,feasible,s,n,m,T,eps,error_l2,bound,bound_satisfied,residual,iterations,wall_ms"
    assert len(lines) == 2
    assert text.endswith("\n")
    cells = lines[1].split(",")
    row = dict(zip(CSV_COLUMNS, cells))
    assert row["trial"] == "0"
    assert row["feasible"] == "true"
    assert row["s"] == "1" and row["n"] == "128" and row["m"] == "8"
    assert float(row["T"]) == records[0].T
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
