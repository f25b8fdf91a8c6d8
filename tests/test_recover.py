import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from sparseobs import kernels, recover
from sparseobs.certify import observability_horizon
from sparseobs.errors import (
    BudgetError,
    DomainError,
    InfeasibleError,
    NumericalError,
    ShapeError,
)
from sparseobs.harness import (
    ExperimentConfig,
    gen_gaussian_matrix,
    load_experiment_config,
    run_trial,
)
from sparseobs.model import (
    DynamicalSystem,
    MeasurementModel,
    SparseProblem,
    from_doc,
    to_doc,
    weighted_l1_norm,
)
from sparseobs.ode import IntegrationConfig, flow_with_jacobian, integrate, settle
from sparseobs.recover import (
    SolverConfig,
    l0_oracle,
    recover_initial_state,
    solve_weighted_bpdn,
)
from sparseobs.rip import operator_norm, rip_constant_exact

from conftest import catalog_systems, gaussian_unit_columns, tool_module, unit_spectral_matrix


def _problem(system, A, x0, T, eps=0.0, s=1, weights=None, noise=None):
    """Plant x0, integrate, and wrap the measurement into a SparseProblem."""
    A = np.asarray(A, dtype=float)
    b = A @ integrate(system, x0, T).final_state
    if noise is not None:
        b = b + noise
    w = np.ones(A.shape[1]) if weights is None else np.asarray(weights, dtype=float)
    meas = MeasurementModel(matrix=A, time=T, noise_radius=eps, weights=w)
    return SparseProblem(system=system, measurement=meas, observation=b, sparsity=s)


def _count_calls(monkeypatch, module, name, calls):
    """Replace module.name with a wrapper that appends name to calls."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


# --- solver config ---------------------------------------------------------------


def test_solver_config_defaults_and_validation():
    cfg = SolverConfig()
    assert dataclasses.asdict(cfg) == {
        "outer_max_iter": 30,
        "outer_tol": 1e-8,
        "residual_match_tol": 1e-6,
    }
    with pytest.raises(DomainError):
        SolverConfig(outer_max_iter=0)
    with pytest.raises(DomainError):
        SolverConfig(outer_tol=0.0)
    with pytest.raises(DomainError):
        SolverConfig(residual_match_tol=-1.0)


def test_solver_config_from_doc_rejects_unknown_fields():
    assert from_doc(SolverConfig, {"outer_tol": 1e-7}, "solver config").outer_tol == 1e-7
    with pytest.raises(DomainError) as info:
        from_doc(SolverConfig, {"outer_tol": 1e-7, "momentum": 0.9}, "solver config")
    assert "momentum" in str(info.value)
    # ADMM's cap, tolerance and step weight are constants, not settings
    for removed in ("inner_max_iter", "inner_tol", "penalty"):
        with pytest.raises(DomainError, match=f"unknown.*{removed}"):
            from_doc(SolverConfig, {removed: 1}, "solver config")


# --- weighted bpdn ---------------------------------------------------------------


def test_bpdn_identity_exact_point():
    x = solve_weighted_bpdn(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), np.ones(2), 0.0)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-8)


def test_bpdn_zero_is_optimal_inside_the_ball():
    x = solve_weighted_bpdn(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), np.ones(2), 1.0)
    np.testing.assert_array_equal(x, np.zeros(2))


def test_bpdn_offset_is_subtracted():
    offset = np.array([0.5, -0.5])
    x = solve_weighted_bpdn(np.eye(2), offset, offset + np.array([1.0, 0.0]), np.ones(2), 0.0)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-8)


def test_bpdn_infeasible_raises_with_minimal_residual():
    Phi = np.array([[1.0], [1.0]])
    b = np.array([1.0, -1.0])
    with pytest.raises(InfeasibleError) as info:
        solve_weighted_bpdn(Phi, np.zeros(2), b, np.ones(1), 0.1)
    assert math.isclose(info.value.min_residual, math.sqrt(2.0), rel_tol=1e-9)


def test_bpdn_argument_validation():
    with pytest.raises(ShapeError):
        solve_weighted_bpdn(np.eye(2), np.zeros(3), np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(ShapeError):
        solve_weighted_bpdn(np.eye(2), np.zeros(2), np.zeros(2), np.ones(3), 0.0)
    with pytest.raises(DomainError):
        solve_weighted_bpdn(np.eye(2), np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(DomainError):
        solve_weighted_bpdn(np.eye(2), np.zeros(2), np.zeros(2), np.ones(2), -0.1)


@pytest.mark.parametrize("bad", ["Phi", "offset", "observation", "weights"])
def test_bpdn_rejects_non_finite_input(bad):
    # a NaN would otherwise run ADMM to its iteration cap and return NaN
    args = {
        "Phi": np.eye(2),
        "offset": np.zeros(2),
        "observation": np.array([1.0, 0.0]),
        "weights": np.ones(2),
    }
    args[bad] = args[bad].copy()
    args[bad].flat[0] = np.nan
    for eps in (0.0, 0.1):
        with pytest.raises(DomainError, match=bad):
            solve_weighted_bpdn(**args, eps=eps)


def test_bpdn_recovers_planted_spike_on_wide_matrix():
    # underdetermined equality-constrained case: l1 picks the sparse point
    Phi = gaussian_unit_columns(6, 12, 40)
    x0 = np.zeros(12)
    x0[7] = -1.4
    x = solve_weighted_bpdn(Phi, np.zeros(6), Phi @ x0, np.ones(12), 0.0)
    np.testing.assert_allclose(x, x0, atol=1e-6)


def _noisy_instance():
    Phi = gen_gaussian_matrix(64, 16, 77)
    x0 = np.zeros(16)
    x0[[2, 9]] = [1.2, -0.8]
    rng = np.random.Generator(np.random.Philox(5))
    e = rng.standard_normal(64)
    eps = 1e-3
    e *= eps / np.linalg.norm(e)
    return Phi, x0, Phi @ x0 + e, eps


def test_bpdn_noisy_residual_lands_on_the_target():
    Phi, _, y, eps = _noisy_instance()
    cfg = SolverConfig()
    x = solve_weighted_bpdn(Phi, np.zeros(64), y, np.ones(16), eps, cfg)
    r = float(np.linalg.norm(y - Phi @ x))
    assert eps - 1e-12 <= r <= eps + cfg.residual_match_tol


def test_bpdn_objective_never_exceeds_a_feasible_point():
    # x0 satisfies the constraint exactly at radius eps, so the solver's
    # objective must come in at or below it
    Phi, x0, y, eps = _noisy_instance()
    w = np.ones(16)
    x = solve_weighted_bpdn(Phi, np.zeros(64), y, w, eps)
    assert weighted_l1_norm(x, w) <= weighted_l1_norm(x0, w) + 1e-9


def test_bpdn_weight_scaling_leaves_solution_unchanged():
    Phi, _, y, eps = _noisy_instance()
    w = np.ones(16)
    # penalized path: scaling w by a power of two scales lam and every
    # correlation bound exactly, and every path and ADMM operation with them,
    # so the results match bit for bit
    a = solve_weighted_bpdn(Phi, np.zeros(64), y, w, eps)
    b = solve_weighted_bpdn(Phi, np.zeros(64), y, 2.0 * w, eps)
    np.testing.assert_array_equal(a, b)
    # equality-constrained path: agreement within solver tolerance
    Phi2 = gaussian_unit_columns(6, 12, 40)
    x0 = np.zeros(12)
    x0[7] = -1.4
    ye = Phi2 @ x0
    ae = solve_weighted_bpdn(Phi2, np.zeros(6), ye, np.ones(12), 0.0)
    be = solve_weighted_bpdn(Phi2, np.zeros(6), ye, 7.0 * np.ones(12), 0.0)
    np.testing.assert_allclose(ae, be, atol=1e-9)


class _Captured(Exception):
    pass


_DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


def _demo_solve(monkeypatch, index):
    """(Phi, y, weights, eps) of the solve at linearization index (0 or 1) in
    trial 0 of the demo sweep, a tanh linearization at eps = 1e-3 in the 13
    rows of the factor of its 512 x 12 measurement, with every linearization
    solved on the path."""
    solve = recover.solve_weighted_bpdn
    solved = []

    def capture(Phi, offset, observation, weights, eps, config=None):
        if len(solved) == index:
            raise _Captured(Phi, observation - offset, weights, eps)
        solved.append(index)
        return solve(Phi, offset, observation, weights, eps, config)

    with monkeypatch.context() as patch:
        patch.setattr(recover, "solve_weighted_bpdn", capture)
        patch.setattr(recover, "_locked_solve", lambda *args: None)
        with pytest.raises(_Captured) as first:
            run_trial(load_experiment_config(_DEMO_CONFIG), 0)
    return first.value.args


def _demo_first_solve(monkeypatch):
    return _demo_solve(monkeypatch, 0)


def _demo_second_solve(monkeypatch):
    return _demo_solve(monkeypatch, 1)


def _noisy_underdetermined(_monkeypatch=None):
    """(Phi, y, weights, eps): 48 x 64, 4-sparse, weights from U(1, 2), with
    noise of norm eps / 2.  Takes _demo_first_solve's argument, unused."""
    Phi = gaussian_unit_columns(48, 64, 45)
    rng = np.random.Generator(np.random.Philox(245))
    x0 = np.zeros(64)
    x0[rng.choice(64, size=4, replace=False)] = rng.uniform(0.5, 1.5, 4) * rng.choice([-1, 1], 4)
    weights = rng.uniform(1.0, 2.0, 64)
    e = rng.standard_normal(48)
    eps = 1e-2
    e *= 0.5 * eps / np.linalg.norm(e)
    return Phi, Phi @ x0 + e, weights, eps


def _record_lasso(monkeypatch, weights):
    """Wrap kernels.admm_lasso; returns the list of (lam, iterations) of its
    calls, lam read back from the threshold lam * weights."""
    calls = []
    lasso = kernels.admm_lasso

    def wrapper(F_inv, Phi_t_y, rho, thresh, *rest):
        result = lasso(F_inv, Phi_t_y, rho, thresh, *rest)
        calls.append((float(thresh[0] / weights[0]), result[2]))
        return result

    monkeypatch.setattr(kernels, "admm_lasso", wrapper)
    return calls


def _band(cfg, y):
    return min(cfg.residual_match_tol, 1e-9 * max(1.0, float(np.linalg.norm(y))))


def _on_the_sphere(Phi, y, x_in, x_dir, eps):
    """The point x_in + t (x_dir - x_in), t > 0, whose residual norm is eps,
    for ||y - Phi x_in|| < eps."""
    r = y - Phi @ x_in
    v = Phi @ (x_dir - x_in)
    q1, q2, excess = r @ v, v @ v, r @ r - eps * eps
    t = (q1 + math.sqrt(q1 * q1 - q2 * excess)) / q2
    return x_in + t * (x_dir - x_in)


def _assert_lasso_kkt(Phi, y, w, x, lam, eps, cfg):
    """x's residual lies in the band, and the weighted lasso's KKT conditions
    hold at lam."""
    r = y - Phi @ x
    assert eps <= np.linalg.norm(r) <= eps + _band(cfg, y)
    g = Phi.T @ r
    on = x != 0
    assert on.any()
    assert np.all(np.abs(g[~on]) <= lam * w[~on] * (1 + 1e-9))
    np.testing.assert_allclose(g[on], lam * w[on] * np.sign(x[on]), rtol=1e-9, atol=0)


@pytest.mark.parametrize("instance", [_demo_first_solve, _noisy_underdetermined])
def test_noisy_bpdn_probes_the_path_point_once(instance, monkeypatch):
    Phi, y, w, eps = instance(monkeypatch)
    n, m = Phi.shape
    cfg = SolverConfig()
    calls = _record_lasso(monkeypatch, w)
    x = solve_weighted_bpdn(Phi, np.zeros(n), y, w, eps, cfg)
    # the path point is the lasso's fixed point: one call of one iteration
    assert [it for _, it in calls] == [1]
    _assert_lasso_kkt(Phi, y, w, x, calls[0][0], eps, cfg)
    # no point feasible at exactly eps has a smaller objective: try the
    # boundary points toward 0, toward x and around x, from x_ls
    x_ls = np.linalg.lstsq(Phi, y, rcond=None)[0]
    rng = np.random.Generator(np.random.Philox(3))
    targets = [np.zeros(m), x] + [x + 1e-3 * rng.standard_normal(m) for _ in range(8)]
    for target in targets:
        feasible = _on_the_sphere(Phi, y, x_ls, target, eps)
        assert np.linalg.norm(y - Phi @ feasible) == pytest.approx(eps, rel=1e-12)
        assert weighted_l1_norm(x, w) <= weighted_l1_norm(feasible, w) + 1e-9


@pytest.mark.parametrize("instance", [_demo_first_solve, _demo_second_solve])
def test_locked_solve_on_the_path_support_is_the_path_point(instance, monkeypatch):
    Phi, y, w, eps = instance(monkeypatch)
    cfg = SolverConfig()
    calls = _record_lasso(monkeypatch, w)
    x = solve_weighted_bpdn(Phi, np.zeros(y.size), y, w, eps, cfg)
    support = np.flatnonzero(x)
    locked = recover._locked_solve(Phi, y, w, eps, _band(cfg, y), support, np.sign(x[support]))
    assert locked is not None
    assert np.linalg.norm(locked - x) <= 1e-12 * np.linalg.norm(x)
    _assert_lasso_kkt(Phi, y, w, locked, calls[0][0], eps, cfg)


def test_locked_solve_refuses_what_it_cannot_certify(monkeypatch):
    Phi, y, w, eps = _demo_first_solve(monkeypatch)
    band = _band(SolverConfig(), y)
    x = solve_weighted_bpdn(Phi, np.zeros(y.size), y, w, eps)
    S = np.flatnonzero(x)
    s = np.sign(x[S])
    assert S.size >= 2
    checked = []
    _count_calls(monkeypatch, recover, "_lasso_kkt", checked)

    def locked(Phi, eps, S, s, w=w):
        return recover._locked_solve(Phi, y, w, eps, band, S, s)

    assert locked(Phi, eps, S, s) is not None and len(checked) == 1
    # a flipped sign leaves a stationarity gap of 2 lam w_j, and every sign
    # flipped gives lam < 0: the KKT test refuses each
    for flipped in (s * np.where(S == S[0], -1.0, 1.0), -s):
        checked.clear()
        assert locked(Phi, eps, S, flipped) is None and len(checked) == 1
    # a support without a column the solution needs
    assert locked(Phi, eps, S[1:], s[1:]) is None
    # refused before the KKT test: a target under the least-squares residual
    # on S, and a duplicate column, whose Gram matrix is singular
    checked.clear()
    x_ls = np.linalg.lstsq(Phi[:, S], y, rcond=None)[0]
    assert locked(Phi, 0.5 * np.linalg.norm(y - Phi[:, S] @ x_ls), S, s) is None
    m = Phi.shape[1]
    twin = np.column_stack((Phi, Phi[:, S[0]]))
    assert locked(twin, eps, np.append(S, m), np.append(s, s[0]), np.append(w, w[S[0]])) is None
    # and a zero column, whose Gram matrix np.linalg.cholesky refuses
    zeroed = Phi.copy()
    zeroed[:, S[0]] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(zeroed[:, S].T @ zeroed[:, S])
    assert locked(zeroed, eps, S, s) is None
    assert checked == []


def test_tanh_recovery_tries_the_lock_at_each_later_linearization(monkeypatch):
    config = load_experiment_config(_DEMO_CONFIG)
    events = []
    lock = recover._locked_solve

    def locked(*args):
        x = lock(*args)
        events.append("locked" if x is not None else "refused")
        return x

    _count_calls(monkeypatch, recover, "solve_weighted_bpdn", events)
    monkeypatch.setattr(recover, "_locked_solve", locked)
    record = run_trial(config, 0)
    # the first linearization takes the path; each later one tries the lock,
    # and a refused lock falls back to the path
    steps = " ".join(events).replace("refused solve_weighted_bpdn", "path").split()
    assert steps[0] == "solve_weighted_bpdn" and len(steps) == record.iterations
    assert set(steps[1:]) == {"path", "locked"}
    # with every lock refused, the path solves every linearization
    monkeypatch.setattr(recover, "_locked_solve", lambda *args: None)
    pathed = run_trial(config, 0)
    assert (pathed.iterations, pathed.converged) == (record.iterations, record.converged)
    assert pathed.error_l2 == pytest.approx(record.error_l2, rel=1e-10)


@pytest.mark.parametrize(
    "kind, eps",
    [("tanh_saturated", 1e-3), ("tanh_saturated", 0.0)]
    + [(kind, eps) for kind in ("zero", "linear", "affine") for eps in (1e-3, 0.0)],
)
def test_only_noisy_tanh_recovery_tries_the_lock(kind, eps, monkeypatch):
    system = {s.kind: s for s in catalog_systems(5, 22)}[kind]
    A = gen_gaussian_matrix(16, 5, 32)
    x0 = np.zeros(5)
    x0[1] = -0.7
    e = np.random.Generator(np.random.Philox(73)).standard_normal(16)
    e *= eps / np.linalg.norm(e)
    calls = []
    for name in ("_locked_solve", "solve_weighted_bpdn", "_line_search"):
        _count_calls(monkeypatch, recover, name, calls)
    out = recover_initial_state(_problem(system, A, x0, T=0.3, eps=eps, noise=e))
    assert out.converged
    tries = calls.count("_locked_solve")
    assert tries == (out.iterations - 1 if kind == "tanh_saturated" and eps > 0 else 0)
    # an affine flow's first solve is the estimate: no search follows it
    if kind != "tanh_saturated":
        assert calls == ["solve_weighted_bpdn"] and out.iterations == 1


def _inside_the_slack(k):
    """(Phi, y, weights, eps): 64 x 16 with eps under the least-squares
    residual by 3/4 of the residual band, within the feasibility slack."""
    Phi = gen_gaussian_matrix(64, 16, 300 + k)
    y = np.random.Generator(np.random.Philox(k)).standard_normal(64)
    x_ls = np.linalg.lstsq(Phi, y, rcond=None)[0]
    eps = float(np.linalg.norm(y - Phi @ x_ls)) - 0.75 * _band(SolverConfig(), y)
    return Phi, y, np.ones(16), eps


@pytest.mark.parametrize("k", range(4))
def test_noisy_bpdn_inside_the_feasibility_slack_returns_least_squares(k, monkeypatch):
    # eps sits under the least-squares residual but within the feasibility
    # slack, so the path runs to lam = 0 and its least-squares end is in band
    Phi, y, _, eps = _inside_the_slack(k)
    x_ls = np.linalg.lstsq(Phi, y, rcond=None)[0]
    cfg = SolverConfig()
    band = _band(cfg, y)
    calls = _record_lasso(monkeypatch, np.ones(16))
    x = solve_weighted_bpdn(Phi, np.zeros(64), y, np.ones(16), eps, cfg)
    assert [it for _, it in calls] == [1]
    np.testing.assert_allclose(x, x_ls, rtol=0, atol=1e-12)
    assert eps <= np.linalg.norm(y - Phi @ x) <= eps + band


def _count_lstsq(monkeypatch):
    """Count the calls of np.linalg.lstsq."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    return calls


def test_feasible_noisy_bpdn_solves_no_least_squares(monkeypatch):
    Phi, y, w, eps = _demo_first_solve(monkeypatch)
    calls = _count_lstsq(monkeypatch)
    x = solve_weighted_bpdn(Phi, np.zeros(len(y)), y, w, eps)
    assert not calls
    assert eps <= np.linalg.norm(y - Phi @ x) <= eps + _band(SolverConfig(), y)


@pytest.mark.parametrize("k", range(3))
def test_infeasible_noisy_bpdn_reports_the_least_squares_residual(k, monkeypatch):
    # the path runs to its least-squares end, misses eps, and only then is
    # least squares solved for the error's minimal residual
    Phi = gen_gaussian_matrix(64, 16, 310 + k)
    y = np.random.Generator(np.random.Philox(k)).standard_normal(64)
    r_min = float(np.linalg.norm(y - Phi @ np.linalg.lstsq(Phi, y, rcond=None)[0]))
    calls = _count_lstsq(monkeypatch)
    with pytest.raises(InfeasibleError) as info:
        solve_weighted_bpdn(Phi, np.zeros(64), y, np.ones(16), 0.5 * r_min)
    assert calls == [1] and info.value.min_residual == r_min


@pytest.mark.parametrize("k", [10, 13, 17, 19])
def test_noisy_bpdn_crossing_far_below_the_observation_norm(k, monkeypatch):
    # eps ~ 1e-8 ||y||: the residual crosses the target on the first path
    # segment, where the expanded discriminant q1^2 - q2 (||r0||^2 - target^2)
    # would cancel to rounding
    Phi = gen_gaussian_matrix(42, 42, 70 + k)
    e = np.random.Generator(np.random.Philox(k)).standard_normal(42)
    y = Phi[:, 10] + 1e-8 * e / np.linalg.norm(e)
    eps = 0.999 * float(np.linalg.norm(y - Phi[:, 10]))
    cfg = SolverConfig()
    calls = _record_lasso(monkeypatch, np.ones(42))
    x = solve_weighted_bpdn(Phi, np.zeros(42), y, np.ones(42), eps, cfg)
    assert [it for _, it in calls] == [1]
    assert eps <= np.linalg.norm(y - Phi @ x) <= eps + _band(cfg, y)


@pytest.mark.parametrize("k", [17, 130, 281])
def test_noisy_bpdn_certifies_near_square_scan_instances(k, monkeypatch):
    # near-square instances of tools/bench_bpdn.py's scan on which a path
    # follower that skips rounding ties, or keeps a dropped coefficient out
    # on both sides, reached lam = 0 before the target or stopped off the path
    bench = tool_module("bench_bpdn")
    Phi, y, w, eps = bench.scan_instance("near_square", k)
    cfg = SolverConfig()
    calls = _record_lasso(monkeypatch, w)
    x = solve_weighted_bpdn(Phi, np.zeros(y.size), y, w, eps, cfg)
    assert [it for _, it in calls] == [1]
    assert bench.certified(Phi, y, w, eps, x, _band(cfg, y)) == (True, True)


def _duplicate_column(seed):
    """(Phi, y, weights, eps): 20 x 30 whose column 1 copies column 0, with a
    3-sparse planted vector inside the constraint set."""
    Phi = gen_gaussian_matrix(20, 30, 400 + seed)
    Phi[:, 1] = Phi[:, 0]
    x0 = np.zeros(30)
    x0[[0, 7, 19]] = [1.0, -0.8, 0.6]
    e = np.random.Generator(np.random.Philox(seed)).standard_normal(20)
    eps = 1e-3 * float(np.linalg.norm(Phi @ x0))
    return Phi, Phi @ x0 + 0.5 * eps * e / np.linalg.norm(e), np.ones(30), eps


@pytest.mark.parametrize("seed", [12, 23, 28])
def test_noisy_bpdn_keeps_one_copy_of_a_duplicate_column(seed, monkeypatch):
    # with both copies active the path's Gram block would be singular, so the
    # second copy stays out, at its bound, and the point is still the lasso's
    Phi, y, w, eps = _duplicate_column(seed)
    cfg = SolverConfig()
    calls = _record_lasso(monkeypatch, w)
    x = solve_weighted_bpdn(Phi, np.zeros(20), y, w, eps, cfg)
    assert [it for _, it in calls] == [1]
    assert min(abs(x[0]), abs(x[1])) < 1e-12
    assert tool_module("bench_bpdn").certified(Phi, y, w, eps, x, _band(cfg, y)) == (True, True)


def test_lasso_kkt_refuses_an_empty_support_and_a_residual_outside_the_band(monkeypatch):
    Phi, y, w, eps = _demo_first_solve(monkeypatch)
    band = _band(SolverConfig(), y)
    x = solve_weighted_bpdn(Phi, np.zeros(y.size), y, w, eps)
    assert recover._lasso_kkt(Phi, y, w, x, eps, band)
    # the same point against a band its residual lies under, then over
    rn = float(np.linalg.norm(y - Phi @ x))
    assert not recover._lasso_kkt(Phi, y, w, x, rn + band, band)
    assert not recover._lasso_kkt(Phi, y, w, x, rn - 2.0 * band, band)
    # x = 0, its residual ||y|| inside the band
    y_norm = float(np.linalg.norm(y))
    assert not recover._lasso_kkt(Phi, y, w, np.zeros(Phi.shape[1]), y_norm - 0.5 * band, band)


def _path_args(Phi, y, w, eps):
    """The arguments of _lasso_path_point in solve_weighted_bpdn's eps > 0
    solve of (Phi, y, w, eps)."""
    return Phi, y, Phi.T @ Phi, Phi.T @ y, w, eps + 0.5 * _band(SolverConfig(), y)


@np.errstate(divide="ignore", invalid="ignore")
def _solved_path_point(Phi, y, G, c, w, target):
    """The weighted-lasso path as it was before the sweep: every step solves
    the active block afresh for x_S and d, and gathers the rest from G."""
    n, m = Phi.shape
    ratio = np.abs(c) / w
    lam, x = float(ratio.max()), np.zeros(m)
    on = np.arange(m) == int(np.argmax(ratio))
    dropped = np.zeros(m, dtype=bool)
    ws = w * np.sign(c)
    for _ in range(4 * m):
        S = np.flatnonzero(on)
        try:
            x_S, d = np.linalg.solve(G[np.ix_(S, S)], np.stack((c[S] - lam * ws[S], ws[S]), 1)).T
        except np.linalg.LinAlgError:
            return lam, x
        a, b = c - G[:, S] @ x_S, G[:, S] @ d
        gaps = np.concatenate((lam * w - a, lam * w + a))
        rates = np.concatenate((w - b, w + b))
        joins = np.where(gaps > 0.0, gaps / np.maximum(rates, 0.0), 0.0)
        shut = on | (S.size >= n)
        joins[np.concatenate((shut | dropped & (ws > 0), shut | dropped & (ws < 0)))] = np.inf
        for k in np.argsort(joins, kind="stable"):
            side, j = divmod(int(k), m)
            schur = G[j, j] - G[j, S] @ np.linalg.solve(G[np.ix_(S, S)], G[S, j])
            if not np.isfinite(joins[k]) or schur > 1e-14 * G[j, j]:
                break
        drops = np.where(d * ws[S] < 0, np.maximum(-x_S / d, 0.0), np.inf)
        drop = float(drops.min(initial=np.inf))
        step = min(lam, float(joins[k]), drop)
        r0, v = y - Phi[:, S] @ x_S, Phi[:, S] @ d
        crossed = float(np.linalg.norm(r0 - step * v)) <= target
        if crossed:
            q1, q2, r0_norm = r0 @ v, v @ v, np.linalg.norm(r0)
            r_perp = np.linalg.norm(r0 - (q1 / q2) * v)
            disc = q2 * (target - r_perp) * (target + r_perp)
            t = (r0_norm - target) * (r0_norm + target) / (q1 + np.sqrt(max(disc, 0.0)))
            step = min(float(t), step) if t > 0.0 else 0.0
        x = np.zeros(m)
        x[S] = x_S + step * d
        if crossed or step == lam:
            return lam - step, x
        lam -= step
        dropped &= step == 0.0
        if step == drop:
            leave = S[int(np.argmin(drops))]
            on[leave], dropped[leave] = False, True
        else:
            on[j], ws[j] = True, -w[j] if side else w[j]
    return lam, x


def _bench_instance(scan, k):
    """Instance k of a tools/bench_bpdn.py scan, (Phi, y, weights, eps), as
    an instance builder."""
    return lambda _monkeypatch=None: tool_module("bench_bpdn").scan_instance(scan, k)


# bench_bpdn scan instances whose paths drop a coefficient 13 or 14 times
DROPPING = (("random", 5), ("random", 49), ("near_square", 194), ("near_square", 196))


@pytest.mark.parametrize(
    "instance",
    [_demo_first_solve, _noisy_underdetermined]
    + [lambda _, seed=seed: _duplicate_column(seed) for seed in (12, 23, 28)]
    + [lambda _, k=k: _inside_the_slack(k) for k in range(4)]
    + [_bench_instance(scan, k) for scan, k in DROPPING],
    ids=["demo", "underdetermined", "duplicate-12", "duplicate-23", "duplicate-28"]
    + [f"inside-the-slack-{k}" for k in range(4)]
    + [f"{scan}-{k}" for scan, k in DROPPING],
)
def test_lasso_path_matches_the_solve_per_step_reference(instance, monkeypatch):
    args = _path_args(*instance(monkeypatch))
    lam, x = recover._lasso_path_point(*args)
    lam_ref, x_ref = _solved_path_point(*args)
    np.testing.assert_array_equal(np.sign(x), np.sign(x_ref))
    # lam is lam_max less the sum of the steps, so its rounding is relative
    # to lam_max: on the demo solve, lam ~ 3.5e-5 lam_max and both paths'
    # lam agree to 1.7e-12 relative, under one ulp of lam_max
    lam_max = float(np.max(np.abs(args[3]) / args[4]))
    assert lam == pytest.approx(lam_ref, rel=1e-12, abs=1e-15 * lam_max)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12 * np.abs(x_ref).max())


def _path_refusing_pivot(monkeypatch, args, refused):
    """_lasso_path_point(*args) with _sweep refusing its pivot number refused
    (from 0; None refuses none).  Returns lam, x and, for each pivot tried,
    whether it was a drop."""
    sweep = recover._sweep
    drops, swept = [], set()

    def refusing(T, k):
        drops.append(k in swept)
        if len(drops) - 1 == refused:
            return False
        swept.symmetric_difference_update({k})
        return sweep(T, k)

    with monkeypatch.context() as patch:
        patch.setattr(recover, "_sweep", refusing)
        lam, x = recover._lasso_path_point(*args)
    return lam, x, drops


@pytest.mark.parametrize("event", ["join", "drop"])
def test_lasso_path_stops_at_its_last_breakpoint_on_a_refused_pivot(event, monkeypatch):
    # a pivot that is not positive and finite ends the path, on a join or on
    # a drop, at the breakpoint where that event fell: the weighted lasso's
    # point at the lam returned, its residual still above the target.  The
    # 4 m step cap ends a path at the same point after as many steps.
    Phi, y, _, _, w, target = args = _path_args(*_bench_instance(*DROPPING[0])())
    drops = _path_refusing_pivot(monkeypatch, args, None)[2]
    k = drops.index(True) - (event == "join")
    assert k > 0 and drops[k] == (event == "drop")
    lam, x, tried = _path_refusing_pivot(monkeypatch, args, k)
    assert tried == drops[: k + 1]
    r = y - Phi @ x
    assert np.linalg.norm(r) > target
    g = Phi.T @ r
    on = np.abs(x) > 1e-12 * np.abs(x).max()
    assert np.all(np.abs(g[~on]) <= lam * w[~on] * (1 + 1e-9))
    np.testing.assert_allclose(g[on], lam * w[on] * np.sign(x[on]), rtol=1e-9, atol=0)
    # a cap of k steps, the path's own loop bound lowered from 4 m
    monkeypatch.setattr(recover, "range", lambda n: range(k), raising=False)
    lam_cap, x_cap = recover._lasso_path_point(*args)
    assert lam_cap == lam and np.array_equal(x_cap, x)


def test_sweep_twice_restores_the_tableau():
    rng = np.random.Generator(np.random.Philox(8))
    Phi = rng.standard_normal((30, 12))
    T = np.column_stack((Phi.T @ Phi, rng.standard_normal((12, 2))))
    for k in (0, 5, 11):
        swept = T.copy()
        assert recover._sweep(swept, k) and recover._sweep(swept, k)
        np.testing.assert_allclose(swept, T, rtol=0, atol=1e-13 * np.abs(T).max())


def test_sweep_refuses_a_pivot_that_is_not_positive():
    T = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 3.0]])
    for p in (0.0, -1.0, np.inf, np.nan):
        T[0, 0] = p
        kept = T.copy()
        assert not recover._sweep(T, 0)
        np.testing.assert_array_equal(T, kept)


@pytest.mark.parametrize(
    "instance",
    [_demo_first_solve] + [_bench_instance("near_square", k) for k in (17, 130, 281)],
    ids=["demo", "near-square-17", "near-square-130", "near-square-281"],
)
def test_swept_tableau_holds_the_active_solve_and_the_schur_complement(instance, monkeypatch):
    # after each of 40 seeded joins and drops, the active rows of
    # [G | c | w s] hold G_SS^-1 [c_S, w_S s_S], the inactive rows
    # c_j - G_jS G_SS^-1 c_S and w_j s_j - G_jS G_SS^-1 w_S s_S, and the
    # inactive diagonal the Schur complement G_jj - G_jS G_SS^-1 G_Sj, each
    # within 1e-13 of the tableau's largest entry (1.3e-15 at worst here)
    Phi, y, w, _ = instance(monkeypatch)
    m = Phi.shape[1]
    G, c = Phi.T @ Phi, Phi.T @ y
    rng = np.random.Generator(np.random.Philox(m))
    ws = w * rng.choice([-1.0, 1.0], m)
    T = np.column_stack((G, c, ws))
    on = np.zeros(m, dtype=bool)
    for _ in range(40):
        # joins up to 4 active columns, drops down to 8, and between the two
        # a join or a drop at random
        grow = on.sum() < 4 or on.sum() < 8 and rng.random() < 0.5
        k = rng.choice(np.flatnonzero(on != grow))
        assert recover._sweep(T, k)
        on[k] = not on[k]
        S, N = np.flatnonzero(on), np.flatnonzero(~on)
        solved = np.linalg.solve(G[np.ix_(S, S)], np.column_stack((c[S], ws[S], G[S][:, N])))
        scale = np.abs(T).max()
        np.testing.assert_allclose(T[S, m:], solved[:, :2], rtol=0, atol=1e-13 * scale)
        rest = np.column_stack((c[N], ws[N])) - G[np.ix_(N, S)] @ solved[:, :2]
        np.testing.assert_allclose(T[N, m:], rest, rtol=0, atol=1e-13 * scale)
        schur = np.diag(G)[N] - np.einsum("sj,sj->j", G[np.ix_(S, N)], solved[:, 2:])
        np.testing.assert_allclose(np.diag(T)[N], schur, rtol=0, atol=1e-13 * scale)


def _count_admm_iterations(monkeypatch):
    """Wrap kernels.admm_basis_pursuit; returns the list its iteration counts
    are appended to."""
    counts = []
    admm = kernels.admm_basis_pursuit

    def wrapper(*args):
        result = admm(*args)
        counts.append(result[3])
        return result

    monkeypatch.setattr(kernels, "admm_basis_pursuit", wrapper)
    return counts


def _tanh_linearization():
    """Phi = R P, offset R x(T) and observation z of a 512 x 6 tanh system
    linearized at a point away from 0, where the flow is far from linear,
    in the factor [R | z] of [A | b] that recovery solves in."""
    system = DynamicalSystem.tanh_saturated((2.0 * unit_spectral_matrix(6, 7)).tolist())
    xT, P = flow_with_jacobian(system, np.array([0.8, 0.0, -0.6, 0.0, 0.0, 1.1]), 0.8)
    A = gen_gaussian_matrix(512, 6, 1000)
    x0 = np.array([0.0, 0.9, 0.0, 0.0, -1.2, 0.0])
    R, z, _ = recover._in_span(A, A @ (xT + P @ x0))
    return R @ P, R @ xT, z


def _gaussian_linear():
    """A 512 x 24 Gaussian measurement of a 3-sparse state under the zero
    field (P = I), in the factor [R | z] of [A | b]."""
    A = gen_gaussian_matrix(512, 24, 11)
    x0 = np.zeros(24)
    x0[[3, 17, 20]] = [1.0, -0.5, 2.0]
    R, z, _ = recover._in_span(A, A @ x0)
    return R, np.zeros(25), z


@pytest.mark.parametrize("instance", [_tanh_linearization, _gaussian_linear])
def test_basis_pursuit_with_full_column_rank_takes_one_iteration(instance, monkeypatch):
    # the only feasible point is the least-squares point, where the warm
    # start's sign dual already satisfies the kernel's stopping test; the
    # shape is recovery's, m + 1 rows of the factor of a 512-row [A | b]
    Phi, offset, observation = instance()
    m = Phi.shape[1]
    assert Phi.shape == (m + 1, m)
    counts = _count_admm_iterations(monkeypatch)
    x = solve_weighted_bpdn(Phi, offset, observation, np.ones(m), 0.0)
    assert counts == [1]
    x_ls = np.linalg.lstsq(Phi, observation - offset, rcond=None)[0]
    np.testing.assert_allclose(x, x_ls, rtol=0, atol=1e-12)


def test_criterion_6_tanh_trial_never_caps_basis_pursuit(monkeypatch):
    # trial 0 of criterion 6's tanh eps = 0 block, whose first two
    # linearizations used to run basis pursuit to its iteration cap
    system = DynamicalSystem.tanh_saturated(unit_spectral_matrix(12, 7).tolist())
    cfg = ExperimentConfig(
        seed=601, trials=67, system=system, n=512, sparsity=1, noise_radius=0.0, magnitudes="unit"
    )
    counts = _count_admm_iterations(monkeypatch)
    record = run_trial(cfg, 0)
    assert counts and max(counts) < recover._ADMM_MAX_ITER
    assert record.converged and record.error_l2 <= 1e-6


@pytest.mark.parametrize("n, m, s, seed", [(6, 12, 1, 40), (24, 48, 3, 41), (96, 128, 8, 44)])
def test_underdetermined_warm_start_matches_a_cold_kernel_run(n, m, s, seed):
    Phi = gaussian_unit_columns(n, m, seed)
    rng = np.random.Generator(np.random.Philox(seed + 100))
    x0 = np.zeros(m)
    x0[rng.choice(m, size=s, replace=False)] = rng.uniform(0.5, 1.5, s) * rng.choice([-1, 1], s)
    y = Phi @ x0
    warm = solve_weighted_bpdn(Phi, np.zeros(n), y, np.ones(m), 0.0)
    _, cold, _, _ = kernels.admm_basis_pursuit(
        Phi,
        np.linalg.pinv(Phi),
        y,
        np.ones(m),
        np.zeros(m),
        np.zeros(m),
        recover._ADMM_MAX_ITER,
        recover._ADMM_TOL,
    )
    np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-8)
    np.testing.assert_allclose(warm, x0, rtol=0, atol=1e-6)
    np.testing.assert_allclose(cold, x0, rtol=0, atol=1e-6)


def test_lasso_kernel_meets_kkt_caps_and_restarts_at_its_fixed_point():
    Phi = gen_gaussian_matrix(512, 12, 3)
    x0 = np.zeros(12)
    x0[[1, 6, 9]] = [1.0, -0.7, 0.4]
    y = Phi @ x0 + 0.05 * np.random.Generator(np.random.Philox(4)).standard_normal(512)
    w = np.ones(12)
    # the step weight rho = 1 that solve_weighted_bpdn runs the kernel at
    Phi_t_y = Phi.T @ y
    lam = 0.3 * float(np.max(np.abs(Phi_t_y) / w))
    F_inv = np.ascontiguousarray(np.linalg.inv(Phi.T @ Phi + np.eye(12)))

    def lasso(z0, u0, max_iter):
        return kernels.admm_lasso(F_inv, Phi_t_y, 1.0, lam * w, z0, u0, max_iter, recover._ADMM_TOL)

    z, u, it = lasso(np.zeros(12), np.zeros(12), recover._ADMM_MAX_ITER)
    assert it < recover._ADMM_MAX_ITER
    # the lasso's KKT conditions at z
    c = Phi.T @ (y - Phi @ z)
    on = z != 0
    assert on.any() and not on.all()
    assert np.all(np.abs(c[~on]) <= lam * w[~on] * (1 + 1e-6))
    np.testing.assert_allclose(c[on], lam * w[on] * np.sign(z[on]), rtol=0, atol=1e-6 * lam)
    # a capped run reports the cap, which the pipeline benchmark counts as a cap hit
    assert lasso(np.zeros(12), np.zeros(12), 3)[2] == 3
    # restarted at its own fixed point, the first iteration passes the stopping test
    assert lasso(z, u, recover._ADMM_MAX_ITER)[2] == 1


# --- recover_initial_state --------------------------------------------------------


def test_recovery_on_zero_system_equals_direct_bpdn():
    A = gaussian_unit_columns(6, 12, 41)
    x0 = np.zeros(12)
    x0[4] = 2.0
    problem = _problem(DynamicalSystem.zero(12), A, x0, T=1.0)
    out = recover_initial_state(problem)
    # recovery solves on the measurement (R, z) it reads off [A | b]; with
    # n = 6 < m, R has A's 6 rows
    R, z, _ = recover._in_span(A, problem.observation)
    assert R.shape == (6, 12)
    direct = solve_weighted_bpdn(R, np.zeros(6), z, np.ones(12), 0.0)
    np.testing.assert_array_equal(out.estimate, direct)
    assert out.iterations == 1
    assert out.converged


def test_recovery_linear_decay_one_iteration():
    system = DynamicalSystem.linear((-np.eye(2)).tolist())
    b = math.exp(-1.0) * np.array([1.0, 0.0])
    meas = MeasurementModel(matrix=np.eye(2), time=1.0, noise_radius=0.0, weights=np.ones(2))
    problem = SparseProblem(system=system, measurement=meas, observation=b, sparsity=1)
    out = recover_initial_state(problem)
    np.testing.assert_allclose(out.estimate, [1.0, 0.0], atol=1e-6)
    assert out.iterations == 1
    assert out.converged
    assert out.residual <= 1e-6


def test_recovery_saturated_system_converges():
    M = unit_spectral_matrix(4, 21)
    system = DynamicalSystem.tanh_saturated(M.tolist())
    A = gen_gaussian_matrix(8, 4, 31)
    x0 = np.zeros(4)
    x0[2] = 0.9
    problem = _problem(system, A, x0, T=0.4)
    out = recover_initial_state(problem)
    assert out.converged
    assert np.linalg.norm(out.estimate - x0) < 1e-8
    assert out.residual <= SolverConfig().residual_match_tol
    assert out.iterations >= 1


@pytest.mark.parametrize("kind", ["zero", "linear", "affine", "tanh_saturated"])
def test_recovery_reports_true_integrated_residual(kind):
    # affine-flow kinds take the residual from the flow at 0, tanh from the
    # line search's accepted point; both must match a fresh integration
    rng = np.random.Generator(np.random.Philox(73))
    system = {s.kind: s for s in catalog_systems(5, 22)}[kind]
    A = gen_gaussian_matrix(16, 5, 32)
    x0 = np.zeros(5)
    x0[1] = -0.7
    e = rng.standard_normal(16)
    eps = 1e-3
    e *= eps / np.linalg.norm(e)
    problem = _problem(system, A, x0, T=0.3, eps=eps, noise=e)
    out = recover_initial_state(problem)
    xT = integrate(system, out.estimate, 0.3).final_state
    recomputed = float(np.linalg.norm(problem.observation - A @ xT))
    assert math.isclose(out.residual, recomputed, rel_tol=1e-12)
    assert out.converged
    assert out.residual <= eps + SolverConfig().residual_match_tol


def _tanh_instance():
    """A 1-sparse problem under the tanh field, 8 x 4, that recovery solves
    in a few undamped steps."""
    system = DynamicalSystem.tanh_saturated(unit_spectral_matrix(4, 21).tolist())
    x0 = np.zeros(4)
    x0[2] = 0.9
    return _problem(system, gen_gaussian_matrix(8, 4, 31), x0, T=0.4)


def test_recovery_linearizes_at_the_accepted_line_search_point(monkeypatch):
    problem = _tanh_instance()
    R, _, _ = recover._in_span(problem.measurement.matrix, problem.observation)
    calls, jacobians, linearizations, searches = [], [], [], []
    _count_calls(monkeypatch, kernels, "rk4_path", calls)
    _count_calls(monkeypatch, kernels, "rk4_flow_jacobian", calls)
    flow, solve = recover.flow_with_jacobian, recover.solve_weighted_bpdn
    search = recover._line_search

    def flowing(system, X, T, icfg):
        XT, P = flow(system, X, T, icfg)
        jacobians.append(P.reshape(-1, 4, 4)[-1])
        return XT, P

    def solving(Phi, *args):
        linearizations.append(Phi)
        return solve(Phi, *args)

    def searching(*args):
        found = search(*args)
        searches.append((args[5], args[6], found))
        return found

    monkeypatch.setattr(recover, "flow_with_jacobian", flowing)
    monkeypatch.setattr(recover, "solve_weighted_bpdn", solving)
    monkeypatch.setattr(recover, "_line_search", searching)
    out = recover_initial_state(problem)
    assert out.converged and out.iterations > 1
    # one flow at x=0, then one per search: every step is accepted undamped,
    # and the solve that proposes a step shorter than outer_tol ends the
    # loop before any flow of its proposal
    assert calls == ["rk4_flow_jacobian"] * out.iterations
    assert len(searches) == out.iterations - 1
    # the estimate is the last point a search accepted, with its residual
    X, steps, (t, _, _, rn) = searches[-1]
    assert t[0] > 0.0
    assert np.array_equal(out.estimate, X[0] + t[0] * steps[0])
    assert out.residual == rn[0]
    # the flow Jacobian at each accepted point is the next linearization, in
    # the rows of the triangular factor of [A | b]
    assert len(linearizations) == len(jacobians) == out.iterations
    for Phi, P in zip(linearizations, jacobians):
        assert np.array_equal(Phi, R @ P)


def test_a_damped_step_does_not_end_the_recovery(monkeypatch):
    # the first search runs on the step scaled by 2^-28 and reports its t
    # scaled so, which lands recovery on the same point with an accepted
    # step far shorter than outer_tol; only a short proposal stops the loop
    problem = _tanh_instance()
    search = recover._line_search
    scale = 2.0**-28
    searched = []

    def damped(*args):
        searched.append(args)
        if len(searched) > 1:
            return search(*args)
        steps = args[6]
        t, XT, P, rn = search(*args[:6], steps * scale, *args[7:])
        assert t[0] * scale * np.linalg.norm(steps) < SolverConfig().outer_tol
        return t * scale, XT, P, rn

    monkeypatch.setattr(recover, "_line_search", damped)
    out = recover_initial_state(problem)
    assert out.converged and out.iterations > 2 and len(searched) == out.iterations - 1
    assert out.residual <= SolverConfig().residual_match_tol


def test_the_closed_form_tries_the_support_of_the_last_proposal(monkeypatch):
    # trial 0 of the demo sweep with its second search run on half the step
    # and its t halved to match: recovery lands on the midpoint of that step,
    # which carries the union of two supports, and the next linearization
    # tries the closed form on the support and signs of the proposal the
    # step came from, which it certifies
    search, lock, solve = recover._line_search, recover._locked_solve, recover.solve_weighted_bpdn

    def run(damp):
        searches, damped_at, locked, proposals, paths = [], [], [], [], []

        def damped(*args):
            searches.append(args)
            if len(searches) != 2 or not damp:
                return search(*args)
            X, steps = args[5:7]
            t, XT, P, rn = search(*args[:6], 0.5 * steps, *args[7:])
            damped_at.append(X[0] + 0.5 * t[0] * steps[0])
            return 0.5 * t, XT, P, rn

        def locking(*args):
            x = lock(*args)
            locked.append((args, x is not None))
            if x is not None:
                proposals.append(x)
            return x

        def solving(*args):
            paths.append(1)
            proposals.append(solve(*args))
            return proposals[-1]

        with monkeypatch.context() as patch:
            patch.setattr(recover, "_line_search", damped)
            patch.setattr(recover, "_locked_solve", locking)
            patch.setattr(recover, "solve_weighted_bpdn", solving)
            record = run_trial(load_experiment_config(_DEMO_CONFIG), 0)
        assert record.converged
        return damped_at, locked, proposals, len(paths)

    damped_at, locked, proposals, paths = run(damp=True)
    [x] = damped_at
    # locked[0] is the second linearization's try, locked[1] the third's, on
    # the second linearization's proposal
    args, certified = locked[1]
    support, signs = args[5:]
    assert np.array_equal(support, np.flatnonzero(proposals[1]))
    assert np.array_equal(signs, np.sign(proposals[1][support]))
    assert support.size == 3 < np.count_nonzero(x) and certified
    # a try on the damped iterate's support is refused, and the path would
    # solve again; this run solves on the path as often as the undamped one
    on = np.flatnonzero(x)
    assert lock(*args[:5], on, np.sign(x[on])) is None
    assert paths == run(damp=False)[3] == 2


def test_tanh_recovery_stops_unconverged_at_outer_max_iter():
    config = load_experiment_config(_DEMO_CONFIG)
    assert run_trial(config, 0).iterations > 2
    capped = run_trial(dataclasses.replace(config, solver=SolverConfig(outer_max_iter=2)), 0)
    assert not capped.converged and capped.iterations == 2


def test_recovery_reports_no_convergence_when_the_line_search_gives_up(monkeypatch):
    # every trial point's final state is pushed far off, so no damping meets
    # the residual bound: the search halves t to the floor and gives up on
    # the first step, and the recovery stays at x = 0
    problem = _tanh_instance()
    system, A = problem.system, problem.measurement.matrix
    flow = recover.flow_with_jacobian
    tried = []

    def far_off(system, X, T, icfg):
        XT, P = flow(system, X, T, icfg)
        tried.append(X.shape)
        # the flow at x = 0 is one state; the line search flows rows
        return (XT, P) if X.ndim == 1 else (XT + 1e3, P)

    monkeypatch.setattr(recover, "flow_with_jacobian", far_off)
    icfg = IntegrationConfig.fixed(32)
    out = recover_initial_state(problem, icfg)
    halvings = 1 - int(math.log2(recover._RECOVER_DAMPING_FLOOR))
    assert tried == [(4,)] + [(1, 4)] * halvings
    assert not out.converged and out.iterations == 1
    assert np.array_equal(out.estimate, np.zeros(4))
    xT = flow_with_jacobian(system, np.zeros(4), 0.4, icfg)[0]
    R, z, _ = recover._in_span(A, problem.observation)
    assert out.residual == float(np.linalg.norm(z - R @ xT))


def test_recovery_propagates_infeasibility():
    system = DynamicalSystem.zero(1)
    meas = MeasurementModel(
        matrix=np.array([[1.0], [1.0]]), time=1.0, noise_radius=0.0, weights=np.ones(1)
    )
    problem = SparseProblem(
        system=system, measurement=meas, observation=np.array([1.0, -1.0]), sparsity=1
    )
    with pytest.raises(InfeasibleError):
        recover_initial_state(problem)


def test_recovery_weight_scaling_invariance():
    A = gaussian_unit_columns(6, 12, 42)
    x0 = np.zeros(12)
    x0[9] = 1.5
    p1 = _problem(DynamicalSystem.zero(12), A, x0, T=1.0, weights=np.ones(12))
    p2 = _problem(DynamicalSystem.zero(12), A, x0, T=1.0, weights=5.0 * np.ones(12))
    e1 = recover_initial_state(p1).estimate
    e2 = recover_initial_state(p2).estimate
    np.testing.assert_allclose(e1, e2, atol=1e-9)


# --- shared line search ------------------------------------------------------------


def _reference_line_search(system, A, b, T, icfg, x, step, bound, floor):
    """One row of the line search: halve t from 1 until the residual at
    x + t * step is at most bound, one flow integration per trial point.
    Returns (t, final state, flow Jacobian, residual norm), t = 0 on failure."""
    t = 1.0
    while t >= floor:
        xT, P = flow_with_jacobian(system, x + t * step, T, icfg)
        rn = float(np.linalg.norm(b - A @ xT))
        if rn <= bound:
            return t, xT, P, rn
        t *= 0.5
    return 0.0, None, None, None


def test_line_search_matches_per_row_reference():
    M = unit_spectral_matrix(4, 24)
    system = DynamicalSystem.tanh_saturated((2.0 * M).tolist())
    A = gen_gaussian_matrix(6, 4, 34)
    T = 0.5
    icfg = IntegrationConfig.fixed(64)
    truth = np.array([0.0, 1.5, 0.0, -0.8])
    b = A @ integrate(system, truth, T, icfg).final_state
    X = np.array([[0.0, 1.0, 0.0, -0.5], [0.0, 1.0, 0.0, -0.5], [0.1, 0.0, 0.0, 0.0]])
    to_truth = truth - X
    # undamped, overshooting sixteenfold, and heading away from the truth
    steps = np.array([1.0, 16.0, -1.0])[:, None] * to_truth
    r0 = np.linalg.norm(b - integrate(system, X[0], T, icfg).final_state @ A.T)
    r2 = np.linalg.norm(b - integrate(system, X[2], T, icfg).final_state @ A.T)
    bound = np.array([0.5 * r0, r0, np.nextafter(r2, 0)])
    floor = 2.0**-12
    ref = [
        _reference_line_search(system, A, b, T, icfg, x, d, bd, floor)
        for x, d, bd in zip(X, steps, bound)
    ]
    # recovery's measurement, and the oracle's equivalent (R, z) from the
    # triangular factor of [A | b]
    for A_m, b_m in ((A, b), recover._in_span(A, b)[:2]):
        t, XT, P, rn = recover._line_search(system, A_m, b_m, T, icfg, X, steps, bound, floor)
        np.testing.assert_array_equal(t, [r[0] for r in ref])
        # the mix: accepted undamped, accepted after several halvings, given up
        assert t[0] == 1.0 and 0.0 < t[1] <= 0.125 and t[2] == 0.0
        for i, (t_ref, xT_ref, P_ref, rn_ref) in enumerate(ref):
            if t_ref > 0:
                np.testing.assert_allclose(XT[i], xT_ref, rtol=0, atol=1e-13)
                np.testing.assert_allclose(P[i], P_ref, rtol=0, atol=1e-13)
                assert rn[i] == pytest.approx(rn_ref, rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_tanh_recovery_residual_is_the_jacobian_flows(eps):
    # the estimate is the last point a search flowed with its Jacobian, and
    # the residual is that flow's, bit for bit
    system = {s.kind: s for s in catalog_systems(5, 22)}["tanh_saturated"]
    A = gen_gaussian_matrix(16, 5, 32)
    x0 = np.zeros(5)
    x0[1] = -0.7
    e = np.random.Generator(np.random.Philox(73)).standard_normal(16)
    e *= eps / np.linalg.norm(e)
    problem = _problem(system, A, x0, T=0.3, eps=eps, noise=e)
    icfg = IntegrationConfig.fixed(64)
    out = recover_initial_state(problem, icfg)
    assert out.converged
    XT = flow_with_jacobian(system, out.estimate[None], 0.3, icfg)[0]
    R, z, _ = recover._in_span(A, problem.observation)
    assert out.residual == np.linalg.norm(z - XT @ R.T, axis=1)[0]


def _noisy_planted(kind, n, m, eps, seed):
    """A 2-sparse problem of the catalog system kind with an n x m matrix,
    observed with noise of norm eps / 2."""
    system = {s.kind: s for s in catalog_systems(m, 7)}[kind]
    x0 = np.zeros(m)
    x0[[1, 4]] = [0.9, -1.2]
    e = np.random.Generator(np.random.Philox(seed)).standard_normal(n)
    e *= 0.5 * eps / np.linalg.norm(e)
    return _problem(system, gen_gaussian_matrix(n, m, seed), x0, T=0.3, eps=eps, s=2, noise=e)


@pytest.mark.parametrize(
    "kind, eps",
    [("zero", 0.0), ("linear", 1e-3), ("tanh_saturated", 0.0), ("tanh_saturated", 1e-3)],
)
def test_recovery_measures_in_the_span_of_A(kind, eps, monkeypatch):
    # n = 512 rows, m = 6 columns: [A | b] is factored once per problem, R
    # only, however often it is recovered, and every linearization and
    # measurement that recovery solves, tries in closed form or searches on
    # has m + 1 rows
    problem = _noisy_planted(kind, 512, 6, eps, 1003)
    icfg = IntegrationConfig.fixed(16)
    factored, rows = [], {}
    qr = np.linalg.qr

    def counted_qr(a, mode="reduced"):
        factored.append((a.shape, mode))
        return qr(a, mode)

    def recorded(name, measured):
        fn = getattr(recover, name)

        def call(*args):
            rows.setdefault(name, []).extend(args[i].shape[0] for i in measured)
            return fn(*args)

        monkeypatch.setattr(recover, name, call)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    # (Phi, offset, observation), (Phi, y) and the line search's (A, b)
    recorded("solve_weighted_bpdn", (0, 1, 2))
    recorded("_locked_solve", (0, 1))
    recorded("_line_search", (1, 2))
    outs = [recover_initial_state(problem, icfg) for _ in range(2)]
    assert factored == [((512, 7), "r")]
    # an equal problem is factored once more, and recovers the same
    fresh = recover_initial_state(dataclasses.replace(problem), icfg)
    assert factored == [((512, 7), "r")] * 2
    assert to_doc(outs[0]) == to_doc(outs[1]) == to_doc(fresh)
    assert fresh.converged
    assert {r for found in rows.values() for r in found} == {7}
    expected = {"solve_weighted_bpdn"}
    if kind == "tanh_saturated":
        expected |= {"_line_search"} | ({"_locked_solve"} if eps > 0.0 else set())
    assert rows.keys() == expected


@pytest.mark.parametrize("kind", ["linear", "tanh_saturated"])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_recovery_with_fewer_rows_than_columns_matches_the_n_row_measurement(
    kind, eps, monkeypatch
):
    # n = 8 < m = 12: R has A's 8 rows, a rotation of the measurement, and
    # the estimate is recovery's on (A, b) itself to rounding
    problem = _noisy_planted(kind, 8, 12, eps, 77)
    A, b = problem.measurement.matrix, problem.observation
    assert recover._in_span(A, b)[0].shape == (8, 12)
    icfg = IntegrationConfig.fixed(32)
    out = recover_initial_state(problem, icfg)
    with monkeypatch.context() as patch:
        patch.setattr(recover, "_in_span", lambda A, b: (A, b, A.shape[0]))
        # an equal problem, as this one keeps its factor
        ref = recover_initial_state(dataclasses.replace(problem), icfg)
    assert out.converged and ref.converged and out.iterations == ref.iterations
    assert np.linalg.norm(out.estimate - ref.estimate) <= 1e-12 * np.linalg.norm(ref.estimate)
    assert abs(out.residual - ref.residual) <= 1e-12 * np.linalg.norm(b)


# --- l0 oracle --------------------------------------------------------------------


def test_oracle_identity_measurement():
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    problem = _problem(DynamicalSystem.zero(4), np.eye(4), e2, T=1.0)
    out = l0_oracle(problem)
    np.testing.assert_allclose(out.estimate, e2, atol=1e-12)
    assert out.residual <= 1e-9
    assert out.converged
    # one empty support plus four singletons
    assert out.iterations == 5


def test_oracle_zero_observation_prefers_empty_support():
    M = unit_spectral_matrix(3, 23)
    for system in (
        DynamicalSystem.zero(3),
        DynamicalSystem.linear(M.tolist()),
        DynamicalSystem.tanh_saturated(M.tolist()),
    ):
        problem = _problem(system, gen_gaussian_matrix(2, 3, 33), np.zeros(3), T=0.5)
        out = l0_oracle(problem)
        np.testing.assert_array_equal(out.estimate, np.zeros(3))
        assert out.converged
        assert out.iterations == 1


def test_oracle_recovers_planted_support_inside_horizon():
    A = gaussian_unit_columns(3, 6, 8)
    delta2 = rip_constant_exact(A, 2).delta
    assert delta2 < 1.0
    system = DynamicalSystem.linear((-np.eye(6)).tolist())
    T = 0.9 * observability_horizon(system.lipschitz, delta2, operator_norm(A))
    x0 = np.zeros(6)
    x0[4] = -1.3
    problem = _problem(system, A, x0, T=T)
    out = l0_oracle(problem)
    assert out.converged
    np.testing.assert_allclose(out.estimate, x0, atol=1e-8)
    # the empty support and every singleton get examined before returning
    assert out.iterations == 7
    assert out.residual <= 1e-9


def test_oracle_budget_refusal():
    problem = _problem(DynamicalSystem.zero(4), np.eye(4), np.zeros(4), T=1.0, s=2)
    with pytest.raises(BudgetError):
        l0_oracle(problem, budget=5)
    with pytest.raises(DomainError):
        l0_oracle(problem, budget=0)


def test_oracle_reports_best_infeasible_fit():
    # b = (1,1) is not reachable by any 1-sparse state under the identity
    system = DynamicalSystem.zero(2)
    meas = MeasurementModel(matrix=np.eye(2), time=1.0, noise_radius=0.0, weights=np.ones(2))
    problem = SparseProblem(
        system=system, measurement=meas, observation=np.array([1.0, 1.0]), sparsity=1
    )
    out = l0_oracle(problem)
    assert not out.converged
    assert math.isclose(out.residual, 1.0, rel_tol=1e-9)
    assert out.iterations == 3


def test_oracle_and_l1_agree_on_wide_planted_instance():
    A = gaussian_unit_columns(6, 12, 40)
    system = DynamicalSystem.linear((-0.5 * np.eye(12)).tolist())
    x0 = np.zeros(12)
    x0[7] = -1.4
    problem = _problem(system, A, x0, T=0.2)
    l1 = recover_initial_state(problem)
    l0 = l0_oracle(problem)
    assert l1.converged and l0.converged
    s1 = set(np.flatnonzero(np.abs(l1.estimate) > 1e-8))
    s0 = set(np.flatnonzero(np.abs(l0.estimate) > 1e-8))
    assert s1 == s0 == {7}
    np.testing.assert_allclose(l1.estimate, l0.estimate, atol=1e-6)


def test_objective_dominance_on_converged_runs():
    # the truth is feasible, so the returned objective can exceed it only by
    # the solver's own convergence slack
    A = gaussian_unit_columns(6, 12, 43)
    w = np.linspace(1.0, 2.0, 12)
    x0 = np.zeros(12)
    x0[3] = 1.1
    problem = _problem(DynamicalSystem.zero(12), A, x0, T=1.0, weights=w)
    out = recover_initial_state(problem)
    assert out.converged
    assert out.weighted_l1 <= weighted_l1_norm(x0, w) + 1e-6


# --- lockstep oracle against a per-support reference ------------------------------


def _reference_support_fit(system, A, b, T, icfg, support):
    """The oracle's fit one support at a time: damped Gauss-Newton on the
    initial state restricted to support, starting from zero, one flow
    integration per trial point, stopped by the same tests as the lockstep
    fits.  Returns (state, residual norm, iterations begun)."""
    m = system.dim
    b_scale = max(1.0, float(np.linalg.norm(b)))
    x = np.zeros(m)
    xT, P = flow_with_jacobian(system, x, T, icfg)
    r = b - A @ xT
    rn = float(np.linalg.norm(r))
    if len(support) == 0:
        return x, rn, 0
    cols = np.array(support, dtype=np.intp)
    iterations = 0
    for _ in range(60):
        iterations += 1
        if rn <= 1e-14 * b_scale:
            break
        J = (A @ P)[:, cols]
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        # the Gauss-Newton model predicts no decrease above rounding
        if float(np.linalg.norm(J @ step)) ** 2 <= len(b) * np.finfo(float).eps * rn**2:
            break
        t = 1.0
        accepted = False
        while t >= 2.0**-20:
            x_try = x.copy()
            x_try[cols] += t * step
            xT_try, P_try = flow_with_jacobian(system, x_try, T, icfg)
            r_try = b - A @ xT_try
            rn_try = float(np.linalg.norm(r_try))
            if rn_try < rn:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        x, xT, P, r, rn = x_try, xT_try, P_try, r_try, rn_try
    return x, rn, iterations


def _reference_oracle(problem, icfg):
    """(estimate, residual, supports examined, converged) chosen from the
    reference fits: smaller support, then smaller residual, then earlier."""
    meas = problem.measurement
    feas_cut = meas.noise_radius + 1e-9
    examined, best_x, best_rn = 0, None, math.inf
    for k in range(problem.sparsity + 1):
        level_x, level_rn = None, math.inf
        for support in itertools.combinations(range(problem.system.dim), k):
            x, rn, _ = _reference_support_fit(
                problem.system, meas.matrix, problem.observation, meas.time, icfg, support
            )
            examined += 1
            if rn < best_rn:
                best_x, best_rn = x, rn
            if rn <= feas_cut and rn < level_rn:
                level_x, level_rn = x, rn
        if level_x is not None:
            return level_x, level_rn, examined, True
    return best_x, best_rn, examined, False


def _tanh_pair_problem():
    M = unit_spectral_matrix(6, 7)
    x0 = np.zeros(6)
    x0[[1, 4]] = [0.9, -1.2]
    return _problem(
        DynamicalSystem.tanh_saturated(M.tolist()), gen_gaussian_matrix(40, 6, 1003), x0, T=0.5, s=2
    )


def _assert_oracle_matches_reference(problem, icfg):
    ref_x, ref_rn, ref_examined, ref_converged = _reference_oracle(problem, icfg)
    out = l0_oracle(problem, icfg)
    assert out.converged == ref_converged
    assert out.iterations == ref_examined
    np.testing.assert_allclose(out.estimate, ref_x, rtol=0, atol=1e-10)
    assert out.residual == pytest.approx(ref_rn, rel=1e-6, abs=1e-12)
    return out


def test_lockstep_support_fits_match_per_support_reference():
    problem = _tanh_pair_problem()
    meas = problem.measurement
    icfg = IntegrationConfig.fixed(32)
    supports = np.array(list(itertools.combinations(range(6), 2)), dtype=np.intp)
    ref = [
        _reference_support_fit(
            problem.system, meas.matrix, problem.observation, meas.time, icfg, sup
        )
        for sup in supports
    ]
    # the fits stop at different iterations, so lockstep bookkeeping matters
    assert len({it for _, _, it in ref}) > 1
    flow0 = flow_with_jacobian(problem.system, np.zeros(6), meas.time, icfg)
    span = recover._in_span(meas.matrix, problem.observation)
    X, rn = recover._fit_supports(problem.system, span, meas.time, icfg, flow0, supports)
    # a support that cannot fit the data stops on a flat residual minimum,
    # where rounding moves the stopping point by about sqrt(machine eps)
    for (x_ref, rn_ref, _), x, r in zip(ref, X, rn):
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-7)
        assert r == pytest.approx(rn_ref, rel=1e-8, abs=1e-12)
    out = _assert_oracle_matches_reference(problem, icfg)
    assert out.converged
    assert set(np.flatnonzero(out.estimate)) == {1, 4}


def test_lockstep_oracle_matches_reference_in_adaptive_mode():
    _assert_oracle_matches_reference(_tanh_pair_problem(), IntegrationConfig.adaptive())


def test_oracle_fits_stop_before_a_line_search_that_cannot_decrease(monkeypatch):
    problem = _tanh_pair_problem()
    calls, damping = [], []
    _count_calls(monkeypatch, kernels, "rk4_flow_jacobian", calls)
    search = recover._line_search

    def recording(*args):
        out = search(*args)
        damping.extend(out[0])
        return out

    monkeypatch.setattr(recover, "_line_search", recording)
    out = l0_oracle(problem)
    assert out.converged
    assert set(np.flatnonzero(out.estimate)) == {1, 4}
    # a fit at its residual minimum stops before its line search; without
    # that test 20 searches here halved t down to the floor and gave up, and
    # the oracle made 239 flow Jacobian calls
    assert damping and min(damping) > 0.0
    assert len(calls) <= 20


def test_oracle_fit_blocks_leave_when_no_fit_is_left_to_search(monkeypatch):
    # both blocks of the pair problem end on a pass where every fit still
    # running stops at the predicted-decrease test.  The loop leaves there;
    # it used to search zero rows and run one more empty pass, 14 calls
    # where these are 12, for the same outcome
    problem = _tanh_pair_problem()
    searched = []
    search = recover._line_search

    def recording(*args):
        searched.append(len(args[5]))
        return search(*args)

    monkeypatch.setattr(recover, "_line_search", recording)
    doc = to_doc(l0_oracle(problem))
    # rows searched per call: the 6 supports of size 1, then the 15 of size 2
    assert searched == [6, 6, 5, 3, 2, 15, 15, 15, 9, 8, 2, 1]
    # the outcome before the early exit; a value may differ from it in the
    # last bits where BLAS sums in another order
    assert doc.keys() == {"estimate", "residual", "weighted_l1", "iterations", "converged"}
    assert doc["iterations"] == 22 and doc["converged"] is True
    before = [0.0, 0.8999999999999998, 0.0, 0.0, -1.1999999999999982, 0.0]
    np.testing.assert_allclose(doc["estimate"], before, rtol=0, atol=1e-12)
    assert [doc["estimate"][i] for i in (0, 2, 3, 5)] == [0.0] * 4
    assert doc["weighted_l1"] == pytest.approx(2.099999999999998, rel=1e-12)
    assert doc["residual"] <= 1e-14 * max(1.0, float(np.linalg.norm(problem.observation)))


def test_planted_support_fit_converges_to_a_zero_residual():
    system = DynamicalSystem.tanh_saturated((2.0 * unit_spectral_matrix(6, 7)).tolist())
    A = gen_gaussian_matrix(40, 6, 1003)
    T = 0.5
    icfg = IntegrationConfig.fixed(32)
    x0 = np.zeros(6)
    x0[[1, 4]] = [1.5, -2.0]
    # an observation the fit's own flow reproduces exactly at x0
    b = A @ flow_with_jacobian(system, x0, T, icfg)[0]
    flow0 = flow_with_jacobian(system, np.zeros(6), T, icfg)
    span = recover._in_span(A, b)
    X, rn = recover._fit_supports(system, span, T, icfg, flow0, np.array([[1, 4]]))
    _, _, iterations = _reference_support_fit(system, A, b, T, icfg, (1, 4))
    # several Gauss-Newton steps, none stopped while the residual still fell
    assert iterations > 3
    assert rn[0] <= 1e-14 * max(1.0, float(np.linalg.norm(b)))
    np.testing.assert_allclose(X[0], x0, rtol=0, atol=1e-12)


def test_pair_problem_planted_fit_runs_on_to_the_residual_test():
    # a step-length stop used to end this fit at residual 1.2e-13, one
    # quadratically converging step short of the 1e-14 * ||b|| test
    problem = _tanh_pair_problem()
    meas = problem.measurement
    icfg = IntegrationConfig.fixed(32)
    x0 = np.zeros(6)
    x0[[1, 4]] = [0.9, -1.2]
    b = meas.matrix @ flow_with_jacobian(problem.system, x0, meas.time, icfg)[0]
    flow0 = flow_with_jacobian(problem.system, np.zeros(6), meas.time, icfg)
    span = recover._in_span(meas.matrix, b)
    X, rn = recover._fit_supports(problem.system, span, meas.time, icfg, flow0, np.array([[1, 4]]))
    assert rn[0] <= 1e-14 * max(1.0, float(np.linalg.norm(b)))
    _, rn_ref, _ = _reference_support_fit(problem.system, meas.matrix, b, meas.time, icfg, (1, 4))
    assert rn_ref <= 1e-14 * max(1.0, float(np.linalg.norm(b)))


def test_noisy_oracle_fits_match_per_support_reference():
    M = unit_spectral_matrix(5, 11)
    x0 = np.zeros(5)
    x0[[0, 3]] = [1.1, -0.8]
    noise = 1e-3 * np.random.Generator(np.random.Philox(12)).normal(size=30)
    problem = _problem(
        DynamicalSystem.tanh_saturated((1.5 * M).tolist()),
        gen_gaussian_matrix(30, 5, 1011),
        x0,
        T=0.6,
        eps=1.5 * float(np.linalg.norm(noise)),
        s=2,
        noise=noise,
    )
    meas = problem.measurement
    icfg = IntegrationConfig.fixed(32)
    supports = np.array(list(itertools.combinations(range(5), 2)), dtype=np.intp)
    flow0 = flow_with_jacobian(problem.system, np.zeros(5), meas.time, icfg)
    span = recover._in_span(meas.matrix, problem.observation)
    X, rn = recover._fit_supports(problem.system, span, meas.time, icfg, flow0, supports)
    # every fit ends on a residual minimum above zero
    assert np.all(rn > 1e-6)
    for sup, x, r in zip(supports, X, rn):
        x_ref, rn_ref, _ = _reference_support_fit(
            problem.system, meas.matrix, problem.observation, meas.time, icfg, sup
        )
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-7)
        assert r == pytest.approx(rn_ref, rel=1e-8, abs=1e-12)
    out = _assert_oracle_matches_reference(problem, icfg)
    assert out.converged
    assert set(np.flatnonzero(out.estimate)) == {0, 3}


@pytest.mark.parametrize("solve", [recover_initial_state, l0_oracle])
def test_adaptive_mode_settles_the_step_count_once(solve, monkeypatch):
    problem = _tanh_pair_problem()
    time = problem.measurement.time
    x0 = np.zeros(problem.system.dim)
    settled = settle(problem.system, x0, time, IntegrationConfig.adaptive())[0].step_count
    steps = []
    kernel = kernels.rk4_flow_jacobian

    def counting(kind, M, c, X, T, n):
        steps.append(n)
        return kernel(kind, M, c, X, T, n)

    monkeypatch.setattr(kernels, "rk4_flow_jacobian", counting)
    out = solve(problem, IntegrationConfig.adaptive())
    assert out.converged
    climb = settled.bit_length() - 3
    # one climb from 8 steps at x = 0, then every flow at the settled count
    assert steps[:climb] == [8 << i for i in range(climb)]
    assert len(steps) > climb + 1
    assert all(n == settled for n in steps[climb:])


@pytest.mark.parametrize("block_floats", [None, 16])
def test_oracle_prefers_smaller_then_earlier_residual_across_blocks(block_floats, monkeypatch):
    # singletons {0} and {2} tie at residual sqrt(5.25) < eps; {1} and {3} miss
    if block_floats is not None:
        # one support per block
        monkeypatch.setattr(recover, "_ORACLE_BLOCK_FLOATS", block_floats)
    meas = MeasurementModel(matrix=np.eye(4), time=1.0, noise_radius=2.5, weights=np.ones(4))
    problem = SparseProblem(
        system=DynamicalSystem.zero(4),
        measurement=meas,
        observation=np.array([2.0, 1.0, 2.0, 0.5]),
        sparsity=2,
    )
    out = l0_oracle(problem)
    assert out.converged
    np.testing.assert_allclose(out.estimate, [2.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)
    assert out.residual == pytest.approx(math.sqrt(5.25), rel=1e-12)
    assert out.iterations == 5


@pytest.mark.parametrize("kind", ["zero", "linear", "affine"])
def test_affine_flow_oracle_integrates_once(kind, monkeypatch):
    system = {s.kind: s for s in catalog_systems(5, 905)}[kind]
    x0 = np.zeros(5)
    x0[[0, 3]] = [1.1, -0.7]
    problem = _problem(system, gen_gaussian_matrix(12, 5, 77), x0, T=0.6, s=2)
    calls, svds, fits = [], [], []
    _count_calls(monkeypatch, recover, "flow_with_jacobian", calls)
    _count_calls(monkeypatch, kernels, "rk4_flow_jacobian", calls)
    _count_calls(monkeypatch, recover, "_line_search", calls)
    _count_calls(monkeypatch, np.linalg, "svd", svds)
    fit = recover._fit_supports

    def recording(*args):
        out = fit(*args)
        fits.append((args, out))
        return out

    monkeypatch.setattr(recover, "_fit_supports", recording)
    out = l0_oracle(problem)
    # one flow, at x=0; the affine flow needs no other, and no line search
    assert calls == ["flow_with_jacobian", "rk4_flow_jacobian"]
    assert out.converged
    np.testing.assert_allclose(out.estimate, x0, atol=1e-8)
    # one least-squares step per fit: one batched SVD per block of a level
    assert len(fits) == 2 and len(svds) == len(fits)
    u = np.finfo(float).eps
    A, b = problem.measurement.matrix, problem.observation
    for (_, _, _, _, (xT0, P0), supports), (X, rn) in fits:
        n, k = A.shape[0], supports.shape[1]
        for S, x, r in zip(supports, X, rn):
            ref, *_ = np.linalg.lstsq(A @ P0[:, S], b - A @ xT0, rcond=max(n, k) * u)
            assert np.linalg.norm(x[S] - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.count_nonzero(np.delete(x, S)) == 0
            assert r == pytest.approx(np.linalg.norm(b - A @ (xT0 + P0 @ x)), rel=1e-12)


@pytest.mark.parametrize("kind", ["zero", "linear", "tanh_saturated"])
def test_oracle_fits_work_in_the_span_of_A(kind, monkeypatch):
    # n = 512 rows, m = 6 columns: [A | b] is factored once per problem, R
    # only, however often the oracle runs on it, and no SVD input or
    # per-support residual has more than m + 1 rows
    system = {s.kind: s for s in catalog_systems(6, 7)}[kind]
    A = gen_gaussian_matrix(512, 6, 1003)
    icfg = IntegrationConfig.fixed(16)
    x0 = np.zeros(6)
    x0[[1, 4]] = [0.9, -1.2]
    b = A @ flow_with_jacobian(system, x0, 0.3, icfg)[0]
    meas = MeasurementModel(matrix=A, time=0.3, noise_radius=0.0, weights=np.ones(6))
    problem = SparseProblem(system=system, measurement=meas, observation=b, sparsity=2)
    factored, svd_rows, residual_rows = [], [], []
    qr, svd, row_norms = np.linalg.qr, np.linalg.svd, recover._row_norms

    def counted_qr(a, mode="reduced"):
        factored.append((a.shape, mode))
        return qr(a, mode)

    def recorded_svd(a, *args, **kwargs):
        svd_rows.append(a.shape[-2])
        return svd(a, *args, **kwargs)

    def recorded_row_norms(r):
        residual_rows.append(r.shape[1])
        return row_norms(r)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(recover, "_row_norms", recorded_row_norms)
    outs = [l0_oracle(problem, icfg) for _ in range(2)]
    assert factored == [((512, 7), "r")]
    # an equal problem is factored once more, and gives the same fit
    out = l0_oracle(dataclasses.replace(problem), icfg)
    assert factored == [((512, 7), "r")] * 2
    assert to_doc(outs[0]) == to_doc(outs[1]) == to_doc(out)
    assert out.converged
    assert set(np.flatnonzero(np.abs(out.estimate) > 1e-8)) == {1, 4}
    assert svd_rows and max(svd_rows) == 7
    assert residual_rows and max(residual_rows) == 7


@pytest.mark.parametrize("first", ["recover", "oracle"])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("kind", ["zero", "linear", "tanh_saturated"])
def test_recovery_and_the_oracle_share_one_preparation_per_problem(kind, s, first, monkeypatch):
    # criterion 7's question on one problem, 512 x 6, eps = 0: across both
    # estimators, in either order, [A | b] is factored once and the system
    # flowed at rest once, and each outcome is that estimator's on a fresh,
    # equal problem, bit for bit
    system = {each.kind: each for each in catalog_systems(6, 7)}[kind]
    icfg = IntegrationConfig()
    support = (2,) if s == 1 else (1, 4)
    problem, _ = _planted(system, gen_gaussian_matrix(512, 6, 1000 + s), support, icfg, s=s)
    solves = [recover_initial_state, l0_oracle]
    if first == "oracle":
        solves.reverse()
    refs = [solve(dataclasses.replace(problem), icfg) for solve in solves]
    factored, at_rest = [], []
    qr, flow = np.linalg.qr, recover.flow_with_jacobian

    def counted_qr(a, mode="reduced"):
        factored.append((a.shape, mode))
        return qr(a, mode)

    def counted_flow(system, X, T, cfg):
        # every other flow of either estimator is of line-search rows
        if np.ndim(X) == 1:
            at_rest.append(np.count_nonzero(X))
        return flow(system, X, T, cfg)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(recover, "flow_with_jacobian", counted_flow)
    outs = [solve(problem, icfg) for solve in solves]
    assert factored == [((512, 7), "r")] and at_rest == [0]
    assert all(out.converged for out in outs)
    assert [to_doc(out) for out in outs] == [to_doc(ref) for ref in refs]
    # what both read is read-only, and read again it is not recomputed
    _, (R, z, _), (xT, P) = recover._prepared(problem, icfg)
    assert len(factored) == len(at_rest) == 1
    for a in (R, z, xT, P):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    # what is kept is no field: the problem reads as an equal fresh one
    fresh = dataclasses.replace(problem)
    assert (to_doc(problem), repr(problem)) == (to_doc(fresh), repr(fresh))


@pytest.mark.parametrize("first", ["recover", "oracle"])
def test_an_adaptive_config_climbs_at_rest_once_per_problem(first, monkeypatch):
    # recovery and the oracle on one 512 x 6 tanh problem under an adaptive
    # config, in either order: one climb at x = 0, whose last flow is the
    # flow at rest, and no other flow from rest; each outcome is that
    # estimator's on a fresh, equal problem, bit for bit
    system = DynamicalSystem.tanh_saturated(unit_spectral_matrix(6, 5))
    A = gen_gaussian_matrix(512, 6, 3)
    problem, _ = _planted(system, A, (1, 4), IntegrationConfig.fixed(16))
    icfg = IntegrationConfig.adaptive(1e-9)
    solves = [recover_initial_state, l0_oracle]
    if first == "oracle":
        solves.reverse()
    refs = [solve(dataclasses.replace(problem), icfg) for solve in solves]
    steps, at_rest = [], []
    kernel = kernels.rk4_flow_jacobian

    def counting(kind, M, c, X, T, n):
        steps.append(n)
        if not np.any(X):
            at_rest.append(n)
        return kernel(kind, M, c, X, T, n)

    monkeypatch.setattr(kernels, "rk4_flow_jacobian", counting)
    outs = [solve(problem, icfg) for solve in solves]
    assert at_rest == steps[:2] == [8, 16]
    assert all(n == 16 for n in steps[1:])
    assert all(out.converged for out in outs)
    assert [to_doc(out) for out in outs] == [to_doc(ref) for ref in refs]
    # the settled config and the climb's flow are kept under the caller's
    # config, and the flow is the fixed-count flow at rest, bit for bit
    settled, _, (xT, P) = recover._prepared(problem, icfg)
    assert settled == IntegrationConfig.fixed(16) and len(at_rest) == 2
    xT_ref, P_ref = flow_with_jacobian(system, np.zeros(6), problem.measurement.time, settled)
    assert np.array_equal(xT, xT_ref) and np.array_equal(P, P_ref)
    assert not (xT.flags.writeable or P.flags.writeable)


def _planted(system, A, support, icfg, T=0.4, noise=None, eps=0.0, s=2):
    """A problem whose observation is A x(T) of a state planted on support,
    flowed with icfg as the oracle flows, plus noise."""
    x0 = np.zeros(A.shape[1])
    x0[list(support)] = np.linspace(0.8, -1.1, len(support))
    b = A @ flow_with_jacobian(system, x0, T, icfg)[0]
    if noise is not None:
        b = b + noise
    meas = MeasurementModel(matrix=A, time=T, noise_radius=eps, weights=np.ones(A.shape[1]))
    return SparseProblem(system=system, measurement=meas, observation=b, sparsity=s), x0


def _noise(n, scale, seed):
    return scale * np.random.Generator(np.random.Philox(seed)).normal(size=n)


def _outside_span(A, scale, seed):
    """Noise of norm scale orthogonal to the columns of A."""
    e = _noise(A.shape[0], 1.0, seed)
    e -= A @ np.linalg.lstsq(A, e, rcond=None)[0]
    return scale * e / np.linalg.norm(e)


def _duplicated_column(n, m, seed):
    A = gen_gaussian_matrix(n, m, seed)
    A[:, 3] = A[:, 1]
    return A


@pytest.mark.parametrize(
    "kind, A, noise, eps",
    [
        # n > m at eps > 0, the noise partly outside the span of A; the
        # planted support reaches the larger eps and misses the smaller
        ("tanh_saturated", gen_gaussian_matrix(20, 5, 61), _noise(20, 1e-2, 62), 0.05),
        ("linear", gen_gaussian_matrix(20, 5, 61), _noise(20, 1e-2, 62), 0.02),
        # n = m and n < m: Q is square and b lies in the span of A; no
        # 2-sparse state fits the noise, so every residual is well above
        # rounding
        ("linear", gen_gaussian_matrix(5, 5, 63), _noise(5, 1e-2, 64), 0.0),
        ("tanh_saturated", gen_gaussian_matrix(4, 5, 65), _noise(4, 1e-2, 66), 0.0),
        # a rank-deficient A: column 3 duplicates column 1
        ("linear", _duplicated_column(12, 5, 67), _noise(12, 1e-2, 68), 0.0),
        ("tanh_saturated", _duplicated_column(12, 5, 67), _noise(12, 1e-2, 68), 0.04),
    ],
    ids=["tall-eps", "tall-miss", "square", "wide", "duplicate", "duplicate-eps"],
)
def test_oracle_residual_is_the_explicit_residual_of_its_estimate(kind, A, noise, eps):
    system = {s.kind: s for s in catalog_systems(5, 905)}[kind]
    icfg = IntegrationConfig.fixed(32)
    problem, _ = _planted(system, A, (0, 3), icfg, noise=noise, eps=eps)
    b = problem.observation
    # the oracle's measurement (R, z) has the residual of (A, b) at every v,
    # in min(n, m + 1) rows
    R, z, n = recover._in_span(A, b)
    assert n == A.shape[0] and R.shape == (min(n, 6), 5) and z.shape == (min(n, 6),)
    for v in np.random.Generator(np.random.Philox(71)).normal(size=(4, 5)):
        explicit = np.linalg.norm(b - A @ v)
        assert np.linalg.norm(z - R @ v) == pytest.approx(explicit, rel=1e-12)
    out = _assert_oracle_matches_reference(problem, icfg)
    xT = flow_with_jacobian(system, out.estimate, problem.measurement.time, icfg)[0]
    explicit = float(np.linalg.norm(b - A @ xT))
    assert out.residual > 1e-4
    assert out.residual == pytest.approx(explicit, rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "tanh_saturated"])
def test_oracle_counts_the_residual_outside_the_span_of_A(kind):
    # the planted support fits b within the span of A exactly, and the part
    # of b outside it has norm rho > eps: no support is feasible.  That part
    # is the last entry of z, where R's row is 0
    system = {s.kind: s for s in catalog_systems(5, 905)}[kind]
    A = gen_gaussian_matrix(20, 5, 69)
    icfg = IntegrationConfig.fixed(32)
    rho = 1e-2
    problem, x0 = _planted(system, A, (0, 3), icfg, noise=_outside_span(A, rho, 70), eps=0.9 * rho)
    R, z, n = recover._in_span(A, problem.observation)
    assert n == 20 and R.shape == (6, 5)
    assert not R[-1].any()
    assert abs(z[-1]) == pytest.approx(rho, rel=1e-12)
    out = _assert_oracle_matches_reference(problem, icfg)
    xT = flow_with_jacobian(system, out.estimate, problem.measurement.time, icfg)[0]
    # within the span the fit reaches eps; its residual does not
    assert np.linalg.norm(z[:-1] - R[:-1] @ xT) <= 1e-9 < problem.measurement.noise_radius
    assert not out.converged and out.iterations == 1 + 5 + 10
    np.testing.assert_allclose(out.estimate, x0, rtol=0, atol=1e-9)
    assert out.residual == pytest.approx(rho, rel=1e-9)
    explicit = float(np.linalg.norm(problem.observation - A @ xT))
    assert out.residual == pytest.approx(explicit, rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "tanh_saturated"])
def test_oracle_feasibility_does_not_depend_on_the_scale_of_A(kind):
    # at eps = 0 the planted fit's residual is rounding relative to ||b||,
    # above 1e-9 once A is scaled by 1e7: a slack relative to ||b|| finds the
    # fit feasible at either scale, and the search ends at size 2
    system = {s.kind: s for s in catalog_systems(6, 7)}[kind]
    icfg = IntegrationConfig.fixed(16)
    for scale in (1.0, 1e7):
        A = scale * gen_gaussian_matrix(512, 6, 1003)
        problem, x0 = _planted(system, A, (1, 4), icfg, T=0.3, s=3)
        out = l0_oracle(problem, icfg)
        assert out.converged and out.iterations == 1 + 6 + 15
        np.testing.assert_allclose(out.estimate, x0, rtol=0, atol=1e-12)


def test_lockstep_flow_reports_blowup():
    system = DynamicalSystem.tanh_saturated((100.0 * np.eye(2)).tolist())
    # the sensitivity of the row at 0 grows like exp(100 t) and overflows
    icfg = IntegrationConfig.fixed(256)
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        flow_with_jacobian(system, np.array([[0.5, 0.5], [0.0, 0.0]]), 10.0, icfg)
