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
    weighted_l1_norm,
)
from sparseobs.ode import IntegrationConfig, flow_with_jacobian, integrate, settle_steps
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
    assert cfg.outer_max_iter == 30 and cfg.inner_max_iter == 5000
    with pytest.raises(DomainError):
        SolverConfig(outer_max_iter=0)
    with pytest.raises(DomainError):
        SolverConfig(inner_tol=0.0)
    with pytest.raises(DomainError):
        SolverConfig(penalty=-1.0)


def test_solver_config_from_dict_rejects_unknown_fields():
    assert SolverConfig.from_dict({"outer_tol": 1e-7}).outer_tol == 1e-7
    with pytest.raises(DomainError) as info:
        SolverConfig.from_dict({"outer_tol": 1e-7, "momentum": 0.9})
    assert "momentum" in str(info.value)


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
    # objective must come in at or below it once the inner loop is tight
    Phi, x0, y, eps = _noisy_instance()
    cfg = SolverConfig(inner_tol=1e-12, inner_max_iter=40000)
    w = np.ones(16)
    x = solve_weighted_bpdn(Phi, np.zeros(64), y, w, eps, cfg)
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


def _demo_first_solve(monkeypatch):
    """(Phi, y, weights, eps) of the first solve in trial 0 of the demo sweep:
    a 512 x 12 tanh linearization at eps = 1e-3."""

    def capture(Phi, offset, observation, weights, eps, config=None):
        raise _Captured(Phi, observation - offset, weights, eps)

    config = load_experiment_config(Path(__file__).resolve().parents[1] / "configs" / "demo.json")
    with monkeypatch.context() as patch:
        patch.setattr(recover, "solve_weighted_bpdn", capture)
        with pytest.raises(_Captured) as first:
            run_trial(config, 0)
    return first.value.args


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


def _record_lasso(monkeypatch, weights, penalty):
    """Wrap kernels.admm_lasso; returns the list of (lam, iterations) of its
    calls, lam read back from the threshold lam * weights / penalty."""
    calls = []
    lasso = kernels.admm_lasso

    def wrapper(F_inv, Phi_t_y, rho, thresh, *rest):
        result = lasso(F_inv, Phi_t_y, rho, thresh, *rest)
        calls.append((float(thresh[0] * penalty / weights[0]), result[2]))
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


@pytest.mark.parametrize("instance", [_demo_first_solve, _noisy_underdetermined])
def test_noisy_bpdn_probes_the_path_point_once(instance, monkeypatch):
    Phi, y, w, eps = instance(monkeypatch)
    n, m = Phi.shape
    cfg = SolverConfig()
    calls = _record_lasso(monkeypatch, w, cfg.penalty)
    x = solve_weighted_bpdn(Phi, np.zeros(n), y, w, eps, cfg)
    # the path point is the lasso's fixed point: one call of one iteration
    assert [it for _, it in calls] == [1]
    lam = calls[0][0]
    r = y - Phi @ x
    assert eps <= np.linalg.norm(r) <= eps + _band(cfg, y)
    # the weighted lasso's KKT conditions at lam
    g = Phi.T @ r
    on = x != 0
    assert on.any()
    assert np.all(np.abs(g[~on]) <= lam * w[~on] * (1 + 1e-9))
    np.testing.assert_allclose(g[on], lam * w[on] * np.sign(x[on]), rtol=1e-9, atol=0)
    # no point feasible at exactly eps has a smaller objective: try the
    # boundary points toward 0, toward x and around x, from x_ls
    x_ls = np.linalg.lstsq(Phi, y, rcond=None)[0]
    rng = np.random.Generator(np.random.Philox(3))
    targets = [np.zeros(m), x] + [x + 1e-3 * rng.standard_normal(m) for _ in range(8)]
    for target in targets:
        feasible = _on_the_sphere(Phi, y, x_ls, target, eps)
        assert np.linalg.norm(y - Phi @ feasible) == pytest.approx(eps, rel=1e-12)
        assert weighted_l1_norm(x, w) <= weighted_l1_norm(feasible, w) + 1e-9


@pytest.mark.parametrize("k", range(4))
def test_noisy_bpdn_inside_the_feasibility_slack_returns_least_squares(k, monkeypatch):
    # eps sits under the least-squares residual but within the feasibility
    # slack, so the path runs to lam = 0 and its least-squares end is in band
    Phi = gen_gaussian_matrix(64, 16, 300 + k)
    y = np.random.Generator(np.random.Philox(k)).standard_normal(64)
    x_ls = np.linalg.lstsq(Phi, y, rcond=None)[0]
    cfg = SolverConfig()
    band = _band(cfg, y)
    eps = float(np.linalg.norm(y - Phi @ x_ls)) - 0.75 * band
    calls = _record_lasso(monkeypatch, np.ones(16), cfg.penalty)
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
    calls = _record_lasso(monkeypatch, np.ones(42), cfg.penalty)
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
    calls = _record_lasso(monkeypatch, w, cfg.penalty)
    x = solve_weighted_bpdn(Phi, np.zeros(y.size), y, w, eps, cfg)
    assert [it for _, it in calls] == [1]
    assert bench.certified(Phi, y, w, eps, x, _band(cfg, y)) == (True, True)


@pytest.mark.parametrize("seed", [12, 23, 28])
def test_noisy_bpdn_keeps_one_copy_of_a_duplicate_column(seed, monkeypatch):
    # with both copies active the path's Gram block would be singular, so the
    # second copy stays out, at its bound, and the point is still the lasso's
    Phi = gen_gaussian_matrix(20, 30, 400 + seed)
    Phi[:, 1] = Phi[:, 0]
    x0 = np.zeros(30)
    x0[[0, 7, 19]] = [1.0, -0.8, 0.6]
    e = np.random.Generator(np.random.Philox(seed)).standard_normal(20)
    eps = 1e-3 * float(np.linalg.norm(Phi @ x0))
    y = Phi @ x0 + 0.5 * eps * e / np.linalg.norm(e)
    w = np.ones(30)
    cfg = SolverConfig()
    calls = _record_lasso(monkeypatch, w, cfg.penalty)
    x = solve_weighted_bpdn(Phi, np.zeros(20), y, w, eps, cfg)
    assert [it for _, it in calls] == [1]
    assert min(abs(x[0]), abs(x[1])) < 1e-12
    assert tool_module("bench_bpdn").certified(Phi, y, w, eps, x, _band(cfg, y)) == (True, True)


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
    """Phi = A P, offset and observation of a 512 x 6 tanh system linearized
    at a point away from 0, where the flow is far from linear."""
    system = DynamicalSystem.tanh_saturated((2.0 * unit_spectral_matrix(6, 7)).tolist())
    xT, P = flow_with_jacobian(system, np.array([0.8, 0.0, -0.6, 0.0, 0.0, 1.1]), 0.8)
    A = gen_gaussian_matrix(512, 6, 1000)
    x0 = np.array([0.0, 0.9, 0.0, 0.0, -1.2, 0.0])
    return A @ P, A @ xT, A @ (xT + P @ x0)


def _gaussian_linear():
    Phi = gen_gaussian_matrix(512, 24, 11)
    x0 = np.zeros(24)
    x0[[3, 17, 20]] = [1.0, -0.5, 2.0]
    return Phi, np.zeros(512), Phi @ x0


@pytest.mark.parametrize("instance", [_tanh_linearization, _gaussian_linear])
def test_basis_pursuit_with_full_column_rank_takes_one_iteration(instance, monkeypatch):
    # the only feasible point is the least-squares point, where the warm
    # start's sign dual already satisfies the kernel's stopping test
    Phi, offset, observation = instance()
    m = Phi.shape[1]
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
    assert counts and max(counts) < SolverConfig().inner_max_iter
    assert record.converged and record.error_l2 <= 1e-6


@pytest.mark.parametrize("n, m, s, seed", [(6, 12, 1, 40), (24, 48, 3, 41), (96, 128, 8, 44)])
def test_underdetermined_warm_start_matches_a_cold_kernel_run(n, m, s, seed):
    Phi = gaussian_unit_columns(n, m, seed)
    rng = np.random.Generator(np.random.Philox(seed + 100))
    x0 = np.zeros(m)
    x0[rng.choice(m, size=s, replace=False)] = rng.uniform(0.5, 1.5, s) * rng.choice([-1, 1], s)
    y = Phi @ x0
    cfg = SolverConfig()
    warm = solve_weighted_bpdn(Phi, np.zeros(n), y, np.ones(m), 0.0, cfg)
    _, cold, _, _ = kernels.admm_basis_pursuit(
        Phi,
        np.linalg.pinv(Phi),
        y,
        np.ones(m),
        np.zeros(m),
        np.zeros(m),
        cfg.inner_max_iter,
        cfg.inner_tol,
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
    cfg = SolverConfig()
    rho = cfg.penalty
    Phi_t_y = Phi.T @ y
    lam = 0.3 * float(np.max(np.abs(Phi_t_y) / w))
    F_inv = np.ascontiguousarray(np.linalg.inv(Phi.T @ Phi + rho * np.eye(12)))

    def lasso(z0, u0, max_iter):
        thresh = lam * w / rho
        return kernels.admm_lasso(F_inv, Phi_t_y, rho, thresh, z0, u0, max_iter, cfg.inner_tol)

    z, u, it = lasso(np.zeros(12), np.zeros(12), cfg.inner_max_iter)
    assert it < cfg.inner_max_iter
    # the lasso's KKT conditions at z
    c = Phi.T @ (y - Phi @ z)
    on = z != 0
    assert on.any() and not on.all()
    assert np.all(np.abs(c[~on]) <= lam * w[~on] * (1 + 1e-6))
    np.testing.assert_allclose(c[on], lam * w[on] * np.sign(z[on]), rtol=0, atol=1e-6 * lam)
    # a capped run reports the cap, which the pipeline benchmark counts as a cap hit
    assert lasso(np.zeros(12), np.zeros(12), 3)[2] == 3
    # restarted at its own fixed point, the first iteration passes the stopping test
    assert lasso(z, u, cfg.inner_max_iter)[2] == 1


# --- recover_initial_state --------------------------------------------------------


def test_recovery_on_zero_system_equals_direct_bpdn():
    A = gaussian_unit_columns(6, 12, 41)
    x0 = np.zeros(12)
    x0[4] = 2.0
    problem = _problem(DynamicalSystem.zero(12), A, x0, T=1.0)
    out = recover_initial_state(problem)
    direct = solve_weighted_bpdn(A, np.zeros(6), problem.observation, np.ones(12), 0.0)
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


def test_recovery_linearizes_at_the_accepted_line_search_point(monkeypatch):
    M = unit_spectral_matrix(4, 21)
    system = DynamicalSystem.tanh_saturated(M.tolist())
    A = gen_gaussian_matrix(8, 4, 31)
    x0 = np.zeros(4)
    x0[2] = 0.9
    problem = _problem(system, A, x0, T=0.4)
    calls = []
    _count_calls(monkeypatch, kernels, "rk4_path", calls)
    _count_calls(monkeypatch, kernels, "rk4_flow_jacobian", calls)
    out = recover_initial_state(problem)
    assert out.converged and out.iterations > 1
    # one flow at x=0, then one per outer iteration: every step is accepted
    # undamped and its flow Jacobian is the next linearization
    assert calls == ["rk4_flow_jacobian"] * (out.iterations + 1)


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
    flow0 = flow_with_jacobian(system, np.zeros(4), T, icfg)
    X = np.array([[0.0, 1.0, 0.0, -0.5], [0.0, 1.0, 0.0, -0.5], [0.1, 0.0, 0.0, 0.0]])
    to_truth = truth - X
    # undamped, overshooting sixteenfold, and heading away from the truth
    steps = np.array([1.0, 16.0, -1.0])[:, None] * to_truth
    r0 = np.linalg.norm(b - integrate(system, X[0], T, icfg).final_state @ A.T)
    r2 = np.linalg.norm(b - integrate(system, X[2], T, icfg).final_state @ A.T)
    bound = np.array([0.5 * r0, r0, np.nextafter(r2, 0)])
    floor = 2.0**-12
    t, XT, P, rn = recover._line_search(system, A, b, T, icfg, flow0, X, steps, bound, floor)
    ref = [
        _reference_line_search(system, A, b, T, icfg, x, d, bd, floor)
        for x, d, bd in zip(X, steps, bound)
    ]
    np.testing.assert_array_equal(t, [r[0] for r in ref])
    # the mix: accepted undamped, accepted after several halvings, given up
    assert t[0] == 1.0 and 0.0 < t[1] <= 0.125 and t[2] == 0.0
    for i, (t_ref, xT_ref, P_ref, rn_ref) in enumerate(ref):
        if t_ref > 0:
            np.testing.assert_allclose(XT[i], xT_ref, rtol=0, atol=1e-13)
            np.testing.assert_allclose(P[i], P_ref, rtol=0, atol=1e-13)
            assert rn[i] == pytest.approx(rn_ref, rel=1e-12)


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
    X, rn = recover._fit_supports(
        problem.system, meas.matrix, problem.observation, meas.time, icfg, flow0, supports
    )
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
    X, rn = recover._fit_supports(system, A, b, T, icfg, flow0, np.array([[1, 4]]))
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
    X, rn = recover._fit_supports(
        problem.system, meas.matrix, b, meas.time, icfg, flow0, np.array([[1, 4]])
    )
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
    X, rn = recover._fit_supports(
        problem.system, meas.matrix, problem.observation, meas.time, icfg, flow0, supports
    )
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
    settled = settle_steps(problem.system, time, IntegrationConfig.adaptive()).step_count
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
    calls = []
    _count_calls(monkeypatch, recover, "flow_with_jacobian", calls)
    _count_calls(monkeypatch, kernels, "rk4_flow_jacobian", calls)
    out = l0_oracle(problem)
    # one flow, at x=0; the affine flow needs no other
    assert calls == ["flow_with_jacobian", "rk4_flow_jacobian"]
    assert out.converged
    np.testing.assert_allclose(out.estimate, x0, atol=1e-8)


def test_lockstep_flow_reports_blowup():
    system = DynamicalSystem.tanh_saturated((100.0 * np.eye(2)).tolist())
    # the sensitivity of the row at 0 grows like exp(100 t) and overflows
    icfg = IntegrationConfig.fixed(256)
    flow0 = (np.zeros(2), np.eye(2))
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        recover._flow_rows(system, np.array([[0.5, 0.5], [0.0, 0.0]]), 10.0, icfg, flow0)
