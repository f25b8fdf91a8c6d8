import math

import numpy as np
import pytest
from scipy.linalg import expm

from sparseobs import kernels
from sparseobs.errors import DomainError, NumericalError, ShapeError
from sparseobs.model import DynamicalSystem, lipschitz_bound
from sparseobs.ode import (
    IntegrationConfig,
    Trajectory,
    flow_jacobian,
    flow_with_jacobian,
    gronwall_envelope,
    integrate,
)

from conftest import catalog_systems


# --- config and trajectory types ---------------------------------------------


def test_integration_config_validation():
    assert IntegrationConfig.fixed(32).step_count == 32
    assert IntegrationConfig.adaptive(1e-6).mode == "adaptive"
    with pytest.raises(DomainError):
        IntegrationConfig(mode="euler")
    with pytest.raises(DomainError):
        IntegrationConfig(step_count=0)
    with pytest.raises(DomainError):
        IntegrationConfig(tolerance=0.0)


def test_trajectory_validation():
    with pytest.raises(DomainError):
        Trajectory(times=[1.0, 2.0], states=[[0.0], [0.0]])
    with pytest.raises(DomainError):
        Trajectory(times=[0.0, 0.0], states=[[0.0], [0.0]])
    with pytest.raises(ShapeError):
        Trajectory(times=[0.0, 1.0], states=[[0.0]])


def test_trajectory_csv_round_trip(tmp_path):
    traj = integrate(DynamicalSystem.linear([[-1.0]]), [1.0], 1.0, IntegrationConfig.fixed(4))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "t,x_1"
    assert len(text) == 6
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1], traj.states[:, 0])


# --- integrate ---------------------------------------------------------------


def test_zero_system_is_constant():
    traj = integrate(DynamicalSystem.zero(2), [1.0, -2.0], 5.0)
    np.testing.assert_array_equal(traj.final_state, [1.0, -2.0])
    np.testing.assert_array_equal(traj.states[0], [1.0, -2.0])
    assert traj.times[0] == 0.0 and traj.times[-1] == 5.0


def test_scalar_decay_matches_analytic():
    traj = integrate(DynamicalSystem.linear([[-1.0]]), [1.0], 1.0)
    assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-8


def test_rotation_matches_matrix_exponential_oracle():
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    T = math.pi / 2
    final = integrate(DynamicalSystem.linear(M.tolist()), [1.0, 0.0], T).final_state
    np.testing.assert_allclose(final, [0.0, -1.0], atol=1e-6)
    # scaling-and-squaring exponential as the independent oracle
    oracle = expm(M * T) @ np.array([1.0, 0.0])
    np.testing.assert_allclose(final, oracle, atol=1e-10)


def test_affine_system_matches_exponential_oracle():
    rng = np.random.Generator(np.random.Philox(31))
    M = rng.normal(size=(3, 3)) * 0.4
    c = rng.normal(size=3)
    x0 = rng.normal(size=3)
    T = 0.8
    final = integrate(DynamicalSystem.affine(M.tolist(), c.tolist()), x0, T).final_state
    # variation of constants via the augmented (x, 1) linear system
    aug = np.zeros((4, 4))
    aug[:3, :3] = M
    aug[:3, 3] = c
    oracle = (expm(aug * T) @ np.concatenate([x0, [1.0]]))[:3]
    np.testing.assert_allclose(final, oracle, atol=1e-9)


def test_integrate_argument_errors():
    system = DynamicalSystem.zero(2)
    with pytest.raises(DomainError):
        integrate(system, [0.0, 0.0], 0.0)
    with pytest.raises(DomainError):
        integrate(system, [0.0, 0.0], -1.0)
    with pytest.raises(ShapeError):
        integrate(system, [0.0], 1.0)


def test_blowup_reports_first_bad_time():
    system = DynamicalSystem.linear([[100.0]])
    with pytest.raises(NumericalError) as info, np.errstate(over="ignore", invalid="ignore"):
        integrate(system, [1.0], 10.0)
    assert info.value.time is not None
    assert 0.0 < info.value.time <= 10.0


def test_adaptive_mode_matches_analytic():
    traj = integrate(
        DynamicalSystem.linear([[-1.0]]), [1.0], 1.0, IntegrationConfig.adaptive(1e-10)
    )
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    np.testing.assert_array_equal(traj.states[0], [1.0])
    assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-8


def test_step_refinement_is_fourth_order():
    exact = math.exp(-1.0)
    sys1 = DynamicalSystem.linear([[-1.0]])
    e_coarse = abs(integrate(sys1, [1.0], 1.0, IntegrationConfig.fixed(8)).final_state[0] - exact)
    e_fine = abs(integrate(sys1, [1.0], 1.0, IntegrationConfig.fixed(16)).final_state[0] - exact)
    assert e_coarse / e_fine >= 12.0


def test_linear_superposition():
    rng = np.random.Generator(np.random.Philox(32))
    M = rng.normal(size=(4, 4)) * 0.5
    system = DynamicalSystem.linear(M.tolist())
    x0 = rng.normal(size=4)
    y0 = rng.normal(size=4)
    a, b = 1.7, -0.6
    lhs = integrate(system, a * x0 + b * y0, 1.0).final_state
    rhs = a * integrate(system, x0, 1.0).final_state + b * integrate(system, y0, 1.0).final_state
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


# --- flow jacobian -----------------------------------------------------------


def test_flow_jacobian_trivial_cases():
    np.testing.assert_array_equal(
        flow_jacobian(DynamicalSystem.zero(3), np.zeros(3), 3.0), np.eye(3)
    )
    P = flow_jacobian(DynamicalSystem.linear((-np.eye(2)).tolist()), np.zeros(2), 1.0)
    np.testing.assert_allclose(P, math.exp(-1.0) * np.eye(2), atol=1e-8)


def _fd_jacobian(system, x0, T, cfg, h=1e-5):
    m = system.dim
    J = np.zeros((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        fp = integrate(system, x0 + e, T, cfg).final_state
        fm = integrate(system, x0 - e, T, cfg).final_state
        J[:, j] = (fp - fm) / (2 * h)
    return J


def test_saturated_flow_jacobian_matches_finite_differences():
    system = DynamicalSystem.tanh_saturated(np.eye(2).tolist())
    x0 = np.array([0.3, -0.7])
    cfg = IntegrationConfig()
    P = flow_jacobian(system, x0, 0.5, cfg)
    fd = _fd_jacobian(system, x0, 0.5, cfg)
    rel = np.linalg.norm(P - fd) / np.linalg.norm(fd)
    assert rel < 1e-5


def test_flow_jacobian_consistency_across_catalog():
    cfg = IntegrationConfig()
    rng = np.random.Generator(np.random.Philox(33))
    for system in catalog_systems(5, 902):
        x0 = rng.normal(size=5) * 0.5
        P = flow_jacobian(system, x0, 0.7, cfg)
        fd = _fd_jacobian(system, x0, 0.7, cfg)
        denom = max(np.linalg.norm(fd), 1.0)
        assert np.linalg.norm(P - fd) / denom < 1e-5


def test_flow_with_jacobian_returns_matching_final_state():
    system = DynamicalSystem.linear([[0.0, 1.0], [-1.0, 0.0]])
    x0 = np.array([1.0, 0.0])
    xT, P = flow_with_jacobian(system, x0, 0.9)
    np.testing.assert_allclose(xT, integrate(system, x0, 0.9).final_state, rtol=1e-14)
    # linear flow: sensitivity equals the propagator
    np.testing.assert_allclose(P @ x0, xT, rtol=1e-12)


def test_flow_jacobian_adaptive_mode():
    system = DynamicalSystem.tanh_saturated([[0.5, 0.2], [0.1, -0.3]])
    x0 = np.array([0.4, -0.2])
    P_fixed = flow_jacobian(system, x0, 0.6, IntegrationConfig.fixed(512))
    P_adapt = flow_jacobian(system, x0, 0.6, IntegrationConfig.adaptive(1e-11))
    np.testing.assert_allclose(P_adapt, P_fixed, atol=1e-7)


def test_flow_jacobian_blowup_raises():
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        flow_with_jacobian(DynamicalSystem.linear([[100.0]]), np.array([1.0]), 10.0)


@pytest.mark.parametrize("k", [1, 5])
def test_batched_flow_jacobian_matches_single_state_kernel(k):
    rng = np.random.Generator(np.random.Philox(k))
    for system in catalog_systems(5, 904):
        kind, M, c = system.kernel_args()
        X0 = rng.normal(size=(k, 5)) * 0.5
        XT, P = kernels.rk4_flow_jacobian(kind, M, c, X0, 0.7, 64)
        assert XT.shape == (k, 5) and P.shape == (k, 5, 5)
        for x0, xT_row, P_row in zip(X0, XT, P):
            xT, P1 = kernels.rk4_flow_jacobian(kind, M, c, x0, 0.7, 64)
            assert xT.shape == (5,) and P1.shape == (5, 5)
            np.testing.assert_allclose(xT_row, xT, rtol=0, atol=1e-13)
            np.testing.assert_allclose(P_row, P1, rtol=0, atol=1e-13)


# --- gronwall ----------------------------------------------------------------


def test_gronwall_envelope_values():
    assert gronwall_envelope(0.0, 2.0, 10.0) == 2.0
    assert math.isclose(gronwall_envelope(1.0, 1.0, 1.0), math.e, rel_tol=1e-15)
    assert gronwall_envelope(1.0, 0.0, 7.0) == 0.0


def test_gronwall_envelope_rejects_negative_input():
    for args in ((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)):
        with pytest.raises(DomainError):
            gronwall_envelope(*args)


def test_gronwall_bound_holds_along_catalog_trajectories():
    cfg = IntegrationConfig.fixed(64)
    rng = np.random.Generator(np.random.Philox(34))
    for system in catalog_systems(6, 903):
        L = lipschitz_bound(system)
        for _ in range(100):
            x1 = rng.normal(size=6)
            x2 = rng.normal(size=6)
            t1 = integrate(system, x1, 1.0, cfg)
            t2 = integrate(system, x2, 1.0, cfg)
            gap0 = float(np.linalg.norm(x2 - x1))
            gaps = np.linalg.norm(t2.states - t1.states, axis=1)
            envelopes = np.array([gronwall_envelope(L, gap0, t) for t in t1.times])
            assert np.all(gaps <= envelopes + 1e-6)
