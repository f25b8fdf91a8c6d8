import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from sparseobs import kernels, ode
from sparseobs.errors import DomainError, NumericalError, ShapeError
from sparseobs.harness import load_experiment_config
from sparseobs.model import DynamicalSystem, from_doc, to_doc
from sparseobs.ode import (
    IntegrationConfig,
    Trajectory,
    flow_jacobian,
    flow_with_jacobian,
    gronwall_envelope,
    integrate,
    settle,
)

from conftest import catalog_systems, field, tool_module

_DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


# --- config and trajectory types ---------------------------------------------


def test_integration_config_validation():
    assert IntegrationConfig.fixed(32).step_count == 32
    assert IntegrationConfig.adaptive(1e-6).mode == "adaptive"
    with pytest.raises(DomainError):
        IntegrationConfig(mode="euler")
    with pytest.raises(DomainError):
        IntegrationConfig(step_count=0)
    with pytest.raises(DomainError):
        IntegrationConfig(mode="adaptive", tolerance=0.0)
    # each mode refuses the setting it does not use
    with pytest.raises(DomainError, match="step_count does not apply in adaptive mode"):
        IntegrationConfig(mode="adaptive", step_count=64)
    with pytest.raises(DomainError, match="tolerance does not apply in fixed mode"):
        IntegrationConfig(tolerance=1e-6)
    # the defaults fill the used setting and leave the other None
    assert IntegrationConfig() == IntegrationConfig.fixed(256)
    assert (IntegrationConfig().step_count, IntegrationConfig().tolerance) == (256, None)
    adaptive = IntegrationConfig(mode="adaptive")
    assert adaptive == IntegrationConfig.adaptive(1e-9)
    assert (adaptive.step_count, adaptive.tolerance) == (None, 1e-9)
    assert to_doc(adaptive) == {"mode": "adaptive", "step_count": None, "tolerance": 1e-9}
    # a document round-trips through to_doc, its null setting included
    for cfg in (IntegrationConfig.fixed(48), IntegrationConfig.adaptive(1e-12)):
        assert from_doc(IntegrationConfig, to_doc(cfg), "integration") == cfg


def test_trajectory_validation():
    with pytest.raises(DomainError):
        Trajectory(times=[1.0, 2.0], states=[[0.0], [0.0]])
    with pytest.raises(DomainError):
        Trajectory(times=[0.0, 0.0], states=[[0.0], [0.0]])
    with pytest.raises(ShapeError):
        Trajectory(times=[0.0, 1.0], states=[[0.0]])


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


_MODE_CONFIGS = pytest.mark.parametrize(
    "cfg", [IntegrationConfig(), IntegrationConfig.adaptive()], ids=["fixed", "adaptive"]
)


@_MODE_CONFIGS
def test_blowup_reports_first_bad_time(cfg):
    system = DynamicalSystem.linear([[100.0]])
    with pytest.raises(NumericalError) as info, np.errstate(over="ignore", invalid="ignore"):
        integrate(system, [1.0], 10.0, cfg)
    assert info.value.time is not None
    assert 0.0 < info.value.time <= 10.0


def test_adaptive_mode_matches_analytic():
    traj = integrate(
        DynamicalSystem.linear([[-1.0]]), [1.0], 1.0, IntegrationConfig.adaptive(1e-10)
    )
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    np.testing.assert_array_equal(traj.states[0], [1.0])
    assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-8
    # the accepted step count's uniform grid
    np.testing.assert_allclose(np.diff(traj.times), 1.0 / (len(traj.times) - 1), rtol=1e-12)


def test_adaptive_mode_gives_up_past_the_step_cap(monkeypatch):
    monkeypatch.setattr(ode, "_ADAPTIVE_MAX_STEPS", 16)
    system = DynamicalSystem.tanh_saturated([[0.5, 0.2], [0.1, -0.3]])
    cfg = IntegrationConfig.adaptive(1e-12)
    with pytest.raises(NumericalError):
        integrate(system, [0.4, -0.2], 0.6, cfg)
    with pytest.raises(NumericalError):
        flow_with_jacobian(system, np.array([[0.4, -0.2], [1.0, 2.0]]), 0.6, cfg)


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


@_MODE_CONFIGS
def test_flow_jacobian_blowup_raises(cfg):
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        flow_with_jacobian(DynamicalSystem.linear([[100.0]]), np.array([1.0]), 10.0, cfg)


@_MODE_CONFIGS
def test_rows_flow_matches_per_row_calls(cfg, monkeypatch):
    M = [[1.5, -2.0, 0.3], [2.0, 0.5, -1.0], [0.4, 1.0, -1.2]]
    system = DynamicalSystem.tanh_saturated(M)
    # saturated rows settle at fewer steps than rows near 0
    X0 = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.05], [3.0, -4.0, 2.0], [20.0, -30.0, 10.0]])
    steps = []
    kernel = kernels.rk4_flow_jacobian

    def counting(kind, M, c, X, T, n):
        steps.append(n)
        return kernel(kind, M, c, X, T, n)

    monkeypatch.setattr(kernels, "rk4_flow_jacobian", counting)
    XT, P = flow_with_jacobian(system, X0, 1.0, cfg)
    monkeypatch.undo()
    assert XT.shape == (4, 3) and P.shape == (4, 3, 3)
    if cfg.mode == "adaptive":
        # one count for the whole call, returned with the flow of every row
        n = steps[-1]
        assert steps == [8 << i for i in range(len(steps))]
        XT_n, P_n = flow_with_jacobian(system, X0, 1.0, IntegrationConfig.fixed(n))
        assert np.array_equal(XT, XT_n) and np.array_equal(P, P_n)

        def settled_rows(k):
            """Which rows' k/2-step and k-step flows agree to tolerance."""
            (XT_a, P_a), (XT_b, P_b) = (
                flow_with_jacobian(system, X0, 1.0, IntegrationConfig.fixed(j))
                for j in (k // 2, k)
            )
            tol = cfg.tolerance * (1.0 + np.abs(XT_b))
            ok = np.all(np.abs(XT_b - XT_a) <= tol, axis=1)
            tol = cfg.tolerance * (1.0 + np.abs(P_b))
            return ok & np.all(np.abs(P_b - P_a) <= tol, axis=(1, 2))

        # n is the first doubling at which every row has settled; the
        # saturated row had settled before it
        assert settled_rows(n).all()
        assert settled_rows(n // 2).any() and not settled_rows(n // 2).all()
        cfg = IntegrationConfig.fixed(n)
    for x0, xT_row, P_row in zip(X0, XT, P):
        xT, P1 = flow_with_jacobian(system, x0, 1.0, cfg)
        np.testing.assert_allclose(xT_row, xT, rtol=0, atol=1e-13)
        np.testing.assert_allclose(P_row, P1, rtol=0, atol=1e-13)


@_MODE_CONFIGS
def test_flow_with_jacobian_of_no_rows_is_empty(cfg):
    for system in catalog_systems(3, 908):
        XT, P = flow_with_jacobian(system, np.empty((0, 3)), 1.0, cfg)
        assert XT.shape == (0, 3) and P.shape == (0, 3, 3)


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


@pytest.mark.parametrize("n_steps", [1, 7, 256, 257])
def test_flow_state_is_bit_identical_to_integration(n_steps):
    cfg = IntegrationConfig.fixed(n_steps)
    x0 = np.random.Generator(np.random.Philox(n_steps)).normal(size=7)
    for system in catalog_systems(7, 905):
        xT = flow_with_jacobian(system, x0, 0.8, cfg)[0]
        assert np.array_equal(xT, integrate(system, x0, 0.8, cfg).final_state)


def _marched_steps(kind, MT, c, x, h, n_steps):
    """The textbook RK4 march stage by stage, from any state, each sum a
    fresh array."""
    for _ in range(n_steps):
        k1 = field(kind, MT, c, x)
        k2 = field(kind, MT, c, x + 0.5 * h * k1)
        k3 = field(kind, MT, c, x + 0.5 * h * k2)
        k4 = field(kind, MT, c, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield k1, k2, k3, k4, x


def _fused_steps(kind, MT, c, x, h, n_steps):
    """kernels._march's RK4 step under tanh, each array fresh: the slopes
    are tanh(x M^T), each stage input one np.dot of its weights with the
    stacked rows it sums, and the state moves by one np.dot of
    (h/6, h/3, h/3, h/6) with the four slopes, added to x."""
    assert kind == kernels.RHS_TANH

    def dot(weights, *rows):
        return np.dot(weights, np.stack(rows).reshape(len(rows), -1)).reshape(x.shape)

    for _ in range(n_steps):
        k1 = np.tanh(np.dot(x, MT))
        k2 = np.tanh(np.dot(dot([1.0, 0.5 * h], x, k1), MT))
        k3 = np.tanh(np.dot(dot([1.0, 0.0, 0.5 * h], x, k1, k2), MT))
        k4 = np.tanh(np.dot(dot([1.0, 0.0, 0.0, h], x, k1, k2, k3), MT))
        x = x + dot([h / 6.0, h / 3.0, h / 3.0, h / 6.0], k1, k2, k3, k4)
        yield k1, k2, k3, k4, x


def _marched_path(kind, M, c, x0, T, n_steps, march=_marched_steps):
    """rk4_path by a reference march, from any state; by default the
    textbook one."""
    steps = march(kind, np.ascontiguousarray(M.T), c, x0, T / n_steps, n_steps)
    return np.array([x0] + [x for *_, x in steps])


def _marched_flow(kind, M, c, X0, T, n_steps, march=_marched_steps):
    """rk4_flow_jacobian by a reference march, from any state: each block of
    steps, as rk4_flow_jacobian sizes it, has its slopes turned into
    increments by kernels._step_increments and multiplied by kernels._chain."""
    m = X0.shape[-1]
    P = np.broadcast_to(np.eye(m), X0.shape + (m,)).copy()
    block = max(1, kernels.SCAN_BLOCK_FLOATS // (4 * m * m * (X0.size // m)))
    h = T / n_steps
    steps = list(march(kind, np.ascontiguousarray(M.T), c, X0, h, n_steps))
    for i in range(0, n_steps, block):
        K = np.array([k for *k, _ in steps[i : i + block]])
        P = P + np.matmul(kernels._chain(kernels._step_increments(kind, M, K, h)), P)
    return steps[-1][-1], P


def _mapped_path(kind, M, c, X0, T, n_steps):
    """rk4_path by the step map x <- x + (x E^T + g), each step a fresh
    array, with E and g from kernels._step_map."""
    E, g = kernels._step_map(kind, M, c, T / n_steps)
    ET = np.ascontiguousarray(E.T)
    path = [X0]
    for _ in range(n_steps):
        d = path[-1] @ ET
        path.append((d if g is None else d + g) + path[-1])
    return np.array(path)


def _march_bound(path_ref, n_steps):
    """How far a march's states may lie from the textbook march's path_ref:
    each step of either rounds within about eps (1 + |x|), so after n steps
    they differ by at most 4 n eps (1 + max|x|)."""
    return 4 * n_steps * np.finfo(float).eps * (1.0 + np.abs(path_ref).max(initial=0.0))


class _CountedNumpy:
    """numpy as kernels sees it, counting the calls of the functions named
    in counts."""

    def __init__(self, counts):
        self._counts = counts

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self._counts:
            return fn

        def counted(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return counted


@contextlib.contextmanager
def _counted_methods(calls, names):
    """Count in calls, inside the block, the calls of the ndarray methods
    named by their qualified names, such as "ndarray.dot".  kernels calls
    them on its arrays, past the _CountedNumpy proxy; the profiler sees each
    call as a c_call event of the bound method."""
    calls.update(dict.fromkeys(names, 0))
    previous = sys.getprofile()

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__qualname__", None) in names:
            calls[arg.__qualname__] += 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def _count_rest_calls(monkeypatch, numpy_calls=()):
    """Count the calls of kernels._march and kernels._step_increments, and of
    the numpy functions numpy_calls names as kernels calls them."""
    calls = {"_march": 0, "_step_increments": 0}
    for name in list(calls):
        fn = getattr(kernels, name)

        def counted(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    if numpy_calls:
        calls.update(dict.fromkeys(numpy_calls, 0))
        monkeypatch.setattr(kernels, "np", _CountedNumpy(calls))
    return calls


@pytest.mark.parametrize("shape", [(6,), (3, 6)])
def test_zero_state_flows_skip_the_march_and_equal_it(monkeypatch, shape):
    # from a zero state no field marches: the path and the flow each form one
    # step's increment; a flow from rest steps no state, and under the
    # affine field the drift moves the zero state through the step map
    zero = np.zeros(shape)
    for system in catalog_systems(6, 908):
        kind, M, c = system.kernel_args()
        path_ref = _marched_path(kind, M, c, zero, 0.8, 16)
        P_ref = _marched_flow(kind, M, c, zero, 0.8, 16)[1]
        with monkeypatch.context() as patch:
            calls = _count_rest_calls(patch)
            path = kernels.rk4_path(kind, M, c, zero, 0.8, 16)
            xT, P = kernels.rk4_flow_jacobian(kind, M, c, zero, 0.8, 16)
        assert calls == {"_march": 0, "_step_increments": 2}
        if system.kind == "affine":
            assert np.abs(xT).max() > 0.0
            assert np.array_equal(path, _mapped_path(kind, M, c, zero, 0.8, 16))
            assert np.abs(path - path_ref).max() <= _march_bound(path_ref, 16)
        else:
            assert not path.any() and not xT.any()
            assert np.array_equal(path, path_ref)
        assert np.array_equal(xT, path[-1]) and np.array_equal(P, P_ref)


@pytest.mark.parametrize("shape", [(5,), (0, 5), (1, 5), (3, 5)])
def test_fields_with_a_constant_jacobian_never_evaluate_the_slopes(shape, monkeypatch):
    # the zero, linear and affine fields step every state by the step map,
    # from rest and off rest, whatever the row count, within _march_bound of
    # the stage-by-stage march; an affine field with zero drift is the linear
    # field bit for bit
    m = shape[-1]
    rng = np.random.Generator(np.random.Philox(914))
    systems = catalog_systems(m, 914)[:3]
    M = np.asarray(systems[1].matrix)
    driftless = DynamicalSystem.affine(M.tolist(), np.zeros(m).tolist()).kernel_args()
    for X0 in (np.zeros(shape), rng.normal(size=shape)):
        for n in [1, 7, 257]:
            runs = {}
            for system in systems:
                with monkeypatch.context() as patch:
                    calls = _count_rest_calls(patch)
                    path = kernels.rk4_path(*system.kernel_args(), X0, 0.8, n)
                    xT, P = kernels.rk4_flow_jacobian(*system.kernel_args(), X0, 0.8, n)
                assert calls["_march"] == 0, (system.kind, shape, n)
                assert np.array_equal(xT, path[-1])
                path_ref = _marched_path(*system.kernel_args(), X0, 0.8, n)
                assert np.abs(path - path_ref).max(initial=0.0) <= _march_bound(path_ref, n)
                runs[system.kind] = path, xT, P
            driftless_run = (
                kernels.rk4_path(*driftless, X0, 0.8, n),
                *kernels.rk4_flow_jacobian(*driftless, X0, 0.8, n),
            )
            for a, b in zip(runs["linear"], driftless_run):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(5,), (3, 5)])
def test_zero_field_is_the_linear_field_with_a_zero_matrix(shape):
    # the zero field runs as the linear one with its all-zero matrix, and so
    # does the affine field with a zero matrix and a zero drift; from rest
    # and off rest their states stay x0 and their sensitivity I, exactly
    m = shape[-1]
    zero = DynamicalSystem.zero(m).kernel_args()
    linear = DynamicalSystem.linear(np.zeros((m, m))).kernel_args()
    affine = DynamicalSystem.affine(np.zeros((m, m)), np.zeros(m)).kernel_args()
    eye = np.broadcast_to(np.eye(m), shape + (m,))
    rng = np.random.Generator(np.random.Philox(913))
    for X0 in (np.zeros(shape), rng.normal(size=shape)):
        for n in [1, 7, 257]:
            path = kernels.rk4_path(*zero, X0, 0.8, n)
            xT, P = kernels.rk4_flow_jacobian(*zero, X0, 0.8, n)
            assert np.array_equal(path, np.broadcast_to(X0, (n + 1,) + shape))
            assert np.array_equal(xT, X0) and np.array_equal(P, eye)
            for other in (linear, affine):
                assert np.array_equal(path, kernels.rk4_path(*other, X0, 0.8, n))
                xT_other, P_other = kernels.rk4_flow_jacobian(*other, X0, 0.8, n)
                assert np.array_equal(xT, xT_other) and np.array_equal(P, P_other)


@pytest.mark.parametrize("blocks", ["default", "ragged"])
def test_marches_off_rest_equal_the_stage_by_stage_reference(blocks, monkeypatch):
    # blocks of 3 steps leave ragged last blocks of 1 at 7 steps and of 2 at
    # 257; by default one block covers 7 steps and several cover 257.  tanh
    # marches in 13 numpy calls a step, 8 ndarray.dot, 4 np.tanh and one
    # np.add, and no np.dot, and its states equal the fused reference with
    # the march's dots bit for bit and the textbook march within
    # _march_bound, also where the states saturate (|x| of 20 to 30); every
    # other field takes the step map, one ndarray.dot a step, whose states
    # equal the map reference bit for bit and the textbook march within
    # _march_bound.  Every sensitivity equals the product of the increments
    # of the slopes that the kernel marched, bit for bit
    m = 6
    rng = np.random.Generator(np.random.Philox(912))
    signs = rng.choice([-1.0, 1.0], size=(3, m))
    for shape in [(m,), (1, m), (3, m)]:
        rows = math.prod(shape) // m
        if blocks == "ragged":
            monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", 3 * 4 * m * m * rows)
        block = max(1, kernels.SCAN_BLOCK_FLOATS // (4 * m * m * rows))
        small = rng.normal(size=shape) * 0.5
        saturated = (rng.uniform(20.0, 30.0, size=(3, m)) * signs)[:rows].reshape(shape)
        for X0 in (small, saturated):
            for system in catalog_systems(m, 912):
                kind, M, c = system.kernel_args()
                tanh = system.kind == "tanh_saturated"
                march = _fused_steps if tanh else _marched_steps
                for n in [1, 7, 257]:
                    path_ref = _marched_path(kind, M, c, X0, 0.8, n)
                    P_ref = _marched_flow(kind, M, c, X0, 0.8, n, march)[1]
                    with monkeypatch.context() as patch:
                        calls = _count_rest_calls(patch, ("dot", "tanh", "add"))
                        with _counted_methods(calls, ("ndarray.dot",)):
                            path = kernels.rk4_path(kind, M, c, X0, 0.8, n)
                            xT, P = kernels.rk4_flow_jacobian(kind, M, c, X0, 0.8, n)
                    assert np.abs(path - path_ref).max() <= _march_bound(path_ref, n)
                    # tanh's increments depend on the state, one call per
                    # block; every other field's are formed once per path
                    # and per flow, and its map takes one ndarray.dot a step
                    if tanh:
                        blocks_run = -(-n // block)
                        assert calls == {
                            "_march": 1 + blocks_run,
                            "_step_increments": blocks_run,
                            "dot": 0,
                            "ndarray.dot": 2 * 8 * n,
                            "tanh": 2 * 4 * n,
                            "add": 2 * n,
                        }
                        fused = _marched_path(kind, M, c, X0, 0.8, n, _fused_steps)
                        assert np.array_equal(path, fused), (shape, n)
                    else:
                        assert calls == {
                            "_march": 0,
                            "_step_increments": 2,
                            "dot": 0,
                            "ndarray.dot": 2 * n,
                            "tanh": 0,
                            "add": 0,
                        }
                        assert np.array_equal(path, _mapped_path(kind, M, c, X0, 0.8, n))
                    assert np.array_equal(xT, path[-1]), (system.kind, shape, n)
                    assert np.array_equal(P, P_ref), (system.kind, shape, n)


@pytest.mark.parametrize("m", [3, 12, 24])
def test_flows_from_rest_equal_the_marched_reference(m, monkeypatch):
    # 18/19 and 56/57 steps straddle the blocks of 3 rows and of one row at
    # m = 12; 1000 steps span several blocks at every m
    for system in catalog_systems(m, 910):
        if system.kind == "affine":
            continue
        kind, M, c = system.kernel_args()
        for shape in [(m,), (1, m), (3, m)]:
            zero = np.zeros(shape)
            for n in [1, 7, 18, 19, 56, 57, 64, 100, 1000]:
                xT_ref, P_ref = _marched_flow(kind, M, c, zero, 0.8, n)
                with monkeypatch.context() as patch:
                    calls = _count_rest_calls(patch)
                    xT, P = kernels.rk4_flow_jacobian(kind, M, c, zero, 0.8, n)
                assert calls == {"_march": 0, "_step_increments": 1}
                assert np.array_equal(xT, xT_ref) and np.array_equal(P, P_ref), (shape, n)
                assert P.shape == shape + (m,) and P.flags.writeable


def _reference_sensitivity():
    """tools/bench_flow_jacobian.py's long-double RK4 variational recursion,
    the reference its recorded errors are measured against."""
    return tool_module("bench_flow_jacobian").reference_sensitivity


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no type wider than float64"
)
@pytest.mark.parametrize("m", [5, 12, 24])
def test_flow_jacobian_matches_long_double_recursion(m):
    x0 = np.random.Generator(np.random.Philox(m)).normal(size=m) * 0.5
    # the sensitivity to 8e-16; the tanh state, which _march sums in its own
    # order, within _march_bound of the long-double state
    reference_sensitivity = _reference_sensitivity()
    for system in catalog_systems(m, 906):
        kind, M, c = system.kernel_args()
        xT, P = kernels.rk4_flow_jacobian(kind, M, c, x0, 0.8, 256)
        x_ref, P_ref = reference_sensitivity(kind, M, c, x0, 0.8, 256)
        assert np.abs(P - P_ref).max() <= 8e-16, system.kind
        if system.kind == "tanh_saturated":
            path = kernels.rk4_path(kind, M, c, x0, 0.8, 256)
            assert np.abs(xT - x_ref).max() <= _march_bound(path, 256)


@pytest.mark.parametrize("m", [1, 2, 6, 12, 24])
def test_chained_copies_equal_the_pairwise_chain_bit_for_bit(m):
    E = 0.05 * np.random.Generator(np.random.Philox(m)).normal(size=(m, m))
    for b in range(1, 131):
        expected = kernels._chain(np.broadcast_to(E, (b, m, m)))
        assert np.array_equal(kernels._chain_copies(E, b), expected), b


@pytest.mark.parametrize("rows", [None, 5])
def test_flow_jacobian_block_boundaries(rows, monkeypatch):
    # blocks of 3 steps: 257 steps end in a ragged block of 2, and each full
    # block pairs an odd number of increments
    m = 5
    X0 = np.random.Generator(np.random.Philox(907)).normal(size=(rows or 1, m)) * 0.5
    X0 = X0[0] if rows is None else X0
    expected = [
        kernels.rk4_flow_jacobian(*s.kernel_args(), X0, 0.8, 257) for s in catalog_systems(m, 907)
    ]
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", 3 * 4 * m * m * (rows or 1))
    blocks = []
    increments = kernels._step_increments

    def counting(kind, M, K, h):
        blocks.append(len(K))
        return increments(kind, M, K, h)

    monkeypatch.setattr(kernels, "_step_increments", counting)
    for system, (xT_ref, P_ref) in zip(catalog_systems(m, 907), expected):
        blocks.clear()
        xT, P = kernels.rk4_flow_jacobian(*system.kernel_args(), X0, 0.8, 257)
        # tanh forms the increments of each block; every other field forms
        # one step's once
        assert blocks == ([3] * 85 + [2] if system.kind == "tanh_saturated" else [1])
        assert np.array_equal(xT, xT_ref)
        np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-14)


# --- settled step counts -----------------------------------------------------


def test_settle_passes_a_fixed_config_through():
    system = DynamicalSystem.tanh_saturated([[0.5, 0.2], [0.1, -0.3]])
    cfg = IntegrationConfig.fixed(48)
    assert settle(system, np.zeros(2), 0.6, cfg) == (cfg, None)
    assert settle(system, np.zeros(2), 0.6, cfg)[0] is cfg
    assert settle(system, np.zeros(2), 0.6) == (IntegrationConfig(), None)


def test_settle_climbs_once_at_zero(monkeypatch):
    system = DynamicalSystem.tanh_saturated([[0.5, 0.2], [0.1, -0.3]])
    calls = []
    kernel = kernels.rk4_flow_jacobian

    def counting(kind, M, c, X, T, n):
        calls.append((X.tolist(), n))
        return kernel(kind, M, c, X, T, n)

    monkeypatch.setattr(kernels, "rk4_flow_jacobian", counting)
    cfg, _ = settle(system, np.zeros(2), 0.6, IntegrationConfig.adaptive(1e-12))
    assert cfg.mode == "fixed"
    steps = [n for _, n in calls]
    assert steps == [8 << i for i in range(len(steps))]
    assert cfg.step_count == steps[-1]
    assert all(X == [0.0, 0.0] for X, _ in calls)
    # the count is the one adaptive mode accepts for the same flow at 0
    calls.clear()
    flow_with_jacobian(system, np.zeros(2), 0.6, IntegrationConfig.adaptive(1e-12))
    assert calls[-1][1] == cfg.step_count


@pytest.mark.parametrize("T", [0.05, 0.139, 0.3, 1.0])
def test_settle_returns_the_flow_at_its_count(T):
    # the climb's last flow is the fixed-count flow, bit for bit, from one
    # state and from rows, and the count does not depend on which
    system = load_experiment_config(_DEMO_CONFIG).system
    adaptive = IntegrationConfig.adaptive(1e-9)
    rng = np.random.Generator(np.random.Philox(35))
    starts = (np.zeros(12), np.zeros((1, 12)), rng.normal(size=12), rng.normal(size=(3, 12)))
    counts = []
    for x0 in starts:
        cfg, (xT, P) = settle(system, x0, T, adaptive)
        counts.append(cfg.step_count)
        xT_ref, P_ref = flow_with_jacobian(system, x0, T, cfg)
        assert xT.shape == xT_ref.shape and P.shape == P_ref.shape
        assert np.array_equal(xT, xT_ref) and np.array_equal(P, P_ref)
        # adaptive flow_with_jacobian is the climb's flow
        xT_a, P_a = flow_with_jacobian(system, x0, T, adaptive)
        assert np.array_equal(xT_a, xT) and np.array_equal(P_a, P)
    assert counts[0] == counts[1]


def test_settle_raises_on_a_blowup():
    system = DynamicalSystem.affine([[100.0]], [1.0])
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        settle(system, np.zeros(1), 10.0, IntegrationConfig.adaptive())


@pytest.mark.parametrize("T", [0.08, 0.14, 0.2])
def test_settled_count_holds_away_from_zero(T):
    # the count is settled at 0, where tanh is linear; planted states bend
    # the field and saturated ones flatten it, so check both against 4096 steps
    system = load_experiment_config(_DEMO_CONFIG).system
    tol = 1e-12
    cfg, _ = settle(system, np.zeros(12), T, IntegrationConfig.adaptive(tol))
    assert cfg.step_count < 256
    rng = np.random.Generator(np.random.Philox(34))
    planted = np.zeros((8, 12))
    for row in planted:
        support = rng.choice(12, size=2, replace=False)
        row[support] = rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
    dense = rng.normal(size=(8, 12)) * 3.0
    saturated = rng.uniform(90.0, 110.0, (8, 12)) * rng.choice([-1.0, 1.0], (8, 12))
    X0 = np.concatenate((planted, dense, saturated))
    XT, P = flow_with_jacobian(system, X0, T, cfg)
    XT_ref, P_ref = flow_with_jacobian(system, X0, T, IntegrationConfig.fixed(4096))
    assert np.all(np.abs(XT - XT_ref) <= tol * (1.0 + np.abs(XT_ref)))
    assert np.all(np.abs(P - P_ref) <= tol * (1.0 + np.abs(P_ref)))


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
        L = system.lipschitz
        for _ in range(100):
            x1 = rng.normal(size=6)
            x2 = rng.normal(size=6)
            t1 = integrate(system, x1, 1.0, cfg)
            t2 = integrate(system, x2, 1.0, cfg)
            gap0 = float(np.linalg.norm(x2 - x1))
            gaps = np.linalg.norm(t2.states - t1.states, axis=1)
            envelopes = np.array([gronwall_envelope(L, gap0, t) for t in t1.times])
            assert np.all(gaps <= envelopes + 1e-6)


# --- dependencies ------------------------------------------------------------


def test_integration_and_recovery_run_without_scipy():
    # a subprocess, because the pytest process imports scipy itself
    code = """
import sys
import numpy as np
from sparseobs import DynamicalSystem, IntegrationConfig, MeasurementModel, SparseProblem
from sparseobs import flow_with_jacobian, integrate, recover_initial_state
cfg = IntegrationConfig.adaptive()
system = DynamicalSystem.tanh_saturated([[0.5, 0.2], [0.1, -0.3]])
integrate(system, [0.4, -0.2], 0.6, cfg)
flow_with_jacobian(system, np.array([[0.4, -0.2], [1.0, 2.0]]), 0.6, cfg)
A = np.eye(2)
b = A @ integrate(system, [0.7, 0.0], 0.6, cfg).final_state
meas = MeasurementModel(matrix=A, time=0.6, noise_radius=0.0, weights=np.ones(2))
recover_initial_state(SparseProblem(system, meas, b, 1), cfg)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
