"""Forward integration of the catalog systems and of their variational
equations (flow sensitivities), plus the exponential deviation envelope used
by the certificates.

The one integrator is classical RK4 in kernels.  Adaptive mode doubles one
step count for the whole call until x(T) and dx(T)/dx0 agree with the
previous count's entrywise to tolerance * (1 + |value|), for every row at
once; integrate settles so from x0 before it steps the path.  settle_steps
runs that search once, at x = 0, and returns the accepted count as a fixed
config, which recovery, the oracle and the experiment trials use for every
flow of one problem.  Under every field but tanh, and under tanh at rest, a
path takes one matvec a step and a flow's sensitivity multiplies copies of
one step's increment, once per block length, for every row at once (see
kernels.rk4_flow_jacobian); a flow from rest steps no state, so the search
at 0 and the flows at 0 of recovery and the oracle are cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, NumericalError, ShapeError, check_count, check_real
from .model import DynamicalSystem

_MODES = ("fixed", "adaptive")

_ADAPTIVE_START_STEPS = 8
# adaptive mode raises rather than double past this many steps
_ADAPTIVE_MAX_STEPS = 1 << 16


@dataclass(frozen=True)
class IntegrationConfig:
    """Integrator selection.  mode picks which knob is active: "fixed" uses
    step_count uniform RK4 steps, "adaptive" doubles the RK4 step count until
    two successive counts agree to tolerance (relative to 1 + |value|)."""

    mode: str = "fixed"
    step_count: int = 256
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "step_count", check_count(self.step_count, "step_count"))
        tolerance = check_real(self.tolerance, "tolerance", positive=True)
        object.__setattr__(self, "tolerance", tolerance)

    @classmethod
    def fixed(cls, step_count=256):
        return cls(mode="fixed", step_count=step_count)

    @classmethod
    def adaptive(cls, tolerance=1e-9):
        return cls(mode="adaptive", tolerance=tolerance)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution path: times (k,), strictly increasing from 0, and
    states (k, m) with row i the state at times[i]."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        x = np.array(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or t.shape[0] != x.shape[0]:
            raise ShapeError(
                f"times (k,) and states (k, m) must agree, got {t.shape} and {x.shape}"
            )
        if t.shape[0] < 1 or t[0] != 0.0:
            raise DomainError("times must start at 0")
        if np.any(np.diff(t) <= 0):
            raise DomainError("times must be strictly increasing")
        t.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def final_state(self):
        return self.states[-1]


def _check_args(system, x0, T, rows=False):
    x0 = np.ascontiguousarray(x0, dtype=float)
    m = system.dim
    if not (x0.ndim in ((1, 2) if rows else (1,)) and x0.shape[-1] == m):
        want = f"({m},) or (k, {m})" if rows else f"({m},)"
        raise ShapeError(f"x0 must have shape {want}, got {x0.shape}")
    return x0, check_real(T, "T", positive=True)


def _doubled(n):
    if 2 * n > _ADAPTIVE_MAX_STEPS:
        raise NumericalError(f"adaptive integration did not settle in {_ADAPTIVE_MAX_STEPS} steps")
    return 2 * n


def _settled(coarse, fine, tol):
    """Whether the n-step values match the 2n-step ones entrywise to tol."""
    return np.all(np.abs(fine - coarse) <= tol * (1.0 + np.abs(fine)))


def integrate(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
) -> Trajectory:
    """Propagate the system from x0 over [0, T] and return the sampled path.

    The samples are the uniform RK4 grid, step_count steps in fixed mode and
    in adaptive mode the count at which flow_with_jacobian settles from x0.
    Row 0 is exactly x0.  A non-finite state aborts with the first grid time
    at which it appeared.
    """
    cfg = config or IntegrationConfig()
    x0, T = _check_args(system, x0, T)
    n = cfg.step_count if cfg.mode == "fixed" else _climb(system, x0, T, cfg.tolerance)[2]
    states = kernels.rk4_path(*system.kernel_args(), x0, T, n)
    bad = ~np.all(np.isfinite(states), axis=1)
    if np.any(bad):
        t_bad = float(np.linspace(0.0, T, n + 1)[np.argmax(bad)])
        raise NumericalError(f"state became non-finite at t={t_bad:.6g}", time=t_bad)
    return Trajectory(times=np.linspace(0.0, T, n + 1), states=states)


def _flow_run(system, X, T, n):
    """kernels.rk4_flow_jacobian from X at n steps, raising NumericalError on
    a non-finite value."""
    kind, M, c = system.kernel_args()
    XT, P = kernels.rk4_flow_jacobian(kind, M, c, X, T, n)
    finite = np.all(np.isfinite(XT), axis=-1) & np.all(np.isfinite(P), axis=(-2, -1))
    if not np.all(finite):
        # rerun the plain state integration for the blow-up time diagnostic
        integrate(system, np.atleast_2d(X)[np.argmin(finite)], T, IntegrationConfig.fixed(n))
        raise NumericalError("sensitivity integration produced non-finite values", time=T)
    return XT, P


def _climb(system, X, T, tol):
    """Adaptive flow of X, one state or rows: doubles one step count for the
    whole call until x(T) and the sensitivity of every row agree with the
    previous count's.  Returns x(T), the sensitivities and the count."""
    n = _ADAPTIVE_START_STEPS
    XT, P = _flow_run(system, X, T, n)
    while True:
        n = _doubled(n)
        XT_n, P_n = XT, P
        XT, P = _flow_run(system, X, T, n)
        if _settled(XT_n, XT, tol) and _settled(P_n, P, tol):
            return XT, P, n


def flow_with_jacobian(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
):
    """Final state x(T) and the flow sensitivity dx(T)/dx0, integrating the
    matrix variational equation alongside the state.  x0 is one state (m,),
    giving (m,) and (m, m), or rows (k, m), giving (k, m) and (k, m, m).

    In adaptive mode the step count doubles for the whole call until x(T)
    and the sensitivity of every row agree, so every row runs at one count:
    the first at which all of them have settled.  A non-finite value raises
    NumericalError at once.
    """
    cfg = config or IntegrationConfig()
    X0, T = _check_args(system, x0, T, rows=True)
    if cfg.mode == "fixed":
        return _flow_run(system, X0, T, cfg.step_count)
    return _climb(system, X0, T, cfg.tolerance)[:2]


def settle_steps(
    system: DynamicalSystem, T, config: IntegrationConfig | None = None
) -> IntegrationConfig:
    """The fixed config to integrate the system over [0, T] with.  A fixed
    config comes back as it is.  An adaptive config runs flow_with_jacobian's
    step doubling once, at x = 0, and returns the count at which x(T) and
    dx(T)/dx0 settled to its tolerance as IntegrationConfig.fixed.  The count
    is settled at 0 only, where tanh is linear; tests/test_ode.py checks that
    it holds the tolerance at planted, dense and saturated states of the demo
    system against 4096 steps."""
    cfg = config or IntegrationConfig()
    if cfg.mode == "fixed":
        return cfg
    T = check_real(T, "T", positive=True)
    steps = _climb(system, np.zeros((1, system.dim)), T, cfg.tolerance)[2]
    return IntegrationConfig.fixed(steps)


def flow_jacobian(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
) -> np.ndarray:
    """The flow sensitivity dx(T)/dx0 alone."""
    return flow_with_jacobian(system, x0, T, config)[1]


def gronwall_envelope(lipschitz: float, gap0: float, t: float) -> float:
    """Upper envelope gap0 * exp(lipschitz * t) for the separation of two
    solutions whose initial states are gap0 apart."""
    L = check_real(lipschitz, "lipschitz")
    g = check_real(gap0, "gap0")
    return g * math.exp(L * check_real(t, "t"))
