"""Forward integration of the catalog systems and of their variational
equations (flow sensitivities), plus the exponential deviation envelope used
by the certificates.

The one integrator is classical RK4 in kernels.  settle is the one adaptive
climb: it doubles one step count for the whole call until x(T) and
dx(T)/dx0 agree with the previous count's entrywise to tolerance * (1 +
|value|), for every row at once, and returns that count as a fixed config
with the flow it measured there.  integrate settles from x0 before it steps
the path, adaptive flow_with_jacobian returns the climb's flow, and
recovery, the oracle and the experiment trials settle once at x = 0 and run
every flow of one problem at that count.  Under every field but tanh, and
under tanh at rest, a path takes one matvec a step and a flow's sensitivity
multiplies copies of one step's increment, once per block length, for every
row at once (see kernels.rk4_flow_jacobian); a flow from rest steps no
state, so the climb at 0 is cheap, and its last flow is the flow at rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, NumericalError, ShapeError, check_count, check_real
from .model import DynamicalSystem

_MODES = ("fixed", "adaptive")

_DEFAULT_STEPS = 256
_DEFAULT_TOLERANCE = 1e-9

_ADAPTIVE_START_STEPS = 8
# adaptive mode raises rather than double past this many steps
_ADAPTIVE_MAX_STEPS = 1 << 16


@dataclass(frozen=True)
class IntegrationConfig:
    """Integrator selection.  mode picks which setting is used: "fixed" takes
    step_count uniform RK4 steps (256 unless set), "adaptive" doubles the RK4
    step count until two successive counts agree to tolerance (1e-9 unless
    set, relative to 1 + |value|).  The setting the mode does not use stays
    None, and setting it raises DomainError."""

    mode: str = "fixed"
    step_count: int | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        fixed = self.mode == "fixed"
        unused = "tolerance" if fixed else "step_count"
        if getattr(self, unused) is not None:
            raise DomainError(f"{unused} does not apply in {self.mode} mode")
        if fixed:
            steps = _DEFAULT_STEPS if self.step_count is None else self.step_count
            object.__setattr__(self, "step_count", check_count(steps, "step_count"))
        else:
            tol = _DEFAULT_TOLERANCE if self.tolerance is None else self.tolerance
            object.__setattr__(self, "tolerance", check_real(tol, "tolerance", positive=True))

    @classmethod
    def fixed(cls, step_count=_DEFAULT_STEPS):
        return cls(mode="fixed", step_count=step_count)

    @classmethod
    def adaptive(cls, tolerance=_DEFAULT_TOLERANCE):
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
    return (np.abs(fine - coarse) <= tol * (1.0 + np.abs(fine))).all()


def integrate(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
) -> Trajectory:
    """Propagate the system from x0 over [0, T] and return the sampled path.

    The samples are the uniform RK4 grid, step_count steps in fixed mode and
    in adaptive mode the count that settle accepts from x0.  Row 0 is
    exactly x0.  A non-finite state aborts with the first grid time at which
    it appeared.
    """
    x0, T = _check_args(system, x0, T)
    n = settle(system, x0, T, config)[0].step_count
    states = kernels.rk4_path(*system.kernel_args(), x0, T, n)
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        t_bad = float(np.linspace(0.0, T, n + 1)[np.argmax(bad)])
        raise NumericalError(f"state became non-finite at t={t_bad:.6g}", time=t_bad)
    return Trajectory(times=np.linspace(0.0, T, n + 1), states=states)


def _flow_run(system, X, T, n):
    """kernels.rk4_flow_jacobian from X at n steps, raising NumericalError on
    a non-finite value."""
    kind, M, c = system.kernel_args()
    XT, P = kernels.rk4_flow_jacobian(kind, M, c, X, T, n)
    finite = np.isfinite(XT).all(axis=-1) & np.isfinite(P).all(axis=(-2, -1))
    if not finite.all():
        # rerun the plain state integration for the blow-up time diagnostic
        integrate(system, np.atleast_2d(X)[np.argmin(finite)], T, IntegrationConfig.fixed(n))
        raise NumericalError("sensitivity integration produced non-finite values", time=T)
    return XT, P


def flow_with_jacobian(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
):
    """Final state x(T) and the flow sensitivity dx(T)/dx0, integrating the
    matrix variational equation alongside the state.  x0 is one state (m,),
    giving (m,) and (m, m), or rows (k, m), giving (k, m) and (k, m, m).

    In adaptive mode this is settle's flow: the step count doubles for the
    whole call until x(T) and the sensitivity of every row agree, so every
    row runs at one count, the first at which all of them have settled.  A
    non-finite value raises NumericalError at once.
    """
    X0, T = _check_args(system, x0, T, rows=True)
    icfg, flow = settle(system, X0, T, config)
    return _flow_run(system, X0, T, icfg.step_count) if flow is None else flow


def settle(system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None):
    """The fixed config to integrate the system over [0, T] with, and the
    flow (x(T), dx(T)/dx0) measured at its count.  A fixed config comes back
    as it is, with None for the flow.  An adaptive config doubles one step
    count from 8 for the whole call until x(T) and the sensitivity of every
    row of x0, one state (m,) or rows (k, m), agree with the previous
    count's, and returns that count as IntegrationConfig.fixed with the flow
    at it, which flow_with_jacobian at the fixed config gives bit for bit.
    Recovery, the oracle and the trials settle at x0 = 0, where tanh is
    linear; tests/test_ode.py checks that the count holds the tolerance at
    planted, dense and saturated states of the demo system against 4096
    steps."""
    cfg = config or IntegrationConfig()
    if cfg.mode == "fixed":
        return cfg, None
    X0, T = _check_args(system, x0, T, rows=True)
    n = _ADAPTIVE_START_STEPS
    XT, P = _flow_run(system, X0, T, n)
    while True:
        n = _doubled(n)
        XT_n, P_n = XT, P
        XT, P = _flow_run(system, X0, T, n)
        if _settled(XT_n, XT, cfg.tolerance) and _settled(P_n, P, cfg.tolerance):
            return IntegrationConfig.fixed(n), (XT, P)


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
