"""Forward integration of the catalog systems and of their variational
equations (flow sensitivities), plus the exponential deviation envelope used
by the certificates.

The default integrator is classical fixed-step RK4 in kernels; an adaptive
mode delegates to scipy's RK45.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, NumericalError, ShapeError
from .model import DynamicalSystem, eval_rhs

_MODES = ("fixed", "adaptive")


@dataclass(frozen=True)
class IntegrationConfig:
    """Integrator selection.  mode picks which knob is active: "fixed" uses
    step_count uniform RK4 steps, "adaptive" hands tolerance to scipy's RK45
    as both rtol and atol."""

    mode: str = "fixed"
    step_count: int = 256
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        n = int(self.step_count)
        if n < 1:
            raise DomainError(f"step_count must be >= 1, got {self.step_count}")
        object.__setattr__(self, "step_count", n)
        tol = float(self.tolerance)
        if not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"tolerance must be positive and finite, got {self.tolerance}")
        object.__setattr__(self, "tolerance", tol)

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

    def to_csv(self, path):
        m = self.states.shape[1]
        header = "t," + ",".join(f"x_{j + 1}" for j in range(m))
        lines = [header]
        for ti, row in zip(self.times, self.states):
            lines.append(",".join([repr(float(ti))] + [repr(float(v)) for v in row]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def _check_args(system, x0, T):
    x0 = np.ascontiguousarray(x0, dtype=float)
    if x0.shape != (system.dim,):
        raise ShapeError(f"x0 must have shape ({system.dim},), got {x0.shape}")
    T = float(T)
    if not (math.isfinite(T) and T > 0):
        raise DomainError(f"T must be positive and finite, got {T}")
    return x0, T


def _raise_on_blowup(times, states):
    bad = ~np.all(np.isfinite(states), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        t_bad = float(times[i])
        raise NumericalError(f"state became non-finite at t={t_bad:.6g}", time=t_bad)


def integrate(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
) -> Trajectory:
    """Propagate the system from x0 over [0, T] and return the sampled path.

    Fixed mode returns step_count+1 uniformly spaced samples with row 0
    exactly x0; adaptive mode returns scipy's accepted steps.  A non-finite
    state aborts with the first grid time at which it appeared.
    """
    cfg = config or IntegrationConfig()
    x0, T = _check_args(system, x0, T)
    if cfg.mode == "fixed":
        kind, M, c = system.kernel_args()
        states = kernels.rk4_path(kind, M, c, x0, T, cfg.step_count)
        times = np.linspace(0.0, T, cfg.step_count + 1)
    else:
        times, states = _solve_adaptive(system, x0, T, cfg.tolerance)
    _raise_on_blowup(times, states)
    return Trajectory(times=times, states=states)


def _solve_adaptive(system, x0, T, tol):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, x: eval_rhs(system, t, x),
        (0.0, T),
        x0,
        method="RK45",
        rtol=tol,
        atol=tol,
    )
    if not sol.success:
        raise NumericalError(f"adaptive integration failed: {sol.message}", time=None)
    times = np.asarray(sol.t, dtype=float)
    states = np.asarray(sol.y.T, dtype=float)
    # guard against a degenerate first step collapsing onto t=0
    if times.shape[0] < 2:
        raise NumericalError("adaptive integration returned no interior samples", time=None)
    return times, states


def flow_with_jacobian(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
):
    """Final state x(T) and the flow sensitivity dx(T)/dx0, integrating the
    matrix variational equation alongside the state."""
    cfg = config or IntegrationConfig()
    x0, T = _check_args(system, x0, T)
    m = system.dim
    if cfg.mode == "fixed":
        kind, M, c = system.kernel_args()
        xT, P = kernels.rk4_flow_jacobian(kind, M, c, x0, T, cfg.step_count)
    else:
        xT, P = _flow_adaptive(system, x0, T, cfg.tolerance)
    if not (np.all(np.isfinite(xT)) and np.all(np.isfinite(P))):
        # rerun the plain state integration for the blow-up time diagnostic
        integrate(system, x0, T, cfg)
        raise NumericalError("sensitivity integration produced non-finite values", time=T)
    return xT, P.reshape(m, m)


def _flow_adaptive(system, x0, T, tol):
    from scipy.integrate import solve_ivp

    m = system.dim
    kind, M, c = system.kernel_args()

    def aug_rhs(t, y):
        dx, dP = kernels.rhs(kind, M, M.T, c, y[:m], y[m:].reshape(m, m))
        return np.concatenate([dx, dP.ravel()])

    y0 = np.concatenate([x0, np.eye(m).ravel()])
    sol = solve_ivp(aug_rhs, (0.0, T), y0, method="RK45", rtol=tol, atol=tol)
    if not sol.success:
        raise NumericalError(f"adaptive integration failed: {sol.message}", time=None)
    yT = sol.y[:, -1]
    return yT[:m], yT[m:].reshape(m, m)


def flow_jacobian(
    system: DynamicalSystem, x0, T, config: IntegrationConfig | None = None
) -> np.ndarray:
    """The flow sensitivity dx(T)/dx0 alone."""
    return flow_with_jacobian(system, x0, T, config)[1]


def gronwall_envelope(lipschitz: float, gap0: float, t: float) -> float:
    """Upper envelope gap0 * exp(lipschitz * t) for the separation of two
    solutions whose initial states are gap0 apart."""
    L = float(lipschitz)
    g = float(gap0)
    tt = float(t)
    if L < 0 or g < 0 or tt < 0:
        raise DomainError("lipschitz, gap0, and t must all be nonnegative")
    return g * math.exp(L * tt)
