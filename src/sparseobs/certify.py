"""Observability and recovery certificates.

Everything here is closed-form in five scalars: the Lipschitz constant L of
the dynamics, the restricted-isometry constant delta of twice the sparsity,
the weight condition number tau, the measurement horizon T, and the operator
norm of the measurement matrix.  The exponential excess exp(L*T) - 1 measures
how far the flow can drift from the identity; certificates hold while that
excess is small enough, which translates into explicit horizons on T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InfeasibleCertificate,
    ShapeError,
    check_count,
    check_matrix,
    check_real,
)
from .model import DynamicalSystem, best_s_term
from .ode import IntegrationConfig, integrate
from .rip import operator_norm

_SQRT2 = math.sqrt(2.0)

REASON_DELTA = "delta-condition"
REASON_DENOMINATOR = "denominator-nonpositive"
REASON_HORIZON = "horizon-exceeded"


@dataclass(frozen=True)
class Certificate:
    """Feasibility verdict and constants for one (delta_2s, tau, L, T, op_norm)
    tuple.

    observability_T_max is the largest horizon with guaranteed injectivity on
    sparse differences (None when delta_2s >= 1, inf when L = 0).
    recovery_T_max is the stricter horizon under which the error bound holds;
    0.0 means no positive horizon works, None means the bound's log argument
    is not even positive.  The error-bound coefficients are None whenever
    feasible is False; reasons then lists each violated condition.
    """

    delta_2s: float
    tau: float
    lipschitz: float
    time: float
    op_norm: float
    gronwall_excess: float
    observability_T_max: float | None
    recovery_T_max: float | None
    alpha: float | None
    rho: float | None
    sparsity_coeff: float | None
    noise_coeff: float | None
    feasible: bool
    reasons: tuple


def _check_tau(tau):
    t = check_real(tau, "tau")
    if t < 1:
        raise DomainError(f"tau must be >= 1, got {t}")
    return t


def observability_horizon(lipschitz: float, delta_2s: float, op_norm: float):
    """Largest measurement time below which any two distinct initial states
    that are jointly sparse enough stay distinguishable: log1p of the isometry
    floor over the operator norm, divided by L.  None when delta_2s >= 1 (no
    isometry floor), inf when the dynamics are static (L = 0)."""
    L = check_real(lipschitz, "lipschitz")
    d = check_real(delta_2s, "delta_2s")
    a = check_real(op_norm, "op_norm", positive=True)
    if d >= 1.0:
        return None
    ratio = math.sqrt(1.0 - d) / a
    if L == 0.0:
        return float("inf")
    return math.log1p(ratio) / L


def recovery_horizon(lipschitz: float, delta_2s: float, tau: float, op_norm: float):
    """Largest measurement time below which the weighted-l1 error bound is
    certifiable.  Returns inf when static dynamics keep the bound valid for
    all T, 0.0 when no positive time works, and None when the log argument of
    the horizon formula is nonpositive."""
    L = check_real(lipschitz, "lipschitz")
    d = check_real(delta_2s, "delta_2s")
    a = check_real(op_norm, "op_norm", positive=True)
    t = _check_tau(tau)
    numerator = 1.0 - d * (1.0 + t * _SQRT2)
    denominator = (1.0 + t) * a * math.sqrt(1.0 + d)
    ratio = numerator / denominator
    if 1.0 + ratio <= 0.0:
        return None
    if L == 0.0:
        return float("inf") if ratio > 0.0 else 0.0
    return max(math.log1p(ratio) / L, 0.0)


def recovery_constants(
    delta_2s: float, tau: float, lipschitz: float, time: float, op_norm: float
) -> Certificate:
    """Certificate for the weighted-l1 recovery error bound.

    Feasible exactly when delta_2s < 1 / (1 + tau * sqrt(2)) and the damping
    margin D = 1 - rho*tau - alpha*(1 + tau)*excess*op_norm/2 stays positive,
    which is the same as the time staying under recovery_horizon.  The bound
    coefficients are sparsity_coeff = 2*tau*(rho + 1)/D on the s-term tail and
    noise_coeff = alpha*(1 + tau)/D on the noise radius.
    """
    L = check_real(lipschitz, "lipschitz")
    d = check_real(delta_2s, "delta_2s")
    a = check_real(op_norm, "op_norm", positive=True)
    t = _check_tau(tau)
    T = check_real(time, "time", positive=True)

    excess = math.expm1(L * T)
    obs_T = observability_horizon(L, d, a)
    rec_T = recovery_horizon(L, d, t, a)

    delta_ok = d < 1.0 / (1.0 + t * _SQRT2)
    reasons = []
    if not delta_ok:
        reasons.append(REASON_DELTA)

    if d >= 1.0:
        alpha = rho = None
        damping_ok = False
        reasons.append(REASON_DENOMINATOR)
    else:
        alpha = 2.0 * math.sqrt(1.0 + d) / (1.0 - d)
        rho = _SQRT2 * d / (1.0 - d)
        damping = 1.0 - rho * t - 0.5 * alpha * (1.0 + t) * excess * a
        damping_ok = damping > 0.0
        if not damping_ok:
            reasons.append(REASON_DENOMINATOR)
    if rec_T is None or (rec_T != float("inf") and T >= rec_T):
        if not (delta_ok and damping_ok):
            reasons.append(REASON_HORIZON)

    feasible = delta_ok and damping_ok
    if feasible:
        c0 = 2.0 * t * (rho + 1.0) / damping
        c1 = alpha * (1.0 + t) / damping
    else:
        c0 = c1 = None

    return Certificate(
        delta_2s=d,
        tau=t,
        lipschitz=L,
        time=T,
        op_norm=a,
        gronwall_excess=excess,
        observability_T_max=obs_T,
        recovery_T_max=rec_T,
        alpha=alpha,
        rho=rho,
        sparsity_coeff=c0,
        noise_coeff=c1,
        feasible=feasible,
        reasons=tuple(reasons),
    )


def recovery_error_bound(certificate: Certificate, x0, s: int, eps: float) -> float:
    """Evaluate the certified l2 error bound at a reference initial state:
    sparsity_coeff * ||x0 - best_s_term(x0, s)||_1 / sqrt(s) + noise_coeff * eps.
    Requires a feasible certificate."""
    if not certificate.feasible:
        raise InfeasibleCertificate(
            f"certificate is infeasible ({', '.join(certificate.reasons)})",
            reasons=certificate.reasons,
        )
    s = check_count(s, "s")
    eps = check_real(eps, "eps")
    x0 = np.asarray(x0, dtype=float)
    tail = x0 - best_s_term(x0, min(s, x0.size))
    tail_l1 = float(np.sum(np.abs(tail)))
    return certificate.sparsity_coeff * tail_l1 / math.sqrt(s) + certificate.noise_coeff * eps


def distinguishability_gap(
    A,
    system: DynamicalSystem,
    x1_0,
    x2_0,
    time: float,
    config: IntegrationConfig | None = None,
    delta_2s: float = 0.0,
):
    """(measured, guaranteed) separation of two initial states.

    measured is ||A (x2(T) - x1(T))||_2 from actual integration; guaranteed is
    the certified floor (sqrt(1 - delta_2s) - excess * ||A||) * ||x2_0 - x1_0||_2,
    which may be negative when the horizon is too long.  delta_2s >= 1 carries
    no floor at all and yields -inf.
    """
    A = check_matrix(A, "A")
    if A.shape[1] != system.dim:
        raise ShapeError(f"A has {A.shape[1]} columns but the system dimension is {system.dim}")
    x1_0 = np.asarray(x1_0, dtype=float)
    x2_0 = np.asarray(x2_0, dtype=float)
    if np.array_equal(x1_0, x2_0):
        raise DomainError("initial states must differ")
    d = check_real(delta_2s, "delta_2s")

    traj1 = integrate(system, x1_0, time, config)
    traj2 = integrate(system, x2_0, time, config)
    measured = float(np.linalg.norm(A @ (traj2.final_state - traj1.final_state)))

    gap0 = float(np.linalg.norm(x2_0 - x1_0))
    if d >= 1.0:
        return measured, float("-inf")
    excess = math.expm1(system.lipschitz * float(time))
    guaranteed = (math.sqrt(1.0 - d) - excess * operator_norm(A)) * gap0
    return measured, guaranteed
