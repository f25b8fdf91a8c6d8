"""Weighted-l1 recovery of sparse initial states, plus the exhaustive
combinatorial oracle used to sanity-check it at desk scale.

The core solve is weighted basis-pursuit denoising on a linearization of the
flow map: min sum_i w_i |x_i| subject to ||observation - offset - Phi x|| <=
eps.  Systems with an affine flow need a single linearization; the saturated
catalog member re-linearizes around the current estimate until the step
stalls.  The noisy case runs ADMM on the penalized form and bisects the
penalty weight until the residual lands just above eps, which keeps the
returned point both feasible-within-tolerance and objective-dominated by any
true feasible point.  Recovery and the oracle's Gauss-Newton fits share one
line search, which evaluates the flow Jacobian with each trial point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .errors import (
    BudgetError,
    DomainError,
    InfeasibleError,
    check_array,
    check_count,
    check_matrix,
    check_real,
    check_weights,
)
from .model import RecoveryOutcome, SparseProblem, weighted_l1_norm
# unused integrate stays bound: pipebench/bench_trace.py traces it as a call site here
from .ode import IntegrationConfig, flow_with_jacobian, integrate  # noqa: F401

# linearizing at a single point is exact for these kinds
_AFFINE_FLOW_KINDS = ("zero", "linear", "affine")

DEFAULT_ORACLE_BUDGET = 100_000

# slack on the oracle's feasibility test, well under every reporting tolerance
_ORACLE_FEAS_SLACK = 1e-9

# the oracle fits supports in blocks whose flow Jacobians hold at most this
# many floats, which bounds its memory whatever the level size
_ORACLE_BLOCK_FLOATS = 1 << 18

# the line search gives a step up once its damping falls below these
_RECOVER_DAMPING_FLOOR = 2.0**-30
_FIT_DAMPING_FLOOR = 2.0**-20


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the recovery solvers.

    outer_* control the re-linearization loop, inner_* the ADMM iterations,
    penalty is the ADMM step weight, and residual_match_tol is the slack
    allowed between the achieved residual and the target eps.
    """

    outer_max_iter: int = 30
    outer_tol: float = 1e-8
    inner_max_iter: int = 5000
    inner_tol: float = 1e-9
    penalty: float = 1.0
    residual_match_tol: float = 1e-6

    def __post_init__(self):
        checked = {
            "outer_max_iter": check_count(self.outer_max_iter, "outer_max_iter"),
            "outer_tol": check_real(self.outer_tol, "outer_tol", positive=True),
            "inner_max_iter": check_count(self.inner_max_iter, "inner_max_iter"),
            "inner_tol": check_real(self.inner_tol, "inner_tol", positive=True),
            "penalty": check_real(self.penalty, "penalty", positive=True),
            "residual_match_tol": check_real(
                self.residual_match_tol, "residual_match_tol", positive=True
            ),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, doc):
        known = {f.name for f in fields(cls)}
        extra = set(doc) - known
        if extra:
            raise DomainError(f"unknown solver config fields: {sorted(extra)}")
        return cls(**doc)


def solve_weighted_bpdn(Phi, offset, observation, weights, eps, config=None):
    """Minimize sum_i weights_i |x_i| subject to
    ||observation - offset - Phi x||_2 <= eps, returning the m-vector x.

    eps = 0 runs projection ADMM on the equality-constrained program.  eps > 0
    runs penalized ADMM and bisects the penalty weight until the residual
    lands in [eps, eps + residual_match_tol], approaching from above so the
    solution's objective never exceeds that of any strictly feasible point.
    Raises InfeasibleError when even least squares cannot reach eps.
    """
    cfg = config or SolverConfig()
    Phi = check_matrix(Phi, "Phi")
    n, m = Phi.shape
    offset = check_array(offset, (n,), "offset")
    observation = check_array(observation, (n,), "observation")
    weights = check_weights(weights, (m,))
    eps = check_real(eps, "eps")
    y = observation - offset
    y_norm = float(np.linalg.norm(y))
    if y_norm <= eps:
        return np.zeros(m)

    x_ls, *_ = np.linalg.lstsq(Phi, y, rcond=None)
    r_min = float(np.linalg.norm(y - Phi @ x_ls))
    feas_slack = 1e-9 * max(1.0, y_norm)
    if r_min > eps + feas_slack:
        raise InfeasibleError(
            f"no vector reaches residual {eps:.6g}; the least-squares "
            f"residual is {r_min:.6g}",
            min_residual=r_min,
        )

    rho = cfg.penalty
    if eps == 0.0:
        Phi_pinv = np.ascontiguousarray(np.linalg.pinv(Phi))
        x, z, _, _ = kernels.admm_basis_pursuit(
            Phi,
            Phi_pinv,
            y,
            weights / rho,
            np.zeros(m),
            np.zeros(m),
            cfg.inner_max_iter,
            cfg.inner_tol,
        )
        return z

    F_inv = np.ascontiguousarray(np.linalg.inv(Phi.T @ Phi + rho * np.eye(m)))
    Phi_t_y = Phi.T @ y
    lam_hi = float(np.max(np.abs(Phi_t_y) / weights))
    # lam_hi makes x = 0 optimal, whose residual y_norm exceeds eps
    band = min(cfg.residual_match_tol, 1e-9 * max(1.0, y_norm))
    z = np.zeros(m)
    u = np.zeros(m)
    best_r = y_norm
    best_z = z.copy()
    lam_lo = 0.0
    for _ in range(40):
        lam = 0.5 * (lam_lo + lam_hi)
        z, u, _ = kernels.admm_lasso(
            F_inv,
            Phi_t_y,
            rho,
            lam * weights / rho,
            z,
            u,
            cfg.inner_max_iter,
            cfg.inner_tol,
        )
        r = float(np.linalg.norm(y - Phi @ z))
        if r >= eps and r < best_r:
            best_r = r
            best_z = z.copy()
        if eps <= r <= eps + band:
            return z
        if r > eps:
            lam_hi = lam
        else:
            lam_lo = lam
    return best_z


def recover_initial_state(
    problem: SparseProblem,
    integration_config: IntegrationConfig | None = None,
    solver_config: SolverConfig | None = None,
) -> RecoveryOutcome:
    """Estimate the initial state by weighted basis-pursuit denoising on the
    linearized flow.

    Systems with an affine flow converge in one (exact) linearization, whose
    affine map also gives the residual.  The saturated system re-linearizes
    around the current estimate: _line_search damps each step until the true
    residual stays within max(current residual, eps + residual_match_tol),
    and the flow Jacobian at the accepted point is the next linearization.
    It stops once the accepted step is shorter than outer_tol.  converged
    reports whether both the step and the residual criteria were met.
    """
    icfg = integration_config or IntegrationConfig()
    scfg = solver_config or SolverConfig()
    meas = problem.measurement
    A = meas.matrix
    eps = meas.noise_radius
    w = meas.weights
    b = problem.observation
    system = problem.system
    T = meas.time
    m = system.dim

    xT, P = flow0 = flow_with_jacobian(system, np.zeros(m), T, icfg)
    if system.kind in _AFFINE_FLOW_KINDS:
        est = solve_weighted_bpdn(A @ P, A @ xT, b, w, eps, scfg)
        residual = float(np.linalg.norm(b - A @ (xT + P @ est)))
        return RecoveryOutcome(
            estimate=est,
            residual=residual,
            weighted_l1=weighted_l1_norm(est, w),
            iterations=1,
            converged=residual <= eps + scfg.residual_match_tol,
        )

    x = np.zeros(m)
    r_cur = float(np.linalg.norm(b - A @ xT))
    step_small = False
    iterations = 0
    for _ in range(scfg.outer_max_iter):
        iterations += 1
        Phi = A @ P
        proposal = solve_weighted_bpdn(Phi, A @ xT - Phi @ x, b, w, eps, scfg)
        step = proposal - x
        bound = max(r_cur, eps + scfg.residual_match_tol)
        t, XT, PT, rn = _line_search(
            system, A, b, T, icfg, flow0, x[None], step[None], bound, _RECOVER_DAMPING_FLOOR
        )
        t = float(t[0])
        if t == 0.0:
            break
        x = x + t * step
        xT, P, r_cur = XT[0], PT[0], float(rn[0])
        if t * float(np.linalg.norm(step)) < scfg.outer_tol:
            step_small = True
            break

    return RecoveryOutcome(
        estimate=x,
        residual=r_cur,
        weighted_l1=weighted_l1_norm(x, w),
        iterations=iterations,
        converged=step_small and r_cur <= eps + scfg.residual_match_tol,
    )


def _flow_rows(system, X, T, icfg, flow0):
    """Final states (k, m) and flow Jacobians (k, m, m) from each row of X.
    flow0 is the flow and its Jacobian at 0, which fix an affine flow
    exactly."""
    if system.kind in _AFFINE_FLOW_KINDS:
        xT0, P0 = flow0
        return xT0 + X @ P0.T, np.broadcast_to(P0, (X.shape[0],) + P0.shape)
    return flow_with_jacobian(system, X, T, icfg)


def _line_search(system, A, b, T, icfg, flow0, X, steps, bound, floor):
    """Backtrack from each row of X (k, m) along its row of steps: halve the
    damping t from 1 until the true residual ||b - A x(T)|| at X + t * steps
    is at most bound (scalar or per row), or set t = 0 once t < floor.  Each
    halving evaluates all pending rows in one flow call.  Returns t and, at
    the accepted points, x(T), its flow Jacobian and the residual norm."""
    k, m = X.shape
    bound = np.broadcast_to(bound, (k,))
    t = np.ones(k)
    XT, P, rn = np.empty((k, m)), np.empty((k, m, m)), np.empty(k)
    rows = np.arange(k)
    while rows.size:
        XT_try, P_try = _flow_rows(system, X[rows] + t[rows, None] * steps[rows], T, icfg, flow0)
        rn_try = np.linalg.norm(b - XT_try @ A.T, axis=1)
        ok = rn_try <= bound[rows]
        done = rows[ok]
        XT[done], P[done], rn[done] = XT_try[ok], P_try[ok], rn_try[ok]
        rows = rows[~ok]
        t[rows] *= 0.5
        failed = t[rows] < floor
        t[rows[failed]] = 0.0
        rows = rows[~failed]
    return t, XT, P, rn


def _fit_supports(system, A, b, T, icfg, flow0, supports):
    """Damped Gauss-Newton fits of the initial state restricted to each row
    of supports (count, k), all starting from zero and stepping in lockstep.
    Returns the fitted states (count, m) and their residual norms (count,)."""
    xT0, P0 = flow0
    count = supports.shape[0]
    b_scale = max(1.0, float(np.linalg.norm(b)))
    X = np.zeros((count, xT0.shape[0]))
    # each fit needs only its support's columns of the flow Jacobian
    PS = P0[:, supports].transpose(1, 0, 2)
    R = np.tile(b - A @ xT0, (count, 1))
    rn = np.linalg.norm(R, axis=1)
    active = np.ones(count, dtype=bool)
    for _ in range(60):
        active &= rn > 1e-14 * b_scale
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        J = np.matmul(A, PS[rows])
        steps = np.array([np.linalg.lstsq(Jr, R[i], rcond=None)[0] for Jr, i in zip(J, rows)])
        tiny = np.linalg.norm(steps, axis=1) <= 1e-13 * np.maximum(
            1.0, np.linalg.norm(X[rows], axis=1)
        )
        active[rows[tiny]] = False
        rows, steps = rows[~tiny], steps[~tiny]
        full = np.zeros((rows.size, X.shape[1]))
        full[np.arange(rows.size)[:, None], supports[rows]] = steps
        # accept a strict decrease of the residual norm
        bound = np.nextafter(rn[rows], 0)
        t, XT, P, rn_try = _line_search(
            system, A, b, T, icfg, flow0, X[rows], full, bound, _FIT_DAMPING_FLOOR
        )
        ok = t > 0
        active[rows[~ok]] = False
        done = rows[ok]
        X[done] += t[ok, None] * full[ok]
        PS[done] = np.take_along_axis(P[ok], supports[done][:, None, :], axis=2)
        R[done] = b - XT[ok] @ A.T
        rn[done] = rn_try[ok]
    return X, rn


def l0_oracle(
    problem: SparseProblem,
    integration_config: IntegrationConfig | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> RecoveryOutcome:
    """Exhaustive sparse recovery: fit the initial state on every support of
    size 0..sparsity (lexicographic order, sizes ascending) by restricted
    nonlinear least squares and return the first feasible fit, preferring
    smaller supports, then smaller residuals, then earlier supports.  All
    supports of one size are fitted together, in lockstep.

    Refuses with BudgetError when the support count exceeds budget.  When no
    support reaches the noise radius, returns the best fit found with
    converged=False.  iterations counts the supports examined.
    """
    icfg = integration_config or IntegrationConfig()
    budget = check_count(budget, "budget")
    m = problem.system.dim
    s = problem.sparsity
    total = sum(math.comb(m, k) for k in range(s + 1))
    if total > budget:
        raise BudgetError(
            f"enumerating {total} supports exceeds the budget of {budget}"
        )

    meas = problem.measurement
    A = meas.matrix
    b = problem.observation
    T = meas.time
    feas_cut = meas.noise_radius + _ORACLE_FEAS_SLACK

    def outcome(x, rn, examined, converged):
        return RecoveryOutcome(
            estimate=x,
            residual=rn,
            weighted_l1=weighted_l1_norm(x, meas.weights),
            iterations=examined,
            converged=converged,
        )

    # every fit starts from zero, which is also the empty support's fit
    flow0 = flow_with_jacobian(problem.system, np.zeros(m), T, icfg)
    best_x = np.zeros(m)
    best_rn = float(np.linalg.norm(b - A @ flow0[0]))
    examined = 1
    if best_rn <= feas_cut:
        return outcome(best_x, best_rn, examined, True)
    block_rows = max(1, _ORACLE_BLOCK_FLOATS // (m * m))
    for k in range(1, s + 1):
        level_x = None
        level_rn = float("inf")
        combos = itertools.combinations(range(m), k)
        while block := list(itertools.islice(combos, block_rows)):
            X, rn = _fit_supports(
                problem.system, A, b, T, icfg, flow0, np.array(block, dtype=np.intp)
            )
            examined += len(block)
            # argmin picks the earliest of equal residuals
            j = int(np.argmin(rn))
            if rn[j] < best_rn:
                best_rn, best_x = float(rn[j]), X[j]
            if rn[j] <= feas_cut and rn[j] < level_rn:
                level_rn, level_x = float(rn[j]), X[j]
        if level_x is not None:
            return outcome(level_x, level_rn, examined, True)
    return outcome(best_x, best_rn, examined, False)
