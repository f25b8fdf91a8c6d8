"""Weighted-l1 recovery of sparse initial states, plus the exhaustive
combinatorial oracle used to sanity-check it at desk scale.

The core solve is weighted basis-pursuit denoising on a linearization of the
flow map: min sum_i w_i |x_i| subject to ||observation - offset - Phi x|| <=
eps.  Systems with an affine flow need a single linearization; the saturated
catalog member re-linearizes around the current estimate until the step
stalls.  The exact case (eps = 0) runs basis-pursuit ADMM from the
least-squares point and its sign dual, which are already optimal when Phi has
full column rank.  The noisy case follows the weighted-lasso solution path in
the l1 weight lam down to the point whose residual sits mid-band just above
eps, the only search it makes, and checks that point with one penalized ADMM
run from it and its dual, where the first iteration passes the stopping
test.  Landing just above eps keeps the returned point both
feasible-within-tolerance and objective-dominated by any true feasible
point.  Recovery and the oracle's Gauss-Newton fits share one line search,
which evaluates the flow Jacobian with each trial point.  Both settle an
adaptive integration config into one step count at entry (see
ode.settle_steps), so every flow of one problem runs at the same count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BudgetError,
    InfeasibleError,
    check_array,
    check_count,
    check_matrix,
    check_real,
    check_weights,
)
from .model import RecoveryOutcome, SparseProblem, from_doc, weighted_l1_norm
# unused integrate stays bound: pipebench/bench_trace.py traces it as a call site here
from .ode import IntegrationConfig, flow_with_jacobian, integrate, settle_steps  # noqa: F401

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
    penalty is the ADMM step weight rho (the augmented-Lagrangian weight of
    both ADMM kernels, not the lasso's l1 weight lam, which eps > 0 solves
    find on the lasso path), and residual_match_tol is the slack allowed
    between the achieved residual and the target eps.
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
        return from_doc(cls, doc, "solver config")


def solve_weighted_bpdn(Phi, offset, observation, weights, eps, config=None):
    """Minimize sum_i weights_i |x_i| subject to
    ||observation - offset - Phi x||_2 <= eps, returning the m-vector x.

    eps = 0 runs projection ADMM on the equality-constrained program, started
    at the least-squares point x_ls = pinv(Phi) y, from the pseudo-inverse
    the projection uses, with scaled dual sign(x_ls) * w / penalty.
    x_ls is feasible and sign(x_ls) * w a subgradient of the objective there.
    When Phi has full column rank, x_ls is the only feasible point, so the
    start is optimal and the kernel stops after one iteration.  When n < m it
    is a feasible start that ADMM improves on.

    eps > 0 solves the weighted lasso min 0.5 ||y - Phi x||^2 + lam sum_i
    w_i |x_i| at a lam whose residual lands in the band [eps, eps + band],
    band = min(residual_match_tol, 1e-9 max(1, ||y||)), approaching from
    above so the solution's objective never exceeds that of any strictly
    feasible point.  _lasso_path_point follows the lasso's piecewise-linear
    path to the lam whose residual is eps + band / 2 and returns that lam
    and the solution z there; when eps lies within the feasibility slack
    below the least-squares residual, the path's end at lam = 0.  One
    penalized ADMM run then starts at lam from z and the scaled dual
    u = Phi^T (y - Phi z) / penalty, the lasso ADMM fixed point, so its
    first iteration passes the stopping test, which is the check that z is
    optimal, and its iterate is returned.  Raises InfeasibleError when even
    least squares cannot reach eps, within the slack 1e-9 max(1, ||y||).  At
    eps > 0 least squares is solved only when the path point misses
    eps + slack: a point within the slack shows that eps is reachable.
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

    feas_slack = 1e-9 * max(1.0, y_norm)
    rho = cfg.penalty
    if eps == 0.0:
        # the pseudo-inverse gives x_ls and the kernel's projection at once
        Phi_pinv = np.ascontiguousarray(np.linalg.pinv(Phi))
        x_ls = Phi_pinv @ y
        _check_reachable(Phi, y, x_ls, eps, feas_slack)
        thresh = weights / rho
        x, z, _, _ = kernels.admm_basis_pursuit(
            Phi,
            Phi_pinv,
            y,
            thresh,
            x_ls,
            np.sign(x_ls) * thresh,
            cfg.inner_max_iter,
            cfg.inner_tol,
        )
        return z

    G = Phi.T @ Phi
    Phi_t_y = Phi.T @ y
    band = min(cfg.residual_match_tol, 1e-9 * max(1.0, y_norm))
    lam, z = _lasso_path_point(Phi, y, G, Phi_t_y, weights, eps + 0.5 * band)
    if np.linalg.norm(y - Phi @ z) > eps + feas_slack:
        _check_reachable(Phi, y, np.linalg.lstsq(Phi, y, rcond=None)[0], eps, feas_slack)
    # the lasso's fixed point at lam: x = z and rho * u = Phi^T r
    F_inv = np.ascontiguousarray(np.linalg.inv(G + rho * np.eye(m)))
    u = (Phi_t_y - G @ z) / rho
    return kernels.admm_lasso(
        F_inv, Phi_t_y, rho, lam * weights / rho, z, u, cfg.inner_max_iter, cfg.inner_tol
    )[0]


def _check_reachable(Phi, y, x_ls, eps, slack):
    """Raise InfeasibleError when the least-squares point x_ls misses the
    residual eps by more than slack."""
    r_min = float(np.linalg.norm(y - Phi @ x_ls))
    if r_min > eps + slack:
        raise InfeasibleError(
            f"no vector reaches residual {eps:.6g}; the least-squares "
            f"residual is {r_min:.6g}",
            min_residual=r_min,
        )


def _lasso_path_point(Phi, y, G, c, w, target):
    """Follow the solution path of the weighted lasso
    min 0.5 ||y - Phi x||^2 + lam sum_i w_i |x_i| from lam_max = max|c| / w
    down to the lam at which ||y - Phi x(lam)|| = target, with G = Phi^T Phi
    and c = Phi^T y, and return (lam, x(lam)).  When lam reaches 0 first it
    returns the path's least-squares end (0, x(0)); on a singular active
    Gram block or after 4 m steps, the last breakpoint.

    The path is piecewise linear in lam (Osborne, Presnell & Turlach, IMA J.
    Numer. Anal. 20(3), 2000; Efron et al., Least angle regression, Ann.
    Statist. 32(2), 2004).  On the active set S with correlation signs s,
    x_S(lam) = G_SS^-1 (c_S - lam w_S s_S), and lowering lam by t moves x_S
    by t d, d = G_SS^-1 w_S s_S; each step solves for both at once, so no
    error accumulates from step to step.  A segment ends when an inactive
    correlation |c - G x|_j reaches lam w_j (a join), an active coefficient
    reaches zero (a drop), or lam reaches 0.  Rounding must not knock the
    path off: a correlation already at or past its bound joins at once, a
    coefficient already on the wrong side of zero drops at once, and a
    column whose squared distance from the active columns' span is below
    1e-14 G_jj (a duplicate, or any column once n are active) stays out.

    Along a segment the residual is r0 - t v, v = Phi_S d, from the explicit
    residual r0 at the segment start, as ||y||^2 - 2 x^T c + x^T G x would
    cancel when target << ||y||.  The smaller root of ||r0 - t v|| = target
    is (||r0||^2 - target^2) / (q1 + sqrt(q2 (target - ||r_perp||) (target +
    ||r_perp||))), q1 = r0^T v, q2 = v^T v, r_perp = r0 - (q1 / q2) v the
    part of r0 orthogonal to v; neither factor cancels.
    """
    n, m = Phi.shape
    ratio = np.abs(c) / w
    lam = float(ratio.max())
    x = np.zeros(m)
    # ties at lam_max join one by one, at step 0
    on = np.arange(m) == int(np.argmax(ratio))
    dropped = np.zeros(m, dtype=bool)
    # the rows S of [G, c, w s] hold every right-hand side of a step's solve
    rows = np.column_stack((G, c, w * np.sign(c)))
    ws = rows[:, m + 1]
    w2 = np.concatenate((w, w))
    for _ in range(4 * m):
        S = np.flatnonzero(on)
        rhs = rows[S]
        rhs[:, m] -= lam * rhs[:, m + 1]
        try:
            sol = np.linalg.solve(rhs[:, S], rhs)
        except np.linalg.LinAlgError:
            return lam, x
        x_S, d = sol[:, m], sol[:, m + 1]
        # G x and b = G d from the rows G_S., as G is symmetric
        Gx, b = sol[:, m:].T @ rhs[:, :m]
        a = c - Gx
        # side +1 then side -1 of every correlation: the gap to its bound
        # lam w_j, and the rate at which lowering lam closes it
        gaps = lam * w2 - np.concatenate((a, -a))
        rates = w2 - np.concatenate((b, -b))
        with np.errstate(divide="ignore", invalid="ignore"):
            joins = np.where(gaps > 0.0, gaps / np.maximum(rates, 0.0), 0.0)
            drops = np.where(d * ws[S] < 0, np.maximum(-x_S / d, 0.0), np.inf)
        # a coefficient just dropped cannot return on its side before lam
        # moves; n active columns keep every |a_j| / (lam w_j) constant
        shut = on | (S.size >= n)
        joins[np.concatenate((shut | dropped & (ws > 0), shut | dropped & (ws < 0)))] = np.inf
        # the next joiner that is not within rounding of the active span
        side, j = divmod(int(np.argmin(joins)), m)
        while np.isfinite(joins[side * m + j]) and (
            G[j, j] - rhs[:, j] @ sol[:, j] <= 1e-14 * G[j, j]
        ):
            joins[[j, j + m]] = np.inf
            side, j = divmod(int(np.argmin(joins)), m)
        drop = float(drops.min(initial=np.inf))
        step = min(lam, float(joins[side * m + j]), drop)
        Phi_x, v = (Phi[:, S] @ sol[:, m:]).T
        r0 = y - Phi_x
        crossed = float(np.linalg.norm(r0 - step * v)) <= target
        if crossed:
            with np.errstate(divide="ignore", invalid="ignore"):
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
            on[leave] = False
            dropped[leave] = True
        else:
            on[j] = True
            ws[j] = -w[j] if side else w[j]
    return lam, x


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
    reports whether both the step and the residual criteria were met.  An
    adaptive integration config settles its step count once, at x = 0 (see
    ode.settle_steps), and every flow of the recovery runs at that count.
    """
    scfg = solver_config or SolverConfig()
    meas = problem.measurement
    A = meas.matrix
    eps = meas.noise_radius
    w = meas.weights
    b = problem.observation
    system = problem.system
    T = meas.time
    m = system.dim
    icfg = settle_steps(system, T, integration_config)

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
    Returns the fitted states (count, m) and their residual norms (count,).

    Each step s is the minimum-norm least-squares solution of J_S s = R, with
    lstsq's cutoff max(n, k) * u * sigma_max on the singular values of J_S
    (n rows of A, u = np.finfo(float).eps), and the line search accepts only
    a strict decrease of the residual norm.  A fit stops once its residual
    norm is at most 1e-14 * max(1, ||b||), once the line search gives up,
    or, before the line search, once the Gauss-Newton model predicts no
    decrease above rounding: ||J_S s||^2 <= n * u * ||R||^2.  For the least-squares step the model
    residual is ||R - J_S s||^2 = ||R||^2 - ||J_S s||^2, so ||J_S s||^2 is
    the predicted decrease of ||R||^2, and n * u * ||R||^2 bounds the
    rounding error of the computed sum of n squares alone.  A predicted
    decrease under that bound cannot show in the computed residual, and a
    strict-decrease search would halve t down to _FIT_DAMPING_FLOOR, one
    flow per halving, before giving up (the relative-function-change test of
    Dennis & Schnabel, Numerical Methods for Unconstrained Optimization and
    Nonlinear Equations, SIAM 1996, sec. 7.2).  A fit still converging to a
    zero residual predicts a decrease of about ||R||^2 and never stops here,
    so it runs on to the residual test; there is no test on the step's
    length, which could end such a fit one step short of it.
    """
    xT0, P0 = flow0
    count = supports.shape[0]
    n = A.shape[0]
    u = np.finfo(float).eps
    rcond = max(n, supports.shape[1]) * u
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
        # one batched SVD solves every row's step and gives ||J_S s|| as the
        # norm of R's kept components in the left singular basis
        U, sv, Vt = np.linalg.svd(np.matmul(A, PS[rows]), full_matrices=False)
        keep = sv > rcond * sv[:, :1]
        c = np.where(keep, np.matmul(R[rows, None, :], U)[:, 0], 0.0)
        coef = c / np.where(keep, sv, 1.0)
        steps = np.matmul(Vt.transpose(0, 2, 1), coef[..., None])[..., 0]
        stop = np.sum(c * c, axis=1) <= n * u * rn[rows] ** 2
        active[rows[stop]] = False
        rows, steps = rows[~stop], steps[~stop]
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
    supports of one size are fitted together, in lockstep.  A fit stops at a
    residual of 1e-14 * max(1, ||b||), when its line search finds no strict
    decrease, or before that search once the Gauss-Newton step predicts a
    decrease of ||R||^2 no larger than n * u * ||R||^2, the rounding error
    bound of the computed sum of n squares, below which no decrease can show
    (see _fit_supports).

    Refuses with BudgetError when the support count exceeds budget.  When no
    support reaches the noise radius, returns the best fit found with
    converged=False.  iterations counts the supports examined.  An adaptive
    integration config settles its step count once, at x = 0 (see
    ode.settle_steps), and every fit runs at that count.
    """
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
    icfg = settle_steps(problem.system, T, integration_config)

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
