"""Weighted-l1 recovery of sparse initial states, and the exhaustive
combinatorial oracle that checks it at desk scale.

- solve_weighted_bpdn solves weighted basis-pursuit denoising on one
  linearization, at eps > 0 on the weighted-lasso path (_lasso_path_point).
- recover_initial_state runs the re-linearization loop around it, with
  closed-form tries (_locked_solve, certified by _lasso_kkt) and a damped
  line search (_line_search).
- l0_oracle fits supports size by size up to the sparsity (_fit_supports)
  and stops at the first size that holds a feasible fit.
- _in_span is the one measurement, [R | z] of [A | b], in which both
  estimators measure every residual; _prepared settles the integration
  config and computes the measurement and the flow at rest once per problem
  for both.
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
from .model import RecoveryOutcome, SparseProblem, weighted_l1_norm
# unused integrate stays bound: pipebench/bench_trace.py traces it as a call site here
from .ode import IntegrationConfig, flow_with_jacobian, integrate, settle  # noqa: F401

# linearizing at a single point is exact for these kinds
_AFFINE_FLOW_KINDS = ("zero", "linear", "affine")

DEFAULT_ORACLE_BUDGET = 100_000

# the oracle fits supports in blocks whose flow Jacobians hold at most this
# many floats, which bounds its memory whatever the level size
_ORACLE_BLOCK_FLOATS = 1 << 18

# the line search gives a step up once its damping falls below these
_RECOVER_DAMPING_FLOOR = 2.0**-30
_FIT_DAMPING_FLOOR = 2.0**-20


# the cap and stopping tolerance of every ADMM run; each run starts at its
# own fixed point and passes the stopping test after one iteration, except
# basis pursuit when Phi has more columns than rows
_ADMM_MAX_ITER = 5000
_ADMM_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the recovery solvers.

    outer_tol and outer_max_iter bound recovery's re-linearization loop on
    every field: it stops once a solve proposes a step of 2-norm under
    outer_tol, converged if the residual is then at most eps +
    residual_match_tol, and it stops unconverged after outer_max_iter
    linearizations (solves) without one.  An affine flow's linearization is
    exact, so its loop stops at iteration 1, after the first solve,
    converged if that solve's residual is within the same band.
    residual_match_tol is the slack allowed between the achieved residual
    and the target eps.
    """

    outer_max_iter: int = 30
    outer_tol: float = 1e-8
    residual_match_tol: float = 1e-6

    def __post_init__(self):
        checked = {
            "outer_max_iter": check_count(self.outer_max_iter, "outer_max_iter"),
            "outer_tol": check_real(self.outer_tol, "outer_tol", positive=True),
            "residual_match_tol": check_real(
                self.residual_match_tol, "residual_match_tol", positive=True
            ),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def solve_weighted_bpdn(Phi, offset, observation, weights, eps, config=None):
    """Minimize sum_i weights_i |x_i| subject to
    ||observation - offset - Phi x||_2 <= eps, returning the m-vector x.

    eps = 0 runs projection ADMM on the equality-constrained program, started
    at the least-squares point x_ls = pinv(Phi) y, from the pseudo-inverse
    the projection uses, with scaled dual sign(x_ls) * w.
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
    u = Phi^T (y - Phi z), the lasso ADMM fixed point, so its
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
    y_norm = _norm(y)
    if y_norm <= eps:
        return np.zeros(m)

    feas_slack = _feas_slack(y_norm)
    if eps == 0.0:
        # the pseudo-inverse gives x_ls and the kernel's projection at once
        Phi_pinv = np.ascontiguousarray(np.linalg.pinv(Phi))
        x_ls = Phi_pinv @ y
        _check_reachable(Phi, y, x_ls, eps, feas_slack)
        x, z, _, _ = kernels.admm_basis_pursuit(
            Phi, Phi_pinv, y, weights, x_ls, np.sign(x_ls) * weights, _ADMM_MAX_ITER, _ADMM_TOL
        )
        return z

    G = Phi.T @ Phi
    Phi_t_y = Phi.T @ y
    band = _residual_band(cfg, y_norm)
    lam, z = _lasso_path_point(Phi, y, G, Phi_t_y, weights, eps + 0.5 * band)
    if _norm(y - Phi @ z) > eps + feas_slack:
        _check_reachable(Phi, y, np.linalg.lstsq(Phi, y, rcond=None)[0], eps, feas_slack)
    # the lasso's fixed point at lam, ADMM's step weight rho = 1: x = z and
    # u = Phi^T r
    F_inv = np.ascontiguousarray(np.linalg.inv(G + np.eye(m)))
    u = Phi_t_y - G @ z
    return kernels.admm_lasso(
        F_inv, Phi_t_y, 1.0, lam * weights, z, u, _ADMM_MAX_ITER, _ADMM_TOL
    )[0]


def _feas_slack(y_norm):
    """The slack 1e-9 max(1, y_norm) by which a residual may exceed eps and
    still count as feasible, for an observation less offset of norm y_norm,
    well under every reporting tolerance.  It is relative to y_norm, so no
    feasibility test depends on the scale of the measurement."""
    return 1e-9 * max(1.0, y_norm)


def _residual_band(cfg, y_norm):
    """The width of the residual band [eps, eps + band] that an eps > 0 solve
    lands in, for an observation less offset of norm y_norm."""
    return min(cfg.residual_match_tol, _feas_slack(y_norm))


def _check_reachable(Phi, y, x_ls, eps, slack):
    """Raise InfeasibleError when the least-squares point x_ls misses the
    residual eps by more than slack."""
    r_min = _norm(y - Phi @ x_ls)
    if r_min > eps + slack:
        raise InfeasibleError(
            f"no vector reaches residual {eps:.6g}; the least-squares "
            f"residual is {r_min:.6g}",
            min_residual=r_min,
        )


def _sweep(T, k):
    """Pivot the tableau T in place on its diagonal entry p = T[k, k]: row k
    is divided by p, column k by -p, T[k, k] becomes 1 / p and every other
    entry T[i, j] loses T[i, k] T[k, j] / p.  Under this convention a second
    pivot on k undoes the first.  Returns False, leaving T as it is, when p
    is not positive and finite."""
    p = T[k, k]
    if not 0.0 < p < math.inf:
        return False
    row = T[k] / p
    col = T[:, k] / p
    T -= np.multiply.outer(col, T[k])
    T[k] = row
    T[:, k] = -col
    T[k, k] = 1.0 / p
    return True


# the join and drop ratios and the residual root divide by zero on purpose;
# one error state for the whole path, not two entered per step
@np.errstate(divide="ignore", invalid="ignore")
def _lasso_path_point(Phi, y, G, c, w, target):
    """Follow the solution path of the weighted lasso
    min 0.5 ||y - Phi x||^2 + lam sum_i w_i |x_i| from lam_max = max|c| / w
    down to the lam at which ||y - Phi x(lam)|| = target, with G = Phi^T Phi
    and c = Phi^T y, and return (lam, x(lam)).  When lam reaches 0 first it
    returns the path's least-squares end (0, x(0)); on a pivot that is not
    positive and finite (a singular active Gram block) or after 4 m steps,
    the last breakpoint.

    The path is piecewise linear in lam (Osborne, Presnell & Turlach, IMA J.
    Numer. Anal. 20(3), 2000; Efron et al., Least angle regression, Ann.
    Statist. 32(2), 2004).  On the active set S with correlation signs s,
    x_S(lam) = G_SS^-1 (c_S - lam w_S s_S), and lowering lam by t moves x_S
    by t d, d = G_SS^-1 w_S s_S.  A segment ends when an inactive
    correlation a_j = (c - G x)_j reaches +-lam w_j (a join), an active
    coefficient reaches zero (a drop), or lam reaches 0.  Rounding must not
    knock the path off: a correlation already at or past its bound joins at
    once, a coefficient already on the wrong side of zero drops at once, and
    a column whose squared distance from the active columns' span is below
    1e-14 G_jj (a duplicate, or any column once n are active) stays out.

    Every step reads the tableau [G | c | w s], swept on S (_sweep; Goodnight,
    A tutorial on the SWEEP operator, Amer. Statist. 33(3), 1979), with w_j
    s_j = 0 off S.  Its active rows hold G_SS^-1 (c_S, w_S s_S), so x_S and
    d; its inactive rows hold c_j - G_jS G_SS^-1 c_S and -b_j = -G_jS d,
    whence a_j and its rate b_j as lam falls; and its inactive diagonal
    holds G_jj - G_jS G_SS^-1 G_Sj, the squared distance of the span test.
    A join or a drop is one pivot, and a drop is the pivot that undoes its
    join.  So rounding carries from step to step, where a fresh solve per
    step started clean.  Every pivot is positive: a join's is the Schur
    complement that the span test keeps above 1e-14 G_jj, and a drop's is
    the reciprocal of one.  After 40 seeded joins and drops the tableau is
    within 2e-15 of its largest entry of the fresh solve, and on the 1,000
    scan instances of tools/bench_bpdn.py the point is within 1.7e-12
    relative of the solve-per-step path's, on the same support.

    Along a segment the residual is r0 - t v, v = Phi_S d, from the explicit
    residual r0 at the segment start, as ||y||^2 - 2 x^T c + x^T G x would
    cancel when target << ||y||.  The smaller root of ||r0 - t v|| = target
    is (||r0||^2 - target^2) / (q1 + sqrt(q2 (target - ||r_perp||) (target +
    ||r_perp||))), q1 = r0^T v, q2 = v^T v, r_perp = r0 - (q1 / q2) v the
    part of r0 orthogonal to v; neither factor cancels.
    """
    n, m = Phi.shape
    # the tableau [G | c | w s], swept on S, then the column w, which no
    # pivot touches; off S the entry w_j s_j is 0
    T = np.column_stack((G, c, np.zeros(m), w))
    tableau, rows, col_ws = T[:, : m + 2], T[:, m:].T, T[:, m + 1]
    ws = np.zeros(m)
    # coef @ rows (c, w s, w): side +1 then side -1 of every gap to its bound
    # lam w_j, their rates as lam falls, then u = c - lam w s and w s
    coef = np.array([[-1.0, 0, 0], [1, 0, 0], [0, 1, 1], [0, -1, 1], [1, 0, 0], [0, 1, 0]])
    on = np.zeros(m, dtype=bool)
    active = 0
    # held[side, j]: j was just dropped with that sign and cannot return on
    # that side before lam moves
    held = np.zeros((2, m), dtype=bool)
    ratio = np.abs(c) / w
    lam = float(ratio.max())
    # ties at lam_max join one by one, at step 0
    j = int(ratio.argmax())
    side = int(c[j] < 0)
    # every breakpoint is u + step d, the first one 0
    u = d = np.zeros(m)
    step = 0.0
    Phi_t = Phi.T
    for _ in range(4 * m):
        # the event that ended the last segment: j drops if active, else
        # joins on the side given
        if on[j]:
            on[j] = False
            active -= 1
            held[side, j] = True
            if not _sweep(tableau, j):
                break
            col_ws[j] -= ws[j]
            ws[j] = 0.0
        else:
            ws[j] = -w[j] if side else w[j]
            col_ws[j] += ws[j]
            on[j] = True
            active += 1
            if not _sweep(tableau, j):
                break
        coef[0, 1:] = coef[1, 2] = lam
        coef[1, 1] = coef[4, 1] = -lam
        M = coef @ rows
        # on S, u = x_S and d = G_SS^-1 w_S s_S; off S, u_j = a_j and -d_j =
        # b_j, the rate at which a_j moves as lam falls
        u, d = M[4:]
        drops = np.where(d * ws < 0, np.maximum(-u / d, 0.0), np.inf)
        j = int(drops.argmin())
        step = min(lam, float(drops[j]))
        side = int(ws[j] < 0)
        # n active columns keep every |a_j| / (lam w_j) constant
        if active < n:
            joins = np.where(M[:2] > 0.0, M[:2] / np.maximum(M[2:4], 0.0), 0.0)
            joins[on | held] = np.inf
            s, i = divmod(int(joins.argmin()), m)
            # the next joiner that is not within rounding of the active span
            while joins[s, i] < np.inf and tableau[i, i] <= 1e-14 * G[i, i]:
                joins[:, i] = np.inf
                s, i = divmod(int(joins.argmin()), m)
            # a drop wins a tie
            if joins[s, i] < step:
                step, side, j = float(joins[s, i]), s, i
        M[4:] *= on
        Phi_x, v = M[4:] @ Phi_t
        r0 = y - Phi_x
        e = r0 - step * v
        crossed = math.sqrt(e @ e) <= target
        if crossed:
            q1, q2, r0_norm = r0 @ v, v @ v, _norm(r0)
            r_perp = _norm(r0 - (q1 / q2) * v)
            disc = q2 * (target - r_perp) * (target + r_perp)
            t = (r0_norm - target) * (r0_norm + target) / (q1 + np.sqrt(max(disc, 0.0)))
            step = min(float(t), step) if t > 0.0 else 0.0
        if crossed or step == lam:
            return lam - step, u + step * d
        lam -= step
        if step > 0.0:
            held[:] = False
    return lam, u + step * d


def _locked_solve(Phi, y, w, eps, band, support, signs):
    """The eps > 0 weighted BPDN solution in closed form on a locked support
    S with signs s, or None when the closed form does not apply or its point
    fails the weighted lasso's KKT test.

    On S with signs s the lasso's optimality conditions are Phi_S^T r = lam
    w_S s, r = y - Phi_S x_S (Osborne, Presnell & Turlach, IMA J. Numer.
    Anal. 20(3), 2000), so x_S = x_LS - lam G^-1 v with G = Phi_S^T Phi_S,
    x_LS = G^-1 Phi_S^T y and v = w_S s.  Then r = r_LS + lam Phi_S G^-1 v
    with r_LS orthogonal to the span of Phi_S, and ||r||^2 = ||r_LS||^2 +
    lam^2 v^T G^-1 v: the residual is the path's target eps' = eps + band / 2
    at lam = sqrt((eps'^2 - ||r_LS||^2) / v^T G^-1 v).  None when G is not
    positive definite, when a pivot L_jj^2 of its Cholesky factor, the
    squared distance of column j from the span of the columns before it, is
    at most 1e-14 G_jj (the path's test for a duplicate column), when eps' is
    at or under ||r_LS||, or when _lasso_kkt does not certify the point: a
    sign on S that is not s is refused there, as its stationarity gap is
    2 lam w_j, and so is every sign flipped, as then lam < 0."""
    Phi_S = Phi[:, support]
    v = w[support] * signs
    G = Phi_S.T @ Phi_S
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    if np.any(L.diagonal() ** 2 <= 1e-14 * G.diagonal()):
        return None
    x_ls, d = np.linalg.solve(G, np.column_stack((Phi_S.T @ y, v))).T
    r = y - Phi_S @ x_ls
    r_ls = math.sqrt(r @ r)
    target = eps + 0.5 * band
    excess = (target - r_ls) * (target + r_ls)
    curvature = v @ d
    if not (excess > 0.0 and curvature > 0.0):
        return None
    x = np.zeros(Phi.shape[1])
    x[support] = x_ls - math.sqrt(excess / curvature) * d
    return x if _lasso_kkt(Phi, y, w, x, eps, band) else None


def _lasso_kkt(Phi, y, w, x, eps, band):
    """Whether x is certified as the weighted BPDN solution at eps > 0 by the
    weighted lasso's KKT conditions, checked on the residual r = y - Phi x,
    recomputed explicitly, and its correlations g = Phi^T r:

    - eps <= ||r|| <= eps + band;
    - on the support S of x, g_j = lam w_j sign(x_j) within d_j, where lam
      is the largest of the active correlations g_j sign(x_j) / w_j;
    - off S, |g_j| <= lam w_j + d_j.

    lam is read from the active correlations, not taken from a solver's
    running value, whose own rounding can exceed the test's.  d_j is twice
    the first-order bound on the rounding of the computed g_j, u ||phi_j||
    ((k + 1) (||y|| + sum_S ||phi_i|| |x_i|) + p ||r||) for k = |S|, the p
    rows of Phi and u = np.finfo(float).eps (the entrywise bound
    gamma_{k+1} (|y| + |Phi| |x|) on the computed residual, and gamma_p on
    the dot products; Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3.5); the factor 2 covers the rounding of x
    itself.  Closed-form points on the support and signs of the path's
    point (_locked_solve) deviate by at most 0.58 of the bound without it
    over the 1,000 eps > 0 scan instances of tools/bench_bpdn.py, and by at
    most 0.30 over the 47 locked solves of the demo sweep
    (configs/demo.json), where p = 13.

    Recovery passes Phi = R P and y = z - R c, p = min(n, m + 1) rows, for
    the factor [R | z] of [A | b] (_in_span) and the offset's point c.  The
    computed factor is exact for a nearby measurement: [A + dA | b + db] =
    Q [R | z] with Q of exactly orthonormal columns and each column of
    [dA | db] within gamma~_{n (m + 1)} of the norm of its column of [A | b]
    (Householder QR; Higham 2002, Thm 19.4).  Then Q Phi = (A + dA) P and
    Q y = (b + db) - (A + dA) c, and as Q^T Q = I, for every x the residual
    Q (y - Phi x) has the norm of y - Phi x and the correlations (Q Phi)^T
    Q (y - Phi x) = Phi^T (y - Phi x).  So every quantity this test reads
    is the same on the n rows: a point certified on (R P, z - R c) is the
    weighted BPDN solution for the measurement ((A + dA) P, (b + db) - (A +
    dA) c), within the factor's backward error of (A P, b - offset).  The
    products R P and R c are rounded as A P and A c would be, and the test
    certifies the linearization as computed either way.  The slack is kept
    in its form, on p rows, which is tighter than on n."""
    r = y - Phi @ x
    rn = math.sqrt(r @ r)
    on = x != 0
    if not (eps <= rn <= eps + band and on.any()):
        return False
    g = Phi.T @ r
    norms = np.sqrt(np.einsum("ij,ij->j", Phi, Phi))
    k = np.count_nonzero(on)
    scale = (k + 1) * (math.sqrt(y @ y) + norms @ np.abs(x)) + Phi.shape[0] * rn
    slack = 2.0 * np.finfo(float).eps * scale * norms
    lam = float(np.max(g[on] * np.sign(x[on]) / w[on]))
    gap = np.where(on, np.abs(g - lam * w * np.sign(x)), np.abs(g) - lam * w)
    return bool(lam > 0.0 and np.all(gap <= slack))


def recover_initial_state(
    problem: SparseProblem,
    integration_config: IntegrationConfig | None = None,
    solver_config: SolverConfig | None = None,
) -> RecoveryOutcome:
    """Estimate the initial state by weighted basis-pursuit denoising on the
    linearized flow.

    Systems with an affine flow run the loop's first pass alone: that
    linearization is exact, so its solve is the estimate, and the residual
    is read off the affine map.  The saturated system re-linearizes around
    the current estimate: _line_search damps each step until the true
    residual stays within max(current residual, eps + residual_match_tol),
    and the flow Jacobian at the accepted point is the next linearization.
    At eps > 0 each linearization after the first is solved in closed form
    on the support and signs of the last proposal (_locked_solve), not of a
    damped iterate, which carries the union of two supports, when the
    lasso's KKT conditions certify that point, and by solve_weighted_bpdn
    otherwise, so a locked step can only replace a solve with the same
    answer to rounding.  It stops as soon as a solve proposes a step shorter
    than outer_tol, the step test of Gauss-Newton (Dennis and Schnabel,
    Numerical Methods for Unconstrained Optimization and Nonlinear
    Equations, 1996, sec. 7.2), and flows no point past it: the estimate is
    the last point a line search accepted (0 before any), and the residual
    the one measured there.  converged reports whether the loop stopped so,
    or after an affine flow's one solve, with that residual at most eps +
    residual_match_tol; a line search that gives up, or outer_max_iter
    linearizations without a short proposal, end it unconverged.  An
    adaptive integration config settles its step count once per problem, at
    x = 0 (_prepared, see ode.settle), and every flow of the recovery runs at
    that count.

    [A | b] is factored once per problem, [A | b] = Q [R | z] (_in_span),
    and recovery works in its min(n, m + 1) rows: the linearization is R P,
    the offset R x(T) - R P x, and every residual, of the flow at 0, of an
    affine solve and of each trial point of a line search, is ||b - A
    x(T)|| measured as ||z - R x(T)||.  The eps > 0 band reads the norm of
    the observation less offset, which the factor keeps, and _lasso_kkt
    states what a point certified in these rows solves.
    """
    scfg = solver_config or SolverConfig()
    meas = problem.measurement
    eps = meas.noise_radius
    w = meas.weights
    system = problem.system
    T = meas.time
    m = system.dim
    icfg, (R, z, _), (xT, P) = _prepared(problem, integration_config)

    affine = system.kind in _AFFINE_FLOW_KINDS
    x = proposal = np.zeros(m)
    r_cur = _norm(z - R @ xT)
    converged = False
    for iterations in range(1, scfg.outer_max_iter + 1):
        Phi = R @ P
        offset = R @ xT - Phi @ x
        # the last proposal's support, not a damped iterate's union of two
        support = np.flatnonzero(proposal)
        signs = np.sign(proposal[support])
        proposal = None
        if eps > 0.0 and support.size:
            y = z - offset
            band = _residual_band(scfg, _norm(y))
            proposal = _locked_solve(Phi, y, w, eps, band, support, signs)
        if proposal is None:
            proposal = solve_weighted_bpdn(Phi, offset, z, w, eps, scfg)
        step = proposal - x
        if affine:
            # an exact linearization: its solve is the estimate
            x = proposal
            r_cur = _norm(z - R @ (xT + P @ x))
        if affine or _norm(step) < scfg.outer_tol:
            converged = r_cur <= eps + scfg.residual_match_tol
            break
        bound = max(r_cur, eps + scfg.residual_match_tol)
        t, XT, PT, rn = _line_search(
            system, R, z, T, icfg, x[None], step[None], bound, _RECOVER_DAMPING_FLOOR
        )
        t = float(t[0])
        if t == 0.0:
            break
        x = x + t * step
        xT, P, r_cur = XT[0], PT[0], float(rn[0])

    return RecoveryOutcome(
        estimate=x,
        residual=r_cur,
        weighted_l1=weighted_l1_norm(x, w),
        iterations=iterations,
        converged=converged,
    )


def _line_search(system, A, b, T, icfg, X, steps, bound, floor):
    """Backtrack from each row of X (k, m) along its row of steps: halve the
    damping t from 1 until the residual at X + t * steps is at most bound
    (scalar or per row), or set t = 0 once t < floor.  Each halving
    evaluates all pending rows in one flow_with_jacobian call.  Returns t
    and, at the accepted points, x(T), its flow Jacobian and the residual
    norm ||b - A x(T)|| (_row_norms).  Only the tanh field's loops search:
    an affine flow needs no damping, as its linearization is exact."""
    k, m = X.shape
    bound = np.broadcast_to(bound, (k,))
    t = np.ones(k)
    XT, P, rn = np.empty((k, m)), np.empty((k, m, m)), np.empty(k)
    rows = np.arange(k)
    while rows.size:
        XT_try, P_try = flow_with_jacobian(system, X[rows] + t[rows, None] * steps[rows], T, icfg)
        rn_try = _row_norms(b - XT_try @ A.T)
        ok = rn_try <= bound[rows]
        done = rows[ok]
        XT[done], P[done], rn[done] = XT_try[ok], P_try[ok], rn_try[ok]
        rows = rows[~ok]
        t[rows] *= 0.5
        rows = rows[t[rows] >= floor]
    # every accepted t is at least floor
    t[t < floor] = 0.0
    return t, XT, P, rn


def _norm(v):
    """The 2-norm of a contiguous real vector v: np.linalg.norm(v) bit for
    bit, as sqrt(v . v) is its own formula for one, at a third of its
    overhead per call.  norm copies a strided v first, and BLAS may sum a
    strided v in another order."""
    return math.sqrt(v.dot(v))


def _row_norms(r):
    """The 2-norm of each row of r: np.linalg.norm(r, axis=1) bit for bit,
    the same sum of the same squares, at less overhead per call."""
    return np.sqrt(np.add.reduce(r * r, axis=1))


def _in_span(A, b):
    """An equivalent measurement (R, z, n) of (A, b): [R | z] is the
    triangular factor of the reduced QR [A | b] = Q [R | z], and n the rows
    of A.  b and the columns of A lie in the span of Q's orthonormal
    columns, so for every v

        ||b - A v|| = ||z - R v||

    (Bjorck, Numerical Methods for Least Squares Problems, SIAM 1996, sec.
    1.3 and 2.4; Golub & Van Loan, Matrix Computations, 4th ed., sec. 5.3),
    whatever the rank of A, and R has min(n, m + 1) rows.  Q is never
    formed.  When n > m, R's last row is 0, and for A of full column rank
    |z_m| is the distance of b from the span of A.  Both estimators read it,
    once per problem (_prepared): every residual recover_initial_state and
    l0_oracle measure is ||z - R v||, so this is the one place that decides
    how a problem is measured.  When n <= m, R has n rows and the factor is
    a rotation of the measurement, which saves no rows.  R and z are
    read-only views of one factor."""
    Rz = np.linalg.qr(np.column_stack((A, b)), mode="r")
    Rz.setflags(write=False)
    return Rz[:, :-1], Rz[:, -1], A.shape[0]


def _prepared(problem, config):
    """The fixed work of both estimators on problem under the integration
    config (None for the default): the fixed config icfg that every flow
    runs at, the equivalent measurement (R, z, n) of (A, b) (_in_span) and
    the flow at 0, (x(T), P), at icfg's step count, as (icfg, span, flow0).
    An adaptive config climbs once at x = 0 (ode.settle), and the climb's
    last flow is the flow at 0; a fixed config flows at rest through
    flow_with_jacobian.  Each is computed on first use and kept on the
    problem (SparseProblem._memo), the settled config and its flow under the
    caller's config, so recovery and the oracle on one problem settle,
    factor [A | b] and flow it at rest once.  Every array kept is read-only,
    so no caller can change what another reads."""
    memo = problem._memo
    if "span" not in memo:
        memo["span"] = _in_span(problem.measurement.matrix, problem.observation)
    config = config or IntegrationConfig()
    if config not in memo:
        system, T = problem.system, problem.measurement.time
        x0 = np.zeros(system.dim)
        icfg, flow0 = settle(system, x0, T, config)
        if flow0 is None:
            flow0 = flow_with_jacobian(system, x0, T, icfg)
        for a in flow0:
            a.setflags(write=False)
        memo[config] = icfg, flow0
    icfg, flow0 = memo[config]
    return icfg, memo["span"], flow0


def _fit_supports(system, span, T, icfg, flow0, supports):
    """Damped Gauss-Newton fits of the initial state restricted to each row
    of supports (count, k), all starting from zero and stepping in lockstep.
    span is the equivalent measurement (R, z, n) of (A, b) (_in_span), and
    flow0 the flow and its Jacobian at 0.  Returns the fitted states
    (count, m) and their residual norms ||b - A x(T)|| (count,).

    No array of a fit has A's n rows.  A fit's residual is e = z - R x(T)
    and its Jacobian J_S = R P_S, both with min(n, m + 1) rows.  As A P_S =
    Q J_S and b - A x(T) = Q e, the norm of e, the singular values of J_S,
    the components of e in its left singular basis and so the step are
    those of the n-row problem.

    Each step s is the minimum-norm least-squares solution of J_S s = e,
    with lstsq's cutoff max(n, k) * u * sigma_max on the singular values of
    J_S (u = np.finfo(float).eps), and the line search accepts only a
    strict decrease of the residual norm.  A fit stops once its residual
    norm r is at most 1e-14 * max(1, ||b||), once the line search gives up,
    or, before the line search, once the Gauss-Newton model predicts no
    decrease above rounding: ||J_S s||^2 <= n * u * r^2.  For the
    least-squares step the model residual is r^2 - ||J_S s||^2, so ||J_S
    s||^2 is the predicted decrease of r^2, and n * u * r^2 bounds the
    rounding error of the computed sum of n squares alone.  The cutoff and
    the bound keep n, not the rows of R: both are stated on the n-row
    problem the oracle solves, and keeping them keeps every fit's stopping
    point.
    A predicted decrease under that bound cannot show in the computed
    residual, and a strict-decrease search would halve t down to
    _FIT_DAMPING_FLOOR, one flow per halving, before giving up (the
    relative-function-change test of Dennis & Schnabel, Numerical Methods
    for Unconstrained Optimization and Nonlinear Equations, SIAM 1996, sec.
    7.2).  A fit still converging to a zero residual predicts a decrease of
    about r^2 and never stops here, so it runs on to the residual test;
    there is no test on the step's length, which could end such a fit one
    step short of it.

    On the zero, linear and affine fields x(T) = xT0 + P0 x exactly, so the
    restricted fit is linear least squares and its first step solves it
    (Dennis & Schnabel, ch. 10).  There a fit takes that one step, unless
    the test above stops it first, with its residual evaluated through the
    flow at 0 as xT0 + P0 (x + s); it keeps the step only on a strict
    decrease of the residual norm, which is what the line search accepts at
    t = 1, and stops: no line search and no second SVD.
    """
    R, z, n = span
    xT0, P0 = flow0
    count = supports.shape[0]
    u = np.finfo(float).eps
    rcond = max(n, supports.shape[1]) * u
    b_scale = max(1.0, float(np.linalg.norm(z)))
    X = np.zeros((count, xT0.shape[0]))
    # each fit needs only its support's columns of the flow Jacobian
    PS = P0[:, supports].transpose(1, 0, 2)
    E = np.tile(z - R @ xT0, (count, 1))
    rn = _row_norms(E)
    active = np.ones(count, dtype=bool)
    for _ in range(60):
        active &= rn > 1e-14 * b_scale
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        # one batched SVD solves every row's step and gives ||J_S s|| as the
        # norm of e's kept components in the left singular basis
        U, sv, Vt = np.linalg.svd(np.matmul(R, PS[rows]), full_matrices=False)
        keep = sv > rcond * sv[:, :1]
        c = np.where(keep, np.matmul(E[rows, None, :], U)[:, 0], 0.0)
        coef = c / np.where(keep, sv, 1.0)
        steps = np.matmul(Vt.transpose(0, 2, 1), coef[..., None])[..., 0]
        stop = np.sum(c * c, axis=1) <= n * u * rn[rows] ** 2
        active[rows[stop]] = False
        rows, steps = rows[~stop], steps[~stop]
        if rows.size == 0:
            # every fit left has stopped, and none is left to search
            break
        full = np.zeros((rows.size, X.shape[1]))
        full[np.arange(rows.size)[:, None], supports[rows]] = steps
        if system.kind in _AFFINE_FLOW_KINDS:
            # x(T) = xT0 + P0 x exactly, so the step solves the fit: keep it
            # on a strict decrease of the residual norm, and stop
            rn_try = _row_norms(z - (xT0 + (X[rows] + full) @ P0.T) @ R.T)
            ok = rn_try < rn[rows]
            X[rows[ok]] += full[ok]
            rn[rows[ok]] = rn_try[ok]
            break
        # accept a strict decrease of the residual norm
        bound = np.nextafter(rn[rows], 0)
        t, XT, P, rn_try = _line_search(
            system, R, z, T, icfg, X[rows], full, bound, _FIT_DAMPING_FLOOR
        )
        ok = t > 0
        active[rows[~ok]] = False
        done = rows[ok]
        X[done] += t[ok, None] * full[ok]
        PS[done] = np.take_along_axis(P[ok], supports[done][:, None, :], axis=2)
        E[done] = z - XT[ok] @ R.T
        rn[done] = rn_try[ok]
    return X, rn


def l0_oracle(
    problem: SparseProblem,
    integration_config: IntegrationConfig | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> RecoveryOutcome:
    """Exhaustive sparse recovery: fit the initial state on every support of
    size 0..sparsity (lexicographic order, sizes ascending) by restricted
    least squares and return the first feasible fit, preferring smaller
    supports, then smaller residuals, then earlier supports.  All supports
    of one size are fitted together, in lockstep.  On the tanh field a fit
    is damped Gauss-Newton, which stops at a residual of 1e-14 * max(1,
    ||b||), when its line search finds no strict decrease, or before that
    search once the Gauss-Newton step predicts a decrease of the squared
    residual r^2 no larger than n * u * r^2, the rounding error bound of
    the computed sum of n squares, below which no decrease can show.  On an
    affine flow a fit is one least-squares step, not taken under that same
    bound and kept only on a strict decrease of the residual norm (see
    _fit_supports).

    [A | b] is factored once per problem, [A | b] = Q [R | z] (_in_span),
    and every residual the oracle measures, of the empty support, of each
    fit and of each trial point of a fit's line search, is ||b - A x(T)||
    measured as ||z - R x(T)||.  So a fit's arrays have min(n, m + 1) rows
    where A has n.

    A fit is feasible when its residual is at most eps + 1e-9 max(1, ||b||)
    (_feas_slack), the slack solve_weighted_bpdn allows, so the test does
    not depend on the scale of the measurement.  Refuses with BudgetError
    when the support count exceeds budget.  When no support is feasible,
    returns the best fit found with converged=False.  iterations counts the supports
    examined.  An adaptive integration config settles its step count once
    per problem, at x = 0 (_prepared, see ode.settle), and every fit runs at
    that count.
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
    T = meas.time
    # every fit starts from zero, which is also the empty support's fit
    icfg, span, flow0 = _prepared(problem, integration_config)
    R, z, _ = span
    feas_cut = meas.noise_radius + _feas_slack(float(np.linalg.norm(z)))
    best_x = np.zeros(m)
    best_rn = float(np.linalg.norm(z - R @ flow0[0]))
    examined = 1
    block_rows = max(1, _ORACLE_BLOCK_FLOATS // (m * m))
    # every smaller support missed feas_cut, so a size's best feasible fit is
    # the best fit so far: the search ends after the first size that has one
    for k in range(1, s + 1):
        if best_rn <= feas_cut:
            break
        combos = itertools.combinations(range(m), k)
        while block := list(itertools.islice(combos, block_rows)):
            X, rn = _fit_supports(
                problem.system, span, T, icfg, flow0, np.array(block, dtype=np.intp)
            )
            examined += len(block)
            # argmin picks the earliest of equal residuals
            j = int(np.argmin(rn))
            if rn[j] < best_rn:
                best_rn, best_x = float(rn[j]), X[j]
    return RecoveryOutcome(
        estimate=best_x,
        residual=best_rn,
        weighted_l1=weighted_l1_norm(best_x, meas.weights),
        iterations=examined,
        converged=best_rn <= feas_cut,
    )
