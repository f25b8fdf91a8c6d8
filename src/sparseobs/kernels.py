"""Hot numeric loops: fixed-step RK4 propagation of states and sensitivities,
the ADMM inner iterations of the weighted-l1 solver, and the per-support scan
behind exact restricted-isometry constants.

Kernel bodies are plain numpy restricted to numba's nopython subset, so one
source serves both the jitted path (default) and the fallback.  The support
scan additionally has a vectorized numpy variant used when numba is off, since
the scalar loop is only fast once compiled.  benchmarks/bench_kernels.py times
the two paths against each other.  The batched flow Jacobian, which advances
many states in lockstep for the combinatorial oracle, is numpy only.

All array arguments must be float64; matrices must be C-contiguous.
"""

import itertools

import numpy as np

from ._accel import NUMBA_ACTIVE, jit_kernel

# right-hand-side catalog codes, shared with model.DynamicalSystem
RHS_ZERO = 0
RHS_LINEAR = 1
RHS_AFFINE = 2
RHS_TANH = 3


def _rhs_eval(kind, M, c, x):
    # catalog members are autonomous
    if kind == RHS_ZERO:
        return np.zeros_like(x)
    if kind == RHS_LINEAR:
        return M @ x
    if kind == RHS_AFFINE:
        return M @ x + c
    return np.tanh(M @ x)


rhs_eval = jit_kernel(_rhs_eval)


def _rhs_jacobian(kind, M, c, x):
    m = x.shape[0]
    if kind == RHS_ZERO:
        return np.zeros((m, m))
    if kind == RHS_LINEAR or kind == RHS_AFFINE:
        return M.copy()
    y = np.tanh(M @ x)
    return (1.0 - y * y).reshape(m, 1) * M


rhs_jacobian = jit_kernel(_rhs_jacobian)


def _rk4_path(kind, M, c, x0, T, n_steps):
    """States at the n_steps+1 uniform grid times over [0, T], row 0 = x0."""
    m = x0.shape[0]
    out = np.empty((n_steps + 1, m))
    out[0] = x0
    h = T / n_steps
    x = x0.copy()
    for i in range(n_steps):
        k1 = rhs_eval(kind, M, c, x)
        k2 = rhs_eval(kind, M, c, x + 0.5 * h * k1)
        k3 = rhs_eval(kind, M, c, x + 0.5 * h * k2)
        k4 = rhs_eval(kind, M, c, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out


rk4_path = jit_kernel(_rk4_path)


def _rk4_flow_jacobian(kind, M, c, x0, T, n_steps):
    """Final state and its sensitivity to x0, integrating the matrix
    variational system alongside the state with the same RK4 stages."""
    m = x0.shape[0]
    x = x0.copy()
    P = np.eye(m)
    h = T / n_steps
    for i in range(n_steps):
        k1 = rhs_eval(kind, M, c, x)
        K1 = rhs_jacobian(kind, M, c, x) @ P
        x2 = x + 0.5 * h * k1
        P2 = P + 0.5 * h * K1
        k2 = rhs_eval(kind, M, c, x2)
        K2 = rhs_jacobian(kind, M, c, x2) @ P2
        x3 = x + 0.5 * h * k2
        P3 = P + 0.5 * h * K2
        k3 = rhs_eval(kind, M, c, x3)
        K3 = rhs_jacobian(kind, M, c, x3) @ P3
        x4 = x + h * k3
        P4 = P + h * K3
        k4 = rhs_eval(kind, M, c, x4)
        K4 = rhs_jacobian(kind, M, c, x4) @ P4
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        P = P + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return x, P


rk4_flow_jacobian = jit_kernel(_rk4_flow_jacobian)


def rk4_flow_jacobian_batch(kind, M, c, X0, T, n_steps):
    """Final states (k, m) and sensitivities (k, m, m) from each row of X0,
    taking the RK4 stages of _rk4_flow_jacobian for all rows at once.

    Plain numpy, never jitted: nopython mode has no 3-d matmul.
    """
    k, m = X0.shape
    MT = M.T

    def stage(X, P):
        # right-hand side and Jacobian-times-sensitivity at every row
        if kind == RHS_ZERO:
            return np.zeros_like(X), np.zeros_like(P)
        Y = X @ MT
        MP = np.matmul(M, P)
        if kind == RHS_LINEAR:
            return Y, MP
        if kind == RHS_AFFINE:
            return Y + c, MP
        Y = np.tanh(Y)
        return Y, (1.0 - Y * Y)[:, :, None] * MP

    X = X0.copy()
    P = np.repeat(np.eye(m)[None], k, axis=0)
    h = T / n_steps
    for _ in range(n_steps):
        k1, K1 = stage(X, P)
        k2, K2 = stage(X + 0.5 * h * k1, P + 0.5 * h * K1)
        k3, K3 = stage(X + 0.5 * h * k2, P + 0.5 * h * K2)
        k4, K4 = stage(X + h * k3, P + h * K3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        P = P + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return X, P


def _admm_lasso(F_inv, Phi_t_y, rho, thresh, z0, u0, max_iter, tol):
    """ADMM iterations for min 0.5*||y - Phi x||^2 + sum_i lam*w_i*|x_i|.

    F_inv is (Phi^T Phi + rho*I)^{-1} and thresh_i = lam*w_i/rho, both
    precomputed by the caller so the penalty-weight pair can be swept without
    refactorizing.  z0/u0 allow warm starts.  Stops when both the primal gap
    max|x - z| and the dual gap max|z - z_prev| fall below tol.  Returns the
    sparse iterate z, the scaled dual u, and the iteration count.
    """
    z = z0.copy()
    u = u0.copy()
    it = 0
    for it in range(1, max_iter + 1):
        x = F_inv @ (Phi_t_y + rho * (z - u))
        v = x + u
        z_new = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        r_primal = np.max(np.abs(x - z_new))
        s_dual = np.max(np.abs(z_new - z))
        z = z_new
        u = u + x - z
        if r_primal < tol and s_dual < tol:
            break
    return z, u, it


admm_lasso = jit_kernel(_admm_lasso)


def _admm_basis_pursuit(Phi, Phi_pinv, y, thresh, z0, u0, max_iter, tol):
    """ADMM iterations for min sum_i w_i*|x_i| subject to Phi x = y.

    The x-update projects z - u onto the affine constraint set with a
    precomputed pseudo-inverse; the z-update is the weighted soft threshold
    with thresh_i = w_i/rho.  Returns the feasible iterate x (which satisfies
    Phi x = y exactly up to the projection's rounding), z, u, and the
    iteration count.
    """
    z = z0.copy()
    u = u0.copy()
    x = z.copy()
    it = 0
    for it in range(1, max_iter + 1):
        v = z - u
        x = v - Phi_pinv @ (Phi @ v - y)
        v2 = x + u
        z_new = np.sign(v2) * np.maximum(np.abs(v2) - thresh, 0.0)
        r_primal = np.max(np.abs(x - z_new))
        s_dual = np.max(np.abs(z_new - z))
        z = z_new
        u = u + x - z
        if r_primal < tol and s_dual < tol:
            break
    return x, z, u, it


admm_basis_pursuit = jit_kernel(_admm_basis_pursuit)


def _rip_scan_loop(G, s):
    """Largest deviation from 1 of any eigenvalue of an s x s principal
    submatrix of the Gram matrix G, scanning supports in lexicographic
    order with an odometer."""
    m = G.shape[0]
    idx = np.empty(s, dtype=np.int64)
    for a in range(s):
        idx[a] = a
    delta = 0.0
    while True:
        sub = np.empty((s, s))
        for a in range(s):
            ia = idx[a]
            for b in range(s):
                sub[a, b] = G[ia, idx[b]]
        ev = np.linalg.eigvalsh(sub)
        hi = ev[s - 1] - 1.0
        lo = 1.0 - ev[0]
        if hi > delta:
            delta = hi
        if lo > delta:
            delta = lo
        j = s - 1
        while j >= 0 and idx[j] == m - s + j:
            j -= 1
        if j < 0:
            break
        idx[j] += 1
        for k in range(j + 1, s):
            idx[k] = idx[k - 1] + 1
    return delta


def _rip_scan_batched(G, s):
    # vectorized fallback: gather submatrices in chunks, batched eigvalsh
    m = G.shape[0]
    delta = 0.0
    combos = itertools.combinations(range(m), s)
    while True:
        block = list(itertools.islice(combos, 4096))
        if not block:
            break
        S = np.array(block, dtype=np.intp)
        sub = G[S[:, :, None], S[:, None, :]]
        ev = np.linalg.eigvalsh(sub)
        delta = max(delta, float(np.max(ev[:, -1]) - 1.0), float(np.max(1.0 - ev[:, 0])))
    return delta


if NUMBA_ACTIVE:
    rip_scan = jit_kernel(_rip_scan_loop)
else:
    rip_scan = _rip_scan_batched
