"""Hot numeric loops: fixed-step RK4 propagation of states and sensitivities,
the ADMM inner iterations of the weighted-l1 solver, and the per-support scan
behind exact restricted-isometry constants.

Everything is plain numpy.  rhs is the one definition of the catalog's
right-hand side f and of J(x) P, its Jacobian applied to a sensitivity; the
integrators and model.eval_rhs / model.rhs_jacobian all call it.  The flow
Jacobian advances one state, or many rows in lockstep for the combinatorial
oracle.  The support scan bounds the deviation of every support in a block
with one batched matmul and solves the small eigenvalue problems, in a batch,
only for the supports whose bound can still raise the running maximum (see
max_deviation).

All array arguments must be float64; matrices must be C-contiguous.
"""

import itertools
import math

import numpy as np

# right-hand-side catalog codes, shared with model.DynamicalSystem
RHS_ZERO = 0
RHS_LINEAR = 1
RHS_AFFINE = 2
RHS_TANH = 3


def rhs(kind, M, MT, c, X, P=None):
    """f(X), and with P also J(X) P, for one state X (m,) with P (m, m) or
    for rows X (k, m) with P (k, m, m).  MT is M.T; callers that evaluate
    many stages pass one contiguous copy.  The catalog is autonomous."""
    if kind == RHS_ZERO:
        F = np.zeros_like(X)
        return F if P is None else (F, np.zeros_like(P))
    F = X @ MT
    if kind == RHS_AFFINE:
        F = F + c
    elif kind == RHS_TANH:
        F = np.tanh(F)
    if P is None:
        return F
    MP = np.matmul(M, P)
    if kind == RHS_TANH:
        # J = diag(1 - tanh(Mx)^2) M
        MP = (1.0 - F * F)[..., None] * MP
    return F, MP


def rk4_path(kind, M, c, x0, T, n_steps):
    """States at the n_steps+1 uniform grid times over [0, T], row 0 = x0."""
    MT = np.ascontiguousarray(M.T)
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x0
    h = T / n_steps
    x = x0
    for i in range(n_steps):
        k1 = rhs(kind, M, MT, c, x)
        k2 = rhs(kind, M, MT, c, x + 0.5 * h * k1)
        k3 = rhs(kind, M, MT, c, x + 0.5 * h * k2)
        k4 = rhs(kind, M, MT, c, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out


def rk4_flow_jacobian(kind, M, c, X0, T, n_steps):
    """Final state and its sensitivity to the initial state, integrating the
    matrix variational system alongside the state with the same RK4 stages.
    X0 is one state (m,), giving (m,) and (m, m), or rows (k, m), giving
    (k, m) and (k, m, m)."""
    MT = np.ascontiguousarray(M.T)
    m = X0.shape[-1]
    X = X0
    P = np.broadcast_to(np.eye(m), X0.shape + (m,)).copy()
    h = T / n_steps
    for _ in range(n_steps):
        k1, K1 = rhs(kind, M, MT, c, X, P)
        k2, K2 = rhs(kind, M, MT, c, X + 0.5 * h * k1, P + 0.5 * h * K1)
        k3, K3 = rhs(kind, M, MT, c, X + 0.5 * h * k2, P + 0.5 * h * K2)
        k4, K4 = rhs(kind, M, MT, c, X + h * k3, P + h * K3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        P = P + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return X, P


def admm_lasso(F_inv, Phi_t_y, rho, thresh, z0, u0, max_iter, tol):
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


def admm_basis_pursuit(Phi, Phi_pinv, y, thresh, z0, u0, max_iter, tol):
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


# the support scan gathers, bounds and eigensolves supports in blocks of at
# most this many Gram entries, which bounds its temporaries
SCAN_BLOCK_FLOATS = 1 << 15


def _gram_stack(G, supports):
    """The principal submatrices G[S, S] for the rows S of supports (count, k)."""
    return G.reshape(-1).take(supports[:, :, None] * G.shape[0] + supports[:, None, :])


def _deviation(G, supports):
    """Largest deviation from 1 of any eigenvalue of the supports' submatrices."""
    ev = np.linalg.eigvalsh(_gram_stack(G, supports))
    return float(max(ev[:, -1].max() - 1.0, 1.0 - ev[:, 0].min()))


def max_deviation(G, supports, delta):
    """max(delta, d_S) over the rows S of supports (count, k), where d_S is
    the largest deviation from 1 of any eigenvalue of the principal
    submatrix G[S, S] of the Gram matrix G, and how many of the supports were
    eigensolved to find it.

    With B = G[S, S] - I, d_S = max|lambda_i(B)| <= beta_S = ||B^2||_F^(1/2)
    = (sum lambda_i^4)^(1/4), which one batched k x k matmul gives for every
    support.  Unless even the largest beta_S cannot raise delta, its support
    is eigensolved first; after it only supports with beta_S >= delta - margin
    can raise delta, so only those are eigensolved.  A skipped support's d_S
    would not have exceeded delta, so the result equals the max over every
    support bit for bit.  The margin covers rounding: eigvalsh's eigenvalues
    are exact for a perturbation of G[S, S] of norm about
    k eps ||G[S, S]|| <= k^2 eps g, with g = max(1, max_i G_ii), and the
    computed beta_S carries a relative error of about k^2 eps on a value
    <= ||B||_F <= k g; 4 k^3 eps g covers both.
    """
    k = supports.shape[1]
    g = max(1.0, float(G.diagonal().max()))
    margin = 4.0 * k**3 * np.finfo(float).eps * g
    B = _gram_stack(G, supports)
    # subtract 1 from each diagonal, in place
    B.reshape(len(B), -1)[:, :: k + 1] -= 1.0
    B2 = np.matmul(B, B)
    beta = np.sqrt(np.sqrt(np.einsum("nij,nij->n", B2, B2)))
    top = int(np.argmax(beta))
    if beta[top] < delta - margin:
        return delta, 0
    delta = max(delta, _deviation(G, supports[top : top + 1]))
    beta[top] = -np.inf
    rest = np.flatnonzero(beta >= delta - margin)
    if rest.size:
        delta = max(delta, _deviation(G, supports[rest]))
    return delta, 1 + int(rest.size)


def _lex_blocks(m, k):
    """Every k-subset of range(m) in lexicographic order, as index blocks of at
    most SCAN_BLOCK_FLOATS / k^2 rows.  A subset is a head, enumerated by
    itertools, followed by a tail copied from a table of all r-subsets in the
    same order: the tails that follow a head ending at h are the table's rows
    from the first whose leading entry exceeds h onwards."""
    rows = max(1, SCAN_BLOCK_FLOATS // (k * k))
    r = k
    while r > 1 and math.comb(m, r) * r > SCAN_BLOCK_FLOATS:
        r -= 1
    tails = np.array(list(itertools.combinations(range(m), r)), dtype=np.intp)
    after = np.searchsorted(tails[:, 0], np.arange(1, m + 1)) if r < k else None
    block = np.empty((rows, k), dtype=np.intp)
    fill = 0
    for head in itertools.combinations(range(m - r), k - r):
        lo = after[head[-1]] if head else 0
        while lo < len(tails):
            n = min(len(tails) - lo, rows - fill)
            block[fill : fill + n, : k - r] = head
            block[fill : fill + n, k - r :] = tails[lo : lo + n]
            fill += n
            lo += n
            if fill == rows:
                yield block
                block = np.empty((rows, k), dtype=np.intp)
                fill = 0
    if fill:
        yield block[:fill]


def rip_scan(G, s):
    """max_deviation over every support of size s, in lexicographic order,
    and the number of supports eigensolved."""
    delta, solved = 0.0, 0
    for block in _lex_blocks(G.shape[0], s):
        delta, n = max_deviation(G, block, delta)
        solved += n
    return delta, solved
