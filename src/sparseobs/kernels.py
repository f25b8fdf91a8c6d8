"""Hot numeric loops: fixed-step RK4 propagation of states and sensitivities,
the ADMM inner iterations of the weighted-l1 solver, and the per-support scan
behind exact restricted-isometry constants.

Everything is plain numpy.  rhs is the one definition of the catalog's
right-hand side f, and jacobian_scale gives its Jacobian as J(x) = diag(d) M
from the slopes f(x); the integrators and model.eval_rhs / model.rhs_jacobian
all call them, and _rk4_steps is the one RK4 step.  The flow Jacobian loops
in Python over one state, or over many rows in lockstep for the combinatorial
oracle, and builds the sensitivity from the stage slopes as a product of
per-step increments, a block of steps at a time in batched matmuls (see
rk4_flow_jacobian).  The support scan bounds the deviation of every support in
a block with one batched matmul and solves the small eigenvalue problems, in a
batch, only for the supports whose bound can still raise the running maximum
(see max_deviation).  The lasso and basis-pursuit kernels run one ADMM
iteration, _admm, and differ only in its x-update; both names stay because
the pipeline benchmark (pipebench/) traces them.

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

# the blocked kernels bound their temporaries by this many floats: the support
# scan gathers, bounds and eigensolves supports in blocks of at most this many
# Gram entries, and the flow Jacobian takes blocks of steps whose four stage
# Jacobians hold at most this many entries
SCAN_BLOCK_FLOATS = 1 << 15


def rhs(kind, MT, c, X):
    """f(X) for one state X (m,) or for rows X (k, m).  MT is M.T; callers
    that evaluate many stages pass one contiguous copy.  The catalog is
    autonomous."""
    if kind == RHS_ZERO:
        return np.zeros_like(X)
    F = X @ MT
    if kind == RHS_AFFINE:
        F = F + c
    elif kind == RHS_TANH:
        F = np.tanh(F)
    return F


def jacobian_scale(kind, F):
    """The row scales d of the Jacobian J(x) = diag(d) M at points whose
    slopes are F = f(x): 1 - F^2 for tanh, 1 for the linear and affine
    fields, 0 for the zero field."""
    if kind == RHS_TANH:
        return 1.0 - F * F
    return np.full_like(F, 0.0 if kind == RHS_ZERO else 1.0)


def _rk4_steps(kind, MT, c, x, h, n_steps):
    """Classical RK4 from x with step h: for each step the four stage slopes
    and the state after it."""
    for _ in range(n_steps):
        k1 = rhs(kind, MT, c, x)
        k2 = rhs(kind, MT, c, x + 0.5 * h * k1)
        k3 = rhs(kind, MT, c, x + 0.5 * h * k2)
        k4 = rhs(kind, MT, c, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield k1, k2, k3, k4, x


def rk4_path(kind, M, c, x0, T, n_steps):
    """States at the n_steps+1 uniform grid times over [0, T], row 0 = x0."""
    MT = np.ascontiguousarray(M.T)
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x0
    for i, (*_, x) in enumerate(_rk4_steps(kind, MT, c, x0, T / n_steps, n_steps), 1):
        out[i] = x
    return out


def _step_increments(kind, M, K, h):
    """E = S - I for a block of RK4 steps with stage slopes K (c, 4, ..., m),
    where S is the linear map by which the step advances the sensitivity.

    Stage i of the variational system is V_i = J_i (P + a_i h V_{i-1}), with
    J_i the Jacobian at the state stage whose slope is K[:, i-1] and a = 1/2,
    1/2, 1.  So V_i = A_i P with A_1 = J_1 and A_i = J_i + a_i h J_i A_{i-1},
    and E = h/6 (A_1 + 2 A_2 + 2 A_3 + A_4).  J_i = diag(d_i) M, so each stage
    is one batched matmul over the block."""
    D = jacobian_scale(kind, K)[..., None]
    A = D[:, 0] * M
    E = A.copy()
    for i, a, w in ((1, 0.5 * h, 2.0), (2, 0.5 * h, 2.0), (3, h, 1.0)):
        A = np.matmul(a * M, A)
        A += M
        A *= D[:, i]
        E += w * A
    E *= h / 6.0
    return E


def _chain(E):
    """E_tot with I + E_tot = (I + E[-1]) ... (I + E[0]), multiplied pairwise
    in ceil(log2(len(E))) batched matmuls.  (I + E_b)(I + E_a) is carried as
    the deviation E_b + E_a + E_b E_a: forming I + E first would round away
    the low bits of the small increments."""
    while len(E) > 1:
        b = E[1::2]
        a = E[: 2 * len(b) : 2]
        pair = b + a + np.matmul(b, a)
        E = np.concatenate((pair, E[-1:])) if len(E) % 2 else pair
    return E[0]


def rk4_flow_jacobian(kind, M, c, X0, T, n_steps):
    """Final state and its sensitivity to the initial state under the RK4
    flow.  X0 is one state (m,), giving (m,) and (m, m), or rows (k, m),
    giving (k, m) and (k, m, m).

    RK4 applied to the variational equation advances the sensitivity by a
    linear map I + E per step (see _step_increments), so the sensitivity is
    the ordered product of those maps.  The Python loop advances only the
    state, with the same steps as rk4_path, and keeps the stage slopes of a
    block of c steps; each block's increments are then formed and multiplied
    in a few batched calls, and P <- P + E_tot P.  c = SCAN_BLOCK_FLOATS //
    (4 m^2 k), at least 1, bounds the block's temporaries.  Zero rows give
    empty results.
    """
    m = X0.shape[-1]
    P = np.broadcast_to(np.eye(m), X0.shape + (m,)).copy()
    if X0.size == 0:
        return X0.copy(), P
    block = max(1, SCAN_BLOCK_FLOATS // (4 * m * m * (X0.size // m)))
    h = T / n_steps
    steps = _rk4_steps(kind, np.ascontiguousarray(M.T), c, X0, h, n_steps)
    for _ in range(0, n_steps, block):
        slopes = []
        for *k, X in itertools.islice(steps, block):
            slopes += k
        K = np.reshape(slopes, (-1, 4) + X0.shape)
        P = P + np.matmul(_chain(_step_increments(kind, M, K, h)), P)
    return X, P


def _admm(project, thresh, z0, u0, max_iter, tol):
    """Scaled-form ADMM (Boyd et al. 2011, sections 6.2 and 6.4): x =
    project(z - u), z the soft threshold of x + u, u += x - z, with
    admm_lasso's stopping test.  Returns x, z, u and the iteration count."""
    z = z0.copy()
    u = u0.copy()
    x = z.copy()
    it = 0
    for it in range(1, max_iter + 1):
        x = project(z - u)
        v = x + u
        z_new = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        r_primal = np.abs(x - z_new).max()
        s_dual = np.abs(z_new - z).max()
        z = z_new
        u = u + x - z
        if r_primal < tol and s_dual < tol:
            break
    return x, z, u, it


def admm_lasso(F_inv, Phi_t_y, rho, thresh, z0, u0, max_iter, tol):
    """ADMM iterations for min 0.5*||y - Phi x||^2 + sum_i lam*w_i*|x_i|.

    F_inv is (Phi^T Phi + rho*I)^{-1} and thresh_i = lam*w_i/rho, both
    precomputed by the caller so the penalty-weight pair can be swept without
    refactorizing.  z0/u0 allow warm starts.  Stops when both the primal gap
    max|x - z| and the dual gap max|z - z_prev| fall below tol.  Returns the
    sparse iterate z, the scaled dual u, and the iteration count.
    """
    _, z, u, it = _admm(lambda v: F_inv @ (Phi_t_y + rho * v), thresh, z0, u0, max_iter, tol)
    return z, u, it


def admm_basis_pursuit(Phi, Phi_pinv, y, thresh, z0, u0, max_iter, tol):
    """ADMM iterations for min sum_i w_i*|x_i| subject to Phi x = y.

    The x-update projects z - u onto the affine constraint set with a
    precomputed pseudo-inverse; the z-update is the weighted soft threshold
    with thresh_i = w_i/rho.  z0/u0 allow warm starts: from an optimal z0
    with scaled dual u0 = sign(z0) * thresh, such as the only feasible point
    when Phi has full column rank, x and z return to z0 up to rounding and
    the first iteration passes the stopping test.  Returns the feasible
    iterate x (which satisfies Phi x = y exactly up to the projection's
    rounding), z, u, and the iteration count.
    """
    return _admm(lambda v: v - Phi_pinv @ (Phi @ v - y), thresh, z0, u0, max_iter, tol)


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
