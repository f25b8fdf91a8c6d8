"""Hot numeric loops: fixed-step RK4 propagation of states and sensitivities,
the ADMM inner iterations of the weighted-l1 solver, and the per-support scan
behind exact restricted-isometry constants.

Everything is plain numpy.  The catalog's right-hand side is f = Mx + c or
tanh(Mx), given by DynamicalSystem.kernel_args(), and jacobian_scale gives
its Jacobian as J(x) = diag(d) M from the slopes f(x).  Where the Jacobian
does not depend on the state, one RK4 step is the affine map
x -> x + E x + g (see _step_map), and rk4_path and rk4_flow_jacobian step
by it; under tanh off rest _march is the one RK4 march, over a block whose
rows hold each state and its four stage slopes: each slope is one dot into
its slot and a tanh in place, and each of the step's sums one dot of a
weight vector with the rows it sums, so a step allocates nothing.  The
march's and the step map's dots are calls of the bound ndarray.dot method,
the C routine of np.dot without its Python-level dispatch, which makes a
call at m = 12 cost half again as much.  The flow's sensitivity is a
product of per-step increments in batched matmuls (see rk4_flow_jacobian).
The support scan screens in three tiers, each run only on the supports the
one before could not rule out: a block test built from bounds on the extreme
eigenvalues of each support's head and tail blocks (closed forms up to 3 x
3, see _block_bounds) and the Frobenius norm of the block that couples them
(from a table of row sums over each tail), for a whole group of supports at
once without gathering any of them (see rip_scan); beta_S, one batched
matmul per block of gathered Gram submatrices; and eigvalsh, in a batch (see
max_deviation).  A greedy seed, grown from the tails with the best bounds,
starts the running maximum near its end.  The scan's index tables (its
tails, the chunks of heads and the rank table by which heads look up their
rows among the tails) depend only on its shape, and are built once per
process for each shape and block size (see _scan_plan); what depends on
the Gram matrix (the tails' bounds, the row-sum table) is built once per
scan.  The lasso and basis-pursuit kernels run one ADMM iteration, _admm,
and differ only in its x-update; both names stay because the pipeline
benchmark (pipebench/) traces them.

All array arguments must be float64; matrices must be C-contiguous.
"""

import functools
import itertools
import math

import numpy as np

# right-hand-side catalog codes, shared with model.DynamicalSystem
RHS_LINEAR = 1
RHS_TANH = 2

# the blocked kernels bound their temporaries by this many floats: the support
# scan screens supports in chunks whose heads x tails arrays hold at most this
# many entries, and gathers and eigensolves the supports that pass in blocks
# of at most this many Gram entries; the flow Jacobian takes blocks of steps
# whose four stage Jacobians hold at most this many entries.  The scan's
# index tables are cached per shape and block size (see _scan_plan), and one
# of its tables, built per scan, is larger: the row sums over each of the
# C(m, r) tails of a scan whose heads have two entries or more,
# m C(m, r) <= m SCAN_BLOCK_FLOATS / r floats.  That is 48,576 for C(24, 3)
# tails, and under rip's default budget of 2M supports at most 437,060
# (3.5 MB, m = 41, s = 5, r = 3)
SCAN_BLOCK_FLOATS = 1 << 15


def jacobian_scale(kind, F):
    """The row scales d of the Jacobian J(x) = diag(d) M at points whose
    slopes are F = f(x): 1 - F^2 for tanh, 1 for the linear and affine
    fields.  Only tanh's depend on the state, and at rest, F = 0, they are
    1 as well (see rk4_flow_jacobian)."""
    if kind == RHS_TANH:
        return 1.0 - F * F
    return np.ones_like(F)


def _march(MT, W, h):
    """Classical RK4 under tanh, f(x) = tanh(M x), with step h from the state
    W[0, 0], one state (m,) or rows (k, m).  W is a block (b + 1, 5, *shape)
    of rows: W[i] holds the state x_i and then the four stage slopes of step
    i, and step i writes those slopes and the state W[i + 1, 0].  Each slope
    is a dot into its slot with tanh taken in place, and each sum of the
    step is one dot of a weight vector with the rows it sums:

        k1 = f(x), k2 = f((1, h/2) . (x, k1)), k3 = f((1, 0, h/2) . (x, k1, k2)),
        k4 = f((1, 0, 0, h) . (x, k1, k2, k3)),
        x_next = x + (h/6, h/3, h/3, h/6) . (k1, k2, k3, k4),

    13 numpy calls a step over prebuilt views, and no allocation.  The 8
    dots are bound ndarray.dot calls and tanh and add are looked up once:
    np.dot reaches the same C routine through a Python-level dispatcher,
    which costs half again as much per call on these small operands.  x stays
    out of the increment's dot and is added once: a dot with x in it rounds
    at ulp(x) with every term, and the summation order of BLAS differs
    between one state and rows.  The sums round differently from the
    textbook's, by about eps (1 + |x|) a step."""
    flat = W.reshape(len(W), 5, -1)[:-1]
    y = np.empty(flat.shape[-1])
    Y = y.reshape(W.shape[2:])
    a2 = np.array([1.0, 0.5 * h])
    a3 = np.array([1.0, 0.0, 0.5 * h])
    a4 = np.array([1.0, 0.0, 0.0, h])
    b = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0])
    S = W[:, 0]
    views = (*W[:-1, 1:].swapaxes(0, 1), flat[:, :2], flat[:, :3], flat[:, :4], flat[:, 1:])
    tanh, add = np.tanh, np.add
    for x, k1, k2, k3, k4, r2, r3, r4, r, x_next in zip(S, *views, S[1:]):
        tanh(x.dot(MT, k1), k1)
        a2.dot(r2, y)
        tanh(Y.dot(MT, k2), k2)
        a3.dot(r3, y)
        tanh(Y.dot(MT, k3), k3)
        a4.dot(r4, y)
        tanh(Y.dot(MT, k4), k4)
        b.dot(r, y)
        add(x, Y, x_next)


def rk4_path(kind, M, c, x0, T, n_steps):
    """States at the n_steps+1 uniform grid times over [0, T], row 0 = x0,
    stepped into the result by the step map (see _step_map), or under tanh
    off rest by _march on one (n_steps + 1, 5, *x0.shape) block, whose state
    column is copied out: its temporaries are O(n_steps m), five times the
    path's size, where the step map's are O(m)."""
    h = T / n_steps
    if kind != RHS_TANH or not (np.count_nonzero(x0) or np.count_nonzero(c)):
        out = np.empty((n_steps + 1,) + x0.shape)
        out[0] = x0
        _map(out, *_step_map(kind, M, c, h))
        return out
    W = np.empty((n_steps + 1, 5) + x0.shape)
    W[0, 0] = x0
    _march(np.ascontiguousarray(M.T), W, h)
    return W[:, 0].copy()


def _step_map(kind, M, c, h):
    """E and g of the RK4 step x -> x + E x + g of every field but tanh, and
    of tanh at rest: E is a zero state's increment (see _step_increments),
    and g the step from 0, whose slopes under f = M x + c are k_1 = c and
    k_i = M (a_i h k_{i-1}) + c, or None where c = 0."""
    E = _step_increments(kind, M, np.zeros((1, 4, M.shape[0])), h)[0]
    if not np.count_nonzero(c):
        return E, None
    k = g = c
    for a, w in ((0.5 * h, 2.0), (0.5 * h, 2.0), (h, 1.0)):
        k = M @ (a * k) + c
        g = g + w * k
    return E, g * (h / 6.0)


def _map(S, E, g):
    """The step map from the state S[0], one state (m,) or rows (k, m):
    S[i + 1] = S[i] + (S[i] E^T + g), one matvec a step, a bound
    ndarray.dot call as in _march; g None is 0."""
    ET = np.ascontiguousarray(E.T)
    for x, x_next in zip(S, S[1:]):
        x.dot(ET, x_next)
        if g is not None:
            x_next += g
        x_next += x


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


def _chain_copies(E, b):
    """_chain(np.broadcast_to(E, (b, m, m))) bit for bit, in at most two
    single matmuls a level.  Each level of that chain is a run of r equal
    entries X followed by at most one other, Y: its pairs are X with X, and,
    when r is odd and Y is there, X with Y; an unpaired last entry is carried
    up.  So every pair of the run is one product, formed once."""
    X, r, Y = E, b, None
    while r + (Y is not None) > 1:
        if r % 2:
            # the last X pairs with Y, or is carried up as the next Y
            Y = X if Y is None else Y + X + Y @ X
        if r > 1:
            X = X + X + X @ X
        r //= 2
    return X if r else Y


def rk4_flow_jacobian(kind, M, c, X0, T, n_steps):
    """Final state and its sensitivity to the initial state under the RK4
    flow.  X0 is one state (m,), giving (m,) and (m, m), or rows (k, m),
    giving (k, m) and (k, m, m).

    RK4 applied to the variational equation advances the sensitivity by a
    linear map I + E per step (see _step_increments), so the sensitivity is
    the ordered product of those maps, multiplied a block of c steps at a
    time by _chain in a few batched calls, P <- P + E_tot P.  c =
    SCAN_BLOCK_FLOATS // (4 m^2 max(1, k)), at least 1, bounds the block's
    temporaries; zero rows give empty results.  The state takes rk4_path's
    steps.  Under the step map (see _step_map) every step of every row has
    the increment E, each block's product is _chain of c copies of it,
    formed once per block length by _chain_copies in at most two matmuls a
    level, and one sensitivity serves every row; at rest, X0 = 0 and c = 0,
    the state stays 0 and is not stepped.  Under tanh off rest, _march steps
    each block in one preallocated (c + 1, 5, *X0.shape) array of states and
    their stage slopes, and the slope view W[:b, 1:] of a block of b steps
    goes to _step_increments as it is.
    """
    m = X0.shape[-1]
    block = max(1, SCAN_BLOCK_FLOATS // (4 * m * m * max(1, X0.size // m)))
    h = T / n_steps
    # count_nonzero tests a small array in a quarter of any()'s time
    rest = not (np.count_nonzero(X0) or np.count_nonzero(c))
    mapped = kind != RHS_TANH or rest
    if mapped:
        E, g = _step_map(kind, M, c, h)
        S = np.empty((min(block, n_steps) + 1,) + X0.shape)
    else:
        MT = np.ascontiguousarray(M.T)
        W = np.empty((min(block, n_steps) + 1, 5) + X0.shape)
        S = W[:, 0]
    S[0] = X0
    P = np.eye(m)
    E_tot = None
    for i in range(0, n_steps, block):
        b = min(block, n_steps - i)
        if not rest:
            if mapped:
                _map(S[: b + 1], E, g)
            else:
                _march(MT, W[: b + 1], h)
            S[0] = S[b]
        if not mapped:
            E_tot = _chain(_step_increments(kind, M, W[:b, 1:], h))
        elif E_tot is None or b < block:
            # the full blocks share one product; a ragged last block forms its own
            E_tot = _chain_copies(E, b)
        P = P + np.matmul(E_tot, P)
    # P is a fresh array; only a sensitivity that every row shares is copied
    # out row by row
    if P.shape != X0.shape + (m,):
        P = np.broadcast_to(P, X0.shape + (m,)).copy()
    return S[0].copy(), P


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


def _extremes(G, sets):
    """lambda_max(G[S, S]) - 1 and 1 - lambda_min(G[S, S]) for the rows S of
    sets."""
    ev = np.linalg.eigvalsh(_gram_stack(G, sets))
    return ev[:, -1] - 1.0, 1.0 - ev[:, 0]


def _deviation(G, supports):
    """Largest deviation from 1 of any eigenvalue of the supports' submatrices."""
    up, down = _extremes(G, supports)
    return float(max(up.max(), down.max()))


def _margin(G, k):
    """The rounding margin 4 k^3 eps max(1, max_i G_ii) of the spectral
    screens on supports of size k (see max_deviation and rip_scan)."""
    return 4.0 * k**3 * np.finfo(float).eps * max(1.0, float(G.diagonal().max()))


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
    margin = _margin(G, k)
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


def _subsets(m, r):
    """Every r-subset of range(m), in lexicographic order, as the rows of an
    array."""
    n = math.comb(m, r)
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), r))
    return np.fromiter(flat, dtype=np.intp, count=n * r).reshape(n, r)


def _readonly(a):
    """a, made read-only, as every array of a cached scan table is."""
    a.flags.writeable = False
    return a


def _scan_groups(m, k):
    """Every k-subset of range(m) exactly once, as a head followed by a tail:
    the plan (tails, groups) of a scan of order k over m columns at the
    current SCAN_BLOCK_FLOATS, built once per process for each such shape
    (see _scan_plan)."""
    return _scan_plan(m, k, SCAN_BLOCK_FLOATS)


@functools.lru_cache(maxsize=16)
def _scan_plan(m, k, block_floats):
    """(tails, groups) of _scan_groups, with every array read-only.  tails
    is the table of every r-subset of range(m), for the largest r <= k (at
    least 1) whose table holds at most block_floats entries.  groups is a
    tuple of pairs (heads, lo): each row of heads, a (k - r)-subset ending at
    some entry h shared by the whole array, followed by each row of
    tails[lo:], the r-subsets whose entries all exceed h, is a k-subset.
    The heads ending at h come in chunks of at most
    block_floats / max(m, len(tails) - lo) rows (at least one), so a
    chunk's row sums over range(m), and each array of the screen over its
    heads and the group's tails, fit in the block size; the supports that
    pass the screen are gathered into blocks of their own (see rip_scan).
    When r = k the one group is the empty head followed by the whole table.
    Nothing here depends on the Gram matrix, so every scan of the shape
    shares the plan.
    """
    r = k
    while r > 1 and math.comb(m, r) * r > block_floats:
        r -= 1
    tails = _readonly(_subsets(m, r))
    if r == k:
        return tails, ((_readonly(np.empty((1, 0), dtype=np.intp)), 0),)
    groups = []
    for h in range(k - r - 1, m - r):
        # the last C(m - h - 1, r) rows are the r-subsets of range(h + 1, m)
        lo = len(tails) - math.comb(m - h - 1, r)
        stems = _subsets(h, k - r - 1)
        heads = np.empty((len(stems), k - r), dtype=np.intp)
        heads[:, :-1] = stems
        heads[:, -1] = h
        _readonly(heads)
        rows = max(1, block_floats // max(m, len(tails) - lo))
        groups += [(heads[i : i + rows], lo) for i in range(0, len(heads), rows)]
    return tails, tuple(groups)


@functools.lru_cache(maxsize=16)
def _tail_ranks(m, r):
    """comb[n, i] = C(n, r - i), read-only: the row of an r-subset
    c_0 < ... < c_{r-1} in the lexicographic table of every r-subset of
    range(m) is C(m, r) - 1 - sum_i comb[m - 1 - c_i, i]."""
    return _readonly(np.array([[math.comb(n, r - i) for i in range(r)] for n in range(m)]))


def _gap(t, a):
    """(t - a)_+."""
    return np.maximum(t - a, 0.0)


def _top(x, y, w2):
    """lambda_max([[x, w], [w, y]]) = (x + y) / 2 + sqrt(((x - y) / 2)^2 + w^2),
    entry by entry, from w2 = w^2."""
    h = 0.5 * (x - y)
    return 0.5 * (x + y) + np.sqrt(h * h + w2)


def _block_bounds(G, sets):
    """Upper bounds (up, down) on lambda_max(B) and -lambda_min(B), with
    B = G[S, S] - I, for the rows S of sets (count, q).

    For q = 1 and 2 they are B's extreme eigenvalues in closed form.  For
    q = 3 each side is the least of three nested bounds: for each z in S,
    with P = S - {z},

        lambda_max(B) <= lambda_max([[lambda_max(B_P), ||B_Pz||],
                                     [||B_Pz||,        B_zz    ]]),

    the norm-matrix argument of rip_scan with blocks of 2 and 1, and the same
    on -B.  For q >= 4 they are eigvalsh's, in blocks of at most
    SCAN_BLOCK_FLOATS Gram entries.  Each computed bound is at least the
    exact extreme eigenvalue less 2 q^2 eps max(1, max_i G_ii) (see
    rip_scan)."""
    q = sets.shape[1]
    if q > 3:
        up, down = np.empty(len(sets)), np.empty(len(sets))
        rows = max(1, SCAN_BLOCK_FLOATS // (q * q))
        for i in range(0, len(sets), rows):
            up[i : i + rows], down[i : i + rows] = _extremes(G, sets[i : i + rows])
        return up, down
    cols = sets.T
    d = [G.diagonal()[a] - 1.0 for a in cols]
    if q == 1:
        return d[0], -d[0]
    if q == 2:
        w2 = G[cols[0], cols[1]] ** 2
        return _top(d[0], d[1], w2), _top(-d[0], -d[1], w2)
    # o[k]: the squared coupling of the two entries of S other than the k-th
    o = [G[cols[(k + 1) % 3], cols[(k + 2) % 3]] ** 2 for k in range(3)]
    up = down = np.inf
    for z, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        # ||B_Pz||^2 with P = {i, j}
        n2 = o[i] + o[j]
        up = np.minimum(up, _top(_top(d[i], d[j], o[z]), d[z], n2))
        down = np.minimum(down, _top(_top(-d[i], -d[j], o[z]), -d[z], n2))
    return up, down


def _tail_sums(Q, tails):
    """sum_{j in T} Q[..., j] for every row T of tails."""
    out = Q[..., tails[:, 0]]
    for b in tails.T[1:]:
        out += Q[..., b]
    return out


def _block_screen(G, s, tails, bounds):
    """The function (heads, lo, delta) -> keep for the heads and tails of a
    _scan_groups(m, s) that splits its supports, given the tails'
    _block_bounds: keep[i, j] is False only when the block test of
    rip_scan, at t = delta - margin, shows that the support heads[i]
    followed by tails[lo + j] has a computed eigvalsh deviation below
    delta.  keep and each array behind it are heads x tails, which the
    chunk size of _scan_plan bounds by SCAN_BLOCK_FLOATS.  The row-sum
    table is built once per call, that is once per scan; heads of r
    entries look their rows up in the rank table _tail_ranks(m, r), built
    once per process."""
    m, r = G.shape[0], tails.shape[1]
    margin = _margin(G, s)
    tail_up, tail_down = bounds
    # R[i, j] = sum_{h in tails[j]} G_ih^2, so c^2 for a head H and the tail
    # j is sum_{i in H} R[i, j]: p row slices of R per chunk of heads.
    # Heads of one entry use each row once, so for them the table is not
    # built and each row is summed when it is needed
    Q = G * G
    if s - r > 1:
        R = _tail_sums(Q, tails)
    comb = _tail_ranks(m, r)

    # the tails' gaps change only when delta does
    @functools.lru_cache(maxsize=1)
    def tail_gaps(t):
        return _gap(t, tail_up), _gap(t, tail_down)

    def keep(heads, lo, delta):
        t = delta - margin
        gap_up, gap_down = tail_gaps(t)
        if heads.shape[1] == r:
            row = len(tails) - 1 - comb[m - 1 - heads, np.arange(r)].sum(axis=1)
            head_up, head_down = gap_up[row], gap_down[row]
        else:
            head_up, head_down = (_gap(t, b) for b in _block_bounds(G, heads))
        up = np.multiply.outer(head_up, gap_up[lo:])
        down = np.multiply.outer(head_down, gap_down[lo:])
        # every head ends at one entry, so its row of R is broadcast
        h = heads[0, -1]
        c2 = R[h, lo:] if s - r > 1 else _tail_sums(Q[h], tails[lo:])
        for a in heads.T[:-1]:
            c2 = c2 + R[a, lo:]
        return np.minimum(up, down, out=up) <= c2

    return keep


def _greedy_seed(G, k, starts):
    """A deviation some support of size k attains, and that support,
    sorted, to start rip_scan's maximum near its end: the larger deviation
    of two supports grown a column at a time, one from starts[0] to
    maximise lambda_max - 1 and one from starts[1] to maximise
    1 - lambda_min of G[S, S] (the greedy search of Moghaddam, Weiss &
    Avidan 2006, applied to G and to 2I - G)."""
    m = G.shape[0]
    found = []
    for largest, support in zip((True, False), starts):
        for _ in range(k - len(support)):
            rest = np.delete(np.arange(m), support)
            grown = np.column_stack((np.broadcast_to(support, (len(rest), len(support))), rest))
            ev = np.linalg.eigvalsh(_gram_stack(G, grown))
            support = grown[np.argmax(ev[:, -1]) if largest else np.argmin(ev[:, 0])]
        # sorted, so G[S, S] is the submatrix the scan builds for S
        support = np.sort(support)
        found.append((_deviation(G, support[None]), support))
    return max(found, key=lambda f: f[0])


def rip_scan(G, s):
    """max_deviation over every support of size s, and the number of
    supports eigensolved (the seed's candidates are not counted).

    A scan of at most one block (C(m, s) <= SCAN_BLOCK_FLOATS / s^2)
    passes every support, in lexicographic order, to max_deviation: the
    plan's table of tails, built once per process for the shape.  A
    longer scan starts from _greedy_seed, a deviation some support attains,
    so it cannot raise the maximum, and passes the supports to
    max_deviation in whole blocks.  When _scan_groups splits every support S
    into a head H of p entries and a tail T of r, it first screens each
    support without gathering it.  With B = G - I,

        B_S = [[B_H, C], [C^T, B_T]],   c^2 = sum_{h in H, j in T} G_hj^2,

    c^2 = ||C||_F^2 >= ||C||_2^2, and for a unit v = (x, y)

        v^T B_S v <= a |x|^2 + 2 c |x| |y| + b |y|^2 <= lambda_max(N),

    N = [[a, c], [c, b]], with a >= lambda_max(B_H) and b >= lambda_max(B_T):
    the norm-matrix argument of block Gershgorin theorems (Feingold & Varga
    1962).  With a >= -lambda_min(B_H) and b >= -lambda_min(B_T) it bounds
    -lambda_min(B_S).  lambda_max(N) >= t exactly when (t - a)_+ (t - b)_+
    <= c^2, so each side costs one outer product of a head vector and a tail
    vector, and no square root.  a and b are _block_bounds: closed forms for
    blocks of up to 3 entries, eigvalsh beyond.  The tails' bounds are
    formed once per scan; heads look theirs up among them when p = r, and
    form them per chunk otherwise.  c^2 is p row slices of a table, built
    once per scan, of the row sums of G o G over each tail; a head of one
    entry sums its one row when needed, and no table is built.  The tails,
    the chunks of heads and the heads' rank table are the shape's, built
    once per process (see _scan_plan); a chunk holds
    SCAN_BLOCK_FLOATS // max(m, n) heads (at least one) for a group of n
    tails, so the screen's heads x tails arrays fit the block size.  Only
    supports for which one side passes at t = delta - margin go on to
    max_deviation (beta_S, then eigvalsh), gathered into whole blocks of
    SCAN_BLOCK_FLOATS // s^2 supports whatever the chunk.  When r = s there
    is no head, and every support goes on.  A split scan grows its seed from
    the tail with the best bound on each side, adding s - r columns; a scan
    without one grows it from the empty support.

    Rounding, with u = eps / 2 and g = max(1, max_i G_ii), which bounds
    every |B_ij|:
    - A block bound of q entries is at least the exact extreme eigenvalue
      less 2 q^2 eps g.  For q = 1 it is G_ii - 1 rounded once, within u g.
      For q = 2, _top's inputs |x|, |y|, |w| <= g: (x + y) / 2 is within
      u g, the root's argument within a relative 4u and the root, at most
      sqrt(2) g, within a relative 3u, and the last addition adds
      u (1 + sqrt(2)) g: (1 + 3 sqrt(2) + 1 + sqrt(2)) u g < 4 eps g.  The
      rounded G_ii - 1 and w^2 move the exact eigenvalue by at most u g and
      u g / 2 more, so the bound is within 5 eps g of it.  For q = 3 the
      outer _top's inputs are the inner value, |x| <= 2 g, then |y| <= g
      and w^2 <= 2 g^2, so it adds (1.5 + 3 sqrt(4.25) + 1.5 + sqrt(4.25))
      u g < 6 eps g of its own; the inner value's 5 eps g and w^2's
      relative 2u move it by at most 5 eps g and about eps g more, so each
      nested bound is within 12 eps g of its exact value, which is at least
      lambda_max(B).  For q >= 4 eigvalsh's eigenvalues are exact for a
      perturbation of B of norm about q eps ||B|| <= q^2 eps g.  Blocks have
      q <= s - 1 entries, and lambda_max(N) moves by at most the larger
      shift of a and b, so by at most 2 s^2 eps g.
    - c^2 is a sum of p r nonnegative rounded squares, so it is computed
      within a relative p r eps however the table and its row slices group
      it, and the two differences and the product of the test add
      3 eps / 2.  A skip therefore means lambda_max(N) < t for the computed
      a and b and a c reduced by a relative (p r + 2) eps / 2, which moves
      lambda_max(N) by at most sqrt(p r) g (p r + 2) eps / 2
      <= (s^3 / 16 + s / 2) eps g, as p + r = s and c^2 <= p r g^2.
    - t is rounded by at most eps |t| <= s eps g, and eigvalsh's error in
      the deviation is about s^2 eps g (see max_deviation).
    These come to (s^3 / 16 + 3 s^2 + 3 s / 2) eps g <= 4 s^3 eps g for
    s >= 2 (a split needs s >= 2): max_deviation's margin covers them, with
    no allowance of its own.  So a skip here implies what a skip by beta_S
    implies in max_deviation: the support's computed eigvalsh deviation lies
    below delta, and max_deviation, given the support, would have returned
    delta unchanged.  The result therefore equals the unscreened maximum bit
    for bit.
    """
    m = G.shape[0]
    rows = max(1, SCAN_BLOCK_FLOATS // (s * s))
    tails, groups = _scan_groups(m, s)
    if math.comb(m, s) <= rows:
        # one block: r = s, and the table of tails is every support
        return max_deviation(G, tails, 0.0)
    if tails.shape[1] < s:
        bounds = _block_bounds(G, tails)
        screen = _block_screen(G, s, tails, bounds)
        # the tails with the best bound on each side
        starts = [tails[np.argmax(b)] for b in bounds]
    else:
        screen, starts = None, [np.empty(0, dtype=np.intp)] * 2
    delta, solved = _greedy_seed(G, s, starts)[0], 0
    # the supports that pass the screen fill whole blocks, as in a scan of
    # every support, so max_deviation's temporaries keep one size
    block = np.empty((rows, s), dtype=np.intp)
    fill = 0
    for heads, lo in groups:
        if screen is None:
            keep = np.arange(len(tails))
        else:
            keep = np.flatnonzero(screen(heads, lo, delta))
        while len(keep):
            n = min(len(keep), rows - fill)
            h, t = np.divmod(keep[:n], len(tails) - lo)
            block[fill : fill + n, : heads.shape[1]] = heads[h]
            block[fill : fill + n, heads.shape[1] :] = tails[lo + t]
            fill += n
            keep = keep[n:]
            if fill == rows:
                delta, count = max_deviation(G, block, delta)
                solved += count
                fill = 0
    if fill:
        delta, count = max_deviation(G, block[:fill], delta)
        solved += count
    return delta, solved
