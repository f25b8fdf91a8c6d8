"""Hot numeric loops: fixed-step RK4 propagation of states and sensitivities,
the ADMM inner iterations of the weighted-l1 solver, and the per-support scan
behind exact restricted-isometry constants.

Everything is plain numpy.  rhs is the one definition of the catalog's
right-hand side f, and jacobian_scale gives its Jacobian as J(x) = diag(d) M
from the slopes f(x); the integrators call them on
DynamicalSystem.kernel_args().  _march is the one RK4 march: it runs a block
of steps, writing each stage slope in place into a preallocated array of the
block's slopes and each state into a row of the path, so a step allocates
nothing.  rk4_path marches straight into its result.  The flow Jacobian
marches one state, or many rows in lockstep for the combinatorial oracle, a
block of steps at a time, and builds the sensitivity from each block's stage
slopes as a product of per-step increments in batched matmuls (see
rk4_flow_jacobian).  A flow from an all-zero state under a field with
f(0) = 0 skips the march, whose states would all be zeros; a path marches
from any state.  Where the Jacobian does not depend on the state, under
every field but tanh and under tanh at rest, one step's increment is formed
once, and each block's product is _chain of views of it, bit for bit.  The support scan screens in
three tiers, each run only on the supports the one before could not rule out: a
block test built from bounds on the extreme eigenvalues of each support's
head and tail blocks (closed forms up to 3 x 3, see _block_bounds) and the
Frobenius norm of the block that couples them (from a table of row sums over
each tail), for a whole group of supports at once without gathering any of
them (see rip_scan); beta_S, one batched matmul per block of gathered Gram
submatrices; and eigvalsh, in a batch (see max_deviation).  A greedy seed,
grown from the tails with the best bounds, starts the running maximum near
its end.  The lasso and basis-pursuit kernels run one ADMM iteration, _admm,
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
RHS_AFFINE = 2
RHS_TANH = 3

# the blocked kernels bound their temporaries by this many floats: the support
# scan screens supports in groups whose arrays hold at most this many entries,
# and gathers and eigensolves them in blocks of at most this many Gram
# entries; the flow Jacobian takes blocks of steps whose four stage Jacobians
# hold at most this many entries.  One table is larger: the row sums over
# each of the C(m, r) tails of a scan whose heads have two entries or more,
# m C(m, r) <= m SCAN_BLOCK_FLOATS / r floats.  That is 48,576 for C(24, 3)
# tails, and under rip's default budget of 2M supports at most 437,060
# (3.5 MB, m = 41, s = 5, r = 3)
SCAN_BLOCK_FLOATS = 1 << 15


def rhs(kind, MT, c, X, out):
    """f(X) for one state X (m,) or for rows X (k, m), written to out, a
    C-contiguous array of X's shape, and returned.  MT is M.T; callers that
    evaluate many stages pass one contiguous copy.  The slopes are formed in
    place: np.dot of X and MT into out, then the drift added or tanh taken,
    with the bits of the allocating X @ MT, + c and tanh.  The catalog is
    autonomous."""
    np.dot(X, MT, out)
    if kind == RHS_AFFINE:
        np.add(out, c, out)
    elif kind == RHS_TANH:
        np.tanh(out, out)
    return out


def jacobian_scale(kind, F):
    """The row scales d of the Jacobian J(x) = diag(d) M at points whose
    slopes are F = f(x): 1 - F^2 for tanh, 1 for the linear and affine
    fields.  Only tanh's depend on the state, and at rest, F = 0, they are
    1 as well (see rk4_flow_jacobian)."""
    if kind == RHS_TANH:
        return 1.0 - F * F
    return np.ones_like(F)


def _march(kind, MT, c, S, h, K):
    """Classical RK4 with step h from the state S[0], one state (m,) or
    rows (k, m): step i writes its four stage slopes to K[i] and the state
    after it to S[i + 1].  The slopes go straight into K through rhs, and
    each step's sums are formed in two scratch arrays with the ufuncs,
    operands and order of

        k1 = f(x), k2 = f(x + h/2 k1), k3 = f(x + h/2 k2), k4 = f(x + h k3),
        x = x + h/6 (k1 + 2 k2 + 2 k3 + k4),

    so the states and slopes equal those of that expression bit for bit."""
    half, sixth = 0.5 * h, h / 6.0
    Y = np.empty_like(S[0])
    Z = np.empty_like(Y)
    for x, x_next, k1, k2, k3, k4 in zip(S, S[1:], *K.swapaxes(0, 1)):
        rhs(kind, MT, c, x, k1)
        rhs(kind, MT, c, np.add(x, np.multiply(half, k1, Y), Y), k2)
        rhs(kind, MT, c, np.add(x, np.multiply(half, k2, Y), Y), k3)
        rhs(kind, MT, c, np.add(x, np.multiply(h, k3, Y), Y), k4)
        np.add(k1, np.multiply(2.0, k2, Y), Y)
        Y += np.multiply(2.0, k3, Z)
        Y += k4
        Y *= sixth
        np.add(x, Y, x_next)


def rk4_path(kind, M, c, x0, T, n_steps):
    """States at the n_steps+1 uniform grid times over [0, T], row 0 = x0,
    marched straight into the result (see _march).  A step's slopes are
    read only within it, so every step writes them to the same four slots:
    the march's K is a stride-0 view of one (4, *x0.shape) array, and the
    temporaries stay O(m)."""
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x0
    slots = np.empty((4,) + x0.shape)
    K = np.lib.stride_tricks.as_strided(slots, (n_steps,) + slots.shape, (0,) + slots.strides)
    _march(kind, np.ascontiguousarray(M.T), c, out, T / n_steps, K)
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
    the ordered product of those maps.  _march advances only the state, with
    the same steps as rk4_path, a block of c steps at a time, and writes the
    block's stage slopes into one preallocated (c, 4, *X0.shape) array; each
    block's increments are multiplied by _chain in a few batched calls, and
    P <- P + E_tot P.  c = SCAN_BLOCK_FLOATS // (4 m^2 max(1, k)), at
    least 1, bounds the block's temporaries; zero rows give empty results.
    Two things are skipped where they cannot change a bit.  At rest, X0 all
    zeros under a field with f(0) = 0 (every kind but the affine one), every
    stage slope and state stays exactly 0, so the state is not marched.
    Where the Jacobian scales do not depend on the state, under every field
    but tanh and under tanh at rest (its scales 1 - 0^2 are all 1), every
    step of every row has the increment E of a zero state, so E is formed
    once, each block's product is _chain of c views of it, formed once per
    block length, and one sensitivity serves every row.
    """
    m = X0.shape[-1]
    block = max(1, SCAN_BLOCK_FLOATS // (4 * m * m * max(1, X0.size // m)))
    h = T / n_steps
    rest = kind != RHS_AFFINE and not X0.any()
    shared = kind != RHS_TANH or rest
    if shared:
        E = _step_increments(kind, M, np.zeros((1, 4, m)), h)[0]
    MT = np.ascontiguousarray(M.T)
    K = np.empty((min(block, n_steps), 4) + X0.shape)
    S = np.empty((len(K) + 1,) + X0.shape)
    S[0] = X0
    P = np.eye(m)
    E_tot = None
    for i in range(0, n_steps, block):
        b = min(block, n_steps - i)
        if not rest:
            _march(kind, MT, c, S[: b + 1], h, K[:b])
            S[0] = S[b]
        if not shared:
            E_tot = _chain(_step_increments(kind, M, K[:b], h))
        elif E_tot is None or b < block:
            # the full blocks share one product; a ragged last block forms its own
            E_tot = _chain(np.broadcast_to(E, (b, m, m)))
        P = P + np.matmul(E_tot, P)
    return S[0].copy(), np.broadcast_to(P, X0.shape + (m,)).copy()


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


def _scan_groups(m, k):
    """Every k-subset of range(m) exactly once, as a head followed by a tail.

    Returns (tails, groups).  tails is the table of every r-subset of
    range(m), for the largest r <= k (at least 1) whose table holds at most
    SCAN_BLOCK_FLOATS entries.  groups yields pairs (heads, lo): each row of
    heads, a (k - r)-subset ending at some entry h shared by the whole array,
    followed by each row of tails[lo:], the r-subsets whose entries all
    exceed h, is a k-subset.  The heads ending at h come in chunks of at most
    SCAN_BLOCK_FLOATS / (k max(m, len(tails) - lo)) rows (at least one), so
    a chunk's row sums over range(m), any array over its heads and the
    group's tails, and the k indices of every support it completes fit in
    the block size.  When r = k the one group is the empty head followed by
    the whole table.
    """
    r = k
    while r > 1 and math.comb(m, r) * r > SCAN_BLOCK_FLOATS:
        r -= 1
    tails = _subsets(m, r)

    def groups():
        if r == k:
            yield np.empty((1, 0), dtype=np.intp), 0
            return
        for h in range(k - r - 1, m - r):
            # the last C(m - h - 1, r) rows are the r-subsets of range(h + 1, m)
            lo = len(tails) - math.comb(m - h - 1, r)
            stems = _subsets(h, k - r - 1)
            heads = np.empty((len(stems), k - r), dtype=np.intp)
            heads[:, :-1] = stems
            heads[:, -1] = h
            rows = max(1, SCAN_BLOCK_FLOATS // (k * max(m, len(tails) - lo)))
            for i in range(0, len(heads), rows):
                yield heads[i : i + rows], lo

    return tails, groups()


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
    delta."""
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
    # the row of an r-subset c_0 < ... < c_{r-1} in the lexicographic table
    # of tails is C(m, r) - 1 - sum_i C(m - 1 - c_i, r - i)
    comb = np.array([[math.comb(n, r - i) for i in range(r)] for n in range(m)])

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
    passes every support, in lexicographic order, to max_deviation.  A
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
    entry sums its one row when needed, and no table is built.  Only supports
    for which one side passes at t = delta - margin go on to max_deviation
    (beta_S, then eigvalsh).  When r = s there is no head, and every support
    goes on.  A split scan grows its seed from the tail with the best bound
    on each side, adding s - r columns; a scan without one grows it from
    the empty support.

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
