import itertools
import math

import numpy as np
import pytest

from sparseobs import kernels
from sparseobs.errors import BudgetError, DomainError, ShapeError
from sparseobs.harness import gen_gaussian_matrix
from sparseobs.rip import (
    METHOD_EXACT,
    METHOD_GERSHGORIN_UPPER,
    METHOD_MC_LOWER,
    disjoint_inner_product_margin,
    operator_norm,
    rip_constant_bounds,
    rip_constant_exact,
)

from conftest import gaussian_unit_columns, normalized_columns, per_support_delta, support_deviations


# --- operator norm -----------------------------------------------------------


def test_operator_norm_simple_values():
    assert operator_norm(np.eye(3)) == 1.0
    assert math.isclose(operator_norm(np.array([[1.0, 1.0]])), math.sqrt(2.0), rel_tol=1e-12)
    assert operator_norm(np.zeros((3, 2))) == 0.0


def test_operator_norm_matches_svd_oracle():
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(20):
        A = rng.normal(size=(4, 8))
        top = float(np.linalg.svd(A, compute_uv=False)[0])
        assert math.isclose(operator_norm(A), top, rel_tol=1e-8)


def test_operator_norm_degenerate_spectra():
    # rank-1 and repeated-top-eigenvalue cases still converge
    A = np.outer(np.arange(1.0, 5.0), np.array([2.0, -1.0, 0.5]))
    top = float(np.linalg.svd(A, compute_uv=False)[0])
    assert math.isclose(operator_norm(A), top, rel_tol=1e-8)
    assert math.isclose(operator_norm(3.0 * np.eye(5)), 3.0, rel_tol=1e-12)


# --- exact constant ----------------------------------------------------------


def test_exact_constant_on_isometries_and_scalings():
    for m in range(1, 11):
        for s in range(1, m + 1):
            report = rip_constant_exact(np.eye(m), s)
            assert report.delta == 0.0
            assert report.method == METHOD_EXACT
            assert report.supports_examined == math.comb(m, s)
    assert abs(rip_constant_exact(2.0 * np.eye(2), 1).delta - 3.0) <= 1e-12
    # eigenvalues of [[1,1],[1,1]] are {0, 2}, so delta_2 = 1
    assert abs(rip_constant_exact(np.array([[1.0, 1.0]]), 2).delta - 1.0) <= 1e-12


def test_exact_constant_is_nondecreasing_in_s():
    A = gen_gaussian_matrix(4, 6, 5)
    deltas = [rip_constant_exact(A, s).delta for s in range(1, 7)]
    assert all(d0 <= d1 + 1e-14 for d0, d1 in zip(deltas, deltas[1:]))


def _clustered():
    # columns 16-19 are nearly parallel, so the worst support of size 4 is
    # {16, 17, 18, 19}, the last one scanned
    A = gaussian_unit_columns(30, 20, 8)
    A[:, 16:] = normalized_columns(A[:, [16]] + 0.1 * A[:, 16:])
    return A


def test_exact_constant_matches_per_support_reference_across_scan_chunks():
    # C(20, 4) = 4845 supports span more than one block of the scan
    assert 4845 > kernels.SCAN_BLOCK_FLOATS // 4**2
    for M in (gaussian_unit_columns(30, 20, 8), _clustered()):
        G = M.T @ M
        deviations = []
        for support in itertools.combinations(range(20), 4):
            ev = np.linalg.eigvalsh(G[np.ix_(support, support)])
            deviations.append(max(ev[-1] - 1.0, 1.0 - ev[0]))
        report = rip_constant_exact(M, 4)
        assert report.supports_examined == len(deviations) == 4845
        assert abs(report.delta - max(deviations)) <= 1e-13
    assert int(np.argmax(deviations)) == 4844


def _duplicated_column():
    A = gen_gaussian_matrix(128, 16, 50)
    A[:, 9] = A[:, 2]
    return A


def _coupled_pair():
    # orthonormal columns but for G[0, 15] = 0.3: the deviation of a support
    # holding both, computed by eigvalsh as 1.3 - 1, exceeds 0.3 by an ulp,
    # and for such a support the block test is tight
    A = np.eye(16)
    A[0, 15] = 0.3
    A[15, 15] = math.sqrt(1.0 - 0.3**2)
    return A


SCREEN_CASES = {
    # the certify_wide shape, split into 3 + 3 at the default block size
    "certify-wide": (lambda: gen_gaussian_matrix(512, 24, 1), 6),
    "coupled-pair": (_coupled_pair, 4),
    "gaussian": (lambda: gen_gaussian_matrix(128, 16, 50), 5),
    "identity": (lambda: np.eye(12), 4),
    "scaled-down": (lambda: 1e-4 * gen_gaussian_matrix(128, 16, 50), 5),
    "scaled-up": (lambda: 1e4 * gen_gaussian_matrix(128, 16, 50), 5),
    "wide": (lambda: gen_gaussian_matrix(24, 48, 51), 2),
    "duplicated-column": (_duplicated_column, 4),
    "clustered": (_clustered, 4),
}


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_screened_constant_equals_per_support_reference(case):
    build, s = SCREEN_CASES[case]
    A = build()
    report = rip_constant_exact(A, s)
    assert report.delta == per_support_delta(A, s)
    assert 1 <= report.supports_solved <= report.supports_examined == math.comb(A.shape[1], s)
    if case == "gaussian":
        # 4368 supports: the screen runs over several blocks
        assert report.supports_examined > kernels.SCAN_BLOCK_FLOATS // s**2
    if case == "identity":
        # every support ties at deviation 0, so none can be skipped
        assert report.supports_solved == report.supports_examined
    if case == "wide":
        assert report.delta > 1.0


def test_screen_eigensolves_few_supports_of_a_wide_scan():
    # the certify_wide shape: delta_6 of a 512 x 24 Gaussian matrix
    report = rip_constant_exact(gen_gaussian_matrix(512, 24, 1), 6)
    assert report.supports_examined == 134_596
    assert report.supports_solved < 0.01 * 134_596


@pytest.mark.parametrize("block_floats", [kernels.SCAN_BLOCK_FLOATS, 2000])
@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_block_screen_keeps_every_support_that_reaches_delta(monkeypatch, case, block_floats):
    # certify-wide splits its supports into heads and tails at the default
    # block size, and every case but the identity does at 2000 floats; the
    # thresholds are computed deviations, so supports tie with them exactly
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", block_floats)
    build, s = SCREEN_CASES[case]
    A = build()
    G = np.ascontiguousarray(A.T @ A)
    tails, groups = kernels._scan_groups(G.shape[0], s)
    if tails.shape[1] == s:
        # no heads: rip_scan gathers every support, and nothing is screened
        return
    screen = kernels._block_screen(G, s, tails, kernels._block_bounds(G, tails))
    chunks = []
    for heads, lo in groups:
        n = len(tails) - lo
        supports = np.concatenate(
            (np.repeat(heads, n, axis=0), np.tile(tails[lo:], (len(heads), 1))), axis=1
        )
        chunks.append((heads, lo, support_deviations(G, supports)))
    deviations = np.concatenate([d for *_, d in chunks])
    assert len(deviations) == math.comb(A.shape[1], s)
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        delta = np.quantile(deviations, q, method="lower")
        kept = 0
        for heads, lo, deviation in chunks:
            keep = screen(heads, lo, delta).ravel()
            assert np.all(keep[deviation >= delta])
            kept += int(keep.sum())
        if q == 1.0 and case != "identity":
            # the screen rules supports out at the constant itself
            assert kept < len(deviations)


@pytest.mark.parametrize("block_floats", [kernels.SCAN_BLOCK_FLOATS, 2000])
@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_pair_sum_bound_is_at_least_every_deviation(monkeypatch, case, block_floats):
    # the bound of rip_scan's block test, lambda_max([[a, c], [c, b]]) for
    # both sides, with a and b the scan's block bounds and c^2 the sum of
    # G_hj^2 over the head/tail pairs; a support is split as _scan_groups
    # splits it, or into halves when the scan leaves it whole (the bound
    # holds for any split)
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", block_floats)
    build, s = SCREEN_CASES[case]
    A = build()
    G = np.ascontiguousarray(A.T @ A)
    tails, groups = kernels._scan_groups(G.shape[0], s)
    p = s - tails.shape[1] or s // 2
    margin = kernels._margin(G, s)
    count = 0
    for heads, lo in groups:
        n = len(tails) - lo
        supports = np.concatenate(
            (np.repeat(heads, n, axis=0), np.tile(tails[lo:], (len(heads), 1))), axis=1
        )
        H, T = supports[:, :p], supports[:, p:]
        c2 = np.sum(G[H[:, :, None], T[:, None, :]] ** 2, axis=(1, 2))
        bound = np.full(len(supports), -np.inf)
        for a, b in zip(kernels._block_bounds(G, H), kernels._block_bounds(G, T)):
            side = (a + b) / 2.0 + np.sqrt(((a - b) / 2.0) ** 2 + c2)
            bound = np.maximum(bound, side)
        assert np.all(bound + margin >= support_deviations(G, supports))
        count += len(supports)
    assert count == math.comb(A.shape[1], s)


def _block_allowance(G, q):
    """The rounding allowance of _block_bounds on blocks of size q."""
    return 2.0 * q * q * np.finfo(float).eps * max(1.0, float(G.diagonal().max()))


def _check_block_bounds(G, sets):
    # both sides are at least eigvalsh's extremes, less the stated
    # allowance, and blocks of one or two entries get their eigenvalues
    q = sets.shape[1]
    allowance = _block_allowance(G, q)
    ev = np.linalg.eigvalsh(G[sets[:, :, None], sets[:, None, :]])
    for bound, extreme in zip(kernels._block_bounds(G, sets), (ev[:, -1] - 1.0, 1.0 - ev[:, 0])):
        assert bound.shape == (len(sets),)
        assert np.all(bound + allowance >= extreme)
        if q <= 2:
            assert np.all(np.abs(bound - extreme) <= allowance)


@pytest.mark.parametrize("case", sorted(SCREEN_CASES))
def test_block_bounds_cover_every_small_block(case):
    A = SCREEN_CASES[case][0]()
    G = np.ascontiguousarray(A.T @ A)
    for q in (1, 2, 3):
        _check_block_bounds(G, kernels._subsets(G.shape[0], q))


def _three_by_three(entries):
    # the symmetric matrix of the diagonal (g00, g11, g22) and the
    # couplings (g01, g02, g12)
    (a, b, c), (x, y, z) = entries
    return np.array([[a, x, y], [x, b, z], [y, z, c]])


THREE_BY_THREE = {
    "equal-diagonals": ((1.0, 1.0, 1.0), (0.4, 0.4, 0.4)),
    "equal-diagonals-mixed": ((1.0, 1.0, 1.0), (0.5, -0.3, 0.1)),
    "one-dominant-coupling": ((1.0, 1.1, 0.9), (0.95, 0.01, -0.02)),
    "zero-coupling": ((0.2, 1.0, 1.7), (0.0, 0.0, 0.0)),
    "one-zero-coupling": ((0.8, 1.2, 1.0), (0.3, 0.0, -0.4)),
}


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("case", sorted(THREE_BY_THREE))
def test_block_bounds_cover_hand_built_three_by_three_blocks(case, scale):
    G = scale * _three_by_three(THREE_BY_THREE[case])
    assert np.linalg.eigvalsh(G)[0] >= 0.0
    _check_block_bounds(G, np.array([[0, 1, 2]]))
    if case == "zero-coupling":
        # with no coupling the nested bounds are the extreme diagonal entries
        up, down = kernels._block_bounds(G, np.array([[0, 1, 2]]))
        allowance = _block_allowance(G, 3)
        assert abs(up[0] - (G.diagonal().max() - 1.0)) <= allowance
        assert abs(down[0] - (1.0 - G.diagonal().min())) <= allowance


def _seeded_gaussian(seed):
    return lambda: gen_gaussian_matrix(64, 14, seed)


# (matrix, s, block floats, whether the greedy seed is already the constant);
# the block size makes C(14, 4) = 1001 supports span several groups
MULTI_GROUP_CASES = {
    "seed-is-delta": (_seeded_gaussian(53), 4, 400, True),
    "seed-below-delta": (_seeded_gaussian(60), 4, 400, False),
    "identity": (lambda: np.eye(10), 4, 400, True),
}


def _scan_with_seed(monkeypatch, A, s):
    """rip_constant_exact(A, s), and the starts and result of each
    _greedy_seed call the scan made."""
    calls = []
    greedy_seed = kernels._greedy_seed

    def spy(G, k, starts):
        found = greedy_seed(G, k, starts)
        calls.append((starts, found))
        return found

    monkeypatch.setattr(kernels, "_greedy_seed", spy)
    return rip_constant_exact(A, s), calls


@pytest.mark.parametrize("case", sorted(MULTI_GROUP_CASES))
def test_multi_group_scan_equals_per_support_reference(monkeypatch, case):
    build, s, block_floats, seed_is_delta = MULTI_GROUP_CASES[case]
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", block_floats)
    A = build()
    tails, groups = kernels._scan_groups(A.shape[1], s)
    assert tails.shape[1] < s and len({lo for _, lo in groups}) > 1
    report, [(_, (seed, _))] = _scan_with_seed(monkeypatch, A, s)
    assert report.delta == per_support_delta(A, s)
    assert (seed == report.delta) == seed_is_delta
    if case == "identity":
        # every support ties at deviation 0, so the screen rules none out
        assert report.supports_solved == report.supports_examined
    else:
        assert report.supports_solved < report.supports_examined


SEED_CASES = {f"screen-{c}": (b, s, 2000) for c, (b, s) in SCREEN_CASES.items()}
SEED_CASES.update((f"multi-{c}", (b, s, f)) for c, (b, s, f, _) in MULTI_GROUP_CASES.items())


@pytest.mark.parametrize("case", sorted(SEED_CASES))
def test_seed_is_an_attained_deviation_grown_from_the_best_tails(monkeypatch, case):
    # at these block sizes every scan spans several blocks, and all but the
    # identity of SCREEN_CASES split their supports into heads and tails
    build, s, block_floats = SEED_CASES[case]
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", block_floats)
    A = build()
    G = np.ascontiguousarray(A.T @ A)
    tails, _ = kernels._scan_groups(G.shape[0], s)
    report, [(starts, (seed, support))] = _scan_with_seed(monkeypatch, A, s)
    assert report.delta == per_support_delta(A, s)
    assert seed == kernels._deviation(G, support[None]) <= report.delta
    assert support.tolist() == sorted(set(support.tolist())) and len(support) == s
    if tails.shape[1] < s:
        # each side grows from the tail with that side's best bound
        bounds = kernels._block_bounds(G, tails)
        for start, bound in zip(starts, bounds):
            assert start.tolist() == tails[np.argmax(bound)].tolist()
        assert any(set(start.tolist()) <= set(support.tolist()) for start in starts)
    else:
        assert case == "screen-identity"
        assert [len(start) for start in starts] == [0, 0]


@pytest.mark.parametrize(
    "m,k,block_floats",
    [(9, 1, 1), (9, 4, 1), (9, 9, 1), (13, 5, 40), (24, 6, 6000), (24, 6, 2000)]
    + [(m, k, kernels.SCAN_BLOCK_FLOATS) for m, k in ((9, 1), (9, 4), (9, 9), (24, 6))],
)
def test_scan_groups_enumerate_every_support_once(monkeypatch, m, k, block_floats):
    # the block size also bounds the tail table, down to one-entry tails
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", block_floats)
    tails, groups = kernels._scan_groups(m, k)
    r = tails.shape[1]
    assert r == 1 or len(tails) * r <= block_floats
    seen = []
    chunks = {}
    for heads, lo in groups:
        assert heads.shape[1] == k - r
        n = len(tails) - lo
        # the screen's heads x tails arrays, and the chunk's row sums over
        # range(m), fit the block size
        assert len(heads) == 1 or len(heads) * max(m, n) <= block_floats
        if k > r:
            # one last head entry per group, and exactly the tails after it
            last = heads[0, -1]
            assert np.all(heads[:, -1] == last) and np.all(tails[lo:, 0] > last)
            assert lo == 0 or tails[lo - 1, 0] <= last
        chunks[lo] = chunks.get(lo, 0) + 1
        seen += [tuple(h) + tuple(t) for h in heads.tolist() for t in tails[lo:].tolist()]
    assert sorted(seen) == list(itertools.combinations(range(m), k))
    if block_floats == 2000:
        # a group's heads outgrow one chunk
        assert max(chunks.values()) > 1


def test_scan_chunks_are_sized_by_the_screen():
    # SCAN_BLOCK_FLOATS // max(m, n) heads a chunk, at the default block
    # size: the certify_wide shape and the compressive delta_4 shape
    assert len(kernels._scan_groups(24, 6)[1]) == 19
    tails, groups = kernels._scan_groups(128, 4)
    assert len(groups) == 402
    assert sum(len(heads) * (len(tails) - lo) for heads, lo in groups) == math.comb(128, 4)


def test_scan_plan_is_built_once_per_shape_and_block_size(monkeypatch):
    plan = kernels._scan_groups(24, 6)
    assert kernels._scan_groups(24, 6) is plan
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", 2000)
    small = kernels._scan_groups(24, 6)
    assert small is not plan and kernels._scan_groups(24, 6) is small
    assert len(small[1]) > len(plan[1])
    for tails, groups in (plan, small):
        r = tails.shape[1]
        arrays = [tails, kernels._tail_ranks(24, r)] + [heads for heads, _ in groups]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1


def test_second_scan_of_a_shape_builds_no_subset_table(monkeypatch):
    calls = []
    subsets = kernels._subsets

    def spy(m, r):
        calls.append((m, r))
        return subsets(m, r)

    monkeypatch.setattr(kernels, "_subsets", spy)
    kernels._scan_plan.cache_clear()
    rip_constant_exact(gen_gaussian_matrix(512, 24, 2), 6)
    assert calls
    calls.clear()
    rip_constant_exact(gen_gaussian_matrix(512, 24, 3), 6)
    assert calls == []


def test_scans_share_no_state_but_the_plan():
    # A, then B of the same shape, then A again: A's reports are equal
    A, B = gen_gaussian_matrix(512, 24, 4), gen_gaussian_matrix(512, 24, 5)
    first = rip_constant_exact(A, 6)
    other = rip_constant_exact(B, 6)
    again = rip_constant_exact(A, 6)
    assert again == first
    assert other.delta != first.delta


def test_exact_constant_budget_refusal():
    A = gen_gaussian_matrix(8, 30, 6)
    with pytest.raises(BudgetError) as info:
        rip_constant_exact(A, 15, budget=1000)
    assert "bounds" in str(info.value)
    with pytest.raises(DomainError):
        rip_constant_exact(A, 0)
    with pytest.raises(DomainError):
        rip_constant_exact(A, 31)


def test_rip_sandwich_and_tightness():
    # (1-d)||x||^2 <= ||Ax||^2 <= (1+d)||x||^2 on random sparse vectors, and
    # some support attains the constant
    rng = np.random.Generator(np.random.Philox(42))
    A = gen_gaussian_matrix(5, 8, 7)
    for s in (1, 2, 3):
        delta = rip_constant_exact(A, s).delta
        for _ in range(200):
            support = rng.choice(8, size=s, replace=False)
            x = np.zeros(8)
            x[support] = rng.normal(size=s)
            nx2 = float(x @ x)
            nax2 = float(np.sum((A @ x) ** 2))
            assert (1.0 - delta) * nx2 - 1e-10 <= nax2 <= (1.0 + delta) * nx2 + 1e-10
        # tightness: scan supports for the extremal eigenpair
        attained = 0.0
        best_vec = None
        best_support = None
        for support in itertools.combinations(range(8), s):
            sub = A[:, support]
            evals, evecs = np.linalg.eigh(sub.T @ sub)
            for idx in (0, -1):
                dev = abs(evals[idx] - 1.0)
                if dev > attained:
                    attained = dev
                    best_vec = evecs[:, idx]
                    best_support = support
        assert abs(attained - delta) <= 1e-10
        x = np.zeros(8)
        x[list(best_support)] = best_vec
        assert abs(abs(float(np.sum((A @ x) ** 2)) - 1.0) - delta) <= 1e-10


# --- sampled and Gershgorin bounds --------------------------------------------


def test_bounds_on_orthonormal_columns():
    lower, upper = rip_constant_bounds(np.eye(4), 2, samples=50, seed=1)
    assert lower.delta == 0.0
    assert upper.delta == 0.0
    assert lower.method == METHOD_MC_LOWER
    assert upper.method == METHOD_GERSHGORIN_UPPER
    assert lower.supports_examined == 50
    # every sampled support ties at deviation 0
    assert lower.supports_solved == 50
    assert upper.supports_solved == 0


def test_bounds_bracket_the_exact_constant():
    # the raw matrix's columns are not unit-norm; the upper bound needs none
    for A in (gaussian_unit_columns(6, 12, 43), gen_gaussian_matrix(6, 12, 45)):
        for s in (1, 2, 3):
            exact = rip_constant_exact(A, s).delta
            lower, upper = rip_constant_bounds(A, s, samples=2000, seed=9)
            assert lower.delta <= exact <= upper.delta


def test_lower_bound_is_nondecreasing_in_samples():
    A = gaussian_unit_columns(6, 12, 44)
    small = rip_constant_bounds(A, 3, samples=1, seed=3)[0].delta
    big = rip_constant_bounds(A, 3, samples=10_000, seed=3)[0].delta
    assert small <= big


def test_sampled_lower_bound_is_independent_of_the_block_size(monkeypatch):
    A = gen_gaussian_matrix(6, 12, 52)
    lower = rip_constant_bounds(A, 3, samples=1000, seed=4)[0]
    # one-shot draw of every key: the stream the blocked draws must consume
    keys = np.random.Generator(np.random.Philox(4)).random((1000, 12))
    G = A.T @ A
    expected = 0.0
    for support in np.sort(np.argsort(keys, axis=1)[:, :3], axis=1):
        ev = np.linalg.eigvalsh(G[np.ix_(support, support)])
        expected = max(expected, ev[-1] - 1.0, 1.0 - ev[0])
    assert lower.delta == expected
    # 40 floats: 3 rows of 12 keys per block, so 334 blocks
    monkeypatch.setattr(kernels, "SCAN_BLOCK_FLOATS", 40)
    small = rip_constant_bounds(A, 3, samples=1000, seed=4)[0]
    assert small.delta == lower.delta
    assert small.supports_examined == lower.supports_examined == 1000
    assert 1 <= small.supports_solved <= 1000


def test_bounds_validation():
    with pytest.raises(DomainError):
        rip_constant_bounds(np.eye(3), 1, samples=0, seed=0)
    with pytest.raises(DomainError):
        rip_constant_bounds(np.eye(3), 4, samples=1, seed=0)
    with pytest.raises(ShapeError):
        rip_constant_bounds(np.ones(3), 1, samples=1, seed=0)


# --- disjoint-support inner products ------------------------------------------


def test_margin_trivial_cases():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    assert disjoint_inner_product_margin(np.eye(4), e1, e2, 0.0) == 0.0
    assert disjoint_inner_product_margin(np.eye(4), np.zeros(4), e2, 0.3) == 0.0


def test_margin_rejects_overlap_and_bad_delta():
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        disjoint_inner_product_margin(np.eye(3), x, x, 0.5)
    with pytest.raises(DomainError):
        disjoint_inner_product_margin(np.eye(3), x, np.array([0.0, 1.0, 0.0]), -0.1)
    with pytest.raises(ShapeError):
        disjoint_inner_product_margin(np.eye(3), np.zeros(2), np.zeros(3), 0.5)


def test_margin_nonnegative_for_all_singleton_pairs():
    A = gen_gaussian_matrix(5, 10, 46)
    delta2 = rip_constant_exact(A, 2).delta
    rng = np.random.Generator(np.random.Philox(47))
    worst = np.inf
    for i in range(10):
        for j in range(10):
            if i == j:
                continue
            x = np.zeros(10)
            xp = np.zeros(10)
            x[i] = rng.normal()
            xp[j] = rng.normal()
            worst = min(worst, disjoint_inner_product_margin(A, x, xp, delta2))
    assert worst >= 0.0


def test_margin_nonnegative_for_enumerated_multi_sparse_pairs():
    A = gen_gaussian_matrix(5, 9, 48)
    deltas = {o: rip_constant_exact(A, o).delta for o in (2, 3, 4)}
    rng = np.random.Generator(np.random.Philox(49))
    worst = np.inf
    for s1, s2 in ((1, 1), (1, 2), (2, 2), (1, 3)):
        for S1 in itertools.combinations(range(9), s1):
            rest = [j for j in range(9) if j not in S1]
            for S2 in itertools.combinations(rest, s2):
                x = np.zeros(9)
                xp = np.zeros(9)
                x[list(S1)] = rng.standard_normal(s1)
                xp[list(S2)] = rng.standard_normal(s2)
                worst = min(worst, disjoint_inner_product_margin(A, x, xp, deltas[s1 + s2]))
    assert worst >= -1e-10
