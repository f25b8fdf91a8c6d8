"""Restricted-isometry constants (exact by support enumeration, or a sampled
lower and a Gershgorin upper bound), the operator 2-norm, and the
disjoint-support inner-product margin.

The exact constant for sparsity s is the largest deviation from 1 of any
eigenvalue of an s x s principal submatrix G_S of G = A^T A.  The scan over
all C(m, s) supports runs in kernels.rip_scan.  The deviation of S is
max|lambda_i(B_S)| with B_S = G_S - I, and three tiers, each run only on the
supports the one before could not rule out, find the largest:
- a block test: the scan splits S into a head H and a tail T, and
  lambda_max(B_S) is at most lambda_max([[a, c], [c, b]]), with a and b
  upper bounds on the largest eigenvalues of B_H and B_T and c the Frobenius
  norm of the block that couples them (likewise for -lambda_min(B_S)).  a
  and b are closed forms for blocks of up to 3 columns (the eigenvalues
  themselves for 1 and 2, nested 2 x 2 bounds for 3) and eigvalsh's beyond.
  c^2 comes from the row sums of G o G over each tail, so the test runs for
  a whole chunk of heads and the tails after them at once without gathering
  any support.  The tails' bounds and the row-sum table (built when heads
  have two columns or more) depend on G and are formed once per scan; the
  table of tails, the chunks of heads and the heads' rank table depend only
  on (m, s) and the block size, and are built once per process.  A chunk
  holds kernels.SCAN_BLOCK_FLOATS // max(m, n) heads (at least one) for a
  group of n tails, so the test's heads x tails arrays fit the block size;
- beta_S = ||B_S^2||_F^(1/2), one small matmul per gathered support;
- eigvalsh.
A support whose bound lies below the running maximum by more than a rounding
margin (a few s^3 eps max(1, max_i G_ii), see kernels.rip_scan and
kernels.max_deviation) cannot raise it and goes no further.  Before a scan
of more than one block the maximum starts at the deviation of a greedily
grown support: grown from the tail with the best bound on each side when the
scan has heads, and from no column where the scan's table of tails is every
support, so there is no head and every support is gathered.  A scan of one
block starts at beta_S, as the sampled lower bound does.  The constant equals
the unscreened maximum bit for bit.  Reports count the supports covered and,
separately, those eigensolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BudgetError,
    DomainError,
    ShapeError,
    check_count,
    check_matrix,
    check_real,
)

METHOD_EXACT = "exact"
METHOD_MC_LOWER = "monte-carlo-lower"
METHOD_GERSHGORIN_UPPER = "gershgorin-upper"

DEFAULT_SUPPORT_BUDGET = 2_000_000


@dataclass(frozen=True)
class RipReport:
    """A restricted-isometry estimate: the sparsity level, the constant (or
    bound), how it was obtained, how many supports it covers, and how many of
    those were eigensolved (the rest were ruled out by a spectral bound; the
    exact scan's greedy seed is not counted)."""

    sparsity: int
    delta: float
    method: str
    supports_examined: int
    supports_solved: int


def operator_norm(A) -> float:
    """Largest singular value of A."""
    return float(np.linalg.norm(check_matrix(A, "A"), 2))


def rip_constant_exact(A, s: int, budget: int = DEFAULT_SUPPORT_BUDGET) -> RipReport:
    """The exact restricted-isometry constant of order s by enumerating all
    C(m, s) supports.  Refuses with BudgetError when the enumeration would
    exceed budget; use rip_constant_bounds instead at that point."""
    A = check_matrix(A, "A")
    s = check_count(s, "sparsity", 1, A.shape[1])
    budget = check_count(budget, "budget")
    count = math.comb(A.shape[1], s)
    if count > budget:
        raise BudgetError(
            f"enumerating {count} supports exceeds the budget of {budget}; "
            "use rip_constant_bounds for a sampled lower and a Gershgorin upper bound"
        )
    G = np.ascontiguousarray(A.T @ A)
    delta, solved = kernels.rip_scan(G, s)
    return RipReport(
        sparsity=s,
        delta=float(delta),
        method=METHOD_EXACT,
        supports_examined=count,
        supports_solved=solved,
    )


def rip_constant_bounds(A, s: int, samples: int, seed: int):
    """(lower, upper) bracketing reports for the order-s constant.

    The lower bound is the largest deviation over `samples` uniformly drawn
    supports (counter-based generator, so the estimate is reproducible and
    nondecreasing in samples for a fixed seed).  The upper bound is
    Gershgorin's theorem on every G_S - I, which holds for any matrix:
    max_j |G_jj - 1| + (s - 1) * max_{i != j} |G_ij|.
    """
    A = check_matrix(A, "A")
    m = A.shape[1]
    s = check_count(s, "sparsity", 1, m)
    samples = check_count(samples, "samples")

    G = A.T @ A
    rng = np.random.Generator(np.random.Philox(check_count(seed, "seed", 0)))
    # the keys of a block and its Gram submatrices stay within the scan's
    # block size; the stream is drawn in the same order whatever the size
    rows = max(1, kernels.SCAN_BLOCK_FLOATS // max(m, s * s))
    lower = 0.0
    solved = 0
    done = 0
    while done < samples:
        chunk = min(samples - done, rows)
        # the s smallest keys of a row are the first s entries of a random
        # permutation of its index set
        keys = rng.random((chunk, m))
        supports = np.argpartition(keys, s - 1, axis=1)[:, :s]
        supports = np.ascontiguousarray(np.sort(supports, axis=1))
        lower, n = kernels.max_deviation(G, supports, lower)
        solved += n
        done += chunk
    lower_report = RipReport(
        sparsity=s,
        delta=float(lower),
        method=METHOD_MC_LOWER,
        supports_examined=samples,
        supports_solved=solved,
    )

    off = np.abs(G)
    np.fill_diagonal(off, 0.0)
    upper = np.max(np.abs(np.diag(G) - 1.0)) + (s - 1) * np.max(off)
    upper_report = RipReport(
        sparsity=s,
        delta=float(upper),
        method=METHOD_GERSHGORIN_UPPER,
        supports_examined=0,
        supports_solved=0,
    )
    return lower_report, upper_report


def disjoint_inner_product_margin(A, x, x_prime, delta: float) -> float:
    """delta * ||x|| * ||x'|| - |<Ax, Ax'>| for vectors with disjoint supports.

    Nonnegative whenever delta is a valid restricted-isometry constant of
    order ||x||_0 + ||x'||_0 for A.
    """
    A = check_matrix(A, "A")
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    m = A.shape[1]
    if x.shape != (m,) or xp.shape != (m,):
        raise ShapeError(f"x and x_prime must have shape ({m},), got {x.shape} and {xp.shape}")
    if np.any((x != 0) & (xp != 0)):
        raise DomainError("x and x_prime must have disjoint supports")
    delta = check_real(delta, "delta")
    inner = float((A @ x) @ (A @ xp))
    return delta * float(np.linalg.norm(x)) * float(np.linalg.norm(xp)) - abs(inner)
