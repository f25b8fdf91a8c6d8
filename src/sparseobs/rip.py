"""Restricted-isometry constants (exact by support enumeration, or sampled
lower / coherence upper bounds), the operator 2-norm, and the
disjoint-support inner-product margin.

The exact constant for sparsity s is the largest deviation from 1 of any
eigenvalue of an s x s principal submatrix G_S of G = A^T A.  The scan over
all C(m, s) supports runs in kernels.rip_scan, in blocks.  The deviation of S
is max|lambda_i(G_S - I)|, which is at most beta_S = ||(G_S - I)^2||_F^(1/2),
one small matmul per support.  A support whose beta_S lies below the running
maximum by more than a rounding margin (a few k^3 eps max(1, max_i G_ii),
see kernels.max_deviation) cannot raise it, so its eigenvalue problem is
skipped; the constant equals the unscreened maximum bit for bit.  Reports
count the supports covered and, separately, those eigensolved.
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
from .model import json_float

METHOD_EXACT = "exact"
METHOD_MC_LOWER = "monte-carlo-lower"
METHOD_COHERENCE_UPPER = "coherence-upper"

DEFAULT_SUPPORT_BUDGET = 2_000_000

# columns must be unit-norm to this tolerance for the coherence bound to apply
_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class RipReport:
    """A restricted-isometry estimate: the sparsity level, the constant (or
    bound), how it was obtained, how many supports it covers, and how many of
    those were eigensolved (the rest were ruled out by a spectral bound)."""

    sparsity: int
    delta: float
    method: str
    supports_examined: int
    supports_solved: int

    def to_dict(self):
        return {
            "sparsity": self.sparsity,
            "delta": json_float(self.delta),
            "method": self.method,
            "supports_examined": self.supports_examined,
            "supports_solved": self.supports_solved,
        }


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
            "use rip_constant_bounds for sampled and coherence estimates"
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


def mutual_coherence(A) -> float:
    """Largest |cosine| between distinct columns of A."""
    A = check_matrix(A, "A")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise DomainError("mutual coherence is undefined for a zero column")
    An = A / norms
    C = np.abs(An.T @ An)
    np.fill_diagonal(C, 0.0)
    return float(C.max())


def rip_constant_bounds(A, s: int, samples: int, seed: int):
    """(lower, upper) bracketing reports for the order-s constant.

    The lower bound is the largest deviation over `samples` uniformly drawn
    supports (counter-based generator, so the estimate is reproducible and
    nondecreasing in samples for a fixed seed).  The upper bound is the
    coherence bound (s - 1) * mu, valid only for unit-norm columns; otherwise
    it reports inf.
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

    norms = np.sqrt(np.diag(G))
    if np.max(np.abs(norms - 1.0)) <= _UNIT_NORM_TOL:
        upper = float((s - 1) * mutual_coherence(A))
    else:
        upper = float("inf")
    upper_report = RipReport(
        sparsity=s,
        delta=upper,
        method=METHOD_COHERENCE_UPPER,
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
