"""Shared fixtures and helpers for the test suite.

The session-scoped warmup exercises every kernel once, so tests that assert
wall-clock budgets never pay first-call costs (lazy imports, BLAS start-up)
inside the timed region.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from sparseobs import kernels
from sparseobs.harness import gen_gaussian_matrix
from sparseobs.model import DynamicalSystem
from sparseobs.ode import IntegrationConfig, flow_with_jacobian, integrate
from sparseobs.recover import solve_weighted_bpdn
from sparseobs.rip import operator_norm, rip_constant_exact


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    tiny = DynamicalSystem.tanh_saturated([[0.3, 0.1], [0.0, 0.2]])
    cfg = IntegrationConfig.fixed(4)
    integrate(tiny, [0.1, -0.2], 0.5, cfg)
    flow_with_jacobian(tiny, [0.1, -0.2], 0.5, cfg)
    rip_constant_exact(np.eye(3), 2)
    Phi = np.array([[1.0, 0.2, 0.1], [0.0, 1.0, 0.3]])
    b = np.array([1.0, 0.5])
    solve_weighted_bpdn(Phi, np.zeros(2), b, np.ones(3), 0.0)
    solve_weighted_bpdn(Phi, np.zeros(2), b, np.ones(3), 0.1)


def unit_spectral_matrix(dim, seed):
    """Seeded dense matrix rescaled to operator norm 1, the shared coupling
    matrix for the catalog systems in the property tests."""
    rng = np.random.Generator(np.random.Philox(seed))
    M = rng.normal(size=(dim, dim))
    return M / operator_norm(M)


def catalog_systems(dim, seed):
    """One instance of each right-hand-side kind on a shared matrix."""
    M = unit_spectral_matrix(dim, seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    drift = rng.normal(size=dim)
    return [
        DynamicalSystem.zero(dim),
        DynamicalSystem.linear(M.tolist()),
        DynamicalSystem.affine(M.tolist(), drift.tolist()),
        DynamicalSystem.tanh_saturated(M.tolist()),
    ]


def field(kind, MT, c, X):
    """The catalog's right-hand side f(X) = X M^T + c, or tanh(X M^T), of one
    state or rows X on DynamicalSystem.kernel_args() (kind, M, c), with MT =
    M.T, into a fresh array."""
    F = X @ MT
    return np.tanh(F) if kind == kernels.RHS_TANH else F + c


def support_deviations(G, supports):
    """The largest deviation from 1 of any eigenvalue of G[S, S], for each
    row S of supports, each submatrix eigensolved on its own."""
    ev = np.linalg.eigvalsh(G[supports[:, :, None], supports[:, None, :]])
    return np.maximum(ev[:, -1] - 1.0, 1.0 - ev[:, 0])


def per_support_delta(A, s):
    """The unscreened constant: the largest deviation over every support of
    size s, a batch of supports at a time."""
    G = A.T @ A
    supports = itertools.combinations(range(A.shape[1]), s)
    delta = 0.0
    while batch := list(itertools.islice(supports, 4096)):
        delta = max(delta, float(support_deviations(G, np.array(batch)).max()))
    return delta


def normalized_columns(A):
    return A / np.linalg.norm(A, axis=0)


def gaussian_unit_columns(n, m, seed):
    return normalized_columns(gen_gaussian_matrix(n, m, seed))


def tool_module(name):
    """tools/<name>.py, loaded as a module, for tests that reuse a bench
    script's reference code or inputs.  tools/ goes on sys.path, as it does
    for a script run from the command line, so the tool finds treebench."""
    tools = Path(__file__).resolve().parent.parent / "tools"
    if str(tools) not in sys.path:
        sys.path.append(str(tools))
    spec = importlib.util.spec_from_file_location(name, tools / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
