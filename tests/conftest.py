"""Shared fixtures and helpers for the test suite.

The session-scoped warmup exercises every kernel once, so tests that assert
wall-clock budgets never pay first-call costs (lazy imports, BLAS start-up)
inside the timed region.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def normalized_columns(A):
    return A / np.linalg.norm(A, axis=0)


def gaussian_unit_columns(n, m, seed):
    return normalized_columns(gen_gaussian_matrix(n, m, seed))


def tool_module(name):
    """tools/<name>.py, loaded as a module, for tests that reuse a bench
    script's reference code or inputs."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
