"""Time kernels.rk4_flow_jacobian on fixed shapes and measure its accuracy.

Run from the repository root as tools/treebench.py describes.  Each tree's
sparseobs/kernels.py is loaded on its own (the module imports nothing from
the package), so all trees run in this one process, their calls alternating,
on the same inputs.  Some shapes start from rest, X0 = 0, as the settle
climb and recovery's first flow do.  Every shape is timed as the median of
CALLS calls after one warm-up call; the quartiles are recorded too.  The
error of a shape is max|P - P_ref| against the same RK4 variational
recursion run in long double from the same inputs (recorded as null where
long double is no wider than double).  Results go to
BENCH_flow_jacobian.json.  The test suite imports reference_sensitivity from
here, so its accuracy gate and the recorded errors share one reference.
"""

import treebench

if __name__ == "__main__":
    treebench.one_blas_thread()

import importlib.util
import time
from pathlib import Path

import numpy as np

T = 0.8
CALLS = 15
# the right-hand-side codes of kernels.RHS_ZERO, RHS_LINEAR, RHS_AFFINE and
# RHS_TANH; the kernels are loaded per tree, so the codes are restated here
ZERO, LINEAR, AFFINE, TANH = 0, 1, 2, 3
# (case, kind code, m, rows or None for one 1-d state, steps, from rest: X0 = 0)
SHAPES = (
    ("tanh m=12 1-d 256 steps (demo_tanh recovery)", TANH, 12, None, 256, False),
    ("tanh m=6 15 rows 16 steps", TANH, 6, 15, 16, False),
    ("linear m=24 1-d 256 steps", LINEAR, 24, None, 256, False),
    ("tanh m=12 66 rows 256 steps (oracle pairs at m=12)", TANH, 12, 66, 256, False),
    ("tanh m=128 1-d 256 steps", TANH, 128, None, 256, False),
    # the demo's settle climb at x = 0, one row per count
    ("tanh m=12 1 row 8 steps from rest (settle climb)", TANH, 12, 1, 8, True),
    ("tanh m=12 1 row 16 steps from rest (settle climb)", TANH, 12, 1, 16, True),
    ("tanh m=12 1 row 32 steps from rest (settle climb)", TANH, 12, 1, 32, True),
    ("tanh m=12 1 row 64 steps from rest (settle climb)", TANH, 12, 1, 64, True),
    ("tanh m=12 1-d 32 steps from rest (recovery flow0)", TANH, 12, None, 32, True),
    ("linear m=24 1-d 256 steps from rest", LINEAR, 24, None, 256, True),
)


def load_kernels(label, src):
    path = Path(src).resolve() / "sparseobs" / "kernels.py"
    spec = importlib.util.spec_from_file_location(f"kernels_{label}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs(m, rows, rest, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    M = rng.normal(size=(m, m))
    M /= np.linalg.norm(M, 2)
    c = rng.normal(size=m)
    X0 = rng.normal(size=(m,) if rows is None else (rows, m)) * 0.5
    return np.ascontiguousarray(M), c, np.zeros_like(X0) if rest else X0


def reference_sensitivity(kind, M, c, X0, T, n_steps):
    """The RK4 recursion of the state and the variational system, in long
    double: K_i = J(x_i) (P + a_i h K_{i-1}) alongside the state stages.  X0
    is one state (m,) or rows (k, m), as for kernels.rk4_flow_jacobian."""
    L = np.longdouble
    M, c, X = M.astype(L), c.astype(L), X0.astype(L)
    m = M.shape[0]
    h = L(T) / L(n_steps)
    P = np.broadcast_to(np.eye(m, dtype=L), X.shape + (m,)).copy()

    def stage(X, P):
        if kind == ZERO:
            return 0 * X, 0 * P
        F = X @ M.T
        if kind == AFFINE:
            F = F + c
        MP = np.matmul(M, P)
        if kind == TANH:
            F = np.tanh(F)
            MP = (1 - F * F)[..., None] * MP
        return F, MP

    for _ in range(n_steps):
        k1, K1 = stage(X, P)
        k2, K2 = stage(X + h / 2 * k1, P + h / 2 * K1)
        k3, K3 = stage(X + h / 2 * k2, P + h / 2 * K2)
        k4, K4 = stage(X + h * k3, P + h * K3)
        X = X + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        P = P + h / 6 * (K1 + 2 * K2 + 2 * K3 + K4)
    return P


def run(trees):
    kernels = {label: load_kernels(label, src) for label, src in trees.items()}
    wide = np.finfo(np.longdouble).eps < np.finfo(float).eps

    results = {label: [] for label in kernels}
    for case, kind, m, rows, steps, rest in SHAPES:
        M, c, X0 = inputs(m, rows, rest)
        P_ref = reference_sensitivity(kind, M, c, X0, T, steps) if wide else None
        samples = {label: [] for label in kernels}
        for k in kernels.values():
            k.rk4_flow_jacobian(kind, M, c, X0, T, steps)
        for _ in range(CALLS):
            for label, k in kernels.items():
                t0 = time.perf_counter()
                k.rk4_flow_jacobian(kind, M, c, X0, T, steps)
                samples[label].append(time.perf_counter() - t0)
        for label, k in kernels.items():
            P = k.rk4_flow_jacobian(kind, M, c, X0, T, steps)[1]
            err = None if P_ref is None else float(np.abs(P - P_ref).max())
            row = {"case": case, "m": m, "rows": rows or 1, "steps": steps}
            row.update(treebench.quartiles(samples[label]), max_abs_error_vs_longdouble=err)
            results[label].append(row)
            print(f"{label:>8}  {case:<56} {row['median_ms']:9.3f} ms  err {err}")

    doc = {
        "kernel": "kernels.rk4_flow_jacobian",
        "T": T,
        "calls_per_shape": CALLS,
        "results": results,
    }
    treebench.parent_over_change(
        doc, "speedup_parent_over_change", lambda rows: {r["case"]: r["median_ms"] for r in rows}
    )
    treebench.write("flow_jacobian", doc)


if __name__ == "__main__":
    treebench.main(__doc__, run)
