"""Time kernels.rk4_flow_jacobian on fixed shapes and measure its accuracy.

Run from the repository root as tools/treebench.py describes, one shape at
a time: each round calls the shape once on each tree, on the same inputs.
Some shapes start from rest, X0 = 0, as the settle climb and recovery's
first flow do.  Every shape is timed as the median of CALLS rounds after one
warm-up round; the quartiles are recorded too.  The error of a shape is max|P - P_ref| against
the same RK4 variational recursion run in long double from the same inputs
(recorded as null where long double is no wider than double).  Results go
to BENCH_flow_jacobian.json.  The test suite imports reference_sensitivity
from here, so its accuracy gate and the recorded errors share one reference.
"""

import treebench

if __name__ == "__main__":
    treebench.one_blas_thread()

import time

import numpy as np

T = 0.8
CALLS = 15
# this checkout's kernels.RHS_LINEAR and RHS_TANH, restated for
# reference_sensitivity because this module loads before any package is on
# sys.path; each tree takes its own codes from DynamicalSystem.kernel_args
LINEAR, TANH = 1, 2
# (case, catalog kind, m, rows or None for one 1-d state, steps, from rest: X0 = 0)
SHAPES = (
    # the demo's line search flows one row at the settled count, 32 steps on
    # 16 of its 24 trials (16 on 3, 64 on 5)
    ("tanh m=12 1 row 32 steps (demo_tanh line search)", "tanh_saturated", 12, 1, 32, False),
    ("tanh m=12 1-d 256 steps (the fixed(256) default)", "tanh_saturated", 12, None, 256, False),
    ("tanh m=6 15 rows 16 steps", "tanh_saturated", 6, 15, 16, False),
    ("linear m=24 1-d 256 steps", "linear", 24, None, 256, False),
    ("affine m=12 1-d 256 steps", "affine", 12, None, 256, False),
    # the oracle's line-search shape on oracle_agreement; on its zero and
    # linear instances recover._flow_rows maps the rows by the flow at 0
    ("linear m=6 15 rows 16 steps (oracle line search)", "linear", 6, 15, 16, False),
    ("tanh m=12 66 rows 256 steps (oracle pairs at m=12)", "tanh_saturated", 12, 66, 256, False),
    ("tanh m=128 1-d 256 steps", "tanh_saturated", 128, None, 256, False),
    # the demo's settle climb at x = 0, one row per count
    ("tanh m=12 1 row 8 steps from rest (settle climb)", "tanh_saturated", 12, 1, 8, True),
    ("tanh m=12 1 row 16 steps from rest (settle climb)", "tanh_saturated", 12, 1, 16, True),
    ("tanh m=12 1 row 32 steps from rest (settle climb)", "tanh_saturated", 12, 1, 32, True),
    ("tanh m=12 1 row 64 steps from rest (settle climb)", "tanh_saturated", 12, 1, 64, True),
    ("tanh m=12 1-d 32 steps from rest (recovery flow0)", "tanh_saturated", 12, None, 32, True),
    ("linear m=24 1-d 256 steps from rest", "linear", 24, None, 256, True),
    # certify_wide's settle climb at x = 0 spans two blocks at 16 steps
    (
        "linear m=24 1 row 16 steps from rest (certify_wide settle climb)",
        "linear", 24, 1, 16, True,
    ),
    (
        "tanh m=6 1-d 16 steps from rest (oracle_agreement flow at 0)",
        "tanh_saturated", 6, None, 16, True,
    ),
)


def inputs(kind, m, rows, rest, seed=0):
    """M, c and X0 of a shape: c = 0 except under the affine field, as
    DynamicalSystem.kernel_args gives it."""
    rng = np.random.Generator(np.random.Philox(seed))
    M = rng.normal(size=(m, m))
    M /= np.linalg.norm(M, 2)
    c = rng.normal(size=m)
    X0 = rng.normal(size=(m,) if rows is None else (rows, m)) * 0.5
    if kind != "affine":
        c = np.zeros(m)
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
        F = X @ M.T + c
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


def kernel_args(package, kind, M, c):
    """The package's (kind code, M, c) of the catalog field kind."""
    drift = c if kind == "affine" else None
    return package.DynamicalSystem(dim=len(c), kind=kind, matrix=M, drift=drift).kernel_args()


def timed(package, item):
    kind, M, c, X0, steps = item
    args = (*kernel_args(package, kind, M, c), X0, T, steps)
    t0 = time.perf_counter()
    package.kernels.rk4_flow_jacobian(*args)
    return time.perf_counter() - t0


def run(trees):
    wide = np.finfo(np.longdouble).eps < np.finfo(float).eps

    results = {label: [] for label in trees}
    for case, kind, m, rows, steps, rest in SHAPES:
        M, c, X0 = inputs(kind, m, rows, rest)
        code = TANH if kind == "tanh_saturated" else LINEAR
        P_ref = reference_sensitivity(code, M, c, X0, T, steps) if wide else None
        item = (kind, M, c, X0, steps)
        # one shape's calls run back to back; round 0 is each tree's warm-up
        runs = treebench.rounds(trees, 1 + CALLS, [item], timed)
        for label, package in trees.items():
            args = (*kernel_args(package, kind, M, c), X0, T, steps)
            P = package.kernels.rk4_flow_jacobian(*args)[1]
            err = None if P_ref is None else float(np.abs(P - P_ref).max())
            row = {"case": case, "m": m, "rows": rows or 1, "steps": steps}
            samples = [r[0] for r in runs[label][1:]]
            row.update(treebench.quartiles(samples), max_abs_error_vs_longdouble=err)
            results[label].append(row)
            print(f"{label:>8}  {case:<60} {row['median_ms']:9.3f} ms  err {err}")

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
