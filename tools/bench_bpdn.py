"""Time recover.solve_weighted_bpdn on fixed shapes, at eps = 0 and eps > 0,
and count the ADMM work of one solve; then solve two seeded scans of eps > 0
instances once and count how many land in the residual band and how many
are certified.

Run from the repository root as tools/treebench.py describes.  Each tree
solves every shape ROUNDS rounds, each time once counted and then CALLS
times timed.

Per shape the file records the median and quartiles of the call time and,
for one solve, the iterations of kernels.admm_basis_pursuit, the calls of
kernels.admm_lasso and their summed iterations, the pivots of the lasso
path's tableau (recover._sweep calls: one per join or drop, none at eps =
0), the residual ||Phi x - y|| minus eps, the SHA-256 of the estimate's
bytes (equal digests across trees mean identical results), and at eps = 0
max|x - x_ref|, where x_ref is the program's solution: the least-squares
point when Phi has full column rank (it is the only feasible point), and the
planted sparse vector for the underdetermined shapes, which l1 recovers.

Each scan (SCANS) is solved once per tree, instance by instance, after the
timing rounds.  A solve is in band when its residual lies in [eps, eps +
band], band = min(residual_match_tol, 1e-9 max(1, ||y||)) as the tree's
recover._residual_band computes it, and certified
when it is in band and the weighted lasso's KKT conditions hold at 1e-6
relative at lam = the median of |Phi^T r|_j / w_j over its support.  Per
scan and tree the file records both counts, the admm_lasso calls and their
summed iterations, the path's pivots, the wall time of the scan, and the
instances lost: those that the first tree lands in band or certifies and
this tree does not.  With trees labelled parent and change it also records
the instances certified by one tree only and the largest relative difference
max|x_change - x_parent| / max|x_parent| between the two trees' estimates,
over all instances and over those both trees certify.  Results go to
BENCH_bpdn.json.  The script exits with status 1 when any tree loses an
instance.
"""

import treebench

if __name__ == "__main__":
    treebench.one_blas_thread()

import hashlib
import json
import math
import sys
import time

import numpy as np

ROUNDS = 5
CALLS = 5
SHAPES = (
    "tanh 7x6, first linearization of a criterion-7 s=2 instance (R P of 512x6)",
    "linear 25x24, the one linearization of a dim-24 linear flow (R P of 512x24)",
    "gaussian 6x12 underdetermined, 1-sparse",
    "gaussian 96x128 underdetermined, 8-sparse",
    "tanh 13x12, eps = 1e-3, first linearization of configs/demo.json trial 0 (R P of 512x12)",
    "gaussian 48x64 underdetermined, 4-sparse, eps = 1e-2, weights from U(1, 2)",
)
SCANS = {
    "random": (
        600,
        "n, m from [4, 80); instance k % 4 == 1 has correlated columns, k % 4 == 3 "
        "has Phi scaled by 10^U(-3, 3); s = max(1, min(n, m) // 4); weights from "
        "U(1, 2); eps / ||y0|| from 10^U(-6, -1); noise of norm eps / 2",
    ),
    "near_square": (
        400,
        "m from [40, 60], n from {m - 2, m - 1, m}, s from [1, n); unit weights; "
        "eps / ||y0|| from 10^U(-6.5, -4); noise of norm eps / 2",
    ),
}


def planted(m, s, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    x0 = np.zeros(m)
    x0[rng.choice(m, size=s, replace=False)] = rng.uniform(0.5, 1.5, s) * rng.choice([-1, 1], s)
    return x0


def unit_spectral(m, seed):
    M = np.random.Generator(np.random.Philox(seed)).normal(size=(m, m))
    return M / np.linalg.norm(M, 2)


def scan_instance(scan, k):
    """(Phi, y, weights, eps) of instance k of a scan, keyed by the scan's
    name and k."""
    from sparseobs import harness

    rng = np.random.Generator(np.random.Philox([k, list(SCANS).index(scan)]))
    if scan == "random":
        n, m = (int(v) for v in rng.integers(4, 80, size=2))
        Phi = harness.gen_gaussian_matrix(n, m, 1000 + k)
        if k % 4 == 1:
            # each column mixes in its predecessor: neighbours correlate at 0.9
            for j in range(1, m):
                Phi[:, j] = 0.9 * Phi[:, j - 1] + math.sqrt(0.19) * Phi[:, j]
        elif k % 4 == 3:
            Phi *= 10.0 ** rng.uniform(-3.0, 3.0)
        s = max(1, min(n, m) // 4)
        weights = rng.uniform(1.0, 2.0, m)
        log_eps = rng.uniform(-6.0, -1.0)
    else:
        m = int(rng.integers(40, 61))
        n = m - int(rng.integers(0, 3))
        Phi = harness.gen_gaussian_matrix(n, m, 2000 + k)
        s = int(rng.integers(1, n))
        weights = np.ones(m)
        log_eps = rng.uniform(-6.5, -4.0)
    x0 = np.zeros(m)
    x0[rng.choice(m, size=s, replace=False)] = rng.uniform(0.5, 1.5, s) * rng.choice([-1, 1], s)
    y0 = Phi @ x0
    eps = float(np.linalg.norm(y0) * 10.0**log_eps)
    e = rng.standard_normal(n)
    # the planted vector lies strictly inside the constraint set
    return Phi, y0 + 0.5 * eps * e / np.linalg.norm(e), weights, eps


def build_inputs():
    """(Phi, offset, observation, x_ref, weights, eps) of each shape, in
    SHAPES order; x_ref is empty for eps > 0."""
    from sparseobs import harness, recover
    from sparseobs.model import DynamicalSystem
    from sparseobs.ode import flow_with_jacobian, integrate

    def linearization(system, A, x0, T):
        # linearized at 0, as recovery's first outer iteration does, in the
        # rows of the factor [R | z] of [A | b] that recovery solves in
        xT, P = flow_with_jacobian(system, np.zeros(system.dim), T)
        R, z, _ = recover._in_span(A, A @ integrate(system, x0, T).final_state)
        Phi, offset = R @ P, R @ xT
        x_ls = np.linalg.lstsq(Phi, z - offset, rcond=None)[0]
        return Phi, offset, z, x_ls, np.ones(system.dim), 0.0

    def underdetermined(n, m, s, seed):
        Phi = harness.gen_gaussian_matrix(n, m, seed)
        Phi /= np.linalg.norm(Phi, axis=0)
        x0 = planted(m, s, seed + 100)
        return Phi, np.zeros(n), Phi @ x0, x0, np.ones(m), 0.0

    def demo_first_solve():
        # the arguments of the first solve in trial 0 of the demo sweep
        class Captured(Exception):
            pass

        def capture(Phi, offset, observation, weights, eps, config=None):
            raise Captured(Phi, offset, observation, np.empty(0), weights, eps)

        demo = harness.load_experiment_config(treebench.ROOT / "configs" / "demo.json")
        try:
            with treebench.swapped(recover, "solve_weighted_bpdn", lambda solve: capture):
                harness.run_trial(demo, 0)
        except Captured as first:
            return first.args
        raise RuntimeError("trial 0 of the demo ran no solve")

    def noisy_underdetermined(n, m, s, eps, seed):
        Phi = harness.gen_gaussian_matrix(n, m, seed)
        Phi /= np.linalg.norm(Phi, axis=0)
        rng = np.random.Generator(np.random.Philox(seed + 200))
        weights = rng.uniform(1.0, 2.0, m)
        e = rng.standard_normal(n)
        # the planted vector lies strictly inside the constraint set
        e *= 0.5 * eps / np.linalg.norm(e)
        return Phi, np.zeros(n), Phi @ planted(m, s, seed + 100) + e, np.empty(0), weights, eps

    return [
        linearization(
            DynamicalSystem.tanh_saturated(unit_spectral(6, 7)),
            harness.gen_gaussian_matrix(512, 6, 1000),
            planted(6, 2, 1500),
            0.2,
        ),
        linearization(
            DynamicalSystem.linear(unit_spectral(24, 24)),
            harness.gen_gaussian_matrix(512, 24, 11),
            planted(24, 3, 1501),
            0.2,
        ),
        underdetermined(6, 12, 1, 40),
        underdetermined(96, 128, 8, 44),
        demo_first_solve(),
        noisy_underdetermined(48, 64, 4, 1e-2, 45),
    ]


def counting_pivots(recover, pivots):
    """A context in which every call of recover._sweep, the lasso path's
    pivot, appends 1 to pivots."""

    def counted(sweep):
        def call(*args):
            pivots.append(1)
            return sweep(*args)

        return call

    return treebench.swapped(recover, "_sweep", counted)


def measure(package, shape):
    """Count one solve of a shape (Phi, offset, observation, x_ref, weights,
    eps) by package's tree and time CALLS more; return the row."""
    Phi, offset, obs, x_ref, weights, eps = shape
    kernels, recover = package.kernels, package.recover
    # the iteration counts of each kernel's calls in one solve
    counts = {"admm_basis_pursuit": [], "admm_lasso": []}
    pivots = []

    def counted(name, at):
        def wrap(kernel):
            def call(*args):
                result = kernel(*args)
                counts[name].append(int(result[at]))
                return result

            return call

        return wrap

    with (
        treebench.swapped(kernels, "admm_basis_pursuit", counted("admm_basis_pursuit", 3)),
        treebench.swapped(kernels, "admm_lasso", counted("admm_lasso", 2)),
        counting_pivots(recover, pivots),
    ):
        x = recover.solve_weighted_bpdn(Phi, offset, obs, weights, eps)
    samples = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        recover.solve_weighted_bpdn(Phi, offset, obs, weights, eps)
        samples.append(time.perf_counter() - t0)
    return {
        "samples_s": samples,
        "basis_pursuit_iterations": sum(counts["admm_basis_pursuit"]),
        "lasso_calls": len(counts["admm_lasso"]),
        "lasso_iterations": sum(counts["admm_lasso"]),
        "pivots": len(pivots),
        "residual_minus_eps": float(np.linalg.norm(Phi @ x - (obs - offset))) - eps,
        "estimate_sha256": hashlib.sha256(x.tobytes()).hexdigest(),
        "max_abs_error_vs_reference": float(np.abs(x - x_ref).max()) if x_ref.size else None,
    }


def certified(Phi, y, weights, eps, x, band):
    """(in band, certified) for the eps > 0 estimate x, as the module
    docstring defines them."""
    r = y - Phi @ x
    in_band = eps <= float(np.linalg.norm(r)) <= eps + band
    on = x != 0
    if not (in_band and on.any()):
        return in_band, False
    g = Phi.T @ r
    lam = float(np.median(np.abs(g[on]) / weights[on]))
    kkt = np.all(np.abs(g[~on]) <= lam * weights[~on] * (1 + 1e-6)) and np.all(
        np.abs(g[on] - lam * weights[on] * np.sign(x[on])) <= 1e-6 * lam * weights[on]
    )
    return in_band, bool(kkt)


def solve(package, instance):
    """Solve a scan instance (Phi, y, weights, eps) once with package's tree:
    (in band, certified, admm_lasso calls, their summed iterations, path
    pivots, estimate, wall time in s)."""
    Phi, y, weights, eps = instance
    iterations = []
    pivots = []

    def counted(lasso):
        def call(*args):
            result = lasso(*args)
            iterations.append(int(result[2]))
            return result

        return call

    recover = package.recover
    with (
        treebench.swapped(package.kernels, "admm_lasso", counted),
        counting_pivots(recover, pivots),
    ):
        t0 = time.perf_counter()
        x = recover.solve_weighted_bpdn(Phi, np.zeros(y.size), y, weights, eps)
        wall = time.perf_counter() - t0
    band = recover._residual_band(recover.SolverConfig(), float(np.linalg.norm(y)))
    counts = len(iterations), sum(iterations), len(pivots)
    return (*certified(Phi, y, weights, eps, x, band), *counts, x, wall)


def scan_summary(solved):
    """Per scan, each tree's counts and the instances it lost against the
    first tree, and, for a parent and a change tree, the instances certified
    by one tree only and the largest relative change of the estimates;
    solved holds each tree's solve() of every instance, scan after scan."""
    summary = {}
    start = 0
    for name, (count, recipe) in SCANS.items():
        entry = {"instances": count, "recipe": recipe}
        # each tree's columns of solve()'s results over the scan's instances
        runs = {label: list(zip(*out[start : start + count])) for label, out in solved.items()}
        start += count
        first_in, first_ok = next(iter(runs.values()))[:2]
        for label, (in_band, ok, calls, iterations, pivots, _, wall) in runs.items():
            entry[label] = {
                "in_band": sum(in_band),
                "certified": sum(ok),
                "lasso_calls": sum(calls),
                "lasso_iterations": sum(iterations),
                "max_lasso_calls_per_solve": max(calls),
                "pivots": sum(pivots),
                "wall_s": sum(wall),
                "lost": [
                    k
                    for k in range(count)
                    if first_in[k] and not in_band[k] or first_ok[k] and not ok[k]
                ],
            }
            print(f"{label:>8}  scan {name:<12} {json.dumps(entry[label])}")
        if {"parent", "change"} <= runs.keys():
            p_in, p_ok, _, _, _, xp, _ = runs["parent"]
            q_in, q_ok, _, _, _, xq, _ = runs["change"]
            rel = [
                float(np.abs(q - p).max() / max(np.abs(p).max(), 1e-300)) for p, q in zip(xp, xq)
            ]
            entry["certified_by_parent_only"] = [k for k in range(count) if p_ok[k] and not q_ok[k]]
            entry["certified_by_change_only"] = [k for k in range(count) if q_ok[k] and not p_ok[k]]
            entry["in_band_by_parent_only"] = [k for k in range(count) if p_in[k] and not q_in[k]]
            entry["max_rel_estimate_change"] = max(rel)
            entry["max_rel_estimate_change_where_both_certified"] = max(
                (r for r, a, b in zip(rel, p_ok, q_ok) if a and b), default=0.0
            )
        summary[name] = entry
    return summary


def run(trees):
    shapes = build_inputs()
    runs = treebench.rounds(trees, ROUNDS, shapes, measure)
    instances = [scan_instance(name, k) for name, (count, _) in SCANS.items() for k in range(count)]
    solved = treebench.rounds(trees, 1, instances, solve)
    scans = scan_summary({label: out for label, [out] in solved.items()})

    results = {}
    for label, rounds in runs.items():
        results[label] = []
        for i, case in enumerate(SHAPES):
            first = rounds[0][i]
            samples = [s for r in rounds for s in r[i]["samples_s"]]
            n, m = shapes[i][0].shape
            row = {"case": case, "n": n, "m": m, "eps": float(shapes[i][5])}
            row.update(treebench.quartiles(samples))
            row.update((key, value) for key, value in first.items() if key != "samples_s")
            results[label].append(row)
            print(
                f"{label:>8}  {case:<74} {row['median_ms']:9.3f} ms  "
                f"bp {row['basis_pursuit_iterations']:5d} it  "
                f"lasso {row['lasso_calls']:3d} calls {row['lasso_iterations']:6d} it  "
                f"pivots {row['pivots']}  "
                f"r - eps {row['residual_minus_eps']:.2e}"
            )

    doc = {
        "function": "recover.solve_weighted_bpdn",
        "rounds": ROUNDS,
        "calls_per_round": CALLS,
        "results": results,
        "scans": scans,
    }
    treebench.parent_over_change(
        doc, "speedup_parent_over_change", lambda rows: {r["case"]: r["median_ms"] for r in rows}
    )
    treebench.write("bpdn", doc)
    losing = sorted({label for scan in scans.values() for label in solved if scan[label]["lost"]})
    if losing:
        sys.exit(f"{', '.join(losing)} lost scan instances against {next(iter(trees))}")


if __name__ == "__main__":
    treebench.main(__doc__, run)
