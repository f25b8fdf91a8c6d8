"""Time recover.solve_weighted_bpdn on fixed shapes, at eps = 0 and eps > 0,
and count the ADMM work of one solve; then solve two seeded scans of eps > 0
instances once and count how many land in the residual band and how many
are certified.

Usage, from the repository root:

    python3 tools/bench_bpdn.py
    python3 tools/bench_bpdn.py --tree parent=../parent/src --tree change=src

Each --tree LABEL=SRC names a source tree whose sparseobs package is timed in
child processes of its own: recover.py imports the package, so two versions
cannot share one process.  The trees take turns, ROUNDS rounds of one child
per tree, and each child times CALLS calls per shape after one warm-up call,
with one BLAS thread.  Without --tree this checkout is timed under the label
"change".  The inputs are built once, by this checkout's package, and every
child solves the same programs.

Per shape the file records the median and quartiles of the call time and,
for one solve, the iterations of kernels.admm_basis_pursuit, the calls of
kernels.admm_lasso and their summed iterations, the residual ||Phi x - y||
minus eps, the SHA-256 of the estimate's bytes (equal digests across trees
mean identical results), and at eps = 0 max|x - x_ref|, where x_ref is the
program's solution: the least-squares point when Phi has full column rank
(it is the only feasible point), and the planted sparse vector for the
underdetermined shapes, which l1 recovers.

Each scan (SCANS) is solved once per tree, in a child of its own, after the
timing rounds.  A solve is in band when its residual lies in [eps, eps +
band], band = min(residual_match_tol, 1e-9 max(1, ||y||)), and certified
when it is in band and the weighted lasso's KKT conditions hold at 1e-6
relative at lam = the median of |Phi^T r|_j / w_j over its support.  Per
scan and tree the file records both counts, the admm_lasso calls and their
summed iterations, and the wall time of the scan; with trees labelled
parent and change it also records the instances certified by one tree only
and the largest relative difference max|x_change - x_parent| / max|x_parent|
between the two trees' estimates, over all instances and over those both
trees certify.  Results go to BENCH_bpdn.json.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, fixed before numpy is first imported here or in a child
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
CALLS = 5
SHAPES = (
    "tanh 512x6, first linearization of a criterion-7 s=2 instance",
    "linear 512x24, the one linearization of a dim-24 linear flow",
    "gaussian 6x12 underdetermined, 1-sparse",
    "gaussian 96x128 underdetermined, 8-sparse",
    "tanh 512x12, eps = 1e-3, first linearization of configs/demo.json trial 0",
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
    eps = float(np.linalg.norm(y0)) * 10.0**log_eps
    e = rng.standard_normal(n)
    # the planted vector lies strictly inside the constraint set
    return Phi, y0 + 0.5 * eps * e / np.linalg.norm(e), weights, eps


def build_inputs():
    """(Phi, offset, observation, x_ref, weights, eps) of each shape, in
    SHAPES order; x_ref is empty for eps > 0."""
    sys.path.insert(0, str(ROOT / "src"))
    from sparseobs import harness, recover
    from sparseobs.model import DynamicalSystem
    from sparseobs.ode import flow_with_jacobian, integrate

    def linearization(system, A, x0, T):
        # linearized at 0, as recovery's first outer iteration does
        xT, P = flow_with_jacobian(system, np.zeros(system.dim), T)
        Phi, offset = A @ P, A @ xT
        observation = A @ integrate(system, x0, T).final_state
        x_ls = np.linalg.lstsq(Phi, observation - offset, rcond=None)[0]
        return Phi, offset, observation, x_ls, np.ones(system.dim), 0.0

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

        solve = recover.solve_weighted_bpdn
        recover.solve_weighted_bpdn = capture
        try:
            harness.run_trial(harness.load_experiment_config(ROOT / "configs" / "demo.json"), 0)
        except Captured as first:
            return first.args
        finally:
            recover.solve_weighted_bpdn = solve
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


def measure(src, inputs_path):
    """Run in a child: time the tree at src on every shape and print one JSON
    list of rows."""
    sys.path.insert(0, str(Path(src).resolve()))
    from sparseobs import kernels, recover

    data = np.load(inputs_path)
    # the iteration counts of each kernel's calls in one solve
    counts = {"admm_basis_pursuit": [], "admm_lasso": []}
    kernel = {name: getattr(kernels, name) for name in counts}

    def counted(name, at):
        def call(*args):
            result = kernel[name](*args)
            counts[name].append(int(result[at]))
            return result

        return call

    rows = []
    for i in range(len(SHAPES)):
        Phi, offset, obs, x_ref, weights, eps = (
            data[f"{key}{i}"] for key in ("Phi", "offset", "obs", "ref", "weights", "eps")
        )
        eps = float(eps)
        for name in counts:
            counts[name].clear()
        kernels.admm_basis_pursuit = counted("admm_basis_pursuit", 3)
        kernels.admm_lasso = counted("admm_lasso", 2)
        x = recover.solve_weighted_bpdn(Phi, offset, obs, weights, eps)
        kernels.admm_basis_pursuit = kernel["admm_basis_pursuit"]
        kernels.admm_lasso = kernel["admm_lasso"]
        samples = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            recover.solve_weighted_bpdn(Phi, offset, obs, weights, eps)
            samples.append(time.perf_counter() - t0)
        rows.append(
            {
                "samples_s": samples,
                "basis_pursuit_iterations": sum(counts["admm_basis_pursuit"]),
                "lasso_calls": len(counts["admm_lasso"]),
                "lasso_iterations": sum(counts["admm_lasso"]),
                "residual_minus_eps": float(np.linalg.norm(Phi @ x - (obs - offset))) - eps,
                "estimate_sha256": hashlib.sha256(x.tobytes()).hexdigest(),
                "max_abs_error_vs_reference": (
                    float(np.abs(x - x_ref).max()) if x_ref.size else None
                ),
            }
        )
    print(json.dumps(rows))


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


def scan(src, inputs_path):
    """Run in a child: solve every scan instance once with the tree at src
    and print one JSON object of per-instance results per scan."""
    sys.path.insert(0, str(Path(src).resolve()))
    from sparseobs import kernels, recover

    data = np.load(inputs_path)
    lasso = kernels.admm_lasso
    iterations = []

    def counted(*args):
        result = lasso(*args)
        iterations.append(int(result[2]))
        return result

    kernels.admm_lasso = counted
    band_tol = recover.SolverConfig().residual_match_tol
    out = {}
    for name, (count, _) in SCANS.items():
        rows = {"in_band": [], "certified": [], "calls": [], "iterations": [], "estimate": []}
        wall = 0.0
        for k in range(count):
            Phi, y, weights, eps = (data[f"{name}_{key}{k}"] for key in ("Phi", "y", "w", "eps"))
            eps = float(eps)
            iterations.clear()
            t0 = time.perf_counter()
            x = recover.solve_weighted_bpdn(Phi, np.zeros(y.size), y, weights, eps)
            wall += time.perf_counter() - t0
            band = min(band_tol, 1e-9 * max(1.0, float(np.linalg.norm(y))))
            in_band, ok = certified(Phi, y, weights, eps, x, band)
            rows["in_band"].append(in_band)
            rows["certified"].append(ok)
            rows["calls"].append(len(iterations))
            rows["iterations"].append(sum(iterations))
            rows["estimate"].append(x.tolist())
        rows["wall_s"] = wall
        out[name] = rows
    print(json.dumps(out))


def scan_summary(runs):
    """Per scan, each tree's counts and, for a parent and a change tree, the
    instances certified by one tree only and the largest relative change of
    the estimates."""
    summary = {}
    for name, (count, recipe) in SCANS.items():
        entry = {"instances": count, "recipe": recipe}
        for label, out in runs.items():
            rows = out[name]
            entry[label] = {
                "in_band": sum(rows["in_band"]),
                "certified": sum(rows["certified"]),
                "lasso_calls": sum(rows["calls"]),
                "lasso_iterations": sum(rows["iterations"]),
                "max_lasso_calls_per_solve": max(rows["calls"]),
                "wall_s": rows["wall_s"],
            }
            print(f"{label:>8}  scan {name:<12} {json.dumps(entry[label])}")
        if {"parent", "change"} <= runs.keys():
            p, q = runs["parent"][name], runs["change"][name]
            rel = [
                float(np.abs(np.subtract(xq, xp)).max() / max(np.abs(xp).max(), 1e-300))
                for xp, xq in zip(p["estimate"], q["estimate"])
            ]
            entry["certified_by_parent_only"] = [
                k for k in range(count) if p["certified"][k] and not q["certified"][k]
            ]
            entry["certified_by_change_only"] = [
                k for k in range(count) if q["certified"][k] and not p["certified"][k]
            ]
            entry["in_band_by_parent_only"] = [
                k for k in range(count) if p["in_band"][k] and not q["in_band"][k]
            ]
            entry["max_rel_estimate_change"] = max(rel)
            entry["max_rel_estimate_change_where_both_certified"] = max(
                (r for r, a, b in zip(rel, p["certified"], q["certified"]) if a and b), default=0.0
            )
        summary[name] = entry
    return summary


def quartiles(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": q2 * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    # internal: the child process of one tree
    ap.add_argument("--measure", nargs=2, metavar=("SRC", "INPUTS"), help=argparse.SUPPRESS)
    ap.add_argument("--scan", nargs=2, metavar=("SRC", "INPUTS"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        measure(*args.measure)
        return
    if args.scan:
        scan(*args.scan)
        return
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": str(ROOT / "src")}

    runs = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path = Path(tmp) / "inputs.npz"
        arrays = {}
        keys = ("Phi", "offset", "obs", "ref", "weights", "eps")
        for i, shape in enumerate(build_inputs()):
            arrays.update({f"{key}{i}": value for key, value in zip(keys, shape)})
        scan_arrays = {}
        for name, (count, _) in SCANS.items():
            for k in range(count):
                for key, value in zip(("Phi", "y", "w", "eps"), scan_instance(name, k)):
                    scan_arrays[f"{name}_{key}{k}"] = value
        np.savez(inputs_path, **arrays, **scan_arrays)

        def child(mode, src):
            return json.loads(
                subprocess.run(
                    [sys.executable, __file__, mode, src, str(inputs_path)],
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )

        for _ in range(ROUNDS):
            for label, src in trees.items():
                runs[label].append(child("--measure", src))
        scans = scan_summary({label: child("--scan", src) for label, src in trees.items()})

    results = {}
    for label, rounds in runs.items():
        results[label] = []
        for i, case in enumerate(SHAPES):
            first = rounds[0][i]
            samples = [s for r in rounds for s in r[i]["samples_s"]]
            n, m = arrays[f"Phi{i}"].shape
            row = {"case": case, "n": n, "m": m, "eps": float(arrays[f"eps{i}"])}
            row.update(quartiles(samples))
            row.update((key, value) for key, value in first.items() if key != "samples_s")
            results[label].append(row)
            print(
                f"{label:>8}  {case:<74} {row['median_ms']:9.3f} ms  "
                f"bp {row['basis_pursuit_iterations']:5d} it  "
                f"lasso {row['lasso_calls']:3d} calls {row['lasso_iterations']:6d} it  "
                f"r - eps {row['residual_minus_eps']:.2e}"
            )

    doc = {
        "script": "tools/bench_bpdn.py",
        "function": "recover.solve_weighted_bpdn",
        "rounds": ROUNDS,
        "calls_per_round": CALLS,
        "blas_threads": 1,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": results,
        "scans": scans,
    }
    if {"parent", "change"} <= results.keys():
        doc["speedup_parent_over_change"] = {
            p["case"]: p["median_ms"] / q["median_ms"]
            for p, q in zip(results["parent"], results["change"])
        }
    (ROOT / "BENCH_bpdn.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
