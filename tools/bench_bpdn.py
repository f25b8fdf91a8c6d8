"""Time recover.solve_weighted_bpdn at eps = 0 on fixed shapes and measure its
accuracy.

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

Per shape the file records the median and quartiles of the call time, the
iterations of kernels.admm_basis_pursuit in one call and max|x - x_ref|, where
x_ref is the program's solution: the least-squares point when Phi has full
column rank (it is the only feasible point), and the planted sparse vector
for the underdetermined shapes, which l1 recovers.  Results go to
BENCH_bpdn.json.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, fixed before numpy is first imported here or in a child
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
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
)


def planted(m, s, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    x0 = np.zeros(m)
    x0[rng.choice(m, size=s, replace=False)] = rng.uniform(0.5, 1.5, s) * rng.choice([-1, 1], s)
    return x0


def unit_spectral(m, seed):
    M = np.random.Generator(np.random.Philox(seed)).normal(size=(m, m))
    return M / np.linalg.norm(M, 2)


def build_inputs():
    """(Phi, offset, observation, x_ref) of each shape, in SHAPES order."""
    sys.path.insert(0, str(ROOT / "src"))
    from sparseobs.harness import gen_gaussian_matrix
    from sparseobs.model import DynamicalSystem
    from sparseobs.ode import flow_with_jacobian, integrate

    def linearization(system, A, x0, T):
        # linearized at 0, as recovery's first outer iteration does
        xT, P = flow_with_jacobian(system, np.zeros(system.dim), T)
        Phi, offset = A @ P, A @ xT
        observation = A @ integrate(system, x0, T).final_state
        x_ls = np.linalg.lstsq(Phi, observation - offset, rcond=None)[0]
        return Phi, offset, observation, x_ls

    def underdetermined(n, m, s, seed):
        Phi = gen_gaussian_matrix(n, m, seed)
        Phi /= np.linalg.norm(Phi, axis=0)
        x0 = planted(m, s, seed + 100)
        return Phi, np.zeros(n), Phi @ x0, x0

    return [
        linearization(
            DynamicalSystem.tanh_saturated(unit_spectral(6, 7)),
            gen_gaussian_matrix(512, 6, 1000),
            planted(6, 2, 1500),
            0.2,
        ),
        linearization(
            DynamicalSystem.linear(unit_spectral(24, 24)),
            gen_gaussian_matrix(512, 24, 11),
            planted(24, 3, 1501),
            0.2,
        ),
        underdetermined(6, 12, 1, 40),
        underdetermined(96, 128, 8, 44),
    ]


def measure(src, inputs_path):
    """Run in a child: time the tree at src on every shape and print one JSON
    list of rows."""
    sys.path.insert(0, str(Path(src).resolve()))
    from sparseobs import kernels, recover

    data = np.load(inputs_path)
    admm = kernels.admm_basis_pursuit
    counts = []

    def counted(*args):
        result = admm(*args)
        counts.append(int(result[3]))
        return result

    rows = []
    for i in range(len(SHAPES)):
        Phi, offset, obs, x_ref = (data[f"{key}{i}"] for key in ("Phi", "offset", "obs", "ref"))
        weights = np.ones(Phi.shape[1])
        counts.clear()
        kernels.admm_basis_pursuit = counted
        x = recover.solve_weighted_bpdn(Phi, offset, obs, weights, 0.0)
        kernels.admm_basis_pursuit = admm
        samples = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            recover.solve_weighted_bpdn(Phi, offset, obs, weights, 0.0)
            samples.append(time.perf_counter() - t0)
        rows.append(
            {
                "samples_s": samples,
                "admm_iterations": sum(counts),
                "max_abs_error_vs_reference": float(np.abs(x - x_ref).max()),
            }
        )
    print(json.dumps(rows))


def quartiles(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": q2 * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    # internal: the child process of one tree
    ap.add_argument("--measure", nargs=2, metavar=("SRC", "INPUTS"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        measure(*args.measure)
        return
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": str(ROOT / "src")}

    runs = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path = Path(tmp) / "inputs.npz"
        arrays = {}
        for i, (Phi, offset, obs, ref) in enumerate(build_inputs()):
            arrays.update({f"Phi{i}": Phi, f"offset{i}": offset, f"obs{i}": obs, f"ref{i}": ref})
        np.savez(inputs_path, **arrays)
        for _ in range(ROUNDS):
            for label, src in trees.items():
                child = subprocess.run(
                    [sys.executable, __file__, "--measure", src, str(inputs_path)],
                    capture_output=True,
                    text=True,
                    check=True,
                )
                runs[label].append(json.loads(child.stdout))

    results = {}
    for label, rounds in runs.items():
        results[label] = []
        for i, case in enumerate(SHAPES):
            first = rounds[0][i]
            samples = [s for r in rounds for s in r[i]["samples_s"]]
            n, m = arrays[f"Phi{i}"].shape
            row = {"case": case, "n": n, "m": m}
            row.update(
                quartiles(samples),
                admm_iterations=first["admm_iterations"],
                max_abs_error_vs_reference=first["max_abs_error_vs_reference"],
            )
            results[label].append(row)
            print(
                f"{label:>8}  {case:<62} {row['median_ms']:9.3f} ms  "
                f"{row['admm_iterations']:5d} it  err {row['max_abs_error_vs_reference']:.2e}"
            )

    doc = {
        "script": "tools/bench_bpdn.py",
        "function": "recover.solve_weighted_bpdn, eps = 0",
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
    }
    if {"parent", "change"} <= results.keys():
        doc["speedup_parent_over_change"] = {
            p["case"]: p["median_ms"] / q["median_ms"]
            for p, q in zip(results["parent"], results["change"])
        }
    (ROOT / "BENCH_bpdn.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
