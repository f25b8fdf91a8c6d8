"""Count and time the support fits of recover.l0_oracle on the criterion-7
instances.

Usage, from the repository root:

    python3 tools/bench_oracle.py
    python3 tools/bench_oracle.py --tree parent=../parent/src --tree change=src

Each --tree LABEL=SRC names a source tree whose sparseobs package runs the
oracle in child processes of its own, with one BLAS thread.  The trees take
turns, ROUNDS rounds of one child per tree, and each child runs the oracle on
every instance twice: once counted, once timed.  Without --tree this checkout
runs under the label "change".  The instances are built once, by this
checkout's package, and every child solves the same problems.

The instances are those of the criterion-7 acceptance test: dimension m in
{6, 12}, the zero, linear and tanh_saturated systems, sparsity s in {1, 2},
matrix seeds 1000-1004, eps = 0, the auto-chosen time and 256 fixed RK4 steps.
Per instance and tree the file records the kernels.rk4_flow_jacobian calls,
the rows they integrate (row evaluations), the rows recover._line_search
searches and how many of those end at t = 0, the median wall time of the
oracle over the rounds, its residual, and, for every tree after the first,
the largest |estimate - estimate of the first tree|.  Totals per tree sum the
counts and wall times and take the largest change.  Results go to
BENCH_oracle.json.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, fixed before numpy is first imported here or in a child
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 3
STEPS = 256
COLUMNS = (
    "m",
    "kind",
    "s",
    "seed",
    "T",
    "flow_jacobian_calls",
    "row_evaluations",
    "line_search_rows",
    "line_searches_at_zero",
    "wall_ms",
    "residual",
    "max_abs_estimate_change",
)


def build_instances():
    """(m, kind, s, seed, T, M, A, b) of every criterion-7 instance, built by
    this checkout's package."""
    sys.path.insert(0, str(ROOT / "src"))
    from sparseobs.harness import _auto_time, gen_gaussian_matrix
    from sparseobs.model import DynamicalSystem
    from sparseobs.ode import IntegrationConfig, integrate
    from sparseobs.rip import operator_norm, rip_constant_exact

    icfg = IntegrationConfig.fixed(STEPS)
    instances = []
    for m in (6, 12):
        M = np.random.Generator(np.random.Philox(7)).normal(size=(m, m))
        M = M / operator_norm(M)
        systems = (
            DynamicalSystem.zero(m),
            DynamicalSystem.linear(M.tolist()),
            DynamicalSystem.tanh_saturated(M.tolist()),
        )
        for s in (1, 2):
            for seed in range(1000, 1005):
                A = gen_gaussian_matrix(512, m, seed)
                delta = rip_constant_exact(A, min(2 * s, m)).delta
                a_norm = operator_norm(A)
                rng = np.random.Generator(np.random.Philox(seed + 500))
                support = np.sort(rng.choice(m, size=s, replace=False))
                x0 = np.zeros(m)
                x0[support] = rng.uniform(0.5, 1.5, s) * (rng.integers(0, 2, s) * 2 - 1)
                for system in systems:
                    T = _auto_time(system.lipschitz, delta, 1.0, a_norm)
                    b = A @ integrate(system, x0, T, icfg).final_state
                    instances.append((m, system.kind, s, seed, T, M, A, b))
    return instances


def measure(src, inputs_path):
    """Run in a child: the oracle of the tree at src on every instance, once
    counted and once timed; print one JSON list of rows (the COLUMNS up to
    residual, plus the estimate)."""
    sys.path.insert(0, str(Path(src).resolve()))
    from sparseobs import kernels, recover
    from sparseobs.model import DynamicalSystem, MeasurementModel, SparseProblem
    from sparseobs.ode import IntegrationConfig

    data = np.load(inputs_path)
    icfg = IntegrationConfig.fixed(STEPS)
    kernel, search = kernels.rk4_flow_jacobian, recover._line_search
    counts = {}

    def counted_kernel(kind, M, c, X, T, n):
        counts["calls"] += 1
        counts["rows"] += X.size // X.shape[-1]
        return kernel(kind, M, c, X, T, n)

    def counted_search(*args):
        out = search(*args)
        counts["searches"] += out[0].size
        counts["at_zero"] += int(np.count_nonzero(out[0] == 0.0))
        return out

    rows = []
    for i, (m, kind, s, seed) in enumerate(
        zip(*(data[key].tolist() for key in ("m", "kind", "s", "seed")))
    ):
        M = data[f"M{m}"].tolist()
        system = DynamicalSystem.zero(m) if kind == "zero" else getattr(DynamicalSystem, kind)(M)
        T = float(data["T"][i])
        problem = SparseProblem(
            system=system,
            measurement=MeasurementModel(
                matrix=data[f"A{m}_{seed}"], time=T, noise_radius=0.0, weights=np.ones(m)
            ),
            observation=data["b"][i],
            sparsity=s,
        )
        counts.update(calls=0, rows=0, searches=0, at_zero=0)
        kernels.rk4_flow_jacobian, recover._line_search = counted_kernel, counted_search
        out = recover.l0_oracle(problem, icfg)
        kernels.rk4_flow_jacobian, recover._line_search = kernel, search
        t0 = time.perf_counter()
        recover.l0_oracle(problem, icfg)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rows.append(
            [m, kind, s, seed, T, counts["calls"], counts["rows"], counts["searches"]]
            + [counts["at_zero"], wall_ms, out.residual, out.estimate.tolist()]
        )
    print(json.dumps(rows))


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

    instances = build_instances()
    columns = list(zip(*instances))
    arrays = {key: np.array(columns[j]) for j, key in enumerate(("m", "kind", "s", "seed", "T"))}
    arrays["b"] = np.array(columns[7])
    for m, _, _, seed, _, M, A, _ in instances:
        arrays[f"M{m}"], arrays[f"A{m}_{seed}"] = M, A
    runs = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path = Path(tmp) / "inputs.npz"
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

    first_label = next(iter(runs))
    first = runs[first_label][0]
    results = {}
    for label, rounds in runs.items():
        table = []
        for i, row in enumerate(rounds[0]):
            wall_ms = statistics.median(r[i][9] for r in rounds)
            change = None
            if label != first_label:
                change = float(np.max(np.abs(np.subtract(row[11], first[i][11]))))
            table.append(row[:9] + [wall_ms, row[10], change])
        totals = {
            "instances": len(table),
            "flow_jacobian_calls": sum(row[5] for row in table),
            "row_evaluations": sum(row[6] for row in table),
            "line_search_rows": sum(row[7] for row in table),
            "line_searches_at_zero": sum(row[8] for row in table),
            "wall_ms": sum(row[9] for row in table),
            "max_abs_estimate_change": max(
                (row[11] for row in table if row[11] is not None), default=None
            ),
        }
        print(
            f"{label:>8}  {totals['wall_ms']:9.1f} ms  {totals['flow_jacobian_calls']:6d} calls  "
            f"{totals['row_evaluations']:6d} rows  {totals['line_searches_at_zero']:5d} at t = 0  "
            f"max |d estimate| {totals['max_abs_estimate_change']}"
        )
        results[label] = {"totals": totals, "instances": table}

    doc = {
        "script": "tools/bench_oracle.py",
        "function": "recover.l0_oracle",
        "rounds": ROUNDS,
        "rk4_steps": STEPS,
        "blas_threads": 1,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "columns": list(COLUMNS),
        "results": results,
    }
    if {"parent", "change"} <= results.keys():
        parent, change = results["parent"]["totals"], results["change"]["totals"]
        doc["parent_over_change"] = {
            key: parent[key] / change[key]
            for key in ("wall_ms", "flow_jacobian_calls", "row_evaluations")
        }
    # indented JSON with each list of scalars, such as an instance row, on one line
    text = re.sub(
        r"\[\s+([^][{}]*?)\s+\]",
        lambda match: "[" + " ".join(match.group(1).split()) + "]",
        json.dumps(doc, indent=2),
    )
    (ROOT / "BENCH_oracle.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
