"""Count and time the support fits of recover.l0_oracle on the criterion-7
instances.

Run from the repository root as tools/treebench.py describes.  Each tree runs
the oracle on every instance ROUNDS rounds, each time twice: once counted,
once timed, each on a problem of its own.

The instances are those of the criterion-7 acceptance test: dimension m in
{6, 12}, the zero, linear and tanh_saturated systems, sparsity s in {1, 2},
matrix seeds 1000-1004, eps = 0, the auto-chosen time and 256 fixed RK4 steps.
Per instance and tree the file records the kernels.rk4_flow_jacobian calls,
the rows they integrate (row evaluations), the rows recover._line_search
searches and how many of those end at t = 0, the oracle's residual, for
every tree after the first the largest |estimate - estimate of the first
tree|, and the oracle's supports examined and converged flag.  An
instance's row holds no time, so a rerun with equal counts and estimates
leaves it byte-identical.  Totals per tree sum the counts and the
instances' median wall times over the rounds, and take the largest change,
over all instances, over each kind's and over each (kind, s) pair's; the
script prints them all.  Results go to
BENCH_oracle.json.  The script exits with status 1 when any tree's estimate
differs from the first tree's by more than ESTIMATE_TOL, or selects
another support (the entries above SUPPORT_CUT in absolute value, as
criterion 7 reads it), or examines another number of supports, or reports
another converged flag, on any instance.
"""

import treebench

if __name__ == "__main__":
    treebench.one_blas_thread()

import dataclasses
import statistics
import sys
import time

import numpy as np

ROUNDS = 3
STEPS = 256
ESTIMATE_TOL = 1e-9
SUPPORT_CUT = 1e-8
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
    "residual",
    "max_abs_estimate_change",
    "supports_examined",
    "converged",
)


def build_instances():
    """(m, kind, s, seed, T, M, A, b) of every criterion-7 instance, built by
    this checkout's package."""
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


def measure(package, instance):
    """The oracle of package's tree on one instance, once counted and once
    timed: the row of COLUMNS up to residual, the estimate, the supports
    examined, the converged flag and the wall time in ms."""
    m, kind, s, seed, T, M, A, b = instance
    counts = dict(calls=0, rows=0, searches=0, at_zero=0)

    def counted_kernel(kernel):
        def call(kind, M, c, X, T, n):
            counts["calls"] += 1
            counts["rows"] += X.size // X.shape[-1]
            return kernel(kind, M, c, X, T, n)

        return call

    def counted_search(search):
        def call(*args):
            out = search(*args)
            counts["searches"] += out[0].size
            counts["at_zero"] += int(np.count_nonzero(out[0] == 0.0))
            return out

        return call

    DynamicalSystem = package.DynamicalSystem
    M = M.tolist()
    system = DynamicalSystem.zero(m) if kind == "zero" else getattr(DynamicalSystem, kind)(M)
    problem = package.SparseProblem(
        system=system,
        measurement=package.MeasurementModel(
            matrix=A, time=T, noise_radius=0.0, weights=np.ones(m)
        ),
        observation=b,
        sparsity=s,
    )
    # the timed run gets an equal problem of its own, as a problem keeps
    # the work done on it once
    timed = dataclasses.replace(problem)
    icfg = package.IntegrationConfig.fixed(STEPS)
    recover = package.recover
    with (
        treebench.swapped(package.kernels, "rk4_flow_jacobian", counted_kernel),
        treebench.swapped(recover, "_line_search", counted_search),
    ):
        out = recover.l0_oracle(problem, icfg)
    t0 = time.perf_counter()
    recover.l0_oracle(timed, icfg)
    wall_ms = (time.perf_counter() - t0) * 1e3
    row = [m, kind, s, seed, T, counts["calls"], counts["rows"], counts["searches"]]
    row += [counts["at_zero"], out.residual, out.estimate.tolist()]
    return row + [out.iterations, out.converged, wall_ms]


def differing(rows, first):
    """The indices of the instances whose row of measure differs from the
    one in first: an estimate moved by more than ESTIMATE_TOL or with
    another support, or another count of supports examined or converged
    flag."""
    found = []
    for i, (row, row1) in enumerate(zip(rows, first)):
        x, x1 = row[10], row1[10]
        if (
            np.max(np.abs(np.subtract(x, x1))) > ESTIMATE_TOL
            or not np.array_equal(np.abs(x) > SUPPORT_CUT, np.abs(x1) > SUPPORT_CUT)
            or row[11:13] != row1[11:13]
        ):
            found.append(i)
    return found


def totals(table, wall_ms):
    """The counts of table's rows and their wall times wall_ms summed, and
    the largest change of their estimates."""
    return {
        "instances": len(table),
        "flow_jacobian_calls": sum(row[5] for row in table),
        "row_evaluations": sum(row[6] for row in table),
        "line_search_rows": sum(row[7] for row in table),
        "line_searches_at_zero": sum(row[8] for row in table),
        "wall_ms": sum(wall_ms),
        "max_abs_estimate_change": max(
            (row[10] for row in table if row[10] is not None), default=None
        ),
    }


def run(trees):
    runs = treebench.rounds(trees, ROUNDS, build_instances(), measure)

    first_label = next(iter(runs))
    first = runs[first_label][0]
    results = {}
    unequal = {}
    for label, rounds in runs.items():
        table, wall_ms = [], []
        for i, row in enumerate(rounds[0]):
            change = None
            if label != first_label:
                change = float(np.max(np.abs(np.subtract(row[10], first[i][10]))))
            table.append(row[:10] + [change] + row[11:13])
            wall_ms.append(statistics.median(r[i][13] for r in rounds))

        def subset(keep):
            mine = [i for i, row in enumerate(table) if keep(row)]
            return totals([table[i] for i in mine], [wall_ms[i] for i in mine])

        kinds = dict.fromkeys(row[1] for row in table)
        by_kind = {kind: subset(lambda row: row[1] == kind) for kind in kinds}
        pairs = dict.fromkeys((row[1], row[2]) for row in table)
        by_kind_and_s = {
            f"{kind} s={s}": subset(lambda row: (row[1], row[2]) == (kind, s)) for kind, s in pairs
        }
        results[label] = {
            "totals": totals(table, wall_ms),
            "by_kind": by_kind,
            "by_kind_and_s": by_kind_and_s,
            "instances": table,
        }
        for name, t in {"all": results[label]["totals"], **by_kind, **by_kind_and_s}.items():
            print(
                f"{label:>8}  {name:<20} {t['wall_ms']:9.1f} ms  "
                f"{t['flow_jacobian_calls']:6d} calls  {t['row_evaluations']:6d} rows  "
                f"{t['line_search_rows']:5d} searched  {t['line_searches_at_zero']:5d} at t = 0  "
                f"max |d estimate| {t['max_abs_estimate_change']}"
            )
        found = differing(rounds[0], first)
        if found:
            unequal[label] = found

    doc = {
        "function": "recover.l0_oracle",
        "rounds": ROUNDS,
        "rk4_steps": STEPS,
        "columns": list(COLUMNS),
        "results": results,
    }
    keys = ("wall_ms", "flow_jacobian_calls", "row_evaluations")

    def pick(r):
        return {
            **{k: r["totals"][k] for k in keys},
            "wall_ms_by_kind": {kind: t["wall_ms"] for kind, t in r["by_kind"].items()},
            "wall_ms_by_kind_and_s": {
                name: t["wall_ms"] for name, t in r["by_kind_and_s"].items()
            },
        }

    treebench.parent_over_change(doc, "parent_over_change", pick)
    treebench.write("oracle", doc)
    if unequal:
        sys.exit(
            f"estimates differ from {first_label}'s on instances "
            + "; ".join(f"{label}: {found}" for label, found in unequal.items())
        )


if __name__ == "__main__":
    treebench.main(__doc__, run)
