"""Measure the RK4 step count each experiment trial integrates with: its cost
and its accuracy.

Run from the repository root as tools/treebench.py describes.  Each tree runs
every trial of the two workloads ROUNDS rounds, each time once counted and
once timed, with its tree's default integration config:

- demo: the 24 trials of configs/demo.json;
- criterion_6: the 9 blocks of 67 trials of the criterion-6 acceptance test
  (zero, linear and tanh systems of dimension 12 at eps = 0, 1e-3, 1e-2).

Per trial and tree the file records T, the step count the trial integrated
with (the `rk4_steps` report column), the RK4 row-steps (rows x steps, summed
over the calls of kernels.rk4_flow_jacobian and kernels.rk4_path), the
sensitivity row-steps (the same sum over kernels.rk4_flow_jacobian alone),
the path solves (calls of recover._lasso_path_point), the closed-form tries
(calls of recover._locked_solve) and the ones certified (those that return
a point), error_l2, and flow_error: the largest of |v - v_ref| / (1 +
|v_ref|) over the entries v of x(T) and dx(T)/dx0 at the trial's planted
state, against 4096 RK4 steps, computed by this checkout's package.  A
trial's row holds no time, so a rerun with equal counts and errors leaves
it byte-identical.  Totals per workload sum the trials' median wall times
over the rounds and the counts, and take the largest errors.

The file also times recover.recover_initial_state against the sensor count
n: the problems of the first SENSOR_TRIALS demo trials, rebuilt with n in
SENSOR_COUNTS rows (forced past an infeasible certificate), are built once
and recovered ROUNDS rounds by every tree.  Per n it records the median and
quartiles of the time per recovery.

The ratios of the parent's totals over the change's leave out the
closed-form counts, which are 0 on a workload with no eps > 0 tanh trial,
and take the median recovery time per n.  Results go to BENCH_steps.json.
The script then exits with status 1 when a tree moves some trial's error_l2
from the first tree's by SolverConfig().outer_tol or more, the step under
which recovery's tanh loop stops, or reports it on one tree only.
"""

import treebench

if __name__ == "__main__":
    treebench.one_blas_thread()

import dataclasses
import functools
import statistics
import sys
import time

import numpy as np

ROUNDS = 3
REFERENCE_STEPS = 4096
# (master seed, eps) of the criterion-6 blocks, run for each system kind
CRITERION_6 = ((601, 0.0), (602, 1e-3), (603, 1e-2))
CRITERION_6_TRIALS = 67
SENSOR_COUNTS = (512, 4096, 32768)
SENSOR_TRIALS = 8
COLUMNS = (
    "workload",
    "block",
    "trial",
    "T",
    "steps",
    "row_steps",
    "sensitivity_row_steps",
    "path_solves",
    "closed_form_tries",
    "closed_form_certified",
    "error_l2",
)
# the counted columns, which a trial's counting run fills
COUNTS = COLUMNS[5:10]


@functools.cache
def workloads(package):
    """(workload, block, config) of every block, built by package."""
    DynamicalSystem, operator_norm = package.DynamicalSystem, package.operator_norm
    demo = package.harness.load_experiment_config(treebench.ROOT / "configs" / "demo.json")
    blocks = [("demo", "demo", demo)]
    M = np.random.Generator(np.random.Philox(7)).normal(size=(12, 12))
    M = M / operator_norm(M)
    systems = (
        DynamicalSystem.zero(12),
        DynamicalSystem.linear(M.tolist()),
        DynamicalSystem.tanh_saturated(M.tolist()),
    )
    for system in systems:
        for master, eps in CRITERION_6:
            config = package.ExperimentConfig(
                seed=master,
                trials=CRITERION_6_TRIALS,
                system=system,
                n=512,
                sparsity=1,
                noise_radius=eps,
                magnitudes="unit",
            )
            blocks.append(("criterion_6", f"{system.kind} eps={eps:g}", config))
    return blocks


def measure(package, item):
    """Trial (block index, trial) of package's tree, once counted and once
    timed: the row of COLUMNS, then its wall time in ms, the planted support
    and values."""
    block, trial = item
    workload, name, config = workloads(package)[block]
    counts = dict.fromkeys(COUNTS, 0)

    def stepped(*keys):
        def wrap(kernel):
            def run(kind, M, c, X, T, n):
                for key in keys:
                    counts[key] += (X.size // X.shape[-1]) * n
                return kernel(kind, M, c, X, T, n)

            return run

        return wrap

    def solved(path_point):
        def run(*args):
            counts["path_solves"] += 1
            return path_point(*args)

        return run

    def tried(locked_solve):
        def run(*args):
            x = locked_solve(*args)
            counts["closed_form_tries"] += 1
            counts["closed_form_certified"] += x is not None
            return x

        return run

    with (
        treebench.swapped(
            package.kernels, "rk4_flow_jacobian", stepped("row_steps", "sensitivity_row_steps")
        ),
        treebench.swapped(package.kernels, "rk4_path", stepped("row_steps")),
        treebench.swapped(package.recover, "_lasso_path_point", solved),
        treebench.swapped(package.recover, "_locked_solve", tried),
    ):
        package.harness.run_trial(config, trial)
    t0 = time.perf_counter()
    r = package.harness.run_trial(config, trial)
    wall_ms = (time.perf_counter() - t0) * 1e3
    row = [workload, name, trial, r.T, r.rk4_steps, *counts.values(), r.error_l2]
    return row + [wall_ms, list(r.support), list(r.values)]


def sensor_problems():
    """(n, T, A, b, eps, step count) of the recovery in each of the first
    SENSOR_TRIALS demo trials with n rows, for each n in SENSOR_COUNTS, built
    by this checkout's package."""
    import sparseobs

    harness = sparseobs.harness
    demo = workloads(sparseobs)[0][2]
    problems = []

    def captured(recover_initial_state):
        def run(problem, integration, solver):
            meas = problem.measurement
            A, b, steps = meas.matrix, problem.observation, integration.step_count
            problems.append((A.shape[0], meas.time, A, b, meas.noise_radius, steps))
            return recover_initial_state(problem, integration, solver)

        return run

    with treebench.swapped(harness, "recover_initial_state", captured):
        for n in SENSOR_COUNTS:
            for trial in range(SENSOR_TRIALS):
                harness.run_trial(dataclasses.replace(demo, n=n), trial, force=True)
    return problems


def time_recovery(package, item):
    """(n, seconds) of one recovery of a sensor_problems item by package's
    tree."""
    n, T, A, b, eps, steps = item
    demo = workloads(package)[0][2]
    problem = package.SparseProblem(
        system=demo.system,
        measurement=package.MeasurementModel(
            matrix=A, time=T, noise_radius=eps, weights=demo.weight_vector()
        ),
        observation=b,
        sparsity=demo.sparsity,
    )
    icfg = package.IntegrationConfig.fixed(steps)
    t0 = time.perf_counter()
    package.recover.recover_initial_state(problem, icfg)
    return n, time.perf_counter() - t0


def by_sensor_count(trees):
    """{label: {n: median and quartiles of the time per recovery}}."""
    runs = treebench.rounds(trees, ROUNDS, sensor_problems(), time_recovery)
    results = {}
    for label, rounds in runs.items():
        samples = {}
        for n, seconds in (sample for r in rounds for sample in r):
            samples.setdefault(n, []).append(seconds)
        results[label] = {
            str(n): {"recoveries": len(found) // ROUNDS, **treebench.quartiles(found)}
            for n, found in samples.items()
        }
        for n, t in results[label].items():
            print(f"{label:>8}  recovery at n = {n:<6} {t['median_ms']:8.3f} ms")
    return results


def flow_errors(trials, steps_by_tree):
    """The flow_error of each trial at each tree's step count, computed by
    this checkout's package."""
    import sparseobs
    from sparseobs.ode import IntegrationConfig, flow_with_jacobian

    systems = {block: config.system for _, block, config in workloads(sparseobs)}
    errors = {label: [] for label in steps_by_tree}
    for i, (block, T, support, values) in enumerate(trials):
        system = systems[block]
        x0 = np.zeros(system.dim)
        x0[support] = values
        ref = flow_with_jacobian(system, x0, T, IntegrationConfig.fixed(REFERENCE_STEPS))
        for label, steps in steps_by_tree.items():
            got = flow_with_jacobian(system, x0, T, IntegrationConfig.fixed(steps[i]))
            errors[label].append(
                max(float(np.max(np.abs(g - r) / (1.0 + np.abs(r)))) for g, r in zip(got, ref))
            )
    return errors


def moved(table, first, tol):
    """The indices of the trials whose error_l2 in table differs from the
    one in first by tol or more, or is None in one of them only."""
    e = COLUMNS.index("error_l2")
    return [
        i
        for i, (row, row1) in enumerate(zip(table, first))
        if (row[e] is None) != (row1[e] is None)
        or (row[e] is not None and abs(row[e] - row1[e]) >= tol)
    ]


def run(trees):
    import sparseobs

    blocks = enumerate(workloads(sparseobs))
    items = [(b, trial) for b, (*_, config) in blocks for trial in range(config.trials)]
    runs = treebench.rounds(trees, ROUNDS, items, measure)
    col = {name: i for i, name in enumerate(COLUMNS + ("flow_error",))}
    first = next(iter(runs.values()))[0]
    trials = [(row[1], row[3], row[-2], row[-1]) for row in first]
    wall = len(COLUMNS)
    steps = {label: [row[col["steps"]] for row in rounds[0]] for label, rounds in runs.items()}
    errors = flow_errors(trials, steps)

    results = {}
    for label, rounds in runs.items():
        table = [row[:wall] + [errors[label][i]] for i, row in enumerate(rounds[0])]
        wall_ms = [statistics.median(r[i][wall] for r in rounds) for i in range(len(table))]
        totals = {}
        for workload in dict.fromkeys(row[0] for row in table):
            mine = [row for row in table if row[0] == workload]
            total = {
                "trials": len(mine),
                "wall_ms": sum(ms for row, ms in zip(table, wall_ms) if row[0] == workload),
            }
            total.update({key: sum(row[col[key]] for row in mine) for key in COUNTS})
            total["steps"] = sorted({row[col["steps"]] for row in mine})
            total["max_flow_error"] = max(row[col["flow_error"]] for row in mine)
            totals[workload] = total
            print(
                f"{label:>8}  {workload:<12} {total['wall_ms']:10.1f} ms  "
                f"{total['row_steps']:9d} row-steps  {total['sensitivity_row_steps']:9d} "
                f"sensitivity row-steps  {total['path_solves']:5d} path solves  "
                f"{total['closed_form_tries']:5d} closed-form tries "
                f"({total['closed_form_certified']} certified)  steps "
                f"{total['steps']}  flow error {total['max_flow_error']:.2e}"
            )
        results[label] = {"totals": totals, "trials": table}
    for label, by_n in by_sensor_count(trees).items():
        results[label]["recovery_by_sensor_count"] = by_n

    doc = {
        "rounds": ROUNDS,
        "reference_steps": REFERENCE_STEPS,
        "columns": list(col),
        "results": results,
    }

    def cost(result):
        keys = ("wall_ms",) + COUNTS[:3]
        by_n = result["recovery_by_sensor_count"]
        return {
            **{w: {k: t[k] for k in keys} for w, t in result["totals"].items()},
            "recovery_median_ms_by_sensor_count": {n: t["median_ms"] for n, t in by_n.items()},
        }

    if treebench.parent_over_change(doc, "parent_over_change", cost):
        e = col["error_l2"]
        doc["max_abs_error_l2_change"] = {
            workload: max(
                abs(p[e] - c[e])
                for p, c in zip(results["parent"]["trials"], results["change"]["trials"])
                if p[0] == workload and p[e] is not None
            )
            for workload in results["parent"]["totals"]
        }
    treebench.write("steps", doc)
    first_label, *others = results
    tol = sparseobs.SolverConfig().outer_tol
    first_table = results[first_label]["trials"]
    unequal = {label: moved(results[label]["trials"], first_table, tol) for label in others}
    unequal = {label: found for label, found in unequal.items() if found}
    if unequal:
        sys.exit(
            f"error_l2 moved by {tol:g} or more from {first_label}'s on trials "
            + "; ".join(f"{label}: {found}" for label, found in unequal.items())
        )


if __name__ == "__main__":
    treebench.main(__doc__, run)
