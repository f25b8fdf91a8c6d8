"""Time and count the exact restricted-isometry scan, rip.rip_constant_exact,
on the certify_wide trial matrices, on one-block shapes and on a compressive
shape.

Run from the repository root as tools/treebench.py describes.  Each tree
runs every scan ROUNDS rounds, each time once counted and REPEATS times
timed, with the budget raised to the scan's support count.

The matrices come in three sets:
- certify_wide: the 12 trial matrices of the benchmark's certify_wide
  workload at seed 1, round 0 (512 x 24 Gaussian, delta_6, C(24, 6) =
  134,596 supports), split into heads and tails of 3;
- one_block: Gaussian matrices of the one-block shapes that demo_tanh and
  oracle_agreement scan, 512 x 12 at order 4 and 512 x 6 at orders 2 and 4,
  whose supports fit one block and go straight to kernels.max_deviation;
- compressive: delta_4 of 96 x 128 matrices, the first 96 rows of a seeded
  random orthogonal matrix (the QR factor of a standard normal 128 x 128
  matrix, its column signs fixed by R's diagonal) with unit-norm columns, at
  seeds 3 and 4: C(128, 4) = 10,668,000 supports, split into heads and
  tails of 2, beyond the default budget.
Per matrix and tree the file records the scan time (the fastest of the timed
runs, median over the rounds), the constant, whether it is == the first
tree's, the value the scan's running maximum starts from (the delta its first
kernels.max_deviation call receives: the greedy seed of a scan of more than
one block, 0 for a scan of one), the supports eigensolved, and the supports
that reach kernels.max_deviation, that is, that no cheaper bound ruled out
before any Gram entry was gathered (every support, where the tree has no
such bound), and the chunks of heads the scan screens (the groups
kernels._scan_groups yields, counted so that a generator and a tuple of
groups both work).  Totals per tree sum the counts over each set, count the
scans whose start lies below the constant, and give the median and quartiles,
over the rounds, of the set's total scan time (each round's sum of its
fastest runs).  parent_over_change divides the parent's median total by the
change's, so drift of the host's speed between rounds shows up in both
trees' quartiles; parent_over_change_per_round gives the median and
quartiles of the per-round ratio of the two totals instead, whose two sides
ran scan by scan, back to back, in one round.  Results go to BENCH_rip.json.
The script exits with status 1 when any tree's constant differs from the
first tree's on any scan.
"""

import treebench

if __name__ == "__main__":
    treebench.one_blas_thread()

import dataclasses
import math
import statistics
import sys
import time

import numpy as np

ROUNDS = 5
REPEATS = 5
WORKLOAD_SEED = 1
# (rows, columns, order, matrix seeds) of the one-block scans
ONE_BLOCK = ((512, 12, 4, (0, 1, 2)), (512, 6, 2, (0, 1, 2)), (512, 6, 4, (0, 1, 2)))
# (rows, columns, order, matrix seeds) of the compressive scans
COMPRESSIVE = (96, 128, 4, (3, 4))
SETS = ("certify_wide", "one_block", "compressive")
COLUMNS = (
    "set",
    "matrix",
    "m",
    "order",
    "supports",
    "scan_ms",
    "delta",
    "delta_equal",
    "seed",
    "supports_solved",
    "supports_past_bound",
    "chunks",
)


def build_inputs():
    """(set, name, order, A) of every scan, built by this checkout's package;
    the certify_wide matrices as pipebench's workload draws them."""
    sys.path.insert(0, str(treebench.ROOT / "pipebench"))
    import bench_workloads
    from sparseobs import harness

    workload = bench_workloads.CertifyWide(treebench.ROOT, WORKLOAD_SEED)
    config = dataclasses.replace(
        workload.config, seed=bench_workloads.derive_seed(WORKLOAD_SEED, 0)
    )
    order = min(2 * config.sparsity, config.m)
    inputs = []
    for trial in range(config.trials):
        seed = harness._stream_seed(config.seed, trial, 0)
        A = harness.gen_gaussian_matrix(config.n, config.m, seed, config.scale)
        inputs.append(("certify_wide", f"seed {WORKLOAD_SEED} trial {trial}", order, A))
    for n, m, k, seeds in ONE_BLOCK:
        for seed in seeds:
            A = harness.gen_gaussian_matrix(n, m, seed)
            inputs.append(("one_block", f"{n}x{m} seed {seed}", k, A))
    n, m, k, seeds = COMPRESSIVE
    for seed in seeds:
        Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
        A = (Q * np.sign(np.diag(R)))[:n]
        inputs.append(("compressive", f"{n}x{m} seed {seed}", k, A / np.linalg.norm(A, axis=0)))
    return inputs


def measure(package, scan):
    """The scan (order, A) on package's tree, once counted and REPEATS times
    timed: [delta, seed, supports_solved, supports_past_bound, chunks,
    scan_ms]."""
    k, A = scan
    budget = math.comb(A.shape[1], k)
    chunks = sum(1 for _ in package.kernels._scan_groups(A.shape[1], k)[1])
    counts = {"past_bound": 0}

    def counted(max_deviation):
        def call(G, supports, delta):
            # the first call receives the value the scan starts from
            counts.setdefault("start", delta)
            counts["past_bound"] += len(supports)
            return max_deviation(G, supports, delta)

        return call

    with treebench.swapped(package.kernels, "max_deviation", counted):
        report = package.rip.rip_constant_exact(A, k, budget)
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        package.rip.rip_constant_exact(A, k, budget)
        best = min(best, time.perf_counter() - t0)
    found = [report.delta, counts["start"], report.supports_solved, counts["past_bound"]]
    return found + [chunks, best * 1e3]


def run(trees):
    inputs = build_inputs()
    runs = treebench.rounds(trees, ROUNDS, [(k, A) for *_, k, A in inputs], measure)

    first_label = next(iter(runs))
    first = runs[first_label][0]
    results = {}
    # each round's total scan time in seconds, by tree and set
    round_s = {}
    for label, rounds in runs.items():
        table = []
        for i, (kind, name, k, A) in enumerate(inputs):
            delta, seed, solved, past_bound, chunks, _ = rounds[0][i]
            scan_ms = statistics.median(r[i][5] for r in rounds)
            equal = None if label == first_label else delta == first[i][0]
            m = A.shape[1]
            table.append(
                [kind, name, m, k, math.comb(m, k), scan_ms, delta, equal, seed, solved]
                + [past_bound, chunks]
            )
        totals = {}
        for kind in SETS:
            members = [i for i, row in enumerate(table) if row[0] == kind]
            rows = [table[i] for i in members]
            round_s[label, kind] = [sum(r[i][5] for i in members) / 1e3 for r in rounds]
            totals[kind] = {
                "scans": len(rows),
                **treebench.quartiles(round_s[label, kind]),
                "supports": sum(row[4] for row in rows),
                "seed_below_delta": sum(row[8] < row[6] for row in rows),
                "supports_solved": sum(row[9] for row in rows),
                "supports_past_bound": sum(row[10] for row in rows),
                "chunks": sum(row[11] for row in rows),
                "delta_equal": None if label == first_label else all(row[7] for row in rows),
            }
            t = totals[kind]
            print(
                f"{label:>8}  {kind:<12}  {t['median_ms']:8.1f} ms "
                f"({t['q1_ms']:.1f}-{t['q3_ms']:.1f})  "
                f"seed below delta on {t['seed_below_delta']} of {t['scans']}  "
                f"{t['supports_solved']:6d} solved  "
                f"{t['supports_past_bound']:7d} of {t['supports']} past the bound  "
                f"{t['chunks']} chunks  "
                f"delta == {first_label}: {t['delta_equal']}"
            )
        results[label] = {"totals": totals, "scans": table}

    doc = {
        "function": "rip.rip_constant_exact",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "columns": list(COLUMNS),
        "results": results,
    }
    if treebench.parent_over_change(
        doc,
        "parent_over_change",
        lambda r: {kind: {"median_ms": t["median_ms"]} for kind, t in r["totals"].items()},
    ):
        per_round = {}
        for kind in SETS:
            pairs = zip(round_s["parent", kind], round_s["change", kind])
            ratios = [p / c for p, c in pairs]
            q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
            per_round[kind] = {"median": q2, "q1": q1, "q3": q3}
            ratio = doc["parent_over_change"][kind]["median_ms"]
            print(
                f"parent/change  {kind:<12}  ratio of medians {ratio:.3f}  "
                f"per-round ratio {q2:.3f} ({q1:.3f}-{q3:.3f})"
            )
        doc["parent_over_change_per_round"] = per_round
    treebench.write("rip", doc)
    unequal = [
        label
        for label, r in results.items()
        if any(t["delta_equal"] is False for t in r["totals"].values())
    ]
    if unequal:
        sys.exit(f"delta differs from {first_label}'s on {', '.join(unequal)}")


if __name__ == "__main__":
    treebench.main(__doc__, run)
