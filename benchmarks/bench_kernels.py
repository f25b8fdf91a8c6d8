"""Timings for the hot kernels, compiled vs pure-numpy fallback.

Run with no arguments: the script re-executes itself as a child process
with SPARSEOBS_NUMBA=1 and, when that child compiled its kernels, once more
with SPARSEOBS_NUMBA=0 (the dispatch flag is read at import time, so each
path needs a fresh interpreter), then prints a side-by-side table.  Without
numba both modes would run the same numpy code, so only the numpy column is
printed.  Each child warms every kernel before timing, so JIT compilation
never lands in a measured region.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def _bench(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_child(repeats):
    import numpy as np

    import sparseobs._accel as accel
    from sparseobs.harness import gen_gaussian_matrix
    from sparseobs.model import DynamicalSystem
    from sparseobs.ode import IntegrationConfig, flow_with_jacobian, integrate
    from sparseobs.recover import solve_weighted_bpdn
    from sparseobs.rip import operator_norm, rip_constant_exact

    rng = np.random.Generator(np.random.Philox(7))
    M = rng.normal(size=(12, 12))
    M = M / operator_norm(M)
    system = DynamicalSystem.tanh_saturated(M.tolist())
    x0 = np.linspace(-1.0, 1.0, 12)
    cfg = IntegrationConfig.fixed(256)

    A = gen_gaussian_matrix(128, 24, 11)
    xs = np.zeros(24)
    xs[[3, 17]] = [1.0, -0.8]
    y = A @ xs
    e = rng.standard_normal(128)
    y_noisy = y + 1e-3 * e / np.linalg.norm(e)
    w = np.ones(24)

    R = gen_gaussian_matrix(48, 14, 12)

    cases = {
        "trajectory (rk4, 256 steps, dim 12)": lambda: integrate(system, x0, 1.0, cfg),
        "flow jacobian (rk4, 256 steps, dim 12)": lambda: flow_with_jacobian(
            system, x0, 1.0, cfg
        ),
        "isometry scan (48x14, order 4)": lambda: rip_constant_exact(R, 4),
        "basis pursuit (128x24, eps=0)": lambda: solve_weighted_bpdn(
            A, np.zeros(128), y, w, 0.0
        ),
        "penalized solve (128x24, eps=1e-3)": lambda: solve_weighted_bpdn(
            A, np.zeros(128), y_noisy, w, 1e-3
        ),
    }

    results = {}
    for name, fn in cases.items():
        fn()  # warm: compile and prime caches
        results[name] = _bench(fn, repeats)
    print(json.dumps({"compiled": accel.NUMBA_ACTIVE, "timings": results}))


def _child(flag, repeats):
    env = dict(os.environ, SPARSEOBS_NUMBA=flag)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", "--repeats", str(repeats)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_parent(repeats):
    compiled = _child("1", repeats)
    names = list(compiled["timings"])
    width = max(len(n) for n in names)
    if not compiled["compiled"]:
        print("numba unavailable: timing the numpy path only\n")
        print(f"{'kernel':<{width}}  {'numpy':>10}")
        print("-" * (width + 12))
        for name in names:
            print(f"{name:<{width}}  {compiled['timings'][name] * 1e3:>8.3f}ms")
        return
    fallback = _child("0", repeats)
    print(f"{'kernel':<{width}}  {'compiled':>10}  {'fallback':>10}  {'speedup':>8}")
    print("-" * (width + 34))
    for name in names:
        fast = compiled["timings"][name]
        slow = fallback["timings"][name]
        print(f"{name:<{width}}  {fast * 1e3:>8.3f}ms  {slow * 1e3:>8.3f}ms  {slow / fast:>7.1f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    args = parser.parse_args()
    if args.child:
        run_child(args.repeats)
    else:
        run_parent(args.repeats)


if __name__ == "__main__":
    main()
