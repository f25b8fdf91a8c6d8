"""Repeat run.py over seeds and report each metric's median and spread.

Usage, from the repository root:

    python3 pipebench/sweep.py --seeds 1-10
    python3 pipebench/sweep.py --workloads oracle_agreement --seeds 1-5
    python3 pipebench/sweep.py --seeds 1-10 --trace-seed 1 --out pipebench/baseline.json

Runs are sequential.  For every workload and end-to-end metric it prints the
median, the quartiles of statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json; a spread
above the bound is marked FAIL, one above a third of it WARN.  --trace-seed
adds one traced run per workload.  --out writes all of it, with the
environment of the first run, as JSON.  Exits non-zero when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("demo_tanh", "oracle_agreement", "certify_wide")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit status {proc.returncode}")
    env = next(json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("environment: "))
    return json.loads(lines[-1]), env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"seconds": seconds, "seeds": args.seeds, "environment": None, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in args.seeds:
            result, env = run(workload, seed, seconds, 0)
            doc["environment"] = doc["environment"] or env
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()))
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        print(f"{workload}: {failed} of {attempted} trials failed")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            mark = "FAIL" if spread > bounds[name] else "WARN" if spread > bounds[name] / 3 else "ok"
            print(
                f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                f"spread {spread:.4f} bound {bounds[name]} {mark}"
            )
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals
            }
        if args.trace_seed is not None:
            result, _ = run(workload, args.trace_seed, seconds, 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        doc["workloads"][workload] = entry
    print(f"worst spread / bound, setup_s aside: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
