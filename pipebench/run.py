"""Pipeline benchmark for sparseobs: certify -> estimate -> check.

Usage, from the repository root:

    python3 pipebench/run.py --workload demo_tanh --seed 1 --seconds 20 --trace 0

Workloads: demo_tanh, oracle_agreement, certify_wide (see bench_workloads.py).

--trace 0 measures the end-to-end metrics with tracing off: set-up time as the
median of nine fresh interpreters that import sparseobs, build the inputs and
warm every kernel the workload uses; then whole rounds of trials in a closed
loop, at least two, until --seconds have passed.  --trace 1 runs round 0
untraced, traced (followed by the layer probe), traced again and untraced
again, and reports the per-layer metrics of the first traced pass; it does a
fixed amount of work and ignores --seconds.
Times are scaled to a reference machine speed (see bench_calibrate.py); the
unscaled figures are printed too.

Every trial checks its outputs.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it print
every metric by name with its unit, and the environment the numbers came from.
Exit status: 0 all checks passed, 1 an output check failed, 2 the program or
the benchmark definition could not be loaded, 3 the trace cannot be trusted.
A copy of each result, and the spans of a traced run, go to .bench_out/.
"""

import os

# one BLAS thread, fixed before numpy is first imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import bench_calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
# whole rounds keep each run's mix of trials fixed; two rounds at least
MIN_ROUNDS = 2
# the named layers' self time must cover this share of a traced pass
MIN_COVERAGE = 0.90


class BenchError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def load_program():
    """Import sparseobs from this checkout's src/, never from elsewhere."""
    if not (SRC / "sparseobs" / "__init__.py").is_file():
        raise BenchError(f"no sparseobs package under {SRC}", 2)
    sys.path.insert(0, str(SRC))
    import sparseobs

    if SRC not in Path(sparseobs.__file__).resolve().parents:
        raise BenchError(f"sparseobs imported from {sparseobs.__file__}, not {SRC}", 2)


def load_definition():
    """BENCHMARK.json plus this directory's predictions, checked to agree."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        predictions = json.loads((HERE / "predictions.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"benchmark definition unreadable: {exc}", 2) from exc
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in predictions]
    if missing:
        raise BenchError(f"predictions.json has no entry for {missing}", 2)
    return bench, units


def environment(args):
    from sparseobs import _accel
    import numpy as np

    return {
        "calibration_ms": 1e3
        * statistics.median(
            bench_calibrate.sample(workload_class(args).calibration) for _ in range(21)
        ),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "numba_active": _accel.NUMBA_ACTIVE,
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def workload_class(args):
    import bench_workloads

    return bench_workloads.WORKLOADS[args.workload]


def build(args):
    workload = workload_class(args)(ROOT, args.seed)
    workload.warm_up()
    return workload


def setup_probe(args):
    build(args)
    print("ready", flush=True)


def measure_setup(args):
    """Median time from starting a fresh interpreter to its 'ready' line,
    scaled and raw.  Each probe is scaled by the mean of the numpy-import
    references timed just before and just after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        refs = [bench_calibrate.interpreter_start(ROOT)]
        raw = []
        for _ in range(SETUP_PROBES):
            raw.append(bench_calibrate.time_to_ready(cmd, ROOT))
            refs.append(bench_calibrate.interpreter_start(ROOT))
    except RuntimeError as exc:
        raise BenchError(f"set-up probe failed: {exc}", 2) from exc
    scaled = [
        t * bench_calibrate.SETUP_REFERENCE_S / statistics.fmean(refs[i : i + 2])
        for i, t in enumerate(raw)
    ]
    return statistics.median(scaled), statistics.median(raw)


def summarize(outcomes):
    """Correctness figures of a list of trial outcomes."""
    failed = [o for o in outcomes if o.failed]
    ratios = [o.ratio for o in outcomes if o.ratio is not None]
    diffs = [o.oracle_diff for o in outcomes if o.oracle_diff is not None]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "failed_fraction": len(failed) / len(outcomes),
        "feasible": sum(o.feasible for o in outcomes),
        "max_error_bound_ratio": max(ratios) if ratios else None,
        "oracle_max_abs_diff": max(diffs) if diffs else None,
        "failures": [o.reason for o in failed[:10]],
    }


def timed_round(trials, kind, outcomes, repeats=1, tracer=None, number=0):
    """Run each trial `repeats` times back to back, with a calibration sample
    of the given kind before the first run and after every run.  A run is
    scaled by the mean of the samples on either side of it, and a trial's time
    is its fastest run, which filters slowdowns shorter than a trial that the
    samples miss.  Returns the raw and the scaled trial times."""
    times, scaled, samples = [], [], [bench_calibrate.sample(kind)]
    for i, trial in enumerate(trials):
        if tracer is not None:
            tracer.trial = (number, i)
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            outcomes.append(trial())
            elapsed = time.perf_counter() - t0
            samples.append(bench_calibrate.sample(kind))
            runs.append((elapsed * bench_calibrate.factor(samples[-2:]), elapsed))
        best = min(runs)
        scaled.append(best[0])
        times.append(best[1])
    return times, scaled


def run_untraced(args):
    import numpy as np

    setup_s, setup_raw = measure_setup(args)
    workload = build(args)
    raw, scaled, outcomes = [], [], []
    t0 = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
        times, scaled_times = timed_round(
            workload.round(rounds), workload.calibration, outcomes, workload.repeats
        )
        raw += times
        scaled += scaled_times
        rounds += 1
    p = workload.tail_percentile
    tail = float(np.percentile(scaled, p))
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": len(scaled) / sum(scaled),
        "trial_ms_p50": 1e3 * statistics.median(scaled),
        "trial_ms_tail": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = summarize(outcomes)
    detail.update(
        rounds=rounds,
        elapsed_s=time.perf_counter() - t0,
        trials_timed=len(scaled),
        tail_percentile=p,
        tail_samples_beyond=sum(t > tail for t in scaled),
        raw={
            "setup_s": setup_raw,
            "trials_per_s": len(raw) / sum(raw),
            "trial_ms_p50": 1e3 * statistics.median(raw),
            "trial_ms_tail": 1e3 * float(np.percentile(raw, p)),
        },
    )
    return metrics, detail


def run_traced(args, units):
    import bench_trace
    import bench_workloads

    workload = build(args)
    probe = bench_workloads.layer_probe()
    trials = workload.round(0)

    def timed_pass(number):
        outs = []
        times, scaled = timed_round(trials, workload.calibration, outs, 1, tracer, number)
        return outs, sum(times), sum(scaled) / sum(times)

    # untraced and traced passes alternate, so warm-up favours neither side
    tracer = bench_trace.Tracer()
    untraced, untraced_s, speed0 = timed_pass(0)
    try:
        tracer.install()
    except bench_trace.TraceError as exc:
        raise BenchError(str(exc), 3) from exc
    try:
        outs1, wall1, speed = timed_pass(1)
        for i, call in enumerate(probe):
            tracer.trial = ("probe", i)
            call()
        spans1 = tracer.take()
        outs2, wall2, speed2 = timed_pass(2)
        spans2 = tracer.take()
    finally:
        tracer.uninstall()
    untraced2, untraced2_s, speed3 = timed_pass(3)

    work1 = bench_trace.work_counts([s for s in spans1 if s[4][0] == 1])
    work2 = bench_trace.work_counts(spans2)
    self_s = bench_trace.self_times(spans1)
    covered = sum(s for s, span in zip(self_s, spans1) if span[4][0] == 1)
    probed = {span[0] for span in spans1 if span[4][0] == "probe"}
    problems = []
    digests = {tuple(o.digest for o in outs) for outs in (untraced, outs1, outs2, untraced2)}
    if len(digests) != 1:
        problems.append("traced passes returned other results than the untraced pass")
    if work1 != work2:
        diff = sorted(k for k in set(work1) | set(work2) if work1.get(k) != work2.get(k))
        problems.append(f"work counts differ between two traced passes: {diff}")
    idle = [name for name in workload.exercises if not work1.get(f"{name}.calls")]
    if idle:
        problems.append(f"{args.workload} is designed to call {idle} but they recorded no calls")
    dead = sorted(set(bench_trace.TRACED) - probed)
    if dead:
        problems.append(f"the layer probe reached no span of {dead}")
    if covered < MIN_COVERAGE * wall1:
        problems.append(
            f"named layers cover {covered / wall1:.1%} of traced wall time, "
            f"below {MIN_COVERAGE:.0%}"
        )
    if problems:
        raise BenchError("trace check failed: " + "; ".join(problems), 3)

    metrics = bench_trace.layer_metrics(spans1, self_s)
    # span times are scaled by the speed of the pass that recorded them
    for name, unit in units.items():
        if unit == "s" and name in metrics:
            metrics[name] *= speed
    traced_s = 0.5 * (wall1 * speed + wall2 * speed2)
    untraced_s = 0.5 * (untraced_s * speed0 + untraced2_s * speed3)
    detail = summarize(untraced + outs1 + outs2 + untraced2)
    metrics.update(
        {
            "trace.wall_s": wall1 * speed,
            "trace.untraced_wall_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.coverage": covered / wall1,
            "check.max_error_bound_ratio": detail["max_error_bound_ratio"] or 0.0,
            "check.oracle_max_abs_diff": detail["oracle_max_abs_diff"] or 0.0,
        }
    )
    detail.update(trials_per_pass=len(trials), work_counts=work1)
    write_spans(args, spans1, self_s)
    return metrics, detail


def write_spans(args, spans, self_s):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w") as fh:
        for i, (span, own) in enumerate(zip(spans, self_s)):
            name, start, end, parent, trial, note = span
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "trial": list(trial),
                        "self_s": own,
                        "note": note,
                    }
                )
                + "\n"
            )


def baseline_notice(env):
    """A warning when the committed baseline ran another kernel path."""
    try:
        base = json.loads((HERE / "baseline.json").read_text())["environment"]
    except (OSError, ValueError, KeyError):
        return None
    if base.get("numba_active") != env["numba_active"]:
        return (
            f"NOTICE: numba_active={env['numba_active']} but pipebench/baseline.json was "
            f"measured with numba_active={base.get('numba_active')}; do not compare them"
        )
    return None


def report(args, env, metrics, detail, units):
    correct = detail["failed"] == 0
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    notice = baseline_notice(env)
    if notice:
        print(notice)
        print(notice, file=sys.stderr)
    for name, value in metrics.items():
        extra = ""
        if name == "trial_ms_tail":
            extra = (
                f"  (p{detail['tail_percentile']}, {detail['tail_samples_beyond']} "
                f"of {detail['trials_timed']} trials beyond)"
            )
        print(f"  {name:<48} {value:>14.6g} {units[name]}{extra}")
    if "raw" in detail:
        print(
            "  unscaled wall-clock figures: "
            + " ".join(f"{k}={v:.6g}" for k, v in detail["raw"].items())
        )
    ratio = detail["max_error_bound_ratio"]
    diff = detail["oracle_max_abs_diff"]
    print(
        f"  failed_fraction {detail['failed_fraction']:.6g} "
        f"({detail['failed']} of {detail['attempted']} runs, {detail['feasible']} feasible)"
    )
    print(f"  max_error_bound_ratio {'n/a' if ratio is None else f'{ratio:.6g}'}")
    print(f"  oracle_max_abs_diff {'n/a' if diff is None else f'{diff:.6g}'}")
    for reason in detail["failures"]:
        print(f"  FAILED: {reason}")
        print(f"FAILED: {reason}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "detail": detail, **result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("demo_tanh", "oracle_agreement", "certify_wide")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        load_program()
        if args.setup_probe:
            setup_probe(args)
            return 0
        bench, units = load_definition()
        wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        metrics, detail = run_traced(args, units) if args.trace else run_untraced(args)
        if sorted(metrics) != sorted(wanted):
            raise BenchError(
                f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with BENCHMARK.json", 2
            )
        metrics = {name: metrics[name] for name in wanted}
        return report(args, environment(args), metrics, detail, units)
    except BenchError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
