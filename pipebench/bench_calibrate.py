"""Machine-speed calibration for the benchmark's timings.

On a shared host the same computation can take 15-30% longer for tens of
seconds at a time, and every CPU-bound loop slows together.  The benchmark
therefore runs a short calibration pass between trials: fixed numpy work owned
by the benchmark, touching no sparseobs code, of the kind that dominates the
workload.  "loop" is a Python-level RK-style loop over 6 x 6 arrays (flows and
ADMM iterations); "scan" gathers 6 x 6 Gram submatrices and eigensolves them
in one batch (the exact RIP scan).  Each reported time is the measured wall
time multiplied by REFERENCE_S / (mean calibration time around it): the time
the trial would take on a machine where one calibration pass takes
REFERENCE_S.  Set-up times are scaled the same way by the time a fresh
interpreter takes to import numpy, against SETUP_REFERENCE_S.  A change to the
program cannot move the calibration, so it moves the scaled times exactly as
it moves the raw ones.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

# one calibration pass takes this long on the reference machine
REFERENCE_S = 1e-3
# and a fresh interpreter imports numpy in this long
SETUP_REFERENCE_S = 0.1

_rng = np.random.Generator(np.random.Philox(20260815))
_M = _rng.normal(size=(6, 6)) / 3.0
_X0 = np.linspace(-1.0, 1.0, 6)
_A = _rng.normal(size=(128, 24))
_GRAM = _A.T @ _A
_SUPPORTS = np.sort(np.argsort(_rng.random((320, 24)), axis=1)[:, :6], axis=1)


def _loop():
    x = _X0.copy()
    P = np.eye(6)
    for _ in range(120):
        y = np.tanh(_M @ x)
        J = (1.0 - y * y)[:, None] * _M
        x = x + 0.01 * y
        P = P + 0.01 * (J @ P)
    return float(P.sum())


def _scan():
    sub = _GRAM[_SUPPORTS[:, :, None], _SUPPORTS[:, None, :]]
    return float(np.linalg.eigvalsh(sub)[:, -1].sum())


KINDS = {"loop": _loop, "scan": _scan}


def sample(kind):
    """Wall time of one calibration pass of the given kind."""
    work = KINDS[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def factor(samples):
    """Scale from measured to reference time, given nearby calibration samples."""
    return REFERENCE_S / statistics.fmean(samples)


def time_to_ready(cmd, cwd):
    """Wall time from starting cmd to the 'ready' line it prints; the process
    is waited for before returning."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1]} exited with status {proc.returncode} before 'ready'")
    return elapsed


def interpreter_start(cwd):
    """Wall time for a fresh interpreter to import numpy."""
    return time_to_ready([sys.executable, "-c", "import numpy; print('ready')"], cwd)
