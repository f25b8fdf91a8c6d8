"""The benchmark's workloads.

Every workload is a closed loop run in one process: the next trial starts when
the previous one returns.  Trials come in rounds; a round is one sweep of the
workload (24 demo trials, 12 wide-matrix trials, or 7 oracle instances) and
its inputs derive only from (workload seed, round index), so the same seed
always replays the same trials.  Each trial checks its own outputs and returns
an Outcome; a failed check is counted, never dropped.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np

from sparseobs import certify, harness, ode, recover, rip
from sparseobs.model import DynamicalSystem, MeasurementModel, SparseProblem
from sparseobs.ode import IntegrationConfig

# largest error allowed on an eps = 0 trial, and largest distance between the
# convex estimate and the l0 oracle's
EXACT_TOL = 1e-6
# entries above this magnitude count as part of an estimate's support
SUPPORT_TOL = 1e-8


def derive_seed(*keys):
    """A 63-bit seed keyed by integers, independent across distinct keys."""
    state = np.random.SeedSequence([int(k) for k in keys]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def unit_spectral_matrix(dim, seed):
    """Seeded Gaussian matrix scaled to operator norm 1."""
    rng = np.random.Generator(np.random.Philox(seed))
    M = rng.normal(size=(dim, dim))
    return M / rip.operator_norm(M)


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One trial's verdict.  ratio is error/bound on feasible trials with a
    positive bound; oracle_diff the worst |convex - oracle| entry; digest the
    values that must repeat exactly when the trial is replayed."""

    failed: bool
    feasible: bool
    ratio: float | None = None
    oracle_diff: float | None = None
    digest: tuple = ()
    reason: str = ""


def _error(exc):
    return Outcome(failed=True, feasible=False, reason=f"{type(exc).__name__}: {exc}")


def sweep_trial(config, index):
    """One harness trial, checked: a feasible trial must converge and meet its
    certified bound, and on eps = 0 its error must stay within EXACT_TOL."""
    try:
        r = harness.run_trial(config, index)
    except Exception as exc:  # counted as a failed trial, the loop goes on
        return _error(exc)
    if not r.feasible:
        return Outcome(failed=False, feasible=False, digest=(r.trial, False, r.reasons))
    reasons = []
    if not r.converged:
        reasons.append("converged=False")
    if not r.bound_satisfied:
        reasons.append(f"error {r.error_l2:.3g} > bound {r.bound:.3g} + {harness.BOUND_TOL:g}")
    if config.noise_radius == 0.0 and r.error_l2 > EXACT_TOL:
        reasons.append(f"eps=0 error {r.error_l2:.3g} > {EXACT_TOL:g}")
    return Outcome(
        failed=bool(reasons),
        feasible=True,
        ratio=r.error_l2 / r.bound if r.bound > 0 else None,
        digest=(r.trial, True, r.error_l2, r.residual, r.iterations),
        reason="; ".join(reasons),
    )


def _horizon_time(lipschitz, delta, tau, a_norm):
    """0.9 times the smaller certified horizon, or 1.0 when neither is finite
    (static dynamics)."""
    if not math.isfinite(delta) or delta >= 1.0:
        return 1.0
    horizons = [
        certify.observability_horizon(lipschitz, delta, a_norm),
        certify.recovery_horizon(lipschitz, delta, tau, a_norm),
    ]
    finite = [h for h in horizons if h is not None and 0.0 < h < math.inf]
    return 0.9 * min(finite) if finite else 1.0


def oracle_trial(system, s, seed, integration, n=512):
    """One criterion-7 instance: Gaussian n x m matrix, planted s-sparse x0,
    eps = 0.  The convex estimate must converge, recover x0 within EXACT_TOL,
    and match the l0 oracle's support and values within EXACT_TOL."""
    try:
        m = system.dim
        A = harness.gen_gaussian_matrix(n, m, seed)
        delta = rip.rip_constant_exact(A, min(2 * s, m)).delta
        a_norm = rip.operator_norm(A)
        rng = np.random.Generator(np.random.Philox(derive_seed(seed, 1)))
        x0 = np.zeros(m)
        support = np.sort(rng.choice(m, size=s, replace=False))
        x0[support] = rng.uniform(0.5, 1.5, s) * (rng.integers(0, 2, s) * 2.0 - 1.0)
        T = _horizon_time(system.lipschitz, delta, 1.0, a_norm)
        cert = certify.recovery_constants(delta, 1.0, system.lipschitz, T, a_norm)
        if not cert.feasible:
            return Outcome(failed=False, feasible=False, digest=(seed, False, cert.reasons))
        b = A @ ode.integrate(system, x0, T, integration).final_state
        problem = SparseProblem(
            system=system,
            measurement=MeasurementModel(matrix=A, time=T, noise_radius=0.0, weights=np.ones(m)),
            observation=b,
            sparsity=s,
        )
        convex = recover.recover_initial_state(problem, integration)
        oracle = recover.l0_oracle(problem, integration)
        bound = certify.recovery_error_bound(cert, x0, s, 0.0)
    except Exception as exc:  # counted as a failed trial, the loop goes on
        return _error(exc)
    error = float(np.linalg.norm(convex.estimate - x0))
    diff = float(np.max(np.abs(convex.estimate - oracle.estimate)))
    reasons = []
    if not (convex.converged and oracle.converged):
        reasons.append(f"converged convex={convex.converged} oracle={oracle.converged}")
    if not np.array_equal(
        np.abs(convex.estimate) > SUPPORT_TOL, np.abs(oracle.estimate) > SUPPORT_TOL
    ):
        reasons.append("supports differ")
    if diff > EXACT_TOL:
        reasons.append(f"|convex - oracle| {diff:.3g} > {EXACT_TOL:g}")
    if error > bound + harness.BOUND_TOL or error > EXACT_TOL:
        reasons.append(f"eps=0 error {error:.3g} > {EXACT_TOL:g}")
    return Outcome(
        failed=bool(reasons),
        feasible=True,
        oracle_diff=diff,
        digest=(seed, True, error, diff, convex.iterations, oracle.iterations),
        reason="; ".join(reasons),
    )


# --- warm-up calls, one per kernel, on tiny inputs -------------------------

_TINY = DynamicalSystem.tanh_saturated([[0.3, 0.1], [0.0, 0.2]])
_TINY_PHI = np.array([[1.0, 0.2, 0.1], [0.0, 1.0, 0.3]])

WARM_UPS = {
    "rk4_path": lambda: ode.integrate(_TINY, [0.1, -0.2], 0.5, IntegrationConfig.fixed(4)),
    "rk4_flow_jacobian": lambda: ode.flow_with_jacobian(
        _TINY, [0.1, -0.2], 0.5, IntegrationConfig.fixed(4)
    ),
    "rip_scan": lambda: rip.rip_constant_exact(np.eye(3), 2),
    "admm_basis_pursuit": lambda: recover.solve_weighted_bpdn(
        _TINY_PHI, np.zeros(2), np.array([1.0, 0.5]), np.ones(3), 0.0
    ),
    "admm_lasso": lambda: recover.solve_weighted_bpdn(
        _TINY_PHI, np.zeros(2), np.array([1.0, 0.5]), np.ones(3), 0.1
    ),
}

# traced functions every sweep trial calls
_PIPELINE = (
    "harness.run_trial",
    "harness.gen_gaussian_matrix",
    "rip.operator_norm",
    "rip.rip_constant_exact",
    "certify.recovery_constants",
    "certify.recovery_error_bound",
    "ode.integrate",
    "ode.flow_with_jacobian",
    "recover.solve_weighted_bpdn",
    "recover.recover_initial_state",
    "kernels.rk4_path",
    "kernels.rk4_flow_jacobian",
    "kernels.rip_scan",
)


class Workload:
    """name, tail percentile, calibration kind (see bench_calibrate.py), how
    often a measured run repeats each trial (timing it by its fastest run),
    the kernels it warms, the traced functions it is designed to exercise, and
    round(k), the list of trials of round k."""

    name = ""
    tail_percentile = 50
    calibration = "loop"
    repeats = 1
    kernels = ()
    exercises = ()

    def warm_up(self):
        for kernel in self.kernels:
            WARM_UPS[kernel]()

    def round(self, k):
        raise NotImplementedError


class _Sweep(Workload):
    """A harness sweep: round k runs every trial of self.config with its seed
    drawn from (workload seed, k)."""

    def round(self, k):
        config = dataclasses.replace(self.config, seed=derive_seed(self.seed, k))
        return [functools.partial(sweep_trial, config, i) for i in range(config.trials)]


class DemoTanh(_Sweep):
    """configs/demo.json as shipped (24 tanh trials, n=512, m=12, s=2,
    eps=1e-3, auto time), with the sweep seed drawn from the workload seed.
    The user-facing sweep: recovery's flow Jacobians, penalized ADMM and line
    search dominate."""

    name = "demo_tanh"
    tail_percentile = 90
    # its ~0.1 s trials are as short as the host's slowdowns, so the faster of
    # two runs is timed; the other workloads vary more from trial to trial
    # than from run to run and spend the time on more distinct trials instead
    repeats = 2
    kernels = ("rk4_path", "rk4_flow_jacobian", "rip_scan", "admm_lasso")
    exercises = _PIPELINE + ("kernels.admm_lasso",)

    def __init__(self, root, seed):
        self.config = harness.load_experiment_config(Path(root) / "configs" / "demo.json")
        self.seed = seed


class CertifyWide(_Sweep):
    """Linear dynamics of dimension 24 on a unit-spectral matrix, n=512, s=3,
    eps=0, auto time, uniform magnitudes: every certificate needs delta_6, a
    scan of C(24, 6) = 134,596 supports.  The only workload where rip and
    certify dominate; recovery takes the eps=0 basis-pursuit path on a single
    affine linearization."""

    name = "certify_wide"
    tail_percentile = 75
    calibration = "scan"
    kernels = ("rk4_path", "rk4_flow_jacobian", "rip_scan", "admm_basis_pursuit")
    exercises = _PIPELINE + ("kernels.admm_basis_pursuit",)
    def __init__(self, root, seed):
        M = unit_spectral_matrix(24, derive_seed(seed, 0))
        self.config = harness.ExperimentConfig(
            seed=0,
            trials=12,
            system=DynamicalSystem.linear(M),
            n=512,
            sparsity=3,
            noise_radius=0.0,
            time="auto",
            magnitudes="uniform",
        )
        self.seed = seed


class OracleAgreement(Workload):
    """Criterion-7 instances (Gaussian 512 x 6 matrix, eps=0, unit-spectral
    M), each solved by recover_initial_state and l0_oracle and compared.  A
    round holds the zero, linear and tanh systems at s=1 and s=2, and a second
    tanh s=2 instance, integrated with 16 RK4 steps.  m=12 is left out: its
    tanh s=2 instance alone costs about two m=6 rounds.  The oracle's flow
    Jacobians and the eps=0 basis-pursuit ADMM do nearly all the work;
    penalized ADMM never runs.  The median trial is an affine s=2 instance,
    the p90 trial a tanh s=2 instance."""

    name = "oracle_agreement"
    tail_percentile = 90
    kernels = ("rk4_path", "rk4_flow_jacobian", "rip_scan", "admm_basis_pursuit")
    exercises = tuple(
        n for n in _PIPELINE if n != "harness.run_trial"
    ) + ("recover.l0_oracle", "kernels.admm_basis_pursuit")
    dim = 6
    # (kind, s) of each instance in a round; tanh s=2 costs vary most between
    # instances, so a round draws two of them
    schedule = tuple(
        (kind, s) for kind in ("zero", "linear", "tanh_saturated") for s in (1, 2)
    ) + (("tanh_saturated", 2),)
    # criterion 7 integrates with 256 RK4 steps, which leaves two rounds in a
    # run, too few to even out how much the tanh instances differ in cost
    integration = IntegrationConfig.fixed(16)

    def __init__(self, root, seed):
        self.seed = seed
        M = unit_spectral_matrix(self.dim, derive_seed(seed, 0, self.dim))
        self.systems = {
            "zero": DynamicalSystem.zero(self.dim),
            "linear": DynamicalSystem.linear(M),
            "tanh_saturated": DynamicalSystem.tanh_saturated(M),
        }

    def round(self, k):
        return [
            functools.partial(
                oracle_trial, self.systems[kind], s, derive_seed(self.seed, k, j), self.integration
            )
            for j, (kind, s) in enumerate(self.schedule)
        ]


WORKLOADS = {w.name: w for w in (DemoTanh, OracleAgreement, CertifyWide)}


def layer_probe():
    """Small fixed calls that reach every traced function once more: the five
    kernel cases of benchmarks/bench_kernels.py, one tiny sweep trial, and one
    tiny oracle call per right-hand-side kind.  The traced run
    makes them on every workload, so every wrapper is shown live and every
    layer metric is measured on every workload."""
    rng = np.random.Generator(np.random.Philox(7))
    M = rng.normal(size=(12, 12))
    M = M / rip.operator_norm(M)
    tanh12 = DynamicalSystem.tanh_saturated(M)
    x0 = np.linspace(-1.0, 1.0, 12)
    A = harness.gen_gaussian_matrix(128, 24, 11)
    xs = np.zeros(24)
    xs[[3, 17]] = [1.0, -0.8]
    y = A @ xs
    e = rng.standard_normal(128)
    y_noisy = y + 1e-3 * e / np.linalg.norm(e)
    R = harness.gen_gaussian_matrix(48, 14, 12)
    short = IntegrationConfig.fixed(16)
    M3 = unit_spectral_matrix(3, 5)
    tiny_sweep = harness.ExperimentConfig(
        seed=3,
        trials=1,
        system=DynamicalSystem.tanh_saturated(M3),
        n=32,
        sparsity=1,
        noise_radius=1e-3,
        integration=short,
    )
    A3 = harness.gen_gaussian_matrix(32, 3, 13)
    x3 = np.array([0.0, 0.8, 0.0])

    def tiny_oracle(system):
        b = A3 @ ode.integrate(system, x3, 0.2, short).final_state
        problem = SparseProblem(
            system=system,
            measurement=MeasurementModel(matrix=A3, time=0.2, noise_radius=0.0, weights=np.ones(3)),
            observation=b,
            sparsity=1,
        )
        return recover.l0_oracle(problem, short)

    return [
        lambda: ode.integrate(tanh12, x0, 1.0),
        lambda: ode.flow_with_jacobian(tanh12, x0, 1.0),
        lambda: rip.rip_constant_exact(R, 4),
        lambda: recover.solve_weighted_bpdn(A, np.zeros(128), y, np.ones(24), 0.0),
        lambda: recover.solve_weighted_bpdn(A, np.zeros(128), y_noisy, np.ones(24), 1e-3),
        lambda: harness.run_trial(tiny_sweep, 0),
        lambda: tiny_oracle(DynamicalSystem.zero(3)),
        lambda: tiny_oracle(DynamicalSystem.linear(M3)),
        lambda: tiny_oracle(DynamicalSystem.tanh_saturated(M3)),
    ]
