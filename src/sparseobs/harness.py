"""Reproducible experiment driver: seeded matrix/signal generation, the
per-trial generate -> certify -> recover -> compare pipeline, optional worker
pools, and CSV/JSON report emission.

Per-trial randomness is derived from (master seed, trial index, stream) with a
counter-based generator, so the worker count cannot reorder any draw and
identical configs reproduce reports byte for byte.  Wall-clock columns are
zeroed in reports by default for the same reason; pass include_timings=True
(CLI --timings) to keep them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .certify import (
    observability_horizon,
    recovery_constants,
    recovery_error_bound,
    recovery_horizon,
)
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    ShapeError,
    check_count,
    check_real,
    check_weights,
)
from .model import (
    DynamicalSystem,
    MeasurementModel,
    SparseProblem,
    document,
    from_doc,
    read_document,
    system_from_dict,
    to_doc,
    weight_condition_number,
)
from .ode import IntegrationConfig, integrate, settle_steps
from .recover import SolverConfig, recover_initial_state
from .rip import DEFAULT_SUPPORT_BUDGET, operator_norm, rip_constant_exact

# slack used for the recorded bound_satisfied flag
BOUND_TOL = 1e-6

# the reason a trial records when its exact constant would scan more than
# rip_budget supports; it then has no certificate and delta_2s is inf
REASON_RIP_BUDGET = "rip-budget-exceeded"

# fallback horizon when no certified horizon exists (the trial is then
# recorded as infeasible anyway)
_FALLBACK_TIME = 1.0

_MAGNITUDES = ("unit", "uniform")

# the keys of a config document and of its "matrix" object
_CONFIG_REQUIRED = ("seed", "trials", "system", "matrix", "sparsity", "noise_radius")
_CONFIG_OPTIONAL = ("magnitudes", "time", "weights", "solver", "integration", "rip_budget")
_MATRIX_OPTIONAL = ("m", "ensemble", "scale")
_CONFIG_NESTED = ("system", "matrix", "solver", "integration")

CSV_COLUMNS = (
    "trial",
    "feasible",
    "s",
    "n",
    "m",
    "T",
    "rk4_steps",
    "eps",
    "error_l2",
    "bound",
    "bound_satisfied",
    "residual",
    "iterations",
    "wall_ms",
)


def gen_gaussian_matrix(n: int, m: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """n x m matrix of i.i.d. normal entries with standard deviation
    scale/sqrt(n), from a counter-based generator keyed by seed."""
    n = check_count(n, "n")
    m = check_count(m, "m")
    scale = check_real(scale, "scale", positive=True)
    rng = np.random.Generator(np.random.Philox(check_count(seed, "seed", 0)))
    return rng.normal(0.0, scale / math.sqrt(n), size=(n, m))


def _stream_seed(master: int, trial: int, stream: int) -> int:
    """Collision-resistant per-(trial, stream) key for the counter-based RNG."""
    ss = np.random.SeedSequence([int(master), int(trial), int(stream)])
    return int(ss.generate_state(2, np.uint64)[0])


def _stream_rng(master: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_stream_seed(master, trial, stream)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a seeded experiment sweep.

    time is either a positive float or "auto", which certifies each trial's
    matrix first and sets T to 0.9 times the smaller certified horizon.
    weights=None means unit weights.  An adaptive integration config, the
    default, settles each trial's RK4 step count once T is known (see
    ode.settle_steps); the observation and the recovery both run at it.
    """

    seed: int
    trials: int
    system: DynamicalSystem
    n: int
    sparsity: int
    noise_radius: float
    time: object = "auto"
    ensemble: str = "gaussian"
    scale: float = 1.0
    magnitudes: str = "unit"
    weights: np.ndarray | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    integration: IntegrationConfig = field(
        default_factory=lambda: IntegrationConfig.adaptive(1e-12)
    )
    rip_budget: int = DEFAULT_SUPPORT_BUDGET

    def __post_init__(self):
        if self.ensemble != "gaussian":
            raise ConfigError(f"ensemble must be \"gaussian\", got {self.ensemble!r}")
        if self.magnitudes not in _MAGNITUDES:
            raise ConfigError(f"magnitudes must be one of {_MAGNITUDES}, got {self.magnitudes!r}")
        try:
            checked = {
                "seed": check_count(self.seed, "seed", 0),
                "trials": check_count(self.trials, "trials"),
                "n": check_count(self.n, "matrix rows n"),
                "sparsity": check_count(self.sparsity, "sparsity", 1, self.m),
                "noise_radius": check_real(self.noise_radius, "noise_radius"),
                "scale": check_real(self.scale, "scale", positive=True),
                "rip_budget": check_count(self.rip_budget, "rip_budget"),
            }
            if self.time != "auto":
                checked["time"] = check_real(self.time, "time", positive=True)
            if self.weights is not None:
                w = check_weights(self.weights, (self.m,)).copy()
                w.setflags(write=False)
                checked["weights"] = w
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def m(self):
        return self.system.dim

    def weight_vector(self):
        return np.ones(self.m) if self.weights is None else self.weights

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            document(doc, "config", _CONFIG_REQUIRED, _CONFIG_OPTIONAL)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        system = _in_field("system", system_from_dict, doc["system"])
        mat = _in_field("matrix", document, doc["matrix"], "matrix", ("n",), _MATRIX_OPTIONAL)
        if "m" in mat and _in_field("matrix.m", check_count, mat["m"], "matrix.m") != system.dim:
            raise ConfigError(
                f"matrix.m ({mat['m']}) must match the system dimension ({system.dim})"
            )
        # every other key, also inside "matrix", names a field of the same name
        values = {key: value for key, value in doc.items() if key not in _CONFIG_NESTED}
        values.update((key, value) for key, value in mat.items() if key != "m")
        for key, kind in (("solver", SolverConfig), ("integration", IntegrationConfig)):
            if doc.get(key) is not None:
                values[key] = _in_field(key, from_doc, kind, doc[key], key)
        return cls(system=system, **values)


def _in_field(name, decode, *args):
    """decode(*args), a refusal re-raised as a ConfigError naming the config
    field it came from."""
    try:
        return decode(*args)
    except (DomainError, ShapeError) as exc:
        raise ConfigError(f"in field {name!r}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a JSON config file, reporting the line and column on bad JSON
    and the offending field on bad values."""
    doc = read_document(path)
    try:
        return ExperimentConfig.from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TrialRecord:
    """One trial's inputs and results.  rk4_steps is the RK4 step count of
    every flow in the trial.  Solver fields are None on trials the solver
    skipped (infeasible certificate without force)."""

    trial: int
    feasible: bool
    reasons: tuple
    s: int
    n: int
    m: int
    T: float
    rk4_steps: int
    eps: float
    support: tuple
    values: tuple
    delta_2s: float
    op_norm: float
    tau: float
    observability_T_max: float | None
    recovery_T_max: float | None
    sparsity_coeff: float | None
    noise_coeff: float | None
    error_l2: float | None
    bound: float | None
    bound_satisfied: bool | None
    residual: float | None
    iterations: int | None
    converged: bool | None
    wall_ms: float

    def to_dict(self, include_timings=False):
        doc = to_doc(self)
        if not include_timings:
            doc["wall_ms"] = 0.0
        return doc


def _plant_signal(config: ExperimentConfig, trial: int):
    rng = _stream_rng(config.seed, trial, 1)
    m = config.m
    s = config.sparsity
    support = np.sort(rng.choice(m, size=s, replace=False))
    signs = rng.integers(0, 2, size=s) * 2.0 - 1.0
    if config.magnitudes == "unit":
        mags = np.ones(s)
    else:
        mags = rng.uniform(0.5, 1.5, size=s)
    x0 = np.zeros(m)
    x0[support] = signs * mags
    return x0, tuple(int(i) for i in support), tuple(float(v) for v in signs * mags)


def _noise_vector(config: ExperimentConfig, trial: int, n: int):
    if config.noise_radius == 0.0:
        return np.zeros(n)
    rng = _stream_rng(config.seed, trial, 2)
    e = rng.standard_normal(n)
    return e * (config.noise_radius / float(np.linalg.norm(e)))


def _trial_delta(A, s2, budget):
    """Exact constant when the enumeration fits the budget, else inf.  The
    Gershgorin upper bound of rip_constant_bounds is finite too, but no
    fallback: on gen_gaussian_matrix draws it is 1.2-2x the exact constant,
    so trials past the budget would be certified on a looser constant than
    the rest of the sweep."""
    try:
        return rip_constant_exact(A, s2, budget).delta
    except BudgetError:
        return math.inf


def _auto_time(lipschitz, delta, tau, a_norm):
    if not math.isfinite(delta) or delta >= 1.0:
        return _FALLBACK_TIME
    horizons = [
        observability_horizon(lipschitz, delta, a_norm),
        recovery_horizon(lipschitz, delta, tau, a_norm),
    ]
    finite = [h for h in horizons if h is not None and 0.0 < h < float("inf")]
    if not finite:
        return _FALLBACK_TIME
    return 0.9 * min(finite)


def run_trial(config: ExperimentConfig, trial: int, force: bool = False) -> TrialRecord:
    """Run one trial of the generate -> certify -> recover -> compare
    pipeline.  Randomness comes only from (config.seed, trial)."""
    t_start = time.perf_counter()
    system = config.system
    m = config.m
    s = config.sparsity
    weights = config.weight_vector()
    tau = weight_condition_number(weights)
    lipschitz = system.lipschitz

    A = gen_gaussian_matrix(config.n, m, _stream_seed(config.seed, trial, 0), config.scale)
    a_norm = operator_norm(A)
    s2 = min(2 * s, m)
    delta = _trial_delta(A, s2, config.rip_budget)

    T = config.time if config.time != "auto" else _auto_time(lipschitz, delta, tau, a_norm)

    if math.isfinite(delta):
        cert = recovery_constants(delta, tau, lipschitz, T, a_norm)
        feasible = cert.feasible
        reasons = cert.reasons
        obs_T, rec_T = cert.observability_T_max, cert.recovery_T_max
        c0, c1 = cert.sparsity_coeff, cert.noise_coeff
    else:
        cert = None
        feasible = False
        reasons = (REASON_RIP_BUDGET,)
        obs_T = rec_T = c0 = c1 = None

    # the observation and the recovery share one step count; under the zero,
    # linear and affine fields the observation steps the RK4 step map and
    # recovery maps x by the flow at 0, its chained product: equal to rounding
    integration = settle_steps(system, T, config.integration)
    x0, support, values = _plant_signal(config, trial)
    xT = integrate(system, x0, T, integration).final_state
    b = A @ xT + _noise_vector(config, trial, config.n)

    error = bound = bound_satisfied = residual = iterations = converged = None
    if feasible or force:
        problem = SparseProblem(
            system=system,
            measurement=MeasurementModel(
                matrix=A, time=T, noise_radius=config.noise_radius, weights=weights
            ),
            observation=b,
            sparsity=s,
        )
        outcome = recover_initial_state(problem, integration, config.solver)
        error = float(np.linalg.norm(outcome.estimate - x0))
        residual = outcome.residual
        iterations = outcome.iterations
        converged = outcome.converged
        if feasible:
            bound = recovery_error_bound(cert, x0, s, config.noise_radius)
            bound_satisfied = bool(error <= bound + BOUND_TOL)

    wall_ms = (time.perf_counter() - t_start) * 1e3
    return TrialRecord(
        trial=trial,
        feasible=feasible,
        reasons=reasons,
        s=s,
        n=config.n,
        m=m,
        T=float(T),
        rk4_steps=integration.step_count,
        eps=config.noise_radius,
        support=support,
        values=values,
        delta_2s=float(delta),
        op_norm=float(a_norm),
        tau=float(tau),
        observability_T_max=obs_T,
        recovery_T_max=rec_T,
        sparsity_coeff=c0,
        noise_coeff=c1,
        error_l2=error,
        bound=bound,
        bound_satisfied=bound_satisfied,
        residual=residual,
        iterations=iterations,
        converged=converged,
        wall_ms=wall_ms,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1, force: bool = False):
    """All trials of the config, in trial order.  workers > 1 runs trials on
    a process pool; records are merged strictly by trial index, so the output
    is identical to the sequential run."""
    workers = check_count(workers, "workers")
    indices = range(config.trials)
    if workers == 1:
        return [run_trial(config, i, force) for i in indices]
    # imported here, so a package import or a one-worker sweep skips them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork spares each child a fresh import of the package where available
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = None
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(run_trial, repeat(config), indices, repeat(force)))


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_report(records, fmt: str, path, include_timings: bool = False):
    """Write records to path as CSV or JSON and print the summary footer
    (mean error, max error/bound ratio) to standard output.

    Wall-clock times are zeroed unless include_timings is set, keeping
    reports byte-identical across runs and worker counts.
    """
    if not records:
        raise DomainError("records must be nonempty")
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be \"csv\" or \"json\", got {fmt!r}")

    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in records:
            row = r.to_dict(include_timings)
            lines.append(",".join(_csv_cell(row[col]) for col in CSV_COLUMNS))
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps([r.to_dict(include_timings) for r in records], indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(payload)

    errors = [r.error_l2 for r in records if r.error_l2 is not None]
    ratios = [
        r.error_l2 / r.bound
        for r in records
        if r.error_l2 is not None and r.bound is not None and r.bound > 0
    ]
    mean_error = f"{np.mean(errors):.6g}" if errors else "n/a"
    max_ratio = f"{max(ratios):.6g}" if ratios else "n/a"
    feasible = sum(1 for r in records if r.feasible)
    print(
        f"trials={len(records)} feasible={feasible} "
        f"mean_error={mean_error} max_error_bound_ratio={max_ratio}"
    )
