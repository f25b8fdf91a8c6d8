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
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .certify import (
    observability_horizon,
    recovery_constants,
    recovery_error_bound,
    recovery_horizon,
)
from .errors import BudgetError, ConfigError, DomainError, ShapeError
from .model import (
    DynamicalSystem,
    MeasurementModel,
    SparseProblem,
    json_float,
    system_from_dict,
    system_to_dict,
    weight_condition_number,
)
from .ode import IntegrationConfig, integrate
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

CSV_COLUMNS = (
    "trial",
    "feasible",
    "s",
    "n",
    "m",
    "T",
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
    n = int(n)
    m = int(m)
    if n < 1 or m < 1:
        raise DomainError(f"n and m must be >= 1, got {n} and {m}")
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0):
        raise DomainError(f"scale must be positive, got {scale}")
    rng = np.random.Generator(np.random.Philox(int(seed)))
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
    weights=None means unit weights.
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
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    rip_budget: int = DEFAULT_SUPPORT_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        trials = int(self.trials)
        if trials < 1:
            raise ConfigError(f"trials must be >= 1, got {trials}")
        object.__setattr__(self, "trials", trials)
        n = int(self.n)
        if n < 1:
            raise ConfigError(f"matrix rows n must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        m = self.system.dim
        s = int(self.sparsity)
        if not (1 <= s <= m):
            raise ConfigError(f"sparsity must lie in [1, {m}], got {s}")
        object.__setattr__(self, "sparsity", s)
        eps = float(self.noise_radius)
        if not (math.isfinite(eps) and eps >= 0):
            raise ConfigError(f"noise_radius must be nonnegative, got {eps}")
        object.__setattr__(self, "noise_radius", eps)
        if self.time != "auto":
            t = float(self.time)
            if not (math.isfinite(t) and t > 0):
                raise ConfigError(f"time must be positive or \"auto\", got {self.time!r}")
            object.__setattr__(self, "time", t)
        if self.ensemble != "gaussian":
            raise ConfigError(f"ensemble must be \"gaussian\", got {self.ensemble!r}")
        scale = float(self.scale)
        if not (math.isfinite(scale) and scale > 0):
            raise ConfigError(f"scale must be positive, got {scale}")
        object.__setattr__(self, "scale", scale)
        if self.magnitudes not in _MAGNITUDES:
            raise ConfigError(f"magnitudes must be one of {_MAGNITUDES}, got {self.magnitudes!r}")
        if self.weights is not None:
            w = np.array(self.weights, dtype=float)
            if w.shape != (m,):
                raise ConfigError(f"weights must have shape ({m},), got {w.shape}")
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ConfigError("weights must be strictly positive and finite")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
        budget = int(self.rip_budget)
        if budget < 1:
            raise ConfigError(f"rip_budget must be >= 1, got {budget}")
        object.__setattr__(self, "rip_budget", budget)

    @property
    def m(self):
        return self.system.dim

    def weight_vector(self):
        return np.ones(self.m) if self.weights is None else self.weights

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config document must be an object, got {type(doc).__name__}")
        known = {
            "seed",
            "trials",
            "system",
            "matrix",
            "sparsity",
            "magnitudes",
            "noise_radius",
            "time",
            "weights",
            "solver",
            "integration",
            "rip_budget",
        }
        extra = set(doc) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        for required in ("seed", "trials", "system", "matrix", "sparsity", "noise_radius"):
            if required not in doc:
                raise ConfigError(f"missing config field '{required}'")
        try:
            system = system_from_dict(doc["system"])
        except (DomainError, ShapeError) as exc:
            raise ConfigError(f"in field 'system': {exc}") from exc
        mat = doc["matrix"]
        if not isinstance(mat, dict) or "n" not in mat:
            raise ConfigError("field 'matrix' must be an object with at least 'n'")
        try:
            m_ok = "m" not in mat or int(mat["m"]) == system.dim
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"in field 'matrix.m': {exc}") from exc
        if not m_ok:
            raise ConfigError(
                f"matrix.m ({mat['m']}) must match the system dimension ({system.dim})"
            )
        solver = SolverConfig()
        if doc.get("solver") is not None:
            try:
                solver = SolverConfig.from_dict(doc["solver"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"in field 'solver': {exc}") from exc
        integration = IntegrationConfig()
        if doc.get("integration") is not None:
            idoc = doc["integration"]
            if not isinstance(idoc, dict):
                raise ConfigError("field 'integration' must be an object")
            try:
                integration = IntegrationConfig(**idoc)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"in field 'integration': {exc}") from exc
        try:
            return cls(
                seed=doc["seed"],
                trials=doc["trials"],
                system=system,
                n=mat["n"],
                sparsity=doc["sparsity"],
                noise_radius=doc["noise_radius"],
                time=doc.get("time", "auto"),
                ensemble=mat.get("ensemble", "gaussian"),
                scale=mat.get("scale", 1.0),
                magnitudes=doc.get("magnitudes", "unit"),
                weights=doc.get("weights"),
                solver=solver,
                integration=integration,
                rip_budget=doc.get("rip_budget", DEFAULT_SUPPORT_BUDGET),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "system": system_to_dict(self.system),
            "matrix": {"n": self.n, "m": self.m, "ensemble": self.ensemble, "scale": self.scale},
            "sparsity": self.sparsity,
            "magnitudes": self.magnitudes,
            "noise_radius": self.noise_radius,
            "time": self.time,
            "weights": None if self.weights is None else self.weights.tolist(),
            "solver": asdict(self.solver),
            "integration": asdict(self.integration),
            "rip_budget": self.rip_budget,
        }


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a JSON config file, reporting the line and column on bad JSON
    and the offending field on bad values."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return ExperimentConfig.from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class TrialRecord:
    """One trial's inputs and results.  Solver fields are None on trials the
    solver skipped (infeasible certificate without force)."""

    trial: int
    feasible: bool
    reasons: tuple
    s: int
    n: int
    m: int
    T: float
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
        return {
            "trial": self.trial,
            "feasible": self.feasible,
            "reasons": list(self.reasons),
            "s": self.s,
            "n": self.n,
            "m": self.m,
            "T": self.T,
            "eps": self.eps,
            "support": list(self.support),
            "values": list(self.values),
            "delta_2s": json_float(self.delta_2s),
            "op_norm": self.op_norm,
            "tau": self.tau,
            "observability_T_max": json_float(self.observability_T_max),
            "recovery_T_max": json_float(self.recovery_T_max),
            "sparsity_coeff": json_float(self.sparsity_coeff),
            "noise_coeff": json_float(self.noise_coeff),
            "error_l2": self.error_l2,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_ms": self.wall_ms if include_timings else 0.0,
        }


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
    coherence upper bound is no fallback: it needs unit-norm columns, which
    gen_gaussian_matrix never draws."""
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

    x0, support, values = _plant_signal(config, trial)
    xT = integrate(system, x0, T, config.integration).final_state
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
        outcome = recover_initial_state(problem, config.integration, config.solver)
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


def _run_trial_args(args):
    config, trial, force = args
    return run_trial(config, trial, force)


def run_experiment(config: ExperimentConfig, workers: int = 1, force: bool = False):
    """All trials of the config, in trial order.  workers > 1 runs trials on
    a process pool; records are merged strictly by trial index, so the output
    is identical to the sequential run."""
    workers = int(workers)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    indices = range(config.trials)
    if workers == 1:
        return [run_trial(config, i, force) for i in indices]
    # fork spares each child a fresh import of the package where available
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = None
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(_run_trial_args, [(config, i, force) for i in indices]))


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
