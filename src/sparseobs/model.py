"""Domain types and vector primitives: the right-hand-side catalog, measurement
descriptions, weighted-l1 machinery, best s-term truncation, and the one JSON
codec.

A DynamicalSystem describes f; only kernels evaluates f and its Jacobian, on
its kernel_args() (see kernels._march and kernels._step_map).  to_doc
encodes systems, problems, reports and solver and integration configs;
system_from_dict, problem_from_dict and from_doc decode them.

All container types are immutable after construction (arrays are copied and
marked read-only), so instances are safe to share across worker processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    ShapeError,
    check_array,
    check_count,
    check_matrix,
    check_real,
    check_weights,
)
from . import kernels

RHS_KINDS = ("zero", "linear", "affine", "tanh_saturated")

_KIND_CODES = {
    "zero": kernels.RHS_LINEAR,
    "linear": kernels.RHS_LINEAR,
    "affine": kernels.RHS_LINEAR,
    "tanh_saturated": kernels.RHS_TANH,
}
_KIND_ALIASES = {"tanh-saturated": "tanh_saturated"}

# slack for validating a user-supplied Lipschitz constant against the
# analytic one: the SVD's largest singular value is exact to rounding, but a
# norm computed another way (another SVD routine, an iterative method) may
# differ in the last digits
_LIP_SLACK = 1e-9


def _frozen(arr):
    """arr as a read-only copy, safe to share."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DynamicalSystem:
    """An autonomous ODE x' = f(x) from the globally Lipschitz catalog.

    kind selects f: "zero" (f = 0), "linear" (f = Mx), "affine" (f = Mx + c),
    or "tanh_saturated" (f = tanh(Mx), componentwise).  lipschitz stores a
    global Lipschitz constant for f; when omitted it is filled with the exact
    analytic one (0 for the zero field, the operator 2-norm of M otherwise).
    A supplied value may exceed the analytic bound but not undercut it.
    """

    dim: int
    kind: str
    matrix: np.ndarray | None = None
    drift: np.ndarray | None = None
    lipschitz: float | None = None

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind, self.kind) if isinstance(self.kind, str) else self.kind
        if kind not in RHS_KINDS:
            raise DomainError(f"unknown rhs kind {self.kind!r}; expected one of {RHS_KINDS}")
        object.__setattr__(self, "kind", kind)

        dim = check_count(self.dim, "dim")
        object.__setattr__(self, "dim", dim)

        if kind == "zero":
            if self.matrix is not None or self.drift is not None:
                raise DomainError("zero systems take no matrix or drift")
        else:
            if self.matrix is None:
                raise DomainError(f"{kind} systems require a matrix")
            matrix = _frozen(check_array(self.matrix, (dim, dim), "matrix"))
            object.__setattr__(self, "matrix", matrix)
            if kind == "affine":
                if self.drift is None:
                    raise DomainError("affine systems require a drift vector")
                drift = _frozen(check_array(self.drift, (dim,), "drift"))
                object.__setattr__(self, "drift", drift)
            elif self.drift is not None:
                raise DomainError(f"{kind} systems take no drift vector")

        analytic = 0.0 if kind == "zero" else float(np.linalg.norm(self.matrix, 2))
        if self.lipschitz is None:
            object.__setattr__(self, "lipschitz", analytic)
        else:
            lip = check_real(self.lipschitz, "lipschitz")
            if lip < analytic - _LIP_SLACK * max(1.0, analytic):
                raise DomainError(
                    f"lipschitz {lip} undercuts the analytic bound {analytic:.12g}"
                )
            object.__setattr__(self, "lipschitz", lip)

    @staticmethod
    def _square_dim(matrix):
        matrix = check_matrix(matrix, "matrix")
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"matrix must be square, got shape {matrix.shape}")
        return matrix, matrix.shape[0]

    @classmethod
    def zero(cls, dim):
        return cls(dim=dim, kind="zero")

    @classmethod
    def linear(cls, matrix):
        matrix, dim = cls._square_dim(matrix)
        return cls(dim=dim, kind="linear", matrix=matrix)

    @classmethod
    def affine(cls, matrix, drift):
        matrix, dim = cls._square_dim(matrix)
        return cls(dim=dim, kind="affine", matrix=matrix, drift=drift)

    @classmethod
    def tanh_saturated(cls, matrix):
        matrix, dim = cls._square_dim(matrix)
        return cls(dim=dim, kind="tanh_saturated", matrix=matrix)

    def kernel_args(self):
        """(kind code, matrix, drift) with concrete float64 arrays for the
        kernels.  The zero, linear and affine kinds run as f = M x + c; the
        zero kind's explicit zero arrays give slopes and sensitivity
        increments of exactly 0."""
        m = self.dim
        M = np.zeros((m, m)) if self.matrix is None else np.ascontiguousarray(self.matrix)
        c = np.zeros(m) if self.drift is None else np.ascontiguousarray(self.drift)
        return _KIND_CODES[self.kind], M, c


@dataclass(frozen=True)
class MeasurementModel:
    """Terminal-time linear measurement b = A x(T) + noise, with the noise
    bounded in l2 norm by noise_radius, plus the per-coordinate weights used
    by the recovery objective."""

    matrix: np.ndarray
    time: float
    noise_radius: float
    weights: np.ndarray

    def __post_init__(self):
        A = _frozen(check_matrix(self.matrix, "measurement matrix"))
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "time", check_real(self.time, "measurement time", positive=True))
        object.__setattr__(self, "noise_radius", check_real(self.noise_radius, "noise_radius"))
        object.__setattr__(self, "weights", _frozen(check_weights(self.weights, (A.shape[1],))))

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def m(self):
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SparseProblem:
    """A recovery instance: the dynamics, the measurement description, the
    observed vector, and the sparsity level assumed of the initial state."""

    system: DynamicalSystem
    measurement: MeasurementModel
    observation: np.ndarray
    sparsity: int

    def __post_init__(self):
        if self.measurement.m != self.system.dim:
            raise ShapeError(
                f"measurement matrix has {self.measurement.m} columns "
                f"but the system dimension is {self.system.dim}"
            )
        b = _frozen(check_array(self.observation, (self.measurement.n,), "observation"))
        object.__setattr__(self, "observation", b)
        s = check_count(self.sparsity, "sparsity", 1, self.system.dim)
        object.__setattr__(self, "sparsity", s)

    @cached_property
    def _memo(self):
        """The estimators' fixed work on this problem, filled by
        recover._prepared.  It is no field, so to_doc, == and repr never
        see it, and as the inputs are read-only copies it cannot go stale."""
        return {}


@dataclass(frozen=True)
class RecoveryOutcome:
    """Result of a recovery run: the estimate, its measurement residual, its
    weighted-l1 norm, the outer iteration count, and a convergence flag."""

    estimate: np.ndarray
    residual: float
    weighted_l1: float
    iterations: int
    converged: bool

    def __post_init__(self):
        est = np.array(self.estimate, dtype=float)
        if est.ndim != 1:
            raise ShapeError(f"estimate must be 1-d, got shape {est.shape}")
        est.setflags(write=False)
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "residual", check_real(self.residual, "residual"))
        object.__setattr__(self, "weighted_l1", check_real(self.weighted_l1, "weighted_l1"))
        object.__setattr__(self, "iterations", check_count(self.iterations, "iterations", 0))
        object.__setattr__(self, "converged", bool(self.converged))


def weighted_l1_norm(x: np.ndarray, weights: np.ndarray) -> float:
    """sum_i weights_i * |x_i| for strictly positive weights."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"x must be 1-d, got shape {x.shape}")
    w = check_weights(weights, x.shape)
    return float(np.sum(w * np.abs(x)))


def weight_condition_number(weights: np.ndarray) -> float:
    """max(weights) / min(weights) for strictly positive weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ShapeError(f"weights must be a nonempty 1-d array, got shape {w.shape}")
    w = check_weights(w, w.shape)
    return float(np.max(w) / np.min(w))


def best_s_term(x: np.ndarray, s: int) -> np.ndarray:
    """The best s-term approximation: keep the s largest-magnitude entries and
    zero the rest.  Ties break toward the lower index (stable sort), and at
    most ||x||_0 entries survive."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"x must be 1-d, got shape {x.shape}")
    s = check_count(s, "s", 0, x.size)
    order = np.argsort(-np.abs(x), kind="stable")
    out = np.zeros_like(x)
    keep = order[:s]
    out[keep] = x[keep]
    return out


# --- JSON documents ---------------------------------------------------------
# every document the package reads or writes passes through to_doc, document,
# from_doc and read_document; matrices are row-major nested lists, optional
# members are null, and no document may carry a key its type does not know


def to_doc(value):
    """value as a JSON document: a dataclass becomes an object of its fields
    in declaration order, a tuple, list or array a list, and +-inf the string
    "inf" or "-inf", which JSON has no number for.  A DynamicalSystem nests
    kind, matrix and drift under "rhs"."""
    if isinstance(value, DynamicalSystem):
        rhs = {"kind": value.kind, "matrix": value.matrix, "drift": value.drift}
        value = {"dim": value.dim, "rhs": rhs, "lipschitz": value.lipschitz}
    elif is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {key: to_doc(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def document(doc, name, required, optional=()):
    """doc, checked to be an object that holds every required key and no key
    outside required and optional."""
    if not isinstance(doc, dict):
        raise DomainError(f"{name} document must be an object, got {type(doc).__name__}")
    extra = set(doc) - set(required) - set(optional)
    if extra:
        raise DomainError(f"unknown {name} fields: {sorted(extra, key=str)}")
    for key in required:
        if key not in doc:
            raise DomainError(f"missing {name} field {key!r}")
    return doc


def from_doc(cls, doc, name):
    """The dataclass cls built from a document whose keys are its fields;
    the fields without a default are required."""
    names = [f.name for f in fields(cls)]
    required = [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]
    return cls(**document(doc, name, required, names))


def read_document(path):
    """The JSON document in the file at path; invalid JSON raises ConfigError
    naming the line and column, a file that is not text one naming the byte."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from exc


def system_from_dict(doc: dict) -> DynamicalSystem:
    doc = document(doc, "system", ("dim", "rhs"), ("lipschitz",))
    rhs = document(doc["rhs"], "rhs", ("kind",), ("matrix", "drift"))
    return DynamicalSystem(dim=doc["dim"], lipschitz=doc.get("lipschitz"), **rhs)


def problem_from_dict(doc: dict) -> SparseProblem:
    doc = document(doc, "problem", ("system", "measurement", "observation", "sparsity"))
    return SparseProblem(
        system=system_from_dict(doc["system"]),
        measurement=from_doc(MeasurementModel, doc["measurement"], "measurement"),
        observation=doc["observation"],
        sparsity=doc["sparsity"],
    )
