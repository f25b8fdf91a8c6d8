import itertools
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from sparseobs import kernels
from sparseobs.certify import recovery_constants
from sparseobs.errors import DomainError, ShapeError
from sparseobs.harness import ExperimentConfig, run_trial
from sparseobs.model import (
    DynamicalSystem,
    MeasurementModel,
    RecoveryOutcome,
    SparseProblem,
    best_s_term,
    from_doc,
    problem_from_dict,
    system_from_dict,
    to_doc,
    weight_condition_number,
    weighted_l1_norm,
)
from sparseobs.ode import IntegrationConfig
from sparseobs.rip import RipReport

from conftest import catalog_systems, field


# --- weighted l1 -------------------------------------------------------------


def test_weighted_l1_plain_values():
    assert weighted_l1_norm([3.0, -4.0, 0.0], [1.0, 1.0, 1.0]) == 7.0
    assert weighted_l1_norm([1.0, -1.0], [2.0, 3.0]) == 5.0


def test_weighted_l1_ones_equals_plain_l1():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(50):
        x = rng.normal(size=rng.integers(1, 20))
        assert weighted_l1_norm(x, np.ones(x.size)) == float(np.sum(np.abs(x)))


def test_weighted_l1_rejects_bad_input():
    with pytest.raises(ShapeError):
        weighted_l1_norm([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        weighted_l1_norm(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(DomainError):
        weighted_l1_norm([1.0], [0.0])
    with pytest.raises(DomainError):
        weighted_l1_norm([1.0], [-2.0])


def test_weight_condition_number_values_and_scale_invariance():
    assert weight_condition_number([2.0, 1.0, 4.0]) == 4.0
    assert weight_condition_number(np.ones(7)) == 1.0
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(50):
        w = rng.uniform(0.1, 5.0, size=rng.integers(1, 12))
        tau = weight_condition_number(w)
        for c in (0.25, 3.0, 1e3):
            assert math.isclose(weight_condition_number(c * w), tau, rel_tol=1e-12)


def test_weight_condition_number_rejects_bad_input():
    with pytest.raises(DomainError):
        weight_condition_number([1.0, 0.0])
    with pytest.raises(ShapeError):
        weight_condition_number([])
    with pytest.raises(ShapeError):
        weight_condition_number(np.ones((2, 2)))


# --- best s-term -------------------------------------------------------------


def test_best_s_term_tie_breaks_to_lower_index():
    np.testing.assert_array_equal(best_s_term([2.0, -2.0], 1), [2.0, 0.0])


def test_best_s_term_edge_sizes():
    x = np.array([0.5, -3.0, 1.0])
    np.testing.assert_array_equal(best_s_term(x, 0), np.zeros(3))
    np.testing.assert_array_equal(best_s_term(x, 3), x)
    with pytest.raises(DomainError):
        best_s_term(x, -1)
    with pytest.raises(DomainError):
        best_s_term(x, 4)
    with pytest.raises(ShapeError):
        best_s_term(np.ones((2, 2)), 1)


def test_best_s_term_is_l1_optimal_over_all_supports():
    # exhaustive check against every size-s support, m <= 8
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(25):
        m = int(rng.integers(1, 9))
        x = rng.normal(size=m)
        for s in range(m + 1):
            approx = best_s_term(x, s)
            err = float(np.sum(np.abs(x - approx)))
            best = min(
                float(np.sum(np.abs(x - np.where(np.isin(np.arange(m), S), x, 0.0))))
                for S in itertools.combinations(range(m), s)
            )
            assert err <= best + 1e-12
            assert np.count_nonzero(approx) <= s


# --- system catalog ----------------------------------------------------------


def _rhs(system, x):
    """f(x) on the system's kernel arguments."""
    kind, M, c = system.kernel_args()
    return field(kind, M.T, c, np.asarray(x, dtype=float))


def _jacobian(system, x):
    """df/dx at x, diag(d) M with d from the one Jacobian-scale kernel."""
    kind, M, _ = system.kernel_args()
    return kernels.jacobian_scale(kind, _rhs(system, x))[:, None] * M


def test_lipschitz_values_for_catalog_members():
    assert DynamicalSystem.zero(3).lipschitz == 0.0
    lin = DynamicalSystem.linear((2.0 * np.eye(3)).tolist())
    assert abs(lin.lipschitz - 2.0) <= 1e-12
    sat = DynamicalSystem.tanh_saturated([[1.0, 1.0], [0.0, 0.0]])
    # independent oracle: the largest singular value from a dense SVD
    top_sv = float(np.linalg.svd(np.array([[1.0, 1.0], [0.0, 0.0]]), compute_uv=False)[0])
    assert math.isclose(top_sv, math.sqrt(2.0), rel_tol=1e-14)
    assert math.isclose(sat.lipschitz, top_sv, rel_tol=1e-10)


def test_lipschitz_inequality_sampled_over_catalog():
    rng = np.random.Generator(np.random.Philox(14))
    for system in catalog_systems(5, 900):
        L = system.lipschitz
        for _ in range(1000):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            lhs = np.linalg.norm(_rhs(system, x) - _rhs(system, y))
            rhs = L * np.linalg.norm(x - y)
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_supplied_lipschitz_may_overshoot_but_not_undercut():
    M = [[1.0, 1.0], [0.0, 0.0]]
    loose = DynamicalSystem(dim=2, kind="linear", matrix=M, lipschitz=10.0)
    assert loose.lipschitz == 10.0
    with pytest.raises(DomainError):
        DynamicalSystem(dim=2, kind="linear", matrix=M, lipschitz=1.0)


def test_kind_alias_and_unknown_kind():
    sat = DynamicalSystem(dim=2, kind="tanh-saturated", matrix=[[0.0, 0.0], [0.0, 0.0]])
    assert sat.kind == "tanh_saturated"
    with pytest.raises(DomainError):
        DynamicalSystem(dim=2, kind="cubic", matrix=np.eye(2))


def test_system_construction_rules():
    with pytest.raises(DomainError):
        DynamicalSystem(dim=2, kind="zero", matrix=np.eye(2))
    with pytest.raises(DomainError):
        DynamicalSystem(dim=2, kind="linear")
    with pytest.raises(DomainError):
        DynamicalSystem(dim=2, kind="affine", matrix=np.eye(2))
    with pytest.raises(DomainError):
        DynamicalSystem(dim=2, kind="linear", matrix=np.eye(2), drift=[1.0, 0.0])
    with pytest.raises(ShapeError):
        DynamicalSystem(dim=2, kind="linear", matrix=np.eye(3))
    with pytest.raises(ShapeError):
        DynamicalSystem.linear(np.ones((2, 3)))
    with pytest.raises(DomainError):
        DynamicalSystem(dim=0, kind="zero")
    with pytest.raises(DomainError):
        DynamicalSystem(dim=2, kind="linear", matrix=[[np.inf, 0.0], [0.0, 1.0]])


def test_system_matrix_is_read_only():
    system = DynamicalSystem.linear(np.eye(2))
    with pytest.raises(ValueError):
        system.matrix[0, 0] = 5.0


def test_eval_rhs_and_jacobian_agree_with_definitions():
    rng = np.random.Generator(np.random.Philox(15))
    M = rng.normal(size=(4, 4))
    c = rng.normal(size=4)
    x = rng.normal(size=4)
    zero = DynamicalSystem.zero(4)
    lin = DynamicalSystem.linear(M.tolist())
    aff = DynamicalSystem.affine(M.tolist(), c.tolist())
    sat = DynamicalSystem.tanh_saturated(M.tolist())

    np.testing.assert_array_equal(_rhs(zero, x), np.zeros(4))
    np.testing.assert_allclose(_rhs(lin, x), M @ x, rtol=1e-14)
    np.testing.assert_allclose(_rhs(aff, x), M @ x + c, rtol=1e-14)
    np.testing.assert_allclose(_rhs(sat, x), np.tanh(M @ x), rtol=1e-14)

    np.testing.assert_array_equal(_jacobian(zero, x), np.zeros((4, 4)))
    np.testing.assert_allclose(_jacobian(lin, x), M, rtol=1e-14)
    np.testing.assert_allclose(_jacobian(aff, x), M, rtol=1e-14)
    # finite-difference cross-check of the saturated jacobian
    h = 1e-6
    J = _jacobian(sat, x)
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        col = (_rhs(sat, x + e) - _rhs(sat, x - e)) / (2 * h)
        np.testing.assert_allclose(J[:, j], col, atol=1e-8)


def test_kernel_args_fills_zero_system_with_zero_arrays():
    kind, M, c = DynamicalSystem.zero(3).kernel_args()
    assert kind == kernels.RHS_LINEAR
    np.testing.assert_array_equal(M, np.zeros((3, 3)))
    np.testing.assert_array_equal(c, np.zeros(3))


# --- measurement / problem / outcome ----------------------------------------


def _measurement(**over):
    base = dict(matrix=np.eye(3), time=1.0, noise_radius=0.1, weights=np.ones(3))
    base.update(over)
    return MeasurementModel(**base)


def test_measurement_shape_properties():
    meas = MeasurementModel(
        matrix=np.ones((2, 5)), time=0.5, noise_radius=0.0, weights=np.ones(5)
    )
    assert meas.n == 2 and meas.m == 5


def test_measurement_validation():
    with pytest.raises(DomainError):
        _measurement(time=0.0)
    with pytest.raises(DomainError):
        _measurement(time=-1.0)
    with pytest.raises(DomainError):
        _measurement(noise_radius=-0.5)
    with pytest.raises(DomainError):
        _measurement(weights=[1.0, 0.0, 1.0])
    with pytest.raises(ShapeError):
        _measurement(weights=np.ones(4))
    with pytest.raises(ShapeError):
        _measurement(matrix=np.ones(3))


def test_sparse_problem_validation():
    system = DynamicalSystem.zero(3)
    meas = _measurement(noise_radius=0.0)
    problem = SparseProblem(system=system, measurement=meas, observation=np.zeros(3), sparsity=2)
    assert problem.sparsity == 2
    with pytest.raises(DomainError):
        SparseProblem(system=system, measurement=meas, observation=np.zeros(3), sparsity=0)
    with pytest.raises(DomainError):
        SparseProblem(system=system, measurement=meas, observation=np.zeros(3), sparsity=4)
    with pytest.raises(DomainError):
        SparseProblem(system=system, measurement=meas, observation=np.zeros(3), sparsity=True)
    with pytest.raises(ShapeError):
        SparseProblem(
            system=DynamicalSystem.zero(4), measurement=meas, observation=np.zeros(3), sparsity=1
        )
    with pytest.raises(ShapeError):
        SparseProblem(system=system, measurement=meas, observation=np.zeros(2), sparsity=1)


def test_recovery_outcome_round_trip_and_validation():
    out = RecoveryOutcome(
        estimate=[1.0, 0.0], residual=0.5, weighted_l1=1.0, iterations=3, converged=True
    )
    doc = to_doc(out)
    assert doc == {
        "estimate": [1.0, 0.0],
        "residual": 0.5,
        "weighted_l1": 1.0,
        "iterations": 3,
        "converged": True,
    }
    with pytest.raises(DomainError):
        RecoveryOutcome([0.0], -1.0, 0.0, 0, False)
    with pytest.raises(DomainError):
        RecoveryOutcome([0.0], 0.0, 0.0, -1, False)
    for estimate in ([[1.0, 0.0]], 1.0):
        with pytest.raises(ShapeError, match="estimate must be 1-d"):
            RecoveryOutcome(estimate, 0.5, 1.0, 3, True)


# --- serialization -----------------------------------------------------------


def test_system_document_round_trip_all_kinds():
    for system in catalog_systems(4, 901):
        back = system_from_dict(json.loads(json.dumps(to_doc(system), indent=2)))
        assert back.kind == system.kind
        assert back.dim == system.dim
        assert back.lipschitz == system.lipschitz
        for name in ("matrix", "drift"):
            if getattr(system, name) is None:
                assert getattr(back, name) is None
            else:
                np.testing.assert_array_equal(getattr(back, name), getattr(system, name))


def test_measurement_document_round_trip():
    meas = _measurement()
    back = from_doc(MeasurementModel, to_doc(meas), "measurement")
    np.testing.assert_array_equal(back.matrix, meas.matrix)
    assert back.time == meas.time
    assert back.noise_radius == meas.noise_radius
    np.testing.assert_array_equal(back.weights, meas.weights)


def test_problem_document_round_trip():
    problem = SparseProblem(
        system=DynamicalSystem.linear([[-1.0, 0.0], [0.0, -2.0]]),
        measurement=MeasurementModel(
            matrix=[[1.0, 2.0], [0.5, -1.0]], time=0.3, noise_radius=0.01, weights=[1.0, 2.0]
        ),
        observation=[0.2, -0.4],
        sparsity=1,
    )
    back = problem_from_dict(json.loads(json.dumps(to_doc(problem), indent=2)))
    np.testing.assert_array_equal(back.observation, problem.observation)
    assert back.sparsity == 1
    assert back.system.kind == "linear"
    np.testing.assert_array_equal(back.system.matrix, problem.system.matrix)
    np.testing.assert_array_equal(back.measurement.matrix, problem.measurement.matrix)
    assert back.measurement.time == 0.3
    assert back.measurement.noise_radius == 0.01
    np.testing.assert_array_equal(back.measurement.weights, problem.measurement.weights)


def test_malformed_documents_are_reported():
    with pytest.raises(DomainError):
        system_from_dict({"dim": 2})
    with pytest.raises(DomainError):
        problem_from_dict({"system": to_doc(DynamicalSystem.zero(2))})
    with pytest.raises(DomainError):
        from_doc(MeasurementModel, {"matrix": [[1.0]]}, "measurement")
    system = {"dim": 2, "rhs": {"kind": "zero"}}
    measurement = {"matrix": [[1.0, 0.0]], "time": 1.0, "noise_radius": 0.0, "weights": [1, 1]}
    problem = {"system": system, "measurement": measurement, "observation": [1.0], "sparsity": 1}
    problem_from_dict(problem)
    bad = {
        system_from_dict: [
            [system],
            dict(system, lipshitz=1.0),
            dict(system, rhs="zero"),
            dict(system, rhs={"kind": "zero", "drfit": [0.0, 0.0]}),
            dict(system, rhs={"kind": ["zero"]}),
        ],
        lambda doc: from_doc(MeasurementModel, doc, "measurement"): [
            None,
            dict(measurement, typo_noise=3),
        ],
        problem_from_dict: [
            "problem",
            dict(problem, typo_noise=3),
            dict(problem, measurement=[measurement]),
            dict(problem, system=dict(system, extra=1)),
        ],
    }
    for decode, docs in bad.items():
        for doc in docs:
            with pytest.raises(DomainError, match="unknown|must be an object|rhs kind"):
                decode(doc)


# --- JSON codec ---------------------------------------------------------------


def _reports():
    """One instance of each report type, together holding every +-inf the
    documents spell as a string."""
    # C(4, 2) = 6 supports exceed a budget of 1, so the trial's delta_2s is inf
    config = ExperimentConfig(
        seed=0,
        trials=1,
        system=DynamicalSystem.zero(4),
        n=8,
        sparsity=1,
        noise_radius=0.0,
        rip_budget=1,
    )
    return [
        RipReport(
            sparsity=2,
            delta=math.inf,
            method="gershgorin-upper",
            supports_examined=0,
            supports_solved=0,
        ),
        recovery_constants(0.1, 1.0, 0.0, 0.5, 1.1),
        RecoveryOutcome(
            estimate=[1.0, -0.5], residual=0.0, weighted_l1=1.5, iterations=2, converged=True
        ),
        run_trial(config, 0),
    ]


@pytest.mark.parametrize("report", _reports(), ids=lambda r: type(r).__name__)
def test_reports_encode_as_their_fields(report):
    doc = to_doc(report)
    assert list(doc) == [f.name for f in fields(report)]
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def test_to_doc_spells_infinities_as_strings():
    docs = [to_doc(report) for report in _reports()]
    assert docs[0]["delta"] == "inf"
    assert docs[1]["observability_T_max"] == "inf"
    assert docs[3]["delta_2s"] == "inf"
    assert to_doc((-math.inf, np.array([1.5, 2.0]), None)) == ["-inf", [1.5, 2.0], None]


def test_from_doc_requires_fields_without_default():
    with pytest.raises(DomainError, match="missing measurement field 'weights'"):
        doc = {"matrix": [[1.0]], "time": 1.0, "noise_radius": 0.0}
        from_doc(MeasurementModel, doc, "measurement")
    assert from_doc(IntegrationConfig, {}, "integration") == IntegrationConfig()
    with pytest.raises(DomainError, match=r"unknown integration fields: \['steps'\]"):
        from_doc(IntegrationConfig, {"steps": 8}, "integration")
