import json
import math

import numpy as np
import pytest

from sparseobs import certify
from sparseobs.certify import (
    REASON_DELTA,
    REASON_DENOMINATOR,
    REASON_HORIZON,
    distinguishability_gap,
    observability_horizon,
    recovery_constants,
    recovery_error_bound,
    recovery_horizon,
)
from sparseobs.errors import DomainError, InfeasibleCertificate, ShapeError
from sparseobs.model import DynamicalSystem, to_doc
from sparseobs.ode import IntegrationConfig
from sparseobs.rip import operator_norm, rip_constant_exact

from conftest import gaussian_unit_columns

_SQRT2 = math.sqrt(2.0)


# --- observability horizon -----------------------------------------------------


def test_observability_horizon_values():
    assert math.isclose(observability_horizon(1.0, 0.0, 1.0), math.log(2.0), rel_tol=1e-15)
    assert observability_horizon(0.0, 0.5, 2.0) == float("inf")
    assert observability_horizon(1.0, 1.0, 1.0) is None
    assert observability_horizon(2.0, 1.7, 1.0) is None


def test_observability_horizon_validation():
    with pytest.raises(DomainError):
        observability_horizon(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        observability_horizon(1.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        observability_horizon(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        observability_horizon(1.0, -0.1, 1.0)


def test_observability_horizon_monotonicity_sampled():
    rng = np.random.Generator(np.random.Philox(61))
    for _ in range(500):
        L = 0.1 + 3.0 * rng.random()
        a = 0.1 + 3.0 * rng.random()
        d_lo, d_hi = np.sort(rng.random(2) * 0.999)
        assert observability_horizon(L, d_lo, a) >= observability_horizon(L, d_hi, a)
        a_hi = a * (1.0 + rng.random())
        assert observability_horizon(L, d_lo, a) >= observability_horizon(L, d_lo, a_hi)
        # horizon scales as 1/L
        h1 = observability_horizon(1.0, d_lo, a)
        hL = observability_horizon(L, d_lo, a)
        assert math.isclose(hL * L, h1, rel_tol=1e-12)


# --- recovery horizon ----------------------------------------------------------


def test_recovery_horizon_branches():
    # comfortable parameters: finite positive horizon
    assert recovery_horizon(1.0, 0.1, 1.0, 1.0) > 0.0
    # static dynamics, valid delta: certifiable forever
    assert recovery_horizon(0.0, 0.1, 1.0, 1.0) == float("inf")
    # delta beyond the threshold: no positive time works
    assert recovery_horizon(0.0, 0.5, 1.0, 1.0) == 0.0
    assert recovery_horizon(1.0, 0.5, 1.0, 1.0) == 0.0
    # log argument nonpositive: no horizon at all
    assert recovery_horizon(1.0, 0.9, 3.0, 0.1) is None


def test_recovery_horizon_validation():
    with pytest.raises(DomainError):
        recovery_horizon(1.0, 0.1, 0.5, 1.0)  # tau < 1


# --- recovery constants ---------------------------------------------------------


def test_constants_static_plugin_values_are_exact():
    cert = recovery_constants(0.0, 1.0, 0.0, 1.0, 1.0)
    assert cert.feasible
    assert cert.reasons == ()
    assert cert.alpha == 2.0
    assert cert.rho == 0.0
    assert cert.sparsity_coeff == 2.0
    assert cert.noise_coeff == 4.0
    assert cert.gronwall_excess == 0.0
    assert cert.observability_T_max == float("inf")
    assert cert.recovery_T_max == float("inf")


def test_constants_delta_boundary_detection():
    boundary = _SQRT2 - 1.0
    at = recovery_constants(boundary, 1.0, 0.0, 1.0, 1.0)
    assert not at.feasible
    assert REASON_DELTA in at.reasons
    below = recovery_constants(boundary - 1e-12, 1.0, 0.0, 1.0, 1.0)
    assert below.feasible
    above = recovery_constants(boundary + 1e-12, 1.0, 0.0, 1.0, 1.0)
    assert not above.feasible
    assert REASON_DELTA in above.reasons


def test_constants_time_boundary_matches_horizon():
    rec_T = recovery_horizon(1.0, 0.1, 1.0, 1.0)
    inside = recovery_constants(0.1, 1.0, 1.0, rec_T - 1e-9, 1.0)
    outside = recovery_constants(0.1, 1.0, 1.0, rec_T + 1e-9, 1.0)
    assert inside.feasible
    assert not outside.feasible
    assert REASON_DENOMINATOR in outside.reasons
    assert REASON_HORIZON in outside.reasons


def test_constants_infeasible_when_delta_exceeds_one():
    cert = recovery_constants(1.5, 1.0, 1.0, 1.0, 1.0)
    assert not cert.feasible
    assert cert.alpha is None and cert.rho is None
    assert cert.sparsity_coeff is None and cert.noise_coeff is None
    assert REASON_DELTA in cert.reasons
    assert REASON_DENOMINATOR in cert.reasons


def test_constants_validation():
    with pytest.raises(DomainError):
        recovery_constants(0.1, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        recovery_constants(0.1, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        recovery_constants(0.1, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        recovery_constants(-0.1, 1.0, 1.0, 1.0, 1.0)


def test_feasibility_equals_time_under_horizon_sampled():
    # the damping margin is positive exactly when T is under the horizon
    rng = np.random.Generator(np.random.Philox(62))
    checked = 0
    while checked < 1000:
        tau = 1.0 + 2.0 * rng.random()
        d = rng.random() * 0.9999 / (1.0 + tau * _SQRT2)
        L = 0.0 if rng.random() < 0.1 else 2.0 * rng.random()
        a = 0.1 + 3.0 * rng.random()
        T = 1e-6 + 3.0 * rng.random()
        rec_T = recovery_horizon(L, d, tau, a)
        if rec_T is None:
            continue
        if math.isfinite(rec_T) and abs(T - rec_T) <= 1e-12:
            continue  # boundary tolerance
        cert = recovery_constants(d, tau, L, T, a)
        assert cert.feasible == (T < rec_T)
        checked += 1


def test_static_limit_matches_closed_forms():
    # L*T -> 0 at tau = 1: feasible iff delta < sqrt(2)-1, with the M=0 forms
    rng = np.random.Generator(np.random.Philox(63))
    boundary = _SQRT2 - 1.0
    for _ in range(300):
        d = rng.random() * 0.999
        if abs(d - boundary) < 1e-9:
            continue
        cert = recovery_constants(d, 1.0, 0.0, 1.0, 1.0)
        assert cert.feasible == (d < boundary)
        if cert.feasible:
            rho = _SQRT2 * d / (1.0 - d)
            alpha = 2.0 * math.sqrt(1.0 + d) / (1.0 - d)
            assert cert.sparsity_coeff == 2.0 * (rho + 1.0) / (1.0 - rho)
            assert cert.noise_coeff == alpha * 2.0 / (1.0 - rho)


def test_certificate_serialization_encodes_sentinels():
    feasible = recovery_constants(0.0, 1.0, 0.0, 1.0, 1.0)
    doc = to_doc(feasible)
    assert doc["observability_T_max"] == "inf"
    assert doc["recovery_T_max"] == "inf"
    assert doc["feasible"] is True
    json.dumps(doc)

    infeasible = recovery_constants(1.5, 1.0, 1.0, 1.0, 1.0)
    doc = to_doc(infeasible)
    assert doc["alpha"] is None
    assert doc["sparsity_coeff"] is None
    assert doc["observability_T_max"] is None
    assert set(doc["reasons"]) >= {REASON_DELTA, REASON_DENOMINATOR}
    json.dumps(doc)


# --- error bound -----------------------------------------------------------------


def test_error_bound_values():
    cert = recovery_constants(0.0, 1.0, 0.0, 1.0, 1.0)  # C0 = 2, C1 = 4
    # exactly sparse, no noise: both terms vanish
    assert recovery_error_bound(cert, [0.0, 3.0, 0.0], 1, 0.0) == 0.0
    # exactly sparse with noise: bound is C1 * eps
    assert recovery_error_bound(cert, [0.0, 3.0, 0.0], 1, 0.1) == 0.4
    # tail term: C0 * s^{-1/2} * ||tail||_1
    got = recovery_error_bound(cert, [1.0, 1.0, 0.01, 0.01], 2, 0.0)
    assert math.isclose(got, 2.0 * 0.02 / math.sqrt(2.0), rel_tol=1e-12)


def test_error_bound_refuses_infeasible_certificate():
    cert = recovery_constants(0.9, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InfeasibleCertificate) as info:
        recovery_error_bound(cert, [1.0, 0.0], 1, 0.0)
    assert REASON_DELTA in info.value.reasons


def test_error_bound_validation():
    cert = recovery_constants(0.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        recovery_error_bound(cert, [1.0, 0.0], 0, 0.0)
    with pytest.raises(DomainError):
        recovery_error_bound(cert, [1.0, 0.0], 1, -0.1)


# --- distinguishability -----------------------------------------------------------


def test_distinguishability_static_case_is_exact():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    measured, guaranteed = distinguishability_gap(
        np.eye(4), DynamicalSystem.zero(4), e1, e2, 2.0, delta_2s=0.0
    )
    assert measured == math.sqrt(2.0)
    assert guaranteed == math.sqrt(2.0)


def test_distinguishability_rejects_identical_states():
    x = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        distinguishability_gap(np.eye(2), DynamicalSystem.zero(2), x, x.copy(), 1.0)


def test_distinguishability_rejects_a_matrix_of_the_wrong_width(monkeypatch):
    monkeypatch.setattr(certify, "integrate", None)
    x1, x2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    with pytest.raises(ShapeError, match="3 columns but the system dimension is 2"):
        distinguishability_gap(np.ones((2, 3)), DynamicalSystem.zero(2), x1, x2, 1.0)


def test_distinguishability_no_floor_when_delta_exceeds_one():
    _, guaranteed = distinguishability_gap(
        np.eye(2),
        DynamicalSystem.zero(2),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        1.0,
        delta_2s=1.0,
    )
    assert guaranteed == float("-inf")


def test_distinguishability_floor_holds_for_sparse_pairs():
    # decaying linear dynamics, exact constant, horizon-scaled time
    A = gaussian_unit_columns(6, 12, 40)
    delta2 = rip_constant_exact(A, 2).delta
    assert delta2 < 1.0
    a_norm = operator_norm(A)
    system = DynamicalSystem.linear((-np.eye(12)).tolist())
    T = 0.9 * observability_horizon(system.lipschitz, delta2, a_norm)
    cfg = IntegrationConfig.fixed(128)
    rng = np.random.Generator(np.random.Philox(64))
    for _ in range(100):
        i, j = rng.integers(0, 12, size=2)
        x1 = np.zeros(12)
        x2 = np.zeros(12)
        x1[i], x2[j] = rng.normal(size=2)
        measured, guaranteed = distinguishability_gap(A, system, x1, x2, T, cfg, delta_2s=delta2)
        assert guaranteed > 0.0
        assert measured >= guaranteed - 1e-6
