"""Certificate construction/verification and the L1/Linf supremum tests."""

import dataclasses
import json
import math

import numpy as np
import pytest

from oplab import quad
from oplab.errors import (
    CertificateVerificationError,
    DivergenceError,
    DomainError,
    ParameterError,
)
from oplab.funcdsl import func1d
from oplab.hilbert import (
    OperatorParams,
    WeightedSpaceSpec,
    apply_H,
    apply_H_adjoint,
    apply_H_many,
    hilbert_verdict,
    image_norm,
    sharp_norm,
    solve_gamma,
    weighted_lp_norm,
)
from oplab.schur import (
    SchurCertificate,
    find_certificate,
    sup_test_L1,
    sup_test_Linf,
    verify_certificate,
)
from oplab.specfun import beta

P = OperatorParams
CLASSICAL = (2.0, 2.0, 0.0, 0.0, P(0, 0, 1))


def test_forced_d_reproduces_hand_interval_intersection():
    # d = 1/4: t = 3/4; feasible s-interval (0, 1/2) ^ (-1/4, 1/4) = (0, 1/4),
    # midpoint s = 1/8, r = 3/8
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4], d=0.25)
    assert cert.t == pytest.approx(0.75)
    assert cert.s == pytest.approx(0.125)
    assert cert.r == pytest.approx(0.375)
    assert cert.omega == pytest.approx(-1.0)
    # the Beta product simplifies by reflection: sqrt(B(3/4,3/4) B(1/4,1/4)) = 2 sqrt(pi)
    assert cert.m1 ** 2 == pytest.approx(beta(0.75, 0.75), rel=1e-13)
    assert cert.m2 ** 2 == pytest.approx(beta(0.25, 0.25), rel=1e-13)
    assert cert.bound == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)


def test_default_scan_picks_window_midpoint():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    assert cert.d == pytest.approx(0.25)
    assert cert.bound == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
    assert cert.bound >= math.pi  # dominates the sharp norm
    cert.validate()


def test_certificate_document_round_trip():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    doc = json.loads(json.dumps(cert.to_dict()))
    assert doc["schema"] == 1
    assert SchurCertificate.from_dict(doc) == cert


def test_find_rejects_unbounded():
    with pytest.raises(ParameterError):
        find_certificate(2, 2, 0, 0, P(0, 0, 2))
    with pytest.raises(ParameterError):
        find_certificate(2, math.inf, 0, None, P(0.5, 0, 1))


def test_verify_classical_100_samples():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    rep = verify_certificate(cert, *CLASSICAL[:4], CLASSICAL[4], n_samples=100, tol=1e-8)
    assert rep.passed
    assert rep.max_residual <= 1e-8
    assert rep.first_test == "integral"


def test_verify_perturbed_diverges():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    # push s past its upper window: the first test integral diverges at 0
    bad = dataclasses.replace(cert, s=0.8, r=0.8 + cert.d)
    with pytest.raises(DivergenceError):
        verify_certificate(bad, *CLASSICAL[:4], CLASSICAL[4], n_samples=3)


def test_verify_degenerate_t_flagged():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    deg = dataclasses.replace(cert, t=1.0)
    rep = verify_certificate(deg, *CLASSICAL[:4], CLASSICAL[4], n_samples=3)
    assert not rep.passed
    assert rep.degenerate is not None


def test_verify_residual_exceeded_raises():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    # silently corrupt the closed form: quadrature then disagrees
    bad = dataclasses.replace(cert, m1_closed_form=cert.m1_closed_form * 1.001)
    with pytest.raises(CertificateVerificationError) as exc:
        verify_certificate(bad, *CLASSICAL[:4], CLASSICAL[4], n_samples=3)
    assert exc.value.residual > 1e-8
    # every sample fails; the smallest one is named
    assert exc.value.inequality == "first test integral"
    assert exc.value.sample == 1e-4


def test_verify_second_residual_exceeded_raises():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    bad = dataclasses.replace(cert, m2_closed_form=cert.m2_closed_form * 1.001)
    with pytest.raises(CertificateVerificationError) as exc:
        verify_certificate(bad, *CLASSICAL[:4], CLASSICAL[4], n_samples=3)
    assert exc.value.inequality == "second test integral"
    assert exc.value.sample == 1e-4
    assert exc.value.residual == pytest.approx(1.0 - 1.0 / 1.001, rel=1e-6)


def test_verify_batches_each_test_integral(monkeypatch):
    # (T1) and (T2) are each one apply_H_many over the samples: two drives
    # of at most 64 probes apiece, not one drive per sample
    drives = []
    drive = quad.integrate_semiaxis
    monkeypatch.setattr(quad, "integrate_semiaxis",
                        lambda *args, **kwargs: drives.append(1) or drive(*args, **kwargs))
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    rep = verify_certificate(cert, *CLASSICAL[:4], CLASSICAL[4], n_samples=100)
    assert rep.passed and rep.max_residual <= 1e-8
    assert len(drives) == 4


@pytest.mark.parametrize("n_samples", [0, -1])
def test_verify_needs_a_sample(n_samples):
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    with pytest.raises(ParameterError):
        verify_certificate(cert, *CLASSICAL[:4], CLASSICAL[4], n_samples=n_samples)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf, 0.5])
def test_verify_needs_a_tolerance_in_the_drive_range(tol):
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    with pytest.raises(ParameterError, match=r"tolerance must be in \(0, 0\.5\)"):
        verify_certificate(cert, *CLASSICAL[:4], CLASSICAL[4], n_samples=3, tol=tol)


def test_verify_tuple_mismatch():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    with pytest.raises(ParameterError):
        verify_certificate(cert, 2, 2, 0.5, 0, CLASSICAL[4], n_samples=3)


def test_limit_case_p1():
    # q = 2 target with a unit source: gamma = alpha+beta-a+(b+1)/q
    gamma = solve_gamma(1.0, 2.0, 0.0, 0.0, 0.25, 0.5)
    params = P(0.25, 0.5, gamma)
    cert = find_certificate(1.0, 2.0, 0.0, 0.0, params)
    assert cert.limit_case
    cert.validate()
    assert math.isfinite(cert.bound) and cert.bound > 0
    rep = verify_certificate(cert, 1.0, 2.0, 0.0, 0.0, params, n_samples=20, tol=1e-8)
    assert rep.passed and rep.first_test == "supremum"


def test_limit_case_p1_diagonal():
    # p = q = 1: the certificate bound must dominate the exact L1_a norm
    params = P(0.25, 0.5, 1.75)
    cert = find_certificate(1.0, 1.0, 0.0, 0.0, params)
    cert.validate()
    rep = verify_certificate(cert, 1.0, 1.0, 0.0, 0.0, params, n_samples=10, tol=1e-8)
    assert rep.passed
    assert cert.bound >= sharp_norm(WeightedSpaceSpec(1.0, 0.0), params) - 1e-12


def test_certificate_dominates_sharp_norm_diagonal():
    for (p, a, al, be) in [(2.0, 0.0, 0.0, 0.0), (2.0, 0.5, 0.25, 0.5), (1.5, 0.0, 0.3, 0.4)]:
        params = P(al, be, al + be + 1.0)
        cert = find_certificate(p, p, a, a, params)
        assert cert.bound >= sharp_norm(WeightedSpaceSpec(p, a), params) - 1e-12


def _assert_witness_at_every_gap(p, q, a, b, params):
    # no search: the default midpoint and gaps near both ends of
    # (0, (b+1)/q) each give a valid witness
    assert hilbert_verdict(p, q, a, b, params).bounded
    bq = (b + 1.0) / q
    for d in (None, 0.01 * bq, 0.99 * bq):
        cert = find_certificate(p, q, a, b, params, d=d)
        cert.validate()
        assert cert.limit_case == (p == 1.0)


def test_completeness_on_accepted_region():
    rng = np.random.default_rng(99)
    for _ in range(200):
        p = rng.uniform(1.1, 4.0)
        q = p + rng.uniform(0.0, 2.0)
        a = rng.uniform(-0.9, 1.5)
        b = rng.uniform(-0.9, 1.5)
        be = (a + 1.0) / p - 1.0 + rng.uniform(0.05, 1.0)
        al = -(b + 1.0) / q + rng.uniform(0.05, 1.0)
        params = P(al, be, solve_gamma(p, q, a, b, al, be))
        _assert_witness_at_every_gap(p, q, a, b, params)
    for _ in range(100):  # the p = 1 limit case
        q = 1.0 + rng.uniform(0.0, 2.0)
        a = rng.uniform(-0.9, 1.5)
        b = rng.uniform(-0.9, 1.5)
        be = a + rng.uniform(0.05, 1.0)
        al = -(b + 1.0) / q + rng.uniform(0.05, 1.0)
        _assert_witness_at_every_gap(1.0, q, a, b, P(al, be, solve_gamma(1.0, q, a, b, al, be)))


def test_soundness_norm_domination():
    cert = find_certificate(*CLASSICAL[:4], CLASSICAL[4])
    space = WeightedSpaceSpec(2, 0)
    for src in ("ind(1,2)", "x^(-0.6)*ind(1,inf)", "exp(-x)"):
        f = func1d(src)
        assert image_norm(CLASSICAL[4], f, 2, 0) <= cert.bound * weighted_lp_norm(f, space) * (1 + 1e-6)


# -- supremum tests ------------------------------------------------------------

def test_sup_L1_examples():
    rep = sup_test_L1(P(0, 1, 2), 0.0, y_grid=(0.1, 1.0, 10.0))
    assert rep.exact_norm == pytest.approx(1.0, rel=1e-12)  # B(1,1)
    assert rep.max_rel_deviation <= 1e-8
    assert rep.supremum == pytest.approx(1.0, rel=1e-9)

    rep = sup_test_L1(P(0.5, 0.5, 2), 0.0)
    assert rep.supremum == pytest.approx(math.pi / 2.0, rel=1e-9)  # B(1/2, 3/2)
    assert rep.max_rel_deviation <= 1e-8


def test_sup_L1_divergence_at_boundary():
    with pytest.raises(DivergenceError):
        sup_test_L1(P(0, 0, 1), 0.0)  # a+1 = beta+1 violates strictness


def test_sup_Linf_examples():
    rep = sup_test_Linf(P(1, 0, 2), x_grid=(0.1, 1.0, 10.0))
    assert rep.exact_norm == pytest.approx(1.0, rel=1e-12)
    assert rep.max_rel_deviation <= 1e-8

    rep = sup_test_Linf(P(0.5, -0.5, 1))
    assert rep.supremum == pytest.approx(math.pi, rel=1e-9)  # B(1/2, 1/2)
    assert rep.max_rel_deviation <= 1e-8


def test_sup_Linf_divergence():
    with pytest.raises(DivergenceError):
        sup_test_Linf(P(0, 0, 1))  # alpha > 0 fails


def test_sup_tests_reject_a_zero_probe():
    with pytest.raises(DomainError, match="probe points must be positive"):
        sup_test_Linf(P(0.5, 0, 1.5), x_grid=(0.0, 1.0))
    with pytest.raises(DomainError, match="probe points must be positive"):
        sup_test_L1(P(0.5, 0.5, 2), 0.0, (-1.0, 1.0))


def test_sup_tests_are_H1_and_its_adjoint():
    params, a, grid = P(0.3, 0.2, 1.7), 0.1, (0.5, 2.0)
    one = func1d("1")
    assert sup_test_Linf(params, grid).values == tuple(apply_H_many(params, one, grid))
    # like for like: the batched L1 test is one batched drive of H1 under the
    # adjoint triple, and the per-point adjoint is one drive of that H1
    adjoint = P(params.beta - a, params.alpha + a, params.gamma)
    assert sup_test_L1(params, a, grid).values == tuple(apply_H_many(adjoint, one, grid))
    for y in grid:
        assert apply_H_adjoint(params, a, a, one, y) == apply_H(adjoint, one, y)


def test_sup_profile_without_exact_mode():
    # off the diagonal the profile is computed but not constant
    rep = sup_test_Linf(P(0.5, 0.0, 2.0), x_grid=(0.1, 1.0, 10.0))
    assert rep.exact_norm is None
    assert rep.max_rel_deviation > 0.1
