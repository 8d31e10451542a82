import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from stieltjes import muntz as mu
from stieltjes._quadrature import adaptive_quad
from stieltjes.errors import ParameterOutOfRange, QCollidesWithLambda


def product_bound(q, lambdas):
    return math.prod(abs(1.0 - q / lam) for lam in lambdas)


def qn_integral_step(prev, lam_n, x, tol=1e-10):
    """One step of the defining integral recursion, evaluated numerically:
    (lambda_n - q) x^{lambda_n} integral_x^1 Q_{n-1}(t) t^{-(1+lambda_n)} dt,
    for x in (0, 1].

    Uses float evaluation of Q_{n-1}; for small n, an independent check of
    the coefficient recursion.
    """
    if x == 1.0:
        return 0.0
    coeffs = prev.coeffs_float
    lams = np.array(prev.lambdas)
    q = prev.q

    def qprev(t):
        t = np.asarray(t, dtype=float)
        out = t**q
        for c, lam in zip(coeffs, lams):
            out = out - c * t**lam
        return out

    # scaled by (x/t)^{lambda_n} inside, so `tol` applies to the O(1) result
    # rather than to an integral of size up to x^{-lambda_n}
    res = adaptive_quad(
        lambda t: (lam_n - q) * qprev(t) * (x / t) ** lam_n / t, x, 1.0, tol
    )
    return res.value


# ---------------------------------------------------------------------------
# sequences and certificates


def test_first_primes():
    assert mu.first_primes(5) == [2, 3, 5, 7, 11]
    assert mu.first_primes(100)[-1] == 541


def test_sequence_kinds():
    assert mu.MuntzSequence.primes().prefix(3) == [2.0, 3.0, 5.0]
    assert mu.MuntzSequence.integers().prefix(4) == [1.0, 2.0, 3.0, 4.0]
    custom = mu.MuntzSequence.custom([0.5, 1.5, 2.5])
    assert custom.prefix(2) == [0.5, 1.5]
    with pytest.raises(ParameterOutOfRange):
        mu.MuntzSequence.custom([1.0, 1.0])
    with pytest.raises(ParameterOutOfRange):
        mu.MuntzSequence.custom([-1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_custom_sequence_rejects_non_finite_values(bad):
    # NaN slips past both the positivity and the ordering comparisons
    with pytest.raises(ParameterOutOfRange, match="finite"):
        mu.MuntzSequence.custom([1.0, 2.0, bad])


def test_certificate_primes():
    c = mu.divergence_certificate(mu.MuntzSequence.primes(), 100)
    assert c.certified
    # frozen from an exact rational computation over the first 100 primes
    assert c.partial_sum == pytest.approx(2.1063421214726207, abs=1e-12)
    # the sum over primes *below* 100 (first 25) is the oft-quoted 1.80
    c25 = mu.divergence_certificate(mu.MuntzSequence.primes(), 25)
    assert c25.partial_sum == pytest.approx(1.8028172010488705, abs=1e-12)


def test_certificate_integers():
    c = mu.divergence_certificate(mu.MuntzSequence.integers(), 10)
    assert c.certified
    assert c.partial_sum == pytest.approx(2.9289682539682538, abs=1e-14)


def test_certificate_custom_not_certifiable():
    seq = mu.MuntzSequence.custom([float(k * k) for k in range(1, 1001)])
    c = mu.divergence_certificate(seq, 1000)
    assert not c.certified
    assert c.partial_sum < math.pi**2 / 6
    assert "not-certifiable" in c.statement


# ---------------------------------------------------------------------------
# coefficients


def test_golitschek_n1():
    a = mu.golitschek_coeffs(0.5, [1.0], 1)
    assert np.allclose(a.coeffs_float, [1.0])
    assert a.bound == pytest.approx(0.5)


def test_golitschek_n2():
    a = mu.golitschek_coeffs(0.5, [1.0, 2.0], 2)
    assert np.allclose(a.coeffs_float, [1.5, -0.5])
    assert a.bound == pytest.approx(0.375)


def test_q_collision_rejected():
    with pytest.raises(QCollidesWithLambda):
        mu.golitschek_coeffs(1.0, [1.0, 2.0])


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("lambdas, n", [(mu.MuntzSequence.integers(), 5), ([], None)],
                         ids=["integers", "empty"])
def test_non_finite_q_rejected(q, lambdas, n):
    with pytest.raises(ParameterOutOfRange, match="q must be finite"):
        mu.golitschek_coeffs(q, lambdas, n)


def test_sequence_validation():
    with pytest.raises(ParameterOutOfRange):
        mu.golitschek_coeffs(0.5, [2.0, 1.0])
    with pytest.raises(ParameterOutOfRange):
        mu.golitschek_coeffs(-1.0, [1.0, 2.0])


def test_coefficient_sum_identity_across_sequences():
    # a_{n,n} computed from its closed product form must satisfy
    # a_{n,n} = 1 - sum_{k<n} a_{k,n} to 1e-10 relative, up to n = 200
    from mpmath import mp

    for q in (0.3, 0.5, 2.7):
        for lambdas in (
            [float(k) for k in range(1, 201)],
            [float(p) for p in mu.first_primes(200)],
        ):
            for ap in mu.coefficient_triangle(q, lambdas):
                with mp.workprec(ap.prec):
                    resid = abs(ap.coeffs[-1] - (1 - sum(ap.coeffs[:-1])))
                    rel = float(resid / max(abs(ap.coeffs[-1]), 1e-30))
                assert rel <= 1e-10, f"q={q}, n={ap.n}: rel resid {rel}"


# ---------------------------------------------------------------------------
# evaluation


def test_qn_eval_endpoints_and_midpoint():
    a1 = mu.golitschek_coeffs(0.5, [1.0], 1)
    assert mu.qn_eval(a1, 0.0) == 0.0
    assert abs(mu.qn_eval(a1, 1.0)) <= 1e-15
    assert mu.qn_eval(a1, 0.25) == pytest.approx(0.25)


def test_qn_vanishes_at_one_through_triangle():
    for ap in mu.coefficient_triangle(0.5, [float(k) for k in range(1, 61)]):
        assert abs(mu.qn_eval(ap, 1.0)) <= 1e-10


def test_sup_q1_at_quarter():
    a1 = mu.golitschek_coeffs(0.5, [1.0], 1)
    est = mu.sup_norm_estimate(a1, 200)
    assert est.sup == pytest.approx(0.25, abs=1e-9)
    assert est.argmax == pytest.approx(0.25, abs=1e-4)
    assert est.sup <= a1.bound


def test_sup_q0_convention():
    a0 = mu.golitschek_coeffs(0.5, [], None)
    est = mu.sup_norm_estimate(a0, 100)
    assert est.sup == pytest.approx(1.0)
    assert a0.bound == 1.0


def test_sup_respects_bound_n100():
    a = mu.golitschek_coeffs(0.5, [float(k) for k in range(1, 101)])
    est = mu.sup_norm_estimate(a, 400)
    assert est.sup <= product_bound(0.5, range(1, 101)) + 1e-9


def test_sup_grid_size_validation():
    a1 = mu.golitschek_coeffs(0.5, [1.0], 1)
    with pytest.raises(ParameterOutOfRange):
        mu.sup_norm_estimate(a1, 50)


def test_bound_contraction_sampled():
    lambdas = [float(k) for k in range(1, 41)]
    for q in (0.3, 2.7):
        for ap in mu.coefficient_triangle(q, lambdas):
            est = mu.sup_norm_estimate(ap, 120)
            assert est.sup <= ap.bound + 1e-9


def test_interleaved_triangles_leave_the_precision_alone():
    # the working precision is raised inside each step only: a suspended
    # triangle never leaves it raised for the caller or another triangle
    assert mp.prec == 53
    a = mu.coefficient_triangle(0.5, [float(k) for k in range(1, 9)])
    b = mu.coefficient_triangle(0.3, [float(p) for p in mu.first_primes(8)])
    for _ in range(4):
        assert next(a).prec > 53 and mp.prec == 53
        assert next(b).prec > 53 and mp.prec == 53
    assert len(list(a)) == 4 and mp.prec == 53
    assert len(list(b)) == 4 and mp.prec == 53


def test_recursion_matches_integral_steps():
    # chain the one-step integral transform against the coefficient route
    q = 0.5
    lambdas = [1.0, 2.0, 3.0, 4.0, 5.0]
    approxes = list(mu.coefficient_triangle(q, lambdas))
    xs = np.linspace(0.02, 0.98, 50)
    prev = mu.golitschek_coeffs(q, [], None)  # Q_0
    for ap, lam in zip(approxes, lambdas):
        worst = max(
            abs(qn_integral_step(prev, lam, float(x)) - mu.qn_eval(ap, float(x)))
            for x in xs
        )
        assert worst <= 1e-8, f"n={ap.n}: {worst}"
        prev = ap


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(0.05, 3.0),
    n=st.integers(1, 12),
)
def test_qn_property_endpoints_and_bound(q, n):
    lambdas = [float(k) for k in range(1, n + 1)]
    if any(abs(q - lam) < 1e-6 for lam in lambdas):
        return
    ap = mu.golitschek_coeffs(q, lambdas)
    assert mu.qn_eval(ap, 0.0) == 0.0
    assert abs(mu.qn_eval(ap, 1.0)) <= 1e-10
    est = mu.sup_norm_estimate(ap, 150)
    assert est.sup <= ap.bound + 1e-9
