import math

import numpy as np
import pytest
from mpmath import mp, mpf

from stieltjes import dist_model as dm
from stieltjes import inversion as inv
from stieltjes.errors import (
    DerivativeUnavailable,
    ParameterOutOfRange,
    PrecisionExhausted,
)


def exp1_oracle():
    return inv.oracle_from_distribution(dm.exponential(1.0))


def reciprocal_oracle():
    # L(s) = 1/s with exact derivatives (-1)^k k! s^{-(k+1)}
    return inv.TransformOracle(
        eval=lambda s: 1 / mpf(s),
        deriv=lambda k, s: (-1) ** k * mp.factorial(k) * mpf(s) ** (-(k + 1)),
        max_k=10**9,
    )


# ---------------------------------------------------------------------------
# oracle basics


def test_oracle_deriv0_equals_eval():
    o = exp1_oracle()
    for s in (0.5, 1.0, 7.3):
        assert abs(float(o.eval(s)) - float(o.deriv(0, s))) <= 1e-14


def test_oracle_sign_alternation():
    dists = [
        dm.exponential(1.0),
        dm.gamma_dist(2.0, 3.0),
        dm.mixture([(0.3, dm.point_mass(0.5)), (0.7, dm.exponential(2.0))]),
    ]
    for d in dists:
        o = inv.oracle_from_distribution(d)
        for k in range(9):
            for s in (0.5, 1.0, 3.0):
                assert (-1) ** k * float(o.deriv(k, s)) >= -1e-12


# ---------------------------------------------------------------------------
# Post-Widder


def test_post_widder_exponential_converges():
    o = exp1_oracle()
    v = inv.post_widder_density(o, 1.0, 64)
    assert abs(v - math.exp(-1.0)) <= 5e-3


def test_post_widder_errors_nonincreasing():
    o = exp1_oracle()
    errs = [
        abs(inv.post_widder_density(o, 1.0, n) - math.exp(-1.0))
        for n in (8, 16, 32, 64)
    ]
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.1 * a  # nonincreasing up to 10% jitter


def test_post_widder_constant_density():
    # L(s) = 1/s is the transform of f = 1; every approximant is exactly 1
    o = reciprocal_oracle()
    for x in (0.3, 1.0, 11.0):
        for n in (1, 5, 40):
            assert abs(inv.post_widder_density(o, x, n) - 1.0) <= 1e-25


def test_post_widder_n0_convention():
    o = exp1_oracle()
    x = 2.0
    assert abs(
        inv.post_widder_density(o, x, 0) - (1 / x) * (1 / (1 + 1 / x))
    ) <= 1e-15


def test_post_widder_validates_input():
    o = exp1_oracle()
    with pytest.raises(ParameterOutOfRange):
        inv.post_widder_density(o, -1.0, 4)
    with pytest.raises(ParameterOutOfRange):
        inv.post_widder_density(o, 1.0, -1)


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("fn", [inv.post_widder_density, inv.feller_cdf])
def test_inversion_rejects_non_finite_x(fn, x):
    with pytest.raises(ParameterOutOfRange, match="x must be positive and finite"):
        fn(exp1_oracle(), x, 4)


def test_post_widder_order_beyond_synthesis_cap():
    eval_only = inv.TransformOracle(eval=lambda s: 1 / (1 + mpf(s)))
    with pytest.raises(DerivativeUnavailable):
        inv.post_widder_density(eval_only, 1.0, 40)


# ---------------------------------------------------------------------------
# CDF series


def test_feller_cdf_exponential_n100():
    o = exp1_oracle()
    for x in (0.5, 1.0, 2.0):
        got = inv.feller_cdf(o, x, 100)
        # closed form of the partial sum: 1 - (n/(n+1))^{floor(nx)+1}
        K = math.floor(100 * x)
        geometric = 1.0 - (100.0 / 101.0) ** (K + 1)
        assert abs(got - geometric) <= 1e-12
        assert abs(got - (1.0 - math.exp(-x))) <= 5e-3


def test_feller_cdf_far_tail():
    o = exp1_oracle()
    assert abs(inv.feller_cdf(o, 50.0, 10) - 1.0) <= 1e-6


def test_feller_cdf_degenerate_at_zero():
    o = inv.TransformOracle(
        eval=lambda s: 1.0, deriv=lambda k, s: 1.0 if k == 0 else 0.0, max_k=10**9
    )
    assert inv.feller_cdf(o, 1.0, 5) == 1.0


def test_feller_monotone_in_x_and_bounded():
    o = exp1_oracle()
    xs = np.linspace(0.1, 4.0, 25)
    vals = [inv.feller_cdf(o, float(x), 40) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def feller_cdf_alt(oracle, x, n):
    """Alternate form of the CDF approximant,
    sum_{k=0}^{n} ((-1)^k/k!) (n/x)^k L^(k)(n/x); cross-checks feller_cdf."""
    with mp.workprec(inv._work_prec(n, oracle)):
        sm = mpf(n) / mpf(x)
        coeff = mpf(1)  # (n/x)^k / k!
        total = mpf(0)
        for k in range(n + 1):
            d, _ = inv._derivative(oracle, k, sm)
            total += (-1) ** k * coeff * d
            coeff = coeff * sm / (k + 1)
        return float(total)


def test_feller_diagnostics_and_alt_form():
    o = exp1_oracle()
    diag = {}
    v = inv.feller_cdf(o, 1.0, 100, diag)
    assert diag["k_max"] == 100
    assert diag["raw"] == pytest.approx(v)
    alt = feller_cdf_alt(o, 1.0, 100)
    assert abs(alt - v) <= 1e-12


def test_feller_atom_mixture_continuity_point():
    d = dm.mixture([(0.3, dm.point_mass(1.0)), (0.7, dm.exponential(1.0))])
    o = inv.oracle_from_distribution(d)
    # 2.0 is a continuity point: series must approach the true CDF
    got = inv.feller_cdf(o, 2.0, 60)
    assert abs(got - d.cdf(2.0)) <= 2e-2


# ---------------------------------------------------------------------------
# derivative synthesis


def test_synthesize_simple_derivatives():
    o = inv.TransformOracle(eval=lambda s: 1 / (1 + mpf(s)))
    est = inv.synthesize_derivatives(o, 1, 1.0)
    assert abs(est.value + 0.25) <= 1e-10

    o2 = inv.TransformOracle(eval=lambda s: mp.e ** (-mpf(s)))
    est = inv.synthesize_derivatives(o2, 3, 2.0)
    assert abs(est.value + math.exp(-2.0)) <= 1e-8


def test_synthesize_matches_gamma_closed_forms():
    d = dm.gamma_dist(2.0, 3.0)
    o = inv.oracle_from_distribution(d)
    eval_only = inv.TransformOracle(eval=o.eval)
    for k in range(1, 9):
        for s in (0.5, 1.5, 4.0):
            est = inv.synthesize_derivatives(eval_only, k, s)
            exact = float(o.deriv(k, s))
            # certified error must dominate, up to float64 quantization
            assert abs(est.value - exact) <= est.error + 1e-15 * abs(exact)


def test_synthesize_oscillatory_exhausts_precision():
    o = inv.TransformOracle(eval=lambda s: math.sin(1e9 * float(s)))
    with pytest.raises(PrecisionExhausted):
        inv.synthesize_derivatives(o, 12, 1.0)


def test_synthesize_validates():
    o = inv.TransformOracle(eval=lambda s: 1 / (1 + mpf(s)))
    with pytest.raises(DerivativeUnavailable):
        inv.synthesize_derivatives(o, 13, 1.0)
    with pytest.raises(ParameterOutOfRange):
        inv.synthesize_derivatives(o, 1, -2.0)


def test_synthesized_zero_derivative_is_not_a_failure():
    o = inv.TransformOracle(eval=lambda s: mpf(1))
    est = inv.synthesize_derivatives(o, 2, 1.0)
    assert abs(est.value) <= 1e-20


# ---------------------------------------------------------------------------
# Watson asymptotics


def test_watson_exponential_exact_case():
    derivs = [(-1.0) ** n for n in range(31)]
    rep = inv.watson_check(derivs, 2.0, 30, lf_value=1.0 / 3.0)
    assert rep.residuals[-1] < 1e-8
    assert not rep.small_s
    assert rep.converged


def test_watson_constant_function():
    rep = inv.watson_check([1.0, 0.0, 0.0], 5.0, lf_value=0.2)
    assert rep.partial_sums[0] == pytest.approx(0.2)
    assert rep.final == pytest.approx(0.2)


def test_watson_linear_function():
    rep = inv.watson_check([0.0, 1.0, 0.0], 10.0)
    assert rep.partial_sums[1] == pytest.approx(1e-2)


def test_watson_small_s_flagged():
    rep = inv.watson_check([1.0, -1.0], 0.5)
    assert rep.small_s


def test_watson_validates():
    with pytest.raises(ParameterOutOfRange):
        inv.watson_check([1.0], 2.0, N=5)
    with pytest.raises(ParameterOutOfRange):
        inv.watson_check([1.0], -1.0)
