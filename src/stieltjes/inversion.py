"""Transform inversion in extended precision.

Recovering a density or CDF from a transform oracle multiplies k-th
derivatives by factors like n^k/k!, which is catastrophic in double
precision; all combination arithmetic here runs under mpmath with a working
precision that grows with the derivative order.  Oracles either carry a
closed-form derivative or have derivatives synthesized by central finite
differences (order capped, certified error reported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from mpmath import mp, mpf

from .dist_model import Distribution1D
from .errors import DerivativeUnavailable, ParameterOutOfRange, PrecisionExhausted

SYNTH_MAX_ORDER = 12


@dataclass
class TransformOracle:
    """Evaluator for a transform L(s), s > 0, plus optional derivatives.

    eval : s -> value (float or mpf; mpf in, mpf out preserves precision)
    deriv : (k, s) -> k-th derivative, or None
    max_k : largest order `deriv` supports
    precision_bits : floor for the working precision of combinations
    """

    eval: Callable
    deriv: Callable | None = None
    max_k: int = 0
    precision_bits: int = 128


def _work_prec(k: int, oracle: TransformOracle) -> int:
    return max(128, 64 + 8 * k, oracle.precision_bits)


class DerivativeEstimate(NamedTuple):
    value: float
    error: float


def _stencil(f, k: int, s, h):
    """Central k-th finite difference with half-step offsets for odd k."""
    total = mpf(0)
    for i in range(k + 1):
        c = mp.binomial(k, i)
        offset = (mpf(k) / 2 - i) * h
        total += (-1) ** i * c * mpf(f(s + offset))
    return total / h**k


def synthesize_derivatives(oracle: TransformOracle, k: int, s: float) -> DerivativeEstimate:
    """k-th derivative of oracle.eval at s by extended-precision differences.

    Step size h = s * 2^(-p/(2k+2)) balances truncation against roundoff at
    working precision p; the certified error is the discrepancy against the
    double-step stencil.  Raises PrecisionExhausted when that error exceeds
    10% of the value.
    """
    if s <= 0:
        raise ParameterOutOfRange("s must be positive")
    if k < 0 or k > SYNTH_MAX_ORDER:
        raise DerivativeUnavailable(
            f"synthesized derivatives are capped at order {SYNTH_MAX_ORDER}"
        )
    p = _work_prec(k, oracle)
    with mp.workprec(p + 16):
        sm = mpf(s)
        if k == 0:
            return DerivativeEstimate(float(mpf(oracle.eval(sm))), 0.0)
        h = sm * mpf(2) ** (-mpf(p) / (2 * k + 2))
        d1 = _stencil(oracle.eval, k, sm, h)
        d2 = _stencil(oracle.eval, k, sm, 2 * h)
        err = abs(d1 - d2)
        noise = mpf(2) ** (-(p // 3)) * (1 + abs(mpf(oracle.eval(sm))))
        if err > noise and err > mpf("0.1") * abs(d1):
            raise PrecisionExhausted(
                f"finite-difference derivative of order {k} at s={s:g}: "
                f"certified error {float(err):.3e} exceeds 10% of the value"
            )
        return DerivativeEstimate(float(d1), float(err))


def _derivative(oracle: TransformOracle, k: int, s):
    """k-th derivative as (mpf value, mpf certified error)."""
    if k == 0:
        return mpf(oracle.eval(s)), mpf(0)
    if oracle.deriv is not None and k <= oracle.max_k:
        return mpf(oracle.deriv(k, s)), mpf(0)
    if k <= SYNTH_MAX_ORDER:
        est = synthesize_derivatives(oracle, k, float(s))
        return mpf(est.value), mpf(est.error)
    raise DerivativeUnavailable(
        f"order {k} exceeds the oracle's max_k={oracle.max_k} and the "
        f"synthesis cap {SYNTH_MAX_ORDER}"
    )


def post_widder_density(oracle: TransformOracle, x: float, n: int) -> float:
    """n-th Post-Widder approximant ((-1)^n/n!) (n/x)^(n+1) L^(n)(n/x).

    Converges to the density at x as n grows; callers observe convergence by
    increasing n.  n=0 degenerates to (1/x) L(1/x).
    """
    if not (math.isfinite(x) and x > 0):
        raise ParameterOutOfRange("x must be positive and finite")
    if n < 0:
        raise ParameterOutOfRange("n must be >= 0")
    prec = _work_prec(n, oracle)
    with mp.workprec(prec):
        if n == 0:
            return float(mpf(oracle.eval(mpf(1) / x)) / x)
        sm = mpf(n) / mpf(x)
        d, derr = _derivative(oracle, n, sm)
        scale = sm ** (n + 1) / mp.factorial(n)
        val = (-1) ** n * scale * d
        err = scale * derr
        if err > abs(val) and err > 0:
            raise PrecisionExhausted(
                f"Post-Widder order {n} at x={x:g}: certified error "
                f"{float(err):.3e} exceeds the result magnitude"
            )
        return float(val)


def feller_cdf(
    oracle: TransformOracle, x: float, n: int, diagnostics: dict | None = None
) -> float:
    """CDF approximant sum_{k <= n x} (-1)^k (n^k/k!) L^(k)(n), clamped to [0,1].

    Valid at continuity points of the underlying CDF; at atoms the limit is
    not guaranteed and no correction is applied.  The closed interval
    k <= floor(n x) is used.  The raw (unclamped) value lands in
    `diagnostics` when a dict is supplied.
    """
    if not (math.isfinite(x) and x > 0):
        raise ParameterOutOfRange("x must be positive and finite")
    if n < 1:
        raise ParameterOutOfRange("n must be >= 1")
    K = int(math.floor(n * x + 1e-12))
    prec = _work_prec(K, oracle)
    with mp.workprec(prec):
        sn = mpf(n)
        coeff = mpf(1)  # n^k / k!
        total = mpf(0)
        err = mpf(0)
        for k in range(K + 1):
            d, derr = _derivative(oracle, k, sn)
            total += (-1) ** k * coeff * d
            err += coeff * derr
            coeff = coeff * sn / (k + 1)
        if err > abs(total) and err > 0:
            raise PrecisionExhausted(
                f"CDF series at x={x:g}, n={n}: certified error exceeds result"
            )
        raw = float(total)
    if diagnostics is not None:
        diagnostics.update({"raw": raw, "k_max": K, "precision_bits": prec,
                            "certified_error": float(err)})
    return min(1.0, max(0.0, raw))


@dataclass
class WatsonReport:
    """Partial sums of the large-s expansion sum f^(n)(0)/s^(n+1)."""

    s: float
    partial_sums: list
    final: float
    residuals: list | None
    small_s: bool

    @property
    def converged(self) -> bool:
        return self.residuals is not None and self.residuals[-1] < 1e-8


def watson_check(
    f_derivs_at_0: Sequence[float], s: float, N: int | None = None,
    lf_value: float | None = None,
) -> WatsonReport:
    """Asymptotic expansion diagnostic for large s.

    Sums f^(n)(0)/s^(n+1) for n <= N and reports residuals against a
    supplied transform value.  For s <= 1 the expansion need not mean
    anything; the report flags that rather than erroring.
    """
    if s <= 0:
        raise ParameterOutOfRange("s must be positive")
    derivs = list(f_derivs_at_0)
    if N is None:
        N = len(derivs) - 1
    if N >= len(derivs):
        raise ParameterOutOfRange(
            f"N={N} needs {N + 1} derivatives, got {len(derivs)}"
        )
    partials = []
    total = 0.0
    for nn in range(N + 1):
        total += derivs[nn] / s ** (nn + 1)
        partials.append(total)
    residuals = None
    if lf_value is not None:
        residuals = [abs(p - lf_value) for p in partials]
    return WatsonReport(
        s=s, partial_sums=partials, final=partials[-1],
        residuals=residuals, small_s=(s <= 1.0),
    )


def oracle_from_distribution(
    dist: Distribution1D, precision_bits: int = 128
) -> TransformOracle:
    """Closed-form transform oracle for catalog laws and their mixtures.

    Atom and gamma-family components get exact derivatives of every order;
    a stable component limits the oracle to plain evaluation (derivatives
    then fall back to synthesis).
    """
    terms = dist.transform_terms
    if terms is None:
        raise DerivativeUnavailable(
            "distribution carries no transform terms; wrap its transform in a "
            "TransformOracle manually"
        )

    def ev(s):
        sm = mpf(s)
        total = mpf(0)
        for t in terms:
            if t[0] == "atom":
                _, m, loc = t
                total += mpf(m) * mp.e ** (-sm * mpf(loc))
            elif t[0] == "gamma":
                _, w, rate, shape = t
                total += mpf(w) * (mpf(rate) / (mpf(rate) + sm)) ** mpf(shape)
            else:
                _, w, alpha = t
                total += mpf(w) * mp.e ** (-(sm ** mpf(alpha)))
        return total

    derivable = all(t[0] in ("atom", "gamma") for t in terms)
    if not derivable:
        return TransformOracle(eval=ev, deriv=None, max_k=0,
                               precision_bits=precision_bits)

    def dv(k, s):
        sm = mpf(s)
        total = mpf(0)
        for t in terms:
            if t[0] == "atom":
                _, m, loc = t
                total += mpf(m) * (-mpf(loc)) ** k * mp.e ** (-sm * mpf(loc))
            else:
                _, w, rate, shape = t
                rate, shape = mpf(rate), mpf(shape)
                total += (
                    mpf(w) * rate**shape * (-1) ** k * mp.rf(shape, k)
                    * (rate + sm) ** (-(shape + k))
                )
        return total

    return TransformOracle(eval=ev, deriv=dv, max_k=10**9,
                           precision_bits=precision_bits)
