"""Constructive Muntz approximation via von Golitschek's recursion.

Builds the residual functions Q_n(x) = x^q - sum_k a_{k,n} x^{lambda_k}
whose sup norms on [0,1] are bounded by prod_k |1 - q/lambda_k|.  The
off-diagonal coefficients follow the one-step update
a_{k,n} = a_{k,n-1} (lambda_n - q)/(lambda_n - lambda_k); the new diagonal
coefficient is computed from its closed product form, which makes the sum
identity a_{n,n} = 1 - sum_{k<n} a_{k,n} a genuine numerical check rather
than a definition.

Intermediate coefficients grow combinatorially before cancelling (around
2^n for integer sequences), so coefficients are computed and evaluated in
mpmath at a precision estimated from a float log-domain prepass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from mpmath import mp, mpf

from ._quadrature import adaptive_quad
from .errors import ParameterOutOfRange, QCollidesWithLambda

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def first_primes(n: int) -> list[int]:
    """The first n primes by sieve."""
    if n <= 0:
        return []
    if n < 6:
        bound = 15
    else:
        bound = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    while True:
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(bound**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        if len(primes) >= n:
            return [int(p) for p in primes[:n]]
        bound *= 2  # pragma: no cover - the analytic bound suffices


class MuntzSequence:
    """Strictly increasing positive reals with a divergence certificate tag.

    kind 'primes' and 'integers' diverge a priori; 'custom' sequences only
    carry the partial sum of reciprocals over the materialized prefix,
    since divergence is undecidable from finite data.
    """

    def __init__(self, kind: str, values: Sequence[float] | None = None):
        if kind not in ("primes", "integers", "custom"):
            raise ParameterOutOfRange(f"unknown sequence kind {kind!r}")
        if kind == "custom":
            if values is None:
                raise ParameterOutOfRange("custom sequence needs values")
            vals = [float(v) for v in values]
            if not all(math.isfinite(v) for v in vals):
                raise ParameterOutOfRange("sequence values must be finite")
            if any(v <= 0 for v in vals):
                raise ParameterOutOfRange("sequence values must be positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ParameterOutOfRange("sequence must be strictly increasing")
            self._values = vals
        else:
            self._values = None
        self.kind = kind

    @classmethod
    def primes(cls) -> "MuntzSequence":
        return cls("primes")

    @classmethod
    def integers(cls) -> "MuntzSequence":
        return cls("integers")

    @classmethod
    def custom(cls, values: Sequence[float]) -> "MuntzSequence":
        return cls("custom", values)

    def prefix(self, n: int) -> list[float]:
        if n < 0:
            raise ParameterOutOfRange("prefix length must be >= 0")
        if self.kind == "primes":
            return [float(p) for p in first_primes(n)]
        if self.kind == "integers":
            return [float(k) for k in range(1, n + 1)]
        if n > len(self._values):
            raise ParameterOutOfRange(
                f"custom sequence has only {len(self._values)} values"
            )
        return self._values[:n]

    def partial_inverse_sum(self, n: int) -> float:
        return sum(1.0 / v for v in self.prefix(n))


@dataclass(frozen=True)
class DivergenceCertificate:
    kind: str
    certified: bool
    prefix_len: int
    partial_sum: float
    statement: str


def divergence_certificate(seq: MuntzSequence, prefix_len: int) -> DivergenceCertificate:
    """Certificate that sum 1/lambda_k diverges, where one exists a priori.

    Custom sequences are reported honestly: no finite prefix can certify
    divergence, so only the partial sum is recorded.
    """
    psum = seq.partial_inverse_sum(prefix_len)
    if seq.kind == "primes":
        return DivergenceCertificate(
            "primes", True, prefix_len, psum,
            "certified-divergent: the sum of prime reciprocals diverges "
            "(a priori, independent of the prefix)",
        )
    if seq.kind == "integers":
        return DivergenceCertificate(
            "integers", True, prefix_len, psum,
            "certified-divergent: the harmonic series diverges "
            "(a priori, independent of the prefix)",
        )
    return DivergenceCertificate(
        "custom", False, prefix_len, psum,
        "not-certifiable: divergence of a custom sequence cannot be decided "
        "from a finite prefix; partial sum reported only",
    )


# ---------------------------------------------------------------------------
# Coefficients


@dataclass(frozen=True)
class MuntzApproximant:
    """Q_n for one (q, lambda-prefix) pair: exponents, coefficients, bound.

    Coefficients are mpmath values at `prec` bits; `bound` is the sup-norm
    bound prod_k |1 - q/lambda_k|.
    """

    q: float
    lambdas: tuple[float, ...]
    coeffs: tuple
    prec: int
    bound: float

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def coeffs_float(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])


def _validate(q: float, lambdas: Sequence[float]):
    if not math.isfinite(q):
        raise ParameterOutOfRange("q must be finite")
    if q <= 0:
        raise ParameterOutOfRange("q must be positive")
    prev = 0.0
    for lam in lambdas:
        if lam <= prev:
            raise ParameterOutOfRange(
                "lambda sequence must be strictly increasing and positive"
            )
        prev = lam
    for lam in lambdas:
        if abs(q - lam) <= 1e-12 * max(1.0, abs(lam)):
            raise QCollidesWithLambda(f"q={q:g} coincides with lambda={lam:g}")


def _required_prec(q: float, lambdas: Sequence[float]) -> int:
    """Float log-domain prepass over the recursion to size the precision.

    The sum identity a_{n,n} = 1 - sum_{k<n} a_{k,n} must cancel coefficients
    as large as 2^maxlog down to 1e-10 relative to the diagonal coefficient,
    which can itself be far below 1, so the budget covers the full spread.
    """
    n = len(lambdas)
    logs = []  # log2 |a_{k,m}| for current m
    maxlog = 0.0
    min_diag = 0.0
    for m in range(n):
        lam_m = lambdas[m]
        for k in range(m):
            logs[k] += math.log2(abs(lam_m - q)) - math.log2(lam_m - lambdas[k])
        diag = sum(
            math.log2(abs(lambdas[k] - q)) - math.log2(abs(lambdas[k] - lam_m))
            for k in range(m)
        )
        logs.append(diag)
        maxlog = max(maxlog, max(logs))
        min_diag = min(min_diag, diag)
    return max(128, int(maxlog - min_diag) + 96)


def coefficient_triangle(q: float, lambdas: Sequence[float]) -> Iterator[MuntzApproximant]:
    """Yield the approximants for n = 1..len(lambdas) along a single
    recursion pass.

    The working precision is raised only while a step computes, never
    across a yield, so code running between steps (or another triangle)
    keeps its own mpmath precision.
    """
    lambdas = [float(v) for v in lambdas]
    _validate(q, lambdas)
    prec = _required_prec(q, lambdas)
    with mp.workprec(prec):
        qm = mpf(q)
        lams = [mpf(v) for v in lambdas]
    col: list = []
    bound = 1.0
    for m, lam_m in enumerate(lams):
        with mp.workprec(prec):
            for k in range(m):
                col[k] = col[k] * (lam_m - qm) / (lam_m - lams[k])
            diag = mpf(1)
            for k in range(m):
                diag *= (lams[k] - qm) / (lams[k] - lam_m)
        col.append(diag)
        bound *= abs(1.0 - q / lambdas[m])
        yield MuntzApproximant(
            q=q,
            lambdas=tuple(lambdas[: m + 1]),
            coeffs=tuple(col),
            prec=prec,
            bound=bound,
        )


def golitschek_coeffs(q: float, lambdas, n: int | None = None) -> MuntzApproximant:
    """Coefficients of Q_n for exponent q and the given sequence prefix.

    `lambdas` may be a MuntzSequence (materialized to length n) or an
    explicit prefix.  n=0 returns the bare Q_0 = x^q convention.
    """
    if isinstance(lambdas, MuntzSequence):
        if n is None:
            raise ParameterOutOfRange("n is required with a MuntzSequence")
        prefix = lambdas.prefix(n)
    else:
        prefix = [float(v) for v in lambdas]
        if n is not None:
            if n > len(prefix):
                raise ParameterOutOfRange("n exceeds the provided prefix length")
            prefix = prefix[:n]
    if len(prefix) == 0:
        _validate(q, [])
        return MuntzApproximant(q=q, lambdas=(), coeffs=(), prec=128, bound=1.0)
    last = None
    for approx in coefficient_triangle(q, prefix):
        last = approx
    return last


# ---------------------------------------------------------------------------
# Evaluation


def _powers(x_mpf, lambdas: Sequence[float]):
    """x^lambda_k for all k, exploiting integer exponent gaps when present."""
    if all(float(v).is_integer() for v in lambdas):
        out = []
        exps = [int(v) for v in lambdas]
        p = x_mpf ** exps[0]
        out.append(p)
        for prev, cur in zip(exps, exps[1:]):
            p = p * x_mpf ** (cur - prev)
            out.append(p)
        return out
    t = mp.log(x_mpf)
    return [mp.e ** (mpf(v) * t) for v in lambdas]


def qn_eval(approx: MuntzApproximant, x: float) -> float:
    """Q_n(x) = x^q - sum_k a_{k,n} x^{lambda_k}, evaluated at the
    approximant's working precision (the terms cancel massively near 1)."""
    if not 0.0 <= x <= 1.0:
        raise ParameterOutOfRange("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    with mp.workprec(approx.prec):
        xm = mpf(x)
        total = xm ** mpf(approx.q)
        if approx.n:
            for c, p in zip(approx.coeffs, _powers(xm, approx.lambdas)):
                total -= c * p
        return float(total)


class SupEstimate(NamedTuple):
    sup: float
    argmax: float


def sup_norm_estimate(approx: MuntzApproximant, grid_size: int | None = None) -> SupEstimate:
    """max |Q_n| over a Chebyshev grid, polished by golden-section search.

    Any sampled sup is a lower bound for the true sup, which the product
    bound dominates; a sampled value above bound + 1e-6 therefore signals
    an arithmetic failure and raises.
    """
    if grid_size is None:
        grid_size = max(100, 10 * approx.n)
    if grid_size < 100:
        raise ParameterOutOfRange("grid_size must be >= 100")
    j = np.arange(grid_size)
    xs = 0.5 * (1.0 - np.cos(math.pi * j / (grid_size - 1)))
    vals = np.abs([qn_eval(approx, float(x)) for x in xs])
    i = int(np.argmax(vals))

    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, grid_size - 1)]
    f = lambda x: abs(qn_eval(approx, x))
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a < 1e-12:
            break
    x_best = 0.5 * (a + b)
    sup = max(float(vals[i]), f(x_best))
    arg = x_best if f(x_best) >= vals[i] else float(xs[i])
    if sup > approx.bound + 1e-6:
        raise ArithmeticError(
            f"sampled sup {sup:.6g} exceeds the bound {approx.bound:.6g}: "
            "evaluation precision is insufficient"
        )
    return SupEstimate(sup, arg)


def qn_integral_step(
    prev: MuntzApproximant, lam_n: float, x: float, tol: float = 1e-10
) -> float:
    """One step of the defining integral recursion, evaluated numerically:
    (lambda_n - q) x^{lambda_n} integral_x^1 Q_{n-1}(t) t^{-(1+lambda_n)} dt.

    Uses float evaluation of Q_{n-1}; intended for small n as an independent
    check of the coefficient recursion.
    """
    if not 0.0 < x <= 1.0:
        raise ParameterOutOfRange("x must lie in (0, 1]")
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

    res = adaptive_quad(
        lambda t: qprev(t) * t ** (-(1.0 + lam_n)), x, 1.0, tol
    )
    return (lam_n - q) * x**lam_n * res.value
