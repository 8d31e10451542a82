"""Nonnegative distributions with atoms, densities, and singular parts.

Univariate laws are atom lists plus an absolutely continuous part; joint laws
come from a small catalog: independent products of any dimension >= 2, the
bivariate lack-of-memory law S(y + w, y) = e^{-theta y} Fbar(w) (with its
singular diagonal; Marshall-Olkin and Freund are two of its cases), and the
Gamma series families, Kibble's bivariate Gamma (of which Moran-Downton is a
case) and the trivariate Gamma.  Every law exposes CDF, survival, and
marginals of every order; catalog entries also carry their closed-form
Laplace-Stieltjes transform.

The positive stable law exp(-s^alpha) has its own kernel for the CDF and
density: Pollard's convergent series in the tail and Kanter's integral over
[0, pi] elsewhere, to about 1e-16 absolute in the CDF.  The Gamma laws and
the Gamma-series families share one regularized incomplete-Gamma kernel,
`_gamma_table`: each shape a = f + m, f in (0, 1], takes one evaluation of
P(f, z) and Q(f, z) and m steps of the recurrence P(a + 1) = P(a) - d(a),
to about 1e-15 absolute.  Neither kernel needs scipy, which the library
never imports.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quadrature import NODES, W_GAUSS, W_KRONROD
from .errors import (
    MissingMarginal,
    ParameterOutOfRange,
    PrecisionExhausted,
    UnknownCatalogName,
)

_MASS_TOL = 1e-12
# pointwise sums of products hold at most this many term values at once
_TERM_BLOCK = 1 << 20


def _finite_positive(*vals) -> bool:
    """True when every value is finite and > 0; NaN fails."""
    return all(math.isfinite(v) and v > 0 for v in vals)


# ---------------------------------------------------------------------------
# Regularized incomplete Gamma kernel

# P(f, z), f in (0, 1], from the power series below z = _GAMMA_SPLIT, with
# terms k = 1..17 + 4 max(z), whose tail is then under 1e-17 of the sum;
# Q(f, z) from a _LAGUERRE_NODES-point Gauss-Laguerre rule above it, within
# 3e-15 relative where Q < 3e-3
_GAMMA_SPLIT = 6.0
_GAMMA_SERIES = np.arange(1.0, 42.0)
_LAGUERRE_NODES = 20
# z - a - a log(z/a) from a series where |z/a - 1| < _GAMMA_NEAR, since there
# the two sides cancel
_GAMMA_NEAR = 0.3
# a^a e^-a / Gamma(a + 1) from Stirling's series for log Gamma*(a) (seven
# terms, within 8e-16) at a >= _STIRLING_MIN and as a^(a-1) e^-a / Gamma(a)
# below: the series is 2e-11 off at a = 5, and exp(a log a - a - lgamma(a+1))
# is 3e-14 off at a = 40
_STIRLING_MIN = 10.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# beyond this z every P is 1, Q is 0 and d is 0 in double precision
_GAMMA_Z_MAX = 1e300
# a row a further than _GAMMA_REACH (sqrt(z) + 1) from z has d(a, z) < 1e-24
# (t >= 72 below z; above, t >= 56 at z = 1 and -> 72 as z grows)
_GAMMA_REACH = 12.0


@functools.cache
def _laguerre():
    return np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)


@functools.lru_cache(maxsize=64)
def _gamma_series(f: float):
    """1/Gamma(f + 1) and the power-series coefficients 1/((f+1)...(f+k))."""
    coeffs = 1.0 / np.cumprod(f + _GAMMA_SERIES)
    coeffs.setflags(write=False)
    return 1.0 / math.gamma(f + 1.0), coeffs


@functools.lru_cache(maxsize=64)
def _gamma_scales(f: float, lo: int, hi: int):
    """a^a e^-a / Gamma(a + 1) = 1 / (sqrt(2 pi a) Gamma*(a)) at the shapes
    a = f + k, lo <= k < hi."""
    a = f + np.arange(lo, hi)
    small = a < _STIRLING_MIN
    out = np.empty(a.size)
    out[small] = [v ** (v - 1.0) * math.exp(-v) / math.gamma(v) for v in a[small]]
    big = a[~small]
    inv = 1.0 / (big * big)
    log_star = 0.0
    for c in reversed(_STIRLING):
        log_star = log_star * inv + c
    out[~small] = np.exp(-log_star / big) / np.sqrt(2.0 * math.pi * big)
    out.setflags(write=False)
    return out


def _gamma_d(f, lo, hi, z):
    """d(a, z) = z^a e^-z / Gamma(a + 1) at a = f + k, lo <= k < hi, and
    flat z; shape (hi - lo, z.size).

    d = e^-t a^a e^-a / Gamma(a + 1) with t = z - a - a log(z/a).  Where
    |y| < _GAMMA_NEAR, y = (z - a)/a, t is a (y - log1p(y)) summed as
    a w (y - 2 w^2 (1/3 + w^2/5 + ...)), w = y/(2 + y), so that no rounding
    of order a eps enters the exponent.  Elsewhere either a is small or
    t >= 0.037 a makes d negligible, so log z - log a is rounded harmlessly.
    """
    a = (f + np.arange(lo, hi))[:, None]
    dz = z - a
    y = dz / a
    with np.errstate(divide="ignore"):
        t = dz - a * (np.log(z) - np.log(a))
    near = np.abs(y) < _GAMMA_NEAR
    if near.any():
        yn = y[near]
        w = yn / (2.0 + yn)
        w2 = w * w
        s = 0.0
        for j in range(12, 0, -1):  # w^2 < 0.031: the first term left out is < 1e-19
            s = s * w2 + 1.0 / (2 * j + 1)
        t[near] = np.broadcast_to(a, t.shape)[near] * w * (yn - 2.0 * w2 * s)
    return _gamma_scales(f, lo, hi)[:, None] * np.exp(-t)


def _gamma_pq(f, z):
    """P(f, z) and Q(f, z) for f in (0, 1] and flat z in [0, _GAMMA_Z_MAX]."""
    if f == 1.0:
        return -np.expm1(-z), np.exp(-z)
    scale, coeffs = _gamma_series(f)  # d(f, z) = scale z^f e^-z

    def p_series(z, z_max):  # P = d (1 + z/(f+1) + z^2/((f+1)(f+2)) + ...)
        k = int(17.0 + 4.0 * z_max) + 1
        return scale * z**f * np.exp(-z) * (1.0 + (z[:, None] ** _GAMMA_SERIES[:k]) @ coeffs[:k])

    def q_laguerre(z):  # Q = (f d / z) int_0^inf e^-u (1 + u/z)^(f - 1) du
        u, w = _laguerre()
        tail = (1.0 + u / z[:, None]) ** (f - 1.0) @ w
        return (f * scale) * z ** (f - 1.0) * np.exp(-z) * tail

    # when every point lies on one side of the split, as on most quadrature
    # panels, only one side is evaluated
    z_max = z.max(initial=0.0)  # NaN when z holds one: the mixed case below
    if z_max < _GAMMA_SPLIT:
        p = p_series(z, z_max)
        return p, 1.0 - p
    if z.min() >= _GAMMA_SPLIT:
        q = q_laguerre(z)
        return 1.0 - q, q
    lo = z < _GAMMA_SPLIT
    p = p_series(np.fmin(z, _GAMMA_SPLIT), _GAMMA_SPLIT)
    q = q_laguerre(np.maximum(z, _GAMMA_SPLIT))
    return np.where(lo, p, 1.0 - q), np.where(lo, 1.0 - p, q)


def _gamma_rows(f, rows, z, upper=False):
    """Regularized incomplete Gamma P(f + k, z) (Q when `upper`) at the
    integer rows k >= 0, for f in (0, 1]; shape (len(rows),) + z.shape.

    One base evaluation at f, then d(a) = z^a e^-z / Gamma(a + 1) per row:
    P(a + 1) = P(a) - d(a) and Q(a + 1) = Q(a) + d(a), summed up the rows in
    blocks of at most _TERM_BLOCK values.  Only the rows within reach of
    some point are summed: below them every row holds the base value, above
    them the value of the last one.  z < 0 reads as 0.
    """
    top = int(max(rows))
    shape = (len(rows),) + np.shape(z)
    z = np.minimum(np.maximum(np.ravel(z), 0.0), _GAMMA_Z_MAX)
    p, q = _gamma_pq(f, z)
    acc = q if upper else p
    if top == 0:
        return acc[None].repeat(len(rows), axis=0).reshape(shape)
    first, last = 0, top
    live = z[z == z]  # a NaN point is NaN in every row whatever the window
    if live.size:
        z_lo, z_hi = live.min(), live.max()
        first = max(0, min(top, int(z_lo - _GAMMA_REACH * (math.sqrt(z_lo) + 1.0) - f)))
        last = min(top, int(z_hi + _GAMMA_REACH * (math.sqrt(z_hi) + 1.0)) + 1)
    rows = np.asarray(rows)
    out = np.empty((len(rows), z.size))
    out[rows <= first] = acc
    step = max(1, _TERM_BLOCK // max(1, z.size))
    for lo in range(first, last, step):
        hi = min(last, lo + step)
        tab = np.cumsum(_gamma_d(f, lo, hi, z), axis=0)
        tab = acc + tab if upper else acc - tab
        sel = (rows > lo) & (rows <= hi)
        out[sel] = tab[rows[sel] - lo - 1]
        acc = tab[-1]
    out[rows > last] = acc
    # the sums over rows may round a hair past 0 or 1
    return np.minimum(np.maximum(out, 0.0, out=out), 1.0, out=out).reshape(shape)


def _gamma_table(shapes, rate, x, upper=False):
    """Regularized incomplete Gamma P(a, rate*x) (Q when `upper`) for each
    shape a; shape (len(shapes),) + x.shape.  Shapes whose fractional parts
    agree to an ulp of the largest shape share one `_gamma_rows` call."""
    z = rate * np.asarray(x, dtype=float)
    uniq, inv = np.unique(shapes, return_inverse=True)
    m = np.ceil(uniq) - 1.0
    f = uniq - m
    by_f = np.argsort(f)
    split = np.flatnonzero(np.diff(f[by_f]) > np.spacing(uniq[-1])) + 1
    out = np.empty((uniq.size,) + z.shape)
    for grp in np.split(by_f, split):
        # the smallest shape of the group carries the least rounding in f
        out[grp] = _gamma_rows(float(f[grp.min()]), m[grp].astype(int), z, upper)
    return out[inv]


# ---------------------------------------------------------------------------
# Univariate distributions


class Distribution1D:
    """A distribution on [0, inf): atoms plus an absolutely continuous part.

    Parameters
    ----------
    atoms : sequence of (location, mass)
        Point masses; locations >= 0, masses > 0.
    ac_weight : float
        Weight of the absolutely continuous part, in [0, 1].
    ac_density, ac_cdf : callables or None
        Normalized density / CDF of the AC part (each integrates /
        saturates to 1 on its own); both vectorized over numpy arrays.
    transform_terms : list of tuples or None
        Closed-form transform description, one tuple per component:
        ``("atom", mass, loc)``, ``("gamma", weight, rate, shape)``,
        ``("hypoexp", weight, a, b)`` (the sum of independent Exp(a) and
        Exp(b), transform ab/((a+s)(b+s)), which does not cancel as b -> a)
        or ``("stable", weight, alpha)``.  Used for the closed-form route
        and for synthesizing exact transform derivatives.
    """

    def __init__(
        self,
        atoms: Sequence[tuple[float, float]] = (),
        ac_weight: float = 0.0,
        ac_density: Callable | None = None,
        ac_cdf: Callable | None = None,
        *,
        transform_terms: list[tuple] | None = None,
        catalog_id: str | None = None,
        params: dict | None = None,
        density_at_zero: float | None = None,
    ):
        atoms = tuple((float(a), float(m)) for a, m in atoms)
        for loc, mass in atoms:
            if not (math.isfinite(loc) and loc >= 0):
                raise ParameterOutOfRange("atom location must be finite and >= 0")
            if not 0 < mass <= 1 + _MASS_TOL:
                raise ParameterOutOfRange("atom mass must lie in (0, 1]")
        total = sum(m for _, m in atoms) + ac_weight
        if not abs(total - 1.0) <= _MASS_TOL:
            raise ParameterOutOfRange(
                f"atom masses + AC weight must sum to 1 (got {total!r})"
            )
        if ac_weight > 0 and ac_cdf is None:
            raise ParameterOutOfRange("an AC part needs a CDF evaluator")
        self.atoms = tuple(sorted(atoms))
        self.ac_weight = float(ac_weight)
        self.ac_density = ac_density
        self.ac_cdf = ac_cdf
        self.transform_terms = transform_terms
        self.catalog_id = catalog_id
        self.params = dict(params) if params else None
        self.density_at_zero = density_at_zero

    dim = 1

    @property
    def has_density(self) -> bool:
        return self.ac_weight == 0.0 or self.ac_density is not None

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.ac_weight > 0:
            out = self.ac_weight * np.asarray(self.ac_cdf(np.maximum(x, 0.0)))
            # quadrature nodes are never negative: skip the mask where none is
            below = x < 0
            if below.any():
                out = np.where(below, 0.0, out)
        else:
            out = np.zeros_like(x)
        for loc, mass in self.atoms:
            out = out + mass * (x >= loc)
        return float(out) if out.ndim == 0 else out

    def survival(self, x):
        out = 1.0 - self.cdf(x)
        return out

    def density(self, x):
        """Defective density of the AC part (weight included); atoms excluded."""
        if self.ac_density is None:
            raise ParameterOutOfRange("distribution has no density evaluator")
        x = np.asarray(x, dtype=float)
        out = self.ac_weight * np.asarray(self.ac_density(x))
        return float(out) if out.ndim == 0 else out

    def closed_ls(self, s: float) -> float | None:
        """Closed-form transform value, or None if not available."""
        if self.transform_terms is None:
            return None
        total = 0.0
        for term in self.transform_terms:
            if term[0] == "atom":
                _, m, loc = term
                total += m * math.exp(-s * loc)
            elif term[0] == "gamma":
                _, w, rate, shape = term
                total += w * (rate / (rate + s)) ** shape
            elif term[0] == "hypoexp":
                _, w, a, b = term
                total += w * a * b / ((a + s) * (b + s))
            elif term[0] == "stable":
                _, w, alpha = term
                total += w * math.exp(-(s**alpha))
            else:  # pragma: no cover
                raise ValueError(f"unknown transform term {term[0]!r}")
        return total

    def spec_dict(self) -> dict:
        if self.catalog_id is not None:
            return {"kind": self.catalog_id, "params": dict(self.params or {})}
        if getattr(self, "_mixture_spec", None) is not None:
            return {"mixture": [dict(e) for e in self._mixture_spec]}
        raise ValueError("distribution has no serializable spec")


def point_mass(location: float) -> Distribution1D:
    if not (math.isfinite(location) and location >= 0):
        raise ParameterOutOfRange("point-mass: location must be finite and >= 0")
    return Distribution1D(
        atoms=[(location, 1.0)],
        transform_terms=[("atom", 1.0, float(location))],
        catalog_id="point-mass",
        params={"location": float(location)},
        density_at_zero=0.0,
    )


def exponential(lam: float) -> Distribution1D:
    if not _finite_positive(lam):
        raise ParameterOutOfRange("exponential: lambda must be finite and > 0")
    lam = float(lam)
    return Distribution1D(
        ac_weight=1.0,
        ac_density=lambda x: lam * np.exp(-lam * np.asarray(x, dtype=float)),
        ac_cdf=lambda x: -np.expm1(-lam * np.asarray(x, dtype=float)),
        transform_terms=[("gamma", 1.0, lam, 1.0)],
        catalog_id="exponential",
        params={"lambda": lam},
        density_at_zero=lam,
    )


def gamma_dist(lam: float, q: float) -> Distribution1D:
    if not _finite_positive(lam):
        raise ParameterOutOfRange("gamma: lambda must be finite and > 0")
    if not _finite_positive(q):
        raise ParameterOutOfRange("gamma: shape q must be finite and > 0")
    lam, q = float(lam), float(q)
    lognorm = q * math.log(lam) - math.lgamma(q)
    m = math.ceil(q) - 1
    f0 = 0.0 if q > 1 else lam if q == 1 else math.inf

    def density(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logd = lognorm + (q - 1.0) * np.log(x) - lam * x
            # x = 0 takes the limit f0: the log form reads 0 * log 0 = NaN at q = 1
            out = np.where(x > 0, np.exp(logd), np.where(x == 0, f0, 0.0))
        return out

    return Distribution1D(
        ac_weight=1.0,
        ac_density=density,
        ac_cdf=lambda x: _gamma_rows(q - m, [m], lam * np.asarray(x, dtype=float))[0],
        transform_terms=[("gamma", 1.0, lam, q)],
        catalog_id="gamma",
        params={"lambda": lam, "q": q},
        density_at_zero=f0,
    )


def _stable_term(alpha: float, k: int) -> tuple[float, float]:
    """log(Gamma(alpha k + 1) / k!) and -(-1)^k sin(alpha k pi): term k of
    Pollard's series pi x f(x) = sum_k sign_k exp(logmag_k) x^(-alpha k),
    with the sine set to 0 where it is rounding noise."""
    sk = math.sin(alpha * k * math.pi)
    if abs(sk) < 1e-13:
        sk = 0.0
    return math.lgamma(alpha * k + 1.0) - math.lgamma(k + 1.0), -((-1.0) ** k) * sk


# -- positive stable kernel ---------------------------------------------------

# the series serves y = x^-alpha <= e^-_STABLE_SPLIT = 1/2, Kanter's integral
# the rest
_STABLE_SPLIT = math.log(2.0)
# a Kanter point is done once the Kronrod-Gauss gap is below _KANTER_TOL for
# the CDF and below _KANTER_RTOL of the density plus _KANTER_FLOOR for it
_KANTER_TOL = 1e-15
_KANTER_RTOL = 1e-13
_KANTER_FLOOR = 1e-30
# panels on each part of the Kanter rule: first level, and the last level
_KANTER_PANELS = (4, 4096)
# at the last level a point is taken once the gap of both integrals is below
# this, else PrecisionExhausted is raised.  As alpha -> 1 the Gauss rule lags
# the Kronrod one: at alpha = 0.9999 the Kronrod CDF is within 3e-16 where
# the gap still reads up to 7e-13; at alpha = 0.99999, x = 1.3 it is 2e-11
_KANTER_CAP_TOL = 1e-11
# values held at once by one Kanter level (points x nodes)
_KANTER_BLOCK = 1 << 18
# Kanter integrands are dropped where A(u) z > e^_KANTER_CUT (e^-t < 1e-18)
_KANTER_CUT = math.log(42.0)


@functools.lru_cache(maxsize=32)
def _stable_series(alpha: float):
    """Coefficients of the series in y = x^-alpha <= 1/2: pi x f(x) =
    sum_k a_k y^k and pi (1 - F(x)) = sum_k a_k y^k / (alpha k), k = 1..K.
    |a_k| = Gamma(alpha k + 1)/k! falls with k, so the terms fall at least
    by half at each step and K stops where |a_k| 2^-k < 1e-18."""
    coeffs = []
    for k in itertools.count(1):
        logmag, sign = _stable_term(alpha, k)
        if k > 1 and logmag - k * _STABLE_SPLIT < math.log(1e-18):
            break
        coeffs.append(sign * math.exp(logmag))
    a = np.array(coeffs)
    return a, a / (alpha * np.arange(1, len(a) + 1))


def _kanter_log_a(alpha, d, slope=False):
    """log A(u) at u = pi (1 - d), d in (0, 1); with `slope`, also
    d log A / du.

    A = (sin(alpha u) / sin u)^(alpha r) sin((1 - alpha) u) / sin u with
    r = 1/(1 - alpha).  The ratio is taken as 1 + q, with q a product that
    keeps its relative accuracy, so that the factor r does not magnify
    rounding as alpha -> 1; each sine is taken at the distance of its
    argument from the nearer zero.
    """
    r = 1.0 / (1.0 - alpha)
    u = np.pi * (1.0 - d)
    sin_u = np.sin(np.pi * np.minimum(d, 1.0 - d))
    # (1 - alpha) u = pi - pi (alpha + (1 - alpha) d)
    sin_bu = np.sin(np.pi * np.minimum((1.0 - alpha) * (1.0 - d), alpha + (1.0 - alpha) * d))
    # sin(alpha u) - sin u = -2 cos((1 + alpha) u / 2) sin((1 - alpha) u / 2)
    q = -2.0 * np.cos(0.5 * (1.0 + alpha) * u) * np.sin(0.5 * (1.0 - alpha) * u) / sin_u
    log_a = r * alpha * np.log1p(q) + np.log(sin_bu) - np.log(sin_u)
    if not slope:
        return log_a
    # alpha cot(alpha u) - cot u, with the O(1 - alpha) numerator formed directly
    ratio = ((sin_bu - (1.0 - alpha) * np.cos(alpha * u) * sin_u)
             / (sin_u * sin_u * (1.0 + q)))
    return log_a, (r * alpha * ratio - np.cos(u) / sin_u
                   + (1.0 - alpha) * np.cos((1.0 - alpha) * u) / sin_bu)


def _kanter_d(alpha, target):
    """d in (0, 1) with log A(pi (1 - d)) = target (elementwise), by
    bisection in log d: log A falls as d grows."""
    lo = np.full(np.shape(target), -690.0)
    hi = np.zeros(np.shape(target))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = _kanter_log_a(alpha, np.exp(mid)) > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.exp(0.5 * (lo + hi))


@functools.lru_cache(maxsize=32)
def _kanter_rule(alpha: float, panels: int):
    """Composite Kronrod and Gauss rules for (1/pi) int_0^pi g(A(u)) du.

    Returns log A at the nodes and the Kronrod and Gauss weight rows,
    shape (2, nodes).  On [0, pi/2] the rule has `panels` uniform panels in
    u.  On [pi/2, pi), A grows like sin(u)^(-1/(1 - alpha)) after a kink at
    pi - u of order min(alpha, 1 - alpha), and as alpha -> 1 e^{-A z} falls
    from 1 to 0 within a width of order (1 - alpha)^2 in u.  There the
    variable is w = sqrt(log A(u) - log A(0)) instead, on `panels` uniform
    panels up to the W beyond which A z > e^_KANTER_CUT for every
    z = x^(-alpha/(1 - alpha)) with x^-alpha > 1/2; in w that fall takes a
    width of order 1/w.
    """
    r = 1.0 / (1.0 - alpha)
    unit = ((np.arange(panels)[:, None] + 0.5 + 0.5 * NODES) / panels).ravel()
    w = np.tile(np.stack([W_KRONROD, W_GAUSS], axis=1) * (0.5 / panels), (panels, 1))
    # u = pi unit / 2 on [0, pi/2], so (1/pi) du = d(unit) / 2
    log_a_u = _kanter_log_a(alpha, 1.0 - 0.5 * unit)
    log_a0 = r * alpha * math.log(alpha) + math.log(1.0 - alpha)  # log A(0)
    w_lo = math.sqrt(float(_kanter_log_a(alpha, np.array(0.5))) - log_a0)
    w_hi = math.sqrt(_KANTER_CUT + r * _STABLE_SPLIT - log_a0)
    sq = w_lo + (w_hi - w_lo) * unit
    log_a_w = log_a0 + sq * sq
    # (1/pi) du/dw = 2 w / (pi dlogA/du)
    _, dlog_a = _kanter_log_a(alpha, _kanter_d(alpha, log_a_w), slope=True)
    w_w = w * ((w_hi - w_lo) * 2.0 * sq / (math.pi * dlog_a))[:, None]
    return np.concatenate([log_a_u, log_a_w]), np.concatenate([0.5 * w, w_w]).T.copy()


def _positive_stable_kernel(alpha: float, x):
    """CDF and density of the positive stable law exp(-s^alpha) at x.

    Where y = x^-alpha <= 1/2, Pollard's convergent series in y, to about
    1e-18.  Elsewhere Kanter's representation F(x) = (1/pi) int_0^pi
    exp(-A(u) z) du with z = x^(-alpha/(1 - alpha)) and density
    (alpha/(1 - alpha)) (1/x) (1/pi) int A z exp(-A z) du, on the rule of
    `_kanter_rule`; the panel count doubles for the points whose integrals
    have not yet met their tolerances, up to _KANTER_PANELS[1], where a
    point that misses _KANTER_CAP_TOL raises PrecisionExhausted.  Works for
    any alpha in (0, 1), including 1/2; x = 0 and x = inf give their limits.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    cdf = (flat == math.inf).astype(float)
    pdf = np.zeros(flat.shape)
    inner = (flat > 0.0) & (flat < math.inf)
    logx = np.log(flat, out=np.zeros(flat.shape), where=inner)
    series = inner & (alpha * logx >= _STABLE_SPLIT)
    if series.any():
        a, b = _stable_series(alpha)
        y = np.exp(-alpha * logx[series])
        surv = xf = 0.0
        for ak, bk in zip(a[::-1], b[::-1]):  # Horner
            surv = (surv + bk) * y
            xf = (xf + ak) * y
        cdf[series] = 1.0 - surv / math.pi
        pdf[series] = xf / (math.pi * flat[series])
    todo = np.flatnonzero(inner & ~series)
    panels = _KANTER_PANELS[0]
    while todo.size:
        log_a, w = _kanter_rule(alpha, panels)
        step = max(1, _KANTER_BLOCK // len(log_a))
        left = []
        for j in range(0, todo.size, step):
            idx = todo[j:j + step]
            logz = (-alpha / (1.0 - alpha)) * logx[idx]
            with np.errstate(under="ignore"):
                t = np.exp(np.minimum(log_a + logz[:, None], 700.0))
                e = np.exp(-t)
            # np.sum adds pairwise; a matrix product's running sum loses
            # 1e-14 over the nodes of the finer levels
            f_k, f_g, d_k, d_g = (np.sum(v * wr, axis=1) for v in (e, t * e) for wr in w)
            # the density is d_k / x * alpha / (1 - alpha)
            floor = _KANTER_FLOOR * ((1.0 - alpha) / alpha) * flat[idx]
            done = ((np.abs(f_k - f_g) <= _KANTER_TOL)
                    & (np.abs(d_k - d_g) <= _KANTER_RTOL * d_k + floor))
            if panels >= _KANTER_PANELS[1]:
                done = np.maximum(np.abs(f_k - f_g), np.abs(d_k - d_g)) <= _KANTER_CAP_TOL
                if not done.all():
                    raise PrecisionExhausted(
                        f"positive-stable: Kanter's integral at alpha={alpha!r} has not "
                        f"converged on {panels} panels at x={float(flat[idx[~done][0]])!r}")
            cdf[idx[done]] = f_k[done]
            pdf[idx[done]] = d_k[done] / flat[idx[done]] * (alpha / (1.0 - alpha))
            left.append(idx[~done])
        todo = np.concatenate(left)
        panels *= 2
    return cdf.reshape(x.shape), pdf.reshape(x.shape)


def positive_stable(alpha: float) -> Distribution1D:
    """Positive stable law with transform exp(-s^alpha).

    The CDF and density come from `_positive_stable_kernel` for every alpha,
    1/2 included: Pollard's series where x^-alpha <= 1/2, Kanter's integral
    elsewhere.
    """
    if not 0 < alpha < 1:
        raise ParameterOutOfRange("positive-stable: alpha must lie in (0, 1)")
    alpha = float(alpha)

    def density(x):
        return _positive_stable_kernel(alpha, x)[1]

    def cdf(x):
        return _positive_stable_kernel(alpha, x)[0]

    return Distribution1D(
        ac_weight=1.0,
        ac_density=density,
        ac_cdf=cdf,
        transform_terms=[("stable", 1.0, alpha)],
        catalog_id="positive-stable",
        params={"alpha": alpha},
        density_at_zero=0.0,
    )


def mixture(components: Sequence[tuple[float, Distribution1D]]) -> Distribution1D:
    """Finite mixture of univariate laws; weights must sum to 1."""
    if not components:
        raise ParameterOutOfRange("mixture: needs at least one component")
    wsum = sum(w for w, _ in components)
    if not abs(wsum - 1.0) <= _MASS_TOL:
        raise ParameterOutOfRange(f"mixture: weights must sum to 1 (got {wsum!r})")
    atom_masses: dict[float, float] = {}
    ac_parts = []
    terms = []
    have_terms = True
    spec_entries = []
    for w, d in components:
        if w <= 0:
            raise ParameterOutOfRange("mixture: weights must be > 0")
        for loc, m in d.atoms:
            atom_masses[loc] = atom_masses.get(loc, 0.0) + w * m
        if d.ac_weight > 0:
            ac_parts.append((w * d.ac_weight, d.ac_density, d.ac_cdf))
        if d.transform_terms is None:
            have_terms = False
        elif have_terms:
            for t in d.transform_terms:
                terms.append((t[0], w * t[1], *t[2:]))
        spec_entries.append({"weight": float(w), "spec": d.spec_dict()})

    ac_weight = sum(p[0] for p in ac_parts)
    if ac_parts:
        if any(p[1] is None for p in ac_parts):
            ac_density = None
        else:
            def ac_density(x, _parts=tuple(ac_parts), _w=ac_weight):
                x = np.asarray(x, dtype=float)
                return sum(w * np.asarray(f(x)) for w, f, _ in _parts) / _w

        def ac_cdf(x, _parts=tuple(ac_parts), _w=ac_weight):
            x = np.asarray(x, dtype=float)
            return sum(w * np.asarray(c(x)) for w, _, c in _parts) / _w
    else:
        ac_density = ac_cdf = None

    f0s = [d.density_at_zero for _, d in components]
    if any(v is None for v in f0s):
        f0 = None
    else:
        f0 = sum(w * v for (w, _), v in zip(components, f0s))
    out = Distribution1D(
        atoms=sorted(atom_masses.items()),
        ac_weight=ac_weight,
        ac_density=ac_density,
        ac_cdf=ac_cdf,
        transform_terms=terms if have_terms else None,
        density_at_zero=f0,
    )
    out._mixture_spec = spec_entries
    return out


# ---------------------------------------------------------------------------
# Joint distributions


class JointDist:
    """Base for n-dimensional laws, n >= 2.

    Subclasses provide either ``separable_terms`` (the CDF and survival
    function as finite sums of products of 1-D functions, from which the
    pointwise ``cdf(*xs)`` / ``survival(*xs)`` here follow) or their own
    vectorized ``cdf`` and direct ``survival``; plus ``marginal(indices)``
    for every proper subset of axes.  ``closed_ls(s)`` returns
    (value, est_error) or None.  ``diagonal_seam`` marks 2-D kinds whose CDF
    has a kink on {x=y}, which quadrature must split along.
    """

    dim: int
    kind: str
    diagonal_seam = False

    def separable_terms(self, xs, upper: bool = False):
        """(c, [P_1, ..., P_n]) with CDF(x) = sum_t c[t] * prod_i P_i[t](x_i)
        (the survival function when `upper`), or None when the law has no
        such form.  P_i has shape (terms,) + shape of xs[i]; the xs are not
        broadcast against each other.
        """
        return None

    def cdf(self, *xs):
        return self._sum_of_products(xs, upper=False)

    def survival(self, *xs):
        return self._sum_of_products(xs, upper=True)

    def _sum_of_products(self, xs, upper):
        terms = self.separable_terms([np.asarray(x, dtype=float) for x in xs], upper)
        if terms is None:
            raise NotImplementedError(f"{self.kind}: no pointwise evaluator")
        c, factors = terms
        # contract the terms in blocks so a large grid of points never
        # holds every term at once
        size = math.prod(np.broadcast_shapes(*(f.shape[1:] for f in factors)))
        step = max(1, _TERM_BLOCK // max(1, size))
        out = sum(
            np.tensordot(c[a:a + step], math.prod(f[a:a + step] for f in factors), axes=1)
            for a in range(0, len(c), step)
        )
        return float(out) if out.ndim == 0 else out

    def marginal(self, indices: tuple[int, ...]):
        raise MissingMarginal(f"{self.kind}: marginal {indices} unavailable")

    def closed_ls(self, s: Sequence[float]):
        return None

    def spec_dict(self) -> dict:
        if self.params is None:
            raise ValueError(f"{self.kind}: distribution has no serializable spec")
        return {"kind": self.kind, "params": dict(self.params)}


class ProductJoint(JointDist):
    """Independent coordinates with arbitrary univariate factors."""

    kind = "product"

    def __init__(self, factors: Sequence[Distribution1D]):
        if len(factors) < 2:
            raise ParameterOutOfRange("product: dimension must be at least 2")
        self.factors = tuple(factors)
        self.dim = len(factors)

    def separable_terms(self, xs, upper=False):
        return np.ones(1), [
            np.asarray(f.survival(x) if upper else f.cdf(x), dtype=float)[None]
            for f, x in zip(self.factors, xs)
        ]

    def marginal(self, indices):
        if len(indices) == 1:
            return self.factors[indices[0]]
        return ProductJoint([self.factors[i] for i in indices])

    def closed_ls(self, s):
        vals = []
        for f, si in zip(self.factors, s):
            v = f.closed_ls(si)
            if v is None:
                return None
            vals.append(v)
        return math.prod(vals), 0.0

    def spec_dict(self):
        if all(f.catalog_id == "exponential" for f in self.factors):
            return {
                "kind": "product-exponential",
                "params": {
                    f"lambda{i+1}": f.params["lambda"]
                    for i, f in enumerate(self.factors)
                },
            }
        raise ValueError("only all-exponential products are serializable")


# -- bivariate lack-of-memory -------------------------------------------------


@dataclass(frozen=True)
class BlmSpec:
    """Parameters of the bivariate lack-of-memory law.

    F and G are the (positive-support) marginals, theta the diagonal decay
    rate.  The diagonal carries singular mass p = (f(0) + g(0))/theta - 1,
    which must land in [0, 1]; f(0), g(0) are the right limits F(e)/e.
    """

    F: Distribution1D
    G: Distribution1D
    theta: float

    def __post_init__(self):
        if not _finite_positive(self.theta):
            raise ParameterOutOfRange("blm: theta must be finite and > 0")
        for name, d in (("F", self.F), ("G", self.G)):
            if d.cdf(0.0) > _MASS_TOL:
                raise ParameterOutOfRange(f"blm: {name} must have positive support")
        p = self.singular_mass
        if p < -1e-9:
            raise ParameterOutOfRange(
                f"blm: diagonal mass p(theta) = {p:.6g} must be >= 0"
            )
        if p > 1.0 + 1e-9:
            raise ParameterOutOfRange(
                f"blm: diagonal mass p(theta) = {p:.6g} must be <= 1"
            )

    @property
    def singular_mass(self) -> float:
        f0 = _density_at_zero(self.F)
        g0 = _density_at_zero(self.G)
        return (f0 + g0) / self.theta - 1.0


def _density_at_zero(d: Distribution1D) -> float:
    if d.density_at_zero is not None:
        return d.density_at_zero
    eps = 1e-7
    return d.cdf(eps) / eps


def blm_survival(spec: BlmSpec, x, y):
    """Joint survival of the lack-of-memory law: e^{-theta y} Fbar(x - y) on
    x >= y and e^{-theta x} Gbar(y - x) on y > x; both agree on x = y.  A
    call that lies wholly on one side, as on a seam triangle, evaluates that
    side only."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def side(d, near, far):  # e^{-theta near} Dbar(far - near)
        return np.exp(-spec.theta * near) * d.survival(far - near)

    ge = x >= y
    if ge.all():
        out = side(spec.F, y, x)
    elif not ge.any():
        out = side(spec.G, x, y)
    else:
        out = np.where(ge, side(spec.F, y, x), side(spec.G, x, y))
    return float(out) if out.ndim == 0 else out


class BlmJoint(JointDist):
    """Lack-of-memory law as a joint distribution (singular diagonal mass).

    Marshall-Olkin and Freund are built as such laws, with their own `kind`
    and `params`; a law with exponential marginals and no params serializes
    as kind 'blm'.
    """

    diagonal_seam = True
    dim = 2

    def __init__(self, spec: BlmSpec, kind: str = "blm", params: dict | None = None):
        self.spec = spec
        self.kind = kind
        self.params = params
        if params is None and spec.F.catalog_id == spec.G.catalog_id == "exponential":
            self.params = {"theta": spec.theta, "f_lambda": spec.F.params["lambda"],
                           "g_lambda": spec.G.params["lambda"]}

    def survival(self, x, y):
        return blm_survival(self.spec, x, y)

    def cdf(self, x, y):
        out = (
            np.asarray(self.survival(x, y))
            - 1.0
            + np.asarray(self.spec.F.cdf(x))
            + np.asarray(self.spec.G.cdf(y))
        )
        return float(out) if out.ndim == 0 else out

    def marginal(self, indices):
        if indices == (0,):
            return self.spec.F
        if indices == (1,):
            return self.spec.G
        raise MissingMarginal(f"{self.kind}: no marginal {indices}")

    def closed_ls(self, s):
        si, ti = float(s[0]), float(s[1])
        lf = self.spec.F.closed_ls(si)
        lg = self.spec.G.closed_ls(ti)
        if lf is None or lg is None:
            return None
        th = self.spec.theta
        val = ((th + si) * lf + (th + ti) * lg - th) / (th + si + ti)
        return val, 0.0


def marshall_olkin(lambda1: float, lambda2: float, lambda12: float) -> BlmJoint:
    """Marshall-Olkin bivariate exponential with a common shock, survival
    exp(-l1 x - l2 y - l12 max(x, y)): the lack-of-memory law with
    theta = l1 + l2 + l12 and marginals Exp(l1 + l12), Exp(l2 + l12); its
    diagonal carries p = l12/theta."""
    if not _finite_positive(lambda1, lambda2, lambda12):
        raise ParameterOutOfRange(
            "marshall-olkin: lambda1, lambda2, lambda12 must all be finite and > 0"
        )
    l1, l2, l12 = float(lambda1), float(lambda2), float(lambda12)
    spec = BlmSpec(exponential(l1 + l12), exponential(l2 + l12), l1 + l2 + l12)
    return BlmJoint(spec, "marshall-olkin", {"lambda1": l1, "lambda2": l2, "lambda12": l12})


def _freund_marginal(own: float, other: float, after: float) -> Distribution1D:
    """A Freund component: rate `own` while its partner (rate `other`)
    lives, `after` once it has failed.  The law is the mixture
    (own/A) Exp(A) + (other/A) Hypo(A, after), A = own + other, with survival
    e^{-Ax} + other e^{-mx} (1 - e^{-dx})/d, m = min(A, after) and
    d = |A - after|: no term cancels as after -> A, where the last factor
    tends to x."""
    A = own + other
    m, d = min(A, after), abs(A - after)

    def ramp(x):  # e^{-mx} (1 - e^{-dx})/d
        return np.exp(-m * x) * (-np.expm1(-d * x) / d if d > 0 else x)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return -np.expm1(-A * x) - other * ramp(x)

    def density(x):
        x = np.asarray(x, dtype=float)
        return own * np.exp(-A * x) + other * after * ramp(x)

    return Distribution1D(
        ac_weight=1.0,
        ac_density=density,
        ac_cdf=cdf,
        transform_terms=[("gamma", own / A, A, 1.0), ("hypoexp", other / A, A, after)],
        density_at_zero=own,
    )


def freund(alpha: float, alpha_prime: float, beta: float, beta_prime: float) -> BlmJoint:
    """Freund's bivariate exponential: X and Y fail at rates alpha and beta,
    and the survivor's rate becomes alpha' (X, once Y has failed) or beta'.
    The lack-of-memory law with theta = alpha + beta and no diagonal mass."""
    if not _finite_positive(alpha, alpha_prime, beta, beta_prime):
        raise ParameterOutOfRange("freund: all four rates must be finite and > 0")
    a, ap, b, bp = float(alpha), float(alpha_prime), float(beta), float(beta_prime)
    spec = BlmSpec(_freund_marginal(a, b, ap), _freund_marginal(b, a, bp), a + b)
    return BlmJoint(spec, "freund", {"alpha": a, "alpha_prime": ap, "beta": b, "beta_prime": bp})


# -- gamma series families ----------------------------------------------------


class GammaSeriesJoint(JointDist):
    """Law of the form sum_t c_t prod_i Gamma(shapes[i, t], rates[i]), all
    coefficients nonnegative and summing to 1 up to `series_tail`.  Covers
    Kibble's bivariate Gamma (Moran-Downton included), the trivariate Gamma
    and every marginal of these of order two or more.
    """

    def __init__(self, coeffs, shapes, rates, tail, kind, params):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.shapes = np.asarray(shapes, dtype=float)  # (dim, terms)
        self.rates = np.asarray(rates, dtype=float)    # (dim,)
        self.dim = len(self.rates)
        self.series_tail = float(tail)
        self.kind = kind
        self.params = params

    def separable_terms(self, xs, upper=False):
        return self.coeffs, [
            _gamma_table(a, r, x, upper) for a, r, x in zip(self.shapes, self.rates, xs)
        ]

    def _axis_marginal(self, i):
        agg: dict[float, float] = {}
        for c, a in zip(self.coeffs, self.shapes[i]):
            agg[float(a)] = agg.get(float(a), 0.0) + float(c)
        # coefficients can underflow to 0 (e.g. trivariate a = 1e-60), and
        # mixture() rejects zero weights
        pairs = [(a, w) for a, w in sorted(agg.items()) if w > 0]
        slack = max(0.0, 1.0 - sum(w for _, w in pairs))
        # fold the truncated series tail into the largest-shape component so
        # masses still sum to 1 exactly
        if slack > 0:
            a_last, w_last = pairs[-1]
            pairs[-1] = (a_last, w_last + slack)
        comps = [(w, gamma_dist(self.rates[i], a)) for a, w in pairs]
        total = sum(w for w, _ in comps)
        comps = [(w / total, d) for w, d in comps]
        return mixture(comps)

    def marginal(self, indices):
        idx = list(indices)
        if not (0 < len(idx) < self.dim and 0 <= idx[0] and idx[-1] < self.dim
                and all(a < b for a, b in zip(idx, idx[1:]))):
            raise MissingMarginal(f"{self.kind}: no marginal {indices}")
        if len(idx) == 1:
            return self._axis_marginal(idx[0])
        return GammaSeriesJoint(
            self.coeffs, self.shapes[idx], self.rates[idx], self.series_tail,
            f"{self.kind}-marginal-{tuple(indices)}", None,
        )

    def closed_ls(self, s):
        factors = ((r / (r + float(si))) ** a for a, r, si in zip(self.shapes, self.rates, s))
        return float(np.sum(math.prod(factors, start=self.coeffs))), self.series_tail


def _geometric_tail(first_omitted: float, ratio_sup: float) -> float:
    if ratio_sup >= 1.0:
        return math.inf
    return first_omitted / (1.0 - ratio_sup)


class _KibbleMoranJoint(GammaSeriesJoint):
    """Kibble's bivariate Gamma, sum_n c_n Gamma(q + n, lam)^2 with weights
    c_n = (1 - r)^q (q)_n r^n / n! and lam = mu/(1 - r): marginals
    Gamma(mu, q).  Moran-Downton is q = 1, mu = 1.  The series stops below
    1e-15 or at 4000 terms, refuses r where the bound on what it leaves out
    exceeds 1e-10, and folds that mass into its last term."""

    def __init__(self, kind, params, r, q, mu):
        if not 0 <= r < 1:
            raise ParameterOutOfRange(f"{kind}: r must lie in [0, 1)")
        if not _finite_positive(q):
            raise ParameterOutOfRange(f"{kind}: q must be finite and > 0")
        self.r, self.q, self.mu = r, q, mu = float(r), float(q), float(mu)
        coeffs = [(1.0 - r) ** q]
        n = 0
        while (coeffs[-1] > 1e-15 or n < 2) and n <= 4000:
            coeffs.append(coeffs[-1] * r * (q + n) / (n + 1.0))
            n += 1
        tail = _geometric_tail(coeffs[-1], r * max(1.0, (q + n) / (n + 1.0))) if r > 0 else 0.0
        if tail > 1e-10:
            raise ParameterOutOfRange(f"{kind}: r too close to 1 for the series truncation bound")
        coeffs = np.asarray(coeffs[:-1] if r > 0 else coeffs[:1])
        coeffs[-1] += max(0.0, 1.0 - coeffs.sum())
        shapes = q + np.arange(len(coeffs), dtype=float)
        # 1/(1 - r) for Moran-Downton, exactly 1 for the bivariate Gamma
        lam = mu / (1.0 - r)
        super().__init__(coeffs, [shapes, shapes], [lam, lam], tail, kind,
                         {k: float(v) for k, v in params.items()})

    def marginal(self, indices):
        if indices in ((0,), (1,)):
            return gamma_dist(self.mu, self.q)
        raise MissingMarginal(f"{self.kind}: no marginal {indices}")

    def closed_ls(self, s):
        # ((1 - r) / (prod(1 + s_i/lam) - r))^q; expm1 keeps it from cancelling as r -> 1
        grow = math.expm1(sum(math.log1p(float(si) / self.rates[0]) for si in s))
        return ((1.0 - self.r) / ((1.0 - self.r) + grow)) ** self.q, 0.0


def moran_downton(r: float) -> GammaSeriesJoint:
    """Moran-Downton bivariate exponential: Kibble's law with q = 1 and Exp(1)
    marginals."""
    return _KibbleMoranJoint("moran-downton", {"r": r}, r, 1.0, 1.0)


def bivariate_gamma(r: float, q: float) -> GammaSeriesJoint:
    """Standard bivariate Gamma: Kibble's law with Gamma(1 - r, q) marginals."""
    return _KibbleMoranJoint("bivariate-gamma", {"r": r, "q": q}, r, q, 1.0 - r)


# highest row order n of the trivariate Gamma double series
_TRIGAMMA_ORDER = 60


def trivariate_gamma(alpha: float, a: float, b: float) -> GammaSeriesJoint:
    """Trivariate Gamma family: the double series sum_{n, ell} c_{n, ell}
    Gamma(alpha + ell) x Gamma(alpha + n) x Gamma(alpha + n - ell), rate 1."""
    if not _finite_positive(alpha, a, b):
        raise ParameterOutOfRange("trivariate-gamma: alpha, a, b must be finite and > 0")
    if a * a + b * b >= 1:
        raise ParameterOutOfRange("trivariate-gamma: need a^2 + b^2 < 1")
    alpha, a, b = float(alpha), float(a), float(b)
    u, v = a * a, b * b
    pref = (1.0 - u - v) ** alpha
    row_totals = []
    row_total = pref  # n = 0 row
    n = 0
    while n <= _TRIGAMMA_ORDER:
        row_totals.append(row_total)
        row_total *= (n + alpha) / (n + 1.0) * (u + v)
        n += 1
        if row_total < 1e-14 and n >= 3:
            break
    ratio_sup = (u + v) * max(1.0, (n + alpha) / (n + 1.0))
    tail = _geometric_tail(row_total, ratio_sup)
    if tail > 1e-10:
        raise ParameterOutOfRange(
            "trivariate-gamma: series tail bound exceeds 1e-10 at the "
            f"truncation order {_TRIGAMMA_ORDER}; a^2+b^2 = {u + v:.4g} is too large"
        )
    # term c_{n, ell} has shapes alpha + (ell, n, n - ell); it splits the row
    # total binomially, C(n, ell) u^ell v^(n - ell) / (u + v)^n
    pu, pv = u / (u + v), v / (u + v)
    coeffs = [total * math.comb(k, ell) * pu**ell * pv**(k - ell)
              for k, total in enumerate(row_totals) for ell in range(k + 1)]
    n_idx = np.concatenate([np.full(k + 1, k) for k in range(n)])
    ell_idx = np.concatenate([np.arange(k + 1) for k in range(n)])
    return GammaSeriesJoint(
        coeffs, alpha + np.stack([ell_idx, n_idx, n_idx - ell_idx]), np.ones(3),
        tail, "trivariate-gamma", {"alpha": alpha, "a": a, "b": b},
    )


# ---------------------------------------------------------------------------
# Catalog

_CATALOG: dict[str, dict] = {}


def _register(name, param_names, constraints, builder):
    _CATALOG[name] = {
        "params": param_names,
        "constraints": constraints,
        "builder": builder,
    }


_register("exponential", ["lambda"], "lambda > 0",
          lambda p: exponential(p["lambda"]))
_register("gamma", ["lambda", "q"], "lambda > 0, q > 0",
          lambda p: gamma_dist(p["lambda"], p["q"]))
_register("positive-stable", ["alpha"], "0 < alpha < 1",
          lambda p: positive_stable(p["alpha"]))
_register("point-mass", ["location"], "location >= 0",
          lambda p: point_mass(p["location"]))
_register("marshall-olkin", ["lambda1", "lambda2", "lambda12"],
          "all rates > 0",
          lambda p: marshall_olkin(p["lambda1"], p["lambda2"], p["lambda12"]))
_register("freund", ["alpha", "alpha_prime", "beta", "beta_prime"],
          "all four rates > 0",
          lambda p: freund(p["alpha"], p["alpha_prime"], p["beta"], p["beta_prime"]))
_register("moran-downton", ["r"], "0 <= r < 1",
          lambda p: moran_downton(p["r"]))
_register("bivariate-gamma", ["r", "q"], "0 <= r < 1, q > 0",
          lambda p: bivariate_gamma(p["r"], p["q"]))
_register("trivariate-gamma", ["alpha", "a", "b"],
          "alpha, a, b > 0 and a^2 + b^2 < 1",
          lambda p: trivariate_gamma(p["alpha"], p["a"], p["b"]))
_register("blm", ["theta", "f_lambda", "g_lambda"],
          "theta > 0 and (f_lambda + g_lambda)/theta - 1 in [0, 1]",
          lambda p: BlmJoint(BlmSpec(exponential(p["f_lambda"]),
                                     exponential(p["g_lambda"]), p["theta"])))


def _product_exponential(p: dict):
    names = [f"lambda{i}" for i in range(1, len(p) + 1)]
    if len(p) < 2 or set(p) != set(names):
        raise ParameterOutOfRange(
            f"product-exponential: needs exactly lambda1..lambdaN with N >= 2 (got {sorted(p)})"
        )
    return ProductJoint([exponential(p[k]) for k in names])


_register("product-exponential", ["lambda1", "lambda2", "[lambda3..lambdaN]"],
          "N >= 2, all rates > 0", _product_exponential)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_info(name: str) -> dict:
    if name not in _CATALOG:
        raise UnknownCatalogName(f"unknown catalog entry {name!r}")
    entry = _CATALOG[name]
    return {"params": list(entry["params"]), "constraints": entry["constraints"]}


def _finite_or_inf(v) -> float:
    """float(v), with integers beyond the double range as inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def make_catalog(name: str, params: dict):
    """Build a catalog distribution by name; raises UnknownCatalogName /
    ParameterOutOfRange with the violated constraint in the message."""
    key = str(name).lower()
    if key not in _CATALOG:
        raise UnknownCatalogName(f"unknown catalog entry {name!r}")
    entry = _CATALOG[key]
    if key != "product-exponential":
        missing = [p for p in entry["params"] if p not in params]
        if missing:
            raise ParameterOutOfRange(f"{key}: missing parameter(s) {missing}")
        extra = [p for p in params if p not in entry["params"]]
        if extra:
            raise ParameterOutOfRange(f"{key}: unknown parameter(s) {extra}")
    clean = {k: _finite_or_inf(v) for k, v in params.items()}
    nonfinite = [k for k, v in clean.items() if not math.isfinite(v)]
    if nonfinite:
        raise ParameterOutOfRange(f"{key}: parameter(s) {nonfinite} must be finite")
    return entry["builder"](clean)
