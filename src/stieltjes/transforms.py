"""Laplace-Stieltjes transform evaluation by independent routes.

Three numerical routes are provided and cross-checkable: direct Stieltjes
integration against atoms + density, the Carson route s_1...s_n * integral of
the CDF (needs nothing but the CDF, so it absorbs singular parts), and the
survival-function route, which in n dimensions is the inclusion-exclusion
identity E[prod(1 - e^{-s_i X_i})] = (prod s_i) * integral of the survival
function.  Catalog laws add their closed forms.  `verify_identity` confirms
that all available routes agree and reports both sides of that identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import AxisSpec, RankOneSum, WeightedBatch, adaptive_quad, tensor_quad
from .dist_model import Distribution1D, JointDist
from .errors import (
    DimensionTooLarge,
    NoClosedForm,
    NoDensityRoute,
    ParameterOutOfRange,
)

DEFAULT_TOL = 1e-10

ROUTES = ("auto", "direct", "carson", "survival", "closed_form")


@dataclass(frozen=True)
class TransformValue:
    """One transform evaluation: value in [0,1] up to est_error."""

    value: float
    est_error: float
    route: str
    evaluations: int


def _check_tol(tol: float):
    if not 0 < tol <= 1e-2:
        raise ParameterOutOfRange("tol must lie in (0, 1e-2]")


def _check_s(svec):
    for s in svec:
        if not (math.isfinite(s) and s > 0):
            raise ParameterOutOfRange("s must be positive and finite")


def _as_svec(s) -> tuple[float, ...]:
    if np.isscalar(s):
        return (float(s),)
    return tuple(float(v) for v in s)


def _truncation(s: float, tol: float, n_axes: int = 1) -> float:
    """Axis cutoff T with tail bound e^{-sT} <= tol / (4 n_axes)."""
    return max(20.0 / s, math.log(4.0 * n_axes / tol) / s)


# ---------------------------------------------------------------------------
# Univariate routes


def ls_direct(dist: Distribution1D, s: float, tol: float = DEFAULT_TOL) -> TransformValue:
    """Stieltjes route: atom sum plus quadrature of density * exp(-s x).

    Fails with NoDensityRoute when a non-atomic part has no density
    evaluator (use the Carson route for those).
    """
    _check_tol(tol)
    _check_s([s])
    if not isinstance(dist, Distribution1D):
        raise ParameterOutOfRange("ls_direct applies to univariate distributions")
    atom_part = sum(m * math.exp(-s * loc) for loc, m in dist.atoms)
    if dist.ac_weight == 0.0:
        return TransformValue(atom_part, 0.0, "direct", 0)
    if dist.ac_density is None:
        raise NoDensityRoute(
            "distribution has a non-atomic part with no density evaluator"
        )

    T = _truncation(s, tol)
    tail = math.exp(-s * T) * dist.ac_weight * max(0.0, 1.0 - float(dist.ac_cdf(T)))
    for _ in range(60):
        if tail <= tol / 4:
            break
        T *= 1.5
        tail = math.exp(-s * T) * dist.ac_weight * max(
            0.0, 1.0 - float(dist.ac_cdf(T))
        )

    w = dist.ac_weight

    def integrand(x):
        return w * np.asarray(dist.ac_density(x)) * np.exp(-s * x)

    # head panel [0, h]: its term lies in [w F(h) e^{-sh}, w F(h)] whatever
    # the density does at 0, so the midpoint is within half that width; h is
    # the largest of the geometric points T / 2^j (or 0) where that is tol/8
    hs = np.append(T * 0.5 ** np.arange(1, 64), 0.0)
    head = w * np.asarray(dist.ac_cdf(hs), dtype=float)
    half = 0.5 * head * -np.expm1(-s * hs)
    j = int(np.argmax(half <= tol / 8))
    # the geometric seed panels above h resolve what is left of a singularity
    res = adaptive_quad(integrand, float(hs[j]), T, tol / 2, breakpoints=hs[:j])
    value = atom_part + float(head[j] - half[j]) + res.value
    return TransformValue(value, res.error + float(half[j]) + tail, "direct",
                          res.evaluations + hs.size)


def _ls_survival_1d(dist: Distribution1D, s: float, tol: float) -> TransformValue:
    """Survival route: value = 1 - s * int exp(-sx) Fbar(x) dx."""
    return _survival_identity(dist, (s,), tol)[0]


# ---------------------------------------------------------------------------
# Carson route (any dimension; the quadrature's point budget bounds the work)


def _exp_rows(rates, x):
    """e^{-r x} at the nodes x, one row per rate r."""
    return np.exp(-np.multiply.outer(rates, x))


def _weighted_cdf_eval(dist, s_axes, use_survival):
    """Integrands H(x) * e^{-s . x} for every s in the Cartesian product of
    `s_axes`, as one WeightedBatch: H is the core (a RankOneSum for laws with
    separable terms, else the dense grid of pointwise values) and each axis
    carries one row of e^{-s x_i} weights per s on that axis."""
    point_fn = dist.survival if use_survival else dist.cdf

    def evaluate(nodes):
        weights = [_exp_rows(s, x) for s, x in zip(s_axes, nodes)]
        terms = (dist.separable_terms(nodes, use_survival)
                 if isinstance(dist, JointDist) else None)
        if terms is not None:
            return WeightedBatch(RankOneSum(*terms), weights)
        shape = tuple(len(n) for n in nodes)
        H = np.broadcast_to(np.asarray(point_fn(*np.ix_(*nodes)), dtype=float), shape)
        return WeightedBatch(H[None], weights)

    return evaluate


def _triangle_eval(point_fn, outer, inner, upper):
    """H * u * e^{-(a + b v) u} on one triangle of the diagonal seam, mapped
    to (u, v) in [0, T] x [0, 1], for every outer rate a and inner rate b.
    e^{-a u} is an axis-0 weight; the core carries e^{-b u v}, one
    exponential per grid point for each inner rate.  The batch shape is
    (len(inner), len(outer), 1)."""

    def evaluate(nodes):
        u, v = nodes
        uv = np.outer(u, v)
        H = point_fn(uv, u[:, None]) if upper else point_fn(u[:, None], uv)
        core = (np.asarray(H, dtype=float) * u[:, None]) * _exp_rows(inner, uv)
        return WeightedBatch(core, [_exp_rows(outer, u), np.ones((1, len(v)))])

    return evaluate


def _carson_integral(dist, s_axes, tol, use_survival=False):
    """(prod s_i) * integral of (survival or CDF) * exp(-sum s_i x_i) over the
    orthant, for every s in the Cartesian product of the per-axis tuples
    `s_axes`, on one shared grid.

    Returns (value, quadrature_error, evaluations, tail_bound); value, error
    and tail have the batch shape (len(s_axes[0]), ...).  Each cell's
    quadrature error is held to `tol`, and each axis is truncated where the
    smallest s on it has its tail within `tol`; the tail bound is taken at
    that shared length, plus the law's `series_tail` (mass its truncated
    series misplaces, which moves either integral by at most that much).
    Panels are graded for the largest s.  A 1-D law's atoms seed its axis;
    2-D kinds with a diagonal kink are split into triangles along {x = y}
    first.
    """
    dim = len(s_axes)
    point_fn = dist.survival if use_survival else dist.cdf
    grids = np.ix_(*(np.asarray(s, dtype=float) for s in s_axes))
    prod_s = math.prod(grids)
    cell_tol = tol / prod_s

    if dim == 2 and dist.diagonal_seam:
        s, t = s_axes
        T = _truncation(min(s + t), tol, 2)
        Ts = [T, T]
        val = err = 0.0
        evals = 0
        for upper in (False, True):
            outer, inner = (t, s) if upper else (s, t)
            axes = [
                AxisSpec(length=T, rate=max(outer)),
                AxisSpec(length=1.0, rate=None),
            ]
            # the batch is (inner, outer, 1): the (s, t) cells, transposed below
            orient = np.asarray if upper else np.transpose
            r = tensor_quad(_triangle_eval(point_fn, outer, inner, upper), axes,
                            orient(cell_tol / 2)[:, :, None])
            val += orient(r.value[:, :, 0])
            err += orient(r.error[:, :, 0])
            evals += r.evaluations
    else:
        Ts = [_truncation(min(s), tol, dim) for s in s_axes]
        atoms = dist.atoms if isinstance(dist, Distribution1D) else ()
        axes = [AxisSpec(length=T, rate=max(s), seeds=[loc for loc, _ in atoms])
                for T, s in zip(Ts, s_axes)]
        r = tensor_quad(_weighted_cdf_eval(dist, s_axes, use_survival), axes, cell_tol[None])
        val, err, evals = r.value[0], r.error[0], r.evaluations
    tail = sum(np.exp(-g * T) for g, T in zip(grids, Ts))
    tail = tail + getattr(dist, "series_tail", 0.0)
    return prod_s * val, prod_s * err, evals, tail


def ls_carson(dist, s, tol: float = DEFAULT_TOL) -> TransformValue:
    """Carson route: (prod s_i) * Laplace transform of the CDF.

    Total for every distribution here, including those with singular parts,
    because the integrand only ever sees the CDF.
    """
    _check_tol(tol)
    svec = _as_svec(s)
    _check_s(svec)
    values, errors, evals = ls_carson_grid(dist, [(v,) for v in svec], tol)
    return TransformValue(values.item(), errors.item(), "carson", evals)


def ls_carson_grid(dist, s_axes, tol: float = DEFAULT_TOL):
    """Carson route for a law of any dimension at every s in the Cartesian
    product of the per-axis tuples `s_axes`, integrated on one shared grid.

    Returns (values, est_errors, evaluations): arrays of shape
    (len(s_axes[0]), ...) holding each cell's value and its own error bound,
    and the number of integrand values computed for the whole batch.
    """
    _check_tol(tol)
    s_axes = [tuple(float(v) for v in s) for s in s_axes]
    for s in s_axes:
        if not s:
            raise ParameterOutOfRange("every axis needs at least one s")
        _check_s(s)
    _check_dim(dist, len(s_axes))
    value, err, evals, tail = _carson_integral(dist, s_axes, tol / 2)
    return value, err + tail, evals


# the survival route takes 2^n - 2 marginal transforms
_MAX_SURVIVAL_DIM = 12


def _check_dim(dist, n: int, survival: bool = False):
    if n != dist.dim:
        raise ParameterOutOfRange(f"s has dimension {n}, distribution has {dist.dim}")
    if survival and n > _MAX_SURVIVAL_DIM:
        raise DimensionTooLarge(f"the survival route is limited to dimension {_MAX_SURVIVAL_DIM}")


def _survival_identity(dist, svec, tol):
    """Both sides of E[prod(1 - e^{-s_i X_i})] = (prod s_i) * int Hbar e^{-s.x}
    for a law of dimension n, and the survival-route value of L(s).

    The right side is one survival integral at tol/2.  The left side, without
    its full-transform term (-1)^n L(s), is 1 plus (-1)^|S| L_S(s_S) over the
    2^n - 2 proper marginals S, each by route 'auto', sharing the other tol/2
    evenly; it is summed exactly rounded, and its error adds the rounding of
    that sum and of right - left.  Returns (TransformValue of
    (-1)^n (right - left), left, right).
    """
    n = len(svec)
    val, err, evals, tail = _carson_integral(
        dist, [(v,) for v in svec], tol / 2, use_survival=True
    )
    right, est = val.item(), (err + tail).item()
    subsets = [c for k in range(1, n) for c in itertools.combinations(range(n), k)]
    terms = [1.0]
    for subset in subsets:
        tv = transform_value(dist.marginal(subset), [svec[i] for i in subset],
                             route="auto", tol=tol / (2 * len(subsets)))
        terms.append((-1.0) ** len(subset) * tv.value)
        est += tv.est_error
        evals += tv.evaluations
    left = math.fsum(terms)
    est += 2.0 * math.ulp(1.0) * (math.fsum(map(abs, terms)) + abs(right))
    value = (-1.0) ** n * (right - left)
    return TransformValue(value, est, "survival", evals), left, right


def ls_survival_route(dist, *s, tol: float = 1e-8) -> TransformValue:
    """Survival route, ls_survival_route(dist, s_1, ..., s_n), any dimension:
    value = 1 - s * int e^{-sx} Fbar(x) dx for a univariate law, and for a
    joint law the inclusion-exclusion identity solved for L(s), with the
    transforms of the proper marginals taken by route 'auto'."""
    _check_tol(tol)
    svec = _as_svec(s)
    _check_s(svec)
    _check_dim(dist, len(svec), survival=True)
    return _survival_identity(dist, svec, tol)[0]


def closed_form_ls(dist, s) -> TransformValue:
    """Catalog closed form; est_error is the series truncation bound where
    one exists (trivariate Gamma), zero otherwise."""
    svec = _as_svec(s)
    _check_s(svec)
    if isinstance(dist, Distribution1D):
        v = dist.closed_ls(svec[0])
        if v is None:
            raise NoClosedForm("distribution has no closed-form transform")
        return TransformValue(v, 0.0, "closed_form", 0)
    res = dist.closed_ls(svec)
    if res is None:
        raise NoClosedForm("distribution has no closed-form transform")
    value, err = res
    return TransformValue(value, err, "closed_form", 0)


def canonical_route(route: str) -> str:
    """The route's one name: 'closed' is an alias of 'closed_form'."""
    route = "closed_form" if route == "closed" else route
    if route not in ROUTES:
        raise ParameterOutOfRange(f"unknown route {route!r}; choose from {ROUTES}")
    return route


def resolve_route(dist, svec, route: str) -> str:
    """The route `transform_value` takes at svec: 'auto' becomes the closed
    form when the law has one there, else 'carson'."""
    route = canonical_route(route)
    if route != "auto":
        return route
    closed = dist.closed_ls(svec[0] if isinstance(dist, Distribution1D) else svec)
    return "closed_form" if closed is not None else "carson"


def transform_value(dist, s, route: str = "auto", tol: float = DEFAULT_TOL) -> TransformValue:
    """Route dispatcher; route='auto' prefers the closed form, then Carson."""
    route = canonical_route(route)
    svec = _as_svec(s)
    _check_s(svec)
    route = resolve_route(dist, svec, route)
    if route == "closed_form":
        return closed_form_ls(dist, svec)
    if route == "direct":
        if not isinstance(dist, Distribution1D):
            raise ParameterOutOfRange("direct route applies to univariate laws only")
        return ls_direct(dist, svec[0], tol)
    if route == "carson":
        return ls_carson(dist, svec, tol)
    return ls_survival_route(dist, *svec, tol=tol)


# ---------------------------------------------------------------------------
# Identity verification


@dataclass
class IdentityReport:
    """Cross-route agreement report for one distribution and s-vector."""

    dim: int
    s: tuple
    tol: float
    route_values: dict = field(default_factory=dict)
    max_route_gap: float = 0.0
    expanded_lhs: float | None = None
    expanded_rhs: float | None = None
    expanded_gap: float | None = None
    evaluations: int = 0
    passed: bool = False

    def as_dict(self) -> dict:
        doc = {
            "dim": self.dim,
            "s": list(self.s),
            "tol": self.tol,
            "routes": {
                k: {"value": v.value, "est_error": v.est_error}
                for k, v in self.route_values.items()
            },
            "max_route_gap": self.max_route_gap,
        }
        if self.expanded_gap is not None:
            doc["expanded_lhs"] = self.expanded_lhs
            doc["expanded_rhs"] = self.expanded_rhs
            doc["expanded_gap"] = self.expanded_gap
        doc["passed"] = self.passed
        return doc


def verify_identity(dist, s, tol: float = 1e-8) -> IdentityReport:
    """Numerically confirm that every available transform route agrees.

    For a joint law the survival route is the expanded identity
    E[prod(1 - e^{-s_i X_i})] = (prod s_i) * integral of the joint survival
    function, whose left side is assembled from the transforms of all
    lower-order marginals; the report carries both sides from that one
    evaluation, with the closed form (else Carson) as the full-transform term.
    """
    _check_tol(tol)
    svec = _as_svec(s)
    _check_s(svec)
    _check_dim(dist, len(svec), survival=True)
    joint = not isinstance(dist, Distribution1D)
    rep = IdentityReport(dim=len(svec), s=svec, tol=tol)
    quad_tol = tol / 4

    values = {}
    if resolve_route(dist, svec, "auto") == "closed_form":
        values["closed_form"] = closed_form_ls(dist, svec)
    if not joint and dist.has_density:
        values["direct"] = ls_direct(dist, svec[0], quad_tol)
    values["carson"] = ls_carson(dist, svec, quad_tol)
    if joint:
        surv, left, right = _survival_identity(dist, svec, quad_tol)
        reference = values.get("closed_form", values["carson"]).value
        rep.expanded_lhs = float(left + (-1.0) ** len(svec) * reference)
        rep.expanded_rhs = right
        rep.expanded_gap = abs(rep.expanded_lhs - right)
    else:
        surv = _ls_survival_1d(dist, svec[0], quad_tol)
    values["survival"] = surv

    rep.route_values = values
    rep.evaluations = sum(v.evaluations for v in values.values())
    vals = [v.value for v in values.values()]
    rep.max_route_gap = float(max(
        (abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]), default=0.0
    ))
    rep.passed = bool(rep.max_route_gap <= tol and (rep.expanded_gap or 0.0) <= tol)
    return rep
