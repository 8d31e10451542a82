import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stieltjes import dist_model as dm
from stieltjes import transforms as tr
from stieltjes.errors import (
    DimensionTooLarge,
    NoClosedForm,
    NoDensityRoute,
    ParameterOutOfRange,
    QuadratureNonConvergence,
)

RNG = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# operation examples


def test_ls_direct_exponential():
    tv = tr.ls_direct(dm.exponential(1.0), 2.0)
    assert abs(tv.value - 1.0 / 3.0) <= 1e-10
    assert tv.est_error <= 1e-10


def test_ls_direct_point_mass():
    tv = tr.ls_direct(dm.point_mass(0.0), 7.0)
    assert tv.value == 1.0 and tv.est_error == 0.0


def test_ls_direct_gamma():
    tv = tr.ls_direct(dm.gamma_dist(2.0, 3.0), 2.0)
    assert abs(tv.value - 0.125) <= 1e-10


def test_ls_direct_requires_density():
    odd = dm.Distribution1D(
        ac_weight=1.0, ac_density=None,
        ac_cdf=lambda x: -np.expm1(-np.asarray(x, dtype=float)),
    )
    with pytest.raises(NoDensityRoute):
        tr.ls_direct(odd, 1.0)
    # carson still works from the CDF alone
    tv = tr.ls_carson(odd, 1.0)
    assert abs(tv.value - 0.5) <= 1e-9


def test_ls_carson_exponential_matches_direct():
    tv = tr.ls_carson(dm.exponential(1.0), 2.0, tol=1e-8)
    assert abs(tv.value - 1.0 / 3.0) <= 1e-8


def test_ls_carson_point_mass():
    tv = tr.ls_carson(dm.point_mass(0.0), 5.0)
    assert abs(tv.value - 1.0) <= 1e-9


def test_ls_carson_blm_singular_part():
    blm = dm.make_catalog("blm", {"theta": 4.0, "f_lambda": 2.0, "g_lambda": 2.0})
    closed = tr.closed_form_ls(blm, (2.0, 3.0))
    th, s, t = 4.0, 2.0, 3.0
    lf = 2.0 / (2.0 + s)
    lg = 2.0 / (2.0 + t)
    expect = ((th + s) * lf + (th + t) * lg - th) / (th + s + t)
    assert abs(closed.value - expect) <= 1e-14
    carson = tr.ls_carson(blm, (2.0, 3.0), tol=1e-7)
    assert abs(carson.value - expect) <= 1e-6


def test_ls_survival_route_product():
    pr = dm.ProductJoint([dm.exponential(1.0), dm.exponential(1.0)])
    tv = tr.ls_survival_route(pr, 1.0, 1.0, tol=1e-8)
    assert abs(tv.value - 0.25) <= 1e-7


def test_ls_survival_route_marshall_olkin():
    mo = dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 1, "lambda12": 1})
    closed = tr.closed_form_ls(mo, (2.0, 3.0))
    assert abs(closed.value - 0.2375) <= 1e-14
    tv = tr.ls_survival_route(mo, 2.0, 3.0, tol=1e-7)
    assert abs(tv.value - closed.value) <= 1e-6


def test_univariate_survival_identity():
    # (1 - L(1))/1 = int e^{-x} Fbar(x) dx = 1/2 for Exp(1)
    tv = tr.transform_value(dm.exponential(1.0), 1.0, route="survival", tol=1e-9)
    assert abs(tv.value - 0.5) <= 1e-8


def test_closed_form_examples():
    md = dm.make_catalog("moran-downton", {"r": 0.0})
    assert abs(tr.closed_form_ls(md, (1.0, 1.0)).value - 0.25) <= 1e-14

    # paper formula: 1/(alpha+beta+s+t) * [a'b/(a'+s) + ab'/(b'+t)] = 1/3 here
    fr = dm.make_catalog("freund", {"alpha": 1, "alpha_prime": 2, "beta": 1, "beta_prime": 2})
    assert abs(tr.closed_form_ls(fr, (1.0, 1.0)).value - 1.0 / 3.0) <= 1e-14

    bg = dm.make_catalog("bivariate-gamma", {"r": 0.0, "q": 1.0})
    assert abs(tr.closed_form_ls(bg, (2.0, 3.0)).value - 1.0 / 12.0) <= 1e-14


def test_closed_form_missing():
    bare = dm.Distribution1D(
        ac_weight=1.0,
        ac_density=lambda x: np.exp(-np.asarray(x, dtype=float)),
        ac_cdf=lambda x: -np.expm1(-np.asarray(x, dtype=float)),
    )
    with pytest.raises(NoClosedForm):
        tr.closed_form_ls(bare, 1.0)
    # auto falls back to carson
    tv = tr.transform_value(bare, 1.0, route="auto")
    assert tv.route == "carson"


def test_route_validation():
    with pytest.raises(ParameterOutOfRange, match="s must be positive"):
        tr.ls_carson(dm.exponential(1.0), -1.0)
    with pytest.raises(ParameterOutOfRange, match="tol"):
        tr.ls_carson(dm.exponential(1.0), 1.0, tol=0.5)
    with pytest.raises(ParameterOutOfRange):
        tr.transform_value(dm.exponential(1.0), 1.0, route="bogus")


def test_dimension_cap():
    # a dense 5-D law meets the quadrature's point budget, not a dimension
    # cap: one probe point shows the first grid is too large to evaluate
    points = []

    class Dense5(dm.JointDist):
        dim = 5
        kind = "dense"

        def cdf(self, *xs):
            points.append(np.broadcast(*xs).size)
            return math.prod(1.0 - np.exp(-np.asarray(x)) for x in xs)

    with pytest.raises(QuadratureNonConvergence, match="budget"):
        tr.ls_carson(Dense5(), (1.0,) * 5)
    assert points == [1]
    # the survival route takes 2^d - 2 marginal transforms, limited at d = 12
    pr = dm.ProductJoint([dm.exponential(1.0)] * 13)
    with pytest.raises(DimensionTooLarge, match="12"):
        tr.ls_survival_route(pr, *(1.0,) * 13)
    with pytest.raises(DimensionTooLarge, match="12"):
        tr.verify_identity(pr, (1.0,) * 13)


def test_product_dim4_factorized():
    pr = dm.ProductJoint([dm.exponential(k) for k in (1.0, 2.0, 3.0, 4.0)])
    tv = tr.ls_carson(pr, (1.0, 1.0, 1.0, 1.0), tol=1e-8)
    expect = math.prod(k / (k + 1.0) for k in (1.0, 2.0, 3.0, 4.0))
    assert abs(tv.value - expect) <= 1e-7


class _PointwiseOnly(dm.JointDist):
    """A separable law seen only through pointwise cdf/survival, so the
    Carson integral takes the dense-grid path.  It accepts the
    one-axis-per-coordinate grids that path passes and sums the law's terms
    by matrix products, one leading node at a time.  It keeps the law's
    series tail, which both Carson integrals add to their tail bound."""

    def __init__(self, law):
        self.law, self.dim, self.kind = law, law.dim, law.kind
        self.series_tail = getattr(law, "series_tail", 0.0)

    def cdf(self, *xs):
        return self._grid(xs, upper=False)

    def survival(self, *xs):
        return self._grid(xs, upper=True)

    def _grid(self, xs, upper):
        c, factors = self.law.separable_terms(xs, upper)
        out = _sum_outer(c, [f.reshape(len(c), -1) for f in factors])
        return out.reshape(np.broadcast_shapes(*(np.shape(x) for x in xs)))


def _sum_outer(c, factors):
    """sum_t c[t] * outer(factors[0][t], factors[1][t], ...)."""
    first, *rest = factors
    if len(rest) == 1:
        return (c[:, None] * first).T @ rest[0]
    return np.stack([_sum_outer(c * first[:, i], rest) for i in range(first.shape[1])])


def _separable_laws():
    tg = dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5})
    return {
        "product-2d": dm.ProductJoint([dm.exponential(1.0), dm.gamma_dist(2.0, 2.0)]),
        "product-3d": dm.make_catalog(
            "product-exponential", {"lambda1": 1, "lambda2": 2, "lambda3": 3}),
        "moran-downton": dm.make_catalog("moran-downton", {"r": 0.5}),
        "bivariate-gamma": dm.make_catalog("bivariate-gamma", {"r": 0.3, "q": 2.0}),
        "trivariate-gamma": tg,
        "trivariate-gamma-01": tg.marginal((0, 1)),
        "trivariate-gamma-02": tg.marginal((0, 2)),
        "trivariate-gamma-12": tg.marginal((1, 2)),
    }


@pytest.mark.parametrize("name", list(_separable_laws()))
def test_rank_one_matches_dense_path(name):
    law = _separable_laws()[name]
    assert law.separable_terms([np.ones(1)] * law.dim) is not None
    s_axes = [(s,) for s in (1.3, 2.1, 3.4)[: law.dim]]
    for use_survival in (False, True):
        got = [
            tr._carson_integral(d, s_axes, 1e-8, use_survival=use_survival)
            for d in (law, _PointwiseOnly(law))
        ]
        (v1, e1), (v2, e2) = [(v.item(), (e + tail).item()) for v, e, _, tail in got]
        assert abs(v1 - v2) <= 1e-13
        # |Kronrod - Gauss| differences of O(1) sums carry rounding of a few
        # ulps, hence the absolute floor under the relative bound
        assert abs(e1 - e2) <= 1e-12 * e2 + 1e-14


# ---------------------------------------------------------------------------
# invariants


def _catalog_for_identity():
    return [
        (dm.exponential(1.3), 1),
        (dm.gamma_dist(2.0, 3.0), 1),
        (dm.positive_stable(0.5), 1),
        (dm.mixture([(0.3, dm.point_mass(0.0)), (0.7, dm.exponential(2.0))]), 1),
        (dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 2, "lambda12": 0.5}), 2),
        (dm.make_catalog("freund", {"alpha": 1, "alpha_prime": 2, "beta": 1, "beta_prime": 2}), 2),
        (dm.make_catalog("moran-downton", {"r": 0.5}), 2),
        (dm.make_catalog("bivariate-gamma", {"r": 0.3, "q": 2.0}), 2),
        (dm.make_catalog("blm", {"theta": 3.0, "f_lambda": 2.0, "g_lambda": 2.0}), 2),
        (dm.make_catalog("product-exponential", {"lambda1": 1, "lambda2": 2, "lambda3": 3}), 3),
        (dm.make_catalog("product-exponential",
                         {"lambda1": 1, "lambda2": 2, "lambda3": 3, "lambda4": 4}), 4),
        (dm.make_catalog("product-exponential",
                         {f"lambda{i}": 0.5 * i for i in range(1, 7)}), 6),
        (dm.make_catalog("product-exponential",
                         {f"lambda{i}": 0.5 * i for i in range(1, 9)}), 8),
        (dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5}), 3),
    ]


def test_identity_invariance_across_routes():
    rng = np.random.default_rng(11)
    for dist, dim in _catalog_for_identity():
        n_vec = 20
        for _ in range(n_vec):
            svec = rng.uniform(0.1, 10.0, size=dim)
            tol = 1e-8
            surv = tr.ls_survival_route(dist, *svec, tol=tol)
            routes = [tr.ls_carson(dist, svec, tol=tol), surv]
            if dim == 1 and dist.has_density:
                routes.append(tr.ls_direct(dist, svec[0], tol))
            if tr.resolve_route(dist, svec, "auto") == "closed_form":
                closed = tr.closed_form_ls(dist, svec)
                routes.append(closed)
                sgap = abs(surv.value - closed.value)
                assert sgap <= surv.est_error + closed.est_error, (dist, svec, sgap)
            vals = [r.value for r in routes]
            allowed = 10.0 * sum(r.est_error for r in routes) + 1e-12
            gap = max(abs(a - b) for a in vals for b in vals)
            assert gap <= allowed, f"{getattr(dist, 'kind', 'dist1d')}: {gap} > {allowed}"


def test_identity_invariance_trivariate():
    rng = np.random.default_rng(12)
    for dist in [
        dm.ProductJoint([dm.exponential(1.0), dm.exponential(2.0), dm.exponential(3.0)]),
        dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5}),
    ]:
        for _ in range(5):
            svec = rng.uniform(0.3, 5.0, size=3)
            closed = tr.closed_form_ls(dist, svec)
            carson = tr.ls_carson(dist, svec, tol=1e-6)
            allowed = 10.0 * (closed.est_error + carson.est_error) + 1e-12
            assert abs(closed.value - carson.value) <= allowed


def _atom_gamma(w, loc, rate, q):
    return dm.mixture([(w, dm.point_mass(loc)), (1.0 - w, dm.gamma_dist(rate, q))])


_LAWS_1D = st.one_of(
    st.builds(dm.exponential, st.floats(0.2, 10.0)),
    st.builds(dm.gamma_dist, st.floats(0.2, 10.0), st.floats(0.3, 3.0)),
    st.builds(dm.positive_stable, st.sampled_from([0.5, 0.7])),
    st.builds(dm.point_mass, st.floats(0.0, 3.0)),
    # a density with an x^{q-1} singularity at 0 next to an atom
    st.builds(_atom_gamma, st.floats(0.1, 0.4), st.floats(0.2, 1.5),
              st.floats(0.5, 2.0), st.sampled_from([0.3, 0.5])),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(dist=_LAWS_1D, s=st.floats(0.02, 50.0),
       route=st.sampled_from(["direct", "carson", "survival"]),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
# the Carson tail bound e^{-sT} is exact for an atom, so without the rounding
# term est_error reads 1.25000000000000e-09 + 3.3e-24 against a gap of
# 1.25000000000000e-09 + 8.7e-24
@example(dist=dm.point_mass(0.3904260723960641), s=47.48626951322907,
         route="carson", tol=1e-8)
# a signed sum of panel differences read 3.1e-11 here against a gap of 4.2e-10
@example(dist=dm.gamma_dist(0.3135203195017496, 1.6560290829899773),
         s=0.0398789144002979, route="carson", tol=1e-10)
def test_est_error_bounds_the_error(dist, s, route, tol):
    # s/lambda below 0.02 puts the law's mass under the first panel, a grid
    # defect of its own (ROADMAP item 1)
    assume(s >= 0.02 * (dist.params or {}).get("lambda", 0.0))
    tv = tr.transform_value(dist, s, route=route, tol=tol)
    closed = tr.closed_form_ls(dist, s)
    assert abs(tv.value - closed.value) <= tv.est_error + closed.est_error


@pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9, 0.95])
def test_stable_routes_within_bound(alpha):
    # at alpha >= 0.9 a CDF that saturates early in the tail (1 - F(150) is
    # 4.4e-4 at alpha = 0.95) breaks the survival route's bound
    dist = dm.positive_stable(alpha)
    for s in (0.1, 0.5, 2.0):
        closed = tr.closed_form_ls(dist, s)
        for route in ("direct", "carson", "survival"):
            tv = tr.transform_value(dist, s, route=route, tol=1e-8)
            gap = abs(tv.value - closed.value)
            assert gap <= tv.est_error + closed.est_error, (alpha, s, route, gap, tv.est_error)


def _blm(f_lambda, g_lambda, p):
    # theta placing the diagonal mass p = (f + g)/theta - 1 in [0, 1]
    theta = (f_lambda + g_lambda) / (1.0 + p)
    return dm.BlmJoint(dm.BlmSpec(dm.exponential(f_lambda), dm.exponential(g_lambda), theta))


def _freund_near_equal_rates(alpha, beta, after, delta, mirror):
    # one post-failure rate within delta of alpha + beta, where the classical
    # Freund formulas cancel
    near = alpha + beta + delta
    return dm.freund(alpha, after, beta, near) if mirror else dm.freund(alpha, near, beta, after)


_RATE = st.floats(0.2, 5.0)
_LAWS_2D = st.one_of(
    st.builds(dm.marshall_olkin, _RATE, _RATE, _RATE),
    st.builds(dm.freund, _RATE, _RATE, _RATE, _RATE),
    st.builds(_freund_near_equal_rates, _RATE, _RATE, _RATE,
              st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, -1.6e-8, 1e-6, -1e-6]),
              st.booleans()),
    st.builds(_blm, _RATE, _RATE, st.floats(0.0, 1.0)),
    st.builds(dm.moran_downton, st.floats(0.0, 0.9)),
    st.builds(dm.bivariate_gamma, st.floats(0.0, 0.9), st.floats(0.3, 3.0)),
)
_LOG_UNIFORM_S = st.floats(math.log(0.02), math.log(50.0)).map(math.exp)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dist=_LAWS_2D, s=st.tuples(_LOG_UNIFORM_S, _LOG_UNIFORM_S),
       route=st.sampled_from(["carson", "survival"]),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
# near the series cap the truncated series leaves 9.3e-11 of mass out of the
# survival function: the value read -1.05e-10 +- 1.3e-11 against 1.4e-14
@example(dist=dm.bivariate_gamma(0.9915, 5.0), s=(1.0, 2.0), route="survival", tol=1e-10)
# alpha' 1.6e-8 below alpha + beta, where the classical Freund CDF cancels:
# the value broke its bound 3.3-fold
@example(dist=dm.freund(1.0, 1.0 + 4.3 - 1.6e-8, 4.3, 2.8), s=(0.7, 3.0), route="carson",
         tol=1e-10)
def test_joint_est_error_bounds_the_error(dist, s, route, tol):
    tv = tr.transform_value(dist, s, route=route, tol=tol)
    closed = tr.closed_form_ls(dist, s)
    assert abs(tv.value - closed.value) <= tv.est_error + closed.est_error


def test_small_shape_gamma_series_corner():
    # shapes below 1 give the CDF an infinite-slope corner at the origin;
    # the tensor quadrature must deepen panels there, not blow its budget
    bg = dm.bivariate_gamma(0.55, 0.35)
    closed = tr.closed_form_ls(bg, (2.0, 1.1))
    carson = tr.ls_carson(bg, (2.0, 1.1), tol=1e-7)
    assert abs(closed.value - carson.value) <= 1e-7
    assert carson.est_error <= 1e-7


def test_freund_equal_rate_degeneracy():
    # alpha + beta equal to a post-failure rate is a removable singularity
    # of the closed CDF; routes must still agree
    fr = dm.freund(1.5, 2.1, 0.6, 2.1)
    closed = tr.closed_form_ls(fr, (2.0, 3.5))
    carson = tr.ls_carson(fr, (2.0, 3.5), tol=1e-8)
    surv = tr.ls_survival_route(fr, 2.0, 3.5, tol=1e-8)
    assert abs(closed.value - carson.value) <= 1e-7
    assert abs(closed.value - surv.value) <= 1e-7


def test_transform_value_bounds():
    for dist, dim in _catalog_for_identity():
        svec = [1.7] * dim
        tv = tr.transform_value(dist, svec, route="carson", tol=1e-9)
        assert -tv.est_error <= tv.value <= 1.0 + tv.est_error
        assert tv.est_error <= 1e-9


def complete_monotonicity_margin(ls, lo, hi, h, kmax):
    """Smallest value of (-1)^k * k-th forward difference of ls on the grid
    lo, lo + h, ..., hi, k <= kmax: nonnegative up to arithmetic noise for a
    completely monotone ls."""
    vals = np.array([ls(float(sv)) for sv in np.arange(lo, hi + h / 2, h)])
    return min(float(np.min((-1.0) ** k * np.diff(vals, k))) for k in range(kmax + 1))


def test_complete_monotonicity_probe():
    for dist in [
        dm.exponential(1.0),
        dm.gamma_dist(2.0, 3.0),
        dm.mixture([(0.4, dm.point_mass(1.0)), (0.6, dm.exponential(0.7))]),
        dm.positive_stable(0.5),
    ]:
        margin = complete_monotonicity_margin(
            lambda s, d=dist: d.closed_ls(s), 0.5, 5.0, 0.1, 3
        )
        assert margin >= -1e-8


def test_boundary_small_s():
    # L(s) -> 1 as s -> 0+ for finite-mean kinds
    finite_mean = [
        dm.exponential(1.0),
        dm.gamma_dist(2.0, 3.0),
        dm.point_mass(0.7),
        dm.mixture([(0.5, dm.point_mass(0.5)), (0.5, dm.exponential(3.0))]),
    ]
    for d in finite_mean:
        assert abs(d.closed_ls(1e-6) - 1.0) <= 1e-4


def test_monotone_nonincreasing_in_each_coordinate():
    mo = dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 1, "lambda12": 1})
    s_grid = np.linspace(0.2, 5.0, 9)
    vals = [tr.closed_form_ls(mo, (s, 1.0)).value for s in s_grid]
    assert np.all(np.diff(vals) < 0)
    vals = [tr.closed_form_ls(mo, (1.0, s)).value for s in s_grid]
    assert np.all(np.diff(vals) < 0)


def test_exponential_scaling():
    lam = 3.7
    d_scaled = dm.exponential(lam)
    d_unit = dm.exponential(1.0)
    for s in (0.2, 1.0, 4.0):
        a = tr.ls_carson(d_scaled, s, tol=1e-10).value
        b = tr.ls_carson(d_unit, s / lam, tol=1e-10).value
        assert abs(a - b) <= 1e-9


# ---------------------------------------------------------------------------
# verify_identity


def test_verify_identity_univariate():
    rep = tr.verify_identity(dm.exponential(1.0), 1.0, tol=1e-8)
    assert rep.passed
    # carson value is s * L_F(s); at s=1 the CDF transform integral is 1/2
    assert abs(rep.route_values["carson"].value - 0.5) <= 1e-8
    assert abs(rep.route_values["closed_form"].value - 0.5) <= 1e-14


def test_verify_identity_product3():
    for n in range(3, 9):
        pr = dm.ProductJoint([dm.exponential(1.0)] * n)
        rep = tr.verify_identity(pr, (1.0,) * n, tol=1e-6)
        assert rep.passed and "survival" in rep.route_values
        assert rep.expanded_gap <= 1e-6


def test_verify_identity_integrates_the_survival_function_once(monkeypatch):
    mo = dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 2, "lambda12": 0.5})
    calls = []
    carson_integral = tr._carson_integral

    def counted(dist, s_axes, tol, use_survival=False):
        calls.append(use_survival)
        return carson_integral(dist, s_axes, tol, use_survival=use_survival)

    monkeypatch.setattr(tr, "_carson_integral", counted)
    rep = tr.verify_identity(mo, (2.0, 3.0), tol=1e-6)
    assert rep.passed
    assert calls.count(True) == 1
    routes = rep.route_values
    gap = abs(routes["closed_form"].value - routes["survival"].value)
    assert abs(rep.expanded_gap - gap) <= 1e-15


def test_verify_identity_marshall_olkin():
    mo = dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 1, "lambda12": 1})
    rep = tr.verify_identity(mo, (2.0, 3.0), tol=1e-6)
    assert rep.passed
    assert rep.max_route_gap <= 1e-6
    doc = rep.as_dict()
    assert doc["passed"] and "expanded_gap" in doc
