import itertools
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import dist_model as dm
from stieltjes.errors import (
    MissingMarginal,
    ParameterOutOfRange,
    PrecisionExhausted,
    UnknownCatalogName,
)

RNG = np.random.default_rng(2024)


def catalog_1d():
    return [
        dm.exponential(1.0),
        dm.exponential(0.4),
        dm.gamma_dist(2.0, 3.0),
        dm.gamma_dist(1.0, 1.001),
        dm.positive_stable(0.5),
        dm.point_mass(0.7),
        dm.mixture([(0.3, dm.point_mass(0.0)), (0.7, dm.exponential(2.0))]),
        dm.mixture(
            [(0.2, dm.point_mass(0.5)), (0.5, dm.point_mass(1.0)), (0.3, dm.point_mass(2.0))]
        ),
    ]


def catalog_joint():
    return [
        dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 2, "lambda12": 0.5}),
        dm.make_catalog("freund", {"alpha": 1, "alpha_prime": 2, "beta": 1, "beta_prime": 2}),
        dm.make_catalog("moran-downton", {"r": 0.5}),
        dm.make_catalog("bivariate-gamma", {"r": 0.3, "q": 2.0}),
        dm.make_catalog("blm", {"theta": 3.0, "f_lambda": 2.0, "g_lambda": 2.0}),
        dm.ProductJoint([dm.exponential(1.0), dm.gamma_dist(2.0, 2.0)]),
        dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5}),
        dm.make_catalog("product-exponential", {"lambda1": 1, "lambda2": 2, "lambda3": 3}),
    ]


# ---------------------------------------------------------------------------
# catalog construction


def test_make_catalog_exponential():
    d = dm.make_catalog("exponential", {"lambda": 1})
    x = np.array([0.0, 0.5, 1.0, 3.0])
    assert np.allclose(d.cdf(x), 1 - np.exp(-x))


def test_make_catalog_marshall_olkin_survival():
    j = dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 1, "lambda12": 1})
    assert math.isclose(j.survival(1.0, 2.0), math.exp(-5.0), rel_tol=1e-14)


def test_make_catalog_rejects_bad_r():
    with pytest.raises(ParameterOutOfRange, match=r"\[0, 1\)"):
        dm.make_catalog("moran-downton", {"r": 1.2})


def test_make_catalog_rejects_integers_beyond_double_range():
    with pytest.raises(ParameterOutOfRange, match="finite"):
        dm.make_catalog("exponential", {"lambda": 10**400})
    with pytest.raises(ParameterOutOfRange, match="finite"):
        dm.make_catalog("product-exponential", {"lambda1": 1, "lambda2": -(10**400)})


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: dm.exponential(NAN),
    lambda: dm.exponential(INF),
    lambda: dm.gamma_dist(NAN, 1.0),
    lambda: dm.gamma_dist(1.0, NAN),
    lambda: dm.gamma_dist(1.0, INF),
    lambda: dm.point_mass(NAN),
    lambda: dm.point_mass(INF),
    lambda: dm.mixture([(NAN, dm.exponential(1.0))]),
    lambda: dm.bivariate_gamma(0.3, NAN),
    lambda: dm.trivariate_gamma(NAN, 0.3, 0.3),
    lambda: dm.trivariate_gamma(1.0, NAN, 0.3),
    lambda: dm.MarshallOlkinJoint(NAN, 1.0, 1.0),
    lambda: dm.FreundJoint(NAN, 1.0, 1.0, 1.0),
    lambda: dm.BlmSpec(dm.exponential(1.0), dm.exponential(2.0), NAN),
], ids=["exp-nan", "exp-inf", "gamma-nan-lambda", "gamma-nan-q", "gamma-inf-q",
        "point-nan", "point-inf", "mixture-nan-weight", "bigamma-nan-q",
        "trigamma-nan-alpha", "trigamma-nan-a", "mo-nan", "freund-nan", "blm-nan-theta"])
def test_builders_reject_non_finite_parameters(build):
    with pytest.raises(ParameterOutOfRange):
        build()


def test_make_catalog_unknown_name():
    with pytest.raises(UnknownCatalogName):
        dm.make_catalog("noshuchdist", {})


def test_make_catalog_names_constraint():
    with pytest.raises(ParameterOutOfRange, match="a\\^2 \\+ b\\^2 < 1"):
        dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.8, "b": 0.7})


def test_catalog_listing():
    names = dm.catalog_names()
    assert "exponential" in names and "trivariate-gamma" in names
    info = dm.catalog_info("gamma")
    assert info["params"] == ["lambda", "q"]


def _readme_catalog_rows():
    """kind -> (params, constraints) cells of the README catalog table, with
    the backticks of code spans taken out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| kind | params | constraints |\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[1:]:  # below the |---| line
        kind, params, constraints = (c.strip().replace("`", "")
                                     for c in line.strip("|").split("|"))
        rows[kind] = (params, constraints)
    return rows


def test_readme_catalog_table_matches_the_catalog():
    rows = _readme_catalog_rows()
    assert sorted(rows) == dm.catalog_names()
    for name in dm.catalog_names():
        info = dm.catalog_info(name)
        assert rows[name] == (", ".join(info["params"]), info["constraints"]), name


# ---------------------------------------------------------------------------
# univariate invariants


def test_cdf_monotone_and_survival_complement():
    xs = np.sort(RNG.uniform(0.0, 20.0, size=1000))
    for d in catalog_1d():
        F = d.cdf(xs)
        assert np.all(np.diff(F) >= -1e-14)
        assert np.max(np.abs(d.survival(xs) + F - 1.0)) <= 1e-12


def test_atom_at_zero_included_right_continuity():
    d = dm.mixture([(0.3, dm.point_mass(0.0)), (0.7, dm.exponential(1.0))])
    assert math.isclose(d.cdf(0.0), 0.3, abs_tol=1e-15)


def test_mass_validation():
    with pytest.raises(ParameterOutOfRange, match="sum to 1"):
        dm.Distribution1D(atoms=[(0.0, 0.5)])
    with pytest.raises(ParameterOutOfRange, match="mass"):
        dm.Distribution1D(atoms=[(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ParameterOutOfRange, match="location"):
        dm.Distribution1D(atoms=[(-1.0, 1.0)])


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.1, 10.0),
    w=st.floats(0.05, 0.95),
    a=st.floats(0.0, 5.0),
    x1=st.floats(0.0, 30.0),
    x2=st.floats(0.0, 30.0),
)
def test_mixture_cdf_monotone_property(lam, w, a, x1, x2):
    d = dm.mixture([(w, dm.point_mass(a)), (1.0 - w, dm.exponential(lam))])
    lo, hi = min(x1, x2), max(x1, x2)
    assert d.cdf(lo) <= d.cdf(hi) + 1e-14
    assert 0.0 <= d.cdf(lo) <= 1.0


# ---------------------------------------------------------------------------
# positive stable kernel


# lower end of the log grid per alpha: below it the values are so small that
# Talbot inversion at 40 digits no longer resolves them
_TALBOT_GRID_LO = {0.1: 1e-12, 0.3: 1e-3, 0.5: 0.05, 0.7: 0.2, 0.9: 0.6, 0.95: 0.8}


@pytest.mark.parametrize("alpha", sorted(_TALBOT_GRID_LO))
def test_stable_kernel_matches_talbot_inversion(alpha):
    xs = np.geomspace(_TALBOT_GRID_LO[alpha], 1e4, 8)
    cdf, pdf = dm._positive_stable_kernel(alpha, xs)
    with mpmath.workdps(40):
        for x, c, d in zip(xs, cdf, pdf):
            ref_c = float(mpmath.invertlaplace(
                lambda s: mpmath.exp(-s**alpha) / s, x, method="talbot"))
            ref_d = float(mpmath.invertlaplace(
                lambda s: mpmath.exp(-s**alpha), x, method="talbot"))
            assert abs(c - ref_c) <= 1e-14, (x, c, ref_c)
            if ref_d >= 1e-12:
                assert abs(d - ref_d) <= 1e-12 * ref_d, (x, d, ref_d)


def test_stable_kernel_matches_levy_closed_form():
    xs = np.geomspace(1e-3, 1e8, 60)
    cdf, pdf = dm._positive_stable_kernel(0.5, xs)
    for x, c, d in zip(xs, cdf, pdf):
        ref_d = x**-1.5 * math.exp(-0.25 / x) / (2.0 * math.sqrt(math.pi))
        assert abs(c - math.erfc(0.5 / math.sqrt(x))) <= 1e-14, x
        if ref_d >= 1e-12:
            assert abs(d - ref_d) <= 1e-12 * ref_d, x


def test_stable_kernel_edges_are_quiet_limits():
    xs = np.array([0.0, 5e-324, 1e-300, 1e-30, 1.0, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.1, 0.5, 0.7, 0.95, 0.999):
            cdf, pdf = dm._positive_stable_kernel(alpha, xs)
            assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(pdf >= 0.0)
            assert cdf[0] == pdf[0] == pdf[-1] == 0.0 and cdf[-1] == 1.0
            assert np.all(np.diff(cdf) >= 0.0)
        law = dm.positive_stable(0.7)
        assert law.cdf(0.0) == 0.0 and law.survival(np.inf) == 0.0
        assert np.array_equal(law.density(xs), dm._positive_stable_kernel(0.7, xs)[1])


def test_stable_half_law_matches_levy_form_at_edges():
    xs = np.array([0.0, 5e-324, 1e-300, 1e-3, 1.0, np.inf])
    law = dm.positive_stable(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, pdf = law.cdf(xs), law.density(xs)
    with mpmath.workdps(40):
        for x, c, d in zip(xs, cdf, pdf):
            if x == 0.0 or x == np.inf:
                ref_c, ref_d = float(x == np.inf), 0.0
            else:
                xm = mpmath.mpf(x)
                # erfc(1/(2 sqrt(x))), taken as Q(1/2, 1/(4x)): mpmath's erfc
                # overflows for arguments beyond about 1e150
                ref_c = mpmath.gammainc(0.5, 1 / (4 * xm), mpmath.inf, regularized=True)
                ref_d = xm**-1.5 * mpmath.exp(-1 / (4 * xm)) / (2 * mpmath.sqrt(mpmath.pi))
            assert abs(c - ref_c) <= 1e-15, (x, c, ref_c)
            assert abs(d - ref_d) <= 1e-12 * ref_d + 1e-15, (x, d, ref_d)


def _pollard(alpha, x):
    """CDF and density of the positive stable law from Pollard's series at
    40 digits; for x > 1, where y = x^-alpha < 1 and the terms fall."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(alpha), mpmath.mpf(x)
        y = x**-a
        surv = xf = mpmath.mpf(0)
        for k in itertools.count(1):
            mag = mpmath.exp(mpmath.loggamma(a * k + 1) - mpmath.loggamma(k + 1)) * y**k
            term = -((-1) ** k) * mpmath.sin(mpmath.pi * a * k) * mag
            surv += term / (a * k)
            xf += term
            if mag < 1e-45:
                return 1 - surv / mpmath.pi, xf / (mpmath.pi * x)


def test_kanter_cap_raises_where_unconverged():
    with pytest.raises(PrecisionExhausted, match=r"alpha=0\.99999.*x=1\.3"):
        dm.positive_stable(0.99999).cdf(1.3)
    # alpha = 0.9999 reaches the cap too, within the cap tolerance, and keeps
    # the accuracy the README quotes for it
    xs = np.array([1.03, 1.1, 1.3, 1.6, 1.9])
    cdf, pdf = dm._positive_stable_kernel(0.9999, xs)
    for x, c, d in zip(xs, cdf, pdf):
        ref_c, ref_d = _pollard(0.9999, x)
        assert abs(c - ref_c) <= 1e-15, (x, c, ref_c)
        assert abs(d - ref_d) <= 1e-9 * ref_d, (x, d, ref_d)


def test_stable_tail_near_alpha_one():
    # references: Pollard's series summed at 50 digits
    assert math.isclose(dm.positive_stable(0.95).survival(150.0),
                        4.4338779910682435e-4, rel_tol=1e-12)
    assert abs(dm.positive_stable(0.9).cdf(1084.0) - 0.99980465541100105) <= 1e-15


# ---------------------------------------------------------------------------
# regularized incomplete Gamma kernel


def _gamma_p_ref(a, z):
    """P(a, z) at 40 digits."""
    if z == np.inf:
        return mpmath.mpf(1)
    with mpmath.workdps(40):
        return mpmath.gammainc(a, 0, z, regularized=True)


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 1.0, 1.5, 2.7, 10.3, 48.0, 61.5, 200.0, 4000.0])
def test_incomplete_gamma_matches_mpmath(a):
    zs = np.concatenate([
        np.geomspace(1e-3, 1e4, 15),
        a * (1.0 + np.array([-0.3, -0.05, -1e-3, 0.0, 1e-3, 0.05, 0.3])),
        [0.0, 5e-324, np.inf],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = dm._gamma_table([a], 1.0, zs)[0]
        q = dm._gamma_table([a], 1.0, zs, upper=True)[0]
    for z, pz, qz in zip(zs, p, q):
        ref = _gamma_p_ref(a, z)
        assert abs(pz - ref) <= 1e-14 and abs(qz - (1 - ref)) <= 1e-14, (z, pz, qz, ref)


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("f", [0.5, 1.0])
def test_gamma_table_rows_match_mpmath(f, upper):
    # one base evaluation at f and 60 rows of the shape recurrence; the
    # shapes arrive shuffled and repeated, as a series law's terms do
    shapes = f + np.arange(61.0)
    rng = np.random.default_rng(7)
    order = rng.permutation(np.concatenate([np.arange(61), np.arange(0, 61, 7)]))
    zs = np.concatenate([np.geomspace(1e-2, 200.0, 10), [0.0, 5e-324, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = dm._gamma_table(shapes[order], 1.0, zs, upper)
    for row, k in zip(table, order):
        for z, v in zip(zs, row):
            ref = _gamma_p_ref(shapes[k], z)
            assert abs(v - (1 - ref if upper else ref)) <= 1e-14, (shapes[k], z, v)


def test_gamma_rows_beyond_reach_keep_their_values():
    # rows far below every point hold the base value and rows far above the
    # value of the last row summed; neither is summed, and both must be right
    shapes = 0.5 + np.arange(0.0, 4001.0, 250.0)
    for zs in (np.array([30.0, 60.0, 100.0]), np.array([3900.0, 4000.5, 4100.0])):
        for upper in (False, True):
            table = dm._gamma_table(shapes, 1.0, zs, upper)
            for row, a in zip(table, shapes):
                for z, v in zip(zs, row):
                    ref = _gamma_p_ref(a, z)
                    assert abs(v - (1 - ref if upper else ref)) <= 1e-14, (a, z, v)


# ---------------------------------------------------------------------------
# BLM


def test_blm_survival_diagonal_branches_agree():
    spec = dm.BlmSpec(dm.exponential(2.0), dm.exponential(2.0), 3.0)
    ts = RNG.uniform(0.0, 5.0, size=1000)
    lower = np.exp(-3.0 * ts) * spec.F.survival(np.zeros_like(ts))
    upper = np.exp(-3.0 * ts) * spec.G.survival(np.zeros_like(ts))
    vals = dm.blm_survival(spec, ts, ts)
    assert np.array_equal(lower, upper)
    assert np.array_equal(vals, lower)


def test_blm_survival_offdiagonal_value():
    # theta=4 keeps p(theta)=0 admissible; survival at (2,1) is e^{-4} e^{-2}
    spec = dm.BlmSpec(dm.exponential(2.0), dm.exponential(2.0), 4.0)
    assert math.isclose(
        dm.blm_survival(spec, 2.0, 1.0), math.exp(-4.0) * math.exp(-2.0), rel_tol=1e-14
    )


def test_blm_singular_mass_values():
    assert math.isclose(
        dm.BlmSpec(dm.exponential(2.0), dm.exponential(2.0), 4.0).singular_mass, 0.0,
        abs_tol=1e-12,
    )
    assert math.isclose(
        dm.BlmSpec(dm.exponential(2.0), dm.exponential(2.0), 3.0).singular_mass,
        1.0 / 3.0, rel_tol=1e-12,
    )


def test_blm_rejects_inadmissible_theta():
    # p(1) = 3 > 1: the quoted formula value is valid but not a probability
    with pytest.raises(ParameterOutOfRange, match="p\\(theta\\)"):
        dm.BlmSpec(dm.exponential(2.0), dm.exponential(2.0), 1.0)


def test_blm_requires_positive_support():
    withatom = dm.mixture([(0.5, dm.point_mass(0.0)), (0.5, dm.exponential(1.0))])
    with pytest.raises(ParameterOutOfRange, match="positive support"):
        dm.BlmSpec(withatom, dm.exponential(1.0), 1.0)


def test_blm_diagonal_mass_monte_carlo():
    # BLM(Exp(a), Exp(a'), theta) == Marshall-Olkin(theta-a', theta-a, a+a'-theta),
    # which has the classic min-of-exponentials sampler; diagonal hits have
    # probability lambda12/lambda = p(theta).
    a = ap = 2.0
    theta = 3.0
    spec = dm.BlmSpec(dm.exponential(a), dm.exponential(ap), theta)
    l1, l2, l12 = theta - ap, theta - a, a + ap - theta
    rng = np.random.default_rng(7)
    n = 200_000
    e1 = rng.exponential(1.0 / l1, n)
    e2 = rng.exponential(1.0 / l2, n)
    e12 = rng.exponential(1.0 / l12, n)
    x = np.minimum(e1, e12)
    y = np.minimum(e2, e12)
    frac = np.mean(x == y)
    assert abs(frac - spec.singular_mass) < 0.01
    # simulated joint survival agrees with the BLM formula at a few points
    for (px, py) in [(0.5, 0.2), (1.0, 1.0), (0.3, 1.2)]:
        emp = np.mean((x > px) & (y > py))
        assert abs(emp - dm.blm_survival(spec, px, py)) < 0.01


# ---------------------------------------------------------------------------
# joint invariants


def inclusion_exclusion_survival(joint, x):
    """Joint survival from the CDF and all lower-order marginal CDFs: the
    alternating sum over marginal orders, a reference for `survival` that
    reads only CDFs."""
    n = joint.dim
    total = 1.0
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            if k == n:
                h = joint.cdf(*x)
            else:
                marg = joint.marginal(subset)
                pts = [x[i] for i in subset]
                h = marg.cdf(*pts) if k > 1 else marg.cdf(pts[0])
            total += (-1.0) ** k * float(h)
    return total


def test_inclusion_exclusion_trivial_examples():
    pr2 = dm.ProductJoint([dm.exponential(1.0), dm.exponential(1.0)])
    assert math.isclose(inclusion_exclusion_survival(pr2, (0.0, 0.0)), 1.0, abs_tol=1e-14)
    pr3 = dm.ProductJoint([dm.exponential(1.0)] * 3)
    assert math.isclose(
        inclusion_exclusion_survival(pr3, (1.0, 1.0, 1.0)), math.exp(-3.0), rel_tol=1e-12
    )
    mo = dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 1, "lambda12": 1})
    assert math.isclose(
        inclusion_exclusion_survival(mo, (1.0, 1.0)), math.exp(-3.0), rel_tol=1e-12
    )


def test_inclusion_exclusion_matches_direct_survival_on_grids():
    rng = np.random.default_rng(31)
    for j in catalog_joint():
        axes = [np.sort(rng.uniform(0.05, 4.0, size=5)) for _ in range(j.dim)]
        worst = 0.0
        for pt in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, j.dim):
            gap = abs(inclusion_exclusion_survival(j, tuple(pt)) - float(j.survival(*pt)))
            worst = max(worst, gap)
        assert worst <= 1e-10, f"{j.kind}: worst gap {worst}"


def test_joint_cdf_monotone_and_saturates():
    for j in catalog_joint():
        pts = RNG.uniform(0.1, 3.0, size=(40, j.dim))
        for pt in pts:
            base = float(j.cdf(*pt))
            assert -1e-12 <= base <= 1 + 1e-12
            for ax in range(j.dim):
                bumped = pt.copy()
                bumped[ax] += 0.5
                assert float(j.cdf(*bumped)) >= base - 1e-12
        far = [60.0] * j.dim
        assert float(j.cdf(*far)) >= 0.999


def test_trivariate_gamma_pointwise_matches_row_sums(monkeypatch):
    # the generic sum of products, split into many term blocks, against the
    # double series summed row by row
    from scipy.special import gammainc, gammaincc

    tg = dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5})
    alpha = tg.params["alpha"]
    # regroup the flat terms into rows: row n holds c_{n, ell}, ell = 0..n
    n_of = np.rint(tg.shapes[1] - alpha).astype(int)
    rows = [tg.coeffs[n_of == n] for n in range(n_of.max() + 1)]
    for n, row in enumerate(rows):
        assert np.array_equal(tg.shapes[0][n_of == n], alpha + np.arange(n + 1))
    x, y, z = RNG.uniform(0.05, 6.0, size=(3, 200))
    monkeypatch.setattr(dm, "_TERM_BLOCK", 1000)
    for upper, fn in ((False, gammainc), (True, gammaincc)):
        ref = sum(
            fn(alpha + n, y) * sum(
                c * fn(alpha + ell, x) * fn(alpha + n - ell, z)
                for ell, c in enumerate(row)
            )
            for n, row in enumerate(rows)
        )
        got = tg.survival(x, y, z) if upper else tg.cdf(x, y, z)
        assert np.max(np.abs(got - ref)) <= 1e-14


def test_product_cdf_is_exact_product():
    f1, f2 = dm.exponential(1.0), dm.gamma_dist(2.0, 2.0)
    j = dm.ProductJoint([f1, f2])
    xs = RNG.uniform(0.0, 5.0, size=(50, 2))
    for x, y in xs:
        assert float(j.cdf(x, y)) == float(f1.cdf(x)) * float(f2.cdf(y))


def test_marginals_of_every_order():
    tg = dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5})
    for idx in [(0,), (1,), (2,)]:
        m = tg.marginal(idx)
        assert isinstance(m, dm.Distribution1D)
        assert math.isclose(m.cdf(100.0), 1.0, abs_tol=1e-9)
    for idx in [(0, 1), (0, 2), (1, 2)]:
        m2 = tg.marginal(idx)
        assert m2.dim == 2
        # pair marginal must agree with the full cdf at a large third coordinate
        pt = (0.8, 1.3)
        full = {
            (0, 1): tg.cdf(pt[0], pt[1], 200.0),
            (0, 2): tg.cdf(pt[0], 200.0, pt[1]),
            (1, 2): tg.cdf(200.0, pt[0], pt[1]),
        }[idx]
        assert abs(float(m2.cdf(*pt)) - float(full)) <= 1e-9
        # a marginal has no catalog spec: serialising it is a value error
        with pytest.raises(ValueError):
            m2.spec_dict()
    for bad in [(0, 1, 2, 3), (0, 1, 2), (1, 0), (0, 0), (3,), ()]:
        with pytest.raises(MissingMarginal):
            tg.marginal(bad)


def test_freund_marginal_consistency():
    fr = dm.make_catalog("freund", {"alpha": 1, "alpha_prime": 2, "beta": 1.5, "beta_prime": 0.7})
    mx = fr.marginal((0,))
    my = fr.marginal((1,))
    for x in (0.3, 1.0, 2.5):
        assert abs(float(mx.cdf(x)) - float(fr.cdf(x, 400.0))) <= 1e-9
        assert abs(float(my.cdf(x)) - float(fr.cdf(400.0, x))) <= 1e-9


def test_freund_cdf_matches_density_integral():
    # the density jumps across the diagonal, so integrate y with a
    # breakpoint at y=x inside an outer (non-vectorized) x integration
    fr = dm.make_catalog("freund", {"alpha": 1, "alpha_prime": 2, "beta": 1, "beta_prime": 2})
    from stieltjes._quadrature import adaptive_quad

    for (X, Y) in [(0.7, 1.2), (1.5, 0.4)]:
        def inner(x):
            return adaptive_quad(
                lambda y, xv=x: np.asarray(fr.density(xv, y)),
                0.0, Y, 1e-12, breakpoints=[x],
            ).value

        def outer(xs):
            return np.array([inner(float(x)) for x in np.atleast_1d(xs)])

        res = adaptive_quad(outer, 0.0, X, 1e-10, breakpoints=[Y])
        assert abs(res.value - float(fr.cdf(X, Y))) <= 1e-8


def test_gamma_series_tail_rejection():
    with pytest.raises(ParameterOutOfRange, match="series"):
        dm.moran_downton(0.99999)


def test_moran_downton_marginal_is_exponential():
    marg, expo = dm.moran_downton(0.6).marginal((1,)), dm.exponential(1.0)
    x = np.array([0.0, 1e-9, 0.3, 1.0, 7.5, 40.0])
    assert np.array_equal(marg.cdf(x), expo.cdf(x))
    assert np.array_equal(marg.density(x), expo.density(x))
    assert marg.density(0.0) == 1.0
    for s in (0.1, 1.0, 13.0):
        assert marg.closed_ls(s) == expo.closed_ls(s)
    assert marg.density_at_zero == expo.density_at_zero == 1.0
    # the bivariate Gamma at q = 1 has Gamma(1 - r, 1) marginals
    assert dm.bivariate_gamma(0.6, 1.0).marginal((0,)).density(0.0) == 1.0 - 0.6


def test_spec_dict_round_trip_kinds():
    from stieltjes import specio

    j = dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 2, "lambda12": 0.5})
    again = specio.spec_from_dict(j.spec_dict())
    pts = RNG.uniform(0.1, 4.0, size=(20, 2))
    for pt in pts:
        assert float(j.cdf(*pt)) == float(again.cdf(*pt))
