"""The Carson route over a Cartesian batch of s-vectors on one shared grid."""

import json

import numpy as np
import pytest

import stieltjes as sj
from stieltjes import dist_model as dm
from stieltjes import specio
from stieltjes import transforms as tr
from stieltjes.errors import ParameterOutOfRange

PRIMES = sj.MuntzSequence.primes()
INTEGERS = sj.MuntzSequence.integers()


def _laws_2d():
    rng = np.random.default_rng(3)
    u = rng.uniform
    out = []
    for _ in range(2):
        out += [
            ("marshall-olkin", {"lambda1": u(0.5, 2), "lambda2": u(0.5, 2),
                                "lambda12": u(0.3, 1.5)}),
            ("freund", {"alpha": u(0.5, 2), "alpha_prime": u(0.5, 2.5),
                        "beta": u(0.5, 2), "beta_prime": u(0.5, 2.5)}),
            ("moran-downton", {"r": u(0.1, 0.8)}),
            ("bivariate-gamma", {"r": u(0.1, 0.8), "q": u(0.7, 2.5)}),
        ]
        f, g = u(1.0, 3.0), u(1.0, 3.0)
        out.append(("blm", {"theta": (f + g) / u(1.1, 1.7), "f_lambda": f, "g_lambda": g}))
    return out


def _assert_cells_within_bound(law, fp):
    for idx in np.ndindex(fp.values.shape):
        s = [fp.grids[ax][i] for ax, i in enumerate(idx)]
        closed = sj.closed_form_ls(law, s)
        gap = abs(fp.values[idx] - closed.value)
        assert gap <= fp.est_errors[idx] + closed.est_error, (law.kind, s, gap)


@pytest.mark.parametrize("kind,params", _laws_2d())
@pytest.mark.parametrize("grid,length", [(PRIMES, 4), (INTEGERS, 3)])
def test_batched_cells_keep_their_bounds(kind, params, grid, length):
    law = dm.make_catalog(kind, params)
    fp = sj.compute_fingerprint(law, [grid, grid], length, route="carson", tol=1e-8)
    _assert_cells_within_bound(law, fp)


def test_batched_trivariate_cells_keep_their_bounds():
    law = dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5})
    fp = sj.compute_fingerprint(law, [PRIMES] * 3, 2, route="carson", tol=1e-6)
    _assert_cells_within_bound(law, fp)


# transform_value(route="carson") at the commit before batching, as
# (kind, params, s, tol, value, est_error, evaluations); since then the
# Moran-Downton series has one more term (16170 evaluations, not 15840), the
# trivariate est_error adds the series tail, 1.42e-14, and each axis adds its
# panels' Kronrod-Gauss differences in absolute value, which raised the
# Marshall-Olkin, Freund and BLM est_errors by 3.8e-13, 3.4e-13 and 1.4e-12
_BEFORE_BATCHING = [
    ("marshall-olkin", {"lambda1": 1.0, "lambda2": 2.0, "lambda12": 0.5}, (1.3, 2.1), 1e-8,
     0.3065082362252726, 3.2105234819346927e-09, 48600),
    ("freund", {"alpha": 1.0, "alpha_prime": 2.0, "beta": 1.5, "beta_prime": 0.7},
     (1.3, 2.1), 1e-8, 0.19645608604882236, 1.273623225905933e-09, 70200),
    ("blm", {"theta": 3.0, "f_lambda": 2.0, "g_lambda": 2.0}, (1.3, 2.1), 1e-8,
     0.3271664815872128, 3.678051685797503e-09, 48600),
    ("moran-downton", {"r": 0.5}, (1.3, 2.1), 1e-8,
     0.17346053725431504, 1.3366642902450958e-09, 16170),
    ("bivariate-gamma", {"r": 0.4, "q": 1.5}, (1.3, 2.1), 1e-8,
     0.02661976861962375, 3.052035015933104e-09, 12870),
    ("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5}, (1.3, 2.1, 0.9), 1e-6,
     0.040009601631318, 6.1965256054896165e-09, 535095),
]


@pytest.mark.parametrize("kind,params,s,tol,value,est_error,evaluations", _BEFORE_BATCHING)
def test_single_s_is_the_batch_of_one(kind, params, s, tol, value, est_error, evaluations):
    tv = sj.transform_value(dm.make_catalog(kind, params), s, route="carson", tol=tol)
    assert tv.evaluations == evaluations
    assert abs(tv.value - value) <= 1e-14
    assert abs(tv.est_error - est_error) <= 1e-14


def test_one_cdf_pass_serves_every_cell(monkeypatch):
    laws = [
        (dm.make_catalog("freund", {"alpha": 1.0, "alpha_prime": 2.0, "beta": 1.5,
                                    "beta_prime": 0.7}), 3),
        # a 1-D law batches on one axis: an atom seeds the grid beside a Gamma part
        (dm.mixture([(0.3, dm.point_mass(0.7)), (0.7, dm.gamma_dist(1.5, 0.5))]), 2),
    ]
    for law, saving in laws:
        points = []
        cdf = type(law).cdf

        def counted(self, *xs, cdf=cdf, points=points):
            points.append(np.broadcast(*xs).size)
            return cdf(self, *xs)

        monkeypatch.setattr(type(law), "cdf", counted)
        fp = sj.compute_fingerprint(law, [PRIMES] * law.dim, 3, route="carson", tol=1e-8)
        batched = sum(points)
        points.clear()
        for idx in np.ndindex(fp.values.shape):
            sj.transform_value(law, [fp.grids[ax][i] for ax, i in enumerate(idx)],
                               route="carson", tol=1e-8)
        per_cell = sum(points)
        assert 0 < saving * batched <= per_cell, law


@pytest.mark.parametrize("kind,params", _laws_2d()[:5])
def test_spec_round_trip_copy_is_indistinguishable(kind, params):
    law = dm.make_catalog(kind, params)
    copy = specio.spec_from_dict(json.loads(json.dumps(law.spec_dict())))
    fps = [sj.compute_fingerprint(d, [PRIMES, PRIMES], 3, route="carson", tol=1e-8)
           for d in (law, copy)]
    assert sj.compare(*fps, tol=1e-9).verdict == "indistinguishable"


def test_grid_matches_fingerprint_and_validates():
    law = dm.make_catalog("moran-downton", {"r": 0.5})
    values, errors, evals = tr.ls_carson_grid(law, [(2.0, 3.0), (5.0,)], tol=1e-8)
    assert values.shape == errors.shape == (2, 1) and evals > 0
    fp = sj.compute_fingerprint(law, [[2.0, 3.0], [5.0]], None, route="carson", tol=1e-8)
    assert np.array_equal(fp.values, values) and np.array_equal(fp.est_errors, errors)
    with pytest.raises(ParameterOutOfRange):
        tr.ls_carson_grid(law, [(2.0,), (-1.0,)])
    with pytest.raises(ParameterOutOfRange):
        tr.ls_carson_grid(law, [(2.0,)])
    with pytest.raises(ParameterOutOfRange):
        tr.ls_carson_grid(law, [(2.0,), ()])
