import math

import numpy as np
import pytest

from stieltjes._quadrature import AxisSpec, adaptive_quad, tensor_quad
from stieltjes.errors import QuadratureNonConvergence


def test_polynomial_exact():
    res = adaptive_quad(lambda x: x**2, 0.0, 1.0, 1e-12)
    assert math.isclose(res.value, 1.0 / 3.0, rel_tol=0, abs_tol=1e-14)
    assert res.error <= 1e-12


def test_exponential_tail():
    res = adaptive_quad(lambda x: np.exp(-x), 0.0, 60.0, 1e-12)
    assert math.isclose(res.value, 1.0, rel_tol=0, abs_tol=1e-12)


def test_error_estimate_is_honest():
    # oscillatory integrand: reported error must dominate the true error
    true = (1 - math.cos(40.0)) / 40.0 * 0 + (math.sin(40.0)) / 40.0  # of cos(40x) on [0,1]
    res = adaptive_quad(lambda x: np.cos(40.0 * x), 0.0, 1.0, 1e-11)
    assert abs(res.value - math.sin(40.0) / 40.0) <= max(res.error, 1e-11)


def test_breakpoints_handle_steps():
    # step function: exact once the jump is a panel boundary
    f = lambda x: np.where(x < 0.3, 1.0, 2.0)
    res = adaptive_quad(f, 0.0, 1.0, 1e-12, breakpoints=[0.3])
    assert math.isclose(res.value, 0.3 + 1.4, abs_tol=1e-13)


def test_integrable_singularity():
    res = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 1e-30, 1.0, 1e-9,
                        breakpoints=[2.0**-k for k in range(1, 40)])
    assert math.isclose(res.value, 2.0, abs_tol=1e-7)


def test_nonconvergence_raises():
    with pytest.raises(QuadratureNonConvergence):
        adaptive_quad(lambda x: np.cos(5000.0 * x), 0.0, 1.0, 1e-14, max_panels=8)


def test_tensor_product_exponentials():
    axes = [AxisSpec(length=40.0, rate=1.0), AxisSpec(length=20.0, rate=2.0)]

    def f(nodes):
        x, y = nodes
        return np.exp(-x)[:, None] * np.exp(-2.0 * y)[None, :]

    res = tensor_quad(f, axes, 1e-10)
    assert math.isclose(res.value, 0.5, abs_tol=1e-10)
    assert res.error <= 1e-10


def test_tensor_three_axes():
    axes = [AxisSpec(length=30.0, rate=1.0)] * 3

    def f(nodes):
        x, y, z = nodes
        return (
            np.exp(-x)[:, None, None]
            * np.exp(-y)[None, :, None]
            * np.exp(-z)[None, None, :]
        )

    res = tensor_quad(f, axes, 1e-9)
    assert math.isclose(res.value, 1.0, abs_tol=1e-9)


def test_tensor_chunked_path(monkeypatch):
    import stieltjes._quadrature as q

    def f(nodes):
        x, y, z = nodes
        return (
            np.exp(-x)[:, None, None]
            * np.exp(-y)[None, :, None]
            * np.exp(-z)[None, None, :]
        )

    grids = []

    def f_terms(nodes):
        grids.append(math.prod(len(n) for n in nodes))
        return q.RankOneSum(np.ones(1), [np.exp(-x)[None] for x in nodes])

    axes = [AxisSpec(length=30.0, rate=1.0)] * 3
    full = tensor_quad(f, axes, 1e-9)
    full_terms = tensor_quad(f_terms, axes, 1e-9)
    monkeypatch.setattr(q, "_CHUNK_LIMIT", 1000)  # force axis-0 chunking
    res = q.tensor_quad(f, axes, 1e-9)
    assert math.isclose(res.value, full.value, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(res.value, 1.0, abs_tol=1e-9)

    # a separable integrand is contracted whole: after the one-point probe,
    # every call covers a grid beyond the chunk limit
    grids.clear()
    res_terms = q.tensor_quad(f_terms, axes, 1e-9)
    assert grids[0] == 1 and all(n > 1000 for n in grids[1:])
    assert res_terms.value == full_terms.value
    assert math.isclose(res_terms.value, full.value, rel_tol=0, abs_tol=1e-12)


def test_tensor_uniform_axis():
    axes = [AxisSpec(length=1.0, rate=None), AxisSpec(length=1.0, rate=None)]

    def f(nodes):
        x, y = nodes
        return (x**3)[:, None] * (y**2)[None, :]

    res = tensor_quad(f, axes, 1e-12)
    assert math.isclose(res.value, 1.0 / 12.0, abs_tol=1e-13)


def _exp_batch(nodes, groups=(1.0,), s=(1.0, 2.0, 3.0), t=(0.5, 4.0)):
    """Members (g, k, l): e^{-g (x + y)} e^{-s_k x} e^{-t_l y}."""
    from stieltjes._quadrature import WeightedBatch

    x, y = nodes
    core = np.exp(-np.multiply.outer(groups, np.add.outer(x, y)))
    return WeightedBatch(core, [np.exp(-np.multiply.outer(s, x)),
                                np.exp(-np.multiply.outer(t, y))])


def test_batch_members_meet_their_own_tolerances():
    groups, s, t = (0.0, 1.5), (1.0, 2.0, 3.0), (0.5, 4.0)
    L = 30.0
    axes = [AxisSpec(length=L, rate=max(s)), AxisSpec(length=L, rate=max(t))]
    tols = np.array([1e-8, 1e-11]).reshape(2, 1, 1) * np.ones((2, 3, 2))
    res = tensor_quad(lambda n: _exp_batch(n, groups, s, t), axes, tols)
    assert res.value.shape == res.error.shape == (2, 3, 2)
    for (g, k, l), v in np.ndenumerate(res.value):
        a, b = groups[g] + s[k], groups[g] + t[l]
        exact = (1 - math.exp(-a * L)) / a * (1 - math.exp(-b * L)) / b
        # 1e-14: rounding of the O(1) sums, below which |K - G| says nothing
        assert abs(v - exact) <= res.error[g, k, l] + 1e-14
        assert res.error[g, k, l] <= tols[g, k, l]
        # the same member alone, on its own grid
        alone = tensor_quad(
            lambda n: _exp_batch(n, (groups[g],), (s[k],), (t[l],)), axes,
            tols[g, k, l])
        assert abs(alone.value - v) <= alone.error + res.error[g, k, l] + 1e-14


def test_dense_batch_respects_chunk_limit(monkeypatch):
    import stieltjes._quadrature as q

    axes = [AxisSpec(length=40.0, rate=3.0), AxisSpec(length=40.0, rate=4.0)]
    tols = np.full((3, 3, 2), 1e-10)
    groups = (0.0, 0.5, 1.0)
    whole = q.tensor_quad(lambda n: _exp_batch(n, groups), axes, tols)
    sizes = []

    def f(nodes):
        out = _exp_batch(nodes, groups)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(q, "_CHUNK_LIMIT", 3000)
    res = q.tensor_quad(f, axes, tols)
    assert len(sizes) > 2 and max(sizes) <= 3000
    assert np.allclose(res.value, whole.value, rtol=0, atol=1e-14)
    assert res.evaluations == whole.evaluations
