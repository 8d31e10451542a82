"""Adaptive Gauss-Kronrod quadrature on truncated domains.

One fixed panel rule everywhere: the 15-point Kronrod extension of 7-point
Gauss-Legendre, with the embedded Gauss value used for the per-panel error
estimate.  1-D integrals are refined by worst-panel bisection; multivariate
integrals use a tensor product of per-axis panel sets refined one axis at a
time, and integrands that are sums of products of per-axis factors
(RankOneSum) are contracted axis by axis without forming the grid.  A batch
of integrands that differ only by per-axis weights (WeightedBatch) shares
one grid, one evaluation of the common core per round, and one refinement
that serves every member's own tolerance.  Integrands must accept numpy
arrays.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureNonConvergence

# 15-point Kronrod nodes on [-1, 1] (positive half) and both weight sets.
# The 7 Gauss nodes sit at the odd positions of the Kronrod set.
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # ascending, len 15
W_KRONROD = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
W_GAUSS = np.zeros(15)
W_GAUSS[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])   # zero off the Gauss nodes

PANEL_SIZE = 15

# tensor grids beyond this many points are evaluated in axis-0 chunks
_CHUNK_LIMIT = 8_000_000
# tensor_quad gives up after this many refinement rounds or core values
_MAX_ROUNDS = 10
_MAX_POINTS = 2.5e8
# initial panels on an axis without exponential decay
_UNIFORM_PANELS = 8


@dataclass(frozen=True)
class QuadResult:
    value: float | np.ndarray
    error: float | np.ndarray
    evaluations: int


@dataclass(frozen=True)
class RankOneSum:
    """Tensor-grid integrand sum_t coeffs[t] * prod_i factors[i][t, k_i],
    held as its factors; factors[i] has shape (terms, len(nodes_i))."""

    coeffs: np.ndarray
    factors: Sequence[np.ndarray]

    @property
    def size(self) -> int:
        """Number of factor values held (the grid itself is never formed)."""
        return sum(f.size for f in self.factors)

    def contract_except_each(self, mats: Sequence[np.ndarray]) -> list[np.ndarray]:
        """For each axis j, the sum contracted with the rows of mats[i], shape
        (m_i, n_i), on every axis i != j: shape (m_1, ..., 1 at j, ..., m_d, n_j)."""
        dim = len(mats)
        g = [m @ f.T for f, m in zip(self.factors, mats)]  # (m_i, terms)
        g = [gi.reshape([-1 if a == i else 1 for a in range(dim)] + [gi.shape[1]])
             for i, gi in enumerate(g)]
        return [
            (self.coeffs * math.prod(g[:j] + g[j + 1:])) @ f
            for j, f in enumerate(self.factors)
        ]


@dataclass(frozen=True)
class WeightedBatch:
    """A batch of integrands on one tensor grid: member (g, k_1, ..., k_d) is
    core[g] * prod_i weights[i][k_i] along axis i.

    `core` is dense with shape (groups, n_1, ..., n_d), or a RankOneSum (one
    group); weights[i] has shape (m_i, n_i).  The batch shape is
    (groups, m_1, ..., m_d).  A factor that depends on one axis only, such as
    e^{-s x_i} for each s on that axis, costs one row per distinct value
    instead of one grid per member.
    """

    core: np.ndarray | RankOneSum
    weights: Sequence[np.ndarray]

    @property
    def groups(self) -> int:
        return 1 if isinstance(self.core, RankOneSum) else self.core.shape[0]

    @property
    def shape(self) -> tuple:
        return (self.groups, *(len(w) for w in self.weights))

    @property
    def size(self) -> int:
        return self.core.size

    def contract_except_each(self, wks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """For each axis j, u[j] of shape batch shape + (n_j,): every member
        contracted with the Kronrod weights `wks` on every axis but j."""
        mats = [w * wk for w, wk in zip(self.weights, wks)]
        dim = len(mats)
        if isinstance(self.core, RankOneSum):
            parts = [p[None] for p in self.core.contract_except_each(mats)]
        else:
            parts = [_dense_except(self.core, mats, j) for j in range(dim)]
        # each part has a unit axis for k_j, which the axis-j weights fill
        return [
            p * w.reshape([1] * (j + 1) + [len(w)] + [1] * (dim - j - 1) + [w.shape[1]])
            for j, (p, w) in enumerate(zip(parts, self.weights))
        ]


def _dense_except(core: np.ndarray, mats: Sequence[np.ndarray], keep: int) -> np.ndarray:
    """Dense core (groups, n_1, ..., n_d) contracted with mats[i] (m_i, n_i) on
    every axis i != keep: shape (groups, m_1, ..., 1 at keep, ..., m_d, n_keep)."""
    out = core
    for i, m in enumerate(mats):
        if i != keep:
            out = np.moveaxis(np.tensordot(out, m, axes=(i + 1, 1)), -1, i + 1)
    return np.expand_dims(np.moveaxis(out, keep + 1, -1), keep + 1)


def _as_batch(vals, nodes) -> WeightedBatch:
    """A plain integrand answer (dense grid or RankOneSum) as a batch of one."""
    if isinstance(vals, WeightedBatch):
        return vals
    if not isinstance(vals, RankOneSum):
        vals = np.asarray(vals, dtype=float).reshape((1, *(len(n) for n in nodes)))
    return WeightedBatch(vals, [np.ones((1, len(n))) for n in nodes])


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronrod nodes for panels [a_i, b_i]; shape (npanels, 15)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return c[:, None] + h[:, None] * NODES[None, :]


def _panel_sums(vals: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Kronrod value and |K - G| error per panel from node values."""
    h = 0.5 * (b - a)
    ik = h * (vals @ W_KRONROD)
    ig = h * (vals @ W_GAUSS)
    return ik, np.abs(ik - ig)


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    breakpoints: Sequence[float] = (),
    max_panels: int = 4096,
) -> QuadResult:
    """Integrate f over [a, b] by worst-panel-first bisection.

    `breakpoints` seeds extra panel boundaries (seams, atom locations);
    they are clipped to the open interval.  Raises QuadratureNonConvergence
    if the panel budget runs out above `tol`.
    """
    if b <= a:
        return QuadResult(0.0, 0.0, 0)
    pts = sorted({a, b, *(float(p) for p in breakpoints if a < p < b)})
    lo = np.array(pts[:-1])
    hi = np.array(pts[1:])
    vals = np.asarray(f(_panel_nodes(lo, hi).ravel()), dtype=float).reshape(-1, PANEL_SIZE)
    ik, err = _panel_sums(vals, lo, hi)
    n_evals = vals.size

    heap = []
    counter = 0
    for i in range(len(lo)):
        heapq.heappush(heap, (-err[i], counter, lo[i], hi[i], ik[i], err[i]))
        counter += 1
    total_val = float(ik.sum())
    total_err = float(err.sum())

    while total_err > tol and len(heap) < max_panels:
        neg_e, _, pa, pb, pval, perr = heapq.heappop(heap)
        if perr <= 0.0:
            heapq.heappush(heap, (neg_e, counter, pa, pb, pval, perr))
            counter += 1
            break
        mid = 0.5 * (pa + pb)
        la = np.array([pa, mid])
        lb = np.array([mid, pb])
        v = np.asarray(f(_panel_nodes(la, lb).ravel()), dtype=float).reshape(2, PANEL_SIZE)
        n_evals += v.size
        cik, cerr = _panel_sums(v, la, lb)
        total_val += float(cik.sum() - pval)
        total_err += float(cerr.sum() - perr)
        for i in range(2):
            heapq.heappush(heap, (-cerr[i], counter, la[i], lb[i], cik[i], cerr[i]))
            counter += 1

    if total_err > tol:
        raise QuadratureNonConvergence(
            f"1-D quadrature stalled at error {total_err:.3e} > tol {tol:.3e} "
            f"after {len(heap)} panels"
        )
    return QuadResult(total_val, total_err, n_evals)


# ---------------------------------------------------------------------------
# Tensorized quadrature


@dataclass
class AxisSpec:
    """One axis of a tensor-product integration domain [0, length].

    `rate` is the exponential decay rate of the integrand along this axis;
    panel widths are graded to roughly constant rate*width.  rate=None means
    no decay (uniform panels).
    """

    length: float
    rate: float | None = None


def _axis_breaks(spec: AxisSpec) -> list[float]:
    T = spec.length
    if spec.rate is None or spec.rate <= 0:
        pts = list(np.linspace(0.0, T, _UNIFORM_PANELS + 1))
    else:
        unit = 1.0 / spec.rate
        pts = [0.0]
        # geometric ramp toward zero, then capped-width march to T
        for w in (unit / 8, unit / 4, unit / 2, unit):
            if w < T:
                pts.append(w)
        x = pts[-1]
        step = 3.0 * unit
        while x + step < T:
            x += step
            pts.append(x)
        pts.append(T)
    return sorted(set(pts))


def _split_panels(breaks: list[float], panel_errs: np.ndarray) -> list[float]:
    """Split the panels carrying most of the error.

    The panel touching 0 splits into a geometric burst (corner singularities
    need depth, not uniform subdivision); others bisect.
    """
    thresh = 0.25 * float(panel_errs.max())
    out = []
    for p, (a, b) in enumerate(zip(breaks[:-1], breaks[1:])):
        out.append(a)
        if panel_errs[p] >= thresh:
            if a == 0.0:
                out.extend(a + (b - a) * 2.0**-m for m in range(7, 0, -1))
            else:
                out.append(0.5 * (a + b))
    out.append(breaks[-1])
    return out


def _axis_arrays(breaks: list[float]):
    lo = np.array(breaks[:-1])
    hi = np.array(breaks[1:])
    h = 0.5 * (hi - lo)
    nodes = _panel_nodes(lo, hi).ravel()
    wk = (h[:, None] * W_KRONROD[None, :]).ravel()
    wg = (h[:, None] * W_GAUSS[None, :]).ravel()
    return nodes, wk, wg


def tensor_quad(
    tensor_eval: Callable[[Sequence[np.ndarray]], np.ndarray | RankOneSum | WeightedBatch],
    axes: Sequence[AxisSpec],
    tol,
) -> QuadResult:
    """Tensor-product Kronrod quadrature with per-axis panel refinement, for
    a batch of integrands that share one grid.

    `tensor_eval` receives one 1-D node array per axis and must return the
    integrand on the full tensor grid, shape (len(n_1), ..., len(n_d)), or
    the same integrand as a RankOneSum, which is contracted axis by axis
    without forming the grid; either is a batch of one.  A WeightedBatch
    answers for several integrands at once; `tol` then holds one tolerance
    per member, in an array of the batch shape, and value and error come
    back in the shape of `tol`.  `evaluations` counts the core values
    computed (grid values or RankOneSum factor values); when the first grid
    is too large to form whole, an uncounted one-point call first tells
    which form the integrand takes.
    Each member's error estimate swaps the embedded Gauss weights onto one
    axis at a time; the sum over axes is its reported error, and rounds go
    on until every member meets its own tolerance.  Refinement attributes
    each axis error to its panels and splits only the offending ones, so
    corner singularities deepen locally instead of doubling whole axes: on
    each axis, the panels that carry at least 1/4 of the worst
    tolerance-normalised panel error among the members not yet converged
    whose error on that axis exceeds tol/(2 dim).
    """
    breaks = [_axis_breaks(ax) for ax in axes]
    form = None  # the integrand's last answer: its form and group count
    n_evals = 0
    dim = len(axes)

    for round_no in range(_MAX_ROUNDS):
        per_axis = [_axis_arrays(b) for b in breaks]
        nodes = [p[0] for p in per_axis]
        wks = [p[1] for p in per_axis]
        dws = [p[1] - p[2] for p in per_axis]
        lens = [len(n) for n in nodes]
        if round_no == 0 and math.prod(lens) * np.size(tol) > _CHUNK_LIMIT:
            # a dense grid this large is sliced, a RankOneSum is not: a
            # one-point call tells which this integrand is
            one = [n[:1] for n in nodes]
            form = _as_batch(tensor_eval(one), one)
        rank_one = form is not None and isinstance(form.core, RankOneSum)
        if rank_one:
            npts = len(form.core.coeffs) * sum(lens)
        else:
            npts = (1 if form is None else form.groups) * math.prod(lens)
        if n_evals + npts > _MAX_POINTS:
            raise QuadratureNonConvergence(
                f"tensor quadrature budget exceeded ({n_evals + npts:.2e} points)"
            )

        # u[j][b] = member b contracted with Kronrod weights on every axis
        # except j, leaving a vector over axis-j nodes; a dense core too
        # large to hold is evaluated in axis-0 slices
        rows = lens[0]
        if not rank_one and npts > _CHUNK_LIMIT:
            rows = max(1, int(_CHUNK_LIMIT // max(1, npts // lens[0])))
        u = None
        for start in range(0, lens[0], rows):
            sl = slice(start, start + rows)
            part = [nodes[0][sl]] + nodes[1:]
            form = _as_batch(tensor_eval(part), part)
            n_evals += form.size
            pu = form.contract_except_each([wks[0][sl]] + wks[1:])
            if u is None:
                u = [np.zeros((math.prod(form.shape), n)) for n in lens]
            u[0][:, sl] = pu[0].reshape(-1, pu[0].shape[-1])
            for j in range(1, dim):
                u[j] += pu[j].reshape(u[j].shape)

        tols = np.reshape(tol, len(u[0]))
        ik = u[0] @ wks[0]
        errs = [np.abs(u[j] @ dws[j]) for j in range(dim)]
        err = sum(errs)
        if np.all(err <= tols):
            return QuadResult(ik.reshape(np.shape(tol))[()],
                              err.reshape(np.shape(tol))[()], n_evals)

        # err > tol puts some errs[j] above tol/dim, so at least one axis splits
        active = err > tols
        for j in range(dim):
            members = active & (errs[j] > tols / (2 * dim))
            if not members.any():
                continue
            detail = (u[j][members] * dws[j]).reshape(int(members.sum()), -1, PANEL_SIZE)
            # scaled to the tightest tolerance, so one member keeps its raw errors
            panel_errs = np.abs(detail.sum(axis=2)) * (tols.min() / tols[members])[:, None]
            breaks[j] = _split_panels(breaks[j], panel_errs.max(axis=0))

    worst = int(np.argmax(err / tols))
    raise QuadratureNonConvergence(
        f"tensor quadrature stalled at error {err[worst]:.3e} > tol {tols[worst]:.3e}"
    )
