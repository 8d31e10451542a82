"""Transform fingerprints on divergent grids.

A fingerprint is the tensor of Laplace-Stieltjes transform values of a law on
a finite prefix of per-axis grids whose reciprocal sums diverge (primes by
default).  The full countable grid determines the law uniquely; a finite
prefix therefore supports an honest comparison verdict: "indistinguishable"
at a tolerance, never "equal".  The collision experiment drives that verdict
over randomly generated mixture pairs that are either identical by
construction or separated by at least 0.01 in total variation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dist_model as dm
from .errors import GridDimensionMismatch, GridMismatch, ParameterOutOfRange
from .muntz import MuntzSequence
from .transforms import canonical_route, ls_carson_grid, resolve_route, transform_value


@dataclass
class Fingerprint:
    """Tensor of transform values on per-axis grid prefixes."""

    dim: int
    grids: tuple[tuple[float, ...], ...]
    kinds: tuple[str, ...]
    values: np.ndarray
    est_errors: np.ndarray
    route: str
    tol: float

    def to_dict(self) -> dict:
        """Serialization with stable field order; row-major value array."""
        return {
            "dim": self.dim,
            "kinds": list(self.kinds),
            "grids": [list(g) for g in self.grids],
            "route": self.route,
            "tol": self.tol,
            "shape": list(self.values.shape),
            "values": [float(v) for v in self.values.ravel(order="C")],
            "est_errors": [float(e) for e in self.est_errors.ravel(order="C")],
        }


def _normalize_grids(grids, prefix_lens, dim):
    if isinstance(grids, MuntzSequence):
        grids = [grids]
    elif len(grids) > 0 and all(np.isscalar(v) for v in grids):
        grids = [grids]  # one flat list of numbers means a single axis
    if prefix_lens is None:
        prefix_lens = [None] * len(grids)
    elif np.isscalar(prefix_lens):
        prefix_lens = [int(prefix_lens)] * len(grids)
    if len(grids) != dim:
        raise GridDimensionMismatch(
            f"{len(grids)} grids supplied for a {dim}-dimensional law"
        )
    if len(prefix_lens) != len(grids):
        raise GridDimensionMismatch("one prefix length per grid is required")
    out_vals, out_kinds = [], []
    for g, ln in zip(grids, prefix_lens):
        if isinstance(g, MuntzSequence):
            if ln is None:
                raise ParameterOutOfRange("a MuntzSequence grid needs a prefix length")
            out_vals.append(tuple(g.prefix(ln)))
            out_kinds.append(g.kind)
        else:
            vals = [float(v) for v in (g if ln is None else list(g)[:ln])]
            if any(b <= a for a, b in zip(vals, vals[1:])) or any(
                v <= 0 for v in vals
            ):
                raise ParameterOutOfRange(
                    "grid values must be positive and strictly increasing"
                )
            out_vals.append(tuple(vals))
            out_kinds.append("custom")
        if len(out_vals[-1]) < 1:
            raise ParameterOutOfRange("prefix length must be >= 1")
    return tuple(out_vals), tuple(out_kinds)


def compute_fingerprint(
    dist,
    grids,
    prefix_lens=None,
    route: str = "auto",
    tol: float = 1e-10,
) -> Fingerprint:
    """Evaluate the transform at every grid combination.

    `grids` is one MuntzSequence or explicit value sequence per axis;
    `prefix_lens` the per-axis truncation (scalar broadcasts).  Deterministic
    given route and tolerances.  When every cell of a joint law takes the
    Carson route, all cells are integrated on one shared grid; each keeps
    its own error bound.
    """
    dim = dist.dim
    route = canonical_route(route)
    grid_vals, kinds = _normalize_grids(grids, prefix_lens, dim)
    shape = tuple(len(g) for g in grid_vals)
    cells = [[grid_vals[ax][i] for ax, i in enumerate(idx)] for idx in np.ndindex(shape)]
    if isinstance(dist, dm.JointDist) and all(
        resolve_route(dist, svec, route) == "carson" for svec in cells
    ):
        # one shared grid and one CDF pass for every cell
        values, errors, _ = ls_carson_grid(dist, grid_vals, tol)
    else:
        found = [transform_value(dist, svec, route=route, tol=tol) for svec in cells]
        values = np.reshape([tv.value for tv in found], shape)
        errors = np.reshape([tv.est_error for tv in found], shape)
    return Fingerprint(
        dim=dim,
        grids=grid_vals,
        kinds=kinds,
        values=values,
        est_errors=errors,
        route=route,
        tol=tol,
    )


@dataclass
class ComparisonReport:
    max_delta: float
    argmax: tuple
    distinct: bool
    tol: float
    note: str

    @property
    def verdict(self) -> str:
        return "distinct" if self.distinct else "indistinguishable"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_delta": self.max_delta,
            "argmax": list(self.argmax),
            "tol": self.tol,
            "note": self.note,
        }


_FINITE_NOTE = (
    "indistinguishable on this finite grid prefix at the stated tolerance; "
    "equality would require the full countable grid"
)


def compare(fp1: Fingerprint, fp2: Fingerprint, tol: float = 1e-9) -> ComparisonReport:
    """Compare two fingerprints on identical grids.

    Distinct iff some entry differs by more than tol plus both entries'
    estimated errors; otherwise indistinguishable (explicitly weaker than
    equality).
    """
    if fp1.grids != fp2.grids or fp1.values.shape != fp2.values.shape:
        raise GridMismatch("fingerprints were computed on different grids")
    delta = np.abs(fp1.values - fp2.values)
    allowed = tol + fp1.est_errors + fp2.est_errors
    distinct = bool(np.any(delta > allowed))
    idx = np.unravel_index(int(np.argmax(delta)), delta.shape)
    note = "separated beyond tolerance plus estimated errors" if distinct else _FINITE_NOTE
    return ComparisonReport(
        max_delta=float(delta[idx]),
        argmax=tuple(int(i) for i in idx),
        distinct=distinct,
        tol=tol,
        note=note,
    )


# ---------------------------------------------------------------------------
# Collision experiment


_ATOM_GRID = (0.0, 0.5, 1.0, 2.0)


def _random_mixture_spec(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 5))
    w = rng.dirichlet(np.ones(n))
    w = np.maximum(w, 5e-3)
    w = w / w.sum()
    comps = []
    for i in range(n):
        u = rng.random()
        if u < 0.3:
            loc = float(rng.choice(_ATOM_GRID))
            comps.append(("atom", float(w[i]), loc))
        elif u < 0.75:
            rate = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            comps.append(("exp", float(w[i]), rate))
        else:
            rate = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            shape = float(rng.integers(1, 4))
            comps.append(("gamma", float(w[i]), rate, shape))
    return tuple(comps)


def _build_mixture(spec: tuple) -> dm.Distribution1D:
    parts = []
    for comp in spec:
        if comp[0] == "atom":
            parts.append((comp[1], dm.point_mass(comp[2])))
        elif comp[0] == "exp":
            parts.append((comp[1], dm.exponential(comp[2])))
        else:
            parts.append((comp[1], dm.gamma_dist(comp[2], comp[3])))
    total = sum(w for w, _ in parts)
    parts = [(w / total, d) for w, d in parts]
    return dm.mixture(parts)


def kolmogorov_gap(d1: dm.Distribution1D, d2: dm.Distribution1D) -> float:
    """max |F1 - F2| over a dense grid plus both atom sets (a TV lower bound)."""
    pts = set(np.linspace(0.0, 40.0, 3001))
    for d in (d1, d2):
        for loc, _ in d.atoms:
            pts.update((loc, loc - 1e-9, loc + 1e-9))
    xs = np.array(sorted(p for p in pts if p >= 0.0))
    return float(np.max(np.abs(d1.cdf(xs) - d2.cdf(xs))))


def _perturb_spec(rng: np.random.Generator, spec: tuple) -> tuple:
    spec = list(spec)
    for _ in range(40):
        kind = rng.integers(0, 3)
        out = [list(c) for c in spec]
        if kind == 0:
            # scale a rate
            idx = [i for i, c in enumerate(out) if c[0] != "atom"]
            if idx:
                i = int(rng.choice(idx))
                out[i][2] *= float(np.exp(rng.uniform(0.25, 0.7) * rng.choice([-1, 1])))
            else:
                continue
        elif kind == 1:
            # move an atom to a different grid location
            idx = [i for i, c in enumerate(out) if c[0] == "atom"]
            if idx:
                i = int(rng.choice(idx))
                choices = [g for g in _ATOM_GRID if g != out[i][2]]
                out[i][2] = float(rng.choice(choices))
            else:
                continue
        else:
            # transfer weight between two components
            if len(out) >= 2:
                i, j = rng.choice(len(out), size=2, replace=False)
                delta = 0.5 * min(out[i][1], 0.3)
                out[i][1] -= delta
                out[j][1] += delta
                if out[i][1] < 5e-3:
                    continue
            else:
                continue
        cand = tuple(tuple(c) for c in out)
        gap = kolmogorov_gap(_build_mixture(spec), _build_mixture(cand))
        if gap >= 0.01:
            return cand
    raise RuntimeError("could not build a separated perturbation")  # pragma: no cover


@dataclass
class ExperimentReport:
    trials: int
    false_merges: int
    false_splits: int
    min_distinct_margin: float
    max_equal_delta: float
    grid_kind: str
    prefix_len: int
    tol: float
    failures: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.false_merges == 0 and self.false_splits == 0


def collision_experiment(
    seed: int,
    trials: int,
    grid: MuntzSequence | None = None,
    prefix_len: int = 8,
    tol: float = 1e-9,
) -> ExperimentReport:
    """Seeded fingerprint separation experiment over random mixtures.

    Each trial builds a mixture A, an independently reconstructed copy of A,
    and a perturbation B whose Kolmogorov distance from A is at least 0.01
    (hence total variation >= 0.01).  Copies must compare indistinguishable,
    perturbed pairs distinct; failures are counted, not raised.
    """
    if trials < 0:
        raise ParameterOutOfRange("trials must be >= 0")
    grid = grid or MuntzSequence.primes()
    report = ExperimentReport(
        trials=trials, false_merges=0, false_splits=0,
        min_distinct_margin=np.inf, max_equal_delta=0.0,
        grid_kind=grid.kind, prefix_len=prefix_len, tol=tol,
    )
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        spec_a = _random_mixture_spec(rng)
        spec_b = _perturb_spec(rng, spec_a)
        fa = compute_fingerprint(_build_mixture(spec_a), [grid], prefix_len)
        fa2 = compute_fingerprint(_build_mixture(spec_a), [grid], prefix_len)
        fb = compute_fingerprint(_build_mixture(spec_b), [grid], prefix_len)

        same = compare(fa, fa2, tol)
        if same.distinct:
            report.false_splits += 1
            report.failures.append((t, "false-split", same.max_delta))
        report.max_equal_delta = max(report.max_equal_delta, same.max_delta)

        diff = compare(fa, fb, tol)
        if not diff.distinct:
            report.false_merges += 1
            report.failures.append((t, "false-merge", diff.max_delta))
        else:
            report.min_distinct_margin = min(
                report.min_distinct_margin, diff.max_delta - tol
            )
    return report
