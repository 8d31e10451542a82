"""Command-line front end.

Subcommands: transform, invert, muntz, fingerprint, compare, verify-identity,
catalog.  Results are emitted as JSON (default) or CSV with 17 significant
digits on standard output.  Exit status: 0 success, 2 usage or spec error,
3 numerical failure (with a diagnostic document).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dist_model as dm
from . import specio
from .errors import (
    DerivativeUnavailable,
    PrecisionExhausted,
    QuadratureNonConvergence,
    StieltjesError,
)
from .fingerprint import compare as fp_compare
from .fingerprint import compute_fingerprint
from .inversion import feller_cdf, oracle_from_distribution, post_widder_density
from .muntz import MuntzSequence, coefficient_triangle, sup_norm_estimate
from .transforms import transform_value, verify_identity

_NUMERICAL_FAILURES = (
    QuadratureNonConvergence,
    PrecisionExhausted,
    DerivativeUnavailable,
)

ENV_PRECISION = "STIELTJES_PRECISION_BITS"

# 'closed' names the closed-form route; transforms.canonical_route maps it
_ROUTE_CHOICES = ("auto", "direct", "carson", "survival", "closed")


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_s(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"could not parse --s value {text!r}")
    if not vals:
        raise UsageError("--s needs at least one value")
    for v in vals:
        if not v > 0:
            raise UsageError("s must be positive")
    return vals


def _grid_from_flag(name: str) -> MuntzSequence:
    if name == "primes":
        return MuntzSequence.primes()
    if name == "integers":
        return MuntzSequence.integers()
    if name.startswith("file:"):
        path = name[5:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                vals = [float(v) for v in fh.read().split()]
        except (OSError, ValueError) as exc:
            raise UsageError(f"could not read grid file {path}: {exc}")
        return MuntzSequence.custom(vals)
    raise UsageError(f"unknown grid {name!r}; use primes, integers, or file:PATH")


def _emit(doc: dict, fmt: str, csv_rows) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    else:
        for row in csv_rows:
            sys.stdout.write(",".join(str(c) for c in row) + "\n")


def _tol(args) -> float:
    if not 0 < args.tol <= 1e-2:
        raise UsageError("tol must lie in (0, 1e-2]")
    return args.tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stieltjes",
        description="Laplace-Stieltjes transforms, inversion, Muntz "
        "approximation, and distribution fingerprints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --tol only on the subcommands that read it
    def common(p, spec=True, tol=True):
        if spec:
            p.add_argument("--spec", action="append", required=True,
                           help="distribution spec: inline JSON or a file path")
        if tol:
            p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("transform", help="evaluate the transform at an s-vector")
    common(p)
    p.add_argument("--s", required=True, help="comma-separated positive reals")
    p.add_argument("--route", default="auto", choices=_ROUTE_CHOICES)

    p = sub.add_parser("invert", help="Post-Widder density and CDF series at x")
    common(p, tol=False)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="inversion order")
    p.add_argument("--precision-bits", type=int,
                   help=f"working-precision floor (default ${ENV_PRECISION}, else 128)")

    p = sub.add_parser("muntz", help="emit (n, bound, sampled_sup) rows")
    common(p, spec=False, tol=False)
    p.add_argument("--grid", default="integers")
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--q", type=float, default=0.5,
                   help="target exponent (must avoid the sequence)")

    p = sub.add_parser("fingerprint", help="transform values on a grid prefix")
    common(p)
    p.add_argument("--grid", default="primes")
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--route", default="auto", choices=_ROUTE_CHOICES)

    p = sub.add_parser("compare", help="fingerprint two specs and compare")
    common(p)
    p.add_argument("--grid", default="primes")
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--route", default="auto", choices=_ROUTE_CHOICES)

    p = sub.add_parser("verify-identity", help="cross-route identity report")
    common(p)
    p.add_argument("--s", required=True)

    p = sub.add_parser("catalog", help="list catalog kinds and constraints")
    common(p, spec=False, tol=False)

    return parser


def _precision_bits(args) -> int:
    """--precision-bits, else $STIELTJES_PRECISION_BITS, else 128; read by
    invert alone, so a bad value fails no other subcommand."""
    if args.precision_bits is not None:
        name, text = "--precision-bits", str(args.precision_bits)
    else:
        name, text = ENV_PRECISION, os.environ.get(ENV_PRECISION, "128")
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if bits < 1:
        raise UsageError(f"{name} must be a positive integer, got {text!r}")
    return bits


def _single_spec(args):
    if len(args.spec) != 1:
        raise UsageError("exactly one --spec is required here")
    return specio.parse_spec(args.spec[0])


def _cmd_transform(args) -> None:
    dist = _single_spec(args)
    svec = _parse_s(args.s)
    tv = transform_value(dist, svec, route=args.route, tol=_tol(args))
    doc = {
        "value": tv.value,
        "est_error": tv.est_error,
        "route": tv.route,
        "evaluations": tv.evaluations,
        "s": svec,
    }
    _emit(doc, args.format, csv_rows=[
        ["value", "est_error", "route", "evaluations"],
        [_fmt(tv.value), _fmt(tv.est_error), tv.route, tv.evaluations],
    ])


def _cmd_invert(args) -> None:
    dist = _single_spec(args)
    if not isinstance(dist, dm.Distribution1D):
        raise UsageError("invert needs a univariate spec")
    if args.n < 1:
        raise UsageError("n must be >= 1")
    oracle = oracle_from_distribution(dist, precision_bits=_precision_bits(args))
    diag: dict = {}
    density = post_widder_density(oracle, args.x, args.n)
    cdf = feller_cdf(oracle, args.x, args.n, diag)
    doc = {
        "x": args.x,
        "n": args.n,
        "post_widder_density": density,
        "feller_cdf": cdf,
        "feller_raw": diag.get("raw"),
        "precision_bits": diag.get("precision_bits"),
    }
    _emit(doc, args.format, csv_rows=[
        ["x", "n", "post_widder_density", "feller_cdf"],
        [_fmt(args.x), args.n, _fmt(density), _fmt(cdf)],
    ])


def _cmd_muntz(args) -> None:
    seq = _grid_from_flag(args.grid)
    prefix = seq.prefix(args.length)
    rows = []
    for approx in coefficient_triangle(args.q, prefix):
        est = sup_norm_estimate(approx, grid_size=max(100, 10 * approx.n))
        rows.append((approx.n, approx.bound, est.sup))
    doc = {
        "q": args.q,
        "grid": args.grid,
        "rows": [
            {"n": n, "bound": b, "sampled_sup": s} for n, b, s in rows
        ],
    }
    csv_rows = [["n", "bound", "sampled_sup"]]
    csv_rows += [[n, _fmt(b), _fmt(s)] for n, b, s in rows]
    _emit(doc, args.format, csv_rows=csv_rows)


def _cmd_fingerprint(args) -> None:
    dist = _single_spec(args)
    seq = _grid_from_flag(args.grid)
    fp = compute_fingerprint(
        dist, [seq] * dist.dim, args.length, route=args.route, tol=_tol(args)
    )
    doc = fp.to_dict()
    idx_cols = [f"i{k}" for k in range(fp.dim)]
    csv_rows = [idx_cols + [f"s{k}" for k in range(fp.dim)] + ["value", "est_error"]]
    for idx in np.ndindex(fp.values.shape):
        svec = [fp.grids[ax][i] for ax, i in enumerate(idx)]
        csv_rows.append(
            [*idx, *(_fmt(s) for s in svec),
             _fmt(float(fp.values[idx])), _fmt(float(fp.est_errors[idx]))]
        )
    _emit(doc, args.format, csv_rows=csv_rows)


def _cmd_compare(args) -> None:
    if len(args.spec) != 2:
        raise UsageError("compare needs exactly two --spec arguments")
    d1 = specio.parse_spec(args.spec[0])
    d2 = specio.parse_spec(args.spec[1])
    if d1.dim != d2.dim:
        raise UsageError("compared distributions must share a dimension")
    seq = _grid_from_flag(args.grid)
    f1 = compute_fingerprint(d1, [seq] * d1.dim, args.length, route=args.route, tol=_tol(args))
    f2 = compute_fingerprint(d2, [seq] * d2.dim, args.length, route=args.route, tol=_tol(args))
    rep = fp_compare(f1, f2, tol=max(_tol(args), 1e-12))
    doc = rep.as_dict()
    _emit(doc, args.format, csv_rows=[
        ["verdict", "max_delta"], [rep.verdict, _fmt(rep.max_delta)],
    ])


def _cmd_verify(args) -> None:
    dist = _single_spec(args)
    svec = _parse_s(args.s)
    rep = verify_identity(dist, svec, tol=max(_tol(args), 1e-12))
    _emit(rep.as_dict(), args.format, csv_rows=[
        ["passed", "max_route_gap", "expanded_gap"],
        [rep.passed, _fmt(rep.max_route_gap),
         _fmt(rep.expanded_gap) if rep.expanded_gap is not None else ""],
    ])


def _cmd_catalog(args) -> None:
    entries = {name: dm.catalog_info(name) for name in dm.catalog_names()}
    doc = {"entries": entries}
    csv_rows = [["kind", "params", "constraints"]]
    for name, info in entries.items():
        csv_rows.append([name, ";".join(info["params"]), info["constraints"]])
    _emit(doc, args.format, csv_rows=csv_rows)


_DISPATCH = {
    "transform": _cmd_transform,
    "invert": _cmd_invert,
    "muntz": _cmd_muntz,
    "fingerprint": _cmd_fingerprint,
    "compare": _cmd_compare,
    "verify-identity": _cmd_verify,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _DISPATCH[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except _NUMERICAL_FAILURES as exc:
        sys.stdout.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, indent=2,
            allow_nan=False,
        ) + "\n")
        return 3
    except StieltjesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
