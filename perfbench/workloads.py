"""The benchmark's four seeded workloads.

A workload is built once from its seed (the set-up the benchmark times) and
then hands out rounds of operations.  Every round has the same composition of
operation kinds; the seed only draws the parameters (law parameters, s
vectors, tolerances, Muntz exponents, CLI arguments).  A fixed composition
keeps the per-run cost of a mixed stream steady across seeds, so that the
spread between runs measures the program and not the draw.

Each operation has a `run` (the timed call into the library, or the CLI
process) and a `check` that decides, outside the timed region, whether the
result is correct.  A check returns a `Verdict`; `known` marks the one
documented defect the benchmark keeps in its mix on purpose (see NOTES.md).
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import stieltjes as sj
from stieltjes import specio

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass
class Verdict:
    ok: bool
    known: bool = False          # failure of the documented known defect
    bound_ratio: float | None = None
    detail: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _bound_verdict(value, est_error, closed) -> Verdict:
    """|value - closed| <= est_error + closed est_error, with the ratio."""
    gap = abs(value - closed.value)
    allowed = est_error + closed.est_error
    ratio = gap / allowed if allowed > 0 else (0.0 if gap == 0 else math.inf)
    return Verdict(ok=gap <= allowed, bound_ratio=ratio,
                   detail=f"gap {gap:.3e} allowed {allowed:.3e}")


class Workload:
    name = ""
    warmup = True  # run one untimed round first

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.recorder = None  # set by the runner for the traced pass

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def traced_callables(self) -> list[tuple[object, str, str]]:
        """(object, attribute, layer) for callables built during set-up that
        the library calls through an instance attribute."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])


# ---------------------------------------------------------------------------
# transform-stream

TOLS = (1e-6, 1e-8, 1e-10)
# the known defect overshoots its bound by about 1.34x; a larger gap on the
# same requests is a new failure, not the known one
KNOWN_DEFECT_MAX_RATIO = 2.0


class TransformStream(Workload):
    """Independent transform_value requests plus a few verify_identity ones.

    Every s is drawn fresh, so no two requests share work.  The direct route
    on the Gamma q=0.3 mixture at tol 1e-6 and 1e-8 is the known defect: its
    est_error does not bound the true error (about 1.34x), so those
    requests fail their check and count as failed.
    """

    name = "transform-stream"
    KNOWN_DEFECT = "gamma-q0.3/direct"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        rng = self.rng(0)

        def atom_gamma(q):
            w = rng.uniform(0.1, 0.4)
            loc = rng.uniform(0.2, 1.5)
            rate = rng.uniform(0.5, 2.0)
            return sj.mixture([(w, sj.point_mass(loc)),
                               (1.0 - w, sj.gamma_dist(rate, q))])

        mk = sj.make_catalog
        self.g3 = atom_gamma(0.3)
        self.g5 = atom_gamma(0.5)
        self.stable = sj.positive_stable(0.7)
        u = rng.uniform
        self.bivariate = [
            ("marshall-olkin", mk("marshall-olkin", {
                "lambda1": u(0.5, 2), "lambda2": u(0.5, 2), "lambda12": u(0.3, 1.5)})),
            ("freund", mk("freund", {
                "alpha": u(0.5, 2), "alpha_prime": u(0.5, 2.5),
                "beta": u(0.5, 2), "beta_prime": u(0.5, 2.5)})),
            ("blm-theta3", mk("blm", {"theta": 3.0, "f_lambda": 2.0, "g_lambda": 2.0})),
            ("blm-theta4", mk("blm", {"theta": 4.0, "f_lambda": 2.0, "g_lambda": 2.0})),
            # the series laws keep fixed parameters: their term counts, and so
            # their cost, swing by several times across the parameter range
            ("moran-downton", mk("moran-downton", {"r": 0.5})),
            ("bivariate-gamma", mk("bivariate-gamma", {"r": 0.4, "q": 1.5})),
        ]
        self.product3 = mk("product-exponential", {
            "lambda1": u(0.5, 2), "lambda2": u(0.5, 2), "lambda3": u(0.5, 2)})
        self.trigamma = mk("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5})

    def traced_callables(self):
        return [(d, "ac_density", "dist_model") for d in (self.g3, self.g5, self.stable)]

    def _transform(self, kind, dist, s, route, tol, known=False) -> Op:
        def run():
            return sj.transform_value(dist, s, route=route, tol=tol)

        def check(tv):
            v = _bound_verdict(tv.value, tv.est_error, sj.closed_form_ls(dist, s))
            v.known = known and not v.ok and v.bound_ratio <= KNOWN_DEFECT_MAX_RATIO
            return v

        return Op(f"{kind}/{route}", run, check)

    def _verify(self, kind, dist, s, tol) -> Op:
        def check(rep):
            return Verdict(ok=bool(rep.passed), detail=f"max_route_gap {rep.max_route_gap:.3e}")

        return Op(f"{kind}/verify", lambda: sj.verify_identity(dist, s, tol=tol), check)

    def round(self, r):
        rng = self.rng(1, r)
        s1 = lambda: float(_log_uniform(rng, 0.5, 5.0))
        sv = lambda d: tuple(float(v) for v in _log_uniform(rng, 0.5, 5.0, d))
        tol = lambda j: TOLS[(r + j) % 3]  # every tolerance in every round
        ops = [
            self._transform("gamma-q0.3", self.g3, s1(), "direct", 1e-6, known=True),
            self._transform("gamma-q0.3", self.g3, s1(), "direct", 1e-8, known=True),
            self._transform("gamma-q0.3", self.g3, s1(), "carson", tol(0)),
            self._transform("gamma-q0.3", self.g3, s1(), "survival", tol(1)),
            self._transform("gamma-q0.5", self.g5, s1(), "direct", tol(2)),
            self._transform("gamma-q0.5", self.g5, s1(), "carson", tol(3)),
            self._transform("gamma-q0.5", self.g5, s1(), "survival", tol(4)),
            self._transform("stable-0.7", self.stable, s1(), "carson", 1e-8),
        ]
        for j, (kind, dist) in enumerate(self.bivariate):
            ops.append(self._transform(kind, dist, sv(2), "carson", tol(j)))
        if not self.smoke:
            # at tol 1e-8 about 2% of s (two coordinates near 0.5) refine into
            # a second 5 M-point tensor round, and whether a run draws one
            # decides its peak RSS; at 1e-7 no s in [0.5, 5]^3 refines
            ops.append(self._transform("product-exponential-3d", self.product3, sv(3),
                                       "carson", 1e-7))
            ops.append(self._transform("trivariate-gamma", self.trigamma, sv(3),
                                       "carson", 1e-6))
        kind, dist = self.bivariate[r % len(self.bivariate)]
        ops.append(self._verify(kind, dist, sv(2), 1e-6))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# fingerprint-grid

FP_PREFIX = 3
FP_TOL = 1e-8
FP_COMPARE_TOL = 1e-9


def _fp_family(rng, family):
    u = rng.uniform
    if family == "marshall-olkin":
        return {"lambda1": u(0.5, 2), "lambda2": u(0.5, 2), "lambda12": u(0.3, 1.5)}
    if family == "freund":
        return {"alpha": u(0.5, 2), "alpha_prime": u(0.5, 2.5),
                "beta": u(0.5, 2), "beta_prime": u(0.5, 2.5)}
    f, g = u(1.0, 3.0), u(1.0, 3.0)
    # diagonal mass (f+g)/theta - 1 stays inside (0.1, 0.7)
    return {"theta": (f + g) / u(1.1, 1.7), "f_lambda": f, "g_lambda": g}


def _perturb(rng, family, params):
    out = dict(params)
    if family == "blm":
        # move theta and keep the diagonal mass inside [0, 1]
        f, g = out["f_lambda"], out["g_lambda"]
        mass = (f + g) / out["theta"] - 1.0
        mass = mass + rng.choice([-1, 1]) * rng.uniform(0.05, 0.1)
        out["theta"] = (f + g) / (1.0 + mass)
        return out
    key = rng.choice(sorted(out))
    out[key] *= math.exp(rng.choice([-1, 1]) * rng.uniform(0.1, 0.3))
    return out


class FingerprintGrid(Workload):
    """compute_fingerprint on non-separable bivariate laws, then compare.

    Each op fingerprints a law on a primes x primes prefix with the Carson
    route named explicitly (route "auto" would answer from the closed form
    and measure nothing), fingerprints a copy rebuilt from the law's spec and
    a perturbed law, and compares the first against both.
    """

    name = "fingerprint-grid"
    FAMILIES = ("marshall-olkin", "freund", "blm")

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.grid = sj.MuntzSequence.primes()
        self.prefix = 2 if smoke else FP_PREFIX

    def _op(self, family, law, copy, other) -> Op:
        grids = [self.grid, self.grid]

        def run():
            fp = sj.compute_fingerprint(law, grids, self.prefix, route="carson", tol=FP_TOL)
            fp_copy = sj.compute_fingerprint(copy, grids, self.prefix, route="carson", tol=FP_TOL)
            fp_other = sj.compute_fingerprint(other, grids, self.prefix, route="carson",
                                              tol=FP_TOL)
            return fp, sj.compare(fp, fp_copy, FP_COMPARE_TOL), sj.compare(fp, fp_other,
                                                                          FP_COMPARE_TOL)

        def check(res):
            fp, same, diff = res
            worst = 0.0
            for idx in np.ndindex(fp.values.shape):
                s = [fp.grids[ax][i] for ax, i in enumerate(idx)]
                v = _bound_verdict(fp.values[idx], fp.est_errors[idx],
                                   sj.closed_form_ls(law, s))
                worst = max(worst, v.bound_ratio)
            ok = worst <= 1.0 and same.verdict == "indistinguishable" and diff.distinct
            return Verdict(ok=ok, bound_ratio=worst,
                           detail=f"{same.verdict}/{diff.verdict} worst cell ratio {worst:.3g}")

        return Op(f"{family}/fingerprint", run, check)

    def round(self, r):
        # fresh laws every round (they cost microseconds to build), so no
        # law ever repeats within a run
        rng = self.rng(1, r)
        ops = []
        for family in self.FAMILIES:
            params = _fp_family(rng, family)
            law = sj.make_catalog(family, params)
            copy = specio.spec_from_dict(json.loads(json.dumps(law.spec_dict())))
            other = sj.make_catalog(family, _perturb(rng, family, params))
            ops.append(self._op(family, law, copy, other))
        return ops


# ---------------------------------------------------------------------------
# muntz-invert

FELLER_N = 100
POST_WIDDER_N = 64
STABLE_FELLER_N = 12  # floor(n x) <= 12, the synthesis cap, for x <= 1
STABLE_POST_WIDDER_N = 8
# pinned tolerances of the inversion checks (absolute, at continuity points)
FELLER_TOL = 2e-2
POST_WIDDER_TOL = 3e-2
STABLE_CDF_TOL = 5e-2
STABLE_DENSITY_TOL = 5e-2
Q1_TOL = 1e-10


class MuntzInvert(Workload):
    """Extended-precision work: Muntz coefficients and sup norms, and
    Feller / Post-Widder inversion.  mpmath does nearly all of it and no
    quadrature runs."""

    name = "muntz-invert"
    # (sequence, low n, high n): one op each per round
    MUNTZ = (("integers", 25, 30), ("primes", 25, 30), ("integers", 72, 78),
             ("primes", 57, 62), ("primes", 57, 62), ("integers", 144, 150),
             ("custom", 22, 26))
    # per round: 16 cheap ops (Post-Widder, stable mixture), 4 middling
    # (Feller, Muntz n ~ 27) and 5 heavy (the custom sequence, Muntz n ~ 60
    # twice, 75, 147): the median falls inside the cheap group and p90
    # between the two primes n ~ 60 ops, not on a boundary between kinds
    # whose costs differ many times over
    FELLER_PER_ROUND = 2
    POST_WIDDER_PER_ROUND = 14
    POOL = 8

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        rng = self.rng(0)
        start = rng.uniform(0.5, 0.9)
        step = rng.uniform(1.1, 1.6)
        self.sequences = {
            "integers": sj.MuntzSequence.integers(),
            "primes": sj.MuntzSequence.primes(),
            # non-integer exponents take the mp.log / mp.e power path
            "custom": sj.MuntzSequence.custom([start + step * k for k in range(40)]),
        }
        self.custom_floor = start
        self.laws = []
        for _ in range(self.POOL):
            w = rng.uniform(0.1, 0.3)
            law = sj.mixture([(w, sj.point_mass(0.0)),
                              (1.0 - w, sj.gamma_dist(rng.uniform(0.8, 2.0),
                                                      rng.uniform(1.5, 3.5)))])
            self.laws.append((law, sj.oracle_from_distribution(law)))
        w = rng.uniform(0.3, 0.7)
        stable = sj.mixture([(w, sj.positive_stable(0.5)),
                             (1.0 - w, sj.exponential(rng.uniform(0.8, 1.5)))])
        self.stable = (stable, sj.oracle_from_distribution(stable))

    def traced_callables(self):
        out = []
        for _, oracle in self.laws + [self.stable]:
            out.append((oracle, "eval", "oracle"))
            if oracle.deriv is not None:
                out.append((oracle, "deriv", "oracle"))
        return out

    def _muntz(self, kind, n, q) -> Op:
        seq = self.sequences[kind]

        def run():
            ap = sj.golitschek_coeffs(q, seq, n)
            return ap, sj.sup_norm_estimate(ap)

        def check(res):
            ap, est = res
            q1 = abs(sj.qn_eval(ap, 1.0))
            ok = est.sup <= ap.bound and q1 <= Q1_TOL
            return Verdict(ok=ok, detail=f"sup {est.sup:.3e} bound {ap.bound:.3e} |Q(1)| {q1:.1e}")

        return Op(f"{kind}/muntz", run, check)

    def _inversion(self, kind, law, oracle, x, n, tol) -> Op:
        if kind == "feller":
            run = lambda: sj.feller_cdf(oracle, x, n)
            exact = float(law.cdf(x))
        else:
            run = lambda: sj.post_widder_density(oracle, x, n)
            exact = float(law.density(x))

        def check(got):
            gap = abs(got - exact)
            return Verdict(ok=gap <= tol, detail=f"gap {gap:.3e} tol {tol:.1e}")

        return Op(f"{kind}/invert", run, check)

    def round(self, r):
        rng = self.rng(1, r)
        ops = []
        for kind, lo, hi in self.MUNTZ:
            if self.smoke:
                lo, hi = min(lo, 10), min(hi, 12)
            n = int(rng.integers(lo, hi + 1))
            q = float(rng.uniform(0.05, 0.95))
            if kind == "custom":
                q *= self.custom_floor  # below the first exponent
            ops.append(self._muntz(kind, n, q))
        k = self.FELLER_PER_ROUND
        for i in range(k):
            # the series has floor(n x) terms at a precision that grows with
            # them, so its cost grows steeply with x; x is kept to [1, 1.25]
            # and stratified, one draw per k-th of it
            x = 1.0 + 0.25 * (i + rng.random()) / k
            law, oracle = self.laws[int(rng.integers(len(self.laws)))]
            ops.append(self._inversion("feller", law, oracle, x, FELLER_N, FELLER_TOL))
        for _ in range(self.POST_WIDDER_PER_ROUND):
            law, oracle = self.laws[int(rng.integers(len(self.laws)))]
            ops.append(self._inversion("post-widder", law, oracle,
                                       float(rng.uniform(0.5, 3.0)), POST_WIDDER_N,
                                       POST_WIDDER_TOL))
        law, oracle = self.stable
        ops.append(self._inversion("stable-feller", law, oracle, float(rng.uniform(0.6, 1.0)),
                                   STABLE_FELLER_N, STABLE_CDF_TOL))
        ops.append(self._inversion("stable-post-widder", law, oracle,
                                   float(rng.uniform(0.6, 1.2)), STABLE_POST_WIDDER_N,
                                   STABLE_DENSITY_TOL))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# cli-oneshot

CHILD_TIMEOUT_S = 120
CLI_COMMANDS = ("transform", "fingerprint", "compare", "verify-identity", "invert",
                "muntz", "catalog")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env) -> tuple[int, str, str, float]:
    """Run one child to exit; (exit code, stdout, stderr, child peak RSS MB).

    The child is reaped with wait4 so that its own peak RSS is read, not
    the maximum over every child this process ever had.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    streams = {}
    readers = [threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
               for k, f in (("out", proc.stdout), ("err", proc.stderr))]
    for t in readers:
        t.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, streams["out"], streams["err"], usage.ru_maxrss / 1024.0


class CliOneshot(Workload):
    """One `stieltjes` process per op, timed from spawn to exit.  Import
    dominates here, so this is where lazy-import, specio and cli work show."""

    name = "cli-oneshot"
    warmup = False  # every op is a fresh process
    POOL = 16

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        rng = self.rng(0)
        self.env = cli_env()
        u = rng.uniform
        self.specs = []
        for _ in range(self.POOL):
            w = u(0.1, 0.4)
            mix = {"mixture": [
                {"weight": w, "spec": {"kind": "point-mass", "params": {"location": 0.0}}},
                {"weight": 1.0 - w, "spec": {"kind": "gamma", "params": {
                    "lambda": u(0.8, 2.0), "q": u(1.5, 3.0)}}}]}
            mo = {"kind": "marshall-olkin", "params": {
                "lambda1": u(0.5, 2), "lambda2": u(0.5, 2), "lambda12": u(0.3, 1.5)}}
            expo = [{"kind": "exponential", "params": {"lambda": u(0.5, 2.0)}}
                    for _ in range(2)]
            self.specs.append({"mixture": mix, "mo": mo, "expo": expo})
        self.peak_child_mb = 0.0

    def peak_rss_mb(self):
        return self.peak_child_mb

    def _args(self, cmd, rng, r):
        sp = self.specs[r % self.POOL]
        fmt = lambda d: json.dumps(d, separators=(",", ":"))
        s2 = ",".join(repr(float(v)) for v in _log_uniform(rng, 0.5, 5.0, 2))
        if cmd == "transform":
            return ["--spec", fmt(sp["mo"]), "--s", s2, "--route", "carson", "--tol", "1e-8"]
        if cmd == "fingerprint":
            return ["--spec", fmt(sp["mo"]), "--grid", "primes", "--len", "3",
                    "--route", "carson", "--tol", "1e-8"]
        if cmd == "compare":
            return ["--spec", fmt(sp["expo"][0]), "--spec", fmt(sp["expo"][1]),
                    "--grid", "primes", "--len", "4", "--route", "carson", "--tol", "1e-9"]
        if cmd == "verify-identity":
            return ["--spec", fmt(sp["mixture"]), "--s", repr(float(_log_uniform(rng, 0.5, 5))),
                    "--tol", "1e-6"]
        if cmd == "invert":
            return ["--spec", fmt(sp["mixture"]), "--x", repr(float(rng.uniform(0.5, 3.0))),
                    "--n", "32"]
        if cmd == "muntz":
            return ["--grid", rng.choice(["integers", "primes"]), "--len",
                    str(int(rng.integers(6, 12))), "--q", repr(float(rng.uniform(0.1, 0.9)))]
        return []

    def _op(self, cmd, args) -> Op:
        argv_tail = [cmd, *args]

        def run():
            rec = self.recorder
            if rec is None:
                argv = [sys.executable, "-c",
                        "import sys; from stieltjes.cli import main; sys.exit(main())",
                        *argv_tail]
            else:
                argv = [sys.executable, os.path.join(HERE, "cli_child.py"), *argv_tail]
            t0 = time.perf_counter()
            code, out, err, rss = spawn(argv, self.env)
            wall = time.perf_counter() - t0
            self.peak_child_mb = max(self.peak_child_mb, rss)
            if rec is not None and code == 0:
                rec.absorb(err, wall)
            return code, out, err

        def check(res):
            code, out, err = res
            if code != 0:
                return Verdict(ok=False, detail=f"exit {code}: {err.strip()[-200:]}")
            got = json.loads(out)
            want = json.loads(json.dumps(expected_cli_doc(argv_tail)))
            return Verdict(ok=got == want, detail="" if got == want else "output differs")

        return Op(f"{cmd}/cli", run, check)

    def round(self, r):
        rng = self.rng(1, r)
        return [self._op(cmd, self._args(cmd, rng, r)) for cmd in CLI_COMMANDS]


def expected_cli_doc(argv) -> dict:
    """The document the CLI should print, computed through the in-process API."""
    from stieltjes import dist_model as dm

    cmd, rest = argv[0], argv[1:]
    opts: dict[str, list[str]] = {}
    for key, val in zip(rest[::2], rest[1::2]):
        opts.setdefault(key, []).append(val)
    get = lambda k, d=None: opts.get(k, [d])[0]
    specs = [specio.parse_spec(v) for v in opts.get("--spec", [])]
    tol = float(get("--tol", "1e-10"))
    if cmd == "transform":
        s = [float(v) for v in get("--s").split(",")]
        tv = sj.transform_value(specs[0], s, route=get("--route"), tol=tol)
        return {"value": tv.value, "est_error": tv.est_error, "route": tv.route,
                "evaluations": tv.evaluations, "s": s}
    if cmd in ("fingerprint", "compare"):
        seq = sj.MuntzSequence(get("--grid"))
        fps = [sj.compute_fingerprint(d, [seq] * d.dim, int(get("--len")),
                                      route=get("--route"), tol=tol) for d in specs]
        if cmd == "fingerprint":
            return fps[0].to_dict()
        return sj.compare(fps[0], fps[1], tol=max(tol, 1e-12)).as_dict()
    if cmd == "verify-identity":
        s = [float(v) for v in get("--s").split(",")]
        return sj.verify_identity(specs[0], s, tol=max(tol, 1e-12)).as_dict()
    if cmd == "invert":
        x, n = float(get("--x")), int(get("--n"))
        bits = int(os.environ.get("STIELTJES_PRECISION_BITS", "128"))
        oracle = sj.oracle_from_distribution(specs[0], precision_bits=bits)
        diag: dict = {}
        density = sj.post_widder_density(oracle, x, n)
        cdf = sj.feller_cdf(oracle, x, n, diag)
        return {"x": x, "n": n, "post_widder_density": density, "feller_cdf": cdf,
                "feller_raw": diag["raw"], "precision_bits": diag["precision_bits"]}
    if cmd == "muntz":
        from stieltjes.muntz import coefficient_triangle

        q = float(get("--q"))
        prefix = sj.MuntzSequence(get("--grid")).prefix(int(get("--len")))
        rows = []
        for ap in coefficient_triangle(q, prefix):
            est = sj.sup_norm_estimate(ap, grid_size=max(100, 10 * ap.n))
            rows.append({"n": ap.n, "bound": ap.bound, "sampled_sup": est.sup})
        return {"q": q, "grid": get("--grid"), "rows": rows}
    return {"entries": {name: dm.catalog_info(name) for name in dm.catalog_names()}}


WORKLOADS = {w.name: w for w in (TransformStream, FingerprintGrid, MuntzInvert, CliOneshot)}
