"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np

from stieltjes import dist_model as dm
from stieltjes import fingerprint as fp
from stieltjes import inversion as inv
from stieltjes import muntz as mu
from stieltjes import transforms as tr
from stieltjes.muntz import MuntzSequence

from test_muntz import qn_integral_step


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_univariate_identity():
    t0 = time.time()
    dists = [
        dm.exponential(1.0),
        dm.gamma_dist(2.0, 3.0),
        dm.mixture([(0.2, dm.point_mass(0.5)), (0.5, dm.point_mass(1.0)),
                    (0.3, dm.point_mass(2.0))]),
        dm.mixture([(0.3, dm.point_mass(0.0)), (0.7, dm.exponential(2.0))]),
    ]
    rng = np.random.default_rng(1)
    worst = 0.0
    for d in dists:
        for s in rng.uniform(0.1, 10.0, size=20):
            a = tr.ls_direct(d, float(s), tol=2e-9)
            b = tr.ls_carson(d, float(s), tol=2e-9)
            worst = max(worst, abs(a.value - b.value))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"max |direct - carson| = {worst:.3e} (<= 1e-8), "
                   f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_bivariate_identity():
    t0 = time.time()
    dists = [
        dm.make_catalog("marshall-olkin", {"lambda1": 1, "lambda2": 1, "lambda12": 1}),
        dm.make_catalog("freund", {"alpha": 1, "alpha_prime": 2, "beta": 1,
                                   "beta_prime": 2}),
    ]
    rng = np.random.default_rng(2)
    worst_carson = worst_survival = 0.0
    for d in dists:
        for s, t in rng.uniform(0.5, 5.0, size=(10, 2)):
            closed = tr.closed_form_ls(d, (s, t)).value
            carson = tr.ls_carson(d, (s, t), tol=1e-7).value
            surv = tr.ls_survival_route(d, float(s), float(t), tol=1e-7).value
            worst_carson = max(worst_carson, abs(closed - carson))
            worst_survival = max(worst_survival, abs(closed - surv))
    elapsed = time.time() - t0
    ok = worst_carson <= 1e-6 and worst_survival <= 1e-6 and elapsed < 30.0
    _report(2, ok, f"max |closed - carson| = {worst_carson:.3e}, "
                   f"max |closed - survival| = {worst_survival:.3e} (<= 1e-6), "
                   f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_3_blm_singular_shortcut():
    t0 = time.time()
    rng = np.random.default_rng(3)

    def check(theta):
        d = dm.make_catalog("blm", {"theta": theta, "f_lambda": 2.0, "g_lambda": 2.0})
        worst = 0.0
        for s, t in rng.uniform(0.5, 5.0, size=(10, 2)):
            closed = tr.closed_form_ls(d, (s, t)).value
            carson = tr.ls_carson(d, (s, t), tol=1e-7).value
            worst = max(worst, abs(closed - carson))
        return d.spec.singular_mass, worst

    p4, worst4 = check(4.0)   # no singular part
    p3, worst3 = check(3.0)   # diagonal mass 1/3
    elapsed = time.time() - t0
    ok = (
        abs(p4) <= 1e-12 and 0.0 < p3 < 1.0
        and worst4 <= 1e-6 and worst3 <= 1e-6 and elapsed < 60.0
    )
    _report(3, ok, f"p(4)={p4:.1e} gap {worst4:.3e}; p(3)={p3:.4f} gap "
                   f"{worst3:.3e} (<= 1e-6), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_4_trivariate_identity():
    t0 = time.time()
    dists = [
        dm.ProductJoint([dm.exponential(1.0)] * 3),
        dm.make_catalog("trivariate-gamma", {"alpha": 1.0, "a": 0.5, "b": 0.5}),
    ]
    rng = np.random.default_rng(4)
    worst = 0.0
    all_pass = True
    for d in dists:
        for svec in rng.uniform(0.5, 3.0, size=(5, 3)):
            rep = tr.verify_identity(d, tuple(svec), tol=1e-5)
            all_pass = all_pass and rep.passed
            worst = max(worst, rep.max_route_gap, rep.expanded_gap or 0.0)
    elapsed = time.time() - t0
    ok = all_pass and worst <= 1e-5 and elapsed < 300.0
    _report(4, ok, f"worst identity gap {worst:.3e} (<= 1e-5), "
                   f"runtime {elapsed:.1f}s (< 300s)")


def test_criterion_5_feller_inversion():
    oracle = inv.oracle_from_distribution(dm.exponential(1.0))
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        got = inv.feller_cdf(oracle, x, 100)
        # independent oracle: geometric closed form of the partial sum
        K = math.floor(100 * x)
        geometric = 1.0 - (100.0 / 101.0) ** (K + 1)
        assert abs(got - geometric) <= 1e-12
        worst = max(worst, abs(got - (1.0 - math.exp(-x))))
    ok = worst <= 5e-3
    _report(5, ok, f"max CDF-series error at n=100 over x in {{0.5,1,2}}: "
                   f"{worst:.3e} (<= 5e-3)")


def test_criterion_6_post_widder():
    oracle = inv.oracle_from_distribution(dm.exponential(1.0))
    errs = {
        n: abs(inv.post_widder_density(oracle, 1.0, n) - math.exp(-1.0))
        for n in (8, 16, 32, 64)
    }
    nonincreasing = all(
        errs[b] <= 1.1 * errs[a] for a, b in ((8, 16), (16, 32), (32, 64))
    )
    ok = errs[32] <= 2e-2 and errs[64] <= 1e-2 and nonincreasing
    _report(6, ok, f"errors n=8..64: " +
            ", ".join(f"{n}:{errs[n]:.3e}" for n in (8, 16, 32, 64)) +
            " (32<=2e-2, 64<=1e-2, nonincreasing within 10%)")


def test_criterion_7_muntz_engine():
    q = 0.5
    lambdas = [float(k) for k in range(1, 201)]
    from mpmath import mp

    worst_rel = 0.0
    worst_q1 = 0.0
    bound_ok = True
    dense_checks = {25, 50, 100, 200}
    approxes = {}
    for ap in mu.coefficient_triangle(q, lambdas):
        with mp.workprec(ap.prec):
            resid = abs(ap.coeffs[-1] - (1 - sum(ap.coeffs[:-1])))
            rel = float(resid / max(abs(ap.coeffs[-1]), 1e-30))
        worst_rel = max(worst_rel, rel)
        worst_q1 = max(worst_q1, abs(mu.qn_eval(ap, 1.0)))
        grid = max(100, 10 * ap.n) if ap.n in dense_checks else 160
        est = mu.sup_norm_estimate(ap, grid)
        bound = math.prod(1.0 - 1.0 / (2 * k) for k in range(1, ap.n + 1))
        bound_ok = bound_ok and est.sup <= bound + 1e-12
        if ap.n <= 5:
            approxes[ap.n] = ap

    # recursion-vs-integral equivalence for n <= 5 at 50 sample points
    xs = np.linspace(0.02, 0.98, 50)
    prev = mu.golitschek_coeffs(q, [], None)
    worst_int = 0.0
    for n in range(1, 6):
        ap = approxes[n]
        worst_int = max(
            worst_int,
            max(abs(qn_integral_step(prev, float(n), float(x)) -
                    mu.qn_eval(ap, float(x))) for x in xs),
        )
        prev = ap

    ok = bound_ok and worst_rel <= 1e-10 and worst_q1 <= 1e-10 and worst_int <= 1e-8
    _report(7, ok, f"sup<=bound for all n<=200: {bound_ok}; coeff relation "
                   f"{worst_rel:.2e} (<=1e-10); |Q_n(1)| {worst_q1:.2e} "
                   f"(<=1e-10); integral gap {worst_int:.2e} (<=1e-8)")


def test_criterion_8_fingerprint_uniqueness():
    rep = fp.collision_experiment(seed=42, trials=100,
                                  grid=MuntzSequence.primes(),
                                  prefix_len=8, tol=1e-9)

    f = fp.compute_fingerprint(dm.exponential(1.0), MuntzSequence.primes(), 3)
    exp_gap = float(np.max(np.abs(f.values - np.array([1 / 3, 1 / 4, 1 / 6]))))

    md = dm.make_catalog("moran-downton", {"r": 0.0})
    pr = dm.ProductJoint([dm.exponential(1.0), dm.exponential(1.0)])
    fmd = fp.compute_fingerprint(md, [MuntzSequence.primes()] * 2, 8)
    fpr = fp.compute_fingerprint(pr, [MuntzSequence.primes()] * 2, 8)
    md_rep = fp.compare(fmd, fpr, 1e-9)

    ok = (rep.false_merges == 0 and rep.false_splits == 0
          and exp_gap <= 1e-10 and not md_rep.distinct)
    _report(8, ok, f"collisions: {rep.false_merges} merges / {rep.false_splits} "
                   f"splits over {rep.trials} trials (min margin "
                   f"{rep.min_distinct_margin:.2e}); Exp(1) prime fingerprint gap "
                   f"{exp_gap:.1e} (<=1e-10); MoranDownton(0) vs product: "
                   f"{md_rep.verdict} (max delta {md_rep.max_delta:.1e})")


def test_criterion_9_watson_exact_case():
    derivs = [(-1.0) ** n for n in range(31)]
    rep = inv.watson_check(derivs, 2.0, 30, lf_value=1.0 / 3.0)
    resid = rep.residuals[-1]
    ok = resid < 1e-8
    _report(9, ok, f"partial sums at s=2 reach 1/3 with residual "
                   f"{resid:.2e} (< 1e-8 by N=30)")
