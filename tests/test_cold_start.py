"""The library never imports scipy: not at import, not when a law is built
and not when any kernel is evaluated.  Each runtime case runs in a fresh
interpreter so sys.modules is clean."""

import json
import os
import re
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PRELUDE = """
import contextlib, io, json, sys
import stieltjes
from stieltjes import dist_model as dm
from stieltjes.cli import main

def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(body: str) -> dict:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_construction_and_scipy_free_commands_never_load_scipy():
    doc = _run("""
        EXAMPLES = {
            "exponential": {"lambda": 1.0},
            "gamma": {"lambda": 2.0, "q": 0.5},
            "positive-stable": {"alpha": 0.7},
            "point-mass": {"location": 1.0},
            "marshall-olkin": {"lambda1": 1.0, "lambda2": 2.0, "lambda12": 0.5},
            "freund": {"alpha": 1.0, "alpha_prime": 2.0, "beta": 1.5, "beta_prime": 0.5},
            "moran-downton": {"r": 0.4},
            "bivariate-gamma": {"r": 0.3, "q": 2.0},
            "trivariate-gamma": {"alpha": 1.5, "a": 0.4, "b": 0.5},
            "blm": {"theta": 2.0, "f_lambda": 1.5, "g_lambda": 1.0},
            "product-exponential": {"lambda1": 1.0, "lambda2": 2.0},
        }
        assert set(EXAMPLES) == set(dm.catalog_names())
        for kind, params in EXAMPLES.items():
            dm.make_catalog(kind, params)
        dm.positive_stable(0.5)

        def spec(kind):
            return json.dumps({"kind": kind, "params": EXAMPLES[kind]})

        exp2 = json.dumps({"kind": "exponential", "params": {"lambda": 2.0}})
        gamma_mix = json.dumps({"mixture": [
            {"weight": 0.4, "spec": json.loads(spec("gamma"))},
            {"weight": 0.6, "spec": {"kind": "gamma", "params": {"lambda": 1.0, "q": 3.0}}},
        ]})
        cli("catalog")
        cli("transform", "--spec", spec("marshall-olkin"), "--s", "1,2", "--route", "carson")
        cli("fingerprint", "--spec", spec("exponential"), "--len", "3")
        cli("compare", "--spec", spec("exponential"), "--spec", exp2, "--len", "3")
        cli("muntz", "--len", "3")
        cli("invert", "--spec", gamma_mix, "--x", "1", "--n", "4")
        cli("invert", "--spec", spec("positive-stable"), "--x", "1", "--n", "2")
        from stieltjes.transforms import closed_form_ls
        closed_form_ls(dm.positive_stable(0.7), [1.0])
        stable = dm.positive_stable(0.7)
        stable.cdf([0.0, 0.5, 1.0, 10.0])
        stable.density([0.5, 1.0, 10.0])
        print(json.dumps({"scipy": scipy_modules()}))
    """)
    assert doc["scipy"] == []


def test_no_evaluation_loads_scipy():
    doc = _run("""
        import numpy as np
        xs = np.linspace(0.0, 6.0, 7)
        gamma = dm.gamma_dist(2.0, 0.5)
        gamma.cdf(xs)
        gamma.density(xs)
        dm.mixture([(0.4, dm.point_mass(1.0)), (0.6, dm.gamma_dist(1.0, 3.0))]).cdf(xs)
        for kind, params in (("moran-downton", {"r": 0.4}),
                             ("bivariate-gamma", {"r": 0.3, "q": 2.0}),
                             ("trivariate-gamma", {"alpha": 1.5, "a": 0.4, "b": 0.5})):
            law = dm.make_catalog(kind, params)
            pts = [xs] * law.dim
            law.cdf(*pts)
            law.survival(*pts)
        from stieltjes.transforms import closed_form_ls
        closed_form_ls(dm.make_catalog("trivariate-gamma", {"alpha": 1.5, "a": 0.4, "b": 0.5}),
                       [1.0, 2.0, 3.0])
        dm.positive_stable(0.5).cdf(xs)
        gamma_mix = json.dumps({"mixture": [
            {"weight": 0.3, "spec": {"kind": "point-mass", "params": {"location": 0.5}}},
            {"weight": 0.7, "spec": {"kind": "gamma", "params": {"lambda": 1.2, "q": 2.5}}},
        ]})
        cli("verify-identity", "--spec", gamma_mix, "--s", "1.5", "--tol", "1e-8")
        print(json.dumps({"scipy": scipy_modules()}))
    """)
    assert doc["scipy"] == []


def test_no_library_file_imports_scipy():
    pattern = re.compile(r"^\s*(import scipy|from scipy)\b", re.MULTILINE)
    root = os.path.join(SRC, "stieltjes")
    sources = [os.path.join(d, f) for d, _, files in os.walk(root) for f in files
               if f.endswith(".py")]
    assert sources
    offenders = []
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            if pattern.search(fh.read()):
                offenders.append(os.path.relpath(path, SRC))
    assert offenders == []
