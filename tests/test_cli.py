import json
import math
import time

import numpy as np
import pytest

from stieltjes import specio
from stieltjes.cli import main
from stieltjes.dist_model import make_catalog
from stieltjes.errors import SpecFormatError
from stieltjes.transforms import closed_form_ls

EXP_SPEC = '{"kind":"exponential","params":{"lambda":1}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# transform


def test_transform_carson(capsys):
    code, out, _ = run(capsys, "transform", "--spec", EXP_SPEC, "--s", "2",
                       "--route", "carson")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1 / 3, abs=1e-8)
    assert doc["est_error"] <= 1e-10
    assert doc["route"] == "carson"


def test_transform_negative_s_usage_error(capsys):
    code, _, err = run(capsys, "transform", "--spec", EXP_SPEC, "--s", "-1")
    assert code == 2
    assert "s must be positive" in err


def test_transform_bad_tol(capsys):
    code, _, err = run(capsys, "transform", "--spec", EXP_SPEC, "--s", "1",
                       "--tol", "0.5")
    assert code == 2


def test_transform_csv_17_digits(capsys):
    code, out, _ = run(capsys, "transform", "--spec", EXP_SPEC, "--s", "3",
                       "--route", "closed", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "value"
    printed = lines[1].split(",")[0]
    assert float(printed) == 0.25  # 17 significant digits round-trip


def test_unknown_field_rejected_with_path(capsys):
    bad = '{"kind":"exponential","params":{"lambda":1},"extra":2}'
    code, _, err = run(capsys, "transform", "--spec", bad, "--s", "1")
    assert code == 2
    assert "extra" in err


def test_unknown_param_rejected(capsys):
    bad = '{"kind":"exponential","params":{"lambda":1,"typo":1}}'
    code, _, err = run(capsys, "transform", "--spec", bad, "--s", "1")
    assert code == 2
    assert "typo" in err
    bad = '{"kind":"product-exponential","params":{"lambda1":1,"lambda3":2,"foo":3}}'
    code, _, err = run(capsys, "transform", "--spec", bad, "--s", "1,1")
    assert code == 2
    assert "foo" in err


@pytest.mark.parametrize("argv", [
    ["transform", "--spec", '{"kind":"exponential","params":{"lambda":NaN}}', "--s", "1"],
    ["transform", "--spec", '{"kind":"exponential","params":{"lambda":1e400}}', "--s", "1"],
    ["transform", "--spec", '{"kind":"exponential","params":{"lambda":1%s}}' % ("0" * 400),
     "--s", "1"],
    ["transform", "--spec", EXP_SPEC, "--s", "inf"],
    ["muntz", "--len", "6", "--q", "nan"],
    ["invert", "--spec", EXP_SPEC, "--x", "nan", "--n", "4"],
], ids=["nan-param", "overflow-param", "overflow-int-param", "inf-s", "nan-q", "nan-x"])
def test_non_finite_input_rejected(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "NaN" not in out and "Infinity" not in out


def test_mixture_spec_parses(capsys):
    mix = json.dumps({
        "mixture": [
            {"weight": 0.3, "spec": {"kind": "point-mass", "params": {"location": 0}}},
            {"weight": 0.7, "spec": {"kind": "exponential", "params": {"lambda": 2}}},
        ]
    })
    code, out, _ = run(capsys, "transform", "--spec", mix, "--s", "1", "--route", "closed")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.3 + 0.7 * 2 / 3, abs=1e-12)


def test_spec_file_path(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(EXP_SPEC)
    code, out, _ = run(capsys, "transform", "--spec", str(p), "--s", "2",
                       "--route", "closed")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# invert / numerical failure


def test_invert_exponential(capsys):
    code, out, _ = run(capsys, "invert", "--spec", EXP_SPEC, "--x", "1", "--n", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["post_widder_density"] == pytest.approx(math.exp(-1), abs=5e-3)
    assert doc["feller_cdf"] == pytest.approx(1 - math.exp(-1), abs=5e-3)


def test_invert_numerical_failure_exit3(capsys):
    stable = '{"kind":"positive-stable","params":{"alpha":0.7}}'
    code, out, _ = run(capsys, "invert", "--spec", stable, "--x", "1", "--n", "20")
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "DerivativeUnavailable"


@pytest.mark.parametrize("x,n", [("1e308", "4"), ("1e6", "64")])
def test_invert_beyond_the_feller_budget_exits_2(capsys, x, n):
    # n x overflows, or asks for 6.4e7 derivative terms: refused before any work
    start = time.perf_counter()
    code, out, err = run(capsys, "invert", "--spec", EXP_SPEC, "--x", x, "--n", n)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "budget" in err


def test_precision_bits_env(capsys, monkeypatch):
    monkeypatch.setenv("STIELTJES_PRECISION_BITS", "2048")
    code, out, _ = run(capsys, "invert", "--spec", EXP_SPEC, "--x", "1", "--n", "4")
    assert code == 0
    assert json.loads(out)["precision_bits"] == 2048


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_precision_bits_env_fails_invert_only(capsys, monkeypatch, value):
    monkeypatch.setenv("STIELTJES_PRECISION_BITS", value)
    code, _, _ = run(capsys, "catalog")
    assert code == 0
    code, _, err = run(capsys, "invert", "--spec", EXP_SPEC, "--x", "1", "--n", "4")
    assert code == 2 and "STIELTJES_PRECISION_BITS must be a positive integer" in err


def test_non_positive_precision_bits_flag(capsys):
    code, _, err = run(capsys, "invert", "--spec", EXP_SPEC, "--x", "1", "--n", "4",
                       "--precision-bits", "-5")
    assert code == 2 and "--precision-bits must be a positive integer" in err


# ---------------------------------------------------------------------------
# muntz / fingerprint / compare / verify-identity / catalog


def test_muntz_csv(capsys):
    code, out, _ = run(capsys, "muntz", "--grid", "integers", "--len", "4",
                       "--q", "0.5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,bound,sampled_sup"
    assert len(lines) == 5
    n, bound, sup = lines[1].split(",")
    assert (n, float(bound)) == ("1", 0.5)
    assert float(sup) <= 0.5


def test_muntz_custom_grid_file(tmp_path, capsys):
    p = tmp_path / "grid.txt"
    p.write_text("1.5\n2.5\n3.5\n")
    code, out, _ = run(capsys, "muntz", "--grid", f"file:{p}", "--len", "3",
                       "--q", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 3


@pytest.mark.parametrize("text, message", [
    ("1 2 nan", "finite"),
    ("1 2 inf", "finite"),
    ("x", "could not read grid file"),
])
def test_muntz_bad_grid_file(tmp_path, capsys, text, message):
    p = tmp_path / "grid.txt"
    p.write_text(text)
    code, out, err = run(capsys, "muntz", "--grid", f"file:{p}", "--len", "3")
    assert code == 2 and out == ""
    assert message in err


def test_fingerprint_doc(capsys):
    code, out, _ = run(capsys, "fingerprint", "--spec", EXP_SPEC,
                       "--grid", "primes", "--len", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == pytest.approx([1 / 3, 1 / 4, 1 / 6], abs=1e-10)


def test_fingerprint_golden_bytes(capsys):
    _, out1, _ = run(capsys, "fingerprint", "--spec", EXP_SPEC,
                     "--grid", "primes", "--len", "5")
    _, out2, _ = run(capsys, "fingerprint", "--spec", EXP_SPEC,
                     "--grid", "primes", "--len", "5")
    assert out1 == out2


def test_compare_same_law(capsys):
    prod = '{"kind":"product-exponential","params":{"lambda1":1,"lambda2":1}}'
    md0 = '{"kind":"moran-downton","params":{"r":0}}'
    code, out, _ = run(capsys, "compare", "--spec", md0, "--spec", prod,
                       "--grid", "primes", "--len", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "indistinguishable"


def test_compare_needs_two_specs(capsys):
    code, _, err = run(capsys, "compare", "--spec", EXP_SPEC,
                       "--grid", "primes", "--len", "4")
    assert code == 2
    assert "two --spec" in err


def test_verify_identity_cli(capsys):
    mo = '{"kind":"marshall-olkin","params":{"lambda1":1,"lambda2":1,"lambda12":1}}'
    code, out, _ = run(capsys, "verify-identity", "--spec", mo, "--s", "2,3",
                       "--tol", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_route_gap"] <= 1e-6


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _product_spec(n):
    return json.dumps({"kind": "product-exponential",
                       "params": {f"lambda{i}": float(i) for i in range(1, n + 1)}})


def test_freund_near_equal_rates_cli(capsys):
    # alpha' 1e-9 above alpha + beta: the survival route printed
    # 0.1603297986940695 +- 8.4e-12 and verify-identity failed
    spec = ('{"kind":"freund","params":{"alpha":1,"alpha_prime":2.000000001,'
            '"beta":1,"beta_prime":1.5}}')
    exact = 0.16032982136781766  # 40-digit closed form
    code, out, _ = run(capsys, "transform", "--spec", spec, "--s", "1.7,2.2",
                       "--route", "survival", "--tol", "1e-10")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - exact) <= doc["est_error"]
    code, out, _ = run(capsys, "verify-identity", "--spec", spec, "--s", "1.7,2.2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_transform_beyond_dimension_4_cli(capsys):
    code, out, err = run(capsys, "transform", "--spec", _product_spec(6),
                         "--s", ",".join(["1"] * 6), "--route", "carson", "--tol", "1e-8")
    assert code == 0, err
    doc = _strict_json(out)
    expect = math.prod(i / (i + 1.0) for i in range(1, 7))
    assert abs(doc["value"] - expect) <= doc["est_error"]


def test_verify_identity_beyond_the_survival_limit_exits_2(capsys):
    code, out, err = run(capsys, "verify-identity", "--spec", _product_spec(13),
                         "--s", ",".join(["1"] * 13))
    assert code == 2 and out == ""
    assert "12" in err


def test_transform_survival_trivariate_cli(capsys):
    params = {"alpha": 1.0, "a": 0.5, "b": 0.5}
    tg = json.dumps({"kind": "trivariate-gamma", "params": params})
    code, out, err = run(capsys, "transform", "--spec", tg, "--s", "1,2,3",
                         "--route", "survival", "--tol", "1e-6")
    assert code == 0, err
    doc = _strict_json(out)
    assert doc["route"] == "survival"
    closed = closed_form_ls(make_catalog("trivariate-gamma", params), (1.0, 2.0, 3.0))
    assert abs(doc["value"] - closed.value) <= doc["est_error"] + closed.est_error


def test_verify_identity_trivariate_cli(capsys):
    tg = '{"kind":"trivariate-gamma","params":{"alpha":1.0,"a":0.5,"b":0.5}}'
    code, out, err = run(capsys, "verify-identity", "--spec", tg, "--s", "1,2,3",
                         "--tol", "1e-5")
    assert code == 0, err
    doc = _strict_json(out)
    assert doc["passed"] is True
    assert doc["expanded_gap"] <= 1e-5


@pytest.mark.parametrize("command", [
    ["transform", "--spec", EXP_SPEC, "--s", "2"],
    ["fingerprint", "--spec", EXP_SPEC, "--len", "2"],
    ["verify-identity", "--spec", EXP_SPEC, "--s", "2"],
    ["muntz", "--len", "3"],
])
def test_precision_bits_only_on_invert(capsys, command):
    code, _, err = run(capsys, *command, "--precision-bits", "256")
    assert code == 2 and "--precision-bits" in err
    code, out, _ = run(capsys, "invert", "--spec", EXP_SPEC, "--x", "1", "--n", "4",
                       "--precision-bits", "256")
    assert code == 0
    assert _strict_json(out)["precision_bits"] >= 256


@pytest.mark.parametrize("command", [
    ["invert", "--spec", EXP_SPEC, "--x", "1", "--n", "4"],
    ["muntz", "--len", "3"],
])
def test_tol_only_where_read(capsys, command):
    code, _, err = run(capsys, *command, "--tol", "1e-6")
    assert code == 2 and "--tol" in err
    code, _, _ = run(capsys, *command)
    assert code == 0


def test_catalog_lists_all(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    entries = json.loads(out)["entries"]
    for name in ("exponential", "gamma", "positive-stable", "marshall-olkin",
                 "freund", "moran-downton", "bivariate-gamma",
                 "trivariate-gamma", "blm", "product-exponential",
                 "point-mass"):
        assert name in entries


def test_usage_error_unknown_subcommand(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# spec round trips


def _catalog_specs():
    return [
        {"kind": "exponential", "params": {"lambda": 1.5}},
        {"kind": "gamma", "params": {"lambda": 2.0, "q": 3.0}},
        {"kind": "positive-stable", "params": {"alpha": 0.5}},
        {"kind": "point-mass", "params": {"location": 0.75}},
        {"kind": "marshall-olkin", "params": {"lambda1": 1, "lambda2": 2, "lambda12": 0.5}},
        {"kind": "freund",
         "params": {"alpha": 1, "alpha_prime": 2, "beta": 1, "beta_prime": 2}},
        {"kind": "moran-downton", "params": {"r": 0.4}},
        {"kind": "bivariate-gamma", "params": {"r": 0.3, "q": 2.0}},
        {"kind": "trivariate-gamma", "params": {"alpha": 1.0, "a": 0.5, "b": 0.5}},
        {"kind": "blm", "params": {"theta": 3.0, "f_lambda": 2.0, "g_lambda": 2.0}},
        {"kind": "product-exponential", "params": {"lambda1": 1.0, "lambda2": 2.0}},
    ]


def test_round_trip_every_catalog_spec():
    rng = np.random.default_rng(17)
    for doc in _catalog_specs():
        d1 = specio.spec_from_dict(doc)
        d2 = specio.spec_from_dict(d1.spec_dict())
        dim = getattr(d1, "dim", 1)
        pts = rng.uniform(0.05, 5.0, size=(100, dim))
        for pt in pts:
            a = float(d1.cdf(*pt)) if dim > 1 else float(d1.cdf(pt[0]))
            b = float(d2.cdf(*pt)) if dim > 1 else float(d2.cdf(pt[0]))
            assert abs(a - b) <= 1e-14


def test_mixture_round_trip():
    doc = {
        "mixture": [
            {"weight": 0.25, "spec": {"kind": "point-mass", "params": {"location": 1.0}}},
            {"weight": 0.75, "spec": {"kind": "gamma", "params": {"lambda": 2, "q": 2}}},
        ]
    }
    d1 = specio.spec_from_dict(doc)
    d2 = specio.spec_from_dict(d1.spec_dict())
    xs = np.linspace(0, 8, 50)
    assert np.array_equal(d1.cdf(xs), d2.cdf(xs))


def test_spec_errors_cite_paths():
    with pytest.raises(SpecFormatError) as ei:
        specio.spec_from_dict({"mixture": [{"weight": "x", "spec": EXP_SPEC}]})
    assert "mixture[0]" in str(ei.value)
    with pytest.raises(SpecFormatError) as ei:
        specio.spec_from_dict({"kind": "exponential", "params": {"lambda": True}})
    assert "params.lambda" in str(ei.value)
    with pytest.raises(SpecFormatError):
        specio.spec_from_dict({"params": {"lambda": 1}})
