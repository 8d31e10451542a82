"""The names that perfbench/tracer.py wraps stay module attributes of the
library, so deleting or renaming one fails here rather than in a traced
benchmark run."""

import importlib
from pathlib import Path

import pytest

from stieltjes import dist_model as dm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    # the tracer's source is executed, not imported, so no bytecode cache is
    # written beside it
    tracer: dict = {}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    return tracer


def test_traced_names_are_module_attributes():
    targets = _tracer()["SPAN_TARGETS"]
    extra = {"stieltjes.muntz": ("coefficient_triangle",),
             "stieltjes.inversion": ("_work_prec",)}
    missing = [
        f"{modname}.{name}"
        for modname, names in [*targets.items(), *extra.items()]
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert not missing, missing


# one law per catalog name; a name missing here fails the test below
_CATALOG_EXAMPLES = {
    "exponential": {"lambda": 1.0},
    "gamma": {"lambda": 1.0, "q": 2.0},
    "positive-stable": {"alpha": 0.5},
    "point-mass": {"location": 0.7},
    "marshall-olkin": {"lambda1": 1.0, "lambda2": 2.0, "lambda12": 0.5},
    "freund": {"alpha": 1.0, "alpha_prime": 2.0, "beta": 1.5, "beta_prime": 0.7},
    "moran-downton": {"r": 0.5},
    "bivariate-gamma": {"r": 0.4, "q": 1.5},
    "trivariate-gamma": {"alpha": 1.0, "a": 0.5, "b": 0.5},
    "blm": {"theta": 3.0, "f_lambda": 2.0, "g_lambda": 2.0},
    "product-exponential": {"lambda1": 1.0, "lambda2": 2.0, "lambda3": 3.0},
}


def test_catalog_examples_cover_the_catalog():
    assert sorted(_CATALOG_EXAMPLES) == dm.catalog_names()


@pytest.mark.parametrize("name", sorted(_CATALOG_EXAMPLES))
def test_catalog_law_methods_are_traced(name):
    # the tracer wraps the LAW_METHODS found in the __dict__ of dist_model's
    # law classes; a law whose cdf or survival resolves elsewhere would be
    # invisible to dist_model.points
    law_methods = _tracer()["LAW_METHODS"]
    law_classes = [c for c in vars(dm).values()
                   if isinstance(c, type) and issubclass(c, (dm.Distribution1D, dm.JointDist))]
    law = dm.make_catalog(name, _CATALOG_EXAMPLES[name])
    for meth in ("cdf", "survival"):
        assert meth in law_methods
        fn = getattr(type(law), meth)
        assert any(vars(c).get(meth) is fn for c in law_classes), (name, meth)
