"""The names that perfbench/tracer.py wraps stay module attributes of the
library, so deleting or renaming one fails here rather than in a traced
benchmark run."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_are_module_attributes():
    # the tracer's source is executed, not imported, so no bytecode cache is
    # written beside it
    tracer: dict = {}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    targets = tracer["SPAN_TARGETS"]
    extra = {"stieltjes.muntz": ("coefficient_triangle",),
             "stieltjes.inversion": ("_work_prec",)}
    missing = [
        f"{modname}.{name}"
        for modname, names in [*targets.items(), *extra.items()]
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert not missing, missing
