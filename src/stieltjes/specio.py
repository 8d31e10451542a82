"""Strict JSON ingestion of distribution specs.

A spec document is either a catalog entry
    {"kind": "<name>", "params": {"<param>": <number>, ...}}
or a finite univariate mixture
    {"mixture": [{"weight": <number>, "spec": <spec>}, ...]}.
Unknown fields are rejected (strict parsing); errors cite the JSON path.
"""

from __future__ import annotations

import json
import math
import os

from . import dist_model as dm
from .errors import SpecFormatError


def _require_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFormatError("expected a number", path)
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the double range
        out = math.inf
    if not math.isfinite(out):
        raise SpecFormatError("expected a finite number", path)
    return out


def spec_from_dict(doc, path: str = "$"):
    """Build a distribution from a parsed spec document (strict)."""
    if not isinstance(doc, dict):
        raise SpecFormatError("spec must be a JSON object", path)
    keys = set(doc)
    if "mixture" in keys:
        extra = keys - {"mixture"}
        if extra:
            raise SpecFormatError(
                f"unknown field(s) {sorted(extra)} alongside 'mixture'", path
            )
        entries = doc["mixture"]
        if not isinstance(entries, list) or not entries:
            raise SpecFormatError("'mixture' must be a non-empty array", path + ".mixture")
        comps = []
        for i, entry in enumerate(entries):
            epath = f"{path}.mixture[{i}]"
            if not isinstance(entry, dict) or set(entry) != {"weight", "spec"}:
                raise SpecFormatError(
                    "mixture entries must be objects with exactly "
                    "'weight' and 'spec'", epath
                )
            w = _require_number(entry["weight"], epath + ".weight")
            sub = spec_from_dict(entry["spec"], epath + ".spec")
            if not isinstance(sub, dm.Distribution1D):
                raise SpecFormatError(
                    "mixture components must be univariate", epath + ".spec"
                )
            comps.append((w, sub))
        return dm.mixture(comps)

    extra = keys - {"kind", "params"}
    if extra:
        raise SpecFormatError(f"unknown field(s) {sorted(extra)}", path)
    if "kind" not in keys:
        raise SpecFormatError("spec needs 'kind' (or 'mixture')", path)
    kind = doc["kind"]
    if not isinstance(kind, str):
        raise SpecFormatError("'kind' must be a string", path + ".kind")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecFormatError("'params' must be an object", path + ".params")
    clean = {
        k: _require_number(v, f"{path}.params.{k}") for k, v in params.items()
    }
    return dm.make_catalog(kind, clean)


def parse_spec(source: str):
    """Parse a spec from inline JSON (starts with '{') or a file path."""
    text = source.strip()
    if not text.startswith("{"):
        if not os.path.exists(source):
            raise SpecFormatError(f"spec file not found: {source}")
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from exc
    return spec_from_dict(doc)
