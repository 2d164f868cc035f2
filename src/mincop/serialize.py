"""JSON copula specs: parse and serialize every representation.

Schema (one document per copula):

    {"schema_version": 1, "dim": d, "kind": <kind>, ...params}

Kinds and their parameters (all axis indices 0-based):

    upper_frechet    {"representation": "segment"|"analytic"}   (default segment)
    lower_frechet    {"representation": ...}                    (d = 2 only)
    product          {}                                         (d >= 1)
    clayton_extreme  {}
    reflected        {"K": [ints], "inner": <spec>}
    permuted         {"sigma": [ints], "inner": <spec>}
    glue_product     {"left": <spec>, "right": <spec>}
    mixture          {"parts": [{"weight": w, "copula": <spec>}, ...]}
    checkerboard     {"cuts": [[...], ...], "shape": [n1, ...],
                      "masses": [flat row-major]}
    segments         {"segments": [{"start": [...], "end": [...],
                      "mass": m}, ...]}
    refuted          {"inner": <spec>, "a": [...], "b": [...], "p": p}

Catalog conveniences (parsed, always serialized structurally):

    triangle {}, shuffle_a {}, shuffle_b {},
    reflected_upper {"K": [ints]}, mixture_all_reflections {}

Round-trip guarantee: parse(serialize(C)) evaluates identically to C.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import catalog
from .core import (
    CheckerboardCopula,
    ClaytonExtreme,
    Copula,
    GlueProduct,
    LowerFrechet2d,
    MixtureCopula,
    Permuted,
    ProductCopula,
    Reflected,
    RefutedCopula,
    SegmentCopula,
    UpperFrechet,
)
from .errors import MincopError, SpecError

__all__ = ["parse_spec", "to_spec", "load", "dump", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


def _require(doc: dict, key: str):
    if key not in doc:
        where = f" (kind {doc['kind']!r})" if "kind" in doc else ""
        raise SpecError(f"copula spec missing field {key!r}{where}")
    return doc[key]


def parse_spec(doc: dict) -> Copula:
    if not isinstance(doc, dict):
        raise SpecError(f"copula spec must be an object, got {type(doc).__name__}")
    kind = _require(doc, "kind")
    parser = _PARSERS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise SpecError(f"unknown copula kind {kind!r}")
    try:
        return parser(doc)
    except MincopError:
        raise
    except (TypeError, ValueError) as exc:
        # malformed field values: wrong types, or masses that do not fit a shape
        raise SpecError(f"malformed {kind!r} spec: {exc}") from None


def _dim(doc: dict) -> int:
    d = _require(doc, "dim")
    if not isinstance(d, int) or d < 1:
        raise SpecError(f"dim must be a positive integer, got {d!r}")
    return d


def _parse_basic(kind: str):
    def parse(doc: dict) -> Copula:
        rep = doc.get("representation", "segment")
        return catalog.make_basic(kind, _dim(doc), representation=rep)

    return parse


_PARSERS: dict[str, Any] = {
    "upper_frechet": _parse_basic("upper_frechet"),
    "lower_frechet": _parse_basic("lower_frechet_2d"),
    "product": _parse_basic("product"),
    "clayton_extreme": _parse_basic("clayton_extreme"),
    "reflected": lambda doc: Reflected(
        parse_spec(_require(doc, "inner")), _require(doc, "K")
    ),
    "permuted": lambda doc: Permuted(
        parse_spec(_require(doc, "inner")), _require(doc, "sigma")
    ),
    "glue_product": lambda doc: GlueProduct(
        parse_spec(_require(doc, "left")), parse_spec(_require(doc, "right"))
    ),
    "mixture": lambda doc: MixtureCopula(
        [
            (parse_spec(_require(part, "copula")), _require(part, "weight"))
            for part in _require(doc, "parts")
        ]
    ),
    "checkerboard": lambda doc: CheckerboardCopula(
        [np.asarray(c, dtype=float) for c in _require(doc, "cuts")],
        np.asarray(_require(doc, "masses"), dtype=float).reshape(
            _require(doc, "shape")
        ),
    ),
    "segments": lambda doc: SegmentCopula(
        *(
            [_require(seg, key) for seg in _require(doc, "segments")]
            for key in ("start", "end", "mass")
        )
    ),
    "refuted": lambda doc: RefutedCopula(
        parse_spec(_require(doc, "inner")),
        np.asarray(_require(doc, "a"), dtype=float),
        np.asarray(_require(doc, "b"), dtype=float),
        float(_require(doc, "p")),
    ),
    "triangle": lambda doc: catalog.make_triangle_3d(),
    "shuffle_a": lambda doc: catalog.shuffle_a(),
    "shuffle_b": lambda doc: catalog.shuffle_b(),
    "reflected_upper": lambda doc: catalog.make_reflected_upper(
        _dim(doc), _require(doc, "K")
    ),
    "mixture_all_reflections": lambda doc: catalog.mixture_all_reflections(_dim(doc)),
}


def to_spec(C: Copula) -> dict:
    doc = _to_spec(C)
    doc["schema_version"] = SCHEMA_VERSION
    return doc


def _to_spec(C: Copula) -> dict:
    if isinstance(C, UpperFrechet):
        return {"kind": "upper_frechet", "dim": C.dim, "representation": "analytic"}
    if isinstance(C, LowerFrechet2d):
        return {"kind": "lower_frechet", "dim": 2, "representation": "analytic"}
    if isinstance(C, ProductCopula):
        return {"kind": "product", "dim": C.dim}
    if isinstance(C, ClaytonExtreme):
        return {"kind": "clayton_extreme", "dim": C.dim}
    if isinstance(C, Reflected):
        return {
            "kind": "reflected",
            "dim": C.dim,
            "K": sorted(C.K),
            "inner": _to_spec(C.inner),
        }
    if isinstance(C, Permuted):
        return {
            "kind": "permuted",
            "dim": C.dim,
            "sigma": list(C.sigma),
            "inner": _to_spec(C.inner),
        }
    if isinstance(C, GlueProduct):
        return {
            "kind": "glue_product",
            "dim": C.dim,
            "left": _to_spec(C.left),
            "right": _to_spec(C.right),
        }
    if isinstance(C, MixtureCopula):
        return {
            "kind": "mixture",
            "dim": C.dim,
            "parts": [
                {"weight": w, "copula": _to_spec(c)} for c, w in C.parts
            ],
        }
    if isinstance(C, CheckerboardCopula):
        return {
            "kind": "checkerboard",
            "dim": C.dim,
            "cuts": [c.tolist() for c in C.cuts],
            "shape": list(C.masses.shape),
            "masses": C.masses.ravel().tolist(),
        }
    if isinstance(C, SegmentCopula):
        return {
            "kind": "segments",
            "dim": C.dim,
            "segments": [
                {
                    "start": C.starts[i].tolist(),
                    "end": C.ends[i].tolist(),
                    "mass": float(C.masses[i]),
                }
                for i in range(len(C.masses))
            ],
        }
    if isinstance(C, RefutedCopula):
        return {
            "kind": "refuted",
            "dim": C.dim,
            "inner": _to_spec(C.inner),
            "a": C.a.tolist(),
            "b": C.b.tolist(),
            "p": C.p,
        }
    raise SpecError(f"cannot serialize {type(C).__name__}")


def load(path: str) -> Copula:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise SpecError(f"{path}: {exc}") from None
    return parse_spec(doc)


def dump(C: Copula, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_spec(C), fh, sort_keys=True)
        fh.write("\n")
