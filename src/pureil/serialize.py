"""Wire formats: everything rational travels as a "num/den" string.

Function descriptors::

    {"class": "product", "q": 2, "x": ["1/4", "1/4", "1/4", "1/4"]}
    {"class": "symmetrized", "c": ["0", "1", "0", "0"]}
    {"class": "mixture", "parts": [{"w": "1/2", "f": {...}}, ...]}
    {"class": "nabla", "q": 2, "upsilon": {...}}

Matrices::

    {"nu": 2, "rows": [{"bits": "11", "mult": 1}, {"bits": "00", "mult": 1}]}

Measures::

    [{"x": "1/2", "w": "1"}, ...]
"""

from __future__ import annotations

import re
from fractions import Fraction

from .decompose import Decomposition
from .errors import PureILError
from .feasibility import FeasibilityCertificate
from .invariance import AltNotation, DiscreteMeasure
from .nabla import NablaFunction, UpsilonMatrix, nabla
from .principles import CheckReport
from .probability import (
    MixtureFunction,
    ProbabilityFunction,
    ProductFunction,
    SimplexPoint,
    SymmetrizedFunction,
)

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL.match(text.strip()):
        raise PureILError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise PureILError(f"zero denominator in rational literal {text!r}") from None


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",")]


def upsilon_from_json(doc: dict) -> UpsilonMatrix:
    try:
        nu = int(doc["nu"])
        rows = tuple(
            (tuple(int(b) for b in entry["bits"]), int(entry["mult"]))
            for entry in doc["rows"]
        )
    except (KeyError, TypeError, ValueError) as err:
        raise PureILError(f"malformed matrix document: {err}") from err
    return UpsilonMatrix(nu, rows)


def upsilon_to_json(upsilon: UpsilonMatrix) -> dict:
    return {
        "nu": upsilon.nu,
        "rows": [
            {"bits": "".join(str(b) for b in bits), "mult": mult}
            for bits, mult in upsilon.rows
        ],
    }


def measure_from_json(doc: list) -> DiscreteMeasure:
    try:
        support = tuple((parse_rational(e["x"]), parse_rational(e["w"])) for e in doc)
    except (KeyError, TypeError) as err:
        raise PureILError(f"malformed measure document: {err}") from err
    return DiscreteMeasure(support)


def measure_to_json(rho: DiscreteMeasure) -> list:
    return [{"x": format_rational(x), "w": format_rational(w)} for x, w in rho.support]


def _simplex_from(values, q: int | None) -> SimplexPoint:
    entries = tuple(parse_rational(v) for v in values)
    size = len(entries)
    level = size.bit_length() - 1
    if 2 ** level != size:
        raise PureILError(f"entry count {size} is not a power of two")
    if q is not None and q != level:
        raise PureILError(f"declared level {q} but {size} entries imply {level}")
    return SimplexPoint(level, entries)


def function_from_json(doc: dict) -> ProbabilityFunction:
    if not isinstance(doc, dict) or "class" not in doc:
        raise PureILError("function document needs a 'class' field")
    tag = doc["class"]
    try:
        if tag == "product":
            return ProductFunction(_simplex_from(doc["x"], doc.get("q")))
        if tag == "symmetrized":
            return SymmetrizedFunction(_simplex_from(doc["c"], doc.get("q")))
        if tag == "mixture":
            parts = [
                (parse_rational(part["w"]), function_from_json(part["f"]))
                for part in doc["parts"]
            ]
            return MixtureFunction(parts)
        if tag == "nabla":
            return nabla(upsilon_from_json(doc["upsilon"]), int(doc["q"]))
    except (KeyError, TypeError, ValueError) as err:
        raise PureILError(f"malformed {tag} document: {err!r}") from err
    raise PureILError(f"unknown function class {tag!r}")


def function_to_json(w: ProbabilityFunction) -> dict:
    if isinstance(w, ProductFunction):
        return {"class": "product", "q": w.q, "x": [format_rational(v) for v in w.x.x]}
    if isinstance(w, SymmetrizedFunction):
        return {"class": "symmetrized", "q": w.q, "c": [format_rational(v) for v in w.c.x]}
    if isinstance(w, NablaFunction):
        return {"class": "nabla", "q": w.q, "upsilon": upsilon_to_json(w.upsilon)}
    if isinstance(w, MixtureFunction):
        return {
            "class": "mixture",
            "parts": [
                {"w": format_rational(weight), "f": function_to_json(f)}
                for weight, f in w.parts
            ],
        }
    raise PureILError(f"functions of class {w.tag!r} have no wire form")


def alt_to_json(C: AltNotation) -> dict:
    return {"q": C.q, "C": [format_rational(v) for v in C.C]}


def report_to_json(report: CheckReport) -> dict:
    doc = {
        "principle": report.principle,
        "bound": report.bound,
        "outcome": report.outcome,
    }
    if report.witness is not None:
        witness = {key: value for key, value in report.witness.inputs}
        witness["lhs"] = format_rational(report.witness.lhs)
        witness["rhs"] = format_rational(report.witness.rhs)
        doc["witness"] = witness
    return doc


def certificate_to_json(cert: FeasibilityCertificate) -> dict:
    doc = {"status": cert.status, "q": cert.q, "r": cert.r, "method": cert.method}
    if cert.witness is not None:
        doc["witness"] = [format_rational(v) for v in cert.witness.C]
    if cert.functional is not None:
        doc["functional"] = [format_rational(v) for v in cert.functional]
    return doc


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "lambda": format_rational(d.lam),
        "w1": function_to_json(d.w1),
        "w2": function_to_json(d.w2),
        "p_vectors": [[format_rational(v) for v in p.p] for p in d.p_vectors],
        "nu": d.nu,
        "g": d.g,
        "verification": {"verified_n": d.verified_n, "outcome": "pass"},
    }
