from __future__ import annotations

from fractions import Fraction

import pytest

from pureil.errors import PureILError
from pureil.invariance import DiscreteMeasure
from pureil.language import all_state_descriptions
from pureil.nabla import UpsilonMatrix, nabla
from pureil.probability import (
    MixtureFunction,
    ProductFunction,
    SimplexPoint,
    SymmetrizedFunction,
    restrict,
)
from pureil.serialize import (
    format_rational,
    function_from_json,
    function_to_json,
    measure_from_json,
    parse_rational,
    parse_rational_list,
    upsilon_from_json,
    upsilon_to_json,
)

F = Fraction


def test_parse_rational():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("0") == 0
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational(7) == 7
    for bad in ["0.5", "1e3", "", "one", None, 1.5, "1/0", "-3/0"]:
        with pytest.raises(PureILError):
            parse_rational(bad)


def test_format_rational():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(0)) == "0"


def test_parse_rational_list():
    assert parse_rational_list("0,1/2,0") == [0, F(1, 2), 0]


def test_product_roundtrip():
    doc = {"class": "product", "q": 2, "x": ["1/4", "1/4", "1/4", "1/4"]}
    w = function_from_json(doc)
    assert isinstance(w, ProductFunction)
    assert function_to_json(w) == doc


def test_symmetrized_roundtrip():
    doc = {"class": "symmetrized", "q": 2, "c": ["0", "1", "0", "0"]}
    w = function_from_json(doc)
    assert isinstance(w, SymmetrizedFunction)
    assert function_to_json(w) == doc


def test_mixture_roundtrip():
    doc = {
        "class": "mixture",
        "parts": [
            {"w": "1/2", "f": {"class": "product", "q": 1, "x": ["1", "0"]}},
            {"w": "1/2", "f": {"class": "product", "q": 1, "x": ["0", "1"]}},
        ],
    }
    w = function_from_json(doc)
    assert isinstance(w, MixtureFunction)
    assert function_to_json(w) == doc


def test_nabla_roundtrip():
    doc = {
        "class": "nabla",
        "q": 2,
        "upsilon": {"nu": 2, "rows": [{"bits": "11", "mult": 1}, {"bits": "00", "mult": 1}]},
    }
    w = function_from_json(doc)
    direct = nabla(UpsilonMatrix(2, (((1, 1), 1), ((0, 0), 1))), 2)
    for theta in all_state_descriptions(2, 2):
        assert w.eval_sd(theta) == direct.eval_sd(theta)
    assert function_to_json(w) == doc


def test_function_from_json_errors():
    with pytest.raises(PureILError):
        function_from_json({"x": ["1"]})
    with pytest.raises(PureILError):
        function_from_json({"class": "gaussian"})
    with pytest.raises(PureILError):
        function_from_json({"class": "product", "q": 2, "x": ["1", "0"]})
    with pytest.raises(PureILError):
        function_from_json({"class": "product", "x": ["1", "0", "0"]})


def test_restricted_functions_have_no_wire_form():
    w = restrict(ProductFunction(SimplexPoint(2, (F(1, 4),) * 4)), 1)
    with pytest.raises(PureILError):
        function_to_json(w)


def test_upsilon_json():
    doc = {"nu": 3, "rows": [{"bits": "101", "mult": 2}, {"bits": "000", "mult": 1}]}
    u = upsilon_from_json(doc)
    assert u.rows == (((1, 0, 1), 2), ((0, 0, 0), 1))
    assert upsilon_to_json(u) == doc
    with pytest.raises(PureILError):
        upsilon_from_json({"rows": []})


def test_measure_json():
    rho = measure_from_json([{"x": "1/2", "w": "1"}])
    assert rho == DiscreteMeasure(((F(1, 2), F(1)),))
    with pytest.raises(PureILError):
        measure_from_json([{"x": "1/2"}])
