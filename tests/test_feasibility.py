from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pureil import feasibility
from pureil.errors import CapExceededError, PureILError
from pureil.feasibility import FeasibilityCertificate, extendable, verify_certificate
from pureil.invariance import AltNotation, DiscreteMeasure, bernstein, dirac, transfer, transfer_matrix
from reference import fraction_fourier_motzkin, fraction_phase1_simplex

F = Fraction


def test_infeasible_spike():
    C = AltNotation(2, (F(0), F(1, 2), F(0)))
    cert = extendable(C, 3)
    assert cert.status == "infeasible"
    assert verify_certificate(C, cert)


def test_feasible_uniform():
    C = AltNotation(2, (F(1, 4), F(1, 4), F(1, 4)))
    cert = extendable(C, 6)
    assert cert.status == "feasible"
    assert verify_certificate(C, cert)
    assert transfer(cert.witness, 2) == C
    # an explicit witness exists too: the midpoint moment vector
    assert verify_certificate(
        C, FeasibilityCertificate("feasible", 2, 6, bernstein(dirac(F(1, 2)), 6), None, "by-hand")
    )


def test_feasible_point_mass_any_level():
    C = AltNotation(2, (F(1), F(0), F(0)))
    for r in (2, 3, 5, 8):
        cert = extendable(C, r)
        assert cert.status == "feasible"
        assert verify_certificate(C, cert)


def test_same_level_extension():
    C = AltNotation(2, (F(1, 2), F(1, 8), F(1, 4)))
    cert = extendable(C, 2)
    assert cert.status == "feasible"
    assert cert.witness.C == C.C


def test_extendable_errors():
    C = AltNotation(2, (F(1, 4), F(1, 4), F(1, 4)))
    with pytest.raises(PureILError):
        extendable(C, 1)
    with pytest.raises(PureILError):
        extendable(C, 99)
    with pytest.raises(PureILError):
        extendable(C, 4, method="lucky-guess")


def _grid_points(count: int) -> list[AltNotation]:
    points = []
    for i in range(11):
        for j in range(11):
            c0, c1 = F(i, 10), F(j, 10)
            c2 = 1 - c0 - 2 * c1
            if c2 >= 0:
                points.append(AltNotation(2, (c0, c1, c2)))
            if len(points) == count:
                return points
    return points


def test_monotone_infeasibility_on_grid():
    for C in _grid_points(20):
        seen_infeasible = False
        for r in range(3, 7):
            cert = extendable(C, r)
            assert verify_certificate(C, cert)
            if seen_infeasible:
                assert cert.status == "infeasible"
            seen_infeasible = seen_infeasible or cert.status == "infeasible"


def test_engines_agree():
    for C in _grid_points(20):
        for r in (3, 5):
            by_fm = extendable(C, r, method="fourier-motzkin")
            by_simplex = extendable(C, r, method="simplex")
            assert by_fm.status == by_simplex.status
            assert verify_certificate(C, by_fm)
            assert verify_certificate(C, by_simplex)


def test_bernstein_points_always_extend():
    measures = [
        dirac(F(1, 3)),
        DiscreteMeasure(((F(0), F(1, 4)), (F(2, 3), F(3, 4)))),
        DiscreteMeasure(((F(1, 4), F(1, 3)), (F(4, 5), F(2, 3)))),
    ]
    rng = random.Random(41)
    for rho in measures:
        q = rng.randint(1, 3)
        C = bernstein(rho, q)
        for r in (q + 1, q + 4, 13):
            cert = extendable(C, r)
            assert cert.status == "feasible", (rho, q, r)
            assert verify_certificate(C, cert)


def test_simplex_used_above_threshold():
    C = bernstein(dirac(F(1, 2)), 2)
    cert = extendable(C, 13)
    assert cert.method == "simplex"
    assert cert.status == "feasible"


def test_functional_rejects_feasible_point():
    # a functional for one C must not verify against a feasible C
    bad = AltNotation(2, (F(0), F(1, 2), F(0)))
    good = AltNotation(2, (F(1, 4), F(1, 4), F(1, 4)))
    cert = extendable(bad, 3)
    swapped = FeasibilityCertificate("infeasible", 2, 3, None, cert.functional, cert.method)
    assert not verify_certificate(good, swapped)


def _level_vectors(rng: random.Random, q: int) -> list[AltNotation]:
    """A Bernstein vector of a random measure and a random vector with a zero entry."""
    points = rng.sample(sorted({F(a, b) for b in range(2, 9) for a in range(b + 1)}), rng.randint(1, 3))
    weights = [rng.randint(1, 5) for _ in points]
    rho = DiscreteMeasure(tuple((x, F(w, sum(weights))) for x, w in zip(points, weights)))
    u = [rng.randint(0, 9) for _ in range(q + 1)]
    u[rng.randrange(q + 1)] = 0
    if not any(u):
        u[0] = 1
    return [bernstein(rho, q), AltNotation(q, tuple(F(v, sum(u) * comb(q, k)) for k, v in enumerate(u)))]


def _same_as_fraction_engine(engine, reference, matrix, C, r):
    """The integer engine on the integer matrix returns exactly what the
    Fraction engine returns on the same matrix as Fractions."""
    got = engine([[int(v) for v in row] for row in matrix], list(C), r)
    want = reference([[F(v) for v in row] for row in matrix], list(C), r)
    assert got == want and type(got[1]) is type(want[1]), (matrix, C, r)
    assert all(type(v) is F for v in got[1])
    return got


def test_fourier_motzkin_matches_fraction_engine():
    rng = random.Random(5)
    statuses = set()
    for q in range(1, 6):
        for r in range(q, 12):
            for C in _level_vectors(rng, q):
                got = _same_as_fraction_engine(
                    feasibility._fourier_motzkin, fraction_fourier_motzkin, transfer_matrix(q, r), C.C, r
                )
                statuses.add(got[0])
    assert statuses == {"feasible", "infeasible"}


def test_simplex_matches_fraction_engine():
    rng = random.Random(6)
    statuses = set()
    for q in range(1, 6):
        for r in range(q, 31):
            # one vector per level pair, alternating the two kinds
            C = _level_vectors(rng, q)[r % 2]
            got = _same_as_fraction_engine(
                feasibility._phase1_simplex, fraction_phase1_simplex, transfer_matrix(q, r), C.C, r
            )
            statuses.add(got[0])
    assert statuses == {"feasible", "infeasible"}


def test_engines_match_fraction_engines_on_general_matrices():
    # non-unit pivots, row swaps and dependent rows, which transfer matrices
    # never have: rows carry denominators through the reduction
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(2, 5)
        matrix = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            matrix[-1] = [2 * v for v in matrix[0]]
        C = [F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(rows)]
        for engine, reference in (
            (feasibility._fourier_motzkin, fraction_fourier_motzkin),
            (feasibility._phase1_simplex, fraction_phase1_simplex),
        ):
            _same_as_fraction_engine(engine, reference, matrix, C, cols - 1)


def test_inconsistent_zero_row_returns_early():
    # the second row repeats the first, so the reduction leaves 0 = 1/3 - 1/2
    matrix = [[1, 1, 0], [1, 1, 0]]
    C = [F(1, 2), F(1, 3)]
    got = _same_as_fraction_engine(feasibility._fourier_motzkin, fraction_fourier_motzkin, matrix, C, 2)
    assert got == ("infeasible", (F(1), F(-1)))
    # the same after a row swap and a pivot that is not 1
    matrix = [[0, 0, 0], [2, 4, 6]]
    C = [F(1, 7), F(1, 3)]
    got = _same_as_fraction_engine(feasibility._fourier_motzkin, fraction_fourier_motzkin, matrix, C, 2)
    assert got == ("infeasible", (F(1), F(0)))
    _same_as_fraction_engine(feasibility._phase1_simplex, fraction_phase1_simplex, matrix, C, 2)


def test_fourier_motzkin_cap(monkeypatch):
    # at q = 3, r = 11 the largest elimination stage holds 18 constraints,
    # more than the 12 the elimination starts from
    C = bernstein(dirac(F(1, 3)), 3)
    monkeypatch.setattr(feasibility, "FM_MAX_CONSTRAINTS", 18)
    assert extendable(C, 11, method="fourier-motzkin").status == "feasible"
    monkeypatch.setattr(feasibility, "FM_MAX_CONSTRAINTS", 17)
    with pytest.raises(CapExceededError):
        extendable(C, 11, method="fourier-motzkin")


def test_fourier_motzkin_cap_refuses_before_a_later_contradiction(monkeypatch):
    # infeasible at q = 4, r = 11: the elimination stages hold 15, 19, 24,
    # 30, 37 and 45 constraints, and the contradiction appears in the stage
    # after the largest one, so a cap below 45 refuses the run before it
    C = AltNotation(4, (F(1, 3), F(1, 18), F(0), F(1, 36), F(1, 3)))
    assert extendable(C, 11, method="simplex").status == "infeasible"
    monkeypatch.setattr(feasibility, "FM_MAX_CONSTRAINTS", 45)
    assert extendable(C, 11, method="fourier-motzkin").status == "infeasible"
    monkeypatch.setattr(feasibility, "FM_MAX_CONSTRAINTS", 44)
    with pytest.raises(CapExceededError):
        extendable(C, 11, method="fourier-motzkin")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    q=st.integers(1, 4),
    extra=st.integers(0, 7),
    entries=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=5, max_size=5),
)
def test_engines_agree_on_drawn_vectors(q, extra, entries):
    r = min(q + extra, 11)
    entries = entries[: q + 1]
    total = sum(comb(q, k) * v for k, v in enumerate(entries))
    if total == 0:
        entries, total = [F(1)] + entries[1:], 1 + total
    C = AltNotation(q, tuple(v / total for v in entries))
    by_fm = extendable(C, r, method="fourier-motzkin")
    by_simplex = extendable(C, r, method="simplex")
    assert by_fm.status == by_simplex.status
    assert verify_certificate(C, by_fm)
    assert verify_certificate(C, by_simplex)
