"""Acceptance suite: exact end-to-end identities at desk scale.

Each test prints one pass/fail line (visible with ``pytest -s`` or ``-v``)
and enforces its wall-clock budget.  All comparisons are exact rational
equalities; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, lcm

from pureil.decompose import decompose_y
from pureil.feasibility import extendable, verify_certificate
from pureil.invariance import (
    AltNotation,
    DiscreteMeasure,
    bernstein,
    dirac,
    from_alt,
    transfer,
)
from pureil.language import StateDescription, all_state_descriptions
from pureil.nabla import (
    FrequencyVector,
    UpsilonMatrix,
    build_phi,
    build_upsilon,
    nabla,
    nabla_no_replacement,
)
from pureil.principles import check_additivity, check_ex, check_ip, check_px, check_wip
from pureil.probability import (
    MixtureFunction,
    ProductFunction,
    SimplexPoint,
    SymmetrizedFunction,
    restrict,
    uniform_point,
)
from reference import nabla_expansion

F = Fraction

TWO_BY_TWO = UpsilonMatrix(2, (((1, 1), 1), ((0, 0), 1)))


@contextmanager
def criterion(name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"criterion {name}: FAIL (took {elapsed:.2f}s, budget {budget:g}s)")
        raise AssertionError(f"{name} exceeded its {budget}s budget")
    print(f"criterion {name}: PASS ({elapsed:.2f}s < {budget:g}s)")


def simplex(*values) -> SimplexPoint:
    vals = [F(v) for v in values]
    q = len(vals).bit_length() - 1
    return SimplexPoint(q, tuple(vals))


def random_alt(rng: random.Random, q: int) -> AltNotation:
    raw = [F(rng.randint(0, 9)) for _ in range(q + 1)]
    if all(v == 0 for v in raw):
        raw[0] = F(1)
    total = sum(comb(q, k) * v for k, v in enumerate(raw))
    return AltNotation(q, tuple(v / total for v in raw))


def functions_agree(a, b, q: int, n_max: int) -> bool:
    for n in range(n_max + 1):
        for theta in all_state_descriptions(q, n):
            if a.eval_sd(theta) != b.eval_sd(theta):
                return False
    return True


def test_criterion_01_bernstein_family_consistency():
    measures = [
        dirac(F(1, 2)),
        DiscreteMeasure(((F(0), F(1, 2)), (F(1), F(1, 2)))),
        DiscreteMeasure(((F(1, 4), F(1, 3)), (F(4, 5), F(2, 3)))),
    ]
    with criterion("01 bernstein-family-consistency", 5.0):
        for rho in measures:
            for r in range(2, 6):
                high = ProductFunction(from_alt(bernstein(rho, r)))
                for q in range(1, r):
                    low = ProductFunction(from_alt(bernstein(rho, q)))
                    assert functions_agree(restrict(high, q), low, q, 3)


def test_criterion_02_transfer_base_case_and_transitivity():
    rng = random.Random(101)
    with criterion("02 transfer-base-case", 1.0):
        for i in range(100):
            q = 1 + i % 4
            D = random_alt(rng, q + 1)
            C = transfer(D, q)
            assert C.C == tuple(D.C[j] + D.C[j + 1] for j in range(q + 1))
        for _ in range(25):
            D = random_alt(rng, 5)
            assert transfer(transfer(D, 3), 1) == transfer(D, 1)


def test_criterion_03_extendability_certificates():
    with criterion("03 extendability-certificates", 5.0):
        spike = AltNotation(2, (F(0), F(1, 2), F(0)))
        cert = extendable(spike, 3)
        assert cert.status == "infeasible"
        assert verify_certificate(spike, cert)

        flat = AltNotation(2, (F(1, 4), F(1, 4), F(1, 4)))
        cert = extendable(flat, 10)
        assert cert.status == "feasible"
        assert verify_certificate(flat, cert)
        assert transfer(cert.witness, 2) == flat
        assert all(v >= 0 for v in cert.witness.C)

        grid = []
        for i in range(11):
            for j in range(11):
                c0, c1 = F(i, 10), F(j, 10)
                c2 = 1 - c0 - 2 * c1
                if c2 >= 0 and len(grid) < 20:
                    grid.append(AltNotation(2, (c0, c1, c2)))
        assert len(grid) == 20
        for C in grid:
            infeasible_seen = False
            for r in range(3, 7):
                cert = extendable(C, r)
                assert verify_certificate(C, cert)
                if infeasible_seen:
                    assert cert.status == "infeasible"
                infeasible_seen = infeasible_seen or cert.status == "infeasible"


def test_criterion_04_row_sampling_language_invariance():
    rng = random.Random(104)
    matrices = [TWO_BY_TWO]
    for _ in range(3):
        rows = [tuple(rng.randint(0, 1) for _ in range(6)) for _ in range(6)]
        matrices.append(UpsilonMatrix(6, tuple((row, 1) for row in rows)))
    with criterion("04 row-sampling-language-invariance", 10.0):
        for upsilon in matrices:
            for q in (1, 2):
                high = nabla(upsilon, q + 1)
                low = nabla(upsilon, q)
                assert functions_agree(restrict(high, q), low, q, 3)


def test_criterion_05_row_sampling_weak_irrelevance():
    rng = random.Random(105)
    rows = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4)]
    random_matrix = UpsilonMatrix(4, tuple((row, 1) for row in rows))
    with criterion("05 row-sampling-weak-irrelevance", 10.0):
        for upsilon in (TWO_BY_TWO, random_matrix):
            for p, r in ((1, 1), (1, 2), (2, 1)):
                report = check_wip(nabla(upsilon, p + r), p, r, 4)
                assert report.passed, report


def test_criterion_06_replacement_gap_bound():
    with criterion("06 replacement-gap-bound", 5.0):
        gaps = []
        for nu in (4, 8, 16):
            upsilon = UpsilonMatrix(nu, (((1,) * nu, nu // 2), ((0,) * nu, nu // 2)))
            with_rep = nabla(upsilon, 2)
            without = nabla_no_replacement(upsilon, 2)
            worst = max(
                abs(with_rep.eval_sd(t) - without.eval_sd(t))
                for n in (0, 1, 2)
                for t in all_state_descriptions(2, n)
            )
            assert worst <= F(2 * (2 - 1), 2 * nu)
            gaps.append(worst)
        assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_07_expansion_identity():
    cases = []
    for q in (2, 3):
        one_hot = [F(0)] * 2 ** q
        one_hot[1] = F(1)
        for c in (SimplexPoint(q, tuple(one_hot)), uniform_point(q)):
            uniform_p = FrequencyVector((F(1, q),) * q)
            spike_p = FrequencyVector((F(1),) + (F(0),) * (q - 1))
            for p in (uniform_p, spike_p):
                cases.append((c, p))
    with criterion("07 expansion-identity", 10.0):
        for c, p in cases:
            q = c.q
            nu = lcm(*(v.denominator for v in list(c.x) + list(p.p)))
            expanded = nabla_expansion(c, p, nu)
            direct = nabla(build_upsilon(build_phi(c, nu), p, nu), q)
            assert functions_agree(expanded, direct, q, 3)


def test_criterion_08_decomposition():
    rng = random.Random(108)
    with criterion("08 decomposition", 30.0):
        d = decompose_y(simplex(0, 1, 0, 0), verify_n=3)
        assert d.lam == 1 and d.g == 1
        phi = build_phi(simplex(0, 1, 0, 0), 2)
        w1_expected = nabla(build_upsilon(phi, FrequencyVector((F(1, 2), F(1, 2))), 2), 2)
        w2_expected = MixtureFunction(
            [
                (F(1, 2), nabla(build_upsilon(phi, FrequencyVector((F(1), F(0))), 2), 2)),
                (F(1, 2), nabla(build_upsilon(phi, FrequencyVector((F(0), F(1))), 2), 2)),
            ]
        )
        assert functions_agree(d.w1, w1_expected, 2, 3)
        assert functions_agree(d.w2, w2_expected, 2, 3)
        y = SymmetrizedFunction(simplex(0, 1, 0, 0))
        for n in range(4):
            for theta in all_state_descriptions(2, n):
                assert y.eval_sd(theta) == 2 * d.w1.eval_sd(theta) - d.w2.eval_sd(theta)

        raw = [rng.randint(0, 8) for _ in range(8)]
        raw[0] += 1
        c3 = SimplexPoint(3, tuple(F(v, sum(raw)) for v in raw))
        d3 = decompose_y(c3, verify_n=2)
        y3 = SymmetrizedFunction(c3)
        for n in range(3):
            for theta in all_state_descriptions(3, n):
                lhs = y3.eval_sd(theta)
                rhs = (1 + d3.lam) * d3.w1.eval_sd(theta) - d3.lam * d3.w2.eval_sd(theta)
                assert lhs == rhs

        lams = set()
        for _ in range(5):
            raw = [rng.randint(0, 6) for _ in range(4)]
            raw[rng.randint(0, 3)] += 1
            c = SimplexPoint(2, tuple(F(v, sum(raw)) for v in raw))
            lams.add(decompose_y(c, verify_n=1).lam)
        assert lams == {F(1)}


def test_criterion_09_checker_witnesses():
    with criterion("09 checker-witnesses", 5.0):
        y = SymmetrizedFunction(simplex(0, 1, 0, 0))
        ip_report = check_ip(y, 3)
        assert ip_report.outcome == "fail"
        assert (ip_report.witness.lhs, ip_report.witness.rhs) == (F(1, 2), F(1, 4))
        wip_report = check_wip(y, 1, 1, 2)
        assert wip_report.outcome == "fail"
        assert (wip_report.witness.lhs, wip_report.witness.rhs) == (F(0), F(1, 4))

        for x in (uniform_point(2), simplex(F(1, 6), F(1, 3), F(1, 4), F(1, 4))):
            assert check_ip(ProductFunction(x), 4).passed

        rng = random.Random(109)
        rows = [tuple(rng.randint(0, 1) for _ in range(5)) for _ in range(5)]
        matrices = [
            TWO_BY_TWO,
            UpsilonMatrix(4, (((1, 1, 1, 1), 2), ((0, 0, 0, 0), 2))),
            UpsilonMatrix(5, tuple((row, 1) for row in rows)),
        ]
        for upsilon in matrices:
            for q in (1, 2):
                w = nabla(upsilon, q)
                assert check_px(w, 3).passed
                assert check_ex(w, 3).passed
                assert check_additivity(w, 3).passed


def test_criterion_10_corner_mixture_equals_row_sampling():
    with criterion("10 corner-mixture-tie-in", 2.0):
        corners = [
            (F(1, 4), ProductFunction(simplex(1, 0, 0, 0))),
            (F(1, 4), ProductFunction(simplex(0, 1, 0, 0))),
            (F(1, 4), ProductFunction(simplex(0, 0, 1, 0))),
            (F(1, 4), ProductFunction(simplex(0, 0, 0, 1))),
        ]
        mixture = MixtureFunction(corners)
        sampled = nabla(TWO_BY_TWO, 2)
        assert functions_agree(mixture, sampled, 2, 3)
        for atom in (1, 2, 3, 4):
            assert sampled.eval_sd(StateDescription(2, (atom,))) == F(1, 4)
        assert check_px(sampled, 3).passed
