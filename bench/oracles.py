"""Exactness oracles, independent of the library's own re-verification.

Each check takes a request and what the library returned, and gives back a
list of problems (empty when the result is right).  The reference values are
recomputed here from the definitions, with this module's own atom order,
predicate renaming and binomial transfer, so a defect shared by a library
path and its built-in verifier still shows.  Library objects are read only
through their public attributes and methods.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from math import comb

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# independent reference math


@functools.lru_cache(maxsize=None)
def atoms(q: int) -> tuple[tuple[int, ...], ...]:
    """Sign vectors in the paper's order: negation count ascending, then
    descending binary value."""
    return tuple(sorted(
        itertools.product((0, 1), repeat=q),
        key=lambda eps: (q - sum(eps), tuple(-b for b in eps)),
    ))


def gamma(q: int) -> list[int]:
    return [q - sum(eps) for eps in atoms(q)]


@functools.lru_cache(maxsize=None)
def renamings(q: int) -> tuple[tuple[int, ...], ...]:
    """For each predicate permutation, the induced 0-based map on atoms."""
    table = atoms(q)
    index = {eps: i for i, eps in enumerate(table)}
    out = []
    for mapping in itertools.permutations(range(q)):
        images = []
        for eps in table:
            moved = [0] * q
            for i, bit in enumerate(eps):
                moved[mapping[i]] = bit
            images.append(index[tuple(moved)])
        out.append(tuple(images))
    return tuple(out)


def is_renaming_invariant(x) -> bool:
    """x is fixed by every predicate renaming, i.e. constant on each block of
    equal negation count."""
    q = (len(x)).bit_length() - 1
    first: dict[int, Fraction] = {}
    for g, v in zip(gamma(q), x):
        if first.setdefault(g, v) != v:
            return False
    return True


def product_value(x, h) -> Fraction:
    value = Fraction(1)
    for a in h:
        value *= x[a - 1]
    return value


def symmetrized_value(c, h) -> Fraction:
    """y_c on the description h (1-based atom indices): the average over all
    predicate renamings of the product function of the renamed point."""
    q = (len(c)).bit_length() - 1
    total = ZERO
    perms = renamings(q)
    for images in perms:
        moved = [ZERO] * len(c)
        for i, v in enumerate(c):
            moved[images[i]] = v
        total += product_value(moved, h)
    return total / len(perms)


def transfer_row(q: int, r: int, j: int) -> list[int]:
    """Row j of the binomial transfer from level r down to level q."""
    return [comb(r - q, k - j) if 0 <= k - j <= r - q else 0 for k in range(r + 1)]


def bernstein_vector(support, q: int) -> list[Fraction]:
    return [
        sum((w * x ** j * (1 - x) ** (q - j) for x, w in support), start=ZERO)
        for j in range(q + 1)
    ]


def holds(phi, assignment) -> bool:
    """Truth of a formula tree under {constant: sign vector}."""
    op = phi[0]
    if op == "lit":
        return assignment[phi[2]][phi[1] - 1] == 1
    if op == "not":
        return not holds(phi[1], assignment)
    if op == "and":
        return holds(phi[1], assignment) and holds(phi[2], assignment)
    if op == "or":
        return holds(phi[1], assignment) or holds(phi[2], assignment)
    return (not holds(phi[1], assignment)) or holds(phi[2], assignment)


def models(phi, q: int, constants: list[int]) -> list[tuple[int, ...]]:
    """All descriptions over `constants` (in that order) satisfying phi."""
    table = atoms(q)
    out = []
    for h in itertools.product(range(1, 2 ** q + 1), repeat=len(constants)):
        if holds(phi, {c: table[a - 1] for c, a in zip(constants, h)}):
            out.append(h)
    return out


# ---------------------------------------------------------------------------
# decompose_mix


def nabla_leaves(w, weight=Fraction(1)):
    """(weight, function) pairs of a nested mixture, flattened to its leaves."""
    parts = getattr(w, "parts", None)
    if parts is None:
        return [(weight, w)]
    out = []
    for part_weight, f in parts:
        out.extend(nabla_leaves(f, weight * part_weight))
    return out


def check_decomposition(req, d, lambdas: dict, descriptions, make_description) -> list[str]:
    """y = (1 + lambda) w1 - lambda w2 with convex nabla parts, and lambda the
    same for every request at one q.

    `descriptions` are the sampled atom tuples to re-check on (n = verify_n
    + 1, outside the library's grid); `make_description` builds the
    library's description object for one of them.
    """
    problems = []
    q = req["q"]
    lam = d.lam
    if lam < 0:
        problems.append(f"negative lambda {lam}")
    known = lambdas.setdefault(q, lam)
    if known != lam:
        problems.append(f"lambda {lam} differs from {known} seen earlier at q={q}")
    for label, part in (("w1", d.w1), ("w2", d.w2)):
        leaves = nabla_leaves(part)
        if any(f.tag != "nabla" for _, f in leaves):
            problems.append(f"{label} has a part that is not a row-sampling function")
        if any(wt < 0 for wt, _ in leaves) or sum(wt for wt, _ in leaves) != 1:
            problems.append(f"{label} is not a convex combination")
    for h in descriptions:
        target = sum(
            (wt * symmetrized_value(c, h) for wt, c in target_parts(req)), start=ZERO
        )
        theta = make_description(q, h)
        got = (1 + lam) * d.w1.eval_sd(theta) - lam * d.w2.eval_sd(theta)
        if got != target:
            problems.append(f"identity fails at {h}: {got} != {target}")
            break
    return problems


def target_parts(req):
    if req["kind"] == "y":
        return [(Fraction(1), req["c"])]
    return req["parts"]


# ---------------------------------------------------------------------------
# checker_sweep


def predicted_outcome(principle: str, desc) -> str | None:
    """The paper's prediction for a checker on a function descriptor, or None
    when the paper makes none."""
    cls = desc["class"]
    if principle in ("ex", "additivity"):
        return "pass"
    if cls == "product":
        if principle == "px":
            return "pass" if is_renaming_invariant(desc["x"]) else "fail"
        if principle == "ip":
            return "pass"
    if cls == "symmetrized":
        if principle == "px":
            return "pass"
        if principle == "ip":
            return "pass" if is_renaming_invariant(desc["c"]) else "fail"
    if cls == "nabla" and principle in ("px", "wip"):
        return "pass"
    return None


def check_report(req, report) -> list[str]:
    problems = []
    expected = predicted_outcome(req["principle"], req["f"])
    if expected is None:
        problems.append(f"no prediction for {req['principle']} on {req['f']['class']}")
    elif report.outcome != expected:
        problems.append(f"{req['principle']} gave {report.outcome}, paper predicts {expected}")
    if report.outcome == "fail" and (report.witness is None or report.witness.lhs == report.witness.rhs):
        problems.append("a failing report must carry a witness with lhs != rhs")
    if report.outcome == "pass" and report.witness is not None:
        problems.append("a passing report carries a witness")
    return problems


def check_restriction(values, direct_values) -> list[str]:
    """restrict(nabla(u, q), q - drop) equals nabla(u, q - drop) on the grid."""
    if len(values) != len(direct_values):
        return [f"grid has {len(values)} values, expected {len(direct_values)}"]
    for (h, got), want in zip(values, direct_values):
        if got != want:
            return [f"restriction differs at {h}: {got} != {want}"]
    return []


def check_sentence(value, reference_value) -> list[str]:
    if value != reference_value:
        return [f"sentence value {value} != {reference_value} summed over models"]
    return []


# ---------------------------------------------------------------------------
# extension_certs


def check_certificate(req, cert, transfer_down, other_status) -> list[str]:
    """Witness re-checked through `transfer_down` (the library's transfer)
    and this module's binomials; functional by its dot products.

    `other_status` is the other engine's status on the same input, or None
    when only one engine ran.
    """
    problems = []
    q, r, C = req["q"], req["r"], req["C"]
    rows = [transfer_row(q, r, j) for j in range(q + 1)]
    if (cert.q, cert.r, cert.method) != (q, r, req["method"]):
        problems.append(f"certificate for q={cert.q} r={cert.r} {cert.method}")
    if cert.status == "feasible":
        witness = cert.witness
        if witness is None or witness.q != r or len(witness.C) != r + 1:
            return problems + ["feasible certificate without a level-r witness"]
        D = list(witness.C)
        if any(v < 0 for v in D):
            problems.append("witness has a negative coordinate")
        mine = [sum(a * v for a, v in zip(row, D)) for row in rows]
        if mine != list(C):
            problems.append("witness does not marginalize to C")
        try:
            if list(transfer_down(witness, q)) != list(C):
                problems.append("witness fails the library transfer")
        except Exception as exc:  # the library refusing the witness is a rejection too
            problems.append(f"library transfer rejects the witness: {exc}")
    elif cert.status == "infeasible":
        y = cert.functional
        if y is None or len(y) != q + 1:
            return problems + ["infeasible certificate without a functional"]
        for k in range(r + 1):
            if sum(yj * row[k] for yj, row in zip(y, rows)) > 0:
                problems.append(f"functional is positive on column {k}")
                break
        if sum(a * b for a, b in zip(y, C)) <= 0:
            problems.append("functional does not separate C")
        if req["source"] == "bernstein":
            problems.append("a Bernstein point came back infeasible")
    else:
        problems.append(f"unknown status {cert.status!r}")
    if other_status is not None and other_status != cert.status:
        problems.append(f"engines disagree: {cert.status} vs {other_status}")
    return problems


# ---------------------------------------------------------------------------
# cli_processes


def check_cli(req, code, stdout: str, stderr: str, reference) -> list[str]:
    """The CLI contract: exit 0/1/2, a JSON error object on exit 1, no
    traceback, and stdout byte-identical to an in-process run.

    `reference` is (exit code or exception name, stdout) of `pureil.cli.main`
    on the same argv.
    """
    problems = []
    if code not in (0, 1, 2):
        problems.append(f"exit code {code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    if code in (0, 1):
        try:
            doc = json.loads(stdout)
        except ValueError:
            doc = None
            problems.append("stdout is not one JSON document")
        if code == 1 and not (isinstance(doc, dict) and isinstance(doc.get("error"), dict)):
            problems.append("domain error without a JSON error object")
        if code == 0 and isinstance(doc, dict) and "error" in doc:
            problems.append("exit 0 with an error object")
    if code != req["expect"]:
        problems.append(f"exit {code}, expected {req['expect']}")
    ref_code, ref_stdout = reference
    if ref_stdout != stdout:
        problems.append("stdout differs from the in-process run")
    if ref_code != code:
        problems.append(f"in-process run ended with {ref_code}, process with {code}")
    return problems
