"""The four workloads: seeded request blocks, how to run one request, how to
check it, and the counters each request contributes.

Every workload is a sequence of blocks.  A block holds a fixed multiset of
request shapes (kind and sizes), so the mix of work is the same for every
seed; the seed only shuffles a block and draws the rationals inside it.  A
run issues whole blocks, one request at a time (a closed loop with one
client).  Requests are plain data; `execute` turns one into library calls
through the `pureil` package, looked up at call time so traced runs see the
wrapped functions.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, factorial, lcm

import oracles

F = Fraction

WHY = {
    "decompose_mix": (
        "headline decompose_y/decompose_px at q=2..4; loads nabla, linalg and the cold "
        "probability grid; the only in-process workload that runs linalg"
    ),
    "checker_sweep": (
        "px/ex/ip/wip/additivity sweeps, restrict grids and 4-5 constant sentences; loads "
        "language, principles, formulas and probability memos; linalg and feasibility idle"
    ),
    "extension_certs": (
        "extendable at q=2..5, half forced Fourier-Motzkin (r<=11), half simplex (r<=30); "
        "the only in-process workload that runs feasibility"
    ),
    "cli_processes": (
        "one pureil CLI process per request over all 7 subcommands, 12% malformed; the only "
        "workload that pays interpreter start, import, cli and serialize"
    ),
}

# Known defects the workloads keep out, so a run does not pay for them.
KNOWN_DEFECTS = [
    {
        "what": "eval_sentence has no cap: a sentence at q=12 enumerates 4096^k models and hangs",
        "why_left_out": "each hit would cost its full timeout in every run",
    },
]
# Known defects the workloads keep in: these requests count as failed.
KNOWN_CRASHES = {
    "extend_zero_denominator": "extend --C 1/0,... raises ZeroDivisionError with a traceback",
    "eval_bad_constants": "eval --constants x raises ValueError with a traceback",
}


# ---------------------------------------------------------------------------
# random rationals


def simplex(rng: random.Random, size: int, den: int) -> list[Fraction]:
    cuts = sorted(rng.randint(0, den) for _ in range(size - 1))
    return [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]


def exact_simplex(rng: random.Random, size: int, den: int) -> list[Fraction]:
    """A simplex point whose entries have least common denominator `den`."""
    while True:
        x = simplex(rng, size, den)
        if lcm(*(v.denominator for v in x)) == den:
            return x


def invariant_point(rng: random.Random, q: int) -> list[Fraction]:
    """A simplex point constant on each negation-count block."""
    weights = [rng.randint(0, 4) for _ in range(q + 1)]
    if not any(weights):
        weights[rng.randrange(q + 1)] = 1
    gam = oracles.gamma(q)
    total = sum(weights[g] for g in gam)
    return [F(weights[g], total) for g in gam]


def asymmetric_point(rng: random.Random, q: int) -> list[Fraction]:
    while True:
        x = simplex(rng, 2 ** q, rng.choice([5, 7, 8]))
        if not oracles.is_renaming_invariant(x):
            return x


def upsilon_rows(rng: random.Random, nu: int, distinct: int) -> list[tuple[tuple[int, ...], int]]:
    """A nu x nu 0/1 matrix with `distinct` distinct rows, as (row,
    multiplicity) pairs."""
    rows: dict[tuple[int, ...], int] = {}
    while len(rows) < distinct:
        rows[tuple(rng.randint(0, 1) for _ in range(nu))] = 1
    keys = list(rows)
    for _ in range(nu - distinct):
        rows[rng.choice(keys)] += 1
    return list(rows.items())


def nabla_desc(rng: random.Random, q: int, nu: int, distinct: int) -> dict:
    """nu and the distinct-row count are part of a request's shape: they set
    the number of picks, distinct**q, and with it the cost."""
    return {"class": "nabla", "q": q, "nu": nu, "rows": upsilon_rows(rng, nu, distinct)}


def formula(rng: random.Random, q: int, constants: list[int]):
    """A random formula tree mentioning every listed constant."""
    nodes = [("lit", rng.randint(1, q), c) for c in constants]
    nodes += [("lit", rng.randint(1, q), rng.choice(constants)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(nodes)
    nodes = [("not", n) if rng.random() < 0.3 else n for n in nodes]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        op = rng.choice(["and", "or", "or", "imp"])
        nodes[i : i + 2] = [(op, nodes[i], nodes[i + 1])]
    return nodes[0]


def render(phi) -> str:
    op = phi[0]
    if op == "lit":
        return f"P{phi[1]}(a{phi[2]})"
    if op == "not":
        return "!" + render(phi[1])
    symbol = {"and": "&", "or": "|", "imp": "->"}[op]
    return f"({render(phi[1])} {symbol} {render(phi[2])})"


# ---------------------------------------------------------------------------
# building library objects from descriptors


def build(lib, desc):
    cls = desc["class"]
    if cls == "product":
        return lib.ProductFunction(lib.SimplexPoint(len(desc["x"]).bit_length() - 1, desc["x"]))
    if cls == "symmetrized":
        return lib.symmetrized(lib.SimplexPoint(len(desc["c"]).bit_length() - 1, desc["c"]))
    if cls == "mixture":
        return lib.MixtureFunction([(w, build(lib, f)) for w, f in desc["parts"]])
    return lib.nabla(lib.UpsilonMatrix(desc["nu"], tuple(desc["rows"])), desc["q"])


def to_wire(desc) -> dict:
    """The descriptor in the CLI's JSON wire format."""
    cls = desc["class"]
    if cls == "product":
        return {"class": "product", "x": [str(v) for v in desc["x"]]}
    if cls == "symmetrized":
        return {"class": "symmetrized", "c": [str(v) for v in desc["c"]]}
    if cls == "mixture":
        return {"class": "mixture", "parts": [{"w": str(w), "f": to_wire(f)} for w, f in desc["parts"]]}
    return {"class": "nabla", "q": desc["q"], "upsilon": upsilon_wire(desc)}


def upsilon_wire(desc) -> dict:
    return {
        "nu": desc["nu"],
        "rows": [{"bits": "".join(map(str, bits)), "mult": m} for bits, m in desc["rows"]],
    }


def components(f) -> int:
    """Product components a built function evaluates through."""
    if hasattr(f, "components"):
        return len(f.components)
    return sum(components(g) for _, g in f.parts)


# ---------------------------------------------------------------------------
# decompose_mix

# (kind, q, verify_n, denominators): 30% q=2, 45% q=3, 10% two-part q=3
# mixtures, 15% q=4, so p90 falls inside the q=4 class.  The denominators are
# part of the shape: they set the matrix scale nu, and with it the cost, so
# every block and every seed carries the same costs.
DECOMPOSE_BLOCK = (
    [("y", 2, 4, (d,)) for d in (2, 3, 4, 6, 4, 6)]
    + [("y", 3, 3, (d,)) for d in (2, 3, 4, 6, 2, 3, 4, 6, 4)]
    + [("px", 3, 3, (2, 3)), ("px", 3, 3, (4, 6))]
    + [("y", 4, 1, (4,))] * 3
)
PROBES = 4


def decompose_point(rng: random.Random, q: int, den: int) -> list[Fraction]:
    """A level-q point with least common denominator `den` whose support
    tells all q predicates apart.  Both fix the sizes of the matrices its
    decomposition builds (nu, and the distinct rows of each upsilon), and with
    them the cost."""
    while True:
        c = exact_simplex(rng, 2 ** q, den)
        support = [eps for eps, v in zip(oracles.atoms(q), c) if v]
        if len({tuple(eps[k] for eps in support) for k in range(q)}) == q:
            return c


def decompose_block(rng: random.Random, block: int) -> list[dict]:
    out = []
    for kind, q, vn, dens in DECOMPOSE_BLOCK:
        req = {"kind": kind, "q": q, "vn": vn}
        if kind == "y":
            req["c"] = decompose_point(rng, q, dens[0])
        else:
            w = rng.choice([F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(3, 4)])
            req["parts"] = [(w, decompose_point(rng, q, dens[0])),
                            (1 - w, decompose_point(rng, q, dens[1]))]
        # re-check descriptions one constant past the library's own grid
        req["probes"] = [
            tuple(rng.randint(1, 2 ** q) for _ in range(vn + 1)) for _ in range(PROBES)
        ]
        out.append(req)
    rng.shuffle(out)
    return out


def decompose_execute(lib, req):
    q, vn = req["q"], req["vn"]
    if req["kind"] == "y":
        return lib.decompose_y(lib.SimplexPoint(q, req["c"]), vn)
    mixture = lib.MixtureFunction(
        [(w, lib.symmetrized(lib.SimplexPoint(q, c))) for w, c in req["parts"]]
    )
    return lib.decompose_px(mixture, vn)


def decompose_check(lib, req, d, ctx, add) -> list[str]:
    q, vn = req["q"], req["vn"]
    leaves = {id(f): f for part in (d.w1, d.w2) for _, f in oracles.nabla_leaves(part)}
    add("nabla.picks", sum(len(f.upsilon.rows) ** q for f in leaves.values()))
    add("nabla.components", sum(len(f.components) for f in leaves.values()))
    grids = 1 if req["kind"] == "y" else len(req["parts"]) + 1
    add("decompose.grid_descriptions", grids * sum((2 ** q) ** n for n in range(vn + 1)))
    add("decompose.nu_max", d.nu, "max")
    add("decompose.g_max", d.g, "max")
    add("linalg.max_dim", comb(2 * q - 1, q), "max")
    return oracles.check_decomposition(
        req, d, ctx.setdefault("lambdas", {}), req["probes"], lib.StateDescription
    )


# ---------------------------------------------------------------------------
# checker_sweep


def _check(principle, make, n, **blocks):
    return ("check", principle, make, n, blocks)


CHECKER_BLOCK = [
    _check("px", lambda rng: {"class": "product", "x": invariant_point(rng, 3)}, 3),
    _check("px", lambda rng: {"class": "product", "x": asymmetric_point(rng, 3)}, 3),
    _check("px", lambda rng: {"class": "symmetrized", "c": simplex(rng, 8, rng.choice([4, 6]))}, 3),
    _check("px", lambda rng: nabla_desc(rng, 3, 5, 3), 3),
    _check("ex", lambda rng: {"class": "symmetrized", "c": simplex(rng, 4, rng.choice([4, 6]))}, 4),
    _check("ex", lambda rng: nabla_desc(rng, 2, 4, 3), 4),
    _check("ex", lambda rng: {"class": "product", "x": simplex(rng, 8, 6)}, 3),
    _check("ip", lambda rng: {"class": "product", "x": simplex(rng, 4, rng.choice([4, 6]))}, 4),
    _check("ip", lambda rng: {"class": "symmetrized", "c": asymmetric_point(rng, 2)}, 3),
    _check("ip", lambda rng: {"class": "symmetrized", "c": invariant_point(rng, 3)}, 3),
    _check("additivity", lambda rng: {"class": "mixture", "parts": [
        (F(1, 3), {"class": "product", "x": simplex(rng, 8, 4)}),
        (F(2, 3), {"class": "symmetrized", "c": simplex(rng, 8, 4)})]}, 3),
    _check("additivity", lambda rng: nabla_desc(rng, 3, 4, 3), 3),
    _check("wip", lambda rng: nabla_desc(rng, 2, 5, 4), 3, p=1, r=1),
    _check("wip", lambda rng: nabla_desc(rng, 3, 4, 2), 2, p=1, r=2),
    ("restrict", 3, 1, 4, (4, 3)),
    ("restrict", 3, 2, 4, (5, 3)),
    ("restrict", 4, 1, 2, (3, 2)),
    ("sentence", "product", 2, 5),
    ("sentence", "symmetrized", 2, 5),
    ("sentence", "nabla", 3, 4),
]


def checker_block(rng: random.Random, block: int) -> list[dict]:
    out = []
    for spec in CHECKER_BLOCK:
        if spec[0] == "check":
            _, principle, make, n, blocks = spec
            out.append({"kind": "check", "principle": principle, "f": make(rng), "n": n, **blocks})
        elif spec[0] == "restrict":
            _, q, drop, n, (nu, distinct) = spec
            out.append({"kind": "restrict", "f": nabla_desc(rng, q, nu, distinct), "drop": drop, "n": n})
        else:
            _, cls, q, k = spec
            if cls == "product":
                desc = {"class": "product", "x": simplex(rng, 2 ** q, rng.choice([4, 6, 8]))}
            elif cls == "symmetrized":
                desc = {"class": "symmetrized", "c": simplex(rng, 2 ** q, rng.choice([4, 6]))}
            else:
                desc = nabla_desc(rng, q, 4, 3)
            constants = sorted(rng.sample(range(1, 9), k))
            phi = formula(rng, q, constants)
            out.append({"kind": "sentence", "f": desc, "q": q, "phi": phi,
                        "text": render(phi), "constants": constants})
    rng.shuffle(out)
    return out


def _grid(q: int, n_max: int):
    for n in range(n_max + 1):
        yield from itertools.product(range(1, 2 ** q + 1), repeat=n)


def checker_execute(lib, req):
    """(the function built, what the request asked of it)."""
    kind = req["kind"]
    w = build(lib, req["f"])
    if kind == "check":
        principle = req["principle"]
        if principle == "wip":
            return w, lib.check_wip(w, req["p"], req["r"], req["n"])
        checker = {"px": lib.check_px, "ex": lib.check_ex, "ip": lib.check_ip,
                   "additivity": lib.check_additivity}[principle]
        return w, checker(w, req["n"])
    if kind == "restrict":
        low_q = req["f"]["q"] - req["drop"]
        low = lib.restrict(w, low_q)
        return w, [(h, low.eval_sd(lib.StateDescription(low_q, h))) for h in _grid(low_q, req["n"])]
    return w, w.eval_sentence(lib.parse_formula(req["text"]))


def checker_check(lib, req, built, ctx, add) -> list[str]:
    w, result = built
    kind = req["kind"]
    add("probability.components", components(w))
    if kind == "check":
        add("principles.units", checker_units(req))
        add("principles.fail_ratio", int(result.outcome == "fail"), "ratio")
        return oracles.check_report(req, result)
    if kind == "restrict":
        low_q = req["f"]["q"] - req["drop"]
        direct = build(lib, dict(req["f"], q=low_q))
        wanted = [direct.eval_sd(lib.StateDescription(low_q, h)) for h in _grid(low_q, req["n"])]
        return oracles.check_restriction(result, wanted)
    desc, q = req["f"], req["q"]
    found = oracles.models(req["phi"], q, req["constants"])
    add("formulas.assignments", (2 ** q) ** len(req["constants"]))
    add("formulas.models", len(found))
    if desc["class"] == "product":
        reference = sum((oracles.product_value(desc["x"], h) for h in found), start=F(0))
    elif desc["class"] == "symmetrized":
        reference = sum((oracles.symmetrized_value(desc["c"], h) for h in found), start=F(0))
    else:
        fresh = build(lib, desc)
        reference = sum((fresh.eval_sd(lib.StateDescription(q, h)) for h in found), start=F(0))
    return oracles.check_sentence(result, reference)


def checker_units(req) -> int:
    """Evaluation units of a checker sweep, as the principles define them."""
    q, n_max, principle = req["f"].get("q") or _level(req["f"]), req["n"], req["principle"]
    a = 2 ** q
    if principle == "px":
        return factorial(q) * sum(a ** n for n in range(1, n_max + 1))
    if principle == "ex":
        return sum(a ** n * factorial(n) for n in range(1, n_max + 1))
    if principle == "ip":
        return sum(a ** t * (t - 1) for t in range(2, n_max + 1))
    if principle == "additivity":
        return sum(a ** (n + 1) for n in range(n_max))
    p, r = req["p"], req["r"]
    return sum(
        (2 ** p) ** m * (2 ** r) ** (t - m) * 2 ** (r * m + p * (t - m))
        for t in range(2, n_max + 1) for m in range(1, t)
    )


def _level(desc) -> int:
    if desc["class"] == "mixture":
        return _level(desc["parts"][0][1])
    values = desc.get("x") or desc.get("c")
    return len(values).bit_length() - 1


# ---------------------------------------------------------------------------
# extension_certs

FM = "fourier-motzkin"
SIMPLEX = "simplex"
EXTENSION_SHAPES = [
    (FM, 2, 7), (FM, 3, 9), (FM, 4, 11), (FM, 5, 10), (FM, 3, 11),
    (SIMPLEX, 2, 24), (SIMPLEX, 3, 30), (SIMPLEX, 4, 20), (SIMPLEX, 5, 30), (SIMPLEX, 4, 28),
]
# both engines run on every input small enough for elimination
AGREEMENT_MAX_R = 11


def extension_block(rng: random.Random, block: int) -> list[dict]:
    out = []
    for source in ("bernstein", "random"):
        for method, q, r in EXTENSION_SHAPES:
            if source == "bernstein":
                points = rng.sample([F(a, b) for b in range(2, 9) for a in range(b + 1)], rng.randint(1, 3))
                weights = [rng.randint(1, 5) for _ in points]
                support = [(x, F(w, sum(weights))) for x, w in zip(points, weights)]
                C = oracles.bernstein_vector(support, q)
            else:
                u = [rng.randint(0, 9) for _ in range(q + 1)]
                if not any(u):
                    u[0] = 1
                C = [F(v, sum(u) * comb(q, k)) for k, v in enumerate(u)]
            out.append({"kind": "extend", "source": source, "method": method, "q": q, "r": r, "C": C})
    rng.shuffle(out)
    return out


def extension_execute(lib, req):
    return lib.extendable(lib.AltNotation(req["q"], req["C"]), req["r"], req["method"])


def extension_check(lib, req, cert, ctx, add) -> list[str]:
    add("feasibility.fm_calls", int(req["method"] == FM))
    add("feasibility.simplex_calls", int(req["method"] == SIMPLEX))
    add("feasibility.infeasible_ratio", int(cert.status == "infeasible"), "ratio")
    other = None
    if req["r"] <= AGREEMENT_MAX_R:
        method = SIMPLEX if req["method"] == FM else FM
        other = lib.extendable(lib.AltNotation(req["q"], req["C"]), req["r"], method).status
    return oracles.check_certificate(req, cert, lambda D, q: lib.transfer(D, q).C, other)


# ---------------------------------------------------------------------------
# cli_processes


def _wire_json(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def cli_good(rng: random.Random) -> list[list[str]]:
    """18 well-formed argv lists covering all seven subcommands."""
    def product(q):
        return {"class": "product", "x": simplex(rng, 2 ** q, rng.choice([4, 6]))}

    def measure():
        points = rng.sample([F(a, 6) for a in range(7)], rng.randint(1, 3))
        return [{"x": str(x), "w": str(F(1, len(points)))} for x in points]

    def phi(q, k):
        return render(formula(rng, q, sorted(rng.sample(range(1, 5), k))))

    def alt(q):
        C = oracles.bernstein_vector([(F(rng.randint(0, 4), 4), F(1))], q)
        return ",".join(str(v) for v in C)

    sym2 = {"class": "symmetrized", "c": simplex(rng, 4, 4)}
    mix = {"class": "mixture", "parts": [
        (F(1, 2), {"class": "symmetrized", "c": simplex(rng, 4, 4)}),
        (F(1, 2), {"class": "symmetrized", "c": simplex(rng, 4, 2)})]}
    n3 = nabla_desc(rng, 3, 4, 3)
    return [
        ["eval", "--f", _wire_json(to_wire(product(2))), "--phi", phi(2, 2)],
        ["eval", "--f", _wire_json(to_wire(sym2)), "--phi", phi(2, 3)],
        ["eval", "--f", _wire_json(to_wire(product(2))), "--phi", "P1(a1) | P2(a2)", "--constants", "1,2,3"],
        ["check", "--principle", "px", "--f", _wire_json(to_wire(product(2))), "--n", "2"],
        ["check", "--principle", "ip", "--f", _wire_json(to_wire(sym2)), "--n", "2"],
        ["check", "--principle", "wip", "--f", _wire_json(to_wire(nabla_desc(rng, 2, 4, 3))),
         "--n", "2", "--p", "1", "--r", "1"],
        ["extend", "--C", alt(2), "--q", "2", "--r", "5"],
        ["extend", "--C", alt(3), "--q", "3", "--r", "8"],
        ["extend", "--C", alt(2), "--q", "2", "--r", "14"],
        ["bernstein", "--measure", _wire_json(measure()), "--q", "3"],
        ["bernstein", "--measure", _wire_json(measure()), "--q", "4"],
        ["nabla", "--upsilon", _wire_json(upsilon_wire(nabla_desc(rng, 2, 4, 3))), "--q", "2", "--eval", phi(2, 2)],
        ["nabla", "--upsilon", _wire_json(upsilon_wire(n3)), "--q", "3",
         "--sd", json.dumps([rng.randint(1, 8) for _ in range(2)])],
        ["nabla", "--upsilon", _wire_json(upsilon_wire(nabla_desc(rng, 3, 4, 3))), "--q", "3", "--eval", phi(3, 2)],
        ["decompose", "--q", "2", "--c", ",".join(str(v) for v in simplex(rng, 4, 4)), "--verify-n", "2"],
        ["decompose", "--q", "2", "--f", _wire_json(to_wire(mix)), "--verify-n", "2"],
        ["marginalize", "--f", _wire_json(to_wire(n3)), "--q", "2", "--sd", json.dumps([rng.randint(1, 4)])],
        ["marginalize", "--f", _wire_json(to_wire(product(3))), "--q", "2", "--phi", phi(2, 2)],
    ]


def cli_malformed(rng: random.Random, which: str) -> tuple[list[str], int]:
    """(argv, the exit code the CLI contract asks for)."""
    f = _wire_json(to_wire({"class": "product", "x": simplex(rng, 4, 4)}))
    if which == "extend_zero_denominator":
        return ["extend", "--C", "1/0,1/2,1/4", "--q", "2", "--r", "4"], 1
    if which == "eval_bad_constants":
        return ["eval", "--f", f, "--phi", "P1(a1)", "--constants", "x"], 1
    if which == "bad_json":
        return ["eval", "--f", '{"class": "product", "x": [', "--phi", "P1(a1)"], 1
    if which == "unknown_principle":
        return ["check", "--principle", "bogus", "--f", f], 2
    return ["eval", "--f", f, "--phi", "P1(a1) & (P2(a2)"], 1


MALFORMED = ["extend_zero_denominator", "bad_json", "eval_bad_constants", "unknown_principle", "formula_syntax"]
GOOD_PER_BLOCK = 2  # draws of the 18 well-formed argv lists: 5 of 41 are malformed


def cli_block(rng: random.Random, block: int) -> list[dict]:
    out = [{"kind": "cli", "argv": argv, "expect": 0, "case": argv[0]}
           for _ in range(GOOD_PER_BLOCK) for argv in cli_good(rng)]
    for which in MALFORMED:
        argv, expect = cli_malformed(rng, which)
        out.append({"kind": "cli", "argv": argv, "expect": expect, "case": which,
                    "known_crash": which in KNOWN_CRASHES})
    rng.shuffle(out)
    return out


def cli_reference(argv: list[str]):
    """(exit code or exception name, stdout) of an in-process `pureil.cli.main`."""
    import pureil.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pureil.cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
        except Exception as exc:  # the known crash cases land here
            code = type(exc).__name__
    return code, out.getvalue()


def cli_check(lib, req, result, ctx, add) -> list[str]:
    code, stdout, stderr = result
    add("cli.error_exits", int(code != 0))
    return oracles.check_cli(req, code, stdout, stderr, cli_reference(req["argv"]))


# ---------------------------------------------------------------------------

WORKLOADS = {
    "decompose_mix": (decompose_block, decompose_execute, decompose_check),
    "checker_sweep": (checker_block, checker_execute, checker_check),
    "extension_certs": (extension_block, extension_execute, extension_check),
    "cli_processes": (cli_block, None, cli_check),
}


def blocks(name: str, seed: int):
    """The workload's endless stream of request blocks for a seed (same seed,
    same stream)."""
    make_block = WORKLOADS[name][0]
    rng = random.Random(f"{name}:{seed}")
    for block in itertools.count():
        yield make_block(rng, block)


def requests(name: str, seed: int):
    return itertools.chain.from_iterable(blocks(name, seed))


# the warm-up request is one of the cheapest shapes, so set-up time does not
# depend on which shape a seed happens to draw first
WARMUP = {
    "decompose_mix": lambda req: req["q"] == 2,
    "checker_sweep": lambda req: req["kind"] == "check" and req["principle"] == "ip",
    "extension_certs": lambda req: req["q"] == 2 and req["method"] == FM,
    "cli_processes": lambda req: req["case"] == "bernstein",
}


def warmup_request(name: str, seed: int) -> dict:
    """A request from a stream of its own, run before timing starts."""
    return next(req for req in requests(name, -1 - seed) if WARMUP[name](req))


def block_size(name: str) -> int:
    return len(WORKLOADS[name][0](random.Random(0), 0))
