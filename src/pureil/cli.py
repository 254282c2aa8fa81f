"""Command line surface with one JSON document per invocation on stdout.

Exit codes: 0 on success, 1 on domain errors (a JSON error object is still
printed), 2 on usage errors (argparse reports to stderr).  Output is
byte-identical across runs for identical inputs: keys are sorted and all
rationals are emitted as "num/den" strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decompose import decompose_px, decompose_y
from .errors import PureILError
from .feasibility import extendable
from .formulas import parse_formula
from .invariance import AltNotation, bernstein
from .language import StateDescription
from .nabla import nabla
from .principles import check_additivity, check_ex, check_ip, check_px, check_wip
from .probability import MixtureFunction, SimplexPoint, restrict
from .serialize import (
    alt_to_json,
    certificate_to_json,
    decomposition_to_json,
    format_rational,
    function_from_json,
    measure_from_json,
    parse_rational_list,
    report_to_json,
    upsilon_from_json,
)


def _load_document(value: str):
    """Inline JSON if the value looks like JSON, else a file path."""
    text = value.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise PureILError(f"cannot read document {value!r}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise PureILError(f"malformed JSON document: {err}") from err


def _emit(payload: dict) -> int:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_eval(args, parser: argparse.ArgumentParser) -> int:
    w = function_from_json(_load_document(args.f))
    phi = parse_formula(args.phi)
    constants = None
    if args.constants:
        try:
            constants = [int(v) for v in args.constants.split(",")]
        except ValueError:
            raise PureILError(
                f"--constants needs comma-separated integers, got {args.constants!r}"
            ) from None
    return _emit({"value": format_rational(w.eval_sentence(phi, constants))})


def _cmd_check(args, parser: argparse.ArgumentParser) -> int:
    w = function_from_json(_load_document(args.f))
    principle = args.principle
    if principle == "wip":
        if args.p is None or args.r is None:
            parser.error("--principle wip needs --p and --r")
        report = check_wip(w, args.p, args.r, args.n)
    else:
        checker = {
            "px": check_px,
            "ex": check_ex,
            "ip": check_ip,
            "additivity": check_additivity,
        }[principle]
        report = checker(w, args.n)
    return _emit(report_to_json(report))


def _cmd_extend(args, parser: argparse.ArgumentParser) -> int:
    C = AltNotation(args.q, tuple(parse_rational_list(args.C)))
    return _emit(certificate_to_json(extendable(C, args.r)))


def _cmd_bernstein(args, parser: argparse.ArgumentParser) -> int:
    rho = measure_from_json(_load_document(args.measure))
    return _emit(alt_to_json(bernstein(rho, args.q)))


def _cmd_nabla(args, parser: argparse.ArgumentParser) -> int:
    upsilon = upsilon_from_json(_load_document(args.upsilon))
    w = nabla(upsilon, args.q)
    if (args.eval is None) == (args.sd is None):
        parser.error("need exactly one of --eval or --sd")
    if args.eval is not None:
        value = w.eval_sentence(parse_formula(args.eval))
    else:
        doc = _load_document(args.sd)
        value = w.eval_sd(StateDescription(args.q, tuple(int(a) for a in doc)))
    return _emit({"value": format_rational(value)})


def _cmd_decompose(args, parser: argparse.ArgumentParser) -> int:
    if (args.c is None) == (args.f is None):
        parser.error("need exactly one of --c or --f")
    if args.c is not None:
        entries = parse_rational_list(args.c)
        if len(entries) != 2 ** args.q:
            raise PureILError(f"{len(entries)} entries but level {args.q} needs {2 ** args.q}")
        d = decompose_y(SimplexPoint(args.q, tuple(entries)), args.verify_n)
    else:
        w = function_from_json(_load_document(args.f))
        if not isinstance(w, MixtureFunction) and w.tag != "symmetrized":
            raise PureILError("decompose --f needs a mixture of symmetrized functions")
        if w.q != args.q:
            raise PureILError(f"document level {w.q} != --q {args.q}")
        d = decompose_px(w, args.verify_n)
    return _emit(decomposition_to_json(d))


def _cmd_marginalize(args, parser: argparse.ArgumentParser) -> int:
    w = function_from_json(_load_document(args.f))
    low = restrict(w, args.q)
    if (args.sd is None) == (args.phi is None):
        parser.error("need exactly one of --sd or --phi")
    if args.sd is not None:
        doc = _load_document(args.sd)
        value = low.eval_sd(StateDescription(args.q, tuple(int(a) for a in doc)))
    else:
        value = low.eval_sentence(parse_formula(args.phi))
    return _emit({"value": format_rational(value)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pureil",
        description="Exact rational probability functions on unary languages.",
    )
    parser.add_argument(
        "--config",
        help="JSON file with default flag values, keyed by flag name",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_eval = commands.add_parser("eval", help="evaluate a function on a sentence")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("--f", required=True, help="function descriptor (path or inline JSON)")
    p_eval.add_argument("--phi", required=True, help="quantifier-free formula")
    p_eval.add_argument("--constants", help="comma-separated constant window")

    p_check = commands.add_parser("check", help="run a principle checker")
    p_check.set_defaults(handler=_cmd_check)
    p_check.add_argument(
        "--principle", required=True, choices=["px", "ex", "ip", "wip", "additivity"]
    )
    p_check.add_argument("--f", required=True, help="function descriptor")
    p_check.add_argument("--n", type=int, default=3, help="constant bound (default 3)")
    p_check.add_argument("--p", type=int, help="first predicate block size (wip)")
    p_check.add_argument("--r", type=int, help="second predicate block size (wip)")

    p_extend = commands.add_parser("extend", help="level-extension feasibility certificate")
    p_extend.set_defaults(handler=_cmd_extend)
    p_extend.add_argument("--C", required=True, help="comma-separated compressed vector")
    p_extend.add_argument("--q", required=True, type=int)
    p_extend.add_argument("--r", required=True, type=int)

    p_bern = commands.add_parser("bernstein", help="moment vector of a discrete measure")
    p_bern.set_defaults(handler=_cmd_bernstein)
    p_bern.add_argument("--measure", required=True, help="measure document (path or inline)")
    p_bern.add_argument("--q", required=True, type=int)

    p_nabla = commands.add_parser("nabla", help="evaluate a row-sampling function")
    p_nabla.set_defaults(handler=_cmd_nabla)
    p_nabla.add_argument("--upsilon", required=True, help="matrix document (path or inline)")
    p_nabla.add_argument("--q", required=True, type=int)
    p_nabla.add_argument("--eval", help="formula to evaluate")
    p_nabla.add_argument("--sd", help="state description as a JSON array of atom indices")

    p_dec = commands.add_parser("decompose", help="split into invariant parts")
    p_dec.set_defaults(handler=_cmd_decompose)
    p_dec.add_argument("--c", help="comma-separated simplex point")
    p_dec.add_argument("--q", required=True, type=int)
    p_dec.add_argument("--verify-n", dest="verify_n", type=int, default=3)
    p_dec.add_argument("--f", help="mixture-of-symmetrized descriptor")

    p_marg = commands.add_parser("marginalize", help="evaluate a function at a lower level")
    p_marg.set_defaults(handler=_cmd_marginalize)
    p_marg.add_argument("--f", required=True, help="function descriptor")
    p_marg.add_argument("--q", required=True, type=int, help="target level")
    p_marg.add_argument("--sd", help="level-q state description as a JSON array")
    p_marg.add_argument("--phi", help="level-q formula")

    parser.set_defaults(_commands=commands)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pull --config out of argv and install its values as subparser defaults."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        parser.error("--config needs a file path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2 :]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        parser.error(f"cannot load config {path!r}: {err}")
    if not isinstance(config, dict):
        parser.error("config must be a JSON object of flag defaults")
    defaults = {key.replace("-", "_"): value for key, value in config.items()}
    for sub in parser.get_default("_commands").choices.values():
        known = {action.dest for action in sub._actions}
        sub.set_defaults(**{k: v for k, v in defaults.items() if k in known})
        for action in sub._actions:
            if action.dest in defaults:
                action.required = False
    return rest


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.handler(args, args._commands.choices[args.command])
    except PureILError as err:
        payload = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
