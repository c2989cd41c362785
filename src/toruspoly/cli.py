"""Command-line interface.

Each subcommand is one entry of COMMANDS, whose input is read once in the
JSON schema of its owning module; reports go to stdout or --out.  Exit
codes: 0 pass, 1 check failure, 2 usage error (including input JSON of the
wrong shape), 3 budget exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .core import BudgetExceeded, json_int, space
from .cubes import (
    FilteredAbelianGroup,
    code_element,
    element_code,
    equidistribution_report,
    hk_taylor,
    is_polynomial_map,
)
from .cubescan import face_member_mask, preserves_cubes_fast
from .forms import MultilinearForm, bias
from .norms import (
    BoundedFunction,
    analytic_rank,
    conditional_expectation,
    gowers_power,
    gowers_power_exact,
    inverse_explore,
    rank_witness_check,
)
from .poly import NCPoly, NotPolynomialError
from .suites import SUITE_NAMES, jsonable, run_suite
from .weighted import PeriodicMap, WeightedPoly, weighted_degree

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read_input(args) -> dict:
    if args.input in (None, "-"):
        obj = json.load(sys.stdin)
    else:
        with open(args.input) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("input JSON must be an object")
    return obj


def _emit(args, payload: dict | str) -> None:
    """Write a payload as JSON, or a report's text as it is, to --out or
    stdout."""
    text = payload if isinstance(payload, str) else json.dumps(
        jsonable(payload), indent=None if args.json else 2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_poly(args) -> NCPoly:
    return NCPoly.from_json(_read_input(args))


def _poly_payload(P: NCPoly) -> dict:
    out = P.to_json()
    out["text"] = P.canonical().to_text()
    return out


def _parse_digits(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--input", default=d(None),
                        help="JSON file or - for stdin")
    parser.add_argument("--json", action="store_true", default=d(False),
                        help="compact output")
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--threads", type=int, default=d(1),
                        help="threads for the bias rank fold of bias and "
                             "arank; verify only records it, in --timing "
                             "output")
    parser.add_argument("--budget", type=int, default=d(None),
                        help="hard wall in estimated elementary operations")
    parser.add_argument("--out", default=d(None))
    parser.add_argument("--timing", action="store_true", default=d(False),
                        help="include runtimes in suite reports")


def _eval(P, args):
    x = space(P.p, P.n).index_of(_parse_digits(args.x))
    return {"value": P.eval(x).to_json(), "display": repr(P.eval(x))}, True


def _derive(P, args):
    h = space(P.p, P.n).index_of(_parse_digits(args.h))
    return _poly_payload(P.derivative(h)), True


def _degree(P, args):
    canonical = P.degree()
    by_deriv = P.degree_by_derivatives(budget=args.budget)
    return {"degree": None if canonical == float("-inf") else canonical,
            "by_derivatives": None if by_deriv == float("-inf") else by_deriv,
            "agree": canonical == by_deriv}, canonical == by_deriv


def _interpolate(P, args):
    if args.degree is not None and P.degree() > args.degree:
        raise NotPolynomialError(f"not a polynomial of degree <= {args.degree}")
    return _poly_payload(P), True


def _norm(obj, args):
    f = BoundedFunction.from_json(obj)
    power = gowers_power(f, args.d, budget=args.budget)
    payload = {"d": args.d, "norm": abs(power) ** (1.0 / (1 << args.d)),
               "power": {"re": power.real, "im": power.imag}}
    if all("num" in entry for entry in obj["values"]):
        # a pure phase e(P): read P from the same values
        exact = gowers_power_exact(NCPoly.from_json(obj), args.d, budget=args.budget)
        payload["exact_power"] = exact.as_fraction()
    return payload, True


def _arank(P, args):
    res = analytic_rank(P, args.s, budget=args.budget, threads=args.threads)
    return {"bias": res.bias, "arank": res.value, "exact": res.exact}, True


def _bias(obj, args):
    b = bias(MultilinearForm.from_json(obj), budget=args.budget,
             threads=args.threads)
    return {"bias": b, "float": float(b)}, True


def _witness_check(obj, args):
    if "table" in obj:
        raise ValueError("witness-check takes no table: the witness "
                         "polynomials induce it")
    P = NCPoly.from_json(obj["P"])
    polys = [NCPoly.from_json(q) for q in obj["witness"]]
    ok = rank_witness_check(P, args.s, polys)
    return {"witness_valid": ok, "s": args.s,
            "certifies_rank_at_most": len(polys) if ok else None}, ok


def _explore(obj, args):
    best, corr = inverse_explore(BoundedFunction.from_json(obj), args.s,
                                 budget=args.budget)
    return {"s": args.s, "correlation": corr,
            "best": _poly_payload(best)}, True


def _decompose(obj, args):
    try:
        values = [Fraction(v) for v in obj["values"]]
    except ZeroDivisionError:
        raise ValueError("a value has denominator 0") from None
    projected, energy = conditional_expectation(values, obj["factors"])
    return {"projected": [str(v) for v in projected], "energy": energy}, True


def _wdegree(obj, args):
    if "terms" in obj:
        f = WeightedPoly.from_json(obj)
    else:
        box = tuple(json_int(obj, "box"))
        # Python integers, which PeriodicMap reduces mod p^K exactly
        f = PeriodicMap(
            json_int(obj, "p"), json_int(obj, "m"), json_int(obj, "D"), box,
            np.array(json_int(obj, "nums"), dtype=object).reshape(box),
            json_int(obj, "K"))
    d = weighted_degree(f)
    return {"weighted_degree": None if d == float("-inf") else d}, True


def _wroot(obj, args):
    return WeightedPoly.from_json(obj).pth_root().to_json(), True


def _cube_check(obj, args):
    G = FilteredAbelianGroup.from_json(obj["group"])
    k = json_int(obj, "k")
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    cube = np.array([element_code(G, e) for e in json_int(obj, "cube")],
                    dtype=np.int64)
    if len(cube).bit_length() != k + 1 or len(cube) != 1 << k:
        raise ValueError(f"need 2^{k} entries")
    member = bool(face_member_mask(cube[None], G, k)[0])
    coeffs, offending = hk_taylor(cube, G)
    payload = {"member": member,
               "taylor_success": coeffs is not None,
               "agree": member == (coeffs is not None)}
    if coeffs is not None:
        payload["taylor"] = {bin(J): list(code_element(G, int(c)))
                             for J, c in enumerate(coeffs)}
    else:
        payload["offending_mask"] = offending
    return payload, payload["agree"]


def _polymap_check(obj, args):
    H = FilteredAbelianGroup.from_json(obj["H"])
    G = FilteredAbelianGroup.from_json(obj["G"])
    table = {}
    for k, v in (tuple(pair) for pair in json_int(obj, "map")):
        x = element_code(H, k)
        if x in table:
            raise ValueError(f"map gives H element {code_element(H, x)} "
                             "two values")
        table[x] = element_code(G, v)
    missing = [code_element(H, x) for x in range(H.size) if x not in table]
    if missing:
        raise ValueError(f"map gives H element {min(missing)} no value")
    phi_codes = np.array([table[x] for x in range(H.size)], dtype=np.int64)
    poly = is_polynomial_map(phi_codes, H, G)
    k_max = json_int(obj, "k_max") if "k_max" in obj else G.degree + 1
    preserved = preserves_cubes_fast(phi_codes, H, G, k_max, args.budget)
    return {"polynomial_map": poly, "preserves_cubes": preserved,
            "equivalent": poly == preserved}, poly == preserved


def _verify(_, args):
    params = {}
    for kv in args.param:
        key, sep, value = kv.partition("=")
        if not sep:  # as from `--p 3`, which abbreviates --param
            raise ValueError(f"--param takes key=value, got {kv!r}")
        try:  # a JSON literal: 3, 1e-6, [[2, 3]]; else the text itself
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    report = run_suite(args.suite, params=params, seed=args.seed,
                       threads=args.threads, budget=args.budget)
    return report.to_bytes(include_timing=args.timing).decode(), report.passed


# name: (help, reader, handler, *(argument, add_argument options)).  The
# handler takes reader(args) (a polynomial or the input JSON object; None for
# verify) and args, and returns (payload, passed).
COMMANDS = {
    "eval": ("evaluate a polynomial at a point", _load_poly, _eval,
             ("--x", {"required": True, "help": "digits, e.g. 1,0,1"})),
    "derive": ("additive derivative along h", _load_poly, _derive,
               ("--h", {"required": True})),
    "degree": ("degree by canonical form and by derivatives", _load_poly,
               _degree),
    "interpolate": ("value table -> canonical form", _load_poly, _interpolate,
                    ("--degree", {"type": int, "default": None,
                                  "help": "refuse a table of higher degree "
                                          "(exit 2)"})),
    "root": ("canonical p-th root", _load_poly,
             lambda P, args: (_poly_payload(P.pth_root()), True)),
    "mulp": ("multiply by p", _load_poly,
             lambda P, args: (_poly_payload(P.mul_by_p()), True)),
    "norm": ("Gowers uniformity norm of a function", _read_input, _norm,
             ("--d", {"type": int, "required": True})),
    "arank": ("analytic rank of a polynomial", _load_poly, _arank,
              ("--s", {"type": int, "required": True})),
    "bias": ("exact bias of a multilinear form", _read_input, _bias),
    "witness-check": ("rank witness verification", _read_input,
                      _witness_check, ("--s", {"type": int, "required": True})),
    "explore": ("exhaustive correlation search", _read_input, _explore,
                ("--s", {"type": int, "required": True})),
    "decompose": ("conditional expectation onto factors", _read_input,
                  _decompose),
    "wdegree": ("weighted degree of a map on Z^m", _read_input, _wdegree),
    "wroot": ("p-th root of a weighted polynomial", _read_input, _wroot),
    "cube-check": ("Host-Kra cube membership", _read_input, _cube_check),
    "polymap-check": ("polynomial map + cube preservation", _read_input,
                      _polymap_check),
    "equidist": ("equidistribution report of a finite map", _read_input,
                 lambda obj, args: (equidistribution_report(
                     obj["values"], obj["orders"]), True)),
    "verify": ("run a named verification suite", None, _verify,
               ("suite", {"choices": SUITE_NAMES}),
               ("--param", {"action": "append", "default": [],
                            "help": "key=value suite parameter, repeatable"})),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toruspoly",
        description="exact computations with torus-valued polynomials, "
                    "uniformity norms, and multilinear forms over F_p^n")
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, *arguments) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        for argument, options in arguments:
            sp.add_argument(argument, **options)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotPolynomialError, ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    _, read, handler, *_ = COMMANDS[args.command]
    payload, passed = handler(read(args) if read else None, args)
    _emit(args, payload)
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
