"""Command-line interface.

Subcommands operate on the JSON schemas of the owning modules; reports go
to stdout or --out.  Exit codes: 0 pass, 1 check failure, 2 usage error
(including input JSON of the wrong shape), 3 budget exceeded, 4 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .core import BudgetExceeded, FVec, TorusValue
from .cubes import (
    CubePoint,
    FilteredAbelianGroup,
    code_element,
    element_code,
    equidistribution_report,
    hk_taylor,
    is_polynomial_map,
)
from .cubescan import hk_membership, preserves_cubes_fast
from .forms import MultilinearForm, bias
from .norms import (
    BoundedFunction,
    RankWitness,
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
        return json.load(sys.stdin)
    with open(args.input) as fh:
        return json.load(fh)


def _emit(args, payload: dict) -> None:
    text = json.dumps(jsonable(payload), indent=None if args.json else 2,
                      sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_poly(args, obj=None) -> NCPoly:
    obj = obj if obj is not None else _read_input(args)
    if "terms" in obj or "alpha" in obj:
        return NCPoly.from_json(obj)
    if "values" in obj:
        p, n = int(obj["p"]), int(obj["n"])
        vals = [TorusValue.from_json(p, v) for v in obj["values"]]
        return NCPoly.from_values(p, n, vals)
    if "text" in obj:
        return NCPoly.from_text(int(obj["p"]), int(obj["n"]), obj["text"])
    raise ValueError("polynomial JSON needs terms/alpha, values, or text")


def _poly_payload(P: NCPoly) -> dict:
    out = P.to_json()
    out["text"] = P.canonical().to_text()
    return out


def _reject_non_integers(obj: dict, keys: tuple[str, ...]) -> None:
    """A JSON float or bool where integers (or nested lists of them) belong
    is a usage error, not a value to truncate."""
    stack = [(key, obj[key]) for key in keys if key in obj]
    while stack:
        key, value = stack.pop()
        if isinstance(value, list):
            stack.extend((key, v) for v in value)
        elif isinstance(value, (bool, float)):
            raise ValueError(f"{key} must hold integers, got {json.dumps(value)}")


def _parse_digits(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--p", type=int, default=d(None))
    parser.add_argument("--n", type=int, default=d(None))
    parser.add_argument("--degree", type=int, default=d(None))
    parser.add_argument("--input", default=d(None),
                        help="JSON file or - for stdin")
    parser.add_argument("--json", action="store_true", default=d(False),
                        help="compact output")
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--threads", type=int, default=d(1),
                        help="threads for the bias rank fold only (bias, "
                             "arank, and the bias checks of gowers-props)")
    parser.add_argument("--budget", type=int, default=d(None),
                        help="hard wall in estimated elementary operations")
    parser.add_argument("--out", default=d(None))
    parser.add_argument("--timing", action="store_true", default=d(False),
                        help="include runtimes in suite reports")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toruspoly",
        description="exact computations with torus-valued polynomials, "
                    "uniformity norms, and multilinear forms over F_p^n")
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", parents=[common],
                        help="evaluate a polynomial at a point")
    sp.add_argument("--x", required=True, help="digits, e.g. 1,0,1")
    sp = sub.add_parser("derive", parents=[common],
                        help="additive derivative along h")
    sp.add_argument("--h", required=True)
    sub.add_parser("degree", parents=[common],
                   help="degree by canonical form and by derivatives")
    sub.add_parser("interpolate", parents=[common],
                   help="value table -> canonical form")
    sub.add_parser("root", parents=[common], help="canonical p-th root")
    sub.add_parser("mulp", parents=[common], help="multiply by p")
    sp = sub.add_parser("norm", parents=[common],
                        help="Gowers uniformity norm of a function")
    sp.add_argument("--d", type=int, required=True)
    sp = sub.add_parser("arank", parents=[common],
                        help="analytic rank of a polynomial")
    sp.add_argument("--s", type=int, required=True)
    sub.add_parser("bias", parents=[common],
                   help="exact bias of a multilinear form")
    sp = sub.add_parser("witness-check", parents=[common],
                        help="rank witness verification")
    sp.add_argument("--s", type=int, required=True)
    sp = sub.add_parser("explore", parents=[common],
                        help="exhaustive correlation search")
    sp.add_argument("--s", type=int, required=True)
    sub.add_parser("decompose", parents=[common],
                   help="conditional expectation onto factors")
    sub.add_parser("wdegree", parents=[common],
                   help="weighted degree of a map on Z^m")
    sub.add_parser("wroot", parents=[common],
                   help="p-th root of a weighted polynomial")
    sub.add_parser("cube-check", parents=[common],
                   help="Host-Kra cube membership")
    sub.add_parser("polymap-check", parents=[common],
                   help="polynomial map + cube preservation")
    sub.add_parser("equidist", parents=[common],
                   help="equidistribution report of a finite map")
    sp = sub.add_parser("verify", parents=[common],
                        help="run a named verification suite")
    sp.add_argument("suite", choices=SUITE_NAMES)
    sp.add_argument("--param", action="append", default=[],
                    help="key=value suite parameter, repeatable")

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
    cmd = args.command

    if cmd == "eval":
        P = _load_poly(args)
        x = FVec.from_digits(P.p, _parse_digits(args.x))
        _emit(args, {"value": P.eval(x).to_json(),
                     "display": repr(P.eval(x))})
        return EXIT_PASS

    if cmd == "derive":
        P = _load_poly(args)
        h = FVec.from_digits(P.p, _parse_digits(args.h))
        _emit(args, _poly_payload(P.derivative(h)))
        return EXIT_PASS

    if cmd == "degree":
        P = _load_poly(args)
        canonical = P.degree()
        by_deriv = P.degree_by_derivatives(budget=args.budget)
        _emit(args, {"degree": None if canonical == float("-inf") else canonical,
                     "by_derivatives": None if by_deriv == float("-inf") else by_deriv,
                     "agree": canonical == by_deriv})
        return EXIT_PASS if canonical == by_deriv else EXIT_FAIL

    if cmd == "interpolate":
        P = _load_poly(args)
        P.canonical(d_max=args.degree)
        _emit(args, _poly_payload(P))
        return EXIT_PASS

    if cmd == "root":
        P = _load_poly(args)
        _emit(args, _poly_payload(P.pth_root()))
        return EXIT_PASS

    if cmd == "mulp":
        P = _load_poly(args)
        _emit(args, _poly_payload(P.mul_by_p()))
        return EXIT_PASS

    if cmd == "norm":
        obj = _read_input(args)
        f = BoundedFunction.from_json(obj)
        power = gowers_power(f, args.d, budget=args.budget)
        payload = {"d": args.d, "norm": abs(power) ** (1.0 / (1 << args.d)),
                   "power": {"re": power.real, "im": power.imag}}
        if f.phase_nums is not None:
            exact = gowers_power_exact(
                NCPoly(f.p, f.n, f.phase_nums, f.phase_K), args.d,
                budget=args.budget)
            payload["exact_power"] = exact.as_fraction()
        _emit(args, payload)
        return EXIT_PASS

    if cmd == "arank":
        P = _load_poly(args)
        res = analytic_rank(P, args.s, budget=args.budget,
                            threads=args.threads)
        _emit(args, {"bias": res.bias, "arank": res.value,
                     "exact": res.exact})
        return EXIT_PASS

    if cmd == "bias":
        obj = _read_input(args)
        form = MultilinearForm.from_json(obj)
        b = bias(form, budget=args.budget, threads=args.threads)
        _emit(args, {"bias": b, "float": float(b)})
        return EXIT_PASS

    if cmd == "witness-check":
        obj = _read_input(args)
        P = _load_poly(args, obj["P"])
        polys = [_load_poly(args, q) for q in obj["witness"]]
        if "table" in obj:
            table = {
                tuple(TorusValue.from_json(P.p, t) for t in entry["key"]):
                TorusValue.from_json(P.p, entry["value"])
                for entry in obj["table"]}
            witness = RankWitness(polys, table)
        else:
            witness = RankWitness.induced(P, polys)
        ok = rank_witness_check(P, args.s, witness)
        _emit(args, {"witness_valid": ok, "s": args.s,
                     "certifies_rank_at_most": len(polys) if ok else None})
        return EXIT_PASS if ok else EXIT_FAIL

    if cmd == "explore":
        obj = _read_input(args)
        f = BoundedFunction.from_json(obj)
        best, corr = inverse_explore(f, args.s, budget=args.budget)
        _emit(args, {"s": args.s, "correlation": corr,
                     "best": _poly_payload(best)})
        return EXIT_PASS

    if cmd == "decompose":
        obj = _read_input(args)
        values = [Fraction(v) for v in obj["values"]]
        projected, energy = conditional_expectation(values, obj["factors"])
        _emit(args, {"projected": [str(v) for v in projected],
                     "energy": energy})
        return EXIT_PASS

    if cmd == "wdegree":
        obj = _read_input(args)
        _reject_non_integers(obj, ("p", "m", "K", "D", "box", "nums"))
        if "terms" in obj:
            d = weighted_degree(WeightedPoly.from_json(obj))
        else:
            box = tuple(int(x) for x in obj["box"])
            # Python integers, which PeriodicMap reduces mod p^K exactly
            pm = PeriodicMap(
                int(obj["p"]), int(obj["m"]), [int(x) for x in obj["D"]], box,
                np.array(obj["nums"], dtype=object).reshape(box), int(obj["K"]))
            d = weighted_degree(pm)
        _emit(args, {"weighted_degree": None if d == float("-inf") else d})
        return EXIT_PASS

    if cmd == "wroot":
        obj = _read_input(args)
        _emit(args, WeightedPoly.from_json(obj).pth_root().to_json())
        return EXIT_PASS

    if cmd == "cube-check":
        obj = _read_input(args)
        G = FilteredAbelianGroup.from_json(obj["group"])
        k = int(obj["k"])
        cube = CubePoint(k, [G.reduce(e) for e in obj["cube"]])
        member = hk_membership(cube, G)
        coeffs, offending = hk_taylor(cube, G)
        payload = {"member": member,
                   "taylor_success": coeffs is not None,
                   "agree": member == (coeffs is not None)}
        if coeffs is not None:
            payload["taylor"] = {bin(J): list(g) for J, g in coeffs.items()}
        else:
            payload["offending_mask"] = offending
        _emit(args, payload)
        return EXIT_PASS if payload["agree"] else EXIT_FAIL

    if cmd == "polymap-check":
        obj = _read_input(args)
        H = FilteredAbelianGroup.from_json(obj["H"])
        G = FilteredAbelianGroup.from_json(obj["G"])
        table = {}
        for k, v in (tuple(pair) for pair in obj["map"]):
            x = H.reduce(k)
            if x in table:
                raise ValueError(f"map gives H element {x} two values")
            table[x] = G.reduce(v)
        missing = [x for x in H.elements() if x not in table]
        if missing:
            raise ValueError(f"map gives H element {missing[0]} no value")
        phi_codes = np.array([element_code(G, table[code_element(H, c)])
                              for c in range(H.size)], dtype=np.int64)
        poly = is_polynomial_map(phi_codes, H, G)
        preserved, _ = preserves_cubes_fast(
            phi_codes, H, G, int(obj.get("k_max", 2)),
            cap=args.budget or (1 << 22))
        _emit(args, {"polynomial_map": poly, "preserves_cubes": preserved,
                     "equivalent": poly == preserved})
        return EXIT_PASS if poly == preserved else EXIT_FAIL

    if cmd == "equidist":
        obj = _read_input(args)
        _emit(args, equidistribution_report(obj["values"], obj["orders"]))
        return EXIT_PASS

    if cmd == "verify":
        params = {}
        for kv in args.param:
            key, _, value = kv.partition("=")
            params[key] = int(value) if value.lstrip("-").isdigit() else value
        if args.p is not None:
            params.setdefault("p", args.p)
        if args.n is not None:
            params.setdefault("n", args.n)
        if args.degree is not None:
            params.setdefault("d", args.degree)
        report = run_suite(args.suite, params=params, seed=args.seed,
                           threads=args.threads, budget=args.budget)
        text = report.to_bytes(include_timing=args.timing).decode()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return EXIT_PASS if report.passed else EXIT_FAIL

    raise ValueError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
