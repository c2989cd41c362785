"""Named verification suites and machine-readable reports.

Each suite binds a family of exact identities to executable checks at desk
scale.  Reports are deterministic given (seed, params): all randomness
flows through the named splitmix64 generator, heavy enumerations are
partitioned with ordered merges, and timing data is kept out of the
canonical byte form.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, prod

import numpy as np

from . import catalog
from .core import SPACE_CAP, TorusValue, check_budget, json_int, space
from .cubes import (
    FilteredAbelianGroup,
    _subset_table,
    code_element,
    element_code,
    equidistribution_report,
    hk_size,
    is_polynomial_map,
    hk_taylor,
)
from .cubescan import (
    counted_equivalence,
    enumerate_cube_codes,
    equivalence_scan,
    face_member_mask,
    preserves_cubes_fast,
    taylor_member_mask,
)
from .forms import (
    antiderivative,
    bias,
    binomial_lift_power,
    check_dkp,
    concat,
    dk_extract,
    dk_values,
    sym_power,
)
from .norms import (
    BoundedFunction,
    _cube_product,
    _gowers_power_direct,
    _random_bounded,
    _random_disc,
    _random_poly,
    conditional_expectation,
    gowers_norm,
    gowers_power,
    gowers_power_exact,
)
from .poly import (
    _depth_count,
    _reduce,
    canonical_slots,
    coefficient_batches,
    degrees_from_coeffs,
    eval_slot_batches,
    interpolate_tables,
    normalize_tables,
    slot_degrees,
)
from .rng import ALGORITHM, SplitMix64
from .weighted import (
    Factor,
    WeightedPoly,
    binomial_expand,
    periodicity_check,
    weighted_degree,
)

def jsonable(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, TorusValue):
        return repr(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


@dataclass
class CheckRecord:
    name: str
    params: dict
    passed: bool
    details: dict = field(default_factory=dict)
    runtime_ms: float = 0.0

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "check": self.name,
            "params": jsonable(self.params),
            "verdict": "pass" if self.passed else "FAIL",
            "details": jsonable(self.details),
        }
        if include_timing:
            out["runtime_ms"] = round(self.runtime_ms, 3)
        return out


@dataclass
class SuiteReport:
    suite: str
    seed: int
    threads: int
    params: dict
    checks: list[CheckRecord] = field(default_factory=list)
    # the end of the previous record, or the report's creation
    _last: float = field(default_factory=time.perf_counter, init=False,
                         repr=False, compare=False)

    def add(self, name: str, params: dict, passed: bool, **details):
        """Append a check record; its runtime is the time since _last."""
        now = time.perf_counter()
        self.checks.append(CheckRecord(
            name, params, bool(passed), details, (now - self._last) * 1e3))
        self._last = now

    @property
    def passed(self) -> bool:
        """Every record passed, and there is at least one."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "rng": ALGORITHM,
            "params": jsonable(self.params),
            "passed": self.passed,
            "checks": [c.to_json(include_timing) for c in self.checks],
        }
        if include_timing:
            # execution configuration is volatile and stays out of the
            # canonical byte form
            out["threads"] = self.threads
        return out

    def to_bytes(self, include_timing: bool = False) -> bytes:
        return json.dumps(self.to_json(include_timing), sort_keys=True,
                          separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# identity suites


def _least(**bounds):
    """Declare the least value of each integer parameter of a suite: the
    least at which its every check still has a case to check."""
    def mark(suite):
        suite.least = bounds
        return suite
    return mark


@_least(n=1, k=1)
def _suite_lucas(report: SuiteReport, rng, threads, budget, *, n=10, k=10):
    for dim in range(1, n + 1):
        ok = True
        bad = None
        for j in range(1, k + 1):
            sk = catalog.S_k(dim, j).classical_table()
            prod = np.ones_like(sk)
            jj = j
            a = 0
            while jj:
                if jj & 1:
                    prod = prod * catalog.S_k(dim, 1 << a).classical_table() % 2
                jj >>= 1
                a += 1
            if not np.array_equal(sk, prod):
                ok, bad = False, {"k": j, "kind": "product"}
                break
            if not np.array_equal(sk, catalog.binom_L_mod2(dim, j)):
                ok, bad = False, {"k": j, "kind": "binomial"}
                break
        report.add("lucas-products", {"n": dim, "k_max": k}, ok,
                   **({"counterexample": bad} if bad else {"points": 2**dim}))


@_least(n=1)
def _suite_lam(report: SuiteReport, rng, threads, budget, *, n=12):
    for dim in range(1, n + 1):
        L = catalog.L_table(dim)
        total = np.zeros_like(L)
        m = 0
        while (1 << m) <= dim:
            total = total + catalog.S_k(dim, 1 << m).classical_table() * (1 << m)
            m += 1
        report.add("digit-expansion-of-L", {"n": dim},
                   bool(np.array_equal(L, total)), points=2**dim)


@_least(n=4, trials=1)
def _suite_df(report: SuiteReport, rng, threads, budget, *, n=6,
              trials=10_000):
    for dim in range(4, n + 1):
        T = catalog.quartic_form(dim)
        S = sym_power(catalog.bilinear_b(dim), 2)
        report.add("d4S4-coefficients", {"n": dim}, T == S,
                   entries=len(T.coeffs))
        N = space(2, dim).size
        exhaustive = N**4 <= 1 << 18
        tuples = (np.indices((N,) * 4).reshape(4, -1) if exhaustive
                  else _draws_below(rng, (4, trials), N))
        # Sym^2(B) against the 4-fold derivatives of S_4's own table
        s4 = catalog.S_k(dim, 4).classical_table()
        blocks = np.split(tuples, range(1 << 14, tuples.shape[1], 1 << 14), axis=1)
        agree = all(np.array_equal(S.eval_batch(b), dk_values(2, dim, s4, 1, b.T))
                    for b in blocks)
        if exhaustive:
            report.add("d4S4-exhaustive-tuples", {"n": dim, "tuples": N**4}, agree)
        else:
            report.add("d4S4-random-tuples", {"n": dim, "trials": trials}, agree)


@_least(n=2)
def _suite_symprod(report: SuiteReport, rng, threads, budget, *, n=5):
    # the quadratic -> quartic lift over F_2
    for dim in range(2, n + 1):
        S2, S4 = catalog.S_k(dim, 2), catalog.S_k(dim, 4)
        Q = binomial_lift_power(S2, 2)
        ok_form = dk_extract(Q, 4) == sym_power(catalog.bilinear_b(dim), 2)
        diff_deg = (Q - S4).degree()
        report.add("binomial-lift-quartic", {"n": dim, "p": 2, "m": 2},
                   ok_form and diff_deg <= 3,
                   lift_degree=Q.degree(), difference_degree=diff_deg)
    # m = 1 is the identity
    P = _random_poly(2, 3, 2, rng, depth=1)
    report.add("lift-m1-identity", {"p": 2, "n": 3},
               binomial_lift_power(P, 1) == P)
    # odd characteristic, m up to 3
    for n, m in ((2, 3), (3, 2), (3, 3)):
        P = _random_poly(3, n, 2, rng, depth=1)
        while P.degree() < 2:
            P = _random_poly(3, n, 2, rng, depth=1)
        Q = binomial_lift_power(P, m, k=2)
        ok = dk_extract(Q, 2 * m) == sym_power(dk_extract(P, 2), m)
        report.add("binomial-lift-odd", {"p": 3, "n": n, "m": m}, ok,
                   lift_degree=Q.degree())
    # m! Sym^m(T) = T * ... * T in characteristic 5
    p, n, m = 5, 3, 2
    T = dk_extract(_random_poly(p, n, 2, rng, depth=1), 2)
    lhs = sym_power(T, m).scale(2)  # 2! = 2
    rhs = concat(T, T)
    report.add("factorial-symmetric-power", {"p": p, "n": n, "m": m},
               lhs == rhs)
    # product rule d^(k+l)(PQ) = d^k P * d^l Q over every classical pair
    # with degree sum <= 4 on F_2^3
    for k, l in ((1, 1), (1, 2), (2, 2), (1, 3)):
        pairs, fails = _product_rule_exhaustive(3, k, l)
        report.add("product-rule-exhaustive",
                   {"p": 2, "n": 3, "k": k, "l": l}, fails == 0, pairs=pairs)
    # d^k of the antiderivative of a classical form T is T
    for p, n, k in ((2, 3, 3), (3, 2, 2), (5, 2, 3), (2, 4, 2)):
        ok = True
        for _ in range(5):
            T = dk_extract(_random_poly(p, n, k, rng, depth=1), k)
            ok &= dk_extract(antiderivative(T), k) == T
        report.add("antiderivative-roundtrip",
                   {"p": p, "n": n, "k": k, "cases": 5}, ok)


def _classical_tables(n: int, d: int) -> np.ndarray:
    """All classical polynomials of degree <= d on F_2^n (with constants),
    as F_2 value tables of shape (count, 2^n)."""
    slots = [(e, j) for (e, j) in canonical_slots(2, n, d) if j == 0]
    codes = np.arange(1 << (len(slots) + 1), dtype=np.int64)
    coeffs = np.stack([codes >> s & 1 for s in range(len(slots) + 1)], axis=1)
    # column 0 is the constant iota(1)
    return (coeffs[:, :1] + eval_slot_batches(2, n, slots, coeffs[:, 1:], 1)) % 2


def _product_rule_exhaustive(n: int, k: int, l: int) -> tuple[int, int]:
    """Check d^(k+l)(PQ) = (d^k P) * (d^l Q) for every classical P of degree
    <= k and Q of degree <= l on F_2^n; returns (pairs, failures)."""
    tabsP = _classical_tables(n, k)
    tabsQ = _classical_tables(n, l)
    keys_k = list(itertools.combinations_with_replacement(range(n), k))
    keys_l = list(itertools.combinations_with_replacement(range(n), l))
    keys_kl = list(itertools.combinations_with_replacement(range(n), k + l))

    def dk(tables: np.ndarray, keys: list[tuple[int, ...]]) -> np.ndarray:
        units = 2 ** np.array(keys, dtype=np.int64).reshape(len(keys), -1)
        return dk_values(2, n, tables, 1, units)

    dP = dk(tabsP, keys_k)
    dQ = dk(tabsQ, keys_l)
    # all products at once: shape (len(tabsQ), len(tabsP), len(keys_kl))
    lhs = dk(tabsQ[:, None, :] * tabsP[None, :, :] % 2, keys_kl)
    colP = {key: i for i, key in enumerate(keys_k)}
    colQ = {key: i for i, key in enumerate(keys_l)}
    rhs = np.zeros_like(lhs)
    for col, key in enumerate(keys_kl):
        # sum over the position partitions of the size-(k+l) multiset
        for A in itertools.combinations(range(k + l), k):
            left = tuple(sorted(key[i] for i in A))
            right = tuple(sorted(key[i] for i in range(k + l) if i not in A))
            rhs[:, :, col] += dQ[:, None, colQ[right]] * dP[None, :, colP[left]]
    fails = int((lhs != rhs % 2).any(axis=-1).sum())
    return lhs.shape[0] * lhs.shape[1], fails


def _csg2_lhs(f: BoundedFunction, d: int, rng: SplitMix64,
              budget: int | None = None) -> float:
    """|E_{x_1..x_d} f(x_1+...+x_d) prod_j F_j| with each F_j a random
    1-bounded weight not reading x_j."""
    p, n = f.p, f.n
    sp = space(p, n)
    N = sp.size
    check_budget(N**d, budget, "_csg2_lhs")
    check_budget(N**d, SPACE_CAP, "_csg2_lhs")
    weights = _random_disc(rng, d * N ** (d - 1)).reshape((d,) + (N,) * (d - 1))
    total = f.values[reduce(sp.add_indices, np.indices((N,) * d, sparse=True))]
    for j in range(d):
        total = total * np.expand_dims(weights[j], j)
    return abs(complex(total.mean()))


def _norm_properties(report: SuiteReport, p: int, n: int, rng: SplitMix64,
                     count: int, tol: float, budget: int | None) -> None:
    """Numeric checks of the norm properties at d = 2 or 3: (i) triangle
    inequality, (ii) monotonicity in d, (iii) the L^(2^d/(d+1)) bound, (iv)
    and (v) the two Cauchy-Schwarz inequalities, (vi) invariance under
    modulation by lower-degree phases.  Each check's cases fold into one
    norm-<check> record, whose worst margin is that of the first case with
    the largest lhs - rhs."""
    folds: dict[str, tuple] = {}

    def fold(check: str, lhs: float, rhs: float, tolerance: float) -> None:
        cases, ok, gap, margin = folds.get(check, (0, True, None, None))
        if gap is None or lhs - rhs > gap:
            gap, margin = lhs - rhs, rhs + tolerance - lhs
        folds[check] = (cases + 1, ok and lhs <= rhs + tolerance, gap, margin)

    for _ in range(count):
        d = 2 + rng.below(2)
        f = _random_bounded(p, n, rng)
        g = _random_bounded(p, n, rng)

        # (ii) monotonicity along d = 1, 2, 3; norms[d - 1] is ||f||_{U^d}
        norms = [gowers_norm(f, dd, budget=budget) for dd in (1, 2, 3)]

        # (i) triangle
        fold("triangle", gowers_norm(f + g, d, budget=budget),
             norms[d - 1] + gowers_norm(g, d, budget=budget), tol)
        # homogeneity edge: ||2g|| = 2||g||
        fold("triangle-homogeneity",
             abs(gowers_norm(g.scale(2.0), d, budget=budget)
                 - 2 * gowers_norm(g, d, budget=budget)), 0.0, 1e-10)

        for dd in (0, 1):
            fold("monotonicity", norms[dd], norms[dd + 1], tol)

        # (iii) L^q bound with q = 2^d/(d+1)
        q = (1 << d) / (d + 1)
        fold("lq-bound", norms[d - 1],
             float(np.mean(np.abs(f.values) ** q) ** (1 / q)), tol)

        # (iv) first Cauchy-Schwarz: product over the 2^d cube vertices
        fs = [_random_bounded(p, n, rng) for _ in range(1 << d)]
        lhs = abs(_cube_product([fo.values for fo in fs], p, n, budget))
        rhs = 1.0
        for fo in fs:
            rhs *= gowers_norm(fo, d, budget=budget)
        fold("cauchy-schwarz-1", lhs, rhs, tol)

        # (v) second Cauchy-Schwarz: weights independent of one variable each
        fold("cauchy-schwarz-2", _csg2_lhs(f, d, rng, budget), norms[d - 1], tol)

        # (vi) modulation invariance by a degree <= d-1 phase
        P = _random_poly(p, n, d - 1, rng)
        fold("modulation",
             abs(gowers_norm(f.modulate(P), d, budget=budget) - norms[d - 1]),
             0.0, 1e-10)

    for check, (cases, ok, _, margin) in sorted(folds.items()):
        report.add(f"norm-{check}", {"p": p, "n": n, "cases": cases}, ok,
                   worst_margin=margin)


@_least(count=1)
def _suite_gowers(report: SuiteReport, rng, threads, budget, *, count=100,
                  tol=1e-8, configs=((2, 4), (3, 2))):
    for p, n in configs:
        _norm_properties(report, p, n, SplitMix64(rng.next_u64()), count, tol,
                         budget)
        # direct vs recursive agreement
        sub = SplitMix64(rng.next_u64())
        worst = 0.0
        for d in [2 + i % 2 for i in range(count)] + [4 if p == 2 else 3] * 10:
            f = _random_bounded(p, n, sub)
            worst = max(worst, abs(gowers_power(f, d, budget=budget)
                                   - _gowers_power_direct(f, d, budget)))
        report.add("direct-vs-recursive", {"p": p, "n": n, "count": count},
                   worst <= 1e-9, worst=worst)
        # exact pure-phase path vs floats, and the collapse onto bias
        sub = SplitMix64(rng.next_u64())
        ok_exact = True
        ok_bias = True
        for _ in range(20):
            d = 2 + sub.below(2)
            P = _random_poly(p, n, d, sub)
            exact = gowers_power_exact(P, d, budget=budget)
            fl = gowers_power(BoundedFunction.from_phase(P), d, budget=budget)
            ok_exact &= abs(exact.as_complex() - fl) <= 1e-9
            frac = exact.as_fraction()
            if frac is not None:
                ok_bias &= frac == bias(dk_extract(P, d), budget=budget,
                                        threads=threads)
        report.add("exact-phase-path", {"p": p, "n": n, "cases": 20},
                   ok_exact and ok_bias)
    # ||f||_{U^d}^(2^d) = E_h ||Delta_h f||_{U^(d-1)}^(2^(d-1)), through the
    # multiplicative derivative Delta_h f = (T_h f) conj(f)
    for p, n in configs:
        sub = SplitMix64(rng.next_u64())
        N = space(p, n).size
        worst = 0.0
        for _ in range(10):
            f = _random_bounded(p, n, sub)
            for d in (2, 3):
                recursed = sum(
                    gowers_power(f.mult_derivative(h), d - 1,
                                 budget=budget) for h in range(N)) / N
                worst = max(worst, abs(gowers_power(f, d, budget=budget)
                                       - recursed))
        report.add("derivative-recursion", {"p": p, "n": n, "cases": 10},
                   worst <= 1e-9, worst=worst)


@_least(n=2)
def _suite_dkp(report: SuiteReport, rng, threads, budget, *, n=3):
    p = 2
    for dim in range(2, n + 1):
        P = catalog.L_over_power(dim, 3)
        checked, failures = check_dkp(P, 3)
        report.add("p-fold-repetition",
                   {"p": p, "n": dim, "k": 3, "poly": "L/8"},
                   not failures, checked=checked, failures=failures[:3])
    for dim in range(2, n + 1):
        for trial in range(4):
            P = _random_poly(2, dim, 4, rng, depth=2)
            checked, failures = check_dkp(P, 4)
            report.add("p-fold-repetition",
                       {"p": p, "n": dim, "k": 4,
                        "poly": f"random-depth1-{trial}"},
                       not failures, checked=checked, failures=failures[:3])
    # classical inputs: both sides vanish
    P = catalog.S_k(3, 3)
    checked, failures = check_dkp(P, 3)
    report.add("p-fold-repetition-classical", {"p": 2, "n": 3, "k": 3},
               not failures, checked=checked)


# ---------------------------------------------------------------------------
# exhaustive root / canonical-form suite


def _exhaustive_poly_scan(p: int, n: int, d: int,
                          budget: int | None = None) -> dict:
    """Root round-trips, canonical round-trips, and the value-count bound
    over every degree <= d canonical form (modulo constants), batched; the
    cell's p^(slots) forms times p^n points are checked against budget."""
    sp = space(p, n)
    K = _depth_count(p, d) if n else 0  # F_p^0 has no slots at any degree
    # once per cell: every block shares the slots
    slots = canonical_slots(p, n, d)
    check_budget(p ** len(slots) * sp.size, budget, "_exhaustive_poly_scan")
    root_slots = [(e, j + 1) for (e, j) in slots]
    depths = np.array([j for _, j in slots], dtype=np.intp)
    indices = np.array([sp.index_of(e) for e, _ in slots], dtype=np.intp)
    slot_deg = slot_degrees(p, n, K)[depths, indices]
    out = {"count": 0, "root_fail": 0, "canon_fail": 0, "bound_fail": 0}
    for _, codes, coeffs in coefficient_batches(p, n, d):
        tables = eval_slot_batches(p, n, slots, coeffs, K)
        roots = eval_slot_batches(p, n, root_slots, coeffs, K + 1)
        # p * root reproduces the table exactly
        ok_root = (_reduce(roots * p, p, K + 1) == tables * p).all(axis=1)
        # canonical round-trip: interpolation recovers the same coefficients
        alpha, C = interpolate_tables(p, n, tables, K)
        if slots:
            ok_canon = (C[:, depths, indices] == coeffs).all(axis=1) & (alpha == 0)
        else:
            ok_canon = (alpha == 0) & ~C.reshape(len(codes), -1).any(axis=1)
        # degree of the root stays within deg + p - 1 (via re-interpolation)
        degs = (np.max(np.where(coeffs != 0, slot_deg[None, :], -1), axis=1)
                if slots else np.full(len(codes), -1, dtype=np.int64))
        r_alpha, r_C = interpolate_tables(p, n, roots, K + 1)
        root_degs = degrees_from_coeffs(p, n, r_alpha, r_C)
        ok_bound = (root_degs <= degs + (p - 1)) | (degs < 0)
        # value-count bound: p^(floor((d-1)/(p-1)) + 1) distinct values
        sorted_tables = np.sort(tables, axis=1)
        distinct = 1 + (np.diff(sorted_tables, axis=1) != 0).sum(axis=1)
        cap = np.where(degs >= 1, p ** _depth_count(p, degs), 1)
        ok_values = distinct <= np.maximum(cap, 1)
        out["count"] += len(codes)
        out["root_fail"] += int((~ok_root).sum())
        out["canon_fail"] += int((~ok_canon).sum())
        out["bound_fail"] += int((~(ok_bound & ok_values)).sum())
    return out


# the (p, n, d) cells that the roots suite scans exhaustively by default
_ROOT_GRIDS = tuple([(2, n, d) for n in range(1, 4) for d in range(0, 5)]
                    + [(3, n, d) for n in range(1, 3) for d in range(0, 4)])


@_least(random_trials=0, weighted_trials=0)
def _suite_roots(report: SuiteReport, rng, threads, budget, *,
                 grids=_ROOT_GRIDS, random_trials=500, weighted_trials=300):
    for p, n, d in grids:
        res = _exhaustive_poly_scan(p, n, d, budget)
        report.add("root-roundtrip-exhaustive", {"p": p, "n": n, "d": d},
                   res["root_fail"] == 0 and res["bound_fail"] == 0,
                   polynomials=res["count"])
        report.add("canonical-roundtrip-exhaustive",
                   {"p": p, "n": n, "d": d}, res["canon_fail"] == 0,
                   polynomials=res["count"])
    # random larger cases through the object-level path
    fails = 0
    for t in range(random_trials):
        p = (2, 3, 5)[rng.below(3)]
        n = 1 + rng.below(4 if p == 2 else 2)
        d = 1 + rng.below(5 if p == 2 else 4)
        P = _random_poly(p, n, d, rng)
        R = P.pth_root()
        if R.mul_by_p() != P or R.degree() > max(P.degree(), 0) + p - 1:
            fails += 1
    report.add("root-roundtrip-random", {"trials": random_trials}, fails == 0)
    # weighted roots
    fails = 0
    for t in range(weighted_trials):
        wp = _weighted_case(rng, (4, 4))
        g = wp.pth_root()
        pts = np.indices([min(s, 9) for s in g.periods()]).reshape(wp.m, -1).T
        # p*g over p^(K-1) against wp, both normalised on the same box
        pg, pg_K = normalize_tables(g.eval_nums(pts), max(g.exponent() - 1, 0), wp.p)
        want, want_K = normalize_tables(wp.eval_nums(pts), wp.exponent(), wp.p)
        ok = (weighted_degree(g) <= max(wp.degree(), 0) + wp.p - 1
              and pg_K == want_K and np.array_equal(pg, want))
        fails += not ok
    report.add("weighted-root-roundtrip", {"trials": weighted_trials},
               fails == 0)


def _weighted_case(rng, spreads: tuple[int, int]) -> WeightedPoly:
    """A random weighted polynomial: p in (2, 3), m in (1, 2) coordinates of
    initial degree 1 or 2, and degree bound max(D) + rng.below(spreads[m - 1])."""
    p = (2, 3)[rng.below(2)]
    m = 1 + rng.below(2)
    D = tuple(1 + rng.below(2) for _ in range(m))
    d = max(D) + rng.below(spreads[m - 1])
    return _random_weighted(p, m, D, d, rng)


def _random_weighted(p: int, m: int, D: tuple, d: int, rng) -> WeightedPoly:
    terms = {}
    for i_vec in itertools.product(*(range(d // Di + 1) for Di in D)):
        base = sum(Di * ii for Di, ii in zip(D, i_vec))
        if base == 0 or base > d:
            continue
        r_max = (d - base) // (p - 1)
        r = rng.below(r_max + 1)
        c = rng.below(p ** (r + 1))
        if c and c % p:
            terms[(i_vec, r)] = c
    alpha = TorusValue(p, rng.below(p**2), 2)
    return WeightedPoly(p, m, D, alpha, terms)


@_least(trials=1)
def _suite_weighted(report: SuiteReport, rng, threads, budget, *,
                    trials=300):
    fails = 0
    worst = None
    for t in range(trials):
        wp = _weighted_case(rng, (4, 3))
        bound = max(int(wp.degree()), 1) if wp.terms else 1
        table = wp.tabulate(wp.periods(bound))
        back = binomial_expand(table, bound)
        if back != wp:
            fails += 1
            worst = wp.to_json()
    report.add("binomial-expand-roundtrip", {"trials": trials}, fails == 0,
               **({"witness": worst} if worst else {}))
    # derivative criterion agrees with the term-degree formula
    fails = 0
    for t in range(60):
        wp = _weighted_case(rng, (3, 3))
        dd = wp.degree()
        if dd == float("-inf"):
            continue
        table = wp.tabulate(wp.periods(max(int(dd), 1)))
        if weighted_degree(table) != max(int(dd), 0):
            fails += 1
    report.add("weighted-degree-criterion", {"trials": 60}, fails == 0)
    # periodicity and top-coefficient extraction
    w = WeightedPoly(2, 1, (1,), TorusValue.zero(2), {((1,), 1): 1})  # a/4
    rep = periodicity_check(w, 2)
    report.add("periodicity-and-top-layer", {"p": 2, "D": [1], "d": 2},
               rep["pass"] and rep["top_coefficients"] == {1: 1}, report=rep)
    # p^(k-t) divides binom(p^k, l) when p^t || l
    ok = True
    for p in (2, 3, 5):
        for k in range(1, 5):
            for l in range(1, p**k + 1):
                t = 0
                ll = l
                while ll % p == 0:
                    ll //= p
                    t += 1
                if comb(p**k, l) % p ** (k - t):
                    ok = False
    report.add("binomial-valuation", {"p_max": 5, "k_max": 4}, ok)
    # factors from classical layers, extended by p-th roots: retracting to
    # the factor's degree keeps every layer, and a weighted polynomial on
    # the factor's D pulls back to degree at most its weighted degree
    fails = 0
    for _ in range(40):
        p = (2, 3)[rng.below(2)]
        n = 2 + rng.below(2)
        m = 1 + rng.below(2)
        D = tuple(2 + rng.below(2) for _ in range(m))
        F = Factor(p, n, [(Di, [_random_poly(p, n, Di, rng, depth=1)]) for Di in D])
        depths = [rng.below(3) for _ in range(m)]
        F = F.depth_extend(depths)
        # below this degree the polynomial has period p^(J_i+1) along e_i,
        # so it is a function of the top values a_i mod p^(J_i+1)
        d = min(Di + (J + 1) * (p - 1) for Di, J in zip(D, depths)) - 1
        wp = _random_weighted(p, m, D, d, rng)
        fails += not ([len(polys) - 1 for _, polys in F.chains] == depths
                      and F.retract(F.degree()) == F
                      and F.pullback(wp).degree() <= wp.degree())
    report.add("factor-pullback-degree", {"factors": 40}, fails == 0,
               failures=fails)


# ---------------------------------------------------------------------------
# cubes suite


def _group_zoo() -> list[FilteredAbelianGroup]:
    full24 = list(itertools.product(range(2), range(4)))
    return [
        FilteredAbelianGroup.maximal([2], 1),
        FilteredAbelianGroup.maximal([2, 2], 2),
        FilteredAbelianGroup.maximal([4], 2),
        FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1]),
        FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1]),
        FilteredAbelianGroup.cyclic_chain(8, [8, 8, 4, 2]),
        FilteredAbelianGroup.cyclic_chain(9, [9, 9, 3, 1]),
        FilteredAbelianGroup(
            (2, 4), levels=[
                full24,
                full24,
                [(0, 0), (0, 1), (0, 2), (0, 3)],
                [(0, 0), (0, 2)],
            ]),
        FilteredAbelianGroup.maximal([16], 3),
        FilteredAbelianGroup.cyclic_chain(16, [16, 8, 4, 2]),
        FilteredAbelianGroup.cyclic_chain(16, [16, 16, 4, 1]),
    ]


_SCANNED_TUPLES = 1 << 20  # the cubes suite counts G^(2^k) past this size


@_least(k=1, maps=1)
def _suite_cubes(report: SuiteReport, rng, threads, budget, *, k=3, maps=1000):
    for G in _group_zoo():
        for dim in range(1, k + 1):
            total = G.size ** (1 << dim)
            name = f"Z{'x'.join(map(str, G.orders))}"
            if total <= _SCANNED_TUPLES:
                res = equivalence_scan(G, dim)
                report.add("face-vs-taylor-scan",
                           {"group": name, "k": dim, "tuples": res["tuples"]},
                           res["disagreements"] == 0
                           and res["members"] == hk_size(G, dim),
                           members=res["members"])
            else:
                res = counted_equivalence(G, dim)
                sample = _sampled_agreement(G, dim, rng, 1 << 14)
                report.add("face-vs-taylor-counted",
                           {"group": name, "k": dim, "tuples": total},
                           res["equal"] and sample == 0,
                           face_count=res["face_count"],
                           taylor_count=res["taylor_count"],
                           sampled_disagreements=sample)
            # Taylor round-trip injectivity on sampled coefficient tuples
            ok = _taylor_roundtrip(G, dim, rng, 100)
            report.add("taylor-roundtrip", {"group": name, "k": dim}, ok)
    # closure of the cube set under addition
    G = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1])
    cubes = enumerate_cube_codes(G, 2)
    idx = _draws_below(rng, (2000, 2), len(cubes))
    sums = (cubes[idx[:, 0]] + cubes[idx[:, 1]]) % 8
    ok = bool(face_member_mask(sums, G, 2).all())
    report.add("cube-group-closure",
               {"group": "Z8-chain", "k": 2, "pairs": 2000}, ok)

    # cube preservation must coincide with derivative polynomiality
    agree = 0
    poly_count = 0
    for t in range(maps):
        H, G2, phi_codes = _sample_map(rng)
        poly = is_polynomial_map(phi_codes, H, G2)
        pres = preserves_cubes_fast(phi_codes, H, G2, 3, budget)
        agree += poly == pres
        poly_count += poly
    report.add("derivative-vs-cube-preservation",
               {"maps": maps, "k_max": 3},
               agree == maps, polynomial_maps=poly_count)

    # generator-only checking is as strong as all-element checking
    ok = True
    for t in range(60):
        H, G2, phi_codes = _sample_map(rng, max_order=9)
        if is_polynomial_map(phi_codes, H, G2, use_generators=True) != \
           is_polynomial_map(phi_codes, H, G2, use_generators=False):
            ok = False
    report.add("generator-reduction", {"maps": 60}, ok)

    # Weyl: zero bias iff exactly uniform, exhaustive maps [A] -> Z/4
    for a_size in (4, 8):
        counts = _value_counts(a_size)
        uniform = (counts == a_size // 4).all(axis=1)
        bias_zero = (
            (counts[:, 0] == counts[:, 2]) & (counts[:, 1] == counts[:, 3])
            & (counts[:, 0] + counts[:, 2] == counts[:, 1] + counts[:, 3])
        )
        report.add("weyl-criterion", {"domain": a_size, "codomain": "Z4",
                                      "maps": len(counts)},
                   bool((uniform == bias_zero).all()))
    # spot-check the report object against the vectorised logic
    vals = [(rng.below(4),) for _ in range(8)]
    rep = equidistribution_report(vals, (4,))
    counts = [sum(1 for v in vals if v == (b,)) for b in range(4)]
    expect_zero = counts[0] == counts[2] and counts[1] == counts[3] \
        and counts[0] + counts[2] == counts[1] + counts[3]
    report.add("report-consistency", {"domain": 8}, rep["bias_zero"] == expect_zero
               and rep["weyl_consistent"])


def _draws_below(rng, shape: tuple, bound) -> np.ndarray:
    """An int64 array of rng.below(bound) values in row-major order, from
    one block draw, checked against SPACE_CAP; bound is an int or one bound
    per last-axis column."""
    check_budget(prod(shape), SPACE_CAP, "_draws_below")
    draws = rng.draws(prod(shape)).reshape(shape)
    np.remainder(draws, np.asarray(bound, dtype=np.uint64), out=draws)
    return draws.view(np.int64)  # every value is below its bound


def _value_counts(a_size: int) -> np.ndarray:
    """counts[code, v]: how many of the a_size base-4 digits of code equal
    v.  A code's counts are those of its high digits plus its low digit."""
    counts = np.zeros((1, 4), dtype=np.int64)
    for _ in range(a_size):
        counts = (counts[:, None] + np.eye(4, dtype=np.int64)).reshape(-1, 4)
    return counts


def _sampled_agreement(G, k, rng, count) -> int:
    """Face-vs-Taylor disagreements on count tuples.  The odd rows are
    uniform in G^(2^k); the even rows are cubes from sampled coefficient
    rows, each with one vertex replaced by a drawn value."""
    width = 1 << k
    tuples = _draws_below(rng, (count, width), G.size)
    base = _subset_table(_taylor_coeffs(G, k, rng, (count + 1) // 2), G, "zeta")
    picks = _draws_below(rng, (len(base), 2), (G.size, width))
    base[np.arange(len(base)), picks[:, 1]] = picks[:, 0]
    tuples[::2] = base
    m1 = face_member_mask(tuples, G, k)
    m2 = taylor_member_mask(tuples, G, k)
    return int((m1 != m2).sum())


def _taylor_coeffs(G, k, rng, count) -> np.ndarray:
    """count coefficient rows, g_J drawn uniformly from G_|J|."""
    levels = [G.level(bin(J).count("1")) for J in range(1 << k)]
    picks = _draws_below(rng, (count, 1 << k), [len(lv) for lv in levels])
    return np.stack([lv[picks[:, J]] for J, lv in enumerate(levels)], axis=1)


def _taylor_roundtrip(G, k, rng, count) -> bool:
    """Taylor injectivity on count sampled coefficient rows, by one zeta
    and one Moebius pass; the first cube also goes through hk_taylor."""
    coeffs = _taylor_coeffs(G, k, rng, count)
    cubes = _subset_table(coeffs, G, "zeta")
    return (np.array_equal(_subset_table(cubes, G, "moebius"), coeffs)
            and np.array_equal(hk_taylor(cubes[0], G)[0], coeffs[0]))


@lru_cache(maxsize=4)
def _map_choices(max_order: int) -> tuple[tuple, tuple]:
    """The candidate (H, G) groups of _sample_map, built once per order."""
    h_choices = (
        FilteredAbelianGroup.maximal([2], 1),
        FilteredAbelianGroup.maximal([2, 2], 1),
        FilteredAbelianGroup.maximal([4], 1),
        FilteredAbelianGroup.maximal([3], 1),
        FilteredAbelianGroup.maximal([2, 2, 2], 1),
        FilteredAbelianGroup.maximal([8], 1),
        FilteredAbelianGroup.maximal([9], 1) if max_order >= 9 else
        FilteredAbelianGroup.maximal([4], 1),
    )
    g_choices = (
        FilteredAbelianGroup.maximal([4], 2),
        FilteredAbelianGroup.maximal([2], 2),
        FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2]),
        FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1]),
        FilteredAbelianGroup.maximal([2, 2], 1),
        FilteredAbelianGroup.cyclic_chain(8, [8, 2, 1]),
    )
    return h_choices, g_choices


def _sample_map(rng, max_order: int = 8):
    """A random filtered-group pair and map table, mixing structured
    (polynomial) and unstructured choices."""
    h_choices, g_choices = _map_choices(max_order)
    H = h_choices[rng.below(len(h_choices))]
    G = g_choices[rng.below(len(g_choices))]
    kind = rng.below(4)
    if kind == 0:          # unstructured random table
        return H, G, _draws_below(rng, (H.size,), G.size)
    table = np.zeros(H.size, dtype=np.int64)
    if kind == 1:          # constant
        c = rng.below(G.size)
        table[:] = c
    else:                  # affine-ish structured map, often polynomial
        c0 = rng.below(G.size)
        mults = [rng.below(G.orders[0]) for _ in H.orders]
        for x in range(H.size):
            acc = list(code_element(G, c0))
            acc[0] += sum(m * xt for m, xt in zip(mults, code_element(H, x)))
            table[x] = element_code(G, acc)
    return H, G, table


# ---------------------------------------------------------------------------
# decomposition suite


@_least(n=0, cases=1)
def _suite_decomposition(report: SuiteReport, rng, threads, budget, *,
                         n=5, cases=100):
    N = space(2, n).size
    s1 = catalog.S_k(n, 1).classical_table().tolist()
    s2 = catalog.S_k(n, 2).classical_table().tolist()
    fails_pyth = 0
    fails_orth = 0
    fails_mono = 0
    for case in range(cases):
        f = [Fraction(rng.below(41) - 20, 1 + rng.below(7)) for _ in range(N)]
        factors = [s1, s2]
        g, energy = conditional_expectation(f, factors)
        resid = [a - b for a, b in zip(f, g)]
        norm_f = sum(v * v for v in f)
        norm_r = sum(v * v for v in resid)
        if norm_f != energy * N + norm_r:
            fails_pyth += 1
        # orthogonality against an arbitrary measurable function
        lookup = {}
        for x in range(N):
            key = (s1[x], s2[x])
            if key not in lookup:
                lookup[key] = Fraction(rng.below(19) - 9)
        meas = [lookup[(s1[x], s2[x])] for x in range(N)]
        if sum(r * m for r, m in zip(resid, meas)) != 0:
            fails_orth += 1
        # refinement can only increase energy
        _, coarse = conditional_expectation(f, [s1])
        if coarse > energy:
            fails_mono += 1
    report.add("pythagoras-energy", {"n": n, "cases": cases}, fails_pyth == 0)
    report.add("residual-orthogonality", {"n": n, "cases": cases}, fails_orth == 0)
    report.add("energy-monotone-refinement", {"n": n, "cases": cases},
               fails_mono == 0)


# ---------------------------------------------------------------------------
# dispatcher


_SUITES = {
    "lucas": _suite_lucas,
    "lam": _suite_lam,
    "df": _suite_df,
    "symprod": _suite_symprod,
    "gowers-props": _suite_gowers,
    "dkp": _suite_dkp,
    "roots": _suite_roots,
    "weighted": _suite_weighted,
    "cubes": _suite_cubes,
    "decomposition": _suite_decomposition,
}


SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, params: dict | None = None, seed: int = 0,
              threads: int = 1, budget: int | None = None) -> SuiteReport:
    """Run a named suite.  Its keyword parameters, each with a default, are
    the only keys params may hold, and an integer parameter takes an integer
    (json_int's rule: no bool, no float) no less than its declared least;
    any other key or value raises ValueError before a check runs."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suite = _SUITES[name]
    params = dict(params or {})
    unknown = [key for key in params if key not in suite.__kwdefaults__]
    if unknown:
        raise ValueError(
            f"suite {name!r} takes no parameter {', '.join(map(repr, unknown))}"
            f"; its parameters are {', '.join(suite.__kwdefaults__)}")
    for key in [key for key in params if key in suite.least]:
        value = json_int(params, key)
        if not isinstance(value, int) or value < suite.least[key]:
            raise ValueError(f"suite {name!r}: {key} must be an integer of "
                             f"at least {suite.least[key]}, got {params[key]!r}")
        params[key] = value
    report = SuiteReport(name, seed, threads, params)
    suite(report, SplitMix64(seed), threads, budget, **params)
    return report
