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
from functools import lru_cache
from math import comb

import numpy as np

from . import catalog
from .core import TorusValue, space
from .cubes import (
    FilteredAbelianGroup,
    _subset_table,
    code_element,
    element_code,
    equidistribution_report,
    hk_size,
    is_polynomial_map,
    taylor_expand,
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
    _gowers_power_direct,
    _random_bounded,
    _random_poly,
    conditional_expectation,
    gowers_power,
    gowers_power_exact,
    verify_gowers_properties,
)
from .poly import (
    CanonicalForm,
    NCPoly,
    _depth_count,
    _reduce,
    canonical_slots,
    coefficient_batches,
    degrees_from_coeffs,
    eval_slot_batches,
    interpolate_tables,
    slot_degrees,
)
from .rng import ALGORITHM, SplitMix64
from .weighted import (
    WeightedPoly,
    binomial_expand,
    periodicity_check,
    same_values,
    weighted_degree,
)

SUITE_NAMES = (
    "lucas", "lam", "df", "symprod", "gowers-props",
    "dkp", "roots", "weighted", "cubes", "decomposition",
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
    algorithm: str = ALGORITHM

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "rng": self.algorithm,
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


class _Recorder:
    """Appends check records; each one's runtime is the time since the
    previous record (or since the suite started)."""

    def __init__(self, report: SuiteReport):
        self.report = report
        self.last = time.perf_counter()

    def add(self, name: str, params: dict, passed: bool, **details):
        now = time.perf_counter()
        self.report.checks.append(CheckRecord(
            name, params, bool(passed), details, (now - self.last) * 1e3))
        self.last = now


# ---------------------------------------------------------------------------
# identity suites


def _suite_lucas(rec: _Recorder, params: dict, rng, threads, budget):
    n_max = params.get("n", 10)
    k_max = params.get("k", 10)
    for n in range(1, n_max + 1):
        ok = True
        bad = None
        for k in range(1, k_max + 1):
            sk = catalog.S_k(n, k).classical_table()
            prod = np.ones_like(sk)
            kk = k
            a = 0
            while kk:
                if kk & 1:
                    prod = prod * catalog.S_k(n, 1 << a).classical_table() % 2
                kk >>= 1
                a += 1
            if not np.array_equal(sk, prod):
                ok, bad = False, {"k": k, "kind": "product"}
                break
            if not np.array_equal(sk, catalog.binom_L_mod2(n, k)):
                ok, bad = False, {"k": k, "kind": "binomial"}
                break
        rec.add("lucas-products", {"n": n, "k_max": k_max}, ok,
                **({"counterexample": bad} if bad else {"points": 2**n}))


def _suite_lam(rec: _Recorder, params: dict, rng, threads, budget):
    n_max = params.get("n", 12)
    for n in range(1, n_max + 1):
        L = catalog.L_table(n)
        total = np.zeros_like(L)
        m = 0
        while (1 << m) <= n:
            total = total + catalog.S_k(n, 1 << m).classical_table() * (1 << m)
            m += 1
        rec.add("digit-expansion-of-L", {"n": n},
                bool(np.array_equal(L, total)), points=2**n)


def _suite_df(rec: _Recorder, params: dict, rng, threads, budget):
    n_max = params.get("n", 6)
    trials = params.get("trials", 10_000)
    for n in range(4, n_max + 1):
        T = catalog.quartic_form(n)
        S = sym_power(catalog.bilinear_b(n), 2)
        rec.add("d4S4-coefficients", {"n": n}, T == S, entries=len(T.coeffs))
        N = space(2, n).size
        if N**4 <= 1 << 18:
            grids = np.meshgrid(*([np.arange(N)] * 4), indexing="ij")
            args = [g.reshape(-1) for g in grids]
            agree = True
            for lo in range(0, N**4, 1 << 14):
                chunk = [a[lo: lo + (1 << 14)] for a in args]
                agree &= np.array_equal(T.eval_batch(chunk), S.eval_batch(chunk))
            rec.add("d4S4-exhaustive-tuples", {"n": n, "tuples": N**4}, agree)
        else:
            args = [np.array([rng.below(N) for _ in range(trials)])
                    for _ in range(4)]
            agree = np.array_equal(T.eval_batch(args), S.eval_batch(args))
            rec.add("d4S4-random-tuples", {"n": n, "trials": trials}, agree)


def _random_classical(p: int, n: int, d: int, rng) -> NCPoly:
    slots = [(e, j) for (e, j) in canonical_slots(p, n, d) if j == 0]
    terms = {s: rng.below(p) for s in slots}
    return NCPoly.from_canonical(
        CanonicalForm(p, n, TorusValue.zero(p), terms))


def _suite_symprod(rec: _Recorder, params: dict, rng, threads, budget):
    n_max = params.get("n", 5)
    # the quadratic -> quartic lift over F_2
    for n in range(2, n_max + 1):
        S2, S4 = catalog.S_k(n, 2), catalog.S_k(n, 4)
        Q = binomial_lift_power(S2, 2)
        ok_form = dk_extract(Q, 4) == sym_power(catalog.bilinear_b(n), 2)
        diff_deg = (Q - S4).degree()
        rec.add("binomial-lift-quartic", {"n": n, "p": 2, "m": 2},
                ok_form and diff_deg <= 3,
                lift_degree=Q.degree(), difference_degree=diff_deg)
    # m = 1 is the identity
    P = _random_classical(2, 3, 2, rng)
    rec.add("lift-m1-identity", {"p": 2, "n": 3}, binomial_lift_power(P, 1) == P)
    # odd characteristic, m up to 3
    for n, m in ((2, 3), (3, 2), (3, 3)):
        P = _random_classical(3, n, 2, rng)
        while P.degree() < 2:
            P = _random_classical(3, n, 2, rng)
        Q = binomial_lift_power(P, m, k=2)
        ok = dk_extract(Q, 2 * m) == sym_power(dk_extract(P, 2), m)
        rec.add("binomial-lift-odd", {"p": 3, "n": n, "m": m}, ok,
                lift_degree=Q.degree())
    # m! Sym^m(T) = T * ... * T in characteristic 5
    p, n, m = 5, 3, 2
    T = dk_extract(_random_classical(p, n, 2, rng), 2)
    lhs = sym_power(T, m).scale(2)  # 2! = 2
    rhs = concat(T, T)
    rec.add("factorial-symmetric-power", {"p": p, "n": n, "m": m}, lhs == rhs)
    # product rule d^(k+l)(PQ) = d^k P * d^l Q over every classical pair
    # with degree sum <= 4 on F_2^3
    for k, l in ((1, 1), (1, 2), (2, 2), (1, 3)):
        pairs, fails = _product_rule_exhaustive(3, k, l)
        rec.add("product-rule-exhaustive", {"p": 2, "n": 3, "k": k, "l": l},
                fails == 0, pairs=pairs)


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


def _suite_gowers(rec: _Recorder, params: dict, rng, threads, budget):
    count = params.get("count", 100)
    tol = params.get("tol", 1e-8)
    if "p" in params or "n" in params:
        configs = ((params.get("p", 2), params.get("n", 4)),)
    else:
        configs = params.get("configs", ((2, 4), (3, 2)))
    for p, n in configs:
        records = verify_gowers_properties(p, n, seed=rng.next_u64(),
                                           count=count, tol=tol, budget=budget)
        by_check: dict[str, list] = {}
        for r in records:
            by_check.setdefault(r["check"], []).append(r)
        for name, rs in sorted(by_check.items()):
            worst = max(rs, key=lambda r: r["lhs"] - r["rhs"])
            rec.add(f"norm-{name}", {"p": p, "n": n, "cases": len(rs)},
                    all(r["pass"] for r in rs),
                    worst_margin=worst["rhs"] + worst["tolerance"] - worst["lhs"])
        # direct vs recursive agreement
        sub = SplitMix64(rng.next_u64())
        worst = 0.0
        for d in [2 + i % 2 for i in range(count)] + [4 if p == 2 else 3] * 10:
            f = _random_bounded(p, n, sub)
            worst = max(worst, abs(gowers_power(f, d, budget=budget)
                                   - _gowers_power_direct(f, d, budget)))
        rec.add("direct-vs-recursive", {"p": p, "n": n, "count": count},
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
        rec.add("exact-phase-path", {"p": p, "n": n, "cases": 20},
                ok_exact and ok_bias)


def _suite_dkp(rec: _Recorder, params: dict, rng, threads, budget):
    n_max = params.get("n", 3)
    p = 2
    for n in range(2, n_max + 1):
        P = catalog.L_over_power(n, 3)
        checked, failures = check_dkp(P, 3)
        rec.add("p-fold-repetition", {"p": p, "n": n, "k": 3, "poly": "L/8"},
                not failures, checked=checked, failures=failures[:3])
    for n in range(2, n_max + 1):
        for trial in range(4):
            slots = [(e, j) for (e, j) in canonical_slots(2, n, 4) if j <= 1]
            terms = {s: rng.below(2) for s in slots}
            P = NCPoly.from_canonical(
                CanonicalForm(2, n, TorusValue.zero(2), terms))
            checked, failures = check_dkp(P, 4)
            rec.add("p-fold-repetition",
                    {"p": p, "n": n, "k": 4, "poly": f"random-depth1-{trial}"},
                    not failures, checked=checked, failures=failures[:3])
    # classical inputs: both sides vanish
    P = catalog.S_k(3, 3)
    checked, failures = check_dkp(P, 3)
    rec.add("p-fold-repetition-classical", {"p": 2, "n": 3, "k": 3},
            not failures, checked=checked)


# ---------------------------------------------------------------------------
# exhaustive root / canonical-form suite


def _exhaustive_poly_scan(p: int, n: int, d: int) -> dict:
    """Root round-trips, canonical round-trips, and the value-count bound
    over every degree <= d canonical form (modulo constants), batched."""
    sp = space(p, n)
    K = _depth_count(p, d) if n else 0  # F_p^0 has no slots at any degree
    # once per cell: every block shares the slots
    slots = canonical_slots(p, n, d)
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


def _suite_roots(rec: _Recorder, params: dict, rng, threads, budget):
    grids = params.get(
        "grids",
        [(2, n, d) for n in range(1, 4) for d in range(0, 5)]
        + [(3, n, d) for n in range(1, 3) for d in range(0, 4)],
    )
    for p, n, d in grids:
        res = _exhaustive_poly_scan(p, n, d)
        rec.add("root-roundtrip-exhaustive", {"p": p, "n": n, "d": d},
                res["root_fail"] == 0 and res["bound_fail"] == 0,
                polynomials=res["count"])
        rec.add("canonical-roundtrip-exhaustive", {"p": p, "n": n, "d": d},
                res["canon_fail"] == 0, polynomials=res["count"])
    # random larger cases through the object-level path
    trials = params.get("random_trials", 500)
    fails = 0
    for t in range(trials):
        p = (2, 3, 5)[rng.below(3)]
        n = 1 + rng.below(4 if p == 2 else 2)
        d = 1 + rng.below(5 if p == 2 else 4)
        P = _random_poly(p, n, d, rng)
        R = P.pth_root()
        if R.mul_by_p() != P or R.degree() > max(P.degree(), 0) + p - 1:
            fails += 1
    rec.add("root-roundtrip-random", {"trials": trials}, fails == 0)
    # weighted roots
    wtrials = params.get("weighted_trials", 300)
    fails = 0
    for t in range(wtrials):
        p = (2, 3)[rng.below(2)]
        m = 1 + rng.below(2)
        D = tuple(1 + rng.below(2) for _ in range(m))
        d = max(D) + rng.below(4)
        wp = _random_weighted(p, m, D, d, rng)
        g = wp.pth_root()
        pts = np.indices([min(s, 9) for s in g.periods()]).reshape(m, -1).T
        # p*g over p^(K-1) against wp, as two tables on the same box
        gk = max(g.exponent() - 1, 0)
        ok = weighted_degree(g) <= max(wp.degree(), 0) + p - 1 and same_values(
            p, g.eval_nums(pts) % p**gk, gk, wp.eval_nums(pts), wp.exponent())
        fails += not ok
    rec.add("weighted-root-roundtrip", {"trials": wtrials}, fails == 0)


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


def _suite_weighted(rec: _Recorder, params: dict, rng, threads, budget):
    trials = params.get("trials", 300)
    fails = 0
    worst = None
    for t in range(trials):
        p = (2, 3)[rng.below(2)]
        m = 1 + rng.below(2)
        D = tuple(1 + rng.below(2) for _ in range(m))
        d = max(D) + rng.below(5 - m)
        wp = _random_weighted(p, m, D, d, rng)
        bound = max(int(wp.degree()), 1) if wp.terms else 1
        table = wp.tabulate(wp.periods(bound))
        back = binomial_expand(table, bound)
        if back != wp:
            fails += 1
            worst = wp.to_json()
    rec.add("binomial-expand-roundtrip", {"trials": trials}, fails == 0,
            **({"witness": worst} if worst else {}))
    # derivative criterion agrees with the term-degree formula
    fails = 0
    for t in range(60):
        p = (2, 3)[rng.below(2)]
        m = 1 + rng.below(2)
        D = tuple(1 + rng.below(2) for _ in range(m))
        d = max(D) + rng.below(3)
        wp = _random_weighted(p, m, D, d, rng)
        dd = wp.degree()
        if dd == float("-inf"):
            continue
        table = wp.tabulate(wp.periods(max(int(dd), 1)))
        if weighted_degree(table) != max(int(dd), 0):
            fails += 1
    rec.add("weighted-degree-criterion", {"trials": 60}, fails == 0)
    # periodicity and top-coefficient extraction
    w = WeightedPoly(2, 1, (1,), TorusValue.zero(2), {((1,), 1): 1})  # a/4
    rep = periodicity_check(w, 2)
    rec.add("periodicity-and-top-layer", {"p": 2, "D": [1], "d": 2},
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
    rec.add("binomial-valuation", {"p_max": 5, "k_max": 4}, ok)


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


def _suite_cubes(rec: _Recorder, params: dict, rng, threads, budget):
    scan_cap = params.get("scan_cap", 1 << 20)
    k_max = params.get("k", 3)
    for G in _group_zoo():
        for k in range(1, k_max + 1):
            total = G.size ** (1 << k)
            name = f"Z{'x'.join(map(str, G.orders))}"
            if total <= scan_cap:
                res = equivalence_scan(G, k)
                rec.add("face-vs-taylor-scan",
                        {"group": name, "k": k, "tuples": res["tuples"]},
                        res["disagreements"] == 0
                        and res["members"] == hk_size(G, k),
                        members=res["members"])
            else:
                res = counted_equivalence(G, k)
                sample = _sampled_agreement(G, k, rng, 1 << 14)
                rec.add("face-vs-taylor-counted",
                        {"group": name, "k": k, "tuples": total},
                        res["equal"] and sample == 0,
                        face_count=res["face_count"],
                        taylor_count=res["taylor_count"],
                        sampled_disagreements=sample)
            # Taylor round-trip injectivity on sampled coefficient tuples
            ok = _taylor_roundtrip(G, k, rng, 100)
            rec.add("taylor-roundtrip", {"group": name, "k": k}, ok)
    # closure of the cube set under addition
    G = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1])
    cubes = enumerate_cube_codes(G, 2)
    idx = np.array([[rng.below(len(cubes)) for _ in range(2)]
                    for _ in range(2000)])
    sums = np.zeros((2000, 4), dtype=np.int64)
    for e in range(4):
        a = cubes[idx[:, 0], e]
        b = cubes[idx[:, 1], e]
        sums[:, e] = (a + b) % 8
    ok = bool(face_member_mask(sums, G, 2).all())
    rec.add("cube-group-closure", {"group": "Z8-chain", "k": 2, "pairs": 2000}, ok)

    # cube preservation must coincide with derivative polynomiality
    maps_target = params.get("maps", 1000)
    agree = 0
    poly_count = 0
    for t in range(maps_target):
        H, G2, phi_codes = _sample_map(rng)
        poly = is_polynomial_map(phi_codes, H, G2)
        pres, _ = preserves_cubes_fast(phi_codes, H, G2, k_max=3, cap=1 << 16)
        agree += poly == pres
        poly_count += poly
    rec.add("derivative-vs-cube-preservation",
            {"maps": maps_target, "k_max": 3},
            agree == maps_target, polynomial_maps=poly_count)

    # generator-only checking is as strong as all-element checking
    ok = True
    for t in range(60):
        H, G2, phi_codes = _sample_map(rng, max_order=9)
        if is_polynomial_map(phi_codes, H, G2, use_generators=True) != \
           is_polynomial_map(phi_codes, H, G2, use_generators=False):
            ok = False
    rec.add("generator-reduction", {"maps": 60}, ok)

    # Weyl: zero bias iff exactly uniform, exhaustive maps [A] -> Z/4
    for a_size in (4, 8):
        codes = np.arange(4**a_size, dtype=np.int64)
        digs = np.stack([codes // 4**i % 4 for i in range(a_size)], axis=1)
        counts = np.stack([(digs == v).sum(axis=1) for v in range(4)], axis=1)
        uniform = (counts == a_size // 4).all(axis=1)
        bias_zero = (
            (counts[:, 0] == counts[:, 2]) & (counts[:, 1] == counts[:, 3])
            & (counts[:, 0] + counts[:, 2] == counts[:, 1] + counts[:, 3])
        )
        rec.add("weyl-criterion", {"domain": a_size, "codomain": "Z4",
                                   "maps": len(codes)},
                bool((uniform == bias_zero).all()))
    # spot-check the report object against the vectorised logic
    vals = [(rng.below(4),) for _ in range(8)]
    rep = equidistribution_report(vals, (4,))
    counts = [sum(1 for v in vals if v == (b,)) for b in range(4)]
    expect_zero = counts[0] == counts[2] and counts[1] == counts[3] \
        and counts[0] + counts[2] == counts[1] + counts[3]
    rec.add("report-consistency", {"domain": 8}, rep["bias_zero"] == expect_zero
            and rep["weyl_consistent"])


def _sampled_agreement(G, k, rng, count) -> int:
    width = 1 << k
    tuples = np.array([[rng.below(G.size) for _ in range(width)]
                       for _ in range(count)], dtype=np.int64)
    # bias half the sample toward actual cubes with one perturbed vertex
    cubes = enumerate_cube_codes(G, k, cap=1 << 18) \
        if hk_size(G, k) <= 1 << 18 else None
    if cubes is not None:
        for row in range(0, count, 2):
            base = cubes[rng.below(len(cubes))].copy()
            base[rng.below(width)] = rng.below(G.size)
            tuples[row] = base
    m1 = face_member_mask(tuples, G, k)
    m2 = taylor_member_mask(tuples, G, k)
    return int((m1 != m2).sum())


def _taylor_roundtrip(G, k, rng, count) -> bool:
    """Taylor injectivity on count sampled coefficient tuples, by one zeta
    and one Moebius pass; the first also goes through the single-cube calls."""
    levels = [sorted(G.level(bin(J).count("1"))) for J in range(1 << k)]
    draws = [[lv[rng.below(len(lv))] for lv in levels] for _ in range(count)]
    codes = {g: element_code(G, g) for g in G.level(0)}
    coeffs = np.array([[codes[g] for g in row] for row in draws])
    cubes = _subset_table(coeffs, G, "zeta")
    first = dict(enumerate(draws[0]))
    cube = taylor_expand(k, first, G)
    return (np.array_equal(_subset_table(cubes, G, "moebius"), coeffs)
            and hk_taylor(cube, G)[0] == first
            and [element_code(G, e) for e in cube.entries] == cubes[0].tolist())


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
    table = np.zeros(H.size, dtype=np.int64)
    if kind == 0:          # unstructured random table
        for x in range(H.size):
            table[x] = rng.below(G.size)
    elif kind == 1:        # constant
        c = rng.below(G.size)
        table[:] = c
    else:                  # affine-ish structured map, often polynomial
        c0 = rng.below(G.size)
        mults = [rng.below(G.orders[0]) for _ in H.orders]
        for x in range(H.size):
            xe = code_element(H, x)
            acc = code_element(G, c0)
            for t, xt in enumerate(xe):
                step = [0] * len(G.orders)
                step[0] = mults[t] * xt
                acc = G.add(acc, G.reduce(step))
            table[x] = element_code(G, acc)
    return H, G, table


# ---------------------------------------------------------------------------
# decomposition suite


def _suite_decomposition(rec: _Recorder, params: dict, rng, threads, budget):
    n = params.get("n", 5)
    cases = params.get("cases", 100)
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
    rec.add("pythagoras-energy", {"n": n, "cases": cases}, fails_pyth == 0)
    rec.add("residual-orthogonality", {"n": n, "cases": cases}, fails_orth == 0)
    rec.add("energy-monotone-refinement", {"n": n, "cases": cases},
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


def run_suite(name: str, params: dict | None = None, seed: int = 0,
              threads: int = 1, budget: int | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    params = dict(params or {})
    report = SuiteReport(suite=name, seed=seed, threads=threads, params=params)
    rng = SplitMix64(seed)
    _SUITES[name](_Recorder(report), params, rng, threads, budget)
    return report
