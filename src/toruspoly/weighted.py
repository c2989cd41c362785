"""Weighted-degree polynomial maps Z^m -> R/Z with initial degrees D_i.

The basic generator p^j e_i carries weighted degree D_i + j(p-1); a map has
weighted degree <= d when every iterated difference along generators of
total degree > d vanishes.  Such maps are exactly the combinations
alpha + sum c/p^(r+1) binom(x_1, i_1) ... binom(x_m, i_m) over terms with
(sum_j D_j i_j) + r(p-1) <= d, they are periodic with period p^j e_i as
soon as D_i + j(p-1) > d, and they admit p-th roots by the denominator
shift r -> r+1 at the cost of p-1 degrees.

Every evaluation goes through one batched kernel, eval_stacked: the
numerators over p^K of stacked polynomials at an (M, m) array of points.
WeightedPoly.eval_nums is its one-row call, and tabulate, periodicity_check
and Factor.pullback are calls of that.

The inverse direction is one Newton transform, binomial_expand.  On a
table with values in (1/p^K)Z/Z and period box_t = p^e along axis t, the
shift S_t has Delta_t^(box_t) = (S_t - 1)^(p^e) = S_t^(p^e) - 1 = 0 mod p,
so Delta_t^(K box_t) = 0: forward differences on the table tiled K times
per axis reach every Newton coefficient, and weighted_degree reads the
degree off them.

The module also holds Factor: families of torus polynomials on F_p^n
chained by p * P_(i,j) = P_(i,j-1), with depth extension via canonical
p-th roots and degree retraction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import SPACE_CAP, TorusValue, check_budget, json_int, validate_prime
from .poly import NCPoly, NotPolynomialError, _check_table_exponent


def gen_binom(x: int, i: int) -> int:
    """binom(x, i) for any integer x (product formula; integral)."""
    out = 1
    for u in range(i):
        out = out * (x - u) // (u + 1)
    return out


def _check_coordinates(p: int, m: int, D: Sequence[int],
                       *more: Sequence[int]) -> None:
    """A supported prime, and one initial degree D_i >= 1 per coordinate
    (and one entry of each further sequence, such as the box sides)."""
    validate_prime(p)
    if any(len(s) != m for s in (D, *more)) or any(d < 1 for d in D):
        raise ValueError(f"need one initial degree D_i >= 1 (and one box "
                         f"side) per coordinate, m = {m}")


class WeightedPoly:
    """Canonical binomial-basis representation of a weighted-degree map."""

    __slots__ = ("p", "m", "D", "alpha", "terms")

    def __init__(self, p: int, m: int, D: Sequence[int], alpha: TorusValue,
                 terms: dict[tuple[tuple[int, ...], int], int] | None = None):
        _check_coordinates(p, m, D)
        self.p = p
        self.m = m
        self.D = tuple(D)
        self.alpha = alpha
        # the terms c/p^(r+1) of each i summed as one reduced fraction
        sums: dict[tuple[int, ...], TorusValue] = {}
        for (i_vec, r), c in (terms or {}).items():
            if r < 0:
                raise ValueError(f"negative depth r = {r}")
            if len(i_vec) != m or any(i < 0 for i in i_vec) or sum(i_vec) == 0:
                raise ValueError(f"bad exponent vector {i_vec}")
            v = TorusValue(p, c, r + 1)
            sums[i_vec] = sums[i_vec] + v if i_vec in sums else v
        self.terms = {(i_vec, v.exp - 1): v.num
                      for i_vec, v in sums.items() if v.exp}

    def term_degree(self, i_vec: tuple[int, ...], r: int) -> int:
        return sum(d * i for d, i in zip(self.D, i_vec)) + r * (self.p - 1)

    def degree(self) -> float:
        if self.terms:
            return max(self.term_degree(i, r) for (i, r) in self.terms)
        return 0 if not self.alpha.is_zero() else float("-inf")

    def exponent(self) -> int:
        """Least K with every value in (1/p^K)Z/Z: the table denominator."""
        return max([self.alpha.exp] + [r + 1 for (_, r) in self.terms],
                   default=0)

    def eval_nums(self, points) -> np.ndarray:
        """Numerators over p^K (K = exponent()) at each row of an (M, m)
        integer array of points: the one row of eval_stacked([self], K)."""
        return eval_stacked([self], self.exponent(), points)[0]

    def pth_root(self) -> "WeightedPoly":
        """p*root = self; per-term denominator shift, degree cost p-1."""
        return WeightedPoly(
            self.p, self.m, self.D,
            TorusValue(self.p, self.alpha.num, self.alpha.exp + 1),
            {(i, r + 1): c for (i, r), c in self.terms.items()})

    def periods(self, d: int | None = None) -> tuple[int, ...]:
        """Periods p^K_i with K_i minimal such that D_i + K_i(p-1) > d."""
        if d is None:
            d = self.degree()
            d = 0 if d == float("-inf") else int(d)
        out = []
        for Di in self.D:
            j = 0
            while Di + j * (self.p - 1) <= d:
                j += 1
            out.append(self.p**j)
        return tuple(out)

    def tabulate(self, shape: Sequence[int]) -> "PeriodicMap":
        shape = tuple(shape)
        nums = self.eval_nums(_box_points(shape)).reshape(shape)
        return PeriodicMap(self.p, self.m, self.D, shape, nums,
                           self.exponent())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedPoly):
            return NotImplemented
        return (self.p, self.m, self.D, self.alpha, self.terms) == (
            other.p, other.m, other.D, other.alpha, other.terms)

    def to_json(self) -> dict:
        return {
            "p": self.p, "m": self.m, "D": list(self.D),
            "alpha": self.alpha.to_json(),
            "terms": [{"i": list(i), "r": r, "c": c}
                      for (i, r), c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WeightedPoly":
        """Terms with equal (i, r) sum, as CanonicalForm.from_json's do."""
        p = json_int(obj, "p")
        terms: dict[tuple[tuple[int, ...], int], int] = {}
        for t in obj.get("terms", []):
            key = (tuple(json_int(t, "i")), json_int(t, "r"))
            terms[key] = terms.get(key, 0) + json_int(t, "c")
        return cls(p, json_int(obj, "m"), json_int(obj, "D"),
                   TorusValue.from_json(p, obj.get("alpha", {"num": 0, "exp": 0})),
                   terms)

    def __repr__(self) -> str:
        return f"WeightedPoly(p={self.p}, D={self.D}, {len(self.terms)} terms)"


def eval_stacked(polys: Sequence[WeightedPoly], K: int, points) -> np.ndarray:
    """Numerators over p^K of each polynomial (a row) at each row of an
    (M, m) integer array of points (a column), which may be negative or off
    the period.  The polynomials share p and m, and K is at least each one's
    exponent().

    Each polynomial is one row of coefficients c p^(K-1-r) mod p^K on the
    union of their exponent vectors.  binom(x_t, i) mod p^K is built once
    per distinct coordinate.  The dtype is int64 when p^K * max(p^K, T + 1)
    < 2^63 for the union's T terms, else Python integers (dtype object),
    which run the same code.  Rows are summed by one matrix product when
    that is exact (dtype object, or T (p^K - 1)^2 < 2^63), else with each
    product reduced mod p^K first.
    """
    p, m = polys[0].p, polys[0].m
    mod = p**K
    pts = np.asarray(points)  # dtype object past 64-bit coordinates
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ValueError(f"need an (M, {m}) array of points")
    if any((w.p, w.m) != (p, m) or w.exponent() > K for w in polys):
        raise ValueError(f"need polynomials on one (p, m) = ({p}, {m}), each "
                         f"with values in (1/p^{K})Z/Z")
    union = {i: t for t, i in enumerate(dict.fromkeys(
        i for w in polys for i, _ in w.terms))}
    exps = np.array(list(union), dtype=np.int64).reshape(len(union), m)
    dtype = np.int64 if mod * max(mod, len(union) + 1) < 1 << 63 else object
    rows = [[0] * len(union) for _ in polys]
    for row, w in zip(rows, polys):
        for (i, r), c in w.terms.items():
            row[union[i]] = (row[union[i]] + c * p ** (K - 1 - r)) % mod
    coefs = np.array(rows, dtype=dtype).reshape(len(polys), len(union))
    consts = np.array([w.alpha.num * p ** (K - w.alpha.exp) % mod
                       for w in polys], dtype=dtype)
    mono = np.ones((len(pts), len(union)), dtype=dtype)
    for t in range(m):
        top = int(exps[:, t].max(initial=0))
        if top == 0:
            continue
        coords, inv = np.unique(pts[:, t], return_inverse=True)
        cols = np.array([[(math.comb(u, i) if u >= 0 else gen_binom(u, i))
                          % mod for i in range(top + 1)]
                         for u in coords.tolist()],
                        dtype=dtype).reshape(len(coords), top + 1)
        mono = mono * cols[inv.reshape(-1)][:, exps[:, t]] % mod
    if dtype is object or len(union) * (mod - 1) ** 2 < 1 << 63:
        vals = coefs @ mono.T  # exact: every sum of products fits
    else:  # each product reduced first, so that T residues sum below 2^63
        vals = (mono * coefs[:, None, :] % mod).sum(axis=2, dtype=dtype)
    return (vals + consts[:, None]) % mod


def _box_points(shape: Sequence[int]) -> np.ndarray:
    """Every point of the box prod range(s_t), in C order, as (M, m)."""
    return np.indices(shape, dtype=np.int64).reshape(
        len(shape), math.prod(shape)).T


class PeriodicMap:
    """A periodic map Z^m -> (1/p^K)Z/Z stored on its fundamental box."""

    __slots__ = ("p", "m", "D", "box", "nums", "K")

    def __init__(self, p: int, m: int, D: Sequence[int], box: Sequence[int],
                 nums: np.ndarray, K: int):
        _check_coordinates(p, m, D, box)
        if K < 0:
            raise ValueError(f"table exponent must be >= 0, got K = {K}")
        _check_table_exponent(p, K)
        nums = np.asarray(nums)
        # Python integers (dtype object) reduce exactly, whatever their size
        if nums.dtype.kind not in "iuO" or (nums.dtype == object and not all(
                isinstance(v, int) for v in nums.flat)):
            raise ValueError("table numerators must be integers")
        self.p = p
        self.m = m
        self.D = tuple(D)
        self.box = tuple(box)
        self.nums = np.asarray(nums % p**K, dtype=np.int64)
        self.K = K
        if self.nums.shape != self.box:
            raise ValueError(f"table shape {self.nums.shape} != box {self.box}")
        for side in self.box:
            e = side
            while e > 1 and e % p == 0:
                e //= p
            if e != 1:
                raise ValueError("periods must be powers of p")


def weighted_degree(f: "WeightedPoly | PeriodicMap") -> float:
    """Weighted degree: the max term degree of the binomial-basis form,
    read off the Newton coefficients for a table."""
    if isinstance(f, WeightedPoly):
        return f.degree()
    if not isinstance(f, PeriodicMap):
        raise TypeError("need a WeightedPoly or a PeriodicMap with periods")
    return binomial_expand(f, math.inf).degree()


def binomial_expand(f: PeriodicMap, d_bound: float) -> WeightedPoly:
    """Unique binomial-basis coefficients of a weighted degree <= d map.

    The Newton coefficient at i is Delta^i f(0), for i_t < K box_t (see the
    module docstring): in-place forward differences, one pass per axis, on
    the table tiled K times, at cost prod(K box_t) sum(K box_t) whatever the
    values.  Each numerator over p^K goes to WeightedPoly as it is, which
    reduces it to a term c/p^(r+1); one of degree past d_bound means the map
    exceeds the bound.
    """
    p, K = f.p, f.K
    reps = max(K, 1)  # K = 0 is the zero table
    sides = [reps * s for s in f.box]
    check_budget(math.prod(sides) * sum(sides), SPACE_CAP, "binomial_expand")
    coefs = np.tile(f.nums, (reps,) * f.m)
    for axis, side in enumerate(sides):
        v = np.moveaxis(coefs, axis, 0)
        for k in range(1, side):
            v[k:] = (v[k:] - v[k - 1:-1]) % p**K
    origin = (0,) * f.m
    terms = {(i_vec, K - 1): int(coefs[i_vec])
             for i_vec in map(tuple, np.argwhere(coefs).tolist()) if i_vec != origin}
    out = WeightedPoly(p, f.m, f.D, TorusValue(p, int(coefs[origin]), K),
                       terms)
    for i_vec, r in out.terms:
        if out.term_degree(i_vec, r) > d_bound:
            raise NotPolynomialError(
                f"coefficient at {i_vec} has depth {r}: degree "
                f"{out.term_degree(i_vec, r)} exceeds the bound {d_bound}")
    return out


def periodicity_check(f: WeightedPoly, d: int) -> dict:
    """Confirm the forced periods and extract the top linear part:
    for every i with some j_i solving D_i + j_i(p-1) = d, the difference
    along p^(j_i) e_i is the constant c_i / p."""
    p, K = f.p, f.exponent()
    periods = f.periods(d)
    pts = _box_points(periods)
    base = f.eval_nums(pts)

    def shifted(i: int, step: int) -> np.ndarray:  # the values at x + step e_i
        moved = pts.copy()
        moved[:, i] += step
        return f.eval_nums(moved)

    report: dict = {"periods": {}, "top_coefficients": {}, "pass": True}
    for i, per in enumerate(periods):
        ok = bool(np.array_equal(shifted(i, per), base))
        report["periods"][f"p^{round(math.log(per, p))}e_{i+1}"] = ok
        report["pass"] &= ok
    for i, Di in enumerate(f.D):
        if (d - Di) % (p - 1) != 0 or d < Di:
            continue
        # p^(j_i) with D_i + j_i(p-1) = d lies below the forced period;
        # the difference must take one value on the box
        vals = (shifted(i, p ** ((d - Di) // (p - 1))) - base) % p**K
        if (vals != vals[0]).any():
            report["pass"] = False
            report["top_coefficients"][i + 1] = None
            continue
        v = TorusValue(p, int(vals[0]), K)
        if v.exp <= 1:  # 0 or c/p
            report["top_coefficients"][i + 1] = v.num
        else:
            report["pass"] = False
            report["top_coefficients"][i + 1] = None
    return report


# ---------------------------------------------------------------------------
# factors: chained families p * P_(i,j) = P_(i,j-1)


class Factor:
    """A family of torus polynomials chained by multiplication by p.

    chains[i] is (D_i, [P_(i,0), ..., P_(i,J_i)]) with deg P_(i,j) bounded
    by D_i + j(p-1), values of P_(i,j) in (1/p^(j+1))Z/Z, and
    p P_(i,j) = P_(i,j-1) (the j = 0 layer is classical).
    """

    def __init__(self, p: int, n: int,
                 chains: Sequence[tuple[int, Sequence[NCPoly]]]):
        self.p = p
        self.n = n
        self.chains = [(int(D), list(polys)) for D, polys in chains]
        self.validate()

    def validate(self) -> None:
        p = self.p
        for D, polys in self.chains:
            if D < 2:
                raise ValueError("initial degrees must be >= 2")
            prev: NCPoly | None = None
            for j, poly in enumerate(polys):
                if (poly.p, poly.n) != (p, self.n):
                    raise ValueError("chain polynomial on the wrong space")
                if poly.K > j + 1:
                    raise ValueError(
                        f"layer {j} takes values outside (1/p^{j+1})Z/Z")
                if poly.degree() > D + j * (p - 1):
                    raise ValueError(f"layer {j} exceeds degree {D + j*(p-1)}")
                # layer 0 has K <= 1, so p * layer 0 = 0 needs no check
                if prev is not None and poly.mul_by_p() != prev:
                    raise ValueError(f"broken chain at layer {j}")
                prev = poly

    @property
    def dimension(self) -> int:
        return len(self.chains)

    def degree(self) -> int:
        return max(
            (D + (len(polys) - 1) * (self.p - 1) for D, polys in self.chains),
            default=0)

    def depth_extend(self, new_depths: Sequence[int]) -> "Factor":
        """Adjoin canonical p-th roots so chain i reaches depth new_depths[i];
        original layers are untouched."""
        if len(new_depths) != self.dimension:
            raise ValueError("one target depth per chain")
        chains = []
        for (D, polys), target in zip(self.chains, new_depths):
            if target < len(polys) - 1:
                raise ValueError("depth extension cannot shrink a chain")
            polys = list(polys)
            while len(polys) - 1 < target:
                polys.append(polys[-1].pth_root())
            chains.append((D, polys))
        return Factor(self.p, self.n, chains)

    def retract(self, d: int) -> "Factor":
        """Degree <= d depth retraction: delete layers with D_i + j(p-1) > d."""
        chains = []
        for D, polys in self.chains:
            kept = [poly for j, poly in enumerate(polys)
                    if D + j * (self.p - 1) <= d]
            if kept:
                chains.append((D, kept))
        return Factor(self.p, self.n, chains)

    def top_values(self) -> np.ndarray:
        """(p^n, m) integer table whose row x holds the coordinates a_i with
        P_(i,J_i)(x) = a_i / p^(J_i+1)."""
        out = np.empty((self.p**self.n, self.dimension), dtype=np.int64)
        for t, (_, polys) in enumerate(self.chains):
            top, mod = polys[-1], self.p ** len(polys)
            out[:, t] = top.nums * (mod // self.p**top.K) % mod
        return out

    def pullback(self, wp: WeightedPoly) -> NCPoly:
        """Q(x) = f(a_1, ..., a_m) through the top coordinates."""
        if wp.m != self.dimension:
            raise ValueError("dimension mismatch")
        return NCPoly(self.p, self.n, wp.eval_nums(self.top_values()),
                      wp.exponent())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Factor):
            return NotImplemented
        return (self.p, self.n, self.chains) == (other.p, other.n, other.chains)
