"""Torus-valued polynomials on F_p^n.

A polynomial is a map P: F_p^n -> (1/p^K)Z/Z all of whose (d+1)-fold
additive derivatives vanish.  Two representations are kept in sync:

* a value table of numerators over a common denominator p^K, and
* a canonical monomial form  alpha + sum c/p^(j+1) * |x_1|^i_1 ... |x_n|^i_n
  with 0 <= i_t < p, coefficients c in {1, ..., p-1}, and the degree of a
  term equal to (i_1 + ... + i_n) + j(p-1).

Tables are the fast path for norms and derivatives; canonical forms drive
p-th roots, degree-by-inspection, and enumeration.  The per-axis kernels
(classical_coeffs, eval_layer_tables) take tables with the table axis first
and any batch axes after it, so each per-axis pass runs over contiguous runs
of entries; interpolate_tables and eval_slot_batches keep the table axis last.
Products run in float64, exact in BLAS while every partial sum is an integer
below 2^53, else in Python integers; layers share one matrix per (p, n).
Every reduction mod p^K goes through one helper, _reduce, on floor division
(a mask at p = 2), and classical_coeffs runs its per-axis products in
float64 with one reduction per transform.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .core import (
    FVec,
    TorusValue,
    check_budget,
    space,
    validate_prime,
)

NEG_INF = float("-inf")
ENUM_CAP = 1 << 20
# coefficient_batches yields about this many table entries per block: small
# enough that a block's tables and interpolation layers stay in cache
_BLOCK_ENTRIES = 1 << 15


class NotPolynomialError(ValueError):
    """Input table is not a polynomial within the requested degree bound."""


# ---------------------------------------------------------------------------
# table kernels (table axis first, batched over the axes after it)


def _reduce(x: np.ndarray, p: int, K: int) -> np.ndarray:
    """x mod p^K for int64, Python-integer or integral float64 arrays,
    negatives included.

    A mask at p = 2; elsewhere x - (x // p^K) p^K, since numpy's floor
    division costs a fraction of its integer %.  The product may wrap in
    int64, but the true residue lies in [0, p^K), so the wrapped difference
    is exact.  Python-integer arrays keep %."""
    if p == 2:
        return x & ((1 << K) - 1)
    m = p**K
    return x % m if x.dtype == object else x - x // m * m


def _check_table_exponent(p: int, K: int) -> None:
    """Value tables hold numerators over p^K in int64."""
    if K >= 63 or p**K >= 1 << 63:  # p >= 2, so K >= 63 never fits
        raise ValueError(f"table denominator {p}^{K} exceeds 2^63 - 1")


def normalize_tables(nums: np.ndarray, K: int, p: int) -> tuple[np.ndarray, int]:
    nums = _reduce(np.asarray(nums, dtype=np.int64), p, K)
    while K > 0 and not _reduce(nums, p, 1).any():
        nums = nums // p
        K -= 1
    return nums, K


def difference_degree(nums: np.ndarray, K: int, p: int,
                      gens: Sequence[tuple[int, int, int]],
                      budget: int | None = None) -> float:
    """Least d such that every iterated difference of a periodic table of
    numerators over p^K, along generators of total weight > d, vanishes.

    gens holds (axis, step, weight) triples, weights >= 1; the table wraps
    on each axis.  The degree is -inf for the zero table and otherwise
    max(0, max_g weight_g + deg Delta_g f), memoised on the normalised
    difference tables.  Each Delta_g is nilpotent on a p-power-periodic
    table and the Delta_g commute, so the walk ends without a bound.
    Its one library caller is NCPoly.degree_by_derivatives.  The work,
    difference tables computed times their size, is checked against budget
    as the walk goes.
    """
    nums = np.asarray(nums, dtype=np.int64)
    idx = np.arange(nums.size).reshape(nums.shape)
    steps = [(np.roll(idx, -step, axis=axis).reshape(-1), weight)
             for axis, step, weight in gens]
    # a depth-first walk on an explicit stack: a chain of differences can
    # outrun Python's frame limit (degree 1,100 from 169 entries at p = 13)
    memo: dict[bytes, float] = {}
    kids: dict[bytes, list[tuple[bytes, int]]] = {}
    flat, K = normalize_tables(nums.reshape(-1), K, p)
    root = K.to_bytes(2, "big") + flat.tobytes()
    stack = [(root, flat, K)]
    work = 0
    while stack:
        key, flat, K = stack[-1]
        if key in memo:
            stack.pop()
        elif K == 0:
            memo[key] = NEG_INF
        elif key in kids:  # every difference is resolved
            memo[key] = max([0] + [w + memo[k] for k, w in kids.pop(key)])
        else:
            work += len(steps) * flat.size
            check_budget(work, budget, "difference_degree")
            kids[key] = []
            for perm, weight in steps:
                diff, Kd = normalize_tables(_reduce(flat[perm] - flat, p, K), K, p)
                kid = Kd.to_bytes(2, "big") + diff.tobytes()
                kids[key].append((kid, weight))
                stack.append((kid, diff, Kd))
    return memo[root]


def mulp_tables(nums: np.ndarray, K: int, p: int) -> tuple[np.ndarray, int]:
    # reduce mod p^(K-1) first so that the product stays below p^K
    return normalize_tables(_reduce(nums, p, max(K - 1, 0)) * p, K, p)


@lru_cache(maxsize=64)
def _inverse_vandermonde(p: int) -> np.ndarray:
    """Inverse of the p x p matrix V[x, i] = x^i over F_p: column a holds the
    coefficients of 1 - (x - a)^(p-1), the indicator of a."""
    return np.array([[(i == 0) - comb(p - 1, i) * pow(-a, p - 1 - i, p)
                      for a in range(p)] for i in range(p)], dtype=np.int64) % p


def _exact_dtype(terms: int, p: int, top: int):
    """float64 while a sum of `terms` products of an F_p coefficient with an
    entry at most top stays below 2^53, so that every partial sum is an
    exact integer and BLAS is exact in any order; Python integers past it."""
    return np.float64 if terms * (p - 1) * top < 1 << 53 else object


def _exact_reduce(prod: np.ndarray, p: int, K: int) -> np.ndarray:
    """An exact float64 or Python-integer product, mod p^K in int64."""
    if prod.dtype == np.float64:
        prod = prod.astype(np.int64)
    return np.asarray(_reduce(prod, p, K), dtype=np.int64)


@lru_cache(maxsize=16)
def _float_axes(p: int) -> int:
    """Per-axis products by the inverse Vandermonde matrix that a float64
    chain of F_p entries takes between reductions mod p: after t of them
    the entries stay below (p-1)(p(p-1))^t, exact while under 2^53.  At
    p = 13 that is 6 axes, so tables below 13^7 entries reduce once."""
    t = 1
    while (p - 1) * (p * (p - 1)) ** (t + 1) < 1 << 53:
        t += 1
    return t


def classical_coeffs(p: int, n: int, table: np.ndarray) -> np.ndarray:
    """Monomial coefficients of F_p-valued tables, per-axis interpolation.

    Tables have shape (N, ...), the table axis first.  Returns an array of
    the same shape; entry at index e is the coefficient of
    prod |x_t|^(digit_t(e)).  At odd p the per-axis products run in float64
    and reduce mod p once at the end, and also every _float_axes(p) axes on
    a table long enough to pass 2^53 without it.
    """
    arr = np.ascontiguousarray(_reduce(np.asarray(table, dtype=np.int64), p, 1))
    shape = arr.shape
    N = p**n
    arr = arr.reshape(N, -1)
    if p == 2:
        for ax in range(n):
            view = arr.reshape(N >> (ax + 1), 2, -1)
            view[:, 1] ^= view[:, 0]
        return arr.reshape(shape)
    Minv = _inverse_vandermonde(p).astype(np.float64)
    arr = arr.astype(np.float64)
    run = _float_axes(p)
    for ax in range(n):
        if ax and ax % run == 0:
            arr = _reduce(arr, p, 1)
        arr = np.matmul(Minv, arr.reshape(N // p ** (ax + 1), p, -1))
    return _reduce(arr.astype(np.int64), p, 1).reshape(shape)


def _matrix_dtypes(p: int, n: int, modulus: int) -> tuple:
    """Build dtype (int64 while modulus * top < 2^63) and storage dtype of M."""
    top = max(pow(d, e, modulus) for d in range(p) for e in range(p))
    return (object if modulus * top >= 1 << 63 else np.int64,
            _exact_dtype(p**n, p, min(modulus - 1, (p - 1) ** (n * (p - 1)))))


@lru_cache(maxsize=256)
def _monomial_matrix(p: int, n: int, modulus: int) -> np.ndarray:
    """M[x, e] = prod_t |x_t|^(digit_t(e)) mod modulus, shape (N, N)."""
    dig = space(p, n).digits.astype(np.int64)
    build, store = _matrix_dtypes(p, n, modulus)
    powtab = np.array([[pow(d, e, modulus) for e in range(p)] for d in range(p)], build)
    M = np.ones((p**n, p**n), dtype=build)
    for t in range(n):
        M = M * powtab[np.ix_(dig[:, t], dig[:, t])] % modulus
    return M.astype(store)


@lru_cache(maxsize=64)
def _shared_modulus(p: int, n: int) -> tuple[int, bool]:
    """(p^D, exact): M mod p^D for the largest D that builds in int64 and is
    stored as float64; exact when no monomial value reaches p^D."""
    m = max(p**D for D in range(64) if p**D < 1 << 63)  # the largest below 2^63
    while _matrix_dtypes(p, n, m) != (np.int64, np.float64):  # monotone in D
        m //= p
    return m, (p - 1) ** (n * (p - 1)) < m


def eval_layer_tables(
    p: int, n: int, coeffs: np.ndarray, depth: int, K: int
) -> np.ndarray:
    """Numerators over p^K of sum_e coeffs[e, ...]/p^(depth+1) * monomial_e,
    for coefficients in [0, p), with the table axis first."""
    m, exact = _shared_modulus(p, n)  # M mod p^D serves layers with p^(depth+1) | p^D
    M = _monomial_matrix(p, n, m if exact else max(m, p ** (depth + 1)))
    coeffs = np.asarray(coeffs)
    vals = _exact_reduce(M @ coeffs.reshape(len(M), -1).astype(M.dtype), p, depth + 1)
    return vals.reshape(coeffs.shape) * p ** (K - 1 - depth)


def slot_degrees(p: int, n: int, K: int) -> np.ndarray:
    """Degree of slot (depth j, exponent index e): sum(digits) + j(p-1)."""
    sp = space(p, n)
    base = sp.digits.astype(np.int64).sum(axis=1)
    return base[None, :] + (p - 1) * np.arange(K, dtype=np.int64)[:, None]


def interpolate_tables(
    p: int, n: int, nums: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Peel canonical coefficients out of value tables.

    Works layer by layer from the deepest denominator: multiplying by p^j
    isolates the depth-j terms as a classical layer, which is solved by
    digit-wise finite-difference interpolation and subtracted.

    Returns (alpha numerators over p^K, coefficient array of shape
    (..., K, N)).  Raises NotPolynomialError when a table has no canonical
    form.
    """
    N = space(p, n).size
    nums = np.asarray(nums, dtype=np.int64)
    lead = nums.shape[:-1]
    nums = np.ascontiguousarray(nums.reshape(-1, N).T)  # table axis first
    alpha = _reduce(nums[0], p, K)
    resid = _reduce(nums - alpha, p, K)
    C = np.zeros((K, N, nums.shape[1]), dtype=np.int64)
    for j in range(K - 1, -1, -1):
        C[j] = classical_coeffs(p, n, resid // p ** (K - 1 - j))
        resid = _reduce(resid - eval_layer_tables(p, n, C[j], j, K), p, K)
    if resid.any():
        raise NotPolynomialError("table does not reduce to a canonical form")
    return alpha.reshape(lead), C.transpose(2, 0, 1).reshape(*lead, K, N)


def degrees_from_coeffs(p: int, n: int, alpha: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Batched degree read-off: max slot degree, 0 for constants, -inf for 0."""
    K = C.shape[-2]
    degs = slot_degrees(p, n, K).reshape(-1)
    flatC = C.reshape(*C.shape[:-2], -1)
    present = flatC != 0
    out = np.where(
        present.any(axis=-1),
        np.max(np.where(present, degs, -1), axis=-1, initial=-1),
        np.where(np.asarray(alpha) != 0, 0, -1),
    ).astype(float)
    out[out < 0] = NEG_INF
    return out


# ---------------------------------------------------------------------------
# canonical form


class CanonicalForm:
    """alpha plus a map from (exponent vector, depth) to coefficients."""

    __slots__ = ("p", "n", "alpha", "terms")

    def __init__(
        self,
        p: int,
        n: int,
        alpha: TorusValue,
        terms: dict[tuple[tuple[int, ...], int], int] | None = None,
    ):
        validate_prime(p)
        self.p = p
        self.n = n
        self.alpha = alpha
        self.terms = {}
        for (exps, j), c in (terms or {}).items():
            c %= p
            if c == 0:
                continue
            if len(exps) != n or min(exps, default=0) < 0 \
                    or max(exps, default=0) >= p:
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) == 0:
                raise ValueError("constant terms belong in alpha")
            if j < 0:
                raise ValueError("negative depth")
            self.terms[(tuple(exps), j)] = c

    def degree(self) -> float:
        if self.terms:
            return max(sum(e) + j * (self.p - 1) for (e, j) in self.terms)
        return 0 if not self.alpha.is_zero() else NEG_INF

    def table_exponent(self) -> int:
        depth = max((j for (_, j) in self.terms), default=-1)
        return max(self.alpha.exp, depth + 1, 0)

    def eval_table(self) -> tuple[np.ndarray, int]:
        K = self.table_exponent()
        _check_table_exponent(self.p, K)
        p, sp = self.p, space(self.p, self.n)
        nums = np.full(sp.size, self.alpha.num * p ** (K - self.alpha.exp) if K else 0,
                       dtype=np.int64)
        C = np.zeros((K, sp.size), dtype=np.int64)
        exps = np.array([e for e, _ in self.terms], dtype=np.int64).reshape(
            len(self.terms), self.n)
        C[[j for _, j in self.terms],
          exps @ p ** np.arange(self.n, dtype=np.int64)] = list(self.terms.values())
        for j in np.flatnonzero(C.any(axis=1)):
            layer = eval_layer_tables(p, self.n, C[j], int(j), K)
            # nums - (p^K - layer) stays inside (-p^K, p^K) where a sum could wrap
            nums = _reduce(nums - (p**K - layer), p, K)
        return nums, K

    def eval(self, x: FVec) -> TorusValue:
        """Evaluate via integer lifts |x_t| in {0, ..., p-1}."""
        dig = x.digits
        total = self.alpha.as_fraction()
        for (exps, j), c in self.terms.items():
            mono = 1
            for d, e in zip(dig, exps):
                mono *= d**e
            total += Fraction(c * mono, self.p ** (j + 1))
        return TorusValue.from_fraction(self.p, total)

    def depth_shift_root(self) -> "CanonicalForm":
        """The canonical p-th root: every denominator p^(j+1) -> p^(j+2)."""
        alpha = TorusValue(self.p, self.alpha.num, self.alpha.exp + 1) \
            if not self.alpha.is_zero() else self.alpha
        return CanonicalForm(
            self.p, self.n, alpha, {(e, j + 1): c for (e, j), c in self.terms.items()}
        )

    def mulp(self) -> "CanonicalForm":
        """Multiplication by p: depth decrement, depth-0 terms annihilated."""
        return CanonicalForm(
            self.p,
            self.n,
            self.alpha.scale(self.p),
            {(e, j - 1): c for (e, j), c in self.terms.items() if j >= 1},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return (self.p, self.n, self.alpha, self.terms) == (
            other.p, other.n, other.alpha, other.terms)

    def __repr__(self) -> str:
        return f"CanonicalForm({self.to_text()})"

    def to_text(self) -> str:
        parts = []
        if not self.alpha.is_zero():
            parts.append(f"{self.alpha.num}/{self.p**self.alpha.exp}")
        for (exps, j), c in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0])):
            factors = [f"{c}/{self.p**(j+1)}"]
            for t, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{t+1}")
                elif e > 1:
                    factors.append(f"x{t+1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "alpha": self.alpha.to_json(),
            "terms": [
                {"exps": list(e), "depth": j, "coeff": c}
                for (e, j), c in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0]))
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CanonicalForm":
        p, n = int(obj["p"]), int(obj["n"])
        alpha = TorusValue.from_json(p, obj.get("alpha", {"num": 0, "exp": 0}))
        terms: dict[tuple[tuple[int, ...], int], int] = {}
        for t in obj.get("terms", []):
            key = (tuple(int(e) for e in t["exps"]), int(t["depth"]))
            terms[key] = terms.get(key, 0) + int(t["coeff"])
        return cls(p, n, alpha, terms)

    @classmethod
    def from_text(cls, p: int, n: int, text: str) -> "CanonicalForm":
        """Parse forms like '1/4*x1*x2 + 1/2*x3' with |x_i| semantics."""
        text = text.replace(" ", "")
        if text in ("", "0"):
            return cls(p, n, TorusValue.zero(p))
        chunks = re.findall(r"[+-]?[^+-]+", text)
        alpha = Fraction(0)
        acc: dict[tuple[int, ...], Fraction] = {}
        for chunk in chunks:
            sign = -1 if chunk.startswith("-") else 1
            chunk = chunk.lstrip("+-")
            coeff = Fraction(1)
            exps = [0] * n
            for factor in chunk.split("*"):
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if m:
                    i = int(m.group(1)) - 1
                    if not 0 <= i < n:
                        raise ValueError(f"variable x{i+1} out of range")
                    exps[i] += int(m.group(2) or 1)
                else:
                    coeff *= Fraction(factor)
            if any(e >= p for e in exps):
                raise ValueError("exponents must be < p in canonical text form")
            if all(e == 0 for e in exps):
                alpha += sign * coeff
            else:
                key = tuple(exps)
                acc[key] = acc.get(key, Fraction(0)) + sign * coeff
        terms: dict[tuple[tuple[int, ...], int], int] = {}
        for exps, val in acc.items():
            tv = TorusValue.from_fraction(p, val)
            num, K = tv.num, tv.exp
            for j in range(K):  # digit at depth j is the p-adic digit of num
                digit = num // p ** (K - 1 - j) % p
                if digit:
                    terms[(exps, j)] = terms.get((exps, j), 0) + digit
        return cls(p, n, TorusValue.from_fraction(p, alpha), terms)


# ---------------------------------------------------------------------------
# the polynomial type


class NCPoly:
    """A (possibly non-classical) polynomial on F_p^n, dual representation."""

    __slots__ = ("p", "n", "nums", "K", "_canon", "_deg")

    def __init__(self, p: int, n: int, nums: np.ndarray, K: int,
                 canon: CanonicalForm | None = None):
        _check_table_exponent(p, K)
        self.p = p
        self.n = n
        self.nums, self.K = normalize_tables(nums, K, p)
        self._canon = canon
        self._deg: float | None = None

    # -- constructors

    @classmethod
    def zero(cls, p: int, n: int) -> "NCPoly":
        return cls(p, n, np.zeros(space(p, n).size, dtype=np.int64), 0)

    @classmethod
    def constant(cls, p: int, n: int, value: TorusValue) -> "NCPoly":
        nums = np.full(space(p, n).size, value.num, dtype=np.int64)
        return cls(p, n, nums, value.exp)

    @classmethod
    def from_values(cls, p: int, n: int, values: Sequence[TorusValue]) -> "NCPoly":
        sp = space(p, n)
        if len(values) != sp.size:
            raise ValueError(f"need {sp.size} values, got {len(values)}")
        K = max((v.exp for v in values), default=0)
        _check_table_exponent(p, K)
        nums = np.array([v.num * p ** (K - v.exp) for v in values], dtype=np.int64)
        return cls(p, n, nums, K)

    @classmethod
    def from_classical_table(cls, p: int, n: int, table: np.ndarray) -> "NCPoly":
        """From an F_p-valued table, embedded by iota(f) = f/p."""
        return cls(p, n, np.asarray(table, dtype=np.int64) % p, 1)

    @classmethod
    def from_canonical(cls, cf: CanonicalForm) -> "NCPoly":
        nums, K = cf.eval_table()
        return cls(cf.p, cf.n, nums, K, canon=cf)

    @classmethod
    def from_json(cls, obj: dict) -> "NCPoly":
        return cls.from_canonical(CanonicalForm.from_json(obj))

    @classmethod
    def from_text(cls, p: int, n: int, text: str) -> "NCPoly":
        return cls.from_canonical(CanonicalForm.from_text(p, n, text))

    def to_json(self) -> dict:
        return self.canonical().to_json()

    # -- representation plumbing

    def canonical(self, d_max: int | None = None) -> CanonicalForm:
        if self._canon is None:
            alpha, C = interpolate_tables(self.p, self.n, self.nums, self.K)
            sp = space(self.p, self.n)
            terms = {}
            for j, e in zip(*np.nonzero(C)):
                terms[(sp.digits_of(int(e)), int(j))] = int(C[j, e])
            self._canon = CanonicalForm(
                self.p, self.n, TorusValue(self.p, int(alpha), self.K), terms
            )
        if d_max is not None and self._canon.degree() > d_max:
            raise NotPolynomialError(f"not a polynomial of degree <= {d_max}")
        return self._canon

    def classical_table(self) -> np.ndarray:
        """F_p-valued table of a classical polynomial (inverse of iota)."""
        if not self.is_classical():
            raise ValueError("polynomial is not classical")
        return self.nums.copy() if self.K == 1 else np.zeros_like(self.nums)

    # -- inspection

    def eval(self, x: FVec) -> TorusValue:
        if (x.p, x.n) != (self.p, self.n):
            raise ValueError("dimension mismatch")
        return TorusValue(self.p, int(self.nums[x.idx]), self.K)

    def value_at_index(self, idx: int) -> TorusValue:
        return TorusValue(self.p, int(self.nums[idx]), self.K)

    def is_zero(self) -> bool:
        return self.K == 0 and not self.nums.any()

    def is_classical(self) -> bool:
        return self.K <= 1

    def degree(self) -> float:
        """Exact degree, read from the canonical form (interpolating if needed)."""
        if self._deg is None:
            self._deg = self.canonical().degree()
        return self._deg

    def degree_by_derivatives(self, budget: int | None = None) -> float:
        """Independent degree computation: the least d with every
        (d+1)-fold derivative vanishing, along basis directions (which
        suffice), each of weight 1."""
        return difference_degree(self.nums.reshape((self.p,) * self.n),
                                 self.K, self.p,
                                 [(axis, 1, 1) for axis in range(self.n)],
                                 budget=budget)

    # -- calculus

    def shift(self, h: FVec) -> "NCPoly":
        perm = space(self.p, self.n).shift_perm(h.idx)
        return NCPoly(self.p, self.n, self.nums[perm], self.K)

    def derivative(self, h: FVec) -> "NCPoly":
        if (h.p, h.n) != (self.p, self.n):
            raise ValueError("dimension mismatch")
        perm = space(self.p, self.n).shift_perm(h.idx)
        return NCPoly(self.p, self.n, self.nums[perm] - self.nums, self.K)

    def mul_by_p(self) -> "NCPoly":
        nums, K = mulp_tables(self.nums, self.K, self.p)
        canon = self._canon.mulp() if self._canon is not None else None
        return NCPoly(self.p, self.n, nums, K, canon=canon)

    def pth_root(self) -> "NCPoly":
        """The canonical p-th root Q with pQ = P and deg Q <= deg P + p - 1."""
        return NCPoly.from_canonical(self.canonical().depth_shift_root())

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        K = max(self.K, other.K)
        p, mod = self.p, self.p**K
        a = self.nums * p ** (K - self.K)
        b = other.nums * p ** (K - other.K)
        # a - (mod - b) stays inside (-p^K, p^K) where a + b could wrap
        return NCPoly(p, self.n, _reduce(a - (mod - b), p, K), K)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.p, self.n, -self.nums, self.K)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def multiply_classical(self, other: "NCPoly") -> "NCPoly":
        """Pointwise product in F of two classical polynomials."""
        self._check(other)
        if not (self.is_classical() and other.is_classical()):
            raise ValueError("multiply_classical requires classical inputs")
        return NCPoly.from_classical_table(
            self.p, self.n, self.classical_table() * other.classical_table() % self.p
        )

    def _check(self, other: "NCPoly") -> None:
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mismatched spaces")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (
            (self.p, self.n, self.K) == (other.p, other.n, other.K)
            and bool(np.array_equal(self.nums, other.nums))
        )

    def __repr__(self) -> str:
        return f"NCPoly(p={self.p}, n={self.n}, {self.canonical().to_text()})"


# ---------------------------------------------------------------------------
# enumeration


def _depth_count(p: int, d):
    """Depths K of degree <= d forms, whose tables live over p^K; elementwise
    on an array, a Python int for an int d (NCPoly memos call K.to_bytes)."""
    top = np.maximum(d, 1) if isinstance(d, np.ndarray) else max(d, 1)
    return (top - 1) // (p - 1) + 1


def canonical_slots(p: int, n: int, d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (exponent vector, depth) slots allowed at degree <= d, depth-major;
    a fresh list each call."""
    return list(_canonical_slots(p, n, d))


@lru_cache(maxsize=256)
def _canonical_slots(p: int, n: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    allowed = slot_degrees(p, n, _depth_count(p, d)) <= d
    allowed[:, 0] = False  # the constant monomial belongs to alpha
    sp = space(p, n)
    return tuple((sp.digits_of(int(e)), int(j)) for j, e in zip(*np.nonzero(allowed)))


def count_polys(p: int, n: int, d: int) -> int:
    """Number of degree <= d canonical forms modulo constants."""
    return p ** len(canonical_slots(p, n, d))


def _form_poly(p: int, n: int, slots: list[tuple[tuple[int, ...], int]],
               row: np.ndarray, table: np.ndarray, K: int) -> NCPoly:
    """The polynomial of one coefficient row of a block, with its table."""
    terms = {s: int(c) for s, c in zip(slots, row) if c}
    return NCPoly(p, n, table, K,
                  canon=CanonicalForm(p, n, TorusValue.zero(p), terms))


def _form_tables(p: int, n: int, d: int
                 ) -> Iterator[tuple[list, np.ndarray, np.ndarray, int]]:
    """(slots, coefficient rows, value tables over p^K, K) for each block of
    coefficient_batches: every degree <= d form modulo constants, in code
    order, at most ENUM_CAP of them."""
    check_budget(count_polys(p, n, d), ENUM_CAP, "enumerate_polys")
    K = _depth_count(p, d) if n else 0  # F_p^0 has no slots at any degree
    for slots, _, coeffs in coefficient_batches(p, n, d):
        yield slots, coeffs, eval_slot_batches(p, n, slots, coeffs, K), K


def enumerate_polys(p: int, n: int, d: int) -> Iterator[NCPoly]:
    """Stream every canonical form of degree <= d modulo constants exactly
    once (at most ENUM_CAP of them), in code order."""
    for slots, coeffs, tables, K in _form_tables(p, n, d):
        for row, table in zip(coeffs, tables):
            yield _form_poly(p, n, slots, row, table, K)


def coefficient_batches(
    p: int, n: int, d: int
) -> Iterator[tuple[list[tuple[tuple[int, ...], int]], np.ndarray, np.ndarray]]:
    """Yield (slots, codes, coefficient matrix) blocks covering every
    degree <= d canonical form modulo constants, in code order, each of
    about _BLOCK_ENTRIES table entries: the one enumeration of canonical
    forms, which eval_slot_batches turns into value tables."""
    slots = canonical_slots(p, n, d)
    total = p ** len(slots)
    rows = max(1, _BLOCK_ENTRIES // p**n)
    # a code is below 2^63 - 1, so that divisor leaves digit 0 wherever
    # p^s passes it; one divisor per row keeps numpy's scalar-divisor loop
    powers = np.array([min(p**s, (1 << 63) - 1) for s in range(len(slots))],
                      dtype=np.int64)
    for start in range(0, total, rows):
        codes = np.arange(start, min(start + rows, total), dtype=np.int64)
        yield slots, codes, _reduce(codes // powers[:, None], p, 1).T


@lru_cache(maxsize=64)
def _slot_basis(p: int, n: int, slots: tuple[tuple[tuple[int, ...], int], ...],
                K: int) -> np.ndarray:
    """Read-only (slots, N) value tables over p^K of each slot's monomial,
    stored as _exact_dtype says."""
    sp = space(p, n)
    basis = np.zeros((len(slots), sp.size), dtype=np.int64)
    for s, (exps, j) in enumerate(slots):
        row = np.zeros(sp.size, dtype=np.int64)
        row[sp.index_of(exps)] = 1
        basis[s] = eval_layer_tables(p, n, row, j, K)
    basis = basis.astype(_exact_dtype(len(slots), p, p**K - 1))
    basis.flags.writeable = False
    return basis


def eval_slot_batches(
    p: int, n: int, slots: list[tuple[tuple[int, ...], int]], coeffs: np.ndarray, K: int
) -> np.ndarray:
    """Value tables (numerators over p^K) for a batch of coefficient rows."""
    basis = _slot_basis(p, n, tuple(slots), K)
    return _exact_reduce(coeffs.astype(basis.dtype) @ basis, p, K)
