"""Torus-valued polynomials on F_p^n.

A polynomial is a map P: F_p^n -> (1/p^K)Z/Z all of whose (d+1)-fold
additive derivatives vanish.  Two representations are kept in sync:

* a value table of numerators over a common denominator p^K, and
* a canonical monomial form  alpha + sum c/p^(j+1) * |x_1|^i_1 ... |x_n|^i_n
  with 0 <= i_t < p, coefficients c in {1, ..., p-1}, and the degree of a
  term equal to (i_1 + ... + i_n) + j(p-1).

Tables are the fast path for norms and derivatives; canonical forms drive
p-th roots, degree-by-inspection, and enumeration.  Every batched kernel
holds tables with the table axis first and any batch axes after it
(classical_coeffs, eval_layer_tables, eval_slot_batches, interpolate_tables,
degrees_from_coeffs), so each per-axis pass runs over contiguous runs of
entries and a per-table verdict is a reduction over the leading axis.
Products run in float32 while every partial sum is an integer below 2^24,
in float64 below 2^53, exact in BLAS either way, else in Python integers;
a layer is one product with an exact monomial matrix of at most SPACE_CAP
floats where (p, n) has one, else one pass per axis.
Every reduction mod p^K goes through one helper, core._reduce, on floor
division (a mask at p = 2).
classical_coeffs refuses tables past SPACE_CAP entries; below it, its
per-axis products run in float32 or float64 with one reduction per transform.

The batched kernels hold value tables over p^K in _table_dtype(p, K), the
one owner of their dtype: the narrowest of int8, int16, int32 and int64
with room for p^(K+1), beside _exact_dtype, which picks the dtype of
products.  Coefficients, below p, are int8; NCPoly.nums stays int64.
coefficient_batches splits enumeration codes into slot digits in
_int_dtype(p^slots), int32 while the codes fit it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterator, Sequence

import numpy as np

from .core import (
    POWER_BITS,
    SPACE_CAP,
    TorusValue,
    _int_dtype,
    _reduce,
    check_budget,
    json_int,
    space,
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


def _check_table_exponent(p: int, K: int) -> None:
    """Value tables hold numerators over p^K in at most int64."""
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
    on each axis.  The degree is -inf for the zero table and otherwise the
    largest total weight of a generator multiset whose iterated difference
    is nonzero.  The differences commute, so the walk takes each multiset
    once, as cubes.is_polynomial_map does: an entry is a nonzero difference
    table, the first generator it may still take and its total weight, and
    one gather derives all of its differences.  Each Delta_g is nilpotent
    on a p-power-periodic table, so the walk ends without a bound.  Its
    one library caller is NCPoly.degree_by_derivatives.  The work,
    difference tables computed times their size, is checked against
    budget as the walk goes.
    """
    nums = np.asarray(nums, dtype=np.int64)
    idx = np.arange(nums.size).reshape(nums.shape)
    perms = np.array([np.roll(idx, -step, axis=axis).reshape(-1)
                      for axis, step, _ in gens], dtype=np.intp)
    perms = perms.reshape(len(gens), nums.size)  # also when gens is empty
    weights = [weight for *_, weight in gens]
    flat = _reduce(nums.reshape(-1), p, K)
    if not flat.any():
        return NEG_INF
    # depth first on an explicit stack: a chain of differences can outrun
    # Python's frame limit (degree 1,100 from 169 entries at p = 13)
    stack = [(flat, 0, 0)]
    degree = work = 0
    while stack:
        flat, first, total = stack.pop()
        degree = max(degree, total)
        work += (len(gens) - first) * flat.size
        check_budget(work, budget, "difference_degree")
        diffs = _reduce(flat[perms[first:]] - flat, p, K)
        stack += [(diffs[g], first + g, total + weights[first + g])
                  for g in np.flatnonzero(diffs.any(axis=1)).tolist()]
    return degree


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
    """The narrowest exact dtype for a sum of `terms` products of an F_p
    coefficient with an entry at most top: float32 while the sum stays below
    2^24, float64 below 2^53, so that every partial sum is an exact integer
    and BLAS is exact in any order; Python integers past it."""
    bound = terms * (p - 1) * top
    return np.float32 if bound < 1 << 24 else np.float64 if bound < 1 << 53 else object


_INT8 = np.dtype(np.int8)  # classical coefficients, below p <= 13


@lru_cache(maxsize=None)
def _table_dtype(p: int, K: int) -> np.dtype:
    """The dtype of value tables over p^K: room for p^(K+1), so that a table,
    a difference of two tables and a table times p all fit.  A narrow table
    is only added, subtracted, reduced or compared: NumPy keeps int8 * int
    in int8, so a product is formed in a type with room for it."""
    return _int_dtype(p ** (K + 1))


def _narrow(x: np.ndarray, p: int, K: int, dt: np.dtype) -> np.ndarray:
    """x mod p^K, C-contiguous in dt, which holds p^K, for an integer,
    Python-integer or exact float array.  The reduction runs in x's own
    integer type when it is as wide as dt, exact since the residue fits; in
    int32 for a float32 product, below 2^24 as _exact_dtype picks it; else
    in int64."""
    if x.dtype.char == "f" and dt.itemsize <= 4:
        x = x.astype(np.int32)
    elif x.dtype.kind not in "iuO" or x.dtype.itemsize < dt.itemsize:
        x = x.astype(np.int64)
    return _reduce(x, p, K).astype(dt, order="C", copy=False)


def classical_coeffs(p: int, n: int, table: np.ndarray) -> np.ndarray:
    """Monomial coefficients of F_p-valued tables, per-axis interpolation.

    Tables have shape (N, ...), the table axis first, of any integer type.
    Returns an int8 array of the same shape; entry at index e is the
    coefficient of prod |x_t|^(digit_t(e)).  N = p^n is checked against
    SPACE_CAP before anything is allocated.  At odd p the per-axis products
    run in float32 while (p-1)(p(p-1))^n < 2^24, else in float64, and reduce
    mod p once at the end: after t axes the entries stay below
    (p-1)(p(p-1))^t, and inside the cap that is below 2^53 (1.7e14 at
    p = 13, n = 6).
    """
    N = p**n
    check_budget(N, SPACE_CAP, "classical_coeffs")
    arr = _narrow(np.asarray(table), p, 1, _INT8)  # a fresh array
    shape = arr.shape
    arr = arr.reshape(N, -1)
    if p == 2:
        for ax in range(n):
            view = arr.reshape(N >> (ax + 1), 2, -1)
            view[:, 1] ^= view[:, 0]
        return arr.reshape(shape)
    fdt = _exact_dtype(N, p, (p - 1) ** n)  # (p-1)(p(p-1))^n bounds the chain
    Minv = _inverse_vandermonde(p).astype(fdt)
    arr = arr.astype(fdt)
    for ax in range(n):
        arr = np.matmul(Minv, arr.reshape(N // p ** (ax + 1), p, -1))
    return _narrow(arr, p, 1, _INT8).reshape(shape)


@lru_cache(maxsize=64)
def _monomial_matrix(p: int, n: int) -> np.ndarray | None:
    """M[x, e] = prod_t |x_t|^(digit_t(e)), shape (N, N), exact: in the float
    dtype _exact_dtype picks for N products of a coefficient with values up
    to (p-1)^(n(p-1)), built in place one N x N gather at a time, with no
    reduction or copy; None past float64 or where N^2 passes SPACE_CAP."""
    N = p**n
    dtype = _exact_dtype(N, p, (p - 1) ** (n * (p - 1)))
    if N * N > SPACE_CAP or dtype is object:
        return None
    dig = space(p, n).digits
    powtab = np.array([[d**e for e in range(p)] for d in range(p)], dtype)
    M = np.ones((N, N), dtype=dtype)
    for t in range(n):
        M *= powtab[np.ix_(dig[:, t], dig[:, t])]
    return M


def eval_layer_tables(
    p: int, n: int, coeffs: np.ndarray, depth: int, K: int
) -> np.ndarray:
    """Numerators over p^K of sum_e coeffs[e, ...]/p^(depth+1) * monomial_e,
    for coefficients in [0, p), with the table axis first, in
    _table_dtype(p, K).  N is checked against SPACE_CAP first.  Where
    _monomial_matrix holds the exact monomial values, one product with it;
    else one pass per axis by V[a, e] = a^e mod m = p^(depth+1): at p = 2 a
    subset sum, at most N, masked once at the end; at odd p reduced mod m
    after each axis, so that its sums stay below p m^2, in int64 while that
    is below 2^63, else in Python integers."""
    N, m = p**n, p ** (depth + 1)
    check_budget(N, SPACE_CAP, "eval_layer_tables")
    coeffs = np.asarray(coeffs)
    arr = coeffs.reshape(N, -1)
    M = _monomial_matrix(p, n)
    if M is not None:
        arr = M @ arr.astype(M.dtype)
    elif p == 2:
        arr = arr.astype(_int_dtype(N), order="C")  # fresh, viewed in place
        for ax in range(n):
            view = arr.reshape(N >> (ax + 1), 2, -1)
            view[:, 1] += view[:, 0]
    else:
        dtype = np.int64 if p * m * m < 1 << 63 else object
        V = np.array([[pow(a, e, m) for e in range(p)] for a in range(p)], dtype)
        arr = arr.astype(dtype)
        for ax in range(n):
            arr = _reduce(np.matmul(V, arr.reshape(N // p ** (ax + 1), p, -1)),
                          p, depth + 1)
    vals = _narrow(arr, p, depth + 1, _table_dtype(p, K))
    if K - 1 - depth:
        vals *= p ** (K - 1 - depth)  # below p^K
    return vals.reshape(coeffs.shape)


def slot_degrees(p: int, n: int, K: int) -> np.ndarray:
    """Degree of slot (depth j, exponent index e): sum(digits) + j(p-1)."""
    base = space(p, n).digits.sum(axis=1, dtype=np.int64)
    return base[None, :] + (p - 1) * np.arange(K, dtype=np.int64)[:, None]


def interpolate_tables(
    p: int, n: int, nums: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Peel canonical coefficients out of value tables.

    Works layer by layer from the deepest denominator: multiplying by p^j
    isolates the depth-j terms as a classical layer, which is solved by
    digit-wise finite-difference interpolation and subtracted.

    Tables have shape (N, ...), the table axis first.  Returns (alpha
    numerators over p^K in _table_dtype(p, K), of shape (...), and an int8
    coefficient array of shape (K, N, ...)).  Raises NotPolynomialError
    when a table has no canonical form.
    """
    N = space(p, n).size
    # reduced mod p^K in _table_dtype(p, K), C-contiguous
    nums = _narrow(np.asarray(nums), p, K, _table_dtype(p, K))
    lead = nums.shape[1:]
    nums = nums.reshape(N, -1)
    alpha = nums[0]
    resid = _reduce(nums - alpha, p, K)
    C = np.zeros((K, *nums.shape), dtype=np.int8)
    for j in range(K - 1, -1, -1):
        C[j] = classical_coeffs(p, n, resid // p ** (K - 1 - j))
        resid -= eval_layer_tables(p, n, C[j], j, K)  # inside (-p^K, p^K)
        resid = _reduce(resid, p, K)
    if resid.any():
        raise NotPolynomialError("table does not reduce to a canonical form")
    return alpha.reshape(lead), C.reshape(K, N, *lead)


def degrees_from_coeffs(p: int, n: int, alpha: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Batched degree read-off from (K, N, ...) coefficients: max slot
    degree, 0 for constants, -inf for 0, of shape (...).  Slots weigh
    degree + 1 in the narrowest type that holds the largest."""
    K, N = C.shape[:2]
    # degree + 1 of each slot, at most (n + K - 1)(p - 1) + 1
    weights = slot_degrees(p, n, K).reshape(-1, 1) + 1
    weights = weights.astype(_int_dtype((n + K - 1) * (p - 1) + 1))
    # degree + 1 of the top slot present, 0 where none is
    flat = C.reshape(K * N, prod(C.shape[2:]))
    top = np.max((flat != 0) * weights, axis=0, initial=0).reshape(C.shape[2:])
    return np.where(top > 0, top - 1, np.where(np.asarray(alpha) != 0, 0, NEG_INF))


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
        space(p, n)  # validates p and n
        self.p = p
        self.n = n
        self.alpha = alpha
        self.terms = {}
        terms = terms or {}
        # a carry walks j + 1 depths at most, and no table passes 2^63
        _check_table_exponent(p, max((j for _, j in terms), default=0) + 1)
        for (exps, j), c in terms.items():
            if not c:
                continue
            if len(exps) != n or min(exps, default=0) < 0 \
                    or max(exps, default=0) >= p:
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) == 0:
                raise ValueError("constant terms belong in alpha")
            if j < 0:
                raise ValueError("negative depth")
            # c/p^(j+1) added digit by digit: c mod p stays at depth j, the rest
            # carries one depth shallower, and past depth 0 it is an integer
            while c and j >= 0:
                c, digit = divmod(c + self.terms.pop((exps, j), 0), p)
                if digit:
                    self.terms[(exps, j)] = digit
                j -= 1

    def degree(self) -> float:
        if self.terms:
            return max(sum(e) + j * (self.p - 1) for (e, j) in self.terms)
        return 0 if not self.alpha.is_zero() else NEG_INF

    def table_exponent(self) -> int:
        depth = max((j for (_, j) in self.terms), default=-1)
        return max(self.alpha.exp, depth + 1, 0)

    def eval_table(self) -> tuple[np.ndarray, int]:
        p, sp = self.p, space(self.p, self.n)
        check_budget(sp.size, SPACE_CAP, "CanonicalForm.eval_table")
        K = self.table_exponent()
        _check_table_exponent(p, K)
        nums = np.full(sp.size, self.alpha.num * p ** (K - self.alpha.exp),
                       dtype=_table_dtype(p, K))
        C = np.zeros((K, sp.size), dtype=_INT8)  # digits below p
        exps = np.array([e for e, _ in self.terms], dtype=np.int64).reshape(
            len(self.terms), self.n)
        C[[j for _, j in self.terms],
          exps @ p ** np.arange(self.n, dtype=np.int64)] = list(self.terms.values())
        for j in sorted({j for _, j in self.terms}):  # every stored digit is nonzero
            layer = eval_layer_tables(p, self.n, C[j], j, K)
            # nums - (p^K - layer) stays inside (-p^K, p^K) where a sum could wrap
            nums = _reduce(nums - (p**K - layer), p, K)
        return nums, K

    def eval(self, x: int) -> TorusValue:
        """Evaluate at the point of index x via integer lifts |x_t| in
        {0, ..., p-1}."""
        sp = space(self.p, self.n)
        dig = sp.digits_of(sp.check_index(x))
        total = self.alpha.as_fraction()
        for (exps, j), c in self.terms.items():
            mono = 1
            for d, e in zip(dig, exps):
                mono *= d**e
            total += Fraction(c * mono, self.p ** (j + 1))
        return TorusValue.from_fraction(self.p, total)

    def depth_shift_root(self) -> "CanonicalForm":
        """The canonical p-th root: every denominator p^(j+1) -> p^(j+2)."""
        return CanonicalForm(
            self.p, self.n, TorusValue(self.p, self.alpha.num, self.alpha.exp + 1),
            {(e, j + 1): c for (e, j), c in self.terms.items()})

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
        p, n = json_int(obj, "p"), json_int(obj, "n")
        alpha = TorusValue.from_json(p, obj.get("alpha", {"num": 0, "exp": 0}))
        terms: dict[tuple[tuple[int, ...], int], int] = {}
        for t in obj.get("terms", []):
            key = (tuple(json_int(t, "exps")), json_int(t, "depth"))
            terms[key] = terms.get(key, 0) + json_int(t, "coeff")
        return cls(p, n, alpha, terms)

    @classmethod
    def from_text(cls, p: int, n: int, text: str) -> "CanonicalForm":
        """Parse forms like '1/4*x1*x2 + 1/2*x3' with |x_i| semantics."""
        if not isinstance(text, str):
            raise ValueError(f"canonical text must be a string, got "
                             f"{type(text).__name__}")
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
                    try:
                        coeff *= Fraction(factor)
                    except ZeroDivisionError:
                        raise ValueError(f"coefficient {factor} has denominator 0") \
                            from None
            if any(e >= p for e in exps):
                raise ValueError("exponents must be < p in canonical text form")
            if all(e == 0 for e in exps):
                alpha += sign * coeff
            else:
                key = tuple(exps)
                acc[key] = acc.get(key, Fraction(0)) + sign * coeff
        sums = {exps: TorusValue.from_fraction(p, val) for exps, val in acc.items()}
        return cls(p, n, TorusValue.from_fraction(p, alpha),
                   {(exps, tv.exp - 1): tv.num for exps, tv in sums.items() if tv.exp})


# ---------------------------------------------------------------------------
# the polynomial type


class NCPoly:
    """A (possibly non-classical) polynomial on F_p^n, dual representation."""

    __slots__ = ("p", "n", "nums", "K", "_canon", "_deg")

    def __init__(self, p: int, n: int, nums: np.ndarray, K: int,
                 canon: CanonicalForm | None = None):
        N = space(p, n).size
        _check_table_exponent(p, K)
        self.p = p
        self.n = n
        self.nums, self.K = normalize_tables(nums, K, p)
        if self.nums.shape != (N,):
            raise ValueError(f"need {N} values, got {self.nums.size}")
        self._canon = canon
        self._deg: float | None = None

    # -- constructors

    @classmethod
    def zero(cls, p: int, n: int) -> "NCPoly":
        N = space(p, n).size
        check_budget(N, SPACE_CAP, "NCPoly.zero")
        return cls(p, n, np.zeros(N, dtype=np.int64), 0)

    @classmethod
    def from_values(cls, p: int, n: int, values: Sequence[TorusValue]) -> "NCPoly":
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
        """The one reader of polynomial JSON: terms/alpha, values or text."""
        if not isinstance(obj, dict):
            raise ValueError("polynomial JSON must be an object")
        if "terms" in obj or "alpha" in obj:
            return cls.from_canonical(CanonicalForm.from_json(obj))
        if "values" not in obj and "text" not in obj:
            raise ValueError("polynomial JSON needs terms/alpha, values, or text")
        p, n = json_int(obj, "p"), json_int(obj, "n")
        if "values" in obj:
            return cls.from_values(p, n, [TorusValue.from_json(p, v) for v in obj["values"]])
        return cls.from_text(p, n, obj["text"])

    @classmethod
    def from_text(cls, p: int, n: int, text: str) -> "NCPoly":
        return cls.from_canonical(CanonicalForm.from_text(p, n, text))

    def to_json(self) -> dict:
        return self.canonical().to_json()

    # -- representation plumbing

    def canonical(self) -> CanonicalForm:
        if self._canon is None:
            alpha, C = interpolate_tables(self.p, self.n, self.nums, self.K)
            sp = space(self.p, self.n)
            terms = {}
            for j, e in zip(*np.nonzero(C)):
                terms[(sp.digits_of(int(e)), int(j))] = int(C[j, e])
            self._canon = CanonicalForm(
                self.p, self.n, TorusValue(self.p, int(alpha), self.K), terms
            )
        return self._canon

    def classical_table(self) -> np.ndarray:
        """F_p-valued table of a classical polynomial (inverse of iota)."""
        if not self.is_classical():
            raise ValueError("polynomial is not classical")
        return self.nums.copy() if self.K == 1 else np.zeros_like(self.nums)

    # -- inspection

    def eval(self, x: int) -> TorusValue:
        """The value at the point of index x."""
        x = space(self.p, self.n).check_index(x)
        return TorusValue(self.p, int(self.nums[x]), self.K)

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

    def derivative(self, h: int) -> "NCPoly":
        """x -> P(x + h) - P(x), for the point of index h."""
        perm = space(self.p, self.n).shift_perm(h)
        return NCPoly(self.p, self.n, self.nums[perm] - self.nums, self.K)

    def mul_by_p(self) -> "NCPoly":
        return NCPoly(self.p, self.n, *mulp_tables(self.nums, self.K, self.p))

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
    on an array, a Python int for an int d (p ** K on an np.int64 K wraps)."""
    top = np.maximum(d, 1) if isinstance(d, np.ndarray) else max(d, 1)
    return (top - 1) // (p - 1) + 1


def _slot_mask(p: int, n: int, d: int) -> np.ndarray:
    """(K, N) mask of the slots allowed at degree <= d, checked against
    SPACE_CAP before it is built; its count against ENUM_CAP."""
    K = _depth_count(p, d)
    check_budget(K * space(p, n).size, SPACE_CAP, "canonical_slots")
    allowed = slot_degrees(p, n, K) <= d
    allowed[:, 0] = False  # the constant monomial belongs to alpha
    check_budget(int(allowed.sum()), ENUM_CAP, "canonical_slots")
    return allowed


@lru_cache(maxsize=256)
def canonical_slots(p: int, n: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (exponent vector, depth) slots allowed at degree <= d, depth-major;
    cached, so one tuple serves every call."""
    sp = space(p, n)
    return tuple((sp.digits_of(int(e)), int(j))
                 for j, e in zip(*np.nonzero(_slot_mask(p, n, d))))


def count_polys(p: int, n: int, d: int) -> int:
    """Number of degree <= d canonical forms modulo constants."""
    return p ** len(canonical_slots(p, n, d))


def _enum_count(p: int, n: int, d: int) -> int:
    """count_polys(p, n, d), checked against ENUM_CAP by the slot count s on
    the degree mask before any slot is listed; past POWER_BITS its lower
    bound 2^s is checked instead, and p^s is not formed."""
    s = int(_slot_mask(p, n, d).sum())
    count = p**s if s * p.bit_length() <= POWER_BITS else 1 << s
    check_budget(count, ENUM_CAP, "enumerate_polys")
    return count


def _form_poly(p: int, n: int, slots: Sequence[tuple[tuple[int, ...], int]],
               row: np.ndarray, table: np.ndarray, K: int) -> NCPoly:
    """The polynomial of one coefficient row of a block, with its table."""
    terms = {s: int(c) for s, c in zip(slots, row) if c}
    return NCPoly(p, n, table, K,
                  canon=CanonicalForm(p, n, TorusValue.zero(p), terms))


def _form_tables(p: int, n: int, d: int
                 ) -> Iterator[tuple[tuple, np.ndarray, np.ndarray, int]]:
    """(slots, coefficient rows, value tables over p^K, K) for each block of
    coefficient_batches: every degree <= d form modulo constants, in code
    order, at most ENUM_CAP of them."""
    _enum_count(p, n, d)
    K = _depth_count(p, d) if n else 0  # F_p^0 has no slots at any degree
    for slots, _, coeffs in coefficient_batches(p, n, d):
        yield slots, coeffs, eval_slot_batches(p, n, slots, coeffs, K), K


def enumerate_polys(p: int, n: int, d: int) -> Iterator[NCPoly]:
    """Stream every canonical form of degree <= d modulo constants exactly
    once (at most ENUM_CAP of them), in code order."""
    for slots, coeffs, tables, K in _form_tables(p, n, d):
        for row, table in zip(coeffs, tables.T):
            yield _form_poly(p, n, slots, row, table, K)


def coefficient_batches(
    p: int, n: int, d: int
) -> Iterator[tuple[tuple[tuple[tuple[int, ...], int], ...], np.ndarray, np.ndarray]]:
    """Yield (slots, codes, coefficient matrix) blocks covering every
    degree <= d canonical form modulo constants, in code order, each of
    about _BLOCK_ENTRIES table entries: the one enumeration of canonical
    forms, which eval_slot_batches turns into value tables.  Codes and
    digits are in _int_dtype(p^slots); the (rows, slots) coefficient matrix
    is the transpose of a C-contiguous (slots, rows) array."""
    slots = canonical_slots(p, n, d)
    total = p ** len(slots)
    dt = _int_dtype(total)
    rows = max(1, _BLOCK_ENTRIES // p**n)
    # q[s] = code // p^s for s = 0..slots, one divisor per row (numpy's
    # scalar-divisor loop), and digit s is q[s] - p q[s+1].  A code is below
    # dt's largest value, so that divisor leaves q = 0 wherever p^s passes it
    # (only past int64)
    top = int(np.iinfo(dt).max)
    powers = np.array([min(p**s, top) for s in range(len(slots) + 1)], dtype=dt)
    for start in range(0, total, rows):
        codes = np.arange(start, min(start + rows, total), dtype=dt)
        q = codes // powers[:, None]
        yield slots, codes, (q[:-1] - p * q[1:]).T


@lru_cache(maxsize=64)
def _slot_basis(p: int, n: int, slots: tuple[tuple[tuple[int, ...], int], ...],
                K: int) -> np.ndarray:
    """Read-only (N, slots) value tables over p^K of each slot's monomial,
    stored as _exact_dtype says: one eval_layer_tables call per depth."""
    sp = space(p, n)
    basis = np.zeros((sp.size, len(slots)),
                     dtype=_exact_dtype(len(slots), p, p**K - 1))
    for j in sorted({j for _, j in slots}):
        cols = [s for s, (_, depth) in enumerate(slots) if depth == j]
        units = np.zeros((sp.size, len(cols)), dtype=np.int8)
        units[[sp.index_of(slots[s][0]) for s in cols], range(len(cols))] = 1
        basis[:, cols] = eval_layer_tables(p, n, units, j, K)
    basis.flags.writeable = False
    return basis


def eval_slot_batches(
    p: int, n: int, slots: Sequence[tuple[tuple[int, ...], int]], coeffs: np.ndarray, K: int
) -> np.ndarray:
    """Value tables (numerators over p^K, in _table_dtype(p, K)) of shape
    (N, ...) for coefficient rows of shape (..., slots), the table axis
    first."""
    basis = _slot_basis(p, n, tuple(slots), K)
    coeffs = np.asarray(coeffs)
    flat = coeffs.reshape(prod(coeffs.shape[:-1]), len(slots)).T.astype(basis.dtype)
    return _narrow(basis @ flat, p, K, _table_dtype(p, K)).reshape(
        len(basis), *coeffs.shape[:-1])
