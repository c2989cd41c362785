"""Torus-valued polynomials on F_p^n.

A polynomial is a map P: F_p^n -> (1/p^K)Z/Z all of whose (d+1)-fold
additive derivatives vanish.  Two representations are kept in sync:

* a value table of numerators over a common denominator p^K, and
* a canonical monomial form  alpha + sum c/p^(j+1) * |x_1|^i_1 ... |x_n|^i_n
  with 0 <= i_t < p, coefficients c in {1, ..., p-1}, and the degree of a
  term equal to (i_1 + ... + i_n) + j(p-1).

Tables are the fast path for norms and derivatives; canonical forms drive
p-th roots, degree-by-inspection, and enumeration.  All table kernels accept
leading batch dimensions so that large enumerations stay vectorised.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
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
# table kernels (batched over leading dimensions)


def _reduce(x: np.ndarray, p: int, K: int) -> np.ndarray:
    """x mod p^K for int64 (or Python-integer) arrays, negatives included;
    a mask at p = 2, which costs a fraction of an integer %."""
    return x & ((1 << K) - 1) if p == 2 else x % p**K


def _check_table_exponent(p: int, K: int) -> None:
    """Value tables hold numerators over p^K in int64."""
    if p**K >= 1 << 63:
        raise ValueError(f"table denominator {p}^{K} exceeds 2^63 - 1")


def normalize_tables(nums: np.ndarray, K: int, p: int) -> tuple[np.ndarray, int]:
    nums = np.asarray(nums, dtype=np.int64) % (p**K if K else 1)
    while K > 0 and not (nums % p).any():
        nums = nums // p
        K -= 1
    return nums, K


def derivative_tables(nums: np.ndarray, K: int, p: int, n: int, h_idx: int) -> np.ndarray:
    """d_h P = P(x+h) - P(x), numerators mod p^K."""
    perm = space(p, n).shift_perm(h_idx)
    return (nums[..., perm] - nums) % (p**K if K else 1)


def mulp_tables(nums: np.ndarray, K: int, p: int) -> tuple[np.ndarray, int]:
    # reduce mod p^(K-1) first so that the product stays below p^K
    return normalize_tables(nums % p ** max(K - 1, 0) * p, K, p)


@lru_cache(maxsize=64)
def _inverse_vandermonde(p: int) -> np.ndarray:
    """Inverse of the p x p matrix V[x, i] = x^i over F_p."""
    V = np.array([[pow(x, i, p) for i in range(p)] for x in range(p)], dtype=np.int64)
    A = V % p
    I = np.eye(p, dtype=np.int64)
    for col in range(p):
        piv = next(r for r in range(col, p) if A[r, col] % p)
        A[[col, piv]], I[[col, piv]] = A[[piv, col]].copy(), I[[piv, col]].copy()
        inv = pow(int(A[col, col]), p - 2, p)
        A[col], I[col] = (A[col] * inv) % p, (I[col] * inv) % p
        for r in range(p):
            if r != col and A[r, col]:
                f = A[r, col]
                A[r] = (A[r] - f * A[col]) % p
                I[r] = (I[r] - f * I[col]) % p
    return I % p


def classical_coeffs(p: int, n: int, table: np.ndarray) -> np.ndarray:
    """Monomial coefficients of an F_p-valued table, per-axis interpolation.

    Returns an array of the same shape; entry at index e is the coefficient
    of prod |x_t|^(digit_t(e)).
    """
    arr = _reduce(np.asarray(table, dtype=np.int64), p, 1)
    N = p**n
    lead = arr.shape[:-1]
    arr = arr.reshape(-1, N)
    if p == 2:
        for ax in range(n):
            view = arr.reshape(arr.shape[0], N >> (ax + 1), 2, 1 << ax)
            view[:, :, 1, :] ^= view[:, :, 0, :]
        return arr.reshape(*lead, N)
    Minv = _inverse_vandermonde(p)
    for ax in range(n):
        view = arr.reshape(arr.shape[0], N // p ** (ax + 1), p, p**ax)
        arr = _reduce(np.matmul(Minv, view), p, 1).reshape(arr.shape[0], N)
    return arr.reshape(*lead, N)


@lru_cache(maxsize=256)
def _monomial_matrix(p: int, n: int, modulus: int) -> np.ndarray:
    """M[e, x] = prod_t |x_t|^(digit_t(e)) mod modulus, shape (N, N).

    int64 while every product and every row of a product with F_p
    coefficients stays below 2^63; past that, Python integers (dtype
    object) run the same code.
    """
    sp = space(p, n)
    dig = sp.digits.astype(np.int64)
    pows = [[pow(d, e, modulus) for e in range(p)] for d in range(p)]
    top = max(map(max, pows))  # 1 at p = 2, so no entry of M exceeds 1
    wide = modulus * top >= 1 << 63 or \
        sp.size * (p - 1) * min(modulus - 1, top**n) >= 1 << 63
    powtab = np.array(pows, dtype=object if wide else np.int64)
    M = np.ones((sp.size, sp.size), dtype=powtab.dtype)
    for t in range(n):
        M = M * powtab[np.ix_(dig[:, t], dig[:, t])].T % modulus
    return M


def eval_layer_tables(
    p: int, n: int, coeffs: np.ndarray, depth: int, K: int
) -> np.ndarray:
    """Numerators over p^K of sum_e coeffs[..., e]/p^(depth+1) * monomial_e,
    for coefficients in [0, p)."""
    M = _monomial_matrix(p, n, p ** (depth + 1))
    vals = _reduce(coeffs.astype(np.int64) @ M, p, depth + 1)
    return np.asarray(_reduce(vals * p ** (K - 1 - depth), p, K), dtype=np.int64)


def slot_degrees(p: int, n: int, K: int) -> np.ndarray:
    """Degree of slot (depth j, exponent index e): sum(digits) + j(p-1)."""
    sp = space(p, n)
    base = sp.digits.astype(np.int64).sum(axis=1)
    return base[None, :] + (p - 1) * np.arange(K, dtype=np.int64)[:, None]


def interpolate_tables(
    p: int, n: int, nums: np.ndarray, K: int, d_max: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Peel canonical coefficients out of value tables.

    Works layer by layer from the deepest denominator: multiplying by p^j
    isolates the depth-j terms as a classical layer, which is solved by
    digit-wise finite-difference interpolation and subtracted.

    Returns (alpha numerators over p^K, coefficient array of shape
    (..., K, N)).  Raises NotPolynomialError when a coefficient violates the
    degree bound d_max.
    """
    sp = space(p, n)
    N = sp.size
    nums = np.asarray(nums, dtype=np.int64)
    lead = nums.shape[:-1]
    nums = nums.reshape(-1, N)
    alpha = _reduce(nums[:, 0], p, K)
    resid = _reduce(nums - alpha[:, None], p, K)
    C = np.zeros((nums.shape[0], K, N), dtype=np.int64)
    for j in range(K - 1, -1, -1):
        cj = classical_coeffs(p, n, resid // p ** (K - 1 - j))
        C[:, j, :] = cj
        resid = _reduce(resid - eval_layer_tables(p, n, cj, j, K), p, K)
    if resid.any():
        raise NotPolynomialError("table does not reduce to a canonical form")
    if d_max is not None:
        degs = slot_degrees(p, n, K)
        if (C[:, degs > d_max] if K else C[:, :0]).any():
            raise NotPolynomialError(f"not a polynomial of degree <= {d_max}")
    return alpha.reshape(lead), C.reshape(*lead, K, N)


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
            if len(exps) != n or any(not 0 <= e < p for e in exps):
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
        N = space(self.p, self.n).size
        nums = np.full(N, self.alpha.num * self.p ** (K - self.alpha.exp) if K else 0,
                       dtype=np.int64)
        if K == 0:
            return nums, 0
        for j in range(K):
            coeffs = np.zeros(N, dtype=np.int64)
            any_term = False
            for (exps, jj), c in self.terms.items():
                if jj == j:
                    coeffs[space(self.p, self.n).index_of(exps)] = c
                    any_term = True
            if any_term:
                nums = (nums + eval_layer_tables(self.p, self.n, coeffs, j, K)) % self.p**K
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
            alpha, C = interpolate_tables(self.p, self.n, self.nums, self.K, d_max)
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

    def distinct_values(self) -> int:
        return len(np.unique(self.nums))

    def degree(self) -> float:
        """Exact degree, read from the canonical form (interpolating if needed)."""
        if self._deg is None:
            self._deg = self.canonical().degree()
        return self._deg

    def degree_by_derivatives(self, d_max: int | None = None) -> float:
        """Independent degree computation: iterated basis-direction derivatives.

        The least d with every (d+1)-fold derivative vanishing; generators
        suffice as directions.  Any table over (1/p^K)Z/Z has degree at most
        (n + K - 1)(p - 1), which bounds the recursion.
        """
        limit = (self.n + self.K) * (self.p - 1) + 1 if d_max is None else d_max
        memo: dict[bytes, float] = {}

        def rec(nums: np.ndarray, K: int, fuel: int) -> float:
            if K == 0:
                return NEG_INF
            if fuel < 0:
                raise NotPolynomialError(f"degree exceeds bound {limit}")
            key = K.to_bytes(2, "big") + nums.tobytes()
            if key in memo:
                return memo[key]
            best = NEG_INF
            for i in range(self.n):
                d = derivative_tables(nums, K, self.p, self.n, self.p**i)
                d, Kd = normalize_tables(d, K, self.p)
                sub = rec(d, Kd, fuel - 1)
                if sub > best:
                    best = sub
            out = 0 if best == NEG_INF else best + 1
            memo[key] = out
            return out

        return rec(self.nums, self.K, limit)

    # -- calculus

    def shift(self, h: FVec) -> "NCPoly":
        perm = space(self.p, self.n).shift_perm(h.idx)
        return NCPoly(self.p, self.n, self.nums[perm], self.K)

    def derivative(self, h: FVec) -> "NCPoly":
        if (h.p, h.n) != (self.p, self.n):
            raise ValueError("dimension mismatch")
        return NCPoly(
            self.p, self.n,
            derivative_tables(self.nums, self.K, self.p, self.n, h.idx), self.K,
        )

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
        return NCPoly(p, self.n, (a - (mod - b)) % mod, K)

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


def canonical_slots(p: int, n: int, d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (exponent vector, depth) slots allowed at degree <= d."""
    sp = space(p, n)
    out = []
    j = 0
    while d - j * (p - 1) >= 1:
        for e_idx in range(sp.size):
            exps = sp.digits_of(e_idx)
            if 0 < sum(exps) <= d - j * (p - 1):
                out.append((exps, j))
        j += 1
    return out


def count_polys(p: int, n: int, d: int, modulo_constants: bool = True) -> int:
    s = len(canonical_slots(p, n, d))
    if modulo_constants:
        return p**s
    alpha_exp = (max(d, 1) - 1) // (p - 1) + 1
    return p**s * p**alpha_exp


def enumerate_polys(
    p: int, n: int, d: int, modulo_constants: bool = True
) -> Iterator[NCPoly]:
    """Stream every canonical form of degree <= d exactly once (at most
    ENUM_CAP of them)."""
    slots = canonical_slots(p, n, d)
    check_budget(count_polys(p, n, d, modulo_constants), ENUM_CAP,
                 "enumerate_polys")
    alpha_exp = 0 if modulo_constants else (max(d, 1) - 1) // (p - 1) + 1
    for a_num in range(p**alpha_exp):
        alpha = TorusValue(p, a_num, alpha_exp)
        for code in range(p ** len(slots)):
            terms = {}
            rest = code
            for slot in slots:
                rest, c = divmod(rest, p)
                if c:
                    terms[slot] = c
            yield NCPoly.from_canonical(CanonicalForm(p, n, alpha, terms))


def coefficient_batches(
    p: int, n: int, d: int
) -> Iterator[tuple[list[tuple[tuple[int, ...], int]], np.ndarray, np.ndarray]]:
    """Yield (slots, codes, coefficient matrix) blocks covering every
    degree <= d canonical form modulo constants, in code order, each of
    about _BLOCK_ENTRIES table entries; used by exhaustive suites."""
    slots = canonical_slots(p, n, d)
    total = p ** len(slots)
    rows = max(1, _BLOCK_ENTRIES // p**n)
    for start in range(0, total, rows):
        codes = np.arange(start, min(start + rows, total), dtype=np.int64)
        coeffs = np.empty((len(codes), len(slots)), dtype=np.int64)
        rest = codes.copy()
        for s in range(len(slots)):
            coeffs[:, s] = rest % p
            rest //= p
        yield slots, codes, coeffs


@lru_cache(maxsize=64)
def _slot_basis(p: int, n: int, slots: tuple[tuple[tuple[int, ...], int], ...],
                K: int) -> np.ndarray:
    """Read-only (slots, N) value tables over p^K of each slot's monomial."""
    sp = space(p, n)
    basis = np.zeros((len(slots), sp.size), dtype=np.int64)
    for s, (exps, j) in enumerate(slots):
        row = np.zeros(sp.size, dtype=np.int64)
        row[sp.index_of(exps)] = 1
        basis[s] = eval_layer_tables(p, n, row, j, K)
    basis.flags.writeable = False
    return basis


def eval_slot_batches(
    p: int, n: int, slots: list[tuple[tuple[int, ...], int]], coeffs: np.ndarray, K: int
) -> np.ndarray:
    """Value tables (numerators over p^K) for a batch of coefficient rows."""
    return _reduce(coeffs @ _slot_basis(p, n, tuple(slots), K), p, K)
