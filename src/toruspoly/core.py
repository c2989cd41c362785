"""Exact arithmetic substrate for computations over F_p^n.

Provides torus values with p-power denominators (elements of (1/p^K)Z/Z),
the space F_p^n, whose points are packed integer indices, deterministic
root-of-unity accumulators (`UnityCounter`: sorted distinct residues and one
count each, at any p^K), exact expectations of roots of unity
(`ExactExpectation`): integer counts on the residues of Z/p^K, batched over
leading axes and reduced once to their coordinates in Z[zeta_{p^K}], from
which zero tests, rational values and |.|^2 are read exactly, and the
integer reader of JSON input (`json_int`).

All arithmetic here is integer-exact; floats appear only when a character
sum is finally converted to a complex number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
SPACE_CAP = 1 << 24


class BudgetExceeded(Exception):
    """Raised when an operation would exceed the configured work budget."""


def check_budget(cost: int, budget: int | None, kernel: str) -> None:
    if budget is not None and cost > budget:
        # a cost past 2^64 prints as a power of two: p^(slot count) can have
        # more digits than Python converts to a string
        shown = cost if cost < 1 << 64 else f">= 2^{cost.bit_length() - 1}"
        raise BudgetExceeded(
            f"{kernel}: estimated cost {shown} exceeds budget {budget}")


def validate_prime(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"modulus must be a prime in {SUPPORTED_PRIMES}, got {p}")
    return p


def json_int(obj: dict, key: str):
    """obj[key] of JSON input as an integer, or nested lists of integers: a
    float or a bool there raises ValueError instead of being truncated."""
    def read(value):
        if isinstance(value, list):
            return [read(v) for v in value]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{key} must hold integers, got {value!r}")
        return int(value)
    return read(obj[key])


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


class TorusValue:
    """Exact element num/p^exp of the subgroup (1/p^K)Z/Z of R/Z.

    Stored reduced: 0 <= num < p^exp and p does not divide num unless the
    value is 0 (in which case exp == 0).
    """

    __slots__ = ("p", "num", "exp")

    def __init__(self, p: int, num: int, exp: int):
        validate_prime(p)
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        # p^exp is not formed past SPACE_CAP bits
        check_budget(exp * int(p).bit_length(), SPACE_CAP, "TorusValue")
        num %= p**exp
        while exp > 0 and num % p == 0:
            num //= p
            exp -= 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("TorusValue is immutable")

    @classmethod
    def zero(cls, p: int) -> "TorusValue":
        return cls(p, 0, 0)

    @classmethod
    def from_fraction(cls, p: int, frac: Fraction) -> "TorusValue":
        """Build from a rational whose denominator is a power of p."""
        den = frac.denominator
        exp = 0
        while den % p == 0:
            den //= p
            exp += 1
        if den != 1:
            raise ValueError(f"denominator {frac.denominator} is not a power of {p}")
        return cls(p, frac.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.p**self.exp)

    def is_zero(self) -> bool:
        return self.num == 0 and self.exp == 0

    def _check(self, other: "TorusValue") -> None:
        if self.p != other.p:
            raise ValueError(f"mismatched moduli {self.p} and {other.p}")

    def __add__(self, other: "TorusValue") -> "TorusValue":
        self._check(other)
        k = max(self.exp, other.exp)
        p = self.p
        num = self.num * p ** (k - self.exp) + other.num * p ** (k - other.exp)
        return TorusValue(p, num, k)

    def __neg__(self) -> "TorusValue":
        return TorusValue(self.p, -self.num, self.exp)

    def __sub__(self, other: "TorusValue") -> "TorusValue":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusValue):
            return NotImplemented
        return (self.p, self.num, self.exp) == (other.p, other.num, other.exp)

    def __hash__(self) -> int:
        return hash((self.p, self.num, self.exp))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return f"{self.num}/{self.p**self.exp}"

    def to_json(self) -> dict:
        return {"num": self.num, "exp": self.exp}

    @classmethod
    def from_json(cls, p: int, obj: dict) -> "TorusValue":
        return cls(p, json_int(obj, "num"), json_int(obj, "exp"))


class Space:
    """The vector space F_p^n with lexicographic digit indexing.

    A point (x_1, ..., x_n) is its index sum(x_i * p^(i-1)); digit 1 varies
    fastest in enumeration order.
    """

    def __init__(self, p: int, n: int):
        validate_prime(p)
        if n < 0:
            raise ValueError("dimension must be non-negative")
        # p^n is not formed past SPACE_CAP bits
        check_budget(n * int(p).bit_length(), SPACE_CAP, "Space")
        self.p = p
        self.n = n
        self.size = p**n
        self._digits: np.ndarray | None = None

    @property
    def digits(self) -> np.ndarray:
        """(size, n) uint8 matrix of digit expansions; p^n is checked
        against SPACE_CAP before it is allocated."""
        if self._digits is None:
            check_budget(self.size, SPACE_CAP, "Space.digits")
            idx = np.arange(self.size, dtype=np.int64)
            cols = [(idx // self.p**i) % self.p for i in range(self.n)]
            self._digits = (
                np.stack(cols, axis=1).astype(np.uint8)
                if self.n
                else np.zeros((1, 0), dtype=np.uint8)
            )
        return self._digits

    def index_of(self, digits: Sequence[int]) -> int:
        if len(digits) != self.n:
            raise ValueError("wrong number of digits")
        idx = 0
        for i, d in enumerate(digits):
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} out of range for p={self.p}")
            idx += d * self.p**i
        return idx

    def check_index(self, idx: int) -> int:
        if not 0 <= idx < self.size:
            raise ValueError(f"{idx} is not a point index of F_{self.p}^{self.n}")
        return idx

    def digits_of(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def add_indices(self, a, b):
        """Index of x + y given indices; works on scalars and arrays."""
        if self.p == 2:
            return a ^ b
        res = 0 * (a + b)  # zero in their broadcast shape, also at n = 0
        for i in range(self.n):
            pi = self.p**i
            da = (a // pi) % self.p
            db = (b // pi) % self.p
            res = res + ((da + db) % self.p) * pi
        return res

    def shift_perm(self, h: int) -> np.ndarray:
        """Permutation array perm[x] = x + h."""
        return self.add_indices(np.arange(self.size, dtype=np.int64),
                                self.check_index(h))


@lru_cache(maxsize=256)
def space(p: int, n: int) -> Space:
    return Space(p, n)


class ExactExpectation:
    """Expectations (1/total) * sum_j counts[..., j] zeta^(residues[j]) in
    Q(zeta) for zeta = zeta_(p^K), held exactly and batched over the
    leading axes of counts.

    The counts are reduced once, at construction, to integer coordinates on
    the basis zeta^0, ..., zeta^(phi-1) of Z[zeta], phi = (p-1) p^(K-1):
    with t = a p^(K-1) + b the relation sum_a zeta^t = 0 makes the
    coordinate of zeta^t, for a < p-1, equal to c[a, b] - c[p-1, b].  Only
    basis elements with a nonzero coordinate somewhere in the batch are
    kept, so equal sums have equal (basis, coords).  Any prime p works, and
    K = 0 (a sum of ones) too.
    """

    __slots__ = ("p", "K", "basis", "coords", "total")

    def __init__(self, p: int, K: int, counts, total: int, residues=None):
        """counts is (..., R) over the R residues mod p^K that the batch
        shares, strictly increasing in [0, p^K); residues=None means all p^K
        of them, in order."""
        if total <= 0:
            raise ValueError("empty counter")
        self.p, self.K, self.total = p, K, total
        counts = np.asarray(counts)
        batch = counts.shape[:-1]
        if residues is not None:
            residues = np.asarray(residues, dtype=np.int64)
            if residues.shape != counts.shape[-1:] \
                    or (np.diff(residues, prepend=-1) <= 0).any() \
                    or len(residues) and int(residues[-1]) >= p**K:
                raise ValueError("residues must be one strictly increasing "
                                 f"row in [0, {p}^{K}), one per count")
        if K == 0:
            basis = np.zeros(1, dtype=np.int64)
            coords = counts.sum(axis=-1, keepdims=True)
        else:
            m = p ** (K - 1)
            if residues is None:
                cols = np.arange(m, dtype=np.int64)
                table = counts.reshape(batch + (p, m))
            else:
                # scattered with the residue axis first, where each residue's
                # counts are one contiguous row
                cols, col = np.unique(residues % m, return_inverse=True)
                table = np.zeros((p, len(cols)) + batch, dtype=counts.dtype)
                table[residues // m, col] = np.moveaxis(counts, -1, 0)
                table = np.moveaxis(table, (0, 1), (-2, -1))
            coords = (table[..., :-1, :] - table[..., -1:, :]) \
                .reshape(batch + (-1,))
            basis = (np.arange(p - 1)[:, None] * m + cols).ravel()
        keep = coords.any(axis=tuple(range(len(batch))))
        self.basis = basis[keep]
        self.coords = coords[..., keep]

    def is_zero(self):
        return ~(self.coords != 0).any(axis=-1)

    def is_rational(self):
        return ~(self.coords[..., self.basis != 0] != 0).any(axis=-1)

    def rational_part(self):
        """The coordinate of zeta^0: the numerator wherever is_rational()."""
        return np.where(self.basis == 0, self.coords, 0).sum(axis=-1)

    def as_fraction(self) -> Fraction | None:
        """Exact rational value, or None when the sum is irrational."""
        if not self.is_rational():
            return None
        return Fraction(int(self.rational_part()), self.total)

    def as_complex(self):
        roots = np.exp(2j * np.pi * (self.basis / self.p**self.K))
        return self.coords.astype(float) @ roots / self.total

    def abs_sq(self) -> "ExactExpectation":
        """|E|^2, exactly: the cyclic autocorrelation of the coordinates,
        in Python integers once a sum could pass 2^62."""
        batch, n = self.coords.shape[:-1], len(self.basis)
        bound = np.abs(self.coords.astype(float)).sum(axis=-1).max(initial=0.0)
        x = self.coords.astype(object if bound**2 >= 2.0**62 else np.int64) \
            .reshape(math.prod(batch), n)
        # row j holds the residues t_i - t_j of the products x_i x_j, as
        # indices into the differences that occur
        residues, diffs = np.unique(
            _reduce(self.basis - self.basis[:, None], self.p, self.K),
            return_inverse=True)
        M = len(residues)
        acc = np.zeros((len(x), M), dtype=x.dtype)
        # each sum's nonzero coordinates come first in cols, padded to the
        # longest sum's k by zeros; the i-th pairs with all k at once, so the
        # cost follows the sums' terms, not the basis the batch shares
        k = int((x != 0).sum(axis=1).max(initial=0))
        cols = np.argsort(x == 0, axis=1, kind="stable")[:, :k]
        vals = np.take_along_axis(x, cols, axis=1)
        at = np.arange(len(x))[:, None] * M
        for i in range(k):
            # distinct within each row, so += adds every product
            acc.reshape(-1)[at + diffs.ravel()[cols[:, i, None] * n + cols]] \
                += vals[:, i, None] * vals
        return ExactExpectation(self.p, self.K, acc.reshape(batch + (M,)),
                                self.total**2, residues)


class UnityCounter:
    """Integer counters over the residues of (1/p^K)Z/Z: sorted distinct
    residues and one count each, at any p^K.

    Insertion order never matters, so any accumulation schedule gives
    bit-identical expectations.
    """

    def __init__(self, p: int, K: int):
        validate_prime(p)
        self.p = p
        self.K = K
        self.residues = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)

    def add_counts(self, residues, counts) -> None:
        """Add counts[i] to the counter of residues[i] (reduced numerators
        over p^K; a residue may repeat)."""
        self.residues, at = np.unique(np.concatenate(
            [self.residues, np.asarray(residues, dtype=np.int64)]),
            return_inverse=True)
        merged = np.zeros(len(self.residues), dtype=np.int64)
        np.add.at(merged, at, np.concatenate([self.counts, counts]))
        self.counts = merged

    def add_residues(self, residues: np.ndarray) -> None:
        """Bulk insert residue indices (numerators over p^K)."""
        self.add_counts(*np.unique(_reduce(residues.ravel(), self.p, self.K),
                                   return_counts=True))

    def expectation(self) -> ExactExpectation:
        return ExactExpectation(self.p, self.K, self.counts,
                                int(self.counts.sum()), self.residues)
