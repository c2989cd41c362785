"""Exact arithmetic substrate for computations over F_p^n.

Provides the prime field, torus values with p-power denominators (elements
of (1/p^K)Z/Z), digit vectors over F_p^n with fast index arithmetic,
deterministic root-of-unity accumulators, and exact sums of roots of unity
in Z[zeta_{p^K}].

All arithmetic here is integer-exact; floats appear only when a character
sum is finally converted to a complex number.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
SPACE_CAP = 1 << 24


class BudgetExceeded(Exception):
    """Raised when an operation would exceed the configured work budget."""


def check_budget(cost: int, budget: int | None, kernel: str) -> None:
    if budget is not None and cost > budget:
        raise BudgetExceeded(
            f"{kernel}: estimated cost {cost} exceeds budget {budget}")


def validate_prime(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"modulus must be a prime in {SUPPORTED_PRIMES}, got {p}")
    return p


@dataclass(frozen=True)
class PrimeField:
    """The field F_p of prime order p (2 <= p <= 13)."""

    p: int

    def __post_init__(self) -> None:
        validate_prime(self.p)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)


class TorusValue:
    """Exact element num/p^exp of the subgroup (1/p^K)Z/Z of R/Z.

    Stored reduced: 0 <= num < p^exp and p does not divide num unless the
    value is 0 (in which case exp == 0).
    """

    __slots__ = ("p", "num", "exp")

    def __init__(self, p: int, num: int, exp: int):
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        num %= p**exp if exp > 0 else 1
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
        return cls(p, frac.numerator % p**exp if exp else 0, exp)

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

    def scale(self, n: int) -> "TorusValue":
        """n * self, exact; scaling by p drops the exponent by one."""
        return TorusValue(self.p, n * self.num, self.exp)

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
        return cls(p, int(obj["num"]), int(obj["exp"]))


@lru_cache(maxsize=4096)
def _root_of_unity(num: int, den: int) -> complex:
    # quarter-turn values are pinned exactly so algebraic identities hold
    num %= den
    if 4 * num % den == 0:
        return {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}[4 * num // den]
    return cmath.exp(2j * cmath.pi * num / den)


def char_eval(a: TorusValue) -> complex:
    """The standard character e(a) = exp(2*pi*i*a)."""
    return _root_of_unity(a.num, a.p**a.exp)


class Space:
    """The vector space F_p^n with lexicographic digit indexing.

    A vector (x_1, ..., x_n) has index sum(x_i * p^(i-1)); digit 1 varies
    fastest in enumeration order.
    """

    def __init__(self, p: int, n: int):
        validate_prime(p)
        if n < 0:
            raise ValueError("dimension must be non-negative")
        self.p = p
        self.n = n
        self.size = p**n
        self._digits: np.ndarray | None = None

    @property
    def digits(self) -> np.ndarray:
        """(size, n) uint8 matrix of digit expansions."""
        if self._digits is None:
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
        res = 0 if np.isscalar(a) and np.isscalar(b) else np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.n):
            pi = self.p**i
            da = (a // pi) % self.p
            db = (b // pi) % self.p
            res = res + ((da + db) % self.p) * pi
        return res

    def neg_index(self, a):
        if self.p == 2:
            return a
        res = 0 if np.isscalar(a) else np.zeros(np.shape(a), dtype=np.int64)
        for i in range(self.n):
            pi = self.p**i
            da = (a // pi) % self.p
            res = res + ((-da) % self.p) * pi
        return res

    def shift_perm(self, h_idx: int) -> np.ndarray:
        """Permutation array perm[x] = index(x + h)."""
        return self.add_indices(np.arange(self.size, dtype=np.int64), h_idx)

    def unit_index(self, i: int) -> int:
        return self.p**i


@lru_cache(maxsize=256)
def space(p: int, n: int) -> Space:
    return Space(p, n)


class FVec:
    """A vector in F_p^n, held as its packed index (bit-packed when p=2)."""

    __slots__ = ("p", "n", "idx")

    def __init__(self, p: int, n: int, idx: int):
        self.p = p
        self.n = n
        self.idx = idx

    @classmethod
    def from_digits(cls, p: int, digits: Sequence[int]) -> "FVec":
        sp = space(p, len(digits))
        return cls(p, len(digits), sp.index_of(digits))

    @classmethod
    def zero(cls, p: int, n: int) -> "FVec":
        return cls(p, n, 0)

    @classmethod
    def unit(cls, p: int, n: int, i: int) -> "FVec":
        return cls(p, n, p**i)

    @property
    def digits(self) -> tuple[int, ...]:
        return space(self.p, self.n).digits_of(self.idx)

    def __add__(self, other: "FVec") -> "FVec":
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mismatched spaces")
        return FVec(self.p, self.n, space(self.p, self.n).add_indices(self.idx, other.idx))

    def __neg__(self) -> "FVec":
        return FVec(self.p, self.n, space(self.p, self.n).neg_index(self.idx))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FVec):
            return NotImplemented
        return (self.p, self.n, self.idx) == (other.p, other.n, other.idx)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.idx))

    def __repr__(self) -> str:
        return f"FVec({''.join(map(str, self.digits))})"

    def to_json(self) -> dict:
        return {"p": self.p, "digits": list(self.digits)}

    @classmethod
    def from_json(cls, obj: dict) -> "FVec":
        return cls.from_digits(int(obj["p"]), [int(d) for d in obj["digits"]])


def enumerate_space(p: int, n: int) -> Iterator[FVec]:
    """All p^n vectors exactly once (at most SPACE_CAP), lexicographic digit
    order."""
    sp = space(p, n)
    check_budget(sp.size, SPACE_CAP, "enumerate_space")
    for idx in range(sp.size):
        yield FVec(p, n, idx)


class CycloSum:
    """Exact integer combination of p^K-th roots of unity.

    Elements are reduced to the canonical Z-basis zeta^0, ..., zeta^(phi-1)
    of Z[zeta_{p^K}] where phi = (p-1) p^(K-1), using the cyclotomic
    relation sum_{i<p} zeta^(i p^(K-1)) = 0.  Equality with 0 and extraction
    of rational values are exact.
    """

    __slots__ = ("p", "K", "coeffs")

    def __init__(self, p: int, K: int, coeffs: dict[int, int] | None = None):
        self.p = p
        self.K = K
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for t, c in coeffs.items():
                self._add_term(t, c)

    @property
    def order(self) -> int:
        return self.p**self.K

    @property
    def phi(self) -> int:
        return (self.p - 1) * self.p ** (self.K - 1) if self.K > 0 else 1

    def _add_term(self, t: int, c: int) -> None:
        if c == 0:
            return
        t %= self.order
        if t < self.phi:
            new = self.coeffs.get(t, 0) + c
            if new:
                self.coeffs[t] = new
            else:
                self.coeffs.pop(t, None)
            return
        # zeta^((p-1)p^(K-1) + b) = -sum_{i<p-1} zeta^(i p^(K-1) + b)
        b = t - self.phi
        step = self.p ** (self.K - 1)
        for i in range(self.p - 1):
            self._add_term(i * step + b, -c)

    @classmethod
    def from_counts(cls, p: int, K: int, counts: Sequence[int]) -> "CycloSum":
        return cls(p, K, {t: int(c) for t, c in enumerate(counts) if c})

    def __add__(self, other: "CycloSum") -> "CycloSum":
        out = CycloSum(self.p, self.K, dict(self.coeffs))
        for t, c in other.coeffs.items():
            out._add_term(t, c)
        return out

    def __mul__(self, other: "CycloSum") -> "CycloSum":
        out = CycloSum(self.p, self.K)
        for t1, c1 in self.coeffs.items():
            for t2, c2 in other.coeffs.items():
                out._add_term(t1 + t2, c1 * c2)
        return out

    def conj(self) -> "CycloSum":
        out = CycloSum(self.p, self.K)
        for t, c in self.coeffs.items():
            out._add_term(-t % self.order if t else 0, c)
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(t == 0 for t in self.coeffs)

    def rational_part(self) -> int | None:
        if not self.is_rational():
            return None
        return self.coeffs.get(0, 0)

    def as_complex(self) -> complex:
        return sum(
            (c * _root_of_unity(t, self.order) for t, c in self.coeffs.items()),
            0j,
        )


class ExactExpectation:
    """An expectation (1/total) * sum of roots of unity, held exactly."""

    __slots__ = ("numerator", "total")

    def __init__(self, numerator: CycloSum, total: int):
        if total <= 0:
            raise ValueError("empty counter")
        self.numerator = numerator
        self.total = total

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def as_fraction(self) -> Fraction | None:
        """Exact rational value, or None when the sum is irrational."""
        r = self.numerator.rational_part()
        if r is None:
            return None
        return Fraction(r, self.total)

    def as_complex(self) -> complex:
        return self.numerator.as_complex() / self.total

    def abs_sq(self) -> "ExactExpectation":
        return ExactExpectation(self.numerator * self.numerator.conj(), self.total**2)


# UnityCounter keeps a dense array of counters up to this many residues and
# a dict of the residues it has seen above it
_DENSE_COUNTERS = 1 << 20


class UnityCounter:
    """Integer counters over the residues of (1/p^K)Z/Z.

    Insertion order never matters and merging is associative and
    commutative, so any parallel accumulation schedule gives bit-identical
    expectations.  ``counts`` is an array indexed by residue while p^K is
    at most _DENSE_COUNTERS, and a {residue: count} dict past it.
    """

    def __init__(self, p: int, K: int):
        validate_prime(p)
        self.p = p
        self.K = K
        self.counts: np.ndarray | dict[int, int] = \
            np.zeros(p**K, dtype=np.int64) if p**K <= _DENSE_COUNTERS else {}

    def add_value(self, v: TorusValue, count: int = 1) -> None:
        if v.exp > self.K:
            raise ValueError(f"value denominator exceeds p^{self.K}")
        self.add_counts([v.num * self.p ** (self.K - v.exp)], [count])

    def add_counts(self, residues, counts) -> None:
        """Add counts[i] to the counter of residues[i] (reduced numerators
        over p^K; a residue may repeat)."""
        if isinstance(self.counts, dict):
            for r, c in zip(np.asarray(residues).tolist(), np.asarray(counts).tolist()):
                if c:
                    self.counts[r] = self.counts.get(r, 0) + c
        else:
            np.add.at(self.counts, residues, counts)

    def add_residues(self, residues: np.ndarray) -> None:
        """Bulk insert residue indices (numerators over p^K)."""
        mod = self.p**self.K
        if isinstance(self.counts, dict):
            self.add_counts(*np.unique(residues.ravel() % mod, return_counts=True))
        else:
            self.counts += np.bincount(residues.ravel() % mod, minlength=mod)

    def merge(self, other: "UnityCounter") -> "UnityCounter":
        if (self.p, self.K) != (other.p, other.K):
            raise ValueError("mismatched counters")
        out = UnityCounter(self.p, self.K)
        for c in (self, other):
            out.add_counts(*c._nonzero())
        return out

    def _nonzero(self) -> tuple[list[int], list[int]]:
        """(residues, counts) of the nonzero counters, residues ascending."""
        if isinstance(self.counts, dict):
            items = sorted(self.counts.items())
            return [r for r, _ in items], [c for _, c in items]
        nz = np.flatnonzero(self.counts)
        return nz.tolist(), self.counts[nz].tolist()

    @property
    def total(self) -> int:
        return sum(self._nonzero()[1])

    def expectation(self) -> ExactExpectation:
        residues, counts = self._nonzero()
        return ExactExpectation(
            CycloSum(self.p, self.K, dict(zip(residues, counts))), sum(counts))
