"""Gowers uniformity norms, analytic rank, Fourier analysis, and the finite
energy decomposition.

Pure-phase inputs e(P) run through exact residue counters end to end;
generic complex inputs use double precision with documented tolerances.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (
    SPACE_CAP,
    ExactExpectation,
    TorusValue,
    UnityCounter,
    _reduce,
    check_budget,
    json_int,
    space,
)
from .forms import bias, dk_extract
from .poly import (
    CanonicalForm,
    NCPoly,
    _enum_count,
    _form_poly,
    _form_tables,
    canonical_slots,
)
from .rng import SplitMix64


class BoundedFunction:
    """A function V -> C given by its value table."""

    __slots__ = ("p", "n", "values")

    def __init__(self, p: int, n: int, values: np.ndarray):
        self.p = p
        self.n = n
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (space(p, n).size,):
            raise ValueError("value table has the wrong size")

    @classmethod
    def from_phase(cls, P: NCPoly) -> "BoundedFunction":
        return cls(P.p, P.n, np.exp(2j * np.pi * P.nums / P.p**P.K))

    @classmethod
    def from_json(cls, obj: dict) -> "BoundedFunction":
        """Entries are torus values {num, exp}, read as e(num/p^exp), or
        complex numbers {re, im}."""
        p, n = json_int(obj, "p"), json_int(obj, "n")
        vals = [cmath.exp(2j * cmath.pi
                          * float(TorusValue.from_json(p, entry).as_fraction()))
                if "num" in entry else complex(entry["re"], entry.get("im", 0.0))
                for entry in obj["values"]]
        return cls(p, n, np.array(vals))

    def mult_derivative(self, h: int) -> "BoundedFunction":
        """Delta_h f = (T_h f) conj(f), for the point of index h."""
        perm = space(self.p, self.n).shift_perm(h)
        return BoundedFunction(
            self.p, self.n, self.values[perm] * np.conj(self.values))

    def modulate(self, P: NCPoly) -> "BoundedFunction":
        return BoundedFunction(
            self.p, self.n, self.values * BoundedFunction.from_phase(P).values)

    def scale(self, a: complex) -> "BoundedFunction":
        return BoundedFunction(self.p, self.n, a * self.values)

    def __add__(self, other: "BoundedFunction") -> "BoundedFunction":
        return BoundedFunction(self.p, self.n, self.values + other.values)

    def mean(self) -> complex:
        return complex(self.values.mean())


# ---------------------------------------------------------------------------
# norms


def _derivative_expansion(table: np.ndarray, p: int, n: int, d: int,
                          step, emit, kernel: str) -> None:
    """Pass the d-fold derivative table of one function to emit in
    (rows, N) blocks.  step(cur, shifts) maps rows (R, N) to the
    (R, len(shifts), N) derivatives along each shift index array.

    Split over the outermost shift h_1 once N^(d+1) > 2^22, so memory
    stays at N^d entries: each block is dropped before the next is built.
    The N x N table of x + h is built per call, and only when a shift is
    expanded over all of V.  A split block is checked against SPACE_CAP,
    in the name of the calling kernel, before it is built; it is at least
    as large as the shift table, and an unsplit expansion stays below 2^22.
    """
    sp = space(p, n)
    N = sp.size
    x = np.arange(N, dtype=np.int64)

    def expand(cur: np.ndarray, shifts: list[np.ndarray]) -> np.ndarray:
        for s in shifts:
            cur = step(cur, s).reshape(-1, N)
        return cur

    base = table.reshape(1, N)
    split = d >= 1 and N ** (d + 1) > (1 << 22)
    whole = d - split           # shifts expanded over all of V
    if split:
        check_budget(N**d, SPACE_CAP, kernel)
    A = sp.add_indices(x[:, None], x[None, :]) if whole else None
    if split:
        for h in range(N):
            emit(expand(base, [sp.add_indices(x, h)[None, :]] + [A] * whole))
    else:
        emit(expand(base, [A] * whole))


def _cube_product(tables: Sequence[np.ndarray], p: int, n: int,
                  budget: int | None = None) -> complex:
    """E_{h_1..h_d, x} of prod_omega tables[omega](x + omega . h) over the
    2^d vertices of the d-cube, by the definition verbatim."""
    sp = space(p, n)
    N = sp.size
    d = len(tables).bit_length() - 1
    check_budget(N ** (d + 1), budget, "_cube_product")
    check_budget(N ** (d + 1), SPACE_CAP, "_cube_product")
    axes = np.indices((N,) * (d + 1), sparse=True)  # x runs on the last axis
    total = np.ones((N,) * (d + 1), dtype=np.complex128)
    for omega in range(1 << d):
        shifts = [axes[t] for t in range(d) if omega >> t & 1]
        total *= tables[omega][reduce(sp.add_indices, shifts, axes[d])]
    return complex(total.mean())


def _gowers_power_direct(f: BoundedFunction, d: int,
                         budget: int | None = None) -> complex:
    """The cube definition verbatim, N^(d+1) work: the oracle that tests
    and the gowers-props suite compare `gowers_power` with."""
    conj = np.conj(f.values)
    return _cube_product(
        [conj if bin(omega).count("1") % 2 else f.values
         for omega in range(1 << d)], f.p, f.n, budget)


def gowers_power(f: BoundedFunction, d: int,
                 budget: int | None = None) -> complex:
    """E_{h_1..h_d, x} of the d-fold multiplicative derivative of f, for N^d
    work: the last derivative folds into |E_x g|^2."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got d = {d}")
    N = space(f.p, f.n).size
    # d past the cap's bit length would pass SPACE_CAP in one N^(d-1) block
    # (N >= 2) or take d steps (N = 1): it is refused before N^d is formed
    check_budget(d, SPACE_CAP.bit_length(), "gowers_power")
    check_budget(N ** max(d, 1), budget, "gowers_power")
    if d == 0:
        return f.mean()
    # the steps gather inline so that numpy writes the result into the
    # gathered temporary instead of allocating a second array
    sums: list[float] = []
    _derivative_expansion(
        f.values, f.p, f.n, d - 1,
        lambda cur, s: cur[:, s] * np.conj(cur)[:, None, :],
        lambda block: sums.append((np.abs(block.sum(axis=1)) ** 2).sum()),
        "gowers_power")
    return complex(np.sum(sums) / N ** (d + 1))


def gowers_norm(f: BoundedFunction, d: int,
                budget: int | None = None) -> float:
    power = gowers_power(f, d, budget=budget)
    return abs(power) ** (1.0 / (1 << d))


def gowers_power_exact(P: NCPoly, d: int, budget: int | None = None) -> ExactExpectation:
    """Exact 2^d-th power of ||e(P)||_{U^d}, by integer residue counting.

    With M = p^K <= N and d >= 1 the last derivative is folded: the residues
    r(x+h) - r(x) are counted as the differences r(y) - r(x) over pairs in
    each row r of the (d-1)-fold derivative table, from row histograms, for
    N^(d-1) max(N, M^2) work.  Otherwise all d shifts are expanded: N^(d+1).
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got d = {d}")
    N = space(P.p, P.n).size
    check_budget(d, SPACE_CAP.bit_length(), "gowers_power_exact")  # as gowers_power
    mod = P.p**P.K
    fold = d >= 1 and mod <= N
    check_budget(N ** (d - 1) * max(N, mod**2) if fold else N ** (d + 1),
                 budget, "gowers_power_exact")
    if fold:    # the pair counts are an M x M table
        check_budget(mod * mod, SPACE_CAP, "gowers_power_exact")
    counter = UnityCounter(P.p, P.K)

    def histograms(rows: np.ndarray) -> None:
        H = np.bincount((rows + mod * np.arange(len(rows))[:, None]).ravel(),
                        minlength=len(rows) * mod).reshape(-1, mod)
        # C[s, u] counts the pairs with r(x) = s and r(y) = u
        C = H.T @ H
        res = np.arange(mod)
        counter.add_counts(res, C[res[:, None], (res[:, None] - res) % mod].sum(0))

    _derivative_expansion(
        P.nums % mod, P.p, P.n, d - 1 if fold else d,
        lambda cur, s: _reduce(cur[:, s] - cur[:, None, :], P.p, P.K),
        histograms if fold else counter.add_residues, "gowers_power_exact")
    return counter.expectation()


# ---------------------------------------------------------------------------
# analytic rank


class AnalyticRank:
    __slots__ = ("bias", "value", "exact")

    def __init__(self, bias_value: Fraction, p: int):
        self.bias = bias_value
        # + 0.0 turns the -0.0 of bias 1 into 0.0 and leaves every other value
        self.value = -math.log(bias_value) / math.log(p) + 0.0
        self.exact = None
        num, den = bias_value.numerator, bias_value.denominator
        if num == 1:
            m = 0
            while den % p == 0:
                den //= p
                m += 1
            if den == 1:
                self.exact = m

    def __repr__(self) -> str:
        return f"AnalyticRank({self.value:.6f}, bias={self.bias})"


def analytic_rank(P: NCPoly, s: int, budget: int | None = None,
                  threads: int = 1) -> AnalyticRank:
    """-log_p of E e(d^(s+1) P); vanishes exactly on degree <= s inputs."""
    if P.degree() > s + 1:
        raise ValueError(f"degree {P.degree()} exceeds s+1 = {s+1}")
    T = dk_extract(P, s + 1)
    b = bias(T, budget=budget, threads=threads)
    # the zero tuple always contributes, so a genuine polynomial has bias > 0
    assert b > 0, "bias vanished on a degree <= s+1 polynomial"
    return AnalyticRank(b, P.p)


# ---------------------------------------------------------------------------
# rank witnesses


def rank_witness_check(P: NCPoly, s: int, polys: Sequence[NCPoly]) -> bool:
    """Whether P is a function of the polynomials Q_1..Q_m of degree <= s,
    that is constant on every fibre of x -> (Q_1(x), ..., Q_m(x)); then P
    has rank <= m.  With m = 0 there is one fibre: P must be constant."""
    N = space(P.p, P.n).size
    keys = np.empty((N, len(polys)), dtype=np.int64)
    for j, q in enumerate(polys):
        if (q.p, q.n) != (P.p, P.n):
            raise ValueError("witness polynomial lives on another space")
        if q.degree() > s:
            raise ValueError("witness polynomial exceeds degree s")
        keys[:, j] = q.nums     # normalised, so equal values, equal numerators
    _, first, fibre = np.unique(keys, axis=0, return_index=True,
                                return_inverse=True)
    return bool(np.array_equal(P.nums, P.nums[first][fibre.reshape(N)]))


# ---------------------------------------------------------------------------
# Fourier analysis


def walsh_fourier(f: BoundedFunction) -> np.ndarray:
    """All p^n coefficients hat f(xi) = E f(x) e(-xi.x/p); fast butterflies.

    For p = 2 this is the Walsh-Hadamard transform in O(|V| n) operations.
    """
    p, n = f.p, f.n
    N = space(p, n).size
    arr = f.values.copy()
    if p == 2:
        for ax in range(n):
            view = arr.reshape(N >> (ax + 1), 2, 1 << ax)
            a = view[:, 0, :].copy()
            b = view[:, 1, :].copy()
            view[:, 0, :] = a + b
            view[:, 1, :] = a - b
    else:
        root = np.exp(-2j * np.pi / p)
        F = root ** (np.arange(p)[:, None] * np.arange(p)[None, :])
        for ax in range(n):
            view = arr.reshape(N // p ** (ax + 1), p, p**ax)
            arr = np.einsum("ij,kjl->kil", F, view).reshape(N)
    return arr / N


def inverse_explore(f: BoundedFunction, s: int, budget: int | None = None
                    ) -> tuple[NCPoly, float]:
    """Exhaustively maximise |E f e(-P)| over degree <= s polynomials modulo
    constants; ties broken by enumeration order."""
    p, n = f.p, f.n
    N = space(p, n).size
    check_budget(_enum_count(p, n, s) * N, budget, "inverse_explore")
    best_val, best_poly = -1.0, None
    for slots, coeffs, T, K in _form_tables(p, n, s):
        # T is (N, rows), the table axis first
        corr = np.abs(f.values @ np.conj(np.exp(2j * np.pi * T / p**K))) / N
        # a later candidate replaces the best only by more than 1e-12
        for i in np.flatnonzero(corr > best_val + 1e-12):
            if corr[i] > best_val + 1e-12:
                best_val = float(corr[i])
                best_poly = _form_poly(p, n, slots, coeffs[i], T[:, i], K)
    assert best_poly is not None
    return best_poly, best_val


# ---------------------------------------------------------------------------
# conditional expectation / decomposition


def conditional_expectation(values: Sequence, factors: Sequence[Sequence]):
    """Project onto the sigma-algebra generated by the factors' level sets.

    Returns (projected values as a list, energy ||E(f|B)||_{L^2}^2).  Exact
    when the values are Fractions; complex tables use floats.
    """
    N = len(values)
    if N == 0:
        raise ValueError("no values to project")
    if any(len(factor) != N for factor in factors):
        raise ValueError("each factor needs one label per value")
    atoms: dict[tuple, list[int]] = {}
    for x in range(N):
        key = tuple(factor[x] for factor in factors)
        atoms.setdefault(key, []).append(x)
    out = [None] * N
    for members in atoms.values():
        total = sum(values[x] for x in members)
        if isinstance(total, int):
            total = Fraction(total)
        mean = total / len(members)
        for x in members:
            out[x] = mean
    energy = sum(abs(v) ** 2 if isinstance(v, complex) else v * v for v in out)
    return out, energy / N


# ---------------------------------------------------------------------------
# seeded random inputs of the suites


def _random_disc(rng: SplitMix64, count: int) -> np.ndarray:
    """count values r e(t) of scalar rng.unit() pairs (r, t), in one block draw."""
    check_budget(2 * count, SPACE_CAP, "_random_disc")
    units = (rng.draws(2 * count) >> np.uint64(11)) / float(1 << 53)
    return units[0::2] * np.exp(2j * np.pi * units[1::2])


def _random_bounded(p: int, n: int, rng: SplitMix64) -> BoundedFunction:
    return BoundedFunction(p, n, _random_disc(rng, space(p, n).size))


def _random_coeffs(p: int, n: int, d: int, rng: SplitMix64,
                   depth: int | None = None) -> tuple[tuple, np.ndarray, int]:
    """The draws of _random_poly at d >= 0: the canonical slots of depth below
    depth, one coefficient below p per slot (int8), and alpha's numerator over
    p^2, drawn only when depth is None (else 0)."""
    slots = canonical_slots(p, n, d)
    if depth is not None:
        slots = tuple(s for s in slots if s[1] < depth)
    coeffs = (rng.draws(len(slots)) % np.uint64(p)).astype(np.int8)
    return slots, coeffs, rng.below(p**2) if depth is None else 0


def _coeff_poly(p: int, n: int, slots: Sequence, coeffs: np.ndarray,
                alpha: int) -> NCPoly:
    """alpha/p^2 plus coeffs[s]/p^(j+1) |x|^e for each slot s = (e, j),
    evaluated from its canonical form."""
    terms = dict(zip(slots, coeffs.tolist()))
    return NCPoly.from_canonical(CanonicalForm(p, n, TorusValue(p, alpha, 2), terms))


def _random_poly(p: int, n: int, d: int, rng: SplitMix64,
                 depth: int | None = None) -> NCPoly:
    """Degree <= d, one coefficient below p per canonical slot of depth below
    depth; alpha over p^2 is drawn only when depth is None, keeping them all."""
    if d < 0:
        return NCPoly.zero(p, n)
    return _coeff_poly(p, n, *_random_coeffs(p, n, d, rng, depth))
