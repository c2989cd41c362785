"""Gowers uniformity norms, analytic rank, Fourier analysis, and the finite
energy decomposition.

Pure-phase inputs e(P) run through exact residue counters end to end;
generic complex inputs use double precision with documented tolerances.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    ExactExpectation,
    FVec,
    TorusValue,
    UnityCounter,
    check_budget,
    space,
)
from .forms import bias, dk_extract
from .poly import NCPoly, count_polys, enumerate_polys
from .rng import SplitMix64


class BoundedFunction:
    """A function V -> C given by its value table; tracks an exact torus
    phase table when the function is e(P)."""

    __slots__ = ("p", "n", "values", "phase_nums", "phase_K")

    def __init__(self, p: int, n: int, values: np.ndarray,
                 phase: tuple[np.ndarray, int] | None = None):
        self.p = p
        self.n = n
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (space(p, n).size,):
            raise ValueError("value table has the wrong size")
        self.phase_nums, self.phase_K = phase if phase else (None, None)

    @classmethod
    def from_phase(cls, P: NCPoly) -> "BoundedFunction":
        mod = P.p**P.K if P.K else 1
        values = np.exp(2j * np.pi * P.nums / mod)
        return cls(P.p, P.n, values, phase=(P.nums.copy(), P.K))

    @classmethod
    def constant_one(cls, p: int, n: int) -> "BoundedFunction":
        return cls.from_phase(NCPoly.zero(p, n))

    @classmethod
    def from_json(cls, obj: dict) -> "BoundedFunction":
        p, n = int(obj["p"]), int(obj["n"])
        vals = []
        nums = []
        exact = True
        for entry in obj["values"]:
            if "num" in entry:
                tv = TorusValue.from_json(p, entry)
                nums.append(tv)
                vals.append(cmath.exp(2j * cmath.pi * float(tv.as_fraction())))
            else:
                exact = False
                vals.append(complex(entry["re"], entry.get("im", 0.0)))
        if exact and len(nums) == len(vals):
            K = max((t.exp for t in nums), default=0)
            arr = np.array([t.num * p ** (K - t.exp) for t in nums], dtype=np.int64)
            f = cls(p, n, np.array(vals), phase=(arr, K))
            return f
        return cls(p, n, np.array(vals))

    def to_json(self) -> dict:
        if self.phase_nums is not None:
            mod = self.p**self.phase_K if self.phase_K else 1
            return {"p": self.p, "n": self.n, "values": [
                TorusValue(self.p, int(v), self.phase_K).to_json()
                for v in self.phase_nums % mod]}
        return {"p": self.p, "n": self.n, "values": [
            {"re": float(v.real), "im": float(v.imag)} for v in self.values]}

    def is_one_bounded(self, tol: float = 1e-12) -> bool:
        return bool((np.abs(self.values) <= 1 + tol).all())

    def mult_derivative(self, h: FVec) -> "BoundedFunction":
        """Delta_h f = (T_h f) conj(f)."""
        if (h.p, h.n) != (self.p, self.n):
            raise ValueError("dimension mismatch")
        perm = space(self.p, self.n).shift_perm(h.idx)
        phase = None
        if self.phase_nums is not None:
            mod = self.p**self.phase_K if self.phase_K else 1
            phase = ((self.phase_nums[perm] - self.phase_nums) % mod, self.phase_K)
        return BoundedFunction(
            self.p, self.n, self.values[perm] * np.conj(self.values), phase)

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
                          step, emit) -> None:
    """Pass the d-fold derivative table of one function to emit in
    (rows, N) blocks.  step(cur, shifts) maps rows (R, N) to the
    (R, len(shifts), N) derivatives along each shift index array.

    Split over the outermost shift h_1 once N^(d+1) > 2^22, so memory
    stays at N^d entries: each block is dropped before the next is built.
    The N x N table of x + h is built per call, and only when a shift is
    expanded over all of V.
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
    A = sp.add_indices(x[:, None], x[None, :]) if whole else None
    if split:
        for h in range(N):
            emit(expand(base, [sp.add_indices(x, h)[None, :]] + [A] * whole))
    else:
        emit(expand(base, [A] * whole))


def _cube_product(tables: Sequence[np.ndarray], p: int, n: int) -> complex:
    """E_{h_1..h_d, x} of prod_omega tables[omega](x + omega . h) over the
    2^d vertices of the d-cube, by the definition verbatim."""
    sp = space(p, n)
    N = sp.size
    d = len(tables).bit_length() - 1
    axes_idx = []
    for t in range(d + 1):
        shape = [1] * (d + 1)
        shape[t] = N
        axes_idx.append(np.arange(N, dtype=np.int64).reshape(shape))
    total = np.ones((N,) * (d + 1), dtype=np.complex128)
    for omega in range(1 << d):
        idx = axes_idx[d]  # x runs on the last axis
        for t in range(d):
            if omega >> t & 1:
                idx = sp.add_indices(idx, axes_idx[t])
        total *= tables[omega][idx]
    return complex(total.mean())


def _gowers_power_direct(f: BoundedFunction, d: int) -> complex:
    """The cube definition verbatim, N^(d+1) work: the oracle that tests
    and the gowers-props suite compare `gowers_power` with."""
    conj = np.conj(f.values)
    return _cube_product(
        [conj if bin(omega).count("1") % 2 else f.values
         for omega in range(1 << d)], f.p, f.n)


def gowers_power(f: BoundedFunction, d: int,
                 budget: int | None = None) -> complex:
    """E_{h_1..h_d, x} of the d-fold multiplicative derivative of f, for N^d
    work: the last derivative folds into |E_x g|^2."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got d = {d}")
    N = space(f.p, f.n).size
    check_budget(N ** max(d, 1), budget, "gowers_power")
    if d == 0:
        return f.mean()
    # the steps gather inline so that numpy writes the result into the
    # gathered temporary instead of allocating a second array
    sums: list[float] = []
    _derivative_expansion(
        f.values, f.p, f.n, d - 1,
        lambda cur, s: cur[:, s] * np.conj(cur)[:, None, :],
        lambda block: sums.append((np.abs(block.sum(axis=1)) ** 2).sum()))
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
    mod = P.p**P.K
    fold = d >= 1 and mod <= N
    check_budget(N ** (d - 1) * max(N, mod**2) if fold else N ** (d + 1),
                 budget, "gowers_power_exact")
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
        lambda cur, s: (cur[:, s] - cur[:, None, :]) % mod,
        histograms if fold else counter.add_residues)
    return counter.expectation()


# ---------------------------------------------------------------------------
# analytic rank


class AnalyticRank:
    __slots__ = ("bias", "value", "exact", "infinite")

    def __init__(self, bias_value: Fraction, p: int):
        self.bias = bias_value
        self.infinite = bias_value == 0
        if self.infinite:
            self.value = math.inf
            self.exact = None
            return
        self.value = -math.log(bias_value) / math.log(p)
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
    result = AnalyticRank(b, P.p)
    # the zero tuple always contributes, so a genuine polynomial has bias > 0
    assert not result.infinite, "bias vanished on a degree <= s+1 polynomial"
    return result


# ---------------------------------------------------------------------------
# rank witnesses


class RankWitness:
    """Polynomials Q_1..Q_m of degree <= s plus a lookup F with
    P(x) = F(Q_1(x), ..., Q_m(x))."""

    def __init__(self, polys: Sequence[NCPoly],
                 table: dict[tuple[TorusValue, ...], TorusValue]):
        self.polys = list(polys)
        self.table = dict(table)

    @classmethod
    def induced(cls, P: NCPoly, polys: Sequence[NCPoly]) -> "RankWitness":
        """Build the lookup from first occurrences; the check then fails on
        any value tuple mapped inconsistently."""
        table: dict[tuple[TorusValue, ...], TorusValue] = {}
        for idx in range(space(P.p, P.n).size):
            key = tuple(q.value_at_index(idx) for q in polys)
            table.setdefault(key, P.value_at_index(idx))
        return cls(polys, table)


def rank_witness_check(P: NCPoly, s: int, witness: RankWitness) -> bool:
    for q in witness.polys:
        if q.degree() > s:
            raise ValueError("witness polynomial exceeds degree s")
    for idx in range(space(P.p, P.n).size):
        key = tuple(q.value_at_index(idx) for q in witness.polys)
        if key not in witness.table:
            raise ValueError("incomplete lookup table")
        if witness.table[key] != P.value_at_index(idx):
            return False
    return True


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
    N = space(f.p, f.n).size
    check_budget(count_polys(f.p, f.n, s) * N, budget, "inverse_explore")
    best_val = -1.0
    best_poly = None
    for P in enumerate_polys(f.p, f.n, s, modulo_constants=True):
        corr = abs(np.vdot(BoundedFunction.from_phase(P).values, f.values)) / N
        if corr > best_val + 1e-12:
            best_val = corr
            best_poly = P
    assert best_poly is not None
    return best_poly, float(best_val)


# ---------------------------------------------------------------------------
# conditional expectation / decomposition


def conditional_expectation(values: Sequence, factors: Sequence[Sequence]):
    """Project onto the sigma-algebra generated by the factors' level sets.

    Returns (projected values as a list, energy ||E(f|B)||_{L^2}^2).  Exact
    when the values are Fractions; complex tables use floats.
    """
    N = len(values)
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
    if isinstance(energy, int):
        energy = Fraction(energy)
    return out, energy / N


# ---------------------------------------------------------------------------
# numeric verification of the norm inequalities


def _random_bounded(p: int, n: int, rng: SplitMix64) -> BoundedFunction:
    N = space(p, n).size
    vals = np.array(
        [rng.unit() * cmath.exp(2j * cmath.pi * rng.unit()) for _ in range(N)])
    return BoundedFunction(p, n, vals)


def _random_poly(p: int, n: int, d: int, rng: SplitMix64) -> NCPoly:
    from .poly import CanonicalForm, canonical_slots
    if d < 0:
        return NCPoly.zero(p, n)
    slots = canonical_slots(p, n, d)
    terms = {s: rng.below(p) for s in slots}
    alpha = TorusValue(p, rng.below(p**2), 2)
    return NCPoly.from_canonical(CanonicalForm(p, n, alpha, terms))


def verify_gowers_properties(p: int, n: int, seed: int, count: int = 100,
                             d_max: int = 3, tol: float = 1e-8,
                             budget: int | None = None) -> list[dict]:
    """Numeric checks of the norm properties: (i) triangle inequality,
    (ii) monotonicity in d, (iii) the L^(2^d/(d+1)) bound, (iv) and (v) the
    two Cauchy-Schwarz inequalities, (vi) invariance under modulation by
    lower-degree phases.  Returns one record per check."""
    rng = SplitMix64(seed)
    sp = space(p, n)
    N = sp.size
    records: list[dict] = []

    def rec(check: str, case: int, lhs: float, rhs: float, tolerance: float):
        records.append({
            "check": check,
            "inputs_digest": f"{seed}/{check}/{case}",
            "lhs": lhs, "rhs": rhs, "tolerance": tolerance,
            "pass": lhs <= rhs + tolerance,
        })

    for case in range(count):
        d = 2 + rng.below(d_max - 1) if d_max > 2 else 2
        f = _random_bounded(p, n, rng)
        g = _random_bounded(p, n, rng)

        # (i) triangle
        rec("triangle", case,
            gowers_norm(f + g, d, budget=budget),
            gowers_norm(f, d, budget=budget) + gowers_norm(g, d, budget=budget), tol)
        # homogeneity edge: ||2g|| = 2||g||
        two_g = g.scale(2.0)
        rec("triangle-homogeneity", case,
            abs(gowers_norm(two_g, d) - 2 * gowers_norm(g, d)), 0.0, 1e-10)

        # (ii) monotonicity along d = 1..d_max
        norms = [gowers_norm(f, dd, budget=budget) for dd in range(1, d_max + 1)]
        for dd in range(d_max - 1):
            rec("monotonicity", case * d_max + dd, norms[dd], norms[dd + 1], tol)

        # (iii) L^q bound with q = 2^d/(d+1)
        q = (1 << d) / (d + 1)
        lq = float(np.mean(np.abs(f.values) ** q) ** (1 / q))
        rec("lq-bound", case, norms[d - 1], lq, tol)

        # (iv) first Cauchy-Schwarz: product over the 2^d cube vertices
        fs = [_random_bounded(p, n, rng) for _ in range(1 << d)]
        lhs = abs(_cube_product([fo.values for fo in fs], p, n))
        rhs = 1.0
        for fo in fs:
            rhs *= gowers_norm(fo, d, budget=budget)
        rec("cauchy-schwarz-1", case, lhs, rhs, tol)

        # (v) second Cauchy-Schwarz: weights independent of one variable each
        lhs = _csg2_lhs(f, d, rng)
        rec("cauchy-schwarz-2", case, lhs, gowers_norm(f, d, budget=budget), tol)

        # (vi) modulation invariance by a degree <= d-1 phase
        P = _random_poly(p, n, d - 1, rng)
        rec("modulation", case,
            abs(gowers_norm(f.modulate(P), d) - gowers_norm(f, d)), 0.0, 1e-10)

    return records


def _csg2_lhs(f: BoundedFunction, d: int, rng: SplitMix64) -> float:
    """|E_{x_1..x_d} f(x_1+...+x_d) prod_j F_j| with each F_j a random
    1-bounded weight not reading x_j."""
    p, n = f.p, f.n
    sp = space(p, n)
    N = sp.size
    weights = []
    for _ in range(d):
        w = np.array([rng.unit() * cmath.exp(2j * cmath.pi * rng.unit())
                      for _ in range(N ** (d - 1))])
        weights.append(w.reshape((N,) * (d - 1)))
    axes_idx = []
    for t in range(d):
        shape = [1] * d
        shape[t] = N
        axes_idx.append(np.arange(N, dtype=np.int64).reshape(shape))
    total_idx = axes_idx[0]
    for t in range(1, d):
        total_idx = sp.add_indices(total_idx, axes_idx[t])
    total = f.values[total_idx].astype(np.complex128)
    for j in range(d):
        shape = [N] * d
        shape[j] = 1
        other = [ax for ax in range(d) if ax != j]
        w = weights[j].reshape([N if ax in other else 1 for ax in range(d)])
        total = total * w
    return abs(complex(total.mean()))
