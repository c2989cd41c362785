"""Filtered abelian groups, Host-Kra cube groups, polynomial maps between
filtered groups, and exact equidistribution reports.

Groups are finite products of cyclic groups; filtrations are nested chains
of subgroups (the commutator condition is automatic in the abelian case).
A k-cube is a 2^k-tuple indexed by omega in {0,1}^k; membership in HK^k is
characterised either by Taylor coefficients g_J in G_|J| or by alternating
sums over faces landing in the filtration.  This module solves one cube for
its Taylor coefficients (`hk_taylor`, `taylor_expand`), packs elements into
integer codes, and checks the derivative criterion for a map given as a
code table (`is_polynomial_map(phi_codes, H, G)`) level by level in numpy;
the face criterion, cube enumeration and cube preservation live in
`cubescan`, vectorised over many cubes at once, and the two criteria are
cross-checked there.  `equidistribution_report` histograms a map into a
product of cyclic p-groups with one bincount and reads every character's
exact sum from one (characters, p^K) count array built from that histogram.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ExactExpectation, check_budget

Element = tuple[int, ...]


class FilteredAbelianGroup:
    """A product of cyclic groups with a nested filtration G_0 >= G_1 >= ..."""

    def __init__(self, orders: Sequence[int],
                 levels: Sequence[Iterable[Element]] | None = None,
                 generators: Sequence[Iterable[Element]] | None = None):
        self.orders = tuple(int(o) for o in orders)
        if any(o < 1 for o in self.orders):
            raise ValueError("cyclic orders must be positive")
        if levels is None and generators is None:
            raise ValueError("need filtration levels or generator sets")
        self.generators: list[tuple[Element, ...]] = []
        if generators is not None:
            levels = []
            for gens in generators:
                gens = [self.reduce(g) for g in gens]
                self.generators.append(tuple(gens))
                levels.append(self.span(gens))
        else:
            levels = [frozenset(self.reduce(g) for g in lv) for lv in levels]
            self.generators = [tuple(sorted(lv)) for lv in levels]
        self.levels: list[frozenset[Element]] = [frozenset(lv) for lv in levels]
        prev = frozenset(self.elements())
        for i, lv in enumerate(self.levels):
            if not lv <= prev:
                raise ValueError(f"filtration not nested at level {i}")
            if self.zero not in lv:
                raise ValueError(f"level {i} is not a subgroup (missing 0)")
            prev = lv

    # -- group structure

    @property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    @property
    def size(self) -> int:
        out = 1
        for o in self.orders:
            out *= o
        return out

    def reduce(self, g: Sequence[int]) -> Element:
        if len(g) != len(self.orders):
            raise ValueError("wrong coordinate count")
        return tuple(int(x) % o for x, o in zip(g, self.orders))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def scale(self, n: int, a: Element) -> Element:
        return tuple((n * x) % o for x, o in zip(a, self.orders))

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(o) for o in self.orders))

    def span(self, gens: Sequence[Element]) -> frozenset[Element]:
        out = {self.zero}
        frontier = [self.zero]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in out:
                    out.add(nxt)
                    frontier.append(nxt)
        return frozenset(out)

    # -- filtration access

    @property
    def degree(self) -> int:
        d = len(self.levels) - 1
        while d >= 0 and self.levels[d] == frozenset({self.zero}):
            d -= 1
        return max(d, 0)

    def level(self, i: int) -> frozenset[Element]:
        if i < 0:
            raise ValueError("negative filtration index")
        if i < len(self.levels):
            return self.levels[i]
        return frozenset({self.zero})

    def level_generators(self, i: int) -> tuple[Element, ...]:
        if i < len(self.generators):
            return self.generators[i]
        return ()

    @classmethod
    def maximal(cls, orders: Sequence[int], k: int) -> "FilteredAbelianGroup":
        """The maximal degree <= k filtration: G_i = G for i <= k."""
        full = list(itertools.product(*(range(o) for o in orders)))
        return cls(orders, levels=[full] * (k + 1))

    @classmethod
    def cyclic_chain(cls, order: int, subgroup_orders: Sequence[int]
                     ) -> "FilteredAbelianGroup":
        """Z/order with levels the subgroups of the given orders."""
        levels = []
        for so in subgroup_orders:
            if order % so:
                raise ValueError("subgroup order must divide the group order")
            step = order // so
            levels.append([(x,) for x in range(0, order, step)])
        return cls((order,), levels=levels)

    def to_json(self) -> dict:
        return {
            "cyclic_orders": list(self.orders),
            "filtration": [[list(g) for g in sorted(lv)] for lv in self.levels],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FilteredAbelianGroup":
        return cls(obj["cyclic_orders"],
                   levels=[[tuple(g) for g in lv] for lv in obj["filtration"]])

    def __repr__(self) -> str:
        return f"FilteredAbelianGroup(orders={self.orders}, degree<={self.degree})"


class CubePoint:
    """A 2^k-tuple of group elements indexed by omega in {0,1}^k
    (omega_1 is the least significant bit of the index)."""

    __slots__ = ("k", "entries")

    def __init__(self, k: int, entries: Sequence[Element]):
        if len(entries) != 1 << k:
            raise ValueError(f"need 2^{k} entries")
        self.k = k
        self.entries = tuple(tuple(e) for e in entries)

    def __getitem__(self, mask: int) -> Element:
        return self.entries[mask]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubePoint):
            return NotImplemented
        return (self.k, self.entries) == (other.k, other.entries)

    def __hash__(self) -> int:
        return hash((self.k, self.entries))

    def to_json(self) -> list:
        return [list(e) for e in self.entries]

    @classmethod
    def from_json(cls, k: int, obj: list) -> "CubePoint":
        return cls(k, [tuple(e) for e in obj])


@lru_cache(maxsize=64)
def _faces(k: int) -> list[tuple[int, tuple[int, ...]]]:
    """All faces of {0,1}^k as (dimension, vertex masks)."""
    out = []
    for free in range(1 << k):
        dim = bin(free).count("1")
        fixed_positions = [j for j in range(k) if not free >> j & 1]
        free_positions = [j for j in range(k) if free >> j & 1]
        for assign in range(1 << len(fixed_positions)):
            base = 0
            for t, j in enumerate(fixed_positions):
                if assign >> t & 1:
                    base |= 1 << j
            masks = []
            for sub in range(1 << dim):
                m = base
                for t, j in enumerate(free_positions):
                    if sub >> t & 1:
                        m |= 1 << j
                masks.append(m)
            out.append((dim, tuple(masks)))
    return out


def hk_taylor(g: CubePoint, G: FilteredAbelianGroup):
    """Taylor coefficients g_J with g_omega = sum_{J subset omega} g_J.

    Returns (coefficients dict J-mask -> element, None) on success, else
    (None, offending J-mask).  Coefficients are unique (Moebius inversion).
    """
    k = g.k
    coeffs: dict[int, Element] = {}
    for J in range(1 << k):
        total = G.zero
        sub = J
        while True:
            sign = (bin(J).count("1") - bin(sub).count("1")) % 2
            term = g[sub] if sign == 0 else G.neg(g[sub])
            total = G.add(total, term)
            if sub == 0:
                break
            sub = (sub - 1) & J
        coeffs[J] = total
    for J, val in coeffs.items():
        if val not in G.level(bin(J).count("1")):
            return None, J
    return coeffs, None


def taylor_expand(k: int, coeffs: dict[int, Element],
                  G: FilteredAbelianGroup) -> CubePoint:
    entries = []
    for omega in range(1 << k):
        total = G.zero
        sub = omega
        while True:
            total = G.add(total, coeffs.get(sub, G.zero))
            if sub == 0:
                break
            sub = (sub - 1) & omega
        entries.append(total)
    return CubePoint(k, entries)


def hk_size(G: FilteredAbelianGroup, k: int) -> int:
    out = 1
    for J in range(1 << k):
        out *= len(G.level(bin(J).count("1")))
    return out


def element_code(G: FilteredAbelianGroup, g) -> int:
    """g as the mixed-radix integer sum_t g_t * (o_1 ... o_(t-1))."""
    code = 0
    radix = 1
    for x, o in zip(g, G.orders):
        code += (x % o) * radix
        radix *= o
    return code


def code_element(G: FilteredAbelianGroup, code: int):
    out = []
    for o in G.orders:
        out.append(code % o)
        code //= o
    return tuple(out)


@lru_cache(maxsize=64)
def _member_tables(G: FilteredAbelianGroup, k: int) -> np.ndarray:
    """Read-only (k+1, |G|) booleans, row i marking G_i; cached per G, k."""
    tab = np.zeros((k + 1, G.size), dtype=bool)
    for i in range(k + 1):
        tab[i, [element_code(G, g) for g in G.level(i)]] = True
    tab.flags.writeable = False
    return tab


def _sub_codes(G: FilteredAbelianGroup, a, b) -> np.ndarray:
    """Codes of a - b for broadcast arrays of codes, digit by digit."""
    out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), np.int64)
    radix = 1
    for o in G.orders:
        out = out + (a // radix - b // radix) % o * radix
        radix *= o
    return out


# ---------------------------------------------------------------------------
# polynomial maps

_BLOCK = 1 << 20  # table entries is_polynomial_map materialises at once


def _check_code_table(phi_codes, H: FilteredAbelianGroup,
                      G: FilteredAbelianGroup) -> np.ndarray:
    """phi_codes as an int64 table of one G code per H code, or ValueError."""
    phi_codes = np.asarray(phi_codes, dtype=np.int64)
    if phi_codes.shape != (H.size,) or not (
            (phi_codes >= 0) & (phi_codes < G.size)).all():
        raise ValueError("phi_codes must map every H code to a G code")
    return phi_codes


def is_polynomial_map(phi_codes: np.ndarray, H: FilteredAbelianGroup,
                      G: FilteredAbelianGroup,
                      use_generators: bool = True) -> bool:
    """Derivative criterion for the map with code table phi_codes (H code
    -> G code): every iterated difference along directions from
    H_(i_1), ..., H_(i_m) lands in G_(i_1+...+i_m), checked up to total
    degree deg(G)+1 (beyond which containment in {0} forces vanishing).

    Derivatives commute, so a node is a derivative table, its first allowed
    direction and its total degree.  The frontier goes level by level in
    blocks of at most _BLOCK entries: one lookup tests a block, one gather
    derives all its allowed children.  Blocks are taken last in, first out,
    so only the parents on one path are held at once.
    """
    phi_codes = _check_code_table(phi_codes, H, G)
    max_total = G.degree + 1
    dirs = [(i, h) for i in range(1, max_total + 1)
            for h in (H.level_generators(i) if use_generators
                      else tuple(H.level(i)))
            if h != H.zero]
    degs = np.array([i for i, _ in dirs], dtype=np.int64)
    # shift[t, x] is the code of x + h_t = x - (-h_t)
    neg = np.array([element_code(H, H.neg(h)) for _, h in dirs], np.int64)
    shift = _sub_codes(H, np.arange(H.size), neg[:, None])
    member = _member_tables(G, max_total)
    step = max(1, _BLOCK // H.size)
    tabs = phi_codes[None]
    start = total = np.zeros(1, dtype=np.int64)
    pending = []
    while True:
        if not member[total[:, None], tabs].all():
            return False
        rows, ts = np.nonzero((np.arange(len(dirs)) >= start[:, None])
                              & (total[:, None] + degs <= max_total))
        pending += [(tabs, total, rows[lo:lo + step], ts[lo:lo + step])
                    for lo in range(0, len(rows), step)]
        if not pending:
            return True
        parent, ptotal, rows, start = pending.pop()
        parent = parent[rows]
        tabs = _sub_codes(G, np.take_along_axis(parent, shift[start], axis=1),
                          parent)
        total = ptotal[rows] + degs[start]


# ---------------------------------------------------------------------------
# equidistribution


# equidistribution_report refuses a (|B|, p^K) histogram and character
# count array past this many entries, and fills the count array in blocks
# of characters whose residue arrays stay under it
_EQUIDIST_CAP = 1 << 22


def _prime_power(orders: tuple[int, ...]) -> tuple[int, int]:
    """(p, K) with every order a power of the one prime p and p^K the
    largest; (1, 0) when every order is 1."""
    top = max(orders, default=1)
    p = next((q for q in range(2, math.isqrt(top) + 1) if top % q == 0), top)
    K = 0
    while p**K < top:
        K += 1
    if p**K != top or any(top % o for o in orders):
        raise ValueError("orders must be powers of a single prime")
    return p, K


def equidistribution_report(values: np.ndarray | Sequence[Element],
                            orders: Sequence[int]) -> dict:
    """Histogram deviations and character biases of a finite map into a
    product of cyclic p-groups, all exact where the algebra allows.

    values is an (A, r) integer array or a list of A r-tuples, reduced mod
    the orders.  Reports max_b | |{f=b}|/|A| - 1/|B| | (exact rational) and
    the largest nontrivial squared character bias; bias exactly zero forces
    an exactly uniform histogram and the deviation never exceeds the
    largest bias.
    """
    orders = tuple(int(o) for o in orders)
    if any(o < 1 for o in orders):
        raise ValueError("cyclic orders must be positive")
    p, K = _prime_power(orders)
    total = len(values)
    if total == 0:
        raise ValueError("empty domain")
    size_B = math.prod(orders)
    check_budget(size_B * p**K, _EQUIDIST_CAP, "equidistribution_report")
    raw = np.asarray(values)
    if raw.ndim != 2 or raw.shape[1] != len(orders):
        raise ValueError("wrong coordinate count")
    # floats would truncate and integers past 64 bits come as objects; an
    # unsigned array is reduced as unsigned so that no value wraps
    if raw.size and raw.dtype.kind not in "iu":
        raise ValueError("values must be integers within int64 or uint64")
    wide = np.uint64 if raw.dtype.kind == "u" else np.int64
    vals = (raw.astype(wide) % np.array(orders, dtype=wide)).astype(np.int64)
    # codes with the first coordinate most significant, so that code order
    # is the lexicographic order of the elements
    strides = np.array([math.prod(orders[t + 1:]) for t in range(len(orders))],
                       dtype=np.int64)
    hist = np.bincount(vals @ strides, minlength=size_B)
    support = np.flatnonzero(hist)
    digits = support[:, None] // strides % orders
    report = {
        "domain_size": total,
        "histogram": {"/".join(map(str, b)): c for b, c in
                      zip(digits.tolist(), hist[support].tolist())},
        "max_deviation": Fraction(int(np.abs(hist * size_B - total).max()),
                                  total * size_B),
    }
    # counts[xi - 1, r] = |{a : xi . f(a) = r / p^K}| for every character
    # xi != 0, from the residues xi . b of the histogram's support
    M = p**K
    scaled = (digits * (M // np.array(orders, dtype=np.int64))).T
    counts = np.zeros((size_B - 1, M), dtype=np.int64)
    step = _EQUIDIST_CAP // (len(support) + len(orders))
    for lo in range(1, size_B, step):
        chars = np.arange(lo, min(lo + step, size_B))[:, None] // strides % orders
        np.add.at(counts[lo - 1:lo - 1 + len(chars)],
                  (np.arange(len(chars))[:, None], chars @ scaled % M),
                  hist[support])
    z = ExactExpectation(p, K, counts, total)
    sq = z.abs_sq()
    report.update(
        max_bias_sq=Fraction(int(sq.rational_part().max(initial=0)), sq.total)
        if sq.is_rational().all() else None,
        max_bias=float(np.abs(z.as_complex()).max(initial=0.0)),
        bias_zero=bool(z.is_zero().all()))
    report["weyl_consistent"] = (
        (not report["bias_zero"] or report["max_deviation"] == 0)
        and float(report["max_deviation"]) <= report["max_bias"] + 1e-9
    )
    return report
