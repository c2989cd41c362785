"""Filtered abelian groups, Host-Kra cube groups, polynomial maps between
filtered groups, and exact equidistribution reports.

Groups are finite products of cyclic groups; filtrations are nested chains
of subgroups (the commutator condition is automatic in the abelian case).
A k-cube is a 2^k-tuple indexed by omega in {0,1}^k; membership in HK^k is
characterised either by Taylor coefficients g_J in G_|J| or by alternating
sums over faces landing in the filtration.  Elements are packed into
integer codes, and the one Yates kernel over the subset lattice of {0,1}^k
(`_subset_codes`) lives here: `hk_taylor` and `taylor_expand` are one-row
Moebius and zeta passes of it, and `cubescan` runs it over many cubes.
`is_polynomial_map(phi_codes, H, G)` checks the derivative criterion for a
code table level by level in numpy, subtracting codes by the kernel's
digit and residue lookups.  `equidistribution_report` histograms a map
into a product of cyclic p-groups with one bincount and reads every
character's exact sum from one (characters, p^K) count array.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ExactExpectation, check_budget, json_int

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
        self._hash = hash((self.orders, tuple(self.levels)))

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

    @classmethod
    def from_json(cls, obj: dict) -> "FilteredAbelianGroup":
        return cls(json_int(obj, "cyclic_orders"), levels=[
            [tuple(g) for g in lv] for lv in json_int(obj, "filtration")])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FilteredAbelianGroup):
            return NotImplemented
        return (self.orders, self.levels) == (other.orders, other.levels)

    def __hash__(self) -> int:
        return self._hash

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubePoint):
            return NotImplemented
        return (self.k, self.entries) == (other.k, other.entries)

    def __hash__(self) -> int:
        return hash((self.k, self.entries))


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


def _cube_row(G: FilteredAbelianGroup, entries) -> np.ndarray:
    """One row of codes; G.reduce rejects a wrong coordinate count."""
    return np.array([[element_code(G, G.reduce(e)) for e in entries]])


def hk_taylor(g: CubePoint, G: FilteredAbelianGroup):
    """Taylor coefficients g_J with g_omega = sum_{J subset omega} g_J (a
    one-row Moebius pass of _subset_codes); unique by Moebius inversion.

    Returns (coefficients dict J-mask -> element, None) on success, else
    (None, the first J-mask whose g_J is outside G_|J|)."""
    coeffs = _subset_table(_cube_row(G, g.entries), G, "moebius")[0]
    inside = _member_tables(G, g.k)[_pass_tables(G, g.k, "moebius")[2], coeffs]
    if not inside.all():
        return None, int(np.argmin(inside))
    return {J: code_element(G, int(c)) for J, c in enumerate(coeffs)}, None


def taylor_expand(k: int, coeffs: dict[int, Element],
                  G: FilteredAbelianGroup) -> CubePoint:
    """The cube sum_{J subset omega} g_J (a one-row zeta pass of
    _subset_codes); g_J = 0 where coeffs has no J."""
    row = _cube_row(G, [coeffs.get(J, G.zero) for J in range(1 << k)])
    return CubePoint(k, [code_element(G, int(c))
                         for c in _subset_table(row, G, "zeta")[0]])


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
    """Read-only (k+1, |G|) booleans, row i marking G_i; cached per G, k.
    G hashes by (orders, levels), all it reads, so equal groups share it."""
    tab = np.zeros((k + 1, G.size), dtype=bool)
    for i in range(k + 1):
        tab[i, [element_code(G, g) for g in G.level(i)]] = True
    tab.flags.writeable = False
    return tab


def _sub_codes(G: FilteredAbelianGroup, a, b) -> np.ndarray:
    """Codes of a - b for broadcast arrays of codes: the digit lookup of
    _pass_tables(G, 0, ...) splits both, and its residue lookup reduces each
    digit difference (a negative one indexes from the end)."""
    digit, residue, _ = _pass_tables(G, 0, "moebius")
    return sum(residue[t][digit[t][a] - digit[t][b]] for t in range(len(digit)))


_PASS_BLOCK = 1 << 16  # face sums or vertices _subset_codes holds at once


@lru_cache(maxsize=64)
def _pass_tables(G: FilteredAbelianGroup, k: int, kind: str):
    """Read-only lookups for _subset_codes: digit[t, c] is digit t of code c,
    residue[t, s] is (s mod o_t) * radix_t for -|G| 2^k <= s < |G| 2^k (s < 0
    indexes from the end), level[f] is the free-axis count of output f;
    cached per G by value, like _member_tables and cubescan._cube_codes."""
    factors = G.orders or (1,)  # the trivial group as one factor of order 1
    orders = np.array(factors, dtype=np.int64).reshape(-1, 1)
    radix = np.cumprod((1,) + factors)[:-1].reshape(-1, 1)
    base = 3 if kind == "faces" else 2
    tables = (np.arange(G.size) // radix % orders,
              np.arange(G.size << k) % orders * radix,
              (np.indices((base,) * k) == base - 1).sum(axis=0).reshape(-1))
    for tab in tables:
        tab.flags.writeable = False
    return tables


def _subset_codes(tuples: np.ndarray, G: FilteredAbelianGroup, kind: str):
    """k per-axis passes (Yates) over vertex-major digit planes, one per
    cyclic factor, of the rows of an (M, 2^k) code array.  Each pass maps
    (a0, a1) on one axis to (a0, a1, a1 - a0) for "faces" (all 3^k face
    sums), (a0, a1 - a0) for "moebius" (the Taylor coefficients) or
    (a0, a0 + a1) for "zeta" (the Taylor expansion).  Sums are reduced mod
    the orders once, at the end, by a lookup, which is faster than %.
    Yields (rows, (F, len(rows)) codes), at most _PASS_BLOCK at a time."""
    k = tuples.shape[1].bit_length() - 1
    digit, residue, level = _pass_tables(G, k, kind)
    r, size = len(digit), len(level)
    step = max(1, _PASS_BLOCK // size)
    for lo in range(0, len(tuples), step):
        rows = slice(lo, lo + step)
        block = np.ascontiguousarray(tuples[rows].T)
        planes = np.take(digit, block, axis=1).reshape(r, *(2,) * k, -1)
        for ax in range(1, k + 1):
            cut = (slice(None),) * ax
            a0, a1 = planes[cut + (slice(0, 1),)], planes[cut + (slice(1, 2),)]
            if kind == "faces":
                planes = np.concatenate((planes, a1 - a0), axis=ax)
            else:
                (np.subtract if kind == "moebius" else np.add)(a1, a0, out=a1)
        yield rows, sum(residue[t][planes[t].reshape(size, -1)] for t in range(r))


def _subset_table(tuples: np.ndarray, G: FilteredAbelianGroup,
                  kind: str) -> np.ndarray:
    """Every output of _subset_codes as one (M, F) code array; for "zeta"
    and "moebius" column J is vertex or coefficient J of row m's cube."""
    k = tuples.shape[1].bit_length() - 1
    out = np.empty((len(tuples), len(_pass_tables(G, k, kind)[2])), np.int64)
    for rows, codes in _subset_codes(tuples, G, kind):
        out[rows] = codes.T
    return out


# ---------------------------------------------------------------------------
# polynomial maps

_FRONTIER_BLOCK = 1 << 20  # table entries is_polynomial_map holds at once


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
    blocks of at most _FRONTIER_BLOCK entries: one lookup tests a block, a
    gather and a lookup subtraction derive its children.  Blocks are taken
    last in, first out, so only the parents on one path are held at once.
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
    step = max(1, _FRONTIER_BLOCK // H.size)
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
