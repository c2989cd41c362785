"""Filtered abelian groups, Host-Kra cube groups, polynomial maps between
filtered groups, and exact equidistribution reports.

Groups are finite products of cyclic groups; filtrations are nested chains
of subgroups (the commutator condition is automatic in the abelian case).
Elements are mixed-radix integer codes, and each level is stored once, as a
row of the group's membership table; its generators are the rows of its
echelon basis.  A k-cube is a row of 2^k codes indexed by omega in
{0,1}^k; membership in HK^k is characterised either by Taylor coefficients
g_J in G_|J| or by alternating sums over faces landing in the filtration.
The one Yates kernel over the subset lattice of {0,1}^k (`_subset_codes`)
lives here: `hk_taylor` is a one-row Moebius pass of it, and `cubescan`
runs it over many cubes.
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
from typing import Iterable, Sequence

import numpy as np

from .core import SPACE_CAP, ExactExpectation, check_budget, json_int

Element = tuple[int, ...]


class FilteredAbelianGroup:
    """A product of cyclic groups with a nested filtration G_0 >= G_1 >= ...

    Elements are element_code integers.  The filtration is stored once, as
    the read-only (levels, |G|) table member, whose row i marks the codes of
    G_i.  Each level's echelon basis (_echelon_insert), kept as the tuple
    rows of bases[i], gives its generators, and its index |G| / prod(pivots)
    is the order of the subgroup that the level generates, so a level of any
    other size is not a subgroup."""

    def __init__(self, orders: Sequence[int], levels: Sequence[Iterable[Element]]):
        self.orders = tuple(int(o) for o in orders)
        if any(o < 1 for o in self.orders):
            raise ValueError("cyclic orders must be positive")
        self.size = math.prod(self.orders)
        check_budget(self.size, SPACE_CAP, "FilteredAbelianGroup")
        member = np.zeros((len(levels), self.size), dtype=bool)
        for i, lv in enumerate(levels):
            member[i, [element_code(self, g) for g in lv]] = True
        member.flags.writeable = False
        self.member = member
        bases = []
        mods = list(self.orders)
        prev = np.ones(self.size, dtype=bool)
        for i, row in enumerate(member):
            if (row & ~prev).any():
                raise ValueError(f"filtration not nested at level {i}")
            prev = row
            basis = _diagonal(mods)
            _echelon_insert(basis, [code_element(self, int(c))
                                    for c in np.flatnonzero(row)], mods)
            pivots = [b[c] for c, b in enumerate(basis)]
            if self.size // math.prod(pivots) != row.sum():
                raise ValueError(f"level {i} is not a subgroup")
            bases.append(tuple(map(tuple, basis)))
        self.bases = tuple(bases)
        # the last i with G_i != {0}, or 0
        nontrivial = np.flatnonzero(member.sum(axis=1) > 1)
        self.degree = int(nontrivial[-1]) if len(nontrivial) else 0
        self._key = (self.orders, member.tobytes())

    def level(self, i: int) -> np.ndarray:
        """The codes of G_i in increasing order; {0} past the last level."""
        if i < 0:
            raise ValueError("negative filtration index")
        return np.flatnonzero(_member_tables(self, i)[i])

    def level_generators(self, i: int) -> tuple[int, ...]:
        """The codes of the rows of G_i's echelon basis whose pivot is not
        the cyclic order; () past the last level."""
        if i >= len(self.bases):
            return ()
        return tuple(element_code(self, b) for c, b in enumerate(self.bases[i])
                     if b[c] != self.orders[c])

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
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FilteredAbelianGroup(orders={self.orders}, degree<={self.degree})"


def _diagonal(mods: list[int]) -> list[list[int]]:
    """The echelon basis of mods[c] * e_c, the lattice of 0."""
    return [[m if j == c else 0 for j in range(len(mods))]
            for c, m in enumerate(mods)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _echelon_insert(basis: list[list[int]], rows, mods: list[int]) -> None:
    """Add rows to the lattice spanned by an upper-triangular basis.

    basis[c] has its pivot at column c and the lattice contains mods[c] * e_c,
    so every entry is kept reduced modulo its column's mod (Hermite normal
    form modulo D, Cohen section 2.4).  Each row is cleared column by column
    with one extended gcd against the pivot row.
    """
    for v in rows:
        v = [x % m for x, m in zip(v, mods)]
        for c in range(len(mods)):
            if v[c] == 0:
                continue
            b = basis[c]
            g, s, t = _xgcd(b[c], v[c])
            u, w = b[c] // g, v[c] // g
            basis[c] = [(s * x + t * y) % m for x, y, m in zip(b, v, mods)]
            basis[c][c] = g
            v = [(u * y - w * x) % m for x, y, m in zip(b, v, mods)]


def hk_taylor(row, G: FilteredAbelianGroup):
    """Taylor coefficients of the k-cube row, whose 2^k codes are its
    vertices omega in {0,1}^k (omega_1 the least significant bit of the
    index): the row of g_J with g_omega = sum_{J subset omega} g_J, by a
    one-row Moebius pass of _subset_codes, unique by Moebius inversion.

    Returns (coefficient row, None) when every g_J lies in G_|J|, else
    (None, the first J whose g_J does not).  A row that is not 2^k codes of
    G raises ValueError."""
    k = max(np.size(row), 1).bit_length() - 1
    row = _check_codes(row, G, (1 << k,), "a k-cube is a row of 2^k codes of G")
    coeffs = _subset_table(row[None], G, "moebius")[0]
    inside = _member_tables(G, k)[_pass_tables(G, k, "moebius")[2], coeffs]
    if not inside.all():
        return None, int(np.argmin(inside))
    return coeffs, None


@lru_cache(maxsize=64)
def hk_size(G: FilteredAbelianGroup, k: int) -> int:
    """prod_J |G_|J||, the number of k-cubes; cached per G and k by value,
    like _member_tables."""
    counts = [int(c) for c in _member_tables(G, k).sum(axis=1)]
    return math.prod(counts[i] ** math.comb(k, i) for i in range(k + 1))


def element_code(G: FilteredAbelianGroup, g) -> int:
    """g as the mixed-radix integer sum_t (g_t mod o_t) * (o_1 ... o_(t-1));
    a g with the wrong coordinate count raises ValueError."""
    if len(g) != len(G.orders):
        raise ValueError("wrong coordinate count")
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
    """Read-only (k+1, |G|) booleans, row i marking G_i: G.member's rows,
    then {0}; cached per G and k.  G hashes by (orders, member), all it
    reads, so equal groups share it."""
    tab = np.zeros((k + 1, G.size), dtype=bool)
    tab[:, 0] = True
    top = min(k + 1, len(G.member))
    tab[:top] = G.member[:top]
    tab.flags.writeable = False
    return tab


def _sub_codes(G: FilteredAbelianGroup, a, b) -> np.ndarray:
    """Codes of a - b for broadcast arrays of codes: the digit lookup of
    _pass_tables(G, 0, ...) splits both, and its residue lookup reduces each
    digit difference (a negative one indexes from the end)."""
    digit, residue, _ = _pass_tables(G, 0, "moebius")
    codes = residue[0][digit[0][a] - digit[0][b]]
    for t in range(1, len(digit)):
        codes += residue[t][digit[t][a] - digit[t][b]]
    return codes


_PASS_BLOCK = 1 << 16  # face sums or vertices _subset_codes holds at once


@lru_cache(maxsize=64)
def _pass_tables(G: FilteredAbelianGroup, k: int, kind: str):
    """Read-only lookups for _subset_codes: digit[t, c] is digit t of code c,
    residue[t, s] is (s mod o_t) * radix_t for -|G| 2^k <= s < |G| 2^k (s < 0
    indexes from the end), level[f] is the free-axis count of output f;
    cached per G by value, like _member_tables and cubescan._cube_codes.
    A pass whose one row has more than SPACE_CAP outputs, or whose residue
    table has more than SPACE_CAP entries, raises BudgetExceeded first."""
    factors = G.orders or (1,)  # the trivial group as one factor of order 1
    base = 3 if kind == "faces" else 2
    check_budget(len(factors) * base**k, SPACE_CAP, "_subset_codes")
    check_budget(len(factors) * (G.size << k), SPACE_CAP, "_subset_codes")
    orders = np.array(factors, dtype=np.int64).reshape(-1, 1)
    radix = np.cumprod((1,) + factors)[:-1].reshape(-1, 1)
    level = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        level = np.add.outer(np.arange(base) == base - 1, level).reshape(-1)
    tables = (np.arange(G.size) // radix % orders,
              np.arange(G.size << k) % orders * radix, level)
    for tab in tables:
        tab.flags.writeable = False
    return tables


def _subset_codes(tuples: np.ndarray, G: FilteredAbelianGroup, kind: str,
                  outputs=slice(None)):
    """k per-axis passes (Yates) over vertex-major digit planes, one per
    cyclic factor, of the rows of an (M, 2^k) code array.  Each pass maps
    (a0, a1) on one axis to (a0, a1, a1 - a0) for "faces" (all 3^k face
    sums), (a0, a1 - a0) for "moebius" (the Taylor coefficients) or
    (a0, a0 + a1) for "zeta" (the Taylor expansion).  The face pass fills
    one (r, 3, ..., 3, M) array whose {0,1}^k corner holds the vertices:
    the pass on axis a writes index 2 over the whole extent of the axes
    before a and the {0,1} extent of those after it, so it reads only
    entries already written.  Sums are reduced mod the orders once, at the
    end, by a lookup, which is faster than %; np.take's fresh copy keeps
    the in-place passes off the caller's rows; only the outputs selected
    by outputs (an index array or a slice) are reduced.  Yields (rows,
    (selected, len(rows)) codes), at most _PASS_BLOCK at a time."""
    k = tuples.shape[1].bit_length() - 1
    digit, residue, level = _pass_tables(G, k, kind)
    r, size = len(digit), len(level)
    step = max(1, _PASS_BLOCK // size)
    for lo in range(0, len(tuples), step):
        rows = slice(lo, lo + step)
        block = np.ascontiguousarray(tuples[rows].T)
        planes = np.take(digit, block, axis=1).reshape(r, *(2,) * k, -1)
        if kind == "faces":
            vertices = planes
            planes = np.empty((r, *(3,) * k, block.shape[1]), dtype=np.int64)
            planes[(slice(None),) + (slice(0, 2),) * k] = vertices
        for ax in range(1, k + 1):
            head, tail = (slice(None),) * ax, (slice(0, 2),) * (k - ax)
            a0, a1 = planes[head + (0,) + tail], planes[head + (1,) + tail]
            if kind == "faces":
                np.subtract(a1, a0, out=planes[head + (2,) + tail])
            else:
                (np.subtract if kind == "moebius" else np.add)(a1, a0, out=a1)
        codes = residue[0][planes[0].reshape(size, -1)[outputs]]
        for t in range(1, r):
            codes += residue[t][planes[t].reshape(size, -1)[outputs]]
        yield rows, codes


def _subset_table(tuples: np.ndarray, G: FilteredAbelianGroup,
                  kind: str) -> np.ndarray:
    """Every output of _subset_codes as one (M, F) code array; for "zeta"
    and "moebius" column J is vertex or coefficient J of row m's cube."""
    k = tuples.shape[1].bit_length() - 1
    out = np.empty((len(tuples), len(_pass_tables(G, k, kind)[2])), np.int64)
    for rows, codes in _subset_codes(tuples, G, kind):
        out[rows] = codes.T
    return out


def _check_codes(codes, G: FilteredAbelianGroup, shape: tuple,
                 message: str = "phi_codes must map every H code to a G code",
                 range_message: str | None = None) -> np.ndarray:
    """codes as int64 codes of G in the given shape, else ValueError: float,
    bool and Python-integer arrays are refused, not truncated, and one min
    and one max check [0, |G|) before the cast, so no uint64 code wraps."""
    codes = np.asarray(codes)
    if codes.shape != shape or codes.dtype.kind not in "iu":
        raise ValueError(message)
    if codes.size and (codes.min() < 0 or codes.max() >= G.size):
        raise ValueError(range_message or message)
    return codes.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# polynomial maps

_FRONTIER_BLOCK = 1 << 20  # table entries is_polynomial_map holds at once


@lru_cache(maxsize=64)
def _directions(H: FilteredAbelianGroup, top: int, use_generators: bool):
    """Read-only (degrees, shift) of the nonzero directions h_t in H_i,
    i = 1..top, from the generators or every element: shift[t, x] is the
    code of x + h_t = x - (-h_t); cached per H by value, like
    _member_tables."""
    dirs = [(i, int(h)) for i in range(1, top + 1)
            for h in (H.level_generators(i) if use_generators else H.level(i))
            if h]
    degs = np.array([i for i, _ in dirs], dtype=np.int64)
    neg = _sub_codes(H, 0, np.array([h for _, h in dirs], dtype=np.int64))
    shift = _sub_codes(H, np.arange(H.size), neg[:, None])
    for tab in (degs, shift):
        tab.flags.writeable = False
    return degs, shift


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
    phi_codes = _check_codes(phi_codes, G, (H.size,))
    max_total = G.degree + 1
    degs, shift = _directions(H, max_total, use_generators)
    member = _member_tables(G, max_total)
    step = max(1, _FRONTIER_BLOCK // H.size)
    tabs = phi_codes[None]
    start = total = np.zeros(1, dtype=np.int64)
    pending = []
    while True:
        if not member[total[:, None], tabs].all():
            return False
        rows, ts = np.nonzero((np.arange(len(degs)) >= start[:, None])
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
    the orders, which json_int's rule reads (no bool, no float).  Reports
    max_b | |{f=b}|/|A| - 1/|B| | (exact rational) and the largest
    nontrivial squared character bias; bias exactly zero forces an exactly
    uniform histogram and the deviation never exceeds the largest bias.
    """
    orders = tuple(json_int({"orders": list(orders)}, "orders"))
    if any(o < 1 for o in orders):
        raise ValueError("cyclic orders must be positive")
    # |B| max(orders) is |B| p^K for valid orders; checked before the trial
    # division of _prime_power, which costs sqrt(max(orders))
    size_B = math.prod(orders)
    check_budget(size_B * max(orders, default=1), _EQUIDIST_CAP,
                 "equidistribution_report")
    p, K = _prime_power(orders)
    total = len(values)
    if total == 0:
        raise ValueError("empty domain")
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
