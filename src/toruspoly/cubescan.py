"""Vectorised cube criteria: the one implementation of the face criterion,
the Taylor criterion, cube enumeration and cube preservation.

Elements of a product of cyclic groups are packed into mixed-radix integer
codes, and whole populations of 2^k-tuples are checked with numpy; a single
cube (`hk_membership`) is a one-row call.  All three array kernels are k
per-axis passes over the subset lattice of {0,1}^k, as in Yates' algorithm:
(a0, a1) -> (a0, a1, a1 - a0) gives every face sum, (a0, a1 - a0) the
Taylor coefficients g_J, which are the sums over the lower faces
{omega subset J}, and (a0, a0 + a1) expands coefficients into vertices.
When the ambient tuple count is too large to scan, the face solution set is
counted exactly instead: it is the kernel of the face-sum homomorphism into
a product of quotients G/G_i, so its size is the ambient size divided by
the order of the image, and that order is an integer lattice index read
off the pivots of an echelon basis.  The count has no cap; the scan stays
as the exhaustive oracle for small groups."""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .core import check_budget
from .cubes import (CubePoint, FilteredAbelianGroup, _check_code_table, _faces,
                    _member_tables, code_element, element_code, hk_size)

# equivalence_scan enumerates at most SCAN_CAP tuples, at most _SCAN_CHUNK
# at a time (a power of |G|);
# enumerate_cube_codes caches arrays of at most _CACHED_CODES entries;
# _subset_codes materialises at most _BLOCK face sums (or vertices) at once
SCAN_CAP = 1 << 24
_SCAN_CHUNK = 1 << 18
_CACHED_CODES = 1 << 16
_BLOCK = 1 << 16


@lru_cache(maxsize=64)
def _pass_tables(G: FilteredAbelianGroup, k: int, kind: str):
    """Read-only lookups for _subset_codes: digit[t, c] is digit t of code c,
    residue[t, s] is (s mod o_t) * radix_t for -|G| 2^k <= s < |G| 2^k (s < 0
    indexes from the end), level[f] is the free-axis count of output f."""
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
    Yields (rows, (F, len(rows)) codes), at most _BLOCK codes at a time."""
    k = tuples.shape[1].bit_length() - 1
    digit, residue, level = _pass_tables(G, k, kind)
    r, size = len(digit), len(level)
    step = max(1, _BLOCK // size)
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


def _level_mask(tuples: np.ndarray, G: FilteredAbelianGroup, k: int,
                kind: str) -> np.ndarray:
    """Rows whose every output of _subset_codes lies in G_(free axes)."""
    offsets = _pass_tables(G, k, kind)[2][:, None] * G.size
    member = _member_tables(G, k).reshape(-1)
    mask = np.empty(len(tuples), dtype=bool)
    for rows, codes in _subset_codes(tuples, G, kind):
        mask[rows] = member[offsets + codes].all(axis=0)
    return mask


def face_member_mask(tuples: np.ndarray, G: FilteredAbelianGroup,
                     k: int) -> np.ndarray:
    """Which rows satisfy the face criterion: each dimension-i face has its
    alternating vertex sum in G_i.  The passes give each face sum up to a
    sign, which does not change membership of a subgroup."""
    return _level_mask(tuples, G, k, "faces")


def hk_membership(g: CubePoint, G: FilteredAbelianGroup) -> bool:
    """Face criterion for one cube (a one-row face_member_mask)."""
    row = np.array([[element_code(G, e) for e in g.entries]], dtype=np.int64)
    return bool(face_member_mask(row, G, g.k)[0])


def taylor_member_mask(tuples: np.ndarray, G: FilteredAbelianGroup,
                       k: int) -> np.ndarray:
    """Which rows have every Taylor coefficient g_J inside G_|J|; g_J is the
    face sum over the lower face {omega : omega subset J}."""
    return _level_mask(tuples, G, k, "moebius")


def equivalence_scan(G: FilteredAbelianGroup, k: int) -> dict:
    """Face criterion vs Taylor criterion over every tuple in G^(2^k).

    Returns {"tuples", "disagreements", "members"}; the scan is chunked and
    deterministic.  Raises BudgetExceeded past SCAN_CAP tuples.
    """
    total = G.size ** (1 << k)
    check_budget(total, SCAN_CAP, "equivalence_scan")
    disagreements = 0
    members = 0
    width = 1 << k
    # a chunk is |G|^m tuples, m >= 1 (more than _SCAN_CHUNK only at k = 0):
    # its low m vertices are decoded once per scan, its high ones are constant
    m = 1
    while m < width and G.size ** (m + 1) <= _SCAN_CHUNK:
        m += 1
    tuples = np.empty((G.size**m, width), dtype=np.int64)
    low = tuples[:, :m]
    np.floor_divide(np.arange(G.size**m)[:, None], G.size ** np.arange(m), out=low)
    low %= G.size
    for q in range(total // G.size**m):
        tuples[:, m:] = q // G.size ** np.arange(width - m) % G.size
        m_face = face_member_mask(tuples, G, k)
        m_taylor = taylor_member_mask(tuples, G, k)
        disagreements += int((m_face != m_taylor).sum())
        members += int(m_face.sum())
    return {"tuples": total, "disagreements": disagreements, "members": members}


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


def counted_equivalence(G: FilteredAbelianGroup, k: int) -> dict:
    """Exact equivalence check without scanning every tuple.

    Both criteria cut out subgroups of G^(2^k).  The Taylor set has exactly
    prod_J |G_|J|| elements (the parameterisation is injective), and every
    HK generator satisfies the face criterion, so Taylor subset-of face
    holds.  The face set is the kernel of the face-sum map phi from G^(2^k)
    to Q = prod_faces G/G_dim.  Writing G = Z^r/diag(orders), Q is Z^(rF)/L
    for the block lattice L spanned by the orders and each face's level
    generators, so |im phi| = |Q| / [Z^(rF) : L + phi(Z^(r 2^k))], and both
    factors are products of echelon pivots.  Equal cardinalities then force
    equality of the two sets.
    """
    taylor_count = hk_size(G, k)
    width = 1 << k
    r = len(G.orders)
    faces = _faces(k)

    # HK generators g^[face], g in G_codim, satisfy the face criterion
    gens = np.array([[element_code(G, g) if m in masks else 0 for m in range(width)]
                     for dim, masks in faces for g in G.level_generators(k - dim)],
                    dtype=np.int64).reshape(-1, width)
    if not face_member_mask(gens, G, k).all():
        return {"equal": False, "reason": "generator fails face test"}

    # L: per face, the echelon basis of G_dim + diag(orders) in Z^r
    orders = list(G.orders)
    blocks = []
    for dim in range(k + 1):
        block = [[o if j == t else 0 for j in range(r)] for t, o in enumerate(orders)]
        _echelon_insert(block, G.level_generators(dim), orders)
        blocks.append(block)
    basis = [[0] * (f * r) + row + [0] * ((len(faces) - f - 1) * r)
             for f, (dim, _) in enumerate(faces) for row in blocks[dim]]
    quotient_size = prod(row[c] for c, row in enumerate(basis))

    # phi(Z^(r 2^k)): the face sums of each unit vector at each vertex.  The
    # alternating signs are left out: negating the odd vertices is an
    # automorphism of G^(2^k), so it does not change the image.
    units = [[int(e in masks and j == t) for _, masks in faces for j in range(r)]
             for e in range(width) for t in range(r)]
    _echelon_insert(basis, units, orders * len(faces))

    image_size = quotient_size // prod(row[c] for c, row in enumerate(basis))
    face_count = G.size**width // image_size
    return {
        "equal": face_count == taylor_count,
        "taylor_count": taylor_count,
        "face_count": face_count,
        "image_size": image_size,
    }


def enumerate_cube_codes(G: FilteredAbelianGroup, k: int,
                         cap: int = 1 << 20) -> np.ndarray:
    """All k-cubes as a read-only (M, 2^k) array of element codes (Taylor
    parameterised), cached per group and k when small."""
    M = hk_size(G, k)
    check_budget(M, cap, "enumerate_cube_codes")
    small = M << k <= _CACHED_CODES
    return (_cube_codes if small else _cube_codes.__wrapped__)(G, k)


@lru_cache(maxsize=32)
def _cube_codes(G: FilteredAbelianGroup, k: int) -> np.ndarray:
    member = _member_tables(G, k)
    level_codes = [np.flatnonzero(member[i]) for i in _pass_tables(G, k, "zeta")[2]]
    combos = np.stack(
        [g.reshape(-1) for g in np.meshgrid(*level_codes, indexing="ij")], axis=1)
    out = np.empty(combos.shape, dtype=np.int64)
    for rows, codes in _subset_codes(combos, G, "zeta"):
        out[rows] = codes.T
    out.flags.writeable = False
    return out


def preserves_cubes_fast(phi_codes: np.ndarray, H: FilteredAbelianGroup,
                         G: FilteredAbelianGroup, k_max: int,
                         cap: int = 1 << 20):
    """Entrywise image of every H-cube is a G-cube, vectorised.

    phi_codes maps H element codes to G element codes.  Returns
    (preserved, counterexample CubePoint or None); a table that is not one
    G code per H code raises ValueError.
    """
    phi_codes = _check_code_table(phi_codes, H, G)
    for k in range(k_max + 1):
        cubes = enumerate_cube_codes(H, k, cap=cap)
        mask = face_member_mask(phi_codes[cubes], G, k)
        if not mask.all():
            bad = cubes[int(np.argmin(mask))]
            return False, CubePoint(k, [code_element(H, int(c)) for c in bad])
    return True, None
