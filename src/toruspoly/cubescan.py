"""Vectorised cube criteria: the face criterion, the Taylor criterion,
cube enumeration and cube preservation, each over many cubes at once.

Elements of a product of cyclic groups are mixed-radix integer codes, a
k-cube is a row of 2^k codes, and whole (M, 2^k) arrays of them are checked
with numpy; a single cube is a one-row call.  Every array kernel here runs the
subset-lattice passes of `cubes._subset_codes`, as in Yates' algorithm:
(a0, a1) -> (a0, a1, a1 - a0) gives every face sum, (a0, a1 - a0) the
Taylor coefficients g_J, which are the sums over the lower faces
{omega subset J}, and (a0, a0 + a1) expands coefficients into vertices.
When the ambient tuple count is too large to scan, the face solution set is
counted exactly instead: it is the kernel of the face-sum homomorphism into
a product of quotients G/G_i, so its size is the ambient size divided by
the order of the image, and that order is an integer lattice index read
off the pivots of an echelon basis.  The count has no cap; the scan stays
as the exhaustive oracle for small groups.

The two criteria accept the same rows of any filtered abelian group.  g_J
is the alternating sum over the lower face {omega subset J}, of dimension
|J|, so the face criterion implies the Taylor criterion.  A Taylor-valid
row is a sum of HK generators g^[F] with g in G_(codim F); each generator
meets the face criterion, which cuts out a subgroup, so the Taylor
criterion implies the face criterion.  Cube preservation is therefore
decided by the cheaper Taylor pass; the face criterion keeps its own
checks: the scan, the generator test of the count, and the cube-check
command.

Preserving (k+1)-cubes implies preserving k-cubes, so preservation is
checked at k_max alone: a k-cube c doubled along a new axis, (c, c), has
Taylor coefficients 0 on that axis, so it is a (k+1)-cube exactly when c
is a k-cube, and phi maps it to (phi(c), phi(c))."""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .core import SPACE_CAP, check_budget
from .cubes import (FilteredAbelianGroup, _check_codes, _diagonal,
                    _echelon_insert, _member_tables, _pass_tables,
                    _subset_codes, _subset_table, hk_size)

# equivalence_scan enumerates at most SPACE_CAP tuples, at most _SCAN_CHUNK
# at a time (a power of |G|);
# enumerate_cube_codes caches arrays of at most _CACHED_CODES entries
_SCAN_CHUNK = 1 << 18
_CACHED_CODES = 1 << 16


@lru_cache(maxsize=64)
def _tested_outputs(G: FilteredAbelianGroup, k: int, kind: str):
    """(outputs, offsets): the outputs of _subset_codes whose level G_i is a
    proper subgroup, and i |G| for each as a column; an output at a level
    equal to G holds for every row.  Cached per G by value, like
    _member_tables."""
    level = _pass_tables(G, k, kind)[2]
    proper = ~_member_tables(G, k).all(axis=1)
    outputs = np.flatnonzero(proper[level])
    offsets = level[outputs][:, None] * G.size
    for tab in (outputs, offsets):
        tab.flags.writeable = False
    return outputs, offsets


def _level_mask(tuples, G: FilteredAbelianGroup, k: int,
                kind: str) -> np.ndarray:
    """Rows whose every output of _subset_codes lies in G_(free axes); only
    the outputs at proper levels are resolved, and none at all when every
    level is G.  tuples that are not an (M, 2^k) integer array of G codes
    raise ValueError."""
    tuples = np.asarray(tuples)
    message = (f"k-cubes must be a 2-D integer array of width 2^k, k = {k}; "
               f"got shape {tuples.shape}, {tuples.dtype}")
    # the width's bit length first, so that a huge k never builds 1 << k
    if k < 0 or tuples.ndim != 2 or tuples.shape[1].bit_length() != k + 1:
        raise ValueError(message)
    tuples = _check_codes(tuples, G, (len(tuples), 1 << k), message,
                          f"cube codes must lie in [0, {G.size})")
    outputs, offsets = _tested_outputs(G, k, kind)
    mask = np.ones(len(tuples), dtype=bool)
    if not len(outputs):
        return mask
    member = _member_tables(G, k).reshape(-1)
    for rows, codes in _subset_codes(tuples, G, kind, outputs):
        mask[rows] = member[offsets + codes].all(axis=0)
    return mask


def face_member_mask(tuples, G: FilteredAbelianGroup, k: int) -> np.ndarray:
    """Which rows satisfy the face criterion: each dimension-i face has its
    alternating vertex sum in G_i.  The passes give each face sum up to a
    sign, which does not change membership of a subgroup."""
    return _level_mask(tuples, G, k, "faces")


def taylor_member_mask(tuples, G: FilteredAbelianGroup, k: int) -> np.ndarray:
    """Which rows have every Taylor coefficient g_J inside G_|J|; g_J is the
    face sum over the lower face {omega : omega subset J}."""
    return _level_mask(tuples, G, k, "moebius")


def equivalence_scan(G: FilteredAbelianGroup, k: int) -> dict:
    """Face criterion vs Taylor criterion over every tuple in G^(2^k).

    Returns {"tuples", "disagreements", "members"}; the scan is chunked and
    deterministic.  Raises BudgetExceeded past SPACE_CAP tuples.
    """
    total = G.size ** (1 << k)
    check_budget(total, SPACE_CAP, "equivalence_scan")
    disagreements = 0
    members = 0
    width = 1 << k
    # a chunk is |G|^m tuples, m >= 1 (more than _SCAN_CHUNK only at k = 0):
    # its low m vertices are decoded once per scan, its high ones are constant
    m = 1
    while m < width and G.size ** (m + 1) <= _SCAN_CHUNK:
        m += 1
    tuples = np.empty((G.size**m, width), dtype=np.int64)
    # row x holds digit j of x in base |G| at vertex j, least significant
    # first: the sparse index grids broadcast into a view of the low vertices
    low = tuples[:, :m].reshape((G.size,) * m + (m,))
    for j, grid in enumerate(np.indices((G.size,) * m, sparse=True)[::-1]):
        low[..., j] = grid
    for q in range(total // G.size**m):
        tuples[:, m:] = q // G.size ** np.arange(width - m) % G.size
        m_face = face_member_mask(tuples, G, k)
        m_taylor = taylor_member_mask(tuples, G, k)
        disagreements += int((m_face != m_taylor).sum())
        members += int(m_face.sum())
    return {"tuples": total, "disagreements": disagreements, "members": members}


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
    equality of the two sets.  The echelon basis is a dense (3^k r)^2
    Python array, checked against SPACE_CAP before anything is built.
    """
    r = len(G.orders)
    check_budget((3**k * r) ** 2, SPACE_CAP, "counted_equivalence")
    taylor_count = hk_size(G, k)
    width = 1 << k
    # face f is output f of the "faces" pass: its base-3 digit on axis a is
    # 2 where vertex bit k-1-a is free and fixes that bit otherwise
    dims = _pass_tables(G, k, "faces")[2]
    digits = np.indices((3,) * k).reshape(k, len(dims), 1)
    bits = np.arange(width) >> np.arange(k - 1, -1, -1)[:, None, None] & 1
    on = ((digits == 2) | (digits == bits)).all(axis=0)  # on[f, vertex]

    # HK generators g^[face], g in G_codim, satisfy the face criterion
    gens = np.array([on[f] * g for f, dim in enumerate(dims)
                     for g in G.level_generators(k - dim)],
                    dtype=np.int64).reshape(-1, width)
    if not face_member_mask(gens, G, k).all():
        return {"equal": False, "reason": "generator fails face test"}

    # L: per face, the echelon basis of G_dim + diag(orders) in Z^r, which
    # G keeps per level; diag(orders) alone past the last level
    orders = list(G.orders)
    blocks = [*G.bases, *[_diagonal(orders)] * (k + 1 - len(G.bases))]
    basis = [[0] * (f * r) + [*row] + [0] * ((len(dims) - f - 1) * r)
             for f, dim in enumerate(dims) for row in blocks[dim]]
    quotient_size = prod(row[c] for c, row in enumerate(basis))

    # phi(Z^(r 2^k)): the face sums of each unit vector at each vertex.  The
    # alternating signs are left out: negating the odd vertices is an
    # automorphism of G^(2^k), so it does not change the image.
    units = np.kron(on.T, np.eye(r, dtype=np.int64)).tolist()
    _echelon_insert(basis, units, orders * len(dims))

    image_size = quotient_size // prod(row[c] for c, row in enumerate(basis))
    face_count = G.size**width // image_size
    return {
        "equal": face_count == taylor_count,
        "taylor_count": taylor_count,
        "face_count": face_count,
        "image_size": image_size,
    }


def enumerate_cube_codes(G: FilteredAbelianGroup, k: int) -> np.ndarray:
    """All k-cubes as a read-only (M, 2^k) array of element codes (Taylor
    parameterised), cached per group and k when small; M 2^k is checked
    against SPACE_CAP on every call."""
    size = hk_size(G, k) << k
    check_budget(size, SPACE_CAP, "enumerate_cube_codes")
    return (_cube_codes if size <= _CACHED_CODES else _cube_codes.__wrapped__)(G, k)


@lru_cache(maxsize=32)
def _cube_codes(G: FilteredAbelianGroup, k: int) -> np.ndarray:
    """Cached per G by value, like cubes._member_tables.  Row q takes its
    coefficient g_J from level |J| at q's mixed-radix digit J, last J fastest."""
    member = _member_tables(G, k)
    level_codes = [np.flatnonzero(member[i]) for i in _pass_tables(G, k, "zeta")[2]]
    q = np.arange(hk_size(G, k))
    combos = np.empty((len(q), len(level_codes)), dtype=np.int64)
    for J in reversed(range(len(level_codes))):
        q, digit = np.divmod(q, len(level_codes[J]))
        combos[:, J] = level_codes[J][digit]
    out = _subset_table(combos, G, "zeta")
    out.flags.writeable = False
    return out


def preserves_cubes_fast(phi_codes: np.ndarray, H: FilteredAbelianGroup,
                         G: FilteredAbelianGroup, k_max: int,
                         budget: int | None = None) -> bool:
    """Whether phi maps every H-cube of dimension at most k_max to a G-cube,
    by one Taylor pass over the k_max-cubes (see the module docstring).
    phi_codes maps H element codes to G element codes.  2^k_max is checked
    against SPACE_CAP, then the pass's hk_size(H, k_max) 2^k_max entries
    against budget; a table that is not one G code per H code, or a
    negative k_max, raises ValueError."""
    if k_max < 0:
        raise ValueError(f"k_max must be at least 0, got {k_max}")
    check_budget(1 << min(k_max, 64), SPACE_CAP, "preserves_cubes_fast")
    phi_codes = _check_codes(phi_codes, G, (H.size,))
    check_budget(hk_size(H, k_max) << k_max, budget, "preserves_cubes_fast")
    cubes = enumerate_cube_codes(H, k_max)
    return bool(taylor_member_mask(phi_codes[cubes], G, k_max).all())
