"""Host-Kra cube groups, polynomial maps, and equidistribution reports."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from toruspoly import cubes, cubescan, suites
from toruspoly.catalog import L_table, S_k, bilinear_b, mother_q
from toruspoly.core import BudgetExceeded, space
from toruspoly.cubes import (
    FilteredAbelianGroup,
    _member_tables,
    _sub_codes,
    _subset_table,
    code_element,
    element_code,
    equidistribution_report,
    hk_size,
    hk_taylor,
    is_polynomial_map,
)
from toruspoly.cubescan import (
    counted_equivalence,
    enumerate_cube_codes,
    equivalence_scan,
    face_member_mask,
    preserves_cubes_fast,
    taylor_member_mask,
)
from toruspoly.forms import MultilinearForm
from toruspoly.poly import NCPoly
from toruspoly.rng import SplitMix64
from toruspoly.suites import (_group_zoo, _map_choices, _sample_map,
                              _sampled_agreement, _taylor_roundtrip,
                              _value_counts)
from toruspoly.weighted import Factor


def _code_sum(G, terms):
    """The code of sum_j s_j g_j over (s_j, code of g_j) terms, added as
    digit tuples: the scalar arithmetic of the oracles below."""
    digits = [0] * len(G.orders)
    for sign, code in terms:
        for t, o in enumerate(G.orders):
            code, x = divmod(int(code), o)
            digits[t] += sign * x
    code, radix = 0, 1
    for x, o in zip(digits, G.orders):
        code += x % o * radix
        radix *= o
    return code


def _hk_taylor_oracle(row, G):
    """hk_taylor one J and one subset of J at a time: the reference for the
    Moebius pass.  Returns (coefficient list, None) or (None, first J)."""
    k = len(row).bit_length() - 1
    coeffs = []
    for J in range(1 << k):
        terms = []
        sub = J
        while True:
            terms.append(((-1) ** bin(J ^ sub).count("1"), row[sub]))
            if sub == 0:
                break
            sub = (sub - 1) & J
        coeffs.append(_code_sum(G, terms))
    for J, val in enumerate(coeffs):
        if val not in G.level(bin(J).count("1")):
            return None, J
    return coeffs, None


def _taylor_expand_oracle(coeffs, G):
    """The cube of a coefficient row, one vertex omega and one subset of
    omega at a time: the reference for the zeta pass."""
    entries = []
    for omega in range(len(coeffs)):
        terms = []
        sub = omega
        while True:
            terms.append((1, coeffs[sub]))
            if sub == 0:
                break
            sub = (sub - 1) & omega
        entries.append(_code_sum(G, terms))
    return entries


def _listed(result):
    """hk_taylor's (coefficient row or None, J) with the row as a list."""
    coeffs, J = result
    return (None if coeffs is None else coeffs.tolist()), J


def _cube_entries(G, k):
    """Every k-cube of G as a tuple of codes."""
    return set(map(tuple, enumerate_cube_codes(G, k).tolist()))


class TestMembership:
    def test_constant_cube(self):
        G = FilteredAbelianGroup.maximal([4], 1)
        cube = np.array([3] * 4)
        assert face_member_mask(cube[None], G, 2)[0]
        coeffs, _ = hk_taylor(cube, G)
        assert coeffs.tolist() == [3, 0, 0, 0]

    def test_second_difference_criterion(self):
        # (v, v+a, v+b, v+a+b) is a cube iff the second difference vanishes
        # when G_2 = 0
        G = FilteredAbelianGroup.maximal([2], 1)
        rows = np.array([[0, 1, 1, 0], [0, 1, 1, 1]])
        assert face_member_mask(rows, G, 2).tolist() == [True, False]

    def test_taylor_recovers_structure(self):
        G = FilteredAbelianGroup.maximal([8], 2)
        v, a, b, c = 5, 3, 6, 4
        cube = np.array([v, v + a, v + b, v + a + b + c]) % 8
        coeffs, _ = hk_taylor(cube, G)
        assert coeffs.tolist() == [v, a, b, c]

    def test_membership_equals_taylor_exhaustive(self):
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        rows = np.array(list(itertools.product(range(4), repeat=4)))
        members = set()
        for row, m1 in zip(rows, face_member_mask(rows, G, 2)):
            m2 = _hk_taylor_oracle(row, G)[0] is not None
            assert m1 == m2
            assert _listed(hk_taylor(row, G)) == _hk_taylor_oracle(row, G)
            if m1:
                members.add(tuple(row.tolist()))
        assert len(members) == hk_size(G, 2)
        assert _cube_entries(G, 2) == members

    def test_taylor_uniqueness_exhaustive(self):
        # distinct coefficient rows give distinct cubes, |G| <= 8, k <= 2
        for G in (FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2]),
                  FilteredAbelianGroup.maximal([2, 2], 1)):
            levels = [G.level(bin(J).count("1")) for J in range(4)]
            combos = np.array(list(itertools.product(*levels)))
            cube_rows = _subset_table(combos, G, "zeta")
            assert len(set(map(tuple, cube_rows.tolist()))) == len(combos)

    def test_cube_group_closed_under_addition(self):
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        members = _cube_entries(G, 2)
        for a in list(members)[:40]:
            for b in list(members)[:40]:
                s = tuple(_code_sum(G, [(1, x), (1, y)]) for x, y in zip(a, b))
                assert s in members


# every suite group and k whose full tuple set equivalence_scan can enumerate
SCANNABLE = [pytest.param(G, k, id=f"zoo{i}-Z{'x'.join(map(str, G.orders))}-k{k}")
             for i, G in enumerate(_group_zoo()) for k in (1, 2, 3)
             if G.size ** (1 << k) <= 1 << 24]


class TestVectorisedScan:
    def test_scan_matches_object_logic(self):
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        res = equivalence_scan(G, 2)
        assert res["disagreements"] == 0
        assert res["members"] == hk_size(G, 2)

    # chunks of |G|^m tuples with constant high vertices: 4 and 16 tuples,
    # and at 1 a group larger than the chunk, which still takes m = 1
    @pytest.mark.parametrize("chunk", [1, 4, 16])
    def test_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr("toruspoly.cubescan._SCAN_CHUNK", chunk)
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        for k in (0, 1, 2):
            res = equivalence_scan(G, k)
            assert res == {"tuples": 4 ** (1 << k), "disagreements": 0,
                           "members": hk_size(G, k)}

    # every chunk's rows, in order, are the tuples 0 .. |G|^(2^k) - 1 with
    # vertex j holding digit j in base |G|, as floor_divide and % give them
    @pytest.mark.parametrize("chunk", [1, 16, 1 << 18])
    @pytest.mark.parametrize("G,k", [
        (FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1]), 2),
        (FilteredAbelianGroup.cyclic_chain(9, [9, 9, 3, 1]), 2),
        (FilteredAbelianGroup.maximal([2], 1), 3),
        (FilteredAbelianGroup.maximal([2], 1), 0),
    ])
    def test_scan_decodes_every_tuple_once(self, G, k, chunk, monkeypatch):
        seen = []

        def recording(tuples, G, k):
            seen.append(tuples.copy())
            return face_member_mask(tuples, G, k)

        monkeypatch.setattr(cubescan, "_SCAN_CHUNK", chunk)
        monkeypatch.setattr(cubescan, "face_member_mask", recording)
        equivalence_scan(G, k)
        width = 1 << k
        decoded = np.floor_divide(np.arange(G.size**width)[:, None],
                                  G.size ** np.arange(width)) % G.size
        assert np.array_equal(np.concatenate(seen), decoded)

    @pytest.mark.parametrize("G,k", SCANNABLE)
    def test_counted_equivalence_matches_scan(self, G, k):
        scanned = equivalence_scan(G, k)
        counted = counted_equivalence(G, k)
        assert scanned["disagreements"] == 0
        assert counted["equal"]
        assert counted["face_count"] == scanned["members"] == hk_size(G, k)

    def test_counted_equivalence_beyond_scan_cap(self):
        G = FilteredAbelianGroup.cyclic_chain(81, [81, 27, 9, 3, 1])
        counted = counted_equivalence(G, 4)
        assert counted["equal"]
        assert counted["face_count"] == hk_size(G, 4)

    @pytest.mark.parametrize("G,k,cost", [
        (FilteredAbelianGroup.cyclic_chain(8, [8, 8, 4, 2]), 8, 3**16),
        (FilteredAbelianGroup.cyclic_chain(8, [8, 8, 4, 2]), 34, 3**68),
        (_group_zoo()[7], 7, (2 * 3**7) ** 2),  # Z/2 x Z/4, two factors
    ], ids=["Z8-k8", "Z8-k34", "Z2x4-k7"])
    def test_counted_equivalence_basis_past_cap(self, G, k, cost):
        # the (3^k r)^2 echelon basis is refused before it is built
        shown = cost if cost < 1 << 64 else f">= 2^{cost.bit_length() - 1}"
        with pytest.raises(BudgetExceeded, match=re.escape(
                f"counted_equivalence: estimated cost {shown} exceeds ")):
            counted_equivalence(G, k)

    def test_face_mask_agrees_with_predicate(self):
        G = FilteredAbelianGroup.cyclic_chain(9, [9, 3, 1])
        rng = SplitMix64(3)
        tuples = np.array([[rng.below(9) for _ in range(4)] for _ in range(300)])
        mask = face_member_mask(tuples, G, 2)
        for row, ok in zip(tuples, mask):
            assert (_hk_taylor_oracle(row, G)[0] is not None) == bool(ok)


def _signed_sum_oracle(tuples, masks, signs, G):
    """Codes of sum_j signs[j] * tuples[:, masks[j]], digit by digit."""
    total = np.zeros(len(tuples), dtype=np.int64)
    radix = 1
    for o in G.orders:
        comp = np.zeros(len(tuples), dtype=np.int64)
        for m, s in zip(masks, signs):
            comp += s * (tuples[:, m] // radix % o)
        total += comp % o * radix
        radix *= o
    return total


def _faces(k):
    """All faces of {0,1}^k as (dimension, vertex masks): a free-axis set
    and a fixed assignment at a time, apart from the face pass in src."""
    return [(bin(free).count("1"),
             tuple(m for m in range(1 << k) if m & ~free == base))
            for free in range(1 << k) for base in range(1 << k)
            if base & free == 0]


def _face_mask_oracle(tuples, G, k):
    """The face criterion one face at a time, with the alternating signs
    (-1)^|omega|: the reference for the subset passes."""
    mask = np.ones(len(tuples), dtype=bool)
    for dim, masks in _faces(k):
        signs = [(-1) ** bin(m).count("1") for m in masks]
        mask &= _member_tables(G, k)[dim][_signed_sum_oracle(tuples, masks,
                                                             signs, G)]
    return mask


def _taylor_mask_oracle(tuples, G, k):
    """g_J = sum_{I subset J} (-1)^(|J|-|I|) g_I in G_|J|, one J at a time."""
    mask = np.ones(len(tuples), dtype=bool)
    for J in range(1 << k):
        subs = [I for I in range(J + 1) if I & J == I]
        signs = [(-1) ** (bin(J).count("1") - bin(I).count("1")) for I in subs]
        mask &= _member_tables(G, k)[bin(J).count("1")][
            _signed_sum_oracle(tuples, subs, signs, G)]
    return mask


def _cube_codes_oracle(G, k):
    """Every k-cube from its Taylor coefficients, one vertex omega and one
    subset of omega at a time."""
    width = 1 << k
    levels = [G.level(bin(J).count("1")) for J in range(width)]
    combos = np.array(list(itertools.product(*levels)),
                      dtype=np.int64).reshape(-1, width)
    out = np.zeros_like(combos)
    for omega in range(width):
        radix = 1
        for o in G.orders:
            comp = sum(combos[:, J] // radix % o for J in range(width)
                       if J & omega == J)
            out[:, omega] += comp % o * radix
            radix *= o
    return out


def _mask_rows(G, k, rng):
    """97 code rows: 49 random tuples, then 24 random cubes (from random
    Taylor coefficients), each followed by a copy with one entry moved."""
    levels = [G.level(bin(J).count("1")) for J in range(1 << k)]
    rows = [[rng.below(G.size) for _ in range(1 << k)] for _ in range(49)]
    for _ in range(24):
        cube = _taylor_expand_oracle([lv[rng.below(len(lv))] for lv in levels],
                                     G)
        moved = list(cube)
        e = rng.below(1 << k)
        moved[e] = (moved[e] + 1 + rng.below(G.size - 1)) % G.size
        rows += [cube, moved]
    return np.array(rows, dtype=np.int64)


def _every_output_mask(tuples, G, k, kind):
    """The level test on every output of the pass, levels equal to G
    included: the reference for the masks, which skip those levels."""
    level = cubes._pass_tables(G, k, kind)[2]
    codes = _subset_table(np.asarray(tuples, dtype=np.int64), G, kind)
    return _member_tables(G, k)[level, codes].all(axis=1)


def _params(groups, prefix, start=0):
    return [pytest.param(i, G, k, id=f"{prefix}{i}-Z{'x'.join(map(str, G.orders))}-k{k}")
            for i, G in enumerate(groups, start) for k in range(4)]


# every suite group at k = 0..3, and the block sizes the passes run at: the
# default, one row per block, and a row count that does not divide 97
ZOO_K = _params(_group_zoo(), "zoo")
BLOCKS = (cubes._PASS_BLOCK, 1, 100)
# the zoo, then the _map_choices groups that are not in it
MASK_K = ZOO_K + _params([G for G in dict.fromkeys(
    H for order in (8, 9) for pair in _map_choices(order) for H in pair)
    if G not in _group_zoo()], "map", len(_group_zoo()))


class TestSubsetPasses:
    @pytest.mark.parametrize("i,G,k", MASK_K)
    def test_masks_match_oracles(self, i, G, k, monkeypatch):
        rows = _mask_rows(G, k, SplitMix64(1000 + 10 * i + k))
        face = _face_mask_oracle(rows, G, k)
        assert face.tolist() == _taylor_mask_oracle(rows, G, k).tolist()
        assert face.tolist() == [_hk_taylor_oracle(row, G)[0] is not None
                                 for row in rows]
        assert face[49::2].all()
        for kind in ("faces", "moebius"):
            assert _every_output_mask(rows, G, k, kind).tolist() == \
                face.tolist()
        for block in BLOCKS:
            monkeypatch.setattr(cubes, "_PASS_BLOCK", block)
            assert face_member_mask(rows, G, k).tolist() == face.tolist()
            assert taylor_member_mask(rows, G, k).tolist() == face.tolist()

    @pytest.mark.parametrize("i,G,k", [p for p in ZOO_K
                                       if hk_size(*p.values[1:]) <= 1 << 12])
    def test_cube_codes_match_subset_loop(self, i, G, k, monkeypatch):
        expected = _cube_codes_oracle(G, k)
        assert np.array_equal(enumerate_cube_codes(G, k), expected)
        for block in BLOCKS:
            monkeypatch.setattr(cubes, "_PASS_BLOCK", block)
            assert np.array_equal(cubescan._cube_codes.__wrapped__(G, k),
                                  expected)

    @pytest.mark.parametrize("i,G,k", ZOO_K)
    def test_single_cube_calls_match_oracles(self, i, G, k):
        # hk_taylor is a one-row Moebius pass, and one-row zeta passes
        # expand coefficients; on non-members hk_taylor names the oracle's
        # first failing J
        rng = SplitMix64(2000 + 10 * i + k)
        rows = _mask_rows(G, k, rng)
        assert [_listed(hk_taylor(row, G)) for row in rows] == \
            [_hk_taylor_oracle(row, G) for row in rows]
        for _ in range(20):
            # any coefficients, zero at some J
            coeffs = [rng.below(G.size) if rng.below(4) else 0
                      for _ in range(1 << k)]
            assert _subset_table(np.array([coeffs]), G, "zeta")[0].tolist() \
                == _taylor_expand_oracle(coeffs, G)

    @pytest.mark.parametrize("k", [6, 7])
    def test_cube_codes_past_32_levels(self, k):
        # 2^k > 32 coefficient levels, past what numpy broadcasts at once;
        # the k-cubes of Z/2 of degree 1 are the affine maps {0,1}^k -> Z/2
        G = FilteredAbelianGroup.maximal([2], 1)
        codes = enumerate_cube_codes(G, k)
        assert np.array_equal(codes, _cube_codes_oracle(G, k))
        bits = np.arange(1 << k) >> np.arange(k)[:, None] & 1
        assert set(map(tuple, codes.tolist())) == {
            tuple((a + np.dot(b, bits)) % 2)
            for a in range(2) for b in itertools.product(range(2), repeat=k)}

    def test_trivial_group(self):
        G = FilteredAbelianGroup([], levels=[[()]])
        for k in range(3):
            rows = np.zeros((3, 1 << k), dtype=np.int64)
            assert face_member_mask(rows, G, k).all()
            assert taylor_member_mask(rows, G, k).all()
            assert enumerate_cube_codes(G, k).tolist() == [[0] * (1 << k)]

    def test_both_verdicts_covered(self):
        G = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1])
        rows = _mask_rows(G, 3, SplitMix64(5))
        assert set(face_member_mask(rows, G, 3).tolist()) == {True, False}
        offending = {hk_taylor(row, G)[1] for row in rows}
        assert None in offending and len(offending) > 2


class TestSkippedLevels:
    @pytest.mark.parametrize("i,G,k", MASK_K)
    def test_tested_outputs_are_the_proper_levels(self, i, G, k):
        for kind in ("faces", "moebius"):
            level = cubes._pass_tables(G, k, kind)[2]
            outputs, offsets = cubescan._tested_outputs(G, k, kind)
            assert outputs.tolist() == [
                f for f, lv in enumerate(level.tolist())
                if len(G.level(lv)) < G.size]
            assert offsets[:, 0].tolist() == (level[outputs] * G.size).tolist()

    # every level up to k is G: no output is tested and no pass runs
    @pytest.mark.parametrize("G,k_top", [
        (FilteredAbelianGroup.maximal([16], 3), 3),
        (FilteredAbelianGroup.maximal([2, 2], 2), 2),
        (FilteredAbelianGroup.maximal([2], 1), 1),
    ])
    def test_all_levels_g_runs_no_pass(self, G, k_top, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(cubescan, "_subset_codes", no_pass)
        for k in range(k_top + 1):
            rows = _mask_rows(G, k, SplitMix64(5000 + k))
            assert len(cubescan._tested_outputs(G, k, "faces")[0]) == 0
            assert face_member_mask(rows, G, k).all()
            assert taylor_member_mask(rows, G, k).all()
            assert _every_output_mask(rows, G, k, "faces").all()
        # one level past G_(k_top) is tested
        monkeypatch.undo()
        rows = _mask_rows(G, k_top + 1, SplitMix64(6000))
        assert not taylor_member_mask(rows, G, k_top + 1).all()

    G8 = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1])

    @pytest.mark.parametrize("tuples,k", [
        ([[0, -1, 0, 0]], 2),                      # negative code
        ([[0, 8, 0, 0]], 2),                       # code |G|
        (np.array([[0, 1 << 40, 0, 0]]), 2),       # far past |G|
        (np.array([[0, 1 << 63, 0, 0]], dtype=np.uint64), 2),
        ([[0, 1, 2]], 1),                          # width not 2^k
        ([[0, 1, 2, 3]], 1),                       # width 2^2 at k = 1
        ([[0, 1]], 2),                             # width 2^1 at k = 2
        ([0, 1, 2, 3], 2),                         # one 1-D row
        ([[[0, 1, 2, 3]]], 2),                     # 3-D
        (np.array([[0.0, 1.0, 2.0, 3.0]]), 2),     # floats
        (np.array([[True, False]]), 1),            # booleans
        ([[0, 1 << 70]], 1),                       # past 64 bits
        ([[0]], -1),                               # negative k
        (np.zeros((1, 2), dtype=np.int64), 10**12),  # 1 << k is never built
    ])
    def test_bad_rows_rejected(self, tuples, k):
        for mask in (face_member_mask, taylor_member_mask):
            with pytest.raises(ValueError, match="k-cubes must be|cube codes"):
                mask(tuples, self.G8, k)

    def test_good_rows_accepted(self):
        rows = [[0, 7, 4, 3]]
        for tuples in (rows, np.array(rows, dtype=np.int32),
                       np.array(rows, dtype=np.uint64)):
            assert face_member_mask(tuples, self.G8, 2).tolist() == \
                _face_mask_oracle(np.array(rows), self.G8, 2).tolist()
        empty = np.zeros((0, 4), dtype=np.int64)
        assert taylor_member_mask(empty, self.G8, 2).tolist() == []


def _face_pass_oracle(tuples, G):
    """Every face sum of each row as (3^k, M) codes, by the pass that grows
    the digit planes with one np.concatenate per axis."""
    k = tuples.shape[1].bit_length() - 1
    orders = G.orders or (1,)
    radix = np.cumprod((1,) + orders)[:-1]
    planes = np.stack([tuples.T // q % o for o, q in zip(orders, radix)])
    planes = planes.reshape(len(orders), *(2,) * k, -1)
    for ax in range(1, k + 1):
        cut = (slice(None),) * ax
        planes = np.concatenate((planes, planes[cut + (slice(1, 2),)]
                                 - planes[cut + (slice(0, 1),)]), axis=ax)
    return sum(planes[t] % o * q for t, (o, q) in
               enumerate(zip(orders, radix))).reshape(3**k, -1)


def _lowest_face_failures(maps, H, G, k_max):
    """Per row of maps (H-code -> G-code tables), the lowest k <= k_max at
    which the image of some H-cube fails the face criterion, one face at a
    time, or None."""
    lowest = [None] * len(maps)
    for k in range(k_max + 1):
        # each distinct image row, keyed by its base-|G| value, is checked once
        assert G.size ** (1 << k) < 1 << 63
        images = maps[:, _cube_codes_oracle(H, k)].reshape(-1, 1 << k)
        _, first, inverse = np.unique(images @ G.size ** np.arange(1 << k),
                                      return_index=True, return_inverse=True)
        ok = _face_mask_oracle(images[first], G, k)[inverse].reshape(
            len(maps), -1).all(axis=1)
        lowest = [k if low is None and not good else low
                  for low, good in zip(lowest, ok)]
    return lowest


FACE_PASS_GROUPS = [
    FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1]),
    FilteredAbelianGroup.cyclic_chain(9, [9, 9, 3, 1]),
    _group_zoo()[7],
    FilteredAbelianGroup.maximal([2, 2], 2),
]


class TestOneAllocationPasses:
    @pytest.mark.parametrize("G", FACE_PASS_GROUPS, ids=lambda G: str(G.orders))
    def test_face_pass_matches_concatenating_oracle(self, G):
        # one block of rows and a few more, so the rows cross a block edge
        rng = SplitMix64(len(G.orders) * 100 + G.size)
        for k in range(4):
            count = cubes._PASS_BLOCK // 3**k + 5
            rows = np.array([rng.below(G.size) for _ in range(count << k)],
                            dtype=np.int64).reshape(count, 1 << k)
            assert np.array_equal(_subset_table(rows, G, "faces").T,
                                  _face_pass_oracle(rows, G))

    @pytest.mark.parametrize("G", FACE_PASS_GROUPS, ids=lambda G: str(G.orders))
    def test_passes_leave_their_input_unchanged(self, G):
        # hk_taylor's row is a view into rows, and a one-row block is a view
        # of the caller's row until np.take copies it
        rng = SplitMix64(G.size)
        for k in range(4):
            rows = np.array([rng.below(G.size) for _ in range(40 << k)],
                            dtype=np.int64).reshape(40, 1 << k)
            before = rows.copy()
            hk_taylor(rows[3], G)
            for kind in ("faces", "moebius", "zeta"):
                _subset_table(rows, G, kind)
                _subset_table(rows[5:6], G, kind)
            face_member_mask(rows, G, k)
            taylor_member_mask(rows, G, k)
            assert np.array_equal(rows, before)

    def test_hk_size_cache_matches_uncached(self):
        for G in _group_zoo() + FACE_PASS_GROUPS:
            for k in range(5):
                assert hk_size(G, k) == hk_size.__wrapped__(G, k)
        assert hk_size.cache_info().hits > 0

    def test_residue_table_past_cap_refused(self):
        # |G| 2^15 = 2^25 residues; the pass itself has only 2^15 outputs
        G = FilteredAbelianGroup.maximal([1024], 1)
        with pytest.raises(BudgetExceeded, match=r"^_subset_codes: estimated "
                           r"cost 33554432 exceeds budget 16777216$"):
            taylor_member_mask(np.zeros((1, 1 << 15), dtype=np.int64), G, 15)

    @staticmethod
    def _check_verdicts(maps, H, G, k_max, failing_k):
        """preserves_cubes_fast's one Taylor pass at k_max returns True
        exactly when the face criterion holds at every k <= k_max."""
        lowest = _lowest_face_failures(maps, H, G, k_max)
        failing_k.update(lowest)
        for phi, low in zip(maps, lowest):
            for k in range(k_max + 1):
                assert preserves_cubes_fast(phi, H, G, k) is \
                    (low is None or low > k)

    def test_preservation_matches_face_oracle(self):
        # random, constant and affine maps for every pair of sampled groups
        rng = SplitMix64(26)
        failing_k = set()
        for max_order in (8, 9):
            for H, G in itertools.product(*_map_choices(max_order)):
                c0 = code_element(G, rng.below(G.size))
                mults = [rng.below(G.orders[0]) for _ in H.orders]
                affine = [element_code(G, (c0[0] + sum(
                    m * x for m, x in zip(mults, code_element(H, h))),)
                    + c0[1:]) for h in range(H.size)]
                maps = np.array([[rng.below(G.size) for _ in range(H.size)],
                                 [rng.below(G.size)] * H.size, affine])
                self._check_verdicts(maps, H, G, 3, failing_k)
        assert failing_k == {None, 1, 2, 3}

    def test_preservation_matches_face_oracle_on_every_small_map(self):
        # every map from Z/3 of degree 1 or 2, and every map on H_0 = 3Z/9
        # (0 off it), into odd filtrations, one with G_0 = 3Z/9 != G
        Z3 = [FilteredAbelianGroup.maximal([3], d) for d in (1, 2)]
        sub9 = FilteredAbelianGroup.cyclic_chain(9, [3, 3, 1])
        targets = Z3 + [FilteredAbelianGroup.cyclic_chain(9, [9, 3, 1]), sub9]
        failing_k = set()
        for H, k_max in ((Z3[0], 4), (Z3[1], 3), (sub9, 4)):
            points = np.flatnonzero(H.member[0])
            for G in targets:
                values = np.array(list(itertools.product(
                    range(G.size), repeat=len(points))), dtype=np.int64)
                maps = np.zeros((len(values), H.size), dtype=np.int64)
                maps[:, points] = values
                self._check_verdicts(maps, H, G, k_max, failing_k)
        assert failing_k == {None, 0, 1, 2, 3}


def _is_polynomial_map_oracle(phi_codes, H, G, use_generators=True):
    """The derivative criterion as a recursion over dicts of codes, one
    direction at a time: the reference for the vectorised kernel."""
    table = {x: int(phi_codes[x]) for x in range(H.size)}
    max_total = G.degree + 1
    levels = [set(G.level(i).tolist()) for i in range(max_total + 1)]
    dirs = []
    for i in range(1, max_total + 1):
        source = H.level_generators(i) if use_generators else H.level(i)
        for h in source:
            if h != 0:
                dirs.append((i, h))

    def derive(tab, h):
        return {x: _code_sum(G, [(1, tab[_code_sum(H, [(1, x), (1, h)])]),
                                 (-1, tab[x])]) for x in tab}

    def rec(tab, start, total):
        if not all(v in levels[total] for v in tab.values()):
            return False
        if total >= max_total:
            return True
        for t in range(start, len(dirs)):
            i, h = dirs[t]
            if total + i <= max_total:
                if not rec(derive(tab, h), t, total + i):
                    return False
        return True

    return rec(table, 0, 0)


Z4_TARGETS = (FilteredAbelianGroup.maximal([4], 1),
              FilteredAbelianGroup.maximal([4], 2),
              FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2]))
# H_1 = Z/4 generated by 1 alone and H_2 = {0, 2}: the generator directions
# are a strict subset of the element directions
Z4_TWO_LEVELS = FilteredAbelianGroup(
    [4], levels=[[(0,), (1,), (2,), (3,)]] * 2 + [[(0,), (2,)]])


def _agrees_with_oracle_on_every_map(H, targets):
    verdicts = set()
    for G in targets:
        for values in itertools.product(range(G.size), repeat=H.size):
            codes = np.array(values, dtype=np.int64)
            for gens in (True, False):
                poly = is_polynomial_map(codes, H, G, use_generators=gens)
                assert poly == _is_polynomial_map_oracle(codes, H, G, gens), \
                    (H, G, values, gens)
                verdicts.add(poly)
    assert verdicts == {True, False}


class TestPolynomialMaps:
    def test_filtered_homomorphism(self):
        H = FilteredAbelianGroup.maximal([4], 1)
        G = FilteredAbelianGroup.maximal([4], 1)
        assert is_polynomial_map(np.arange(4) * 3 % 4, H, G)

    def test_torus_polynomial_degree_boundary(self):
        # a degree <= k polynomial is a polynomial map into the maximal
        # degree <= k filtration, and fails into degree <= deg-1
        codes = mother_q().nums % 4  # degree 2 into (1/4)Z/Z
        H = FilteredAbelianGroup.maximal([2], 1)
        assert is_polynomial_map(codes, H, FilteredAbelianGroup.maximal([4], 2))
        assert not is_polynomial_map(codes, H,
                                     FilteredAbelianGroup.maximal([4], 1))

    def test_translation(self):
        G = FilteredAbelianGroup.maximal([8], 1)
        assert is_polynomial_map((np.arange(8) + 5) % 8, G, G)

    def test_cube_preservation_matches(self):
        H = FilteredAbelianGroup.maximal([2], 1)
        codes = mother_q().nums % 4   # degree 2 into (1/4)Z/Z
        G2 = FilteredAbelianGroup.maximal([4], 2)
        assert preserves_cubes_fast(codes, H, G2, 3)
        G1 = FilteredAbelianGroup.maximal([4], 1)
        assert not preserves_cubes_fast(codes, H, G1, 3)

    def test_nonconstant_into_degree_zero(self):
        H = FilteredAbelianGroup.maximal([2], 1)
        G0 = FilteredAbelianGroup.maximal([2], 0)
        assert not is_polynomial_map(np.array([0, 1]), H, G0)
        assert not preserves_cubes_fast(np.array([0, 1]), H, G0, 2)

    def test_generator_reduction_agrees(self):
        rng = SplitMix64(7)
        H = FilteredAbelianGroup.maximal([9], 1)
        G = FilteredAbelianGroup.cyclic_chain(9, [9, 9, 3])
        # one generator direction against eight nonzero elements
        assert len(H.level_generators(1)) == 1 < np.count_nonzero(H.level(1))
        # 20 arbitrary tables, fresh draws at every point of H in code order
        maps = [np.array([(rng.below(3) * x + rng.below(9)) % 9
                          for x in range(9)]) for _ in range(20)]
        # and a*x + c*binom(x, 2) + b: polynomial exactly when 3 | c
        x = np.arange(9)
        maps += [(a * x + c * (x * (x - 1) // 2) + b) % 9
                 for a, b, c in [(1, 0, 1), (2, 5, 3), (0, 4, 6), (1, 1, 2)]]
        outcomes = set()
        for codes in maps:
            verdict = is_polynomial_map(codes, H, G, use_generators=True)
            assert verdict == is_polynomial_map(codes, H, G,
                                                use_generators=False)
            outcomes.add(verdict)
        assert outcomes == {True, False}

    def test_fast_preservation_agrees_with_slow(self):
        # every map Z/4 -> Z/4: cube preservation up to k = deg G + 1
        # against the derivative criterion
        H = FilteredAbelianGroup.maximal([4], 1)
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2])
        outcomes = set()
        for values in itertools.product(range(4), repeat=4):
            codes = np.array(values)
            poly = is_polynomial_map(codes, H, G)
            assert preserves_cubes_fast(codes, H, G, G.degree + 1) == poly
            outcomes.add(poly)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("codes", [
        np.array([0.0, 1.7]),          # would truncate to [0, 1]
        np.array([0.0, 1.0]),          # integral floats are refused too
        np.array([False, True]),       # a bool is not a code
        [0, 1 << 70],                  # past 64 bits
    ])
    def test_non_integer_codes_refused_everywhere(self, codes):
        # one validator behind both criteria, hk_taylor and both masks
        H = FilteredAbelianGroup.maximal([2], 1)
        G = FilteredAbelianGroup.maximal([4], 1)
        checks = [
            ("every H code to a G code", lambda: is_polynomial_map(codes, H, G)),
            ("every H code to a G code",
             lambda: preserves_cubes_fast(codes, H, G, 2)),
            ("row of 2\\^k codes", lambda: hk_taylor(codes, G)),
            ("k-cubes must be", lambda: face_member_mask([codes], G, 1)),
            ("k-cubes must be", lambda: taylor_member_mask([codes], G, 1)),
        ]
        for message, call in checks:
            with pytest.raises(ValueError, match=message):
                call()

    def test_code_table_checked(self):
        # a code outside G must not be reduced mod |G| into a verdict
        H = FilteredAbelianGroup.maximal([2], 1)
        G = FilteredAbelianGroup.maximal([4], 1)
        for codes in ([0, 1, 2], [0, 4], [-1, 0], [0, 5], [0, -3]):
            with pytest.raises(ValueError, match="every H code to a G code"):
                is_polynomial_map(np.array(codes), H, G)
            with pytest.raises(ValueError, match="every H code to a G code"):
                preserves_cubes_fast(np.array(codes), H, G, 2)


class TestDerivativeKernelOracle:
    def test_every_map_z4_to_z4(self):
        _agrees_with_oracle_on_every_map(FilteredAbelianGroup.maximal([4], 1),
                                         Z4_TARGETS)

    def test_every_map_z2xz2_to_z4(self):
        _agrees_with_oracle_on_every_map(
            FilteredAbelianGroup.maximal([2, 2], 1), Z4_TARGETS)

    def test_generator_filtration(self):
        H = Z4_TWO_LEVELS
        assert H.level_generators(1) == (1,)
        assert H.level_generators(2) == (2,)
        assert len(H.level(1)) == 4
        _agrees_with_oracle_on_every_map(H, Z4_TARGETS)

    @pytest.mark.parametrize("G", _group_zoo(),
                             ids=lambda G: "Z" + "x".join(map(str, G.orders)))
    def test_sub_codes_lookup_matches_formula(self, G):
        # every pair of codes, so every negative digit difference occurs
        a, b = np.arange(G.size)[:, None], np.arange(G.size)[None, :]
        expected = np.zeros((G.size, G.size), dtype=np.int64)
        radix = 1
        for o in G.orders:
            expected += (a // radix - b // radix) % o * radix
            radix *= o
        assert np.array_equal(_sub_codes(G, a, b), expected)
        assert np.array_equal(_sub_codes(G, a[:, 0], b[0, :, None]),
                              expected.T)

    def test_frontier_split_into_blocks(self, monkeypatch):
        # one table row per block, so every level spans many blocks
        monkeypatch.setattr(cubes, "_FRONTIER_BLOCK", 4)
        for H in (FilteredAbelianGroup.maximal([4], 1),
                  FilteredAbelianGroup.maximal([2, 2], 1), Z4_TWO_LEVELS):
            _agrees_with_oracle_on_every_map(H, Z4_TARGETS[1:])


class TestSingleCubeInput:
    # a cube given as element tuples becomes a code row through element_code
    G = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1])

    @pytest.mark.parametrize("entries", [
        [(1, 5), (3, 7)],      # one coordinate too many
        [(1,), ()],            # one too few
    ])
    def test_wrong_coordinate_count_rejected(self, entries):
        with pytest.raises(ValueError, match="wrong coordinate count"):
            [element_code(self.G, e) for e in entries]

    def test_unreduced_entries_reduced(self):
        cube = np.array([element_code(self.G, e) for e in [(9,), (-5,)]])
        assert cube.tolist() == [1, 3]
        assert face_member_mask(cube[None], self.G, 1)[0]
        assert _listed(hk_taylor(cube, self.G)) == ([1, 2], None)
        coeffs = np.array([[element_code(self.G, g) for g in [(9,), (-6,)]]])
        assert _subset_table(coeffs, self.G, "zeta").tolist() == [[1, 3]]

    # not a power of two long, not one row, codes outside Z/8
    @pytest.mark.parametrize("row", [[1, 3, 5], [], [[1, 3]], [1, 8], [-1, 0]])
    def test_row_not_a_cube_rejected(self, row):
        with pytest.raises(ValueError, match="row of 2\\^k codes"):
            hk_taylor(row, self.G)


def _taylor_roundtrip_oracle(G, k, rng, count) -> bool:
    """The round trip one sample at a time, through the scalar oracles."""
    levels = [G.level(i).tolist() for i in range(k + 1)]
    for _ in range(count):
        coeffs = []
        for J in range(1 << k):
            lv = levels[bin(J).count("1")]
            coeffs.append(lv[rng.below(len(lv))])
        solved, _ = _hk_taylor_oracle(_taylor_expand_oracle(coeffs, G), G)
        if solved != coeffs:
            return False
    return True


def _sample_map_oracle(rng):
    """_sample_map one draw at a time; also returns the kind drawn."""
    h_choices, g_choices = _map_choices(8)
    H = h_choices[rng.below(len(h_choices))]
    G = g_choices[rng.below(len(g_choices))]
    kind = rng.below(4)
    if kind == 0:
        table = [rng.below(G.size) for _ in range(H.size)]
    elif kind == 1:
        table = [rng.below(G.size)] * H.size
    else:
        c0 = rng.below(G.size)
        mults = [rng.below(G.orders[0]) for _ in H.orders]
        table = []
        for x in range(H.size):
            acc = list(code_element(G, c0))
            acc[0] += sum(m * xt for m, xt in zip(mults, code_element(H, x)))
            table.append(element_code(G, acc))
    return H, G, table, kind


class TestTaylorRoundtrip:
    @pytest.mark.parametrize("i,G,k", [p for p in ZOO_K if p.values[2] >= 1])
    def test_draws_match_scalar_loop(self, i, G, k, monkeypatch):
        from toruspoly import suites

        drawn = []

        def recording(tuples, G, kind):
            if kind == "zeta":
                drawn.append(tuples.copy())
            return cubes._subset_table(tuples, G, kind)

        monkeypatch.setattr(suites, "_subset_table", recording)
        batched, scalar = SplitMix64(3000 + i), SplitMix64(3000 + i)
        assert _taylor_roundtrip(G, k, batched, 100)
        assert _taylor_roundtrip_oracle(G, k, scalar, 100)
        assert batched.next_u64() == scalar.next_u64()
        # the same coefficients, sample by sample
        replay = SplitMix64(3000 + i)
        levels = [G.level(bin(J).count("1")) for J in range(1 << k)]
        expected = [[int(lv[replay.below(len(lv))]) for lv in levels]
                    for _ in range(100)]
        assert len(drawn) == 1 and drawn[0].tolist() == expected

    # the sampled tuples of the cubes suite, from block draws, are the
    # scalar loop's: count rows of 2^k draws, then the even rows' Taylor
    # coefficients (g_J from G_|J|), then per even row a new value and the
    # vertex of its cube it replaces (Python draws the value first)
    @pytest.mark.parametrize("G,k,count", [
        (FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1]), 2, 64),
        (FilteredAbelianGroup.maximal([16], 3), 2, 33),
        (FilteredAbelianGroup.cyclic_chain(9, [9, 9, 3, 1]), 3, 10),
        (FilteredAbelianGroup.cyclic_chain(16, [16, 8, 4, 2]), 3, 7),
    ])
    def test_sampled_tuples_match_scalar_loop(self, G, k, count, monkeypatch):
        seen = []

        def recording(tuples, G, k):
            seen.append(tuples.copy())
            return face_member_mask(tuples, G, k)

        monkeypatch.setattr(suites, "face_member_mask", recording)
        batched, scalar = SplitMix64(7), SplitMix64(7)
        assert _sampled_agreement(G, k, batched, count) == 0
        width = 1 << k
        rows = [[scalar.below(G.size) for _ in range(width)]
                for _ in range(count)]
        levels = [G.level(bin(J).count("1")).tolist() for J in range(width)]
        cubes_k = [_taylor_expand_oracle([lv[scalar.below(len(lv))]
                                          for lv in levels], G)
                   for _ in range(0, count, 2)]
        for row, base in zip(range(0, count, 2), cubes_k):
            value = scalar.below(G.size)
            base[scalar.below(width)] = value
            rows[row] = base
        assert seen[0].tolist() == rows
        assert batched.state == scalar.state

    def test_criterion_8_sample_holds_members_and_non_members(self,
                                                              monkeypatch):
        # the counted groups' 2^14 sampled 3-cubes at seed 808: half are
        # cubes with one vertex redrawn, a cube again when the change lies
        # in G_3; where every level is G, every tuple is a cube
        sampled = []

        def recording(tuples, G, k):
            mask = face_member_mask(tuples, G, k)
            if k == 3 and len(tuples) == 1 << 14:
                sampled.append((G, int(mask.sum())))
            return mask

        monkeypatch.setattr(suites, "face_member_mask", recording)
        rep = suites.run_suite("cubes", seed=808, params={"k": 3, "maps": 1})
        assert rep.passed
        assert [G for G, _ in sampled] == [
            G for G in _group_zoo() if G.size ** 8 > suites._SCANNED_TUPLES]
        for G, members in sampled:
            top = len(G.level(3))
            if all(len(G.level(i)) == G.size for i in range(4)):
                assert members == 1 << 14
            else:
                # about 2^13 top / |G| perturbed cubes stay cubes
                assert (1 << 13) * top // G.size // 2 <= members < 1 << 13

    def test_sampled_maps_match_scalar_loop(self):
        batched, scalar = SplitMix64(11), SplitMix64(11)
        kinds = set()
        for _ in range(200):
            H, G, table = _sample_map(batched)
            H0, G0, table0, kind = _sample_map_oracle(scalar)
            assert (H, G, table.tolist()) == (H0, G0, table0)
            assert batched.state == scalar.state
            kinds.add(kind)
        assert kinds == {0, 1, 2, 3}

    def test_corrupted_solution_detected(self, monkeypatch):
        from toruspoly import suites

        G = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2, 1])

        def corrupted(tuples, G, kind):
            out = cubes._subset_table(tuples, G, kind)
            if kind == "moebius":
                out[5, 1] = (out[5, 1] + 2) % G.size
            return out

        assert _taylor_roundtrip(G, 2, SplitMix64(1), 100)
        monkeypatch.setattr(suites, "_subset_table", corrupted)
        assert not _taylor_roundtrip(G, 2, SplitMix64(1), 100)


def _span(G, gens):
    """The codes of the subgroup that gens generate, by closure."""
    out, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _code_sum(G, [(1, cur), (1, g)])
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


class TestFiltrationLevels:
    @pytest.mark.parametrize("orders, levels, bad", [
        ([4], [[(0,), (1,), (2,), (3,)], [(0,), (1,)], [(0,)]], 1),
        ([2], [[(0,), (1,)], [(1,)]], 1),           # 0 missing
        ([2], [[(0,), (1,)], []], 1),
        ([2, 2], [[(0, 0), (1, 0), (0, 1)]], 0),    # not closed
    ], ids=["Z4-01", "Z2-no-zero", "Z2-empty", "Z2xZ2-three"])
    def test_level_not_a_subgroup_rejected(self, orders, levels, bad):
        with pytest.raises(ValueError, match=f"^level {bad} is not a subgroup$"):
            FilteredAbelianGroup(orders, levels=levels)

    def test_level_not_nested_rejected(self):
        with pytest.raises(ValueError, match="not nested at level 2"):
            FilteredAbelianGroup([4], levels=[[(0,), (1,), (2,), (3,)],
                                              [(0,), (2,)], [(0,), (1,)]])

    def test_generators_fewer_than_elements(self):
        # the suite's generator-reduction check compares two direction sets
        assert FilteredAbelianGroup.maximal([8], 1).level_generators(1) == (1,)
        h_choices, _ = _map_choices(9)
        for H in h_choices:
            gens, level = H.level_generators(1), H.level(1)
            assert len(gens) == len(H.orders)
            if H.size > 2:
                assert len(gens) < np.count_nonzero(level)

    @pytest.mark.parametrize("G", _group_zoo(),
                             ids=lambda G: "Z" + "x".join(map(str, G.orders)))
    def test_generators_span_each_level(self, G):
        for i in range(len(G.member) + 1):
            assert _span(G, G.level_generators(i)) == set(G.level(i).tolist())
            assert 0 not in G.level_generators(i)

    @pytest.mark.parametrize("G", _group_zoo(),
                             ids=lambda G: "Z" + "x".join(map(str, G.orders)))
    def test_bases_are_each_levels_lattice(self, G):
        # bases[i] spans G_i + diag(orders) in Z^r: its rows lie in G_i, and
        # its pivots multiply to the index |G| / |G_i|
        assert isinstance(G.bases, tuple) and len(G.bases) == len(G.member)
        for i, basis in enumerate(G.bases):
            assert all(isinstance(row, tuple) for row in basis)
            assert all(G.member[i, element_code(G, row)] for row in basis)
            pivots = math.prod(row[c] for c, row in enumerate(basis))
            assert G.size // pivots == np.count_nonzero(G.member[i])


class TestCachedTables:
    def test_cached_arrays_read_only(self):
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        cube_codes = enumerate_cube_codes(G, 2)
        with pytest.raises(ValueError):
            cube_codes[0, 0] = 1
        with pytest.raises(ValueError):
            _member_tables(G, 2)[0, 0] = False
        with pytest.raises(ValueError):
            cubes._directions(G, 2, True)[1][0, 0] = 0
        assert enumerate_cube_codes(G, 2) is cube_codes

    def test_large_arrays_rebuilt(self):
        G = FilteredAbelianGroup.maximal([16], 3)
        assert hk_size(G, 2) << 2 > cubescan._CACHED_CODES
        first = enumerate_cube_codes(G, 2)
        assert first is not enumerate_cube_codes(G, 2)
        assert not first.flags.writeable

    def test_budget_checked_on_cache_hit(self):
        # the pass's hk_size(H, 2) 2^2 = 256 entries count against budget
        H = FilteredAbelianGroup.maximal([4], 1)
        identity = np.arange(4)
        assert preserves_cubes_fast(identity, H, H, 2, budget=256)
        with pytest.raises(BudgetExceeded, match=r"^preserves_cubes_fast: "
                           r"estimated cost 256 exceeds budget 255$"):
            preserves_cubes_fast(identity, H, H, 2, budget=255)

    def test_equal_groups_share_tables(self):
        # built apart: once by cyclic_chain, once from unordered, repeated
        # and unreduced elements
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        H = FilteredAbelianGroup((4,), levels=[
            [(3,), (2,), (1,), (0,)], [(1,), (7,), (-2,), (0,), (3,)],
            [(2,), (0,), (-2,)], [(4,)]])
        assert G is not H and G == H and hash(G) == hash(H)
        assert _member_tables(G, 2) is _member_tables(H, 2)
        assert cubes._pass_tables(G, 2, "zeta") is cubes._pass_tables(H, 2, "zeta")
        assert enumerate_cube_codes(G, 2) is enumerate_cube_codes(H, 2)
        assert cubes._directions(G, 2, True) is cubes._directions(H, 2, True)

    def test_unequal_filtrations_compare_unequal(self):
        G = FilteredAbelianGroup.maximal([4], 1)
        H = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2])
        assert G.orders == H.orders and G != H
        assert FilteredAbelianGroup.maximal([2, 2], 1) != \
            FilteredAbelianGroup.maximal([4], 1)
        assert G != G.orders


def _form_tuples(forms_with_slots, d: int, n: int) -> np.ndarray:
    """The tuple map (h_1..h_d) -> (T(h_(j_1..j_k)))_T over V^d, one row
    per point of V^d, for a list of (form, slot index tuple) pairs."""
    N = space(forms_with_slots[0][0].p, n).size
    h = np.indices((N,) * d).reshape(d, -1)
    return np.stack([form.eval_batch([h[j - 1] for j in slots])
                     for form, slots in forms_with_slots], axis=1)


def _max_bias_oracle(values, orders) -> float:
    """max over nonzero xi of |mean e(xi . v)|, in floats."""
    v = np.asarray(values) / np.asarray(orders)
    out = 0.0
    for xi in itertools.product(*(range(o) for o in orders)):
        if any(xi):
            out = max(out, abs(np.exp(2j * np.pi * (v @ np.array(xi))).mean()))
    return out


class TestEquidistribution:
    @pytest.mark.parametrize("orders", [(999999999999999989,), (6, 1 << 30)])
    def test_cap_checked_before_the_orders_are_factored(self, orders,
                                                         time_limit):
        # a prime order near 10^18 was trial-divided up to 10^9 first; an
        # order past the cap that is no prime power is refused by the cap
        with time_limit(2), pytest.raises(BudgetExceeded,
                                          match="^equidistribution_report"):
            equidistribution_report([(0,) * len(orders)], orders)

    def test_identity_uniform(self):
        rep = equidistribution_report([(x,) for x in range(5)], (5,))
        assert rep["max_deviation"] == 0
        assert rep["bias_zero"] and rep["weyl_consistent"]

    def test_constant_map(self):
        rep = equidistribution_report([(2,)] * 10, (4,))
        assert rep["max_bias"] == pytest.approx(1.0)
        assert rep["max_deviation"] == Fraction(3, 4)

    def test_factor_chain_biases_pinned(self):
        # the top coordinates of an explicit chain factor on F_2^6
        P10 = NCPoly.from_text(2, 6, "1/2*x1*x2 + 1/2*x3*x4")
        F = Factor(2, 6, [(2, [P10, P10.pth_root()])])
        rep = equidistribution_report(F.top_values(), (4,))
        # frozen regression values from direct counting: histogram is
        # {0: 36, 1: 24, 2: 4, 3: 0} over the 64 points
        assert rep["histogram"] == {"0": 36, "1": 24, "2": 4}
        assert rep["max_deviation"] == Fraction(5, 16)
        assert rep["max_bias_sq"] == Fraction(25, 64)

    @pytest.mark.parametrize("a_size", [1, 2, 4, 8])
    def test_weyl_count_table_matches_digit_stack(self, a_size):
        codes = np.arange(4**a_size, dtype=np.int64)
        digs = np.stack([codes // 4**i % 4 for i in range(a_size)], axis=1)
        expected = np.stack([(digs == v).sum(axis=1) for v in range(4)], axis=1)
        assert np.array_equal(_value_counts(a_size), expected)

    def test_weyl_zero_bias_iff_uniform(self):
        rng = SplitMix64(13)
        for _ in range(200):
            vals = [(rng.below(4),) for _ in range(8)]
            rep = equidistribution_report(vals, (4,))
            assert rep["bias_zero"] == (rep["max_deviation"] == 0)

    def test_joint_full_rank_linear(self):
        L = MultilinearForm(2, 3, 1, {(0,): 1})
        rep = equidistribution_report(_form_tuples([(L, (1,))], 1, 3), (2,))
        assert rep["max_deviation"] == 0

    def test_joint_duplicated_form_diagonal(self):
        L = MultilinearForm(2, 3, 1, {(0,): 1})
        rep = equidistribution_report(
            _form_tuples([(L, (1,)), (L, (1,))], 1, 3), (2, 2))
        assert rep["max_bias"] == pytest.approx(1.0)

    def test_joint_bilinear_pairs_pinned(self):
        B = bilinear_b(5)
        rep = equidistribution_report(
            _form_tuples([(B, (1, 2)), (B, (1, 3)), (B, (2, 3))], 3, 5),
            (2, 2, 2))
        # frozen from direct counting over |V|^3 = 2^15 triples
        assert rep["domain_size"] == 1 << 15
        assert rep["max_deviation"] == Fraction(7, 128)
        assert rep["max_bias_sq"] == Fraction(1, 256)

    @pytest.mark.parametrize("n, deviation, bias", [
        (6, Fraction(1, 4), 0.6248159900902646),
        (8, Fraction(27, 128), 0.6376776092858815),
    ])
    def test_witness_factor_pinned(self, n, deviation, bias):
        # the factor (S_4/2, L/8) on F_2^n, valued in Z/2 x Z/8; frozen
        # from the per-value counting this report replaced
        vals = np.stack([S_k(n, 4).classical_table(), L_table(n) % 8], axis=1)
        rep = equidistribution_report(vals, (2, 8))
        assert rep["max_deviation"] == deviation
        assert rep["max_bias"] == pytest.approx(bias, abs=1e-12)
        assert rep["weyl_consistent"] and not rep["bias_zero"]

    def test_max_bias_matches_float_oracle(self):
        rng = SplitMix64(41)
        cases = [(orders, [tuple(rng.below(o) for o in orders)
                           for _ in range(1 + rng.below(50))])
                 for orders, maps in (((2, 8), 20), ((9, 3), 20), ((17,), 10),
                                      ((19, 19), 4))
                 for _ in range(maps)]
        cases.append(((256,), [(rng.below(256),) for _ in range(1000)]))
        # more values than the count array has residues, filled in blocks
        cases.append(((2,) * 12, [tuple(rng.below(2) for _ in range(12))
                                  for _ in range(2048)]))
        # a few values into a large cyclic group
        cases.append(((2048,), [(rng.below(2048),) for _ in range(3)]))
        for orders, vals in cases:
            rep = equidistribution_report(vals, orders)
            assert abs(rep["max_bias"] - _max_bias_oracle(vals, orders)) \
                <= 1e-12
            if rep["max_bias_sq"] is not None:
                assert float(rep["max_bias_sq"]) == pytest.approx(
                    rep["max_bias"] ** 2, abs=1e-12)

    def test_character_blocks_agree(self, monkeypatch):
        rng = SplitMix64(43)
        maps = [(orders, [tuple(rng.below(o) for o in orders)
                          for _ in range(1 + rng.below(80))])
                for orders in ((2, 8), (2,) * 6, (3, 3, 3), (4, 4))
                for _ in range(5)]
        whole = [equidistribution_report(vals, orders) for orders, vals in maps]
        # the largest |B|·p^K here, so that most blocks hold a few characters
        monkeypatch.setattr(cubes, "_EQUIDIST_CAP", 128)
        assert [equidistribution_report(vals, orders)
                for orders, vals in maps] == whole

    def test_array_and_tuples_agree(self):
        vals = [(1, 7), (0, 3), (1, 3), (0, 0)]
        assert equidistribution_report(np.array(vals), (2, 8)) == \
            equidistribution_report(vals, (2, 8))

    def test_unreduced_values_reduced(self):
        rep = equidistribution_report([(5,), (1,)], (4,))
        assert rep["histogram"] == {"1": 2}
        assert rep["max_deviation"] == Fraction(3, 4)
        assert rep == equidistribution_report([(1,), (-3,)], (4,))

    def test_wrong_coordinate_count_rejected(self):
        with pytest.raises(ValueError, match="wrong coordinate count"):
            equidistribution_report([(1,), (0,)], (2, 4))
        with pytest.raises(ValueError):
            equidistribution_report([(1, 0), (0,)], (2, 4))

    def test_values_past_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            equidistribution_report([(1 << 70,), (0,)], (2,))

    def test_non_integer_values_rejected(self):
        for vals in ([(1.5,), (0,)], [(1e30,), (0,)], np.ones((2, 1))):
            with pytest.raises(ValueError, match="integers"):
                equidistribution_report(vals, (2,))

    def test_unsigned_values_reduced_without_wrapping(self):
        vals = np.array([[1 << 63], [1]], dtype=np.uint64)
        rep = equidistribution_report(vals, (3,))
        assert rep == equidistribution_report([((1 << 63) % 3,), (1,)], (3,))

    def test_order_below_one_rejected(self):
        for orders in ((0,), (4, -2)):
            with pytest.raises(ValueError, match="orders must be positive"):
                equidistribution_report([(1,) * len(orders)] * 2, orders)

    @pytest.mark.parametrize("orders", [(True,), (4.7,), (2, 4.0)])
    def test_non_integer_orders_rejected(self, orders):
        # read by json_int's rule: Z/1 from True or Z/4 from 4.7 would
        # silently answer for another group
        with pytest.raises(ValueError, match="orders must hold integers"):
            equidistribution_report([(1,) * len(orders)] * 2, orders)

    def test_numpy_integer_orders_accepted(self):
        assert equidistribution_report([(1,), (3,)], np.array([4])) == \
            equidistribution_report([(1,), (3,)], (4,))

    def test_mixed_prime_orders_rejected(self):
        with pytest.raises(ValueError):
            equidistribution_report([(0, 0)], (2, 3))
        with pytest.raises(ValueError):
            equidistribution_report([(0,)], (6,))


class TestSerialization:
    def test_group_json_round_trip(self):
        G = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2])
        again = FilteredAbelianGroup.from_json({
            "cyclic_orders": [8],
            "filtration": [[[x] for x in range(0, 8, step)]
                           for step in (1, 2, 4)]})
        assert again.orders == G.orders
        assert again.member.tolist() == G.member.tolist()
        assert again == G
