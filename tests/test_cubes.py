"""Host-Kra cube groups, polynomial maps, and equidistribution reports."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from toruspoly import cubes, cubescan
from toruspoly.catalog import bilinear_b, mother_q
from toruspoly.core import BudgetExceeded
from toruspoly.cubes import (
    CubePoint,
    FilteredAbelianGroup,
    _faces,
    _member_tables,
    code_element,
    element_code,
    equidistribution_report,
    hk_size,
    hk_taylor,
    is_polynomial_map,
    joint_equidistribution_report,
    taylor_expand,
)
from toruspoly.cubescan import (
    counted_equivalence,
    enumerate_cube_codes,
    equivalence_scan,
    face_member_mask,
    hk_membership,
    preserves_cubes_fast,
    taylor_member_mask,
)
from toruspoly.poly import NCPoly
from toruspoly.rng import SplitMix64
from toruspoly.suites import _group_zoo
from toruspoly.weighted import Factor


def _cube_entries(G, k):
    """Every k-cube of G as a tuple of elements."""
    return {tuple(code_element(G, int(c)) for c in row)
            for row in enumerate_cube_codes(G, k)}


class TestMembership:
    def test_constant_cube(self):
        G = FilteredAbelianGroup.maximal([4], 1)
        cube = CubePoint(2, [(3,)] * 4)
        assert hk_membership(cube, G)
        coeffs, _ = hk_taylor(cube, G)
        assert coeffs[0] == (3,)
        assert all(coeffs[J] == (0,) for J in (1, 2, 3))

    def test_second_difference_criterion(self):
        # (v, v+a, v+b, v+a+b) is a cube iff the second difference vanishes
        # when G_2 = 0
        G = FilteredAbelianGroup.maximal([2], 1)
        assert hk_membership(CubePoint(2, [(0,), (1,), (1,), (0,)]), G)
        assert not hk_membership(CubePoint(2, [(0,), (1,), (1,), (1,)]), G)

    def test_taylor_recovers_structure(self):
        G = FilteredAbelianGroup.maximal([8], 2)
        v, a, b, c = (5,), (3,), (6,), (4,)
        cube = CubePoint(2, [
            v,
            G.add(v, a),
            G.add(v, b),
            G.add(G.add(v, a), G.add(b, c)),
        ])
        coeffs, _ = hk_taylor(cube, G)
        assert coeffs == {0: v, 1: a, 2: b, 3: c}

    def test_membership_equals_taylor_exhaustive(self):
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        members = set()
        for entries in itertools.product(G.elements(), repeat=4):
            cube = CubePoint(2, list(entries))
            m1 = hk_membership(cube, G)
            m2 = hk_taylor(cube, G)[0] is not None
            assert m1 == m2
            if m1:
                members.add(cube.entries)
        assert len(members) == hk_size(G, 2)
        assert _cube_entries(G, 2) == members

    def test_taylor_uniqueness_exhaustive(self):
        # distinct coefficient tuples give distinct cubes, |G| <= 8, k <= 2
        for G in (FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2]),
                  FilteredAbelianGroup.maximal([2, 2], 1)):
            seen = {}
            masks = list(range(4))
            levels = [sorted(G.level(bin(J).count("1"))) for J in masks]
            for combo in itertools.product(*levels):
                cube = taylor_expand(2, dict(zip(masks, combo)), G)
                assert cube.entries not in seen
                seen[cube.entries] = combo

    def test_cube_group_closed_under_addition(self):
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        members = _cube_entries(G, 2)
        for a in list(members)[:40]:
            for b in list(members)[:40]:
                s = tuple(G.add(x, y) for x, y in zip(a, b))
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

    def test_face_mask_agrees_with_predicate(self):
        G = FilteredAbelianGroup.cyclic_chain(9, [9, 3, 1])
        rng = SplitMix64(3)
        tuples = np.array([[rng.below(9) for _ in range(4)] for _ in range(300)])
        mask = face_member_mask(tuples, G, 2)
        for row, ok in zip(tuples, mask):
            cube = CubePoint(2, [(int(x),) for x in row])
            assert (hk_taylor(cube, G)[0] is not None) == bool(ok)


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
    levels = [sorted(element_code(G, g) for g in G.level(bin(J).count("1")))
              for J in range(width)]
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
    levels = [sorted(G.level(bin(J).count("1"))) for J in range(1 << k)]
    rows = [[rng.below(G.size) for _ in range(1 << k)] for _ in range(49)]
    for _ in range(24):
        coeffs = {J: lv[rng.below(len(lv))] for J, lv in enumerate(levels)}
        cube = [element_code(G, g) for g in taylor_expand(k, coeffs, G).entries]
        moved = list(cube)
        e = rng.below(1 << k)
        moved[e] = (moved[e] + 1 + rng.below(G.size - 1)) % G.size
        rows += [cube, moved]
    return np.array(rows, dtype=np.int64)


# every suite group at k = 0..3, and the block sizes the passes run at: the
# default, one row per block, and a row count that does not divide 97
ZOO_K = [pytest.param(i, G, k, id=f"zoo{i}-Z{'x'.join(map(str, G.orders))}-k{k}")
         for i, G in enumerate(_group_zoo()) for k in range(4)]
BLOCKS = (cubescan._BLOCK, 1, 100)


class TestSubsetPasses:
    @pytest.mark.parametrize("i,G,k", ZOO_K)
    def test_masks_match_oracles(self, i, G, k, monkeypatch):
        rows = _mask_rows(G, k, SplitMix64(1000 + 10 * i + k))
        face = _face_mask_oracle(rows, G, k)
        assert face.tolist() == _taylor_mask_oracle(rows, G, k).tolist()
        assert face.tolist() == [
            hk_taylor(CubePoint(k, [code_element(G, int(c)) for c in row]),
                      G)[0] is not None for row in rows]
        assert face[49::2].all()
        for block in BLOCKS:
            monkeypatch.setattr(cubescan, "_BLOCK", block)
            assert face_member_mask(rows, G, k).tolist() == face.tolist()
            assert taylor_member_mask(rows, G, k).tolist() == face.tolist()

    @pytest.mark.parametrize("i,G,k", [p for p in ZOO_K
                                       if hk_size(*p.values[1:]) <= 1 << 12])
    def test_cube_codes_match_subset_loop(self, i, G, k, monkeypatch):
        expected = _cube_codes_oracle(G, k)
        assert np.array_equal(enumerate_cube_codes(G, k), expected)
        for block in BLOCKS:
            monkeypatch.setattr(cubescan, "_BLOCK", block)
            assert np.array_equal(cubescan._cube_codes.__wrapped__(G, k),
                                  expected)

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


def _is_polynomial_map_oracle(phi_codes, H, G, use_generators=True):
    """The derivative criterion as a recursion over dicts of elements, one
    direction at a time: the reference for the vectorised kernel."""
    table = {x: code_element(G, int(phi_codes[element_code(H, x)]))
             for x in H.elements()}
    max_total = G.degree + 1
    dirs = []
    for i in range(1, max_total + 1):
        source = H.level_generators(i) if use_generators else tuple(H.level(i))
        for h in source:
            if h != H.zero:
                dirs.append((i, h))

    def derive(tab, h):
        return {x: G.sub(tab[H.add(x, h)], tab[x]) for x in tab}

    def rec(tab, start, total):
        if not all(v in G.level(total) for v in tab.values()):
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
Z4_BY_GENERATORS = FilteredAbelianGroup([4], generators=[[(1,)], [(1,)], [(2,)]])


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
        assert preserves_cubes_fast(codes, H, G2, 3)[0]
        G1 = FilteredAbelianGroup.maximal([4], 1)
        preserved, cex = preserves_cubes_fast(codes, H, G1, 3)
        assert not preserved
        image = CubePoint(cex.k, [(int(codes[x[0]]),) for x in cex.entries])
        assert hk_taylor(cex, H)[0] is not None
        assert hk_taylor(image, G1)[0] is None

    def test_nonconstant_into_degree_zero(self):
        H = FilteredAbelianGroup.maximal([2], 1)
        G0 = FilteredAbelianGroup.maximal([2], 0)
        assert not is_polynomial_map(np.array([0, 1]), H, G0)
        assert not preserves_cubes_fast(np.array([0, 1]), H, G0, 2)[0]

    def test_generator_reduction_agrees(self):
        rng = SplitMix64(7)
        H = FilteredAbelianGroup.maximal([9], 1)
        G = FilteredAbelianGroup.cyclic_chain(9, [9, 9, 3])
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
            assert preserves_cubes_fast(codes, H, G, G.degree + 1)[0] == poly
            outcomes.add(poly)
        assert outcomes == {True, False}

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
        H = Z4_BY_GENERATORS
        assert H.level_generators(1) == ((1,),)
        assert len(H.level(1)) == 4
        _agrees_with_oracle_on_every_map(H, Z4_TARGETS)

    def test_frontier_split_into_blocks(self, monkeypatch):
        # one table row per block, so every level spans many blocks
        monkeypatch.setattr(cubes, "_BLOCK", 4)
        for H in (FilteredAbelianGroup.maximal([4], 1),
                  FilteredAbelianGroup.maximal([2, 2], 1), Z4_BY_GENERATORS):
            _agrees_with_oracle_on_every_map(H, Z4_TARGETS[1:])


class TestCachedTables:
    def test_cached_arrays_read_only(self):
        G = FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])
        cube_codes = enumerate_cube_codes(G, 2)
        with pytest.raises(ValueError):
            cube_codes[0, 0] = 1
        with pytest.raises(ValueError):
            _member_tables(G, 2)[0, 0] = False
        assert enumerate_cube_codes(G, 2) is cube_codes

    def test_large_arrays_rebuilt(self):
        G = FilteredAbelianGroup.maximal([16], 3)
        assert hk_size(G, 2) << 2 > cubescan._CACHED_CODES
        first = enumerate_cube_codes(G, 2)
        assert first is not enumerate_cube_codes(G, 2)
        assert not first.flags.writeable

    def test_budget_checked_on_cache_hit(self):
        H = FilteredAbelianGroup.maximal([4], 1)
        identity = np.arange(4)
        assert preserves_cubes_fast(identity, H, H, 2, cap=1 << 20)[0]
        assert hk_size(H, 2) == 64
        with pytest.raises(BudgetExceeded, match=r"^enumerate_cube_codes: "
                           r"estimated cost 64 exceeds budget 63$"):
            preserves_cubes_fast(identity, H, H, 2, cap=63)


class TestEquidistribution:
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
        values = [F.top_values(idx) for idx in range(64)]
        rep = equidistribution_report(values, (4,))
        # frozen regression values from direct counting: histogram is
        # {0: 36, 1: 24, 2: 4, 3: 0} over the 64 points
        assert rep["max_deviation"] == Fraction(5, 16)
        assert rep["max_bias_sq"] == Fraction(25, 64)

    def test_weyl_zero_bias_iff_uniform(self):
        rng = SplitMix64(13)
        for _ in range(200):
            vals = [(rng.below(4),) for _ in range(8)]
            rep = equidistribution_report(vals, (4,))
            assert rep["bias_zero"] == (rep["max_deviation"] == 0)

    def test_joint_full_rank_linear(self):
        from toruspoly.forms import CSMForm
        L = CSMForm(2, 3, 1, {(0,): 1})
        rep = joint_equidistribution_report([(L, (1,))], 1, 3)
        assert rep["max_deviation"] == 0

    def test_joint_duplicated_form_diagonal(self):
        from toruspoly.forms import CSMForm
        L = CSMForm(2, 3, 1, {(0,): 1})
        rep = joint_equidistribution_report([(L, (1,)), (L, (1,))], 1, 3)
        assert rep["max_bias"] == pytest.approx(1.0)

    def test_joint_bilinear_pairs_pinned(self):
        B = bilinear_b(5)
        rep = joint_equidistribution_report(
            [(B, (1, 2)), (B, (1, 3)), (B, (2, 3))], 3, 5)
        # frozen from direct counting over |V|^3 = 2^15 triples
        assert rep["max_deviation"] == Fraction(7, 128)
        assert rep["max_bias_sq"] == Fraction(1, 256)

    def test_mixed_prime_orders_rejected(self):
        with pytest.raises(ValueError):
            equidistribution_report([(0, 0)], (2, 3))


class TestSerialization:
    def test_group_json_round_trip(self):
        G = FilteredAbelianGroup.cyclic_chain(8, [8, 4, 2])
        again = FilteredAbelianGroup.from_json(G.to_json())
        assert again.orders == G.orders
        assert again.levels == G.levels

    def test_cube_json(self):
        cube = CubePoint(2, [(0, 1), (1, 1), (0, 0), (1, 0)])
        assert CubePoint.from_json(2, cube.to_json()) == cube
