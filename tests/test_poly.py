"""Torus-valued polynomials: calculus, canonical forms, roots, enumeration."""

import numpy as np
import pytest

from toruspoly.catalog import L_over_power, mother_p, mother_q
from toruspoly.core import FVec, TorusValue, enumerate_space, space
from toruspoly import poly
from toruspoly.poly import (
    CanonicalForm,
    NCPoly,
    NotPolynomialError,
    canonical_slots,
    coefficient_batches,
    count_polys,
    enumerate_polys,
    eval_slot_batches,
)
from toruspoly.rng import SplitMix64
from toruspoly.suites import _exhaustive_poly_scan

NEG_INF = float("-inf")


def vec(p, *digits):
    return FVec.from_digits(p, list(digits))


class TestEval:
    def test_mother_values(self):
        assert mother_p().eval(vec(2, 1)) == TorusValue(2, 1, 1)
        assert mother_q().eval(vec(2, 1)) == TorusValue(2, 1, 2)
        assert mother_q().eval(vec(2, 0)).is_zero()

    def test_l_over_four(self):
        P = L_over_power(2, 2)
        assert P.eval(vec(2, 1, 1)) == TorusValue(2, 1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mother_p().eval(vec(2, 1, 0))

    def test_canonical_eval_matches_table(self):
        P = NCPoly.from_text(3, 2, "2/9*x1^2*x2 + 1/3*x2")
        for x in enumerate_space(3, 2):
            assert P.canonical().eval(x) == P.eval(x)


class TestDerivative:
    def test_mother_q_derivative(self):
        dQ = mother_q().derivative(vec(2, 1))
        assert dQ.eval(vec(2, 0)) == TorusValue(2, 1, 2)
        assert dQ.eval(vec(2, 1)) == TorusValue(2, 3, 2)
        # equivalently 1/4 - P
        quarter = NCPoly.constant(2, 1, TorusValue(2, 1, 2))
        assert dQ == quarter - mother_p()

    def test_constant_derivative_vanishes(self):
        C = NCPoly.constant(2, 3, TorusValue(2, 3, 3))
        assert C.derivative(vec(2, 1, 0, 1)).is_zero()

    def test_product_derivative_brute_force(self):
        # d_{e_1} iota(x1 x2) = iota(x2), checked on the full table
        P = NCPoly.from_text(2, 2, "1/2*x1*x2")
        dP = P.derivative(vec(2, 1, 0))
        expected = NCPoly.from_text(2, 2, "1/2*x2")
        assert dP == expected

    def test_cocycle_equation(self):
        rng = SplitMix64(3)
        P = NCPoly.from_text(3, 2, "1/9*x1*x2 + 2/3*x1^2")
        N = space(3, 2).size
        for _ in range(25):
            h = FVec(3, 2, rng.below(N))
            k = FVec(3, 2, rng.below(N))
            lhs = P.derivative(h + k)
            rhs = P.derivative(h) + P.derivative(k).shift(h)
            assert lhs == rhs

    def test_shift_p_times_is_identity(self):
        for p, n in ((2, 3), (3, 2), (5, 1)):
            rng = SplitMix64(p)
            P = NCPoly.from_values(
                p, n,
                [TorusValue(p, rng.below(p**2), 2)
                 for _ in range(space(p, n).size)])
            h = FVec(p, n, rng.below(space(p, n).size))
            Q = P
            for _ in range(p):
                Q = Q.shift(h)
            assert Q == P

    def test_leibniz_rule_classical(self):
        rng = SplitMix64(17)
        N = space(2, 3).size
        for _ in range(30):
            fa = np.array([rng.below(2) for _ in range(N)])
            fb = np.array([rng.below(2) for _ in range(N)])
            P = NCPoly.from_classical_table(2, 3, fa)
            Q = NCPoly.from_classical_table(2, 3, fb)
            PQ = P.multiply_classical(Q)
            h = FVec(2, 3, rng.below(N))
            dP, dQ = P.derivative(h), Q.derivative(h)
            # over iota(F) the product rule picks up the correction term
            lhs = PQ.derivative(h)
            rhs = NCPoly.from_classical_table(
                2, 3,
                (dP.classical_table() * Q.classical_table()
                 + P.classical_table() * dQ.classical_table()
                 + dP.classical_table() * dQ.classical_table()) % 2)
            assert lhs == rhs


class TestDegree:
    def test_zero_degree(self):
        assert NCPoly.zero(2, 3).degree() == NEG_INF
        assert NCPoly.zero(2, 3).degree_by_derivatives() == NEG_INF

    def test_mother_q_degree(self):
        assert mother_q().degree() == 2
        dd = mother_q().derivative(vec(2, 1)).derivative(vec(2, 1))
        assert dd.eval(vec(2, 0)) == TorusValue(2, 1, 1)  # -1/2 != 0

    def test_l_over_powers_degree(self):
        # frozen oracle values: L/2^(k+1) has degree exactly k+1 on F_2^4
        for k in range(3):
            P = L_over_power(4, k + 1)
            assert P.degree() == k + 1
            assert P.degree_by_derivatives() == k + 1

    def test_constant_degree_zero(self):
        C = NCPoly.constant(3, 1, TorusValue(3, 1, 2))
        assert C.degree() == 0

    def test_methods_agree_exhaustive_small(self):
        for p, n, d in ((2, 2, 3), (3, 1, 3)):
            for P in enumerate_polys(p, n, d):
                assert P.degree() == P.degree_by_derivatives()

    def test_methods_agree_sampled_larger(self):
        rng = SplitMix64(23)
        for p, n, d in ((2, 3, 4), (3, 2, 4)):
            slots = canonical_slots(p, n, d)
            for _ in range(60):
                terms = {s: rng.below(p) for s in slots if rng.below(4) == 0}
                P = NCPoly.from_canonical(
                    CanonicalForm(p, n, TorusValue.zero(p), terms))
                assert P.degree() == P.degree_by_derivatives()


class TestMulByP:
    def test_mother(self):
        assert mother_q().mul_by_p() == mother_p()

    def test_kills_classical(self):
        P = NCPoly.from_text(2, 2, "1/2*x1 + 1/2*x1*x2")
        assert P.mul_by_p().is_zero()

    def test_l_over_eight(self):
        P = L_over_power(4, 3)
        Q = P.mul_by_p()
        assert Q == L_over_power(4, 2)
        assert P.degree() == 3 and Q.degree() == 2

    def test_degree_bound(self):
        rng = SplitMix64(31)
        for _ in range(40):
            p = (2, 3)[rng.below(2)]
            d = 1 + rng.below(4)
            slots = canonical_slots(p, 2, d)
            terms = {s: rng.below(p) for s in slots}
            P = NCPoly.from_canonical(
                CanonicalForm(p, 2, TorusValue.zero(p), terms))
            assert P.mul_by_p().degree() <= max(P.degree() - p + 1, 0)

    def test_no_int64_wrap_near_the_table_bound(self):
        # 5^28 > 2^63 > 5^27: P * 5 and P + P must not pass through 5^28
        P = NCPoly.from_text(5, 1, f"{5**27 - 1}/{5**27}")
        Q = P.mul_by_p()
        assert Q.value_at_index(0) == TorusValue(5, 5**26 - 1, 26)
        S = P + P
        assert S.value_at_index(0) == TorusValue(5, 5**27 - 2, 27)
        for R, text in ((Q, f"{5**26 - 1}/{5**26}"), (S, f"{5**27 - 2}/{5**27}")):
            bare = NCPoly(5, 1, R.nums, R.K)
            assert bare.canonical() == CanonicalForm.from_text(5, 1, text)


class TestPthRoot:
    def test_root_of_zero(self):
        assert NCPoly.zero(2, 2).pth_root().is_zero()

    def test_root_of_l_over_two(self):
        R = L_over_power(3, 1).pth_root()
        assert R == L_over_power(3, 2)
        assert R.mul_by_p() == L_over_power(3, 1)
        assert R.degree() <= L_over_power(3, 1).degree() + 1

    def test_random_roots_p3(self):
        rng = SplitMix64(41)
        slots = canonical_slots(3, 2, 2)
        for _ in range(200):
            terms = {s: rng.below(3) for s in slots}
            P = NCPoly.from_canonical(
                CanonicalForm(3, 2, TorusValue(3, rng.below(9), 2), terms))
            R = P.pth_root()
            assert R.mul_by_p() == P
            assert R.degree() <= max(P.degree(), 0) + 2

    def test_root_then_mulp_identity(self):
        P = NCPoly.from_text(2, 3, "1/4*x1*x2 + 1/2*x3")
        assert P.pth_root().mul_by_p() == P

    def test_mulp_then_root_differs_by_classical(self):
        P = NCPoly.from_text(2, 2, "1/4*x1 + 1/2*x2")
        diff = P.mul_by_p().pth_root() - P
        assert diff.is_classical()


class TestInterpolate:
    def test_constant(self):
        C = NCPoly.constant(2, 2, TorusValue(2, 3, 2))
        cf = C.canonical()
        assert cf.alpha == TorusValue(2, 3, 2) and not cf.terms

    def test_mother_q_form(self):
        cf = mother_q().canonical()
        assert cf.alpha.is_zero()
        assert cf.terms == {((1,), 1): 1}

    def test_round_trip_random(self):
        rng = SplitMix64(47)
        for _ in range(500):
            p = (2, 3)[rng.below(2)]
            n = 1 + rng.below(3)
            d = 1 + rng.below(4)
            slots = canonical_slots(p, n, d)
            terms = {s: rng.below(p) for s in slots if rng.below(3) == 0}
            cf = CanonicalForm(p, n, TorusValue(p, rng.below(p**2), 2), terms)
            table = NCPoly.from_canonical(cf)
            again = NCPoly(p, n, table.nums, table.K)
            assert again.canonical() == cf

    def test_degree_bound_error(self):
        with pytest.raises(NotPolynomialError):
            NCPoly(2, 2, mother_q_table_2d(), 2).canonical(d_max=1)

    @pytest.mark.parametrize("p,K", [(3, 25), (3, 38), (5, 20), (2, 62)])
    def test_bare_table_round_trip_deep(self, p, K):
        # p^(2K-1) exceeds 2^63 here, so the digits must be read without
        # scaling the residue up
        P = NCPoly.from_text(p, 2, f"1/{p**K}*x1 + 1/{p}*x2")
        assert P.K == K
        assert NCPoly(p, 2, P.nums, P.K).canonical() == P.canonical()

    @pytest.mark.parametrize("K", [8, 9, 14, 15])
    def test_monomial_products_past_int64(self, K):
        # from K = 9 on, 13^(2K) passes 2^63: the monomial matrix must not wrap
        text = f"1/{13**K}*x1^12*x2^12"
        cf = CanonicalForm.from_text(13, 2, text)
        P = NCPoly.from_canonical(cf)
        assert P.K == K and P.nums.dtype == np.int64
        assert [P.eval(x) for x in enumerate_space(13, 2)] == \
            [cf.eval(x) for x in enumerate_space(13, 2)]
        assert NCPoly(13, 2, P.nums, P.K).canonical() == cf

    def test_table_exponent_past_int64_rejected(self):
        with pytest.raises(ValueError, match="exceeds 2\\^63"):
            NCPoly(3, 1, [1, 2, 0], 40)
        with pytest.raises(ValueError, match="exceeds 2\\^63"):
            NCPoly.from_text(2, 2, f"1/{2**62}*x1 + 1/2*x2").pth_root()
        assert NCPoly(3, 1, [1, 2, 0], 39).K == 39


def mother_q_table_2d():
    # |x1|/4 on F_2^2
    return np.array([0, 1, 0, 1], dtype=np.int64)


class TestMultiplyClassical:
    def test_symmetric_products(self):
        from toruspoly.catalog import S_k
        assert S_k(5, 2).multiply_classical(S_k(5, 1)) == S_k(5, 3)
        one = NCPoly.from_classical_table(2, 5, np.ones(32, dtype=np.int64))
        assert S_k(5, 2).multiply_classical(one) == S_k(5, 2)

    def test_lucas_products_n8(self):
        from toruspoly.catalog import S_k
        assert S_k(8, 4).multiply_classical(S_k(8, 2)) == S_k(8, 6)
        s421 = S_k(8, 4).multiply_classical(S_k(8, 2)).multiply_classical(S_k(8, 1))
        assert s421 == S_k(8, 7)

    def test_rejects_nonclassical(self):
        with pytest.raises(ValueError):
            mother_q().multiply_classical(mother_q())


class TestClassicality:
    def test_examples(self):
        assert mother_p().is_classical()
        assert not mother_q().is_classical()
        assert NCPoly.zero(2, 1).is_classical()

    def test_value_count_bound(self):
        # every degree <= d polynomial takes at most p^(floor((d-1)/(p-1))+1)
        # distinct values
        for p, n, d in ((2, 2, 3), (3, 1, 4)):
            for P in enumerate_polys(p, n, d):
                deg = P.degree()
                if deg == NEG_INF:
                    continue
                cap = p ** ((max(int(deg), 1) - 1) // (p - 1) + 1)
                assert P.distinct_values() <= cap


class TestEnumeration:
    def test_small_counts(self):
        polys = list(enumerate_polys(2, 1, 1))
        assert len(polys) == 2 == count_polys(2, 1, 1)
        texts = {P.canonical().to_text() for P in polys}
        assert texts == {"0", "1/2*x1"}

    def test_slot_count_2_2_2(self):
        assert count_polys(2, 2, 2) == 32
        assert len(canonical_slots(2, 2, 2)) == 5

    def test_degree_zero_constants(self):
        assert [P.canonical().to_text() for P in enumerate_polys(2, 2, 0)] == ["0"]
        with_consts = list(enumerate_polys(2, 2, 0, modulo_constants=False))
        assert all(P.degree() <= 0 for P in with_consts)

    def test_every_enumerated_within_degree(self):
        for P in enumerate_polys(3, 1, 3):
            assert P.degree() <= 3

    def test_stream_unique(self):
        seen = set()
        for P in enumerate_polys(2, 2, 2):
            key = (P.K, P.nums.tobytes())
            assert key not in seen
            seen.add(key)


class TestScanBlocks:
    """The exhaustive roots scan: blocks, the cached slot basis, the mask."""

    # 1 entry gives one row per block; 1000 entries give 125, 111 and 40
    # rows at N = 8, 9 and 25, none of which divides a power of p
    @pytest.mark.parametrize("entries", [None, 1, 1000])
    @pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 2), (5, 1, 3)])
    def test_batches_cover_every_code_once_in_order(self, monkeypatch,
                                                    entries, p, n, d):
        if entries is not None:
            monkeypatch.setattr(poly, "_BLOCK_ENTRIES", entries)
        limit = max(poly._BLOCK_ENTRIES, p**n)
        seen = []
        for slots, codes, coeffs in coefficient_batches(p, n, d):
            assert slots == canonical_slots(p, n, d)
            assert 0 < codes.size * p**n <= limit
            assert np.array_equal(coeffs @ p ** np.arange(len(slots)), codes)
            seen.append(codes)
        assert np.array_equal(np.concatenate(seen),
                              np.arange(count_polys(p, n, d)))

    @pytest.mark.parametrize("p,K", [(2, 0), (2, 1), (2, 5), (2, 62),
                                     (3, 0), (3, 2), (3, 39), (5, 7)])
    def test_reduce_equals_mod(self, p, K):
        x = np.array([-(2**63), -(2**62) - 1, -(p**K), -5,
                      -1, 0, 1, 7, 2**62, 2**63 - 1], dtype=np.int64)
        assert np.array_equal(poly._reduce(x, p, K), x % p**K)

    def test_slot_basis_is_cached_and_read_only(self):
        slots = canonical_slots(3, 2, 3)
        coeffs = np.eye(len(slots), dtype=np.int64)
        tables = eval_slot_batches(3, 2, slots, coeffs, 2)
        basis = poly._slot_basis(3, 2, tuple(slots), 2)
        assert basis is poly._slot_basis(3, 2, tuple(slots), 2)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1
        for row, slot in zip(tables, slots):
            cf = CanonicalForm(3, 2, TorusValue.zero(3), {slot: 1})
            nums, K = cf.eval_table()
            assert np.array_equal(row, nums * 3 ** (2 - K))

    # one row per block only on the smallest cell: 3,125 blocks take 0.8 s
    @pytest.mark.parametrize("p,n,d,entries", [
        (2, 3, 3, None), (2, 3, 3, 1000), (3, 2, 3, None), (3, 2, 3, 1000),
        (5, 2, 2, None), (5, 2, 2, 1), (5, 2, 2, 1000)])
    def test_scan_counters_zero(self, monkeypatch, p, n, d, entries):
        if entries is not None:
            monkeypatch.setattr(poly, "_BLOCK_ENTRIES", entries)
        res = _exhaustive_poly_scan(p, n, d)
        assert res == {"count": count_polys(p, n, d), "root_fail": 0,
                       "canon_fail": 0, "bound_fail": 0}


class TestSerialization:
    def test_json_round_trip(self):
        P = NCPoly.from_text(2, 3, "1/4*x1*x2 + 1/2*x3")
        assert NCPoly.from_json(P.to_json()) == P

    def test_text_round_trip(self):
        P = NCPoly.from_text(3, 2, "2/3*x1^2 + 1/9*x1*x2 + 1/3")
        again = NCPoly.from_text(3, 2, P.canonical().to_text())
        assert again == P

    def test_text_splits_deep_numerators(self):
        P = NCPoly.from_text(2, 1, "3/8*x1")
        assert P.canonical().terms == {((1,), 1): 1, ((1,), 2): 1}
