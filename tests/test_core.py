"""Exact arithmetic substrate: torus values, spaces, counters, roots of unity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruspoly.core import (
    BudgetExceeded,
    CycloSum,
    FVec,
    PrimeField,
    TorusValue,
    UnityCounter,
    char_eval,
    enumerate_space,
    space,
)
from toruspoly.cubes import FilteredAbelianGroup
from toruspoly.cubescan import enumerate_cube_codes, equivalence_scan
from toruspoly.parallel import chunk_ranges
from toruspoly.poly import count_polys, enumerate_polys
from toruspoly.rng import SplitMix64


def tv(p, num, exp):
    return TorusValue(p, num, exp)


class TestTorusValue:
    def test_add_examples(self):
        assert tv(2, 1, 1) + tv(2, 1, 1) == TorusValue.zero(2)
        assert tv(2, 1, 2) + tv(2, 1, 1) == tv(2, 3, 2)
        assert tv(2, 3, 2) + tv(2, 3, 2) == tv(2, 1, 1)

    def test_scale_examples(self):
        assert tv(2, 1, 2).scale(2) == tv(2, 1, 1)
        # scaling by p shifts the denominator down
        assert tv(3, 5, 3).scale(3) == tv(3, 5, 2)
        assert tv(5, 2, 1).scale(0) == TorusValue.zero(5)

    def test_reduction_invariants(self):
        v = tv(2, 4, 3)  # 4/8 = 1/2
        assert (v.num, v.exp) == (1, 1)
        assert TorusValue(3, 9, 2) == TorusValue.zero(3)

    def test_order_divides_p_K(self):
        for num in range(8):
            v = tv(2, num, 3)
            acc = TorusValue.zero(2)
            for _ in range(2**v.exp):
                acc = acc + v
            assert acc.is_zero()

    def test_mismatched_moduli(self):
        with pytest.raises(ValueError):
            tv(2, 1, 1) + tv(3, 1, 1)

    def test_fraction_round_trip(self):
        v = TorusValue.from_fraction(3, Fraction(7, 27))
        assert v.as_fraction() == Fraction(7, 27)
        with pytest.raises(ValueError):
            TorusValue.from_fraction(3, Fraction(1, 6))

    def test_json_round_trip(self):
        v = tv(2, 5, 3)
        assert TorusValue.from_json(2, v.to_json()) == v

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_group_laws(self, a, b, c):
        x, y, z = tv(2, a, 6), tv(2, b, 6), tv(2, c, 6)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + (-x) == TorusValue.zero(2)

    @given(st.integers(-10, 10), st.integers(0, 80), st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_scale_distributes(self, m, a, b):
        x, y = tv(3, a, 4), tv(3, b, 4)
        assert (x + y).scale(m) == x.scale(m) + y.scale(m)


class TestCharacter:
    def test_quarter_points_exact(self):
        assert char_eval(TorusValue.zero(2)) == 1
        assert char_eval(tv(2, 1, 1)) == -1
        assert char_eval(tv(2, 1, 2)) == 1j

    def test_homomorphism(self):
        rng = SplitMix64(5)
        for _ in range(10_000):
            a = tv(3, rng.below(81), 4)
            b = tv(3, rng.below(81), 4)
            assert abs(char_eval(a + b) - char_eval(a) * char_eval(b)) < 1e-12


class TestSpace:
    def test_enumeration_order(self):
        vecs = [v.digits for v in enumerate_space(2, 2)]
        assert vecs == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert [v.digits for v in enumerate_space(3, 1)] == [(0,), (1,), (2,)]

    def test_large_count(self):
        assert sum(1 for _ in enumerate_space(2, 20)) == 1 << 20

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_space(2, 25))

    # each fixed cap reports the kernel, the estimated cost and the cap
    CAPS = {
        "enumerate_space": (lambda: list(enumerate_space(2, 25)),
                            1 << 25, 1 << 24),
        "enumerate_polys": (lambda: next(enumerate_polys(2, 6, 2)),
                            count_polys(2, 6, 2), 1 << 20),
        "equivalence_scan": (
            lambda: equivalence_scan(FilteredAbelianGroup.maximal([81], 1), 2),
            81**4, 1 << 24),
        "enumerate_cube_codes": (
            lambda: enumerate_cube_codes(FilteredAbelianGroup.maximal([4], 1),
                                         2, cap=63),
            64, 63),
    }

    @pytest.mark.parametrize("kernel", CAPS)
    def test_cap_message_names_kernel(self, kernel):
        call, cost, cap = self.CAPS[kernel]
        with pytest.raises(BudgetExceeded, match=rf"^{kernel}: estimated cost "
                           rf"{cost} exceeds budget {cap}$"):
            call()

    def test_chunks_partition(self):
        chunks = chunk_ranges(range(space(3, 3).size), 4)
        flat = [i for c in chunks for i in c]
        assert flat == list(range(27))

    def test_vector_arithmetic(self):
        a = FVec.from_digits(3, [1, 2, 0])
        b = FVec.from_digits(3, [2, 2, 1])
        assert (a + b).digits == (0, 1, 1)
        assert (-a).digits == (2, 1, 0)
        assert FVec.from_json(a.to_json()) == a

    def test_shift_perm_matches_vector_add(self):
        sp = space(3, 2)
        h = FVec.from_digits(3, [1, 2])
        perm = sp.shift_perm(h.idx)
        for x in enumerate_space(3, 2):
            assert perm[x.idx] == (x + h).idx

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            PrimeField(4)
        assert PrimeField(7).inv(3) == 5


class TestCounters:
    def test_expectation_examples(self):
        c = UnityCounter(2, 1)
        c.add_value(TorusValue.zero(2), 3)
        c.add_value(tv(2, 1, 1), 1)
        assert c.expectation().as_fraction() == Fraction(1, 2)

        c = UnityCounter(2, 2)
        c.add_value(TorusValue.zero(2), 5)
        assert c.expectation().as_fraction() == 1

        c = UnityCounter(5, 1)
        for num in range(5):
            c.add_value(tv(5, num, 1))
        assert c.expectation().is_zero()

    def test_empty_counter(self):
        with pytest.raises(ValueError):
            UnityCounter(2, 1).expectation()

    def test_merge_order_independent(self):
        rng = SplitMix64(9)
        parts = [UnityCounter(3, 2) for _ in range(4)]
        for _ in range(500):
            parts[rng.below(4)].add_value(tv(3, rng.below(9), 2))
        forward = parts[0].merge(parts[1]).merge(parts[2]).merge(parts[3])
        backward = parts[3].merge(parts[2]).merge(parts[1]).merge(parts[0])
        assert np.array_equal(forward.counts, backward.counts)
        assert forward.expectation().as_complex() == \
            backward.expectation().as_complex()


class TestCycloSum:
    def test_full_orbit_vanishes(self):
        z = CycloSum.from_counts(3, 2, [1] * 9)
        assert z.is_zero()

    def test_reduction_consistent_with_floats(self):
        rng = SplitMix64(11)
        for _ in range(50):
            counts = [rng.below(5) for _ in range(8)]
            z = CycloSum.from_counts(2, 3, counts)
            direct = sum(c * np.exp(2j * np.pi * t / 8)
                         for t, c in enumerate(counts))
            assert abs(z.as_complex() - direct) < 1e-9

    def test_modulus_squared_rational_detection(self):
        # 1 + zeta_8 has irrational |.|^2 = 2 + sqrt(2)
        z = CycloSum(2, 3, {0: 1, 1: 1})
        sq = z * z.conj()
        assert sq.rational_part() is None
        # 1 + i has |.|^2 = 2
        w = CycloSum(2, 2, {0: 1, 1: 1})
        assert (w * w.conj()).rational_part() == 2
