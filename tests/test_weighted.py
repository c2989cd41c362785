"""Weighted-degree maps on Z^m and chained polynomial factors."""

import itertools
import math
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from toruspoly.core import TorusValue
from toruspoly.poly import (NCPoly, NotPolynomialError, difference_degree,
                            normalize_tables)
from toruspoly.rng import SplitMix64
from toruspoly.suites import _random_weighted, _weighted_case, run_suite
from toruspoly.weighted import (
    Factor,
    PeriodicMap,
    WeightedPoly,
    binomial_expand,
    gen_binom,
    periodicity_check,
    weighted_degree,
)

ZERO2 = TorusValue.zero(2)


def wpoly(p, D, terms, alpha=None):
    return WeightedPoly(p, len(D), D, alpha or TorusValue.zero(p), terms)


def depths(F):
    """The depth J_i of each chain of a factor."""
    return [len(polys) - 1 for _, polys in F.chains]


def value(w, x):
    """w at the point x, through the batched kernel eval_nums."""
    return TorusValue(w.p, int(w.eval_nums([x])[0]), w.exponent())


def eval_oracle(w, x):
    """The per-point definition: alpha + sum c/p^(r+1) prod binom(x_t, i_t),
    summed as exact rationals."""
    total = w.alpha.as_fraction()
    for (i_vec, r), c in w.terms.items():
        mono = 1
        for xt, it in zip(x, i_vec):
            mono *= gen_binom(xt, it)
        total += Fraction(c * mono, w.p ** (r + 1))
    return TorusValue.from_fraction(w.p, total)


def random_wpoly(rng, p, m, r_max, i_max=3):
    terms = {}
    for _ in range(rng.below(6)):
        i_vec = tuple(rng.below(i_max + 1) for _ in range(m))
        r = rng.below(r_max + 1)
        c = rng.below(p ** (r + 1))
        if sum(i_vec) and c % p:
            terms[(i_vec, r)] = c
    alpha = TorusValue(p, rng.below(p**3), rng.below(4))
    return WeightedPoly(p, m, (1 + rng.below(2),) * m, alpha, terms)


def random_table(rng, m_max=3):
    """A periodic table with p in {2, 3, 5}, m <= m_max, at most 64 entries
    and K <= 3."""
    p = (2, 3, 5)[rng.below(3)]
    m = 1 + rng.below(m_max)
    D = tuple(1 + rng.below(3) for _ in range(m))
    box = tuple(p ** rng.below(3 if p < 5 else 2) for _ in range(m))
    if math.prod(box) > 64:
        box = box[:1] + (1,) * (m - 1)
    K = rng.below(4)
    nums = [rng.below(p**K) for _ in range(math.prod(box))]
    return PeriodicMap(p, m, D, box, np.reshape(nums, box), K)


def _diff(table, axis, step):
    """Forward difference along step * e_axis, with periodic wrap."""
    rolled = np.roll(table.nums, -step, axis=axis)
    return PeriodicMap(table.p, table.m, table.D, table.box,
                       rolled - table.nums, table.K)


def walk_degree(f):
    """The derivative criterion on the fundamental box, along the generators
    p^j e_i (p^j < box_i; larger ones are periods) of weight D_i + j(p-1)."""
    p = f.p
    gens = [(i, p**j, Di + j * (p - 1))
            for i, (Di, side) in enumerate(zip(f.D, f.box))
            for j in range(side.bit_length()) if p**j < side]
    return difference_degree(f.nums, f.K, p, gens)


def degree_at_most_oracle(f, d):
    """Weighted degree <= d by definition: the forced periods p^j e_i
    (D_i + j(p-1) > d, j minimal) are periods, and every minimal multiset of
    generators of total degree > d kills f."""
    p = f.p
    gens = []  # (axis, step, degree)
    for i, Di in enumerate(f.D):
        j = 0
        while Di + j * (p - 1) <= d:
            gens.append((i, p**j % f.box[i], Di + j * (p - 1)))
            j += 1
        if p**j % f.box[i] != 0 and _diff(f, i, p**j % f.box[i]).nums.any():
            return False

    def rec(table, start, total):
        if not table.nums.any():  # and so is every further difference
            return True
        for g in range(start, len(gens)):
            axis, step, deg = gens[g]
            if total + deg > d:
                if _diff(table, axis, step).nums.any():
                    return False
                continue
            if not rec(_diff(table, axis, step), g, total + deg):
                return False
        return True

    return rec(f, 0, 0)


def assert_matches_oracle(w, points):
    nums = w.eval_nums(np.array(points, dtype=np.int64).reshape(-1, w.m))
    K = w.exponent()
    for x, num in zip(points, nums):
        assert TorusValue(w.p, int(num), K) == eval_oracle(w, x)
        assert value(w, x) == eval_oracle(w, x)


class TestEvalKernel:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_negative_and_off_period_points(self, p, m):
        rng = SplitMix64(100 * p + m)
        for _ in range(40):
            w = random_wpoly(rng, p, m, r_max=3)
            periods = w.periods()
            points = [tuple(rng.below(4 * s + 7) - 2 * s - 3 for s in periods)
                      for _ in range(25)]
            # one point exactly a period past the box corner
            points.append(tuple(periods))
            assert_matches_oracle(w, points)

    def test_zero_map_and_K_zero(self):
        for p, m in ((2, 1), (3, 2), (5, 3)):
            w = WeightedPoly(p, m, (1,) * m, TorusValue.zero(p), {})
            assert w.exponent() == 0
            pts = np.array(list(itertools.product(range(-2, 3), repeat=m)))
            assert not w.eval_nums(pts).any()
            assert value(w, (7,) * m).is_zero()
            assert not w.tabulate((p,) * m).nums.any()

    @pytest.mark.parametrize("p, K_int64", [(2, 31), (3, 19), (5, 13)])
    def test_object_dtype_beyond_int64_products(self, p, K_int64):
        # p^(2K) < 2^63 stays int64; one more depth needs Python integers
        for K in (K_int64, K_int64 + 1, 3 * K_int64):
            assert (p ** (2 * K) < 1 << 63) == (K == K_int64)
            rng = SplitMix64(K)
            for _ in range(10):
                w = random_wpoly(rng, p, 2, r_max=K - 1)
                w.terms[((1, 2), K - 1)] = 1 + p * rng.below(p ** (K - 1))
                assert w.exponent() == K
                points = [(rng.below(41) - 20, rng.below(41) - 20)
                          for _ in range(15)]
                nums = w.eval_nums(np.array(points))
                assert nums.dtype == (np.int64 if K == K_int64 else object)
                assert_matches_oracle(w, points)

    def test_big_python_int_coordinates(self):
        w = wpoly(3, (1,), {((2,), 1): 4, ((1,), 0): 1})
        x = 3**50 + 5
        assert value(w, (x,)) == eval_oracle(w, (x,))

    def test_tabulate_is_the_kernel_on_the_box(self):
        rng = SplitMix64(5)
        for p in (2, 3, 5):
            w = random_wpoly(rng, p, 2, r_max=2)
            tab = w.tabulate((p, p**2))
            for x in itertools.product(range(p), range(p**2)):
                assert TorusValue(p, int(tab.nums[x]), tab.K) == eval_oracle(w, x)


class TestWeightedDegree:
    def test_constant(self):
        w = WeightedPoly(2, 1, (1,), TorusValue(2, 1, 2), {})
        assert w.degree() == 0
        assert weighted_degree(w.tabulate((2,))) == 0

    def test_a_over_four(self):
        w = wpoly(2, (1,), {((1,), 1): 1})
        assert w.degree() == 2
        assert weighted_degree(w.tabulate((8,))) == 2

    def test_binom_a_2_over_two(self):
        w = wpoly(2, (1,), {((2,), 0): 1})
        assert w.degree() == 2
        assert weighted_degree(w.tabulate((4,))) == 2

    def test_higher_initial_degree(self):
        # with D = 2 each exponent step costs two degrees
        w = wpoly(3, (2,), {((2,), 1): 1})
        assert w.degree() == 2 * 2 + 1 * 2  # sum D_j i_j + r(p-1)
        tab = w.tabulate(w.periods())
        assert weighted_degree(tab) == 6

    def test_requires_periods(self):
        with pytest.raises(TypeError):
            weighted_degree([0, 1, 2])

    def test_degree_past_the_box_bound(self):
        # D = 2 along e_1 with period 3e_1: Delta^6 f = 9/27 and Delta^7 f = 0,
        # so the degree is 6 * 2 = 12, above sum D(s - 1) + (K - 1)(p - 1) + p
        tab = PeriodicMap(3, 1, (2,), (3,), [24, 21, 19], 3)
        diffs = [tab]
        for _ in range(7):
            diffs.append(_diff(diffs[-1], 0, 1))
        assert TorusValue(3, int(diffs[6].nums[0]), diffs[6].K) == TorusValue(3, 1, 1)
        assert diffs[6].nums.tolist() == [9, 9, 9] and not diffs[7].nums.any()
        assert weighted_degree(tab) == 12
        assert degree_at_most_oracle(tab, 12)
        assert not degree_at_most_oracle(tab, 11)

    def test_long_difference_chain(self):
        # degree 480 from 169 entries: the walk keeps no frame per
        # difference, so it runs under a recursion limit of 200
        rng = SplitMix64(3)
        tab = PeriodicMap(13, 1, (1,), (169,),
                          [rng.below(13**3) for _ in range(169)], 3)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            d = weighted_degree(tab)
        finally:
            sys.setrecursionlimit(limit)
        # generators e_1 (weight 1) and 13e_1 (weight 13): for each b, the
        # largest a with Delta_1^a Delta_13^b f != 0
        expect, g, b = float("-inf"), tab, 0
        while g.nums.any():
            h, a = _diff(g, 0, 1), 0
            while h.nums.any():
                h, a = _diff(h, 0, 1), a + 1
            expect = max(expect, a + 13 * b)
            g, b = _diff(g, 0, 13), b + 1
        assert d == expect == 480

    def test_random_tables_against_the_oracle(self):
        # the returned d passes the minimal-violator criterion, d - 1 fails
        rng = SplitMix64(2024)
        for _ in range(150):
            tab = random_table(rng, m_max=2)
            d = weighted_degree(tab)
            if not tab.nums.any():
                assert d == float("-inf")
                continue
            assert degree_at_most_oracle(tab, d)
            if d >= 1:
                assert not degree_at_most_oracle(tab, d - 1)
            else:  # a nonzero constant
                assert len(np.unique(tab.nums)) == 1

    def test_single_term_degree_exact(self):
        # each monomial c/p^(r+1) binom(x, i) has weighted degree exactly
        # (sum D_j i_j) + r(p-1), by the derivative criterion
        for p, D, i_vec, r in (
            (2, (1,), (2,), 1),
            (2, (2,), (1,), 2),
            (3, (1, 2), (1, 1), 1),
            (3, (2,), (2,), 0),
        ):
            m = len(D)
            w = WeightedPoly(p, m, D, TorusValue.zero(p),
                             {(i_vec, r): 1 + (p > 2)})
            expect = sum(Dj * ij for Dj, ij in zip(D, i_vec)) + r * (p - 1)
            assert w.degree() == expect
            tab = w.tabulate(w.periods())
            assert weighted_degree(tab) == expect

    def test_random_tables_against_the_walk(self):
        # the Newton transform against the derivative walk along every
        # generator below the box, and against the minimal-violator criterion
        rng = SplitMix64(2026)
        for _ in range(150):
            tab = random_table(rng)
            d = weighted_degree(tab)
            assert d == walk_degree(tab)
            if d == float("-inf"):
                assert not tab.nums.any()
                continue
            assert degree_at_most_oracle(tab, d)
            if d >= 1:
                assert not degree_at_most_oracle(tab, d - 1)

    def test_table_shape_must_be_the_box(self):
        with pytest.raises(ValueError, match="table shape"):
            PeriodicMap(2, 1, (1,), (4,), [0, 1], 1)

    @pytest.mark.parametrize("nums", [
        np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 1, 2.5, 3], dtype=object),
        np.array([False, True, True, False])])
    def test_non_integer_numerators_rejected(self, nums):
        with pytest.raises(ValueError, match="numerators must be integers"):
            PeriodicMap(2, 1, (1,), (4,), nums, 2)

    def test_python_integer_numerators_reduce_exactly(self):
        big = np.array([2**64, 1 + 4 * 10**22, 2 - 2**70, 3 + 2**63],
                       dtype=object)
        tab = PeriodicMap(2, 1, (1,), (4,), big, 2)
        assert tab.nums.dtype == np.int64
        assert tab.nums.tolist() == [0, 1, 2, 3]

    def test_nonperiodic_rejected(self):
        with pytest.raises(ValueError):
            PeriodicMap(2, 1, (1,), (3,), [0, 1, 2], 1)

    def test_tabulate_exponent_past_int64_rejected(self):
        # a/2^63 has exponent 63: its table would not fit int64
        w = wpoly(2, (1,), {((1,), 62): 1})
        assert w.exponent() == 63
        with pytest.raises(ValueError, match=r"2\^63 exceeds 2\^63 - 1"):
            w.tabulate((2,))


class TestBinomialExpand:
    def test_constant(self):
        w = WeightedPoly(3, 2, (1, 2), TorusValue(3, 2, 1), {})
        tab = w.tabulate((3, 3))
        assert binomial_expand(tab, 1) == w

    def test_direct_form(self):
        w = wpoly(2, (1,), {((1,), 1): 1})  # a/4
        back = binomial_expand(w.tabulate((8,)), 2)
        assert back == w

    def test_round_trip_random(self):
        rng = SplitMix64(7)
        for _ in range(300):
            p = (2, 3)[rng.below(2)]
            m = 1 + rng.below(2)
            D = tuple(1 + rng.below(2) for _ in range(m))
            d = max(D) + rng.below(4)
            terms = {}
            for i_vec in itertools.product(*(range(d // Di + 1) for Di in D)):
                base = sum(Di * ii for Di, ii in zip(D, i_vec))
                if base == 0 or base > d:
                    continue
                r = rng.below((d - base) // (p - 1) + 1)
                c = rng.below(p ** (r + 1))
                if c and c % p:
                    terms[(i_vec, r)] = c
            w = WeightedPoly(p, m, D, TorusValue(p, rng.below(p), 1), terms)
            bound = max(int(w.degree()), 1) if w.terms else 1
            assert binomial_expand(w.tabulate(w.periods(bound)), bound) == w

    def test_exceeds_bound_rejected(self):
        w = wpoly(2, (1,), {((1,), 2): 1})  # a/8, degree 3
        tab = w.tabulate((16,))
        with pytest.raises(NotPolynomialError):
            binomial_expand(tab, 2)

    def test_residual_rejects_terms_past_the_exponent_range(self):
        # binom(a, 2)/2 has degree 2: its Newton coefficient at 2 (at 3 for
        # 2 binom(a_2, 3)/3) is past bound 1 and is named
        for p, w in ((2, wpoly(2, (1,), {((2,), 0): 1})),
                     (3, wpoly(3, (1, 1), {((0, 3), 0): 2}))):
            tab = w.tabulate(w.periods())
            with pytest.raises(NotPolynomialError, match="coefficient"):
                binomial_expand(tab, 1)

    def test_reconstruction_oracle(self):
        # the expansion tabulates back to the table, and the degree it
        # reports is the least bound that the expansion accepts
        rng = SplitMix64(31)
        for _ in range(150):
            tab = random_table(rng)
            back = binomial_expand(tab, math.inf)
            again = back.tabulate(tab.box)
            got = normalize_tables(again.nums, again.K, tab.p)
            want = normalize_tables(tab.nums, tab.K, tab.p)
            assert got[1] == want[1] and np.array_equal(got[0], want[0])
            d = back.degree()
            if d >= 1:
                assert binomial_expand(tab, d) == back
                with pytest.raises(NotPolynomialError, match="coefficient"):
                    binomial_expand(tab, d - 1)

    def test_specialises_to_unit_degrees(self):
        # with all D_i = 1 and periods p, the expansion is the classical
        # monomial-coefficient story in binomial dress
        w = wpoly(2, (1, 1), {((1, 1), 0): 1, ((1, 0), 1): 1})
        tab = w.tabulate(w.periods())
        assert binomial_expand(tab, 2) == w


class TestWeightedRoot:
    def test_roots_suite_catches_a_dropped_term(self, monkeypatch):
        params = {"grids": [], "random_trials": 0, "weighted_trials": 30}

        def verdict():
            rep = run_suite("roots", params, seed=1111)
            return next(c.passed for c in rep.checks
                        if c.name == "weighted-root-roundtrip")

        assert verdict()
        true_root = WeightedPoly.pth_root

        def dropping_root(self):
            g = true_root(self)
            g.terms.pop(next(iter(g.terms), None), None)
            return g

        monkeypatch.setattr(WeightedPoly, "pth_root", dropping_root)
        assert not verdict()

    def test_zero(self):
        w = WeightedPoly(2, 1, (1,), ZERO2, {})
        assert value(w.pth_root(), (3,)).is_zero()

    def test_a_over_two(self):
        w = wpoly(2, (1,), {((1,), 0): 1})
        g = w.pth_root()
        assert g == wpoly(2, (1,), {((1,), 1): 1})
        assert w.degree() == 1 and g.degree() == 2
        for a in range(8):
            assert value(g, (a,)) + value(g, (a,)) == value(w, (a,))

    def test_degree_cost_random(self):
        rng = SplitMix64(11)
        for _ in range(200):
            p = (2, 3)[rng.below(2)]
            D = (1 + rng.below(2),)
            d = D[0] + rng.below(4)
            terms = {}
            for i in range(1, d // D[0] + 1):
                r = rng.below((d - i * D[0]) // (p - 1) + 1)
                c = rng.below(p ** (r + 1))
                if c and c % p:
                    terms[((i,), r)] = c
            w = WeightedPoly(p, 1, D, TorusValue(p, rng.below(p), 1), terms)
            g = w.pth_root()
            assert g.degree() <= max(w.degree(), 0) + p - 1


class TestOneFractionPerExponent:
    """WeightedPoly keeps one reduced fraction c/p^(r+1) per exponent
    vector i, whatever the depths and coefficients its terms come in."""

    def test_split_terms_equal_their_sum(self):
        # x/2 + x/4 = 3x/4
        w = wpoly(2, (1,), {((1,), 0): 1, ((1,), 1): 1})
        assert w == wpoly(2, (1,), {((1,), 1): 3})
        assert w.terms == {((1,), 1): 3} and w.degree() == 2
        assert wpoly(2, (1,), {((1,), 0): 1, ((1,), 1): 2}).terms == {}

    def test_coefficient_divisible_by_p_reduces_its_depth(self):
        wp = WeightedPoly.from_json({"p": 2, "m": 1, "D": [1], "terms": [
            {"i": [1], "r": 1, "c": 2}]})
        assert wp == wpoly(2, (1,), {((1,), 0): 1}) and wp.degree() == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_split_terms_against_the_fraction_sum(self, p):
        rng = SplitMix64(5150 + p)
        for _ in range(60):
            pieces = [((1 + rng.below(3),), rng.below(3),
                       rng.below(4 * p**3) - 2 * p**3)
                      for _ in range(1 + rng.below(5))]
            terms: dict = {}
            for i, r, c in pieces:  # repeated (i, r) slots sum, as in JSON
                terms[(i, r)] = terms.get((i, r), 0) + c
            w = wpoly(p, (1,), terms)
            assert len({i for i, _ in w.terms}) == len(w.terms)
            assert all(c % p for c in w.terms.values())
            for x in range(-3, 10):
                want = sum(Fraction(c * gen_binom(x, i[0]), p ** (r + 1))
                           for i, r, c in pieces)
                assert value(w, (x,)) == TorusValue.from_fraction(p, want)


class TestPeriodicity:
    def test_a_over_four_report(self):
        w = wpoly(2, (1,), {((1,), 1): 1})
        rep = periodicity_check(w, 2)
        assert rep["pass"]
        assert rep["periods"] == {"p^2e_1": True}
        # the top layer at degree 2 is extracted with coefficient 1
        assert rep["top_coefficients"] == {1: 1}

    def test_constant_all_periods(self):
        w = WeightedPoly(3, 2, (1, 1), TorusValue(3, 1, 1), {})
        rep = periodicity_check(w, 0)
        assert rep["pass"] and all(rep["periods"].values())

    def test_top_coefficient_at_p_3(self):
        # 2a_1/9 + binom(a_2, 1)/3 at d = 3: periods 9e_1 and 3e_2, and the
        # difference along 3e_1 is the constant 2/3
        w = wpoly(3, (1, 2), {((1, 0), 1): 2, ((0, 1), 0): 1})
        rep = periodicity_check(w, 3)
        assert rep == {"periods": {"p^2e_1": True, "p^1e_2": True},
                       "top_coefficients": {1: 2}, "pass": True}


class TestBinomialValuation:
    def test_p_power_divisibility(self):
        # p^(k-t) divides binom(p^k, l) where p^t exactly divides l
        for p in (2, 3, 5):
            for k in range(1, 5):
                for l in range(1, p**k + 1):
                    t = 0
                    ll = l
                    while ll % p == 0:
                        ll //= p
                        t += 1
                    assert comb(p**k, l) % p ** (k - t) == 0

    def test_gen_binom_negative_arguments(self):
        for x in range(-6, 7):
            for i in range(5):
                assert gen_binom(x, i) == comb(x, i) if x >= 0 else True
        assert gen_binom(-1, 2) == 1
        assert gen_binom(-2, 3) == -4


def chain_factor(n=3):
    P10 = NCPoly.from_text(2, n, "1/2*x1*x2")
    P11 = P10.pth_root()
    P20 = NCPoly.from_text(2, n, "1/2*x1*x3 + 1/2*x2*x3")
    return Factor(2, n, [(2, [P10, P11]), (2, [P20])])


class TestFactor:
    def test_chain_validation(self):
        F = chain_factor()
        assert F.dimension == 2 and depths(F) == [1, 0]
        assert F.degree() == 3

    def test_broken_chain_rejected(self):
        P10 = NCPoly.from_text(2, 3, "1/2*x1*x2")
        bad = NCPoly.from_text(2, 3, "1/4*x1")
        with pytest.raises(ValueError):
            Factor(2, 3, [(2, [P10, bad])])

    def test_initial_degree_floor(self):
        lin = NCPoly.from_text(2, 3, "1/2*x1")
        with pytest.raises(ValueError):
            Factor(2, 3, [(1, [lin])])

    def test_depth_extension(self):
        F = chain_factor()
        F2 = F.depth_extend([2, 1])
        assert depths(F2) == [2, 1]
        # original layers untouched, new layers chained
        for (D, old), (_, new) in zip(F.chains, F2.chains):
            assert new[: len(old)] == old
            for j in range(1, len(new)):
                assert new[j].mul_by_p() == new[j - 1]
        # identity extension
        assert F.depth_extend([1, 0]) == F

    def test_telescoping_annihilation(self):
        F = chain_factor().depth_extend([2, 1])
        for D, polys in F.chains:
            top = polys[-1]
            J = len(polys) - 1
            cur = top
            for _ in range(J + 1):
                cur = cur.mul_by_p()
            assert cur.is_zero()

    def test_retraction(self):
        F = chain_factor().depth_extend([2, 1])
        # degree <= D_2 = initial degree drops the deep layers
        R = F.retract(2)
        assert depths(R) == [0, 0]
        assert F.retract(10) == F
        assert F.retract(1).dimension == 0

    def test_pullback_degree_bridge(self):
        # Q(x) = f(a1, a2) through the top coordinates has degree at most
        # the weighted degree of f, on explicitly constructed chains
        F = chain_factor(4)
        f = WeightedPoly(2, 2, (2, 2), ZERO2,
                         {((1, 0), 1): 1, ((0, 1), 0): 1})
        Q = F.pullback(f)
        assert Q.degree() <= f.degree()
        g = WeightedPoly(2, 2, (2, 2), ZERO2, {((1, 1), 0): 1})
        Q2 = F.pullback(g)
        assert Q2.degree() <= g.degree()

    def test_pullback_matches_pointwise_table(self):
        F = chain_factor(4).depth_extend([2, 1])
        # a_i = p^(J_i+1) P_(i,J_i)(x), read off the values one point at a time
        tops = [[int(polys[-1].eval(idx).as_fraction() * 2 ** len(polys))
                 for _, polys in F.chains] for idx in range(16)]
        assert F.top_values().tolist() == tops
        rng = SplitMix64(17)
        for _ in range(10):
            w = random_wpoly(rng, 2, 2, r_max=3)
            w = WeightedPoly(2, 2, (2, 2), w.alpha, w.terms)
            pointwise = NCPoly.from_values(
                2, 4, [eval_oracle(w, x) for x in tops])
            assert F.pullback(w) == pointwise


class TestMalformedTerms:
    @pytest.mark.parametrize("p,r", [(3, -2), (2, -1), (5, -1)])
    def test_negative_depth_rejected(self, p, r):
        with pytest.raises(ValueError, match="negative depth"):
            WeightedPoly(p, 1, (1,), TorusValue.zero(p), {((1,), r): 1})

    def test_equal_terms_sum(self):
        # x/2 + x/2 is 0 on Z; 1/9 binom(x, 2) twice is 2/9 binom(x, 2)
        half = {"i": [1], "r": 0, "c": 1}
        w = WeightedPoly.from_json({"p": 2, "m": 1, "D": [1],
                                    "terms": [half, half]})
        assert w.terms == {} and weighted_degree(w) == float("-inf")
        ninth = {"i": [2], "r": 1, "c": 1}
        w = WeightedPoly.from_json({"p": 3, "m": 1, "D": [1],
                                    "terms": [ninth, half, ninth]})
        assert w.terms == {((2,), 1): 2, ((1,), 0): 1}


class TestWeightedCase:
    # the (p, m, D, degree) draw of the roots and weighted suites, as their
    # three inline copies drew it
    @pytest.mark.parametrize("spreads", [(4, 4), (4, 3), (3, 3)])
    def test_replays_the_inline_draws(self, spreads):
        batched, scalar = SplitMix64(sum(spreads)), SplitMix64(sum(spreads))
        for _ in range(40):
            p = (2, 3)[scalar.below(2)]
            m = 1 + scalar.below(2)
            D = tuple(1 + scalar.below(2) for _ in range(m))
            d = max(D) + scalar.below(spreads[m - 1])
            want = _random_weighted(p, m, D, d, scalar)
            assert _weighted_case(batched, spreads) == want
            assert batched.state == scalar.state
