"""Uniformity norms, analytic rank, Fourier analysis, decomposition."""

import cmath
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from toruspoly.catalog import L_over_power, S_k
from toruspoly.core import BudgetExceeded, TorusValue, UnityCounter, space
from toruspoly.forms import bias, dk_extract
from toruspoly.norms import (
    BoundedFunction,
    analytic_rank,
    conditional_expectation,
    gowers_norm,
    gowers_power,
    gowers_power_exact,
    inverse_explore,
    rank_witness_check,
    walsh_fourier,
    _gowers_power_direct,
    _random_bounded,
    _random_disc,
    _random_poly,
)
from toruspoly.poly import CanonicalForm, NCPoly, canonical_slots, enumerate_polys
from toruspoly.rng import SplitMix64
from toruspoly.suites import _csg2_lhs, run_suite


def constant_one(p, n):
    """The constant function 1 on F_p^n, as the phase e(0)."""
    return BoundedFunction.from_phase(NCPoly.zero(p, n))


class TestMultDerivative:
    def test_constant_one(self):
        one = constant_one(2, 3)
        d = one.mult_derivative(space(2, 3).index_of([1, 0, 1]))
        assert np.allclose(d.values, 1)

    def test_phase_derivative_exact(self):
        P = NCPoly.from_text(2, 2, "1/4*x1*x2")
        f = BoundedFunction.from_phase(P)
        h = space(2, 2).index_of([1, 1])
        d = f.mult_derivative(h)
        dP = P.derivative(h)
        assert np.allclose(d.values, BoundedFunction.from_phase(dP).values)

    def test_zero_shift_gives_modulus_squared(self):
        rng = SplitMix64(3)
        f = _random_bounded(2, 3, rng)
        d = f.mult_derivative(0)
        assert np.allclose(d.values, np.abs(f.values) ** 2)


class TestGowersNorm:
    def test_constant(self):
        one = constant_one(2, 3)
        for d in (1, 2, 3):
            assert abs(gowers_norm(one, d) - 1) < 1e-12

    def test_linear_phase_extremal(self):
        f = BoundedFunction.from_phase(NCPoly.from_text(2, 2, "1/2*x1"))
        assert abs(gowers_norm(f, 2) - 1) < 1e-12

    def test_quadratic_phase_u2(self):
        # ||e(iota(x1 x2))||_U2^4 = 1/4, frozen from the 64-triple brute sum
        P = NCPoly.from_text(2, 2, "1/2*x1*x2")
        f = BoundedFunction.from_phase(P)
        assert abs(gowers_power(f, 2) - 0.25) < 1e-12
        assert gowers_power_exact(P, 2).as_fraction() == Fraction(1, 4)

    def test_direct_matches_recursive(self):
        rng = SplitMix64(5)
        for p, n in ((2, 3), (3, 2)):
            for _ in range(20):
                f = _random_bounded(p, n, rng)
                for d in (1, 2, 3):
                    a = gowers_power(f, d)
                    b = _gowers_power_direct(f, d)
                    assert abs(a - b) < 1e-9

    def test_exact_power_matches_float(self):
        rng = SplitMix64(7)
        for _ in range(20):
            P = NCPoly.from_canonical(CanonicalForm(
                2, 3, TorusValue(2, rng.below(4), 2),
                {s: rng.below(2) for s in canonical_slots(2, 3, 3)}))
            exact = gowers_power_exact(P, 3)
            fl = gowers_power(BoundedFunction.from_phase(P), 3)
            assert abs(exact.as_complex() - fl) < 1e-9

    def test_chunked_float_path_matches_exact(self):
        # both paths expand d - 1 = 2 shifts, and N^d = 2^24 > 2^22, so
        # they split over h_1
        rng = SplitMix64(13)
        for _ in range(2):
            P = NCPoly.from_canonical(CanonicalForm(
                2, 8, TorusValue(2, rng.below(4), 2),
                {s: rng.below(2) for s in canonical_slots(2, 8, 3)}))
            exact = gowers_power_exact(P, 3)
            fl = gowers_power(BoundedFunction.from_phase(P), 3)
            assert abs(exact.as_complex() - fl) < 1e-9

    def test_negative_d_rejected(self):
        P = NCPoly.from_text(2, 2, "1/2*x1*x2")
        with pytest.raises(ValueError, match="d = -1"):
            gowers_power(BoundedFunction.from_phase(P), -1)
        with pytest.raises(ValueError, match="d = -1"):
            gowers_power_exact(P, -1)

    def test_budget_message_names_kernel(self):
        # N = 8, p^K = 4, d = 3: N^(d-1) * max(N, (p^K)^2) = 64 * 16
        P = NCPoly.from_text(2, 3, "1/4*x1*x2*x3")
        with pytest.raises(BudgetExceeded, match=r"^gowers_power_exact: "
                           r"estimated cost 1024 exceeds budget 1023$"):
            gowers_power_exact(P, 3, budget=1023)

    def test_no_shift_table_without_shifts(self):
        # gowers_power(f, 1) and the folded gowers_power_exact(P, 1) expand
        # no shift, so neither may build the N x N table of x + h, which
        # takes 128 MB at p=2, n=12
        rng = SplitMix64(23)
        P = NCPoly(2, 12, np.array([rng.below(4) for _ in range(1 << 12)],
                                   dtype=np.int64), 2)
        f = BoundedFunction.from_phase(P)
        tracemalloc.start()
        try:
            power = gowers_power(f, 1)
            exact = gowers_power_exact(P, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert abs(exact.as_complex() - power) < 1e-9

    def test_phase_power_collapses_to_bias(self):
        # ||e(P)||^(2^(s+1)) equals the bias of d^(s+1)P, exactly
        for P in enumerate_polys(2, 2, 2):
            exact = gowers_power_exact(P, 2).as_fraction()
            assert exact == bias(dk_extract(P, 2))
        rng = SplitMix64(11)
        for _ in range(25):
            p, n, s = (2, 3, 2) if rng.below(2) else (3, 2, 1)
            P = NCPoly.from_canonical(CanonicalForm(
                p, n, TorusValue.zero(p),
                {sl: rng.below(p) for sl in canonical_slots(p, n, s + 1)}))
            assert gowers_power_exact(P, s + 1).as_fraction() == \
                bias(dk_extract(P, s + 1))


def _brute_cube_residues(P: NCPoly, d: int) -> np.ndarray:
    """Counts of sum_omega (-1)^|omega| P(x + omega.h) over all N^(d+1)
    tuples (h_1..h_d, x), read off the cube definition."""
    sp = space(P.p, P.n)
    N = sp.size
    axes = [np.arange(N).reshape([N if a == t else 1 for a in range(d + 1)])
            for t in range(d + 1)]
    total = np.zeros((N,) * (d + 1), dtype=np.int64)
    for omega in range(1 << d):
        idx = axes[d]
        for t in range(d):
            if omega >> t & 1:
                idx = sp.add_indices(idx, axes[t])
        sign = -1 if bin(omega).count("1") % 2 else 1
        total += sign * P.nums[idx]
    mod = P.p**P.K
    return np.bincount((total % mod).ravel(), minlength=mod)


class TestDerivativeCount:
    # a d past bit_length(SPACE_CAP) = 25 is refused before N^d is formed
    def test_huge_d_refused(self, time_limit):
        f = BoundedFunction.from_phase(NCPoly.from_text(2, 1, "1/2*x1"))
        with time_limit(2):
            with pytest.raises(BudgetExceeded, match="^gowers_power: "
                               "estimated cost 100000000000 exceeds budget 25$"):
                gowers_power(f, 10**11)
            with pytest.raises(BudgetExceeded, match="^gowers_power_exact: "):
                gowers_power_exact(NCPoly.from_text(2, 1, "1/2*x1"), 10**11)

    def test_point_space_up_to_the_bound(self, time_limit):
        # F_p^0 takes d steps: d = 25 runs, 26 does not
        f = BoundedFunction(3, 0, [np.exp(0.5j)])
        P = NCPoly.from_text(3, 0, "1/9")
        with time_limit(2):
            assert gowers_power(f, 25) == pytest.approx(1.0)
            assert gowers_power_exact(P, 25).as_fraction() == 1
            for kernel in (lambda: gowers_power(f, 26),
                           lambda: gowers_power_exact(P, 26)):
                with pytest.raises(BudgetExceeded, match="exceeds budget 25$"):
                    kernel()


class TestFoldedLastDerivative:
    """The last derivative is folded into |E_x g|^2; the counts must be
    those of the full N^(d+1) expansion."""

    # (p, n, K): p^K <= N takes the row histograms, p^K > N the full
    # expansion; (2, 3, 6) is a bare table with p^K = 64 > N = 8
    @pytest.mark.parametrize("d", range(5))
    @pytest.mark.parametrize("p,n,K", [(2, 3, 2), (2, 2, 3), (2, 3, 6),
                                       (3, 2, 2), (3, 1, 3), (5, 1, 1),
                                       (5, 1, 2)])
    def test_matches_brute_force(self, monkeypatch, p, n, K, d):
        rng = SplitMix64(1000 * p + 100 * n + 10 * K + d)
        N = p**n
        P = NCPoly(p, n, np.array([rng.below(p**K) for _ in range(N)],
                                  dtype=np.int64), K)
        seen = []
        expectation = UnityCounter.expectation
        monkeypatch.setattr(
            UnityCounter, "expectation",
            lambda self: seen.append((self.residues, self.counts))
            or expectation(self))
        # the folded estimate never exceeds the unfolded N^(d+1)
        exact = gowers_power_exact(P, d, budget=N ** (d + 1))
        residues, counts = seen[0]
        dense = np.zeros(P.p**P.K, dtype=np.int64)
        dense[residues] = counts
        assert np.array_equal(dense, _brute_cube_residues(P, d))
        assert exact.total == N ** (d + 1)
        for f in (BoundedFunction.from_phase(P), _random_bounded(p, n, rng)):
            folded = gowers_power(f, d, budget=N ** (d + 1))
            assert abs(folded - _gowers_power_direct(f, d)) < 1e-12

    def test_pair_counts_past_cap_refused(self):
        # p^K = N = 2^13 folds, and its pair counts would be 2^26 entries
        P = NCPoly(2, 13, np.arange(1 << 13), 13)
        with pytest.raises(BudgetExceeded, match=r"^gowers_power_exact: "
                           r"estimated cost 67108864 exceeds budget 16777216$"):
            gowers_power_exact(P, 1)

    # the counter holds only the residues that occur: a dense array at
    # (2, 1, 40) would take 8 TiB
    @pytest.mark.parametrize("p,n,K,d", [(2, 1, 40, 1), (2, 1, 40, 2),
                                         (3, 2, 30, 2), (2, 3, 2, 2)])
    def test_sparse_counter_matches(self, p, n, K, d):
        rng = SplitMix64(7 * K + d)
        P = NCPoly(p, n, np.array([rng.below(p**K) for _ in range(p**n)],
                                  dtype=np.int64), K)
        exact = gowers_power_exact(P, d)
        assert exact.total == p ** (n * (d + 1))
        assert abs(exact.as_complex()
                   - gowers_power(BoundedFunction.from_phase(P), d)) < 1e-12


class TestAnalyticRank:
    def test_vanishes_below_degree(self):
        P = NCPoly.from_text(2, 3, "1/2*x1*x2")  # degree 2
        res = analytic_rank(P, 2)  # s+1 = 3 > deg
        assert res.bias == 1 and res.value == 0 and res.exact == 0

    def test_quartic_sequence(self):
        vals = {}
        for n in (5, 6, 7):
            res = analytic_rank(S_k(n, 4), 3)
            vals[n] = res.value
        assert vals[7] == pytest.approx(-np.log2(1577 / 8192))
        assert abs(vals[7] - 3) < abs(vals[5] - 3) + 1e-12

    def test_quadratic_form_rank(self):
        for n in (2, 3):
            P = NCPoly.from_text(3, n,
                                 " + ".join(f"1/3*x{i+1}^2" for i in range(n)))
            res = analytic_rank(P, 1)
            assert res.bias == Fraction(1, 3**n)
            assert res.exact == n

    def test_negation_invariance(self):
        for P in enumerate_polys(2, 2, 2):
            a = analytic_rank(P, 1).bias
            b = analytic_rank(-P, 1).bias
            assert a == b

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            analytic_rank(S_k(4, 3), 1)


class TestRankWitness:
    def test_s4_function_of_l_over_eight(self):
        assert rank_witness_check(S_k(5, 4), 3, [L_over_power(5, 3)])

    def test_witness_past_the_dense_cells(self):
        # F_2^14 has no monomial matrix: the witness's degree is read off a
        # canonical form interpolated on the per-axis pass
        assert rank_witness_check(S_k(14, 4), 3, [L_over_power(14, 3)])

    def test_constant_empty_witness(self):
        C = NCPoly(2, 3, np.full(8, 1), 1)  # the constant 1/2
        assert rank_witness_check(C, 1, [])
        # with no witnesses there is one fibre: only a constant passes
        assert not rank_witness_check(NCPoly.from_text(2, 3, "1/2*x1"), 1, [])

    def test_independent_coordinate_fails(self):
        P = NCPoly.from_text(2, 2, "1/2*x1")
        assert not rank_witness_check(P, 1, [NCPoly.from_text(2, 2, "1/2*x2")])

    def test_fibre_mismatch_away_from_point_zero(self):
        # on the fibres of (x1, x2), x1 + x2 is constant; x1*x3 first
        # differs from its value at the fibre's first point at (1, 0, 1)
        Q = [NCPoly.from_text(2, 3, "1/2*x1"), NCPoly.from_text(2, 3, "1/2*x2")]
        assert rank_witness_check(NCPoly.from_text(2, 3, "1/2*x1 + 1/2*x2"), 1, Q)
        assert not rank_witness_check(NCPoly.from_text(2, 3, "1/2*x1*x3"), 1, Q)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            rank_witness_check(S_k(4, 4), 3, [S_k(4, 4)])

    def test_witness_on_another_space_raises(self):
        with pytest.raises(ValueError, match="another space"):
            rank_witness_check(S_k(4, 4), 3, [L_over_power(5, 3)])

    def test_matches_lookup_loop(self):
        # the fibres as a dict of value tuples, point by point; P is a
        # function of the witnesses, then one point is redrawn
        rng = SplitMix64(23)
        for _ in range(30):
            polys = [NCPoly(3, 2, np.array([rng.below(3) for _ in range(9)]), 1)
                     for _ in range(rng.below(3))]
            lut = [rng.below(9) for _ in range(27)]
            nums = [lut[sum(int(q.nums[x]) * 3**j for j, q in enumerate(polys))]
                    for x in range(9)]
            nums[rng.below(9)] = rng.below(9)
            P = NCPoly(3, 2, np.array(nums), 2)
            seen = {}
            expected = all(
                seen.setdefault(tuple(q.eval(x) for q in polys), P.eval(x))
                == P.eval(x) for x in range(9))
            assert rank_witness_check(P, 4, polys) == expected


class TestFourier:
    def test_character_delta(self):
        f = BoundedFunction.from_phase(NCPoly.from_text(2, 3, "1/2*x1"))
        fh = walsh_fourier(f)
        assert abs(fh[1] - 1) < 1e-12
        assert np.abs(np.delete(fh, 1)).max() < 1e-12

    def test_constant_delta_at_zero(self):
        fh = walsh_fourier(constant_one(3, 2))
        assert abs(fh[0] - 1) < 1e-12
        assert np.abs(fh[1:]).max() < 1e-12

    def test_parseval(self):
        rng = SplitMix64(13)
        for p, n in ((2, 4), (3, 2)):
            f = _random_bounded(p, n, rng)
            fh = walsh_fourier(f)
            assert abs((np.abs(fh) ** 2).sum()
                       - (np.abs(f.values) ** 2).mean()) < 1e-9

    def test_gi1_certificate(self):
        rng = SplitMix64(17)
        for _ in range(100):
            f = _random_bounded(2, 6, rng)
            fh = walsh_fourier(f)
            assert np.abs(fh).max() >= gowers_norm(f, 2) ** 2 - 1e-9


def _inverse_explore_oracle(f, s):
    """inverse_explore one code at a time: a divmod decode, one table and one
    vdot per polynomial (the reference for the batched search)."""
    p, n = f.p, f.n
    slots = canonical_slots(p, n, s)
    best_val, best_poly = -1.0, None
    for code in range(p ** len(slots)):
        terms = {}
        rest = code
        for slot in slots:
            rest, c = divmod(rest, p)
            if c:
                terms[slot] = c
        P = NCPoly.from_canonical(CanonicalForm(p, n, TorusValue.zero(p), terms))
        corr = abs(np.vdot(BoundedFunction.from_phase(P).values, f.values)) / p**n
        if corr > best_val + 1e-12:
            best_val, best_poly = corr, P
    return best_poly, float(best_val)


_EXPLORE_CELLS = [(2, n, s) for n in range(1, 5) for s in range(3)] \
    + [(3, 2, s) for s in range(4)] + [(5, 1, 3), (2, 0, 100)]


class TestInverseExplore:
    @pytest.mark.parametrize("p,n,s", _EXPLORE_CELLS)
    def test_matches_scalar_oracle(self, p, n, s):
        rng = SplitMix64(1000 * p + 10 * n + s)
        planted = NCPoly.from_canonical(CanonicalForm(
            p, n, TorusValue(p, rng.below(p), 1),
            {sl: rng.below(p) for sl in canonical_slots(p, n, s)}))
        noise = _random_bounded(p, n, rng).values
        for f in (_random_bounded(p, n, rng),
                  BoundedFunction(p, n, (BoundedFunction.from_phase(planted).values
                                         + noise) / 2)):
            best, corr = inverse_explore(f, s)
            want, want_corr = _inverse_explore_oracle(f, s)
            assert best == want
            assert best.canonical() == want.canonical()
            assert abs(corr - want_corr) <= 1e-12

    def test_self_correlation(self):
        Q = NCPoly.from_text(2, 2, "1/2*x1*x2 + 1/2*x2")
        best, corr = inverse_explore(BoundedFunction.from_phase(Q), 2)
        assert corr == pytest.approx(1.0)
        assert (best - Q).degree() <= 0

    def test_cubic_regression_value(self):
        # max correlation of e(iota(x1 x2 x3)) with quadratic phases on F_2^3;
        # the search space has 2^9 candidates and the max is 3/4 (frozen)
        f = BoundedFunction.from_phase(NCPoly.from_text(2, 3, "1/2*x1*x2*x3"))
        best, corr = inverse_explore(f, 2)
        assert corr == pytest.approx(0.75)

    def test_gi1_equality_with_fourier(self):
        rng = SplitMix64(19)
        f = _random_bounded(2, 3, rng)
        best, corr = inverse_explore(f, 1)
        assert corr == pytest.approx(np.abs(walsh_fourier(f)).max())
        assert corr >= gowers_norm(f, 2) ** 2 - 1e-9

    def test_deterministic_tie_break(self):
        # the constant function correlates equally with many candidates;
        # repeated runs must return the identical first maximiser
        f = constant_one(2, 2)
        first = inverse_explore(f, 2)
        second = inverse_explore(f, 2)
        assert first[1] == second[1] == pytest.approx(1.0)
        assert first[0] == second[0] == NCPoly.zero(2, 2)

    def test_complex_json_ingestion(self):
        obj = {"p": 2, "n": 1,
               "values": [{"re": 0.5, "im": 0.1}, {"re": -0.25, "im": 0.0}]}
        f = BoundedFunction.from_json(obj)
        assert f.values[0] == 0.5 + 0.1j
        assert (np.abs(f.values) <= 1).all()


class TestConditionalExpectation:
    def test_empty_factors(self):
        vals = [Fraction(1), Fraction(2), Fraction(3), Fraction(6)]
        g, energy = conditional_expectation(vals, [])
        assert g == [Fraction(3)] * 4
        assert energy == 9

    def test_measurable_fixed_point(self):
        factor = [0, 0, 1, 1]
        vals = [Fraction(2), Fraction(2), Fraction(5), Fraction(5)]
        g, _ = conditional_expectation(vals, [factor])
        assert g == vals

    def test_pythagoras_exact(self):
        rng = SplitMix64(23)
        N = 32
        s1 = S_k(5, 1).classical_table().tolist()
        s2 = S_k(5, 2).classical_table().tolist()
        for _ in range(20):
            f = [Fraction(rng.below(21) - 10, 1 + rng.below(5))
                 for _ in range(N)]
            g, energy = conditional_expectation(f, [s1, s2])
            resid = [a - b for a, b in zip(f, g)]
            lhs = sum(v * v for v in f)
            rhs = energy * N + sum(v * v for v in resid)
            assert lhs == rhs

    def test_orthogonality_exact(self):
        rng = SplitMix64(29)
        N = 32
        s1 = S_k(5, 1).classical_table().tolist()
        f = [Fraction(rng.below(13) - 6) for _ in range(N)]
        g, _ = conditional_expectation(f, [s1])
        resid = [a - b for a, b in zip(f, g)]
        for c0, c1 in ((1, -4), (3, 2)):
            meas = [Fraction(c0 if v == 0 else c1) for v in s1]
            assert sum(r * m for r, m in zip(resid, meas)) == 0

    def test_refinement_monotone(self):
        rng = SplitMix64(31)
        N = 32
        s1 = S_k(5, 1).classical_table().tolist()
        s2 = S_k(5, 2).classical_table().tolist()
        f = [Fraction(rng.below(9)) for _ in range(N)]
        _, coarse = conditional_expectation(f, [s1])
        _, fine = conditional_expectation(f, [s1, s2])
        assert coarse <= fine

    def test_malformed_rejected(self):
        vals = [Fraction(v) for v in (1, 2, 3, 4)]
        with pytest.raises(ValueError, match="one label per value"):
            conditional_expectation(vals, [[0, 1]])
        with pytest.raises(ValueError, match="one label per value"):
            conditional_expectation(vals, [[0, 0, 1, 1], [0, 1, 0, 1, 0]])
        with pytest.raises(ValueError, match="no values"):
            conditional_expectation([], [])


class TestPowerRecording:
    def test_quartic_power_equals_bias_n4_n5(self):
        # recorded: the 16th power of the U^4 norm of e(iota(S_4)) equals
        # the bias of the extracted quartilinear form, identically; the
        # limiting constant 1/8 is approached by these values
        expected = {4: Fraction(197, 512), 5: Fraction(197, 512)}
        for n in (4, 5):
            P = S_k(n, 4)
            power = gowers_power_exact(P, 4).as_fraction()
            assert power == bias(dk_extract(P, 4)) == expected[n]

    def test_weighted_derivative_bound(self):
        # |E e(d^(s+1)P) prod f_j| <= bias^(1/2^s) for 1-bounded weights
        # f_j independent of the j-th variable (s = 1, bilinear case)
        rng = SplitMix64(41)
        for _ in range(20):
            P = NCPoly.from_canonical(CanonicalForm(
                2, 3, TorusValue.zero(2),
                {s: rng.below(2) for s in canonical_slots(2, 3, 2)}))
            T = dk_extract(P, 2)
            b = float(bias(T))
            N = 8
            w1 = np.array([rng.unit() * np.exp(2j * np.pi * rng.unit())
                           for _ in range(N)])  # depends on h2 only
            w2 = np.array([rng.unit() * np.exp(2j * np.pi * rng.unit())
                           for _ in range(N)])  # depends on h1 only
            total = 0j
            for h1 in range(N):
                for h2 in range(N):
                    tv = T.eval_batch([np.array([h1]), np.array([h2])])[0]
                    total += (-1) ** tv * w1[h2] * w2[h1]
            assert abs(total) / N**2 <= b ** 0.5 + 1e-9


class TestPropertySuite:
    def test_all_properties_pass(self):
        report = run_suite("gowers-props", seed=99,
                           params={"count": 10, "configs": [[2, 3]]})
        norms = [c for c in report.checks if c.name.startswith("norm-")]
        assert norms and all(c.passed for c in norms)
        assert {"norm-triangle", "norm-monotonicity", "norm-lq-bound",
                "norm-cauchy-schwarz-1", "norm-cauchy-schwarz-2",
                "norm-modulation"} <= {c.name for c in norms}
        # two monotonicity cases (d = 1, 2 and d = 2, 3) per function
        assert {c.name: c.params["cases"] for c in norms}["norm-monotonicity"] == 20

    def test_budget_covers_cube_products(self):
        # every norm fits in 16^3 = 4096, the d = 3 cube products need 16^4
        with pytest.raises(BudgetExceeded, match="_cube_product"):
            run_suite("gowers-props", seed=1, budget=5000,
                      params={"count": 3, "configs": [[2, 4]]})

    def test_every_call_gets_the_budget(self, monkeypatch):
        import inspect

        import toruspoly.norms as norms_mod
        import toruspoly.suites as suites_mod
        from toruspoly.suites import run_suite

        seen = []
        for mod in (norms_mod, suites_mod):
            for name in ("gowers_norm", "gowers_power", "gowers_power_exact",
                         "_gowers_power_direct", "_cube_product", "_csg2_lhs",
                         "bias"):
                if hasattr(mod, name):
                    fn = getattr(mod, name)

                    def wrapped(*a, _fn=fn, _name=name, **kw):
                        args = inspect.signature(_fn).bind(*a, **kw).arguments
                        seen.append((_name, args.get("budget")))
                        return _fn(*a, **kw)
                    monkeypatch.setattr(mod, name, wrapped)
        report = run_suite("gowers-props", seed=5, budget=10**6,
                           params={"count": 2, "configs": [[2, 2]]})
        assert report.passed
        assert {name for name, _ in seen} == {
            "gowers_norm", "gowers_power", "gowers_power_exact",
            "_gowers_power_direct", "_cube_product", "_csg2_lhs", "bias"}
        assert {budget for _, budget in seen} == {10**6}

    def test_modulation_exact_for_phases(self):
        rng = SplitMix64(37)
        f = _random_bounded(2, 4, rng)
        P = NCPoly.from_text(2, 4, "1/2*x1*x2 + 1/2*x3")
        assert abs(gowers_norm(f.modulate(P), 3) - gowers_norm(f, 3)) < 1e-10


class TestSeededInputs:
    """Each block-drawn input of the suites is, bit for bit, what the scalar
    draw loop it replaced drew, and leaves the generator where that loop
    left it: the df and cubes reports print verdicts only, so their bytes
    would not show a changed stream."""

    @staticmethod
    def _scalar_disc(rng, count):
        return np.array([rng.unit() * cmath.exp(2j * cmath.pi * rng.unit())
                         for _ in range(count)], dtype=np.complex128)

    # 300 values cross the generator's 256-draw block; the offsets start
    # them inside one
    @pytest.mark.parametrize("count", [0, 1, 100, 128, 300])
    @pytest.mark.parametrize("offset", [0, 5, 255])
    def test_disc_values_replay_scalar_units(self, count, offset):
        scalar, batched = SplitMix64(count + offset), SplitMix64(count + offset)
        scalar.draws(offset)
        batched.draws(offset)
        want = self._scalar_disc(scalar, count)
        got = _random_disc(batched, count)
        assert got.dtype == np.complex128
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert batched.state == scalar.state

    @pytest.mark.parametrize("p,n,d,depth", [
        (2, 3, 2, 1), (3, 2, 2, 1), (5, 3, 2, 1), (2, 4, 2, 1), (2, 3, 3, 1),
        (3, 3, 2, 1), (2, 2, 4, 2), (2, 3, 4, 2), (3, 2, 3, None),
        (5, 2, 2, None)])
    def test_poly_replays_one_draw_per_slot(self, p, n, d, depth):
        seed = 100 * p + 10 * n + d
        scalar, batched = SplitMix64(seed), SplitMix64(seed)
        for _ in range(3):
            slots = [(e, j) for (e, j) in canonical_slots(p, n, d)
                     if depth is None or j < depth]
            terms = {s: scalar.below(p) for s in slots}
            alpha = (TorusValue(p, scalar.below(p**2), 2) if depth is None
                     else TorusValue.zero(p))
            want = NCPoly.from_canonical(CanonicalForm(p, n, alpha, terms))
            got = _random_poly(p, n, d, batched, depth=depth)
            assert got == want and got.canonical() == want.canonical()
            assert batched.state == scalar.state

    @pytest.mark.parametrize("p,n,d", [(2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 1, 3)])
    def test_cauchy_schwarz_weights_replay_scalar_units(self, p, n, d):
        # the sum as it was written with scalar draws and hand-built axes
        f = _random_bounded(p, n, SplitMix64(1))
        scalar, batched = SplitMix64(d), SplitMix64(d)
        sp = space(p, n)
        N = sp.size
        weights = [self._scalar_disc(scalar, N ** (d - 1)).reshape((N,) * (d - 1))
                   for _ in range(d)]
        axes = [np.arange(N).reshape([N if a == t else 1 for a in range(d)])
                for t in range(d)]
        idx = axes[0]
        for t in range(1, d):
            idx = sp.add_indices(idx, axes[t])
        total = f.values[idx]
        for j in range(d):
            total = total * weights[j].reshape([1 if a == j else N for a in range(d)])
        assert _csg2_lhs(f, d, batched) == abs(complex(total.mean()))
        assert batched.state == scalar.state
