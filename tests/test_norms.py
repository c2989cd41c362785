"""Uniformity norms, analytic rank, Fourier analysis, decomposition."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from toruspoly.catalog import L_over_power, S_k
from toruspoly.core import BudgetExceeded, FVec, TorusValue, UnityCounter, space
from toruspoly.forms import bias, dk_extract
from toruspoly.norms import (
    BoundedFunction,
    RankWitness,
    analytic_rank,
    conditional_expectation,
    gowers_norm,
    gowers_power,
    gowers_power_exact,
    inverse_explore,
    rank_witness_check,
    verify_gowers_properties,
    walsh_fourier,
    _gowers_power_direct,
    _random_bounded,
)
from toruspoly.poly import CanonicalForm, NCPoly, canonical_slots, enumerate_polys
from toruspoly.rng import SplitMix64


class TestMultDerivative:
    def test_constant_one(self):
        one = BoundedFunction.constant_one(2, 3)
        d = one.mult_derivative(FVec.from_digits(2, [1, 0, 1]))
        assert np.allclose(d.values, 1)

    def test_phase_derivative_exact(self):
        P = NCPoly.from_text(2, 2, "1/4*x1*x2")
        f = BoundedFunction.from_phase(P)
        h = FVec.from_digits(2, [1, 1])
        d = f.mult_derivative(h)
        dP = P.derivative(h)
        assert d.phase_nums is not None
        assert NCPoly(2, 2, d.phase_nums, d.phase_K) == dP

    def test_zero_shift_gives_modulus_squared(self):
        rng = SplitMix64(3)
        f = _random_bounded(2, 3, rng)
        d = f.mult_derivative(FVec.zero(2, 3))
        assert np.allclose(d.values, np.abs(f.values) ** 2)


class TestGowersNorm:
    def test_constant(self):
        one = BoundedFunction.constant_one(2, 3)
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
        monkeypatch.setattr(UnityCounter, "expectation",
                            lambda self: seen.append(self.counts.copy())
                            or expectation(self))
        # the folded estimate never exceeds the unfolded N^(d+1)
        exact = gowers_power_exact(P, d, budget=N ** (d + 1))
        assert np.array_equal(seen[0], _brute_cube_residues(P, d))
        assert exact.total == N ** (d + 1)
        for f in (BoundedFunction.from_phase(P), _random_bounded(p, n, rng)):
            folded = gowers_power(f, d, budget=N ** (d + 1))
            assert abs(folded - _gowers_power_direct(f, d)) < 1e-12


    # p^K past the dense bound: (2, 1, 40) would need an 8 TiB array
    @pytest.mark.parametrize("p,n,K,d", [(2, 1, 40, 1), (2, 1, 40, 2),
                                         (3, 2, 30, 2), (2, 3, 2, 2)])
    def test_sparse_counter_matches(self, monkeypatch, p, n, K, d):
        rng = SplitMix64(7 * K + d)
        P = NCPoly(p, n, np.array([rng.below(p**K) for _ in range(p**n)],
                                  dtype=np.int64), K)
        exact = gowers_power_exact(P, d)
        assert exact.total == p ** (n * (d + 1))
        assert abs(exact.as_complex()
                   - gowers_power(BoundedFunction.from_phase(P), d)) < 1e-12
        # a dense counter and a dict of the same counts give the same sum
        monkeypatch.setattr("toruspoly.core._DENSE_COUNTERS", 0)
        sparse = gowers_power_exact(P, d)
        assert sparse.total == exact.total
        assert sparse.numerator.coeffs == exact.numerator.coeffs


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
        P = S_k(5, 4)
        w = RankWitness.induced(P, [L_over_power(5, 3)])
        assert rank_witness_check(P, 3, w)

    def test_constant_empty_witness(self):
        C = NCPoly.constant(2, 3, TorusValue(2, 1, 1))
        w = RankWitness.induced(C, [])
        assert rank_witness_check(C, 1, w)

    def test_independent_coordinate_fails(self):
        P = NCPoly.from_text(2, 2, "1/2*x1")
        w = RankWitness.induced(P, [NCPoly.from_text(2, 2, "1/2*x2")])
        assert not rank_witness_check(P, 1, w)

    def test_incomplete_table_raises(self):
        P = NCPoly.from_text(2, 2, "1/2*x1")
        w = RankWitness([NCPoly.from_text(2, 2, "1/2*x2")], {})
        with pytest.raises(ValueError):
            rank_witness_check(P, 1, w)

    def test_degree_guard(self):
        P = S_k(4, 4)
        w = RankWitness.induced(P, [S_k(4, 4)])
        with pytest.raises(ValueError):
            rank_witness_check(P, 3, w)


class TestFourier:
    def test_character_delta(self):
        f = BoundedFunction.from_phase(NCPoly.from_text(2, 3, "1/2*x1"))
        fh = walsh_fourier(f)
        assert abs(fh[1] - 1) < 1e-12
        assert np.abs(np.delete(fh, 1)).max() < 1e-12

    def test_constant_delta_at_zero(self):
        fh = walsh_fourier(BoundedFunction.constant_one(3, 2))
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


class TestInverseExplore:
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
        f = BoundedFunction.constant_one(2, 2)
        first = inverse_explore(f, 2)
        second = inverse_explore(f, 2)
        assert first[1] == second[1] == pytest.approx(1.0)
        assert first[0] == second[0] == NCPoly.zero(2, 2)

    def test_complex_json_ingestion(self):
        obj = {"p": 2, "n": 1,
               "values": [{"re": 0.5, "im": 0.1}, {"re": -0.25, "im": 0.0}]}
        f = BoundedFunction.from_json(obj)
        assert f.phase_nums is None
        assert f.values[0] == 0.5 + 0.1j
        assert f.is_one_bounded()


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
                    tv = T.evaluate([FVec(2, 3, h1), FVec(2, 3, h2)])
                    total += (-1) ** tv * w1[h2] * w2[h1]
            assert abs(total) / N**2 <= b ** 0.5 + 1e-9


class TestPropertySuite:
    def test_all_properties_pass(self):
        recs = verify_gowers_properties(2, 3, seed=99, count=10)
        assert recs and all(r["pass"] for r in recs)
        names = {r["check"] for r in recs}
        assert {"triangle", "monotonicity", "lq-bound", "cauchy-schwarz-1",
                "cauchy-schwarz-2", "modulation"} <= names

    def test_modulation_exact_for_phases(self):
        rng = SplitMix64(37)
        f = _random_bounded(2, 4, rng)
        P = NCPoly.from_text(2, 4, "1/2*x1*x2 + 1/2*x3")
        assert abs(gowers_norm(f.modulate(P), 3) - gowers_norm(f, 3)) < 1e-10
