"""Torus-valued polynomials: calculus, canonical forms, roots, enumeration."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from toruspoly.catalog import L_over_power, mother_p, mother_q
from toruspoly.core import (
    SUPPORTED_PRIMES,
    BudgetExceeded,
    FVec,
    TorusValue,
    enumerate_space,
    space,
)
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
from toruspoly.suites import _exhaustive_poly_scan, run_suite

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

    def test_methods_agree_on_random_tables(self):
        # every table over (1/p^K)Z/Z is a polynomial; F_p^0 included
        rng = SplitMix64(41)
        for p, n, K in ((2, 0, 3), (2, 3, 3), (3, 2, 3), (5, 1, 3), (7, 1, 2)):
            for _ in range(8):
                P = NCPoly(p, n, np.array([rng.below(p**K)
                                           for _ in range(p**n)]), K)
                assert P.degree() == P.degree_by_derivatives()

    def test_derivative_walk_budget(self):
        P = NCPoly.from_text(3, 2, "1/9*x1^2*x2 + 1/3*x2^2")
        with pytest.raises(BudgetExceeded, match="^difference_degree: "):
            P.degree_by_derivatives(budget=20)
        assert P.degree_by_derivatives(budget=10**6) == P.degree() == 5

    def test_difference_degree_scales_with_weight(self):
        P = L_over_power(3, 2)
        table = P.nums.reshape(2, 2, 2)
        for w in (1, 2, 5):
            gens = [(axis, 1, w) for axis in range(3)]
            assert poly.difference_degree(table, P.K, 2, gens) == 2 * w
        assert poly.difference_degree(np.zeros(4), 2, 2,
                                      [(0, 1, 3)]) == NEG_INF
        assert poly.difference_degree(np.full(4, 8), 4, 2, [(0, 1, 3)]) == 0


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

    def test_eval_table_sums_past_2_to_the_62(self):
        # 5^27 lies between 2^62 and 2^63: the sum of two layers' numerators
        # would wrap int64
        cf = CanonicalForm.from_text(5, 1, f"4/5 + 1/{5**27}*x1 + 4/5*x1")
        P = NCPoly.from_canonical(cf)
        assert P.K == 27
        assert [P.eval(x) for x in enumerate_space(5, 1)] == \
            [cf.eval(x) for x in enumerate_space(5, 1)]


def _assert_tables_match_forms(p, n, tables, K, forms):
    """tables[:, b] holds numerators over p^K of forms[b], point by point."""
    for b, cf in enumerate(forms):
        for x in enumerate_space(p, n):
            assert TorusValue(p, int(tables[x.idx, b]), K) == cf.eval(x)


def _layer_case(p, n, depth, seed, terms=None):
    """Four coefficient columns of one layer at `depth` and their forms over
    p^(depth+1): random in [0, p) with column 0 all p - 1, or nonzero at
    `terms` random exponents per column, which keeps the point-by-point
    check against CanonicalForm.eval short on large spaces."""
    N, K = p**n, depth + 1
    rng = SplitMix64(seed)
    if terms is None:
        coeffs = np.array([[rng.below(p) for _ in range(4)] for _ in range(N)])
        coeffs[:, 0] = p - 1
    else:
        coeffs = np.zeros((N, 4), dtype=np.int64)
        for b in range(4):
            for _ in range(terms):
                coeffs[rng.below(N), b] = 1 + rng.below(p - 1)
    sp = space(p, n)
    forms = [CanonicalForm(p, n, TorusValue(p, int(col[0]), K),
                           {(sp.digits_of(e), depth): int(c)
                            for e, c in enumerate(col) if e})
             for col in coeffs.T]
    return coeffs, forms


@pytest.fixture
def fresh_matrix_cache():
    """An empty monomial matrix cache before and after the test, so that
    cache counts do not depend on which tests ran first."""
    cache = poly._monomial_matrix
    cache.cache_clear()
    yield cache
    cache.cache_clear()


@pytest.fixture
def matrix_requests(monkeypatch, fresh_matrix_cache):
    """(modulus, dtype) of each monomial matrix that the poly kernels fetch."""
    requests = []
    fetch = poly._monomial_matrix

    def spy(p, n, modulus):
        M = fetch(p, n, modulus)
        requests.append((modulus, M.dtype))
        return M

    monkeypatch.setattr(poly, "_monomial_matrix", spy)
    return requests


class TestExactProducts:
    # the layer matrix is float64 while N(p-1) times its largest entry,
    # min(p^(depth+1) - 1, (p-1)^(n(p-1))), stays below 2^53, and Python
    # integers past it: at p = 2 every entry is 0 or 1, so every depth runs
    # on float64; at p = 13, n = 2, depth 13 the sums pass 2^53, so float64
    # products would round there
    @pytest.mark.parametrize("p,n,depth,dtype", [
        (2, 3, 49, np.float64), (2, 3, 50, np.float64),
        (2, 10, 44, np.float64), (2, 10, 49, np.float64),
        (13, 2, 10, np.float64), (13, 2, 11, object), (13, 2, 13, object)])
    def test_layer_products_switch_at_2_to_the_53(self, p, n, depth, dtype,
                                                  matrix_requests):
        N, K = p**n, depth + 1
        top = min(p**K - 1, (p - 1) ** (n * (p - 1)))
        assert (N * (p - 1) * top < 1 << 53) == (dtype is np.float64)
        coeffs, forms = _layer_case(p, n, depth, depth, 16 if N > 169 else None)
        tables = poly.eval_layer_tables(p, n, coeffs, depth, K)
        assert [dt for _, dt in matrix_requests] == [dtype]
        assert tables.dtype == np.int64 and tables.shape == (N, 4)
        _assert_tables_match_forms(p, n, tables, K, forms)

    # S(p-1)(p^K - 1) is 2^53 - 8 at (2, 50, 8) and 7.3e15 at (13, 13, 2);
    # deep slots of high degree at p = 13 have entries near p^K, and at
    # K = 15 their sums pass 2^53, so float64 products would round there
    @pytest.mark.parametrize("p,n,K,S,dtype", [
        (2, 3, 50, 8, np.float64), (2, 3, 50, 9, object),
        (13, 2, 13, 2, np.float64), (13, 2, 13, 3, object),
        (13, 2, 15, 8, object)])
    def test_slot_products_switch_at_2_to_the_53(self, p, n, K, S, dtype):
        assert (S * (p - 1) * (p**K - 1) < 1 << 53) == (dtype is np.float64)
        exps = [space(p, n).digits_of(e) for e in range(p**n - 1, 0, -1)]
        slots = ([(e, K - 1) for e in exps] + [(e, 0) for e in exps])[:S]
        assert poly._slot_basis(p, n, tuple(slots), K).dtype == dtype
        rng = SplitMix64(S)
        coeffs = np.array([[rng.below(p) for _ in slots] for _ in range(5)])
        coeffs[0] = p - 1
        tables = eval_slot_batches(p, n, slots, coeffs, K)
        assert tables.dtype == np.int64
        forms = [CanonicalForm(p, n, TorusValue.zero(p),
                               {s: int(c) for s, c in zip(slots, row)})
                 for row in coeffs]
        _assert_tables_match_forms(p, n, tables.T, K, forms)


_DEEP_FORM = f"1/{2**40}*x1*x2 + 1/2*x3"


class TestSharedMatrix:
    # eval_layer_tables reads every layer with p^(depth+1) | p^D off one
    # matrix M mod p^D, for the largest D with an int64 build and float64
    # storage, and every layer when no monomial value reaches p^D

    def test_one_float64_matrix_for_every_depth_at_p_2(self, matrix_requests,
                                                        fresh_matrix_cache):
        for depth in range(62):
            coeffs, forms = _layer_case(2, 3, depth, depth)
            tables = poly.eval_layer_tables(2, 3, coeffs, depth, depth + 1)
            _assert_tables_match_forms(2, 3, tables, depth + 1, forms)
        assert matrix_requests == [(2**62, np.float64)] * 62
        assert fresh_matrix_cache.cache_info().currsize == 1

    def test_deep_bare_table_builds_one_matrix(self, fresh_matrix_cache):
        cf = CanonicalForm.from_text(2, 10, _DEEP_FORM)
        P = NCPoly.from_canonical(cf)
        assert P.K == 40
        fresh_matrix_cache.cache_clear()
        assert NCPoly(2, 10, P.nums, P.K).canonical() == cf
        assert fresh_matrix_cache.cache_info().currsize == 1

    def test_deep_bare_table_peak_rss(self):
        # one 8 MB matrix rather than one per depth (369 MB for 40 of them);
        # a process inherits the ru_maxrss of the one that forked it, so the
        # round trip runs in a child of a fresh interpreter, which reports
        # the child's ru_maxrss (in KB)
        work = ("from toruspoly.poly import NCPoly\n"
                f"P = NCPoly.from_text(2, 10, {_DEEP_FORM!r})\n"
                "NCPoly(2, 10, P.nums, P.K).canonical()\n")
        script = ("import resource, subprocess, sys\n"
                  f"subprocess.run([sys.executable, '-c', {work!r}], check=True)\n"
                  "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert int(out.stdout.split()[-1]) < 150 * 1024

    def test_unreduced_matrix_serves_every_depth_at_3_6(self, matrix_requests,
                                                        fresh_matrix_cache):
        for depth in range(4):
            coeffs, forms = _layer_case(3, 6, depth, depth, terms=16)
            tables = poly.eval_layer_tables(3, 6, coeffs, depth, depth + 1)
            _assert_tables_match_forms(3, 6, tables, depth + 1, forms)
        (modulus, dtype), = set(matrix_requests)
        assert dtype == np.float64 and modulus > 2**12
        dig = space(3, 6).digits.astype(np.int64)
        exact = np.ones((3**6, 3**6), dtype=np.int64)
        for t in range(6):
            exact *= dig[:, t, None] ** dig[None, :, t]
        assert exact.max() == 2**12
        assert np.array_equal(fresh_matrix_cache(3, 6, modulus), exact)

    # 13^8 times its largest power mod 13^8 is 0.07 * 2^63, at 13^9 it is
    # 11.7 * 2^63; at 11^9 and 11^10 it is 0.29 and 28 * 2^63
    @pytest.mark.parametrize("p,D", [(13, 8), (11, 9)])
    def test_deeper_layers_build_their_own_matrix(self, p, D, matrix_requests):
        assert poly._matrix_dtypes(p, 2, p**D) == (np.int64, np.float64)
        assert poly._matrix_dtypes(p, 2, p ** (D + 1))[0] is object
        for depth in (0, D - 1, D):
            coeffs, forms = _layer_case(p, 2, depth, depth)
            tables = poly.eval_layer_tables(p, 2, coeffs, depth, depth + 1)
            _assert_tables_match_forms(p, 2, tables, depth + 1, forms)
        assert [m for m, _ in matrix_requests] == [p**D, p**D, p ** (D + 1)]


def _coefficient_oracle(p, n, table):
    """Every column of an (N, B) F_p table, rebuilt from its monomial
    coefficients in Python integers (0^0 = 1)."""
    dig = space(p, n).digits.tolist()
    N = p**n
    M = np.array([[int(np.prod([pow(x, e, p) for x, e in zip(dx, de)]))
                   for de in dig] for dx in dig], dtype=np.int64).reshape(N, N)
    return lambda coeffs: M @ coeffs % p


class TestClassicalCoeffs:
    """Float64 per-axis products, reduced mod p once per transform."""

    CASES = [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2)]

    @pytest.mark.parametrize("p,n", CASES)
    def test_every_column_against_the_oracle(self, p, n):
        rng = SplitMix64(p * 10 + n)
        table = np.array([[rng.below(3 * p) - p for _ in range(5)]
                          for _ in range(p**n)], dtype=np.int64)
        coeffs = poly.classical_coeffs(p, n, table)
        assert coeffs.dtype == np.int64 and coeffs.shape == table.shape
        assert ((0 <= coeffs) & (coeffs < p)).all()
        assert np.array_equal(_coefficient_oracle(p, n, table)(coeffs), table % p)

    @pytest.mark.parametrize("run", [1, 2])
    @pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (13, 2)])
    def test_reductions_inside_the_chain(self, monkeypatch, run, p, n):
        # what a table past the 2^53 point does, on a table that fits here:
        # one reduction on entry, one at the end, one every `run` axes
        monkeypatch.setattr(poly, "_float_axes", lambda q: run)
        calls = []
        reduce = poly._reduce
        monkeypatch.setattr(poly, "_reduce",
                            lambda x, q, K: calls.append(x.dtype) or reduce(x, q, K))
        rng = SplitMix64(run)
        table = np.array([[rng.below(p) for _ in range(3)]
                          for _ in range(p**n)], dtype=np.int64)
        coeffs = poly.classical_coeffs(p, n, table)
        assert np.array_equal(_coefficient_oracle(p, n, table)(coeffs), table)
        assert calls.count(np.float64) == (n - 1) // run
        assert len(calls) == 2 + (n - 1) // run

    # at p = 13 a table of 13^7 entries is the first past the 2^53 point
    @pytest.mark.parametrize("p,t", [(3, 20), (5, 11), (7, 9), (11, 7), (13, 6)])
    def test_float_axes_is_the_2_53_point(self, p, t):
        assert poly._float_axes(p) == t
        assert (p - 1) * (p * (p - 1)) ** t < 1 << 53
        assert (p - 1) * (p * (p - 1)) ** (t + 1) >= 1 << 53


class TestKernelLayout:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 2)])
    def test_batch_columns_equal_single_calls(self, p, n):
        N = p**n
        rng = SplitMix64(N)
        batch = np.array([[rng.below(p) for _ in range(7)] for _ in range(N)])
        coeffs = poly.classical_coeffs(p, n, batch)
        layers = poly.eval_layer_tables(p, n, batch, 1, 3)
        assert coeffs.shape == layers.shape == (N, 7)
        for b in range(7):
            assert np.array_equal(coeffs[:, b],
                                  poly.classical_coeffs(p, n, batch[:, b]))
            assert np.array_equal(layers[:, b],
                                  poly.eval_layer_tables(p, n, batch[:, b], 1, 3))

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_interpolate_tables_keeps_leading_shapes(self, lead):
        p, n, K = 3, 2, 2
        slots = canonical_slots(p, n, 3)
        rng = SplitMix64(len(lead))
        rows = np.array([[rng.below(p) for _ in slots]
                         for _ in range(int(np.prod(lead)))])
        tables = eval_slot_batches(p, n, slots, rows, K).reshape(*lead, p**n)
        alpha, C = poly.interpolate_tables(p, n, tables, K)
        assert alpha.shape == lead and C.shape == (*lead, K, p**n)
        for idx in np.ndindex(*lead):
            row_alpha, row_C = poly.interpolate_tables(p, n, tables[idx], K)
            assert row_alpha.shape == () and row_C.shape == (K, p**n)
            assert row_alpha == alpha[idx]
            assert np.array_equal(row_C, C[idx])
        sp = space(p, n)
        recovered = [C.reshape(-1, K, p**n)[:, j, sp.index_of(e)]
                     for e, j in slots]
        assert np.array_equal(np.stack(recovered, axis=1), rows)


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
                assert len(np.unique(P.nums)) <= cap


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

    def test_every_enumerated_within_degree(self):
        for P in enumerate_polys(3, 1, 3):
            assert P.degree() <= 3

    def test_stream_unique(self):
        seen = set()
        for P in enumerate_polys(2, 2, 2):
            key = (P.K, P.nums.tobytes())
            assert key not in seen
            seen.add(key)


def _slots_oracle(p, n, d):
    """canonical_slots one depth and one exponent vector at a time."""
    sp = space(p, n)
    out = []
    j = 0
    while d - j * (p - 1) >= 1:
        for e_idx in range(sp.size):
            exps = sp.digits_of(e_idx)
            if 0 < sum(exps) <= d - j * (p - 1):
                out.append((exps, j))
        j += 1
    return out


def _enumerate_oracle(p, n, d):
    """enumerate_polys one code at a time: a divmod decode of the code into
    slot coefficients, then one table per form."""
    slots = _slots_oracle(p, n, d)
    for code in range(p ** len(slots)):
        terms = {}
        rest = code
        for slot in slots:
            rest, c = divmod(rest, p)
            if c:
                terms[slot] = c
        yield NCPoly.from_canonical(CanonicalForm(p, n, TorusValue.zero(p), terms))


class TestEnumerationOracles:
    """The batched enumeration against the scalar decode it replaced."""

    @pytest.mark.parametrize("p,n_max", [(2, 4), (3, 4), (5, 4), (7, 2),
                                         (11, 2), (13, 2)])
    def test_slots_and_counts(self, p, n_max):
        for n in range(n_max + 1):
            for d in range(-1, 9):
                slots = canonical_slots(p, n, d)
                assert slots == _slots_oracle(p, n, d)
                assert all(type(j) is int and all(type(e) is int for e in exps)
                           for exps, j in slots)
                assert count_polys(p, n, d) == p ** len(slots)

    @pytest.mark.parametrize("entries", [None, 100])
    # n = 0 at a high degree: no slots, so no table over p^K >= 2^63
    @pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 1, 4), (2, 3, 2),
                                       (5, 1, 4), (3, 2, 2), (2, 1, 0),
                                       (2, 0, 100)])
    def test_stream_matches_scalar_decode(self, monkeypatch, entries, p, n, d):
        if entries is not None:
            monkeypatch.setattr(poly, "_BLOCK_ENTRIES", entries)
        got = list(enumerate_polys(p, n, d))
        want = list(_enumerate_oracle(p, n, d))
        assert len(got) == len(want) == count_polys(p, n, d)
        for P, Q in zip(got, want):
            assert P == Q  # K and numerators, in code order
            assert P.canonical() == Q.canonical()
            assert P.canonical().to_text() == Q.canonical().to_text()
            assert type(P.K) is int

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_inverse_vandermonde(self, p):
        V = np.array([[pow(x, i, p) for i in range(p)] for x in range(p)],
                     dtype=np.int64)
        Minv = poly._inverse_vandermonde(p)
        assert np.array_equal(Minv @ V % p, np.eye(p, dtype=np.int64))
        assert np.array_equal(V @ Minv % p, np.eye(p, dtype=np.int64))


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [q for q in SUPPORTED_PRIMES if q != 2])
    def test_floor_reduction_at_the_int64_extremes(self, p):
        # the largest K with p^K < 2^63, where x // m * m wraps the most
        K = max(k for k in range(64) if p**k < 1 << 63)
        m = p**K
        xs = [-(2**63), -(2**63) + 1, -m, -1, 0, m - 1, m, 2**63 - m, 2**63 - 1]
        got = poly._reduce(np.array(xs, dtype=np.int64), p, K)
        assert got.dtype == np.int64
        assert got.tolist() == [x % m for x in xs]
        # Python-integer arrays keep %
        big = np.array([x * 10**30 for x in xs], dtype=object)
        assert poly._reduce(big, p, K).tolist() == [x * 10**30 % m for x in xs]

    def test_canonical_slots_returns_a_fresh_list(self):
        slots = canonical_slots(3, 2, 3)
        want = list(slots)
        slots.append(((0, 0), 0))
        slots[0] = None
        assert canonical_slots(3, 2, 3) == want
        assert canonical_slots(3, 2, 3) is not canonical_slots(3, 2, 3)

    # every block of the small cells; the first blocks of cells with so
    # many slots that p^s passes 2^63 - 1, where the digits are all 0
    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 3, 2), (5, 2, 2),
                                       (2, 0, 4), (3, 0, 0), (2, 1, 200),
                                       (3, 1, 400), (13, 1, 400)])
    def test_digit_split_equals_the_divmod_loop(self, p, n, d):
        for slots, codes, coeffs in itertools.islice(
                coefficient_batches(p, n, d), 20):
            want = np.empty((len(codes), len(slots)), dtype=np.int64)
            rest = codes.copy()
            for s in range(len(slots)):
                want[:, s] = rest % p
                rest //= p
            assert np.array_equal(coeffs, want)

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

    def test_roots_suite_on_f_p_0(self):
        # one form (the zero one) at any degree; K = 0 keeps p^K in int64
        rep = run_suite("roots", params={"grids": [[2, 0, 100]],
                                         "random_trials": 0,
                                         "weighted_trials": 0})
        cells = [c for c in rep.checks if c.name.endswith("-exhaustive")]
        assert len(cells) == 2
        assert all(c.passed and c.details["polynomials"] == 1 for c in cells)


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
