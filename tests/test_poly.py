"""Torus-valued polynomials: calculus, canonical forms, roots, enumeration."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from toruspoly.catalog import L_over_power, mother_p, mother_q
from toruspoly.core import (
    SPACE_CAP,
    SUPPORTED_PRIMES,
    BudgetExceeded,
    TorusValue,
    _int_dtype,
    space,
)
from toruspoly import poly, suites
from toruspoly.poly import (
    CanonicalForm,
    NCPoly,
    canonical_slots,
    coefficient_batches,
    count_polys,
    enumerate_polys,
    eval_slot_batches,
)
from toruspoly.norms import _random_coeffs, _random_poly
from toruspoly.rng import SplitMix64
from toruspoly.suites import _exhaustive_poly_scan, _root_block_check, run_suite

NEG_INF = float("-inf")


def vec(p, *digits):
    """The index of the point with these digits, digit 1 least significant."""
    return space(p, len(digits)).index_of(list(digits))


def points(p, n):
    """The index of every point of F_p^n, in order."""
    return range(p**n)


def shifted(P, h):
    """x -> P(x + h), a gather through the shift permutation."""
    return NCPoly(P.p, P.n, P.nums[space(P.p, P.n).shift_perm(h)], P.K)


def constant(p, n, value):
    """The constant polynomial with the given torus value."""
    return NCPoly(p, n, np.full(p**n, value.num), value.exp)


def classical_product(P, Q):
    """The pointwise product in F_p of two classical polynomials."""
    return NCPoly.from_classical_table(
        P.p, P.n, P.classical_table() * Q.classical_table() % P.p)


class TestEval:
    def test_mother_values(self):
        assert mother_p().eval(vec(2, 1)) == TorusValue(2, 1, 1)
        assert mother_q().eval(vec(2, 1)) == TorusValue(2, 1, 2)
        assert mother_q().eval(vec(2, 0)).is_zero()

    def test_l_over_four(self):
        P = L_over_power(2, 2)
        assert P.eval(vec(2, 1, 1)) == TorusValue(2, 1, 1)

    def test_dimension_mismatch(self):
        # (1, 1) in F_2^2 has index 3, which is no point of F_2^1
        with pytest.raises(ValueError, match="not a point index"):
            mother_p().eval(vec(2, 1, 1))

    def test_canonical_eval_matches_table(self):
        P = NCPoly.from_text(3, 2, "2/9*x1^2*x2 + 1/3*x2")
        for x in points(3, 2):
            assert P.canonical().eval(x) == P.eval(x)


class TestDerivative:
    def test_mother_q_derivative(self):
        dQ = mother_q().derivative(vec(2, 1))
        assert dQ.eval(vec(2, 0)) == TorusValue(2, 1, 2)
        assert dQ.eval(vec(2, 1)) == TorusValue(2, 3, 2)
        # equivalently 1/4 - P
        quarter = constant(2, 1, TorusValue(2, 1, 2))
        assert dQ == quarter - mother_p()

    def test_constant_derivative_vanishes(self):
        C = constant(2, 3, TorusValue(2, 3, 3))
        assert C.derivative(vec(2, 1, 0, 1)) == NCPoly.zero(2, 3)

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
            h = rng.below(N)
            k = rng.below(N)
            lhs = P.derivative(space(3, 2).add_indices(h, k))
            rhs = P.derivative(h) + shifted(P.derivative(k), h)
            assert lhs == rhs

    def test_shift_p_times_is_identity(self):
        for p, n in ((2, 3), (3, 2), (5, 1)):
            rng = SplitMix64(p)
            P = NCPoly.from_values(
                p, n,
                [TorusValue(p, rng.below(p**2), 2)
                 for _ in range(space(p, n).size)])
            h = rng.below(space(p, n).size)
            Q = P
            for _ in range(p):
                Q = shifted(Q, h)
            assert Q == P

    def test_leibniz_rule_classical(self):
        rng = SplitMix64(17)
        N = space(2, 3).size
        for _ in range(30):
            fa = np.array([rng.below(2) for _ in range(N)])
            fb = np.array([rng.below(2) for _ in range(N)])
            P = NCPoly.from_classical_table(2, 3, fa)
            Q = NCPoly.from_classical_table(2, 3, fb)
            PQ = classical_product(P, Q)
            h = rng.below(N)
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

    def test_l_over_power_past_the_dense_cells(self):
        # F_2^13 has no monomial matrix (N^2 = 2^26 passes SPACE_CAP), so
        # its interpolation runs on the per-axis pass
        assert L_over_power(13, 3).degree() == 3

    def test_constant_degree_zero(self):
        C = constant(3, 1, TorusValue(3, 1, 2))
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
        assert P.mul_by_p() == NCPoly.zero(2, 2)

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
        assert Q.eval(0) == TorusValue(5, 5**26 - 1, 26)
        S = P + P
        assert S.eval(0) == TorusValue(5, 5**27 - 2, 27)
        for R, text in ((Q, f"{5**26 - 1}/{5**26}"), (S, f"{5**27 - 2}/{5**27}")):
            bare = NCPoly(5, 1, R.nums, R.K)
            assert bare.canonical() == CanonicalForm.from_text(5, 1, text)


class TestPthRoot:
    def test_root_of_zero(self):
        assert NCPoly.zero(2, 2).pth_root() == NCPoly.zero(2, 2)

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


_F_2_20_FORM = "1/8*x1*x2 + 1/4*x3 + 1/2*x4*x5*x20"


class TestInterpolate:
    def test_constant(self):
        C = constant(2, 2, TorusValue(2, 3, 2))
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

    @pytest.mark.parametrize("p,K", [(3, 25), (3, 38), (5, 20), (2, 62)])
    def test_bare_table_round_trip_deep(self, p, K):
        # p^(2K-1) exceeds 2^63 here, so the digits must be read without
        # scaling the residue up
        P = NCPoly.from_text(p, 2, f"1/{p**K}*x1 + 1/{p}*x2")
        assert P.K == K
        assert NCPoly(p, 2, P.nums, P.K).canonical() == P.canonical()

    @pytest.mark.parametrize("K", [8, 9, 14, 15])
    def test_monomial_products_past_int64(self, K):
        # F_13^2 has no monomial matrix, so its layers take the per-axis
        # pass; from K = 9 on, 13 * 13^(2K) passes 2^63 and the pass must
        # not wrap
        assert poly._monomial_matrix(13, 2) is None
        text = f"1/{13**K}*x1^12*x2^12"
        cf = CanonicalForm.from_text(13, 2, text)
        P = NCPoly.from_canonical(cf)
        assert P.K == K and P.nums.dtype == np.int64
        assert [P.eval(x) for x in points(13, 2)] == \
            [cf.eval(x) for x in points(13, 2)]
        assert NCPoly(13, 2, P.nums, P.K).canonical() == cf

    def test_table_exponent_past_int64_rejected(self):
        with pytest.raises(ValueError, match="exceeds 2\\^63"):
            NCPoly(3, 1, [1, 2, 0], 40)
        with pytest.raises(ValueError, match="exceeds 2\\^63"):
            NCPoly.from_text(2, 2, f"1/{2**62}*x1 + 1/2*x2").pth_root()
        assert NCPoly(3, 1, [1, 2, 0], 39).K == 39

    def test_round_trip_on_f_2_20(self):
        # past the dense cells: both directions run on the per-axis pass
        cf = CanonicalForm.from_text(2, 20, _F_2_20_FORM)
        P = NCPoly.from_canonical(cf)
        assert P.K == 3
        assert NCPoly(2, 20, P.nums, P.K).canonical() == cf

    def test_eval_table_layers_in_int8(self):
        # at (2, 20), K = 3 the coefficient layers take 3 MiB in int8, where
        # K x N int64 took 24 MiB; the int8 table and one int32 subset-sum
        # pass with its reduction make up most of the rest
        cf = CanonicalForm.from_text(2, 20, _F_2_20_FORM)
        space(2, 20).size  # cached before the measurement
        tracemalloc.start()
        try:
            nums, K = cf.eval_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K == 3 and nums.dtype == np.int8
        assert peak < 16 * 2**20

    def test_eval_table_sums_past_2_to_the_62(self):
        # 5^27 lies between 2^62 and 2^63: the sum of two layers' numerators
        # would wrap int64
        cf = CanonicalForm.from_text(5, 1, f"4/5 + 1/{5**27}*x1 + 4/5*x1")
        P = NCPoly.from_canonical(cf)
        assert P.K == 27
        assert [P.eval(x) for x in points(5, 1)] == \
            [cf.eval(x) for x in points(5, 1)]


def _assert_tables_match_forms(p, n, tables, K, forms):
    """tables[:, b] holds numerators over p^K of forms[b], point by point."""
    for b, cf in enumerate(forms):
        for x in points(p, n):
            assert TorusValue(p, int(tables[x, b]), K) == cf.eval(x)


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
    """The dtype of each monomial matrix that the poly kernels fetch, None
    where (p, n) has none."""
    requests = []
    fetch = poly._monomial_matrix

    def spy(p, n):
        M = fetch(p, n)
        requests.append(None if M is None else M.dtype)
        return M

    monkeypatch.setattr(poly, "_monomial_matrix", spy)
    return requests


@pytest.fixture
def per_axis_only(monkeypatch):
    """Every layer takes the per-axis pass, as past the dense cells."""
    monkeypatch.setattr(poly, "_monomial_matrix", lambda p, n: None)


def _ladder(bound):
    """The dtype for products whose partial sums stay below bound: float32
    below 2^24, float64 below 2^53, Python integers past both."""
    return (np.float32 if bound < 1 << 24 else np.float64 if bound < 1 << 53
            else object)


class TestExactProducts:
    # the layer matrix holds exact monomial values, at most (p-1)^(n(p-1)):
    # float32 while N(p-1) times that stays below 2^24, float64 below 2^53,
    # and past it no matrix, so the layer takes the per-axis pass: at p = 2
    # every entry is 0 or 1, so every depth runs on float32; the sums reach
    # 6.6e6 at (5, 2), 8.4e9 at (5, 3) and 1.4e15 at (13, 1), so float32
    # would round at the last two; at (3, 6) they stay at 6.0e6, and at
    # (5, 5), (7, 3) and (13, 2) they pass 2^53
    @pytest.mark.parametrize("p,n,depth,dtype", [
        (2, 3, 49, np.float32), (2, 3, 50, np.float32),
        (2, 10, 44, np.float32), (2, 10, 49, np.float32),
        (3, 6, 3, np.float32), (5, 2, 2, np.float32), (5, 3, 2, np.float64),
        (13, 1, 10, np.float64), (5, 5, 2, object), (7, 3, 2, object),
        (13, 2, 11, object), (13, 2, 13, object)])
    def test_layer_products_switch_at_2_to_the_53(self, p, n, depth, dtype,
                                                  matrix_requests):
        N, K = p**n, depth + 1
        coeffs, forms = _layer_case(p, n, depth, depth, 16 if N > 169 else None)
        tables = poly.eval_layer_tables(p, n, coeffs, depth, K)
        assert _ladder(N * (p - 1) * (p - 1) ** (n * (p - 1))) is dtype
        assert matrix_requests == [None if dtype is object else dtype]
        assert tables.dtype == poly._table_dtype(p, K) and tables.shape == (N, 4)
        _assert_tables_match_forms(p, n, tables, K, forms)

    # S(p-1)(p^K - 1) is 2^24 - 8 at (2, 21, 8), 1.3e7 at (13, 5, 3),
    # 2^53 - 8 at (2, 50, 8) and 7.3e15 at (13, 13, 2); deep slots of high
    # degree at p = 13 have entries near p^K, and at K = 15 their sums pass
    # 2^53, so float64 products would round there
    @pytest.mark.parametrize("p,n,K,S,dtype", [
        (2, 3, 21, 8, np.float32), (2, 3, 21, 9, np.float64),
        (13, 2, 5, 3, np.float32), (13, 2, 5, 4, np.float64),
        (2, 3, 50, 8, np.float64), (2, 3, 50, 9, object),
        (13, 2, 13, 2, np.float64), (13, 2, 13, 3, object),
        (13, 2, 15, 8, object)])
    def test_slot_products_switch_at_2_to_the_53(self, p, n, K, S, dtype):
        assert _ladder(S * (p - 1) * (p**K - 1)) is dtype
        exps = [space(p, n).digits_of(e) for e in range(p**n - 1, 0, -1)]
        slots = ([(e, K - 1) for e in exps] + [(e, 0) for e in exps])[:S]
        assert poly._slot_basis(p, n, tuple(slots), K).dtype == dtype
        rng = SplitMix64(S)
        coeffs = np.array([[rng.below(p) for _ in slots] for _ in range(5)])
        coeffs[0] = p - 1
        tables = eval_slot_batches(p, n, slots, coeffs, K)
        assert tables.dtype == poly._table_dtype(p, K)
        forms = [CanonicalForm(p, n, TorusValue.zero(p),
                               {s: int(c) for s, c in zip(slots, row)})
                 for row in coeffs]
        _assert_tables_match_forms(p, n, tables, K, forms)


_DEEP_FORM = f"1/{2**40}*x1*x2 + 1/2*x3"


class TestSharedMatrix:
    # eval_layer_tables reads every depth off one exact matrix per (p, n),
    # where _exact_dtype picks a float for it and N^2 is inside SPACE_CAP;
    # everywhere else every depth takes the per-axis pass

    def test_one_float32_matrix_for_every_depth_at_p_2(self, matrix_requests,
                                                        fresh_matrix_cache):
        for depth in range(62):
            coeffs, forms = _layer_case(2, 3, depth, depth)
            tables = poly.eval_layer_tables(2, 3, coeffs, depth, depth + 1)
            _assert_tables_match_forms(2, 3, tables, depth + 1, forms)
        assert matrix_requests == [np.float32] * 62
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
        # N(p-1) 2^12 = 6.0e6 < 2^24: every entry and sum is exact in float32
        assert matrix_requests == [np.float32] * 4
        dig = space(3, 6).digits.astype(np.int64)
        exact = np.ones((3**6, 3**6), dtype=np.int64)
        for t in range(6):
            exact *= dig[:, t, None] ** dig[None, :, t]
        assert exact.max() == 2**12
        assert np.array_equal(fresh_matrix_cache(3, 6), exact)

    def test_unreduced_matrix_builds_in_place(self, fresh_matrix_cache):
        # the float32 matrix at (2, 10) is built in its storage dtype: the
        # matrix and one N x N gather at a time, 2 N^2 4 bytes (8.4 MB),
        # where int64 products, their reductions and a final copy took 25 MB
        N = 2**10
        space(2, 10).digits  # cached before the measurement
        tracemalloc.start()
        try:
            M = fresh_matrix_cache(2, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.dtype == np.float32 and M.shape == (N, N)
        assert peak <= 1.05 * 2 * N * N * 4
        dig = space(2, 10).digits
        assert np.array_equal(M, (dig[None, :, :] <= dig[:, None, :]).all(axis=2))

    # the dense cells stop at F_2^12, F_3^7, F_5^4, F_7^2, F_11^1 and F_13^1:
    # one more axis takes N^2 past SPACE_CAP or the sums past float64
    @pytest.mark.parametrize("p,n", [(2, 12), (3, 7), (5, 4), (7, 2),
                                     (11, 1), (13, 1)])
    def test_dense_cells_stop_at(self, p, n):
        N = p**n
        assert N * N <= SPACE_CAP
        assert _ladder(N * (p - 1) * (p - 1) ** (n * (p - 1))) is not object
        assert poly._monomial_matrix.__wrapped__(p, n + 1) is None

    def test_layers_past_float64_take_the_per_axis_pass(self, matrix_requests):
        # at p = 13, n = 2 the exact monomial values reach 12^24, past
        # float64: no matrix, and every depth runs one pass per axis
        for depth in range(16):
            coeffs, forms = _layer_case(13, 2, depth, depth, terms=3)
            tables = poly.eval_layer_tables(13, 2, coeffs, depth, depth + 1)
            _assert_tables_match_forms(13, 2, tables, depth + 1, forms)
        assert matrix_requests == [None] * 16


def _coefficient_oracle(p, n, table):
    """Every column of an (N, B) F_p table, rebuilt from its monomial
    coefficients in Python integers (0^0 = 1)."""
    dig = space(p, n).digits.tolist()
    N = p**n
    M = np.array([[int(np.prod([pow(x, e, p) for x, e in zip(dx, de)]))
                   for de in dig] for dx in dig], dtype=np.int64).reshape(N, N)
    return lambda coeffs: M @ coeffs % p


class TestClassicalCoeffs:
    """Float64 per-axis products, reduced mod p once per transform; past
    SPACE_CAP entries the transform is refused (tests/test_core.py)."""

    CASES = [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2)]

    @pytest.mark.parametrize("p,n", CASES)
    def test_every_column_against_the_oracle(self, p, n):
        rng = SplitMix64(p * 10 + n)
        table = np.array([[rng.below(3 * p) - p for _ in range(5)]
                          for _ in range(p**n)], dtype=np.int64)
        coeffs = poly.classical_coeffs(p, n, table)
        assert coeffs.dtype == np.int8 and coeffs.shape == table.shape
        assert ((0 <= coeffs) & (coeffs < p)).all()
        assert np.array_equal(_coefficient_oracle(p, n, table)(coeffs), table % p)

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    def test_float_chain_stays_below_2_53_inside_the_cap(self, p):
        # after t axes the entries stay below (p-1)(p(p-1))^t; the largest
        # table inside SPACE_CAP has n axes
        n = max(n for n in range(1, 25) if p**n <= SPACE_CAP)
        assert (p - 1) * (p * (p - 1)) ** n < 1 << 53


# The last K of each rung of _table_dtype and the first K of the next, which
# holds p^(K+1) where the rung below does not: 2^6, 3^4 and 13 are at most
# 2^7 - 1; 2^14, 3^9 and 13^4 at most 2^15 - 1; 2^30, 3^19 and 13^8 at most
# 2^31 - 1.  F_p^2 at p = 2, 3 and F_13^1 keep the oracles short.
_RUNGS = (np.int8, np.int16, np.int16, np.int32, np.int32, np.int64)
_SWITCHES = {2: (5, 6, 13, 14, 29, 30), 3: (3, 4, 8, 9, 18, 19),
             13: (0, 1, 3, 4, 7, 8)}
_LADDER = [(p, K, dt) for p, Ks in _SWITCHES.items()
           for K, dt in zip(Ks, _RUNGS)]
_SOURCES = (np.int8, np.int16, np.int32, np.int64)


def _full_range(rng, dtype, shape):
    """Entries across dtype's whole range, its two extremes first."""
    info = np.iinfo(dtype)
    span = info.max - info.min + 1
    vals = [info.min, info.max] + [info.min + int(v) % span
                                   for v in rng.draws(int(np.prod(shape)) - 2)]
    return np.array(vals, dtype=dtype).reshape(shape)


class TestTableDtypeLadder:
    """Each narrowed kernel at every switch point of _table_dtype, against
    CanonicalForm's point evaluator: int8 and int16 wrap silently, so only
    these comparisons would see a table that left its rung."""

    @pytest.mark.parametrize("p,K,dt", _LADDER)
    def test_rungs(self, p, K, dt):
        assert poly._table_dtype(p, K) == dt
        assert p ** (K + 1) <= np.iinfo(dt).max
        if dt is not np.int8:
            assert p ** (K + 1) > np.iinfo(_RUNGS[_RUNGS.index(dt) - 1]).max

    @pytest.mark.parametrize("p,K,dt", [c for c in _LADDER if c[1]])
    def test_layer_and_slot_tables(self, p, K, dt):
        n = 1 if p == 13 else 2
        # depth 0 is scaled by p^(K-1) into the table's rung
        for depth in sorted({0, K - 1}):
            coeffs, forms = _layer_case(p, n, depth, K)
            tables = poly.eval_layer_tables(p, n, coeffs, depth, K)
            assert tables.dtype == dt
            _assert_tables_match_forms(p, n, tables, K, forms)
        exps = [space(p, n).digits_of(e) for e in range(1, p**n)]
        slots = [(e, j) for j in sorted({0, K - 1}) for e in exps]
        rng = SplitMix64(K)
        coeffs = np.array([[rng.below(p) for _ in slots] for _ in range(4)])
        coeffs[0] = p - 1
        tables = eval_slot_batches(p, n, slots, coeffs, K)
        assert tables.dtype == dt
        forms = [CanonicalForm(p, n, TorusValue.zero(p),
                               {s: int(c) for s, c in zip(slots, row)})
                 for row in coeffs]
        _assert_tables_match_forms(p, n, tables, K, forms)

    # at (13, 12) the top slot's degree + 1, 12 + 11 * 12 + 1 = 145, takes
    # degrees_from_coeffs past int8
    @pytest.mark.parametrize("source", _SOURCES)
    @pytest.mark.parametrize("p,K,dt", _LADDER + [(13, 12, np.int64)])
    def test_interpolation_of_any_integer_table(self, p, K, dt, source):
        # every table over p^K is a polynomial, so entries negative or past
        # p^K, in any integer type, interpolate to the table mod p^K
        n = 1 if p == 13 else 2
        sp = space(p, n)
        tables = _full_range(SplitMix64(K), source, (3, sp.size)).T
        alpha, C = poly.interpolate_tables(p, n, tables, K)
        assert alpha.dtype == dt and C.dtype == np.int8
        degrees = poly.degrees_from_coeffs(p, n, alpha, C)
        for b in range(3):
            cf = CanonicalForm(p, n, TorusValue(p, int(alpha[b]), K),
                               {(sp.digits_of(int(e)), int(j)): int(C[j, e, b])
                                for j, e in zip(*np.nonzero(C[:, :, b]))})
            assert degrees[b] == cf.degree()
            for x in points(p, n):
                assert cf.eval(x) == TorusValue(p, int(tables[x, b]) % p**K, K)

    @pytest.mark.parametrize("source", _SOURCES)
    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_classical_coeffs_of_any_integer_table(self, p, source):
        n = 1 if p == 13 else 2
        table = _full_range(SplitMix64(p), source, (p**n, 3))
        coeffs = poly.classical_coeffs(p, n, table)
        assert coeffs.dtype == np.int8
        assert np.array_equal(_coefficient_oracle(p, n, table)(coeffs), table % p)


class TestPerAxisPass:
    """eval_layer_tables without a monomial matrix: one pass per axis by
    a^e mod p^(depth+1), against CanonicalForm's point evaluator."""

    # the pass reduces mod m = p^(depth+1) after each axis, so its sums stay
    # below p m^2: 13^17 < 2^63 at depth 7, 13^19 and 11^19 past it at 8
    @pytest.mark.parametrize("p,depth", [(13, 7), (13, 8), (11, 7), (11, 8)])
    def test_switch_to_python_integers(self, p, depth, monkeypatch):
        m = p ** (depth + 1)
        assert (p * m * m < 1 << 63) == (depth == 7)
        kinds = []
        reduce = poly._reduce

        def spy(x, q, K):
            kinds.append(x.dtype.kind)
            return reduce(x, q, K)

        monkeypatch.setattr(poly, "_reduce", spy)
        coeffs, forms = _layer_case(p, 2, depth, depth)
        tables = poly.eval_layer_tables(p, 2, coeffs, depth, depth + 1)
        assert ("O" in kinds) == (depth == 8)
        _assert_tables_match_forms(p, 2, tables, depth + 1, forms)

    @pytest.mark.parametrize("p,K,dt", [c for c in _LADDER if c[1]])
    def test_table_dtype_switches(self, p, K, dt, per_axis_only):
        n = 1 if p == 13 else 2
        for depth in sorted({0, K - 1}):
            coeffs, forms = _layer_case(p, n, depth, K)
            tables = poly.eval_layer_tables(p, n, coeffs, depth, K)
            assert tables.dtype == dt
            _assert_tables_match_forms(p, n, tables, K, forms)

    # at (2, 10) the subset sums reach 2^10, past int8 and mod 2^10 at depth 9
    @pytest.mark.parametrize("p,n", [(2, 6), (2, 10), (3, 4), (5, 3), (7, 2)])
    def test_equals_the_dense_path_on_exact_cells(self, p, n, monkeypatch):
        assert poly._monomial_matrix(p, n) is not None
        N = p**n
        rng = SplitMix64(N)
        for depth, K in [(0, 1), (0, 3), (2, 3), (5, 6), (9, 10)]:
            # column-major, as a transposed batch arrives
            coeffs = np.asfortranarray(rng.draws(N * 5).reshape(N, 5) % p)
            dense = poly.eval_layer_tables(p, n, coeffs, depth, K)
            with monkeypatch.context() as patch:
                patch.setattr(poly, "_monomial_matrix", lambda p, n: None)
                by_axis = poly.eval_layer_tables(p, n, coeffs, depth, K)
            assert by_axis.dtype == dense.dtype
            assert np.array_equal(by_axis, dense)


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
        tables = eval_slot_batches(p, n, slots, rows, K).reshape(p**n, *lead)
        alpha, C = poly.interpolate_tables(p, n, tables, K)
        assert alpha.shape == lead and C.shape == (K, p**n, *lead)
        for idx in np.ndindex(*lead):
            row_alpha, row_C = poly.interpolate_tables(p, n, tables[(..., *idx)], K)
            assert row_alpha.shape == () and row_C.shape == (K, p**n)
            assert row_alpha == alpha[idx]
            assert np.array_equal(row_C, C[(..., *idx)])
        sp = space(p, n)
        recovered = [C.reshape(K, p**n, -1)[j, sp.index_of(e)]
                     for e, j in slots]
        assert np.array_equal(np.stack(recovered, axis=1), rows)

    # every batched kernel takes and returns the table axis first, then the
    # batch axes; each table of a batch against CanonicalForm.eval
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("p,n,d", [(2, 3, 4), (3, 2, 3), (5, 1, 6)])
    def test_table_first_kernels_against_the_point_evaluator(self, batch, p,
                                                              n, d):
        sp, N = space(p, n), p**n
        slots = canonical_slots(p, n, d)
        K = poly._depth_count(p, d)
        rng = SplitMix64(N + d + len(batch))
        coeffs = np.array([rng.below(p) for _ in range(int(np.prod(batch))
                                                       * len(slots))],
                          dtype=np.int8).reshape(*batch, len(slots))
        tables = eval_slot_batches(p, n, slots, coeffs, K)
        assert tables.shape == (N, *batch)
        alpha, C = poly.interpolate_tables(p, n, tables, K)
        assert alpha.shape == batch and C.shape == (K, N, *batch)
        degrees = poly.degrees_from_coeffs(p, n, alpha, C)
        assert degrees.shape == batch
        layer = poly.eval_layer_tables(p, n, C[K - 1], K - 1, K)
        classical = poly.classical_coeffs(p, n, tables % p)
        assert layer.shape == classical.shape == (N, *batch)
        for idx in np.ndindex(*batch):
            at = (slice(None), *idx)
            cf = CanonicalForm(p, n, TorusValue.zero(p),
                               {s: int(c) for s, c in zip(slots, coeffs[idx])})
            back = CanonicalForm(
                p, n, TorusValue(p, int(alpha[idx]), K),
                {(sp.digits_of(int(e)), int(j)): int(C[(j, e, *idx)])
                 for j, e in zip(*np.nonzero(C[(slice(None), *at)]))})
            deepest = CanonicalForm(
                p, n, TorusValue(p, int(C[(K - 1, 0, *idx)]), K),
                {(sp.digits_of(e), K - 1): int(c)
                 for e, c in enumerate(C[(K - 1, *at)]) if e and c})
            mod_p = CanonicalForm(
                p, n, TorusValue(p, int(classical[(0, *idx)]), 1),
                {(sp.digits_of(e), 0): int(c)
                 for e, c in enumerate(classical[at]) if e and c})
            assert back == cf and degrees[idx] == cf.degree()
            for x in points(p, n):
                want = cf.eval(x)
                assert TorusValue(p, int(tables[(x, *idx)]), K) == want
                assert back.eval(x) == want
                assert TorusValue(p, int(layer[(x, *idx)]), K) == deepest.eval(x)
                assert mod_p.eval(x) == TorusValue(p, int(tables[(x, *idx)]) % p, 1)


class TestMultiplyClassical:
    def test_symmetric_products(self):
        from toruspoly.catalog import S_k
        assert classical_product(S_k(5, 2), S_k(5, 1)) == S_k(5, 3)
        one = NCPoly.from_classical_table(2, 5, np.ones(32, dtype=np.int64))
        assert classical_product(S_k(5, 2), one) == S_k(5, 2)

    def test_lucas_products_n8(self):
        from toruspoly.catalog import S_k
        assert classical_product(S_k(8, 4), S_k(8, 2)) == S_k(8, 6)
        s421 = classical_product(classical_product(S_k(8, 4), S_k(8, 2)),
                                 S_k(8, 1))
        assert s421 == S_k(8, 7)


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
                assert slots == tuple(_slots_oracle(p, n, d))
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

    def test_canonical_slots_is_one_cached_tuple(self):
        slots = canonical_slots(3, 2, 3)
        assert type(slots) is tuple
        assert canonical_slots(3, 2, 3) is slots
        assert slots == tuple(_slots_oracle(3, 2, 3))

    # every block of the small cells; the first blocks of cells with so
    # many slots that p^s passes 2^63 - 1, where the digits are all 0; codes
    # and digits are in _int_dtype(p^s), which leaves int32 between 2^30
    # (30 slots at (2, 1, 30)) and 2^31 (31 slots at (2, 1, 31))
    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 3, 2), (5, 2, 2),
                                       (2, 0, 4), (3, 0, 0), (2, 1, 200),
                                       (3, 1, 400), (13, 1, 400),
                                       (2, 1, 30), (2, 1, 31)])
    def test_digit_split_equals_the_divmod_loop(self, p, n, d):
        slots = canonical_slots(p, n, d)
        dtype = {(2, 1, 30): np.int32, (2, 1, 31): np.int64}.get(
            (p, n, d), _int_dtype(p ** len(slots)))
        for slots, codes, coeffs in itertools.islice(
                coefficient_batches(p, n, d), 20):
            assert codes.dtype == coeffs.dtype == dtype
            want = np.empty((len(codes), len(slots)), dtype=np.int64)
            rest = codes.copy()
            for s in range(len(slots)):
                want[:, s] = rest % p
                rest //= p
            assert np.array_equal(coeffs, want)

    # P - P(0) = 0 mod p^e, per column, against Python integers: rows at
    # every p-adic spread f, checked at every e, in each table dtype
    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    @pytest.mark.parametrize("dt", _SOURCES)
    def test_coset_check_against_the_oracle(self, p, dt):
        K = max(k for k in range(63) if p**k < 1 << 63
                and poly._table_dtype(p, k) == dt)
        rng = SplitMix64(p + K)
        cols = []
        for f in range(K + 1):
            base = rng.below(p**K)
            cols += [[(base + p**f * rng.below(p ** (K - f) or 1)) % p**K
                      for _ in range(9)],
                     [base] * 8 + [(base + p**f) % p**K]]
        tables = np.array(cols, dtype=np.int64).T.astype(dt)
        assert tables.dtype == poly._table_dtype(p, K)
        want = [[all((v - col[0]) % p**e == 0 for v in col)
                 for col in cols] for e in range(K + 1)]
        for e in range(K + 1):
            got = suites._coset_check(p, K, tables, np.full(len(cols), e))
            assert got.tolist() == want[e]
        mixed = np.array([rng.below(K + 1) for _ in cols])
        assert suites._coset_check(p, K, tables, mixed).tolist() == \
            [want[e][c] for c, e in enumerate(mixed.tolist())]

    def test_slot_basis_is_cached_and_read_only(self):
        slots = canonical_slots(3, 2, 3)
        coeffs = np.eye(len(slots), dtype=np.int64)
        tables = eval_slot_batches(3, 2, slots, coeffs, 2)
        basis = poly._slot_basis(3, 2, tuple(slots), 2)
        assert basis is poly._slot_basis(3, 2, tuple(slots), 2)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1
        for row, slot in zip(tables.T, slots):
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

    # one entry flipped by a kernel: a root entry moved by 1/p^(K+1), a
    # table coefficient of the first slot, or the deepest, top coefficient of
    # row 1's root (a form of degree 1, so the root's degree passes 1 + p - 1);
    # each shows in its own counter, once
    @pytest.mark.parametrize("counter", ["root_fail", "canon_fail",
                                         "bound_fail"])
    @pytest.mark.parametrize("p,n,d", [(2, 3, 3), (3, 2, 3), (5, 2, 2)])
    def test_scan_counter_fires_on_one_flipped_entry(self, monkeypatch, p, n,
                                                     d, counter):
        K = poly._depth_count(p, d)
        flips = []
        if counter == "root_fail":
            real_eval = suites.eval_slot_batches

            def planted(p_, n_, slots, coeffs, K_):
                tables = real_eval(p_, n_, slots, coeffs, K_)
                if K_ == K + 1 and not flips:
                    tables = tables.copy()
                    tables[0, 0] = (int(tables[0, 0]) + 1) % p**K_
                    flips.append(K_)
                return tables
            monkeypatch.setattr(suites, "eval_slot_batches", planted)
        else:
            real_interp = suites.interpolate_tables
            target = K if counter == "canon_fail" else K + 1
            exps, depth = canonical_slots(p, n, d)[0]
            at = ((depth, space(p, n).index_of(exps)) if counter == "canon_fail"
                  else (-1, -1))

            def planted(p_, n_, nums, K_):
                alpha, C = real_interp(p_, n_, nums, K_)
                if K_ == target and not flips:
                    C = C.copy()
                    C[(*at, 1)] = (int(C[(*at, 1)]) + 1) % p
                    flips.append(K_)
                return alpha, C
            monkeypatch.setattr(suites, "interpolate_tables", planted)
        res = _exhaustive_poly_scan(p, n, d)
        assert len(flips) == 1
        assert res == {"count": count_polys(p, n, d), "root_fail": 0,
                       "canon_fail": 0, "bound_fail": 0, counter: 1}

    def test_scan_without_budget_is_capped_by_the_default_cells(self,
                                                                monkeypatch):
        # the costliest default cell, (2, 3, 4), is 2^23 forms on 8 points;
        # the check comes before the first block
        assert max(suites._scan_cost(*c) for c in suites._ROOT_GRIDS) == 2**26
        assert suites._scan_cost(2, 3, 4) == 2**26
        monkeypatch.setattr(suites, "coefficient_batches", lambda *a: iter(()))
        for cell in (*suites._ROOT_GRIDS, (3, 2, 4)):
            assert _exhaustive_poly_scan(*cell)["count"] == 0
        with pytest.raises(BudgetExceeded,
                           match=r"^_exhaustive_poly_scan: .* exceeds budget "
                                 f"{2**26}$"):
            _exhaustive_poly_scan(2, 4, 3)  # 2^28 forms on 16 points
        # an explicit budget is the only cap
        assert _exhaustive_poly_scan(13, 1, 40, 1 << 200)["count"] == 0

    # every (p, n, d) cell that the roots suite's random trials draw from
    RANDOM_CELLS = ([(2, n, d) for n in range(1, 5) for d in range(1, 6)]
                    + [(p, n, d) for p in (3, 5) for n in (1, 2)
                       for d in range(1, 5)])

    @pytest.mark.parametrize("p,n,d", RANDOM_CELLS)
    def test_block_rows_equal_the_object_path(self, p, n, d):
        # seeded forms with alpha/p^2, drawn as _random_poly draws them, one
        # block; each row against NCPoly's tables, root, mul_by_p and degree
        drawn, scalar = SplitMix64(10 * p + n + d), SplitMix64(10 * p + n + d)
        rows = [_random_coeffs(p, n, d, drawn)[1:] for _ in range(6)]
        coeffs = np.stack([c for c, _ in rows])
        alpha = np.array([a for _, a in rows], dtype=np.int64)
        ok, K, tables, roots, root_degs = _root_block_check(p, n, d, coeffs,
                                                            alpha)
        assert ok.all() and K == max(poly._depth_count(p, d), 2)
        for row in range(len(rows)):
            P = _random_poly(p, n, d, scalar)
            R = P.pth_root()
            assert P == NCPoly(p, n, tables[:, row], K)
            assert R == NCPoly(p, n, roots[:, row], K + 1)
            assert R.mul_by_p() == P
            assert R.degree() == root_degs[row]
            assert R.degree() <= max(P.degree(), 0) + p - 1
        assert drawn.state == scalar.state

    def _random_verdicts(self):
        rep = run_suite("roots", {"grids": [], "random_trials": 60,
                                  "weighted_trials": 0}, seed=7)
        return {c.name: c.passed for c in rep.checks}

    def test_random_record_fails_on_a_planted_root(self, monkeypatch):
        # one object-path root off by 1/p^K at one point
        assert self._random_verdicts() == {"root-roundtrip-random": True,
                                           "weighted-root-roundtrip": True}
        true_root, planted = NCPoly.pth_root, []

        def corrupted_root(self):
            R = true_root(self)
            if not planted:
                planted.append(R)
                nums = R.nums.copy()
                nums[-1] += 1
                R = NCPoly(R.p, R.n, nums, R.K)
            return R

        monkeypatch.setattr(NCPoly, "pth_root", corrupted_root)
        assert not self._random_verdicts()["root-roundtrip-random"]
        assert len(planted) == 1

    @pytest.mark.parametrize("which", ["table", "root"])
    def test_random_record_fails_on_a_planted_block_entry(self, monkeypatch,
                                                          which):
        # one entry of the last row of a block, which only the block check
        # reads: the object path takes each group's first row
        real_eval, planted = suites.eval_slot_batches, []

        def corrupted(p, n, slots, coeffs, K):
            tables = real_eval(p, n, slots, coeffs, K)
            is_root = slots[0][1] > 0  # the depth-shifted slots
            if len(coeffs) > 1 and is_root == (which == "root") and not planted:
                planted.append(K)
                tables = tables.copy()
                tables[-1, -1] = (int(tables[-1, -1]) + 1) % p**K
            return tables

        monkeypatch.setattr(suites, "eval_slot_batches", corrupted)
        assert not self._random_verdicts()["root-roundtrip-random"]
        assert len(planted) == 1

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


class TestPolynomialJson:
    @pytest.mark.parametrize("p,n,d", [(2, 3, 4), (3, 2, 5), (5, 2, 6)])
    def test_every_form_reads_to_one_poly(self, p, n, d):
        P = _random_poly(p, n, d, SplitMix64(350 + p))
        assert P.K >= 2 and P.degree() > 1
        forms = [
            P.to_json(),
            {"p": p, "n": n,
             "values": [TorusValue(p, int(v), P.K).to_json() for v in P.nums]},
            {"p": p, "n": n, "text": P.canonical().to_text()},
        ]
        assert [NCPoly.from_json(obj) for obj in forms] == [P] * 3

    @pytest.mark.parametrize("obj", [None, [], 5, "x"])
    def test_non_object_refused(self, obj):
        with pytest.raises(ValueError,
                           match="^polynomial JSON must be an object$"):
            NCPoly.from_json(obj)

    @pytest.mark.parametrize("obj", [{}, {"p": 2, "n": 1}])
    def test_no_form_refused(self, obj):
        with pytest.raises(ValueError, match="^polynomial JSON needs "
                                             "terms/alpha, values, or text$"):
            NCPoly.from_json(obj)


def _value_oracle(p, n, pieces):
    """The table of sum c/p^(j+1) * prod |x_t|^e_t over (exps, j, c) pieces,
    one Fraction per point, read as torus values."""
    sp = space(p, n)
    out = []
    for x in range(sp.size):
        dig = sp.digits_of(x)
        total = Fraction(0)
        for exps, j, c in pieces:
            mono = 1
            for d, e in zip(dig, exps):
                mono *= d**e
            total += Fraction(c * mono, p ** (j + 1))
        out.append(TorusValue.from_fraction(p, total))
    return out


def _pieces_text(p, pieces):
    """The same pieces as from_text input, one signed chunk each."""
    chunks = []
    for exps, j, c in pieces:
        mono = [f"x{t + 1}^{e}" for t, e in enumerate(exps) if e]
        chunks.append(f"{'-' if c < 0 else '+'}{abs(c)}/{p ** (j + 1)}*"
                      + "*".join(mono))
    return "".join(chunks) or "0"


class TestCanonicalCarry:
    """Every input path reaches one canonical form: a coefficient c at
    depth j is c/p^(j+1), whatever its sign or size."""

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (5, 1)])
    def test_json_text_and_table_agree(self, p, n):
        rng = SplitMix64(9100 + 10 * p + n)
        exps_pool = [e for e in itertools.product(range(p), repeat=n) if any(e)]
        for _ in range(40):
            pieces = []
            for _ in range(rng.below(6)):
                exps = exps_pool[rng.below(len(exps_pool))]
                # coefficients past p, negative ones and repeated slots
                pieces.append((exps, rng.below(3),
                               rng.below(4 * p**2) - 2 * p**2))
            if pieces and rng.below(2):
                pieces.append(pieces[0])
            obj = {"p": p, "n": n, "terms": [
                {"exps": list(e), "depth": j, "coeff": c}
                for e, j, c in pieces]}
            cf = CanonicalForm.from_json(obj)
            assert cf == CanonicalForm.from_text(p, n, _pieces_text(p, pieces))
            assert all(0 < c < p for c in cf.terms.values())
            P = NCPoly.from_canonical(cf)
            Q = NCPoly.from_values(p, n, _value_oracle(p, n, pieces))
            assert P == Q and Q.canonical() == cf
            assert cf.degree() == Q.degree_by_derivatives()

    def test_json_digit_past_p_carries(self):
        # 2/4 * x1 on F_2^1 is x1/2: degree 1, table [0, 1/2]
        cf = CanonicalForm.from_json(
            {"p": 2, "n": 1, "terms": [{"exps": [1], "depth": 1, "coeff": 2}]})
        assert cf.terms == {((1,), 0): 1} and cf.degree() == 1
        assert cf == CanonicalForm.from_text(2, 1, "2/4*x1")
        assert NCPoly.from_canonical(cf) == NCPoly.from_values(
            2, 1, [TorusValue.zero(2), TorusValue(2, 1, 1)])

    def test_negative_coefficient_fills_every_shallower_digit(self):
        # -1/8 = 7/8 = 1/2 + 1/4 + 1/8; a carry past depth 0 vanishes
        cf = CanonicalForm(2, 1, TorusValue.zero(2), {((1,), 2): -1})
        assert cf.terms == {((1,), 0): 1, ((1,), 1): 1, ((1,), 2): 1}
        assert CanonicalForm(2, 1, TorusValue.zero(2), {((1,), 0): 6}).terms == {}

    @pytest.mark.parametrize("j", [62, 10**12])
    def test_depth_past_the_table_bound_rejected(self, j):
        # refused before a carry walks j depths or p^(j+1) is built
        with pytest.raises(ValueError, match="exceeds 2\\^63"):
            CanonicalForm(2, 1, TorusValue.zero(2), {((1,), j): -1})

    def test_text_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="coefficient 1/0"):
            CanonicalForm.from_text(2, 1, "1/0*x1")

    @pytest.mark.parametrize("text", [5, [], {"a": 1}, None])
    def test_text_must_be_a_string(self, text):
        with pytest.raises(ValueError, match="canonical text must be a string"):
            CanonicalForm.from_text(2, 1, text)
