"""Symmetric multilinear forms: extraction, concatenation, powers, bias."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from toruspoly.catalog import S_k, bilinear_b, quartic_form
from toruspoly.core import (SPACE_CAP, SUPPORTED_PRIMES, BudgetExceeded,
                            TorusValue, space)
from toruspoly.forms import (
    MultilinearForm,
    antiderivative,
    bias,
    binomial_lift_power,
    check_dkp,
    concat,
    dk_extract,
    dk_values,
    naive_bias,
    sym_power,
)
from toruspoly.poly import CanonicalForm, NCPoly, canonical_slots
from toruspoly.parallel import ordered_map
from toruspoly.rng import SplitMix64
from toruspoly import suites


def _gf2_rank(rows, n):
    # textbook elimination, bit by bit, on rows held as Python ints
    rows, rank = list(rows), 0
    for bit in range(n):
        i = next((i for i, r in enumerate(rows) if r >> bit & 1), None)
        if i is not None:
            pivot = rows.pop(i)
            rows = [r ^ pivot if r >> bit & 1 else r for r in rows]
            rank += 1
    return rank


def evaluate(T, args):
    """T at one tuple of point indices: eval_batch on a batch of one."""
    return int(T.eval_batch([np.array([a]) for a in args])[0])


def rand_vec(p, n, rng):
    return rng.below(space(p, n).size)


def rand_csm(p, n, k, rng):
    coeffs = {}
    for key in itertools.combinations_with_replacement(range(n), k):
        if max(key.count(i) for i in set(key)) < p and rng.below(2):
            coeffs[key] = 1 + rng.below(p - 1)
    return MultilinearForm(p, n, k, coeffs)


class TestExtraction:
    def test_bilinear_from_s2(self):
        B = bilinear_b(4)
        for i in range(4):
            for j in range(4):
                val = evaluate(B, [2**i, 2**j])  # unit vectors e_i, e_j
                assert val == (1 if i != j else 0)

    def test_linear_case(self):
        P = NCPoly.from_text(2, 3, "1/2*x1")
        T = dk_extract(P, 1)
        for h in range(8):
            assert evaluate(T, [h]) == space(2, 3).digits_of(h)[0]

    def test_quartic_is_sym_square(self):
        T = quartic_form(4)
        assert T == sym_power(bilinear_b(4), 2)

    def test_degree_too_high_rejected(self):
        with pytest.raises(ValueError):
            dk_extract(S_k(4, 3), 2)

    def test_classicality_of_extractions(self):
        # d^k of any degree <= k classical polynomial is classical
        rng = SplitMix64(5)
        for _ in range(30):
            p = (2, 3)[rng.below(2)]
            k = 2 + rng.below(2)
            slots = [(e, j) for (e, j) in canonical_slots(p, 2, k) if j == 0]
            P = NCPoly.from_canonical(CanonicalForm(
                p, 2, TorusValue.zero(p),
                {s: rng.below(p) for s in slots}))
            assert dk_extract(P, k).classical

    def test_nonclassical_extraction_fails_classicality(self):
        # d^2 of the mother polynomial Q is multilinear but not classical
        from toruspoly.catalog import mother_q
        T = dk_extract(mother_q(), 2)
        assert not T.classical
        assert T.value((0, 0)) == 1
        with pytest.raises(ValueError, match="needs a classical form"):
            antiderivative(T)

    def test_classical_reads_multiplicities(self):
        # a multiplicity of p or more in any supporting multiset
        assert MultilinearForm(3, 2, 3, {(0, 0, 1): 1}).classical
        assert not MultilinearForm(3, 2, 3, {(0, 0, 1): 1, (1, 1, 1): 2}).classical
        assert not MultilinearForm(2, 3, 2, {(2, 2): 1}).classical
        assert MultilinearForm(2, 3, 2, {(2, 2): 2}).classical  # 2 = 0 in F_2

    def test_symmetry_under_argument_permutations(self):
        rng = SplitMix64(7)
        for k in (2, 3, 4):
            T = dk_extract(S_k(4, k), k)
            args = [rand_vec(2, 4, rng) for _ in range(k)]
            assert len({evaluate(T, list(perm))
                        for perm in itertools.permutations(args)}) == 1


class TestOneValuePerMultiset:
    """A form is its values on multisets, so a multiset given twice, in
    either order, is refused instead of letting list order pick one."""

    @pytest.mark.parametrize("first,second", [((0, 1), (1, 0)),
                                              ((1, 0), (0, 1))])
    def test_repeated_multiset_refused(self, first, second):
        coeffs = {(0, 0): 1, (1, 1): 1, first: 1, second: 2}
        with pytest.raises(ValueError, match="given two values"):
            MultilinearForm(5, 2, 2, coeffs)
        # even when one of the two values is 0 mod p
        with pytest.raises(ValueError, match="given two values"):
            MultilinearForm(5, 2, 2, {first: 5, second: 1})

    def test_json_repeat_refused_before_the_dict_drops_it(self):
        # an exact repeat would collapse in a dict comprehension
        for pair in ([1, 2], [2, 1]):
            obj = {"p": 5, "n": 2, "k": 2, "coeffs": [
                {"multiset": [1, 2], "c": 1}, {"multiset": pair, "c": 1}]}
            with pytest.raises(ValueError, match=r"multiset \[1, 2\]"):
                MultilinearForm.from_json(obj)

    def test_distinct_multisets_accepted(self):
        obj = {"p": 5, "n": 2, "k": 2, "coeffs": [
            {"multiset": [1, 1], "c": 1}, {"multiset": [2, 1], "c": 3}]}
        assert MultilinearForm.from_json(obj) == \
            MultilinearForm(5, 2, 2, {(0, 0): 1, (0, 1): 3})


class TestConcat:
    def test_six_term_expansion(self):
        rng = SplitMix64(11)
        S = rand_csm(3, 3, 2, rng)
        T = rand_csm(3, 3, 2, rng)
        U = concat(S, T)
        for _ in range(20):
            a, b, c, d = (rand_vec(3, 3, rng) for _ in range(4))
            expected = (
                evaluate(S, [a, b]) * evaluate(T, [c, d])
                + evaluate(S, [a, c]) * evaluate(T, [b, d])
                + evaluate(S, [a, d]) * evaluate(T, [b, c])
                + evaluate(S, [b, c]) * evaluate(T, [a, d])
                + evaluate(S, [b, d]) * evaluate(T, [a, c])
                + evaluate(S, [c, d]) * evaluate(T, [a, b])
            ) % 3
            assert evaluate(U, [a, b, c, d]) == expected

    def test_concat_with_zero(self):
        S = bilinear_b(3)
        Z = MultilinearForm(2, 3, 2, {})
        assert not concat(S, Z).coeffs

    def test_product_rule_instance(self):
        # d^3(S_1 S_2) = (d^1 S_1) * (d^2 S_2) on F_2^4
        product = NCPoly.from_classical_table(
            2, 4, S_k(4, 1).classical_table() * S_k(4, 2).classical_table() % 2)
        lhs = dk_extract(product, 3)
        rhs = concat(dk_extract(S_k(4, 1), 1), bilinear_b(4))
        assert lhs == rhs

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_classical_inputs_give_classical_output(self, p):
        rng = SplitMix64(31 + p)
        for k, l in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
            for _ in range(3):
                S, T = rand_csm(p, 3, k, rng), rand_csm(p, 3, l, rng)
                assert S.classical and T.classical
                assert concat(S, T).classical

    def test_algebra_laws(self):
        rng = SplitMix64(13)
        A = rand_csm(2, 4, 1, rng)
        B = rand_csm(2, 4, 2, rng)
        C = rand_csm(2, 4, 1, rng)
        assert concat(A, B) == concat(B, A)
        assert concat(concat(A, B), C) == concat(A, concat(B, C))
        D = rand_csm(2, 4, 2, rng)
        assert concat(A, B + D) == concat(A, B) + concat(A, D)


class TestSymPower:
    def test_sym1_identity(self):
        T = bilinear_b(3)
        assert sym_power(T, 1) == T

    def test_sym2_three_terms(self):
        rng = SplitMix64(17)
        T = rand_csm(2, 4, 2, rng)
        S = sym_power(T, 2)
        for _ in range(20):
            a, b, c, d = (rand_vec(2, 4, rng) for _ in range(4))
            expected = (
                evaluate(T, [a, b]) * evaluate(T, [c, d])
                + evaluate(T, [a, c]) * evaluate(T, [b, d])
                + evaluate(T, [a, d]) * evaluate(T, [b, c])
            ) % 2
            assert evaluate(S, [a, b, c, d]) == expected

    def test_factorial_relation_p5(self):
        rng = SplitMix64(19)
        T = rand_csm(5, 3, 2, rng)
        assert sym_power(T, 2).scale(2) == concat(T, T)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_classical_form_gives_classical_power(self, p):
        rng = SplitMix64(37 + p)
        for k, m in ((2, 2), (2, 3), (3, 2)):
            T = rand_csm(p, 2, k, rng)
            assert T.classical and sym_power(T, m).classical

    def test_linear_rejected(self):
        L = MultilinearForm(2, 3, 1, {(0,): 1})
        with pytest.raises(ValueError):
            sym_power(L, 2)


class TestAntiderivative:
    def test_zero(self):
        assert antiderivative(MultilinearForm(2, 3, 2, {})) == NCPoly.zero(2, 3)

    def test_linear(self):
        T = MultilinearForm(2, 3, 1, {(0,): 1})
        P = antiderivative(T)
        assert P == NCPoly.from_text(2, 3, "1/2*x1")

    def test_reextraction(self):
        T = bilinear_b(4)
        P = antiderivative(T)
        assert P.is_classical() and P.degree() <= 2
        assert dk_extract(P, 2) == T

    def test_random_round_trips(self):
        rng = SplitMix64(23)
        for p, n, k in ((2, 3, 3), (3, 2, 2), (5, 2, 3)):
            T = rand_csm(p, n, k, rng)
            assert dk_extract(antiderivative(T), k) == T


class TestBinomialLift:
    def test_s2_reproduces_s4(self):
        for n in (4, 5):
            Q = binomial_lift_power(S_k(n, 2), 2)
            assert dk_extract(Q, 4) == quartic_form(n)
            assert (Q - S_k(n, 4)).degree() <= 3

    def test_m1_identity(self):
        P = S_k(3, 2)
        assert binomial_lift_power(P, 1) == P

    def test_p3_cubic_power(self):
        rng = SplitMix64(29)
        slots = [(e, j) for (e, j) in canonical_slots(3, 2, 2) if j == 0]
        P = NCPoly.from_canonical(CanonicalForm(
            3, 2, TorusValue.zero(3), {s: 1 + rng.below(2) for s in slots}))
        Q = binomial_lift_power(P, 3, k=2)
        assert Q.is_classical() and Q.degree() <= 6
        assert dk_extract(Q, 6) == sym_power(dk_extract(P, 2), 3)

    def test_rejects_nonclassical(self):
        from toruspoly.catalog import mother_q
        with pytest.raises(ValueError):
            binomial_lift_power(mother_q(), 2)


class TestBias:
    def test_zero_form(self):
        assert bias(MultilinearForm(2, 3, 2, {})) == 1
        for p, k in itertools.product((2, 3), (1, 2, 3, 4)):
            assert bias(MultilinearForm(p, 0, k)) == 1

    def test_nondegenerate_dot_product(self):
        # sum h_i h'_i has diagonal multisets of multiplicity 2 = p, so it
        # lives in the raw multilinear representation, and its kernel is 0
        for n in (2, 3, 4):
            T = MultilinearForm(2, n, 2, {(i, i): 1 for i in range(n)})
            assert bias(T) == Fraction(1, 2**n)

    def test_fast_equals_naive_exhaustive(self):
        # every classical form with k <= 3 over small spaces
        for p, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for k in (1, 2, 3):
                keys = [key for key in
                        itertools.combinations_with_replacement(range(n), k)
                        if max(key.count(i) for i in set(key)) < p]
                for code in range(p ** len(keys)):
                    coeffs = {}
                    rest = code
                    for key in keys:
                        rest, c = divmod(rest, p)
                        if c:
                            coeffs[key] = c
                    T = MultilinearForm(p, n, k, coeffs)
                    assert bias(T) == naive_bias(T)

    def test_naive_chain_stays_below_2_53_inside_the_cap(self):
        # after t contractions the entries stay below (p-1)(n(p-1))^t, and
        # naive_bias refuses N^k past SPACE_CAP
        for p in SUPPORTED_PRIMES:
            for n in range(1, 25):
                for k in range(1, 25):
                    if p ** (n * k) <= SPACE_CAP:
                        assert (p - 1) * (n * (p - 1)) ** k < 1 << 53

    def test_quartic_sequence(self):
        # frozen oracle values of E e(iota(d^4 S_4)) for n = 4, 6
        assert bias(quartic_form(4)) == Fraction(197, 512)
        assert bias(quartic_form(4)) == naive_bias(quartic_form(4))
        assert bias(quartic_form(6)) == Fraction(1577, 8192)

    def test_quartic_bias_scalar_triangulation(self):
        # third, fully independent route: iterated table differences in
        # plain Python, no multilinear machinery at all (n = 4 is the first
        # dimension where the quartic form is nonzero)
        n = 4
        F = [int(v) for v in S_k(n, 4).nums]
        N = len(F)

        def diff(tab, h):
            return [tab[x ^ h] ^ tab[x] for x in range(N)]

        total = 0
        for a in range(N):
            Fa = diff(F, a)
            for b in range(N):
                Fab = diff(Fa, b)
                for c in range(N):
                    Fabc = diff(Fab, c)
                    # degree <= 4 makes the triple derivative affine; its
                    # fourth derivative at 0 is Fabc[d] ^ Fabc[0]
                    base = Fabc[0]
                    total += sum(1 if Fabc[d] == base else -1
                                 for d in range(N))
        assert Fraction(total, N**4) == bias(quartic_form(n)) == Fraction(197, 512)

    def test_packed_and_generic_kernels_agree(self):
        # the packed GF(2) rank step against the F_p elimination at p = 2
        from toruspoly.forms import _count_vanishing
        rng = SplitMix64(43)
        for k in (2, 3, 4):
            T = rand_csm(2, 4, k, rng)
            assert _count_vanishing(T, 1, True) == _count_vanishing(T, 1, False)

    @pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5) for k in (2, 3, 4)])
    def test_rank_fold_equals_naive_on_raw_forms(self, p, k):
        # random non-classical forms, diagonal multisets of multiplicity
        # >= p included, against the direct |V|^k character sum
        rng = SplitMix64(1000 * p + k)
        dims = {2: (1, 2, 3, 4), 3: (1, 2, 3) if k < 4 else (1, 2),
                5: (1, 2)}[p]
        for n in dims:
            for _ in range(4):
                coeffs = {key: rng.below(p) for key in
                          itertools.combinations_with_replacement(range(n), k)}
                T = MultilinearForm(p, n, k, coeffs)
                assert bias(T) == naive_bias(T)

    def test_quartic_chunked_and_high_bit_fold(self):
        # n = 10, 11 split the first prefix slot into several chunks, so
        # each chunk folds the high bits of its range; uint16 rows
        expected = Fraction(271097, 2**21)
        assert bias(quartic_form(10)) == bias(quartic_form(11)) == expected

    @pytest.mark.parametrize("chunk", [1, 2, 8])
    def test_chunk_size_does_not_change_count(self, monkeypatch, chunk):
        # tiny chunks fold leading slots one vector at a time and, at odd
        # p, cut the split slot into ranges that do not divide p^n
        rng = SplitMix64(chunk)
        cases = [(2, 2, 5), (2, 3, 4), (3, 2, 4), (3, 2, 5), (5, 1, 4), (5, 2, 3)]
        forms = [rand_csm(p, n, k, rng) for p, n, k in cases]
        expected = [bias(T) for T in forms]
        monkeypatch.setattr("toruspoly.forms._CHUNK", chunk)
        assert [bias(T, threads=2) for T in forms] == expected

    def test_threads_deterministic(self, monkeypatch):
        # quartic n = 10 cuts the first prefix slot into 64 chunks, so
        # four threads really split the work
        from toruspoly import forms
        splits = []

        def spy(fn, chunks, threads):
            splits.append(len(chunks))
            return ordered_map(fn, chunks, threads)

        monkeypatch.setattr(forms, "ordered_map", spy)
        T = quartic_form(10)
        assert bias(T, threads=1) == bias(T, threads=4)
        assert splits == [1, 4]
        # p = 3, n = 5, k = 4: the prefixes split into four chunks
        T = rand_csm(3, 5, 4, SplitMix64(47))
        assert bias(T, threads=1) == bias(T, threads=2)

    @pytest.mark.parametrize("n", [40, 70])
    def test_wide_bilinear_form_is_one_rank(self, n):
        # k = 2 is a single n x n rank; n = 40 needs 64-bit rows and
        # n = 70 takes the F_p elimination at p = 2
        rng = SplitMix64(n)
        coeffs = {key: rng.below(2) for key in
                  itertools.combinations_with_replacement(range(n), 2)}
        T = MultilinearForm(2, n, 2, coeffs)
        rows = [sum(T.value((i, j)) << j for j in range(n)) for i in range(n)]
        assert bias(T) == Fraction(1, 2 ** _gf2_rank(rows, n))

    @pytest.mark.parametrize("p,n,k,cost", [
        (2, 5, 4, 2**10 * 5**2),   # packed step: N^(k-2) n^2
        (3, 2, 3, 9 * 2**3),       # F_p step: N^(k-2) n^3
        (5, 3, 1, 3),              # k = 1: n
    ])
    def test_budget_estimate(self, p, n, k, cost):
        T = MultilinearForm(p, n, k, {(0,) * k: 1})
        assert bias(T, budget=cost) == bias(T)
        with pytest.raises(BudgetExceeded, match=r"^bias: "):
            bias(T, budget=cost - 1)

    @pytest.mark.parametrize("p", [1, 4, 9, 17])
    def test_unsupported_modulus(self, p):
        with pytest.raises(ValueError, match="modulus must be a prime"):
            bias(MultilinearForm(p, 2, 3, {(0, 0, 1): 1}))

    def test_repeated_argument_constraint(self):
        # d^k P(h1 x p, h2, ...) = d^k P(h1, h2 x p, ...) for degree <= k
        rng = SplitMix64(31)
        P = NCPoly.from_canonical(CanonicalForm(
            2, 3, TorusValue.zero(2),
            {s: rng.below(2) for s in canonical_slots(2, 3, 4)}))
        T = dk_extract(P, 4)
        for _ in range(30):
            h1, h2 = rand_vec(2, 3, rng), rand_vec(2, 3, rng)
            assert evaluate(T, [h1, h1, h2, h2]) == evaluate(T, [h2, h2, h1, h1])


class TestDkValues:
    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1)])
    def test_matches_chained_derivatives(self, p, n):
        rng = SplitMix64(41 + p)
        N = space(p, n).size
        for _ in range(6):
            k = 1 + rng.below(4)
            P = NCPoly.from_canonical(CanonicalForm(
                p, n, TorusValue(p, rng.below(p**2), 2),
                {s: rng.below(p) for s in canonical_slots(p, n, k)}))
            assert P.degree() <= k
            # small index range, so that tuples repeat directions
            dirs = np.array([[rng.below(min(N, 3)) for _ in range(k)]
                             for _ in range(12)])
            got = dk_values(p, n, P.nums, P.K, dirs)
            for row, h in zip(got, dirs):
                cur = P
                for idx in h:
                    cur = cur.derivative(int(idx))
                assert TorusValue(p, int(row), P.K) == cur.eval(0)

    def test_leading_dimensions(self):
        rng = SplitMix64(43)
        polys = [NCPoly.from_canonical(CanonicalForm(
            3, 2, TorusValue.zero(3),
            {s: rng.below(3) for s in canonical_slots(3, 2, 3)}))
            for _ in range(4)]
        K = max(P.K for P in polys)
        tables = np.stack([P.nums * 3 ** (K - P.K) for P in polys])
        dirs = np.array([[rng.below(9) for _ in range(3)] for _ in range(5)])
        batched = dk_values(3, 2, tables.reshape(2, 2, 9), K, dirs)
        assert batched.shape == (2, 2, 5)
        for i, P in enumerate(polys):
            row = dk_values(3, 2, P.nums, P.K, dirs)
            assert [TorusValue(3, int(v), K) for v in batched.reshape(4, 5)[i]] \
                == [TorusValue(3, int(v), P.K) for v in row]


class TestDkpIdentity:
    def test_l_over_eight_exhaustive(self):
        checked, failures = check_dkp(L_over_power_local(3, 3), 3)
        assert checked == 64 and not failures

    def test_depth_one_quartic(self):
        rng = SplitMix64(37)
        slots = [(e, j) for (e, j) in canonical_slots(2, 3, 4) if j <= 1]
        P = NCPoly.from_canonical(CanonicalForm(
            2, 3, TorusValue.zero(2), {s: rng.below(2) for s in slots}))
        checked, failures = check_dkp(P, 4)
        assert not failures

    def test_classical_both_sides_zero(self):
        P = S_k(3, 3)
        checked, failures = check_dkp(P, 3)
        assert not failures
        assert P.mul_by_p() == NCPoly.zero(2, 3)

    def test_requires_k_above_p(self):
        with pytest.raises(ValueError):
            check_dkp(S_k(3, 2), 2)

    def test_tuple_budget(self):
        # k = 4 on F_2^7 asks for 128^3 = 2^21 tuples
        with pytest.raises(BudgetExceeded, match=r"^check_dkp: estimated "
                           r"cost 2097152 exceeds budget 1048576$"):
            check_dkp(L_over_power_local(7, 3), 4)


def L_over_power_local(n, j):
    from toruspoly.catalog import L_over_power
    return L_over_power(n, j)


class TestSerialization:
    def test_json_round_trip(self):
        B = bilinear_b(4)
        again = MultilinearForm.from_json({
            "p": 2, "n": 4, "k": 2,
            "coeffs": [{"multiset": [i, j], "c": 1}
                       for i in range(1, 5) for j in range(i + 1, 5)]})
        assert again == B


class TestDfSuite:
    """The df suite compares Sym^2(B), through eval_batch, with the 4-fold
    derivatives of S_4's own table: at n = 4 on every tuple, past it on
    tuples drawn argument by argument, in blocks of 2^14 tuples."""

    @staticmethod
    def _tuple_records():
        rep = suites.run_suite("df", {"n": 5, "trials": 500}, seed=1111)
        return [c for c in rep.checks if c.name.endswith("-tuples")]

    def test_a_broken_evaluation_fails_every_tuple_record(self, monkeypatch):
        assert [c.passed for c in self._tuple_records()] == [True, True]
        true_eval = MultilinearForm.eval_batch

        def broken(self, args):  # reads another point's digits in argument 1
            return true_eval(self, [np.asarray(args[0]) ^ 1] + list(args[1:]))

        monkeypatch.setattr(MultilinearForm, "eval_batch", broken)
        records = self._tuple_records()
        assert [c.name for c in records] == ["d4S4-exhaustive-tuples",
                                             "d4S4-random-tuples"]
        assert not any(c.passed for c in records)

    def test_tuples_replay_the_scalar_draws(self, monkeypatch):
        seen = {4: [], 5: []}

        def recording(p, n, nums, K, dirs):
            seen[n].append(dirs.copy())
            return dk_values(p, n, nums, K, dirs)

        monkeypatch.setattr(suites, "dk_values", recording)
        batched, scalar = SplitMix64(7), SplitMix64(7)
        report = suites.SuiteReport("df", 7, 1, {})
        suites._suite_df(report, batched, n=5, trials=20_000)
        assert report.passed
        grids = np.meshgrid(*([np.arange(16)] * 4), indexing="ij")
        assert [len(d) for d in seen[4]] == [1 << 14] * 4
        assert np.array_equal(np.concatenate(seen[4]),
                              np.stack([g.reshape(-1) for g in grids], axis=1))
        want = [[scalar.below(32) for _ in range(20_000)] for _ in range(4)]
        assert [len(d) for d in seen[5]] == [1 << 14, 20_000 - (1 << 14)]
        assert np.concatenate(seen[5]).T.tolist() == want
        assert batched.state == scalar.state
