"""Exact arithmetic substrate: torus values, spaces, counters, roots of unity."""

import cmath
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruspoly.catalog import quartic_form
from toruspoly.core import (
    POWER_BITS,
    SPACE_CAP,
    BudgetExceeded,
    ExactExpectation,
    Space,
    TorusValue,
    UnityCounter,
    json_int,
    space,
)
from toruspoly.cubes import FilteredAbelianGroup
from toruspoly.cubescan import enumerate_cube_codes, equivalence_scan
from toruspoly.forms import MultilinearForm, naive_bias
from toruspoly.norms import (
    BoundedFunction,
    _gowers_power_direct,
    gowers_power,
    gowers_power_exact,
)
from toruspoly.parallel import chunk_ranges
from toruspoly.poly import (CanonicalForm, NCPoly, classical_coeffs, count_polys,
                            enumerate_polys, eval_layer_tables)
from toruspoly.rng import SplitMix64
from toruspoly.suites import _csg2_lhs, _draws_below
from toruspoly.weighted import PeriodicMap, binomial_expand


def tv(p, num, exp):
    return TorusValue(p, num, exp)


class _ScalarSplitMix64:
    """splitmix64 one output at a time in Python integers: the reference
    stream for the block generator."""

    def __init__(self, seed):
        self.state = seed & ((1 << 64) - 1)

    def next_u64(self):
        mask = (1 << 64) - 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & mask
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def below(self, n):
        return self.next_u64() % n

    def unit(self):
        return (self.next_u64() >> 11) / float(1 << 53)


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, 808, (1 << 64) - 1])
    def test_stream_and_state_match_scalar_generator(self, seed):
        fast, slow = SplitMix64(seed), _ScalarSplitMix64(seed)
        assert fast.state == slow.state
        for i in range(10_000):
            draw = ("next_u64", "below", "unit")[i % 3]
            args = (1 + i % 1000,) if draw == "below" else ()
            assert getattr(fast, draw)(*args) == getattr(slow, draw)(*args)
            assert fast.state == slow.state

    # block draws across block edges (255, 256, 257) and far past them,
    # between scalar draws of each kind, at the seeds of the stream test
    @pytest.mark.parametrize("seed", [0, 1, 808, (1 << 64) - 1])
    def test_draws_match_scalar_generator(self, seed):
        fast, slow = SplitMix64(seed), _ScalarSplitMix64(seed)
        for count in (0, 1, 255, 256, 257, 10**5):
            for draw, args in (("below", (7,)), ("unit", ()),
                               ("next_u64", ())):
                block = fast.draws(count)
                assert block.dtype == np.uint64 and block.shape == (count,)
                assert block.tolist() == [slow.next_u64() for _ in range(count)]
                assert fast.state == slow.state
                assert getattr(fast, draw)(*args) == getattr(slow, draw)(*args)
                assert fast.state == slow.state
        # two block draws in a row, then scalar draws from a fresh block
        assert fast.draws(3).tolist() + fast.draws(300).tolist() == \
            [slow.next_u64() for _ in range(303)]
        assert [fast.next_u64() for _ in range(600)] == \
            [slow.next_u64() for _ in range(600)]
        assert fast.state == slow.state

    def test_negative_draw_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative count"):
            SplitMix64(1).draws(-1)

    def test_seed_reduced_mod_2_64(self):
        assert SplitMix64(-1).state == SplitMix64((1 << 64) - 1).state
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


class TestTorusValue:
    def test_add_examples(self):
        assert tv(2, 1, 1) + tv(2, 1, 1) == TorusValue.zero(2)
        assert tv(2, 1, 2) + tv(2, 1, 1) == tv(2, 3, 2)
        assert tv(2, 3, 2) + tv(2, 3, 2) == tv(2, 1, 1)

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

    @pytest.mark.parametrize("p", [0, 1, 4, -2])
    def test_modulus_validated(self, p):
        # p = 0 used to divide by zero in the reduction
        with pytest.raises(ValueError, match="modulus must be a prime"):
            TorusValue(p, 1, 1)

    def test_exponent_bounded_before_the_power(self):
        # p^exp is formed up to POWER_BITS bits (exp * bit_length(p)), and
        # refused one step past it before anything of that size is built
        assert TorusValue(2, 3, POWER_BITS // 2).exp == POWER_BITS // 2
        assert TorusValue(13, 1, POWER_BITS // 4).exp == POWER_BITS // 4
        for p, exp in [(2, POWER_BITS // 2 + 1), (13, POWER_BITS // 4 + 1),
                       (3, 10**11), (13, 10**18)]:
            with pytest.raises(BudgetExceeded, match="^TorusValue: "):
                TorusValue(p, 1, exp)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_group_laws(self, a, b, c):
        x, y, z = tv(2, a, 6), tv(2, b, 6), tv(2, c, 6)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + (-x) == TorusValue.zero(2)


def char(a):
    """The standard character e(a) = exp(2 pi i a) of a torus value."""
    return cmath.exp(2j * cmath.pi * a.num / a.p**a.exp)


class TestCharacter:
    def test_homomorphism(self):
        rng = SplitMix64(5)
        for _ in range(10_000):
            a = tv(3, rng.below(81), 4)
            b = tv(3, rng.below(81), 4)
            assert abs(char(a + b) - char(a) * char(b)) < 1e-12


class TestSpace:
    def test_enumeration_order(self):
        vecs = [space(2, 2).digits_of(i) for i in range(4)]
        assert vecs == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert [space(3, 1).digits_of(i) for i in range(3)] == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_digits_match_division_oracle(self, p):
        # column by column, the stack of the division formula the table
        # was once built from
        for n in range(7):
            idx = np.arange(p**n, dtype=np.int64)
            digits = Space(p, n).digits
            assert digits.dtype == np.uint8 and digits.shape == (p**n, n)
            for i in range(n):
                assert np.array_equal(digits[:, i], (idx // p**i) % p)

    def test_digits_build_in_place(self):
        # the uint8 table and one divmod step at a time, (n + 24) N bytes,
        # where n int64 columns, their stack and a cast took about 17 n N
        n, N = 16, 1 << 16
        tracemalloc.start()
        try:
            digits = Space(2, n).digits
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digits.shape == (N, n)
        assert peak <= (n + 32) * N

    def test_large_count(self):
        sp = space(2, 20)
        assert sp.size == 1 << 20
        assert sp.index_of(sp.digits_of(sp.size - 1)) == sp.size - 1

    def test_cap(self):
        # SPACE_CAP bounds the Newton transform on every axis at once:
        # (2 * 128)^2 entries times 2 * 256 steps
        table = PeriodicMap(2, 2, [1, 1], [128, 128],
                            np.zeros((128, 128), dtype=np.int64), 2)
        with pytest.raises(BudgetExceeded):
            binomial_expand(table, 1)

    # each fixed cap reports the kernel, the estimated cost and the cap
    CAPS = {
        "binomial_expand": (
            lambda: binomial_expand(PeriodicMap(
                2, 1, [1], [1 << 13], np.zeros(1 << 13, dtype=np.int64), 1), 1),
            1 << 26, 1 << 24),
        "enumerate_polys": (lambda: next(enumerate_polys(2, 6, 2)),
                            count_polys(2, 6, 2), 1 << 20),
        "equivalence_scan": (
            lambda: equivalence_scan(FilteredAbelianGroup.maximal([81], 1), 2),
            81**4, 1 << 24),
        # hk_size 2^13 cubes of 2^12 entries each
        "enumerate_cube_codes": (
            lambda: enumerate_cube_codes(FilteredAbelianGroup.maximal([2], 1),
                                         12),
            1 << 25, 1 << 24),
        # p^n is bounded before a value table is allocated
        "NCPoly.zero": (lambda: NCPoly.zero(2, 30), 1 << 30, 1 << 24),
        "CanonicalForm.eval_table": (
            lambda: NCPoly.from_text(2, 50, "1/2*x1"), 1 << 50, 1 << 24),
        # n^k and p^n are bounded before the tensor and the digit matrix
        "MultilinearForm.dense_tensor": (
            lambda: MultilinearForm(2, 40, 8, {tuple(range(8)): 1}).dense_tensor(),
            40**8, 1 << 24),
        # B tuples contract the k-tensor to B x n^(k-1) entries first
        "MultilinearForm.eval_batch": (
            lambda: MultilinearForm(2, 20, 4, {(0, 1, 2, 3): 1}).eval_batch(
                [np.zeros(1 << 12, dtype=np.int64)] * 4),
            (1 << 12) * 20**3, 1 << 24),
        # the suites' block draws, such as the df suite's 4 x trials
        "_draws_below": (lambda: _draws_below(SplitMix64(1), (4, 1 << 23), 2),
                         1 << 25, 1 << 24),
        "Space.digits": (lambda: space(2, 40).digits, 1 << 40, 1 << 24),
        # N^k and p^n are bounded before the float64 transforms: past the
        # cap their float chains could pass 2^53
        "naive_bias": (lambda: naive_bias(quartic_form(7)), 1 << 28, 1 << 24),
        "classical_coeffs": (
            lambda: classical_coeffs(13, 7, np.broadcast_to(np.int64(0), (13**7,))),
            13**7, 1 << 24),
        # past the dense cells a layer runs one pass per axis over N entries
        "eval_layer_tables": (
            lambda: eval_layer_tables(
                2, 25, np.broadcast_to(np.int8(0), (1 << 25,)), 0, 1),
            1 << 25, 1 << 24),
        # the dense norm blocks are bounded before they are built: N^(d-1)
        # entries for gowers_power, N^(d-1) or N^d for the exact path,
        # N^(d+1) for the cube product and N^d for the Cauchy-Schwarz sum
        "gowers_power": (
            lambda: gowers_power(BoundedFunction.from_phase(NCPoly.zero(2, 6)), 6),
            1 << 30, 1 << 24),
        "gowers_power_exact": (
            lambda: gowers_power_exact(NCPoly(2, 2, np.arange(4) % 2, 10), 13),
            1 << 26, 1 << 24),
        "_cube_product": (
            lambda: _gowers_power_direct(
                BoundedFunction.from_phase(NCPoly.zero(2, 4)), 6),
            1 << 28, 1 << 24),
        "_csg2_lhs": (
            lambda: _csg2_lhs(BoundedFunction.from_phase(NCPoly.zero(2, 5)), 5,
                              SplitMix64(1)),
            1 << 25, 1 << 24),
        # |G| is bounded before the level table is allocated
        "FilteredAbelianGroup": (
            lambda: FilteredAbelianGroup([1 << 20, 1 << 20], levels=[]),
            1 << 40, 1 << 24),
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
        sp = space(3, 3)
        a = sp.index_of([1, 2, 0])
        b = sp.index_of([2, 2, 1])
        assert sp.digits_of(sp.add_indices(a, b)) == (0, 1, 1)
        assert sp.add_indices(a, sp.index_of([2, 1, 0])) == 0  # -a

    def test_shift_perm_matches_vector_add(self):
        sp = space(3, 2)
        h = sp.index_of([1, 2])
        perm = sp.shift_perm(h)
        for x in range(9):
            assert sp.digits_of(int(perm[x])) == tuple(
                (d + e) % 3 for d, e in zip(sp.digits_of(x), (1, 2)))

    @pytest.mark.parametrize("idx", [-1, 9])
    def test_point_index_range(self, idx):
        with pytest.raises(ValueError, match="not a point index"):
            space(3, 2).shift_perm(idx)

    def test_prime_validation(self):
        with pytest.raises(ValueError, match="modulus must be a prime"):
            space(4, 1)


# the objects that live on F_p^n, each built on (p, n) with a table of one entry
SPACE_OWNERS = {
    "CanonicalForm": lambda p, n: CanonicalForm(p, n, TorusValue.zero(2)),
    "NCPoly": lambda p, n: NCPoly(p, n, np.zeros(1, dtype=np.int64), 0),
    "MultilinearForm": lambda p, n: MultilinearForm(p, n, 2),
    "BoundedFunction": lambda p, n: BoundedFunction(p, n, np.zeros(1)),
}


class TestSpaceOwner:
    @pytest.mark.parametrize("owner", SPACE_OWNERS)
    def test_constructor_validates_the_space(self, owner, time_limit):
        build = SPACE_OWNERS[owner]
        for p in (0, 4):
            with pytest.raises(ValueError, match="modulus must be a prime"):
                build(p, 1)
        with pytest.raises(ValueError, match="dimension must be non-negative"):
            build(2, -1)
        # p^n is refused by its bit length before it is formed
        with time_limit(2), pytest.raises(
                BudgetExceeded, match=r"^Space: estimated cost 200000000000 "):
            build(2, 10**11)

    def test_size_bound_is_bits_of_p_to_the_n(self, time_limit):
        # p^n is formed up to POWER_BITS bits (n * bit_length(p)), as p^exp
        # is in TorusValue: n = 1024 at p = 13 still fits
        assert Space(2, POWER_BITS // 2).size == 1 << POWER_BITS // 2
        assert Space(13, POWER_BITS // 4).size == 13 ** (POWER_BITS // 4)
        assert POWER_BITS // 4 >= 1024
        for p, n in [(2, POWER_BITS // 2 + 1), (13, POWER_BITS // 4 + 1),
                     (13, 4194304), (3, 10**11), (13, 10**18)]:
            with time_limit(2), pytest.raises(BudgetExceeded, match="^Space: "):
                Space(p, n)

    @pytest.mark.parametrize("length", [0, 3, 5])
    def test_ncpoly_table_length(self, length):
        with pytest.raises(ValueError, match=f"^need 4 values, got {length}$"):
            NCPoly(2, 2, np.zeros(length, dtype=np.int64), 0)
        with pytest.raises(ValueError, match=f"^need 4 values, got {length}$"):
            NCPoly.from_values(2, 2, [TorusValue(2, 1, 1)] * length)

    def test_ncpoly_table_is_one_axis(self):
        with pytest.raises(ValueError, match="^need 4 values, got 4$"):
            NCPoly(2, 2, np.zeros((2, 2), dtype=np.int64), 0)


class TestJsonInt:
    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_fast_path_refuses_as_the_walk_does(self, bad):
        # a flat list of plain ints takes the fast path; a nested list, a
        # numpy integer or a lone value takes the walk, with one message
        for value in ([1, bad], [[1, bad]], [np.int64(1), bad], bad):
            with pytest.raises(ValueError) as exc:
                json_int({"k": value}, "k")
            assert str(exc.value) == f"k must hold integers, got {bad!r}"

    def test_numpy_integers_still_read(self):
        for value, want in [(np.int8(3), 3), ([1, np.int64(2)], [1, 2]),
                            ([[np.uint8(1)], [2]], [[1], [2]])]:
            got = json_int({"k": value}, "k")
            assert got == want and type(got) is type(want)
        flat = [1, 2]
        got = json_int({"k": flat}, "k")
        assert got == flat and got is not flat


class TestCounters:
    def test_expectation_examples(self):
        c = UnityCounter(2, 1)
        c.add_counts([0], [3])  # 0 three times
        c.add_counts([1], [1])  # 1/2 once
        assert c.expectation().as_fraction() == Fraction(1, 2)

        c = UnityCounter(2, 2)
        c.add_counts([0], [5])
        assert c.expectation().as_fraction() == 1

        c = UnityCounter(5, 1)
        c.add_residues(np.arange(5))
        assert c.expectation().is_zero()

    def test_empty_counter(self):
        with pytest.raises(ValueError):
            UnityCounter(2, 1).expectation()

    def test_insertion_order_independent(self):
        # one by one forwards, one by one backwards and in bulk, at 3^2,
        # 2^21 and 2^62 residues
        rng = SplitMix64(9)
        for p, K in ((3, 2), (2, 21), (2, 62)):
            residues = np.array([rng.below(p**K) for _ in range(500)])
            forward, backward, bulk = (UnityCounter(p, K) for _ in range(3))
            for r in residues:
                forward.add_counts([r], [1])
            for r in residues[::-1]:
                backward.add_counts([r], [1])
            bulk.add_residues(residues)
            for c in (backward, bulk):
                assert np.array_equal(c.residues, forward.residues)
                assert np.array_equal(c.counts, forward.counts)
                assert c.expectation().as_complex() == \
                    forward.expectation().as_complex()

    def test_counts_only_the_residues_that_occur(self):
        # 10^5 residues mod 2^62 from a pool of 3000, half of them given
        # shifted by -2^62: one counter each, summing to the oracle's value
        rng = SplitMix64(62)
        pool = (rng.draws(3000) >> np.uint64(2)).astype(np.int64)
        residues = pool[rng.draws(10**5) % np.uint64(3000)]
        c = UnityCounter(2, 62)
        c.add_residues(residues[::2])
        c.add_residues(residues[1::2] - (1 << 62))
        distinct, counts = np.unique(residues, return_counts=True)
        assert len(c.counts) == len(distinct)
        assert np.array_equal(c.residues, distinct)
        assert np.array_equal(c.counts, counts)
        e = c.expectation()
        assert e.total == 10**5
        assert _coeffs(e) == \
            CycloSum(2, 62, dict(zip(distinct.tolist(), counts.tolist()))).coeffs


class CycloSum:
    """Test oracle: an exact integer combination of p^K-th roots of unity as
    a {exponent: coefficient} dict, reduced term by term to the basis
    zeta^0, ..., zeta^(phi-1) with sum_{i<p} zeta^(i p^(K-1)) = 0."""

    def __init__(self, p: int, K: int, coeffs: dict[int, int] | None = None):
        self.p = p
        self.K = K
        self.coeffs: dict[int, int] = {}
        for t, c in (coeffs or {}).items():
            self._add_term(t, c)

    @property
    def order(self) -> int:
        return self.p**self.K

    @property
    def phi(self) -> int:
        return (self.p - 1) * self.p ** (self.K - 1) if self.K > 0 else 1

    def _add_term(self, t: int, c: int) -> None:
        if c == 0:
            return
        t %= self.order
        if t < self.phi:
            new = self.coeffs.get(t, 0) + c
            if new:
                self.coeffs[t] = new
            else:
                self.coeffs.pop(t, None)
            return
        # zeta^((p-1)p^(K-1) + b) = -sum_{i<p-1} zeta^(i p^(K-1) + b)
        b = t - self.phi
        step = self.p ** (self.K - 1)
        for i in range(self.p - 1):
            self._add_term(i * step + b, -c)

    def __mul__(self, other: "CycloSum") -> "CycloSum":
        out = CycloSum(self.p, self.K)
        for t1, c1 in self.coeffs.items():
            for t2, c2 in other.coeffs.items():
                out._add_term(t1 + t2, c1 * c2)
        return out

    def conj(self) -> "CycloSum":
        return CycloSum(self.p, self.K,
                        {-t % self.order: c for t, c in self.coeffs.items()})

    def rational_part(self) -> int | None:
        if any(t != 0 for t in self.coeffs):
            return None
        return self.coeffs.get(0, 0)

    def as_complex(self) -> complex:
        return sum((c * np.exp(2j * np.pi * t / self.order)
                    for t, c in self.coeffs.items()), 0j)


def _coeffs(e: ExactExpectation, row=()) -> dict[int, int]:
    """The nonzero coordinates of one expectation of a batch, by exponent."""
    return {t: c for t, c in zip(e.basis.tolist(), e.coords[row].tolist())
            if c}


class TestExactExpectation:
    def test_full_orbit_vanishes(self):
        z = ExactExpectation(3, 2, [1] * 9, 9)
        assert z.is_zero()

    def test_reduction_consistent_with_floats(self):
        rng = SplitMix64(11)
        for _ in range(50):
            counts = [rng.below(5) for _ in range(8)]
            z = ExactExpectation(2, 3, counts, 1)
            direct = sum(c * np.exp(2j * np.pi * t / 8)
                         for t, c in enumerate(counts))
            assert abs(z.as_complex() - direct) < 1e-9

    def test_modulus_squared_rational_detection(self):
        # 1 + zeta_8 has irrational |.|^2 = 2 + sqrt(2)
        z = ExactExpectation(2, 3, [1, 1], 1, residues=[0, 1])
        assert not z.abs_sq().is_rational()
        assert z.abs_sq().as_fraction() is None
        # 1 + i has |.|^2 = 2
        w = ExactExpectation(2, 2, [1, 1], 1, residues=[0, 1])
        assert w.abs_sq().as_fraction() == 2

    @pytest.mark.parametrize("p", [2, 3, 5, 17, 19])
    def test_matches_dict_oracle(self, p):
        rng = SplitMix64(p)
        for K in range(4):
            M = p**K
            for dense in (True, False):
                if dense and M > 125:
                    continue
                residues = list(range(M)) if dense else \
                    sorted({rng.below(M) for _ in range(1 + rng.below(6))})
                # a batch of 3, with a full orbit and an empty row among them
                counts = [[rng.below(4) for _ in residues] for _ in range(3)]
                counts[rng.below(3)] = [0] * len(residues)
                if dense:
                    counts[rng.below(3)] = [1] * M
                total = 1 + rng.below(100)
                z = ExactExpectation(p, K, counts, total,
                                     residues=None if dense else residues)
                sq = z.abs_sq()
                assert sq.total == total**2
                for row, c in enumerate(counts):
                    o = CycloSum(p, K, dict(zip(residues, c)))
                    assert _coeffs(z, row) == o.coeffs
                    assert z.is_zero()[row] == (not o.coeffs)
                    assert abs(z.as_complex()[row] - o.as_complex() / total) \
                        < 1e-9
                    o_sq = o * o.conj()
                    assert _coeffs(sq, row) == o_sq.coeffs
                    r = o_sq.rational_part()
                    assert sq.is_rational()[row] == (r is not None)
                    if r is not None:
                        assert sq.rational_part()[row] == r

    def test_exact_past_int64(self):
        # coordinates near 2^33 make |.|^2 near 2^67
        residues = [0, 1, 4]
        counts = [(1 << 33) + 1, (1 << 33) + 5, 1 << 33]
        z = ExactExpectation(3, 2, counts, sum(counts), residues=residues)
        o = CycloSum(3, 2, dict(zip(residues, counts)))
        assert _coeffs(z) == o.coeffs
        sq = z.abs_sq()
        assert _coeffs(sq) == (o * o.conj()).coeffs
        assert max(abs(c) for c in _coeffs(sq).values()) >= 1 << 63

    def test_order_one(self):
        # K = 0, and the trivial group of a product of order-1 factors
        for p in (1, 2, 5):
            z = ExactExpectation(p, 0, [[3], [0]], 4)
            assert z.is_zero().tolist() == [False, True]
            assert z.abs_sq().rational_part().tolist() == [9, 0]
            assert ExactExpectation(p, 0, [3], 4).as_fraction() == \
                Fraction(3, 4)

    def test_dense_and_sparse_residues_agree(self):
        # three residues leave most columns b = t mod 5 empty
        counts = [0] * 25
        for t, c in ((3, 2), (8, 1), (21, 4)):
            counts[t] = c
        dense = ExactExpectation(5, 2, counts, 7)
        sparse = ExactExpectation(5, 2, [2, 1, 4], 7, residues=[3, 8, 21])
        assert np.array_equal(dense.basis, sparse.basis)
        assert np.array_equal(dense.coords, sparse.coords)
        assert _coeffs(dense) == CycloSum(5, 2, {3: 2, 8: 1, 21: 4}).coeffs

    @pytest.mark.parametrize(
        "residues", [[0, 0], [1, 0], [-1, 1], [0, 2]],
        ids=["repeated", "decreasing", "negative", "past-modulus"])
    def test_residues_strictly_increasing_in_range(self, residues):
        # a repeated residue used to keep only its last count ([0, 0] read
        # 2/3 instead of 1) and one past p^K to raise a bare IndexError
        with pytest.raises(ValueError, match="strictly increasing"):
            ExactExpectation(2, 1, [1, 2], 3, residues=residues)

    def test_residues_one_per_count(self):
        with pytest.raises(ValueError, match="one per count"):
            ExactExpectation(2, 2, [1, 2], 3, residues=[0, 1, 2])

    @pytest.mark.parametrize("p,K", [(2, 40), (3, 30)])
    def test_abs_sq_past_dense_counters(self, p, K):
        # |.|^2 lands on the differences that occur, not on all p^K residues
        rng = SplitMix64(K)
        residues = sorted({rng.below(p**K) for _ in range(6)})
        counts = [[1 + rng.below(5) for _ in residues] for _ in range(2)]
        sq = ExactExpectation(p, K, counts, 9, residues=residues).abs_sq()
        for row, c in enumerate(counts):
            o = CycloSum(p, K, dict(zip(residues, c)))
            assert _coeffs(sq, row) == (o * o.conj()).coeffs