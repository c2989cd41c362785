"""Symmetric multilinear forms V^k -> F_p and their calculus.

A form is stored by its values on sorted basis tuples (equivalently,
coordinate multisets) and extended everywhere by multilinearity.  The
classical ones vanish whenever p or more arguments coincide: the property
`classical` checks that every multiplicity in the support is below p.
They are exactly the k-th derivatives of classical polynomials.

The bias of a form is computed exactly from ranks.  With its first k-2
arguments fixed, T is a bilinear form with an n x n matrix M over F_p,
and E e(T) = N^-(k-2) sum p^-rank M over those N^(k-2) prefixes (N = p^n):
N^(k-2) batched ranks instead of N^(k-1) last-slot tests.  At p = 2 (n up
to 64) each matrix is n bit-packed rows in the narrowest unsigned dtype;
otherwise a batched F_p elimination runs on uint8 matrices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .core import (
    SPACE_CAP,
    UnityCounter,
    check_budget,
    json_int,
    space,
)
from .parallel import chunk_ranges, ordered_map
from .poly import CanonicalForm, NCPoly, TorusValue, _exact_reduce

Multiset = tuple[int, ...]


class MultilinearForm:
    """Symmetric k-linear map V^k -> F_p given by values on basis multisets."""

    def __init__(self, p: int, n: int, k: int, coeffs: dict[Multiset, int] | None = None):
        space(p, n)  # validates p and n
        if k < 1:
            raise ValueError("arity must be >= 1")
        self.p = p
        self.n = n
        self.k = k
        self.coeffs: dict[Multiset, int] = {}
        given: set[Multiset] = set()
        for key, c in (coeffs or {}).items():
            key = tuple(sorted(key))
            if key in given:  # a form is one value per multiset
                raise ValueError(f"multiset {key} is given two values")
            given.add(key)
            c %= p
            if c == 0:
                continue
            if len(key) != k or any(not 0 <= i < n for i in key):
                raise ValueError(f"bad multiset {key}")
            self.coeffs[key] = c

    @property
    def classical(self) -> bool:
        """Every multiplicity of every supporting multiset is below p."""
        return all(key.count(i) < self.p for key in self.coeffs for i in key)

    def value(self, key: Iterable[int]) -> int:
        return self.coeffs.get(tuple(sorted(key)), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultilinearForm):
            return NotImplemented
        return (self.p, self.n, self.k, self.coeffs) == (
            other.p, other.n, other.k, other.coeffs)

    def __add__(self, other: "MultilinearForm") -> "MultilinearForm":
        out: dict[Multiset, int] = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return MultilinearForm(self.p, self.n, self.k, out)

    def scale(self, a: int) -> "MultilinearForm":
        return MultilinearForm(self.p, self.n, self.k,
                               {key: a * c for key, c in self.coeffs.items()})

    def dense_tensor(self) -> np.ndarray:
        """Full (n,)*k value tensor, filled via symmetry; n^k is checked
        against SPACE_CAP before it is allocated."""
        check_budget(self.n**self.k, SPACE_CAP, "MultilinearForm.dense_tensor")
        T = np.zeros((self.n,) * self.k, dtype=np.int8)
        for key, c in self.coeffs.items():
            for perm in set(itertools.permutations(key)):
                T[perm] = c
        return T

    def eval_batch(self, arg_indices: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on B tuples given as k index arrays of shape (B,); the
        B x n^(k-1) contraction is checked against SPACE_CAP first."""
        B = len(arg_indices[0])
        check_budget(B * self.n ** (self.k - 1), SPACE_CAP, "MultilinearForm.eval_batch")
        sp = space(self.p, self.n)
        dig = sp.digits.astype(np.int64)
        cur = np.broadcast_to(
            self.dense_tensor().astype(np.int64).reshape((1,) + (self.n,) * self.k),
            (B,) + (self.n,) * self.k,
        )
        for t, idx in enumerate(arg_indices):
            d = dig[np.asarray(idx, dtype=np.int64)]  # (B, n)
            rest = self.n ** (self.k - 1 - t)
            cur = (
                np.einsum("bi,bir->br", d, cur.reshape(len(d), self.n, rest)) % self.p
            )
        return cur.reshape(-1)

    @classmethod
    def from_json(cls, obj: dict) -> "MultilinearForm":
        coeffs: dict[Multiset, int] = {}  # 1-based, as in the JSON
        for t in obj.get("coeffs", []):
            key = tuple(sorted(json_int(t, "multiset")))
            if key in coeffs:
                raise ValueError(f"multiset {list(key)} is given two values")
            coeffs[key] = json_int(t, "c")
        return cls(json_int(obj, "p"), json_int(obj, "n"), json_int(obj, "k"),
                   {tuple(i - 1 for i in key): c for key, c in coeffs.items()})

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, n={self.n}, k={self.k}, {len(self.coeffs)} terms)"


# ---------------------------------------------------------------------------
# extraction and antiderivative


def dk_values(p: int, n: int, nums: np.ndarray, K: int,
              dirs: np.ndarray) -> np.ndarray:
    """Batched k-fold derivatives at the origin.

    For tables (..., N) of numerators in [0, p^K) and direction tuples
    dirs (T, k) of space indices, the numerators over p^K of
    sum_S (-1)^(k-|S|) P(sum_{t in S} h_t), shape (..., T).
    """
    sp = space(p, n)
    mod = p**K
    T, k = dirs.shape
    points = [np.zeros(T, dtype=np.int64)]  # points[S] = sum_{t in S} h_t
    out = np.zeros(np.shape(nums)[:-1] + (T,), dtype=np.int64)
    for mask in range(1 << k):
        if mask:
            low = (mask & -mask).bit_length() - 1
            points.append(sp.add_indices(points[mask & (mask - 1)], dirs[:, low]))
        vals = nums[..., points[mask]]
        # both branches keep every intermediate inside (-p^K, p^K)
        if (k - bin(mask).count("1")) % 2:
            out = (out - vals) % mod
        else:
            out = (out - (mod - vals)) % mod
    return out


def dk_extract(P: NCPoly, k: int) -> MultilinearForm:
    """The k-fold derivative d^k P as a symmetric multilinear form.

    Requires deg P <= k so that the iterated derivative is independent of
    the base point.  The form is classical when P is.
    """
    if P.degree() > k:
        raise ValueError(f"degree {P.degree()} exceeds arity {k}: d^k depends on x")
    # 2^k points for each of at most C(n+k, k) multisets, before they are listed
    check_budget(math.comb(P.n + k, k) << min(k, 64), SPACE_CAP, "dk_extract")
    keys = list(itertools.combinations_with_replacement(range(P.n), k))
    units = P.p ** np.array(keys, dtype=np.int64).reshape(len(keys), k)
    coeffs: dict[Multiset, int] = {}
    for key, num in zip(keys, dk_values(P.p, P.n, P.nums, P.K, units).tolist()):
        val = TorusValue(P.p, num, P.K)
        if val.is_zero():
            continue
        if val.exp != 1:
            raise ValueError("d^k values left iota(F); input is not a polynomial")
        coeffs[key] = val.num
    return MultilinearForm(P.p, P.n, k, coeffs)


def antiderivative(T: MultilinearForm) -> NCPoly:
    """A classical P of degree <= k with d^k P = T (monomial construction:
    each multiset A contributes iota(prod x_j^(a_j) / a_j!))."""
    if not T.classical:
        raise ValueError("antiderivative needs a classical form")
    p = T.p
    terms: dict[tuple[tuple[int, ...], int], int] = {}
    for key, c in T.coeffs.items():
        exps = [0] * T.n
        for i in key:
            exps[i] += 1
        inv_fact = 1
        for a in exps:
            fact = 1
            for u in range(2, a + 1):
                fact = fact * u % p
            inv_fact = inv_fact * pow(fact, p - 2, p) % p
        slot = (tuple(exps), 0)
        terms[slot] = (terms.get(slot, 0) + c * inv_fact) % p
    return NCPoly.from_canonical(
        CanonicalForm(p, T.n, TorusValue.zero(p), terms))


# ---------------------------------------------------------------------------
# concatenation and symmetric powers


def concat(S: MultilinearForm, T: MultilinearForm) -> MultilinearForm:
    """Concatenation S * T: sum over partitions of the k+l argument slots."""
    if (S.p, S.n) != (T.p, T.n):
        raise ValueError("mismatched forms")
    p, n = S.p, S.n
    k, l = S.k, T.k
    out: dict[Multiset, int] = {}
    for tup in itertools.combinations_with_replacement(range(n), k + l):
        total = 0
        for A in itertools.combinations(range(k + l), k):
            Aset = set(A)
            left = tuple(tup[i] for i in A)
            right = tuple(tup[i] for i in range(k + l) if i not in Aset)
            total += S.value(left) * T.value(right)
        out[tup] = total
    return MultilinearForm(p, n, k + l, out)


def _block_partitions(positions: tuple[int, ...], k: int):
    """Partitions of positions into unordered blocks of size k."""
    if not positions:
        yield ()
        return
    first = positions[0]
    rest = positions[1:]
    for companions in itertools.combinations(rest, k - 1):
        block = (first,) + companions
        remaining = tuple(i for i in rest if i not in companions)
        for tail in _block_partitions(remaining, k):
            yield (block,) + tail


def sym_power(T: MultilinearForm, m: int) -> MultilinearForm:
    """Sym^m(T): sum over partitions into m blocks of size k; defined for
    k >= 2 (the classicality argument fails for linear forms)."""
    if T.k < 2:
        raise ValueError("symmetric powers need arity k >= 2")
    if m < 1:
        raise ValueError("m must be positive")
    p, n, k = T.p, T.n, T.k
    out: dict[Multiset, int] = {}
    for tup in itertools.combinations_with_replacement(range(n), m * k):
        total = 0
        for blocks in _block_partitions(tuple(range(m * k)), k):
            prod = 1
            for block in blocks:
                prod = prod * T.value(tuple(tup[i] for i in block)) % p
                if prod == 0:
                    break
            total += prod
        out[tup] = total
    return MultilinearForm(p, n, m * k, out)


def binomial_lift_power(P: NCPoly, m: int, k: int | None = None) -> NCPoly:
    """A classical Q of degree <= mk with d^(mk) Q = Sym^m(d^k P).

    P is lifted to Z/p^(M+1) through iterated canonical p-th roots (M
    minimal with m < p^(M+1)); Q is the periodic map n -> binom(n, m) mod p
    applied to the lift.
    """
    if not P.is_classical():
        raise ValueError("binomial lift needs a classical polynomial")
    p = P.p
    if k is None:
        k = max(int(P.degree()), 2)
    if k < 2:
        raise ValueError("need degree bound k >= 2")
    if P.degree() > k:
        raise ValueError("degree exceeds stated bound")
    if m == 1:
        return P
    M = 0
    while p ** (M + 1) <= m:
        M += 1
    lift = P
    for _ in range(M):
        lift = lift.pth_root()
    modulus = p ** (M + 1)
    ints = lift.nums * (modulus // p**lift.K) % modulus
    binom_mod = np.array(
        [math.comb(v, m) % p for v in range(modulus)], dtype=np.int64
    )
    return NCPoly.from_classical_table(p, P.n, binom_mod[ints])


# ---------------------------------------------------------------------------
# exact bias

# Matrices per chunk of the rank fold.  The F_p step holds n x n bytes per
# matrix, so wide forms get proportionally fewer.
_CHUNK = 1 << 14


def bias(form: MultilinearForm, budget: int | None = None, threads: int = 1) -> Fraction:
    """E e(iota(T)) over V^k, exactly.

    Equals the density of (k-1)-tuples whose last-slot restriction vanishes
    identically.  With the first k-2 arguments fixed, T is a bilinear form
    with an n x n matrix M over F_p, and exactly p^(n - rank M) choices of
    the (k-1)-th argument leave the last slot zero; so the count is
    sum p^(n - rank M) over the N^(k-2) prefixes.
    """
    p, n, k = form.p, form.n, form.k
    if k == 1:
        check_budget(max(n, 1), budget, "bias")
        zero = all(form.value((i,)) == 0 for i in range(n))
        return Fraction(1 if zero else 0, 1)
    packed = p == 2 and n <= 64
    N = space(p, n).size
    check_budget(N ** (k - 2) * max(n, 1) ** (2 if packed else 3), budget, "bias")
    return Fraction(_count_vanishing(form, threads, packed), N ** (k - 1))


def _count_vanishing(form: MultilinearForm, threads: int, packed: bool) -> int:
    """Number of (k-1)-tuples on which T(x_1, ..., x_(k-1), .) vanishes.

    The prefixes x_1..x_(k-2) are cut into chunks of about _CHUNK: the
    leading slots are folded one vector at a time, the trailing ones are
    expanded over a range of the split slot and all of the slots after it.
    packed selects the GF(2) step on bit-packed rows (p = 2, n <= 64) over
    the F_p elimination.
    """
    p, n, k = form.p, form.n, form.k
    N = space(p, n).size
    if packed:
        tensor = _packed_tensor(form)
        combos, ranks = _xor_combos, _packed_ranks
    else:
        tensor = form.dense_tensor().astype(np.uint8)
        combos, ranks = partial(_digit_combos, p), partial(_fp_ranks, p)
    m = k - 2
    if m == 0:
        hist = np.bincount(ranks(tensor[None]), minlength=n + 1)
    else:
        size = _CHUNK if packed else max(1, min(_CHUNK, (_CHUNK << 6) // max(n, 1) ** 2))
        expanded = 0  # trailing slots expanded whole in every chunk
        while expanded < m - 1 and N ** (expanded + 1) <= size:
            expanded += 1
        folded = m - 1 - expanded  # leading slots fixed per chunk
        # step is N or a power of two below it when packed
        step = max(1, min(N, size // N**expanded))
        per_prefix = -(-N // step)

        def chunk_hist(units: range) -> np.ndarray:
            hist = np.zeros(n + 1, dtype=np.int64)
            for u in units:
                prefix, start = divmod(u, per_prefix)
                t = tensor
                for _ in range(folded):
                    prefix, x = divmod(prefix, N)
                    t = combos(t, x, 1)[0]
                start *= step
                mats = combos(t, start, min(step, N - start))
                for _ in range(expanded):
                    mats = combos(mats.swapaxes(0, 1), 0, N).reshape(
                        (N * len(mats),) + mats.shape[2:])
                hist += np.bincount(ranks(mats), minlength=n + 1)
            return hist

        units = range(N**folded * per_prefix)
        hist = sum(ordered_map(chunk_hist, chunk_ranges(units, threads), threads))
    return sum(int(c) * p ** (n - r) for r, c in enumerate(hist.tolist()))


def _packed_tensor(form: MultilinearForm) -> np.ndarray:
    """Tensor of shape (n,)*(k-1) in the narrowest unsigned dtype of n bits:
    bit j of W[..., i] holds T(e_..., e_i, e_j)."""
    n = form.n
    dtype = next(d for d in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if np.iinfo(d).bits >= n)
    bits = form.dense_tensor().astype(dtype) << np.arange(n, dtype=dtype)
    return np.bitwise_or.reduce(bits, axis=-1)


def _subset_xor_expand(words: np.ndarray) -> np.ndarray:
    """From per-bit words w_j, the xor-fold over every subset h: arr[h]."""
    n = words.shape[0]
    arr = np.zeros((1 << n,) + words.shape[1:], dtype=words.dtype)
    for j in range(n):
        arr[1 << j: 2 << j] = arr[: 1 << j] ^ words[j]
    return arr


def _xor_fold(W: np.ndarray, h: int) -> np.ndarray:
    out = np.zeros(W.shape[1:], dtype=W.dtype)
    m = 0
    while h:
        if h & 1:
            out = out ^ W[m]
        h >>= 1
        m += 1
    return out


def _xor_combos(words: np.ndarray, start: int, count: int) -> np.ndarray:
    """Xor-folds of words over the subsets h in [start, start + count);
    count is a power of two dividing start."""
    j = count.bit_length() - 1
    return _subset_xor_expand(words[:j]) ^ _xor_fold(words[j:], start >> j)


def _digit_combos(p: int, words: np.ndarray, start: int, count: int) -> np.ndarray:
    """sum_i x_i words[i] mod p for the vectors x of index in [start, start + count)."""
    n = words.shape[0]
    idx = np.arange(start, start + count, dtype=np.int64)
    digits = (idx[:, None] // p ** np.arange(n, dtype=np.int64) % p).astype(np.int32)
    out = digits @ words.reshape(n, math.prod(words.shape[1:])) % p
    return out.astype(np.uint8).reshape((count,) + words.shape[1:])


def _packed_ranks(words: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a batch (B, n) of matrices with bit-packed rows.

    The largest row is the pivot: xoring it into every row lowers exactly
    the rows that share its leading bit, so taking the minimum clears that
    bit everywhere and zeroes the pivot row itself.
    """
    rows = np.ascontiguousarray(words.T)
    rank = np.zeros(rows.shape[1], dtype=np.intp)
    for _ in range(rows.shape[0]):
        piv = rows.max(axis=0)
        rank += piv != 0
        np.minimum(rows, rows ^ piv, out=rows)
    return rank


def _fp_ranks(p: int, mats: np.ndarray) -> np.ndarray:
    """F_p ranks of a batch (B, n, n) of uint8 matrices, column by column.

    A row with a nonzero entry in the column is scaled to a leading 1 and
    subtracted from every row, itself included, so it drops out and the
    column clears; the rank counts the columns that had such a row.  Every
    intermediate stays below p^2 + p <= 182, so uint8 never wraps.
    """
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.uint8)
    A = mats.copy()
    batch = np.arange(len(A))
    rank = np.zeros(len(A), dtype=np.intp)
    for col in range(A.shape[2]):
        c = A[:, :, col]
        piv = (c != 0).argmax(axis=1)
        lead = c[batch, piv]
        rank += lead != 0
        prow = A[batch, piv, col:] * inv[lead][:, None] % p
        A[:, :, col:] = (A[:, :, col:] + (p * p - c[:, :, None] * prow[:, None, :])) % p
    return rank


def naive_bias(form: MultilinearForm, budget: int | None = None) -> Fraction:
    """Direct |V|^k character sum, via exact residue counters.

    N^k is checked against budget and against SPACE_CAP.  The dense tensor
    is contracted with the digit vectors one argument at a time in float64
    and reduced mod p once: after t contractions every entry is below
    (p-1)(n(p-1))^t, and inside the cap that is below 2^53 (3.6e7 at
    p = 13, n = 1, k = 6).
    """
    p, n, k = form.p, form.n, form.k
    sp = space(p, n)
    N = sp.size
    check_budget(N**k, budget, "naive_bias")
    check_budget(N**k, SPACE_CAP, "naive_bias")
    dig = sp.digits.astype(np.float64)
    cur = form.dense_tensor().astype(np.float64)
    for t in range(k):
        cur = np.moveaxis(np.tensordot(dig, cur, axes=(1, t)), 0, t)
    counter = UnityCounter(p, 1)
    counter.add_residues(_exact_reduce(cur, p, 1).reshape(-1))
    frac = counter.expectation().as_fraction()
    assert frac is not None, "bias of a multilinear form must be rational"
    return frac


# ---------------------------------------------------------------------------
# the p-fold repetition identity


def check_dkp(P: NCPoly, k: int) -> tuple[int, list]:
    """Verify d^k P(h1 x p, h2, ..) = -d^(k-p+1)(pP)(h1, h2, ..) on every
    tuple, at most 2^20 of them.  Returns (number checked, failures)."""
    p, n = P.p, P.n
    if k <= p:
        raise ValueError("identity needs k > p")
    if P.degree() > k:
        raise ValueError("degree exceeds k")
    r = k - p + 1  # argument count
    pP = P.mul_by_p()
    N = space(p, n).size
    check_budget(N**r, 1 << 20, "check_dkp")
    tuples = list(itertools.product(range(N), repeat=r))
    h = np.array(tuples, dtype=np.int64).reshape(len(tuples), r)
    lhs = dk_values(p, n, P.nums, P.K,
                    np.concatenate([np.repeat(h[:, :1], p, axis=1), h[:, 1:]], axis=1))
    rhs = dk_values(p, n, pP.nums, pP.K, h)
    # -rhs over p^K; mul_by_p never raises the depth, so pP.K <= P.K
    neg_rhs = -rhs * p ** (P.K - pP.K) % p**P.K
    failures = [
        {"tuple": list(tuples[i]),
         "lhs": str(TorusValue(p, int(lhs[i]), P.K)),
         "rhs": str(TorusValue(p, int(rhs[i]), pP.K))}
        for i in np.flatnonzero(lhs != neg_rhs)]
    return len(tuples), failures
