"""Stock examples over F_2: the digit-sum map L, the elementary symmetric
polynomials S_k, the torus maps L/2^j, the one-variable mother examples,
and the bilinear/quartic forms attached to S_2 and S_4."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import TorusValue, space
from .forms import MultilinearForm, dk_extract
from .poly import NCPoly


@lru_cache(maxsize=64)
def L_table(n: int) -> np.ndarray:
    """L(x) = |x_1| + ... + |x_n| as integers."""
    return space(2, n).digits.sum(axis=1, dtype=np.int64)


def S_table(n: int, k: int) -> np.ndarray:
    """(2^n, k + 1) uint8 table of S_0, ..., S_k over F_2: the coefficients
    of prod_i (1 + t x_i), built in n in-place passes.  The & term is a
    temporary, so its overlap with the slice it updates is safe."""
    dig = space(2, n).digits
    coef = np.zeros((len(dig), k + 1), dtype=np.uint8)
    coef[:, 0] = 1
    for i in range(n):
        coef[:, 1:] ^= coef[:, :-1] & dig[:, i: i + 1]
    return coef


@lru_cache(maxsize=256)
def S_k(n: int, k: int) -> NCPoly:
    """The degree-k elementary symmetric polynomial over F_2: column k of
    S_table."""
    return NCPoly.from_classical_table(2, n, S_table(n, k)[:, k])


def binom_L_mod2(n: int, k: int) -> np.ndarray:
    """binom(L, k) mod 2 as a table; equals S_k by Lucas' theorem.  One
    direct binomial per weight w <= n, gathered by L."""
    from math import comb

    return np.array([comb(w, k) % 2 for w in range(n + 1)], dtype=np.int64)[L_table(n)]


def L_over_power(n: int, j: int) -> NCPoly:
    """L / 2^j mod 1; a polynomial of degree j (depth j-1 linear terms)."""
    if j < 1:
        raise ValueError("need j >= 1")
    return NCPoly(2, n, L_table(n) % (1 << j), j)


def mother_p() -> NCPoly:
    """P: F_2 -> T with P(0) = 0, P(1) = 1/2 (classical, degree 1)."""
    return NCPoly.from_values(2, 1, [TorusValue.zero(2), TorusValue(2, 1, 1)])


def mother_q() -> NCPoly:
    """Q: F_2 -> T with Q(0) = 0, Q(1) = 1/4 (non-classical, degree 2)."""
    return NCPoly.from_values(2, 1, [TorusValue.zero(2), TorusValue(2, 1, 2)])


@lru_cache(maxsize=64)
def bilinear_b(n: int) -> MultilinearForm:
    """B = d^2 S_2: B(a, b) = sum_{i != j} a_i b_j."""
    form = dk_extract(S_k(n, 2), 2)
    assert form.classical
    return form


@lru_cache(maxsize=64)
def quartic_form(n: int) -> MultilinearForm:
    """d^4 S_4, the quartilinear form whose bias tends to 1/8."""
    form = dk_extract(S_k(n, 4), 4)
    assert form.classical
    return form
