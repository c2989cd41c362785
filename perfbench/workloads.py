"""The four benchmark workloads, through the public API of ``toruspoly``.

A workload is ``setup(seed) -> inputs`` plus a fixed list of operations.
Each operation takes the inputs and returns its checks as ``(label, ok)``
pairs; every check compares a result with a known value or with a second,
independent route to it.  Exhaustive parts ignore the seed; random parts
draw from ``SplitMix64(seed)``.  Every call that accepts ``budget=`` gets an
explicit one, a few times the cost it estimates for these inputs, so that a
regression that blows up the work fails the check instead of the machine.
See README.md for why each workload exists.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

import toruspoly as tp
from toruspoly import catalog, cubes, cubescan
from toruspoly.rng import SplitMix64

# Exact quartic biases E e(d^4 S_4) on F_2^n, n = 4..9.
QUARTIC_BIAS = {
    4: Fraction(197, 512), 5: Fraction(197, 512),
    6: Fraction(1577, 8192), 7: Fraction(1577, 8192),
    8: Fraction(18617, 131072), 9: Fraction(18617, 131072),
}
# bias(quartic_form(9)) and analytic_rank(S_4(9)) estimate n * N^3 = 1.2e9
# operations; gowers_power_exact at p=2, n=6, d=3 estimates N^4 = 1.7e7.
BIAS_BUDGET = 1 << 33
GOWERS_BUDGET = 1 << 27
SMALL_BUDGET = 1 << 20
# The roots and cubes suites accept a budget but check none.
SUITE_BUDGET = 1 << 33

# roots-scan: the gate's exhaustive cells except (3,2,4) and (2,3,4), which
# take 13 s and 68 s alone; a pass must fit several times in a run.
ROOT_GRIDS = ((2, 3, 3), (2, 4, 2), (3, 2, 3), (3, 3, 2), (5, 2, 2))
ROOT_PARAMS = {"grids": [list(g) for g in ROOT_GRIDS],
               "random_trials": 500, "weighted_trials": 300}

# big-table: (p, n, K, polynomials, terms) of sparse canonical forms.
BIG_CASES = ((2, 10, 3, 4, 12), (3, 6, 3, 4, 12))

# headline-exact: (p, n, d, polynomials) for gowers_power_exact.
GOWERS_CASES = ((2, 6, 3, 1), (2, 4, 4, 2), (3, 3, 3, 2))
U2_FUNCTIONS = 200

# cube-groups: the cubes suite at k <= 2 plus counted k = 3 equivalences.
CUBE_PARAMS = {"k": 2, "maps": 150}


def _cube_groups():
    G = tp.FilteredAbelianGroup
    pair = [(a, b) for a in range(2) for b in range(4)]
    return (
        G.maximal([16], 3),
        G.cyclic_chain(8, [8, 8, 4, 2]),
        G.cyclic_chain(9, [9, 9, 3, 1]),
        G((2, 4), levels=[pair, pair, [(0, b) for b in range(4)],
                          [(0, 0), (0, 2)]]),
    )


def _scanned_group():
    """Small enough for the exhaustive scan to cross-check the count."""
    return tp.FilteredAbelianGroup.cyclic_chain(4, [4, 4, 2, 1])


# ---------------------------------------------------------------------------
# input generators


def _sparse_form_json(p: int, n: int, K: int, terms: int, rng) -> str:
    """A canonical form with `terms` random monomials, one at depth K-1."""
    chosen: dict[tuple[tuple[int, ...], int], int] = {}
    while len(chosen) < terms:
        exps = tuple(rng.below(p) for _ in range(n))
        if not any(exps):
            continue
        depth = K - 1 if not chosen else rng.below(K)
        chosen[(exps, depth)] = 1 + rng.below(p - 1)
    return json.dumps({
        "p": p, "n": n, "alpha": {"num": rng.below(p**K), "exp": K},
        "terms": [{"exps": list(e), "depth": j, "coeff": c}
                  for (e, j), c in sorted(chosen.items())],
    })


def _random_poly(p: int, n: int, d: int, rng) -> tp.NCPoly:
    """A random polynomial of degree <= d (all canonical slots drawn)."""
    terms = {s: rng.below(p) for s in tp.canonical_slots(p, n, d)}
    alpha = tp.TorusValue(p, rng.below(p**2), 2)
    return tp.NCPoly.from_canonical(tp.CanonicalForm(p, n, alpha, terms))


def _random_bounded(n: int, rng) -> tp.BoundedFunction:
    values = [rng.unit() * cmath.exp(2j * cmath.pi * rng.unit())
              for _ in range(1 << n)]
    return tp.BoundedFunction(2, n, values)


# ---------------------------------------------------------------------------
# roots-scan


def _roots_setup(seed: int) -> dict:
    return {"seed": seed}


def _roots_suite(inp):
    rep = tp.run_suite("roots", ROOT_PARAMS, seed=inp["seed"], threads=1,
                       budget=SUITE_BUDGET)
    out = [(f"{c.name} {c.params}", c.passed) for c in rep.checks]
    counted = {tuple(c.params[k] for k in "pnd"): c.details["polynomials"]
               for c in rep.checks if c.name == "root-roundtrip-exhaustive"}
    for cell in ROOT_GRIDS:
        out.append((f"count_polys{cell}",
                    counted.get(cell) == tp.count_polys(*cell)))
    return out


# ---------------------------------------------------------------------------
# big-table


def _big_setup(seed: int) -> dict:
    rng = SplitMix64(seed)
    return {"forms": [_sparse_form_json(p, n, K, terms, rng)
                      for p, n, K, count, terms in BIG_CASES
                      for _ in range(count)]}


def _big_roundtrips(inp):
    out = []
    for text in inp["forms"]:
        obj = json.loads(text)
        P = tp.NCPoly.from_json(obj)
        p, n = P.p, P.n
        bare = tp.NCPoly(p, n, P.nums, P.K)   # the table alone
        canon = bare.canonical()
        out.append((f"canonical round trip {p},{n}",
                    canon == tp.CanonicalForm.from_json(obj)))
        root = bare.pth_root()
        out.append((f"mul_by_p(root) {p},{n}", root.mul_by_p() == bare))
        # degree read back from the root's bare table, not its construction
        root_deg = tp.NCPoly(p, n, root.nums, root.K).degree()
        out.append((f"root degree {p},{n}",
                    root_deg <= canon.degree() + p - 1))
    return out


# ---------------------------------------------------------------------------
# headline-exact


def _headline_setup(seed: int) -> dict:
    rng = SplitMix64(seed)
    polys = [(_random_poly(p, n, d, rng), d)
             for p, n, d, count in GOWERS_CASES for _ in range(count)]
    funcs = [_random_bounded(6, rng) for _ in range(U2_FUNCTIONS)]
    return {"polys": polys, "funcs": funcs}


def _quartic_biases(inp):
    out = []
    for n, expected in QUARTIC_BIAS.items():
        value = tp.bias(catalog.quartic_form(n), budget=BIAS_BUDGET, threads=1)
        out.append((f"bias quartic n={n}", value == expected))
    naive = tp.naive_bias(catalog.quartic_form(4), budget=SMALL_BUDGET)
    out.append(("naive bias quartic n=4", naive == QUARTIC_BIAS[4]))
    return out


def _analytic_rank(inp):
    rank = tp.analytic_rank(catalog.S_k(9, 4), 3, budget=BIAS_BUDGET,
                            threads=1)
    return [("analytic rank S_4 n=9", rank.bias == QUARTIC_BIAS[9])]


def _gowers_exact(inp):
    out = []
    for P, d in inp["polys"]:
        value = tp.gowers_power_exact(P, d, budget=GOWERS_BUDGET).as_fraction()
        # for deg P <= d the d-th derivative is the form d^d P
        other = tp.bias(tp.dk_extract(P, d), budget=SMALL_BUDGET, threads=1)
        out.append((f"U^{d} power p={P.p} n={P.n}", value == other))
    return out


def _u2_margins(inp):
    out = []
    for f in inp["funcs"]:
        top = float(abs(tp.walsh_fourier(f)).max())
        margin = top - tp.gowers_norm(f, 2, budget=SMALL_BUDGET) ** 2
        out.append(("U^2 margin", margin >= -1e-12))
    return out


# ---------------------------------------------------------------------------
# cube-groups


def _cubes_setup(seed: int) -> dict:
    return {"seed": seed, "groups": _cube_groups(),
            "scanned": _scanned_group()}


def _cubes_suite(inp):
    rep = tp.run_suite("cubes", CUBE_PARAMS, seed=inp["seed"], threads=1,
                       budget=SUITE_BUDGET)
    return [(f"{c.name} {c.params}", c.passed) for c in rep.checks]


def _counted_cubes(inp):
    out = []
    for G in inp["groups"]:
        res = cubescan.counted_equivalence(G, 3)
        out.append((f"counted {G.orders} k=3", res["equal"]
                    and res["face_count"] == cubes.hk_size(G, 3)))
    G = inp["scanned"]
    scan = cubescan.equivalence_scan(G, 3)
    res = cubescan.counted_equivalence(G, 3)
    out.append((f"scan vs count {G.orders} k=3", scan["disagreements"] == 0
                and scan["members"] == res["face_count"]))
    return out


WORKLOADS = {
    "roots-scan": (_roots_setup, (_roots_suite,)),
    "big-table": (_big_setup, (_big_roundtrips,)),
    "headline-exact": (_headline_setup, (_quartic_biases, _analytic_rank,
                                         _gowers_exact, _u2_margins)),
    "cube-groups": (_cubes_setup, (_cubes_suite, _counted_cubes)),
}
