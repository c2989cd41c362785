"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything except the norm-property suite (1e-8), the
direct/recursive agreement (1e-9), and the two limit statements about the
quartic bias is exact integer arithmetic.
"""

import time
from fractions import Fraction

import numpy as np

from toruspoly.catalog import S_k, quartic_form
from toruspoly.forms import bias, naive_bias
from toruspoly.norms import _random_bounded, analytic_rank, gowers_norm, walsh_fourier
from toruspoly.poly import NCPoly
from toruspoly.rng import SplitMix64
from toruspoly.suites import run_suite


def _line(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


_quartic_cache: dict[int, tuple[Fraction, float]] = {}


def _quartic_bias(n: int) -> tuple[Fraction, float]:
    if n not in _quartic_cache:
        t0 = time.perf_counter()
        value = bias(quartic_form(n))
        _quartic_cache[n] = (value, time.perf_counter() - t0)
    return _quartic_cache[n]


def test_criterion_1_bias_limit():
    values = {}
    runtimes = {}
    for n in range(4, 10):
        values[n], runtimes[n] = _quartic_bias(n)
    ok_naive = values[4] == naive_bias(quartic_form(4))
    gaps = [abs(float(values[n]) - 0.125) for n in range(4, 10)]
    ok_monotone = all(gaps[i + 1] <= gaps[i] + 1e-15 for i in range(len(gaps) - 1))
    ok_limit = gaps[-1] <= 0.02
    ok_fast = all(runtimes[n] <= 5.0 for n in range(4, 7)) and runtimes[9] <= 600.0
    _line(1, "quartic bias sequence approaches 1/8",
          ok_naive and ok_monotone and ok_limit and ok_fast,
          f"n=4 exact {values[4]} == naive; gaps {['%.4f' % g for g in gaps]}; "
          f"t(n=9)={runtimes[9]:.2f}s")


def test_criterion_2_analytic_rank_limit():
    value, _ = _quartic_bias(9)
    arank = -np.log2(float(value))
    res = analytic_rank(S_k(9, 4), 3)
    _line(2, "analytic rank of the quartic approaches 3",
          res.bias == value and abs(arank - 3) <= 0.25,
          f"arank(n=9) = {res.value:.4f}")


def test_criterion_3_identity_suites():
    t0 = time.perf_counter()
    reports = {name: run_suite(name, seed=303)
               for name in ("lucas", "lam", "df", "dkp", "symprod")}
    elapsed = time.perf_counter() - t0
    bad = [f"{name}:{c.name}" for name, rep in reports.items()
           for c in rep.checks if not c.passed]
    _line(3, "exact identity suites (Lucas, digit expansion, quartic form, "
             "p-fold repetition, product/power rules)",
          not bad and elapsed <= 120.0,
          f"{sum(len(r.checks) for r in reports.values())} checks, "
          f"{elapsed:.1f}s" + (f"; failures {bad}" if bad else ""))


_roots_report = {}


def _roots_suite():
    if "rep" not in _roots_report:
        t0 = time.perf_counter()
        _roots_report["rep"] = run_suite("roots", seed=404)
        _roots_report["elapsed"] = time.perf_counter() - t0
    return _roots_report["rep"], _roots_report["elapsed"]


def test_criterion_4_root_round_trips():
    rep, elapsed = _roots_suite()
    root_checks = [c for c in rep.checks if c.name.startswith(("root-", "weighted-root"))]
    scanned = sum(c.details.get("polynomials", 0) for c in root_checks)
    _line(4, "p-th root round-trips with the exact degree cost",
          all(c.passed for c in root_checks) and elapsed <= 150.0,
          f"{scanned} enumerated + 500 random polynomials + 300 weighted, "
          f"{elapsed:.1f}s (shared scan with criterion 5)")


def test_criterion_5_canonical_round_trips():
    rep, elapsed = _roots_suite()
    canon_checks = [c for c in rep.checks if c.name.startswith("canonical-")]
    scanned = sum(c.details.get("polynomials", 0) for c in canon_checks)
    _line(5, "canonical-form round-trips and the value-count bound",
          all(c.passed for c in canon_checks),
          f"{scanned} polynomials, interpolation exact")


def test_criterion_6_gowers_properties():
    t0 = time.perf_counter()
    rep = run_suite("gowers-props", seed=606,
                    params={"count": 100, "tol": 1e-8})
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in rep.checks if not c.passed]
    _line(6, "norm properties at 1e-8, strategies agree at 1e-9, "
             "pure phases exact",
          not bad and elapsed <= 120.0,
          f"{len(rep.checks)} grouped checks at (2,4) and (3,2), "
          f"{elapsed:.1f}s" + (f"; failures {bad}" if bad else ""))


def test_criterion_7_gi1_certificate():
    t0 = time.perf_counter()
    rng = SplitMix64(707)
    worst = 1.0
    ok = True
    for _ in range(1000):
        f = _random_bounded(2, 6, rng)
        margin = float(np.abs(walsh_fourier(f)).max()) - gowers_norm(f, 2) ** 2
        worst = min(worst, margin)
        ok &= margin >= -1e-12
    elapsed = time.perf_counter() - t0
    _line(7, "largest Fourier coefficient dominates the squared U^2 norm",
          ok and elapsed <= 30.0,
          f"1000 seeded functions on F_2^6, worst margin {worst:.3e}, "
          f"{elapsed:.1f}s")


def test_criterion_8_cube_group_equivalences():
    t0 = time.perf_counter()
    rep = run_suite("cubes", seed=808, params={"maps": 1000})
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in rep.checks if not c.passed]
    maps_check = next(c for c in rep.checks
                      if c.name == "derivative-vs-cube-preservation")
    _line(8, "face-sum vs Taylor criteria and cube preservation vs "
             "derivative polynomiality",
          not bad and maps_check.params["maps"] >= 1000 and elapsed <= 120.0,
          f"{len(rep.checks)} checks incl. {maps_check.params['maps']} "
          f"sampled maps, {elapsed:.1f}s" + (f"; failures {bad}" if bad else ""))


def test_criterion_9_quadratic_form_rank():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n in (2, 3):
        P = NCPoly.from_text(3, n, " + ".join(f"1/3*x{i+1}^2" for i in range(n)))
        res = analytic_rank(P, 1)
        ok &= res.bias == Fraction(1, 3**n) and res.exact == n
        detail.append(f"n={n}: bias={res.bias}")
    _line(9, "analytic rank of the diagonal quadratic over F_3 equals n",
          ok and time.perf_counter() - t0 <= 10.0, "; ".join(detail))


def test_criterion_10_decomposition():
    t0 = time.perf_counter()
    rep = run_suite("decomposition", seed=1010, params={"cases": 100})
    elapsed = time.perf_counter() - t0
    _line(10, "energy Pythagoras and exact residual orthogonality",
          rep.passed and elapsed <= 10.0,
          f"100 rational-valued cases on F_2^5, {elapsed:.1f}s")


def test_criterion_11_determinism():
    # --threads splits work only in gowers-props (its bias checks run the
    # bias rank fold); every other suite runs on one thread at any value
    quick = {
        "lucas": {"n": 6, "k": 6},
        "lam": {"n": 8},
        "df": {"n": 5, "trials": 500},
        "symprod": {"n": 3},
        "gowers-props": {"count": 6},
        "dkp": {"n": 2},
        "roots": {"grids": [[2, 2, 3], [3, 1, 2]],
                  "random_trials": 40, "weighted_trials": 30},
        "weighted": {"trials": 40},
        "cubes": {"maps": 60},
        "decomposition": {"cases": 20},
    }
    mismatches = []
    for name, params in quick.items():
        runs = [run_suite(name, seed=1111, threads=t,
                          params={k: v for k, v in params.items()})
                for t in (1, 8)]
        if runs[0].to_bytes() != runs[1].to_bytes():
            mismatches.append(name)
        if not all(r.passed for r in runs):
            mismatches.append(name + ":failed")
    _line(11, "byte-identical suite reports across thread counts 1 and 8",
          not mismatches, f"all {len(quick)} suites; threads split only "
          "gowers-props"
          + (f"; mismatches {mismatches}" if mismatches else ""))
