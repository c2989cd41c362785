"""Example catalog consistency and CLI behaviour."""

import itertools
import json
import re
import sys
import numpy as np
import pytest

from toruspoly.catalog import (
    L_over_power,
    S_k,
    binom_L_mod2,
    bilinear_b,
    mother_p,
    mother_q,
    quartic_form,
)
from toruspoly.cli import main
from toruspoly.core import space
from toruspoly.norms import RankWitness, rank_witness_check
from toruspoly.rng import SplitMix64
from toruspoly.suites import run_suite


class TestCatalog:
    def test_sk_binomial_cross_check(self):
        for n in (3, 6):
            for k in range(1, n + 1):
                assert np.array_equal(
                    S_k(n, k).classical_table(), binom_L_mod2(n, k))

    def test_sk_matches_definition_small(self):
        # direct symmetric sums for small n, k
        sp = space(2, 5)
        for k in (1, 2, 3):
            expected = np.zeros(sp.size, dtype=np.int64)
            for combo in itertools.combinations(range(5), k):
                term = np.ones(sp.size, dtype=np.int64)
                for i in combo:
                    term = term * sp.digits[:, i]
                expected = (expected + term) % 2
            assert np.array_equal(S_k(5, k).classical_table(), expected)

    def test_s4_properties(self):
        P = S_k(6, 4)
        assert P.is_classical()
        assert P.degree() == 4
        w = RankWitness.induced(P, [L_over_power(6, 3)])
        assert rank_witness_check(P, 3, w)

    def test_mothers(self):
        assert mother_p().degree() == 1
        assert mother_q().degree() == 2
        assert mother_q().mul_by_p() == mother_p()

    def test_forms_cached_consistent(self):
        assert quartic_form(4).k == 4
        assert bilinear_b(4).k == 2


def run_cli(*argv, stdin_text=None):
    from io import StringIO
    import contextlib

    old_stdin = sys.stdin
    out = StringIO()
    try:
        if stdin_text is not None:
            sys.stdin = StringIO(stdin_text)
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


class TestCli:
    def test_eval(self, tmp_path):
        path = tmp_path / "P.json"
        path.write_text(json.dumps(mother_q().to_json()))
        code, out = run_cli("--input", str(path), "eval", "--x", "1")
        assert code == 0
        assert json.loads(out)["value"] == {"num": 1, "exp": 4 - 2}

    def test_root_mulp_round_trip(self, tmp_path):
        p1 = tmp_path / "P.json"
        p1.write_text(json.dumps(L_over_power(3, 2).to_json()))
        code, out = run_cli("--input", str(p1), "root")
        assert code == 0
        p2 = tmp_path / "R.json"
        p2.write_text(out)
        code, out = run_cli("--input", str(p2), "mulp")
        assert code == 0
        payload = json.loads(out)
        payload.pop("text")
        assert payload == L_over_power(3, 2).to_json()

    def test_arank_json(self, tmp_path):
        path = tmp_path / "S4.json"
        path.write_text(json.dumps(S_k(7, 4).to_json()))
        code, out = run_cli("--input", str(path), "arank", "--s", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bias"] == "1577/8192"
        assert payload["arank"] == pytest.approx(2.3770330552, abs=1e-9)

    def test_norm_exact_field(self, tmp_path):
        from toruspoly.norms import BoundedFunction
        from toruspoly.poly import NCPoly
        f = BoundedFunction.from_phase(NCPoly.from_text(2, 2, "1/2*x1*x2"))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        code, out = run_cli("--input", str(path), "norm", "--d", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_power"] == "1/4"
        power = complex(payload["power"]["re"], payload["power"]["im"])
        assert payload["norm"] == abs(power) ** (1 / 4)

    def test_norm_past_dense_counter_exit_0(self, tmp_path):
        # 2^40 residues are counted sparsely instead of failing to allocate
        from toruspoly.norms import BoundedFunction
        from toruspoly.poly import NCPoly
        f = BoundedFunction.from_phase(NCPoly(2, 1, np.array([0, 1]), 40))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        code, out = run_cli("--input", str(path), "norm", "--d", "1")
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(1.0)

    def test_witness_check(self, tmp_path):
        payload = {"P": S_k(5, 4).to_json(),
                   "witness": [L_over_power(5, 3).to_json()]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli("--input", str(path), "witness-check", "--s", "3")
        assert code == 0
        assert json.loads(out)["certifies_rank_at_most"] == 1

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_table_exponent_past_int64_exit_2(self):
        text = json.dumps({"p": 2, "n": 2,
                           "text": f"1/{2**62}*x1 + 1/2*x2"})
        code, _ = run_cli("--input", "-", "root", stdin_text=text)
        assert code == 2

    def test_wdegree_table_exponent_past_int64_exit_2(self, capsys):
        text = json.dumps({"p": 2, "m": 1, "D": [1], "box": [2],
                           "nums": [0, 1], "K": 70})
        code, _ = run_cli("--input", "-", "wdegree", stdin_text=text)
        assert code == 2
        assert capsys.readouterr().err == \
            "error: table denominator 2^70 exceeds 2^63 - 1\n"

    def test_wdegree_huge_table_exponent_exit_2(self, capsys):
        # rejected before 13^(10^12) is ever computed
        text = json.dumps({"p": 13, "m": 1, "D": [1], "box": [13],
                           "nums": [0] * 13, "K": 10**12})
        code, _ = run_cli("--input", "-", "wdegree", stdin_text=text)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: table denominator")

    def test_norm_negative_d_exit_2(self, tmp_path, capsys):
        from toruspoly.norms import BoundedFunction
        f = BoundedFunction.constant_one(2, 2)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        code, _ = run_cli("--input", str(path), "norm", "--d", "-1")
        assert code == 2
        assert capsys.readouterr().err == "error: d must be >= 0, got d = -1\n"

    def test_wrong_json_shape_exit_2(self):
        text = json.dumps({"p": 2, "n": 2, "values": 5})
        code, _ = run_cli("--input", "-", "eval", "--x", "1,0",
                          stdin_text=text)
        assert code == 2

    def test_internal_error_exit_4(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr("toruspoly.cli._dispatch", broken)
        code, _ = run_cli("--input", "-", "eval", "--x", "1", stdin_text="{}")
        assert code == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: kernel bug\n"

    def test_bias_wide_form(self, tmp_path):
        # a k = 2 form on F_2^40 is one 40 x 40 rank (here 38)
        coeffs = [{"multiset": [i + 1, i + 1], "c": 1} for i in range(37)]
        coeffs.append({"multiset": [1, 40], "c": 1})
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"p": 2, "n": 40, "k": 2, "coeffs": coeffs}))
        code, out = run_cli("--input", str(path), "bias")
        assert code == 0
        assert json.loads(out)["bias"] == f"1/{2**38}"

    def test_bias_composite_modulus_exit_2(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"p": 4, "n": 2, "k": 2, "coeffs": [
            {"multiset": [1, 2], "c": 2}]}))
        code, _ = run_cli("--input", str(path), "bias")
        assert code == 2

    def test_budget_exit_3(self, tmp_path):
        path = tmp_path / "S4.json"
        path.write_text(json.dumps(S_k(7, 4).to_json()))
        code, _ = run_cli("--input", str(path), "arank", "--s", "3",
                          "--budget", "10")
        assert code == 3

    def test_check_failure_exit_1(self, tmp_path):
        payload = {"P": json.loads(json.dumps(
            {"p": 2, "n": 2, "alpha": {"num": 0, "exp": 0},
             "terms": [{"exps": [1, 0], "depth": 0, "coeff": 1}]})),
            "witness": [{"p": 2, "n": 2, "alpha": {"num": 0, "exp": 0},
                         "terms": [{"exps": [0, 1], "depth": 0, "coeff": 1}]}]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli("--input", str(path), "witness-check", "--s", "1")
        assert code == 1

    def test_cube_check(self, tmp_path):
        payload = {
            "group": {"cyclic_orders": [2],
                      "filtration": [[[0], [1]], [[0], [1]]]},
            "k": 2,
            "cube": [[0], [1], [1], [1]],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli("--input", str(path), "cube-check")
        assert code == 0
        rep = json.loads(out)
        assert rep["member"] is False and rep["agree"] is True

    def test_cube_check_wrong_coordinate_count_exit_2(self, capsys):
        payload = {
            "group": {"cyclic_orders": [2],
                      "filtration": [[[0], [1]], [[0], [1]]]},
            "k": 1,
            "cube": [[0], [0, 5]],
        }
        code, out = run_cli("--input", "-", "cube-check",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert "wrong coordinate count" in capsys.readouterr().err

    def test_equidist(self):
        payload = json.dumps({"orders": [3], "values": [[0], [1], [2]]})
        code, out = run_cli("--input", "-", "equidist", stdin_text=payload)
        assert code == 0
        assert json.loads(out)["max_deviation"] == "0/1"

    @pytest.mark.parametrize("payload", [
        {"values": [[1], [0]], "orders": [2, 4]},  # wrong coordinate count
        {"values": [[1], [0]], "orders": [0]},  # order below 1
        {"values": [[1.5], [0]], "orders": [2]},  # not an integer
    ])
    def test_equidist_malformed_exit_2(self, payload, capsys):
        code, out = run_cli("--input", "-", "equidist",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_equidist_prime_past_supported_moduli(self):
        payload = json.dumps({"values": [[0], [1]], "orders": [17]})
        code, out = run_cli("--input", "-", "equidist", stdin_text=payload)
        assert code == 0
        rep = json.loads(out)
        assert rep["histogram"] == {"0": 1, "1": 1}
        assert rep["max_deviation"] == "15/34" and not rep["bias_zero"]

    def test_equidist_budget_exit_3(self, capsys):
        # a 2^40-entry histogram is refused before it is allocated
        payload = json.dumps({"values": [[1], [0]], "orders": [1 << 40]})
        code, out = run_cli("--input", "-", "equidist", stdin_text=payload)
        assert code == 3 and out == ""
        assert "equidistribution_report" in capsys.readouterr().err

    def test_equidist_reduces_values(self):
        payload = json.dumps({"values": [[5], [1]], "orders": [4]})
        code, out = run_cli("--input", "-", "equidist", stdin_text=payload)
        assert code == 0
        rep = json.loads(out)
        assert rep["histogram"] == {"1": 2} and rep["max_deviation"] == "3/4"

    def test_verify_exit_code_and_determinism(self):
        code1, out1 = run_cli("verify", "lam", "--seed", "5", "--threads", "1")
        code8, out8 = run_cli("verify", "lam", "--seed", "5", "--threads", "8")
        assert code1 == code8 == 0
        assert out1 == out8

    def test_verify_params(self):
        code, out = run_cli("verify", "lucas", "--param", "n=4",
                            "--param", "k=4")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] and rep["params"] == {"n": 4, "k": 4}

    def test_derive_degree_interpolate(self, tmp_path):
        path = tmp_path / "P.json"
        path.write_text(json.dumps(L_over_power(2, 2).to_json()))
        code, out = run_cli("--input", str(path), "derive", "--h", "1,0")
        assert code == 0
        code, out = run_cli("--input", str(path), "degree")
        assert code == 0 and json.loads(out) == {
            "agree": True, "by_derivatives": 2, "degree": 2}
        values = {"p": 2, "n": 1,
                  "values": [{"num": 0, "exp": 0}, {"num": 1, "exp": 2}]}
        code, out = run_cli("--input", "-", "interpolate",
                            stdin_text=json.dumps(values))
        assert code == 0
        assert json.loads(out)["terms"] == [
            {"coeff": 1, "depth": 1, "exps": [1]}]

    def test_explore_and_norm(self, tmp_path):
        from toruspoly.norms import BoundedFunction
        from toruspoly.poly import NCPoly
        f = BoundedFunction.from_phase(NCPoly.from_text(2, 3, "1/2*x1*x2*x3"))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        code, out = run_cli("--input", str(path), "explore", "--s", "2")
        assert code == 0 and json.loads(out)["correlation"] == 0.75
        code, out = run_cli("--input", str(path), "norm", "--d", "3")
        assert code == 0

    def test_explore_huge_cost_exits_3(self, tmp_path, capsys):
        # 2^(about 18,000 slots) has more digits than Python prints
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"p": 2, "n": 2, "values": [
            {"re": 1, "im": 0}, {"re": 0, "im": 1}, {"re": -1, "im": 0},
            {"re": 1, "im": 0}]}))
        code, out = run_cli("--input", str(path), "explore", "--s", "6000")
        assert code == 3 and out == ""
        assert re.fullmatch(r"budget exceeded: enumerate_polys: estimated "
                            r"cost >= 2\^\d+ exceeds budget 1048576\n",
                            capsys.readouterr().err)

    def test_decompose(self):
        payload = json.dumps({"values": ["1/2", "3/2", "2", "4"],
                              "factors": [[0, 0, 1, 1]]})
        code, out = run_cli("--input", "-", "decompose", stdin_text=payload)
        assert code == 0
        rep = json.loads(out)
        assert rep["projected"] == ["1", "1", "3", "3"]
        assert rep["energy"] == "5/1"

    @pytest.mark.parametrize("payload", [
        {"values": [1, 2, 3, 4], "factors": [[0, 1]]},  # factor too short
        {"values": [1, 2], "factors": [[0, 1, 1]]},  # factor too long
        {"values": [], "factors": []},  # no values
    ])
    def test_decompose_malformed_exit_2(self, payload, capsys):
        code, out = run_cli("--input", "-", "decompose",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_weighted_commands(self):
        wp = {"p": 2, "m": 1, "D": [1], "alpha": {"num": 0, "exp": 0},
              "terms": [{"i": [1], "r": 1, "c": 1}]}
        code, out = run_cli("--input", "-", "wdegree",
                            stdin_text=json.dumps(wp))
        assert code == 0 and json.loads(out)["weighted_degree"] == 2
        # a table whose degree 12 lies past sum D(s - 1) + (K - 1)(p - 1) + p
        table = {"p": 3, "m": 1, "D": [2], "box": [3], "nums": [24, 21, 19],
                 "K": 3}
        code, out = run_cli("--input", "-", "wdegree",
                            stdin_text=json.dumps(table))
        assert code == 0 and json.loads(out)["weighted_degree"] == 12
        code, out = run_cli("--input", "-", "wroot",
                            stdin_text=json.dumps(wp))
        assert code == 0
        assert json.loads(out)["terms"] == [{"i": [1], "r": 2, "c": 1}]

    @pytest.mark.parametrize("change", [
        {"D": [0]},
        {"D": [-3]},
        {"p": 4},
        {"m": 2, "D": [1], "box": [2, 2]},  # fewer degrees than coordinates
        {"D": [1, 1]},  # more degrees than coordinates
        {"m": 2, "D": [1, 1]},  # fewer box sides than coordinates
        {"K": -1},
        {"box": [0], "nums": []},
    ], ids=["D0", "D-3", "p4", "short-D", "long-D", "short-box", "K-1",
            "box0"])
    def test_wdegree_malformed_table_exit_2(self, change, capsys):
        table = {"p": 2, "m": 1, "D": [1], "box": [4], "nums": [0, 1, 2, 3],
                 "K": 2, **change}
        code, out = run_cli("--input", "-", "wdegree",
                            stdin_text=json.dumps(table))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    # numerators past int64 reduce mod 2^2 to the base table's; a float or
    # a bool where an integer belongs is a usage error, not a truncation
    @pytest.mark.parametrize("change", [
        {"nums": [2**64, 1 + 4 * 10**22, 2 - 2**70, 3 + 2**63]},
        {"nums": [0, 1.5, 2, 3]},
        {"nums": [0, True, 2, 3]},
        {"D": [1.7]},
        {"D": [True]},
        {"K": 2.0},
        {"K": True},
        {"p": 2.0},
        {"m": 1.0},
        {"box": [4.0]},
    ], ids=["past-int64", "float-num", "bool-num", "float-D", "bool-D",
            "float-K", "bool-K", "float-p", "float-m", "float-box"])
    def test_wdegree_numeric_input(self, change, capsys):
        table = {"p": 2, "m": 1, "D": [1], "box": [4], "nums": [0, 1, 2, 3],
                 "K": 2}
        code, out = run_cli("--input", "-", "wdegree",
                            stdin_text=json.dumps({**table, **change}))
        if "nums" in change and max(change["nums"]) >= 1 << 63:
            assert (code, out) == run_cli("--input", "-", "wdegree",
                                          stdin_text=json.dumps(table))
        else:
            assert code == 2 and out == ""
            assert capsys.readouterr().err.startswith("error: ")

    def test_degree_walk_budget(self, capsys):
        # a random K = 2 table on F_2^10: the derivative walk is the cost
        r = SplitMix64(10)
        table = json.dumps({"p": 2, "n": 10, "values": [
            {"num": r.below(4), "exp": 2} for _ in range(1024)]})
        code, out = run_cli("--input", "-", "--budget", "100000", "degree",
                            stdin_text=table)
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith(
            "budget exceeded: difference_degree: estimated cost ")
        code, out = run_cli("--input", "-", "degree", stdin_text=table)
        assert code == 0 and json.loads(out) == {
            "agree": True, "by_derivatives": 10, "degree": 10}

    def test_wdegree_long_table(self):
        # 64 values over 2^8: the Newton coefficients stop at index 8 * 64
        r = SplitMix64(64)
        table = {"p": 2, "m": 1, "D": [1], "box": [64],
                 "nums": [r.below(2**8) for _ in range(64)], "K": 8}
        code, out = run_cli("--input", "-", "wdegree",
                            stdin_text=json.dumps(table))
        assert code == 0 and json.loads(out)["weighted_degree"] == 287

    def test_wdegree_past_the_transform_cap_exit_3(self, capsys):
        # (62 * 2^14)^2 steps of the Newton transform, whatever the values
        table = {"p": 2, "m": 1, "D": [1], "box": [1 << 14],
                 "nums": [0] * (1 << 14), "K": 62}
        code, out = run_cli("--input", "-", "wdegree",
                            stdin_text=json.dumps(table))
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith(
            "budget exceeded: binomial_expand: estimated cost ")

    def test_polymap_check(self):
        payload = {
            "H": {"cyclic_orders": [2], "filtration": [[[0], [1]], [[0], [1]]]},
            "G": {"cyclic_orders": [4],
                  "filtration": [[[0], [1], [2], [3]], [[0], [1], [2], [3]],
                                 [[0], [1], [2], [3]]]},
            "map": [[[0], [0]], [[1], [1]]],
            "k_max": 3,
        }
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=json.dumps(payload))
        assert code == 0
        rep = json.loads(out)
        assert rep["polynomial_map"] and rep["preserves_cubes"]


    @pytest.mark.parametrize("pairs", [
        [[[0], [0, 3]], [[1], [1, 7]]],     # values with two coordinates
        [[[0, 0], [0]], [[1, 0], [1]]],     # keys with two coordinates
    ])
    def test_polymap_check_wrong_coordinate_count_exit_2(self, pairs, capsys):
        payload = {
            "H": {"cyclic_orders": [2], "filtration": [[[0], [1]], [[0], [1]]]},
            "G": {"cyclic_orders": [4],
                  "filtration": [[[0], [1], [2], [3]], [[0], [1], [2], [3]]]},
            "map": pairs,
        }
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert "wrong coordinate count" in capsys.readouterr().err

    @pytest.mark.parametrize("pairs, message", [
        # keys [0] and [2] are the same element of Z/2
        ([[[0], [0]], [[2], [3]], [[1], [1]]], "(0,) two values"),
        ([[[0], [0]]], "(1,) no value"),
    ])
    def test_polymap_check_map_not_a_function_exit_2(self, pairs, message,
                                                     capsys):
        payload = {
            "H": {"cyclic_orders": [2], "filtration": [[[0], [1]], [[0], [1]]]},
            "G": {"cyclic_orders": [4],
                  "filtration": [[[0], [1], [2], [3]], [[0], [1], [2], [3]]]},
            "map": pairs,
        }
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err


class TestSuiteReports:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    def test_report_round_trip(self):
        rep = run_suite("lam", params={"n": 6})
        payload = json.loads(rep.to_bytes().decode())
        assert payload["suite"] == "lam"
        assert payload["passed"] is True
        assert all(c["verdict"] == "pass" for c in payload["checks"])

    def test_timing_flag_only_adds_fields(self):
        rep = run_suite("lam", params={"n": 4})
        base = rep.to_json(include_timing=False)
        timed = rep.to_json(include_timing=True)
        assert "threads" in timed and "threads" not in base

    def test_timing_reports_real_runtimes(self):
        rep = run_suite("lam", params={"n": 10})
        timed = rep.to_json(include_timing=True)
        assert any(c["runtime_ms"] > 0 for c in timed["checks"])
        untimed = rep.to_bytes()
        assert b"runtime_ms" not in untimed
        assert untimed == run_suite("lam", params={"n": 10}).to_bytes()
