"""Example catalog consistency and CLI behaviour."""

import hashlib
import itertools
import json
import re
import sys
from pathlib import Path

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
from toruspoly import cli, suites
from toruspoly.cli import main
from toruspoly.core import TorusValue, space
from toruspoly.norms import BoundedFunction, rank_witness_check
from toruspoly.poly import NCPoly
from toruspoly.rng import SplitMix64
from toruspoly.suites import run_suite
from toruspoly.weighted import Factor


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
        assert rank_witness_check(P, 3, [L_over_power(6, 3)])

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


@pytest.fixture
def run_probe(time_limit):
    """run_cli on the JSON of obj from stdin, stopped if it runs past 2 s."""
    def probe(command, obj, *argv):
        with time_limit(2):
            return run_cli("--input", "-", command, *argv,
                           stdin_text=json.dumps(obj))
    return probe


def required_args(command):
    """A value of 1 for each required option of a command."""
    return [token for argument, options in cli.COMMANDS[command][3:]
            if options.get("required") for token in (argument, "1")]


def function_json(P):
    """The norm and explore input of the phase e(P): its torus values."""
    values = [TorusValue(P.p, int(v), P.K).to_json() for v in P.nums]
    return {"p": P.p, "n": P.n, "values": values}


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

    def test_arank_zero_below_degree(self):
        # bias 1 gives -log 1 = -0.0, which printed as "-0.0"
        payload = json.dumps({"p": 2, "n": 2, "text": "1/2*x1*x2"})
        code, out = run_cli("--input", "-", "arank", "--s", "2", "--json",
                            stdin_text=payload)
        assert code == 0
        assert out == '{"arank": 0.0, "bias": "1/1", "exact": 0}\n'

    def test_norm_exact_field(self, tmp_path):
        P = NCPoly.from_text(2, 2, "1/2*x1*x2")
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_json(P)))
        code, out = run_cli("--input", str(path), "norm", "--d", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_power"] == "1/4"
        power = complex(payload["power"]["re"], payload["power"]["im"])
        assert payload["norm"] == abs(power) ** (1 / 4)

    def test_norm_past_dense_counter_exit_0(self, tmp_path):
        # 2^40 residues are counted sparsely instead of failing to allocate
        P = NCPoly(2, 1, np.array([0, 1]), 40)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_json(P)))
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

    def test_witness_check_table_exit_2(self, capsys):
        # the witness polynomials induce the lookup table; a given one,
        # even a complete and consistent one, is refused
        P, Q = S_k(5, 4), L_over_power(5, 3)
        payload = {"P": P.to_json(), "witness": [Q.to_json()],
                   "table": [{"key": [Q.eval(x).to_json()],
                              "value": P.eval(x).to_json()} for x in range(32)]}
        code, out = run_cli("--input", "-", "witness-check", "--s", "3",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(
            "error: witness-check takes no table")

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
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_json(NCPoly.zero(2, 2))))
        code, _ = run_cli("--input", str(path), "norm", "--d", "-1")
        assert code == 2
        assert capsys.readouterr().err == "error: d must be >= 0, got d = -1\n"

    @pytest.mark.parametrize("command,flag", [("eval", "x"), ("derive", "h")])
    @pytest.mark.parametrize("digits", ["1", "1,0,0", "3,0", "-1,0"])
    def test_bad_point_exit_2(self, command, flag, digits, capsys):
        # too few digits, too many, a digit >= p and a negative one
        text = json.dumps({"p": 3, "n": 2, "text": "1/9*x1*x2"})
        code, out = run_cli("--input", "-", command, f"--{flag}={digits}",
                            stdin_text=text)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("n", [30, 50])
    def test_space_past_cap_exit_3(self, n, capsys):
        # the cap is checked before the 2^n-entry table is allocated
        text = json.dumps({"p": 2, "n": n, "text": "1/2*x1"})
        code, out = run_cli("--input", "-", "eval", "--x",
                            ",".join(["1"] + ["0"] * (n - 1)), stdin_text=text)
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"budget exceeded: CanonicalForm.eval_table: estimated cost "
            f"{2**n} exceeds budget {1 << 24}\n")

    def test_layer_matrix_past_cap_exit_3(self, capsys):
        # the 2^16-entry table fits; the dense N x N layer matrix does not
        text = json.dumps({"p": 2, "n": 16, "text": "1/4*x1 + 1/2*x2*x3"})
        code, out = run_cli("--input", "-", "degree", stdin_text=text)
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"budget exceeded: _monomial_matrix: estimated cost {1 << 32} "
            f"exceeds budget {1 << 24}\n")

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

    def test_bias_dense_tensor_past_cap_exit_3(self, capsys):
        # a k = 8 form on F_2^40 would need a 40^8-entry dense tensor
        text = json.dumps({"p": 2, "n": 40, "k": 8, "coeffs": [
            {"multiset": [1, 2, 3, 4, 5, 6, 7, 40], "c": 1}]})
        code, out = run_cli("--input", "-", "bias", stdin_text=text)
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"budget exceeded: MultilinearForm.dense_tensor: estimated cost "
            f"{40**8} exceeds budget {1 << 24}\n")

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

    def test_cube_check_member(self):
        Z4 = [[0], [1], [2], [3]]
        payload = {"group": {"cyclic_orders": [4],
                             "filtration": [Z4, Z4, [[0]]]},
                   "k": 1, "cube": [[1], [3]]}
        code, out = run_cli("--input", "-", "cube-check",
                            stdin_text=json.dumps(payload))
        assert code == 0
        rep = json.loads(out)
        assert rep["member"] is True and rep["agree"] is True
        assert rep["taylor"] == {"0b0": [1], "0b1": [2]}

    def test_cube_check_negative_k_exit_2(self, capsys):
        payload = {"group": {"cyclic_orders": [2],
                             "filtration": [[[0], [1]], [[0], [1]]]},
                   "k": -1, "cube": [[0]]}
        code, out = run_cli("--input", "-", "cube-check",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: k must be at least 0, got -1\n"

    def test_cube_check_huge_k_exit_2(self, capsys):
        # the entry count is compared with 2^k without building 2^k
        payload = {"group": {"cyclic_orders": [2],
                             "filtration": [[[0], [1]], [[0], [1]]]},
                   "k": 10**12, "cube": [[0], [1]]}
        code, out = run_cli("--input", "-", "cube-check",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: need 2^{10**12} entries\n")

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

    def test_cube_check_face_pass_past_cap_exit_3(self, capsys):
        # one row's 3^16 face sums pass SPACE_CAP = 2^24: refused before
        # the face pass allocates anything of that size
        payload = {"group": {"cyclic_orders": [2], "filtration": [[[0], [1]]]},
                   "k": 16, "cube": [[0]] * (1 << 16)}
        code, out = run_cli("--input", "-", "cube-check",
                            stdin_text=json.dumps(payload))
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "budget exceeded: _subset_codes: estimated cost 43046721 exceeds "
            "budget 16777216\n")

    def test_equidist(self):
        payload = json.dumps({"orders": [3], "values": [[0], [1], [2]]})
        code, out = run_cli("--input", "-", "equidist", stdin_text=payload)
        assert code == 0
        assert json.loads(out)["max_deviation"] == "0/1"

    @pytest.mark.parametrize("payload", [
        {"values": [[1], [0]], "orders": [2, 4]},  # wrong coordinate count
        {"values": [[1], [0]], "orders": [0]},  # order below 1
        {"values": [[1.5], [0]], "orders": [2]},  # not an integer
        {"values": [[1], [3]], "orders": [True]},  # a bool, not Z/1
        {"values": [[1], [3]], "orders": [4.7]},  # a float, not Z/4
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

    def test_verify_unknown_param_exits_2(self, capsys):
        code, out = run_cli("verify", "lam", "--param", "nn=3")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: suite 'lam' takes no parameter 'nn'; its parameters "
            "are n\n")

    @pytest.mark.parametrize("suite, params, message", [
        ("lam", ["n=0"], "suite 'lam': n must be an integer of at least 1, "
                         "got 0"),
        ("lam", ["n=true"], "n must hold integers, got True"),
        ("lam", ["n=2.0"], "n must hold integers, got 2.0"),
        ("decomposition", ["cases=-4", "n=2"],
         "suite 'decomposition': cases must be an integer of at least 1, "
         "got -4"),
        ("cubes", ["k=[3]"], "suite 'cubes': k must be an integer of at "
                             "least 1, got [3]"),
    ], ids=["zero", "bool", "float", "negative", "list"])
    def test_verify_bad_param_value_exits_2(self, suite, params, message,
                                            capsys):
        code, out = run_cli("verify", suite,
                            *[arg for kv in params for arg in ("--param", kv)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_cubes_takes_no_scan_cap(self, capsys):
        code, out = run_cli("verify", "cubes", "--param", "scan_cap=0")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: suite 'cubes' takes no parameter 'scan_cap'; its "
            "parameters are k, maps\n")

    def test_verify_roots_budget_exit_3(self, capsys):
        # the (2, 4, 4) cell is 2^43 forms on 2^4 points: refused before
        # its scan starts
        code, out = run_cli("verify", "roots", "--param", "grids=[[2,4,4]]",
                            "--param", "random_trials=0",
                            "--param", "weighted_trials=0", "--budget", "1000")
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"budget exceeded: _exhaustive_poly_scan: estimated cost {2**47} "
            "exceeds budget 1000\n")

    def test_verify_params_are_json_literals(self):
        code, out = run_cli("verify", "gowers-props", "--json",
                            "--param", "count=2", "--param", "tol=1e-6")
        assert code == 0
        assert json.loads(out)["params"] == {"count": 2, "tol": 1e-06}
        assert '"params":{"count":2,"tol":1e-06}' in out
        code, out = run_cli("verify", "roots", "--param", "grids=[[2,2,3]]",
                            "--param", "random_trials=5",
                            "--param", "weighted_trials=5")
        assert code == 0
        cells = [c["params"] for c in json.loads(out)["checks"]
                 if c["check"] == "root-roundtrip-exhaustive"]
        assert cells == [{"p": 2, "n": 2, "d": 3}]

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

    def test_interpolate_degree_bound(self, capsys):
        # |x|/4 on F_2 has degree 2
        values = json.dumps({"p": 2, "n": 1, "values": [
            {"num": 0, "exp": 0}, {"num": 1, "exp": 2}]})
        code, out = run_cli("--input", "-", "interpolate", "--degree", "1",
                            stdin_text=values)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: not a polynomial of degree <= 1\n")
        code, _ = run_cli("--input", "-", "interpolate", "--degree", "2",
                          stdin_text=values)
        assert code == 0

    def test_interpolate_degree_bound_on_a_plane(self, capsys):
        # |x1|/4 on F_2^2, degree 2, against the bound 1
        values = json.dumps({"p": 2, "n": 2, "values": [
            {"num": v, "exp": 2} for v in (0, 1, 0, 1)]})
        code, out = run_cli("--input", "-", "interpolate", "--degree", "1",
                            stdin_text=values)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: not a polynomial of degree <= 1\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "lam", "--param", "n=3"),
        ("--input", "P.json", "eval", "--x", "1"),
    ], ids=["verify", "eval"])
    def test_out_writes_what_stdout_would(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "P.json").write_text(json.dumps(mother_q().to_json()))
        code, out = run_cli(*argv)
        code_out, printed = run_cli(*argv, "--out", "F")
        assert code == code_out == 0 and out and printed == ""
        assert (tmp_path / "F").read_text() == out

    def test_suite_parameters_only_through_param(self, capsys):
        # --p, --n and --degree are no verify options; --p abbreviates
        # --param, which takes key=value
        code, out = run_cli("verify", "lam", "--p", "3")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: --param takes key=value, got '3'\n")
        for argv in (["--n", "3", "verify", "lam"],
                     ["verify", "lam", "--degree", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_explore_and_norm(self, tmp_path):
        P = NCPoly.from_text(2, 3, "1/2*x1*x2*x3")
        path = tmp_path / "f.json"
        path.write_text(json.dumps(function_json(P)))
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
        {"values": ["1/0", "1"], "factors": [[0, 1]]},  # zero denominator
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

    @pytest.mark.parametrize("terms", [
        [{"i": [1], "r": 0, "c": 1}, {"i": [1], "r": 1, "c": 1}],  # x/2 + x/4
        [{"i": [1], "r": 1, "c": 3}],
        [{"i": [1], "r": 2, "c": 6}],  # c divisible by p
    ])
    def test_wroot_prints_one_term_per_exponent(self, terms):
        wp = {"p": 2, "m": 1, "D": [1], "terms": terms}
        code, out = run_cli("--input", "-", "wroot", stdin_text=json.dumps(wp))
        assert code == 0
        assert json.loads(out)["terms"] == [{"i": [1], "r": 2, "c": 3}]

    def test_degree_carries_a_json_digit_past_p(self):
        # 2/4 * x1 on F_2^1 is x1/2, of degree 1
        obj = {"p": 2, "n": 1, "terms": [{"exps": [1], "depth": 1, "coeff": 2}]}
        code, out = run_cli("--input", "-", "degree", stdin_text=json.dumps(obj))
        assert code == 0 and json.loads(out)["degree"] == 1

    def test_text_zero_denominator_exit_2(self, capsys):
        obj = {"p": 2, "n": 1, "text": "1/0*x1"}
        code, out = run_cli("--input", "-", "degree", stdin_text=json.dumps(obj))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            "error: coefficient 1/0 has denominator 0\n"

    @pytest.mark.parametrize("c12,c21", [(1, 2), (2, 1)])
    def test_bias_repeated_multiset_exit_2(self, c12, c21, capsys):
        # the bias read 1/25 in one order and 1/5 in the other
        obj = {"p": 5, "n": 2, "k": 2, "coeffs": [
            {"multiset": [1, 1], "c": 1}, {"multiset": [2, 2], "c": 1},
            {"multiset": [1, 2], "c": c12}, {"multiset": [2, 1], "c": c21}]}
        code, out = run_cli("--input", "-", "bias", stdin_text=json.dumps(obj))
        assert code == 2 and out == ""
        assert "multiset [1, 2] is given two values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["wroot", "wdegree"])
    @pytest.mark.parametrize("p,r", [(3, -2), (2, -1)])
    def test_weighted_negative_depth_exit_2(self, command, p, r, capsys):
        wp = {"p": p, "m": 1, "D": [1], "terms": [{"i": [1], "r": r, "c": 5}]}
        code, out = run_cli("--input", "-", command, stdin_text=json.dumps(wp))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: negative depth r = {r}\n"

    def test_wdegree_equal_terms_sum(self):
        # x/2 + x/2 is 0 on Z, of degree -inf
        half = {"i": [1], "r": 0, "c": 1}
        wp = {"p": 2, "m": 1, "D": [1], "terms": [half, half]}
        code, out = run_cli("--input", "-", "wdegree", stdin_text=json.dumps(wp))
        assert code == 0 and json.loads(out)["weighted_degree"] is None

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

    def test_polymap_check_past_32_cube_levels(self, capsys):
        # a 6-cube has 64 Taylor coefficients; --budget counts the pass's
        # hk_size(H, 6) 2^6 = 2^13 entries
        Z2 = {"cyclic_orders": [2], "filtration": [[[0], [1]], [[0], [1]]]}
        payload = json.dumps({"H": Z2, "G": Z2, "k_max": 6,
                              "map": [[[0], [0]], [[1], [1]]]})
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=payload)
        assert code == 0 and json.loads(out) == {
            "polynomial_map": True, "preserves_cubes": True,
            "equivalent": True}
        code, out = run_cli("--input", "-", "--budget", "8191",
                            "polymap-check", stdin_text=payload)
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "budget exceeded: preserves_cubes_fast: estimated cost 8192 "
            "exceeds budget 8191\n")

    def test_polymap_check_default_k_max_is_degree_plus_one(self):
        # (a, b) -> b + 2a from Z/2 x Z/4 to Z/4 of degree 2 is no polynomial
        # map; 3-cubes (k = deg G + 1) see it, 2-cubes do not
        Z4 = [[0], [1], [2], [3]]
        payload = {
            "H": {"cyclic_orders": [2, 4],
                  "filtration": [[[a, b] for b in range(4) for a in range(2)]] * 2
                  + [[[0, b] for b in range(4)], [[0, 0], [0, 2]]]},
            "G": {"cyclic_orders": [4], "filtration": [Z4, Z4, Z4]},
            "map": [[[a, b], [(b + 2 * a) % 4]]
                    for a in range(2) for b in range(4)],
        }
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=json.dumps(payload))
        assert code == 0
        assert json.loads(out) == {"polynomial_map": False,
                                   "preserves_cubes": False,
                                   "equivalent": True}
        # an explicit k_max is still honoured
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=json.dumps({**payload, "k_max": 2}))
        assert code == 1 and json.loads(out)["preserves_cubes"]

    def test_polymap_check_negative_k_max_exit_2(self, capsys):
        # no k-cube exists for k < 0, so nothing would be checked
        payload = {
            "H": {"cyclic_orders": [2], "filtration": [[[0], [1]], [[0], [1]]]},
            "G": {"cyclic_orders": [2], "filtration": [[[0], [1]], [[0], [1]]]},
            "map": [[[0], [0]], [[1], [1]]],
            "k_max": -3,
        }
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: k_max must be at least 0, got -3\n")

    def test_polymap_check_huge_k_max_exit_3(self, capsys):
        # 2^k_max cube vertices pass SPACE_CAP: refused before any table
        # with k_max + 1 rows is built
        Z2 = {"cyclic_orders": [2], "filtration": [[[0], [1]], [[0], [1]]]}
        payload = json.dumps({"H": Z2, "G": Z2, "k_max": 10**12,
                              "map": [[[0], [0]], [[1], [1]]]})
        code, out = run_cli("--input", "-", "polymap-check",
                            stdin_text=payload)
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "budget exceeded: preserves_cubes_fast: estimated cost >= 2^64 "
            "exceeds budget 16777216\n")


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


    # a JSON float or bool where an integer belongs is a usage error in
    # every reader, not a value to truncate; so is a filtration level that
    # is not a subgroup
    INTS = "must hold integers"

    @pytest.mark.parametrize("command, payload, message", [
        ("wroot", {"p": 2, "m": 1, "D": [1],
                   "terms": [{"i": [1], "r": 1, "c": 1.5}]}, INTS),
        ("degree", {"p": 2, "n": 2, "terms": [
            {"exps": [1, 0], "depth": 0.9, "coeff": 1}]}, INTS),
        ("degree", {"p": 2, "n": 2, "terms": [
            {"exps": [1, 0], "depth": 0, "coeff": 1.7}]}, INTS),
        ("degree", {"p": 2.0, "n": 2, "text": "1/2*x1"}, INTS),
        ("bias", {"p": 2, "n": 3, "k": 2,
                  "coeffs": [{"multiset": [1, 2.9], "c": 1}]}, INTS),
        ("cube-check", {"group": {"cyclic_orders": [4.5],
                                  "filtration": [[[0], [1], [2], [3]]]},
                        "k": 1, "cube": [[0], [1]]}, INTS),
        ("cube-check", {"group": {"cyclic_orders": [4],
                                  "filtration": [[[0], [1], [2], [3]]]},
                        "k": 1, "cube": [[0], [True]]}, INTS),
        ("polymap-check", {
            "H": {"cyclic_orders": [2], "filtration": [[[0], [1]]]},
            "G": {"cyclic_orders": [2], "filtration": [[[0], [1]]]},
            "map": [[[0], [0]], [[1], [1.0]]]}, INTS),
        ("cube-check", {"group": {"cyclic_orders": [4],
                                  "filtration": [[[0], [1], [2], [3]],
                                                 [[0], [1]], [[0]]]},
                        "k": 1, "cube": [[0], [1]]},
         "level 1 is not a subgroup"),
    ], ids=["wroot-c", "degree-depth", "degree-coeff", "degree-p", "bias",
            "cube-orders", "cube-entry", "polymap-entry", "cube-not-subgroup"])
    def test_non_integer_json_exit_2(self, command, payload, message,
                                     capsys):
        code, out = run_cli("--input", "-", command,
                            stdin_text=json.dumps(payload))
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err

    def test_help_lists_the_commands_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^    (\S+) +(\S.*)$", capsys.readouterr().out,
                            re.MULTILINE)
        assert listed == [
            ("eval", "evaluate a polynomial at a point"),
            ("derive", "additive derivative along h"),
            ("degree", "degree by canonical form and by derivatives"),
            ("interpolate", "value table -> canonical form"),
            ("root", "canonical p-th root"),
            ("mulp", "multiply by p"),
            ("norm", "Gowers uniformity norm of a function"),
            ("arank", "analytic rank of a polynomial"),
            ("bias", "exact bias of a multilinear form"),
            ("witness-check", "rank witness verification"),
            ("explore", "exhaustive correlation search"),
            ("decompose", "conditional expectation onto factors"),
            ("wdegree", "weighted degree of a map on Z^m"),
            ("wroot", "p-th root of a weighted polynomial"),
            ("cube-check", "Host-Kra cube membership"),
            ("polymap-check", "polynomial map + cube preservation"),
            ("equidist", "equidistribution report of a finite map"),
            ("verify", "run a named verification suite"),
        ]

    @pytest.mark.parametrize("text", ["[]", "5", "null", '"x"'])
    @pytest.mark.parametrize("command",
                             [c for c in cli.COMMANDS if c != "verify"])
    def test_non_object_input_exit_2(self, command, text, capsys):
        # bias exited 4 with AttributeError: 'list' object has no attribute
        # 'get'
        code, out = run_cli("--input", "-", command, *required_args(command),
                            stdin_text=text)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            "error: input JSON must be an object\n"

    @pytest.mark.parametrize("text", [5, [], {"a": 1}])
    @pytest.mark.parametrize("command", [
        c for c, entry in cli.COMMANDS.items() if entry[1] is cli._load_poly])
    def test_non_string_text_exit_2(self, command, text, run_probe, capsys):
        # exited 4 with AttributeError: ... 'replace'
        code, out = run_probe(command, {"p": 2, "n": 1, "text": text},
                              *required_args(command))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(
            "error: canonical text must be a string")

    @pytest.mark.parametrize("command,obj,argv", [
        ("degree", {"p": 0, "n": 1, "alpha": {"num": 1, "exp": 1}}, ()),
        ("wroot", {"p": 0, "m": 1, "D": [1], "alpha": {"num": 1, "exp": 1}},
         ()),
        ("norm", {"p": 0, "n": 1, "values": [{"num": 1, "exp": 1}]},
         ("--d", "1")),
    ])
    def test_zero_modulus_exit_2(self, command, obj, argv, run_probe, capsys):
        # each exited 4 with ZeroDivisionError
        code, out = run_probe(command, obj, *argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(
            "error: modulus must be a prime")

    @pytest.mark.parametrize("command,obj,argv", [
        ("degree", {"p": 3, "n": 1, "alpha": {"num": 1, "exp": 10**11}}, ()),
        ("norm", {"p": 3, "n": 1, "values": [
            {"num": 1, "exp": 10**11}, {"num": 0, "exp": 0},
            {"num": 0, "exp": 0}]}, ("--d", "1")),
        ("wroot", {"p": 2, "m": 1, "D": [1],
                   "terms": [{"i": [1], "r": 10**11, "c": 1}]}, ()),
    ], ids=["degree-alpha", "norm-values", "wroot-depth"])
    def test_huge_torus_exponent_exit_3(self, command, obj, argv, run_probe, capsys):
        # degree ran on past 20 s; norm and wroot ended in MemoryError
        code, out = run_probe(command, obj, *argv)
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith(
            "budget exceeded: TorusValue: ")

    def test_equidist_huge_prime_order_exit_3(self, run_probe, capsys):
        # _prime_power's trial division ran for more than 30 s
        code, out = run_probe("equidist", {"values": [[0]],
                                           "orders": [999999999999999989]})
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith(
            "budget exceeded: equidistribution_report: ")


HUGE = 10**11
PHASE = {"p": 2, "n": 1, "values": [{"num": 0, "exp": 0}, {"num": 1, "exp": 1}]}


class TestPolynomialLayerProbes:
    """Inputs of the polynomial layer that hung or exited 4; each now exits 2
    or 3 within 2 s, naming the owner of the input or the kernel."""

    @pytest.mark.parametrize("command,obj,argv", [
        ("degree", {"p": 2, "n": HUGE, "text": "0"}, ()),
        ("eval", {"p": 2, "n": HUGE, "text": "0"}, ("--x", "0")),
        ("eval", {"p": 2, "n": HUGE, "values": []}, ("--x", "0")),
        ("norm", {"p": 2, "n": HUGE, "values": [{"num": 0, "exp": 0}]},
         ("--d", "1")),
        ("bias", {"p": 2, "n": HUGE, "k": 2, "coeffs": []}, ()),
    ], ids=["degree", "eval-text", "eval-values", "norm", "bias"])
    def test_huge_dimension_exit_3(self, command, obj, argv, run_probe, capsys):
        # each hung forming 2^(10^11)
        code, out = run_probe(command, obj, *argv)
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("budget exceeded: Space: ")

    def test_bias_zero_modulus_exit_2(self, run_probe, capsys):
        # exited 4 with ZeroDivisionError
        code, out = run_probe("bias", {"p": 0, "n": 2, "k": 2, "coeffs": [
            {"multiset": [1, 2], "c": 1}]})
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(
            "error: modulus must be a prime")

    def test_witness_check_null_polynomial_exit_2(self, tmp_path, run_probe,
                                                  time_limit, capsys):
        # stdin was read a second time (a JSON decode error), and an --input
        # file was read whole as P
        obj = {"P": None, "witness": []}
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(obj))
        code, out = run_probe("witness-check", obj, "--s", "1")
        with time_limit(2):
            code_file, out_file = run_cli("--input", str(path),
                                          "witness-check", "--s", "1")
        assert (code, out, code_file, out_file) == (2, "", 2, "")
        assert capsys.readouterr().err == \
            "error: polynomial JSON must be an object\n" * 2

    @pytest.mark.parametrize("command,obj,argv,kernel", [
        ("norm", PHASE, ("--d", str(HUGE)), "gowers_power"),
        ("norm", PHASE, ("--d", str(HUGE), "--budget", "1000"), "gowers_power"),
        ("norm", {"p": 2, "n": 0, "values": [{"num": 0, "exp": 0}]},
         ("--d", "100000000"), "gowers_power"),
        ("explore", PHASE, ("--s", str(HUGE)), "canonical_slots"),
        # 10^7 slots, inside SPACE_CAP as a (K, N) table, past ENUM_CAP
        ("explore", {"p": 13, "n": 1, "values": [{"num": 0, "exp": 0}] * 13},
         ("--s", "15000000"), "canonical_slots"),
        ("arank", {"p": 2, "n": 1, "text": "1/2*x1"}, ("--s", str(HUGE)),
         "dk_extract"),
        ("verify", {}, ("gowers-props", "--param", "configs=[[2,30]]",
                        "--param", "count=1"), "_random_disc"),
    ], ids=["norm-d", "norm-d-budget", "norm-d-point", "explore-s",
            "explore-s-slots", "arank-s", "gowers-props-draws"])
    def test_huge_exponent_exit_3(self, command, obj, argv, kernel, run_probe,
                                  capsys):
        # norm hung forming N^d or ran 10^8 steps; the rest ended in
        # MemoryError (exit 4)
        code, out = run_probe(command, obj, *argv)
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith(
            f"budget exceeded: {kernel}: ")


class _Stop(Exception):
    pass


class TestSuiteReports:
    # The bytes of `verify cubes` at k = 2, maps = 150, as the scalar draw
    # loops wrote them.  Every sampled tuple, coefficient row and map table
    # of the suite comes from block draws, which must keep the stream.
    CUBES_SHA256 = {
        1: "f3055d5144bff3c1236ef0a8f70c78ba644fbcd36b24ae7f628d97bf7a57026b",
        4242: "6e5861e24c91c5f6304004fcf49dd54457187f76c161d5cb342619e00cc0dfa8",
    }

    @pytest.mark.parametrize("seed", CUBES_SHA256)
    def test_cubes_report_bytes_pinned(self, seed):
        code, out = run_cli("verify", "cubes", "--param", "k=2", "--param",
                            "maps=150", "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            self.CUBES_SHA256[seed]

    def test_gowers_props_report_bytes_pinned(self):
        # the exact-phase-path records run gowers_power_exact through the
        # residue counter
        code, out = run_cli("verify", "gowers-props", "--param", "count=10",
                            "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "30838261ce0db5b7c3d0d6119bf94f64df57ff8b8e2407d6c4a7341c91b1e3f4"

    # equidistribution reports, whose squared biases run abs_sq: on Z/2048
    # irrational, on Z/8 x Z/8 rational with values in a subgroup
    EQUIDIST_SHA256 = {
        (2048,): ("dd83e860671f19a9f8bfb75b8dc031ca045f96c588071b27bb154335e6ef1834",
                  [[(i**3 + i * i + 5 * i + 3) % 2048] for i in range(48)]),
        (8, 8): ("bad549bdd0a0c85148fcddf908cb7d8b3caefcd5a06a6be06ab92ad4e0362b02",
                 [[4 * (i % 2), 2 * ((i * i + i // 3) % 4)] for i in range(100)]),
    }

    @pytest.mark.parametrize("orders", EQUIDIST_SHA256, ids=["Z2048", "Z8xZ8"])
    def test_equidist_bytes_pinned(self, orders):
        digest, values = self.EQUIDIST_SHA256[orders]
        payload = json.dumps({"orders": list(orders), "values": values})
        code, out = run_cli("--input", "-", "equidist", stdin_text=payload)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the paper operations that three suites check last, with the number of
    # records each check adds at the default parameters
    APPENDED = {
        "gowers-props": ("derivative-recursion", 2,
                         "toruspoly.norms.BoundedFunction.mult_derivative"),
        "symprod": ("antiderivative-roundtrip", 4,
                    "toruspoly.suites.antiderivative"),
        "weighted": ("factor-pullback-degree", 1,
                     "toruspoly.weighted.Factor.depth_extend"),
    }

    @pytest.mark.parametrize("name", APPENDED)
    def test_operation_checks_follow_every_other_record(self, name,
                                                        monkeypatch):
        check, count, operation = self.APPENDED[name]
        full = run_suite(name, seed=1111).checks
        assert [c.name for c in full[-count:]] == [check] * count
        assert all(c.passed for c in full[-count:])
        # stopped at the operation's first call, the suite has written all
        # its other records, byte for byte, and drawn nothing else
        def stop(*args):
            raise _Stop
        monkeypatch.setattr(operation, stop)
        report = suites.SuiteReport(name, 1111, 1, {})
        with pytest.raises(_Stop):
            suites._SUITES[name](report, SplitMix64(1111), 1, None)
        assert [json.dumps(c.to_json(), sort_keys=True)
                for c in report.checks] == \
            [json.dumps(c.to_json(), sort_keys=True) for c in full[:-count]]

    @pytest.mark.parametrize("operation", [
        "mult_derivative", "antiderivative", "depth_extend", "retract",
        "pullback"])
    def test_wrong_operation_fails_its_check(self, operation, monkeypatch):
        retract, pullback = Factor.retract, Factor.pullback

        def no_conjugate(f, h):
            perm = space(f.p, f.n).shift_perm(h)
            return BoundedFunction(f.p, f.n, f.values[perm] * f.values)

        def plus_delta(F, wp):
            # adds 1/p at x = 0: degree n(p - 1), past most weighted degrees
            delta = np.zeros(F.p**F.n, dtype=np.int64)
            delta[0] = 1
            return pullback(F, wp) + NCPoly(F.p, F.n, delta, 1)

        suite, target, wrong = {
            "mult_derivative": ("gowers-props", BoundedFunction, no_conjugate),
            "antiderivative": ("symprod", None,
                               lambda T: NCPoly.zero(T.p, T.n)),
            "depth_extend": ("weighted", Factor, lambda F, depths: F),
            "retract": ("weighted", Factor, lambda F, d: retract(F, d - 1)),
            "pullback": ("weighted", Factor, plus_delta),
        }[operation]
        if target is None:
            monkeypatch.setattr(f"toruspoly.suites.{operation}", wrong)
        else:
            monkeypatch.setattr(target, operation, wrong)
        report = run_suite(suite, seed=1111)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {self.APPENDED[suite][0]}

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    @pytest.mark.parametrize("name", suites._SUITES)
    def test_unknown_param_rejected_before_any_check(self, name,
                                                     monkeypatch):
        added = []
        monkeypatch.setattr(suites.SuiteReport, "add",
                            lambda self, *args, **kw: added.append(args))
        with pytest.raises(ValueError, match=f"suite '{name}' takes no "
                                             "parameter 'nn'"):
            run_suite(name, {"nn": 3})
        assert added == []

    def test_every_integer_parameter_has_a_least_value(self):
        for suite in suites._SUITES.values():
            defaults = suite.__kwdefaults__
            assert set(suite.least) == {key for key, value in defaults.items()
                                        if isinstance(value, int)}
            assert all(defaults[key] >= least
                       for key, least in suite.least.items())

    @pytest.mark.parametrize("name", suites._SUITES)
    def test_least_values_still_check(self, name):
        # one small roots cell instead of the default grids
        params = {**suites._SUITES[name].least,
                  **({"grids": [[2, 1, 1]]} if name == "roots" else {})}
        report = run_suite(name, params, seed=3)
        assert report.checks and report.passed

    def test_report_without_records_fails(self):
        report = suites.SuiteReport("lam", 0, 1, {})
        assert not report.passed
        assert json.loads(report.to_bytes())["passed"] is False
        report.add("digit-expansion-of-L", {"n": 1}, True)
        assert report.passed

    def test_readme_lists_each_suites_parameters(self):
        # the README's suite-parameter table: one row per suite, naming
        # each keyword parameter of its function as `name` = default
        readme = (Path(__file__).resolve().parent.parent / "README.md"
                  ).read_text()
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme,
                               re.MULTILINE))
        rows = {name: re.findall(r"`(\w+)` = ", cell)
                for name, cell in rows.items() if name in suites._SUITES}
        assert rows == {name: sorted(suite.__kwdefaults__)
                        for name, suite in suites._SUITES.items()}

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
