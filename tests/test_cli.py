"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiscong import cli, qexp
from eiscong.cli import main
from eiscong.eisen import z_const
from eiscong.pullback import CongruenceCertificate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout=60) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's sources on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def run_bounded(*argv, timeout=60):
    """The CLI in a child process, so that a hang fails the test instead of
    stalling the suite; returns (exit code, stderr)."""
    proc = run_python("-m", "eiscong.cli", *argv, timeout=timeout)
    return proc.returncode, proc.stderr


class TestLvalue:
    def test_weight16_table(self, capsys):
        code, out, _ = run(
            capsys, "lvalue", "--k", "14", "--nu", "2", "--ords", "373,7"
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["forms"][0]
        assert row["l_value"] == {"num": str(2**20 * 3**4 * 373), "den": "7"}
        assert row["ord_373"] == 1 and row["ord_7"] == -1

    def test_weight16_nu8(self, capsys):
        code, out, _ = run(capsys, "lvalue", "--k", "8", "--nu", "8")
        doc = json.loads(out)
        assert doc["forms"][0]["l_value"] == {
            "num": str(2**15 * 23**2),
            "den": str(11 * 13),
        }

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "lvalue", "--k", "14", "--nu", "2",
            "--ords", "373",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "form,t2_eigenvalue,l_value,ord_373"
        assert row.split(",")[1] == "216"

    def test_unsupported_weight_reported(self, capsys):
        code, _, err = run(capsys, "lvalue", "--k", "14", "--nu", "10")
        assert code == 3
        assert "UnsupportedHeckeField" in err


class TestEpsilon:
    def test_published_8_8(self, capsys):
        code, out, _ = run(
            capsys, "epsilon", "--k", "8", "--nu", "8", "--n", "1",
            "--N", "1,0,1", "--at", "1,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["evaluations"][0]["value"] == {"num": "-46666368", "den": "1"}

    def test_origin_evaluates_to_zero(self, capsys):
        _, out, _ = run(
            capsys, "epsilon", "--k", "14", "--nu", "2", "--n", "1",
            "--N", "1,0,1", "--at", "0,0",
        )
        doc = json.loads(out)
        assert doc["evaluations"][0]["value"] == {"num": "0", "den": "1"}

    def test_non_pd_rejected(self, capsys):
        code, _, err = run(
            capsys, "epsilon", "--k", "14", "--nu", "2", "--n", "1",
            "--N", "1,2,1",
        )
        assert code == 3
        assert "positive definite" in err


class TestCertify:
    def test_established_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--k", "14", "--nu", "2", "--p", "373",
            "--A", "1,0,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "ProvenModP"
        assert "(1 + q^12)" in doc["implied_congruence"]

    def test_relaxed_mod_p_alpha(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--k", "8", "--nu", "8", "--p", "23",
            "--A", "1,0,1", "--relaxed",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "ProvenModPAlpha"
        assert doc["alpha"] == 2

    def test_not_established_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--k", "14", "--nu", "2", "--p", "7",
            "--A", "1,0,1",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "NotEstablished"

    def test_round_trip_revalidates(self, capsys):
        _, out, _ = run(
            capsys, "certify", "--k", "14", "--nu", "2", "--p", "373",
            "--A", "1,0,1",
        )
        cert = CongruenceCertificate.from_json_dict(json.loads(out))
        assert cert.verdict.value == "ProvenModP"


class TestSmallCommands:
    def test_siegel_series_trivial(self, capsys):
        code, out, _ = run(capsys, "siegel-series", "--p", "3", "--T", "1")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1"]

    def test_siegel_series_geometric(self, capsys):
        _, out, _ = run(capsys, "siegel-series", "--p", "3", "--T", "9")
        assert json.loads(out)["coeffs"] == ["1", "3", "9"]

    @pytest.mark.parametrize("t33", [2**62 + 5, 3**41 + 9], ids=["2^62+5", "3^41+9"])
    def test_siegel_series_entry_beyond_int64(self, capsys, t33):
        # ord_3(t33) = 2: T reaches c_1 of the size-3 character sum, with F_3 as at t33 = 9
        code, out, _ = run(capsys, "siegel-series", "--p", "3", "--T", f"1,0,0,1,0,{t33}")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "-9", "81"]

    def test_siegel_series_degree_two_at_p17(self, capsys):
        # c_1 read off 2B mod 17, of rank 2; the sum over R would take 17^6
        code, out, _ = run(capsys, "siegel-series", "--p", "17", "--T", "1,0,0,17,0,17")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "0", "83521"]

    def test_siegel_series_indefinite_zero_diagonal(self, capsys):
        # its first leading principal minor is 0; the coefficient of X is
        # c_1 + 1 with c_1 = 8 from the full character sum at p = 3
        code, out, _ = run(capsys, "siegel-series", "--p", "3", "--T", "0,1,0,0,0,3")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "9"]

    def test_eisenstein_coeff_degree1(self, capsys):
        code, out, _ = run(
            capsys, "eisenstein-coeff", "--degree", "1", "--k", "16", "--T", "2"
        )
        assert code == 0
        assert json.loads(out)["value"] == {"num": "65538", "den": "1"}

    def test_eisenstein_coeff_degree1_at_a_strong_pseudoprime(self, capsys):
        # T = psi_12 = 399165290221 * 798330580441, a strong pseudoprime to
        # the bases 2..37: a(T) = 2 sigma_3(psi_12) needs both factors
        psi_12, (q1, q2) = 318665857834031151167461, (399165290221, 798330580441)
        code, out, _ = run(
            capsys, "eisenstein-coeff", "--degree", "1", "--k", "4", "--T", str(psi_12)
        )
        assert code == 0
        value = "64719715779667726502887767757090556583020366594036416965137374082326328"
        assert value == str(2 * (1 + q1**3) * (1 + q2**3))
        assert json.loads(out)["value"] == {"num": value, "den": "1"}

    def test_eisenstein_coeff_degree3(self, capsys):
        code, out, _ = run(
            capsys, "eisenstein-coeff", "--degree", "3", "--k", "14",
            "--T", "1,0,0,1,0,1",
        )
        assert code == 0
        # 4 * F_2(I_3, 2^10) with F_2(I_3, X) = 1 - 16 X^2
        assert json.loads(out)["value"] == {"num": str(4 * (1 - 16 * 2**20)), "den": "1"}

    def test_output_past_the_int_string_digit_limit(self, capsys):
        # a(0) = Z(2, 800) has more digits than the interpreter's default
        # int-string limit: main lifts it for the output only, so an input
        # past it is still a usage error, and puts it back before returning
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(
            capsys, "eisenstein-coeff", "--degree", "2", "--k", "800", "--T", "0,0,0"
        )
        assert code == 0 and sys.get_int_max_str_digits() == limit
        value = json.loads(out)["value"]
        assert len(value["num"]) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(int(value["num"]), int(value["den"])) == z_const(2, 800)
        finally:
            sys.set_int_max_str_digits(limit)
        with pytest.raises(SystemExit) as exc:
            main(["eisenstein-coeff", "--degree", "2", "--k", "1" * 5000, "--T", "0,0,0"])
        assert exc.value.code == 2 and sys.get_int_max_str_digits() == limit
        assert "argument --k: invalid int value" in capsys.readouterr().err

    def test_cohen_series_constant_term(self, capsys):
        _, out, _ = run(
            capsys, "cohen-series", "--k", "16", "--r", "15", "--precision", "6"
        )
        doc = json.loads(out)
        from eiscong.arith import zeta_neg

        z = zeta_neg(30)
        assert doc["coeffs"][0] == {"num": str(z.numerator), "den": str(z.denominator)}


# JSON leaves: any text, surrogates, control characters and punctuation
# such as quotes and backslashes drawn often, and ints of any size
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text()
    | st.text(st.characters(categories=("Cs", "Cc", "Po")))
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=24,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps_indent_2(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc", [[], (), {}, {"a": []}, [{}], {"": ""}, 10**300, -(10**300)]
    )
    def test_empty_containers_and_long_ints(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [1.5, Fraction(1, 2), {1, 2}, {1: "one"}, {"ok": [0.0]}, [{"num": Fraction(1)}]],
        ids=["float", "Fraction", "set", "int key", "nested float", "nested Fraction"],
    )
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)


# one command line per subcommand and output shape
STDOUT_ARGVS = {
    "lvalue": ("lvalue", "--k", "14", "--nu", "2", "--ords", "373,7"),
    "lvalue-empty-forms": ("lvalue", "--k", "6", "--nu", "2"),
    "epsilon-at": (
        "epsilon", "--k", "14", "--nu", "2", "--n", "1", "--N", "1,0,1",
        "--at", "1,1", "--at", "-1,2",
    ),
    "certify-strict": ("certify", "--k", "14", "--nu", "2", "--p", "373", "--A", "1,0,1"),
    "certify-relaxed": (
        "certify", "--k", "8", "--nu", "8", "--p", "23", "--A", "1,0,1", "--relaxed",
    ),
    "siegel-series": ("siegel-series", "--p", "3", "--T", "9"),
    "eisenstein-coeff": ("eisenstein-coeff", "--degree", "3", "--k", "14", "--T", "1,0,0,1,0,1"),
    "cohen-series-precision-0": ("cohen-series", "--k", "16", "--r", "15", "--precision", "0"),
}


class TestJsonStdout:
    @pytest.mark.parametrize("argv", STDOUT_ARGVS.values(), ids=STDOUT_ARGVS)
    def test_stdout_is_json_dumps_indent_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1), err
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestInterfaceContracts:
    def test_determinism(self, capsys):
        _, out1, _ = run(
            capsys, "certify", "--k", "14", "--nu", "2", "--p", "373", "--A", "1,0,1"
        )
        _, out2, _ = run(
            capsys, "certify", "--k", "14", "--nu", "2", "--p", "373", "--A", "1,0,1"
        )
        assert out1 == out2

    def test_malformed_matrix_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["epsilon", "--k", "14", "--nu", "2", "--n", "1", "--N", "1,x,1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "entry 2" in err

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, err = run(
            capsys, "--format", "csv", "siegel-series", "--p", "3", "--T", "1"
        )
        assert code == 3
        assert "csv" in err

    def test_pretty_format_runs(self, capsys):
        code, out, _ = run(
            capsys, "--format", "pretty", "lvalue", "--k", "14", "--nu", "2"
        )
        assert code == 0
        assert f"l_value: {2**20 * 3**4 * 373}/7" in out

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (
                ("certify", "--k", "14", "--nu", "2", "--p", "373", "--A", "1,0,1"),
                (
                    "m_list: [1]",
                    "epsilon:",
                    "  coeffs: [2418024960, 0, 2418024960]",
                    "  at_1_0: 2418024960",
                ),
            ),
            (
                ("epsilon", "--k", "14", "--nu", "2", "--n", "1", "--N", "1,0,1", "--at", "1,0"),
                ("coeffs: [2418024960, 0, 2418024960]", "  at: [1, 0]"),
            ),
        ],
        ids=["certify", "epsilon"],
    )
    def test_pretty_format_nested_documents(self, capsys, argv, lines):
        # nested dicts, lists of rationals, of scalars and of dicts
        code, out, _ = run(capsys, "--format", "pretty", *argv)
        assert code == 0
        for line in lines:
            assert line in out.splitlines(), line

    def test_precision_ignores_the_environment(self, capsys, monkeypatch):
        # --precision is the one override; no environment variable sets it
        monkeypatch.setenv("EISCONG_PRECISION", "24")
        _, out, _ = run(capsys, "lvalue", "--k", "14", "--nu", "2")
        assert json.loads(out)["precision"] == 20

    def test_numpy_loads_only_for_an_enumeration(self):
        # importing the CLI, a whole lvalue command and epsilon at n = 6 never
        # enumerate: every F_p that epsilon meets there has degree <= 5
        script = (
            "import contextlib, io, sys\n"
            "from eiscong.cli import main\n"
            "assert 'numpy' not in sys.modules, 'import eiscong.cli loaded numpy'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    eps = main(['epsilon', '--k', '14', '--nu', '2', '--n', '6', '--N', '1,0,1'])\n"
            "assert eps == 0 and 'numpy' not in sys.modules, 'epsilon loaded numpy'\n"
            "code = main(['lvalue', '--k', '14', '--nu', '2'])\n"
            "assert 'numpy' not in sys.modules, 'lvalue loaded numpy'\n"
            "sys.exit(code)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["forms"][0]["l_value"]["den"] == "7"


README_EXAMPLES = (
    ("lvalue", "--k", "14", "--nu", "2", "--ords", "373,7"),
    ("--format", "csv", "lvalue", "--k", "8", "--nu", "8"),
    ("epsilon", "--k", "8", "--nu", "8", "--n", "1", "--N", "1,0,1", "--at", "1,1"),
    ("certify", "--k", "14", "--nu", "2", "--p", "373", "--A", "1,0,1"),
    ("certify", "--k", "8", "--nu", "8", "--p", "23", "--A", "1,0,1", "--relaxed"),
    ("siegel-series", "--p", "3", "--T", "1,0,0,1,0,1"),
    ("siegel-series", "--p", "17", "--T", "1,0,0,17,0,17"),
    ("eisenstein-coeff", "--degree", "3", "--k", "14", "--T", "1,0,0,1,0,1"),
    ("cohen-series", "--k", "16", "--r", "13", "--precision", "12"),
)

# Each pair after the README examples sets something in its first call that
# a parser keeping state would carry into the second.
EPSILON_8_8 = ("epsilon", "--k", "8", "--nu", "8", "--n", "1", "--N", "1,0,1")
LVALUE_14_2 = ("lvalue", "--k", "14", "--nu", "2")
BACK_TO_BACK = (
    *README_EXAMPLES,
    (*EPSILON_8_8, "--at", "1,1", "--at", "1,0"),
    EPSILON_8_8,
    ("--format", "csv", *LVALUE_14_2, "--ords", "373"),
    (*LVALUE_14_2, "--ords", "373"),
    ("epsilon", "--k", "14", "--nu", "2", "--n", "1", "--N", "1,x,1"),
    ("siegel-series", "--p", "3", "--T", "9"),
    (*LVALUE_14_2, "--precision", "24"),
    LVALUE_14_2,
)


def run_back_to_back(capsys) -> list[tuple[int, str]]:
    """(exit code, stdout) of each BACK_TO_BACK argv, all in this process."""
    results = []
    for argv in BACK_TO_BACK:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        results.append((code, capsys.readouterr().out))
    return results


class TestParserReuse:
    def test_back_to_back_calls_match_fresh_processes(self, capsys):
        results = run_back_to_back(capsys)
        assert [code for code, _ in results].count(2) == 1
        for argv, (code, out) in zip(BACK_TO_BACK, results):
            proc = run_python("-m", "eiscong.cli", *argv)
            assert (code, out) == (proc.returncode, proc.stdout), argv

    def test_parser_is_built_once(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        builds = []
        build = cli._build_parser

        def spy():
            builds.append(None)
            return build()

        monkeypatch.setattr(cli, "_build_parser", spy)
        run_back_to_back(capsys)
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(None)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "from eiscong import cli\n"
            "assert not built and cli._parser is None, 'import built a parser'\n"
            "cli.main(['siegel-series', '--p', '3', '--T', '9'])\n"
            "first = len(built)\n"
            "cli.main(['siegel-series', '--p', '3', '--T', '1'])\n"
            "assert first and len(built) == first, 'the second call built again'\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr


CERTIFY_14_2 = ("certify", "--k", "14", "--nu", "2", "--A", "1,0,1", "--p")


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("siegel-series", "--T", "1", "--p", "1"),
            ("siegel-series", "--T", "1", "--p", "0"),
            ("siegel-series", "--T", "1", "--p", "4"),
            (*CERTIFY_14_2, "1"),
            (*CERTIFY_14_2, "0"),
            (*CERTIFY_14_2, "4"),
            ("lvalue", "--k", "14", "--nu", "2", "--ords", "1"),
            ("lvalue", "--k", "14", "--nu", "2", "--ords", "0"),
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_non_prime_p_is_typed_error(self, argv):
        code, err = run_bounded(*argv)
        assert code == 3, err
        assert "is not a prime" in err

    def test_zero_cusp_space_certify(self, capsys):
        # dim S_k+nu = 0 for weights 8, 10 and 14: no eigenform, so no
        # certificate and no verdict
        for k, nu in (("12", "2"), ("6", "2"), ("6", "4"), ("8", "2")):
            code, out, err = run(
                capsys, "certify", "--k", k, "--nu", nu, "--p", "373", "--A", "1,0,1"
            )
            assert code == 3 and out == "", (k, nu)
            assert f"the weight-{int(k) + int(nu)} cusp space is zero" in err, (k, nu)

    @pytest.mark.parametrize("a_text", ["1,0,-1", "1,2,1", "5"])
    def test_certify_names_a_matrix_that_is_not_pd(self, capsys, a_text):
        code, out, err = run(
            capsys, "certify", "--k", "14", "--nu", "2", "--p", "373", "--A", a_text
        )
        assert code == 3 and out == ""
        assert f"A = {a_text} is not a positive definite 2x2 matrix" in err
        assert "N must" not in err

    @pytest.mark.parametrize("n_text", ["5", "1,2,1", "1,0,-1", "-1,0,-1"])
    def test_epsilon_rejects_a_1x1_N(self, capsys, n_text):
        # the attached form; test_value_led_by_a_minus_reaches_its_check
        # gives "-1,0,-1" as a separate argument.  The 1x1 N must fail
        # before the stabilizer of N is built
        code, out, err = run(
            capsys, "epsilon", "--k", "14", "--nu", "2", "--n", "1", f"--N={n_text}"
        )
        assert code == 3 and out == ""
        assert "N must be a positive definite 2x2 matrix" in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (
                ("epsilon", "--k", "14", "--nu", "2", "--n", "1", "--N", "-1,0,-1"),
                3,
                "N must be a positive definite 2x2 matrix",
            ),
            (
                ("certify", "--k", "14", "--nu", "2", "--p", "373", "--A", "-1,0,-1"),
                3,
                "A = -1,0,-1 is not a positive definite 2x2 matrix",
            ),
            (("siegel-series", "--p", "3", "--T", "-1,0,0,0,0,0"), 3, "B must be nondegenerate"),
            (
                ("eisenstein-coeff", "--degree", "2", "--k", "10", "--T", "-1,0,-1"),
                3,
                "matrix must be positive semidefinite",
            ),
            (("lvalue", "--k", "14", "--nu", "2", "--ords", "-3,5"), 3, "p = -3 is not a prime"),
            (
                (*CERTIFY_14_2, "373", "--m-list", "-1,2"),
                3,
                "m_list must have length dim S = 1",
            ),
            (
                ("epsilon", "--k", "14", "--nu", "2", "--n", "1", "--N", "1,0,1", "--at", "-1,2"),
                0,
                "",
            ),
        ],
        ids=["N", "A", "T-siegel-series", "T-eisenstein-coeff", "ords", "m-list", "at"],
    )
    def test_value_led_by_a_minus_reaches_its_check(self, capsys, argv, code, message):
        # a separate value behaves as the attached "--opt=value"
        attached = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
        results = [run(capsys, *args) for args in (argv, attached)]
        assert results[0] == results[1]
        got, out, err = results[0]
        assert got == code, err
        assert message in err
        if code:
            assert out == ""
        else:
            assert json.loads(out)["evaluations"][0]["at"] == [-1, 2]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("lvalue", "--k", "14", "--nu", "2", "--ords", "3,x"),
                "argument --ords: '3,x' is not a comma-separated integer list",
            ),
            (
                (*CERTIFY_14_2, "373", "--m-list", "1,,2"),
                "argument --m-list: '1,,2' is not a comma-separated integer list",
            ),
            (
                ("epsilon", "--k", "14", "--nu", "2", "--n", "1", "--N", "1,0,1", "--at", "1"),
                "argument --at: expected two comma-separated integers",
            ),
        ],
        ids=["ords", "m-list", "at"],
    )
    def test_malformed_list_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_zero_cusp_space_lvalue(self, capsys):
        for k, nu in (("12", "2"), ("6", "2"), ("6", "4"), ("8", "2")):
            code, out, err = run(capsys, "lvalue", "--k", k, "--nu", nu)
            assert code == 0, err
            doc = json.loads(out)
            assert doc["weight"] == int(k) + int(nu) and doc["forms"] == []

    @pytest.mark.parametrize("k, nu", [("-2", "16"), ("3", "11"), ("12", "0"), ("4", "2")])
    def test_lvalue_names_an_out_of_scope_pair(self, capsys, k, nu):
        # checked before the cusp space is built, so a zero space cannot hide it
        code, out, err = run(capsys, "lvalue", "--k", k, "--nu", nu)
        assert code == 3 and out == ""
        assert f"need even k >= 6 and even nu >= 2, got k = {k}, nu = {nu}" in err

    def test_certify_names_an_out_of_scope_pair(self, capsys):
        code, out, err = run(capsys, "certify", "--k", "4", "--nu", "8", "--p", "23", "--A", "1,0,1")
        assert code == 3 and out == ""
        assert "need even k >= 6 and even nu >= 2, got k = 4, nu = 8" in err

    def test_factorization_past_the_rho_bound_is_typed_error(self):
        # two 21-digit primes: Pollard's rho cannot split their product within
        # its step bound, so sigma_3 of it raises BudgetExceeded, not a hang
        t = str((10**20 + 39) * (10**20 + 129))
        code, err = run_bounded("eisenstein-coeff", "--degree", "1", "--k", "4", "--T", t)
        assert code == 3, err
        assert "BudgetExceeded" in err and t in err

    @pytest.mark.parametrize(
        "t, conductor",
        [
            # 4 10^20 (10^20 + 39): the parent's sieve could not allocate its range
            (f"{10**20},0,{10**20 + 39}", 10**20 + 39),
            # det(2T) = 699059 = 3 mod 4, prime: (699059 - 1)/2 * 12 = 4194348 terms,
            # the first such conductor past the bound
            ("1,1,174765", 699059),
        ],
        ids=["det-4e40", "just-past-the-bound"],
    )
    def test_l_value_past_the_term_bound_is_typed_error(self, t, conductor):
        # a(T) = 2 H(11, D) needs L(-10, chi) of that conductor; gen_bernoulli
        # refuses it before building a sieve, so the child exits at once
        code, err = run_bounded("eisenstein-coeff", "--degree", "2", "--k", "12", "--T", t,
                                timeout=30)
        assert code == 3, err
        assert f"BudgetExceeded: L-value of conductor {conductor} at r = 11" in err
        assert "past the bound of 4194304" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "--k", "14", "--nu", "2", "--p", "23", "--A", "1,0,1",
             "--m-list", str(2**1100)),
            ("epsilon", "--k", "14", "--nu", "2", "--n", str(10**12), "--N", "1,0,1"),
        ],
        ids=["certify-m-2^1100", "epsilon-n-10^12"],
    )
    def test_huge_m_or_n_is_typed_error(self, argv):
        # epsilon_hecke loops over the 1100 prime factors of m without
        # recursion, and enumerate_R refuses a row box past its bound before
        # walking it; both exit 3 rather than with a traceback or a hang
        code, err = run_bounded(*argv, timeout=30)
        assert code == 3, err
        assert "BudgetExceeded" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eisenstein-coeff", "--degree", "2", "--k", "100000", "--T", "1,0,1"),
             "Bernoulli number B_99999 is past the index bound of 2400"),
            (("eisenstein-coeff", "--degree", "1", "--k", "100000", "--T", "0"),
             "Bernoulli number B_100000 is past the index bound of 2400"),
            (("cohen-series", "--k", "20000", "--r", "3", "--precision", "20"),
             "P_(d,nu) of degree nu = 19996 is past the bound of 700"),
            (("epsilon", "--k", "14", "--nu", "100000", "--n", "1", "--N", "1,0,1"),
             "P_(d,nu) of degree nu = 100000 is past the bound of 700"),
        ],
        ids=["rank2-k", "rank0-k", "cohen-nu", "epsilon-nu"],
    )
    def test_large_weight_or_degree_is_typed_error(self, argv, message):
        # the Bernoulli table grows like k^3 and the Gegenbauer sums like
        # nu^3.5; both bounds are checked before any of that work, so the
        # child exits at once
        code, err = run_bounded(*argv, timeout=30)
        assert code == 3, err
        assert f"BudgetExceeded: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("lvalue", "--k", "10", "--nu", "2", "--precision", "100000000"),
            ("cohen-series", "--k", "16", "--r", "13", "--precision", "100000000"),
            ("cohen-series", "--k", "16", "--r", "13", "--precision", str(2**12 + 1)),
        ],
        ids=["lvalue-10^8", "cohen-series-10^8", "cohen-series-2^12+1"],
    )
    def test_huge_precision_is_typed_error(self, argv):
        # the q-expansions cost the square of the precision; the bound is
        # checked before miller_basis or cohen_series builds anything
        code, err = run_bounded(*argv, timeout=30)
        assert code == 3, err
        assert f"BudgetExceeded: precision {argv[-1]} exceeds the bound of 4096" in err
        assert "Traceback" not in err

    def test_precision_at_the_bound_is_admitted(self, monkeypatch, capsys):
        # the bound is inclusive; shrunk here so the series stays small
        monkeypatch.setattr(qexp, "_MAX_PRECISION", 53)
        code, out, _ = run(capsys, "cohen-series", "--k", "16", "--r", "13", "--precision", "53")
        assert code == 0 and json.loads(out)["precision"] == 53
        code, _, err = run(capsys, "lvalue", "--k", "10", "--nu", "2", "--precision", "54")
        assert code == 3 and "precision 54 exceeds the bound of 53" in err

    def test_negative_precision_flag(self, capsys):
        code, out, err = run(
            capsys, "cohen-series", "--k", "16", "--r", "13", "--precision", "-1"
        )
        assert code == 3 and out == ""
        assert "precision must be >= 0" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("siegel-series", "--p", "3", "--T", "1,0,1"),
            ("siegel-series", "--p", "3", "--T", "1,0,0,1,0,1"),
            ("siegel-series", "--p", "3", "--T", "1,0,0,1,0,3"),
            ("siegel-series", "--p", "2", "--T", "1,0,0,1,0,1"),
            ("eisenstein-coeff", "--degree", "2", "--k", "10", "--T", "1,1,1"),
            ("eisenstein-coeff", "--degree", "3", "--k", "8", "--T", "1,0,0,1,0,1"),
        ],
        ids=["size2", "size3-d0", "size3-d1", "size3-d2", "coeff-degree2", "coeff-degree3"],
    )
    def test_budget_below_one_is_typed_error(self, capsys, argv, budget):
        code, out, err = run(capsys, *argv, "--budget", budget)
        assert code == 3 and out == ""
        assert f"ValueError: budget must be >= 1, got {budget}" in err

    def test_degree_one_at_p2_counts_the_plane(self, capsys):
        # degree 1 at p = 2 reads c_1 off the 7 points of P^2(F_2), as
        # degrees 2 and 3 do; with 7 points allowed the output is unchanged
        argv = ("siegel-series", "--p", "2", "--T", "1,1,0,1,0,2")
        code, out, err = run(capsys, *argv, "--budget", "6")
        assert code == 3 and out == ""
        assert "BudgetExceeded: c_1 at p = 2" in err and "7 points" in err
        code, out, _ = run(capsys, *argv, "--budget", "7")
        assert code == 0
        assert json.loads(out) == {
            "command": "siegel-series", "p": 2, "T": "1,1,0,1,0,2", "coeffs": ["1", "-4"]
        }

    def test_budget_exceeded_names_p_and_matrix(self):
        # degree 2 at p = 2: c_1 counts the 7 points of P^2(F_2)
        code, err = run_bounded(
            "siegel-series", "--p", "2", "--T", "1,0,0,1,0,1", "--budget", "6"
        )
        assert code == 3, err
        assert "BudgetExceeded" in err
        assert "p = 2" in err and "1,0,0,1,0,1" in err
