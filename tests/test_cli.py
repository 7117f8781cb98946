import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmgerm.cli
import harmgerm.equivalence
import harmgerm.polyring
from harmgerm.cli import RANGES, main
from harmgerm.equivalence import (
    WitnessChain,
    _gaussian_pow,
    absorption_profile,
    reduce_germ,
    verify_biharmonic,
)
from harmgerm.harmonic import harmonic_pair
from harmgerm.polyring import Poly, format_poly
from harmgerm.rng import (
    Xoshiro256StarStar,
    biharmonic_perturbation,
    derive_seed,
    kernel_perturbations,
    random_homogeneous,
)

from conftest import P, counted, read_digits, recorded_verdicts, rescaled, sum_of_reciprocals


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHarmonicCommand:
    def test_k2(self, capsys):
        code, out, _ = run_cli(capsys, "harmonic", "--k", "2")
        assert code == 0
        assert "x^2 - y^2" in out
        assert "2*x*y" in out

    def test_k3_canonical_strings(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "harmonic", "--k", "3")
        payload = json.loads(out)
        assert payload == {"k": 3, "f": "x^3 - 3*x*y^2", "g": "3*x^2*y - y^3"}

    def test_k0_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "harmonic", "--k", "0")
        assert code == 2
        assert "usage" in err


class TestKernelCommand:
    def test_harmonics(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "kernel", "--k", "4", "--s", "1")
        payload = json.loads(out)
        assert code == 0 and payload["dimension"] == 2

    def test_biharmonics(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "kernel", "--k", "4", "--s", "2")
        assert json.loads(out)["dimension"] == 4

    def test_underflow(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "kernel", "--k", "3", "--s", "5")
        assert json.loads(out)["dimension"] == 4


class TestSpanAlmansiSplit:
    def test_span(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "span", "--s", "1", "--k", "3")
        assert code == 0 and json.loads(out)["dimension"] == 4

    def test_almansi(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "almansi", "x^4", "--s", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["layers"] == [
            "1/8*x^4 - 3/4*x^2*y^2 + 1/8*y^4",
            "1/2*x^2 - 1/2*y^2",
            "3/8",
        ]

    def test_almansi_invalid(self, capsys):
        code, _, err = run_cli(capsys, "almansi", "x^4", "--s", "1")
        assert code == 1 and "validation" in err

    def test_split(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "split", "x^3 + x*y^2")
        payload = json.loads(out)
        assert payload["harmonic"] == "0" and payload["radial_factor"] == "x"


class TestDeterminacyCommand:
    def test_certified(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "determinacy", "x^2 - y^2", "--k", "2")
        assert code == 0 and json.loads(out)["verdict"] is True

    def test_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "determinacy", "x^3", "--k", "3")
        assert code == 1 and json.loads(out)["verdict"] is False

    def test_tampered_certificate_is_internal_error(self, capsys, tampered_certificate):
        code, out, err = run_cli(capsys, "determinacy", "x^5 - 10*x^3*y^2 + 5*x*y^4", "--k", "7")
        assert code == 1 and out == ""
        assert err == "internal error: WitnessFault: determinacy certificate failed exact re-verification\n"


class TestReduceCommand:
    def test_spec_example(self, capsys):
        germ = "x^5 - 10*x^3*y^2 + 5*x*y^4 + x^2*(x^4 - 6*x^2*y^2 + y^4)"
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", germ, "--k", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["verified"] is True
        assert payload["target"] == "x^5 - 10*x^3*y^2 + 5*x*y^4"
        assert len(payload["maps"]) == 1

    def test_kernel_violation(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "x^5 + x^6", "--k", "5")
        assert code == 1
        assert "kernel" in err

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "", "--k", "5")
        assert code == 2
        assert "parse error" in err

    def test_terms_below_the_leading_degree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "x^4 + x^5", "--k", "5")
        assert code == 1 and err == "validation error: germ has terms of degree below k = 5\n"

    def test_rescaled_leading_form(self, capsys):
        # leading form 32*f_5 admits the exact rescaling x -> x/2
        germ = "32*x^5 - 320*x^3*y^2 + 160*x*y^4"
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", germ, "--k", "5")
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True

    def test_rescaled_leading_form_with_perturbation(self, capsys):
        # same leading form plus a perturbation: the witness starts with the
        # linear rescaling and continues with the usual absorption chain
        germ = "32*x^5 - 320*x^3*y^2 + 160*x*y^4 + x^2*(x^4 - 6*x^2*y^2 + y^4)"
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", germ, "--k", "5")
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert len(payload["maps"]) == 2
        assert payload["maps"][0] == {"x": "1/2*x", "y": "1/2*y"}
        assert payload["target"] == "x^5 - 10*x^3*y^2 + 5*x*y^4"

    def test_non_harmonic_form_rejected(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "x^5", "--k", "5")
        assert code == 1 and "not harmonic" in err

    def test_irrational_rescaling_with_higher_terms_rejected(self, capsys):
        # leading form 2*f_5 needs the fifth root of 1/2; no exact path, and
        # the germ is not purely harmonic, so the numeric fallback is refused
        germ = "2*x^5 - 20*x^3*y^2 + 10*x*y^4 + x^2*(x^4 - 6*x^2*y^2 + y^4)"
        code, _, err = run_cli(capsys, "reduce", germ, "--k", "5")
        assert code == 1 and "irrational" in err

    def test_numeric_leading_form(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", "2*x*y", "--k", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "rescaling" and payload["verified"] is True

    def test_root_beyond_a_double_with_perturbation(self, capsys):
        # c*f_5 + x^2*f_4 with c = (10^10+1)^5: delta = 1/(10^10+1) is rational
        germ = harmonic_pair(5).f * (10**10 + 1) ** 5 + P("x^2") * harmonic_pair(4).f
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", format_poly(germ), "--k", "5")
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert payload["maps"][0] == {"x": "1/10000000001*x", "y": "1/10000000001*y"}

    def test_pure_form_beyond_a_double(self, capsys):
        germ = harmonic_pair(5).f / (10**10 + 1) ** 5
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", format_poly(germ), "--k", "5")
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert payload["maps"] == [{"x": "1/10000000001*x", "y": "1/10000000001*y"}]

    def test_map_coefficients_beyond_the_str_limit(self, capsys):
        # the benchmark's seed-1 k = 12 instance with its offset-1
        # perturbation times 10^580: the witness maps' numerals run past
        # the 4300 digits str() converts by default
        k = 12
        rng = Xoshiro256StarStar(derive_seed(1, 1, 0, 0))
        rhos = kernel_perturbations(rng, absorption_profile(k))
        tail = random_homogeneous(rng, 2 * k - 3)
        rhos[1] = rhos[1] * 10**580
        payload = json.loads(reduce_germ(k, rhos, tail).to_json())
        assert payload["verified"] is True
        assert max(len(m["x"]) for m in payload["maps"]) > 4300
        germ = harmonic_pair(k).f + tail + sum(rhos.values(), Poly.zero())
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", format_poly(germ), "--k", "12")
        assert code == 0 and json.loads(out) == payload

    @pytest.mark.parametrize("form", ("text", "json"))
    def test_biharmonic_witness_beyond_the_str_limit(self, capsys, form):
        # a seed-1 biharmonic R at k = 12 times 10^590: its numerals have
        # up to 597 digits, the witness maps' run past the 4300 digits
        # str() converts by default
        k = 12
        R = biharmonic_perturbation(Xoshiro256StarStar(derive_seed(1, 1, 0, 0)), k) * 10**590
        code, out, _ = run_cli(capsys, "--format", form, "biharm", format_poly(R), "--k", str(k))
        assert code == 0
        assert max(len(numeral) for numeral in re.findall(r"\d+", out)) > 4300
        if form == "json":
            assert json.loads(out) == json.loads(verify_biharmonic(k, R).to_json())
        else:
            assert "verified: true" in out

    @pytest.mark.parametrize("form", ("text", "json"))
    def test_rescaling_witness_beyond_the_str_limit(self, capsys, form):
        # a = 3*(10^600 - 3)^8 has 4,802 digits and no rational square root
        factor = "9" * 599 + "7"
        a = "*".join([factor] * 8 + ["3"])
        code, out, _ = run_cli(capsys, "--format", form, "reduce", f"{a}*x^2 - {a}*y^2", "--k", "2")
        assert code == 0
        digits = json.loads(out)["a"] if form == "json" else out.split("(", 1)[1].split(")", 1)[0]
        assert read_digits(digits) == 3 * (10**600 - 3) ** 8


class TestReduceSingleVerification:
    # f_6 + x*f_6 + 6*x^3*f_5: offset 1 needs the radial scale map,
    # offset 2 a translation; the rescaling adds a linear prefix map
    GERM = rescaled(
        harmonic_pair(6).f + P("x") * harmonic_pair(6).f + P("x^3") * harmonic_pair(5).f * 6
    )

    def test_each_map_composed_once_by_verify(self, capsys, monkeypatch):
        composes = counted(monkeypatch, harmgerm.equivalence, "jet_compose")
        checks = counted(monkeypatch, harmgerm.equivalence, "radial_step_holds")
        verifies = counted(monkeypatch, WitnessChain, "verify")
        code, out, _ = run_cli(capsys, "--format", "json", "reduce", format_poly(self.GERM), "--k", "6")
        assert code == 0
        maps = json.loads(out)["maps"]
        assert len(maps) == 3 and len(verifies) == 1
        # the prefix map composes nothing; verify composes the prefix and
        # the one translation and checks the final scale map by its identity
        assert len(composes) == len(maps) - 1 and len(checks) == 1

    # f_8 + x*f_8 + y^2*g_8: offsets 1 and 2 both go to the one scale map
    GERM_8 = harmonic_pair(8).f * P("1 + x") + P("y^2") * harmonic_pair(8).g

    def test_tampered_scale_map_is_internal_error(self, capsys, monkeypatch, tampered_scale_map):
        verdicts = recorded_verdicts(monkeypatch)
        code, out, err = run_cli(capsys, "reduce", format_poly(self.GERM), "--k", "6")
        assert code == 1 and out == ""
        assert err.startswith("internal error: ") and "Traceback" not in err
        # not radial once nudged, so verify() composes it
        assert verdicts == [None]

    @pytest.mark.parametrize("m", (2, 3, 5))
    def test_tampered_radial_map_is_internal_error(self, capsys, monkeypatch, tampered_radial_map, m):
        # m = 2, 3 and k - 3 = 5; still radial, so the identity decides
        tampered_radial_map(m)
        verdicts = recorded_verdicts(monkeypatch)
        code, out, err = run_cli(capsys, "reduce", format_poly(self.GERM_8), "--k", "8")
        assert code == 1 and out == ""
        assert err.startswith("internal error: ") and "Traceback" not in err
        assert verdicts == [False]


def test_import_leaves_out_mpmath():
    # the package has no runtime dependency
    src = pathlib.Path(harmgerm.equivalence.__file__).parents[1]
    script = "import sys, harmgerm.cli; sys.exit('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


def test_import_leaves_out_dataclasses():
    # the result records are NamedTuples: a cold start pays for neither
    # dataclasses nor the inspect module it pulls in
    src = pathlib.Path(harmgerm.equivalence.__file__).parents[1]
    script = (
        "import sys; before = set(sys.modules); import harmgerm.cli; "
        "sys.exit(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))) or None)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestBiharmCommand:
    def test_valid(self, capsys):
        R = "x*(x^5 - 10*x^3*y^2 + 5*x*y^4)"
        code, out, _ = run_cli(capsys, "--format", "json", "biharm", R, "--k", "5")
        assert code == 0 and json.loads(out)["verified"] is True

    def test_invalid(self, capsys):
        code, _, err = run_cli(capsys, "biharm", "x^6", "--k", "5")
        assert code == 1
        assert "Laplacian" in err


def _chain_polys(payload):
    return 2 + 2 * len(payload["maps"])


class TestOutputFormattedOnce:
    """Each command formats its result once, into the JSON payload, and the
    text view is rendered from the payload's strings."""

    @pytest.fixture
    def format_calls(self, monkeypatch):
        # every module-level reference to format_poly, Poly.__str__'s included
        calls = []
        original = harmgerm.polyring.format_poly

        def counting(p):
            calls.append(p)
            return original(p)

        for name, module in list(sys.modules.items()):
            if name.startswith("harmgerm") and getattr(module, "format_poly", None) is original:
                monkeypatch.setattr(module, "format_poly", counting)
        return calls

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["reduce", format_poly(TestReduceSingleVerification.GERM), "--k", "6"], _chain_polys),
            (["reduce", "x^5 - 10*x^3*y^2 + 5*x*y^4 + x^2*(x^4 - 6*x^2*y^2 + y^4)", "--k", "5"], _chain_polys),
            (["reduce", "-4*x*y", "--k", "2"], _chain_polys),
            (["reduce", "2*x*y", "--k", "2"], lambda payload: 0),
            (["biharm", "x*(x^5 - 10*x^3*y^2 + 5*x*y^4)", "--k", "5"], _chain_polys),
            (["harmonic", "--k", "3"], lambda payload: 2),
            (["almansi", "x^4", "--s", "3"], lambda payload: 1 + len(payload["layers"])),
            (["split", "x^3"], lambda payload: 3),
            (["determinacy", "x^2 - y^2", "--k", "2"], lambda payload: 1),
            (["determinacy", "x^3", "--k", "3"], lambda payload: 2),
        ],
        ids=[
            "reduce-three-maps", "reduce", "reduce-rotation", "reduce-rescaling", "biharm",
            "harmonic", "almansi", "split", "determinacy", "determinacy-inconclusive",
        ],
    )
    def test_each_polynomial_formatted_once(self, capsys, format_calls, argv, expected):
        code, out, _ = run_cli(capsys, "--format", "json", *argv)
        assert len(format_calls) == expected(json.loads(out))
        count = len(format_calls)
        assert run_cli(capsys, "--format", "text", *argv)[0] == code
        assert len(format_calls) == 2 * count

    # sha256 over each command's exit code and stdout, in order, pinned
    # before the text view was rendered from the payload
    COMMANDS = [
        ["harmonic", "--k", "3"],
        ["kernel", "--k", "4", "--s", "2"],
        ["span", "--s", "1", "--k", "3"],
        ["almansi", "x^4", "--s", "3"],
        ["split", "x^3"],
        ["determinacy", "x^2 - y^2", "--k", "2"],
        ["reduce", "x^5 - 10*x^3*y^2 + 5*x*y^4 + x^2*(x^4 - 6*x^2*y^2 + y^4)", "--k", "5"],
        ["biharm", "x*(x^5 - 10*x^3*y^2 + 5*x*y^4)", "--k", "5"],
        ["reduce", "-4*x*y", "--k", "2"],
        ["selftest", "--seed", "42"],
        ["reduce", "2*x*y", "--k", "2"],
        ["determinacy", "x^3", "--k", "3"],
    ]

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("text", "9d6c07fa4eeef5e4760c3fcfa52b2efce33ad8ea067a371abd3c52eb9295b22a"),
            ("json", "e0c9542a5ade4050c917ab3417d9f4d587d23bb20d2ce0015921fc9e21fa4ea0"),
        ],
    )
    def test_golden_output(self, capsys, fmt, digest):
        outputs = hashlib.sha256()
        for argv in self.COMMANDS:
            code, out, _ = run_cli(capsys, "--format", fmt, *argv)
            outputs.update(f"{code}\n{out}".encode())
        assert outputs.hexdigest() == digest


class TestSelftestCommand:
    def test_passes_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "7", "--max-degree", "6")
        assert code == 0
        assert "RESULT: PASS" in out
        assert "EXPECTED-DISCREPANCY" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "selftest", "--seed", "42", "--max-degree", "6")
        _, out2, _ = run_cli(capsys, "selftest", "--seed", "42", "--max-degree", "6")
        assert out1 == out2

    def test_json_mode_same_data(self, capsys):
        _, text, _ = run_cli(capsys, "selftest", "--seed", "3", "--max-degree", "5")
        _, blob, _ = run_cli(capsys, "--format", "json", "selftest", "--seed", "3", "--max-degree", "5")
        payload = json.loads(blob)
        assert payload["passed"] is True
        # every check line in the text report appears in the JSON payload
        assert len(payload["checks"]) == len(text.strip().splitlines()) - 2

    # sha256 of the report, pinned when the membership solves were rearranged
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["selftest"], "221720c73d52820f95ddb24094e2550e23b47ad465b30cf1259c958dec746d79"),
            (
                ["selftest", "--seed", "42", "--max-degree", "6"],
                "d0d8b7d6fad4aab0b93d46c04bd13a8c4973dcf3fb881764f7a05dde939920cb",
            ),
            (
                ["--format", "json", "selftest", "--seed", "7", "--max-degree", "7"],
                "e0d7ba08bdf2b296d41f2b0234e5630cda87f5f8f03f9c55f762515109a90925",
            ),
        ],
    )
    def test_golden_report(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRangeErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("kernel", "--k", "3", "--s", "-1"),
            ("kernel", "--k", "-2", "--s", "1"),
            ("span", "--k", "0", "--s", "1"),
            ("span", "--k", "2", "--s", "-1"),
            ("almansi", "x^4", "--s", "0"),
            ("reduce", "x^5", "--k", "0"),
            ("selftest", "--max-degree", "0"),
            ("selftest", "--max-degree", "-3"),
            ("determinacy", "1", "--k", "0"),
            ("biharm", "x^6", "--k", "4"),
            ("biharm", "x^6", "--k", "-3"),
            ("harmonic", "--k", "0"),
            ("almansi", "x^4", "--s", "-1"),
            # a germ that is not a pure harmonic form needs k >= 5
            ("reduce", "2*x*y + x^3", "--k", "2"),
            ("reduce", "x^4 - 6*x^2*y^2 + y^4 + x^5", "--k", "4"),
        ],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and "requires --" in err

    def test_tolerance_is_an_unknown_option(self, capsys):
        # the exact root search has no tolerance
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "2*x*y", "--k", "2", "--tolerance", "1e-30"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --tolerance" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("kernel", "--k", "0", "--s", "0"),
            ("span", "--k", "1", "--s", "0"),
            ("determinacy", "x", "--k", "1"),
            ("biharm", "x^6 - 15*x^4*y^2 + 15*x^2*y^4 - y^6", "--k", "5"),
        ],
    )
    def test_lowest_values_accepted(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""

    def test_deep_nesting_is_a_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "split", "(" * 3000 + "x" + ")" * 3000)
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize(
        "poly",
        ["1" * 5000 + "*x^2", "x^" + "9" * 5000, "1/" + "3" * 5000],
        ids=["numeral", "exponent", "denominator"],
    )
    def test_overlong_number_is_a_parse_error(self, capsys, poly):
        code, out, err = run_cli(capsys, "split", poly)
        assert code == 2 and out == ""
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "poly",
        ["x^2\u0661", "\uff11*x", "x^2\u3000+ y^2", "3\u00a0x"],
        ids=["arabic-indic digit", "fullwidth digit", "ideographic space", "no-break space"],
    )
    def test_non_ascii_digit_or_space_is_a_parse_error(self, capsys, poly):
        code, out, err = run_cli(capsys, "split", poly)
        assert code == 2 and out == ""
        assert err.startswith("parse error: unexpected character")

    @pytest.mark.parametrize(
        "argv",
        [
            ("harmonic", "--k", "\u0663"),
            ("harmonic", "--k", "1_0"),
            ("harmonic", "--k", " 3"),
            ("kernel", "--s", "1", "--k", "\uff14"),
            ("kernel", "--k", "4", "--s", "\u0661"),
            ("selftest", "--seed", "\uff14\uff12"),
            ("selftest", "--max-degree", "3\u00a0"),
        ],
        ids=["arabic-indic digit", "underscore", "padding", "fullwidth digit", "s", "seed", "max-degree"],
    )
    def test_non_ascii_integer_option_is_a_usage_error(self, capsys, argv):
        # int() would read each of these as a number
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"invalid ascii_int value: {argv[-1]!r}" in captured.err

    @pytest.mark.parametrize(
        "fault",
        [
            ArithmeticError("composition of a real jet left an imaginary part y"),
            KeyError("offset 9 outside 1..4"),
            # a stdlib ValueError is a defect, not a refused input
            ValueError("max() arg is an empty sequence"),
        ],
        ids=["ArithmeticError", "KeyError", "ValueError"],
    )
    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch, fault):
        def failing(args):
            raise fault

        monkeypatch.setattr(harmgerm.cli, "cmd_reduce", failing)
        code, out, err = run_cli(capsys, "reduce", "x^5 - 10*x^3*y^2 + 5*x*y^4", "--k", "5")
        assert code == 1 and out == ""
        assert err == f"internal error: {type(fault).__name__}: {fault}\n"


class TestLeadingMinus:
    """A polynomial as format_poly prints it, leading minus included, is the
    poly argument of every command that takes one, before or after the
    options, and gives what the `--` form gives."""

    CASES = [
        ("split", format_poly(-P("x^2")), ()),
        ("almansi", format_poly(-P("x^4")), ("--s", "3")),
        ("determinacy", format_poly(rescaled(harmonic_pair(2).f)), ("--k", "2")),
        ("reduce", format_poly(rescaled(harmonic_pair(2).f)), ("--k", "2")),
        ("reduce", format_poly(-harmonic_pair(5).f - P("x^2") * harmonic_pair(4).f), ("--k", "5")),
        ("biharm", format_poly(-P("x") * harmonic_pair(5).f), ("--k", "5")),
    ]

    @pytest.mark.parametrize("command, poly, options", CASES)
    def test_round_trip(self, capsys, command, poly, options):
        assert poly.startswith("-")
        expected = run_cli(capsys, command, *options, "--", poly)
        assert expected[0] == 0 and expected[2] == ""
        assert run_cli(capsys, command, poly, *options) == expected
        assert run_cli(capsys, command, *options, poly) == expected
        assert run_cli(capsys, "--format", "json", command, poly, *options)[0] == 0

    def test_spaceless_forms_are_covered(self):
        assert {poly for _, poly, _ in self.CASES} >= {"-x^2", "-x^4", "-4*x*y"}

    def test_parse_error_positions_are_the_users(self, capsys):
        code, out, err = run_cli(capsys, "split", "-x^^2")
        assert (code, out) == (2, "")
        assert err == "parse error: expected exponent (at position 3)\n"
        assert run_cli(capsys, "split", "--", "-x^^2") == (code, out, err)

    @pytest.mark.parametrize("argv", [("split", "-h"), ("reduce", "--help"), ("reduce", "-4*x*y", "-h")])
    def test_help_still_wins(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: harmgerm ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("reduce", "-4*x*y", "--k"), "argument --k: expected one argument"),
            (("harmonic", "--k", "3", "-x"), "unrecognized arguments: -x"),
            (("reduce", "-4*x*y", "--k", "2", "--tolerance", "1"), "unrecognized arguments: --tolerance"),
        ],
    )
    def test_options_still_checked(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert message in captured.err


class TestWorkBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ("harmonic", "--k", "99999999999999999999"),
            ("kernel", "--k", "100000", "--s", "1"),
            ("split", "x^1000000"),
            ("almansi", "x^1000000", "--s", "600000"),
        ],
    )
    def test_unbounded_runs_are_usage_errors(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and "<=" in err

    def test_product_of_grouped_sums_is_a_parse_error(self, capsys):
        # 40 factors of degree 128 used to expand for 10 s; the work budget
        # refuses the seventh product
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "split", "*".join(["(x+y)^128"] * 40))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "parse error: work budget of 268435456 exceeded (at position 70)\n"

    @staticmethod
    def split_cold(text):
        src = pathlib.Path(harmgerm.equivalence.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "harmgerm.cli", "split", text], env=env, capture_output=True, text=True
        )
        return proc, time.perf_counter() - start

    def test_many_grouped_powers_are_a_parse_error_cold(self):
        # 13,000 copies of (x+y)^128 fit in one argv string and used to run
        # 20.7 s; the work budget refuses the 91st
        proc, elapsed = self.split_cold("+".join(["(x+y)^128"] * 13000))
        assert elapsed < 1
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "parse error: work budget of 268435456 exceeded (at position 904)\n"

    @pytest.mark.parametrize("n", [120, 215])
    def test_sums_of_large_denominators_are_a_parse_error_cold(self, n):
        # n terms 1/N_i*x^i with distinct 600-digit N_i: at n = 120 (73 KB) the
        # sum parsed in 2.7 s, at n = 215 (131 KB) it ran 12-13 s before the
        # coefficient cap refused it; the content gcd over the lcm of the
        # denominators is charged before it runs
        text = sum_of_reciprocals(n)
        assert len(text) < 131072
        proc, elapsed = self.split_cold(text)
        assert elapsed < 1
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "parse error: work budget of 268435456 exceeded (at position 0)\n"

    POWER_610 = "(" + "9" * 600 + "*x+y)^128"

    @pytest.mark.parametrize(
        "text, position",
        [(POWER_610, 605), ("+".join([POWER_610] * 64), 605), ("(x+y+1)^128", 6)],
        ids=["610_byte_power", "64_copies", "trinomial_power"],
    )
    def test_costly_expansions_are_a_parse_error_cold(self, text, position):
        # the 610-byte power parsed in 5.7-9.5 s, 64 copies of it (39 KB) fit in
        # one argv string, and (x+y+1)^128 took 1.4-2.5 s; each squaring is
        # charged before it runs
        assert len(text) < 131072
        proc, elapsed = self.split_cold(text)
        assert elapsed < 1
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"parse error: work budget of 268435456 exceeded (at position {position})\n"

    def test_one_term_power_with_a_huge_coefficient_is_a_parse_error(self, capsys):
        # 9^1000000 would take 3.2 million bits; refused before it is computed
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "split", "(9*x)^1000000")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "parse error: coefficient exceeds 255125 bits (at position 4)\n"

    @pytest.mark.parametrize(
        "text, position", [("(9)^1000000", 2), ("((9)^1000000)^1000000", 3), ("x + (9)^1000000*y", 6)]
    )
    def test_constant_group_power_with_a_huge_value_is_a_parse_error(self, capsys, text, position):
        # (9)^1000000 used to build a 3.2-million-bit constant, and its
        # millionth power never finished
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "split", text)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"parse error: coefficient exceeds 255125 bits (at position {position})\n"

    @pytest.mark.parametrize("factors", [2, 10, 11900])
    def test_product_of_huge_constants_is_a_parse_error(self, capsys, factors):
        # ten factors used to take 2 s and build a 4-million-bit coefficient,
        # and the time grew quadratically with the count; 3^255124 alone has
        # 404362 bits, so the first factor is refused
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "split", "*".join(["(3)^255124"] * factors) + "*x")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "parse error: coefficient exceeds 255125 bits (at position 2)\n"

    def test_product_just_under_the_coefficient_cap_parses(self, capsys):
        code, out, err = run_cli(capsys, "split", "(2)^255000*(2)^124*x^2")
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("harmonic", "--k", "14001"), "--k <= 14000"),
            (("kernel", "--k", "451", "--s", "0"), "--k <= 450"),
            (("span", "--k", "301", "--s", "0"), "--k <= 300"),
            (("span", "--k", "1", "--s", "301"), "--s <= 300"),
            (("almansi", "x^4", "--s", "401"), "--s <= 400"),
            (("almansi", "x^401", "--s", "1"), "a polynomial of degree <= 400"),
            (("split", "x^801"), "a polynomial of degree <= 800"),
            (("determinacy", "x^2", "--k", "25"), "--k <= 24"),
            (("reduce", "x^5", "--k", "37"), "--k <= 36"),
            (("biharm", "x^6", "--k", "37"), "--k <= 36"),
        ],
    )
    def test_just_above_limit(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"usage error: {argv[0]} requires {message}\n"

    @pytest.mark.parametrize("twist", ("root", "norm", "unit"))
    def test_long_coefficients_at_the_degree_limit(self, capsys, twist):
        # pure forms a*f_36 + b*g_36 with c = a - ib = delta^36, coefficients
        # of about 570 digits (the parser takes 600); c + 1 fails the norm
        # test, and i*c passes it but has no 36th root
        re, im = _gaussian_pow(10**15 + 7, 3 * 10**15 + 1, 36)
        re, im = {"root": (re, im), "norm": (re + 1, im), "unit": (-im, re)}[twist]
        pair = harmonic_pair(36)
        germ = pair.f * re - pair.g * im
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", "reduce", format_poly(germ), "--k", "36")
        assert time.perf_counter() - start < 2
        assert code == 0 and err == ""
        assert json.loads(out).get("kind") == (None if twist == "root" else "rescaling")

    @pytest.mark.parametrize(
        "argv",
        [
            ("kernel", "--k", "12", "--s", "4"),
            ("split", "x^12"),
            ("almansi", format_poly(harmonic_pair(10).f), "--s", "3"),
            ("determinacy", format_poly(harmonic_pair(8).f), "--k", "13"),
            ("reduce", format_poly(harmonic_pair(10).f + harmonic_pair(17).g), "--k", "10"),
            ("biharm", format_poly(harmonic_pair(8).f), "--k", "7"),
        ],
    )
    def test_benchmark_mix_sizes_accepted(self, capsys, argv):
        # the shapes of the perfbench cli mix
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""


# -- arbitrary argv ------------------------------------------------------------

# Integers are either small enough to run quickly or far outside every
# accepted range, so only the range checks ever see large values. Small
# ones come three times as often, so that most commands get to run.
_SMALL_INT = st.integers(-1, 7)
_OPTION_INT = st.one_of(
    _SMALL_INT,
    _SMALL_INT,
    _SMALL_INT,
    st.integers(min_value=10**6, max_value=10**40),
    st.integers(max_value=-(10**6), min_value=-(10**40)),
)
_POLY_TEXT = st.one_of(
    # with non-ASCII digits and spaces, which must be parse errors
    st.text(alphabet="xy0123456789+-*/^() \u0661\uff11\u3000\u00a0", max_size=12),
    st.builds(
        lambda terms: " + ".join(f"{c}*x^{a}*y^{b}" for c, a, b in terms) or "0",
        st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 6), st.integers(0, 6)), max_size=4),
    ),
    st.builds(lambda v, n: f"{v}^{n}", st.sampled_from("xy"), st.integers(10**3, 10**6)),
)
# An integer option with a non-ASCII digit, "_" or a space in it, which
# int() might read as a number but the CLI must refuse as a usage error.
_NOT_AN_INT = st.builds(
    lambda head, odd, tail: head + odd + tail,
    st.text(alphabet="+-0123456789", max_size=3),
    st.sampled_from(["\u0663", "\uff14", "\u0661", "_", " ", "\u00a0", "\u3000"]),
    st.text(alphabet="0123456789_\u0663\uff14", max_size=3),
)


@st.composite
def _argv(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "text", "json", "yaml"]))]
    command = draw(st.sampled_from(
        ["harmonic", "kernel", "span", "almansi", "split", "determinacy", "reduce", "biharm", "selftest"]
    ))
    argv.append(command)
    if command in ("almansi", "split", "determinacy", "reduce", "biharm"):
        argv.append(draw(_POLY_TEXT))
    for option in ("k", "s"):
        # now and then a required option is missing
        if option in RANGES.get(command, {}) and draw(st.sampled_from([True] * 9 + [False])):
            argv += [f"--{option}", draw(st.one_of(_OPTION_INT.map(str), _NOT_AN_INT))]
    if command == "reduce" and draw(st.booleans()):
        argv += ["--tolerance", repr(draw(st.floats()))]
    if command == "selftest":
        if draw(st.booleans()):
            argv += ["--seed", draw(st.one_of(st.integers().map(str), _NOT_AN_INT))]
        if draw(st.booleans()):
            # no upper limit here, and a large cap runs the whole grid
            argv += ["--max-degree", draw(st.one_of(st.integers(-(10**40), 2).map(str), _NOT_AN_INT))]
    return argv


def _int_options(argv):
    return [value for flag, value in zip(argv, argv[1:]) if flag in ("--k", "--s", "--seed", "--max-degree")]


class TestArbitraryArgv:
    @given(_argv())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        if any(not re.fullmatch(r"[+-]?[0-9]+", value) for value in _int_options(argv)):
            assert code == 2, argv
        assert "Traceback" not in err.getvalue(), argv
        # main() turns a fault inside a command into "internal error:", so
        # the fuzz would not see it through the exit code alone
        assert "internal error:" not in err.getvalue(), argv
