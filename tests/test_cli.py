"""Command line behaviors: transcripts, exit codes, formats, determinism."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from effhom import (
    DEFAULT_DEGREES,
    HomAlgError,
    Sampler,
    check_contracting,
    check_nilpotency,
    check_reduction_laws,
)
from effhom import cli
from effhom.cli import MAX_DEGREES, MAX_VERDICTS, build_parser, main
from effhom.instances import (
    CATALOG,
    resolve_complex,
    resolve_effective_homology,
    resolve_homotopy,
)
from effhom.laws import LawReport
from effhom.sampling import MAX_SAMPLES

from test_grammar import PARSE_MESSAGES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CHECK_HELP = """\
usage: effhom check [-h] [--degrees DEGREES] [--samples SAMPLES] [--seed SEED]
                    [--coeff-bound COEFF_BOUND] [--support SUPPORT]
                    [--max-gen MAX_GEN] [--format {text,json}]
                    instance law

positional arguments:
  instance
  law                   nilpotency | chain-morphism | reduction |
                        contracting:NAME

options:
  -h, --help            show this help message and exit
  --degrees DEGREES
  --samples SAMPLES
  --seed SEED
  --coeff-bound COEFF_BOUND
  --support SUPPORT
  --max-gen MAX_GEN
  --format {text,json}
"""


class TestEvalTranscripts:
    def test_cone_differential(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "cone-example", "diff", "2", "(5, 7*x4+8*x0, 3)",
            "--format", "text",
        )
        assert code == 0
        assert out == "(-10, -8*x0-7*x4, 5)\n"

    def test_top_homotopy(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "cone-example", "h:htop", "2", "(-10, -8*x0-7*x4, 5)",
            "--format", "text",
        )
        assert code == 0
        assert out == "(5, 8*x0+7*x4, 0)\n"

    def test_nested_spelling(self, capsys):
        # tuples only group leaves: ((a, b), c) is read as (a, b, c)
        flat = run_cli(capsys, "eval", "cone-example", "diff", "2", "(1, x2, 3)")
        assert run_cli(capsys, "eval", "cone-example", "diff", "2", "((1, x2), 3)") == flat
        assert flat == (0, "(-2, -x2, 1)\n", "")

    def test_null_eval(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "null", "diff", "0", "0")
        assert code == 0
        assert out == "0\n"

    def test_negative_index(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "cc1", "diff", "-2", "5")
        assert code == 0
        assert out == "10\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "cone-example", "diff", "2", "(5, 7*x4+8*x0, 3)",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"result": "(-10, -8*x0-7*x4, 5)"}


class TestHugeIntegers:
    # past the interpreter's default int <-> str limit of 4,300 digits

    def test_doubling_4300_nines(self, capsys):
        code, out, err = run_cli(capsys, "eval", "fcc1", "diff", "0", "9" * 4300)
        assert (code, err) == (0, "")
        # 2 * (10^4300 - 1), all 4,301 digits
        assert out == "1" + "9" * 4299 + "8\n"

    def test_5000_digit_coefficient_round_trips(self, capsys):
        n = "7" * 5000
        assert run_cli(capsys, "eval", "cc2", "diff", "0", f"{n}*x0") == (
            0, f"{n}*x0\n", ""
        )

    def test_limit_restored_after_main(self, capsys):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no int <-> str digit limit")
        before = sys.get_int_max_str_digits()
        run_cli(capsys, "eval", "cc1", "diff", "0", "9" * 5000)
        assert sys.get_int_max_str_digits() == before


class TestPreimage:
    def test_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "preimage", "cone-example", "2", "(-10, -8*x0-7*x4, 5)",
            "--h", "htop", "--format", "text",
        )
        assert code == 0
        assert out == "(5, 8*x0+7*x4, 0)\n"

    def test_zero_element(self, capsys):
        code, out, _ = run_cli(
            capsys, "preimage", "cone-example", "2", "(0, 0, 0)", "--h", "htop"
        )
        assert code == 0
        assert out == "(0, 0, 0)\n"

    def test_not_a_cycle_prints_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "preimage", "cone-example", "3", "(5, 7*x4+8*x0, 3)",
            "--h", "htop",
        )
        assert code == 1
        assert "(-10, -8*x0-7*x4, 5)" in out

    def test_not_a_cycle_at_lower_index(self, capsys):
        code, out, _ = run_cli(
            capsys, "preimage", "cone-example", "2", "(5, 7*x4+8*x0, 3)",
            "--h", "htop",
        )
        assert code == 1
        assert "(0, 0, 11)" in out

    def test_verification_failure(self, capsys):
        # h1 does not contract the bottom of cone-example, so the candidate
        # preimage fails the d(h(x)) == x check
        assert run_cli(
            capsys, "preimage", "cone-example.bottom", "1", "(0, 1)", "--h", "h1"
        ) == (
            1,
            "verification failed: homotopy is not contracting at this element:"
            " d(h(x)) != x\n",
            "",
        )


class TestCheck:
    def test_reduction_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "cone-example", "reduction",
            "--degrees", "-8..8", "--samples", "32", "--seed", "7",
        )
        assert code == 0
        assert "law=fg=id degrees=-8..8 samples=32 seed=7 violations=0" in out

    def test_h1_contracting_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "cone-example.bottom", "contracting:h1",
            "--degrees", "-4..4", "--samples", "8", "--seed", "7",
        )
        assert code == 1
        assert "verdict=fail" in out

    def test_htop_contracting_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "cone-example", "contracting:htop",
            "--degrees", "-4..4", "--samples", "8", "--seed", "7",
        )
        assert code == 0

    def test_nilpotency(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "sum12", "nilpotency",
            "--degrees", "-3..3", "--samples", "4", "--seed", "1",
        )
        assert code == 0

    def test_chain_morphism_on_reduction(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "zxznat", "chain-morphism",
            "--degrees", "-3..3", "--samples", "4", "--seed", "1",
        )
        assert code == 0
        assert "law=f:fd=df" in out and "law=g:fd=df" in out

    def test_chain_morphism_needs_reduction(self, capsys):
        code, _, err = run_cli(capsys, "check", "cc1", "chain-morphism")
        assert code == 2
        assert "effective-homology" in err

    def test_json_mirrors_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "idz2x0", "reduction",
            "--degrees", "0..1", "--samples", "2", "--seed", "5",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["violations"] == 0
        assert [s["law"] for s in data["laws"]] == [
            "fg=id", "dh+hd+gf=id", "fh=0", "hg=0", "hh=0",
        ]

    @pytest.mark.parametrize(
        "ident, law, expected_code",
        [
            ("cc2", "nilpotency", 0),
            ("zxznat", "chain-morphism", 0),
            ("cone-example", "reduction", 0),
            ("cone-example", "contracting:htop", 0),
            ("cone-example.bottom", "contracting:h1", 1),
        ],
    )
    def test_json_is_json_dumps_indent_2(self, capsys, ident, law, expected_code):
        code, out, _ = run_cli(capsys, "check", ident, law, "--format", "json")
        assert code == expected_code
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize(
        "ident, law",
        [
            ("cc2", "nilpotency"),
            ("cone-example", "reduction"),
            ("cone-example", "contracting:htop"),
        ],
    )
    def test_defaults_are_the_library_defaults(self, capsys, ident, law):
        # no option given: the report is the library's, with Sampler() on
        # DEFAULT_DEGREES
        if law == "nilpotency":
            report = check_nilpotency(resolve_complex(ident), DEFAULT_DEGREES, Sampler())
        elif law == "reduction":
            r = resolve_effective_homology(ident).reduction
            report = check_reduction_laws(r, DEFAULT_DEGREES, Sampler())
        else:
            _, h = resolve_homotopy("htop")
            report = check_contracting(h.over, h, DEFAULT_DEGREES, Sampler())
        assert run_cli(capsys, "check", ident, law) == (0, report.to_text() + "\n", "")

    def test_json_prints_the_report_json_text(self, capsys):
        cc = resolve_complex("cone-example.bottom")
        _, h1 = resolve_homotopy("h1")
        report = check_contracting(cc, h1, DEFAULT_DEGREES, Sampler())
        assert run_cli(
            capsys, "check", "cone-example.bottom", "contracting:h1", "--format", "json"
        ) == (1, report.to_json_text() + "\n", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_writing_a_report_takes_memory_per_degree(self, monkeypatch, fmt):
        # 5,000 samples a degree, all decided on the span: the report is
        # written a degree at a time, so ten degrees peak about as high as one
        class Sink(io.TextIOBase):
            chars = 0

            def write(self, text):
                self.chars += len(text)
                return len(text)

        def peak(degrees):
            monkeypatch.setattr(sys, "stdout", Sink())
            tracemalloc.start()
            try:
                code = main([
                    "check", "cc2", "nilpotency", "--samples", "5000",
                    "--max-gen", "10", "--degrees", degrees, "--format", fmt,
                ])
                return code, sys.stdout.chars, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("0..9")  # build the catalog's components outside the measure
        code_one, chars_one, one = peak("0..0")
        code_ten, chars_ten, ten = peak("0..9")
        assert code_one == code_ten == 0 and chars_ten > 9 * chars_one
        assert ten < 2 * one, (one, ten)

    def test_help_is_pinned(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(capsys, "check", "--help") == (0, CHECK_HELP, "")

    def test_determinism(self, capsys):
        args = (
            "check", "zxznat", "reduction",
            "--degrees", "-2..2", "--samples", "6", "--seed", "42",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestHomology:
    def test_fcc1_lines(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "fcc1", "-2..2")
        assert code == 0
        assert out == "H_-2 = Z/2\nH_-1 = 0\nH_0 = Z/2\nH_1 = 0\nH_2 = Z/2\n"

    def test_transfer(self, capsys):
        _, direct, _ = run_cli(capsys, "homology", "fcc1", "-2..2")
        _, transferred, _ = run_cli(capsys, "homology", "zxznat", "-2..2")
        assert direct == transferred

    def test_infinite_type_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "homology", "cc2", "0..0")
        assert code == 2
        assert "finite type" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "homology", "cone-example", "0..1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "groups": [
                {"degree": 0, "group": "0"},
                {"degree": 1, "group": "0"},
            ]
        }

    def test_catalog_transcripts_are_pinned(self, capsys):
        # every catalog instance with homology, over a short and a long
        # window in both formats; the digest was taken before the homology
        # computation went sparse, so any changed byte shows here
        digest = hashlib.sha256()
        for ident in (
            "null", "cc1", "fcc1", "idz2x0", "zxznat",
            "cone-example", "cone-example.bottom",
        ):
            for window in ("-8..8", "-200..200"):
                for fmt in ("text", "json"):
                    code, out, _ = run_cli(capsys, "homology", ident, window, "--format", fmt)
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "c1b2695db975230f7523adf2c4e463b7c1a5c671d0c351fba054cca6c966c981"
        )


HTOP_ELEMENTS = (
    "(0, 0, 0)", "(5, 7*x4+8*x0, 3)", "(1, x1, -2)", "(-3, 2*x2-x5, 0)",
    "(0, 9*x0+x1+4*x3, 7)", "(12, 0, -1)",
)


def test_htop_transcripts_are_pinned(capsys):
    # the transported homotopy htop through eval, preimage and check; the
    # digest was taken while htop was still written out by hand, so any
    # changed byte of its derivation through compose shows here
    digest = hashlib.sha256()

    def record(*argv):
        code, out, err = run_cli(capsys, *argv)
        digest.update(f"{argv} {code}\n{out}{err}".encode())
        return code, out

    for i in range(-3, 4):
        for y in HTOP_ELEMENTS:
            record("eval", "cone-example", "h:htop", str(i), y)
            _, x = record("eval", "cone-example", "diff", str(i), y)
            # x = d(y) is a cycle at degree i, y itself usually is not
            assert record(
                "preimage", "cone-example", str(i), x.strip(), "--h", "htop"
            )[0] == 0
            record("preimage", "cone-example", str(i), y, "--h", "htop")
    for law in ("reduction", "contracting:htop"):
        for fmt in ("text", "json"):
            assert record("check", "cone-example", law, "--format", fmt)[0] == 0
    assert digest.hexdigest() == (
        "f4f1dab0836990da60db5ff290c3fb9a47da1b0ba069cb2180b96ab2a87e4c4c"
    )


CHECK_LAWS = (
    "nilpotency", "chain-morphism", "reduction", "contracting:h1",
    "contracting:h2", "contracting:htop", "contracting:hcc2", "frobnicate",
)


def test_check_transcripts_are_pinned(capsys):
    # every law on every catalog instance and an unknown one, both formats,
    # errors included; exit code, stdout and stderr all enter the digest
    digest = hashlib.sha256()
    for ident in (*CATALOG, "nope"):
        for law in CHECK_LAWS:
            for fmt in ("text", "json"):
                argv = ("check", ident, law, "--degrees", "-3..3", "--samples", "4",
                        "--seed", "7", "--format", fmt)
                code, out, err = run_cli(capsys, *argv)
                digest.update(f"{argv} {code}\n{out}{err}".encode())
    assert digest.hexdigest() == (
        "ec865258e095291d4b57ad9ca172645da38d369a96545e7cfb3912de0755480c"
    )


class TestUsageErrors:
    def test_unknown_instance(self, capsys):
        code, _, err = run_cli(capsys, "eval", "nope", "diff", "0", "0")
        assert code == 2 and "unknown instance" in err

    def test_unknown_homotopy(self, capsys):
        code, _, err = run_cli(capsys, "eval", "cc2", "h:nope", "0", "0")
        assert code == 2 and "unknown homotopy" in err

    def test_homotopy_home_enforced(self, capsys):
        code, _, err = run_cli(capsys, "eval", "cc1", "h:hcc2", "0", "5")
        assert code == 2 and "lives over" in err

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "cc1", "diff", "0", "5+")
        assert code == 2

    def test_membership_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "cc1", "diff", "0", "(5, 7)")
        assert code == 2

    def test_bad_degree_range(self, capsys):
        code, _, err = run_cli(capsys, "check", "cc1", "nilpotency", "--degrees", "5..1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("check", "cc2", "nilpotency", "--degrees"), f"0..{MAX_DEGREES}"),
            (("check", "cc2", "nilpotency", "--degrees"), "0..100000000"),
            (("homology", "fcc1"), f"-5000..{MAX_DEGREES - 5000}"),
        ],
        ids=["check-one-past-max", "check-huge", "homology-one-past-max"],
    )
    def test_degree_range_wider_than_max_is_refused(self, capsys, monkeypatch, argv, text):
        # the refusal comes before any work: a run started here would fail
        def never(*args):
            raise AssertionError("the refused range started a run")

        monkeypatch.setattr(cli, "check_nilpotency", never)
        monkeypatch.setattr(cli, "homology_window", never)
        message = f"error: degree range {text!r} spans more than {MAX_DEGREES} degrees\n"
        assert run_cli(capsys, *argv, text) == (2, "", message)

    def test_degree_range_of_max_width_is_accepted(self, capsys, monkeypatch):
        windows = []

        def record(cc, degrees):
            windows.append(degrees)
            return []

        monkeypatch.setattr(cli, "homology_window", record)
        assert run_cli(capsys, "homology", "fcc1", f"1..{MAX_DEGREES}") == (0, "", "")
        assert windows == [range(1, MAX_DEGREES + 1)]

    def test_samples_times_degrees_past_max_is_refused(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the refused check started a run")

        monkeypatch.setattr(cli, "check_nilpotency", never)
        for samples, degrees, verdicts in (
            (100_000, "0..9999", 10**9),
            (1_000, "1..1001", MAX_VERDICTS + 1_000),
        ):
            message = (
                f"error: --samples {samples} over the {verdicts // samples} degrees of "
                f"--degrees asks for {verdicts} verdicts a law, more than {MAX_VERDICTS}\n"
            )
            argv = ("check", "cc2", "nilpotency", "--samples", str(samples))
            assert run_cli(capsys, *argv, "--degrees", degrees) == (2, "", message)

    def test_samples_times_degrees_at_max_is_accepted(self, capsys, monkeypatch):
        runs = []

        def record(cc, degrees, sampler):
            runs.append((degrees, sampler.samples))
            return LawReport(())

        monkeypatch.setattr(cli, "check_nilpotency", record)
        argv = ("check", "cc2", "nilpotency", "--samples", "1000", "--degrees", "1..1000")
        assert run_cli(capsys, *argv) == (0, "", "")
        assert runs == [(range(1, 1001), 1000)] and 1000 * 1000 == MAX_VERDICTS

    def test_degree_range_with_a_trailing_newline_is_refused(self, capsys):
        message = "error: expected a degree range like -8..8, got '0..1\\n'\n"
        assert run_cli(capsys, "homology", "fcc1", "0..1\n") == (2, "", message)

    def test_degree_range_in_non_ascii_digits_is_refused(self, capsys):
        message = "error: expected a degree range like -8..8, got '\u0661..\u0662'\n"
        assert run_cli(capsys, "homology", "fcc1", "\u0661..\u0662") == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "cc1", "diff", "{}", "5"),
            ("preimage", "cc2", "{}", "x0", "--h", "hcc2"),
            *(
                ("check", "cc2", "nilpotency", option, "{}")
                for option in cli._SAMPLER_OPTIONS.values()
            ),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2] if argv[0] == 'check' else ''}",
    )
    def test_integer_arguments_in_non_ascii_digits_are_refused(self, capsys, argv):
        # int() reads any Unicode digit: '\u0663' is 3 and '\u0663\u0665' is 35.
        # The refusal is argparse's own, in the words it uses for 'x'.
        def fill(text):
            return [a.format(text) for a in argv]

        code, out, err = run_cli(capsys, *fill("x"))
        assert (code, out) == (2, "") and err.endswith(" invalid int value: 'x'\n")
        for digits in ("\u0663", "\u0663\u0665", "1\uff10"):
            assert run_cli(capsys, *fill(digits)) == (2, "", err.replace("'x'", repr(digits)))

    @pytest.mark.parametrize("text, value", [("-3", -3), (" +1_0 ", 10), ("007", 7)])
    def test_integer_arguments_in_ascii_parse_as_int(self, text, value):
        args = build_parser().parse_args(["eval", "cc1", "diff", "--", text, "5"])
        assert args.index == value
        args = build_parser().parse_args(["check", "cc2", "nilpotency", f"--seed={text}"])
        assert args.seed == value

    def test_a_mathematical_failure_exits_1_on_stderr(self, capsys, monkeypatch):
        def fail(cc, degrees):
            raise HomAlgError("differentials do not compose to zero around degree 0")

        monkeypatch.setattr(cli, "homology_window", fail)
        assert run_cli(capsys, "homology", "fcc1", "0..1") == (
            1, "", "error: differentials do not compose to zero around degree 0\n",
        )

    def test_bad_law(self, capsys):
        code, _, err = run_cli(capsys, "check", "cc1", "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--samples", "0", "must be at least 1"),
            ("--coeff-bound", "0", "must be at least 1"),
            ("--support", "0", "must be at least 1"),
            ("--max-gen", "-1", "must be at least 0"),
            ("--max-gen", str(sys.maxsize), f"must be at most {sys.maxsize - 1}"),
            ("--samples", str(MAX_SAMPLES + 1), f"must be at most {MAX_SAMPLES}"),
        ],
        ids=[
            "--samples-0-1",
            "--coeff-bound-0-1",
            "--support-0-1",
            "--max-gen--1-0",
            "--max-gen-maxsize",
            "--samples-above-max",
        ],
    )
    def test_sampler_bounds(self, capsys, option, value, message):
        # --max-gen -1 would otherwise pass vacuously on all-zero samples, and
        # sys.maxsize would overflow the len() that rng.sample, which defines
        # the stream, takes; a --samples past MAX_SAMPLES builds every sample
        # before it prints, so it could run until it is killed
        code, out, err = run_cli(capsys, "check", "cc2", "nilpotency", option, value)
        assert code == 2
        assert f"{option} {message}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            *((("eval", "cc2", "diff", "0", bad), message) for bad, message in PARSE_MESSAGES),
            (
                ("eval", "cone-example", "bogus", "0", "x0"),
                "operator must be 'diff' or 'h:NAME', got 'bogus'",
            ),
            (("homology", "fcc1", "0-3"), "expected a degree range like -8..8, got '0-3'"),
            # a homotopy's name is all the text after the first colon
            *(
                (argv, "unknown homotopy 'hcc2:x'; try `effhom list`")
                for argv in (("check", "cc2", "contracting:hcc2:x"),
                             ("eval", "cc2", "h:hcc2:x", "0", "x1"))
            ),
        ],
    )
    def test_one_line_error_without_traceback(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_deep_nesting_is_a_usage_error(self, capsys):
        # the parser keeps its own stack, so depth never reaches the interpreter's
        text = "(" * 10_000 + "x0" + ")" * 10_000
        assert run_cli(capsys, "eval", "cc2", "diff", "0", text) == (
            2, "", "error: a tuple needs at least two components\n"
        )

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2


class TestList:
    def test_all_identifiers_present(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for ident in (
            "null", "cc1", "fcc1", "cc2", "sum12", "idz2x0", "zxznat",
            "cone-example", "cone-example.bottom", "hcc2", "h1", "h2", "htop",
        ):
            assert ident in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json")
        data = json.loads(out)
        assert {e["id"] for e in data["instances"]} >= {"cc1", "cone-example"}
        assert {h["id"] for h in data["homotopies"]} == {"hcc2", "h1", "h2", "htop"}
        assert out == json.dumps(data, indent=2) + "\n"


class TestSharedParser:
    """One parser serves every call of a process; no call leaks into the next."""

    CHECK = ("check", "cc2", "nilpotency", "--degrees", "-2..2")

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "between, code",
        [
            ((), None),
            (("check", "--help"), 0),
            (("check", "cc2"), 2),
            (("check", "cc2", "nilpotency", "--seed", "x"), 2),
        ],
    )
    def test_options_do_not_carry_over(self, capsys, between, code):
        build_parser.cache_clear()
        alone = run_cli(capsys, *self.CHECK)
        build_parser.cache_clear()
        seeded = run_cli(capsys, *self.CHECK, "--seed", "3", "--samples", "4")
        assert seeded[0] == 0 and seeded[1] != alone[1]
        if between:
            assert run_cli(capsys, *between)[0] == code
        assert run_cli(capsys, *self.CHECK) == alone


class TestArgvForms:
    def test_option_equals_value(self, capsys):
        spaced = run_cli(
            capsys, "check", "cc2", "nilpotency", "--degrees", "-1..0", "--samples", "2"
        )
        assert spaced[0] == 0
        assert run_cli(
            capsys, "check", "cc2", "nilpotency", "--degrees=-1..0", "--samples=2"
        ) == spaced

    def test_double_dash_fences_positionals(self, capsys):
        assert run_cli(capsys, "eval", "cc2", "diff", "0", "-x1+x2") == (0, "x2\n", "")
        assert run_cli(capsys, "eval", "cc2", "diff", "--", "0", "-x1+x2") == (
            0, "x2\n", ""
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "cc1", "nilpotency", "--seed"),
            ("check", "cc1", "nilpotency", "--degrees"),
            ("eval", "cc2", "diff", "0", "x1", "--format"),
            ("preimage", "cc2", "0", "x1", "--h"),
        ],
        ids=["--seed", "--degrees", "--format", "--h"],
    )
    def test_valued_option_as_the_last_token_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {argv[-1]}: expected one argument\n")
        assert "Traceback" not in err


#: Tokens of the seeded argv corpus: subcommands, valued and unknown options,
#: help, the fence, a merged option, a range, signed numbers and elements.
ARGV_PIECES = [
    "check", "eval", "--seed", "--degrees", "--format", "--h", "--samples", "--help",
    "-h", "--", "--seed=3", "-8..8", "x0", "-x3", "5", "-2", "--nosuch", "json",
]


def test_seeded_argv_corpus_normalizes_as_pinned():
    # every argv list and its normalized form, in order: a valued option at
    # the end, a fence anywhere and an option after the fence all appear
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(20_000):
        argv = rng.choices(ARGV_PIECES, k=rng.randint(0, 8))
        digest.update(f"{argv} {cli._normalize_argv(argv)}\n".encode())
    assert digest.hexdigest() == (
        "11a7e46ef806dd2089eb99edb38fd035a20e3818c2d1f70d4eb1a4cf75d25f67"
    )


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "effhom", "eval", "cone-example", "diff", "2",
         "(5, 7*x4+8*x0, 3)"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(-10, -8*x0-7*x4, 5)\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reader_closing_the_pipe_early_exits_1_quietly(fmt):
    # the report is over 100 kB, more than a pipe holds, so the writer is
    # still writing when the reader closes its end after 100 bytes
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "effhom", "check", "cone-example", "reduction",
         "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=env,
        cwd=ROOT,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == 100
    assert err == b""


def test_reader_leaving_after_one_line_exits_1_quietly():
    # the report is about 1.4 MB of lines; the reader takes the first and leaves
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "effhom", "check", "cc2", "nilpotency",
         "--samples", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert line == b"law=dd=0 degree=-8 sample=0 verdict=pass\n"
    assert err == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pipes_leave_no_descriptor_open(monkeypatch):
    def write_into_a_closed_pipe():
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["check", "cc2", "nilpotency", "--samples", "200"]) == 1

    write_into_a_closed_pipe()  # the first run loads what later runs reuse
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        write_into_a_closed_pipe()
    assert len(os.listdir("/proc/self/fd")) == before
