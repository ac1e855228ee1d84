"""CLI surface: output formats, exit codes, determinism."""

import argparse
import contextlib
import functools
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirval import (
    approx,
    cli,
    cohen_check,
    cohen_sum,
    digit_sum,
    levels,
    nu_rat,
    padic,
    reports,
    sequences,
    stirling,
)


# what `from stirval import *` bound when the package imported every module
STAR_NAMES = """
CONSISTENT COUNTEREXAMPLE ChainLink ClassStatus ConjectureReport INCONCLUSIVE INFINITE LevelTree
ModStirlingEngine Ratio ResidueClass Valuation a_lm a_lm_val_check approx approx_report
aux_indicators b_lm build_level_tree c_set_sequence clarke_battery clarke_conjecture_check
clarke_val_check classify_class cohen_at_powers cohen_check cohen_partial_sums cohen_sum
de_wannemacker_gap de_wannemacker_gaps digit_sum err1 err2 exceptional_indices f1 f2 f3
get_engine i1_elements identity_battery in_I1 in_I2 is_prime k5_structure_report
k5_surviving_chain ksf_terms kummer_binomial_val lambda_p legendre_factorial_val levels m0_of
nu_int nu_rat padic pochhammer power_lemma_report prove_constant reports sequences
special_values_check stirling stirling_closed_small stirling_exact t2_zeros t_sum t_terms
triangle_rows triangle_width val2_closed_small val2_rows val2_stirling verify_main_conjecture
x1 x2
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    capsys.readouterr()
    return exc.value.code


class TestVal:
    def test_stirling_single(self, capsys):
        code, out = run(capsys, "val", "--series", "stirling", "--k", "5", "--n", "28")
        assert code == 0
        assert out == "n,value\n28,6\n"

    def test_stirling_below_order_is_blank(self, capsys):
        _, out = run(capsys, "val", "--series", "stirling", "--k", "5", "--n", "3")
        assert out == "n,value\n3,\n"

    def test_stirling_range(self, capsys):
        code, out = run(
            capsys,
            "val", "--series", "stirling", "--k", "5", "--n-min", "5", "--n-max", "12",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 9
        assert lines[4] == "8,1"
        assert lines[8] == "12,3"

    def test_factorial(self, capsys):
        _, out = run(capsys, "val", "--series", "factorial", "--n", "10")
        assert out == "n,value\n10,8\n"

    def test_int_with_prime(self, capsys):
        _, out = run(capsys, "val", "--series", "int", "--p", "3", "--n", "45")
        assert out == "n,value\n45,2\n"

    def test_cohen_exact(self, capsys):
        # exact rational valuation of the weight-1 partial sum at n = 16
        _, out = run(capsys, "val", "--series", "cohen", "--k", "1", "--n", "16")
        assert out == "n,value\n16,22\n"

    def test_int_at_zero_is_blank(self, capsys):
        _, out = run(capsys, "val", "--series", "int", "--p", "2", "--n-min", "0", "--n-max", "3")
        assert out == "n,value\n0,\n1,0\n2,1\n3,0\n"

    def test_no_trailing_whitespace(self, capsys):
        _, out = run(
            capsys, "val", "--series", "int", "--n-min", "1", "--n-max", "32"
        )
        for line in out.splitlines():
            assert line == line.strip()
        assert out.endswith("\n") and not out.endswith("\n\n")


class TestCsv:
    @pytest.mark.parametrize(
        "row",
        [(5, padic.INFINITE), (1, padic.INFINITE, 7), (3, 2, -1),
         (70852429451248237777821285421212, 3)],
        ids=["infinite-last", "infinite-middle", "negative", "big"],
    )
    def test_row_equals_the_per_field_join(self, row):
        header = [f"c{i}" for i in range(len(row))]
        fields = ["" if v is padic.INFINITE else str(v) for v in row]
        assert list(cli._csv(header, iter([row]))) == [
            ",".join(header) + "\n", ",".join(fields) + "\n"
        ]

    def test_no_rows_gives_the_header_alone(self):
        assert list(cli._csv(["n", "value"], iter(()))) == ["n,value\n"]


class TestVerify:
    def test_infinite_payload_is_inf_in_json(self):
        report = reports.ConjectureReport("inf", params={"bound": padic.INFINITE})
        report.record(False, {"computed": padic.INFINITE, "pair": (1, padic.INFINITE)})
        data = json.loads(report.to_json())
        assert data["params"] == {"bound": "inf"}
        assert data["counterexamples"] == [{"computed": "inf", "pair": [1, "inf"]}]

    def test_exceptional(self, capsys):
        code, out = run(capsys, "verify", "exceptional", "--i-max", "110")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "CONSISTENT"
        assert data["details"]["indices"] == [7, 39, 71, 103]
        assert data["details"]["pattern"] is True

    def test_main_conjecture_k11(self, capsys):
        code, out = run(
            capsys,
            "verify", "main-conjecture", "--k", "11", "--levels", "6", "--samples", "48",
        )
        assert code == 0
        assert json.loads(out)["status"] == "CONSISTENT"

    def test_main_conjecture_k16_counterexample(self, capsys):
        code, out = run(
            capsys,
            "verify", "main-conjecture", "--k", "16", "--levels", "5", "--samples", "64",
        )
        assert code == 1
        assert json.loads(out)["status"] == "COUNTEREXAMPLE"

    def test_main_conjecture_degenerate(self, capsys):
        code, out = run(capsys, "verify", "main-conjecture", "--k", "4")
        assert code == 2
        assert json.loads(out)["status"] == "INCONCLUSIVE"

    def test_lemmas(self, capsys):
        code, out = run(capsys, "verify", "lemmas", "--m-max", "6")
        assert code == 0
        assert json.loads(out)["checked"] == 18

    def test_alm(self, capsys):
        code, _ = run(capsys, "verify", "alm", "--l-max", "10", "--m-max", "10")
        assert code == 0

    def test_cohen_flags_weight_one(self, capsys):
        code, out = run(capsys, "verify", "cohen", "--m-min", "4", "--m-max", "6")
        assert code == 1
        data = json.loads(out)
        assert all(p["k"] == 1 for p in data["counterexamples"])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(
            capsys, "verify", "exceptional", "--i-max", "40", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["details"]["indices"] == [7, 39]

    @pytest.mark.parametrize(
        "argv",
        [
            ("k5-theorem", "--levels", "4", "--i-max", "20"),
            ("approx", "--m-max", "300"),
            ("clarke", "--scan-n-max", "20", "--n-max", "100"),
            ("identities", "--n-max", "40", "--q-max", "4", "--k-max", "8"),
        ],
    )
    def test_remaining_targets_consistent(self, capsys, argv):
        code, out = run(capsys, "verify", *argv)
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "CONSISTENT"
        assert data["checked"] > 0 or data["details"]


def _target_parsers(parser) -> list[str]:
    """The verify targets that have a sub-parser in parser."""

    def sub_parsers(p):
        return next(a for a in p._actions if isinstance(a, argparse._SubParsersAction)).choices

    return list(sub_parsers(sub_parsers(parser)["verify"]))


class _Called(Exception):
    """Raised by a spy in place of the library run."""


def _spy(monkeypatch, module, name):
    """Replace module.name by a spy; return the list of argument dicts it saw."""
    original = getattr(module, name)
    calls = []

    @functools.wraps(original)  # keeps the signature, which the CLI reads
    def spy(*args, **kwargs):
        calls.append(dict(inspect.signature(original).bind(*args, **kwargs).arguments))
        raise _Called

    monkeypatch.setattr(module, name, spy)
    return calls


class TestTargetDefaults:
    # the arguments each target passes to its library function when only
    # its required options are given: these are the documented defaults
    @pytest.mark.parametrize(
        "argv, module, name, expected",
        [
            (("main-conjecture", "--k", "11"), levels, "verify_main_conjecture",
             {"k": 11, "m_max": 10, "samples": 64}),
            (("k5-theorem",), levels, "k5_structure_report",
             {"m_max": 10, "i_max": 200}),
            (("exceptional",), levels, "exceptional_indices", {"i_max": 200}),
            (("approx",), approx, "approx_report", {"m_max": 2000}),
            (("clarke",), sequences, "clarke_battery",
             {"scan_n_max": 500, "k_max": 5, "n_max": 2000}),
            (("identities",), stirling, "identity_battery",
             {"n_max": 300, "q_max": 10, "k_max": 64}),
            (("lemmas",), padic, "power_lemma_report", {"m_max": 20}),
            (("alm",), sequences, "a_lm_val_check", {"l_max": 40, "m_max": 40}),
            (("cohen",), sequences, "cohen_check", {"m_min": 4, "m_max": 12}),
        ],
        ids=["main-conjecture", "k5-theorem", "exceptional", "approx", "clarke",
             "identities", "lemmas", "alm", "cohen"],
    )
    def test_defaults_reach_the_library(self, monkeypatch, argv, module, name, expected):
        # cli names each target's module and imports it when the target runs
        module_name, attr, _ = cli._TARGETS[argv[0]]
        assert (cli._module(module_name), attr) == (module, name)
        calls = _spy(monkeypatch, module, name)
        with pytest.raises(_Called):
            cli.main(["verify", *argv])
        assert calls == [expected]

    @pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
    @pytest.mark.parametrize("target", list(cli._TARGETS))
    def test_options_match_the_signature(self, monkeypatch, target, wrapped):
        # _target reads what inspect.signature reads, through a functools.wraps wrapper too
        module_name, name, renames = cli._TARGETS[target]
        module = cli._module(module_name)
        original = getattr(module, name)
        expected = {
            p.name: (
                renames.get(p.name, "--" + p.name.replace("_", "-")),
                cli._REQUIRED if p.default is p.empty else p.default,
            )
            for p in inspect.signature(original).parameters.values()
        }
        if wrapped:
            monkeypatch.setattr(
                module, name, functools.wraps(original)(lambda *args, **kwargs: None)
            )
        assert cli._target(target) == (getattr(module, name), expected)


class TestFigure:
    def test_wannemacker_diff_shape(self, capsys):
        code, out = run(
            capsys, "figure", "wannemacker-diff", "--k", "101", "--n-max", "500"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,gap"
        assert len(lines) == 401
        ns = []
        for line in lines[1:]:
            n, gap = line.split(",")
            ns.append(int(n))
            assert int(gap) >= 0
        assert ns == sorted(ns)

    def test_err_factorial(self, capsys):
        _, out = run(capsys, "figure", "err-factorial", "--n-max", "64")
        lines = out.splitlines()
        assert lines[0] == "m,s2"
        for line in lines[1:]:
            m, s2 = line.split(",")
            assert int(s2) == digit_sum(2, int(m))

    def test_stirling_k(self, capsys):
        _, out = run(capsys, "figure", "stirling-k", "--k", "7", "--n-max", "40")
        lines = out.splitlines()
        assert len(lines) == 40 - 7 + 2
        assert "32,2" in lines  # power-of-two index: s_2(7) - 1

    def test_cohen_figure(self, capsys):
        _, out = run(capsys, "figure", "cohen", "--n-max", "16")
        lines = out.splitlines()
        assert lines[0] == "n,value,err"
        assert lines[-1] == "16,22,6"

    @pytest.mark.parametrize("k", [1, 2])
    def test_cohen_surfaces_agree(self, capsys, k):
        _, val_out = run(
            capsys, "val", "--series", "cohen", "--k", str(k), "--n-min", "1", "--n-max", "64"
        )
        _, fig_out = run(capsys, "figure", "cohen", "--k", str(k), "--n-max", "64")
        val_rows = [line.split(",") for line in val_out.splitlines()[1:]]
        fig_rows = [line.split(",")[:2] for line in fig_out.splitlines()[1:]]
        assert val_rows == fig_rows
        values = {int(n): int(v) for n, v in val_rows}
        assert values == {n: nu_rat(2, cohen_sum(k, n)) for n in range(1, 65)}
        entries = cohen_check(1, 6).details["entries"]
        assert {e["m"]: e["computed"] for e in entries if e["k"] == k} == {
            m: values[1 << m] for m in range(1, 7)
        }

    def test_determinism(self, capsys):
        args = ("figure", "stirling-k", "--k", "11", "--n-max", "120")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


@functools.lru_cache(maxsize=None)
def _full_parser():
    return cli.build_parser()


def _parsed(argv):
    """vars() of the full parser's namespace for argv, or None on help or a usage error."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_full_parser().parse_args(argv))
    except SystemExit:
        return None


def _table(command, name):
    """The option table a plain call of command and name reads, or {}."""
    if command == "verify":
        return cli._target_options(name) if name in cli._TARGETS else {}
    return cli._OPTIONS.get(command, {})


_FLAGS = sorted(
    {f for table in cli._OPTIONS.values() for f in table}
    | {f for name in cli._TARGETS for f in _table("verify", name)}
)
# words that break the plain shape where they stand, and words it reads elsewhere
_WORDS = st.one_of(
    st.sampled_from([
        "-h", "--help", "--k=5", "--n-m", "--ser", "--", "-k", "", "-1", "x", "bogus",
        "\u0663", "+5", " 5", "1_0", "007", "val", "verify", "figure",
        *_FLAGS, *cli._TARGETS, *cli._FIGURES, *cli._SERIES,
    ]),
    st.text(max_size=3),
)


@st.composite
def _argvs(draw):
    """A plain call, some flags cut short and some required options left out, then
    up to two words replaced or inserted."""
    command = draw(st.sampled_from(["val", "verify", "figure"]))
    names = {"verify": list(cli._TARGETS), "figure": list(cli._FIGURES)}.get(command)
    name = draw(st.sampled_from(names)) if names else None
    table = _table(command, name)
    # (flag, letters cut off its end): a cut flag is an abbreviation, often an ambiguous one
    flags = [(f, 0) for f, option in table.items() if option[2] and draw(st.booleans())]
    cuts = st.sampled_from([0, 0, 0, 1, 2, 3])
    flags += draw(st.lists(st.tuples(st.sampled_from(list(table)), cuts), max_size=3))
    argv = [command] if name is None else [command, name]
    for flag, cut in draw(st.permutations(flags)):
        _, kind, _, _, choices, _ = table[flag]
        value = (st.integers(0, 300).map(str) if kind is int
                 else st.sampled_from([*choices, "bogus"]) if choices else st.just("out.csv"))
        argv += [flag[:max(len(flag) - cut, 3)], draw(value)]
    edits = st.tuples(st.integers(0, len(argv)), _WORDS, st.booleans())
    for index, word, replace in draw(st.lists(edits, max_size=2)):
        argv[index:index + replace] = [word]
    return argv


class TestPlainArgs:
    # _plain_args reads a plain call without building a parser; anything
    # else is None, and argparse reads it as before

    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    def test_is_none_or_what_argparse_returns(self, argv):
        plain = cli._plain_args(list(argv))
        assert plain is None or vars(plain) == _parsed(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["val", "--series", "int", "--n-min", "1", "--n-max", "4"],
            ["val", "--series", "stirling", "--k", "5", "--n", "9", "--out", "x.csv"],
            ["figure", "val-n", "--n-max", "4"],
            ["figure", "stirling-k", "--n-max", "40", "--k", "007"],
            ["verify", "main-conjecture", "--k", "11", "--levels", "6"],
            ["verify", "lemmas"],
        ],
    )
    def test_plain_calls_equal_argparse(self, argv):
        plain = cli._plain_args(list(argv))
        assert plain is not None and vars(plain) == _parsed(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["val", "--ser", "int", "--n", "4"],
            ["val", "--series", "int", "--n-m", "1", "--n-max", "4"],
            ["val", "--series", "stirling", "--k=5", "--n", "9"],
            ["val", "--series", "int", "--n", "3", "--n", "4"],
            ["verify", "lemmas", "--m-max", "3", "--m-max", "4"],
            ["val", "--series", "int", "--n", "-3"],
            ["val", "--series", "int", "--n", "4", "--out", "-"],
            ["val", "--series", "int", "--n", "4", "--out", ""],
            ["val", "--series", "int", "--n", "\u0663"],
            ["val", "--series", "int", "--n", "+3"],
            ["val", "--series", "int", "--n", " 3"],
            ["val", "--series", "int", "--n", "1_0"],
            ["val", "--series", "bogus", "--n", "4"],
            ["figure", "bogus", "--n-max", "4"],
            ["verify", "bogus"],
            ["val", "--n", "4"],
            ["figure", "val-n"],
            ["verify", "main-conjecture", "--levels", "6"],
            ["figure", "--n-max", "4", "val-n"],
            ["verify", "lemmas", "--k", "5"],
            ["val", "--series", "int", "--n"],
            ["-h"],
            ["val", "-h"],
            ["val", "--series", "int", "-h", "--n", "4"],
            ["verify", "identities", "--help"],
            ["figure", "val-n", "--n-max", "4", "-h"],
        ],
        ids=["empty", "abbreviated", "ambiguous", "equals", "repeated", "repeated-verify",
             "negative", "dash-value", "empty-value", "non-ascii-digit", "plus", "space",
             "underscore", "bad-series", "bad-figure", "bad-target", "no-series",
             "no-n-max", "no-k", "name-last", "unread-option", "no-value", "help", "val-help",
             "help-in-pairs", "target-help", "help-last"],
    )
    def test_other_shapes_go_to_argparse(self, argv):
        assert cli._plain_args(list(argv)) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "lemmas", "--m-max", "8"),
            ("val", "--series", "int", "--n-min", "1", "--n-max", "4"),
            ("figure", "val-n", "--n-max", "4"),
        ],
        ids=["verify", "val", "figure"],
    )
    def test_console_script_calls_build_no_parser(self, capsys, monkeypatch, argv):
        # the plain calls the CI job makes through the installed script
        def no_parser(*args):
            raise AssertionError("build_parser called")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out


class TestStreaming:
    @pytest.mark.parametrize(
        "argv",
        [
            ("val", "--series", "stirling", "--k", "5", "--n-min", "1", "--n-max", "40"),
            ("figure", "stirling-k", "--k", "5", "--n-max", "40"),
        ],
        ids=["val", "figure"],
    )
    def test_rows_reach_stdout_as_they_are_computed(self, monkeypatch, argv):
        # each time the scan yields a row, stdout already holds the header and
        # every earlier row: the output is not gathered before it is written
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        written = []
        scan = stirling.ModStirlingEngine.val2_range

        def recording(self, start, stop):
            for row in scan(self, start, stop):
                written.append(len(stdout.getvalue()))
                yield row

        monkeypatch.setattr(stirling.ModStirlingEngine, "val2_range", recording)
        assert cli.main(list(argv)) == 0
        lines = stdout.getvalue().splitlines(keepends=True)
        assert lines[0] == "n,value\n" and len(lines) == len(written) + 1
        assert written == list(itertools.accumulate(map(len, lines[:-1])))

    def test_closed_pipe_exits_141_without_a_traceback(self):
        # a reader that stops early (| head) must not read as a counterexample (exit 1)
        src = str(Path(cli.__file__).resolve().parent.parent)
        argv = ["val", "--series", "stirling", "--k", "100", "--n-min", "100", "--n-max", "25099"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "stirval.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline() == b"n,value\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (cli.EX_PIPE, b"")


class TestUsageAndEnvironment:
    def test_missing_k_for_stirling(self, capsys):
        assert run_usage_error(capsys, "val", "--series", "stirling", "--n", "9") == 64

    def test_missing_range(self, capsys):
        assert run_usage_error(capsys, "val", "--series", "int") == 64

    def test_reversed_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["val", "--series", "int", "--n-min", "5", "--n-max", "3"])
        assert exc.value.code == 64
        assert capsys.readouterr().err.rstrip().endswith("--n-min must not exceed --n-max")

    def test_conflicting_range(self, capsys):
        code = run_usage_error(
            capsys, "val", "--series", "int", "--n", "4", "--n-min", "1", "--n-max", "9"
        )
        assert code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("val", "--series", "cohen", "--k", "0", "--n", "3"),
            ("val", "--series", "cohen", "--k", "-1", "--n", "3"),
            ("figure", "cohen", "--k", "0", "--n-max", "3"),
            ("figure", "cohen", "--k", "-1", "--n-max", "3"),
        ],
    )
    def test_cohen_weight_below_one(self, capsys, argv):
        assert run_usage_error(capsys, *argv) == 64

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("val", "--series", "stirling", "--k", "0", "--n", "5"), "--k must be >= 1"),
            (("figure", "wannemacker-diff", "--k", "0", "--n-max", "3"), "--k must be >= 1"),
            (("val", "--series", "cohen", "--k", "0", "--n", "5"), "--k must be >= 1"),
            (("figure", "cohen", "--k", "0", "--n-max", "3"), "--k must be >= 1"),
            (("val", "--series", "stirling", "--k", "5", "--n-min", "0", "--n-max", "3"),
             "stirling series needs n >= 1"),
            (("val", "--series", "factorial", "--n", "-1"), "factorial series needs n >= 0"),
            (("val", "--series", "factorial", "--p", "3", "--n-min", "-3", "--n-max", "1"),
             "factorial series needs n >= 0"),
        ],
        ids=["val-stirling-k", "figure-wannemacker-k", "val-cohen-k", "figure-cohen-k",
             "val-stirling-n", "val-factorial-n", "val-factorial-n-min"],
    )
    def test_k_and_n_messages_name_the_option(self, capsys, argv, message):
        # the message names what the user typed, not an engine or library parameter
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.err.rstrip().endswith(f"error: {message}")
        assert captured.out == ""  # every option is checked before the CSV header

    @pytest.mark.parametrize("series", ["factorial", "int"])
    @pytest.mark.parametrize("p", ["4", "1", "0"])
    def test_p_message_names_the_option(self, capsys, series, p):
        with pytest.raises(SystemExit) as exc:
            cli.main(["val", "--series", series, "--p", p, "--n", "5"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.err.rstrip().endswith(f"error: --p must be prime, got {p}")
        assert captured.out == ""

    def test_unknown_target(self, capsys):
        assert run_usage_error(capsys, "verify", "nonsense") == 64

    def test_figure_requires_n_max(self, capsys):
        assert run_usage_error(capsys, "figure", "val-n") == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("val-n", "--n-max", "0"),
            ("cohen", "--n-max", "-3"),
            ("stirling-k", "--k", "126", "--n-max", "100"),
        ],
    )
    def test_empty_figure_maps_to_usage(self, capsys, argv):
        # a header with no rows must not read as figure data
        assert run_usage_error(capsys, "figure", *argv) == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("exceptional", "--i-max", "1"),
            ("identities", "--n-max", "0"),
            ("identities", "--k-max", "0"),
            ("k5-theorem", "--i-max", "0"),
            ("k5-theorem", "--i-max", "-1"),
            ("cohen", "--m-min", "1", "--m-max", "3"),
            ("main-conjecture", "--k", "3", "--levels", "1"),
            ("main-conjecture", "--k", "3", "--samples", "1"),
            ("main-conjecture", "--k", "64", "--levels", "5"),
            ("k5-theorem", "--levels", "2"),
            ("k5-theorem", "--levels", "1"),
            ("clarke", "--n-max", "4"),
            ("clarke", "--scan-n-max", "3"),
            ("approx", "--m-max", "10"),
            ("alm", "--l-max", "-1"),
            ("identities", "--q-max", "2"),
        ],
    )
    def test_bad_domain_maps_to_usage(self, capsys, argv):
        # an empty scan range must not read as a verdict
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        # the last option given is the bad one; the message names it,
        # not the library parameter it feeds
        assert f"error: {argv[-2]} must be >= " in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("clarke", "--scan-n-max", "3"), "--scan-n-max must be >= --k-max (5)"),
            (("cohen", "--m-min", "5", "--m-max", "4"), "--m-min must be <= --m-max"),
        ],
        ids=["clarke", "cohen"],
    )
    def test_usage_message_names_every_option(self, capsys, argv, message):
        # each parameter in the library's message reads as the option, not only the first
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv])
        assert exc.value.code == 64
        assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (("cohen", "--samples", "5"), sequences, "cohen_check"),
            (("lemmas", "--k", "5"), padic, "power_lemma_report"),
            (("main-conjecture", "--k", "11", "--precision", "3"), levels,
             "verify_main_conjecture"),
            # the zeros are lifted as far as --n-max needs, so precision is no option
            (("clarke", "--precision", "24"), sequences, "clarke_battery"),
            # every k = 5 class is decided within the default witness budget
            (("k5-theorem", "--samples", "1"), levels, "k5_structure_report"),
        ],
        ids=["cohen", "lemmas", "main-conjecture", "clarke", "k5-theorem"],
    )
    def test_unread_option_is_usage(self, capsys, monkeypatch, argv, module, name):
        # an option the target does not read would be silently ignored
        calls = _spy(monkeypatch, module, name)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv])
        assert exc.value.code == 64
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [("val", "--series", "int", "--n", "4"), ("verify", "lemmas", "--m-max", "3")],
        ids=["csv", "json"],
    )
    def test_out_path(self, capsys, tmp_path, argv):
        _, out = run(capsys, *argv)
        path = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(path)) == (0, "")
        assert path.read_bytes() == out.encode("utf-8")  # LF-only, as on stdout
        # an unwritable path is a usage error: exit 1 would read as a counterexample
        missing = tmp_path / "missing" / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(missing)])
        assert exc.value.code == 64
        assert f"cannot write --out {missing}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 64
        assert f"cannot write --out {tmp_path}: it is a directory" in capsys.readouterr().err

    def test_out_path_checked_before_the_run(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(stirling, "identity_battery", lambda *a: calls.append(a))
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            argv = ("verify", "identities", "--n-max", "260", "--out", str(out))
            assert run_usage_error(capsys, *argv) == 64
        assert calls == []
        # a run that fails leaves an existing --out file as it was
        kept = tmp_path / "kept.json"
        kept.write_text("old")
        argv = ("verify", "exceptional", "--i-max", "1", "--out", str(kept))
        assert run_usage_error(capsys, *argv) == 64
        assert kept.read_text() == "old"

    def test_start_up_imports_neither_dataclasses_nor_inspect(self):
        # both cost every cold call milliseconds; -S keeps out what site imports
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import stirval.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_pathlib_is_imported_only_for_out(self):
        # without site, pathlib costs a cold call milliseconds; only _check_out reads it
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from stirval import cli; "
            "cli._check_out(None); print('pathlib' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_a_call_imports_only_the_modules_it_runs(self):
        # the package and cli import a target's or a series' module when it runs
        src = str(Path(cli.__file__).resolve().parent.parent)
        unused = ["stirval.levels", "stirval.sequences", "stirval.approx"]
        for argv in (
            ["verify", "identities", "--n-max", "40", "--q-max", "4", "--k-max", "8"],
            ["val", "--series", "stirling", "--k", "5", "--n-min", "1", "--n-max", "30"],
        ):
            code = (
                f"import sys; sys.path.insert(0, {src!r}); from stirval import cli; "
                f"code = cli.main({argv!r}); "
                f"print(code, [m for m in {unused!r} if m in sys.modules], file=sys.stderr)"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert proc.stderr == "0 []\n", argv

    def test_star_import_binds_every_exported_name(self):
        # the package imports no module at start-up, and still exports every name
        names = set(STAR_NAMES.split())
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from stirval import *; "
            "print(' '.join(sorted(n for n in dir() if not n.startswith('_'))))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert set(proc.stdout.split()) - {"sys"} == names, proc.stderr

    def test_verify_run_imports_no_json(self):
        # ConjectureReport.to_json writes the text itself; json costs a cold call milliseconds
        src = str(Path(cli.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from stirval import cli; "
            "code = cli.main(['verify', 'main-conjecture', '--k', '11', '--levels', '6']); "
            "print(code, 'json' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.stderr == "0 False\n"
        assert proc.stdout.startswith('{\n  "name": "level-splitting conjecture",')

    @pytest.mark.parametrize("target", list(cli._TARGETS))
    def test_target_help_matches_the_full_parser(self, capsys, target):
        # main builds only the named target's options; its help text is the full parser's
        texts = []
        for parser in (cli.build_parser(), cli.build_parser(["verify", target, "--help"])):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["verify", target, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "--out" in texts[0]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["val", "--series", "stirling", "--k", "5", "--n", "9"], []),
            (["figure", "val-n", "--n-max", "4"], []),
            (["--help"], []),
            (["verify", "identities", "--n-max", "40"], ["identities"]),
            (["verify", "main-conjecture", "--help"], ["main-conjecture"]),
            (["verify"], list(cli._TARGETS)),
            (["verify", "--help"], list(cli._TARGETS)),
            (["verify", "-h", "identities"], list(cli._TARGETS)),
            (["verify", "bogus"], list(cli._TARGETS)),
        ],
        ids=["val", "figure", "help", "identities", "target-help", "verify", "verify-help",
             "help-before-target", "unknown-target"],
    )
    def test_only_the_reachable_target_parsers_are_built(self, argv, expected):
        # a val call builds no target sub-parser; a named target only its own
        assert _target_parsers(cli.build_parser(argv)) == expected
        assert _target_parsers(cli.build_parser()) == list(cli._TARGETS)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["stirval", "verify", "lemmas", "--m-max", "6"])
        code = cli.main()
        assert (code, json.loads(capsys.readouterr().out)["checked"]) == (0, 18)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("val", "--series", "stirling", "--k", "101", "--n", "101"), 0),
            (("verify", "main-conjecture", "--k", "64", "--levels", "6", "--samples", "16"), 1),
        ],
        ids=["val", "main-conjecture"],
    )
    def test_precision_is_not_a_setting(self, argv, code):
        # at 64 bits every residue here is zero (nu_2(101!) = 97, nu_2(64!) = 63),
        # so a 64-bit cap from the environment would leave these runs undecided
        src = str(Path(__file__).resolve().parent.parent / "src")
        base = {k: v for k, v in os.environ.items() if k != "STIRVAL_M_MAX"}
        runs = []
        for extra in ({}, {"STIRVAL_M_MAX": "64"}):
            env = dict(base, PYTHONPATH=src, **extra)
            proc = subprocess.run(
                [sys.executable, "-m", "stirval.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            runs.append((proc.returncode, proc.stdout))
        assert runs[1] == runs[0]
        assert runs[1][0] == code, runs
        if argv[0] == "val":
            assert runs[1][1] == "n,value\n101,0\n"
