import argparse
import contextlib
import csv
import io
import json
import math
import shutil
import warnings
from itertools import cycle, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidecomp import bounds, codec, limits
from sidecomp.cli import _COMMANDS, build_parser, main
from sidecomp.measures import measures
from sidecomp.models import SideInfoString, load_model

from tests.conftest import MODELS_DIR, PERIODIC_CHAIN, REDUCIBLE_CHAIN, call_within

FIG1 = str(MODELS_DIR / "fig1.json")
MARKOV = str(MODELS_DIR / "markov2x2.json")
FIG1_TEXT = (MODELS_DIR / "fig1.json").read_text()
# model files with a number past Python's 4300-digit limit: a decimal
# exponent, and a JSON integer literal
HUGE_EXPONENT = FIG1_TEXT.replace('"0.1"', '"1e-1000000"', 1)
LONG_LITERAL = FIG1_TEXT.replace('"2/3"', "1" * 5000, 1)
# fixed-y eps* queries at a k whose 2^k has too many digits to build
HUGE_K = [["limits", "--model", model, "--n", "5", "--k", str(10**20), "--y", "01010",
           "--scope", scope] for model in (FIG1, MARKOV) for scope in ("ref", "prefix")]
# runs that fail after --out was checked: a usage error, a guard, a missing p_y
OUT_FAILURES = [
    ["limits", "--model", FIG1, "--n", "5", "--eps", "0.1", "--y", "01010", "--scope", "prefix"],
    ["limits", "--model", MARKOV, "--n", "40", "--eps", "0.1"],
    ["measures", "--model", str(MODELS_DIR / "refonly2x2.json")],
]


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def rows_of(out):
    table = list(csv.reader(out.splitlines()))
    return table[0], table[1:]


class TestValidate:
    def test_valid_model(self, capsys):
        code, out, _ = run(capsys, ["validate", "--model", FIG1])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"VALID {FIG1}"
        assert "valid: yes" in lines

    def test_invalid_model(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "cond_iid",
            "x_alphabet": ["a", "b"], "y_alphabet": ["0"],
            "p_x_given_y": [["0.6", "0.3"]],
        }))
        code, out, _ = run(capsys, ["validate", "--model", str(bad)])
        assert code == 2
        assert out.startswith(f"INVALID {bad}")
        assert "valid: no" in out.splitlines()

    @pytest.mark.parametrize("text", [HUGE_EXPONENT, LONG_LITERAL])
    def test_oversized_number_is_invalid(self, capsys, tmp_path, text):
        path, report = tmp_path / "model.json", tmp_path / "report.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["validate", "--model", str(path), "--out", str(report)])
        assert (code, out, err) == (2, "", "")
        assert report.read_text().startswith(f"INVALID {path}: ")
        code, out, err = run(capsys, ["limits", "--model", str(path), "--n", "2", "--k", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("model error: ") and err.count("\n") == 1

    def test_unreadable_model(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        code, out, _ = run(capsys, ["validate", "--model", str(broken)])
        assert code == 2
        assert out.startswith("INVALID")


class TestMeasures:
    def test_pair_table(self, capsys):
        code, out, _ = run(capsys, ["measures", "--model", FIG1])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["h_xy", "h_x", "sigma2", "ev", "var_hhat",
                          "m3", "mu3_pair", "psi2", "dispersion_gap"]
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(0.636313927211, abs=1e-9)

    def test_per_y_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["measures", "--model", FIG1, "--y", "repeat:001", "--n", "3", "500"],
        )
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["n", "h_n", "sigma_n2", "m3"]
        assert [r[0] for r in rows] == ["3", "500"]
        assert float(rows[1][1]) == pytest.approx(0.635644653877, abs=1e-9)

    def test_markov_table(self, capsys):
        code, out, _ = run(capsys, ["measures", "--model", MARKOV])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["h_rate", "sigma2_rate", "delta", "y_markov_defect"]
        assert float(rows[0][0]) == pytest.approx(0.738498307647, abs=1e-9)

    def test_no_p_y_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["measures", "--model", str(MODELS_DIR / "refonly2x2.json")]
        )
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("doc, message", [
        (PERIODIC_CHAIN, "pair context chain is periodic"),
        (REDUCIBLE_CHAIN, "context chain is not irreducible; validate the model"),
    ])
    def test_non_ergodic_markov_model_is_one_error_line(self, capsys, tmp_path,
                                                         doc, message):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["measures", "--model", str(path)])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]


class TestLimits:
    def test_overflow_mode_ref(self, capsys):
        code, out, _ = run(
            capsys,
            ["limits", "--model", FIG1, "--y", "00", "--n", "2", "--k", "1", "2"],
        )
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["scope", "n", "k", "eps_star"]
        assert rows[0] == ["ref", "2", "1", "0.19"]
        assert float(rows[1][3]) == pytest.approx(0.01, abs=1e-12)

    def test_overflow_mode_pair(self, capsys):
        code, out, _ = run(
            capsys, ["limits", "--model", FIG1, "--n", "1", "--k", "1"]
        )
        assert code == 0
        _, rows = rows_of(out)
        assert rows == [["pair", "1", "1", "0.2"]]

    def test_prefix_scope(self, capsys):
        code, out, _ = run(
            capsys,
            ["limits", "--model", FIG1, "--scope", "prefix",
             "--y", "00", "--n", "2", "--k", "2"],
        )
        assert code == 0
        _, rows = rows_of(out)
        assert rows == [["prefix", "2", "2", "0.19"]]

    def test_rate_mode_with_range(self, capsys):
        code, out, _ = run(
            capsys, ["limits", "--model", FIG1, "--n-range", "2:4", "--eps", "0.1"]
        )
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["scope", "n", "epsilon", "k_star", "rate",
                          "eps_at_k", "eps_at_k_plus_1"]
        assert [r[1] for r in rows] == ["2", "3", "4"]
        for r in rows:
            assert float(r[6]) <= 0.1 < float(r[5])

    def test_ref_ks_of_one_y_build_one_law(self, capsys, monkeypatch):
        # a window law of 80601 cells is held across the three k queries
        builds = []
        build = limits.length_law_typeclass

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(limits, "length_law_typeclass", counting)
        code, out, _ = run(capsys, ["limits", "--model", FIG1, "--n", "600", "--k", "200",
                                    "300", "400", "--y", "repeat:001", "--scope", "ref"])
        assert code == 0
        assert len(rows_of(out)[1]) == 3
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", HUGE_K)
    def test_huge_k_answers_zero(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert rows_of(out)[1] == [[argv[-1], "5", str(10**20), "0"]]

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["limits", "--model", FIG1, "--eps", "0.1"])
        assert code == 1
        assert "usage error" in err

    def test_unknown_y_label_is_usage_error(self, capsys):
        skewed = str(MODELS_DIR / "skewed34.json")
        code, out, err = run(
            capsys,
            ["limits", "--model", skewed, "--n", "5", "--eps", "0.2", "--y", "repeat:0123"],
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "usage error: --y: label '0' not in alphabet ('w', 'x', 'y', 'z')"
        ]

    def test_eps_out_of_range(self, capsys):
        code, _, err = run(
            capsys, ["limits", "--model", FIG1, "--n", "2", "--eps", "1.5"]
        )
        assert code == 1
        assert "outside [0, 1)" in err

    def test_bad_n_range(self, capsys):
        code, _, err = run(
            capsys, ["limits", "--model", FIG1, "--n-range", "5:2", "--eps", "0.1"]
        )
        assert code == 1
        assert "ascending" in err


class TestBounds:
    def test_ref_triple(self, capsys):
        code, out, _ = run(
            capsys,
            ["bounds", "--model", FIG1, "--y", "repeat:001",
             "--n", "6000", "--eps", "0.4"],
        )
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["kind", "n", "epsilon", "value", "threshold",
                          "valid", "constants"]
        assert [r[0] for r in rows] == ["ref_converse", "ref_achiev",
                                        "ref_achiev_prefix"]
        assert float(rows[0][3]) == pytest.approx(0.627868379727, abs=1e-9)
        assert float(rows[1][3]) == pytest.approx(0.698108791247, abs=1e-9)
        assert rows[0][5] == "false"  # below its converse threshold
        assert rows[1][5] == "true"
        assert "zeta_n=" in rows[1][6]

    def test_pair_triple(self, capsys):
        code, out, _ = run(
            capsys, ["bounds", "--model", FIG1, "--n", "500", "--eps", "0.1"]
        )
        assert code == 0
        _, rows = rows_of(out)
        assert [r[0] for r in rows] == ["pair_converse", "pair_achiev",
                                        "pair_achiev_prefix"]
        assert float(rows[0][3]) == pytest.approx(0.653739849203, abs=1e-9)
        assert float(rows[1][3]) == pytest.approx(0.719711946029, abs=1e-9)
        assert all(r[5] == "true" for r in rows)

    def test_markov_pair_of_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["bounds", "--model", MARKOV, "--n", "1000", "--eps", "0.1",
             "--A", "1.0"],
        )
        assert code == 0
        _, rows = rows_of(out)
        assert [r[0] for r in rows] == ["markov_achiev", "markov_converse"]
        assert float(rows[1][3]) < float(rows[0][3])

    def test_markov_needs_A(self, capsys):
        code, _, err = run(
            capsys, ["bounds", "--model", MARKOV, "--n", "1000", "--eps", "0.1"]
        )
        assert code == 1
        assert "--A" in err

    def test_degenerate_model_reports_error(self, capsys):
        code, _, err = run(
            capsys,
            ["bounds", "--model", str(MODELS_DIR / "uniform2.json"),
             "--n", "100", "--eps", "0.1"],
        )
        assert code == 1
        assert "error" in err


    @pytest.mark.parametrize("args", [
        ["--eps", "1e-100", "--A", "1"],  # phi(a)**4 underflows to 0
        ["--eps", "0.1", "--A", "1e200"],  # (A + 1)**2 overflows
    ])
    def test_extreme_markov_inputs_give_an_inf_threshold(self, capsys, args):
        code, out, err = run(capsys, ["bounds", "--model", MARKOV, "--n", "5", *args])
        assert (code, err) == (0, "")
        _, rows = rows_of(out)
        assert "inf" in [r[4] for r in rows]
        assert [r[5] for r in rows] == ["false", "false"]

    @pytest.mark.parametrize("A", ["nan", "inf", "-1.5"])
    def test_constant_must_be_finite_and_positive(self, capsys, A):
        code, out, err = run(
            capsys, ["bounds", "--model", MARKOV, "--n", "5", "--eps", "0.1", "--A", A])
        assert (code, out) == (1, "")
        assert err == f"error: the Berry-Esseen constant must be finite and positive, got {A}\n"


class TestFigure1:
    def test_columns_and_small_sweep(self, capsys):
        code, out, _ = run(capsys, ["figure1", "--n", "5", "10", "20"])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["n", "R_star_exact", "normal_approx"]
        assert [r[0] for r in rows] == ["5", "10", "20"]
        for r in rows:
            assert 0.0 < float(r[1]) <= 1.0

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, ["figure1", "--n", "7", "9"])
        _, out2, _ = run(capsys, ["figure1", "--n", "7", "9"])
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        dest = tmp_path / "fig.csv"
        code, out, _ = run(capsys, ["figure1", "--n", "6", "--out", str(dest)])
        assert code == 0
        assert out == ""
        _, stdout, _ = run(capsys, ["figure1", "--n", "6"])
        assert dest.read_text() == stdout


class TestMarkovProbe:
    def test_smoke_and_determinism(self, capsys):
        argv = ["markov", "--model", MARKOV, "--n", "16", "32",
                "--trials", "400", "--seed", "1"]
        code, out1, _ = run(capsys, argv)
        assert code == 0
        header, rows = rows_of(out1)
        assert header == ["n", "kolmogorov", "kolmogorov_sqrt_n"]
        assert [r[0] for r in rows] == ["16", "32"]
        for r in rows:
            assert 0.0 < float(r[1]) < 1.0
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_cond_iid_model_embeds(self, capsys):
        code, out, _ = run(
            capsys,
            ["markov", "--model", FIG1, "--n", "16", "--trials", "200"],
        )
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 1


class TestVerify:
    def test_full_corpus_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--corpus", str(MODELS_DIR)])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "checked 10 models: all passed"
        statuses = {line.split()[0] for line in lines[:-1]}
        assert statuses <= {"PASS", "INFO"}
        assert any(line.startswith("PASS fig1 oracle-equivalence-ref")
                   for line in lines)

    def test_broken_corpus_fails(self, capsys, tmp_path):
        (tmp_path / "broken.json").write_text("{")
        (tmp_path / "badpmf.json").write_text(json.dumps({
            "kind": "cond_iid",
            "x_alphabet": ["a", "b"], "y_alphabet": ["0"],
            "p_x_given_y": [["0.6", "0.3"]],
        }))
        code, out, _ = run(capsys, ["verify", "--corpus", str(tmp_path)])
        assert code == 3
        lines = out.splitlines()
        assert lines[-1] == "checked 2 models: 2 failures"
        assert any(line.startswith("FAIL badpmf validation") for line in lines)
        assert any(line.startswith("FAIL broken load") for line in lines)

    def test_missing_corpus_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["verify", "--corpus", str(tmp_path / "nowhere")]
        )
        assert code == 1
        assert "usage error" in err


class TestSolveFailure:
    @pytest.mark.parametrize("argv", [
        ["measures", "--model", MARKOV],
        ["bounds", "--model", MARKOV, "--n", "100", "--eps", "0.1", "--A", "1"],
        ["markov", "--model", MARKOV, "--n", "16", "--trials", "10"],
    ])
    def test_runtime_error_is_one_stderr_line(self, capsys, monkeypatch, argv):
        def failing(model):
            raise RuntimeError("variance rate came out negative")

        monkeypatch.setattr("sidecomp.markov.markov_rates", failing)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: variance rate came out negative\n"


class TestOutOfMemory:
    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 8.00 GiB for an array"),
         "error: out of memory: Unable to allocate 8.00 GiB for an array\n"),
    ])
    def test_memory_error_is_one_stderr_line(self, capsys, monkeypatch, exc, line):
        def exhausted(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr("sidecomp.limits.rate_star_pair", exhausted)
        code, out, err = run(capsys, ["limits", "--model", FIG1, "--n", "10", "--eps", "0.1"])
        assert (code, out, err) == (1, "", line)


def test_exact_markov_pair_without_initial_law(capsys, monkeypatch):
    # no option asks the CLI for an exact pair query, so the query is made
    # exact here; the model starts from its stationary law, not a rational one
    pair = limits.epsilon_star_pair
    monkeypatch.setattr(limits, "epsilon_star_pair",
                        lambda *args, **kwargs: pair(*args, exact=True, **kwargs))
    code, out, err = run(capsys, ["limits", "--model", MARKOV, "--n", "3", "--k", "1"])
    assert (code, out) == (1, "")
    assert err == "error: exact Markov enumeration needs an explicit rational initial law\n"


class TestParsing:
    def test_no_command(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert "usage error" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1

    def test_y_from_file(self, capsys, tmp_path):
        src = tmp_path / "y.txt"
        src.write_text("0011\n")
        code, out, _ = run(
            capsys,
            ["limits", "--model", FIG1, "--y", f"file:{src}",
             "--n", "2", "--k", "1"],
        )
        assert code == 0
        _, rows = rows_of(out)
        assert rows == [["ref", "2", "1", "0.19"]]

    @pytest.mark.parametrize("kind, reason", [
        ("directory", "Is a directory"),
        ("not utf-8", "'utf-8' codec can't decode"),
    ])
    def test_unreadable_y_file_is_one_usage_error(self, capsys, tmp_path, kind, reason):
        path = tmp_path
        if kind == "not utf-8":
            path = tmp_path / "y.txt"
            path.write_bytes(b"\xff\xfe0011")
        code, out, err = run(
            capsys, ["limits", "--model", FIG1, "--n", "5", "--k", "3", "--y", f"file:{path}"])
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: --y: cannot read {path}: {reason}")
        assert err.count("\n") == 1

    def test_y_too_short(self, capsys):
        code, _, err = run(
            capsys,
            ["limits", "--model", FIG1, "--y", "01", "--n", "5", "--k", "1"],
        )
        assert code == 1
        assert "need 5" in err

    @pytest.mark.parametrize("argv, option", [
        (["limits", "--model", FIG1, "--n", "5", "--eps", "0"], "--eps"),
        (["bounds", "--model", FIG1, "--n", "5", "--eps", "0"], "--eps"),
        (["figure1", "--n", "5", "--eps", "0.1", "-0.0"], "--eps"),
        (["markov", "--model", MARKOV, "--n", "8", "--trials", "0"], "--trials"),
        (["markov", "--model", MARKOV, "--n", "8", "--trials", "-3"], "--trials"),
    ])
    def test_bad_value_is_usage_error_naming_option(self, capsys, argv, option):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and option in err
        assert err.count("\n") == 1

    def test_negative_seed_is_usage_error_for_markov(self, capsys):
        code, out, err = run(
            capsys,
            ["markov", "--model", MARKOV, "--n", "8", "--trials", "10", "--seed", "-1"],
        )
        assert (code, out) == (1, "")
        assert err == "usage error: --seed must be >= 0, got -1\n"

    def test_negative_seed_still_runs_verify(self, capsys):
        # verify derives per-model seeds by masking, so any seed works
        code, out, _ = run(capsys, ["verify", "--corpus", str(MODELS_DIR), "--seed", "-1"])
        assert code == 0
        assert out.splitlines()[-1] == "checked 10 models: all passed"


# the options each command reads; a command declares these and no other
READS = {
    "validate": {"--model", "--out"},
    "measures": {"--model", "--n", "--n-range", "--y", "--out"},
    "limits": {"--model", "--n", "--n-range", "--eps", "--k", "--y", "--scope", "--method",
               "--out"},
    "bounds": {"--model", "--n", "--n-range", "--eps", "--y", "--A", "--out"},
    "figure1": {"--model", "--n", "--n-range", "--eps", "--y", "--method", "--out"},
    "markov": {"--model", "--n", "--n-range", "--seed", "--trials", "--out"},
    "verify": {"--corpus", "--seed", "--out"},
}

# one value per option that the parser accepted before each command had its own
VALUES = {
    "--model": FIG1, "--n": "5", "--n-range": "2:3", "--eps": "0.1", "--k": "1", "--y": "01",
    "--seed": "0", "--method": "auto", "--A": "1.0", "--scope": "ref",
    "--corpus": str(MODELS_DIR), "--trials": "10",
}

# a run of each command that exits 0, also with any one unread option added
# before each command had its own parser
RUNS = {
    "validate": ["validate", "--model", FIG1],
    "measures": ["measures", "--model", FIG1],
    "limits": ["limits", "--model", FIG1, "--y", "00", "--n", "2", "--k", "1", "2"],
    "bounds": ["bounds", "--model", FIG1, "--n", "500", "--eps", "0.1"],
    "figure1": ["figure1", "--n", "6"],
    "markov": ["markov", "--model", MARKOV, "--n", "16", "--trials", "10"],
    "verify": ["verify", "--corpus", str(MODELS_DIR)],
}

UNREAD = [(command, flag) for command, reads in READS.items()
          for flag in VALUES if flag not in reads]


class TestOptionsPerCommand:
    @pytest.mark.parametrize("command", READS)
    def test_parser_declares_read_options(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert declared - {"-h", "--help"} == READS[command]
        # 13 options on 7 commands: 91 pairs, 39 of them read
        assert len(UNREAD) == 91 - 39

    # bounds --scope ref once printed the pair bounds and exited 0
    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_option_is_usage_error(self, capsys, command, flag):
        code, out, err = run(capsys, RUNS[command] + [flag, VALUES[flag]])
        assert (code, out) == (1, "")
        assert err == f"usage error: unrecognized arguments: {flag} {VALUES[flag]}\n"


# runs that read none of an option they were given, and the one line each
# prints; before each was refused, the first seven exited 0 and the last
# ended in a traceback
UNREAD_IN_RUN = {
    "measures-pair-n": (["measures", "--model", FIG1, "--n", "5"],
                        "--n/--n-range not read by pair measures (no --y)"),
    "measures-markov-y-n": (["measures", "--model", MARKOV, "--y", "0101", "--n", "3"],
                            "--n/--n-range, --y not read by Markov measures"),
    "limits-k-eps": (["limits", "--model", FIG1, "--n", "4", "--k", "2", "--eps", "0.1"],
                     "--eps not read by an eps* sweep (--k)"),
    "limits-pair-y": (["limits", "--model", FIG1, "--eps", "0.1", "--y", "0101", "--scope",
                       "pair", "--n", "4"],
                      "--y not read by scope pair"),
    "figure1-two-eps": (["figure1", "--n", "3", "--eps", "0.1", "0.3"],
                        "figure1 takes one --eps, got 2"),
    "bounds-cond-iid-A": (["bounds", "--model", FIG1, "--n", "500", "--eps", "0.1", "--A",
                           "1.0"],
                          "--A not read by bounds on a cond_iid model"),
    "bounds-markov-y": (["bounds", "--model", MARKOV, "--n", "500", "--eps", "0.1", "--A",
                         "1.0", "--y", "0101"],
                        "--y not read by bounds on a markov_pair model"),
    "figure1-markov": (["figure1", "--model", MARKOV, "--n", "5"],
                       "figure1 needs a cond_iid model, got a markov_pair model"),
}


class TestOptionsPerRun:
    @pytest.mark.parametrize("case", UNREAD_IN_RUN)
    def test_option_unread_by_run_is_usage_error(self, capsys, case):
        argv, message = UNREAD_IN_RUN[case]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: {message}\n"


class TestOutSink:
    @pytest.mark.parametrize("argv, dest, reason", [
        (["figure1", "--model", FIG1, "--n", "3", "--eps", "0.1"],
         "missing/x.csv", "No such file or directory"),
        (["limits", "--model", FIG1, "--n", "4", "--k", "2"], "", "Is a directory"),
    ])
    def test_unwritable_out_fails_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                  argv, dest, reason):
        def no_work(*_):
            raise AssertionError("the model was loaded")

        monkeypatch.setattr("sidecomp.cli.load_model", no_work)
        path = str(tmp_path / dest) if dest else str(tmp_path)
        code, out, err = run(capsys, argv + ["--out", path])
        assert (code, out) == (1, "")
        assert err == f"error: cannot write --out {path}: {reason}\n"

    @pytest.mark.parametrize("argv", OUT_FAILURES)
    def test_failed_run_leaves_out_as_it_was(self, capsys, tmp_path, argv):
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_bytes(b"an earlier,result\r\n")
        for path in (kept, fresh):
            code, out, err = run(capsys, argv + ["--out", str(path)])
            assert (code, out) == (1, "") and err.count("\n") == 1
        assert kept.read_bytes() == b"an earlier,result\r\n"
        assert not fresh.exists()


def test_non_utf8_model_is_model_error(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["limits", "--model", str(path), "--n", "4", "--k", "2"])
    assert (code, out) == (2, "")
    assert err.startswith(f"model error: cannot read model file {path}: 'utf-8' codec")
    assert len(err.splitlines()) == 1


# -- every command on hostile values, drawn from the CLI's own tables ---------

NUMBERS = ["0", "-1", "nan", "inf", "1e-300", "1e200", str(10**20), "x"]
# (values that run, hostile values) per option; paths under the test's
# directory are written "@/name".  --n and --trials stay at most 8 and 50,
# so that every run is quick
VALUES_OF = {
    "--model": ([str(p) for p in sorted(MODELS_DIR.glob("*.json"))],
                ["@/not_utf8.txt", "@/truncated.json", "@", "@/missing.json",
                 "@/huge_exponent.json", "@/long_literal.json"]),
    "--n": (["1", "2", "5", "8"], ["0", "-1", "nan", "x"]),
    "--n-range": (["1:3", "8:8"], ["3:1", "0:2", "x"]),
    "--eps": (["0.1", "0.4"], NUMBERS + ["1e-100"]),
    "--k": (["1", "3"], NUMBERS),
    "--y": (["repeat:01", "0110"], ["repeat:", "z", "file:@", "file:@/missing",
                                    "file:@/not_utf8.txt"]),
    "--seed": (["0", "7"], NUMBERS),
    "--method": (["auto", "bruteforce", "typeclass"], ["x"]),
    "--A": (["1", "2.5"], NUMBERS),
    "--out": (["@/out.csv"], ["@", "@/missing/out.csv"]),
    "--scope": (["ref", "pair", "prefix"], ["x"]),
    "--corpus": (["@/corpus"], ["@/broken_corpus", "@/empty", "@/missing"]),
    "--trials": (["1", "50"], ["0", "-1", "nan", "x"]),
}


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory):
    """The files the argvs name, in one directory for the module: a
    function-scoped ``tmp_path`` would be shared by every example."""
    root = tmp_path_factory.mktemp("hostile")
    (root / "not_utf8.txt").write_bytes(b"\xff\xfe0011")
    (root / "truncated.json").write_text(FIG1_TEXT[:len(FIG1_TEXT) // 2])
    (root / "huge_exponent.json").write_text(HUGE_EXPONENT)
    (root / "long_literal.json").write_text(LONG_LITERAL)
    for corpus, model in (("corpus", MARKOV), ("broken_corpus", root / "truncated.json")):
        (root / corpus).mkdir()
        shutil.copy(model, root / corpus)
    (root / "empty").mkdir()
    return root


@st.composite
def hostile_argvs(draw):
    """A command with some of the options it declares (``--model`` and
    ``--n`` always, ``--trials`` for ``markov``); at most one option has a
    hostile value, its first, so that the run gets past every other check
    and takes that value into the library."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = [flag for flag in _COMMANDS[command][1]
             if flag in ("--model", "--n") or (flag, command) == ("--trials", "markov")
             or draw(st.booleans())]
    hostile_flag = draw(st.sampled_from([None, *flags]))
    argv = [command]
    for flag in flags:
        runs, hostile = VALUES_OF[flag]
        count = draw(st.integers(1, 2)) if flag in ("--n", "--eps", "--k") else 1
        argv.append(flag)
        for i in range(count):
            argv.append(draw(st.sampled_from(hostile if flag == hostile_flag and i == 0
                                             else runs)))
    return argv


OUT_BEFORE = "an earlier,result\r\n"


class TestHostileArgv:
    @given(argv=hostile_argvs())
    @settings(max_examples=150)
    @example(argv=["bounds", "--model", MARKOV, "--n", "5", "--eps", "1e-100", "--A", "1"])
    @example(argv=["bounds", "--model", FIG1, "--n", "5", "--eps", "1e-100"])
    @example(argv=["bounds", "--model", MARKOV, "--n", "5", "--eps", "0.1", "--A", "1e200"])
    @example(argv=["bounds", "--model", MARKOV, "--n", "5", "--eps", "0.1", "--A", "nan"])
    @example(argv=["limits", "--model", FIG1, "--n", "5", "--k", "3", "--y", "file:@"])
    @example(argv=HUGE_K[0])
    @example(argv=HUGE_K[1])
    @example(argv=HUGE_K[2])
    @example(argv=HUGE_K[3])
    @example(argv=["validate", "--model", "@/huge_exponent.json"])
    @example(argv=["limits", "--model", "@/long_literal.json", "--n", "2", "--k", "1"])
    @example(argv=OUT_FAILURES[0] + ["--out", "@/out.csv"])
    @example(argv=OUT_FAILURES[1] + ["--out", "@/out.csv"])
    @example(argv=OUT_FAILURES[2] + ["--out", "@/out.csv"])
    def test_every_run_exits_with_a_code_and_one_line_on_failure(self, hostile_files, argv):
        argv = [a.replace("@", str(hostile_files)) for a in argv]
        out_csv = hostile_files / "out.csv"
        out_csv.write_bytes(OUT_BEFORE.encode())
        out, err = io.StringIO(), io.StringIO()
        # a warning is one more stderr line of a real run
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code != 0 and argv[0] not in ("validate", "verify"):
            assert out.getvalue() == "" and not caught
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert out_csv.read_bytes() == OUT_BEFORE.encode()


# the public library calls, each on a model and one draw of LIBRARY_ARGS;
# y is built inside the call, from a length and a pattern of y-indices
def _y(m, a):
    pattern = [int(c) % len(m.y_alphabet) for c in a["pattern"]]
    return SideInfoString(m.y_alphabet, tuple(islice(cycle(pattern), a["length"])))


def _y_of_n(m, a):
    """The y of a call that takes n too: of length n when n is a nonzero
    length LIBRARY_ARGS draws, so the draw reaches the law given y;
    otherwise of the drawn length, which the call refuses."""
    return _y(m, {**a, "length": a["n"]} if a["n"] and a["n"] in Y_LENGTHS else a)


LIBRARY_CALLS = {
    "length_law_typeclass": lambda m, a: limits.length_law_typeclass(m, _y(m, a), a["exact"]),
    "length_law_bruteforce": lambda m, a: limits.length_law_bruteforce(m, _y(m, a), a["exact"]),
    "epsilon_star_ref": lambda m, a: limits.epsilon_star_ref(
        m, _y(m, a), a["k"], a["method"], a["exact"]),
    "rate_star_ref": lambda m, a: limits.rate_star_ref(m, _y(m, a), a["eps"], a["method"]),
    "epsilon_star_pair": lambda m, a: limits.epsilon_star_pair(
        m, a["n"], a["k"], a["method"], a["exact"]),
    "rate_star_pair": lambda m, a: limits.rate_star_pair(m, a["n"], a["eps"], a["method"]),
    "epsilon_star_prefix": lambda m, a: limits.epsilon_star_prefix(
        m, a["n"], a["k"], _y_of_n(m, a) if a["given_y"] else None, a["method"], a["exact"]),
    "check_general_converse": lambda m, a: limits.check_general_converse(
        m, a["k"], [a["tau"]], _y_of_n(m, a) if a["given_y"] else None, a["n"], a["exact"]),
    "three_term_rate": lambda m, a: bounds.three_term_rate(
        measures(m).h_xy, measures(m).sigma2, a["n"], a["eps"]),
    "ref_converse": lambda m, a: bounds.ref_converse(m, _y(m, a), a["eps"]),
    "ref_achievability": lambda m, a: bounds.ref_achievability(
        m, _y(m, a), a["eps"], a["prefix"]),
    "pair_achievability": lambda m, a: bounds.pair_achievability(
        m, a["n"], a["eps"], a["prefix"]),
    "pair_converse": lambda m, a: bounds.pair_converse(m, a["n"], a["eps"]),
    "build_code": lambda m, a: codec.build_code(m, _y(m, a)),
    "encode": lambda m, a: codec.encode(m, _y(m, a), a["x"]),
    "decode": lambda m, a: codec.decode(m, _y(m, a), a["bits"]),
    "build_prefix_code": lambda m, a: codec.build_prefix_code(m, _y(m, a), a["k"]),
    "check_pointwise_achievability": lambda m, a: codec.check_pointwise_achievability(
        m, _y(m, a)),
    "check_counting_sandwich": lambda m, a: codec.check_counting_sandwich(m, _y(m, a)),
}
LIBRARY_MODELS = ("deterministic", "fig1", "nogap", "skewed34", "uniform2")
# hostile values next to ordinary ones; a y-string is at most 10^6 long
Y_LENGTHS = (0, 1, 2, 3, 10**6)
LIBRARY_ARGS = st.fixed_dictionaries({
    "n": st.sampled_from([-1, 0, 1, 2, 3, 10**6, 10**20]),
    "length": st.sampled_from(Y_LENGTHS),
    "pattern": st.sampled_from(["0", "01", "001", "0123"]),
    "k": st.sampled_from([-1, 0, 1, 3, 10**20]),
    "eps": st.sampled_from([0.0, 1.0, -0.1, math.nan, math.inf, 1e-300, 1e-100,
                            1 - 1e-16, 0.1, 0.5]),
    "tau": st.sampled_from([1e300, math.inf, math.nan, -1.0, 0.1, 1.0, 2.5]),
    "method": st.sampled_from(["auto", "bruteforce", "typeclass"]),
    "exact": st.booleans(),
    "given_y": st.booleans(),
    "prefix": st.booleans(),
    # source strings as x-indices or labels, and codewords
    "x": st.sampled_from([(0, 1, 0), (0, 5), (-1, 0, 0), (0.5, 0, 0), "aba", "zz", "0,1"]),
    "bits": st.sampled_from(["", "0", "101", "2", "1" * 64]),
})
ORDINARY = {"n": 3, "length": 3, "pattern": "001", "k": 1, "eps": 0.1, "tau": 1.0,
            "method": "auto", "exact": False, "given_y": False, "prefix": False,
            "x": (0, 1, 0), "bits": "101"}
# each call may take this long in its own process
LIBRARY_SECONDS = 10


class TestHostileLibraryCalls:
    @given(name=st.sampled_from(sorted(LIBRARY_CALLS)), model=st.sampled_from(LIBRARY_MODELS),
           args=LIBRARY_ARGS)
    @settings(max_examples=60)
    # OverflowError from squaring a huge bracket
    @example(name="pair_achievability", model="fig1", args={**ORDINARY, "n": 1, "eps": 1e-100})
    # ZeroDivisionError at n = 0
    @example(name="pair_achievability", model="fig1", args={**ORDINARY, "n": 0, "eps": 1e-300})
    @example(name="pair_converse", model="fig1", args={**ORDINARY, "n": 0, "eps": 1e-300})
    @example(name="three_term_rate", model="fig1", args={**ORDINARY, "n": 0, "eps": 1e-300})
    # OverflowError from shifting by k + tau, and from a slack of inf
    @example(name="check_general_converse", model="fig1",
             args={**ORDINARY, "k": 0, "tau": 1e300, "given_y": True, "exact": True})
    @example(name="check_general_converse", model="fig1",
             args={**ORDINARY, "k": 0, "tau": math.inf, "given_y": True, "exact": True})
    # AttributeError at n = -1
    @example(name="rate_star_pair", model="fig1", args={**ORDINARY, "n": -1})
    @example(name="epsilon_star_pair", model="fig1", args={**ORDINARY, "n": -1, "k": 1})
    # p raised to the power 2^55, the denominator of the slack 0.1, given y
    # and over the pair rows
    @example(name="check_general_converse", model="fig1",
             args={**ORDINARY, "tau": 0.1, "given_y": True, "exact": True})
    @example(name="check_general_converse", model="fig1",
             args={**ORDINARY, "tau": 0.1, "exact": True})
    # a float slack of nan, once checked as ok=False with rhs nan
    @example(name="check_general_converse", model="fig1", args={**ORDINARY, "tau": math.nan})
    # a y-string whose length is not n
    @example(name="check_general_converse", model="fig1",
             args={**ORDINARY, "n": 10**20, "given_y": True})
    # (|X||Y|)^n or |X|^n built at n = 10^20
    @example(name="epsilon_star_pair", model="deterministic",
             args={**ORDINARY, "n": 10**20, "method": "bruteforce"})
    @example(name="epsilon_star_prefix", model="nogap", args={**ORDINARY, "n": 10**20})
    @example(name="check_general_converse", model="skewed34", args={**ORDINARY, "n": 10**20})
    # a sweep of 10^6 + 1 laws, and the exact counts of 10^6 positions
    @example(name="rate_star_pair", model="fig1", args={**ORDINARY, "n": 10**6})
    @example(name="rate_star_ref", model="uniform2",
             args={**ORDINARY, "length": 10**6, "pattern": "0", "eps": 0.5})
    # OverflowError at 1 << k
    @example(name="build_prefix_code", model="fig1", args={**ORDINARY, "k": 10**20})
    # KeyError from an x-index past the alphabet, a negative one, and a label
    @example(name="encode", model="nogap", args={**ORDINARY, "length": 2, "x": (0, 5)})
    @example(name="encode", model="fig1", args={**ORDINARY, "x": (-1, 0, 0)})
    @example(name="encode", model="nogap", args={**ORDINARY, "length": 2, "x": "zz"})
    def test_every_call_returns_or_raises_a_value_error(self, name, model, args):
        m = load_model(MODELS_DIR / f"{model}.json")

        def call():
            LIBRARY_CALLS[name](m, args)

        # every documented refusal is a ValueError: GuardExceededError,
        # DegenerateModelError, and ValueError itself
        got = call_within(LIBRARY_SECONDS, call)
        assert got is not None, f"{name} did not return within {LIBRARY_SECONDS} s"
        assert got[0] == "value" or issubclass(got[1], ValueError), got
