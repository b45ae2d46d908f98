import argparse
import csv
import json

import pytest

from sidecomp import limits
from sidecomp.cli import build_parser, main

from tests.conftest import MODELS_DIR, PERIODIC_CHAIN, REDUCIBLE_CHAIN

FIG1 = str(MODELS_DIR / "fig1.json")
MARKOV = str(MODELS_DIR / "markov2x2.json")


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


def test_non_utf8_model_is_model_error(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["limits", "--model", str(path), "--n", "4", "--k", "2"])
    assert (code, out) == (2, "")
    assert err.startswith(f"model error: cannot read model file {path}: 'utf-8' codec")
    assert len(err.splitlines()) == 1
