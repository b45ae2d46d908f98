"""CLI stdout pinned byte for byte against recorded golden files.

Each case runs ``sidecomp.cli.main`` in-process and compares its stdout
with ``tests/golden/<name>.txt``; it runs once more with ``--out FILE``
and compares the file's bytes with the same golden.  A library change
that keeps every printed number passes; one that moves a single digit
fails.

To re-record after a deliberate output change, run
``PYTHONPATH=src python -m tests.test_cli_golden`` from the repo root.
"""

from pathlib import Path

import pytest

from sidecomp.cli import main

from tests.conftest import MODELS_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ROOT = MODELS_DIR.parent


def _model(name: str) -> str:
    return str(MODELS_DIR / f"{name}.json")


CASES = {
    "limits_fig1_ref_n3000_eps": [
        "limits", "--model", _model("fig1"), "--n", "3000", "--eps", "0.1", "0.4",
        "--y", "repeat:001", "--scope", "ref",
    ],
    "limits_fig1_ref_n400_k": [
        "limits", "--model", _model("fig1"), "--n", "400", "--k", "100", "200", "300",
        "--y", "repeat:001", "--scope", "ref",
    ],
    "limits_fig1_ref_n600_k": [
        "limits", "--model", _model("fig1"), "--n", "600", "--k", "200", "300", "400",
        "--y", "repeat:001", "--scope", "ref",
    ],
    "limits_nogap_ref_n90_k": [
        "limits", "--model", _model("nogap"), "--n", "90", "--k", "20", "60", "100",
        "--y", "repeat:01", "--scope", "ref",
    ],
    "limits_skewed34_ref_n24_eps": [
        "limits", "--model", _model("skewed34"), "--n", "24", "--eps", "0.05", "0.3",
        "--y", "repeat:wxyz", "--scope", "ref",
    ],
    "limits_fig1_ref_n6000_eps": [
        "limits", "--model", _model("fig1"), "--n", "6000", "--eps", "0.4",
        "--y", "repeat:001", "--scope", "ref",
    ],
    "limits_skewed34_pair_n5": [
        "limits", "--model", _model("skewed34"), "--n", "5", "--eps", "0.2",
    ],
    "limits_uniform2_pair_typeclass": [
        "limits", "--model", _model("uniform2"), "--n", "24", "--k", "0", "1", "12",
        "23", "24", "--method", "typeclass",
    ],
    "limits_uniform2_ref_typeclass": [
        "limits", "--model", _model("uniform2"), "--n", "30", "--eps", "0.1", "0.5",
        "--y", "repeat:01", "--method", "typeclass",
    ],
    "limits_markov2x2_pair_n7": [
        "limits", "--model", _model("markov2x2"), "--n", "7", "--eps", "0.1",
    ],
    "markov_markov2x2_probe": [
        "markov", "--model", _model("markov2x2"), "--n", "64", "256", "--trials", "2000",
        "--seed", "0",
    ],
    "markov_ymarg_nonmarkov_probe": [
        "markov", "--model", _model("ymarg_nonmarkov"), "--n", "64", "256", "--trials",
        "2000", "--seed", "3",
    ],
    "measures_markov2x2": [
        "measures", "--model", _model("markov2x2"),
    ],
    "measures_copy_chain": [
        "measures", "--model", _model("copy_chain"),
    ],
    "measures_indep_chains": [
        "measures", "--model", _model("indep_chains"),
    ],
    "measures_ymarg_nonmarkov": [
        "measures", "--model", _model("ymarg_nonmarkov"),
    ],
    # validate echoes the model path, so this case runs from the repo root
    # with a relative one
    "validate_ymarg_nonmarkov": [
        "validate", "--model", "models/ymarg_nonmarkov.json",
    ],
    "figure1_n40_480": [
        "figure1", "--n", *(str(n) for n in range(40, 481, 40)),
    ],
    "bounds_fig1": [
        "bounds", "--model", _model("fig1"), "--n", "50", "500", "--eps", "0.1",
    ],
    "verify_corpus": [
        "verify", "--corpus", str(MODELS_DIR), "--seed", "0",
    ],
}


def _stdout(capsys, argv: list[str]) -> str:
    code = main(argv)
    assert code == 0, capsys.readouterr().err
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert _stdout(capsys, CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_matches_golden(capsys, monkeypatch, tmp_path, name):
    # the same run with --out writes the golden bytes to the file, none to stdout
    monkeypatch.chdir(ROOT)
    dest = tmp_path / "out.txt"
    assert _stdout(capsys, CASES[name] + ["--out", str(dest)]) == ""
    assert dest.read_bytes() == (GOLDEN_DIR / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, name
        (GOLDEN_DIR / f"{name}.txt").write_text(buf.getvalue())
