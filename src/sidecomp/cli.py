"""Command-line front end.

Subcommands: ``validate``, ``measures``, ``limits``, ``bounds``,
``figure1``, ``markov``, ``verify``.  All tabular output is CSV with a
header row and 12 significant digits; identical configuration and seed
give byte-identical output.  Exit codes: 0 ok, 1 usage, 2 validation
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import ContextManager, Sequence, TextIO

import numpy as np

from . import bounds as nb
from . import limits as xl
from . import markov as mk
from . import measures as msr
from .codec import check_counting_sandwich, check_pointwise_achievability
from .models import (
    CondIidModel,
    MarkovPairModel,
    ModelFormatError,
    SideInfoString,
    embed_cond_iid,
    load_model,
    model_from_dict,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3

# the running example: binary source observed through two noise levels
FIG1_DOC = {
    "kind": "cond_iid",
    "x_alphabet": ["0", "1"],
    "y_alphabet": ["0", "1"],
    "p_x_given_y": [["0.9", "0.1"], ["0.4", "0.6"]],
    "p_y": ["2/3", "1/3"],
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _emit(header: Sequence[str], rows: Sequence[Sequence[object]], out: TextIO) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])


def _emit_lines(lines: Sequence[str], out: TextIO) -> None:
    out.write("\n".join(lines) + "\n")


def _open_out(path: str | None) -> ContextManager[TextIO]:
    """The run's output: the ``--out`` file, opened before any work so
    that a path it cannot write fails first, or stdout."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None


def _load(args: argparse.Namespace):
    if args.model is None:
        raise UsageError("--model is required for this command")
    return load_model(args.model)


def _unread(args: argparse.Namespace, run: str, *dests: str) -> None:
    """Refuse the options among ``dests`` that were given to a run that
    reads none of them."""
    given = ["--n/--n-range" if d == "n" else f"--{d}" for d in dests
             if getattr(args, d) not in (None, ())]
    if given:
        raise UsageError(f"{', '.join(given)} not read by {run}")


def _resolve_y_indices(spec: str, alphabet, max_n: int) -> tuple[int, ...]:
    """Expand a y argument (repeat:<word>, file:<path>, or literal)."""
    try:
        if spec.startswith("repeat:"):
            word = SideInfoString.from_labels(alphabet, spec[len("repeat:"):])
            reps = -(-max_n // len(word.indices))
            return (word.indices * reps)[:max_n]
        if spec.startswith("file:"):
            path = Path(spec[len("file:"):])
            if not path.exists():
                raise UsageError(f"y file not found: {path}")
            s = SideInfoString.from_labels(alphabet, path.read_text().strip())
            indices = s.indices
        else:
            indices = SideInfoString.from_labels(alphabet, spec).indices
    except KeyError as exc:
        raise UsageError(f"--y: {exc.args[0]}") from None
    if len(indices) < max_n:
        raise UsageError(f"y string has {len(indices)} symbols, need {max_n}")
    return indices[:max_n]


def _y_at(alphabet, base: tuple[int, ...], n: int) -> SideInfoString:
    return SideInfoString(alphabet, base[:n])


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        model = _load(args)
    except ModelFormatError as exc:
        _emit_lines([f"INVALID {args.model}: {exc}"], args.out)
        return EXIT_VALIDATION
    report = validate(model)
    lines = [f"{'VALID' if report.ok else 'INVALID'} {args.model}"]
    lines += report.lines()
    _emit_lines(lines, args.out)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_measures(args: argparse.Namespace) -> int:
    model = _load(args)
    if isinstance(model, MarkovPairModel):
        _unread(args, "Markov measures", "n", "y")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            an = mk.markov_rates(model)
        _emit(
            ["h_rate", "sigma2_rate", "delta", "y_markov_defect"],
            [[an.h_rate, an.sigma2_rate, an.delta, an.y_chain.markovianity_defect]],
            args.out,
        )
        return EXIT_OK
    if args.y is not None:
        ns = args.n or (1,)
        base = _resolve_y_indices(args.y, model.y_alphabet, max(ns))
        m3 = float(msr.per_y_profile(model).m3.max())
        rows = []
        for n in ns:
            h_n, s2, _ = msr.h_n_sigma_n(model, _y_at(model.y_alphabet, base, n))
            rows.append([n, h_n, s2, m3])
        _emit(["n", "h_n", "sigma_n2", "m3"], rows, args.out)
        return EXIT_OK
    _unread(args, "pair measures (no --y)", "n")
    if model.p_y is None:
        raise UsageError("pair measures need a model with p_y (or pass --y)")
    ms = msr.measures(model)
    d = ms.as_dict()
    _emit(list(d.keys()), [list(d.values())], args.out)
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    model = _load(args)
    if not args.n:
        raise UsageError("limits needs --n or --n-range")
    scope = args.scope or ("ref" if args.y is not None else "pair")
    if scope in ("ref", "prefix") and args.y is None:
        raise UsageError(f"scope {scope} needs --y")
    if scope == "pair":
        _unread(args, "scope pair", "y")
    if args.k:
        _unread(args, "an eps* sweep (--k)", "eps")
    base = None
    if args.y is not None:
        base = _resolve_y_indices(args.y, model.y_alphabet, max(args.n))
    rows: list[list[object]] = []
    if args.k:
        for n in args.n:
            for k in args.k:
                if scope == "ref":
                    e = xl.epsilon_star_ref(
                        model, _y_at(model.y_alphabet, base, n), k, method=args.method)
                elif scope == "prefix":
                    e = xl.epsilon_star_prefix(
                        model, n, k, _y_at(model.y_alphabet, base, n), method=args.method)
                else:
                    e = xl.epsilon_star_pair(model, n, k, method=args.method)
                rows.append([scope, n, k, float(e)])
        _emit(["scope", "n", "k", "eps_star"], rows, args.out)
        return EXIT_OK
    if not args.eps:
        raise UsageError("limits needs --eps or --k")
    for n in args.n:
        for eps in args.eps:
            if scope == "ref":
                rp = xl.rate_star_ref(
                    model, _y_at(model.y_alphabet, base, n), eps, method=args.method)
            elif scope == "pair":
                rp = xl.rate_star_pair(model, n, eps, method=args.method)
            else:
                raise UsageError("rate sweeps support scopes ref and pair")
            rows.append([scope, n, eps, rp.k, rp.rate, rp.eps_at_k, rp.eps_at_k_plus_1])
    _emit(["scope", "n", "epsilon", "k_star", "rate", "eps_at_k", "eps_at_k_plus_1"],
          rows, args.out)
    return EXIT_OK


def _bound_row(rep: nb.BoundReport) -> list[object]:
    consts = ";".join(f"{k}={_fmt(v)}" for k, v in rep.constants.items())
    return [rep.kind, rep.n, rep.epsilon, rep.value, rep.n_threshold, rep.valid, consts]


def cmd_bounds(args: argparse.Namespace) -> int:
    model = _load(args)
    if not args.n:
        raise UsageError("bounds needs --n or --n-range")
    if not args.eps:
        raise UsageError("bounds needs --eps")
    rows = []
    # Markov bounds read --A and no --y, the others the reverse
    markov = isinstance(model, MarkovPairModel)
    _unread(args, f"bounds on a {model.kind} model", "y" if markov else "A")
    if markov:
        if args.A is None:
            raise UsageError("markov bounds need --A (Berry-Esseen constant)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            an = mk.markov_rates(model)
        for n in args.n:
            for eps in args.eps:
                ach, conv = nb.markov_bounds(an, n, eps, args.A)
                rows.append(_bound_row(ach))
                rows.append(_bound_row(conv))
    elif args.y is not None:
        base = _resolve_y_indices(args.y, model.y_alphabet, max(args.n))
        for n in args.n:
            y = _y_at(model.y_alphabet, base, n)
            for eps in args.eps:
                rows.append(_bound_row(nb.ref_converse(model, y, eps)))
                rows.append(_bound_row(nb.ref_achievability(model, y, eps)))
                rows.append(_bound_row(nb.ref_achievability(model, y, eps, prefix=True)))
    else:
        for n in args.n:
            for eps in args.eps:
                rows.append(_bound_row(nb.pair_converse(model, n, eps)))
                rows.append(_bound_row(nb.pair_achievability(model, n, eps)))
                rows.append(_bound_row(nb.pair_achievability(model, n, eps, prefix=True)))
    _emit(["kind", "n", "epsilon", "value", "threshold", "valid", "constants"],
          rows, args.out)
    return EXIT_OK


def cmd_figure1(args: argparse.Namespace) -> int:
    model = _load(args) if args.model else model_from_dict(FIG1_DOC)
    if not isinstance(model, CondIidModel):
        raise UsageError(f"figure1 needs a cond_iid model, got a {model.kind} model")
    if args.eps and len(args.eps) > 1:
        raise UsageError(f"figure1 takes one --eps, got {len(args.eps)}")
    ns = args.n or tuple(range(1, 501))
    eps = args.eps[0] if args.eps else 0.1
    base = _resolve_y_indices(args.y or "repeat:001", model.y_alphabet, max(ns))
    rows = []
    for n in ns:
        y = _y_at(model.y_alphabet, base, n)
        rp = xl.rate_star_ref(model, y, eps, method=args.method)
        h_n, s2, degenerate = msr.h_n_sigma_n(model, y)
        approx = h_n - math.log2(n) / (2.0 * n)
        if not degenerate:
            approx = nb.three_term_rate(h_n, s2, n, eps)
        rows.append([n, rp.rate, approx])
    _emit(["n", "R_star_exact", "normal_approx"], rows, args.out)
    return EXIT_OK


def cmd_markov(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    model = _load(args)
    if isinstance(model, CondIidModel):
        model = embed_cond_iid(model)
    grid = list(args.n) or [64, 256, 1024]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        probe = mk.berry_esseen_probe(model, grid, args.trials, args.seed)
    rows = [[r.n, r.distance, r.scaled] for r in probe.rows]
    _emit(["n", "kolmogorov", "kolmogorov_sqrt_n"], rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class _Verifier:
    seed: int
    lines: list[str] = field(default_factory=list)
    failures: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        if not ok:
            self.failures += 1
        self.lines.append(f"{tag} {name}" + (f": {detail}" if detail else ""))

    def info(self, text: str) -> None:
        self.lines.append(f"INFO {text}")


def _periodic_y(model, n: int) -> SideInfoString:
    ny = len(model.y_alphabet)
    return SideInfoString(model.y_alphabet, tuple(i % ny for i in range(n)))


def _verify_cond_iid(v: _Verifier, name: str, model: CondIidModel) -> None:
    nx = len(model.x_alphabet)
    kmax = lambda n: math.ceil(n * math.log2(nx)) + 1

    ok = True
    for n in (1, 2, 3):
        y = _periodic_y(model, n)
        for k in range(kmax(n) + 1):
            a = xl.epsilon_star_ref(model, y, k, method="typeclass", exact=True)
            b = xl.epsilon_star_ref(model, y, k, method="bruteforce", exact=True)
            ok = ok and a == b
    v.check(f"{name} oracle-equivalence-ref", ok)

    if model.p_y is not None:
        ok = True
        for n in (1, 2):
            for k in range(kmax(n) + 1):
                a = xl.epsilon_star_pair(model, n, k, method="typeclass", exact=True)
                b = xl.epsilon_star_pair(model, n, k, method="bruteforce", exact=True)
                ok = ok and a == b
        v.check(f"{name} oracle-equivalence-pair", ok)

    ok = True
    ny = len(model.y_alphabet)
    for yi in range(min(ny * ny, 16)):
        y = SideInfoString(model.y_alphabet, (yi // ny, yi % ny))
        ok = ok and check_pointwise_achievability(model, y).ok
        ok = ok and check_counting_sandwich(model, y).ok
    v.check(f"{name} single-shot-length-checks", ok)

    ok = True
    n = 2
    y = _periodic_y(model, n)
    for k in range(1, kmax(n) + 1):
        lhs = xl.epsilon_star_prefix(model, n, k, y, exact=True)
        if (1 << (k - 1)) < nx**n:
            ok = ok and lhs == xl.epsilon_star_ref(model, y, k - 1, exact=True)
        else:
            ok = ok and lhs == 0
    v.check(f"{name} prefix-penalty-identity", ok)

    taus = [0.5, 1.0, 2.0, 4.0, 8.0]
    ok = True
    for k in (1, 2):
        ok = ok and xl.check_general_converse(
            model, k, taus, y=_periodic_y(model, 3), exact=True).ok
    if model.p_y is not None:
        ok = ok and xl.check_general_converse(model, 1, taus, n=2, exact=True).ok
    v.check(f"{name} threshold-converse", ok)

    if model.p_y is not None:
        try:
            ms = msr.measures(model)
            v.check(f"{name} dispersion-decomposition",
                    ms.as_dict()["dispersion_gap"] >= -1e-15)
        except RuntimeError as exc:
            v.check(f"{name} dispersion-decomposition", False, str(exc))
            return
        an = mk.markov_rates(embed_cond_iid(model))
        v.check(
            f"{name} embed-consistency",
            abs(an.h_rate - ms.h_xy) <= 1e-9
            and abs(an.sigma2_rate - ms.sigma2) <= 1e-9,
        )
        if ms.sigma2 > 1e-12 and ms.ev > 1e-12:
            eps = 0.25
            thr = max(nb.pair_achievability(model, 2, eps).n_threshold,
                      nb.pair_converse(model, 2, eps).n_threshold)
            n0 = int(thr) + 2
            if n0 <= 60 and len(model.y_alphabet) <= 3:
                rp = xl.rate_star_pair(model, n0, eps)
                lo = nb.pair_converse(model, n0, eps).value
                hi = nb.pair_achievability(model, n0, eps).value
                v.check(f"{name} pair-bracket(n={n0})", lo <= rp.rate <= hi)
            else:
                v.info(f"{name} pair-bracket skipped (threshold {thr:.3g})")


def _verify_markov(v: _Verifier, name: str, model: MarkovPairModel) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        an = mk.markov_rates(model)
    v.check(
        f"{name} markov-rates",
        math.isfinite(an.h_rate) and an.sigma2_rate >= 0.0 and math.isfinite(an.delta),
    )
    stats = mk.sample_path_statistics(model, 30, 2000, _derived_seed(v.seed, name), an)
    gap = float(np.abs(stats.info - stats.window_sum).max())
    v.check(f"{name} boundary-gap<=delta", gap <= an.delta + 1e-9,
            f"max gap {gap:.6g} vs delta {an.delta:.6g}")


def _derived_seed(seed: int, name: str) -> int:
    h = 2166136261
    for ch in name.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return (h ^ seed) & 0x7FFFFFFF


def cmd_verify(args: argparse.Namespace) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise UsageError(f"corpus directory not found: {corpus}")
    files = sorted(corpus.glob("*.json"))
    if not files:
        raise UsageError(f"no model files in {corpus}")
    v = _Verifier(seed=args.seed)
    for path in files:
        name = path.stem
        try:
            model = load_model(path)
        except ModelFormatError as exc:
            v.check(f"{name} load", False, str(exc))
            continue
        report = validate(model)
        v.check(f"{name} validation", report.ok,
                "" if report.ok else "; ".join(report.errors))
        if not report.ok:
            continue
        if isinstance(model, CondIidModel):
            _verify_cond_iid(v, name, model)
        else:
            _verify_markov(v, name, model)
    v.lines.append(
        f"checked {len(files)} models: "
        f"{'all passed' if v.failures == 0 else f'{v.failures} failures'}"
    )
    _emit_lines(v.lines, args.out)
    return EXIT_OK if v.failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def _parse_n_range(text: str) -> tuple[int, ...]:
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad --n-range {text!r}, expected a:b") from exc
    if hi < lo:
        raise UsageError("--n-range must be ascending")
    return tuple(range(lo, hi + 1))


def _check(args: argparse.Namespace) -> None:
    """Merge ``--n`` and ``--n-range`` into ``args.n`` and check the
    values the commands need beyond their argparse types."""
    if "n" in args:
        args.n = tuple(args.n or ()) + (_parse_n_range(args.n_range) if args.n_range else ())
    for e in getattr(args, "eps", None) or ():
        if not 0.0 <= e < 1.0:
            raise UsageError(f"--eps {e} outside [0, 1)")
        if e == 0.0:
            raise UsageError("--eps must be > 0")
    if getattr(args, "n", None) and min(args.n) < 1:
        raise UsageError("n must be >= 1")
    if getattr(args, "trials", 1) < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")


# every option, declared once, in help order
_OPTIONS = {
    "--model": {},
    "--n": {"type": int, "nargs": "+"},
    "--n-range": {},
    "--eps": {"type": float, "nargs": "+"},
    "--k": {"type": int, "nargs": "+"},
    "--y": {},
    "--seed": {"type": int, "default": 0},
    "--method": {"choices": ("auto", "bruteforce", "typeclass"), "default": "auto"},
    "--A": {"type": float},
    "--out": {},
    "--scope": {"choices": ("ref", "pair", "prefix")},
    "--corpus": {"default": "models"},
    "--trials": {"type": int, "default": 20000},
}

_N = ("--n", "--n-range")

# each subcommand with the options it reads; any other is a usage error
_COMMANDS = {
    "validate": (cmd_validate, ("--model", "--out")),
    "measures": (cmd_measures, ("--model", *_N, "--y", "--out")),
    "limits": (cmd_limits, ("--model", *_N, "--eps", "--k", "--y", "--scope", "--method",
                            "--out")),
    "bounds": (cmd_bounds, ("--model", *_N, "--eps", "--y", "--A", "--out")),
    "figure1": (cmd_figure1, ("--model", *_N, "--eps", "--y", "--method", "--out")),
    "markov": (cmd_markov, ("--model", *_N, "--seed", "--trials", "--out")),
    "verify": (cmd_verify, ("--corpus", "--seed", "--out")),
}


def build_parser() -> _Parser:
    p = _Parser(prog="sidecomp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag, spec in _OPTIONS.items():
            if flag in options:
                sp.add_argument(flag, **spec)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check(args)
        with _open_out(args.out) as args.out:
            return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (xl.GuardExceededError, nb.DegenerateModelError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
