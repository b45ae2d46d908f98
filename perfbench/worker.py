"""One pass of one workload in a fresh process.

Reads ``{"workload", "inputs", "trace"}`` as JSON on stdin and prints one
JSON object: the set-up time, the time of each query, the machine speed
measured around them, the peak RSS of this process, every answer, every
exception, and with tracing on the per-layer metrics.  Set-up is
importing the sidecomp modules and loading and validating the workload's
models; checks run in the parent, untimed.

The 2-core host this benchmark was built on drifts in speed by a third
over minutes, for every kind of code alike.  So the pass times a fixed
calibration kernel after set-up, between queries at least every
``CALIBRATE_EVERY_S`` and after the last query.  Each time gets a scale
``CALIBRATION_REF_S / calibration`` from the calibrations on either side
of it; the parent reports scaled times, that is seconds at the speed at
which the kernel takes ``CALIBRATION_REF_S``.  The kernel uses only the
standard library and numpy, so no change to sidecomp can move it.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time
import types
import warnings
from fractions import Fraction

import queries
import spans

CALIBRATION_REF_S = 0.01  # about the kernel's time on the 2-core build box
CALIBRATE_EVERY_S = 0.5


def calibration_s() -> float:
    """Best of three timings of a fixed mix of the work sidecomp does.

    Fraction sums, big-int arithmetic, lists of big-int products, a
    branchy float loop and a numpy argsort.
    """
    import numpy as np

    data = np.random.default_rng(0).random(50_000)
    ints = [(1 << 61) // (i + 3) for i in range(120)]
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(1, i)
        x = 1
        for i in range(10_000):
            x = (x * 1_000_003 + i) % (1 << 127)
        sum([a * b for a in ints for b in ints])
        kept, last = [], None
        for i in range(20_000):
            v = (i * 7919) % 1000 / 7.0
            if last is None or abs(v - last) > 1e-12:
                kept.append(v)
            last = v
        np.argsort(data, kind="stable")
        best = min(best, time.perf_counter() - t)
    return best


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy ships with, if it has one."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    request = json.load(sys.stdin)
    start = time.perf_counter()
    from sidecomp import bounds, cli, codec, limits, markov, measures, models

    sc = types.SimpleNamespace(bounds=bounds, cli=cli, codec=codec, limits=limits,
                               markov=markov, measures=measures, models=models)
    recorder = spans.Recorder() if request["trace"] else None
    missing = spans.instrument(recorder) if recorder else []
    warnings.simplefilter("ignore")

    traced_from = time.perf_counter()
    loaded = {}
    for name, spec in request["inputs"]["models"].items():
        model = (models.load_model(spec["file"]) if "file" in spec
                 else models.model_from_dict(spec["doc"]))
        report = models.validate(model)
        if not report.ok:
            raise SystemExit(f"model {name} is invalid: {report.errors}")
        loaded[name] = model
    setup_s = time.perf_counter() - start

    marks: list[tuple[float, float]] = []  # (end time, calibration seconds)
    calibrating_s = 0.0  # kept out of the window trace.coverage divides by

    def calibrate():
        nonlocal calibrating_s
        t = time.perf_counter()
        c = calibration_s()
        now = time.perf_counter()
        marks.append((now, c))
        calibrating_s += now - t

    answers: dict = {}
    raised: dict = {}
    seconds: dict = {}
    after_mark: dict = {}

    def ask(qid, thunk):
        if time.perf_counter() - marks[-1][0] > CALIBRATE_EVERY_S:
            calibrate()
        t = time.perf_counter()
        try:
            answers[qid] = thunk()
        except Exception as exc:  # a failing query is counted, the pass goes on
            raised[qid] = f"{type(exc).__name__}: {exc}"
        seconds[qid] = time.perf_counter() - t
        after_mark[qid] = len(marks) - 1
        return answers.get(qid)

    calibrate()
    queries.WORKLOADS[request["workload"]](sc, loaded, request["inputs"], ask)
    calibrate()
    end = time.perf_counter()

    def scale(i: int) -> float:
        return CALIBRATION_REF_S / ((marks[i][1] + marks[i + 1][1]) / 2)

    out = {
        "setup_s": setup_s,
        "setup_scale": CALIBRATION_REF_S / marks[0][1],
        "query_s": seconds,
        "query_scale": {qid: scale(i) for qid, i in after_mark.items()},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "answers": answers,
        "raised": raised,
    }
    if recorder is not None:
        layers = spans.summarize(recorder.spans, end - traced_from - calibrating_s)
        layers["trace.missing"] = len(missing)
        out["layers"] = layers
        out["missing"] = missing
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
