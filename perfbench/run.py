"""Benchmark of sidecomp: four workloads through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream_ref --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

A single caller runs closed-loop passes: each pass is one fresh worker
process that imports sidecomp, loads the workload's models and runs every
query of the workload once.  Passes repeat until ``--seconds`` would be
exceeded (at least ``MIN_PASSES``).  Every answer is checked; a query
that raises or fails a check counts as failed.

With ``--trace 0`` the result carries the end-to-end metrics, medians
over passes; times are scaled to a reference machine speed measured in
each pass (see ``worker.py``).  With ``--trace 1`` untraced and traced passes alternate and
the result carries the per-layer metrics of the traced passes.  The last
line of stdout is one JSON object; the exit code is 1 when any query
failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no program, or a worker broke."""


def run_pass(workload: str, inputs: dict, trace: bool, root: Path) -> dict:
    """One worker process running every query of the workload once."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    request = json.dumps({"workload": workload, "inputs": inputs, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=request, text=True,
            capture_output=True, cwd=root, env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker took over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """All passes of one workload; returns the result object."""
    inputs = workloads.make_inputs(workload, seed)
    reference = workloads.reference_for(workloads.load_reference(), workload, seed)
    print(f"{workload}: seed {seed}, inputs sha256 {workloads.digest(inputs)}, "
          f"{len(reference)} reference answers")
    plain, traced = [], []
    attempted = failed = 0
    durations = []
    began = time.perf_counter()
    while True:
        # with tracing, untraced and traced passes alternate
        for traced_pass in ((False, True) if trace else (False,)):
            t = time.perf_counter()
            result = run_pass(workload, inputs, traced_pass, root)
            durations.append(time.perf_counter() - t)
            bad = workloads.check(workload, inputs, result["answers"],
                                  result["raised"], reference)
            attempted += len(result["query_s"])
            failed += len(bad)
            for qid, reason in sorted(bad.items()):
                print(f"  FAILED {qid}: {reason}")
            (traced if traced_pass else plain).append(result)
        elapsed = time.perf_counter() - began
        step = statistics.median(durations) * (2 if trace else 1)
        if len(plain) >= MIN_PASSES and elapsed + step > seconds:
            break

    print(f"  {len(plain)} passes, {attempted} queries attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6g}), "
          f"BLAS threads {plain[0]['blas_threads']}")
    if not trace:
        values = {
            "wall_s": query_wall(plain),
            "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']} (median of {len(plain)})")
        print(f"  unscaled: wall_s {query_wall(plain, scaled=False):.6g} s, setup_s "
              f"{statistics.median(r['setup_s'] for r in plain):.6g} s")
    else:
        metrics = _layer_metrics(traced, query_wall(plain), query_wall(traced))
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        for name in traced[0].get("missing", []):
            print(f"  missing entry point: {name}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def query_wall(runs: list[dict], scaled: bool = True) -> float:
    """Seconds to run every query once: per-query medians over passes, summed.

    Times are scaled to the reference machine speed (see ``worker.py``)
    unless ``scaled`` is false.  Taking the median per query, rather than
    of whole passes, keeps a burst of load from skewing a whole pass.
    """
    qids = set.intersection(*(set(r["query_s"]) for r in runs))
    return sum(
        statistics.median(r["query_s"][q] * (r["query_scale"][q] if scaled else 1.0)
                          for r in runs)
        for q in qids)


def _layer_metrics(traced: list[dict], plain_wall: float, traced_wall: float) -> dict:
    """Medians over traced passes; counts must agree across them."""
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name in spans.COUNTS:
            if other["layers"][name] != first[name]:
                raise BenchError(f"count {name} differs between traced passes: "
                                 f"{first[name]} vs {other['layers'][name]}")
    out = {}
    for name, unit, _ in spans.PER_LAYER:
        if unit == "count":
            value = first[name]
        elif unit in ("s", "ns"):
            # scaled to the reference machine speed like wall_s
            value = statistics.median(
                t["layers"][name] * statistics.median(t["query_scale"].values())
                for t in traced)
        else:
            value = statistics.median(t["layers"][name] for t in traced)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_frac"]["value"] = traced_wall / plain_wall - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sidecomp").is_dir() or not (root / "models").is_dir():
        print(f"error: {root} holds no sidecomp checkout (src/sidecomp, models)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), root)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
