"""Spans around sidecomp's public entry points, and the per-layer metrics.

The benchmark times layers from the outside: ``instrument`` replaces each
public module-level function named in ``ENTRY_POINTS`` (and the public
methods of ``limits.LengthLaw``) with a wrapper that records one span per
call.  Every module that imported the function by name gets the wrapper
too, so calls between modules are seen.  A name that no longer exists is
reported as missing and skipped, so refactors that delete or rename
private helpers never break the benchmark.

``summarize`` turns the recorded spans into the ``per_layer`` metrics of
``BENCHMARK.json``.  A span's self time is its duration minus the
durations of its child spans; calls are strictly nested on one thread,
so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LENGTH_LAW_METHODS = (
    "total_mass", "total_mass_exact", "excess_at_rank", "excess_at_rank_exact",
    "epsilon_star", "epsilon_star_exact", "info_tail", "info_tail_exact",
    "rate_point",
)

# layer -> (module, public names); "LengthLaw.x" names a method
ENTRY_POINTS = {
    "limits.law_build": ("sidecomp.limits", (
        "length_law_typeclass", "length_law_bruteforce")),
    "limits.rank_query": ("sidecomp.limits", tuple(
        f"LengthLaw.{m}" for m in LENGTH_LAW_METHODS)),
    "limits.ref_query": ("sidecomp.limits", (
        "epsilon_star_ref", "rate_star_ref", "epsilon_star_prefix")),
    "limits.pair_query": ("sidecomp.limits", ("epsilon_star_pair", "rate_star_pair")),
    "markov.rates": ("sidecomp.markov", ("markov_rates",)),
    "markov.sample": ("sidecomp.markov", ("sample_path_statistics", "simulate_pair")),
    "markov.probe": ("sidecomp.markov", ("berry_esseen_probe",)),
    "models.load": ("sidecomp.models", ("load_model", "model_from_dict", "validate")),
    "models.derive": ("sidecomp.models", (
        "derive_y_chain", "stationary_context_law", "embed_cond_iid")),
    "codec": ("sidecomp.codec", (
        "build_code", "build_prefix_code", "encode", "decode",
        "check_pointwise_achievability", "check_counting_sandwich")),
    "cli": ("sidecomp.cli", ("main",)),
    "measures": ("sidecomp.measures", (
        "measures", "per_y_profile", "h_n_sigma_n", "m3_and_mu3",
        "dispersion_gap", "cond_info_density", "sample_cond_iid")),
    "bounds": ("sidecomp.bounds", (
        "ref_converse", "ref_achievability", "pair_converse",
        "pair_achievability", "markov_bounds", "three_term_rate")),
}

# every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("limits.law_build.calls", "count", "lower"),
    ("limits.law_build.self_s", "s", "lower"),
    ("limits.law_build.classes", "count", "lower"),
    ("limits.rank_query.calls", "count", "lower"),
    ("limits.rank_query.self_s", "s", "lower"),
    ("limits.ref_query.calls", "count", "lower"),
    ("limits.ref_query.self_s", "s", "lower"),
    ("limits.pair_query.calls", "count", "lower"),
    ("limits.pair_query.self_s", "s", "lower"),
    ("limits.pair_query.laws_built", "count", "lower"),
    ("limits.pair_query.useful_ratio", "ratio", "higher"),
    ("limits.route.bruteforce", "count", "lower"),
    ("limits.route.typeclass", "count", "lower"),
    ("limits.route.stream", "count", "lower"),
    ("markov.rates.calls", "count", "lower"),
    ("markov.rates.self_s", "s", "lower"),
    ("markov.sample.self_s", "s", "lower"),
    ("markov.sample.steps", "count", "lower"),
    ("markov.sample.ns_per_step", "ns", "lower"),
    ("markov.probe.self_s", "s", "lower"),
    ("models.load.self_s", "s", "lower"),
    ("models.derive.self_s", "s", "lower"),
    ("codec.calls", "count", "lower"),
    ("codec.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("measures.self_s", "s", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.missing", "count", "lower"),
)

# metrics that must repeat exactly across traced runs at one seed
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "attrs")

    def __init__(self, layer: str, name: str, parent: int | None,
                 start: float, end: float = 0.0, attrs: dict | None = None):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}


class Recorder:
    """Keeps every span of one process in memory, in call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, layer, name, fn, args, kwargs, describe):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = Span(layer, name, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if describe is not None:
            span.attrs = describe(args, kwargs, result)
        return result


def _law_classes(fn):
    return lambda args, kwargs, law: {"classes": law.num_classes}


def _pair_key(fn):
    sig = inspect.signature(fn)

    def describe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        track = "exact" if a.get("exact") else "float"
        return {"key": (id(a["model"]), a["n"], track)}
    return describe


def _sample_steps(fn):
    sig = inspect.signature(fn)

    def describe(args, kwargs, result):
        a = sig.bind(*args, **kwargs).arguments
        return {"steps": a["n"] * a.get("trials", 1)}
    return describe


DESCRIBE = {
    "limits.law_build": _law_classes,
    "limits.pair_query": _pair_key,
    "markov.sample": _sample_steps,
}


def _wrap(recorder: Recorder, layer: str, name: str, fn):
    describe = DESCRIBE[layer](fn) if layer in DESCRIBE else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, name, fn, args, kwargs, describe)
    return wrapper


def instrument(recorder: Recorder, entry_points: dict = ENTRY_POINTS) -> list[str]:
    """Wrap every entry point; return the names that were not found."""
    missing = []
    loaded = [m for n, m in list(sys.modules.items())
              if n == "sidecomp" or n.startswith("sidecomp.")]
    for layer, (module_name, names) in entry_points.items():
        module = sys.modules.get(module_name)
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                missing.append(f"{module_name}.{name}")
                continue
            wrapper = _wrap(recorder, layer, name, fn)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
    return missing


def summarize(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    ``trace.overhead_frac`` needs an untraced pass and ``trace.missing``
    the instrumenting step, so both are left at 0 here.
    """
    n = len(spans)
    child_s = [0.0] * n
    builds_law = [False] * n
    for i in range(n - 1, -1, -1):
        span = spans[i]
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
            if builds_law[i] or span.layer == "limits.law_build":
                builds_law[span.parent] = True
    out = {name: 0 for name, _, _ in PER_LAYER}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    pair_keys = set()
    for i, span in enumerate(spans):
        calls[span.layer] = calls.get(span.layer, 0) + 1
        own = span.end - span.start - child_s[i]
        self_s[span.layer] = self_s.get(span.layer, 0.0) + own
        if span.layer == "limits.law_build":
            out["limits.law_build.classes"] += span.attrs.get("classes", 0)
            route = ("limits.route.bruteforce" if span.name == "length_law_bruteforce"
                     else "limits.route.typeclass")
            out[route] += 1
        elif (span.layer == "limits.ref_query" and span.name != "epsilon_star_prefix"
              and not builds_law[i]):
            out["limits.route.stream"] += 1
        elif span.layer == "limits.pair_query" and builds_law[i]:
            out["limits.pair_query.laws_built"] += 1
            pair_keys.add(span.attrs.get("key"))
        elif span.layer == "markov.sample":
            out["markov.sample.steps"] += span.attrs.get("steps", 0)
    for layer in ENTRY_POINTS:
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] = calls.get(layer, 0)
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    built = out["limits.pair_query.laws_built"]
    out["limits.pair_query.useful_ratio"] = len(pair_keys) / built if built else 0.0
    steps = out["markov.sample.steps"]
    out["markov.sample.ns_per_step"] = (
        out["markov.sample.self_s"] * 1e9 / steps if steps else 0.0)
    out["trace.coverage"] = sum(self_s.values()) / wall_s if wall_s > 0 else 0.0
    return out
