"""Inputs and answer checks of the four workloads.

``make_inputs`` draws every random input from the seed with the standard
library alone, so the same seed gives the same inputs on any machine.
``check`` decides which queries of one pass failed: a query fails when
it raised, when its answer breaks an invariant, or when it differs from
the recorded reference (``reference.json``).  References exist for every
seed in ``SHIPPED_SEEDS``; answers that do not depend on the seed are
compared on every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SHIPPED_SEEDS = range(16)
FLOAT_TOL = 1e-9

# the why of each workload is in BENCHMARK.json
WORKLOADS = ("float_curves", "stream_ref", "exact_oracle", "markov_probe")

# answers that depend on the models alone, not on the seed
SEED_FREE = {
    "float_curves": ("figure1_csv",),
    "stream_ref": (),
    "exact_oracle": (),
    "markov_probe": ("rates/copy_chain", "rates/indep_chains",
                     "rates/markov2x2", "rates/ymarg_nonmarkov"),
}

# pair brute force enumerates (|X||Y|)^n strings; a sixteenth of the
# library's default guard keeps one pass near one second
PAIR_STRINGS = 1 << 16
CODE_N = {2: 10, 3: 6}
EXACT_CORPUS = ("deterministic", "fig1", "nogap", "skewed34", "uniform2")
RANDOM_SHAPES = ((2, 2), (2, 3), (3, 2))
RANDOM_DENOMINATOR = 997
MARKOV_CORPUS = ("copy_chain", "indep_chains", "markov2x2", "ymarg_nonmarkov")


def _corpus_doc(name: str) -> dict:
    return json.loads((Path("models") / f"{name}.json").read_text())


def _positive_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _random_model(rng: random.Random, nx: int, ny: int) -> dict:
    """Random rational cond-i.i.d. model with distinct positive entries.

    A fixed prime denominator keeps every entry in lowest terms, and
    distinct entries keep rows from tying, so the size of the rationals
    and the number of classes, and with them the cost of exact
    arithmetic, hardly depend on the seed.
    """
    d = RANDOM_DENOMINATOR
    while True:
        rows = [_positive_composition(rng, d, nx) for _ in range(ny)]
        flat = [c for row in rows for c in row]
        if len(set(flat)) == len(flat):
            break
    return {
        "kind": "cond_iid",
        "x_alphabet": [str(i) for i in range(nx)],
        "y_alphabet": [str(i) for i in range(ny)],
        "p_x_given_y": [[f"{c}/{d}" for c in row] for row in rows],
        "p_y": [f"{c}/{d}" for c in _positive_composition(rng, d, ny)],
    }


def _exact_plan(rng: random.Random, name: str, doc: dict) -> dict:
    nx, ny = len(doc["x_alphabet"]), len(doc["y_alphabet"])
    n = 1
    while (nx * ny) ** (n + 1) <= PAIR_STRINGS:
        n += 1
    kmax = (nx**n).bit_length()
    n_code = CODE_N[nx]
    # 2^k stays below the string count minus one, where the prefix
    # code's overflow equals the one-to-one overflow at k
    k_code_max = int(math.log2(nx**n_code)) - 1
    return {
        "model": name,
        "n": n,
        "kmax": kmax,
        "bf_k": [rng.randrange(1, kmax)],
        "code_y": [rng.randrange(ny) for _ in range(n_code)],
        "code_k": rng.randint(1, k_code_max),
    }


def _markov_y(rng: random.Random, doc: dict, n: int, burn_in: int = 50) -> list[int]:
    """Side-information path of an order-1 pair chain, after a burn-in."""
    ny = len(doc["y_alphabet"])
    rows = [[float(Fraction(p)) for p in row] for row in doc["transition"]]
    state = rng.randrange(len(rows))
    ys = []
    for _ in range(burn_in + n):
        state = rng.choices(range(len(rows[state])), weights=rows[state])[0]
        ys.append(state % ny)
    return ys[burn_in:]


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of one workload; models are named by corpus file or doc."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "float_curves":
        return {
            "models": {name: {"file": f"models/{name}.json"}
                       for name in ("fig1", "skewed34")},
            "pair": [
                {"model": "fig1", "n": 150, "eps": round(rng.uniform(0.05, 0.25), 6)},
                {"model": "skewed34", "n": 10, "eps": round(rng.uniform(0.05, 0.25), 6)},
            ],
            "figure1_n": list(range(40, 501, 40)),
        }
    if workload == "stream_ref":
        p1 = float(Fraction(_corpus_doc("fig1")["p_y"][1]))
        ns = [2400, 3000]
        return {
            "models": {"fig1": {"file": "models/fig1.json"}},
            "y": [int(rng.random() < p1) for _ in range(max(ns))],
            "ns": ns,
            "eps": 0.4,
        }
    if workload == "exact_oracle":
        docs = {name: _corpus_doc(name) for name in EXACT_CORPUS}
        specs = {name: {"file": f"models/{name}.json"} for name in EXACT_CORPUS}
        for nx, ny in RANDOM_SHAPES:
            name = f"rand{nx}x{ny}"
            docs[name] = _random_model(rng, nx, ny)
            specs[name] = {"doc": docs[name]}
        return {
            "models": specs,
            "plan": [_exact_plan(rng, name, doc) for name, doc in docs.items()],
        }
    if workload == "markov_probe":
        return {
            "models": {name: {"file": f"models/{name}.json"} for name in MARKOV_CORPUS},
            "rates": list(MARKOV_CORPUS),
            "probe": {"model": "markov2x2", "n_grid": [64, 256, 1024],
                      "trials": 3000, "seed": rng.randrange(2**31)},
            "pair": {"model": "markov2x2", "n": 7,
                     "eps": round(rng.uniform(0.05, 0.25), 6)},
            "ref": {"model": "markov2x2",
                    "y": _markov_y(rng, _corpus_doc("markov2x2"), 12)},
        }
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks


def _rate_ok(rp: dict) -> bool:
    """eps_at_k_plus_1 <= eps < eps_at_k (the right part vacuous at k = 0)."""
    eps = rp["epsilon"]
    return rp["eps_at_k_plus_1"] <= eps and (rp["k"] == 0 or eps < rp["eps_at_k"])


def _bracket_ok(rate_value: float, bounds: dict) -> bool:
    """Normal-approximation bounds hold wherever they say they are valid."""
    lo, hi = bounds["converse"], bounds["achievability"]
    return ((not lo["valid"] or float(lo["value"]) <= rate_value)
            and (not hi["valid"] or rate_value <= float(hi["value"])))


def _non_increasing(values: list) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def _check_float_curves(inputs, answers, fail):
    for q in inputs["pair"]:
        key = f"{q['model']}/n={q['n']}"
        rp = answers.get(f"pair_rate/{key}")
        bounds = answers.get(f"pair_bounds/{key}")
        if rp is None:
            continue
        if not _rate_ok(rp):
            fail(f"pair_rate/{key}", "rate point breaks eps(k+1) <= eps < eps(k)")
        if bounds is not None and not _bracket_ok(rp["k"] / q["n"], bounds):
            fail(f"pair_bounds/{key}", "valid normal bound excludes the exact rate")


def _check_stream_ref(inputs, answers, fail):
    eps = inputs["eps"]
    for n in inputs["ns"]:
        rp = answers.get(f"ref_rate/n={n}")
        bounds = answers.get(f"ref_bounds/n={n}")
        if rp is None:
            continue
        if rp["epsilon"] != eps or not _rate_ok(rp):
            fail(f"ref_rate/n={n}", "rate point breaks eps(k+1) <= eps < eps(k)")
        if bounds is not None and not _bracket_ok(rp["k"] / n, bounds):
            fail(f"ref_bounds/n={n}", "valid normal bound excludes the exact rate")
    n = inputs["ns"][-1]
    rp = answers.get(f"ref_rate/n={n}")
    points = {s: answers.get(f"ref_eps/n={n}/k=k*{s:+d}") for s in (0, 1)}
    if rp is None or None in points.values():
        return
    for s, p in points.items():
        if p["k"] != rp["k"] + s:
            fail(f"ref_eps/n={n}/k=k*{s:+d}", "queried the wrong k")
    if abs(points[0]["eps"] - rp["eps_at_k"]) > FLOAT_TOL:
        fail(f"ref_eps/n={n}/k=k*+0", "disagrees with the rate query's eps_at_k")
    if abs(points[1]["eps"] - rp["eps_at_k_plus_1"]) > FLOAT_TOL:
        fail(f"ref_eps/n={n}/k=k*+1", "disagrees with the rate query's eps_at_k_plus_1")
    if not points[1]["eps"] <= points[0]["eps"]:
        fail(f"ref_eps/n={n}/k=k*+1", "overflow increases with k")


def _check_exact_oracle(inputs, answers, fail):
    for plan in inputs["plan"]:
        name, n = plan["model"], plan["n"]
        qids = [f"tc/{name}/n={n}/k={k}" for k in range(plan["kmax"] + 1)]
        curve = [answers.get(q) for q in qids]
        values = [Fraction(v) for v in curve if v is not None]
        if curve[0] is not None and Fraction(curve[0]) != 1:
            fail(qids[0], "overflow at k=0 is not the total mass 1")
        if curve[-1] is not None and Fraction(curve[-1]) != 0:
            fail(qids[-1], "overflow at k=kmax is not 0")
        if not _non_increasing(values):
            fail(qids[-1], "exact overflow increases with k")
        for k in plan["bf_k"]:
            q = f"bf/{name}/n={n}/k={k}"
            if answers.get(q) is not None and answers[q] != curve[k]:
                fail(q, "brute force and type class disagree")
        k = plan["code_k"]
        code = answers.get(f"code/{name}/k={k}")
        ref = answers.get(f"ref_exact/{name}/k={k}")
        if code is not None:
            if not code["prefix_free"] or Fraction(code["kraft"]) > 1:
                fail(f"code/{name}/k={k}", "prefix code breaks Kraft or is not prefix-free")
            if ref is not None and code["excess"] != ref:
                fail(f"code/{name}/k={k}", "prefix-code overflow differs from eps*(k)")


def _check_markov_probe(inputs, answers, fail):
    for name in inputs["rates"]:
        r = answers.get(f"rates/{name}")
        if r is not None and not (math.isfinite(r["h_rate"]) and r["sigma2_rate"] >= 0
                                  and math.isfinite(r["delta"]) and r["delta"] >= 0):
            fail(f"rates/{name}", "rates are not finite and nonnegative")
    p = inputs["probe"]
    probe = answers.get(f"probe/{p['model']}")
    if probe is not None:
        if ([row[0] for row in probe["rows"]] != p["n_grid"]
                or not all(0.0 <= row[1] <= 1.0 for row in probe["rows"])):
            fail(f"probe/{p['model']}", "probe distances outside [0, 1]")
    q = inputs["pair"]
    rp = answers.get(f"pair_rate/{q['model']}/n={q['n']}")
    if rp is not None and not _rate_ok(rp):
        fail(f"pair_rate/{q['model']}/n={q['n']}", "rate point breaks eps(k+1) <= eps < eps(k)")
    r = inputs["ref"]
    n = len(r["y"])
    qids = [f"ref_eps/{r['model']}/n={n}/k={k}" for k in range(n + 1)]
    curve = [answers.get(q) for q in qids]
    if curve[0] is not None and abs(curve[0] - 1.0) > FLOAT_TOL:
        fail(qids[0], "overflow at k=0 is not the total mass 1")
    if not _non_increasing([v for v in curve if v is not None]):
        fail(qids[-1], "overflow increases with k")


CHECKS = {
    "float_curves": _check_float_curves,
    "stream_ref": _check_stream_ref,
    "exact_oracle": _check_exact_oracle,
    "markov_probe": _check_markov_probe,
}


def matches(got, want) -> bool:
    """Equal within the float track's tolerance; ints, strings exactly."""
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= FLOAT_TOL
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k]) for k in want))
    return got == want


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def reference_for(reference: dict, workload: str, seed: int) -> dict:
    """Recorded answers this seed must reproduce, seed-free ones included."""
    want = dict(reference.get("seed_free", {}).get(workload, {}))
    want.update(reference.get("seeds", {}).get(workload, {}).get(str(seed), {}))
    return want


def check(workload: str, inputs: dict, answers: dict, raised: dict,
          reference: dict) -> dict[str, str]:
    """Failed query id -> reason, for one pass."""
    failed = {qid: f"raised {msg}" for qid, msg in raised.items()}

    def fail(qid: str, reason: str) -> None:
        failed.setdefault(qid, reason)

    CHECKS[workload](inputs, answers, fail)
    for qid, want in reference.items():
        if qid in answers and not matches(answers[qid], want):
            fail(qid, "differs from the recorded reference")
        elif qid not in answers and qid not in raised:
            fail(qid, "reference query was not asked")
    return failed
