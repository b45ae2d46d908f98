"""Tests of the benchmark's own arithmetic, inputs and answer checks.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import run
import spans
import workloads
from conftest import BENCH, ROOT


def span(layer, name, parent, start, end, **attrs):
    return spans.Span(layer, name, parent, start, end, attrs)


def test_self_time_subtracts_children_only():
    tree = [
        span("limits.pair_query", "rate_star_pair", None, 0.0, 10.0, key=("m", 5, "float")),
        span("limits.law_build", "length_law_typeclass", 0, 1.0, 4.0, classes=7),
        span("limits.rank_query", "epsilon_star", 1, 2.0, 3.0),
        span("limits.rank_query", "epsilon_star", 0, 5.0, 6.0),
        span("cli", "main", None, 10.0, 12.0),
    ]
    out = spans.summarize(tree, wall_s=16.0)
    assert out["limits.pair_query.self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert out["limits.law_build.self_s"] == pytest.approx(3.0 - 1.0)
    assert out["limits.rank_query.self_s"] == pytest.approx(2.0)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["limits.rank_query.calls"] == 2
    assert out["limits.law_build.classes"] == 7
    assert out["limits.route.typeclass"] == 1
    # self times partition the top-level spans: 12 of 16 seconds covered
    assert out["trace.coverage"] == pytest.approx(12.0 / 16.0)


def test_stream_route_is_a_ref_query_without_a_law_build():
    tree = [
        span("limits.ref_query", "rate_star_ref", None, 0.0, 2.0),
        span("limits.ref_query", "epsilon_star_ref", None, 2.0, 4.0),
        span("limits.law_build", "length_law_bruteforce", 1, 2.5, 3.0, classes=3),
    ]
    out = spans.summarize(tree, wall_s=4.0)
    assert out["limits.route.stream"] == 1
    assert out["limits.route.bruteforce"] == 1
    assert out["limits.ref_query.self_s"] == pytest.approx(3.5)


def test_useful_ratio_counts_distinct_curves_per_law_building_query():
    tree = []
    keys = [("a", 10, "exact")] * 3 + [("b", 8, "float")]
    for key in keys:
        parent = len(tree)
        tree.append(span("limits.pair_query", "epsilon_star_pair", None, 0.0, 1.0, key=key))
        tree.append(span("limits.law_build", "length_law_typeclass", parent, 0.1, 0.2))
    # a query answered without building a law (say, from a cached curve)
    tree.append(span("limits.pair_query", "epsilon_star_pair", None, 1.0, 1.1,
                     key=("a", 10, "exact")))
    out = spans.summarize(tree, wall_s=5.0)
    assert out["limits.pair_query.calls"] == 5
    assert out["limits.pair_query.laws_built"] == 4
    assert out["limits.pair_query.useful_ratio"] == pytest.approx(2 / 4)


def test_instrument_wraps_every_binding_and_reports_missing_names(monkeypatch):
    lib = types.ModuleType("sidecomp._bench_lib")
    user = types.ModuleType("sidecomp._bench_user")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", lib.__dict__)
    user.inner = lib.inner
    monkeypatch.setitem(sys.modules, lib.__name__, lib)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    recorder = spans.Recorder()
    missing = spans.instrument(recorder, {
        "codec": (lib.__name__, ("inner", "gone")),
        "cli": (lib.__name__, ("outer",)),
    })
    assert missing == [f"{lib.__name__}.gone"]
    assert lib.outer(1) == 4 and user.inner(1) == 2
    names = [(s.name, s.parent) for s in recorder.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", None)]


def test_benchmark_json_names_every_metric_the_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        spans.PER_LAYER)


def test_inputs_repeat_per_seed_and_differ_between_seeds(at_root):
    for w in workloads.WORKLOADS:
        a, b = workloads.make_inputs(w, 7), workloads.make_inputs(w, 7)
        assert workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(a) != workloads.digest(workloads.make_inputs(w, 8))


def _reference_case(workload, seed):
    reference = workloads.reference_for(workloads.load_reference(), workload, seed)
    return workloads.make_inputs(workload, seed), dict(reference), reference


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_recorded_answers_pass_the_checker(at_root, workload):
    inputs, answers, reference = _reference_case(workload, 0)
    assert workloads.check(workload, inputs, answers, {}, reference) == {}


def test_checker_fails_a_rate_one_bit_too_long(at_root):
    inputs, answers, reference = _reference_case("float_curves", 0)
    qid = "pair_rate/fig1/n=150"
    answers[qid] = dict(answers[qid], k=answers[qid]["k"] + 1)
    assert set(workloads.check("float_curves", inputs, answers, {}, reference)) == {qid}


def test_checker_fails_an_exact_value_off_by_one_over_its_denominator(at_root):
    inputs, answers, reference = _reference_case("exact_oracle", 0)
    plan = inputs["plan"][1]
    k = next(k for k in range(1, plan["kmax"]) if k not in plan["bf_k"])
    qid = f"tc/{plan['model']}/n={plan['n']}/k={k}"
    value = Fraction(answers[qid])
    answers[qid] = str(value + Fraction(1, value.denominator))
    assert set(workloads.check("exact_oracle", inputs, answers, {}, reference)) == {qid}


def test_checker_without_reference_still_compares_the_oracles(at_root):
    inputs, answers, _ = _reference_case("exact_oracle", 0)
    plan = inputs["plan"][0]
    qid = f"bf/{plan['model']}/n={plan['n']}/k={plan['bf_k'][0]}"
    answers[qid] = str(Fraction(answers[qid]) + Fraction(1, 10**9))
    failed = workloads.check("exact_oracle", inputs, answers, {}, {})
    assert failed == {qid: "brute force and type class disagree"}


def test_checker_counts_a_raised_query(at_root):
    inputs, answers, reference = _reference_case("markov_probe", 0)
    qid = "pair_rate/markov2x2/n=7"
    del answers[qid]
    failed = workloads.check("markov_probe", inputs, answers, {qid: "ValueError: x"},
                             reference)
    assert set(failed) == {qid}


def test_traced_counts_repeat_exactly(at_root):
    inputs = workloads.make_inputs("markov_probe", 3)
    first, second = (run.run_pass("markov_probe", inputs, True, at_root)["layers"]
                     for _ in range(2))
    assert {n: first[n] for n in spans.COUNTS} == {n: second[n] for n in spans.COUNTS}
    assert first["markov.sample.steps"] > 0
    assert first["trace.missing"] == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "stream_ref",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
