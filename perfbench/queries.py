"""The queries of each workload, run inside a worker process.

Each workload is a function ``(sc, models, inputs, ask)``: ``sc`` holds
the sidecomp modules, ``models`` the loaded models by name, ``inputs``
the generated inputs (see ``workloads.make_inputs``).  Every query goes
through ``ask(qid, thunk)``, which runs it, records its answer as plain
JSON data, and records an exception instead when it raises.  Library
functions are always looked up on their module at call time, so traced
runs see the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import math
from fractions import Fraction


def frac(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def rate(rp) -> dict:
    return {"k": rp.k, "epsilon": rp.epsilon, "eps_at_k": rp.eps_at_k,
            "eps_at_k_plus_1": rp.eps_at_k_plus_1}


def bound(report) -> dict:
    # JSON has no infinity; an undefined correction reads "inf"
    value = report.value if math.isfinite(report.value) else str(report.value)
    return {"value": value, "valid": bool(report.valid)}


def float_curves(sc, models, inputs, ask):
    xl, nb = sc.limits, sc.bounds
    for q in inputs["pair"]:
        model, n, eps = models[q["model"]], q["n"], q["eps"]
        ask(f"pair_rate/{q['model']}/n={n}",
            lambda: rate(xl.rate_star_pair(model, n, eps)))
        ask(f"pair_bounds/{q['model']}/n={n}", lambda: {
            "converse": bound(nb.pair_converse(model, n, eps)),
            "achievability": bound(nb.pair_achievability(model, n, eps)),
        })

    def figure1():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sc.cli.main(["figure1", "--n", *map(str, inputs["figure1_n"])])
        if code != 0:
            raise RuntimeError(f"figure1 exited with code {code}")
        return out.getvalue()
    ask("figure1_csv", figure1)


def stream_ref(sc, models, inputs, ask):
    xl, nb, md = sc.limits, sc.bounds, sc.models
    model = models["fig1"]
    eps = inputs["eps"]
    rp = None
    for n in inputs["ns"]:
        y = md.SideInfoString(model.y_alphabet, tuple(inputs["y"][:n]))
        rp = ask(f"ref_rate/n={n}", lambda: rate(xl.rate_star_ref(model, y, eps)))
        ask(f"ref_bounds/n={n}", lambda: {
            "converse": bound(nb.ref_converse(model, y, eps)),
            "achievability": bound(nb.ref_achievability(model, y, eps)),
        })
    # overflow at k* and k*+1 of the longest string, read back
    # independently of the rate query that located k*
    k_star = rp["k"] if rp is not None else 0
    for shift in (0, 1):
        k = k_star + shift
        ask(f"ref_eps/n={n}/k=k*{shift:+d}",
            lambda: {"k": k, "eps": float(xl.epsilon_star_ref(model, y, k))})


def exact_oracle(sc, models, inputs, ask):
    xl, md, codec = sc.limits, sc.models, sc.codec
    for plan in inputs["plan"]:
        name, n = plan["model"], plan["n"]
        model = models[name]
        for k in range(plan["kmax"] + 1):
            ask(f"tc/{name}/n={n}/k={k}", lambda: frac(xl.epsilon_star_pair(
                model, n, k, method="typeclass", exact=True)))
        for k in plan["bf_k"]:
            ask(f"bf/{name}/n={n}/k={k}", lambda: frac(xl.epsilon_star_pair(
                model, n, k, method="bruteforce", exact=True)))
        y = md.SideInfoString(model.y_alphabet, tuple(plan["code_y"]))
        k = plan["code_k"]

        def prefix_code():
            book = codec.build_prefix_code(model, y, k)
            return {"kraft": frac(book.kraft_sum()),
                    "prefix_free": book.is_prefix_free(),
                    "excess": frac(book.excess_prob(k + 1))}
        ask(f"code/{name}/k={k}", prefix_code)
        ask(f"ref_exact/{name}/k={k}",
            lambda: frac(xl.epsilon_star_ref(model, y, k, exact=True)))


def markov_probe(sc, models, inputs, ask):
    xl, mk, md = sc.limits, sc.markov, sc.models
    for name in inputs["rates"]:
        model = models[name]

        def rates():
            an = mk.markov_rates(model)
            return {"h_rate": an.h_rate, "sigma2_rate": an.sigma2_rate,
                    "delta": an.delta}
        ask(f"rates/{name}", rates)
    p = inputs["probe"]

    def probe():
        res = mk.berry_esseen_probe(models[p["model"]], p["n_grid"], p["trials"], p["seed"])
        return {"rows": [[r.n, r.distance, r.scaled] for r in res.rows],
                "a_hat": res.a_hat}
    ask(f"probe/{p['model']}", probe)
    q = inputs["pair"]
    ask(f"pair_rate/{q['model']}/n={q['n']}",
        lambda: rate(xl.rate_star_pair(models[q["model"]], q["n"], q["eps"])))
    r = inputs["ref"]
    model = models[r["model"]]
    y = md.SideInfoString(model.y_alphabet, tuple(r["y"]))
    for k in range(len(y) + 1):
        ask(f"ref_eps/{r['model']}/n={len(y)}/k={k}",
            lambda: float(xl.epsilon_star_ref(model, y, k)))


WORKLOADS = {
    "float_curves": float_curves,
    "stream_ref": stream_ref,
    "exact_oracle": exact_oracle,
    "markov_probe": markov_probe,
}
