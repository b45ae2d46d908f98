import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidecomp import markov, models
from sidecomp.markov import (
    ZChain,
    _initial_context_pmf,
    _simulate_paths,
    berry_esseen_probe,
    block_function,
    build_z_chain,
    markov_rates,
    sample_path_statistics,
    simulate_pair,
)
from sidecomp.measures import cdf_rows, inverse_cdf_table, measures
from sidecomp.models import (
    _stationary_of_matrix,
    closed_classes,
    derive_y_chain,
    embed_cond_iid,
    model_from_dict,
    stationary_context_law,
)

from tests.conftest import PERIODIC_CHAIN, REDUCIBLE_CHAIN, pair_chains


def _reference_walk(model, trials, steps, rng):
    """Contexts of the walk that compares each uniform with a whole CDF row."""
    ctx = rng.choice(model.num_contexts, size=trials, p=_initial_context_pmf(model))
    contexts = [ctx]
    cum = cdf_rows(model.transition_f)
    for _ in range(steps):
        u = rng.random(trials)
        ctx = model.shift_context(ctx, (u[:, None] > cum[ctx]).sum(axis=1))
        contexts.append(ctx)
    return contexts


def _reference_paths(model, n, trials, rng):
    d, S = model.order, model.num_pair_symbols
    ny = len(model.y_alphabet)
    contexts = _reference_walk(model, trials, max(n - d, 0), rng)
    sym = np.empty((trials, n), dtype=np.int64)
    head = np.array([model.context_symbols(c) for c in range(model.num_contexts)])
    sym[:, :min(d, n)] = head[contexts[0]][:, :min(d, n)]
    for i, ctx in enumerate(contexts[1:], d):
        sym[:, i] = ctx % S
    return sym // ny, sym % ny


def _reference_statistics(model, n, trials, rng, analysis):
    """(info, window_sum) with the information step gathered per step."""
    d, S = model.order, model.num_pair_symbols
    ny = len(model.y_alphabet)
    init = _initial_context_pmf(model)
    y_context = model._y_context
    with np.errstate(divide="ignore", invalid="ignore"):
        lg_t = np.log2(model.transition_f)
        lg_py = np.log2(analysis.y_chain.transition)
        lg_init = np.log2(init)
        lg_ymass = np.log2(np.bincount(y_context, weights=init))
        contexts = _reference_walk(model, trials, n, rng)
        info = lg_ymass[y_context[contexts[0]]] - lg_init[contexts[0]]
        window = np.zeros(trials)
        for i, (ctx, nxt) in enumerate(zip(contexts, contexts[1:]), d):
            s = nxt % S
            step = lg_py[y_context[ctx], s % ny] - lg_t[ctx, s]
            window += step
            if i < n:
                info += step
    return info, window


def _reference_digraph(model):
    S = model.num_pair_symbols
    return [[model.shift_context(c, s) for s in range(S) if model.transition[c][s] > 0]
            for c in range(model.num_contexts)]


def _reference_context_matrix(model):
    """(closed class, context transition matrix on it), by a loop."""
    S = model.num_pair_symbols
    members = closed_classes(_reference_digraph(model))[0]
    pos = {c: i for i, c in enumerate(members)}
    P = np.zeros((len(members), len(members)))
    for i, c in enumerate(members):
        for s in range(S):
            p = model.transition[c][s]
            if p > 0:
                P[i, pos[model.shift_context(c, s)]] += float(p)
    return members, P


def _reference_stationary(model):
    """Stationary context law with its matrix built by a loop."""
    members, P = _reference_context_matrix(model)
    out = np.zeros(model.num_contexts)
    out[members] = _stationary_of_matrix(P)
    return out


def _lstsq_stationary(P):
    """pi P = pi with sum(pi) = 1 as one least-squares system."""
    m = P.shape[0]
    b = np.zeros(m + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(np.vstack([P.T - np.eye(m), np.ones((1, m))]), b, rcond=None)[0]


def _reference_y_chain(model, pi):
    """(transition, markovianity defect) of the derived y-chain, by loops
    over contexts and pair symbols into dicts."""
    ny = len(model.y_alphabet)
    nctx_y = ny**model.order
    y_context = model._y_context
    pi_y = np.zeros(nctx_y)
    joint_next = np.zeros((nctx_y, ny))
    for c in range(model.num_contexts):
        if pi[c] == 0:
            continue
        pi_y[y_context[c]] += pi[c]
        for s in range(model.num_pair_symbols):
            p = model.transition[c][s]
            if p > 0:
                joint_next[y_context[c], s % ny] += pi[c] * float(p)
    trans = np.zeros((nctx_y, ny))
    nz = pi_y > 0
    trans[nz] = joint_next[nz] / pi_y[nz, None]
    deep = {}
    for c in range(model.num_contexts):
        if pi[c] == 0:
            continue
        for s1 in range(model.num_pair_symbols):
            p1 = model.transition[c][s1]
            if p1 == 0:
                continue
            c2 = model.shift_context(c, s1)
            for s2 in range(model.num_pair_symbols):
                p2 = model.transition[c2][s2]
                if p2 == 0:
                    continue
                key = (y_context[c], s1 % ny, s2 % ny)
                deep[key] = deep.get(key, 0.0) + pi[c] * float(p1) * float(p2)
    head = {}
    for (yc, y1, y2), mass in deep.items():
        head[(yc, y1)] = head.get((yc, y1), 0.0) + mass
    defect = 0.0
    for (yc, y1), h in head.items():
        if h > 0:
            for y2 in range(ny):
                mass = deep.get((yc, y1, y2), 0.0)
                defect = max(defect, abs(mass / h - trans[(yc * ny + y1) % nctx_y, y2]))
    return trans, defect


def _reference_block_function(model, y_chain):
    ny = len(model.y_alphabet)
    table = {}
    for ctx in range(model.num_contexts):
        for s in range(model.num_pair_symbols):
            p = model.transition_f[ctx, s]
            py = y_chain.transition[model._y_context[ctx], s % ny]
            if p > 0.0 and py > 0.0:
                table[model.context_symbols(ctx) + (s,)] = math.log2(py) - math.log2(p)
    return table


def _reference_z_chain(model, pi_ctx, f_table):
    """(states, transition, stationary, f) of the block chain, by loops."""
    states, weights, pos = [], [], {}
    for ctx in np.flatnonzero(pi_ctx > 0.0):
        for s in range(model.num_pair_symbols):
            p = model.transition_f[ctx, s]
            if p > 0.0:
                pos[(int(ctx), s)] = len(states)
                states.append(model.context_symbols(int(ctx)) + (s,))
                weights.append(float(pi_ctx[ctx]) * float(p))
    P = np.zeros((len(states), len(states)))
    for (ctx, s), i in pos.items():
        nxt = model.shift_context(ctx, s)
        for s2 in range(model.num_pair_symbols):
            if model.transition_f[nxt, s2] > 0.0:
                P[i, pos[(nxt, s2)]] = model.transition_f[nxt, s2]
    pi = np.array(weights)
    pi /= pi.sum()
    return tuple(states), P, pi, np.array([f_table[b] for b in states])


def _reference_block_rates(P, pi, f):
    """(h, sigma^2) of f on the block chain, by a dense Poisson solve."""
    h = float(pi @ f)
    fbar = f - h
    m = len(pi)
    g = np.linalg.solve(np.eye(m) - P + np.outer(np.ones(m), pi), fbar)
    return h, float(pi @ (fbar * fbar) + 2.0 * (pi @ (fbar * (P @ g))))


def _assert_matches_block_chain(model, analysis):
    """Rates of the context-chain solve against the block chain's, and
    the square stationary solve against least squares."""
    f_table = _reference_block_function(model, analysis.y_chain)
    _, P, pi, f = _reference_z_chain(model, model.stationary_f, f_table)
    h, sigma2 = _reference_block_rates(P, pi, f)
    assert _same_bits(analysis.h_rate, h)
    assert abs(analysis.sigma2_rate - sigma2) <= 1e-12 * abs(sigma2)

    _, P_ctx = _reference_context_matrix(model)
    pi_ctx = _stationary_of_matrix(P_ctx)
    assert np.abs(pi_ctx @ P_ctx - pi_ctx).sum() <= 1e-12
    assert np.abs(pi_ctx - _lstsq_stationary(P_ctx)).max() <= 1e-14


def _reference_delta(model, pi_ctx, f_table):
    """Boundary constant by a recursive walk over every path of d pair
    symbols from every positive-stationary context."""
    init = model.initial_f
    y_mass = np.bincount(model._y_context, weights=init)
    t1_max = 0.0
    for ctx in np.flatnonzero(init > 0.0):
        t1 = math.log2(y_mass[model._y_context[ctx]]) - math.log2(float(init[ctx]))
        t1_max = max(t1_max, t1)
    best = worst = 0.0

    def walk(ctx, depth, acc):
        nonlocal best, worst
        if depth == model.order:
            best, worst = max(best, acc), min(worst, acc)
            return
        for s in range(model.num_pair_symbols):
            fv = f_table.get(model.context_symbols(ctx) + (s,))
            if model.transition_f[ctx, s] > 0.0 and fv is not None:
                walk(model.shift_context(ctx, s), depth + 1, acc + fv)

    for ctx in np.flatnonzero(pi_ctx > 0.0):
        walk(int(ctx), 0, 0.0)
    return t1_max + max(best, -worst)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _quiet_rates(model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return markov_rates(model)


class TestRates:
    def test_embedded_matches_single_letter(self, fig1):
        # The long-run rates of the embedded chain must reproduce the
        # single-letter conditional entropy and varentropy.
        emb = embed_cond_iid(fig1)
        ms = measures(fig1)
        analysis = markov_rates(emb)
        assert analysis.h_rate == pytest.approx(ms.h_xy, abs=1e-9)
        assert analysis.sigma2_rate == pytest.approx(ms.sigma2, abs=1e-9)

    def test_embedded_skewed_model(self, corpus_models):
        model = corpus_models["skewed34"]
        emb = embed_cond_iid(model)
        ms = measures(model)
        analysis = markov_rates(emb)
        assert analysis.h_rate == pytest.approx(ms.h_xy, abs=1e-9)
        assert analysis.sigma2_rate == pytest.approx(ms.sigma2, abs=1e-9)

    def test_embedded_fig1_boundary_constant(self, fig1):
        # [DERIVED] worst initial term plus worst trailing window
        analysis = markov_rates(embed_cond_iid(fig1))
        assert analysis.delta == pytest.approx(6.643856189774725, abs=1e-9)

    def test_markov2x2_frozen(self, corpus_models):
        analysis = markov_rates(corpus_models["markov2x2"])
        assert analysis.h_rate == pytest.approx(0.738498307647, abs=1e-9)
        assert analysis.sigma2_rate == pytest.approx(0.664314743388, abs=1e-9)
        assert analysis.delta == pytest.approx(5.429262139, abs=1e-6)
        assert analysis.y_chain.markovianity_defect <= 1e-12

    def test_copy_chain_degenerate(self, corpus_models):
        # x determined by y: zero conditional entropy and variance
        analysis = markov_rates(corpus_models["copy_chain"])
        assert abs(analysis.h_rate) <= 1e-12
        assert abs(analysis.sigma2_rate) <= 1e-12

    def test_indep_chains_entropy_rate(self, corpus_models):
        # [DERIVED] independent X and Y chains: side information is
        # useless and the rate is the X entropy rate, exactly 6/7 here.
        analysis = markov_rates(corpus_models["indep_chains"])
        assert analysis.h_rate == pytest.approx(6 / 7, abs=1e-10)

    def test_nonmarkov_marginal_warns(self, corpus_models):
        model = corpus_models["ymarg_nonmarkov"]
        with pytest.warns(RuntimeWarning):
            analysis = markov_rates(model)
        assert analysis.y_chain.markovianity_defect == pytest.approx(
            0.108092, abs=1e-5
        )
        assert analysis.h_rate == pytest.approx(0.351207, abs=1e-5)
        assert analysis.sigma2_rate == pytest.approx(0.940232, abs=1e-5)

    @pytest.mark.parametrize("doc, message", [
        (PERIODIC_CHAIN, "pair context chain is periodic"),
        (REDUCIBLE_CHAIN, "context chain is not irreducible; validate the model"),
    ])
    def test_non_ergodic_chain_raises(self, doc, message):
        with pytest.raises(ValueError) as exc:
            markov_rates(model_from_dict(doc))
        assert str(exc.value) == message


class TestBlockFunction:
    def test_embedded_block_is_single_letter_info(self, fig1):
        # For the embedded chain the block value collapses to
        # -log2 P(x2 | y2) independent of the leading block symbol.
        emb = embed_cond_iid(fig1)
        table = block_function(emb)
        assert len(table) == 16
        for (s1, s2), val in table.items():
            x2, y2 = emb.pair_split(s2)
            assert val == pytest.approx(
                -math.log2(float(fig1.p_x_given_y[y2][x2])), abs=1e-12
            )

    def test_z_chain_is_stochastic(self, corpus_models):
        model = corpus_models["markov2x2"]
        zc = build_z_chain(model, markov_rates(model).y_chain)
        assert isinstance(zc, ZChain)
        assert np.allclose(zc.transition.sum(axis=1), 1.0, atol=1e-12)
        assert zc.stationary.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(zc.f).all()


class TestEdgeTable:
    """The array passes of the Markov analysis against the loops they replace."""

    # pair symbols (a,0), (a,1), (a,2), (b,0), (b,1), (b,2): from y-context
    # 0, y1 = 2 leads only to context (a,2), which never emits y = 1,
    # though context (b,2) does; so the key (0, 2, 1) has head mass but no
    # path reaches it, and its gap of 0.40 exceeds the 0.30 of the keys reached
    _R = ["1/2", "0", "1/2", "0", "0", "0"]
    UNSEEN_KEY = {
        "kind": "markov_pair", "order": 1, "x_alphabet": ["a", "b"],
        "y_alphabet": ["0", "1", "2"],
        "transition": [_R, _R, ["1/3", "0", "0", "0", "0", "2/3"], _R, _R,
                       ["1/2", "0", "0", "0", "1/2", "0"]],
    }

    @settings(max_examples=60)
    @given(model=pair_chains(max_order=3, pool_size=None, initial=True))
    @example(model=model_from_dict(UNSEEN_KEY))
    def test_random_chains_match_reference_loops(self, model):
        with mock.patch.object(models, "stationary_context_law",
                               wraps=stationary_context_law) as solve, \
                mock.patch.object(markov, "_z_chain", wraps=markov._z_chain) as blocks:
            analysis = _quiet_rates(model)
            assert analysis.sigma2_rate >= 0.0
            assert blocks.call_count == 0
            assert analysis.z_chain is analysis.z_chain
            assert blocks.call_count == 1
        assert solve.call_count == 1

        assert model.context_digraph() == _reference_digraph(model)
        pi = _reference_stationary(model)
        assert _same_bits(model.stationary_f, pi)
        assert _same_bits(stationary_context_law(model), pi)
        trans, defect = _reference_y_chain(model, pi)
        for y_chain in (analysis.y_chain, derive_y_chain(model)):
            assert _same_bits(y_chain.transition, trans)
            # the loops sum the deep masses per key in first-visit order;
            # the defect compares conditional probabilities, at most 1, so
            # the bound is 4 ulp at that scale
            assert abs(y_chain.markovianity_defect - defect) <= 4 * 2.0**-53

        f_table = _reference_block_function(model, analysis.y_chain)
        for table in (analysis.block_f, block_function(model)):
            assert list(table.items()) == list(f_table.items())
        states, P, stationary, f = _reference_z_chain(model, pi, f_table)
        for zc in (analysis.z_chain, build_z_chain(model)):
            assert zc.states == states
            assert _same_bits(zc.transition, P)
            assert _same_bits(zc.stationary, stationary)
            assert _same_bits(zc.f, f)
        assert _same_bits(analysis.delta, _reference_delta(model, pi, f_table))
        _assert_matches_block_chain(model, analysis)

    @pytest.mark.parametrize("name", ["copy_chain", "indep_chains", "markov2x2",
                                      "ymarg_nonmarkov"])
    def test_corpus_rates_match_block_chain(self, corpus_models, name):
        model = corpus_models[name]
        _assert_matches_block_chain(model, _quiet_rates(model))

    def test_unseen_key_counts_in_the_defect(self):
        model = model_from_dict(self.UNSEEN_KEY)
        assert derive_y_chain(model).markovianity_defect == pytest.approx(0.40, abs=1e-12)
        assert _reference_y_chain(model, _reference_stationary(model))[1] == pytest.approx(
            0.40, abs=1e-12)


class TestPathSampling:
    def test_simulate_pair_shapes_and_determinism(self, corpus_models):
        model = corpus_models["markov2x2"]
        x1, y1 = simulate_pair(model, 50, seed=3)
        x2, y2 = simulate_pair(model, 50, seed=3)
        assert x1.shape == y1.shape == (50,)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert set(np.unique(x1)) <= {0, 1}
        assert set(np.unique(y1)) <= {0, 1}

    def test_boundary_gap_bounded_by_delta(self, corpus_models, fig1):
        # The sampled |info - window| gap must never exceed delta.
        cases = [
            embed_cond_iid(fig1),
            corpus_models["markov2x2"],
            corpus_models["indep_chains"],
        ]
        for model in cases:
            analysis = markov_rates(model)
            stats = sample_path_statistics(model, 30, 10000, seed=11, analysis=analysis)
            gap = np.abs(stats.info - stats.window_sum).max()
            assert gap <= analysis.delta + 1e-9

    def test_long_run_moments_match_rates(self, corpus_models):
        model = corpus_models["markov2x2"]
        analysis = markov_rates(model)
        n, trials = 2048, 2000
        stats = sample_path_statistics(model, n, trials, seed=5, analysis=analysis)
        assert stats.info.mean() / n == pytest.approx(analysis.h_rate, abs=0.01)
        assert stats.info.var() / n == pytest.approx(analysis.sigma2_rate, abs=0.08)

    def test_statistics_deterministic(self, corpus_models):
        model = corpus_models["markov2x2"]
        a = sample_path_statistics(model, 40, 500, seed=9)
        b = sample_path_statistics(model, 40, 500, seed=9)
        assert np.array_equal(a.info, b.info)
        assert np.array_equal(a.window_sum, b.window_sum)


class TestTableWalk:
    """The table walk draws what the per-step comparison walk draws."""

    # dyadic rows with zero entries: every CDF value below 1 is exact and
    # shared with another row
    ROWS = [
        ["1/4", "0", "1/2", "1/4"],
        ["1/2", "1/4", "0", "1/4"],
        ["1/4", "1/4", "1/4", "1/4"],
        ["1/2", "0", "0", "1/2"],
    ]

    class LevelDraws:
        """A generator whose uniforms cycle through fixed values, in one
        stream whatever the shape of each draw."""

        def __init__(self, rng, values):
            self._rng = rng
            self._values = values
            self._drawn = 0

        def choice(self, *args, **kwargs):
            return self._rng.choice(*args, **kwargs)

        def random(self, size):
            count = int(np.prod(size))
            idx = (self._drawn + np.arange(count)) % len(self._values)
            self._drawn += count
            return self._values[idx].reshape(size)

    def _tie_model(self):
        return model_from_dict({
            "kind": "markov_pair", "order": 1,
            "x_alphabet": ["0", "1"], "y_alphabet": ["0", "1"],
            "transition": self.ROWS, "initial": ["1/4"] * 4,
        })

    @settings(max_examples=60)
    @given(model=pair_chains(), n=st.integers(2, 12), trials=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_random_chains_match_reference_walk(self, model, n, trials, seed):
        analysis = _quiet_rates(model)
        stats = sample_path_statistics(model, n, trials, seed, analysis)
        info, window = _reference_statistics(
            model, n, trials, np.random.default_rng(seed), analysis)
        np.testing.assert_array_equal(stats.info, info)
        np.testing.assert_array_equal(stats.window_sum, window)

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        xs, ys = _simulate_paths(model, n, trials, rng)
        ref_xs, ref_ys = _reference_paths(model, n, trials, ref_rng)
        np.testing.assert_array_equal(xs, ref_xs)
        np.testing.assert_array_equal(ys, ref_ys)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_uniforms_on_cdf_values_break_ties_like_strict_comparison(
        self, monkeypatch
    ):
        model = self._tie_model()
        cum = cdf_rows(model.transition_f)
        values = np.unique(cum[cum < 1.0])
        position, sym = inverse_cdf_table(model.transition_f)
        for r in range(len(self.ROWS)):
            assert (sym[r, position(values)] == (values[:, None] > cum[r]).sum(1)).all()
        # u = 1/2 on the row (1/2, 0, 0, 1/2) draws symbol 0, not a
        # zero-mass symbol
        assert sym[3, position(np.array([0.5]))] == [0]

        n, trials = 13, 7
        rng = self.LevelDraws(np.random.default_rng(1), values)
        ref_rng = self.LevelDraws(np.random.default_rng(1), values)
        for got, ref in zip(_simulate_paths(model, n, trials, rng),
                            _reference_paths(model, n, trials, ref_rng)):
            np.testing.assert_array_equal(got, ref)

        analysis = _quiet_rates(model)
        info, window = _reference_statistics(
            model, n, trials, self.LevelDraws(np.random.default_rng(2), values),
            analysis)
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: self.LevelDraws(default_rng(seed), values))
        stats = sample_path_statistics(model, n, trials, 2, analysis)
        np.testing.assert_array_equal(stats.info, info)
        np.testing.assert_array_equal(stats.window_sum, window)

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_changes_neither_draws_nor_generator_state(
        self, corpus_models, monkeypatch, block
    ):
        # 11 and 10 steps: a multiple of neither block size
        model, n, trials = corpus_models["markov2x2"], 11, 50
        analysis = markov_rates(model)

        def run():
            rng = np.random.default_rng(4)
            paths = _simulate_paths(model, n, trials, rng)
            stats = sample_path_statistics(model, n, trials, 4, analysis)
            return paths, stats, rng.bit_generator.state

        (xs, ys), stats, state = run()
        monkeypatch.setattr(markov, "_DRAW_BLOCK", block)
        (bxs, bys), bstats, bstate = run()
        assert np.array_equal(xs, bxs) and np.array_equal(ys, bys)
        assert np.array_equal(stats.info, bstats.info)
        assert np.array_equal(stats.window_sum, bstats.window_sum)
        assert state == bstate


class TestProbe:
    def test_probe_rows_and_determinism(self, corpus_models):
        model = corpus_models["markov2x2"]
        r1 = berry_esseen_probe(model, [64, 256], trials=4000, seed=0)
        r2 = berry_esseen_probe(model, [64, 256], trials=4000, seed=0)
        assert r1 == r2
        assert [row.n for row in r1.rows] == [64, 256]
        for row in r1.rows:
            assert 0 < row.distance < 1
            assert row.scaled == pytest.approx(row.distance * math.sqrt(row.n))
        assert r1.a_hat == max(row.scaled for row in r1.rows)

    def test_probe_rejects_degenerate(self, corpus_models):
        with pytest.raises(ValueError):
            berry_esseen_probe(corpus_models["copy_chain"], [16], trials=100, seed=0)


class TestSamplerRange:
    # each row sums to 0.9999999999999998 in floats, below the largest
    # uniform draw a generator can return
    ROW = ["2/7"] + ["1/7"] * 5

    class TopDraws:
        """A generator whose uniform draws are all the largest double below 1."""

        def __init__(self, rng):
            self._rng = rng

        def choice(self, *args, **kwargs):
            return self._rng.choice(*args, **kwargs)

        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    def _model(self):
        return model_from_dict({
            "kind": "markov_pair", "order": 1,
            "x_alphabet": ["0", "1", "2"], "y_alphabet": ["0", "1"],
            "transition": [self.ROW] * 6, "initial": ["1/6"] * 6,
        })

    def test_simulated_paths(self):
        rng = self.TopDraws(np.random.default_rng(0))
        xs, ys = _simulate_paths(self._model(), 5, 3, rng)
        assert (xs[:, 1:] == 2).all() and (ys[:, 1:] == 1).all()

    def test_path_statistics(self, monkeypatch):
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: self.TopDraws(default_rng(seed)))
        stats = sample_path_statistics(self._model(), 5, 3, seed=0)
        assert np.isfinite(stats.info).all() and np.isfinite(stats.window_sum).all()
