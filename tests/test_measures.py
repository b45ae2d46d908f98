import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecomp.measures import (
    _y_marginal_log2,
    cdf_rows,
    inverse_cdf_table,
    cond_info_density,
    dispersion_gap,
    h_n_sigma_n,
    m3_and_mu3,
    measures,
    per_y_profile,
    sample_cond_iid,
)
from sidecomp.models import SideInfoString, model_from_dict

from tests.conftest import pair_chains, small_models, y_repeat

# [DERIVED] fig1 measures, frozen from an independent mpmath evaluation
FIG1 = {
    "h_xy": 0.636313927211,
    "h_x": 0.836640741941,
    "sigma2": 0.686270810598,
    "ev": 0.630279961066,
    "var_hhat": 0.0559908495319,
    "m3": 2.35073310457,
    "mu3_pair": 1.40267130056,
    "psi2": 0.150237769053,
}


def _reference_markov_info_density(model, x, y):
    """-log2 P(x | y) with the joint path probability from a scalar loop
    over the pair path."""
    n, d = len(x), model.order
    init, trans = model.initial_f, model.transition_f
    pair = [model.pair_index(x[t], y.indices[t]) for t in range(n)]
    ctx = model.context_index(pair[:d])
    joint_log = math.log2(init[ctx]) if init[ctx] > 0 else -math.inf
    for t in range(d, n):
        p = trans[ctx, pair[t]]
        if p <= 0:
            joint_log = -math.inf
            break
        joint_log += math.log2(p)
        ctx = model.shift_context(ctx, pair[t])
    if joint_log == -math.inf:
        raise ValueError("string pair has zero probability")
    y_log = _y_marginal_log2(model, y.indices)
    if y_log == -math.inf:
        raise ValueError("side-information string has zero probability")
    return y_log - joint_log


class TestMeasureSet:
    def test_fig1_frozen(self, fig1):
        got = measures(fig1).as_dict()
        for key, want in FIG1.items():
            assert got[key] == pytest.approx(want, abs=1e-9), key
        assert got["dispersion_gap"] == pytest.approx(
            FIG1["sigma2"] - FIG1["ev"], abs=1e-12
        )

    def test_uniform_has_zero_dispersion(self, corpus_models):
        ms = measures(corpus_models["uniform2"])
        assert ms.h_xy == pytest.approx(1.0, abs=1e-15)
        assert ms.sigma2 == 0.0
        assert ms.ev == 0.0
        assert ms.psi2 == 0.0
        assert ms.m3 == 0.0

    def test_nogap_rows_share_entropy(self, corpus_models):
        ms = measures(corpus_models["nogap"])
        assert ms.var_hhat <= 1e-24
        assert dispersion_gap(corpus_models["nogap"]) <= 1e-24
        assert ms.sigma2 > 1.0

    def test_requires_p_y(self, corpus_models):
        with pytest.raises(ValueError):
            measures(corpus_models["refonly2x2"])

    @given(small_models())
    @settings(max_examples=100)
    def test_variance_decomposition(self, model):
        # measures() itself re-derives sigma2 two ways and raises on
        # disagreement; here we pin the inequalities on top of that.
        ms = measures(model)
        assert ms.sigma2 >= 0
        assert ms.ev >= 0
        assert ms.var_hhat >= -1e-15
        assert abs((ms.sigma2 - ms.ev) - ms.var_hhat) <= 1e-12
        assert ms.h_x >= ms.h_xy - 1e-12

    def test_m3_and_mu3_consistent(self, fig1):
        m3, mu3 = m3_and_mu3(fig1)
        ms = measures(fig1)
        assert m3 == ms.m3
        assert mu3 == ms.mu3_pair


class TestFixedStringMoments:
    def test_fig1_repeat001_n500(self, fig1):
        h_n, sigma_n2, degenerate = h_n_sigma_n(fig1, y_repeat(fig1, "001", 500))
        assert h_n == pytest.approx(0.635644653877, abs=1e-9)
        assert sigma_n2 == pytest.approx(0.631376274047, abs=1e-9)
        assert not degenerate

    def test_composition_average(self, fig1):
        prof = per_y_profile(fig1)
        y = y_repeat(fig1, "0111", 4)
        h_n, sigma_n2, _ = h_n_sigma_n(fig1, y)
        assert h_n == pytest.approx((prof.h[0] + 3 * prof.h[1]) / 4, abs=1e-15)
        assert sigma_n2 == pytest.approx((prof.v[0] + 3 * prof.v[1]) / 4, abs=1e-15)

    def test_degenerate_flag(self, corpus_models):
        m = corpus_models["deterministic"]
        h_n, sigma_n2, degenerate = h_n_sigma_n(m, y_repeat(m, "01", 6))
        assert h_n == 0.0
        assert sigma_n2 == 0.0
        assert degenerate


class TestInfoDensity:
    def test_cond_iid_product(self, fig1):
        y = y_repeat(fig1, "01", 2)
        got = cond_info_density(fig1, (0, 1), y)
        assert got == pytest.approx(-math.log2(27 / 50), abs=1e-12)

    def test_zero_probability_raises(self, corpus_models):
        m = corpus_models["deterministic"]
        with pytest.raises(ValueError):
            cond_info_density(m, (1,), y_repeat(m, "0", 1))

    def test_length_mismatch_raises(self, fig1):
        with pytest.raises(ValueError):
            cond_info_density(fig1, (0, 1), y_repeat(fig1, "0", 1))

    @pytest.mark.parametrize("name, x", [
        ("fig1", (-1, 0)), ("fig1", (2, 0)), ("markov2x2", (-1, 0)),
    ])
    def test_x_index_outside_alphabet_raises(self, corpus_models, name, x):
        model = corpus_models[name]
        with pytest.raises(ValueError, match=r"^x has an index outside range\(2\)"):
            cond_info_density(model, x, y_repeat(model, "01", 2))

    def test_markov_matches_enumeration(self, corpus_models):
        # Independent oracle: joint path products summed over all
        # x-strings give P(y); the density must equal the log ratio.
        m = corpus_models["markov2x2"]
        init = m.initial_f
        trans = m.transition_f
        n = 4
        y = y_repeat(m, "0110", n)

        def joint(xs):
            pair = [m.pair_index(xs[t], y.indices[t]) for t in range(n)]
            p = init[m.context_index(pair[:1])]
            ctx = m.context_index(pair[:1])
            for t in range(1, n):
                p *= trans[ctx, pair[t]]
                ctx = m.shift_context(ctx, pair[t])
            return p

        p_y = sum(joint(xs) for xs in product(range(2), repeat=n))
        for xs in product(range(2), repeat=n):
            p = joint(xs)
            if p <= 0:
                continue
            got = cond_info_density(m, xs, y)
            assert got == pytest.approx(-math.log2(p / p_y), abs=1e-10)

    @settings(max_examples=150)
    @given(model=pair_chains(initial=True), data=st.data())
    def test_markov_matches_path_loop(self, model, data):
        n = data.draw(st.integers(model.order, model.order + 6))
        x = data.draw(st.lists(st.integers(0, len(model.x_alphabet) - 1),
                               min_size=n, max_size=n))
        y = SideInfoString(model.y_alphabet, tuple(data.draw(st.lists(
            st.integers(0, len(model.y_alphabet) - 1), min_size=n, max_size=n))))
        try:
            want = _reference_markov_info_density(model, x, y)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                cond_info_density(model, x, y)
            assert str(got.value) == str(exc)
            return
        assert cond_info_density(model, x, y).hex() == want.hex()


class TestSampling:
    def test_deterministic_in_seed(self, fig1):
        a = sample_cond_iid(fig1, 5, 100, seed=7)
        b = sample_cond_iid(fig1, 5, 100, seed=7)
        c = sample_cond_iid(fig1, 5, 100, seed=8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_marginal_frequencies(self, fig1):
        x, y = sample_cond_iid(fig1, 4, 20000, seed=0)
        assert float((y == 0).mean()) == pytest.approx(2 / 3, abs=0.01)
        mask = y == 0
        assert float((x[mask] == 0).mean()) == pytest.approx(0.9, abs=0.01)

    def test_draws_stay_in_range_at_the_top_of_the_unit_interval(self, monkeypatch):
        # these rows sum to 0.9999999999999998 in floats, below the
        # largest uniform draw a generator can return
        row = ["2/7"] + ["1/7"] * 5
        model = model_from_dict({
            "kind": "cond_iid",
            "x_alphabet": list("abcdef"), "y_alphabet": list("012345"),
            "p_x_given_y": [row] * 6, "p_y": row,
        })
        top = np.nextafter(1.0, 0.0)

        class TopDraws:
            def __init__(self, bit_generator):
                pass

            def random(self, size):
                return np.full(size, top)

        monkeypatch.setattr(np.random, "Generator", TopDraws)
        x, y = sample_cond_iid(model, 3, 4, seed=0)
        assert (x == 5).all() and (y == 5).all()

    def test_table_position_is_searchsorted_with_crowded_grid_cells(self):
        # three CDF values inside the first 1/1024 of [0, 1), and values
        # just below 1, so the guide lookup needs several passes
        probs = np.array([[1 / 4096, 1 / 4096, 1 / 4096, 1 - 3 / 4096],
                          [0.5, 0.5 - 2**-52, 0.0, 2**-52],
                          [0.1, 0.2, 0.3, 0.4]])
        levels = np.unique(cdf_rows(probs))
        u = np.concatenate([
            levels[levels < 1.0],
            np.nextafter(levels[levels < 1.0], 0.0),
            np.nextafter(levels[levels < 1.0], 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
            np.random.default_rng(0).random(1000),
        ])
        u = u[u < 1.0]
        position, sym = inverse_cdf_table(probs)
        assert position(u).tolist() == np.searchsorted(levels, u, side="left").tolist()
        cum = cdf_rows(probs)
        for r in range(len(probs)):
            assert sym[r, position(u)].tolist() == (u[:, None] > cum[r]).sum(1).tolist()

    def test_cdf_rows_end_at_one_on_the_support(self):
        assert cdf_rows(np.array([0.3, 0.6, 0.0])).tolist() == [0.3, 1.0, 1.0]
        rows = cdf_rows(np.array([[2 / 7] + [1 / 7] * 5, [1.0] + [0.0] * 5]))
        assert rows[0, -1] == 1.0 and rows[1].tolist() == [1.0] * 6
