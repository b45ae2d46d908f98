import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecomp.bounds import (
    DegenerateModelError,
    Q,
    Q_inv,
    markov_bounds,
    pair_achievability,
    pair_converse,
    phi,
    ref_achievability,
    ref_converse,
    three_term_rate,
)
from sidecomp.limits import rate_star_ref
from sidecomp.markov import markov_rates
from sidecomp.models import model_from_dict

from tests.conftest import y_repeat


class TestNormalHelpers:
    def test_q_values(self):
        assert Q(0.0) == 0.5
        assert Q(40.0) == 0.0
        assert Q(-40.0) == 1.0
        assert phi(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_q_inv_frozen(self):
        # [DERIVED] reference quantiles, frozen from an independent
        # high-precision evaluation
        assert Q_inv(0.1) == pytest.approx(1.2815515655446, abs=1e-10)
        assert Q_inv(0.4) == pytest.approx(0.2533471031358, abs=1e-10)
        assert Q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    @settings(max_examples=200)
    def test_q_inv_round_trip(self, p):
        assert Q(Q_inv(p)) == pytest.approx(p, abs=1e-12)

    def test_q_inv_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                Q_inv(p)

    def test_three_term_formula(self):
        n, eps = 400, 0.3
        want = 0.7 + math.sqrt(0.5 / n) * Q_inv(eps) - math.log2(n) / (2 * n)
        assert three_term_rate(0.7, 0.5, n, eps) == pytest.approx(want, abs=1e-15)


class TestRefBounds:
    def test_converse_frozen_n6000(self, fig1):
        y = y_repeat(fig1, "001", 6000)
        rc = ref_converse(fig1, y, 0.4)
        assert rc.kind == "ref_converse"
        assert rc.value == pytest.approx(0.627868379727, abs=1e-9)
        assert rc.constants["eta"] == pytest.approx(59.9775837825, abs=1e-6)
        assert rc.n_threshold == pytest.approx(22230.6702, abs=1e-2)
        assert not rc.valid  # 6000 is below this threshold

    def test_converse_threshold_frozen_n500(self, fig1):
        # the threshold depends on the string's composition; this one
        # is frozen for the 334:166 mix and sits far above n = 500
        rc = ref_converse(fig1, y_repeat(fig1, "001", 500), 0.1)
        assert rc.n_threshold == pytest.approx(4189.1386, abs=1e-2)
        assert not rc.valid

    def test_converse_valid_at_low_eps(self, fig1):
        rc = ref_converse(fig1, y_repeat(fig1, "001", 6000), 0.1)
        assert rc.n_threshold < 6000
        assert rc.valid

    def test_achievability_frozen_n6000(self, fig1):
        y = y_repeat(fig1, "001", 6000)
        ra = ref_achievability(fig1, y, 0.4)
        assert ra.kind == "ref_achiev"
        assert ra.value == pytest.approx(0.698108791247, abs=1e-9)
        assert ra.constants["zeta_n"] == pytest.approx(361.464885337, abs=1e-6)
        assert ra.n_threshold == pytest.approx(4965.7936, abs=1e-2)
        assert ra.valid

    def test_achievability_guard_below_threshold(self, fig1):
        # deep below the threshold the inner quantile argument leaves
        # (0, 1); the report must say so rather than fake a number
        ra = ref_achievability(fig1, y_repeat(fig1, "001", 500), 0.1)
        assert math.isinf(ra.value)
        assert not ra.valid
        assert "zeta_n" not in ra.constants

    def test_prefix_adds_one_bit(self, fig1):
        y = y_repeat(fig1, "001", 6000)
        plain = ref_achievability(fig1, y, 0.4)
        pref = ref_achievability(fig1, y, 0.4, prefix=True)
        assert pref.kind == "ref_achiev_prefix"
        assert pref.constants["zeta_n"] == pytest.approx(
            plain.constants["zeta_n"] + 1.0, abs=1e-12
        )
        assert pref.value == pytest.approx(plain.value + 1.0 / 6000, abs=1e-12)

    def test_epsilon_above_half_invalidates(self, fig1):
        y = y_repeat(fig1, "001", 6000)
        assert not ref_converse(fig1, y, 0.6).valid
        assert not ref_achievability(fig1, y, 0.6).valid

    def test_degenerate_string_raises(self, corpus_models):
        m = corpus_models["deterministic"]
        with pytest.raises(DegenerateModelError):
            ref_converse(m, y_repeat(m, "01", 10), 0.1)

    def test_bracket_contains_exact_rate(self, fig1):
        # three-term sandwich around the exact rate in the regime where
        # the achievability side is proven
        y = y_repeat(fig1, "001", 6000)
        lo = ref_converse(fig1, y, 0.4).value
        hi = ref_achievability(fig1, y, 0.4).value
        exact = rate_star_ref(fig1, y, 0.4).rate
        assert exact == pytest.approx(0.637667, abs=1e-6)
        assert lo <= exact <= hi


class TestPairBounds:
    def test_achievability_frozen_n500(self, fig1):
        pa = pair_achievability(fig1, 500, 0.1)
        assert pa.kind == "pair_achiev"
        assert pa.value == pytest.approx(0.719711946029, abs=1e-9)
        assert pa.constants["B"] == pytest.approx(11.6462843904, abs=1e-7)
        assert pa.constants["C"] == pytest.approx(22.4425500314, abs=1e-7)
        assert pa.n_threshold == pytest.approx(392.71293413, abs=1e-4)
        assert pa.valid

    def test_converse_frozen_n500(self, fig1):
        pc = pair_converse(fig1, 500, 0.1)
        assert pc.kind == "pair_converse"
        assert pc.value == pytest.approx(0.653739849203, abs=1e-9)
        assert pc.constants["C_prime"] == pytest.approx(10.5434983818, abs=1e-7)
        assert pc.n_threshold == pytest.approx(24.657087812, abs=1e-6)
        assert pc.valid

    def test_prefix_adds_one_bit(self, fig1):
        plain = pair_achievability(fig1, 500, 0.1)
        pref = pair_achievability(fig1, 500, 0.1, prefix=True)
        assert pref.kind == "pair_achiev_prefix"
        assert pref.value == pytest.approx(plain.value + 1.0 / 500, abs=1e-12)

    def test_ordering_across_n(self, fig1):
        for n in (450, 700, 1200, 5000):
            lo = pair_converse(fig1, n, 0.1).value
            hi = pair_achievability(fig1, n, 0.1).value
            assert lo < hi

    def test_zero_sigma_raises(self, corpus_models):
        with pytest.raises(DegenerateModelError):
            pair_achievability(corpus_models["uniform2"], 100, 0.1)
        with pytest.raises(DegenerateModelError):
            pair_converse(corpus_models["uniform2"], 100, 0.1)

    def test_zero_ev_raises_only_achievability(self):
        # entropy varies across y but each row is zero-varentropy, so
        # sigma2 > 0 while ev = 0: the converse stands, the
        # achievability correction does not apply
        m = model_from_dict({
            "kind": "cond_iid",
            "x_alphabet": ["a", "b"], "y_alphabet": ["0", "1"],
            "p_x_given_y": [["1", "0"], ["1/2", "1/2"]],
            "p_y": ["1/2", "1/2"],
        })
        with pytest.raises(DegenerateModelError):
            pair_achievability(m, 100, 0.1)
        assert pair_converse(m, 100, 0.1).value > 0

    @pytest.mark.parametrize("bound", [pair_achievability, pair_converse])
    def test_blocklength_below_one_raises(self, fig1, bound):
        for n in (0, -1):
            with pytest.raises(ValueError, match="^blocklength must be >= 1$"):
                bound(fig1, n, 0.1)

    @pytest.mark.parametrize("prefix", [False, True])
    def test_tiny_epsilon_gives_an_inf_threshold(self, fig1, prefix):
        # B squared is finite near 1e197; its square again overflows to inf
        report = pair_achievability(fig1, 5, 1e-100, prefix=prefix)
        assert report.n_threshold == math.inf and not report.valid
        assert math.isfinite(report.value)


class TestMarkovBounds:
    def test_term_structure(self, corpus_models):
        analysis = markov_rates(corpus_models["markov2x2"])
        n, eps, A = 1000, 0.1, 1.0
        ach, conv = markov_bounds(analysis, n, eps, A)
        h, s2 = analysis.h_rate, analysis.sigma2_rate
        a = Q_inv(eps)
        core = h + math.sqrt(s2 / n) * a
        c_m = 2.0 * A * math.sqrt(s2) / phi(a)
        c_mp = math.sqrt(s2) * (A + 1.0) / phi(a)
        # achievability has no -log2(n)/(2n) term; the converse does
        assert ach.value == pytest.approx(core + c_m / n, abs=1e-15)
        assert conv.value == pytest.approx(
            core - math.log2(n) / (2 * n) - c_mp / n, abs=1e-15
        )
        assert ach.constants["C_m"] == pytest.approx(c_m, abs=1e-12)
        assert conv.constants["C_m_prime"] == pytest.approx(c_mp, abs=1e-12)

    def test_thresholds_and_validity(self, corpus_models):
        analysis = markov_rates(corpus_models["markov2x2"])
        a = Q_inv(0.1)
        ach, conv = markov_bounds(analysis, 1000, 0.1, 1.0)
        assert ach.n_threshold == pytest.approx(
            2.0 / (math.pi * math.e * phi(a) ** 4), abs=1e-9
        )
        assert conv.n_threshold == pytest.approx((2.0 / (a * phi(a))) ** 2, abs=1e-9)
        assert ach.valid and conv.valid
        # strict threshold: at n equal to the (ceiled) threshold it may
        # flip; far below it must be invalid
        ach_small, conv_small = markov_bounds(analysis, 2, 0.1, 1.0)
        assert not ach_small.valid
        assert not conv_small.valid

    def test_ordering(self, corpus_models):
        analysis = markov_rates(corpus_models["markov2x2"])
        for n in (500, 2000, 8000):
            ach, conv = markov_bounds(analysis, n, 0.25, 1.0)
            assert conv.value < ach.value

    def test_bad_inputs(self, corpus_models):
        analysis = markov_rates(corpus_models["markov2x2"])
        with pytest.raises(ValueError):
            markov_bounds(analysis, 100, 0.1, 0.0)
        degenerate = markov_rates(corpus_models["copy_chain"])
        with pytest.raises(DegenerateModelError):
            markov_bounds(degenerate, 100, 0.1, 1.0)

    @pytest.mark.parametrize("A", [math.nan, math.inf, -math.inf, -1.0])
    def test_constant_must_be_finite_and_positive(self, corpus_models, A):
        analysis = markov_rates(corpus_models["markov2x2"])
        with pytest.raises(ValueError, match="finite and positive"):
            markov_bounds(analysis, 5, 0.1, A)

    @pytest.mark.parametrize("eps, A, side", [
        (1e-100, 1.0, 0),  # phi(a)**4 underflows to 0
        (0.1, 1e200, 1),   # (A + 1)**2 overflows
        (1e-300, 1e300, 0),
    ])
    def test_extreme_inputs_give_an_inf_threshold(self, corpus_models, eps, A, side):
        analysis = markov_rates(corpus_models["markov2x2"])
        report = markov_bounds(analysis, 5, eps, A)[side]
        assert report.n_threshold == math.inf and not report.valid


class TestApproximationQuality:
    def test_three_term_tracks_exact_rate(self):
        # A one-row binary model tame enough that n = 2500 clears both
        # proven thresholds at eps = 0.4, so the bracket is non-vacuous
        # and pins |R* - three_term| <= max(eta, zeta_n)/n.
        m = model_from_dict({
            "kind": "cond_iid",
            "x_alphabet": ["a", "b"], "y_alphabet": ["0"],
            "p_x_given_y": [["3/4", "1/4"]],
            "p_y": ["1"],
        })
        n, eps = 2500, 0.4
        y = y_repeat(m, "0", n)
        rc = ref_converse(m, y, eps)
        ra = ref_achievability(m, y, eps)
        assert rc.valid and ra.valid
        exact = rate_star_ref(m, y, eps).rate
        approx = three_term_rate(
            rc.constants["h_n"], rc.constants["sigma_n2"], n, eps
        )
        slack = max(rc.constants["eta"], ra.constants["zeta_n"]) / n
        assert abs(exact - approx) <= slack
        assert rc.value <= exact <= ra.value
