import gc
import json
import math
import sys
import threading
import tracemalloc
import weakref
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecomp import limits
from sidecomp.limits import (
    COUNT_CHUNK,
    GuardExceededError,
    LengthLaw,
    _pair_curve_of_route,
    check_general_converse,
    epsilon_star_pair,
    epsilon_star_prefix,
    epsilon_star_ref,
    length_law_bruteforce,
    length_law_typeclass,
    rate_star_pair,
    rate_star_ref,
)
from sidecomp.measures import _y_marginal_log2
from sidecomp.models import (
    Alphabet,
    CondIidModel,
    MarkovPairModel,
    SideInfoString,
    model_from_dict,
)

from tests.conftest import MODELS_DIR, small_models, y_repeat


def _markov_small(with_initial: bool):
    doc = {
        "kind": "markov_pair",
        "x_alphabet": ["0", "1"],
        "y_alphabet": ["0", "1"],
        "order": 1,
        "transition": [
            ["1/2", "1/4", "1/8", "1/8"],
            ["1/4", "1/4", "1/4", "1/4"],
            ["1/8", "1/8", "1/2", "1/4"],
            ["1/4", "1/2", "1/8", "1/8"],
        ],
    }
    if with_initial:
        doc["initial"] = ["1/4", "1/4", "1/4", "1/4"]
    return model_from_dict(doc)


def _pair_laws_of(model, n, route, exact):
    return list(limits._pair_laws(model, n, route, exact))


def _fresh(law):
    """The same law with no chunk produced or located yet."""
    return LengthLaw(law.n, law._factors, law.exact)


def _assert_curve_is_per_k(law, kmax):
    """The one-pass curve equals the per-k queries of fresh laws: floats
    bit for bit, and exact numerators as ``Fraction``s."""
    ranks = [1 << k for k in range(kmax + 1)]
    curve = law._excess_at_ranks(ranks, exact=False)
    want = [_fresh(law).epsilon_star(k) for k in range(kmax + 1)]
    assert all(type(v) is float for v in curve)
    assert [v.hex() for v in curve] == [float(v).hex() for v in want]
    if law.exact:
        nums = _fresh(law)._excess_at_ranks(ranks, exact=True)
        assert [Fraction(v, law._den) for v in nums] == [
            _fresh(law).epsilon_star_exact(k) for k in range(kmax + 1)]


def _reference_pair_curve(laws, kmax, exact):
    """The pair sum as one Fraction (or float) accumulation per (law, k)."""
    total = [Fraction(0) if exact else 0.0] * (kmax + 1)
    for w, law in laws:
        for k in range(kmax + 1):
            total[k] += w * (law.epsilon_star_exact(k) if exact else law.epsilon_star(k))
    return total


def _assert_pair_curve_matches_per_k(model, n, route, exact):
    """Every law's one-pass curve, and the pair curve summed from them,
    equal the per-k queries."""
    kmax = (len(model.x_alphabet) ** n).bit_length()
    laws = _pair_laws_of(model, n, route, exact)
    for _, law in laws:
        _assert_curve_is_per_k(law, kmax)
    _pair_curve_of_route.cache_clear()
    got = limits._pair_curve(model, n, route, exact)
    want = _reference_pair_curve(laws, kmax, exact)
    if exact:
        assert list(got) == want
    else:
        assert [v.hex() for v in got] == [float(v).hex() for v in want]


MARKOV2X2_INITIAL = model_from_dict({
    **json.loads((MODELS_DIR / "markov2x2.json").read_text()),
    "initial": ["1/2", "1/6", "1/6", "1/6"],
})


class TestFrozenValues:
    def test_fig1_ref_n2(self, fig1):
        # [DERIVED] by hand from the four ranked products for y = 01
        y = y_repeat(fig1, "01", 2)
        assert epsilon_star_ref(fig1, y, 1, exact=True) == Fraction(23, 50)
        assert epsilon_star_ref(fig1, y, 2, exact=True) == Fraction(1, 25)

    def test_fig1_pair_small(self, fig1):
        # [DERIVED] independent oracle enumerations, frozen
        assert epsilon_star_pair(fig1, 1, 1, exact=True) == Fraction(1, 5)
        assert epsilon_star_pair(fig1, 3, 2, exact=True) == Fraction(62, 375)

    def test_fig1_ref_rate_n500(self, fig1):
        rp = rate_star_ref(fig1, y_repeat(fig1, "001", 500), 0.1)
        assert rp.k == 334
        assert rp.rate == pytest.approx(0.668, abs=1e-12)
        assert rp.eps_at_k_plus_1 <= 0.1 < rp.eps_at_k


class TestOracleEquivalence:
    @given(small_models(), st.data())
    @settings(max_examples=60)
    def test_typeclass_matches_bruteforce_ref(self, model, data):
        ny = len(model.y_alphabet)
        n = data.draw(st.integers(1, 3))
        idx = tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n))
        y = SideInfoString(model.y_alphabet, idx)
        for k in range(0, 2 * n + 2):
            a = epsilon_star_ref(model, y, k, method="typeclass", exact=True)
            b = epsilon_star_ref(model, y, k, method="bruteforce", exact=True)
            assert a == b
            af = epsilon_star_ref(model, y, k, method="typeclass")
            assert abs(af - float(b)) <= 1e-12

    @given(small_models(), st.data())
    @settings(max_examples=40)
    def test_typeclass_matches_bruteforce_pair(self, model, data):
        n = data.draw(st.integers(1, 2))
        for k in range(0, 2 * n + 2):
            a = epsilon_star_pair(model, n, k, method="typeclass", exact=True)
            b = epsilon_star_pair(model, n, k, method="bruteforce", exact=True)
            assert a == b

    def test_markov_exact_matches_float(self):
        m = _markov_small(with_initial=True)
        y = y_repeat(m, "011", 4)
        for k in range(0, 5):
            ex = epsilon_star_ref(m, y, k, exact=True)
            fl = epsilon_star_ref(m, y, k)
            assert abs(float(ex) - fl) <= 1e-12

    @pytest.mark.parametrize("exact", [False, True])
    def test_markov_pair_enumerates_each_y_once(self, monkeypatch, exact):
        m = _markov_small(with_initial=True)
        calls = []
        enumerate_joints = limits._markov_string_probs
        step = MarkovPairModel._step

        def counting(model, ctx, y):
            calls.append(y)
            return step(model, ctx, y)

        monkeypatch.setattr(MarkovPairModel, "_step", counting)
        _pair_curve_of_route.cache_clear()
        n = 3
        got = epsilon_star_pair(m, n, 1, exact=exact)
        monkeypatch.undo()
        # one forward step per y-prefix longer than the order gives every
        # y-string its weight and its law
        assert len(calls) == sum(2**i for i in range(m.order + 1, n + 1))
        want = 0.0
        for ys in product(range(2), repeat=n):
            y = SideInfoString(m.y_alphabet, ys)
            want += enumerate_joints(m, y, False).sum() * epsilon_star_ref(m, y, 1)
        assert abs(float(got) - want) <= 1e-12

    def test_markov_exact_needs_initial(self):
        m = _markov_small(with_initial=False)
        with pytest.raises(ValueError):
            epsilon_star_ref(m, y_repeat(m, "01", 2), 1, exact=True)


@st.composite
def small_markov_models(draw):
    """Random Markov pair model: order 1-2, |X|, |Y| <= 3, rational rows
    with zeros and an explicit rational initial law."""
    nx, ny, order = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def pmf(size):
        w = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)
                 .filter(lambda v: sum(v) > 0))
        return tuple(Fraction(a, sum(w)) for a in w)

    s = nx * ny
    return MarkovPairModel(
        x_alphabet=Alphabet(tuple(str(i) for i in range(nx))),
        y_alphabet=Alphabet(tuple(str(i) for i in range(ny))),
        order=order,
        transition=tuple(pmf(s) for _ in range(s**order)),
        initial=pmf(s**order),
    )


class TestMarkovForwardKernel:
    @given(small_markov_models(), st.data())
    @settings(max_examples=60)
    def test_enumeration_marginal_and_tracks_agree(self, model, data):
        ny = len(model.y_alphabet)
        n = data.draw(st.integers(model.order, model.order + 3))
        y = SideInfoString(
            model.y_alphabet, tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n))
        )
        exact = limits._markov_string_probs(model, y, True)
        flt = limits._markov_string_probs(model, y, False)
        assert len(exact) == len(flt) == len(model.x_alphabet) ** n
        assert max(abs(float(e) - f) for e, f in zip(exact, flt)) <= 1e-12
        # summing out x is the y-marginal's forward pass
        assert abs(float(sum(exact)) - 2.0 ** _y_marginal_log2(model, y.indices)) <= 1e-12
        if sum(exact) == 0:
            for track in (True, False):
                with pytest.raises(ValueError):
                    epsilon_star_ref(model, y, 0, exact=track)
            return
        for k in range((len(model.x_alphabet) ** n).bit_length() + 1):
            ex = epsilon_star_ref(model, y, k, exact=True)
            assert abs(float(ex) - epsilon_star_ref(model, y, k)) <= 1e-12


def _per_y_string_joints(model, ys, exact):
    """P(x, y) over every x-string by one forward pass of its own, as the
    brute-force routes enumerated before they walked y-prefixes."""
    if exact:
        init, trans = (np.array(t, dtype=object) for t in (model.initial, model.transition))
    else:
        init, trans = model.initial_f, model.transition_f
    ctx = model._head_contexts(ys)
    probs = init[ctx]
    for yt in ys[model.order:]:
        s, nxt = model._step(ctx, yt)
        probs, ctx = (probs[:, None] * trans[ctx][:, s]).ravel(), nxt.ravel()
    return probs


def _per_y_string_pair_laws(model, n, exact):
    """The brute-force pair laws with one forward pass per y-string: the
    loop the y-prefix walk replaced, kept as its reference."""
    if isinstance(model, CondIidModel):
        p_y = [p if exact else float(p) for p in model.require_p_y()]
        lcms = [math.lcm(*(p.denominator for p in row)) for row in model.p_x_given_y]
        rows = [np.array([int(p * d) for p in row], dtype=object)
                for row, d in zip(model.p_x_given_y, lcms)]
    for ys in product(range(len(model.y_alphabet)), repeat=n):
        if isinstance(model, MarkovPairModel):
            joints = _per_y_string_joints(model, ys, exact)
            if not joints.any():
                continue
            w, factor = limits._markov_flat_factor(joints, exact)
        else:
            w = math.prod(p_y[yi] for yi in ys)
            if w == 0:
                continue
            if exact:
                nums = limits._outer([rows[yi] for yi in ys], np.multiply).tolist()
                factor = limits._flat_factor(None, nums, math.prod(lcms[yi] for yi in ys))
            else:
                factor = limits._flat_factor(limits._outer([model.cond_log2[yi] for yi in ys],
                                                           np.add))
        yield w, LengthLaw(n, [factor], exact)


def _summed_pair_curve(laws, n, nx, exact):
    """The pair curve of ``laws`` summed as ``_pair_curve_of_route`` sums it."""
    ranks = [1 << k for k in range((nx**n).bit_length() + 1)]
    if exact:
        return limits._weighted_sum(laws, ranks)
    total = np.zeros(len(ranks))
    for w, law in laws:
        total += w * np.array(law._excess_at_ranks(ranks, exact=False))
    return total.tolist()


def _assert_pair_walk_matches_per_y_string(model, n, exact):
    """The walk yields the same weights and factors as the per-y-string
    loop, in the same order: floats bit for bit, exact ones as integers
    and ``Fraction``s; so the pair curves are equal too."""
    got = list(limits._pair_laws(model, n, "bruteforce", exact))
    want = list(_per_y_string_pair_laws(model, n, exact))
    assert len(got) == len(want)
    for (gw, gl), (ww, wl) in zip(got, want):
        (gf,), (wf,) = gl._factors, wl._factors
        if exact:
            assert type(gw) is type(ww) and gw == ww
            assert gf.nums.tolist() == wf.nums.tolist() and gf.den == wf.den
        else:
            assert float(gw).hex() == float(ww).hex()
            assert gf.lp.tobytes() == wf.lp.tobytes()
    _pair_curve_of_route.cache_clear()
    curve = _pair_curve_of_route(model, n, "bruteforce", exact)
    ref = _summed_pair_curve(want, n, len(model.x_alphabet), exact)
    if exact:
        assert list(curve) == ref
    else:
        assert [v.hex() for v in curve] == [v.hex() for v in ref]


def _assert_joints_match_per_y_string(model, n, exact):
    """The fixed-y joints are the walk along one y-string, bit for bit;
    all zero where P(y) = 0, in the track's own type."""
    for ys in product(range(len(model.y_alphabet)), repeat=n):
        got = limits._markov_string_probs(model, SideInfoString(model.y_alphabet, ys), exact)
        want = _per_y_string_joints(model, ys, exact)
        assert got.dtype == want.dtype and list(map(type, got)) == list(map(type, want))
        if not want.any():
            assert not got.any() and len(got) == len(want)
        elif exact:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()


class TestPairWalk:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("exact", [False, True])
    def test_markov_small_matches_per_y_string(self, n, exact):
        m = _markov_small(with_initial=True)
        _assert_pair_walk_matches_per_y_string(m, n, exact)
        _assert_joints_match_per_y_string(m, n, exact)

    @given(small_markov_models(), st.data())
    @settings(max_examples=40)
    def test_random_markov_matches_per_y_string(self, model, data):
        n = data.draw(st.integers(model.order, model.order + 3))
        for exact in (False, True):
            _assert_pair_walk_matches_per_y_string(model, n, exact)
            _assert_joints_match_per_y_string(model, n, exact)

    @pytest.mark.parametrize("name", ["copy_chain", "indep_chains", "markov2x2",
                                      "ymarg_nonmarkov"])
    def test_corpus_markov_matches_per_y_string(self, corpus_models, name):
        # float only: the corpus chains start from their stationary law,
        # which is not rational
        m = corpus_models[name]
        n = 1
        while m.num_pair_symbols**n <= limits.BRUTEFORCE_GUARD:
            _assert_pair_walk_matches_per_y_string(m, n, False)
            n += 1
        assert n == 11

    @pytest.mark.parametrize("name", ["fig1", "skewed34", "nogap", "deterministic"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_cond_iid_matches_per_y_string(self, corpus_models, name, exact):
        m = corpus_models[name]
        for n in range(1, 5):
            _assert_pair_walk_matches_per_y_string(m, n, exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_zero_probability_y_symbol_has_no_subtree(self, exact):
        # y-symbol 1 has probability 0: of the 27 y-strings at n = 3, the 8
        # without it are yielded
        _assert_pair_walk_matches_per_y_string(DEAD_SYMBOL, 3, exact)
        assert len(list(limits._pair_laws(DEAD_SYMBOL, 3, "bruteforce", exact))) == 8

    def test_exact_markov_pair_without_initial_law(self):
        m = _markov_small(with_initial=False)
        with pytest.raises(ValueError) as ref:
            epsilon_star_ref(m, y_repeat(m, "01", 2), 1, exact=True)
        _pair_curve_of_route.cache_clear()
        with pytest.raises(ValueError) as pair:
            epsilon_star_pair(m, 3, 1, exact=True)
        assert str(pair.value) == str(ref.value)
        # the walk refuses before it yields any law
        laws = limits._pair_laws(m, 3, "bruteforce", True)
        with pytest.raises(ValueError, match=f"^{str(ref.value)}$"):
            next(laws)


class TestCurveShape:
    @given(small_models(), st.data())
    @settings(max_examples=40)
    def test_monotone_and_boundary(self, model, data):
        ny = len(model.y_alphabet)
        n = data.draw(st.integers(1, 3))
        idx = tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n))
        y = SideInfoString(model.y_alphabet, idx)
        nx = len(model.x_alphabet)
        kmax = math.ceil(n * math.log2(nx)) + 1
        curve = [epsilon_star_ref(model, y, k, exact=True) for k in range(kmax + 1)]
        assert curve[0] == 1
        for a, b in zip(curve, curve[1:]):
            assert b <= a
        assert curve[-1] == 0

    def test_pair_curve_is_y_average(self, fig1):
        # [TRIVIAL] the pair overflow is the p_y-weighted mean of the
        # per-string overflows, an exact identity.
        n = 2
        for k in range(0, 4):
            total = Fraction(0)
            for idx in product(range(2), repeat=n):
                y = SideInfoString(fig1.y_alphabet, idx)
                w = fig1.p_y[idx[0]] * fig1.p_y[idx[1]]
                total += w * epsilon_star_ref(fig1, y, k, exact=True)
            assert epsilon_star_pair(fig1, n, k, exact=True) == total


class TestRatePoints:
    def test_bracketing_invariant(self, fig1):
        y = y_repeat(fig1, "001", 20)
        for eps in (0.05, 0.1, 0.25, 0.5, 0.9):
            rp = rate_star_ref(fig1, y, eps)
            assert rp.eps_at_k_plus_1 <= eps < rp.eps_at_k
            assert rp.rate == rp.k / 20

    def test_pair_rate_point(self, fig1):
        rp = rate_star_pair(fig1, 4, 0.2)
        assert rp.eps_at_k_plus_1 <= 0.2 < rp.eps_at_k
        assert rp.n == 4

    def test_epsilon_domain(self, fig1):
        with pytest.raises(ValueError):
            rate_star_pair(fig1, 2, 0.0)
        with pytest.raises(ValueError):
            rate_star_pair(fig1, 2, 1.0)


class TestPrefixOverflow:
    def test_fig1_n2_curve(self, fig1):
        # [DERIVED] pair scope: the p_y-weighted mean of the per-string
        # overflows at k-1 (19/100, 23/50, 23/50, 16/25 weighted 4:2:2:1
        # over ninths) is exactly 9/25.
        assert epsilon_star_prefix(fig1, 2, 1, exact=True) == 1
        assert epsilon_star_prefix(fig1, 2, 2, exact=True) == Fraction(9, 25)
        assert epsilon_star_prefix(fig1, 2, 3, exact=True) == 0
        assert epsilon_star_prefix(fig1, 2, 9, exact=True) == 0

    def test_k_zero_rejected(self, fig1):
        with pytest.raises(ValueError):
            epsilon_star_prefix(fig1, 2, 0)

    def test_per_y_scope(self, fig1):
        y = y_repeat(fig1, "01", 2)
        assert epsilon_star_prefix(fig1, 2, 2, y=y, exact=True) == Fraction(23, 50)


class TestGeneralConverse:
    def test_ref_exact(self, fig1):
        y = y_repeat(fig1, "001", 3)
        for k in (1, 2):
            check = check_general_converse(fig1, k, [0.5, 1, 2, 4], y=y, exact=True)
            assert check.ok
            assert check.scope == "ref"

    def test_pair_exact(self, fig1):
        check = check_general_converse(fig1, 1, [1, 2], n=2, exact=True)
        assert check.ok
        assert check.scope == "pair"

    @pytest.mark.parametrize("model", [pytest.param(None, id="fig1"),
                                       pytest.param(MARKOV2X2_INITIAL, id="markov2x2")])
    def test_pair_exact_lhs_is_the_weighted_sum(self, fig1, model):
        model = model or fig1
        laws = _pair_laws_of(model, 3, "bruteforce", True)
        for k in range(5):
            want = sum((w * law.epsilon_star_exact(k) for w, law in laws), Fraction(0))
            assert check_general_converse(model, k, [1, 2], n=3, exact=True).lhs == float(want)

    def test_float_track(self, fig1):
        y = y_repeat(fig1, "001", 6)
        assert check_general_converse(fig1, 2, [0.5, 1.5, 3], y=y).ok

    def test_nonpositive_tau_rejected(self, fig1):
        y = y_repeat(fig1, "0", 2)
        with pytest.raises(ValueError):
            check_general_converse(fig1, 1, [0.0], y=y)


class TestProductFormLaw:
    @pytest.mark.parametrize("n", [30, 60, 400])
    def test_float_matches_exact(self, fig1, n):
        # at n = 400 the law spans 268 x 134 cells, more than one count chunk
        y = y_repeat(fig1, "001", n)
        law = length_law_typeclass(fig1, y)
        exact = length_law_typeclass(fig1, y, exact=True)
        for k in range(0, n + 1, max(1, n // 7)):
            assert abs(law.epsilon_star(k) - float(exact.epsilon_star_exact(k))) <= 1e-11
        for eps in (0.1, 0.4):
            rp = law.rate_point(eps)
            hi, lo = exact.epsilon_star_exact(rp.k), exact.epsilon_star_exact(rp.k + 1)
            assert lo <= Fraction(eps) < hi
            assert abs(rp.eps_at_k - float(hi)) <= 1e-11
            assert abs(rp.eps_at_k_plus_1 - float(lo)) <= 1e-11

    def test_pair_queries_build_each_law_once(self, fig1, monkeypatch):
        calls = []
        build = limits._typeclass_law

        def counting(*args, **kwargs):
            calls.append(args[1])
            return build(*args, **kwargs)

        # the sweep builds its laws through _typeclass_law, with shared factors
        monkeypatch.setattr(limits, "_typeclass_law", counting)
        _pair_curve_of_route.cache_clear()
        n = 6
        curve = [epsilon_star_pair(fig1, n, k, method="typeclass", exact=True)
                 for k in range(n + 2)]
        # one law per y-composition, however many k are asked
        assert len(calls) == len(set(calls)) == n + 1
        assert curve[0] == 1 and curve[-1] == 0


def _eager_class_floats(law):
    """log2p and suffix masses of an exact law, built eagerly the way the
    ranking built them with every exact law before they were deferred."""
    lps = []
    for f in law._factors:
        if f.log2s is None:
            lps.append(np.array([math.log2(v) - math.log2(f.den) if v > 0 else -math.inf
                                 for v in f.nums.tolist()]))
        else:
            lps.append(f.log2s)
    lp = limits._outer(lps, np.add)
    lc = limits._outer([f.lc for f in law._factors], np.add)
    nums = limits._outer([f.nums for f in law._factors], np.multiply)
    keys = nums.tolist()
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__, reverse=True),
                     dtype=np.intp)
    ranked = nums[order]
    starts = np.flatnonzero(np.concatenate(([True], (ranked[1:] != ranked[:-1]).astype(bool))))
    lp = lp[order]
    mass = np.add.reduceat(np.exp2(lp + lc[order]), starts)
    log2p = lp[starts]
    suffix = np.zeros(len(mass) + 1)
    suffix[:-1] = mass[::-1].cumsum()[::-1]
    return log2p, suffix


def _float_ranking_built(law) -> bool:
    return law._floats is not None or any("lp" in vars(f) for f in law._factors)


class TestOnePassCurve:
    @given(small_models(), st.data())
    @settings(max_examples=40)
    def test_curve_matches_per_k_queries(self, model, data):
        # count chunks of 1-3 classes, so the ranks 2^k cross and skip chunks
        n = data.draw(st.integers(1, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "COUNT_CHUNK", data.draw(st.sampled_from([1, 2, 3])))
            for route in ("typeclass", "bruteforce"):
                for exact in (False, True):
                    _assert_pair_curve_matches_per_k(model, n, route, exact)
        _pair_curve_of_route.cache_clear()

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_markov_bruteforce_laws(self, monkeypatch, size):
        monkeypatch.setattr(limits, "COUNT_CHUNK", size)
        for exact in (False, True):
            _assert_pair_curve_matches_per_k(MARKOV2X2_INITIAL, 4, "bruteforce", exact)
        _pair_curve_of_route.cache_clear()

    def test_float_curve_entries_are_floats(self, corpus_models):
        for model, n in ((corpus_models["fig1"], 6), (corpus_models["skewed34"], 4),
                         (corpus_models["deterministic"], 3), (MARKOV2X2_INITIAL, 4)):
            values = [epsilon_star_pair(model, n, k) for k in range(n + 4)]
            assert all(type(v) is float for v in values)
            exact = [epsilon_star_pair(model, n, k, exact=True) for k in range(n + 4)]
            assert all(type(v) is Fraction for v in exact)

    def test_exact_pair_curve_builds_no_floats(self, corpus_models, monkeypatch):
        built, calls, constructed = [], [], []
        pair_laws = limits._pair_laws
        init = LengthLaw.__init__

        def recording(*args, **kwargs):
            calls.append(args)
            for w, law in pair_laws(*args, **kwargs):
                built.append(law)
                yield w, law

        def constructing(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(limits, "_pair_laws", recording)
        monkeypatch.setattr(LengthLaw, "__init__", constructing)
        for model, n, route in ((corpus_models["fig1"], 4, "typeclass"),
                                (corpus_models["fig1"], 4, "bruteforce"),
                                (corpus_models["skewed34"], 3, "bruteforce"),
                                (MARKOV2X2_INITIAL, 4, "bruteforce")):
            _pair_curve_of_route.cache_clear()
            built.clear()
            calls.clear()
            constructed.clear()
            limits._pair_curve(model, n, route, exact=True)
            if route == "bruteforce" and isinstance(model, CondIidModel):
                # the integer walk over y-prefixes builds no law at all
                assert not calls and not constructed
                continue
            assert built
            for law in built:
                assert law.num_classes >= 1
                assert not _float_ranking_built(law)
        _pair_curve_of_route.cache_clear()

    def test_bruteforce_walk_matches_typeclass_on_corpus(self, corpus_models):
        for name, model in sorted(corpus_models.items()):
            if not isinstance(model, CondIidModel) or model.p_y is None:
                continue
            joint = len(model.x_alphabet) * len(model.y_alphabet)
            n = max(n for n in range(1, 17) if joint**n <= 1 << 16)
            _pair_curve_of_route.cache_clear()
            walk = limits._pair_curve(model, n, "bruteforce", exact=True)
            assert walk == limits._pair_curve(model, n, "typeclass", exact=True), name
        _pair_curve_of_route.cache_clear()

    def test_bruteforce_walk_with_zeros(self):
        # a y-symbol of zero probability and a zero conditional entry
        model = model_from_dict({
            "kind": "cond_iid", "x_alphabet": ["a", "b", "c"], "y_alphabet": ["0", "1", "2"],
            "p_x_given_y": [["1/2", "0", "1/2"], ["1/6", "1/3", "1/2"], ["1/3", "1/3", "1/3"]],
            "p_y": ["2/5", "0", "3/5"],
        })
        for n in range(1, 5):
            _pair_curve_of_route.cache_clear()
            walk = limits._pair_curve(model, n, "bruteforce", exact=True)
            kmax = (3**n).bit_length()
            laws = _pair_laws_of(model, n, "bruteforce", True)
            assert list(walk) == _reference_pair_curve(laws, kmax, True)
            assert walk == limits._pair_curve(model, n, "typeclass", exact=True)
        _pair_curve_of_route.cache_clear()

    def test_deferred_floats_match_eager_build(self, corpus_models):
        cases = [(corpus_models["fig1"], "001", 9), (corpus_models["deterministic"], "01", 6),
                 (corpus_models["skewed34"], "wzz", 5), (MARKOV2X2_INITIAL, "0110", 8)]
        for model, word, n in cases:
            y = y_repeat(model, word, n)
            builders = [length_law_bruteforce]
            if isinstance(model, CondIidModel):
                builders.append(length_law_typeclass)
            for build in builders:
                law = build(model, y, exact=True)
                log2p, suffix = _eager_class_floats(law)
                assert law.num_classes == len(log2p)
                assert not _float_ranking_built(law)
                assert law.log2p.tobytes() == log2p.tobytes()
                assert law.suffix_mass.tobytes() == suffix.tobytes()
                for tau in (0.0, 1.5, n / 2, float(n), 2.0 * n):
                    j = int(np.searchsorted(-log2p, tau, side="left"))
                    assert law.info_tail(tau).hex() == float(suffix[j]).hex()


def _walked(make):
    """A law whose count chunks were all produced in order."""
    law = make()
    law.cum_counts
    return law


def _assert_jumps_match_walk(make, exact):
    """Every count a fresh law jumps to, and every query a fresh law
    answers, equals what the law that walked all its chunks gives:
    floats ``.hex()``-equal, exact values ``==``.  Every rank is asked
    of a law of at most 4096 strings, and the ranks next to each 2^k
    of a larger one."""
    walked = _walked(make)
    fresh = make()
    nclass = len(walked._starts)
    for j in range(nclass):
        prev, _, mass_before, _ = walked._class_data(j)
        assert fresh._before(j) == (prev, mass_before)
    assert fresh._before(nclass) == (walked.num_strings, walked._total_num)
    kmax = walked.num_strings.bit_length()
    for k in range(kmax + 1):
        if exact:
            assert make().epsilon_star_exact(k) == walked.epsilon_star_exact(k)
        else:
            assert make().epsilon_star(k).hex() == walked.epsilon_star(k).hex()
    ranks = range(1, walked.num_strings + 2)
    if walked.num_strings > 1 << 12:
        ranks = [(1 << k) + d for k in range(kmax + 1) for d in (-1, 1)]
    for b in ranks:
        if exact:
            assert make().excess_at_rank_exact(b) == walked.excess_at_rank_exact(b)
        else:
            assert make().excess_at_rank(b).hex() == walked.excess_at_rank(b).hex()
    if not exact:
        for eps in (0.05, 0.3, 0.7):
            got, want = make().rate_point(eps), walked.rate_point(eps)
            assert (got.k, got.eps_at_k.hex(), got.eps_at_k_plus_1.hex()) == (
                want.k, want.eps_at_k.hex(), want.eps_at_k_plus_1.hex())


DYADIC = model_from_dict({
    "kind": "cond_iid",
    "x_alphabet": ["a", "b", "c"],
    "y_alphabet": ["0", "1"],
    "p_x_given_y": [["1/2", "1/4", "1/4"], ["1/2", "1/2", "0"]],
    "p_y": ["1/2", "1/2"],
})


def _comb_counts(model, y):
    """Class counts of the law given ``y`` for a model with binary rows,
    in pure Python: per type class a product of ``math.comb``, summed
    over the type classes of equal exact probability, most probable
    first."""
    comp = y.counts()
    classes = {}
    for ks in product(*(range(c + 1) for c in comp)):
        p = math.prod(row[0] ** (c - k) * row[1] ** k
                      for row, c, k in zip(model.p_x_given_y, comp, ks))
        count = math.prod(math.comb(c, k) for c, k in zip(comp, ks))
        classes[p] = classes.get(p, 0) + count
    return [classes[p] for p in sorted(classes, reverse=True)]


class TestBinomialRow:
    SIZES = [*range(301), 999, 1000, 2001]

    def test_row_is_comb(self):
        for n in self.SIZES:
            assert limits._binomial_row(n) == [math.comb(n, k) for k in range(n + 1)]


class TestIntCounts:
    # fig1 given 001... has 2^n strings: they fit in int64 at n = 62, not at 63
    @pytest.mark.parametrize("n", [62, 63])
    @pytest.mark.parametrize("exact", [False, True])
    def test_counts_either_side_of_int64(self, fig1, n, exact):
        y = y_repeat(fig1, "001", n)
        law = length_law_typeclass(fig1, y, exact=exact)
        assert law._ints is (np.int64 if n == 62 else object)
        want = _comb_counts(fig1, y)
        counts, cum = law.counts, law.cum_counts
        assert all(type(v) is int for v in counts + cum)
        assert counts == want
        assert cum == list(accumulate(want))

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("n", [62, 63])
    @pytest.mark.parametrize("exact", [False, True])
    def test_jumps_match_walk_either_side_of_int64(self, fig1, monkeypatch, size, n, exact):
        monkeypatch.setattr(limits, "COUNT_CHUNK", size)
        y = y_repeat(fig1, "001", n)
        _assert_jumps_match_walk(lambda: length_law_typeclass(fig1, y, exact=exact), exact)


class TestChunkJump:
    def test_pair_curve_counts_no_dominance(self, fig1, monkeypatch):
        # every fig1 law at n = 150 has at most two chunks: a rank lies in
        # the first chunk when the first chunk has as many classes, and
        # past the first chunk's end it lies in the last
        calls = []
        prefix_lengths = limits._prefix_lengths

        def counting(*args, **kwargs):
            calls.append(args)
            return prefix_lengths(*args, **kwargs)

        monkeypatch.setattr(limits, "_prefix_lengths", counting)
        _pair_curve_of_route.cache_clear()
        rate_star_pair(fig1, 150, 0.1)
        _pair_curve_of_route.cache_clear()
        assert not calls

    def test_curve_skips_chunks_without_ranks(self, fig1, monkeypatch):
        produced = []
        chunk = LengthLaw._chunk

        def counting(law, c):
            if law._last is None or law._last[0] != c:
                produced.append(c)
            return chunk(law, c)

        y = y_repeat(fig1, "001", 400)
        walked = _walked(lambda: length_law_typeclass(fig1, y))
        ends = walked.cum_counts[COUNT_CHUNK - 1::COUNT_CHUNK] + [walked.num_strings]
        ranks = [1 << k for k in range(402)]
        holding = sorted({bisect_left(ends, b) for b in ranks if 1 < b <= walked.num_strings})
        assert len(holding) < len(ends)
        monkeypatch.setattr(LengthLaw, "_chunk", counting)
        curve = length_law_typeclass(fig1, y)._excess_at_ranks(ranks, exact=False)
        assert produced == holding
        assert [v.hex() for v in curve] == [
            v.hex() for v in walked._excess_at_ranks(ranks, exact=False)]

    def test_deep_rank_produces_one_chunk(self, fig1, monkeypatch):
        produced = []
        chunk = LengthLaw._chunk

        def counting(law, c):
            if law._last is None or law._last[0] != c:
                produced.append(c)
            return chunk(law, c)

        monkeypatch.setattr(LengthLaw, "_chunk", counting)
        # 268 x 134 cells in as many classes: nine count chunks
        y = y_repeat(fig1, "001", 400)
        n_strings = 1 << 400
        for exact in (False, True):
            for b in (1 << 399, n_strings - 1):
                law = length_law_typeclass(fig1, y, exact=exact)
                assert law.num_classes > 8 * COUNT_CHUNK
                produced.clear()
                got = law.excess_at_rank_exact(b) if exact else law.excess_at_rank(b)
                assert len(produced) == 1 and produced[0] >= 4
                walked = _walked(lambda: length_law_typeclass(fig1, y, exact=exact))
                assert got == (walked.excess_at_rank_exact(b) if exact
                               else walked.excess_at_rank(b))

    def test_prefix_lengths_follow_merge_predicate(self):
        # levels a few ulps from a cell value minus MERGE_TOL, where the
        # searchsorted guess and the rounded predicate can disagree
        rng = np.random.default_rng(7)
        for _ in range(300):
            lp = -rng.uniform(0, 3000, size=40)
            last = np.sort(-rng.uniform(0, 3000, size=40))[::-1]
            x = lp[rng.integers(40)] + last[rng.integers(40)]
            level = x - limits.MERGE_TOL + rng.integers(-8, 9) * np.spacing(x)
            want = [int((((a + last) - level) > limits.MERGE_TOL).sum()) for a in lp]
            assert limits._prefix_lengths(lp, last, level).tolist() == want
        # a gap of exactly MERGE_TOL merges, so it does not rank above
        tol = limits.MERGE_TOL
        assert limits._prefix_lengths(np.zeros(2), np.array([0.0, -tol]), -tol).tolist() == [0, 0]

    @given(small_models(), st.data())
    @settings(max_examples=40)
    def test_small_models_both_routes(self, model, data):
        ny = len(model.y_alphabet)
        n = data.draw(st.integers(1, 4))
        y = SideInfoString(
            model.y_alphabet, tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n)))
        size = data.draw(st.sampled_from([1, 2, 3]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "COUNT_CHUNK", size)
            for exact in (False, True):
                _assert_jumps_match_walk(
                    lambda: length_law_typeclass(model, y, exact=exact), exact)
                _assert_jumps_match_walk(
                    lambda: length_law_bruteforce(model, y, exact=exact), exact)

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("exact", [False, True])
    def test_dyadic_boundaries(self, corpus_models, monkeypatch, size, exact):
        # every class count is a power of two times a binomial, so
        # cumulative counts land on the queried ranks 2^k exactly
        monkeypatch.setattr(limits, "COUNT_CHUNK", size)
        for model, word, n in ((corpus_models["uniform2"], "01", 9), (DYADIC, "001", 7)):
            y = y_repeat(model, word, n)
            _assert_jumps_match_walk(
                lambda: length_law_typeclass(model, y, exact=exact), exact)

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("exact", [False, True])
    def test_zero_probability_cells(self, corpus_models, monkeypatch, size, exact):
        # both builders keep the impossible strings as cells of log2p -inf:
        # the 2^n - 1 of each deterministic y-string, and on DYADIC those
        # with an x-symbol c where y = 1
        monkeypatch.setattr(limits, "COUNT_CHUNK", size)
        deterministic = corpus_models["deterministic"]
        builders = (length_law_bruteforce, length_law_typeclass)
        for model, word, n in ((deterministic, "01", 6), (deterministic, "0", 5),
                               (DYADIC, "01", 6), (DYADIC, "1", 5)):
            y = y_repeat(model, word, n)
            brute, typeclass = (build(model, y, exact=exact) for build in builders)
            assert brute.log2p[-1] == typeclass.log2p[-1] == -math.inf
            assert brute.num_classes == typeclass.num_classes
            assert brute.counts == typeclass.counts
            assert brute.log2p.tobytes() == typeclass.log2p.tobytes()
            # a type-class mass is exp2(log2p + log2 count), which rounds
            # where a count is no power of two; the -inf class has none
            assert brute.suffix_mass[-2] == typeclass.suffix_mass[-2] == 0.0
            np.testing.assert_allclose(brute.suffix_mass, typeclass.suffix_mass,
                                       rtol=1e-15, atol=0)
            if exact:
                assert brute.probs == typeclass.probs
            for build in builders:
                _assert_jumps_match_walk(lambda: build(model, y, exact=exact), exact)


@st.composite
def window_models(draw):
    """Random cond-i.i.d. model with |X| <= 4 and |Y| <= 3 whose rational
    rows have zeros, dyadic entries and repeated values, so that cells
    tie exactly and merge in chains of rounding gaps, and rows with two
    entries 2^-41 apart in log, whose type classes merge in chains
    longer than MERGE_TOL."""
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rows: list[list[Fraction]] = []
    for _ in range(ny):
        kind = draw(st.sampled_from(["weights", "dyadic", "chain", "repeat"] if rows
                                    else ["weights", "dyadic", "chain"]))
        if kind == "chain":
            w = [2**41 + 1, 2**41] + [2**40 * draw(st.integers(0, 4)) for _ in range(nx - 2)]
            row = draw(st.permutations([Fraction(a, sum(w)) for a in w]))
        elif kind == "repeat":
            # another row's values in another order
            row = draw(st.permutations(draw(st.sampled_from(rows))))
        elif kind == "dyadic":
            row = [Fraction(1)]
            for _ in range(draw(st.integers(0, nx - 1))):
                half = row.pop(draw(st.integers(0, len(row) - 1))) / 2
                row += [half, half]
            row = draw(st.permutations(row + [Fraction(0)] * (nx - len(row))))
        else:
            w = draw(st.lists(st.integers(0, 6), min_size=nx, max_size=nx)
                     .filter(lambda v: sum(v) > 0))
            row = [Fraction(a, sum(w)) for a in w]
        rows.append(list(row))
    return CondIidModel(
        x_alphabet=Alphabet(tuple(str(i) for i in range(nx))),
        y_alphabet=Alphabet(tuple(str(i) for i in range(ny))),
        p_x_given_y=tuple(tuple(r) for r in rows),
    )


WINDOW_EPSILONS = (0.5, 0.2, 0.05, 1e-3, 1e-9)

CHAIN = model_from_dict({
    "kind": "cond_iid",
    "x_alphabet": ["a", "b", "c"],
    "y_alphabet": ["0", "1"],
    "p_x_given_y": [[f"{2**41 + 1}/{5 * 2**40 + 1}", f"{2**41}/{5 * 2**40 + 1}",
                     f"{2**40}/{5 * 2**40 + 1}"], ["1/2", "1/3", "1/6"]],
})


def _close(a: float, b: float) -> bool:
    """Within 1e-12 relative; 0 matches only 0."""
    return a == b or (a != 0 and b != 0 and abs(a - b) <= 1e-12 * max(abs(a), abs(b)))


def _assert_window_matches_ranking(make) -> None:
    """Every float point query of a fresh law, answered from a level
    window, agrees with the same query on the ranked law; the class a
    window finds for a rank is the ranked law's, count for count.

    ``make(exact)`` builds the law.  The two rate points may differ in k
    only where epsilon equals the exact overflow between them, a tie
    that only rounding decides.
    """
    ranked = make(False)
    cum = ranked.cum_counts
    for k in range(ranked.num_strings.bit_length() + 1):
        assert _close(make(False).epsilon_star_window(k), ranked.epsilon_star(k)), k
        if 1 < (b := 1 << k) <= ranked.num_strings:
            win, j = make(False)._window_class_of_rank(b)
            want = bisect_left(cum, b)
            if j is None:
                assert ranked.log2p[want] == -math.inf
            else:
                assert win.cum[j] == ranked._class_data(want)[1]
                assert win.tops[j] == ranked.log2p[want]
    for eps in WINDOW_EPSILONS:
        got, want = make(False).rate_point_window(eps), ranked.rate_point(eps)
        if got.k != want.k:
            assert abs(got.k - want.k) == 1, eps
            tie = make(True).epsilon_star_exact(max(got.k, want.k))
            assert abs(float(tie) - eps) <= 1e-12 * eps, eps
        assert _close(got.eps_at_k, ranked.epsilon_star(got.k)), eps
        assert _close(got.eps_at_k_plus_1, ranked.epsilon_star(got.k + 1)), eps


class TestLevelWindow:
    @given(window_models(), st.data())
    @settings(max_examples=80)
    def test_window_matches_ranking(self, model, data):
        ny = len(model.y_alphabet)
        n = data.draw(st.integers(1, 12))
        if data.draw(st.booleans()):
            idx = (data.draw(st.integers(0, ny - 1)),) * n   # one factor: A is trivial
        else:
            idx = tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n))
        y = SideInfoString(model.y_alphabet, idx)
        size = data.draw(st.sampled_from([1, 2, 5, limits.WINDOW_CELLS]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "WINDOW_CELLS", size)
            _assert_window_matches_ranking(lambda exact: length_law_typeclass(model, y, exact))
            if len(model.x_alphabet) ** n <= 1 << 12:
                # one flat factor, with the impossible strings as -inf cells
                _assert_window_matches_ranking(
                    lambda exact: length_law_bruteforce(model, y, exact))

    def test_merge_chains_grow_the_window(self, corpus_models, monkeypatch):
        # nogap's rows share their values, so equal probabilities come out
        # a rounding error apart and chain into classes far narrower than
        # MERGE_TOL, which the bisection keeps whole; in CHAIN two symbols
        # are 2^-41 apart in log, so runs of type classes chain over many
        # times MERGE_TOL, and a one-cell window must grow across them
        monkeypatch.setattr(limits, "WINDOW_CELLS", 1)
        cases = [(corpus_models["nogap"], "01", 40), (corpus_models["nogap"], "0011", 24),
                 (CHAIN, "001", 30)]
        for model, word, n in cases:
            y = y_repeat(model, word, n)
            law = length_law_typeclass(model, y)
            assert law.num_classes < math.prod(law._shape)
            _assert_window_matches_ranking(lambda exact: length_law_typeclass(model, y, exact))

    def test_rate_tie_decided_by_rounding(self):
        # exact eps*(7) = 1/2, so at epsilon = 0.5 the exact rate point is
        # k = 6; the two paths round that overflow differently (one run
        # read 0.49999999999999983 in the window and 0.5 in the ranking,
        # whose offset then gave k = 7), which the helper must allow
        model = model_from_dict({
            "kind": "cond_iid", "x_alphabet": ["0", "1", "2"], "y_alphabet": ["0", "1"],
            "p_x_given_y": [["1/11", "5/11", "5/11"], ["1/2", "1/4", "1/4"]]})
        y = SideInfoString(model.y_alphabet, (0, 1, 1, 1, 1, 1))
        assert length_law_bruteforce(model, y, exact=True).epsilon_star_exact(7) == Fraction(1, 2)
        _assert_window_matches_ranking(lambda exact: length_law_bruteforce(model, y, exact))

    def test_point_query_never_ranks(self, fig1):
        # criterion 7's point: the ranked law peaks near 500 MiB here
        y = y_repeat(fig1, "001", 6000)
        tracemalloc.start()
        try:
            rp = rate_star_ref(fig1, y, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rp.k == 3826
        assert peak < 32 * 2**20


class TestGuards:
    def test_bruteforce_guard(self, fig1):
        with pytest.raises(GuardExceededError):
            length_law_bruteforce(fig1, y_repeat(fig1, "0", 21))

    def test_pair_converse_guard(self, fig1):
        with pytest.raises(GuardExceededError):
            check_general_converse(fig1, 1, [1.0], n=11)

    def test_pair_walk_guard(self, fig1, monkeypatch):
        # 4^11 > 2^20: refused before p_y is read, so before any y-string
        def unread(self):
            raise AssertionError("p_y read past the guard")

        monkeypatch.setattr(CondIidModel, "require_p_y", unread)
        _pair_curve_of_route.cache_clear()
        with pytest.raises(GuardExceededError):
            epsilon_star_pair(fig1, 11, 1, method="bruteforce", exact=True)

    def test_class_cap(self, fig1):
        with pytest.raises(GuardExceededError):
            length_law_typeclass(fig1, (2000, 1000), class_cap=2001 * 1001 - 1)
        assert length_law_typeclass(fig1, (20, 10), class_cap=21 * 11).num_classes == 21 * 11

    @pytest.mark.parametrize("query", [
        lambda m: epsilon_star_pair(m, 3, 1, method="bogus"),
        lambda m: rate_star_pair(m, 3, 0.1, method="bogus"),
        lambda m: epsilon_star_prefix(m, 3, 1, method="bogus"),
        lambda m: epsilon_star_ref(m, y_repeat(m, "01", 3), 1, method="bogus"),
    ])
    def test_unknown_method_raises_on_every_route(self, corpus_models, query):
        with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
            query(corpus_models["markov2x2"])


def _rate_bits(rp):
    return rp.k, rp.eps_at_k.hex(), rp.eps_at_k_plus_1.hex()


def _fresh_typeclass_pair_curve(model, n, exact):
    """The type-class pair curve from one length_law_typeclass per
    composition, so that no two laws share a factor."""
    p_y = model.require_p_y()
    laws = []
    for comp in limits._compositions(n, len(model.y_alphabet)):
        w = limits._composition_weight(p_y, comp, exact)
        if w != 0:
            laws.append((w, length_law_typeclass(model, comp, exact=exact)))
    return _reference_pair_curve(laws, (len(model.x_alphabet) ** n).bit_length(), exact)


def _assert_shared_factor_curves_match(model, n):
    for exact in (False, True):
        _pair_curve_of_route.cache_clear()
        got = limits._pair_curve(model, n, "typeclass", exact)
        want = _fresh_typeclass_pair_curve(model, n, exact)
        if exact:
            assert list(got) == want
        else:
            assert [v.hex() for v in got] == [float(v).hex() for v in want]
    _pair_curve_of_route.cache_clear()


ONE_SYMBOL = model_from_dict({
    "kind": "cond_iid", "x_alphabet": ["0", "1", "2"], "y_alphabet": ["0"],
    "p_x_given_y": [["1/2", "1/3", "1/6"]], "p_y": ["1"],
})

# a y-symbol of zero probability and a zero conditional entry
DEAD_SYMBOL = model_from_dict({
    "kind": "cond_iid", "x_alphabet": ["a", "b", "c"], "y_alphabet": ["0", "1", "2"],
    "p_x_given_y": [["1/2", "0", "1/2"], ["1/6", "1/3", "1/2"], ["1/3", "1/3", "1/3"]],
    "p_y": ["2/5", "0", "3/5"],
})


class TestBuildOnce:
    """Shared factors within a sweep, and the last law and codebook kept
    across queries, give the results of building everything afresh."""

    @given(small_models(max_ny=4), st.data())
    @settings(max_examples=40)
    def test_shared_factor_pair_curves(self, model, data):
        _assert_shared_factor_curves_match(model, data.draw(st.integers(1, 4)))

    def test_shared_factor_pair_curves_one_to_four_symbols(self, corpus_models):
        for model, n in ((ONE_SYMBOL, 6), (corpus_models["fig1"], 8), (DEAD_SYMBOL, 5),
                         (corpus_models["skewed34"], 5)):
            _assert_shared_factor_curves_match(model, n)

    @given(small_models(), st.data())
    @settings(max_examples=40)
    def test_ref_memo_matches_fresh_laws(self, model, data):
        ny = len(model.y_alphabet)
        n = data.draw(st.integers(1, 4))
        y = SideInfoString(model.y_alphabet,
                           tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n)))
        ks = range((len(model.x_alphabet) ** n).bit_length() + 1)
        for method, build in (("bruteforce", length_law_bruteforce),
                              ("typeclass", length_law_typeclass)):
            # one query sequence per (route, track), so each shares one law
            for k in ks:
                assert epsilon_star_ref(model, y, k, method=method, exact=True) == \
                    build(model, y, exact=True).epsilon_star_exact(k)
            for k in ks:
                assert epsilon_star_ref(model, y, k, method=method).hex() == \
                    build(model, y).epsilon_star(k).hex()
            for eps in (0.7, 0.3, 0.05):
                assert _rate_bits(rate_star_ref(model, y, eps, method=method)) == \
                    _rate_bits(build(model, y).rate_point(eps))

    @pytest.mark.parametrize("name, word, n", [("fig1", "001", 400), ("nogap", "01", 40)])
    def test_held_window_law_matches_fresh_laws(self, corpus_models, name, word, n):
        model = corpus_models[name]
        y = y_repeat(model, word, n)
        held = limits._ref_law(model, y, "auto", False)
        assert not limits._one_chunk(held)
        ks = range(0, held.num_strings.bit_length() + 1, 7)
        eps_list = WINDOW_EPSILONS * -(-len(ks) // len(WINDOW_EPSILONS))
        for k, eps in zip(ks, eps_list):
            # the held law answers every query, its window kept between them
            assert epsilon_star_ref(model, y, k).hex() == \
                length_law_typeclass(model, y).epsilon_star_window(k).hex()
            assert _rate_bits(rate_star_ref(model, y, eps)) == \
                _rate_bits(length_law_typeclass(model, y).rate_point_window(eps))
        assert limits._ref_law(model, y, "auto", False) is held

    def test_point_queries_of_one_y_build_one_law(self, monkeypatch):
        m = _markov_small(with_initial=True)
        y = y_repeat(m, "011", 9)
        builds = []
        build = limits.length_law_bruteforce

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(limits, "length_law_bruteforce", counting)
        monkeypatch.setattr(limits, "_LAST_REF_LAW", limits._LastBuilt(limits._one_chunk))
        for k in range(len(y) + 1):
            assert epsilon_star_ref(m, y, k).hex() == build(m, y).epsilon_star(k).hex()
        assert len(builds) == 1

    @staticmethod
    def _race(queries, want):
        """Ask ``queries`` from four threads switching often; the
        answers, as float hex, must be ``want``."""
        wrong = []

        def ask(t):
            for i in range(len(queries)):
                j = (t * 7 + i) % len(queries)
                try:
                    if queries[j]() != want[j]:
                        wrong.append(j)
                except Exception as exc:    # a torn cache shows as an error
                    wrong.append((j, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_racing_callers_share_small_laws(self, fig1):
        # more threads than cores on two y-strings that take turns in the
        # one memo slot, each kept law ranked and read by several threads
        ys = [y_repeat(fig1, word, 9) for word in ("001", "01")]
        queries, want = [], []
        for _ in range(20):
            for y in ys:
                for k in range(10):
                    queries.append(lambda y=y, k=k: epsilon_star_ref(fig1, y, k).hex())
                    want.append(length_law_bruteforce(fig1, y).epsilon_star(k).hex())
        self._race(queries, want)

    def test_racing_callers_share_a_window_law(self, fig1):
        # a law above COUNT_CHUNK cells is shared while a caller holds it
        y = y_repeat(fig1, "001", 400)
        held = limits._ref_law(fig1, y, "auto", False)
        queries, want = [], []
        for k in range(0, 401, 20):
            queries.append(lambda k=k: epsilon_star_ref(fig1, y, k).hex())
            want.append(length_law_typeclass(fig1, y).epsilon_star_window(k).hex())
        for eps in WINDOW_EPSILONS:
            queries.append(lambda eps=eps: _rate_bits(rate_star_ref(fig1, y, eps)))
            want.append(_rate_bits(length_law_typeclass(fig1, y).rate_point_window(eps)))
        self._race(queries, want)
        assert limits._ref_law(fig1, y, "auto", False) is held

    def test_skewed34_sweep_builds_each_factor_once(self, corpus_models, monkeypatch):
        calls = []
        build = limits._symbol_factor

        def counting(row, count, exact):
            calls.append((row, count))
            return build(row, count, exact)

        monkeypatch.setattr(limits, "_symbol_factor", counting)
        _pair_curve_of_route.cache_clear()
        rate_star_pair(corpus_models["skewed34"], 10, 0.1)
        _pair_curve_of_route.cache_clear()
        # one per (y-symbol, count): four symbols, counts 1 to 10
        assert len(calls) == len(set(calls)) == 40

    @pytest.mark.parametrize("name, n, most", [("fig1", 40, 0), ("skewed34", 6, 4 * 6)])
    def test_sweep_holds_factors_only_while_needed(self, corpus_models, name, n, most):
        seen, held = {}, []
        for _, law in limits._pair_laws(corpus_models[name], n, "typeclass", False):
            seen.update((id(f), weakref.ref(f)) for f in law._factors)
            del law
            # the law is dropped: a factor still alive is the sweep's
            held.append(sum(r() is not None for r in seen.values()))
        assert max(held) <= most
        if most:
            assert max(held) > 0    # the check sees a factor the sweep keeps
        assert not any(r() is not None for r in seen.values())

    def test_window_law_does_not_outlive_its_query(self, fig1):
        y = y_repeat(fig1, "001", 400)
        rate_star_ref(fig1, y, 0.1)
        epsilon_star_ref(fig1, y, 200)
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, LengthLaw)]
