import gc
import json
import math
from decimal import Decimal, localcontext
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
from sidecomp.codec import build_code
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

from tests.conftest import MODELS_DIR, call_within, small_models, y_repeat


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
    """The type-class sweep's laws, or for brute force the reference loop's
    one law per y-string (the brute-force pair kernels build none), with
    their weights as probabilities: the sweep's exact weights are integers
    over ``d^n``, ``d`` the lcm of the ``p_y`` denominators."""
    if route == "bruteforce":
        return list(_per_y_string_pair_laws(model, n, exact))
    laws = list(limits._pair_laws(model, n, exact))
    if not exact:
        return laws
    scale = math.lcm(*(p.denominator for p in model.require_p_y())) ** n
    assert all(type(w) is int for w, _ in laws)
    return [(Fraction(w, scale), law) for w, law in laws]


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


def _assert_walk_is_typeclass(model, n):
    """The exact brute-force pair curve equals the type-class one as Fractions."""
    _pair_curve_of_route.cache_clear()
    walk = limits._pair_curve(model, n, "bruteforce", exact=True)
    assert all(type(v) is Fraction for v in walk)
    assert walk == limits._pair_curve(model, n, "typeclass", exact=True)
    _pair_curve_of_route.cache_clear()


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
        step = MarkovPairModel._advance

        def counting(model, probs, ctx, y, table):
            calls.append(y)
            return step(model, probs, ctx, y, table)

        monkeypatch.setattr(MarkovPairModel, "_advance", counting)
        _pair_curve_of_route.cache_clear()
        n = 3
        got = epsilon_star_pair(m, n, 1, exact=exact)
        monkeypatch.undo()
        # all 8 y-strings fit in one block: one forward step per depth past
        # the order, each for every y-prefix and y-symbol at once, gives
        # every y-string its weight and its law
        assert len(calls) == n - m.order
        assert all(np.asarray(y).tolist() == [0, 1] for y in calls)
        want = 0.0
        for ys in product(range(2), repeat=n):
            y = SideInfoString(m.y_alphabet, ys)
            want += _string_joints(m, ys, False).sum() * epsilon_star_ref(m, y, 1)
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
        exact = _string_joints(model, y.indices, True)
        flt = _string_joints(model, y.indices, False)
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


# |X| = 1: P(y) of y = 0101... is about 2^-1162.6 at length 900, below
# the smallest float64, and about 2^-904 at length 700
UNDERFLOW_DOC = {
    "kind": "markov_pair", "order": 1, "x_alphabet": ["0"], "y_alphabet": ["0", "1"],
    "transition": [["1/2", "1/2"], ["1/3", "2/3"]], "initial": ["1/2", "1/2"],
}
UNDERFLOW_CHAIN = model_from_dict(UNDERFLOW_DOC)


class TestUnderflow:
    @pytest.mark.parametrize("n, exact", [(700, False), (900, True)])
    def test_law_answers(self, n, exact):
        law = length_law_bruteforce(UNDERFLOW_CHAIN, y_repeat(UNDERFLOW_CHAIN, "01", n), exact=exact)
        assert law.num_strings == 1 and law.epsilon_star(0) == 1.0

    def test_float_law_names_the_underflow(self):
        y = y_repeat(UNDERFLOW_CHAIN, "01", 900)
        assert _y_marginal_log2(UNDERFLOW_CHAIN, y.indices) < -1074
        with pytest.raises(ValueError, match="^P\\(y\\) underflows float64.*exact=True$"):
            length_law_bruteforce(UNDERFLOW_CHAIN, y)

    @pytest.mark.parametrize("exact", [False, True])
    def test_zero_probability_keeps_its_message(self, exact):
        m = model_from_dict({**UNDERFLOW_DOC, "initial": ["1", "0"]})
        y = y_repeat(m, "10", 900)
        with pytest.raises(ValueError, match="^side-information string has zero probability$"):
            length_law_bruteforce(m, y, exact=exact)


def _string_joints(model, ys, exact):
    """P(x, y) over all x-strings in product order, y fixed: the y-prefix
    walk along ``ys`` alone, all zero (in the track's own type) when
    P(y) = 0."""
    zero = np.zeros((1, len(model.x_alphabet) ** len(ys)), object if exact else float)
    den, block = next(limits._markov_blocks(model, [(yt,) for yt in ys], exact), (1, zero))
    return np.array([Fraction(v, den) for v in block[0].tolist()]) if exact else block[0]


def _per_y_string_joints(model, ys, exact):
    """P(x, y) over every x-string by one forward pass of its own, as the
    brute-force routes enumerated before they walked y-prefixes: the
    public scalar context methods, applied to the x-strings as arrays."""
    if exact:
        init, trans = (np.array(t, dtype=object) for t in (model.initial, model.transition))
    else:
        init, trans = model.initial_f, model.transition_f
    xs = np.indices((len(model.x_alphabet),) * len(ys)).reshape(len(ys), -1)
    pair = [model.pair_index(x, yt) for x, yt in zip(xs, ys)]
    ctx = model.context_index(pair[:model.order])
    probs = init[ctx]
    for s in pair[model.order:]:
        probs, ctx = probs * trans[ctx, s], model.shift_context(ctx, s)
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
            if exact:  # numerators over the lcm of the joints' denominators
                lcm = math.lcm(*(p.denominator for p in joints))
                nums = [p.numerator * (lcm // p.denominator) for p in joints]
                w, factor = sum(joints), limits._flat_factor(None, nums, sum(nums))
            else:
                with np.errstate(divide="ignore"):
                    lp = np.log2(joints) - math.log2(joints.sum())
                w, factor = float(joints.sum()), limits._flat_factor(lp)
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
        return _reference_pair_curve(laws, (nx**n).bit_length(), True)
    total = np.zeros(len(ranks))
    for w, law in laws:
        total += w * np.array(law._excess_at_ranks(ranks, exact=False))
    return total.tolist()


def _pair_rows(model, n, exact):
    """``(P(y), P(x|y))`` of each row of the brute-force pair kernels: the
    float rows' weight and ``log2 P(x|y)``, or the exact rows' ``P(y)`` and
    ascending ``P(x|y)`` as ``Fraction``s."""
    if not exact:
        return [(w, row) for _, ws, lp, _, _ in limits._rows(model, n, False)
                for w, row in zip(ws, lp)]
    out = []
    for den, ws, rows, given in limits._exact_pair_rows(model, n):
        for w, row in zip(ws.tolist(), rows if isinstance(rows, list) else rows.tolist()):
            assert all(type(v) is int for v in row)
            q = sum(row) if given is None else given
            out.append((Fraction(w * q, den), [Fraction(v, q) for v in row]))
    return out


def _assert_pair_walk_matches_per_y_string(model, n, exact):
    """The brute-force pair rows hold the per-y-string loop's weights and
    laws, in the same order: float weights by ``.hex()`` and rows by bytes,
    exact ones as ``Fraction``s; so the pair curves are equal too."""
    got = _pair_rows(model, n, exact)
    want = list(_per_y_string_pair_laws(model, n, exact))
    assert len(got) == len(want)
    for (gw, row), (ww, wl) in zip(got, want):
        (wf,) = wl._factors
        if exact:
            assert type(ww) is Fraction and gw == ww
            assert row == sorted(Fraction(v, wf.den) for v in wf.nums.tolist())
        else:
            assert float(gw).hex() == float(ww).hex()
            assert row.tobytes() == wf.lp.tobytes()
    _pair_curve_of_route.cache_clear()
    curve = _pair_curve_of_route(model, n, "bruteforce", exact)
    ref = _summed_pair_curve(want, n, len(model.x_alphabet), exact)
    if exact:
        assert list(curve) == ref
    else:
        assert [v.hex() for v in curve] == [v.hex() for v in ref]


def _assert_joints_match_per_y_string(model, n, exact):
    """The fixed-y joints are the walk along one y-string, bit for bit;
    all zero where P(y) = 0, in the track's own type.  The rows of the
    walk over every y-string are the joints of those of positive
    probability, in product order; exact rows hold integers only."""
    positive = []
    for ys in product(range(len(model.y_alphabet)), repeat=n):
        got = _string_joints(model, ys, exact)
        want = _per_y_string_joints(model, ys, exact)
        assert got.dtype == want.dtype and list(map(type, got)) == list(map(type, want))
        if not want.any():
            assert not got.any() and len(got) == len(want)
            continue
        positive.append(want)
        if exact:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()
    walk = [(den, row) for den, block in
            limits._markov_blocks(model, [range(len(model.y_alphabet))] * n, exact) for row in block]
    assert len(walk) == len(positive)
    for (den, got), want in zip(walk, positive):
        if exact:
            assert all(type(v) in (int, np.int64) for v in got)
            assert [Fraction(v, den) for v in got.tolist()] == want.tolist()
        else:
            assert den == 1 and got.tobytes() == want.tobytes()


def _assert_float_curve_is_per_y_string(model, n):
    """The float brute-force pair curve, which ranks rows of y-strings in
    blocks, equals the sum of the per-y-string laws' curves byte for byte."""
    _pair_curve_of_route.cache_clear()
    curve = _pair_curve_of_route(model, n, "bruteforce", False)
    _pair_curve_of_route.cache_clear()
    want = _summed_pair_curve(_per_y_string_pair_laws(model, n, False), n,
                              len(model.x_alphabet), False)
    assert [v.hex() for v in curve] == [v.hex() for v in want]


def _chain(nx, ny, order, seed):
    """A Markov pair chain with a rational initial law and rows with zeros."""
    s = nx * ny
    rows = [[(seed * (c + 3) * (j + 1)) % 5 for j in range(s)] for c in range(s**order)]
    rows = [[1, *row[1:]] for row in rows]
    init = [(seed + c) % 3 for c in range(s**order)]
    return model_from_dict({
        "kind": "markov_pair", "order": order,
        "x_alphabet": [str(i) for i in range(nx)], "y_alphabet": [str(i) for i in range(ny)],
        "transition": [[str(Fraction(w, sum(row))) for w in row] for row in rows],
        "initial": [str(Fraction(w, sum(init))) for w in init],
    })


# a 2 x 2 chain whose every denominator is the prime 1000003 = Q: its
# exact joints at n are over Q^n, past 2^63 from n = 4
Q = 1000003
PRIME_CHAIN = model_from_dict({
    "kind": "markov_pair", "order": 1, "x_alphabet": ["0", "1"], "y_alphabet": ["0", "1"],
    "transition": [[f"{w}/{Q}" for w in row] for row in (
        (1, 2, 3, Q - 6), (Q - 10, 4, 5, 1), (7, Q - 15, 1, 7), (250000, 250001, 250001, Q - 750002))],
    "initial": [f"{w}/{Q}" for w in (Q - 9, 2, 3, 4)],
})

# an order-2 chain on 2 x 2 pair symbols, and one with a single y-symbol
ORDER2 = _chain(2, 2, 2, 7)
ONE_Y_CHAIN = _chain(2, 1, 1, 3)
ONE_Y = model_from_dict({
    "kind": "cond_iid", "x_alphabet": ["a", "b"], "y_alphabet": ["0"],
    "p_x_given_y": [["1/3", "2/3"]], "p_y": ["1"],
})


class TestPairWalk:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("exact", [False, True])
    def test_markov_small_matches_per_y_string(self, n, exact):
        m = _markov_small(with_initial=True)
        _assert_pair_walk_matches_per_y_string(m, n, exact)
        _assert_joints_match_per_y_string(m, n, exact)

    @given(small_markov_models(), st.data())
    @settings(max_examples=40, derandomize=True)
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
        assert len(_pair_rows(DEAD_SYMBOL, 3, exact)) == 8

    @pytest.mark.parametrize("model", [ONE_Y, ONE_Y_CHAIN], ids=["cond_iid", "markov"])
    def test_float_rows_wider_than_a_block(self, model):
        # one y-symbol: each block is one row, and at n = 13 that row holds
        # 2^13 = 8192 > COUNT_CHUNK cells
        assert 2**13 > COUNT_CHUNK
        for n in (1, 2, 13):
            blocks = [lp.shape for _, _, lp, _, _ in limits._rows(model, n, False)]
            assert blocks == [(1, 2**n)]
            _assert_float_curve_is_per_y_string(model, n)

    def test_float_rows_of_a_dead_symbol(self):
        # the y-strings holding y-symbol 1, of probability 0, get no row
        for n in range(1, 5):
            assert sum(len(w) for _, w, _, _, _ in limits._rows(DEAD_SYMBOL, n, False)) == 2**n
            _assert_float_curve_is_per_y_string(DEAD_SYMBOL, n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_order_two_chain(self, n):
        _assert_float_curve_is_per_y_string(ORDER2, n)
        _assert_pair_walk_matches_per_y_string(ORDER2, n, True)
        _assert_joints_match_per_y_string(ORDER2, n, True)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_float_curve_any_block_size(self, monkeypatch, chunk):
        # smaller blocks move where the walk stops stepping prefixes alone;
        # at chunk 1 every block is one row
        monkeypatch.setattr(limits, "COUNT_CHUNK", chunk)
        for model, n in ((DEAD_SYMBOL, 4), (PRIME_2X2, 7), (MARKOV2X2_INITIAL, 6), (ORDER2, 5)):
            limit = max(chunk, len(model.x_alphabet) ** n)
            assert all(lp.size <= limit for _, _, lp, _, _ in limits._rows(model, n, False))
            _assert_float_curve_is_per_y_string(model, n)
            if isinstance(model, MarkovPairModel):
                _assert_pair_walk_matches_per_y_string(model, n, False)

    def test_markov_walk_steps_each_prefix_once(self, corpus_models, monkeypatch):
        # markov2x2 at n = 7: 2^7 y-strings of 2^7 cells are 4 blocks of
        # 4096 cells, under the 4 y-prefixes of length 2.  The two prefixes
        # of length 1 take one step each, and each block 5 steps, one per
        # depth: 22 steps, where one per y-prefix past the order took 252
        model, rows = corpus_models["markov2x2"], []
        step = MarkovPairModel._advance

        def counting(self, probs, ctx, y, table):
            rows.append(len(probs))
            return step(self, probs, ctx, y, table)

        monkeypatch.setattr(MarkovPairModel, "_advance", counting)
        blocks = list(limits._markov_blocks(model, [range(2)] * 7, False))
        assert [b.shape for _, b in blocks] == [(32, 128)] * 4
        # the rows of each step, depth first over the blocks
        assert rows == ([1] + [1, 2, 4, 8, 16] * 2) * 2

    def test_exact_markov_pair_past_2_63(self):
        assert Q**3 < 1 << 63 <= Q**4
        assert next(limits._markov_blocks(PRIME_CHAIN, [range(2)] * 4, True))[0] == Q**4
        _assert_pair_walk_matches_per_y_string(PRIME_CHAIN, 4, True)

    def test_exact_markov_pair_without_initial_law(self):
        m = _markov_small(with_initial=False)
        with pytest.raises(ValueError) as ref:
            epsilon_star_ref(m, y_repeat(m, "01", 2), 1, exact=True)
        _pair_curve_of_route.cache_clear()
        with pytest.raises(ValueError) as pair:
            epsilon_star_pair(m, 3, 1, exact=True)
        assert str(pair.value) == str(ref.value)
        # the walk refuses before it yields any row
        rows = limits._exact_pair_rows(m, 3)
        with pytest.raises(ValueError, match=f"^{str(ref.value)}$"):
            next(rows)


def _assert_fixed_y_rows_are_pair_rows(model, n):
    """For every y-string of length n: the flat factor of the fixed-y
    brute-force law is y's row of the pair enumeration, in product order
    of x (float ``log2 P(x|y)`` by bytes, exact ``P(x|y)`` as
    ``Fraction``s), and so are a codebook's probabilities.  An exact row
    is P(x|y) from the model's own rationals: a product of conditional
    entries, or the forward pass's joints over their sum.  A y-string
    of probability zero has no pair row: a Markov one has no law either."""
    markov = isinstance(model, MarkovPairModel)
    xs = list(product(range(len(model.x_alphabet)), repeat=n))
    for exact in (False, True):
        rows = []
        for _, _, v, given, _ in limits._rows(model, n, exact):
            for row in v:
                q = sum(row.tolist()) if exact and given is None else given
                rows.append([Fraction(x, q) for x in row.tolist()] if exact else row)
        rows = iter(rows)
        for ys in product(range(len(model.y_alphabet)), repeat=n):
            y = SideInfoString(model.y_alphabet, ys)
            if markov and not _per_y_string_joints(model, ys, True).any():
                with pytest.raises(ValueError, match="^side-information string has zero"):
                    length_law_bruteforce(model, y, exact=exact)
                continue
            (factor,) = length_law_bruteforce(model, y, exact=exact)._factors
            if not markov and math.prod(model.p_y[a] for a in ys) == 0:
                continue
            row = next(rows)
            if not exact:
                assert factor.lp.tobytes() == row.tobytes()
                continue
            assert [Fraction(v, factor.den) for v in factor.nums.tolist()] == row
            if markov:
                joints = _per_y_string_joints(model, ys, True).tolist()
                assert row == [j / sum(joints) for j in joints]
            else:
                assert row == [math.prod(model.p_x_given_y[a][x] for a, x in zip(ys, xv))
                               for xv in xs]
                book = build_code(model, y)
                prob = dict(zip(book.order, book.probs))
                assert [prob[xv] for xv in xs] == row
        assert next(rows, None) is None


class TestOneRowSource:
    @given(st.one_of(small_models(), small_markov_models()), st.data())
    @settings(max_examples=40, deadline=None)
    def test_fixed_y_rows_are_pair_rows(self, model, data):
        n = data.draw(st.integers(getattr(model, "order", 1), 3))
        _assert_fixed_y_rows_are_pair_rows(model, n)

    @pytest.mark.parametrize("n", [1, 3])
    def test_dead_symbol_and_order_two(self, n):
        # y-symbol 1 of DEAD_SYMBOL has probability 0: its y-strings have a
        # law and a codebook, but no pair row
        _assert_fixed_y_rows_are_pair_rows(DEAD_SYMBOL, n)
        _assert_fixed_y_rows_are_pair_rows(ORDER2, n + 1)


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


class TestHugeK:
    """A rank past every string has overflow 0, so ``k = 10**20`` answers
    0 without building ``2**k``."""

    K = 10**20

    def test_law_queries(self, fig1):
        y = y_repeat(fig1, "01", 5)
        law = length_law_typeclass(fig1, y)
        for got in (law.epsilon_star(self.K), law.epsilon_star_window(self.K)):
            assert type(got) is float and got == 0.0
        exact = length_law_typeclass(fig1, y, exact=True).epsilon_star_exact(self.K)
        assert type(exact) is Fraction and exact == 0
        for query in (law.epsilon_star, law.epsilon_star_window, law.epsilon_star_exact):
            with pytest.raises(ValueError, match="k must be >= 0"):
                query(-1)

    @pytest.mark.parametrize("exact", [False, True])
    def test_prefix_queries(self, fig1, exact):
        y = y_repeat(fig1, "01", 5)
        for got in (epsilon_star_prefix(fig1, 5, self.K, y, exact=exact),
                    epsilon_star_prefix(fig1, 5, self.K, exact=exact)):
            assert got == 0 and type(got) is (Fraction if exact else float)


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


# a y-symbol of zero probability and a zero conditional entry
DEAD_SYMBOL = model_from_dict({
    "kind": "cond_iid", "x_alphabet": ["a", "b", "c"], "y_alphabet": ["0", "1", "2"],
    "p_x_given_y": [["1/2", "0", "1/2"], ["1/6", "1/3", "1/2"], ["1/3", "1/3", "1/3"]],
    "p_y": ["2/5", "0", "3/5"],
})


# a row summing to 1 - 10^-13, within the model tolerance, whose entries
# sit at and just below 1/2
BOUNDARY = model_from_dict({
    "kind": "cond_iid", "x_alphabet": ["a", "b"], "y_alphabet": ["0", "1"],
    "p_x_given_y": [["1/2", "0.4999999999999"], ["0.4", "0.6"]], "p_y": ["2/3", "1/3"],
})


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

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_exact_tau_must_be_finite(self, fig1, tau):
        with pytest.raises(ValueError, match="^exact slacks must be finite$"):
            check_general_converse(fig1, 1, [tau], y=y_repeat(fig1, "001", 3), exact=True)

    def test_exact_huge_tau(self, fig1):
        check = check_general_converse(fig1, 1, [1e300], y=y_repeat(fig1, "001", 3), exact=True)
        assert check.ok and check.entries[0].info_tail == 0.0

    @pytest.mark.parametrize("scope", ["ref", "pair"])
    def test_exact_huge_k(self, fig1, scope):
        where = {"y": y_repeat(fig1, "001", 3)} if scope == "ref" else {"n": 2}
        check = check_general_converse(fig1, 10**20, [1.0], exact=True, **where)
        assert check.ok and check.lhs == 0.0 and check.entries[0].info_tail == 0.0

    def test_log2_at_least_far_thresholds(self):
        # p <= 2^-t decided by bit lengths when 2^|t| would be huge, and
        # exactly near the boundary
        for t, want in ((10**20, False), (-10**20, True), (Fraction(3, 2), True),
                        (Fraction(8, 5), False), (-1, True), (1, True), (2, False)):
            assert limits._log2_at_least(Fraction(1, 3), Fraction(t)) is want

    def test_exact_slack_with_a_large_denominator(self, fig1):
        # 0.1 is 3602879701896397 / 2^55: each class is compared with
        # 2^-(k + 0.1) without raising its probability to the power 2^55
        y = y_repeat(fig1, "001", 3)
        taus = [0.1, 0.3, 2.7]
        got = call_within(20, lambda: check_general_converse(fig1, 1, taus, y=y, exact=True))
        assert got is not None, "the exact converse check did not return within 20 s"
        assert got[0] == "value", got
        law = length_law_bruteforce(fig1, y, exact=True)
        for tau, entry in zip(taus, got[1].entries):
            # every class lies far from the threshold, so float logs decide it
            logs = [-math.log2(p) - (1 + tau) for p in law.probs]
            assert min(map(abs, logs)) > 1e-6
            want = sum((p * c for p, c, g in zip(law.probs, law.counts, logs) if g >= 0),
                       Fraction(0))
            assert entry.info_tail == float(want)
        assert got[1].ok

    def test_log2_at_least_irrational_thresholds(self):
        # p <= 2^-t with 2^t irrational, for rationals p ever closer to
        # 2^-t, against the exact p^den · 2^num <= 1
        for t in (Fraction(3, 2), Fraction(7, 5), Fraction(-11, 3)):
            with localcontext() as ctx:
                ctx.prec = 120
                target = Fraction(Decimal(2) ** (-Decimal(t.numerator) / t.denominator))
            for digits in range(1, 60, 3):
                p = target.limit_denominator(10**digits)
                step = Fraction(1, 10 ** (2 * digits + 5))
                for q in (p - step, p, p + step):
                    want = q**t.denominator * Fraction(2) ** t.numerator <= 1
                    assert limits._log2_at_least(q, t) is want

    def test_float_track(self, fig1):
        y = y_repeat(fig1, "001", 6)
        assert check_general_converse(fig1, 2, [0.5, 1.5, 3], y=y).ok

    def test_nonpositive_tau_rejected(self, fig1):
        y = y_repeat(fig1, "0", 2)
        with pytest.raises(ValueError):
            check_general_converse(fig1, 1, [0.0], y=y)

    @pytest.mark.parametrize("taus", [[1.0, 0.0], [0.5, -1.0], [2.0, math.nan], [1.0, -math.inf]])
    @pytest.mark.parametrize("scope", ["ref", "pair"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_slacks_refused_before_any_enumeration(self, fig1, monkeypatch, taus, scope, exact):
        def enumerated(*args, **kwargs):
            raise AssertionError("enumerated before every slack was checked")

        for name in ("length_law_bruteforce", "_markov_blocks", "_exact_pair_rows", "_rows"):
            monkeypatch.setattr(limits, name, enumerated)
        # a float nan is not positive; the exact track names it not finite
        want = "exact slacks must be finite" if exact and math.isnan(taus[1]) else \
            "slacks must be positive"
        for model in (fig1, MARKOV2X2_INITIAL):
            where = {"y": y_repeat(model, "01", 3)} if scope == "ref" else {"n": 3}
            with pytest.raises(ValueError, match=f"^{want}$"):
                check_general_converse(model, 1, taus, exact=exact, **where)

    @pytest.mark.parametrize("exact", [False, True])
    def test_y_with_another_n_refused(self, fig1, exact):
        y = y_repeat(fig1, "001", 3)
        with pytest.raises(ValueError, match="^y-string length must equal n$"):
            check_general_converse(fig1, 1, [1.0], y=y, n=7, exact=exact)
        assert check_general_converse(fig1, 1, [1.0], y=y, n=3, exact=exact) == \
            check_general_converse(fig1, 1, [1.0], y=y, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_pair_converse_builds_no_law(self, fig1, monkeypatch, exact):
        constructed = []
        init = LengthLaw.__init__

        def constructing(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LengthLaw, "__init__", constructing)
        for model, n in ((fig1, 4), (DEAD_SYMBOL, 3), (MARKOV2X2_INITIAL, 4)):
            for k in range(4):
                assert check_general_converse(model, k, [0.5, 1, 2], n=n, exact=exact).ok
        assert not constructed

    @pytest.mark.parametrize("model, n", [
        pytest.param(None, 3, id="fig1"),
        pytest.param(DEAD_SYMBOL, 3, id="dead-symbol"),
        pytest.param(_markov_small(with_initial=True), 4, id="markov"),
        pytest.param(ORDER2, 4, id="order-2"),
        pytest.param(BOUNDARY, 1, id="boundary"),
        pytest.param(BOUNDARY, 2, id="boundary-n2"),
    ])
    @pytest.mark.parametrize("exact", [False, True])
    def test_pair_converse_matches_per_y_string_laws(self, fig1, model, n, exact):
        # the sums of the per-y-string laws, as the pair converse summed
        # them when it built those laws: exact ones as Fractions, floats
        # with math.fsum
        model = model or fig1
        laws = _pair_laws_of(model, n, "bruteforce", exact)
        taus = [0.1, 0.5, 1, 2]
        for k in range((len(model.x_alphabet) ** n).bit_length() + 2):
            check = check_general_converse(model, k, taus, n=n, exact=exact)
            if exact:
                lhs = sum((w * law.epsilon_star_exact(k) for w, law in laws), Fraction(0))
                tails = [sum((w * law.info_tail_exact(k + Fraction(tau)) for w, law in laws),
                             Fraction(0)) for tau in taus]
                b = 1 << min(k, (len(model.x_alphabet) ** n).bit_length())
                assert limits._exact_pair_sums(model, n, b, [k + Fraction(t) for t in taus]) \
                    == [lhs, *tails]
                oks = [t - lhs <= 0 or limits._log2_at_least(t - lhs, Fraction(tau))
                       for t, tau in zip(tails, taus)]
            else:
                lhs = math.fsum(w * law.epsilon_star(k) for w, law in laws)
                tails = [math.fsum(w * law.info_tail(k + tau) for w, law in laws) for tau in taus]
                oks = [lhs >= t - 2.0**-tau - 1e-12 for t, tau in zip(tails, taus)]
            assert check.lhs.hex() == float(lhs).hex()
            assert [e.info_tail.hex() for e in check.entries] == [float(t).hex() for t in tails]
            assert [e.ok for e in check.entries] == oks

    def test_boundary_rows_are_not_renormalized(self):
        # P(x|y) <= 1/2 holds for both entries of the row that sums to
        # 1 - 10^-13; over the row's sum the larger would fail it
        want = Fraction(2, 3) * (Fraction(1, 2) + Fraction("0.4999999999999")) + \
            Fraction(1, 3) * Fraction(2, 5)
        assert limits._exact_pair_sums(BOUNDARY, 1, 1, [Fraction(1)])[1] == want
        for exact in (False, True):
            (entry,) = check_general_converse(BOUNDARY, 0, [1], n=1, exact=exact).entries
            assert entry.info_tail == pytest.approx(0.79999999999993, abs=1e-14)
            assert entry.info_tail == float(want)


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
            if route == "bruteforce":
                # the brute-force block sweeps build no law at all
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
            _assert_walk_is_typeclass(model, max(n for n in range(1, 17) if joint**n <= 1 << 16))

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

    @pytest.mark.parametrize("n", [6, 7])
    def test_bruteforce_walk_int64_and_object_rows(self, n):
        # every row sums to 997/997: 997^6 < 2^63 <= 997^7, so the rows are
        # sorted in int64 at n = 6 and as Python integers at n = 7
        assert 997**6 < 1 << 63 <= 997**7
        _assert_walk_is_typeclass(PRIME_2X2, n)

    @pytest.mark.parametrize("rows, n", [
        # rows summing to 1 - 10^-13, over L = 10^13
        pytest.param([["1/2", "4999999999999/10000000000000"], ["1/4", "3/4"]], 1,
                     id="sum-below-one-n1"),
        pytest.param([["1/2", "4999999999999/10000000000000"], ["1/4", "3/4"]], 3,
                     id="sum-below-one-n3"),
        # L = 2^63 - 1 fits int64 but the first row sums to 2^63 / L: only
        # the row-sum bound sees that the int64 sum would wrap
        pytest.param([[f"{2**62}/{2**63 - 1}", f"{2**62}/{2**63 - 1}"], ["1/7", "6/7"]], 1,
                     id="sum-past-2^63"),
        # numerators past the float range, L = 10^200
        pytest.param([["1/2", f"{10**200 // 2 - 1}/{10**200}"], ["1/4", "3/4"]], 2,
                     id="past-float-range"),
    ])
    def test_bruteforce_walk_rows_off_one(self, rows, n):
        model = model_from_dict({
            "kind": "cond_iid", "x_alphabet": ["a", "b"], "y_alphabet": ["0", "1"],
            "p_x_given_y": rows, "p_y": ["1/3", "2/3"],
        })
        assert model.validate().ok
        _assert_walk_is_typeclass(model, n)

    def test_bruteforce_walk_row_wider_than_a_block(self):
        # one y-symbol: its one row holds 2^13 = 8192 > COUNT_CHUNK cells
        model = model_from_dict({
            "kind": "cond_iid", "x_alphabet": ["a", "b"], "y_alphabet": ["0"],
            "p_x_given_y": [["1/3", "2/3"]], "p_y": ["1"],
        })
        assert 2**13 > COUNT_CHUNK
        _assert_walk_is_typeclass(model, 13)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_bruteforce_walk_any_block_size(self, monkeypatch, chunk):
        # smaller blocks move the split between y-heads and y-tails
        monkeypatch.setattr(limits, "COUNT_CHUNK", chunk)
        for model, n in ((DEAD_SYMBOL, 4), (PRIME_2X2, 7), (PRIME_2X2, 5)):
            _assert_walk_is_typeclass(model, n)

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


def _assert_counted_just_past(cum, b, classes):
    """The first ``classes`` classes of the chunk holding rank ``b``
    (``cum`` the walked law's cumulative counts) reach ``b``, and they
    are at most one step of ``_chunk`` or the last of them starts at most
    2^-29 of the strings from the chunk's start to ``b`` past ``b``."""
    c, j = divmod(bisect_left(cum, b), COUNT_CHUNK)
    base = cum[c * COUNT_CHUNK - 1] if c else 0
    assert j < classes
    assert classes <= COUNT_CHUNK // 8 or \
        cum[c * COUNT_CHUNK + classes - 2] - b <= (b - base) >> 29


def _walked_excess(walked, b, exact):
    """P[rank >= b] from the walked law's class lists alone: a Fraction,
    or the float of :func:`limits._excess_in_classes`."""
    cum, n = walked.cum_counts, walked.num_strings
    if b <= 1:
        return walked.total_mass_exact() if exact else walked.total_mass()
    if b > n:
        return Fraction(0) if exact else 0.0
    j = bisect_left(cum, b)
    if exact:
        probs, counts = walked.probs, walked.counts
        return probs[j] * (cum[j] - b + 1) + sum(
            (p * c for p, c in zip(probs[j + 1:], counts[j + 1:])), Fraction(0))
    return limits._excess_in_classes(
        [float(walked.suffix_mass[j + 1])], [cum[j] - b + 1], [float(walked.log2p[j])])[0]


def _assert_prefixes_match(make, exact):
    """Fresh laws asked every rank 2^k, ranks N and N - 1 and the first
    and last rank of each class, in one pass and one rank at a time,
    ascending and descending, give what the walked law's classes give:
    floats ``.hex()``-equal, exact values as Fractions; and a law left
    with a partly counted chunk still reads the walked law's counts."""
    walked = _walked(make)
    cum, n = walked.cum_counts, walked.num_strings
    ranks = sorted({1 << k for k in range(n.bit_length() + 1)} | {n, n - 1}
                   | {b for a, e in zip([0] + cum, cum) for b in (a + 1, e)})
    ranks = [b for b in ranks if b >= 1]
    want = [_walked_excess(walked, b, exact) for b in ranks]
    if not exact:
        want = [v.hex() for v in want]

    def read(law, bs):
        got = law._excess_at_ranks(bs, exact)
        return [Fraction(v, law._den) for v in got] if exact else [v.hex() for v in got]

    assert read(make(), ranks) == want
    for order in (ranks, ranks[::-1]):
        law = make()
        assert [read(law, [b])[0] for b in order] == [want[ranks.index(b)] for b in order]
    for bs in (ranks, ranks[:len(ranks) // 2]):
        law = make()
        read(law, bs)
        assert law.cum_counts == cum
        assert law.counts == walked.counts
        assert law.probs == walked.probs


def _counting_classes(monkeypatch) -> dict:
    """Spy on ``LengthLaw._chunk``: the classes it counts, summed per
    (id of the law, chunk)."""
    counted: dict[tuple[int, int], int] = {}
    chunk = LengthLaw._chunk

    def counting(law, c, *args):
        last = law._last
        before = len(last[1].cum) - 1 if last is not None and last[0] == c else 0
        got = chunk(law, c, *args)
        key = (id(law), c)
        counted[key] = counted.get(key, 0) + len(got.cum) - 1 - before
        return got

    monkeypatch.setattr(LengthLaw, "_chunk", counting)
    return counted


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
        # 268 x 134 cells in as many classes, nine chunks, and one string
        # in the last class: a chunk that holds a rank is counted whole,
        # except the chunk of the last rank before the last class, which
        # is counted only a little past that rank's class; a chunk that
        # holds none is not counted at all
        y = y_repeat(fig1, "001", 400)
        walked = _walked(lambda: length_law_typeclass(fig1, y))
        cum = walked.cum_counts
        ranks = [1 << k for k in range(402)]
        before_last = cum[-2]
        placed = [b for b in ranks if 1 < b <= before_last]
        assert placed[-1] == 1 << 399
        holding = sorted({bisect_left(cum, b) // COUNT_CHUNK for b in placed})
        assert len(holding) < -(-len(cum) // COUNT_CHUNK)
        counted = _counting_classes(monkeypatch)
        law = length_law_typeclass(fig1, y)
        curve = law._excess_at_ranks(ranks, exact=False)
        assert sorted(c for (_, c), classes in counted.items() if classes) == holding
        *whole, c = holding
        for w in whole:
            assert counted[id(law), w] == min(COUNT_CHUNK, len(cum) - w * COUNT_CHUNK)
        _assert_counted_just_past(cum, placed[-1], counted[id(law), c])
        assert counted[id(law), c] < min(COUNT_CHUNK, len(cum) - c * COUNT_CHUNK)
        assert [v.hex() for v in curve] == [
            v.hex() for v in walked._excess_at_ranks(ranks, exact=False)]

    def test_deep_rank_produces_one_chunk(self, fig1, monkeypatch):
        # 268 x 134 cells in as many classes: nine count chunks, of which a
        # deep rank counts one, and in it only the classes up to the rank's
        y = y_repeat(fig1, "001", 400)
        n_strings = 1 << 400
        counted = _counting_classes(monkeypatch)
        for exact in (False, True):
            walked = _walked(lambda: length_law_typeclass(fig1, y, exact=exact))
            cum = walked.cum_counts
            for b in (1 << 399, n_strings - 1):
                law = length_law_typeclass(fig1, y, exact=exact)
                assert law.num_classes > 8 * COUNT_CHUNK
                counted.clear()
                got = law.excess_at_rank_exact(b) if exact else law.excess_at_rank(b)
                (key, classes), = [(key, v) for key, v in counted.items() if v]
                c = bisect_left(cum, b) // COUNT_CHUNK
                assert key == (id(law), c) and c >= 4
                _assert_counted_just_past(cum, b, classes)
                assert got == (walked.excess_at_rank_exact(b) if exact
                               else walked.excess_at_rank(b))

    @given(small_models(), st.data())
    @settings(max_examples=40)
    def test_prefixes_match_walked_laws(self, model, data):
        # chunks of 1 to 16 classes take the float sum, the doubling and
        # the last-class rule at these sizes; 4096 counts each law whole
        ny = len(model.y_alphabet)
        n = data.draw(st.integers(1, 5))
        y = SideInfoString(
            model.y_alphabet, tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n)))
        size = data.draw(st.sampled_from([1, 2, 3, 8, 16, 4096]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "COUNT_CHUNK", size)
            for build, exact in product((length_law_typeclass, length_law_bruteforce),
                                        (False, True)):
                _assert_prefixes_match(lambda: build(model, y, exact=exact), exact)

    def test_pair_sweep_counts_half_the_classes(self, fig1, monkeypatch):
        # the 151 laws of the fig1 n = 150 sweep hold 585276 classes; every
        # rank 2^0..2^149 lies in the first half of them, and 2^150 in each
        # law's last class, which is read from the end
        total = sum(law.num_classes for _, law in limits._pair_laws(fig1, 150, False))
        assert total == 585276
        counted = _counting_classes(monkeypatch)
        _pair_curve_of_route.cache_clear()
        rate_star_pair(fig1, 150, 0.1)
        _pair_curve_of_route.cache_clear()
        assert 0.5 * total <= sum(counted.values()) <= 0.55 * total

    def test_first_query_leaves_a_partial_chunk(self, fig1):
        # 67 x 34 cells in as many classes, one chunk: rank 2^99 lies in the
        # first half of them, so its query counts only a prefix, which a
        # later rank grows and counts/cum_counts complete
        y = y_repeat(fig1, "001", 100)
        walked = _walked(lambda: length_law_typeclass(fig1, y))
        law = length_law_typeclass(fig1, y)
        assert law.epsilon_star(99).hex() == walked.epsilon_star(99).hex()
        done = len(law._last[1].cum) - 1
        assert done < law.num_classes and 0 not in law._ends
        b = walked.cum_counts[done] + 1     # the first rank past the prefix
        assert law.excess_at_rank(b).hex() == _walked_excess(walked, b, False).hex()
        assert len(law._last[1].cum) - 1 >= min(2 * done, law.num_classes)
        assert law.cum_counts == walked.cum_counts and 0 in law._ends

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

    @pytest.mark.parametrize("query", [
        lambda m: rate_star_pair(m, -1, 0.1),
        lambda m: epsilon_star_pair(m, -1, 1),
        lambda m: epsilon_star_pair(m, 0, 1),
        lambda m: epsilon_star_pair(m, 0, 1, method="bruteforce", exact=True),
        lambda m: epsilon_star_prefix(m, 0, 2, exact=True),
        lambda m: epsilon_star_prefix(m, -1, 1),
    ])
    def test_pair_blocklength_below_one_raises(self, fig1, query):
        _pair_curve_of_route.cache_clear()
        with pytest.raises(ValueError, match="^blocklength must be >= 1$"):
            query(fig1)

    def test_type_class_pair_sweep_with_one_y_symbol(self):
        # one y-composition, but 10^6 ranks of up to 10^6 bits each:
        # refused before the rank list is built
        got = call_within(20, lambda: epsilon_star_pair(ONE_Y, 10**6, 1, method="typeclass"))
        assert got is not None and got[0] == "raised", got
        assert got[1] is GuardExceededError and "max(y-compositions, n)" in got[2]

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


def _live_laws() -> list:
    return [o for o in gc.get_objects() if isinstance(o, LengthLaw)]


def _rate_bits(rp):
    return rp.k, rp.eps_at_k.hex(), rp.eps_at_k_plus_1.hex()


def _fresh_typeclass_pair_curve(model, n, exact):
    """The type-class pair curve from one length_law_typeclass per
    composition, so that no two laws share a factor."""
    p_y = model.require_p_y()
    laws = []
    for comp in limits._compositions(n, len(model.y_alphabet)):
        if exact:
            w = limits._multinomial(n, comp) * math.prod(p**c for p, c in zip(p_y, comp))
        else:
            w = limits._composition_weight([float(p) for p in p_y], comp)
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

# a 2x2 model over the prime 997, as perfbench draws them
PRIME_2X2 = model_from_dict({
    "kind": "cond_iid", "x_alphabet": ["0", "1"], "y_alphabet": ["0", "1"],
    "p_x_given_y": [["311/997", "686/997"], ["904/997", "93/997"]],
    "p_y": ["420/997", "577/997"],
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
        for k in range(len(y) + 1):
            assert epsilon_star_ref(m, y, k).hex() == build(m, y).epsilon_star(k).hex()
        assert len(builds) == 1

    @staticmethod
    def _race(queries, want, stagger=7):
        """Ask ``queries`` from four threads switching often, thread ``t``
        from query ``t * stagger`` on, in a cycle; the answers, as float
        hex, must be ``want``."""
        wrong = []

        def ask(t):
            for i in range(len(queries)):
                j = (t * stagger + i) % len(queries)
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

    def test_racing_callers_share_a_held_window_law(self, fig1):
        # no caller holds the law between queries: the memo's strong hold
        # and the law's last two windows are raced, from k* and k*+1 and
        # from a rank far above that pushes them out of the pair
        y = y_repeat(fig1, "001", 400)
        k = length_law_typeclass(fig1, y).rate_point_window(0.1).k
        queries, want = [], []
        for _ in range(10):
            for kk in (k, k + 1, k, k + 1, k - 40):
                queries.append(lambda kk=kk: epsilon_star_ref(fig1, y, kk).hex())
                want.append(length_law_typeclass(fig1, y).epsilon_star_window(kk).hex())
        gc.collect()
        assert not _live_laws()
        self._race(queries, want)
        gc.collect()
        assert len(_live_laws()) == 1

    def test_racing_callers_grow_one_chunk(self, fig1):
        # a held ranking-route law of 67 x 34 cells, one chunk in as many
        # classes, fresh before each race: every thread asks ascending
        # ranks, so one grows the chunk's counted prefix while others read it
        y = y_repeat(fig1, "001", 100)
        queries = [lambda k=k: epsilon_star_ref(fig1, y, k).hex() for k in range(101)]
        want = [length_law_typeclass(fig1, y).epsilon_star(k).hex() for k in range(101)]
        for _ in range(3):
            epsilon_star_ref(fig1, y_repeat(fig1, "01", 9), 1)     # takes the memo slot
            held = limits._ref_law(fig1, y, "auto", False)
            assert limits._one_chunk(held) and held._last is None
            self._race(queries, want, stagger=0)
            assert limits._ref_law(fig1, y, "auto", False) is held

    def test_skewed34_sweep_builds_each_factor_once(self, corpus_models, monkeypatch):
        calls = []
        build = limits._symbol_factor

        def counting(row, count, nums, lcm):
            calls.append((row, count))
            return build(row, count, nums, lcm)

        monkeypatch.setattr(limits, "_symbol_factor", counting)
        _pair_curve_of_route.cache_clear()
        rate_star_pair(corpus_models["skewed34"], 10, 0.1)
        _pair_curve_of_route.cache_clear()
        # one per (y-symbol, count): four symbols, counts 1 to 10
        assert len(calls) == len(set(calls)) == 40

    @pytest.mark.parametrize("name, n, most", [("fig1", 40, 0), ("skewed34", 6, 4 * 6)])
    def test_sweep_holds_factors_only_while_needed(self, corpus_models, name, n, most):
        seen, held = {}, []
        for _, law in limits._pair_laws(corpus_models[name], n, False):
            seen.update((id(f), weakref.ref(f)) for f in law._factors)
            del law
            # the law is dropped: a factor still alive is the sweep's
            held.append(sum(r() is not None for r in seen.values()))
        assert max(held) <= most
        if most:
            assert max(held) > 0    # the check sees a factor the sweep keeps
        assert not any(r() is not None for r in seen.values())

    def test_float_sweep_builds_each_count_row_once(self, fig1, monkeypatch):
        built, rows = [], []
        binomial_row, count_row = limits._binomial_row, limits._count_row

        def counting(n):
            built.append(n)
            return binomial_row(n)

        def recording(*args):
            row = count_row(*args)
            rows.append(weakref.ref(row))
            return row

        monkeypatch.setattr(limits, "_binomial_row", counting)
        monkeypatch.setattr(limits, "_count_row", recording)
        _pair_curve_of_route.cache_clear()
        limits._pair_curve(fig1, 20, "typeclass", False)
        _pair_curve_of_route.cache_clear()
        # one row per count 1..20, shared by both y-symbols; a row per
        # factor would be 40
        assert sorted(built) == list(range(1, 21))
        gc.collect()
        assert len(rows) == 20 and not any(r() is not None for r in rows)

    def test_sweep_holds_count_rows_only_while_needed(self, fig1, monkeypatch):
        n, rows = 12, {}
        count_row = limits._count_row

        def recording(nx, size, c):
            row = count_row(nx, size, c)
            rows[c] = weakref.ref(row)
            return row

        monkeypatch.setattr(limits, "_count_row", recording)
        for i, (_, law) in enumerate(limits._pair_laws(fig1, n, False)):
            del law
            # composition i is (i, n - i); the row of count c serves
            # compositions c and n - c
            alive = {c for c, r in rows.items() if r() is not None}
            assert alive == {c for c in range(1, n + 1) if min(c, n - c) <= i <= max(c, n - c)}

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_sweep_matches_fresh_laws_across_chunks(self, corpus_models, monkeypatch, size):
        # chunks of 1-3 classes, so ranks 2^k cross and skip chunks; fig1
        # merges no cells, skewed34 ties cells of equal types, deterministic
        # merges its impossible strings into one class
        monkeypatch.setattr(limits, "COUNT_CHUNK", size)
        merged, produced = set(), {}
        class_sums, chunk = limits._class_sums, LengthLaw._chunk

        def recording_sums(cells, starts):
            merged.add(len(starts) < len(cells))
            return class_sums(cells, starts)

        def recording_chunk(law, c, *args):
            produced.setdefault(id(law), set()).add(c)
            return chunk(law, c, *args)

        monkeypatch.setattr(limits, "_class_sums", recording_sums)
        monkeypatch.setattr(LengthLaw, "_chunk", recording_chunk)
        for name, n in (("fig1", 30), ("skewed34", 5), ("deterministic", 6)):
            _assert_shared_factor_curves_match(corpus_models[name], n)
        assert merged == {False, True}
        assert any(len(cs) <= max(cs) for cs in produced.values())   # a chunk skipped

    def test_float_track_builds_no_numerators(self, corpus_models, monkeypatch):
        def refuse(rows):
            raise AssertionError("integer numerators built on the float track")

        _pair_curve_of_route.cache_clear()
        monkeypatch.setattr(limits, "_numerators", refuse)
        for name, n in (("fig1", 8), ("skewed34", 4), ("deterministic", 5)):
            model = corpus_models[name]
            assert limits._pair_curve(model, n, "typeclass", False)[0] > 0
            ny = len(model.y_alphabet)
            law = length_law_typeclass(model, SideInfoString(
                model.y_alphabet, tuple(i % ny for i in range(n))))
            assert law.epsilon_star(2) == pytest.approx(law.epsilon_star_window(2), rel=1e-12)
        _pair_curve_of_route.cache_clear()

    def test_compositions_in_lexicographic_order(self):
        for total, parts in product(range(7), range(1, 5)):
            want = [t for t in product(range(total + 1), repeat=parts) if sum(t) == total]
            assert list(limits._compositions(total, parts)) == want

    def test_window_law_is_held_and_reads_back_its_windows(self, fig1, monkeypatch):
        # 321201 cells in split tables of 801 and 401 rows: held, so the
        # read-backs at k* and k*+1 build no law and locate no window
        y = y_repeat(fig1, "001", 1200)
        k = rate_star_ref(fig1, y, 0.1).k
        gc.collect()
        assert len(_live_laws()) == 1
        want = [length_law_typeclass(fig1, y).epsilon_star_window(kk).hex()
                for kk in (k, k + 1)]
        windows = []
        window = LengthLaw._window

        def counting(law, *args):
            windows.append(args)
            return window(law, *args)

        monkeypatch.setattr(LengthLaw, "_window", counting)
        assert [epsilon_star_ref(fig1, y, kk).hex() for kk in (k, k + 1)] == want
        assert windows == []

    def test_laws_past_the_hold_rule_do_not_outlive_their_query(self, fig1):
        # 8192 cells: a float flat law has 8193 split-table rows, and an
        # exact law ranks its cells, so neither is held
        y = y_repeat(fig1, "001", 13)
        assert not limits._one_chunk(length_law_bruteforce(fig1, y))
        rate_star_ref(fig1, y, 0.1, method="bruteforce")
        epsilon_star_ref(fig1, y, 6, method="bruteforce")
        gc.collect()
        assert not _live_laws()
        epsilon_star_ref(fig1, y, 6, method="bruteforce", exact=True)
        gc.collect()
        assert not _live_laws()


def _class_numerators(law):
    return [law._class_data(j)[3] for j in range(law.num_classes)]


class TestOneDenominator:
    """Exact type-class laws share the brute-force laws' denominator."""

    def test_typeclass_and_bruteforce_laws_share_numerators(self, corpus_models):
        models = [m for _, m in sorted(corpus_models.items()) if isinstance(m, CondIidModel)]
        for model in [*models, PRIME_2X2]:
            ny = len(model.y_alphabet)
            for n in range(1, 5):
                for ys in product(range(ny), repeat=n):
                    y = SideInfoString(model.y_alphabet, ys)
                    tc = length_law_typeclass(model, y, exact=True)
                    bf = length_law_bruteforce(model, y, exact=True)
                    assert tc._den == bf._den
                    assert _class_numerators(tc) == _class_numerators(bf)
                    assert all(type(v) is int for v in _class_numerators(tc))
                    assert tc.counts == bf.counts
                    assert tc._total_num == bf._total_num

    @pytest.mark.parametrize("name, n", [("fig1", 8), ("skewed34", 4), ("deterministic", 5)])
    def test_exact_sweep_takes_numerators_twice(self, corpus_models, monkeypatch, name, n):
        model, calls = corpus_models[name], []
        numerators = limits._numerators

        def recording(rows):
            calls.append([tuple(row) for row in rows])
            return numerators(rows)

        monkeypatch.setattr(limits, "_numerators", recording)
        _pair_curve_of_route.cache_clear()
        limits._pair_curve(model, n, "typeclass", True)
        _pair_curve_of_route.cache_clear()
        # once for p_y, once for the conditional rows
        assert sorted(calls) == sorted([[tuple(model.p_y)], list(map(tuple, model.p_x_given_y))])
