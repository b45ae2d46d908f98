import dataclasses
import json
import math
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecomp import limits, models
from sidecomp.markov import markov_rates
from sidecomp.measures import _y_marginal_log2
from sidecomp.models import (
    Alphabet,
    CondIidModel,
    MarkovPairModel,
    ModelFormatError,
    SideInfoString,
    class_period,
    closed_classes,
    derive_y_chain,
    embed_cond_iid,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_probability,
    probability_to_string,
    save_model,
    validate,
)

from tests.conftest import MODELS_DIR, PERIODIC_CHAIN, REDUCIBLE_CHAIN, pair_chains


class TestParseProbability:
    def test_decimal_string(self):
        assert parse_probability("0.25") == Fraction(1, 4)

    def test_ratio_string(self):
        assert parse_probability("1/3") == Fraction(1, 3)

    def test_integer(self):
        assert parse_probability(1) == 1
        assert parse_probability(0) == 0

    def test_float_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_probability(0.25)

    def test_bool_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_probability(True)

    def test_out_of_range(self):
        with pytest.raises(ModelFormatError):
            parse_probability("1.5")
        with pytest.raises(ModelFormatError):
            parse_probability("-1/2")

    def test_huge_decimal_exponent_rejected(self):
        # Fraction would build a denominator of a million digits; the
        # bound is Python's own digit limit on integer strings
        with pytest.raises(ModelFormatError, match="decimal exponent beyond 4300"):
            parse_probability("1e-1000000")
        assert parse_probability("1e-4300") == Fraction(1, 10**4300)

    def test_garbage(self):
        with pytest.raises(ModelFormatError):
            parse_probability("one half")

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    def test_round_trip_through_string(self, q):
        assert parse_probability(probability_to_string(q)) == q

    def test_decimal_preferred(self):
        assert probability_to_string(Fraction(9, 10)) == "0.9"
        assert probability_to_string(Fraction(1, 3)) == "1/3"
        assert probability_to_string(Fraction(1)) == "1"


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ModelFormatError):
            Alphabet(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ModelFormatError):
            Alphabet(())

    def test_index(self):
        a = Alphabet(("x", "y"))
        assert a.index("y") == 1
        with pytest.raises(KeyError):
            a.index("z")


class TestSideInfoString:
    def test_single_char_labels_split(self):
        a = Alphabet(("0", "1"))
        s = SideInfoString.from_labels(a, "011")
        assert s.indices == (0, 1, 1)
        assert s.labels() == "011"

    def test_multi_char_labels_use_commas(self):
        a = Alphabet(("lo", "hi"))
        s = SideInfoString.from_labels(a, "lo,hi,lo")
        assert s.indices == (0, 1, 0)

    def test_counts(self):
        a = Alphabet(("0", "1", "2"))
        s = SideInfoString.from_labels(a, "0120")
        assert s.counts() == (2, 1, 1)

    def test_empty_rejected(self):
        a = Alphabet(("0",))
        with pytest.raises(ValueError):
            SideInfoString(a, ())

    @pytest.mark.parametrize("indices", [(3,), (-1,), (0, 2, 3, 1), (2, -1, 0), (-1, 3)])
    def test_out_of_range_index_rejected(self, indices):
        a = Alphabet(("0", "1", "2"))
        assert SideInfoString(a, (0, 2, 1, 2)).indices == (0, 2, 1, 2)
        with pytest.raises(ValueError, match="^side-information index out of range$"):
            SideInfoString(a, indices)


class TestModelIO:
    def test_round_trip(self, fig1):
        again = model_from_dict(model_to_dict(fig1))
        assert again == fig1

    def test_save_load(self, fig1, tmp_path):
        save_model(fig1, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json") == fig1

    def test_fig1_values_exact(self, fig1):
        assert fig1.p_x_given_y[0][0] == Fraction(9, 10)
        assert fig1.p_y == (Fraction(2, 3), Fraction(1, 3))

    def test_unknown_kind(self):
        with pytest.raises(ModelFormatError):
            model_from_dict({"kind": "mystery"})

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ModelFormatError, match="cannot read model file"):
            load_model(path)

    def test_integer_literal_past_the_digit_limit(self, tmp_path):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        path = tmp_path / "model.json"
        path.write_text('{"kind": "cond_iid", "p_y": [' + "1" * 5000 + "]}")
        with pytest.raises(ModelFormatError, match="is not valid JSON: Exceeds the limit"):
            load_model(path)

    def test_bad_row_sum_fails_validation(self):
        m = model_from_dict({
            "kind": "cond_iid",
            "x_alphabet": ["a", "b"], "y_alphabet": ["0"],
            "p_x_given_y": [["0.6", "0.3"]],
        })
        report = m.validate()
        assert not report.ok
        assert any("sum" in e for e in report.errors)

    def test_markov_round_trip(self, corpus_models):
        m = corpus_models["markov2x2"]
        assert model_from_dict(model_to_dict(m)) == m

    def test_corpus_validates(self, corpus_models):
        for name, model in corpus_models.items():
            assert validate(model).ok, name


class TestMarkovStructure:
    def test_context_indexing_round_trip(self, corpus_models):
        m = corpus_models["markov2x2"]
        for ctx in range(m.num_contexts):
            assert m.context_index(m.context_symbols(ctx)) == ctx

    def test_shift_context(self, corpus_models):
        m = corpus_models["markov2x2"]
        assert m.shift_context(2, 3) == (2 * 4 + 3) % 4**1

    def test_closed_classes_simple(self):
        # 0 -> 1 -> 0 closed; 2 feeds in
        assert closed_classes([[1], [0], [0]]) == [[0, 1]]

    def test_period(self):
        assert class_period([[1], [0]], [0, 1]) == 2
        assert class_period([[0, 1], [0]], [0, 1]) == 1

    def test_periodic_chain_fails_validation(self):
        m = model_from_dict(PERIODIC_CHAIN)
        report = m.validate()
        assert not report.ok
        assert any("not aperiodic" in e for e in report.errors)

    def test_reducible_chain_fails_validation(self):
        m = model_from_dict(REDUCIBLE_CHAIN)
        assert not m.validate().ok

    def test_structure_analysed_once_per_model(self):
        m = load_model(MODELS_DIR / "markov2x2.json")
        with mock.patch.object(models, "closed_classes", wraps=closed_classes) as tarjan, \
                mock.patch.object(MarkovPairModel, "context_digraph", autospec=True,
                                  side_effect=MarkovPairModel.context_digraph) as digraph:
            assert validate(m).ok
            markov_rates(m)
        assert (tarjan.call_count, digraph.call_count) == (1, 1)


class TestContextTables:
    """The context tables and the forward step against the public scalar
    methods, which stay their reference."""

    @given(model=pair_chains(max_order=3, pool_size=None, initial=True))
    @settings(max_examples=60)
    def test_tables_match_scalar_methods(self, model):
        ny = len(model.y_alphabet)
        for c in range(model.num_contexts):
            assert tuple(model._digits[c].tolist()) == model.context_symbols(c)
            assert model._next_context[c].tolist() == [
                model.shift_context(c, s) for s in range(model.num_pair_symbols)]
            y_ctx = 0
            for s in model.context_symbols(c):
                y_ctx = y_ctx * ny + model.pair_split(s)[1]
            assert model._y_context[c] == y_ctx

    @given(model=pair_chains(max_order=3, pool_size=None), data=st.data())
    @settings(max_examples=60)
    def test_advance_matches_scalar_step(self, model, data):
        nx, ny = len(model.x_alphabet), len(model.y_alphabet)
        ctx = np.array(data.draw(st.lists(st.integers(0, model.num_contexts - 1),
                                          min_size=1, max_size=6)))
        y = data.draw(st.integers(0, ny - 1))
        floats = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(ctx),
                                             max_size=len(ctx))))
        rationals = np.array([Fraction(i + 1, len(ctx) + 2) for i in range(len(ctx))])
        for probs, table in ((floats, model.transition_f),
                             (rationals, np.array(model.transition, dtype=object))):
            weights, nxt = model._advance(probs, ctx, y, table)
            want = [(probs[i] * table[c, model.pair_index(x, y)],
                     model.shift_context(int(c), model.pair_index(x, y)))
                    for i, c in enumerate(ctx) for x in range(nx)]
            assert nxt.tolist() == [c for _, c in want]
            assert list(map(type, weights)) == [type(w) for w, _ in want]
            assert weights.tolist() == [w for w, _ in want]

    @given(model=pair_chains(max_order=3, pool_size=None), data=st.data())
    @settings(max_examples=60)
    def test_heads_are_the_contexts_carrying_the_first_symbols(self, model, data):
        # distinct positive initial weights: a head that takes a wrong
        # context, or misses one, changes the mass
        C, d = model.num_contexts, model.order
        model = dataclasses.replace(
            model, initial=tuple(Fraction(2 * c + 1, C * C) for c in range(C)))
        nx, ny = len(model.x_alphabet), len(model.y_alphabet)
        y = data.draw(st.lists(st.integers(0, ny - 1), min_size=d, max_size=d))
        x = data.draw(st.lists(st.integers(0, nx - 1), min_size=d, max_size=d))
        heads = [model.context_index([model.pair_index(a, b) for a, b in zip(xs, y)])
                 for xs in product(range(nx), repeat=d)]
        init = model.initial_f
        own = model.context_index([model.pair_index(a, b) for a, b in zip(x, y)])
        assert _y_marginal_log2(model, y, x) == math.log2(init[own])
        assert 2.0 ** _y_marginal_log2(model, y) == pytest.approx(
            math.fsum(init[heads]), rel=1e-12)
        den, block = next(limits._markov_blocks(model, [(b,) for b in y], True))
        assert [Fraction(v, den) for v in block[0].tolist()] == [model.initial[c] for c in heads]


class TestDerivedYChain:
    def test_defect_zero_when_marginal_markov(self, corpus_models):
        for name in ("copy_chain", "markov2x2", "indep_chains"):
            yc = derive_y_chain(corpus_models[name])
            assert yc.markovianity_defect <= 1e-9, name

    def test_defect_positive_when_not(self, corpus_models):
        yc = derive_y_chain(corpus_models["ymarg_nonmarkov"])
        assert yc.markovianity_defect > 1e-3

    def test_rows_stochastic_on_support(self, corpus_models):
        yc = derive_y_chain(corpus_models["markov2x2"])
        sums = yc.transition.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0, atol=1e-12)


class TestEmbedCondIid:
    def test_rows_are_product_law(self, fig1):
        emb = embed_cond_iid(fig1)
        assert emb.order == 1
        expected = tuple(
            fig1.p_y[y] * fig1.p_x_given_y[y][x]
            for x in range(2) for y in range(2)
        )
        for row in emb.transition:
            assert row == expected

    def test_needs_p_y(self, corpus_models):
        with pytest.raises(ValueError):
            embed_cond_iid(corpus_models["refonly2x2"])

    def test_derived_y_chain_matches_p_y(self, fig1):
        yc = derive_y_chain(embed_cond_iid(fig1))
        assert yc.markovianity_defect <= 1e-12
        for row in yc.transition:
            assert np.allclose(row, [2 / 3, 1 / 3], atol=1e-12)
