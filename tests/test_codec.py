import dataclasses
import gc
import math
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidecomp import codec
from sidecomp.codec import (
    Codeword,
    build_code,
    build_prefix_code,
    check_counting_sandwich,
    check_pointwise_achievability,
    codeword_for_rank,
    decode,
    encode,
    rank_for_codeword,
)
from sidecomp.limits import (
    COUNT_CHUNK,
    GuardExceededError,
    epsilon_star_prefix,
    epsilon_star_ref,
)
from sidecomp.models import CondIidModel, SideInfoString

from tests.conftest import y_repeat


class TestRankCoding:
    def test_first_five_codewords(self):
        # [TRIVIAL] binary enumeration starts empty, 0, 1, 00, 01.
        assert [codeword_for_rank(m) for m in range(1, 6)] == ["", "0", "1", "00", "01"]

    @given(st.integers(min_value=1, max_value=10**9))
    def test_round_trip(self, m):
        assert rank_for_codeword(codeword_for_rank(m)) == m

    @given(st.integers(min_value=1, max_value=10**9))
    def test_length_is_floor_log2(self, m):
        # [TRIVIAL] rank m gets floor(log2 m) bits
        assert len(codeword_for_rank(m)) == m.bit_length() - 1

    def test_display(self):
        assert Codeword("").display() == "∅"
        assert Codeword("01").display() == "01"


class TestRankedCodebook:
    def test_fig1_y01_order_and_probs(self, fig1):
        # [DERIVED] exact products of the two conditional rows, sorted
        book = build_code(fig1, y_repeat(fig1, "01", 2))
        assert book.order == [(0, 1), (0, 0), (1, 1), (1, 0)]
        assert book.probs == [
            Fraction(27, 50),
            Fraction(9, 25),
            Fraction(3, 50),
            Fraction(1, 25),
        ]

    def test_encode_most_likely_is_empty(self, fig1):
        y = y_repeat(fig1, "01", 2)
        assert encode(fig1, y, "01").display() == "∅"
        assert encode(fig1, y, "10").bits == "00"

    def test_decode_inverts_encode(self, fig1):
        y = y_repeat(fig1, "001", 3)
        book = build_code(fig1, y)
        for xs in book.order:
            assert book.decode(book.encode(xs).bits) == xs

    def test_rank_table_built_only_by_encode(self, fig1, monkeypatch):
        y = y_repeat(fig1, "001", 6)
        books = []

        def recording(model, y):
            books.append(build_code(model, y))
            return books[-1]

        monkeypatch.setattr(codec, "build_code", recording)
        check_pointwise_achievability(fig1, y)
        check_counting_sandwich(fig1, y)
        assert build_prefix_code(fig1, y, 3).book is books[-1]
        assert len(books) == 3
        assert all("rank_of" not in vars(book) for book in books)
        book = books[0]
        for m, xs in enumerate(book.order, start=1):
            assert book.encode(xs).bits == codeword_for_rank(m)
            assert book.decode(codeword_for_rank(m)) == xs
        assert "rank_of" in vars(book)

    def test_decode_beyond_codebook(self, fig1):
        y = y_repeat(fig1, "0", 1)
        with pytest.raises(ValueError):
            decode(fig1, y, "11")

    def test_tie_break_is_lexicographic(self, corpus_models):
        m = corpus_models["uniform2"]
        book = build_code(m, y_repeat(m, "0", 2))
        assert book.order == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_guard_rejects_huge_n(self, fig1):
        with pytest.raises(ValueError):
            build_code(fig1, y_repeat(fig1, "0", 31))

    @pytest.mark.parametrize("call", [build_code, check_pointwise_achievability,
                                      check_counting_sandwich])
    def test_guard_names_the_power(self, corpus_models, call):
        # 3^10000 has more digits than int-to-str converts: the guard names
        # the power by base and exponent, without building it
        m = corpus_models["nogap"]
        with pytest.raises(GuardExceededError, match=r"^explicit codebook needs "
                           r"\|X\|\^n <= 1048576, got 3\^10000$"):
            call(m, y_repeat(m, "0", 10**4))

    def test_guard_is_the_bruteforce_guard(self, fig1):
        # 2^21 strings, one past limits.BRUTEFORCE_GUARD: refused before
        # any string is enumerated
        with pytest.raises(GuardExceededError):
            build_code(fig1, y_repeat(fig1, "0", 21))


def _all_y(model, n):
    for ys in product(range(len(model.y_alphabet)), repeat=n):
        yield SideInfoString(model.y_alphabet, ys)


def _mixed_codes_match_direct_sort(model, y) -> int:
    """Check one codebook and its prefix codes against a direct sort of
    ``Fraction`` products; return how many mixed-length codes were seen."""
    nx, n = len(model.x_alphabet), len(y)

    def prob(xs):
        return math.prod(model.p_x_given_y[yi][xv] for yi, xv in zip(y.indices, xs))

    order = sorted(product(range(nx), repeat=n), key=lambda xs: (-prob(xs), xs))
    probs = [prob(xs) for xs in order]
    book = build_code(model, y)
    assert book.order == order
    assert book.probs == probs
    assert [book.prob_of_rank(m) for m in range(1, len(order) + 1)] == probs
    mixed = 0
    for k in range(1, (len(order) - 1).bit_length() + 1):
        code = build_prefix_code(model, y, k)
        if len(set(code.lengths())) == 1:
            continue
        mixed += 1
        assert code.kraft_sum() == sum(Fraction(1, 2 ** len(w)) for w in code.codewords)
        for t in (k, k + 1, max(code.lengths())):
            assert code.excess_prob(t) == sum(
                p for p, w in zip(probs, code.codewords) if len(w) >= t
            )
    return mixed


class TestAgainstDirectSort:
    def test_corpus_every_y_up_to_3(self, corpus_models):
        mixed = 0
        for name, model in sorted(corpus_models.items()):
            if not isinstance(model, CondIidModel):
                continue
            for n in (1, 2, 3):
                for y in _all_y(model, n):
                    mixed += _mixed_codes_match_direct_sort(model, y)
        assert mixed > 0

    def test_fig1_every_y_at_6(self, fig1):
        mixed = sum(_mixed_codes_match_direct_sort(fig1, y) for y in _all_y(fig1, 6))
        assert mixed == 64 * 5


class TestSingleShotBounds:
    def test_pointwise_achievability_corpus(self, corpus_models):
        # length <= -log2 P(x|y) for every support string of every model
        for name, model in sorted(corpus_models.items()):
            if not isinstance(model, CondIidModel):
                continue
            for n in (1, 2, 3):
                y = y_repeat(model, "".join(model.y_alphabet.symbols), n)
                check = check_pointwise_achievability(model, y)
                assert check.ok, (name, n)
                assert check.max_slack_bits <= 1e-12, (name, n)

    def test_counting_sandwich_corpus(self, corpus_models):
        for name, model in sorted(corpus_models.items()):
            if not isinstance(model, CondIidModel):
                continue
            for n in (1, 2, 3):
                y = y_repeat(model, "".join(model.y_alphabet.symbols), n)
                check = check_counting_sandwich(model, y)
                assert check.ok, (name, n)
                assert check.checked > 0

    def test_deterministic_model_zero_length(self, corpus_models):
        model = corpus_models["deterministic"]
        y = y_repeat(model, "01", 4)
        check = check_pointwise_achievability(model, y)
        assert check.ok
        assert check.max_slack_bits == 0.0
        assert check.worst_rank == 1


class TestPrefixCode:
    def test_kraft_and_prefix_free(self, fig1):
        for n in (1, 2, 3):
            y = y_repeat(fig1, "001", n)
            for k in range(1, n + 2):
                code = build_prefix_code(fig1, y, k)
                assert code.kraft_sum() <= 1
                assert code.is_prefix_free()

    def test_overflow_matches_one_to_one(self, fig1):
        # P[prefix length >= k+1] equals the one-to-one overflow at k
        # while 2^k is below the codebook size, and vanishes after.
        for n in (1, 2, 3):
            y = y_repeat(fig1, "01", n)
            for k in range(1, n + 2):
                code = build_prefix_code(fig1, y, k)
                got = code.excess_prob(k + 1)
                assert got == epsilon_star_prefix(fig1, n, k + 1, y=y, exact=True)
                if 2**k < code.book.num_strings:
                    assert got == epsilon_star_ref(fig1, y, k, exact=True)
                else:
                    assert got == 0

    def test_boundary_full_tree(self, fig1):
        # k = n log2|X| packs everything at depth k with Kraft sum 1
        y = y_repeat(fig1, "01", 2)
        code = build_prefix_code(fig1, y, 2)
        assert code.lengths() == [2, 2, 2, 2]
        assert code.kraft_sum() == 1
        assert code.excess_prob(3) == 0

    def test_k_zero_rejected(self, fig1):
        with pytest.raises(ValueError):
            build_prefix_code(fig1, y_repeat(fig1, "0", 1), 0)


class TestLastCodebook:
    def test_large_book_lives_only_while_held(self, fig1):
        y = y_repeat(fig1, "001", 13)
        code = build_prefix_code(fig1, y, 3)
        assert code.book.num_strings > COUNT_CHUNK
        # the previous prefix code holds the book, so the next k reuses it
        assert build_code(fig1, y) is code.book
        assert build_prefix_code(fig1, y, 4).book is code.book
        held = weakref.ref(code.book)
        del code
        gc.collect()
        assert held() is None       # the memo does not keep it alive
        fresh = build_code(fig1, y)
        assert fresh.num_strings == 1 << 13

    def test_small_book_is_kept_until_another_is_built(self, fig1):
        y = y_repeat(fig1, "001", 6)
        kept = weakref.ref(build_code(fig1, y))
        gc.collect()
        assert kept() is not None and build_code(fig1, y) is kept()
        build_code(fig1, y_repeat(fig1, "01", 6))
        gc.collect()
        assert kept() is None

    def test_book_is_frozen(self, fig1):
        book = build_code(fig1, y_repeat(fig1, "01", 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            book.den = 1
