"""Explicit construction of the optimal code for a fixed y-string.

Source strings are ranked by decreasing conditional probability given
the side information, ties broken lexicographically, and the m-th
string receives the m-th binary codeword in length-lexicographic
order: the empty word, then 0, 1, 00, 01, and so on.  The codeword of
rank ``m`` is the binary expansion of ``m`` with the leading 1
removed, so its length is ``floor(log2 m)``.

Explicit codebooks enumerate every source string and share the
brute-force guard ``|X|^n <= limits.BRUTEFORCE_GUARD``; distributional
questions at larger blocklengths belong to the length-law machinery.

All ranking and probability checks here are exact: the codebook holds
integer numerators of P(x|y) over one common denominator, taken from
the brute-force enumeration of the length-law module, and sorts and
checks them by integer comparisons.  The sort is this module's own,
so it doubles as the ground-truth oracle that the large-scale
evaluators are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

from .limits import (
    BRUTEFORCE_GUARD,
    COUNT_CHUNK,
    GuardExceededError,
    _bruteforce_cond_iid_exact,
    _LastBuilt,
)
from .models import CondIidModel, SideInfoString


def codeword_for_rank(m: int) -> str:
    """Binary codeword of the rank-m string, length floor(log2 m)."""
    if m < 1:
        raise ValueError("ranks start at 1")
    return bin(m)[3:]


def rank_for_codeword(bits: str) -> int:
    if bits.strip("01") != "":
        raise ValueError(f"codeword must be a binary string, got {bits!r}")
    return int("1" + bits, 2)


@dataclass(frozen=True)
class Codeword:
    bits: str

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def rank(self) -> int:
        return rank_for_codeword(self.bits)

    def display(self) -> str:
        """Human-readable form; the empty codeword prints as a symbol."""
        return self.bits if self.bits else "∅"


@dataclass(frozen=True)
class RankedCodebook:
    """The optimal code for one y-string, fully enumerated.

    ``order[m-1]`` is the x-index tuple of rank ``m`` and
    ``nums[m-1] / den`` its exact conditional probability.
    """

    model: CondIidModel
    y: SideInfoString
    order: list[tuple[int, ...]]
    nums: list[int]
    den: int

    @cached_property
    def rank_of(self) -> dict[tuple[int, ...], int]:
        """Rank of each x-index tuple, built when :meth:`encode` first reads it."""
        return {x: m + 1 for m, x in enumerate(self.order)}

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def num_strings(self) -> int:
        return len(self.order)

    @property
    def probs(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.nums]

    def _as_indices(self, x: Sequence[int] | str) -> tuple[int, ...]:
        if isinstance(x, str):
            alph = self.model.x_alphabet
            if all(len(s) == 1 for s in alph.symbols):
                return tuple(alph.index(c) for c in x)
            return tuple(alph.index(p) for p in x.split(","))
        return tuple(x)

    def encode(self, x: Sequence[int] | str) -> Codeword:
        xi = self._as_indices(x)
        if len(xi) != self.n:
            raise ValueError("source string length must match the y-string")
        return Codeword(codeword_for_rank(self.rank_of[xi]))

    def decode(self, bits: str) -> tuple[int, ...]:
        m = rank_for_codeword(bits)
        if m > self.num_strings:
            raise ValueError(f"codeword {bits!r} is beyond the codebook")
        return self.order[m - 1]

    def prob_of_rank(self, m: int) -> Fraction:
        return Fraction(self.nums[m - 1], self.den)


# the last codebook, held while it has at most COUNT_CHUNK strings
_LAST_BOOK = _LastBuilt(lambda book: book.num_strings <= COUNT_CHUNK)


def build_code(model: CondIidModel, y: SideInfoString) -> RankedCodebook:
    """Rank all source strings for this y-string, exactly.

    Calls for one (model, y) in a row share one codebook: it is kept
    while it has at most ``COUNT_CHUNK`` strings, and a larger one only
    while a caller still holds it (a :class:`PrefixCodebook` does).
    """
    n = len(y)
    nx = len(model.x_alphabet)
    if nx**n > BRUTEFORCE_GUARD:
        raise GuardExceededError(
            f"explicit codebook needs |X|^n <= {BRUTEFORCE_GUARD}, got {nx**n}"
        )

    def build() -> RankedCodebook:
        nums, den = _bruteforce_cond_iid_exact(model, y)
        # A stable sort over product order breaks ties lexicographically.
        ranked = sorted(range(len(nums)), key=lambda i: -nums[i])
        strings = list(product(range(nx), repeat=n))
        return RankedCodebook(
            model=model,
            y=y,
            order=[strings[i] for i in ranked],
            nums=[nums[i] for i in ranked],
            den=den,
        )

    return _LAST_BOOK.get((model, y), build)


def encode(model: CondIidModel, y: SideInfoString, x: Sequence[int] | str) -> Codeword:
    return build_code(model, y).encode(x)


def decode(model: CondIidModel, y: SideInfoString, bits: str) -> tuple[int, ...]:
    return build_code(model, y).decode(bits)


@dataclass(frozen=True)
class PointwiseCheck:
    """Worst case of codeword length against the information density.

    The optimal code never spends more bits than ``-log2 P(x|y)`` on
    any positive-probability string; ``max_slack_bits`` is the largest
    (most adverse) value of ``length + log2 P(x|y)`` observed and must
    be <= 0.  The decision is made exactly; the float is diagnostic.
    """

    n: int
    ok: bool
    max_slack_bits: float
    worst_rank: int


def check_pointwise_achievability(model: CondIidModel, y: SideInfoString) -> PointwiseCheck:
    book = build_code(model, y)
    ok = True
    max_slack = -math.inf
    worst = 1
    for m, num in enumerate(book.nums, start=1):
        if num == 0:
            continue
        length = m.bit_length() - 1
        # length <= -log2 p  <=>  num * 2^length <= den, checked exactly
        if num << length > book.den:
            ok = False
        slack = length + math.log2(num / book.den)
        if slack > max_slack:
            max_slack = slack
            worst = m
    return PointwiseCheck(n=len(y), ok=ok, max_slack_bits=max_slack, worst_rank=worst)


@dataclass(frozen=True)
class SandwichCheck:
    """Counting bounds on every codeword length, checked exactly.

    For each positive-probability x, the expectation of ``1/P(X|y)``
    over strings at least as likely as x counts those strings, and the
    codeword length is wedged between ``log2(strict count) - 1`` and
    ``log2(inclusive count)``.
    """

    n: int
    ok: bool
    checked: int


def check_counting_sandwich(model: CondIidModel, y: SideInfoString) -> SandwichCheck:
    book = build_code(model, y)
    # Direct summation of E[1/P ; P > p] per probability class: each
    # support string contributes P * (1/P) = 1, so the expectation is
    # the exact head count of the strictly-more-likely classes.
    ok = True
    checked = 0
    nums = book.nums
    m = 1
    total = book.num_strings
    while m <= total:
        num = nums[m - 1]
        end = m
        while end + 1 <= total and nums[end] == num:
            end += 1
        if num > 0:
            count_gt = m - 1
            count_ge = end
            for rank in range(m, end + 1):
                length = rank.bit_length() - 1
                # log2(count_gt) - 1 <= length  <=>  count_gt <= 2^(length+1)
                if count_gt > (1 << (length + 1)):
                    ok = False
                # length <= log2(count_ge)  <=>  2^length <= count_ge
                if (1 << length) > count_ge:
                    ok = False
                checked += 1
        m = end + 1
    return SandwichCheck(n=len(y), ok=ok, checked=checked)


@dataclass
class PrefixCodebook:
    """Prefix-free rearrangement of the optimal code at level k.

    The ``min(2^k - 1, M)`` most likely strings keep codewords of
    length k; one reserved depth-k node roots the remaining strings as
    a fixed-width subtree.  Kraft's inequality always holds, and the
    probability of exceeding k bits equals the one-to-one overflow at
    k.
    """

    book: RankedCodebook
    k: int
    codewords: list[str]

    @property
    def n(self) -> int:
        return self.book.n

    def lengths(self) -> list[int]:
        return [len(w) for w in self.codewords]

    def kraft_sum(self) -> Fraction:
        top = max(self.lengths(), default=0)
        return Fraction(sum(1 << (top - len(w)) for w in self.codewords), 1 << top)

    def excess_prob(self, threshold: int) -> Fraction:
        """Exact probability that the codeword has >= threshold bits."""
        num = sum(v for v, w in zip(self.book.nums, self.codewords) if len(w) >= threshold)
        return Fraction(num, self.book.den)

    def is_prefix_free(self) -> bool:
        words = sorted(self.codewords)
        for a, b in zip(words, words[1:]):
            if b.startswith(a):
                return False
        return True


def build_prefix_code(model: CondIidModel, y: SideInfoString, k: int) -> PrefixCodebook:
    if k < 1:
        raise ValueError("prefix construction needs k >= 1")
    book = build_code(model, y)
    total = book.num_strings
    head = min((1 << k) - 1, total)
    codewords = [format(i, f"0{k}b") for i in range(head)]
    rest = total - head
    if rest == 1:
        codewords.append(format(head, f"0{k}b"))
    elif rest > 1:
        reserved = format(head, f"0{k}b")
        width = (rest - 1).bit_length()
        codewords += [reserved + format(i, f"0{width}b") for i in range(rest)]
    return PrefixCodebook(book=book, k=k, codewords=codewords)
