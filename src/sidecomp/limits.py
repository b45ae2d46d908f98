"""Exact finite-blocklength limits of the optimal one-to-one code.

The optimal code orders source strings by decreasing conditional
probability given the side information and assigns binary codewords in
length-lexicographic order, so the string of probability rank ``m``
gets a codeword of ``floor(log2 m)`` bits.  Everything observable
about its performance is a functional of the *length law*: the ranked
list of per-string probabilities, grouped into classes of equal
probability with exact string counts.

Every law is held in product form (:class:`LengthLaw`): for
conditionally i.i.d. models one factor per y-symbol, whose cells are
the type classes of the positions seeing that symbol; the brute-force
builder enumerates the strings given one y-string into one flat factor,
an independent oracle and the only exact route for Markov models.
Markov enumerations walk y-prefixes breadth first in bounded blocks,
exactly in integers over one denominator, one ``MarkovPairModel._advance``
(the forward step every pair-context recursion shares) per depth for all
y-prefixes of a block.

Two evaluation tracks coexist:

* float: per-string probabilities as ``log2`` values (never as raw
  doubles, which underflow long before interesting blocklengths) with
  exact class counts, computed in int64 when the law's strings fit in
  it and as Python integers otherwise, and handed on as Python integers;
  its factors build no integer numerators;
* exact: rational per-string probabilities, for small blocklengths,
  used as the ground truth the float track is tested against.  It
  ranks by integer numerators alone; an exact law builds its float
  ``log2p`` and suffix masses only when one is read.

The type-class pair curve asks each law of its sweep for its overflow
at every rank ``2^k`` in one monotone pass, one step per count chunk
(found with no dominance count when it lies within as many strings of
the last class counted as its chunk has classes left, or past every
chunk but the last).  Each chunk is counted only through the class of
the last rank the pass places in it, and on a law of more than an
eighth of a chunk of classes a rank in its last class (``2^n`` for two
x-symbols) is read from the end, with no count: the fig1 sweep at
n = 150 counts half of its laws' classes.  The brute-force pair
queries, curves and converse check alike, build no law: each y-string
is one row of a numpy block, whose ``log2 P(x|y)`` is ranked with the
float operations of its own law, or whose integer numerators are
sorted.

A law ranks its cells only when a query reads the ranking: the pair
curve, ``info_tail``, ``counts``/``probs`` and the exact track.  The
float point queries of a fixed y-string (``rate_star_ref``,
``epsilon_star_ref``) on a law of more than ``COUNT_CHUNK`` cells
answer from a level window instead: a float bisection of a ``log2p``
level (steered by the mass below it, or by a log-sum-exp estimate of
the string count above it) narrows the window to about
``WINDOW_CELLS`` cells; only those are sorted and merged, the window
grows geometrically while a merge chain crosses its edge or the sought
class lies outside, and one exact count of the strings above it places
each located class.

Each object is built once where queries repeat it, and every sharing
point bounds what it keeps:

* a type-class pair sweep builds one count row (the string counts of
  the type classes and their ``log2``) per (support size, count) and one
  factor per (y-symbol, count), and keeps each only while a later
  composition of the sweep still uses it (one y-symbol at count ``c``
  occurs in ``comb(n - c + |Y| - 2, |Y| - 2)`` compositions), so it
  holds at most ``|Y| n`` of each, and no factor when ``|Y| <= 2``; a
  fixed-y type-class law builds one count row per (support size, count)
  too;
* the fixed-y point queries keep their last law (keyed on model, y,
  route and track), and :func:`codec.build_code` its last
  codebook (keyed on model and y).  Held are a law of at most
  ``COUNT_CHUNK`` cells, a float law answered from level windows whose
  split tables have at most ``COUNT_CHUNK`` rows (it keeps only those
  and its last two windows, so the point queries of one y-string build
  one law, and the read-backs at a rate point's ``k`` and ``k + 1``
  locate no new window), and a codebook of at most
  ``COUNT_CHUNK`` strings; any other only by weak reference, so it is
  reused while a caller still holds it and nothing larger outlives its
  query because of the memo.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, combinations_with_replacement, product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .measures import _y_marginal_log2
from .models import CondIidModel, MarkovPairModel, Model, SideInfoString

MERGE_TOL = 1e-12
BRUTEFORCE_GUARD = 1 << 20
DEFAULT_CLASS_CAP = 10**8
# ranked classes whose exact counts are produced together
COUNT_CHUNK = 1 << 12
# cells a float point query ranks around its level before widening
WINDOW_CELLS = 1024


class GuardExceededError(ValueError):
    """An enumeration would exceed its configured size guard."""


@dataclass(frozen=True)
class RatePoint:
    """Optimal rate at one (n, epsilon): smallest k with overflow <= epsilon.

    In exact arithmetic ``eps_at_k_plus_1 <= epsilon < eps_at_k`` (the
    second part vacuously when ``k == 0``).  The float values keep it
    only up to rounding: ``eps_at_k`` can round onto epsilon, as for
    ``uniform2`` at n = 500 and epsilon = 0.5, whose exact ``eps_at_k``
    is 1/2 + 2^-500.
    """

    n: int
    epsilon: float
    k: int
    rate: float
    eps_at_k: float
    eps_at_k_plus_1: float


def _floor_exp2(t: float) -> int:
    """floor(2**t) for possibly huge t, exact to double precision."""
    if t < 0:
        return 0
    e = int(math.floor(t))
    mant = 2.0 ** (t - e)
    scaled = int(mant * (1 << 52))
    if e >= 52:
        return scaled << (e - 52)
    return scaled >> (52 - e)


def _fits(base: int, n: int, limit: int) -> bool:
    """Whether ``base ** n <= limit`` for ``base >= 1``; the power is
    built only for ``n`` below the bit length of ``limit``, since past it
    ``2 ** n`` alone exceeds ``limit``."""
    return base == 1 or (n < limit.bit_length() and base**n <= limit)


@dataclass(frozen=True)
class _Factor:
    """One factor of a product-form law.

    Cell ``i`` holds ``counts[i]`` strings (``log2`` of that is ``lc[i]``)
    of log2 probability ``lp[i]``; on the exact track each has
    probability ``nums[i] / den``.  An exact flat factor has no
    ``log2s`` and takes ``lp`` from ``nums`` on first read.
    """

    log2s: np.ndarray | None
    counts: np.ndarray          # int64 when ``strings`` fits in it, else Python ints
    lc: np.ndarray
    strings: int                # sum of counts
    nums: np.ndarray | None     # object array of Python ints
    den: int = 1

    @cached_property
    def lp(self) -> np.ndarray:
        if self.log2s is not None:
            return self.log2s
        log2_den = math.log2(self.den)
        return np.array([math.log2(v) - log2_den if v > 0 else -math.inf
                         for v in self.nums.tolist()])


def _flat_factor(lp: np.ndarray | None, nums: list[int] | None = None, den: int = 1) -> _Factor:
    """One cell per string, as the brute-force builders enumerate them;
    exact ones (``lp`` None) take their log2 probabilities on first read."""
    size = len(nums) if lp is None else len(lp)
    nums_arr = None if nums is None else np.array(nums, dtype=object)
    return _Factor(lp, np.ones(size, dtype=np.int64), np.zeros(size), size, nums_arr, den)


def _outer(arrays: list[np.ndarray], ufunc: np.ufunc) -> np.ndarray:
    """Flattened outer product of ``arrays`` under ``ufunc``, left to right."""
    return reduce(lambda a, b: ufunc.outer(a, b).ravel(), arrays)


def _numerators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """A table of ``Fraction``s as integer numerators over their lcm, and that lcm."""
    lcm = math.lcm(*(p.denominator for row in rows for p in row))
    return [[p.numerator * (lcm // p.denominator) for p in row] for row in rows], lcm


class _Chunk(NamedTuple):
    """Exact data of a prefix of the ``COUNT_CHUNK`` consecutive ranked
    classes of one chunk, or of all of them; class ``i`` of the chunk
    spans ranks ``cum[i] + 1 .. cum[i + 1]``."""

    cum: list[int]              # cumulative count before the chunk, then through each class
    mass: list[int] | None      # exact track: the same for count-weighted numerators
    nums: list[int] | None      # class numerators over the law's denominator


class _Split(NamedTuple):
    """The law's cells as pairs ``(a, i)``: ``a`` runs over the outer
    product of all factors but the last (on the float track, its cells
    of positive probability), ``i`` over the last factor in rank order,
    so the cells of one ``a`` ranked above any class form a prefix of
    ``i``."""

    counts: np.ndarray          # string count of each a, in the law's count dtype
    last_cum: np.ndarray        # last factor's cumulative counts in rank order,
                                # from 0; int64 when they fit
    # float track
    lp: np.ndarray | None = None            # log2 probability of each a
    last_lp: np.ndarray | None = None       # last factor's log2p, best first
    last_key: np.ndarray | None = None      # -last_lp, ascending, for searchsorted
    lc: np.ndarray | None = None            # log2 string count of each a
    mass: np.ndarray | None = None          # probability of each a's strings
    last_log_cum: np.ndarray | None = None  # log2 last_cum
    last_tail: np.ndarray | None = None     # last factor's suffix masses, to 0
    # exact track
    nums: list[int] | None = None           # numerator of each a
    num_mass: list[int] | None = None       # count times numerator of each a
    last_neg: list[int] | None = None       # last factor's numerators negated
    last_cum_mass: list[int] | None = None


class _Window(NamedTuple):
    """The classes of the cells between two levels, when neither edge
    cuts a class; exact counts are taken over the whole law."""

    base: int                   # strings ranked before the window
    cum: list[int]              # cumulative count through each class
    tops: list[float]           # each class's log2p, its highest cell's
    top_len: np.ndarray         # per a, the cells (a, i) above the window
    rows: np.ndarray            # the a of each window cell, in rank order
    ends: np.ndarray            # each class's last window cell
    past: bool                  # whether possible strings rank after it
    tails: dict[int, float]     # class -> its tail mass, once computed


class LengthLaw:
    """Ranked per-string probability classes with exact counts.

    The cells of the outer product of the factors are ranked by
    decreasing probability (``log2p`` on the float track, integer
    numerators over a common denominator on the exact track) and
    grouped into classes of equal probability.  The ranking is built on
    first use; the float point queries (:meth:`epsilon_star_window`,
    :meth:`rate_point_window`) never build it.  Exact class counts are
    produced in chunks of ``COUNT_CHUNK`` classes, only when a query
    needs them, and of a chunk only the prefix through the class that
    holds the last rank placed in it (see :meth:`_chunk`); a rank in the
    last class is read from the end, with no count.  The law keeps the
    cumulative count at the end of every chunk it produced whole or
    located, and the last chunk it produced, whole or a prefix.  Reaching
    a chunk never produces the chunks before it: :meth:`_chunk_of_rank`
    finds it from the last class counted where class counts suffice, and
    otherwise from exact dominance counts over the last factor.
    Strings of probability zero are cells like any other (``log2p``
    -inf, numerator 0): they rank last, as one class, so ``counts``
    sums to ``num_strings``, the number of source strings.

    Threads may share a law (the fixed-y point queries hand one to every
    caller): each cache is stored in one assignment once it is whole, and
    read once per use, so a race at worst builds a cache twice.
    """

    def __init__(self, n: int, factors: list[_Factor], exact: bool) -> None:
        self.n = n
        self.num_strings = math.prod(f.strings for f in factors)
        # exact counts in int64 when the law's strings fit in it: no count
        # or running count exceeds num_strings
        self._ints = np.int64 if self.num_strings.bit_length() < 64 else object
        self.exact = exact
        self._factors = factors
        self._shape = tuple(len(f.counts) for f in factors)
        self._den, self._total_num = 1, 0
        if exact:
            self._den = math.prod(f.den for f in factors)
            self._total_num = math.prod(
                sum(map(operator.mul, f.nums.tolist(), f.counts.tolist())) for f in factors
            )
        # chunk -> (cumulative count, count-weighted numerators) at its end
        self._ends: dict[int, tuple[int, int]] = {}
        self._last: tuple[int, _Chunk] | None = None
        self._split: _Split | None = None
        # the last two windows _locate found, newest first
        self._window_hits: tuple[_Window, ...] = ()
        # the ranking, built on first use by _ranked, and the class floats
        self._order = self._starts = self._floats = None

    def _ranked(self) -> np.ndarray:
        """Rank of each class's first cell; ranks the cells on first use."""
        if self._starts is None:
            self._rank()
        return self._starts

    @property
    def log2p(self) -> np.ndarray:
        return self._class_floats()[0]

    @property
    def suffix_mass(self) -> np.ndarray:
        return self._class_floats()[1]

    def _rank(self) -> None:
        factors = self._factors
        if self.exact:
            nums = _outer([f.nums for f in factors], np.multiply)
            keys = nums.tolist()
            order = np.array(sorted(range(len(keys)), key=keys.__getitem__, reverse=True),
                             dtype=np.intp)
            ranked = nums[order]
            starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        else:
            order, lp, starts = _classes(_outer([f.lp for f in factors], np.add))
        self._order = order
        if not self.exact:
            self._class_floats(lp, starts)
        # last: a caller that finds the ranking finds the float one whole
        self._starts = starts

    def _class_floats(
        self, lp: np.ndarray | None = None, starts: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each class's ``log2p`` and the float suffix masses, from ``lp``,
        the log2p of the ranked cells, and ``starts``: the float ranking
        passes them, the exact track builds them on first read."""
        if lp is None:
            starts = self._ranked()
            if self._floats is not None:
                return self._floats
            lp = _outer([f.lp for f in self._factors], np.add)[self._order]
        lc = _outer([f.lc for f in self._factors], np.add)
        mass = _class_sums(np.exp2(lp + lc[self._order]), starts)
        suffix = np.zeros(len(mass) + 1)
        suffix[:-1] = mass[::-1].cumsum()[::-1]
        self._floats = (lp[starts], suffix)
        return self._floats

    # -- exact counts, chunk by chunk --------------------------------------

    def _cell_counts(self, cells: tuple[np.ndarray, ...]) -> np.ndarray:
        """Exact string count of each of ``cells`` (one index array per
        factor), in the law's count dtype."""
        return reduce(operator.mul, [f.counts.astype(self._ints, copy=False)[i]
                                     for f, i in zip(self._factors, cells)])

    def _chunk(self, c: int, b: int | None = None) -> _Chunk:
        """Exact data of chunk ``c``: whole, or with ``b`` a prefix of its
        classes, from the first through the one that holds rank ``b``
        (the whole chunk when ``b`` lies past it).

        A prefix stops at the class that a float sum of its cells'
        ``log2`` counts reaches ``b`` in, taken ``2^-30`` of the strings
        it needs past ``b`` so that rounding does not stop it short.
        Each step counts at least an eighth of a chunk (the rest of the
        chunk, with no float sum, when no more is left), and at least
        doubles the prefix when a later rank or query grows it.  The law
        keeps the chunk it produced last, whole or not, stored in one
        assignment; ``_ends`` gets a chunk's end only once the chunk is
        whole.
        """
        last = self._last
        ch = last[1] if last is not None and last[0] == c else None
        starts = self._ranked()
        first, end = c * COUNT_CHUNK, min((c + 1) * COUNT_CHUNK, len(starts))
        done = first if ch is None else first + len(ch.cum) - 1
        if done == end or (ch is not None and b is not None and b <= ch.cum[-1]):
            return ch
        if ch is None:
            base, base_mass = self._end(c - 1) if c else (0, 0)
        else:
            base, base_mass = ch.cum[-1], ch.mass[-1] if self.exact else 0

        def cell(j: int) -> int:
            return int(starts[j]) if j < len(starts) else len(self._order)

        lo = cell(done)
        cells = np.unravel_index(self._order[lo:cell(end)], self._shape)
        stop, step = end, COUNT_CHUNK // 8
        if b is not None and end - done > step:
            logs = reduce(operator.add, [f.lc[i] for f, i in zip(self._factors, cells)])
            with np.errstate(over="ignore"):
                reach = np.cumsum(np.exp2(logs - math.log2(b - base)))
            at = lo + int(np.searchsorted(reach, 1 + 2**-30))
            stop = min(end, max(bisect_right(starts, at, done, end), done + step,
                                2 * done - first))
            cells = tuple(i[:cell(stop) - lo] for i in cells)
        heads = starts[done:stop] - lo
        class_counts = _class_sums(self._cell_counts(cells), heads).tolist()
        cum = list(accumulate(class_counts, initial=base))
        mass = nums = None
        if self.exact:
            nums = reduce(operator.mul, [f.nums[i[heads]] for f, i in zip(self._factors, cells)])
            nums = nums.tolist()
            mass = list(accumulate(map(operator.mul, nums, class_counts), initial=base_mass))
        if ch is not None:
            cum = ch.cum + cum[1:]
            if self.exact:
                nums, mass = ch.nums + nums, ch.mass + mass[1:]
        chunk = _Chunk(cum, mass, nums)
        if stop == end:
            self._ends[c] = (cum[-1], mass[-1] if mass else 0)
        self._last = (c, chunk)
        return chunk

    def _last_class(self) -> tuple[int, int]:
        """Strings in the last class, from its own cells, and on the exact
        track its numerator."""
        cells = np.unravel_index(self._order[self._ranked()[-1]:], self._shape)
        num = 0
        if self.exact:
            num = math.prod(int(f.nums[i[0]]) for f, i in zip(self._factors, cells))
        return sum(self._cell_counts(cells).tolist()), num

    def _end(self, c: int) -> tuple[int, int]:
        """Cumulative count (and count-weighted numerators) through chunk ``c``."""
        if c not in self._ends:
            self._ends[c] = self._before(min((c + 1) * COUNT_CHUNK, len(self._ranked())))
        return self._ends[c]

    def _before(self, j: int) -> tuple[int, int]:
        """Exact count (and count-weighted numerators) of the strings in
        the classes before class ``j``, without producing any chunk.

        Per cell ``a`` of the outer product of all factors but the last,
        the cells ranked before class ``j`` are a prefix of the last
        factor; its length is found with the very predicate the ranking
        merged classes by, so the count matches the chunks' bit for bit.
        """
        if j == 0:
            return 0, 0
        if j == len(self._ranked()):
            return self.num_strings, self._total_num
        s = self._split_tables()
        if self.exact:
            last = self._factors[-1]
            a, i = divmod(int(self._order[self._starts[j]]), len(last.counts))
            t = s.nums[a] * last.nums[i]
            # nA * nF > t  <=>  nF > t // nA  for integers, nA > 0
            lengths = [bisect_left(s.last_neg, -(t // v)) if v else 0 for v in s.nums]
            mass = sum(map(operator.mul, s.num_mass, map(s.last_cum_mass.__getitem__, lengths)))
            return self._count(lengths), mass
        return self._count(_prefix_lengths(s.lp, s.last_lp, self.log2p[j], key=s.last_key)), 0

    def _count(self, lengths: Sequence[int] | np.ndarray) -> int:
        """Exact count of the strings in the cells ``(a, i < lengths[a])``."""
        s = self._split_tables()
        return sum(map(operator.mul, s.counts.tolist(), s.last_cum[lengths].tolist()))

    def _split_tables(self) -> _Split:
        """The (a, i) tables of :meth:`_before` and the float point
        queries, built on first use; the exact track's carry no floats."""
        if self._split is None:
            *rest, last = self._factors
            counts, nums = np.ones(1, dtype=self._ints), [1]
            if rest:
                counts = _outer([f.counts.astype(self._ints, copy=False) for f in rest],
                                np.multiply)
            if self.exact:
                keys = last.nums.tolist()
                order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
            else:
                order = np.argsort(-last.lp, kind="stable")
            last_lc = last.lc[order]
            cum, log_cum = _running_counts(last.counts[order], last_lc)
            if not self.exact:
                lp, lc = np.zeros(1), np.zeros(1)
                if rest:
                    lp = _outer([f.lp for f in rest], np.add)
                    lc = _outer([f.lc for f in rest], np.add)
                    # an a of probability zero holds no cell above any level
                    live = lp > -math.inf
                    counts, lp, lc = counts[live], lp[live], lc[live]
                last_lp = last.lp[order]
                cell_mass = np.exp2(last_lp + last_lc)
                self._split = _Split(
                    counts, cum, lp=lp, last_lp=last_lp, last_key=-last_lp, lc=lc,
                    mass=np.exp2(lp + lc), last_log_cum=log_cum,
                    last_tail=np.append(cell_mass[::-1].cumsum()[::-1], 0.0))
                return self._split
            if rest:
                nums = _outer([f.nums for f in rest], np.multiply).tolist()
            last_nums = last.nums[order].tolist()
            self._split = _Split(
                counts, cum, nums=nums,
                num_mass=list(map(operator.mul, counts.tolist(), nums)),
                last_neg=[-v for v in last_nums],
                last_cum_mass=list(accumulate(
                    map(operator.mul, last.counts[order].tolist(), last_nums), initial=0)))
        return self._split

    def _chunk_of_rank(self, b: int) -> int:
        """Index of the chunk holding rank ``b``, 1 < b <= num_strings.

        The search starts past the classes of the last chunk produced
        when ``b`` ranks after them: at the rest of that chunk when only
        a prefix of it was produced, else at the next chunk.  Every class
        holds at least one string, so a rank within as many strings of
        that start as the start's chunk has classes left lies in that
        chunk, and so does every rank when it is the last chunk; only
        otherwise are chunk ends bisected, by :meth:`_end`'s exact
        dominance counts.
        """
        j, base, last = 0, 0, self._last
        if last is not None and last[1].cum[0] < b:
            c, cum = last[0], last[1].cum
            if b <= cum[-1]:
                return c
            j, base = c * COUNT_CHUNK + len(cum) - 1, cum[-1]
        classes = len(self._ranked())
        c = j // COUNT_CHUNK
        end = min((c + 1) * COUNT_CHUNK, classes)
        if b <= base + end - j or end == classes:
            return c
        # over every chunk, so that later ranks meet the ends found before
        return bisect_left(range(-(-classes // COUNT_CHUNK) - 1), b,
                           key=lambda c: self._end(c)[0])

    def _class_data(self, j: int) -> tuple[int, int, int, int]:
        """Cumulative count before and through class ``j``; on the exact
        track also the count-weighted numerators before it and its numerator."""
        c, i = divmod(j, COUNT_CHUNK)
        ch = self._chunk(c)
        if not self.exact:
            return ch.cum[i], ch.cum[i + 1], 0, 0
        return ch.cum[i], ch.cum[i + 1], ch.mass[i], ch.nums[i]

    # -- the classes in a level window, without the ranking ----------------

    def _above(self, level: float) -> np.ndarray:
        """Per ``a``, how many cells ``(a, i)`` have ``log2p - level > MERGE_TOL``."""
        s = self._split_tables()
        return _prefix_lengths(s.lp, s.last_lp, level, key=s.last_key)

    def _tail(self, lengths: np.ndarray) -> float:
        """Mass of the cells past the prefixes ``lengths``: the one float
        formula behind every mass the window queries report."""
        s = self._split_tables()
        return float(np.sum(s.mass * s.last_tail[lengths]))

    def _class_tail(self, win: _Window, c: int) -> float:
        """Mass of the strings ranked after class ``c`` of the window
        (after the classes above it, for ``c = -1``).

        The prefixes are the cells with ``log2p`` at least the class's
        lowest, counted off the window, so every window holding the class
        gives the same float.
        """
        if c not in win.tails:
            lengths = win.top_len
            if c >= 0:
                lengths = lengths + np.bincount(win.rows[:win.ends[c] + 1],
                                                minlength=len(lengths))
            win.tails[c] = self._tail(lengths)
        return win.tails[c]

    def _log_count(self, lengths: np.ndarray) -> float:
        """log2 of the number of strings in the prefixes ``lengths``, in float."""
        s = self._split_tables()
        logs = s.lc + s.last_log_cum[lengths]
        top = logs.max()
        if top == -math.inf:
            return top
        return float(top + math.log2(np.sum(np.exp2(logs - top))))

    def _window(self, lo_len: np.ndarray, hi_len: np.ndarray) -> tuple[int, _Window | None]:
        """The classes of the cells between the prefixes ``hi_len`` and
        ``lo_len``, as ``(0, window)``; ``(-1, None)`` or ``(1, None)``
        when a class crosses the top or the bottom edge, ``(0, None)``
        when no cell lies between."""
        s = self._split_tables()
        widths = lo_len - hi_len
        rows = np.repeat(np.arange(len(widths)), widths)
        if not len(rows):
            return 0, None
        cols = np.arange(len(rows)) - np.repeat(np.cumsum(widths) - widths - hi_len, widths)
        order, lp, starts = _classes(s.lp[rows] + s.last_lp[cols])
        rows, cols = rows[order], cols[order]
        # the edges must fall between classes, by the ranking's own predicate
        up = hi_len > 0
        if up.any() and not (s.lp[up] + s.last_lp[hi_len[up] - 1]).min() - lp[0] > MERGE_TOL:
            return -1, None
        down = lo_len < len(s.last_lp)
        below = (s.lp[down] + s.last_lp[lo_len[down]]).max() if down.any() else -math.inf
        if not lp[-1] - below > MERGE_TOL:
            return 1, None
        ends = np.append(starts[1:], len(lp)) - 1
        # a class's cells of one a are a run of the last factor, in rank
        # order: one product per run, its count off the cumulative counts
        key = np.repeat(np.arange(len(starts)), ends - starts + 1) * len(s.lp) + rows
        run = np.argsort(key, kind="stable")
        key, cols = key[run], cols[run]
        heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        tails = np.append(heads[1:], len(key)) - 1
        runs = s.counts[key[heads] % len(s.lp)] * (
            s.last_cum[cols[tails] + 1] - s.last_cum[cols[heads]])
        firsts = np.flatnonzero(np.concatenate(([True], np.diff(key[heads] // len(s.lp)) != 0)))
        counts = np.add.reduceat(runs, firsts).tolist()
        base = self._count(hi_len)
        return 0, _Window(base, list(accumulate(counts, initial=base))[1:],
                          lp[starts].tolist(), hi_len, rows, ends, below > -math.inf, {})

    def _locate(self, reaches, where) -> tuple[_Window, int | None]:
        """The window holding a sought class, and ``where`` it is in it.

        ``reaches(lengths)`` says whether the cells above a level
        (:meth:`_above`) reach the sought class; ``where(window)`` says
        whether the class lies above (-1), below (1) or in the window
        (0, with its index).  The last two windows found are tried
        first: a rate point reads two (the crossing and rank ``2^k``),
        and rank ``2^(k+1)`` lies in one of them.  Otherwise a float
        bisection of the level shrinks the window to about
        ``WINDOW_CELLS`` cells (or to a tie or merge chain of more),
        which then grows geometrically until ``where`` finds the class
        in it and no class crosses its edges.
        """
        hits = self._window_hits
        for hit in hits:
            move, j = where(hit)
            if not move:
                return hit, j
        s = self._split_tables()
        last = s.last_lp[np.isfinite(s.last_lp)]
        # levels 1 below and above every cell of positive probability
        lo, hi = s.lp.min() + last[-1] - 1.0, s.lp.max() + last[0] + 1.0
        lo_len, hi_len = np.full(len(s.lp), len(last)), np.zeros(len(s.lp), dtype=np.intp)
        while int((lo_len - hi_len).sum()) > WINDOW_CELLS:
            inside = lo_len > hi_len
            top = (s.lp[inside] + s.last_lp[hi_len[inside]]).max()
            bottom = (s.lp[inside] + s.last_lp[lo_len[inside] - 1]).min()
            mid = (lo + hi) / 2
            # cells at most MERGE_TOL apart are ties or one merge chain
            if not (top - bottom > MERGE_TOL and lo < mid < hi):
                break
            mid_len = self._above(mid)
            if reaches(mid_len):
                lo, lo_len = mid, mid_len
            else:
                hi, hi_len = mid, mid_len
        step = hi - lo
        while True:
            move, win = self._window(lo_len, hi_len)
            if win is not None:
                move, j = where(win)
                if not move:
                    self._window_hits = (win, *hits[:1])
                    return win, j
            if move <= 0:
                hi += step
                hi_len = self._above(hi)
            if move >= 0:
                lo -= step
                lo_len = self._above(lo)
            step *= 2

    def _window_class_of_rank(self, b: int) -> tuple[_Window, int | None]:
        """The window and class holding rank ``b``, 1 < b <= num_strings;
        no class when ``b`` ranks past every possible string."""
        log2b = math.log2(b)

        def where(win: _Window) -> tuple[int, int | None]:
            if win.base >= b:
                return -1, None
            if win.cum[-1] < b:
                return (1, None) if win.past else (0, None)
            return 0, bisect_left(win.cum, b)

        return self._locate(lambda lengths: self._log_count(lengths) >= log2b, where)

    def _window_crossing(self, epsilon: float) -> tuple[_Window, int]:
        """The window and the first class whose tail mass is <= epsilon,
        for epsilon below the total mass."""

        def where(win: _Window) -> tuple[int, int | None]:
            # tail masses fall along the classes, from the classes above
            j = bisect_left(range(-1, len(win.cum)), True,
                            key=lambda c: self._class_tail(win, c) <= epsilon) - 1
            if j < 0:
                return -1, None
            return (1, None) if j == len(win.cum) else (0, j)

        return self._locate(lambda lengths: self._tail(lengths) <= epsilon, where)

    # -- vectorized views --------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self._ranked())

    @property
    def cum_counts(self) -> list[int]:
        out: list[int] = []
        for c in range(-(-len(self._ranked()) // COUNT_CHUNK)):
            out += self._chunk(c).cum[1:]
        return out

    @property
    def counts(self) -> list[int]:
        cum = self.cum_counts
        return [b - a for a, b in zip([0] + cum, cum)]

    @property
    def probs(self) -> list[Fraction] | None:
        if not self.exact:
            return None
        return [Fraction(self._class_data(j)[3], self._den) for j in range(self.num_classes)]

    # -- queries -----------------------------------------------------------

    def _require_exact(self) -> None:
        if not self.exact:
            raise ValueError("law was built on the float track")

    def total_mass(self) -> float:
        return float(self.suffix_mass[0])

    def total_mass_exact(self) -> Fraction:
        self._require_exact()
        return Fraction(self._total_num, self._den)

    def excess_at_rank(self, b: int) -> float:
        """P[rank >= b], the mass of strings ranked b and beyond."""
        return self._excess_at_ranks([b], exact=False)[0]

    def excess_at_rank_window(self, b: int) -> float:
        """:meth:`excess_at_rank` from a level window; tail masses from
        :meth:`_tail`, so they may differ from the ranking's by rounding."""
        if b <= 1:
            return self._tail(np.zeros(len(self._split_tables().lp), dtype=np.intp))
        if b > self.num_strings:
            return 0.0
        win, j = self._window_class_of_rank(b)
        if j is None:
            return 0.0
        tail = self._class_tail(win, j)
        return _excess_in_classes([tail], [win.cum[j] - b + 1], [win.tops[j]])[0]

    def excess_at_rank_exact(self, b: int) -> Fraction:
        self._require_exact()
        return Fraction(self._excess_at_ranks([b], exact=True)[0], self._den)

    def _excess_at_ranks(self, ranks: Sequence[int], exact: bool) -> list:
        """P[rank >= b] for each of the ascending ``ranks``: floats, or
        with ``exact`` integer numerators over the law's denominator.

        A rank ``b`` in the last class is read from the end, with no
        chunk: ``num_strings - b + 1`` strings of that class lie at or
        after it, and nothing after them (on a law of more classes than
        one step of :meth:`_chunk` counts; a smaller one is counted whole
        anyway).  The other ranks take one monotone pass, one step per
        chunk: :meth:`_chunk_of_rank` finds the chunk of the first rank
        not yet placed, the chunk is produced through the class of the
        last rank to place, and every rank within that prefix is placed
        at once.  The float track reads those classes' ``log2p`` and tail
        masses with one gather each.
        """
        lo = bisect_right(ranks, 1)
        hi = bisect_right(ranks, self.num_strings, lo)
        out = [self._total_num if exact else self.total_mass()] * lo
        # a law of at most one step of classes is counted whole anyway
        big = lo < hi and len(self._ranked()) > COUNT_CHUNK // 8
        strings, num = self._last_class() if big else (0, 0)
        mid = bisect_right(ranks, self.num_strings - strings, lo, hi)
        while len(out) < mid:
            c = self._chunk_of_rank(ranks[len(out)])
            ch = self._chunk(c, ranks[mid - 1])
            cum = ch.cum
            bs = ranks[len(out):bisect_right(ranks, cum[-1], len(out), mid)]
            js = [bisect_left(cum, b, 1) - 1 for b in bs]
            if exact:
                out += [self._total_num - ch.mass[i] - ch.nums[i] * (b - 1 - cum[i])
                        for i, b in zip(js, bs)]
                continue
            log2p, suffix = self._class_floats()
            at, first = np.array(js), c * COUNT_CHUNK
            out += _excess_in_classes(suffix[first + 1:][at].tolist(),
                                      [cum[i + 1] - b + 1 for i, b in zip(js, bs)],
                                      log2p[first:][at].tolist())
        ds = [self.num_strings - b + 1 for b in ranks[mid:hi]]
        if exact:
            out += [num * d for d in ds]
        elif ds:
            out += _excess_in_classes([0.0] * len(ds), ds, [float(self.log2p[-1])] * len(ds))
        return out + [0 if exact else 0.0] * (len(ranks) - hi)

    def epsilon_star(self, k: int) -> float:
        """Overflow probability of the optimal code at k bits."""
        return self.excess_at_rank(_rank_at_bits(k, self.num_strings))

    def epsilon_star_window(self, k: int) -> float:
        """:meth:`epsilon_star` without the ranking."""
        return self.excess_at_rank_window(_rank_at_bits(k, self.num_strings))

    def epsilon_star_exact(self, k: int) -> Fraction:
        return self.excess_at_rank_exact(_rank_at_bits(k, self.num_strings))

    def info_tail(self, threshold: float) -> float:
        """P[-log2 P(string) >= threshold]; zero-probability strings carry no mass."""
        j = int(np.searchsorted(-self.log2p, threshold, side="left"))
        return float(self.suffix_mass[j])

    def info_tail_exact(self, threshold: Fraction) -> Fraction:
        """Exact P[-log2 P >= threshold] for rational threshold."""
        self._require_exact()
        total = Fraction(0)
        for p, c in zip(self.probs, self.counts):
            if p > 0 and _log2_at_least(p, threshold):
                total += p * c
        return total

    def rate_point(self, epsilon: float) -> RatePoint:
        _check_epsilon(epsilon)
        suffix = self.suffix_mass
        # the first class whose tail mass is <= epsilon
        idx = int(np.searchsorted(-suffix, -epsilon, side="left"))
        b_min = 1
        if idx:
            prev, cum, _, _ = self._class_data(idx - 1)
            b_min = _crossing_rank(prev, cum, self.log2p[idx - 1], epsilon - float(suffix[idx]))
        return self._rate_point(epsilon, b_min, self.excess_at_rank)

    def rate_point_window(self, epsilon: float) -> RatePoint:
        """:meth:`rate_point` without the ranking; ``k`` and both overflow
        values come from the same tail masses, so they agree."""
        _check_epsilon(epsilon)
        b_min = 1
        if self.excess_at_rank_window(1) > epsilon:
            win, j = self._window_crossing(epsilon)
            tail = self._class_tail(win, j)
            b_min = _crossing_rank(win.cum[j - 1] if j else win.base, win.cum[j],
                                   win.tops[j], epsilon - tail)
        return self._rate_point(epsilon, b_min, self.excess_at_rank_window)

    def _rate_point(self, epsilon: float, b_min: int, excess) -> RatePoint:
        """The rate point whose smallest rank with overflow <= epsilon is ``b_min``."""
        k = max(0, (b_min - 1).bit_length() - 1)
        return RatePoint(
            n=self.n,
            epsilon=epsilon,
            k=k,
            rate=k / self.n,
            eps_at_k=excess(1 << k),
            eps_at_k_plus_1=excess(2 << k),
        )


def _rank_at_bits(k: int, strings: int) -> int:
    """The rank ``2^k``, capped past ``strings``: every rank there has
    overflow 0, so a huge k builds no huge integer."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 1 << min(k, strings.bit_length())


def _classes(lp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable descending order of the cells ``lp`` along its last
    axis, their sorted ``lp``, and the flat position of each class's
    first cell: a class starts at the head of each row and wherever
    sorted neighbours differ by more than ``MERGE_TOL``."""
    order = np.argsort(-lp, axis=-1, kind="stable")
    # one fancy index gathers one row for less than take_along_axis
    lp = lp[order] if lp.ndim == 1 else np.take_along_axis(lp, order, -1)
    heads = np.empty(lp.shape, dtype=bool)
    heads[..., 0] = True
    with np.errstate(invalid="ignore"):  # -inf cells: their difference is nan
        np.greater(np.abs(np.diff(lp)), MERGE_TOL, out=heads[..., 1:])
    return order, lp, np.flatnonzero(heads)


def _class_sums(cells: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of each class of the ranked ``cells``, ``starts`` the first
    cell of each; the cells themselves when no class merged two."""
    return cells if len(starts) == len(cells) else np.add.reduceat(cells, starts)


def _running_counts(counts: np.ndarray, lc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running totals from 0 of ``counts`` (``lc`` their log2): exact,
    as int64 when the total fits, and as float log2."""
    if lc.max() + math.log2(len(lc)) < 62:
        run = np.concatenate(([0], np.cumsum(counts.astype(np.int64))))
        with np.errstate(divide="ignore"):
            return run, np.log2(run)
    run = np.concatenate(([0], np.cumsum(counts)))
    return run, np.logaddexp2.accumulate(np.concatenate(([-math.inf], lc)))


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")


def _excess_in_classes(
    tails: Iterable[float], ds: Iterable[int], lps: Iterable[float]
) -> list[float]:
    """Overflow at the rank ``d >= 1`` strings before the end of a class
    of log2p ``lp``, followed by mass ``tail``, for each ``(tail, d, lp)``:
    the one float formula of every overflow (a class of log2p -inf adds
    ``2.0 ** -inf = 0.0``)."""
    return [tail + 2.0 ** (math.log2(d) + lp) for tail, d, lp in zip(tails, ds, lps)]


def _crossing_rank(prev_cum: int, cum: int, lp: float, room: float) -> int:
    """Smallest rank in the class of ranks ``prev_cum + 1 .. cum`` and
    log2p ``lp`` whose overflow stays within ``room`` of the class's tail."""
    if lp == -math.inf:
        return prev_cum + 1
    if room <= 0:
        return cum + 1
    offset = _floor_exp2(math.log2(room) - lp)
    return max(cum + 1 - offset, prev_cum + 1)


def _prefix_lengths(
    lp: np.ndarray, last_lp: np.ndarray, level: float, key: np.ndarray | None = None
) -> np.ndarray:
    """Per entry ``x`` of ``lp``, how many leading entries ``f`` of the
    descending ``last_lp`` satisfy ``(x + f) - level > MERGE_TOL``: the
    cells of a law ranked in classes before the class at ``level``.
    ``key`` is ``-last_lp``, when the caller keeps it."""
    size = len(last_lp)
    key = -last_lp if key is None else key
    with np.errstate(invalid="ignore"):
        lengths = np.searchsorted(key, lp - level - MERGE_TOL)
        # the guess can be off by rounding; settle it on the predicate itself
        while True:
            up = lengths < size
            up[up] = (lp[up] + last_lp[lengths[up]]) - level > MERGE_TOL
            down = lengths > 0
            down[down] = ~((lp[down] + last_lp[lengths[down] - 1]) - level > MERGE_TOL)
            if not (up.any() or down.any()):
                return lengths
            lengths += up
            lengths -= down


def _log2_at_least(p: Fraction, threshold: Fraction) -> bool:
    """Whether -log2(p) >= threshold, i.e. p <= 2^-threshold, exactly, for p > 0."""
    num, den = threshold.numerator, threshold.denominator
    if den == 1:
        # p·2^num <= 1; a power of two past the bit length of the other
        # side decides it unbuilt
        if num >= 0:
            return num < p.denominator.bit_length() and p * (1 << num) <= 1
        return -num >= p.numerator.bit_length() or p <= (1 << -num)
    # 2^(num/den) is irrational, so p differs from it and the sign of
    # den·ln p + num·ln 2 decides; each Decimal step is rounded to
    # within half a unit in the last of ``prec`` digits, so the value
    # lies within the bound below of the exact one
    prec = 32
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            ln_a, ln_b = Decimal(p.numerator).ln(), Decimal(p.denominator).ln()
            value = den * (ln_a - ln_b) + num * Decimal(2).ln()
            bound = 4 * ctx.power(10, 1 - prec) * (den * (ln_a + ln_b) + abs(num))
            if abs(value) > bound:
                return value < 0
        prec *= 2


# ---------------------------------------------------------------------------
# Type-class construction for conditionally i.i.d. models


def _binomial_row(n: int) -> list[int]:
    half = [1]  # C(n, 0..n/2); the rest mirrors it
    for i in range(n // 2):
        half.append(half[-1] * (n - i) // (i + 1))
    return half + half[::-1][1 - n % 2:]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative ints summing to ``total``, in
    lexicographic order: the gaps of ``parts - 1`` ascending cuts of
    ``0..total``."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def _multinomial(total: int, ks: Sequence[int]) -> int:
    out = 1
    rem = total
    for k in ks[:-1]:
        out *= math.comb(rem, k)
        rem -= k
    return out


@dataclass(frozen=True, eq=False)
class _CountRow:
    """String counts of the cells of a type-class factor: the type classes
    of ``count`` positions over a support of ``size`` x-symbols, and, when
    the support misses some of the ``|X|`` symbols, one more cell for the
    strings that use one.  It depends on the y-symbol only through
    ``size``, so every y-symbol of that support size shares it."""

    count: int
    types: list[tuple[int, ...]] | None   # each class's type; None for two symbols,
                                          # whose class k has type (count - k, k)
    counts: np.ndarray                    # int64 when ``strings`` fits in it, else Python ints
    lc: np.ndarray                        # log2 counts
    strings: int                          # |X| ** count


def _count_row(nx: int, size: int, count: int) -> _CountRow:
    if size == 2:
        types, counts = None, _binomial_row(count)
    else:
        types = list(_compositions(count, size))
        counts = [_multinomial(count, ks) for ks in types]
    strings = nx**count
    zeros = strings - size**count
    if zeros:
        counts.append(zeros)
    ints = np.int64 if strings.bit_length() < 64 else object
    return _CountRow(count, types, np.array(counts, dtype=ints),
                     np.array([math.log2(c) for c in counts]), strings)


def _symbol_factor(row: Sequence[Fraction], counts: _CountRow, exact: bool) -> _Factor:
    """Type classes of ``counts.count`` positions that all see one y-symbol,
    of conditional row ``row``; ``counts`` is the count row of its support.

    The type classes run over the support of the row; when the row has
    zeros, one more cell holds the strings that use a zero-probability
    x-symbol (``log2p`` -inf, numerator 0), as in a brute-force factor.
    Numerators are built on the exact track alone.
    """
    support = [p for p in row if p > 0]
    logs = [math.log2(float(p)) for p in support]
    count, types = counts.count, counts.types
    if types is None:
        ks = np.arange(count + 1, dtype=np.float64)
        lp = ks * logs[1] + (count - ks) * logs[0]
    else:
        lp = np.array([math.fsum(k * l for k, l in zip(ks, logs)) for ks in types])
    if len(lp) < len(counts.counts):
        lp = np.append(lp, -math.inf)
    nums, den = None, 1
    if exact:
        if types is None:
            types = [(count - k, k) for k in range(count + 1)]
        (scaled,), den = _numerators([support])
        nums = [math.prod(a**k for a, k in zip(scaled, ks)) for ks in types]
        nums = np.array(nums + [0] * (len(lp) - len(nums)), dtype=object)
        den **= count
    return _Factor(lp, counts.counts, counts.lc, counts.strings, nums, den)


def length_law_typeclass(
    model: CondIidModel,
    y: SideInfoString | Sequence[int],
    exact: bool = False,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> LengthLaw:
    """Length law given a fixed y-string, built from type classes.

    ``y`` may be a :class:`SideInfoString` or a bare composition
    (occurrence count per y-symbol); the law depends on the string
    only through its composition.  Y-symbols of one support size and
    count share their count row.
    """
    composition = y.counts() if isinstance(y, SideInfoString) else tuple(y)
    rows, sizes = model.p_x_given_y, model.support_sizes
    count_row = lru_cache(maxsize=None)(partial(_count_row, len(model.x_alphabet)))
    return _typeclass_law(model, composition, exact,
                          lambda a, c: _symbol_factor(rows[a], count_row(sizes[a], c), exact),
                          class_cap)


def _typeclass_law(
    model: CondIidModel,
    composition: Sequence[int],
    exact: bool,
    factor: Callable[[int, int], _Factor],
    cap: int,
) -> LengthLaw:
    """:func:`length_law_typeclass` of a composition, with ``factor(a, c)``
    the factor of ``c`` positions that all see y-symbol ``a``; refused
    before any factor is built when its cells, or the 64-bit words of its
    factors' exact counts, exceed ``cap``."""
    if len(composition) != len(model.y_alphabet):
        raise ValueError("composition needs one count per y-symbol")
    n = sum(composition)
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    cells = 1  # type classes of c positions over a support of s symbols, and a zero cell
    words = 0  # 64-bit words of the factors' exact counts, each below s^c
    for s, c in zip(model.support_sizes, composition):
        if c:
            size = math.comb(c + s - 1, s - 1) + (s < len(model.x_alphabet))
            cells *= size
            words += size * (c * (s - 1).bit_length() // 64 + 1)
    if cells > cap:
        raise GuardExceededError(
            f"type-class count exceeds cap {cap} at composition {tuple(composition)}"
        )
    if words > cap:
        raise GuardExceededError(
            f"type-class counts exceed cap {cap} words at composition {tuple(composition)}"
        )
    factors = [factor(a, c) for a, c in enumerate(composition) if c]
    return LengthLaw(n, factors, exact)


# ---------------------------------------------------------------------------
# Brute-force oracles


def _bruteforce_cond_iid_exact(
    model: CondIidModel, y: SideInfoString
) -> tuple[list[int], int]:
    """Integer numerators of P(x|y) over a common denominator, in
    product order of x."""
    rows, lcms = zip(*(_numerators([row]) for row in model.p_x_given_y))
    nums = _outer([np.array(rows[yi][0], dtype=object) for yi in y.indices], np.multiply)
    return nums.tolist(), math.prod(lcms[yi] for yi in y.indices)


def length_law_bruteforce(
    model: Model,
    y: SideInfoString,
    exact: bool = False,
    guard: int = BRUTEFORCE_GUARD,
) -> LengthLaw:
    """Length law by enumerating every source string.

    Independent of the type-class path; the only exact route for
    Markov models.  Guarded at ``|X|^n <= guard``.
    """
    if not _fits(len(model.x_alphabet), len(y), guard):
        raise GuardExceededError(
            f"brute force needs |X|^n <= {guard}, got {len(model.x_alphabet)}^{len(y)}")
    if isinstance(model, CondIidModel):
        if exact:
            factor = _flat_factor(None, *_bruteforce_cond_iid_exact(model, y))
        else:
            factor = _flat_factor(_outer([model.cond_log2[yi] for yi in y.indices], np.add))
    else:
        den, joints = next(_markov_blocks(model, [(yt,) for yt in y.indices], exact), (1, None))
        if joints is None and not exact and _y_marginal_log2(model, y.indices) > -math.inf:
            raise ValueError("P(y) underflows float64 in the enumeration; use exact=True")
        if joints is None:
            raise ValueError("side-information string has zero probability")
        factor = _markov_flat_factor(joints[0], den, exact)
    return LengthLaw(len(y), [factor], exact)


def _walk(choices: Sequence[Sequence[int]], nx: int, step: Callable, root: tuple) -> Iterator[tuple]:
    """Breadth first over the y-strings with t-th symbol in ``choices[t]``,
    in blocks of at most ``max(COUNT_CHUNK, |X|^n)`` cells at depth n.

    A state is a tuple of arrays with one row per y-prefix, in product
    order; ``step(t, state)`` extends every prefix by each symbol of
    ``choices[t]`` and drops those of probability 0.  Prefixes whose
    y-strings fit in one block are stepped together to the end, one step
    per depth; a lone prefix whose y-strings do not is stepped once, and
    its children go on together or one by one, so no prefix is stepped
    twice.  Yields the nonempty states at depth n, in product order.
    """
    n = len(choices)
    limit = max(COUNT_CHUNK, nx**n)
    # cells at depth n under one y-prefix of each length
    fan = list(accumulate(map(len, reversed(choices)), operator.mul, initial=nx**n))[::-1]

    def blocks(t: int, state: tuple) -> Iterator[tuple]:
        rows = len(state[0])
        if rows * fan[t] > limit:
            if rows > 1:
                for i in range(rows):
                    yield from blocks(t, tuple(a[i:i + 1] for a in state))
            else:
                yield from blocks(t + 1, step(t, state))
            return
        while len(state[0]) and t < n:
            state, t = step(t, state), t + 1
        if len(state[0]):
            yield state

    return blocks(0, root)


def _markov_blocks(
    model: MarkovPairModel, choices: Sequence[Sequence[int]], exact: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """``(den, P(x, y)·den)`` in blocks of :func:`_walk`: one row per
    y-string of positive probability with t-th symbol in ``choices[t]``,
    over all x-strings in product order.  At a depth up to the order a
    y-prefix keeps the initial law's contexts that match it; past it, one
    ``_advance`` takes every y-prefix of a block at once.  Exact walks take
    integers over the lcms ``L_init`` of the initial law and ``L`` of the
    transitions, so ``den`` is ``L_init·L^(n−d)``; floats are over 1."""
    d, den = model.order, 1
    if len(choices) < d:
        raise ValueError(f"need blocklength >= markov order {d}")
    if not exact:
        init, trans = model.initial_f, model.transition_f
    elif model.initial is None:
        raise ValueError("exact Markov enumeration needs an explicit rational initial law")
    else:
        (init,), den = _numerators([model.initial])
        trans, lcm = _numerators(model.transition)
        init, trans = np.array(init, object), np.array(trans, object)
        den *= lcm ** (len(choices) - d)

    def step(t: int, state: tuple) -> tuple:
        probs, ctx = state
        ys = np.asarray(choices[t])
        if t < d:  # ascending contexts list their x-heads in product order
            keep = model.pair_split(model._digits[ctx, t])[1][:, None] == ys[:, None]
            probs, ctx = (np.broadcast_to(a[:, None], keep.shape)[keep] for a in state)
        else:
            probs, ctx = model._advance(probs[:, None], ctx[:, None], ys, trans)
        rows = len(state[0]) * len(ys)
        probs, ctx = probs.reshape(rows, -1), ctx.reshape(rows, -1)
        live = (probs != 0).any(axis=1)
        return probs[live], ctx[live]

    for probs, _ in _walk(choices, len(model.x_alphabet), step,
                          (init[None], np.arange(len(init))[None])):
        yield den, probs


def _markov_flat_factor(joints: np.ndarray, den: int, exact: bool) -> _Factor:
    """The factor of P(x|y) from the joints P(x, y) over ``den``, y fixed, P(y) > 0."""
    if exact:
        nums = (joints // math.gcd(den, *joints.tolist())).tolist()
        return _flat_factor(None, nums, sum(nums))
    with np.errstate(divide="ignore"):
        return _flat_factor(np.log2(joints) - math.log2(joints.sum()))


# ---------------------------------------------------------------------------
# Public reference-based (fixed y) queries


def _route(model: Model, base: int, n: int, method: str) -> str:
    """The evaluation route of a query that enumerates ``base ** n``
    strings: ``|X|^n`` given y, ``(|X||Y|)^n`` averaged over y.

    ``auto`` prefers the brute-force oracle when they fit its guard,
    otherwise the type-class sweep; Markov models have only brute force.
    """
    if method not in ("auto", "bruteforce", "typeclass"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(model, MarkovPairModel):
        if method == "typeclass":
            raise ValueError("type-class evaluation needs a conditionally i.i.d. model")
        return "bruteforce"
    if method == "auto":
        return "bruteforce" if _fits(base, n, BRUTEFORCE_GUARD) else "typeclass"
    return method


def _one_chunk(law: LengthLaw) -> bool:
    """Whether the law has at most ``COUNT_CHUNK`` cells: its ranking is
    then one sort and one count chunk, no dearer than a level window
    over all of it, so point queries read the ranking."""
    return math.prod(law._shape) <= COUNT_CHUNK


class _LastBuilt:
    """The last object ``get`` built, for the next call with the same key.

    An object that passes ``small`` is held, so ``small`` bounds what the
    memo keeps alive; any other only by weak reference, so it is reused
    while a caller still holds it and freed with it otherwise.  The old
    entry is dropped before a new object is built, and the key and the
    reference are one tuple, so a racing caller never pairs a key with
    another key's object.
    """

    def __init__(self, small: Callable) -> None:
        self._small = small
        # (key, the object while it is small, a weak reference to it)
        self._entry: tuple | None = None

    def get(self, key: tuple, build: Callable):
        entry = self._entry
        if entry is not None and entry[0] == key:
            obj = entry[2]()
            if obj is not None:
                return obj
        self._entry = None
        obj = build()
        self._entry = (key, obj if self._small(obj) else None, weakref.ref(obj))
        return obj


# the last fixed-y law, held while it has at most COUNT_CHUNK cells or, on
# the float track, split-table rows: a window law keeps only those and its
# last two windows
_LAST_REF_LAW = _LastBuilt(lambda law: _one_chunk(law) or (
    not law.exact and math.prod(law._shape[:-1]) + law._shape[-1] <= COUNT_CHUNK))


def _ref_law(model: Model, y: SideInfoString, method: str, exact: bool) -> LengthLaw:
    """The law given ``y``; point queries of one (model, y) in a row share it."""
    route = _route(model, len(model.x_alphabet), len(y), method)

    def build() -> LengthLaw:
        if route == "bruteforce":
            return length_law_bruteforce(model, y, exact=exact)
        return length_law_typeclass(model, y, exact=exact)

    return _LAST_REF_LAW.get((model, y, route, exact), build)


def epsilon_star_ref(
    model: Model,
    y: SideInfoString,
    k: int,
    method: str = "auto",
    exact: bool = False,
) -> float | Fraction:
    """Best overflow probability at k bits given the y-string."""
    law = _ref_law(model, y, method, exact)
    if exact:
        return law.epsilon_star_exact(k)
    return law.epsilon_star(k) if _one_chunk(law) else law.epsilon_star_window(k)


def rate_star_ref(
    model: Model, y: SideInfoString, epsilon: float, method: str = "auto"
) -> RatePoint:
    """Best code rate at overflow budget epsilon, given the y-string."""
    law = _ref_law(model, y, method, exact=False)
    return law.rate_point(epsilon) if _one_chunk(law) else law.rate_point_window(epsilon)


# ---------------------------------------------------------------------------
# Pair-averaged queries


def _composition_weight(
    p_y: Sequence[Fraction] | Sequence[float], comp: Sequence[int], exact: bool
) -> float | Fraction:
    """P(y) summed over the y-strings of composition ``comp``: ``p_y`` are
    Fractions on the exact track, and may be their floats on the float one."""
    mult = _multinomial(sum(comp), comp)
    if exact:
        w = Fraction(mult)
        for p, c in zip(p_y, comp):
            w *= p**c
        return w
    # a y-symbol of probability zero that occurs adds -inf
    logw = math.log2(mult) + math.fsum(
        c * math.log2(float(p)) if p > 0 else -math.inf for p, c in zip(p_y, comp) if c)
    return 0.0 if logw == -math.inf else 2.0**logw


class _Shared:
    """Objects of one sweep, each built by ``build(*key)`` on first use;
    one that ``uses(*key)`` says more than one use awaits is held until
    :meth:`used` has counted that many."""

    def __init__(self, build: Callable, uses: Callable[..., int]) -> None:
        self._build, self._uses = build, uses
        self._held: dict[tuple, object] = {}
        self._left: dict[tuple, int] = {}

    def get(self, *key):
        obj = self._held.get(key)
        if obj is None:
            obj = self._build(*key)
            if self._uses(*key) > 1:
                self._held[key] = obj
        return obj

    def used(self, *key) -> None:
        """Count one use of ``key``, built or not; drop it after the last."""
        left = self._left.pop(key, 0) or self._uses(*key)
        if left > 1:
            self._left[key] = left - 1
        else:
            self._held.pop(key, None)


def _pair_laws(
    model: CondIidModel, n: int, exact: bool
) -> Iterator[tuple[float | Fraction, LengthLaw]]:
    """(weight, law) of the type-class sweep over y-compositions; the
    overflow given y depends on y only through its composition.  The laws
    share the factor of y-symbol ``a`` at count ``c`` and the count row of
    support size ``s`` at count ``c``: each is built once and kept only
    until the last composition that uses it has been swept, so at most
    one per (a, c) and per (s, c) is held, and no factor for two
    y-symbols, where no composition repeats one."""
    nx, ny = len(model.x_alphabet), len(model.y_alphabet)
    p_y, rows, sizes = model.require_p_y(), model.p_x_given_y, model.support_sizes
    if not exact:
        p_y = [float(p) for p in p_y]

    def uses(c: int) -> int:
        """Compositions of the sweep in which one y-symbol occurs c times."""
        return 1 if ny == 1 else math.comb(n - c + ny - 2, ny - 2)

    count_rows = _Shared(partial(_count_row, nx), lambda s, c: sizes.count(s) * uses(c))
    factors = _Shared(lambda a, c: _symbol_factor(rows[a], count_rows.get(sizes[a], c), exact),
                      lambda a, c: uses(c))
    for comp in _compositions(n, ny):
        w = _composition_weight(p_y, comp, exact)
        if w != 0:
            yield w, _typeclass_law(model, comp, exact, factors.get, DEFAULT_CLASS_CAP)
        for a, c in enumerate(comp):
            if c:
                factors.used(a, c)
                count_rows.used(sizes[a], c)


def _exact_pair_rows(model: Model, n: int) -> Iterator[tuple]:
    """``(den, w, rows, given)`` per block: each y-string of positive
    probability, in product order, is one ascending row of integers
    ``v(x, y)`` of weight ``w(y)``, P(x, y) being ``w(y)·v(x, y) / den``
    and P(x|y) ``v(x, y) / given`` (over the row's sum if ``given`` is None).

    Markov rows are the joints of :func:`_markov_blocks`, of weight 1.  A
    conditionally i.i.d. block is a y-head times every y-tail, at most
    ``max(COUNT_CHUNK, |X|^n)`` cells of ``v(x|y)`` weighted by ``p_y``,
    each over its lcm to the ``n`` and not renormalized: an int64 array when
    the largest row sum to the ``n`` (which bounds every partial sum) fits,
    else lists of ints, each presorted by float keys so the exact sort is
    about one pass."""

    def ascending(block: np.ndarray, keys: Callable) -> Sequence:
        if block.dtype == object:
            rows = np.take_along_axis(block, np.argsort(keys().reshape(block.shape)), 1).tolist()
            return [sorted(v) for v in rows]
        return np.sort(block)

    if isinstance(model, MarkovPairModel):
        for den, v in _markov_blocks(model, [range(len(model.y_alphabet))] * n, True):
            yield den, np.ones(len(v), object), ascending(v, lambda: (v / den).astype(float)), None
        return
    strings = len(model.x_alphabet) ** n
    live = [a for a, p in enumerate(model.require_p_y()) if p]
    (pn,), d = _numerators([[model.p_y[a] for a in live]])
    qn, l = _numerators(model.p_x_given_y)
    qn = [qn[a] for a in live]
    qn = np.array(qn, np.int64 if max(map(sum, qn)) ** n < 1 << 63 else object)
    ny, den = len(live), (d * l) ** n
    r = next(r for r in range(n, -1, -1) if ny**r * strings <= max(COUNT_CHUNK, strings))
    one = np.ones((), qn.dtype)
    tail_ys = list(product(range(ny), repeat=r))    # one row per y-tail, in product order
    tails = np.array([reduce(np.multiply.outer, (qn[a] for a in t), one).ravel() for t in tail_ys])
    tail_pn = np.array([math.prod(pn[a] for a in t) for t in tail_ys], object)
    for head in product(range(ny), repeat=n - r):
        heads = reduce(np.multiply.outer, (qn[a] for a in head), one)
        block = np.multiply.outer(tails, heads).reshape(len(tails), -1)
        rows = ascending(block, lambda: np.multiply.outer(
            np.asarray(tails / l**r, float), np.asarray(heads / l ** (n - r), float)))
        yield den, math.prod(pn[a] for a in head) * tail_pn, rows, l**n


def _bruteforce_pair_curve(model: Model, n: int, ranks: Sequence[int]) -> list[Fraction]:
    """Exact pair overflow at each of the ascending ``ranks``, with no law:
    at rank ``b <= |X|^n``, ``Σ_y w(y)·S_y(b) / den`` over the rows of
    :func:`_exact_pair_rows`, ``S_y(b)`` the sum of the ``|X|^n - b + 1``
    smallest ``v(x, y)``."""
    strings = len(model.x_alphabet) ** n
    cols = [strings - b for b in ranks if b <= strings]
    total, den = np.zeros(len(cols), object), 1
    for den, w, rows, _ in _exact_pair_rows(model, n):
        if isinstance(rows, list):
            sums = np.array([[s[c] for c in cols] for s in map(list, map(accumulate, rows))], object)
        else:
            sums = np.cumsum(rows, axis=1)[:, cols]
        total[:] += w @ sums
    return [Fraction(t, den) for t in total] + [Fraction(0)] * (len(ranks) - len(cols))


def _exact_pair_sums(model: Model, n: int, b: int, thresholds: Sequence[Fraction]) -> list:
    """The exact pair overflow at rank ``b``, then P[-log2 P(X|Y) >= t] at
    each threshold ``t``, in one pass over :func:`_exact_pair_rows`: each a
    prefix sum of every row, of its ``|X|^n - b + 1`` smallest values, or
    of those with P(x|y) <= 2^-t, a prefix bisected with
    :func:`_log2_at_least` (strings of probability zero carry no mass)."""
    strings = len(model.x_alphabet) ** n
    sums, den = [0] * (len(thresholds) + 1), 1
    for den, w, rows, given in _exact_pair_rows(model, n):
        for wy, row in zip(w.tolist(), rows if isinstance(rows, list) else rows.tolist()):
            cum = [0, *accumulate(row)]
            q = cum[-1] if given is None else given
            cuts = [max(strings - b + 1, 0)] + [bisect_left(row, True, key=lambda v: not (
                v == 0 or _log2_at_least(Fraction(v, q), t))) for t in thresholds]
            sums = [s + wy * cum[m] for s, m in zip(sums, cuts)]
    return [Fraction(v, den) for v in sums]


def _float_pair_rows(model: Model, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(P(y), log2 P(x|y))`` of every y-string of positive probability,
    in product order, in blocks of :func:`_walk` with one row per y-string.

    Each row takes the float operations of its own brute-force law: a
    Markov row divides its joints by their sum, in ``log2`` with
    ``math.log2`` of the sum; a conditionally i.i.d. row adds the
    ``cond_log2`` rows of its y-symbols from the left, and multiplies its
    weight the same way."""
    ny, nx = len(model.y_alphabet), len(model.x_alphabet)
    if isinstance(model, MarkovPairModel):
        for _, joints in _markov_blocks(model, [range(ny)] * n, False):
            total = joints.sum(axis=1)
            log2_total = np.array([math.log2(t) for t in total.tolist()])
            with np.errstate(divide="ignore"):
                yield total, np.log2(joints) - log2_total[:, None]
        return
    p_y = np.array([float(p) for p in model.require_p_y()])
    live = np.flatnonzero(p_y)
    p_live, rows = p_y[live], model.cond_log2[live]

    def step(t: int, state: tuple) -> tuple:
        w, lp = state
        return ((w[:, None] * p_live).ravel(),
                (lp[:, None, :, None] + rows[:, None]).reshape(len(w) * len(live), -1))

    yield from _walk([live] * n, nx, step, (np.ones(1), np.zeros((1, 1))))


def _row_overflows(lp: np.ndarray, ranks: Sequence[int], thresholds: Sequence = ()) -> np.ndarray:
    """P[rank >= b] at each of the ascending ``ranks``, then
    P[-log2 P >= t] at each of ``thresholds``, for each row of ``lp``, the
    ``log2`` probabilities of one flat law per row, every float the one
    that row's law gives: each row is ranked and merged as
    :meth:`LengthLaw._rank` ranks a flat factor, its suffix masses are
    summed from its own last class, a rank takes
    :func:`_excess_in_classes`, and a threshold the suffix mass
    :meth:`LengthLaw.info_tail` reads."""
    rows, width = lp.shape
    _, lp, starts = _classes(lp)
    lp = lp.ravel()
    mass = _class_sums(np.exp2(lp), starts)
    # class c of the block is class local[c] of row row_of[c]
    row_of = starts // width
    local = np.arange(len(starts)) - np.searchsorted(starts, row_of * width)
    # zeros pad each row past its last class, and 0.0 + m is m
    suffix = np.zeros((rows, local.max() + 2))
    suffix[row_of, local] = mass
    suffix = suffix[:, ::-1].cumsum(axis=1)[:, ::-1]
    lo = bisect_right(ranks, 1)
    hi = bisect_right(ranks, width, lo)
    out = np.zeros((rows, len(ranks) + len(thresholds)))
    out[:, :lo] = suffix[:, :1]
    # the class of rank b holds cell b - 1 of its row
    cells = (np.arange(rows) * width)[:, None] + (np.array(ranks[lo:hi], dtype=np.int64) - 1)
    c = np.searchsorted(starts, cells, side="right") - 1
    ends = np.append(starts[1:], rows * width)
    out[:, lo:hi] = np.reshape(_excess_in_classes(
        suffix[row_of[c], local[c] + 1].ravel().tolist(), (ends[c] - cells).ravel().tolist(),
        lp[starts[c]].ravel().tolist()), c.shape)
    info = -lp[starts]      # ascending along each row
    for j, t in enumerate(thresholds, len(ranks)):
        out[:, j] = suffix[np.arange(rows), np.bincount(row_of[info < t], minlength=rows)]
    return out


def _float_pair_sums(model: Model, n: int, b: int, thresholds: Sequence[float]) -> list[float]:
    """The pair overflow at rank ``b``, then P[-log2 P(X|Y) >= t] at each
    threshold ``t``, from one pass over the rows of :func:`_float_pair_rows`:
    each row's values by :func:`_row_overflows`, times P(y), summed by
    ``math.fsum``."""
    blocks = [w[:, None] * _row_overflows(lp, [b], thresholds)
              for w, lp in _float_pair_rows(model, n)]
    return [math.fsum(col) for col in np.concatenate(blocks).T.tolist()]


def _float_pair_curve(model: Model, n: int, ranks: Sequence[int]) -> list[float]:
    """Float brute-force pair overflow at each of the ascending ``ranks``:
    the rows of :func:`_float_pair_rows` by :func:`_row_overflows`, times
    P(y), added in y order, bit for bit the per-y-string laws' sum."""
    total = np.zeros(len(ranks))
    for w, lp in _float_pair_rows(model, n):
        for row in w[:, None] * _row_overflows(lp, ranks):
            total += row
    return total.tolist()


@lru_cache(maxsize=128)
def _pair_curve_of_route(model: Model, n: int, route: str, exact: bool) -> tuple:
    ranks = [1 << k for k in range((len(model.x_alphabet) ** n).bit_length() + 1)]
    if route == "bruteforce":
        return tuple((_bruteforce_pair_curve if exact else _float_pair_curve)(model, n, ranks))
    if not exact:
        total = np.zeros(len(ranks))
        for w, law in _pair_laws(model, n, exact):
            total += w * np.array(law._excess_at_ranks(ranks, exact=False))
        return tuple(total.tolist())
    # each law's overflow numerators N are over its den: with w / den = p / q,
    # one integer row of p · N per distinct q, and one Fraction per q and rank
    rows: dict[int, list[int]] = {}
    for w, law in _pair_laws(model, n, exact):
        scale = Fraction(w) / law._den
        row = rows.setdefault(scale.denominator, [0] * len(ranks))
        for k, v in enumerate(law._excess_at_ranks(ranks, exact=True)):
            row[k] += scale.numerator * v
    return tuple(sum((Fraction(row[k], q) for q, row in rows.items()), Fraction(0))
                 for k in range(len(ranks)))


def _pair_curve(model: Model, n: int, method: str, exact: bool) -> tuple:
    """Pair overflow curve over k = 0..kmax, the last entry 0.

    Memoized per (model, n, route, track): models are frozen, so a
    sweep of per-k point queries costs one sweep.
    """
    return _pair_curve_of_route(model, n, _pair_route(model, n, method), exact)


def _pair_route(model: Model, n: int, method: str) -> str:
    """The route of a pair query at blocklength ``n``, refused before
    anything is built when it would exceed its guard: brute force
    enumerates ``(|X||Y|)^n`` strings, and a type-class sweep builds one
    law per y-composition and asks each for about ``n log2 |X|`` ranks,
    integers of up to as many bits."""
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    ny = len(model.y_alphabet)
    route = _route(model, len(model.x_alphabet) * ny, n, method)
    if route == "bruteforce":
        if not _fits(len(model.x_alphabet) * ny, n, BRUTEFORCE_GUARD):
            raise GuardExceededError(f"pair brute force needs (|X||Y|)^n <= {BRUTEFORCE_GUARD}")
    elif max(math.comb(n + ny - 1, ny - 1), n) * n > DEFAULT_CLASS_CAP:
        raise GuardExceededError(
            f"type-class pair sweep needs max(y-compositions, n) times n <= {DEFAULT_CLASS_CAP}")
    return route


def epsilon_star_pair(
    model: Model, n: int, k: int, method: str = "auto", exact: bool = False
) -> float | Fraction:
    """Best overflow probability at k bits, averaged over y-strings.

    The type-class route sweeps y-compositions; the brute-force route
    enumerates every y-string, in numpy blocks, and is the independent
    oracle.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    curve = _pair_curve(model, n, method, exact)
    return curve[min(k, len(curve) - 1)]


def rate_star_pair(
    model: Model, n: int, epsilon: float, method: str = "auto"
) -> RatePoint:
    """Best pair-averaged rate: smallest k/n with overflow <= epsilon."""
    _check_epsilon(epsilon)
    curve = _pair_curve(model, n, method, exact=False)
    k = next(k for k in range(len(curve)) if (curve[k + 1] if k + 1 < len(curve) else 0.0) <= epsilon)
    return RatePoint(
        n=n,
        epsilon=epsilon,
        k=k,
        rate=k / n,
        eps_at_k=float(curve[k]),
        eps_at_k_plus_1=float(curve[k + 1]) if k + 1 < len(curve) else 0.0,
    )


def epsilon_star_prefix(
    model: Model,
    n: int,
    k: int,
    y: SideInfoString | None = None,
    method: str = "auto",
    exact: bool = False,
) -> float | Fraction:
    """Best overflow probability among prefix codes at k bits.

    Equals the one-to-one value at ``k - 1`` until k exhausts the
    source alphabet, then drops to zero; ``y=None`` gives the
    pair-averaged version.
    """
    if k < 1:
        raise ValueError("prefix overflow needs k >= 1")
    if y is None:
        _pair_route(model, n, method)  # refuses n before |X|^n is built
    elif n < 1:
        raise ValueError("blocklength must be >= 1")
    elif len(y) != n:
        raise ValueError("y-string length must equal n")
    # 2^(k-1) >= |X|^n, compared without shifting a huge k
    if k - 1 >= (len(model.x_alphabet) ** n - 1).bit_length():
        return Fraction(0) if exact else 0.0
    if y is None:
        return epsilon_star_pair(model, n, k - 1, method=method, exact=exact)
    return epsilon_star_ref(model, y, k - 1, method=method, exact=exact)


# ---------------------------------------------------------------------------
# The general converse along a threshold grid


@dataclass(frozen=True)
class ConverseEntry:
    tau: float
    info_tail: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class ConverseCheck:
    """One run of the information-spectrum converse check.

    For each slack tau, the best overflow probability must dominate
    ``P[-log2 P >= k + tau] - 2^-tau``; ``ok`` aggregates over taus.
    """

    n: int
    k: int
    scope: str
    lhs: float
    entries: tuple[ConverseEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def check_general_converse(
    model: Model,
    k: int,
    taus: Sequence[float],
    y: SideInfoString | None = None,
    n: int | None = None,
    exact: bool = False,
) -> ConverseCheck:
    """Check the threshold converse at one k over a grid of slacks.

    With ``y`` fixed the conditional law given that string is used;
    otherwise one pass over the rows of the brute-force pair enumeration
    (within its guard), which builds no law.  Every slack is refused or
    accepted before anything is enumerated.  On the exact track the
    inequality is decided in rational arithmetic, so a pass means zero
    violations, not small ones.
    """
    if y is not None:
        if n is not None and n != len(y):
            raise ValueError("y-string length must equal n")
        n = len(y)
    elif n is None:
        raise ValueError("pair scope needs n")
    for tau in taus:
        if exact and (math.isnan(tau) or tau == math.inf):
            raise ValueError("exact slacks must be finite")
        if not tau > 0:
            raise ValueError("slacks must be positive")
    thresholds = [Fraction(k) + Fraction(tau) if exact else k + tau for tau in taus]
    if y is not None:
        law = length_law_bruteforce(model, y, exact=exact)
        lhs = law.epsilon_star_exact(k) if exact else law.epsilon_star(k)
        tails = [law.info_tail_exact(t) if exact else law.info_tail(t) for t in thresholds]
    else:
        _pair_route(model, n, "bruteforce")  # refuses n before |X|^n is built
        b = _rank_at_bits(k, len(model.x_alphabet) ** n)
        lhs, *tails = (_exact_pair_sums if exact else _float_pair_sums)(model, n, b, thresholds)
    entries = []
    for tau, tail in zip(taus, tails):
        rhs = float(tail) - 2.0 ** float(-tau)
        if exact:   # tail - lhs <= 2^-tau, decided exactly
            ok = tail - lhs <= 0 or _log2_at_least(tail - lhs, Fraction(tau))
        else:
            ok = lhs >= rhs - 1e-12
        entries.append(ConverseEntry(float(tau), float(tail), rhs, ok))
    return ConverseCheck(int(n), k, "pair" if y is None else "ref", float(lhs), tuple(entries))
