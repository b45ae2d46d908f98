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
builders enumerate strings into one flat factor, as independent oracles
and the only exact route for Markov models (a Markov pair sweep takes one
forward step per y-prefix).  The exact brute-force pair curve of a
conditionally i.i.d. model builds no law: one integer walk over y-prefixes
carries every string's joint numerator, sorted, and sums the overflows.

Two evaluation tracks coexist:

* float: per-string probabilities as ``log2`` values (never as raw
  doubles, which underflow long before interesting blocklengths) with
  exact class counts, computed in int64 when the law's strings fit in
  it and as Python integers otherwise, and handed on as Python integers;
* exact: rational per-string probabilities, for small blocklengths,
  used as the ground truth the float track is tested against.  It
  ranks by integer numerators alone; an exact law builds its float
  ``log2p`` and suffix masses only when one is read.

A pair curve asks each law for its overflow at every rank ``2^k`` in
one monotone pass with one step per count chunk, and sums the weighted
curves: on the float track with one numpy multiply-add per law, on the
exact track in integers, one row per distinct denominator of weight
over law.  A rank needs no dominance count to find its chunk when it
lies within the next chunk's class count of the last chunk produced,
or past every chunk but the last.

A law ranks its cells only when a query reads the ranking: the pair
curves, ``info_tail``, ``counts``/``probs`` and the exact track.  The
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

* a type-class pair sweep builds one factor per (y-symbol, count) and
  keeps it only while a later composition of the sweep still uses it
  (one y-symbol at count ``c`` occurs in ``comb(n - c + |Y| - 2, |Y| - 2)``
  compositions), so it holds at most ``|Y| n`` factors, and none when
  ``|Y| <= 2``;
* the fixed-y point queries keep their last law (keyed on model, y,
  route and track), and :func:`codec.build_code` its last
  codebook (keyed on model and y).  A law of at most ``COUNT_CHUNK``
  cells, or a codebook of at most ``COUNT_CHUNK`` strings, is held; a
  larger one only by weak reference, so it is reused while a caller
  still holds it and nothing larger outlives its query because of the
  memo.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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


@dataclass(frozen=True)
class _Factor:
    """One factor of a product-form law.

    Cell ``i`` holds ``counts[i]`` strings (``log2`` of that is ``lc[i]``)
    of log2 probability ``lp[i]``; on the exact track each has
    probability ``nums[i] / den``.  An exact flat factor has no
    ``log2s`` and takes ``lp`` from ``nums`` on first read.
    """

    log2s: np.ndarray | None
    counts: np.ndarray          # object array of Python ints; int64 ones when flat
    lc: np.ndarray
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
    return _Factor(lp, np.ones(size, dtype=np.int64), np.zeros(size), nums_arr, den)


def _outer(arrays: list[np.ndarray], ufunc: np.ufunc) -> np.ndarray:
    """Flattened outer product of ``arrays`` under ``ufunc``, left to right."""
    return reduce(lambda a, b: ufunc.outer(a, b).ravel(), arrays)


class _Chunk(NamedTuple):
    """Exact data of ``COUNT_CHUNK`` consecutive ranked classes; class
    ``i`` of the chunk spans ranks ``cum[i] + 1 .. cum[i + 1]``."""

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
    produced ``COUNT_CHUNK`` classes at a time, only when a query needs
    them; the law keeps the cumulative count at the end of every chunk
    it produced or located, and the last chunk it produced.  Reaching a
    chunk never produces the chunks before it: :meth:`_chunk_of_rank`
    finds it from the last chunk's end where class counts suffice, and
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
        self.num_strings = math.prod(sum(f.counts.tolist()) for f in factors)
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
        self._window_hit: _Window | None = None
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
            new_class = (ranked[1:] != ranked[:-1]).astype(bool)
        else:
            lp = _outer([f.lp for f in factors], np.add)
            order = np.argsort(-lp, kind="stable")
            lp = lp[order]
            with np.errstate(invalid="ignore"):
                new_class = np.abs(np.diff(lp)) > MERGE_TOL
        starts = np.flatnonzero(np.concatenate(([True], new_class)))
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
        mass = np.add.reduceat(np.exp2(lp + lc[self._order]), starts)
        suffix = np.zeros(len(mass) + 1)
        suffix[:-1] = mass[::-1].cumsum()[::-1]
        self._floats = (lp[starts], suffix)
        return self._floats

    # -- exact counts, chunk by chunk --------------------------------------

    def _chunk(self, c: int) -> _Chunk:
        """Exact data of chunk ``c``."""
        last = self._last
        if last is not None and last[0] == c:
            return last[1]
        starts = self._ranked()[c * COUNT_CHUNK:(c + 1) * COUNT_CHUNK + 1]
        end = int(starts[-1]) if len(starts) > COUNT_CHUNK else len(self._order)
        first = int(starts[0])
        heads = starts[:COUNT_CHUNK] - first
        cells = np.unravel_index(self._order[first:end], self._shape)
        counts = reduce(operator.mul, [f.counts.astype(self._ints, copy=False)[i]
                                       for f, i in zip(self._factors, cells)])
        class_counts = np.add.reduceat(counts, heads).tolist()
        base, base_mass = self._end(c - 1) if c else (0, 0)
        cum = list(accumulate(class_counts, initial=base))
        mass = nums = None
        if self.exact:
            nums = reduce(operator.mul, [f.nums[i[heads]] for f, i in zip(self._factors, cells)])
            nums = nums.tolist()
            mass = list(accumulate(map(operator.mul, nums, class_counts), initial=base_mass))
        chunk = _Chunk(cum, mass, nums)
        self._ends[c] = (cum[-1], mass[-1] if mass else 0)
        self._last = (c, chunk)
        return chunk

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

        The search starts past the last chunk produced when ``b`` ranks
        after it.  Every class holds at least one string, so a rank
        within as many strings of that start as the next chunk has
        classes lies in that chunk, and one past every other chunk lies
        in the last; only otherwise are chunk ends bisected, by
        :meth:`_end`'s exact dominance counts.
        """
        c, base, last = 0, 0, self._last
        if last is not None and last[1].cum[0] < b:
            if b <= last[1].cum[-1]:
                return last[0]
            c, base = last[0] + 1, last[1].cum[-1]
        classes = len(self._ranked())
        if b <= base + min(COUNT_CHUNK, classes - c * COUNT_CHUNK):
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
        lp = s.lp[rows] + s.last_lp[cols]
        order = np.argsort(-lp, kind="stable")
        lp, rows, cols = lp[order], rows[order], cols[order]
        # the edges must fall between classes, by the ranking's own predicate
        up = hi_len > 0
        if up.any() and not (s.lp[up] + s.last_lp[hi_len[up] - 1]).min() - lp[0] > MERGE_TOL:
            return -1, None
        down = lo_len < len(s.last_lp)
        below = (s.lp[down] + s.last_lp[lo_len[down]]).max() if down.any() else -math.inf
        if not lp[-1] - below > MERGE_TOL:
            return 1, None
        starts = np.flatnonzero(np.concatenate(([True], np.abs(np.diff(lp)) > MERGE_TOL)))
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
        (0, with its index).  A float bisection of the level shrinks the
        window to about ``WINDOW_CELLS`` cells (or to a tie or merge
        chain of more), which then grows geometrically until ``where``
        finds the class in it and no class crosses its edges.
        """
        hit = self._window_hit
        if hit is not None:
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
                    self._window_hit = win
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
        return _excess_in_class(tail, win.cum[j] - b + 1, win.tops[j])

    def excess_at_rank_exact(self, b: int) -> Fraction:
        self._require_exact()
        return Fraction(self._excess_at_ranks([b], exact=True)[0], self._den)

    def _excess_at_ranks(self, ranks: Sequence[int], exact: bool) -> list:
        """P[rank >= b] for each of the ascending ``ranks``: floats, or
        with ``exact`` integer numerators over the law's denominator.

        One monotone pass, one step per chunk: :meth:`_chunk_of_rank`
        finds the chunk of the first rank not yet placed, and every rank
        up to the chunk's end is placed in it at once.  The float track
        reads those classes' ``log2p`` and tail masses with one gather
        each.
        """
        lo = bisect_right(ranks, 1)
        hi = bisect_right(ranks, self.num_strings, lo)
        out = [self._total_num if exact else self.total_mass()] * lo
        while len(out) < hi:
            c = self._chunk_of_rank(ranks[len(out)])
            ch = self._chunk(c)
            cum = ch.cum
            bs = ranks[len(out):bisect_right(ranks, cum[-1], len(out), hi)]
            js = [bisect_left(cum, b, 1) - 1 for b in bs]
            if exact:
                out += [self._total_num - ch.mass[i] - ch.nums[i] * (b - 1 - cum[i])
                        for i, b in zip(js, bs)]
                continue
            log2p, suffix = self._class_floats()
            at, first = np.array(js), c * COUNT_CHUNK
            # _excess_in_class; a class of log2p -inf adds 2.0 ** -inf = 0.0
            out += [tail + 2.0 ** (math.log2(cum[i + 1] - b + 1) + lp) for i, b, tail, lp
                    in zip(js, bs, suffix[first + 1:][at].tolist(), log2p[first:][at].tolist())]
        return out + [0 if exact else 0.0] * (len(ranks) - hi)

    def epsilon_star(self, k: int) -> float:
        """Overflow probability of the optimal code at k bits."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.excess_at_rank(1 << k)

    def epsilon_star_window(self, k: int) -> float:
        """:meth:`epsilon_star` without the ranking."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.excess_at_rank_window(1 << k)

    def epsilon_star_exact(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.excess_at_rank_exact(1 << k)

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


def _excess_in_class(tail: float, d: int, lp: float) -> float:
    """Overflow at the rank ``d`` strings before the end of a class of
    log2p ``lp``, followed by mass ``tail``."""
    if d > 0 and lp > -math.inf:
        tail += 2.0 ** (math.log2(d) + lp)
    return tail


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
    """Whether -log2(p) >= threshold, exactly, for rational threshold."""
    # -log2 p >= t  <=>  p <= 2^-t  <=>  p^q <= 2^-tq with t = num/den
    num, den = threshold.numerator, threshold.denominator
    lhs = p**den
    if num >= 0:
        return lhs * (1 << num) <= 1
    return lhs <= (1 << -num)


# ---------------------------------------------------------------------------
# Type-class construction for conditionally i.i.d. models


def _binomial_row(n: int) -> list[int]:
    half = [1]  # C(n, 0..n/2); the rest mirrors it
    for i in range(n // 2):
        half.append(half[-1] * (n - i) // (i + 1))
    return half + half[::-1][1 - n % 2:]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(total: int, ks: Sequence[int]) -> int:
    out = 1
    rem = total
    for k in ks[:-1]:
        out *= math.comb(rem, k)
        rem -= k
    return out


def _symbol_factor(row: Sequence[Fraction], count: int, exact: bool) -> _Factor:
    """Type classes of ``count`` positions that all see one y-symbol.

    The type classes run over the support of the conditional row; when
    the row has zeros, one more cell holds the strings that use a
    zero-probability x-symbol (``log2p`` -inf, numerator 0), as in a
    brute-force factor.
    """
    support = [p for p in row if p > 0]
    logs = [math.log2(float(p)) for p in support]
    den = math.lcm(*(p.denominator for p in support))
    scaled = [int(p * den) for p in support]
    if len(support) == 2:
        ks = np.arange(count + 1, dtype=np.float64)
        lp = ks * logs[1] + (count - ks) * logs[0]
        counts = _binomial_row(count)
        types: Sequence[tuple[int, ...]] = [(count - k, k) for k in range(count + 1)]
    else:
        types = list(_compositions(count, len(support)))
        lp = np.array([math.fsum(k * l for k, l in zip(ks, logs)) for ks in types])
        counts = [_multinomial(count, ks) for ks in types]
    nums = [math.prod(a**k for a, k in zip(scaled, ks)) for ks in types] if exact else None
    zeros = len(row) ** count - len(support) ** count
    if zeros:
        lp = np.append(lp, -math.inf)
        counts.append(zeros)
        if exact:
            nums.append(0)
    lc = np.array([math.log2(c) for c in counts])
    return _Factor(lp, np.array(counts, dtype=object), lc,
                   None if nums is None else np.array(nums, dtype=object), den**count)


def length_law_typeclass(
    model: CondIidModel,
    y: SideInfoString | Sequence[int],
    exact: bool = False,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> LengthLaw:
    """Length law given a fixed y-string, built from type classes.

    ``y`` may be a :class:`SideInfoString` or a bare composition
    (occurrence count per y-symbol); the law depends on the string
    only through its composition.
    """
    composition = y.counts() if isinstance(y, SideInfoString) else tuple(y)
    rows = model.p_x_given_y
    return _typeclass_law(model, composition, exact,
                          lambda a, c: _symbol_factor(rows[a], c, exact), class_cap)


def _typeclass_law(
    model: CondIidModel,
    composition: Sequence[int],
    exact: bool,
    factor: Callable[[int, int], _Factor],
    cap: int,
) -> LengthLaw:
    """:func:`length_law_typeclass` of a composition, with ``factor(a, c)``
    the factor of ``c`` positions that all see y-symbol ``a``; refused
    before any factor is built when its cells exceed ``cap``."""
    if len(composition) != len(model.y_alphabet):
        raise ValueError("composition needs one count per y-symbol")
    n = sum(composition)
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    cells = 1  # type classes of c positions over a support of s symbols, and a zero cell
    for s, c in zip(model.support_sizes, composition):
        if c:
            cells *= math.comb(c + s - 1, s - 1) + (s < len(model.x_alphabet))
    if cells > cap:
        raise GuardExceededError(
            f"type-class count exceeds cap {cap} at composition {tuple(composition)}"
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
    lcms = [math.lcm(*(p.denominator for p in row)) for row in model.p_x_given_y]
    rows = [np.array([int(p * d) for p in row], dtype=object)
            for row, d in zip(model.p_x_given_y, lcms)]
    nums = _outer([rows[yi] for yi in y.indices], np.multiply)
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
    num_strings = len(model.x_alphabet) ** len(y)
    if num_strings > guard:
        raise GuardExceededError(f"brute force needs |X|^n <= {guard}, got {num_strings}")
    if isinstance(model, CondIidModel):
        if exact:
            factor = _flat_factor(None, *_bruteforce_cond_iid_exact(model, y))
        else:
            factor = _flat_factor(_outer([model.cond_log2[yi] for yi in y.indices], np.add))
    else:
        joints = next(_markov_joints(model, [(yt,) for yt in y.indices], exact), None)
        if joints is None:
            raise ValueError("side-information string has zero probability")
        factor = _markov_flat_factor(joints, exact)[1]
    return LengthLaw(len(y), [factor], exact)


def _markov_joints(
    model: MarkovPairModel, choices: Sequence[Sequence[int]], exact: bool
) -> Iterator[np.ndarray]:
    """P(x, y) over all x-strings in product order (``Fraction``s on the exact
    track) for each y-string with t-th symbol in ``choices[t]``, depth first in
    product order.  A y-prefix filters the initial law's contexts up to the
    order, then takes one ``_step``; one of probability 0 has no subtree."""
    d = model.order
    if len(choices) < d:
        raise ValueError(f"need blocklength >= markov order {d}")
    if not exact:
        init, trans = model.initial_f, model.transition_f
    elif model.initial is None:
        raise ValueError("exact Markov enumeration needs an explicit rational initial law")
    else:
        init, trans = (np.array(t, dtype=object) for t in (model.initial, model.transition))
    ny, span = len(model.y_alphabet), model.num_pair_symbols
    # a stacked y-prefix is its parent's state and its last y-symbol
    stack = [(0, init, np.arange(len(init)), yt) for yt in reversed(choices[0])]
    while stack:
        t, probs, ctx, yt = stack.pop()
        if t < d:  # ascending contexts list their x-heads in product order
            keep = ctx // span ** (d - 1 - t) % ny == yt
            probs, ctx = probs[keep], ctx[keep]
        else:
            s, nxt = model._step(ctx, yt)
            probs, ctx = (probs[:, None] * trans[ctx][:, s]).ravel(), nxt.ravel()
        if not probs.any():
            continue
        if t + 1 == len(choices):
            yield probs
        else:  # popped in product order
            stack += [(t + 1, probs, ctx, a) for a in reversed(choices[t + 1])]


def _markov_string_probs(
    model: MarkovPairModel, y: SideInfoString, exact: bool
) -> np.ndarray:
    """Joint probabilities P(x, y) over all x-strings, y fixed, in product
    order of x: the walk along y alone, all zero when P(y) = 0."""
    zero = np.full(len(model.x_alphabet) ** len(y), Fraction(0) if exact else 0.0)
    return next(_markov_joints(model, [(yt,) for yt in y.indices], exact), zero)


def _markov_flat_factor(joints: np.ndarray, exact: bool) -> tuple[float | Fraction, _Factor]:
    """P(y) and the factor of P(x|y) from the joints P(x, y), y fixed, P(y) > 0."""
    if exact:
        lcm = math.lcm(*(p.denominator for p in joints))
        nums = [p.numerator * (lcm // p.denominator) for p in joints]
        return sum(joints), _flat_factor(None, nums, sum(nums))
    total = joints.sum()
    with np.errstate(divide="ignore"):
        return float(total), _flat_factor(np.log2(joints) - math.log2(total))


# ---------------------------------------------------------------------------
# Public reference-based (fixed y) queries


def _route(model: Model, strings: int, method: str) -> str:
    """The evaluation route of a query that enumerates ``strings`` strings:
    ``|X|^n`` given y, ``(|X||Y|)^n`` averaged over y.

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
        return "bruteforce" if strings <= BRUTEFORCE_GUARD else "typeclass"
    return method


def _one_chunk(law: LengthLaw) -> bool:
    """Whether the law has at most ``COUNT_CHUNK`` cells: its ranking is
    then one sort and one count chunk, no dearer than a level window
    over all of it, so point queries read the ranking."""
    return math.prod(law._shape) <= COUNT_CHUNK


class _LastBuilt:
    """The last object ``get`` built, for the next call with the same key.

    An object that passes ``small`` is held; any other only by weak
    reference, so it is reused while a caller still holds it and freed
    with it otherwise.  The old entry is dropped before a new object is
    built, and the key and the reference are one tuple, so a racing
    caller never pairs a key with another key's object.
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


# the last fixed-y law, held while it has at most COUNT_CHUNK cells
_LAST_REF_LAW = _LastBuilt(_one_chunk)


def _ref_law(model: Model, y: SideInfoString, method: str, exact: bool) -> LengthLaw:
    """The law given ``y``; point queries of one (model, y) in a row share it."""
    route = _route(model, len(model.x_alphabet) ** len(y), method)

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
    p_y: Sequence[Fraction], comp: Sequence[int], exact: bool
) -> float | Fraction:
    mult = _multinomial(sum(comp), comp)
    if exact:
        w = Fraction(mult)
        for p, c in zip(p_y, comp):
            w *= p**c
        return w
    logw = math.log2(mult) + math.fsum(
        c * math.log2(float(p)) for p, c in zip(p_y, comp) if c
    ) if all(p > 0 or c == 0 for p, c in zip(p_y, comp)) else -math.inf
    return 0.0 if logw == -math.inf else 2.0**logw


def _pair_laws(
    model: Model, n: int, route: str, exact: bool
) -> Iterator[tuple[float | Fraction, LengthLaw]]:
    """(weight, law) over y-compositions (type class) or y-strings (brute
    force); the overflow given y depends on y only through its composition.

    The type-class laws share their factors: the factor of y-symbol
    ``a`` at count ``c`` is built once and kept only until the last
    composition that uses it has been swept, so at most one per (a, c)
    is held, and none for two y-symbols, where no composition repeats
    one.  The brute-force laws serve the float pair curves, the Markov pair
    curves (one walk over y-prefixes) and :func:`check_general_converse`;
    the exact brute-force pair curve of a conditionally i.i.d. model is
    :func:`_bruteforce_pair_curve`, which builds none."""
    ny = len(model.y_alphabet)
    if route == "typeclass":
        assert isinstance(model, CondIidModel)
        p_y, rows = model.require_p_y(), model.p_x_given_y
        shared: dict[tuple[int, int], _Factor] = {}
        left: dict[tuple[int, int], int] = {}

        def uses(c: int) -> int:
            """Compositions of the sweep in which one y-symbol occurs c times."""
            return 1 if ny == 1 else math.comb(n - c + ny - 2, ny - 2)

        def factor(a: int, c: int) -> _Factor:
            f = shared.get((a, c))
            if f is None:
                f = _symbol_factor(rows[a], c, exact)
                if uses(c) > 1:
                    shared[a, c] = f
            return f

        for comp in _compositions(n, ny):
            w = _composition_weight(p_y, comp, exact)
            if w != 0:
                yield w, _typeclass_law(model, comp, exact, factor, DEFAULT_CLASS_CAP)
            # drop a factor after the last composition that holds it
            for key in ((a, c) for a, c in enumerate(comp) if c):
                left[key] = left.get(key, uses(key[1])) - 1
                if not left[key]:
                    del left[key]
                    shared.pop(key, None)
        return
    _check_pair_guard(model, n)
    if isinstance(model, MarkovPairModel):  # one walk gives both P(y) and the law given y
        for joints in _markov_joints(model, [range(ny)] * n, exact):
            w, factor = _markov_flat_factor(joints, exact)
            yield w, LengthLaw(n, [factor], exact)
        return
    p_y = [p if exact else float(p) for p in model.require_p_y()]
    for ys in product(range(ny), repeat=n):
        w = math.prod(p_y[yi] for yi in ys)
        if w != 0:
            yield w, length_law_bruteforce(model, SideInfoString(model.y_alphabet, ys), exact=exact)


def _check_pair_guard(model: Model, n: int) -> None:
    if (len(model.x_alphabet) * len(model.y_alphabet)) ** n > BRUTEFORCE_GUARD:
        raise GuardExceededError(
            f"pair brute force needs (|X||Y|)^n <= {BRUTEFORCE_GUARD}"
        )


def _bruteforce_pair_curve(model: CondIidModel, n: int, ranks: Sequence[int]) -> list[Fraction]:
    """Exact pair overflow at each of the ascending ``ranks``, by
    enumerating every y-string and every x-string, with no law.

    The y-strings are walked depth first in product order.  A y-prefix of
    length ``i`` carries the joint numerators ``p_y(y)·P(x|y)`` of its
    x-prefixes over ``(D·L)^i``, ``D`` and ``L`` the lcms of the ``p_y``
    and of the row denominators, in descending order; a child's list is
    ``|X|`` scaled copies of it, descending runs that one sort merges.  A
    y-symbol of zero probability has no subtree.  Given a full y-string,
    the overflow at rank ``b`` is the total minus the ``b - 1`` largest
    numerators, however ties are ordered; every y-string adds it into
    one integer row.
    """
    _check_pair_guard(model, n)
    p_y = model.require_p_y()
    d = math.lcm(*(p.denominator for p in p_y))
    l = math.lcm(*(q.denominator for row in model.p_x_given_y for q in row))
    # per y-symbol of positive probability, the scale of each x-symbol
    steps = [[p.numerator * (d // p.denominator) * q.numerator * (l // q.denominator)
              for q in row] for p, row in zip(p_y, model.p_x_given_y) if p]
    row = [0] * len(ranks)
    stack = [(n, [1])]      # (positions left, numerators of a y-prefix)
    while stack:
        left, nums = stack.pop()
        if left:
            stack += [(left - 1, sorted([v * c for c in scales for v in nums], reverse=True))
                      for scales in reversed(steps)]
            continue
        rest, start = sum(nums), 0
        for k, b in enumerate(ranks):
            rest -= sum(nums[start:b - 1])
            start = b - 1
            row[k] += rest
    den = (d * l) ** n
    return [Fraction(v, den) for v in row]


@lru_cache(maxsize=128)
def _pair_curve_of_route(model: Model, n: int, route: str, exact: bool) -> tuple:
    ranks = [1 << k for k in range((len(model.x_alphabet) ** n).bit_length() + 1)]
    if exact and route == "bruteforce" and isinstance(model, CondIidModel):
        return tuple(_bruteforce_pair_curve(model, n, ranks))
    laws = _pair_laws(model, n, route, exact)
    if exact:
        return tuple(_weighted_sum(laws, ranks))
    total = np.zeros(len(ranks))
    for w, law in laws:
        total += w * np.array(law._excess_at_ranks(ranks, exact=False))
    return tuple(total.tolist())


def _weighted_sum(
    laws: Iterable[tuple[Fraction, LengthLaw]], ranks: Sequence[int]
) -> list[Fraction]:
    """Sum over ``laws`` of ``w · P[rank >= b]``, exactly, for each of the
    ascending ``ranks``.  Each law's overflow numerators ``N`` are over
    its denominator ``den``; with ``w / den = p / q`` the sum keeps one
    integer row of ``p · N`` per distinct ``q``, and one ``Fraction``
    per row and rank at the end.  It sums the exact type-class and
    Markov pair curves and the exact pair converse."""
    rows: dict[int, list[int]] = {}
    for w, law in laws:
        scale = Fraction(w) / law._den
        row = rows.setdefault(scale.denominator, [0] * len(ranks))
        for k, v in enumerate(law._excess_at_ranks(ranks, exact=True)):
            row[k] += scale.numerator * v
    return [sum((Fraction(row[k], q) for q, row in rows.items()), Fraction(0))
            for k in range(len(ranks))]


def _pair_curve(model: Model, n: int, method: str, exact: bool) -> tuple:
    """Pair overflow curve over k = 0..kmax, the last entry 0.

    Memoized per (model, n, route, track): models are frozen, so a
    sweep of per-k point queries costs one sweep.
    """
    strings = (len(model.x_alphabet) * len(model.y_alphabet)) ** n
    return _pair_curve_of_route(model, n, _route(model, strings, method), exact)


def epsilon_star_pair(
    model: Model, n: int, k: int, method: str = "auto", exact: bool = False
) -> float | Fraction:
    """Best overflow probability at k bits, averaged over y-strings.

    The type-class route sweeps y-compositions; the brute-force route
    enumerates y-strings one by one and is the independent oracle.
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
    num_strings = len(model.x_alphabet) ** n
    if (1 << (k - 1)) >= num_strings:
        return Fraction(0) if exact else 0.0
    if y is None:
        return epsilon_star_pair(model, n, k - 1, method=method, exact=exact)
    if len(y) != n:
        raise ValueError("y-string length must equal n")
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
    otherwise the pair law (requires enumeration guards).  On the
    exact track the inequality is decided in rational arithmetic for
    dyadic slacks, so a pass means zero violations, not small ones.
    """
    if y is not None:
        n = len(y)
        laws: list[tuple[float | Fraction, LengthLaw]] = [
            (Fraction(1) if exact else 1.0, length_law_bruteforce(model, y, exact=exact))
        ]
        scope = "ref"
    else:
        if n is None:
            raise ValueError("pair scope needs n")
        laws = list(_pair_laws(model, n, "bruteforce", exact))
        scope = "pair"
    if exact:
        if k < 0:
            raise ValueError("k must be >= 0")
        lhs_val: Fraction = _weighted_sum(laws, [1 << k])[0]
    else:
        lhs_val = math.fsum(w * law.epsilon_star(k) for w, law in laws)
    entries = []
    for tau in taus:
        if tau <= 0:
            raise ValueError("slacks must be positive")
        if exact:
            ftau = Fraction(tau)
            thresh = Fraction(k) + ftau
            tail: Fraction = sum(
                (w * law.info_tail_exact(thresh) for w, law in laws), Fraction(0)
            )
            gap = tail - lhs_val
            ok = gap <= 0 or _pow2_at_most(gap, ftau)
            entries.append(
                ConverseEntry(float(tau), float(tail), float(tail) - 2.0 ** float(-tau), ok)
            )
        else:
            tail_f = math.fsum(w * law.info_tail(k + tau) for w, law in laws)
            rhs = tail_f - 2.0**-tau
            entries.append(ConverseEntry(float(tau), tail_f, rhs, lhs_val >= rhs - 1e-12))
    return ConverseCheck(n=int(n), k=k, scope=scope, lhs=float(lhs_val), entries=tuple(entries))


def _pow2_at_most(gap: Fraction, tau: Fraction) -> bool:
    """Whether gap <= 2^-tau, exactly, for rational tau > 0 and gap > 0."""
    num, den = tau.numerator, tau.denominator
    return gap**den * (1 << num) <= 1
