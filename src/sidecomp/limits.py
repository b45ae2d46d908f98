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
builders enumerate strings one by one into a single flat factor and
exist as independent oracles (they are also the only exact route for
Markov models).

Two evaluation tracks coexist:

* float: per-string probabilities as ``log2`` values (never as raw
  doubles, which underflow long before interesting blocklengths) with
  class counts kept as exact Python integers;
* exact: rational per-string probabilities, for small blocklengths,
  used as the ground truth the float track is tested against.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .models import CondIidModel, MarkovPairModel, Model, SideInfoString

MERGE_TOL = 1e-12
BRUTEFORCE_GUARD = 1 << 20
DEFAULT_CLASS_CAP = 10**8
# ranked classes whose exact counts are produced together
COUNT_CHUNK = 1 << 12


class GuardExceededError(ValueError):
    """An enumeration would exceed its configured size guard."""


@dataclass(frozen=True)
class RatePoint:
    """Optimal rate at one (n, epsilon): smallest k with overflow <= epsilon.

    ``eps_at_k_plus_1 <= epsilon < eps_at_k`` always holds (the second
    part vacuously when ``k == 0`` and epsilon is close to 1).
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
    probability ``nums[i] / den``.
    """

    lp: np.ndarray
    counts: np.ndarray          # object array of Python ints
    lc: np.ndarray
    nums: np.ndarray | None     # object array of Python ints
    den: int = 1


def _flat_factor(lp: np.ndarray, nums: list[int] | None = None, den: int = 1) -> _Factor:
    """One cell per string, as the brute-force builders enumerate them."""
    ones = np.ones(len(lp), dtype=object)
    nums_arr = None if nums is None else np.array(nums, dtype=object)
    return _Factor(lp, ones, np.zeros(len(lp)), nums_arr, den)


def _outer(arrays: list[np.ndarray], ufunc: np.ufunc) -> np.ndarray:
    """Flattened outer product of ``arrays`` under ``ufunc``, left to right."""
    return reduce(lambda a, b: ufunc.outer(a, b).ravel(), arrays)


class _Chunk(NamedTuple):
    """Exact data of ``COUNT_CHUNK`` consecutive ranked classes."""

    base: int                   # cumulative count before the chunk
    cum: list[int]              # cumulative count through each class
    base_mass: int              # exact track: count-weighted numerators before
    mass: list[int] | None      # ... and through each class
    nums: list[int] | None      # class numerators over the law's denominator


class _Split(NamedTuple):
    """The law's cells as pairs ``(a, i)``: ``a`` runs over the outer
    product of all factors but the last, ``i`` over the last factor in
    rank order, so the cells of one ``a`` ranked above any class form a
    prefix of ``i``."""

    lp: np.ndarray              # log2 probability of each a
    counts: list[int]           # string count of each a
    nums: list[int] | None      # exact track: numerator of each a
    mass: list[int] | None      # exact track: count times numerator of each a
    last_lp: np.ndarray         # last factor's log2p, best first
    last_neg: list[int] | None  # exact track: its numerators negated, ascending
    last_cum: list[int]         # its cumulative counts, from 0
    last_cum_mass: list[int] | None


class LengthLaw:
    """Ranked per-string probability classes with exact counts.

    The cells of the outer product of the factors are ranked once by
    decreasing probability (``log2p`` on the float track, integer
    numerators over a common denominator on the exact track) and
    grouped into classes of equal probability.  Exact class counts are
    produced ``COUNT_CHUNK`` classes at a time, only when a query needs
    them; the law keeps the cumulative count at the end of every chunk
    it produced or located, and the last chunk it produced.  A chunk's
    base is an exact dominance count over the last factor, so reaching
    a chunk never produces the chunks before it.  ``log2p`` may end
    with ``-inf`` for the zero-probability strings, which still occupy
    ranks.  ``counts`` sums to the total number of source strings.
    """

    def __init__(self, n: int, num_strings: int, factors: list[_Factor], exact: bool) -> None:
        self.n = n
        self.num_strings = num_strings
        self.exact = exact
        self._factors = factors
        self._shape = tuple(len(f.lp) for f in factors)
        lp = _outer([f.lp for f in factors], np.add)
        lc = _outer([f.lc for f in factors], np.add)
        self._den, self._total_num = 1, 0
        if exact:
            nums = _outer([f.nums for f in factors], np.multiply)
            keys = nums.tolist()
            order = np.array(sorted(range(len(keys)), key=keys.__getitem__, reverse=True),
                             dtype=np.intp)
            ranked = nums[order]
            new_class = (ranked[1:] != ranked[:-1]).astype(bool)
            self._den = math.prod(f.den for f in factors)
            self._total_num = math.prod(
                sum(map(operator.mul, f.nums.tolist(), f.counts.tolist())) for f in factors
            )
            lp = lp[order]
        else:
            order = np.argsort(-lp, kind="stable")
            lp = lp[order]
            with np.errstate(invalid="ignore"):
                new_class = np.abs(np.diff(lp)) > MERGE_TOL
        self._order = order
        self._starts = np.flatnonzero(np.concatenate(([True], new_class)))
        mass = np.add.reduceat(np.exp2(lp + lc[order]), self._starts)
        self._support = math.prod(sum(f.counts.tolist()) for f in factors)
        self.log2p = lp[self._starts]
        if num_strings > self._support:
            self.log2p = np.append(self.log2p, -math.inf)
            mass = np.append(mass, 0.0)
        suffix = np.zeros(len(mass) + 1)
        suffix[:-1] = mass[::-1].cumsum()[::-1]
        self.suffix_mass = suffix
        # chunk -> (cumulative count, count-weighted numerators) at its end
        self._ends: dict[int, tuple[int, int]] = {}
        self._last: tuple[int, _Chunk] | None = None
        self._split: _Split | None = None

    # -- exact counts, chunk by chunk --------------------------------------

    def _chunk(self, c: int) -> _Chunk:
        """Exact data of chunk ``c``."""
        if self._last is not None and self._last[0] == c:
            return self._last[1]
        starts = self._starts[c * COUNT_CHUNK:(c + 1) * COUNT_CHUNK + 1]
        end = int(starts[-1]) if len(starts) > COUNT_CHUNK else len(self._order)
        first = int(starts[0])
        heads = starts[:COUNT_CHUNK] - first
        cells = np.unravel_index(self._order[first:end], self._shape)
        counts = reduce(operator.mul, [f.counts[i] for f, i in zip(self._factors, cells)])
        class_counts = np.add.reduceat(counts, heads).tolist()
        base, base_mass = self._end(c - 1) if c else (0, 0)
        cum = list(accumulate(class_counts, initial=base))[1:]
        mass = nums = None
        if self.exact:
            nums = reduce(operator.mul, [f.nums[i[heads]] for f, i in zip(self._factors, cells)])
            nums = nums.tolist()
            mass = list(accumulate(map(operator.mul, nums, class_counts), initial=base_mass))[1:]
        chunk = _Chunk(base, cum, base_mass, mass, nums)
        self._ends[c] = (cum[-1], mass[-1] if mass else 0)
        self._last = (c, chunk)
        return chunk

    def _end(self, c: int) -> tuple[int, int]:
        """Cumulative count (and count-weighted numerators) through chunk ``c``."""
        if c not in self._ends:
            self._ends[c] = self._before(min((c + 1) * COUNT_CHUNK, len(self._starts)))
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
        if j == len(self._starts):
            return self._support, self._total_num
        s = self._split_tables()
        if self.exact:
            last = self._factors[-1]
            a, i = divmod(int(self._order[self._starts[j]]), len(last.lp))
            t = s.nums[a] * last.nums[i]
            # nA * nF > t  <=>  nF > t // nA  for integers, nA > 0
            lengths = [bisect_left(s.last_neg, -(t // v)) if v else 0 for v in s.nums]
            mass = sum(map(operator.mul, s.mass, map(s.last_cum_mass.__getitem__, lengths)))
        else:
            lengths = _prefix_lengths(s.lp, s.last_lp, self.log2p[j]).tolist()
            mass = 0
        return sum(map(operator.mul, s.counts, map(s.last_cum.__getitem__, lengths))), mass

    def _split_tables(self) -> _Split:
        """The (a, i) tables of :meth:`_before`, built on first use."""
        if self._split is None:
            *rest, last = self._factors
            lp, counts, nums = np.zeros(1), [1], [1]
            if rest:
                lp = _outer([f.lp for f in rest], np.add)
                counts = _outer([f.counts for f in rest], np.multiply).tolist()
                if self.exact:
                    nums = _outer([f.nums for f in rest], np.multiply).tolist()
            if self.exact:
                keys = last.nums.tolist()
                order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
            else:
                order = np.argsort(-last.lp, kind="stable")
            last_counts = last.counts[order].tolist()
            cum = list(accumulate(last_counts, initial=0))
            if not self.exact:
                self._split = _Split(lp, counts, None, None, last.lp[order], None, cum, None)
                return self._split
            last_nums = last.nums[order].tolist()
            self._split = _Split(
                lp, counts, nums, list(map(operator.mul, counts, nums)), last.lp[order],
                [-v for v in last_nums], cum,
                list(accumulate(map(operator.mul, last_counts, last_nums), initial=0)))
        return self._split

    def _class_of_rank(self, b: int) -> int:
        """Index of the class holding rank ``b``, 1 <= b <= num_strings."""
        if b > self._support:
            return len(self._starts)
        if self._last is not None and self._last[1].base < b <= self._last[1].cum[-1]:
            c = self._last[0]
        else:
            chunks = range(-(-len(self._starts) // COUNT_CHUNK))
            c = bisect_left(chunks, b, key=lambda c: self._end(c)[0])
        return c * COUNT_CHUNK + bisect_left(self._chunk(c).cum, b)

    def _class_data(self, j: int) -> tuple[int, int, int, int]:
        """Cumulative count before and through class ``j``; on the exact
        track also the count-weighted numerators before it and its numerator."""
        if j == len(self._starts):
            return self._support, self.num_strings, self._total_num, 0
        c, i = divmod(j, COUNT_CHUNK)
        ch = self._chunk(c)
        prev = ch.cum[i - 1] if i else ch.base
        if not self.exact:
            return prev, ch.cum[i], 0, 0
        return prev, ch.cum[i], ch.mass[i - 1] if i else ch.base_mass, ch.nums[i]

    # -- vectorized views --------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self.log2p)

    @property
    def cum_counts(self) -> list[int]:
        out: list[int] = []
        for c in range(-(-len(self._starts) // COUNT_CHUNK)):
            out += self._chunk(c).cum
        if self.num_strings > self._support:
            out.append(self.num_strings)
        return out

    @property
    def counts(self) -> list[int]:
        cum = self.cum_counts
        return [b - a for a, b in zip([0] + cum, cum)]

    @property
    def probs(self) -> list[Fraction] | None:
        if not self.exact:
            return None
        out = [Fraction(self._class_data(j)[3], self._den) for j in range(len(self._starts))]
        return out + [Fraction(0)] * (self.num_classes - len(out))

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
        if b <= 1:
            return self.total_mass()
        if b > self.num_strings:
            return 0.0
        j = self._class_of_rank(b)
        tail = float(self.suffix_mass[j + 1])
        d = self._class_data(j)[1] - b + 1
        lp = self.log2p[j]
        if d > 0 and lp > -math.inf:
            tail += 2.0 ** (math.log2(d) + lp)
        return tail

    def excess_at_rank_exact(self, b: int) -> Fraction:
        self._require_exact()
        if b <= 1:
            return self.total_mass_exact()
        if b > self.num_strings:
            return Fraction(0)
        prev, _, mass_before, num = self._class_data(self._class_of_rank(b))
        return Fraction(self._total_num - mass_before - num * (b - 1 - prev), self._den)

    def epsilon_star(self, k: int) -> float:
        """Overflow probability of the optimal code at k bits."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.excess_at_rank(1 << k)

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
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        b_min = self._mass_crossing_rank(epsilon)
        k = max(0, (b_min - 1).bit_length() - 1)
        return RatePoint(
            n=self.n,
            epsilon=epsilon,
            k=k,
            rate=k / self.n,
            eps_at_k=self.epsilon_star(k),
            eps_at_k_plus_1=self.epsilon_star(k + 1),
        )

    def _mass_crossing_rank(self, epsilon: float) -> int:
        """Smallest rank b with excess_at_rank(b) <= epsilon."""
        suffix = self.suffix_mass
        idx = int(np.searchsorted(-suffix, -epsilon, side="left"))
        if idx == 0:
            return 1
        j = idx - 1
        prev_cum, cum, _, _ = self._class_data(j)
        lp = self.log2p[j]
        if lp == -math.inf:
            return prev_cum + 1
        room = epsilon - float(suffix[j + 1])
        if room <= 0:
            return cum + 1
        offset = _floor_exp2(math.log2(room) - lp)
        return max(cum + 1 - offset, prev_cum + 1)


def _prefix_lengths(lp: np.ndarray, last_lp: np.ndarray, level: float) -> np.ndarray:
    """Per entry ``x`` of ``lp``, how many leading entries ``f`` of the
    descending ``last_lp`` satisfy ``(x + f) - level > MERGE_TOL``: the
    cells of a law ranked in classes before the class at ``level``."""
    size = len(last_lp)
    with np.errstate(invalid="ignore"):
        lengths = np.searchsorted(-last_lp, lp - level - MERGE_TOL)
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
    row = [1] * (n + 1)
    c = 1
    for i in range(n):
        c = c * (n - i) // (i + 1)
        row[i + 1] = c
    return row


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

    Only the support of the conditional row enters; strings using a
    zero-probability x-symbol make up the law's terminal zero class.
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
    nums = None
    if exact:
        nums = np.array([math.prod(a**k for a, k in zip(scaled, ks)) for ks in types],
                        dtype=object)
    lc = np.array([math.log2(c) for c in counts])
    return _Factor(lp, np.array(counts, dtype=object), lc, nums, den**count)


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
    if len(composition) != len(model.y_alphabet):
        raise ValueError("composition needs one count per y-symbol")
    n = sum(composition)
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    rows = [(model.p_x_given_y[a], c) for a, c in enumerate(composition) if c]
    cells = 1  # type classes of c positions over a support of s symbols
    for row, c in rows:
        s = sum(p > 0 for p in row)
        cells *= math.comb(c + s - 1, s - 1)
    if cells > class_cap:
        raise GuardExceededError(
            f"type-class count exceeds cap {class_cap} at composition {tuple(composition)}"
        )
    factors = [_symbol_factor(row, c, exact) for row, c in rows]
    return LengthLaw(n, len(model.x_alphabet) ** n, factors, exact)


# ---------------------------------------------------------------------------
# Brute-force oracles


def _bruteforce_cond_iid_exact(
    model: CondIidModel, y: SideInfoString
) -> tuple[list[int], int]:
    """Integer numerators of P(x|y) over a common denominator."""
    nums = [1]
    den = 1
    for yi in y.indices:
        row = model.p_x_given_y[yi]
        lcm = math.lcm(*(p.denominator for p in row))
        row_nums = [int(p.numerator * (lcm // p.denominator)) for p in row]
        den *= lcm
        nums = [a * b for a in nums for b in row_nums]
    return nums, den


def _exact_flat_factor(nums: list[int], den: int) -> _Factor:
    lp = np.array([math.log2(v) - math.log2(den) if v > 0 else -math.inf for v in nums])
    return _flat_factor(lp, nums, den)


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
    n = len(y)
    nx = len(model.x_alphabet)
    num_strings = nx**n
    if num_strings > guard:
        raise GuardExceededError(f"brute force needs |X|^n <= {guard}, got {num_strings}")
    if isinstance(model, CondIidModel):
        if exact:
            factor = _exact_flat_factor(*_bruteforce_cond_iid_exact(model, y))
        else:
            logp = np.zeros(1)
            for yi in y.indices:
                logp = (logp[:, None] + model.cond_log2[yi][None, :]).ravel()
            factor = _flat_factor(logp)
    else:
        factor = _markov_flat_factor(_markov_string_probs(model, y, exact), exact)[1]
        if factor is None:
            raise ValueError("side-information string has zero probability")
    return LengthLaw(n, num_strings, [factor], exact)


def _markov_string_probs(
    model: MarkovPairModel, y: SideInfoString, exact: bool
) -> np.ndarray:
    """Joint probabilities P(x, y) over all x-strings, y fixed, in product
    order of x; an object array of ``Fraction`` on the exact track."""
    d = model.order
    if len(y) < d:
        raise ValueError(f"need blocklength >= markov order {d}")
    if not exact:
        init, trans = model.initial_f, model.transition_f
    elif model.initial is None:
        raise ValueError("exact Markov enumeration needs an explicit rational initial law")
    else:
        init, trans = (np.array(t, dtype=object) for t in (model.initial, model.transition))
    ctx = model._head_contexts(y.indices)
    probs = init[ctx]
    for yt in y.indices[d:]:
        s, nxt = model._step(ctx, yt)
        probs, ctx = (probs[:, None] * trans[ctx][:, s]).ravel(), nxt.ravel()
    return probs


def _markov_flat_factor(
    joints: np.ndarray, exact: bool
) -> tuple[float | Fraction, _Factor | None]:
    """P(y), and the factor of P(x|y) over every x-string (None when
    P(y) = 0), from the joint probabilities P(x, y) with y fixed."""
    if exact:
        prob_y = sum(joints)
        if prob_y == 0:
            return prob_y, None
        lcm = math.lcm(*(p.denominator for p in joints))
        nums = [p.numerator * (lcm // p.denominator) for p in joints]
        return prob_y, _exact_flat_factor(nums, sum(nums))
    total = joints.sum()
    if total <= 0:
        return float(total), None
    with np.errstate(divide="ignore"):
        return float(total), _flat_factor(np.log2(joints) - math.log2(total))


# ---------------------------------------------------------------------------
# Public reference-based (fixed y) queries


def _resolve_method(model: Model, n: int, method: str) -> str:
    nx = len(model.x_alphabet)
    if method == "auto":
        if isinstance(model, MarkovPairModel):
            return "bruteforce"
        return "bruteforce" if nx**n <= BRUTEFORCE_GUARD else "typeclass"
    if method not in ("bruteforce", "typeclass"):
        raise ValueError(f"unknown method {method!r}")
    if method == "typeclass" and isinstance(model, MarkovPairModel):
        raise ValueError("type-class evaluation needs a conditionally i.i.d. model")
    return method


def _ref_law(
    model: Model,
    y: SideInfoString,
    method: str,
    exact: bool,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> LengthLaw:
    if _resolve_method(model, len(y), method) == "bruteforce":
        return length_law_bruteforce(model, y, exact=exact)
    return length_law_typeclass(model, y, exact=exact, class_cap=class_cap)


def epsilon_star_ref(
    model: Model,
    y: SideInfoString,
    k: int,
    method: str = "auto",
    exact: bool = False,
) -> float | Fraction:
    """Best overflow probability at k bits given the y-string."""
    law = _ref_law(model, y, method, exact)
    return law.epsilon_star_exact(k) if exact else law.epsilon_star(k)


def rate_star_ref(
    model: Model, y: SideInfoString, epsilon: float, method: str = "auto"
) -> RatePoint:
    """Best code rate at overflow budget epsilon, given the y-string."""
    law = _ref_law(model, y, method, exact=False)
    return law.rate_point(epsilon)


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


def _pair_method(model: Model, n: int, method: str) -> str:
    """Resolve the evaluation route for pair-averaged queries.

    ``auto`` prefers the brute-force oracle when the joint string
    enumeration fits its guard, otherwise the composition sweep.
    """
    if isinstance(model, MarkovPairModel):
        if method == "typeclass":
            raise ValueError("type-class evaluation needs a conditionally i.i.d. model")
        return "bruteforce"
    if method == "auto":
        joint = (len(model.x_alphabet) * len(model.y_alphabet)) ** n
        return "bruteforce" if joint <= BRUTEFORCE_GUARD else "typeclass"
    if method not in ("bruteforce", "typeclass"):
        raise ValueError(f"unknown method {method!r}")
    return method


def _pair_laws(
    model: Model, n: int, route: str, exact: bool, class_cap: int = DEFAULT_CLASS_CAP
) -> Iterator[tuple[float | Fraction, LengthLaw]]:
    """(weight, law) over y-compositions (type class) or y-strings (brute
    force); the overflow given y depends on y only through its composition."""
    ny = len(model.y_alphabet)
    if route == "typeclass":
        assert isinstance(model, CondIidModel)
        p_y = model.require_p_y()
        for comp in _compositions(n, ny):
            w = _composition_weight(p_y, comp, exact)
            if w != 0:
                yield w, length_law_typeclass(model, comp, exact=exact, class_cap=class_cap)
        return
    if (len(model.x_alphabet) * ny) ** n > BRUTEFORCE_GUARD:
        raise GuardExceededError(
            f"pair brute force needs (|X||Y|)^n <= {BRUTEFORCE_GUARD}"
        )
    if isinstance(model, CondIidModel):
        p_y = [p if exact else float(p) for p in model.require_p_y()]
    for ys in product(range(ny), repeat=n):
        y = SideInfoString(model.y_alphabet, ys)
        if isinstance(model, CondIidModel):
            w = math.prod(p_y[yi] for yi in ys)
            if w != 0:
                yield w, length_law_bruteforce(model, y, exact=exact)
            continue
        # one forward enumeration gives both P(y) and the law given y
        w, factor = _markov_flat_factor(_markov_string_probs(model, y, exact), exact)
        if factor is not None:
            yield w, LengthLaw(n, len(model.x_alphabet) ** n, [factor], exact)


@lru_cache(maxsize=128)
def _pair_curve_of_route(
    model: Model, n: int, route: str, exact: bool, class_cap: int
) -> tuple:
    kmax = (len(model.x_alphabet) ** n).bit_length()
    total: list = [Fraction(0) if exact else 0.0] * (kmax + 1)
    for w, law in _pair_laws(model, n, route, exact, class_cap):
        for k in range(kmax + 1):
            total[k] += w * (law.epsilon_star_exact(k) if exact else law.epsilon_star(k))
    return tuple(total)


def _pair_curve(
    model: Model, n: int, method: str, exact: bool, class_cap: int = DEFAULT_CLASS_CAP
) -> tuple:
    """Pair overflow curve over k = 0..kmax, the last entry 0.

    Memoized per (model, n, route, track): models are frozen, so a
    sweep of per-k point queries costs one sweep.
    """
    return _pair_curve_of_route(model, n, _pair_method(model, n, method), exact, class_cap)


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
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
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
        lhs_val: Fraction = sum((w * law.epsilon_star_exact(k) for w, law in laws), Fraction(0))
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
