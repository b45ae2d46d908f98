"""Single-letter information measures of a conditional source.

Everything is in bits.  Two centerings appear and must not be mixed:

* per-``y``: moments of ``-log2 P(X|y)`` centered at ``H(X|y)``, used
  by reference-based (fixed side-information string) quantities;
* global: moments of ``-log2 P(X|Y)`` centered at ``H(X|Y)``, used by
  pair-averaged quantities.

The conditional varentropy decomposes as

    VAR[-log2 P(X|Y)] = E[V(Y)] + VAR[H(X|Y=y) as a function of Y],

where ``V(y)`` is the conditional varentropy given ``Y = y``.  The
right-hand terms are ``ev`` and ``var_hhat`` below; their gap against
the direct evaluation is enforced at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .models import CondIidModel, MarkovPairModel, Model, SideInfoString

# a variance at most this is zero: no normal approximation applies
VANISHING_VARIANCE = 1e-15


@dataclass(frozen=True)
class PerYProfile:
    """Per-symbol conditional measures, one entry per y-symbol."""

    h: np.ndarray        # H(X|y) in bits
    v: np.ndarray        # VAR[-log2 P(X|y) | Y=y]
    m3: np.ndarray       # E[|-log2 P(X|y) - H(X|y)|^3 | Y=y]


@dataclass(frozen=True)
class MeasureSet:
    """Pair-averaged measures of a conditionally i.i.d. model."""

    h_xy: float       # conditional entropy H(X|Y)
    h_x: float        # marginal entropy H(X)
    sigma2: float     # conditional varentropy VAR[-log2 P(X|Y)]
    ev: float         # E[V(Y)], the average per-symbol varentropy
    var_hhat: float   # VAR of the conditional entropy as a function of Y
    m3: float         # max over y of the per-y centered third moment
    mu3_pair: float   # globally centered third absolute moment
    psi2: float       # VAR[V(Y)]

    def as_dict(self) -> dict[str, float]:
        return {
            "h_xy": self.h_xy,
            "h_x": self.h_x,
            "sigma2": self.sigma2,
            "ev": self.ev,
            "var_hhat": self.var_hhat,
            "m3": self.m3,
            "mu3_pair": self.mu3_pair,
            "psi2": self.psi2,
            "dispersion_gap": self.sigma2 - self.ev,
        }


def _row_entropy(row: Sequence[float]) -> float:
    return math.fsum(-p * math.log2(p) for p in row if p > 0)


def _row_terms(row: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """(probability, information) pairs over the row's positive support.

    The per-symbol information is the correctly rounded double of
    ``-log2 p``; moment sums then run in exact rationals, so rows of
    constant information give exactly zero variance (no float dust).
    """
    return [(p, Fraction(-math.log2(p))) for p in row if p > 0]


def _row_moments(row: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    terms = _row_terms(row)
    h = sum(p * info for p, info in terms)
    v = sum(p * (info - h) ** 2 for p, info in terms)
    m3 = sum(p * abs(info - h) ** 3 for p, info in terms)
    return h, v, m3


def per_y_profile(model: CondIidModel) -> PerYProfile:
    """Conditional entropy, varentropy and third moment per y-symbol."""
    rows = model.p_x_given_y
    h = np.empty(len(rows))
    v = np.empty(len(rows))
    m3 = np.empty(len(rows))
    for j, row in enumerate(rows):
        hj, vj, mj = _row_moments(row)
        h[j] = float(hj)
        v[j] = float(vj)
        m3[j] = float(mj)
    return PerYProfile(h=h, v=v, m3=m3)


def measures(model: CondIidModel) -> MeasureSet:
    """All pair-averaged measures; needs the ``p_y`` marginal."""
    p_y = model.require_p_y()
    rows = model.p_x_given_y
    row_mom = [_row_moments(row) for row in rows]

    h_xy = sum(w * mom[0] for w, mom in zip(p_y, row_mom))
    p_x = [sum(w * row[i] for w, row in zip(p_y, rows))
           for i in range(len(model.x_alphabet))]
    h_x = _row_entropy(p_x)

    sigma2 = Fraction(0)
    mu3_pair = Fraction(0)
    for w, row in zip(p_y, rows):
        if w == 0:
            continue
        for p, info in _row_terms(row):
            dev = info - h_xy
            sigma2 += w * p * dev * dev
            mu3_pair += w * p * abs(dev) ** 3
    ev = sum(w * mom[1] for w, mom in zip(p_y, row_mom))
    var_hhat = sum(w * (mom[0] - h_xy) ** 2 for w, mom in zip(p_y, row_mom))
    # exact in rationals by construction; guard the float view anyway
    if abs(float(sigma2) - (float(ev) + float(var_hhat))) > 1e-12:
        raise RuntimeError(
            f"varentropy decomposition violated: {sigma2} vs {ev} + {var_hhat}"
        )
    psi2 = sum(w * (mom[1] - ev) ** 2 for w, mom in zip(p_y, row_mom))
    return MeasureSet(
        h_xy=float(h_xy),
        h_x=h_x,
        sigma2=float(sigma2),
        ev=float(ev),
        var_hhat=float(var_hhat),
        m3=max(float(mom[2]) for mom in row_mom),
        mu3_pair=float(mu3_pair),
        psi2=float(psi2),
    )


def h_n_sigma_n(model: CondIidModel, y: SideInfoString) -> tuple[float, float, bool]:
    """Empirical-frequency entropy and varentropy of a fixed y-string.

    Returns ``(h_n, sigma_n2, degenerate)`` where the first two average
    the per-symbol values under the string's composition and the flag
    marks a vanishing variance (normal approximations do not apply).
    """
    prof = per_y_profile(model)
    counts = y.counts()
    n = len(y)
    h_n = math.fsum(c * prof.h[a] for a, c in enumerate(counts) if c) / n
    sigma_n2 = math.fsum(c * prof.v[a] for a, c in enumerate(counts) if c) / n
    return h_n, sigma_n2, sigma_n2 <= VANISHING_VARIANCE


def m3_and_mu3(model: CondIidModel) -> tuple[float, float]:
    """Worst-case per-y third moment and the globally centered one.

    The first maximizes over every y-symbol row (a fixed y-string may
    use symbols of zero marginal probability), the second averages
    under the joint law and therefore needs ``p_y``.
    """
    prof = per_y_profile(model)
    return float(prof.m3.max()), measures(model).mu3_pair


def dispersion_gap(model: CondIidModel) -> float:
    """How much side-information variability adds to the dispersion.

    Equals ``VAR[H(X|Y=y)]``, the variance of the conditional entropy
    under ``p_y``; zero exactly when every y-row has the same entropy.
    """
    ms = measures(model)
    return ms.sigma2 - ms.ev


def cond_info_density(model: Model, x: Sequence[int], y: SideInfoString) -> float:
    """``-log2 P(x | y)`` in bits for equal-length strings.

    ``x`` is a sequence of x-alphabet indices.  Raises ``ValueError``
    when the pair has zero probability, the lengths differ or an index
    of ``x`` is outside the x-alphabet.
    """
    if len(x) != len(y):
        raise ValueError("x and y strings must have equal length")
    nx = len(model.x_alphabet)
    for xi in x:
        if not 0 <= xi < nx:
            raise ValueError(f"x has an index outside range({nx}): {xi}")
    if isinstance(model, CondIidModel):
        total = 0.0
        for xi, yi in zip(x, y.indices):
            p = model.cond_f[yi, xi]
            if p <= 0:
                raise ValueError("string pair has zero probability")
            total -= math.log2(p)
        return total
    return _markov_info_density(model, tuple(x), y)


def _markov_info_density(model: MarkovPairModel, x: tuple[int, ...], y: SideInfoString) -> float:
    joint_log = _y_marginal_log2(model, y.indices, x)
    if joint_log == -math.inf:
        raise ValueError("string pair has zero probability")
    y_log = _y_marginal_log2(model, y.indices)
    if y_log == -math.inf:
        raise ValueError("side-information string has zero probability")
    return y_log - joint_log


def _y_marginal_log2(
    model: MarkovPairModel, y: Sequence[int], x: Sequence[int] | None = None
) -> float:
    """log2 P(y_1^n): the x-string enumeration's forward pass with the
    states of equal context merged after each step, then scaled to sum 1
    (a scaled HMM forward pass).  With ``x``, log2 P(x_1^n, y_1^n): each
    step takes the one pair symbol ``x_t |Y| + y_t``, so one context has
    mass and each scale is exactly an initial or transition probability.
    """
    d = model.order
    if len(y) < d:
        raise ValueError(f"need length >= model order {d}")
    nctx = model.num_contexts
    xd, yd = model.pair_split(model._digits)
    head = (yd == y[:d]).all(axis=1)
    if x is not None:
        head &= (xd == x[:d]).all(axis=1)
    alpha = np.where(head, model.initial_f, 0.0)
    every = np.arange(nctx)
    nx = len(model.x_alphabet)
    total_log = 0.0
    for t in range(d, len(y) + 1):
        if t > d:
            weights, nxt = model._advance(alpha, every, y[t - 1], model.transition_f)
            if x is not None:
                weights, nxt = weights[x[t - 1]::nx], nxt[x[t - 1]::nx]
            alpha = np.bincount(nxt, weights=weights, minlength=nctx)
        scale = alpha.sum()
        if scale <= 0:
            return -math.inf
        total_log += math.log2(scale)
        alpha = alpha / scale
    return total_log


# a power of two, so that a uniform's grid cell floor(u * cells) is exact
_GUIDE_CELLS = 1024


def cdf_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums for inverse-CDF draws of ``u`` in [0, 1).

    Entries from each row's last positive probability on are exactly
    1.0, so rounding in the sums never sends a draw past the row's
    support, nor past its end.
    """
    cum = np.cumsum(probs, axis=-1)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(probs.shape[-1]) >= np.expand_dims(last, -1)] = 1.0
    return cum


def inverse_cdf_table(
    probs: np.ndarray,
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """The inverse-CDF draw over the rows of ``probs`` as a lookup table.

    Let ``levels`` be the sorted distinct values of ``cdf_rows(probs)``.
    The symbol a uniform ``u`` draws from row ``r``, ``(u > cum[r]).sum()``,
    depends on ``u`` only through ``p = searchsorted(levels, u,
    side="left")``: an entry of ``cum[r]`` lies below ``u`` exactly when it
    lies below ``levels[p]``.  ``sym[r, p]`` counts those entries, so a
    draw on a tie picks what the strict comparison picks.  Every row ends
    in 1.0, so ``u`` in [0, 1) has ``p < len(levels)``.

    ``position(u)`` gives ``p`` for an array of uniforms from a guide
    table (Chen and Asau, 1974): it starts at the number of levels below
    the grid cell ``floor(u * _GUIDE_CELLS)`` and steps over the levels
    of that cell below ``u``, one exact comparison per level of the
    fullest cell.  This avoids the branch misses of a binary search.
    """
    cum = cdf_rows(probs)
    levels = np.unique(cum)
    below = np.zeros((cum.shape[0], levels.size + 1), dtype=np.int64)
    np.add.at(below, (np.arange(cum.shape[0])[:, None],
                      np.searchsorted(levels, cum) + 1), 1)
    guide = np.searchsorted(levels, np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS)
    passes = int(np.diff(guide).max())

    def position(u: np.ndarray) -> np.ndarray:
        p = guide[(u * _GUIDE_CELLS).astype(np.intp)]
        for _ in range(passes):
            p += levels[p] < u
        return p

    return position, np.cumsum(below[:, :-1], axis=1)


def sample_cond_iid(
    model: CondIidModel, n: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``trials`` i.i.d. string pairs of length ``n``, seeded.

    Returns index arrays of shape ``(trials, n)`` for x and y.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    cum_y = cdf_rows(model.p_y_f)
    y = np.searchsorted(cum_y, rng.random((trials, n)), side="right")
    position, x_of = inverse_cdf_table(model.cond_f)
    x = x_of[y, position(rng.random((trials, n)))]
    return x, y.astype(np.int64)
