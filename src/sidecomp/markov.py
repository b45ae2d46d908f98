"""Entropy and varentropy rates for Markov pair sources.

The per-string conditional information decomposes into a sum of a
block function f over sliding (d+1)-blocks of pair symbols plus a
boundary term bounded by a constant delta.  A block is an edge
(context, pair symbol) of the context chain: the entropy rate is the
stationary mean of f over the edges, and the variance rate solves a
Poisson equation on the context chain itself, |XY| times smaller than
the chain of blocks.  Monte Carlo helpers sample paths and probe how
fast the normalized conditional information approaches the Gaussian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .measures import VANISHING_VARIANCE, inverse_cdf_table
from .models import MARKOVIANITY_TOL, DerivedYChain, MarkovPairModel, _context_matrix, derive_y_chain

_STATIONARY_TOL = 1e-10
_ROW_SUM_TOL = 1e-12
# steps of uniforms drawn per generator call in the path walk
_DRAW_BLOCK = 16


@dataclass(frozen=True)
class ZChain:
    """First-order chain of overlapping (d+1)-blocks of pair symbols.

    Only blocks of positive stationary probability are retained, so
    ``stationary`` is strictly positive and ``f`` is finite on every
    state.
    """

    order: int
    states: tuple[tuple[int, ...], ...]
    transition: np.ndarray
    stationary: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        rows = np.abs(self.transition.sum(axis=1) - 1.0)
        if rows.max(initial=0.0) > _ROW_SUM_TOL:
            raise ValueError("block-chain transition rows do not sum to 1")
        gap = np.abs(self.stationary @ self.transition - self.stationary).sum()
        if gap > _STATIONARY_TOL:
            raise ValueError("block-chain stationary law fails pi P = pi")


@dataclass(frozen=True)
class MarkovAnalysis:
    """Rates and boundary constant of a Markov pair source.

    ``delta`` bounds the absolute gap between the conditional
    information of a length-n prefix and the n-window sum of f, for
    every positive-probability path and every n.  The rates are solved
    on the context chain; ``z_chain``, the chain of blocks, is built
    only when it is read.
    """

    h_rate: float
    sigma2_rate: float
    delta: float
    block_f: dict[tuple[int, ...], float]
    y_chain: DerivedYChain
    _model: MarkovPairModel = field(repr=False, compare=False)
    _f: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def z_chain(self) -> ZChain:
        """The chain of overlapping blocks, built on first read."""
        return _z_chain(self._model, self._f)


def _log2(a: np.ndarray) -> np.ndarray:
    """``math.log2`` of each entry, nan where not positive, one call per
    distinct value (``np.log2`` can round differently in the last place)."""
    vals = np.array(sorted(set(a.ravel().tolist())))
    logs = np.array([math.log2(v) if v > 0.0 else math.nan for v in vals.tolist()])
    return logs[np.searchsorted(vals, a)]


def _f_table(model: MarkovPairModel, y_chain: DerivedYChain) -> np.ndarray:
    """f of every edge (context, pair symbol) as in :func:`block_function`;
    nan where the pair transition or the derived y-transition is zero."""
    ny = len(model.y_alphabet)
    T = model.transition_f
    py = y_chain.transition[model._y_context[:, None], np.arange(T.shape[1]) % ny]
    return _log2(py) - _log2(T)


def _blocks(model: MarkovPairModel, ctx: np.ndarray, s: np.ndarray) -> list[tuple[int, ...]]:
    """The (d+1)-block of each edge: its context's symbols, then ``s``."""
    return list(map(tuple, np.column_stack([model._digits[ctx], s]).tolist()))


def _block_dict(model: MarkovPairModel, f: np.ndarray) -> dict[tuple[int, ...], float]:
    ctx, s = np.nonzero(~np.isnan(f))
    return dict(zip(_blocks(model, ctx, s), f[ctx, s].tolist()))


def block_function(
    model: MarkovPairModel, y_chain: DerivedYChain | None = None
) -> dict[tuple[int, ...], float]:
    """f over (d+1)-blocks of pair symbols, in bits.

    ``f(block) = log2 P_y(y_last | y-context) - log2 T(pair context,
    last pair)``; blocks whose pair transition is zero are omitted.
    """
    return _block_dict(model, _f_table(model, y_chain or derive_y_chain(model)))


def _edges(model: MarkovPairModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(context, pair symbol, mass) of the edges of positive stationary
    mass, in row-major order; the masses sum to 1."""
    pi_ctx = model.stationary_f
    T = model.transition_f
    ctx, s = np.nonzero((pi_ctx[:, None] > 0.0) & (T > 0.0))
    w = pi_ctx[ctx] * T[ctx, s]
    w /= w.sum()
    return ctx, s, w


def _z_chain(model: MarkovPairModel, f: np.ndarray) -> ZChain:
    ctx, s, pi = _edges(model)
    # state j = (ctx_j, s_j) follows state i when ctx_j is i's next context
    P = np.where(ctx == model._next_context[ctx, s][:, None],
                 model.transition_f[ctx, s], 0.0)
    return ZChain(order=model.order, states=tuple(_blocks(model, ctx, s)),
                  transition=P, stationary=pi, f=f[ctx, s])


def build_z_chain(
    model: MarkovPairModel, y_chain: DerivedYChain | None = None
) -> ZChain:
    """Overlapping-block chain restricted to positive stationary states."""
    return _z_chain(model, _f_table(model, y_chain or derive_y_chain(model)))


def _boundary_delta(model: MarkovPairModel, f: np.ndarray) -> float:
    """Bound on the boundary gap, first-block plus trailing-window parts.

    The gap depends only on the first d pair symbols (an initial
    information value, always nonnegative) and a signed sum of f over
    the last d windows; maximizing each part separately over
    positive-probability blocks bounds the gap for every n.
    """
    init = model.initial_f
    y_mass = np.bincount(model._y_context, weights=init)[model._y_context]
    t1_max = float(np.fmax.reduce(_log2(y_mass) - _log2(init), initial=0.0))

    # extreme sums of d consecutive f values from any positive-stationary
    # context: d passes over the edges add f in path order, and rounding
    # is monotone, so the extremes equal those of the paths bit for bit
    hi = np.where(model.stationary_f > 0.0, 0.0, -np.inf)
    lo = np.where(model.stationary_f > 0.0, 0.0, np.inf)
    for _ in range(model.order):
        new_hi, new_lo = np.full_like(hi, -np.inf), np.full_like(lo, np.inf)
        np.fmax.at(new_hi, model._next_context, hi[:, None] + f)
        np.fmin.at(new_lo, model._next_context, lo[:, None] + f)
        hi, lo = new_hi, new_lo
    return t1_max + max(max(0.0, float(hi.max())), -min(0.0, float(lo.min())))


def markov_rates(model: MarkovPairModel) -> MarkovAnalysis:
    """Entropy rate, varentropy rate (via the Poisson equation), delta.

    The variance rate is ``sum w fbar^2 + 2 sum w fbar g(next)`` over the
    edges of stationary mass w, ``fbar = f - h``, where g solves the
    Poisson equation of the context chain on its closed class,
    ``(I - P + 1 pi) g = r`` with ``r(c) = sum_s T(c, s) fbar(c, s)``:
    the chain of blocks' ``P g`` at an edge is g at its next context.
    """
    members = np.flatnonzero(model.stationary_f > 0.0)
    if model._structure[1] != 1:
        raise ValueError("pair context chain is periodic")
    y_chain = derive_y_chain(model)
    if y_chain.markovianity_defect > MARKOVIANITY_TOL:
        warnings.warn(
            "side-information marginal is not Markov at this order "
            f"(defect {y_chain.markovianity_defect:.3g}); rates describe "
            "the Markov approximation of the marginal",
            RuntimeWarning,
            stacklevel=2,
        )
    f = _f_table(model, y_chain)
    ctx, s, w = _edges(model)
    h = float(w @ f[ctx, s])
    fbar = f[ctx, s] - h
    r = np.bincount(ctx, weights=model.transition_f[ctx, s] * fbar,
                    minlength=model.num_contexts)
    A = np.eye(len(members)) - _context_matrix(model, members) + model.stationary_f[members]
    g = np.zeros(model.num_contexts)
    g[members] = np.linalg.solve(A, r[members])
    sigma2 = float(w @ (fbar * fbar) + 2.0 * (w @ (fbar * g[model._next_context[ctx, s]])))
    if sigma2 < 0.0:
        if sigma2 < -1e-10:
            raise RuntimeError("variance rate came out negative")
        sigma2 = 0.0
    return MarkovAnalysis(h_rate=h, sigma2_rate=sigma2,
                          delta=_boundary_delta(model, f),
                          block_f=_block_dict(model, f), y_chain=y_chain,
                          _model=model, _f=f)


def _initial_context_pmf(model: MarkovPairModel) -> np.ndarray:
    p = np.clip(model.initial_f, 0.0, None)
    return p / p.sum()


def simulate_pair(
    model: MarkovPairModel, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One pair path of length n as (x-index, y-index) arrays."""
    xs, ys = _simulate_paths(model, n, 1, np.random.default_rng(seed))
    return xs[0], ys[0]


def _walk(
    model: MarkovPairModel, position: Callable[[np.ndarray], np.ndarray],
    sym: np.ndarray, trials: int, steps: int, rng: np.random.Generator,
):
    """Inverse-CDF walk of the pair chain, vectorized over trials.

    ``position, sym = inverse_cdf_table(model.transition_f)``.  Yields the
    initial contexts, then for each of ``steps`` draws the cell
    ``ctx * sym.shape[1] + position(u)`` of the flattened ``sym`` that the
    draw lands in; the cell fixes the pair symbol drawn and the next
    context.  Its symbol is that of the per-step comparison
    ``(u > cdf_rows(transition_f)[ctx]).sum()``, ties included, so seeded
    walks are the same as with that comparison.  Uniforms come
    ``_DRAW_BLOCK`` steps at a time from one ``rng.random((b, trials))``
    call, which fills row by row, so the stream and the generator's final
    state do not depend on the block.  Every sampler reads this one walk.
    """
    width = sym.shape[1]
    next_base = (np.take_along_axis(model._next_context, sym, axis=1) * width).ravel()
    ctx = rng.choice(model.num_contexts, size=trials, p=_initial_context_pmf(model))
    yield ctx
    base = ctx * width
    for start in range(0, steps, _DRAW_BLOCK):
        for u in rng.random((min(_DRAW_BLOCK, steps - start), trials)):
            cell = base + position(u)
            yield cell
            base = next_base[cell]


def _simulate_paths(
    model: MarkovPairModel, n: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample pair paths, vectorized over trials; shape (trials, n)."""
    d = model.order
    ny = len(model.y_alphabet)
    position, table = inverse_cdf_table(model.transition_f)
    walk = _walk(model, position, table, trials, max(n - d, 0), rng)
    sym = np.empty((trials, n), dtype=np.int64)
    sym[:, :min(d, n)] = model._digits[next(walk)][:, :min(d, n)]
    for i, cell in enumerate(walk, d):
        sym[:, i] = table.flat[cell]
    return sym // ny, sym % ny


@dataclass(frozen=True)
class PathStatistics:
    """Sampled conditional informations and their window sums (bits)."""

    info: np.ndarray
    window_sum: np.ndarray


def sample_path_statistics(
    model: MarkovPairModel, n: int, trials: int, seed: int,
    analysis: MarkovAnalysis | None = None,
) -> PathStatistics:
    """Monte Carlo draws of -log2 P(x_1^n | y_1^n) and the n-window f-sum.

    The conditional information uses the chain rule through the
    derived y-chain; the window sum runs over a path extended by d
    extra symbols, so ``info - window_sum`` is exactly the boundary
    term that ``delta`` bounds.
    """
    if analysis is None:
        analysis = markov_rates(model)
    d = model.order
    ny = len(model.y_alphabet)
    if n < d:
        raise ValueError("need n >= order")
    init = _initial_context_pmf(model)
    y_context = model._y_context
    position, sym = inverse_cdf_table(model.transition_f)
    rows = np.arange(model.num_contexts)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lg_py = np.log2(analysis.y_chain.transition)
        lg_init = np.log2(init)
        lg_ymass = np.log2(np.bincount(y_context, weights=init))
        step_of = (lg_py[y_context[rows], sym % ny]
                   - np.log2(model.transition_f)[rows, sym]).ravel()

    walk = _walk(model, position, sym, trials, n, np.random.default_rng(seed))
    ctx = next(walk)
    info = lg_ymass[y_context[ctx]] - lg_init[ctx]
    window = np.zeros(trials)
    for i, cell in enumerate(walk, d):
        step = step_of[cell]
        window += step
        if i < n:
            info += step
    return PathStatistics(info=info, window_sum=window)


@dataclass(frozen=True)
class ProbeRow:
    n: int
    distance: float
    scaled: float


@dataclass(frozen=True)
class ProbeResult:
    """Gaussian-approach probe for the normalized conditional information.

    ``scaled = distance * sqrt(n)`` should stay bounded along the
    grid; ``a_hat`` is its maximum, the fitted constant.
    """

    rows: tuple[ProbeRow, ...]
    a_hat: float
    non_exploding: bool


def _kolmogorov_vs_gaussian(z: np.ndarray) -> float:
    z = np.sort(z)
    m = len(z)
    # numpy has no erfc: math.erfc over the array in one pass
    cdf = 0.5 * np.frompyfunc(math.erfc, 1, 1)(-z / math.sqrt(2.0)).astype(float)
    grid = np.arange(m + 1) / m
    return float(np.maximum(np.abs(cdf - grid[:-1]), np.abs(cdf - grid[1:])).max())


def berry_esseen_probe(
    model: MarkovPairModel, n_grid: list[int], trials: int, seed: int
) -> ProbeResult:
    """Kolmogorov distance to the Gaussian across a grid of lengths."""
    analysis = markov_rates(model)
    h, s2 = analysis.h_rate, analysis.sigma2_rate
    if s2 <= VANISHING_VARIANCE:
        raise ValueError("variance rate is degenerate; nothing to normalize")
    seeds = np.random.SeedSequence(seed).generate_state(len(n_grid))
    rows = []
    for n, sub in zip(n_grid, seeds):
        stats = sample_path_statistics(model, n, trials, int(sub), analysis)
        z = (stats.info - n * h) / math.sqrt(s2 * n)
        dist = _kolmogorov_vs_gaussian(z)
        rows.append(ProbeRow(n=n, distance=dist, scaled=dist * math.sqrt(n)))
    scaled = [r.scaled for r in rows]
    return ProbeResult(
        rows=tuple(rows),
        a_hat=max(scaled),
        non_exploding=max(scaled) <= 3.0 * min(scaled) + 1e-9,
    )
