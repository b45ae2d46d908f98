"""Closed-form normal-approximation bounds on the optimal rate.

Each bound has the three-term core

    h + sqrt(sigma2 / n) * Q_inv(epsilon) - log2(n) / (2n)

with an explicit O(1/n) correction and an explicit threshold on n.
A report carries the value, the constants and the threshold, and is
``valid`` when epsilon lies in the range the bound is proven for and n
lies strictly above the threshold; the value is reported either way
(useful for plots, not guaranteed).  The Markov bounds are moreover
conditional on the caller's Berry-Esseen constant and on a Markov
side-information marginal.  A variance at most
``measures.VANISHING_VARIANCE`` gives no report but a
``DegenerateModelError``.

Rates and corrections are in bits; ``Q`` and ``phi`` are the standard
normal tail and density.  Entropy and variance inputs come from the
measure layer: reference-based bounds use the empirical per-string
values of a fixed y-string, pair-based bounds use the model averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .measures import VANISHING_VARIANCE, MeasureSet, h_n_sigma_n, measures, per_y_profile
from .models import CondIidModel, SideInfoString

LOG2E = math.log2(math.e)


class DegenerateModelError(ValueError):
    """The relevant varentropy vanishes, so no normal bound applies."""


def Q(z: float) -> float:
    """Standard normal upper tail probability."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def phi(z: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def Q_inv(p: float) -> float:
    """Inverse of Q by monotone root-finding, |error| <= 1e-12.

    Bisection brackets the root, then Newton polishes; both use only
    the forward map, so this inverts exactly what ``Q`` computes.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("Q_inv needs p in (0, 1)")
    lo, hi = -40.0, 40.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if Q(mid) > p:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):
        d = phi(x)
        if d <= 0.0:
            break
        x += (Q(x) - p) / d
    return x


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its value, constants, and provenance."""

    kind: str
    n: int
    epsilon: float
    value: float
    constants: dict[str, float]
    n_threshold: float
    valid: bool


def three_term_rate(h: float, sigma2: float, n: int, epsilon: float) -> float:
    """The shared normal-approximation core, in bits per symbol."""
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    return h + math.sqrt(sigma2 / n) * Q_inv(epsilon) - math.log2(n) / (2.0 * n)


def _safe_div(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf
    return num / den


def _report(kind: str, n: int, epsilon: float, value: float, constants: dict[str, float],
            threshold: float, in_range: bool) -> BoundReport:
    """The one place a bound's validity is decided (see the module docstring)."""
    return BoundReport(kind, n, epsilon, value, constants, threshold, in_range and n > threshold)


def _ref_inputs(model: CondIidModel, y: SideInfoString) -> tuple[float, float, float]:
    h_n, sigma_n2, degenerate = h_n_sigma_n(model, y)
    if degenerate:
        raise DegenerateModelError(
            "the y-string's varentropy vanishes; normal bounds need sigma_n2 > 0"
        )
    m3 = float(per_y_profile(model).m3.max())
    return h_n, sigma_n2, m3


def ref_converse(model: CondIidModel, y: SideInfoString, epsilon: float) -> BoundReport:
    """Lower bound on the optimal rate given the y-string (0 < eps < 1/2)."""
    n = len(y)
    h_n, sigma_n2, m3 = _ref_inputs(model, y)
    sigma_n = math.sqrt(sigma_n2)
    a = Q_inv(epsilon)
    eta = _safe_div(sigma_n**3 + 6.0 * m3, phi(a) * sigma_n2)
    value = three_term_rate(h_n, sigma_n2, n, epsilon) - eta / n
    threshold = _safe_div((1.0 + 6.0 * m3 / sigma_n**3) ** 2, 4.0 * (a * phi(a)) ** 2)
    return _report("ref_converse", n, epsilon, value,
                   {"h_n": h_n, "sigma_n2": sigma_n2, "m3": m3, "eta": eta},
                   threshold, 0.0 < epsilon < 0.5)


def ref_achievability(
    model: CondIidModel, y: SideInfoString, epsilon: float, prefix: bool = False
) -> BoundReport:
    """Upper bound on the optimal rate given the y-string (0 < eps <= 1/2).

    ``prefix=True`` gives the prefix-free variant, one extra bit in
    the O(1/n) correction.
    """
    kind = "ref_achiev_prefix" if prefix else "ref_achiev"
    n = len(y)
    h_n, sigma_n2, m3 = _ref_inputs(model, y)
    sigma_n3 = sigma_n2 * math.sqrt(sigma_n2)
    a = Q_inv(epsilon)
    threshold = _safe_div(36.0 * m3 * m3, epsilon * epsilon * sigma_n2**3)
    shift = 6.0 * m3 / (math.sqrt(n) * sigma_n3)
    arg = (1.0 - epsilon) + shift
    constants = {"h_n": h_n, "sigma_n2": sigma_n2, "m3": m3}
    if arg >= 1.0:
        # only possible below the threshold; the correction is undefined
        return _report(kind, n, epsilon, math.inf, constants, threshold, False)
    zeta = 6.0 * m3 / (sigma_n3 * phi(Q_inv(1.0 - arg))) + math.log2(
        LOG2E / math.sqrt(2.0 * math.pi * sigma_n2) + 12.0 * m3 / sigma_n3
    )
    if prefix:
        zeta += 1.0
    value = three_term_rate(h_n, sigma_n2, n, epsilon) + zeta / n
    constants["zeta_n"] = zeta
    return _report(kind, n, epsilon, value, constants, threshold, 0.0 < epsilon <= 0.5)


def _pair_inputs(model: CondIidModel) -> MeasureSet:
    ms = measures(model)
    if ms.sigma2 <= VANISHING_VARIANCE:
        raise DegenerateModelError("pair varentropy vanishes; normal bounds need sigma2 > 0")
    return ms


def pair_achievability(
    model: CondIidModel, n: int, epsilon: float, prefix: bool = False
) -> BoundReport:
    """Upper bound on the pair-averaged optimal rate (0 < eps <= 1/2).

    Needs both the varentropy and the average per-symbol varentropy to
    be positive.
    """
    kind = "pair_achiev_prefix" if prefix else "pair_achiev"
    ms = _pair_inputs(model)
    if ms.ev <= VANISHING_VARIANCE:
        raise DegenerateModelError(
            "average per-symbol varentropy vanishes; pair bound needs ev > 0"
        )
    sigma2, vbar = ms.sigma2, ms.ev
    a = Q_inv(epsilon)
    B = _safe_div(ms.mu3_pair, sigma2 * phi(a))
    C = math.log2(
        2.0 / math.sqrt(vbar) + 24.0 * ms.m3 * (2.0 * math.pi) ** 1.5 / vbar**1.5
    ) + B
    if prefix:
        C += 1.0
    value = three_term_rate(ms.h_xy, sigma2, n, epsilon) + C / n
    bracket = B * B / (2.0 * math.sqrt(2.0 * math.pi * math.e) * sigma2) + ms.psi2 / (
        (1.0 - 1.0 / (2.0 * math.pi)) ** 2 * vbar * vbar
    )
    # a square by multiplication overflows to inf, not to an OverflowError
    threshold = _safe_div(4.0 * sigma2, (B * phi(a)) ** 2) * (bracket * bracket)
    constants = {"h_xy": ms.h_xy, "sigma2": sigma2, "ev": vbar, "psi2": ms.psi2,
                 "m3": ms.m3, "mu3_pair": ms.mu3_pair, "B": B, "C": C}
    return _report(kind, n, epsilon, value, constants, threshold, 0.0 < epsilon <= 0.5)


def pair_converse(model: CondIidModel, n: int, epsilon: float) -> BoundReport:
    """Lower bound on the pair-averaged optimal rate (0 < eps < 1/2)."""
    ms = _pair_inputs(model)
    sigma = math.sqrt(ms.sigma2)
    a = Q_inv(epsilon)
    c_prime = _safe_div(ms.mu3_pair + 2.0 * sigma**3, 2.0 * ms.sigma2 * phi(a))
    value = three_term_rate(ms.h_xy, ms.sigma2, n, epsilon) - c_prime / n
    threshold = _safe_div(c_prime * c_prime, 4.0 * a * a * ms.sigma2)
    constants = {"h_xy": ms.h_xy, "sigma2": ms.sigma2, "mu3_pair": ms.mu3_pair,
                 "C_prime": c_prime}
    return _report("pair_converse", n, epsilon, value, constants, threshold,
                   0.0 < epsilon < 0.5)


def markov_bounds(
    analysis, n: int, epsilon: float, A: float
) -> tuple[BoundReport, BoundReport]:
    """Achievability and converse for a Markov pair source.

    ``analysis`` provides ``h_rate`` and ``sigma2_rate``; ``A`` is a
    caller-supplied Berry-Esseen constant for the chain's information
    density.  The achievability correction has no ``-log2(n)/(2n)``
    term; both are for 0 < eps < 1/2.
    """
    h = float(analysis.h_rate)
    sigma2 = float(analysis.sigma2_rate)
    if sigma2 <= VANISHING_VARIANCE:
        raise DegenerateModelError("information-density variance rate vanishes")
    if not 0.0 < A < math.inf:
        raise ValueError(f"the Berry-Esseen constant must be finite and positive, got {A}")
    sigma = math.sqrt(sigma2)
    a = Q_inv(epsilon)
    pa = phi(a)
    core = h + sigma / math.sqrt(n) * a
    in_range = 0.0 < epsilon < 0.5
    c_m = 2.0 * A * sigma / pa
    n_ach = _safe_div(2.0 * A * A, math.pi * math.e * pa**4)
    achiev = _report("markov_achiev", n, epsilon, core + c_m / n,
                     {"h_rate": h, "sigma2_rate": sigma2, "A": A, "C_m": c_m},
                     n_ach, in_range)
    c_mp = sigma * (A + 1.0) / pa
    # a square by multiplication overflows to inf, not to an OverflowError
    n_conv = _safe_div((A + 1.0) * (A + 1.0), (a * pa) ** 2)
    conv = _report("markov_converse", n, epsilon, core - math.log2(n) / (2.0 * n) - c_mp / n,
                   {"h_rate": h, "sigma2_rate": sigma2, "A": A, "C_m_prime": c_mp},
                   n_conv, in_range)
    return achiev, conv
