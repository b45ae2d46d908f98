"""Closed-form normal-approximation bounds on the optimal rate.

Each bound has the three-term core

    h + sqrt(sigma2 / n) * Q_inv(epsilon) - log2(n) / (2n)

with an explicit O(1/n) correction and an explicit threshold on n
beyond which it is proven; reports carry value, constants, threshold
and a validity flag (``n`` strictly above the threshold, epsilon in
the stated range, and a non-degenerate variance).

Rates and corrections are in bits; ``Q`` and ``phi`` are the standard
normal tail and density.  Entropy and variance inputs come from the
measure layer: reference-based bounds use the empirical per-string
values of a fixed y-string, pair-based bounds use the model averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .measures import h_n_sigma_n, measures, per_y_profile
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
    """One evaluated bound: its value, constants, and provenance.

    ``valid`` is True only when n exceeds the bound's own threshold
    and epsilon lies in the range the bound is proven for; the value
    is still reported otherwise (useful for plots, not guaranteed).
    """

    kind: str
    n: int
    epsilon: float
    value: float
    constants: dict[str, float]
    n_threshold: float
    valid: bool


def three_term_rate(h: float, sigma2: float, n: int, epsilon: float) -> float:
    """The shared normal-approximation core, in bits per symbol."""
    return h + math.sqrt(sigma2 / n) * Q_inv(epsilon) - math.log2(n) / (2.0 * n)


def _safe_div(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf
    return num / den


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
    return BoundReport(
        kind="ref_converse",
        n=n,
        epsilon=epsilon,
        value=value,
        constants={"h_n": h_n, "sigma_n2": sigma_n2, "m3": m3, "eta": eta},
        n_threshold=threshold,
        valid=(0.0 < epsilon < 0.5) and n > threshold,
    )


def ref_achievability(
    model: CondIidModel, y: SideInfoString, epsilon: float, prefix: bool = False
) -> BoundReport:
    """Upper bound on the optimal rate given the y-string (0 < eps <= 1/2).

    ``prefix=True`` gives the prefix-free variant, one extra bit in
    the O(1/n) correction.
    """
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
        return BoundReport(
            kind="ref_achiev_prefix" if prefix else "ref_achiev",
            n=n,
            epsilon=epsilon,
            value=math.inf,
            constants=constants,
            n_threshold=threshold,
            valid=False,
        )
    zeta = 6.0 * m3 / (sigma_n3 * phi(Q_inv(1.0 - arg))) + math.log2(
        LOG2E / math.sqrt(2.0 * math.pi * sigma_n2) + 12.0 * m3 / sigma_n3
    )
    if prefix:
        zeta += 1.0
    value = three_term_rate(h_n, sigma_n2, n, epsilon) + zeta / n
    constants["zeta_n"] = zeta
    return BoundReport(
        kind="ref_achiev_prefix" if prefix else "ref_achiev",
        n=n,
        epsilon=epsilon,
        value=value,
        constants=constants,
        n_threshold=threshold,
        valid=(0.0 < epsilon <= 0.5) and n > threshold,
    )


def _pair_inputs(model: CondIidModel) -> dict[str, float]:
    ms = measures(model)
    if ms.sigma2 <= 1e-15:
        raise DegenerateModelError("pair varentropy vanishes; normal bounds need sigma2 > 0")
    return ms.as_dict()


def pair_achievability(
    model: CondIidModel, n: int, epsilon: float, prefix: bool = False
) -> BoundReport:
    """Upper bound on the pair-averaged optimal rate (0 < eps <= 1/2).

    Needs both the varentropy and the average per-symbol varentropy to
    be positive.
    """
    ms = _pair_inputs(model)
    sigma2, vbar, psi2, m3, mu3 = (
        ms["sigma2"], ms["ev"], ms["psi2"], ms["m3"], ms["mu3_pair"],
    )
    if vbar <= 1e-15:
        raise DegenerateModelError(
            "average per-symbol varentropy vanishes; pair bound needs ev > 0"
        )
    a = Q_inv(epsilon)
    B = _safe_div(mu3, sigma2 * phi(a))
    C = math.log2(
        2.0 / math.sqrt(vbar) + 24.0 * m3 * (2.0 * math.pi) ** 1.5 / vbar**1.5
    ) + B
    if prefix:
        C += 1.0
    value = three_term_rate(ms["h_xy"], sigma2, n, epsilon) + C / n
    bracket = B * B / (2.0 * math.sqrt(2.0 * math.pi * math.e) * sigma2) + psi2 / (
        (1.0 - 1.0 / (2.0 * math.pi)) ** 2 * vbar * vbar
    )
    threshold = _safe_div(4.0 * sigma2, (B * phi(a)) ** 2) * bracket**2
    return BoundReport(
        kind="pair_achiev_prefix" if prefix else "pair_achiev",
        n=n,
        epsilon=epsilon,
        value=value,
        constants={
            "h_xy": ms["h_xy"], "sigma2": sigma2, "ev": vbar, "psi2": psi2,
            "m3": m3, "mu3_pair": mu3, "B": B, "C": C,
        },
        n_threshold=threshold,
        valid=(0.0 < epsilon <= 0.5) and n > threshold,
    )


def pair_converse(model: CondIidModel, n: int, epsilon: float) -> BoundReport:
    """Lower bound on the pair-averaged optimal rate (0 < eps < 1/2)."""
    ms = _pair_inputs(model)
    sigma2, mu3 = ms["sigma2"], ms["mu3_pair"]
    sigma = math.sqrt(sigma2)
    a = Q_inv(epsilon)
    c_prime = _safe_div(mu3 + 2.0 * sigma**3, 2.0 * sigma2 * phi(a))
    value = three_term_rate(ms["h_xy"], sigma2, n, epsilon) - c_prime / n
    threshold = _safe_div(c_prime * c_prime, 4.0 * a * a * sigma2)
    return BoundReport(
        kind="pair_converse",
        n=n,
        epsilon=epsilon,
        value=value,
        constants={
            "h_xy": ms["h_xy"], "sigma2": sigma2, "mu3_pair": mu3, "C_prime": c_prime,
        },
        n_threshold=threshold,
        valid=(0.0 < epsilon < 0.5) and n > threshold,
    )


def markov_bounds(
    analysis, n: int, epsilon: float, A: float
) -> tuple[BoundReport, BoundReport]:
    """Achievability and converse for a Markov pair source.

    ``analysis`` provides ``h_rate`` and ``sigma2_rate``; ``A`` is a
    caller-supplied Berry-Esseen constant for the chain's information
    density (these bounds are conditional on it).  The achievability
    correction has no ``-log2(n)/(2n)`` term; for 0 < eps < 1/2.
    """
    h = float(analysis.h_rate)
    sigma2 = float(analysis.sigma2_rate)
    if sigma2 <= 1e-15:
        raise DegenerateModelError("information-density variance rate vanishes")
    if not 0.0 < A < math.inf:
        raise ValueError(f"the Berry-Esseen constant must be finite and positive, got {A}")
    sigma = math.sqrt(sigma2)
    a = Q_inv(epsilon)
    pa = phi(a)
    core = h + sigma / math.sqrt(n) * a
    c_m = 2.0 * A * sigma / pa
    n_ach = _safe_div(2.0 * A * A, math.pi * math.e * pa**4)
    achiev = BoundReport(
        kind="markov_achiev",
        n=n,
        epsilon=epsilon,
        value=core + c_m / n,
        constants={"h_rate": h, "sigma2_rate": sigma2, "A": A, "C_m": c_m},
        n_threshold=n_ach,
        valid=(0.0 < epsilon < 0.5) and n > n_ach,
    )
    c_mp = sigma * (A + 1.0) / pa
    # a square by multiplication overflows to inf, not to an OverflowError
    n_conv = _safe_div((A + 1.0) * (A + 1.0), (a * pa) ** 2)
    conv = BoundReport(
        kind="markov_converse",
        n=n,
        epsilon=epsilon,
        value=core - math.log2(n) / (2.0 * n) - c_mp / n,
        constants={"h_rate": h, "sigma2_rate": sigma2, "A": A, "C_m_prime": c_mp},
        n_threshold=n_conv,
        valid=(0.0 < epsilon < 0.5) and n > n_conv,
    )
    return achiev, conv
