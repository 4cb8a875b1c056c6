"""Entropic non-Gaussianity of the vacuum Werner state and the
measurement gap between Gaussian and optimal photon-counting extraction.

The non-Gaussianity is the relative entropy to the Gaussian state with the
same first and second moments, which reduces to an entropy difference
``delta0 = S(tau) - S(rho)``.  The gap ``gap = D_gaussian - D`` equals the
minimized Gaussian conditional entropy, so it is computed directly from
the quadrature rather than as a difference of discords (avoiding
cancellation); the difference-of-discords route stays available as a
cross-check through :func:`cvwerner.gaussian.gaussian_discord`.

At low squeezing both quantities shrink like ``lam^2 ln lam`` and their
ratio approaches 1; :func:`low_squeezing_ratio` gives the quadratic-order
prediction for the ratio at ``p = 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exact, gaussian
from .states import WernerParams, check_unit

EULER_GAMMA = 0.57721566490153286061


def _symplectic_excess(p: float, lam: float):
    """The symplectic eigenvalue nu and nu - 1, formed as
    (nu^2 - 1) / (nu + 1) with nu^2 - 1 = 4p(1-p) lam^2 / ((1 - lam)(1 + lam)),
    so that it keeps its relative precision at weak squeezing and near
    lam = 1."""
    WernerParams(p, lam)
    nu_sq_m1 = 4.0 * p * (1.0 - p) * lam**2 / ((1.0 - lam) * (1.0 + lam))
    nu = math.sqrt(1.0 + nu_sq_m1)
    return nu, nu_sq_m1 / (nu + 1.0)


def _entropy_from_excess(eps: float) -> float:
    """Entropy 2[(1 + eps) ln(1 + eps) - eps ln eps] of a two-mode Gaussian
    state with doubly degenerate symplectic eigenvalue 1 + 2 eps, formed as
    2[ln(1 + eps) + eps ln(1 + 1/eps)], whose two terms do not cancel at
    large eps; 0 at eps = 0."""
    if eps == 0.0:
        return 0.0
    # Below 1, ln(1 + 1/eps) = ln(1 + eps) - ln eps adds two positive terms
    # and, unlike 1/eps, does not overflow at subnormal eps.
    if eps < 1.0:
        return 2.0 * (math.log1p(eps) + eps * (math.log1p(eps) - math.log(eps)))
    return 2.0 * (math.log1p(eps) + eps * math.log1p(1.0 / eps))


def symplectic_eigenvalue(p: float, lam: float) -> float:
    """Doubly degenerate symplectic eigenvalue of the covariance matrix,
    sqrt((1 - (1-2p)^2 lam^2) / (1 - lam^2)); equals 1 only at p in {0, 1}."""
    return _symplectic_excess(p, lam)[0]


def gaussian_state_entropy(nu: float) -> float:
    """Total entropy of a two-mode Gaussian state with doubly degenerate
    symplectic eigenvalue nu, finite and at least 1 up to 1e-12."""
    if not 1.0 - 1e-12 <= nu < math.inf:
        raise ValueError(f"symplectic eigenvalue {nu} outside [1, inf)")
    return _entropy_from_excess(max(nu - 1.0, 0.0) / 2.0)


def _reference_entropy(p: float, lam: float) -> float:
    """Entropy S(tau) of the state's Gaussian reference, from nu - 1 rather
    than from nu, whose rounding would dominate at weak squeezing."""
    return _entropy_from_excess(_symplectic_excess(p, lam)[1] / 2.0)


def nongaussianity(p: float, lam: float) -> float:
    """Relative entropy between the state and its Gaussian reference,
    S(tau) - S(rho); zero exactly at p in {0, 1}."""
    return _reference_entropy(p, lam) - exact.global_entropy(p, lam)


def nongaussianity_approx(p: float, lam: float) -> float:
    """Quadratic-order approximation of the non-Gaussianity for lam << 1."""
    WernerParams(p, lam)
    if p == 0.0 or p == 1.0 or lam == 0.0:
        return 0.0
    return (p - 1.0) * p * lam**2 * (-1.0 + math.log(p * (1.0 - p)) + 2.0 * math.log(lam))


def gap_approx(p: float, lam: float) -> float:
    """Quadratic-order approximation of the measurement gap for lam << 1.

    Derived by expanding the conditional-entropy integrand at the homodyne
    end: gap ~ p(1-p) lam^2 [gamma - 1 + ln 2 - ln(p(1-p)) - 2 ln lam].
    """
    WernerParams(p, lam)
    if p == 0.0 or p == 1.0 or lam == 0.0:
        return 0.0
    return (
        p
        * (1.0 - p)
        * lam**2
        * (EULER_GAMMA - 1.0 + math.log(2.0) - math.log(p * (1.0 - p)) - 2.0 * math.log(lam))
    )


def low_squeezing_ratio(lam: float) -> float:
    """Quadratic-order ratio of non-Gaussianity to gap at p = 1/2,
    [ln(4/lam^2) + 1] / [ln(8/lam^2) + gamma - 1]; tends to 1 as lam -> 0,
    which is its value at lam = 0.  The logs are taken as ln 4 - 2 ln lam and
    ln 8 - 2 ln lam, since lam^2 underflows below about 1.5e-162."""
    check_unit("lam", lam, upper_open=True)
    if lam == 0.0:
        return 1.0
    log_lam2 = 2.0 * math.log(lam)
    return (math.log(4.0) - log_lam2 + 1.0) / (math.log(8.0) - log_lam2 + EULER_GAMMA - 1.0)


@dataclass(frozen=True)
class GapReport:
    """Non-Gaussianity, measurement gap, and their low-squeezing scaling,
    in the order the CLI prints them."""

    p: float
    lam: float
    delta0: float
    gap: float
    gap_normalized: float
    ratio_low_squeezing: float
    delta0_approx: float
    gap_approx: float


def discord_gap(p: float, lam: float) -> GapReport:
    """Gap between Gaussian and optimal discord with its scaling report.

    The gap is the minimized Gaussian conditional entropy itself, from
    :func:`cvwerner.gaussian.gaussian_discord` on its default rule;
    ``gap_normalized`` rescales it by the quadratic-order ratio so that it
    tracks the non-Gaussianity at low squeezing.  At p in {0, 1} and at
    lam = 0 the scan itself gives a gap of exactly 0.
    """
    gap = gaussian.gaussian_discord(p, lam).conditional_entropy
    ratio = low_squeezing_ratio(lam)
    return GapReport(
        p=p,
        lam=lam,
        delta0=nongaussianity(p, lam),
        gap=gap,
        gap_normalized=ratio * gap,
        ratio_low_squeezing=ratio,
        delta0_approx=nongaussianity_approx(p, lam),
        gap_approx=gap_approx(p, lam),
    )
