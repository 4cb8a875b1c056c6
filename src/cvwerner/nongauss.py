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

import numpy as np

from . import exact, gaussian

EULER_GAMMA = 0.57721566490153286061


def covariance_cs(p: float, lam: float):
    """Diagonal C and correlation S entries of the covariance matrix."""
    c2r = (1.0 + lam**2) / (1.0 - lam**2)
    s2r = 2.0 * lam / (1.0 - lam**2)
    return p * c2r + (1.0 - p), p * s2r


def covariance_matrix(p: float, lam: float) -> np.ndarray:
    """4x4 covariance matrix of the vacuum Werner state (vacuum variance 1)."""
    c, s = covariance_cs(p, lam)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def symplectic_eigenvalue(p: float, lam: float) -> float:
    """Doubly degenerate symplectic eigenvalue of the covariance matrix,
    sqrt((1 - (1-2p)^2 lam^2) / (1 - lam^2)); equals 1 only at p in {0, 1}."""
    exact._check_domain(p, lam)
    return math.sqrt((1.0 - (1.0 - 2.0 * p) ** 2 * lam**2) / (1.0 - lam**2))


def gaussian_state_entropy(nu: float) -> float:
    """Total entropy of a two-mode Gaussian state with doubly degenerate
    symplectic eigenvalue nu."""
    if nu < 1.0 - 1e-12:
        raise ValueError(f"symplectic eigenvalue {nu} below 1")
    if nu - 1.0 < 1e-12:
        return 0.0
    return (nu + 1.0) * math.log((nu + 1.0) / 2.0) - (nu - 1.0) * math.log((nu - 1.0) / 2.0)


def nongaussianity(p: float, lam: float) -> float:
    """Relative entropy between the state and its Gaussian reference,
    S(tau) - S(rho); zero exactly at p in {0, 1}."""
    return gaussian_state_entropy(symplectic_eigenvalue(p, lam)) - exact.global_entropy(p, lam)


def nongaussianity_approx(p: float, lam: float) -> float:
    """Quadratic-order approximation of the non-Gaussianity for lam << 1."""
    if p == 0.0 or p == 1.0 or lam == 0.0:
        return 0.0
    return (p - 1.0) * p * lam**2 * (-1.0 + math.log(p * (1.0 - p)) + 2.0 * math.log(lam))


def gap_approx(p: float, lam: float) -> float:
    """Quadratic-order approximation of the measurement gap for lam << 1.

    Derived by expanding the conditional-entropy integrand at the homodyne
    end: gap ~ p(1-p) lam^2 [gamma - 1 + ln 2 - ln(p(1-p)) - 2 ln lam].
    """
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
    [ln(4/lam^2) + 1] / [ln(8/lam^2) + gamma - 1]; tends to 1 as lam -> 0."""
    return (math.log(4.0 / lam**2) + 1.0) / (
        math.log(8.0 / lam**2) + EULER_GAMMA - 1.0
    )


@dataclass(frozen=True)
class GapReport:
    """Non-Gaussianity, measurement gap, and their low-squeezing scaling."""

    p: float
    lam: float
    delta0: float
    gap: float
    gap_normalized: float
    ratio_low_squeezing: float
    delta0_approx: float
    gap_approx: float


def discord_gap(p: float, lam: float, eps_int: float = 1e-7) -> GapReport:
    """Gap between Gaussian and optimal discord with its scaling report.

    The gap is the minimized Gaussian conditional entropy itself;
    ``gap_normalized`` rescales it by the quadratic-order ratio so that it
    tracks the non-Gaussianity at low squeezing.  ``eps_int`` is the
    quadrature tolerance of :func:`cvwerner.gaussian.gaussian_discord`.
    """
    if p == 0.0 or p == 1.0 or lam == 0.0:
        gap = 0.0
    else:
        gap = gaussian.gaussian_discord(p, lam, eps_int=eps_int).conditional_entropy
    ratio = low_squeezing_ratio(lam) if lam > 0.0 else float("nan")
    return GapReport(
        p=p,
        lam=lam,
        delta0=nongaussianity(p, lam),
        gap=gap,
        gap_normalized=ratio * gap if lam > 0.0 else 0.0,
        ratio_low_squeezing=ratio,
        delta0_approx=nongaussianity_approx(p, lam),
        gap_approx=gap_approx(p, lam),
    )
