"""Fully analytic bound quantities for the positive partial-transpose state.

This is the state built by :func:`cvwerner.states.ppt_werner`: the partial
transpose of the Werner state on the slice ``mu^2 = lam``,
``p = (1 - lam)/2``, which is positive semidefinite and hence a state in
its own right.  Its full spectrum is known in closed form,

    a_m = 2 N lam^(2m),   b_mn = 2 N lam^(m+n) (m > n),

with ``N = (1 - lam^2)(1 - lam)/2``, so every entropy is analytic or a
rapidly converging series.  The photon-counting upper bound collapses to
``lam ln 2``, stays finite as ``lam -> 1``, and coincides with the
measurement-induced disturbance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import antidiagonal_entropy
from .states import check_unit, thermal_entropy


# The series need ever more terms as lam -> 1; beyond this many they
# raise instead of allocating.
MAX_SERIES_TERMS = 10**7
# Tolerance of the cross-checks against the direct series.
CHECK_TOL = 1e-8


class SeriesCrossCheckError(ValueError):
    """Analytic expression and direct series evaluation disagree."""


def norm_const(lam: float) -> float:
    """Normalization N = (1 - lam^2)(1 - lam)/2."""
    return (1.0 - lam**2) * (1.0 - lam) / 2.0


def closed_form_spectrum(lam: float, n_max: int) -> np.ndarray:
    """Descending eigenvalues {a_m} + {b_mn, m > n} for indices below n_max."""
    norm = norm_const(lam)
    powers = lam ** np.arange(n_max, dtype=float)
    a = 2.0 * norm * powers**2
    b = 2.0 * norm * np.outer(powers, powers)[np.triu_indices(n_max, 1)]
    return np.sort(np.concatenate([a, b]))[::-1]


def global_entropy(lam: float) -> float:
    """Closed-form global entropy -[ln(2N) + lam(1+3lam) ln(lam)/(1-lam^2)]."""
    check_unit("lam", lam, upper_open=True)
    if lam == 0.0:
        return 0.0
    return -(
        math.log(2.0 * norm_const(lam))
        + lam * (1.0 + 3.0 * lam) * math.log(lam) / (1.0 - lam**2)
    )


def _series_length(lam: float, tol: float, scale: float) -> int:
    # Geometric tail: scale * lam^M / (1 - lam) < tol.
    if lam == 0.0:
        return 2
    m = math.log(tol * (1.0 - lam) / scale) / math.log(lam)
    n_terms = max(4, math.ceil(m) + 2)
    if n_terms > MAX_SERIES_TERMS:
        raise ValueError(
            f"lam={lam} needs {n_terms} series terms, above the limit {MAX_SERIES_TERMS}"
        )
    return n_terms


def reduced_probabilities(lam: float, n_max: int) -> np.ndarray:
    """Photon-count weights p_B(m) = N lam^m (lam^m + 1/(1-lam))."""
    powers = lam ** np.arange(n_max, dtype=float)
    return norm_const(lam) * powers * (powers + 1.0 / (1.0 - lam))


def reduced_entropy(lam: float, tol: float = 1e-10) -> float:
    """Entropy of either reduced state, summed until the geometric tail
    bound drops below ``tol``."""
    check_unit("lam", lam, upper_open=True)
    if lam == 0.0:
        return 0.0
    norm = norm_const(lam)
    log_bound = abs(math.log(1.0 + 1.0 / (1.0 - lam)))
    n_terms = _series_length(lam, tol, 2.0 * norm * log_bound / (1.0 - lam))
    m = np.arange(n_terms, dtype=float)
    powers = lam**m
    series = float(
        (norm * (powers**2 + powers / (1.0 - lam)) * np.log(powers + 1.0 / (1.0 - lam))).sum()
    )
    return -(
        series
        + math.log(norm)
        + lam * (1.0 + 3.0 * lam) * math.log(lam) / (2.0 * (1.0 - lam**2))
    )


def conditional_entropy(lam: float, tol: float = 1e-10) -> float:
    """Photon-counting conditional entropy, analytically
    S(rho) - S(rho_B) + lam ln 2, cross-checked against the direct sum
    over post-measurement spectra."""
    if lam == 0.0:
        return 0.0
    analytic = global_entropy(lam) - reduced_entropy(lam, tol) + lam * math.log(2.0)
    norm = norm_const(lam)
    n_terms = _series_length(lam, tol, 8.0 * norm * (1.0 + abs(math.log(norm))) / (1.0 - lam) ** 2)
    n_terms = min(n_terms, 6000)
    powers = lam ** np.arange(n_terms, dtype=float)
    p_b = reduced_probabilities(lam, n_terms)
    direct = 0.0
    for m in range(n_terms):
        spec = norm * powers[m] * powers
        spec[m] += norm * powers[m] ** 2
        spec = spec / p_b[m]
        spec = spec[spec > 0.0]
        direct += p_b[m] * float(-(spec * np.log(spec)).sum())
        if p_b[m] < tol * 1e-3:
            break
    if abs(analytic - direct) > CHECK_TOL:
        raise SeriesCrossCheckError(
            f"analytic conditional entropy {analytic!r} vs direct sum {direct!r} "
            f"differ by {abs(analytic - direct):.3e}"
        )
    return analytic


def joint_distribution_entropy(lam: float, tol: float = 1e-10) -> float:
    """Shannon entropy of the photon-count statistics
    p(m, n) = N lam^(m+n) (1 + delta_mn); equals S(rho) + lam ln 2.

    The square table m, n < n_terms is summed by anti-diagonals s = m + n,
    whose off-diagonal entries are all N lam^s."""
    check_unit("lam", lam, upper_open=True)
    if lam == 0.0:
        return 0.0
    norm = norm_const(lam)
    n_terms = _series_length(lam, tol, 8.0 * norm * (1.0 + abs(math.log(norm))) / (1.0 - lam))
    s = np.arange(2 * n_terms - 1, dtype=float)
    entry = norm * np.exp(math.log(lam) * s)
    return antidiagonal_entropy(entry, 2.0 * entry[::2])


@dataclass(frozen=True)
class PptReport:
    """Bound quantities for the positive partial-transpose state."""

    lam: float
    norm_const: float
    entropy_global: float
    entropy_reduced: float
    conditional_entropy: float
    upper: float
    lower: float
    mid: float


def upper_bound(lam: float) -> float:
    """U = lam ln 2 exactly; tends to the finite value ln 2 as lam -> 1."""
    check_unit("lam", lam, upper_open=True)
    return lam * math.log(2.0)


def lower_bound(lam: float, tol: float = 1e-10) -> float:
    """L = S(rho_B) - S(rho) + ((1+lam)/2) S_th(sqrt(lam))."""
    if lam == 0.0:
        return 0.0
    return (
        reduced_entropy(lam, tol)
        - global_entropy(lam)
        + (1.0 + lam) / 2.0 * thermal_entropy(math.sqrt(lam))
    )


def mid(lam: float, tol: float = 1e-10) -> float:
    """Measurement-induced disturbance H(p_AB) - S(rho) = lam ln 2,
    verified against the direct series for H(p_AB)."""
    if lam == 0.0:
        return 0.0
    value = joint_distribution_entropy(lam, tol) - global_entropy(lam)
    if abs(value - lam * math.log(2.0)) > CHECK_TOL:
        raise SeriesCrossCheckError(
            f"MID series gives {value!r}, expected {lam * math.log(2.0)!r}"
        )
    return value


def bounds(lam: float, tol: float = 1e-10) -> PptReport:
    """All analytic bound quantities at one squeezing value."""
    return PptReport(
        lam=lam,
        norm_const=norm_const(lam),
        entropy_global=global_entropy(lam),
        entropy_reduced=reduced_entropy(lam, tol),
        conditional_entropy=conditional_entropy(lam, tol=tol),
        upper=upper_bound(lam),
        lower=lower_bound(lam, tol),
        mid=mid(lam, tol=tol),
    )
