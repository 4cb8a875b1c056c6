"""Fully analytic bound quantities for the positive partial-transpose state.

This is the state built by :func:`cvwerner.states.ppt_werner`: the partial
transpose of the Werner state on the slice ``mu^2 = lam``,
``p = (1 - lam)/2``, which is positive semidefinite and hence a state in
its own right.  Its full spectrum is known in closed form,

    a_m = 2 N lam^(2m),   b_mn = 2 N lam^(m+n) (m > n),

with ``N = (1 - lam^2)(1 - lam)/2``, so every entropy is analytic or a
rapidly converging series.  The photon-counting upper bound collapses to
``lam ln 2``, stays finite as ``lam -> 1``, and coincides with the
measurement-induced disturbance.  :func:`bounds` is the one evaluator of
U, L, MID and H_eig(A|B).

A partial transpose keeps every ``<mn|rho|mn>``, so the direct H_eig(A|B)
cross-check and H(p_AB) are the Werner state's row and anti-diagonal sums
from :mod:`cvwerner.bounds` at ``p = (1 - lam)/2``, ``mu = sqrt(lam)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _conditional_entropy_direct, _joint_photon_entropy
from .fock import _check_square_size
from .states import _ppt_point, check_tolerance, check_unit, thermal_entropy


# The series need ever more terms as lam -> 1; beyond this many they
# raise instead of allocating.
MAX_SERIES_TERMS = 10**7
# Tolerance of the cross-checks against the direct series.
CHECK_TOL = 1e-8
# Default truncation tolerance of the series.
SERIES_TOL = 1e-10
# The direct H_eig(A|B) cross-check in ``bounds`` sums at most this many
# rows.  From lam = 0.997 on that misses mass and ``bounds`` raises
# ``SeriesCrossCheckError``; see the FOUND line on this cap in CHANGES.md.
DIRECT_SUM_ROWS = 6000


class SeriesCrossCheckError(ValueError):
    """Analytic expression and direct series evaluation disagree."""


def norm_const(lam: float) -> float:
    """Normalization N = (1 - lam^2)(1 - lam)/2."""
    check_unit("lam", lam, upper_open=True)
    return (1.0 - lam**2) * (1.0 - lam) / 2.0


def closed_form_spectrum(lam: float, n_max: int) -> np.ndarray:
    """Descending eigenvalues {a_m} + {b_mn, m > n} for indices below n_max,
    at most ``MAX_TWO_MODE_DIM``."""
    _check_square_size(n_max)
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
    check_tolerance("tol", tol)
    if lam == 0.0:
        return 2
    m = math.log(tol * (1.0 - lam) / scale) / math.log(lam)
    n_terms = max(4, math.ceil(m) + 2)
    if n_terms > MAX_SERIES_TERMS:
        raise ValueError(
            f"lam={lam} needs {n_terms} series terms, above the limit {MAX_SERIES_TERMS}"
        )
    return n_terms


def reduced_entropy(lam: float, tol: float = SERIES_TOL) -> float:
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


def bounds(lam: float, tol: float = SERIES_TOL) -> PptReport:
    """U = lam ln 2, L = S(rho_B) - S(rho) + ((1+lam)/2) S_th(sqrt(lam)),
    MID = H(p_AB) - S(rho) and H_eig = S(rho) - S(rho_B) + U, each entropy
    evaluated once.  H_eig is checked against the direct row sum of
    :mod:`cvwerner.bounds` over at most ``DIRECT_SUM_ROWS`` rows, and MID
    against U; a mismatch beyond ``CHECK_TOL`` raises
    ``SeriesCrossCheckError``."""
    norm = norm_const(lam)
    if lam == 0.0:
        return PptReport(lam, norm, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    s_g = global_entropy(lam)
    s_b = reduced_entropy(lam, tol)
    upper = lam * math.log(2.0)
    h_eig = s_g - s_b + upper
    w = _ppt_point(lam)
    n_rows = _series_length(lam, tol, 8.0 * norm * (1.0 + abs(math.log(norm))) / (1.0 - lam) ** 2)
    direct = _conditional_entropy_direct(w.p, w.lam, w.mu, min(n_rows, DIRECT_SUM_ROWS))
    if abs(h_eig - direct) > CHECK_TOL:
        raise SeriesCrossCheckError(
            f"analytic conditional entropy {h_eig!r} vs direct sum {direct!r} "
            f"differ by {abs(h_eig - direct):.3e}"
        )
    n_terms = _series_length(lam, tol, 8.0 * norm * (1.0 + abs(math.log(norm))) / (1.0 - lam))
    m = _joint_photon_entropy(w.p, w.lam, w.mu, n_terms) - s_g
    if abs(m - upper) > CHECK_TOL:
        raise SeriesCrossCheckError(f"MID series gives {m!r}, expected {upper!r}")
    return PptReport(
        lam=lam,
        norm_const=norm,
        entropy_global=s_g,
        entropy_reduced=s_b,
        conditional_entropy=h_eig,
        upper=upper,
        lower=s_b - s_g + (1.0 + lam) / 2.0 * thermal_entropy(math.sqrt(lam)),
        mid=m,
    )
