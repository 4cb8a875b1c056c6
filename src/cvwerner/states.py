"""Constructors for the two-mode state families and truncation control.

The central family is the continuous-variable Werner state

    rho = p |psi(lam)><psi(lam)| + (1 - p) th(mu) (x) th(mu),

a two-mode squeezed vacuum (squeezing factor ``lam = tanh r``) mixed with a
product of thermal states.  Cutoffs are picked from closed-form geometric
tail bounds rather than trial and error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import OneModeState, TwoModeState

DEFAULT_EPS_TAIL = 1e-12


def check_unit(name: str, value: float, upper_open: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1], or in [0, 1)
    with ``upper_open``; NaN fails every comparison and is rejected."""
    inside = 0.0 <= value < 1.0 if upper_open else 0.0 <= value <= 1.0
    if not inside:
        raise ValueError(f"{name}={value} outside [0, 1{')' if upper_open else ']'}")


@dataclass(frozen=True)
class WernerParams:
    """Mixing probability ``p``, squeezing factor ``lam``, thermal factor ``mu``."""

    p: float
    lam: float
    mu: float = 0.0

    def __post_init__(self):
        check_unit("p", self.p)
        check_unit("lam", self.lam, upper_open=True)
        check_unit("mu", self.mu, upper_open=True)

    @property
    def r(self) -> float:
        """Squeezing parameter, lam = tanh(r)."""
        return float(np.arctanh(self.lam))


def _tail_bound(lam2: float, mu2: float, n: int) -> float:
    # Worst case over p of the truncated-trace deficit:
    # the squeezed component loses lam^(2n), the thermal product
    # 2 mu^(2n) - mu^(4n).
    return max(lam2**n, 2.0 * mu2**n - mu2 ** (2 * n))


def choose_cutoff(params: WernerParams, eps_tail: float = DEFAULT_EPS_TAIL) -> int:
    """Smallest ``n_max >= 2`` whose geometric tail bound is below ``eps_tail``.

    The bound covers every mixing probability, so states built at this
    cutoff have truncated-trace deficit below ``eps_tail``.
    """
    if eps_tail <= 0:
        raise ValueError("eps_tail must be positive")
    lam2, mu2 = params.lam**2, params.mu**2
    q = max(lam2, mu2)
    if q == 0.0:
        return 2
    n = max(2, math.ceil(math.log(eps_tail) / math.log(q)))
    while _tail_bound(lam2, mu2, n) >= eps_tail:
        n += 1
    while n > 2 and _tail_bound(lam2, mu2, n - 1) < eps_tail:
        n -= 1
    return n


def tmsv_vector(lam: float, n_max: int) -> np.ndarray:
    """Schmidt coefficients sqrt(1 - lam^2) lam^n of the two-mode squeezed vacuum."""
    check_unit("lam", lam, upper_open=True)
    return np.sqrt(1.0 - lam**2) * lam ** np.arange(n_max, dtype=float)


def _tmsv_ket(lam: float, n_max: int) -> np.ndarray:
    """The truncated two-mode squeezed vacuum as a flat two-mode vector."""
    vec = np.zeros(n_max * n_max)
    vec[np.arange(n_max) * (n_max + 1)] = tmsv_vector(lam, n_max)
    return vec


def tmsv(lam: float, n_max: int) -> TwoModeState:
    """Projector onto the two-mode squeezed vacuum, truncated at ``n_max``."""
    vec = _tmsv_ket(lam, n_max)
    return TwoModeState(n_max, np.outer(vec, vec))


def thermal(mu: float, n_max: int) -> OneModeState:
    """Thermal state diag((1 - mu^2) mu^(2n)); mean photon number mu^2/(1-mu^2)."""
    check_unit("mu", mu, upper_open=True)
    diag = (1.0 - mu**2) * mu ** (2 * np.arange(n_max, dtype=float))
    return OneModeState(n_max, np.diag(diag))


def thermal_entropy(mu: float) -> float:
    """Closed-form entropy of the thermal state, -ln(1-mu^2) - 2 mu^2 ln(mu)/(1-mu^2)."""
    check_unit("mu", mu, upper_open=True)
    if mu == 0.0:
        return 0.0
    return float(-np.log(1.0 - mu**2) - 2.0 * mu**2 * np.log(mu) / (1.0 - mu**2))


def werner(
    params: WernerParams, n_max: int | None = None, eps_tail: float = DEFAULT_EPS_TAIL
) -> TwoModeState:
    """Two-mode Werner state at the given cutoff (auto-chosen when omitted).

    The truncation is not renormalized, so the trace deficit stays a
    measure of the tail mass cut off.
    """
    if n_max is None:
        n_max = choose_cutoff(params, eps_tail)
    vec = _tmsv_ket(params.lam, n_max)
    proj = np.outer(vec, vec)
    th = thermal(params.mu, n_max).matrix
    rho = params.p * proj + (1.0 - params.p) * np.kron(th, th)
    return TwoModeState(n_max, rho)


def ppt_werner(
    lam: float, n_max: int | None = None, eps_tail: float = DEFAULT_EPS_TAIL
) -> TwoModeState:
    """Partially transposed Werner state that is itself a valid state.

    For squeezing factor ``mu^2 = lam`` and mixing probability
    ``p = (1 - lam) / 2`` the partial transpose of the Werner state is
    positive; its matrix is ``N sum lam^(m+n) (|n,m><m,n| + |m,n><m,n|)``
    with ``N = (1 - lam^2)(1 - lam)/2``.
    """
    check_unit("lam", lam, upper_open=True)
    if n_max is None:
        n_max = choose_cutoff(WernerParams((1.0 - lam) / 2.0, lam, math.sqrt(lam)), eps_tail)
    norm = (1.0 - lam**2) * (1.0 - lam) / 2.0
    powers = lam ** np.arange(n_max, dtype=float)
    weights = norm * np.outer(powers, powers)  # N lam^(m+n)
    dim = n_max * n_max
    rho = np.zeros((dim, dim))
    flat = np.arange(dim)
    rho[flat, flat] = weights.ravel()
    mm, nn = np.meshgrid(np.arange(n_max), np.arange(n_max), indexing="ij")
    rows = (nn * n_max + mm).ravel()
    cols = (mm * n_max + nn).ravel()
    rho[rows, cols] += weights.ravel()
    return TwoModeState(n_max, rho)
