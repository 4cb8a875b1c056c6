"""Constructors for the two-mode state families and truncation control.

The central family is the continuous-variable Werner state

    rho = p |psi(lam)><psi(lam)| + (1 - p) th(mu) (x) th(mu),

a two-mode squeezed vacuum (squeezing factor ``lam = tanh r``) mixed with a
product of thermal states.  Cutoffs are picked from closed-form geometric
tail bounds rather than trial and error.

The two-mode builders write only the nonzero entries of a state:
``werner`` those of the squeezed-vacuum projector, on the ``|k, k>``
indices, and the diagonal; ``ppt_werner`` the diagonal and the entries at
``(|n, m>, |m, n>)``.  Each entry comes from the same arithmetic as in the
dense matrix, and no ``n_max^2 x n_max^2`` array is formed.  The two-mode
squeezed vacuum is ``werner`` at ``p = 1``.  ``thermal`` returns its
one-mode state as a read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import TwoModeState, _check_count, _check_square_size, check_two_mode_cutoff

DEFAULT_EPS_TAIL = 1e-12


def check_unit(name: str, value: float, upper_open: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1], or in [0, 1)
    with ``upper_open``; NaN fails every comparison and is rejected."""
    inside = 0.0 <= value < 1.0 if upper_open else 0.0 <= value <= 1.0
    if not inside:
        raise ValueError(f"{name}={value} outside [0, 1{')' if upper_open else ']'}")


def check_tolerance(name: str, value: float) -> None:
    """Raise ``ValueError`` unless the tolerance ``value`` is finite and
    positive; NaN fails the comparison and is rejected."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name}={value} must be finite and positive")


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


def _smallest_below(bound, tol: float) -> int:
    """Smallest ``n >= 2`` with ``bound(n) < tol``, for a ``bound`` that does
    not grow with n and falls below ``tol`` somewhere: doubling brackets it
    and bisection finds it, in O(log n) evaluations."""
    lo, hi = 1, 2
    while not bound(hi) < tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def choose_cutoff(params: WernerParams, eps_tail: float = DEFAULT_EPS_TAIL) -> int:
    """Smallest ``n_max >= 2`` whose geometric tail bound
    ``max(lam^(2n), 2 mu^(2n) - mu^(4n))`` is below ``eps_tail``.

    The bound is the worst case over every mixing probability of the
    truncated-trace deficit: the squeezed component loses ``lam^(2n)``, the
    thermal product ``2 mu^(2n) - mu^(4n)``.  So states built at this
    cutoff have deficit below ``eps_tail``.  The bound is evaluated in
    floating point O(log n) times, at any ``eps_tail``, subnormal included.
    """
    check_tolerance("eps_tail", eps_tail)
    lam2, mu2 = params.lam**2, params.mu**2
    return _smallest_below(lambda n: max(lam2**n, 2.0 * mu2**n - mu2 ** (2 * n)), eps_tail)


def tmsv_vector(lam: float, n_max: int) -> np.ndarray:
    """Schmidt coefficients sqrt(1 - lam^2) lam^n of the two-mode squeezed vacuum."""
    _check_count(n_max, 1)
    check_unit("lam", lam, upper_open=True)
    return np.sqrt(1.0 - lam**2) * lam ** np.arange(n_max, dtype=float)


def _projector_entries(lam: float, n_max: int):
    """Rows, columns and values of the truncated two-mode squeezed vacuum
    projector, whose entries sit on the ``|k, k>`` indices only."""
    c = tmsv_vector(lam, n_max)
    kk = np.arange(n_max) * (n_max + 1)
    rows, cols = np.meshgrid(kk, kk, indexing="ij")
    return rows.ravel(), cols.ravel(), np.outer(c, c).ravel()


def _with_diagonal(n_max, diag, rows, cols, values):
    """The state with the full diagonal ``diag`` and the given off-diagonal entries."""
    flat = np.arange(n_max * n_max)
    return TwoModeState._from_entries(
        n_max, np.concatenate([flat, rows]), np.concatenate([flat, cols]), np.concatenate([diag, values])
    )


def thermal(mu: float, n_max: int) -> np.ndarray:
    """Thermal state diag((1 - mu^2) mu^(2n)) as a read-only ``n_max x n_max``
    array; mean photon number mu^2/(1-mu^2).  ``n_max`` is at most
    ``MAX_TWO_MODE_DIM``."""
    _check_square_size(n_max)
    check_unit("mu", mu, upper_open=True)
    diag = (1.0 - mu**2) * mu ** (2 * np.arange(n_max, dtype=float))
    matrix = np.diag(diag)
    matrix.flags.writeable = False
    return matrix


def thermal_entropy(mu: float) -> float:
    """Closed-form entropy of the thermal state, -ln(1-mu^2) - 2 mu^2 ln(mu)/(1-mu^2)."""
    check_unit("mu", mu, upper_open=True)
    if mu == 0.0:
        return 0.0
    return float(-np.log(1.0 - mu**2) - 2.0 * mu**2 * np.log(mu) / (1.0 - mu**2))


def werner(params: WernerParams, n_max: int | None = None) -> TwoModeState:
    """Two-mode Werner state at the given cutoff (auto-chosen when omitted).

    The truncation is not renormalized, so the trace deficit stays a
    measure of the tail mass cut off.
    """
    if n_max is None:
        n_max = choose_cutoff(params)
    check_two_mode_cutoff(n_max)
    rows, cols, proj = _projector_entries(params.lam, n_max)
    proj *= params.p
    # The thermal product is diagonal; the projector's own diagonal entries
    # are added to it, and its other entries stay as they are.
    th = np.diag(thermal(params.mu, n_max))
    diag = (1.0 - params.p) * np.kron(th, th)
    on = rows == cols
    diag[rows[on]] += proj[on]
    return _with_diagonal(n_max, diag, rows[~on], cols[~on], proj[~on])


def _ppt_point(lam: float) -> WernerParams:
    # The Werner state whose partial transpose is ppt_werner(lam).
    return WernerParams((1.0 - lam) / 2.0, lam, math.sqrt(lam))


def ppt_werner(lam: float, n_max: int | None = None) -> TwoModeState:
    """Partially transposed Werner state that is itself a valid state.

    For squeezing factor ``mu^2 = lam`` and mixing probability
    ``p = (1 - lam) / 2`` the partial transpose of the Werner state is
    positive; its matrix is ``N sum lam^(m+n) (|n,m><m,n| + |m,n><m,n|)``
    with ``N = (1 - lam^2)(1 - lam)/2``.
    """
    check_unit("lam", lam, upper_open=True)
    if n_max is None:
        n_max = choose_cutoff(_ppt_point(lam))
    check_two_mode_cutoff(n_max)
    norm = (1.0 - lam**2) * (1.0 - lam) / 2.0
    powers = lam ** np.arange(n_max, dtype=float)
    weights = norm * np.outer(powers, powers)  # N lam^(m+n)
    # Each weight sits on the diagonal at |m, n> and at (|n, m>, |m, n>);
    # for m = n both are the same diagonal entry, which gets twice the weight.
    diag = weights.ravel().copy()
    diag[np.arange(n_max) * (n_max + 1)] += np.diagonal(weights)
    mm, nn = np.meshgrid(np.arange(n_max), np.arange(n_max), indexing="ij")
    off = (mm != nn).ravel()
    rows = (nn * n_max + mm).ravel()[off]
    cols = (mm * n_max + nn).ravel()[off]
    return _with_diagonal(n_max, diag, rows, cols, weights.ravel()[off])
