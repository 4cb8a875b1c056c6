"""Upper and lower bounds on discord for general two-mode Werner states.

Photon counting in the local eigenbasis gives a nonoptimized upper bound

    U = S(rho_B) - S(rho) + H_eig(A|B),

which coincides with the measurement-induced disturbance; a concavity
argument gives the lower bound L = S(rho_B) - S(rho) + (1-p) S_th(mu).
Whether U is tight away from mu = 0 is open, so nothing here labels U as
the discord itself.

The global entropy never needs the full two-mode matrix: the state splits
into an analytic branch of product-basis eigenvalues and a correlated
block whose n_max x n_max matrix is diagonalized numerically.  A report
evaluates each of S(rho_B), S(rho), H_eig(A|B) and H(p_AB) once per point,
the last summed by anti-diagonals of the photon-count table, and checks
MID = U on those values; ``upper_bound``, ``lower_bound`` and
``mid`` each read one field of that report.  Dense matrix-based twins of
U and MID (``*_dense``) serve as oracles for arbitrary states with
diagonal marginals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    MAX_TWO_MODE_DIM,
    TwoModeState,
    antidiagonal_entropy,
    eig_spectrum,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
    xlogx,
)
from .states import WernerParams, check_unit, choose_cutoff, thermal_entropy

# Tolerance of the internal identities: eigenvalue branches sum to 1,
# closed-form = direct conditional entropy, and MID = U.
IDENTITY_TOL = 1e-8
# Photon counts less likely than this carry no conditional state.
WEIGHT_FLOOR = 1e-16


class TruncationError(ValueError):
    """An internal identity failed, signaling an inconsistent truncation."""


def reduced_spectrum(p: float, lam: float, mu: float, n_max: int) -> np.ndarray:
    """Eigenvalues g_m = p(1-lam^2)lam^(2m) + (1-p)(1-mu^2)mu^(2m) of either
    reduced state (diagonal in the Fock basis)."""
    WernerParams(p, lam, mu)
    m = np.arange(n_max, dtype=float)
    return p * (1.0 - lam**2) * lam ** (2 * m) + (1.0 - p) * (1.0 - mu**2) * mu ** (2 * m)


def marginal_entropy(p: float, lam: float, mu: float, n_max: int) -> float:
    """Entropy of the reduced state from its truncated spectrum."""
    return von_neumann_entropy(reduced_spectrum(p, lam, mu, n_max))


def _conditional_entropy_direct(p, lam, mu, n_max):
    g = reduced_spectrum(p, lam, mu, n_max)
    eta = joint_photon_distribution(p, lam, mu, n_max)
    keep = g > WEIGHT_FLOOR
    eta = eta[keep] / g[keep, None]
    return float((g[keep] * -(xlogx(eta).sum(axis=1))).sum())


def _conditional_entropy_closed(p, lam, mu, n_max):
    # Per-m entropy in closed form: the off-diagonal thermal tail is summed
    # analytically, only the count-m term is left explicit.  Only counts
    # with g_m > WEIGHT_FLOOR are evaluated: at large cutoffs g_m underflows
    # to 0, and the terms below divide by it.
    g = reduced_spectrum(p, lam, mu, n_max)
    keep = g > WEIGHT_FLOOR
    g = g[keep]
    m = np.arange(n_max, dtype=float)[keep]
    one = 1.0 - mu**2
    k = (1.0 - p) * one**2 * mu ** (2 * m) / g
    eta_mm = (p * (1.0 - lam**2) * lam ** (2 * m) + (1.0 - p) * one**2 * mu ** (4 * m)) / g
    log_c = np.log((1.0 - p) * one**2 / g)
    tail = log_c * (1.0 / one - mu ** (2 * m)) + np.log(mu**2) * (
        m / one + mu**2 / one**2 - 2.0 * m * mu ** (2 * m)
    )
    per_m = -k * tail - xlogx(eta_mm)
    return float((g * per_m).sum())


def _conditional_tail_bound(p, lam, mu, n_max):
    # S(rho_A|m) <= ln 2 + S_th(mu) for every m, and the missing weight is
    # the geometric tail of g.
    weight_tail = p * lam ** (2 * n_max) + (1.0 - p) * mu ** (2 * n_max)
    return (np.log(2.0) + thermal_entropy(mu)) * weight_tail


def conditional_entropy_photon_counting(p: float, lam: float, mu: float, n_max: int) -> float:
    """Conditional entropy after photon counting on one mode,
    ``sum_m p_B(m) S(rho_A|m)``.

    Evaluated twice, from the closed per-m expression and from the raw
    conditional spectra; a mismatch beyond ``IDENTITY_TOL`` raises
    ``TruncationError``.  At ``mu = 0`` or ``p = 1`` every conditional
    state is pure and the result is exactly zero.
    """
    WernerParams(p, lam, mu)
    if mu == 0.0 or p == 1.0:
        return 0.0
    closed = _conditional_entropy_closed(p, lam, mu, n_max)
    direct = _conditional_entropy_direct(p, lam, mu, n_max)
    if abs(closed - direct) > IDENTITY_TOL:
        raise TruncationError(
            f"closed-form vs direct conditional entropy differ by "
            f"{abs(closed - direct):.3e} (> {IDENTITY_TOL:g}) at n_max={n_max}"
        )
    return closed


def _check_square_size(n_max):
    if n_max > MAX_TWO_MODE_DIM:
        raise ValueError(
            f"cutoff n_max={n_max} exceeds the limit {MAX_TWO_MODE_DIM} "
            f"on dense n_max x n_max tables"
        )


def correlated_block(p: float, lam: float, mu: float, n_max: int) -> np.ndarray:
    """The n_max x n_max matrix whose eigenvalues are the non-analytic part
    of the global spectrum."""
    WernerParams(p, lam, mu)
    _check_square_size(n_max)
    powers = lam ** np.arange(n_max, dtype=float)
    block = p * (1.0 - lam**2) * np.outer(powers, powers)
    idx = np.diag_indices(n_max)
    block[idx] += (1.0 - p) * (1.0 - mu**2) ** 2 * mu ** (4 * np.arange(n_max, dtype=float))
    return block


def global_entropy(p: float, lam: float, mu: float, n_max: int) -> float:
    """Global entropy from the analytic product-basis branch plus the
    numerically diagonalized correlated block.

    Raises ``TruncationError`` when the two eigenvalue branches fail to sum
    to 1 within ``IDENTITY_TOL``.
    """
    WernerParams(p, lam, mu)
    if mu == 0.0 or p == 1.0:
        branch_sum = 0.0
        branch_entropy = 0.0
    else:
        branch_sum = 2.0 * mu**2 * (1.0 - p) / (1.0 + mu**2)
        branch_entropy = -branch_sum * (
            np.log((1.0 - p) * (1.0 - mu**2) ** 2)
            + 2.0 * np.log(mu) * (1.0 + mu**2 + 2.0 * mu**4) / (1.0 - mu**4)
        )
    block = correlated_block(p, lam, mu, n_max)
    f = np.linalg.eigvalsh(block)
    total = branch_sum + float(f.sum())
    if abs(total - 1.0) > IDENTITY_TOL:
        raise TruncationError(
            f"eigenvalue branches sum to {total!r} (off by {total - 1.0:.3e} "
            f"> {IDENTITY_TOL:g}); increase n_max={n_max}"
        )
    return float(branch_entropy) + von_neumann_entropy(f)


def joint_photon_distribution(p: float, lam: float, mu: float, n_max: int) -> np.ndarray:
    """Photon-count statistics p(m, n) of the Werner state, in closed form."""
    WernerParams(p, lam, mu)
    _check_square_size(n_max)
    m = np.arange(n_max, dtype=float)
    table = (1.0 - p) * (1.0 - mu**2) ** 2 * mu ** (2.0 * np.add.outer(m, m))
    table[np.diag_indices(n_max)] += p * (1.0 - lam**2) * lam ** (2 * m)
    return table


def _joint_photon_entropy(p, lam, mu, n_max):
    # H(p_AB) of joint_photon_distribution without building it: off the
    # diagonal the table depends on m + n only.  The entries are formed
    # with the table's own arithmetic.
    s = np.arange(2 * n_max - 1, dtype=float)
    entry = (1.0 - p) * (1.0 - mu**2) ** 2 * mu ** (2.0 * s)
    m = np.arange(n_max, dtype=float)
    return antidiagonal_entropy(entry, entry[::2] + p * (1.0 - lam**2) * lam ** (2 * m))


def upper_bound(p: float, lam: float, mu: float, n_max: int) -> float:
    """Photon-counting upper bound U = S(rho_B) - S(rho) + H_eig(A|B)."""
    return bounds_report(WernerParams(p, lam, mu), n_max).upper


def lower_bound(p: float, lam: float, mu: float, n_max: int) -> float:
    """Concavity lower bound L = S(rho_B) - S(rho) + (1-p) S_th(mu).

    Reported signed; it may be negative (clip for plotting)."""
    return bounds_report(WernerParams(p, lam, mu), n_max).lower


def mid(p: float, lam: float, mu: float, n_max: int) -> float:
    """Measurement-induced disturbance M = H(p_AB) - S(rho).

    The identity M = U holds exactly for this family; a violation beyond
    ``IDENTITY_TOL`` raises ``TruncationError``.
    """
    return bounds_report(WernerParams(p, lam, mu), n_max).mid


def discord_is_positive(p: float, lam: float) -> bool:
    """Commutator witness: the off-diagonal blocks <i|rho|j> are non-normal
    exactly when p > 0 and 0 < lam < 1, certifying positive discord."""
    return p > 0.0 and 0.0 < lam < 1.0


def p_separable(mu: float) -> float:
    """Separability threshold of the lam = mu^4 family."""
    return (1.0 - mu**2) ** 2 / (2.0 * (1.0 - mu**2 + mu**4))


def p_ppt(mu: float) -> float:
    """Positive-partial-transpose threshold of the lam = mu^4 family."""
    return (1.0 - mu**2) ** 2 / ((1.0 - mu**2) ** 2 + (1.0 - mu**8) * mu**2)


def separability_region(p: float, mu: float) -> str:
    """Classify a lam = mu^4 Werner state: below ``p_separable`` the state
    is separable, up to ``p_ppt`` it is PPT with unknown separability,
    above it is entangled."""
    check_unit("p", p)
    check_unit("mu", mu, upper_open=True)
    if p <= p_separable(mu):
        return "separable"
    if p <= p_ppt(mu):
        return "PPT-unknown"
    return "entangled-nonPPT"


@dataclass(frozen=True)
class BoundsReport:
    """All photon-counting bound quantities at one parameter point."""

    p: float
    lam: float
    mu: float
    n_max: int
    marginal_entropy: float
    global_entropy: float
    conditional_entropy: float
    upper: float
    lower: float
    mid: float
    region: str
    tail_bound: float


def bounds_report(
    params: WernerParams, n_max: int | None = None, eps_tail: float = 1e-12
) -> BoundsReport:
    """U, L and MID at one point, from S(rho_B), S(rho), H_eig(A|B) and
    H(p_AB), each evaluated once; MID = U is checked on these values."""
    p, lam, mu = params.p, params.lam, params.mu
    if n_max is None:
        n_max = choose_cutoff(params, eps_tail)
    s_b = marginal_entropy(p, lam, mu, n_max)
    s_g = global_entropy(p, lam, mu, n_max)
    h_eig = conditional_entropy_photon_counting(p, lam, mu, n_max)
    upper = s_b - s_g + h_eig
    m = _joint_photon_entropy(p, lam, mu, n_max) - s_g
    if abs(m - upper) > IDENTITY_TOL:
        raise TruncationError(
            f"MID {m!r} and upper bound {upper!r} differ by {abs(m - upper):.3e} "
            f"(> {IDENTITY_TOL:g}) at n_max={n_max}"
        )
    if abs(lam - mu**4) < 1e-12:
        region = separability_region(p, mu)
    else:
        region = "not-classified"
    return BoundsReport(
        p=p,
        lam=lam,
        mu=mu,
        n_max=n_max,
        marginal_entropy=s_b,
        global_entropy=s_g,
        conditional_entropy=h_eig,
        upper=upper,
        lower=s_b - s_g + (1.0 - p) * thermal_entropy(mu),
        mid=m,
        region=region,
        tail_bound=_conditional_tail_bound(p, lam, mu, n_max),
    )


def _diagonal_marginal(state: TwoModeState, tol=1e-10):
    reduced = partial_trace(state, "A").matrix
    off = reduced - np.diag(np.diag(reduced))
    if np.max(np.abs(off)) > tol:
        raise ValueError(
            "reduced state is not diagonal in the Fock basis; the photon-counting "
            "bound machinery measures in the local eigenbasis, which must be Fock here"
        )
    return np.real(np.diag(reduced))


def conditional_entropy_dense(state: TwoModeState) -> float:
    """Photon-counting conditional entropy of an explicit matrix.

    Requires a Fock-diagonal marginal, so that counting is measurement in
    the local eigenbasis.
    """
    n = state.n_max
    p_b = _diagonal_marginal(state)
    blocks = np.einsum("imjm->mij", state.matrix.reshape(n, n, n, n))
    keep = p_b > WEIGHT_FLOOR
    spectra = np.linalg.eigvalsh(blocks[keep]) / p_b[keep, None]
    return float((p_b[keep] * -(xlogx(spectra).sum(axis=1))).sum())


def upper_bound_dense(state: TwoModeState) -> float:
    """Matrix-based U = S(rho_B) - S(rho) + H_eig for an explicit state."""
    s_b = von_neumann_entropy(_diagonal_marginal(state))
    s_g = von_neumann_entropy(eig_spectrum(state))
    return s_b - s_g + conditional_entropy_dense(state)


def mid_dense(state: TwoModeState) -> float:
    """Matrix-based measurement-induced disturbance H(p_AB) - S(rho)."""
    joint = np.real(np.diag(state.matrix))
    return shannon_entropy(joint) - von_neumann_entropy(eig_spectrum(state))
