"""Upper and lower bounds on discord for general two-mode Werner states.

Photon counting in the local eigenbasis gives a nonoptimized upper bound

    U = S(rho_B) - S(rho) + H_eig(A|B),

which coincides with the measurement-induced disturbance; a concavity
argument gives the lower bound L = S(rho_B) - S(rho) + (1-p) S_th(mu).
Whether U is tight away from mu = 0 is open, so nothing here labels U as
the discord itself.

The global entropy never needs the full two-mode matrix: the state splits
into an analytic branch of product-basis eigenvalues and a correlated
block ``diag(d) + z z^T``.  The block's spectrum comes from a rank-one
deflation that works from ``d`` and ``z`` directly and diagonalizes only
the k survivors, so the n_max x n_max block is never formed.  A report
evaluates each of S(rho_B), S(rho), H_eig(A|B) and H(p_AB) once per point,
the last summed by anti-diagonals of the photon-count table, and checks
MID = U on those values.  One private helper writes that table, as its
anti-diagonal entries and diagonal excess.  The closed form of H_eig(A|B)
and the block's diagonal read their weights from it, and the direct twin
of H_eig(A|B) takes its rows as slices of those entries, at most
``BLOCK_ENTRIES`` entries at a time, so a report holds no n_max x n_max
array.  That row sum is also
the cross-check of :func:`cvwerner.ppt.bounds`.  ``bounds_report`` is the only
evaluator of U, L and MID.  A dense matrix-based twin of U
(``upper_bound_dense``, with ``conditional_entropy_dense``) serves as an
oracle for arbitrary states with diagonal marginals; the dense twin of MID,
the photon-count table and the correlated block itself live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fock import (
    TwoModeState,
    _check_count,
    _check_square_size,
    _xlogx,
    antidiagonal_entropy,
    eig_spectrum,
    partial_trace,
    von_neumann_entropy,
    xlogx,
)
from .states import DEFAULT_EPS_TAIL, WernerParams, check_unit, choose_cutoff, thermal_entropy

# Tolerance of the internal identities: eigenvalue branches sum to 1,
# closed-form = direct conditional entropy, and MID = U.
IDENTITY_TOL = 1e-8
# Photon counts less likely than this carry no conditional state.
WEIGHT_FLOOR = 1e-16
# Deflation of the correlated block (see ``_block_spectrum``): a component
# whose coupling z_m^2 is below COUPLING_TOL is decoupled, and the coupled
# diagonal entries below DIAGONAL_FLOOR are merged into one direction.
COUPLING_TOL = 1e-18
DIAGONAL_FLOOR = 1e-18
# Entries of the photon-count table the direct conditional entropy holds at
# once, as max(1, BLOCK_ENTRIES // n_max) rows.
BLOCK_ENTRIES = 2**15


class TruncationError(ValueError):
    """An internal identity failed, signaling an inconsistent truncation."""


def reduced_spectrum(p: float, lam: float, mu: float, n_max: int) -> np.ndarray:
    """Eigenvalues g_m = p(1-lam^2)lam^(2m) + (1-p)(1-mu^2)mu^(2m) of either
    reduced state (diagonal in the Fock basis)."""
    WernerParams(p, lam, mu)
    _check_count(n_max, 1)
    m = np.arange(n_max, dtype=float)
    return p * (1.0 - lam**2) * lam ** (2 * m) + (1.0 - p) * (1.0 - mu**2) * mu ** (2 * m)


def marginal_entropy(p: float, lam: float, mu: float, n_max: int) -> float:
    """Entropy of the reduced state from its truncated spectrum."""
    return von_neumann_entropy(reduced_spectrum(p, lam, mu, n_max))


def _conditional_entropy_direct(p, lam, mu, n_max):
    # Raw conditional spectra p(m, n) / g_m, from the rows of the
    # photon-count table, at most BLOCK_ENTRIES entries at a time (n_max is
    # below it).  The entries are non-negative, so the x ln x kernel serves.
    g = reduced_spectrum(p, lam, mu, n_max)
    entry, diag = _count_table(p, lam, mu, n_max)
    rows = np.flatnonzero(g > WEIGHT_FLOOR)
    per_row = np.empty(rows.size)
    step = max(1, BLOCK_ENTRIES // n_max)
    for start in range(0, rows.size, step):
        r = rows[start : start + step]
        block = sliding_window_view(entry, n_max)[r]
        block[np.arange(r.size), r] += diag[r]
        np.divide(block, g[r, None], out=block)
        x_log_x = _xlogx(block, np.empty_like(block))
        per_row[start : start + step] = -(x_log_x.sum(axis=1))
    return float((g[rows] * per_row).sum())


def _conditional_entropy_closed(p, lam, mu, n_max):
    # Per-m entropy in closed form: the off-diagonal thermal tail is summed
    # analytically, only the count-m term is left explicit.  Only counts
    # with g_m > WEIGHT_FLOOR are evaluated: at large cutoffs g_m underflows
    # to 0, and the terms below divide by it.  The count table gives
    # k_m = entry[m] / g_m, eta_mm = p(m, m) / g_m and c_m = entry[0] / g_m.
    g = reduced_spectrum(p, lam, mu, n_max)
    keep = g > WEIGHT_FLOOR
    g = g[keep]
    entry, diag = _count_table(p, lam, mu, n_max)
    k = entry[:n_max][keep] / g
    eta_mm = (diag + entry[::2])[keep] / g
    log_c = np.log(entry[0] / g)
    m = np.arange(n_max, dtype=float)[keep]
    one = 1.0 - mu**2
    mu_2m = mu ** (2 * m)
    tail = log_c * (1.0 / one - mu_2m) + np.log(mu**2) * (
        m / one + mu**2 / one**2 - 2.0 * m * mu_2m
    )
    per_m = -k * tail - xlogx(eta_mm)
    return float((g * per_m).sum())


def _conditional_tail_bound(p, lam, mu, n_max):
    # S(rho_A|m) <= ln 2 + S_th(mu) for every m, and the missing weight is
    # the geometric tail of g.
    weight_tail = p * lam ** (2 * n_max) + (1.0 - p) * mu ** (2 * n_max)
    return float((np.log(2.0) + thermal_entropy(mu)) * weight_tail)


def conditional_entropy_photon_counting(p: float, lam: float, mu: float, n_max: int) -> float:
    """Conditional entropy after photon counting on one mode,
    ``sum_m p_B(m) S(rho_A|m)``.

    Evaluated twice, from the closed per-m expression and from the raw
    conditional spectra; a mismatch beyond ``IDENTITY_TOL`` raises
    ``TruncationError``.  Where ``mu^2`` is 0 in floating point (``mu``
    below about 2e-162) or ``p = 1`` every conditional state is pure and
    the result is exactly zero.  A cutoff above ``MAX_TWO_MODE_DIM``
    raises ``ValueError``, also there.
    """
    WernerParams(p, lam, mu)
    _check_square_size(n_max)
    if mu * mu == 0.0 or p == 1.0:
        return 0.0
    closed = _conditional_entropy_closed(p, lam, mu, n_max)
    direct = _conditional_entropy_direct(p, lam, mu, n_max)
    if not abs(closed - direct) <= IDENTITY_TOL:
        raise TruncationError(
            f"closed-form vs direct conditional entropy differ by "
            f"{abs(closed - direct):.3e} (> {IDENTITY_TOL:g}) at n_max={n_max}"
        )
    return closed


def _block_spectrum(p, lam, mu, n_max):
    """Spectrum of the correlated block (unordered) and the number k of
    directions diagonalized numerically, without forming the block.

    The block is ``diag(d) + z z^T`` with ``d_m = (1-p)(1-mu^2)^2 mu^(4m)``
    and ``z_m^2 = p(1-lam^2) lam^(2m)``.  Rank-one deflation (Bunch,
    Nielsen and Sorensen, Numer. Math. 31, 1978; LAPACK ``xLAED2``):

    - a component with ``z_m^2 < COUPLING_TOL`` is decoupled and keeps
      ``d_m`` as its eigenvalue;
    - the coupled components with ``d_m < DIAGONAL_FLOOR``, those whose
      ``d_m`` underflows to 0 included, are merged into the one direction
      ``z_S / |z_S|``, which couples with weight ``|z_S|`` and carries
      their summed diagonal; the other merged directions get eigenvalue 0;
    - ``eigvalsh`` runs on the k x k matrix of the survivors.

    The trace is unchanged.  Decoupling changes the matrix by a rank-2 term
    of norm at most ``3 |z_W|``, where ``|z_W|^2 < COUPLING_TOL / (1-lam^2)``
    is the decoupled tail of z; merging changes it by a difference of two
    positive semidefinite matrices, of norm at most
    ``sum_S d_m < DIAGONAL_FLOOR / (1-mu^4)``.  By Weyl's inequality no
    eigenvalue moves by more than ``eps = 3 |z_W| + sum_S d_m``, and the
    eigenvalues move by ``delta <= 6 |z_W| + 2 sum_S d_m`` in total, so the
    entropy changes by at most ``delta ln(n_max / delta)``: first order in
    the decoupled norm, about 2e-7 at (0.34, 0.58, 0.99).  The measured
    change is far smaller: at most 1.3e-13 against the dense ``eigvalsh``
    of the block, over 504 points with n_max <= 1500.
    """
    # z z^T = c v v^T, and d is the thermal part of the count table's diagonal.
    c, v = p * (1.0 - lam**2), lam ** np.arange(n_max, dtype=float)
    d = _count_table(p, lam, mu, n_max)[0][::2]
    coupled = c * v * v >= COUPLING_TOL
    merged = coupled & (d < DIAGONAL_FLOOR)
    kept = coupled & ~merged
    w, diag = v[kept], d[kept]
    if merged.any():
        w = np.append(w, np.sqrt((v[merged] ** 2).sum()))
        diag = np.append(diag, d[merged].sum())
    survivors = c * np.outer(w, w)
    survivors[np.diag_indices(w.size)] += diag
    zeros = np.zeros(max(int(merged.sum()) - 1, 0))
    spectrum = np.concatenate([d[~coupled], np.linalg.eigvalsh(survivors), zeros])
    return spectrum, w.size


def global_entropy(p: float, lam: float, mu: float, n_max: int) -> float:
    """Global entropy from the analytic product-basis branch plus the
    spectrum of the correlated block.

    The block's spectrum comes from its rank-one deflation (see
    ``_block_spectrum``), in O(n_max) memory; the cutoff is still held to
    ``MAX_TWO_MODE_DIM``.  Raises ``TruncationError`` when the two
    eigenvalue branches fail to sum to 1 within ``IDENTITY_TOL``.
    """
    WernerParams(p, lam, mu)
    _check_square_size(n_max)
    if mu == 0.0 or p == 1.0:
        branch_sum = 0.0
        branch_entropy = 0.0
    else:
        branch_sum = 2.0 * mu**2 * (1.0 - p) / (1.0 + mu**2)
        branch_entropy = -branch_sum * (
            np.log((1.0 - p) * (1.0 - mu**2) ** 2)
            + 2.0 * np.log(mu) * (1.0 + mu**2 + 2.0 * mu**4) / (1.0 - mu**4)
        )
    f, _ = _block_spectrum(p, lam, mu, n_max)
    total = branch_sum + float(f.sum())
    if not abs(total - 1.0) <= IDENTITY_TOL:
        raise TruncationError(
            f"eigenvalue branches sum to {total!r} (off by {total - 1.0:.3e} "
            f"> {IDENTITY_TOL:g}); increase n_max={n_max}"
        )
    return float(branch_entropy) + von_neumann_entropy(f)


def _count_table(p, lam, mu, n_max):
    # The one formula of the Werner photon-count table: off the diagonal
    # p(m, n) = entry[m + n] = (1-p)(1-mu^2)^2 mu^(2(m+n)), so row m is
    # entry[m : m + n_max]; the diagonal adds diag[m] = p(1-lam^2) lam^(2m).
    s = np.arange(2 * n_max - 1, dtype=float)
    entry = (1.0 - p) * (1.0 - mu**2) ** 2 * mu ** (2.0 * s)
    diag = p * (1.0 - lam**2) * lam ** (2.0 * s[:n_max])
    return entry, diag


def _joint_photon_entropy(p, lam, mu, n_max):
    # H(p_AB) of the photon-count table without building it.
    entry, diag = _count_table(p, lam, mu, n_max)
    return antidiagonal_entropy(entry, entry[::2] + diag)


def discord_is_positive(p: float, lam: float) -> bool:
    """Commutator witness: the off-diagonal blocks <i|rho|j> are non-normal
    exactly when p > 0 and 0 < lam < 1, certifying positive discord."""
    WernerParams(p, lam)
    return p > 0.0 and 0.0 < lam < 1.0


def p_separable(mu: float) -> float:
    """Separability threshold of the lam = mu^4 family."""
    check_unit("mu", mu, upper_open=True)
    return (1.0 - mu**2) ** 2 / (2.0 * (1.0 - mu**2 + mu**4))


def p_ppt(mu: float) -> float:
    """Positive-partial-transpose threshold of the lam = mu^4 family."""
    check_unit("mu", mu, upper_open=True)
    return (1.0 - mu**2) ** 2 / ((1.0 - mu**2) ** 2 + (1.0 - mu**8) * mu**2)


def separability_region(p: float, mu: float) -> str:
    """Classify a lam = mu^4 Werner state: below ``p_separable`` the state
    is separable, up to ``p_ppt`` it is PPT with unknown separability,
    above it is entangled."""
    check_unit("p", p)
    if p <= p_separable(mu):
        return "separable"
    if p <= p_ppt(mu):
        return "PPT-unknown"
    return "entangled-nonPPT"


@dataclass(frozen=True)
class BoundsReport:
    """All photon-counting bound quantities at one parameter point, in the
    order the CLI prints them."""

    p: float
    lam: float
    mu: float
    n_max: int
    upper: float
    lower: float
    mid: float
    marginal_entropy: float
    global_entropy: float
    conditional_entropy: float
    region: str
    tail_bound: float


def bounds_report(
    params: WernerParams, n_max: int | None = None, eps_tail: float = DEFAULT_EPS_TAIL
) -> BoundsReport:
    """U = S(rho_B) - S(rho) + H_eig(A|B), L = S(rho_B) - S(rho) + (1-p) S_th(mu)
    (signed) and MID = H(p_AB) - S(rho) at one point, each entropy evaluated
    once; MID = U beyond ``IDENTITY_TOL`` raises ``TruncationError``.  A
    cutoff, given or chosen, above ``MAX_TWO_MODE_DIM`` raises
    ``ValueError`` before anything is allocated."""
    p, lam, mu = params.p, params.lam, params.mu
    if n_max is None:
        n_max = choose_cutoff(params, eps_tail)
    _check_square_size(n_max)
    s_b = marginal_entropy(p, lam, mu, n_max)
    s_g = global_entropy(p, lam, mu, n_max)
    h_eig = conditional_entropy_photon_counting(p, lam, mu, n_max)
    upper = s_b - s_g + h_eig
    m = _joint_photon_entropy(p, lam, mu, n_max) - s_g
    if not abs(m - upper) <= IDENTITY_TOL:
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
        upper=upper,
        lower=s_b - s_g + (1.0 - p) * thermal_entropy(mu),
        mid=m,
        marginal_entropy=s_b,
        global_entropy=s_g,
        conditional_entropy=h_eig,
        region=region,
        tail_bound=_conditional_tail_bound(p, lam, mu, n_max),
    )


def _diagonal_marginal(state: TwoModeState, tol=1e-10):
    reduced = partial_trace(state, "A")
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
    keep = p_b > WEIGHT_FLOOR
    # Block m holds <i m| rho |j m>, for each count m of mode B that is kept.
    i, m, j, m2 = state._mode_indices()
    on = (m == m2) & keep[m]
    slot = np.cumsum(keep) - 1
    blocks = np.zeros((int(keep.sum()), n, n), dtype=state._values.dtype)
    blocks[slot[m[on]], i[on], j[on]] = state._values[on]
    spectra = np.linalg.eigvalsh(blocks) / p_b[keep, None]
    return float((p_b[keep] * -(xlogx(spectra).sum(axis=1))).sum())


def upper_bound_dense(state: TwoModeState) -> float:
    """Matrix-based U = S(rho_B) - S(rho) + H_eig for an explicit state."""
    s_b = von_neumann_entropy(_diagonal_marginal(state))
    s_g = von_neumann_entropy(eig_spectrum(state))
    return s_b - s_g + conditional_entropy_dense(state)
