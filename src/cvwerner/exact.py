"""Closed-form correlation measures for the vacuum Werner state.

The vacuum Werner state is the ``mu = 0`` member of the family: a two-mode
squeezed vacuum mixed with the two-mode vacuum,

    rho = p |psi(lam)><psi(lam)| + (1 - p) |00><00|.

Its global spectrum has two-dimensional support, the reduced state is
diagonal, and photon counting on one mode leaves the other in a pure Fock
state, so the conditional entropy vanishes and the discord is the entropy
difference S(rho_B) - S(rho).  The ameliorated measurement-induced
disturbance and the relative entropy of quantumness coincide with it.

The discord has a truncated-matrix twin, :func:`discord_numeric`, used as
an independent oracle by the acceptance battery; the twins of the two
entropies live with the tests.  The reduced spectrum is the ``mu = 0``
case of :func:`cvwerner.bounds.reduced_spectrum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states
from .fock import (
    TwoModeState,
    eig_spectrum,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
    xlogx,
)


@dataclass(frozen=True)
class DiscordReport:
    """Scalar results for one (p, lam) point of the vacuum Werner family."""

    p: float
    lam: float
    eig_large: float
    eig_small: float
    entropy_global: float
    entropy_reduced: float
    discord: float


def eigenvalue_pair(p: float, lam: float):
    """The two nonzero global eigenvalues (1 +- sqrt(1 - 4p(1-p)lam^2))/2,
    the smaller formed as 2p(1-p)lam^2 / (1 + sqrt(...)) so that it keeps
    its relative precision when 4p(1-p)lam^2 is small."""
    states.WernerParams(p, lam)
    pq_lam2 = p * (1.0 - p) * lam**2
    disc = math.sqrt(1.0 - 4.0 * pq_lam2)
    return (1.0 + disc) / 2.0, 2.0 * pq_lam2 / (1.0 + disc)


def global_entropy(p: float, lam: float) -> float:
    """Entropy of the full state: binary entropy of the eigenvalue pair,
    taken from the smaller eigenvalue with ``log1p``."""
    small = eigenvalue_pair(p, lam)[1]
    return -float(xlogx(small)) - (1.0 - small) * math.log1p(-small)


def reduced_entropy(p: float, lam: float) -> float:
    """Closed-form entropy of the reduced state of either mode."""
    states.WernerParams(p, lam)
    if lam == 0.0 or p == 0.0:
        return 0.0
    pl2 = p * lam**2
    # 1 - lam^2 as a product, which keeps its relative precision near lam = 1
    one_m_lam2 = (1.0 - lam) * (1.0 + lam)
    return -float(
        math.log1p(-pl2)
        + pl2 * np.log(p * one_m_lam2 / (1.0 - pl2))
        + 2.0 * pl2 * np.log(lam) / one_m_lam2
    )


def discord(p: float, lam: float) -> float:
    """Quantum discord of the vacuum Werner state, exactly
    S(rho_B) - S(rho): photon counting yields zero conditional entropy and
    no measurement can do better."""
    return reduced_entropy(p, lam) - global_entropy(p, lam)


def discord_report(p: float, lam: float) -> DiscordReport:
    nu1, nu2 = eigenvalue_pair(p, lam)
    s_global = global_entropy(p, lam)
    s_reduced = reduced_entropy(p, lam)
    return DiscordReport(p, lam, nu1, nu2, s_global, s_reduced, s_reduced - s_global)


def discord_numeric(p, lam, n_max=None) -> float:
    """Truncated-matrix oracle for :func:`discord` (one state build)."""
    rho = states.werner(states.WernerParams(p, lam, 0.0), n_max)
    s_b = von_neumann_entropy(eig_spectrum(partial_trace(rho, "A")))
    return s_b - von_neumann_entropy(eig_spectrum(rho))


def joint_photon_distribution(state: TwoModeState) -> np.ndarray:
    """p(m, n) = <mn| rho |mn> as an (n_max, n_max) table."""
    n = state.n_max
    return np.real(state._diagonal()).reshape(n, n)


def classical_mutual_information(state: TwoModeState) -> float:
    """Classical mutual information of the photon-count statistics,
    H(p_A) + H(p_B) - H(p_AB)."""
    p_ab = joint_photon_distribution(state)
    h_a = shannon_entropy(p_ab.sum(axis=1))
    h_b = shannon_entropy(p_ab.sum(axis=0))
    return h_a + h_b - shannon_entropy(p_ab)


def quantumness_indicators(p: float, lam: float, n_max=None):
    """(discord, amid, req) computed along three distinct routes.

    discord comes from the closed forms; the ameliorated
    measurement-induced disturbance from matrix spectra and the
    photon-count statistics (which saturate the classical mutual
    information); the relative entropy of quantumness from the joint
    Shannon entropy minus the global entropy.  For this family all three
    coincide.
    """
    rho = states.werner(states.WernerParams(p, lam, 0.0), n_max)
    s_global = von_neumann_entropy(eig_spectrum(rho))
    s_a = von_neumann_entropy(eig_spectrum(partial_trace(rho, "B")))
    s_b = von_neumann_entropy(eig_spectrum(partial_trace(rho, "A")))
    mutual_q = s_a + s_b - s_global
    mutual_c = classical_mutual_information(rho)
    amid = mutual_q - mutual_c
    req = shannon_entropy(joint_photon_distribution(rho)) - s_global
    return discord(p, lam), amid, req
