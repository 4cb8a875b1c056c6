"""Nonclassical-correlation measures for two-mode CV Werner states.

Submodules
----------
fock      the truncated Fock-basis two-mode state type and linear algebra
          (entropies, partial trace and transpose, majorization, spectra)
states    constructors for the Werner (the TMSV at p = 1), thermal and PPT
          states, and cutoff selection
exact     closed-form discord and related indicators for the vacuum
          Werner state (squeezed vacuum mixed with the vacuum)
gaussian  Gaussian measurements: conditional entropy quadrature and
          Gaussian discord
nongauss  entropic non-Gaussianity and the Gaussian-measurement gap
bounds    photon-counting upper/lower bounds for general Werner states,
          measurement-induced disturbance, separability regions
ppt       analytic results for the positive partial-transpose state
"""

from . import bounds, exact, fock, gaussian, nongauss, ppt, states
from .fock import (
    TwoModeState,
    eig_spectrum,
    is_more_mixed,
    partial_trace,
    partial_transpose,
    shannon_entropy,
    von_neumann_entropy,
)
from .gaussian import gaussian_discord
from .nongauss import discord_gap, nongaussianity
from .states import (
    WernerParams,
    choose_cutoff,
    ppt_werner,
    thermal,
    werner,
)

__all__ = [
    "TwoModeState",
    "WernerParams",
    "bounds",
    "choose_cutoff",
    "discord_gap",
    "eig_spectrum",
    "exact",
    "fock",
    "gaussian",
    "gaussian_discord",
    "is_more_mixed",
    "nongauss",
    "nongaussianity",
    "partial_trace",
    "partial_transpose",
    "ppt",
    "ppt_werner",
    "shannon_entropy",
    "states",
    "thermal",
    "von_neumann_entropy",
    "werner",
]

__version__ = "0.1.0"
