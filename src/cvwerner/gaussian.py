"""Gaussian measurements on the vacuum Werner state.

A rank-1 Gaussian POVM ``Pi(alpha) = |alpha, xi><alpha, xi| / pi`` with
``xi = t exp(2i phi)`` is applied to one mode.  The functions here take
the measurement as its squeezing ``t`` in [0, 300] alone, because the
phase drops out (see below); ``t = 0`` is heterodyne and ``t -> infinity``
homodyne detection (handled at the proxy ``HOMODYNE_T = 12``, where
``exp(-2t) < 4e-11``).  Conditioned on the outcome ``alpha`` the other
mode is left in a two-component mixture of a displaced squeezed state and
the vacuum, whose entropy has a closed form; only the average over
outcomes needs quadrature.

The outcome density stretches like ``exp(t)`` along one quadrature, so the
integral is taken in area-preserving squeezed coordinates
``alpha = exp(i phi) (exp(t/2) x + i exp(-t/2) y)``: in the (x, y) plane
every component is a near-isotropic Gaussian at any ``t`` and a fixed-size
polar Gauss-Legendre grid converges uniformly.  All Gaussian decay rates
are evaluated in cancellation-free forms (no ``1 - tanh(t)`` subtractions).

The conditional entropy does not depend on ``phi``: the Werner state is
invariant under opposite phase rotations of its two modes, and such a
rotation turns the measurement at phase ``phi`` into the one at phase 0
without changing any conditional entropy.  So the measurement is its
squeezing ``t``, and the optimizer scans ``t`` alone.  The quadrature uses
the same invariance: in the (x, y) frame the log-weights of both
components and the log-overlap between them are linear in ``x^2`` and
``y^2``, with no trace of ``phi``, so the integrand is real, phase-free
and even in x and in y.  The grid and its size limit are
those of :func:`quadrature_grid`, but only one angular node of each
reflection class is evaluated, weighted by the class size: about
``n/4 + 1`` of ``n`` angular nodes when ``n`` is even, ``(n + 1)/2`` when
it is odd.  The complex outcome algebra, kept as the reference for this
real integrand, and a Monte-Carlo estimate of the conditional entropy live
with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import exact
from .fock import xlogx
from .states import WernerParams, check_tolerance

HETERODYNE = 0.0
HOMODYNE_T = 12.0
_T_CAP = 300.0  # exp(2t) must stay finite
# Envelope mass the quadrature grid may leave outside its radius.
TAIL_EPS = 1e-10
# Width to which golden section refines the optimal t.
T_TOL = 1e-4
# Spacing of the coarse scan in t that golden section then refines.
COARSE_STEP = 0.5
# Default tolerance on the outcome normalization of the quadrature.
EPS_INT = 1e-7
# Base node counts of the polar grid, before its anisotropy scaling.
N_RADIAL = 80
N_ANGULAR = 64
# Largest quadrature grid, in nodes: the grid at HOMODYNE_T fits up to
# lam = 0.9993 (983 x 983 nodes, of which the reflection fold evaluates
# 983 x 492; a 48 MB ``conditional_entropy`` peak).
MAX_GRID_NODES = 2**20


class QuadratureError(ValueError):
    """The quadrature grid failed its normalization self-check."""


class OptimizationError(RuntimeError):
    """The measurement optimizer did not produce a usable minimum."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Polar Gauss-Legendre nodes in the squeezed outcome frame."""

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_nodes: np.ndarray
    angular_weights: np.ndarray
    r_max: float


def _cosh2r(lam: float) -> float:
    return (1.0 + lam**2) / (1.0 - lam**2)


def _sinh2r(lam: float) -> float:
    return 2.0 * lam / (1.0 - lam**2)


def _conditional_squeezing(lam: float, t: float):
    """Squeezing ``s`` and displacement gains ``z_plus``, ``z_minus`` of the
    conditional pure state after measurement squeezing ``t``."""
    c2r = _cosh2r(lam)
    e2t = math.exp(2.0 * t)
    z_plus = 1.0 / (c2r + e2t)
    z_minus = 1.0 / (c2r + 1.0 / e2t)
    s = 0.5 * math.log((1.0 + e2t * c2r) / (c2r + e2t))
    return s, z_plus, z_minus


def _frame_rates(lam: float, t: float):
    """Gaussian decay rates of u and v in the squeezed (x, y) frame.

    Written so that no ``1 - tanh(t)`` cancellation occurs: the exact
    identities ``(1 -+ tanh t) exp(+-t) = sech t`` are used instead.
    """
    sech = 1.0 / math.cosh(t)
    tau = math.tanh(t)
    ru_x = (1.0 - lam**2) * sech / (1.0 - lam**2 * tau)
    ru_y = (1.0 - lam**2) * sech / (1.0 + lam**2 * tau)
    return ru_x, ru_y, sech


def _log_densities(lam, t, x2, y2):
    """log u and log v at ``x2 = x^2``, ``y2 = y^2`` of the squeezed frame;
    each is linear in (x2, y2)."""
    ru_x, ru_y, rv = _frame_rates(lam, t)
    tau = math.tanh(t)
    log_cosh_t = t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)
    logpref_u = (
        math.log1p(-(lam**2))
        - log_cosh_t
        - 0.5 * (math.log1p(-(lam**2) * tau) + math.log1p(lam**2 * tau))
    )
    logu = logpref_u - ru_x * x2 - ru_y * y2
    logv = -log_cosh_t - rv * (x2 + y2)
    return logu, logv


def _mixture_spectrum(zeta1, overlap_sq):
    """Eigenvalue pair of ``z1 |a><a| + (1 - z1) |b><b|`` with
    ``|<a|b>|^2 = overlap_sq``, elementwise:
    ``(1 +- sqrt(1 - 4 z1 (1 - z1) (1 - overlap_sq))) / 2``."""
    zeta2 = 1.0 - zeta1
    disc = np.sqrt(np.clip(1.0 - 4.0 * zeta1 * zeta2 * (1.0 - overlap_sq), 0.0, None))
    return (1.0 + disc) / 2.0, (1.0 - disc) / 2.0


def _conditional_entropy_terms(p, lam, t, x2, y2):
    """Per-outcome conditional entropy S and outcome density q at
    ``x2 = x^2``, ``y2 = y^2`` of the squeezed frame, for any ``phi``.

    In that frame ``beta = exp(-i phi) s2r (z_plus a - i z_minus b)`` with
    ``a = exp(t/2) x``, ``b = exp(-t/2) y``, so ``|beta|^2`` and
    ``Re(exp(2i phi) beta^2)`` lose the phase, and log(p u), log((1-p) v)
    and the log-overlap of the two components are each linear in
    (x2, y2).  At p = 0 or 1 one weight is exactly zero and S is 0.
    """
    logu, logv = _log_densities(lam, t, x2, y2)
    s, z_plus, z_minus = _conditional_squeezing(lam, t)
    s2r_sq = _sinh2r(lam) ** 2
    tanh_s = math.tanh(s)
    ox = s2r_sq * (1.0 - tanh_s) * z_plus**2 * math.exp(t)
    oy = s2r_sq * (1.0 + tanh_s) * z_minus**2 * math.exp(-t)
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_1mp = math.log1p(-p) if p < 1.0 else -math.inf
    lw1 = log_p + logu
    lw2 = log_1mp + logv
    overlap_sq = np.exp(-ox * x2 - oy * y2) / math.cosh(s)
    zeta1 = 1.0 / (1.0 + np.exp(np.clip(lw2 - lw1, -700.0, 700.0)))
    nu_plus, nu_minus = _mixture_spectrum(zeta1, overlap_sq)
    entropy = -xlogx(nu_plus) - xlogx(nu_minus)
    q = np.exp(np.logaddexp(lw1, lw2)) / math.pi
    return entropy, q


@cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _node_counts(lam, t, n_radial, n_angular):
    # Radial and angular node counts of the grid at t, held to MAX_GRID_NODES.
    tau = math.tanh(t)
    stretch = math.sqrt((1.0 + lam**2 * tau) / (1.0 - lam**2))
    ecc = math.sqrt((1.0 + lam**2 * tau) / (1.0 - lam**2 * tau))
    n_rad = math.ceil(max(n_radial, 26.0 * stretch * n_radial / N_RADIAL))
    n_ang = math.ceil(max(n_angular, 26.0 * ecc * n_angular / N_ANGULAR))
    if n_rad * n_ang > MAX_GRID_NODES:
        raise ValueError(
            f"lam={lam}, t={t} needs a {n_rad}x{n_ang} quadrature grid, "
            f"above the limit {MAX_GRID_NODES} nodes"
        )
    return n_rad, n_ang


def _check_count(name, value, least):
    # NaN fails the comparison and is rejected.
    if not value >= least:
        raise ValueError(f"{name}={value} must be at least {least}")


def _check_measurement(t, n_radial, n_angular):
    # The measurement squeezing t and the node counts; NaN is rejected.
    if not 0.0 <= t <= _T_CAP:
        raise ValueError(f"t={t} outside [0, {_T_CAP}]")
    _check_count("n_radial", n_radial, 1)
    _check_count("n_angular", n_angular, 1)


def quadrature_grid(
    lam: float, t: float, n_radial: int = N_RADIAL, n_angular: int = N_ANGULAR
) -> QuadratureGrid:
    """Polar grid sized so the Gaussian envelope tail mass stays below
    ``TAIL_EPS``.

    Node counts grow with the anisotropy of the outcome density (which
    stretches like 1/(1 - lam^2) at strong squeezing) so that the requested
    counts act as a base resolution: doubling them doubles the grid in any
    regime.  Above ``MAX_GRID_NODES`` nodes, with a requested count below
    1, or with ``t`` outside [0, 300], it raises ``ValueError``.
    """
    _check_measurement(t, n_radial, n_angular)
    n_rad, n_ang = _node_counts(lam, t, n_radial, n_angular)
    rates = _frame_rates(lam, t)
    c_min = min(rates)
    r_max = math.sqrt((math.log(1.0 / TAIL_EPS) + 3.0) / c_min)
    xg, wg = _leggauss(n_rad)
    radial = (xg + 1.0) * r_max / 2.0
    radial_w = wg * r_max / 2.0
    angular = 2.0 * math.pi * np.arange(n_ang) / n_ang
    angular_w = np.full(n_ang, 2.0 * math.pi / n_ang)
    return QuadratureGrid(radial, radial_w, angular, angular_w, r_max)


@cache
def _angular_fold(n):
    """Reflection classes of the angular nodes ``2 pi k / n``: the smallest
    ``k`` of each class and the class size.

    ``y -> -y`` maps ``k`` to ``n - k``; for even ``n``, ``x -> -x`` maps it
    to ``n/2 - k`` and the two together to ``n/2 + k``.
    """
    k = np.arange(n)
    images = [k, -k % n]
    if n % 2 == 0:
        images += [(n // 2 - k) % n, (n // 2 + k) % n]
    return np.unique(np.min(images, axis=0), return_counts=True)


def _integrate(p, lam, t, grid):
    """Integrals of q S and of q over the grid.

    The integrand depends on x^2 and y^2 only, so one angular node per
    reflection class is evaluated, weighted by the class size.
    """
    rep, size = _angular_fold(grid.angular_nodes.size)
    theta = grid.angular_nodes[rep]
    r = grid.radial_nodes[:, None]
    # Squaring x = r cos(theta) gives each evaluated node the same x^2 and
    # y^2, to the bit, as on the whole grid: near a flat minimum in t the
    # optimizer's comparisons turn on the last bits of the integral.
    entropy, q = _conditional_entropy_terms(
        p, lam, t, (r * np.cos(theta)) ** 2, (r * np.sin(theta)) ** 2
    )
    angular_weights = grid.angular_weights[rep] * size
    weights = (grid.radial_weights * grid.radial_nodes)[:, None] * angular_weights
    return float((weights * q * entropy).sum()), float((weights * q).sum())


def outcome_norm(p: float, lam: float, t: float) -> float:
    """Integral of the outcome density over the default grid (should be 1)."""
    return _integrate(p, lam, t, quadrature_grid(lam, t))[1]


def conditional_entropy(
    p: float,
    lam: float,
    t: float,
    n_radial: int = N_RADIAL,
    n_angular: int = N_ANGULAR,
    eps_int: float = EPS_INT,
) -> float:
    """Average post-measurement entropy  integral of q(alpha) S(rho|alpha).

    Refuses with diagnostics when the grid fails to reproduce the outcome
    normalization within ``eps_int``.  At p = 0 or 1 every conditional
    state is pure, and it returns 0 without building a grid, so the node
    limit does not apply there.  Node counts below 1, and a measurement
    squeezing ``t`` outside [0, 300], raise ``ValueError`` there too.
    """
    WernerParams(p, lam)
    check_tolerance("eps_int", eps_int)
    _check_measurement(t, n_radial, n_angular)
    if p == 0.0 or p == 1.0:
        return 0.0
    grid = quadrature_grid(lam, t, n_radial, n_angular)
    value, norm = _integrate(p, lam, t, grid)
    if abs(norm - 1.0) > eps_int:
        raise QuadratureError(
            f"outcome density integrates to {norm!r} (defect {norm - 1.0:.3e} "
            f"> eps_int={eps_int:g}) at lam={lam}, t={t}, "
            f"r_max={grid.r_max:.3g}, nodes={grid.radial_nodes.size}x{grid.angular_nodes.size}"
        )
    return value


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_section(f, a, b, tol):
    """Golden-section minimization of f on [a, b] to width tol; returns the
    final point and its value."""
    h = b - a
    if h <= tol:
        mid = (a + b) / 2.0
        return mid, f(mid)
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    steps = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    for _ in range(max(steps - 1, 0)):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


@dataclass(frozen=True)
class GaussianDiscordResult:
    """Gaussian discord ``value``, the least ``conditional_entropy`` over
    the scanned measurements, the measurement squeezing ``t`` that attains
    it, and the number of conditional-entropy ``evaluations`` spent."""

    value: float
    conditional_entropy: float
    t: float
    evaluations: int


def gaussian_discord(p: float, lam: float, eps_int: float = EPS_INT) -> GaussianDiscordResult:
    """Discord restricted to Gaussian measurements, with its minimizer.

    Minimizes the conditional entropy over the measurement squeezing t, on
    a grid of spacing ``COARSE_STEP``, then refines t by golden section.
    No phase is scanned: the state is invariant under opposite phase
    rotations of its two modes, so the conditional entropy of the
    measurement ``xi = t exp(2i phi)`` does not depend on phi.  The upper end
    ``HOMODYNE_T`` stands in for the homodyne limit.  At strong squeezing
    (``lam`` above about 0.7) the scan finds heterodyne ``t = 0`` rather
    than homodyne to be the Gaussian-optimal measurement.
    """
    base = exact.reduced_entropy(p, lam) - exact.global_entropy(p, lam)
    if p == 0.0 or p == 1.0:
        return GaussianDiscordResult(base, 0.0, 0.0, 0)
    _node_counts(lam, HOMODYNE_T, N_RADIAL, N_ANGULAR)  # the grid grows with t

    trace = []

    def objective(t):
        val = conditional_entropy(p, lam, t, eps_int=eps_int)
        trace.append((t, val))
        return val

    coarse_t = np.arange(0.0, HOMODYNE_T + COARSE_STEP / 2.0, COARSE_STEP)
    best = min(((float(t), objective(float(t))) for t in coarse_t), key=lambda c: c[1])

    lo = max(0.0, best[0] - COARSE_STEP)
    hi = min(HOMODYNE_T, best[0] + COARSE_STEP)
    t_opt, h_min = min([best, _golden_section(objective, lo, hi, T_TOL)], key=lambda c: c[1])
    if not math.isfinite(h_min) or h_min < -1e-12:
        raise OptimizationError(
            f"conditional-entropy minimization failed (min {h_min!r}); "
            f"iterates: {trace[-20:]}"
        )
    return GaussianDiscordResult(base + h_min, h_min, t_opt, len(trace))
