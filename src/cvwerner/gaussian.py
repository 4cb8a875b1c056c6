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
are evaluated in cancellation-free forms (no ``1 - tanh(t)`` subtractions),
and so is the small eigenvalue of each conditional state, which keeps its
relative precision at weak squeezing and in the tails.

The conditional entropy does not depend on ``phi``: the Werner state is
invariant under opposite phase rotations of its two modes, and such a
rotation turns the measurement at phase ``phi`` into the one at phase 0
without changing any conditional entropy.  So the measurement is its
squeezing ``t``, and the optimizer scans ``t`` alone.  The quadrature uses
the same invariance: in the (x, y) frame the log-weights of both
components and the log-overlap between them are linear in ``x^2`` and
``y^2``, with no trace of ``phi``, so the integrand is real, phase-free
and even in x and in y.  The grid and its size limit are those of
:func:`quadrature_grid`, whose angular count is a multiple of 4, but only
one angular node of each reflection class is evaluated, weighted by the
class size: n/4 + 1 of n.  The complex outcome algebra, kept as the
reference for this real integrand, and a Monte-Carlo estimate of the
conditional entropy live with the tests.
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
# lam = 0.9993 (983 x 984 nodes, of which the reflection fold evaluates
# 983 x 247; a 22 MB ``conditional_entropy`` peak).
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
    # s = log((1 + e2t c2r) / (c2r + e2t)) / 2, without cancelling near 0
    s = 0.5 * math.log1p(2.0 * lam**2 / (1.0 - lam**2) * math.expm1(2.0 * t) / (c2r + e2t))
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


def _log_density_forms(lam, t):
    """log u and log v as linear forms ``c - a x^2 - b y^2`` of the squeezed
    frame, each returned as ``(c, a, b)``."""
    ru_x, ru_y, rv = _frame_rates(lam, t)
    tau = math.tanh(t)
    log_cosh_t = t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)
    logpref_u = (
        math.log1p(-(lam**2))
        - log_cosh_t
        - 0.5 * (math.log1p(-(lam**2) * tau) + math.log1p(lam**2 * tau))
    )
    return (logpref_u, ru_x, ru_y), (-log_cosh_t, rv, rv)


def _small_eigenvalue(m):
    """Smaller eigenvalue ``(1 - sqrt(1 - m)) / 2`` of the mixture
    ``z1 |a><a| + (1 - z1) |b><b|``, with ``m = 4 z1 (1 - z1) (1 - |<a|b>|^2)``
    in [0, 1], formed as ``m / (2 (1 + sqrt(1 - m)))`` so that it does not
    cancel when ``m`` is small."""
    return m / (2.0 * (1.0 + np.sqrt(np.maximum(1.0 - m, 0.0))))


def _conditional_entropy_terms(p, lam, t, x2, y2):
    """Per-outcome conditional entropy S and outcome density q at
    ``x2 = x^2``, ``y2 = y^2`` of the squeezed frame, for any ``phi``.

    In that frame ``beta = exp(-i phi) s2r (z_plus a - i z_minus b)`` with
    ``a = exp(t/2) x``, ``b = exp(-t/2) y``, so ``|beta|^2`` and
    ``Re(exp(2i phi) beta^2)`` lose the phase, and log(p u), log((1-p) v),
    their difference and the log-overlap of the two components are each
    linear in (x2, y2).  The weights enter S only through
    ``z1 z2 = E / (1 + E)^2`` with ``E = (1-p) v / (p u)``, which is the same
    for ``E`` and ``1/E``.  At p = 0 or 1 one weight is exactly zero and S
    is 0.
    """
    (cu, ux, uy), (cv, vx, _) = _log_density_forms(lam, t)
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_1mp = math.log1p(-p) if p < 1.0 else -math.inf
    lw1 = (log_p + cu) - ux * x2 - uy * y2
    lw2 = (log_1mp + cv) - vx * (x2 + y2)
    q = (np.exp(lw1) + np.exp(lw2)) / math.pi
    # log(z2 / z1) = lw2 - lw1: log cosh t cancels from the constant, and
    # the rate differences use (1 -+ tanh t) = exp(-+t) sech t.
    lam2, tau = lam**2, math.tanh(t)
    sech_sq = 1.0 / math.cosh(t) ** 2
    d0 = (
        log_1mp
        - log_p
        - math.log1p(-lam2)
        + 0.5 * (math.log1p(-lam2 * tau) + math.log1p(lam2 * tau))
    )
    dx = lam2 * sech_sq * math.exp(-t) / (1.0 - lam2 * tau)
    dy = lam2 * sech_sq * math.exp(t) / (1.0 + lam2 * tau)
    e = np.exp(-np.abs(d0 - dx * x2 - dy * y2))
    s, z_plus, z_minus = _conditional_squeezing(lam, t)
    s2r_sq = _sinh2r(lam) ** 2
    tanh_s = math.tanh(s)
    ox = s2r_sq * (1.0 - tanh_s) * z_plus**2 * math.exp(t)
    oy = s2r_sq * (1.0 + tanh_s) * z_minus**2 * math.exp(-t)
    # m = 4 z1 z2 (1 - overlap^2), with 1 - overlap^2 from expm1.
    log_cosh_s = math.log1p(2.0 * math.sinh(s / 2.0) ** 2)
    m = -4.0 * e / (1.0 + e) ** 2 * np.expm1(-log_cosh_s - ox * x2 - oy * y2)
    nu = _small_eigenvalue(m)
    entropy = -xlogx(nu) - (1.0 - nu) * np.log1p(-nu)
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
    # A multiple of 4, so that the reflection fold keeps n/4 + 1 nodes.
    n_ang = 4 * math.ceil(max(n_angular, 26.0 * ecc * n_angular / N_ANGULAR) / 4)
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
    regime.  The angular count is rounded up to a multiple of 4.  Above ``MAX_GRID_NODES`` nodes, with a requested count below
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


def _angular_fold(n):
    """Sizes of the reflection classes of the angular nodes ``2 pi k / n``,
    ``n`` a multiple of 4, whose smallest members are ``k = 0, ..., n/4``.

    ``y -> -y`` maps ``k`` to ``n - k``, ``x -> -x`` maps it to ``n/2 - k``
    and the two together to ``n/2 + k``: the classes of ``k = 0`` and
    ``k = n/4`` hold 2 nodes, every other class 4.
    """
    size = np.full(n // 4 + 1, 4.0)
    size[[0, -1]] = 2.0
    return size


def _integrate(p, lam, t, grid):
    """Integrals of q S and of q over the grid.

    The integrand depends on x^2 and y^2 only, so one angular node per
    reflection class is evaluated, weighted by the class size.
    """
    size = _angular_fold(grid.angular_nodes.size)
    theta = grid.angular_nodes[: size.size]
    r = grid.radial_nodes[:, None]
    # Squaring x = r cos(theta) gives each evaluated node the same x^2 and
    # y^2, to the bit, as on the whole grid: near a flat minimum in t the
    # optimizer's comparisons turn on the last bits of the integral.
    entropy, q = _conditional_entropy_terms(
        p, lam, t, (r * np.cos(theta)) ** 2, (r * np.sin(theta)) ** 2
    )
    angular_weights = grid.angular_weights[: size.size] * size
    weights = (grid.radial_weights * grid.radial_nodes)[:, None] * angular_weights
    return float((weights * q * entropy).sum()), float((weights * q).sum())


def outcome_norm(p: float, lam: float, t: float) -> float:
    """Integral of the outcome density over the default grid (should be 1).

    ``p`` and ``lam`` outside the Werner domain, and ``t`` outside [0, 300],
    raise ``ValueError``."""
    WernerParams(p, lam)
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


def _refine(f, t_best, h_best):
    """Refine the best point ``(t_best, h_best)`` of the coarse scan of f
    over [0, HOMODYNE_T]; returns the final point and its value.

    An interior point is refined by golden section on its two neighbouring
    scan intervals.  At an end of the scan f is first probed ``T_TOL``
    inside it: if the probe is not lower, the end is returned, since on a
    unimodal bracket (which golden section assumes too) the minimizer then
    lies within ``T_TOL`` of the end; if it is lower, golden section runs.
    """
    if t_best in (0.0, HOMODYNE_T):
        probe = T_TOL if t_best == 0.0 else HOMODYNE_T - T_TOL
        if not f(probe) < h_best:
            return t_best, h_best
    lo = max(0.0, t_best - COARSE_STEP)
    hi = min(HOMODYNE_T, t_best + COARSE_STEP)
    return min([(t_best, h_best), _golden_section(f, lo, hi, T_TOL)], key=lambda c: c[1])


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
    When the best scan point is an end, 0 or ``HOMODYNE_T``, one probe at
    ``T_TOL`` inside that end comes first, and golden section runs only if
    the probe is lower; otherwise the end is returned, which golden section
    would have pinned within ``T_TOL`` on a unimodal bracket.
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
    t_opt, h_min = _refine(objective, *best)
    if not math.isfinite(h_min) or h_min < -1e-12:
        raise OptimizationError(
            f"conditional-entropy minimization failed (min {h_min!r}); "
            f"iterates: {trace[-20:]}"
        )
    return GaussianDiscordResult(base + h_min, h_min, t_opt, len(trace))
