"""Gaussian measurements on the vacuum Werner state.

A rank-1 Gaussian POVM ``Pi(alpha) = |alpha, xi><alpha, xi| / pi`` with
``xi = t exp(2i phi)`` is applied to one mode; ``t = 0`` is heterodyne and
``t -> infinity`` homodyne detection (handled at the proxy
``HOMODYNE_T = 12``, where ``exp(-2t) < 4e-11``).  Conditioned on the outcome
``alpha`` the other mode is left in a two-component mixture of a displaced
squeezed state and the vacuum, whose entropy has a closed form; only the
average over outcomes needs quadrature.

The outcome density stretches like ``exp(t)`` along one quadrature, so the
integral is taken in area-preserving squeezed coordinates
``alpha = exp(i phi) (exp(t/2) x + i exp(-t/2) y)``: in the (x, y) plane
every component is a near-isotropic Gaussian at any ``t`` and a fixed-size
polar Gauss-Legendre grid converges uniformly.  All Gaussian decay rates
are evaluated in cancellation-free forms (no ``1 - tanh(t)`` subtractions).

The conditional entropy does not depend on ``phi``: the Werner state is
invariant under opposite phase rotations of its two modes, and such a
rotation turns the measurement at phase ``phi`` into the one at phase 0
without changing any conditional entropy.  The optimizer therefore scans
``t`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exact
from .fock import xlogx

HOMODYNE_T = 12.0
_T_CAP = 300.0  # exp(2t) must stay finite
# Envelope mass the quadrature grid may leave outside its radius.
TAIL_EPS = 1e-10
# Width to which golden section refines the optimal t.
T_TOL = 1e-4


class QuadratureError(ValueError):
    """The quadrature grid failed its normalization self-check."""


class OptimizationError(RuntimeError):
    """The measurement optimizer did not produce a usable minimum."""


@dataclass(frozen=True)
class GaussianPovm:
    """Measurement squeezing ``t >= 0`` and phase ``phi`` in [0, pi)."""

    t: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t <= _T_CAP:
            raise ValueError(f"t={self.t} outside [0, {_T_CAP}]")
        if not 0.0 <= self.phi < math.pi:
            raise ValueError(f"phi={self.phi} outside [0, pi)")


HETERODYNE = GaussianPovm(0.0, 0.0)


@dataclass(frozen=True)
class ConditionalParams:
    """Parameters of the post-measurement pure component on the unmeasured mode."""

    s: float
    beta: complex
    z_plus: float
    z_minus: float


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


def conditional_params(lam: float, povm: GaussianPovm, alpha: complex) -> ConditionalParams:
    """Squeezing ``s`` and displacement ``beta`` of the conditional pure state.

    Detecting ``|alpha, xi>`` on one mode of the two-mode squeezed vacuum
    leaves the other in ``|beta, s exp(-2i phi)>``.  ``alpha`` may be an
    array of outcomes; ``beta`` then has its shape.
    """
    c2r, s2r = _cosh2r(lam), _sinh2r(lam)
    e2t = math.exp(2.0 * povm.t)
    z_plus = 1.0 / (c2r + e2t)
    z_minus = 1.0 / (c2r + 1.0 / e2t)
    s = 0.5 * math.log((1.0 + e2t * c2r) / (c2r + e2t))
    beta = 0.5 * s2r * (
        (z_plus + z_minus) * np.conj(alpha)
        + (z_plus - z_minus) * np.exp(-2j * povm.phi) * alpha
    )
    return ConditionalParams(s, beta, z_plus, z_minus)


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


def _log_densities(p, lam, t, phi, x, y):
    """log(p u), log((1-p) v) and the conditional-state ingredients at
    squeezed-frame coordinates (x, y)."""
    ru_x, ru_y, rv = _frame_rates(lam, t)
    tau = math.tanh(t)
    log_cosh_t = t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)
    logpref_u = (
        math.log1p(-(lam**2))
        - log_cosh_t
        - 0.5 * (math.log1p(-(lam**2) * tau) + math.log1p(lam**2 * tau))
    )
    logu = logpref_u - ru_x * x**2 - ru_y * y**2
    logv = -log_cosh_t - rv * (x**2 + y**2)
    g = 0.5 * t
    alpha = np.exp(1j * phi) * (math.exp(g) * x + 1j * math.exp(-g) * y)
    return logu, logv, alpha


def weight_densities(p: float, lam: float, povm: GaussianPovm, alpha):
    """Outcome weight densities (u, v, q) at complex outcome(s) ``alpha``.

    ``u`` weights the squeezed component, ``v = |<0|alpha, xi>|^2`` the
    vacuum component, and ``q = (p u + (1 - p) v) / pi`` is the outcome
    probability density, normalized over the complex plane.
    """
    alpha = np.asarray(alpha, dtype=complex)
    g = 0.5 * povm.t
    w = np.exp(-1j * povm.phi) * alpha
    x = w.real / math.exp(g)
    y = w.imag * math.exp(g)
    logu, logv, _ = _log_densities(p, lam, povm.t, povm.phi, x, y)
    u = np.exp(logu)
    v = np.exp(logv)
    q = (p * u + (1.0 - p) * v) / math.pi
    return u, v, q


def _mixture_spectrum(zeta1, overlap_sq):
    """Eigenvalue pair of ``z1 |a><a| + (1 - z1) |b><b|`` with
    ``|<a|b>|^2 = overlap_sq``, elementwise:
    ``(1 +- sqrt(1 - 4 z1 (1 - z1) (1 - overlap_sq))) / 2``."""
    zeta2 = 1.0 - zeta1
    disc = np.sqrt(np.clip(1.0 - 4.0 * zeta1 * zeta2 * (1.0 - overlap_sq), 0.0, None))
    return (1.0 + disc) / 2.0, (1.0 - disc) / 2.0


def _conditional_entropy_terms(p, lam, t, phi, x, y):
    """Per-outcome conditional entropy S and outcome density q."""
    logu, logv, alpha = _log_densities(p, lam, t, phi, x, y)
    if p == 0.0 or p == 1.0:
        logq = (math.log(p) + logu) if p == 1.0 else (math.log1p(-p) + logv)
        return np.zeros_like(x), np.exp(logq) / math.pi
    cp = conditional_params(lam, GaussianPovm(t, phi), alpha)
    overlap_sq = (
        np.exp(-np.abs(cp.beta) ** 2 + math.tanh(cp.s) * np.real(np.exp(2j * phi) * cp.beta**2))
        / math.cosh(cp.s)
    )
    lw1 = math.log(p) + logu
    lw2 = math.log1p(-p) + logv
    zeta1 = 1.0 / (1.0 + np.exp(np.clip(lw2 - lw1, -700.0, 700.0)))
    nu_plus, nu_minus = _mixture_spectrum(zeta1, overlap_sq)
    entropy = -xlogx(nu_plus) - xlogx(nu_minus)
    q = np.exp(np.logaddexp(lw1, lw2)) / math.pi
    return entropy, q


@lru_cache(maxsize=32)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def quadrature_grid(
    lam: float, povm: GaussianPovm, n_radial: int = 80, n_angular: int = 64
) -> QuadratureGrid:
    """Polar grid sized so the Gaussian envelope tail mass stays below
    ``TAIL_EPS``.

    Node counts grow with the anisotropy of the outcome density (which
    stretches like 1/(1 - lam^2) at strong squeezing) so that the requested
    counts act as a base resolution: doubling them doubles the grid in any
    regime.
    """
    rates = _frame_rates(lam, povm.t)
    c_min = min(rates)
    r_max = math.sqrt((math.log(1.0 / TAIL_EPS) + 3.0) / c_min)
    tau = math.tanh(povm.t)
    stretch = math.sqrt((1.0 + lam**2 * tau) / (1.0 - lam**2))
    ecc = math.sqrt((1.0 + lam**2 * tau) / (1.0 - lam**2 * tau))
    n_rad = math.ceil(max(n_radial, 26.0 * stretch * n_radial / 80.0))
    n_ang = math.ceil(max(n_angular, 26.0 * ecc * n_angular / 64.0))
    xg, wg = _leggauss(n_rad)
    radial = (xg + 1.0) * r_max / 2.0
    radial_w = wg * r_max / 2.0
    angular = 2.0 * math.pi * np.arange(n_ang) / n_ang
    angular_w = np.full(n_ang, 2.0 * math.pi / n_ang)
    return QuadratureGrid(radial, radial_w, angular, angular_w, r_max)


def _integrate(p, lam, povm, grid):
    r = grid.radial_nodes[:, None]
    th = grid.angular_nodes[None, :]
    weights = (grid.radial_weights * grid.radial_nodes)[:, None] * grid.angular_weights[None, :]
    x = r * np.cos(th)
    y = r * np.sin(th)
    entropy, q = _conditional_entropy_terms(p, lam, povm.t, povm.phi, x, y)
    return float((weights * q * entropy).sum()), float((weights * q).sum())


def outcome_norm(p: float, lam: float, povm: GaussianPovm, grid: QuadratureGrid | None = None) -> float:
    """Integral of the outcome density over the grid (should be 1)."""
    if grid is None:
        grid = quadrature_grid(lam, povm)
    return _integrate(p, lam, povm, grid)[1]


def conditional_entropy(
    p: float,
    lam: float,
    povm: GaussianPovm,
    grid: QuadratureGrid | None = None,
    n_radial: int = 80,
    n_angular: int = 64,
    eps_int: float = 1e-7,
) -> float:
    """Average post-measurement entropy  integral of q(alpha) S(rho|alpha).

    Refuses with diagnostics when the grid fails to reproduce the outcome
    normalization within ``eps_int``.
    """
    exact._check_domain(p, lam)
    if p == 0.0 or p == 1.0:
        return 0.0
    if grid is None:
        grid = quadrature_grid(lam, povm, n_radial, n_angular)
    value, norm = _integrate(p, lam, povm, grid)
    if abs(norm - 1.0) > eps_int:
        raise QuadratureError(
            f"outcome density integrates to {norm!r} (defect {norm - 1.0:.3e} "
            f"> eps_int={eps_int:g}) at lam={lam}, t={povm.t}, phi={povm.phi}, "
            f"r_max={grid.r_max:.3g}, nodes={grid.radial_nodes.size}x{grid.angular_nodes.size}"
        )
    return value


def conditional_entropy_mc(
    p: float,
    lam: float,
    povm: GaussianPovm,
    n_samples: int = 200_000,
    seed: int = 0,
):
    """Monte-Carlo oracle for :func:`conditional_entropy`.

    Samples outcomes from the two-component Gaussian mixture and averages
    the conditional entropy; returns (mean, standard error).
    """
    if p == 0.0 or p == 1.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    t = povm.t
    ru_x, ru_y, rv = _frame_rates(lam, t)
    pick_u = rng.random(n_samples) < p
    x = np.where(
        pick_u,
        rng.normal(0.0, 1.0 / math.sqrt(2.0 * ru_x), n_samples),
        rng.normal(0.0, 1.0 / math.sqrt(2.0 * rv), n_samples),
    )
    y = np.where(
        pick_u,
        rng.normal(0.0, 1.0 / math.sqrt(2.0 * ru_y), n_samples),
        rng.normal(0.0, 1.0 / math.sqrt(2.0 * rv), n_samples),
    )
    entropy, _ = _conditional_entropy_terms(p, lam, t, povm.phi, x, y)
    return float(entropy.mean()), float(entropy.std(ddof=1) / math.sqrt(n_samples))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_section(f, a, b, tol):
    """Golden-section minimization of f on [a, b] to width tol."""
    h = b - a
    if h <= tol:
        return (a + b) / 2.0
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
    return c if yc < yd else d


@dataclass(frozen=True)
class GaussianDiscordResult:
    value: float
    conditional_entropy: float
    povm: GaussianPovm
    evaluations: int


def gaussian_discord(
    p: float, lam: float, coarse_step: float = 0.5, eps_int: float = 1e-7
) -> GaussianDiscordResult:
    """Discord restricted to Gaussian measurements, with its minimizer.

    Minimizes the conditional entropy over a coarse grid in t, then
    refines t by golden section.  The phase stays at phi = 0: the state is
    invariant under opposite phase rotations of its two modes, so the
    conditional entropy does not depend on phi.  The upper end
    ``HOMODYNE_T`` stands in for the homodyne limit.  At strong squeezing
    (``lam`` above about 0.7) the scan finds heterodyne ``t = 0`` rather
    than homodyne to be the Gaussian-optimal measurement.
    """
    base = exact.reduced_entropy(p, lam) - exact.global_entropy(p, lam)
    if p == 0.0 or p == 1.0:
        return GaussianDiscordResult(base, 0.0, GaussianPovm(0.0, 0.0), 0)

    trace = []

    def objective(t):
        val = conditional_entropy(p, lam, GaussianPovm(t), eps_int=eps_int)
        trace.append((t, val))
        return val

    coarse_t = np.arange(0.0, HOMODYNE_T + coarse_step / 2.0, coarse_step)
    best = min(((float(t), objective(float(t))) for t in coarse_t), key=lambda c: c[1])

    lo = max(0.0, best[0] - coarse_step)
    hi = min(HOMODYNE_T, best[0] + coarse_step)
    t_ref = _golden_section(objective, lo, hi, T_TOL)
    t_opt, h_min = min([best, (t_ref, objective(t_ref))], key=lambda c: c[1])
    if not math.isfinite(h_min) or h_min < -1e-12:
        raise OptimizationError(
            f"conditional-entropy minimization failed (min {h_min!r}); "
            f"iterates: {trace[-20:]}"
        )
    return GaussianDiscordResult(
        base + h_min, h_min, GaussianPovm(t_opt), len(trace)
    )
