"""Reference implementations that only the tests call.

Each one is a second route to a quantity the package computes another way:
the complex outcome algebra with its conditional squeezing, frame rates
and log-densities, each in its own helper, the real integrand of the
Gaussian conditional entropy formed node by node from those helpers in the
package's earlier arithmetic, a Monte-Carlo average, the polar grid sized
to each ``lam`` and ``t``, the reflection classes of the angular grid and an
optimizer that scans ``t`` in steps of 0.5 and always runs golden section
for the Gaussian conditional entropy and discord, dense photon-count tables
and matrices for the photon-counting bounds, the covariance matrix behind
the symplectic eigenvalue, truncated-matrix entropies of the vacuum
Werner state, and its closed forms in 50-digit decimal arithmetic.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from cvwerner import exact
from cvwerner.fock import (
    TwoModeState,
    _check_count,
    _check_square_size,
    eig_spectrum,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)
from cvwerner.gaussian import (
    DISC_X,
    HOMODYNE_T,
    N_ANGULAR,
    N_RADIAL,
    _angular_fold,
    _check_measurement,
    _check_nodes,
    conditional_entropy,
)
from cvwerner.states import WernerParams, werner


# The outcome algebra of the Gaussian measurement, quantity by quantity:
# the package's coefficients before they were formed in one function.
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


@dataclass(frozen=True)
class ConditionalParams:
    """Parameters of the post-measurement pure component on the unmeasured mode."""

    s: float
    beta: complex
    z_plus: float
    z_minus: float


def conditional_params(lam: float, t: float, phi: float, alpha: complex) -> ConditionalParams:
    """Squeezing ``s`` and displacement ``beta`` of the conditional pure state.

    Detecting ``|alpha, xi>``, ``xi = t exp(2i phi)``, on one mode of the
    two-mode squeezed vacuum leaves the other in ``|beta, s exp(-2i phi)>``.
    ``alpha`` may be an array of outcomes; ``beta`` then has its shape and
    precision.  Along ``exp(i phi)`` the two sums cancel to ``2 z_plus``,
    which at t = 12 is 4e-11 of ``z_minus``, so they are formed in the
    precision of ``alpha`` too.
    """
    s, z_plus, z_minus = _conditional_squeezing(lam, t)
    alpha = np.asarray(alpha)
    z_plus, z_minus = np.real(alpha).dtype.type(z_plus), np.real(alpha).dtype.type(z_minus)
    beta = 0.5 * _sinh2r(lam) * (
        (z_plus + z_minus) * np.conj(alpha)
        + (z_plus - z_minus) * np.exp(-2j * phi) * alpha
    )
    return ConditionalParams(s, beta, z_plus, z_minus)


def weight_densities(p: float, lam: float, t: float, phi: float, alpha):
    """Outcome weight densities (u, v, q) at complex outcome(s) ``alpha`` of
    the measurement ``xi = t exp(2i phi)``.

    ``u`` weights the squeezed component, ``v = |<0|alpha, xi>|^2`` the
    vacuum component, and ``q = (p u + (1 - p) v) / pi`` is the outcome
    probability density, normalized over the complex plane.  The result
    keeps the precision of ``alpha`` and ``phi`` (``np.clongdouble`` and
    ``np.longdouble`` give extended precision).
    """
    alpha = np.asarray(alpha)
    g = 0.5 * t
    w = np.exp(-1j * phi) * alpha
    x = w.real / math.exp(g)
    y = w.imag * math.exp(g)
    (cu, ux, uy), (cv, vx, vy) = _log_density_forms(lam, t)
    u = np.exp(cu - ux * x**2 - uy * y**2)
    v = np.exp(cv - vx * x**2 - vy * y**2)
    q = (p * u + (1.0 - p) * v) / math.pi
    return u, v, q


def mixture_entropy(zeta1, zeta2, distinguishability):
    """Entropy of ``z1 |a><a| + z2 |b><b|`` with
    ``1 - |<a|b>|^2 = distinguishability``, in the precision of its arguments.

    The eigenvalues are those of the 2 x 2 Gram form: the larger from the
    quadratic, the smaller as the determinant ``z1 z2 (1 - |<a|b>|^2)``
    over the larger, which keeps it to full relative precision.
    """
    det = zeta1 * zeta2 * distinguishability
    nu_plus = (1 + np.sqrt(1 - 4 * det)) / 2
    nu_minus = det / nu_plus
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(nu_minus > 0, -nu_minus * np.log(nu_minus), 0)
    return small - nu_plus * np.log1p(-nu_minus)


def small_eigenvalue(m):
    """Smaller eigenvalue ``(1 - sqrt(1 - m)) / 2`` of the mixture
    ``z1 |a><a| + (1 - z1) |b><b|``, with ``m = 4 z1 (1 - z1) (1 - |<a|b>|^2)``
    in [0, 1], formed as ``m / (2 (1 + sqrt(1 - m)))`` so that it does not
    cancel when ``m`` is small."""
    return m / (2.0 * (1.0 + np.sqrt(np.maximum(1.0 - m, 0.0))))


def conditional_entropy_terms(p, lam, t, x2, y2, scale=1.0):
    """Per-outcome conditional entropy S and outcome density q at
    ``x^2 = scale x2``, ``y^2 = scale y2`` of the squeezed frame, each
    quantity formed in its own array: the package's integrand before its
    linear forms came from one product.

    log(p u), log((1-p) v), their difference and the log-overlap of the two
    components are each linear in (x^2, y^2); ``scale`` multiplies their
    rates.  The weights enter S only through ``z1 z2 = E / (1 + E)^2`` with
    ``E = (1-p) v / (p u)``, which is the same for ``E`` and ``1/E``.  At
    p = 0 or 1 one weight is exactly zero and S is 0.
    """
    (cu, ux, uy), (cv, vx, _) = _log_density_forms(lam, t)
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_1mp = math.log1p(-p) if p < 1.0 else -math.inf
    lw1 = (log_p + cu) - (scale * ux) * x2 - (scale * uy) * y2
    lw2 = (log_1mp + cv) - (scale * vx) * (x2 + y2)
    q = (np.exp(lw1) + np.exp(lw2)) / math.pi
    lam2, tau = lam**2, math.tanh(t)
    sech_sq = 1.0 / math.cosh(t) ** 2
    d0 = (
        log_1mp
        - log_p
        - math.log1p(-lam2)
        + 0.5 * (math.log1p(-lam2 * tau) + math.log1p(lam2 * tau))
    )
    dx = scale * lam2 * sech_sq * math.exp(-t) / (1.0 - lam2 * tau)
    dy = scale * lam2 * sech_sq * math.exp(t) / (1.0 + lam2 * tau)
    e = np.exp(-np.abs(d0 - dx * x2 - dy * y2))
    s, z_plus, z_minus = _conditional_squeezing(lam, t)
    s2r_sq = _sinh2r(lam) ** 2
    tanh_s = math.tanh(s)
    ox = scale * s2r_sq * (1.0 - tanh_s) * z_plus**2 * math.exp(t)
    oy = scale * s2r_sq * (1.0 + tanh_s) * z_minus**2 * math.exp(-t)
    log_cosh_s = math.log1p(2.0 * math.sinh(s / 2.0) ** 2)
    m = -4.0 * e / (1.0 + e) ** 2 * np.expm1(-log_cosh_s - ox * x2 - oy * y2)
    nu = small_eigenvalue(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_ln_nu = np.where(nu <= 0.0, 0.0, nu * np.log(nu))
    entropy = -nu_ln_nu - (1.0 - nu) * np.log1p(-nu)
    return entropy, q


# Envelope mass the sized grid may leave outside its radius.
TAIL_EPS = 1e-10
# Largest sized grid, in nodes: the grid at HOMODYNE_T fits up to
# lam = 0.9993 (983 x 984 nodes, of which the reflection fold evaluates
# 983 x 247).
MAX_GRID_NODES = 2**20


@dataclass(frozen=True)
class QuadratureGrid:
    """Polar Gauss-Legendre nodes in the squeezed outcome frame."""

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_nodes: np.ndarray
    angular_weights: np.ndarray
    r_max: float


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


def quadrature_grid(
    lam: float, t: float, n_radial: int = N_RADIAL, n_angular: int = N_ANGULAR
) -> QuadratureGrid:
    """Polar grid sized so the Gaussian envelope tail mass stays below
    ``TAIL_EPS``: the grid of the package before its unit-disc rule.

    Node counts grow with the anisotropy of the outcome density (which
    stretches like 1/(1 - lam^2) at strong squeezing) so that the requested
    counts act as a base resolution: doubling them doubles the grid in any
    regime.  The angular count is rounded up to a multiple of 4.  Above
    ``MAX_GRID_NODES`` nodes it raises ``ValueError``.
    """
    _check_measurement(t)
    _check_nodes(n_radial, n_angular)
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


def grid_integrals(p, lam, t, grid):
    """Integrals of q S and of q over ``grid``, one angular node per
    reflection class, weighted by the class size."""
    size = _angular_fold(grid.angular_nodes.size)
    theta = grid.angular_nodes[: size.size]
    r = grid.radial_nodes[:, None]
    entropy, q = conditional_entropy_terms(
        p, lam, t, (r * np.cos(theta)) ** 2, (r * np.sin(theta)) ** 2
    )
    angular_weights = grid.angular_weights[: size.size] * size
    weights = (grid.radial_weights * grid.radial_nodes)[:, None] * angular_weights
    return float((weights * q * entropy).sum()), float((weights * q).sum())


def disc_grid(t: float, n_radial: int = N_RADIAL, n_angular: int = N_ANGULAR) -> QuadratureGrid:
    """Every node of the package's unit-disc rule, scaled to its radius
    ``R^2 = DISC_X cosh t`` at ``t``: the unfolded twin of ``_disc_rule``."""
    _check_measurement(t)
    n_ang = _check_nodes(n_radial, n_angular)
    r_max = math.sqrt(DISC_X * math.cosh(t))
    xg, wg = _leggauss(n_radial)
    radial = (xg + 1.0) * r_max / 2.0
    radial_w = wg * r_max / 2.0
    angular = 2.0 * math.pi * np.arange(n_ang) / n_ang
    angular_w = np.full(n_ang, 2.0 * math.pi / n_ang)
    return QuadratureGrid(radial, radial_w, angular, angular_w, r_max)


def angular_fold(n):
    """Reflection classes of the angular nodes ``2 pi k / n``: the smallest
    ``k`` of each class and the class size, found by listing the images of
    every node under ``y -> -y``, ``x -> -x`` and both."""
    k = np.arange(n)
    images = [k, -k % n]
    if n % 2 == 0:
        images += [(n // 2 - k) % n, (n // 2 + k) % n]
    return np.unique(np.min(images, axis=0), return_counts=True)


# The package's earlier scan of the measurement squeezing: 25 points of
# spacing COARSE_STEP in t over [0, HOMODYNE_T].
COARSE_STEP = 0.5
COARSE_T = tuple(float(t) for t in np.arange(0.0, HOMODYNE_T + COARSE_STEP / 2.0, COARSE_STEP))
# Width to which golden section refines the optimal t.
T_TOL = 1e-4
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section(f, a, b, tol):
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


def gaussian_discord_golden(p: float, lam: float):
    """``(value, conditional_entropy, t)`` of :func:`gaussian_discord` by the
    25-point scan ``COARSE_T`` followed by golden section at every point,
    ends included."""

    def objective(t):
        return conditional_entropy(p, lam, t)

    best = min(((t, objective(t)) for t in COARSE_T), key=lambda c: c[1])
    lo = max(0.0, best[0] - COARSE_STEP)
    hi = min(HOMODYNE_T, best[0] + COARSE_STEP)
    t_opt, h_min = min([best, golden_section(objective, lo, hi, T_TOL)], key=lambda c: c[1])
    base = exact.reduced_entropy(p, lam) - exact.global_entropy(p, lam)
    return base + h_min, h_min, t_opt


def conditional_entropy_mc(
    p: float,
    lam: float,
    t: float,
    n_samples: int = 200_000,
    seed: int = 0,
):
    """Monte-Carlo oracle for :func:`conditional_entropy`.

    Samples outcomes from the two-component Gaussian mixture and averages
    the conditional entropy; returns (mean, standard error).  The standard
    error needs ``n_samples >= 2``.
    """
    _check_count(n_samples, 2, "n_samples")
    rng = np.random.default_rng(seed)
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
    entropy, _ = conditional_entropy_terms(p, lam, t, x**2, y**2)
    return float(entropy.mean()), float(entropy.std(ddof=1) / math.sqrt(n_samples))


def correlated_block(p: float, lam: float, mu: float, n_max: int) -> np.ndarray:
    """The n_max x n_max matrix c v v^T + diag((1-p)(1-mu^2)^2 mu^(4m)),
    c v_m^2 = p(1-lam^2) lam^(2m), whose eigenvalues are the non-analytic
    part of the global spectrum."""
    WernerParams(p, lam, mu)
    _check_square_size(n_max)
    m = np.arange(n_max, dtype=float)
    v = lam**m
    block = p * (1.0 - lam**2) * np.outer(v, v)
    block[np.diag_indices(n_max)] += (1.0 - p) * (1.0 - mu**2) ** 2 * mu ** (4.0 * m)
    return block


def joint_photon_distribution(p: float, lam: float, mu: float, n_max: int) -> np.ndarray:
    """Photon-count statistics of the Werner state, in closed form:
    p(m, n) = p(1-lam^2) lam^(2m) delta_mn + (1-p)(1-mu^2)^2 mu^(2(m+n))."""
    WernerParams(p, lam, mu)
    _check_square_size(n_max)
    m = np.arange(n_max, dtype=float)
    table = (1.0 - p) * (1.0 - mu**2) ** 2 * mu ** (2.0 * np.add.outer(m, m))
    table[np.diag_indices(n_max)] += p * (1.0 - lam**2) * lam ** (2.0 * m)
    return table


def mid_dense(state: TwoModeState) -> float:
    """Matrix-based measurement-induced disturbance H(p_AB) - S(rho)."""
    joint = np.real(state._diagonal())
    return shannon_entropy(joint) - von_neumann_entropy(eig_spectrum(state))


def covariance_cs(p: float, lam: float):
    """Diagonal C and correlation S entries of the covariance matrix."""
    WernerParams(p, lam)
    c2r = (1.0 + lam**2) / (1.0 - lam**2)
    s2r = 2.0 * lam / (1.0 - lam**2)
    return p * c2r + (1.0 - p), p * s2r


def covariance_matrix(p: float, lam: float) -> np.ndarray:
    """4x4 covariance matrix of the vacuum Werner state (vacuum variance 1)."""
    c, s = covariance_cs(p, lam)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def global_entropy_numeric(p, lam, n_max=None) -> float:
    """Truncated-matrix oracle for :func:`global_entropy`."""
    rho = werner(WernerParams(p, lam, 0.0), n_max)
    return von_neumann_entropy(eig_spectrum(rho))


def reduced_entropy_numeric(p, lam, n_max=None) -> float:
    """Truncated-matrix oracle for :func:`reduced_entropy`."""
    rho = werner(WernerParams(p, lam, 0.0), n_max)
    return von_neumann_entropy(eig_spectrum(partial_trace(rho, "A")))


# The weak-squeezing grid: p near both ends, at 0.3 and at 1/2, lam from
# 1e-8 to 0.5, where the closed forms once cancelled.
WEAK_P = (1e-12, 1e-6, 0.3, 0.5, 1.0 - 1e-6)
WEAK_LAM = tuple(10.0**-k for k in range(8, 0, -1)) + (0.25, 0.5)
# lam toward 1, where 1 - lam^2 once cancelled.
STRONG_LAM = (0.9, 0.99, 0.999, 0.999999, 1.0 - 1e-9, 1.0 - 1e-12)
# Relative error allowed against closed_forms_decimal, about 10 units in
# the last place; the largest seen on these grids is 6.7e-16.
WEAK_SQUEEZING_REL = 2e-15


def closed_forms_decimal(p: float, lam: float, prec: int = 50) -> dict:
    """The vacuum Werner state's closed forms in ``prec``-digit ``decimal``
    arithmetic, in their textbook shapes, which cancel at weak squeezing:
    they keep more than 20 digits while ``prec`` exceeds
    20 + log10(1/(p lam^2)), so the default 50 serves p lam^2 > 1e-30.
    The forms are the eigenvalues (1 +- sqrt(1 - 4p(1-p)lam^2))/2
    and the global entropy from both, the reduced entropy from the
    geometric photon-number series summed in closed form, the symplectic
    eigenvalue sqrt((1 - (1-2p)^2 lam^2) / (1 - lam^2)) and the Gaussian
    reference entropy (nu+1) ln((nu+1)/2) - (nu-1) ln((nu-1)/2)."""
    WernerParams(p, lam)
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        one, two = decimal.Decimal(1), decimal.Decimal(2)
        p, lam = decimal.Decimal(p), decimal.Decimal(lam)

        def xlnx(x):
            return x * x.ln() if x > 0 else decimal.Decimal(0)

        disc = (one - 4 * p * (one - p) * lam**2).sqrt()
        large, small = (one + disc) / two, (one - disc) / two
        s_global = -xlnx(large) - xlnx(small)
        pl2 = p * lam**2
        s_reduced = -xlnx(one - pl2)
        if pl2 > 0:
            s_reduced -= pl2 * (p * (one - lam**2)).ln() + 2 * pl2 * lam.ln() / (one - lam**2)
        nu = ((one - (one - 2 * p) ** 2 * lam**2) / (one - lam**2)).sqrt()
        s_tau = xlnx(nu + one) - (nu + one) * two.ln() - xlnx(nu - one) + (nu - one) * two.ln()
        values = {
            "eig_large": large,
            "eig_small": small,
            "entropy_global": s_global,
            "entropy_reduced": s_reduced,
            "discord": s_reduced - s_global,
            "symplectic_eigenvalue": nu,
            "gaussian_reference_entropy": s_tau,
            "delta0": s_tau - s_global,
        }
        return {k: float(v) for k, v in values.items()}
