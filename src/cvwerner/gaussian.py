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
``alpha = exp(i phi) (exp(t/2) x + i exp(-t/2) y)``, where the vacuum
component v is isotropic with rate ``r_v = sech t`` and the squeezed
component u is wider, at most by about ``1/sqrt(1 - lam^2)``.  The
entropy lives where both weigh: with S <= H(z1, z2), ``ln(1 + x) <= x``,
``(1 - p) ln(1/(1 - p)) <= 1/e`` and u's constant at most v's,
``q S <= (v / pi) (1 + 1/e + r_v r^2)``, whose mass beyond
``r_v r^2 = X`` is at most ``(X + 2 + 1/e) exp(-X)``, free of ``p``,
``lam`` and ``t``.  So one Gauss-Legendre rule on the unit disc (radial
nodes on [0, 1], equispaced angles) serves every ``lam`` and ``t``: each
evaluation scales it to the radius ``R^2 = DISC_X cosh t``, by folding
``R^2`` into the coefficients of the integrand, and the rule itself is
built once per pair of node counts.  When it is built, the rule checks its
mass of the vacuum component against the closed form ``1 - exp(-DISC_X)``
within ``EPS_INT``: that mass is the same at every ``p``, ``lam`` and
``t``, so one check serves every evaluation.  All Gaussian decay rates are
evaluated in cancellation-free forms (no ``1 - tanh(t)`` subtractions),
and so is the small eigenvalue of each conditional state, which keeps its
relative precision at weak squeezing and in the tails.

The conditional entropy does not depend on ``phi``: the Werner state is
invariant under opposite phase rotations of its two modes, and such a
rotation turns the measurement at phase ``phi`` into the one at phase 0
without changing any conditional entropy.  So the measurement is its
squeezing ``t``, and ``gaussian_discord`` scans ``t`` alone, at points
uniform in ``tanh t`` (``SCAN_T``).  It takes the lower of the two ends,
heterodyne and homodyne, where the paper finds the Gaussian optimum; the
interior points only guard that finding.  The quadrature uses the same
invariance: in the (x, y) frame the log-weights of both components and
the log-overlap between them are linear in ``x^2`` and ``y^2``, with no
trace of ``phi``, so the integrand is real, phase-free and even in x and
in y.  The rule's angular count is a multiple of 4, and only one angular
node of each reflection class is evaluated, weighted by the class size:
n/4 + 1 of n.

The whole scan is one kernel pass over the rule's nodes.  For each ``t``
it builds the 4 x 3 coefficients of the four linear forms, log(p u),
log((1-p) v), log(z2 / z1) and the log-overlap; the scan stacks them form
by form and multiplies them by the basis ``[1, x^2, y^2]`` that the rule
stores flat, so one product gives all four forms at every node for every
``t``.  Each elementwise step (exp, expm1, sqrt, log, log1p) then runs
once over the whole scan, in place, and each ``t``'s integral is one dot
of its weighted density with its S, with 1/pi and the disc's scale in one
scalar.  Every node sees the arithmetic a single ``t`` would give it, and
each dot sums in the same order, so the values do not depend on which
other ``t`` share the pass.
The complex outcome algebra, kept as the reference for this real
integrand, the same integrand formed quantity by quantity, a Monte-Carlo
estimate of the conditional entropy, the earlier polar grid sized to each
``lam`` and ``t`` and the earlier 25-point scan of ``t`` refined by golden
section live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exact
from .fock import _check_count
from .states import WernerParams

HETERODYNE = 0.0
HOMODYNE_T = 12.0
_T_CAP = 300.0  # exp(2t) must stay finite
# The quadrature disc ends at r_v r^2 = DISC_X, where the bound
# (X + 2 + 1/e) exp(-X) on the entropy beyond it falls to 1.1e-16.
DISC_X = 40.5
# The scan of t: 9 points uniform in tanh t from heterodyne to HOMODYNE_T,
# so dense where h(t) varies (t < 1.4) and sparse where it approaches its
# homodyne value like exp(-2t).  The last point is HOMODYNE_T itself, since
# atanh(tanh 12) is 12 - 1.6e-7.
SCAN_T = tuple(math.atanh(k / 8.0 * math.tanh(HOMODYNE_T)) for k in range(8)) + (HOMODYNE_T,)
# Tolerance on each rule's mass of the vacuum component on its disc.
EPS_INT = 1e-7
# Default node counts of the unit-disc rule, radial and angular.
N_RADIAL = 80
N_ANGULAR = 64
# Largest rule that may be requested, in nodes n_radial x n_angular.
MAX_RULE_NODES = 2**20


class QuadratureError(ValueError):
    """The quadrature rule failed its normalization self-check."""


class OptimizationError(RuntimeError):
    """The measurement optimizer did not produce a usable minimum."""


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


def _linear_forms(p, lam, t, scale):
    """The integrand's four linear forms ``c - a x^2 - b y^2`` at
    ``x^2 = scale x2``, ``y^2 = scale y2`` of the squeezed frame, for any
    ``phi``: the rows ``(c, -(scale a), -(scale b))`` of a 4 x 3 matrix, to
    be multiplied by the basis ``[1, x2, y2]``.  Each rate takes ``scale``
    first, in the order the integrand's reference arithmetic uses.

    In that frame ``beta = exp(-i phi) s2r (z_plus a - i z_minus b)`` with
    ``a = exp(t/2) x``, ``b = exp(-t/2) y``, so ``|beta|^2`` and
    ``Re(exp(2i phi) beta^2)`` lose the phase, and the rows are log(p u),
    log((1-p) v), log(z2 / z1) and the log-overlap of the two components.
    At p = 0 or 1 one weight is exactly zero: its row and log(z2 / z1)
    start at an infinite constant.
    """
    (cu, ux, uy), (cv, vx, _) = _log_density_forms(lam, t)
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_1mp = math.log1p(-p) if p < 1.0 else -math.inf
    # log(z2 / z1) = log((1-p) v) - log(p u): log cosh t cancels from the
    # constant, and the rate differences use (1 -+ tanh t) = exp(-+t) sech t.
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
    s, z_plus, z_minus = _conditional_squeezing(lam, t)
    s2r_sq = _sinh2r(lam) ** 2
    tanh_s = math.tanh(s)
    ox = scale * s2r_sq * (1.0 - tanh_s) * z_plus**2 * math.exp(t)
    oy = scale * s2r_sq * (1.0 + tanh_s) * z_minus**2 * math.exp(-t)
    log_cosh_s = math.log1p(2.0 * math.sinh(s / 2.0) ** 2)
    return np.array(
        [
            [log_p + cu, -(scale * ux), -(scale * uy)],
            [log_1mp + cv, -(scale * vx), -(scale * vx)],
            [d0, -dx, -dy],
            [-log_cosh_s, -ox, -oy],
        ]
    )


def _conditional_entropy_terms(forms, basis):
    """Per-outcome conditional entropy S and ``pi q``, the outcome density
    times pi, at the nodes of ``basis`` (rows ``1, x2, y2``), from the
    ``_linear_forms`` matrices ``forms``: one 4 x 3 matrix, or k of them
    stacked form by form into 4k x 3 (the k rows of each form together).
    With n nodes both results are flat, k n long, in blocks of n, one block
    per matrix in stacking order.

    All four forms at every node of every block come from one product, and
    each elementwise step runs once over all of them, in place.  The
    weights enter S only through ``z1 z2 = E / (1 + E)^2`` with
    ``E = z2 / z1``, which is the same for ``E`` and ``1/E``, so
    ``exp(-|log E|)`` serves and cannot overflow.
    With ``m = 4 z1 z2 (1 - overlap^2)``, ``1 - overlap^2`` from expm1, the
    small eigenvalue ``nu = (1 - sqrt(1 - m)) / 2`` is formed as
    ``m / (2 (1 + sqrt(1 - m)))``, which keeps its relative precision when
    ``m`` is small.  ``nu ln nu`` takes the log of ``max(nu, 5e-324)``,
    which is ``nu`` itself wherever ``nu > 0``, so ``nu = 0`` gives 0.
    """
    f = (forms @ basis).reshape(4, -1)
    pu, v, e, m = f
    np.abs(e, out=e)
    np.negative(e, out=e)
    np.exp(f[:3], out=f[:3])
    pi_q = np.add(pu, v, out=pu)
    # m = -4 e / (1 + e)^2 * expm1(log-overlap), with v as scratch from here
    np.add(e, 1.0, out=v)
    np.multiply(v, v, out=v)
    np.multiply(e, -4.0, out=e)
    np.divide(e, v, out=e)
    np.expm1(m, out=m)
    np.multiply(m, e, out=m)
    np.subtract(1.0, m, out=v)
    np.maximum(v, 0.0, out=v)
    np.sqrt(v, out=v)
    np.add(v, 1.0, out=v)
    np.multiply(v, 2.0, out=v)
    nu = np.divide(m, v, out=m)
    # S = -nu ln nu - (1 - nu) log1p(-nu)
    np.maximum(nu, 5e-324, out=e)
    np.log(e, out=e)
    np.multiply(e, nu, out=e)
    np.negative(nu, out=v)
    np.log1p(v, out=v)
    np.subtract(1.0, nu, out=nu)
    np.multiply(nu, v, out=v)
    np.add(e, v, out=e)
    entropy = np.negative(e, out=e)
    return entropy, pi_q


def _check_measurement(t):
    """Check the measurement squeezing t; NaN is rejected."""
    if not 0.0 <= t <= _T_CAP:
        raise ValueError(f"t={t} outside [0, {_T_CAP}]")


def _check_nodes(n_radial, n_angular):
    """Check the node counts, and return the angular count rounded up to a
    multiple of 4."""
    _check_count(n_radial, 1, "n_radial")
    _check_count(n_angular, 1, "n_angular")
    n_angular = 4 * -(-int(n_angular) // 4)
    if int(n_radial) * n_angular > MAX_RULE_NODES:
        raise ValueError(
            f"a {n_radial}x{n_angular} quadrature rule is above the limit "
            f"{MAX_RULE_NODES} nodes"
        )
    return n_angular


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


@dataclass(frozen=True)
class _DiscRule:
    """Folded polar Gauss-Legendre rule on the unit disc, flat: the basis
    ``[1, x^2, y^2]`` of the integrand's linear forms at one angular node
    of each reflection class, the weights ``r dr dtheta`` times the class
    sizes, and the rule's mass of the vacuum component
    ``exp(-DISC_X r^2) DISC_X / pi``."""

    basis: np.ndarray
    weights: np.ndarray
    vacuum_mass: float


@lru_cache(maxsize=8)
def _disc_rule(n_radial, n_angular):
    """The rule of ``n_radial x n_angular`` nodes; ``QuadratureError`` when
    its mass of the vacuum component misses ``1 - exp(-DISC_X)`` by more
    than ``EPS_INT``, a failure the cache does not keep."""
    xg, wg = np.polynomial.legendre.leggauss(n_radial)
    r = ((xg + 1.0) / 2.0)[:, None]
    size = _angular_fold(n_angular)
    theta = 2.0 * math.pi * np.arange(size.size) / n_angular
    x2, y2 = (r * np.cos(theta)) ** 2, (r * np.sin(theta)) ** 2
    weights = r * (wg / 2.0)[:, None] * (size * (2.0 * math.pi / n_angular))
    vacuum_mass = float((weights * np.exp(-DISC_X * (x2 + y2))).sum()) * DISC_X / math.pi
    defect = vacuum_mass + math.expm1(-DISC_X)
    if abs(defect) > EPS_INT:
        raise QuadratureError(
            f"vacuum component integrates to {vacuum_mass!r} on the disc "
            f"(defect {defect:.3e} > EPS_INT={EPS_INT:g}), "
            f"nodes={n_radial}x{n_angular}"
        )
    basis = np.stack([np.ones(x2.size), x2.ravel(), y2.ravel()])
    weights = weights.ravel()
    # Every caller shares the cached arrays.
    for a in (basis, weights):
        a.flags.writeable = False
    return _DiscRule(basis, weights, vacuum_mass)


def _integrate(p, lam, ts, rule):
    """Integrals of q S over the discs ``r_v r^2 <= DISC_X``, one for each
    measurement squeezing in ``ts``, as a list of floats.

    The unit-disc rule is scaled to ``R^2 = DISC_X cosh t``: the integrand's
    rates take the factor R^2, and the area element takes it once more,
    together with the 1/pi of q.  All of ``ts`` share one kernel pass: the
    ``_linear_forms`` matrices are stacked form by form into one (4k, 3)
    matrix, whose product with the basis is the (4, k n) array of the four
    forms at every node and every t.  Each integral is then one dot over its
    own n nodes, in the order a single t would take.
    """
    scales = [DISC_X * math.cosh(t) for t in ts]
    forms = np.stack([_linear_forms(p, lam, t, s) for t, s in zip(ts, scales)], axis=1)
    entropy, pi_q = _conditional_entropy_terms(forms.reshape(-1, 3), rule.basis)
    n = rule.weights.size
    entropy, pi_q = entropy.reshape(-1, n), pi_q.reshape(-1, n)
    np.multiply(pi_q, rule.weights, out=pi_q)
    return [s / math.pi * float(np.dot(w, e)) for s, w, e in zip(scales, pi_q, entropy)]


def _checked_rule(p, lam, n_radial, n_angular):
    """The unit-disc rule of ``n_radial x n_angular`` nodes for the point
    ``(p, lam)``, after checking the point and the node counts; None at
    p = 0 or 1, where every conditional state is pure and no rule is built.
    A rule that fails its own check raises ``QuadratureError``."""
    WernerParams(p, lam)
    n_angular = _check_nodes(n_radial, n_angular)
    if p == 0.0 or p == 1.0:
        return None
    return _disc_rule(int(n_radial), n_angular)


def conditional_entropy(
    p: float,
    lam: float,
    t: float,
    n_radial: int = N_RADIAL,
    n_angular: int = N_ANGULAR,
) -> float:
    """Average post-measurement entropy  integral of q(alpha) S(rho|alpha).

    Refuses with ``QuadratureError`` when the rule fails to reproduce the
    vacuum component's mass on the disc within ``EPS_INT``.  The angular
    count is rounded up to a multiple of 4.  At p = 0 or 1 every conditional
    state is pure, and it returns 0 without building a rule.  Node counts
    that are not integers of at least 1, a rule above ``MAX_RULE_NODES``
    nodes, and a measurement squeezing ``t`` outside [0, 300] raise
    ``ValueError``, there too.
    """
    _check_measurement(t)
    rule = _checked_rule(p, lam, n_radial, n_angular)
    return 0.0 if rule is None else _integrate(p, lam, (t,), rule)[0]


@dataclass(frozen=True)
class GaussianDiscordResult:
    """Gaussian discord ``value``, the least ``conditional_entropy`` over
    the scanned measurements, the measurement squeezing ``t`` that attains
    it, always an end of the scan (0 or ``HOMODYNE_T``), and the number of
    conditional-entropy ``evaluations`` spent."""

    value: float
    conditional_entropy: float
    t: float
    evaluations: int


def gaussian_discord(p: float, lam: float) -> GaussianDiscordResult:
    """Discord restricted to Gaussian measurements, with its minimizer.

    Evaluates the conditional entropy h(t) at the 9 points ``SCAN_T``
    uniform in ``tanh t``, in one kernel pass over the rule's nodes, each
    value the one ``conditional_entropy`` gives at its t.  It returns the
    lower end of the scan: heterodyne ``t = 0`` or the homodyne proxy
    ``HOMODYNE_T``, and ``t = 0`` on a tie.
    The paper finds the Gaussian optimum at one of these two measurements.
    The 7 interior points guard that finding: an interior value below the
    lower end, a non-finite value or a minimum below -1e-12 raises
    ``OptimizationError`` with the scan in its message.  The guard only
    samples h, so it does not prove an end optimal; a dip narrower than the
    scan spacing would pass it.  The inputs are checked once, before the
    scan; the default rule checked its own mass when it was built.
    No phase is scanned: the state is invariant under opposite phase
    rotations of its two modes, so the conditional entropy of the
    measurement ``xi = t exp(2i phi)`` does not depend on phi.  At strong
    squeezing (``lam`` above about 0.7) heterodyne rather than homodyne is
    the Gaussian-optimal measurement.
    """
    base = exact.reduced_entropy(p, lam) - exact.global_entropy(p, lam)
    if p == 0.0 or p == 1.0:
        return GaussianDiscordResult(base, 0.0, 0.0, 0)

    rule = _checked_rule(p, lam, N_RADIAL, N_ANGULAR)
    scan_h = _integrate(p, lam, SCAN_T, rule)
    k = 0 if scan_h[0] <= scan_h[-1] else len(SCAN_T) - 1
    h_min = scan_h[k]
    if not all(map(math.isfinite, scan_h)) or min(scan_h) < h_min or h_min < -1e-12:
        raise OptimizationError(
            "conditional entropy is not finite, non-negative and least at an "
            f"end of the t scan; scan: {list(zip(SCAN_T, scan_h))}"
        )
    return GaussianDiscordResult(base + h_min, h_min, SCAN_T[k], len(SCAN_T))
