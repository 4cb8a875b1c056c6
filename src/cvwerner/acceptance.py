"""End-to-end acceptance checks.

Each check exercises one headline property of the package at a fixed
tolerance and returns a :class:`CheckResult`; ``run_all`` executes the
whole battery.  The CLI ``verify`` subcommand prints one line per check
and exits nonzero if any fail; the pytest suite asserts them one by one.

The third check (``low-squeezing-ratio-pi``) targets a pi-scaled form of
the non-Gaussianity/gap ratio that the defining conditional-entropy
integral does not actually satisfy: the measured ratio approaches 1, not
pi, at vanishing squeezing (the unscaled quadratic-order prediction is
matched to well under a percent).  The check is kept in its pi-scaled
form deliberately and is expected to fail; its detail line reports both
comparisons.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds, exact, gaussian, nongauss, ppt, states
from .fock import eig_spectrum, is_more_mixed, partial_transpose
from .states import WernerParams, choose_cutoff

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s): {self.detail}"


def _finish(name, started, passed, detail):
    return CheckResult(name, bool(passed), detail, time.perf_counter() - started)


def _guard(name, fn):
    started = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a failed internal identity is a failed check
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return _finish(name, started, passed, detail)


def check_exact_discord_oracle(seed=DEFAULT_SEED):
    """Closed-form discord equals S(rho_B) - S(rho) from truncated matrices
    at 50 random (p, lam) points, within 1e-8, in under 30 s."""

    def body():
        rng = np.random.default_rng(seed)
        worst = 0.0
        t0 = time.perf_counter()
        for _ in range(50):
            p = rng.uniform(0.02, 0.98)
            lam = rng.uniform(0.05, 0.65)
            n = choose_cutoff(WernerParams(p, lam, 0.0), 1e-12)
            worst = max(worst, abs(exact.discord(p, lam) - exact.discord_numeric(p, lam, n)))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed < 30.0
        return ok, f"max |closed - matrix| = {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)"

    return _guard("exact-discord-oracle", body)


def check_photon_counting_optimality():
    """At mu = 0 the photon-counting conditional entropy vanishes (so the
    upper bound is the discord) and the Gaussian discord exceeds the true
    discord by more than 1e-3 at (0.5, 0.5)."""

    def body():
        t0 = time.perf_counter()
        worst_h = 0.0
        worst_u = 0.0
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for lam in (0.1, 0.3, 0.5, 0.65, 0.8):
                params = WernerParams(p, lam, 0.0)
                n = choose_cutoff(params, 1e-12)
                h = bounds._conditional_entropy_direct(p, lam, 0.0, n)
                worst_h = max(worst_h, abs(h))
                upper = bounds.bounds_report(params, n).upper
                worst_u = max(worst_u, abs(upper - exact.discord(p, lam)))
        margin = gaussian.gaussian_discord(0.5, 0.5).value - exact.discord(0.5, 0.5)
        elapsed = time.perf_counter() - t0
        ok = worst_h <= 1e-12 and worst_u <= 1e-8 and margin > 1e-3 and elapsed < 300.0
        return ok, (
            f"max |H_eig| = {worst_h:.1e} (tol 1e-12), max |U - D| = {worst_u:.2e} "
            f"(tol 1e-8), gaussian margin = {margin:.4f} (> 1e-3), {elapsed:.1f}s"
        )

    return _guard("photon-counting-optimality", body)


def check_low_squeezing_ratio_pi():
    """Pi-scaled low-squeezing ratio check; see the module docstring."""

    def body():
        def ratio(lam):
            gap = gaussian.gaussian_discord(0.5, lam).conditional_entropy
            return nongauss.nongaussianity(0.5, lam) / gap

        r005, r02 = ratio(0.05), ratio(0.2)
        pi_scaled = math.pi * nongauss.low_squeezing_ratio(0.05)
        rel = abs(r005 - pi_scaled) / pi_scaled
        trend = abs(r005 - math.pi) < abs(r02 - math.pi)
        unscaled_rel = abs(r005 - nongauss.low_squeezing_ratio(0.05)) / nongauss.low_squeezing_ratio(0.05)
        ok = rel < 0.05 and trend
        return ok, (
            f"ratio(0.05) = {r005:.4f} vs pi-scaled prediction {pi_scaled:.4f} "
            f"(rel {rel:.3f}, tol 0.05); |ratio - pi|: {abs(r02 - math.pi):.3f} -> "
            f"{abs(r005 - math.pi):.3f} (must decrease: {trend}); "
            f"unscaled prediction matched to rel {unscaled_rel:.4f}"
        )

    return _guard("low-squeezing-ratio-pi", body)


def check_trivial_points():
    """Every measure vanishes at p = 0, and the non-Gaussianity at p = 1,
    each within 1e-10."""

    def body():
        vals = {}
        vals["discord(p=0)"] = exact.discord(0.0, 0.5)
        vals["delta0(p=0)"] = nongauss.nongaussianity(0.0, 0.5)
        vals["gap(p=0)"] = gaussian.gaussian_discord(0.0, 0.5).conditional_entropy
        vals["delta0(p=1)"] = nongauss.nongaussianity(1.0, 0.5)
        for lam, mu in ((0.5, 0.5), (0.7, 0.3)):
            rep = bounds.bounds_report(WernerParams(0.0, lam, mu), eps_tail=1e-13)
            vals[f"U(0,{lam},{mu})"] = rep.upper
            vals[f"L+(0,{lam},{mu})"] = max(rep.lower, 0.0)
            vals[f"mid(0,{lam},{mu})"] = rep.mid
        worst = max(abs(v) for v in vals.values())
        ok = worst <= 1e-10
        return ok, f"max |value| at trivial points = {worst:.2e} (tol 1e-10)"

    return _guard("trivial-points", body)


_GRID_P = (0.05, 0.275, 0.5, 0.725, 0.95)
_GRID_LM = (0.1, 0.3, 0.5, 0.65, 0.8)


def check_mid_identity():
    """MID equals the photon-counting upper bound within 1e-8 on a 5x5x5
    (p, lam, mu) grid, in under 10 minutes."""

    def body():
        t0 = time.perf_counter()
        worst = 0.0
        for p in _GRID_P:
            for lam in _GRID_LM:
                for mu in _GRID_LM:
                    rep = bounds.bounds_report(WernerParams(p, lam, mu))
                    worst = max(worst, abs(rep.mid - rep.upper))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed < 600.0
        return ok, f"max |MID - U| = {worst:.2e} (tol 1e-8) over 125 points, {elapsed:.1f}s"

    return _guard("mid-equals-upper-bound", body)


def check_bound_ordering():
    """max(L, 0) <= U on the 5x5x5 grid; L = U at p = 1 within 1e-8."""

    def body():
        worst_gap = 0.0
        for p in _GRID_P:
            for lam in _GRID_LM:
                for mu in _GRID_LM:
                    rep = bounds.bounds_report(WernerParams(p, lam, mu))
                    worst_gap = max(worst_gap, max(rep.lower, 0.0) - rep.upper)
        worst_eq = 0.0
        for lam in _GRID_LM:
            for mu in _GRID_LM:
                rep = bounds.bounds_report(WernerParams(1.0, lam, mu))
                worst_eq = max(worst_eq, abs(rep.upper - rep.lower))
        ok = worst_gap <= 1e-12 and worst_eq <= 1e-8
        return ok, (
            f"max(L+ - U) = {worst_gap:.2e} (<= 0 required), "
            f"max |U - L| at p=1 = {worst_eq:.2e} (tol 1e-8)"
        )

    return _guard("bound-ordering", body)


def check_separability_thresholds():
    """Closed-form thresholds at mu = 0.8 and the numerical sign change of
    the partial transpose bracketing p_ppt within 0.005."""

    def body():
        mu = 0.8
        dev_sep = abs(bounds.p_separable(mu) - 0.084199)
        dev_ppt = abs(bounds.p_ppt(mu) - 0.195704)
        p_star = bounds.p_ppt(mu)

        def min_eig(p):
            params = WernerParams(p, mu**4, mu)
            n = choose_cutoff(params, 1e-10)
            rho = states.werner(params, n)
            return float(eig_spectrum(partial_transpose(rho, "A")).min())

        below = min_eig(p_star - 0.005)
        above = min_eig(p_star + 0.005)
        ok = dev_sep <= 1e-6 and dev_ppt <= 1e-6 and below >= -1e-10 and above < -1e-10
        return ok, (
            f"|p_sep - 0.084199| = {dev_sep:.1e}, |p_ppt - 0.195704| = {dev_ppt:.1e} "
            f"(tol 1e-6); min eig of partial transpose: {below:.2e} at p_ppt-0.005 "
            f"(>= -1e-10), {above:.2e} at p_ppt+0.005 (< -1e-10)"
        )

    return _guard("separability-thresholds", body)


def check_ppt_analytics():
    """Analytic U = lam ln 2 matches the dense matrix route within 1e-6;
    the spectrum matches its closed form within 1e-10; L(0.5) is 0.165
    within 2e-3; U(0.999) exceeds 0.692."""

    def body():
        details = []
        worst_u = 0.0
        for lam, n in ((0.2, 24), (0.5, 44), (0.8, 76)):
            state = states.ppt_werner(lam, n)
            dev = abs(bounds.upper_bound_dense(state) - ppt.upper_bound(lam))
            worst_u = max(worst_u, dev)
            details.append(f"U dev {dev:.1e} at lam={lam} (n={n})")
        spec_n = 40
        state = states.ppt_werner(0.5, spec_n)
        spec = eig_spectrum(state)
        closed = ppt.closed_form_spectrum(0.5, spec_n)
        k = closed.size  # the remaining n(n-1)/2 eigenvalues are exact zeros
        spec_dev = float(
            max(np.max(np.abs(spec[:k] - closed)), np.max(np.abs(spec[k:])))
        )
        low_dev = abs(ppt.bounds(0.5).lower - 0.165)
        u_end = ppt.upper_bound(0.999)
        ok = worst_u <= 1e-6 and spec_dev <= 1e-10 and low_dev <= 2e-3 and u_end > 0.692
        return ok, (
            f"{'; '.join(details)} (tol 1e-6); spectrum dev {spec_dev:.1e} (tol 1e-10); "
            f"|L(0.5) - 0.165| = {low_dev:.2e} (tol 2e-3); U(0.999) = {u_end:.5f} (> 0.692)"
        )

    return _guard("ppt-analytics", body)


def check_quadrature_robustness():
    """Node doubling moves the conditional entropy by < 1e-6, and the
    default quadrature rule holds the vacuum component's mass on its disc
    within ``gaussian.EPS_INT``, the rule's own self-check."""

    def body():
        p, lam, t = 0.5, 0.5, 2.0
        h1 = gaussian.conditional_entropy(p, lam, t, n_radial=80, n_angular=64)
        h2 = gaussian.conditional_entropy(p, lam, t, n_radial=160, n_angular=128)
        refine = abs(h1 - h2)
        defect = abs(gaussian._disc_rule(gaussian.N_RADIAL, gaussian.N_ANGULAR).vacuum_mass - 1.0)
        margin = gaussian.EPS_INT / defect if defect > 0 else float("inf")
        ok = refine < 1e-6 and defect <= gaussian.EPS_INT
        return ok, (
            f"refinement change {refine:.2e} (tol 1e-6); vacuum-mass defect {defect:.2e} "
            f"(tol {gaussian.EPS_INT:g}, margin {margin:.0f}x)"
        )

    return _guard("quadrature-robustness", body)


def check_majorization_amid(seed=DEFAULT_SEED):
    """The reduced state majorizes the global one on a 10x10 grid, and
    discord = AMID = REQ within 1e-8 at 10 random points."""

    def body():
        for p in np.linspace(0.05, 0.95, 10):
            for lam in np.linspace(0.05, 0.85, 10):
                n = choose_cutoff(WernerParams(p, lam, 0.0), 1e-12)
                reduced = bounds.reduced_spectrum(p, lam, 0.0, n)
                if not is_more_mixed(reduced, exact.eigenvalue_pair(p, lam)):
                    return False, f"majorization fails at p={p:.3f}, lam={lam:.3f}"
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(10):
            p = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.05, 0.65)
            n = choose_cutoff(WernerParams(p, lam, 0.0), 1e-12)
            d, amid, req = exact.quantumness_indicators(p, lam, n)
            worst = max(worst, abs(d - amid), abs(d - req), abs(amid - req))
        ok = worst <= 1e-8
        return ok, f"majorization holds on 10x10 grid; max indicator spread = {worst:.2e} (tol 1e-8)"

    return _guard("majorization-amid", body)


def run_all(seed=DEFAULT_SEED):
    """Run the full battery in order and return the results."""
    return [
        check_exact_discord_oracle(seed),
        check_photon_counting_optimality(),
        check_low_squeezing_ratio_pi(),
        check_trivial_points(),
        check_mid_identity(),
        check_bound_ordering(),
        check_separability_thresholds(),
        check_ppt_analytics(),
        check_quadrature_robustness(),
        check_majorization_amid(seed),
    ]
