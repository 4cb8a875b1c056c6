import math

import numpy as np
import pytest

import helpers_fock as oracle
from cvwerner import exact, gaussian
from cvwerner.gaussian import (
    GaussianPovm,
    QuadratureError,
    _mixture_spectrum,
    conditional_entropy,
    conditional_entropy_mc,
    conditional_params,
    gaussian_discord,
    outcome_norm,
    quadrature_grid,
    weight_densities,
)


def test_povm_validation():
    with pytest.raises(ValueError):
        GaussianPovm(-0.1, 0.0)
    with pytest.raises(ValueError):
        GaussianPovm(1.0, 3.5)


def test_mixture_spectrum_trivial_cases():
    assert _mixture_spectrum(1.0, 0.3) == (1.0, 0.0)
    assert _mixture_spectrum(0.5, 1.0) == (1.0, 0.0)


def test_mixture_spectrum_worked_example():
    nu1, nu2 = _mixture_spectrum(0.5, 0.25)
    assert nu1 == pytest.approx(0.75, abs=1e-15)
    assert nu2 == pytest.approx(0.25, abs=1e-15)


def test_mixture_spectrum_matches_gram_construction():
    rng = np.random.default_rng(5)
    for _ in range(25):
        z1 = rng.uniform(0.0, 1.0)
        ov = rng.uniform(0.0, 1.0)
        c = np.sqrt(ov)
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([c, np.sqrt(1 - ov)])
        sigma = z1 * np.outer(phi1, phi1) + (1 - z1) * np.outer(phi2, phi2)
        direct = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        closed = _mixture_spectrum(z1, ov)
        assert abs(direct[0] - closed[0]) < 1e-12
        assert abs(direct[1] - closed[1]) < 1e-12


def test_conditional_params_trivial():
    # no squeezing in the state: conditional state is the vacuum
    cp = conditional_params(0.0, GaussianPovm(1.3, 0.4), 0.7 + 0.2j)
    assert cp.s == pytest.approx(0.0, abs=1e-15)
    assert abs(cp.beta) == pytest.approx(0.0, abs=1e-15)
    # heterodyne leaves a coherent state for any squeezing
    cp = conditional_params(0.6, GaussianPovm(0.0, 0.0), 1.0)
    assert cp.s == pytest.approx(0.0, abs=1e-15)
    # beta is linear in alpha
    cp = conditional_params(0.6, GaussianPovm(2.0, 0.3), 0.0)
    assert cp.beta == 0.0


def test_conditional_params_heterodyne_displacement():
    # heterodyne on the squeezed vacuum leaves |lam * conj(alpha)>
    lam, alpha = 0.45, 0.8 - 0.3j
    cp = conditional_params(lam, GaussianPovm(0.0, 0.0), alpha)
    assert cp.beta == pytest.approx(lam * np.conj(alpha), abs=1e-14)


def test_conditional_state_matches_fock_oracle():
    # the closed-form (s, beta) reproduce the brute-force conditional vector
    n = 160
    lam = 0.6
    rng = np.random.default_rng(2)
    for t, phi in ((0.0, 0.0), (1.2, 0.7), (0.5, 2.0)):
        alpha = complex(rng.normal(0, 1), rng.normal(0, 1))
        cp = conditional_params(lam, GaussianPovm(t, phi), alpha)
        psi = oracle.povm_state(alpha, t, phi, n)
        w = oracle.tmsv_amplitudes(lam, n) * np.conj(psi)
        w = w / np.linalg.norm(w)
        target = oracle.povm_state(cp.beta, cp.s, -phi, n)
        fidelity = abs(np.vdot(w, target)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_weight_densities_heterodyne_closed_forms():
    lam = 0.5
    povm = GaussianPovm(0.0, 0.0)
    for alpha in (0.3, 1.0 - 0.7j, -2.0 + 0.1j):
        u, v, q = weight_densities(0.5, lam, povm, alpha)
        assert u == pytest.approx((1 - lam**2) * np.exp(-(1 - lam**2) * abs(alpha) ** 2), rel=1e-12)
        assert v == pytest.approx(np.exp(-abs(alpha) ** 2), rel=1e-12)
        assert q == pytest.approx((0.5 * u + 0.5 * v) / np.pi, rel=1e-14)


def test_weight_densities_vacuum_overlap_at_origin():
    for t in (0.5, 2.0, 5.0):
        _, v, _ = weight_densities(0.5, 0.5, GaussianPovm(t, 0.9), 0.0)
        assert v == pytest.approx(1.0 / np.cosh(t), rel=1e-12)


def test_weight_densities_match_fock_oracle():
    # the oracle cutoff must absorb the squeezed state's slow tail,
    # amplitudes ~ tanh(t)^(2n)
    lam = 0.6
    rng = np.random.default_rng(4)
    for t, phi, n in ((0.0, 0.0, 90), (1.0, 0.0, 150), (2.0, 0.4, 420), (0.5, 1.1, 100)):
        alpha = complex(rng.normal(0, 1.2), rng.normal(0, 1.2))
        u, v, _ = weight_densities(0.5, lam, GaussianPovm(t, phi), alpha)
        u_ref, v_ref = oracle.measured_weights(lam, alpha, t, phi, n)
        assert u == pytest.approx(u_ref, rel=1e-9)
        assert v == pytest.approx(v_ref, rel=1e-9)


def test_mixture_weights_sum_to_one():
    p, lam = 0.35, 0.55
    povm = GaussianPovm(1.5, 0.6)
    rng = np.random.default_rng(9)
    alphas = rng.normal(0, 2, 20) + 1j * rng.normal(0, 2, 20)
    u, v, q = weight_densities(p, lam, povm, alphas)
    zeta1 = p * u / (np.pi * q)
    zeta2 = (1 - p) * v / (np.pi * q)
    assert np.max(np.abs(zeta1 + zeta2 - 1.0)) < 1e-12


def test_conditional_entropy_pure_limits():
    assert conditional_entropy(1.0, 0.5, GaussianPovm(1.0, 0.0)) == 0.0
    assert conditional_entropy(0.0, 0.5, GaussianPovm(1.0, 0.0)) == 0.0


def test_conditional_entropy_integrand_matches_fock_oracle():
    # per-outcome entropy and density against the brute-force construction;
    # the oracle cutoff covers displacements up to |alpha| ~ 4
    n = 260
    rng = np.random.default_rng(8)
    for p, lam, t, phi in ((0.5, 0.5, 1.0, 0.0), (0.3, 0.6, 0.8, 0.9)):
        g = 0.5 * t
        for _ in range(6):
            x, y = rng.normal(0, 1.2), rng.normal(0, 1.2)
            alpha = complex(np.exp(g) * x, np.exp(-g) * y) * np.exp(1j * phi)
            entropy, q = gaussian._conditional_entropy_terms(
                p, lam, t, phi, np.array([x]), np.array([y])
            )
            sigma, q_ref = oracle.conditional_state(p, lam, alpha, t, phi, n)
            assert q[0] == pytest.approx(q_ref, rel=1e-9)
            assert entropy[0] == pytest.approx(oracle.entropy(sigma), abs=1e-9)


def test_outcome_norm_across_regimes():
    for lam in (0.05, 0.5, 0.9):
        for t in (0.0, 2.0, gaussian.HOMODYNE_T):
            norm = outcome_norm(0.5, lam, GaussianPovm(t, 0.0))
            assert abs(norm - 1.0) < 1e-7


def test_conditional_entropy_matches_monte_carlo():
    for t in (2.0, gaussian.HOMODYNE_T):
        povm = GaussianPovm(t, 0.0)
        value = conditional_entropy(0.5, 0.5, povm)
        mc, se = conditional_entropy_mc(0.5, 0.5, povm, n_samples=150_000, seed=42)
        assert abs(value - mc) < 3.0 * se


def test_conditional_entropy_phase_independent():
    # gaussian_discord scans t at phi = 0 only, relying on this invariance
    for p in (0.25, 0.75):
        for lam in (0.1, 0.5, 0.9):
            for t in (0.0, 2.0, gaussian.HOMODYNE_T):
                vals = [
                    conditional_entropy(p, lam, GaussianPovm(t, phi))
                    for phi in (0.0, math.pi / 4, math.pi / 2)
                ]
                assert max(vals) - min(vals) < 1e-10, (p, lam, t)


def test_conditional_entropy_quadrature_refinement():
    povm = GaussianPovm(2.0, 0.0)
    h1 = conditional_entropy(0.5, 0.5, povm, n_radial=80, n_angular=64)
    h2 = conditional_entropy(0.5, 0.5, povm, n_radial=160, n_angular=128)
    assert abs(h1 - h2) < 1e-6


def test_conditional_entropy_monotone_ladder():
    povm_vals = [
        conditional_entropy(0.5, 0.5, GaussianPovm(t, 0.0))
        for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(povm_vals, povm_vals[1:]))


def test_quadrature_norm_check_refuses_bad_grid():
    povm = GaussianPovm(0.0, 0.0)
    bad = quadrature_grid(0.5, povm, n_radial=3, n_angular=2)
    with pytest.raises(QuadratureError):
        conditional_entropy(0.5, 0.5, povm, grid=bad)


def test_gaussian_discord_trivial_points():
    for p in (0.0, 1.0):
        res = gaussian_discord(p, 0.5)
        assert res.value == pytest.approx(exact.discord(p, 0.5), abs=1e-12)
        assert res.conditional_entropy == 0.0


def test_gaussian_discord_strictly_above_discord():
    res = gaussian_discord(0.5, 0.5)
    assert res.value - exact.discord(0.5, 0.5) > 1e-3
    assert res.conditional_entropy == pytest.approx(0.19129774, abs=1e-6)
    assert res.povm.t > 11.0  # homodyne proxy wins at moderate squeezing


def test_gaussian_discord_dominates_exact_discord_on_grid():
    for p in (0.25, 0.5, 0.75):
        for lam in (0.1, 0.5, 0.9):
            res = gaussian_discord(p, lam, coarse_step=1.0)
            assert res.value >= exact.discord(p, lam) - 1e-10


def test_gaussian_discord_heterodyne_optimal_at_strong_squeezing():
    # above lam ~ 0.7 the scan favors t = 0 within the Gaussian family
    res = gaussian_discord(0.5, 0.9, coarse_step=1.0)
    assert res.povm.t == pytest.approx(0.0, abs=1e-3)
    assert res.value > exact.discord(0.5, 0.9)
