import math
import re
import tracemalloc

import numpy as np
import pytest

import helpers_fock as oracle
from cvwerner import exact, gaussian
from cvwerner.gaussian import (
    DISC_X,
    HOMODYNE_T,
    MAX_RULE_NODES,
    N_ANGULAR,
    N_RADIAL,
    SCAN_T,
    OptimizationError,
    QuadratureError,
    conditional_entropy,
    gaussian_discord,
)
from helpers_oracles import (
    angular_fold,
    conditional_entropy_mc,
    conditional_entropy_terms,
    conditional_params,
    disc_grid,
    T_TOL,
    gaussian_discord_golden,
    grid_integrals,
    mixture_entropy,
    quadrature_grid,
    small_eigenvalue,
    weight_densities,
)


@pytest.mark.parametrize("t", [-0.1, 301, math.nan])
@pytest.mark.parametrize("call", ["quadrature", "pure"])
def test_measurement_squeezing_range(call, t):
    # t is checked at p = 0 too, where every conditional state is pure.
    calls = {
        "quadrature": lambda: conditional_entropy(0.5, 0.5, t),
        "pure": lambda: conditional_entropy(0.0, 0.5, t),
    }
    with pytest.raises(ValueError, match=re.escape(f"t={t} outside [0, 300.0]")):
        calls[call]()


def _m(z1, ov):
    # m = 4 z1 (1 - z1) (1 - |<a|b>|^2) of the mixture z1 |a><a| + (1 - z1) |b><b|
    return 4.0 * z1 * (1.0 - z1) * (1.0 - ov)


def test_small_eigenvalue_trivial_cases():
    # a pure mixture (one weight, or equal states) and the maximally mixed one
    assert small_eigenvalue(_m(1.0, 0.3)) == 0.0
    assert small_eigenvalue(_m(0.5, 1.0)) == 0.0
    assert small_eigenvalue(_m(0.5, 0.0)) == 0.5


def test_small_eigenvalue_worked_example():
    assert small_eigenvalue(_m(0.5, 0.25)) == pytest.approx(0.25, abs=1e-15)


def test_small_eigenvalue_matches_gram_construction():
    rng = np.random.default_rng(5)
    for _ in range(25):
        z1 = rng.uniform(0.0, 1.0)
        ov = rng.uniform(0.0, 1.0)
        c = np.sqrt(ov)
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([c, np.sqrt(1 - ov)])
        sigma = z1 * np.outer(phi1, phi1) + (1 - z1) * np.outer(phi2, phi2)
        direct = np.linalg.eigvalsh(sigma)[0]
        assert abs(direct - small_eigenvalue(_m(z1, ov))) < 1e-12


def _kernel_terms(p, lam, t, x2, y2, scale=1.0):
    """The package's per-node S and q at ``x^2 = scale x2``, ``y^2 = scale
    y2``, shaped like ``x2``."""
    basis = np.stack([np.ones(x2.size), x2.ravel(), y2.ravel()])
    entropy, pi_q = gaussian._conditional_entropy_terms(gaussian._linear_forms(p, lam, t, scale), basis)
    return entropy.reshape(x2.shape), (pi_q / math.pi).reshape(x2.shape)


def test_conditional_params_trivial():
    # no squeezing in the state: conditional state is the vacuum
    cp = conditional_params(0.0, 1.3, 0.4, 0.7 + 0.2j)
    assert cp.s == pytest.approx(0.0, abs=1e-15)
    assert abs(cp.beta) == pytest.approx(0.0, abs=1e-15)
    # heterodyne leaves a coherent state for any squeezing
    cp = conditional_params(0.6, 0.0, 0.0, 1.0)
    assert cp.s == pytest.approx(0.0, abs=1e-15)
    # beta is linear in alpha
    cp = conditional_params(0.6, 2.0, 0.3, 0.0)
    assert cp.beta == 0.0


def test_conditional_params_heterodyne_displacement():
    # heterodyne on the squeezed vacuum leaves |lam * conj(alpha)>
    lam, alpha = 0.45, 0.8 - 0.3j
    cp = conditional_params(lam, 0.0, 0.0, alpha)
    assert cp.beta == pytest.approx(lam * np.conj(alpha), abs=1e-14)


def test_conditional_state_matches_fock_oracle():
    # the closed-form (s, beta) reproduce the brute-force conditional vector
    n = 160
    lam = 0.6
    rng = np.random.default_rng(2)
    for t, phi in ((0.0, 0.0), (1.2, 0.7), (0.5, 2.0)):
        alpha = complex(rng.normal(0, 1), rng.normal(0, 1))
        cp = conditional_params(lam, t, phi, alpha)
        psi = oracle.povm_state(alpha, t, phi, n)
        w = oracle.tmsv_amplitudes(lam, n) * np.conj(psi)
        w = w / np.linalg.norm(w)
        target = oracle.povm_state(cp.beta, cp.s, -phi, n)
        fidelity = abs(np.vdot(w, target)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_weight_densities_heterodyne_closed_forms():
    lam = 0.5
    for alpha in (0.3, 1.0 - 0.7j, -2.0 + 0.1j):
        u, v, q = weight_densities(0.5, lam, 0.0, 0.0, alpha)
        assert u == pytest.approx((1 - lam**2) * np.exp(-(1 - lam**2) * abs(alpha) ** 2), rel=1e-12)
        assert v == pytest.approx(np.exp(-abs(alpha) ** 2), rel=1e-12)
        assert q == pytest.approx((0.5 * u + 0.5 * v) / np.pi, rel=1e-14)


def test_weight_densities_vacuum_overlap_at_origin():
    for t in (0.5, 2.0, 5.0):
        _, v, _ = weight_densities(0.5, 0.5, t, 0.9, 0.0)
        assert v == pytest.approx(1.0 / np.cosh(t), rel=1e-12)


def test_weight_densities_match_fock_oracle():
    # the oracle cutoff must absorb the squeezed state's slow tail,
    # amplitudes ~ tanh(t)^(2n)
    lam = 0.6
    rng = np.random.default_rng(4)
    for t, phi, n in ((0.0, 0.0, 90), (1.0, 0.0, 150), (2.0, 0.4, 420), (0.5, 1.1, 100)):
        alpha = complex(rng.normal(0, 1.2), rng.normal(0, 1.2))
        u, v, _ = weight_densities(0.5, lam, t, phi, alpha)
        u_ref, v_ref = oracle.measured_weights(lam, alpha, t, phi, n)
        assert u == pytest.approx(u_ref, rel=1e-9)
        assert v == pytest.approx(v_ref, rel=1e-9)


def test_mixture_weights_sum_to_one():
    p, lam = 0.35, 0.55
    rng = np.random.default_rng(9)
    alphas = rng.normal(0, 2, 20) + 1j * rng.normal(0, 2, 20)
    u, v, q = weight_densities(p, lam, 1.5, 0.6, alphas)
    zeta1 = p * u / (np.pi * q)
    zeta2 = (1 - p) * v / (np.pi * q)
    assert np.max(np.abs(zeta1 + zeta2 - 1.0)) < 1e-12


def test_conditional_entropy_pure_limits():
    assert conditional_entropy(1.0, 0.5, 1.0) == 0.0
    assert conditional_entropy(0.0, 0.5, 1.0) == 0.0
    for p in (0.0, 1.0):
        assert conditional_entropy_mc(p, 0.5, 1.0, n_samples=1000) == (0.0, 0.0)


@pytest.mark.parametrize(
    "call, kwargs, message",
    [
        ("mc", {"n_samples": 1}, "n_samples=1 outside [2, inf)"),
        ("mc", {"n_samples": 0}, "n_samples=0 outside [2, inf)"),
        ("mc", {"n_samples": -1}, "n_samples=-1 outside [2, inf)"),
        ("quadrature", {"n_radial": 0}, "n_radial=0 outside [1, inf)"),
        ("quadrature", {"n_angular": -4}, "n_angular=-4 outside [1, inf)"),
        # No rule is built at p = 1, but the counts are still checked.
        ("pure", {"n_radial": 0}, "n_radial=0 outside [1, inf)"),
        ("quadrature", {"n_angular": math.nan}, "n_angular=nan outside the integers"),
        ("quadrature", {"n_radial": math.inf}, "n_radial=inf outside the integers"),
        ("quadrature", {"n_radial": 80.5}, "n_radial=80.5 outside the integers"),
        ("quadrature", {"n_angular": 64.0}, "n_angular=64.0 outside the integers"),
        ("pure", {"n_radial": -math.inf}, "n_radial=-inf outside the integers"),
    ],
)
def test_sample_and_node_counts_name_their_limit(call, kwargs, message):
    het = gaussian.HETERODYNE
    calls = {
        "mc": lambda: conditional_entropy_mc(0.5, 0.5, het, **kwargs),
        "quadrature": lambda: conditional_entropy(0.5, 0.5, het, **kwargs),
        "pure": lambda: conditional_entropy(1.0, 0.5, het, **kwargs),
    }
    with pytest.raises(ValueError, match=re.escape(message)):
        calls[call]()


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
            entropy, q = _kernel_terms(p, lam, t, np.array([x**2]), np.array([y**2]))
            sigma, q_ref = oracle.conditional_state(p, lam, alpha, t, phi, n)
            assert q[0] == pytest.approx(q_ref, rel=1e-9)
            assert entropy[0] == pytest.approx(oracle.entropy(sigma), abs=1e-9)


def _complex_terms(p, lam, t, phi, grid):
    """Per-node conditional entropy S and outcome density q on every node of
    ``grid``, for the measurement ``xi = t exp(2i phi)``, from the complex
    outcome algebra of ``weight_densities`` and ``conditional_params``.

    Evaluated in extended precision: at t = 12 the outcomes reach
    ``|alpha| ~ 1e5``, and rotating them by ``phi`` in double precision
    costs ~1e-11 in their small component, which alone moves the sums by
    up to 3e-13.
    """
    ext = np.longdouble
    phi = ext(phi)
    r = grid.radial_nodes.astype(ext)[:, None]
    theta = grid.angular_nodes.astype(ext)[None, :]
    g = ext(t) / 2
    x, y = r * np.cos(theta), r * np.sin(theta)
    alpha = np.exp(1j * phi) * (np.exp(g) * x + 1j * np.exp(-g) * y)
    u, v, q = weight_densities(p, lam, t, phi, alpha)
    cp = conditional_params(lam, t, phi, alpha)
    s = ext(cp.s)
    re_beta_sq = np.real(np.exp(2j * phi) * cp.beta**2)
    log_overlap_sq = -np.abs(cp.beta) ** 2 + np.tanh(s) * re_beta_sq - np.log(np.cosh(s))
    w = p * u + (1 - p) * v
    return mixture_entropy(p * u / w, (1 - p) * v / w, -np.expm1(log_overlap_sq)), q


def _unfolded_complex_integrals(p, lam, t, phi, grid):
    """Integrals of q S and of q over every node of ``grid``, from
    :func:`_complex_terms`."""
    entropy, q = _complex_terms(p, lam, t, phi, grid)
    weights = (grid.radial_weights * grid.radial_nodes)[:, None] * grid.angular_weights[None, :]
    return float((weights * q * entropy).sum()), float((weights * q).sum())


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision longdouble"
)


def test_angular_fold_matches_reflection_classes():
    # the closed form against the classes listed image by image
    for n in range(4, 1001, 4):
        rep, size = angular_fold(n)
        np.testing.assert_array_equal(rep, np.arange(n // 4 + 1))
        np.testing.assert_array_equal(gaussian._angular_fold(n), size)


@needs_longdouble
@pytest.mark.parametrize("n_angular", [64, 66, 65])  # each rounded up to a multiple of 4
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_folded_integral_matches_unfolded_complex_sum(p, n_angular):
    # one angular node per reflection class of the real integrand, on the
    # scaled unit-disc rule, against every node of that rule under the
    # complex algebra, at a phase phi != 0
    n_ang = {64: 64, 65: 68, 66: 68}[n_angular]
    rule = gaussian._disc_rule(80, n_ang)
    assert rule.basis.shape == (3, 80 * (n_ang // 4 + 1))
    for lam in (0.0, 0.5, 0.98):
        for t in (0.0, 2.0, HOMODYNE_T):
            grid = disc_grid(t, n_angular=n_angular)
            assert grid.angular_nodes.size == n_ang
            scale = DISC_X * math.cosh(t)
            (value,) = gaussian._integrate(p, lam, (t,), rule)
            _, q = _kernel_terms(p, lam, t, rule.basis[1], rule.basis[2], scale)
            norm = scale * float((rule.weights * q).sum())
            ref_value, ref_norm = _unfolded_complex_integrals(p, lam, t, 0.9, grid)
            assert norm == pytest.approx(ref_norm, rel=1e-13, abs=0.0), (lam, t)
            assert value == pytest.approx(ref_value, rel=1e-13, abs=0.0), (lam, t)


@needs_longdouble
def test_integrand_keeps_relative_precision_at_weak_squeezing_and_in_tails():
    # Per-node entropies down to 1e-290 against the extended-precision complex
    # algebra, on the scaled unit-disc rule and, for deeper tails, on the
    # sized grid.  Forming the small eigenvalue as (1 - sqrt(1 - m))/2 loses
    # up to 5e-8 of it at lam = 0.05 and flushes it to 0 in the tails at 0.9.
    worst = 0.0
    for p in (0.05, 0.5):
        for lam in (0.05, 0.5, 0.9):
            for t in (0.0, 2.0, HOMODYNE_T):
                for grid in (disc_grid(t), quadrature_grid(lam, t)):
                    r = grid.radial_nodes[:, None]
                    theta = grid.angular_nodes[None, :]
                    entropy, _ = _kernel_terms(
                        p, lam, t, (r * np.cos(theta)) ** 2, (r * np.sin(theta)) ** 2
                    )
                    ref, _ = _complex_terms(p, lam, t, 0.0, grid)
                    kept = ref > 1e-290
                    worst = max(worst, float(np.max(np.abs(entropy[kept] / ref[kept] - 1.0))))
    assert worst < 1e-12


# The kernel-oracle grid: p near both ends and at 1/2, lam from weak
# squeezing to 1 - 1e-4, through the heterodyne-homodyne switch.
KERNEL_P = (1e-12, 0.01, 0.5, 1.0 - 1e-6)
KERNEL_LAM = (1e-6, 0.01, 0.3, 0.72, 0.9, 0.9999)
KERNEL_RULES = ((80, 64), (160, 128))


@pytest.mark.parametrize("n_radial, n_angular", KERNEL_RULES)
def test_kernel_matches_reference_arithmetic(n_radial, n_angular):
    # The linear forms from one product and the in-place steps against the
    # same integrand formed quantity by quantity: per node within 1e-12
    # relative wherever S > 1e-290, and per integral within 2e-15 relative.
    rule = gaussian._disc_rule(n_radial, n_angular)
    x2, y2 = rule.basis[1], rule.basis[2]
    for p in KERNEL_P:
        for lam in KERNEL_LAM:
            for t in SCAN_T:
                scale = DISC_X * math.cosh(t)
                entropy, q = _kernel_terms(p, lam, t, x2, y2, scale)
                ref_entropy, ref_q = conditional_entropy_terms(p, lam, t, x2, y2, scale)
                kept = ref_entropy > 1e-290
                assert np.max(np.abs(entropy[kept] / ref_entropy[kept] - 1.0)) < 1e-12, (p, lam, t)
                assert np.max(np.abs(q / ref_q - 1.0)) < 1e-12, (p, lam, t)
                ref = scale * float((rule.weights * ref_q * ref_entropy).sum())
                (value,) = gaussian._integrate(p, lam, (t,), rule)
                assert value == pytest.approx(ref, rel=2e-15, abs=0.0), (p, lam, t)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_integrate_is_zero_at_pure_points(p):
    # One weight is exactly zero, so every conditional state is pure; the
    # infinite constants of its forms give no NaN and no RuntimeWarning.
    for n_radial, n_angular in KERNEL_RULES:
        rule = gaussian._disc_rule(n_radial, n_angular)
        for lam in (0.0,) + KERNEL_LAM:
            assert gaussian._integrate(p, lam, SCAN_T, rule) == [0.0] * len(SCAN_T), lam


@pytest.mark.parametrize("p", [1e-12, 0.5, 1.0 - 1e-6])
def test_batched_scan_equals_each_t_alone(p):
    # One kernel pass over the whole scan gives, bit for bit, the value each
    # t gives alone: the stacked product, the elementwise steps and the
    # per-t dot keep every node's arithmetic and the summation order.
    rule = gaussian._disc_rule(N_RADIAL, N_ANGULAR)
    for lam in KERNEL_LAM + (0.98, 1.0 - 1e-8, 1.0 - 1e-12):
        batched = gaussian._integrate(p, lam, SCAN_T, rule)
        alone = [gaussian._integrate(p, lam, (t,), rule)[0] for t in SCAN_T]
        assert [v.hex() for v in batched] == [v.hex() for v in alone], lam


def test_disc_tail_bound():
    # (X + 2 + 1/e) exp(-X) bounds the entropy integrand beyond the disc
    assert (DISC_X + 2.0 + math.exp(-1.0)) * math.exp(-DISC_X) < 1.2e-16


def test_conditional_entropy_matches_monte_carlo():
    for t in (2.0, gaussian.HOMODYNE_T):
        value = conditional_entropy(0.5, 0.5, t)
        mc, se = conditional_entropy_mc(0.5, 0.5, t, n_samples=150_000, seed=42)
        assert abs(value - mc) < 3.0 * se


@needs_longdouble
def test_conditional_entropy_phase_independent():
    # conditional_entropy takes no phase; the complex algebra, which does,
    # must give its value at phi != 0 on the same grid
    for p in (0.25, 0.75):
        for lam in (0.1, 0.5, 0.9):
            for t in (0.0, 2.0, gaussian.HOMODYNE_T):
                value = conditional_entropy(p, lam, t)
                for phi in (math.pi / 4, math.pi / 2):
                    ref, _ = _unfolded_complex_integrals(p, lam, t, phi, disc_grid(t))
                    assert value == pytest.approx(ref, rel=1e-13, abs=0.0), (p, lam, t, phi)


def test_conditional_entropy_quadrature_refinement():
    h1 = conditional_entropy(0.5, 0.5, 2.0, n_radial=80, n_angular=64)
    h2 = conditional_entropy(0.5, 0.5, 2.0, n_radial=160, n_angular=128)
    assert abs(h1 - h2) < 1e-6


def test_conditional_entropy_monotone_ladder():
    vals = [conditional_entropy(0.5, 0.5, t) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0)]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_quadrature_norm_check_refuses_bad_grid():
    # The rule is built and checked at p = 0 and 1 too.
    for p in (0.0, 0.5, 1.0):
        with pytest.raises(QuadratureError):
            conditional_entropy(p, 0.5, 0.0, n_radial=3, n_angular=2)


def test_gaussian_discord_trivial_points(monkeypatch):
    # p = 0 and 1 take the path of every other p: the 9-point scan, whose
    # values are exact zeros, so the result is the exact discord plus +0.0.
    seen = []
    real_integrate = gaussian._integrate

    def recording(p, lam, ts, rule):
        seen.append(real_integrate(p, lam, ts, rule))
        return seen[-1]

    monkeypatch.setattr(gaussian, "_integrate", recording)
    for p in (0.0, 1.0):
        for lam in (0.0, 5e-324, 0.5, 0.9999):
            res = gaussian_discord(p, lam)
            assert seen.pop() == [0.0] * len(SCAN_T)
            assert res.conditional_entropy.hex() == (0.0).hex(), (p, lam)
            assert (res.t, res.evaluations) == (0.0, 9), (p, lam)
            assert res.value.hex() == (exact.discord(p, lam) + 0.0).hex(), (p, lam)


def test_gaussian_discord_returns_python_floats():
    for p in (0.0, 0.5, 1.0):
        res = gaussian_discord(p, 0.3)
        assert type(res.value) is float
        assert type(res.conditional_entropy) is float


def test_gaussian_discord_evaluates_each_t_once(monkeypatch):
    seen, checked = [], []
    real_integrate, real_checked_rule = gaussian._integrate, gaussian._checked_rule

    def recording(p, lam, ts, rule):
        seen.append(list(ts))
        return real_integrate(p, lam, ts, rule)

    def checking(*args):
        checked.append(args)
        return real_checked_rule(*args)

    monkeypatch.setattr(gaussian, "_integrate", recording)
    monkeypatch.setattr(gaussian, "_checked_rule", checking)
    res = gaussian_discord(0.5, 0.5)
    # the 9 scan points, each once, in one batched call
    assert seen == [list(SCAN_T)] and res.evaluations == 9
    # the inputs and the rule are checked once, before the scan
    assert len(checked) == 1


def test_gaussian_discord_keeps_the_rule_self_check(monkeypatch):
    monkeypatch.setattr(gaussian, "N_RADIAL", 4)
    monkeypatch.setattr(gaussian, "N_ANGULAR", 4)
    with pytest.raises(QuadratureError, match=r"> EPS_INT=1e-07\), nodes=4x4"):
        gaussian_discord(0.5, 0.5)


def test_rule_mass_check_fails_on_nan(monkeypatch):
    monkeypatch.setattr(gaussian, "DISC_X", math.nan)
    with pytest.raises(QuadratureError, match="defect nan"):
        gaussian._disc_rule.__wrapped__(4, 4)


def test_failed_rule_raises_on_every_call():
    # A rule that fails its self-check is never cached, so it cannot be
    # returned unchecked on a later call.
    cached = gaussian._disc_rule.cache_info().currsize
    for _ in range(2):
        with pytest.raises(QuadratureError, match=r"> EPS_INT=1e-07\), nodes=4x4"):
            conditional_entropy(0.5, 0.5, 2.0, n_radial=4, n_angular=4)
    assert gaussian._disc_rule.cache_info().currsize == cached


def test_scan_is_uniform_in_tanh_t():
    assert len(SCAN_T) == 9
    assert SCAN_T[0] == 0.0 and SCAN_T[-1] == HOMODYNE_T
    step = math.tanh(HOMODYNE_T) / 8.0
    assert np.diff(np.tanh(SCAN_T)) == pytest.approx(np.full(8, step), rel=1e-14, abs=0.0)


def _synthetic_scan(monkeypatch, h):
    """Make the quadrature return ``h(t)`` at each measurement squeezing t."""
    monkeypatch.setattr(gaussian, "_integrate", lambda p, lam, ts, rule: [h(t) for t in ts])


@pytest.mark.parametrize("t_dip", [SCAN_T[1], SCAN_T[4], SCAN_T[7]])
def test_interior_dip_below_both_ends_raises(monkeypatch, t_dip):
    _synthetic_scan(monkeypatch, lambda t: 0.1 if t == t_dip else 0.2)
    with pytest.raises(OptimizationError, match=r"least at an end of the t scan; scan: \[\(0\.0, 0\.2\)"):
        gaussian_discord(0.5, 0.5)


def test_non_finite_scan_value_raises(monkeypatch):
    # NaN compares false with everything, so it must not pass for a minimum.
    _synthetic_scan(monkeypatch, lambda t: math.nan if t == SCAN_T[3] else 0.2)
    with pytest.raises(OptimizationError, match="nan"):
        gaussian_discord(0.5, 0.5)


def test_negative_minimum_raises(monkeypatch):
    _synthetic_scan(monkeypatch, lambda t: -1e-9)
    with pytest.raises(OptimizationError):
        gaussian_discord(0.5, 0.5)


@pytest.mark.parametrize("h_0, t_end", [(0.2, 0.0), (0.3, HOMODYNE_T)], ids=["tie", "homodyne"])
def test_lower_end_is_returned_and_a_tie_is_heterodyne(monkeypatch, h_0, t_end):
    # h(HOMODYNE_T) and every interior value are 0.2; an interior value equal
    # to the lower end is not below it
    _synthetic_scan(monkeypatch, lambda t: h_0 if t == 0.0 else 0.2)
    res = gaussian_discord(0.5, 0.5)
    assert (res.t, res.conditional_entropy, res.evaluations) == (t_end, 0.2, 9)


# p near both ends and lam from weak squeezing to 1 - 1e-4, through the
# heterodyne-homodyne switch near lam = 0.7-0.78.
AGREEMENT_P = (0.01, 0.05, 0.5, 0.95, 0.99)
AGREEMENT_LAM = (0.001, 0.01, 0.05, 0.3, 0.5, 0.7, 0.74, 0.78, 0.9, 0.98, 0.995, 0.9999)


def test_gaussian_discord_agrees_with_golden_section_everywhere():
    # the lower end of the 9-point scan against the 25-point scan and an
    # optimizer that always runs golden section
    for p in AGREEMENT_P:
        for lam in AGREEMENT_LAM:
            res = gaussian_discord(p, lam)
            value, h_min, t_opt = gaussian_discord_golden(p, lam)
            assert abs(res.value - value) < 1e-12, (p, lam)
            assert abs(res.conditional_entropy - h_min) < 1e-12, (p, lam)
            assert abs(res.t - t_opt) < T_TOL, (p, lam)


def test_gaussian_optimum_is_an_end():
    # The paper's finding: within the Gaussian family the optimum is
    # homodyne (t -> infinity, here HOMODYNE_T) or heterodyne (t = 0).
    for p in AGREEMENT_P:
        for lam in AGREEMENT_LAM:
            res = gaussian_discord(p, lam)
            assert res.t in (0.0, HOMODYNE_T), (p, lam)
            ends = (conditional_entropy(p, lam, 0.0), conditional_entropy(p, lam, HOMODYNE_T))
            assert res.conditional_entropy == min(ends), (p, lam)


def test_gaussian_discord_strictly_above_discord():
    res = gaussian_discord(0.5, 0.5)
    assert res.value - exact.discord(0.5, 0.5) > 1e-3
    assert res.conditional_entropy == pytest.approx(0.19129774, abs=1e-6)
    assert res.t > 11.0  # homodyne proxy wins at moderate squeezing


def test_gaussian_discord_dominates_exact_discord_on_grid():
    for p in (0.25, 0.5, 0.75):
        for lam in (0.1, 0.5, 0.9):
            res = gaussian_discord(p, lam)
            assert res.value >= exact.discord(p, lam) - 1e-10


def test_gaussian_discord_heterodyne_optimal_at_strong_squeezing():
    # above lam ~ 0.7 the scan favors t = 0 within the Gaussian family
    res = gaussian_discord(0.5, 0.9)
    assert res.t == pytest.approx(0.0, abs=1e-3)
    assert res.value > exact.discord(0.5, 0.9)


@pytest.mark.parametrize("t", [0.0, 2.0, HOMODYNE_T])
def test_disc_rule_matches_sized_grid(t):
    # Up to lam = 0.9993, where the sized grid at HOMODYNE_T stops, the
    # 80 x 64 disc rule agrees with the grid sized to each lam and t.
    for p in (0.05, 0.5, 0.95):
        for lam in (0.0, 0.05, 0.3, 0.5, 0.7, 0.85, 0.9, 0.95, 0.98, 0.99, 0.9993):
            ref, _ = grid_integrals(p, lam, t, quadrature_grid(lam, t))
            assert abs(conditional_entropy(p, lam, t) - ref) < 1e-11, (p, lam)


@pytest.mark.parametrize("t", [0.0, 2.0, HOMODYNE_T])
def test_disc_rule_converges_beyond_the_sized_grid(t):
    # Past 0.9993, four times the nodes in each direction move no value by
    # 1e-11 relative.
    for p in (0.05, 0.5, 0.95):
        for lam in (0.9994, 0.9999, 0.99999, 1.0 - 1e-8, 1.0 - 1e-12):
            value = conditional_entropy(p, lam, t)
            ref = conditional_entropy(p, lam, t, n_radial=320, n_angular=256)
            assert value == pytest.approx(ref, rel=1e-11, abs=0.0), (p, lam)


def test_gaussian_discord_beyond_the_sized_grid():
    # The sized grid at HOMODYNE_T passed 2^20 nodes above lam = 0.9993.
    for lam in (0.9994, 0.9999, 0.99999, 1.0 - 1e-8, 1.0 - 1e-12):
        res = gaussian_discord(0.5, lam)
        assert math.isfinite(res.value) and res.value > exact.discord(0.5, lam)
        assert res.evaluations == 9


def test_rule_above_node_limit_raises_before_allocating():
    # 2^20 radial nodes would take leggauss 2^20 x 2^20 work and memory.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"1048576x64 quadrature rule is above the limit {MAX_RULE_NODES}"):
            conditional_entropy(0.5, 0.5, 0.0, n_radial=2**20)
        with pytest.raises(ValueError, match=f"1025x1024 quadrature rule is above the limit {MAX_RULE_NODES}"):
            conditional_entropy(0.5, 0.5, 0.0, n_radial=1025, n_angular=1021)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rule_at_node_limit_is_accepted():
    # 1024 x 1021 rounds to 1024 x 1024 nodes, the limit itself
    assert gaussian._check_nodes(1024, 1021) * 1024 == MAX_RULE_NODES


def test_gaussian_discord_memory():
    # The batched scan holds the four forms at 9 x 1360 nodes, 0.39 MB.  The
    # default rule is built beforehand.
    gaussian_discord(0.5, 0.5)
    tracemalloc.start()
    try:
        gaussian_discord(0.5, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_strong_squeezing_quadrature_memory():
    # The sized grid at (0.9993, HOMODYNE_T) held 983 x 984 nodes, a 22 MB
    # peak.  The peak here includes building the rule, but not numpy's lazy
    # import of its polynomial module.
    np.polynomial.legendre
    gaussian._disc_rule.cache_clear()
    tracemalloc.start()
    try:
        conditional_entropy(0.5, 0.9993, HOMODYNE_T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
