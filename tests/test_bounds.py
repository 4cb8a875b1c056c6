import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cvwerner import bounds, exact
from cvwerner.bounds import TruncationError
from cvwerner.fock import (
    MAX_TWO_MODE_DIM,
    eig_spectrum,
    partial_trace,
    partial_transpose,
    shannon_entropy,
    von_neumann_entropy,
    xlogx,
)
from cvwerner.states import WernerParams, _ppt_point, choose_cutoff, thermal_entropy, werner
from helpers_oracles import correlated_block, joint_photon_distribution, mid_dense


def _cutoff(p, lam, mu, eps=1e-12):
    return choose_cutoff(WernerParams(p, lam, mu), eps)


def _report(p, lam, mu, n):
    return bounds.bounds_report(WernerParams(p, lam, mu), n)


def test_reduced_spectrum_examples():
    # consistency with the built vacuum Werner state at mu = 0
    g = bounds.reduced_spectrum(0.5, 0.5, 0.0, 30)
    dense = np.diag(partial_trace(werner(WernerParams(0.5, 0.5, 0.0), 30), "A"))
    assert np.max(np.abs(g - dense)) < 1e-15
    # lam = mu collapses to a plain thermal spectrum
    g = bounds.reduced_spectrum(0.4, 0.6, 0.6, 30)
    assert np.max(np.abs(g - (1 - 0.36) * 0.36 ** np.arange(30))) < 1e-14
    assert bounds.reduced_spectrum(0.5, 0.5, 0.8, 1)[0] == pytest.approx(0.555, abs=1e-15)


def test_conditional_entropy_trivial():
    assert bounds.conditional_entropy_photon_counting(0.5, 0.5, 0.0, 40) == 0.0
    assert bounds.conditional_entropy_photon_counting(1.0, 0.5, 0.5, 40) == 0.0


def test_conditional_entropy_thermal_limit():
    # p = 0: every conditional state is the thermal state
    n = _cutoff(0.0, 0.0, 0.5)
    h = bounds.conditional_entropy_photon_counting(0.0, 0.0, 0.5, n)
    assert h == pytest.approx(thermal_entropy(0.5), abs=1e-10)


def test_conditional_entropy_closed_vs_direct_and_shannon_identity():
    p, lam, mu = 0.5, 0.8, 0.8
    n = _cutoff(p, lam, mu)
    h = bounds.conditional_entropy_photon_counting(p, lam, mu, n)
    direct = bounds._conditional_entropy_direct(p, lam, mu, n)
    assert h == pytest.approx(direct, abs=1e-10)
    # third route: H(p_AB) - H(p_B)
    joint = joint_photon_distribution(p, lam, mu, n)
    identity = shannon_entropy(joint) - shannon_entropy(bounds.reduced_spectrum(p, lam, mu, n))
    assert h == pytest.approx(identity, abs=1e-8)


def test_conditional_entropy_truncation_error_detected():
    with pytest.raises(TruncationError):
        bounds.conditional_entropy_photon_counting(0.5, 0.8, 0.8, 6)


def test_global_entropy_consistency():
    # mu = 0 reduces to the closed form of the vacuum family
    n = _cutoff(0.5, 0.5, 0.0)
    assert bounds.global_entropy(0.5, 0.5, 0.0, n) == pytest.approx(
        exact.global_entropy(0.5, 0.5), abs=1e-10
    )
    # pure state
    assert bounds.global_entropy(1.0, 0.5, 0.5, 40) == pytest.approx(0.0, abs=1e-12)
    # product of thermals
    n = _cutoff(0.0, 0.0, 0.5, 1e-13)
    assert bounds.global_entropy(0.0, 0.3, 0.5, n) == pytest.approx(
        2 * thermal_entropy(0.5), abs=1e-10
    )


def test_global_entropy_branch_sum_check():
    with pytest.raises(TruncationError):
        bounds.global_entropy(0.5, 0.8, 0.8, 8)


@pytest.mark.parametrize(
    "target, value, message",
    [
        ("_conditional_entropy_closed", math.nan, "closed-form vs direct"),
        ("conditional_entropy_photon_counting", math.nan, "MID"),
        ("_block_spectrum", (np.array([math.nan]), 1), "branches sum to nan"),
    ],
    ids=["closed-vs-direct", "mid-vs-upper", "branch-sum"],
)
def test_identity_checks_fail_on_nan(monkeypatch, target, value, message):
    # A NaN on either side of an identity is a failed check, not a pass.
    monkeypatch.setattr(bounds, target, lambda *args: value)
    with pytest.raises(TruncationError, match=message):
        _report(0.5, 0.5, 0.5, _cutoff(0.5, 0.5, 0.5))


@pytest.mark.parametrize("mu", [5e-324, 1e-300, 1e-200, 1e-170])
def test_bounds_report_where_mu_squared_underflows_is_the_mu_zero_report(mu):
    # mu^2 is 0 in floating point, so every conditional state is pure.
    for p in (0.0, 0.5, 1.0):
        for lam in (0.0, 1e-8, 0.3, 0.5, 0.8, 0.9, 0.98):
            rep = bounds.bounds_report(WernerParams(p, lam, mu))
            assert dataclasses.replace(rep, mu=0.0) == bounds.bounds_report(
                WernerParams(p, lam, 0.0)
            ), (p, lam)


def test_global_entropy_matches_dense_oracle():
    p, lam, mu = 0.4, 0.5, 0.6
    n = _cutoff(p, lam, mu)
    dense = eig_spectrum(werner(WernerParams(p, lam, mu), n))
    assert bounds.global_entropy(p, lam, mu, n) == pytest.approx(
        von_neumann_entropy(dense), abs=1e-9
    )


def test_upper_bound_tight_at_mu_zero():
    for p, lam in ((0.3, 0.4), (0.7, 0.6)):
        n = _cutoff(p, lam, 0.0)
        assert _report(p, lam, 0.0, n).upper == pytest.approx(exact.discord(p, lam), abs=1e-8)


def test_upper_bound_trivial_point():
    n = _cutoff(0.0, 0.5, 0.5, 1e-13)
    assert _report(0.0, 0.5, 0.5, n).upper == pytest.approx(0.0, abs=1e-10)


def test_lower_bound_limits():
    # p = 1: both bounds collapse onto the discord of the pure state
    rep = _report(1.0, 0.6, 0.4, _cutoff(1.0, 0.6, 0.4))
    assert rep.lower == pytest.approx(rep.upper, abs=1e-8)
    # mu = 0: the thermal term vanishes
    rep = _report(0.5, 0.5, 0.0, _cutoff(0.5, 0.5, 0.0))
    assert rep.lower == pytest.approx(exact.discord(0.5, 0.5), abs=1e-8)


def test_bound_ordering_sample():
    p, lam, mu = 0.5, 0.8, 0.8
    rep = _report(p, lam, mu, _cutoff(p, lam, mu))
    assert max(rep.lower, 0.0) <= rep.upper + 1e-12


def test_mid_identity_and_values():
    rep = _report(0.5, 0.5, 0.0, _cutoff(0.5, 0.5, 0.0))
    assert rep.mid == pytest.approx(exact.discord(0.5, 0.5), abs=1e-8)
    p, lam, mu = 0.5, 0.8, 0.8
    rep = _report(p, lam, mu, _cutoff(p, lam, mu))
    assert rep.mid == pytest.approx(rep.upper, abs=1e-8)


def test_bounds_report_checks_its_automatic_cutoff_before_allocating():
    # mu = 1 - 1e-6 picks cutoff 14162078, whose marginal spectrum was once
    # built before the check: 2.8 s and a 446 MiB peak.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limit {MAX_TWO_MODE_DIM}"):
            bounds.bounds_report(WernerParams(0.5, 0.5, 1.0 - 1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("p, mu", [(1.0, 0.5), (0.5, 0.0), (0.5, 0.5)])
def test_photon_counting_holds_its_cutoff_to_the_limit(p, mu):
    # The pure cases once returned 0.0 at any cutoff, without a check.
    with pytest.raises(ValueError, match=f"limit {MAX_TWO_MODE_DIM}"):
        bounds.conditional_entropy_photon_counting(p, 0.5, mu, MAX_TWO_MODE_DIM + 1)


@pytest.mark.parametrize(
    "p, lam, mu, n",
    [(0.0, 0.5, 0.6, None), (1.0, 0.7, 0.4, None), (0.5, 0.5, 0.0, None), (0.0, 0.0, 0.0, None),
     (0.5, 0.8, 0.8, None), (0.2, 0.3, 0.9, None), (0.05, 0.8**4, 0.8, None),
     (0.5, 0.05, 0.1, 6), (0.3, 0.1, 0.05, 6), (1.0, 0.0, 0.0, 6)],
)
def test_bounds_report_fields_follow_from_the_entropies(p, lam, mu, n):
    n = n or _cutoff(p, lam, mu)
    rep = _report(p, lam, mu, n)
    s_b = bounds.marginal_entropy(p, lam, mu, n)
    s_g = bounds.global_entropy(p, lam, mu, n)
    h_eig = bounds.conditional_entropy_photon_counting(p, lam, mu, n)
    assert (rep.n_max, rep.marginal_entropy, rep.global_entropy, rep.conditional_entropy) == (
        n, s_b, s_g, h_eig
    )
    assert rep.upper == s_b - s_g + h_eig
    assert rep.lower == s_b - s_g + (1.0 - p) * thermal_entropy(mu)
    assert rep.mid == pytest.approx(rep.upper, abs=bounds.IDENTITY_TOL)


def test_mid_flags_bad_truncation():
    # A report runs all its identity checks.  At (0.5, 0.0, 0.3) both fail:
    # closed-form - direct conditional entropy is +4.1e-6 and MID - U is
    # -4.2e-6; the direct check raises because it runs first.
    for point in ((0.5, 0.8, 0.8), (0.5, 0.0, 0.3)):
        with pytest.raises(TruncationError):
            _report(*point, 6)


def test_cutoff_doubling_stability():
    p, lam, mu = 0.5, 0.8, 0.8
    n = _cutoff(p, lam, mu)
    rep, doubled = _report(p, lam, mu, n), _report(p, lam, mu, 2 * n)
    assert abs(rep.upper - doubled.upper) < 1e-7
    assert abs(rep.lower - doubled.lower) < 1e-7


def test_discord_witness():
    assert not bounds.discord_is_positive(0.0, 0.5)
    assert not bounds.discord_is_positive(0.5, 0.0)
    assert bounds.discord_is_positive(0.3, 0.7)


def test_separability_thresholds_frozen():
    assert bounds.p_separable(0.8) == pytest.approx(0.08419958419958415, abs=1e-15)
    assert bounds.p_ppt(0.8) == pytest.approx(0.1957036354603157, abs=1e-15)


def test_separability_region_examples():
    assert bounds.separability_region(0.05, 0.8) == "separable"
    assert bounds.separability_region(0.15, 0.8) == "PPT-unknown"
    assert bounds.separability_region(0.5, 0.8) == "entangled-nonPPT"


def test_ppt_threshold_matches_numerics():
    mu = 0.8
    p_star = bounds.p_ppt(mu)
    for p, expect_positive in ((p_star - 0.01, True), (p_star + 0.01, False)):
        params = WernerParams(p, mu**4, mu)
        rho = werner(params, choose_cutoff(params, 1e-9))
        min_eig = float(eig_spectrum(partial_transpose(rho, "A")).min())
        assert (min_eig >= -1e-10) == expect_positive


def test_dense_routes_agree_with_series():
    p, lam, mu = 0.4, 0.5, 0.6
    params = WernerParams(p, lam, mu)
    n = choose_cutoff(params)
    rho = werner(params, n)
    rep = bounds.bounds_report(params, n)
    assert bounds.upper_bound_dense(rho) == pytest.approx(rep.upper, abs=1e-8)
    assert mid_dense(rho) == pytest.approx(rep.mid, abs=1e-8)


def test_bounds_report_evaluates_each_entropy_once(monkeypatch):
    calls = {"global_entropy": 0, "conditional_entropy_photon_counting": 0}
    for name in calls:
        original = getattr(bounds, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    rep = bounds.bounds_report(WernerParams(0.5, 0.8, 0.8))
    assert calls == {"global_entropy": 1, "conditional_entropy_photon_counting": 1}
    assert rep.mid == pytest.approx(rep.upper, abs=1e-8)


@pytest.mark.parametrize(
    "p, lam, mu, n",
    [(0.5, 0.8, 0.8, None), (0.2, 0.3, 0.9, None), (0.0, 0.5, 0.6, None),
     (1.0, 0.7, 0.4, None), (0.5, 0.5, 0.0, None), (0.8, 0.9, 0.5, 6)],
)
def test_joint_entropy_by_antidiagonals_matches_table(p, lam, mu, n):
    n = n or _cutoff(p, lam, mu)
    table = shannon_entropy(joint_photon_distribution(p, lam, mu, n))
    assert abs(bounds._joint_photon_entropy(p, lam, mu, n) - table) < 1e-14


def test_conditional_entropy_with_underflowing_weights_warns_nothing():
    # At cutoff 200 the count weights g_m underflow to 0 from m of about 160.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bounds.bounds_report(WernerParams(0.5, 0.1, 0.1), 200)
    assert rep.conditional_entropy == pytest.approx(
        bounds._conditional_entropy_direct(0.5, 0.1, 0.1, 200), abs=1e-12
    )


def test_bounds_report_region_classification():
    mu = 0.8
    rep = bounds.bounds_report(WernerParams(0.05, mu**4, mu))
    assert rep.region == "separable"
    rep = bounds.bounds_report(WernerParams(0.5, 0.5, 0.5))
    assert rep.region == "not-classified"
    assert rep.mid == pytest.approx(rep.upper, abs=1e-8)
    assert rep.tail_bound < 1e-10


def test_cutoff_above_dense_limit_raises_before_allocating():
    # lam = 0.9999 picks cutoff 138149: its n_max x n_max block would take 142 GB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limit {MAX_TWO_MODE_DIM}"):
            bounds.bounds_report(WernerParams(0.5, 0.9999, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize(
    "p, lam, mu, n",
    [(0.0, 0.5, 0.6, None), (1.0, 0.7, 0.4, None), (0.5, 0.0, 0.3, None),
     (0.5, 0.5, 0.0, None), (0.0, 0.0, 0.0, None), (0.8, 0.9, 0.5, 6), (1.0, 0.98, 0.98, 6),
     (0.2, 0.3, 0.9, None), (0.1, 0.95, 0.8, None), (0.9, 0.8, 0.95, None),
     (0.34, 0.58, 0.99, None), (0.5, 0.98, 0.98, None), (0.5, 0.99, 0.3, None)],
)
def test_deflated_block_spectrum_matches_dense_eigvalsh(p, lam, mu, n):
    n = n or _cutoff(p, lam, mu)
    assert n <= 1500
    block = correlated_block(p, lam, mu, n)
    dense = np.linalg.eigvalsh(block)
    spectrum, k = bounds._block_spectrum(p, lam, mu, n)
    assert spectrum.shape == (n,)
    assert k <= n
    assert np.max(np.abs(np.sort(spectrum) - dense)) < 1e-14
    assert abs(spectrum.sum() - np.trace(block)) < 1e-14
    assert abs(von_neumann_entropy(spectrum) - von_neumann_entropy(dense)) < 1e-10


@pytest.mark.parametrize(
    "p, lam, mu, k",
    [(0.34, 0.58, 0.99, 37), (0.2, 0.995, 0.9, 91), (0.5, 0.99, 0.3, 10), (0.5, 0.98, 0.98, 426)],
)
def test_deflation_keeps_few_survivors(p, lam, mu, k):
    _, survivors = bounds._block_spectrum(p, lam, mu, _cutoff(p, lam, mu))
    assert abs(survivors - k) <= 2


def test_bounds_report_runs_in_bounded_memory():
    # Cutoff 2757: one n_max x n_max array would take 61 MB.
    params = WernerParams(0.5, 0.995, 0.5)
    assert choose_cutoff(params, 1e-12) == 2757
    tracemalloc.start()
    try:
        rep = bounds.bounds_report(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert rep.mid == pytest.approx(rep.upper, abs=1e-8)


# The second point's table underflows to 0 in its last rows and columns;
# the third spans 16 blocks of rows.
@pytest.mark.parametrize(
    "p, lam, mu, n, blocks",
    [
        pytest.param(0.2, 0.3, 0.9, None, 1, id="0.2-0.3-0.9-None"),
        pytest.param(0.5, 0.1, 0.1, 200, 1, id="0.5-0.1-0.1-200"),
        pytest.param(0.34375, 0.58, 0.98, 701, 16, id="0.34375-0.58-0.98-701"),
    ],
)
def test_row_blocked_direct_matches_full_table(p, lam, mu, n, blocks):
    n = n or _cutoff(p, lam, mu)
    g = bounds.reduced_spectrum(p, lam, mu, n)
    keep = g > bounds.WEIGHT_FLOOR
    rows_per_block = max(1, bounds.BLOCK_ENTRIES // n)
    assert math.ceil(keep.sum() / rows_per_block) == blocks
    eta = joint_photon_distribution(p, lam, mu, n)[keep] / g[keep, None]
    full = float((g[keep] * -(xlogx(eta).sum(axis=1))).sum())
    assert abs(bounds._conditional_entropy_direct(p, lam, mu, n) - full) < 1e-14


def test_direct_sum_holds_a_bounded_block():
    # The PPT cross-check's largest sum: the mapped point of lam = 0.996 at
    # the 6000-row cap.  It peaks at 0.97 MiB; numpy's as_strided makes a
    # one-off 0.92 MiB allocation once per process, which may fall inside.
    w = _ppt_point(0.996)
    tracemalloc.start()
    try:
        bounds._conditional_entropy_direct(w.p, w.lam, w.mu, 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
