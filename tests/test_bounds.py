import tracemalloc
import warnings

import numpy as np
import pytest

from cvwerner import bounds, exact
from cvwerner.bounds import TruncationError
from cvwerner.fock import MAX_TWO_MODE_DIM, partial_transpose, shannon_entropy, eig_spectrum
from cvwerner.states import WernerParams, choose_cutoff, thermal_entropy, werner


def _cutoff(p, lam, mu, eps=1e-12):
    return choose_cutoff(WernerParams(p, lam, mu), eps)


def test_reduced_spectrum_examples():
    # consistency with the vacuum family at mu = 0
    g = bounds.reduced_spectrum(0.5, 0.5, 0.0, 50)
    assert np.max(np.abs(np.sort(g)[::-1] - np.sort(exact.reduced_spectrum(0.5, 0.5, 50))[::-1])) < 1e-15
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
    joint = bounds.joint_photon_distribution(p, lam, mu, n)
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


def test_global_entropy_matches_dense_oracle():
    p, lam, mu = 0.4, 0.5, 0.6
    n = _cutoff(p, lam, mu)
    dense = eig_spectrum(werner(WernerParams(p, lam, mu), n))
    from cvwerner.fock import von_neumann_entropy

    assert bounds.global_entropy(p, lam, mu, n) == pytest.approx(
        von_neumann_entropy(dense), abs=1e-9
    )


def test_upper_bound_tight_at_mu_zero():
    for p, lam in ((0.3, 0.4), (0.7, 0.6)):
        n = _cutoff(p, lam, 0.0)
        assert bounds.upper_bound(p, lam, 0.0, n) == pytest.approx(
            exact.discord(p, lam), abs=1e-8
        )


def test_upper_bound_trivial_point():
    n = _cutoff(0.0, 0.5, 0.5, 1e-13)
    assert bounds.upper_bound(0.0, 0.5, 0.5, n) == pytest.approx(0.0, abs=1e-10)


def test_lower_bound_limits():
    # p = 1: both bounds collapse onto the discord of the pure state
    n = _cutoff(1.0, 0.6, 0.4)
    u = bounds.upper_bound(1.0, 0.6, 0.4, n)
    low = bounds.lower_bound(1.0, 0.6, 0.4, n)
    assert low == pytest.approx(u, abs=1e-8)
    # mu = 0: the thermal term vanishes
    n = _cutoff(0.5, 0.5, 0.0)
    assert bounds.lower_bound(0.5, 0.5, 0.0, n) == pytest.approx(
        exact.discord(0.5, 0.5), abs=1e-8
    )


def test_bound_ordering_sample():
    p, lam, mu = 0.5, 0.8, 0.8
    n = _cutoff(p, lam, mu)
    u = bounds.upper_bound(p, lam, mu, n)
    low = bounds.lower_bound(p, lam, mu, n)
    assert max(low, 0.0) <= u + 1e-12


def test_mid_identity_and_values():
    n = _cutoff(0.5, 0.5, 0.0)
    assert bounds.mid(0.5, 0.5, 0.0, n) == pytest.approx(exact.discord(0.5, 0.5), abs=1e-8)
    p, lam, mu = 0.5, 0.8, 0.8
    n = _cutoff(p, lam, mu)
    assert bounds.mid(p, lam, mu, n) == pytest.approx(
        bounds.upper_bound(p, lam, mu, n), abs=1e-8
    )


def test_mid_flags_bad_truncation():
    # Every bound reads one report and so runs all its identity checks; at
    # (0.5, 0.0, 0.3) only closed-form vs direct conditional entropy fails.
    for point in ((0.5, 0.8, 0.8), (0.5, 0.0, 0.3)):
        for fn in (bounds.mid, bounds.upper_bound, bounds.lower_bound):
            with pytest.raises(TruncationError):
                fn(*point, 6)


def test_cutoff_doubling_stability():
    p, lam, mu = 0.5, 0.8, 0.8
    n = _cutoff(p, lam, mu)
    for fn in (bounds.upper_bound, bounds.lower_bound):
        assert abs(fn(p, lam, mu, n) - fn(p, lam, mu, 2 * n)) < 1e-7


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
    assert bounds.upper_bound_dense(rho) == pytest.approx(
        bounds.upper_bound(p, lam, mu, n), abs=1e-8
    )
    assert bounds.mid_dense(rho) == pytest.approx(bounds.mid(p, lam, mu, n), abs=1e-8)


def test_bounds_report_evaluates_each_entropy_once(monkeypatch):
    calls = {
        "global_entropy": 0,
        "conditional_entropy_photon_counting": 0,
        "joint_photon_distribution": 0,
    }
    for name in calls:
        original = getattr(bounds, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    rep = bounds.bounds_report(WernerParams(0.5, 0.8, 0.8))
    # The one photon-count table is the direct conditional-entropy oracle's;
    # H(p_AB) is summed by anti-diagonals without a table.
    assert calls == {
        "global_entropy": 1,
        "conditional_entropy_photon_counting": 1,
        "joint_photon_distribution": 1,
    }
    assert rep.mid == pytest.approx(rep.upper, abs=1e-8)


@pytest.mark.parametrize(
    "p, lam, mu, n",
    [(0.5, 0.8, 0.8, None), (0.2, 0.3, 0.9, None), (0.0, 0.5, 0.6, None),
     (1.0, 0.7, 0.4, None), (0.5, 0.5, 0.0, None), (0.8, 0.9, 0.5, 6)],
)
def test_joint_entropy_by_antidiagonals_matches_table(p, lam, mu, n):
    n = n or _cutoff(p, lam, mu)
    table = shannon_entropy(bounds.joint_photon_distribution(p, lam, mu, n))
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
        for build in (bounds.correlated_block, bounds.joint_photon_distribution):
            with pytest.raises(ValueError, match=f"limit {MAX_TWO_MODE_DIM}"):
                build(0.5, 0.5, 0.5, MAX_TWO_MODE_DIM + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
