import math
import tracemalloc

import numpy as np
import pytest

from cvwerner import bounds, ppt
from cvwerner.fock import eig_spectrum, partial_trace, von_neumann_entropy
from cvwerner.states import _ppt_point, ppt_werner, thermal_entropy
from helpers_oracles import mid_dense

# frozen oracle values at lam = 0.5 (high-order series evaluation)
S_GLOBAL_05 = 2.1360745539449684
S_REDUCED_05 = 1.2616471742485327
H_COND_05 = 1.2210009699764084
L_05 = 0.1652933911434824
H_JOINT_05 = 2.4826481442249415


def test_norm_const():
    assert ppt.norm_const(0.5) == pytest.approx(0.1875, abs=1e-15)


def test_global_entropy():
    assert ppt.global_entropy(0.0) == 0.0
    assert ppt.global_entropy(0.5) == pytest.approx(S_GLOBAL_05, abs=1e-13)
    # matrix oracle
    state = ppt_werner(0.5, 44)
    assert ppt.global_entropy(0.5) == pytest.approx(
        von_neumann_entropy(eig_spectrum(state)), abs=1e-8
    )


def test_spectrum_closed_form_sums_to_one():
    for lam in (0.2, 0.5, 0.8):
        total = ppt.closed_form_spectrum(lam, 400).sum()
        assert total == pytest.approx(1.0, abs=1e-10)


def test_reduced_entropy_series():
    assert ppt.reduced_entropy(0.0) == 0.0
    assert ppt.reduced_entropy(0.5, tol=1e-10) == pytest.approx(S_REDUCED_05, abs=1e-10)
    assert ppt.reduced_entropy(0.5, tol=1e-12) == pytest.approx(S_REDUCED_05, abs=1e-11)
    # matrix oracle via the reduced state of the built matrix
    state = ppt_werner(0.5, 50)
    series = von_neumann_entropy(eig_spectrum(partial_trace(state, "A")))
    assert ppt.reduced_entropy(0.5) == pytest.approx(series, abs=1e-8)


def test_reduced_entropy_monotone():
    vals = [ppt.reduced_entropy(lam) for lam in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_conditional_entropy():
    assert ppt.bounds(0.0).conditional_entropy == 0.0
    assert ppt.bounds(0.5).conditional_entropy == pytest.approx(H_COND_05, abs=1e-8)
    # The direct row sum that ppt.bounds checks against, at its series length.
    lam, norm = 0.5, ppt.norm_const(0.5)
    scale = 8.0 * norm * (1.0 + abs(math.log(norm))) / (1.0 - lam) ** 2
    n = ppt._series_length(lam, ppt.SERIES_TOL, scale)
    w = _ppt_point(lam)
    direct = bounds._conditional_entropy_direct(w.p, w.lam, w.mu, min(n, ppt.DIRECT_SUM_ROWS))
    assert direct == pytest.approx(H_COND_05, abs=1e-8)
    for lam in (0.1, 0.4, 0.7, 0.9):
        assert ppt.bounds(lam).conditional_entropy >= 0.0


def test_joint_distribution_entropy_identity():
    rep = ppt.bounds(0.5)
    value = rep.mid + rep.entropy_global
    assert value == pytest.approx(H_JOINT_05, abs=1e-9)
    assert value == pytest.approx(ppt.global_entropy(0.5) + 0.5 * math.log(2), abs=1e-8)


def test_upper_bound():
    assert ppt.upper_bound(0.0) == 0.0
    assert ppt.upper_bound(0.5) == pytest.approx(0.5 * math.log(2), abs=1e-15)
    assert ppt.upper_bound(0.999) > 0.692


def test_lower_bound():
    assert ppt.bounds(0.0).lower == 0.0
    assert ppt.bounds(0.5).lower == pytest.approx(L_05, abs=1e-9)
    assert ppt.bounds(0.5).lower == pytest.approx(0.165, abs=2e-3)


@pytest.mark.parametrize("lam", np.linspace(0.05, 0.99, 15))
def test_bound_ordering_and_positivity(lam):
    rep = ppt.bounds(lam)
    assert rep.lower <= rep.upper + 1e-12
    assert rep.lower > 0.0


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.996])
def test_report_fields_follow_from_the_entropies(lam):
    rep = ppt.bounds(lam)
    s_g, s_b = ppt.global_entropy(lam), ppt.reduced_entropy(lam)
    assert (rep.lam, rep.norm_const, rep.entropy_global, rep.entropy_reduced) == (
        lam, ppt.norm_const(lam), s_g, s_b
    )
    assert rep.upper == ppt.upper_bound(lam)
    assert rep.conditional_entropy == s_g - s_b + rep.upper
    assert rep.lower == s_b - s_g + (1.0 + lam) / 2.0 * thermal_entropy(math.sqrt(lam))
    assert rep.mid == pytest.approx(rep.upper, abs=ppt.CHECK_TOL)


def test_mid_equals_upper_bound():
    for lam in (0.2, 0.5, 0.8):
        assert ppt.bounds(lam).mid == pytest.approx(lam * math.log(2), abs=1e-8)


def test_report_fields():
    rep = ppt.bounds(0.5)
    assert rep.upper == pytest.approx(0.5 * math.log(2), abs=1e-15)
    assert rep.mid == pytest.approx(rep.upper, abs=1e-8)
    assert max(rep.lower, 0.0) <= rep.upper
    assert rep.conditional_entropy == pytest.approx(
        rep.entropy_global - rep.entropy_reduced + 0.5 * math.log(2), abs=1e-9
    )
    zero = ppt.bounds(0.0)
    assert zero.upper == zero.lower == zero.mid == 0.0


def test_bounds_evaluates_each_entropy_once(monkeypatch):
    calls = {
        "global_entropy": 0,
        "reduced_entropy": 0,
        "_series_length": 0,
        "_conditional_entropy_direct": 0,
    }
    for name in calls:
        original = getattr(ppt, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ppt, name, counted)
    rep = ppt.bounds(0.8)
    # One series length each for S(rho_B), the direct H_eig sum and H(p_AB).
    assert calls == {
        "global_entropy": 1,
        "reduced_entropy": 1,
        "_series_length": 3,
        "_conditional_entropy_direct": 1,
    }
    assert rep.mid == pytest.approx(rep.upper, abs=1e-8)


@pytest.mark.parametrize("lam", [0.997, 0.998, 0.999])
def test_capped_direct_sum_fails_its_cross_check(lam):
    # The direct H_eig sum stops at DIRECT_SUM_ROWS rows, which misses mass here.
    with pytest.raises(ppt.SeriesCrossCheckError, match="analytic conditional entropy"):
        ppt.bounds(lam)


def test_dense_route_agreement():
    # the generic matrix machinery applied to the built state reproduces
    # the analytic upper bound
    state = ppt_werner(0.5, 44)
    assert bounds.upper_bound_dense(state) == pytest.approx(0.5 * math.log(2), abs=1e-6)
    assert mid_dense(state) == pytest.approx(0.5 * math.log(2), abs=1e-6)


def test_series_length_limit_raises_before_allocating():
    # lam = 1 - 1e-7 would need 2.6e8 terms in the reduced-entropy series.
    lam = 1.0 - 1e-7
    tracemalloc.start()
    try:
        for fn in (ppt.reduced_entropy, ppt.bounds):
            with pytest.raises(ValueError, match=f"limit {ppt.MAX_SERIES_TERMS}"):
                fn(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
