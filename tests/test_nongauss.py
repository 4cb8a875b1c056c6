import math

import numpy as np
import pytest

from cvwerner import exact, nongauss
from cvwerner.nongauss import (
    EULER_GAMMA,
    discord_gap,
    gap_approx,
    gaussian_state_entropy,
    low_squeezing_ratio,
    nongaussianity,
    nongaussianity_approx,
    symplectic_eigenvalue,
)
from helpers_oracles import (
    STRONG_LAM,
    WEAK_LAM,
    WEAK_P,
    WEAK_SQUEEZING_REL,
    closed_forms_decimal,
    covariance_cs,
    covariance_matrix,
)

# frozen oracle values at p = lam = 0.5
NU_55 = 1.1547005383792515  # sqrt(4/3)
S_TAU_55 = 0.5564773354157849
DELTA0_55 = 0.31070196874731376


def test_covariance_examples():
    assert np.allclose(covariance_matrix(0.0, 0.7), np.eye(4))
    assert covariance_cs(1.0, 0.5) == pytest.approx((5.0 / 3.0, 4.0 / 3.0), abs=1e-14)
    assert covariance_cs(0.5, 0.5) == pytest.approx((4.0 / 3.0, 2.0 / 3.0), abs=1e-14)


def test_covariance_physicality():
    for p in np.linspace(0, 1, 7):
        for lam in np.linspace(0, 0.9, 7):
            c, s = covariance_cs(p, lam)
            assert c >= 1.0 - 1e-12
            assert c**2 - s**2 >= 1.0 - 1e-12


def test_symplectic_eigenvalue_closed_form_and_oracle():
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for p in (0.0, 0.3, 0.5, 0.8, 1.0):
        for lam in (0.0, 0.4, 0.7):
            nu = symplectic_eigenvalue(p, lam)
            assert nu >= 1.0 - 1e-12
            # oracle: moduli of the eigenvalues of i Omega Gamma
            gamma = covariance_matrix(p, lam)
            eigs = np.abs(np.linalg.eigvals(1j * omega @ gamma))
            assert np.allclose(sorted(eigs), [nu] * 4, atol=1e-10)
    assert symplectic_eigenvalue(0.0, 0.6) == pytest.approx(1.0, abs=1e-14)
    assert symplectic_eigenvalue(1.0, 0.6) == pytest.approx(1.0, abs=1e-14)
    assert symplectic_eigenvalue(0.5, 0.5) == pytest.approx(NU_55, abs=1e-14)


def test_gaussian_state_entropy():
    assert gaussian_state_entropy(1.0) == 0.0
    assert gaussian_state_entropy(NU_55) == pytest.approx(S_TAU_55, abs=1e-13)
    for nu in (0.8, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"symplectic eigenvalue {nu} outside \[1, inf\)"):
            gaussian_state_entropy(nu)


def test_reference_entropy_is_finite_at_subnormal_excess():
    # nu - 1 ~ lam^2 is subnormal here, where 1/eps overflows to inf
    for lam in (1e-155, 1e-161):
        assert 0.0 < nongauss._reference_entropy(0.5, lam) < 1e-300, lam


def test_nongaussianity_values():
    assert nongaussianity(0.0, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert nongaussianity(1.0, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert nongaussianity(0.5, 0.5) == pytest.approx(DELTA0_55, abs=1e-13)


def test_nongaussianity_nonnegative_and_concave_in_p():
    ps = np.linspace(0.0, 1.0, 21)
    for lam in (0.2, 0.5, 0.8):
        vals = np.array([nongaussianity(p, lam) for p in ps])
        assert vals.min() >= -1e-12
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second.max() < 1e-10


def test_nongaussianity_grows_with_lam():
    vals = [nongaussianity(0.5, lam) for lam in (0.2, 0.5, 0.8, 0.95)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_approximants_match_at_low_squeezing():
    p, lam = 0.5, 0.05
    d0 = nongaussianity(p, lam)
    assert abs(nongaussianity_approx(p, lam) - d0) / d0 < 0.02
    rep = discord_gap(p, lam)
    assert abs(rep.gap_approx - rep.gap) / rep.gap < 0.02


def test_low_squeezing_ratio_prediction():
    # measured delta0/gap tracks the quadratic-order ratio and approaches 1
    rep = discord_gap(0.5, 0.05)
    measured = rep.delta0 / rep.gap
    predicted = low_squeezing_ratio(0.05)
    assert abs(measured - predicted) / predicted < 0.05
    assert abs(low_squeezing_ratio(1e-8) - 1.0) < 0.03
    r02 = discord_gap(0.5, 0.2)
    assert abs(measured - 1.0) < abs(r02.delta0 / r02.gap - 1.0)


def test_gap_report_consistency():
    rep = discord_gap(0.5, 0.2)
    assert rep.gap > 0.0
    assert rep.gap_normalized == pytest.approx(rep.ratio_low_squeezing * rep.gap, abs=1e-14)
    assert rep.delta0 == pytest.approx(nongaussianity(0.5, 0.2), abs=1e-14)
    # cross-check against the difference-of-discords route
    from cvwerner.gaussian import gaussian_discord

    res = gaussian_discord(0.5, 0.2)
    assert rep.gap == pytest.approx(res.value - exact.discord(0.5, 0.2), abs=1e-9)


def test_gap_trivial_points():
    rep = discord_gap(0.0, 0.5)
    assert rep.gap == 0.0 and rep.delta0 == pytest.approx(0.0, abs=1e-14)
    rep = discord_gap(1.0, 0.5)
    assert rep.gap == 0.0 and rep.delta0 == pytest.approx(0.0, abs=1e-14)


def test_gap_closes_at_extreme_squeezing_while_nongaussianity_diverges():
    # the gap eventually shrinks as lam -> 1 (it peaks near lam ~ 0.8);
    # by lam = 0.99 it is well below its moderate-squeezing value while
    # the non-Gaussianity keeps growing
    mid = discord_gap(0.5, 0.5)
    extreme = discord_gap(0.5, 0.99)
    assert extreme.gap < mid.gap
    assert extreme.delta0 > 4.0 * mid.delta0


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(float(np.euler_gamma), abs=1e-16)
    assert gap_approx(0.5, 0.05) > 0.0


@pytest.mark.parametrize("p", WEAK_P)
def test_nongaussianity_keeps_relative_precision_at_weak_squeezing(p):
    # S(tau) and S(rho) both shrink like lam^2 ln lam, S(tau) about twice
    # as fast, so delta0 = S(tau) - S(rho) does not cancel; it once came
    # out negative here, from nu - 1 formed by subtraction.  Toward lam = 1
    # they keep it too, through 1 - lam^2 = (1 - lam)(1 + lam) and an S(tau)
    # whose terms do not cancel at large nu.
    for lam in WEAK_LAM + STRONG_LAM:
        ref = closed_forms_decimal(p, lam)
        got = {
            "symplectic_eigenvalue": symplectic_eigenvalue(p, lam),
            "gaussian_reference_entropy": nongauss._reference_entropy(p, lam),
            "delta0": nongaussianity(p, lam),
        }
        for key, value in got.items():
            assert value == pytest.approx(ref[key], rel=WEAK_SQUEEZING_REL, abs=0.0), (key, lam)
        assert got["delta0"] > 0.0, lam
