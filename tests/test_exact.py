import numpy as np
import pytest

from cvwerner import bounds, exact
from cvwerner.fock import eig_spectrum, partial_trace, von_neumann_entropy
from cvwerner.states import WernerParams, thermal_entropy, werner
from helpers_oracles import (
    STRONG_LAM,
    WEAK_LAM,
    WEAK_P,
    WEAK_SQUEEZING_REL,
    closed_forms_decimal,
    global_entropy_numeric,
    reduced_entropy_numeric,
)

# frozen oracle values at p = lam = 0.5 (direct series / eigensolver)
S_GLOBAL_55 = 0.24577536666847116
S_REDUCED_55 = 0.47049268535957156
DISCORD_55 = S_REDUCED_55 - S_GLOBAL_55


def test_global_entropy_trivial_endpoints():
    assert exact.global_entropy(1.0, 0.5) == 0.0
    assert exact.global_entropy(0.0, 0.5) == 0.0


def test_global_entropy_frozen_point():
    assert exact.global_entropy(0.5, 0.5) == pytest.approx(S_GLOBAL_55, abs=1e-14)


def test_global_entropy_matches_matrix_oracle():
    for p, lam in ((0.3, 0.2), (0.5, 0.5), (0.8, 0.6)):
        assert exact.global_entropy(p, lam) == pytest.approx(
            global_entropy_numeric(p, lam), abs=1e-9
        )


def test_reduced_entropy_closed_form():
    assert exact.reduced_entropy(0.5, 0.0) == 0.0
    assert exact.reduced_entropy(1.0, 0.5) == pytest.approx(thermal_entropy(0.5), abs=1e-12)
    assert exact.reduced_entropy(0.5, 0.5) == pytest.approx(S_REDUCED_55, abs=1e-12)
    # independent series evaluation of the reduced spectrum
    series = von_neumann_entropy(bounds.reduced_spectrum(0.5, 0.5, 0.0, 300))
    assert exact.reduced_entropy(0.5, 0.5) == pytest.approx(series, abs=1e-12)
    assert exact.reduced_entropy(0.5, 0.5) == pytest.approx(
        reduced_entropy_numeric(0.5, 0.5), abs=1e-9
    )


def test_discord_values():
    assert exact.discord(0.0, 0.7) == 0.0
    assert exact.discord(1.0, 0.5) == pytest.approx(thermal_entropy(0.5), abs=1e-12)
    assert exact.discord(0.5, 0.5) == pytest.approx(DISCORD_55, abs=1e-12)
    assert exact.discord(0.5, 0.5) == pytest.approx(exact.discord_numeric(0.5, 0.5), abs=1e-8)


def test_discord_monotone_in_p_and_lam():
    lams = np.linspace(0.05, 0.9, 12)
    ps = np.linspace(0.0, 1.0, 12)
    for lam in (0.2, 0.5, 0.8):
        vals = [exact.discord(p, lam) for p in ps]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for p in (0.3, 0.7):
        vals = [exact.discord(p, lam) for lam in lams]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_discord_report_invariants():
    rep = exact.discord_report(0.4, 0.6)
    assert rep.eig_large + rep.eig_small == pytest.approx(1.0, abs=1e-14)
    assert rep.discord == pytest.approx(rep.entropy_reduced - rep.entropy_global, abs=1e-15)
    assert rep.discord >= 0.0


@pytest.mark.parametrize("p, lam", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.4, 0.6), (0.95, 0.98)])
def test_closed_forms_return_python_floats(p, lam):
    rep = exact.discord_report(p, lam)
    values = [exact.reduced_entropy(p, lam), exact.global_entropy(p, lam), exact.discord(p, lam)]
    values += [rep.eig_large, rep.eig_small, rep.entropy_global, rep.entropy_reduced, rep.discord]
    assert all(type(v) is float for v in values), [type(v) for v in values]


def test_domain_validation():
    with pytest.raises(ValueError):
        exact.discord(1.5, 0.5)
    with pytest.raises(ValueError):
        exact.reduced_entropy(0.5, 1.0)


def test_classical_mutual_information_product_state():
    rho = werner(WernerParams(0.0, 0.0, 0.5), n_max=25)
    assert exact.classical_mutual_information(rho) == pytest.approx(0.0, abs=1e-12)


def test_classical_mutual_information_saturates_reduced_entropy():
    # photon counting on the vacuum Werner state: I(p_AB) = S(rho_B)
    p, lam = 0.6, 0.5
    rho = werner(WernerParams(p, lam, 0.0))
    s_b = von_neumann_entropy(eig_spectrum(partial_trace(rho, "A")))
    assert exact.classical_mutual_information(rho) == pytest.approx(s_b, abs=1e-10)


def test_classical_mutual_information_ppt_point():
    from cvwerner.states import ppt_werner

    value = exact.classical_mutual_information(ppt_werner(0.5, 60))
    assert value == pytest.approx(0.04064620427212384, abs=1e-8)


def test_classical_mutual_information_upper_bounds():
    rng = np.random.default_rng(17)
    for _ in range(5):
        params = WernerParams(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.6))
        rho = werner(params)
        s_a = von_neumann_entropy(eig_spectrum(partial_trace(rho, "B")))
        s_b = von_neumann_entropy(eig_spectrum(partial_trace(rho, "A")))
        s_g = von_neumann_entropy(eig_spectrum(rho))
        mutual_q = s_a + s_b - s_g
        mutual_c = exact.classical_mutual_information(rho)
        assert mutual_c <= min(s_a, s_b, mutual_q) + 1e-9


def test_quantumness_indicators_coincide():
    d, amid, req = exact.quantumness_indicators(0.5, 0.5)
    assert d == pytest.approx(DISCORD_55, abs=1e-12)
    assert amid == pytest.approx(d, abs=1e-8)
    assert req == pytest.approx(d, abs=1e-8)
    zero = exact.quantumness_indicators(0.0, 0.5)
    assert max(abs(v) for v in zero) < 1e-10


@pytest.mark.parametrize("p", WEAK_P)
def test_closed_forms_keep_relative_precision_at_weak_squeezing(p):
    for lam in WEAK_LAM + STRONG_LAM:
        ref = closed_forms_decimal(p, lam)
        rep = exact.discord_report(p, lam)
        keys = ("entropy_global", "entropy_reduced")
        # The eigenvalues take 1 - 4p(1-p)lam^2, which cancels at p = 1/2
        # near lam = 1, so they are held to the bound at weak squeezing only.
        if lam in WEAK_LAM:
            keys += ("eig_large", "eig_small")
        for key in keys:
            assert getattr(rep, key) == pytest.approx(ref[key], rel=WEAK_SQUEEZING_REL, abs=0.0), (key, lam)
        # The discord is a difference of the two entropies, so its error
        # bound is theirs: it keeps relative precision only where they
        # do not cancel (at p = 1e-12 and lam = 1e-8 it keeps 4 digits).
        scale = ref["entropy_reduced"] + ref["entropy_global"]
        assert abs(rep.discord - ref["discord"]) <= WEAK_SQUEEZING_REL * scale, lam
        assert rep.discord > 0.0, lam
