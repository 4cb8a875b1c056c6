import numpy as np
import pytest

from cvwerner import bounds, exact, gaussian, nongauss, ppt
from cvwerner.fock import eig_spectrum, partial_trace, partial_transpose, von_neumann_entropy
from cvwerner.states import (
    WernerParams,
    choose_cutoff,
    ppt_werner,
    thermal,
    thermal_entropy,
    tmsv,
    tmsv_vector,
    werner,
)


def test_params_validation():
    with pytest.raises(ValueError):
        WernerParams(1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        WernerParams(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        WernerParams(0.5, 0.5, -0.1)
    assert WernerParams(0.5, np.tanh(1.0), 0.0).r == pytest.approx(1.0, abs=1e-12)


_BAD_P = (float("nan"), -0.1, 1.1)
_BAD_FACTOR = (float("nan"), -0.1, 1.0)
_ENTRY_POINTS = {
    "WernerParams-p": (lambda v: WernerParams(v, 0.5, 0.5), _BAD_P),
    "WernerParams-lam": (lambda v: WernerParams(0.5, v, 0.5), _BAD_FACTOR),
    "WernerParams-mu": (lambda v: WernerParams(0.5, 0.5, v), _BAD_FACTOR),
    "tmsv_vector": (lambda v: tmsv_vector(v, 4), _BAD_FACTOR),
    "thermal": (lambda v: thermal(v, 4), _BAD_FACTOR),
    "thermal_entropy": (thermal_entropy, _BAD_FACTOR),
    "ppt_werner": (lambda v: ppt_werner(v, 4), _BAD_FACTOR),
    "exact.discord-p": (lambda v: exact.discord(v, 0.5), _BAD_P),
    "exact.discord-lam": (lambda v: exact.discord(0.5, v), _BAD_FACTOR),
    "nongauss.symplectic_eigenvalue-p": (lambda v: nongauss.symplectic_eigenvalue(v, 0.5), _BAD_P),
    "gaussian.conditional_entropy-p": (
        lambda v: gaussian.conditional_entropy(v, 0.5, gaussian.HETERODYNE), _BAD_P
    ),
    "gaussian.conditional_entropy-lam": (
        lambda v: gaussian.conditional_entropy(0.5, v, gaussian.HETERODYNE), _BAD_FACTOR
    ),
    "bounds.separability_region-p": (lambda v: bounds.separability_region(v, 0.5), _BAD_P),
    "bounds.separability_region-mu": (lambda v: bounds.separability_region(0.5, v), _BAD_FACTOR),
    "ppt.global_entropy": (ppt.global_entropy, _BAD_FACTOR),
    "ppt.reduced_entropy": (ppt.reduced_entropy, _BAD_FACTOR),
    "ppt.upper_bound": (ppt.upper_bound, _BAD_FACTOR),
    "ppt.joint_distribution_entropy": (ppt.joint_distribution_entropy, _BAD_FACTOR),
    "ppt.mid": (ppt.mid, _BAD_FACTOR),
    "ppt.conditional_entropy": (ppt.conditional_entropy, _BAD_FACTOR),
    "ppt.lower_bound": (ppt.lower_bound, _BAD_FACTOR),
    "ppt.bounds": (ppt.bounds, _BAD_FACTOR),
}


def _at_point(fn, i):
    """``v -> fn(p, lam, mu, 20)`` with argument ``i`` of (0.5, 0.5, 0.5) set to ``v``."""
    return lambda v: fn(*(v if j == i else 0.5 for j in range(3)), 20)


_ENTRY_POINTS.update(
    {
        f"bounds.{fn.__name__}-{arg}": (_at_point(fn, i), bad)
        for fn in (
            bounds.global_entropy,
            bounds.marginal_entropy,
            bounds.conditional_entropy_photon_counting,
            bounds.upper_bound,
            bounds.lower_bound,
            bounds.mid,
            bounds.reduced_spectrum,
            bounds.correlated_block,
            bounds.joint_photon_distribution,
        )
        for i, (arg, bad) in enumerate((("p", _BAD_P), ("lam", _BAD_FACTOR), ("mu", _BAD_FACTOR)))
    }
)


@pytest.mark.parametrize(
    "entry, value",
    [(name, v) for name, (_, bad) in _ENTRY_POINTS.items() for v in bad],
)
def test_domain_check_rejects_nan_and_out_of_range(entry, value):
    fn = _ENTRY_POINTS[entry][0]
    with pytest.raises(ValueError, match="outside"):
        fn(value)


def test_choose_cutoff_vacuum_only():
    assert choose_cutoff(WernerParams(1.0, 0.0, 0.0)) == 2


def test_choose_cutoff_examples():
    n = choose_cutoff(WernerParams(0.5, 0.5, 0.5), 1e-12)
    assert n == 21  # the thermal product needs one step past the lam^(2n) rule
    assert n >= 20
    assert choose_cutoff(WernerParams(0.5, 0.9, 0.0), 1e-10) == 110


def test_choose_cutoff_controls_trace():
    for params in (WernerParams(0.3, 0.6, 0.4), WernerParams(0.9, 0.2, 0.7)):
        for eps in (1e-8, 1e-12):
            rho = werner(params, choose_cutoff(params, eps))
            assert abs(rho.trace() - 1.0) < eps


def test_tmsv_vacuum_limit():
    rho = tmsv(0.0, 4)
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(rho.matrix)) == pytest.approx(1.0)


def test_tmsv_amplitudes():
    vec = tmsv_vector(0.5, 10)
    assert vec[1] == pytest.approx(np.sqrt(0.75) * 0.5, abs=1e-15)
    assert 1.0 - np.sum(vec**2) == pytest.approx(0.5 ** (2 * 10), abs=1e-12)


def test_thermal_weights_and_entropy():
    th = thermal(0.5, 40)
    diag = np.real(np.diag(th.matrix))
    assert diag[0] == pytest.approx(0.75, abs=1e-15)
    assert diag[1] == pytest.approx(0.1875, abs=1e-15)
    # closed-form entropy against the direct series
    assert thermal_entropy(0.5) == pytest.approx(von_neumann_entropy(diag), abs=1e-12)
    assert thermal_entropy(0.5) == pytest.approx(0.7497801928250777, abs=1e-12)
    # thermal with mean photon number 1 has entropy 2 ln 2
    assert thermal_entropy(np.sqrt(0.5)) == pytest.approx(2 * np.log(2), abs=1e-12)


def test_werner_product_and_pure_limits():
    prod = werner(WernerParams(0.0, 0.3, 0.5))
    n = prod.n_max
    expected = np.kron(thermal(0.5, n).matrix, thermal(0.5, n).matrix)
    assert np.max(np.abs(prod.matrix - expected)) < 1e-14

    pure = werner(WernerParams(1.0, 0.5, 0.5))
    assert von_neumann_entropy(eig_spectrum(pure)) < 1e-9


def test_werner_mode_swap_symmetry():
    rho = werner(WernerParams(0.4, 0.5, 0.35))
    n = rho.n_max
    swapped = rho.matrix.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    assert np.max(np.abs(swapped - rho.matrix)) < 1e-14


def test_werner_positivity_and_renormalize():
    params = WernerParams(0.6, 0.5, 0.4)
    rho = werner(params)
    assert eig_spectrum(rho)[-1] > -1e-10


def test_ppt_werner_vacuum_limit():
    rho = ppt_werner(0.0, 4)
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(rho.matrix)) == pytest.approx(1.0)


def test_ppt_werner_spectrum_matches_closed_form():
    lam, n = 0.5, 40
    state = ppt_werner(lam, n)
    spec = eig_spectrum(state)
    closed = ppt.closed_form_spectrum(lam, n)
    k = closed.size
    assert np.max(np.abs(spec[:k] - closed)) < 1e-10
    assert np.max(np.abs(spec[k:])) < 1e-12
    assert spec[-1] > -1e-12


def test_ppt_werner_equals_partial_transpose_of_werner():
    lam = 0.5
    state = ppt_werner(lam)
    w = werner(WernerParams((1 - lam) / 2, lam, np.sqrt(lam)), n_max=state.n_max)
    pt = partial_transpose(w, "A")
    assert np.max(np.abs(pt.matrix - state.matrix)) < 1e-12


def test_ppt_werner_reduced_weights():
    lam, n = 0.6, 60
    red = np.real(np.diag(partial_trace(ppt_werner(lam, n), "A").matrix))
    expected = ppt.reduced_probabilities(lam, n)
    # the truncated marginal misses one geometric tail per row
    assert np.max(np.abs(red - expected)) < 1e-9

