import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwerner import bounds, exact, gaussian, nongauss, ppt
from cvwerner.fock import (
    MAX_TWO_MODE_DIM,
    eig_spectrum,
    partial_trace,
    partial_transpose,
    von_neumann_entropy,
)
from cvwerner.states import (
    DEFAULT_EPS_TAIL,
    WernerParams,
    choose_cutoff,
    ppt_werner,
    thermal,
    thermal_entropy,
    tmsv_vector,
    werner,
)
from helpers_oracles import joint_photon_distribution


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
    "ppt.bounds": (ppt.bounds, _BAD_FACTOR),
    "ppt.norm_const": (ppt.norm_const, _BAD_FACTOR),
    "ppt.closed_form_spectrum": (lambda v: ppt.closed_form_spectrum(v, 3), _BAD_FACTOR),
    "bounds.p_separable": (bounds.p_separable, _BAD_FACTOR),
    "bounds.p_ppt": (bounds.p_ppt, _BAD_FACTOR),
    "nongauss.low_squeezing_ratio": (nongauss.low_squeezing_ratio, _BAD_FACTOR),
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
            bounds.reduced_spectrum,
        )
        for i, (arg, bad) in enumerate((("p", _BAD_P), ("lam", _BAD_FACTOR), ("mu", _BAD_FACTOR)))
    }
)


# A cutoff below 1 holds no photon count, and a cutoff is an integer.  At
# mu = 0 the conditional entropy takes its pure-state shortcut, which must
# not skip the check.
_BAD_CUTOFF = (0, -3, 2.5, float("nan"))
_ENTRY_POINTS.update(
    {
        f"bounds.{fn.__name__}-n_max": (lambda v, fn=fn: fn(0.5, 0.5, 0.5, v), _BAD_CUTOFF)
        for fn in (
            bounds.global_entropy,
            bounds.marginal_entropy,
            bounds.conditional_entropy_photon_counting,
            bounds.reduced_spectrum,
        )
    }
)
_ENTRY_POINTS["bounds.conditional_entropy_photon_counting-n_max-mu0"] = (
    lambda v: bounds.conditional_entropy_photon_counting(0.5, 0.5, 0.0, v),
    _BAD_CUTOFF,
)
_ENTRY_POINTS["bounds.bounds_report-n_max"] = (
    lambda v: bounds.bounds_report(WernerParams(0.5, 0.5, 0.5), v),
    _BAD_CUTOFF,
)
_ENTRY_POINTS["werner-n_max"] = (lambda v: werner(WernerParams(0.5, 0.5, 0.5), v), _BAD_CUTOFF)
_ENTRY_POINTS["ppt_werner-n_max"] = (lambda v: ppt_werner(0.5, v), _BAD_CUTOFF)
# These check the cutoff before np.arange would round or drop it.
_ENTRY_POINTS["thermal-n_max"] = (lambda v: thermal(0.5, v), _BAD_CUTOFF)
_ENTRY_POINTS["tmsv_vector-n_max"] = (lambda v: tmsv_vector(0.5, v), _BAD_CUTOFF)
_ENTRY_POINTS["ppt.closed_form_spectrum-n_max"] = (
    lambda v: ppt.closed_form_spectrum(0.5, v), _BAD_CUTOFF
)


_ENTRY_POINTS.update(
    {
        f"{fn.__module__.split('.')[-1]}.{fn.__name__}-{arg}": (
            lambda v, fn=fn, i=i, rest=rest: fn(*(v if j == i else 0.5 for j in range(2)), *rest),
            bad,
        )
        for fn, rest in (
            (exact.eigenvalue_pair, ()),
            (exact.reduced_entropy, ()),
            (bounds.discord_is_positive, ()),
            (nongauss.nongaussianity_approx, ()),
            (nongauss.gap_approx, ()),
        )
        for i, (arg, bad) in enumerate((("p", _BAD_P), ("lam", _BAD_FACTOR)))
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


_TOLERANCE_ENTRY_POINTS = {
    "choose_cutoff-eps_tail": lambda v: choose_cutoff(WernerParams(0.5, 0.5, 0.5), v),
    "ppt.reduced_entropy-tol": lambda v: ppt.reduced_entropy(0.5, v),
    "ppt.bounds-tol": lambda v: ppt.bounds(0.5, v),
}


@pytest.mark.parametrize(
    "entry, value",
    [(name, v) for name in _TOLERANCE_ENTRY_POINTS for v in (float("nan"), 0.0, -1e-10, float("inf"))],
)
def test_tolerance_check_rejects_non_positive_and_non_finite(entry, value):
    with pytest.raises(ValueError, match="must be finite and positive"):
        _TOLERANCE_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ppt_werner(0.5, 131),
        lambda: werner(WernerParams(0.5, 0.5, 0.5), 131),
        # lam = 0.9 picks cutoff 132, dimension 17424.
        lambda: exact.discord_numeric(0.5, 0.9),
        lambda: exact.quantumness_indicators(0.5, 0.9),
    ],
    ids=["ppt_werner", "werner", "discord_numeric", "quantumness_indicators"],
)
def test_dense_builders_raise_before_allocating(build):
    # One dense matrix of dimension 17161 would take 2.4 GB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"dense-storage limit {MAX_TWO_MODE_DIM}"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize(
    "build",
    [
        lambda: thermal(0.5, MAX_TWO_MODE_DIM + 1),
        lambda: ppt.closed_form_spectrum(0.5, MAX_TWO_MODE_DIM + 1),
    ],
    ids=["thermal", "ppt.closed_form_spectrum"],
)
def test_square_builders_raise_before_allocating(build):
    # Each would build an n_max x n_max array of 2.3 GB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limit {MAX_TWO_MODE_DIM} on dense n_max x n_max"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cutoff_checks_accept_numpy_integers():
    params = WernerParams(0.5, 0.5, 0.5)
    for n in (np.int32(20), np.int64(20)):
        assert bounds.bounds_report(params, n) == bounds.bounds_report(params, 20)
        assert np.array_equal(werner(params, n).matrix, werner(params, 20).matrix)
        assert np.array_equal(thermal(0.5, n), thermal(0.5, 20))


def test_choose_cutoff_vacuum_only():
    assert choose_cutoff(WernerParams(1.0, 0.0, 0.0)) == 2


def test_choose_cutoff_examples():
    n = choose_cutoff(WernerParams(0.5, 0.5, 0.5), 1e-12)
    assert n == 21  # the thermal product needs one step past the lam^(2n) rule
    assert n >= 20
    assert choose_cutoff(WernerParams(0.5, 0.9, 0.0), 1e-10) == 110


@pytest.mark.parametrize("mu", [1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 1e-12])
def test_choose_cutoff_near_mu_one_is_the_smallest_and_quick(mu):
    # The answer lies about ln 2 / (2 (1 - mu)) past ln eps / ln mu^2, the
    # rule that ignores the factor 2 of 2 mu^(2n) - mu^(4n).  A search that
    # stepped from that rule took 2.2 s at 1 - 1e-7, and would take 3.5e11
    # steps at 1 - 1e-12; bisection takes O(log n) evaluations.
    params = WernerParams(0.5, 0.5, mu)
    start = time.perf_counter()
    n = choose_cutoff(params)
    elapsed = time.perf_counter() - start

    def tail(k):
        mu2 = mu**2
        return max(0.25**k, 2.0 * mu2**k - mu2 ** (2 * k))

    assert tail(n) < DEFAULT_EPS_TAIL <= tail(n - 1)
    assert elapsed < 0.1


@pytest.mark.parametrize("eps", [5e-324, 1e-310, 1e-300, 1e-12, 0.5, 1.0, 1e300])
def test_choose_cutoff_is_the_smallest_at_every_tolerance_and_quick(eps):
    # T(n) < eps <= T(n - 1), or n = 2, in floating point; at a subnormal
    # eps and lam or mu near 1, T(n) passes only where q^n underflows.
    factors = (0.0, 5e-324, 0.5, 0.98, 1.0 - 1e-6, 1.0 - 1e-12, 0.9999999999999999)
    for lam, mu in itertools.product(factors, factors):
        lam2, mu2 = lam**2, mu**2

        def tail(k):
            return max(lam2**k, 2.0 * mu2**k - mu2 ** (2 * k))

        elapsed = math.inf
        for _ in range(3):
            start = time.perf_counter()
            n = choose_cutoff(WernerParams(0.5, lam, mu), eps)
            elapsed = min(elapsed, time.perf_counter() - start)
        assert tail(n) < eps, (lam, mu, n)
        assert n == 2 or eps <= tail(n - 1), (lam, mu, n)
        assert elapsed < 1e-3, (lam, mu)


def test_choose_cutoff_controls_trace():
    for params in (WernerParams(0.3, 0.6, 0.4), WernerParams(0.9, 0.2, 0.7)):
        for eps in (1e-8, 1e-12):
            rho = werner(params, choose_cutoff(params, eps))
            assert abs(rho.trace() - 1.0) < eps


def test_tmsv_vacuum_limit():
    rho = werner(WernerParams(1.0, 0.0), 4)
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(rho.matrix)) == pytest.approx(1.0)


def test_tmsv_amplitudes():
    vec = tmsv_vector(0.5, 10)
    assert vec[1] == pytest.approx(np.sqrt(0.75) * 0.5, abs=1e-15)
    assert 1.0 - np.sum(vec**2) == pytest.approx(0.5 ** (2 * 10), abs=1e-12)


def test_thermal_weights_and_entropy():
    th = thermal(0.5, 40)
    assert not th.flags.writeable
    diag = np.diag(th)
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
    expected = np.kron(thermal(0.5, n), thermal(0.5, n))
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


@pytest.mark.parametrize("lam, n", [(0.2, 24), (0.5, 44), (0.8, 76)])
def test_ppt_werner_counts_are_the_werner_table_at_the_mapped_point(lam, n):
    # A partial transpose keeps every <mn|rho|mn>; the dense builder writes
    # its own formula, so this shares no algebra with the table.
    counts = np.diag(ppt_werner(lam, n).matrix).reshape(n, n)
    table = joint_photon_distribution((1 - lam) / 2, lam, np.sqrt(lam), n)
    np.testing.assert_allclose(counts, table, rtol=1e-13, atol=0)


def test_ppt_werner_reduced_weights():
    lam, n = 0.6, 60
    red = np.diag(partial_trace(ppt_werner(lam, n), "A"))
    expected = bounds.reduced_spectrum((1 - lam) / 2, lam, np.sqrt(lam), n)
    # the truncated marginal misses one geometric tail per row
    assert np.max(np.abs(red - expected)) < 1e-9



# Dense references for the entry-built states, with the arithmetic of a
# builder that forms the whole matrix: bit-for-bit equality is expected.
def _dense_tmsv_ket(lam, n):
    vec = np.zeros(n * n)
    vec[np.arange(n) * (n + 1)] = np.sqrt(1.0 - lam**2) * lam ** np.arange(n, dtype=float)
    return vec


def _dense_werner(p, lam, mu, n):
    vec = _dense_tmsv_ket(lam, n)
    rho = np.outer(vec, vec)
    rho *= p
    th = (1.0 - mu**2) * mu ** (2 * np.arange(n, dtype=float))
    rho[np.diag_indices(n * n)] += (1.0 - p) * np.kron(th, th)
    return rho


def _dense_ppt_werner(lam, n):
    norm = (1.0 - lam**2) * (1.0 - lam) / 2.0
    powers = lam ** np.arange(n, dtype=float)
    weights = norm * np.outer(powers, powers)
    rho = np.zeros((n, n, n, n))
    m, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rho[m, k, m, k] = weights
    rho[k, m, m, k] += weights
    return rho.reshape(n * n, n * n)


def _dense_partial_transpose(matrix, n, mode):
    axes = (2, 1, 0, 3) if mode == "A" else (0, 3, 2, 1)
    return matrix.reshape(n, n, n, n).transpose(axes).reshape(n * n, n * n)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 5, 30])
def test_werner_at_p_one_is_the_tmsv_projector(lam, n):
    # The two-mode squeezed vacuum has no builder of its own.
    ket = _dense_tmsv_ket(lam, n)
    assert np.array_equal(werner(WernerParams(1.0, lam), n).matrix, np.outer(ket, ket))


_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_factor = st.one_of(st.just(0.0), st.floats(0.0, 0.95))


@settings(max_examples=60, deadline=None)
@given(p=_unit, lam=_factor, mu=_factor, n=st.integers(2, 12))
def test_entry_built_states_match_dense_references(p, lam, mu, n):
    built = [
        (werner(WernerParams(p, lam, mu), n), _dense_werner(p, lam, mu, n)),
        (ppt_werner(lam, n), _dense_ppt_werner(lam, n)),
    ]
    for state, dense in built:
        assert np.array_equal(state.matrix, dense)
        assert np.array_equal(eig_spectrum(state), eig_spectrum(state.matrix))
        for mode in ("A", "B"):
            pt = partial_transpose(state, mode)
            assert np.array_equal(pt.matrix, _dense_partial_transpose(dense, n, mode))
            assert np.array_equal(eig_spectrum(pt), eig_spectrum(pt.matrix))
