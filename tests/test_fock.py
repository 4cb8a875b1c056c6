import numpy as np
import pytest

from cvwerner import states
from cvwerner.fock import (
    InvalidSpectrumError,
    NonHermitianError,
    OneModeState,
    TwoModeState,
    eig_spectrum,
    is_more_mixed,
    partial_trace,
    partial_transpose,
    shannon_entropy,
    von_neumann_entropy,
)

# eigenvalue pair of the vacuum Werner state at p = lam = 0.5
NU_LARGE = 0.9330127018922193
NU_SMALL = 0.0669872981077807


def test_entropy_pure_state():
    assert von_neumann_entropy([1.0]) == 0.0


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-14)


def test_entropy_frozen_pair():
    # independent evaluation of -sum(nu ln nu) for the frozen pair
    expected = -(NU_LARGE * np.log(NU_LARGE) + NU_SMALL * np.log(NU_SMALL))
    assert expected == pytest.approx(0.24577536666847116, abs=1e-14)
    assert von_neumann_entropy([NU_LARGE, NU_SMALL]) == pytest.approx(expected, abs=1e-14)


def test_entropy_clips_truncation_noise():
    assert von_neumann_entropy([1.0, -5e-11]) == 0.0


def test_entropy_rejects_real_negatives():
    with pytest.raises(InvalidSpectrumError):
        von_neumann_entropy([1.0, -1e-6])


def test_shannon_trivial():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.25] * 4) == pytest.approx(np.log(4), abs=1e-14)


def test_shannon_rejects_negative():
    with pytest.raises(InvalidSpectrumError):
        shannon_entropy([0.5, 0.5, -1e-3])


def test_shannon_ppt_joint_distribution_series():
    # joint photon-count table of the PPT state at lam = 0.5: its Shannon
    # entropy equals the global entropy plus lam ln 2
    lam = 0.5
    norm = (1 - lam**2) * (1 - lam) / 2
    m = np.arange(400)
    table = norm * np.exp(np.log(lam) * np.add.outer(m, m))
    table[np.diag_indices(400)] *= 2.0
    value = shannon_entropy(table)
    assert value == pytest.approx(2.4826481442249415, abs=1e-10)
    assert value == pytest.approx(2.1360745539449684 + lam * np.log(2), abs=1e-10)


def test_partial_trace_vacuum():
    rho = TwoModeState(3, np.diag([1.0] + [0.0] * 8))
    for mode in ("A", "B"):
        red = partial_trace(rho, mode)
        assert red.matrix[0, 0] == pytest.approx(1.0)
        assert red.trace() == pytest.approx(1.0, abs=1e-14)


def test_partial_trace_tmsv_gives_thermal():
    lam, n = 0.5, 30
    red = partial_trace(states.tmsv(lam, n), "A")
    expected = states.thermal(lam, n).matrix
    assert np.max(np.abs(red.matrix - expected)) < 1e-12
    mean_photons = float(np.arange(n) @ np.real(np.diag(red.matrix)))
    assert mean_photons == pytest.approx(lam**2 / (1 - lam**2), abs=1e-9)


def test_partial_trace_werner_mixture_of_thermals():
    params = states.WernerParams(0.3, 0.4, 0.6)
    rho = states.werner(params)
    n = rho.n_max
    red = partial_trace(rho, "A").matrix
    expected = 0.3 * states.thermal(0.4, n).matrix + 0.7 * states.thermal(0.6, n).matrix
    assert np.max(np.abs(red - expected)) < 1e-12


def test_partial_trace_preserves_trace():
    rho = states.werner(states.WernerParams(0.7, 0.5, 0.2))
    assert partial_trace(rho, "B").trace() == pytest.approx(rho.trace(), abs=1e-12)


def test_partial_transpose_involution_and_product_spectrum():
    params = states.WernerParams(0.6, 0.45, 0.3)
    rho = states.werner(params)
    twice = partial_transpose(partial_transpose(rho, "A"), "A")
    assert np.max(np.abs(twice.matrix - rho.matrix)) < 1e-14

    prod = states.werner(states.WernerParams(0.0, 0.0, 0.5), n_max=20)
    spec0 = eig_spectrum(prod)
    spec1 = eig_spectrum(partial_transpose(prod, "A"))
    assert np.max(np.abs(spec0 - spec1)) < 1e-12


def test_partial_transpose_vacuum_werner_goes_negative():
    rho = states.werner(states.WernerParams(0.5, 0.5, 0.0))
    spec = eig_spectrum(partial_transpose(rho, "A"))
    assert spec[-1] < -1e-3


def test_is_more_mixed_basics():
    assert is_more_mixed([0.6, 0.4], [0.6, 0.4])
    assert is_more_mixed([0.5, 0.5], [1.0, 0.0])
    assert not is_more_mixed([1.0, 0.0], [0.5, 0.5])


def test_is_more_mixed_reduced_vs_global():
    from cvwerner import exact

    p, lam = 0.7, 0.6
    assert is_more_mixed(exact.reduced_spectrum(p, lam, 200), exact.eigenvalue_pair(p, lam))


def test_majorization_implies_entropy_ordering():
    rng = np.random.default_rng(11)
    for _ in range(40):
        b = np.sort(rng.dirichlet(np.ones(6)))[::-1]
        # mixing with the uniform distribution makes a more mixed than b
        w = rng.uniform(0, 1)
        a = w * b + (1 - w) / 6
        assert is_more_mixed(a, b)
        assert von_neumann_entropy(a) >= von_neumann_entropy(b) - 1e-12


def test_eig_spectrum_diagonal():
    d = np.diag([0.1, 0.5, 0.4])
    assert np.allclose(eig_spectrum(d), [0.5, 0.4, 0.1])


def test_eig_spectrum_vacuum_werner_two_point_support():
    rho = states.werner(states.WernerParams(0.5, 0.5, 0.0), n_max=40)
    spec = eig_spectrum(rho)
    assert spec[0] == pytest.approx(NU_LARGE, abs=1e-10)
    assert spec[1] == pytest.approx(NU_SMALL, abs=1e-10)
    assert np.max(np.abs(spec[2:])) < 1e-12


def test_eig_spectrum_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eig_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_entropy_invariant_under_basis_permutation():
    rng = np.random.default_rng(3)
    rho = states.werner(states.WernerParams(0.4, 0.5, 0.3), n_max=8)
    base = von_neumann_entropy(eig_spectrum(rho))
    for _ in range(3):
        perm = rng.permutation(rho.dim)
        permuted = rho.matrix[np.ix_(perm, perm)]
        assert von_neumann_entropy(eig_spectrum(permuted)) == pytest.approx(base, abs=1e-9)


def test_two_mode_state_validation():
    with pytest.raises(NonHermitianError):
        TwoModeState(2, np.arange(16.0).reshape(4, 4))
    rho = states.werner(states.WernerParams(0.5, 0.5, 0.0))
    rho.validate(eps_tail=1e-10)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0  # frozen storage


def _hidden_block_matrix(sizes, dtype, seed):
    """Hermitian matrix with blocks of the given sizes, eigenvalues of order
    1, in a randomly permuted basis so that no block is contiguous."""
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    m = np.zeros((dim, dim), dtype=dtype)
    start = 0
    for s in sizes:
        a = rng.standard_normal((s, s))
        if dtype == complex:
            a = a + 1j * rng.standard_normal((s, s))
        m[start : start + s, start : start + s] = (a + a.conj().T) / (2.0 * s)
        start += s
    perm = rng.permutation(dim)
    return m[np.ix_(perm, perm)]


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the stacks passed to ``np.linalg.eigh``."""
    shapes = []
    real_eigh = np.linalg.eigh

    def recording_eigh(a):
        shapes.append(np.shape(a))
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return shapes


_BLOCK_SIZES = [1, 1, 2, 3, 3, 3, 5, 8, 13]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "sizes, stacks",
    [
        # one stacked call per block size, each block found despite the permutation
        (_BLOCK_SIZES, [(2, 1, 1), (1, 2, 2), (3, 3, 3), (1, 5, 5), (1, 8, 8), (1, 13, 13)]),
        # a dense matrix is a single block
        ([60], [(1, 60, 60)]),
    ],
    ids=["hidden-blocks", "dense"],
)
def test_eig_spectrum_blocks_match_full_eigvalsh(sizes, stacks, dtype, eigh_shapes):
    m = _hidden_block_matrix(sizes, dtype, seed=len(sizes))
    spec = eig_spectrum(m)
    assert np.max(np.abs(spec - np.linalg.eigvalsh(m)[::-1])) < 1e-12
    assert eigh_shapes == stacks


def test_eig_spectrum_blocks_of_oracle_states(eigh_shapes):
    eig_spectrum(states.ppt_werner(0.5, 40))
    assert max(s[-1] for s in eigh_shapes) == 2
    eigh_shapes.clear()
    n = 12
    eig_spectrum(states.werner(states.WernerParams(0.5, 0.6, 0.4), n))
    assert max(s[-1] for s in eigh_shapes) == n


def test_eig_spectrum_residual_check_rejects_bad_decomposition(monkeypatch):
    real_eigh = np.linalg.eigh

    def perturbed_eigh(a):
        w, v = real_eigh(a)
        return w + 1e-6, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
    with pytest.raises(ValueError, match="residual"):
        eig_spectrum(_hidden_block_matrix(_BLOCK_SIZES, float, seed=9))


def test_eig_spectrum_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        eig_spectrum(np.array([[0.5, np.nan], [np.nan, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_states_reject_non_finite_entries(bad):
    one = np.diag([0.5, 0.5])
    one[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite entries, the first"):
        OneModeState(2, one)
    two = np.eye(4) / 4
    two[2, 3] = bad
    with pytest.raises(ValueError, match=r"1 non-finite entries, the first \S+ at \(2, 3\)"):
        TwoModeState(2, two)
    with pytest.raises(ValueError, match="16 non-finite entries"):
        TwoModeState(2, np.full((4, 4), bad))
