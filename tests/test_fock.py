import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from cvwerner import fock, states
from cvwerner.fock import (
    InvalidSpectrumError,
    NonHermitianError,
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


@pytest.mark.parametrize(
    "entropy, values, message",
    [
        (von_neumann_entropy, [np.nan, 1.0], "spectrum entry nan at 0 is not finite"),
        (von_neumann_entropy, [1.0, np.inf], "spectrum entry inf at 1 is not finite"),
        (shannon_entropy, [np.nan, 0.5], "probability entry nan at 0 is not finite"),
        (shannon_entropy, [np.inf], "probability entry inf at 0 is not finite"),
        (shannon_entropy, [0.5, -np.inf], "probability entry -inf at 1 is not finite"),
        (
            lambda v: fock.antidiagonal_entropy(v, [0.5, np.nan]),
            [np.nan, 0.1, 0.1],
            "probability entry nan at 0 is not finite",
        ),
        (
            lambda v: fock.antidiagonal_entropy([0.1, 0.1, 0.1], v),
            [0.5, np.inf],
            "probability entry inf at 1 is not finite",
        ),
    ],
)
def test_entropies_reject_non_finite_entries(entropy, values, message):
    with pytest.raises(InvalidSpectrumError, match=re.escape(message)):
        entropy(values)


@pytest.mark.parametrize(
    "entropy, message",
    [
        (lambda: von_neumann_entropy([1.0, -1e-6]), "spectrum entry -1.000000e-06 below the tolerated floor -1e-10"),
        (lambda: shannon_entropy([0.5, 0.5, -1e-3]), "negative probability -1.000000e-03"),
        # xlogx sends a negative entry to 0, so these two returned 0.5521
        # and 0.8071 before the floor check.
        (lambda: fock.antidiagonal_entropy([0.5, -0.1, 0.3], [0.2, 0.1]), "negative probability -1.000000e-01"),
        (lambda: fock.antidiagonal_entropy([0.1, 0.1, 0.1], [0.5, -0.1]), "negative probability -1.000000e-01"),
    ],
    ids=["von_neumann", "shannon", "antidiagonal-entry", "antidiagonal-diag"],
)
def test_entropies_reject_entries_below_their_floor(entropy, message):
    with pytest.raises(InvalidSpectrumError, match=re.escape(message)):
        entropy()


def test_antidiagonal_entropy_counts_entries_above_the_floor_as_zero():
    noise = fock.PROBABILITY_FLOOR / 2
    clean = fock.antidiagonal_entropy([0.5, 0.0, 0.3], [0.2, 0.0])
    assert fock.antidiagonal_entropy([0.5, noise, 0.3], [0.2, noise]) == clean


def test_antidiagonal_entropy_of_a_certain_table_is_plus_zero():
    # A table with all its mass on one entry has entropy +0.0, not -0.0.
    for entry, diag in (([0.0, 0.0, 0.0], [1.0, 0.0]), ([0.0], [1.0])):
        assert fock.antidiagonal_entropy(entry, diag).hex() == (0.0).hex()


def test_xlogx_keeps_nan_and_no_other_bit():
    x = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 7.0, np.inf])
    got = fock.xlogx(x)
    assert np.isnan(got[0])
    # Apart from NaN, bit for bit the formula that sends NaN to 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        before = np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
    assert np.array_equal(got[1:].view(np.int64), before[1:].view(np.int64))


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
        assert red[0, 0] == pytest.approx(1.0)
        assert np.trace(red) == pytest.approx(1.0, abs=1e-14)


def test_partial_trace_tmsv_gives_thermal():
    lam, n = 0.5, 30
    red = partial_trace(states.werner(states.WernerParams(1.0, lam), n), "A")
    expected = states.thermal(lam, n)
    assert np.max(np.abs(red - expected)) < 1e-12
    mean_photons = float(np.arange(n) @ np.real(np.diag(red)))
    assert mean_photons == pytest.approx(lam**2 / (1 - lam**2), abs=1e-9)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_partial_trace_is_a_read_only_array_of_the_entries_dtype(complex_entries):
    # The reduced matrix has the dtype of the state's entries.
    rho = states.werner(states.WernerParams(0.4, 0.5, 0.3), 6)
    if complex_entries:
        phase = np.exp(0.3j * np.arange(rho.dim))
        rho = TwoModeState(rho.n_max, phase[:, None] * rho.matrix * phase.conj())
    for mode in ("A", "B"):
        red = partial_trace(rho, mode)
        assert type(red) is np.ndarray and red.shape == (6, 6)
        assert red.dtype == (np.complex128 if complex_entries else np.float64)
        with pytest.raises(ValueError, match="read-only"):
            red[0, 0] = 2.0


def test_partial_trace_werner_mixture_of_thermals():
    params = states.WernerParams(0.3, 0.4, 0.6)
    rho = states.werner(params)
    n = rho.n_max
    red = partial_trace(rho, "A")
    expected = 0.3 * states.thermal(0.4, n) + 0.7 * states.thermal(0.6, n)
    assert np.max(np.abs(red - expected)) < 1e-12


def test_partial_trace_preserves_trace():
    rho = states.werner(states.WernerParams(0.7, 0.5, 0.2))
    assert np.trace(partial_trace(rho, "B")) == pytest.approx(rho.trace(), abs=1e-12)


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


@pytest.mark.parametrize(
    "a, b, message",
    [
        # Before either spectrum was checked these returned False and True.
        ([np.nan], [1.0], "spectrum entry nan at 0 is not finite"),
        ([0.5, 0.5], [np.inf], "spectrum entry inf at 0 is not finite"),
        ([1.0, -np.inf], [1.0], "spectrum entry -inf at 1 is not finite"),
        ([1.0], [0.5, np.nan], "spectrum entry nan at 1 is not finite"),
    ],
)
def test_is_more_mixed_rejects_non_finite_entries(a, b, message):
    with pytest.raises(InvalidSpectrumError, match=re.escape(message)):
        is_more_mixed(a, b)


def test_is_more_mixed_reduced_vs_global():
    from cvwerner import bounds, exact

    p, lam = 0.7, 0.6
    assert is_more_mixed(bounds.reduced_spectrum(p, lam, 0.0, 200), exact.eigenvalue_pair(p, lam))


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
        eig_spectrum(one)
    two = np.eye(4) / 4
    two[2, 3] = bad
    with pytest.raises(ValueError, match=r"1 non-finite entries, the first \S+ at \(2, 3\)"):
        TwoModeState(2, two)
    with pytest.raises(ValueError, match="16 non-finite entries"):
        TwoModeState(2, np.full((4, 4), bad))


def _hermitian_background(dim, dtype, full):
    """A Hermitian matrix: diagonal, or with every entry nonzero."""
    if not full:
        return np.eye(dim, dtype=dtype) / dim
    ones = np.ones((dim, dim))
    m = (ones + np.eye(dim)) / dim**2
    if dtype is complex:
        m = m + 1j * (np.triu(ones, 1) - np.tril(ones, -1)) / dim**2
    return m


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 12),
    data=st.data(),
    dev=st.floats(1e-11, 1.0),
    dtype=st.sampled_from([float, complex]),
    full=st.booleans(),
)
def test_entry_checks_find_a_defect_or_nan_anywhere(n, data, dev, dtype, full):
    # The checks run on the entries of every state: one defect, anywhere in
    # the matrix and whether or not its mirror entry is zero, is reported
    # with its size, and one NaN with its place.
    dim = n * n
    i, j = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    m = _hermitian_background(dim, dtype, full)
    if dtype is complex and i == j:
        m[i, j] += 1j * dev  # not Hermitian although it equals its transpose
    else:
        m[i, j] += dev
    expected = abs(m[i, j] - np.conj(m[j, i]))
    if i == j and dtype is float:
        assert expected == 0.0  # a real diagonal entry is always Hermitian
        TwoModeState(n, m)
    else:
        for build in (lambda: TwoModeState(n, m), lambda: eig_spectrum(m)):
            with pytest.raises(NonHermitianError, match=re.escape(f"deviates from Hermiticity by {expected:.3e}")):
                build()
    m = _hermitian_background(dim, dtype, full)
    m[i, j] = np.nan
    for build in (lambda: TwoModeState(n, m), lambda: eig_spectrum(m)):
        with pytest.raises(ValueError, match=rf"1 non-finite entries, the first \S+ at \({i}, {j}\)"):
            build()


def test_eig_spectrum_of_empty_matrix_is_empty():
    spec = eig_spectrum(np.zeros((0, 0)))
    assert spec.shape == (0,)


def _scipy_labels(dim, rows, cols):
    """Component labels from scipy's ``connected_components``."""
    pattern = coo_array((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(dim, dim))
    return connected_components(pattern, directed=False)[1]


def _path(order):
    return order[:-1], order[1:]


@st.composite
def _patterns(draw):
    """A nonzero pattern ``(dim, rows, cols)``: random pairs (one-way or
    mirrored), a path, a grid, or equal-sized paths, each with isolated
    indices and its indices permuted at random."""
    kind = draw(st.sampled_from(["one-way", "mirrored", "path", "grid", "equal-sizes"]))
    isolated = draw(st.integers(0, 5))
    if kind in ("one-way", "mirrored"):
        dim = draw(st.integers(1, 40))
        pairs = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=60))
        rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        if kind == "mirrored":
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    elif kind == "path":
        dim = draw(st.integers(2, 60))
        rows, cols = _path(np.arange(dim))
    elif kind == "grid":
        a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        dim, g = a * b, np.arange(a * b).reshape(a, b)
        rows = np.concatenate([g[:, :-1].ravel(), g[:-1, :].ravel()])
        cols = np.concatenate([g[:, 1:].ravel(), g[1:, :].ravel()])
    else:
        count, size = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        dim = count * size
        rows, cols = _path(np.arange(dim).reshape(count, size).T)
        rows, cols = rows.ravel(), cols.ravel()
    dim += isolated
    perm = np.array(draw(st.permutations(range(dim))), dtype=np.intp)
    key = np.unique(perm[rows] * dim + perm[cols])
    return (dim, *np.divmod(key, dim))


@settings(max_examples=200, deadline=None)
@given(pattern=_patterns(), seed=st.integers(0, 2**32 - 1))
def test_component_labels_match_scipy(pattern, seed):
    dim, rows, cols = pattern
    labels = fock._component_labels(dim, rows, cols)
    reference = _scipy_labels(dim, rows, cols)
    # The same partition: two indices share a label exactly when scipy's agree.
    assert np.array_equal(labels[:, None] == labels, reference[:, None] == reference)
    # Each label is the smallest index of its component.
    smallest = np.full(dim, dim)
    np.minimum.at(smallest, reference, np.arange(dim))
    assert np.array_equal(labels, smallest[reference])
    # And the blocks, and their order, are those of a scipy labelling.
    values = np.random.default_rng(seed).standard_normal(rows.size)
    ours = fock._blocks_by_size(dim, rows, cols, values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "_component_labels", _scipy_labels)
        theirs = fock._blocks_by_size(dim, rows, cols, values)
    assert len(ours) == len(theirs)
    for (idx, blocks), (ref_idx, ref_blocks) in zip(ours, theirs):
        assert np.array_equal(idx, ref_idx) and np.array_equal(blocks, ref_blocks)
