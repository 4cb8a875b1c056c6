"""Truncated Fock-basis linear algebra for one- and two-mode states.

Composite index convention: the two-mode basis ket ``|m, n>`` sits at flat
index ``m * n_max + n``.  Every module in this package shares this layout,
so a two-mode matrix reshaped to ``(n_max, n_max, n_max, n_max)`` has axes
``(m, n, m', n')``.

A ``TwoModeState`` is held as its nonzero entries, exact zeros dropped,
so that a state of dimension ``n_max^2`` costs memory in proportion to
its entries, not ``n_max^4``.  Its dense matrix is formed only when
``matrix`` is read, which nothing in this package does.  Partial traces
and partial transposes work on the entries.  A one-mode state is a plain
read-only ``n_max x n_max`` array, such as ``partial_trace`` returns.

Spectra come from ``eig_spectrum``, which diagonalizes a matrix block by
block: it finds the connected components of the nonzero pattern of the
entries, which for the states here are its photon-number sectors, and
checks every block's decomposition against its rows of one seeded probe
matrix.  A dense matrix passed in, one-mode or two-mode, is first converted
to its entries, with the checks a state's entries pass.

All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
# Slack of each partial-sum comparison in ``is_more_mixed``.
MAJORIZATION_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PROBABILITY_FLOOR = -1e-12
# eig_spectrum checks its decomposition on this many seeded random vectors.
RESIDUAL_PROBES = 4
RESIDUAL_SEED = 0
# The side of every dense square array the package builds: a two-mode matrix
# of this dimension, or an n_max x n_max table at this cutoff, takes 2.3 GB.
MAX_TWO_MODE_DIM = 17_000

class InvalidSpectrumError(ValueError):
    """An eigenvalue or probability is negative beyond truncation noise."""


class NonHermitianError(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


def _checked_entries(dim, rows, cols, values):
    """The entries of a ``dim x dim`` matrix, exact zeros dropped, in
    row-major order and read-only, after the finiteness and Hermiticity
    checks.  A complex matrix with no imaginary part comes back real."""
    values = np.asarray(values)
    if values.dtype not in (np.float64, np.complex128):
        values = values.astype(complex)
    # A NaN is nonzero, so it is kept and reported below.
    keep = values != 0
    key = (rows * dim + cols)[keep]
    order = np.argsort(key, kind="stable")
    key, values = key[order], values[keep][order]
    rows, cols = np.divmod(key, dim)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i, j = rows[bad[0]], cols[bad[0]]
        raise ValueError(
            f"matrix has {bad.size} non-finite entries, the first {values[bad[0]]} at ({i}, {j})"
        )
    # Each entry against its mirror image, which is 0 where no entry sits.
    mirror_key = cols * dim + rows
    at = np.minimum(np.searchsorted(key, mirror_key), max(key.size - 1, 0))
    mirror = np.where(key[at] == mirror_key, values[at], 0.0)
    dev = np.max(np.abs(values - mirror.conj()), initial=0.0)
    if not dev <= HERMITICITY_TOL:
        raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e}")
    if values.dtype == np.complex128 and np.max(np.abs(values.imag), initial=0.0) == 0.0:
        values = values.real.copy()
    for a in (rows, cols, values):
        a.flags.writeable = False
    return rows, cols, values


def _dense_entries(matrix, dim):
    """The checked entries of a dense ``dim x dim`` matrix."""
    m = np.asarray(matrix)
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    rows, cols = np.divmod(np.flatnonzero(m != 0), dim)
    return _checked_entries(dim, rows, cols, m[rows, cols])


def _dense(dim, rows, cols, values):
    """The read-only dense matrix holding the given entries."""
    m = np.zeros((dim, dim), dtype=values.dtype)
    m[rows, cols] = values
    m.flags.writeable = False
    return m


def _check_count(value, least, name="cutoff n_max"):
    """Raise ``ValueError`` unless the count ``value``, by default a cutoff,
    is an integer of at least ``least``.  Python and numpy integers pass; a
    float, NaN or whole, does not."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value} outside the integers")
    if value < least:
        raise ValueError(f"{name}={value} outside [{least}, inf)")


def _check_square_size(n_max):
    """Raise ``ValueError`` unless ``n_max`` is an integer in
    [1, ``MAX_TWO_MODE_DIM``]; builders of n_max x n_max arrays call it
    before they allocate."""
    _check_count(n_max, 1)
    if n_max > MAX_TWO_MODE_DIM:
        raise ValueError(
            f"cutoff n_max={n_max} exceeds the limit {MAX_TWO_MODE_DIM} "
            f"on dense n_max x n_max tables"
        )


def check_two_mode_cutoff(n_max: int) -> None:
    """Raise ``ValueError`` unless ``n_max`` is an integer with ``2 <= n_max``
    and ``n_max^2 <= MAX_TWO_MODE_DIM``; dense two-mode builders call it
    before they allocate."""
    _check_count(n_max, 2)
    dim = n_max**2
    if dim > MAX_TWO_MODE_DIM:
        raise ValueError(
            f"two-mode dimension {dim} exceeds the dense-storage limit "
            f"{MAX_TWO_MODE_DIM}; pass a smaller cutoff"
        )


@dataclass(frozen=True, init=False, eq=False)
class TwoModeState:
    """Two-mode density matrix on the |m, n>, m, n < n_max basis, held as
    its nonzero entries: row, column and value arrays in row-major order.

    ``TwoModeState(n_max, matrix)`` converts a dense matrix once; the
    builders in :mod:`cvwerner.states` pass their entries directly.  Either
    way the entries pass the same finiteness and Hermiticity checks.
    ``matrix`` is the dense form, read-only and formed on each access.
    """

    n_max: int
    _rows: np.ndarray = field(repr=False)
    _cols: np.ndarray = field(repr=False)
    _values: np.ndarray = field(repr=False)

    def __init__(self, n_max: int, matrix):
        check_two_mode_cutoff(n_max)
        self._hold(n_max, _dense_entries(matrix, n_max**2))

    @classmethod
    def _from_entries(cls, n_max, rows, cols, values):
        """The state with these entries (exact zeros are dropped); the
        caller has checked ``n_max`` with ``check_two_mode_cutoff``."""
        state = object.__new__(cls)
        state._hold(n_max, _checked_entries(n_max**2, rows, cols, values))
        return state

    def _hold(self, n_max, entries):
        for name, value in zip(("n_max", "_rows", "_cols", "_values"), (n_max, *entries)):
            object.__setattr__(self, name, value)

    def _diagonal(self) -> np.ndarray:
        on = self._rows == self._cols
        d = np.zeros(self.dim, dtype=self._values.dtype)
        d[self._rows[on]] = self._values[on]
        return d

    def _mode_indices(self):
        """(m, n, m', n') of each entry <m n| rho |m' n'>."""
        return (*np.divmod(self._rows, self.n_max), *np.divmod(self._cols, self.n_max))

    @property
    def matrix(self) -> np.ndarray:
        return _dense(self.dim, self._rows, self._cols, self._values)

    @property
    def dim(self) -> int:
        return self.n_max**2

    def trace(self) -> float:
        return float(np.real(self._diagonal().sum()))


def xlogx(x) -> np.ndarray:
    """Elementwise ``x ln x`` with ``0 ln 0 = 0``; entries ``<= 0`` give 0
    and NaN entries NaN."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x <= 0.0, 0.0, x * np.log(np.where(x > 0.0, x, 1.0)))


def _finite_entries(values, name, floor=None):
    """``values`` as a flat float array; a NaN or infinite entry, or with a
    ``floor`` an entry below it, raises ``InvalidSpectrumError``."""
    v = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise InvalidSpectrumError(f"{name} entry {v[bad[0]]} at {bad[0]} is not finite")
    if floor is not None and v.size and float(v.min()) < floor:
        raise InvalidSpectrumError(
            f"negative probability {v.min():.6e}"
            if name == "probability"
            else f"{name} entry {v.min():.6e} below the tolerated floor {floor:g}"
        )
    return v


def von_neumann_entropy(spectrum) -> float:
    """-sum(v ln v) over the spectrum, with 0 ln 0 = 0.

    Entries in ``[EIGENVALUE_FLOOR, 0)`` are treated as truncation noise and
    clipped to zero; anything below, and any NaN or infinite entry, raises
    ``InvalidSpectrumError``.
    """
    v = _finite_entries(spectrum, "spectrum", EIGENVALUE_FLOOR)
    # Summing positive entries only makes the result, to the last bit,
    # independent of how many zeros the spectrum holds and where.
    return float(-xlogx(v[v > 0.0]).sum()) + 0.0


def shannon_entropy(probabilities) -> float:
    """Shannon entropy -sum(p ln p) of a probability table, in nats.

    Entries in ``[PROBABILITY_FLOOR, 0)`` count as zero; anything below,
    and any NaN or infinite entry, raises ``InvalidSpectrumError``."""
    p = _finite_entries(probabilities, "probability", PROBABILITY_FLOOR)
    return float(-xlogx(p[p > 0.0]).sum()) + 0.0


def antidiagonal_entropy(entry, diag) -> float:
    """Shannon entropy of an n x n probability table, in nats, whose
    off-diagonal entries depend on ``m + n`` only.

    ``entry[s]`` is the value of every off-diagonal entry on the
    anti-diagonal ``s = m + n`` (length ``2n - 1``), and ``diag[m]`` is the
    entry at ``(m, m)`` (length ``n``).  Anti-diagonal ``s`` holds
    ``min(s, 2(n-1) - s) + 1`` entries, one of which is diagonal when ``s``
    is even, so the sum takes O(n) time and memory.  Entries in
    ``[PROBABILITY_FLOOR, 0)`` count as zero; anything below, and any NaN or
    infinite entry, raises ``InvalidSpectrumError``."""
    entry = _finite_entries(entry, "probability", PROBABILITY_FLOOR)
    diag = _finite_entries(diag, "probability", PROBABILITY_FLOOR)
    n = len(diag)
    s = np.arange(2 * n - 1, dtype=float)
    even = 1.0 - s % 2.0
    off = np.minimum(s, 2 * (n - 1) - s) + 1.0 - even
    on = np.zeros(2 * n - 1)
    on[::2] = xlogx(diag)
    return float(-(off * xlogx(entry) + on).sum())


def partial_trace(state: TwoModeState, mode: str = "A") -> np.ndarray:
    """Trace out the named mode, returning the density matrix of the other
    one: a read-only ``n_max x n_max`` array with the dtype of the state's
    entries."""
    if mode not in ("A", "B"):
        raise ValueError("mode must be 'A' or 'B'")
    m, n, m2, n2 = state._mode_indices()
    if mode == "A":
        on, row, col = m == m2, n, n2
    else:
        on, row, col = n == n2, m, m2
    reduced = np.zeros((state.n_max, state.n_max), dtype=state._values.dtype)
    np.add.at(reduced, (row[on], col[on]), state._values[on])
    reduced.flags.writeable = False
    return reduced


def partial_transpose(state: TwoModeState, mode: str = "A") -> TwoModeState:
    """Transpose the indices of one mode; the result may be non-positive."""
    if mode not in ("A", "B"):
        raise ValueError("mode must be 'A' or 'B'")
    m, n, m2, n2 = state._mode_indices()
    k = state.n_max
    if mode == "A":
        rows, cols = m2 * k + n, m * k + n2
    else:
        rows, cols = m * k + n2, m2 * k + n
    return TwoModeState._from_entries(k, rows, cols, state._values)


def is_more_mixed(a, b) -> bool:
    """True iff spectrum ``a`` is majorized by ``b`` (a is more mixed).

    Both spectra are sorted descending and zero-padded to a common length;
    the test is ``cumsum(a)_k <= cumsum(b)_k + MAJORIZATION_TOL`` for every k.
    A NaN or infinite entry raises ``InvalidSpectrumError``.
    """
    a = np.sort(_finite_entries(a, "spectrum"))[::-1]
    b = np.sort(_finite_entries(b, "spectrum"))[::-1]
    k = max(a.size, b.size)
    a = np.pad(a, (0, k - a.size))
    b = np.pad(b, (0, k - b.size))
    return bool(np.all(np.cumsum(a) <= np.cumsum(b) + MAJORIZATION_TOL))


def _component_labels(dim, rows, cols):
    """Each index of a ``dim x dim`` nonzero pattern labelled by the smallest
    index of its connected component, an entry joining its row and column.

    Each round hooks every label to the smallest label across the entries,
    in both directions, then jumps pointers (``label = label[label]``) to a
    fixed point; it stops when every entry joins two indices of one label
    (Shiloach and Vishkin, J. Algorithms 3, 1982)."""
    label = np.arange(dim)
    while True:
        a, b = label[rows], label[cols]
        if np.array_equal(a, b):
            return label
        np.minimum.at(label, a, b)
        np.minimum.at(label, b, a)
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def _blocks_by_size(dim, rows, cols, values):
    """The connected components of the nonzero pattern of the matrix with
    the given entries, one ``(idx, blocks)`` pair per block size: ``idx``
    holds each component's indices, ascending, as a ``(count, size)``
    array, and ``blocks`` the matching ``(count, size, size)`` submatrices."""
    labels = _component_labels(dim, rows, cols)
    sizes = np.bincount(labels)[labels]
    order = np.lexsort((labels, sizes))
    size_values, counts = np.unique(sizes[order], return_counts=True)
    # Where each index sits: its component's slot within its size, and its
    # position within the component.
    slot, pos = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
    out = []
    for idx, size in zip(np.split(order, np.cumsum(counts)[:-1]), size_values):
        idx = idx.reshape(-1, size)
        slot[idx] = np.arange(idx.shape[0])[:, None]
        pos[idx] = np.arange(size)
        on = sizes[rows] == size
        blocks = np.zeros((idx.shape[0], size, size), dtype=values.dtype)
        blocks[slot[rows[on]], pos[rows[on]], pos[cols[on]]] = values[on]
        out.append((idx, blocks))
    return out


def eig_spectrum(rho) -> np.ndarray:
    """Descending real eigenvalues of a Hermitian state or matrix.

    The matrix is diagonalized block by block.  The blocks are the connected
    components of its own nonzero pattern, so nothing about the state family
    is assumed; for the states here they are the photon-number sectors, and
    a dense matrix is one block.  A ``TwoModeState`` gives its entries
    directly; an array is first converted to its checked entries.
    Blocks of equal size go to one stacked
    ``numpy.linalg.eigh`` call (LAPACK's divide-and-conquer driver, which
    does not stall on the large eigenvalue clusters of these states).  Each
    block's decomposition is applied to its rows of ``RESIDUAL_PROBES``
    seeded random probe vectors; the largest residual over the blocks,
    which is the residual of the whole matrix, must stay below
    ``1e-9 * dim``.  An empty matrix has an empty spectrum.
    """
    if isinstance(rho, TwoModeState):
        dim, entries = rho.dim, (rho._rows, rho._cols, rho._values)
    else:
        dim = np.shape(rho)[0]
        entries = _dense_entries(rho, dim)
    if dim == 0:
        return np.zeros(0)
    x = np.random.default_rng(RESIDUAL_SEED).standard_normal((dim, RESIDUAL_PROBES))
    spectra, residuals = [], []
    for idx, blocks in _blocks_by_size(dim, *entries):
        w, v = np.linalg.eigh(blocks)
        xb = x[idx]
        recon = v @ (w[..., None] * (v.conj().transpose(0, 2, 1) @ xb))
        residuals.append(np.max(np.abs(blocks @ xb - recon)))
        spectra.append(w.ravel())
    # np.max keeps a NaN residual, and NaN fails the comparison.
    resid = float(np.max(residuals))
    if not resid <= 1e-9 * dim:
        raise ValueError(f"eigendecomposition residual {resid:.3e} > {1e-9 * dim:.1e}")
    return np.sort(np.concatenate(spectra))[::-1]
