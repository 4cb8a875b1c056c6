"""Truncated Fock-basis linear algebra for one- and two-mode states.

Composite index convention: the two-mode basis ket ``|m, n>`` sits at flat
index ``m * n_max + n``.  Every module in this package shares this layout,
so a two-mode matrix reshaped to ``(n_max, n_max, n_max, n_max)`` has axes
``(m, n, m', n')``.

Dense spectra come from ``eig_spectrum``, which diagonalizes a matrix
block by block: it finds the connected components of the matrix's nonzero
pattern, which for the states here are its photon-number sectors, and
checks every block's decomposition against its rows of one seeded probe
matrix.

All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PROBABILITY_FLOOR = -1e-12
# eig_spectrum checks its decomposition on this many seeded random vectors.
RESIDUAL_PROBES = 4
RESIDUAL_SEED = 0
# Dense two-mode matrices above this dimension would not fit desk-scale RAM.
MAX_TWO_MODE_DIM = 17_000

class InvalidSpectrumError(ValueError):
    """An eigenvalue or probability is negative beyond truncation noise."""


class NonHermitianError(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


def _as_state_matrix(matrix, dim, tol=HERMITICITY_TOL):
    m = np.asarray(matrix)
    if m.dtype not in (np.float64, np.complex128):
        m = m.astype(complex)
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    # A NaN or infinite entry makes dev NaN or infinite, so it fails dev <= tol.
    with np.errstate(invalid="ignore"):
        dev = np.max(np.abs(m - m.conj().T)) if dim else 0.0
    if not dev <= tol:
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"matrix has {len(bad)} non-finite entries, the first {m[i, j]} at ({i}, {j})"
            )
        raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e}")
    if m.dtype == np.complex128 and np.max(np.abs(m.imag)) == 0.0:
        m = np.ascontiguousarray(m.real)
    m = np.ascontiguousarray(m)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class OneModeState:
    """Single-mode density matrix on the first ``n_max`` Fock states."""

    n_max: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        object.__setattr__(self, "matrix", _as_state_matrix(self.matrix, self.n_max))

    @property
    def dim(self) -> int:
        return self.n_max

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def validate(self, eps_tail=1e-10):
        _validate_state(self, eps_tail)
        return self


@dataclass(frozen=True)
class TwoModeState:
    """Two-mode density matrix on the |m, n>, m, n < n_max basis."""

    n_max: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        dim = self.n_max**2
        if dim > MAX_TWO_MODE_DIM:
            raise ValueError(
                f"two-mode dimension {dim} exceeds the dense-storage limit "
                f"{MAX_TWO_MODE_DIM}; pass a smaller cutoff"
            )
        object.__setattr__(self, "matrix", _as_state_matrix(self.matrix, dim))

    @property
    def dim(self) -> int:
        return self.n_max**2

    def index(self, m: int, n: int) -> int:
        """Flat index of the basis ket |m, n>."""
        return m * self.n_max + n

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def validate(self, eps_tail=1e-10):
        _validate_state(self, eps_tail)
        return self


def _validate_state(state, eps_tail):
    tr = state.trace()
    if abs(tr - 1.0) > eps_tail:
        raise ValueError(f"trace {tr!r} deviates from 1 by more than {eps_tail:g}")
    w = eig_spectrum(state)
    if w[-1] < EIGENVALUE_FLOOR:
        raise InvalidSpectrumError(f"eigenvalue {w[-1]:.3e} below {EIGENVALUE_FLOOR:g}")


def xlogx(x) -> np.ndarray:
    """Elementwise ``x ln x`` with ``0 ln 0 = 0``; entries ``<= 0`` give 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def von_neumann_entropy(spectrum) -> float:
    """-sum(v ln v) over the spectrum, with 0 ln 0 = 0.

    Entries in ``[EIGENVALUE_FLOOR, 0)`` are treated as truncation noise and
    clipped to zero; anything below raises ``InvalidSpectrumError``.
    """
    v = np.asarray(spectrum, dtype=float).ravel()
    if v.size and float(v.min()) < EIGENVALUE_FLOOR:
        raise InvalidSpectrumError(
            f"spectrum entry {v.min():.6e} below the tolerated floor {EIGENVALUE_FLOOR:g}"
        )
    # Summing positive entries only makes the result, to the last bit,
    # independent of how many zeros the spectrum holds and where.
    return float(-xlogx(v[v > 0.0]).sum()) + 0.0


def shannon_entropy(probabilities) -> float:
    """Shannon entropy -sum(p ln p) of a probability table, in nats.

    Entries in ``[PROBABILITY_FLOOR, 0)`` count as zero; anything below
    raises ``InvalidSpectrumError``."""
    p = np.asarray(probabilities, dtype=float).ravel()
    if p.size and float(p.min()) < PROBABILITY_FLOOR:
        raise InvalidSpectrumError(f"negative probability {p.min():.6e}")
    return float(-xlogx(p[p > 0.0]).sum()) + 0.0


def antidiagonal_entropy(entry, diag) -> float:
    """Shannon entropy of an n x n probability table, in nats, whose
    off-diagonal entries depend on ``m + n`` only.

    ``entry[s]`` is the value of every off-diagonal entry on the
    anti-diagonal ``s = m + n`` (length ``2n - 1``), and ``diag[m]`` is the
    entry at ``(m, m)`` (length ``n``).  Anti-diagonal ``s`` holds
    ``min(s, 2(n-1) - s) + 1`` entries, one of which is diagonal when ``s``
    is even, so the sum takes O(n) time and memory."""
    n = len(diag)
    s = np.arange(2 * n - 1, dtype=float)
    even = 1.0 - s % 2.0
    off = np.minimum(s, 2 * (n - 1) - s) + 1.0 - even
    on = np.zeros(2 * n - 1)
    on[::2] = xlogx(diag)
    return float(-(off * xlogx(entry) + on).sum())


def partial_trace(state: TwoModeState, mode: str = "A") -> OneModeState:
    """Trace out the named mode, returning the state of the other one."""
    n = state.n_max
    r = state.matrix.reshape(n, n, n, n)
    if mode == "A":
        reduced = np.einsum("anam->nm", r)
    elif mode == "B":
        reduced = np.einsum("nama->nm", r)
    else:
        raise ValueError("mode must be 'A' or 'B'")
    return OneModeState(n, reduced)


def partial_transpose(state: TwoModeState, mode: str = "A") -> TwoModeState:
    """Transpose the indices of one mode; the result may be non-positive."""
    n = state.n_max
    r = state.matrix.reshape(n, n, n, n)
    if mode == "A":
        out = r.transpose(2, 1, 0, 3)
    elif mode == "B":
        out = r.transpose(0, 3, 2, 1)
    else:
        raise ValueError("mode must be 'A' or 'B'")
    return TwoModeState(n, out.reshape(n * n, n * n))


def is_more_mixed(a, b, tol=1e-12) -> bool:
    """True iff spectrum ``a`` is majorized by ``b`` (a is more mixed).

    Both spectra are sorted descending and zero-padded to a common length;
    the test is ``cumsum(a)_k <= cumsum(b)_k`` for every k.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())[::-1]
    b = np.sort(np.asarray(b, dtype=float).ravel())[::-1]
    k = max(a.size, b.size)
    a = np.pad(a, (0, k - a.size))
    b = np.pad(b, (0, k - b.size))
    return bool(np.all(np.cumsum(a) <= np.cumsum(b) + tol))


def _blocks_by_size(m) -> list[np.ndarray]:
    """The connected components of the nonzero pattern of ``m``, as one
    ``(count, size)`` index array per block size, ascending within a block."""
    # Imported here, so that importing the package does not load scipy
    # (about 0.3 s) for work that never diagonalizes a dense matrix.
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    dim = m.shape[0]
    # Scanning a boolean copy is several times faster than np.nonzero(m).
    rows, cols = np.divmod(np.flatnonzero(m != 0), dim)
    pattern = coo_array((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(dim, dim))
    _, labels = connected_components(pattern, directed=False)
    sizes = np.bincount(labels)[labels]
    order = np.lexsort((labels, sizes))
    size_values, counts = np.unique(sizes[order], return_counts=True)
    groups = np.split(order, np.cumsum(counts)[:-1])
    return [idx.reshape(-1, size) for idx, size in zip(groups, size_values)]


def eig_spectrum(rho) -> np.ndarray:
    """Descending real eigenvalues of a Hermitian state or matrix.

    The matrix is diagonalized block by block.  The blocks are the connected
    components of its own nonzero pattern, so nothing about the state family
    is assumed; for the states here they are the photon-number sectors, and
    a dense matrix is one block.  Blocks of equal size go to one stacked
    ``numpy.linalg.eigh`` call (LAPACK's divide-and-conquer driver, which
    does not stall on the large eigenvalue clusters of these states).  Each
    block's decomposition is applied to its rows of ``RESIDUAL_PROBES``
    seeded random probe vectors; the largest residual over the blocks,
    which is the residual of the whole matrix, must stay below
    ``1e-9 * dim``.
    """
    m = getattr(rho, "matrix", None)
    if m is None:
        m = _as_state_matrix(rho, np.asarray(rho).shape[0])
    dim = m.shape[0]
    x = np.random.default_rng(RESIDUAL_SEED).standard_normal((dim, RESIDUAL_PROBES))
    spectra, residuals = [], []
    for idx in _blocks_by_size(m):
        blocks = m[idx[:, :, None], idx[:, None, :]]
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
