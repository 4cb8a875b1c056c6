"""Reference values computed apart from the cvwerner package.

Everything here is written from the paper's formulas with plain numpy, so
a check that compares a program output against one of these shares none
of the program's algebra.  All entropies are in nats.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def entropy_of(values) -> float:
    """-sum(v ln v) over the positive entries."""
    v = np.asarray(values, dtype=float).ravel()
    v = v[v > 0.0]
    return float(-(v * np.log(v)).sum())


def binary_entropy(p: float) -> float:
    return entropy_of([p, 1.0 - p])


def thermal_entropy(mu: float) -> float:
    """g(n) = (n+1) ln(n+1) - n ln n with mean photon number n = mu^2/(1-mu^2)."""
    n = mu**2 / (1.0 - mu**2)
    if n == 0.0:
        return 0.0
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n)


def vacuum_discord(p: float, lam: float) -> float:
    """Discord of the mu = 0 Werner state, S(rho_B) - S(rho).

    rho has the two nonzero eigenvalues (1 +- sqrt(1 - 4p(1-p)lam^2))/2; the
    reduced state has 1 - p lam^2 on the vacuum and p(1-lam^2)lam^(2m) on
    |m>, m >= 1, whose entropy sums in closed form.
    """
    root = math.sqrt(1.0 - 4.0 * p * (1.0 - p) * lam**2)
    s_global = entropy_of([(1.0 + root) / 2.0, (1.0 - root) / 2.0])
    if p == 0.0 or lam == 0.0:
        return -s_global
    pl2 = p * lam**2
    s_reduced = (
        -(1.0 - pl2) * math.log(1.0 - pl2)
        - pl2 * math.log(p * (1.0 - lam**2))
        - 2.0 * pl2 * math.log(lam) / (1.0 - lam**2)
    )
    return s_reduced - s_global


def p_ppt(mu: float) -> float:
    """PPT threshold of the lam = mu^4 family, from the paper."""
    a = (1.0 - mu**2) ** 2
    return a / (a + (1.0 - mu**8) * mu**2)


def werner_dense(p: float, lam: float, mu: float, n: int) -> np.ndarray:
    """p |psi><psi| + (1-p) th(mu) (x) th(mu) on |m, n>, m, n < n, via np.kron."""
    k = np.arange(n, dtype=float)
    # sum_m c_m |m>|m>: the flattened diagonal matrix puts c_m at index m*n + m
    psi = np.diag(math.sqrt(1.0 - lam**2) * lam**k).ravel()
    th = np.diag((1.0 - mu**2) * mu ** (2.0 * k))
    return p * np.outer(psi, psi) + (1.0 - p) * np.kron(th, th)


def dense_entropies(rho: np.ndarray, n: int):
    """(global entropy, entropy of the reduced state of mode B) of a dense matrix."""
    s_global = entropy_of(np.linalg.eigvalsh(rho))
    reduced_b = np.trace(rho.reshape(n, n, n, n), axis1=0, axis2=2)
    return s_global, entropy_of(np.linalg.eigvalsh(reduced_b))


def werner_upper_bound(p: float, lam: float, mu: float, n: int) -> float:
    """Photon-counting upper bound S(rho_B) - S(rho) + sum_m p_B(m) S(rho_A|m)
    of the Werner state at cutoff n, from its dense matrix."""
    rho = werner_dense(p, lam, mu, n)
    s_global, s_b = dense_entropies(rho, n)
    r = rho.reshape(n, n, n, n)
    conditional = 0.0
    for m in range(n):
        block = r[:, m, :, m]
        weight = np.trace(block)
        if weight > 0.0:
            conditional += weight * entropy_of(np.linalg.eigvalsh(block / weight))
    return s_b - s_global + conditional


def ppt_spectrum(lam: float, n: int) -> np.ndarray:
    """{2N lam^(2m)} and {2N lam^(m+k), m > k} below index n, zero-padded to n^2,
    descending, with N = (1 - lam^2)(1 - lam)/2."""
    norm2 = (1.0 - lam**2) * (1.0 - lam)
    values = [norm2 * lam ** (2 * m) for m in range(n)]
    values += [norm2 * lam ** (m + k) for m in range(n) for k in range(m)]
    values += [0.0] * (n * n - len(values))
    return np.sort(np.array(values))[::-1]


def ppt_entropies(lam: float):
    """(global entropy, reduced entropy) of the PPT state as plain sums over
    its closed-form eigenvalues and photon-count weights p_B(m)."""
    terms = math.ceil(math.log(1e-22) / math.log(lam))
    norm = (1.0 - lam**2) * (1.0 - lam) / 2.0
    power = lam ** np.arange(terms, dtype=float)
    upper = np.triu_indices(terms, 1)
    spectrum = np.concatenate([2.0 * norm * power**2, 2.0 * norm * np.outer(power, power)[upper]])
    p_b = norm * power * (power + 1.0 / (1.0 - lam))
    return entropy_of(spectrum), entropy_of(p_b)


def heterodyne_conditional_entropy(p: float, lam: float, n: int = 40, radial: int = 96, angular: int = 24):
    """Average entropy of mode A after heterodyne detection of mode B on the
    mu = 0 Werner state, and the integral of the outcome density (should be 1).

    For each outcome alpha the unnormalized conditional state
    <alpha|_B rho |alpha>_B / pi is built as an n x n matrix in the Fock
    basis of mode A and diagonalized; the outer integral over the complex
    plane uses a polar grid (Gauss-Legendre in |alpha|, uniform in phase).
    """
    r_max = 7.0 / math.sqrt(1.0 - lam**2)
    x, w = np.polynomial.legendre.leggauss(radial)
    r = (x + 1.0) * r_max / 2.0
    w_r = w * r_max / 2.0 * r
    theta = 2.0 * math.pi * np.arange(angular) / angular
    alpha = (r[:, None] * np.exp(1j * theta[None, :])).ravel()
    weight = (w_r[:, None] * np.full(angular, 2.0 * math.pi / angular)[None, :]).ravel()
    m = np.arange(n)
    log_fact = np.cumsum(np.log(np.maximum(m, 1)))
    # <alpha|m> = exp(-|alpha|^2/2) conj(alpha)^m / sqrt(m!)
    mag = np.abs(alpha)[:, None]
    with np.errstate(divide="ignore"):
        log_amp = -0.5 * mag**2 + m[None, :] * np.log(mag) - 0.5 * log_fact[None, :]
    overlap = np.exp(log_amp) * np.exp(-1j * np.angle(alpha))[:, None] ** m[None, :]
    overlap[mag[:, 0] == 0.0] = (m == 0).astype(float)
    phi = math.sqrt(1.0 - lam**2) * lam ** m[None, :] * overlap
    cond = p * phi[:, :, None] * phi[:, None, :].conj()
    cond[:, 0, 0] += (1.0 - p) * np.exp(-np.abs(alpha) ** 2)
    cond /= math.pi
    q = np.real(np.trace(cond, axis1=1, axis2=2))
    eig = np.linalg.eigvalsh(cond / q[:, None, None])
    eig = np.where(eig > 0.0, eig, 1.0)
    s = -(eig * np.log(eig)).sum(axis=1)
    return float((weight * q * s).sum()), float((weight * q).sum())
