"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package code: recursions and explicit index sums instead of library special
functions, matrix exponentials, or vectorised kernels.
"""

import numpy as np


def laguerre(n: int, alpha: int, x: float) -> float:
    """Generalised Laguerre polynomial L_n^(alpha)(x) by three-term recursion."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def displacement_element(m: int, n: int, z: complex) -> complex:
    """<m|D(z)|n> from the Laguerre closed form (recursion-based)."""
    from math import factorial, sqrt

    a2 = abs(z) ** 2
    if m >= n:
        return (
            sqrt(factorial(n) / factorial(m))
            * z ** (m - n)
            * np.exp(-a2 / 2.0)
            * laguerre(n, m - n, a2)
        )
    return (
        sqrt(factorial(m) / factorial(n))
        * (-np.conj(z)) ** (n - m)
        * np.exp(-a2 / 2.0)
        * laguerre(m, n - m, a2)
    )


def vec_by_loops(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        for j in range(d):
            v[i * d + j] = m[i, j]
    return v


def kron_action_by_loops(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A (x) C^T) vec(B) computed entry by entry."""
    d = b.shape[0]
    out = np.zeros(d * d, dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[i * d + j] += a[i, k] * c[l, j] * b[k, l]
    return out


def partial_trace_2_by_loops(x: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(x.shape[0])))
    out = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for k in range(d):
                out[a, b] += x[a * d + k, b * d + k]
    return out


def outcome_table_by_loops(r: np.ndarray, quorum) -> np.ndarray:
    """Joint finite-quorum outcome table, one Born probability at a time.

    Entry (k, l, m1, m2) is w_k w_l <u|r|u> with u = v_k[:, m1] (x) v_l[:, m2],
    normalised over the whole table.
    """
    n_obs, d = len(quorum), quorum.dim
    table = np.zeros((n_obs, n_obs, d, d))
    for k in range(n_obs):
        for l in range(n_obs):
            for m1 in range(d):
                for m2 in range(d):
                    u = np.kron(quorum.eigenvectors[k][:, m1],
                                quorum.eigenvectors[l][:, m2])
                    born = np.real(u.conj() @ r @ u)
                    table[k, l, m1, m2] = (quorum.weights[k] * quorum.weights[l]
                                           * born)
    return table / table.sum()


def random_contraction(rng, d: int, margin: float = 1.25) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a / (np.linalg.svd(a, compute_uv=False)[0] * margin)


def random_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_invertible_state(rng, d: int) -> np.ndarray:
    """Normalised bipartite matrix kept safely away from singularity."""
    while True:
        psi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = np.linalg.svd(psi, compute_uv=False)
        if s[-1] / s[0] > 1e-2:
            return psi / np.linalg.norm(psi)


def random_kraus_map(rng, d: int, n_ops: int = 2, trace_preserving: bool = False):
    ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_ops)]
    s = sum(k.conj().T @ k for k in ks)
    if trace_preserving:
        # right-multiply by s^{-1/2} so the map exactly preserves trace
        evals, evecs = np.linalg.eigh(s)
        s_inv_half = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
        return [k @ s_inv_half for k in ks]
    top = np.linalg.eigvalsh(s)[-1]
    return [k / np.sqrt(top * 1.1) for k in ks]


def depolarizing_choi(q: float) -> np.ndarray:
    """Analytic Choi matrix (unnormalised |I>> convention) of the qubit
    depolarizing channel rho -> (1-q) rho + q I/2."""
    ident = np.eye(2, dtype=complex)
    v = ident.reshape(-1)
    return (1.0 - q) * np.outer(v, v.conj()) + (q / 2.0) * np.eye(4, dtype=complex)
