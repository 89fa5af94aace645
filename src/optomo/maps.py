"""Quantum operations, Choi matrices, and the physical states of the experiment.

A general operation is a Kraus map rho -> sum_n K_n rho K_n^dag with
sum_n K_n^dag K_n <= I; a pure operation rho -> A rho A^dag with a
contraction A is the one-operator ``KrausMap((A,))``.  Acting with the map
on the first half of an entangled pure state |psi>> produces, for the pure
case,

    |phi>> = (A (x) I)|psi>> / ||A psi||_HS,      p = ||A psi||_HS^2,

from which A = phi psi^{-1} sqrt(p) up to a global phase.  For the general
case the (unnormalised) output is R(psi) = sum_n (K_n (x) I)|psi>><<psi|(...)^dag,
the mixture of the branches K_n psi (``output_branches``); the Choi matrix
is R(I) = (I (x) psi^{-1 T}) R(psi) (I (x) psi^{-1 *}), with the map
recovered as E(rho) = Tr_2[(I (x) rho^T) R(I)].

Construction and application functions are pure; values are immutable in
practice and safe to share across workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from optomo.bipartite import hs_norm, kron, partial_trace_2, unvec, vec
from optomo.errors import (
    AnnihilatingOperationError,
    NotCompletelyPositiveError,
)

KRAUS_BOUND_TOL = 1e-10
CHOI_HERMITIAN_TOL = 1e-10
CHOI_PSD_REL_TOL = 1e-8
DISPLACEMENT_GUARD = 8
DEFICIT_WARN_BOUND = 1e-3


@dataclass(frozen=True)
class KrausMap:
    """Trace-decreasing CP map given by an ordered list of Kraus operators."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        d = ops[0].shape[0]
        if d == 0 or any(k.shape != (d, d) for k in ops):
            raise ValueError("all Kraus operators must be square with equal "
                             "nonzero dims")
        if not all(np.isfinite(k).all() for k in ops):
            raise ValueError("Kraus operators must be finite")
        object.__setattr__(self, "kraus", ops)
        gap = np.eye(d) - sum(k.conj().T @ k for k in ops)
        low = np.linalg.eigvalsh(gap)[0]
        if low < -KRAUS_BOUND_TOL:
            raise ValueError(
                f"sum K^dag K exceeds identity: min eig of I - sum = {low:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) = sum_n K_n rho K_n^dag (unnormalised)."""
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.kraus)


@dataclass(frozen=True)
class ChoiMatrix:
    """d^2 x d^2 positive matrix R(I) representing a CP map."""

    matrix: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", r)
        d2 = r.shape[0]
        d = int(round(np.sqrt(d2)))
        if r.shape != (d2, d2) or d * d != d2:
            raise ValueError(f"Choi matrix must be d^2 x d^2, got {r.shape}")
        herm = np.max(np.abs(r - r.conj().T))
        if herm > CHOI_HERMITIAN_TOL * max(1.0, abs(np.trace(r))):
            raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
        low = np.linalg.eigvalsh(r)[0]
        if low < -CHOI_PSD_REL_TOL * max(abs(np.trace(r)), 1e-300):
            raise NotCompletelyPositiveError(
                f"not completely positive: min eigenvalue {low:.3e}"
            )

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


@dataclass(frozen=True)
class TwinBeamState:
    """Twin-beam (two-mode squeezed vacuum) entangler, diagonal matrix psi.

    psi_nn = sqrt(1 - lambda^2) lambda^n with lambda^2 = nbar/(nbar+1); the
    reduced state of either beam is thermal with mean photon number nbar.
    """

    psi: np.ndarray = field(repr=False)
    deficit: float

    @property
    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.psi))


def apply_pure(a: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Map the entangler matrix through the pure operation with the
    contraction ``a``: phi = A psi / ||A psi||, the one-branch case of
    ``output_branches``.

    Returns (phi, p) with p = ||A psi||_HS^2 the occurrence probability.
    Raises ValueError when ||A|| > 1 (``KrausMap``'s bound check) and
    AnnihilatingOperationError when A psi = 0.
    """
    (phi,), (p,) = output_branches(KrausMap((a,)), psi)
    return phi, p


def output_branches(kmap: KrausMap, psi: np.ndarray) -> tuple[list, list]:
    """The output of the map on the entangled input as normalised branches.

    Returns (branches, weights): branch n is K_n psi / ||K_n psi||_HS with
    weight ||K_n psi||_HS^2, so R(psi) = sum_n w_n |Phi_n>><<Phi_n| and the
    weights sum to the occurrence probability.  Branches of zero weight are
    dropped; raises AnnihilatingOperationError when every branch vanishes.
    """
    branches, weights = [], []
    for k in kmap.kraus:
        out = k @ psi
        w = float(np.sum(np.abs(out) ** 2))
        if w > 0:
            branches.append(out / np.sqrt(w))
            weights.append(w)
    if not branches:
        raise AnnihilatingOperationError("operation annihilates the entangler")
    return branches, weights


def apply_kraus_bipartite(kmap: KrausMap, psi: np.ndarray) -> np.ndarray:
    """Joint output density matrix R(psi) = sum_n (K_n (x) I)|psi>><<psi|(K_n (x) I)^dag.

    Requires a normalised entangler, ||psi||_HS = 1.  The result is Hermitian
    and PSD with trace equal to the overall occurrence probability (<= 1).
    """
    psi = np.asarray(psi, dtype=complex)
    if abs(hs_norm(psi) - 1.0) > 1e-10:
        raise ValueError("entangler matrix must be normalised to ||psi||_HS = 1")
    d = psi.shape[0]
    r = np.zeros((d * d, d * d), dtype=complex)
    for k in kmap.kraus:
        v = vec(k @ psi)  # (K (x) I) vec(psi)
        r += np.outer(v, v.conj())
    return r


def map_from_choi(choi: ChoiMatrix, rho: np.ndarray) -> np.ndarray:
    """Apply the map encoded by R(I): E(rho) = Tr_2[(I (x) rho^T) R(I)]."""
    rho = np.asarray(rho, dtype=complex)
    d = choi.dim
    if rho.shape != (d, d):
        raise ValueError(f"state dimension {rho.shape} does not match Choi dim {d}")
    return partial_trace_2(kron(np.eye(d), rho.T) @ choi.matrix)


def kraus_to_choi(kmap: KrausMap) -> ChoiMatrix:
    """R(I) = sum_n vec(K_n) vec(K_n)^dag (unnormalised |I>> convention)."""
    d = kmap.dim
    r = np.zeros((d * d, d * d), dtype=complex)
    for k in kmap.kraus:
        v = vec(k)
        r += np.outer(v, v.conj())
    return ChoiMatrix(r)


def choi_to_kraus(choi: ChoiMatrix) -> KrausMap:
    """Kraus operators from the Choi eigendecomposition.

    Eigenvalues in (-1e-8 Tr R, 0) are clipped to zero (statistical
    reconstructions of R(I) are not exactly PSD); more negative values raise
    NotCompletelyPositiveError via the ChoiMatrix constructor.
    """
    evals, evecs = np.linalg.eigh(choi.matrix)
    ops = []
    for lam, v in zip(evals, evecs.T):
        if lam <= 0.0:
            continue
        ops.append(np.sqrt(lam) * unvec(v))
    if not ops:
        ops = [np.zeros((choi.dim, choi.dim), dtype=complex)]
    return KrausMap(tuple(ops))


def displacement_matrix(z: complex, dim_cut: int) -> np.ndarray:
    """Truncated displacement operator exp(z a^dag - z* a) in the Fock basis.

    The generator is exponentiated at an enlarged cutoff (guard band of
    8 Fock levels) and cropped, so columns well below dim_cut are unit-norm
    to ~1e-6.  The generator G is anti-Hermitian, so iG = U diag(w) U^dag
    is Hermitian and exp(G) = U diag(e^{-iw}) U^dag.
    """
    if dim_cut < 2:
        raise ValueError("dim_cut must be at least 2")
    n = dim_cut + DISPLACEMENT_GUARD
    adag = np.diag(np.sqrt(np.arange(1.0, n)), -1)
    gen = z * adag - np.conj(z) * adag.T
    w, u = np.linalg.eigh(1j * gen)
    full = (u * np.exp(-1j * w)) @ u.conj().T
    return full[:dim_cut, :dim_cut]


def twin_beam(nbar: float, dim_cut: int, deficit_bound: float = DEFICIT_WARN_BOUND) -> TwinBeamState:
    """Twin-beam entangler with mean thermal photon number nbar per beam.

    The truncation deficit 1 - sum_n psi_nn^2 = lambda^(2 dim_cut) is recorded
    on the result; a deficit above ``deficit_bound`` triggers a warning.
    """
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    lam2 = nbar / (nbar + 1.0)
    diag = np.sqrt(1.0 - lam2) * np.sqrt(lam2) ** np.arange(dim_cut)
    deficit = float(lam2**dim_cut)
    if deficit > deficit_bound:
        warnings.warn(
            f"twin-beam truncation deficit {deficit:.3e} above bound "
            f"{deficit_bound:.0e}; increase dim_cut",
            stacklevel=2,
        )
    return TwinBeamState(psi=np.diag(diag).astype(complex), deficit=deficit)

