"""Dense complex linear algebra and the matrix <-> bipartite-vector correspondence.

A bipartite vector with amplitudes M_ij on the product basis |i>|j> is
identified with the d x d matrix M; the row index is the first tensor factor.
Under this identification

    (A (x) B) vec(M) = vec(A M B^T),

so acting with an operation on the first half of an entangled pair is matrix
multiplication from the left.  All functions here are pure and never mutate
their inputs; they are safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import numpy as np

from optomo.errors import NonInvertibleEntanglerError

# Refuse to invert below this reciprocal-condition estimate.
RCOND_MIN = 1e-12


def _as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def vec(m) -> np.ndarray:
    """Flatten a square matrix into a bipartite vector, amplitude (i, j) = M_ij."""
    a = _as_complex(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"vec expects a square matrix, got shape {a.shape}")
    return a.reshape(-1)


def unvec(v) -> np.ndarray:
    """Inverse of :func:`vec`; length must be a perfect square."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(a.size)))
    if d * d != a.size:
        raise ValueError(f"vector length {a.size} is not a perfect square")
    return a.reshape(d, d)


def hs_norm(m) -> float:
    """Hilbert-Schmidt norm sqrt(Tr(M^dag M))."""
    return float(np.linalg.norm(np.asarray(m)))


def partial_trace_2(x) -> np.ndarray:
    """Trace out the second factor: (Tr_2 X)_ab = sum_k X_(a,k),(b,k)."""
    a = _as_complex(x)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("partial_trace_2 expects a square matrix")
    d = int(round(np.sqrt(a.shape[0])))
    if d * d != a.shape[0]:
        raise ValueError(f"dimension {a.shape[0]} is not a perfect square")
    return np.einsum("akbk->ab", a.reshape(d, d, d, d))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the same index ordering as :func:`vec`."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def rcond_estimate(m) -> float:
    """Reciprocal 2-norm condition number, smin/smax (0 for the zero matrix)."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def inverse(m) -> np.ndarray:
    """Matrix inverse via pivoted LU, refusing near-singular input.

    Raises NonInvertibleEntanglerError when the reciprocal condition estimate
    falls below ``RCOND_MIN``.  For well-conditioned input the residual
    ``M^-1 M - I`` is below ~1e-10 * dim in max-entry norm; near the refusal
    threshold the residual degrades with the condition number.
    """
    a = _as_complex(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("inverse expects a square matrix")
    rc = rcond_estimate(a)
    if rc < RCOND_MIN:
        raise NonInvertibleEntanglerError(
            f"non-invertible entangler: reciprocal condition estimate {rc:.3e} "
            f"< {RCOND_MIN:.0e}"
        )
    return np.linalg.inv(a)


def phase_align(m, n) -> tuple[complex, float]:
    """Optimal global phase for comparing matrices up to a phase.

    Returns ``(phase, distance)`` where ``phase = exp(i theta)`` minimises
    ``||M - exp(i theta) N||_HS`` (theta = arg Tr(N^dag M)) and ``distance``
    is the minimised value.  ``N`` must be nonzero.
    """
    a, b = _as_complex(m), _as_complex(n)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not np.any(b):
        raise ValueError("cannot phase-align against the zero matrix")
    inner = np.vdot(b, a)  # Tr(N^dag M)
    phase = complex(inner / abs(inner)) if inner != 0 else 1.0 + 0.0j
    distance = float(np.linalg.norm(a - phase * b))
    return phase, distance
