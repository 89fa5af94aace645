"""Fock-basis quadrature wavefunctions and smeared quadrature distributions.

Quadrature convention: X_phi = (a^dag e^{i phi} + a e^{-i phi}) / 2, so the
vacuum quadrature variance is 1/4.  The position-like eigenbasis of X_0 has
the orthonormal wavefunctions

    Psi_0(x) = (2/pi)^{1/4} exp(-x^2),
    Psi_{n+1}(x) = (2x/sqrt(n+1)) Psi_n(x) - sqrt(n/(n+1)) Psi_{n-1}(x),

and <x|n>_phi = e^{i n phi} Psi_n(x).  The phase factors e^{i k phi} of the
Fock sampler and of the homodyne dyad estimates come from ``phase_powers``.
Detector efficiency eta < 1 smears the quadrature distribution with a
zero-mean Gaussian of variance (1-eta)/(4 eta).  Such a detector is the loss
channel of transmissivity eta followed by the rescale x -> x / sqrt(eta), so
the smeared pair densities have a closed form: loss weights applied to the
pair products of the wavefunctions at sqrt(eta) x.  A kernel build forms
that Psi table once and hands it to ``smeared_pair_table`` for every offset.
The kernel build and the Fock sampler keep only the nodes of their grids
where the wavefunctions live, ``support``.
"""

from __future__ import annotations

import numpy as np

from optomo.errors import UnphysicalDeconvolutionError

SMEAR_ROWS = 8  # rows per loss-weight product: bounds its temporary
# share of its peak below which the envelope sum_n Psi_n^2 counts as zero
SUPPORT_FLOOR = 1e-40


def noise_sigma2(eta: float) -> float:
    """Variance of the efficiency-noise Gaussian, (1-eta)/(4 eta)."""
    if not 0.5 < eta <= 1.0:
        raise UnphysicalDeconvolutionError(
            f"quantum efficiency must be in (0.5, 1], got {eta}"
        )
    return (1.0 - eta) / (4.0 * eta)


def phase_powers(e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows e^k, k < len(out), of the phasors e = e^{i phi}, written into
    ``out`` (shape (len(out), len(e))) and returned.

    Row 0 is 1 and row k is row k - 1 times e, so row k carries about k ulp
    more roundoff than np.exp(1j * k * phi).
    """
    out[0] = 1.0
    for k in range(1, out.shape[0]):
        np.multiply(out[k - 1], e, out=out[k])
    return out


def quadrature_wavefunctions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Table of Psi_n(x) for n < nmax, shape (nmax, len(x)).

    The recursion runs in place, row n + 1 formed as (2x / sqrt(n + 1))
    Psi_n - sqrt(n / (n + 1)) Psi_{n-1}, each product and the difference
    taken in that order.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((nmax, x.size))
    np.multiply(x, x, out=table[0])
    np.negative(table[0], out=table[0])
    np.exp(table[0], out=table[0])
    table[0] *= (2.0 / np.pi) ** 0.25
    if nmax > 1:
        two_x = 2.0 * x
        np.multiply(two_x, table[0], out=table[1])
        tmp = np.empty(x.size)
        for n in range(1, nmax - 1):
            row = table[n + 1]
            np.divide(two_x, np.sqrt(n + 1.0), out=row)
            row *= table[n]
            np.multiply(table[n - 1], np.sqrt(n / (n + 1.0)), out=tmp)
            row -= tmp
    return table


def support(psi: np.ndarray) -> slice:
    """The contiguous run of grid nodes (columns of a wavefunction table
    ``psi``) from the first to the last where the envelope sum_n Psi_n^2
    exceeds ``SUPPORT_FLOOR`` of its peak; empty where it underflows."""
    envelope = np.sum(psi * psi, axis=0)
    keep = np.flatnonzero(envelope > SUPPORT_FLOOR * envelope.max())
    return slice(keep[0], keep[-1] + 1) if keep.size else slice(0, 0)


def _loss_weights(m: int, delta: int, eta: float) -> np.ndarray:
    """Loss weights W, shape (m, m), lower triangular: the loss channel of
    transmissivity eta takes |a><a+delta| to
    sum_k W[a, a-k] |a-k><a+delta-k|, with
    W[a, a-k] = sqrt(C(a, k) C(a+delta, k)) eta^(a + delta/2 - k) (1-eta)^k.

    The binomials come from log-factorials; at eta = 1, W is the identity.
    """
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m + delta)))))
    a = np.arange(m)[:, None]
    k = np.maximum(a - np.arange(m), 0)  # photons lost; 0 above the diagonal
    log_binom = (lf[a] - lf[k] - lf[a - k]
                 + lf[a + delta] - lf[k] - lf[a + delta - k])
    return np.tril(np.exp(0.5 * log_binom) * eta ** (a - k + 0.5 * delta)
                   * (1.0 - eta) ** k)


def smeared_pair_table(psi: np.ndarray, delta: int, eta: float) -> np.ndarray:
    """Smeared pair densities g_ab(x) for b - a = delta, in closed form.

    ``psi`` is the ``quadrature_wavefunctions`` table (dim_cut, len(x)) at
    the points sqrt(eta) x of the grid x.  Returns shape
    (dim_cut - delta, len(x)); row a holds

        g_{a,a+delta}(x) = sqrt(eta) sum_k W[a, a-k] Psi_{a-k} Psi_{a-k+delta}

    at sqrt(eta) x, W the ``_loss_weights``, formed in place from the last
    row up, ``SMEAR_ROWS`` rows per product, so no second table is held.
    At eta = 1 the rows are the products Psi_a Psi_{a+delta} exactly.
    These are the quadrature-distribution basis functions: a state rho
    seen at efficiency eta has density
    p_eta(x | phi) = sum_ab rho_ab e^{i(a-b) phi} g_{min(a,b),|a-b|}(x).
    """
    dim_cut = psi.shape[0]
    if not 0 <= delta < dim_cut:
        raise ValueError(f"need 0 <= delta < dim_cut, got delta={delta}")
    rows = np.multiply(psi[: dim_cut - delta], psi[delta:])
    w = np.sqrt(eta) * _loss_weights(rows.shape[0], delta, eta)
    for lo in reversed(range(0, rows.shape[0], SMEAR_ROWS)):
        hi = lo + SMEAR_ROWS
        rows[lo:hi] = w[lo:hi, :hi] @ rows[:hi]  # rows < lo unweighted
    return rows
