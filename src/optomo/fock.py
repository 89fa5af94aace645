"""Fock-basis quadrature wavefunctions and smeared quadrature distributions.

Quadrature convention: X_phi = (a^dag e^{i phi} + a e^{-i phi}) / 2, so the
vacuum quadrature variance is 1/4.  The position-like eigenbasis of X_0 has
the orthonormal wavefunctions

    Psi_0(x) = (2/pi)^{1/4} exp(-x^2),
    Psi_{n+1}(x) = (2x/sqrt(n+1)) Psi_n(x) - sqrt(n/(n+1)) Psi_{n-1}(x),

and <x|n>_phi = e^{i n phi} Psi_n(x).  The phase factors e^{i k phi} of the
Fock sampler and of the homodyne dyad estimates come from ``phase_powers``.
Detector efficiency eta < 1 smears the quadrature distribution with a
zero-mean Gaussian of variance (1-eta)/(4 eta).

A kernel build forms the Psi table of its grid once and hands it to
``smeared_pair_table`` for every offset, which convolves the pair products
with ``scipy.fft``: the filter is transformed once per offset, and the rows
``CONVOLVE_ROWS`` at a time, so batching rows saves per-call work while the
row cap bounds the FFT buffers of one call.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from optomo.errors import UnphysicalDeconvolutionError

CONVOLVE_ROWS = 8  # smeared rows per FFT round trip: bounds the batch


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


def gaussian_filter_kernel(sigma: float, dx: float) -> np.ndarray:
    """Discrete Gaussian density for grid convolution; sums to exactly 1."""
    if sigma <= 0.0:
        return np.array([1.0])
    half = int(np.ceil(8.0 * sigma / dx))
    t = np.arange(-half, half + 1) * dx
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def smeared_pair_table(
    psi: np.ndarray, delta: int, dx: float, sigma: float
) -> np.ndarray:
    """Smeared products g_ab = (Psi_a Psi_b) * N(0, sigma^2) for b - a = delta.

    ``psi`` is the ``quadrature_wavefunctions`` table (dim_cut, len(x)) of
    the grid x with spacing ``dx``, formed once by the caller for every
    offset.  Returns shape (dim_cut - delta, len(x)); row a holds the pair
    (a, a + delta).  Each row is convolved with the filter as if alone and
    cropped to its own length ("same" mode), ``CONVOLVE_ROWS`` rows per
    rfft/irfft round trip at the fast FFT size of the full convolution.
    These are the quadrature-distribution basis functions: a state rho
    smeared by efficiency noise has density
    p_eta(x | phi) = sum_ab rho_ab e^{i(a-b) phi} g_{min(a,b),|a-b|}(x).
    """
    dim_cut = psi.shape[0]
    if not 0 <= delta < dim_cut:
        raise ValueError(f"need 0 <= delta < dim_cut, got delta={delta}")
    kern = gaussian_filter_kernel(sigma, dx)
    rows = np.multiply(psi[: dim_cut - delta], psi[delta:])
    if kern.size > 1:
        n, full = rows.shape[1], rows.shape[1] + kern.size - 1
        size = scipy.fft.next_fast_len(full, True)
        spec = scipy.fft.rfft(kern, size)
        start = (full - n) // 2
        for lo in range(0, rows.shape[0], CONVOLVE_ROWS):
            chunk = rows[lo:lo + CONVOLVE_ROWS]
            conv = scipy.fft.irfft(
                scipy.fft.rfft(chunk, size, axis=1) * spec, size, axis=1)
            chunk[:] = conv[:, start:start + n]
    return rows
