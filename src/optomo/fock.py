"""Fock-basis quadrature wavefunctions and smeared quadrature distributions.

Quadrature convention: X_phi = (a^dag e^{i phi} + a e^{-i phi}) / 2, so the
vacuum quadrature variance is 1/4.  The position-like eigenbasis of X_0 has
the orthonormal wavefunctions

    Psi_0(x) = (2/pi)^{1/4} exp(-x^2),
    Psi_{n+1}(x) = (2x/sqrt(n+1)) Psi_n(x) - sqrt(n/(n+1)) Psi_{n-1}(x),

and <x|n>_phi = e^{i n phi} Psi_n(x).  Detector efficiency eta < 1 smears the
quadrature distribution with a zero-mean Gaussian of variance (1-eta)/(4 eta).
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

from optomo.errors import UnphysicalDeconvolutionError


def noise_sigma2(eta: float) -> float:
    """Variance of the efficiency-noise Gaussian, (1-eta)/(4 eta)."""
    if not 0.5 < eta <= 1.0:
        raise UnphysicalDeconvolutionError(
            f"quantum efficiency must be in (0.5, 1], got {eta}"
        )
    return (1.0 - eta) / (4.0 * eta)


def quadrature_wavefunctions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Table of Psi_n(x) for n < nmax, shape (nmax, len(x))."""
    x = np.asarray(x, dtype=float)
    table = np.zeros((nmax, x.size))
    table[0] = (2.0 / np.pi) ** 0.25 * np.exp(-x * x)
    if nmax > 1:
        table[1] = 2.0 * x * table[0]
    for n in range(1, nmax - 1):
        table[n + 1] = (2.0 * x / np.sqrt(n + 1.0)) * table[n] - np.sqrt(
            n / (n + 1.0)
        ) * table[n - 1]
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
    dim_cut: int, delta: int, x: np.ndarray, dx: float, sigma: float
) -> np.ndarray:
    """Smeared products g_ab = (Psi_a Psi_b) * N(0, sigma^2) for b - a = delta.

    Returns shape (dim_cut - delta, len(x)); row a holds the pair (a, a + delta).
    These are the quadrature-distribution basis functions: a state rho smeared
    by efficiency noise has density
    p_eta(x | phi) = sum_ab rho_ab e^{i(a-b) phi} g_{min(a,b),|a-b|}(x).
    """
    if not 0 <= delta < dim_cut:
        raise ValueError(f"need 0 <= delta < dim_cut, got delta={delta}")
    psi = quadrature_wavefunctions(dim_cut, x)
    kern = gaussian_filter_kernel(sigma, dx)
    rows = np.empty((dim_cut - delta, x.size))
    for a in range(dim_cut - delta):
        prod = psi[a] * psi[a + delta]
        rows[a] = fftconvolve(prod, kern, mode="same") if kern.size > 1 else prod
    return rows
