"""Monte Carlo generation of measurement records.

Three sampling paths share one RNG contract:

* exact Gaussian sampling of joint quadratures for Gaussian scenarios
  (the displaced twin-beam experiment),
* exact Fock-basis sampling of arbitrary pure bipartite outputs (and
  mixtures of them for Kraus maps): x1 by bisection on a cumulative
  mode-1 marginal table built once per state (``fock_tables``), x2 from
  the exact conditional given x1; each grid node's mass sits on the cell
  centred on it, so draws carry no half-cell shift,
* exact-distribution outcome sampling for finite-dimensional quorums, by
  inverse CDF on the joint outcome table of the output state R(psi) of any
  Kraus map (``joint_outcome_table``, two one-mode contractions), which is
  also built once per run.

Quadrature units follow X_phi = (a^dag e^{i phi} + a e^{-i phi})/2 (vacuum
variance 1/4); detector efficiency adds independent Gaussian noise of
variance (1-eta)/(4 eta) per mode.

Determinism: every block owns the generator ``substream(master_seed,
block_index)``; block data never depends on scheduling order or worker count.
Draw order within a block is fixed and documented per sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from optomo.errors import NumericalPSDError, TruncationError
from optomo.fock import noise_sigma2, quadrature_wavefunctions
from optomo.quorum import FiniteQuorum

SYMPLECTIC_TOL = 1e-9
FOCK_GRID_POINTS = 4096
TRUNCATION_BOUND = 1e-6
FOCK_BATCH = 256

_OMEGA = np.array(
    [[0.0, 1.0, 0.0, 0.0],
     [-1.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 1.0],
     [0.0, 0.0, -1.0, 0.0]]
)


def substream(master_seed: int, block_index: int) -> np.random.Generator:
    """Independent, reproducible per-block random stream."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, block_index)))


@dataclass(frozen=True)
class GaussianState:
    """Two-mode Gaussian state: mean and covariance over (X1, P1, X2, P2)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise ValueError("need a length-4 mean and a 4x4 covariance")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        nus = np.abs(np.linalg.eigvals(1j * _OMEGA @ cov))
        if np.min(nus) < 0.25 - SYMPLECTIC_TOL:
            raise ValueError(
                f"covariance violates the uncertainty bound: min symplectic "
                f"eigenvalue {np.min(nus):.6g} < 1/4"
            )


def displaced_twinbeam_gaussian(z: complex, nbar: float) -> GaussianState:
    """Twin-beam with mean thermal photon nbar, mode 1 displaced by D(z).

    Marginal quadrature variance is (2 nbar + 1)/4 per mode; X1-X2 and P1-P2
    carry the two-mode squeezing correlations +-sqrt(nbar(nbar+1))/2.
    """
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    v = (2.0 * nbar + 1.0) / 4.0
    c = np.sqrt(nbar * (nbar + 1.0)) / 2.0
    cov = np.array(
        [[v, 0.0, c, 0.0],
         [0.0, v, 0.0, -c],
         [c, 0.0, v, 0.0],
         [0.0, -c, 0.0, v]]
    )
    mean = np.array([np.real(z), np.imag(z), 0.0, 0.0])
    return GaussianState(mean=mean, cov=cov)


@dataclass(frozen=True)
class QuadratureBlock:
    """One block of joint homodyne records; ``herald`` flags the trials in
    which the operation occurred."""

    block_id: int
    phi1: np.ndarray
    phi2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    herald: np.ndarray

    def heralded_mode(self, mode: int):
        h = self.herald
        if mode == 1:
            return self.x1[h], self.phi1[h]
        return self.x2[h], self.phi2[h]


@dataclass(frozen=True)
class FiniteOutcomeBlock:
    """One block of joint finite-quorum outcomes (observable and eigenvalue
    indices); ``herald`` as for QuadratureBlock."""

    block_id: int
    obs1: np.ndarray
    obs2: np.ndarray
    out1: np.ndarray
    out2: np.ndarray
    herald: np.ndarray

    def heralded_mode(self, mode: int):
        h = self.herald
        if mode == 1:
            return self.obs1[h], self.out1[h]
        return self.obs2[h], self.out2[h]


def _quadrature_projection(state: GaussianState, phi1, phi2):
    """Mean and 2x2 covariance of (X_phi1 (x) X_phi2) for each phase pair."""
    c1, s1 = np.cos(phi1), np.sin(phi1)
    c2, s2 = np.cos(phi2), np.sin(phi2)
    v = state.cov
    mu = state.mean
    m1 = c1 * mu[0] + s1 * mu[1]
    m2 = c2 * mu[2] + s2 * mu[3]
    v11 = c1 * c1 * v[0, 0] + 2 * c1 * s1 * v[0, 1] + s1 * s1 * v[1, 1]
    v22 = c2 * c2 * v[2, 2] + 2 * c2 * s2 * v[2, 3] + s2 * s2 * v[3, 3]
    v12 = (
        c1 * c2 * v[0, 2] + c1 * s2 * v[0, 3]
        + s1 * c2 * v[1, 2] + s1 * s2 * v[1, 3]
    )
    return m1, m2, v11, v22, v12


def sample_quadratures(
    state: GaussianState,
    eta: float,
    n: int,
    stream: np.random.Generator,
    phases: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint quadrature samples (phi1, phi2, x1, x2) at efficiency eta.

    Draw order (fixed for reproducibility): phi1, phi2, two standard normals
    for the exact bivariate law, two standard normals for efficiency noise.
    ``phases`` overrides the random phases with fixed values (test hook).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    sig2 = noise_sigma2(eta)
    if phases is None:
        phi1 = stream.uniform(0.0, 2.0 * np.pi, n)
        phi2 = stream.uniform(0.0, 2.0 * np.pi, n)
    else:
        phi1 = np.full(n, float(phases[0]))
        phi2 = np.full(n, float(phases[1]))
    z1 = stream.standard_normal(n)
    z2 = stream.standard_normal(n)
    g1 = stream.standard_normal(n)
    g2 = stream.standard_normal(n)
    m1, m2, v11, v22, v12 = _quadrature_projection(state, phi1, phi2)
    x1 = m1 + np.sqrt(v11) * z1
    x2 = m2 + (v12 / np.sqrt(v11)) * z1 + np.sqrt(np.maximum(v22 - v12**2 / v11, 0.0)) * z2
    if sig2 > 0.0:
        sn = np.sqrt(sig2)
        x1 = x1 + sn * g1
        x2 = x2 + sn * g2
    return phi1, phi2, x1, x2


def _inverse_cdf(cdf_at, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One draw per row by inverting a cumulative table over the grid ``x``.

    ``cdf_at(k)`` returns, for every row r, the mass of nodes 0..k[r] of that
    row.  Node k carries its mass on the cell [x_k - dx/2, x_k + dx/2], so
    the midpoint rule is inverted without a shift; within the cell the CDF
    is linear.  The node is found by bisection, ceil(log2(len(x) + 1))
    calls of ``cdf_at``.
    """
    lo = np.full(u.size, -1)
    hi = np.full(u.size, x.size - 1)
    c_lo = np.zeros(u.size)
    c_hi = cdf_at(hi)
    target = u * c_hi
    active = hi - lo > 1
    while active.any():
        mid = np.where(active, (lo + hi) // 2, hi)
        c_mid = cdf_at(mid)
        below = active & (c_mid < target)
        above = active & ~below
        lo = np.where(below, mid, lo)
        c_lo = np.where(below, c_mid, c_lo)
        hi = np.where(above, mid, hi)
        c_hi = np.where(above, c_mid, c_hi)
        active = hi - lo > 1
    frac = (target - c_lo) / np.maximum(c_hi - c_lo, np.finfo(float).tiny)
    return x[hi] + (frac - 0.5) * (x[1] - x[0])


@dataclass(frozen=True)
class FockTables:
    """Per-state tables of the Fock-route sampler, built once per run.

    ``x`` is the sampling grid cropped to the support of the wavefunctions,
    ``psi`` holds Psi_a(x) for a < d (shape (d, G)), and ``marginal`` is the
    cumulative mode-1 marginal: column delta of its complex form is
    H_delta(k) = w_delta sum_a rho1[a, a+delta] sum_{j<=k} Psi_a Psi_{a+delta}
    at x_j (w_0 = 1, otherwise 2), stored as [Re H | Im H], shape (G, 2d).
    The cumulative marginal at x_k for phase phi1 is
    Re sum_delta H_delta(k) e^{-i delta phi1}.
    """

    phi_out: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    marginal: np.ndarray


def fock_tables(
    phi_out: np.ndarray,
    n_points: int = FOCK_GRID_POINTS,
) -> FockTables:
    """Sampler tables for the normalised pure bipartite output ``phi_out``.

    The grid is ``n_points`` nodes over [-6 sigma_max, 6 sigma_max] with
    sigma_max^2 = (2d + 1)/4, cropped to the nodes where the envelope
    sum_a Psi_a(x)^2 exceeds 1e-40 of its peak.  Raises TruncationError if
    the norm of ``phi_out`` differs from 1 by more than ``TRUNCATION_BOUND``.
    """
    phi_out = np.asarray(phi_out, dtype=complex)
    d = phi_out.shape[0]
    norm2 = float(np.sum(np.abs(phi_out) ** 2))
    if abs(norm2 - 1.0) > TRUNCATION_BOUND:
        raise TruncationError(
            f"output-state truncation deficit {abs(norm2 - 1.0):.3e} above "
            f"bound {TRUNCATION_BOUND:.0e}"
        )
    sigma_max = np.sqrt((2.0 * d + 1.0) / 4.0)
    x = np.linspace(-6.0 * sigma_max, 6.0 * sigma_max, n_points)
    psi = quadrature_wavefunctions(d, x)
    envelope = np.sum(psi * psi, axis=0)
    keep = np.flatnonzero(envelope > 1e-40 * envelope.max())
    crop = slice(keep[0], keep[-1] + 1)
    # contiguous, so the per-batch GEMMs do not copy it
    x, psi = x[crop], np.ascontiguousarray(psi[:, crop])
    rho1 = phi_out @ phi_out.conj().T  # reduced state of mode 1
    density = np.empty((x.size, d), dtype=complex)
    for delta in range(d):
        w = 1.0 if delta == 0 else 2.0
        r = w * np.diagonal(rho1, delta)
        density[:, delta] = r @ (psi[: d - delta] * psi[delta:])
    cum = np.cumsum(density, axis=0)
    marginal = np.concatenate([cum.real, cum.imag], axis=1)
    return FockTables(phi_out=phi_out, x=x, psi=psi, marginal=marginal)


def _fock_draw(tables: FockTables, p1, p2, u1, u2):
    """Noise-free (x1, x2) for one batch of phases and uniforms."""
    d = tables.phi_out.shape[0]
    orders = np.arange(d)
    rot1 = np.exp(1j * np.outer(p1, orders))  # e^{i a phi1}, (s, d)
    trig1 = np.concatenate([rot1.real, rot1.imag], axis=1)
    xs1 = _inverse_cdf(
        lambda k: np.einsum("ij,ij->i", tables.marginal[k], trig1), tables.x, u1
    )
    # conditional amplitude over mode-2 index m at the drawn x1
    psi_at = quadrature_wavefunctions(d, xs1).T  # (s, d)
    c = ((psi_at * rot1) @ tables.phi_out) * np.exp(1j * np.outer(p2, orders))
    pdf2 = c.real @ tables.psi
    im = c.imag @ tables.psi
    pdf2 *= pdf2
    im *= im
    pdf2 += im
    cdf2 = np.cumsum(pdf2, axis=1, out=pdf2)
    rows = np.arange(u2.size)
    xs2 = _inverse_cdf(lambda k: cdf2[rows, k], tables.x, u2)
    return xs1, xs2


def sample_fock_general(
    tables: FockTables,
    eta: float,
    n: int,
    stream: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint quadrature samples (phi1, phi2, x1, x2) for a pure bipartite output.

    Per sample, x1 is drawn from the exact phase-dependent marginal by
    bisection on the cumulative table of ``tables``, x2 from the exact
    conditional |sum_m c_m e^{i m phi2} Psi_m(x2)|^2 given x1, with Psi_a(x1)
    evaluated at the drawn point.  Both then receive efficiency noise.  Draw
    order per batch of ``FOCK_BATCH`` samples: phi1, phi2, u1, u2, noise1, noise2.
    """
    sig2 = noise_sigma2(eta)
    phi1 = np.empty(n)
    phi2 = np.empty(n)
    x1 = np.empty(n)
    x2 = np.empty(n)
    for lo in range(0, n, FOCK_BATCH):
        s = min(FOCK_BATCH, n - lo)
        p1 = stream.uniform(0.0, 2.0 * np.pi, s)
        p2 = stream.uniform(0.0, 2.0 * np.pi, s)
        u1 = stream.random(s)
        u2 = stream.random(s)
        g1 = stream.standard_normal(s)
        g2 = stream.standard_normal(s)
        xs1, xs2 = _fock_draw(tables, p1, p2, u1, u2)
        if sig2 > 0.0:
            xs1 += np.sqrt(sig2) * g1
            xs2 += np.sqrt(sig2) * g2
        phi1[lo:lo + s] = p1
        phi2[lo:lo + s] = p2
        x1[lo:lo + s] = xs1
        x2[lo:lo + s] = xs2
    return phi1, phi2, x1, x2


def joint_outcome_table(r_out: np.ndarray, quorum: FiniteQuorum) -> np.ndarray:
    """Exact joint outcome probabilities, shape (L, L, d, d).

    Entry (k, l, m1, m2) is the probability of choosing observables (k, l)
    and obtaining their (m1, m2)-th eigenvalues on the normalised state.
    The Born probabilities come from two one-mode contractions of the state
    with the L*d eigenvectors, not from L^2 two-mode products.  Sums to 1;
    raises NumericalPSDError on negative probabilities beyond -1e-10.
    """
    r = np.asarray(r_out, dtype=complex)
    tr = np.trace(r).real
    if tr <= 0:
        raise NumericalPSDError("state has non-positive trace")
    L, d = len(quorum), quorum.dim
    # rows[k d + m] = <m_k|, the m-th eigenvector of observable k
    rows = quorum.eigenvectors.conj().transpose(0, 2, 1).reshape(L * d, d)
    # mode 1: half[i, b, b'] = <m_k, b| r |m_k, b'> with i = k d + m
    half = np.einsum("ia,abce,ic->ibe", rows, (r / tr).reshape(d, d, d, d),
                     rows.conj())
    # mode 2: born[i, j] = <m_k, m'_l| r |m_k, m'_l> with j = l d + m'
    born = np.einsum("jb,ibe,je->ij", rows, half, rows.conj()).real
    born = born.reshape(L, d, L, d).transpose(0, 2, 1, 3)
    bad = np.argwhere(born.min(axis=(2, 3)) < -1e-10)
    if bad.size:
        k, l = bad[0]
        raise NumericalPSDError(
            f"negative joint probability {born[k, l].min():.3e} for "
            f"observables ({k}, {l})"
        )
    table = (np.outer(quorum.weights, quorum.weights)[:, :, None, None]
             * np.clip(born, 0.0, None))
    return table / table.sum()


def sample_finite(
    table: np.ndarray,
    n: int,
    stream: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint finite-quorum outcomes (obs1, obs2, out1, out2).

    ``table`` is the per-run ``joint_outcome_table``; one uniform per sample.
    """
    flat = table.reshape(-1)
    cdf = np.cumsum(flat)
    draws = np.searchsorted(cdf, stream.random(n) * cdf[-1], side="right")
    draws = np.minimum(draws, flat.size - 1)
    obs1, obs2, out1, out2 = np.unravel_index(draws, table.shape)
    return obs1, obs2, out1, out2


def draw_heralds(p: float, n: int, stream: np.random.Generator) -> np.ndarray:
    """Bernoulli occurrence flags; empirical frequency estimates p."""
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise ValueError(f"occurrence probability {p} outside [0, 1]")
    if p >= 1.0:
        return np.ones(n, dtype=bool)
    return stream.random(n) < p


def write_sample_dump(path, blocks) -> None:
    """Raw-sample dump: one `block_id, phi1, phi2, x1, x2, herald` record per line.

    Values use 9 significant digits; herald is 0/1.  Non-heralded records keep
    zero quadratures (the operation did not occur; nothing was measured).
    """
    with open(path, "w") as fh:
        fh.write("# block_id, phi1, phi2, x1, x2, herald\n")
        for blk in blocks:
            for i in range(blk.phi1.size):
                fh.write(
                    f"{blk.block_id}, {blk.phi1[i]:.9g}, {blk.phi2[i]:.9g}, "
                    f"{blk.x1[i]:.9g}, {blk.x2[i]:.9g}, {int(blk.herald[i])}\n"
                )
