"""Monte Carlo generation of measurement records.

Three sampling paths share one RNG contract:

* exact Gaussian sampling of joint quadratures for the phase-symmetric
  two-mode states of the displaced twin-beam experiment (``GaussianState``:
  the mode-1 mean, the two per-mode variances and the correlation c): a
  trial draws phi1, phi2, then two standard normals, which give the
  detected (x1, x2) as one bivariate normal with the detector noise in its
  variances,
* exact Fock-basis sampling of arbitrary pure bipartite outputs (and
  mixtures of them for Kraus maps) from one per-run record of the output
  branches (``fock_tables``, which holds the run's grid with its block
  tables and each branch's mode-1 marginal summed block by block): x1 from
  the phase-dependent marginal, x2 from the exact conditional given x1, both
  by one two-level search, first over the grid's blocks by their masses,
  then over the nodes of one block; each grid node's mass sits on the cell
  centred on it, so draws carry no half-cell shift; a block draws its
  samples branch by branch, in batches of up to ``FOCK_BATCH`` samples of
  one branch, and turns each batch into quadratures (the phase rotations,
  ``fock.phase_powers`` of the phasors, the x1 search, the wavefunctions at
  x1, the conditional amplitude and the x2 search) before drawing the next,
* exact-distribution outcome sampling for finite-dimensional quorums, by
  inverse CDF on the joint outcome table of the same output branches the
  Fock route draws from (``joint_outcome_table``, a weighted sum of squared
  branch amplitudes), which is also built once per run, with its running sum;
  a block's uniforms are sorted first, so its samples come in table order.

Quadrature units follow X_phi = (a^dag e^{i phi} + a e^{-i phi})/2 (vacuum
variance 1/4); detector efficiency adds independent Gaussian noise of
variance (1-eta)/(4 eta) per mode: the Fock sampler draws it as two more
normals, the Gaussian sampler adds it to the variances it draws from.

A homodyne sampler returns four columns, settings then outcomes:
(e^{i phi1}, e^{i phi2}, x1, x2); a setting is the unit phasor of its
phase, np.cos and np.sin written into one complex array (``_phasor``) once
per sample, so the dyad estimates never evaluate a trigonometric function,
and the sample dump writes phi back as angle(e^{i phi}) mod 2 pi.  The
finite sampler returns ``(cells,)``, flat indices into the joint outcome
table.  A ``SampleBlock`` holds a block's sampler columns, heralded samples
only, and one herald flag per trial.

Determinism: every block owns the generator ``substream(master_seed,
block_index)``; block data never depends on scheduling order or worker count.
Draw order within a block is fixed and documented per sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from optomo.fock import (noise_sigma2, phase_powers, quadrature_wavefunctions,
                         support)

FOCK_GRID_POINTS = 4096
# samples of one branch per _fock_draw call: fixes the draw order and
# bounds the call's tables
FOCK_BATCH = 256
FOCK_MIN_BLOCK = 128  # grid nodes per block at least, where the grid has them
OUTCOME_CHUNK = 1 << 16  # complex amplitudes formed at once by the table


def substream(master_seed: int, block_index: int) -> np.random.Generator:
    """Independent, reproducible per-block random stream."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, block_index)))


@dataclass(frozen=True)
class GaussianState:
    """Phase-symmetric two-mode Gaussian state, the form that displacement,
    identity and loss keep on the twin beam.

    ``mean`` is <X1> + i <P1>; mode 2 is centred.  Every quadrature of mode
    j has variance ``vj``; X1 and X2 are correlated by +``c``, P1 and P2 by
    -``c``, and X1 with P2 (P1 with X2) not at all.
    """

    mean: complex
    v1: float
    v2: float
    c: float


def displaced_twinbeam_gaussian(z: complex, nbar: float) -> GaussianState:
    """Twin-beam with mean thermal photon nbar, mode 1 displaced by D(z).

    Marginal quadrature variance is v = (2 nbar + 1)/4 per mode; X1-X2 and
    P1-P2 carry the two-mode squeezing correlations +-c, c =
    sqrt(nbar(nbar+1))/2, so that v^2 - c^2 = 1/16, a pure state.
    """
    if nbar < 0:
        raise ValueError("nbar must be nonnegative")
    v = (2.0 * nbar + 1.0) / 4.0
    c = np.sqrt(nbar * (nbar + 1.0)) / 2.0
    return GaussianState(mean=complex(z), v1=v, v2=v, c=c)


@dataclass(frozen=True)
class SampleBlock:
    """One block of joint measurement records.

    ``herald`` flags the trials in which the operation occurred.
    ``columns`` holds the heralded samples only, as the sampler returns
    them: (e^{i phi1}, e^{i phi2}, x1, x2) from a homodyne sampler, or
    ``(cells,)`` from ``sample_finite``.
    """

    block_id: int
    herald: np.ndarray
    columns: tuple


def _phasor(phi: np.ndarray) -> np.ndarray:
    """e^{i phi} from np.cos and np.sin of ``phi``, written into its real
    and imaginary parts."""
    e = np.empty(phi.size, dtype=complex)
    np.cos(phi, out=e.real)
    np.sin(phi, out=e.imag)
    return e


def sample_quadratures(
    state: GaussianState,
    eta: float,
    n: int,
    stream: np.random.Generator,
    phases: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint quadrature samples (e^{i phi1}, e^{i phi2}, x1, x2) at
    efficiency eta.

    The detector is the loss channel eta followed by a 1/sqrt(eta)
    rescale, so at fixed phases (x1, x2) is one bivariate normal whose
    variances are w1 = v1 + sigma2 and w2 = v2 + sigma2, sigma2 =
    (1-eta)/(4 eta), and whose covariance is v12 = c (c1 c2 - s1 s2),
    with cj + i sj = e^{i phij}.  Draw order (fixed for reproducibility):
    phi1, phi2, then two standard normals z1, z2.  Each phase is returned as
    its phasor np.cos(phi) + 1j np.sin(phi); then x1 = c1 Re(mean) +
    s1 Im(mean) + sqrt(w1) z1 and x2 = (v12 / sqrt(w1)) z1 +
    sqrt(max(w2 - v12^2 / w1, 0)) z2.  ``phases`` fixes both phases to the
    given values instead of drawing them (no phase is drawn then).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    sig2 = noise_sigma2(eta)
    if phases is None:
        e1 = _phasor(stream.uniform(0.0, 2.0 * np.pi, n))
        e2 = _phasor(stream.uniform(0.0, 2.0 * np.pi, n))
    else:
        e1 = _phasor(np.full(n, float(phases[0])))
        e2 = _phasor(np.full(n, float(phases[1])))
    c1, s1, c2, s2 = e1.real, e1.imag, e2.real, e2.imag
    w1 = state.v1 + sig2
    w2 = state.v2 + sig2
    v12 = state.c * (c1 * c2 - s1 * s2)
    z1 = stream.standard_normal(n)
    z2 = stream.standard_normal(n)
    x1 = c1 * state.mean.real + s1 * state.mean.imag + np.sqrt(w1) * z1
    x2 = ((v12 / np.sqrt(w1)) * z1
          + np.sqrt(np.maximum(w2 - v12**2 / w1, 0.0)) * z2)
    return e1, e2, x1, x2


@dataclass(frozen=True)
class FockTables:
    """Per-run record of the Fock-route sampler for the output that mixes the
    pure ``branches`` (shape (n, d, d)) with probabilities ``weights``: the
    sampling grid, its block tables and each branch's mode-1 marginal.

    ``x`` holds the G nodes of the sampling grid, cropped to the support of
    the wavefunctions.  The nodes are split into ``n_blocks`` contiguous
    blocks of ``block`` nodes; ``psi`` holds Psi_a(x) for a < d on the
    nodes, zero-padded to n_blocks * block columns (shape (d, n_blocks
    block)), so block b is columns [b block, (b + 1) block).  ``mass`` holds
    the block mass matrices M_b = Psi_b Psi_b^T side by side, shape
    (d, n_blocks d): the mass of block b under the amplitude c over Fock
    index m is c^dag M_b c.  ``marginal[n]`` is the mode-1 marginal of
    branch n in the node layout of ``psi``, summed from the first node of
    each block: column k of row delta of its complex form is
    H_delta(k) = w_delta sum_a rho1[a, a+delta] sum_j Psi_a Psi_{a+delta} at
    x_j, over the nodes j <= k of the block of node k (w_0 = 1, otherwise
    2), stored as rows [Re H; Im H], shape (n, 2d, n_blocks block).  For
    phase phi1 the running mass at node k is Re sum_delta H_delta(k)
    e^{-i delta phi1}; at a block's last node it is that block's mass.
    """

    x: np.ndarray
    psi: np.ndarray
    mass: np.ndarray
    block: int
    n_blocks: int
    branches: np.ndarray
    weights: np.ndarray
    marginal: np.ndarray


def fock_tables(branches, weights) -> FockTables:
    """The sampler record of the output that mixes the pure ``branches``
    (d x d matrices) with ``weights``, built once per run.  A branch may
    have any norm: x1 and x2 are drawn against each row's own total mass,
    so a branch's scale does not change its draws.

    The grid is ``FOCK_GRID_POINTS`` nodes over [-6 sigma_max, 6 sigma_max]
    with sigma_max^2 = (2d + 1)/4, cropped to the ``fock.support`` of its
    wavefunctions.  Its G nodes are split into nb = round(sqrt(G/d)) blocks
    of B = ceil(G/nb) nodes, which balances the d^2 nb work of the block
    masses against the d B work inside one block; nb is cut to at most
    G // ``FOCK_MIN_BLOCK``, so that at small d a block's fixed cost is
    shared by at least that many nodes.
    """
    branches = np.array(branches, dtype=complex)
    n, d = branches.shape[:2]
    sigma_max = np.sqrt((2.0 * d + 1.0) / 4.0)
    x = np.linspace(-6.0 * sigma_max, 6.0 * sigma_max, FOCK_GRID_POINTS)
    full = quadrature_wavefunctions(d, x)
    crop = support(full)
    x = x[crop]
    nb = min(round(np.sqrt(x.size / d)), x.size // FOCK_MIN_BLOCK)
    block = -(-x.size // max(1, nb))  # ceil
    n_blocks = -(-x.size // block)  # every block holds a node
    psi = np.zeros((d, n_blocks * block))
    psi[:, : x.size] = full[:, crop]
    del full  # kept alive, it slows the marginal products below ~1.5x
    mass = np.concatenate(
        [pb @ pb.T for pb in np.split(psi, n_blocks, axis=1)], axis=1)
    rho1 = branches @ branches.conj().transpose(0, 2, 1)  # mode-1 states
    marginal = np.empty((n, 2 * d, psi.shape[1]))
    for delta in range(d):
        w = 1.0 if delta == 0 else 2.0
        diag = w * np.diagonal(rho1, delta, axis1=1, axis2=2)  # (n, d - delta)
        # [Re; Im] of every branch's diagonal in one real GEMM
        parts = np.concatenate([diag.real, diag.imag]) @ (
            psi[: d - delta] * psi[delta:])
        marginal[:, delta] = parts[:n]
        marginal[:, d + delta] = parts[n:]
    np.cumsum(marginal.reshape(n, 2 * d, n_blocks, block), axis=3,
              out=marginal.reshape(n, 2 * d, n_blocks, block))
    return FockTables(x=x, psi=psi, mass=mass, block=block,
                      n_blocks=n_blocks, branches=branches,
                      weights=np.asarray(weights) / np.sum(weights),
                      marginal=marginal)


def _grid_draw(tables: FockTables, masses, running, u) -> np.ndarray:
    """One draw per row by a two-level inverse CDF on the grid of ``tables``.

    ``masses`` (s, n_blocks) holds every row's mass in each block, and
    ``running(b, sel)`` the running mass of the rows ``sel`` over the nodes
    of block b, from its first node.  The masses pick the block where u
    times the row's total mass is reached; the running mass over that block
    picks the first node that reaches the target's share of the block, which
    stays a crossing where rounding makes a running mass dip (x1's is a sum
    of cosines).  Node k carries its mass on the cell [x_k - dx/2,
    x_k + dx/2], across which the CDF is linear, so the midpoint rule is
    inverted without a shift.  The zero padding past the grid's last node
    is cut off before the node search, so no draw lands there even where
    rounding leaves a padded node's running mass above the last real one.
    """
    s = masses.shape[0]
    masses = np.maximum(masses, 0.0)
    cum = np.cumsum(masses, axis=1)
    target = u * cum[:, -1]
    blk = np.sum(cum < target[:, None], axis=1)
    rows = np.arange(s)
    before = np.where(blk > 0, cum[rows, blk - 1], 0.0)
    # the share of the chosen block's mass below the target
    share = np.minimum(
        (target - before) / np.maximum(masses[rows, blk], np.finfo(float).tiny),
        1.0)
    xs = np.empty(s)
    dx = tables.x[1] - tables.x[0]
    for b in np.unique(blk):
        sel = np.flatnonzero(blk == b)
        start = b * tables.block
        cdf = running(b, sel)[:, : tables.x.size - start]
        t = share[sel] * cdf[:, -1]
        node = np.argmax(cdf >= t[:, None], axis=1)
        at = np.arange(sel.size)
        c_lo = np.where(node > 0, cdf[at, node - 1], 0.0)
        frac = (t - c_lo) / np.maximum(cdf[at, node] - c_lo,
                                       np.finfo(float).tiny)
        xs[sel] = tables.x[start + node] + (frac - 0.5) * dx
    return xs


def _draw_x2(tables: FockTables, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One draw per row of the density |sum_m c[r, m] Psi_m(x)|^2 on the
    grid of ``tables``.

    The block masses c^dag M_b c of every row come from one real GEMM; the
    running mass over one block's nodes from one GEMM per block.
    """
    s, d = c.shape
    size = tables.block
    ri = np.concatenate([c.real, c.imag])  # (2s, d)
    quad = (ri @ tables.mass).reshape(2, s, tables.n_blocks, d)
    masses = np.einsum("tsbm,tsm->sb", quad, ri.reshape(2, s, d))

    def running(b, sel):
        psi_b = tables.psi[:, b * size:(b + 1) * size]
        cdf = c.real[sel] @ psi_b
        im = c.imag[sel] @ psi_b
        cdf *= cdf
        im *= im
        cdf += im
        return np.cumsum(cdf, axis=1, out=cdf)

    return _grid_draw(tables, masses, running, u)


def _fock_draw(tables: FockTables, branch: int, p1, p2, u1, u2):
    """Phasors and noise-free quadratures (e^{i phi1}, e^{i phi2}, x1, x2)
    for rows of phases and uniforms, every row drawn from branch ``branch``.

    The phase rotations rot_j = e^{i a phi_j}, a < d (d >= 2), are the
    powers (``phase_powers``) of the phasor of phi_j.  x1 is drawn from the
    branch's marginal table with trig1 = [cos a phi1 | sin a phi1]: the
    block masses are trig1 times the table's columns at the blocks' last
    nodes, the running mass over one block trig1 times that block's
    columns.  x2 is drawn from the exact conditional given x1, whose
    amplitude over mode-2 index m is sum_a Psi_a(x1) rot1[a] Phi[a, m]
    rot2[m].  The phasors are the order-1 rows of rot_j.
    """
    size = tables.block
    d = tables.branches.shape[1]
    marginal = tables.marginal[branch]
    rot1 = phase_powers(_phasor(p1), np.empty((d, p1.size), dtype=complex))
    rot2 = phase_powers(_phasor(p2), np.empty((d, p2.size), dtype=complex))
    trig1 = np.concatenate([rot1.real.T, rot1.imag.T], axis=1)  # (s, 2d)
    xs1 = _grid_draw(
        tables, trig1 @ marginal[:, size - 1::size],
        lambda b, at: trig1[at] @ marginal[:, b * size:(b + 1) * size], u1)
    c = (quadrature_wavefunctions(d, xs1) * rot1).T @ tables.branches[branch]
    c *= rot2.T
    return rot1[1], rot2[1], xs1, _draw_x2(tables, c, u2)


def sample_fock_general(
    tables: FockTables,
    eta: float,
    n: int,
    stream: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Joint quadrature samples (e^{i phi1}, e^{i phi2}, x1, x2) of the
    output that mixes the pure branches of ``tables``.

    Each sample picks a branch with probability equal to its weight.  Per
    sample, x1 is drawn from the branch's exact phase-dependent marginal, x2
    from the exact conditional |sum_m c_m e^{i m phi2} Psi_m(x2)|^2 given
    x1, with Psi_a(x1) evaluated at the drawn point; both by the same
    two-level search over the grid's blocks, then the nodes of one block.
    Both then receive efficiency noise.  Draw order: the branch indices
    (``stream.choice``, only when there is more than one branch); then,
    branch by branch in index order, per batch of up to ``FOCK_BATCH`` of
    that branch's samples: phi1, phi2, u1, u2, noise1, noise2.  A branch
    with no sample draws nothing.  ``_fock_draw`` turns each batch into
    quadratures, and its noise is added, before the next batch is drawn.
    The phasors are np.cos(phi) + 1j np.sin(phi), the order-1 rotations.
    """
    sigma = np.sqrt(noise_sigma2(eta))
    n_branches = len(tables.weights)
    if n_branches == 1:
        branch_idx = np.zeros(n, dtype=int)
    else:
        branch_idx = stream.choice(n_branches, size=n, p=tables.weights)
    e1, e2 = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    x1, x2 = np.empty(n), np.empty(n)
    for branch in range(n_branches):
        sel = np.flatnonzero(branch_idx == branch)
        for lo in range(0, sel.size, FOCK_BATCH):
            at = sel[lo:lo + FOCK_BATCH]
            p1 = stream.uniform(0.0, 2.0 * np.pi, at.size)
            p2 = stream.uniform(0.0, 2.0 * np.pi, at.size)
            u1 = stream.random(at.size)
            u2 = stream.random(at.size)
            g1 = stream.standard_normal(at.size)
            g2 = stream.standard_normal(at.size)
            e1[at], e2[at], xs1, xs2 = _fock_draw(tables, branch, p1, p2,
                                                  u1, u2)
            x1[at] = xs1 + sigma * g1
            x2[at] = xs2 + sigma * g2
    return e1, e2, x1, x2


def joint_outcome_table(branches, weights, quorum) -> np.ndarray:
    """Exact joint outcome probabilities, shape (L, L, d, d).

    Entry (k, l, m1, m2) is the probability of choosing observables (k, l)
    of the finite ``quorum`` and obtaining their (m1, m2)-th eigenvalues on
    the output that mixes the normalised pure ``branches`` (d x d matrices)
    with ``weights``: the Born probabilities sum_n w_n |rows Phi_n rows^T|^2
    over all L d x L d eigenvector pairs, a sum of squared moduli; it sums
    to 1.  The amplitudes are formed ``OUTCOME_CHUNK`` entries at a time,
    from the whole ``rows Phi_n`` and a chunk of its rows.
    """
    L, d = len(quorum), quorum.dim
    # rows[k d + m] = <m_k|, the m-th eigenvector of observable k
    rows = quorum.eigenvectors.conj().transpose(0, 2, 1).reshape(L * d, d)
    chunk = max(1, OUTCOME_CHUNK // (L * d))
    born = np.zeros((L * d, L * d))
    for phi, w in zip(branches, weights):
        half = rows @ phi
        for lo in range(0, L * d, chunk):
            amp = half[lo:lo + chunk] @ rows.T
            born[lo:lo + chunk] += w * (amp.real**2 + amp.imag**2)
    born = born.reshape(L, d, L, d).transpose(0, 2, 1, 3)
    table = np.outer(quorum.weights, quorum.weights)[:, :, None, None] * born
    table /= table.sum()
    return table


def sample_finite(
    cdf: np.ndarray,
    n: int,
    stream: np.random.Generator,
) -> tuple[np.ndarray]:
    """Joint finite-quorum outcomes ``(cells,)``, flat indices into the
    (L, L, d, d) ``joint_outcome_table``.

    ``cdf`` is the table's flat running sum ``np.cumsum(table)``, built
    once per run; one uniform per sample.  The uniforms are sorted before
    the search, which then walks the running sum in order, so the cells
    come in table order; their multiset, all that a block's reduction
    depends on, is that of the unsorted draws.
    """
    u = stream.random(n)
    u.sort()
    cells = np.searchsorted(cdf, u * cdf[-1], side="right")
    return (np.minimum(cells, cdf.size - 1),)


def draw_heralds(p: float, n: int, stream: np.random.Generator) -> np.ndarray:
    """Bernoulli occurrence flags; empirical frequency estimates p, which
    must lie in [0, 1].  At p = 1 every flag is set and nothing is drawn."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"occurrence probability {p} outside [0, 1]")
    if p == 1.0:
        return np.ones(n, dtype=bool)
    return stream.random(n) < p


def write_sample_dump(path, blocks) -> None:
    """Raw-sample dump: one `block_id, phi1, phi2, x1, x2, herald` record per
    trial of each homodyne SampleBlock in ``blocks`` (any iterable, consumed
    once).

    The phases are written back from the blocks' phasors as
    angle(e^{i phi}) mod 2 pi.  Values use 9 significant
    digits; herald is 0/1.  Non-heralded records get zero phases and
    quadratures (the operation did not occur; nothing was measured).
    """
    with open(path, "w") as fh:
        fh.write("# block_id, phi1, phi2, x1, x2, herald\n")
        for blk in blocks:
            e1, e2, q1, q2 = blk.columns
            rows = np.zeros((blk.herald.size, 4))
            rows[blk.herald] = np.column_stack(
                (np.angle(e1) % (2.0 * np.pi), np.angle(e2) % (2.0 * np.pi),
                 q1, q2))
            for (phi1, phi2, x1, x2), h in zip(rows, blk.herald):
                fh.write(f"{blk.block_id}, {phi1:.9g}, {phi2:.9g}, "
                         f"{x1:.9g}, {x2:.9g}, {int(h)}\n")
