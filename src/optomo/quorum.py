"""Quorum machinery: observable families, dual frames, and homodyne kernels.

A quorum is a family of observables O(l) spanning operator space, with a
biorthogonal dual family Q(l), Tr[Q^dag(i) O(j)] = delta_ij, so that any
operator expands as H = sum_l Tr[Q^dag(l) H] O(l).  Measuring a randomly
chosen O(l) and averaging Tr[Q^dag(l) H] times the observed eigenvalue
(divided by the sampling weight) gives an unbiased estimate of <H>.

For a single radiation mode the quorum is quadrature measurement at a random
phase.  Matrix elements are estimated with pattern functions: real kernels
f_nm(x) such that averaging f_nm(x) e^{i(m-n) phi} over efficiency-smeared
quadrature data at uniformly random phase recovers <n|rho|m> for any state
supported below the configured Fock cutoff.  The kernels are built
numerically, per phase-offset delta = m - n, as the minimum-norm solution of
the unbiasedness constraints against the exact smeared pair distributions on
an x-grid, with a small ridge for numerical stability.  Between grid nodes
a kernel is interpolated linearly as a + w Delta, from the node value a and
the difference Delta to the next node, tabulated together.  The phase
factor e^{i(m-n) phi} is handled analytically: the phasor e^{i phi} comes
with the sample (the homodyne samplers form it once, from the cos and sin
they already need), and e^{ik phi} for 1 < |k| <= max|m - n| comes from its
powers, ``fock.phase_powers`` (powers of e^{-i phi}, the exact conjugates,
for k < 0).

Both backends have one interface and know nothing of the estimator: each
reduces a block of heralded samples to the sums of products of its two
modes' dyad estimates, from which the estimation chain forms every estimate.
- ``pair_table(pairs)``: the pair-dependent table of a list of dyads |a><b|;
- ``dyad_estimates(outcomes, settings, table)``: per-sample estimates of
  one mode, outcome first (quadratures and phasors e^{i phi}, or eigenvalue
  and observable indices);
- ``block_sums(block, tables)``: the dyad moment matrix
  M[p, q] = sum_s e1[s, p] e2[s, q] of one block, with e1, e2 the two
  modes' dyad estimates of the pair tables ``tables`` = (table1, table2).
On the homodyne backend the pair table is the interpolation table
[f_j | f_{j+1} - f_j] with the runs of phase offsets, and M is the sum of
e1.T @ e2 over chunks of ``DYAD_CHUNK`` samples; the chunk sums add up to
the one-shot reduction of the block up to roundoff (about 1e-15 relative).
A finite quorum's estimate of |a><b| from eigenvalue m of observable k is a
per-observable dual coefficient (its pair table) times a per-outcome scalar
lambda_km / w_k, ``scaled_eigenvalues``; so M is c1.T @ R @ c2, R[k, l] one
weighted ``np.bincount`` of ``cell_products`` (the two modes' scalars at each
joint outcome) over the cells of observables (k, l): a block's cells, or in
``exact_sums(branches, weights, tables)`` every cell times its probability
under the output's joint outcome law.  No per-sample dyad is evaluated.

Kernel construction is a one-time single-threaded setup; the resulting
objects and the pair tables built from them are immutable and shareable
across concurrent workers.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import uuid
from dataclasses import dataclass, field

import numpy as np

from optomo.errors import IllConditionedKernelError
from optomo.fock import (SUPPORT_FLOOR, noise_sigma2, phase_powers,
                         quadrature_wavefunctions, smeared_pair_table, support)
from optomo.sampling import joint_outcome_table

KERNEL_CACHE_VERSION = 3
BIORTHOGONALITY_TOL = 1e-8
DEFAULT_RIDGE = 1e-10
KERNEL_GATE_TOL = 5e-3
DEFAULT_SPACING = 0.01
# heralded samples per dyad evaluation: the (samples, pairs) estimates of a
# chunk stay in cache, and no block-sized array of them is allocated
DYAD_CHUNK = 4096


# ---------------------------------------------------------------------------
# finite-dimensional quorum


@dataclass(frozen=True)
class FiniteQuorum:
    """Observables with eigendecompositions, duals, and sampling weights."""

    dim: int
    observables: np.ndarray  # (L, d, d) Hermitian
    duals: np.ndarray  # (L, d, d)
    weights: np.ndarray  # (L,) strictly positive, sums to 1
    eigenvalues: np.ndarray  # (L, d)
    eigenvectors: np.ndarray  # (L, d, d), columns are eigenvectors
    # s[k, a] s[l, b] at the flat cell ((k L + l) d + a) d + b of the
    # (L, L, d, d) joint outcome table, s = scaled_eigenvalues
    cell_products: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bio = np.einsum("iab,jab->ij", self.duals.conj(), self.observables)
        defect = np.max(np.abs(bio - np.eye(len(self.observables))))
        if defect > BIORTHOGONALITY_TOL:
            raise ValueError(f"dual frame not biorthogonal: defect {defect:.3e}")
        s = self.scaled_eigenvalues
        object.__setattr__(self, "cell_products",
                           (s[:, None, :, None] * s[None, :, None, :]).ravel())

    def __len__(self) -> int:
        return len(self.observables)

    @property
    def scaled_eigenvalues(self) -> np.ndarray:
        """lambda_km / w_k, shape (L, d): the factor of every dual-frame
        estimate from eigenvalue m of observable k."""
        return self.eigenvalues / self.weights[:, None]

    def pair_table(self, pairs) -> np.ndarray:
        """The dual coefficients <b|Q^dag(k)|a> = conj(Q_k[a, b]) of dyads
        |a><b|, shape (L, P)."""
        a, b = np.array(pairs).T
        return self.duals.conj()[:, a, b]

    def dyad_estimates(self, outcomes, settings, table) -> np.ndarray:
        """Per-sample unbiased estimates of the dyads of a ``pair_table``.

        Outcome first, then setting, as ``HomodyneKernel.dyad_estimates``:
        for sample s with eigenvalue index m_s (``outcomes``) of observable
        k_s (``settings``) the estimate of <|a><b|> is
        <b|Q^dag(k_s)|a> lambda_{m_s} / w_{k_s}.  Returns shape
        (n_samples, n_pairs).
        """
        lam = self.scaled_eigenvalues[settings, outcomes]  # (S,)
        return table[settings] * lam[:, None]

    def _pair_sums(self, cells, values, tables) -> np.ndarray:
        """c1.T @ R @ c2, R[k, l] the sum of ``values`` over the ``cells``
        (flat joint-outcome indices) of observables (k, l), one bincount."""
        c1, c2 = tables
        n = len(self)
        r = np.bincount(cells // self.dim**2, minlength=n * n, weights=values)
        return (c1.T @ r.reshape(n, n)) @ c2

    def exact_sums(self, branches, weights, tables) -> np.ndarray:
        """Expectation per sample of ``block_sums`` under the joint outcome
        law of the output branches (``joint_outcome_table``): every cell,
        its ``cell_products`` times its probability."""
        table = joint_outcome_table(branches, weights, self).ravel()
        return self._pair_sums(np.arange(table.size),
                               table * self.cell_products, tables)

    def block_sums(self, block, tables) -> np.ndarray:
        """The dyad moment matrix of a block's heralded cells, each its
        ``cell_products``: O(n + L^2 P), within roundoff of per-sample sums."""
        (cells,) = block.columns
        return self._pair_sums(cells, self.cell_products.take(cells), tables)


def _gell_mann_family(dim: int) -> list[np.ndarray]:
    ops: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for j in range(dim):
        for k in range(j + 1, dim):
            x = np.zeros((dim, dim), dtype=complex)
            x[j, k] = x[k, j] = 1.0
            ops.append(x)
            y = np.zeros((dim, dim), dtype=complex)
            y[j, k] = -1.0j
            y[k, j] = 1.0j
            ops.append(y)
    for l in range(1, dim):
        h = np.zeros((dim, dim), dtype=complex)
        h[:l, :l] = np.eye(l)
        h[l, l] = -l
        ops.append(np.sqrt(2.0 / (l * (l + 1))) * h)
    return ops


def build_finite_quorum(dim: int) -> FiniteQuorum:
    """Quorum of d^2 Hermitian observables spanning operator space.

    For dim = 2 this is the three spin observables completed by the identity;
    in general the generalised Gell-Mann family.  Duals come from the
    pseudoinverse of the frame Gram matrix and sampling weights are uniform.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    ops = np.array(_gell_mann_family(dim))
    gram = np.einsum("iab,jab->ij", ops.conj(), ops).real
    if np.linalg.matrix_rank(gram, tol=1e-8) < dim * dim:
        raise ValueError("observable family does not span operator space")
    ginv = np.linalg.pinv(gram)
    duals = np.einsum("kl,kab->lab", ginv, ops)
    evals = np.empty((len(ops), dim))
    evecs = np.empty((len(ops), dim, dim), dtype=complex)
    for i, o in enumerate(ops):
        evals[i], evecs[i] = np.linalg.eigh(o)
    weights = np.full(len(ops), 1.0 / len(ops))
    return FiniteQuorum(
        dim=dim,
        observables=ops,
        duals=duals,
        weights=weights,
        eigenvalues=evals,
        eigenvectors=evecs,
    )


# ---------------------------------------------------------------------------
# homodyne pattern-function kernel


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric x-grid for kernel tables."""

    half_width: float
    spacing: float = DEFAULT_SPACING

    def __post_init__(self):
        if self.half_width <= 0 or self.spacing <= 0:
            raise ValueError("grid half_width and spacing must be positive")

    @property
    def points(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + self.spacing / 2,
                         self.spacing)


@dataclass(frozen=True)
class HomodyneKernel:
    """Tabulated pattern functions f_nm with analytic phase factors.

    ``x`` is the run of ``grid.points`` where the smeared densities exceed
    1e-40 of their peak (``fock.support``); a sample beyond it scores the
    end node, where every kernel is about 1e-40 of its peak.
    ``tables[delta]`` holds rows f_{n, n+delta}(x) for n <= max_index;
    f_nm = f_mn, so only delta = |m - n| is stored.  ``recovery[delta]`` is
    the matrix C[a, n] = integral g_{a, a+delta} f_{n, n+delta} over the full
    constraint family a < dim_cut: exactly the identity columns for an
    unbiased kernel, and the source of exact bias audits.
    """

    grid: GridSpec
    max_index: int
    x: np.ndarray = field(repr=False)
    tables: dict = field(repr=False)  # delta -> (rows, len(x))
    recovery: dict = field(repr=False)  # delta -> (dim_cut - delta, rows)

    def pattern(self, n: int, m: int) -> np.ndarray:
        """Tabulated f_nm on the grid (real)."""
        delta = abs(m - n)
        lo = min(n, m)
        if delta not in self.tables or lo >= self.tables[delta].shape[0]:
            raise KeyError(f"kernel row ({n}, {m}) not built; max_index={self.max_index}")
        return self.tables[delta][lo]

    def pair_table(self, pairs) -> tuple[np.ndarray, int, int, list]:
        """The interpolation table of ``pairs``, pair-major.

        Column j of the table is [f_j | f_{j+1} - f_j] over the pattern rows
        f = f_{b,a} of the P pairs, shape (2P, G - 1), so one gather of
        column j gives both terms of a + w Delta for every pair.  The phase
        offsets a - b are kept as the range [k_lo, k_hi] they span (with 0),
        and as runs [first pair, end, first phase row] of consecutive pairs
        whose offsets step down by one: the phase rows are laid out from
        k_hi down to k_lo, so a run meets a contiguous block of them.
        """
        rows = np.stack([self.pattern(b, a) for (a, b) in pairs])
        table = np.concatenate([rows[:, :-1], np.diff(rows, axis=1)])
        offsets = [a - b for (a, b) in pairs]
        k_lo, k_hi = min(*offsets, 0), max(*offsets, 0)
        runs = []
        for p, k in enumerate(offsets):
            if p and k == offsets[p - 1] - 1:
                runs[-1][1] = p + 1
            else:
                runs.append([p, p + 1, k_hi - k])
        return table, k_lo, k_hi, runs

    def dyad_estimates(self, outcomes, settings, table) -> np.ndarray:
        """Per-sample unbiased estimates of the dyads |a><b| of a
        ``pair_table`` from quadrature data.

        Outcome first, then setting, as ``FiniteQuorum.dyad_estimates``: the
        quadratures x (``outcomes``) and the phasors e = e^{i phi} of their
        phases (``settings``).  The estimate of <|a><b|> = rho_ba from a
        sample (x, e^{i phi}) is f_{b,a}(x) e^{i(a-b) phi}, with f_{b,a}
        interpolated linearly between grid nodes as a + w Delta from one
        gather of the ``pair_table`` column [f_j | f_{j+1} - f_j] (held at
        the end nodes outside the grid).  The interpolation index and weight
        are computed once per sample for all pairs.  e^{ik phi} comes from e
        by ``fock.phase_powers``, as powers of e^{-i phi} for k < 0.  The
        products f e^{ik phi} are written into the real and imaginary parts
        of one pair-major array, returned as its transpose, shape
        (n_samples, n_pairs).
        """
        interp, k_lo, k_hi, runs = table
        x = np.asarray(outcomes, dtype=float)
        e = np.asarray(settings, dtype=complex)
        g = self.x
        dx = self.grid.spacing
        idx = np.clip(((x - g[0]) / dx).astype(np.int64), 0, g.size - 2)
        w = np.clip((x - g[idx]) / dx, 0.0, 1.0)
        ad = np.take(interp, idx, axis=1)  # (2P, S): a over Delta
        n_pairs = ad.shape[0] // 2
        out = np.empty((n_pairs, x.size), dtype=complex)
        f, f_im = out.real, out.imag
        np.multiply(ad[n_pairs:], w, out=f)
        f += ad[:n_pairs]
        del ad  # freed before the phase rows are formed
        # row k_hi - k holds e^{ik phi}; both sides of k = 0 are powers of
        # e^{+-i phi}, and (e^{-i phi})^k = conj(e^{ik phi}) exactly
        phase = np.empty((k_hi - k_lo + 1, x.size), dtype=complex)
        phase_powers(e, phase[k_hi::-1])
        phase_powers(e.conj(), phase[k_hi:])
        for lo, hi, row in runs:
            rot = phase[row:row + hi - lo]
            np.multiply(f[lo:hi], rot.imag, out=f_im[lo:hi])
            np.multiply(f[lo:hi], rot.real, out=f[lo:hi])
        return out.T

    def block_sums(self, block, tables) -> np.ndarray:
        """The dyad moment matrix e1.T @ e2 of a block's heralded samples,
        e1 and e2 the ``dyad_estimates`` of each mode's pair table in
        ``tables``.

        The sums are taken in chunks of ``DYAD_CHUNK`` samples, so no
        (samples, pairs) array of a whole block is built.  A block of at most
        one chunk gives exactly the one-shot sums; a longer one adds the
        chunk sums in order, which moves them by roundoff.
        """
        t1, t2 = tables
        set1, set2, out1, out2 = block.columns
        m = np.zeros((t1[0].shape[0] // 2, t2[0].shape[0] // 2), dtype=complex)
        for lo in range(0, set1.size, DYAD_CHUNK):
            c = slice(lo, lo + DYAD_CHUNK)
            e1 = self.dyad_estimates(out1[c], set1[c], t1)
            e2 = self.dyad_estimates(out2[c], set2[c], t2)
            m += e1.T @ e2
            del e1, e2  # not alive while the next chunk's are formed
        return m


def _save_kernel(path, key: str, kernel: HomodyneKernel) -> None:
    """Write ``key`` and the kernel's tables to ``path`` through a temporary
    file in the same directory, renamed onto ``path``: readers never see a
    partial file."""
    arrays = {f"table_{d}": t for d, t in kernel.tables.items()}
    arrays["x"] = kernel.x
    arrays.update({f"recovery_{d}": r for d, r in kernel.recovery.items()})
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, key=key, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def build_homodyne_kernel(
    dim_cut: int,
    eta: float,
    grid: GridSpec,
    max_index: int,
    ridge: float = DEFAULT_RIDGE,
    cache_dir=None,
) -> HomodyneKernel:
    """Build (or load from cache) eta-deconvolving pattern-function kernels.

    Per offset delta the tabulated kernels are the minimum-norm solutions of
    integral g_{a,a+delta} f_{n,n+delta} = delta_an for all a < dim_cut, where
    g are the exact noise-smeared quadrature pair distributions
    (``fock.smeared_pair_table``).  The ridge is
    relative to the mean diagonal of the constraint Gram matrix.  Rows are
    stored for n <= max_index.  Only the wavefunction table at sqrt(eta) x
    covers the whole grid; everything else is built on its ``fock.support``,
    the kernel's ``x``.  A minimum-norm kernel is a combination of the
    densities, so the nodes dropped add nothing above roundoff.

    With ``cache_dir``, the kernel is cached in
    ``kernel-<sha256(key)[:16]>.npz``, the key text naming the cache
    version and every argument.  A file is used only if the ``key`` stored
    in it equals the requested one; a missing, corrupt, foreign or stale
    file is rebuilt and replaced atomically.  The file stores ``x`` beside
    the tables.  A cache that cannot be written costs the save, not the run.

    Raises UnphysicalDeconvolutionError for eta <= 0.5 and
    IllConditionedKernelError (naming the diagonal) when the densities live
    on fewer than two grid nodes, when some smeared density
    g_aa, a < dim_cut, does not sum to 1 on the grid, or the stored rows fail
    their unbiasedness constraints within the stored window, either at
    ``KERNEL_GATE_TOL``.
    The gate is a tripwire for catastrophic conditioning (defects of order
    one appear as eta approaches 1/2); residual small defects are weighted by
    the state's Fock occupations and are certified operationally by the
    calibration family and by exact bias audits on the ``recovery`` matrices.
    """
    noise_sigma2(eta)  # raises UnphysicalDeconvolutionError for eta <= 1/2
    if not 0 <= max_index < dim_cut:
        raise ValueError("max_index must satisfy 0 <= max_index < dim_cut")

    key = (f"v{KERNEL_CACHE_VERSION}|D{dim_cut}|eta{eta!r}"
           f"|hw{grid.half_width!r}|dx{grid.spacing!r}"
           f"|idx{max_index}|ridge{ridge!r}")
    if cache_dir is not None:
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        cache_path = pathlib.Path(cache_dir) / f"kernel-{digest}.npz"
        try:
            with np.load(cache_path) as z:
                if str(z["key"]) == key:
                    deltas = range(max_index + 1)
                    return HomodyneKernel(
                        grid=grid, max_index=max_index, x=z["x"],
                        tables={d: z[f"table_{d}"] for d in deltas},
                        recovery={d: z[f"recovery_{d}"] for d in deltas})
        except Exception:
            # a missing, truncated, foreign or keyless file rebuilds: the
            # cache never fails a run, and the save replaces the file
            # atomically, so it is never deleted first
            pass

    x = grid.points
    psi = quadrature_wavefunctions(dim_cut, np.sqrt(eta) * x)
    crop = support(psi)
    x, psi = x[crop], np.ascontiguousarray(psi[:, crop])
    tables = {}
    recovery = {}
    remedy = ("reduce dim_cut, raise eta, widen grid_half_width "
              "or refine grid_spacing")
    if x.size < 2:
        # dyad_estimates interpolates between two nodes
        raise IllConditionedKernelError(
            0, f"smeared densities g_aa, a < {dim_cut}, exceed "
            f"{SUPPORT_FLOOR:.0e} of their peak on {x.size} grid nodes "
            f"only; {remedy}")
    for delta in range(0, max_index + 1):
        # quadrature rows, scaled in place: (a_mat f)_p ~ integral g_p f
        a_mat = smeared_pair_table(psi, delta, eta)
        a_mat *= grid.spacing
        m = a_mat.shape[0]
        if delta == 0:
            # every smeared density g_aa must lie on the grid: sum to 1
            cover = np.max(np.abs(a_mat.sum(axis=1) - 1.0))
            if cover > KERNEL_GATE_TOL:
                raise IllConditionedKernelError(
                    0, f"smeared densities g_aa, a < {dim_cut}, sum to 1 "
                    f"only within {cover:.3e} > {KERNEL_GATE_TOL:.0e} on the "
                    f"grid; {remedy}")
        keep = min(max_index + 1, m)
        gram = a_mat @ a_mat.T
        scale = float(np.mean(np.diag(gram)))
        rhs = np.eye(m)[:, :keep]
        try:
            w = np.linalg.solve(gram + ridge * scale * np.eye(m), rhs)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedKernelError(delta, str(exc)) from exc
        f = a_mat.T @ w  # (G, keep)
        recov = a_mat @ f  # (m, keep)
        defect = np.max(np.abs(recov[:keep] - np.eye(keep)))
        if defect > KERNEL_GATE_TOL:
            raise IllConditionedKernelError(
                delta,
                f"kernel unbiasedness defect {defect:.3e} > {KERNEL_GATE_TOL:.0e} "
                f"within window on diagonal delta={delta}; {remedy}",
            )
        tables[delta] = np.ascontiguousarray(f.T)
        recovery[delta] = recov

    kernel = HomodyneKernel(grid=grid, max_index=max_index, x=x,
                             tables=tables, recovery=recovery)
    if cache_dir is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            _save_kernel(cache_path, key, kernel)
        except OSError:
            # an unwritable cache (a file in its place, no permission, a
            # full disk) leaves the run with the kernel it built
            pass
    return kernel
