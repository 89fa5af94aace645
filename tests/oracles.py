"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package code: recursions and explicit index sums instead of vectorised
kernels, or the scipy routines (special functions, matrix exponentials,
convolutions) that the package does without.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np


def laguerre(n: int, alpha: int, x: float) -> float:
    """Generalised Laguerre polynomial L_n^(alpha)(x) from its explicit sum
    sum_k (-1)^k C(n + alpha, n - k) x^k / k!, k = 0..n, in exact rational
    arithmetic on the float x, rounded once at the end."""
    xq = Fraction(float(x))
    total = sum(Fraction((-1) ** k * comb(n + alpha, n - k), factorial(k))
                * xq**k for k in range(n + 1))
    return float(total)


def displacement_element(m: int, n: int, z: complex) -> complex:
    """<m|D(z)|n> from the Laguerre closed form (explicit-sum Laguerre)."""
    from math import sqrt

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


def displacement_by_scipy_special(z: complex, n_max: int) -> np.ndarray:
    """<m|D(z)|n> for m, n <= n_max from the Laguerre closed form, evaluated
    with ``scipy.special.eval_genlaguerre`` and ``gammaln``."""
    from scipy.special import eval_genlaguerre, gammaln

    a2 = abs(z) ** 2
    out = np.empty((n_max + 1, n_max + 1), dtype=complex)
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            lo, hi = min(m, n), max(m, n)
            amp = z if m >= n else -np.conj(z)
            out[m, n] = (np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - a2 / 2.0)
                         * amp ** (hi - lo) * eval_genlaguerre(lo, hi - lo, a2))
    return out


def displacement_by_expm(z: complex, dim_cut: int, guard: int) -> np.ndarray:
    """exp(z a^dag - z* a) by ``scipy.linalg.expm`` at dim_cut + guard Fock
    levels, cropped to dim_cut: the truncated generator written entry by
    entry."""
    from scipy.linalg import expm

    n = dim_cut + guard
    gen = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        gen[k + 1, k] = z * np.sqrt(k + 1.0)
        gen[k, k + 1] = -np.conj(z) * np.sqrt(k + 1.0)
    return expm(gen)[:dim_cut, :dim_cut]


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


def hermite_functions(d: int, x: np.ndarray) -> np.ndarray:
    """Psi_n(x) for n < d, shape (d, len(x)), from the physicists' Hermite
    polynomials: (2/pi)^{1/4} e^{-x^2} H_n(sqrt(2) x) / sqrt(2^n n!), with
    H_{n+1}(y) = 2y H_n(y) - 2n H_{n-1}(y)."""
    from math import factorial, sqrt

    y = np.sqrt(2.0) * np.asarray(x, dtype=float)
    herm = [np.ones_like(y), 2.0 * y]
    for n in range(1, d - 1):
        herm.append(2.0 * y * herm[n] - 2.0 * n * herm[n - 1])
    gauss = (2.0 / np.pi) ** 0.25 * np.exp(-y * y / 2.0)
    return np.array([gauss * herm[n] / sqrt(2.0**n * factorial(n))
                     for n in range(d)])


def fock_conditional_cdf(phi_out, psi_grid, x1, phi1, phi2) -> np.ndarray:
    """Running sums over every node of the grid of the mode-2 densities of
    the pure output ``phi_out`` given drawn x1 values, one row per sample
    (unnormalised).

    ``psi_grid`` holds Psi_m at the nodes.  The density at a node is
    |sum_m c_m Psi_m|^2 with c_m = e^{i m phi2} sum_n Psi_n(x1) e^{i n phi1}
    phi_out[n, m].
    """
    orders = np.arange(phi_out.shape[0])
    at_x1 = hermite_functions(orders.size, x1).T
    c = ((at_x1 * np.exp(1j * np.outer(phi1, orders))) @ phi_out
         * np.exp(1j * np.outer(phi2, orders)))
    density = np.abs(c @ psi_grid.astype(complex)) ** 2
    return np.cumsum(density, axis=1)


def fock_marginal_cdf(phi_out, psi_grid, phi1) -> np.ndarray:
    """Running sums over every node of the grid of the mode-1 densities of
    the pure output ``phi_out`` at the phases ``phi1``, one row per phase
    (unnormalised).

    ``psi_grid`` holds Psi_n at the nodes.  The density at a node is
    sum_m |sum_n Psi_n e^{i n phi1} phi_out[n, m]|^2, the squared norm of
    the mode-2 amplitude left by the mode-1 outcome.
    """
    rot = np.exp(1j * np.outer(phi1, np.arange(phi_out.shape[0])))
    amp = (psi_grid.T[None, :, :] * rot[:, None, :]) @ phi_out
    return np.cumsum(np.sum(amp.real**2 + amp.imag**2, axis=2), axis=1)


def cell_inverse(x: np.ndarray, cdf: np.ndarray, u: float) -> float:
    """The point where the running sum ``cdf`` over the nodes ``x`` reaches
    u times its total, each node's mass spread evenly over the cell centred
    on it: the first node that reaches it by a sorted search, then linear
    interpolation inside its cell."""
    target = u * cdf[-1]
    k = int(np.searchsorted(cdf, target, side="left"))
    below = cdf[k - 1] if k > 0 else 0.0
    frac = (target - below) / (cdf[k] - below) if cdf[k] > below else 0.0
    dx = x[1] - x[0]
    return x[k] - dx / 2.0 + frac * dx


def wavefunctions_by_rows(nmax: int, x: np.ndarray) -> np.ndarray:
    """Psi_n(x) for n < nmax, shape (nmax, len(x)), by the three-term
    recursion written row by row into a zeroed table, each row a new array:
    Psi_{n+1} = (2x / sqrt(n + 1)) Psi_n - sqrt(n / (n + 1)) Psi_{n-1}."""
    x = np.asarray(x, dtype=float)
    table = np.zeros((nmax, x.size))
    table[0] = (2.0 / np.pi) ** 0.25 * np.exp(-x * x)
    if nmax > 1:
        table[1] = 2.0 * x * table[0]
    for n in range(1, nmax - 1):
        table[n + 1] = (2.0 * x / np.sqrt(n + 1.0)) * table[n] - np.sqrt(
            n / (n + 1.0)) * table[n - 1]
    return table


def smeared_pairs_by_rows(dim_cut: int, delta: int, x, dx: float,
                          sigma: float) -> np.ndarray:
    """Rows Psi_a Psi_{a+delta} of the grid x convolved with a discrete
    Gaussian filter of ``sigma`` > 0 (taps exp(-t^2 / (2 sigma^2)) at
    t = j dx, |t| <= 8 sigma, normalised to sum 1), one ``fftconvolve`` call
    per row, shape (dim_cut - delta, len(x))."""
    from scipy.signal import fftconvolve

    psi = wavefunctions_by_rows(dim_cut, x)
    half = int(np.ceil(8.0 * sigma / dx))
    taps = np.exp(-0.5 * (np.arange(-half, half + 1) * dx / sigma) ** 2)
    taps /= taps.sum()
    rows = np.empty((dim_cut - delta, len(x)))
    for a in range(dim_cut - delta):
        rows[a] = fftconvolve(psi[a] * psi[a + delta], taps, mode="same")
    return rows


def fock_draw_by_batches(tables, eta: float, n: int, stream):
    """``sample_fock_general``'s samples, drawn batch by batch.

    The stream is read in the documented order (branch indices, then per
    branch, per ``FOCK_BATCH`` batch: phi1, phi2, u1, u2, noise1, noise2),
    and each batch is turned into quadratures on its own, before the next
    is drawn: rotations np.exp(1j a phi), Psi_a(x1) from
    ``wavefunctions_by_rows``, and the package's two-level searches for x1
    (one GEMM with the branch's marginal table) and x2.
    """
    from optomo.sampling import FOCK_BATCH, _draw_x2, _grid_draw

    size = tables.block
    n_branches = len(tables.weights)
    if n_branches == 1:
        branch_idx = np.zeros(n, dtype=int)
    else:
        branch_idx = stream.choice(n_branches, size=n, p=tables.weights)
    e1, e2 = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    x1, x2 = np.zeros(n), np.zeros(n)
    sn = np.sqrt((1.0 - eta) / (4.0 * eta))
    for branch in range(n_branches):
        phi_out, marginal = tables.branches[branch], tables.marginal[branch]
        orders = np.arange(phi_out.shape[0])
        sel = np.flatnonzero(branch_idx == branch)
        for lo in range(0, sel.size, FOCK_BATCH):
            at = sel[lo:lo + FOCK_BATCH]
            p1 = stream.uniform(0.0, 2.0 * np.pi, at.size)
            p2 = stream.uniform(0.0, 2.0 * np.pi, at.size)
            u1, u2 = stream.random(at.size), stream.random(at.size)
            g1 = stream.standard_normal(at.size)
            g2 = stream.standard_normal(at.size)
            rot1 = np.exp(1j * np.outer(p1, orders))
            rot2 = np.exp(1j * np.outer(p2, orders))
            trig1 = np.concatenate([rot1.real, rot1.imag], axis=1)
            xs1 = _grid_draw(
                tables, trig1 @ marginal[:, size - 1::size],
                lambda b, s: trig1[s] @ marginal[:, b * size:(b + 1) * size],
                u1)
            c = ((wavefunctions_by_rows(orders.size, xs1).T * rot1)
                 @ phi_out) * rot2
            e1[at], e2[at] = rot1[:, 1], rot2[:, 1]
            x1[at] = xs1 + sn * g1
            x2[at] = _draw_x2(tables, c, u2) + sn * g2
    return e1, e2, x1, x2


def random_contraction(rng, d: int, margin: float = 1.25) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a / (np.linalg.svd(a, compute_uv=False)[0] * margin)


def random_density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def eigen_branches(rho: np.ndarray):
    """A bipartite density matrix (d^2 x d^2) as the normalised pure branches
    of its eigendecomposition: (branches, weights) with branch n the d x d
    matrix of the n-th eigenvector, weight its eigenvalue; eigenvalues that
    are not positive are dropped."""
    evals, evecs = np.linalg.eigh(rho)
    d = round(np.sqrt(rho.shape[0]))
    keep = evals > 0
    return ([v.reshape(d, d) for v in evecs.T[keep]], list(evals[keep]))


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


def loss_kraus(tau: float, d: int, k_max: int) -> list:
    """Kraus operators A_k, k <= k_max, of the bosonic loss channel of
    transmissivity tau on a d-level Fock space, entry by entry:
    A_k = sum_n sqrt(C(n, k) tau^(n-k) (1-tau)^k) |n-k><n|."""
    from math import comb

    ops = []
    for k in range(k_max + 1):
        a = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            a[n - k, n] = np.sqrt(comb(n, k) * tau ** (n - k) * (1 - tau) ** k)
        ops.append(a)
    return ops


def depolarizing_choi(q: float) -> np.ndarray:
    """Analytic Choi matrix (unnormalised |I>> convention) of the qubit
    depolarizing channel rho -> (1-q) rho + q I/2."""
    ident = np.eye(2, dtype=complex)
    v = ident.reshape(-1)
    return (1.0 - q) * np.outer(v, v.conj()) + (q / 2.0) * np.eye(4, dtype=complex)


def homodyne_dyads_by_pairs(kernel, x, phi, pairs) -> np.ndarray:
    """Homodyne dyad estimates one pair at a time, shape (samples, pairs).

    Each pattern row f_{b,a} is interpolated linearly at x (held at the end
    rows outside the grid) and multiplied by its own np.exp(1j*(a-b)*phi).
    """
    g = kernel.x
    dx = kernel.grid.spacing
    idx = np.clip(((x - g[0]) / dx).astype(np.int64), 0, g.size - 2)
    w = np.clip((x - g[idx]) / dx, 0.0, 1.0)
    out = np.empty((x.size, len(pairs)), dtype=complex)
    for p, (a, b) in enumerate(pairs):
        row = kernel.pattern(b, a)
        interp = row[idx] * (1.0 - w) + row[idx + 1] * w
        out[:, p] = interp * np.exp(1j * (a - b) * phi)
    return out


def per_sample_sums(backend, blk, tables):
    """A block's dyad moment matrix from every heralded sample at once.

    e1.T @ e2 with e1, e2 the (samples, pairs) dyad estimates of the block's
    two modes, evaluated through the backend's ``dyad_estimates`` of the
    pair tables ``tables``: no chunks and no observable-pair sums.  A finite
    block's cells are decoded to (obs1, obs2, out1, out2) first.
    """
    if len(blk.columns) == 1:
        shape = (len(backend),) * 2 + (backend.dim,) * 2
        set1, set2, out1, out2 = np.unravel_index(blk.columns[0], shape)
    else:
        set1, set2, out1, out2 = blk.columns
    e1 = backend.dyad_estimates(out1, set1, tables[0])
    e2 = backend.dyad_estimates(out2, set2, tables[1])
    return e1.T @ e2


def exact_sums_by_outcomes(branches, weights, quorum, tables):
    """Exact expectation per sample of the dyad moment matrix of the pair
    tables ``tables``, one outcome pair at a time in matrix form.

    T1.T @ P @ T2 with P[u, v] the joint probability of outcome u of mode 1
    and v of mode 2, each indexed k d + m (eigenvalue m of observable k),
    and T the ``dyad_estimates`` of each mode's pair table at every one of
    the L d outcomes.
    """
    from optomo.sampling import joint_outcome_table

    n = len(quorum) * quorum.dim
    prob = joint_outcome_table(branches, weights, quorum).transpose(
        0, 2, 1, 3).reshape(n, n)
    obs, out = np.divmod(np.arange(n), quorum.dim)
    t1 = quorum.dyad_estimates(out, obs, tables[0])
    t2 = quorum.dyad_estimates(out, obs, tables[1])
    return t1.T @ prob @ t2


def render_rows_by_entry(values, std_errors, order: int) -> str:
    """The matrix rows of a result document, one entry at a time.

    ``order`` is 2 for a pure estimate and 4 for a Choi one.  Each entry of
    the matrix, seen as an array of ``order`` equal axes, gives one line, in
    row-major order: its indices, then the real and imaginary parts as
    signed 10-significant-digit f-strings and the standard error to 3.
    """
    w1 = round(values.size ** (1.0 / order))
    shape = (w1,) * order
    vals = values.reshape(shape)
    errs = std_errors.reshape(shape)
    out = []
    for idx in np.ndindex(shape):
        v = vals[idx]
        out.append(f"{' '.join(map(str, idx))} {v.real:+.9e} {v.imag:+.9e} "
                   f"{errs[idx]:.2e}\n")
    return "".join(out)
