import os
import tracemalloc

import numpy as np
import pytest

from optomo import quorum
from optomo.errors import (
    IllConditionedKernelError,
    UnphysicalDeconvolutionError,
)
from optomo.fock import (
    _fast_len,
    gaussian_filter_kernel,
    noise_sigma2,
    quadrature_wavefunctions,
    smeared_pair_table,
)
from optomo.maps import twin_beam
from optomo.quorum import (
    GridSpec,
    build_finite_quorum,
    build_homodyne_kernel,
    load_homodyne_kernel,
)
from optomo.sampling import SampleBlock

from oracles import (
    homodyne_dyads_by_pairs,
    random_density,
    smeared_pairs_by_chunks,
    smeared_pairs_by_rows,
    wavefunctions_by_rows,
)


class TestFiniteQuorum:
    def test_qubit_family(self):
        q = build_finite_quorum(2)
        assert len(q) == 4
        gram = np.einsum("iab,jab->ij", q.observables.conj(), q.observables)
        assert np.linalg.matrix_rank(gram, tol=1e-8) == 4

    def test_qutrit_span(self):
        q = build_finite_quorum(3)
        gram = np.einsum("iab,jab->ij", q.observables.conj(), q.observables)
        assert np.linalg.matrix_rank(gram, tol=1e-8) == 9

    def test_biorthogonality(self):
        for d in (2, 3, 4):
            q = build_finite_quorum(d)
            bio = np.einsum("iab,jab->ij", q.duals.conj(), q.observables)
            assert np.max(np.abs(bio - np.eye(d * d))) < 1e-10

    def test_observables_hermitian(self):
        q = build_finite_quorum(3)
        for o in q.observables:
            assert np.allclose(o, o.conj().T)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_single_mode_unbiasedness_brute_force(self, d, rng):
        # expectation of the dyad estimator over all outcomes = Tr[rho H],
        # enumerated outcome by outcome
        q = build_finite_quorum(d)
        rho = random_density(rng, d)
        pairs = [(a, b) for a in range(d) for b in range(d)]
        got = np.zeros(len(pairs), dtype=complex)
        for k in range(len(q)):
            evals, evecs = q.eigenvalues[k], q.eigenvectors[k]
            born = np.real(np.einsum("im,ij,jm->m", evecs.conj(), rho, evecs))
            for m in range(d):
                est = q.dyad_estimates(np.array([m]), np.array([k]),
                                       q.pair_table(pairs))[0]
                got += q.weights[k] * born[m] * est
        want = np.array([rho[b, a] for (a, b) in pairs])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_pair_sums_by_loops(self, rng):
        # the observable-pair sums R[k, l] add lambda_km1 / w_k x
        # lambda_lm2 / w_l sample by sample; block_sums with identity pair
        # tables is R itself
        q = build_finite_quorum(3)
        obs = rng.integers(0, len(q), (2, 300))
        out = rng.integers(0, q.dim, (2, 300))
        want = np.zeros((len(q), len(q)))
        for k, l, m1, m2 in zip(*obs, *out):
            want[k, l] += (q.eigenvalues[k, m1] / q.weights[k]
                           * q.eigenvalues[l, m2] / q.weights[l])
        shape = (len(q),) * 2 + (q.dim,) * 2
        cells = np.ravel_multi_index((*obs, *out), shape)
        eye = np.eye(len(q))
        got = q.block_sums(SampleBlock(0, np.ones(300, dtype=bool), (cells,)),
                           (eye, eye))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestGridSpec:
    def test_points_symmetric(self):
        g = GridSpec(2.0, 0.5)
        assert np.allclose(g.points, np.arange(-2.0, 2.25, 0.5))

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0)


@pytest.fixture(scope="module")
def kernel():
    return build_homodyne_kernel(16, 0.9, GridSpec(12.0), max_index=8)


class TestHomodyneKernel:

    def test_recovery_is_identity_on_window(self, kernel):
        for delta, rec in kernel.recovery.items():
            keep = rec.shape[1]
            assert np.max(np.abs(rec[:keep] - np.eye(keep))) < 5e-3

    def test_pattern_symmetric(self, kernel):
        assert np.array_equal(kernel.pattern(2, 5), kernel.pattern(5, 2))

    def test_pattern_tables_finite(self, kernel):
        for t in kernel.tables.values():
            assert np.all(np.isfinite(t))

    def test_dyad_estimates_phase_factor(self, kernel):
        x = np.array([0.3, -1.2])
        phi = np.array([0.7, 2.1])
        vals = kernel.dyad_estimates(
            x, np.exp(1j * phi), kernel.pair_table([(2, 0), (0, 2), (1, 1)]))
        f02 = np.interp(x, kernel.x, kernel.pattern(0, 2))
        assert np.allclose(vals[:, 0], f02 * np.exp(2j * phi))
        assert np.allclose(vals[:, 1], f02 * np.exp(-2j * phi))
        f11 = np.interp(x, kernel.x, kernel.pattern(1, 1))
        assert np.allclose(vals[:, 2], f11)

    @pytest.mark.parametrize("pairs", [
        [(2, i) for i in range(6)],  # pure mode 1, (i0, i): offsets 2..-3
        [(3, k) for k in range(9)],  # pure mode 2, (j0, k): offsets 3..-5
        [(l, i) for l in range(4) for i in range(4)],  # Choi mode 1, (l, i)
        [(a, b) for a in range(6) for b in range(6)],  # Choi mode 2, (a, b)
    ], ids=["pure-mode1", "pure-mode2", "choi-mode1", "choi-mode2"])
    def test_dyad_estimates_match_per_pair_oracle(self, kernel, rng, pairs):
        # x spans both grid ends (the clip path) and exact grid nodes
        x = np.concatenate([rng.uniform(-14.0, 14.0, 400),
                            kernel.x[[0, 1, 500, -2, -1]], [-30.0, 30.0]])
        phi = rng.uniform(0.0, 2.0 * np.pi, x.size)
        want = homodyne_dyads_by_pairs(kernel, x, phi, pairs)
        got = kernel.dyad_estimates(x, np.exp(1j * phi),
                                    kernel.pair_table(pairs))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_missing_row_raises(self, kernel):
        with pytest.raises(KeyError):
            kernel.pattern(0, 12)

    def test_eta_below_half_rejected(self):
        with pytest.raises(UnphysicalDeconvolutionError):
            build_homodyne_kernel(16, 0.5, GridSpec(12.0))

    def test_catastrophic_eta_trips_gate(self):
        with pytest.raises(IllConditionedKernelError) as err:
            build_homodyne_kernel(32, 0.505, GridSpec(12.0), max_index=16)
        assert err.value.delta >= 0

    def test_narrow_grid_trips_gate_naming_grid(self):
        # at dim_cut 16 and eta 0.9 a half-width of 6 passes the gate and one
        # of 2.5 cuts the pattern functions off: the message names the grid;
        # at half-width 12 a spacing of 0.2 passes and one of 0.5 is too
        # coarse (defect 0.63), and the message names the spacing
        build_homodyne_kernel(16, 0.9, GridSpec(6.0))
        with pytest.raises(IllConditionedKernelError, match="grid_half_width"):
            build_homodyne_kernel(16, 0.9, GridSpec(2.5))
        build_homodyne_kernel(16, 0.9, GridSpec(12.0, 0.2))
        with pytest.raises(IllConditionedKernelError, match="grid_spacing"):
            build_homodyne_kernel(16, 0.9, GridSpec(12.0, 0.5))

    def test_cache_roundtrip(self, kernel, tmp_path):
        kernel.save(tmp_path / "k.npz")
        loaded = load_homodyne_kernel(tmp_path / "k.npz")
        assert loaded.dim_cut == kernel.dim_cut
        assert loaded.eta == kernel.eta
        for d in kernel.tables:
            assert np.array_equal(loaded.tables[d], kernel.tables[d])

    def test_interrupted_save_leaves_no_file(self, kernel, tmp_path,
                                             monkeypatch):
        # a write that fails half-way must leave nothing a later run could
        # load (or delete as corrupt) at the cache path
        def broken_savez(file, **arrays):
            if isinstance(file, (str, bytes, os.PathLike)):
                file = open(file, "wb")
            file.write(b"PK\x03\x04 partial archive")
            file.flush()
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", broken_savez)
        target = tmp_path / f"kernel-{kernel.cache_key()}.npz"
        with pytest.raises(OSError, match="No space"):
            kernel.save(target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failed_load_rebuilds_without_deleting(self, tmp_path,
                                                   monkeypatch):
        # two runs that find the same stale file: the other run's recovery
        # may remove or replace it between this run's failed load and its own
        args = (12, 0.95, GridSpec(8.0))
        key = build_homodyne_kernel(*args, max_index=4).cache_key()
        path = tmp_path / f"kernel-{key}.npz"
        path.write_bytes(b"stale")

        def load_after_other_run(p):
            p.unlink()
            raise ValueError("kernel cache version mismatch")

        monkeypatch.setattr(quorum, "load_homodyne_kernel", load_after_other_run)
        kernel = build_homodyne_kernel(*args, max_index=4, cache_dir=tmp_path)
        assert path.exists()
        assert np.array_equal(load_homodyne_kernel(path).tables[0],
                              kernel.tables[0])

    def test_cache_header_mismatch_rebuilds(self, tmp_path):
        # a kernel whose header does not give the requested key is not used
        grid = GridSpec(8.0)
        wrong = build_homodyne_kernel(12, 0.9, grid, max_index=4)
        want_key = build_homodyne_kernel(12, 0.8, grid, max_index=4).cache_key()
        path = tmp_path / f"kernel-{want_key}.npz"
        wrong.save(path)
        kernel = build_homodyne_kernel(12, 0.8, grid, max_index=4,
                                       cache_dir=tmp_path)
        assert kernel.eta == 0.8
        assert load_homodyne_kernel(path).cache_key() == want_key

    def test_cache_dir_reuse_and_regeneration(self, tmp_path):
        k1 = build_homodyne_kernel(12, 0.95, GridSpec(8.0), max_index=4,
                                   cache_dir=tmp_path)
        files = list(tmp_path.glob("kernel-*.npz"))
        assert len(files) == 1
        k2 = build_homodyne_kernel(12, 0.95, GridSpec(8.0), max_index=4,
                                   cache_dir=tmp_path)
        assert np.array_equal(k1.tables[0], k2.tables[0])
        files[0].write_bytes(b"corrupt")
        k3 = build_homodyne_kernel(12, 0.95, GridSpec(8.0), max_index=4,
                                   cache_dir=tmp_path)
        assert np.allclose(k1.tables[0], k3.tables[0])


def phase_averaged_recovery(kernel, n, m, mean_of_phi, var, nphi=256):
    """Independent oracle: integrate f_nm against an exact Gaussian smeared
    quadrature law over the phase circle."""
    x = kernel.x
    dx = kernel.grid.spacing
    phis = np.arange(nphi) * 2 * np.pi / nphi
    f = kernel.pattern(n, m)
    acc = 0.0 + 0.0j
    for phi in phis:
        pdf = np.exp(-0.5 * (x - mean_of_phi(phi)) ** 2 / var) / np.sqrt(
            2 * np.pi * var)
        acc += np.exp(1j * (m - n) * phi) * np.sum(pdf * f) * dx
    return acc / nphi


class TestKernelCalibration:
    def test_vacuum_eta1(self):
        kernel = build_homodyne_kernel(16, 1.0, GridSpec(12.0), max_index=8)
        est = phase_averaged_recovery(kernel, 0, 0, lambda phi: 0.0, 0.25)
        assert abs(est - 1.0) < 1e-3

    def test_coherent_eta09(self):
        kernel = build_homodyne_kernel(16, 0.9, GridSpec(12.0), max_index=8)
        var = 0.25 + noise_sigma2(0.9)
        est = phase_averaged_recovery(
            kernel, 0, 1, lambda phi: np.cos(phi), var)
        assert abs(est - np.exp(-1.0)) < 1e-3

    def test_thermal_eta08(self):
        kernel = build_homodyne_kernel(16, 0.8, GridSpec(12.0), max_index=8)
        var = 0.75 + noise_sigma2(0.8)
        for n in range(6):
            est = phase_averaged_recovery(kernel, n, n, lambda phi: 0.0, var)
            assert abs(est - 0.5**(n + 1)) < 1e-3

    def test_eta_variance_monotonicity(self):
        # same data volume: lower efficiency costs estimator variance
        rng = np.random.default_rng(5)
        n = 20_000
        variances = {}
        for eta in (0.9, 0.7):
            kernel = build_homodyne_kernel(16, eta, GridSpec(12.0), max_index=8)
            sig = np.sqrt(noise_sigma2(eta))
            x = rng.standard_normal(n) * np.sqrt(0.25 + sig**2)
            vals = np.interp(x, kernel.x, kernel.pattern(2, 2))
            variances[eta] = float(np.var(vals))
        assert variances[0.7] > variances[0.9]


class TestFockBasisTables:
    @pytest.mark.parametrize("nmax", [1, 2, 48])
    @pytest.mark.parametrize("n_points", [0, 1, 214, 10**5])
    def test_wavefunctions_bitwise_as_row_recursion(self, nmax, n_points):
        x = np.linspace(-10.0, 10.0, n_points)
        assert np.array_equal(quadrature_wavefunctions(nmax, x),
                              wavefunctions_by_rows(nmax, x))

    @pytest.mark.parametrize("eta", [0.7, 0.9, 1.0])
    def test_kernel_bitwise_as_row_convolutions(self, eta, monkeypatch):
        # 20 rows at delta = 0 make two full chunks of convolved rows and a
        # part one; at eta = 1 the filter has one tap and nothing is
        # convolved
        grid = GridSpec(10.0)
        kernel = build_homodyne_kernel(20, eta, grid, max_index=4)
        monkeypatch.setattr(
            quorum, "smeared_pair_table",
            lambda psi, delta, dx, sigma: smeared_pairs_by_rows(
                psi.shape[0], delta, grid.points, dx, sigma))
        oracle = build_homodyne_kernel(20, eta, grid, max_index=4)
        assert sorted(kernel.tables) == sorted(oracle.tables) == list(range(5))
        for delta in oracle.tables:
            assert np.array_equal(kernel.tables[delta], oracle.tables[delta])
            assert np.array_equal(kernel.recovery[delta],
                                  oracle.recovery[delta])

    @pytest.mark.parametrize("dim_cut,delta,eta,half_width,spacing", [
        (6, 2, 0.55, 1.0, 0.01),   # 725 filter taps against 201 points
        (20, 19, 0.9, 10.0, 0.02),  # a one-row table
        (13, 0, 0.7, 10.0, 0.02),  # one full chunk and a part one
        (20, 7, 0.7, 10.0, 0.02),  # the same 13 rows at an offset
        (12, 3, 1.0, 10.0, 0.02),  # one tap: nothing is convolved
    ])
    def test_smearing_bitwise_as_fftconvolve(self, dim_cut, delta, eta,
                                             half_width, spacing):
        grid = GridSpec(half_width, spacing)
        psi = quadrature_wavefunctions(dim_cut, grid.points)
        sigma = np.sqrt(noise_sigma2(eta))
        if eta == 0.55:
            assert gaussian_filter_kernel(sigma, spacing).size == 725
            assert psi.shape[1] == 201
        got = smeared_pair_table(psi, delta, spacing, sigma)
        assert got.shape == (dim_cut - delta, psi.shape[1])
        assert np.array_equal(
            got, smeared_pairs_by_chunks(psi, delta, spacing, sigma))

    def test_fast_len_as_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        sizes = range(1, 5001)
        assert [_fast_len(n) for n in sizes] == [
            next_fast_len(n, True) for n in sizes]

    def test_smearing_one_point_grid(self):
        # on a one-point grid fftconvolve drops the length-1 axis and
        # multiplies by the filter's centre tap, while the FFT round trip
        # leaves roundoff of about 1e-18: compared to 1e-15, not bitwise.
        # No kernel build reaches this grid; its conditioning gate fires.
        psi = quadrature_wavefunctions(10, np.array([0.3]))
        sigma = np.sqrt(noise_sigma2(0.8))
        for delta in (0, 4, 9):
            np.testing.assert_allclose(
                smeared_pair_table(psi, delta, 0.02, sigma),
                smeared_pairs_by_chunks(psi, delta, 0.02, sigma),
                rtol=0.0, atol=1e-15)

    def test_kernel_build_peak_allocation(self):
        # a kernel at the Fock-route Choi benchmark's size (dim_cut 48, eta
        # 0.9, +-36, n_max 3).  The bound is 12.04 MB plus 10%: the traced
        # peak of convolving one row per scipy.signal.fftconvolve call
        # (numpy 2.4, scipy 1.17).  Eight rows per numpy.fft rfft/irfft
        # round trip, padded in one zeroed buffer per offset, peak at
        # 11.19 MB (numpy 2.4); one round trip for all rows of an offset
        # peaks at 17.50 MB.
        build_homodyne_kernel(8, 0.9, GridSpec(5.0), max_index=2)  # warm-up
        tracemalloc.start()
        try:
            build_homodyne_kernel(48, 0.9, GridSpec(36.0), max_index=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 12.04e6


class TestFig2BiasAudit:
    """Exact end-to-end bias of the homodyne chain at the experiment configs.

    Uses the kernel recovery matrices and the exact Fock representation of
    the displaced twin-beam; statistical errors at the acceptance sample
    sizes are ~3e-3 and larger, so the deterministic bias must sit well
    below that.
    """

    @pytest.mark.parametrize("nbar,eta,dim_cut", [(5.0, 0.9, 48), (3.0, 0.7, 32)])
    def test_chain_bias_small(self, nbar, eta, dim_cut):
        from optomo.maps import displacement_matrix
        from optomo.pipeline import displacement_theory

        n_max = 7
        kernel = build_homodyne_kernel(
            dim_cut, eta, GridSpec(6.0 * (1 + nbar)), max_index=n_max)
        beam = twin_beam(nbar, dim_cut)
        dop = displacement_matrix(1.0, dim_cut)
        phi = dop @ beam.psi  # unnormalised output, A_ij = phi_ij / psi_jj
        diag = beam.diagonal
        rec = kernel.recovery
        truth = displacement_theory(1.0, n_max)
        worst = 0.0
        for i in range(n_max + 1):
            for j in range(n_max + 1):
                d1, d2 = i, j  # kernel offsets |i - i0| and |j - j0|, i0 = j0 = 0
                # E[h1 h2] (times p): kernels pick joint elements with mode-1
                # pair (b + d1, b) and mode-2 pair (dd + d2, dd); the kernel
                # rows in use have lower index 0, i.e. recovery column 0
                val = 0.0 + 0.0j
                for b in range(dim_cut - d1):
                    c1 = rec[d1][b, 0]
                    if abs(c1) < 1e-14:
                        continue
                    for dd in range(dim_cut - d2):
                        c2 = rec[d2][dd, 0]
                        if abs(c2) < 1e-14:
                            continue
                        val += phi[b + d1, dd + d2] * np.conj(phi[b, dd]) * c1 * c2
                # kappa = p/|phi_00| over the unnormalised phi; E over the
                # normalised state divides by p, so A_hat = val / (|phi_00|
                # psi_jj) up to the reference phase
                a_hat = val * np.exp(1j * np.angle(phi[0, 0])) / (
                    abs(phi[0, 0]) * diag[j])
                worst = max(worst, abs(a_hat - truth[i, j]))
        assert worst < 5e-4
