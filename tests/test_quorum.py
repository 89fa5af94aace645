import pathlib
import tracemalloc

import numpy as np
import pytest

from optomo import quorum
from optomo.errors import (
    IllConditionedKernelError,
    UnphysicalDeconvolutionError,
)
from optomo.fock import (
    SUPPORT_FLOOR,
    noise_sigma2,
    quadrature_wavefunctions,
    smeared_pair_table,
)
from optomo.maps import twin_beam
from optomo.quorum import (
    GridSpec,
    build_finite_quorum,
    build_homodyne_kernel,
)
from optomo.sampling import SampleBlock

from oracles import (
    homodyne_dyads_by_pairs,
    random_density,
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


# a grid wider than the densities, so the kernel's x is a cropped run
CACHE_ARGS = (12, 0.95, GridSpec(12.0))
CACHE_KEY = "v3|D12|eta0.95|hw12.0|dx0.01|idx4|ridge1e-10"
CACHE_NAME = "kernel-e90cf6c0b03c6a8c.npz"  # sha256(CACHE_KEY)[:16]
# (dim_cut, eta, half-width, max_index) of the kernels of the Fock-route
# Choi benchmark and of the Fig.-2 top and bottom (scaled) presets
CROPPED_KERNELS = [(48, 0.9, 36.0, 3), (48, 0.9, 36.0, 7), (32, 0.7, 24.0, 7)]


def _no_build(*args):
    raise AssertionError("kernel built although the cache holds it")


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
            build_homodyne_kernel(16, 0.5, GridSpec(12.0), max_index=8)

    def test_catastrophic_eta_trips_gate(self):
        with pytest.raises(IllConditionedKernelError) as err:
            build_homodyne_kernel(32, 0.505, GridSpec(12.0), max_index=16)
        assert err.value.delta >= 0

    def test_narrow_grid_trips_gate_naming_grid(self):
        # at dim_cut 16 and eta 0.9 a half-width of 6 passes the gate and one
        # of 2.5 cuts the smeared densities off: the message names the grid;
        # at half-width 12 a spacing of 0.2 passes and one of 0.5 is too
        # coarse (the densities sum to 1 only within 4.3e-2), and the
        # message names the spacing
        build_homodyne_kernel(16, 0.9, GridSpec(6.0), max_index=8)
        with pytest.raises(IllConditionedKernelError, match="grid_half_width"):
            build_homodyne_kernel(16, 0.9, GridSpec(2.5), max_index=8)
        build_homodyne_kernel(16, 0.9, GridSpec(12.0, 0.2), max_index=8)
        with pytest.raises(IllConditionedKernelError, match="grid_spacing"):
            build_homodyne_kernel(16, 0.9, GridSpec(12.0, 0.5), max_index=8)

    def test_grid_cutting_a_density_trips_gate(self):
        # the smeared density of |15> at eta 0.9 reaches past +-3, although
        # the constraints within the window can still be met on that grid
        with pytest.raises(IllConditionedKernelError, match="grid_half_width"):
            build_homodyne_kernel(16, 0.9, GridSpec(3.0), max_index=8)

    @pytest.mark.parametrize("dim_cut,eta,half_width,max_index",
                             CROPPED_KERNELS)
    def test_kernel_grid_is_the_density_support(self, dim_cut, eta,
                                                half_width, max_index):
        # x is one contiguous run of the grid's nodes, bitwise; the nodes
        # dropped on either side have an envelope sum_a Psi_a(sqrt(eta) x)^2
        # below the floor, and the run's end nodes are above it
        grid = GridSpec(half_width)
        kernel = build_homodyne_kernel(dim_cut, eta, grid, max_index)
        points = grid.points
        lo = int(np.flatnonzero(points == kernel.x[0])[0])
        hi = lo + kernel.x.size
        assert 0 < lo and hi < points.size
        assert np.array_equal(kernel.x, points[lo:hi])
        psi = wavefunctions_by_rows(dim_cut, np.sqrt(eta) * points)
        envelope = np.sum(psi**2, axis=0)
        floor = SUPPORT_FLOOR * envelope.max()
        dropped = np.concatenate([envelope[:lo], envelope[hi:]])
        assert np.all(dropped <= floor)
        assert envelope[lo] > floor and envelope[hi - 1] > floor
        for t in kernel.tables.values():
            assert t.shape[1] == kernel.x.size

    def test_dyads_beyond_the_support_are_negligible(self):
        # data far outside the densities (the grid reaches +-36) scores the
        # end node's value, about 1e-40 of the kernel's peak
        kernel = build_homodyne_kernel(48, 0.9, GridSpec(36.0), max_index=3)
        assert kernel.x[-1] < 30.0
        pairs = [(a, b) for a in range(4) for b in range(4)]
        e = kernel.dyad_estimates(np.array([-30.0, 30.0]),
                                  np.exp(1j * np.array([0.4, 2.3])),
                                  kernel.pair_table(pairs))
        peak = max(np.max(np.abs(t)) for t in kernel.tables.values())
        assert np.max(np.abs(e)) <= 1e-30 * peak

    @pytest.mark.parametrize("grid", [GridSpec(30.0, 30.0),
                                      GridSpec(0.004), GridSpec(1e3, 5e3)],
                             ids=["one-node-support", "one-node-grid",
                                  "no-node-support"])
    def test_support_below_two_nodes_trips_gate_naming_grid(self, grid):
        # linear interpolation needs two nodes: a grid with fewer under the
        # densities is a named kernel error, not an IndexError later
        with pytest.raises(IllConditionedKernelError, match="grid_half_width"):
            build_homodyne_kernel(8, 0.9, grid, max_index=2)

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        # the file stores the cropped nodes: a loaded kernel equals a fresh
        # build bitwise, its x included
        kernel = build_homodyne_kernel(*CACHE_ARGS, max_index=4)
        build_homodyne_kernel(*CACHE_ARGS, max_index=4, cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [CACHE_NAME]
        with np.load(tmp_path / CACHE_NAME) as z:
            assert str(z["key"]) == CACHE_KEY
            assert np.array_equal(z["x"], kernel.x)
        monkeypatch.setattr(quorum, "quadrature_wavefunctions", _no_build)
        loaded = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                       cache_dir=tmp_path)
        assert (loaded.grid, loaded.max_index) == (kernel.grid, 4)
        assert kernel.x.size < kernel.grid.points.size
        assert np.array_equal(loaded.x, kernel.x)
        for field in ("tables", "recovery"):
            got, want = getattr(loaded, field), getattr(kernel, field)
            assert sorted(got) == sorted(want) == list(range(5))
            for d in want:
                assert np.array_equal(got[d], want[d])

    def test_interrupted_save_leaves_no_file(self, tmp_path, monkeypatch):
        # a write interrupted half-way must leave nothing a later run could
        # load (or delete as corrupt) at the cache path; an interruption
        # that is not an OSError still ends the run
        def interrupted_savez(file, **arrays):
            file.write(b"PK\x03\x04 partial archive")
            file.flush()
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", interrupted_savez)
        with pytest.raises(KeyboardInterrupt):
            build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                  cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_returns_the_kernel(self, tmp_path, monkeypatch):
        # a full disk fails the save half-way: no file, no temporary file,
        # and the run goes on with the kernel it built
        def broken_savez(file, **arrays):
            file.write(b"PK\x03\x04 partial archive")
            file.flush()
            raise OSError("No space left on device")

        want = build_homodyne_kernel(*CACHE_ARGS, max_index=4)
        monkeypatch.setattr(np, "savez", broken_savez)
        kernel = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                       cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        for d in want.tables:
            assert np.array_equal(kernel.tables[d], want.tables[d])
            assert np.array_equal(kernel.recovery[d], want.recovery[d])

    def test_failed_load_rebuilds_without_deleting(self, tmp_path,
                                                   monkeypatch):
        # two runs that find the same stale file: the other run's recovery
        # may remove or replace it between this run's failed load and its own
        path = tmp_path / CACHE_NAME
        path.write_bytes(b"stale")

        def load_after_other_run(file, *args, **kwargs):
            pathlib.Path(file).unlink()
            raise ValueError("stale kernel cache file")

        monkeypatch.setattr(np, "load", load_after_other_run)
        kernel = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                       cache_dir=tmp_path)
        monkeypatch.undo()
        assert path.exists()
        with np.load(path) as z:
            assert np.array_equal(z["table_0"], kernel.tables[0])

    def test_cache_header_mismatch_rebuilds(self, tmp_path):
        # a file whose stored key is not the requested one is not used,
        # even under the requested key's name
        grid = GridSpec(8.0)
        other = tmp_path / "other"
        build_homodyne_kernel(12, 0.9, grid, max_index=4, cache_dir=other)
        (wrong,) = other.iterdir()
        want = build_homodyne_kernel(12, 0.8, grid, max_index=4,
                                     cache_dir=tmp_path / "want")
        (path,) = (tmp_path / "want").iterdir()
        wrong.replace(path)
        kernel = build_homodyne_kernel(12, 0.8, grid, max_index=4,
                                       cache_dir=tmp_path / "want")
        assert np.array_equal(kernel.tables[1], want.tables[1])
        with np.load(path) as z:
            assert str(z["key"]) == "v3|D12|eta0.8|hw8.0|dx0.01|idx4|ridge1e-10"
            assert np.array_equal(z["table_1"], want.tables[1])

    def test_keyless_file_rebuilds_and_is_replaced(self, tmp_path):
        # a file in the earlier format, a version and six parameter scalars
        # beside the arrays but no key, lies at the same path: it is rebuilt
        # and replaced, and its arrays (zeroed here) are never used
        want = build_homodyne_kernel(*CACHE_ARGS, max_index=4)
        arrays = {f"table_{d}": np.zeros_like(t)
                  for d, t in want.tables.items()}
        arrays.update({f"recovery_{d}": np.zeros_like(r)
                       for d, r in want.recovery.items()})
        path = tmp_path / CACHE_NAME
        np.savez(path, version=1, dim_cut=12, eta=0.95, half_width=12.0,
                 spacing=0.01, max_index=4, ridge=1e-10, **arrays)
        kernel = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                       cache_dir=tmp_path)
        assert np.array_equal(kernel.tables[2], want.tables[2])
        assert [p.name for p in tmp_path.iterdir()] == [CACHE_NAME]
        with np.load(path) as z:
            assert str(z["key"]) == CACHE_KEY
            assert "version" not in z.files
            for d in want.tables:
                assert np.array_equal(z[f"table_{d}"], want.tables[d])
                assert np.array_equal(z[f"recovery_{d}"], want.recovery[d])

    def test_first_version_file_rebuilds(self, tmp_path):
        # a file of cache version 1 (rows smeared by FFT convolution) or 2
        # (closed-form rows on the whole grid) at the requested path, holding
        # the key text of the same arguments, full-grid tables that differ by
        # roundoff and no stored x, is rebuilt, not loaded
        want = build_homodyne_kernel(*CACHE_ARGS, max_index=4)
        crop = np.flatnonzero(np.isin(want.grid.points, want.x))
        arrays = {}
        for d, t in want.tables.items():
            full = np.zeros((t.shape[0], want.grid.points.size))
            full[:, crop] = t * (1.0 + 1e-12)
            arrays[f"table_{d}"] = full
        arrays.update({f"recovery_{d}": r for d, r in want.recovery.items()})
        for version in ("v1|", "v2|"):
            np.savez(tmp_path / CACHE_NAME,
                     key=CACHE_KEY.replace("v3|", version, 1), **arrays)
            kernel = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                           cache_dir=tmp_path)
            assert np.array_equal(kernel.x, want.x)
            for d in want.tables:
                assert np.array_equal(kernel.tables[d], want.tables[d])
                assert np.array_equal(kernel.recovery[d], want.recovery[d])
            with np.load(tmp_path / CACHE_NAME) as z:
                assert str(z["key"]) == CACHE_KEY
                assert np.array_equal(z["x"], want.x)
                assert np.array_equal(z["table_3"], want.tables[3])

    def test_cache_dir_reuse_and_regeneration(self, tmp_path):
        k1 = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                   cache_dir=tmp_path)
        files = list(tmp_path.glob("kernel-*.npz"))
        assert len(files) == 1
        k2 = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                   cache_dir=tmp_path)
        assert np.array_equal(k1.tables[0], k2.tables[0])
        assert np.array_equal(k1.recovery[0], k2.recovery[0])
        files[0].write_bytes(b"corrupt")
        k3 = build_homodyne_kernel(*CACHE_ARGS, max_index=4,
                                   cache_dir=tmp_path)
        assert np.allclose(k1.tables[0], k3.tables[0])
        with np.load(files[0]) as z:
            assert str(z["key"]) == CACHE_KEY


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

    @pytest.mark.parametrize("eta", [0.55, 0.7, 0.9])
    @pytest.mark.parametrize("delta", [0, 7, 31])
    def test_smearing_as_fftconvolve(self, delta, eta):
        # the closed form against the pair products convolved with the
        # efficiency-noise Gaussian, on a grid that holds every smeared
        # density of dim_cut 32; offset 31 is a one-row table
        grid = GridSpec(12.0)
        psi = quadrature_wavefunctions(32, np.sqrt(eta) * grid.points)
        got = smeared_pair_table(psi, delta, eta)
        want = smeared_pairs_by_rows(32, delta, grid.points, grid.spacing,
                                     np.sqrt(noise_sigma2(eta)))
        assert got.shape == want.shape == (32 - delta, grid.points.size)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-10 * np.max(np.abs(want)))

    @pytest.mark.parametrize("eta", [0.55, 0.7, 0.9])
    def test_smeared_vacuum_is_gaussian(self, eta):
        # g_00 is the N(0, 1/4 + (1 - eta)/(4 eta)) = N(0, 1/(4 eta)) density
        x = GridSpec(6.0).points
        psi = quadrature_wavefunctions(12, np.sqrt(eta) * x)
        want = np.sqrt(2.0 * eta / np.pi) * np.exp(-2.0 * eta * x * x)
        np.testing.assert_allclose(smeared_pair_table(psi, 0, eta)[0], want,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("delta", [0, 3, 19])
    def test_unit_efficiency_rows_are_products(self, delta):
        # at eta = 1 the loss weights are the identity: nothing is smeared
        psi = quadrature_wavefunctions(20, GridSpec(10.0, 0.02).points)
        assert np.array_equal(smeared_pair_table(psi, delta, 1.0),
                              psi[: 20 - delta] * psi[delta:])

    @pytest.mark.parametrize("eta", [0.55, 0.7, 0.9, 1.0])
    def test_smeared_densities_sum_to_one(self, eta):
        grid = GridSpec(12.0)
        psi = quadrature_wavefunctions(32, np.sqrt(eta) * grid.points)
        sums = smeared_pair_table(psi, 0, eta).sum(axis=1) * grid.spacing
        np.testing.assert_allclose(sums, 1.0, rtol=0.0, atol=1e-12)

    def test_kernel_build_peak_allocation(self):
        # a kernel at the Fock-route Choi benchmark's size (dim_cut 48, eta
        # 0.9, +-36, n_max 3).  The bound is 12.04 MB plus 10%: the traced
        # peak of convolving one row per scipy.signal.fftconvolve call
        # (numpy 2.4, scipy 1.17).  The loss weights applied in place, eight
        # rows per product, peak at 9.51 MB on the whole grid (numpy 2.4)
        # and at 5.65 MB on the densities' support, where the full-grid
        # wavefunction table and its envelope are the largest arrays; one
        # product of the whole table, which holds a second one, peaks at
        # 11.64 MB.
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
        diag = np.diag(beam.psi).real
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
