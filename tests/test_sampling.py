import re

import numpy as np
import pytest
from oracles import outcome_table_by_loops, random_density

from optomo.bipartite import vec
from optomo.errors import NumericalPSDError, TruncationError
from optomo.quorum import build_finite_quorum
from optomo.sampling import (
    GaussianState,
    displaced_twinbeam_gaussian,
    draw_heralds,
    fock_tables,
    joint_outcome_table,
    sample_finite,
    sample_fock_general,
    sample_quadratures,
    substream,
    write_sample_dump,
    QuadratureBlock,
)


class TestGaussianState:
    def test_vacuum_ok(self):
        GaussianState(mean=np.zeros(4), cov=np.eye(4) / 4.0)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(mean=np.zeros(4), cov=np.eye(4) / 16.0)

    def test_asymmetric_rejected(self):
        cov = np.eye(4) / 4.0
        cov[0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(mean=np.zeros(4), cov=cov)


class TestDisplacedTwinBeam:
    def test_vacuum_case(self):
        st = displaced_twinbeam_gaussian(0.0, 0.0)
        assert np.allclose(st.mean, 0.0)
        assert np.allclose(st.cov, np.eye(4) / 4.0)

    def test_displacement_mean(self):
        # <D(z)^dag a D(z)> = a + z: X picks up Re z, P picks up Im z
        st = displaced_twinbeam_gaussian(1.0 + 0.5j, 0.0)
        assert np.allclose(st.mean, [1.0, 0.5, 0.0, 0.0])

    def test_thermal_marginal_variance(self):
        st = displaced_twinbeam_gaussian(0.0, 3.0)
        assert abs(st.cov[0, 0] - 7.0 / 4.0) < 1e-12
        assert abs(st.cov[2, 2] - 7.0 / 4.0) < 1e-12

    def test_pure_state_symplectic_eigenvalues(self):
        st = displaced_twinbeam_gaussian(0.0, 2.0)
        omega = np.zeros((4, 4))
        omega[0, 1] = omega[2, 3] = 1.0
        omega[1, 0] = omega[3, 2] = -1.0
        nus = np.abs(np.linalg.eigvals(1j * omega @ st.cov))
        assert np.allclose(nus, 0.25, atol=1e-10)

    def test_fock_moment_cross_check(self):
        # thermal marginal of the two-mode squeezed vacuum, checked against a
        # Fock-basis moment sum
        from optomo.maps import twin_beam

        nbar = 1.5
        st = displaced_twinbeam_gaussian(0.0, nbar)
        beam = twin_beam(nbar, 64, deficit_bound=1.0)
        probs = beam.diagonal**2
        fock_var = float(np.sum(probs * (2 * np.arange(64) + 1) / 4.0))
        assert abs(st.cov[0, 0] - fock_var) < 1e-8


class TestSampleQuadratures:
    def test_vacuum_variance(self):
        rng = substream(1, 0)
        st = displaced_twinbeam_gaussian(0.0, 0.0)
        _, _, x1, _ = sample_quadratures(st, 1.0, 10**6, rng)
        assert abs(np.var(x1) - 0.25) < 0.002

    def test_vacuum_variance_eta09(self):
        rng = substream(1, 1)
        st = displaced_twinbeam_gaussian(0.0, 0.0)
        _, _, x1, _ = sample_quadratures(st, 0.9, 10**6, rng)
        assert abs(np.var(x1) - 1.0 / 3.6) < 0.002

    def test_twin_beam_squeezing_fixed_phases(self):
        rng = substream(1, 2)
        st = displaced_twinbeam_gaussian(0.0, 3.0)
        _, _, x1, x2 = sample_quadratures(st, 1.0, 10**5, rng, phases=(0.0, 0.0))
        assert np.var(x1 - x2) < np.var(x1) + np.var(x2)
        # covariance oracle: var(x1 - x2) = 2v - 2c at phi1 = phi2 = 0
        v = (2 * 3.0 + 1) / 4.0
        c = np.sqrt(3.0 * 4.0) / 2.0
        assert abs(np.var(x1 - x2) - (2 * v - 2 * c)) < 0.01

    def test_first_moment_z_test(self):
        # mean of X_0 on the displaced state equals Re z (4 sigma z-test)
        n = 10**6
        rng = substream(1, 6)
        st = displaced_twinbeam_gaussian(1.0 + 0.5j, 0.0)
        _, _, x1, x2 = sample_quadratures(st, 1.0, n, rng, phases=(0.0, 0.0))
        tol = 4.0 * 0.5 / np.sqrt(n)
        assert abs(np.mean(x1) - 1.0) < tol
        assert abs(np.mean(x2) - 0.0) < tol

    def test_determinism_per_block(self):
        st = displaced_twinbeam_gaussian(1.0, 2.0)
        a = sample_quadratures(st, 0.9, 100, substream(7, 3))
        b = sample_quadratures(st, 0.9, 100, substream(7, 3))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = sample_quadratures(st, 0.9, 100, substream(7, 4))
        assert not np.array_equal(a[2], c[2])

    def test_phases_uniform_range(self):
        st = displaced_twinbeam_gaussian(0.0, 0.0)
        phi1, phi2, _, _ = sample_quadratures(st, 1.0, 10**4, substream(1, 5))
        assert phi1.min() >= 0.0 and phi1.max() < 2 * np.pi
        assert abs(np.mean(phi1) - np.pi) < 0.1


class TestSampleFockGeneral:
    def test_cross_sampler_vacuum(self):
        # product vacuum: Fock grid path vs Gaussian path moments
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[0, 0] = 1.0
        rng = substream(2, 0)
        p1, p2, x1, x2 = sample_fock_general(fock_tables(phi_out), 1.0, 10**5, rng)
        st = displaced_twinbeam_gaussian(0.0, 0.0)
        rng2 = substream(2, 1)
        _, _, y1, y2 = sample_quadratures(st, 1.0, 10**5, rng2)
        assert abs(np.var(x1) - np.var(y1)) < 0.01
        assert abs(np.mean(x1) - np.mean(y1)) < 0.01
        assert abs(np.var(x2) - np.var(y2)) < 0.01

    def test_maximally_entangled_qubit_moments(self):
        # marginal of vec(I/sqrt 2) is a 50/50 mix of |0> and |1>:
        # var = (1/4 + 3/4) / 2 = 1/2 per mode
        phi_out = np.eye(2, dtype=complex) / np.sqrt(2)
        _, _, x1, x2 = sample_fock_general(fock_tables(phi_out),
                                           1.0, 10**5, substream(2, 2))
        assert abs(np.var(x1) - 0.5) < 0.01
        assert abs(np.var(x2) - 0.5) < 0.01

    def test_fock_one_variance(self):
        # |1> (x) vacuum: x1 density 4 x^2 sqrt(2/pi) e^{-2x^2}, var 3/4
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[1, 0] = 1.0
        _, _, x1, x2 = sample_fock_general(fock_tables(phi_out),
                                           1.0, 10**5, substream(2, 3))
        assert abs(np.var(x1) - 0.75) < 0.01
        assert abs(np.var(x2) - 0.25) < 0.01

    def test_eta_noise_added(self):
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[0, 0] = 1.0
        _, _, x1, _ = sample_fock_general(fock_tables(phi_out),
                                          0.7, 10**5, substream(2, 4))
        assert abs(np.var(x1) - 1.0 / 2.8) < 0.01

    def test_truncation_deficit_rejected(self):
        bad = np.eye(2, dtype=complex)  # norm sqrt(2), deficit huge
        with pytest.raises(TruncationError):
            sample_fock_general(fock_tables(bad), 1.0, 10, substream(2, 5))

    def test_coarse_grid_vacuum_mean_unbiased(self):
        # 256 nodes at d = 2 give cells of width 0.053: a sampler that puts
        # each cell's mass beside its node instead of around it shifts the
        # mean by half a cell, about 17 standard errors at this size
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[0, 0] = 1.0
        n = 10**5
        tables = fock_tables(phi_out, n_points=256)
        _, _, x1, x2 = sample_fock_general(tables, 1.0, n, substream(2, 6))
        tol = 4.0 * 0.5 / np.sqrt(n)
        assert abs(np.mean(x1)) < tol
        assert abs(np.mean(x2)) < tol

    def test_twin_beam_moments_at_fig2_dimensions(self):
        # normalised twin beam truncated at d = 48 (nbar = 5): the x1 variance
        # and the phase-weighted correlation E[x1 x2 cos(phi1 + phi2)] against
        # Fock sums of the same truncated state.  Both quadratures have zero
        # mean, so the variance is E[x1^2].
        from optomo.maps import twin_beam

        nbar, d, n = 5.0, 48, 5 * 10**4
        c = twin_beam(nbar, d).diagonal
        c = c / np.linalg.norm(c)
        k = np.arange(d)
        var_fock = float(np.sum(c**2 * (2 * k + 1)) / 4.0)
        corr_fock = float(np.sum(k[1:] * c[1:] * c[:-1]) / 4.0)
        # 4 sigma bounds from the Gaussian moments of the untruncated beam:
        # var(x^2) = 2 v^2, var(x1 x2 cos) = (v^2 + c12^2) / 2
        v = (2.0 * nbar + 1.0) / 4.0
        c12 = np.sqrt(nbar * (nbar + 1.0)) / 2.0
        tol_var = 4.0 * np.sqrt(2.0 * v**2 / n)
        tol_corr = 4.0 * np.sqrt((v**2 + c12**2) / (2.0 * n))
        phi_out = np.diag(c).astype(complex)
        p1, p2, x1, x2 = sample_fock_general(fock_tables(phi_out), 1.0, n,
                                             substream(2, 7))
        assert abs(np.mean(x1**2) - var_fock) < tol_var
        assert abs(np.mean(x1 * x2 * np.cos(p1 + p2)) - corr_fock) < tol_corr


class TestSampleFinite:
    def test_maximally_entangled_sigma_z_correlations(self):
        q = build_finite_quorum(2)
        v = vec(np.eye(2) / np.sqrt(2))
        r = np.outer(v, v.conj())
        table = joint_outcome_table(r, q)
        obs1, obs2, out1, out2 = sample_finite(table, 20_000, substream(3, 0))
        zz = (obs1 == 3) & (obs2 == 3)  # observable 3 is sigma_z
        assert zz.sum() > 500
        assert np.all(out1[zz] == out2[zz])
        frac_plus = np.mean(out1[zz] == 1)
        assert abs(frac_plus - 0.5) < 0.05

    def test_product_ground_state(self):
        q = build_finite_quorum(2)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00| with (0,0) = Fock-like ground pair
        table = joint_outcome_table(rho, q)
        obs1, obs2, out1, out2 = sample_finite(table, 5_000, substream(3, 1))
        zz = (obs1 == 3) & (obs2 == 3)
        # sigma_z eigenvalues sorted ascending: index 1 is the +1 outcome |0>
        assert np.all(out1[zz] == 1) and np.all(out2[zz] == 1)

    def test_outcome_table_normalised(self, rng):
        q = build_finite_quorum(3)
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        r = g @ g.conj().T
        table = joint_outcome_table(r, q)
        assert abs(table.sum() - 1.0) < 1e-12
        assert table.min() >= 0.0

    def test_outcome_table_matches_loop_oracle(self, rng):
        q = build_finite_quorum(3)
        rho = random_density(rng, 9)
        table = joint_outcome_table(rho, q)
        assert np.max(np.abs(table - outcome_table_by_loops(rho, q))) < 1e-14

    def test_negative_probability_rejected(self):
        q = build_finite_quorum(2)
        bad = np.diag([1.0, 0.5, -0.2, 0.1])
        with pytest.raises(NumericalPSDError,
                           match=re.escape("for observables (0, 0)")):
            joint_outcome_table(bad, q)

    def test_negative_probability_names_ordered_pair(self):
        # I/4 + sigma_x (x) sigma_y / 2 is negative only for sigma_x (1) on
        # mode 1 with sigma_y (2) on mode 2
        q = build_finite_quorum(2)
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        bad = np.eye(4) / 4 + 0.5 * np.kron(sx, sy)
        with pytest.raises(NumericalPSDError,
                           match=re.escape("for observables (1, 2)")):
            joint_outcome_table(bad, q)


class TestHeralds:
    def test_unitary_always_true(self):
        h = draw_heralds(1.0, 1000, substream(4, 0))
        assert h.all()

    def test_projector_frequency(self):
        # p = 1/2 for |0><0| on the maximally entangled qubit pair
        h = draw_heralds(0.5, 10**5, substream(4, 1))
        sigma = np.sqrt(0.25 / 10**5)
        assert abs(h.mean() - 0.5) < 3 * sigma

    def test_scalar_contraction_frequency(self):
        # A = 0.5 I occurs with probability 0.25
        h = draw_heralds(0.25, 10**5, substream(4, 2))
        sigma = np.sqrt(0.25 * 0.75 / 10**5)
        assert abs(h.mean() - 0.25) < 3 * sigma

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            draw_heralds(1.5, 10, substream(4, 3))


class TestSampleDump:
    def test_format(self, tmp_path):
        blk = QuadratureBlock(
            block_id=3,
            phi1=np.array([0.1, 0.2]),
            phi2=np.array([1.0, 2.0]),
            x1=np.array([0.123456789123, -1.0]),
            x2=np.array([0.5, 0.25]),
            herald=np.array([True, False]),
        )
        path = tmp_path / "dump.csv"
        write_sample_dump(path, [blk])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3
        fields = lines[1].split(", ")
        assert fields[0] == "3" and fields[5] == "1"
        assert fields[3] == "0.123456789"  # 9 significant digits
        assert lines[2].split(", ")[5] == "0"
