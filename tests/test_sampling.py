import tracemalloc

import numpy as np
import pytest
from oracles import (
    cell_inverse,
    eigen_branches,
    fock_conditional_cdf,
    fock_draw_by_batches,
    fock_marginal_cdf,
    hermite_functions,
    loss_kraus,
    outcome_table_by_loops,
    random_density,
)

from optomo import sampling
from optomo.bipartite import vec
from optomo.quorum import build_finite_quorum
from optomo.sampling import (
    FOCK_BATCH,
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
    SampleBlock,
    _fock_draw,
)


class TestDisplacedTwinBeam:
    def test_vacuum_case(self):
        st = displaced_twinbeam_gaussian(0.0, 0.0)
        assert st == GaussianState(mean=0j, v1=0.25, v2=0.25, c=0.0)

    def test_displacement_mean(self):
        # <D(z)^dag a D(z)> = a + z: X picks up Re z, P picks up Im z
        st = displaced_twinbeam_gaussian(1.0 + 0.5j, 0.0)
        assert st.mean == 1.0 + 0.5j

    def test_thermal_marginal_variance(self):
        st = displaced_twinbeam_gaussian(0.0, 3.0)
        assert abs(st.v1 - 7.0 / 4.0) < 1e-12
        assert abs(st.v2 - 7.0 / 4.0) < 1e-12

    def test_pure_state_symplectic_eigenvalues(self):
        # both symplectic eigenvalues of the phase-symmetric covariance are
        # sqrt(v1 v2 - c^2) when v1 = v2; a pure state has 1/4
        st = displaced_twinbeam_gaussian(0.0, 2.0)
        assert abs(st.v1 * st.v2 - st.c**2 - 1.0 / 16.0) < 1e-12

    def test_fock_moment_cross_check(self):
        # thermal marginal of the two-mode squeezed vacuum, checked against a
        # Fock-basis moment sum
        from optomo.maps import twin_beam

        nbar = 1.5
        st = displaced_twinbeam_gaussian(0.0, nbar)
        beam = twin_beam(nbar, 64)
        probs = np.diag(beam.psi).real**2
        fock_var = float(np.sum(probs * (2 * np.arange(64) + 1) / 4.0))
        assert abs(st.v1 - fock_var) < 1e-8


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
        e1, e2, _, _ = sample_quadratures(st, 1.0, 10**4, substream(1, 5))
        assert np.max(np.abs(np.abs(e1) - 1.0)) < 1e-15
        phi1 = np.angle(e1) % (2 * np.pi)
        assert phi1.min() >= 0.0 and phi1.max() < 2 * np.pi
        assert abs(np.mean(phi1) - np.pi) < 0.1

    @pytest.mark.parametrize("eta, generic", [
        pytest.param(1.0, False, id="1.0"),
        pytest.param(0.7, False, id="0.7"),
        pytest.param(1.0, True, id="generic-1.0"),
        pytest.param(0.7, True, id="generic-0.7")])
    def test_phasors_and_quadratures_from_redrawn_stream(self, eta, generic):
        # the phasors are np.cos / np.sin of the phases the substream draws
        # first, bitwise; the quadratures are the closed forms of the
        # phase-symmetric law on the two normals drawn next, bitwise, and
        # lie within 1e-12 of the general quadratic forms of the 4x4
        # covariance over (X1, P1, X2, P2) plus the detector variance
        # (1 - eta)/(4 eta) on every quadrature.  The twin beam has v1 = v2,
        # so a formula that reads the wrong variance passes on it; the
        # generic state has Re mean, Im mean, v1, v2 and c all distinct.
        if generic:
            st = GaussianState(mean=0.8 - 0.35j, v1=0.9, v2=1.3, c=0.4)
        else:
            st = displaced_twinbeam_gaussian(1.0 + 0.3j, 3.0)
        n = 5000
        e1, e2, x1, x2 = sample_quadratures(st, eta, n, substream(9, 4))
        rng = substream(9, 4)
        phi1 = rng.uniform(0.0, 2.0 * np.pi, n)
        phi2 = rng.uniform(0.0, 2.0 * np.pi, n)
        z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
        c1, s1, c2, s2 = np.cos(phi1), np.sin(phi1), np.cos(phi2), np.sin(phi2)
        for got, want in ((e1.real, c1), (e1.imag, s1), (e2.real, c2),
                          (e2.imag, s2)):
            assert np.array_equal(got, want)
        sn2 = (1.0 - eta) / (4.0 * eta)
        w1, w2 = st.v1 + sn2, st.v2 + sn2
        cov12 = st.c * (c1 * c2 - s1 * s2)
        y1 = c1 * st.mean.real + s1 * st.mean.imag + np.sqrt(w1) * z1
        y2 = ((cov12 / np.sqrt(w1)) * z1
              + np.sqrt(np.maximum(w2 - cov12**2 / w1, 0.0)) * z2)
        assert np.array_equal(x1, y1)
        assert np.array_equal(x2, y2)
        v = np.array([[st.v1, 0.0, st.c, 0.0],
                      [0.0, st.v1, 0.0, -st.c],
                      [st.c, 0.0, st.v2, 0.0],
                      [0.0, -st.c, 0.0, st.v2]]) + sn2 * np.eye(4)
        mu = [st.mean.real, st.mean.imag, 0.0, 0.0]
        m1 = c1 * mu[0] + s1 * mu[1]
        m2 = c2 * mu[2] + s2 * mu[3]
        v11 = c1 * c1 * v[0, 0] + 2 * c1 * s1 * v[0, 1] + s1 * s1 * v[1, 1]
        v22 = c2 * c2 * v[2, 2] + 2 * c2 * s2 * v[2, 3] + s2 * s2 * v[3, 3]
        v12 = (c1 * c2 * v[0, 2] + c1 * s2 * v[0, 3]
               + s1 * c2 * v[1, 2] + s1 * s2 * v[1, 3])
        g1 = m1 + np.sqrt(v11) * z1
        g2 = (m2 + (v12 / np.sqrt(v11)) * z1
              + np.sqrt(np.maximum(v22 - v12**2 / v11, 0.0)) * z2)
        assert np.max(np.abs(x1 - g1)) <= 1e-12
        assert np.max(np.abs(x2 - g2)) <= 1e-12

    def test_draws_two_uniforms_and_two_normals_per_trial(self):
        # the stream moves by exactly the documented draws: two phases (none
        # when fixed), then two standard normals per trial
        st = GaussianState(mean=0.8 - 0.35j, v1=0.9, v2=1.3, c=0.4)
        n = 777
        for phases, n_uniform in ((None, 2), ((0.3, 1.1), 0)):
            rng = substream(9, 4)
            sample_quadratures(st, 0.7, n, rng, phases=phases)
            ref = substream(9, 4)
            for _ in range(n_uniform):
                ref.uniform(0.0, 2.0 * np.pi, n)
            ref.standard_normal(n)
            ref.standard_normal(n)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_detected_moments_under_loss(self):
        # at eta < 1 the detected variances are v + (1 - eta)/(4 eta) and
        # the covariance at phi1 = phi2 = 0 is c; 4 sigma z-tests, each with
        # its own standard error: w sqrt(2/n) for a variance and
        # sqrt((w1 w2 + c^2)/n) for the covariance of a bivariate normal
        n, eta = 10**6, 0.7
        st = displaced_twinbeam_gaussian(0.0, 3.0)
        _, _, x1, x2 = sample_quadratures(st, eta, n, substream(1, 7),
                                          phases=(0.0, 0.0))
        sn2 = (1.0 - eta) / (4.0 * eta)
        w1, w2 = st.v1 + sn2, st.v2 + sn2
        for x, w in ((x1, w1), (x2, w2)):
            assert abs(np.var(x) - w) < 4.0 * w * np.sqrt(2.0 / n)
        cov = np.mean((x1 - x1.mean()) * (x2 - x2.mean()))
        assert abs(cov - st.c) < 4.0 * np.sqrt((w1 * w2 + st.c**2) / n)


class TestSampleFockGeneral:
    def test_cross_sampler_vacuum(self):
        # product vacuum: Fock grid path vs Gaussian path moments
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[0, 0] = 1.0
        rng = substream(2, 0)
        p1, p2, x1, x2 = sample_fock_general(
            fock_tables([phi_out], [1.0]), 1.0, 10**5, rng)
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
        _, _, x1, x2 = sample_fock_general(
            fock_tables([phi_out], [1.0]), 1.0, 10**5,
            substream(2, 2))
        assert abs(np.var(x1) - 0.5) < 0.01
        assert abs(np.var(x2) - 0.5) < 0.01

    def test_fock_one_variance(self):
        # |1> (x) vacuum: x1 density 4 x^2 sqrt(2/pi) e^{-2x^2}, var 3/4
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[1, 0] = 1.0
        _, _, x1, x2 = sample_fock_general(
            fock_tables([phi_out], [1.0]), 1.0, 10**5,
            substream(2, 3))
        assert abs(np.var(x1) - 0.75) < 0.01
        assert abs(np.var(x2) - 0.25) < 0.01

    def test_eta_noise_added(self):
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[0, 0] = 1.0
        _, _, x1, _ = sample_fock_general(
            fock_tables([phi_out], [1.0]), 0.7, 10**5,
            substream(2, 4))
        assert abs(np.var(x1) - 1.0 / 2.8) < 0.01

    def test_branch_scale_does_not_change_draws(self):
        # x1 and x2 are drawn against each row's own total mass, so branches
        # of any norm are sampled alike; a factor of 2 is exact in binary,
        # so the columns are bitwise equal
        from optomo.maps import KrausMap, output_branches, twin_beam

        kmap = KrausMap(tuple(loss_kraus(0.7, 12, 1)))
        branches, weights = output_branches(kmap, twin_beam(1.0, 12).psi)
        assert len(branches) == 2
        want = sample_fock_general(fock_tables(branches, weights), 0.9, 600,
                                   substream(2, 5))
        got = sample_fock_general(
            fock_tables([2.0 * b for b in branches], weights), 0.9, 600,
            substream(2, 5))
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)

    def test_coarse_grid_vacuum_mean_unbiased(self, monkeypatch):
        # 256 nodes at d = 2 give cells of width 0.053: a sampler that puts
        # each cell's mass beside its node instead of around it shifts the
        # mean by half a cell, about 17 standard errors at this size
        monkeypatch.setattr(sampling, "FOCK_GRID_POINTS", 256)
        phi_out = np.zeros((2, 2), dtype=complex)
        phi_out[0, 0] = 1.0
        n = 10**5
        tables = fock_tables([phi_out], [1.0])
        assert tables.x.size <= 256
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
        c = np.diag(twin_beam(nbar, d).psi).real
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
        e1, e2, x1, x2 = sample_fock_general(
            fock_tables([phi_out], [1.0]), 1.0, n,
            substream(2, 7))
        cos12 = np.real(e1 * e2)  # cos(phi1 + phi2)
        assert abs(np.mean(x1**2) - var_fock) < tol_var
        assert abs(np.mean(x1 * x2 * cos12) - corr_fock) < tol_corr

    def test_loss_channel_moments_at_fig2_dimensions(self):
        # mode 1 of a twin beam (nbar = 5, d = 48) through the bosonic loss
        # channel, tau = 0.7, Kraus operators A_0..A_24: the output is
        # Gaussian, with mode-1 variance tau v + (1 - tau) / 4, mode-2
        # variance v and cross term sqrt(tau) c12 (v = (2 nbar + 1) / 4,
        # c12 = sqrt(nbar (nbar + 1)) / 2), so that at eta = 1
        # var x1 = 2.0, var x2 = 2.75 and E[x1 x2 cos(phi1 + phi2)] =
        # sqrt(tau) c12 / 2.  A map that removes at most one photon gives
        # var x1 near 2.45.  The Gaussian sampler on that output is checked
        # against the same closed forms and against the Fock sampler.
        from optomo.maps import KrausMap, output_branches, twin_beam

        nbar, d, tau, n = 5.0, 48, 0.7, 15 * 10**4
        branches, weights = output_branches(
            KrausMap(tuple(loss_kraus(tau, d, 24))), twin_beam(nbar, d).psi)
        fock = sample_fock_general(
            fock_tables(branches, weights), 1.0, n,
            substream(6, 0))
        # the same output as a GaussianState: mode-1 variance tau v +
        # (1 - tau) / 4, correlation sqrt(tau) c, mode-2 variance v
        v = (2.0 * nbar + 1.0) / 4.0
        c = np.sqrt(nbar * (nbar + 1.0)) / 2.0
        gauss = sample_quadratures(
            GaussianState(0j, tau * v + (1.0 - tau) / 4.0, v,
                          np.sqrt(tau) * c),
            1.0, n, substream(6, 2))
        v1, v2 = 2.0, 2.75
        c12 = np.sqrt(tau * nbar * (nbar + 1.0)) / 2.0

        def moments(e1, e2, x1, x2):
            return (np.mean(x1**2), np.mean(x2**2),
                    np.mean(x1 * x2 * np.real(e1 * e2)))

        # 4 sigma: var(x^2) = 2 v^2, var(x1 x2 cos) = (v1 v2 + c12^2) / 2;
        # the two samplers differ by 4 combined standard errors at most
        for got_f, got_g, want, var in zip(
                moments(*fock), moments(*gauss), (v1, v2, c12 / 2.0),
                (2.0 * v1**2, 2.0 * v2**2, (v1 * v2 + c12**2) / 2.0)):
            assert abs(got_f - want) < 4.0 * np.sqrt(var / n)
            assert abs(got_g - want) < 4.0 * np.sqrt(var / n)
            assert abs(got_f - got_g) < 4.0 * np.sqrt(2.0 * var / n)

    def test_phasors_are_exp_of_redrawn_phases(self):
        # two branches and a branch with two batches: the phasors are
        # np.exp(1j * phi) of the phases the documented draw order gives
        d, n = 3, FOCK_BATCH + 300
        branches = [np.eye(d, dtype=complex) / np.sqrt(d),
                    np.diag([1.0, 0.0, 0.0]).astype(complex)]
        weights = [0.7, 0.3]
        tables = fock_tables(branches, weights)
        e1, e2, _, _ = sample_fock_general(tables, 0.9, n, substream(6, 1))
        rng = substream(6, 1)
        branch_idx = rng.choice(2, size=n, p=tables.weights)
        phi1, phi2 = np.empty(n), np.empty(n)
        for branch in range(2):
            sel = np.flatnonzero(branch_idx == branch)
            for lo in range(0, sel.size, FOCK_BATCH):
                at = sel[lo:lo + FOCK_BATCH]
                phi1[at] = rng.uniform(0.0, 2.0 * np.pi, at.size)
                phi2[at] = rng.uniform(0.0, 2.0 * np.pi, at.size)
                rng.random(at.size)  # u1, u2
                rng.random(at.size)
                rng.standard_normal(at.size)  # noise1, noise2
                rng.standard_normal(at.size)
        assert np.count_nonzero(branch_idx == 0) > FOCK_BATCH
        assert np.array_equal(e1, np.exp(1j * phi1))
        assert np.array_equal(e2, np.exp(1j * phi2))


class TestFockBlockDraw:
    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_batch_oracle(self, d):
        # three branches of a dimension-d output, the last with weight 0:
        # the first spans several batches and ends with a partial one, the
        # last has no sample.  d = 4 is the first dimension at which
        # e^{3i phi} tells the recurrence from squaring.  The phasors are
        # equal bit for bit; the quadratures move by the roundoff of the
        # rotations' recurrence.
        rng = np.random.default_rng(17)
        n = 3 * FOCK_BATCH + 300
        branches = []
        for _ in range(3):
            phi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            branches.append(phi / np.linalg.norm(phi))
        tables = fock_tables(branches, [0.6, 0.4, 0.0])
        got = sample_fock_general(tables, 0.9, n, substream(8, 2))
        expect = fock_draw_by_batches(tables, 0.9, n, substream(8, 2))
        branch_idx = substream(8, 2).choice(3, size=n, p=tables.weights)
        first = np.count_nonzero(branch_idx == 0)
        assert first > 2 * FOCK_BATCH and first % FOCK_BATCH > 0
        assert np.count_nonzero(branch_idx == 2) == 0
        assert np.array_equal(got[0], expect[0])
        assert np.array_equal(got[1], expect[1])
        assert np.max(np.abs(got[2] - expect[2])) <= 1e-12
        assert np.max(np.abs(got[3] - expect[3])) <= 1e-12

    def test_no_samples(self):
        tables = fock_tables([np.eye(3, dtype=complex) / np.sqrt(3)], [1.0])
        e1, e2, x1, x2 = sample_fock_general(tables, 0.9, 0, substream(8, 3))
        assert e1.shape == e2.shape == x1.shape == x2.shape == (0,)
        assert e1.dtype == complex and x1.dtype == float

    def test_block_peak_allocation(self):
        # a 20,000-sample block of a two-branch d = 48 output.  Each batch
        # of one branch is turned into quadratures before the next is
        # drawn, so only one batch's tables are alive: the traced peak is
        # 4.06 MB (numpy 2.4), against 26.3 MB when the whole block's
        # draws were made first and turned 2048 samples at a time.
        rng = np.random.default_rng(48)
        branches = []
        for _ in range(2):
            phi = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
            branches.append(phi / np.linalg.norm(phi))
        tables = fock_tables(branches, [0.7, 0.3])
        sample_fock_general(tables, 0.9, 300, substream(1, 0))  # warm-up
        tracemalloc.start()
        try:
            sample_fock_general(tables, 0.9, 20_000, substream(1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestFockX1Draw:
    @pytest.mark.parametrize("d", [2, 12, 48])
    def test_matches_full_grid_oracle(self, d):
        # the two-level x1 draw against a full-grid running sum of the
        # mode-1 marginal inverted one sample at a time, for the same phases
        # and uniforms.  The targets and the bound follow TestFockX2Draw:
        # of every three targets one is drawn uniformly, one lies in the
        # first block and one in the highest block that holds at least 2e-6
        # of the mass, keeping 1e-6 of the mass above it.  At d = 48 that
        # block is the last one, whose tail is zero-padded.
        rng = np.random.default_rng(300 + d)
        phi_out = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        phi_out /= np.linalg.norm(phi_out)
        tables = fock_tables([phi_out], [1.0])
        n = 1200
        p1 = rng.uniform(0.0, 2.0 * np.pi, n)
        p2 = rng.uniform(0.0, 2.0 * np.pi, n)
        v = rng.random(n)
        u2 = rng.random(n)
        psi_grid = hermite_functions(d, tables.x)
        starts = np.arange(tables.n_blocks) * tables.block
        u1 = v.copy()
        expect = np.empty(n)
        top_block = np.empty(n, dtype=int)
        for lo in range(0, n, 20):
            cdfs = fock_marginal_cdf(phi_out, psi_grid, p1[lo:lo + 20])
            for r, cdf in enumerate(cdfs, start=lo):
                below = np.concatenate([[0.0], cdf[starts[1:] - 1]]) / cdf[-1]
                top_block[r] = np.flatnonzero(1.0 - below >= 2e-6)[-1]
                if r % 3 == 1:
                    u1[r] = v[r] * below[1]
                elif r % 3 == 2:
                    f = below[top_block[r]]
                    u1[r] = f + (1.0 - 1e-6 - f) * v[r]
                expect[r] = cell_inverse(tables.x, cdf, u1[r])
        _, _, xs1, _ = _fock_draw(tables, 0, p1, p2, u1, u2)
        assert np.max(np.abs(xs1 - expect)) < 1e-9
        dx = tables.x[1] - tables.x[0]
        cell = np.floor((xs1 - tables.x[0]) / dx + 0.5).astype(int)
        assert np.all(cell[1::3] < tables.block)
        assert np.all(cell[2::3] >= starts[top_block[2::3]])
        if d == 48:
            assert tables.n_blocks * tables.block > tables.x.size
            assert np.all(top_block[2::3] == tables.n_blocks - 1)
        assert np.all(xs1 >= tables.x[0] - dx / 2)
        assert np.all(xs1 <= tables.x[-1] + dx / 2)


class TestFockX2Draw:
    @pytest.mark.parametrize("d", [2, 12, 48])
    def test_matches_full_grid_oracle(self, d):
        # the two-level x2 draw against a full-grid running sum inverted one
        # sample at a time, for the same phases and uniforms.  Of every
        # three targets one is drawn uniformly, one lies in the first block
        # and one in the highest block that holds at least 2e-6 of the mass:
        # at d = 48 that is mostly the last block, whose tail is
        # zero-padded; at d = 2 and 12 the last blocks hold less than 1e-30.
        # Those targets keep 1e-6 of the mass above them: two float64 sums
        # of the same density differ by ~1e-15 of the total, which moves a
        # draw by dx 1e-15 / (mass of its cell), about 1e-10 at 1e-6 from
        # the top and more closer to it.
        rng = np.random.default_rng(100 + d)
        phi_out = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        phi_out /= np.linalg.norm(phi_out)
        tables = fock_tables([phi_out], [1.0])
        n = 10**4
        p1 = rng.uniform(0.0, 2.0 * np.pi, n)
        p2 = rng.uniform(0.0, 2.0 * np.pi, n)
        u1 = rng.random(n)
        v = rng.random(n)
        _, _, xs1, _ = _fock_draw(tables, 0, p1, p2, u1, v)  # no u2 in x1
        psi_grid = hermite_functions(d, tables.x)
        starts = np.arange(tables.n_blocks) * tables.block
        u2 = v.copy()
        expect = np.empty(n)
        top_block = np.empty(n, dtype=int)
        for lo in range(0, n, 500):
            cdfs = fock_conditional_cdf(phi_out, psi_grid, xs1[lo:lo + 500],
                                        p1[lo:lo + 500], p2[lo:lo + 500])
            for r, cdf in enumerate(cdfs, start=lo):
                below = np.concatenate([[0.0], cdf[starts[1:] - 1]]) / cdf[-1]
                top_block[r] = np.flatnonzero(1.0 - below >= 2e-6)[-1]
                if r % 3 == 1:
                    u2[r] = v[r] * below[1]
                elif r % 3 == 2:
                    f = below[top_block[r]]
                    u2[r] = f + (1.0 - 1e-6 - f) * v[r]
                expect[r] = cell_inverse(tables.x, cdf, u2[r])
        *_, xs2 = _fock_draw(tables, 0, p1, p2, u1, u2)
        assert np.max(np.abs(xs2 - expect)) < 1e-9
        dx = tables.x[1] - tables.x[0]
        cell = np.floor((xs2 - tables.x[0]) / dx + 0.5).astype(int)
        assert np.all(cell[1::3] < tables.block)
        assert np.all(cell[2::3] >= starts[top_block[2::3]])
        if d == 48:
            assert tables.n_blocks * tables.block > tables.x.size
            assert np.mean(top_block[2::3] == tables.n_blocks - 1) > 0.5
        assert np.all(xs2 >= tables.x[0] - dx / 2)
        assert np.all(xs2 <= tables.x[-1] + dx / 2)


class TestSampleFinite:
    def test_maximally_entangled_sigma_z_correlations(self):
        q = build_finite_quorum(2)
        table = joint_outcome_table([np.eye(2) / np.sqrt(2)], [1.0], q)
        (cells,) = sample_finite(np.cumsum(table), 20_000, substream(3, 0))
        obs1, obs2, out1, out2 = np.unravel_index(cells, table.shape)
        zz = (obs1 == 3) & (obs2 == 3)  # observable 3 is sigma_z
        assert zz.sum() > 500
        assert np.all(out1[zz] == out2[zz])
        frac_plus = np.mean(out1[zz] == 1)
        assert abs(frac_plus - 0.5) < 0.05

    def test_product_ground_state(self):
        q = build_finite_quorum(2)
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0  # |00> with (0,0) = Fock-like ground pair
        table = joint_outcome_table([ground], [1.0], q)
        (cells,) = sample_finite(np.cumsum(table), 5_000, substream(3, 1))
        obs1, obs2, out1, out2 = np.unravel_index(cells, table.shape)
        zz = (obs1 == 3) & (obs2 == 3)
        # sigma_z eigenvalues sorted ascending: index 1 is the +1 outcome |0>
        assert np.all(out1[zz] == 1) and np.all(out2[zz] == 1)

    @staticmethod
    def _unsorted_flat_draws(table, n, stream):
        """Flat table indices of a search on the cumsum of the table itself,
        one uniform per sample in stream order."""
        cdf = np.cumsum(table)
        u = stream.random(n)
        return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"),
                          cdf.size - 1)

    def test_draws_match_cumsum_search_on_fixed_stream(self, rng):
        # the running sum is built once per run by the caller; the draws
        # are those of a search on the cumsum of the table itself, in
        # table order
        q = build_finite_quorum(3)
        table = joint_outcome_table(*eigen_branches(random_density(rng, 9)), q)
        got = sample_finite(np.cumsum(table), 10_000, substream(5, 2))
        flat = self._unsorted_flat_draws(table, 10_000, substream(5, 2))
        assert len(got) == 1
        assert np.array_equal(got[0], np.sort(flat))

    def test_sorted_draws_keep_the_joint_counts(self, rng):
        # d = 6: a 46,656-entry table; sorting the uniforms reorders a
        # block's samples but keeps the multiset of its (obs1, obs2, out1,
        # out2) rows, all that its observable-pair sums depend on
        q = build_finite_quorum(6)
        table = joint_outcome_table(*eigen_branches(random_density(rng, 36)), q)
        cdf = np.cumsum(table)
        for block_id in (0, 1, 7, 123):
            (flat,) = sample_finite(cdf, 17_000, substream(8, block_id))
            assert np.all(np.diff(flat) >= 0)
            got = np.stack(np.unravel_index(flat, table.shape))
            want = np.stack(np.unravel_index(self._unsorted_flat_draws(
                table, 17_000, substream(8, block_id)), table.shape))
            rows, counts = np.unique(got, axis=1, return_counts=True)
            want_rows, want_counts = np.unique(want, axis=1,
                                               return_counts=True)
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(counts, want_counts)

    def test_outcome_table_normalised(self, rng):
        q = build_finite_quorum(3)
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        table = joint_outcome_table(*eigen_branches(g @ g.conj().T), q)
        assert abs(table.sum() - 1.0) < 1e-12
        assert table.min() >= 0.0

    def test_outcome_table_matches_loop_oracle(self, rng):
        q = build_finite_quorum(3)
        rho = random_density(rng, 9)
        table = joint_outcome_table(*eigen_branches(rho), q)
        assert np.max(np.abs(table - outcome_table_by_loops(rho, q))) < 1e-14

    def test_branch_mixture_matches_loop_oracle(self, rng):
        # three non-orthogonal branches with unnormalised weights; the
        # oracle sees only the density matrix they mix into
        q = build_finite_quorum(3)
        branches = []
        for _ in range(3):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            branches.append(g / np.linalg.norm(g))
        weights = [0.5, 0.2, 0.1]
        r = sum(w * np.outer(vec(b), vec(b).conj())
                for b, w in zip(branches, weights))
        table = joint_outcome_table(branches, weights, q)
        assert np.max(np.abs(table - outcome_table_by_loops(r, q))) < 1e-14


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

    def test_probability_just_above_one_rejected(self):
        # the occurrence probability reaches here clamped to [0, 1], so no
        # rounding slack above 1 is accepted
        with pytest.raises(ValueError, match="outside"):
            draw_heralds(1.0 + 1e-13, 10, substream(4, 3))


class TestSampleDump:
    def test_format(self, tmp_path):
        blk = SampleBlock(
            block_id=3,
            herald=np.array([True, False]),
            columns=(np.array([0.1]), np.array([1.0]),
                     np.array([0.123456789123]), np.array([0.5])),
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
