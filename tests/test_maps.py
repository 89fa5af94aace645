import warnings

import numpy as np
import pytest

from optomo.bipartite import hs_norm, inverse, phase_align, vec
from optomo.config import ExperimentConfig
from optomo.errors import AnnihilatingOperationError, NotCompletelyPositiveError
from optomo.maps import (
    DISPLACEMENT_GUARD,
    ChoiMatrix,
    KrausMap,
    apply_kraus_bipartite,
    apply_pure,
    choi_to_kraus,
    displacement_matrix,
    kraus_to_choi,
    map_from_choi,
    output_branches,
    twin_beam,
)
from optomo.estimation import exact_choi_estimate
from optomo.pipeline import displacement_theory, run_simulate
from optomo.quorum import build_finite_quorum

from oracles import (
    displacement_by_expm,
    displacement_element,
    random_contraction,
    random_density,
    random_invertible_state,
    random_kraus_map,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTypes:
    def test_contraction_accepted(self, rng):
        KrausMap((random_contraction(rng, 3),))

    def test_contraction_rejected(self):
        # a pure operation is the one-operator map: ||A|| > 1 fails its bound
        with pytest.raises(ValueError, match="exceeds identity"):
            apply_pure(1.5 * np.eye(2), np.eye(2) / np.sqrt(2))

    def test_kraus_bound_rejected(self):
        with pytest.raises(ValueError, match="exceeds identity"):
            KrausMap((np.eye(2), np.eye(2)))

    def test_kraus_trace_preserving_accepted(self, rng):
        KrausMap(tuple(random_kraus_map(rng, 3, trace_preserving=True)))

    def test_choi_rejects_negative(self):
        r = np.diag([1.0, -0.1, 0.0, 0.0])
        with pytest.raises(NotCompletelyPositiveError):
            ChoiMatrix(r)

    def test_choi_rejects_nonhermitian(self):
        r = np.eye(4, dtype=complex)
        r[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            ChoiMatrix(r)


class TestApplyPure:
    def test_identity(self, rng):
        psi = random_invertible_state(rng, 3)
        phi, p = apply_pure(np.eye(3), psi)
        assert np.allclose(phi, psi) and abs(p - 1.0) < 1e-12

    def test_projector_on_maximally_entangled(self):
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 1.0
        phi, p = apply_pure(proj, np.eye(2) / np.sqrt(2))
        assert abs(p - 0.5) < 1e-12
        assert np.allclose(phi, proj)

    def test_displacement_on_twin_beam_probability(self):
        # p -> 1 (exact unitarity) as the cutoff grows; at dim_cut = 16 the
        # twin-beam truncation deficit alone is (5/6)^16 ~ 5e-2, so the 1e-3
        # bound is only reachable at the policy cutoff 48 (oracle: exact norm
        # at the larger cutoff)
        beam16 = twin_beam(5.0, 16)
        m16 = displacement_matrix(1.0, 16)
        _, p16 = apply_pure(m16 / max(1.0, np.linalg.norm(m16, 2)),
                            beam16.psi)
        beam48 = twin_beam(5.0, 48)
        m48 = displacement_matrix(1.0, 48)
        _, p48 = apply_pure(m48 / max(1.0, np.linalg.norm(m48, 2)),
                            beam48.psi)
        assert abs(p48 - 1.0) < 1e-3
        assert abs(p48 - 1.0) < abs(p16 - 1.0)

    def test_annihilating(self):
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 1.0
        psi = np.zeros((2, 2), dtype=complex)
        psi[1, 1] = 1.0
        with pytest.raises(AnnihilatingOperationError):
            apply_pure(proj, psi)


def reconstruct_from_branch(a, psi):
    """A = phi psi^{-1} sqrt(p) from the one output branch phi, of weight p,
    of the one-operator map (a,)."""
    (phi,), (p,) = output_branches(KrausMap((a,)), psi)
    return phi @ inverse(psi) * np.sqrt(p)


class TestReconstructPure:
    def test_identity_roundtrip(self, rng):
        psi = random_invertible_state(rng, 3)
        assert np.allclose(reconstruct_from_branch(np.eye(3), psi), np.eye(3),
                           atol=1e-10)

    def test_random_roundtrip(self, rng):
        for _ in range(10):
            a = random_contraction(rng, 4)
            psi = random_invertible_state(rng, 4)
            _, dist = phase_align(a, reconstruct_from_branch(a, psi))
            assert dist < 1e-10

    def test_twin_beam_window(self):
        # reconstruction agrees inside the window; doubled cutoff as oracle
        beam = twin_beam(3.0, 16)
        a_rec = reconstruct_from_branch(displacement_matrix(1.0, 16), beam.psi)
        beam2 = twin_beam(3.0, 32)
        a_rec2 = reconstruct_from_branch(displacement_matrix(1.0, 32), beam2.psi)
        win = np.s_[:9, :9]
        phase, _ = phase_align(a_rec2[win], a_rec[win])
        assert np.max(np.abs(a_rec2[win] - phase * a_rec[win])) < 1e-6


class TestKrausBipartite:
    def test_single_identity(self):
        psi = np.eye(2) / np.sqrt(2)
        r = apply_kraus_bipartite(KrausMap((np.eye(2),)), psi)
        v = vec(psi)
        assert np.allclose(r, np.outer(v, v.conj()))
        assert abs(np.trace(r) - 1.0) < 1e-12

    def test_two_kraus_direct_construction(self):
        psi = np.eye(2) / np.sqrt(2)
        ks = (np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * SX)
        r = apply_kraus_bipartite(KrausMap(ks), psi)
        direct = sum(
            np.outer(vec(k @ psi), vec(k @ psi).conj()) for k in ks
        )
        assert np.allclose(r, direct)
        assert abs(np.trace(r) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(r, tol=1e-10) == 2

    def test_trace_decreasing_scalar(self):
        psi = np.eye(2) / np.sqrt(2)
        r = apply_kraus_bipartite(KrausMap((0.5 * np.eye(2),)), psi)
        assert abs(np.trace(r) - 0.25) < 1e-12

    def test_requires_normalised_entangler(self):
        with pytest.raises(ValueError, match="normalis"):
            apply_kraus_bipartite(KrausMap((np.eye(2),)), np.eye(2))

    def test_pure_map_special_case(self, rng):
        a = random_contraction(rng, 3)
        psi = random_invertible_state(rng, 3)
        r = apply_kraus_bipartite(KrausMap((a,)), psi)
        v = vec(a @ psi)
        assert np.allclose(r, np.outer(v, v.conj()), atol=1e-12)
        _, p = apply_pure(a, psi)
        assert abs(np.trace(r).real - p) < 1e-12


class TestOutputBranches:
    def test_branches_mix_into_bipartite_output(self, rng):
        kmap = KrausMap(tuple(random_kraus_map(rng, 3, n_ops=3)))
        psi = random_invertible_state(rng, 3)
        branches, weights = output_branches(kmap, psi)
        r = sum(w * np.outer(vec(b), vec(b).conj())
                for b, w in zip(branches, weights))
        assert np.max(np.abs(r - apply_kraus_bipartite(kmap, psi))) < 1e-14
        assert all(abs(hs_norm(b) - 1.0) < 1e-14 for b in branches)

    def test_zero_branch_dropped(self):
        # K_1 annihilates the |0>-only entangler, so only K_0 psi remains
        psi = np.diag([1.0, 0.0]).astype(complex)
        proj1 = np.diag([0.0, 1.0]).astype(complex)
        branches, weights = output_branches(
            KrausMap((np.sqrt(0.5) * np.eye(2), proj1 / 2)), psi)
        assert len(branches) == 1
        assert abs(weights[0] - 0.5) < 1e-15


class TestChoi:
    # R(psi) normalised to R(I) by the exact Choi chain over the output branches
    def test_normalize_identity_map(self):
        psi = np.eye(2) / np.sqrt(2)
        choi = exact_choi_estimate(*output_branches(KrausMap((np.eye(2),)), psi),
                                   psi, build_finite_quorum(2))
        v = vec(np.eye(2))
        assert np.allclose(choi, np.outer(v, v.conj()), atol=1e-10)
        assert abs(np.trace(choi) - 2.0) < 1e-10

    def test_normalize_matches_direct_on_twin_beam(self, rng):
        beam = twin_beam(1.0, 6)
        psi = beam.psi / hs_norm(beam.psi)
        kmap = KrausMap(tuple(random_kraus_map(rng, 6)))
        choi = exact_choi_estimate(*output_branches(kmap, psi), psi,
                                   build_finite_quorum(6))
        direct = kraus_to_choi(kmap).matrix
        d = 6
        win = np.array([i * d + j for i in range(5) for j in range(5)])
        diff = np.max(np.abs(choi[np.ix_(win, win)] - direct[np.ix_(win, win)]))
        assert diff < 1e-8

    def test_map_from_choi_identity(self, rng):
        v = vec(np.eye(3))
        choi = ChoiMatrix(np.outer(v, v.conj()))
        rho = random_density(rng, 3)
        assert np.allclose(map_from_choi(choi, rho), rho, atol=1e-12)

    def test_map_from_choi_matches_kraus(self, rng):
        ks = random_kraus_map(rng, 3)
        kmap = KrausMap(tuple(ks))
        choi = kraus_to_choi(kmap)
        for _ in range(5):
            rho = random_density(rng, 3)
            assert np.allclose(map_from_choi(choi, rho), kmap.apply(rho), atol=1e-12)

    def test_trace_preserving_output_trace(self, rng):
        ks = random_kraus_map(rng, 3, trace_preserving=True)
        choi = kraus_to_choi(KrausMap(tuple(ks)))
        out = map_from_choi(choi, np.eye(3) / 3.0)
        assert abs(np.trace(out) - 1.0) < 1e-10

    def test_identity_channel_eigenvalues(self):
        choi = kraus_to_choi(KrausMap((np.eye(2),)))
        evals = np.sort(np.linalg.eigvalsh(choi.matrix))
        assert np.allclose(evals, [0, 0, 0, 2], atol=1e-12)

    def test_choi_to_kraus_roundtrip_action(self, rng):
        kmap = KrausMap(tuple(random_kraus_map(rng, 3)))
        back = choi_to_kraus(kraus_to_choi(kmap))
        for _ in range(20):
            rho = random_density(rng, 3)
            assert np.max(np.abs(back.apply(rho) - kmap.apply(rho))) < 1e-10

    def test_choi_positivity_invariant(self, rng):
        for _ in range(5):
            kmap = KrausMap(tuple(random_kraus_map(rng, 3)))
            r = kraus_to_choi(kmap).matrix
            assert np.linalg.eigvalsh(r)[0] >= -1e-8 * 3

    def test_trace_decreasing_invariant(self, rng):
        for _ in range(5):
            kmap = KrausMap(tuple(random_kraus_map(rng, 3)))
            rho = random_density(rng, 3)
            assert np.trace(kmap.apply(rho)).real <= 1.0 + 1e-10


class TestDisplacement:
    def test_zero_is_identity(self):
        op = displacement_matrix(0.0, 8)
        assert np.allclose(op, np.eye(8), atol=1e-12)

    def test_vacuum_element(self):
        op = displacement_matrix(1.0, 16)
        assert abs(op[0, 0] - np.exp(-0.5)) < 1e-9

    def test_diagonal_matches_laguerre(self):
        op = displacement_matrix(1.0, 24)
        for n in range(9):
            assert abs(op[n, n] - displacement_element(n, n, 1.0)) < 1e-6

    def test_offdiagonal_matches_laguerre(self):
        op = displacement_matrix(0.7 + 0.3j, 24)
        for m in range(8):
            for n in range(8):
                assert abs(op[m, n] - displacement_element(m, n, 0.7 + 0.3j)) < 1e-6

    @pytest.mark.parametrize("dim_cut", [8, 32, 48])
    @pytest.mark.parametrize("z", [1.0, 1.0 + 0.5j, 2.0])
    def test_matches_expm_of_truncated_generator(self, dim_cut, z):
        # the same truncated generator, exponentiated by scipy's expm
        np.testing.assert_allclose(
            displacement_matrix(z, dim_cut),
            displacement_by_expm(z, dim_cut, DISPLACEMENT_GUARD),
            rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("dim_cut", [8, 12, 16, 24, 32, 48])
    def test_window_is_the_closed_form_wherever_validate_accepts(self,
                                                                 dim_cut):
        # every |z| < sqrt(dim_cut) is accepted, up to the edge: the guard
        # band must keep the cropped operator exact on the default window,
        # where D(z)|n> spreads furthest past dim_cut
        for frac in (0.5, 0.9, 0.97, 0.9999):
            for phase in (1.0, np.exp(0.7j)):
                z = frac * np.sqrt(dim_cut) * phase
                cfg = ExperimentConfig(z=z, nbar=0.5, dim_cut=dim_cut,
                                       route="fock")
                cfg.validate()
                w = cfg.n_max + 1
                np.testing.assert_allclose(
                    displacement_matrix(z, dim_cut)[:w, :w],
                    displacement_theory(z, cfg.n_max), rtol=0.0, atol=1e-12)

    def test_unitarity_inner_block(self):
        # cropping loses column norm where D(z)|n> spreads past dim_cut, so
        # near-exact unitarity holds only well inside; the margin needed grows
        # like sqrt(2n+1)|z|, and the quarter block is comfortably inside at
        # |z| = 1
        op = displacement_matrix(1.0, 24)
        gram = op.conj().T @ op
        inner = 24 // 4
        assert np.max(np.abs(gram[:inner, :inner] - np.eye(inner))) < 1e-6


class TestTwinBeam:
    def test_vacuum(self):
        beam = twin_beam(0.0, 4)
        assert np.allclose(beam.psi, np.diag([1, 0, 0, 0]))
        assert beam.deficit == 0.0

    def test_nbar3_parameters(self):
        beam = twin_beam(3.0, 32)
        lam2 = 3.0 / 4.0
        assert abs(np.diag(beam.psi).real[0] - np.sqrt(1 - lam2)) < 1e-12
        assert abs(np.diag(beam.psi).real[0] - 0.5) < 1e-12
        ratios = np.diag(beam.psi).real[1:] / np.diag(beam.psi).real[:-1]
        assert np.allclose(ratios, np.sqrt(lam2))

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 3.0])
    def test_reduced_mean_photon(self, nbar):
        dim = int(16 * (nbar + 1))
        beam = twin_beam(nbar, dim)
        probs = np.diag(beam.psi).real**2
        mean_photon = float(np.sum(np.arange(dim) * probs))
        assert abs(mean_photon - nbar) < 1e-6

    def test_reduced_state_is_thermal(self):
        beam = twin_beam(2.0, 48)
        lam2 = 2.0 / 3.0
        probs = np.diag(beam.psi).real**2
        assert np.allclose(probs, (1 - lam2) * lam2 ** np.arange(48), atol=1e-12)

    def test_deficit_warning(self):
        # the beam records its deficit and warns about nothing; a dry run of
        # a radiation-route config with that deficit, in the band between
        # the 1e-3 warning and the 1e-2 gate, warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beam = twin_beam(5.0, 30)
        assert beam.deficit == (5.0 / 6.0) ** 30
        cfg = ExperimentConfig(z=0.5 + 0.0j, nbar=5.0, dim_cut=30, n_max=3)
        with pytest.warns(UserWarning, match=r"^twin-beam truncation deficit "
                          r"4\.213e-03 above bound 1e-03; increase dim_cut$"):
            run_simulate(cfg, dry_run=True)
