from dataclasses import replace

import numpy as np
import pytest

from optomo import estimation
from optomo.bipartite import phase_align, vec
from optomo.config import ExperimentConfig
from optomo.errors import NonInvertibleEntanglerError, ReferenceTooSmallError
from optomo.estimation import (
    BlockAccumulator,
    MatrixEstimate,
    accumulate_choi,
    accumulate_pure,
    align_to_truth,
    exact_finite_joint,
    exact_pure_estimate,
    finalize_choi,
    finalize_pure,
    mode2_combination,
    phase_fix,
    select_reference,
)
from optomo.maps import (
    KrausMap,
    PureOperation,
    apply_pure,
    displacement_matrix,
    output_branches,
    twin_beam,
)
from optomo.quorum import GridSpec, build_finite_quorum, build_homodyne_kernel
from optomo.pipeline import _heralded_block
from optomo.sampling import (
    SampleBlock,
    displaced_twinbeam_gaussian,
    joint_outcome_table,
    sample_finite,
    sample_quadratures,
    substream,
)

from oracles import depolarizing_choi, per_sample_sums, random_contraction


def make_finite_blocks(branches, weights, quorum, n_blocks, per_block, seed,
                       p_occ=1.0):
    """Finite-route blocks through the pipeline's heralded-block sampler,
    drawn from the outcome law of the output ``branches`` and ``weights``."""
    table = joint_outcome_table(branches, weights, quorum)
    cum_table = np.cumsum(table).reshape(table.shape)
    cfg = ExperimentConfig(samples_per_block=per_block, master_seed=seed)
    draw = lambda n, rng: sample_finite(cum_table, n, rng)
    return [_heralded_block(cfg, p_occ, b, draw) for b in range(n_blocks)]


class TestChunkedAccumulation:
    """A block is reduced in chunks of DYAD_CHUNK heralded samples, or on a
    finite quorum through its joint outcome counts once the samples
    outnumber the dense work; either way the sums must match the one-shot
    per-sample sums of the whole block."""

    CHUNK = estimation.DYAD_CHUNK

    @pytest.fixture(scope="class")
    def kernel(self):
        return build_homodyne_kernel(8, 0.9, GridSpec(8.0), max_index=3)

    def _block(self, name, backend, n_heralded, seed):
        # n_heralded samples among n_heralded + 3 trials
        rng = np.random.default_rng(seed)
        n = n_heralded + 3
        if name == "homodyne":
            state = displaced_twinbeam_gaussian(0.5 + 0.2j, 1.0)
            cols = sample_quadratures(state, 0.9, n, rng)
        else:
            psi = twin_beam(1.0, 4, deficit_bound=1.0).psi
            table = joint_outcome_table([psi / np.linalg.norm(psi)], [1.0],
                                        backend)
            cols = sample_finite(np.cumsum(table).reshape(table.shape), n, rng)
        herald = np.ones(n, dtype=bool)
        herald[[0, n // 2, n - 1]] = False
        return SampleBlock(0, herald, *(c[herald] for c in cols))

    @staticmethod
    def _accumulate(kind, blk, coef, backend):
        if kind == "pure":
            terms = estimation._pure_terms(coef, 1, 0)
            return terms, accumulate_pure([blk], coef, 1, 0, backend)
        terms = estimation._choi_terms(coef)
        return terms, accumulate_choi([blk], coef, backend)

    @pytest.mark.parametrize("n_heralded",
                             [1, CHUNK - 1, CHUNK, int(2.5 * CHUNK)])
    @pytest.mark.parametrize("name", ["homodyne", "finite"])
    @pytest.mark.parametrize("kind", ["pure", "choi"])
    def test_chunk_sums_match_one_shot(self, kernel, name, kind, n_heralded):
        backend = kernel if name == "homodyne" else build_finite_quorum(4)
        psi = twin_beam(1.0, 4, deficit_bound=1.0).psi
        coef, _ = mode2_combination(psi, 2, 3)
        blk = self._block(name, backend, n_heralded, 5)
        terms, acc = self._accumulate(kind, blk, coef, backend)
        want, want_den = per_sample_sums(backend, blk, terms)
        # a finite block is reduced through its counts when (L d)^2 = 4096
        # <= n (P1 + P2), with P1 + P2 = 7 (pure) or 25 (Choi): every n > 1
        counts = name == "finite" and n_heralded > 1
        assert bool(getattr(backend, "_alphabet_tables", {})) == counts
        assert acc.n_heralded[0] == n_heralded
        if n_heralded <= self.CHUNK and not counts:
            # one chunk, per sample: the one-shot arithmetic
            assert np.array_equal(acc.est_sums[0], want)
            assert acc.den_sums[0] == want_den
        else:
            scale = np.max(np.abs(want))
            assert np.max(np.abs(acc.est_sums[0] - want)) <= 1e-12 * scale
            assert abs(acc.den_sums[0] - want_den) <= 1e-12 * abs(want_den)

    @pytest.mark.parametrize("kind", ["pure", "choi"])
    def test_large_alphabet_small_block_stays_per_sample(self, kind):
        # d = 12: (L d)^2 = 1728^2 outnumbers 500 samples x (P1 + P2) pairs,
        # so the block is reduced per sample, exactly as the one-shot sums
        q = build_finite_quorum(12)
        rng = np.random.default_rng(9)
        obs = rng.integers(0, len(q), (2, 500))
        out = rng.integers(0, q.dim, (2, 500))
        blk = SampleBlock(0, np.ones(500, dtype=bool), *obs, *out)
        psi = twin_beam(1.0, 12, deficit_bound=1.0).psi
        coef, _ = mode2_combination(psi, 11, 11)
        terms, acc = self._accumulate(kind, blk, coef, q)
        want, want_den = per_sample_sums(q, blk, terms)
        assert q._alphabet_tables == {}
        assert np.array_equal(acc.est_sums[0], want)
        assert acc.den_sums[0] == want_den


class TestMode2Combination:
    def test_maximally_entangled_single_term(self):
        d = 4
        psi = np.eye(d) / np.sqrt(d)
        coef, deficit = mode2_combination(psi, d - 1, d - 1)
        for j in range(d):
            expect = np.zeros(d)
            expect[j] = np.sqrt(d)
            assert np.allclose(coef[:, j], expect, atol=1e-12)
        assert deficit == 0.0

    def test_twin_beam_diagonal_coefficient(self):
        beam = twin_beam(3.0, 16, deficit_bound=1.0)
        coef, _ = mode2_combination(beam.psi, 5, 15)
        for j in range(6):
            assert abs(coef[j, j] - 2.0 * (4.0 / 3.0) ** (j / 2.0)) < 1e-10
            off = np.delete(coef[:, j], j)
            assert np.max(np.abs(off)) < 1e-14

    def test_truncation_deficit_reported(self, rng):
        psi = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        psi = psi / np.linalg.norm(psi)
        coef, deficit = mode2_combination(psi, 0, 2)
        assert 0.0 < deficit < 1.0
        assert coef[:, 0].size == 3

    def test_singular_entangler_propagates(self):
        psi = np.diag([1.0, 0.0])
        with pytest.raises(NonInvertibleEntanglerError):
            mode2_combination(psi, 0, 1)


class TestBlockAccumulator:
    def test_merge_disjoint(self):
        a = BlockAccumulator([2], 3 * np.ones((1, 2, 2)), [3.0], [10], [10])
        b = BlockAccumulator([0], np.ones((1, 2, 2)), [1.0], [10], [10])
        c = BlockAccumulator([1], 2 * np.ones((1, 2, 2)), [2.0], [10], [10])
        merged = a.merge(b, c)
        assert merged.block_ids.tolist() == [0, 1, 2]
        assert merged.den_sums.tolist() == [1.0, 2.0, 3.0]
        assert merged.est_sums[:, 0, 0].tolist() == [1.0, 2.0, 3.0]
        assert (merged.n_heralded.sum(), merged.n_trials.sum()) == (30, 30)

    def test_merge_overlap_rejected(self):
        a = BlockAccumulator([0], np.ones((1, 2, 2)), [1.0], [10], [10])
        b = BlockAccumulator([0], np.ones((1, 2, 2)), [1.0], [10], [10])
        with pytest.raises(ValueError, match="more than once"):
            a.merge(b)

    def test_duplicate_block_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            BlockAccumulator([0, 0], np.ones((2, 2, 2)), [1.0, 1.0],
                             [10, 10], [10, 10])

    def test_block_means_ordered_and_skip_empty(self):
        a = BlockAccumulator([1, 0, 2], [[[4.0]], [[2.0]], [[0.0]]],
                             [0.0, 0.0, 0.0], [2, 1, 0], [2, 2, 2])
        means = a.block_means()
        assert means.shape[0] == 2
        assert means[0, 0, 0] == 2.0 and means[1, 0, 0] == 2.0
        grand, stderr, nb = a.block_stats()
        assert (grand[0, 0], stderr[0, 0], nb) == (2.0, 0.0, 2)


class TestExactChain:
    def test_identity_maximally_entangled_exact(self):
        # unbiasedness at d = 2 with no sampling at all
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(PureOperation(np.eye(2)), psi)
        est = exact_pure_estimate([phi], [p], psi, 0, 0, q)
        _, dist = phase_align(np.eye(2), est)
        assert dist < 1e-12

    def test_kappa_value_unitary_maximally_entangled(self):
        # exact reference average <|00>><<00|> = |phi_00|^2 = 1/2, p = 1,
        # hence kappa = sqrt(2)
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(PureOperation(np.eye(2)), psi)
        _, den = exact_finite_joint([phi], [p], q,
                                    ([(0, 0)], [(0, 0)], np.eye(1), (0, 0)))
        assert abs(den - 0.5) < 1e-12
        assert abs(np.sqrt(p / den) - np.sqrt(2.0)) < 1e-12

    def test_expectation_identity_d2(self, rng):
        # Tr[rho_out E_ij(psi)] = conj(phi_i0j0) (phi psi^-1)_ij, the chain
        # behind the reconstruction formula, brute-forced over outcomes
        q = build_finite_quorum(2)
        a = random_contraction(rng, 2)
        psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi = psi / np.linalg.norm(psi)
        phi, p = apply_pure(PureOperation(a), psi)
        psi_inv = np.linalg.inv(psi)
        mean, _ = exact_finite_joint(
            [phi], [p], q,
            ([(0, i) for i in range(2)], [(0, k) for k in range(2)], psi_inv,
             None))
        expect = np.conj(phi[0, 0]) * (phi @ psi_inv)
        assert np.max(np.abs(mean - expect)) < 1e-12


class TestSampledPure:
    def test_identity_reconstruction_with_errors(self):
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(PureOperation(np.eye(2)), psi)
        blocks = make_finite_blocks([phi], [p], q, 25, 800, seed=11)
        coef, deficit = mode2_combination(psi, 1, 1)
        est = finalize_pure(accumulate_pure(blocks, coef, 0, 0, q), 0, 0,
                            deficit)
        aligned = align_to_truth(est, np.eye(2))
        dev = np.abs(aligned - np.eye(2))
        assert np.all(dev <= 4 * est.std_errors)
        assert abs(est.kappa.kappa - np.sqrt(2)) < 4 * est.kappa.kappa_stderr + 0.05

    def test_block_merge_associativity(self):
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(PureOperation(np.eye(2)), psi)
        blocks = make_finite_blocks([phi], [p], q, 8, 200, seed=13)
        coef, _ = mode2_combination(psi, 1, 1)
        one_pass = accumulate_pure(blocks, coef, 0, 0, q)
        first = accumulate_pure(blocks[:3], coef, 0, 0, q)
        second = accumulate_pure(blocks[3:], coef, 0, 0, q)
        merged = second.merge(first)
        est_a = finalize_pure(one_pass, 0, 0, 0.0)
        est_b = finalize_pure(merged, 0, 0, 0.0)
        assert np.array_equal(est_a.values, est_b.values)
        assert np.array_equal(est_a.std_errors, est_b.std_errors)

    def test_reference_too_small(self):
        # phi_01 = 0 for the identity on the maximally entangled pair
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(PureOperation(np.eye(2)), psi)
        blocks = make_finite_blocks([phi], [p], q, 10, 300, seed=17)
        coef, deficit = mode2_combination(psi, 1, 1)
        with pytest.raises(ReferenceTooSmallError, match="choose different"):
            finalize_pure(accumulate_pure(blocks, coef, 0, 1, q), 0, 1, deficit)

    def test_heralded_contraction(self):
        # A = diag(1, 0.5): p = (1 + 0.25)/2 = 0.625 on I/sqrt(2)
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        a = np.diag([1.0, 0.5]).astype(complex)
        phi, p = apply_pure(PureOperation(a), psi)
        blocks = make_finite_blocks([phi], [p], q, 30, 600, seed=19, p_occ=p)
        coef, deficit = mode2_combination(psi, 1, 1)
        est = finalize_pure(accumulate_pure(blocks, coef, 0, 0, q), 0, 0,
                            deficit)
        assert abs(est.kappa.p_hat - 0.625) < 4 * est.kappa.p_hat_stderr
        aligned = align_to_truth(est, a)
        assert np.all(np.abs(aligned - a) <= 4 * est.std_errors)


class TestErrorBarCalibration:
    def test_one_sigma_coverage(self):
        # over repeated synthetic runs the truth lands within +-1 std error
        # at the rate of Gaussian block statistics
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        a = np.diag([1.0, 0.5]).astype(complex)
        phi, p = apply_pure(PureOperation(a), psi)
        truth = a * np.exp(-1j * np.angle(phi[0, 0]))  # chain phase reference
        coef, deficit = mode2_combination(psi, 1, 1)
        hits = 0
        total = 0
        for run in range(100):
            blocks = make_finite_blocks([phi], [p], q, 20, 400,
                                        seed=1000 + run, p_occ=p)
            est = finalize_pure(accumulate_pure(blocks, coef, 0, 0, q), 0, 0,
                                deficit)
            dev = np.abs(est.values - truth)
            hits += int(np.sum(dev <= est.std_errors))
            total += dev.size
        rate = hits / total
        assert 0.60 <= rate <= 0.75

    def test_variance_grows_with_column_index(self):
        # entangler-inverse amplification lambda^{-m}: average std error is
        # larger in the high columns (reported per entry, asserted on average)
        beam = twin_beam(3.0, 24, deficit_bound=1.0)
        kernel = build_homodyne_kernel(24, 0.9, GridSpec(24.0), max_index=5)
        from optomo.sampling import displaced_twinbeam_gaussian, sample_quadratures

        state = displaced_twinbeam_gaussian(1.0, 3.0)
        blocks = []
        for b in range(15):
            rng = substream(77, b)
            phi1, phi2, x1, x2 = sample_quadratures(state, 0.9, 3000, rng)
            blocks.append(SampleBlock(b, np.ones(3000, dtype=bool),
                                      phi1, phi2, x1, x2))
        coef, deficit = mode2_combination(beam.psi, 5, 5)
        est = finalize_pure(accumulate_pure(blocks, coef, 0, 0, kernel), 0, 0,
                            deficit)
        assert est.std_errors[:, 4:].mean() > est.std_errors[:, :2].mean()


class TestChoiEstimation:
    def test_depolarizing_within_errors(self):
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        ks = (
            np.sqrt(1 - 3 * 0.5 / 4) * np.eye(2),
            np.sqrt(0.5 / 4) * np.array([[0, 1], [1, 0]], dtype=complex),
            np.sqrt(0.5 / 4) * np.array([[0, -1j], [1j, 0]]),
            np.sqrt(0.5 / 4) * np.diag([1.0, -1.0]).astype(complex),
        )
        blocks = make_finite_blocks(*output_branches(KrausMap(ks), psi), q, 40,
                                    2500, seed=23)
        coef, deficit = mode2_combination(psi, 1, 1)
        est = finalize_choi(accumulate_choi(blocks, coef, q), deficit)
        truth = depolarizing_choi(0.5)
        dev = np.abs(est.values - truth)
        assert np.all(dev <= 3.5 * est.std_errors + 1e-12)
        assert est.hermiticity_defect is not None
        # pre-hermitisation asymmetry is statistical, not systematic
        assert est.hermiticity_defect <= 3.5 * np.max(est.std_errors)

    def test_exact_choi_chain_matches_truth(self, rng):
        from optomo.estimation import exact_choi_estimate
        from optomo.maps import kraus_to_choi

        from oracles import random_invertible_state, random_kraus_map

        d = 2
        q = build_finite_quorum(d)
        kmap = KrausMap(tuple(random_kraus_map(rng, d)))
        psi = random_invertible_state(rng, d)
        est = exact_choi_estimate(*output_branches(kmap, psi), psi, q)
        assert np.max(np.abs(est - kraus_to_choi(kmap).matrix)) < 1e-10

    def test_exact_choi_chain_at_finite_choi_dimension(self, rng):
        # d = 6 is the dimension the finite-route Choi workload samples at
        from optomo.estimation import exact_choi_estimate
        from optomo.maps import kraus_to_choi

        from oracles import random_invertible_state, random_kraus_map

        d = 6
        q = build_finite_quorum(d)
        kmap = KrausMap(tuple(random_kraus_map(rng, d)))
        psi = random_invertible_state(rng, d)
        est = exact_choi_estimate(*output_branches(kmap, psi), psi, q)
        assert np.max(np.abs(est - kraus_to_choi(kmap).matrix)) < 1e-10

    def test_exact_choi_identity_channel(self):
        from optomo.estimation import exact_choi_estimate

        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        est = exact_choi_estimate(*output_branches(KrausMap((np.eye(2),)), psi),
                                  psi, q)
        v = vec(np.eye(2))
        assert np.max(np.abs(est - np.outer(v, v.conj()))) < 1e-12


class TestReferenceAndPhase:
    def test_select_reference_displacement(self):
        beam = twin_beam(5.0, 48)
        dop = displacement_matrix(1.0, 48)
        phi = dop @ beam.psi
        mags = np.abs(phi[:8, :8])
        i0, j0 = select_reference(mags)
        assert (i0, j0) == (0, 0)
        assert abs(mags[i0, j0] - mags.max()) < 1e-12

    def test_select_reference_tie_break(self):
        mags = np.ones((3, 3))
        assert select_reference(mags) == (0, 0)

    def test_select_reference_zero_table_raises(self):
        with pytest.raises(ReferenceTooSmallError, match="zero on the"):
            select_reference(np.zeros((2, 2)))

    def _estimate(self, values):
        values = np.asarray(values, dtype=complex)
        return MatrixEstimate(
            values=values,
            std_errors=np.ones(values.shape),
            kappa=None, i0=0, j0=0, n_blocks=2, truncation_deficit=0.0,
        )

    def test_phase_fix_rotates_reference(self):
        # the reference entry (i0, j0) = (1, 0) is pinned real positive,
        # not the largest entry (0, 0)
        est = phase_fix(replace(self._estimate([[0.6j, 0.1], [-0.2, 0.1]]),
                                i0=1, j0=0))
        assert abs(est.values[1, 0] - 0.2) < 1e-12
        assert abs(est.values[0, 0] + 0.6j) < 1e-12
        assert est.phase_convention == "reference-entry-real-positive"

    def test_phase_fix_leaves_real_positive(self):
        est = phase_fix(self._estimate([[0.7, 0.0], [0.0, 0.1]]))
        assert abs(est.values[0, 0] - 0.7) < 1e-12

    def test_align_to_truth_weighted(self):
        # noisy entries must not steer the alignment: give the noisy entry a
        # big error bar and a large rogue value
        truth = np.diag([1.0, 0.5]).astype(complex)
        values = np.diag([1.0, 0.5]).astype(complex) * np.exp(0.3j)
        values[1, 1] += 2.0  # rogue, but sigma below says "ignore me"
        est = MatrixEstimate(
            values=values,
            std_errors=np.array([[0.01, 0.01], [0.01, 10.0]]),
            kappa=None, i0=0, j0=0, n_blocks=2, truncation_deficit=0.0,
        )
        aligned = align_to_truth(est, truth)
        assert abs(aligned[0, 0] - 1.0) < 1e-3
