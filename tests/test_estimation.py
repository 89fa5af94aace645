import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from optomo.bipartite import phase_align, vec
from optomo.config import ExperimentConfig
from optomo.errors import NonInvertibleEntanglerError, ReferenceTooSmallError
from optomo.estimation import (
    BlockAccumulator,
    MatrixEstimate,
    accumulate_choi,
    accumulate_pure,
    align_to_truth,
    choi_terms,
    exact_pure_estimate,
    finalize_choi,
    finalize_pure,
    mode2_combination,
    phase_fix,
    pure_terms,
    select_reference,
)
from optomo.maps import (
    KrausMap,
    apply_pure,
    displacement_matrix,
    output_branches,
    twin_beam,
)
from optomo.quorum import (DYAD_CHUNK, FiniteQuorum, GridSpec, HomodyneKernel,
                           build_finite_quorum, build_homodyne_kernel)
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
    cdf = np.cumsum(joint_outcome_table(branches, weights, quorum))
    cfg = ExperimentConfig(samples_per_block=per_block, master_seed=seed)
    draw = lambda n, rng: sample_finite(cdf, n, rng)
    return [_heralded_block(cfg, p_occ, b, draw) for b in range(n_blocks)]


# traced peak of one d = 6, 17,000-sample Choi block reduction: 1.1 x the
# 432 KB it reads (numpy 2.4); the (L d, L d) int64 joint counts of such a
# block and their complex cast alone would take 1.1 MB
PEAK_BOUND = 475_000


class TestChunkedAccumulation:
    """A homodyne block is reduced in chunks of DYAD_CHUNK heralded samples,
    a finite-quorum block through its observable-pair sums; either way its
    dyad moments must match the one-shot per-sample sums of the whole
    block."""

    CHUNK = DYAD_CHUNK
    REF = (1, 0)    # the pure estimate's reference (i0, j0)

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
            psi = twin_beam(1.0, 4).psi
            table = joint_outcome_table([psi / np.linalg.norm(psi)], [1.0],
                                        backend)
            cols = sample_finite(np.cumsum(table), n, rng)
        herald = np.ones(n, dtype=bool)
        herald[[0, n // 2, n - 1]] = False
        return SampleBlock(0, herald, tuple(c[herald] for c in cols))

    def _terms(self, kind, coef, backend):
        return (pure_terms(coef, *self.REF, backend) if kind == "pure"
                else choi_terms(coef, backend))

    def _assert_close(self, got, want, kind):
        # the denominator entry to its own scale, as kappa reads it
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if kind == "pure":
            den, want_den = got[self.REF].real, want[self.REF].real
            assert abs(den - want_den) <= 1e-12 * abs(want_den)

    @pytest.mark.parametrize("n_heralded",
                             [0, 1, CHUNK - 1, CHUNK, int(2.5 * CHUNK)])
    @pytest.mark.parametrize("name", ["homodyne", "finite"])
    @pytest.mark.parametrize("kind", ["pure", "choi"])
    def test_chunk_sums_match_one_shot(self, kernel, name, kind, n_heralded):
        backend = kernel if name == "homodyne" else build_finite_quorum(4)
        psi = twin_beam(1.0, 4).psi
        coef = mode2_combination(psi, 2)
        blk = self._block(name, backend, n_heralded, 5)
        tables, _ = self._terms(kind, coef, backend)
        got = backend.block_sums(blk, tables)
        want = per_sample_sums(backend, blk, tables)
        assert blk.columns[0].size == n_heralded and got.shape == want.shape
        if n_heralded == 0:
            assert np.all(got == 0)
        elif name == "homodyne" and n_heralded <= self.CHUNK:
            # one chunk, per sample: the one-shot arithmetic
            assert np.array_equal(got, want)
        else:
            self._assert_close(got, want, kind)

    @pytest.mark.parametrize("kind", ["pure", "choi"])
    def test_d12_small_block_matches_one_shot(self, kind):
        # d = 12: 500 samples spread over L^2 = 20,736 observable pairs, so
        # most pair sums hold one sample or none
        q = build_finite_quorum(12)
        rng = np.random.default_rng(9)
        obs = rng.integers(0, len(q), (2, 500))
        out = rng.integers(0, q.dim, (2, 500))
        shape = (len(q),) * 2 + (q.dim,) * 2
        cells = np.ravel_multi_index((*obs, *out), shape)
        blk = SampleBlock(0, np.ones(500, dtype=bool), (cells,))
        psi = twin_beam(1.0, 12).psi
        coef = mode2_combination(psi, 11)
        tables, _ = self._terms(kind, coef, q)
        self._assert_close(q.block_sums(blk, tables),
                           per_sample_sums(q, blk, tables), kind)

    @pytest.mark.parametrize("name", ["homodyne", "finite"])
    @pytest.mark.parametrize("kind", ["pure", "choi"])
    def test_accumulated_rows_are_moments_times_comb(self, kernel, name,
                                                     kind):
        # every row of the accumulator is its block's dyad moments M: M @
        # comb and, on a pure estimate, M[i0, j0].real match those of the
        # one-shot per-sample moments
        backend = kernel if name == "homodyne" else build_finite_quorum(4)
        psi = twin_beam(1.0, 4).psi
        coef = mode2_combination(psi, 2)
        blocks = [replace(self._block(name, backend, n, seed), block_id=b)
                  for b, (n, seed) in enumerate([(700, 5), (1, 6), (0, 7)])]
        terms = self._terms(kind, coef, backend)
        tables, comb = terms
        accumulate = accumulate_pure if kind == "pure" else accumulate_choi
        acc = accumulate(blocks, terms, backend)
        for b, blk in enumerate(blocks):
            m = per_sample_sums(backend, blk, tables)
            want = m @ comb
            assert np.max(np.abs(acc.moments[b] @ comb - want)) <= (
                1e-12 * np.max(np.abs(want)))
            if kind == "pure":
                den, want_den = acc.moments[b][self.REF].real, m[self.REF].real
                assert abs(den - want_den) <= 1e-12 * abs(want_den)

    @pytest.mark.parametrize("name", ["homodyne", "finite"])
    @pytest.mark.parametrize("kind", ["pure", "choi"])
    def test_stacked_reduction_matches_per_block(self, kernel, name, kind):
        # the rows are the backend's block_sums bit for bit, and the
        # finalizers' stacked (moments @ comb) / n gives the same bits as a
        # reduction that forms (M_b @ comb) one block at a time: such rows
        # reduced through the identity combination
        backend = kernel if name == "homodyne" else build_finite_quorum(4)
        psi = twin_beam(1.0, 4).psi
        coef = mode2_combination(psi, 2)
        blocks = [replace(self._block(name, backend, 300 + 50 * b, 20 + b),
                          block_id=b) for b in range(5)]
        # (0, 0): the largest twin-beam entry, as kappa needs
        terms = (pure_terms(coef, 0, 0, backend) if kind == "pure"
                 else choi_terms(coef, backend))
        tables, comb = terms
        accumulate = accumulate_pure if kind == "pure" else accumulate_choi
        acc = accumulate(blocks, terms, backend)
        for b, blk in enumerate(blocks):
            assert np.array_equal(acc.moments[b],
                                  backend.block_sums(blk, tables))
        per_block = replace(acc, moments=np.array([m @ comb
                                                   for m in acc.moments]))
        unit = np.eye(comb.shape[1])
        if kind == "pure":
            est = finalize_pure(acc, comb, 0, 0, 0.0)
            grand, stderr, _ = per_block.block_stats(unit)
            want = (est.kappa.kappa * grand, est.kappa.kappa * stderr)
        else:
            est = finalize_choi(acc, comb, 0.0)
            ref = finalize_choi(per_block, unit, 0.0)
            want = (ref.values, ref.std_errors)
        assert np.array_equal(est.values, want[0])
        assert np.array_equal(est.std_errors, want[1])

    def test_finite_choi_block_memory(self):
        # one d = 6 block of 17,000 heralded samples, the size of a
        # finite_choi benchmark block: the reduction holds a few
        # sample-length vectors and (L, L) sums, no (L d, L d) counts
        q = build_finite_quorum(6)
        psi = twin_beam(1.0, 6).psi
        table = joint_outcome_table([psi / np.linalg.norm(psi)], [1.0], q)
        cols = sample_finite(np.cumsum(table), 17_000, substream(3, 0))
        blk = SampleBlock(0, np.ones(17_000, dtype=bool), cols)
        coef = mode2_combination(psi, 5)
        terms = choi_terms(coef, q)
        tracemalloc.start()
        try:
            accumulate_choi([blk], terms, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_BOUND


class TestBackendInterface:
    @pytest.mark.parametrize("method",
                             ["pair_table", "dyad_estimates", "block_sums"])
    def test_backends_share_parameter_names(self, method):
        homodyne, finite = (
            list(inspect.signature(getattr(cls, method)).parameters)
            for cls in (HomodyneKernel, FiniteQuorum))
        assert homodyne == finite

    def test_chain_asks_only_pair_table_and_block_sums(self):
        # a backend with pair_table and block_sums and nothing else:
        # block b of n samples has dyad moments (b + 1) n at every
        # pair but the denominator's (0, 1), which is n; so kappa = 1 and,
        # with the identity mode-2 combination, the estimate is the grand
        # mean of the block moments per sample
        class Stub:
            def pair_table(self, pairs):
                return len(pairs)

            def block_sums(self, block, tables):
                n = block.columns[0].size
                m = np.full(tables, (block.block_id + 1.0) * n + 0j)
                m[0, 1] = n
                return m

        stub = Stub()
        coef = mode2_combination(np.eye(2), 1)
        blocks = [SampleBlock(b, np.ones(4, dtype=bool),
                              tuple(np.zeros((4, 4))))
                  for b in range(3)]
        terms = pure_terms(coef, 0, 1, stub)
        est = finalize_pure(accumulate_pure(blocks, terms, stub), terms[1],
                            0, 1, 0.0)
        assert est.kappa.kappa == 1.0 and est.n_blocks == 3
        assert np.array_equal(est.values, [[2.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(
            est.std_errors, np.sqrt(1.0 / 3.0) * np.array([[1, 0], [1, 1]]),
            rtol=1e-15)


class TestMode2Combination:
    def test_maximally_entangled_single_term(self):
        d = 4
        psi = np.eye(d) / np.sqrt(d)
        coef = mode2_combination(psi, d - 1)
        for j in range(d):
            expect = np.zeros(d)
            expect[j] = np.sqrt(d)
            assert np.allclose(coef[:, j], expect, atol=1e-12)

    def test_twin_beam_diagonal_coefficient(self):
        # the window's columns of the full inverse vanish below the window,
        # so cutting the rows there drops nothing
        beam = twin_beam(3.0, 16)
        coef = mode2_combination(beam.psi, 5)
        full = mode2_combination(beam.psi, 15)
        assert np.array_equal(coef, full[:6, :6])
        for j in range(6):
            assert abs(coef[j, j] - 2.0 * (4.0 / 3.0) ** (j / 2.0)) < 1e-10
            off = np.delete(full[:, j], j)
            assert np.max(np.abs(off)) < 1e-14

    def test_singular_entangler_propagates(self):
        psi = np.diag([1.0, 0.0])
        with pytest.raises(NonInvertibleEntanglerError):
            mode2_combination(psi, 0)


class TestBlockAccumulator:
    def test_merge_disjoint(self):
        a = BlockAccumulator([2], 3 * np.ones((1, 2, 2)), [10], [10])
        b = BlockAccumulator([0], np.ones((1, 2, 2)), [10], [10])
        c = BlockAccumulator([1], 2 * np.ones((1, 2, 2)), [10], [10])
        merged = a.merge(b, c)
        assert merged.block_ids.tolist() == [0, 1, 2]
        assert merged.moments[:, 0, 0].tolist() == [1.0, 2.0, 3.0]
        assert (merged.n_heralded.sum(), merged.n_trials.sum()) == (30, 30)

    def test_merge_overlap_rejected(self):
        a = BlockAccumulator([0], np.ones((1, 2, 2)), [10], [10])
        b = BlockAccumulator([0], np.ones((1, 2, 2)), [10], [10])
        with pytest.raises(ValueError, match="more than once"):
            a.merge(b)

    def test_duplicate_block_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            BlockAccumulator([0, 0], np.ones((2, 2, 2)), [10, 10], [10, 10])

    def test_block_means_ordered_and_skip_empty(self):
        # block means (M @ comb) / n: block 1 has (4, 8) over 2 samples,
        # block 0 (2, 4) over 1, block 2 none; comb sums M's two columns
        a = BlockAccumulator([1, 0, 2], [[[4.0, 8.0]], [[2.0, 4.0]],
                                         [[0.0, 0.0]]], [2, 1, 0], [2, 2, 2])
        grand, stderr, nb = a.block_stats(np.ones((2, 1)))
        assert (grand[0, 0], stderr[0, 0], nb) == (6.0, 0.0, 2)
        grand, stderr, nb = a.block_stats(np.array([[1.0], [0.0]]))
        assert (grand[0, 0], stderr[0, 0], nb) == (2.0, 0.0, 2)

    @pytest.mark.parametrize("n_heralded", [[0, 0, 0], [0, 5, 0]])
    def test_fewer_than_two_blocks_with_data_raise(self, n_heralded):
        a = BlockAccumulator([0, 1, 2], np.ones((3, 1, 1)), n_heralded,
                             [5, 5, 5])
        n = np.count_nonzero(n_heralded)
        comb = np.ones((1, 1))
        for reduce in (lambda: a.block_stats(comb),
                       lambda: finalize_pure(a, comb, 0, 0, 0.0),
                       lambda: finalize_choi(a, comb, 0.0)):
            with pytest.raises(ReferenceTooSmallError,
                               match=f"{n} of 3 blocks hold heralded"):
                reduce()


class TestExactChain:
    def test_identity_maximally_entangled_exact(self):
        # unbiasedness at d = 2 with no sampling at all
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(np.eye(2), psi)
        est = exact_pure_estimate([phi], [p], psi, 0, 0, q)
        _, dist = phase_align(np.eye(2), est)
        assert dist < 1e-12

    def test_kappa_value_unitary_maximally_entangled(self):
        # exact reference average <|00>><<00|> = |phi_00|^2 = 1/2, p = 1,
        # hence kappa = sqrt(2)
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(np.eye(2), psi)
        tables, _ = pure_terms(np.eye(1), 0, 0, q)
        m = q.exact_sums([phi], [p], tables)
        den = m[0, 0].real
        assert abs(den - 0.5) < 1e-12
        assert abs(np.sqrt(p / den) - np.sqrt(2.0)) < 1e-12

    def test_expectation_identity_d2(self, rng):
        # Tr[rho_out E_ij(psi)] = conj(phi_i0j0) (phi psi^-1)_ij, the chain
        # behind the reconstruction formula, brute-forced over outcomes
        q = build_finite_quorum(2)
        a = random_contraction(rng, 2)
        psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi = psi / np.linalg.norm(psi)
        phi, p = apply_pure(a, psi)
        psi_inv = np.linalg.inv(psi)
        tables, comb = pure_terms(psi_inv, 0, 0, q)
        mean = q.exact_sums([phi], [p], tables) @ comb
        expect = np.conj(phi[0, 0]) * (phi @ psi_inv)
        assert np.max(np.abs(mean - expect)) < 1e-12


    @pytest.mark.parametrize("kind", ["pure", "choi"])
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_pair_sums_match_outcome_sums(self, d, kind, rng):
        # the observable-pair reduction against the (L d, L d) per-outcome
        # one, on a two-branch output; verify unbiasedness stops at d = 3
        from oracles import (exact_sums_by_outcomes, random_invertible_state,
                             random_kraus_map)

        q = build_finite_quorum(d)
        psi = random_invertible_state(rng, d)
        branches, weights = output_branches(
            KrausMap(tuple(random_kraus_map(rng, d))), psi)
        coef = mode2_combination(psi, d - 1)
        tables, comb = (pure_terms(coef, 0, 1, q) if kind == "pure"
                        else choi_terms(coef, q))
        m = q.exact_sums(branches, weights, tables)
        want = exact_sums_by_outcomes(branches, weights, q, tables)
        # the sums of the estimators and the denominator to their own scales
        est, want_est = m @ comb, want @ comb
        assert np.max(np.abs(est - want_est)) <= (
            1e-12 * np.max(np.abs(want_est)))
        if kind == "pure":
            assert abs(m[0, 1].real - want[0, 1].real) <= (
                1e-12 * abs(want[0, 1].real))

    @pytest.mark.parametrize("kind", ["pure", "choi"])
    @pytest.mark.parametrize("d", [3, 6])
    def test_block_sums_are_exact_sums_of_cell_frequencies(self, d, kind,
                                                           rng):
        # the sampled and the exact reduction contract one cell table: a
        # block's moments are n times the exact moments per sample under
        # its empirical cell frequencies
        from oracles import random_invertible_state, random_kraus_map

        q = build_finite_quorum(d)
        psi = random_invertible_state(rng, d)
        branches, weights = output_branches(
            KrausMap(tuple(random_kraus_map(rng, d))), psi)
        table = joint_outcome_table(branches, weights, q)
        n = 17_000
        (cells,) = sample_finite(np.cumsum(table), n, substream(6, d))
        coef = mode2_combination(psi, d - 1)
        tables, _ = (pure_terms(coef, 0, 1, q) if kind == "pure"
                     else choi_terms(coef, q))
        got = q.block_sums(SampleBlock(0, np.ones(n, dtype=bool), (cells,)),
                           tables)
        freq = np.bincount(cells, minlength=table.size) / n
        want = n * q._pair_sums(np.arange(table.size),
                                freq * q.cell_products, tables)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSampledPure:
    def test_identity_reconstruction_with_errors(self):
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(np.eye(2), psi)
        blocks = make_finite_blocks([phi], [p], q, 25, 800, seed=11)
        coef = mode2_combination(psi, 1)
        terms = pure_terms(coef, 0, 0, q)
        est = finalize_pure(accumulate_pure(blocks, terms, q), terms[1], 0, 0,
                            0.0)
        aligned = align_to_truth(est, np.eye(2))
        dev = np.abs(aligned - np.eye(2))
        assert np.all(dev <= 4 * est.std_errors)
        assert abs(est.kappa.kappa - np.sqrt(2)) < 4 * est.kappa.kappa_stderr + 0.05

    def test_block_merge_associativity(self):
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(np.eye(2), psi)
        blocks = make_finite_blocks([phi], [p], q, 8, 200, seed=13)
        coef = mode2_combination(psi, 1)
        terms = pure_terms(coef, 0, 0, q)
        one_pass = accumulate_pure(blocks, terms, q)
        first = accumulate_pure(blocks[:3], terms, q)
        second = accumulate_pure(blocks[3:], terms, q)
        merged = second.merge(first)
        est_a = finalize_pure(one_pass, terms[1], 0, 0, 0.0)
        est_b = finalize_pure(merged, terms[1], 0, 0, 0.0)
        assert np.array_equal(est_a.values, est_b.values)
        assert np.array_equal(est_a.std_errors, est_b.std_errors)

    def test_reference_too_small(self):
        # phi_01 = 0 for the identity on the maximally entangled pair
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        phi, p = apply_pure(np.eye(2), psi)
        blocks = make_finite_blocks([phi], [p], q, 10, 300, seed=17)
        coef = mode2_combination(psi, 1)
        with pytest.raises(ReferenceTooSmallError, match="choose different"):
            terms = pure_terms(coef, 0, 1, q)
            finalize_pure(accumulate_pure(blocks, terms, q), terms[1], 0, 1,
                          0.0)

    def test_heralded_contraction(self):
        # A = diag(1, 0.5): p = (1 + 0.25)/2 = 0.625 on I/sqrt(2)
        q = build_finite_quorum(2)
        psi = np.eye(2) / np.sqrt(2)
        a = np.diag([1.0, 0.5]).astype(complex)
        phi, p = apply_pure(a, psi)
        blocks = make_finite_blocks([phi], [p], q, 30, 600, seed=19, p_occ=p)
        coef = mode2_combination(psi, 1)
        terms = pure_terms(coef, 0, 0, q)
        est = finalize_pure(accumulate_pure(blocks, terms, q), terms[1], 0, 0,
                            0.0)
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
        phi, p = apply_pure(a, psi)
        truth = a * np.exp(-1j * np.angle(phi[0, 0]))  # chain phase reference
        coef = mode2_combination(psi, 1)
        terms = pure_terms(coef, 0, 0, q)
        hits = 0
        total = 0
        for run in range(100):
            blocks = make_finite_blocks([phi], [p], q, 20, 400,
                                        seed=1000 + run, p_occ=p)
            est = finalize_pure(accumulate_pure(blocks, terms, q), terms[1],
                                0, 0, 0.0)
            dev = np.abs(est.values - truth)
            hits += int(np.sum(dev <= est.std_errors))
            total += dev.size
        rate = hits / total
        assert 0.60 <= rate <= 0.75

    def test_variance_grows_with_column_index(self):
        # entangler-inverse amplification lambda^{-m}: average std error is
        # larger in the high columns (reported per entry, asserted on average)
        beam = twin_beam(3.0, 24)
        kernel = build_homodyne_kernel(24, 0.9, GridSpec(24.0), max_index=5)
        from optomo.sampling import displaced_twinbeam_gaussian, sample_quadratures

        state = displaced_twinbeam_gaussian(1.0, 3.0)
        blocks = []
        for b in range(15):
            rng = substream(77, b)
            cols = sample_quadratures(state, 0.9, 3000, rng)
            blocks.append(SampleBlock(b, np.ones(3000, dtype=bool), cols))
        coef = mode2_combination(beam.psi, 5)
        terms = pure_terms(coef, 0, 0, kernel)
        est = finalize_pure(accumulate_pure(blocks, terms, kernel), terms[1],
                            0, 0, 0.0)
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
        coef = mode2_combination(psi, 1)
        terms = choi_terms(coef, q)
        est = finalize_choi(accumulate_choi(blocks, terms, q), terms[1],
                            0.0)
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
