"""Reconstruction of operation matrices from measurement records.

The estimator for entry A_ij is the two-mode observable
|i0><i| (x) |j0><psi^{-1*}(j)| averaged over the heralded output ensemble and
scaled by kappa = sqrt(p / <|i0,j0>><<i0,j0|>), with p the occurrence
probability and the denominator the reference-projector average estimated
tomographically from the same data.  Choi-matrix entries come from the
4-index family <<i,j|R(I)|l,k>> = <|l><i| (x) |psi^{-1*}(k)><psi^{-1*}(j)|>
averaged over the unheralded output (trace-normalised by the occurrence
estimate).

Both measurement backends, HomodyneKernel (pattern functions on quadrature
records) and FiniteQuorum (dual frame on finite-quorum outcomes), expose the
same interface: ``max_index`` and ``dyad_estimates(outcomes, settings,
pairs)``, fed straight from the columns of a ``SampleBlock``, which holds the
heralded samples only: (out1, set1) for mode 1, (out2, set2) for mode 2,
where a homodyne setting is the phasor e^{i phi} and a finite one the index
of the observable.
The estimator chain is written once against it.

Pure and Choi entries are one two-mode average over different dyad pairs:
``_pure_terms`` and ``_choi_terms`` give each kind's pairs and mode-2
combination, and ``finalize_choi`` puts Choi sums in the (i, j), (l, k)
layout once.  A block is reduced by e1.T @ (e2 @ comb), summed over chunks
of ``DYAD_CHUNK`` heralded samples.  On a finite quorum, where one mode's
outcome is one of L d values, a block with more samples than the dense work
needs is reduced instead through its joint outcome counts N by
``_reduce_outcomes``, T1.T @ (N @ (T2 @ comb)) with T1, T2 the dyad
estimates at every outcome; the exact path (``exact_*``) calls the same
reduction with the exact joint probabilities in place of N, the outcome
law the finite route samples: ``joint_outcome_table`` of the output
branches K_n psi and their weights.

Error bars follow the block structure of the data: per-block means, standard
error = std across block means / sqrt(blocks).  kappa uncertainty is reported
separately and not folded into the per-entry bars.

Values that depend only on the run, such as the mode-2 coefficient matrix
``mode2_combination`` (one inversion of psi), are computed once per run and
passed to the per-block ``accumulate_*`` calls.  Accumulation is per-block
with no shared state; each call gives a BlockAccumulator of per-block rows,
the rows of all blocks are merged once per run, and the final reduction is
taken in block-index order so results are independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from optomo.bipartite import inverse
from optomo.errors import ReferenceTooSmallError
from optomo.quorum import FiniteQuorum
from optomo.sampling import joint_outcome_table

REFERENCE_SIGMA_FACTOR = 2.0
# heralded samples per dyad evaluation: the (samples, pairs) estimates of a
# chunk stay in cache, and no block-sized array of them is allocated
DYAD_CHUNK = 4096


# ---------------------------------------------------------------------------
# block accumulation


@dataclass(frozen=True)
class BlockAccumulator:
    """Per-block sums of the estimator values, one row per block.

    ``est_sums`` has one estimator-sum matrix per block, ``den_sums`` the
    real part of the reference-denominator sum; ``n_heralded`` and
    ``n_trials`` count the heralded samples and the trials.  Rows are kept
    in block-id order, and a repeated block id is rejected, so every
    reduction is independent of the order in which blocks were accumulated.
    """

    block_ids: np.ndarray
    est_sums: np.ndarray
    den_sums: np.ndarray
    n_heralded: np.ndarray
    n_trials: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.block_ids)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        repeated = np.unique(ids[1:][ids[1:] == ids[:-1]])
        if repeated.size:
            raise ValueError(f"blocks {repeated.tolist()} accumulated more than once")
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name))[order])

    def merge(self, *others: "BlockAccumulator") -> "BlockAccumulator":
        """All rows of ``self`` and ``others``; raises on a repeated block id."""
        parts = (self, *others)
        return BlockAccumulator(*(
            np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(self)
        ))

    def block_means(self) -> np.ndarray:
        """Per-block means of the estimator values (blocks with data only)."""
        keep = self.n_heralded > 0
        return self.est_sums[keep] / self.n_heralded[keep, None, None]

    def block_stats(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Grand mean of the block means, its standard error and the number
        of blocks with data; the error is infinite for a single block."""
        means = self.block_means()
        nb = means.shape[0]
        if nb == 0:
            raise ReferenceTooSmallError("no blocks with heralded samples")
        grand = means.mean(axis=0)
        if nb > 1:
            stderr = np.sqrt(
                np.sum(np.abs(means - grand) ** 2, axis=0) / (nb * (nb - 1))
            )
        else:
            stderr = np.full(grand.shape, np.inf)
        return grand, stderr, nb

    def occurrence(self) -> tuple[float, float]:
        """Herald frequency p_hat and its binomial standard error."""
        n_trials = int(self.n_trials.sum())
        p_hat = int(self.n_heralded.sum()) / n_trials
        return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n_trials))


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class KappaEstimate:
    """Scale factor kappa = sqrt(p / denominator) with the phase convention
    theta = 0 (the unmeasurable global phase is fixed downstream)."""

    kappa: float
    kappa_stderr: float
    p_hat: float
    p_hat_stderr: float
    denominator: float
    denominator_stderr: float


@dataclass(frozen=True)
class MatrixEstimate:
    """Reconstructed complex matrix with per-entry standard errors."""

    values: np.ndarray
    std_errors: np.ndarray
    kappa: KappaEstimate | None
    i0: int
    j0: int
    n_blocks: int
    truncation_deficit: float
    phase_convention: str = "none"
    hermiticity_defect: float | None = None


# ---------------------------------------------------------------------------
# reference selection and phase conventions


def select_reference(magnitudes: np.ndarray) -> tuple[int, int]:
    """Reference indices (i0, j0) maximising |phi|, row-major tie-break.

    ``magnitudes`` is an exact or pilot-estimated table of |phi_ij|.  An
    all-zero table raises ReferenceTooSmallError: every reference
    denominator would vanish.
    """
    mags = np.abs(np.asarray(magnitudes))
    if not np.any(mags > 0):
        raise ReferenceTooSmallError(
            "the output is zero on the reconstruction window, so no reference "
            "element (i0, j0) has a nonzero denominator; raise n_max")
    flat = int(np.argmax(mags))
    return flat // mags.shape[1], flat % mags.shape[1]


def phase_fix(estimate: MatrixEstimate) -> MatrixEstimate:
    """Rotate by the unit phase making the reference entry (i0, j0) real
    positive; no rotation when that entry is zero."""
    vals = estimate.values
    pivot = vals[estimate.i0, estimate.j0]
    phase = np.conj(pivot) / abs(pivot) if pivot != 0 else 1.0 + 0.0j
    return replace(
        estimate,
        values=vals * phase,
        phase_convention="reference-entry-real-positive",
    )


def align_to_truth(estimate: MatrixEstimate, truth: np.ndarray) -> np.ndarray:
    """Precision-weighted phase alignment of the estimate onto a known truth.

    The global phase is unmeasurable; for accuracy checks the estimate is
    rotated by the phase that matches the truth, weighting each entry by its
    inverse variance so noisy entries cannot corrupt the alignment.  Returns
    the aligned values.
    """
    sig = np.asarray(estimate.std_errors, dtype=float)
    floor = max(np.min(sig[sig > 0], initial=0.0), 1e-300)
    w = 1.0 / np.maximum(sig, floor) ** 2
    inner = np.sum(w * np.conj(estimate.values) * np.asarray(truth, dtype=complex))
    if inner == 0:
        return estimate.values.copy()
    return estimate.values * (inner / abs(inner))


# ---------------------------------------------------------------------------
# estimation chains


def mode2_combination(psi: np.ndarray, window: int, k_max: int):
    """Coefficient matrix C[k, j] = (psi^{-1})_{kj} truncated at k_max rows.

    The mode-2 estimator of |j0><psi^{-1*}(j)| is sum_k C[k, j] times the dyad
    estimator of |j0><k|; the dropped squared-norm fraction is returned as the
    truncation deficit (zero for diagonal entanglers).  Depends on the run
    only, so it is computed once per run.  ``k_max`` is the highest dyad index
    the backend and the entangler both cover; below ``window`` raises
    ValueError.
    """
    if k_max < window:
        raise ValueError(
            f"backend supports dyad indices up to {k_max}, below window {window}"
        )
    psi_inv = inverse(np.asarray(psi, dtype=complex))
    cols = psi_inv[:, : window + 1]
    kept = cols[: k_max + 1]
    total = np.sum(np.abs(cols) ** 2)
    deficit = float(1.0 - np.sum(np.abs(kept) ** 2) / total) if total > 0 else 0.0
    return kept, deficit


def _pure_terms(coef: np.ndarray, i0: int, j0: int):
    """Terms of A_ij: mode-1 pairs |i0><i|, mode-2 pairs |j0><k| combined by
    ``coef`` into |j0><psi^{-1*}(j)|, and the denominator columns (i0, j0)."""
    k1, w1 = coef.shape
    return [(i0, i) for i in range(w1)], [(j0, k) for k in range(k1)], coef, (i0, j0)


def _choi_terms(coef: np.ndarray):
    """Terms of <<i,j|R(I)|l,k>>: mode-1 pairs |l><i|, mode-2 pairs |a><b|
    combined into |psi^{-1*}(k)><psi^{-1*}(j)|; sums come out laid out
    (l, i), (j, k), and there is no denominator."""
    k1, w1 = coef.shape
    pairs1 = [(l, i) for l in range(w1) for i in range(w1)]
    pairs2 = [(a, b) for a in range(k1) for b in range(k1)]
    # est(j, k) = sum_ab conj(coef[a, k]) coef[b, j] dyad(a, b)
    comb = np.einsum("ak,bj->abjk", coef.conj(), coef).reshape(k1 * k1, w1 * w1)
    return pairs1, pairs2, comb, None


def _choi_layout(m: np.ndarray) -> np.ndarray:
    """Reorder Choi sums from (l, i), (j, k) to the (i, j), (l, k) of R(I)."""
    w1 = round(np.sqrt(m.shape[0]))
    return m.reshape((w1,) * 4).transpose(1, 2, 0, 3).reshape(m.shape)


def _reduce_outcomes(t1, joint, t2, terms):
    """Estimator sums over outcome pairs: t1.T @ (joint @ (t2 @ comb)) and the
    real denominator t1[:, i0] @ joint @ t2[:, j0] (0 without one).

    t1, t2 are a FiniteQuorum's ``alphabet_estimates`` of each mode's pairs
    and joint[u, v] weighs the joint outcome (u, v): the counts of a sampled
    block or the exact probabilities.
    """
    _, _, comb, den_cols = terms
    est = t1.T @ (joint @ (t2 @ comb))
    if den_cols is None:
        return est, 0.0
    return est, (t1[:, den_cols[0]] @ joint @ t2[:, den_cols[1]]).real


def _accumulate(blocks, backend, terms) -> BlockAccumulator:
    """One accumulator row per SampleBlock: e1.T @ (e2 @ comb) with e1, e2 the
    dyad estimates of the heralded samples of each mode, and the denominator.

    On a FiniteQuorum a block whose heralded samples outnumber the dense
    work, (L d)^2 <= n_heralded * (P1 + P2), is reduced through its
    (L d, L d) joint outcome counts by ``_reduce_outcomes``, the formula of
    ``exact_finite_joint``; the counts are exact, and the sums differ from
    the per-sample ones by roundoff (about 1e-15 relative).  Any other block
    is reduced in chunks of DYAD_CHUNK samples, so no (samples, pairs) array
    of a whole block is built.  Blocks of at most one chunk give exactly the
    one-shot sums; longer blocks add the chunk sums in order, which moves
    the sums by roundoff.
    """
    pairs1, pairs2, comb, den_cols = terms
    est = np.zeros((len(blocks), len(pairs1), comb.shape[1]), dtype=complex)
    den = np.zeros(len(blocks))
    n_her = np.array([blk.set1.size for blk in blocks])
    n_alpha = backend.alphabet_size if isinstance(backend, FiniteQuorum) else 0
    for r in np.flatnonzero(n_her):
        blk = blocks[r]
        if n_alpha and n_alpha**2 <= n_her[r] * (len(pairs1) + len(pairs2)):
            counts = backend.joint_counts(blk.out1, blk.set1, blk.out2, blk.set2)
            est[r], den[r] = _reduce_outcomes(
                backend.alphabet_estimates(pairs1), counts,
                backend.alphabet_estimates(pairs2), terms)
            continue
        for lo in range(0, n_her[r], DYAD_CHUNK):
            c = slice(lo, lo + DYAD_CHUNK)
            e1 = backend.dyad_estimates(blk.out1[c], blk.set1[c], pairs1)
            e2 = backend.dyad_estimates(blk.out2[c], blk.set2[c], pairs2)
            est[r] += e1.T @ (e2 @ comb)
            if den_cols is not None:
                den[r] += np.sum(e1[:, den_cols[0]] * e2[:, den_cols[1]]).real
            del e1, e2  # not alive while the next chunk's are formed
    return BlockAccumulator(
        np.array([blk.block_id for blk in blocks]), est, den, n_her,
        np.array([blk.herald.size for blk in blocks]),
    )


def accumulate_pure(blocks, coef: np.ndarray, i0: int, j0: int,
                    backend) -> BlockAccumulator:
    """Accumulate per-block sums of the pure-operation entry estimators.

    ``coef`` is the run's ``mode2_combination`` matrix, shape
    (k_max + 1, window + 1); ``backend`` is a HomodyneKernel or a
    FiniteQuorum.  The terms are ``_pure_terms``.
    """
    return _accumulate(blocks, backend, _pure_terms(coef, i0, j0))


def estimate_kappa(acc: BlockAccumulator, i0: int, j0: int) -> KappaEstimate:
    """kappa from herald statistics and the tomographic reference denominator.

    Raises ReferenceTooSmallError when the denominator estimate is within
    twice its own standard error of zero.
    """
    p_hat, p_stderr = acc.occurrence()
    if p_hat == 0.0:
        raise ReferenceTooSmallError("no heralded samples")
    keep = acc.n_heralded > 0
    dmeans = acc.den_sums[keep] / acc.n_heralded[keep]
    nb = dmeans.size
    den = float(np.mean(dmeans))
    den_stderr = float(np.std(dmeans, ddof=1) / np.sqrt(nb)) if nb > 1 else 0.0
    if den <= REFERENCE_SIGMA_FACTOR * den_stderr or den <= 0.0:
        raise ReferenceTooSmallError(
            f"reference element ({i0},{j0}) too small: denominator "
            f"{den:.3e} +- {den_stderr:.3e}; choose different (i0, j0)"
        )
    kappa = float(np.sqrt(p_hat / den))
    rel = 0.5 * np.sqrt((p_stderr / p_hat) ** 2 + (den_stderr / den) ** 2)
    return KappaEstimate(
        kappa=kappa, kappa_stderr=float(kappa * rel),
        p_hat=float(p_hat), p_hat_stderr=p_stderr,
        denominator=den, denominator_stderr=den_stderr,
    )


def finalize_pure(acc: BlockAccumulator, i0: int, j0: int,
                  deficit: float) -> MatrixEstimate:
    """Reduce accumulated blocks (in block-index order) to a MatrixEstimate.

    ``deficit`` is the run's total truncation deficit.
    """
    kap = estimate_kappa(acc, i0, j0)
    grand, stderr, nb = acc.block_stats()
    return MatrixEstimate(
        values=kap.kappa * grand,
        std_errors=kap.kappa * stderr,
        kappa=kap,
        i0=i0, j0=j0,
        n_blocks=nb,
        truncation_deficit=deficit,
    )


def accumulate_choi(blocks, coef: np.ndarray, backend) -> BlockAccumulator:
    """Accumulate per-block sums of the Choi entry estimators.

    ``coef`` is the run's ``mode2_combination`` matrix and ``backend`` a
    HomodyneKernel or a FiniteQuorum.  The terms are ``_choi_terms``; the
    sums stay in their (l, i), (j, k) layout until ``finalize_choi``.
    """
    return _accumulate(blocks, backend, _choi_terms(coef))


def finalize_choi(acc: BlockAccumulator, deficit: float) -> MatrixEstimate:
    """Reduce Choi accumulation; scales by the occurrence estimate and hermitises.

    The ensemble averages of the 4-index estimators refer to the unnormalised
    output R(psi) (trace = occurrence probability); sample means over heralded
    data are therefore multiplied by the herald frequency p_hat before
    inversion to R(I).  The block means and their errors are put in the
    (i, j), (l, k) layout here, once.  ``deficit`` is the run's total
    truncation deficit.
    """
    p_hat, p_hat_stderr = acc.occurrence()
    mean, stderr, nb = acc.block_stats()
    grand, spread = _choi_layout(mean) * p_hat, p_hat * _choi_layout(stderr)
    defect = float(np.max(np.abs(grand - grand.conj().T)))
    herm = (grand + grand.conj().T) / 2.0
    sym_err = np.sqrt((spread**2 + spread.T**2) / 2.0)
    kap = KappaEstimate(
        kappa=1.0, kappa_stderr=0.0, p_hat=p_hat, p_hat_stderr=p_hat_stderr,
        denominator=1.0, denominator_stderr=0.0,
    )
    return MatrixEstimate(
        values=herm,
        std_errors=sym_err,
        kappa=kap,
        i0=0, j0=0,
        n_blocks=nb,
        truncation_deficit=deficit,
        hermiticity_defect=defect,
    )


# ---------------------------------------------------------------------------
# exact (no-sampling) expectations for the finite quorum


def exact_finite_joint(branches, weights, quorum: FiniteQuorum, terms):
    """Exact expectations of the estimator sums of ``terms`` (a
    ``_pure_terms`` or ``_choi_terms`` tuple) and of the denominator.

    The reduction is a sampled block's, ``_reduce_outcomes``, with the joint
    outcome law the finite route samples, ``joint_outcome_table`` of the
    output branches, in place of the counts.
    """
    table = joint_outcome_table(branches, weights, quorum)
    n_alpha = quorum.alphabet_size
    t = table.transpose(0, 2, 1, 3).reshape(n_alpha, n_alpha)
    pairs1, pairs2 = terms[:2]
    return _reduce_outcomes(quorum.alphabet_estimates(pairs1), t,
                            quorum.alphabet_estimates(pairs2), terms)


def exact_pure_estimate(branches, weights, psi: np.ndarray, i0: int, j0: int,
                        quorum: FiniteQuorum) -> np.ndarray:
    """The pure chain's ``_pure_terms`` under the exact outcome law: the true
    A up to the global phase when the output is ``output_branches`` of the
    one-operator map (A,)."""
    coef, _ = mode2_combination(psi, quorum.dim - 1, quorum.dim - 1)
    est, den = exact_finite_joint(branches, weights, quorum,
                                  _pure_terms(coef, i0, j0))
    return np.sqrt(sum(weights) / den) * est


def exact_choi_estimate(branches, weights, psi: np.ndarray,
                        quorum: FiniteQuorum) -> np.ndarray:
    """The Choi chain's ``_choi_terms`` and ``_choi_layout`` under the exact
    outcome law of the output branches, times the occurrence probability
    sum(weights), hermitised."""
    coef, _ = mode2_combination(psi, quorum.dim - 1, quorum.dim - 1)
    est, _ = exact_finite_joint(branches, weights, quorum, _choi_terms(coef))
    r_est = sum(weights) * _choi_layout(est)
    return (r_est + r_est.conj().T) / 2.0
