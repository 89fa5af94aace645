"""Reconstruction of operation matrices from measurement records.

The estimator for entry A_ij is the two-mode observable
|i0><i| (x) |j0><psi^{-1*}(j)| averaged over the heralded output ensemble and
scaled by kappa = sqrt(p / <|i0,j0>><<i0,j0|>), with p the occurrence
probability and the denominator the reference-projector average estimated
tomographically from the same data.  Choi-matrix entries come from the
4-index family <<i,j|R(I)|l,k>> = <|l><i| (x) |psi^{-1*}(k)><psi^{-1*}(j)|>
averaged over the unheralded output (trace-normalised by the occurrence
estimate).

The chain is written once against the block-reduction interface both
measurement backends share (HomodyneKernel, pattern functions on quadrature
records; FiniteQuorum, the dual frame on finite-quorum outcomes):
``pair_table(pairs)`` and ``block_sums(block, tables)``, which reduces one
``SampleBlock`` of heralded samples to its dyad moment matrix
M[p, q] = sum_s e1[s, p] e2[s, q] (e1, e2 the two modes' dyad estimates),
and on the exact path a finite quorum's ``exact_sums``.  The window alone
bounds the dyads |a><b| estimated: a, b <= n_max.  This module never looks
at outcomes or settings and imports no sampler or backend module, and the
backends know nothing of the estimator.

Pure and Choi entries are fixed linear combinations of dyad moments:
``pure_terms`` and ``choi_terms`` give each kind's ``(tables, comb)``, the
two pair tables (one table when the modes' pair lists are equal, as a Choi
estimate's are) and the mode-2 combination.  The block accumulator keeps
each block's M and knows nothing of the estimate kind; the block means
(M @ comb) / n and the pure denominator M[i0, j0].real / n are formed only
in ``finalize_pure`` and ``finalize_choi`` (the means by
``block_stats(comb)``) and on the exact path, and ``finalize_choi`` puts
Choi means in the (i, j), (l, k) layout once.  The exact path
(``exact_*``) calls the backend's ``exact_sums(branches, weights,
tables)``: M per sample under the exact outcome law of the output branches
K_n psi and their weights.

Error bars follow the block structure of the data: per-block means, standard
error = std across block means / sqrt(blocks), so fewer than two blocks
with heralded samples raise ReferenceTooSmallError.  kappa uncertainty is
reported separately and not folded into the per-entry bars.

Values that depend only on the run, the square mode-2 coefficient matrix
``mode2_combination`` (one inversion of psi, cut to the window) and the
terms built from it, are computed once per run: the pair tables go to the
per-block ``accumulate_*`` calls, ``comb`` to the finalizer.  Accumulation
is per-block with no shared state; each call gives a BlockAccumulator of
per-block rows, the rows of all blocks are merged once per run, and the
final reduction is taken in block-index order so results are independent
of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from optomo.bipartite import inverse
from optomo.errors import ReferenceTooSmallError

REFERENCE_SIGMA_FACTOR = 2.0
# magnitudes within this relative distance of the largest tie for the
# reference, so roundoff does not decide between equal elements
REFERENCE_TIE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# block accumulation


@dataclass(frozen=True)
class BlockAccumulator:
    """Per-block dyad moments, one row per block.

    ``moments`` has one dyad moment matrix M per block, as the backend's
    ``block_sums`` returns it; ``n_heralded`` and ``n_trials`` count the
    heralded samples and the trials.  Rows are kept in block-id order, and
    a repeated block id is rejected, so every reduction is independent of
    the order in which blocks were accumulated.
    """

    block_ids: np.ndarray
    moments: np.ndarray
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

    def blocks_with_data(self) -> np.ndarray:
        """Mask of the blocks holding heralded samples.  Raises
        ReferenceTooSmallError when fewer than two do: no spread across
        blocks, and so no standard error, can be formed."""
        keep = self.n_heralded > 0
        nb = int(np.count_nonzero(keep))
        if nb < 2:
            raise ReferenceTooSmallError(
                f"{nb} of {keep.size} blocks hold heralded samples; standard "
                "errors need at least two: raise samples_per_block or blocks")
        return keep

    def block_stats(self, comb) -> tuple[np.ndarray, np.ndarray, int]:
        """Grand mean of the block means (M @ comb) / n of the blocks with
        data, its standard error and the number of those blocks."""
        keep = self.blocks_with_data()
        means = (self.moments[keep] @ comb) / self.n_heralded[keep, None, None]
        nb = means.shape[0]
        grand = means.mean(axis=0)
        stderr = np.sqrt(
            np.sum(np.abs(means - grand) ** 2, axis=0) / (nb * (nb - 1)))
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

    ``magnitudes`` is the table of |phi_ij| over the window, which a run
    takes from its exact output.  Entries within ``REFERENCE_TIE_RTOL`` of
    the largest count as tied with it, and the first of them in row-major
    order is taken.  An all-zero table raises ReferenceTooSmallError: every
    reference denominator would vanish.
    """
    mags = np.abs(np.asarray(magnitudes))
    if not np.any(mags > 0):
        raise ReferenceTooSmallError(
            "the output is zero on the reconstruction window, so no reference "
            "element (i0, j0) has a nonzero denominator; raise n_max")
    flat = int(np.argmax(mags >= mags.max() * (1.0 - REFERENCE_TIE_RTOL)))
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


def mode2_combination(psi: np.ndarray, window: int) -> np.ndarray:
    """Coefficient matrix C[k, j] = (psi^{-1})_{kj} for k, j <= window.

    The mode-2 estimator of |j0><psi^{-1*}(j)| is sum_k C[k, j] times the
    dyad estimator of |j0><k|.  Keeping only the rows k <= window is exact
    when the window's columns of psi^{-1} vanish below it: on the diagonal
    twin beam that every run uses, or with window = d - 1, as on the exact
    path.  Depends on the run only, so it is computed once per run.
    """
    return inverse(np.asarray(psi, dtype=complex))[: window + 1, : window + 1]


def _terms(backend, pairs1, pairs2, comb):
    """The run-only values ``(tables, comb)`` of one estimate kind: the pair
    tables of the two modes' pairs (one table when the pair lists are
    equal) and the mode-2 combination."""
    t1 = backend.pair_table(pairs1)
    t2 = t1 if pairs2 == pairs1 else backend.pair_table(pairs2)
    return (t1, t2), comb


def pure_terms(coef: np.ndarray, i0: int, j0: int, backend):
    """The terms of A_ij: mode-1 pairs |i0><i|, mode-2 pairs |j0><k|
    combined by the square ``coef`` into |j0><psi^{-1*}(j)|.  The reference
    denominator is the moment at (i0, j0)."""
    w1 = coef.shape[0]
    return _terms(backend, [(i0, i) for i in range(w1)],
                  [(j0, k) for k in range(w1)], coef)


def choi_terms(coef: np.ndarray, backend):
    """The terms of <<i,j|R(I)|l,k>>: mode-1 pairs |l><i|, mode-2 pairs
    |a><b| combined by the square ``coef`` into
    |psi^{-1*}(k)><psi^{-1*}(j)|, one pair list for both modes; sums come
    out laid out (l, i), (j, k), and there is no denominator."""
    w1 = coef.shape[0]
    pairs = [(a, b) for a in range(w1) for b in range(w1)]
    # est(j, k) = sum_ab conj(coef[a, k]) coef[b, j] dyad(a, b)
    comb = np.einsum("ak,bj->abjk", coef.conj(), coef).reshape(w1 * w1, -1)
    return _terms(backend, pairs, pairs, comb)


def _choi_layout(m: np.ndarray) -> np.ndarray:
    """Reorder Choi sums from (l, i), (j, k) to the (i, j), (l, k) of R(I)."""
    w1 = round(np.sqrt(m.shape[0]))
    return m.reshape((w1,) * 4).transpose(1, 2, 0, 3).reshape(m.shape)


def _accumulate(blocks, backend, tables) -> BlockAccumulator:
    """One accumulator row per SampleBlock: its dyad moments M
    (``backend.block_sums``) and its sample counts."""
    return BlockAccumulator(
        np.array([blk.block_id for blk in blocks]),
        np.array([backend.block_sums(blk, tables) for blk in blocks]),
        np.array([blk.columns[0].size for blk in blocks]),
        np.array([blk.herald.size for blk in blocks]),
    )


def accumulate_pure(blocks, terms, backend) -> BlockAccumulator:
    """Per-block dyad moments of the pure-operation pairs; ``terms`` is the
    run's ``pure_terms`` on ``backend``."""
    return _accumulate(blocks, backend, terms[0])


def finalize_pure(acc: BlockAccumulator, comb: np.ndarray, i0: int, j0: int,
                  deficit: float) -> MatrixEstimate:
    """Reduce accumulated blocks (in block-index order) to a MatrixEstimate.

    The entries are the block means (M @ comb) / n, ``comb`` the run's
    ``pure_terms`` combination, scaled by kappa = sqrt(p_hat / den): the
    herald frequency over the reference denominator, the mean of
    M[i0, j0].real / n.  ``deficit`` is the run's truncation deficit.
    Raises ReferenceTooSmallError when fewer than two blocks hold heralded
    samples, or when den is within twice its own standard error of zero.
    """
    keep = acc.blocks_with_data()
    p_hat, p_stderr = acc.occurrence()
    dmeans = acc.moments[keep, i0, j0].real / acc.n_heralded[keep]
    den = float(np.mean(dmeans))
    den_stderr = float(np.std(dmeans, ddof=1) / np.sqrt(dmeans.size))
    if den <= REFERENCE_SIGMA_FACTOR * den_stderr or den <= 0.0:
        raise ReferenceTooSmallError(
            f"reference element ({i0},{j0}) too small: denominator "
            f"{den:.3e} +- {den_stderr:.3e}; choose different (i0, j0)"
        )
    kappa = float(np.sqrt(p_hat / den))
    rel = 0.5 * np.sqrt((p_stderr / p_hat) ** 2 + (den_stderr / den) ** 2)
    grand, stderr, nb = acc.block_stats(comb)
    return MatrixEstimate(
        values=kappa * grand,
        std_errors=kappa * stderr,
        kappa=KappaEstimate(
            kappa=kappa, kappa_stderr=float(kappa * rel),
            p_hat=float(p_hat), p_hat_stderr=p_stderr,
            denominator=den, denominator_stderr=den_stderr,
        ),
        i0=i0, j0=j0,
        n_blocks=nb,
        truncation_deficit=deficit,
    )


def accumulate_choi(blocks, terms, backend) -> BlockAccumulator:
    """Per-block dyad moments of the Choi pairs; ``terms`` is the run's
    ``choi_terms`` on ``backend``."""
    return _accumulate(blocks, backend, terms[0])


def finalize_choi(acc: BlockAccumulator, comb: np.ndarray,
                  deficit: float) -> MatrixEstimate:
    """Reduce Choi accumulation; scales by the occurrence estimate and hermitises.

    The ensemble averages of the 4-index estimators refer to the unnormalised
    output R(psi) (trace = occurrence probability); sample means over heralded
    data are therefore multiplied by the herald frequency p_hat before
    inversion to R(I).  ``comb`` is the run's ``choi_terms`` combination;
    the block means come out laid out (l, i), (j, k) and are put, with
    their errors, in the (i, j), (l, k) layout here, once.  ``deficit`` is
    the run's truncation deficit.
    """
    p_hat, p_hat_stderr = acc.occurrence()
    mean, stderr, nb = acc.block_stats(comb)
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


def exact_pure_estimate(branches, weights, psi: np.ndarray, i0: int, j0: int,
                        quorum) -> np.ndarray:
    """The pure chain's ``pure_terms`` under the exact outcome law: the true
    A up to the global phase when the output is ``output_branches`` of the
    one-operator map (A,)."""
    coef = mode2_combination(psi, psi.shape[0] - 1)
    tables, comb = pure_terms(coef, i0, j0, quorum)
    m = quorum.exact_sums(branches, weights, tables)
    return np.sqrt(sum(weights) / m[i0, j0].real) * (m @ comb)


def exact_choi_estimate(branches, weights, psi: np.ndarray,
                        quorum) -> np.ndarray:
    """The Choi chain's ``choi_terms`` and ``_choi_layout`` under the exact
    outcome law of the output branches, times the occurrence probability
    sum(weights), hermitised."""
    coef = mode2_combination(psi, psi.shape[0] - 1)
    tables, comb = choi_terms(coef, quorum)
    m = quorum.exact_sums(branches, weights, tables)
    r_est = sum(weights) * _choi_layout(m @ comb)
    return (r_est + r_est.conj().T) / 2.0
