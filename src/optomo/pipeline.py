"""Orchestration: simulate -> estimate pipelines, verification suites, plot data.

The simulate pipeline is one path for every route (gaussian, fock, finite).
Every operation is a Kraus map; a pure operation is the one-operator case
and is estimated as a matrix, any other as a Choi matrix.  The pipeline
builds the entangler, the operation with its output branches K_n psi (the
one model of the output, which every route and the exact path sample or
tabulate), and the measurement backend from a config, samples records block by
block (each block on its own RNG substream, through one heralded-block
sampler; the routes differ only in how they draw the heralded samples),
accumulates each block's dyad moments, merges the blocks once and writes the
result document plus plot-data files.  Every block is one ``SampleBlock``
of heralded samples, dropped once accumulated; the optional sample dump
draws the blocks again, one at a time.
Values that depend only on the run (the homodyne kernel or finite quorum,
the mode-2 estimator coefficients and the estimator terms built from them,
and the sampler record of the output branches: ``fock_tables`` on the Fock
route, the joint outcome table and its running sum on the finite one, each
built from ``(branches, weights)`` in one call) are built once, after the
dry-run return, and shared read-only by all workers.  Worker count only
affects wall-clock: block substreams and the ordered reduction make outputs
byte-identical for any --threads value.
"""

from __future__ import annotations

import concurrent.futures
import math
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from optomo import estimation, report, sampling
from optomo.bipartite import inverse, phase_align
from optomo.config import ExperimentConfig, config_hash, load_preset
from optomo.errors import (
    ConfigError,
    ReferenceTooSmallError,
    VerificationFailure,
)
from optomo.estimation import (
    MatrixEstimate,
    exact_choi_estimate,
    exact_pure_estimate,
    select_reference,
)
from optomo.fock import noise_sigma2
from optomo.maps import (
    KrausMap,
    choi_to_kraus,
    displacement_matrix,
    kraus_to_choi,
    map_from_choi,
    output_branches,
    twin_beam,
)
from optomo.quorum import GridSpec, build_finite_quorum, build_homodyne_kernel
from optomo.sampling import (
    SampleBlock,
    displaced_twinbeam_gaussian,
    draw_heralds,
    fock_tables,
    joint_outcome_table,
    sample_finite,
    sample_fock_general,
    sample_quadratures,
    substream,
)


# ---------------------------------------------------------------------------
# theory targets


def _laguerre(n: int, alpha: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^{(alpha)}(x) by the three-term
    recurrence (k + 1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def displacement_theory(z: complex, n_max: int) -> np.ndarray:
    """Closed-form Fock matrix elements of D(z) on the window.

    <m|D(z)|n> = sqrt(n!/m!) z^{m-n} e^{-|z|^2/2} L_n^{(m-n)}(|z|^2) for
    m >= n, and the same with -z* in place of z for the mirrored <n|D(z)|m>.
    """
    w1 = n_max + 1
    out = np.empty((w1, w1), dtype=complex)
    a2 = abs(z) ** 2
    pref = np.exp(-a2 / 2.0)
    for m in range(w1):
        for n in range(m + 1):
            scale = np.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)))
            lag = _laguerre(n, m - n, a2)
            out[m, n] = pref * (scale * z ** (m - n) * lag)
            out[n, m] = pref * (scale * (-np.conj(z)) ** (m - n) * lag)
    return out


def theory_matrix(cfg: ExperimentConfig, op: KrausMap,
                  window: int) -> np.ndarray | None:
    """Exact operation matrix on the reconstruction window, if closed-form;
    a single operator of ``op`` (from ``build_operation``) is its own theory."""
    if cfg.operation == "displacement":
        return displacement_theory(cfg.z, window)
    if len(op.kraus) == 1:
        return op.kraus[0][: window + 1, : window + 1]
    return None  # general Kraus maps are estimated as Choi matrices


def load_kraus_file(path: str) -> KrausMap:
    """Kraus operators from a .npy stack of shape (n_kraus, d, d); a file that
    cannot be read or holds no Kraus map raises a ConfigError naming it."""
    try:
        arr = np.load(path)
        if not isinstance(arr, np.ndarray):  # an .npz archive
            arr.close()
            raise ValueError("need a .npy array file, got an .npz archive")
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"need a (n, d, d) stack, got shape {arr.shape}")
        return KrausMap(tuple(arr.astype(complex)))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"kraus_file {path}: {exc}") from exc


def build_operation(cfg: ExperimentConfig, dim_cut: int) -> KrausMap:
    """The run's operation as Kraus operators on the dim_cut Fock space; a
    pure operation (displacement, identity, one-operator file) has one."""
    if cfg.operation == "displacement":
        m = displacement_matrix(cfg.z, dim_cut)
        # the cropped exponential can exceed unit norm by rounding; rescale
        top = np.linalg.norm(m, 2)
        if top > 1.0:
            m = m / top
        return KrausMap((m,))
    if cfg.operation == "identity":
        return KrausMap((np.eye(dim_cut, dtype=complex),))
    kraus = load_kraus_file(cfg.kraus_file)
    if kraus.dim > dim_cut:
        raise ConfigError(
            f"kraus operators of dim {kraus.dim} exceed dim_cut {dim_cut}"
        )
    if kraus.dim < dim_cut:
        pad = ((0, dim_cut - kraus.dim),) * 2
        kraus = KrausMap(tuple(np.pad(k, pad) for k in kraus.kraus))
    return kraus


# ---------------------------------------------------------------------------
# simulation


@dataclass
class SimResult:
    estimate: MatrixEstimate
    kind: str
    paths: list
    wall_seconds: float
    dry_report: list = None


def _heralded_block(cfg, p_occ, block_id, draw):
    """One SampleBlock on the block's own substream.

    Heralds are drawn first; ``draw(n_heralded, rng)`` then returns the
    columns of the heralded samples, kept as the block's ``columns``.
    """
    rng = substream(cfg.master_seed, block_id)
    herald = draw_heralds(p_occ, cfg.samples_per_block, rng)
    return SampleBlock(block_id, herald, draw(int(herald.sum()), rng))


def _map_blocks(make_block, accumulate_one, block_ids, threads):
    """Per-block sample + accumulate; the block accumulators are merged once,
    in block order, so the result does not depend on scheduling.  Each
    sampled block is dropped once accumulated.
    """
    def work(bid):
        return accumulate_one(make_block(bid))

    if threads <= 1:
        accs = [work(b) for b in block_ids]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            accs = list(pool.map(work, block_ids))
    return accs[0].merge(*accs[1:])


def run_simulate(
    cfg: ExperimentConfig,
    threads: int = 1,
    dry_run: bool = False,
    out_dir=".",
) -> SimResult:
    """Full simulate -> estimate -> report pipeline; returns the estimate and paths.

    Every route runs the same chain: the estimate kind, the output branches
    with their weights, the occurrence probability (1 on the Gaussian route,
    which heralds every trial) and the reference are worked out once, before
    the dry-run return; a reference element that is exactly zero in the
    output (an explicit one, or any when the output is zero over the window)
    raises ReferenceTooSmallError there, before anything is sampled.  The
    routes differ only in the entangler (the finite route renormalises the
    truncated twin beam, so it carries no truncation deficit), in the
    measurement backend (homodyne kernel or finite quorum) and in how the
    heralded samples of a block are drawn.  ``out_dir``, backends, sampler
    tables, the mode-2 coefficients and the estimator terms are made once
    per run, after the dry-run return: a dry run writes nothing.
    """
    cfg.validate()
    t0 = time.perf_counter()
    route = cfg.resolved_route()
    window = cfg.n_max
    dim_cut = cfg.resolved_dim_cut()
    if route == "finite":
        beam = twin_beam(cfg.nbar, dim_cut, deficit_bound=1.0)
        psi = beam.psi / np.linalg.norm(beam.psi)
        deficit = 0.0
    else:
        beam = twin_beam(cfg.nbar, dim_cut)
        psi, deficit = beam.psi, beam.deficit
    op = build_operation(cfg, dim_cut)
    kind = "pure" if len(op.kraus) == 1 else "choi"
    if kind == "choi" and cfg.reference != "auto":
        raise ConfigError(f"reference applies to pure operations only; this "
                          f"one has {len(op.kraus)} Kraus operators")
    theory = theory_matrix(cfg, op, window)

    branches, weights = output_branches(op, psi)  # pure: one branch
    # the sampled Gaussian state is untruncated, and in it the unitary
    # displacement always occurs: p_occ = 1 draws no heralds
    p_occ = 1.0 if route == "gaussian" else float(sum(weights))
    i0 = j0 = 0
    if kind == "pure":
        i0, j0 = cfg.resolved_reference() or select_reference(
            np.abs(branches[0][: window + 1, : window + 1]))
        if branches[0][i0, j0] == 0:
            raise ReferenceTooSmallError(
                f"reference element ({i0},{j0}) is exactly zero in the output, "
                f"so its denominator vanishes; choose different (i0, j0)")

    if dry_run:
        lines = [f"config_hash = {config_hash(cfg)}", f"route = {route}",
                 f"dim_cut = {dim_cut}", f"estimate_kind = {kind}",
                 f"p_occurrence = {p_occ:.9g}", f"i0 = {i0}", f"j0 = {j0}",
                 f"truncation_deficit = {deficit:.3e}"]
        if theory is not None:
            for n in range(window + 1):
                lines.append(f"theory A_{n}{n} = {theory[n, n]:.9g}")
        return SimResult(estimate=None, kind=kind, paths=[],
                         wall_seconds=time.perf_counter() - t0,
                         dry_report=lines)

    out_dir = _make_dir(out_dir)
    if route == "finite":
        backend = build_finite_quorum(dim_cut)
        cdf = np.cumsum(joint_outcome_table(branches, weights, backend))
        draw = lambda n, rng: sample_finite(cdf, n, rng)
    else:
        grid = GridSpec(cfg.resolved_half_width(), cfg.grid_spacing)
        backend = build_homodyne_kernel(
            dim_cut, cfg.eta, grid, max_index=window, ridge=cfg.ridge,
            cache_dir=out_dir / "kernel-cache",
        )
        if route == "gaussian":
            z = cfg.z if cfg.operation == "displacement" else 0.0
            state = displaced_twinbeam_gaussian(z, cfg.nbar)
            draw = lambda n, rng: sample_quadratures(state, cfg.eta, n, rng)
        else:
            tables = fock_tables(branches, weights)
            draw = lambda n, rng: sample_fock_general(tables, cfg.eta, n, rng)
    make_block = lambda b: _heralded_block(cfg, p_occ, b, draw)

    coef, coef_deficit = estimation.mode2_combination(
        psi, window, min(backend.max_index, psi.shape[0] - 1))
    if kind == "pure":
        terms = estimation.pure_terms(coef, i0, j0, backend)
        accumulate = estimation.accumulate_pure
    else:
        terms = estimation.choi_terms(coef, backend)
        accumulate = estimation.accumulate_choi
    accumulate_one = lambda blk: accumulate([blk], terms, backend)

    acc = _map_blocks(make_block, accumulate_one, list(range(cfg.blocks)),
                      threads)
    total_deficit = coef_deficit + deficit
    comb = terms[1]
    if kind == "pure":
        estimate = estimation.phase_fix(
            estimation.finalize_pure(acc, comb, i0, j0, total_deficit))
    else:
        estimate = estimation.finalize_choi(acc, comb, total_deficit)

    paths = _write_outputs(cfg, estimate, kind, theory, out_dir, make_block)
    return SimResult(estimate=estimate, kind=kind, paths=paths,
                     wall_seconds=time.perf_counter() - t0)


def _make_dir(out_dir) -> pathlib.Path:
    """Create ``out_dir`` and its parents; a path that cannot be a directory
    raises a ConfigError naming it."""
    out_dir = pathlib.Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir}: {exc}") from exc
    return out_dir


def _write_outputs(cfg, estimate, kind, theory, out_dir, make_block):
    """Write the result document, the plot data of a pure estimate and, with
    ``dump_samples``, the sample dump: the blocks are drawn again one at a
    time by ``make_block``, each on its own substream, so the dump holds the
    samples that were estimated from while only one block is in memory."""
    result_path = out_dir / f"{cfg.out_prefix}.result.txt"
    result_path.write_text(report.render_result(cfg, estimate, kind))
    paths = [result_path]
    if kind == "pure":
        paths += _write_plotdata(out_dir, cfg.out_prefix, estimate.values,
                                 estimate.std_errors, theory,
                                 estimate.i0, estimate.j0)
    if cfg.dump_samples:
        dump_path = out_dir / f"{cfg.out_prefix}.samples.csv"
        sampling.write_sample_dump(dump_path,
                                   map(make_block, range(cfg.blocks)))
        paths.append(dump_path)
    return paths


def _write_plotdata(out_dir, prefix, values, std_errors, theory,
                    i0, j0) -> list:
    """Write the diagonal and matrix plot-data files; no theory gives zeros.

    The theory is rotated to the estimate's convention, theory[i0, j0] real
    positive."""
    if theory is None:
        theory = np.zeros_like(values)
    theory = theory * np.exp(-1j * np.angle(theory[i0, j0]))
    diag = out_dir / f"{prefix}.diagonal.csv"
    diag.write_text(report.render_plotdata_diagonal(values, std_errors, theory))
    mat = out_dir / f"{prefix}.matrix.csv"
    mat.write_text(report.render_plotdata_matrix(values, std_errors))
    return [diag, mat]


def emit_plotdata(result_path, out_dir=".") -> list:
    """Regenerate plot-data files from a result document.

    The document stores 10 significant digits, so regenerated files can differ
    from the originals in the last digit.
    """
    result_path = pathlib.Path(result_path)
    try:
        doc = report.parse_result(result_path.read_text())
    except (OSError, ValueError, ConfigError) as exc:  # unreadable, malformed
        raise ConfigError(f"result document {result_path}: {exc}") from exc
    if doc.kind != "pure":
        raise ConfigError(
            "plot data is defined for pure-operation results; this document "
            "holds a Choi-matrix estimate"
        )
    out_dir = _make_dir(out_dir)
    cfg = doc.config
    theory = theory_matrix(cfg, build_operation(cfg, cfg.resolved_dim_cut()),
                           doc.values.shape[0] - 1)
    return _write_plotdata(out_dir, cfg.out_prefix, doc.values,
                           doc.std_errors, theory, int(doc.summary["i0"]),
                           int(doc.summary["j0"]))


# ---------------------------------------------------------------------------
# verification suites


def _check(lines, name, value, bound, ok=None):
    ok = (value <= bound) if ok is None else ok
    lines.append(
        f"check={name} status={'pass' if ok else 'fail'} "
        f"value={value:.6g} bound={bound:.6g}"
    )
    return ok


def verify_unbiasedness(seed: int = 7) -> tuple[bool, list]:
    """Exact unbiasedness at d = 2 and 3 of the estimator chain that sampled
    runs use, taken over every finite outcome with its exact probability."""
    lines = []
    ok = True
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        quorum = build_finite_quorum(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a / (np.linalg.svd(a, compute_uv=False)[0] * 1.25)
        psi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        psi = psi / np.linalg.norm(psi)
        est = exact_pure_estimate(*output_branches(KrausMap((a,)), psi), psi,
                                  0, 0, quorum)
        _, dist = phase_align(a, est)
        ok &= _check(lines, f"pure-chain-d{d}", dist, 1e-10)

        ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
              for _ in range(2)]
        norm = np.linalg.eigvalsh(sum(k.conj().T @ k for k in ks))[-1]
        kmap = KrausMap(tuple(k / np.sqrt(norm * 1.1) for k in ks))
        est_choi = exact_choi_estimate(*output_branches(kmap, psi), psi,
                                       quorum)
        truth = kraus_to_choi(kmap).matrix
        dist = float(np.max(np.abs(est_choi - truth)))
        ok &= _check(lines, f"choi-chain-d{d}", dist, 1e-10)
    return ok, lines


def verify_choi(seed: int = 11) -> tuple[bool, list]:
    """Choi conversions and the consistency triangle at d = 3: R(I) rebuilt
    from the output branches K_n psi (the model every route samples) as the
    Kraus map sqrt(w_n) Phi_n psi^{-1} matches kraus_to_choi."""
    lines = []
    ok = True
    rng = np.random.default_rng(seed)
    d = 3
    ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    norm = np.linalg.eigvalsh(sum(k.conj().T @ k for k in ks))[-1]
    kmap = KrausMap(tuple(k / np.sqrt(norm) for k in ks))
    choi = kraus_to_choi(kmap)

    def worst_action_error(apply):
        """Largest deviation from kmap's action over 20 random states."""
        worst = 0.0
        for _ in range(20):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            rho = rho / np.trace(rho)
            worst = max(worst, float(np.max(np.abs(apply(rho) - kmap.apply(rho)))))
        return worst

    ok &= _check(lines, "choi-action",
                 worst_action_error(lambda rho: map_from_choi(choi, rho)), 1e-12)

    psi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psi = psi / np.linalg.norm(psi)
    branches, weights = output_branches(kmap, psi)
    tri = kraus_to_choi(KrausMap(tuple(np.sqrt(w) * b @ inverse(psi)
                                       for b, w in zip(branches, weights))))
    dist = float(np.max(np.abs(tri.matrix - choi.matrix)))
    ok &= _check(lines, "consistency-triangle", dist, 1e-10)

    worst = worst_action_error(choi_to_kraus(choi).apply)
    ok &= _check(lines, "kraus-roundtrip-action", worst, 1e-10)
    return ok, lines


def calibration_worst_error(eta: float, dim_cut: int = 16,
                            half_width: float = 12.0) -> float:
    """Worst kernel-recovery error over the calibration family.

    States: vacuum, coherent(alpha = 1), thermal(nbar = 1); their
    eta-smeared quadrature distributions are exact Gaussians, integrated
    against the kernels over 256 phase nodes.  Checked for all matrix
    elements with indices <= dim_cut / 2.
    """
    from math import factorial

    grid = GridSpec(half_width)
    kernel = build_homodyne_kernel(dim_cut, eta, grid,
                                   max_index=dim_cut // 2)
    sig2 = noise_sigma2(eta)
    x = kernel.x
    dx = grid.spacing
    nphi = 256
    phis = np.arange(nphi) * 2.0 * np.pi / nphi
    alpha = 1.0
    nbar = 1.0
    states = {
        "vacuum": (lambda phi: 0.0, 0.25 + sig2,
                   lambda n, m: 1.0 if n == m == 0 else 0.0),
        "coherent": (lambda phi: np.real(alpha * np.exp(-1j * phi)),
                     0.25 + sig2,
                     lambda n, m: np.exp(-abs(alpha) ** 2) * alpha ** (n + m)
                     / np.sqrt(factorial(n) * factorial(m))),
        "thermal": (lambda phi: 0.0, (2 * nbar + 1) / 4.0 + sig2,
                    lambda n, m: (nbar / (nbar + 1)) ** n / (nbar + 1)
                    if n == m else 0.0),
    }
    worst = 0.0
    half = dim_cut // 2
    for mean_fn, var, rho_fn in states.values():
        pdfs = np.array([
            np.exp(-0.5 * (x - mean_fn(phi)) ** 2 / var)
            / np.sqrt(2 * np.pi * var)
            for phi in phis
        ])  # (nphi, G)
        for n in range(half + 1):
            for m in range(n, half + 1):
                f = kernel.pattern(n, m)
                xint = pdfs @ f * dx  # (nphi,)
                est = np.mean(xint * np.exp(1j * (m - n) * phis))
                worst = max(worst, abs(est - rho_fn(n, m)))
    return worst


def verify_kernels(etas=(1.0, 0.9, 0.7)) -> tuple[bool, list]:
    lines = []
    ok = True
    for eta in etas:
        worst = calibration_worst_error(eta)
        ok &= _check(lines, f"kernel-calibration-eta{eta}", worst, 1e-3)
    return ok, lines


def verify_sampler_moments(seed: int = 23) -> tuple[bool, list]:
    """Gaussian-sampler moments against closed forms (4 sigma z-tests)."""
    lines = []
    ok = True
    n = 10**6
    for eta in (1.0, 0.9, 0.7):
        vac = displaced_twinbeam_gaussian(0.0, 0.0)
        rng = sampling.substream(seed, 0)
        _, _, x1, _ = sample_quadratures(vac, eta, n, rng)
        var = float(np.var(x1))
        target = 1.0 / (4.0 * eta)
        tol = 4.0 * target * np.sqrt(2.0 / n)
        ok &= _check(lines, f"vacuum-variance-eta{eta}", abs(var - target), tol)
    nbar = 3.0
    beam = displaced_twinbeam_gaussian(0.0, nbar)
    rng = sampling.substream(seed, 1)
    _, _, x1, x2 = sample_quadratures(beam, 1.0, n, rng)
    target = (2.0 * nbar + 1.0) / 4.0
    tol = 4.0 * target * np.sqrt(2.0 / n)
    ok &= _check(lines, "twinbeam-reduced-variance", abs(float(np.var(x1)) - target),
                 tol)
    rng = sampling.substream(seed, 2)
    _, _, y1, y2 = sample_quadratures(beam, 1.0, n, rng, phases=(0.0, 0.0))
    squeezed = float(np.var(y1 - y2))
    ok &= _check(lines, "two-mode-squeezing",
                 squeezed, float(np.var(y1) + np.var(y2)))
    return ok, lines


VERIFY_SUITES = {
    "unbiasedness": verify_unbiasedness,
    "choi": verify_choi,
    "kernels": verify_kernels,
    "sampler-moments": verify_sampler_moments,
}


def run_verify(suite: str, **kwargs) -> list:
    """Run one verification suite; raises VerificationFailure on any failure."""
    if suite not in VERIFY_SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; available: {sorted(VERIFY_SUITES)}"
        )
    ok, lines = VERIFY_SUITES[suite](**kwargs)
    if not ok:
        raise VerificationFailure("\n".join(lines))
    return lines


def load_config_or_preset(name_or_path: str) -> ExperimentConfig:
    """Treat the argument as a preset name first, then as a config file path;
    a path that is no readable text file raises a ConfigError naming it."""
    from optomo.config import PRESETS, parse_config

    if name_or_path in PRESETS:
        return load_preset(name_or_path)
    try:
        text = pathlib.Path(name_or_path).read_text()
    except (OSError, ValueError) as exc:  # missing, a directory, not text
        raise ConfigError(f"no preset or readable config file named "
                          f"{name_or_path!r}: {exc}") from exc
    return parse_config(text)
