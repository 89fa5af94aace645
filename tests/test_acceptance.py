"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines live.  Criteria 1 and 2 run the full-scale simulated experiments and
dominate the runtime (a couple of minutes total).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from optomo.bipartite import phase_align
from optomo.config import load_preset
from optomo.estimation import (
    accumulate_pure,
    align_to_truth,
    exact_choi_estimate,
    exact_pure_estimate,
    finalize_pure,
    mode2_combination,
    pure_terms,
)
from optomo.maps import (
    KrausMap,
    apply_pure,
    kraus_to_choi,
    map_from_choi,
    output_branches,
)
from optomo.pipeline import (
    calibration_worst_error,
    displacement_theory,
    run_simulate,
)
from optomo.quorum import build_finite_quorum
from optomo.sampling import (
    displaced_twinbeam_gaussian,
    sample_quadratures,
    substream,
)

from oracles import random_contraction, random_density, random_invertible_state, random_kraus_map
from test_estimation import make_finite_blocks


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def run_fig2(preset_name: str, out_dir):
    cfg = replace(load_preset(preset_name), out_prefix=preset_name)
    t0 = time.perf_counter()
    result = run_simulate(cfg, threads=1, out_dir=out_dir)
    wall = time.perf_counter() - t0
    est = result.estimate
    truth = displacement_theory(1.0, cfg.n_max)
    aligned = align_to_truth(est, truth)
    diag_ok = sum(
        abs(aligned[n, n] - truth[n, n]) <= 3.0 * est.std_errors[n, n]
        for n in range(7)
    )
    off_ok = sum(
        abs(abs(aligned[n, n + 1]) - abs(truth[n, n + 1]))
        <= 3.0 * est.std_errors[n, n + 1]
        for n in range(7)
    )
    return est, wall, diag_ok, off_ok


@pytest.fixture(scope="module")
def fig2_top(tmp_path_factory):
    return run_fig2("fig2_top", tmp_path_factory.mktemp("fig2_top"))


@pytest.fixture(scope="module")
def fig2_bottom(tmp_path_factory):
    return run_fig2("fig2_bottom_scaled", tmp_path_factory.mktemp("fig2_bot"))


class TestCriterion1Fig2Top:
    def test_full_scale_reproduction(self, fig2_top):
        est, wall, diag_ok, off_ok = fig2_top
        ok = diag_ok >= 6 and off_ok >= 6 and wall < 600.0
        report("1 (fig2 top)", ok,
               f"diag {diag_ok}/7 and offdiag {off_ok}/7 within 3 sigma, "
               f"wall {wall:.1f} s < 600 s")
        assert diag_ok >= 6
        assert off_ok >= 6
        assert wall < 600.0


class TestCriterion2Fig2Bottom:
    def test_scaled_reproduction(self, fig2_bottom, fig2_top):
        est, wall, diag_ok, off_ok = fig2_bottom
        top_est = fig2_top[0]
        win = np.s_[:8, :8]
        larger = float(np.mean(est.std_errors[win])) > float(
            np.mean(top_est.std_errors[win]))
        ok = diag_ok >= 6 and off_ok >= 6 and larger
        report("2 (fig2 bottom scaled)", ok,
               f"diag {diag_ok}/7, offdiag {off_ok}/7, mean stderr "
               f"{np.mean(est.std_errors[win]):.3g} > top "
               f"{np.mean(top_est.std_errors[win]):.3g}")
        assert diag_ok >= 6
        assert off_ok >= 6
        assert larger


class TestCriterion3ExactUnbiasedness:
    def test_exact_chain(self):
        rng = np.random.default_rng(303)
        t0 = time.perf_counter()
        worst_pure = 0.0
        worst_choi = 0.0
        for d in (2, 3):
            quorum = build_finite_quorum(d)
            a = random_contraction(rng, d)
            psi = random_invertible_state(rng, d)
            phi, p = apply_pure(a, psi)
            est = exact_pure_estimate([phi], [p], psi, 0, 0, quorum)
            _, dist = phase_align(a, est)
            worst_pure = max(worst_pure, dist)
            kmap = KrausMap(tuple(random_kraus_map(rng, d)))
            est_r = exact_choi_estimate(*output_branches(kmap, psi), psi,
                                        quorum)
            worst_choi = max(
                worst_choi,
                float(np.max(np.abs(est_r - kraus_to_choi(kmap).matrix))),
            )
        wall = time.perf_counter() - t0
        ok = worst_pure < 1e-10 and worst_choi < 1e-10
        report("3 (exact unbiasedness)", ok,
               f"pure {worst_pure:.2e}, choi {worst_choi:.2e} <= 1e-10 "
               f"in {wall:.1f} s")
        assert worst_pure < 1e-10
        assert worst_choi < 1e-10


class TestCriterion4ChoiRoundtrip:
    def test_choi_action_d3(self):
        rng = np.random.default_rng(404)
        kmap = KrausMap(tuple(random_kraus_map(rng, 3)))
        choi = kraus_to_choi(kmap)
        worst = 0.0
        for _ in range(20):
            rho = random_density(rng, 3)
            worst = max(worst, float(np.max(np.abs(
                map_from_choi(choi, rho) - kmap.apply(rho)))))
        ok = worst < 1e-12
        report("4 (choi roundtrip)", ok, f"worst action distance {worst:.2e} <= 1e-12")
        assert worst < 1e-12


class TestCriterion5KernelCalibration:
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.7])
    def test_calibration(self, eta):
        worst = calibration_worst_error(eta)
        ok = worst < 1e-3
        report(f"5 (kernel calibration eta={eta})", ok,
               f"worst recovery error {worst:.2e} <= 1e-3")
        assert worst < 1e-3


class TestCriterion6SamplerMoments:
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.7])
    def test_vacuum_variance(self, eta):
        n = 10**6
        rng = substream(606, int(eta * 10))
        state = displaced_twinbeam_gaussian(0.0, 0.0)
        _, _, x1, _ = sample_quadratures(state, eta, n, rng)
        target = 1.0 / (4.0 * eta)
        tol = 4.0 * target * np.sqrt(2.0 / n)
        dev = abs(float(np.var(x1)) - target)
        ok = dev <= tol
        report(f"6 (vacuum variance eta={eta})", ok,
               f"|var - {target:.4f}| = {dev:.2e} <= 4 sigma = {tol:.2e}")
        assert dev <= tol

    def test_twin_beam_reduced_variance(self):
        n = 10**6
        nbar = 3.0
        rng = substream(606, 99)
        state = displaced_twinbeam_gaussian(0.0, nbar)
        _, _, x1, _ = sample_quadratures(state, 1.0, n, rng)
        target = (2 * nbar + 1) / 4.0
        tol = 4.0 * target * np.sqrt(2.0 / n)
        dev = abs(float(np.var(x1)) - target)
        ok = dev <= tol
        report("6 (twin-beam reduced variance)", ok,
               f"|var - {target}| = {dev:.2e} <= 4 sigma = {tol:.2e}")
        assert dev <= tol


class TestCriterion7Heralding:
    def test_projector_on_maximally_entangled(self):
        d = 2
        quorum = build_finite_quorum(d)
        psi = np.eye(d) / np.sqrt(d)
        proj = np.zeros((d, d), dtype=complex)
        proj[0, 0] = 1.0
        phi, p = apply_pure(proj, psi)
        assert abs(p - 0.5) < 1e-12
        n_trials = 10**5
        blocks = make_finite_blocks([phi], [p], quorum, 50, n_trials // 50,
                                    seed=707, p_occ=p)
        coef, deficit = mode2_combination(psi, 1, 1)
        terms = pure_terms(coef, 0, 0, quorum)
        est = finalize_pure(accumulate_pure(blocks, terms, quorum), terms[1],
                            0, 0, deficit)
        sigma_bin = np.sqrt(0.5 * 0.5 / n_trials)
        herald_dev = abs(est.kappa.p_hat - 0.5)
        herald_ok = herald_dev <= 4.0 * sigma_bin
        aligned = align_to_truth(est, proj)
        dist = float(np.linalg.norm(aligned - proj))
        budget = 5.0 * float(np.sqrt(np.sum(est.std_errors**2)))
        recon_ok = dist <= budget
        ok = herald_ok and recon_ok
        report("7 (heralding)", ok,
               f"|p_hat - 0.5| = {herald_dev:.2e} <= {4 * sigma_bin:.2e}; "
               f"aligned distance {dist:.3g} <= {budget:.3g}")
        assert herald_ok
        assert recon_ok


class TestCriterion8StatisticalScaling:
    def test_quadrupling_halves_errors(self, tmp_path):
        base = replace(load_preset("fig2_top"), blocks=30,
                       samples_per_block=2000, n_max=5, out_prefix="scale1")
        big = replace(base, blocks=120, out_prefix="scale4")
        r1 = run_simulate(base, out_dir=tmp_path)
        r4 = run_simulate(big, out_dir=tmp_path)
        m1 = float(np.mean(r1.estimate.std_errors))
        m4 = float(np.mean(r4.estimate.std_errors))
        ratio = m4 / m1
        ok = 0.375 <= ratio <= 0.625
        report("8 (statistical scaling)", ok,
               f"stderr ratio {ratio:.3f} within 0.5 +- 25%")
        assert 0.375 <= ratio <= 0.625


class TestCriterion9Determinism:
    def test_byte_identical_results(self, tmp_path):
        cfg = replace(load_preset("fig2_top"), blocks=8,
                      samples_per_block=1000, out_prefix="det")
        run_simulate(cfg, threads=1, out_dir=tmp_path / "a")
        run_simulate(cfg, threads=4, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "det.result.txt").read_bytes()
        b = (tmp_path / "b" / "det.result.txt").read_bytes()
        ok = a == b
        report("9 (determinism)", ok,
               f"result documents identical across thread counts: {ok}")
        assert ok
