"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines live.  Criteria 1 and 2 run the full-scale simulated experiments and
dominate the runtime (a couple of minutes total).  Criteria 3-6 are the four
``optomo verify`` suites, run once each through ``run_verify`` and reported
from their check lines; criteria 5 and 6 also report each calibration and
variance check line as a test of its own.
"""

import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from optomo.config import load_preset
from optomo.errors import VerificationFailure
from optomo.estimation import (
    accumulate_pure,
    align_to_truth,
    finalize_pure,
    mode2_combination,
    pure_terms,
)
from optomo.maps import apply_pure
from optomo.pipeline import (
    VERIFY_SUITES,
    displacement_theory,
    run_simulate,
    run_verify,
)
from optomo.quorum import build_finite_quorum

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


# the verify suite behind each of criteria 3-6; every suite must have one
SUITE_CRITERIA = {
    "unbiasedness": "3 (exact unbiasedness)",
    "choi": "4 (choi roundtrip)",
    "kernels": "5 (kernel calibration)",
    "sampler-moments": "6 (sampler moments)",
}


@functools.cache
def suite_result(suite):
    """Check lines of one verify suite and whether it passed, run once."""
    try:
        return tuple(run_verify(suite)), True
    except VerificationFailure as exc:
        return tuple(str(exc).splitlines()), False


def suite_checks(suite):
    lines, _ = suite_result(suite)
    return {c["check"]: c for c in (
        dict(field.split("=", 1) for field in line.split()) for line in lines)}


def assert_suite_check(suite, name, criterion):
    """Report and assert the one check line `name` of a verify suite."""
    check = suite_checks(suite)[name]
    ok = check["status"] == "pass"
    report(criterion, ok, f"{name} {check['value']} <= {check['bound']}")
    assert ok, check


class TestCriteria3To6VerifySuites:
    @pytest.mark.parametrize("suite", list(VERIFY_SUITES))
    def test_suite(self, suite):
        assert SUITE_CRITERIA.keys() == VERIFY_SUITES.keys()
        lines, ok = suite_result(suite)
        report(SUITE_CRITERIA[suite], ok, "; ".join(
            f"{c['check']} {c['value']} <= {c['bound']}"
            for c in suite_checks(suite).values()))
        assert ok, "\n".join(lines)


class TestCriterion5KernelCalibration:
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.7])
    def test_calibration(self, eta):
        assert_suite_check("kernels", f"kernel-calibration-eta{eta}",
                           f"5 (kernel calibration eta={eta})")


class TestCriterion6SamplerMoments:
    @pytest.mark.parametrize("eta", [1.0, 0.9, 0.7])
    def test_vacuum_variance(self, eta):
        assert_suite_check("sampler-moments", f"vacuum-variance-eta{eta}",
                           f"6 (vacuum variance eta={eta})")

    def test_twin_beam_reduced_variance(self):
        assert_suite_check("sampler-moments", "twinbeam-reduced-variance",
                           "6 (twin-beam reduced variance)")


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
        coef = mode2_combination(psi, 1)
        terms = pure_terms(coef, 0, 0, quorum)
        est = finalize_pure(accumulate_pure(blocks, terms, quorum), terms[1],
                            0, 0, 0.0)
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
