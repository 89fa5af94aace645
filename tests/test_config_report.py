from dataclasses import replace

import numpy as np
import pytest
from oracles import render_rows_by_entry

from optomo.config import (
    PRESETS,
    ExperimentConfig,
    config_hash,
    load_preset,
    parse_config,
    write_config,
)
from optomo.errors import ConfigError
from optomo.estimation import KappaEstimate, MatrixEstimate
from optomo.report import (
    parse_result,
    render_plotdata_diagonal,
    render_plotdata_matrix,
    render_result,
)


class TestConfig:
    def test_roundtrip_lossless(self):
        cfg = ExperimentConfig(z=0.5 - 0.25j, nbar=2.5, eta=0.85, blocks=7,
                               samples_per_block=123, master_seed=99,
                               grid_half_width=17.25, dump_samples=True)
        assert parse_config(write_config(cfg)) == cfg

    def test_roundtrip_all_presets(self):
        for name in PRESETS:
            cfg = load_preset(name)
            assert parse_config(write_config(cfg)) == cfg

    def test_hash_stable(self):
        cfg = ExperimentConfig()
        assert config_hash(cfg) == config_hash(parse_config(write_config(cfg)))

    def test_missing_header(self):
        with pytest.raises(ConfigError, match="header"):
            parse_config("operation = identity\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("optomo-config v1\nbogus = 3\n")

    def test_bad_version(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config("optomo-config v9\n")

    def test_trailing_comments(self):
        # the example config of the README, comments included
        cfg = parse_config(
            "optomo-config v1\n"
            "operation = displacement     # displacement | identity | kraus\n"
            "z = 1+0j\nnbar = 5.0\neta = 0.9   # detector efficiency\n"
            "blocks = 150\nsamples_per_block = 10000\nn_max = 7\n"
            "master_seed = 20260809\nout_prefix = fig2_top\n"
        )
        assert cfg.operation == "displacement"
        assert cfg.eta == 0.9
        assert cfg == load_preset("fig2_top")

    def test_dump_samples_values(self):
        for text, value in (("true", True), ("Yes", True), ("1", True),
                            ("false", False), ("no", False), ("0", False)):
            cfg = parse_config(f"optomo-config v1\ndump_samples = {text}\n")
            assert cfg.dump_samples is value
        for bad in ("ture", "on", ""):
            with pytest.raises(ConfigError, match="dump_samples"):
                parse_config(f"optomo-config v1\ndump_samples = {bad}\n")

    def test_eta_out_of_domain(self):
        with pytest.raises(ConfigError, match="eta"):
            ExperimentConfig(eta=0.5).validate()
        with pytest.raises(ConfigError, match="eta"):
            ExperimentConfig(eta=1.2).validate()

    def test_nbar_dim_cut_rejection(self):
        # actionable message for an effectively non-invertible entangler
        with pytest.raises(ConfigError, match="raise dim_cut"):
            ExperimentConfig(nbar=5.0, dim_cut=10).validate()

    def test_nbar_zero_rejected_for_reconstruction(self):
        # every route inverts psi, the identity operation included
        for operation in ("displacement", "identity"):
            with pytest.raises(ConfigError, match="rank-one"):
                ExperimentConfig(operation=operation, nbar=0.0).validate()

    def test_reference_parsing(self):
        cfg = ExperimentConfig(reference="2,3")
        cfg.validate()
        assert cfg.resolved_reference() == (2, 3)
        with pytest.raises(ConfigError, match="reference"):
            ExperimentConfig(reference="x").validate()
        with pytest.raises(ConfigError, match="window"):
            ExperimentConfig(reference="9,0").validate()

    def test_resolved_defaults(self):
        cfg = ExperimentConfig(nbar=5.0)
        assert cfg.resolved_dim_cut() == 48
        assert cfg.resolved_half_width() == 36.0
        assert cfg.resolved_route() == "gaussian"

    def test_resolved_dim_cut_policy(self):
        assert ExperimentConfig(nbar=5.0).resolved_dim_cut() == 48
        assert ExperimentConfig(nbar=0.0).resolved_dim_cut() == 16

    def test_finite_route_dim_cut_policy(self):
        cfg = ExperimentConfig(operation="identity", route="finite", n_max=3)
        assert cfg.resolved_dim_cut() == 4
        assert replace(cfg, dim_cut=6).resolved_dim_cut() == 6

    def test_finite_route_dim_limit(self):
        cfg = ExperimentConfig(operation="identity", route="finite",
                               nbar=1.0, dim_cut=13, n_max=3)
        with pytest.raises(ConfigError, match="dim_cut <= 12"):
            cfg.validate()
        replace(cfg, dim_cut=12).validate()

    def test_finite_route_rejects_dump_samples(self):
        cfg = ExperimentConfig(operation="identity", route="finite",
                               nbar=1.0, n_max=3, dump_samples=True)
        with pytest.raises(ConfigError, match="dump_samples.*route = finite"):
            cfg.validate()

    def test_displacement_must_fit_dim_cut(self):
        # |z|^2 = 48 is the cutoff of the default dim_cut at nbar = 5; the
        # bound applies to the displacement only, which alone reads z
        ExperimentConfig(z=6.928).validate()
        with pytest.raises(ConfigError, match="z = .*dim_cut = 48"):
            ExperimentConfig(z=6.929j).validate()
        ExperimentConfig(operation="identity", z=30.0).validate()

    def test_gaussian_route_rejects_kraus(self):
        with pytest.raises(ConfigError, match="gaussian"):
            ExperimentConfig(operation="kraus", kraus_file="k.npy",
                             route="gaussian").validate()

    def test_preset_parameters(self):
        top = load_preset("fig2_top")
        assert (top.nbar, top.eta, top.blocks, top.samples_per_block) == (
            5.0, 0.9, 150, 10_000)
        bottom = load_preset("fig2_bottom")
        assert (bottom.nbar, bottom.eta, bottom.blocks,
                bottom.samples_per_block) == (3.0, 0.7, 300, 200_000)
        scaled = load_preset("fig2_bottom_scaled")
        assert scaled.samples_per_block == bottom.samples_per_block // 10

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("fig3")


def _fake_estimate(w=2):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(w, w)) + 1j * rng.normal(size=(w, w))
    errs = np.abs(rng.normal(size=(w, w))) * 0.01
    kap = KappaEstimate(kappa=1.5, kappa_stderr=0.01, p_hat=0.9,
                        p_hat_stderr=0.001, denominator=0.4,
                        denominator_stderr=0.004)
    return MatrixEstimate(values=vals, std_errors=errs, kappa=kap, i0=0, j0=0,
                          n_blocks=5, truncation_deficit=1e-4,
                          phase_convention="reference-entry-real-positive")


class TestResultDocument:
    def test_roundtrip(self):
        cfg = ExperimentConfig(n_max=1, blocks=5, samples_per_block=10)
        est = _fake_estimate()
        text = render_result(cfg, est, "pure")
        doc = parse_result(text)
        assert doc.kind == "pure"
        assert doc.config == cfg
        assert np.max(np.abs(doc.values - est.values)) < 1e-8
        assert np.max(np.abs(doc.std_errors - est.std_errors)) < 1e-3 * np.max(
            est.std_errors)
        assert doc.summary["kappa"].startswith("+1.5")

    def test_deterministic_render(self):
        cfg = ExperimentConfig(blocks=5, samples_per_block=10)
        est = _fake_estimate()
        assert render_result(cfg, est) == render_result(cfg, est)

    def test_choi_roundtrip(self):
        rng = np.random.default_rng(4)
        w1 = 2
        vals = rng.normal(size=(w1 * w1, w1 * w1)) + 0j
        vals = vals + vals.conj().T
        kap = KappaEstimate(kappa=1.0, kappa_stderr=0.0, p_hat=1.0,
                            p_hat_stderr=0.0, denominator=1.0,
                            denominator_stderr=0.0)
        est = MatrixEstimate(values=vals, std_errors=np.full((4, 4), 0.1),
                             kappa=kap, i0=0, j0=0, n_blocks=3,
                             truncation_deficit=0.0, hermiticity_defect=0.05)
        cfg = ExperimentConfig(n_max=1, blocks=3, samples_per_block=10)
        doc = parse_result(render_result(cfg, est, "choi"))
        assert doc.kind == "choi"
        assert np.max(np.abs(doc.values - vals)) < 1e-8
        assert doc.summary["hermiticity_defect"] == "5.00e-02"


    @pytest.mark.parametrize("fault", ["unknown_kind", "no_i0",
                                       "i0_outside_window", "cut_last_rows",
                                       "row_deleted", "row_repeated", "nan",
                                       "inf", "window_9", "window_1"])
    def test_malformed_document_raises(self, fault):
        # a window-3 pure document: 16 rows, one per entry
        cfg = ExperimentConfig(n_max=3)
        text = render_result(cfg, _fake_estimate(4), "pure")
        lines = text.splitlines(keepends=True)
        row_23 = next(ln for ln in lines if ln.startswith("2 3 "))
        if fault == "unknown_kind":
            text = text.replace("estimate_kind = pure", "estimate_kind = foo")
        elif fault == "no_i0":
            text = text.replace("i0 = 0\n", "")
        elif fault == "i0_outside_window":
            text = text.replace("i0 = 0\n", "i0 = 4\n")
        elif fault == "cut_last_rows":
            text = "".join(lines[:-9])
        elif fault == "row_deleted":
            text = text.replace(row_23, "")
        elif fault.startswith("window_"):
            # a whole document of another window under the n_max = 3 config
            w1 = int(fault[-1]) + 1
            text = render_result(cfg, _fake_estimate(w1), "pure")
        elif fault in ("nan", "inf"):
            # a run never writes one: fewer than two blocks with data exits 3
            n, m, re, _, se = row_23.split()
            text = text.replace(row_23, f"{n} {m} {re} {fault} {se}\n")
        else:
            text = text.replace(row_23, row_23 + row_23).replace(
                next(ln for ln in lines if ln.startswith("3 3 ")), "")
        match = {"unknown_kind": "estimate_kind", "no_i0": "lacks i0",
                 "i0_outside_window": "i0, j0 <= window",
                 "nan": "must be finite", "inf": "must be finite",
                 "window_9": "window = 9 differs from the config's n_max = 3",
                 "window_1": "window = 1 differs from the config's n_max = 3"}
        with pytest.raises(ValueError, match=match.get(fault, "exactly once")):
            parse_result(text)


def _matrix_section(text):
    return text.partition(" re im stderr\n")[2]


class TestRenderRowsMatchOracle:
    """render_result's matrix rows equal the per-entry f-string loop."""

    def test_pure_8x8(self):
        est = _fake_estimate(8)
        text = render_result(ExperimentConfig(), est, "pure")
        want = render_rows_by_entry(est.values, est.std_errors, 2)
        assert want.count("\n") == 64
        assert _matrix_section(text) == want

    def test_choi_d6(self):
        rng = np.random.default_rng(11)
        # magnitudes from 1e-20 to 1e+2, both signs
        vals = (rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))) \
            * 10.0 ** rng.integers(-20, 3, size=(36, 36))
        errs = np.abs(rng.normal(size=(36, 36))) * 10.0 ** rng.integers(
            -20, 3, size=(36, 36))
        est = replace(_fake_estimate(36), values=vals, std_errors=errs,
                      hermiticity_defect=1e-3)
        text = render_result(ExperimentConfig(), est, "choi")
        want = render_rows_by_entry(vals, errs, 4)
        assert want.count("\n") == 1296
        assert _matrix_section(text) == want

    @pytest.mark.parametrize("kind, order", [("pure", 2), ("choi", 4)])
    def test_signed_zeros_and_extremes(self, kind, order):
        special = [-0.0, 0.0, 1e-300, -1e+300, 5e-324, 1e+300, -1e-300,
                   0.123456789012345, -9.9999999995, 1.0, -1.0, 2.5e-17,
                   -0.0, 0.0, 3.0, -7e+22]
        vals = (np.array(special) + 1j * np.array(special[::-1])).reshape(4, 4)
        vals.imag[0, 0] = -0.0
        errs = np.array([0.0, 1e-300, 0.0, 9.995e-3] * 4).reshape(4, 4)
        est = replace(_fake_estimate(4), values=vals, std_errors=errs)
        text = render_result(ExperimentConfig(), est, kind)
        want = render_rows_by_entry(vals, errs, order)
        assert "-0.000000000e+00" in want and " 0.00e+00\n" in want
        assert _matrix_section(text) == want


class TestPlotData:
    def test_diagonal_rows(self):
        w = 8  # n_max = 7
        vals = np.eye(w, dtype=complex)
        errs = np.full((w, w), 0.01)
        text = render_plotdata_diagonal(vals, errs, np.eye(w, dtype=complex))
        lines = text.strip().splitlines()
        assert len(lines) == 9  # header + 8 rows
        assert lines[0].startswith("#")
        assert lines[1].split(", ")[0] == "0"

    def test_identity_theory_column(self):
        w = 3
        vals = np.zeros((w, w), dtype=complex)
        text = render_plotdata_diagonal(vals, np.zeros((w, w)),
                                        np.eye(w, dtype=complex))
        for n, line in enumerate(text.strip().splitlines()[1:]):
            assert line.split(", ")[4] == "1"

    def test_matrix_rows(self):
        w = 4
        text = render_plotdata_matrix(np.zeros((w, w), dtype=complex),
                                      np.zeros((w, w)))
        assert len(text.strip().splitlines()) == w * w + 1


class TestTheoryColumn:
    def test_displacement_theory_matches_oracle(self):
        from optomo.pipeline import displacement_theory

        from oracles import displacement_element

        th = displacement_theory(1.0 + 0.2j, 6)
        for m in range(7):
            for n in range(7):
                assert abs(th[m, n] - displacement_element(m, n, 1.0 + 0.2j)) < 1e-12

    @pytest.mark.parametrize("z", [1.0, 1.0 + 0.2j, 0.5 - 0.7j, 2.0])
    def test_displacement_theory_matches_scipy_special(self, z):
        from optomo.pipeline import displacement_theory

        from oracles import displacement_by_scipy_special

        for n_max in range(13):
            np.testing.assert_allclose(
                displacement_theory(z, n_max),
                displacement_by_scipy_special(z, n_max), rtol=1e-12, atol=0.0)

    def test_fig2_diagonal_values(self):
        # e^{-1/2} L_n(1) for the displacement z = 1
        from optomo.pipeline import displacement_theory

        from oracles import laguerre

        th = displacement_theory(1.0, 7)
        for n in range(8):
            assert abs(th[n, n] - np.exp(-0.5) * laguerre(n, 0, 1.0)) < 1e-12
