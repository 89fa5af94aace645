import numpy as np
import pytest

from optomo.cli import main
from optomo.report import parse_result

TINY_CONFIG = """optomo-config v1
operation = displacement
z = 1+0j
nbar = 2.0
eta = 0.9
dim_cut = 24
n_max = 5
blocks = 6
samples_per_block = 400
master_seed = 555
out_prefix = tiny
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestSimulate:
    def test_end_to_end(self, tiny_cfg, tmp_path, capsys):
        code = main(["simulate", "--config", str(tiny_cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out
        result = tmp_path / "tiny.result.txt"
        assert result.exists()
        assert (tmp_path / "tiny.diagonal.csv").exists()
        assert (tmp_path / "tiny.matrix.csv").exists()
        doc = parse_result(result.read_text())
        assert doc.values.shape == (6, 6)
        assert "wall" not in result.read_text()  # document stays deterministic

    def test_thread_count_invariance(self, tiny_cfg, tmp_path):
        main(["simulate", "--config", str(tiny_cfg), "--threads", "1",
              "--out-dir", str(tmp_path / "a")])
        main(["simulate", "--config", str(tiny_cfg), "--threads", "3",
              "--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "tiny.result.txt").read_bytes()
        b = (tmp_path / "b" / "tiny.result.txt").read_bytes()
        assert a == b

    def test_dry_run(self, tiny_cfg, tmp_path, capsys):
        code = main(["simulate", "--config", str(tiny_cfg), "--dry-run",
                     "--out-dir", str(tmp_path / "dry")])
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert not (tmp_path / "dry" / "tiny.result.txt").exists()

    def test_dump_samples(self, tmp_path):
        cfg = tmp_path / "dump.cfg"
        cfg.write_text(TINY_CONFIG.replace("out_prefix = tiny",
                                           "out_prefix = dmp\ndump_samples = true"))
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        dump = (tmp_path / "dmp.samples.csv").read_text().splitlines()
        assert len(dump) == 1 + 6 * 400
        assert dump[0] == "# block_id, phi1, phi2, x1, x2, herald"

    def test_dump_samples_finite_route_exit_2(self, tmp_path, capsys):
        # the finite route has no quadrature records to dump
        cfg = tmp_path / "dump.cfg"
        cfg.write_text(
            "optomo-config v1\noperation = identity\nroute = finite\n"
            "nbar = 1.0\nn_max = 2\nblocks = 2\nsamples_per_block = 100\n"
            "out_prefix = dmp\ndump_samples = true\n"
        )
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 2
        assert "dump_samples" in capsys.readouterr().err
        assert not (tmp_path / "dmp.result.txt").exists()

    def test_preset_dry_run(self, tmp_path, capsys):
        code = main(["simulate", "--config", "fig2_top", "--dry-run",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "theory A_00 = 0.60653" in out

    def test_gaussian_dry_run_occurrence_is_one(self, tmp_path, capsys):
        # the Gaussian route heralds every trial
        code = main(["simulate", "--config", "fig2_top", "--dry-run",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert "p_occurrence = 1\n" in capsys.readouterr().out

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("eta = 0.9", "eta = 0.4"))
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("nbar", "nan"), ("eta", "nan"), ("z", "nan+1j"), ("ridge", "nan"),
        ("grid_spacing", "nan"), ("grid_half_width", "inf"),
        ("ridge", "-1"), ("dim_cut", "-5"), ("grid_half_width", "-3"),
        ("master_seed", "-1"),
    ])
    def test_non_finite_or_negative_value_exit_2(self, tmp_path, capsys,
                                                 key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"optomo-config v1\n{key} = {value}\n")
        assert main(["simulate", "--config", str(bad), "--dry-run",
                     "--out-dir", str(tmp_path)]) == 2
        assert f"config error: {key} = " in capsys.readouterr().err

    @pytest.mark.parametrize("route, operation, nbar", [
        ("finite", "identity", "1.0"), ("fock", "displacement", "0.001"),
    ])
    def test_one_fock_level_exit_2(self, tmp_path, capsys, route, operation,
                                   nbar):
        # dim_cut = 1 exceeds the window n_max = 0 but holds no finite
        # quorum or displacement
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"optomo-config v1\noperation = {operation}\n"
                       f"route = {route}\nnbar = {nbar}\ndim_cut = 1\n"
                       "n_max = 0\nblocks = 2\nsamples_per_block = 10\n")
        for flags in ([], ["--dry-run"]):
            assert main(["simulate", "--config", str(bad),
                         "--out-dir", str(tmp_path)] + flags) == 2
            assert "config error: dim_cut = 1 " in capsys.readouterr().err

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        # a key given twice must not silently keep its last value
        bad = tmp_path / "bad.cfg"
        bad.write_text("optomo-config v1\nnbar = 1.0\nnbar = 2.0\n")
        assert main(["simulate", "--config", str(bad), "--dry-run",
                     "--out-dir", str(tmp_path)]) == 2
        assert "config key 'nbar' given more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_2(self, tiny_cfg, tmp_path, capsys,
                                      threads):
        # a worker count below 1 is not silently run serially
        code = main(["simulate", "--config", str(tiny_cfg), "--threads",
                     threads, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "tiny.result.txt").exists()

    def test_missing_config_exit_2(self, capsys):
        assert main(["simulate", "--config", "nope.cfg"]) == 2

    def test_numerical_error_exit_3(self, tiny_cfg, tmp_path, capsys):
        # reference pinned on a structurally-zero element of an identity run
        cfg = tmp_path / "ref.cfg"
        cfg.write_text(
            TINY_CONFIG.replace("operation = displacement", "operation = identity")
            .replace("out_prefix = tiny", "out_prefix = ref\nreference = 0,1")
        )
        code = main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert "ReferenceTooSmall" in capsys.readouterr().err


class TestVerifyCommand:
    def test_unbiasedness_pass(self, capsys):
        assert main(["verify", "unbiasedness"]) == 0
        out = capsys.readouterr().out
        assert "status=pass" in out and "status=fail" not in out

    def test_choi_pass(self, capsys):
        assert main(["verify", "choi"]) == 0
        checks = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()
                  if "status=pass" in ln]
        assert checks == ["check=choi-action", "check=consistency-triangle",
                          "check=kraus-roundtrip-action"]

    def test_sampler_moments_pass(self, capsys):
        assert main(["verify", "sampler-moments"]) == 0
        out = capsys.readouterr().out
        assert "status=pass" in out and "status=fail" not in out

    def test_kernels_single_eta(self, capsys):
        assert main(["verify", "kernels", "--eta", "0.9"]) == 0
        assert "eta0.9" in capsys.readouterr().out

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nonsense"]) == 2

    def test_failing_suite_exit_4(self, capsys, monkeypatch):
        from optomo import pipeline

        monkeypatch.setitem(
            pipeline.VERIFY_SUITES, "alwaysfail",
            lambda: (False, ["check=x status=fail value=1 bound=0"]),
        )
        assert main(["verify", "alwaysfail"]) == 4
        assert "verification failed" in capsys.readouterr().err

    def test_eta_flag_rejected_elsewhere(self, capsys):
        assert main(["verify", "choi", "--eta", "0.9"]) == 2

    def test_seed_flag_rejected_for_kernels(self, capsys):
        assert main(["verify", "kernels", "--seed", "3"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["1.5", "0", "-0.5", "0.5", "nan", "inf"])
    def test_eta_outside_domain_exit_2(self, eta, capsys):
        # the domain of eta in a config, (0.5, 1], checked before any kernel
        assert main(["verify", "kernels", "--eta", eta]) == 2
        assert f"--eta = {float(eta)} outside (0.5, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["unbiasedness", "sampler-moments"])
    def test_negative_seed_exit_2(self, suite, capsys):
        assert main(["verify", suite, "--seed", "-1"]) == 2
        assert "--seed = -1 is negative" in capsys.readouterr().err


def _csv_numbers(text):
    rows = [ln.split(", ") for ln in text.strip().splitlines()[1:]]
    return np.array([[float(v) for v in row] for row in rows])


class TestEmitPlotdata:
    def test_regenerates_files(self, tiny_cfg, tmp_path):
        main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(tmp_path)])
        out2 = tmp_path / "replot"
        code = main(["emit-plotdata", "--from",
                     str(tmp_path / "tiny.result.txt"), "--out-dir", str(out2)])
        assert code == 0
        # the document stores 9 significant digits, so compare numerically
        for name in ("tiny.diagonal.csv", "tiny.matrix.csv"):
            a = _csv_numbers((tmp_path / name).read_text())
            b = _csv_numbers((out2 / name).read_text())
            assert np.allclose(a, b, rtol=1e-8, atol=1e-9)

    def test_missing_file_exit_2(self, capsys):
        assert main(["emit-plotdata", "--from", "missing.result.txt"]) == 2

    @pytest.mark.parametrize("fault", ["bad_version", "cut_after_matrix"])
    def test_malformed_document_exit_2(self, tmp_path, capsys, fault):
        good = np.diag([1.0, 0.8, 0.0]).astype(complex)[None]
        cfg = _kraus_config(tmp_path, good, "finite")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = tmp_path / "k.result.txt"
        text = doc.read_text()
        if fault == "bad_version":
            text = text.replace("optomo-result v", "optomo-result vX", 1)
        else:
            text = text[: text.index("[matrix]") + len("[matrix]\n")]
        doc.write_text(text)
        capsys.readouterr()
        assert main(["emit-plotdata", "--from", str(doc),
                     "--out-dir", str(tmp_path / "b")]) == 2
        assert f"config error: result document {doc}" in capsys.readouterr().err


class TestKrausRoute:
    def test_single_kraus_file_pure_route(self, tmp_path):
        # one Kraus operator in Fock space: treated as a pure operation and
        # reconstructed through the Fock sampler
        k = np.zeros((12, 12), dtype=complex)
        k[:2, :2] = np.diag([1.0, 0.8])
        np.save(tmp_path / "k.npy", k[None])
        cfg = tmp_path / "kraus.cfg"
        cfg.write_text(
            "optomo-config v1\noperation = kraus\n"
            f"kraus_file = {tmp_path / 'k.npy'}\n"
            "nbar = 1.0\neta = 0.9\ndim_cut = 12\nn_max = 3\nblocks = 5\n"
            "samples_per_block = 300\nmaster_seed = 9\nout_prefix = kr\n"
        )
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = parse_result((tmp_path / "kr.result.txt").read_text())
        assert doc.kind == "pure"
        # the fock-route reconstruction should recover the operator itself
        from optomo.estimation import MatrixEstimate, align_to_truth

        truth = np.zeros((4, 4), dtype=complex)
        truth[0, 0], truth[1, 1] = 1.0, 0.8
        est = MatrixEstimate(values=doc.values, std_errors=doc.std_errors,
                             kappa=None, i0=0, j0=0, n_blocks=5,
                             truncation_deficit=0.0)
        aligned = align_to_truth(est, truth)
        assert np.all(np.abs(aligned - truth) <= 5 * doc.std_errors + 0.02)

    def test_two_kraus_choi_route_homodyne(self, tmp_path):
        # phase-damping-like map on the 0/1 Fock subspace, reconstructed as a
        # Choi matrix through the homodyne mixture sampler
        from optomo.maps import KrausMap, kraus_to_choi

        d_small = 2
        ks_small = [np.sqrt(0.5) * np.eye(d_small, dtype=complex),
                    np.sqrt(0.5) * np.diag([1.0, -1.0]).astype(complex)]
        dim_cut = 12
        ks = np.zeros((2, dim_cut, dim_cut), dtype=complex)
        for i, k in enumerate(ks_small):
            ks[i, :d_small, :d_small] = k
        np.save(tmp_path / "pd.npy", ks)
        cfg = tmp_path / "pd.cfg"
        cfg.write_text(
            "optomo-config v1\noperation = kraus\n"
            f"kraus_file = {tmp_path / 'pd.npy'}\n"
            "nbar = 1.0\neta = 0.95\ndim_cut = 12\nn_max = 1\nblocks = 8\n"
            "samples_per_block = 400\nmaster_seed = 31\nout_prefix = pd\n"
        )
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = parse_result((tmp_path / "pd.result.txt").read_text())
        assert doc.kind == "choi"
        truth = kraus_to_choi(KrausMap(tuple(ks_small))).matrix
        dev = np.abs(doc.values - truth)
        assert np.all(dev <= 5.0 * doc.std_errors + 0.05)

    def test_two_kraus_choi_route_finite(self, tmp_path):
        ks = np.stack([np.sqrt(0.5) * np.eye(3, dtype=complex),
                       np.sqrt(0.5) * np.diag([1.0, -1.0, 1.0]).astype(complex)])
        np.save(tmp_path / "ks.npy", ks)
        cfg = tmp_path / "choi.cfg"
        cfg.write_text(
            "optomo-config v1\noperation = kraus\n"
            f"kraus_file = {tmp_path / 'ks.npy'}\n"
            "nbar = 1.0\neta = 0.9\ndim_cut = 3\nn_max = 2\nblocks = 5\n"
            "samples_per_block = 500\nmaster_seed = 9\nroute = finite\n"
            "out_prefix = ch\n"
        )
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = parse_result((tmp_path / "ch.result.txt").read_text())
        assert doc.kind == "choi"
        assert doc.values.shape == (9, 9)


def _kraus_config(tmp_path, kraus, route, extra=""):
    np.save(tmp_path / "k.npy", kraus)
    dim_cut = kraus.shape[-1]
    cfg = tmp_path / "k.cfg"
    cfg.write_text(
        "optomo-config v1\noperation = kraus\n"
        f"kraus_file = {tmp_path / 'k.npy'}\nroute = {route}\n"
        f"nbar = 1.0\neta = 0.9\ndim_cut = {dim_cut}\nn_max = 1\nblocks = 2\n"
        f"samples_per_block = 200\nmaster_seed = 3\nout_prefix = k\n{extra}"
    )
    return cfg


class TestOperationErrors:
    @pytest.mark.parametrize("route, sampler, dim_cut", [
        ("finite", "sample_finite", 3),
        ("fock", "sample_fock_general", 12),
    ])
    def test_annihilating_map_exit_3(self, tmp_path, capsys, monkeypatch,
                                     route, sampler, dim_cut):
        from optomo import pipeline

        calls = []
        monkeypatch.setattr(pipeline, sampler,
                            lambda *args: calls.append(args))
        cfg = _kraus_config(tmp_path, np.zeros((2, dim_cut, dim_cut)), route)
        for flags in ([], ["--dry-run"]):
            assert main(["simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path)] + flags) == 3
            assert "AnnihilatingOperation" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "k.result.txt").exists()

    def test_zero_window_auto_reference_exit_3(self, tmp_path, capsys,
                                               monkeypatch):
        # |5><5| maps the twin beam outside the n_max = 2 window: every
        # candidate reference has a zero denominator
        from optomo import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "sample_fock_general",
                            lambda *args: calls.append(args))
        proj = np.zeros((1, 10, 10), dtype=complex)
        proj[0, 5, 5] = 1.0
        cfg = _kraus_config(tmp_path, proj, "fock")
        cfg.write_text(cfg.read_text().replace("n_max = 1", "n_max = 2")
                       .replace("blocks = 2", "blocks = 4"))
        for flags in ([], ["--dry-run"]):
            assert main(["simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path)] + flags) == 3
            assert "ReferenceTooSmall" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "k.result.txt").exists()

    @pytest.mark.parametrize("fault", ["missing", "exceeds_identity",
                                       "npz_archive"])
    def test_bad_kraus_file_exit_2(self, tmp_path, capsys, fault):
        good = np.diag([1.0, 0.8, 0.0]).astype(complex)[None]
        cfg = _kraus_config(tmp_path, good, "finite")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        kraus_path = tmp_path / "k.npy"
        if fault == "missing":
            kraus_path.unlink()
        elif fault == "npz_archive":
            with open(kraus_path, "wb") as f:
                np.savez(f, k=good)
        else:
            np.save(kraus_path, 1.5 * good)
        capsys.readouterr()
        for argv in (
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "a")],
            ["simulate", "--config", str(cfg), "--dry-run"],
            ["emit-plotdata", "--from", str(tmp_path / "k.result.txt"),
             "--out-dir", str(tmp_path / "b")],
        ):
            assert main(argv) == 2
            assert str(kraus_path) in capsys.readouterr().err

    def test_non_finite_kraus_operator_exit_2(self, tmp_path, capsys):
        # a NaN operator has NaN weight, which output_branches would drop
        ks = np.stack([np.sqrt(0.5) * np.eye(2), np.full((2, 2), np.nan)])
        cfg = _kraus_config(tmp_path, ks.astype(complex), "finite")
        for flags in ([], ["--dry-run"]):
            assert main(["simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path)] + flags) == 2
            err = capsys.readouterr().err
            assert str(tmp_path / "k.npy") in err and "finite" in err
        assert not (tmp_path / "k.result.txt").exists()

    def test_reference_rejected_for_choi(self, tmp_path, capsys):
        ks = np.stack([np.sqrt(0.5) * np.eye(3), np.sqrt(0.5) * np.eye(3)])
        cfg = _kraus_config(tmp_path, ks, "finite", "reference = 1,0\n")
        assert main(["simulate", "--config", str(cfg), "--dry-run"]) == 2
        assert "reference" in capsys.readouterr().err
