import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optomo
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
        assert not (tmp_path / "dry").exists()  # not even the out dir

    def test_dump_samples(self, tmp_path):
        cfg = tmp_path / "dump.cfg"
        cfg.write_text(TINY_CONFIG.replace("out_prefix = tiny",
                                           "out_prefix = dmp\ndump_samples = true"))
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        dump = (tmp_path / "dmp.samples.csv").read_text().splitlines()
        assert len(dump) == 1 + 6 * 400
        assert dump[0] == "# block_id, phi1, phi2, x1, x2, herald"

    def test_finite_default_dim_cut_at_zero_window(self, tmp_path, capsys):
        # n_max = 0 on the finite route: the default dim_cut is the window
        # dimension 1, raised to the smallest finite quorum's 2
        cfg = tmp_path / "w0.cfg"
        cfg.write_text(
            "optomo-config v1\noperation = identity\nroute = finite\n"
            "nbar = 1.0\nn_max = 0\nblocks = 2\nsamples_per_block = 100\n"
            "out_prefix = w0\n"
        )
        assert main(["simulate", "--config", str(cfg), "--dry-run",
                     "--out-dir", str(tmp_path)]) == 0
        assert "dim_cut = 2" in capsys.readouterr().out.splitlines()

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

    @pytest.mark.parametrize("key, value", [
        ("nbar", "1e17"), ("nbar", "1e300"),
        ("dim_cut", "100000000000000000000"), ("nbar", "1e308"),
    ])
    def test_too_large_value_exit_2(self, tmp_path, capsys, key, value):
        # unchecked, lambda^2 = nbar/(nbar + 1) rounds to 1 (1e17), the auto
        # dim_cut overflows (1e308) or is an integer numpy cannot take (1e300,
        # like the explicit dim_cut): OverflowError or TypeError, exit 1
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"optomo-config v1\n{key} = {value}\n")
        assert main(["simulate", "--config", str(bad), "--dry-run",
                     "--out-dir", str(tmp_path)]) == 2
        assert f"config error: {key} = " in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", [
        "../escaped", "a/b", "", ".", "..", "a\\b", "a\0b"])
    def test_out_prefix_not_one_name_exit_2(self, tmp_path, capsys, prefix):
        # a prefix that is not one file-name component would write outside
        # --out-dir, fail on a missing directory, or hide the files
        bad = tmp_path / "run" / "bad.cfg"
        bad.parent.mkdir()
        bad.write_text(TINY_CONFIG.replace("out_prefix = tiny",
                                           f"out_prefix = {prefix}"))
        out = tmp_path / "run" / "out"
        assert main(["simulate", "--config", str(bad),
                     "--out-dir", str(out)]) == 2
        assert "config error: out_prefix = " in capsys.readouterr().err
        written = [p for p in tmp_path.rglob("*")
                   if p not in (bad, bad.parent, out) and out not in p.parents]
        assert written == []

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

    @pytest.mark.parametrize("z", ["1e160", "1e10", "30"])
    def test_displacement_beyond_cutoff_exit_2(self, tmp_path, capsys, z):
        # |z| >= sqrt(dim_cut) at the default dim_cut = 48.  Unchecked,
        # 1e160 overflows |z|^2, 1e10 is estimated from quadratures clamped
        # to the grid's end, and 30 fails only after sampling every block
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"optomo-config v1\nz = {z}\n")
        for flags in ([], ["--dry-run"]):
            assert main(["simulate", "--config", str(bad),
                         "--out-dir", str(tmp_path / "out")] + flags) == 2
            err = capsys.readouterr().err
            assert "config error: z = " in err and "dim_cut = 48" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("fault", ["directory", "binary"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, fault):
        path = tmp_path / "bad.cfg"
        if fault == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"optomo-config v1\n\x89\xff\xfe\n")
        assert main(["simulate", "--config", str(path), "--dry-run"]) == 2
        assert (f"config error: no preset or readable config file named "
                f"{str(path)!r}") in capsys.readouterr().err

    def test_out_dir_is_a_file_exit_2(self, tiny_cfg, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["simulate", "--config", str(tiny_cfg),
                     "--out-dir", str(taken)]) == 2
        assert (f"config error: output directory {taken}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", [
        "tiny.result.txt", "tiny.diagonal.csv", "tiny.samples.csv"])
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, name):
        # a directory where an output file goes is a config error naming
        # the file, not an IsADirectoryError after all the sampling
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG + "dump_samples = true\n")
        (tmp_path / "out" / name).mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert (f"config error: output file {tmp_path / 'out' / name}: "
                in capsys.readouterr().err)

    def test_unwritable_kernel_cache_keeps_the_result(self, tiny_cfg,
                                                      tmp_path):
        # a regular file where the kernel cache directory goes costs the
        # save, not the run: the same document as a cache miss and a hit
        def result(out_dir):
            assert main(["simulate", "--config", str(tiny_cfg),
                         "--out-dir", str(out_dir)]) == 0
            return (out_dir / "tiny.result.txt").read_bytes()

        cold = result(tmp_path / "cached")
        assert len(list((tmp_path / "cached" / "kernel-cache").iterdir())) == 1
        warm = result(tmp_path / "cached")
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken" / "kernel-cache").write_text("")
        assert result(tmp_path / "taken") == cold == warm
        assert (tmp_path / "taken" / "kernel-cache").read_text() == ""

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

    def test_from_directory_exit_2(self, tmp_path, capsys):
        assert main(["emit-plotdata", "--from", str(tmp_path)]) == 2
        assert (f"config error: result document {tmp_path}"
                in capsys.readouterr().err)

    def test_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        cfg = _kraus_config(tmp_path, np.eye(2, dtype=complex)[None],
                            "finite")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["emit-plotdata", "--from", str(tmp_path / "k.result.txt"),
                     "--out-dir", str(taken)]) == 2
        assert (f"config error: output directory {taken}"
                in capsys.readouterr().err)

    def test_unwritable_output_file_exit_2(self, tiny_cfg, tmp_path,
                                           capsys):
        assert main(["simulate", "--config", str(tiny_cfg),
                     "--out-dir", str(tmp_path)]) == 0
        taken = tmp_path / "replot" / "tiny.matrix.csv"
        taken.mkdir(parents=True)
        assert main(["emit-plotdata", "--from",
                     str(tmp_path / "tiny.result.txt"),
                     "--out-dir", str(tmp_path / "replot")]) == 2
        assert (f"config error: output file {taken}: "
                in capsys.readouterr().err)

    def test_out_prefix_escaping_out_dir_exit_2(self, tmp_path, capsys):
        # the document's embedded config is validated like a config file
        cfg = _kraus_config(tmp_path, np.eye(2, dtype=complex)[None],
                            "finite")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = tmp_path / "k.result.txt"
        doc.write_text(doc.read_text().replace("out_prefix = k\n",
                                               "out_prefix = ../escaped\n"))
        capsys.readouterr()
        assert main(["emit-plotdata", "--from", str(doc),
                     "--out-dir", str(tmp_path / "b" / "c")]) == 2
        assert (f"config error: result document {doc}: out_prefix = "
                in capsys.readouterr().err)
        assert list(tmp_path.rglob("escaped*")) == []

    @pytest.mark.parametrize("fault", [
        "bad_version", "cut_after_matrix", "unknown_kind", "no_i0",
        "cut_last_rows", "row_deleted", "nan_value", "window_above_n_max",
        "window_below_n_max"])
    def test_malformed_document_exit_2(self, tmp_path, capsys, fault):
        good = np.diag([1.0, 0.8, 0.0]).astype(complex)[None]
        cfg = _kraus_config(tmp_path, good, "finite")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = tmp_path / "k.result.txt"
        text = doc.read_text()
        # a window-1 pure document: rows 0 0, 0 1, 1 0, 1 1
        if fault == "bad_version":
            text = text.replace("optomo-result v", "optomo-result vX", 1)
        elif fault == "cut_after_matrix":
            text = text[: text.index("[matrix]") + len("[matrix]\n")]
        elif fault == "unknown_kind":
            text = text.replace("estimate_kind = pure", "estimate_kind = foo")
        elif fault == "no_i0":
            text = text.replace("\ni0 = ", "\nx0 = ")
        elif fault == "cut_last_rows":
            text = "".join(text.splitlines(keepends=True)[:-2])
        elif fault == "nan_value":
            row = next(ln for ln in text.splitlines(keepends=True)
                       if ln.startswith("1 0 "))
            n, m, re, _, se = row.split()
            text = text.replace(row, f"{n} {m} {re} nan {se}\n")
        elif fault == "window_above_n_max":
            # a whole window-9 matrix under the config's n_max = 1
            head, sep, _ = text.partition(" re im stderr\n")
            rows = [f"{i} {j} +1.0e+00 +0.0e+00 1.0e-02\n"
                    for i in range(10) for j in range(10)]
            text = (head.replace("window = 1\n", "window = 9\n") + sep
                    + "".join(rows))
        elif fault == "window_below_n_max":
            # the window-1 document under a config whose n_max is 2
            text = text.replace("n_max = 1\n", "n_max = 2\n")
        else:
            row = next(ln for ln in text.splitlines(keepends=True)
                       if ln.startswith("1 0 "))
            text = text.replace(row, "")
        doc.write_text(text)
        capsys.readouterr()
        assert main(["emit-plotdata", "--from", str(doc),
                     "--out-dir", str(tmp_path / "b")]) == 2
        assert f"config error: result document {doc}" in capsys.readouterr().err

    @pytest.mark.parametrize("kraus, window", [(1, 1000000), (2, 300)])
    def test_window_beyond_rows_exit_2(self, tmp_path, kraus, window):
        # a document with its column comment and one row, whose window
        # claims side^2 rows and a permutation check of 7.28 TiB
        # (pure) or 61.2 GiB (Choi) of indices: the row count is checked
        # first, in a process capped at 4 GiB of address space, so a check
        # that sizes arrays by the window fails fast with exit 1
        ks = np.stack([np.eye(2, dtype=complex),
                       np.diag([1.0, -1.0]).astype(complex)])[:kraus]
        cfg = _kraus_config(tmp_path, ks / np.sqrt(kraus), "finite")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        doc = tmp_path / "k.result.txt"
        head, rows = doc.read_text().split("[matrix]\n")
        doc.write_text(head.replace("window = 1\n", f"window = {window}\n")
                       + "[matrix]\n"
                       + "".join(rows.splitlines(keepends=True)[:2]))
        src = str(Path(optomo.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        script = ("import resource, sys\n"
                  "cap = 4 << 30\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                  "from optomo.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        run = subprocess.run(
            [sys.executable, "-c", script, "emit-plotdata", "--from",
             str(doc), "--out-dir", str(tmp_path / "b")],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 2, run.stderr
        assert f"config error: result document {doc}" in run.stderr
        assert f"[matrix] has 1 rows; window {window} needs" in run.stderr


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

    def test_one_block_with_data_exit_3(self, tmp_path, capsys):
        # p_occ = 2 x 0.07^2 = 0.0098 over 2 x 60 trials: at seed 1 fewer
        # than two blocks hold a heralded sample, so there is no spread to
        # give a standard error
        ks = 0.07 * np.stack([np.eye(4), np.diag([1.0, -1.0, 1.0, -1.0])])
        cfg = _kraus_config(tmp_path, ks.astype(complex), "finite")
        cfg.write_text(cfg.read_text().replace("n_max = 1", "n_max = 2")
                       .replace("samples_per_block = 200",
                                "samples_per_block = 60")
                       .replace("master_seed = 3", "master_seed = 1"))
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "ReferenceTooSmall" in err
        assert "of 2 blocks hold heralded samples" in err
        assert not (tmp_path / "k.result.txt").exists()

    @pytest.mark.parametrize("fault", ["missing", "exceeds_identity",
                                       "npz_archive", "zero_dim", "empty",
                                       "structured", "datetime"])
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
        elif fault == "zero_dim":
            np.save(kraus_path, np.zeros((2, 0, 0)))
        elif fault == "empty":
            kraus_path.write_bytes(b"")
        elif fault == "structured":  # no numeric dtype to cast to complex
            np.save(kraus_path, np.zeros((1, 3, 3), dtype=[("re", float),
                                                           ("im", float)]))
        elif fault == "datetime":  # casts to complex, but is no Kraus map
            np.save(kraus_path, np.eye(3, dtype=np.int64)[None]
                    .astype("datetime64[s]"))
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

    @pytest.mark.parametrize("route, n_kraus, dim", [
        ("finite", 1, 4), ("finite", 2, 4), ("fock", 1, 16)])
    def test_occurrence_rounding_above_one_runs(self, tmp_path, route,
                                                n_kraus, dim):
        # sum K^dag K = (1 + 5e-11) I passes KrausMap's bound check, so the
        # weights may sum above 1 by that much: the run clamps p_occ to 1
        ks = np.stack([np.eye(dim), np.diag([1.0, -1.0] * (dim // 2))])
        ks = np.sqrt((1.0 + 5e-11) / n_kraus) * ks[:n_kraus]
        cfg = _kraus_config(tmp_path, ks.astype(complex), route)
        text = cfg.read_text().replace("samples_per_block = 200",
                                       "samples_per_block = 5000")
        if route == "fock":
            text = text.replace("nbar = 1.0", "nbar = 0.05")
        cfg.write_text(text)
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]
        assert main(argv + ["--dry-run"]) == 0
        assert main(argv) == 0
        doc = parse_result((tmp_path / "k.result.txt").read_text())
        assert doc.kind == ("pure" if n_kraus == 1 else "choi")

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
