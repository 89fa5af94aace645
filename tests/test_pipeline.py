"""End-to-end checks of the Fock and finite routes through ``run_simulate``."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from optomo import estimation, maps, pipeline, sampling
from optomo.cli import main
from optomo.config import ExperimentConfig, load_preset
from optomo.errors import NonInvertibleEntanglerError
from optomo.estimation import align_to_truth
from optomo.pipeline import displacement_theory, emit_plotdata, run_simulate
from optomo.quorum import DYAD_CHUNK


def _two_kraus_file(path, dim_cut):
    # phase-damping-like map on the 0/1 Fock subspace
    ks = np.zeros((2, dim_cut, dim_cut), dtype=complex)
    ks[0, :2, :2] = np.sqrt(0.5) * np.eye(2)
    ks[1, :2, :2] = np.sqrt(0.5) * np.diag([1.0, -1.0])
    np.save(path, ks)
    return str(path)


class TestGaussianRoute:
    def test_thread_count_invariance_across_chunks(self, tmp_path):
        # blocks of 2.5 dyad chunks, so every block sum crosses chunk
        # boundaries
        cfg = ExperimentConfig(
            operation="displacement", z=0.5 + 0.0j, nbar=1.0, eta=0.9,
            n_max=3, blocks=4,
            samples_per_block=int(2.5 * DYAD_CHUNK),
            master_seed=41, out_prefix="inv",
        )
        run_simulate(cfg, threads=1, out_dir=tmp_path / "a")
        run_simulate(cfg, threads=3, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "inv.result.txt").read_bytes()
        b = (tmp_path / "b" / "inv.result.txt").read_bytes()
        assert a == b

    @pytest.mark.parametrize("nbar", [0.5, 1.0])
    @pytest.mark.parametrize("dim_cut", [8, 12])
    @pytest.mark.filterwarnings("ignore:twin-beam truncation deficit")
    def test_auto_reference_tie_is_row_major(self, nbar, dim_cut):
        # at z = 1, |D_00| = |D_10| = e^{-1/2}, so |phi_00| and |phi_10|
        # tie and the reference is the first of them in row-major order,
        # whatever roundoff the exponential leaves
        cfg = ExperimentConfig(operation="displacement", z=1.0 + 0.0j,
                               nbar=nbar, eta=0.9, n_max=3, dim_cut=dim_cut)
        lines = run_simulate(cfg, dry_run=True).dry_report
        assert "i0 = 0" in lines and "j0 = 0" in lines

    def test_sample_dump_phases_match_redrawn_stream(self, tmp_path):
        # the blocks carry phasors; the dump writes the phases back from
        # them, equal to the phases each block's substream draws (after no
        # herald draws: p_occ = 1) to the dump's 9 significant digits
        cfg = replace(load_preset("fig2_top"), blocks=3, samples_per_block=400,
                      dump_samples=True)
        run_simulate(cfg, out_dir=tmp_path)
        rows = np.loadtxt(tmp_path / "fig2_top.samples.csv", delimiter=",")
        assert rows.shape == (cfg.blocks * cfg.samples_per_block, 6)
        assert np.all(rows[:, 5] == 1)
        for b in range(cfg.blocks):
            rng = sampling.substream(cfg.master_seed, b)
            n = cfg.samples_per_block
            want = np.column_stack([rng.uniform(0.0, 2.0 * np.pi, n)
                                    for _ in range(2)])
            got = rows[rows[:, 0] == b, 1:3]
            np.testing.assert_allclose(got, want, rtol=5e-9, atol=1e-12)


class TestFockRoute:
    def test_thread_count_invariance_choi(self, tmp_path):
        # the per-run sampler tables are shared by all workers
        cfg = ExperimentConfig(
            operation="kraus", kraus_file=_two_kraus_file(tmp_path / "k.npy", 12),
            nbar=1.0, eta=0.95, dim_cut=12, n_max=1, blocks=6,
            samples_per_block=200, master_seed=31, out_prefix="inv",
        )
        run_simulate(cfg, threads=1, out_dir=tmp_path / "a")
        run_simulate(cfg, threads=3, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "inv.result.txt").read_bytes()
        b = (tmp_path / "b" / "inv.result.txt").read_bytes()
        assert a == b

    def test_sample_dump_thread_count_invariance(self, tmp_path, monkeypatch):
        # the dump draws every block again after the estimate: the same file
        # for any thread count, zeros on the non-heralded rows, and one
        # heralded row per sample the estimate counted
        accs = []
        map_blocks = pipeline._map_blocks

        def recorded(*args, **kwargs):
            accs.append(map_blocks(*args, **kwargs))
            return accs[-1]

        monkeypatch.setattr(pipeline, "_map_blocks", recorded)
        cfg = ExperimentConfig(
            operation="kraus", kraus_file=_two_kraus_file(tmp_path / "k.npy", 12),
            nbar=1.0, eta=0.95, dim_cut=12, n_max=1, blocks=4,
            samples_per_block=300, master_seed=37, out_prefix="dmp",
            dump_samples=True,
        )
        dumps = []
        for threads in (1, 3):
            run_simulate(cfg, threads=threads, out_dir=tmp_path / str(threads))
            dumps.append((tmp_path / str(threads) / "dmp.samples.csv").read_bytes())
        assert dumps[0] == dumps[1]
        rows = [ln.split(", ") for ln in dumps[0].decode().splitlines()[1:]]
        assert len(rows) == cfg.blocks * cfg.samples_per_block
        assert all(r[1:5] == ["0"] * 4 for r in rows if r[5] == "0")
        heralded = sum(r[5] == "1" for r in rows)
        assert 0 < heralded < len(rows)
        assert [int(a.n_heralded.sum()) for a in accs] == [heralded] * 2

    def test_agrees_with_gaussian_route(self, tmp_path):
        # one displacement config on both samplers; each entry, aligned onto
        # the closed form, within 4 combined standard errors
        cfg = ExperimentConfig(
            operation="displacement", z=0.5 + 0.0j, nbar=1.0, eta=0.9,
            n_max=3, blocks=20, samples_per_block=1000, master_seed=77,
        )
        truth = displacement_theory(cfg.z, cfg.n_max)
        aligned = {}
        errors = {}
        for route in ("gaussian", "fock"):
            est = run_simulate(replace(cfg, route=route, out_prefix=route),
                               out_dir=tmp_path).estimate
            aligned[route] = align_to_truth(est, truth)
            errors[route] = est.std_errors
        combined = np.sqrt(errors["gaussian"] ** 2 + errors["fock"] ** 2)
        assert np.all(np.abs(aligned["gaussian"] - aligned["fock"])
                      <= 4.0 * combined)


class TestFiniteRoute:
    def test_thread_count_invariance_choi(self, tmp_path):
        # the per-run joint outcome table is shared by all workers
        cfg = ExperimentConfig(
            operation="kraus", kraus_file=_two_kraus_file(tmp_path / "k.npy", 3),
            route="finite", nbar=1.0, eta=0.9, dim_cut=3, n_max=2, blocks=6,
            samples_per_block=500, master_seed=31, out_prefix="inv",
        )
        run_simulate(cfg, threads=1, out_dir=tmp_path / "a")
        run_simulate(cfg, threads=3, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "inv.result.txt").read_bytes()
        b = (tmp_path / "b" / "inv.result.txt").read_bytes()
        assert a == b


    def test_samples_the_branches_only(self, tmp_path, monkeypatch):
        # the outcome table is built from the output branches K_n psi, the
        # model the Fock route samples; no density matrix R(psi) is formed
        def no_density(*args, **kwargs):
            raise AssertionError("the output density matrix was built")

        monkeypatch.setattr(maps, "apply_kraus_bipartite", no_density)
        cfg = ExperimentConfig(
            operation="kraus", kraus_file=_two_kraus_file(tmp_path / "k.npy", 3),
            route="finite", nbar=1.0, dim_cut=3, n_max=2, blocks=3,
            samples_per_block=500, master_seed=31, out_prefix="br",
        )
        result = run_simulate(cfg, out_dir=tmp_path)
        assert result.kind == "choi"
        assert (tmp_path / "br.result.txt").exists()


def _diagonal_rows(path):
    """Columns n, re, im, stderr, theory_re, theory_im of a diagonal file."""
    return np.loadtxt(path, delimiter=",", ndmin=2).T


class TestPlotData:
    def test_fig2_top_diagonal_matches_theory_unaligned(self, tmp_path):
        # the written plot data as a plotting tool reads them, with no phase
        # alignment: the estimate's reference entry (0, 0) is real positive,
        # and so is the theory's
        cfg = replace(load_preset("fig2_top"), blocks=20,
                      samples_per_block=5000)
        run_simulate(cfg, out_dir=tmp_path)
        _, re, _, se, theory_re, _ = _diagonal_rows(
            tmp_path / "fig2_top.diagonal.csv")
        within = np.abs(re[:7] - theory_re[:7]) <= 3.0 * se[:7]
        assert within.sum() >= 6

    def test_theory_columns_follow_explicit_reference(self, tmp_path):
        # <0|D(z)|1> = -z e^{-z^2/2} < 0 for real z: pinning it real positive
        # rotates the estimate by pi, and the theory columns with it, both
        # in the run and when the plot data are regenerated
        cfg = ExperimentConfig(
            operation="displacement", z=0.5 + 0.0j, nbar=1.0, eta=0.9,
            n_max=3, blocks=4, samples_per_block=2000, master_seed=5,
            reference="0,1", out_prefix="ref",
        )
        result = run_simulate(cfg, out_dir=tmp_path / "run")
        est = result.estimate
        assert est.values[0, 1].real > 0
        assert abs(est.values[0, 1].imag) <= 1e-15 * abs(est.values[0, 1])
        truth = -np.diag(displacement_theory(cfg.z, cfg.n_max))
        emitted = emit_plotdata(tmp_path / "run" / "ref.result.txt",
                                out_dir=tmp_path / "emit")
        for path in (tmp_path / "run" / "ref.diagonal.csv", emitted[0]):
            _, _, _, _, theory_re, theory_im = _diagonal_rows(path)
            assert np.allclose(theory_re, truth.real, rtol=1e-8, atol=1e-12)
            assert np.allclose(theory_im, 0.0, atol=1e-12)


class TestRunLevelPlan:
    def _count_calls(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_singular_entangler_fails_before_sampling(self, tmp_path,
                                                      monkeypatch):
        # validate() admits it (the finite route has no deficit gate), but
        # psi has reciprocal condition ~1e-13: the run must stop before any
        # block is sampled
        calls = self._count_calls(monkeypatch, pipeline, "sample_finite")
        cfg = ExperimentConfig(
            operation="identity", route="finite", nbar=1e-13, dim_cut=3,
            n_max=1, blocks=4, samples_per_block=100,
        )
        cfg.validate()
        with pytest.raises(NonInvertibleEntanglerError):
            run_simulate(cfg, out_dir=tmp_path)
        assert calls == []

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_zero_explicit_reference_exits_3_before_sampling(
            self, tmp_path, monkeypatch, capsys, dry_run):
        # (0, 1) is exactly zero in the output of the identity on the twin
        # beam: its denominator vanishes, so nothing may be sampled
        calls = self._count_calls(monkeypatch, pipeline, "sample_quadratures")
        path = tmp_path / "ref.cfg"
        path.write_text(
            "optomo-config v1\noperation = identity\nreference = 0,1\n"
            "nbar = 1.0\neta = 0.9\nn_max = 3\nblocks = 6\n"
            "samples_per_block = 400\nmaster_seed = 5\n"
        )
        argv = ["simulate", "--config", str(path), "--out-dir", str(tmp_path)]
        assert main(argv + ["--dry-run"] * dry_run) == 3
        assert "ReferenceTooSmall" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("route, builder, dim_cut", [
        ("fock", "fock_tables", 12), ("finite", "joint_outcome_table", 3)])
    def test_sampler_record_built_once_per_run(self, tmp_path, monkeypatch,
                                               route, builder, dim_cut):
        # six blocks on three workers share the one per-run sampler record
        calls = self._count_calls(monkeypatch, pipeline, builder)
        cfg = ExperimentConfig(
            operation="kraus",
            kraus_file=_two_kraus_file(tmp_path / "k.npy", dim_cut),
            route=route, nbar=1.0, eta=0.9, dim_cut=dim_cut, n_max=2,
            blocks=6, samples_per_block=200, master_seed=31,
        )
        run_simulate(cfg, threads=3, out_dir=tmp_path)
        assert len(calls) == 1

    def test_entangler_inverted_once_per_run(self, tmp_path, monkeypatch):
        calls = self._count_calls(monkeypatch, estimation, "inverse")
        cfg = ExperimentConfig(
            operation="kraus", kraus_file=_two_kraus_file(tmp_path / "k.npy", 3),
            route="finite", nbar=1.0, dim_cut=3, n_max=2, blocks=6,
            samples_per_block=500, master_seed=31,
        )
        run_simulate(cfg, out_dir=tmp_path)
        assert len(calls) == 1


def test_package_never_imports_scipy(tmp_path):
    # scipy is a test-only dependency: one run on each route, the plot data
    # and every verification suite leave no scipy module loaded
    script = """
import sys
import optomo, optomo.cli
from optomo.config import ExperimentConfig
from optomo.pipeline import VERIFY_SUITES, emit_plotdata, run_simulate, run_verify

out = sys.argv[1]
small = dict(nbar=1.0, eta=0.9, n_max=2, blocks=2, samples_per_block=200)
run_simulate(ExperimentConfig(operation="displacement", dim_cut=16,
                              out_prefix="gauss", **small), out_dir=out)
run_simulate(ExperimentConfig(operation="identity", route="fock", dim_cut=12,
                              out_prefix="fock", **small), out_dir=out)
run_simulate(ExperimentConfig(operation="identity", route="finite",
                              out_prefix="finite", **small), out_dir=out)
emit_plotdata(out + "/gauss.result.txt", out_dir=out + "/plot")
for suite in VERIFY_SUITES:
    run_verify(suite)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
