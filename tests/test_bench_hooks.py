"""The benchmark's tracer hooks optomo functions by dotted name.

A renamed or removed target would turn its per-layer metrics to null without
failing the benchmark; this check makes such a rename fail the test suite.
Only ``bench/tracer.py`` is read; nothing under ``bench/`` is changed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(tracer):
    missing = [path for _, path, _ in tracer.HOOKS if tracer.resolve(path) is None]
    assert missing == []


def test_map_blocks_takes_traced_parameters(tracer):
    found = tracer.resolve(tracer.MAP_BLOCKS_TARGET)
    assert found is not None
    params = inspect.signature(found[2]).parameters
    assert set(tracer.MAP_BLOCKS_PARAMS) <= set(params)


def _traced_run(tracer, cfg, tmp_path):
    """Heralded samples and the spans of one traced two-thread run."""
    from optomo.pipeline import run_simulate

    t = tracer.Tracer()
    t.install()
    try:
        run_simulate(cfg, threads=2, out_dir=tmp_path)
    finally:
        t.uninstall()
    spans, _, _ = t.take()
    assert t.missing == {}
    heralded = [s.count[0] for s in spans if s.label == "sampling.heralds"]
    assert len(heralded) == cfg.blocks
    return sum(heralded), spans


def _counted(spans, label):
    return sum(s.count for s in spans if s.label == label)


def test_dyad_hook_counts_every_pair_sample(tracer, tmp_path):
    # every heralded sample is evaluated on each mode's pairs through the
    # hooked dyad_estimates; dyads evaluated elsewhere would read 0 here
    from optomo.config import ExperimentConfig

    cfg = ExperimentConfig(
        operation="displacement", z=0.5 + 0.0j, nbar=1.0, eta=0.9, n_max=3,
        blocks=3, samples_per_block=5000, master_seed=8, out_prefix="hooks",
    )
    heralded, spans = _traced_run(tracer, cfg, tmp_path)
    dyad = _counted(spans, "quorum.dyad")
    # a pure estimate pairs i0 with n_max + 1 indices on each mode
    assert dyad == heralded * 2 * (cfg.n_max + 1)


def test_dyad_hook_counts_heralded_choi_pair_samples(tracer, tmp_path):
    # a finite-route Choi run with p_occ < 1: every block is reduced through
    # its observable-pair sums with dual coefficients built once per run,
    # so the hooked dyad_estimates, a per-sample evaluation, is never called
    # and quorum.dyad_pair_samples reads 0 on this route; the hooked
    # sample_finite counts each heralded sample once, from its one column
    from optomo.config import ExperimentConfig

    ks = np.zeros((2, 3, 3), dtype=complex)
    ks[0, :2, :2] = np.sqrt(0.5) * np.eye(2)
    ks[1, :2, :2] = np.sqrt(0.5) * np.diag([1.0, -1.0])
    np.save(tmp_path / "k.npy", ks)
    cfg = ExperimentConfig(
        operation="kraus", kraus_file=str(tmp_path / "k.npy"), route="finite",
        nbar=1.0, dim_cut=3, n_max=2, blocks=3, samples_per_block=2000,
        master_seed=8, out_prefix="hooks",
    )
    heralded, spans = _traced_run(tracer, cfg, tmp_path)
    assert 0 < heralded < cfg.blocks * cfg.samples_per_block
    assert _counted(spans, "quorum.dyad") == 0
    assert _counted(spans, "sampling.finite") == heralded


def test_fock_hook_counts_every_heralded_sample(tracer, tmp_path):
    # a two-branch Fock-route Choi run with p_occ < 1: the samples counted
    # by the hooked sample_fock_general, which sampling.fock_us_per_sample
    # divides its time by, are the heralded samples of every branch
    from optomo.config import ExperimentConfig

    ks = np.zeros((2, 3, 3), dtype=complex)
    ks[0, :2, :2] = np.sqrt(0.5) * np.eye(2)
    ks[1, :2, :2] = np.sqrt(0.5) * np.diag([1.0, -1.0])
    np.save(tmp_path / "k.npy", ks)
    cfg = ExperimentConfig(
        operation="kraus", kraus_file=str(tmp_path / "k.npy"), route="fock",
        nbar=1.0, dim_cut=12, n_max=2, blocks=3, samples_per_block=600,
        master_seed=8, out_prefix="hooks",
    )
    heralded, spans = _traced_run(tracer, cfg, tmp_path)
    assert 0 < heralded < cfg.blocks * cfg.samples_per_block
    assert _counted(spans, "sampling.fock") == heralded
