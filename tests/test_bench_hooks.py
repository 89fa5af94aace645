"""The benchmark's tracer hooks optomo functions by dotted name, and its
worker imports and calls them.

A renamed or removed target would turn its per-layer metrics to null without
failing the benchmark, and a renamed function or keyword would fail every
benchmark call; these checks make such a change fail the test suite.
``bench/tracer.py`` is loaded and ``bench/worker.py`` only parsed; nothing
under ``bench/`` is run as a script or changed.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKER = TRACER.with_name("worker.py")


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


@pytest.fixture(scope="module")
def worker_names():
    """The worker's syntax tree and each name its ``from optomo...``
    imports bind, mapped to the object it resolves to."""
    tree = ast.parse(WORKER.read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("optomo"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return tree, names


def test_worker_imports_resolve(worker_names):
    _, names = worker_names
    assert {"pipeline", "align_to_truth", "KrausMap", "kraus_to_choi",
            "GridSpec", "build_homodyne_kernel"} <= set(names)


def _callee(func, names):
    """The optomo object a call's ``f`` or ``module.f`` names, or None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = names.get(func.value.id)
        if inspect.ismodule(owner):
            assert hasattr(owner, func.attr), (func.value.id, func.attr)
            return getattr(owner, func.attr)
    return None


def test_worker_calls_bind_to_signatures(worker_names):
    # every call of an imported optomo name, build_homodyne_kernel's
    # max_index, ridge and cache_dir among them, binds to the signature
    tree, names = worker_names
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _callee(node.func, names)
        if fn is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(k.arg is not None for k in node.keywords)
        inspect.signature(fn).bind(*node.args,
                                   **{k.arg: k.value for k in node.keywords})
        bound.add((fn.__name__, *sorted(k.arg for k in node.keywords)))
    assert ("build_homodyne_kernel", "cache_dir", "max_index",
            "ridge") in bound
    assert ("run_simulate", "dry_run", "out_dir", "threads") in bound


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
