"""The benchmark's tracer hooks optomo functions by dotted name.

A renamed or removed target would turn its per-layer metrics to null without
failing the benchmark; this check makes such a rename fail the test suite.
Only ``bench/tracer.py`` is read; nothing under ``bench/`` is changed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

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
