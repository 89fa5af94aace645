"""Spans around optomo's functions, hooked by name from the benchmark's code.

A hook replaces its target for the duration of one traced run and puts the
original back afterwards, so untraced runs execute the unmodified program.
Targets are found by dotted name.  A module-level function is replaced in
every loaded ``optomo`` module that binds it (``from x import f`` copies the
reference), a method on its class.  A target that no longer exists is
reported in ``missing``; metrics that depend on it read null instead of
failing the benchmark.

Spans live in memory.  Each records its label, start and end, the enclosing
span on the same thread, the thread, the traced run it belongs to, and an
optional count of the work done (samples, pair-samples, bytes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    label: str
    parent: int | None
    thread: int
    run: int
    start: float
    end: float = 0.0
    count: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(out):
    return int(out[0].size)


def _pair_samples(out):
    return int(out.shape[0] * out.shape[1])


def _heralds(out):
    return int(out.sum()), int(out.size)


def _text_bytes(out):
    return len(out.encode())


# (label, dotted target, count taken from the return value)
HOOKS = (
    ("pipeline.run_simulate", "optomo.pipeline.run_simulate", None),
    ("maps.twin_beam", "optomo.maps.twin_beam", None),
    ("maps.build_operation", "optomo.pipeline.build_operation", None),
    ("maps.apply", "optomo.maps.apply_pure", None),
    ("maps.apply", "optomo.maps.apply_kraus_bipartite", None),
    ("quorum.kernel", "optomo.quorum.build_homodyne_kernel", None),
    ("quorum.finite_quorum", "optomo.quorum.build_finite_quorum", None),
    ("quorum.dyad", "optomo.quorum.HomodyneKernel.dyad_estimates", _pair_samples),
    ("quorum.dyad", "optomo.quorum.FiniteQuorum.dyad_estimates", _pair_samples),
    ("sampling.gauss", "optomo.sampling.sample_quadratures", _rows),
    ("sampling.fock", "optomo.sampling.sample_fock_general", _rows),
    ("sampling.finite", "optomo.sampling.sample_finite", _rows),
    ("sampling.finite_table", "optomo.sampling.joint_outcome_table", None),
    ("sampling.heralds", "optomo.sampling.draw_heralds", _heralds),
    ("estimation.accumulate", "optomo.estimation.accumulate_pure", None),
    ("estimation.accumulate", "optomo.estimation.accumulate_choi", None),
    ("estimation.merge", "optomo.estimation.BlockAccumulator.merge", None),
    ("estimation.finalize", "optomo.estimation.finalize_pure", None),
    ("estimation.finalize", "optomo.estimation.finalize_choi", None),
    ("estimation.finalize", "optomo.estimation.phase_fix", None),
    ("report.render", "optomo.report.render_result", _text_bytes),
    ("report.render", "optomo.report.render_plotdata_diagonal", _text_bytes),
    ("report.render", "optomo.report.render_plotdata_matrix", _text_bytes),
)

# Per-block timing wraps the callables handed to the block map.
MAP_BLOCKS_TARGET = "optomo.pipeline._map_blocks"
MAP_BLOCKS_LABEL = "pipeline.map_blocks"
MAP_BLOCKS_PARAMS = ("make_block", "accumulate_one", "block_ids", "threads")


def resolve(path: str):
    """(owner, attribute, object) for a dotted name, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Installs the hooks, records spans and per-block times, restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.block_times: list[float] = []
        self.map_threads = 0
        self.missing: dict[str, str] = {}   # label -> note
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), label,
                        stack[-1].id if stack else None,
                        threading.get_ident(), tracer.run, time.perf_counter())
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.count = counter(out)
            return out

        return traced

    def _wrap_map_blocks(self, fn):
        tracer = self
        spanned = self._wrap(MAP_BLOCKS_LABEL, fn, None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            make_block = bound.arguments["make_block"]
            accumulate_one = bound.arguments["accumulate_one"]
            started = threading.local()

            def timed_make(block_id):
                started.t = time.perf_counter()
                return make_block(block_id)

            def timed_accumulate(block):
                out = accumulate_one(block)
                tracer.block_times.append(time.perf_counter() - started.t)
                return out

            bound.arguments["make_block"] = timed_make
            bound.arguments["accumulate_one"] = timed_accumulate
            tracer.map_threads = max(1, int(bound.arguments["threads"]))
            return spanned(*bound.args, **bound.kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, original, replacement):
        places = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "optomo"
                                          or name.startswith("optomo.")):
                    continue
                for key, value in vars(module).items():
                    if value is original and (module, key) != (owner, attr):
                        places.append((module, key))
        for where, key in places:
            self._patches.append((where, key, original))
            setattr(where, key, replacement)

    def install(self) -> None:
        """Hook every target that exists; note the ones that do not."""
        self.run += 1
        for label, path, counter in HOOKS:
            found = resolve(path)
            if found is None:
                self.missing[label] = f"hook target {path} not found"
                continue
            owner, attr, original = found
            self._patch(owner, attr, original,
                        self._wrap(label, original, counter))
        found = resolve(MAP_BLOCKS_TARGET)
        if found is None:
            self.missing[MAP_BLOCKS_LABEL] = (
                f"hook target {MAP_BLOCKS_TARGET} not found")
        elif not set(MAP_BLOCKS_PARAMS) <= set(
                inspect.signature(found[2]).parameters):
            self.missing[MAP_BLOCKS_LABEL] = (
                f"hook target {MAP_BLOCKS_TARGET} no longer takes "
                f"{', '.join(MAP_BLOCKS_PARAMS)}")
        else:
            owner, attr, original = found
            self._patch(owner, attr, original, self._wrap_map_blocks(original))

    def uninstall(self) -> None:
        for where, key, original in reversed(self._patches):
            setattr(where, key, original)
        self._patches.clear()

    def take(self) -> tuple[list[Span], list[float], int]:
        """Spans, block times and pool width recorded since the last take."""
        out = (self.spans, self.block_times, self.map_threads)
        self.spans, self.block_times, self.map_threads = [], [], 0
        return out
