"""Runs one workload through ``optomo.pipeline.run_simulate`` and measures it.

Started by ``run.py`` as a child process, with the BLAS thread count already
pinned in its environment and its working directory set to the run
directory that holds the generated inputs.  Reads the run spec (JSON) named
on the command line and prints one JSON line of raw measurements.

Untraced mode (``trace = 0``):
  * set-up, repeated at least ``SETUP_MIN_REPS`` times and for at least
    ``SETUP_MIN_S`` seconds, each into an empty kernel cache:
    config load and validation, ``run_simulate(dry_run=True)`` (entangler,
    operation, its action on the entangler, and the finite quorum on that
    route), then the homodyne kernel build on the homodyne routes;
  * warm runs: whole ``run_simulate`` calls with the kernel cache filled by
    the last set-up, repeated until the time budget is spent.
Traced mode (``trace = 1``): one cold traced call, then alternating untraced
and traced warm calls; per-layer metrics come from the traced calls.

Every call's result is checked against its known truth, and the result
documents of all calls (traced or not) must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import traceback

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from optomo import pipeline  # noqa: E402
from optomo.estimation import align_to_truth  # noqa: E402
from optomo.maps import KrausMap, kraus_to_choi  # noqa: E402
from optomo.quorum import GridSpec, build_homodyne_kernel  # noqa: E402

from tracer import MAP_BLOCKS_LABEL, Tracer  # noqa: E402

CHOI_WITHIN_FRACTION = 0.95
# set-up repeats until both the count and the summed time are reached, so
# that set-ups of a few milliseconds still give a steady median
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 200


# The CPUs of a shared machine drift in speed independently of each other
# over tens of seconds.  Rotating the calls over all CPUs lets a run's median
# average that drift instead of following the one CPU it happened to get.
CPUS = sorted(os.sched_getaffinity(0))


def rotate_cpus(index: int, threads: int) -> None:
    """Pin this thread to ``threads`` CPUs, shifted by one per call."""
    if threads < len(CPUS):
        os.sched_setaffinity(0, {CPUS[(index + k) % len(CPUS)]
                                 for k in range(threads)})


# ---------------------------------------------------------------------------
# correctness


def check_result(res, cfg) -> tuple[bool, str]:
    """Compare an estimate with its known truth at three standard errors."""
    est = res.estimate
    if res.kind == "pure":
        truth = pipeline.displacement_theory(cfg.z, cfg.n_max)
        aligned = align_to_truth(est, truth)
        se = est.std_errors
        diag = sum(abs(aligned[n, n] - truth[n, n]) <= 3.0 * se[n, n]
                   for n in range(7))
        off = sum(abs(abs(aligned[n, n + 1]) - abs(truth[n, n + 1]))
                  <= 3.0 * se[n, n + 1] for n in range(7))
        ok = diag >= 6 and off >= 6
        return ok, (f"diagonal {diag}/7 and first off-diagonal {off}/7 "
                    "within 3 sigma of displacement_theory (need 6 each)")
    w1 = int(round(np.sqrt(est.values.shape[0])))
    stack = np.load(cfg.kraus_file)[:, :w1, :w1]
    truth = kraus_to_choi(KrausMap(tuple(stack))).matrix
    within = np.abs(est.values - truth) <= 3.0 * est.std_errors + 1e-12
    frac = float(np.mean(within))
    return frac >= CHOI_WITHIN_FRACTION, (
        f"{frac:.4f} of {within.size} Choi window entries within 3 sigma of "
        f"kraus_to_choi (need {CHOI_WITHIN_FRACTION})")


def document_sha256(res) -> str:
    doc = next(p for p in res.paths if str(p).endswith(".result.txt"))
    return hashlib.sha256(pathlib.Path(doc).read_bytes()).hexdigest()


class Calls:
    """Outcome of every run_simulate call of this process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.hashes: list[str] = []
        self.notes: list[str] = []
        self.check_detail = ""

    def run(self, cfg, threads, out_dir):
        """One timed call; returns its wall time, or None if it raised.

        A call whose result fails its check still returns its time; it is
        counted in ``failed``.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = pipeline.run_simulate(cfg, threads=threads, out_dir=out_dir)
        except Exception:  # a failing call is counted, not fatal
            self.failed += 1
            self.notes.append(traceback.format_exc(limit=3))
            return None
        wall = time.perf_counter() - t0
        ok, self.check_detail = check_result(res, cfg)
        digest = document_sha256(res)
        if self.hashes and digest != self.hashes[0]:
            ok = False
            self.notes.append(f"result document differs: {digest} vs "
                              f"{self.hashes[0]}")
        self.hashes.append(digest)
        self.failed += not ok
        return wall


def out_of_time(t_start, seconds, typical) -> bool:
    """True when another call of the typical length would overrun."""
    return time.perf_counter() - t_start + typical > seconds


# ---------------------------------------------------------------------------
# untraced measurement


def measure(spec, cfg_path):
    threads = spec["threads"]
    setup = []
    while (len(setup) < SETUP_MIN_REPS or sum(setup) < SETUP_MIN_S) \
            and len(setup) < SETUP_MAX_REPS:
        out_dir = pathlib.Path(f"setup{len(setup)}")
        rotate_cpus(len(setup), threads)
        t0 = time.perf_counter()
        cfg = pipeline.load_config_or_preset(cfg_path)
        pipeline.run_simulate(cfg, threads=threads, dry_run=True,
                              out_dir=out_dir)
        if cfg.resolved_route() != "finite":
            build_homodyne_kernel(
                cfg.resolved_dim_cut(), cfg.eta,
                GridSpec(cfg.resolved_half_width(), cfg.grid_spacing),
                max_index=cfg.n_max, ridge=cfg.ridge,
                cache_dir=out_dir / "kernel-cache")
        setup.append(time.perf_counter() - t0)

    calls = Calls()
    walls = []
    t_start = time.perf_counter()
    while True:
        rotate_cpus(calls.attempted, threads)
        wall = calls.run(cfg, threads, out_dir)
        if wall is not None:
            walls.append(wall)
        typical = (statistics.median(walls) if walls
                   else (time.perf_counter() - t_start) / calls.attempted)
        if out_of_time(t_start, spec["seconds"], typical):
            break
    return {"setup_s": setup, "call_s": walls}, calls


# ---------------------------------------------------------------------------
# traced measurement


def layer_metrics(spans, block_times, map_threads, cold_spans,
                  missing) -> dict:
    """Per-layer metrics of one warm traced call (plus its cold kernel build)."""
    by_label: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_label.setdefault(s.label, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(*labels) -> float:
        found = [s for lab in labels for s in by_label.get(lab, ())]
        ids = {s.id for s in found}
        return float(sum(s.duration for s in found if s.parent not in ids))

    def counted(label) -> int:
        return int(sum(s.count for s in by_label.get(label, ())))

    def self_time(label) -> float:
        return float(sum(
            s.duration - sum(c.duration for c in children.get(s.id, ()))
            for s in by_label.get(label, ())))

    def per(num, den, scale) -> float:
        return num * scale / den if den else 0.0

    heralds = [s.count for s in by_label.get("sampling.heralds", ())]
    blocks = np.asarray(block_times) if block_times else np.zeros(1)
    dyad_s, pair_samples = total("quorum.dyad"), counted("quorum.dyad")
    metrics = {}

    def put(name, labels, value):
        missing_target = any(label in missing for label in labels)
        metrics[name] = None if missing_target else value

    kernel, dyad = ("quorum.kernel",), ("quorum.dyad",)
    put("quorum.kernel_build_s", kernel, float(sum(
        s.duration for s in cold_spans if s.label == "quorum.kernel")))
    put("quorum.kernel_load_s", kernel, total("quorum.kernel"))
    put("quorum.dyad_s", dyad, dyad_s)
    put("quorum.dyad_ns_per_pair_sample", dyad, per(dyad_s, pair_samples, 1e9))
    put("quorum.dyad_pair_samples", dyad, pair_samples)
    put("sampling.gauss_ns_per_sample", ("sampling.gauss",),
        per(total("sampling.gauss"), counted("sampling.gauss"), 1e9))
    put("sampling.fock_us_per_sample", ("sampling.fock",),
        per(total("sampling.fock"), counted("sampling.fock"), 1e6))
    table = ("sampling.finite_table",)
    put("sampling.finite_table_s", table, total("sampling.finite_table"))
    put("sampling.finite_table_calls", table,
        len(by_label.get("sampling.finite_table", ())))
    put("sampling.finite_ns_per_sample", ("sampling.finite",) + table,
        per(self_time("sampling.finite"), counted("sampling.finite"), 1e9))
    # routes that draw no heralds keep every trial
    put("sampling.heralded_frac", ("sampling.heralds",),
        sum(h for h, _ in heralds) / sum(n for _, n in heralds)
        if heralds else 1.0)
    put("estimation.accumulate_self_s", ("estimation.accumulate",) + dyad,
        self_time("estimation.accumulate"))
    put("estimation.merge_s", ("estimation.merge",), total("estimation.merge"))
    put("estimation.finalize_s", ("estimation.finalize",),
        total("estimation.finalize"))
    setup = ("maps.twin_beam", "maps.build_operation", "maps.apply")
    put("maps.setup_s", setup, total(*setup))
    put("report.render_s", ("report.render",), total("report.render"))
    put("report.bytes", ("report.render",), counted("report.render"))
    pool = (MAP_BLOCKS_LABEL,)
    put("pipeline.block_s_median", pool, float(np.median(blocks)))
    put("pipeline.block_s_p90", pool, float(np.percentile(blocks, 90)))
    put("pipeline.parallel_efficiency", pool,
        per(sum(block_times), map_threads * total(MAP_BLOCKS_LABEL), 1.0))
    # the root's self time is only meaningful when every child was hooked
    put("pipeline.other_s", tuple(missing), self_time("pipeline.run_simulate"))
    return metrics


def trace(spec, cfg_path):
    threads = spec["threads"]
    cfg = pipeline.load_config_or_preset(cfg_path)
    out_dir = pathlib.Path("traced")
    tracer = Tracer()
    calls = Calls()

    def traced_call():
        tracer.install()
        try:
            wall = calls.run(cfg, threads, out_dir)
        finally:
            tracer.uninstall()
        return wall, tracer.take()

    t_start = time.perf_counter()
    _, (cold_spans, _, _) = traced_call()  # kernel cache is empty here
    per_call = []
    untraced, traced = [], []
    while True:
        rotate_cpus(len(per_call), threads)  # both calls of a pair alike
        wall_u = calls.run(cfg, threads, out_dir)
        wall_t, recorded = traced_call()
        if wall_u is not None and wall_t is not None:
            untraced.append(wall_u)
            traced.append(wall_t)
            per_call.append(layer_metrics(*recorded, cold_spans,
                                          tracer.missing))
            last_spans = recorded[0]
        typical = (statistics.median(untraced) + statistics.median(traced)
                   if traced else
                   (time.perf_counter() - t_start) / max(1, calls.attempted))
        if out_of_time(t_start, spec["seconds"], typical):
            break
    layers = {}
    for name in (per_call[0] if per_call else {}):
        values = [m[name] for m in per_call]
        layers[name] = (None if values[0] is None
                        else float(statistics.median(values)))
    if traced:
        layers["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
        pathlib.Path(spec["trace_file"]).write_text(json.dumps(
            [vars(s) for s in last_spans]))
    notes = [f"{label}: {note}; its metrics read null"
             for label, note in sorted(tracer.missing.items())]
    return {"layers": layers, "traced_calls": len(traced),
            "notes": notes}, calls


def main() -> None:
    spec = json.loads(pathlib.Path(sys.argv[1]).read_text())
    cfg_path = spec["config"]
    if spec["trace"]:
        out, calls = trace(spec, cfg_path)
    else:
        out, calls = measure(spec, cfg_path)
    out.update(
        attempted=calls.attempted,
        failed=calls.failed,
        sha256=sorted(set(calls.hashes)),
        check=calls.check_detail,
        notes=out.get("notes", []) + calls.notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        scipy=scipy.__version__,
        optomo=str(pathlib.Path(pipeline.__file__).resolve().parent),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
