"""Benchmark of optomo's simulate pipeline: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gauss_bottom_t2 --seed 1 --seconds 36 --trace 0

Writes the workload's inputs (see ``workloads.py``) into a fresh directory
under ``.bench_run/``, then measures them in a child process whose BLAS
thread count is pinned to 1, so that pool workers x BLAS threads <= nproc.  Prints
the metrics by name and unit, the checks made, the sha256 of the result
document and the machine it ran on; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``samples_per_s`` (trials per second of one warm ``run_simulate`` call,
median over the calls made), ``setup_s`` (median cold set-up) and
``peak_rss_mb`` (peak resident memory of the child).  ``fail_frac``, the
share of calls that raised or failed their check, is printed and equals
``failed / attempted``.  ``--trace 1`` reports the per-layer metrics from
spans hooked around optomo's functions (see ``tracer.py``).

Exits 2 when the checkout holds no ``src/optomo`` to measure, 1 when the
measurement itself could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from workloads import CONFIG_NAME, WORKLOADS, write_inputs  # noqa: E402

# One BLAS thread per pool worker: idle BLAS threads spin and, on a shared
# machine, make the timings of single-worker runs wander by 20%.
BLAS_THREADS = 1
BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def baseline_sha(workload: str, seed: int):
    path = BENCH / "baseline.json"
    if not path.exists():
        return None
    base = json.loads(path.read_text())
    return base.get("workloads", {}).get(workload, {}).get(
        "sha256", {}).get(str(seed))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_child(spec: dict, run_dir: pathlib.Path, blas_threads: int,
              timeout: float) -> dict:
    (run_dir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "spec.json"],
        cwd=run_dir, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "optomo" / "pipeline.py").is_file():
        print(f"no optomo sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    run_root = ROOT / ".bench_run"
    run_dir = run_root / (f"{workload.name}-s{args.seed}-t{args.trace}-"
                          f"{os.getpid()}")
    run_dir.mkdir(parents=True)
    try:
        generated = write_inputs(workload, args.seed, run_dir)
        spec = {
            "config": CONFIG_NAME,
            "threads": workload.threads,
            "seconds": args.seconds,
            "trace": args.trace,
            "trace_file": str(run_root / f"trace-{workload.name}-"
                                         f"s{args.seed}.json"),
        }
        out = run_child(spec, run_dir, BLAS_THREADS,
                        DEADLINE_S - (time.perf_counter() - t_start))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"measurement failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {workload.name}: {workload.why}")
    print(f"inputs seed={args.seed} " + " ".join(
        f"{k}={v}" for k, v in generated.items()))
    print(f"machine nproc={nproc} cpu={cpu_model()!r} python="
          f"{platform.python_version()} numpy={out['numpy']} "
          f"scipy={out['scipy']}")
    print(f"threads workers={workload.threads} blas={BLAS_THREADS} "
          "(OPENBLAS/OMP/MKL_NUM_THREADS)")
    print(f"sources {out['optomo']}")
    if workload.threads * BLAS_THREADS > nproc:
        print(f"note {workload.threads} workers x {BLAS_THREADS} BLAS "
              f"threads exceed nproc={nproc}")
    print(f"check {out['check']}")
    base = baseline_sha(workload.name, args.seed)
    for digest in out["sha256"]:
        verdict = ("no baseline for this seed" if base is None else
                   "same as seed baseline" if digest == base else
                   f"differs from seed baseline {base}")
        print(f"result_sha256 {digest} ({verdict})")
    for note in out["notes"]:
        print(f"note {note}")
    print(f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} "
          "calls raised or failed their check)")

    if args.trace:
        metrics = {name: {"value": out["layers"].get(name), "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
        print(f"per-layer metrics, median of {out['traced_calls']} warm "
              "traced calls:")
    else:
        if not out["call_s"]:
            print("every call raised; no metric to report", file=sys.stderr)
            return 1
        trials = workload.config["blocks"] * workload.config[
            "samples_per_block"]
        values = {
            "samples_per_s": trials / statistics.median(out["call_s"]),
            "setup_s": statistics.median(out["setup_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
        print("call_s " + " ".join(f"{t:.4f}" for t in out["call_s"]))
        calls, setups = sorted(out["call_s"]), sorted(out["setup_s"])
        print(f"warm calls of {trials} trials: n={len(calls)} min="
              f"{calls[0]:.4g} s median={statistics.median(calls):.4g} s "
              f"max={calls[-1]:.4g} s")
        print(f"cold set-ups: n={len(setups)} min={setups[0]:.4g} s median="
              f"{statistics.median(setups):.4g} s max={setups[-1]:.4g} s")
    for name, m in metrics.items():
        shown = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {shown:>12s} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
