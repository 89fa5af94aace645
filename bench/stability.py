"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/stability.py --workloads fock_choi,finite_choi --seeds 1-10
    python3 bench/stability.py --seeds 1-10 --trace 1 --write-baseline

Runs the command of ``BENCHMARK.json`` once per workload and seed, in the
order seed-major so that slow drift of the machine touches every workload
alike.  For each end-to-end metric it prints the median, the quartiles and
the spread (q3 - q1) / median next to the metric's bound.  Raw results go to
``.bench_run/stability-<trace>.json``.  ``--write-baseline`` records the
medians and the result-document sha256 of every seed in
``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["sha256"] = [ln.split()[1] for ln in lines
                        if ln.startswith("result_sha256 ")]
    result["machine"] = next(ln for ln in lines if ln.startswith("machine "))
    result.update(workload=workload, seed=seed, elapsed_s=elapsed)
    return result


def fmt(value) -> str:
    return "null" if value is None else f"{value:.5g}"


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    results = []
    for seed in seed_list(args.seeds):
        for workload in workloads:
            r = run_once(spec, workload, seed, args.trace)
            results.append(r)
            print(f"{workload} seed {seed}: {r['elapsed_s']:.1f} s, correct="
                  f"{r['correct']} attempted={r['attempted']} failed="
                  f"{r['failed']} " + " ".join(
                      f"{k}={fmt(m['value'])}" for k, m in r["metrics"].items()),
                  flush=True)
    out_dir = ROOT / ".bench_run"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"stability-{args.trace}.json").write_text(
        json.dumps(results, indent=1))

    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    table = {}
    for workload in workloads:
        mine = [r for r in results if r["workload"] == workload]
        table[workload] = {}
        print(f"{workload}: {len(mine)} runs, mean elapsed "
              f"{statistics.mean(r['elapsed_s'] for r in mine):.1f} s")
        for m in metric_specs:
            values = [r["metrics"][m["name"]]["value"] for r in mine]
            if len(values) < 2 or any(v is None for v in values) \
                    or statistics.median(values) == 0:
                table[workload][m["name"]] = {"values": values}
                continue
            s = summary(values)
            table[workload][m["name"]] = s
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = f" bound {bound} (" + (
                    "below a third" if s["spread"] < bound / 3 else
                    "within" if s["spread"] <= bound else "OVER") + ")"
            print(f"  {m['name']:34s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}{verdict}")

    if args.write_baseline:
        path = BENCH / "baseline.json"
        base = json.loads(path.read_text()) if path.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        base["machine"] = results[0]["machine"]
        for workload in workloads:
            entry = base.setdefault("workloads", {}).setdefault(workload, {})
            entry[key] = table[workload]
            shas = entry.setdefault("sha256", {})
            for r in results:
                if r["workload"] != workload:
                    continue
                known = shas.setdefault(str(r["seed"]), r["sha256"][0])
                if r["sha256"] != [known]:
                    raise SystemExit(f"{workload} seed {r['seed']}: result "
                                     f"documents {r['sha256']} differ from "
                                     f"{known}")
        path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
