#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 [--workloads env-chain,...]
                             [--traced-seeds 1] [--out bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
the ``run_seconds`` of BENCHMARK.json. For each end-to-end metric it
prints the median and the quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound. Traced runs give the per-layer numbers; their medians
over the traced seeds are kept. With ``--out`` everything, including
each run's output digest of the first block, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced-seeds", type=seeds, default=[])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs, values = [], {}
        for seed in args.seeds:
            t0 = time.perf_counter()
            record, result = run_once(workload, seed, spec["run_seconds"], 0)
            wall = time.perf_counter() - t0
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "first_block_digest": record["first_block_digest"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        e2e = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            e2e[m["name"]] = {"unit": m["unit"], "median": statistics.median(v), "q1": q1,
                              "q3": q3, "spread": spread(v), "bound": m["bound"]}
            print(f"  {m['name']:13s} median {statistics.median(v):12.5g} {m['unit']:6s} "
                  f"spread {spread(v):.3f}  bound {m['bound']}", flush=True)
        traced = {}
        for seed in args.traced_seeds:
            record, result = run_once(workload, seed, spec["run_seconds"], 1)
            for k, v in result["metrics"].items():
                traced.setdefault(k, []).append(v["value"])
        summary["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {k: statistics.median(v) for k, v in traced.items()},
            "traced_seeds": args.traced_seeds,
            "machine": record["machine"],
            "runs": runs,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
