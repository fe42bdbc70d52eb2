#!/usr/bin/env python3
"""qprop benchmark: one seeded workload, timed in a closed loop, checked.

Run from the repository root:

    python3 bench/run.py --workload env-chain --seed 1 --seconds 30 --trace 0

One client sends each op only after the previous one returned. Inputs
come from ``--seed`` in blocks (see workloads.py); whole blocks run until
``--seconds`` of timed ops and at least 100 ops are done. Every output is
checked against reference.py outside the timed region. With ``--trace 0``
the last line of output carries the end-to-end metrics; with
``--trace 1`` each op runs untraced and then traced (or the other way
round) on the same input, and the last line carries the per-layer
metrics. A JSON run record
(machine, sample counts, output digests) is printed on the line before
and written, with the spans, under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread: the closed loop has one client, the matrices are at most
# 128 x 128, and a single thread keeps runs steady on a shared machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_OPS = 100
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def import_qprop():
    """Import qprop from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import qprop
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qprop from {SRC}: {exc}") from exc
    if Path(qprop.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: qprop resolved to {qprop.__file__}, not under {SRC}")
    return qprop


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # separates the workloads' random streams for one seed
    blocks: Callable  # rng -> iterator of input lists
    op: Callable  # input -> output; the timed operation
    check: Callable  # (input, output) -> list of mismatch messages
    warmup: Callable  # rng -> smallest input of the workload
    parts: Callable  # output -> strings whose bytes are digested


def workloads():
    import reference
    import workloads as w

    return {
        "env-chain": Workload(
            "env-chain", 0, w.env_chain_blocks, w.env_chain_op, reference.check_env_chain,
            lambda rng: w.env_chain_input(rng, min(w.ENV_CHAIN_MIX)), lambda out: [out],
        ),
        "scenario-batch": Workload(
            "scenario-batch", 1, w.batch_blocks, w.batch_op, reference.check_batch,
            lambda rng: w.batch_input(rng, w.BATCH_DIMS[0], w.BATCH_CONTEXTS[0]),
            lambda out: out.bytes_digest_parts(),
        ),
        "lattice-algebra": Workload(
            "lattice-algebra", 2, w.algebra_blocks, w.algebra_op, reference.check_algebra,
            lambda rng: w.algebra_input(rng, *w.ALGEBRA_SHAPES[0]), lambda out: [out.text],
        ),
    }


def rngs(seed: int, wl: Workload):
    import numpy as np

    return (np.random.default_rng([seed, wl.index, 0]),
            np.random.default_rng([seed, wl.index, 1]))


def warm_up(wl: Workload, seed: int) -> float:
    """Run the warm-up op; return the seconds spent generating its input."""
    _, warm_rng = rngs(seed, wl)
    t0 = time.perf_counter()
    inp = wl.warmup(warm_rng)
    gen_s = time.perf_counter() - t0
    wl.op(inp)
    return gen_s


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import, warm up, report, exit."""
    import_qprop()
    gen_s = warm_up(workloads()[workload], seed)
    print(json.dumps({"gen_s": gen_s}), flush=True)


def setup_sample(workload: str, seed: int) -> float:
    """One fresh-interpreter set-up time: spawn until the first op could start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or not line:
        raise SystemExit(f"bench: set-up probe failed with code {proc.returncode}")
    return t1 - t0 - json.loads(line)["gen_s"]


def timed_call(run_one, inp):
    """(output or the exception raised, seconds taken) of one op."""
    t0 = time.perf_counter()
    try:
        out = run_one(inp)
    except Exception as exc:  # an op that raises counts as failed
        out = exc
    return out, time.perf_counter() - t0


class Runner:
    """Closed loop over whole input blocks; checks each block after timing it."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.blocks = wl.blocks(rngs(seed, wl)[0])
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.block_size = 0

    def record(self, block, results) -> None:
        """Keep the latencies of a timed block, then check its outputs."""
        from workloads import digest

        self.block_size = len(block)
        for inp, (out, latency) in zip(block, results):
            op_id = len(self.latencies)
            self.latencies.append(latency)
            if isinstance(out, Exception):
                self.failures.append(f"op {op_id}: raised {type(out).__name__}: {out}")
                self.digests.append("")
                continue
            self.digests.append(digest(self.wl.parts(out)))
            try:
                errors = self.wl.check(inp, out)
            except Exception as exc:  # a malformed output fails its op
                errors = [f"reference could not read the output: {type(exc).__name__}: {exc}"]
            if errors:
                self.failures.append(f"op {op_id}: " + "; ".join(errors[:3]))

    def run(self, seconds: float, min_ops: int, between_blocks) -> None:
        """Whole blocks until ``seconds`` of timed ops and ``min_ops`` ops.

        ``between_blocks`` gets the share of ``seconds`` done after each block.
        """
        while sum(self.latencies) < seconds or len(self.latencies) < min_ops:
            block = next(self.blocks)
            self.record(block, [timed_call(self.wl.op, inp) for inp in block])
            between_blocks(min(1.0, sum(self.latencies) / seconds))

    def run_paired(self, seconds: float, traced: "Runner", tracer) -> None:
        """Run each op untraced and traced back to back, alternating which
        goes first, so machine drift and cache warmth hit both sides alike."""

        def traced_call(inp):
            tracer.install()
            try:
                return timed_call(lambda x: tracer.run_op(self.wl.op, x), inp)
            finally:
                tracer.uninstall()

        while sum(self.latencies) < seconds:
            block = next(self.blocks)
            plain, spanned = [], []
            for k, inp in enumerate(block):
                if k % 2:
                    spanned.append(traced_call(inp))
                    plain.append(timed_call(self.wl.op, inp))
                else:
                    plain.append(timed_call(self.wl.op, inp))
                    spanned.append(traced_call(inp))
            self.record(block, plain)
            traced.record(block, spanned)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "caches": caches,
    }


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    lats = runner.latencies
    attempted = len(lats)
    failed = len(runner.failures)
    timed = sum(lats)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": attempted / timed, "unit": "1/s"},
        "op_ms_p50": {"value": 1e3 * percentile(lats, 50), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * percentile(lats, 90), "unit": "ms"},
        "success_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(runner: Runner, traced: Runner, tracer) -> tuple[dict, dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    values = tracer.layer_metrics(len(traced.latencies), sum(runner.latencies))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return metrics, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one fresh set-up and exit (used by the benchmark itself)")
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_qprop()
    from workloads import digest

    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    wl = table[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}

    warm_up(wl, args.seed)
    runner = Runner(wl, args.seed)
    setup: list[float] = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced = Runner(wl, args.seed)
        runner.run_paired(args.seconds / 2, traced, tracer)
        failures = runner.failures + traced.failures + [
            f"op {i}: traced output differs from the untraced output"
            for i, (a, b) in enumerate(zip(runner.digests, traced.digests)) if a != b
        ]
        attempted = len(runner.latencies) + len(traced.latencies)
        metrics, values = per_layer(runner, traced, tracer)
        record["layers"] = values
        record["spans"] = len(tracer.start)
    else:
        # Set-up probes are spread over the run, between blocks, so that they
        # sample the machine over the same span of time as the timed ops.
        def probe_due(progress: float) -> None:
            while len(setup) < SETUP_PROBES * progress:
                setup.append(setup_sample(wl.name, args.seed))

        runner.run(args.seconds, MIN_OPS, probe_due)
        probe_due(1.0)
        failures = runner.failures
        attempted = len(runner.latencies)
        metrics = end_to_end(runner, setup)
        record["setup_samples_s"] = setup

    record["samples"] = {
        "ops": len(runner.latencies),
        "ops_beyond_p90": sum(1 for x in runner.latencies
                              if x > percentile(runner.latencies, 90)),
        "setup_probes": len(setup),
        "timed_s": sum(runner.latencies),
    }
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["rusage"] = {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                        "minor_faults": usage.ru_minflt, "major_faults": usage.ru_majflt}
    record["block_size"] = runner.block_size
    record["first_block_digest"] = digest(runner.digests[: runner.block_size])
    record["failures"] = failures[:20]

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    full = dict(record, op_digests=runner.digests, latencies_s=runner.latencies)
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1), "utf-8")
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz")

    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
