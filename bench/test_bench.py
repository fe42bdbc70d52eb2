"""Tests of the benchmark itself: smoke runs, the reference, the tracer.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qprop.cli  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, ROOT_SPAN, Tracer  # noqa: E402

WORKLOADS = run.workloads()


def _first_block(name: str, seed: int = 1):
    wl = WORKLOADS[name]
    return wl, next(wl.blocks(run.rngs(seed, wl)[0]))


def _tiny_inputs(name: str, seed: int = 1):
    """Warm-up inputs: the smallest size each workload generates."""
    wl = WORKLOADS[name]
    return wl, [wl.warmup(np.random.default_rng([seed, k])) for k in range(3)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_tiny_inputs_match_reference(name):
    wl, inputs = _tiny_inputs(name)
    for inp in inputs:
        assert wl.check(inp, wl.op(inp)) == []


@pytest.mark.parametrize("name", ["scenario-batch", "lattice-algebra"])
def test_first_block_matches_reference(name):
    wl, block = _first_block(name)
    for inp in block:
        assert wl.check(inp, wl.op(inp)) == []


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    _, a = _first_block("scenario-batch", 5)
    _, b = _first_block("scenario-batch", 5)
    _, c = _first_block("scenario-batch", 6)
    assert [x.text for x in a] == [x.text for x in b]
    assert [x.text for x in a] != [x.text for x in c]


def test_env_chain_block_keeps_its_size_mix():
    _, block = _first_block("env-chain")
    sizes = sorted(inp.n_env for inp in block)
    want = sorted(n for n, k in workloads.ENV_CHAIN_MIX.items() for _ in range(k))
    assert sizes == want


def test_reference_rejects_tampered_outputs():
    wl, (inp, *_) = _tiny_inputs("env-chain")
    out = json.loads(wl.op(inp))
    out["bivalence"]["post_status"] = "StillGap"
    assert wl.check(inp, json.dumps(out))

    wl, (inp, *_) = _tiny_inputs("scenario-batch")
    out = wl.op(inp)
    ev = json.loads(out.eval_json)
    ev["rows"][0]["status"] = "gap" if ev["rows"][0]["status"] != "gap" else "true"
    bad = workloads.BatchOutput(json.dumps(ev), out.dot, out.check_code, out.check_json)
    assert wl.check(inp, bad)
    edges = [ln for ln in out.dot.splitlines() if "->" in ln]
    bad = workloads.BatchOutput(
        out.eval_json, out.dot.replace(edges[0] + "\n", ""), out.check_code, out.check_json
    )
    assert wl.check(inp, bad)

    wl, (inp, *_) = _tiny_inputs("lattice-algebra")
    out = wl.op(inp)
    flags = list(out.flags)
    flags[0] = (not flags[0][0], *flags[0][1:])
    bad = workloads.AlgebraOutput(out.elements, out.triples, tuple(flags), out.text)
    assert wl.check(inp, bad)


# ---------------------------------------------------------------------------
# The reference against qprop on the bundled scenarios
# ---------------------------------------------------------------------------


def _vector(v) -> np.ndarray:
    return np.array([complex(*x) if isinstance(x, list) else complex(x) for x in v])


def _space(spec, factors) -> reference.Space:
    if isinstance(spec, str):
        fname, pname = spec.split(".", 1)
        return factors[fname]["propositions"][pname]
    (key, value), = spec.items()
    if key == "span":
        cols = np.column_stack([_vector(v) for v in value])
        u, sv, _ = np.linalg.svd(cols, full_matrices=False)
        return reference.Space(u[:, sv > reference.TOL])
    if key == "matrix":
        return reference.Space.of_projector(np.array([_vector(r) for r in value]))
    if key == "tensor":
        parts = [_space(e, factors).basis for e in value]
        out = parts[0]
        for p in parts[1:]:
            out = np.kron(out, p)
        return reference.Space(out)
    if key == "full":
        return reference.Space.full(value)
    return reference.Space.zero(value)


def _state(spec, factors) -> np.ndarray:
    if isinstance(spec, list):
        v = _vector(spec)
        return v / np.linalg.norm(v)
    out = np.ones(1, dtype=complex)
    for e in spec["tensor"]:
        if isinstance(e, str):
            fname, sname = e.split(".", 1)
            part = factors[fname]["states"][sname]
        else:
            part = _state(e, factors)
        out = np.kron(out, part)
    return out


def _resolve(data) -> dict:
    factors = {name: _resolve(f) for name, f in data.get("factors", {}).items()}
    states = {n: _state(s, factors) for n, s in data.get("states", {}).items()}
    return {
        "states": states,
        "homes": {n: _space(s, factors) for n, s in data.get("homes", {}).items()},
        "contexts": {
            label: [_space(s, factors) for s in specs]
            for label, specs in data.get("contexts", {}).items()
        },
        "propositions": {n: _space(s, factors) for n, s in data.get("propositions", {}).items()},
    }


@pytest.mark.parametrize(
    "filename", ["intro_qubit.json", "env_two_qubit.json", "classical_limit.json"]
)
def test_reference_agrees_with_qprop_on_bundled_scenarios(filename):
    text = (HERE.parent / "src" / "qprop" / "scenarios" / filename).read_text("utf-8")
    data = json.loads(text)
    sc = _resolve(data)
    state_name = data["evaluation"]["state"]
    state = sc["states"][state_name]
    home = sc["homes"][state_name]
    valuation = reference.Valuation(state, home, sc["contexts"])
    want = [
        [name, valuation(sc["propositions"][name])]
        for name in data["evaluation"]["propositions"]
    ]
    got = json.loads(qprop.cli.run_eval("s", text, None, True))["rows"]
    assert [[r["name"], r["status"]] for r in got] == want


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_add_up_to_traced_op_time(name):
    wl, inputs = _tiny_inputs(name, seed=3)
    tracer = Tracer()
    tracer.install()
    try:
        outs = [tracer.run_op(wl.op, inp) for inp in inputs]
    finally:
        tracer.uninstall()
    assert all(wl.check(inp, out) == [] for inp, out in zip(inputs, outs))
    m = tracer.layer_metrics(len(inputs), untraced_s=1.0)
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + m["trace.root_self_s"] == pytest.approx(m["trace.op_s"], rel=1e-9)
    assert layers > 0.5 * m["trace.op_s"]
    arrs = tracer.arrays()
    roots = arrs["parent"] < 0
    assert set(arrs["names"][arrs["name"][roots]]) == {ROOT_SPAN}
    assert sorted(set(arrs["op"][roots])) == list(range(len(inputs)))


def test_uninstall_restores_every_binding():
    before = {
        (mod.__name__, attr): obj
        for mod in [qprop, *[getattr(qprop, n) for n in LAYERS]]
        for attr, obj in vars(mod).items()
        if callable(obj)
    }
    equals = qprop.subspaces.Subspace.equals
    tracer = Tracer()
    tracer.install()
    assert qprop.lattices.lattice_of is not before[("qprop.lattices", "lattice_of")]
    assert qprop.cli.lattice_of is qprop.lattices.lattice_of
    tracer.uninstall()
    after = {
        (mod.__name__, attr): obj
        for mod in [qprop, *[getattr(qprop, n) for n in LAYERS]]
        for attr, obj in vars(mod).items()
        if callable(obj)
    }
    assert after == before
    assert qprop.subspaces.Subspace.equals is equals


# ---------------------------------------------------------------------------
# The command's output contract
# ---------------------------------------------------------------------------


def test_command_prints_metrics_as_last_line():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lattice-algebra",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["machine"]["blas_threads"] <= record["machine"]["nproc"]
    assert record["samples"]["ops_beyond_p90"] >= 10


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "env-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
