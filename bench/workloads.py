"""Seeded inputs and the timed operation of each benchmark workload.

Every workload yields its inputs in fixed-size blocks. A block holds the
same mix of sizes on every seed, in seeded order, so runs that complete
whole blocks measure the same amount of work whatever the seed; the seed
chooses everything else (bases, splice positions, axes, samples).

Operations call qprop through module attributes (``qprop.cli.run_eval``
and so on) at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

import qprop.cli
import qprop.composition
import qprop.lattices
import qprop.subspaces
import qprop.valuation

AXES = ("z", "x", "y")
SPIN_PAIRS = (("z", "x"), ("z", "y"), ("x", "y"))

# env-chain: ops per n_env in one block. d = 16 and 32 keep the run
# short enough for 100 ops; d = 64 and 128 are where dense algebra
# dominates. The shares put the median inside the n_env = 3 group and
# the 90th percentile inside the n_env = 5 group, away from group edges,
# with enough n_env = 5 ops that the 90th percentile rests on many samples.
# A short block keeps the overshoot past --seconds small.
ENV_CHAIN_MIX = {3: 14, 4: 5, 5: 5, 6: 1}

# scenario-batch: every (d, number of contexts) pair once per block.
BATCH_DIMS = (2, 3, 4, 5, 6)
BATCH_CONTEXTS = (2, 3, 4)
BATCH_GAPS = 3

# lattice-algebra: every (d, number of members) pair once per block.
ALGEBRA_SHAPES = tuple(
    (d, n) for d in (3, 4, 5, 6) for n in range(2, min(d, 5) + 1)
)
ALGEBRA_TRIPLES = 20
COMMUTATOR_ZERO = 1e-8


def pauli_projector(axis: str, sign: int) -> np.ndarray:
    """(1 + sign * sigma_axis) / 2 as a 2x2 complex matrix."""
    sigma = {
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    }[axis]
    return (np.eye(2, dtype=complex) + sign * sigma) / 2


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q


def random_blocks(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """Orthonormal column blocks of a random unitary, n nonempty blocks."""
    q = random_unitary(rng, d)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=n - 1, replace=False))
    bounds = [0, *cuts, d]
    return [q[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# env-chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvChainInput:
    n_env: int
    splice: int
    pair: tuple[str, str]  # axes of contexts A and B
    axis: str
    contexts: tuple  # the two qprop Contexts built from the pair


def _spin_context(axis: str):
    projs = [qprop.subspaces.Projector(2, pauli_projector(axis, s)) for s in (+1, -1)]
    return qprop.lattices.context_new(f"Sigma_S{axis}", projs)


def env_chain_input(rng: np.random.Generator, n_env: int) -> EnvChainInput:
    splice = int(rng.integers(1, n_env + 1))
    pair = SPIN_PAIRS[int(rng.integers(len(SPIN_PAIRS)))]
    if rng.integers(2):
        pair = (pair[1], pair[0])
    axis = AXES[int(rng.integers(len(AXES)))]
    contexts = (_spin_context(pair[0]), _spin_context(pair[1]))
    return EnvChainInput(n_env, splice, pair, axis, contexts)


def env_chain_blocks(rng: np.random.Generator):
    sizes = [n for n, count in ENV_CHAIN_MIX.items() for _ in range(count)]
    while True:
        order = rng.permutation(len(sizes))
        yield [env_chain_input(rng, sizes[i]) for i in order]


def env_chain_op(inp: EnvChainInput) -> str:
    sc = qprop.composition.build_environment_scenario(
        inp.n_env, inp.splice, list(inp.contexts), inp.axis
    )
    b_label = inp.contexts[1].label
    prop_q = sc.factors["S"].propositions[f"{b_label}[0]"]
    env_prop = sc.factors[f"E{inp.splice}"].propositions[f"E{inp.splice}{inp.axis}+"]
    report = qprop.composition.induced_bivalence(sc, prop_q, env_prop)
    props = [sc.propositions[n] for n in sc.evaluation.propositions]
    rows = qprop.valuation.truth_table(sc.valuation_input(), props)
    out = {
        "bivalence": report.to_json(),
        "rows": [[name, value.value] for name, value in rows],
    }
    return json.dumps(out, ensure_ascii=False)


# ---------------------------------------------------------------------------
# scenario-batch
# ---------------------------------------------------------------------------


def _cjson(x: complex) -> list:
    return [float(x.real), float(x.imag)]


def _span(basis: np.ndarray) -> dict:
    return {"span": [[_cjson(x) for x in basis[:, i]] for i in range(basis.shape[1])]}


@dataclass(frozen=True)
class BatchInput:
    """One random scenario as JSON text plus the raw data behind it."""

    text: str
    dim: int
    contexts: tuple  # per context: tuple of orthonormal member blocks
    propositions: tuple  # (name, basis) in declaration order
    home_member: int  # index of the home range in context C0
    state: np.ndarray


def batch_input(rng: np.random.Generator, d: int, k: int) -> BatchInput:
    # Member counts cycle through 2..min(d, 4) from a seeded offset, so a
    # block's total lattice size, and with it its cost, barely varies by seed.
    counts = list(range(2, min(d, 4) + 1))
    offset = int(rng.integers(len(counts)))
    contexts = [
        tuple(random_blocks(rng, d, counts[(offset + c) % len(counts)]))
        for c in range(k)
    ]
    props = []
    for c, blocks in enumerate(contexts):
        n = len(blocks)
        masks = sorted(range(1, 2**n - 1), key=lambda m: (bin(m).count("1"), m))
        for mask in masks:
            basis = np.hstack([blocks[i] for i in range(n) if mask >> i & 1])
            props.append((f"C{c}.m{mask}", basis))
    for g in range(BATCH_GAPS):
        r = int(rng.integers(1, d))
        props.append((f"G{g}", random_unitary(rng, d)[:, :r]))
    home_member = int(rng.integers(len(contexts[0])))
    home = contexts[0][home_member]
    coeffs = rng.standard_normal(home.shape[1]) + 1j * rng.standard_normal(home.shape[1])
    state = home @ coeffs
    state = state / np.linalg.norm(state)
    data = {
        "schema": 1,
        "description": f"random scenario, d={d}, {k} contexts",
        "dimension": d,
        "states": {"psi": [_cjson(x) for x in state]},
        "homes": {"psi": _span(home)},
        "contexts": {
            f"C{c}": [
                {"matrix": [[_cjson(x) for x in row] for row in b @ b.conj().T]}
                for b in blocks
            ]
            for c, blocks in enumerate(contexts)
        },
        "propositions": {name: _span(basis) for name, basis in props},
        "evaluation": {"state": "psi", "propositions": [name for name, _ in props]},
    }
    return BatchInput(
        json.dumps(data), d, tuple(contexts), tuple(props), home_member, state
    )


def batch_blocks(rng: np.random.Generator):
    shapes = [(d, k) for d in BATCH_DIMS for k in BATCH_CONTEXTS]
    while True:
        order = rng.permutation(len(shapes))
        yield [batch_input(rng, *shapes[i]) for i in order]


@dataclass(frozen=True)
class BatchOutput:
    eval_json: str
    dot: str
    check_code: int
    check_json: str

    def bytes_digest_parts(self):
        return [self.eval_json, self.dot, str(self.check_code), self.check_json]


def batch_op(inp: BatchInput) -> BatchOutput:
    ev = qprop.cli.run_eval("scn", inp.text, None, True)
    dot = qprop.cli.run_diagram("scn", inp.text, None, True, True)
    code, chk = qprop.cli.run_check("scn", inp.text, True)
    return BatchOutput(ev, dot, code, chk)


# ---------------------------------------------------------------------------
# lattice-algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraInput:
    dim: int
    members: tuple  # orthonormal blocks of the context's member ranges
    triples: tuple  # (a, b, c) element indices into the lattice


def algebra_input(rng: np.random.Generator, d: int, n: int) -> AlgebraInput:
    members = tuple(random_blocks(rng, d, n))
    triples = tuple(
        tuple(int(x) for x in rng.integers(0, 2**n, size=3))
        for _ in range(ALGEBRA_TRIPLES)
    )
    return AlgebraInput(d, members, triples)


def algebra_blocks(rng: np.random.Generator):
    while True:
        order = rng.permutation(len(ALGEBRA_SHAPES))
        yield [algebra_input(rng, *ALGEBRA_SHAPES[i]) for i in order]


@dataclass(frozen=True)
class AlgebraOutput:
    elements: tuple  # the lattice's Subspaces
    triples: tuple  # per triple: (meet, join, complement, lhs, rhs) Subspaces
    flags: tuple  # per triple: (meet in, join in, complement in, distributive,
    #                 subspaces commute, commutator vanishes)
    text: str


def algebra_op(inp: AlgebraInput) -> AlgebraOutput:
    sub = qprop.subspaces
    lat_mod = qprop.lattices
    d = inp.dim
    projs = [sub.Projector(d, b @ b.conj().T) for b in inp.members]
    lat = lat_mod.lattice_of(lat_mod.context_new("ctx", projs))
    spaces, flags = [], []
    for ia, ib, ic in inp.triples:
        a, b, c = lat.elements[ia], lat.elements[ib], lat.elements[ic]
        m = sub.meet(a, b)
        j = sub.join(a, b)
        na = sub.complement(a)
        dist = lat_mod.check_distributivity(lat, a, b, c)
        commute = sub.subspaces_commute(a, b)
        comm = sub.commutator(sub.projector_of(a), sub.projector_of(b))
        vanishes = float(np.max(np.abs(comm))) <= COMMUTATOR_ZERO
        spaces.append((m, j, na, dist.lhs, dist.rhs))
        flags.append(
            (lat.contains(m), lat.contains(j), lat.contains(na), dist.equal,
             commute, vanishes)
        )
    text = json.dumps(
        {
            "dims": [e.dim for e in lat.elements],
            "triples": [
                [[s.dim for s in sp], list(fl)] for sp, fl in zip(spaces, flags)
            ],
        }
    )
    return AlgebraOutput(tuple(lat.elements), tuple(spaces), tuple(flags), text)
