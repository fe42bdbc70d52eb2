"""Independent reference for every workload's outputs.

Nothing here calls qprop. Truth values follow the definitions:

- a subspace S with orthonormal basis B_S lies in the Boolean block of a
  context {P_i} iff every ||P_i B_S||_F^2 is 0 or rank P_i and the ranks
  counted sum to dim S;
- the meet of two subspaces is the null space of their stacked
  complement projectors;
- a state is in a subspace iff projecting onto it leaves the state
  unchanged.

Hasse edges come from containment between projectors. Each check
returns a list of mismatch messages; an empty list means the output
agrees with the reference.
"""

from __future__ import annotations

import json
import re

import numpy as np

from workloads import COMMUTATOR_ZERO, pauli_projector

TOL = 1e-7


class Space:
    """A subspace held as an orthonormal basis and its projector."""

    def __init__(self, basis: np.ndarray):
        self.basis = basis
        self.proj = basis @ basis.conj().T

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def zero(cls, d: int) -> "Space":
        return cls(np.zeros((d, 0), dtype=complex))

    @classmethod
    def full(cls, d: int) -> "Space":
        return cls(np.eye(d, dtype=complex))

    @classmethod
    def of_projector(cls, p: np.ndarray) -> "Space":
        w, v = np.linalg.eigh(p)
        return cls(v[:, w > 0.5])

    def same(self, other: "Space") -> bool:
        return self.dim == other.dim and np.linalg.norm(self.proj - other.proj) <= TOL

    def holds(self, state: np.ndarray) -> bool:
        return np.linalg.norm(self.proj @ state - state) <= TOL * np.linalg.norm(state)


def in_block(s: Space, members: list[Space]) -> bool:
    """Block membership from the definition: each ||P_i B_S||^2 is 0 or rank."""
    counted = 0
    for m in members:
        w = np.linalg.norm(m.proj @ s.basis) ** 2 if s.dim else 0.0
        if abs(w) <= TOL:
            continue
        if abs(w - m.dim) <= TOL * m.dim:
            counted += m.dim
            continue
        return False
    return counted == s.dim


def meet(a: Space, b: Space) -> Space:
    d = a.ambient
    stacked = np.vstack([np.eye(d) - a.proj, np.eye(d) - b.proj])
    _, sv, vh = np.linalg.svd(stacked)
    null = vh[np.concatenate([sv, np.zeros(d - sv.size)]) <= TOL].conj().T
    return Space(null)


def join(a: Space, b: Space) -> Space:
    cols = np.hstack([a.basis, b.basis])
    if cols.shape[1] == 0:
        return Space.zero(a.ambient)
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    return Space(u[:, sv > TOL])


def complement(a: Space) -> Space:
    return Space.of_projector(np.eye(a.ambient) - a.proj)


class Valuation:
    """Truth values of propositions for one state, home and context set."""

    def __init__(self, state: np.ndarray, home: Space, contexts: dict):
        self.state = state
        self.home = home
        self.contexts = contexts
        self.home_blocks = [
            label for label, members in contexts.items() if in_block(home, members)
        ]

    def witnesses(self, prop: Space) -> list[str]:
        """Labels of the blocks holding both the home and the proposition."""
        return [
            label for label in self.home_blocks if in_block(prop, self.contexts[label])
        ]

    def __call__(self, prop: Space) -> str:
        """Truth value: "true", "false" or "gap"."""
        if prop.dim == prop.ambient:
            return "true"
        if not self.witnesses(prop):
            return "gap"
        return "true" if meet(self.home, prop).holds(self.state) else "false"


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# env-chain
# ---------------------------------------------------------------------------


def _eigvec(p: np.ndarray) -> np.ndarray:
    return Space.of_projector(p).basis[:, 0]


def _kron(parts) -> np.ndarray:
    out = parts[0]
    for p in parts[1:]:
        out = np.kron(out, p)
    return out


def check_env_chain(inp, text: str) -> list[str]:
    n, s, axis = inp.n_env, inp.splice, inp.axis
    labels = [f"Sigma_S{a}" for a in inp.pair]
    sys_members = [[Space.of_projector(pauli_projector(a, sg)) for sg in (+1, -1)]
                   for a in inp.pair]
    env = {sg: Space.of_projector(pauli_projector(axis, sg)) for sg in (+1, -1)}
    eye2 = Space.full(2)

    def lift(system: Space, spliced: Space) -> Space:
        slots = [system.basis] + [
            spliced.basis if k == s else eye2.basis for k in range(1, n + 1)
        ]
        return Space(_kron(slots))

    full_env = lambda system: Space(_kron([system.basis] + [eye2.basis] * n))  # noqa: E731
    a_sys, b_sys = sys_members
    contexts = {
        "Sigma_SE": [lift(m, env[-1]) for m in a_sys] + [lift(m, env[+1]) for m in b_sys],
        f"lift_{labels[0]}": [full_env(m) for m in a_sys],
        f"lift_{labels[1]}": [full_env(m) for m in b_sys],
    }
    props = {}
    for label, members in zip(labels, sys_members):
        for i, m in enumerate(members):
            props[f"{label}[{i}]_lifted"] = full_env(m)
    for sg, ch in ((+1, "+"), (-1, "-")):
        props[f"E{s}{axis}{ch}_lifted"] = lift(eye2, env[sg])
    for i, m in enumerate(b_sys):
        props[f"{labels[1]}[{i}]&E{s}{axis}+"] = lift(m, env[+1])
    state = _kron(
        [_eigvec(a_sys[0].proj)]
        + [_eigvec(env[-1 if k == s else +1].proj) for k in range(1, n + 1)]
    )
    home = lift(a_sys[0], env[-1])

    isolated = Valuation(_eigvec(a_sys[0].proj), a_sys[0], dict(zip(labels, sys_members)))
    pre = isolated(b_sys[0])
    composite = Valuation(state, home, contexts)
    companion = composite(lift(eye2, env[+1]))
    conj_space = lift(b_sys[0], env[+1])
    conjunction = composite(conj_space)
    witness = composite.witnesses(conj_space)
    want_report = {
        "proposition": f"{labels[1]}[0]",
        "pre_value": pre,
        "witness_lattice": witness[0] if witness else None,
        "companion_env_prop": f"E{s}{axis}+",
        "companion_value": companion,
        "conjunction_value": conjunction,
        "post_status": "Bivalent"
        if pre != "gap" or (companion == "false" and conjunction == "false")
        else "StillGap",
    }
    want_rows = [[name, composite(props[name])] for name in sorted(props)]

    errors = []
    paper = ("gap", "false", "false", "Bivalent")
    got_pattern = tuple(want_report[k] for k in
                        ("pre_value", "companion_value", "conjunction_value", "post_status"))
    errors += _mismatch("reference vs paper pattern", got_pattern, paper)
    out = json.loads(text)
    errors += _mismatch("bivalence report", out["bivalence"], want_report)
    errors += _mismatch("truth table", out["rows"], want_rows)
    return errors


# ---------------------------------------------------------------------------
# scenario-batch
# ---------------------------------------------------------------------------

_NODE = re.compile(r'^\s*n(\d+) \[label="((?:[^"\\]|\\.)*)", (.*)\];$')
_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")
_CLUSTER_LABEL = re.compile(r'^\s*label="((?:[^"\\]|\\.)*)";$')
_MARKERS = {
    "shape=square, style=filled, fillcolor=black, fontcolor=white": "true",
    "shape=circle, style=filled, fillcolor=black, fontcolor=white": "false",
    "shape=circle": "gap",
}


def _parse_dot(dot: str):
    nodes, edges, cluster_of = {}, [], {}
    cluster = None
    for line in dot.splitlines():
        if line.startswith("  subgraph cluster_"):
            cluster = ""
            continue
        if cluster == "" and _CLUSTER_LABEL.match(line):
            cluster = _CLUSTER_LABEL.match(line).group(1)
            continue
        if line == "  }":
            cluster = None
            continue
        m = _NODE.match(line)
        if m:
            idx = int(m.group(1))
            nodes[idx] = (m.group(2), _MARKERS.get(m.group(3), m.group(3)))
            if cluster:
                cluster_of[idx] = cluster
            continue
        m = _EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
    return nodes, edges, cluster_of


def _covering(spaces: dict) -> set:
    """Covering pairs of the containment order, from projector overlaps.

    a lies in b iff tr(P_a P_b) = dim a; the trace for every pair is one
    product of the flattened projectors.
    """
    keys = list(spaces)
    flat = np.array([spaces[k].proj.ravel() for k in keys])
    overlap = (flat.conj() @ flat.T).real
    dims = np.array([spaces[k].dim for k in keys])
    below = (np.abs(overlap - dims[:, None]) <= TOL * np.maximum(dims[:, None], 1)) & (
        dims[:, None] < dims[None, :]
    )
    between = (below.astype(int) @ below.astype(int)) > 0
    cover = below & ~between
    return {(keys[i], keys[j]) for i, j in zip(*np.nonzero(cover))}


def check_batch(inp, out) -> list[str]:
    d = inp.dim
    contexts = {
        f"C{c}": [Space(b) for b in blocks] for c, blocks in enumerate(inp.contexts)
    }
    home = contexts["C0"][inp.home_member]
    props = {name: Space(basis) for name, basis in inp.propositions}
    valuation = Valuation(inp.state, home, contexts)
    values = {name: valuation(sp) for name, sp in props.items()}
    errors = []

    ev = json.loads(out.eval_json)
    errors += _mismatch("eval dimension", ev["dimension"], d)
    errors += _mismatch("eval state", ev["state"], "psi")
    want_rows = [[name, values[name]] for name in props]
    errors += _mismatch("eval rows", [[r["name"], r["status"]] for r in ev["rows"]], want_rows)

    nodes, edges, cluster_of = _parse_dot(out.dot)
    spaces, names = {}, {}
    for idx, (label, _) in nodes.items():
        if label in props:
            spaces[idx] = props[label]
        elif label.startswith("dim-0 #"):
            spaces[idx] = Space.zero(d)
        elif label.startswith(f"dim-{d} #"):
            spaces[idx] = Space.full(d)
        else:
            errors.append(f"diagram: unexpected vertex label {label!r}")
            continue
        names[idx] = label
    element_names = sorted(n for n in props if not n.startswith("G"))
    want_vertices = sorted(element_names + ["{0}", "H"])
    got_vertices = sorted(
        "{0}" if n.startswith("dim-0 #") else "H" if n.startswith("dim-") else n
        for n in names.values()
    )
    errors += _mismatch("diagram vertices", got_vertices, want_vertices)
    if not errors:
        want_edges = {(names[a], names[b]) for a, b in _covering(spaces)}
        got_edges = {(names[a], names[b]) for a, b in edges}
        errors += _mismatch("diagram edges", sorted(got_edges), sorted(want_edges))
        for idx, (label, marker) in nodes.items():
            want = values[label] if label in values else valuation(spaces[idx])
            errors += _mismatch(f"diagram marker of {label}", marker, want)
            if label in props:
                errors += _mismatch(
                    f"diagram cluster of {label}", cluster_of.get(idx), label.split(".")[0]
                )

    chk = json.loads(out.check_json)
    errors += _mismatch("check exit code", out.check_code, 0)
    errors += _mismatch("check ok", chk["ok"], True)
    want_paths = ["$.states.psi", "$.homes.psi"]
    for label in contexts:
        want_paths += [f"$.contexts.{label}", f"$.contexts.{label}/lattice"]
    want_paths += [f"$.propositions.{name}" for name in props]
    want_paths.append("$.evaluation")
    errors += _mismatch(
        "check rows",
        [[o["path"], o["ok"], o["reason"]] for o in chk["objects"]],
        [[p, True, None] for p in want_paths],
    )
    return errors


# ---------------------------------------------------------------------------
# lattice-algebra
# ---------------------------------------------------------------------------


def check_algebra(inp, out) -> list[str]:
    n = len(inp.members)
    members = [Space(b) for b in inp.members]
    masks = sorted(range(2**n), key=lambda m: (bin(m).count("1"), m))
    want = []
    for mask in masks:
        cols = [members[i].basis for i in range(n) if mask >> i & 1]
        want.append(Space(np.hstack(cols)) if cols else Space.zero(inp.dim))
    got = [Space(np.asarray(e.basis)) for e in out.elements]
    errors = []
    if len(got) != len(want) or not all(g.same(w) for g, w in zip(got, want)):
        return ["lattice elements differ from the subset sums of the members"]
    flat = np.array([w.proj.ravel() for w in want])
    dims = np.array([w.dim for w in want])

    def in_lattice(x: Space) -> bool:
        # x equals an element w iff dim w = dim x = tr(P_w P_x)
        overlap = (flat.conj() @ x.proj.ravel()).real
        return bool(np.any((dims == x.dim) & (np.abs(overlap - x.dim) <= TOL)))

    for t, ((ia, ib, ic), spaces, flags) in enumerate(
        zip(inp.triples, out.triples, out.flags)
    ):
        a, b, c = want[ia], want[ib], want[ic]
        lhs = meet(a, join(b, c))
        rhs = join(meet(a, b), meet(a, c))
        expected = (meet(a, b), join(a, b), complement(a), lhs, rhs)
        for name, g, w in zip(("meet", "join", "complement", "lhs", "rhs"), spaces, expected):
            if not Space(np.asarray(g.basis)).same(w):
                errors.append(f"triple {t}: {name} differs from the reference")
        comm = a.proj @ b.proj - b.proj @ a.proj
        vanishes = float(np.max(np.abs(comm))) <= COMMUTATOR_ZERO
        closed = [in_lattice(x) for x in expected[:3]]
        want_flags = (*closed, lhs.same(rhs), vanishes, vanishes)
        errors += _mismatch(f"triple {t} flags", tuple(flags), want_flags)
    return errors
