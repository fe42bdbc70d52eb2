"""Block membership by mask, the block meet, and building each lattice once.

The mask path (member weights pick one candidate element, ``equals``
decides) is checked against the enumerating search over ``elements``.
The block meet in ``evaluate`` is checked against the ambient rule
``contains_vector(meet(home, prop), state)`` and against the exact
intersection of the members' column blocks, computed with numpy alone.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qprop.cli
import qprop.lattices
from qprop import (
    Context,
    LatticeCollection,
    NotOrthogonal,
    Projector,
    Proposition,
    StateVector,
    Subspace,
    TruthValue,
    ValuationInput,
    contains_vector,
    context_new,
    evaluate,
    lattice_of,
    meet,
    parse_scenario,
    qubit_projector,
)
from qprop.composition import build_environment_scenario, induced_bivalence
from qprop.lattices import _index_in
from qprop.valuation import truth_table
from conftest import random_subspace, random_unitary

DIMS = [2, 3, 4, 5, 6, 7, 8, 64]
TOLS = [1e-12, 1e-9, 1e-6, 0.3, 0.6]
SCENARIOS = Path(qprop.cli.__file__).parent / "scenarios"


def _blocks(rng, d: int, n: int, off: float) -> list[np.ndarray]:
    """n orthonormal column blocks splitting C^d; with off > 0 each block is
    tilted by about off, so the members no longer annihilate exactly."""
    q = random_unitary(rng, d)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=n - 1, replace=False))
    bounds = [0, *cuts, d]
    blocks = [q[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    if off:
        tilted = []
        for b in blocks:
            g = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
            t, _ = np.linalg.qr(b + off * g / np.linalg.norm(g))
            tilted.append(t)
        blocks = tilted
    return blocks


def _case(d: int, tol: float, off: bool, seed: int):
    """A context of 2..5 members (as many as d allows) and its blocks."""
    rng = np.random.default_rng([d, TOLS.index(tol), off, seed])
    n = int(rng.integers(2, min(d, 5) + 1))
    blocks = _blocks(rng, d, n, 0.1 * tol if off else 0.0)
    ctx = context_new("c", [Projector(d, b @ b.conj().T) for b in blocks], tol)
    return rng, blocks, ctx


def _tilted(rng, e: Subspace, distance: float, toward=None) -> Subspace | None:
    """A subspace of dim e at projector distance `distance` from e, or None
    when e is {0} or the full space and has no such neighbour. One basis
    column turns toward a random direction, or toward the column block
    `toward`, which then gains all of the weight e loses."""
    if e.is_zero or e.is_full:
        return None
    d = e.ambient_dim
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if toward is not None:
        g = toward @ (toward.conj().T @ g)
    u = g - e.basis @ (e.basis.conj().T @ g)
    u /= np.linalg.norm(u)
    s = distance / np.sqrt(2.0)  # ‖P − P'‖_F = √2·sin θ for one rotated column
    basis = np.array(e.basis)
    basis[:, 0] = np.sqrt(1.0 - s * s) * basis[:, 0] + s * u
    return Subspace(d, basis)


def _orthonormal(cols: np.ndarray) -> np.ndarray:
    if cols.shape[1] == 0:
        return cols
    q, _ = np.linalg.qr(cols)
    return q


def _in_span(q: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """contains_vector's relative rule, computed independently."""
    return np.linalg.norm(v - q @ (q.conj().T @ v)) <= tol * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# membership: mask path against the enumerating search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("off", [False, True], ids=["exact", "off"])
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_mask_membership_matches_enumerating_search(d, tol, off):
    rng, blocks, ctx = _case(d, tol, off, 0)
    lazy, full = lattice_of(ctx, tol), lattice_of(ctx, tol)
    probes = []
    for index, mask in enumerate(sorted(range(len(full)), key=lambda m: (m.bit_count(), m))):
        e = full.elements[index]
        probes.append(e)
        outside = [b for i, b in enumerate(blocks) if not mask >> i & 1]
        for factor in (0.5, 0.9, 2.0):
            probes.append(_tilted(rng, e, factor * tol))
            if outside:
                probes.append(_tilted(rng, e, factor * tol, toward=outside[0]))
    probes = [t for t in probes if t is not None]
    probes += [random_subspace(rng, d, int(rng.integers(0, d + 1))) for _ in range(6)]

    hits = 0
    for s in probes:
        expected = _index_in(full.elements, s, tol)
        mask = lazy.mask_of(s, tol)
        assert lazy.index_of(s, tol) == expected
        assert lazy.contains(s, tol) is (expected is not None)
        if expected is None:
            assert mask is None
        else:
            hits += 1
            np.testing.assert_array_equal(lazy.element(mask).basis, full.elements[expected].basis)
    assert hits >= len(full)  # every element, at least, is found


def test_near_probe_is_found_and_far_probe_is_not():
    """At 0.5·tol an element is still itself; at 2·tol it is no element."""
    rng, _, ctx = _case(6, 1e-6, False, 1)
    lat = lattice_of(ctx, 1e-6)
    e = lat.element(0b11)
    assert lat.mask_of(_tilted(rng, e, 0.5e-6), 1e-6) == 0b11
    assert lat.mask_of(_tilted(rng, e, 2e-6), 1e-6) is None


# ---------------------------------------------------------------------------
# valuation: block meet against the ambient rule and the exact intersection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("off", [False, True], ids=["exact", "off"])
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_block_meet_matches_ambient_rule_and_exact_intersection(d, tol, off):
    """evaluate agrees with the exact intersection everywhere, and so does
    the ambient rule: the ambient meet has the exact intersection's
    dimension at every tol."""
    rng, blocks, ctx = _case(d, tol, off, 2)
    lat = lattice_of(ctx, tol)
    n = len(blocks)
    coll = LatticeCollection((lat,))
    cases = 0
    for home_mask in rng.choice(np.arange(1, 2**n), size=min(3, 2**n - 1), replace=False):
        home_mask = int(home_mask)
        home = lat.element(home_mask)
        for prop_mask in range(2**n):
            common = home_mask & prop_mask
            exact = _orthonormal(np.hstack(
                [blocks[i] for i in range(n) if common >> i & 1] or [np.zeros((d, 0))]
            ))
            sources = [home.basis] + ([exact] if exact.shape[1] else [])
            for basis in sources:
                coeffs = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
                state = StateVector(d, basis @ coeffs)
                inp = ValuationInput(state, home, coll)
                prop = Proposition("p", lat.element(prop_mask))
                got = evaluate(inp, prop, tol)
                if prop.subspace.is_full:
                    assert got is TruthValue.TRUE
                    continue
                oracle = _in_span(exact, state.amplitudes, tol)
                assert got is (TruthValue.TRUE if oracle else TruthValue.FALSE)
                ambient = meet(home, prop.subspace, tol)
                assert contains_vector(ambient, state, tol) == oracle
                assert ambient.dim == exact.shape[1]
                cases += 1
    assert cases > 0


@pytest.mark.parametrize("tol", TOLS)
def test_proposition_outside_every_block_is_a_gap(tol):
    rng, blocks, ctx = _case(5, tol, False, 3)
    lat = lattice_of(ctx, tol)
    home = lat.element(1)
    state = StateVector(5, blocks[0][:, 0])
    inp = ValuationInput(state, home, LatticeCollection((lat,)))
    for _ in range(5):
        s = random_subspace(rng, 5, int(rng.integers(1, 5)))
        if lat.contains(s, tol):
            continue
        assert evaluate(inp, Proposition("g", s), tol) is TruthValue.GAP


def test_contradiction_is_false_at_large_tol():
    """{0} is false: the block meet of any home with {0} is {0}, and so is
    the ambient meet at tol 0.6, since the home's one direction has sine 1
    to {0}."""
    dft = np.fft.fft(np.eye(8)) / np.sqrt(8)  # first column: every entry 8^-1/2
    blocks = [dft[:, :1], dft[:, 1:]]
    ctx = context_new("c", [Projector(8, b @ b.conj().T) for b in blocks], 0.6)
    lat = lattice_of(ctx, 0.6)
    home, zero = lat.element(0b01), lat.element(0)
    inp = ValuationInput(StateVector(8, blocks[0][:, 0]), home, LatticeCollection((lat,)))
    assert evaluate(inp, Proposition("zero", zero), 0.6) is TruthValue.FALSE
    assert meet(home, zero, 0.6).is_zero


# ---------------------------------------------------------------------------
# building once
# ---------------------------------------------------------------------------


def test_lattice_of_builds_only_the_top_until_elements_are_read(monkeypatch):
    built = []  # one entry per element built: its number of parts
    real = qprop.lattices.subspace_sums

    def counting(groups, tol=None, *, ambient_dim=None):
        groups = [list(parts) for parts in groups]
        built.extend(len(parts) for parts in groups)
        return real(groups, tol, ambient_dim=ambient_dim)

    monkeypatch.setattr(qprop.lattices, "subspace_sums", counting)
    _, _, ctx = _case(8, 1e-9, False, 4)
    lat = lattice_of(ctx)
    n = len(ctx)
    assert built == [n]
    assert len(lat) == 2**n and built == [n]
    assert lat.contains(lat.element(0b1)) and len(built) == 2
    elements = lat.elements
    assert len(elements) == 2**n and len(built) == 2**n
    assert lat.elements is elements and len(built) == 2**n


def test_top_element_is_still_checked_at_build():
    """A context whose ranges do not sum directly fails in lattice_of."""
    with pytest.raises(NotOrthogonal):
        lattice_of(Context("bad", (qubit_projector("z", +1), qubit_projector("x", +1))))


def test_valuation_input_is_memoized_per_tol():
    sc = parse_scenario((SCENARIOS / "intro_qubit.json").read_text("utf-8"))
    inp = sc.valuation_input(1e-9)
    assert sc.valuation_input(1e-9) is inp
    assert sc.valuation_input(None) is inp
    assert sc.valuation_input(1e-6) is not inp


def test_home_masks_are_computed_once_per_input(monkeypatch):
    sc = parse_scenario((SCENARIOS / "classical_limit.json").read_text("utf-8"))
    inp = sc.valuation_input()
    lookups = Counter()
    real = qprop.lattices.InvariantSubspaceLattice.mask_of

    def counting(self, s, tol=None):
        lookups["home" if s is inp.home else "other"] += 1
        return real(self, s, tol)

    monkeypatch.setattr(qprop.lattices.InvariantSubspaceLattice, "mask_of", counting)
    props = list(sc.propositions.values())
    truth_table(inp, props)
    truth_table(inp, props)
    assert lookups["home"] == len(inp.collection.lattices)
    assert lookups["other"] > 0


def _count_lattice_builds(monkeypatch) -> Counter:
    built = Counter()
    real = qprop.lattices.lattice_of

    def counting(ctx, tol=None):
        built[ctx.label] += 1
        return real(ctx, tol)

    monkeypatch.setattr(qprop.lattices, "lattice_of", counting)
    monkeypatch.setattr(qprop.cli, "lattice_of", counting)
    return built


def _context_labels(sc) -> Counter:
    """Labels of the contexts of a scenario and of its factors, with counts."""
    labels = Counter(sc.contexts.keys())
    for factor in sc.factors.values():
        labels.update(factor.contexts.keys())
    return labels


def test_environment_demo_builds_each_lattice_once(monkeypatch):
    built = _count_lattice_builds(monkeypatch)
    qprop.cli.run_demo("environment", None, False)
    sc = parse_scenario((SCENARIOS / "env_two_qubit.json").read_text("utf-8"))
    assert built == _context_labels(sc)


def test_environment_chain_op_builds_each_lattice_once(monkeypatch):
    built = _count_lattice_builds(monkeypatch)
    spins = [
        context_new(f"Sigma_S{axis}", [Projector(2, m) for m in ms])
        for axis, ms in (
            ("z", [np.diag([1, 0]), np.diag([0, 1])]),
            ("x", [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]),
        )
    ]
    sc = build_environment_scenario(3, 2, spins, "y")
    prop_q = sc.factors["S"].propositions["Sigma_Sx[0]"]
    env_prop = sc.factors["E2"].propositions["E2y+"]
    report = induced_bivalence(sc, prop_q, env_prop)
    rows = truth_table(
        sc.valuation_input(), [sc.propositions[n] for n in sc.evaluation.propositions]
    )
    assert report.post_status == "Bivalent" and rows
    assert built == _context_labels(sc)
