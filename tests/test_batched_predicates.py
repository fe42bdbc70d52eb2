"""Batched subspace predicates against per-pair loops and numpy references.

``equal_to`` and ``contained_in`` are checked against ``Subspace.equals``
and ``contains_subspace`` called pair by pair, and against the two rules of
the tolerance contract computed with numpy alone from projector matrices.
``covering_relation`` and ``paste_sublattice`` are checked against the
all-pairs loops they replaced, copied here as references; check mode is
checked against testing every member's images on their own. The "fan"
cases put one subspace within tol of two others that are not within tol
of each other, so every "first equal element" rule is pinned.
"""

import json

import numpy as np
import pytest

import qprop.cli
from qprop import (
    DimensionMismatch,
    DuplicateElements,
    Projector,
    Subspace,
    check_scenario,
    collection_of,
    contained_in,
    contains_subspace,
    context_new,
    covering_relation,
    equal_to,
    full_space,
    identity_projector,
    is_invariant_under,
    lattice_of,
    paste_sublattice,
    zero_space,
)
from conftest import random_subspace, random_unitary

DIMS = [2, 3, 4, 5, 6, 7, 8, 64]
TOLS = [1e-12, 1e-9, 1e-6, 0.3, 0.6]
TILTS = (0.5, 1.2, 2.0)  # 1.2 lies between tol and √2·tol


def _blocks(rng, d: int, n: int) -> list[np.ndarray]:
    """n orthonormal column blocks splitting C^d."""
    q = random_unitary(rng, d)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=n - 1, replace=False))
    bounds = [0, *cuts, d]
    return [q[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _context(label: str, blocks, tol: float):
    return context_new(label, [Projector(b.shape[0], b @ b.conj().T) for b in blocks], tol)


def _tilted(rng, e: Subspace, distance: float) -> Subspace | None:
    """A subspace of dim e at projector distance `distance` from e: one
    basis column turns toward a random direction outside e. None for {0}
    and the full space, which have no such neighbour."""
    if e.is_zero or e.is_full:
        return None
    d = e.ambient_dim
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u = g - e.basis @ (e.basis.conj().T @ g)
    u /= np.linalg.norm(u)
    s = distance / np.sqrt(2.0)  # ‖P − P'‖_F = √2·sin θ for one rotated column
    basis = np.array(e.basis)
    basis[:, 0] = np.sqrt(1.0 - s * s) * basis[:, 0] + s * u
    return Subspace(d, basis)


def _probes(d: int, tol: float) -> list[Subspace]:
    """Lattice elements, their tilts, random subspaces, {0} and the full space."""
    rng = np.random.default_rng([d, TOLS.index(tol)])
    lat = lattice_of(_context("c", _blocks(rng, d, int(rng.integers(2, min(d, 4) + 1))), tol), tol)
    probes = list(lat.elements)
    for e in lat.elements:
        probes += [_tilted(rng, e, f * tol) for f in TILTS]
    probes += [random_subspace(rng, d, int(rng.integers(0, d + 1))) for _ in range(6)]
    probes += [zero_space(d), full_space(d)]
    return [p for p in probes if p is not None]


def _projector(s: Subspace) -> np.ndarray:
    return s.basis @ s.basis.conj().T


def _equal_by_projectors(pa: np.ndarray, pb: np.ndarray, tol: float) -> bool:
    """The absolute rule, ‖P_a − P_b‖_F ≤ tol. Projectors of different
    ranks are at least 1 apart, so for tol < 1 no rank test is needed."""
    return np.linalg.norm(pa - pb) <= tol


def _inside_by_projectors(cols: np.ndarray, outer_projector: np.ndarray, tol: float) -> bool:
    """The relative rule, ‖c − P c‖ ≤ tol·‖c‖, for every column c of cols."""
    residual = cols - outer_projector @ cols
    return bool(np.all(np.linalg.norm(residual, axis=0) <= tol * np.linalg.norm(cols, axis=0)))


# ---------------------------------------------------------------------------
# equal_to and contained_in
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_equal_to_matches_the_per_pair_loop(d, tol):
    probes = _probes(d, tol)
    projectors = [_projector(p) for p in probes]
    hits = 0
    for s, ps in zip(probes, projectors):
        got = equal_to(s, probes, tol)
        assert got.dtype == bool and got.shape == (len(probes),)
        assert got.tolist() == [s.equals(o, tol) for o in probes]
        assert got.tolist() == [_equal_by_projectors(ps, po, tol) for po in projectors]
        hits += int(got.sum())
    assert hits > len(probes)  # some probes equal others besides themselves


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_contained_in_matches_the_per_pair_loop(d, tol):
    probes = _probes(d, tol)
    for outer in probes:
        got = contained_in(probes, outer, tol)
        assert got.dtype == bool and got.shape == (len(probes),)
        assert got.tolist() == [contains_subspace(i, outer, tol) for i in probes]
        po = _projector(outer)
        assert got.tolist() == [_inside_by_projectors(i.basis, po, tol) for i in probes]


def test_empty_others_give_empty_arrays():
    s = full_space(3)
    assert equal_to(s, [], 1e-9).shape == (0,)
    assert contained_in([], s, 1e-9).shape == (0,)


def test_mixed_ambient_dimension_raises():
    with pytest.raises(DimensionMismatch):
        equal_to(full_space(2), [full_space(2), full_space(3)])
    with pytest.raises(DimensionMismatch):
        contained_in([zero_space(2), zero_space(3)], full_space(2))


@pytest.mark.parametrize("tol", [0.3, 0.6])
def test_invariance_rule_is_relative_to_the_image(tol):
    """p maps e0 to an image of norm c > tol whose residual from span{e0}
    is below tol in absolute terms but above tol relative to the image."""
    c = 1.03 * tol
    u = np.array([c, np.sqrt(1.0 - c * c), 0.0], dtype=complex)
    p = Projector(3, np.outer(u, u.conj()))
    s = Subspace(3, np.eye(3, dtype=complex)[:, :1])
    image = p.matrix @ s.basis[:, 0]
    residual = np.linalg.norm(image - _projector(s) @ image)
    assert residual <= tol < residual / np.linalg.norm(image)
    assert not is_invariant_under(s, p, tol)
    assert not is_invariant_under(s, [identity_projector(3), p], tol)


# ---------------------------------------------------------------------------
# The fan: B is within tol of A and of C, which are not within tol
# ---------------------------------------------------------------------------


def _fan(tol: float, d: int = 4):
    """Ranges A, B, C of dim 2 in C^d: B is A tilted by 0.75·tol and C by
    1.5·tol toward the same direction, so B is within tol of A and of C,
    while A and C are not within tol of each other."""
    rng = np.random.default_rng(int(tol * 1e12) % 2**32)
    q = random_unitary(rng, d)
    out = []
    for distance in (0.0, 0.75 * tol, 1.5 * tol):
        s = distance / np.sqrt(2.0)
        basis = np.array(q[:, :2])
        basis[:, 0] = np.sqrt(1.0 - s * s) * q[:, 0] + s * q[:, 2]
        out.append(Subspace(d, basis))
    return out


def _complement_block(s: Subspace) -> np.ndarray:
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return u[:, s.dim :]


@pytest.mark.parametrize("tol", TOLS)
def test_fan_distances(tol):
    a, b, c = _fan(tol)
    assert equal_to(b, [a, c], tol).tolist() == [True, True]
    assert equal_to(a, [b, c], tol).tolist() == [True, False]


@pytest.mark.parametrize("tol", TOLS)
def test_paste_and_index_of_take_the_first_equal_element(tol):
    a, b, c = _fan(tol)
    # Pasted order keeps A and C (1.5·tol apart); B equals both and must map to A.
    coll = collection_of(
        [_context(lab, [s.basis, _complement_block(s)], tol) for lab, s in
         (("A", a), ("C", c), ("B", b))],
        tol,
    )
    pasted = paste_sublattice(coll, tol)
    assert pasted.blocks == _paste_loops(coll, tol).blocks
    a_index = pasted.blocks["A"][1]
    assert pasted.blocks["B"][1] == a_index
    assert pasted.index_of(b, tol) == a_index


@pytest.mark.parametrize("tol", TOLS)
def test_duplicate_pair_is_the_first(tol):
    a, b, c = _fan(tol)
    # b equals both a and c after it; the pair named ends at the first.
    for elements in ([b, a, c], [zero_space(4), b, full_space(4), a, c]):
        with pytest.raises(DuplicateElements) as got:
            covering_relation(elements, tol)
        with pytest.raises(DuplicateElements) as expected:
            _covering_loops(elements, tol)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("tol", [1e-9, 0.3])
def test_diagram_names_a_vertex_after_the_first_equal_proposition(tol):
    a, b, c = _fan(tol)

    def span(s):
        return {"span": [[[x.real, x.imag] for x in s.basis[:, k]] for k in range(s.dim)]}

    comp = Subspace(4, _complement_block(b))
    data = {
        "schema": 1,
        "dimension": 4,
        "eps": tol,
        "states": {"psi": [[x.real, x.imag] for x in b.basis[:, 0]]},
        "homes": {"psi": span(b)},
        "contexts": {"B": [span(b), span(comp)]},
        "propositions": {"A": span(a), "C": span(c), "notB": span(comp)},
        "evaluation": {"state": "psi", "propositions": ["A"]},
    }
    dot = qprop.cli.run_diagram("fan", json.dumps(data), None, False, False)
    assert 'label="A"' in dot and 'label="C"' not in dot


# ---------------------------------------------------------------------------
# covering_relation and paste_sublattice against the all-pairs loops
# ---------------------------------------------------------------------------


def _covering_loops(elements, tol):
    """The all-pairs covering relation, as it was before batching."""
    elements = list(elements)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if elements[i].equals(elements[j], tol):
                raise DuplicateElements(f"elements {i} and {j} are equal")
    below = [
        [contains_subspace(a, b, tol) and a.dim < b.dim for b in elements]
        for a in elements
    ]
    edges = []
    n = len(elements)
    for i in range(n):
        for j in range(n):
            if not below[i][j]:
                continue
            if any(below[i][k] and below[k][j] for k in range(n)):
                continue
            edges.append((i, j))
    return edges


class _Pasted:
    def __init__(self, elements, blocks):
        self.elements, self.blocks = elements, blocks


def _paste_loops(coll, tol):
    """Pasting with the linear first-equal scan, as it was before batching."""
    elements, blocks = [], {}
    for lat in coll.lattices:
        idxs = []
        for e in lat.elements:
            found = next((i for i, k in enumerate(elements) if k.equals(e, tol)), None)
            if found is None:
                elements.append(e)
                found = len(elements) - 1
            idxs.append(found)
        blocks[lat.context_label] = tuple(idxs)
    return _Pasted(tuple(elements), blocks)


def _shared_collection(d: int, tol: float, seed: int):
    """Three contexts over one splitting of C^d: the second keeps the
    first's leading block and resplits the rest, the third is the first
    with every block tilted by 0.3·tol, so pasting merges across blocks."""
    rng = np.random.default_rng([d, TOLS.index(tol), seed])
    n = int(rng.integers(2, min(d, 4) + 1))
    first = _blocks(rng, d, n)
    rest = np.hstack(first[1:])
    rest = rest @ random_unitary(rng, rest.shape[1])
    second = [first[0]] + ([rest[:, :1], rest[:, 1:]] if rest.shape[1] > 1 else [rest])
    third = []
    for b in first:
        g = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        third.append(b + 0.3 * tol * g / np.linalg.norm(g))
    third, _ = np.linalg.qr(np.hstack(third))
    widths = np.cumsum([0] + [b.shape[1] for b in first])
    third = [third[:, lo:hi] for lo, hi in zip(widths[:-1], widths[1:])]
    return collection_of(
        [_context(lab, blocks, tol) for lab, blocks in (("X", first), ("Y", second), ("Z", third))],
        tol,
    )


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS[:-1])
def test_paste_and_covering_match_the_loops(d, tol):
    for seed in range(3):
        coll = _shared_collection(d, tol, seed)
        pasted, expected = paste_sublattice(coll, tol), _paste_loops(coll, tol)
        assert pasted.blocks == expected.blocks
        assert all(a is b for a, b in zip(pasted.elements, expected.elements))
        assert len(pasted.elements) == len(expected.elements)
        assert len(pasted) < sum(len(lat) for lat in coll.lattices)

        order = np.random.default_rng(seed).permutation(len(pasted))
        elements = [pasted.elements[i] for i in order]
        assert covering_relation(elements, tol) == _covering_loops(elements, tol)

        with_duplicate = elements + [elements[len(elements) // 2]]
        with pytest.raises(DuplicateElements) as got:
            covering_relation(with_duplicate, tol)
        with pytest.raises(DuplicateElements) as ref:
            _covering_loops(with_duplicate, tol)
        assert str(got.value) == str(ref.value)


def test_covering_of_mixed_ambient_dimensions_raises():
    with pytest.raises(DimensionMismatch):
        covering_relation([zero_space(2), zero_space(3)])


# ---------------------------------------------------------------------------
# check mode against each member on its own
# ---------------------------------------------------------------------------


def _cjson(x: complex) -> list:
    return [float(x.real), float(x.imag)]


def _check_case(seed: int, tol: float):
    """A one-context scenario whose members are tilted by 0, 0.5, 1 or
    2 × tol, so some lattices are invariant at tol and some are not."""
    rng = np.random.default_rng([seed, TOLS.index(tol)])
    d = int(rng.integers(3, 9))
    off = (0.0, 0.5, 1.0, 2.0)[seed % 4] * tol
    members = []
    for b in _blocks(rng, d, int(rng.integers(2, min(d, 4) + 1))):
        g = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        t, _ = np.linalg.qr(b + off * g / np.linalg.norm(g))
        members.append(t @ t.conj().T)
    data = {
        "schema": 1,
        "dimension": d,
        "eps": tol,
        "contexts": {"C": [{"matrix": [[_cjson(x) for x in row] for row in m]} for m in members]},
    }
    return json.dumps(data), [Projector(d, m) for m in members]


def _lattice_row_by_member(projectors, tol: float):
    """Check mode's lattice row, testing every element under each member in turn."""
    try:
        lat = lattice_of(context_new("C", projectors, tol), tol)
    except Exception:
        return None  # the context row or the lattice build fails first
    for e in lat.elements:
        for p in projectors:
            images = p.matrix @ e.basis
            images = images[:, np.linalg.norm(images, axis=0) > tol]
            if not _inside_by_projectors(images, _projector(e), tol):
                why = f"ValueError: lattice element of dim {e.dim} not invariant under a member"
                return (False, why)
    return (True, None)


@pytest.mark.parametrize("tol", [1e-6, 0.3, 0.6])
def test_check_rows_match_testing_each_member_alone(tol):
    outcomes = set()
    for seed in range(40):
        text, projectors = _check_case(seed, tol)
        rows = {path: (ok, why) for path, ok, why in check_scenario(text)}
        expected = _lattice_row_by_member(projectors, tol)
        if expected is None:
            continue
        assert rows["$.contexts.C/lattice"] == expected
        outcomes.add(expected[0])
    assert outcomes == {True, False}
