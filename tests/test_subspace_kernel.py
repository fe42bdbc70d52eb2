"""The vectorized subspace kernel at the dimensions where it matters.

The property tests elsewhere stay at d <= 5. These pin the span rule,
the QR direct sum and the residual equality at d in {64, 128, 256}, the
span's order-dependent relative acceptance rule at its boundary, and the
whole-basis containment and invariance tests against their per-column
definition.
"""

import numpy as np
import pytest

from qprop import (
    DEFAULT_EPS,
    NotOrthogonal,
    Projector,
    Subspace,
    contains_subspace,
    contains_vector,
    is_invariant_under,
    range_of,
    subspace_from_spanning,
    subspace_sum,
)
from conftest import random_context, random_subspace

LARGE_DIMS = [64, 128, 256]


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_orthogonal_to(rng, basis: np.ndarray) -> np.ndarray:
    """A random unit vector orthogonal to the columns of an orthonormal basis."""
    g = _gaussian(rng, basis.shape[0])
    w = g - basis @ (basis.conj().T @ g)
    w = w - basis @ (basis.conj().T @ w)
    return w / np.linalg.norm(w)


def _dense_distance(a: Subspace, b: Subspace) -> float:
    return float(np.linalg.norm(a.projector_matrix() - b.projector_matrix()))


@pytest.mark.parametrize("d", LARGE_DIMS)
def test_span_of_vectors_and_their_combinations(d):
    rng = np.random.default_rng(d)
    r = d // 4
    gens = _gaussian(rng, r, d)
    combos = _gaussian(rng, r // 2, r) @ gens
    vectors = np.concatenate([gens, combos])
    vectors = vectors[rng.permutation(len(vectors))]
    s = subspace_from_spanning(list(vectors))
    assert s.dim == r
    gram = s.basis.conj().T @ s.basis
    assert np.max(np.abs(gram - np.eye(r))) <= 1e-12
    assert all(contains_vector(s, v) for v in vectors)


@pytest.mark.parametrize("d", LARGE_DIMS)
def test_sum_of_context_ranges_is_the_full_space(d):
    rng = np.random.default_rng(d + 1)
    ctx = random_context(rng, d, 4)
    ranges = [range_of(p) for p in ctx.projectors]
    total = subspace_sum(ranges)
    assert total.is_full
    assert np.max(np.abs(total.basis.conj().T @ total.basis - np.eye(d))) <= 1e-12


@pytest.mark.parametrize("d", LARGE_DIMS)
def test_sum_rejects_a_part_tilted_past_tol(d):
    rng = np.random.default_rng(d + 2)
    ctx = random_context(rng, d, 4)
    ranges = [range_of(p) for p in ctx.projectors]
    theta = 10 * DEFAULT_EPS
    tilted = ranges[0].basis.copy()
    tilted[:, 0] = np.cos(theta) * tilted[:, 0] + np.sin(theta) * ranges[1].basis[:, 0]
    ranges[0] = Subspace(d, np.linalg.qr(tilted)[0])
    with pytest.raises(NotOrthogonal):
        subspace_sum(ranges)


@pytest.mark.parametrize("tol", [DEFAULT_EPS, 1e-6])
@pytest.mark.parametrize("d", LARGE_DIMS)
def test_equals_agrees_with_the_dense_projector_distance(d, tol):
    rng = np.random.default_rng(d + 3)
    a = random_subspace(rng, d, d // 8)
    outcomes = []
    for factor in (0.1, 0.8, 1.25, 10.0):
        # A unit-norm tilt out of a moves the projector by about √2·step.
        tilt = _gaussian(rng, d, a.dim)
        tilt -= a.basis @ (a.basis.conj().T @ tilt)
        tilt /= np.linalg.norm(tilt)
        step = factor * tol / np.sqrt(2.0)
        b = Subspace(d, np.linalg.qr(a.basis + step * tilt)[0])
        dense = _dense_distance(a, b) <= tol
        assert a.equals(b, tol) == dense
        assert b.equals(a, tol) == dense
        outcomes.append(dense)
    assert outcomes == [True, True, False, False]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("d", [2, 128])
@pytest.mark.parametrize("factor, kept", [(0.5, False), (2.0, True)])
def test_span_rule_is_relative_residual_at_the_boundary(d, factor, kept, scale):
    """A middle vector survives iff its residual exceeds tol·‖v‖."""
    rng = np.random.default_rng(d)
    tol = DEFAULT_EPS
    r = 1 if d == 2 else 5
    head = _gaussian(rng, r, d) if d > 2 else np.array([[1.0, 0.0]], dtype=complex)
    q = np.linalg.qr(head.T)[0]
    inside = q @ _gaussian(rng, r)
    w = _unit_orthogonal_to(rng, q)
    # With v = inside + rho·w and rho = factor·tol·‖v‖, ‖v‖² = ‖inside‖² + rho².
    norm_v = np.linalg.norm(inside) / np.sqrt(1.0 - (factor * tol) ** 2)
    v = scale * (inside + factor * tol * norm_v * w)
    tail = _gaussian(rng, 3, r) @ head
    s = subspace_from_spanning([*head, v, *tail], tol)
    assert s.dim == r + (1 if kept else 0)


def test_sum_raises_when_the_qr_loses_a_dimension():
    # Overlap 0.7 passes the pairwise check at tol 0.8, but the second
    # column's residual sqrt(1 - 0.49) ≈ 0.71 is ≤ 0.8: the span rule drops it.
    a = subspace_from_spanning([[1, 0]])
    b = subspace_from_spanning([[0.7, np.sqrt(1 - 0.49)]])
    with pytest.raises(NotOrthogonal, match="dimension lost"):
        subspace_sum([a, b], 0.8)
    assert subspace_from_spanning([[1, 0], [0.7, np.sqrt(1 - 0.49)]], 0.8).dim == 1


def test_sum_raises_on_more_columns_than_the_ambient_dimension():
    # Three real unit vectors 120° apart overlap by 0.5 pairwise.
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    parts = [subspace_from_spanning([[np.cos(t), np.sin(t)]]) for t in angles]
    with pytest.raises(NotOrthogonal, match="dimension lost"):
        subspace_sum(parts, 0.6)


def _orthonormal_columns(rng, d: int, k: int) -> np.ndarray:
    return np.linalg.qr(_gaussian(rng, d, k))[0]


def _contains_by_column(inner: Subspace, outer: Subspace, tol: float) -> bool:
    return all(contains_vector(outer, inner.basis[:, i], tol) for i in range(inner.dim))


def _invariant_by_column(s: Subspace, p: Projector, tol: float) -> bool:
    for i in range(s.dim):
        image = p.matrix @ s.basis[:, i]
        if np.linalg.norm(image) > tol and not contains_vector(s, image, tol):
            return False
    return True


@pytest.mark.parametrize("tol", [DEFAULT_EPS, 1e-6])
@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("factor, inside", [(0.5, True), (2.0, False)])
def test_contains_subspace_matches_the_per_column_rule(d, factor, inside, tol):
    """One unit column sits factor·tol outside the outer subspace."""
    rng = np.random.default_rng(d + 4)
    r = d // 8
    q = _orthonormal_columns(rng, d, r + 1)
    outer = Subspace(d, q[:, :r])
    sin = factor * tol
    tilted = np.sqrt(1.0 - sin**2) * q[:, 2] + sin * q[:, r]
    inner = Subspace(d, np.column_stack([q[:, 0], q[:, 1], tilted]))
    assert _contains_by_column(inner, outer, tol) is inside
    assert contains_subspace(inner, outer, tol) is inside
    assert contains_subspace(Subspace(d, q[:, :2]), outer, tol)


@pytest.mark.parametrize("tol", [DEFAULT_EPS, 1e-6])
@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("tilt", [0.5, 2.0])
@pytest.mark.parametrize("leak", [0.5, 2.0])
def test_is_invariant_under_matches_the_per_column_rule(d, tilt, leak, tol):
    """p maps one column tilt·tol out of s (relative to its image) and
    another to an image of norm leak·tol that points out of s."""
    rng = np.random.default_rng(d + 5)
    k = 6
    q = _orthonormal_columns(rng, d, k + 3)
    s = Subspace(d, q[:, : k + 1])
    w, w2 = q[:, k + 1], q[:, k + 2]
    sin = tilt * tol
    # p maps column k-1 to cos·v, whose residual from s is cos·sin: relative sin.
    v = np.sqrt(1.0 - sin**2) * q[:, k - 1] + sin * w
    # p maps column k to delta·u, and u lies almost wholly outside s.
    delta = leak * tol
    u = np.sqrt(1.0 - delta**2) * w2 + delta * q[:, k]
    range_basis = np.column_stack([q[:, : k - 1], v, u])
    p = Projector(d, range_basis @ range_basis.conj().T)
    expected = tilt < 1.0 and leak < 1.0
    assert _invariant_by_column(s, p, tol) is expected
    assert is_invariant_under(s, p, tol) is expected
