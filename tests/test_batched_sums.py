"""The batched direct sum and the one-reduction Subspace validation.

``subspace_sums`` tests and sums many part lists of one total rank with
one stacked Gram product and one stacked QR; ``subspace_sum`` is its
one-group case, and a lattice's ``elements`` are built with it, one call
per rank. The per-pair loop and single QR that ``subspace_sum`` used
before are kept here as the reference: bases must be bitwise equal and
errors must carry the same text.
"""

import numpy as np
import pytest

from qprop import (
    Context,
    DimensionMismatch,
    NotOrthogonal,
    Projector,
    Subspace,
    context_new,
    lattice_of,
    subspace_from_spanning,
    subspace_sum,
    subspace_sums,
    zero_space,
)
from qprop.lattices import InvariantSubspaceLattice, _mask_order
from conftest import random_subspace, random_unitary

DIMS = [2, 3, 4, 5, 6, 7, 8, 64]
TOLS = [1e-12, 1e-9, 1e-6, 0.3, 0.6]


def reference_sum(parts, tol, d):
    """The loop form of the direct sum: per-pair overlaps, then one QR."""
    if not parts:
        return zero_space(d)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            overlap = parts[i].basis.conj().T @ parts[j].basis
            if overlap.size and float(np.max(np.abs(overlap))) > tol:
                raise NotOrthogonal(
                    f"summands {i} and {j} are not orthogonal "
                    f"(max overlap {float(np.max(np.abs(overlap))):.3e})"
                )
    stacked = np.hstack([s.basis for s in parts])
    if stacked.shape[1] == 0:
        return zero_space(d)
    if stacked.shape[1] > d:
        raise NotOrthogonal("summands overlap: direct-sum dimension lost")
    q, r = np.linalg.qr(stacked)
    if np.any(np.abs(np.diagonal(r)) <= tol * np.linalg.norm(stacked, axis=0)):
        raise NotOrthogonal("summands overlap: direct-sum dimension lost")
    return Subspace(d, q)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type and text
        return (type(exc), str(exc))


def _context(d: int, tol: float, seed: int) -> Context:
    rng = np.random.default_rng([d, TOLS.index(tol), seed])
    n = int(rng.integers(2, min(d, 5) + 1))
    q = random_unitary(rng, d)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=n - 1, replace=False))
    bounds = [0, *cuts, d]
    blocks = [q[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return context_new("c", [Projector(d, b @ b.conj().T) for b in blocks], tol)


def _parts(lat, mask):
    return [r for i, r in enumerate(lat.ranges) if mask >> i & 1]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_elements_equal_one_element_sums_bitwise(d, tol):
    for seed in range(3):
        lat = lattice_of(_context(d, tol, seed), tol)
        elements = lat.elements
        for mask, e in zip(_mask_order(len(lat.ranges)), elements):
            parts = _parts(lat, mask)
            alone = subspace_sum(parts, tol, ambient_dim=d)
            assert np.array_equal(e.basis, alone.basis)
            assert np.array_equal(e.basis, reference_sum(parts, tol, d).basis)


@pytest.mark.parametrize("d", [3, 8, 64])
def test_batch_of_random_groups_equals_each_group_alone(d):
    rng = np.random.default_rng(d)
    groups = []
    for _ in range(6):
        q = random_unitary(rng, d)
        cut = int(rng.integers(1, 3))
        groups.append([Subspace(d, q[:, :cut]), Subspace(d, q[:, cut:3])])
    for tol in TOLS:
        for batched, parts in zip(subspace_sums(groups, tol), groups):
            assert np.array_equal(batched.basis, subspace_sum(parts, tol).basis)
            assert np.array_equal(batched.basis, reference_sum(parts, tol, d).basis)


def _tilted_pair(d: int, angle: float):
    a = subspace_from_spanning([np.eye(d)[0]])
    b = subspace_from_spanning([np.cos(angle) * np.eye(d)[1] + np.sin(angle) * np.eye(d)[0]])
    return a, b


FAILING = {
    "small overlap": (lambda: _tilted_pair(4, 1e-3), 1e-9),
    "large overlap": (lambda: _tilted_pair(4, 0.7), 0.3),
    "too many columns": (lambda: (random_subspace(np.random.default_rng(1), 3, 2),
                                  random_subspace(np.random.default_rng(2), 3, 2)), 1e-9),
}


@pytest.mark.parametrize("name", FAILING)
def test_failing_group_raises_the_reference_text(name):
    build, tol = FAILING[name]
    parts = list(build())
    d, rank = parts[0].ambient_dim, sum(s.dim for s in parts)
    expected = _outcome(reference_sum, parts, tol, d)
    assert isinstance(expected, tuple) and expected[0] is NotOrthogonal
    assert _outcome(subspace_sum, parts, tol) == expected
    # the failing group raises its own text wherever it stands in the batch
    fine = [[Subspace(d, np.eye(d)[:, :rank])]] if rank <= d else []
    assert _outcome(subspace_sums, [*fine, parts, parts[::-1]], tol) == expected


def test_dimension_loss_within_tol_raises_the_reference_text():
    """Three unit vectors in a plane, pairwise overlaps within tol: the
    overlap test passes and the |R_kk| test finds the lost dimension."""
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    parts = [subspace_from_spanning([[np.cos(t), np.sin(t), 0]]) for t in angles]
    expected = _outcome(reference_sum, parts, 0.6, 3)
    assert expected == (NotOrthogonal, "summands overlap: direct-sum dimension lost")
    assert _outcome(subspace_sum, parts, 0.6) == expected
    assert _outcome(subspace_sums, [parts, parts[::-1]], 0.6) == expected


def test_elements_raise_the_first_failing_element_in_order():
    """A lattice made without lattice_of (so its top is never checked) whose
    ranges overlap: elements raises what the in-order loop raises first.

    Range 1 leans 1e-3 toward range 0 and range 2 leans 2e-3 toward range
    1. Mask 0b011 (rank 3) is the first failing element in order, but the
    rank-2 batch, which holds the failing mask 0b110, is summed first."""
    d = 6
    e = np.eye(d)
    r1 = np.cos(1e-3) * e[2] + np.sin(1e-3) * e[0]
    r2 = np.cos(2e-3) * e[3] + np.sin(2e-3) * r1
    ranges = (
        Subspace(d, e[:, :2]),
        subspace_from_spanning([r1]),
        subspace_from_spanning([r2]),
        Subspace(d, e[:, 4:5]),
    )
    lat = InvariantSubspaceLattice("bad", ranges, 1e-9)
    expected = None
    for mask in _mask_order(len(ranges)):
        expected = _outcome(reference_sum, _parts(lat, mask), 1e-9, d)
        if isinstance(expected, tuple):
            assert mask == 0b011
            break
    assert expected[1].endswith("(max overlap 1.000e-03)")
    assert _outcome(lambda: lat.elements) == expected


def test_empty_and_rank_zero_groups():
    assert subspace_sums([], 1e-9) == []
    zeros = subspace_sums([[], [zero_space(3)]], ambient_dim=3)
    assert [z.dim for z in zeros] == [0, 0]
    with pytest.raises(ValueError, match="ambient_dim is required"):
        subspace_sum([])
    with pytest.raises(ValueError, match="total rank"):
        subspace_sums([[Subspace(2, np.eye(2)[:, :1])], [Subspace(2, np.eye(2))]])
    with pytest.raises(DimensionMismatch):
        subspace_sums([[Subspace(2, np.eye(2)[:, :1])], [Subspace(3, np.eye(3)[:, :1])]])
    with pytest.raises(DimensionMismatch):
        subspace_sum([Subspace(2, np.eye(2)[:, :1])], ambient_dim=3)


# ---------------------------------------------------------------------------
# Subspace validation: one reduction, the same messages in the same order
# ---------------------------------------------------------------------------

NAN_BASIS = np.array([[np.nan], [0.0]])
SUBSPACE_ERRORS = {
    "nan": (2, NAN_BASIS, "basis contains non-finite entries"),
    "inf": (2, np.array([[np.inf], [0.0]]), "basis contains non-finite entries"),
    "wrong shape with nan": (3, NAN_BASIS, "basis contains non-finite entries"),
    "wrong shape": (3, np.eye(2), "basis must be 3xr, got shape (2, 2)"),
    "one-dimensional": (2, np.array([1.0, 0.0]), "basis must be 2xr, got shape (2,)"),
    "too many columns": (2, np.ones((2, 3)), "more basis columns than ambient dimension"),
    "not orthonormal": (2, np.array([[1.0], [1.0]]), "basis columns are not orthonormal"),
    "overflowing gram": (2, np.array([[1e200, 1e200], [1e200, -1e200]]),
                         "basis columns are not orthonormal"),
    "ambient": (0, np.zeros((0, 0)), "ambient_dim must be positive"),
}


@pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("name", SUBSPACE_ERRORS)
def test_subspace_messages_and_order(name):
    d, basis, message = SUBSPACE_ERRORS[name]
    with pytest.raises(ValueError) as err:
        Subspace(d, basis)
    assert str(err.value) == message


def test_valid_bases_pass_including_empty_and_full():
    assert Subspace(3, np.zeros((3, 0))).is_zero
    assert Subspace(3, np.eye(3)).is_full
    q = random_unitary(np.random.default_rng(0), 5)[:, :2]
    s = Subspace(5, q)
    assert np.array_equal(s.basis, q) and not s.basis.flags.writeable
