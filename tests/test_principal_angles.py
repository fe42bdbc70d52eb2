"""Meet and join against subspace pairs with prescribed principal angles.

Each pair shares k directions exactly, and m more directions of a each
sit at a chosen sine to a direction of b: half the tolerance (the two
count as shared) or well above it (they do not). The whole pair is turned by one
random unitary and each basis is mixed within itself, so no basis column
is a principal direction. The expected meet dimension is then known
without any linear algebra on the operands.
"""

import numpy as np
import pytest

from qprop import (
    DimensionMismatch,
    Subspace,
    check_distributivity,
    contains_subspace,
    full_space,
    join,
    lattice_of,
    meet,
    zero_space,
)
from conftest import random_context, random_unitary

DIMS = [2, 3, 4, 5, 6, 7, 8, 64]
TOLS = [1e-12, 1e-9, 1e-6, 0.3, 0.6]


def _far(tol: float) -> float:
    """A sine well above tol and below 1: 2·tol, capped halfway to 1."""
    return min(2 * tol, (1 + tol) / 2)


def _mixed(rng, d: int, coords: np.ndarray, q: np.ndarray) -> Subspace:
    """span(q @ coords) with its basis mixed by a random unitary of its own dim."""
    basis = q @ coords
    if basis.shape[1]:
        basis = basis @ random_unitary(rng, basis.shape[1])
    return Subspace(d, basis)


def _pair(rng, d: int, tol: float):
    """(a, b, expected meet dim): k shared directions plus pairs of directions
    at sines drawn from {tol/2, _far(tol)}, each pair using two axes."""
    m = int(rng.integers(0, d // 2 + 1))
    k = int(rng.integers(0, d - 2 * m + 1))
    sines = rng.choice([0.5 * tol, _far(tol)], size=m)
    a_coords = np.zeros((d, k + m), dtype=complex)
    b_coords = np.zeros((d, k + m), dtype=complex)
    for j in range(k):
        a_coords[j, j] = b_coords[j, j] = 1
    for j, s in enumerate(sines):
        axis, other = k + 2 * j, k + 2 * j + 1
        a_coords[axis, k + j] = 1
        b_coords[axis, k + j] = np.sqrt(1 - s * s)
        b_coords[other, k + j] = s
    q = random_unitary(rng, d)
    a, b = _mixed(rng, d, a_coords, q), _mixed(rng, d, b_coords, q)
    return a, b, k + int(np.sum(sines <= tol))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_meet_and_join_read_the_prescribed_angles(d, tol):
    rng = np.random.default_rng([d, TOLS.index(tol)])
    for _ in range(8):
        a, b, expected = _pair(rng, d, tol)
        for x, y in ((a, b), (b, a)):
            lo, hi = meet(x, y, tol), join(x, y, tol)
            assert lo.dim == expected
            assert lo.dim + hi.dim == x.dim + y.dim
            assert contains_subspace(lo, x, tol) and contains_subspace(lo, y, tol)
            assert contains_subspace(x, hi, tol) and contains_subspace(y, hi, tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_zero_and_full_operands(d, tol):
    rng = np.random.default_rng([d, TOLS.index(tol), 1])
    a, _, _ = _pair(rng, d, tol)
    zero, full = zero_space(d), full_space(d)
    for s in (a, zero, full):
        for x, y in ((s, zero), (zero, s)):
            assert meet(x, y, tol).is_zero
            assert join(x, y, tol).equals(s, tol)
        for x, y in ((s, full), (full, s)):
            assert meet(x, y, tol).equals(s, tol)
            assert join(x, y, tol).is_full


def test_ambient_dimension_mismatch_raises():
    for op in (meet, join):
        with pytest.raises(DimensionMismatch):
            op(full_space(2), zero_space(3))
        with pytest.raises(DimensionMismatch):
            op(zero_space(3), full_space(2))


@pytest.mark.parametrize("tol", [0.3, 0.6])
def test_block_closure_and_distributivity_at_large_tol(tol):
    rng = np.random.default_rng(int(tol * 10))
    for _ in range(30):
        d = int(rng.integers(2, 9))
        lat = lattice_of(random_context(rng, d), tol)
        elements = lat.elements
        for i, j, k in rng.integers(0, len(elements), size=(30, 3)):
            a, b, c = elements[i], elements[j], elements[k]
            assert lat.contains(meet(a, b, tol), tol)
            assert lat.contains(join(a, b, tol), tol)
            assert check_distributivity(lat, a, b, c, tol).equal
