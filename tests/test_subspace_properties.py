"""Property tests for the subspace algebra laws over seeded random data."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qprop import (
    commutator,
    complement,
    contains_subspace,
    contains_vector,
    join,
    meet,
    negate,
    projector_of,
    range_of,
    subspace_from_spanning,
    subspace_sum,
    subspaces_commute,
)
from conftest import random_context, random_subspace, random_unitary

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=5)


def _pair(seed, d):
    rng = np.random.default_rng(seed)
    ra = int(rng.integers(0, d + 1))
    rb = int(rng.integers(0, d + 1))
    return random_subspace(rng, d, ra), random_subspace(rng, d, rb), rng


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_de_morgan_duality_both_directions(seed, d):
    a, b, _ = _pair(seed, d)
    assert meet(a, b).equals(complement(join(complement(a), complement(b))))
    assert join(a, b).equals(complement(meet(complement(a), complement(b))))


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_double_complement(seed, d):
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, d, int(rng.integers(0, d + 1)))
    assert complement(complement(s)).equals(s)


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_projector_and_negation_split_the_space(seed, d):
    rng = np.random.default_rng(seed)
    p = projector_of(random_subspace(rng, d, int(rng.integers(0, d + 1))))
    r, rneg = range_of(p), range_of(negate(p))
    assert subspace_sum([r, rneg]).is_full
    assert meet(r, rneg).is_zero


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_annihilating_projectors_meet_at_zero(seed, d):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, d)
    ranges = [range_of(p) for p in ctx.projectors]
    for i in range(len(ranges)):
        for j in range(i + 1, len(ranges)):
            # both directions of the orthogonality bridge, commuting pair
            assert meet(ranges[i], ranges[j]).is_zero
            prod = ctx.projectors[i].matrix @ ctx.projectors[j].matrix
            assert float(np.max(np.abs(prod))) <= 1e-9


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_orthogonality_bridge_converse_for_commuting_pairs(seed, d):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, d)
    ranges = [range_of(p) for p in ctx.projectors]
    n = len(ranges)
    mask_a = int(rng.integers(0, 2**n))
    mask_b = int(rng.integers(0, 2**n))
    a = subspace_sum([ranges[i] for i in range(n) if mask_a >> i & 1], ambient_dim=d)
    b = subspace_sum([ranges[i] for i in range(n) if mask_b >> i & 1], ambient_dim=d)
    product = projector_of(a).matrix @ projector_of(b).matrix
    annihilate = float(np.max(np.abs(product))) <= 1e-9
    assert meet(a, b).is_zero == annihilate


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_absorption_iff_containment(seed, d):
    rng = np.random.default_rng(seed)
    small = random_subspace(rng, d, 1)
    big = join(small, random_subspace(rng, d, int(rng.integers(0, d))))
    p, q = projector_of(small), projector_of(big)
    assert contains_subspace(small, big)
    assert np.allclose(p.matrix @ q.matrix, p.matrix, atol=1e-9)
    assert np.allclose(q.matrix @ p.matrix, p.matrix, atol=1e-9)
    # an unrelated generic pair should fail both sides together
    other = random_subspace(rng, d, 1)
    contained = contains_subspace(other, big)
    absorbed = np.allclose(
        projector_of(other).matrix @ q.matrix, projector_of(other).matrix, atol=1e-8
    )
    assert contained == absorbed


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_lattice_commutativity_matches_commutator(seed, d):
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        a = random_subspace(rng, d, int(rng.integers(1, d)))
        b = random_subspace(rng, d, int(rng.integers(1, d)))
    else:
        # constructed commuting pair: two subset sums of one context
        ctx = random_context(rng, d)
        ranges = [range_of(p) for p in ctx.projectors]
        n = len(ranges)
        mask_a = int(rng.integers(0, 2**n))
        mask_b = int(rng.integers(0, 2**n))
        a = subspace_sum([ranges[i] for i in range(n) if mask_a >> i & 1], ambient_dim=d)
        b = subspace_sum([ranges[i] for i in range(n) if mask_b >> i & 1], ambient_dim=d)
    c = commutator(projector_of(a), projector_of(b))
    commute = float(np.linalg.norm(c)) <= 1e-9
    assert subspaces_commute(a, b) == commute
    assert subspaces_commute(b, a) == commute


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_membership_agrees_with_least_squares(seed, d):
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, d, int(rng.integers(1, d + 1)))
    inside = s.basis @ (rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim))
    outside = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for v in (inside, outside):
        if np.linalg.norm(v) < 1e-12:
            continue
        x, *_ = np.linalg.lstsq(s.basis, v, rcond=None)
        residual = float(np.linalg.norm(s.basis @ x - v))
        oracle = residual <= 1e-9 * float(np.linalg.norm(v))
        assert contains_vector(s, v) == oracle


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_spanning_rank_stable_under_recombination(seed, d):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, d + 1))
    vectors = [
        rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(r)
    ]
    s = subspace_from_spanning(vectors)
    perm = rng.permutation(len(vectors))
    s_perm = subspace_from_spanning([vectors[i] for i in perm])
    u = random_unitary(rng, len(vectors))
    stacked = np.column_stack(vectors) @ u
    s_mixed = subspace_from_spanning([stacked[:, i] for i in range(stacked.shape[1])])
    assert s.equals(s_perm)
    assert s.equals(s_mixed)
    assert contains_subspace(s, s_mixed) and contains_subspace(s_mixed, s)
