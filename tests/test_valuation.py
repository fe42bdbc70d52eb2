"""Three-valued evaluation: truth, falsity, gaps, and the supervaluation rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprop import (
    HomeNotInContext,
    InvalidInput,
    Proposition,
    StateVector,
    TruthTableError,
    TruthValue,
    ValuationInput,
    collection_of,
    context_new,
    context_valuation_profile,
    contains_subspace,
    default_home,
    evaluate,
    evaluate_disjunction_with_negation,
    full_space,
    lattice_of,
    negation_of,
    qubit_projector,
    range_of,
    truth_table,
    zero_space,
)
from conftest import random_context, state_in_subspace

SIGMA_Z = context_new("Sigma_z", [qubit_projector("z", +1), qubit_projector("z", -1)])
SIGMA_X = context_new("Sigma_x", [qubit_projector("x", +1), qubit_projector("x", -1)])

H_Z_PLUS = range_of(qubit_projector("z", +1))
H_Z_MINUS = range_of(qubit_projector("z", -1))
H_X_PLUS = range_of(qubit_projector("x", +1))
H_X_MINUS = range_of(qubit_projector("x", -1))

P_Z_PLUS = Proposition("P_z+", H_Z_PLUS)
P_Z_MINUS = Proposition("P_z-", H_Z_MINUS)
P_X_PLUS = Proposition("P_x+", H_X_PLUS)
P_X_MINUS = Proposition("P_x-", H_X_MINUS)


def intro_input() -> ValuationInput:
    return ValuationInput(
        StateVector(2, [1, 0]), H_Z_PLUS, collection_of([SIGMA_Z, SIGMA_X])
    )


class TestEvaluate:
    def test_aligned_proposition_true(self):
        assert evaluate(intro_input(), P_Z_PLUS) is TruthValue.TRUE

    def test_incompatible_proposition_gap(self):
        assert evaluate(intro_input(), P_X_PLUS) is TruthValue.GAP
        assert evaluate(intro_input(), P_X_MINUS) is TruthValue.GAP

    def test_orthogonal_proposition_false(self):
        assert evaluate(intro_input(), P_Z_MINUS) is TruthValue.FALSE

    def test_full_space_tautology(self):
        assert evaluate(intro_input(), Proposition("top", full_space(2))) is TruthValue.TRUE

    def test_zero_space_contradiction(self):
        assert evaluate(intro_input(), Proposition("bot", zero_space(2))) is TruthValue.FALSE

    def test_state_outside_home_rejected(self):
        bad = ValuationInput(
            StateVector(2, [0, 1]), H_Z_PLUS, collection_of([SIGMA_Z])
        )
        with pytest.raises(InvalidInput):
            evaluate(bad, P_Z_PLUS)

    def test_homeless_state_rejected(self):
        bad = ValuationInput(
            StateVector(2, [1, 1]), H_X_PLUS, collection_of([SIGMA_Z])
        )
        with pytest.raises(InvalidInput):
            evaluate(bad, P_Z_PLUS)


class TestDisjunctionWithNegation:
    def test_true_when_both_disjuncts_gap(self):
        inp = intro_input()
        assert evaluate(inp, P_X_PLUS) is TruthValue.GAP
        assert evaluate(inp, negation_of(P_X_PLUS)) is TruthValue.GAP
        assert evaluate_disjunction_with_negation(inp, P_X_PLUS) is TruthValue.TRUE

    def test_true_for_true_proposition(self):
        assert evaluate_disjunction_with_negation(intro_input(), P_Z_PLUS) is TruthValue.TRUE

    def test_true_for_false_proposition(self):
        assert evaluate_disjunction_with_negation(intro_input(), P_Z_MINUS) is TruthValue.TRUE


class TestNegation:
    def test_complement_subspace(self):
        assert negation_of(P_Z_PLUS).subspace.equals(H_Z_MINUS)
        assert negation_of(P_Z_PLUS).name == "¬P_z+"

    def test_tautology_becomes_contradiction(self):
        top = Proposition("top", full_space(2))
        assert negation_of(top).subspace.is_zero

    def test_double_negation_restores_subspace(self):
        assert negation_of(negation_of(P_X_PLUS)).subspace.equals(H_X_PLUS)


class TestContextProfile:
    def test_spin_z_profile(self):
        profile = context_valuation_profile(intro_input(), SIGMA_Z)
        assert profile == {0: TruthValue.TRUE, 1: TruthValue.FALSE}

    def test_profile_requires_home_in_context(self):
        with pytest.raises(HomeNotInContext):
            context_valuation_profile(intro_input(), SIGMA_X)

    def test_composite_profile(self):
        from qprop import build_sigma_A, tensor_state

        sigma_a = build_sigma_A()
        state = tensor_state(StateVector(2, [1, 0]), StateVector(2, [0, 1]))
        home = range_of(sigma_a.projectors[0])
        inp = ValuationInput(state, home, collection_of([sigma_a]))
        profile = context_valuation_profile(inp, sigma_a)
        assert profile[0] is TruthValue.TRUE
        assert all(profile[i] is TruthValue.FALSE for i in (1, 2, 3))

    def test_exactly_one_true_for_every_member_home(self):
        rng = np.random.default_rng(3)
        ctx = random_context(rng, 4)
        coll = collection_of([ctx])
        for p in ctx.projectors:
            home = range_of(p)
            state = state_in_subspace(rng, home)
            profile = context_valuation_profile(
                ValuationInput(state, home, coll), ctx
            )
            values = list(profile.values())
            assert values.count(TruthValue.TRUE) == 1
            assert values.count(TruthValue.GAP) == 0
            assert sum(1 for v in values if v is TruthValue.TRUE) == 1

    @pytest.mark.parametrize("tol", [0.3, 0.6])
    def test_only_the_home_member_is_true_at_large_tol(self, tol):
        """Members are valued by the block meet, which is {0} away from the
        home's member; the ambient meet of the home with another member's
        range can come out large enough at large tol to hold the state."""
        for seed in range(60):
            rng = np.random.default_rng([seed, int(tol * 10)])
            d = int(rng.integers(3, 9))
            ctx = random_context(rng, d, int(rng.integers(2, min(d, 5) + 1)))
            k = int(rng.integers(len(ctx)))
            home = range_of(ctx.projectors[k], tol)
            inp = ValuationInput(state_in_subspace(rng, home), home, collection_of([ctx], tol))
            profile = context_valuation_profile(inp, ctx, tol)
            assert profile == {
                i: TruthValue.TRUE if i == k else TruthValue.FALSE for i in range(len(ctx))
            }


class TestTruthTable:
    def test_intro_table(self):
        rows = truth_table(intro_input(), [P_Z_PLUS, P_Z_MINUS, P_X_PLUS, P_X_MINUS])
        assert rows == [
            ("P_z+", TruthValue.TRUE),
            ("P_z-", TruthValue.FALSE),
            ("P_x+", TruthValue.GAP),
            ("P_x-", TruthValue.GAP),
        ]

    def test_empty_table(self):
        assert truth_table(intro_input(), []) == []

    def test_errors_aggregate(self):
        bad = Proposition("wrong-dim", full_space(3))
        with pytest.raises(TruthTableError) as err:
            truth_table(intro_input(), [P_Z_PLUS, bad])
        assert "wrong-dim" in str(err.value)


class TestRendering:
    def test_rendered_forms(self):
        assert TruthValue.TRUE.rendered == "1"
        assert TruthValue.FALSE.rendered == "0"
        assert TruthValue.GAP.rendered == "0/0"

    def test_json_values(self):
        assert TruthValue.TRUE.json_value is True
        assert TruthValue.FALSE.json_value is False
        assert TruthValue.GAP.json_value is None


class TestDefaultHome:
    def test_span_of_state(self):
        home = default_home(StateVector(2, [1, 0]))
        assert home.equals(H_Z_PLUS)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_trichotomy_and_poles(seed, d):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, d, label="c0")
    coll = collection_of([ctx])
    home = range_of(ctx.projectors[0])
    state = state_in_subspace(rng, home)
    inp = ValuationInput(state, home, coll)
    target = Proposition("t", range_of(ctx.projectors[int(rng.integers(0, len(ctx)))]))
    value = evaluate(inp, target)
    assert value in (TruthValue.TRUE, TruthValue.FALSE, TruthValue.GAP)
    assert evaluate(inp, Proposition("top", full_space(d))) is TruthValue.TRUE
    assert evaluate(inp, Proposition("bot", zero_space(d))) is TruthValue.FALSE


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gap_symmetry_under_complement_closed_collections(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    c1 = random_context(rng, d, label="c1")
    c2 = random_context(rng, d, label="c2")
    coll = collection_of([c1, c2])
    home = range_of(c1.projectors[0])
    inp = ValuationInput(state_in_subspace(rng, home), home, coll)
    # Boolean lattices are closed under complements, so gaps pair up.
    lat = lattice_of(c2)
    probe = Proposition("q", lat.elements[int(rng.integers(0, len(lat)))])
    v, vneg = evaluate(inp, probe), evaluate(inp, negation_of(probe))
    assert (v is TruthValue.GAP) == (vneg is TruthValue.GAP)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_containment_is_monotone_for_true_values(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 6))
    ctx = random_context(rng, d, label="c")
    lat = lattice_of(ctx)
    coll = collection_of([ctx])
    home = range_of(ctx.projectors[0])
    inp = ValuationInput(state_in_subspace(rng, home), home, coll)
    for a in lat.elements:
        for b in lat.elements:
            if not contains_subspace(a, b):
                continue
            if evaluate(inp, Proposition("a", a)) is TruthValue.TRUE:
                assert evaluate(inp, Proposition("b", b)) is TruthValue.TRUE
