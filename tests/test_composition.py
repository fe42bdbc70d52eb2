"""Tensor composites, the two-qubit environment model, induced bivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprop import (
    CompositeSpace,
    InvalidSplice,
    MissingContext,
    MissingEnvProp,
    Proposition,
    StateVector,
    TooLarge,
    TruthValue,
    build_environment_scenario,
    build_sigma_A,
    context_new,
    full_space,
    induced_bivalence,
    meet,
    parse_scenario,
    projector_of,
    qubit_projector,
    range_of,
    stability_check,
    stability_filter,
    tensor_chain,
    tensor_state,
    tensor_subspace,
)
from conftest import random_subspace

from importlib import resources


def _fixture(name: str) -> str:
    return resources.files("qprop").joinpath("scenarios", name).read_text("utf-8")


SIGMA_SZ = context_new("Sigma_Sz", [qubit_projector("z", +1), qubit_projector("z", -1)])
SIGMA_SX = context_new("Sigma_Sx", [qubit_projector("x", +1), qubit_projector("x", -1)])

H_SZ_PLUS = range_of(qubit_projector("z", +1))
H_SX_PLUS = range_of(qubit_projector("x", +1))
H_1Z_PLUS = range_of(qubit_projector("z", +1))
H_1Z_MINUS = range_of(qubit_projector("z", -1))


class TestTensorOps:
    def test_tensor_of_rays(self):
        t = tensor_subspace(H_SZ_PLUS, H_1Z_MINUS)
        assert t.ambient_dim == 4 and t.dim == 1
        assert np.allclose(np.abs(t.basis[:, 0]), [0, 1, 0, 0])

    def test_trivial_one_dim_factor(self):
        s = random_subspace(np.random.default_rng(1), 3, 2)
        t = tensor_subspace(s, full_space(1))
        assert t.equals(s)

    def test_x_plus_with_env_plus(self):
        t = tensor_subspace(H_SX_PLUS, H_1Z_PLUS)
        expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
        assert np.allclose(np.abs(t.basis[:, 0]), expected)

    def test_tensor_state_values(self):
        out = tensor_state(StateVector(2, [1, 0]), StateVector(2, [0, 1]))
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_tensor_state_scalar_factor(self):
        v = StateVector(2, [1, 1])
        out = tensor_state(v, StateVector(1, [1]))
        assert np.allclose(out.amplitudes, v.amplitudes)

    def test_tensor_state_superposition(self):
        out = tensor_state(StateVector(2, [1, 1]), StateVector(2, [1, 0]))
        assert np.allclose(out.amplitudes, np.array([1, 0, 1, 0]) / np.sqrt(2))


class TestSigmaA:
    def test_four_rank_one_members(self):
        ctx = build_sigma_A()
        assert len(ctx) == 4
        assert all(p.rank == 1 for p in ctx.projectors)

    def test_members_sum_to_identity(self):
        total = sum(p.matrix for p in build_sigma_A().projectors)
        assert np.allclose(total, np.eye(4))

    def test_member_order_matches_pairing(self):
        ctx = build_sigma_A()
        expected = [
            np.kron(qubit_projector("z", +1).matrix, qubit_projector("z", -1).matrix),
            np.kron(qubit_projector("z", -1).matrix, qubit_projector("z", -1).matrix),
            np.kron(qubit_projector("x", +1).matrix, qubit_projector("z", +1).matrix),
            np.kron(qubit_projector("x", -1).matrix, qubit_projector("z", +1).matrix),
        ]
        for p, m in zip(ctx.projectors, expected):
            assert np.allclose(p.matrix, m)


class TestEnvironmentScenario:
    def test_two_qubit_case_matches_sigma_a(self):
        sc = build_environment_scenario(1, 1, [SIGMA_SZ, SIGMA_SX], "z")
        assert sc.dimension == 4
        spliced = sc.contexts["Sigma_SE"]
        reference = build_sigma_A()
        for p, q in zip(spliced.projectors, reference.projectors):
            assert np.allclose(p.matrix, q.matrix)

    def test_three_env_qubits(self):
        sc = build_environment_scenario(3, 1, [SIGMA_SZ, SIGMA_SX], "z")
        assert sc.dimension == 16
        for ctx in sc.contexts.values():
            assert ctx.ambient_dim == 16  # context validation ran at parse time

    def test_splice_out_of_range(self):
        with pytest.raises(InvalidSplice):
            build_environment_scenario(2, 3, [SIGMA_SZ, SIGMA_SX], "z")

    def test_wrong_context_count(self):
        with pytest.raises(InvalidSplice):
            build_environment_scenario(1, 1, [SIGMA_SZ], "z")

    def test_dimension_cap(self):
        with pytest.raises(TooLarge):
            build_environment_scenario(3, 1, [SIGMA_SZ, SIGMA_SX], "z", dim_cap=8)

    def test_splice_elsewhere_in_the_chain(self):
        sc = build_environment_scenario(2, 2, [SIGMA_SZ, SIGMA_SX], "z")
        prop_q = sc.factors["S"].propositions["Sigma_Sx[0]"]
        env_prop = sc.factors["E2"].propositions["E2z+"]
        report = induced_bivalence(sc, prop_q, env_prop)
        assert report.post_status == "Bivalent"


class TestInducedBivalence:
    def _scenario(self):
        return parse_scenario(_fixture("env_two_qubit.json"))

    def test_gap_becomes_bivalent(self):
        sc = self._scenario()
        report = induced_bivalence(
            sc, sc.factors["S"].propositions["P_Sx+"], sc.factors["E1"].propositions["E1z+"]
        )
        assert report.pre_value is TruthValue.GAP
        assert report.companion_value is TruthValue.FALSE
        assert report.conjunction_value is TruthValue.FALSE
        assert report.witness_lattice == "Sigma_A"
        assert report.post_status == "Bivalent"

    def test_determinate_proposition_trivially_bivalent(self):
        sc = self._scenario()
        report = induced_bivalence(
            sc, sc.factors["S"].propositions["P_Sz+"], sc.factors["E1"].propositions["E1z-"]
        )
        assert report.pre_value is TruthValue.TRUE
        assert report.post_status == "Bivalent"

    def test_missing_composite_context(self):
        import json

        data = json.loads(_fixture("env_two_qubit.json"))
        del data["contexts"]["Sigma_A"]
        del data["evaluation"]["context"]
        data["homes"]["pair"] = {"tensor": ["S.P_Sz+", {"full": 2}]}
        from qprop import scenario_from_data

        sc = scenario_from_data(data)
        with pytest.raises(MissingContext):
            induced_bivalence(
                sc,
                sc.factors["S"].propositions["P_Sx+"],
                sc.factors["E1"].propositions["E1z+"],
            )

    def test_composite_without_evaluation_block_rejected(self):
        import json

        from qprop import ScenarioSyntaxError, scenario_from_data

        data = json.loads(_fixture("env_two_qubit.json"))
        del data["evaluation"]
        sc = scenario_from_data(data)
        with pytest.raises(ScenarioSyntaxError, match="no evaluation block"):
            induced_bivalence(
                sc,
                sc.factors["S"].propositions["P_Sx+"],
                sc.factors["E1"].propositions["E1z+"],
            )

    def test_non_preferred_env_prop_rejected(self):
        sc = self._scenario()
        tilted = Proposition("E1x+", range_of(qubit_projector("x", +1)))
        with pytest.raises(MissingEnvProp):
            induced_bivalence(sc, sc.factors["S"].propositions["P_Sx+"], tilted)

    def test_report_serialization(self):
        sc = self._scenario()
        report = induced_bivalence(
            sc, sc.factors["S"].propositions["P_Sx+"], sc.factors["E1"].propositions["E1z+"]
        )
        js = report.to_json()
        assert js["pre_value"] == "gap"
        assert js["post_status"] == "Bivalent"
        assert set(js) == {
            "proposition",
            "pre_value",
            "witness_lattice",
            "companion_env_prop",
            "companion_value",
            "conjunction_value",
            "post_status",
        }


class TestStability:
    def test_sigma_a_is_stable(self):
        space = CompositeSpace((2, 2))
        sigma_a = build_sigma_A()
        assert stability_check(sigma_a, "z", space) is None
        assert stability_filter("z", [sigma_a], space) == [sigma_a]

    def test_x_factor_context_rejected(self):
        space = CompositeSpace((2, 2))
        members = [
            np.kron(qubit_projector("z", s).matrix, qubit_projector("x", t).matrix)
            for s in (+1, -1)
            for t in (+1, -1)
        ]
        from qprop import Projector

        ctx = context_new("tilted", [Projector(4, m) for m in members])
        reason = stability_check(ctx, "z", space)
        assert reason is not None and "disturbs" in reason
        assert stability_filter("z", [ctx], space) == []

    def test_empty_candidates(self):
        assert stability_filter("z", [], CompositeSpace((2, 2))) == []

    def test_identity_env_factors_are_stable(self):
        # lifted single-system contexts leave every pointer basis untouched
        sc = parse_scenario(_fixture("env_two_qubit.json"))
        space = CompositeSpace((2, 2))
        retained = stability_filter(
            "z", list(sc.contexts.values()), space
        )
        assert len(retained) == len(sc.contexts)


class TestCompositionProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kron_homomorphism(self, seed):
        rng = np.random.default_rng(seed)
        da, db = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = random_subspace(rng, da, int(rng.integers(0, da + 1)))
        b = random_subspace(rng, db, int(rng.integers(0, db + 1)))
        lhs = projector_of(tensor_subspace(a, b)).matrix
        rhs = np.kron(projector_of(a).matrix, projector_of(b).matrix)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_meet_factors_over_commuting_tensors(self):
        ctx = build_sigma_A()
        ranges = [range_of(p) for p in ctx.projectors]
        factors = [
            (H_SZ_PLUS, H_1Z_MINUS),
            (range_of(qubit_projector("z", -1)), H_1Z_MINUS),
            (H_SX_PLUS, H_1Z_PLUS),
            (range_of(qubit_projector("x", -1)), H_1Z_PLUS),
        ]
        for (a, x), ta in zip(factors, ranges):
            for (b, y), tb in zip(factors, ranges):
                direct = meet(ta, tb)
                factored = tensor_subspace(meet(a, b), meet(x, y))
                assert direct.equals(factored)

    def test_sigma_se_valid_for_small_chains(self):
        for n_env in (1, 2, 3):
            sc = build_environment_scenario(n_env, 1, [SIGMA_SZ, SIGMA_SX], "z")
            spliced = sc.contexts["Sigma_SE"]
            total = sum(p.matrix for p in spliced.projectors)
            assert np.allclose(total, np.eye(sc.dimension))

    def test_growing_environment_stays_bivalent(self):
        for n_env in (1, 2, 3):
            sc = build_environment_scenario(n_env, 1, [SIGMA_SZ, SIGMA_SX], "z")
            prop_q = sc.factors["S"].propositions["Sigma_Sx[0]"]
            env_prop = sc.factors["E1"].propositions["E1z+"]
            report = induced_bivalence(sc, prop_q, env_prop)
            assert report.pre_value is TruthValue.GAP
            assert report.post_status == "Bivalent"

    def test_tensor_chain_associates(self):
        rng = np.random.default_rng(77)
        parts = [random_subspace(rng, 2, 1) for _ in range(3)]
        left = tensor_subspace(tensor_subspace(parts[0], parts[1]), parts[2])
        chained = tensor_chain(parts)
        assert chained.equals(left)
