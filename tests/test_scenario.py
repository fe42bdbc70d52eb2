"""Scenario file parsing, validation diagnostics, and round-tripping."""

import json
from importlib import resources

import numpy as np
import pytest

from qprop import (
    Incomplete,
    NotAProjector,
    ScenarioSyntaxError,
    TruthValue,
    UnknownReference,
    ValidationFailed,
    check_scenario,
    evaluate,
    parse_scenario,
    scenario_from_data,
    serialize_scenario,
)


def _fixture(name: str) -> str:
    return resources.files("qprop").joinpath("scenarios", name).read_text("utf-8")


def _intro_data() -> dict:
    return json.loads(_fixture("intro_qubit.json"))


class TestParsing:
    def test_intro_objects(self):
        sc = parse_scenario(_fixture("intro_qubit.json"))
        assert sc.dimension == 2
        assert set(sc.contexts) == {"Sigma_z", "Sigma_x"}
        assert set(sc.propositions) == {"P_z+", "P_z-", "P_x+", "P_x-"}
        assert sc.evaluation.state == "psi"
        assert np.allclose(sc.states["psi"].amplitudes, [1, 0])

    def test_env_composite_objects(self):
        sc = parse_scenario(_fixture("env_two_qubit.json"))
        assert sc.dimension == 4
        assert set(sc.factors) == {"S", "E1"}
        assert sc.composition.order == ("S", "E1")
        assert sc.composition.splice_index == 1
        pair = sc.states["pair"]
        assert np.allclose(pair.amplitudes, [0, 1, 0, 0])
        sigma_a = sc.contexts["Sigma_A"]
        assert len(sigma_a) == 4 and sigma_a.ambient_dim == 4

    def test_classical_limit_has_complex_entries(self):
        sc = parse_scenario(_fixture("classical_limit.json"))
        y_plus = sc.propositions["P_y+"].subspace
        v = y_plus.basis[:, 0]
        assert abs(v[1] / v[0] - 1j) < 1e-12

    def test_complex_pair_and_real_shorthand_agree(self):
        data = _intro_data()
        data["states"]["psi"] = [[1, 0], [0, 0]]
        sc = scenario_from_data(data)
        assert np.allclose(sc.states["psi"].amplitudes, [1, 0])


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["intro_qubit.json", "env_two_qubit.json", "classical_limit.json"]
    )
    def test_parse_serialize_parse_is_identity(self, name):
        first = parse_scenario(_fixture(name))
        text = serialize_scenario(first)
        second = parse_scenario(text)
        assert serialize_scenario(second) == text
        assert second.data == first.data

    def test_evaluation_survives_round_trip(self):
        sc = parse_scenario(serialize_scenario(parse_scenario(_fixture("intro_qubit.json"))))
        inp = sc.valuation_input()
        assert evaluate(inp, sc.propositions["P_x+"]) is TruthValue.GAP


class TestValidationErrors:
    def test_bad_json(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("{not json")

    def test_unknown_top_level_key(self):
        data = _intro_data()
        data["bogus"] = 1
        with pytest.raises(ScenarioSyntaxError, match="bogus"):
            scenario_from_data(data)

    def test_incomplete_context_reports_path_and_trace(self):
        data = _intro_data()
        data["contexts"]["broken"] = [{"span": [[1, 0]]}]
        with pytest.raises(ValidationFailed) as err:
            scenario_from_data(data)
        assert "contexts.broken" in str(err.value)
        assert isinstance(err.value.cause, Incomplete)
        assert "trace" in str(err.value)

    def test_non_hermitian_projector_detected(self):
        data = _intro_data()
        data["contexts"]["Sigma_z"][0] = {
            "matrix": [[1, 0.001], [0, 0]]
        }
        with pytest.raises(ValidationFailed) as err:
            scenario_from_data(data)
        assert isinstance(err.value.cause, NotAProjector)
        assert "asymmetry" in str(err.value)

    def test_unknown_proposition_in_evaluation(self):
        data = _intro_data()
        data["evaluation"]["propositions"].append("ghost")
        with pytest.raises(UnknownReference, match="ghost"):
            scenario_from_data(data)

    def test_unknown_factor_reference(self):
        data = json.loads(_fixture("env_two_qubit.json"))
        data["propositions"]["bad"] = {"tensor": ["Q.thing", {"full": 2}]}
        with pytest.raises(UnknownReference, match="Q"):
            scenario_from_data(data)

    def test_state_dimension_mismatch(self):
        data = _intro_data()
        data["states"]["psi"] = [1, 0, 0]
        with pytest.raises(ValidationFailed, match="dimension"):
            scenario_from_data(data)

    def test_home_must_contain_state(self):
        data = _intro_data()
        data["homes"]["psi"] = {"span": [[0, 1]]}
        with pytest.raises(ValidationFailed, match="home"):
            scenario_from_data(data)

    def test_composition_dimension_product_checked(self):
        data = json.loads(_fixture("env_two_qubit.json"))
        data["dimension"] = 8
        with pytest.raises((ScenarioSyntaxError, ValidationFailed)):
            scenario_from_data(data)


class TestCheckScenario:
    def test_clean_fixture_all_ok(self):
        rows = check_scenario(_fixture("intro_qubit.json"))
        assert rows and all(ok for _, ok, _ in rows)
        paths = [p for p, _, _ in rows]
        assert "$.contexts.Sigma_z" in paths
        assert "$.contexts.Sigma_z/lattice" in paths

    def test_broken_context_reported_not_raised(self):
        data = _intro_data()
        data["contexts"]["broken"] = [{"span": [[1, 0]]}]
        rows = check_scenario(json.dumps(data))
        bad = [r for r in rows if not r[1]]
        assert any("broken" in r[0] and "Incomplete" in r[2] for r in bad)
        # the rest of the file still validates
        assert any(r[0] == "$.contexts.Sigma_z" and r[1] for r in rows)

    def test_invalid_json_single_row(self):
        rows = check_scenario("{")
        assert rows == [rows[0]] and not rows[0][1]


class TestDefaultHome:
    def test_missing_home_defaults_to_span(self):
        data = _intro_data()
        del data["homes"]
        sc = scenario_from_data(data)
        inp = sc.valuation_input()
        assert evaluate(inp, sc.propositions["P_z+"]) is TruthValue.TRUE
        assert evaluate(inp, sc.propositions["P_x+"]) is TruthValue.GAP


class TestScenarioTolerance:
    """Members are validated once, at the scenario's own eps."""

    @staticmethod
    def _with_member(member, eps=1e-6) -> dict:
        data = _intro_data()
        data["eps"] = eps
        data["contexts"]["Sigma_z"][0] = member
        return data

    @staticmethod
    def _diag(x: float) -> dict:
        return {"matrix": [[x, 0], [0, 0]]}

    def _run(self, data, tmp_path, capsys, *args):
        from qprop.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), "utf-8")
        code = main([*args, str(path)])
        captured = capsys.readouterr()
        return code, captured.out + captured.err

    def test_member_within_eps_evaluates_and_checks(self, tmp_path, capsys):
        data = self._with_member(self._diag(1 + 1e-7))
        code, out = self._run(data, tmp_path, capsys, "eval")
        assert code == 0 and "P_z+: 1" in out
        rows = dict((p, (ok, why)) for p, ok, why in check_scenario(json.dumps(data)))
        assert rows["$.contexts.Sigma_z"] == (True, None)
        assert rows["$.contexts.Sigma_z/lattice"] == (True, None)
        code, out = self._run(data, tmp_path, capsys, "check")
        assert code == 0

    def test_member_beyond_eps_fails_with_the_same_text(self, tmp_path, capsys):
        data = self._with_member(self._diag(1 + 2e-6))
        text = (
            "$.contexts.Sigma_z[0]: NotAProjector: not idempotent: "
            "max |P^2 - P| entry 2.000e-06 > 1.0e-06"
        )
        with pytest.raises(ValidationFailed) as err:
            scenario_from_data(data)
        assert str(err.value) == text
        rows = dict((p, (ok, why)) for p, ok, why in check_scenario(json.dumps(data)))
        assert rows["$.contexts.Sigma_z"] == (False, f"ValidationFailed: {text}")
        code, out = self._run(data, tmp_path, capsys, "eval")
        assert code != 0 and text in out

    def test_tensor_member_is_validated_at_eps(self):
        data = json.loads(_fixture("env_two_qubit.json"))
        data["eps"] = 1e-6
        off = {"matrix": [[1 + 1e-7, 0], [0, 0]]}
        data["contexts"]["Sigma_A"][0] = {"tensor": [off, {"span": [[0, 1]]}]}
        sc = scenario_from_data(data)
        assert sc.contexts["Sigma_A"].projectors[0].rank == 1
        data["eps"] = 1e-8
        with pytest.raises(ValidationFailed, match=r"entry 1\.000e-07 > 1\.0e-08"):
            scenario_from_data(data)

    def test_default_eps_still_rejects_the_member(self):
        data = self._with_member(self._diag(1 + 1e-7))
        del data["eps"]
        with pytest.raises(ValidationFailed, match=r"1\.000e-07 > 1\.0e-09"):
            scenario_from_data(data)
