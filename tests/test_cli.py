"""Command-line behaviour: outputs, exit codes, determinism, JSON schema."""

import json
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from qprop import parse_scenario
from qprop.cli import main, run_demo, run_diagram

FIXTURES = resources.files("qprop").joinpath("scenarios")
SCHEMA = json.loads(
    resources.files("qprop").joinpath("report_schema.json").read_text("utf-8")
)


GOLDEN = Path(__file__).parent / "golden"
DEMOS = ["intro", "environment", "classical-limit"]
BUNDLED = ["intro_qubit", "env_two_qubit", "classical_limit"]


def _fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def _validate(report: dict) -> None:
    jsonschema.validate(report, SCHEMA)


class TestEval:
    def test_intro_table(self, capsys):
        code = main(["eval", _fixture_path("intro_qubit.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "P_z+: 1" in out
        assert "P_z-: 0" in out
        assert "P_x+: 0/0" in out
        assert "P_x-: 0/0" in out

    def test_gap_is_not_a_failure(self, capsys):
        assert main(["eval", _fixture_path("intro_qubit.json")]) == 0

    def test_env_conjunction_false(self, capsys):
        code = main(["eval", _fixture_path("env_two_qubit.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "P_Sx+&E1z+: 0" in out
        assert "P_Sx+_lifted: 0/0" in out

    def test_json_report_matches_schema(self, capsys):
        code = main(["eval", _fixture_path("intro_qubit.json"), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        _validate(report)
        rows = {r["name"]: r for r in report["rows"]}
        assert rows["P_x+"]["value"] is None
        assert rows["P_x+"]["status"] == "gap"
        assert rows["P_x+"]["rendered"] == "0/0"
        assert rows["P_z+"]["value"] is True

    def test_missing_file_is_io_error(self, capsys):
        assert main(["eval", "/nonexistent/path.json"]) == 2

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = json.loads(Path(_fixture_path("intro_qubit.json")).read_text())
        data["contexts"]["oops"] = [{"span": [[1, 0]]}]
        bad.write_text(json.dumps(data))
        assert main(["eval", str(bad)]) == 1
        assert "Incomplete" in capsys.readouterr().err


class TestDemos:
    @pytest.mark.parametrize("name", ["intro", "environment", "classical-limit"])
    def test_demo_runs(self, name, capsys):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert out

    def test_intro_demo_content(self, capsys):
        main(["demo", "intro"])
        out = capsys.readouterr().out
        assert "P_x+: 0/0" in out
        assert "distributive law fails" in out
        assert "P_x+ ∨ ¬P_x+: 1" in out

    def test_environment_demo_content(self, capsys):
        main(["demo", "environment"])
        out = capsys.readouterr().out
        assert "isolated-system value: 0/0" in out
        assert "post status: Bivalent" in out

    def test_classical_limit_demo_content(self, capsys):
        main(["demo", "classical-limit"])
        out = capsys.readouterr().out
        assert "8 elements" in out
        assert "within each block all pairs commute: yes" in out
        assert "every cross-block nontrivial pair fails the condition: yes" in out

    @pytest.mark.parametrize("name", ["intro", "environment", "classical-limit"])
    def test_demo_json_matches_schema(self, name, capsys):
        assert main(["demo", name, "--json"]) == 0
        _validate(json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("name", ["intro", "environment", "classical-limit"])
    def test_demo_deterministic_in_process(self, name):
        assert run_demo(name, None, False) == run_demo(name, None, False)
        assert run_demo(name, None, True) == run_demo(name, None, True)

    def test_classical_limit_commutator_honours_eps(self, capsys):
        assert main(["demo", "classical-limit", "--json", "--eps", "0.6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pairs_agreeing_with_commutator"] == 40
        assert report["total_pairs"] == 64


class TestDiagram:
    def test_intro_two_lattices(self, capsys):
        assert main(["diagram", _fixture_path("intro_qubit.json")]) == 0
        dot = capsys.readouterr().out
        assert dot.count("[label=") == 8
        assert dot.count("->") == 8
        assert 'label="P_z+", shape=square, style=filled' in dot
        assert 'label="P_x+", shape=circle]' in dot

    def test_env_sixteen_node_lattice(self, capsys):
        assert main(["diagram", _fixture_path("env_two_qubit.json")]) == 0
        dot = capsys.readouterr().out
        assert dot.count("[label=") == 16
        assert dot.count("->") == 32
        assert 'label="P_Sz+&E1z-", shape=square' in dot

    def test_exclude_trivials_re_reduces(self, capsys):
        assert (
            main(
                [
                    "diagram",
                    _fixture_path("intro_qubit.json"),
                    "--include-trivials=false",
                ]
            )
            == 0
        )
        dot = capsys.readouterr().out
        assert dot.count("[label=") == 4
        assert dot.count("->") == 0

    def test_cluster_blocks_pastes(self, capsys):
        assert (
            main(
                [
                    "diagram",
                    _fixture_path("classical_limit.json"),
                    "--cluster-blocks",
                ]
            )
            == 0
        )
        dot = capsys.readouterr().out
        assert dot.count("[label=") == 8
        assert dot.count("subgraph cluster_") == 3

    def test_out_file(self, tmp_path):
        out = tmp_path / "d.dot"
        assert (
            main(["diagram", _fixture_path("intro_qubit.json"), "--out", str(out)]) == 0
        )
        assert out.read_text("utf-8").startswith("digraph")

    def test_file_name_that_is_not_a_dot_identifier(self, tmp_path, capsys):
        path = tmp_path / "2intro.v1.json"
        path.write_text(Path(_fixture_path("intro_qubit.json")).read_text("utf-8"), "utf-8")
        assert main(["diagram", str(path)]) == 0
        head, body = capsys.readouterr().out.split("\n", 1)
        assert head == 'digraph "2intro.v1" {'
        assert body == (GOLDEN / "intro_qubit.dot").read_text("utf-8").split("\n", 1)[1]

    @pytest.mark.parametrize("cluster", [False, True], ids=["default", "cluster"])
    @pytest.mark.parametrize("scenario", BUNDLED)
    def test_builds_each_lattice_once(self, scenario, cluster, monkeypatch):
        import qprop.cli
        import qprop.lattices

        built = Counter()
        real = qprop.lattices.lattice_of

        def counting(ctx, tol=None):
            built[ctx.label] += 1
            return real(ctx, tol)

        monkeypatch.setattr(qprop.lattices, "lattice_of", counting)
        monkeypatch.setattr(qprop.cli, "lattice_of", counting)
        text = Path(_fixture_path(f"{scenario}.json")).read_text("utf-8")
        run_diagram(scenario, text, None, True, cluster)
        assert built == Counter(dict.fromkeys(parse_scenario(text).contexts, 1))

    def test_matches_golden_file(self):
        name, text = "intro_qubit", Path(_fixture_path("intro_qubit.json")).read_text()
        golden = Path(__file__).parent / "golden" / "intro_qubit.dot"
        assert run_diagram(name, text, None, True, False) == golden.read_text("utf-8")


class TestGoldenOutput:
    """Demo and diagram output, byte for byte, against the committed golden files."""

    CASES = [
        *[(["demo", d], f"demo_{d}.txt") for d in DEMOS],
        *[(["demo", d, "--json"], f"demo_{d}.json") for d in DEMOS],
        *[(["diagram", _fixture_path(f"{s}.json")], f"{s}.dot") for s in BUNDLED],
        *[
            (["diagram", _fixture_path(f"{s}.json"), "--cluster-blocks"], f"{s}.cluster.dot")
            for s in BUNDLED
        ],
        *[
            (["eval", _fixture_path(f"{s}.json"), "--json", "--eps", e], f"eval_{s}.eps{e}.json")
            for s in BUNDLED
            for e in ("1e-6", "0.6")
        ],
        *[
            (
                ["diagram", _fixture_path(f"{s}.json"), "--eps", e, *flag],
                f"{s}.eps{e}{suffix}.dot",
            )
            for s in BUNDLED
            for e in ("0.3", "0.6")
            for flag, suffix in (([], ""), (["--cluster-blocks"], ".cluster"))
        ],
    ]

    @pytest.mark.parametrize("argv, golden", CASES, ids=[g for _, g in CASES])
    def test_output_matches_golden(self, argv, golden, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text("utf-8")


class TestCheck:
    @pytest.mark.parametrize(
        "name", ["intro_qubit.json", "env_two_qubit.json", "classical_limit.json"]
    )
    def test_bundled_scenarios_pass(self, name, capsys):
        assert main(["check", _fixture_path(name)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_broken_scenario_fails_with_reason(self, tmp_path, capsys):
        data = json.loads(Path(_fixture_path("intro_qubit.json")).read_text())
        data["contexts"]["bad"] = [{"span": [[1, 0]]}]
        f = tmp_path / "broken.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "Incomplete" in out and "trace" in out

    def test_check_json_matches_schema(self, capsys):
        assert main(["check", _fixture_path("intro_qubit.json"), "--json"]) == 0
        _validate(json.loads(capsys.readouterr().out))


class TestEpsResolution:
    def test_env_var_used(self, capsys, monkeypatch):
        monkeypatch.setenv("QPROP_EPS", "1e-06")
        main(["eval", _fixture_path("intro_qubit.json")])
        assert "eps 1e-06" in capsys.readouterr().out

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QPROP_EPS", "1e-06")
        main(["eval", _fixture_path("intro_qubit.json"), "--eps", "1e-07"])
        assert "eps 1e-07" in capsys.readouterr().out

    def test_scenario_field_wins(self, tmp_path, capsys):
        data = json.loads(Path(_fixture_path("intro_qubit.json")).read_text())
        data["eps"] = 1e-08
        f = tmp_path / "eps.json"
        f.write_text(json.dumps(data))
        main(["eval", str(f), "--eps", "1e-05"])
        assert "eps 1e-08" in capsys.readouterr().out

    def test_bad_env_var_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("QPROP_EPS", "tiny")
        assert main(["eval", _fixture_path("intro_qubit.json")]) == 1

    @staticmethod
    def _run_with_eps(source, value, monkeypatch, command=("demo", "intro")):
        if source == "flag":
            return main([*command, f"--eps={value}"])
        monkeypatch.setenv("QPROP_EPS", value)
        return main(list(command))

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_eps_is_validation_error(self, source, value, capsys, monkeypatch):
        assert self._run_with_eps(source, value, monkeypatch) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "--eps" if source == "flag" else "QPROP_EPS"
        assert f"{name}: tolerance must be finite, got {value}" in captured.err

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", [("demo", "intro"), ("eval",)])
    def test_zero_eps_reports_the_default_it_computes_with(
        self, source, command, capsys, monkeypatch
    ):
        if command == ("eval",):
            command = ("eval", _fixture_path("intro_qubit.json"))
        assert self._run_with_eps(source, "0", monkeypatch, command) == 0
        out = capsys.readouterr().out
        assert "eps 1e-09" in out
        assert "eps 0.0" not in out

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_scenario_eps_is_rejected(self, value, tmp_path, capsys):
        text = Path(_fixture_path("intro_qubit.json")).read_text()
        f = tmp_path / "eps.json"
        f.write_text(text.replace("{", f'{{"eps": {value}, ', 1))
        assert main(["eval", str(f)]) == 1
        assert "eps must be a positive finite number" in capsys.readouterr().err


class TestOutputDeterminism:
    def test_eval_byte_identical(self):
        from qprop.cli import run_eval

        text = Path(_fixture_path("intro_qubit.json")).read_text("utf-8")
        assert run_eval("intro_qubit", text, None, False) == run_eval(
            "intro_qubit", text, None, False
        )
        assert run_eval("intro_qubit", text, None, True) == run_eval(
            "intro_qubit", text, None, True
        )

    def test_diagram_byte_identical(self):
        text = Path(_fixture_path("env_two_qubit.json")).read_text("utf-8")
        assert run_diagram("env", text, None, True, False) == run_diagram(
            "env", text, None, True, False
        )

    def test_check_byte_identical(self):
        from qprop.cli import run_check

        text = Path(_fixture_path("classical_limit.json")).read_text("utf-8")
        assert run_check("classical_limit", text, False) == run_check(
            "classical_limit", text, False
        )


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qprop", "demo", "intro"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "distributive law fails" in proc.stdout
