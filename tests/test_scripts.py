"""Smoke tests for the command-line scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def _run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_environment_sweep_stays_bivalent():
    rows = _run_script("environment_sweep.py", "--max-env", "2").splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(" Bivalent") for row in rows)


def test_render_diagrams_matches_golden(tmp_path):
    _run_script("render_diagrams.py", "--out-dir", str(tmp_path))
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["classical_limit.dot", "env_two_qubit.dot", "intro_qubit.dot"]
    for name in written:
        assert (tmp_path / name).read_text("utf-8") == (GOLDEN / name).read_text("utf-8")
