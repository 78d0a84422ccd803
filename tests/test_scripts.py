"""Smoke tests: the example scripts run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_alpha_sweep_runs(tmp_path):
    proc = run_script("alpha_sweep.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("amplitude")


def test_generate_triptych_draft_writes_three_models(tmp_path):
    proc = run_script("generate_triptych.py", "--draft", "--output-dir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.stl")) == ["klein.stl", "roman.stl", "torus.stl"]
