"""Smoke tests: the example scripts run end to end as subprocesses."""

import hashlib
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


def test_alpha_sweep_table_is_pinned(tmp_path):
    # captured from the pointwise fiber sampler; the array sampler must match
    proc = run_script("alpha_sweep.py", "--per-step", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "amplitude  junction sep (mm)  min sample dist (mm)  note\n"
        "     0.00             0.0000                0.5817  junction wires overlap\n"
        "     0.05             1.0000                0.8225  junction wires overlap\n"
        "     0.10             2.0000                0.8225  junction wires overlap\n"
        "     0.15             3.0000                0.8225  \n"
        "     0.20             4.0000                0.8225  \n"
        "     0.25             5.0000                0.8225  \n"
        "     0.30             6.0000                0.8225  \n"
        "     0.40             8.0000                0.8225  \n"
        "     0.50            10.0000                0.8225  \n"
    )


def test_generate_triptych_draft_writes_three_models(tmp_path):
    proc = run_script("generate_triptych.py", "--draft", "--output-dir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.stl")) == ["klein.stl", "roman.stl", "torus.stl"]
    # captured from the script when it built and wrote the models itself
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.stl")} == {
        "torus.stl": "e6a3a4ea3b34bee193876f792988f3453ddbd306e026f655c1847b7d99cb8272",
        "klein.stl": "ec57d70d6dd2f6c9c3036a48fb83d7fe8e0ec61be3a2487c37dd88479fd5260b",
        "roman.stl": "b55669346e1f82599f7f71be9280d55a924f6186e2f800e70b10f585bd9e1c2f",
    }
