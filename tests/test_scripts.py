"""The demo scripts run end to end on the bundled networks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, horizon", [
    ("run_fixed_demo.py", "0.5"),
    ("run_switching_demo.py", "0.2"),
])
def test_demo_writes_outputs(tmp_path, script, horizon):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--T", horizon, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.csv").is_file()
    assert (out / "summary.json").is_file()
