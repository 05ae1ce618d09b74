"""The demo scripts run end to end on the bundled networks, and importing
the package in a fresh interpreter stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script, horizon", [
    ("run_fixed_demo.py", "0.5"),
    ("run_switching_demo.py", "0.2"),
])
def test_demo_writes_outputs(tmp_path, script, horizon):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--T", horizon, "--out", str(out)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.csv").is_file()
    assert (out / "summary.json").is_file()


def test_import_leaves_scipy_sparse_unloaded():
    """scipy.sparse and scipy.sparse.csgraph are imported inside the
    functions that use them, so that importing the package and its CLI
    stays fast; neither may be loaded at import time."""
    code = (
        "import sys, ntconsensus, ntconsensus.cli; "
        "print(sorted(m for m in ('scipy.sparse', 'scipy.sparse.csgraph') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
