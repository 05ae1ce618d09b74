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


def test_import_check_and_design_load_no_scipy():
    """Importing the package and running ``check`` and ``design``, with an
    explicit V1 and with ``--v1 auto``, load no SciPy module at all: the
    coupling bound takes its linear algebra from NumPy and the V1 split its
    strongly connected components from ``graph._components``; only
    ``simulate`` imports SciPy, inside the functions that need it."""
    graph = str(ROOT / "src" / "ntconsensus" / "data" / "net_a.json")
    code = (
        "import contextlib, io, sys, ntconsensus\n"
        "from ntconsensus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for v1 in ('1,2,3,4', 'auto'):\n"
        f"        assert cli.main(['check', '--graph', {graph!r}, '--v1', v1]) == 0\n"
        f"        assert cli.main(['design', '--graph', {graph!r}, '--v1', v1,"
        " '--theta', '1,2,-1', '--json']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
