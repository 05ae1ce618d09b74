"""The demo scripts run end to end on the bundled networks, and in a fresh
interpreter importing the package and running the CLI's ``check``,
``design`` and ``simulate`` on them, and ``design`` on a graph whose closed
loop is stored as CSR, load no SciPy."""

import json
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


def test_import_check_and_design_load_no_scipy(tmp_path):
    """Importing the package and its CLI, and running ``check`` and
    ``design``, with an explicit V1 and with ``--v1 auto``, and
    ``simulate`` on net_a and on the bundled switching cycle, load no SciPy
    module at all: the coupling bound takes its linear algebra from NumPy,
    the V1 split its strongly connected components from
    ``graph._components``, and these loops are stored dense
    (``protocol._dense``), so their step maps are built in NumPy.  Nor does
    ``design`` on a 10-vertex directed path, whose loop the quarter rule
    stores as CSR: its verification scatters a dense M and builds no CSR
    matrix.  Only a CSR loop's matrix and step maps import
    ``scipy.sparse``, inside the functions that need them."""
    data = ROOT / "src" / "ntconsensus" / "data"
    graph = str(data / "net_a.json")
    path = tmp_path / "path.json"
    edges = [{"from": v, "to": v + 1, "weight": [[2.0, 0.5], [0.5, 1.0]]} for v in range(1, 10)]
    edges.append({"from": 10, "to": 1, "weight": [[-1.0, 0.0], [0.0, -1.0]]})
    path.write_text(json.dumps({"n": 10, "d": 2, "directed": True, "edges": edges}))
    cycle = ["--graphs", graph, str(data / "net_b.json"), str(data / "net_c.json"),
             "--v1", "1,2,3,4;2,3;1,2,3", "--theta", "1,2,-1",
             "--delta", "7.0495", "--delta", "7.2440", "--delta", "3.1",
             "--schedule", str(data / "cycle_schedule.json"), "--T", "0.2"]
    code = (
        "import contextlib, io, sys, ntconsensus\n"
        "from ntconsensus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for v1 in ('1,2,3,4', 'auto'):\n"
        f"        assert cli.main(['check', '--graph', {graph!r}, '--v1', v1]) == 0\n"
        f"        assert cli.main(['design', '--graph', {graph!r}, '--v1', v1,"
        " '--theta', '1,2,-1', '--json']) == 0\n"
        f"    assert cli.main(['design', '--graph', {str(path)!r}, '--v1', '1',"
        " '--theta', '1,-2', '--delta', '2']) == 0\n"
        f"    assert cli.main(['simulate', '--graph', {graph!r}, '--v1', '1,2,3,4',"
        " '--theta', '1,2,-1', '--T', '0.2']) == 0\n"
        f"    assert cli.main(['simulate', *{cycle!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
