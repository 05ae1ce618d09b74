"""JSON / CSV readers and writers for graphs, schedules, and trajectories."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .errors import FileFormatError
from .graph import SignedGraph
from .simulate import SwitchingSchedule, Trajectory

PathLike = Union[str, Path]


def _integer(value: object, name: str) -> int:
    """A JSON integer, or a float with an integral value; anything else is a
    format error rather than a truncated size, vertex id or graph id."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{name} must be an integer, got {value!r}")
    return value


def _boolean(value: object, name: str) -> bool:
    """A JSON boolean; a string such as "false" is a format error, not true."""
    if not isinstance(value, bool):
        raise FileFormatError(f"{name} must be true or false, got {value!r}")
    return value


def load_graph(path: PathLike) -> SignedGraph:
    """Graph file format: {"d", "n", "directed", "edges": [{"from", "to",
    "weight"}]}; "from"/"to" are 1-based, weight is a row-major d x d array
    stored as A[to, from]."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read graph file {path}: {exc}") from exc
    try:
        n = _integer(data["n"], "n")
        d = _integer(data["d"], "d")
        directed = _boolean(data["directed"], "directed")
        edges: Dict[Tuple[int, int], np.ndarray] = {}
        for e in data["edges"]:
            key = (_integer(e["to"], "to"), _integer(e["from"], "from"))
            edges[key] = np.array(e["weight"], dtype=float)
            if edges[key].shape != (d, d):
                raise FileFormatError(
                    f"edge {e['from']}->{e['to']} weight is not {d}x{d}"
                )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed graph file {path}: {exc}") from exc
    return SignedGraph.from_edges(n, d, directed, edges)


def save_graph(g: SignedGraph, path: PathLike) -> None:
    """Write the graph file read by ``load_graph``: edges sorted by (to,
    from), each undirected pair once, as (min, max)."""
    order = np.lexsort((g.tails, g.heads))
    if not g.directed:
        order = order[g.heads[order] < g.tails[order]]
    edges = [
        {"from": j + 1, "to": i + 1, "weight": w.tolist()}
        for i, j, w in zip(g.heads[order].tolist(), g.tails[order].tolist(), g.entries[order])
    ]
    payload = {"d": g.d, "n": g.n, "directed": g.directed, "edges": edges}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_schedule(path: PathLike) -> SwitchingSchedule:
    """Schedule file format: {"alpha", "pattern", "dt": float or [floats],
    "repeat"}."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read schedule file {path}: {exc}") from exc
    try:
        alpha = float(data["alpha"])
        pattern = [_integer(x, "pattern entry") for x in data["pattern"]]
        repeat = _boolean(data.get("repeat", False), "repeat")
        dt = data.get("dt", alpha)
        if isinstance(dt, (int, float)):
            return SwitchingSchedule.uniform(float(dt), pattern, alpha=alpha, repeat=repeat)
        lengths = tuple(float(x) for x in dt)
        if len(lengths) != len(pattern):
            raise FileFormatError("dt list must match the pattern length")
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed schedule file {path}: {exc}") from exc
    return SwitchingSchedule(
        lengths=lengths, graph_ids=tuple(pattern), alpha=alpha, repeat=repeat
    )


def write_trajectory_csv(traj: Trajectory, path: PathLike) -> None:
    """Header t,x1_1,...,xN_d,errnorm; full double precision."""
    cols = [f"x{i}_{k}" for i in range(1, traj.n + 1) for k in range(1, traj.d + 1)]
    header = ",".join(["t"] + cols + ["errnorm"])
    body = np.column_stack([traj.times, traj.states, traj.error_norm])
    row = ",".join(["%.17g"] * body.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for values in body.tolist():
            fh.write(row % tuple(values))


def read_trajectory_csv(path: PathLike) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read trajectory {path}: {exc}") from exc
