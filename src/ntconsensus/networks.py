"""Bundled 7-agent benchmark networks (d = 3) and their standard partitions.

The network data lives only in ``data/<name>.json``; this module names the
networks and holds their standard V1 and the switching-benchmark constants.

``net_a`` is the directed fixed-topology benchmark; ``net_a_weak`` is the same
network with the strong positive weight on the 5 -> 6 edge replaced by a
semi-definite one, which breaks both the definite-path cover and the
in-degree dominance of vertices 5 and 6.  ``net_b`` and ``net_c`` are the two
extra topologies of the switching benchmark, cycled A A B C C with dwell 0.02
by ``data/cycle_schedule.json``, the one copy of that schedule and of its
dwell, which ``SWITCHING_DWELL`` reads.

``net_c``'s standard V1 (1, 2, 3) fails its check on purpose: vertices 4 and 7
are not in-degree dominated, so designing with it by the margin rule raises
``AssumptionViolatedError``.  The V1 that passes, {1, 2, 3, 4, 7}, holds
vertex 4, which has no negative in-edge and so no coupling block; no V1
designs net_c by the margin rule.  Only the switching benchmark's pinned
delta designs it, and (1, 2, 3) stays so that the C it reports is unchanged.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Dict, Tuple

from .fileio import load_graph, load_schedule
from .graph import Decomposition, SignedGraph

# Standard V1 choice per network, and the per-network coupling coefficients
# used by the switching benchmark.
BUNDLED_V1: Dict[str, Tuple[int, ...]] = {
    "net_a": (1, 2, 3, 4),
    "net_a_weak": (1, 2, 3, 4),
    "net_b": (2, 3),
    "net_c": (1, 2, 3),
}
SWITCHING_DELTAS: Dict[str, float] = {"net_a": 7.0495, "net_b": 7.2440, "net_c": 3.1000}


def bundled_graph(name: str) -> SignedGraph:
    if name not in BUNDLED_V1:
        raise KeyError(f"unknown bundled network {name!r}; have {sorted(BUNDLED_V1)}")
    return load_graph(bundled_path(f"{name}.json"))


def bundled_decomposition(name: str) -> Decomposition:
    return Decomposition.of(bundled_graph(name), BUNDLED_V1[name])


def bundled_path(name: str) -> Path:
    """Path to a bundled data file (graph JSON or schedule JSON)."""
    with resources.as_file(resources.files("ntconsensus.data") / name) as p:
        return Path(p)


def __getattr__(name: str) -> float:
    """``SWITCHING_DWELL``, the bundled schedule's dwell, which the switching
    benchmark reads: read from the schedule file on first use, so that
    importing the package opens no file, and kept as a module attribute."""
    if name != "SWITCHING_DWELL":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = load_schedule(bundled_path("cycle_schedule.json")).alpha
    return globals()[name]
