"""The per-graph store of theta-free values: a second design or run on the
same graph object reuses the design, the closed-loop operator, the step maps
and stacks, lambda_min and the augmented Laplacian, and gives the same bytes
as a fresh graph; stored values cannot be written; entries die with their
graph."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from ntconsensus import (
    SwitchingSchedule,
    bundled_graph,
    closed_loop,
    contraction_factor,
    design_fixed,
    design_laplacians,
    design_switching,
    integrate_fixed,
    integrate_switching,
    write_trajectory_csv,
)
from ntconsensus import protocol

from conftest import random_directed_valid, tiled_graph

H = 1e-3


def _made(case, rng):
    """Two graphs with their decompositions and a schedule whose interval
    lengths are no multiple of H: dense graphs take several stacks of
    powers per interval, CSR ones one step per piece."""
    if case == "dense":
        made = [random_directed_valid(rng, 7, 3) for _ in range(2)]
        lengths = rng.uniform(0.08, 0.2, 4)
    else:
        made = [tiled_graph(rng, 4) for _ in range(2)]
        lengths = rng.uniform(0.02, 0.05, 4)
    schedule = SwitchingSchedule(
        lengths=tuple(lengths.tolist()), graph_ids=(0, 1, 1, 0),
        alpha=float(lengths.min()), repeat=True,
    )
    return {k: g for k, (g, _) in enumerate(made)}, {k: d for k, (_, d) in enumerate(made)}, schedule


def _outputs(graphs, decs, schedule, theta, x, tmp_path):
    """Every output of a fixed and a switching request on ``graphs``, as
    bytes or exact values."""
    sdesign = design_switching(graphs, decs, theta, alpha=schedule.alpha)
    # 30 full steps and a shortened one
    fixed = integrate_fixed(graphs[0], sdesign.designs[0], x, h=H, horizon=30.5 * H)
    run = integrate_switching(schedule, sdesign, graphs, x, h=H, horizon=1.6 * schedule.period)
    path = tmp_path / "run.csv"
    write_trajectory_csv(run, path)
    return {
        "designs": json.dumps({k: d.to_dict() for k, d in sdesign.designs.items()}),
        "fixed": [a.tobytes() for a in (fixed.times, fixed.states, fixed.error_norm)],
        "switching": [a.tobytes() for a in (run.times, run.states, run.error_norm)],
        "csv": path.read_bytes(),
        "lmin": contraction_factor(sdesign, graphs).per_graph_lmin,
        "augmented": [design_laplacians(graphs[k], d)[1].matrix.tobytes()
                      for k, d in sorted(sdesign.designs.items())],
    }


@pytest.mark.parametrize("case", ["dense", "csr"])
def test_second_request_matches_a_fresh_graph(case, tmp_path):
    rng = np.random.default_rng(2024 if case == "dense" else 2025)
    graphs, decs, schedule = _made(case, rng)
    n3 = graphs[0].n * 3
    _outputs(graphs, decs, schedule, rng.uniform(-2, 2, 3), rng.uniform(-5, 5, n3), tmp_path)
    theta, x = rng.uniform(-2, 2, 3), rng.uniform(-5, 5, n3)
    maps = {gid: dict(protocol._STORE[g].maps) for gid, g in graphs.items()}
    # the shortened steps' maps are among those kept
    assert all(len(m) > 3 for m in maps.values())
    reused = _outputs(graphs, decs, schedule, theta, x, tmp_path)
    # the second request built no map and no stack
    for gid, g in graphs.items():
        assert protocol._STORE[g].maps.keys() == maps[gid].keys()
        assert all(protocol._STORE[g].maps[k] is v for k, v in maps[gid].items())
    fresh = {gid: dataclasses.replace(g) for gid, g in graphs.items()}
    assert reused == _outputs(fresh, decs, schedule, theta, x, tmp_path)


def test_stored_values_are_read_only(net_a_dec):
    g = bundled_graph("net_a")
    design = design_fixed(g, net_a_dec, np.array([1.0, 2.0, -1.0]))
    for arr in (g.heads, g.tails, g.entries, g.classes,
                design.blocks, design.informed, design_laplacians(g, design)[1].matrix,
                closed_loop(g, design).laplacian.data):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    before = dict(design.per_vertex_c)
    design.per_vertex_c[1] = -1.0
    assert design_fixed(g, net_a_dec, np.array([3.0, 1.0, 2.0])).per_vertex_c == before


def test_store_holds_one_design_per_graph_and_dies_with_it(rng):
    g, dec = random_directed_valid(rng, 6, 3)
    gc.collect()
    stored = len(protocol._STORE)
    theta, x = np.ones(3), rng.uniform(-5, 5, 18)
    entries = []
    for delta in np.linspace(1.0, 50.0, 50):
        design = design_fixed(g, dec, theta, delta=delta)
        integrate_fixed(g, design, x, h=H, horizon=0.0105)
        design_laplacians(g, design)
        entries.append(weakref.ref(protocol._STORE[g]))
    gc.collect()
    assert len(protocol._STORE) == stored + 1
    entry = protocol._STORE[g]
    assert entry is entries[-1]() and entry.design[0] == 50.0
    assert all(ref() is None for ref in entries[:-1])
    # one run's step maps: S(A) and P for the full and the shortened step,
    # and the stack of ten full steps
    short = 0.0105 - 10 * H
    assert sorted(entry.maps) == sorted([(H, 0), (H, 1), (H, 10), (short, 0), (short, 1)])
    ref = weakref.ref(g)
    del g, entry
    gc.collect()
    assert ref() is None
    assert len(protocol._STORE) == stored
