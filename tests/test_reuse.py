"""The per-graph store of theta-free values: a second design or run on the
same graph object reuses the design, the closed-loop operator, the full
step's maps and stacks, lambda_min and the augmented Laplacian, and gives
the same bytes as a fresh graph; stored values cannot be written; the maps
keep one step length; entries die with their graph."""

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

from conftest import random_directed_valid, rk4_reference_step, tiled_graph
from reference import affine_loop
from test_acceptance import _switching_setup

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
    # the full step's map, its verdict and stacks are kept, the shortened
    # steps' maps are not
    assert all(len(m) >= 2 and {k[0] for k in m} == {H} for m in maps.values())
    reused = _outputs(graphs, decs, schedule, theta, x, tmp_path)
    # the second request built no full-step map and no stack
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
                closed_loop(g, design).operator.data):
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
    # one run's full step: its verdict, its map and the stack of ten steps;
    # the shortened step's map is not kept
    assert sorted(entry.maps) == [(H, 0), (H, 1), (H, 10)]
    ref = weakref.ref(g)
    del g, entry
    gc.collect()
    assert ref() is None
    assert len(protocol._STORE) == stored


def test_store_keeps_the_maps_of_one_step_length(net_a_dec, rng):
    g = bundled_graph("net_a")
    design = design_fixed(g, net_a_dec, np.array([1.0, 2.0, -1.0]))
    x = rng.uniform(-5, 5, g.n * g.d)
    first = integrate_fixed(g, design, x, h=1e-3, horizon=0.0101)
    # 50 horizons, so 50 shortened steps, for each of 3 step lengths
    for h in (1e-3, 7e-4, 2e-3):
        for k in range(50):
            integrate_fixed(g, design, x, h=h, horizon=0.0101 + k * 1e-5)
    # the verdict, the map and the stack of five steps of the last step length
    assert sorted(protocol._STORE[g].maps) == [(2e-3, 0), (2e-3, 1), (2e-3, 5)]
    # a step length whose maps were dropped is built again, to the same bytes
    again = integrate_fixed(g, design, x, h=1e-3, horizon=0.0101)
    assert again.states.tobytes() == first.states.tobytes()
    assert sorted(protocol._STORE[g].maps) == [(1e-3, 0), (1e-3, 1), (1e-3, 10)]


def test_only_the_stored_design_is_reused(net_a_dec, rng):
    """The store answers only for the design that ``design_fixed`` stored:
    a design built or altered by hand, even one of equal values, and a
    replaced design get values assembled afresh, which are not kept and
    leave the stored entry as it was."""
    g = bundled_graph("net_a")
    theta, x = np.array([1.0, 2.0, -1.0]), rng.uniform(-5, 5, 21)
    design = design_fixed(g, net_a_dec, theta)
    first = integrate_fixed(g, design, x, h=H, horizon=0.0105)
    entry = protocol._STORE[g]
    kept = dict(entry.maps)
    by_hand = dataclasses.replace(design, blocks=design.blocks.copy())
    assert closed_loop(g, by_hand).maps is not entry.maps
    assert integrate_fixed(g, by_hand, x, h=H, horizon=0.0105).states.tobytes() \
        == first.states.tobytes()
    augmented = design_laplacians(g, by_hand)[1].matrix.copy()
    # a hand-built array may change under the same identity
    by_hand.blocks[0] *= 2.0
    assert not np.array_equal(design_laplacians(g, by_hand)[1].matrix, augmented)
    other = dataclasses.replace(design, delta=design.delta + 1.0)
    assert closed_loop(g, other).maps is not closed_loop(g, other).maps
    assert protocol._STORE[g] is entry and entry.maps == kept
    assert closed_loop(g, design).maps is entry.maps
    # a second design_fixed design replaces the entry; the first is not reused
    design_fixed(g, net_a_dec, theta, delta=design.delta + 1.0)
    assert protocol._STORE[g] is not entry
    assert closed_loop(g, design).maps is not closed_loop(g, design).maps


def test_stacks_are_kept_per_step_length(rng):
    """Each stack is kept, read-only, once per (h, m), with the top rows
    of the step map's powers; a new step length drops them, and a run on
    the same graph objects gives the bytes of fresh ones."""
    graphs, sdesign, schedule = _switching_setup(
        *(bundled_graph(name) for name in ("net_a", "net_b", "net_c")))
    x = rng.uniform(-5, 5, 21)
    integrate_switching(schedule, sdesign, graphs, x, h=H, horizon=2.0)
    maps = protocol._STORE[graphs[0]].maps
    kept = {key: maps[key] for key in ((H, 1), (H, 20))}
    step = np.eye(24)
    step[:21] = kept[(H, 1)]
    power = np.eye(24)
    for k in range(20):
        power = step @ power
        row = kept[(H, 20)][k * 21 : (k + 1) * 21]
        assert np.linalg.norm(row - power[:21]) <= 1e-13 * np.linalg.norm(power[:21])
    for stack in kept.values():
        assert stack.shape[1] == 24
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0] = 1.0
    integrate_switching(schedule, sdesign, graphs, -x, h=H, horizon=2.0)
    assert all(maps[key] is stack for key, stack in kept.items())
    # half the step: 40 steps per interval, and the stacks of H are gone
    run = integrate_switching(schedule, sdesign, graphs, x, h=H / 2, horizon=2.0)
    assert sorted(maps) == [(H / 2, 0), (H / 2, 1), (H / 2, 40)]
    fresh, fresh_design, _ = _switching_setup(*(dataclasses.replace(graphs[k]) for k in range(3)))
    again = integrate_switching(schedule, fresh_design, fresh, x, h=H / 2, horizon=2.0)
    assert run.work.passes == again.work.passes == 20
    assert run.states.tobytes() == again.states.tobytes()


def test_hand_built_design_gets_its_own_operator(net_a_dec, rng):
    """A design built by hand gets an operator from its own delta and
    blocks, correct against stage-by-stage RK4 on its augmented Laplacian,
    and writes nothing to the store."""
    g = bundled_graph("net_a")
    design = design_fixed(g, net_a_dec, np.array([1.0, 2.0, -1.0]))
    x = rng.uniform(-5, 5, 21)
    integrate_fixed(g, design, x, h=H, horizon=0.0105)
    entry = protocol._STORE[g]
    kept = dict(entry.maps)
    by_hand = dataclasses.replace(design, delta=1.5 * design.delta, blocks=2.0 * design.blocks)
    traj = integrate_fixed(g, by_hand, x, h=H, horizon=0.0105)
    lap, forcing = affine_loop(g, by_hand)
    for k, step in enumerate([H] * 10 + [0.0105 - 10 * H]):
        x = rk4_reference_step(lap, forcing, x, step)
        assert np.linalg.norm(traj.states[k + 1] - x) <= 1e-13 * np.linalg.norm(x)
    assert protocol._STORE[g] is entry and entry.maps.keys() == kept.keys()
    assert all(entry.maps[key] is value for key, value in kept.items())
