"""The per-graph store of theta-free values: a second design or run on the
same graph object reuses the design, the closed loop's augmented Laplacian
M, the full step's maps and stacks, the kept pass of a repeating schedule
and lambda_min, and gives the same bytes as a fresh graph;
stored values cannot be written; the maps keep one step length; entries die
with their graph."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from ntconsensus import (
    Decomposition,
    SwitchingDesign,
    SwitchingSchedule,
    bundled_graph,
    bundled_path,
    closed_loop,
    contraction_factor,
    design_fixed,
    design_laplacians,
    design_switching,
    integrate_fixed,
    integrate_switching,
    load_schedule,
    write_trajectory_csv,
)
from ntconsensus import protocol, simulate
from ntconsensus.errors import DimensionMismatchError
from ntconsensus.networks import BUNDLED_V1, SWITCHING_DELTAS

from conftest import random_directed_valid, rk4_reference_step, tiled_graph
from reference import affine_loop, piece_chain, schedule_intervals, span_layout
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
    op = closed_loop(g, design).matrix  # dense, or CSR with its values in .data
    for arr in (g.heads, g.tails, g.entries, g.classes,
                design.blocks, design.informed, design_laplacians(g, design)[1].matrix,
                op if isinstance(op, np.ndarray) else op.data):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    before = dict(design.per_vertex_c)
    design.per_vertex_c[1] = -1.0
    assert design_fixed(g, net_a_dec, np.array([3.0, 1.0, 2.0])).per_vertex_c == before


def test_dense_loop_keeps_its_laplacian_pair(net_a_dec, tiled):
    """A stored dense loop keeps the pair that design_laplacians returns:
    a second call gives the same objects, wrapping the loop's own M.  A
    loop that the quarter rule stores as CSR, and a design built by hand,
    get a fresh scatter on every call, of the same bytes."""
    theta = np.array([1.0, 2.0, -1.0])
    g = bundled_graph("net_a")
    design = design_fixed(g, net_a_dec, theta)
    pair = design_laplacians(g, design)
    again = design_laplacians(g, design)
    assert again[0] is pair[0] and again[1] is pair[1]
    assert pair[1].matrix is closed_loop(g, design).matrix
    big = dataclasses.replace(tiled[0])
    fresh = ((g, dataclasses.replace(design, blocks=design.blocks.copy())),
             (big, design_fixed(big, tiled[1], theta)))
    for graph, made in fresh:
        first, second = design_laplacians(graph, made), design_laplacians(graph, made)
        for a, b in zip(first, second):
            assert a is not b and not np.shares_memory(a.matrix, b.matrix)
            assert a.matrix.tobytes() == b.matrix.tobytes()
    assert protocol._STORE[big].laplacians is None
    assert design_laplacians(g, design)[1] is pair[1]


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


def test_closed_loop_of_the_stored_design_is_the_store_entry(net_a_dec, rng, monkeypatch):
    """closed_loop gives the stored design g's store entry itself, kept; a
    design built by hand and a replaced design get a fresh loop that is
    neither kept nor stored, and that dies with its run."""
    g = bundled_graph("net_a")
    theta, x = np.array([1.0, 2.0, -1.0]), rng.uniform(-5, 5, 21)
    design = design_fixed(g, net_a_dec, theta)
    loop = closed_loop(g, design)
    assert loop is protocol._STORE[g] and loop.kept and closed_loop(g, design) is loop
    made = []

    def traced(graph, d):
        run_loop = closed_loop(graph, d)
        made.append((run_loop.kept, run_loop is protocol._STORE[graph], weakref.ref(run_loop)))
        return run_loop

    monkeypatch.setattr(simulate, "closed_loop", traced)
    by_hand = dataclasses.replace(design, blocks=design.blocks.copy())
    for run_design, replace in ((design, False), (by_hand, False), (design, True)):
        if replace:
            design_fixed(g, net_a_dec, theta, delta=design.delta + 1.0)
        integrate_fixed(g, run_design, x, h=H, horizon=0.0105)
        kept, stored, run_loop = made.pop()
        assert kept == stored == (run_design is design and not replace)
        assert (run_loop() is loop) == stored and (run_loop() is None) != stored
    assert protocol._STORE[g] is not loop


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
    # half the step: 40 steps per interval, and the stacks and the kept
    # pass of H are gone
    run = integrate_switching(schedule, sdesign, graphs, x, h=H / 2, horizon=2.0)
    assert set(maps) == {(H / 2, 0), (H / 2, 1), (H / 2, 40), (H / 2, "pass")}
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


NAMES = ("net_a", "net_b", "net_c")


def _cycle():
    """The bundled cycle on fresh graph objects, whose maps no other test
    has kept, with their decompositions and a designer of the pinned
    coefficients, any of which ``deltas`` overrides."""
    schedule = load_schedule(bundled_path("cycle_schedule.json"))
    graphs = {k: bundled_graph(name) for k, name in enumerate(NAMES)}
    decs = {k: Decomposition.of(g, BUNDLED_V1[NAMES[k]]) for k, g in graphs.items()}

    def design(theta, **deltas):
        pinned = {k: deltas.get(name, SWITCHING_DELTAS[name]) for k, name in enumerate(NAMES)}
        return design_switching(graphs, decs, theta, alpha=schedule.alpha, deltas=pinned)

    return graphs, design, schedule


def _kept(graphs, h=H):
    """The kept pass piece of the bundled cycle: in the maps of net_a, the
    graph of its first span, after the pass kinds and operators that key
    it."""
    return protocol._STORE[graphs[0]].maps[(h, "pass")][2]


def _close_to_the_piece_chain(run, graphs, sdesign, schedule, h, horizon):
    """Whether the run's states are within 1e-13 relative per sample of
    the interval-by-interval piece chain of its schedule."""
    systems = {k: affine_loop(graphs[k], d) for k, d in sdesign.designs.items()}
    kinds = span_layout(list(schedule_intervals(schedule, horizon)), h,
                        len(schedule.graph_ids))[1]
    want = piece_chain(systems, kinds, run.states[0], h, dense=True)
    rel = np.linalg.norm(run.states - want, axis=1) / np.linalg.norm(want, axis=1)
    return run.states.shape == want.shape and rel.max() <= 1e-13


def test_kept_pass_is_reused_across_theta_and_x(rng):
    """A second run of the bundled cycle, with another theta and x_init,
    steps its passes by the stack W and the powers Pw that the first kept,
    read-only, and gives the bytes of a run on fresh graph objects."""
    graphs, design, schedule = _cycle()
    integrate_switching(schedule, design(rng.uniform(-2, 2, 3)), graphs,
                        rng.uniform(-5, 5, 21), h=H, horizon=2.0)
    kept = _kept(graphs)
    # W: the 100 samples of a pass; Pw: M^1 ... M^19 for the 20 passes
    assert kept.stack.shape == (100 * 21, 24) and kept.powers.shape == (19 * 21, 24)
    for arr in (kept.stack, kept.powers):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    theta, x = rng.uniform(-2, 2, 3), rng.uniform(-5, 5, 21)
    sdesign = design(theta)
    run = integrate_switching(schedule, sdesign, graphs, x, h=H, horizon=2.0)
    assert _kept(graphs) is kept
    assert _kept(graphs).stack is kept.stack and _kept(graphs).powers is kept.powers
    assert run.work == simulate.Work(chain=1, passes=20, fills=1)
    assert _close_to_the_piece_chain(run, graphs, sdesign, schedule, H, 2.0)
    fresh, fresh_design, _ = _cycle()
    again = integrate_switching(schedule, fresh_design(theta), fresh, x, h=H, horizon=2.0)
    assert _kept(fresh) is not kept
    assert run.states.tobytes() == again.states.tobytes()
    assert run.error_norm.tobytes() == again.error_norm.tobytes()


def test_kept_pass_follows_the_step_and_every_design(rng):
    """A new step length drops the kept pass with the maps; a new delta on
    net_b alone, a graph that the pass's first span does not run on,
    forces a rebuild; each rebuilt pass steps correctly."""
    graphs, design, schedule = _cycle()
    x, theta = rng.uniform(-5, 5, 21), rng.uniform(-2, 2, 3)
    first = integrate_switching(schedule, design(theta), graphs, x, h=H, horizon=2.0)
    kept = _kept(graphs)
    integrate_switching(schedule, design(theta), graphs, x, h=H / 2, horizon=2.0)
    maps = protocol._STORE[graphs[0]].maps
    assert (H, "pass") not in maps and _kept(graphs, H / 2).stack.shape == (200 * 21, 24)
    back = integrate_switching(schedule, design(theta), graphs, x, h=H, horizon=2.0)
    assert _kept(graphs) is not kept
    assert back.states.tobytes() == first.states.tobytes()
    kept = _kept(graphs)
    entries = [protocol._STORE[g] for g in graphs.values()]
    sdesign = design(theta, net_b=SWITCHING_DELTAS["net_b"] + 1.0)
    assert [protocol._STORE[g] is e for g, e in zip(graphs.values(), entries)] \
        == [True, False, True]
    run = integrate_switching(schedule, sdesign, graphs, x, h=H, horizon=2.0)
    assert _kept(graphs) is not kept and _kept(graphs).stack is not kept.stack
    assert not np.array_equal(run.states, first.states)
    assert _close_to_the_piece_chain(run, graphs, sdesign, schedule, H, 2.0)


def test_hand_built_designs_keep_no_pass(rng):
    """A switching design with a hand-built design on any graph of the
    pattern gets a pass built for the run, which is not kept: the store's
    maps stay as they were, key for key and object for object, and the
    states are the bytes of the stored designs' run."""
    graphs, design, schedule = _cycle()
    theta, x = rng.uniform(-2, 2, 3), rng.uniform(-5, 5, 21)
    sdesign = design(theta)
    stored = integrate_switching(schedule, sdesign, graphs, x, h=H, horizon=2.0)
    kept = [dict(protocol._STORE[g].maps) for g in graphs.values()]
    for hand in ({1}, {0}, {0, 1, 2}):
        by_hand = SwitchingDesign(designs={
            k: dataclasses.replace(d, blocks=d.blocks.copy()) if k in hand else d
            for k, d in sdesign.designs.items()}, alpha=sdesign.alpha)
        run = integrate_switching(schedule, by_hand, graphs, x, h=H, horizon=2.0)
        assert run.work.passes == 20
        assert run.states.tobytes() == stored.states.tobytes()
        for g, maps in zip(graphs.values(), kept):
            assert protocol._STORE[g].maps.keys() == maps.keys()
            assert all(protocol._STORE[g].maps[key] is value for key, value in maps.items())


def test_passes_past_the_pw_cap_go_block_by_block(net_a_dec, rng):
    """Where a plan has more passes than Pw holds, the passes go in blocks,
    each from the last sample of the one before, and agree with the piece
    chain: net_a alone, in dwells of four steps, so that W is small and
    Pw's cap is reached within a few thousand steps."""
    g = bundled_graph("net_a")
    schedule = SwitchingSchedule.uniform(4 * H, [0], repeat=True)
    sdesign = design_switching({0: g}, {0: net_a_dec}, rng.uniform(-2, 2, 3), alpha=4 * H)
    cap = 1 + (simulate.PASS_BYTES - 4 * 21 * 24 * 8) // (21 * 24 * 8)
    horizon = (cap + 40) * 4 * H
    run = integrate_switching(schedule, sdesign, {0: g}, rng.uniform(-5, 5, 21), h=H,
                              horizon=horizon)
    assert simulate._plan(schedule, horizon, H).passes == cap + 40
    assert len(protocol._STORE[g].maps[(H, "pass")][2].powers) == (cap - 1) * 21
    assert run.work == simulate.Work(chain=2, passes=cap + 40, fills=2)
    assert _close_to_the_piece_chain(run, {0: g}, sdesign, schedule, H, horizon)


def test_rejected_switching_call_keeps_the_maps(rng):
    """A switching call that its checks refuse, a step above a quarter of
    the dwell time or designs of differing theta, builds no step map, so
    the kept maps and pass of the step length in use stay, key for key and
    object for object.  design_switching gives every design one theta
    array; designs from separate design_fixed calls hold separate arrays,
    which pass the check when their values are equal, and run to the bytes
    of design_switching's run."""
    graphs, design, schedule = _cycle()
    theta, x = rng.uniform(-2, 2, 3), rng.uniform(-5, 5, 21)
    sdesign = design(theta)
    shared = integrate_switching(schedule, sdesign, graphs, x, h=H, horizon=2.0)
    maps = protocol._STORE[graphs[0]].maps
    kept = dict(maps)
    assert set(kept) == {(H, 0), (H, 1), (H, 20), (H, "pass")}

    def by_design_fixed(thetas):
        return SwitchingDesign(designs={
            k: design_fixed(g, Decomposition.of(g, BUNDLED_V1[NAMES[k]]), thetas[k],
                            delta=SWITCHING_DELTAS[NAMES[k]])
            for k, g in graphs.items()}, alpha=sdesign.alpha)

    equal = by_design_fixed([theta.copy() for _ in graphs])
    assert equal.designs[0].theta is not equal.designs[1].theta
    run = integrate_switching(schedule, equal, graphs, x, h=H, horizon=2.0)
    assert run.times.tobytes() == shared.times.tobytes()
    assert run.states.tobytes() == shared.states.tobytes()
    with pytest.raises(DimensionMismatchError, match="quarter of the dwell time"):
        integrate_switching(schedule, sdesign, graphs, x, h=6e-3, horizon=2.0)
    other = SwitchingDesign(designs={**sdesign.designs, 1: dataclasses.replace(
        sdesign.designs[1], theta=-theta)}, alpha=sdesign.alpha)
    with pytest.raises(DimensionMismatchError, match="needs one theta"):
        integrate_switching(schedule, other, graphs, x, h=2e-3, horizon=2.0)
    with pytest.raises(DimensionMismatchError, match="graph 2's design has theta"):
        integrate_switching(schedule, by_design_fixed([theta, theta, theta + 1.0]), graphs, x,
                            h=2e-3, horizon=2.0)
    assert maps.keys() == kept.keys()
    assert all(maps[key] is value for key, value in kept.items())


def test_dwell_below_the_design_rejected_keeping_the_maps(rng):
    """A schedule whose dwell time is below the design's is refused before
    any step map is built, since the design's contraction factor is a bound
    per dwell of its own length: the kept maps and pass stay, key for key
    and object for object.  A longer dwell than the design's runs."""
    graphs, design, schedule = _cycle()
    theta, x = rng.uniform(-2, 2, 3), rng.uniform(-5, 5, 21)
    sdesign = design(theta)
    integrate_switching(schedule, sdesign, graphs, x, h=H, horizon=2.0)
    maps = protocol._STORE[graphs[0]].maps
    kept = dict(maps)
    slow = dataclasses.replace(sdesign, alpha=1.0)
    with pytest.raises(DimensionMismatchError, match="dwell time 0.02 is below the design's 1"):
        integrate_switching(schedule, slow, graphs, x, h=H, horizon=2.0)
    assert maps.keys() == kept.keys()
    assert all(maps[key] is value for key, value in kept.items())
    fast = dataclasses.replace(sdesign, alpha=0.01)
    run = integrate_switching(schedule, fast, graphs, x, h=H, horizon=2.0)
    assert run.work.passes == 20
