"""Self-tests of the benchmark: generators, oracle, tracer and metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nets  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ntconsensus import graph, networks, protocol, simulate, spectral  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
THETA = np.array([1.0, -2.0, 0.5])


def _bases():
    return {b: nets.load_raw_edges(networks.bundled_path(f"{b}.json"))[1]
            for b in nets.TILE_BASES}


def _same(a: nets.Network, b: nets.Network) -> bool:
    return (a.n == b.n and a.v1 == b.v1 and a.edges.keys() == b.edges.keys()
            and all(np.array_equal(a.edges[k], b.edges[k]) for k in a.edges))


def test_generators_are_deterministic():
    for k in range(5):
        assert _same(nets.forest_network(7, k), nets.forest_network(7, k))
    assert not _same(nets.forest_network(7, 0), nets.forest_network(8, 0))
    bases = _bases()
    assert _same(nets.tiled_network(7, 1, bases, 4), nets.tiled_network(7, 1, bases, 4))
    assert np.array_equal(nets.draw_theta(nets.request_rng(7, 3)),
                          nets.draw_theta(nets.request_rng(7, 3)))


def test_forest_vertex_ids_are_python_ints():
    net = nets.forest_network(3, 0)
    assert all(type(i) is int and type(j) is int for i, j in net.edges)
    assert all(type(v) is int for v in net.v1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_auto_decomposition_returns_generator_v1(seed):
    for k in range(15):
        net = nets.forest_network(seed, k)
        g = graph.SignedGraph.from_edges(net.n, nets.D, True, net.edges)
        assert graph.suggest_decomposition(g).v1 == net.v1


def test_tiled_network_passes_decomposition_check():
    net = nets.tiled_network(5, 0, _bases(), 6)
    g = graph.SignedGraph.from_edges(net.n, nets.D, True, net.edges)
    assert graph.verify_assumption(g, graph.Decomposition.of(g, net.v1)).ok


def _fixed_run():
    net = nets.tiled_network(5, 0, _bases(), 3)
    g = graph.SignedGraph.from_edges(net.n, nets.D, True, net.edges)
    design = protocol.design_fixed(g, graph.Decomposition.of(g, net.v1), THETA)
    x_init = np.random.default_rng(0).uniform(-5.0, 5.0, net.n * nets.D)
    traj = simulate.integrate_fixed(g, design, x_init, h=1e-3, horizon=0.1)
    return net, design, x_init, traj


def test_oracle_accepts_rk4_and_rejects_perturbed_final_state():
    import scipy.sparse

    net, design, x_init, traj = _fixed_run()
    lap = scipy.sparse.csr_matrix(oracle.grounded_laplacian(net.n, nets.D, net.edges,
                                                            design.delta))
    want = oracle.exact_fixed(lap, np.tile(THETA, net.n), x_init, traj.times[-1])
    oracle.check_state(traj.states[-1], want, "final")
    bumped = traj.states[-1].copy()
    bumped[7] += 1e-6
    with pytest.raises(oracle.Mismatch):
        oracle.check_state(bumped, want, "final")


def test_oracle_bound_matches_package_and_rejects_wrong_c():
    net, design, _, _ = _fixed_run()
    oracle.check_bound(design.per_vertex_c, design.bound_c, net.edges, net.v1)
    wrong = dict(design.per_vertex_c)
    first = min(wrong)
    wrong[first] *= 1.0 + 1e-6
    with pytest.raises(oracle.Mismatch):
        oracle.check_bound(wrong, max(wrong.values()), net.edges, net.v1)


def test_tracer_patches_every_binding_and_restores_them():
    original = spectral.eigenvalues_sorted
    assert protocol.eigenvalues_sorted is original
    from_edges = vars(graph.SignedGraph)["from_edges"]
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert protocol.eigenvalues_sorted is not original
        assert spectral.eigenvalues_sorted is not original
        assert vars(graph.SignedGraph)["from_edges"] is not from_edges
        _fixed_run()
    finally:
        tracer.remove()
    assert protocol.eigenvalues_sorted is original
    assert vars(graph.SignedGraph)["from_edges"] is from_edges
    m = tracer.metrics(1, 1.0)
    assert m["graph.from_edges.busy_s"] > 0
    assert m["simulate.rk4_steps"] == 100
    assert m["protocol.design_fixed.self_s"] > 0
    assert set(m) == {name for name, _ in tracing.PER_LAYER}


def test_metric_names_match_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layer + [w["name"] for w in spec["workloads"]]:
        assert METRIC_NAME.fullmatch(name), name
    assert e2e == [name for name, _ in run.END_TO_END]
    assert layer == [name for name, _ in tracing.PER_LAYER]
    units = dict(run.END_TO_END + tracing.PER_LAYER)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])


def test_calibration_kernels_cover_every_workload():
    import calib
    from workloads import WORKLOADS

    assert set(calib.REFERENCE_S) == set(WORKLOADS)
    for name in WORKLOADS:
        assert calib.Calibration(name).measure() > 0
