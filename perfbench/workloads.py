"""The three benchmark workloads, each a closed loop with one client.

A workload is set up once (``setup`` may run several times; each run
rebuilds everything and serves a few unchecked warm-up requests), then
serves requests: ``request(k)`` prepares request k's inputs outside the
timed region, ``run`` is the timed request, and ``check`` compares its
outputs with the oracle outside the timed region.
Package functions are always reached through their module, so the traced
run's patches take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np
import scipy.linalg
import scipy.sparse

import nets
import oracle
from ntconsensus import cli, fileio, graph, networks, protocol, simulate, spectral

STEP = 1e-3


@dataclass
class Request:
    theta: np.ndarray
    x_init: Optional[np.ndarray] = None
    net: Any = None
    path: Optional[Path] = None
    spec: str = ""


class DesignBatch:
    """`ntconsensus design --json` requests, in process, one fresh network each.

    Networks are drawn in batches of BATCH; the first batch is part of set-up
    and later ones are drawn between requests, untimed, so no two requests
    ever share a graph.  Even requests ask for V1 = auto, odd ones pass the
    generator's V1.
    """

    BATCH = 256
    WARMUP = 8

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.nets: Dict[int, nets.Network] = {}

    def _draw(self, indices) -> None:
        for k in indices:
            net = nets.forest_network(self.seed, k)
            g = graph.SignedGraph.from_edges(net.n, nets.D, True, net.edges)
            fileio.save_graph(g, self.tmp / f"g{k}.json")
            self.nets[k] = net

    def setup(self) -> None:
        self.nets = {}
        self._draw(range(self.BATCH))
        warm = range(nets.WARMUP_OFFSET, nets.WARMUP_OFFSET + self.WARMUP)
        self._draw(warm)
        for k in warm:
            self.run(self.request(k))

    def request(self, k: int) -> Request:
        if k not in self.nets:
            self.nets = {}
            start = k - k % self.BATCH
            self._draw(range(start, start + self.BATCH))
        net = self.nets[k]
        theta = nets.draw_theta(nets.request_rng(self.seed, k))
        spec = "auto" if k % 2 == 0 else ",".join(str(v) for v in sorted(net.v1))
        return Request(theta=theta, net=net, path=self.tmp / f"g{k}.json", spec=spec)

    def run(self, req: Request):
        theta = ",".join(repr(float(t)) for t in req.theta)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(["design", "--graph", str(req.path), "--v1", req.spec,
                                 f"--theta={theta}", "--json"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue()

    def check(self, req: Request, result) -> None:
        code, text = result
        oracle.expect(code == 0, f"exit code {code}")
        oracle.check_design(json.loads(text), req.net.edges, req.net.v1, req.theta)


class FixedLarge:
    """`simulate` on a fixed topology: design_fixed, integrate_fixed,
    convergence_report and write_trajectory_csv on a pool of POOL tiled
    networks of 30 copies (N = 210 agents, 630 states), shared by all
    requests, each with a fresh theta and x_init."""

    POOL = 4
    COPIES = 30
    HORIZON = 0.1
    WARMUP = 2

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.bases = {b: nets.load_raw_edges(networks.bundled_path(f"{b}.json"))[1]
                      for b in nets.TILE_BASES}
        self._laps: Dict[tuple, scipy.sparse.csr_matrix] = {}

    def setup(self) -> None:
        self.pool = []
        for p in range(self.POOL):
            net = nets.tiled_network(self.seed, p, self.bases, self.COPIES)
            g = graph.SignedGraph.from_edges(net.n, nets.D, True, net.edges)
            self.pool.append((net, g, graph.Decomposition.of(g, sorted(net.v1))))
        for k in range(nets.WARMUP_OFFSET, nets.WARMUP_OFFSET + self.WARMUP):
            self.run(self.request(k))

    def request(self, k: int) -> Request:
        rng = nets.request_rng(self.seed, k)
        theta = nets.draw_theta(rng)
        x_init = rng.uniform(-5.0, 5.0, self.COPIES * 7 * nets.D)
        return Request(theta=theta, x_init=x_init, net=self.pool[k % self.POOL],
                       path=self.tmp / f"traj{k}.csv")

    def run(self, req: Request):
        _, g, dec = req.net
        design = protocol.design_fixed(g, dec, req.theta)
        traj = simulate.integrate_fixed(g, design, req.x_init, h=STEP, horizon=self.HORIZON)
        report = simulate.convergence_report(traj, req.theta)
        fileio.write_trajectory_csv(traj, req.path)
        return design, traj, report

    def check(self, req: Request, result) -> None:
        design, traj, report = result
        net = req.net[0]
        oracle.check_bound(design.per_vertex_c, design.bound_c, net.edges, net.v1)
        oracle.expect(design.delta == design.bound_c + oracle.MARGIN, "delta != C + margin")
        key = (id(net), design.delta)
        if key not in self._laps:
            self._laps[key] = scipy.sparse.csr_matrix(
                oracle.grounded_laplacian(net.n, nets.D, net.edges, design.delta))
        target = np.tile(req.theta, net.n)
        for idx in (len(traj.times) // 2, len(traj.times) - 1):
            want = oracle.exact_fixed(self._laps[key], target, req.x_init, traj.times[idx])
            oracle.check_state(traj.states[idx], want, f"state at t={traj.times[idx]:.4g}")
        oracle.check_convergence(report, traj.states, net.n, req.theta)
        back = fileio.read_trajectory_csv(req.path)
        req.path.unlink()
        body = np.column_stack([traj.times, traj.states, traj.error_norm])
        oracle.expect(back.shape == body.shape and np.array_equal(back, body),
                      "trajectory CSV does not read back bit-exactly")


class SwitchingLong:
    """The paper's switching run: net_a, net_b, net_c cycled A A B C C with
    dwell 0.02 and the pinned coefficients, h = 1e-3 to T = 2 (100 intervals,
    2000 steps).  A request designs, bounds the contraction, integrates,
    judges convergence and runs the necessary-condition check on the three
    augmented Laplacians; nothing is written to disk."""

    NAMES = ("net_a", "net_b", "net_c")
    PATTERN = (0, 0, 1, 2, 2)
    HORIZON = 2.0
    WARMUP = 2

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.n = 7
        dwell = networks.SWITCHING_DWELL
        self.intervals = int(round(self.HORIZON / dwell))
        self.steps_per_interval = int(round(dwell / STEP))
        self.deltas = {k: networks.SWITCHING_DELTAS[name] for k, name in enumerate(self.NAMES)}
        self.edges = [nets.load_raw_edges(networks.bundled_path(f"{name}.json"))[1]
                      for name in self.NAMES]
        self.v1 = [frozenset(networks.BUNDLED_V1[name]) for name in self.NAMES]
        laps = [oracle.grounded_laplacian(self.n, nets.D, e, self.deltas[k])
                for k, e in enumerate(self.edges)]
        self.exps = [scipy.linalg.expm(-dwell * lap) for lap in laps]
        self.contraction = max(oracle.contraction(lap, dwell) for lap in laps)
        self.augmented = [oracle.augmented_laplacian(lap, e, self.deltas[k])
                          for k, (lap, e) in enumerate(zip(laps, self.edges))]

    def setup(self) -> None:
        self.graphs = {k: fileio.load_graph(networks.bundled_path(f"{name}.json"))
                       for k, name in enumerate(self.NAMES)}
        self.decs = {k: graph.Decomposition.of(self.graphs[k], self.v1[k]) for k in self.graphs}
        self.schedule = simulate.SwitchingSchedule.uniform(
            networks.SWITCHING_DWELL, self.PATTERN, repeat=True)
        for k in range(nets.WARMUP_OFFSET, nets.WARMUP_OFFSET + self.WARMUP):
            self.run(self.request(k))

    def request(self, k: int) -> Request:
        rng = nets.request_rng(self.seed, k)
        theta = nets.draw_theta(rng)
        return Request(theta=theta, x_init=rng.uniform(-5.0, 5.0, self.n * nets.D))

    def run(self, req: Request):
        sdesign = protocol.design_switching(self.graphs, self.decs, req.theta,
                                            alpha=networks.SWITCHING_DWELL, deltas=self.deltas)
        contraction = protocol.contraction_factor(sdesign, self.graphs)
        traj = simulate.integrate_switching(self.schedule, sdesign, self.graphs, req.x_init,
                                            h=STEP, horizon=self.HORIZON)
        report = simulate.convergence_report(traj, req.theta)
        augmented = [protocol.design_laplacians(self.graphs[k], sdesign.designs[k])[1].matrix
                     for k in sorted(self.graphs)]
        z = spectral.consensus_space(self.n, nets.D, 1.0, sdesign.designs[0].k1) @ req.theta
        member = protocol.necessary_condition_check(z, augmented)
        return sdesign, contraction, traj, report, member

    def check(self, req: Request, result) -> None:
        sdesign, contraction, traj, report, member = result
        for k, design in sdesign.designs.items():
            oracle.expect(design.delta == self.deltas[k], f"graph {k}: delta not pinned")
            oracle.check_bound(design.per_vertex_c, design.bound_c, self.edges[k], self.v1[k])
            oracle.expect(np.allclose(design.x0, (1.0 + 2.0 / design.delta) * req.theta,
                                      rtol=1e-14, atol=0.0), f"graph {k}: x0 differs")
        oracle.expect(abs(contraction.factor - self.contraction) <= 1e-12,
                      "contraction factor differs")
        target = np.tile(req.theta, self.n)
        exact = oracle.switching_exact(self.exps, self.PATTERN, self.intervals, target,
                                       req.x_init)
        oracle.expect(len(traj.times) == self.intervals * self.steps_per_interval + 1,
                      "unexpected number of samples")
        for k in (self.intervals // 2, self.intervals):
            idx = k * self.steps_per_interval
            oracle.expect(abs(traj.times[idx] - k * networks.SWITCHING_DWELL) <= 1e-9,
                          f"sample {idx} is not at switch time {k}")
            oracle.check_state(traj.states[idx], exact[k], f"state at switch {k}")
        oracle.check_convergence(report, traj.states, self.n, req.theta)
        z = np.concatenate([target, (1.0 + 2.0 / self.deltas[0]) * req.theta])
        oracle.expect(member == oracle.nullspace_member(z, self.augmented),
                      "necessary-condition verdict differs")


WORKLOADS = {
    "design_batch": DesignBatch,
    "fixed_large": FixedLarge,
    "switching_long": SwitchingLong,
}
