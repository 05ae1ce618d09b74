"""Fixed-step integration, switching schedules, and convergence judging."""

import warnings

import numpy as np
import pytest

from ntconsensus import (
    Decomposition,
    SignedGraph,
    SwitchingDesign,
    SwitchingSchedule,
    bundled_graph,
    closed_loop,
    convergence_report,
    design_fixed,
    design_laplacians,
    design_switching,
    integrate_fixed,
    integrate_switching,
)
from ntconsensus.errors import (
    DimensionMismatchError,
    NonFiniteError,
    ScheduleExhaustedError,
)
from ntconsensus import simulate
from ntconsensus.simulate import DIVERGENCE_GUARD, STACK_BYTES, _cut, _rk4_map

from conftest import random_directed_valid, rk4_reference_step, tiled_graph
from test_acceptance import _switching_setup

THETA = np.array([1.0, 2.0, -1.0])
# two full blocks of net_a's stacked step map at h = 1e-3, ten more steps and
# a shortened one
BLOCKS_AND_A_SHORT_STEP = (2 * (STACK_BYTES // (21 * 21 * 8)) + 10.5) * 1e-3


def _spans_stage_by_stage(loops, spans, x, h):
    """The samples of a run over ``spans`` (start, end, graph id), one RK4
    step at a time and stage by stage, and its sample times: t0 + h j within
    a span, and the span's end exactly for its last sample."""
    times, states = [np.zeros(1)], [x]
    for start, end, gid in spans:
        lap, forcing = loops[gid].laplacian.toarray(), loops[gid].forcing
        full = int(np.floor((end - start) / h + 1e-9))
        remainder = (end - start) - full * h
        steps = [h] * full + ([remainder] if remainder > 1e-12 else [])
        span_times = start + h * np.arange(1, len(steps) + 1)
        span_times[-1:] = end
        times.append(span_times)
        for step in steps:
            x = rk4_reference_step(lap, forcing, x, step)
            states.append(x)
    return np.concatenate(times), np.array(states)


class TestIntegrateFixed:
    def test_equilibrium_start_stays_put(self, net_a, net_a_dec, tiled):
        for g, dec in ((net_a, net_a_dec), tiled):
            design = design_fixed(g, dec, THETA)
            x0 = np.tile(THETA, g.n)
            traj = integrate_fixed(g, design, x0, h=1e-3, horizon=1.0)
            assert float(np.max(np.abs(traj.states - x0))) < 1e-9

    def test_equilibrium_drift_long_horizon(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        x0 = np.tile(THETA, 7)
        traj = integrate_fixed(net_a, design, x0, h=1e-2, horizon=10.0)
        assert float(np.max(np.abs(traj.states - x0))) < 1e-8

    def test_order_four_step_halving(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        x0 = rng.uniform(-5, 5, 21)
        coarse = integrate_fixed(net_a, design, x0, h=2e-3, horizon=1.0)
        fine = integrate_fixed(net_a, design, x0, h=1e-3, horizon=1.0)
        rel = np.linalg.norm(coarse.states[-1] - fine.states[-1]) / np.linalg.norm(
            fine.states[-1]
        )
        assert rel < 1e-6

    def test_deterministic(self, net_a, net_a_dec, tiled, rng):
        for g, dec in ((net_a, net_a_dec), tiled):
            design = design_fixed(g, dec, THETA)
            x0 = rng.uniform(-5, 5, g.n * g.d)
            a = integrate_fixed(g, design, x0, h=1e-3, horizon=0.5)
            b = integrate_fixed(g, design, x0, h=1e-3, horizon=0.5)
            assert np.array_equal(a.states, b.states)

    def test_affine_superposition(self, net_a, net_a_dec, tiled, rng):
        for g, dec in ((net_a, net_a_dec), tiled):
            design = design_fixed(g, dec, THETA)
            u = rng.uniform(-5, 5, g.n * g.d)
            v = rng.uniform(-5, 5, g.n * g.d)
            a = 0.3
            end = lambda x: integrate_fixed(g, design, x, h=1e-3, horizon=0.5).states[-1]
            mixed = end(a * u + (1 - a) * v)
            assert np.allclose(mixed, a * end(u) + (1 - a) * end(v), atol=1e-9)

    @pytest.mark.parametrize("horizon", [0.0105, 0.05, BLOCKS_AND_A_SHORT_STEP])
    def test_matches_stage_by_stage_rk4(self, net_a, net_a_dec, tiled, rng, horizon):
        # 0.0105 = ten full steps and a shortened one that lands on T
        h = 1e-3
        for g, dec in ((net_a, net_a_dec), tiled):
            design = design_fixed(g, dec, THETA)
            loop = closed_loop(g, design)
            lap = loop.laplacian.toarray()
            x = rng.uniform(-5, 5, g.n * g.d)
            traj = integrate_fixed(g, design, x, h=h, horizon=horizon)
            steps = int(np.floor(horizon / h + 1e-9))
            if horizon == BLOCKS_AND_A_SHORT_STEP and g is net_a:
                assert _cut(loop, 0, h, steps, 0.0, {}, {})[0][0].rows < steps
            assert len(traj.times) == steps + 1 + (horizon > steps * h + 1e-12)
            assert traj.times[-1] == horizon
            assert np.array_equal(traj.times[: steps + 1], h * np.arange(steps + 1))
            for k in range(steps):
                x = rk4_reference_step(lap, loop.forcing, x, h)
                assert np.linalg.norm(traj.states[k + 1] - x) <= 1e-13 * np.linalg.norm(x)
            x = rk4_reference_step(lap, loop.forcing, x, horizon - steps * h)
            assert np.linalg.norm(traj.states[-1] - x) <= 1e-13 * np.linalg.norm(x)

    def test_exponential_decay_envelope(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        grounded, _ = design_laplacians(net_a, design)
        sym = (grounded.matrix + grounded.matrix.T) / 2.0
        lam = float(np.linalg.eigvalsh(sym).min())
        x0 = rng.uniform(-5, 5, 21)
        traj = integrate_fixed(net_a, design, x0, h=1e-3, horizon=2.0)
        bound = traj.error_norm[0] * np.exp(-lam * traj.times)
        assert np.all(traj.error_norm <= bound * (1 + 1e-6))

    def test_divergence_guard(self, net_a, net_a_dec, tiled):
        # a step far beyond the stability limit makes the scheme blow up; the
        # powers of the step map overflow inside a block, and only the guard
        # may report it, at the first time a stage-by-stage run fails
        h = 1.0
        for g, dec in ((net_a, net_a_dec), tiled):
            design = design_fixed(g, dec, THETA)
            loop = closed_loop(g, design)
            lap = loop.laplacian.toarray()
            x = 1e3 * np.ones(g.n * g.d)
            k = 0
            while np.abs(x).max() <= DIVERGENCE_GUARD:
                x = rk4_reference_step(lap, loop.forcing, x, h)
                k += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match=rf"at t={k * h:.6g}$"):
                    integrate_fixed(g, design, 1e3 * np.ones(g.n * g.d), h=h, horizon=100.0)

    def test_divergence_guard_catches_nan(self, net_a, net_a_dec):
        from dataclasses import replace

        broken = replace(design_fixed(net_a, net_a_dec, THETA), theta=np.full(3, np.nan))
        with pytest.raises(NonFiniteError):
            integrate_fixed(net_a, broken, np.zeros(21), h=1e-3, horizon=0.1)

    @pytest.mark.parametrize("h, horizon, bad", [
        (np.nan, 1.0, None),
        (1e-3, np.nan, None),
        (1e-3, np.inf, None),
        (np.inf, 1.0, None),
        (1e-3, 1.0, np.nan),
        (1e-3, 1.0, -np.inf),
    ])
    def test_non_finite_run_input_rejected(self, net_a, net_a_dec, h, horizon, bad):
        design = design_fixed(net_a, net_a_dec, THETA)
        x0 = np.zeros(21)
        if bad is not None:
            x0[4] = bad
        with pytest.raises(NonFiniteError):
            integrate_fixed(net_a, design, x0, h=h, horizon=horizon)

    def test_bad_step_rejected(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        with pytest.raises(DimensionMismatchError):
            integrate_fixed(net_a, design, np.zeros(21), h=0.5, horizon=0.1)

    @pytest.mark.parametrize("length", [20, 22])
    def test_initial_state_of_wrong_length_rejected(self, net_a, net_a_dec, length):
        design = design_fixed(net_a, net_a_dec, THETA)
        with pytest.raises(DimensionMismatchError, match=f"length {length}, expected 21"):
            integrate_fixed(net_a, design, np.zeros(length), h=1e-3, horizon=0.1)

    def test_error_norm_consistent(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        traj = integrate_fixed(net_a, design, rng.uniform(-1, 1, 21), h=1e-2, horizon=0.2)
        recomputed = np.linalg.norm(traj.states - np.tile(THETA, 7), axis=1)
        assert np.allclose(traj.error_norm, recomputed, atol=1e-12)


class TestSwitchingSchedule:
    def test_uniform_construction(self):
        s = SwitchingSchedule.uniform(0.02, [0, 0, 1, 2, 2], repeat=True)
        assert s._edges()[:-1] == (0.0, 0.02, 0.04, 0.06, 0.08)
        assert s.period == pytest.approx(0.1)

    def test_intervals_cycle(self):
        s = SwitchingSchedule.uniform(0.1, [0, 1], repeat=True)
        spans = []
        for start, end, gid in s.intervals(0.35):
            spans.append((round(start, 10), round(end, 10), gid))
        assert spans == [(0.0, 0.1, 0), (0.1, 0.2, 1), (0.2, 0.3, 0), (0.3, 0.35, 1)]

    def test_non_repeat_exhaustion(self):
        s = SwitchingSchedule.uniform(0.1, [0, 1], repeat=False)
        with pytest.raises(ScheduleExhaustedError):
            list(s.intervals(1.0))

    def test_interval_shorter_than_dwell_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SwitchingSchedule(lengths=(0.01, 0.02), graph_ids=(0, 1), alpha=0.02)
        # the last interval is checked too
        with pytest.raises(DimensionMismatchError):
            SwitchingSchedule(lengths=(0.02, 0.01), graph_ids=(0, 1), alpha=0.02)

    def test_empty_schedule_rejected(self):
        with pytest.raises(DimensionMismatchError, match="at least one interval"):
            SwitchingSchedule(lengths=(), graph_ids=(), alpha=0.02)

    @pytest.mark.parametrize("graph_ids", [(0,), (0, 1, 2)])
    def test_graph_id_count_mismatch_rejected(self, graph_ids):
        with pytest.raises(DimensionMismatchError, match="one graph id per interval"):
            SwitchingSchedule(lengths=(0.02, 0.02), graph_ids=graph_ids, alpha=0.02)


class TestIntegrateSwitching:
    def test_single_interval_matches_fixed(self, net_a, net_a_dec, rng):
        # also over four intervals: 250 steps each are cut into blocks of at
        # most 74 rows differently from one span of 1000 steps, and every
        # sample still agrees
        design = design_fixed(net_a, net_a_dec, THETA)
        x0 = rng.uniform(-5, 5, 21)
        a = integrate_fixed(net_a, design, x0, h=1e-3, horizon=1.0)
        for dwell, intervals in ((1.0, 1), (0.25, 4)):
            sdesign = design_switching({0: net_a}, {0: net_a_dec}, THETA, alpha=dwell)
            schedule = SwitchingSchedule.uniform(dwell, [0] * intervals)
            b = integrate_switching(schedule, sdesign, {0: net_a}, x0, h=1e-3, horizon=1.0)
            assert a.states.shape == b.states.shape
            assert np.allclose(a.times, b.times, rtol=0.0, atol=1e-12)
            rel = np.linalg.norm(a.states - b.states, axis=1) / np.linalg.norm(a.states, axis=1)
            assert rel.max() <= 1e-13

    @pytest.mark.parametrize("case", ["dense", "csr"])
    def test_matches_stage_by_stage_on_random_sets(self, case):
        # random interval lengths, none a multiple of h, so every interval
        # ends with a shortened step; dense intervals take more steps than
        # one stack of powers holds (several blocks and a shorter one), a
        # CSR map takes one step per piece
        rng = np.random.default_rng(1313 if case == "dense" else 1314)
        h = 1e-3
        if case == "dense":
            made = [random_directed_valid(rng, 7, 3) for _ in range(3)]
            lengths = rng.uniform(0.08, 0.2, 5)
        else:
            made = [tiled_graph(rng, 4) for _ in range(2)]
            lengths = rng.uniform(0.02, 0.05, 5)
        graphs = {k: g for k, (g, _) in enumerate(made)}
        decs = {k: dec for k, (_, dec) in enumerate(made)}
        theta = rng.uniform(-2, 2, 3)
        sdesign = design_switching(graphs, decs, theta, alpha=float(lengths.min()))
        schedule = SwitchingSchedule(
            lengths=tuple(lengths.tolist()),
            graph_ids=tuple(int(k) for k in rng.integers(0, len(graphs), 5)),
            alpha=float(lengths.min()),
            repeat=True,
        )
        horizon = 1.6 * schedule.period
        spans = list(schedule.intervals(horizon))
        loops = {gid: closed_loop(graphs[gid], d) for gid, d in sdesign.designs.items()}
        for gid, loop in loops.items():
            p = _rk4_map(loop, h)[0]
            assert isinstance(p, np.ndarray) == (case == "dense")
            if case == "dense":
                assert _cut(loop, gid, h, 80, 0.0, {}, {})[0][0].rows < 80
        for start, end, _ in spans:
            steps = (end - start) / h
            assert abs(steps - round(steps)) > 1e-6
        x = rng.uniform(-5, 5, graphs[0].n * 3)
        traj = integrate_switching(schedule, sdesign, graphs, x, h=h, horizon=horizon)
        times, states = _spans_stage_by_stage(loops, spans, x, h)
        assert np.array_equal(traj.times, times)
        assert traj.states.shape == states.shape
        rel = np.linalg.norm(traj.states - states, axis=1) / np.linalg.norm(states, axis=1)
        assert rel.max() <= 1e-13

    def test_divergence_guard(self, net_a, net_b, net_c):
        # h far beyond the stability limit, with dwells of four full steps
        # and a shortened one: the chain, the powers and the fill overflow,
        # and only the guard may report it, at the first time a
        # stage-by-stage run fails, two switches into the run
        graphs, sdesign, _ = _switching_setup(net_a, net_b, net_c)
        schedule = SwitchingSchedule.uniform(0.85, [0, 1, 2], repeat=True)
        h = 0.2
        loops = {gid: closed_loop(graphs[gid], d) for gid, d in sdesign.designs.items()}
        x = np.ones(21)
        failed = None
        for start, end, gid in schedule.intervals(100.0):
            lap, forcing = loops[gid].laplacian.toarray(), loops[gid].forcing
            for j in range(1, 6):
                x = rk4_reference_step(lap, forcing, x, h if j < 5 else end - start - 4 * h)
                if not np.abs(x).max() <= DIVERGENCE_GUARD:
                    failed = start + h * j if j < 5 else end
                    break
            if failed is not None:
                break
        assert failed is not None and failed > 2 * 0.85
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=rf"at t={failed:.6g}$"):
                integrate_switching(schedule, sdesign, graphs, np.ones(21), h=h, horizon=100.0)

    def test_graphs_of_different_sizes_rejected(self, net_a, net_a_dec):
        small = SignedGraph.from_edges(2, 3, True, {(1, 2): -np.eye(3), (2, 1): -np.eye(3)})
        sdesign = SwitchingDesign(
            designs={
                0: design_fixed(net_a, net_a_dec, THETA),
                1: design_fixed(small, Decomposition.of(small, [1, 2]), THETA, delta=8.0),
            },
            alpha=0.02,
        )
        schedule = SwitchingSchedule.uniform(0.02, [0, 1], repeat=True)
        with pytest.raises(DimensionMismatchError, match=r"graph 1 has \(n, d\) = \(2, 3\)"):
            integrate_switching(schedule, sdesign, {0: net_a, 1: small}, np.zeros(21),
                                h=1e-3, horizon=0.1)

    def test_designed_graph_missing_rejected(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        sdesign = SwitchingDesign(designs={0: design, 1: design}, alpha=0.02)
        schedule = SwitchingSchedule.uniform(0.02, [0, 1], repeat=True)
        with pytest.raises(DimensionMismatchError, match=r"graph id 1\b"):
            integrate_switching(schedule, sdesign, {0: net_a}, np.zeros(21), h=1e-3, horizon=0.1)
        with pytest.raises(DimensionMismatchError, match="at least one graph"):
            integrate_switching(schedule, sdesign, {}, np.zeros(21), h=1e-3, horizon=0.1)
        # a schedule over a graph id without a design is refused before any step
        lone = SwitchingDesign(designs={0: design}, alpha=0.02)
        with pytest.raises(ScheduleExhaustedError, match="unknown graph id 1"):
            integrate_switching(schedule, lone, {0: net_a}, np.zeros(21), h=1e-3, horizon=0.1)

    def test_benchmark_error_decays(self, net_a, net_b, net_c, rng):
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        x0 = rng.uniform(-5, 5, 21)
        traj = integrate_switching(schedule, sdesign, graphs, x0, h=1e-3, horizon=2.0)
        assert traj.error_norm[-1] < 0.1 * traj.error_norm[0]

    def test_switch_times_sampled_exactly(self, net_a, net_b, net_c, rng):
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        x = rng.uniform(-5, 5, 21)
        traj = integrate_switching(schedule, sdesign, graphs, x, h=3e-3, horizon=0.3)
        for k in range(1, 15):
            tk = 0.02 * k
            assert np.min(np.abs(traj.times - tk)) < 1e-12
        # each 0.02 interval is six 3e-3 steps and a shortened 2e-3 one
        loops = {gid: closed_loop(graphs[gid], d) for gid, d in sdesign.designs.items()}
        for k, gid in enumerate((0, 0, 1, 2, 2)):
            lap, forcing = loops[gid].laplacian.toarray(), loops[gid].forcing
            for step in (3e-3,) * 6 + (0.02 - 6 * 3e-3,):
                x = rk4_reference_step(lap, forcing, x, step)
            at = 7 * (k + 1)
            assert traj.times[at] == pytest.approx(0.02 * (k + 1), abs=1e-12)
            assert np.linalg.norm(traj.states[at] - x) <= 1e-13 * np.linalg.norm(x)

    def test_shortened_step_map_built_once_per_length(self, rng, monkeypatch):
        # fresh graph objects, so no earlier test has built their maps
        graphs, sdesign, schedule = _switching_setup(
            *(bundled_graph(name) for name in ("net_a", "net_b", "net_c"))
        )
        x = rng.uniform(-5, 5, 21)
        built = []
        step_map = simulate._step_map

        def counted(lap, h):
            built.append((id(lap), h))
            return step_map(lap, h)

        monkeypatch.setattr(simulate, "_step_map", counted)
        traj = integrate_switching(schedule, sdesign, graphs, x, h=3e-3, horizon=2.0)
        # 100 intervals, each six 3e-3 steps and a shortened one
        once = len(built)
        assert 0 < once == len(set(built)) < 100
        # the maps are kept with the graphs: a second run builds none and
        # lands on the same states
        again = integrate_switching(schedule, sdesign, graphs, x, h=3e-3, horizon=2.0)
        assert len(built) == once
        assert np.array_equal(traj.states, again.states)
        assert np.array_equal(traj.times, again.times)

    @pytest.mark.parametrize("h, horizon, bad, error", [
        (np.nan, 1.0, None, NonFiniteError),
        (1e-3, np.inf, None, NonFiniteError),
        (1e-3, 1.0, np.nan, NonFiniteError),
        (0.0, 1.0, None, DimensionMismatchError),
        (-1e-3, 1.0, None, DimensionMismatchError),
        (1e-3, -1.0, None, DimensionMismatchError),
        (1e-3, 0.0, None, DimensionMismatchError),
        (2e-3, 1e-3, None, DimensionMismatchError),
    ])
    def test_invalid_run_input_rejected(self, net_a, net_b, net_c, h, horizon, bad, error):
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        x0 = np.zeros(21)
        if bad is not None:
            x0[0] = bad
        with pytest.raises(error):
            integrate_switching(schedule, sdesign, graphs, x0, h=h, horizon=horizon)

    def test_large_step_rejected(self, net_a, net_b, net_c, rng):
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        with pytest.raises(DimensionMismatchError):
            integrate_switching(
                schedule, sdesign, graphs, rng.uniform(-5, 5, 21), h=0.01, horizon=1.0
            )


class TestConvergenceReport:
    def test_constant_at_target(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        traj = integrate_fixed(net_a, design, np.tile(THETA, 7), h=1e-2, horizon=1.0)
        report = convergence_report(traj)
        assert report.converged
        assert report.final_error < 1e-9
        assert report.settle_time == 0.0

    def test_benchmark_run_converges(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        traj = integrate_fixed(net_a, design, rng.uniform(-5, 5, 21), h=1e-3, horizon=20.0)
        report = convergence_report(traj)
        assert report.converged
        assert report.settle_time is not None and report.settle_time < 20.0

    def test_ungrounded_run_fails(self, rng):
        g, dec = random_directed_valid(rng, 4, 2)
        design = design_fixed(g, dec, np.ones(2))
        # a vanishing coupling coefficient (x0 follows it): the run cannot settle at theta
        from dataclasses import replace

        broken = replace(design, delta=1e-12)
        traj = integrate_fixed(g, broken, rng.uniform(1.5, 2.0, 8), h=1e-2, horizon=5.0)
        assert not convergence_report(traj, np.ones(2)).converged

    @pytest.mark.parametrize("theta", [(1.0, 2.0), (1.0, 2.0, -1.0, 0.0)])
    def test_theta_of_wrong_length_rejected(self, net_a, net_a_dec, theta):
        design = design_fixed(net_a, net_a_dec, THETA)
        traj = integrate_fixed(net_a, design, np.zeros(21), h=1e-2, horizon=0.1)
        with pytest.raises(DimensionMismatchError, match="run has d=3"):
            convergence_report(traj, np.array(theta))
