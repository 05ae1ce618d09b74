"""Fixed-step integration, switching schedules, and convergence judging."""

import warnings

import numpy as np
import pytest

from ntconsensus import (
    Decomposition,
    SwitchingSchedule,
    closed_loop,
    convergence_report,
    design_fixed,
    design_laplacians,
    design_switching,
    integrate_fixed,
    integrate_switching,
    log_norm2,
)
from ntconsensus.errors import (
    DimensionMismatchError,
    NonFiniteError,
    ScheduleExhaustedError,
)
from ntconsensus.networks import BUNDLED_V1, SWITCHING_DELTAS
from ntconsensus.protocol import STACK_BYTES, ClosedLoop
from ntconsensus.simulate import DIVERGENCE_GUARD

from conftest import random_directed_valid, rk4_reference_step

THETA = np.array([1.0, 2.0, -1.0])
# two full blocks of net_a's stacked step map at h = 1e-3, ten more steps and
# a shortened one
BLOCKS_AND_A_SHORT_STEP = (2 * (STACK_BYTES // (21 * 21 * 8)) + 10.5) * 1e-3


def _switching_setup(net_a, net_b, net_c):
    graphs = {0: net_a, 1: net_b, 2: net_c}
    decs = {
        0: Decomposition.of(net_a, BUNDLED_V1["net_a"]),
        1: Decomposition.of(net_b, BUNDLED_V1["net_b"]),
        2: Decomposition.of(net_c, BUNDLED_V1["net_c"]),
    }
    deltas = {
        0: SWITCHING_DELTAS["net_a"],
        1: SWITCHING_DELTAS["net_b"],
        2: SWITCHING_DELTAS["net_c"],
    }
    sdesign = design_switching(graphs, decs, THETA, alpha=0.02, deltas=deltas)
    schedule = SwitchingSchedule.uniform(0.02, [0, 0, 1, 2, 2], repeat=True)
    return graphs, sdesign, schedule


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
                assert len(loop.step_block(h, steps)[1]) < steps
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
        lam = -log_norm2(-grounded.matrix)  # lambda_min of the symmetric part
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

    def test_error_norm_consistent(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        traj = integrate_fixed(net_a, design, rng.uniform(-1, 1, 21), h=1e-2, horizon=0.2)
        recomputed = np.linalg.norm(traj.states - np.tile(THETA, 7), axis=1)
        assert np.allclose(traj.error_norm, recomputed, atol=1e-12)


class TestSwitchingSchedule:
    def test_uniform_construction(self):
        s = SwitchingSchedule.uniform(0.02, [0, 0, 1, 2, 2], repeat=True)
        assert s.switch_times == (0.0, 0.02, 0.04, 0.06, 0.08)
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


class TestIntegrateSwitching:
    def test_single_interval_matches_fixed(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        sdesign = design_switching({0: net_a}, {0: net_a_dec}, THETA, alpha=1.0)
        schedule = SwitchingSchedule.uniform(1.0, [0], repeat=True)
        x0 = rng.uniform(-5, 5, 21)
        a = integrate_fixed(net_a, design, x0, h=1e-3, horizon=1.0)
        b = integrate_switching(schedule, sdesign, {0: net_a}, x0, h=1e-3, horizon=1.0)
        assert np.allclose(a.states[-1], b.states[-1], atol=1e-12)

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

    def test_shortened_step_map_built_once_per_length(self, net_a, net_b, net_c, rng,
                                                       monkeypatch):
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        x = rng.uniform(-5, 5, 21)
        built = []
        rk4_map = ClosedLoop.rk4_map

        def counted(loop, h):
            built.append((id(loop), h))
            return rk4_map(loop, h)

        monkeypatch.setattr(ClosedLoop, "rk4_map", counted)
        traj = integrate_switching(schedule, sdesign, graphs, x, h=3e-3, horizon=2.0)
        # 100 intervals, each six 3e-3 steps and a shortened one
        assert len(built) == len(set(built)) < 100
        monkeypatch.setattr(ClosedLoop, "step_map", counted)
        fresh = integrate_switching(schedule, sdesign, graphs, x, h=3e-3, horizon=2.0)
        assert np.array_equal(traj.states, fresh.states)
        assert np.array_equal(traj.times, fresh.times)

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
