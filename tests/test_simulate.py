"""Fixed-step integration, switching schedules, and convergence judging."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ntconsensus import (
    ClosedLoop,
    Decomposition,
    SignedGraph,
    SwitchingDesign,
    SwitchingSchedule,
    Trajectory,
    bundled_graph,
    closed_loop,
    contraction_factor,
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
    NotContractingError,
    ScheduleExhaustedError,
)
from ntconsensus import simulate
from ntconsensus.networks import BUNDLED_V1, SWITCHING_DELTAS
from ntconsensus.simulate import (
    DIVERGENCE_GUARD, RK4_RADIUS, STACK_BYTES, _cut, _full_step, _march, _plan,
)

from conftest import (
    random_directed_valid, random_undirected_valid, rk4_reference_step, tiled_graph,
)
import reference
from reference import whole_run_report
from test_acceptance import _switching_setup

THETA = np.array([1.0, 2.0, -1.0])
# samples per chunk of the per-sample reductions on a 7-agent, d = 3 run
CHUNK = simulate._chunk_rows(21)
# two full blocks of net_a's stacked step map at h = 1e-3, ten more steps and
# a shortened one
BLOCKS_AND_A_SHORT_STEP = (2 * (STACK_BYTES // (21 * 21 * 8)) + 10.5) * 1e-3


def _affine_loops(graphs, sdesign):
    """The affine loops (L_B, f) of a switching design, by graph id."""
    return {gid: reference.affine_loop(graphs[gid], d) for gid, d in sdesign.designs.items()}


def _spans_stage_by_stage(systems, spans, x, h):
    """The samples of a run over ``spans`` (start, end, graph id) on the
    affine loops (L_B, f) that ``systems`` keys by graph id, one RK4 step
    at a time and stage by stage, and its sample times: t0 + h j within a
    span, and the span's end exactly for its last sample."""
    times, states = [np.zeros(1)], [x]
    for start, end, gid in spans:
        lap, forcing = systems[gid]
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
            lap, forcing = reference.affine_loop(g, design)
            x = rng.uniform(-5, 5, g.n * g.d)
            traj = integrate_fixed(g, design, x, h=h, horizon=horizon)
            steps = int(np.floor(horizon / h + 1e-9))
            if horizon == BLOCKS_AND_A_SHORT_STEP and g is net_a:
                assert _cut(loop, 0, h, steps, 0.0, {})[0][0].rows < steps
            assert len(traj.times) == steps + 1 + (horizon > steps * h + 1e-12)
            assert traj.times[-1] == horizon
            assert np.array_equal(traj.times[: steps + 1], h * np.arange(steps + 1))
            for k in range(steps):
                x = rk4_reference_step(lap, forcing, x, h)
                assert np.linalg.norm(traj.states[k + 1] - x) <= 1e-13 * np.linalg.norm(x)
            x = rk4_reference_step(lap, forcing, x, horizon - steps * h)
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

    def test_divergence_guard(self, net_a, net_a_dec, tiled, monkeypatch):
        # a loop that truly diverges, xdot = L_B x - f, stepped at nearly the
        # largest step that the cheap test certifies (it assumes a stable
        # L_B): the chain and the fill overflow before the run ends, and
        # only the guard may report it, at the first time a stage-by-stage
        # run fails; once as one span, and once as a schedule that repeats
        # one interval of five steps, which net_a's dense map steps pass by
        # pass
        composed = _count_calls(monkeypatch, "_march_passes")
        for g, dec in ((net_a, net_a_dec), tiled):
            design = design_fixed(g, dec, THETA)
            loop = ClosedLoop(operator=-closed_loop(g, design).operator)
            lap, forcing = reference.affine_loop(g, design)
            h = 0.99 * _certified(lap)
            x = 1e3 * np.ones(g.n * g.d)
            k = 0
            while np.abs(x).max() <= DIVERGENCE_GUARD:
                x = rk4_reference_step(-lap, -forcing, x, h)
                k += 1
            assert k < 100
            for schedule in (None, SwitchingSchedule.uniform(5 * h, [0], repeat=True)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteError, match=rf"at t={k * h:.6g}$"):
                        _march(g, THETA, {0: loop}, _plan(schedule, 600 * h, h),
                               1e3 * np.ones(g.n * g.d), h)
        # net_a's repeating run only
        assert len(composed) == 1

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

    @pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_error_norm_of_chunks_is_the_whole_run_norm(self, net_a, net_a_dec, rng, samples):
        design = design_fixed(net_a, net_a_dec, THETA)
        traj = integrate_fixed(
            net_a, design, rng.uniform(-1, 1, 21), h=1e-2, horizon=(samples - 1) * 1e-2
        )
        assert len(traj.times) == samples
        # the chunked norm is the whole run's, to the bit
        recomputed = np.linalg.norm(traj.states - np.tile(THETA, 7), axis=1)
        assert traj.error_norm.tobytes() == recomputed.tobytes()


def _count_calls(monkeypatch, name):
    """The list that each call of ``simulate.<name>`` appends to."""
    calls = []
    wrapped = getattr(simulate, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(simulate, name, counted)
    return calls


def _certified(lap):
    """RK4_RADIUS / ||L_B||_inf, from a dense L_B."""
    return RK4_RADIUS / np.abs(lap).sum(axis=1).max()


class TestCheckStep:
    def test_rk4_half_disc(self):
        """|R(z)| <= 1 on the boundary of the left half-disc of radius
        RK4_RADIUS, and so inside it; just beyond, it is not."""
        def worst(r):
            z = np.concatenate([r * np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2, 200_001)),
                                1j * np.linspace(-r, r, 20_001)])
            return np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max()

        assert worst(RK4_RADIUS) <= 1.0 + 1e-15
        assert worst(2.6156) > 1.0

    def _eigvals_counted(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        return calls

    def _no_piece_cut(self, monkeypatch):
        """Make cutting a span into pieces, which comes before any step,
        fail the test."""
        def no_cut(*args, **kwargs):
            raise AssertionError("the run was stepped")

        monkeypatch.setattr(simulate, "_cut", no_cut)

    def test_default_step_certified_in_o_nnz(self, monkeypatch, tiled):
        """Every bundled network and the tiled one pass the cheap test at
        the default step, and no eigenvalue is computed."""
        runs = []
        for name in BUNDLED_V1:
            g = bundled_graph(name)
            runs.append((g, design_fixed(g, Decomposition.of(g, BUNDLED_V1[name]), THETA,
                                         delta=20.0)))
        g = dataclasses.replace(tiled[0])  # a fresh object: no earlier verdict
        runs.append((g, design_fixed(g, tiled[1], THETA)))
        calls = self._eigvals_counted(monkeypatch)
        for g, design in runs:
            integrate_fixed(g, design, np.zeros(g.n * g.d), h=simulate.DEFAULT_STEP,
                            horizon=2 * simulate.DEFAULT_STEP)
        assert calls == []

    def test_unstable_step_rejected_naming_the_certified_step(self, monkeypatch):
        """On net_a, h = 0.05 gives rho(P) = 1.081; h = 0.045 is stable
        although the cheap test does not certify it, and its rho(P) is
        computed once per step length, where P is built."""
        g = bundled_graph("net_a")  # a fresh object: no earlier verdict
        design = design_fixed(g, Decomposition.of(g, BUNDLED_V1["net_a"]), THETA)
        limit = _certified(reference.affine_loop(g, design)[0])
        assert 0.036 < limit < 0.045
        x = np.zeros(21)
        calls = self._eigvals_counted(monkeypatch)
        integrate_fixed(g, design, x, h=0.045, horizon=0.1)
        integrate_fixed(g, design, x, h=0.045, horizon=0.2)
        assert calls == [(21, 21)]
        self._no_piece_cut(monkeypatch)
        for _ in range(2):
            with pytest.raises(NotContractingError, match=r"spectral radius 1\.08\d* > 1; "
                               rf"steps up to h={np.floor(limit * 1e5) / 1e5:.4g} are certified"):
                integrate_fixed(g, design, x, h=0.05, horizon=40.0)
        assert len(calls) == 2
        monkeypatch.undo()
        calls = self._eigvals_counted(monkeypatch)
        integrate_fixed(g, design, x, h=limit * (1.0 - 1e-12), horizon=0.1)
        assert calls == []

    def test_unstable_step_on_one_mode_rejected_before_any_step(self, monkeypatch):
        """h = 0.05 is stable on net_b and net_c and unstable on net_a, which
        comes last in the schedule; the run is rejected before any step."""
        graphs = {0: bundled_graph("net_a"), 1: bundled_graph("net_b"), 2: bundled_graph("net_c")}
        decs = {k: Decomposition.of(g, BUNDLED_V1[f"net_{'abc'[k]}"]) for k, g in graphs.items()}
        sdesign = design_switching(graphs, decs, THETA, alpha=0.25,
                                   deltas={k: SWITCHING_DELTAS[f"net_{'abc'[k]}"] for k in graphs})
        schedule = SwitchingSchedule.uniform(0.25, [1, 2, 0], repeat=True)
        self._no_piece_cut(monkeypatch)
        with pytest.raises(NotContractingError, match=r"h=0\.05 is unstable.*h=0\.03612 are"):
            integrate_switching(schedule, sdesign, graphs, np.zeros(21), h=0.05, horizon=1.0)

    def test_certified_steps_contract(self, rng):
        """On random graphs, rho(P) < 1 at the certified limit."""
        for _ in range(20):
            g, dec = random_directed_valid(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            design = design_fixed(g, dec, rng.uniform(-2, 2, g.d) + 3.0)
            h = _certified(reference.affine_loop(g, design)[0])
            top = simulate._step_map(closed_loop(g, design).operator, h)
            p = (top if isinstance(top, np.ndarray) else top.toarray())[:, : g.n * g.d]
            assert np.abs(np.linalg.eigvals(p)).max() < 1.0

    def test_invalid_step_left_to_the_integrators(self, net_a, net_a_dec, monkeypatch):
        """A step that is not finite and positive fails the integrators'
        input check, before the step check builds a map."""
        design = design_fixed(net_a, net_a_dec, THETA)
        self._no_piece_cut(monkeypatch)
        monkeypatch.setattr(simulate, "_step_map", None)
        for h, error in ((np.nan, NonFiniteError), (np.inf, NonFiniteError),
                         (0.0, DimensionMismatchError), (-1.0, DimensionMismatchError)):
            with pytest.raises(error):
                integrate_fixed(net_a, design, np.zeros(21), h=h, horizon=1.0)


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

    def test_sequence_inputs_give_equal_hashable_schedules(self):
        made = [
            SwitchingSchedule(lengths=lengths, graph_ids=ids, alpha=0.02, repeat=True)
            for lengths, ids in (
                ([0.02, 0.03], [0, 1]),
                ((0.02, 0.03), (0, 1)),
                (np.array([0.02, 0.03]), np.array([0, 1])),
            )
        ]
        assert all(s == made[0] for s in made)
        assert len({hash(s) for s in made}) == 1
        for s in made:
            assert s.lengths == (0.02, 0.03) and s.graph_ids == (0, 1)
            assert [type(v) for v in s.lengths + s.graph_ids] == [float, float, int, int]

    def test_fractional_graph_id_rejected(self):
        with pytest.raises(TypeError):
            SwitchingSchedule(lengths=(0.02, 0.02), graph_ids=(0, 0.5), alpha=0.02)

    def test_expansion_matches_the_generator(self):
        """The array expansion gives the generator's intervals float for
        float on random schedules, with T on a switch time, one ulp either
        side of it, inside the first interval, on a multiple of the period
        and at or below 0; a schedule that does not repeat fails the same
        way."""
        rng = np.random.default_rng(19)
        checked = exhausted = 0
        for case in range(40):
            k = int(rng.integers(1, 7))
            ids = rng.integers(0, 3, k).tolist()
            if case % 2:
                lengths = rng.uniform(0.013, 0.17, k).tolist()
                alpha = min(lengths)
            else:
                lengths = [float(rng.uniform(0.01, 0.3))] * k
                alpha = lengths[0]
            for repeat in (True, False):
                s = SwitchingSchedule(lengths=lengths, graph_ids=ids, alpha=alpha, repeat=repeat)
                ends = [e for _, e, _ in reference.schedule_intervals(
                    dataclasses.replace(s, repeat=True), 7.3 * s.period)]
                switch = ends[int(rng.integers(0, len(ends) - 1))]
                for horizon in (
                    switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf),
                    switch + 1e-13, lengths[0] / 3.0, 3 * s.period, 5.0 * s.period, s.period,
                    0.0, -s.period,
                ):
                    try:
                        want = list(reference.schedule_intervals(s, horizon))
                    except ScheduleExhaustedError as exc:
                        with pytest.raises(ScheduleExhaustedError, match=re.escape(str(exc))):
                            s.intervals(horizon)
                        exhausted += 1
                        continue
                    assert list(s.intervals(horizon)) == want
                    checked += 1
        assert checked > 400 and exhausted > 100


class TestPlan:
    """A run's layout is planned once per (schedule, T, h) value and kept."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The count of plans built, from an empty cache."""
        simulate._plan.cache_clear()
        calls = []
        layout = simulate._layout

        def counted(*args):
            calls.append(args[3])  # the step
            return layout(*args)

        monkeypatch.setattr(simulate, "_layout", counted)
        yield calls
        simulate._plan.cache_clear()

    def test_march_matches_the_reference_layout(self, net_a, net_b, net_c, rng):
        """integrate_switching gives the times, states and error norm of a
        march over a plan laid out span by span from the generator's
        intervals, byte for byte, with T on, just off (a last step below
        and above the 1e-12 cut-off) and between switch times, and on
        uniform and varying interval lengths."""
        graphs, sdesign, cycle = _switching_setup(net_a, net_b, net_c)
        loops = {gid: closed_loop(graphs[gid], d) for gid, d in sdesign.designs.items()}
        varied = SwitchingSchedule(lengths=[0.021, 0.0334, 0.02, 0.05731, 0.0249],
                                   graph_ids=[2, 0, 1, 0, 2], alpha=0.02, repeat=True)
        h = 1e-3
        for schedule in (cycle, varied):
            for horizon in (0.4, np.nextafter(0.4, 0.0), 0.4 + 1e-13, 0.4 + 1e-10, 0.4137, 2.0,
                            0.0157):
                x = rng.uniform(-5.0, 5.0, 21)
                traj = integrate_switching(schedule, sdesign, graphs, x, h=h, horizon=horizon)
                times, kinds = reference.span_layout(
                    list(reference.schedule_intervals(schedule, horizon)), h)
                unit = len(schedule.graph_ids)
                plan = simulate._Plan(np.array(times), tuple(kinds), unit,
                                      reference.leading_passes(kinds, unit))
                ref = _march(graphs[0], THETA, loops, plan, x, h)
                for name in ("times", "states", "error_norm"):
                    assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_fixed_run_is_one_span(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        for horizon in (0.0105, 0.1, 0.3 + 1e-13):
            x = rng.uniform(-5.0, 5.0, 21)
            traj = integrate_fixed(net_a, design, x, h=1e-3, horizon=horizon)
            times, kinds = reference.span_layout([(0.0, horizon, 0)], 1e-3)
            plan = simulate._Plan(np.array(times), tuple(kinds), 1, 1)
            ref = _march(net_a, THETA, {0: closed_loop(net_a, design)}, plan, x, 1e-3)
            assert traj.times.tobytes() == ref.times.tobytes()
            assert traj.states.tobytes() == ref.states.tobytes()

    def test_equal_schedules_share_a_plan(self, builds, net_a, net_b, net_c):
        graphs, sdesign, cycle = _switching_setup(net_a, net_b, net_c)
        copies = [cycle, dataclasses.replace(cycle), SwitchingSchedule(
            lengths=np.array(cycle.lengths), graph_ids=list(cycle.graph_ids), alpha=cycle.alpha,
            repeat=True)]
        assert copies[1] is not cycle
        for schedule in copies:
            integrate_switching(schedule, sdesign, graphs, np.zeros(21), h=1e-3, horizon=0.2)
        assert builds == [1e-3]
        # another horizon or another step gets a plan of its own, once
        for horizon, h in ((0.3, 1e-3), (0.2, 5e-4), (0.3, 1e-3), (0.2, 5e-4)):
            integrate_switching(cycle, sdesign, graphs, np.zeros(21), h=h, horizon=horizon)
        assert builds == [1e-3, 1e-3, 5e-4]

    def test_plans_kept_are_bounded(self, builds, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        for k in range(50):
            integrate_fixed(net_a, design, np.zeros(21), h=1e-3, horizon=0.01 + 1e-3 * k)
        info = simulate._plan.cache_info()
        assert len(builds) == 50
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize <= 8

    def test_kept_arrays_are_read_only_and_runs_get_their_own_times(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        plan = simulate._plan(None, 0.05, 1e-3)
        assert not plan.times.flags.writeable
        with pytest.raises(ValueError):
            plan.times[1] = 0.0
        assert isinstance(plan.kinds, tuple)
        a, b = (integrate_fixed(net_a, design, np.zeros(21), h=1e-3, horizon=0.05)
                for _ in range(2))
        assert simulate._plan(None, 0.05, 1e-3) is plan
        assert a.times.flags.writeable and b.times.flags.writeable
        assert not np.shares_memory(a.times, b.times)
        assert not np.shares_memory(a.times, plan.times)
        a.times[1] = -1.0
        assert b.times[1] == plan.times[1] == 1e-3


# a dyadic step: intervals that are whole numbers of half steps repeat
# exactly from pass to pass, shortened steps included
DYADIC = 2.0**-10


def _random_modes(rng, case, count):
    """``count`` random graphs of one (n, d) with their decompositions:
    4-agent ones with dense step maps (nd = 12, so a stack holds 227 steps)
    or tiled 28-agent ones with CSR step maps."""
    made = [random_directed_valid(rng, 4, 3) if case == "dense" else tiled_graph(rng, 4)
            for _ in range(count)]
    return {k: g for k, (g, _) in enumerate(made)}, {k: dec for k, (_, dec) in enumerate(made)}


class TestPassRoute:
    """A repeating schedule is stepped pass by pass where its step maps are
    dense and passes are many enough, and piece by piece elsewhere; both
    agree with stage-by-stage RK4 and with the interval-by-interval piece
    chain of ``reference.piece_chain``."""

    # (pattern, interval lengths in half steps or None for lengths that are
    # no multiple of h, full passes, half steps of a last pass that T cuts):
    # spans longer than a stack with shortened steps, a one-interval
    # pattern, three kinds per pass, a cut last pass, and passes that differ
    CASES = {
        "long": ((0, 1), lambda rng: (2 * rng.integers(228, 300) + 1, rng.integers(8, 80)), 6, 0),
        "p1": ((0,), lambda rng: (rng.integers(8, 200),), 9, 0),
        "mixed": ((0, 1, 1), lambda rng: (2 * rng.integers(4, 40) + 1, 2 * rng.integers(4, 40),
                                          2 * rng.integers(4, 40) + 1), 7, 0),
        "tail": ((1, 0), lambda rng: (rng.integers(8, 120), rng.integers(8, 120)), 6, 9),
        "differ": ((0, 1), None, 8, 0),
    }

    @pytest.mark.parametrize("case", ["dense", "csr"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_stage_by_stage_and_the_piece_chain(self, case, name):
        pattern, draw, full, cut = self.CASES[name]
        rng = np.random.default_rng([len(name), ord(name[0]), case == "dense"])
        graphs, decs = _random_modes(rng, case, len(set(pattern)))
        h, passes = (1e-3, 0) if draw is None else (DYADIC, full)
        for _ in range(20):  # lengths that are no multiple of h: until the second pass differs
            lengths = (tuple(rng.uniform(0.013, 0.037, len(pattern)).tolist()) if draw is None
                       else tuple(float(k) * DYADIC / 2 for k in draw(rng)))
            schedule = SwitchingSchedule(lengths=lengths, graph_ids=pattern, alpha=min(lengths),
                                         repeat=True)
            horizon = full * schedule.period + cut * DYADIC / 2
            if _plan(schedule, horizon, h).passes == (passes or 1):
                break
        else:
            pytest.fail("no schedule drawn with the wanted passes")
        sdesign = design_switching(graphs, decs, rng.uniform(-2, 2, 3), alpha=schedule.alpha)
        loops = {gid: closed_loop(graphs[gid], d) for gid, d in sdesign.designs.items()}
        systems = _affine_loops(graphs, sdesign)
        x = rng.uniform(-5, 5, graphs[0].n * 3)
        traj = integrate_switching(schedule, sdesign, graphs, x, h=h, horizon=horizon)

        spans = list(reference.schedule_intervals(schedule, horizon))
        times, kinds = reference.span_layout(spans, h)
        assert traj.times.tobytes() == np.array(times).tobytes()
        plan = _plan(schedule, horizon, h)
        assert plan.passes == reference.leading_passes(kinds, len(pattern))
        if name == "long":
            assert max(k[1] for k in kinds) > STACK_BYTES // (12 * 12 * 8)
        if name in ("long", "mixed"):
            assert any(k[2] for k in kinds[: len(pattern)])
        for want in (_spans_stage_by_stage(systems, spans, x, h)[1],
                     reference.piece_chain(systems, kinds, x, h, dense=case == "dense")):
            assert traj.states.shape == want.shape
            rel = np.linalg.norm(traj.states - want, axis=1) / np.linalg.norm(want, axis=1)
            assert rel.max() <= 1e-13

        # the route: passes where every map is dense and 2 passes >= nd,
        # then the cut last pass piece by piece; CSR maps piece by piece
        tail = sum(reps for k in kinds[plan.passes * len(pattern):]
                   for _, reps in _cut(loops[k[0]], k[0], h, k[1], k[2], {}))
        if case == "dense" and plan.passes > 1:
            assert traj.work.passes == plan.passes
            assert traj.work.chain == plan.passes + tail
        else:
            assert traj.work.passes == 0
        if case == "csr":
            assert traj.work.chain == len(traj.times) - 1 and traj.work.fills == 0

    def test_work_of_the_bundled_cycle_and_the_tiled_run(self, net_a, net_b, net_c, tiled, rng):
        """The bundled cycle to T = 2 is 20 passes of five 20-step pieces:
        20 chain steps, one GEMM for the piece starts and one fill per piece
        of a pass.  The tiled CSR run steps one matvec per step."""
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        run = integrate_switching(schedule, sdesign, graphs, rng.uniform(-5, 5, 21), h=1e-3,
                                  horizon=2.0)
        assert run.work == simulate.Work(chain=20, passes=20, fills=6)
        g, dec = tiled
        design = design_fixed(g, dec, THETA)
        fixed = integrate_fixed(g, design, rng.uniform(-5, 5, g.n * 3), h=1e-3, horizon=0.1)
        assert fixed.work == simulate.Work(chain=100, passes=0, fills=0)

    def test_few_passes_take_the_piece_route(self, net_a, net_b, net_c, rng):
        """With 2 passes < nd = 21, composing a pass would cost more than it
        saves; the bundled cycle to T = 1 (10 passes) steps piece by piece."""
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        run = integrate_switching(schedule, sdesign, graphs, rng.uniform(-5, 5, 21), h=1e-3,
                                  horizon=1.0)
        assert _plan(schedule, 1.0, 1e-3).passes == 10
        assert run.work == simulate.Work(chain=50, passes=0, fills=3)


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
            assert isinstance(_full_step(loop, h), np.ndarray) == (case == "dense")
            if case == "dense":
                assert _cut(loop, gid, h, 80, 0.0, {})[0][0].rows < 80
        for start, end, _ in spans:
            steps = (end - start) / h
            assert abs(steps - round(steps)) > 1e-6
        x = rng.uniform(-5, 5, graphs[0].n * 3)
        traj = integrate_switching(schedule, sdesign, graphs, x, h=h, horizon=horizon)
        times, states = _spans_stage_by_stage(_affine_loops(graphs, sdesign), spans, x, h)
        assert np.array_equal(traj.times, times)
        assert traj.states.shape == states.shape
        rel = np.linalg.norm(traj.states - states, axis=1) / np.linalg.norm(states, axis=1)
        assert rel.max() <= 1e-13

    def test_contraction_bound_on_random_switching_sets(self):
        """Wherever Lambda < 1 on a random switching set (one (n, d), a
        uniform dwell alpha and a random pattern), the squared error decays
        by at least Lambda per dwell: e(k alpha)^2 <= Lambda^k e(0)^2 at
        every switch time."""
        rng = np.random.default_rng(18)
        alpha, h, intervals = 0.05, 1e-3, 40
        checked, worst = 0, 0.0
        for _ in range(60):
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            made = [(random_directed_valid if rng.random() < 0.5 else random_undirected_valid)(
                rng, n, d) for _ in range(int(rng.integers(2, 4)))]
            graphs = {k: g for k, (g, _) in enumerate(made)}
            decs = {k: dec for k, (_, dec) in enumerate(made)}
            theta = rng.uniform(-2.0, 2.0, d) + 3.0
            sdesign = design_switching(graphs, decs, theta, alpha=alpha)
            try:
                factor = contraction_factor(sdesign, graphs).factor
            except NotContractingError:
                continue
            assert factor < 1.0
            pattern = rng.integers(0, len(graphs), intervals).tolist()
            schedule = SwitchingSchedule.uniform(alpha, pattern)
            x = rng.uniform(-5.0, 5.0, n * d)
            traj = integrate_switching(schedule, sdesign, graphs, x, h=h,
                                       horizon=intervals * alpha)
            e0sq = traj.error_norm[0] ** 2
            for k in range(1, intervals + 1):
                idx = int(np.argmin(np.abs(traj.times - k * alpha)))
                assert abs(traj.times[idx] - k * alpha) < 1e-9
                ratio = traj.error_norm[idx] ** 2 / (factor**k * e0sq)
                assert ratio <= 1.0 + 1e-9
                worst = max(worst, ratio)
            checked += 1
        assert checked >= 30 and worst > 0.5

    def test_divergence_guard(self, net_a, net_b, net_c, monkeypatch):
        # loops that truly diverge, xdot = L_B x - f, at nearly the largest
        # step that the cheap test certifies on all three, with dwells of
        # four full steps and a shortened one, whose passes differ in their
        # last bits and are stepped piece by piece, and of four full steps,
        # whose passes repeat and are stepped pass by pass: only the guard
        # may report it, at the first time a stage-by-stage run fails, two
        # switches into the run
        graphs, sdesign, _ = _switching_setup(net_a, net_b, net_c)
        loops = {gid: ClosedLoop(operator=-closed_loop(graphs[gid], design).operator)
                 for gid, design in sdesign.designs.items()}
        systems = _affine_loops(graphs, sdesign)
        h = 0.99 * min(_certified(lap) for lap, _ in systems.values())
        composed = _count_calls(monkeypatch, "_march_passes")
        for quarters in (17, 16):
            dwell = quarters * h / 4
            schedule = SwitchingSchedule.uniform(dwell, [0, 1, 2], repeat=True)
            x = np.ones(21)
            failed = None
            for start, end, gid in schedule.intervals(100 * dwell):
                lap, forcing = systems[gid]
                for j in range(1, 5 + (quarters == 17)):
                    x = rk4_reference_step(-lap, -forcing, x, h if j < 5 else end - start - 4 * h)
                    if not np.abs(x).max() <= DIVERGENCE_GUARD:
                        failed = start + h * j if j < 5 else end
                        break
                if failed is not None:
                    break
            assert failed is not None and failed > 2 * dwell
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match=rf"at t={failed:.6g}$"):
                    _march(graphs[0], THETA, loops, _plan(schedule, 100 * dwell, h),
                           np.ones(21), h)
        # the whole-step dwells only
        assert len(composed) == 1

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

    def test_designs_of_differing_theta_rejected(self, net_a, net_a_dec, monkeypatch):
        """Each loop drives toward its own design's x0 = k1 theta, and the
        run carries one theta across the switches, so designs whose theta
        differ are refused before any step, naming the graph id."""
        sdesign = SwitchingDesign(designs={
            0: design_fixed(net_a, net_a_dec, THETA),
            1: design_fixed(net_a, net_a_dec, np.array([-3.0, 0.0, 4.0])),
        }, alpha=0.02)
        schedule = SwitchingSchedule.uniform(0.02, [0, 1], repeat=True)
        monkeypatch.setattr(simulate, "_cut", None)
        with pytest.raises(DimensionMismatchError, match=r"graph 1's design has theta"):
            integrate_switching(schedule, sdesign, {0: net_a, 1: net_a}, np.zeros(21),
                                h=1e-3, horizon=0.1)

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
        systems = _affine_loops(graphs, sdesign)
        for k, gid in enumerate((0, 0, 1, 2, 2)):
            lap, forcing = systems[gid]
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
        # 100 intervals, each six 3e-3 steps and a shortened one; one full
        # step map per graph
        once = len(built)
        assert 0 < once == len(set(built)) < 100
        assert sum(length == 3e-3 for _, length in built) == 3
        # only the full step's maps are kept with the graphs: a second run
        # builds the shortened steps' maps again, the full step's none, and
        # lands on the same states
        again = integrate_switching(schedule, sdesign, graphs, x, h=3e-3, horizon=2.0)
        assert sorted(built[once:]) == sorted(b for b in built[:once] if b[1] != 3e-3)
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


class TestConsensusFixedPoint:
    """1 (x) theta is an equilibrium of every mode for every theta: the
    operator sends psi = [1 (x) I; I] to 0, and every kept step map and
    stack, and a shortened step's map, sends it to 1 (x) I.  This is the
    simulation-side form of the augmented null space being span psi."""

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("rule", ["margin", "pinned"])
    def test_maps_fix_the_consensus_space(self, storage, rule):
        rng = np.random.default_rng([storage == "dense", rule == "pinned", 21])
        for _ in range(8):
            if storage == "dense":
                make = random_directed_valid if rng.random() < 0.5 else random_undirected_valid
                g, dec = make(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
            else:
                g, dec = tiled_graph(rng, int(rng.integers(6, 10)))
            delta = None if rule == "margin" else float(rng.uniform(0.5, 20.0))
            design = design_fixed(g, dec, rng.uniform(-2, 2, g.d), delta=delta)
            nd, d = g.n * g.d, g.d
            psi = np.vstack([np.tile(np.eye(d), (g.n, 1)), np.eye(d)])
            loop = closed_loop(g, design)
            scale = abs(loop.operator).max()
            assert np.abs(loop.operator @ psi).max() <= 1e-13 * scale
            h = min(1e-2, 0.5 * _certified(reference.affine_loop(g, design)[0]))
            integrate_fixed(g, design, np.zeros(nd), h=h, horizon=80.5 * h)
            kept = {key: top for key, top in loop.maps.items() if key[1]}
            kept["short"] = simulate._step_map(loop.operator, h / 2)
            assert len(kept) == (2 if storage == "csr" else 3)
            for top in kept.values():
                assert isinstance(top, np.ndarray) == (storage == "dense")
                want = np.tile(np.eye(d), (top.shape[0] // d, 1))
                assert np.abs(top @ psi - want).max() <= 1e-12


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


def _run_about(rng, samples, theta=THETA, n=7):
    """A hand-made run of ``samples`` samples about theta.  Before a random
    sample, each sample fails the tolerance with probability 1/2 in one
    random entry; after it every sample passes, and the last one fails with
    probability 1/4.  Half of the runs have their times shuffled."""
    nd = n * theta.size
    states = np.tile(theta, n) + rng.uniform(-0.5, 0.5, (samples, nd)) * simulate.DEFAULT_TOL
    settle = rng.integers(0, samples + 1)
    bad = (np.arange(samples) < settle) & (rng.random(samples) < 0.5)
    bad[-1] |= rng.random() < 0.25
    rows = np.flatnonzero(bad)
    states[rows, rng.integers(0, nd, rows.size)] += (
        rng.choice([-1.0, 1.0], rows.size) * rng.uniform(1.0, 2.0, rows.size) * simulate.DEFAULT_TOL
    )
    times = np.linspace(0.0, 1.0, samples)
    if rng.random() < 0.5:
        times = rng.permutation(times)
    return Trajectory(times=times, states=states, error_norm=np.zeros(samples),
                      n=n, d=theta.size, theta=theta)


class TestChunkedConvergenceReport:
    """``convergence_report`` reads the states in chunks from the end and
    stops early; it gives the whole-run report of ``reference``."""

    @pytest.mark.parametrize(
        "samples", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 3 * CHUNK + 7]
    )
    def test_matches_whole_run_report_on_random_runs(self, samples):
        rng = np.random.default_rng(samples)
        for _ in range(25):
            traj = _run_about(rng, samples)
            for theta in (None, THETA + 6e-4, rng.uniform(-2, 2, 3)):
                assert convergence_report(traj, theta) == whole_run_report(traj, theta)

    @pytest.mark.parametrize(
        "last_bad", [0, CHUNK - 2, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 3 * CHUNK - 2]
    )
    def test_settle_time_on_a_chunk_boundary(self, last_bad):
        traj = _run_about(np.random.default_rng(1), 3 * CHUNK)
        traj.states[:] = np.tile(THETA, 7)
        traj.times[:] = np.linspace(0.0, 1.0, 3 * CHUNK)
        traj.states[last_bad, 5] += 2 * simulate.DEFAULT_TOL
        report = convergence_report(traj)
        assert report == whole_run_report(traj)
        assert report.settle_time == traj.times[last_bad + 1]
        # only the last failing sample lies in the window
        assert report.converged == (last_bad == 0 or last_bad < 2 * CHUNK)
        # another theta moves every sample out of the tolerance
        other = convergence_report(traj, THETA + 2e-3)
        assert other == whole_run_report(traj, THETA + 2e-3)
        assert not other.converged and other.settle_time is None

    def test_run_that_never_settles(self, net_a, net_b, net_c, rng):
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        x = rng.uniform(-5, 5, 21)
        traj = integrate_switching(schedule, sdesign, graphs, x, h=1e-3, horizon=2.0)
        for theta in (None, THETA, -THETA):
            report = convergence_report(traj, theta)
            assert report == whole_run_report(traj, theta)
            assert not report.converged and report.settle_time is None

    def test_report_allocates_under_a_quarter_of_the_states(self, net_a, net_b, net_c, rng):
        graphs, sdesign, schedule = _switching_setup(net_a, net_b, net_c)
        x = rng.uniform(-5, 5, 21)
        run = integrate_switching(schedule, sdesign, graphs, x, h=1e-3, horizon=2.0)
        # the bundled run, and one at its target, which is read to its start
        settled = Trajectory(times=run.times, states=np.tile(THETA, (len(run.times), 7)),
                             error_norm=run.error_norm, n=7, d=3, theta=THETA)
        for traj in (run, settled):
            tracemalloc.start()
            try:
                report = convergence_report(traj)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < traj.states.nbytes / 4
            assert report == whole_run_report(traj)
        assert report.settle_time == 0.0
