"""Deterministic fixed-step integration of the coupled dynamics.

The closed loop is affine, xdot = -L_B x + Delta_B x0, so a classic RK4 step
of constant length h is one affine map x <- P x + q (see
``ClosedLoop.rk4_map``); each step is one matrix-vector product.  Switch
times are landed on exactly with a shortened final step per interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    ScheduleExhaustedError,
)
from .graph import SignedGraph
from .protocol import ClosedLoop, ProtocolDesign, SwitchingDesign, closed_loop

DIVERGENCE_GUARD = 1e12
DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-3
DEFAULT_WINDOW = 0.05


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray        # (m,)
    states: np.ndarray       # (m, n*d)
    error_norm: np.ndarray   # (m,) Euclidean distance to the consensus target
    n: int
    d: int
    theta: np.ndarray


def _initial_state(x_init: np.ndarray, nd: int, h: float, horizon: float) -> np.ndarray:
    """Check the run inputs shared by both integrators; return a copy of x_init."""
    if not (math.isfinite(h) and math.isfinite(horizon)):
        raise NonFiniteError(f"step and horizon must be finite, got h={h}, T={horizon}")
    if h <= 0:
        raise DimensionMismatchError(f"step must be positive, got h={h}")
    x = np.asarray(x_init, dtype=float).reshape(-1).copy()
    if x.shape[0] != nd:
        raise DimensionMismatchError(f"x_init has length {x.shape[0]}, expected {nd}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("x_init has NaN or infinite entries")
    return x


def _rk4_span(
    loop: ClosedLoop,
    x: np.ndarray,
    t0: float,
    span: float,
    h: float,
    times: List[float],
    states: List[np.ndarray],
) -> np.ndarray:
    """March x over [t0, t0 + span], appending each landed sample; the last
    step is shortened to land on the right endpoint exactly, with a map of
    its own that is not kept on the loop."""
    n_full = int(np.floor(span / h + 1e-9))
    remainder = span - n_full * h
    runs = [(h, n_full, loop.step_map(h))]
    if remainder > 1e-12:
        runs.append((remainder, 1, loop.rk4_map(remainder)))
    t = t0
    for step, count, (p, q) in runs:
        for _ in range(count):
            x = p @ x + q
            t += step
            # written so that a NaN state fails the test too
            if not np.abs(x).max() <= DIVERGENCE_GUARD:
                raise NonFiniteError(
                    f"state exceeded {DIVERGENCE_GUARD:g} or became NaN at t={t:.6g}"
                )
            times.append(t)
            states.append(x)
    return x


def _as_trajectory(
    times: List[float], states: List[np.ndarray], g: SignedGraph, theta: np.ndarray
) -> Trajectory:
    t = np.array(times)
    s = np.vstack(states)
    target = np.tile(theta, g.n)
    err = np.linalg.norm(s - target, axis=1)
    return Trajectory(times=t, states=s, error_norm=err, n=g.n, d=g.d, theta=theta)


def integrate_fixed(
    g: SignedGraph,
    design: ProtocolDesign,
    x_init: np.ndarray,
    h: float = DEFAULT_STEP,
    horizon: float = 1.0,
) -> Trajectory:
    """Classic fourth-order fixed-step run of the fixed-topology loop."""
    x = _initial_state(x_init, g.n * g.d, h, horizon)
    if horizon < h:
        raise DimensionMismatchError(f"need 0 < h <= T, got h={h}, T={horizon}")
    times: List[float] = [0.0]
    states: List[np.ndarray] = [x]
    _rk4_span(closed_loop(g, design), x, 0.0, horizon, h, times, states)
    return _as_trajectory(times, states, g, design.theta)


@dataclass(frozen=True)
class SwitchingSchedule:
    """Piecewise-constant graph assignment: graph_ids[k] is active on
    [switch_times[k], switch_times[k+1]).  With ``repeat`` the listed pattern
    cycles forever."""

    switch_times: Tuple[float, ...]   # t_0 = 0, strictly increasing
    graph_ids: Tuple[int, ...]        # one per interval
    alpha: float
    repeat: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and np.all(np.isfinite(self.switch_times))):
            raise NonFiniteError("dwell time and switch times must be finite")
        if self.alpha <= 0:
            raise DimensionMismatchError(f"dwell time must be positive, got {self.alpha}")
        if not self.switch_times or self.switch_times[0] != 0.0:
            raise DimensionMismatchError("switch times must start at 0")
        if len(self.graph_ids) != len(self.switch_times):
            raise DimensionMismatchError("need one graph id per interval")
        dts = np.diff(self.switch_times)
        if np.any(dts < self.alpha - 1e-12):
            raise DimensionMismatchError("an interval is shorter than the dwell time")

    @staticmethod
    def uniform(
        dt: float, graph_ids: Sequence[int], alpha: Optional[float] = None, repeat: bool = False
    ) -> "SwitchingSchedule":
        times = tuple(k * dt for k in range(len(graph_ids)))
        return SwitchingSchedule(
            switch_times=times,
            graph_ids=tuple(graph_ids),
            alpha=dt if alpha is None else alpha,
            repeat=repeat,
        )

    @property
    def period(self) -> float:
        dts = list(np.diff(self.switch_times))
        last = dts[-1] if dts else self.alpha
        return self.switch_times[-1] + last

    def intervals(self, horizon: float) -> Iterator[Tuple[float, float, int]]:
        """Yield (start, end, graph_id) covering [0, horizon]."""
        k = len(self.switch_times)
        dts = list(np.diff(self.switch_times))
        dts.append(self.period - self.switch_times[-1])
        offset = 0.0
        while True:
            for idx in range(k):
                start = offset + self.switch_times[idx]
                end = start + dts[idx]
                if start >= horizon:
                    return
                yield start, min(end, horizon), self.graph_ids[idx]
                if end >= horizon:
                    return
            if not self.repeat:
                raise ScheduleExhaustedError(
                    f"schedule ends at t={self.period:g} < T={horizon:g} and does not repeat"
                )
            offset += self.period


def integrate_switching(
    schedule: SwitchingSchedule,
    sdesign: SwitchingDesign,
    graphs: Mapping[int, SignedGraph],
    x_init: np.ndarray,
    h: float = DEFAULT_STEP,
    horizon: float = 1.0,
) -> Trajectory:
    """Piecewise integration with steps aligned to every switch time."""
    first = next(iter(graphs.values()))
    x = _initial_state(x_init, first.n * first.d, h, horizon)
    if h > schedule.alpha / 4.0 + 1e-15:
        raise DimensionMismatchError(
            f"step h={h:g} must not exceed a quarter of the dwell time {schedule.alpha:g}"
        )
    loops = {gid: closed_loop(graphs[gid], design) for gid, design in sdesign.designs.items()}
    theta = next(iter(sdesign.designs.values())).theta
    times: List[float] = [0.0]
    states: List[np.ndarray] = [x]
    for start, end, gid in schedule.intervals(horizon):
        if gid not in loops:
            raise ScheduleExhaustedError(f"schedule references unknown graph id {gid}")
        x = _rk4_span(loops[gid], x, start, end - start, h, times, states)
    return _as_trajectory(times, states, first, theta)


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    final_error: float            # max per-agent infinity-norm error at the end
    settle_time: Optional[float]  # first time after which the tolerance holds

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "finalError": self.final_error,
            "settleTime": self.settle_time,
        }


def convergence_report(
    traj: Trajectory, theta: Optional[np.ndarray] = None
) -> ConvergenceReport:
    """Judge convergence to the preset state: every sample in the trailing
    ``DEFAULT_WINDOW`` fraction of the run must be within ``DEFAULT_TOL`` of
    theta in the per-agent infinity norm."""
    th = traj.theta if theta is None else np.asarray(theta, dtype=float)
    dev = np.abs(traj.states - np.tile(th, traj.n))
    per_sample = dev.reshape(len(traj.times), traj.n, traj.d).max(axis=(1, 2))
    horizon = traj.times[-1]
    tail = traj.times >= (1.0 - DEFAULT_WINDOW) * horizon
    converged = bool(np.all(per_sample[tail] < DEFAULT_TOL))
    settle: Optional[float] = None
    if per_sample[-1] < DEFAULT_TOL:
        bad = np.nonzero(per_sample >= DEFAULT_TOL)[0]
        settle = 0.0 if bad.size == 0 else float(traj.times[min(bad[-1] + 1, len(traj.times) - 1)])
    return ConvergenceReport(
        converged=converged,
        final_error=float(per_sample[-1]),
        settle_time=settle,
    )
