"""Deterministic fixed-step integration of the coupled dynamics.

The closed loop is affine, xdot = -L_B x + Delta_B x0, so a classic RK4 step
of constant length h is one affine map x <- P x + q (see
``ClosedLoop.rk4_map``), and m steps are x_k = P^k x + o_k.  A span of full
steps is taken in blocks: one product of the stacked powers [P; ...; P^m]
with the state gives all m samples of a block (``ClosedLoop.step_block``).
m is capped so that one stack fits in ``protocol.STACK_BYTES``; a CSR step
map (its powers fill in) or one too large for the budget steps one sample
per product.  Samples sit at t0 + k h, and each span ends with a shortened
step that lands on its end exactly (a switch time or T).
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
    if not 0 < h <= horizon:
        raise DimensionMismatchError(f"need 0 < h <= T, got h={h}, T={horizon}")
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
    t1: float,
    h: float,
    times: List[np.ndarray],
    states: List[np.ndarray],
) -> np.ndarray:
    """March x over [t0, t1], appending the landed samples block by block.

    Full steps go in blocks of ``loop.step_block`` rows, one product per
    block, at times t0 + j h; the last step is shortened to land on t1
    exactly, with the map of its own length, which ``loop.step_map`` keeps
    per exact remainder (a periodic schedule repeats a few of them).  A block
    is checked as a whole and the first sample in it that fails names the
    time."""
    n_full = int(np.floor((t1 - t0) / h + 1e-9))
    remainder = (t1 - t0) - n_full * h
    runs = [(n_full, loop.step_block(h, n_full))] if n_full else []
    if remainder > 1e-12:
        p, q = loop.step_map(remainder)
        runs.append((1, (p, q[None, :])))
    span_times = t0 + h * np.arange(1, sum(steps for steps, _ in runs) + 1)
    span_times[-1:] = t1
    times.append(span_times)
    done = 0
    for steps, (stack, offsets) in runs:
        m, nd = offsets.shape
        for j in range(0, steps, m):
            r = min(m, steps - j)
            s, o = (stack, offsets) if r == m else (stack[: r * nd], offsets[:r])
            block = (s @ x).reshape(r, nd) + o
            # written so that a NaN state fails the test too
            ok = np.abs(block).max(axis=1) <= DIVERGENCE_GUARD
            if not ok.all():
                raise NonFiniteError(
                    f"state exceeded {DIVERGENCE_GUARD:g} or became NaN"
                    f" at t={span_times[done + np.argmin(ok)]:.6g}"
                )
            states.append(block)
            x = block[-1]
            done += r
    return x


def _as_trajectory(
    times: List[np.ndarray], states: List[np.ndarray], g: SignedGraph, theta: np.ndarray
) -> Trajectory:
    t = np.concatenate(times)
    s = np.concatenate(states)
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
    times: List[np.ndarray] = [np.zeros(1)]
    states: List[np.ndarray] = [x[None, :]]
    # an unstable map overflows inside a block; the guard reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_span(closed_loop(g, design), x, 0.0, horizon, h, times, states)
    return _as_trajectory(times, states, g, design.theta)


@dataclass(frozen=True)
class SwitchingSchedule:
    """Piecewise-constant graph assignment: from t = 0 the intervals follow
    one another, graph_ids[k] active for lengths[k].  With ``repeat`` the
    listed pattern cycles forever, with the sum of the lengths as period."""

    lengths: Tuple[float, ...]        # one per interval, each at least alpha
    graph_ids: Tuple[int, ...]        # one per interval
    alpha: float
    repeat: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and np.all(np.isfinite(self.lengths))):
            raise NonFiniteError("dwell time and interval lengths must be finite")
        if self.alpha <= 0:
            raise DimensionMismatchError(f"dwell time must be positive, got {self.alpha}")
        if not self.lengths:
            raise DimensionMismatchError("a schedule needs at least one interval")
        if len(self.graph_ids) != len(self.lengths):
            raise DimensionMismatchError("need one graph id per interval")
        if min(self.lengths) < self.alpha - 1e-12:
            raise DimensionMismatchError("an interval is shorter than the dwell time")

    @staticmethod
    def uniform(
        dt: float, graph_ids: Sequence[int], alpha: Optional[float] = None, repeat: bool = False
    ) -> "SwitchingSchedule":
        return SwitchingSchedule(
            lengths=(dt,) * len(graph_ids),
            graph_ids=tuple(graph_ids),
            alpha=dt if alpha is None else alpha,
            repeat=repeat,
        )

    def _edges(self) -> Tuple[float, ...]:
        """0, the switch times within one pass, and the period."""
        return (0.0,) + tuple(np.cumsum(self.lengths).tolist())

    @property
    def switch_times(self) -> Tuple[float, ...]:
        return self._edges()[:-1]

    @property
    def period(self) -> float:
        return self._edges()[-1]

    def intervals(self, horizon: float) -> Iterator[Tuple[float, float, int]]:
        """Yield (start, end, graph_id) covering [0, horizon]."""
        edges = self._edges()
        period = edges[-1]
        offset = 0.0
        while True:
            for idx, gid in enumerate(self.graph_ids):
                start = offset + edges[idx]
                end = offset + edges[idx + 1]
                if start >= horizon:
                    return
                yield start, min(end, horizon), gid
                if end >= horizon:
                    return
            if not self.repeat:
                raise ScheduleExhaustedError(
                    f"schedule ends at t={period:g} < T={horizon:g} and does not repeat"
                )
            offset += period


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
    times: List[np.ndarray] = [np.zeros(1)]
    states: List[np.ndarray] = [x[None, :]]
    with np.errstate(over="ignore", invalid="ignore"):
        for start, end, gid in schedule.intervals(horizon):
            if gid not in loops:
                raise ScheduleExhaustedError(f"schedule references unknown graph id {gid}")
            x = _rk4_span(loops[gid], x, start, end, h, times, states)
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
