"""Deterministic fixed-step integration of the coupled dynamics.

The closed loop is affine, xdot = -L_B x + Delta_B x0, so each step is four
matrix-vector products; switch times are landed on exactly with a shortened
final step per interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    ScheduleExhaustedError,
)
from .graph import SignedGraph
from .protocol import ProtocolDesign, SwitchingDesign, design_laplacians

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


def _affine_parts(g: SignedGraph, design: ProtocolDesign) -> Tuple[np.ndarray, np.ndarray]:
    grounded, augmented = design_laplacians(g, design)
    nd = g.n * g.d
    return grounded.matrix, -augmented.matrix[:nd, nd:] @ design.x0


def _rk4_span(
    lap: np.ndarray,
    forcing: np.ndarray,
    x: np.ndarray,
    t0: float,
    span: float,
    h: float,
    times: List[float],
    states: List[np.ndarray],
) -> np.ndarray:
    """March x over [t0, t0 + span], appending each landed sample; the last
    step is shortened to land on the right endpoint exactly.

    For the affine field f - L x the classic RK4 step is
    x + h sum_{j<4} (-hL)^j (f - L x) / (j+1)!, evaluated here by Horner's
    rule: the same four matvecs per step with fewer vector temporaries than
    the stage-by-stage form, and no scaled copy of L."""
    n_full = int(np.floor(span / h + 1e-9))
    remainder = span - n_full * h
    t = t0
    for step, count in ((h, n_full), (remainder, int(remainder > 1e-12))):
        c2, c3, c4 = step / 2.0, step / 3.0, step / 4.0
        for _ in range(count):
            r = forcing - lap @ x
            u = r - (lap @ r) * c4
            u = r - (lap @ u) * c3
            u = r - (lap @ u) * c2
            x = x + step * u
            t += step
            if np.abs(x).max() > DIVERGENCE_GUARD:
                raise NonFiniteError(f"state exceeded {DIVERGENCE_GUARD:g} at t={t:.6g}")
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
    if h <= 0 or horizon < h:
        raise DimensionMismatchError(f"need 0 < h <= T, got h={h}, T={horizon}")
    x = np.asarray(x_init, dtype=float).reshape(-1).copy()
    if x.shape[0] != g.n * g.d:
        raise DimensionMismatchError(
            f"x_init has length {x.shape[0]}, expected {g.n * g.d}"
        )
    lap, forcing = _affine_parts(g, design)
    times: List[float] = [0.0]
    states: List[np.ndarray] = [x]
    _rk4_span(lap, forcing, x, 0.0, horizon, h, times, states)
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
    if h > schedule.alpha / 4.0 + 1e-15:
        raise DimensionMismatchError(
            f"step h={h:g} must not exceed a quarter of the dwell time {schedule.alpha:g}"
        )
    first = next(iter(graphs.values()))
    x = np.asarray(x_init, dtype=float).reshape(-1).copy()
    if x.shape[0] != first.n * first.d:
        raise DimensionMismatchError(
            f"x_init has length {x.shape[0]}, expected {first.n * first.d}"
        )
    parts = {
        gid: _affine_parts(graphs[gid], sdesign.designs[gid])
        for gid in sdesign.designs
    }
    theta = next(iter(sdesign.designs.values())).theta
    times: List[float] = [0.0]
    states: List[np.ndarray] = [x]
    for start, end, gid in schedule.intervals(horizon):
        if gid not in parts:
            raise ScheduleExhaustedError(f"schedule references unknown graph id {gid}")
        lap, forcing = parts[gid]
        x = _rk4_span(lap, forcing, x, start, end - start, h, times, states)
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
