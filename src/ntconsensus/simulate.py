"""Deterministic fixed-step integration of the coupled dynamics.

The closed loop is affine, xdot = -L_B x + Delta_B x0, so a classic RK4 step
of constant length h is one affine map x <- P x + q (see ``_rk4_map``), and
m steps are x_k = P^k x + o_k (see ``_powers``).  This module owns how the
loop is stepped.  Both integrators march their spans, one for a fixed run and
one per interval of a switching run, in two levels (``_march``): a chain of
one matvec per piece of up to m steps takes the state from piece end to piece
end, then one GEMM per distinct piece fills in the samples between.  Samples sit at t0 + k h, and each span
ends with a shortened step that lands on its end exactly (a switch time or T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    ScheduleExhaustedError,
)
from .graph import SignedGraph
from .protocol import ClosedLoop, ProtocolDesign, SwitchingDesign, _first_of_one_shape, closed_loop

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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


StepMap = Tuple["np.ndarray | csr_matrix", np.ndarray]  # (P, q), or a stack (S, o)

# byte budget of one stack of step-map powers (see _cut)
STACK_BYTES = 1 << 18


def _rk4_map(loop: ClosedLoop, h: float) -> StepMap:
    """(P, q) such that the classic RK4 step of length h is x <- P x + q.

    On an affine field the step is exactly this map: with A = -h L_B,
    P = R(A) = I + A S(A) and q = h S(A) f, where
    S(A) = I + A/2 + A^2/6 + A^3/24 is evaluated by Horner's rule.  The
    storage follows L_B: when more than a quarter of its entries are
    nonzero the map is built and kept dense (P's pattern holds L_B's, so P
    is at least as full), otherwise in CSR form."""
    import scipy.sparse

    lap = loop.laplacian
    nd = lap.shape[0]
    if 4 * lap.nnz > nd * nd:
        lap, eye = lap.toarray(), np.eye(nd)
    else:
        eye = scipy.sparse.identity(nd, format="csr")
    a = lap * -h
    s = eye + a / 4.0
    s = eye + (a @ s) / 3.0
    s = eye + (a @ s) / 2.0
    p = eye + a @ s
    return p, h * (s @ loop.forcing)


def _powers(p: np.ndarray, q: np.ndarray, m: int) -> StepMap:
    """(S, o) such that m steps x <- P x + q from x land on the rows of
    ``(S @ x).reshape(m, nd) + o``: S stacks [P; P^2; ...; P^m] and o holds
    [q; Pq + q; ...]; the first r < m rows of both serve r steps.  Built by
    doubling: with its first c rows done, k = min(c, m - c) more come from
    one GEMM each, S[c:c+k] = S[:k] P^c and o[c:c+k] = S[:k] o_c + o[:k], so
    ceil(log2 m) products in all.  An unstable P may overflow in its powers;
    those rows come out inf or NaN and fail the caller's guard."""
    nd = q.shape[0]
    stack, offsets = np.empty((m * nd, nd)), np.empty((m, nd))
    stack[:nd], offsets[0] = p, q
    c = 1
    while c < m:
        k = min(c, m - c)
        head, power = stack[: k * nd], stack[(c - 1) * nd : c * nd]
        np.matmul(head, power, out=stack[c * nd : (c + k) * nd])
        offsets[c : c + k] = (head @ offsets[c - 1]).reshape(k, nd) + offsets[:k]
        c += k
    return stack, offsets


class _Piece(NamedTuple):
    """The first ``rows`` rows of a stack (S, o) from ``_powers`` (a step
    map is the one-row stack (P, q[None])), its end map
    x <- end @ x + offset, and the rows of the samples that its occurrences
    start from."""

    end: "np.ndarray | csr_matrix"
    offset: np.ndarray
    rows: int
    stack: "np.ndarray | csr_matrix"
    offsets: np.ndarray
    starts: List[int]


def _cut(
    loop: ClosedLoop,
    gid: int,
    h: float,
    steps: int,
    remainder: float,
    stacks: Dict[tuple, StepMap],
    pieces: Dict[tuple, _Piece],
) -> List[Tuple[_Piece, int]]:
    """One kind of span on graph ``gid`` cut into pieces in time order, with
    repeat counts: ``steps`` full steps in blocks of m rows (the last block
    shorter), then the shortened step if ``remainder`` is not 0.  For a
    step length, m = min(steps, STACK_BYTES // (nd^2 * 8)), and m = 1 when
    P is CSR (its powers fill in) or too large for the budget.  Step maps
    and stacks are built once per (gid, step length, m) into ``stacks``,
    pieces once per (gid, step length, m, rows) into ``pieces``.  A piece's
    end map is its stack's row block ``rows``; a one-row stack, a CSR P
    among them, is its own end map and is never sliced."""
    cut = []
    for length, count in ((h, steps), (remainder, 1 if remainder else 0)):
        if not count:
            continue
        if (gid, length, 1) not in stacks:
            p, q = _rk4_map(loop, length)
            stacks[(gid, length, 1)] = (p, q[None, :])
        p, q = stacks[(gid, length, 1)]
        m = max(1, min(count, STACK_BYTES // p.nbytes)) if isinstance(p, np.ndarray) else 1
        if (gid, length, m) not in stacks:
            stacks[(gid, length, m)] = _powers(p, q[0], m)
        stack, offsets = stacks[(gid, length, m)]
        for rows, reps in ((m, count // m), (count % m, 1)):
            if not rows:
                continue
            key = (gid, length, m, rows)
            if key not in pieces:
                nd = offsets.shape[1]
                end = stack if m == 1 else stack[(rows - 1) * nd : rows * nd]
                pieces[key] = _Piece(end, offsets[rows - 1], rows, stack, offsets, [])
            cut.append((pieces[key], reps))
    return cut


def _march(
    g: SignedGraph,
    theta: np.ndarray,
    loops: Mapping[int, ClosedLoop],
    spans: Sequence[Tuple[float, float, int]],
    x: np.ndarray,
    h: float,
) -> Trajectory:
    """March x through the spans (start, end, key of its loop) in order,
    sampling after every step: floor((end - start) / h) full steps at
    start + j h, then, if more than 1e-12 is left, a shortened step that
    lands on end exactly.  Each kind of span (loop, full steps, remainder) is
    cut into pieces once (``_cut``).  A chain of one matvec per piece with
    its end map takes the state from piece end to piece end in time order;
    then one GEMM per distinct piece fills the interior samples of all its
    occurrences from their start states.  A CSR map has one-row pieces, so
    its states are those of stepping x <- P x + q; elsewhere they agree with
    stage-by-stage RK4 to about 1e-14 relative.  The guard checks every
    sample once and names the first that fails."""
    starts = np.array([span[0] for span in spans])
    ends = np.array([span[1] for span in spans])
    lengths = ends - starts
    full = np.floor(lengths / h + 1e-9).astype(np.int64)
    remainders = lengths - full * h
    short = remainders > 1e-12
    counts = full + short
    last = np.cumsum(counts)  # row of each span's last sample; row 0 holds x
    first = last - counts
    times = np.empty(last[-1] + 1)
    times[0] = 0.0
    times[1:] = np.repeat(starts, counts) + h * (
        np.arange(1, last[-1] + 1) - np.repeat(first, counts)
    )
    times[last[counts > 0]] = ends[counts > 0]

    nd = x.shape[0]
    states = np.empty((len(times), nd))
    states[0] = x
    # the run's only cache: step maps and stacks, pieces, and each kind's cut
    stacks: Dict[tuple, StepMap] = {}
    pieces: Dict[tuple, _Piece] = {}
    cuts: Dict[tuple, List[Tuple[_Piece, int]]] = {}
    row = 0
    # an unstable map overflows in the chain or in its powers; the guard
    # reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        for kind in zip(
            [span[2] for span in spans], full.tolist(), np.where(short, remainders, 0.0).tolist()
        ):
            if kind not in cuts:
                gid, steps, remainder = kind
                cuts[kind] = _cut(loops[gid], gid, h, steps, remainder, stacks, pieces)
            for (end, offset, rows, _, _, at), reps in cuts[kind]:
                for _ in range(reps):
                    if rows > 1:
                        at.append(row)
                    x = end @ x + offset
                    row += rows
                    states[row] = x
        for _, _, rows, stack, offsets, at in pieces.values():
            if at:
                at = np.array(at)
                fill = (states[at] @ stack[: (rows - 1) * nd].T).reshape(len(at), rows - 1, nd)
                fill += offsets[: rows - 1]
                states[at[:, None] + np.arange(1, rows)] = fill
    # max and min pass a NaN on, so a NaN state fails the test too; no
    # full-size temporary is made unless a sample fails and must be named
    if not (states[1:].max() <= DIVERGENCE_GUARD and states[1:].min() >= -DIVERGENCE_GUARD):
        ok = np.abs(states[1:]).max(axis=1) <= DIVERGENCE_GUARD
        raise NonFiniteError(
            f"state exceeded {DIVERGENCE_GUARD:g} or became NaN"
            f" at t={times[1 + np.argmin(ok)]:.6g}"
        )
    err = np.linalg.norm(states - np.tile(theta, g.n), axis=1)
    return Trajectory(times=times, states=states, error_norm=err, n=g.n, d=g.d, theta=theta)


def integrate_fixed(
    g: SignedGraph,
    design: ProtocolDesign,
    x_init: np.ndarray,
    h: float = DEFAULT_STEP,
    horizon: float = 1.0,
) -> Trajectory:
    """Classic fourth-order fixed-step run of the fixed-topology loop."""
    x = _initial_state(x_init, g.n * g.d, h, horizon)
    return _march(g, design.theta, {0: closed_loop(g, design)}, [(0.0, horizon, 0)], x, h)


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
    """Piecewise integration with steps aligned to every switch time.  Every
    graph must have the (n, d) of the graph with the smallest id, and every
    graph id of the design must be in ``graphs``; otherwise this raises
    ``DimensionMismatchError`` before any step."""
    first = _first_of_one_shape(graphs)
    for gid in sdesign.designs:
        if gid not in graphs:
            raise DimensionMismatchError(f"the design has graph id {gid}, which has no graph")
    x = _initial_state(x_init, first.n * first.d, h, horizon)
    if h > schedule.alpha / 4.0 + 1e-15:
        raise DimensionMismatchError(
            f"step h={h:g} must not exceed a quarter of the dwell time {schedule.alpha:g}"
        )
    loops = {gid: closed_loop(graphs[gid], design) for gid, design in sdesign.designs.items()}
    spans = list(schedule.intervals(horizon))
    for _, _, gid in spans:
        if gid not in loops:
            raise ScheduleExhaustedError(f"schedule references unknown graph id {gid}")
    theta = next(iter(sdesign.designs.values())).theta
    return _march(first, theta, loops, spans, x, h)


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
    th = traj.theta if theta is None else np.asarray(theta, dtype=float).reshape(-1)
    if th.shape[0] != traj.d:
        raise DimensionMismatchError(f"theta has dimension {th.shape[0]}, run has d={traj.d}")
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
