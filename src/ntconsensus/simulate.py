"""Deterministic fixed-step integration of the coupled dynamics.

The closed loop is affine, xdot = -L_B x + F x0, so a classic RK4 step of
constant length h is one affine map x <- P x + q (see ``_step_map``), and m
steps are x_k = P^k x + o_k (see ``_powers`` and ``_offsets``).  This module
owns how the loop is stepped.  P, its power stacks and their offset columns,
the offsets per unit of x0, depend on L_B and F alone, so those of the full
step are built once per graph object, design and step length and kept in the
loop's ``maps`` (see ``protocol.ClosedLoop``), which hold one step length,
with the verdict on whether the step is stable (``_full_step``); the offsets
themselves follow x0, and so theta, and are one product with x0 per stack and
run, and the shortened step's map is built on every run.  A run's layout,
its spans (one for a fixed run and one per interval of a switching run), its
sample times and its passes, the leading passes of the schedule that repeat
the first span for span, depends on (schedule, T, h) alone; it is planned
once and kept (``_plan``).  Both integrators march the plan in three levels
(``_march``): passes, pieces of up to m steps, and steps.  The state goes
from pass start to pass start by the composed map of one pass, where the
maps are dense, and from piece end to piece end elsewhere; GEMMs fill in
the samples between.  Samples sit at t0 + k h, and each span ends with a
shortened step that lands on its end exactly (a switch time or T).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotContractingError,
    ScheduleExhaustedError,
)
from .graph import SignedGraph
from .protocol import (
    ClosedLoop, ProtocolDesign, SwitchingDesign, _first_of_one_shape, _read_only, closed_loop,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

DIVERGENCE_GUARD = 1e12
DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-3
DEFAULT_WINDOW = 0.05
# the radius of the closed left half-disc in classic RK4's stability region
# |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1; the largest is 2.61559 to five places
RK4_RADIUS = 2.6155


class Work(NamedTuple):
    """What ``_march`` did in a run: the chain's matvecs (one per pass
    stepped by a composed pass map, one per piece elsewhere), the passes
    stepped by a composed pass map, and the GEMMs that filled in the
    samples between the chain's."""

    chain: int = 0
    passes: int = 0
    fills: int = 0


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray        # (m,)
    states: np.ndarray       # (m, n*d)
    error_norm: np.ndarray   # (m,) Euclidean distance to the consensus target
    n: int
    d: int
    theta: np.ndarray
    work: Work = Work()


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


# (P, S(A)), or (P, h S(A) F), P's offset columns
StepMap = Tuple["np.ndarray | csr_matrix", "np.ndarray | csr_matrix"]

# byte budget of one stack of step-map powers (see _cut)
STACK_BYTES = 1 << 18
# byte budget of one chunk of samples in a per-sample reduction (see _chunk_rows)
_CHUNK_BYTES = 1 << 15


def _step_map(lap: "csr_matrix", h: float) -> StepMap:
    """(P, S(A)) with A = -h L_B: the classic RK4 step of length h on
    xdot = -L_B x + f is x <- P x + h S(A) f.

    On an affine field the step is exactly this map: P = R(A) = I + A S(A),
    where S(A) = I + A/2 + A^2/6 + A^3/24 is evaluated by Horner's rule.  The
    storage follows L_B: when more than a quarter of its entries are
    nonzero the map is built and kept dense (P's pattern holds L_B's, so P
    is at least as full), otherwise in CSR form.  Both are read-only."""
    import scipy.sparse

    nd = lap.shape[0]
    if 4 * lap.nnz > nd * nd:
        lap, eye = lap.toarray(), np.eye(nd)
    else:
        eye = scipy.sparse.identity(nd, format="csr")
    a = lap * -h
    s = eye + a / 4.0
    s = eye + (a @ s) / 3.0
    s = eye + (a @ s) / 2.0
    return _read_only(eye + a @ s), _read_only(s)


def _full_step(loop: ClosedLoop, h: float) -> StepMap:
    """(P, h S(A) F) of the full step h: P from ``_step_map`` and the offset
    columns of one step, kept in ``loop.maps`` under (h, 1), with the
    step's verdict under (h, 0); raises ``NotContractingError`` when the
    step is unstable on the loop (P has spectral radius above 1), naming
    the largest step that the cheap test certifies.

    Every eigenvalue of L_B has a positive real part (delta > C) and
    modulus at most ||L_B||_inf, and RK4's stability region holds the left
    half-disc of radius ``RK4_RADIUS``; so h ||L_B||_inf <= ``RK4_RADIUS``
    certifies the step in O(nnz).  Only where it fails is rho(P) computed,
    from a dense P.  The verdict, the error's message or "", is decided
    where P is built and kept with it.  The maps keep one step length, the
    last used: a new h first drops the maps, stacks, offset columns and
    verdict of the one before."""
    if (h, 1) not in loop.maps:
        loop.maps.clear()
        p, s = _step_map(loop.laplacian, h)
        norm = float(abs(loop.laplacian).sum(axis=1).max())
        unstable = ""
        if h * norm > RK4_RADIUS:
            dense = p if isinstance(p, np.ndarray) else p.toarray()
            rho = float(np.abs(np.linalg.eigvals(dense)).max())
            if rho > 1.0:
                certified = RK4_RADIUS / norm  # named to four digits, rounded down
                scale = 10.0 ** (3 - math.floor(math.log10(certified)))
                unstable = (
                    f"the RK4 step h={h:g} is unstable: its step map has spectral radius"
                    f" {rho:.6g} > 1; steps up to h={math.floor(certified * scale) / scale:.4g}"
                    f" are certified stable (h ||L_B||_inf <= {RK4_RADIUS})"
                )
        loop.maps[(h, 1)] = p, _read_only(h * (s @ loop.signal))
        loop.maps[(h, 0)] = unstable
    if loop.maps[(h, 0)]:
        raise NotContractingError(loop.maps[(h, 0)])
    return loop.maps[(h, 1)]


def _powers(p: np.ndarray, m: int) -> np.ndarray:
    """The read-only stack S = [P; P^2; ...; P^m], by doubling: with its
    first c rows done, k = min(c, m - c) more come from one GEMM,
    S[c:c+k] = S[:k] P^c, so ceil(log2 m) products in all.  An unstable P
    may overflow in its powers; those rows come out inf or NaN and fail the
    caller's guard."""
    nd = p.shape[0]
    stack = np.empty((m * nd, nd))
    stack[:nd] = p
    c = 1
    while c < m:
        k = min(c, m - c)
        np.matmul(stack[: k * nd], stack[(c - 1) * nd : c * nd], out=stack[c * nd : (c + k) * nd])
        c += k
    return _read_only(stack)


def _offsets(stack: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """The read-only offset columns O = [Q; P Q + Q; ...] of the stack S
    of ``_powers``, in m row blocks, from the one-step columns
    Q = h S(A) F: m steps x <- P x + Q x0 from x land on the row blocks of
    S x + O x0, and the first r < m blocks of both serve r steps.  By the
    same doubling: O[c:c+k] = S[:k] O_c + O[:k]."""
    nd = q.shape[0]
    offsets = np.empty((m * nd, q.shape[1]))
    offsets[:nd] = q
    c = 1
    while c < m:
        k = min(c, m - c)
        np.add(stack[: k * nd] @ offsets[(c - 1) * nd : c * nd], offsets[: k * nd],
               out=offsets[c * nd : (c + k) * nd])
        c += k
    return _read_only(offsets)


def _chunk_rows(nd: int) -> int:
    """Samples per chunk of a per-sample reduction over (samples, nd)
    states: as many as fit in ``_CHUNK_BYTES``, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * nd))


class _Piece(NamedTuple):
    """The first ``rows`` rows of a stack (S, o) from ``_powers`` (a step
    map is the one-row stack (P, q[None])), its end map
    x <- end @ x + offset, and the rows of the samples that its occurrences
    start from on the piece route."""

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
    offsets: Dict[tuple, np.ndarray],
    pieces: Dict[tuple, _Piece],
) -> List[Tuple[_Piece, int]]:
    """One kind of span on graph ``gid`` cut into pieces in time order, with
    repeat counts: ``steps`` full steps in blocks of m rows (the last block
    shorter), then the shortened step if ``remainder`` is not 0.
    m = min(steps, STACK_BYTES // (nd^2 * 8)), and m = 1 when P is CSR (its
    powers fill in) or too large for the budget.  The step map P is the
    one-row stack; it and each stack are built once per (h, m) into
    ``loop.maps`` with their offset columns (``_offsets``), and outlive the
    run.  The offsets follow x0: each stack's are one product of its
    columns with x0, made once per run and (gid, h, m) into ``offsets``,
    and pieces once per (gid, h, m, rows) into ``pieces``.  A piece's end
    map is its stack's row block ``rows``; a one-row stack, a CSR P among
    them, is its own end map and is never sliced.  The shortened step is
    the one-row piece of its own map, which is built once per run and
    (gid, remainder) and is not kept: remainders vary with T and the
    switch times, and the maps keep one step length."""
    cut = []
    if steps:
        p, columns = _full_step(loop, h)
        m = max(1, min(steps, STACK_BYTES // p.nbytes)) if isinstance(p, np.ndarray) else 1
        if (h, m) not in loop.maps:
            stack = _powers(p, m)
            loop.maps[(h, m)] = stack, _offsets(stack, columns, m)
        stack, columns = loop.maps[(h, m)]
        if (gid, h, m) not in offsets:
            offsets[(gid, h, m)] = (columns @ loop.x0).reshape(m, -1)
        o = offsets[(gid, h, m)]
        for rows, reps in ((m, steps // m), (steps % m, 1)):
            if not rows:
                continue
            key = (gid, h, m, rows)
            if key not in pieces:
                nd = o.shape[1]
                end = stack if m == 1 else stack[(rows - 1) * nd : rows * nd]
                pieces[key] = _Piece(end, o[rows - 1], rows, stack, o, [])
            cut.append((pieces[key], reps))
    if remainder:
        key = (gid, remainder, 1, 1)
        if key not in pieces:
            p, s = _step_map(loop.laplacian, remainder)
            q = remainder * (s @ loop.forcing)
            pieces[key] = _Piece(p, q, 1, p, q[None, :], [])
        cut.append((pieces[key], 1))
    return cut


class _Plan(NamedTuple):
    """A run's layout, which follows (schedule, T, h) alone (see ``_plan``):
    the sample times, read-only, with row 0 at t = 0 for the initial state;
    each span's kind (graph id, full steps, the shortened step's length or
    0.0), in time order; the spans per pass of the schedule, ``unit``; and
    ``passes``, the count of leading passes that repeat the first pass kind
    for kind.  ``passes`` is 1 when the second pass differs, as when a
    remainder rounds differently; a last pass that T cuts short, and any
    pass after the first that differs, end the count.  A span's sample
    count is its full steps, and one more for a shortened step."""

    times: np.ndarray
    kinds: Tuple[Tuple[int, int, float], ...]
    unit: int
    passes: int


def _expand(
    schedule: SwitchingSchedule, horizon: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The intervals of ``schedule`` that cover [0, horizon], as arrays of
    starts, ends and graph ids, and empty for a horizon <= 0.  Pass k of
    the pattern is offset by the period added k times left to right (as
    ``np.cumsum`` adds), each interval runs from offset + edge to offset +
    next edge, and the first interval to reach the horizon is the last, cut
    at it.  A schedule that does not repeat and ends before the horizon
    raises ``ScheduleExhaustedError``; a repeating one needs a finite
    horizon."""
    edges = np.array(schedule._edges())
    period = edges[-1]
    passes = 1
    if schedule.repeat:
        if not math.isfinite(horizon):
            raise NonFiniteError(f"a repeating schedule needs a finite horizon, got T={horizon}")
        passes = max(1, int(horizon // period) + 2)
    elif not period >= horizon:
        raise ScheduleExhaustedError(
            f"schedule ends at t={period:g} < T={horizon:g} and does not repeat"
        )
    while True:
        offsets = np.zeros((passes, 1))
        np.cumsum(np.full(passes - 1, period), out=offsets[1:, 0])
        ends = (offsets + edges[1:]).ravel()
        if ends[-1] >= horizon:
            break
        passes *= 2  # the rounded offsets fell short of the horizon
    count = 0 if horizon <= 0 else int(np.argmax(ends >= horizon)) + 1
    ends = ends[:count]
    if count:
        ends[-1] = min(ends[-1], horizon)
    starts = (offsets + edges[:-1]).ravel()[:count]
    return starts, ends, np.tile(schedule.graph_ids, passes)[:count]


def _layout(
    starts: np.ndarray, ends: np.ndarray, gids: np.ndarray, h: float, unit: int
) -> _Plan:
    """The plan of a run over spans (start, end, graph id) in time order,
    ``unit`` of them per pass: floor((end - start) / h) full steps sampled
    at start + j h, then, if more than 1e-12 is left, a shortened step that
    lands on end exactly."""
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
    kinds = tuple(zip(gids.tolist(), full.tolist(), np.where(short, remainders, 0.0).tolist()))
    first, passes = kinds[:unit], 1
    while kinds[passes * unit : (passes + 1) * unit] == first:
        passes += 1
    return _Plan(_read_only(times), kinds, unit, passes)


@functools.lru_cache(maxsize=8)
def _plan(schedule: Optional[SwitchingSchedule], horizon: float, h: float) -> _Plan:
    """The plan of a run to ``horizon`` with step ``h``: over the intervals
    of ``schedule`` (see ``_expand``), a pass per run of its pattern, or
    over the one span [0, horizon] on graph 0 for ``None``, a fixed run of
    one pass.  Plans are kept by value, the last 8 (schedule, horizon, h)
    used, so equal schedules share one; they hold no graph, loop or
    theta."""
    if schedule is None:
        return _layout(np.zeros(1), np.array([horizon], dtype=float), np.zeros(1, np.int64), h, 1)
    return _layout(*_expand(schedule, horizon), h, len(schedule.graph_ids))


def _composes(unit: List[_Piece], nd: int, passes: int) -> bool:
    """Whether ``passes`` passes of the pieces ``unit`` take the pass route
    (``_march_passes``): every end map is dense, the pass's prefix maps fit
    in ``STACK_BYTES`` as a stack does, and 2 passes >= nd.  Composing
    costs about nd^3 flops per piece and saves passes - 1 matvecs of about
    nd^2 flops and a call each; on one core the pass route measured faster
    from about passes >= nd / 4 at nd = 21 and from passes >= nd / 2 at
    nd = 180 to 240, and up to 30 times slower below."""
    return (
        2 * passes >= nd and len(unit) * nd * (nd + 1) * 8 <= STACK_BYTES
        and all(isinstance(piece.end, np.ndarray) for piece in unit)
    )


def _march_passes(states: np.ndarray, unit: List[_Piece], passes: int) -> Tuple[int, int]:
    """Step the first ``passes`` passes of a run from states[0], each pass
    the pieces ``unit`` in time order, all with dense end maps; return the
    row of the last pass's end and the count of fill GEMMs.

    Once per run, the pieces' end maps E_j and offsets o_j compose into the
    prefix maps W_j = [G_j | g_j], from a pass start to the end of piece j,
    by one GEMM per piece: W_j = E_j W_{j-1} + [0 | o_j].  The last is the
    pass map (M, c), and a chain of one matvec per pass takes the state
    from pass start to pass start.  One GEMM then takes the ends of all
    pieces but the last, in every pass, from the pass starts; one GEMM per
    piece of the pass fills its interior samples in every pass, as the
    piece route does, through strided views of the states, one row of
    ``passes`` per pass."""
    nd = states.shape[1]
    span = sum(piece.rows for piece in unit)
    prefix = np.empty((len(unit), nd, nd + 1))
    prefix[0, :, :nd], prefix[0, :, nd] = unit[0].end, unit[0].offset
    for j in range(1, len(unit)):
        np.matmul(unit[j].end, prefix[j - 1], out=prefix[j])
        prefix[j, :, nd] += unit[j].offset
    m, c = prefix[-1, :, :nd], prefix[-1, :, nd]
    x = states[0]
    for r in range(span, (passes + 1) * span, span):
        x = m @ x + c
        states[r] = x
    flat = states[: passes * span].reshape(passes, span * nd)  # one row per pass
    fills = 0
    if len(unit) > 1:
        inner = prefix[:-1].reshape(-1, nd + 1)
        ends = np.cumsum([piece.rows for piece in unit[:-1]])
        flat.reshape(passes, span, nd)[:, ends] = (
            flat[:, :nd] @ inner[:, :nd].T + inner[:, nd]
        ).reshape(passes, -1, nd)
        fills += 1
    first = 0
    for piece in unit:
        if piece.rows > 1:
            fill = flat[:, (first + 1) * nd : (first + piece.rows) * nd]
            np.matmul(flat[:, first * nd : (first + 1) * nd],
                      piece.stack[: (piece.rows - 1) * nd].T, out=fill)
            fill += piece.offsets[: piece.rows - 1].reshape(-1)
            fills += 1
        first += piece.rows
    return passes * span, fills


def _march(
    g: SignedGraph,
    theta: np.ndarray,
    loops: Mapping[int, ClosedLoop],
    plan: _Plan,
    x: np.ndarray,
    h: float,
) -> Trajectory:
    """March x through the spans of ``plan`` in order, sampling after every
    step, on the loops that the spans' graph ids key, and count the work
    (``Work``).  Each kind of span (loop, full steps, remainder) is cut
    into pieces once (``_cut``).  The plan's repeating passes take the
    pass route (``_march_passes``) where ``_composes`` allows, and the rest
    of the run, all of it for CSR maps, the piece route: a
    chain of one matvec per piece with its end map takes the state from
    piece end to piece end in time order; then one GEMM per distinct piece
    fills the interior samples of all its occurrences from their start
    states.  A CSR map has one-row pieces, so its states are those of
    stepping x <- P x + q; elsewhere they agree with stage-by-stage RK4 to
    about 1e-14 relative.  The guard checks every sample once and names the
    first that fails.  The error norm is taken in chunks of samples
    (``_chunk_rows``), so that no temporary spans the run; a sample's norm
    does not depend on the samples beside it.  A piece's fill stays one
    GEMM over all its starts: its results depend on the GEMM's row count,
    so filling in chunks would change the states in their last bits.  The
    run gets its own copy of the plan's times."""
    times = plan.times.copy()
    nd = x.shape[0]
    states = np.empty((len(times), nd))
    states[0] = x
    # what follows theta lives for this run only: offsets, pieces, and each
    # kind's cut; the step maps, stacks and offset columns are in each
    # loop's maps
    offsets: Dict[tuple, np.ndarray] = {}
    pieces: Dict[tuple, _Piece] = {}
    cuts: Dict[tuple, List[Tuple[_Piece, int]]] = {}

    def cut(kind: Tuple[int, int, float]) -> List[Tuple[_Piece, int]]:
        if kind not in cuts:
            gid, steps, remainder = kind
            cuts[kind] = _cut(loops[gid], gid, h, steps, remainder, offsets, pieces)
        return cuts[kind]

    row = done = chain = passes = fills = 0
    # an unstable map overflows in the chain, in its powers or in the
    # composed pass map; the guard reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        if plan.passes > 1:
            unit = [piece for kind in plan.kinds[: plan.unit]
                    for piece, reps in cut(kind) for _ in range(reps)]
            if _composes(unit, nd, plan.passes):
                row, fills = _march_passes(states, unit, plan.passes)
                x, done = states[row], plan.passes * plan.unit
                chain = passes = plan.passes
        for kind in plan.kinds[done:]:
            for (end, offset, rows, _, _, at), reps in cut(kind):
                chain += reps
                for _ in range(reps):
                    if rows > 1:
                        at.append(row)
                    x = end @ x + offset
                    row += rows
                    states[row] = x
        for _, _, rows, stack, o, at in pieces.values():
            if at:
                at = np.array(at)
                fill = (states[at] @ stack[: (rows - 1) * nd].T).reshape(len(at), rows - 1, nd)
                fill += o[: rows - 1]
                states[at[:, None] + np.arange(1, rows)] = fill
                fills += 1
    # max and min pass a NaN on, so a NaN state fails the test too; no
    # full-size temporary is made unless a sample fails and must be named
    if not (states[1:].max() <= DIVERGENCE_GUARD and states[1:].min() >= -DIVERGENCE_GUARD):
        ok = np.abs(states[1:]).max(axis=1) <= DIVERGENCE_GUARD
        raise NonFiniteError(
            f"state exceeded {DIVERGENCE_GUARD:g} or became NaN"
            f" at t={times[1 + np.argmin(ok)]:.6g}"
        )
    # the error norm as np.linalg.norm(axis=1) takes it, square, add.reduce
    # and sqrt, in one reused buffer
    target = np.tile(theta, g.n)
    err = np.empty(len(times))
    rows = _chunk_rows(nd)
    buffer = np.empty((rows, nd))
    for a in range(0, len(times), rows):
        chunk = states[a : a + rows]
        dev = np.subtract(chunk, target, out=buffer[: len(chunk)])
        np.multiply(dev, dev, out=dev)
        np.add.reduce(dev, axis=1, out=err[a : a + rows])
    np.sqrt(err, out=err)
    return Trajectory(times=times, states=states, error_norm=err, n=g.n, d=g.d, theta=theta,
                      work=Work(chain, passes, fills))


def integrate_fixed(
    g: SignedGraph,
    design: ProtocolDesign,
    x_init: np.ndarray,
    h: float = DEFAULT_STEP,
    horizon: float = 1.0,
) -> Trajectory:
    """Classic fourth-order fixed-step run of the fixed-topology loop.  A
    step h that is unstable on the loop raises ``NotContractingError``
    before any step (see ``_full_step``)."""
    x = _initial_state(x_init, g.n * g.d, h, horizon)
    loop = closed_loop(g, design)
    _full_step(loop, h)
    return _march(g, design.theta, {0: loop}, _plan(None, horizon, h), x, h)


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
        # tuples of Python numbers, so that equal schedules are equal and
        # hash alike whatever sequences they were given (see ``_plan``);
        # operator.index rejects a graph id such as 0.5 instead of truncating it
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        object.__setattr__(self, "graph_ids", tuple(operator.index(k) for k in self.graph_ids))
        if not (math.isfinite(self.alpha) and all(map(math.isfinite, self.lengths))):
            raise NonFiniteError("dwell time and interval lengths must be finite")
        if self.alpha <= 0:
            raise DimensionMismatchError(f"dwell time must be positive, got {self.alpha}")
        if not self.lengths:
            raise DimensionMismatchError("a schedule needs at least one interval")
        if len(self.graph_ids) != len(self.lengths):
            raise DimensionMismatchError("need one graph id per interval")
        if min(self.lengths) < self.alpha - 1e-12 or min(self.lengths) <= 0:
            raise DimensionMismatchError("an interval is shorter than the dwell time")

    @staticmethod
    def uniform(
        dt: float, graph_ids: Sequence[int], alpha: Optional[float] = None, repeat: bool = False
    ) -> "SwitchingSchedule":
        return SwitchingSchedule(
            lengths=(dt,) * len(graph_ids),
            graph_ids=graph_ids,
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
        """(start, end, graph_id) covering [0, horizon], as ``_expand``
        lays them out; raises at once when the schedule cannot cover it."""
        return zip(*(a.tolist() for a in _expand(self, horizon)))


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
    ``DimensionMismatchError`` before any step.  A step h that is unstable
    on any of the design's loops raises ``NotContractingError``, also
    before any step (see ``_full_step``)."""
    first = _first_of_one_shape(graphs)
    for gid in sdesign.designs:
        if gid not in graphs:
            raise DimensionMismatchError(f"the design has graph id {gid}, which has no graph")
    x = _initial_state(x_init, first.n * first.d, h, horizon)
    loops = {gid: closed_loop(graphs[gid], design) for gid, design in sdesign.designs.items()}
    for loop in loops.values():
        _full_step(loop, h)
    if h > schedule.alpha / 4.0 + 1e-15:
        raise DimensionMismatchError(
            f"step h={h:g} must not exceed a quarter of the dwell time {schedule.alpha:g}"
        )
    plan = _plan(schedule, horizon, h)
    for gid, _, _ in plan.kinds:
        if gid not in loops:
            raise ScheduleExhaustedError(f"schedule references unknown graph id {gid}")
    theta = next(iter(sdesign.designs.values())).theta
    return _march(first, theta, loops, plan, x, h)


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
    theta in the per-agent infinity norm.

    A sample fails when any |x - theta| is not below the tolerance.  The
    settle time is the time of the sample after the last failing one, and
    the run has converged when no failing sample lies in the window.  The
    states are read in the chunks of ``_march``'s error norm, from the last
    backwards, and only until the last failing sample and the window's
    verdict are known; no temporary spans the run."""
    th = traj.theta if theta is None else np.asarray(theta, dtype=float).reshape(-1)
    if th.shape[0] != traj.d:
        raise DimensionMismatchError(f"theta has dimension {th.shape[0]}, run has d={traj.d}")
    target = np.tile(th, traj.n)
    times = traj.times
    window = times >= (1.0 - DEFAULT_WINDOW) * times[-1]
    first = int(np.argmax(window)) if window.any() else len(times)  # the window's first sample
    rows = _chunk_rows(target.shape[0])
    buffer = np.empty((rows, target.shape[0]))
    last_bad, converged = -1, True
    for a in range((len(times) - 1) // rows * rows, -1, -rows):
        if last_bad >= 0 and (not converged or a + rows <= first):
            break
        chunk = traj.states[a : a + rows]
        dev = np.subtract(chunk, target, out=buffer[: len(chunk)])
        np.abs(dev, out=dev)
        bad = a + np.flatnonzero(~(dev < DEFAULT_TOL).all(axis=1))
        if bad.size:
            last_bad = max(last_bad, int(bad[-1]))
            converged = converged and not window[bad].any()
    final = float(np.abs(traj.states[-1] - target).max())
    settle: Optional[float] = None
    if final < DEFAULT_TOL:
        settle = 0.0 if last_bad < 0 else float(times[last_bad + 1])
    return ConvergenceReport(converged=converged, final_error=final, settle_time=settle)
