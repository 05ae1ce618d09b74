"""Deterministic fixed-step integration of the coupled dynamics.

The closed loop is linear on z = [x; theta], zdot = -M_theta z (see
``protocol.ClosedLoop``), so a classic RK4 step of constant length h is one
linear map z <- R(-h M_theta) z (see ``_step_map``).  theta does not move, so
a map is kept as its top rows [P | Q], which take z to the next x, and m
steps are the top rows of R^m (see ``_powers``).  This module owns how the
loop is stepped.  Every map depends on M_theta alone, so those of the full
step are built once per graph object, design and step length and kept in the
loop's ``maps``, which hold one step length, with the verdict on whether the
step is stable (``_full_step``); theta enters a run only through
z0 = [x_init; theta].  A run's layout, its spans (one for a fixed run and one
per interval of a switching run), its sample times and its passes, the
leading passes of the schedule that repeat the first span for span, depends
on (schedule, T, h) alone; it is planned once and kept (``_plan``).  Both
integrators march the plan (``_march``).  Where the maps of a repeating pass
are dense, the pass is kept as two theta-free arrays, the maps from a pass
start to each of its samples and the powers of the pass map, once per plan,
step length and the designs of the pass (``_kept_pass``); a run's passes are
then one GEMV and one GEMM per block of passes.  Elsewhere the state goes from
piece end to piece end, a piece being up to m steps or a shortened step, and
GEMMs fill in the samples between.  Samples sit at t0 + k h, and each span
ends with a shortened step that lands on its end exactly (a switch time or
T).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
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
    """What ``_march`` did in a run: the chain's products that took the
    state from one start to the next (one GEMV of the pass-map powers per
    block of passes on the pass route, one matvec per piece elsewhere),
    the passes stepped on the pass route, and the GEMMs that filled in the
    samples (one per block of passes, and one per distinct piece)."""

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


# byte budget of one stack of step-map powers (see _cut)
STACK_BYTES = 1 << 18
# byte budget of a kept pass, W and Pw together (see _kept_pass): W takes at
# most half, so eight stacks' worth holds the bundled cycle's W down to
# h = 5e-4 (806,400 bytes); the pass route measured faster than the piece
# route at every W up to 3.2 MB, so the budget bounds only what is kept
PASS_BYTES = 8 * STACK_BYTES
# byte budget of one chunk of samples in a per-sample reduction (see _chunk_rows)
_CHUNK_BYTES = 1 << 15


def _step_map(operator: "csr_matrix", h: float) -> "np.ndarray | csr_matrix":
    """The top rows [P | Q] of R(A) with A = -h M_theta, M_theta the square
    matrix of the top block row ``operator`` (see ``protocol.ClosedLoop``):
    the classic RK4 step of length h on zdot = -M_theta z is x <- [P | Q] z.

    On a linear field the step is exactly this map: R(A) = I + A S(A),
    where S(A) = I + A/2 + A^2/6 + A^3/24 is evaluated by Horner's rule, and
    its bottom rows are [0 | I].  The storage follows the operator: when
    more than a quarter of its entries are nonzero the map is built and
    kept dense, otherwise in CSR form.  Either is read-only."""
    import scipy.sparse

    nd, width = operator.shape
    a = scipy.sparse.vstack([operator, scipy.sparse.csr_matrix((width - nd, width))], format="csr")
    eye = scipy.sparse.identity(width, format="csr")
    if 4 * operator.nnz > nd * width:
        a, eye = a.toarray(), eye.toarray()
    a = a * -h
    s = eye + a / 4.0
    s = eye + (a @ s) / 3.0
    s = eye + (a @ s) / 2.0
    return _read_only((eye + a @ s)[:nd])


def _full_step(loop: ClosedLoop, h: float) -> "np.ndarray | csr_matrix":
    """The top rows [P | Q] of the full step h from ``_step_map``, kept in
    ``loop.maps`` under (h, 1), with the step's verdict under (h, 0); raises
    ``NotContractingError`` when the step is unstable on the loop (P has
    spectral radius above 1), naming the largest step that the cheap test
    certifies.

    Every eigenvalue of L_B has a positive real part (delta > C) and
    modulus at most ||L_B||_inf, and RK4's stability region holds the left
    half-disc of radius ``RK4_RADIUS``; so h ||L_B||_inf <= ``RK4_RADIUS``
    certifies the step in O(nnz).  Only where it fails is rho(P) computed,
    from a dense P, the map's leading nd x nd block: the whole map also has
    the eigenvalue 1 of its identity block, which may round above 1.  The
    verdict, the error's message or "", is decided where the map is built
    and kept with it.  The maps keep one step length, the last used: a new
    h first drops the maps, stacks and verdict of the one before."""
    if (h, 1) not in loop.maps:
        loop.maps.clear()
        top = _step_map(loop.operator, h)
        nd = top.shape[0]
        norm = float(abs(loop.operator[:, :nd]).sum(axis=1).max())
        unstable = ""
        if h * norm > RK4_RADIUS:
            p = top[:, :nd]
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
        loop.maps[(h, 1)] = top
        loop.maps[(h, 0)] = unstable
    if loop.maps[(h, 0)]:
        raise NotContractingError(loop.maps[(h, 0)])
    return loop.maps[(h, 1)]


def _powers(top: np.ndarray, m: int) -> np.ndarray:
    """The read-only stack S = [T_1; T_2; ...; T_m] of the top rows T_k of
    R^k, R the step map whose top rows are ``top``, by doubling: with its
    first c row blocks done, k = min(c, m - c) more come from one GEMM,
    S[c:c+k] = S[:k] [[T_c], [0, I]], so ceil(log2 m) products in all.  An
    unstable map may overflow in its powers; those rows come out inf or NaN
    and fail the caller's guard."""
    nd, width = top.shape
    stack = np.empty((m * nd, width))
    stack[:nd] = top
    lift = np.eye(width)  # [[T_c], [0, I]], its top rows set per doubling
    c = 1
    while c < m:
        k = min(c, m - c)
        lift[:nd] = stack[(c - 1) * nd : c * nd]
        np.matmul(stack[: k * nd], lift, out=stack[c * nd : (c + k) * nd])
        c += k
    return _read_only(stack)


def _lifted(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The z-states [x | theta] of the states x (the last axis)."""
    nd = x.shape[-1]
    z = np.empty(x.shape[:-1] + (nd + theta.shape[0],))
    z[..., :nd] = x
    z[..., nd:] = theta
    return z


def _chunk_rows(nd: int) -> int:
    """Samples per chunk of a per-sample reduction over (samples, nd)
    states: as many as fit in ``_CHUNK_BYTES``, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * nd))


class _Piece(NamedTuple):
    """The first ``rows`` row blocks of a stack from ``_powers`` (a step
    map is the one-row stack), its end map x <- end @ z, and the rows of
    the samples that its occurrences start from on the piece route."""

    end: "np.ndarray | csr_matrix"
    rows: int
    stack: "np.ndarray | csr_matrix"
    starts: List[int]


def _cut(
    loop: ClosedLoop,
    gid: int,
    h: float,
    steps: int,
    remainder: float,
    pieces: Dict[tuple, _Piece],
) -> List[Tuple[_Piece, int]]:
    """One kind of span on graph ``gid`` cut into pieces in time order, with
    repeat counts: ``steps`` full steps in blocks of m rows (the last block
    shorter), then the shortened step if ``remainder`` is not 0.
    m = min(steps, STACK_BYTES // (nd^2 * 8)), and m = 1 when the map is
    CSR (its powers fill in) or too large for the budget.  The step map is
    the one-row stack; it and each stack are built once per (h, m) into
    ``loop.maps`` and outlive the run.  Pieces are made once per run and
    (gid, h, m, rows) into ``pieces``.  A piece's end map is its stack's
    row block ``rows``; a one-row stack, a CSR map among them, is its own
    end map and is never sliced.  The shortened step is the one-row piece
    of its own map, which is built once per run and (gid, remainder) and is
    not kept: remainders vary with T and the switch times, and the maps
    keep one step length.  A kept pass holds its shortened steps composed
    (see ``_kept_pass``)."""
    cut = []
    if steps:
        top = _full_step(loop, h)
        nd = top.shape[0]
        m = max(1, min(steps, STACK_BYTES // (nd * nd * 8))) if isinstance(top, np.ndarray) else 1
        if (h, m) not in loop.maps:
            loop.maps[(h, m)] = _powers(top, m)
        stack = loop.maps[(h, m)]
        for rows, reps in ((m, steps // m), (steps % m, 1)):
            if not rows:
                continue
            key = (gid, h, m, rows)
            if key not in pieces:
                end = stack if m == 1 else stack[(rows - 1) * nd : rows * nd]
                pieces[key] = _Piece(end, rows, stack, [])
            cut.append((pieces[key], reps))
    if remainder:
        key = (gid, remainder, 1, 1)
        if key not in pieces:
            top = _step_map(loop.operator, remainder)
            pieces[key] = _Piece(top, 1, top, [])
        cut.append((pieces[key], 1))
    return cut


class _Plan(NamedTuple):
    """A run's layout, which follows (schedule, T, h) alone (see ``_plan``):
    the sample times, read-only, with row 0 at t = 0 for the initial state;
    each span's kind (graph id, full steps, the shortened step's length or
    0.0), in time order; the spans per pass of the schedule, ``unit``; and
    ``passes``, the count of leading passes that repeat the first pass kind
    for kind.  ``passes`` is 1 when the second pass differs; a last pass
    that T cuts short, and any pass after the first that differs, end the
    count.  A span's sample count is its full steps, and one more for a
    shortened step."""

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
    lands on end exactly.  A shortened step's length within 1e-12 of the
    first pass's at the same position in the pattern takes that length:
    rounding makes them differ in their last bits from pass to pass, and
    would end the repeating passes after the first."""
    lengths = ends - starts
    full = np.floor(lengths / h + 1e-9).astype(np.int64)
    remainders = lengths - full * h
    short = remainders > 1e-12
    remainders[~short] = 0.0
    lead = np.resize(remainders[:unit], len(remainders))
    snap = np.abs(remainders - lead) <= 1e-12
    remainders[snap] = lead[snap]
    counts = full + short
    last = np.cumsum(counts)  # row of each span's last sample; row 0 holds x
    first = last - counts
    times = np.empty(last[-1] + 1)
    times[0] = 0.0
    times[1:] = np.repeat(starts, counts) + h * (
        np.arange(1, last[-1] + 1) - np.repeat(first, counts)
    )
    times[last[counts > 0]] = ends[counts > 0]
    kinds = tuple(zip(gids.tolist(), full.tolist(), remainders.tolist()))
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


class _Pass(NamedTuple):
    """The theta-free arrays of a repeating pass (see ``_kept_pass``): the
    span kinds of the pass and the operators of their loops, which key it;
    W, the top rows of the maps from the pass start to each of its samples,
    (span nd) x (nd + d), whose last row block is the pass map M; and Pw,
    the top rows of M^1 ... M^(k-1) for blocks of k passes, or None
    before it is built."""

    kinds: Tuple[Tuple[int, int, float], ...]
    operators: tuple
    w: np.ndarray
    pw: Optional[np.ndarray]


def _kept_pass(
    loops: Mapping[int, ClosedLoop],
    plan: _Plan,
    h: float,
    cut: "Callable[[Tuple[int, int, float]], List[Tuple[_Piece, int]]]",
) -> Optional[_Pass]:
    """The pass of ``plan``'s repeating passes, or None where they take
    the piece route: where a map of the pass is CSR, or where W would take
    more than half of ``PASS_BYTES``.

    W is composed from the pieces of the pass in time order (see ``_cut``)
    by one GEMM per piece, W_j = S_j [[end of W_(j-1)], [0, I]] with S_j
    the piece's rows of its stack; Pw by doubling (``_powers``), for blocks
    of as many passes, up to the plan's, as what W leaves of
    ``PASS_BYTES`` holds, so that a block has at least span + 1 passes
    and W is read at most once per span passes.  Both are read-only and
    kept in the maps of the loop of the pass's first span, when every loop
    of the pass is the store's (``ClosedLoop.kept``), so they die with its
    graph and with its step length.  They are found there again for the
    same pass kinds and the same operators of the pass's loops, compared
    by identity, so that a new design on any graph of the pattern misses;
    a hit skips the cut, and a plan with another pass count only rebuilds
    Pw."""
    kinds = plan.kinds[: plan.unit]
    operators = tuple(loops[gid].operator for gid, _, _ in kinds)
    nd, width = operators[0].shape
    maps = loops[kinds[0][0]].maps
    kept = maps.get((h, "pass"))
    if kept is None or kept.kinds != kinds or any(
        a is not b for a, b in zip(kept.operators, operators)
    ):
        unit = [piece for kind in kinds for piece, reps in cut(kind) for _ in range(reps)]
        rows = sum(piece.rows for piece in unit)
        if 2 * rows * nd * width * 8 > PASS_BYTES or not all(
            isinstance(piece.stack, np.ndarray) for piece in unit
        ):
            return None
        w = np.empty((rows * nd, width))
        lift = np.eye(width)  # [[end of W_(j-1)], [0, I]], the identity for j = 0
        row = 0
        for piece in unit:
            np.matmul(piece.stack[: piece.rows * nd], lift, out=w[row : row + piece.rows * nd])
            row += piece.rows * nd
            lift[:nd] = w[row - nd : row]
        kept = _Pass(kinds, operators, _read_only(w), None)
    size = min(plan.passes, 1 + (PASS_BYTES - kept.w.nbytes) // (nd * width * 8))
    if kept.pw is None or len(kept.pw) != (size - 1) * nd:
        kept = kept._replace(pw=_powers(kept.w[-nd:], size - 1))
        if all(loops[gid].kept for gid, _, _ in kinds):
            maps[(h, "pass")] = kept
    return kept


def _march_passes(
    states: np.ndarray, theta: np.ndarray, kept: _Pass, passes: int
) -> Tuple[int, int]:
    """Step the first ``passes`` passes of a run from states[0] by the
    kept pass ``kept``, in blocks of as many passes as Pw allows; return
    the row of the last pass's end and the count of blocks.  Per block,
    one GEMV of Pw takes the z-state [x | theta] at the block's first pass
    start to its other pass starts, and one GEMM of W takes the z-starts to
    every sample of the block's passes, written straight into the states,
    which hold them back to back, one pass per row of a (passes, span nd)
    view.  The next block starts from the last sample of this one."""
    nd, width = states.shape[1], kept.w.shape[1]
    span = len(kept.w) // nd
    size = len(kept.pw) // nd + 1
    starts = np.empty((size, width))
    starts[:, nd:] = theta
    blocks = 0
    for first in range(0, passes, size):
        k = min(size, passes - first)
        starts[0, :nd] = states[first * span]
        starts[1:k, :nd] = (kept.pw[: (k - 1) * nd] @ starts[0]).reshape(k - 1, nd)
        out = states[1 + first * span : 1 + (first + k) * span].reshape(k, span * nd)
        np.matmul(starts[:k], kept.w.T, out=out)
        blocks += 1
    return passes * span, blocks


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
    (``Work``).  The plan's repeating passes take the pass route
    (``_march_passes``) where ``_kept_pass`` gives their pass, and the rest
    of the run, all of it for CSR maps, the piece route: each kind of span
    (loop, full steps, remainder) is cut into pieces once (``_cut``); a
    chain of one matvec per piece with its end map takes the state from
    piece end to piece end in time order; then one GEMM per distinct piece
    fills the interior samples of all its occurrences from their start
    states, through a strided view of the states where the occurrences are
    evenly spaced and by a scatter elsewhere.  Every map takes z = [x;
    theta] to the next x, so theta enters the run only here.  A CSR map has
    one-row pieces, so its states are those of stepping x <- [P | Q] z;
    elsewhere they agree with stage-by-stage RK4 to about 1e-14 relative.
    The guard checks every sample once and names the first that fails.
    The error norm is taken in chunks of samples (``_chunk_rows``), so
    that no temporary spans the run; a sample's norm does not depend on
    the samples beside it.  A piece's fill stays one GEMM over all its
    starts: its results depend on the GEMM's row count, so filling in
    chunks would change the states in their last bits.  The run gets its
    own copy of the plan's times."""
    times = plan.times.copy()
    nd = x.shape[0]
    states = np.empty((len(times), nd))
    states[0] = x
    # pieces and each kind's cut live for this run only; the step maps,
    # stacks and the kept pass are in the loops' maps
    pieces: Dict[tuple, _Piece] = {}
    cuts: Dict[tuple, List[Tuple[_Piece, int]]] = {}

    def cut(kind: Tuple[int, int, float]) -> List[Tuple[_Piece, int]]:
        if kind not in cuts:
            gid, steps, remainder = kind
            cuts[kind] = _cut(loops[gid], gid, h, steps, remainder, pieces)
        return cuts[kind]

    row = done = chain = passes = fills = 0
    # an unstable map overflows in the chain, in its powers or in the kept
    # pass; the guard reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        if plan.passes > 1:
            kept = _kept_pass(loops, plan, h, cut)
            if kept is not None:
                row, chain = _march_passes(states, theta, kept, plan.passes)
                done, passes, fills = plan.passes * plan.unit, plan.passes, chain
        z = _lifted(states[row], theta)
        for kind in plan.kinds[done:]:
            for (end, rows, _, at), reps in cut(kind):
                chain += reps
                for _ in range(reps):
                    if rows > 1:
                        at.append(row)
                    row += rows
                    states[row] = end @ z
                    z[:nd] = states[row]
        for _, rows, stack, at in pieces.values():
            if at:
                at = np.array(at)
                starts, maps = _lifted(states[at], theta), stack[: (rows - 1) * nd].T
                step = at[1] - at[0] if len(at) > 1 else rows
                if (np.diff(at) == step).all():  # one view row per occurrence
                    np.matmul(starts, maps, out=np.lib.stride_tricks.as_strided(
                        states[at[0] + 1 :], shape=(len(at), (rows - 1) * nd),
                        strides=(step * states.strides[0], states.strides[1])))
                else:
                    fill = (starts @ maps).reshape(len(at), rows - 1, nd)
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
    graph must have the (n, d) of the graph with the smallest id, every
    graph id of the design must be in ``graphs``, and every design must
    share the theta of the design with the smallest graph id, which the run
    carries in z = [x; theta] across the switches; otherwise this raises
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
    (lead, design), *rest = sorted(sdesign.designs.items())
    for gid, other in rest:
        if not np.array_equal(other.theta, design.theta, equal_nan=True):
            raise DimensionMismatchError(
                f"graph {gid}'s design has theta {other.theta.tolist()}, graph {lead}'s has"
                f" {design.theta.tolist()}; a switching run needs one theta"
            )
    return _march(first, design.theta, loops, plan, x, h)


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
