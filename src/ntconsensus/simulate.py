"""Deterministic fixed-step integration of the coupled dynamics.

The closed loop is linear on z = [x; theta], zdot = -M_theta z, where M_theta
is M with its signal columns scaled by k1 (``protocol.ClosedLoop``); a classic
RK4 step of length h is the linear map z <- R(-h M_theta) z, made from a copy
of M (``_step_map``).  theta does not move, so a map is kept as its top rows
[P | Q], which take z to the next x, and m steps are the top rows of R^m
(``_powers``).  This module owns how the loop is stepped.  Every map depends
on M_theta alone, so those of the full
step are built once per graph object, design and step length and kept in the
loop's ``maps``, which hold one step length, with the verdict on whether the
step is stable (``_full_step``); theta enters a run only through
z0 = [x_init; theta].  A run's layout, its spans (one for a fixed run and one
per interval of a switching run), its sample times and its passes, the
leading passes of the schedule that repeat the first span for span, depends
on (schedule, T, h) alone; it is planned once and kept (``_plan``).  Both
integrators march the plan (``_march``) as one list of groups, a piece and
its repeat count, in time order.  A piece is a theta-free stack, the top
rows of the maps from its start to each of its samples: up to m full steps
or a shortened step (``_cut``), or, where the maps of a repeating pass are
dense, the whole pass, which also carries the powers of the pass map and is
kept once per plan, step length and the designs of the pass
(``_kept_pass``).  A group's starts come from one GEMV of the powers or one
matvec each with the piece's end map, and one GEMM of the starts by the
stack writes all its samples; a one-row piece writes its samples in the
chain.  Samples sit at t0 + k h, and each span ends with a shortened step
that lands on its end exactly (a switch time or T).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple,
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
    ClosedLoop, ProtocolDesign, SwitchingDesign, _check_theta_values, _first_of_one_shape,
    _read_only, closed_loop,
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
    state from one start to the next (one GEMV of the powers per block of
    a kept pass, one matvec with the end map per further start of a
    multi-row piece, and one per step of a one-row piece), the passes
    stepped by a kept pass, and the GEMMs that wrote the samples of
    multi-row pieces (one per block)."""

    chain: int = 0
    passes: int = 0
    fills: int = 0


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray        # (m,)
    states: np.ndarray       # (m, n*d)
    n: int
    d: int
    theta: np.ndarray
    work: Work = Work()

    @functools.cached_property
    def error_norm(self) -> np.ndarray:
        """(m,) each sample's Euclidean distance to the consensus target
        1 (x) theta, computed on first read from the states as they are
        then, and kept read-only: a later read returns the same array.  It
        is taken as ``np.linalg.norm(axis=1)`` takes it, square,
        ``add.reduce`` and sqrt, chunk by chunk (``_deviations``); a
        sample's norm does not depend on the samples beside it, so it is
        that norm to the bit."""
        err = np.empty(len(self.states))
        for a, dev in _deviations(self.states, np.tile(self.theta, self.n)):
            np.multiply(dev, dev, out=dev)
            np.add.reduce(dev, axis=1, out=err[a : a + len(dev)])
        return _read_only(np.sqrt(err, out=err))


def _initial_state(x_init: np.ndarray, nd: int, h: float, horizon: float) -> np.ndarray:
    """Check the run inputs shared by both integrators, the T/h samples of
    nd doubles among them, which must fit in an array; return a copy of
    x_init."""
    if not (math.isfinite(h) and math.isfinite(horizon)):
        raise NonFiniteError(f"step and horizon must be finite, got h={h}, T={horizon}")
    if not 0 < h <= horizon:
        raise DimensionMismatchError(f"need 0 < h <= T, got h={h}, T={horizon}")
    if horizon / h * nd * 8 > sys.maxsize:  # NumPy's intp bound: no array can hold the states
        raise _unallocated(horizon / h, nd)
    x = np.asarray(x_init, dtype=float).reshape(-1).copy()
    if x.shape[0] != nd:
        raise DimensionMismatchError(f"x_init has length {x.shape[0]}, expected {nd}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("x_init has NaN or infinite entries")
    return x


def _allocated(make: Callable[[], Any], samples: float, nd: int) -> Any:
    """make(), the arrays of a run of about ``samples`` samples of ``nd``
    states, with NumPy's MemoryError raised as ``_unallocated``'s error."""
    try:
        return make()
    except MemoryError:
        raise _unallocated(samples, nd) from None


def _unallocated(samples: float, nd: int) -> DimensionMismatchError:
    return DimensionMismatchError(
        f"a run of {samples:.6g} samples of {nd} states would take"
        f" {8.0 * nd * samples:.4g} bytes, which cannot be allocated"
    )


# byte budget of one stack of step-map powers (see _cut)
STACK_BYTES = 1 << 18
# byte budget of a kept pass, W and Pw together (see _kept_pass): W takes at
# most half, so eight stacks' worth holds the bundled cycle's W down to
# h = 5e-4 (806,400 bytes); stepping by a kept pass measured faster than by
# its spans' pieces at every W up to 3.2 MB, so the budget bounds only what
# is kept
PASS_BYTES = 8 * STACK_BYTES
# byte budget of one chunk of samples in a per-sample reduction (see _deviations)
_CHUNK_BYTES = 1 << 15


def _step_map(loop: ClosedLoop, h: float) -> "np.ndarray | csr_matrix":
    """The top rows [P | Q] of R(A) with A = -h M_theta: the classic RK4
    step of length h on zdot = -M_theta z is x <- [P | Q] z.  M_theta is a
    copy of the loop's M with its signal columns scaled by k1 (see
    ``protocol.ClosedLoop``) before the copy is scaled by -h.

    On a linear field the step is exactly this map: R(A) = I + A S(A),
    where S(A) = I + A/2 + A^2/6 + A^3/24 is evaluated by Horner's rule, and
    its bottom rows are [0 | I].  The map takes M's storage, dense or CSR,
    and is read-only; only a CSR loop imports ``scipy.sparse``."""
    nd, a = loop.nd, loop.matrix.copy()
    if isinstance(a, np.ndarray):
        a[:, nd:] *= loop.k1
        eye = np.eye(len(a))
    else:
        from scipy.sparse import identity
        a.data[a.indices >= nd] *= loop.k1
        eye = identity(a.shape[0], format="csr")
    a *= -h
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
    the eigenvalue 1 of its identity block, which may round above 1.  A map
    that overflows to inf or NaN is unstable, with rho(P) named inf.  The
    verdict, the error's message or "", is decided where the map is built
    and kept with it.  The maps keep one step length, the last used: a new
    h first drops the maps, stacks and verdict of the one before."""
    if (h, 1) not in loop.maps:
        loop.maps.clear()
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged below
            top, nd = _step_map(loop, h), loop.nd
            norm = float(abs(loop.matrix[:nd, :nd]).sum(axis=1).max())
        unstable = ""
        if h * norm > RK4_RADIUS:
            p = top[:, :nd]
            dense = p if isinstance(p, np.ndarray) else p.toarray()
            finite = np.isfinite(dense).all()  # eigvals rejects inf and NaN
            rho = float(np.abs(np.linalg.eigvals(dense)).max()) if finite else math.inf
            if rho > 1.0:
                # named to four digits, rounded down (to fewer where the scale
                # would overflow); 0 where ||L_B||_inf overflows
                certified = RK4_RADIUS / norm
                digits = 3 - math.floor(math.log10(certified)) if certified else 0
                scale = 10.0 ** min(digits, 308)
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


def _chunk_rows(nd: int) -> int:
    """Samples per chunk of a per-sample reduction over (samples, nd)
    states: as many as fit in ``_CHUNK_BYTES``, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * nd))


def _deviations(states: np.ndarray, target: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """(first sample, states - target) per ``_chunk_rows`` samples, last first, in one buffer."""
    buffer = np.empty((_chunk_rows(target.shape[0]), target.shape[0]))
    for a in reversed(range(0, len(states), len(buffer))):
        chunk = states[a : a + len(buffer)]
        yield a, np.subtract(chunk, target, out=buffer[: len(chunk)])


class _Piece(NamedTuple):
    """The top rows of the maps from a piece's start to each of its
    ``rows`` samples, stacked as ``_powers`` stacks them (a step map, dense
    or CSR, is the one-row stack), and, for a kept pass, ``powers``, the
    top rows of the first powers of its end map, the stack's last row
    block (see ``_kept_pass``)."""

    rows: int
    stack: "np.ndarray | csr_matrix"
    powers: Optional[np.ndarray] = None


def _cut(
    loop: ClosedLoop,
    gid: int,
    h: float,
    steps: int,
    remainder: float,
    shortened: Dict[tuple, "np.ndarray | csr_matrix"],
) -> List[Tuple[_Piece, int]]:
    """One span on graph ``gid`` cut into pieces in time order, with
    repeat counts: ``steps`` full steps in blocks of m rows (the last block
    shorter), then the shortened step if ``remainder`` is not 0.
    m = min(steps, STACK_BYTES // (nd^2 * 8)), and m = 1 when the map is
    CSR (its powers fill in) or too large for the budget.  The step map is
    the one-row stack; it and each stack are built once per (h, m) into
    ``loop.maps`` and outlive the run, and a shorter block takes the
    leading rows of its stack.  The shortened step is the one-row piece of
    its own map, which is built once per run and (gid, remainder) into
    ``shortened`` and is not kept: remainders vary with T and the switch
    times, and the maps keep one step length.  A kept pass holds its
    shortened steps composed (see ``_kept_pass``)."""
    cut = []
    if steps:
        top = _full_step(loop, h)
        nd = top.shape[0]
        m = max(1, min(steps, STACK_BYTES // (nd * nd * 8))) if isinstance(top, np.ndarray) else 1
        if (h, m) not in loop.maps:
            loop.maps[(h, m)] = _powers(top, m)
        stack = loop.maps[(h, m)]
        for rows, reps in ((m, steps // m), (steps % m, 1)):
            if rows:
                cut.append((_Piece(rows, stack if rows == m else stack[: rows * nd]), reps))
    if remainder:
        if (gid, remainder) not in shortened:
            shortened[(gid, remainder)] = _step_map(loop, remainder)
        cut.append((_Piece(1, shortened[(gid, remainder)]), 1))
    return cut


class _Plan(NamedTuple):
    """A run's layout, which follows (schedule, T, h) alone (see ``_plan``):
    the sample times, read-only, with row 0 at t = 0 for the initial state;
    each span's kind (graph id, full steps, the shortened step's length or
    0.0), in time order; the spans per pass of the schedule, ``unit``;
    ``passes``, the count of leading passes that repeat the first pass kind
    for kind; and ``gids``, the distinct graph ids of the spans in the
    order they first run.  ``passes`` is 1 when the second pass differs; a
    last pass that T cuts short, and any pass after the first that
    differs, end the count.  A span's sample count is its full steps, and
    one more for a shortened step."""

    times: np.ndarray
    kinds: Tuple[Tuple[int, int, float], ...]
    unit: int
    passes: int
    gids: Tuple[int, ...]


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
    ids = gids.tolist()
    kinds = tuple(zip(ids, full.tolist(), remainders.tolist()))
    first, passes = kinds[:unit], 1
    while kinds[passes * unit : (passes + 1) * unit] == first:
        passes += 1
    return _Plan(_read_only(times), kinds, unit, passes, tuple(dict.fromkeys(ids)))


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


def _kept_pass(
    loops: Mapping[int, ClosedLoop],
    plan: _Plan,
    h: float,
    cut: "Callable[[Tuple[int, int, float]], List[Tuple[_Piece, int]]]",
) -> Optional[_Piece]:
    """The piece of one of ``plan``'s repeating passes, or None where the
    passes are stepped by their spans' pieces: where a loop of the pass is
    CSR, or where its stack W would take more than half of ``PASS_BYTES``.

    W, the top rows of the maps from the pass start to each of its
    samples, (span nd) x (nd + d), is composed from the pieces of the pass
    in time order (see ``_cut``) by one GEMM per piece,
    W_j = S_j [[end of W_(j-1)], [0, I]] with S_j the piece's stack; its
    last row block is the pass map M.  Its powers, the top rows of M^1 ...
    M^(k-1), come by doubling (``_powers``), for blocks of k passes, up to
    the plan's, as many as what W leaves of ``PASS_BYTES`` holds, so that
    a block has at least span + 1 passes and W is read at most once per
    span passes.  Both are read-only and kept in the maps of the loop of
    the pass's first span, when every loop of the pass is the store's
    (``ClosedLoop.kept``), so they die with its graph and with its step
    length.  They are found there again for the same pass kinds and the
    same matrices M of the pass's loops, compared by identity, so that a
    new design on any graph of the pattern misses; a hit skips the cut,
    and a plan with another pass count only rebuilds the powers."""
    kinds = plan.kinds[: plan.unit]
    matrices = tuple(loops[gid].matrix for gid, _, _ in kinds)
    nd, width = loops[kinds[0][0]].nd, matrices[0].shape[1]
    maps = loops[kinds[0][0]].maps
    kept = maps.get((h, "pass"))
    if kept is None or kept[0] != kinds or any(a is not b for a, b in zip(kept[1], matrices)):
        if not all(isinstance(a, np.ndarray) for a in matrices):
            return None
        unit = [piece for kind in kinds for piece, reps in cut(kind) for _ in range(reps)]
        rows = sum(piece.rows for piece in unit)
        if 2 * rows * nd * width * 8 > PASS_BYTES:
            return None
        w = np.empty((rows * nd, width))
        lift = np.eye(width)  # [[end of W_(j-1)], [0, I]], the identity for j = 0
        row = 0
        for piece in unit:
            np.matmul(piece.stack, lift, out=w[row : row + piece.rows * nd])
            row += piece.rows * nd
            lift[:nd] = w[row - nd : row]
        kept = (kinds, matrices, _Piece(rows, _read_only(w)))
    piece = kept[2]
    size = min(plan.passes, 1 + (PASS_BYTES - piece.stack.nbytes) // (nd * width * 8))
    if piece.powers is None or len(piece.powers) != (size - 1) * nd:
        piece = piece._replace(powers=_powers(piece.stack[-nd:], size - 1))
        if all(loops[gid].kept for gid, _, _ in kinds):
            maps[(h, "pass")] = (kinds, matrices, piece)
    return piece


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
    (``Work``).  The run is a list of groups (piece, reps) in time order:
    the repeating passes as one group of the piece that ``_kept_pass``
    gives, where it gives one, and every other span cut into pieces
    (``_cut``).  A one-row piece, a CSR step map or a shortened step, takes
    the state from sample to sample, one matvec per step.  Any other group
    runs in blocks, one unless its powers cap the passes of a block: the
    z-starts [x | theta] of its repeats come from one GEMV of the powers,
    or one matvec each with the end map, the stack's last row block; one
    GEMM of the starts by the stack then writes the block's samples into
    the states, where they lie back to back, one repeat per row of a
    (reps, rows nd) view.  A group starts from the last sample before it;
    theta enters the run only here.  A CSR run's states are those of
    stepping x <- [P | Q] z; elsewhere they agree with stage-by-stage RK4 to
    about 1e-14 relative.  A block's GEMM stays one product: its results
    depend on its row count, so chunks would change the states in their
    last bits.  The guard checks every sample once against
    ``DIVERGENCE_GUARD`` max(1, max|x|, max|theta|), capped at the largest
    finite double, and names the first that fails: a run scaled by a power
    of two passes as the run does, and an infinite or NaN state fails.  The
    run gets its own copy of the plan's times."""
    nd, width = x.shape[0], x.shape[0] + theta.shape[0]
    times, states = _allocated(
        lambda: (plan.times.copy(), np.empty((len(plan.times), nd))), len(plan.times), nd
    )
    states[0] = x
    # the shortened steps' maps live for this run only; the step maps,
    # stacks and the kept pass are in the loops' maps
    shortened: Dict[tuple, "np.ndarray | csr_matrix"] = {}

    def cut(kind: Tuple[int, int, float]) -> List[Tuple[_Piece, int]]:
        gid, steps, remainder = kind
        return _cut(loops[gid], gid, h, steps, remainder, shortened)

    row = chain = fills = 0
    # an unstable map overflows in the chain, in its powers or in the kept
    # pass; the guard reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        kept = _kept_pass(loops, plan, h, cut) if plan.passes > 1 else None
        passes = 0 if kept is None else plan.passes
        groups = [(kept, passes)] if passes else []
        for kind in plan.kinds[passes * plan.unit :]:
            groups += cut(kind)
        for (rows, stack, powers), reps in groups:
            if rows == 1:  # the chain writes the samples
                z = np.concatenate([states[row], theta])
                for _ in range(reps):
                    row += 1
                    states[row] = stack @ z
                    z[:nd] = states[row]
                chain += reps
                continue
            size = reps if powers is None else len(powers) // nd + 1
            starts = np.empty((min(size, reps), width))
            starts[:, nd:] = theta
            for first in range(0, reps, size):
                k = min(size, reps - first)
                starts[0, :nd] = states[row]
                if powers is None:
                    for i in range(1, k):
                        starts[i, :nd] = stack[-nd:] @ starts[i - 1]
                    chain += k - 1
                else:
                    starts[1:k, :nd] = (powers[: (k - 1) * nd] @ starts[0]).reshape(k - 1, nd)
                    chain += 1
                out = states[row + 1 : row + 1 + k * rows].reshape(k, rows * nd)
                np.matmul(starts[:k], stack.T, out=out)
                row += k * rows
                fills += 1
    # max and min pass a NaN on, so a NaN state fails the test too; no
    # full-size temporary is made unless a sample fails and must be named
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(theta).max()))
    guard = min(DIVERGENCE_GUARD * scale, sys.float_info.max)
    if not (states[1:].max() <= guard and states[1:].min() >= -guard):
        ok = np.abs(states[1:]).max(axis=1) <= guard
        raise NonFiniteError(
            f"state exceeded {guard:g} or became NaN"
            f" at t={times[1 + np.argmin(ok)]:.6g}"
        )
    return Trajectory(times=times, states=states, n=g.n, d=g.d, theta=theta,
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
    plan = _allocated(lambda: _plan(None, horizon, h), horizon / h, len(x))
    return _march(g, design.theta, {0: loop}, plan, x, h)


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
    carries in z = [x; theta] across the switches: the same array, as
    ``protocol.design_switching`` gives every design, or one of equal
    values (NaN equal to NaN).  Otherwise this raises
    ``DimensionMismatchError`` before any step, as do a step h above a
    quarter of the dwell time and a dwell time below the design's (for
    which its contraction factor does not hold).  A schedule that runs a
    graph id with no design before T raises ``ScheduleExhaustedError``,
    naming the first such id in time order (the plan's ``gids``).  These
    checks come before any step map is built, so a rejected call leaves
    the kept maps and pass of the step length in use as they were.  A step
    h that passes them but is unstable on any of the design's loops raises
    ``NotContractingError``, also before any step; it replaces the kept
    maps by its own, since the verdict is kept per step length (see
    ``_full_step``)."""
    first = _first_of_one_shape(graphs)
    for gid in sdesign.designs:
        if gid not in graphs:
            raise DimensionMismatchError(f"the design has graph id {gid}, which has no graph")
    x = _initial_state(x_init, first.n * first.d, h, horizon)
    if h > schedule.alpha / 4.0 + 1e-15:
        raise DimensionMismatchError(
            f"step h={h:g} must not exceed a quarter of the dwell time {schedule.alpha:g}"
        )
    if schedule.alpha < sdesign.alpha:
        raise DimensionMismatchError(
            f"the schedule's dwell time {schedule.alpha:g} is below the design's {sdesign.alpha:g}"
        )
    plan = _allocated(lambda: _plan(schedule, horizon, h), horizon / h, len(x))
    for gid in plan.gids:
        if gid not in sdesign.designs:
            raise ScheduleExhaustedError(f"schedule references unknown graph id {gid}")
    (lead, design), *rest = sorted(sdesign.designs.items())
    theta = design.theta
    for gid, other in rest:
        if other.theta is not theta and not np.array_equal(other.theta, theta, equal_nan=True):
            raise DimensionMismatchError(
                f"graph {gid}'s design has theta {other.theta.tolist()}, graph {lead}'s has"
                f" {theta.tolist()}; a switching run needs one theta"
            )
    loops = {gid: closed_loop(graphs[gid], d) for gid, d in sdesign.designs.items()}
    for loop in loops.values():
        _full_step(loop, h)
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
    ``DEFAULT_WINDOW`` fraction of the run must be within ``DEFAULT_TOL``
    times max |theta| of theta in the per-agent infinity norm, so the verdict
    does not change when theta and the run are scaled by a power of two.

    A sample fails when any |x - theta| is not below the tolerance.  The
    settle time is the time of the sample after the last failing one, and
    the run has converged when no failing sample lies in the window.  The
    last sample's largest deviation is the final error; when it fails and
    lies in the window, that sample alone decides the report.  Otherwise
    the deviations are read in chunks from the last (``_deviations``), and
    only until the last failing sample and the window's verdict are known.
    A theta with NaN or infinite entries raises ``NonFiniteError``, and an
    all-zero theta, whose tolerance no run could meet, ``ZeroThetaError``,
    as ``protocol.design_fixed`` raises them."""
    th = traj.theta if theta is None else np.asarray(theta, dtype=float).reshape(-1)
    if th.shape[0] != traj.d:
        raise DimensionMismatchError(f"theta has dimension {th.shape[0]}, run has d={traj.d}")
    values = th.tolist()
    _check_theta_values(values)
    tol = DEFAULT_TOL * max(map(abs, values))
    times = traj.times
    start = (1.0 - DEFAULT_WINDOW) * times[-1]  # the window's first time
    final = float(np.abs(traj.states[-1].reshape(traj.n, traj.d) - th).max())
    if not final < tol and times[-1] >= start:
        return ConvergenceReport(converged=False, final_error=final, settle_time=None)
    window = times >= start
    first = int(np.argmax(window)) if window.any() else len(times)  # the window's first sample
    last_bad, converged = -1, True
    for a, dev in _deviations(traj.states, np.tile(th, traj.n)):
        np.abs(dev, out=dev)
        bad = a + np.flatnonzero(~(dev < tol).all(axis=1))
        if bad.size:
            last_bad = max(last_bad, int(bad[-1]))
            converged = converged and not window[bad].any()
        if last_bad >= 0 and (not converged or a <= first):
            break
    settle: Optional[float] = None
    if final < tol:
        settle = 0.0 if last_bad < 0 else float(times[last_bad + 1])
    return ConvergenceReport(converged=converged, final_error=final, settle_time=settle)
