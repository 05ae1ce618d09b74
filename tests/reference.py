"""Proof devices and references that check the package from outside.

The mirrored lifting, the quadratic-form bound and the logarithmic norm are
devices of the paper's proofs, and the SVD null space with its principal
angles is the reference that ``verify_design``'s singular-value test is
checked against.  The whole-run convergence report and the necessary
condition with an SVD on every matrix are the plain formulas that
``convergence_report`` and ``necessary_condition_check`` compute in chunks
and behind cheap bounds.  The interval generator and the per-span layout
are the plain loops that ``simulate._expand`` and ``simulate._layout`` lay
out as arrays, the piece chain is the interval-by-interval stepping that ``simulate._march``
replaced with passes where a schedule repeats, and the affine loop is the
closed loop xdot = -L_B x + f that ``simulate`` steps in the linear form on
z = [x; theta].  None of them is part of checking, designing or simulating,
so they live here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ntconsensus import (
    ConsensusError,
    ConvergenceReport,
    Laplacian,
    SignedGraph,
    ProtocolDesign,
    SwitchingSchedule,
    Trajectory,
    augmented_laplacian,
    design_laplacians,
)
from ntconsensus.errors import ScheduleExhaustedError
from ntconsensus.graph import in_out_gaps
from ntconsensus.protocol import MEMBER_TOL
from ntconsensus.simulate import DEFAULT_TOL, DEFAULT_WINDOW, STACK_BYTES
from ntconsensus.spectral import RANK_TOL


class NotNonnegativeWeightsError(ConsensusError):
    pass


def grounded_block(
    g: SignedGraph, delta: float, informed: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """The grounded Laplacian: the augmented one's leading nd x nd block."""
    nd = g.n * g.d
    return augmented_laplacian(g, delta, informed, blocks).matrix[:nd, :nd]


def signed_laplacian(g: SignedGraph) -> np.ndarray:
    """The grounded Laplacian with nothing grounded."""
    return grounded_block(g, 0.0, np.zeros(0, dtype=np.intp), np.zeros((0, g.d, g.d)))


def expand_system(
    g: SignedGraph, delta: float, informed: np.ndarray, blocks: np.ndarray
) -> Tuple[SignedGraph, Laplacian]:
    """Mirror every agent and reroute antagonistic edges to the mirror copies.

    The definiteness-order max{A, 0} keeps positive-class weights in place and
    moves negative-class ones (as magnitudes) onto the cross edges.  Returns
    the all-nonnegative 2N-vertex graph and its grounded Laplacian, with the
    mirror copies grounded through B_i as well: the grounded Laplacian holds
    only |B_i|, and the blocks are positive semidefinite.
    """
    edges: Dict[Tuple[int, int], np.ndarray] = {}
    for i, j, code, w in zip(
        (g.heads + 1).tolist(), (g.tails + 1).tolist(), g.classes.tolist(), g.entries
    ):
        if code > 0:
            edges[(i, j)] = w
            edges[(i + g.n, j + g.n)] = w
        else:
            edges[(i + g.n, j)] = -w
            edges[(i, j + g.n)] = -w
    expanded = SignedGraph.from_edges(2 * g.n, g.d, g.directed, edges)
    informed = np.asarray(informed, dtype=np.intp)
    lifted = grounded_block(
        expanded, delta, np.concatenate([informed, informed + g.n]),
        np.concatenate([blocks, blocks]),
    )
    return expanded, Laplacian(lifted)


def quadratic_form_gap(g: SignedGraph, x: np.ndarray) -> float:
    """Quadratic-form slack of the signed Laplacian of an all-nonnegative
    graph over the per-vertex lower bound; nonnegative up to roundoff.

    Returns x^T L x - sum_i x_i^T [(1/2) sum_{j != i} (A_ij - A_ji)] x_i.
    """
    negative = np.flatnonzero(g.classes < 0)
    if negative.size:
        k = negative[0]
        raise NotNonnegativeWeightsError(
            f"edge ({g.tails[k] + 1}->{g.heads[k] + 1}) has negative class code "
            f"{int(g.classes[k])}"
        )
    x = np.asarray(x, dtype=float).reshape(g.n * g.d)
    phi = float(x @ signed_laplacian(g) @ x)
    gaps = in_out_gaps(g)  # every weight is nonnegative, so magnitudes are the weights
    rhs = 0.0
    for xi, gap in zip(x.reshape(g.n, g.d), gaps):
        rhs += float(xi @ (0.5 * gap) @ xi)
    return phi - rhs


def log_norm2(m: np.ndarray) -> float:
    """Logarithmic norm induced by the spectral norm: lambda_max of the
    symmetric part, which bounds ||e^{tM}||_2 by e^{t mu(M)}."""
    return float(np.linalg.eigvalsh((m + m.T) / 2.0).max())


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the right null space, via SVD; singular
    values at or below RANK_TOL * sigma_max count as zero, as in
    ``spectral.null_dimension``."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] != 0.0 else 0
    return vt[rank:].T.copy()


def principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle (radians) between the subspaces spanned by the
    orthonormal columns of a and b."""
    assert a.shape[0] == b.shape[0], "bases have mismatched row dimensions"
    if a.shape[1] != b.shape[1]:
        return float(np.pi / 2)
    if a.shape[1] == 0:
        return 0.0
    sigma = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(sigma.min(), -1.0, 1.0)))


def whole_run_report(traj: Trajectory, theta: Optional[np.ndarray] = None) -> ConvergenceReport:
    """The convergence report from the per-sample maximum deviation of the
    whole run, taken at once."""
    th = traj.theta if theta is None else np.asarray(theta, dtype=float).reshape(-1)
    dev = np.abs(traj.states - np.tile(th, traj.n))
    per_sample = dev.reshape(len(traj.times), traj.n, traj.d).max(axis=(1, 2))
    tail = traj.times >= (1.0 - DEFAULT_WINDOW) * traj.times[-1]
    settle = None
    if per_sample[-1] < DEFAULT_TOL:
        bad = np.nonzero(per_sample >= DEFAULT_TOL)[0]
        settle = 0.0 if bad.size == 0 else float(traj.times[min(bad[-1] + 1, len(traj.times) - 1)])
    return ConvergenceReport(
        converged=bool(np.all(per_sample[tail] < DEFAULT_TOL)),
        final_error=float(per_sample[-1]),
        settle_time=settle,
    )


def necessary_condition_svd(zstar: np.ndarray, matrices: Sequence[np.ndarray]) -> bool:
    """||M z|| <= ``MEMBER_TOL`` ||z|| max(1, ||M||_2) for every M, with an
    SVD for every ||M||_2."""
    zstar = np.asarray(zstar, dtype=float).reshape(-1)
    scale = MEMBER_TOL * float(np.linalg.norm(zstar))
    return all(
        float(np.linalg.norm(m @ zstar)) <= scale * max(1.0, float(np.linalg.norm(m, 2)))
        for m in matrices
    )


def schedule_intervals(
    schedule: SwitchingSchedule, horizon: float
) -> Iterator[Tuple[float, float, int]]:
    """Yield (start, end, graph_id) covering [0, horizon], one pass of the
    pattern after another, each offset by the period added once more."""
    edges = schedule._edges()
    period = edges[-1]
    offset = 0.0
    while True:
        for idx, gid in enumerate(schedule.graph_ids):
            start = offset + edges[idx]
            end = offset + edges[idx + 1]
            if start >= horizon:
                return
            yield start, min(end, horizon), gid
            if end >= horizon:
                return
        if not schedule.repeat:
            raise ScheduleExhaustedError(
                f"schedule ends at t={period:g} < T={horizon:g} and does not repeat"
            )
        offset += period


def span_layout(
    spans: Sequence[Tuple[float, float, int]], h: float
) -> Tuple[List[float], List[Tuple[int, int, float]]]:
    """The sample times of a run over ``spans`` and each span's kind (graph
    id, full steps, the shortened step's length or 0.0), span by span: full
    steps sampled at start + j h, then a shortened step if more than 1e-12
    is left, and a span's last sample, if it has one, exactly at its end."""
    times, kinds = [0.0], []
    for start, end, gid in spans:
        full = int(np.floor((end - start) / h + 1e-9))
        remainder = (end - start) - full * h
        short = remainder > 1e-12
        times += [start + h * j for j in range(1, full + 1 + short)]
        if full + short:
            times[-1] = float(end)
        kinds.append((gid, full, remainder if short else 0.0))
    return times, kinds


def leading_passes(kinds: Sequence[Tuple[int, int, float]], unit: int) -> int:
    """The count of leading passes of ``unit`` span kinds each that equal
    the first pass kind for kind, at least 1, pass by pass."""
    passes = 1
    for start in range(unit, len(kinds) - unit + 1, unit):
        if list(kinds[start : start + unit]) != list(kinds[:unit]):
            break
        passes += 1
    return passes


def affine_loop(g: SignedGraph, design: ProtocolDesign) -> Tuple[np.ndarray, np.ndarray]:
    """The closed loop xdot = -L_B x + f of a design, from the dense blocks
    of its augmented Laplacian M: L_B = M[:nd, :nd] and f = -M[:nd, nd:] x0."""
    nd = g.n * g.d
    augmented = design_laplacians(g, design)[1].matrix
    return augmented[:nd, :nd], -augmented[:nd, nd:] @ design.x0


def piece_chain(
    systems, kinds: Sequence[Tuple[int, int, float]], x: np.ndarray, h: float, dense: bool
) -> np.ndarray:
    """The samples of a run over span ``kinds`` (graph id, full steps,
    shortened step or 0.0) on the affine loops (L_B, f) that ``systems``
    keys by graph id, interval by interval: each span's full steps in
    blocks of up to m steps, m = min(steps, STACK_BYTES // (nd^2 * 8)) for
    ``dense`` step maps and 1 for CSR ones, the state going from block end
    to block end by P^r x + o_r and the samples inside a block taken from
    its start state, then the shortened step by its own map.  The step map
    x <- P x + q is RK4's on an affine field, P = R(A) = I + A S(A) and
    q = h S(A) f with A = -h L_B and S(A) = I + A/2 + A^2/6 + A^3/24, each
    power formed in turn; P^r and o_r come from one step at a time,
    o_{r+1} = P o_r + q, and nothing is kept."""
    def step_map(lap, f, step):
        a = -step * lap
        a2 = a @ a
        s = np.eye(len(lap)) + a / 2.0 + a2 / 6.0 + (a2 @ a) / 24.0
        return np.eye(len(lap)) + a @ s, step * (s @ f)

    states = [np.asarray(x, dtype=float)]
    for gid, steps, remainder in kinds:
        lap, f = systems[gid]
        p, q = step_map(lap, f, h)
        m = max(1, min(steps, STACK_BYTES // p.nbytes)) if dense else 1
        powers, offsets = [p], [q]
        for _ in range(m - 1):
            powers.append(p @ powers[-1])
            offsets.append(p @ offsets[-1] + q)
        for done in range(0, steps, m):
            start = x
            for r in range(min(m, steps - done)):
                x = powers[r] @ start + offsets[r]
                states.append(x)
        if remainder:
            p, q = step_map(lap, f, remainder)
            x = p @ x + q
            states.append(x)
    return np.array(states)
