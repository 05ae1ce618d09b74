"""Synthesis and verification of the nonzero-consensus coupling design.

The design drives every agent of a signed matrix-weighted network to a preset
nonzero state theta by coupling the antagonized vertices to a constant
external signal x0 = k1 * theta with k1 = 1 + 2/delta.

The closed loop is linear in z = [x; theta] (see ``ClosedLoop``), and its
one matrix is the augmented Laplacian M; theta enters a run only as z's
last d entries, so all else a design or a run needs depends on the graph,
V1 and delta alone.  ``_STORE`` keeps those theta-free values in the loop
of the last design that ``design_fixed`` made on each graph object; a
second such design, or a run of it, on the same graph object reuses them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AssumptionViolatedError,
    DegenerateCouplingError,
    DimensionMismatchError,
    NonFiniteError,
    NotContractingError,
    ZeroThetaError,
)
from .graph import (
    Decomposition,
    SignedGraph,
    classify_stack,
    verify_assumption,
)
from .spectral import (
    RANK_TOL,
    Laplacian,
    augmented_laplacian,
    consensus_space,
    eigenvalues_sorted,
    laplacian_blocks,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

INVERT_TOL = 1e-8
SPEC_TOL = 1e-8
ANGLE_TOL = 1e-6
MEMBER_TOL = 1e-6


@dataclass(frozen=True)
class ProtocolDesign:
    theta: np.ndarray  # (d,) read-only, a float copy unless given read-only and float
    delta: float
    informed: np.ndarray  # (k,) ascending 1-based ids of the informed vertices
    blocks: np.ndarray  # (k, d, d) their coupling blocks B_i, positive semidefinite
    bound_c: float
    per_vertex_c: Dict[int, float]

    def __post_init__(self) -> None:  # a read-only float theta is kept, to be shared
        th = self.theta
        if not (isinstance(th, np.ndarray) and th.dtype == float and not th.flags.writeable):
            object.__setattr__(self, "theta", _read_only(np.array(th, dtype=float)))

    @property
    def k1(self) -> float:
        return 1.0 + 2.0 / self.delta

    @property
    def x0(self) -> np.ndarray:
        return self.k1 * self.theta

    def to_dict(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "delta": self.delta,
            "k1": self.k1,
            "x0": self.x0.tolist(),
            "informed": self.informed.tolist(),
            "C": self.bound_c,
            "perVertexC": {str(i): c for i, c in sorted(self.per_vertex_c.items())},
            "blocks": {str(i): b.tolist() for i, b in zip(self.informed.tolist(), self.blocks)},
        }


@dataclass(frozen=True)
class SwitchingDesign:
    designs: Dict[int, ProtocolDesign]  # keyed by graph id
    alpha: float


def _read_only(a: Any) -> Any:
    """a, made read-only in place: an array, or a CSR matrix's three arrays."""
    for arr in (a.data, a.indices, a.indptr) if hasattr(a, "indptr") else (a,):
        arr.flags.writeable = False
    return a


@dataclass(eq=False, repr=False)
class ClosedLoop:
    """The closed loop of a design on a graph, zdot = -M_theta z on
    z = [x; theta], whose equilibrium is 1 (x) theta for every theta.  Its one
    matrix is the augmented Laplacian M = [[L_B, -delta F], [0, 0]], (n+1)d
    square with block i of F the coupling block B_i, dense or CSR as ``_dense``
    decides; M_theta is M with its last d columns, after the ``nd`` of x,
    scaled by ``k1``, which ``simulate._step_map`` applies to its copy.
    ``maps`` holds the step maps, their stability verdict and the stacks that
    ``simulate`` builds for one full step length, the last used, and the kept
    pass of a repeating schedule whose first span runs on this loop.  g's
    ``_STORE`` entry is the loop of the design that ``design_fixed`` last made
    on g, and the only ``kept`` one, whose maps outlive a run; it also holds
    the (decomposition, margin, delta) asked for, the design without theta and
    the contraction factor's lambda_min.  Every value is theta-free and filled
    on first use; every array is read-only."""

    matrix: "np.ndarray | csr_matrix | None" = None
    k1: float = 1.0
    nd: int = 0
    maps: Dict[tuple, Any] = field(default_factory=dict)
    kept: bool = False
    asked: Optional[tuple] = None
    design: Optional[tuple] = None  # (delta, informed, blocks, C, per-vertex C)
    lmin: Optional[float] = None


# one entry per graph object, dying with it; only ``design_fixed`` writes
# it, and its next design on the graph replaces the entry
_STORE: "weakref.WeakKeyDictionary[SignedGraph, ClosedLoop]" = weakref.WeakKeyDictionary()


def _reuse(g: SignedGraph, design: ProtocolDesign) -> ClosedLoop:
    """g's store entry when it holds ``design``: the same delta, with
    ``informed`` and ``blocks`` that are the entry's own read-only arrays.
    Any other design gets a fresh loop that is not stored or kept, since
    the values of a writable array may change under the same identity."""
    entry = _STORE.get(g)
    if entry is not None:
        delta, informed, blocks = entry.design[:3]
        if design.delta == delta and design.informed is informed and design.blocks is blocks:
            return entry
    return ClosedLoop()


def _bound(
    gaps: np.ndarray, v1: Sequence[int], blocks: np.ndarray
) -> Tuple[Dict[int, float], float]:
    """C_i = (1/2) lambda_max of |B_i|^{-1} M_i over V1, with |B_i| = B_i the
    V1 vertices' ``blocks`` and M_i the negated gap.  One stacked ``eigh``
    gives B_i = V diag(w) V^T; its w is the floor check (every eigenvalue
    above ``INVERT_TOL``, or ``DegenerateCouplingError`` names the first V1
    vertex below it), and with S = V diag(w)^{-1/2}, C_i is half the largest
    eigenvalue of the symmetric S^T M_i S, from one stacked ``eigvalsh``.  A
    NaN gap gives a NaN C_i."""
    w, v = np.linalg.eigh(blocks)
    low = w[:, 0] <= INVERT_TOL
    if low.any():
        raise DegenerateCouplingError(
            f"V1 vertex {v1[int(np.argmax(low))]} lacks a positive definite"
            " negative-in-weight sum"
        )
    s = v / np.sqrt(w)[:, None, :]
    # 0.0 - gap rather than -gap keeps a zero gap at +0.0, so C_i is never -0.0
    reduced = s.swapaxes(1, 2) @ (0.0 - gaps[np.asarray(v1) - 1]) @ s
    c = 0.5 * np.linalg.eigvalsh((reduced + reduced.swapaxes(1, 2)) / 2.0).max(axis=1)
    return dict(zip(v1, c.tolist())), float(c.max())  # a NaN C_i makes C NaN


def design_fixed(
    g: SignedGraph,
    dec: Decomposition,
    theta: np.ndarray,
    margin: float = 0.1,
    delta: Optional[float] = None,
) -> ProtocolDesign:
    """Synthesize the coupling design for a fixed topology.

    Informed vertices are exactly those with incoming negative edges; each
    gets B_i, the sum of |A_ij| over its negative in-edges (see
    ``_stored_design``).  Directed graphs use
    delta = C + margin with C the coupling bound at these blocks; undirected
    graphs accept any positive delta, so delta = margin and C is reported as
    0.  An explicit ``delta`` overrides the margin rule (C is still
    reported); in that case a failed decomposition check is tolerated, since
    the caller takes responsibility for the coefficient and verify_design
    delivers the operative spectral verdict.  ``margin`` must be finite and
    positive either way.  The design's ``theta`` is a read-only copy (see
    ``_checked_theta``).  The theta-free part is computed once per graph
    object and (dec, margin, delta) (see ``_STORE``); ``informed`` and
    ``blocks`` are read-only, and each design gets its own ``per_vertex_c``.
    """
    return _stored_design(g, dec, _checked_theta(theta, g.d), margin, delta)


def _checked_theta(theta: np.ndarray, d: int) -> np.ndarray:
    """theta as a read-only float copy, once it is checked to have length d
    and to be finite and nonzero; a copy, so that a later change to the
    caller's array does not reach a design."""
    theta = np.array(theta, dtype=float).reshape(-1)
    if theta.shape[0] != d:
        raise DimensionMismatchError(
            f"theta has dimension {theta.shape[0]}, graph has d={d}"
        )
    if not np.all(np.isfinite(theta)):
        raise NonFiniteError("theta has NaN or infinite entries")
    if not np.any(theta):
        raise ZeroThetaError("the preset consensus state must be nonzero")
    return _read_only(theta)


def _stored_design(
    g: SignedGraph, dec: Decomposition, theta: np.ndarray, margin: float, delta: Optional[float]
) -> ProtocolDesign:
    """The design on g with the checked ``theta`` (see ``_checked_theta``),
    which it keeps as given.  Its theta-free part is g's store entry when
    that was made for (dec, margin, delta), else it is made and stored
    here: B_i sums |A_ij| over vertex i's negative in-edges in edge order
    into an (n, d, d) array, and one stacked classification of the informed
    rows raises on an overflowing or numerically indefinite sum.  The sums
    add symmetric magnitudes in one order at (a, b) and (b, a), so they are
    the classified rows to the bit, and V1's rows, zeros where a V1 vertex
    has no negative in-edge, feed ``_bound`` directly."""
    if not math.isfinite(margin):
        raise NonFiniteError(f"margin must be finite, got {margin}")
    if margin <= 0:
        raise DegenerateCouplingError(f"margin must be positive, got {margin}")
    entry = _STORE.get(g)
    if entry is None or entry.asked != (dec, margin, delta):
        report = verify_assumption(g, dec)
        if not report.ok and delta is None:
            raise AssumptionViolatedError(
                f"decomposition fails for vertices {list(report.failures)}"
            )
        negative = g.classes < 0
        heads = g.heads[negative]
        sums = np.zeros((g.n, g.d, g.d))
        np.add.at(sums, heads, g.magnitudes[negative])
        # not np.unique, whose first call imports numpy.ma (about 20 ms in a CLI process)
        rows = np.flatnonzero(np.bincount(heads))
        blocks, _, errors = classify_stack(sums[rows])
        if errors:
            raise errors[min(errors)]
        if g.directed:
            v1 = sorted(dec.v1)
            per_vertex, bound_c = _bound(g.in_out_gaps, v1, sums[np.asarray(v1) - 1])
        else:
            per_vertex, bound_c = {}, 0.0
        chosen = bound_c + margin if delta is None else delta  # undirected: 0.0 + margin == margin
        if not math.isfinite(chosen):
            raise NonFiniteError(f"coupling coefficient must be finite, got {chosen}")
        if chosen <= 0:
            raise DegenerateCouplingError(f"coupling coefficient must be positive, got {chosen}")
        entry = _STORE[g] = ClosedLoop(
            kept=True, asked=(dec, margin, delta),
            design=(float(chosen), _read_only(rows + 1), _read_only(blocks), bound_c, per_vertex),
        )
    chosen, informed, blocks, bound_c, per_vertex = entry.design
    return ProtocolDesign(
        theta=theta, delta=chosen, informed=informed, blocks=blocks,
        bound_c=bound_c, per_vertex_c=dict(per_vertex),
    )


def design_laplacians(g: SignedGraph, design: ProtocolDesign) -> Tuple[Laplacian, Laplacian]:
    """A design's grounded and augmented Laplacians, read-only: M and a view
    of its leading nd x nd block.  M is its loop's own where ``_dense``
    holds (see ``closed_loop``), else a scatter per call, not kept."""
    m = closed_loop(g, design).matrix if _dense(g, design) else _read_only(
        augmented_laplacian(g, design.delta, design.informed, design.blocks).matrix)
    nd = g.n * g.d
    return Laplacian(m[:nd, :nd]), Laplacian(m)


def _dense(g: SignedGraph, design: ProtocolDesign) -> bool:
    """The quarter rule: M is dense when more than a quarter of its top block
    row's nd x (nd + d) entries are ``laplacian_blocks`` entries (a block per
    edge, per vertex and, for delta != 0, per informed vertex), else CSR."""
    nd, count = g.n * g.d, len(g.heads) + g.n + (len(design.informed) if design.delta else 0)
    return 4 * count * g.d * g.d > nd * (nd + g.d)


def closed_loop(g: SignedGraph, design: ProtocolDesign) -> ClosedLoop:
    """The design's closed loop on g: g's store entry for the stored design
    (see ``_reuse``), whose M, k1 and nd are filled on first use.  M is
    stored as ``_dense`` decides, once: ``augmented_laplacian``'s scatter of
    the ``laplacian_blocks`` triplets, or their COO sum in CSR form, which
    holds the scatter's values, since no block pair repeats."""
    loop = _reuse(g, design)
    if loop.matrix is None:
        d, width = g.d, (g.n + 1) * g.d
        if _dense(g, design):
            m = augmented_laplacian(g, design.delta, design.informed, design.blocks).matrix
        else:
            # imported here: scipy.sparse takes about 0.25 s to import cold (2-vCPU host)
            from scipy.sparse import csr_matrix
            rows, cols, data = laplacian_blocks(g, design.delta, design.informed, design.blocks)
            k = np.arange(d)
            r = np.broadcast_to(rows[:, None, None] * d + k[:, None], data.shape).ravel()
            c = np.broadcast_to(cols[:, None, None] * d + k, data.shape).ravel()
            m = csr_matrix((data.ravel(), (r, c)), shape=(width, width))
        loop.matrix, loop.k1, loop.nd = _read_only(m), design.k1, width - d
    return loop


@dataclass(frozen=True)
class DesignReport:
    null_dim: int  # of the augmented Laplacian's null space
    null_ok: bool
    equilibrium_residual: float
    eigenvalues: Tuple[complex, ...]  # grounded spectrum, ascending real part

    @property
    def min_real_part(self) -> float:  # of the grounded Laplacian's spectrum
        return float(self.eigenvalues[0].real)

    @property
    def spec_ok(self) -> bool:
        return self.min_real_part > SPEC_TOL

    def spectral_dict(self) -> dict:
        """The spectral part of the report, as the CLI writes it."""
        return {
            "minRealPart": self.min_real_part,
            "nullDim": self.null_dim,
            "psiMatch": self.null_ok,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
        }


def verify_design(g: SignedGraph, design: ProtocolDesign) -> DesignReport:
    """Spectral and null-space verdicts for a design, report-only, from the
    grounded spectrum and one solve.

    spec_ok: every grounded-Laplacian eigenvalue has real part above 1e-8.
    null_dim: d plus the eigenvalues of L_B of modulus at most RANK_TOL *
    max |lambda|; M = [[L_B, -delta F], [0, 0]] has rank nd when L_B is
    nonsingular.  null_ok: null_dim is d and M's null space lies within
    principal angle 1e-6 of span psi.  With Y = L_B^-1 (M psi)_top,
    psi - [Y; 0] lies in that null space, and psi's d orthogonal columns
    each have norm sqrt(n + k1^2), so ||Y||_F / sqrt(n + k1^2) bounds the
    sine of the largest angle, and that bound is tested.
    """
    grounded, augmented = design_laplacians(g, design)
    eigs = eigenvalues_sorted(grounded.matrix)
    size = np.abs(eigs)
    null_dim = g.d + int(np.sum(size <= RANK_TOL * size.max()))
    residual = augmented.matrix @ consensus_space(g.n, g.d, 1.0, design.k1)
    return DesignReport(
        null_dim=null_dim,
        null_ok=null_dim == g.d
        and float(np.linalg.norm(np.linalg.solve(grounded.matrix, residual[: g.n * g.d])))
        < ANGLE_TOL * math.sqrt(g.n + design.k1**2),
        equilibrium_residual=float(np.max(np.abs(residual))),
        eigenvalues=tuple(eigs),
    )


def _first_of_one_shape(graphs: Mapping[int, SignedGraph]) -> SignedGraph:
    """The graph with the smallest id, once every graph is checked to have
    its vertex count n and weight dimension d."""
    if not graphs:
        raise DimensionMismatchError("need at least one graph")
    gids = sorted(graphs)
    first = graphs[gids[0]]
    for gid in gids:
        shape = (graphs[gid].n, graphs[gid].d)
        if shape != (first.n, first.d):
            raise DimensionMismatchError(
                f"graph {gid} has (n, d) = {shape}, graph {gids[0]} has {(first.n, first.d)}"
            )
    return first


def design_switching(
    graphs: Mapping[int, SignedGraph],
    decs: Mapping[int, Decomposition],
    theta: np.ndarray,
    alpha: float,
    margin: float = 0.1,
    deltas: Optional[Mapping[int, float]] = None,
) -> SwitchingDesign:
    """One fixed-topology design per graph, sharing theta; coupling parameters
    jump with the topology.  ``deltas`` optionally pins per-graph coefficients.
    Every graph must have the vertex count n and weight dimension d of the
    graph with the smallest id, and a decomposition in ``decs``; every id of
    ``deltas`` must be a graph's, else the smallest other id is named.
    theta is checked once, as ``design_fixed`` checks it, and an error names
    that graph; every design holds the same read-only theta array, which
    ``simulate.integrate_switching`` recognizes by identity."""
    if not math.isfinite(alpha):
        raise NonFiniteError(f"dwell time must be finite, got {alpha}")
    if alpha <= 0:
        raise DimensionMismatchError(f"dwell time must be positive, got {alpha}")
    _first_of_one_shape(graphs)
    if not decs.keys() >= graphs.keys():
        missing = min(graphs.keys() - decs.keys())
        raise DimensionMismatchError(f"graph id {missing} has no decomposition")
    if deltas is not None and not graphs.keys() >= deltas.keys():
        extra = min(deltas.keys() - graphs.keys())
        raise DimensionMismatchError(f"graph id {extra} has a pinned delta and no graph")
    shared: Optional[np.ndarray] = None
    designs: Dict[int, ProtocolDesign] = {}
    for gid in sorted(graphs):
        try:
            dec, delta = decs[gid], None if deltas is None else deltas.get(gid)
            if shared is None:
                shared = _checked_theta(theta, graphs[gid].d)
            designs[gid] = _stored_design(graphs[gid], dec, shared, margin, delta)
        except Exception as exc:
            raise type(exc)(f"graph {gid}: {exc}") from exc
    return SwitchingDesign(designs=designs, alpha=alpha)


@dataclass(frozen=True)
class ContractionReport:
    factor: float            # per-dwell squared-error decay bound, < 1
    per_graph_lmin: Dict[int, float]


def contraction_factor(
    sdesign: SwitchingDesign, graphs: Mapping[int, SignedGraph]
) -> ContractionReport:
    """Lambda = max_i exp(-2 alpha lambda_min(S_i)) with S_i the symmetric
    part of graph i's grounded Laplacian, the leading block of
    ``design_laplacians``; each lambda_min is computed once per graph and
    design (see ``_STORE``)."""
    lmins: Dict[int, float] = {}
    for gid, design in sorted(sdesign.designs.items()):
        entry = _reuse(graphs[gid], design)
        if entry.lmin is None:
            lap = design_laplacians(graphs[gid], design)[0].matrix
            entry.lmin = float(np.min(np.linalg.eigvalsh((lap + lap.T) / 2.0)))
        lmins[gid] = entry.lmin
    bad = [gid for gid, l in lmins.items() if l <= 0]
    if bad:
        raise NotContractingError(
            f"symmetric part not positive definite for graphs {bad}"
        )
    factor = max(float(np.exp(-2.0 * sdesign.alpha * l)) for l in lmins.values())
    return ContractionReport(factor=factor, per_graph_lmin=lmins)


def necessary_condition_check(
    zstar: np.ndarray, augmented_matrices: Sequence[np.ndarray]
) -> bool:
    """True when the candidate limit z lies in the null space of every
    recurring augmented Laplacian M, as a residual:
    ||M z|| <= ``MEMBER_TOL`` ||z|| max(1, ||M||_2).

    ||M||_2 takes a full SVD, so it is computed only when cheaper bounds
    leave the verdict open.  With r = ||M z|| and s = ``MEMBER_TOL`` ||z||,
    r <= s passes, since the right side is at least s; and, since
    ||M||_2 <= ||M||_F, r > s max(1, ||M||_F) (1 + 1e-12) fails, the last
    factor covering the rounding of both norms."""
    zstar = np.asarray(zstar, dtype=float).reshape(-1)
    scale = MEMBER_TOL * float(np.linalg.norm(zstar))

    def member(m: np.ndarray) -> bool:
        r = float(np.linalg.norm(m @ zstar))
        if scale < r <= scale * max(1.0, float(np.linalg.norm(m))) * (1.0 + 1e-12):
            return r <= scale * max(1.0, float(np.linalg.norm(m, 2)))
        return r <= scale

    return all(member(m) for m in augmented_matrices)
