"""Synthesis and verification of the nonzero-consensus coupling design.

The design drives every agent of a signed matrix-weighted network to a preset
nonzero state theta by coupling the antagonized vertices to a constant
external signal x0 = k1 * theta with k1 = 1 + 2/delta.

The closed loop is linear in z = [x; theta] (see ``ClosedLoop``): theta
enters a run only as z's last d entries, so everything else a design or a
run needs depends on the graph, V1 and delta alone.  ``_STORE`` keeps
those theta-free values for the last design that ``design_fixed`` made on
each graph object; a second such design, or a run of it, on the same graph
object reuses them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import (
    AssumptionViolatedError,
    DegenerateCouplingError,
    DimensionMismatchError,
    NonFiniteError,
    NotContractingError,
    SingularCouplingError,
    ZeroThetaError,
)
from .graph import (
    Decomposition,
    SignedGraph,
    classify_stack,
    in_out_gaps,
    verify_assumption,
)
from .spectral import (
    Laplacian,
    augmented_laplacian,
    consensus_space,
    eigenvalues_sorted,
    laplacian_blocks,
    null_dimension,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

INVERT_TOL = 1e-8
SPEC_TOL = 1e-8
ANGLE_TOL = 1e-6
MEMBER_TOL = 1e-6


@dataclass(frozen=True)
class ProtocolDesign:
    theta: np.ndarray
    delta: float
    informed: np.ndarray  # (k,) ascending 1-based ids of the informed vertices
    blocks: np.ndarray  # (k, d, d) their coupling blocks B_i, positive semidefinite
    bound_c: float
    per_vertex_c: Dict[int, float]

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


@dataclass(eq=False)
class _Reuse:
    """The theta-free values of one design on one graph: the
    (decomposition, margin, delta) that ``design_fixed`` was asked for and
    its result without theta, the closed loop's operator, simulate's step
    maps and stacks of one step length and the step's stability verdict
    (``maps``, see ``ClosedLoop``), the contraction factor's lambda_min and
    the augmented Laplacian.  Each is filled on first use; every array is
    read-only."""

    asked: Optional[tuple] = None
    design: Optional[tuple] = None  # (delta, informed, blocks, C, per-vertex C)
    loop: Optional["csr_matrix"] = None  # ClosedLoop.operator
    maps: Dict[tuple, Any] = field(default_factory=dict)
    lmin: Optional[float] = None
    augmented: Optional[Laplacian] = None


# one entry per graph object, dying with it; only ``design_fixed`` writes
# it, and its next design on the graph replaces the entry
_STORE: "weakref.WeakKeyDictionary[SignedGraph, _Reuse]" = weakref.WeakKeyDictionary()


def _reuse(g: SignedGraph, design: ProtocolDesign) -> _Reuse:
    """g's store entry when it holds ``design``: the same delta, with
    ``informed`` and ``blocks`` that are the entry's own read-only arrays.
    Any other design gets a fresh entry that is not stored, since the
    values of a writable array may change under the same identity."""
    entry = _STORE.get(g)
    if entry is not None:
        delta, informed, blocks = entry.design[:3]
        if design.delta == delta and design.informed is informed and design.blocks is blocks:
            return entry
    return _Reuse()


def _bound(
    gaps: np.ndarray, v1: Sequence[int], blocks: np.ndarray
) -> Tuple[Dict[int, float], float]:
    """C_i = (1/2) lambda_max of |B_i|^{-1} M_i over V1, with |B_i| = B_i the
    V1 vertices' ``blocks`` and M_i the negated gap, via the Cholesky
    reduction R^-1 M R^-T, which keeps each problem symmetric (the
    eigenvalues are real).  The factorizations and the
    eigenvalues are one stacked call each; the triangular solves are two
    LAPACK ``dtrtrs`` calls per vertex, made directly because SciPy's
    ``solve_triangular`` spends most of its time validating arguments.  A
    NaN passes through the solves, and a zero pivot raises
    ``SingularCouplingError``."""
    try:
        r = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularCouplingError(f"coupling block not positive definite: {exc}") from exc
    # 0.0 - gap rather than -gap keeps a zero gap at +0.0, so C_i is never -0.0
    m = 0.0 - gaps[np.asarray(v1) - 1]
    reduced = np.empty_like(m)
    for k in range(len(v1)):
        half, info = dtrtrs(r[k], m[k].T, lower=1)
        if info == 0:
            reduced[k], info = dtrtrs(r[k], half.T, lower=1)
        if info != 0:
            raise SingularCouplingError(f"|B_{v1[k]}| factor: dtrtrs info {info}")
    c = 0.5 * np.linalg.eigvalsh((reduced + reduced.swapaxes(1, 2)) / 2.0).max(axis=1)
    return dict(zip(v1, c.tolist())), float(c.max())  # a NaN C_i makes C NaN


def _negative_in_blocks(g: SignedGraph) -> Tuple[np.ndarray, np.ndarray]:
    """The informed vertices, those with a negative in-edge, as ascending
    1-based ids, and their (k, d, d) blocks B_i = the sum of |A_ij| over the
    negative in-edges, accumulated in edge order.  A sum of magnitudes is
    positive semidefinite by construction; classifying the sums in one
    stacked call still raises on an overflowing or numerically indefinite
    sum."""
    negative = g.classes < 0
    heads = g.heads[negative]
    sums = np.zeros((g.n, g.d, g.d))
    np.add.at(sums, heads, g.magnitudes[negative])
    rows = np.unique(heads)
    sym, _, errors = classify_stack(sums[rows])
    if errors:
        raise errors[min(errors)]
    return rows + 1, sym


def design_fixed(
    g: SignedGraph,
    dec: Decomposition,
    theta: np.ndarray,
    margin: float = 0.1,
    delta: Optional[float] = None,
) -> ProtocolDesign:
    """Synthesize the coupling design for a fixed topology.

    Informed vertices are exactly those with incoming negative edges; each
    gets the block of ``_negative_in_blocks``.  Directed graphs use
    delta = C + margin with C the coupling bound at these blocks; undirected
    graphs accept any positive delta, so delta = margin and C is reported as
    0.  An explicit ``delta`` overrides the margin rule (C is still
    reported); in that case a failed decomposition check is tolerated, since
    the caller takes responsibility for the coefficient and verify_design
    delivers the operative spectral verdict.  ``margin`` must be finite and
    positive either way.  The theta-free part is computed once per graph
    object and (dec, margin, delta) (see ``_STORE``); ``informed`` and
    ``blocks`` are read-only, and each design gets its own ``per_vertex_c``.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != g.d:
        raise DimensionMismatchError(
            f"theta has dimension {theta.shape[0]}, graph has d={g.d}"
        )
    if not np.all(np.isfinite(theta)):
        raise NonFiniteError("theta has NaN or infinite entries")
    if not np.any(theta):
        raise ZeroThetaError("the preset consensus state must be nonzero")
    if not math.isfinite(margin):
        raise NonFiniteError(f"margin must be finite, got {margin}")
    if margin <= 0:
        raise DegenerateCouplingError(f"margin must be positive, got {margin}")
    entry = _STORE.get(g)
    if entry is None or entry.asked != (dec, margin, delta):
        entry = _design(g, dec, margin, delta)
    chosen, informed, blocks, bound_c, per_vertex = entry.design
    return ProtocolDesign(
        theta=theta, delta=chosen, informed=informed, blocks=blocks,
        bound_c=bound_c, per_vertex_c=dict(per_vertex),
    )


def _design(
    g: SignedGraph, dec: Decomposition, margin: float, delta: Optional[float]
) -> _Reuse:
    """``design_fixed``'s theta-free work, stored in g's entry."""
    gaps = in_out_gaps(g) if g.directed else None
    report = verify_assumption(g, dec, gaps)
    if not report.ok and delta is None:
        raise AssumptionViolatedError(
            f"decomposition fails for vertices {list(report.failures)}"
        )
    informed, blocks = _negative_in_blocks(g)
    if g.directed:
        v1 = sorted(dec.v1)
        on_v1 = np.zeros((g.n, g.d, g.d))  # B_i, or zeros where there is none
        on_v1[informed - 1] = blocks
        on_v1 = on_v1[np.asarray(v1) - 1]
        low = np.linalg.eigvalsh(on_v1).min(axis=1) <= INVERT_TOL
        if low.any():
            raise DegenerateCouplingError(
                f"V1 vertex {v1[int(np.argmax(low))]} lacks a positive definite"
                " negative-in-weight sum"
            )
        per_vertex, bound_c = _bound(gaps, v1, on_v1)
        chosen = bound_c + margin if delta is None else delta
    else:
        per_vertex, bound_c = {}, 0.0
        chosen = margin if delta is None else delta
    if not math.isfinite(chosen):
        raise NonFiniteError(f"coupling coefficient must be finite, got {chosen}")
    if chosen <= 0:
        raise DegenerateCouplingError(f"coupling coefficient must be positive, got {chosen}")
    _STORE[g] = _Reuse(
        asked=(dec, margin, delta),
        design=(float(chosen), _read_only(informed), _read_only(blocks), bound_c, per_vertex),
    )
    return _STORE[g]


def design_laplacians(g: SignedGraph, design: ProtocolDesign) -> Tuple[Laplacian, Laplacian]:
    """Grounded and signal-augmented Laplacians realized by a design.  The
    augmented one is assembled once per graph and design (see ``_STORE``)
    and is read-only; the grounded one is a view of its leading nd x nd
    block."""
    entry = _reuse(g, design)
    if entry.augmented is None:
        entry.augmented = augmented_laplacian(g, design.delta, design.informed, design.blocks)
        _read_only(entry.augmented.matrix)
    nd = g.n * g.d
    return Laplacian(entry.augmented.matrix[:nd, :nd]), entry.augmented


@dataclass(frozen=True)
class ClosedLoop:
    """The closed loop that a design realizes on a graph, as the linear
    system zdot = -M_theta z on z = [x; theta]: with k1 = 1 + 2/delta and F
    the (nd, d) signal scatter whose block i is delta B_i,
    M_theta = [[L_B, -k1 F], [0, 0]], and the design makes 1 (x) theta its
    equilibrium for every theta.  ``operator`` is its top block row [L_B | -k1 F], an
    nd x (nd + d) CSR matrix, read-only and theta-free; L_B is its leading
    block.  ``maps`` holds the theta-free step maps, their stability
    verdict and the stacks that ``simulate`` builds from it for one full
    step length, the last used; every loop of one design on one graph
    object shares it."""

    operator: "csr_matrix"
    maps: Dict[tuple, Any] = field(default_factory=dict, repr=False)


def closed_loop(g: SignedGraph, design: ProtocolDesign) -> ClosedLoop:
    """The design's closed loop on g.  Its operator is assembled once per
    graph and design (see ``_STORE``)."""
    entry = _reuse(g, design)
    if entry.loop is None:
        entry.loop = _operator(g, design)
    return ClosedLoop(operator=entry.loop, maps=entry.maps)


def _operator(g: SignedGraph, design: ProtocolDesign) -> "csr_matrix":
    """[L_B | -k1 F] in CSR form: the block triplets of
    ``laplacian_blocks``, with those of the signal column (block column n)
    scaled by k1."""
    # imported here: scipy.sparse would add ~25 ms to importing the package
    from scipy.sparse import csr_matrix

    rows, cols, data = laplacian_blocks(g, design.delta, design.informed, design.blocks)
    d, nd = g.d, g.n * g.d
    data[cols == g.n] *= design.k1
    k = np.arange(d)
    r = np.broadcast_to(rows[:, None, None] * d + k[:, None], data.shape).ravel()
    c = np.broadcast_to(cols[:, None, None] * d + k, data.shape).ravel()
    order = np.argsort(r * (nd + d) + c)
    indptr = np.searchsorted(r[order], np.arange(nd + 1))
    return _read_only(csr_matrix((data.ravel()[order], c[order], indptr), shape=(nd, nd + d)))


@dataclass(frozen=True)
class DesignReport:
    min_real_part: float  # of the grounded Laplacian's spectrum
    null_dim: int  # of the augmented Laplacian's null space
    null_ok: bool
    equilibrium_residual: float
    eigenvalues: Tuple[complex, ...]  # grounded spectrum, ascending real part

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
    """Spectral and null-space verdicts for a design, report-only.

    spec_ok: every grounded-Laplacian eigenvalue has real part above 1e-8.
    null_ok: the augmented Laplacian M's null space has dimension d and lies
    within principal angle 1e-6 of span psi.  Both come from M's singular
    values alone.  psi's d columns are orthogonal, each of norm
    sqrt(n + k1^2), so Q = psi / sqrt(n + k1^2) is an orthonormal basis; with
    sigma_r the smallest singular value counted as nonzero, the sine of the
    largest angle between span Q and the null space is at most
    ||M Q||_2 / sigma_r <= ||M Q||_F / sigma_r, and that bound is tested.
    """
    grounded, augmented = design_laplacians(g, design)
    eigs = eigenvalues_sorted(grounded.matrix)
    null_dim, sigma_r = null_dimension(augmented.matrix)
    residual = augmented.matrix @ consensus_space(g.n, g.d, 1.0, design.k1)
    q_scale = math.sqrt(g.n + design.k1**2)
    return DesignReport(
        min_real_part=float(eigs[0].real),
        null_dim=null_dim,
        null_ok=null_dim == g.d
        and float(np.linalg.norm(residual)) < ANGLE_TOL * sigma_r * q_scale,
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
    graph with the smallest id."""
    if not math.isfinite(alpha):
        raise NonFiniteError(f"dwell time must be finite, got {alpha}")
    if alpha <= 0:
        raise DimensionMismatchError(f"dwell time must be positive, got {alpha}")
    _first_of_one_shape(graphs)
    designs: Dict[int, ProtocolDesign] = {}
    for gid in sorted(graphs):
        try:
            designs[gid] = design_fixed(
                graphs[gid],
                decs[gid],
                theta,
                margin=margin,
                delta=None if deltas is None else deltas.get(gid),
            )
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
