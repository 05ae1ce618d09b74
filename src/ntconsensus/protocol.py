"""Synthesis and verification of the nonzero-consensus coupling design.

The design drives every agent of a signed matrix-weighted network to a preset
nonzero state theta by coupling the antagonized vertices to a constant
external signal x0 = k1 * theta with k1 = 1 + 2/delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

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
    MatrixWeight,
    SignedGraph,
    classify_weight,
    in_out_gaps,
    structural_sets,
    verify_assumption,
)
from .spectral import (
    Laplacian,
    augmented_laplacian,
    consensus_space,
    eigenvalues_sorted,
    grounded_laplacian,
    intersect_null_spaces,
    laplacian_blocks,
    null_space,
    principal_angle,
    signal_blocks,
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
    informed: FrozenSet[int]
    delta: float
    blocks: Dict[int, MatrixWeight]  # signed coupling blocks, positive convention
    k1: float
    x0: np.ndarray
    bound_c: float
    per_vertex_c: Dict[int, float]

    def deltas(self) -> Dict[int, float]:
        return {i: self.delta for i in self.informed}

    def to_dict(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "delta": self.delta,
            "k1": self.k1,
            "x0": self.x0.tolist(),
            "informed": sorted(self.informed),
            "C": self.bound_c,
            "perVertexC": {str(i): c for i, c in sorted(self.per_vertex_c.items())},
            "blocks": {str(i): b.entries.tolist() for i, b in sorted(self.blocks.items())},
        }


@dataclass(frozen=True)
class SwitchingDesign:
    designs: Dict[int, ProtocolDesign]  # keyed by graph id
    alpha: float


def _half_lmax_reduced(b_abs: np.ndarray, m: np.ndarray) -> float:
    """(1/2) lambda_max of |B|^{-1} M via the Cholesky reduction R^-1 M R^-T,
    which keeps the problem symmetric (the eigenvalues are real)."""
    try:
        r = np.linalg.cholesky(b_abs)
    except np.linalg.LinAlgError as exc:
        raise SingularCouplingError(f"coupling block not positive definite: {exc}") from exc
    reduced = scipy.linalg.solve_triangular(
        r, scipy.linalg.solve_triangular(r, m.T, lower=True).T, lower=True
    )
    return 0.5 * float(np.max(np.linalg.eigvalsh((reduced + reduced.T) / 2.0)))


def coupling_bound(
    g: SignedGraph,
    dec: Decomposition,
    blocks: Mapping[int, MatrixWeight],
) -> Tuple[Dict[int, float], float]:
    """Per-vertex coupling lower bounds C_i over V1 for user-supplied blocks,
    and their maximum C.  Each |B_i| must be positive definite."""
    report = verify_assumption(g, dec)
    if not report.ok:
        raise AssumptionViolatedError(
            f"decomposition fails for vertices {list(report.failures)}"
        )
    return _bound_given_blocks(g, dec, blocks)


def _bound_given_blocks(
    g: SignedGraph,
    dec: Decomposition,
    blocks: Mapping[int, MatrixWeight],
) -> Tuple[Dict[int, float], float]:
    gaps = in_out_gaps(g)
    per_vertex: Dict[int, float] = {}
    for i in sorted(dec.v1):
        b = blocks.get(i)
        if b is None:
            raise SingularCouplingError(f"no coupling block for V1 vertex {i}")
        b_abs = b.magnitude
        if float(np.min(np.linalg.eigvalsh(b_abs))) <= INVERT_TOL:
            raise SingularCouplingError(
                f"|B_{i}| has an eigenvalue below {INVERT_TOL}, cannot invert"
            )
        # 0.0 - gap rather than -gap keeps a zero gap at +0.0, so C_i is never -0.0
        per_vertex[i] = _half_lmax_reduced(b_abs, 0.0 - gaps[i])
    return per_vertex, max(per_vertex.values())


def design_fixed(
    g: SignedGraph,
    dec: Decomposition,
    theta: np.ndarray,
    margin: float = 0.1,
    delta: Optional[float] = None,
) -> ProtocolDesign:
    """Synthesize the coupling design for a fixed topology.

    Informed vertices are exactly those with incoming negative edges; each
    gets the block B_i = sum of |A_ij| over its negative in-neighbors (taken
    with positive sign).  Directed graphs use delta = C + margin with C the
    coupling bound at these blocks; undirected graphs accept any positive
    delta, so delta = margin and C is reported as 0.  An explicit ``delta``
    overrides the margin rule (C is still reported); in that case a failed
    decomposition check is tolerated, since the caller takes responsibility
    for the coefficient and verify_design delivers the operative spectral
    verdict.
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
    report = verify_assumption(g, dec)
    if not report.ok and delta is None:
        raise AssumptionViolatedError(
            f"decomposition fails for vertices {list(report.failures)}"
        )
    sets = structural_sets(g)
    informed = sets.antagonized
    blocks: Dict[int, MatrixWeight] = {}
    for i in sorted(informed):
        total = np.zeros((g.d, g.d))
        for j in sets.negative_in[i]:
            total += g.weights[(i, j)].magnitude
        blocks[i] = classify_weight(total)
    if g.directed:
        for i in sorted(dec.v1):
            b = blocks.get(i)
            if b is None or float(np.min(np.linalg.eigvalsh(b.magnitude))) <= INVERT_TOL:
                raise DegenerateCouplingError(
                    f"V1 vertex {i} lacks a positive definite negative-in-weight sum"
                )
        per_vertex, bound_c = _bound_given_blocks(g, dec, blocks)
        chosen = bound_c + margin if delta is None else delta
    else:
        per_vertex, bound_c = {}, 0.0
        chosen = margin if delta is None else delta
    if not math.isfinite(chosen):
        raise NonFiniteError(f"coupling coefficient must be finite, got {chosen}")
    if chosen <= 0:
        raise DegenerateCouplingError(f"coupling coefficient must be positive, got {chosen}")
    k1 = 1.0 + 2.0 / chosen
    return ProtocolDesign(
        theta=theta,
        informed=informed,
        delta=float(chosen),
        blocks=blocks,
        k1=k1,
        x0=k1 * theta,
        bound_c=bound_c,
        per_vertex_c=per_vertex,
    )


def design_laplacians(g: SignedGraph, design: ProtocolDesign) -> Tuple[Laplacian, Laplacian]:
    """Grounded and signal-augmented Laplacians realized by a design.  The
    augmented one is assembled once; the grounded one is a view of its
    leading nd x nd block."""
    augmented = augmented_laplacian(g, design.deltas(), design.blocks)
    nd = g.n * g.d
    return Laplacian(augmented.matrix[:nd, :nd]), augmented


StepMap = Tuple["np.ndarray | csr_matrix", np.ndarray]  # (P, q)

# byte budget of one stack of step-map powers (see ClosedLoop.step_block)
STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class ClosedLoop:
    """The closed loop xdot = -L_B x + f that a design realizes on a graph:
    L_B in CSR form and the forcing f, whose block i is delta_i B_i x0."""

    laplacian: "csr_matrix"
    forcing: np.ndarray
    _maps: Dict[float, StepMap] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _blocks: Dict[Tuple[float, int], StepMap] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def step_map(self, h: float) -> StepMap:
        """``rk4_map(h)``, built once per step length and kept on this value."""
        if h not in self._maps:
            self._maps[h] = self.rk4_map(h)
        return self._maps[h]

    def step_block(self, h: float, steps: int) -> StepMap:
        """(S, o) such that m steps of length h from x land on the rows of
        ``(S @ x).reshape(m, nd) + o``: S stacks [P; P^2; ...; P^m] and o
        holds [q; Pq + q; ...].  m = min(steps, STACK_BYTES // (nd^2 * 8)),
        and m = 1 when P is CSR (its powers fill in) or too large for the
        budget; the first r < m rows of both serve r steps.  Built once per
        (h, m) and kept on this value.  An unstable P may overflow in its
        powers; those rows come out inf or NaN and fail the caller's guard."""
        p, q = self.step_map(h)
        m = max(1, min(steps, STACK_BYTES // p.nbytes)) if isinstance(p, np.ndarray) else 1
        if (h, m) not in self._blocks:
            if m == 1:
                self._blocks[(h, m)] = (p, q[None, :])
            else:
                nd = q.shape[0]
                stack, offsets = np.empty((m, nd, nd)), np.empty((m, nd))
                stack[0], offsets[0] = p, q
                for k in range(1, m):
                    np.matmul(p, stack[k - 1], out=stack[k])
                    offsets[k] = p @ offsets[k - 1] + q
                self._blocks[(h, m)] = (stack.reshape(m * nd, nd), offsets)
        return self._blocks[(h, m)]

    def rk4_map(self, h: float) -> StepMap:
        """(P, q) such that the classic RK4 step of length h is x <- P x + q.

        On an affine field the step is exactly this map: with A = -h L_B,
        P = R(A) = I + A S(A) and q = h S(A) f, where
        S(A) = I + A/2 + A^2/6 + A^3/24 is evaluated by Horner's rule.  The
        storage follows L_B: when more than a quarter of its entries are
        nonzero the map is built and kept dense (P's pattern holds L_B's, so P
        is at least as full), otherwise in CSR form."""
        import scipy.sparse

        lap = self.laplacian
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
        return p, h * (s @ self.forcing)


def closed_loop(g: SignedGraph, design: ProtocolDesign) -> ClosedLoop:
    """Assemble the design's closed loop on g once: L_B from the block
    triplets of ``laplacian_blocks`` and the forcing from ``signal_blocks``."""
    # imported here: scipy.sparse would add ~25 ms to importing the package
    from scipy.sparse import csr_matrix

    deltas = design.deltas()
    rows, cols, data = laplacian_blocks(g, deltas, design.blocks)
    d, nd = g.d, g.n * g.d
    k = np.arange(d)
    r = np.broadcast_to(rows[:, None, None] * d + k[:, None], data.shape).ravel()
    c = np.broadcast_to(cols[:, None, None] * d + k, data.shape).ravel()
    order = np.argsort(r * nd + c)
    indptr = np.searchsorted(r[order], np.arange(nd + 1))
    lap = csr_matrix((data.ravel()[order], c[order], indptr), shape=(nd, nd))
    forcing = np.zeros((g.n, d))
    rows, data = signal_blocks(g.n, d, deltas, design.blocks)
    forcing[rows] = -(data @ design.x0)
    return ClosedLoop(laplacian=lap, forcing=forcing.reshape(nd))


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
    null_ok: the augmented Laplacian's null space has dimension d and matches
    the target space to principal angle below 1e-6.
    """
    grounded, augmented = design_laplacians(g, design)
    eigs = eigenvalues_sorted(grounded.matrix)
    basis = null_space(augmented.matrix)
    psi = consensus_space(g.n, g.d, 1.0, design.k1)
    null_dim = basis.shape[1]
    return DesignReport(
        min_real_part=float(eigs[0].real),
        null_dim=null_dim,
        null_ok=null_dim == g.d and principal_angle(basis, np.linalg.qr(psi)[0]) < ANGLE_TOL,
        equilibrium_residual=float(np.max(np.abs(augmented.matrix @ psi))),
        eigenvalues=tuple(eigs),
    )


def design_switching(
    graphs: Mapping[int, SignedGraph],
    decs: Mapping[int, Decomposition],
    theta: np.ndarray,
    alpha: float,
    margin: float = 0.1,
    deltas: Optional[Mapping[int, float]] = None,
) -> SwitchingDesign:
    """One fixed-topology design per graph, sharing theta; coupling parameters
    jump with the topology.  ``deltas`` optionally pins per-graph coefficients."""
    if alpha <= 0:
        raise DimensionMismatchError(f"dwell time must be positive, got {alpha}")
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
    part of graph i's grounded Laplacian."""
    lmins: Dict[int, float] = {}
    for gid, design in sorted(sdesign.designs.items()):
        lap = grounded_laplacian(graphs[gid], design.deltas(), design.blocks).matrix
        sym = (lap + lap.T) / 2.0
        lmins[gid] = float(np.min(np.linalg.eigvalsh(sym)))
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
    """True when the candidate limit lies in the intersection of the null
    spaces of the recurring augmented Laplacians, to relative residual
    ``MEMBER_TOL``."""
    zstar = np.asarray(zstar, dtype=float).reshape(-1)
    inter = intersect_null_spaces([null_space(m) for m in augmented_matrices])
    norm = float(np.linalg.norm(zstar))
    if norm == 0.0:
        return True
    resid = zstar - inter @ (inter.T @ zstar)
    return float(np.linalg.norm(resid)) < MEMBER_TOL * norm
