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
    CLASS_OF_CODE,
    Decomposition,
    MatrixWeight,
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
    grounded_laplacian,
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
    blocks: Dict[int, MatrixWeight]  # signed coupling blocks of the informed vertices
    bound_c: float
    per_vertex_c: Dict[int, float]

    @property
    def informed(self) -> FrozenSet[int]:
        return frozenset(self.blocks)

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
            "informed": sorted(self.informed),
            "C": self.bound_c,
            "perVertexC": {str(i): c for i, c in sorted(self.per_vertex_c.items())},
            "blocks": {str(i): b.entries.tolist() for i, b in sorted(self.blocks.items())},
        }


@dataclass(frozen=True)
class SwitchingDesign:
    designs: Dict[int, ProtocolDesign]  # keyed by graph id
    alpha: float


def _v1_magnitudes(
    d: int, v1: Sequence[int], blocks: Mapping[int, MatrixWeight]
) -> Tuple[np.ndarray, Optional[int]]:
    """The |B_i| over V1, stacked (zeros for a vertex without a block), and
    the first V1 vertex whose |B_i| is missing or has an eigenvalue at or
    below ``INVERT_TOL`` (None when every one can be inverted)."""
    b_abs = np.array([blocks[i].magnitude if i in blocks else np.zeros((d, d)) for i in v1])
    low = np.linalg.eigvalsh(b_abs.reshape(-1, d, d)).min(axis=1) <= INVERT_TOL
    return b_abs, v1[int(np.argmax(low))] if low.any() else None


def _bound(
    gaps: np.ndarray, v1: Sequence[int], b_abs: np.ndarray
) -> Tuple[Dict[int, float], float]:
    """C_i = (1/2) lambda_max of |B_i|^{-1} M_i over V1, with M_i the negated
    gap, via the Cholesky reduction R^-1 M R^-T, which keeps each problem
    symmetric (the eigenvalues are real).  The factorizations and the
    eigenvalues are one stacked call each; the triangular solves are two
    LAPACK ``dtrtrs`` calls per vertex, made directly because SciPy's
    ``solve_triangular`` spends most of its time validating arguments.  A
    NaN passes through the solves, and a zero pivot raises
    ``SingularCouplingError``."""
    try:
        r = np.linalg.cholesky(b_abs)
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


def coupling_bound(
    g: SignedGraph,
    dec: Decomposition,
    blocks: Mapping[int, MatrixWeight],
) -> Tuple[Dict[int, float], float]:
    """Per-vertex coupling lower bounds C_i over V1 for user-supplied blocks,
    and their maximum C.  Each |B_i| must be positive definite."""
    gaps = in_out_gaps(g)
    report = verify_assumption(g, dec, gaps)
    if not report.ok:
        raise AssumptionViolatedError(
            f"decomposition fails for vertices {list(report.failures)}"
        )
    v1 = sorted(dec.v1)
    b_abs, bad = _v1_magnitudes(g.d, v1, blocks)
    if bad is not None:
        if bad not in blocks:
            raise SingularCouplingError(f"no coupling block for V1 vertex {bad}")
        raise SingularCouplingError(
            f"|B_{bad}| has an eigenvalue below {INVERT_TOL}, cannot invert"
        )
    return _bound(gaps, v1, b_abs)


def _negative_in_blocks(g: SignedGraph) -> Dict[int, MatrixWeight]:
    """B_i = the sum of |A_ij| over the negative in-edges of each vertex
    that has one (the informed vertices), accumulated in edge order and
    classified in one stacked call."""
    negative = g.classes < 0
    heads = g.heads[negative]
    sums = np.zeros((g.n, g.d, g.d))
    np.add.at(sums, heads, g.magnitudes[negative])
    rows = np.unique(heads)
    sym, codes, errors = classify_stack(sums[rows])
    if errors:
        raise errors[min(errors)]
    return {
        r + 1: MatrixWeight(entries=b, definiteness=CLASS_OF_CODE[c])
        for r, b, c in zip(rows.tolist(), sym, codes.tolist())
    }


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
    delivers the operative spectral verdict.
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
    gaps = in_out_gaps(g) if g.directed else None
    report = verify_assumption(g, dec, gaps)
    if not report.ok and delta is None:
        raise AssumptionViolatedError(
            f"decomposition fails for vertices {list(report.failures)}"
        )
    blocks = _negative_in_blocks(g)
    if g.directed:
        v1 = sorted(dec.v1)
        b_abs, bad = _v1_magnitudes(g.d, v1, blocks)
        if bad is not None:
            raise DegenerateCouplingError(
                f"V1 vertex {bad} lacks a positive definite negative-in-weight sum"
            )
        per_vertex, bound_c = _bound(gaps, v1, b_abs)
        chosen = bound_c + margin if delta is None else delta
    else:
        per_vertex, bound_c = {}, 0.0
        chosen = margin if delta is None else delta
    if not math.isfinite(chosen):
        raise NonFiniteError(f"coupling coefficient must be finite, got {chosen}")
    if chosen <= 0:
        raise DegenerateCouplingError(f"coupling coefficient must be positive, got {chosen}")
    return ProtocolDesign(
        theta=theta, delta=float(chosen), blocks=blocks, bound_c=bound_c, per_vertex_c=per_vertex
    )


def design_laplacians(g: SignedGraph, design: ProtocolDesign) -> Tuple[Laplacian, Laplacian]:
    """Grounded and signal-augmented Laplacians realized by a design.  The
    augmented one is assembled once; the grounded one is a view of its
    leading nd x nd block."""
    augmented = augmented_laplacian(g, design.delta, design.blocks)
    nd = g.n * g.d
    return Laplacian(augmented.matrix[:nd, :nd]), augmented


StepMap = Tuple["np.ndarray | csr_matrix", np.ndarray]  # (P, q)

# byte budget of one stack of step-map powers (see ClosedLoop.step_block)
STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class ClosedLoop:
    """The closed loop xdot = -L_B x + f that a design realizes on a graph:
    L_B in CSR form and the forcing f, whose block i is delta B_i x0."""

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
    """Assemble the design's closed loop on g once from the block triplets of
    ``laplacian_blocks``: L_B from those in block columns below n, and the
    forcing, minus the signal column times x0, from those in column n."""
    # imported here: scipy.sparse would add ~25 ms to importing the package
    from scipy.sparse import csr_matrix

    rows, cols, data = laplacian_blocks(g, design.delta, design.blocks)
    d, nd = g.d, g.n * g.d
    signal = cols == g.n
    forcing = np.zeros((g.n, d))
    forcing[rows[signal]] = -(data[signal] @ design.x0)
    rows, cols, data = rows[~signal], cols[~signal], data[~signal]
    k = np.arange(d)
    r = np.broadcast_to(rows[:, None, None] * d + k[:, None], data.shape).ravel()
    c = np.broadcast_to(cols[:, None, None] * d + k, data.shape).ravel()
    order = np.argsort(r * nd + c)
    indptr = np.searchsorted(r[order], np.arange(nd + 1))
    lap = csr_matrix((data.ravel()[order], c[order], indptr), shape=(nd, nd))
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
        lap = grounded_laplacian(graphs[gid], design.delta, design.blocks).matrix
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
    """True when the candidate limit z lies in the null space of every
    recurring augmented Laplacian M, as a residual:
    ||M z|| <= ``MEMBER_TOL`` ||z|| max(1, ||M||_2)."""
    zstar = np.asarray(zstar, dtype=float).reshape(-1)
    scale = MEMBER_TOL * float(np.linalg.norm(zstar))
    return all(
        float(np.linalg.norm(m @ zstar)) <= scale * max(1.0, float(np.linalg.norm(m, 2)))
        for m in augmented_matrices
    )
