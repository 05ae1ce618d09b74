"""Laplacian assembly, the mirrored-system lifting, and the eigen toolbox."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NotNonnegativeWeightsError,
    NumericalFailureError,
)
from .graph import (
    Definiteness,
    MatrixWeight,
    SignedGraph,
    classify_weight,
    in_out_gaps,
)

RANK_TOL = 1e-8


@dataclass(frozen=True)
class Laplacian:
    """A dense Laplacian.  Kept as a holder of ``matrix`` because the
    benchmark reads ``design_laplacians(...)[1].matrix``."""

    matrix: np.ndarray


def _block(i: int, d: int) -> slice:
    return slice((i - 1) * d, i * d)


def _grounding_terms(
    n: int, d: int, deltas: Mapping[int, float], blocks: Mapping[int, MatrixWeight]
) -> Dict[int, Tuple[float, MatrixWeight]]:
    out: Dict[int, Tuple[float, MatrixWeight]] = {}
    for i, delta in deltas.items():
        if delta == 0.0:
            continue
        if not (1 <= i <= n):
            raise DimensionMismatchError(f"grounded vertex {i} outside 1..{n}")
        b = blocks.get(i)
        if b is None or b.definiteness is Definiteness.ZERO:
            raise DimensionMismatchError(f"vertex {i} has delta > 0 but no block")
        if b.d != d:
            raise DimensionMismatchError(
                f"block for vertex {i} has dimension {b.d}, expected {d}"
            )
        out[i] = (delta, b)
    return out


def laplacian_blocks(
    g: SignedGraph,
    deltas: Mapping[int, float],
    blocks: Mapping[int, MatrixWeight],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block triplets (rows, cols, data) of the signed Laplacian grounded by
    delta_i |B_i|: 0-based block rows and columns and the (k, d, d) blocks.

    The off-diagonal blocks -A_ij come first, in edge order, then the n
    diagonal blocks: the sum of |A_ik| over in-neighbors, accumulated in edge
    order, plus the grounding term.  Dense and sparse Laplacians are both
    built from these triplets, so they hold the same floating-point values."""
    n, d = g.n, g.d
    ends = np.array(list(g.weights), dtype=np.intp).reshape(-1, 2) - 1
    heads, tails = ends[:, 0], ends[:, 1]
    weights = list(g.weights.values())
    entries = np.array([w.entries for w in weights]).reshape(-1, d, d)
    signs = np.array([w.sign for w in weights], dtype=float)
    diag = np.zeros((n, d, d))
    np.add.at(diag, heads, signs[:, None, None] * entries)
    for i, (delta, b) in _grounding_terms(n, d, deltas, blocks).items():
        diag[i - 1] += delta * b.magnitude
    own = np.arange(n)
    return (
        np.concatenate([heads, own]),
        np.concatenate([tails, own]),
        np.concatenate([-entries, diag]),
    )


def _dense(
    g: SignedGraph,
    deltas: Mapping[int, float],
    blocks: Mapping[int, MatrixWeight],
    order: int,
) -> np.ndarray:
    """The ``laplacian_blocks`` triplets scattered into a zero (order, d,
    order, d) array; blocks beyond the first g.n stay zero."""
    rows, cols, data = laplacian_blocks(g, deltas, blocks)
    m = np.zeros((order, g.d, order, g.d))
    m[rows, :, cols, :] = data
    return m


def signed_laplacian(g: SignedGraph) -> Laplacian:
    """Diagonal block i is the sum of |A_ik| over in-neighbors; off-diagonal
    block (i, j) is -A_ij."""
    return grounded_laplacian(g, {}, {})


def grounded_laplacian(
    g: SignedGraph,
    deltas: Mapping[int, float],
    blocks: Mapping[int, MatrixWeight],
) -> Laplacian:
    """The signed Laplacian of g plus the block-diagonal grounding
    delta_i * |B_i|."""
    nd = g.n * g.d
    return Laplacian(_dense(g, deltas, blocks, g.n).reshape(nd, nd))


def signal_blocks(
    n: int,
    d: int,
    deltas: Mapping[int, float],
    blocks: Mapping[int, MatrixWeight],
) -> Tuple[np.ndarray, np.ndarray]:
    """Block column of the external signal: 0-based block rows and the
    (k, d, d) blocks -delta_i * B_i, with the signed block (not its
    magnitude).  The closed loop's forcing is minus this column times x0."""
    terms = _grounding_terms(n, d, deltas, blocks)
    rows = np.array(list(terms), dtype=np.intp) - 1
    data = np.array([-delta * b.entries for delta, b in terms.values()]).reshape(-1, d, d)
    return rows, data


def augmented_laplacian(
    g: SignedGraph,
    deltas: Mapping[int, float],
    blocks: Mapping[int, MatrixWeight],
) -> Laplacian:
    """The grounded Laplacian of g with the external-signal block column of
    ``signal_blocks`` adjoined; the bottom block row is zero."""
    m = _dense(g, deltas, blocks, g.n + 1)
    rows, data = signal_blocks(g.n, g.d, deltas, blocks)
    m[rows, :, g.n, :] = data
    nd = (g.n + 1) * g.d
    return Laplacian(m.reshape(nd, nd))


def expand_system(
    g: SignedGraph,
    deltas: Mapping[int, float],
    blocks: Mapping[int, MatrixWeight],
) -> Tuple[SignedGraph, Laplacian]:
    """Mirror every agent and reroute antagonistic edges to the mirror copies.

    The definiteness-order max{A, 0} keeps positive-class weights in place and
    moves negative-class ones (as magnitudes) onto the cross edges.  Returns
    the all-nonnegative 2N-vertex graph and its grounded Laplacian, with the
    mirror copies grounded through -B_i.
    """
    edges: Dict[Tuple[int, int], np.ndarray] = {}
    for (i, j), w in g.weights.items():
        if w.sign > 0:
            edges[(i, j)] = w.entries
            edges[(i + g.n, j + g.n)] = w.entries
        else:
            edges[(i + g.n, j)] = w.magnitude
            edges[(i, j + g.n)] = w.magnitude
    expanded = SignedGraph.from_edges(2 * g.n, g.d, g.directed, edges)
    exp_deltas: Dict[int, float] = {}
    exp_blocks: Dict[int, MatrixWeight] = {}
    for i, delta in deltas.items():
        exp_deltas[i] = delta
        exp_deltas[i + g.n] = delta
        b = blocks.get(i)
        if b is not None:
            exp_blocks[i] = b
            exp_blocks[i + g.n] = classify_weight(-b.entries)
    return expanded, grounded_laplacian(expanded, exp_deltas, exp_blocks)


def eigenvalues_sorted(m: np.ndarray) -> np.ndarray:
    """Dense spectrum sorted by real part ascending, ties by imaginary part."""
    try:
        eigs = np.linalg.eigvals(np.asarray(m, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


def min_real_part(m: np.ndarray) -> float:
    return float(eigenvalues_sorted(m)[0].real)


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the right null space, via SVD; singular
    values below RANK_TOL * sigma_max count as zero."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    try:
        _, s, vt = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc
    cols = m.shape[1]
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    return vt[rank:].T.copy() if rank < cols else np.zeros((cols, 0))


def intersect_null_spaces(bases: Sequence[np.ndarray]) -> np.ndarray:
    """Intersection of the subspaces spanned by orthonormal columns, via the
    null space of the stacked orthogonal projectors onto their complements."""
    if not bases:
        raise DimensionMismatchError("need at least one basis")
    rows = bases[0].shape[0]
    stack: List[np.ndarray] = []
    for b in bases:
        if b.shape[0] != rows:
            raise DimensionMismatchError("bases have mismatched row dimensions")
        stack.append(np.eye(rows) - b @ b.T)
    return null_space(np.vstack(stack))


def principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle (radians) between the subspaces spanned by the
    orthonormal columns of a and b."""
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError("bases have mismatched row dimensions")
    if a.shape[1] != b.shape[1]:
        return float(np.pi / 2)
    if a.shape[1] == 0:
        return 0.0
    sigma = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(sigma.min(), -1.0, 1.0)))


def log_norm2(m: np.ndarray) -> float:
    """Logarithmic norm induced by the spectral norm: lambda_max of the
    symmetric part."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.linalg.eigvalsh((m + m.T) / 2.0)))


def matrix_exp(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{tM} (scaling-and-squaring, via scipy)."""
    if t < 0:
        raise NumericalFailureError("matrix_exp requires t >= 0")
    out = scipy.linalg.expm(t * np.asarray(m, dtype=float))
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("matrix exponential overflowed")
    return out


def consensus_space(n: int, d: int, xi: float = 1.0, xi0: float = 1.0) -> np.ndarray:
    """The (n+1)d x d matrix whose span is the target convergence space:
    xi on every agent block, xi0 on the signal block."""
    return np.vstack([xi * np.tile(np.eye(d), (n, 1)), xi0 * np.eye(d)])


def quadratic_form_gap(
    g: SignedGraph,
    deltas: Mapping[int, float],
    blocks: Mapping[int, MatrixWeight],
    x: np.ndarray,
) -> float:
    """Quadratic-form slack of the grounded Laplacian of an all-nonnegative
    graph over the per-vertex lower bound; nonnegative up to roundoff.

    Returns x^T L_B x - sum_i x_i^T [delta_i |B_i| + (1/2) sum_{j != i}
    (A_ij - A_ji)] x_i.
    """
    for (i, j), w in g.weights.items():
        if w.sign < 0:
            raise NotNonnegativeWeightsError(
                f"edge ({j}->{i}) has negative class {w.definiteness.value}"
            )
    lap = grounded_laplacian(g, deltas, blocks)
    x = np.asarray(x, dtype=float).reshape(g.n * g.d)
    phi = float(x @ lap.matrix @ x)
    gaps = in_out_gaps(g)  # every weight is nonnegative, so magnitudes are the weights
    rhs = 0.0
    for i in g.vertices:
        xi = x[_block(i, g.d)]
        m = 0.5 * gaps[i]
        delta = deltas.get(i, 0.0)
        if delta:
            b = blocks.get(i)
            if b is not None:
                m += delta * b.magnitude
        rhs += float(xi @ m @ xi)
    return phi - rhs

