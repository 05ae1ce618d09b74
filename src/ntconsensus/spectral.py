"""Laplacian assembly, the mirrored-system lifting, and the eigen toolbox."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NotNonnegativeWeightsError,
    NumericalFailureError,
)
from .graph import (
    CLASS_OF_CODE,
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


def laplacian_blocks(
    g: SignedGraph, delta: float, blocks: Mapping[int, MatrixWeight]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block triplets (rows, cols, data) of the signal-augmented Laplacian:
    0-based block rows and columns and the (k, d, d) blocks.

    The off-diagonal blocks -A_ij come first, in edge order, then the n
    diagonal blocks: the sum of |A_ik| over in-neighbors, accumulated in edge
    order, plus delta |B_i| for every vertex in ``blocks``; last, the signal
    column -delta B_i (the signed block) at block column n, in ascending
    vertex order.  delta = 0 grounds nothing.  Every dense Laplacian and the
    closed loop's L_B and forcing are scatters of these triplets, so they
    hold the same floating-point values."""
    n, d = g.n, g.d
    informed = sorted(blocks) if delta else []
    for i in informed:
        if not (1 <= i <= n):
            raise DimensionMismatchError(f"grounded vertex {i} outside 1..{n}")
        if blocks[i].d != d:
            raise DimensionMismatchError(
                f"block for vertex {i} has dimension {blocks[i].d}, expected {d}"
            )
    signal = np.array(informed, dtype=np.intp) - 1
    b = np.array([blocks[i].entries for i in informed]).reshape(-1, d, d)
    mag = np.array([blocks[i].magnitude for i in informed]).reshape(-1, d, d)
    diag = np.zeros((n, d, d))
    np.add.at(diag, g.heads, g.magnitudes)
    diag[signal] += delta * mag
    own = np.arange(n)
    return (
        np.concatenate([g.heads, own, signal]),
        np.concatenate([g.tails, own, np.full(signal.size, n)]),
        np.concatenate([-g.entries, diag, -delta * b]),
    )


def _dense(
    g: SignedGraph, delta: float, blocks: Mapping[int, MatrixWeight], order: int
) -> Laplacian:
    """The ``laplacian_blocks`` triplets with block column below ``order``,
    scattered into a zero (order d) x (order d) matrix."""
    rows, cols, data = laplacian_blocks(g, delta, blocks)
    keep = cols < order
    m = np.zeros((order, g.d, order, g.d))
    m[rows[keep], :, cols[keep], :] = data[keep]
    return Laplacian(m.reshape(order * g.d, order * g.d))


def signed_laplacian(g: SignedGraph) -> Laplacian:
    """Diagonal block i is the sum of |A_ik| over in-neighbors; off-diagonal
    block (i, j) is -A_ij."""
    return grounded_laplacian(g, 0.0, {})


def grounded_laplacian(
    g: SignedGraph, delta: float, blocks: Mapping[int, MatrixWeight]
) -> Laplacian:
    """The signed Laplacian of g plus the block-diagonal grounding
    delta |B_i|."""
    return _dense(g, delta, blocks, g.n)


def augmented_laplacian(
    g: SignedGraph, delta: float, blocks: Mapping[int, MatrixWeight]
) -> Laplacian:
    """The grounded Laplacian of g with the external-signal block column
    -delta B_i adjoined; the bottom block row is zero."""
    return _dense(g, delta, blocks, g.n + 1)


def expand_system(
    g: SignedGraph, delta: float, blocks: Mapping[int, MatrixWeight]
) -> Tuple[SignedGraph, Laplacian]:
    """Mirror every agent and reroute antagonistic edges to the mirror copies.

    The definiteness-order max{A, 0} keeps positive-class weights in place and
    moves negative-class ones (as magnitudes) onto the cross edges.  Returns
    the all-nonnegative 2N-vertex graph and its grounded Laplacian, with the
    mirror copies grounded through -B_i.
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
    exp_blocks = dict(blocks)
    for i, b in blocks.items():
        exp_blocks[i + g.n] = classify_weight(-b.entries)
    return expanded, grounded_laplacian(expanded, delta, exp_blocks)


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


def _svd(m: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc


def _rank(s: np.ndarray) -> int:
    """Singular values (descending) above RANK_TOL * sigma_max."""
    return int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] != 0.0 else 0


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the right null space, via SVD; singular
    values below RANK_TOL * sigma_max count as zero."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vt = _svd(m, True)
    rank, cols = _rank(s), m.shape[1]
    return vt[rank:].T.copy() if rank < cols else np.zeros((cols, 0))


def null_dimension(m: np.ndarray) -> Tuple[int, float]:
    """The dimension of ``null_space(m)`` and the smallest singular value
    counted as nonzero (0.0 when none is), from the singular values alone:
    no singular vectors are formed."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    s = _svd(m, False)
    rank = _rank(s)
    return m.shape[1] - rank, float(s[rank - 1]) if rank else 0.0


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


def quadratic_form_gap(g: SignedGraph, x: np.ndarray) -> float:
    """Quadratic-form slack of the signed Laplacian of an all-nonnegative
    graph over the per-vertex lower bound; nonnegative up to roundoff.

    Returns x^T L x - sum_i x_i^T [(1/2) sum_{j != i} (A_ij - A_ji)] x_i.
    """
    negative = np.flatnonzero(g.classes < 0)
    if negative.size:
        k = negative[0]
        raise NotNonnegativeWeightsError(
            f"edge ({g.tails[k] + 1}->{g.heads[k] + 1}) has negative class "
            f"{CLASS_OF_CODE[int(g.classes[k])].value}"
        )
    x = np.asarray(x, dtype=float).reshape(g.n * g.d)
    phi = float(x @ signed_laplacian(g).matrix @ x)
    gaps = in_out_gaps(g)  # every weight is nonnegative, so magnitudes are the weights
    rhs = 0.0
    for xi, gap in zip(x.reshape(g.n, g.d), gaps):
        rhs += float(xi @ (0.5 * gap) @ xi)
    return phi - rhs
