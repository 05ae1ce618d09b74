"""Laplacian assembly and the eigen toolbox the design uses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError
from .graph import SignedGraph

RANK_TOL = 1e-8


@dataclass(frozen=True)
class Laplacian:
    """A dense Laplacian.  Kept as a holder of ``matrix`` because the
    benchmark reads ``design_laplacians(...)[1].matrix``."""

    matrix: np.ndarray


def laplacian_blocks(
    g: SignedGraph, delta: float, informed: np.ndarray, blocks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block triplets (rows, cols, data) of the signal-augmented Laplacian:
    0-based block rows and columns and the (k, d, d) blocks.

    ``informed`` holds the ascending 1-based ids of the grounded vertices and
    ``blocks`` their (k, d, d) coupling blocks B_i, each positive
    semidefinite, so |B_i| = B_i.  The off-diagonal blocks -A_ij come first,
    in edge order, then the n diagonal blocks: the sum of |A_ik| over
    in-neighbors, accumulated in edge order, plus delta B_i for every
    informed vertex; last, the signal column -delta B_i at block column n,
    in ascending vertex order.  delta = 0 grounds nothing.  Every dense
    Laplacian and the closed loop's M, dense or CSR, are built from these
    triplets, so L_B holds the same floating-point values in each."""
    n, d = g.n, g.d
    signal = np.asarray(informed, dtype=np.intp).reshape(-1) - 1
    b = np.asarray(blocks, dtype=float)
    if b.shape != (signal.size, d, d) or np.any((signal < 0) | (signal >= n)):
        raise DimensionMismatchError(
            f"need grounded vertices in 1..{n} and one {d} x {d} block each, "
            f"got {signal.size} vertices and blocks of shape {b.shape}"
        )
    if not delta:
        signal, b = signal[:0], b[:0]
    diag = np.zeros((n, d, d))
    np.add.at(diag, g.heads, g.magnitudes)
    diag[signal] += delta * b
    own = np.arange(n)
    return (
        np.concatenate([g.heads, own, signal]),
        np.concatenate([g.tails, own, np.full(signal.size, n)]),
        np.concatenate([-g.entries, diag, -delta * b]),
    )


def augmented_laplacian(
    g: SignedGraph, delta: float, informed: np.ndarray, blocks: np.ndarray
) -> Laplacian:
    """The ``laplacian_blocks`` triplets scattered into a zero (n+1)d x (n+1)d
    matrix: the grounded Laplacian of g (its leading nd x nd block) with the
    external-signal block column -delta B_i adjoined; the bottom block row
    is zero.  With no informed vertex the grounded Laplacian is the signed
    Laplacian: diagonal block i is the sum of |A_ik| over in-neighbors,
    off-diagonal block (i, j) is -A_ij."""
    rows, cols, data = laplacian_blocks(g, delta, informed, blocks)
    order = g.n + 1
    m = np.zeros((order, g.d, order, g.d))
    m[rows, :, cols, :] = data
    return Laplacian(m.reshape(order * g.d, order * g.d))


def eigenvalues_sorted(m: np.ndarray) -> np.ndarray:
    """Dense spectrum sorted by real part ascending, ties by imaginary part."""
    try:
        eigs = np.linalg.eigvals(np.asarray(m, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order]


def consensus_space(n: int, d: int, xi: float = 1.0, xi0: float = 1.0) -> np.ndarray:
    """The (n+1)d x d matrix whose span is the target convergence space:
    xi on every agent block, xi0 on the signal block."""
    eye = np.eye(d)
    out = np.empty((n + 1, d, d))
    out[:n] = xi * eye
    out[n] = xi0 * eye
    return out.reshape((n + 1) * d, d)
