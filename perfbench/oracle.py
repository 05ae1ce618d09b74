"""Independent correctness oracle.

Nothing here calls into the package: Laplacians, coupling blocks and the
bound C are rebuilt from the generator's raw edges, the bound through a direct
generalized symmetric eigenproblem (scipy.linalg.eigh(M, |B|)), and
trajectories are compared with the exact solution of the affine loop
xdot = -L x + f, whose equilibrium is x* = 1 (x) theta for every design.
Each check raises Mismatch with the reason.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

Edges = Mapping[Tuple[int, int], np.ndarray]

MARGIN = 0.1        # the package's default delta = C + margin
C_RTOL = 1e-9       # bound C against the direct generalized eigenproblem
# Max-norm distance allowed between an RK4 state (h = 1e-3) and the exact
# solution.  RK4's own error stays near 1e-9 on the tiled networks (stiffest
# mode about 20) and below that on the bundled ones; a state perturbed by
# 1e-6 must fail.
STATE_TOL = 1e-7
WEIGHT_FLOOR = 1e-6  # every generated weight is this far from the zero class


class Mismatch(Exception):
    """An output disagrees with the oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _sign(w: np.ndarray) -> float:
    """+1 or -1 for a positive or negative semidefinite weight."""
    return 1.0 if float(np.trace(w)) > 0 else -1.0


def coupling_blocks(edges: Edges) -> Dict[int, np.ndarray]:
    """|B_i| = sum of |A_ij| over negative in-edges, for each vertex that has one."""
    blocks: Dict[int, np.ndarray] = {}
    for (i, _), w in edges.items():
        if _sign(w) < 0:
            blocks[i] = blocks.get(i, 0.0) - w
    return blocks


def bound_c(edges: Edges, v1: Iterable[int]) -> Dict[int, float]:
    """C_i = (1/2) lambda_max(M_i, |B_i|) with M_i = out-magnitudes - in-magnitudes."""
    blocks = coupling_blocks(edges)
    out: Dict[int, float] = {}
    for i in v1:
        m = 0.0
        for (a, b), w in edges.items():
            if b == i:
                m = m + _sign(w) * w
            if a == i:
                m = m - _sign(w) * w
        out[i] = 0.5 * float(scipy.linalg.eigh(m, blocks[i], eigvals_only=True)[-1])
    return out


def grounded_laplacian(n: int, d: int, edges: Edges, delta: float) -> np.ndarray:
    """Signed Laplacian plus delta |B_i| on the diagonal of each informed vertex."""
    lap = np.zeros((n * d, n * d))
    for (i, j), w in edges.items():
        ri, rj = slice((i - 1) * d, i * d), slice((j - 1) * d, j * d)
        lap[ri, rj] -= w
        lap[ri, ri] += _sign(w) * w
    for i, b in coupling_blocks(edges).items():
        ri = slice((i - 1) * d, i * d)
        lap[ri, ri] += delta * b
    return lap


def augmented_laplacian(lap: np.ndarray, edges: Edges, delta: float) -> np.ndarray:
    """[[L, F], [0, 0]] with block row i of F equal to -delta |B_i|."""
    nd = lap.shape[0]
    d = next(iter(edges.values())).shape[0]
    aug = np.zeros((nd + d, nd + d))
    aug[:nd, :nd] = lap
    for i, b in coupling_blocks(edges).items():
        aug[(i - 1) * d: i * d, nd:] = -delta * b
    return aug


def contraction(lap: np.ndarray, dwell: float) -> float:
    """Per-dwell decay bound exp(-2 dwell lambda_min((L + L^T) / 2))."""
    return float(np.exp(-2.0 * dwell * np.min(np.linalg.eigvalsh((lap + lap.T) / 2.0))))


def check_network(n: int, edges: Edges, v1: FrozenSet[int], minimal: bool) -> None:
    """Generator invariants: no weight near the zero class, every non-V1
    vertex in-degree dominated, every V1 vertex with a positive definite |B|,
    and every vertex reachable over definite edges from V1.  With ``minimal``,
    every V1 vertex is also not dominated, so it must be in any valid V1 and
    ``v1`` is the unique minimal decomposition."""
    d = next(iter(edges.values())).shape[0]
    for w in edges.values():
        expect(np.max(np.abs(np.linalg.eigvalsh(w))) > WEIGHT_FLOOR, "near-zero weight")
    diff = {v: np.zeros((d, d)) for v in range(1, n + 1)}
    succ: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for (i, j), w in edges.items():
        diff[i] += _sign(w) * w
        diff[j] -= _sign(w) * w
        if np.min(np.abs(np.linalg.eigvalsh(w))) > WEIGHT_FLOOR:
            succ[j].append(i)
    for v in range(1, n + 1):
        dominated = float(np.min(np.linalg.eigvalsh(diff[v]))) >= -1e-9
        if v not in v1:
            expect(dominated, f"V2 vertex {v} is not dominated")
        elif minimal:
            expect(not dominated, f"V1 vertex {v} is dominated")
    blocks = coupling_blocks(edges)
    for v in v1:
        expect(v in blocks and np.min(np.linalg.eigvalsh(blocks[v])) > WEIGHT_FLOOR,
               f"V1 vertex {v} has no positive definite coupling block")
    seen = set(v1)
    queue = deque(v1)
    while queue:
        for v in succ[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    expect(len(seen) == n, "path cover fails")


def check_design(payload: dict, edges: Edges, v1: FrozenSet[int], theta: np.ndarray) -> None:
    """A `design --json` response: verdicts, V1, informed set, C, delta, x0."""
    design = payload["design"]
    expect(payload["specOk"] is True and payload["nullOk"] is True, "specOk/nullOk false")
    per_vertex = {int(k): c for k, c in design["perVertexC"].items()}
    expect(set(per_vertex) == set(v1), f"V1 {sorted(per_vertex)} != {sorted(v1)}")
    expect(set(design["informed"]) == set(coupling_blocks(edges)), "informed set differs")
    check_bound(per_vertex, design["C"], edges, v1)
    delta = design["delta"]
    expect(abs(delta - (design["C"] + MARGIN)) <= 1e-12 * max(1.0, delta), "delta != C + margin")
    expect(np.allclose(design["x0"], (1.0 + 2.0 / delta) * theta, rtol=1e-14, atol=0.0),
           "x0 != (1 + 2/delta) theta")


def check_bound(per_vertex: Mapping[int, float], c: float, edges: Edges,
                v1: FrozenSet[int]) -> None:
    want = bound_c(edges, v1)
    for i, ci in want.items():
        expect(abs(per_vertex[i] - ci) <= C_RTOL * max(1.0, abs(ci)), f"C_{i} differs")
    expect(c == max(per_vertex.values()), "C is not the max of the C_i")


def exact_fixed(lap: scipy.sparse.csr_matrix, target: np.ndarray, x_init: np.ndarray,
                t: float) -> np.ndarray:
    """x(t) = x* + e^{-Lt}(x(0) - x*)."""
    return target + expm_multiply(-t * lap, x_init - target)


def check_state(got: np.ndarray, want: np.ndarray, what: str) -> None:
    err = float(np.max(np.abs(got - want)))
    expect(err <= STATE_TOL, f"{what}: max error {err:.3g} > {STATE_TOL:g}")


def check_convergence(report, states: np.ndarray, n: int, theta: np.ndarray) -> None:
    final = float(np.max(np.abs(states[-1] - np.tile(theta, n))))
    expect(report.final_error == final, "convergence report final error differs")


def switching_exact(exps: Sequence[np.ndarray], pattern: Sequence[int], intervals: int,
                    target: np.ndarray, x_init: np.ndarray) -> List[np.ndarray]:
    """States at every switch time, x_{k+1} = x* + E_{g_k} (x_k - x*)."""
    xs = [x_init]
    for k in range(intervals):
        xs.append(target + exps[pattern[k % len(pattern)]] @ (xs[-1] - target))
    return xs


def nullspace_member(z: np.ndarray, mats: Sequence[np.ndarray], tol: float = 1e-6) -> bool:
    """Whether z is (numerically) annihilated by every matrix."""
    scale = float(np.linalg.norm(z))
    return all(float(np.linalg.norm(m @ z)) <= tol * scale * max(1.0, np.linalg.norm(m, 2))
               for m in mats)
