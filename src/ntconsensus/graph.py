"""Signed matrix-weighted graphs.

Edge weights are symmetric d x d matrices, each positive or negative
(semi-)definite.  The weight stored under key ``(i, j)`` is the matrix on the
edge from vertex j to vertex i (vertices are 1-based).  Negative weights
encode antagonistic coupling.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

import numpy as np

from .errors import (
    AsymmetricWeightError,
    DimensionMismatchError,
    IndefiniteWeightError,
    InvalidPartitionError,
    NonFiniteError,
    VertexOutOfRangeError,
)

DEF_TOL = 1e-9


class Definiteness(Enum):
    POS_DEF = "posdef"
    POS_SEMI_DEF = "possemidef"
    ZERO = "zero"
    NEG_SEMI_DEF = "negsemidef"
    NEG_DEF = "negdef"

    @property
    def sign(self) -> int:
        if self in (Definiteness.POS_DEF, Definiteness.POS_SEMI_DEF):
            return 1
        if self in (Definiteness.NEG_DEF, Definiteness.NEG_SEMI_DEF):
            return -1
        return 0

    @property
    def definite(self) -> bool:
        return self in (Definiteness.POS_DEF, Definiteness.NEG_DEF)


@dataclass(frozen=True)
class MatrixWeight:
    """A symmetric matrix together with its definiteness class."""

    entries: np.ndarray
    definiteness: Definiteness

    @property
    def sign(self) -> int:
        return self.definiteness.sign

    @property
    def magnitude(self) -> np.ndarray:
        """sgn(W) * W, positive semi-definite for any non-zero class."""
        return self.sign * self.entries

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def classify_weight(raw: np.ndarray) -> MatrixWeight:
    """Symmetrize and classify a weight matrix.

    Raises NonFiniteError when an entry is NaN or infinite,
    AsymmetricWeightError when the raw matrix is not symmetric to relative
    precision 1e-9, and IndefiniteWeightError when eigenvalues of both signs
    exceed ``DEF_TOL``.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise AsymmetricWeightError(f"weight must be square, got shape {raw.shape}")
    scale = np.max(np.abs(raw))
    if not math.isfinite(scale):
        raise NonFiniteError("weight has NaN or infinite entries")
    if scale > 0 and np.max(np.abs(raw - raw.T)) > 1e-9 * scale:
        raise AsymmetricWeightError("weight matrix is not symmetric")
    sym = (raw + raw.T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    has_pos = bool(np.any(eigs > DEF_TOL))
    has_neg = bool(np.any(eigs < -DEF_TOL))
    if has_pos and has_neg:
        raise IndefiniteWeightError(
            f"weight has eigenvalues of both signs: {eigs.tolist()}"
        )
    if not has_pos and not has_neg:
        cls = Definiteness.ZERO
    elif has_pos:
        cls = Definiteness.POS_DEF if np.all(eigs > DEF_TOL) else Definiteness.POS_SEMI_DEF
    else:
        cls = Definiteness.NEG_DEF if np.all(eigs < -DEF_TOL) else Definiteness.NEG_SEMI_DEF
    return MatrixWeight(entries=sym, definiteness=cls)


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed matrix-weighted graph on vertices 1..n.

    For undirected graphs both directions are materialized and must agree,
    so Laplacian assembly has a single code path.
    """

    n: int
    d: int
    directed: bool
    weights: Dict[Tuple[int, int], MatrixWeight]

    @staticmethod
    def from_edges(
        n: int,
        d: int,
        directed: bool,
        edges: Mapping[Tuple[int, int], np.ndarray],
    ) -> "SignedGraph":
        """Build a graph from raw weight matrices keyed by (to, from) pairs.

        Weights classifying as Zero are dropped (zero means no edge).  For
        undirected graphs each pair may be given once; if both orientations
        are present they must agree entrywise.  Needs n >= 1 and d >= 1.
        """
        if n < 1 or d < 1:
            raise DimensionMismatchError(f"need n >= 1 and d >= 1, got n = {n}, d = {d}")
        weights: Dict[Tuple[int, int], MatrixWeight] = {}
        for (i, j), raw in edges.items():
            _check_vertex(n, i)
            _check_vertex(n, j)
            if i == j:
                raise InvalidPartitionError(f"self-loop on vertex {i} not allowed")
            w = classify_weight(raw)
            if w.definiteness is Definiteness.ZERO:
                continue
            if w.d != d:
                raise AsymmetricWeightError(
                    f"edge ({j}->{i}) has dimension {w.d}, expected {d}"
                )
            if (i, j) in weights and not np.allclose(
                weights[(i, j)].entries, w.entries, atol=1e-12
            ):
                raise AsymmetricWeightError(f"conflicting weights for edge ({j}->{i})")
            weights[(i, j)] = w
            if not directed:
                mirror = weights.get((j, i))
                if mirror is not None and not np.array_equal(mirror.entries, w.entries):
                    raise AsymmetricWeightError(
                        f"undirected graph has A[{j},{i}] != A[{i},{j}]"
                    )
                weights[(j, i)] = w
        return SignedGraph(n=n, d=d, directed=directed, weights=weights)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)


def _check_vertex(n: int, v: int) -> None:
    if not (1 <= v <= n):
        raise VertexOutOfRangeError(f"vertex {v} outside 1..{n}")


@dataclass(frozen=True)
class StructuralSets:
    """Negative in-neighbors per vertex and the antagonized set."""

    negative_in: Dict[int, Set[int]]   # Omega_i: in-neighbors over negative edges
    antagonized: FrozenSet[int]        # vertices with at least one negative in-edge


def structural_sets(g: SignedGraph) -> StructuralSets:
    omega: Dict[int, Set[int]] = {v: set() for v in g.vertices}
    for (i, j), w in g.weights.items():
        if w.sign < 0:
            omega[i].add(j)
    return StructuralSets(omega, frozenset(v for v in g.vertices if omega[v]))


def in_out_gaps(g: SignedGraph) -> Dict[int, np.ndarray]:
    """Per vertex, the sum of its in-weight magnitudes minus the sum of its
    out-weight magnitudes.

    A vertex is in-degree dominated when its gap is positive semidefinite;
    the coupling bound works with the negated gap.
    """
    gaps = {v: np.zeros((g.d, g.d)) for v in g.vertices}
    for (i, j), w in g.weights.items():
        mag = w.magnitude
        gaps[i] += mag
        gaps[j] -= mag
    return gaps


def _dominated(gap: np.ndarray) -> bool:
    return float(np.min(np.linalg.eigvalsh(gap))) >= -DEF_TOL


def _definite_reach(g: SignedGraph, sources: Iterable[int]) -> Set[int]:
    """Vertices reachable from any source over strictly definite edges,
    sources included."""
    succ: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for (i, j), w in g.weights.items():
        if w.definiteness.definite:
            succ[j].append(i)
    seen = set(sources)
    queue = deque(seen)
    while queue:
        for v in succ[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def pn_reachable(g: SignedGraph, src: int, dst: int) -> bool:
    """Directed reachability over strictly definite edges only.

    ``src == dst`` is true by the empty-path convention.
    """
    _check_vertex(g.n, src)
    _check_vertex(g.n, dst)
    return dst in _definite_reach(g, [src])


def in_degree_dominated(g: SignedGraph, v: int) -> bool:
    """True when the in-weight magnitudes dominate the out-weight magnitudes
    in the semidefinite order."""
    _check_vertex(g.n, v)
    return _dominated(in_out_gaps(g)[v])


@dataclass(frozen=True)
class Decomposition:
    """Partition of the vertex set into a grounded part V1 and the rest."""

    v1: FrozenSet[int]
    v2: FrozenSet[int]

    @staticmethod
    def of(g: SignedGraph, v1: Iterable[int]) -> "Decomposition":
        v1s = frozenset(v1)
        if not v1s:
            raise InvalidPartitionError("V1 must be nonempty")
        for v in v1s:
            _check_vertex(g.n, v)
        return Decomposition(v1=v1s, v2=frozenset(g.vertices) - v1s)


@dataclass(frozen=True)
class AssumptionReport:
    path_cover: bool
    dominance: bool
    path_failures: Tuple[int, ...]
    dominance_failures: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.path_cover and self.dominance

    @property
    def failures(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.path_failures) | set(self.dominance_failures)))


def verify_assumption(g: SignedGraph, dec: Decomposition) -> AssumptionReport:
    """Check the decomposition against the connectivity and dominance
    requirements.  Dominance is vacuous (reported true) on undirected graphs."""
    if dec.v1 | dec.v2 != set(g.vertices) or dec.v1 & dec.v2:
        raise InvalidPartitionError("V1, V2 must partition the vertex set")
    path_fail = sorted(dec.v2 - _definite_reach(g, dec.v1))
    if g.directed:
        gaps = in_out_gaps(g)
        dom_fail = [j for j in sorted(dec.v2) if not _dominated(gaps[j])]
    else:
        dom_fail = []
    return AssumptionReport(
        path_cover=not path_fail,
        dominance=not dom_fail,
        path_failures=tuple(path_fail),
        dominance_failures=tuple(dom_fail),
    )


def suggest_decomposition(g: SignedGraph) -> Decomposition:
    """Valid decomposition with minimal |V1|, lexicographically first among ties.

    V1 is every vertex that is not in-degree dominated (none on undirected
    graphs) plus the smallest vertex of each source strongly connected
    component of the definite-edge graph that holds none of those: such a
    component is reached only from inside, and any one of its vertices
    reaches all of it.  Runs in O(n + E) beyond the dominance test.
    """
    # imported here: scipy.sparse.csgraph would add ~30 ms to importing the package
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if g.directed:
        gaps = in_out_gaps(g)
        v1 = {v for v in g.vertices if not _dominated(gaps[v])}
    else:
        v1 = set()
    definite = [(j - 1, i - 1) for (i, j), w in g.weights.items() if w.definiteness.definite]
    src, dst = np.array(definite, dtype=np.intp).reshape(-1, 2).T
    adj = csr_matrix((np.ones(len(src)), (src, dst)), shape=(g.n, g.n))
    _, label = connected_components(adj, directed=True, connection="strong")
    covered = set(label[dst[label[src] != label[dst]]].tolist())
    covered.update(label[v - 1] for v in v1)
    for v in g.vertices:  # ascending, so each component's smallest vertex comes first
        if label[v - 1] not in covered:
            covered.add(label[v - 1])
            v1.add(v)
    return Decomposition.of(g, sorted(v1))
