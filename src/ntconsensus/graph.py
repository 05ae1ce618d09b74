"""Signed matrix-weighted graphs.

Edge weights are symmetric d x d matrices, each positive or negative
(semi-)definite.  Negative weights encode antagonistic coupling.  A graph
stores its weights once, at construction, as arrays: the 0-based head
(receiving vertex) and tail of each edge, the (E, d, d) entries and a class
code per edge.  The weight on the edge from vertex j to vertex i (1-based) is
A_ij.  Every per-edge or per-vertex d x d operation runs as one stacked NumPy
call, and every sum over edges accumulates in edge order (the order in which
``from_edges`` first met each edge), so results do not depend on hashing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from .errors import (
    AsymmetricWeightError,
    ConsensusError,
    DimensionMismatchError,
    IndefiniteWeightError,
    InvalidPartitionError,
    NonFiniteError,
    VertexOutOfRangeError,
)

DEF_TOL = 1e-9


def classify_stack(
    raw: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Dict[int, ConsensusError]]:
    """Symmetrize and classify a (k, m, m) stack of weights with one
    ``eigvalsh`` call.

    Returns the symmetrized stack, the int8 class codes and, keyed by row,
    the error of each weight that cannot be classified: NonFiniteError for NaN
    or infinite entries (or entries whose symmetrization overflows),
    AsymmetricWeightError when the weight is not symmetric to relative
    precision 1e-9, IndefiniteWeightError when eigenvalues of both signs
    exceed ``DEF_TOL``.  A class code is the weight's sign, doubled when the
    weight is definite: 2 positive definite, 1 positive semidefinite, 0 zero,
    -1 negative semidefinite, -2 negative definite.  Each row is classified
    as if alone.
    """
    flipped = raw.swapaxes(1, 2)
    scale = np.abs(raw).max(axis=(1, 2))
    nonfinite = ~np.isfinite(scale)
    with np.errstate(invalid="ignore", over="ignore"):
        skew = np.abs(raw - flipped).max(axis=(1, 2))
        sym = (raw + flipped) / 2.0
    asym = ~nonfinite & (scale > 0) & (skew > 1e-9 * scale)
    overflow = ~nonfinite & ~asym & ~np.isfinite(sym).all(axis=(1, 2))
    ok = ~(nonfinite | asym | overflow)
    eigs = np.linalg.eigvalsh(np.where(ok[:, None, None], sym, 0.0))
    pos, neg = eigs > DEF_TOL, eigs < -DEF_TOL
    has_pos, has_neg = pos.any(axis=1), neg.any(axis=1)
    codes = has_pos.astype(np.int8) + pos.all(axis=1) - has_neg - neg.all(axis=1)
    errors: Dict[int, ConsensusError] = {}
    for k in np.flatnonzero(~ok | (has_pos & has_neg)).tolist():
        if nonfinite[k]:
            errors[k] = NonFiniteError("weight has NaN or infinite entries")
        elif asym[k]:
            errors[k] = AsymmetricWeightError("weight matrix is not symmetric")
        elif overflow[k]:
            errors[k] = NonFiniteError("weight overflows when symmetrized")
        else:
            errors[k] = IndefiniteWeightError(
                f"weight has eigenvalues of both signs: {eigs[k].tolist()}"
            )
    return sym, codes, errors


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Immutable signed matrix-weighted graph on vertices 1..n; its arrays
    are read-only copies.

    Edge k carries the weight ``entries[k]`` from vertex ``tails[k] + 1`` to
    vertex ``heads[k] + 1``, of class code ``classes[k]`` (see
    ``classify_stack``).  For undirected graphs both directions are
    materialized and agree, so Laplacian assembly has a single code path.
    """

    n: int
    d: int
    directed: bool
    heads: np.ndarray    # (E,) 0-based receiving vertex
    tails: np.ndarray    # (E,) 0-based sending vertex
    entries: np.ndarray  # (E, d, d) symmetric weights
    classes: np.ndarray  # (E,) class codes, never 0

    def __post_init__(self) -> None:
        # read-only copies: what the package keeps per graph object (see
        # protocol._STORE) is true only while these cannot change
        for name in ("heads", "tails", "entries", "classes"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
        Every weight must be d x d, a zero one too.  All weights are
        classified in one stacked call; errors are raised for the first bad
        edge in the mapping's order.
        """
        if n < 1 or d < 1:
            raise DimensionMismatchError(f"need n >= 1 and d >= 1, got n = {n}, d = {d}")
        raws = [np.asarray(w, dtype=float) for w in edges.values()]
        fits = [r.shape == (d, d) for r in raws]
        stack = np.array([r if f else np.zeros((d, d)) for r, f in zip(raws, fits)])
        sym, codes, errors = classify_stack(stack.reshape(-1, d, d))
        rows: Dict[Tuple[int, int], int] = {}  # edge -> row of the stack, in edge order
        for k, (i, j) in enumerate(edges):
            _check_vertex(n, i)
            _check_vertex(n, j)
            if i == j:
                raise InvalidPartitionError(f"self-loop on vertex {i} not allowed")
            if not fits[k]:
                raise DimensionMismatchError(
                    f"edge ({j}->{i}) has a weight of shape {raws[k].shape}, expected ({d}, {d})"
                )
            if k in errors:
                raise errors[k]
            if codes[k] == 0:
                continue
            rows[(i, j)] = k
            if not directed:
                mirror = rows.get((j, i))
                if mirror is not None and not np.array_equal(sym[mirror], sym[k]):
                    raise AsymmetricWeightError(
                        f"undirected graph has A[{j},{i}] != A[{i},{j}]"
                    )
                rows[(j, i)] = k
        ends = np.array(list(rows), dtype=np.intp).reshape(-1, 2) - 1
        take = np.fromiter(rows.values(), dtype=np.intp, count=len(rows))
        return SignedGraph(
            n=n, d=d, directed=directed, heads=ends[:, 0], tails=ends[:, 1],
            entries=sym[take], classes=codes[take],
        )

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def magnitudes(self) -> np.ndarray:
        """sgn(A_ij) * A_ij per edge, positive semidefinite."""
        return np.sign(self.classes)[:, None, None] * self.entries

    @property
    def definite(self) -> np.ndarray:
        """Edge mask of the strictly definite weights."""
        return np.abs(self.classes) == 2


def _check_vertex(n: int, v: int) -> None:
    if not (1 <= v <= n):
        raise VertexOutOfRangeError(f"vertex {v} outside 1..{n}")


def in_out_gaps(g: SignedGraph) -> np.ndarray:
    """(n, d, d): per vertex (row v - 1), the sum of its in-weight magnitudes
    minus the sum of its out-weight magnitudes.

    One ``np.add.at`` over "+head, -tail" pairs interleaved per edge, so each
    vertex accumulates in edge order.  A vertex is in-degree dominated when
    its gap is positive semidefinite; the coupling bound works with the
    negated gap.
    """
    mag = g.magnitudes
    gaps = np.zeros((g.n, g.d, g.d))
    np.add.at(gaps, np.stack([g.heads, g.tails], axis=1).ravel(),
              np.stack([mag, -mag], axis=1).reshape(-1, g.d, g.d))
    return gaps


def _dominated(gaps: np.ndarray) -> np.ndarray:
    """Per gap of a (k, d, d) stack: positive semidefinite to ``DEF_TOL``."""
    return np.linalg.eigvalsh(gaps).min(axis=1) >= -DEF_TOL


def _definite_reach(g: SignedGraph, sources: Iterable[int]) -> Set[int]:
    """Vertices reachable from any source over strictly definite edges,
    sources included."""
    succ: Dict[int, List[int]] = {v: [] for v in g.vertices}
    definite = g.definite
    for i, j in zip(g.heads[definite].tolist(), g.tails[definite].tolist()):
        succ[j + 1].append(i + 1)
    seen = set(sources)
    queue = deque(seen)
    while queue:
        for v in succ[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


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


def verify_assumption(
    g: SignedGraph, dec: Decomposition, gaps: Optional[np.ndarray] = None
) -> AssumptionReport:
    """Check the decomposition against the connectivity and dominance
    requirements.  Dominance is vacuous (reported true) on undirected graphs,
    and is tested on ``gaps``, the graph's ``in_out_gaps`` (computed here
    when not given), in one stacked call over V2."""
    if dec.v1 | dec.v2 != set(g.vertices) or dec.v1 & dec.v2:
        raise InvalidPartitionError("V1, V2 must partition the vertex set")
    path_fail = sorted(dec.v2 - _definite_reach(g, dec.v1))
    if g.directed:
        v2 = np.array(sorted(dec.v2), dtype=np.intp)
        gaps = in_out_gaps(g) if gaps is None else gaps
        dom_fail = v2[~_dominated(gaps[v2 - 1])].tolist()
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

    The rule ignores the design's own need for a positive definite coupling
    block on every V1 vertex, so ``design_fixed`` can still reject the
    suggestion with ``DegenerateCouplingError`` (net_c's V1 holds vertex 4,
    which has no negative in-edge).
    """
    # imported here: scipy.sparse.csgraph would add ~30 ms to importing the package
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if g.directed:
        v1 = set((np.flatnonzero(~_dominated(in_out_gaps(g))) + 1).tolist())
    else:
        v1 = set()
    definite = g.definite
    src, dst = g.tails[definite], g.heads[definite]
    adj = csr_matrix((np.ones(len(src)), (src, dst)), shape=(g.n, g.n))
    _, label = connected_components(adj, directed=True, connection="strong")
    covered = set(label[dst[label[src] != label[dst]]].tolist())
    covered.update(label[v - 1] for v in v1)
    for v in g.vertices:  # ascending, so each component's smallest vertex comes first
        if label[v - 1] not in covered:
            covered.add(label[v - 1])
            v1.add(v)
    return Decomposition.of(g, sorted(v1))
