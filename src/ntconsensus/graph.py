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

import functools
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

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
        are present they must agree entrywise, and both directions take the
        later edge's entries.  Needs n >= 1 and d >= 1, and n d^2 doubles
        within NumPy's array bound.  Every weight must be d x d, a zero one
        too.  The weights are classified in one stacked call and the edges
        checked by masks over their (E, 2) endpoints; the first bad edge in
        the mapping's order raises, its checks taken in the order vertex
        range, self-loop, shape, class, undirected mismatch.
        """
        if n < 1 or d < 1:
            raise DimensionMismatchError(f"need n >= 1 and d >= 1, got n = {n}, d = {d}")
        nbytes = int(n) * int(d) ** 2 * 8  # in Python ints, which a NumPy n or d would wrap
        if nbytes > sys.maxsize:  # NumPy's intp bound: no array can hold n d x d blocks
            raise DimensionMismatchError(
                f"n = {n}, d = {d}: an n x d x d array of blocks would take"
                f" {nbytes} bytes, which cannot be allocated"
            )
        keys = list(edges)
        raws = [np.asarray(w, dtype=float) for w in edges.values()]
        fits = [r.shape == (d, d) for r in raws]
        stack = np.array([r if f else np.zeros((d, d)) for r, f in zip(raws, fits)])
        sym, codes, errors = classify_stack(stack.reshape(-1, d, d))
        ends = np.array(keys).reshape(-1, 2)  # (to, from); object dtype for ids beyond int64
        bad = ((ends < 1) | (ends > n)).any(axis=1) | (ends[:, 0] == ends[:, 1])
        bad[[k for k, f in enumerate(fits) if not f] + list(errors)] = True
        kept = np.flatnonzero(~bad & (codes != 0))  # per edge of the graph, its row of the stack
        ends = ends[kept].astype(np.intp) - 1
        if not directed:
            # a pair given in both orientations: the later edge must agree, and
            # both directions take its entries in the earlier edge's place
            pairs = np.sort(ends, axis=1)
            order = np.lexsort(pairs.T)
            twin = (pairs[order[1:]] == pairs[order[:-1]]).all(axis=1)
            first, later = order[:-1][twin], order[1:][twin]
            bad[kept[later[(sym[kept[first]] != sym[kept[later]]).any(axis=(1, 2))]]] = True
            kept[first] = kept[later]
            kept, ends = np.delete(kept, later), np.delete(ends, later, axis=0)
            kept, ends = kept.repeat(2), np.stack([ends, ends[:, ::-1]], axis=1).reshape(-1, 2)
        if bad.any():
            k = int(np.argmax(bad))
            i, j = keys[k]
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
            raise AsymmetricWeightError(f"undirected graph has A[{j},{i}] != A[{i},{j}]")
        return SignedGraph(
            n=n, d=d, directed=directed, heads=ends[:, 0], tails=ends[:, 1],
            entries=sym[kept], classes=codes[kept],
        )

    @functools.cached_property
    def in_out_gaps(self) -> np.ndarray:
        """(n, d, d), read-only: per vertex (row v - 1), the sum of its
        in-weight magnitudes minus the sum of its out-weight magnitudes.

        One ``np.add.at`` over "+head, -tail" pairs interleaved per edge, so
        each vertex accumulates in edge order.  A vertex is in-degree
        dominated when its gap is positive semidefinite; the coupling bound
        works with the negated gap.
        """
        mag = self.magnitudes
        gaps = np.zeros((self.n, self.d, self.d))
        np.add.at(gaps, np.stack([self.heads, self.tails], axis=1).ravel(),
                  np.stack([mag, -mag], axis=1).reshape(-1, self.d, self.d))
        gaps.flags.writeable = False
        return gaps

    @functools.cached_property
    def dominated(self) -> np.ndarray:
        """(n,) read-only mask of the in-degree dominated vertices (row v - 1):
        those whose gap is positive semidefinite to ``DEF_TOL``."""
        mask = np.linalg.eigvalsh(self.in_out_gaps).min(axis=1) >= -DEF_TOL
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def successors(self) -> Tuple[np.ndarray, np.ndarray]:
        """The strictly definite edges as read-only CSR arrays (indptr,
        succ): 0-based vertex v's successors are succ[indptr[v]:indptr[v +
        1]], in edge order."""
        definite = self.definite
        tails = self.tails[definite]
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.bincount(tails, minlength=self.n).cumsum(out=indptr[1:])
        succ = self.heads[definite][np.argsort(tails, kind="stable")]
        indptr.flags.writeable = succ.flags.writeable = False
        return indptr, succ

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


def _definite_reach(g: SignedGraph, sources: Iterable[int]) -> np.ndarray:
    """(n,) mask (row v - 1) of the vertices reachable from any source over
    strictly definite edges, sources included: a search over
    ``successors``, in O(n + E)."""
    ptr, nxt = (a.tolist() for a in g.successors)
    found = [v - 1 for v in sources]
    seen = bytearray(g.n)
    for v in found:
        seen[v] = 1
    for v in found:  # the list grows as the search goes, so this visits every find
        for w in nxt[ptr[v] : ptr[v + 1]]:
            if not seen[w]:
                seen[w] = 1
                found.append(w)
    return np.frombuffer(seen, dtype=bool)


def _components(indptr: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Strongly connected component label per vertex of the CSR digraph
    (indptr, succ): Tarjan's algorithm on explicit stacks, so no recursion,
    in O(n + E)."""
    ptr, nxt = indptr.tolist(), succ.tolist()
    n = len(ptr) - 1
    cursor = ptr[:-1]  # per vertex, the next of its edges to follow
    found, low, label = [-1] * n, [0] * n, [-1] * n  # discovery index, low link, component
    open_: List[int] = []  # discovered vertices not yet labelled
    count = comps = 0
    for root in range(n):
        path = [root] if found[root] < 0 else []
        while path:
            v = path[-1]
            if found[v] < 0:
                found[v] = low[v] = count
                count += 1
                open_.append(v)
            if cursor[v] < ptr[v + 1]:
                w = nxt[cursor[v]]
                cursor[v] += 1
                if found[w] < 0:
                    path.append(w)
                elif label[w] < 0:
                    low[v] = min(low[v], found[w])
                continue
            path.pop()
            if path:
                low[path[-1]] = min(low[path[-1]], low[v])
            if low[v] == found[v]:
                while label[v] < 0:
                    label[open_.pop()] = comps
                comps += 1
    return np.array(label, dtype=np.intp)


@dataclass(frozen=True)
class Decomposition:
    """Partition of the vertex set into a grounded part V1 and the rest,
    V2, which is not stored: it is V1's complement."""

    v1: FrozenSet[int]

    @staticmethod
    def of(g: SignedGraph, v1: Iterable[int]) -> "Decomposition":
        """V1 as Python ints, once it is checked to be nonempty and to hold
        only integer ids of g's vertices."""
        v1s = frozenset(v1)
        if not v1s:
            raise InvalidPartitionError("V1 must be nonempty")
        for v in v1s:
            if not isinstance(v, (int, np.integer)):
                raise InvalidPartitionError(f"V1 holds {v!r}, which is not a vertex id")
            _check_vertex(g.n, v)
        return Decomposition(v1=frozenset(map(int, v1s)))


@dataclass(frozen=True)
class AssumptionReport:
    path_failures: Tuple[int, ...]
    dominance_failures: Tuple[int, ...]

    @property
    def path_cover(self) -> bool:
        return not self.path_failures

    @property
    def dominance(self) -> bool:
        return not self.dominance_failures

    @property
    def ok(self) -> bool:
        return self.path_cover and self.dominance

    @property
    def failures(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.path_failures) | set(self.dominance_failures)))


def verify_assumption(g: SignedGraph, dec: Decomposition) -> AssumptionReport:
    """Check the decomposition against the connectivity and dominance
    requirements.  Dominance is vacuous (reported true) on undirected graphs,
    and is read from the graph's ``dominated`` mask over V2, V1's
    complement, taken as a mask; V1's ids are checked as
    ``Decomposition.of`` checks them."""
    Decomposition.of(g, dec.v1)
    reach = _definite_reach(g, dec.v1)  # V1 is in it, so every vertex outside it is in V2
    dom_fail: List[int] = []
    if g.directed:
        v2 = np.ones(g.n, dtype=bool)
        v2[[v - 1 for v in dec.v1]] = False
        dom_fail = (np.flatnonzero(v2 & ~g.dominated) + 1).tolist()
    return AssumptionReport(
        path_failures=tuple((np.flatnonzero(~reach) + 1).tolist()),
        dominance_failures=tuple(dom_fail),
    )


def suggest_decomposition(g: SignedGraph) -> Decomposition:
    """Valid decomposition with minimal |V1|, lexicographically first among ties.

    V1 is every vertex that is not in-degree dominated (none on undirected
    graphs) plus the smallest vertex of each source strongly connected
    component of the definite-edge graph that holds none of those: such a
    component is reached only from inside, and any one of its vertices
    reaches all of it.  The components come from ``_components`` on
    ``successors``, so this runs in O(n + E) beyond the dominance test.

    The rule ignores the design's own need for a positive definite coupling
    block on every V1 vertex, so ``design_fixed`` can still reject the
    suggestion with ``DegenerateCouplingError`` (net_c's V1 holds vertex 4,
    which has no negative in-edge).
    """
    chosen = ~g.dominated if g.directed else np.zeros(g.n, dtype=bool)
    label = _components(*g.successors)
    definite = g.definite
    src, dst = label[g.tails[definite]], label[g.heads[definite]]
    covered = np.zeros(g.n, dtype=bool)  # per label
    covered[dst[src != dst]] = True
    covered[label[chosen]] = True
    smallest = np.full(g.n, g.n)  # per label, its smallest vertex
    np.minimum.at(smallest, label, np.arange(g.n))
    chosen[smallest[~covered & (smallest < g.n)]] = True
    return Decomposition.of(g, (np.flatnonzero(chosen) + 1).tolist())
