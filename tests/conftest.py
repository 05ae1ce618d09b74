"""Shared fixtures: bundled benchmark networks and random instance factories.

The random factories construct graphs that satisfy the decomposition
requirements by design: a definite spanning tree rooted at vertex 1 gives the
path cover, and geometric weight shrinkage down the tree keeps every non-root
vertex in-degree dominated.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pytest

from ntconsensus import (
    Decomposition,
    SignedGraph,
    bundled_decomposition,
    bundled_graph,
)
from ntconsensus.networks import BUNDLED_V1


def _edge_keys(g: SignedGraph):
    return zip((g.heads + 1).tolist(), (g.tails + 1).tolist())


def edge_weights(g: SignedGraph) -> Dict[Tuple[int, int], np.ndarray]:
    """The graph's signed weights keyed by 1-based (to, from) pairs, in edge
    order, read from its arrays."""
    return dict(zip(_edge_keys(g), g.entries))


def edge_magnitudes(g: SignedGraph) -> Dict[Tuple[int, int], np.ndarray]:
    """|A_ij| per edge, keyed like ``edge_weights``."""
    return dict(zip(_edge_keys(g), g.magnitudes))


def edge_codes(g: SignedGraph) -> Dict[Tuple[int, int], int]:
    """The class code per edge, keyed like ``edge_weights``."""
    return dict(zip(_edge_keys(g), g.classes.tolist()))


def random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random positive definite matrix with eigenvalues in [1, 2]."""
    m = rng.normal(size=(d, d))
    s = m @ m.T
    top = float(np.max(np.linalg.eigvalsh(s)))
    return np.eye(d) + s / max(top, 1e-12)


def random_psd_singular(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random rank-deficient positive semi-definite matrix."""
    rank = int(rng.integers(1, d)) if d > 1 else 1
    m = rng.normal(size=(d, rank))
    return m @ m.T


def random_directed_valid(
    rng: np.random.Generator, n: int, d: int
) -> Tuple[SignedGraph, Decomposition]:
    """Directed graph passing the decomposition check with V1 = {1}.

    Tree edges point away from the root; the weight scale drops by a factor
    8n per level so each vertex's in-weight dominates the sum of its
    out-weights.  Vertex 1 gets a small negative definite in-edge from vertex
    2 so the design has a positive definite coupling block on V1.
    """
    assert n >= 2
    edges: Dict[Tuple[int, int], np.ndarray] = {}
    scale = {1: 1.0}
    depth = {1: 0}
    for v in range(2, n + 1):
        # depth cap keeps the weight-scale spread well above rank tolerances
        shallow = [u for u in range(1, v) if depth[u] <= 1]
        parent = int(rng.choice(shallow))
        depth[v] = depth[parent] + 1
        scale[v] = scale[parent] / (8.0 * n)
        sign = -1.0 if rng.random() < 0.4 else 1.0
        edges[(v, parent)] = sign * scale[v] * random_spd(rng, d)
    # negative in-edge at the root; kept small so vertex 2 stays dominated
    edges[(1, 2)] = -(scale[2] / 8.0) * random_spd(rng, d)
    # optional extra out-edges from the root only add to in-sums elsewhere
    for _ in range(int(rng.integers(0, n))):
        v = int(rng.integers(2, n + 1))
        if (v, 1) in edges:
            continue
        w = random_psd_singular(rng, d)
        if rng.random() < 0.3:
            w = -w
        edges[(v, 1)] = 0.1 * scale[v] * w
    g = SignedGraph.from_edges(n, d, directed=True, edges=edges)
    return g, Decomposition.of(g, [1])


def random_undirected_valid(
    rng: np.random.Generator, n: int, d: int
) -> Tuple[SignedGraph, Decomposition]:
    """Undirected graph on a definite spanning tree, V1 = {1}; the edge
    between vertices 1 and 2 is negative definite so the informed set is
    nonempty."""
    assert n >= 2
    edges: Dict[Tuple[int, int], np.ndarray] = {}
    edges[(2, 1)] = -random_spd(rng, d)
    for v in range(3, n + 1):
        parent = int(rng.integers(1, v))
        sign = -1.0 if rng.random() < 0.4 else 1.0
        edges[(v, parent)] = sign * random_spd(rng, d)
    g = SignedGraph.from_edges(n, d, directed=False, edges=edges)
    return g, Decomposition.of(g, [1])


def random_all_psd_graph(rng: np.random.Generator, n: int, d: int) -> SignedGraph:
    """Directed graph whose every weight is positive (semi-)definite."""
    edges: Dict[Tuple[int, int], np.ndarray] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or rng.random() < 0.5:
                continue
            if rng.random() < 0.5:
                edges[(i, j)] = random_spd(rng, d)
            else:
                w = random_psd_singular(rng, d)
                if np.max(np.abs(w)) > 0:
                    edges[(i, j)] = w
    return SignedGraph.from_edges(n, d, directed=True, edges=edges)


def rk4_reference_step(lap: np.ndarray, forcing: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of xdot = forcing - lap x, stage by stage."""
    k1 = forcing - lap @ x
    k2 = forcing - lap @ (x + h / 2.0 * k1)
    k3 = forcing - lap @ (x + h / 2.0 * k2)
    k4 = forcing - lap @ (x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def tiled_graph(rng: np.random.Generator, copies: int) -> Tuple[SignedGraph, Decomposition]:
    """``copies`` copies of net_a / net_b on vertices 7c+1..7c+7, each weight
    conjugated by a random orthogonal Q and scaled by s in [0.1, 0.3] (both
    keep definiteness classes and in-degree dominance), chained by a positive
    definite edge from each copy's first V1 vertex to the next one's.  V1 is
    the union of the copies' bundled V1 sets."""
    bases = ("net_a", "net_b")
    graphs = {name: bundled_graph(name) for name in bases}
    edges: Dict[Tuple[int, int], np.ndarray] = {}
    v1 = []
    prev = 0
    for c in range(copies):
        name = bases[int(rng.integers(len(bases)))]
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        s = float(rng.uniform(0.1, 0.3))
        off = 7 * c
        for (i, j), w in edge_weights(graphs[name]).items():
            m = s * (q @ w @ q.T)
            edges[(i + off, j + off)] = (m + m.T) / 2.0
        entry = BUNDLED_V1[name][0] + off
        if prev:
            edges[(entry, prev)] = 0.5 * s * random_spd(rng, 3)
        v1 += [v + off for v in BUNDLED_V1[name]]
        prev = entry
    g = SignedGraph.from_edges(7 * copies, 3, directed=True, edges=edges)
    return g, Decomposition.of(g, v1)


@pytest.fixture(scope="session")
def tiled() -> Tuple[SignedGraph, Decomposition]:
    """A 315-state tiled network, large enough that its RK4 step map is sparse."""
    return tiled_graph(np.random.default_rng(7), 15)


@pytest.fixture(scope="session")
def net_a() -> SignedGraph:
    return bundled_graph("net_a")


@pytest.fixture(scope="session")
def net_a_dec() -> Decomposition:
    return bundled_decomposition("net_a")


@pytest.fixture(scope="session")
def net_a_weak() -> SignedGraph:
    return bundled_graph("net_a_weak")


@pytest.fixture(scope="session")
def net_b() -> SignedGraph:
    return bundled_graph("net_b")


@pytest.fixture(scope="session")
def net_c() -> SignedGraph:
    return bundled_graph("net_c")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
