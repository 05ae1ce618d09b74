"""Weight classification and the structural graph predicates."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ntconsensus import (
    ConsensusError,
    Decomposition,
    Definiteness,
    SignedGraph,
    classify_weight,
    in_degree_dominated,
    pn_reachable,
    structural_sets,
    suggest_decomposition,
    verify_assumption,
)
from ntconsensus.errors import (
    AsymmetricWeightError,
    DimensionMismatchError,
    IndefiniteWeightError,
    InvalidPartitionError,
    NonFiniteError,
    VertexOutOfRangeError,
)

from conftest import (
    random_directed_valid,
    random_psd_singular,
    random_spd,
    random_undirected_valid,
)


class TestClassifyWeight:
    def test_identity_posdef(self):
        w = classify_weight(np.eye(3))
        assert w.definiteness is Definiteness.POS_DEF
        assert w.sign == 1

    def test_negated_benchmark_weight_negdef(self):
        raw = -np.array([[5.0, 2, 1], [2, 4, 1], [1, 1, 3]])
        w = classify_weight(raw)
        assert w.definiteness is Definiteness.NEG_DEF
        assert np.allclose(w.magnitude, -raw)

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteWeightError):
            classify_weight(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricWeightError):
            classify_weight(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        raw = np.eye(2)
        raw[1, 1] = bad
        with pytest.raises(NonFiniteError):
            classify_weight(raw)

    def test_zero_and_semidefinite(self):
        assert classify_weight(np.zeros((2, 2))).definiteness is Definiteness.ZERO
        assert classify_weight(np.diag([1.0, 0.0])).definiteness is Definiteness.POS_SEMI_DEF
        assert classify_weight(np.diag([-1.0, 0.0])).definiteness is Definiteness.NEG_SEMI_DEF

    @given(
        m=arrays(np.float64, (3, 3), elements=st.floats(-5, 5, allow_nan=False)),
    )
    @settings(max_examples=200, deadline=None)
    def test_classification_idempotent_and_magnitude_psd(self, m):
        sym = (m + m.T) / 2.0
        try:
            w = classify_weight(sym)
        except IndefiniteWeightError:
            return
        again = classify_weight(w.entries)
        assert again.definiteness is w.definiteness
        assert float(np.min(np.linalg.eigvalsh(w.magnitude))) >= -1e-9


class TestSignedGraph:
    def test_zero_weight_dropped(self):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): np.zeros((2, 2)), (2, 1): np.eye(2)}
        )
        assert (1, 2) not in g.weights and (2, 1) in g.weights

    def test_self_loop_rejected(self):
        with pytest.raises(ConsensusError):
            SignedGraph.from_edges(2, 2, True, {(1, 1): np.eye(2)})

    def test_vertex_range_checked(self):
        with pytest.raises(VertexOutOfRangeError):
            SignedGraph.from_edges(2, 2, True, {(1, 3): np.eye(2)})

    @pytest.mark.parametrize("n, d", [(0, 2), (-1, 2), (2, 0)])
    def test_empty_dimensions_rejected(self, n, d):
        with pytest.raises(DimensionMismatchError):
            SignedGraph.from_edges(n, d, True, {})

    def test_undirected_materializes_both_directions(self):
        g = SignedGraph.from_edges(3, 2, False, {(1, 2): -np.eye(2)})
        assert np.allclose(g.weights[(2, 1)].entries, g.weights[(1, 2)].entries)

    def test_undirected_mismatch_rejected(self):
        with pytest.raises(AsymmetricWeightError):
            SignedGraph.from_edges(
                2, 2, False, {(1, 2): np.eye(2), (2, 1): 2 * np.eye(2)}
            )


class TestStructuralSets:
    def test_benchmark_antagonized_set(self, net_a):
        assert structural_sets(net_a).antagonized == frozenset({1, 2, 3, 4, 6})

    def test_all_positive_graph_empty(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): np.eye(2)})
        assert structural_sets(g).antagonized == frozenset()

    def test_mutual_negative_pair(self):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.eye(2)}
        )
        sets = structural_sets(g)
        assert sets.antagonized == frozenset({1, 2})
        assert sets.negative_in[1] == {2} and sets.negative_in[2] == {1}

    def test_undirected_symmetry(self, rng):
        g, _ = random_undirected_valid(rng, 5, 2)
        sets = structural_sets(g)
        for i, j in g.weights:
            assert (j, i) in g.weights
        for v in g.vertices:
            for j in sets.negative_in[v]:
                assert v in sets.negative_in[j]


class TestReachability:
    def test_benchmark_definite_edge(self, net_a):
        assert pn_reachable(net_a, 1, 5)

    def test_semidefinite_edge_blocks(self):
        g = SignedGraph.from_edges(2, 2, True, {(2, 1): np.diag([1.0, 0.0])})
        assert not pn_reachable(g, 1, 2)

    def test_reflexive(self, net_a):
        assert pn_reachable(net_a, 3, 3)

    def test_monotone_in_added_definite_edge(self, rng):
        g, _ = random_directed_valid(rng, 6, 2)
        reach_before = {
            (a, b) for a in g.vertices for b in g.vertices if pn_reachable(g, a, b)
        }
        extra = dict({k: w.entries for k, w in g.weights.items()})
        # new definite edge out of the root
        target = next(v for v in range(2, 7) if (v, 1) not in extra)
        extra[(target, 1)] = np.eye(2)
        g2 = SignedGraph.from_edges(6, 2, True, extra)
        for a, b in reach_before:
            assert pn_reachable(g2, a, b)


class TestDominance:
    def test_isolated_vertex(self):
        g = SignedGraph.from_edges(3, 2, True, {(2, 1): np.eye(2)})
        assert in_degree_dominated(g, 3)

    def test_weak_variant_vertex5_fails(self, net_a_weak):
        assert not in_degree_dominated(net_a_weak, 5)

    def test_balanced_vertex(self):
        g = SignedGraph.from_edges(
            3, 2, True, {(2, 1): np.eye(2), (3, 2): np.eye(2)}
        )
        assert in_degree_dominated(g, 2)


class TestVerifyAssumption:
    def test_benchmark_passes(self, net_a, net_a_dec):
        report = verify_assumption(net_a, net_a_dec)
        assert report.ok and report.failures == ()

    def test_weak_variant_fails_with_names(self, net_a_weak, net_a_dec):
        report = verify_assumption(net_a_weak, net_a_dec)
        assert not report.ok
        assert 6 in report.path_failures
        assert set(report.dominance_failures) == {5, 6}

    def test_v1_everything_vacuous(self, net_a):
        dec = Decomposition.of(net_a, range(1, 8))
        assert verify_assumption(net_a, dec).ok

    def test_bad_partition_rejected(self, net_a):
        with pytest.raises(InvalidPartitionError):
            verify_assumption(net_a, Decomposition(frozenset({1}), frozenset({1, 2})))

    def test_dominance_vacuous_when_undirected(self, rng):
        g, dec = random_undirected_valid(rng, 5, 2)
        assert verify_assumption(g, dec).dominance


class TestSuggestDecomposition:
    def test_benchmark_finds_small_v1(self, net_a):
        dec = suggest_decomposition(net_a)
        assert dec is not None and len(dec.v1) <= 4
        assert verify_assumption(net_a, dec).ok

    def test_edgeless_graph_needs_all(self):
        g = SignedGraph.from_edges(3, 2, True, {})
        dec = suggest_decomposition(g)
        assert dec is not None and dec.v1 == frozenset({1, 2, 3})

    def test_two_node_chain(self):
        g = SignedGraph.from_edges(2, 2, True, {(2, 1): np.eye(2)})
        dec = suggest_decomposition(g)
        assert dec is not None and dec.v1 == frozenset({1})

    def test_several_hundred_vertices(self):
        g, expected = _condensation_network(np.random.default_rng(7))
        assert g.n >= 300
        start = time.perf_counter()
        dec = suggest_decomposition(g)
        assert time.perf_counter() - start < 1.0
        assert dec.v1 == expected
        assert verify_assumption(g, dec).ok

    def test_random_instances_self_consistent(self, rng):
        for _ in range(10):
            g, _ = random_directed_valid(rng, int(rng.integers(3, 7)), 2)
            dec = suggest_decomposition(g)
            assert dec is not None
            assert verify_assumption(g, dec).ok


def _condensation_network(rng):
    """Directed graph on 360 shuffled labels whose minimal V1 is known by
    construction.  Each cycle carries one weight magnitude W on every edge,
    so its vertices are balanced; signs are random.

    - 30 cycles of 5 fed by nothing: each needs its smallest label in V1.
      Six of them send a semidefinite edge into one of 6 further cycles of 4:
      the sender is not dominated, so it is mandatory and covers its own
      cycle, while the receiving cycle gains in-weight but no definite path
      and still needs its smallest label.
    - 20 roots with out-edges only (not dominated), each feeding a cycle of 4
      and a chain of 3 with shrinking weights: only the root is needed.
    - 4 unfed chains of 5: only the head, which is not dominated, is needed.
    - 6 isolated vertices, each needed.
    """
    d = 2
    labels = iter(int(v) + 1 for v in rng.permutation(360))
    edges, v1 = {}, set()

    def take(k):
        return [next(labels) for _ in range(k)]

    def link(to, frm, mag):
        edges[(to, frm)] = -mag if rng.random() < 0.4 else mag

    def cycle(k):
        verts, w = take(k), random_spd(rng, d)
        for a, b in zip(verts, verts[1:] + verts[:1]):
            link(b, a, w)
        return verts

    def chain(head, k):
        w = random_spd(rng, d)
        for m, v in enumerate(take(k), start=1):
            link(v, head, w / m)
            head = v

    for c in range(30):
        verts = cycle(5)
        if c < 6:
            sender = verts[int(rng.integers(5))]
            target = cycle(4)
            link(target[int(rng.integers(4))], sender, random_psd_singular(rng, d))
            v1.update([sender, min(target)])
        else:
            v1.add(min(verts))
    for _ in range(20):
        (root,) = take(1)
        link(cycle(4)[0], root, random_spd(rng, d))
        chain(root, 3)
        v1.add(root)
    for _ in range(4):
        (head,) = take(1)
        chain(head, 4)
        v1.add(head)
    v1.update(take(6))
    return SignedGraph.from_edges(360, d, True, edges), frozenset(v1)


def _random_signed_digraph(rng, n, d, p_definite=0.6, p_negative=0.4):
    """Directed graph with independent random edges (cycles allowed), each
    definite (with probability ``p_definite``) or singular semidefinite,
    negative (with probability ``p_negative``) or positive, at scales spread
    over two decades.  Half the edges get a reverse edge of equal magnitude,
    so balanced vertices and ties between minimal decompositions occur.
    Returns the graph, the weight magnitudes, and the set of definite edges."""
    magnitudes, definite = {}, set()
    for i, j in itertools.permutations(range(1, n + 1), 2):
        if (i, j) in magnitudes or rng.random() > 0.3:
            continue
        is_definite = rng.random() < p_definite
        w = random_spd(rng, d) if is_definite else random_psd_singular(rng, d)
        mirror = (j, i) not in magnitudes and rng.random() < 0.5
        pair = [(i, j), (j, i)] if mirror else [(i, j)]
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        for e in pair:
            magnitudes[e] = scale * w
            if is_definite:
                definite.add(e)
    signed = {e: (-m if rng.random() < p_negative else m) for e, m in magnitudes.items()}
    return SignedGraph.from_edges(n, d, True, signed), magnitudes, definite


def _warshall(n, definite):
    """reach[a, b]: a path from a to b over definite edges (empty path included)."""
    reach = np.eye(n + 1, dtype=bool)
    for i, j in definite:
        reach[j, i] = True
    for k in range(1, n + 1):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


def _dominated_by_eigvalsh(n, d, magnitudes):
    """Per vertex: in-weight magnitudes minus out-weight magnitudes is PSD."""
    dominated = {}
    for v in range(1, n + 1):
        gap = sum((m for (i, _), m in magnitudes.items() if i == v), np.zeros((d, d)))
        gap = gap - sum((m for (_, j), m in magnitudes.items() if j == v), np.zeros((d, d)))
        dominated[v] = float(np.linalg.eigvalsh(gap).min()) >= -1e-9
    return dominated


class TestBruteForceReference:
    """Random graphs not built to pass, checked against a Warshall closure,
    a per-vertex eigenvalue test and a search over every subset."""

    def test_failures_and_minimal_decomposition(self):
        rng = np.random.default_rng(20261017)
        seen_path_fail = seen_dom_fail = seen_large_v1 = seen_ties = 0
        for _ in range(200):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 4))
            g, magnitudes, definite = _random_signed_digraph(rng, n, d)
            reach = _warshall(n, definite)
            dominated = _dominated_by_eigvalsh(n, d, magnitudes)
            verts = range(1, n + 1)

            def failures(v1):
                v2 = [j for j in verts if j not in v1]
                path = tuple(j for j in v2 if not any(reach[i, j] for i in v1))
                return path, tuple(j for j in v2 if not dominated[j])

            for a in verts:
                assert in_degree_dominated(g, a) == dominated[a]
                for b in verts:
                    assert pn_reachable(g, a, b) == reach[a, b]

            v1 = [v for v in verts if rng.random() < 0.3] or [int(rng.integers(1, n + 1))]
            report = verify_assumption(g, Decomposition.of(g, v1))
            path, dom = failures(v1)
            assert report.path_failures == path
            assert report.dominance_failures == dom
            seen_path_fail += bool(path)
            seen_dom_fail += bool(dom)

            # combinations() yields each size in lexicographic order
            for k in range(1, n + 1):
                valid = [c for c in itertools.combinations(verts, k) if failures(c) == ((), ())]
                if valid:
                    break
            assert suggest_decomposition(g).v1 == frozenset(valid[0])
            seen_large_v1 += k > 1
            seen_ties += len(valid) > 1
        # the random set must exercise every outcome, not just passing graphs
        assert min(seen_path_fail, seen_dom_fail, seen_large_v1, seen_ties) >= 10
