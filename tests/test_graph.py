"""Weight classification and the structural graph predicates."""

import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ntconsensus import (
    ConsensusError,
    Decomposition,
    SignedGraph,
    bundled_path,
    design_fixed,
    suggest_decomposition,
    verify_assumption,
)
from ntconsensus.graph import _check_vertex, _components, _definite_reach, classify_stack
from ntconsensus.errors import (
    AsymmetricWeightError,
    DimensionMismatchError,
    IndefiniteWeightError,
    InvalidPartitionError,
    NonFiniteError,
    VertexOutOfRangeError,
)

from conftest import (
    edge_codes,
    edge_weights,
    random_directed_valid,
    random_psd_singular,
    random_spd,
    random_undirected_valid,
)


def _classify(raw):
    """``classify_stack`` on one weight: its symmetrized entries and class
    code, or its error raised."""
    sym, codes, errors = classify_stack(np.asarray(raw, dtype=float)[None])
    if errors:
        raise errors[0]
    return sym[0], int(codes[0])


class TestClassifyWeight:
    def test_identity_posdef(self):
        assert _classify(np.eye(3))[1] == 2

    def test_negated_benchmark_weight_negdef(self):
        raw = -np.array([[5.0, 2, 1], [2, 4, 1], [1, 1, 3]])
        sym, code = _classify(raw)
        assert code == -2
        assert np.allclose(np.sign(code) * sym, -raw)

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteWeightError):
            _classify(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricWeightError):
            _classify(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7e308])
    def test_non_finite_rejected(self, bad):
        """1.7e308 is finite, but it overflows when symmetrized."""
        raw = np.eye(2)
        raw[1, 1] = bad
        with pytest.raises(NonFiniteError):
            _classify(raw)

    def test_zero_and_semidefinite(self):
        assert _classify(np.zeros((2, 2)))[1] == 0
        assert _classify(np.diag([1.0, 0.0]))[1] == 1
        assert _classify(np.diag([-1.0, 0.0]))[1] == -1

    @given(
        m=arrays(np.float64, (3, 3), elements=st.floats(-5, 5, allow_nan=False)),
    )
    @settings(max_examples=200, deadline=None)
    def test_classification_idempotent_and_magnitude_psd(self, m):
        sym = (m + m.T) / 2.0
        try:
            w, code = _classify(sym)
        except IndefiniteWeightError:
            return
        assert _classify(w)[1] == code
        assert float(np.min(np.linalg.eigvalsh(np.sign(code) * w))) >= -1e-9


def _weight_of_kind(kind, d, r):
    """A d x d weight of the named kind, drawn from the generator r."""
    q, _ = np.linalg.qr(r.normal(size=(d, d)))
    sign = 1.0 if r.random() < 0.5 else -1.0
    if kind == "definite":
        return sign * (q * r.uniform(1.0, 2.0, d)) @ q.T
    if kind == "semidefinite":
        return sign * (q * np.r_[r.uniform(1.0, 2.0, d - 1), 0.0]) @ q.T
    if kind == "indefinite":
        return (q * np.r_[1.0, -1.0, r.uniform(-1.0, 1.0, d - 2)]) @ q.T
    if kind == "asymmetric":
        return np.eye(d) + np.triu(r.uniform(1.0, 2.0, (d, d)), 1)
    if kind == "nonfinite":
        w = np.eye(d)
        w[r.integers(d), r.integers(d)] = [np.nan, np.inf, -np.inf, 1.7e308][r.integers(4)]
        return w
    return np.zeros((d, d))


KINDS = ("definite", "semidefinite", "zero", "indefinite", "asymmetric", "nonfinite")


class TestClassifyStack:
    @given(
        d=st.integers(2, 4),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_classified_as_if_alone(self, d, kinds, seed):
        """A stack mixing every kind of weight gives each row the code and
        error that row gets alone, so a bad row never changes its neighbours."""
        r = np.random.default_rng(seed)
        stack = np.array([_weight_of_kind(kind, d, r) for kind in kinds])
        sym, codes, errors = classify_stack(stack)
        for k, kind in enumerate(kinds):
            alone_sym, alone_codes, alone_errors = classify_stack(stack[k : k + 1])
            assert (k in errors) == bool(alone_errors)
            if alone_errors:
                assert type(errors[k]) is type(alone_errors[0])
                assert str(errors[k]) == str(alone_errors[0])
                continue
            assert codes[k] == alone_codes[0]
            assert sym[k].tobytes() == alone_sym[0].tobytes()
            expected = {"definite": 2, "semidefinite": 1, "zero": 0}[kind]
            assert abs(int(codes[k])) == expected
        bad = [k for k, kind in enumerate(kinds) if kind in KINDS[3:]]
        assert sorted(errors) == bad


class TestSignedGraph:
    def test_zero_weight_dropped(self):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): np.zeros((2, 2)), (2, 1): np.eye(2)}
        )
        assert (1, 2) not in edge_weights(g) and (2, 1) in edge_weights(g)

    def test_self_loop_rejected(self):
        with pytest.raises(ConsensusError):
            SignedGraph.from_edges(2, 2, True, {(1, 1): np.eye(2)})

    def test_first_bad_edge_named(self):
        """The weights are classified in one call, but the error is still
        the one of the first bad edge in the mapping's order."""
        indefinite, out_of_range = ((1, 2), np.diag([1.0, -1.0])), ((1, 5), np.eye(2))
        with pytest.raises(IndefiniteWeightError):
            SignedGraph.from_edges(2, 2, True, dict([indefinite, out_of_range]))
        with pytest.raises(VertexOutOfRangeError):
            SignedGraph.from_edges(2, 2, True, dict([out_of_range, indefinite]))

    def test_vertex_range_checked(self):
        with pytest.raises(VertexOutOfRangeError):
            SignedGraph.from_edges(2, 2, True, {(1, 3): np.eye(2)})

    @pytest.mark.parametrize("n, d", [
        (0, 2), (-1, 2), (2, 0),
        # 8 n d^2 bytes beyond NumPy's array bound, in NumPy integers that
        # must not wrap (the CLI test covers Python ints)
        (np.int64(10**18), 3), (2, np.int64(10**10)),
    ])
    def test_empty_dimensions_rejected(self, n, d):
        with pytest.raises(DimensionMismatchError):
            SignedGraph.from_edges(n, d, True, {})

    def test_undirected_materializes_both_directions(self):
        g = SignedGraph.from_edges(3, 2, False, {(1, 2): -np.eye(2)})
        assert np.allclose(edge_weights(g)[(2, 1)], edge_weights(g)[(1, 2)])

    def test_undirected_mismatch_rejected(self):
        with pytest.raises(AsymmetricWeightError):
            SignedGraph.from_edges(
                2, 2, False, {(1, 2): np.eye(2), (2, 1): 2 * np.eye(2)}
            )

    @pytest.mark.parametrize(
        "weight", [np.zeros((2, 2)), np.eye(2), np.ones(3), np.zeros((3, 3, 1))]
    )
    def test_weight_not_d_by_d_rejected(self, weight):
        # a zero weight of the wrong shape is not dropped as "no edge"
        edges = {(2, 1): -np.eye(3), (3, 2): weight}
        with pytest.raises(DimensionMismatchError, match=r"edge \(2->3\).*expected \(3, 3\)"):
            SignedGraph.from_edges(3, 3, True, edges)


def _per_edge_build(n, d, directed, edges):
    """The graph builder as one Python pass per edge, the checks in the
    order vertex range, self-loop, shape, class, undirected mismatch: the
    (heads, tails, entries, classes) that ``from_edges`` must reproduce
    byte for byte, or the error it must raise."""
    if n < 1 or d < 1:
        raise DimensionMismatchError(f"need n >= 1 and d >= 1, got n = {n}, d = {d}")
    raws = [np.asarray(w, dtype=float) for w in edges.values()]
    fits = [r.shape == (d, d) for r in raws]
    stack = np.array([r if f else np.zeros((d, d)) for r, f in zip(raws, fits)])
    sym, codes, errors = classify_stack(stack.reshape(-1, d, d))
    rows = {}  # edge -> row of the stack, in the order edges are first met
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
                raise AsymmetricWeightError(f"undirected graph has A[{j},{i}] != A[{i},{j}]")
            rows[(j, i)] = k
    ends = np.array(list(rows), dtype=np.intp).reshape(-1, 2) - 1
    take = np.fromiter(rows.values(), dtype=np.intp, count=len(rows))
    return ends[:, 0], ends[:, 1], sym[take], codes[take]


def _built(build, n, d, directed, edges):
    """A builder's arrays as bytes (with their dtypes and shapes), or its error."""
    try:
        arrays = build(n, d, directed, edges)
    except ConsensusError as exc:
        return type(exc), str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _from_edges(n, d, directed, edges):
    g = SignedGraph.from_edges(n, d, directed, edges)
    return g.heads, g.tails, g.entries, g.classes


def _random_edges(rng, n, d, directed, bad=()):
    """Random raw edges keyed (to, from): definite, semidefinite and zero
    weights of both signs; undirected pairs given once or in both
    orientations, the second a copy with -0.0 for each 0.0 or a zero
    weight; and, at random places, edges of the kinds named in ``bad``."""
    edges = {}
    for _ in range(int(rng.integers(0, 3 * n))):
        i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
        if i == j or (i, j) in edges:
            continue
        kind = rng.random()
        w = random_spd(rng, d) if kind < 0.5 else random_psd_singular(rng, d)
        if kind > 0.85:
            w = np.zeros((d, d))
        w = -w if rng.random() < 0.4 else w
        if not directed and (j, i) in edges and kind < 0.85:
            w = np.where(edges[(j, i)] == 0.0, -0.0, edges[(j, i)])
        edges[(i, j)] = w
    for kind in bad:
        key = tuple(int(v) for v in rng.integers(1, n + 1, size=2))
        if kind == "range":
            key = (key[0], n + 1) if rng.random() < 0.5 else (0, key[1])
        elif kind == "loop":
            key = (key[0], key[0])
        w = {"shape": np.eye(d + 1), "indefinite": np.diag(np.r_[1.0, -np.ones(d - 1)]),
             "nonfinite": np.full((d, d), np.nan), "mismatch": 3.0 * np.eye(d)}.get(kind, np.eye(d))
        if kind == "mismatch":
            edges.setdefault(key[::-1], np.eye(d))
        if key[0] != key[1] or kind == "loop":
            edges.pop(key, None)
            edges[key] = w
    return edges


class TestFromEdgesMatchesPerEdgeBuild:
    """``from_edges`` checks its edges by masks; it must build exactly what
    a pass edge by edge builds, and raise what that pass raises first."""

    @pytest.mark.parametrize("name", ["net_a", "net_b", "net_c"])
    def test_bundled(self, name):
        data = json.loads(bundled_path(f"{name}.json").read_text())
        edges = {(e["to"], e["from"]): np.array(e["weight"], dtype=float) for e in data["edges"]}
        args = (data["n"], data["d"], data["directed"], edges)
        assert _built(_from_edges, *args) == _built(_per_edge_build, *args)

    @pytest.mark.parametrize("directed", [True, False])
    def test_random(self, directed):
        rng = np.random.default_rng(2026)
        for _ in range(150):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            args = (n, d, directed, _random_edges(rng, n, d, directed))
            built = _built(_from_edges, *args)
            assert isinstance(built, list)
            assert built == _built(_per_edge_build, *args)

    def test_undirected_pair_in_both_orientations(self):
        """Both directions take the later edge's entries, -0.0 included, in
        the earlier edge's place; a zero weight is dropped before the pair
        is matched."""
        early = np.array([[2.0, 0.0], [0.0, 1.0]])
        late = np.array([[2.0, -0.0], [-0.0, 1.0]])
        edges = {(1, 2): early, (3, 1): np.eye(2), (2, 1): late, (3, 2): np.zeros((2, 2)),
                 (2, 3): -np.eye(2)}
        g = SignedGraph.from_edges(3, 2, False, edges)
        assert list(zip(g.heads.tolist(), g.tails.tolist())) == [
            (0, 1), (1, 0), (2, 0), (0, 2), (1, 2), (2, 1)
        ]
        assert g.entries[0].tobytes() == g.entries[1].tobytes() == late.tobytes()
        assert _built(_from_edges, 3, 2, False, edges) == _built(_per_edge_build, 3, 2, False, edges)

    @pytest.mark.parametrize("directed", [True, False])
    def test_first_bad_edge_raises(self, directed):
        """Several bad edges of different kinds: the first in the mapping's
        order raises, with the same type and message."""
        kinds = ["range", "loop", "shape", "indefinite", "nonfinite"] + (
            [] if directed else ["mismatch"]
        )
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(300):
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            bad = list(rng.choice(kinds, size=int(rng.integers(1, 4))))
            args = (n, d, directed, _random_edges(rng, n, d, directed, bad))
            expected = _built(_per_edge_build, *args)
            assert _built(_from_edges, *args) == expected
            if isinstance(expected, tuple):
                seen.add(expected[0])
        assert len(seen) == (5 if directed else 6)


def _partition(labels):
    """Component labels renamed by first appearance, so that two labellings
    of one partition compare equal."""
    first = {}
    return [first.setdefault(x, len(first)) for x in np.asarray(labels).tolist()]


class TestComponents:
    def test_matches_csgraph_on_cycles(self):
        """Random digraphs made of overlapping directed cycles and chords,
        so most components hold several vertices: the same partition as
        SciPy's strongly connected components."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(11)
        sizes = []
        for _ in range(100):
            n = int(rng.integers(1, 40))
            edges = {}
            for _ in range(int(rng.integers(0, 6))):
                cycle = rng.permutation(n)[: int(rng.integers(2, n + 1))] + 1 if n > 1 else []
                for a, b in zip(cycle, np.roll(cycle, -1)):
                    edges[(int(b), int(a))] = np.eye(1)
            for _ in range(int(rng.integers(0, n))):
                i, j = (int(v) for v in rng.integers(1, n + 1, size=2))
                if i != j:
                    edges[(i, j)] = np.eye(1) if rng.random() < 0.8 else np.zeros((1, 1))
            g = SignedGraph.from_edges(n, 1, True, edges)
            label = _components(*g.successors)
            adj = csr_matrix((np.ones(len(g.heads)), (g.tails, g.heads)), shape=(n, n))
            _, expected = connected_components(adj, directed=True, connection="strong")
            assert _partition(label) == _partition(expected)
            sizes.append(n - len(set(label.tolist())))
        assert sum(s > 0 for s in sizes) >= 50  # most graphs have a multi-vertex component

    @pytest.mark.parametrize("cycle", [False, True])
    def test_long_path_and_cycle(self, cycle):
        """A definite path 1 -> 2 -> ... -> n and the cycle that closes it,
        n = 10^5, equal weights: on the path only vertex 1 is not dominated,
        and on the cycle every vertex is dominated and the one component
        needs its smallest vertex.  Either way V1 = {1}, with no recursion."""
        n = 100_000
        tails = np.arange(1, n + (1 if cycle else 0))
        heads = tails % n + 1
        edges = dict(zip(zip(heads.tolist(), tails.tolist()), np.ones((len(tails), 1, 1))))
        g = SignedGraph.from_edges(n, 1, True, edges)
        start = time.perf_counter()
        dec = suggest_decomposition(g)
        assert time.perf_counter() - start < 1.0
        assert dec.v1 == frozenset({1})
        assert verify_assumption(g, dec).ok


class TestDecomposition:
    def test_empty_v1_rejected(self, net_a):
        with pytest.raises(InvalidPartitionError, match="nonempty"):
            Decomposition.of(net_a, [])


def _negative_in(g):
    """Per vertex, the tails of its negative in-edges, read from the class codes."""
    out = {v: set() for v in g.vertices}
    for (i, j), code in edge_codes(g).items():
        if code < 0:
            out[i].add(j)
    return out


class TestStructuralSets:
    def test_benchmark_antagonized_set(self, net_a, net_a_dec):
        antagonized = frozenset(v for v, tails in _negative_in(net_a).items() if tails)
        assert antagonized == frozenset({1, 2, 3, 4, 6})
        assert set(design_fixed(net_a, net_a_dec, np.ones(3)).informed.tolist()) == antagonized

    def test_all_positive_graph_empty(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): np.eye(2)})
        assert not np.any(g.classes < 0)
        assert all(not tails for tails in _negative_in(g).values())

    def test_mutual_negative_pair(self):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.eye(2)}
        )
        negative_in = _negative_in(g)
        assert negative_in[1] == {2} and negative_in[2] == {1}
        design = design_fixed(g, Decomposition.of(g, [1]), np.ones(2))
        assert design.informed.tolist() == [1, 2]

    def test_undirected_symmetry(self, rng):
        g, _ = random_undirected_valid(rng, 5, 2)
        weights = edge_weights(g)
        for (i, j), w in weights.items():
            assert (j, i) in weights
            assert np.array_equal(weights[(j, i)], w)
        negative_in = _negative_in(g)
        for v in g.vertices:
            for j in negative_in[v]:
                assert v in negative_in[j]


def _reaches(g, src, dst):
    """Reachability over strictly definite edges; src reaches itself."""
    return bool(_definite_reach(g, [src])[dst - 1])


def _dominated_at(g, v):
    """Vertex v's in-weight magnitudes dominate its out-weight magnitudes."""
    return bool(g.dominated[v - 1])


class TestReachability:
    def test_benchmark_definite_edge(self, net_a):
        assert _reaches(net_a, 1, 5)

    def test_semidefinite_edge_blocks(self):
        g = SignedGraph.from_edges(2, 2, True, {(2, 1): np.diag([1.0, 0.0])})
        assert not _reaches(g, 1, 2)

    def test_reflexive(self, net_a):
        assert _reaches(net_a, 3, 3)

    def test_monotone_in_added_definite_edge(self, rng):
        g, _ = random_directed_valid(rng, 6, 2)
        reach_before = {
            (a, b) for a in g.vertices for b in g.vertices if _reaches(g, a, b)
        }
        extra = edge_weights(g)
        # new definite edge out of the root
        target = next(v for v in range(2, 7) if (v, 1) not in extra)
        extra[(target, 1)] = np.eye(2)
        g2 = SignedGraph.from_edges(6, 2, True, extra)
        for a, b in reach_before:
            assert _reaches(g2, a, b)


class TestDominance:
    def test_isolated_vertex(self):
        g = SignedGraph.from_edges(3, 2, True, {(2, 1): np.eye(2)})
        assert _dominated_at(g, 3)

    def test_weak_variant_vertex5_fails(self, net_a_weak):
        assert not _dominated_at(net_a_weak, 5)

    def test_balanced_vertex(self):
        g = SignedGraph.from_edges(
            3, 2, True, {(2, 1): np.eye(2), (3, 2): np.eye(2)}
        )
        assert _dominated_at(g, 2)


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

    @pytest.mark.parametrize("v1", [[1, 1.5], [2.0], ["3"]], ids=["1.5", "2.0", "str"])
    def test_non_integer_v1_id_rejected(self, net_a, v1):
        """A decomposition holds V1 alone, V2 being its complement, so a V1
        id that is not an integer is rejected where V1 is made, and where
        it is checked."""
        with pytest.raises(InvalidPartitionError, match="not a vertex id"):
            Decomposition.of(net_a, v1)
        with pytest.raises(InvalidPartitionError, match="not a vertex id"):
            verify_assumption(net_a, Decomposition(frozenset(v1)))

    def test_v1_ids_kept_as_python_ints(self, net_a):
        # True and NumPy integers are integer ids, kept as the ints they equal
        v1 = Decomposition.of(net_a, [True, np.int64(2), 3, 4]).v1
        assert v1 == {1, 2, 3, 4} and {type(v) for v in v1} == {int}

    def test_out_of_range_v1_id_rejected(self, net_a):
        for v in (0, 8):
            with pytest.raises(VertexOutOfRangeError):
                verify_assumption(net_a, Decomposition(frozenset({1, v})))

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

    def test_undirected_takes_one_vertex_per_component(self):
        # no dominance test on an undirected graph: only path cover counts
        g = SignedGraph.from_edges(
            5, 2, False, {(1, 2): -np.eye(2), (2, 3): np.eye(2), (4, 5): np.eye(2)}
        )
        dec = suggest_decomposition(g)
        assert dec.v1 == frozenset({1, 4})
        assert verify_assumption(g, dec).ok

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
                assert _dominated_at(g, a) == dominated[a]
                for b in verts:
                    assert _reaches(g, a, b) == reach[a, b]

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
