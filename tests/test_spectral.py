"""Laplacian assembly, lifting, null spaces, and the matrix-exponential bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntconsensus import (
    SignedGraph,
    augmented_laplacian,
    bundled_graph,
    classify_weight,
    consensus_space,
    eigenvalues_sorted,
    expand_system,
    grounded_laplacian,
    intersect_null_spaces,
    quadratic_form_gap,
    log_norm2,
    matrix_exp,
    min_real_part,
    null_space,
    principal_angle,
    signed_laplacian,
)
from ntconsensus.errors import (
    DimensionMismatchError,
    NotNonnegativeWeightsError,
)

from conftest import (
    random_all_psd_graph,
    random_directed_valid,
    random_undirected_valid,
    tiled_graph,
)


def _blocks_of(values):
    return {i: classify_weight(m) for i, m in values.items()}


class TestSignedLaplacian:
    def test_two_node_mutual_negative(self):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.eye(2)}
        )
        lap = signed_laplacian(g).matrix
        expected = np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
        assert np.allclose(lap, expected)

    def test_single_node(self):
        g = SignedGraph.from_edges(1, 3, True, {})
        assert np.allclose(signed_laplacian(g).matrix, np.zeros((3, 3)))

    def test_benchmark_row6_diagonal_block(self, net_a):
        lap = signed_laplacian(net_a).matrix
        expected = sum(
            net_a.weights[(6, j)].magnitude for j in (2, 5, 7)
        )
        assert np.allclose(lap[15:18, 15:18], expected)

    def test_all_positive_row_block_sum_zero(self, rng):
        g = random_all_psd_graph(rng, 5, 3)
        lap = signed_laplacian(g).matrix
        v = rng.normal(size=3)
        assert np.allclose(lap @ np.tile(v, 5), 0.0, atol=1e-10)


def _edge_loop_laplacian(g):
    """Reference assembly, one edge at a time in edge order."""
    m = np.zeros((g.n * g.d, g.n * g.d))
    for (i, j), w in g.weights.items():
        bi, bj = slice((i - 1) * g.d, i * g.d), slice((j - 1) * g.d, j * g.d)
        m[bi, bj] = -w.entries
        m[bi, bi] += w.magnitude
    return m


class TestLaplacianBlocks:
    @pytest.mark.parametrize("make", [
        lambda rng: random_all_psd_graph(rng, 6, 3),
        lambda rng: random_directed_valid(rng, 9, 2)[0],
        lambda rng: random_undirected_valid(rng, 7, 3)[0],
        lambda rng: tiled_graph(rng, 6)[0],
    ])
    def test_matches_edge_loop_bit_for_bit(self, make, rng):
        for _ in range(5):
            g = make(rng)
            assert signed_laplacian(g).matrix.tobytes() == _edge_loop_laplacian(g).tobytes()

    @pytest.mark.parametrize("name", ["net_a", "net_b", "net_c", "net_a_weak"])
    def test_bundled_match_edge_loop_bit_for_bit(self, name):
        g = bundled_graph(name)
        assert signed_laplacian(g).matrix.tobytes() == _edge_loop_laplacian(g).tobytes()


class TestGroundedLaplacian:
    def test_zero_deltas_is_identity(self, net_a):
        lap = signed_laplacian(net_a)
        grounded = grounded_laplacian(net_a, {}, {})
        assert np.allclose(grounded.matrix, lap.matrix)

    def test_single_node_grounding(self):
        g = SignedGraph.from_edges(1, 3, True, {})
        grounded = grounded_laplacian(g, {1: 2.0}, _blocks_of({1: np.eye(3)}))
        assert np.allclose(grounded.matrix, 2 * np.eye(3))

    def test_missing_block_rejected(self, net_a):
        with pytest.raises(DimensionMismatchError):
            grounded_laplacian(net_a, {1: 1.0}, {})


class TestAugmentedLaplacian:
    def test_bottom_rows_zero(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.eye(2)})
        blocks = _blocks_of({1: np.eye(2)})
        aug = augmented_laplacian(g, {1: 1.0}, blocks)
        assert np.allclose(aug.matrix[-2:, :], 0.0)

    def test_zero_delta_block_form(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.eye(2)})
        grounded = grounded_laplacian(g, {}, {})
        aug = augmented_laplacian(g, {}, {})
        assert np.allclose(aug.matrix[:4, 4:], 0.0)
        assert np.allclose(aug.matrix[:4, :4], grounded.matrix)


class TestExpandSystem:
    def test_positive_edge_duplicated(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): np.eye(2)})
        expanded, _ = expand_system(g, {}, {})
        assert np.allclose(expanded.weights[(1, 2)].entries, np.eye(2))
        assert np.allclose(expanded.weights[(3, 4)].entries, np.eye(2))
        assert (1, 4) not in expanded.weights

    def test_negative_edge_rerouted(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -2 * np.eye(2)})
        expanded, _ = expand_system(g, {}, {})
        assert (1, 2) not in expanded.weights
        assert np.allclose(expanded.weights[(1, 4)].entries, 2 * np.eye(2))
        assert np.allclose(expanded.weights[(3, 2)].entries, 2 * np.eye(2))

    def test_expanded_weights_all_nonnegative(self, net_a):
        expanded, _ = expand_system(net_a, {}, {})
        assert all(w.sign >= 0 for w in expanded.weights.values())

    def test_spectrum_contains_original(self, net_a):
        """The lifted spectrum contains the original grounded spectrum."""
        blocks = _blocks_of({1: np.eye(3), 2: np.eye(3)})
        deltas = {1: 2.0, 2: 3.0}
        grounded = grounded_laplacian(net_a, deltas, blocks)
        _, lifted = expand_system(net_a, deltas, blocks)
        small = eigenvalues_sorted(grounded.matrix)
        big = eigenvalues_sorted(lifted.matrix)
        for lam in small:
            assert np.min(np.abs(big - lam)) < 1e-7


class TestNullSpace:
    def test_zero_matrix(self):
        assert null_space(np.zeros((3, 3))).shape == (3, 3)

    def test_invertible(self):
        assert null_space(np.diag([1.0, 2.0, 3.0])).shape == (3, 0)

    def test_orthonormal_columns(self, rng):
        m = rng.normal(size=(6, 6))
        m[:, 0] = m[:, 1]  # force rank deficiency
        basis = null_space(m @ np.diag([0.0, 1, 1, 1, 1, 1]))
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]))

    def test_intersection_of_identical_spans(self, rng):
        m = rng.normal(size=(4, 6))
        b = null_space(m)
        inter = intersect_null_spaces([b, b])
        assert inter.shape == b.shape
        assert principal_angle(inter, b) < 1e-9

    def test_principal_angle_dim_mismatch(self):
        a = np.eye(3)[:, :1]
        b = np.eye(3)[:, :2]
        assert principal_angle(a, b) == pytest.approx(np.pi / 2)


class TestLogNormAndExp:
    def test_log_norm_values(self):
        assert log_norm2(np.zeros((3, 3))) == 0.0
        assert log_norm2(-np.eye(4)) == pytest.approx(-1.0)
        assert log_norm2(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.5)

    def test_exp_of_zero_and_diagonal(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
        assert np.allclose(
            matrix_exp(np.diag([1.0, -2.0])), np.diag([np.e, np.exp(-2.0)])
        )

    def test_exp_against_ode_integration(self, rng):
        """Column-by-column RK4 on X' = MX is an independent oracle."""
        m = rng.normal(size=(4, 4))
        t, steps = 1.0, 2000
        h = t / steps
        x = np.eye(4)
        for _ in range(steps):
            k1 = m @ x
            k2 = m @ (x + 0.5 * h * k1)
            k3 = m @ (x + 0.5 * h * k2)
            k4 = m @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.allclose(matrix_exp(m, t), x, rtol=1e-7, atol=1e-7)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_exp_bounded_by_log_norm(self, seed):
        r = np.random.default_rng(seed)
        m = r.normal(size=(4, 4))
        mu = log_norm2(m)
        for t in (0.1, 1.0, 10.0):
            norm = float(np.linalg.norm(matrix_exp(m, t), 2))
            assert norm <= np.exp(t * mu) * (1 + 1e-9)


class TestQuadraticFormGap:
    def test_zero_vector(self, rng):
        g = random_all_psd_graph(rng, 4, 2)
        assert quadratic_form_gap(g, {}, {}, np.zeros(8)) == pytest.approx(0.0)

    def test_equality_on_symmetric_consensus_vector(self, rng):
        # weight-symmetric graph, delta = 0, x = 1 (x) v hits the equality case
        w1 = np.eye(2) + 0.5
        w2 = 2 * np.eye(2)
        g = SignedGraph.from_edges(
            3, 2, True,
            {(1, 2): w1, (2, 1): w1, (2, 3): w2, (3, 2): w2},
        )
        v = rng.normal(size=2)
        gap = quadratic_form_gap(g, {}, {}, np.tile(v, 3))
        assert abs(gap) < 1e-10

    def test_negative_weight_rejected(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.eye(2)})
        with pytest.raises(NotNonnegativeWeightsError):
            quadratic_form_gap(g, {}, {}, np.zeros(4))


class TestUndirectedLaplacian:
    def test_symmetric_signed_laplacian_psd(self, rng):
        g, _ = random_undirected_valid(rng, 6, 3)
        lap = signed_laplacian(g).matrix
        assert np.allclose(lap, lap.T)
        assert float(np.min(np.linalg.eigvalsh(lap))) >= -1e-9


class TestConsensusSpace:
    def test_shape_and_structure(self):
        psi = consensus_space(3, 2, 1.0, 5.0)
        assert psi.shape == (8, 2)
        assert np.allclose(psi[:2], np.eye(2))
        assert np.allclose(psi[-2:], 5.0 * np.eye(2))


class TestMinRealPart:
    def test_identity(self):
        assert min_real_part(np.eye(3)) == pytest.approx(1.0)

    def test_sorted_spectrum_deterministic(self, rng):
        m = rng.normal(size=(5, 5))
        a = eigenvalues_sorted(m)
        b = eigenvalues_sorted(m)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a.real) >= -1e-12)
