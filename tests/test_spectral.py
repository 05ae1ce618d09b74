"""Laplacian assembly, lifting, null spaces, and the matrix-exponential bound."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ntconsensus import (
    SignedGraph,
    augmented_laplacian,
    bundled_graph,
    consensus_space,
    eigenvalues_sorted,
    laplacian_blocks,
)

from ntconsensus.errors import DimensionMismatchError

from conftest import (
    edge_codes,
    edge_magnitudes,
    edge_weights,
    random_all_psd_graph,
    random_directed_valid,
    random_undirected_valid,
    tiled_graph,
)
from reference import (
    NotNonnegativeWeightsError,
    expand_system,
    grounded_block,
    log_norm2,
    null_space,
    principal_angle,
    quadratic_form_gap,
    signed_laplacian,
)

def _ungrounded(d):
    """(informed, blocks) arrays with no grounded vertex."""
    return np.zeros(0, dtype=np.intp), np.zeros((0, d, d))


def _blocks_of(values):
    """(informed, blocks) arrays from a {vertex: B_i} mapping."""
    informed = sorted(values)
    return np.array(informed), np.array([values[i] for i in informed])


class TestSignedLaplacian:
    def test_two_node_mutual_negative(self):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.eye(2)}
        )
        lap = signed_laplacian(g)
        expected = np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
        assert np.allclose(lap, expected)

    def test_single_node(self):
        g = SignedGraph.from_edges(1, 3, True, {})
        assert np.allclose(signed_laplacian(g), np.zeros((3, 3)))

    def test_benchmark_row6_diagonal_block(self, net_a):
        lap = signed_laplacian(net_a)
        expected = sum(edge_magnitudes(net_a)[(6, j)] for j in (2, 5, 7))
        assert np.allclose(lap[15:18, 15:18], expected)

    def test_all_positive_row_block_sum_zero(self, rng):
        g = random_all_psd_graph(rng, 5, 3)
        lap = signed_laplacian(g)
        v = rng.normal(size=3)
        assert np.allclose(lap @ np.tile(v, 5), 0.0, atol=1e-10)


def _edge_loop_laplacian(g):
    """Reference assembly, one edge at a time in edge order."""
    m = np.zeros((g.n * g.d, g.n * g.d))
    for (i, j), w in edge_weights(g).items():
        bi, bj = slice((i - 1) * g.d, i * g.d), slice((j - 1) * g.d, j * g.d)
        m[bi, bj] = -w
        m[bi, bi] += edge_magnitudes(g)[(i, j)]
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
            assert signed_laplacian(g).tobytes() == _edge_loop_laplacian(g).tobytes()

    @pytest.mark.parametrize("name", ["net_a", "net_b", "net_c", "net_a_weak"])
    def test_bundled_match_edge_loop_bit_for_bit(self, name):
        g = bundled_graph(name)
        assert signed_laplacian(g).tobytes() == _edge_loop_laplacian(g).tobytes()

    def test_triplet_order_ends_with_signal_column(self, net_a):
        """Edges, then the n grounded diagonal blocks, then the signal
        column -delta B_i at block column n in ascending vertex order."""
        informed, blocks = _blocks_of({2: 2 * np.eye(3), 5: np.eye(3)})
        rows, cols, data = laplacian_blocks(net_a, 1.5, informed, blocks)
        e, n = net_a.heads.size, net_a.n
        assert rows.tolist() == net_a.heads.tolist() + list(range(n)) + [1, 4]
        assert cols.tolist() == net_a.tails.tolist() + list(range(n)) + [n, n]
        assert np.array_equal(data[-2:], [-3.0 * np.eye(3), -1.5 * np.eye(3)])
        signed = signed_laplacian(net_a)
        assert np.array_equal(data[e + 4], signed[12:15, 12:15] + 1.5 * np.eye(3))
        assert np.array_equal(
            laplacian_blocks(net_a, 0.0, informed, blocks)[0], rows[: e + n]
        )

    @pytest.mark.parametrize("informed, blocks", [
        ([2], np.zeros((2, 3, 3))),   # one vertex, two blocks
        ([2], np.zeros((1, 2, 2))),   # blocks of the wrong d
        ([8], np.zeros((1, 3, 3))),   # vertex outside 1..n
        ([0], np.zeros((1, 3, 3))),
    ])
    def test_shape_mismatch_rejected(self, net_a, informed, blocks):
        with pytest.raises(DimensionMismatchError, match="one 3 x 3 block each"):
            laplacian_blocks(net_a, 1.0, np.array(informed), blocks)


class TestGroundedLaplacian:
    def test_zero_deltas_is_identity(self, net_a):
        lap = signed_laplacian(net_a)
        grounded = grounded_block(net_a, 0.0, *_blocks_of({1: np.eye(3)}))
        assert np.allclose(grounded, lap)

    def test_single_node_grounding(self):
        g = SignedGraph.from_edges(1, 3, True, {})
        grounded = grounded_block(g, 2.0, *_blocks_of({1: np.eye(3)}))
        assert np.allclose(grounded, 2 * np.eye(3))


class TestAugmentedLaplacian:
    def test_bottom_rows_zero(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.eye(2)})
        aug = augmented_laplacian(g, 1.0, *_blocks_of({1: np.eye(2)}))
        assert np.allclose(aug.matrix[-2:, :], 0.0)

    def test_zero_delta_block_form(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.eye(2)})
        aug = augmented_laplacian(g, 0.0, *_ungrounded(2))
        assert np.allclose(aug.matrix[:4, 4:], 0.0)
        assert np.allclose(aug.matrix[:4, :4], _edge_loop_laplacian(g))


class TestExpandSystem:
    def test_positive_edge_duplicated(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): np.eye(2)})
        expanded, _ = expand_system(g, 0.0, *_ungrounded(2))
        assert np.allclose(edge_weights(expanded)[(1, 2)], np.eye(2))
        assert np.allclose(edge_weights(expanded)[(3, 4)], np.eye(2))
        assert (1, 4) not in edge_weights(expanded)

    def test_negative_edge_rerouted(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -2 * np.eye(2)})
        expanded, _ = expand_system(g, 0.0, *_ungrounded(2))
        assert (1, 2) not in edge_weights(expanded)
        assert np.allclose(edge_weights(expanded)[(1, 4)], 2 * np.eye(2))
        assert np.allclose(edge_weights(expanded)[(3, 2)], 2 * np.eye(2))

    def test_expanded_weights_all_nonnegative(self, net_a):
        expanded, _ = expand_system(net_a, 0.0, *_ungrounded(3))
        assert all(code > 0 for code in edge_codes(expanded).values())

    def test_spectrum_contains_original(self, net_a):
        """The lifted spectrum contains the original grounded spectrum."""
        blocks = _blocks_of({1: np.eye(3), 2: np.eye(3)})
        grounded = grounded_block(net_a, 2.0, *blocks)
        _, lifted = expand_system(net_a, 2.0, *blocks)
        small = eigenvalues_sorted(grounded)
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
        assert np.allclose(scipy.linalg.expm(np.zeros((3, 3))), np.eye(3))
        assert np.allclose(
            scipy.linalg.expm(np.diag([1.0, -2.0])), np.diag([np.e, np.exp(-2.0)])
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
        assert np.allclose(scipy.linalg.expm(t * m), x, rtol=1e-7, atol=1e-7)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_exp_bounded_by_log_norm(self, seed):
        r = np.random.default_rng(seed)
        m = r.normal(size=(4, 4))
        mu = log_norm2(m)
        for t in (0.1, 1.0, 10.0):
            norm = float(np.linalg.norm(scipy.linalg.expm(t * m), 2))
            assert norm <= np.exp(t * mu) * (1 + 1e-9)


class TestQuadraticFormGap:
    def test_zero_vector(self, rng):
        g = random_all_psd_graph(rng, 4, 2)
        assert quadratic_form_gap(g, np.zeros(8)) == pytest.approx(0.0)

    def test_equality_on_symmetric_consensus_vector(self, rng):
        # weight-symmetric graph, delta = 0, x = 1 (x) v hits the equality case
        w1 = np.eye(2) + 0.5
        w2 = 2 * np.eye(2)
        g = SignedGraph.from_edges(
            3, 2, True,
            {(1, 2): w1, (2, 1): w1, (2, 3): w2, (3, 2): w2},
        )
        v = rng.normal(size=2)
        gap = quadratic_form_gap(g, np.tile(v, 3))
        assert abs(gap) < 1e-10

    def test_negative_weight_rejected(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.eye(2)})
        with pytest.raises(NotNonnegativeWeightsError):
            quadratic_form_gap(g, np.zeros(4))


class TestUndirectedLaplacian:
    def test_symmetric_signed_laplacian_psd(self, rng):
        g, _ = random_undirected_valid(rng, 6, 3)
        lap = signed_laplacian(g)
        assert np.allclose(lap, lap.T)
        assert float(np.min(np.linalg.eigvalsh(lap))) >= -1e-9


class TestConsensusSpace:
    def test_shape_and_structure(self):
        psi = consensus_space(3, 2, 1.0, 5.0)
        assert psi.shape == (8, 2)
        assert np.allclose(psi[:2], np.eye(2))
        assert np.allclose(psi[-2:], 5.0 * np.eye(2))

    @pytest.mark.parametrize("n, d, xi, xi0", [
        (7, 3, 1.0, 1.2837), (0, 2, 2.0, 3.0), (4, 1, -1.5, -0.0), (3, 3, 2, 5),
    ])
    def test_bytes_of_the_tiled_identity(self, n, d, xi, xi0):
        # the signs of the zeros too: xi * 0.0 is -0.0 for a negative xi
        want = np.vstack([xi * np.tile(np.eye(d), (n, 1)), xi0 * np.eye(d)])
        got = consensus_space(n, d, xi, xi0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestMinRealPart:
    def test_identity(self):
        assert eigenvalues_sorted(np.eye(3))[0].real == pytest.approx(1.0)

    def test_sorted_spectrum_deterministic(self, rng):
        m = rng.normal(size=(5, 5))
        a = eigenvalues_sorted(m)
        b = eigenvalues_sorted(m)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a.real) >= -1e-12)
