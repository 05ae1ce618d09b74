"""Coupling bounds, design synthesis, and the switching design machinery."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix, issparse

from ntconsensus import (
    ClosedLoop,
    Decomposition,
    SignedGraph,
    bundled_decomposition,
    bundled_graph,
    classify_weight,
    closed_loop,
    contraction_factor,
    coupling_bound,
    design_fixed,
    design_laplacians,
    design_switching,
    necessary_condition_check,
    signed_laplacian,
    verify_design,
)
from ntconsensus.errors import (
    AssumptionViolatedError,
    DegenerateCouplingError,
    NonFiniteError,
    NotContractingError,
    SingularCouplingError,
    ZeroThetaError,
)
from ntconsensus.networks import BUNDLED_V1, SWITCHING_DELTAS
from ntconsensus.protocol import STACK_BYTES

from conftest import (
    random_directed_valid,
    random_spd,
    random_undirected_valid,
    rk4_reference_step,
)

THETA = np.array([1.0, 2.0, -1.0])


class TestCouplingBound:
    def test_two_node_negative_edge(self):
        # v1 has no out-edges, so its bound is negative: any delta > 0 works
        g = SignedGraph.from_edges(2, 3, True, {(1, 2): -np.eye(3)})
        dec = Decomposition.of(g, [1, 2])
        per, c = coupling_bound(
            g, dec, {1: classify_weight(np.eye(3)), 2: classify_weight(np.eye(3))}
        )
        assert per[1] == pytest.approx(-0.5)
        assert per[2] == pytest.approx(0.5)
        assert c == pytest.approx(0.5)

    def test_benchmark_bound(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        per, c = coupling_bound(net_a, net_a_dec, design.blocks)
        assert c == pytest.approx(6.9495, abs=1e-3)
        assert per[2] == pytest.approx(c)

    def test_matches_unsymmetric_eigensolver(self, rng):
        """Cholesky reduction against a direct eigensolve of |B|^-1 M."""
        for _ in range(20):
            g, dec = random_directed_valid(rng, 3, 2)
            b = random_spd(rng, 2)
            per, _ = coupling_bound(g, dec, {1: classify_weight(b)})
            m = np.zeros((2, 2))
            for (a, src), w in g.weights.items():
                if src == 1:
                    m += w.magnitude
                if a == 1:
                    m -= w.magnitude
            direct = 0.5 * float(np.max(np.linalg.eigvals(np.linalg.inv(b) @ m)).real)
            assert per[1] == pytest.approx(direct, abs=1e-9)

    def test_singular_block_rejected(self):
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.eye(2)})
        dec = Decomposition.of(g, [1])
        with pytest.raises(SingularCouplingError):
            coupling_bound(g, dec, {1: classify_weight(np.diag([1.0, 0.0]))})

    def test_assumption_gate(self, net_a_weak, net_a_dec):
        with pytest.raises(AssumptionViolatedError):
            coupling_bound(
                net_a_weak, net_a_dec, {i: classify_weight(np.eye(3)) for i in range(1, 5)}
            )

    def test_scaling_invariance(self, rng):
        g, dec = random_directed_valid(rng, 4, 2)
        scaled = SignedGraph.from_edges(
            4, 2, True, {k: 3.7 * w.entries for k, w in g.weights.items()}
        )
        d1 = design_fixed(g, dec, np.ones(2))
        d2 = design_fixed(scaled, dec, np.ones(2))
        assert d1.bound_c == pytest.approx(d2.bound_c, abs=1e-9)


class TestDesignFixed:
    def test_benchmark_reproduction(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA, margin=0.1)
        assert design.delta == pytest.approx(7.0495, abs=1e-3)
        assert design.informed == frozenset({1, 2, 3, 4, 6})
        assert np.allclose(design.x0, [1.2837, 2.5674, -1.2837], atol=1e-4)
        assert design.k1 == pytest.approx(1 + 2 / design.delta)

    def test_block_formula(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        expected_b4 = (
            net_a.weights[(4, 3)].magnitude + net_a.weights[(4, 7)].magnitude
        )
        assert np.allclose(design.blocks[4].entries, expected_b4)
        assert np.allclose(design.blocks[6].entries, net_a.weights[(6, 2)].magnitude)

    def test_zero_theta_rejected(self, net_a, net_a_dec):
        with pytest.raises(ZeroThetaError):
            design_fixed(net_a, net_a_dec, np.zeros(3))

    @pytest.mark.parametrize("theta, margin, delta", [
        ((np.nan, 1.0, 1.0), 0.1, None),
        ((1.0, np.inf, 1.0), 0.1, None),
        ((1.0, 2.0, -1.0), np.nan, None),
        ((1.0, 2.0, -1.0), 0.1, np.nan),
        ((1.0, 2.0, -1.0), 0.1, np.inf),
    ])
    def test_non_finite_input_rejected(self, net_a, net_a_dec, theta, margin, delta):
        with pytest.raises(NonFiniteError):
            design_fixed(net_a, net_a_dec, np.array(theta), margin=margin, delta=delta)

    def test_assumption_gate_without_explicit_delta(self, net_a_weak, net_a_dec):
        with pytest.raises(AssumptionViolatedError):
            design_fixed(net_a_weak, net_a_dec, THETA)

    def test_explicit_delta_bypasses_gate(self, net_a_weak, net_a_dec):
        design = design_fixed(net_a_weak, net_a_dec, THETA, delta=7.0495)
        assert design.delta == pytest.approx(7.0495)

    def test_degenerate_block_rejected(self):
        # V1 vertex whose only negative in-weight is semi-definite
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.diag([1.0, 0.0]), (2, 1): np.eye(2)}
        )
        with pytest.raises(DegenerateCouplingError):
            design_fixed(g, Decomposition.of(g, [1]), np.ones(2))

    def test_equilibrium_identity(self, rng):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.eye(2)}
        )
        design = design_fixed(g, Decomposition.of(g, [1]), np.array([1.0, 0.0]), delta=2.0)
        grounded, _ = design_laplacians(g, design)
        theta_stack = np.tile(design.theta, 2)
        forcing = np.zeros(4)
        for i in design.informed:
            forcing[(i - 1) * 2 : i * 2] = design.delta * (
                design.blocks[i].entries @ design.x0
            )
        assert np.allclose(-grounded.matrix @ theta_stack + forcing, 0.0, atol=1e-12)

    def test_deterministic(self, net_a, net_a_dec):
        a = design_fixed(net_a, net_a_dec, THETA)
        b = design_fixed(net_a, net_a_dec, THETA)
        assert a.delta == b.delta and np.array_equal(a.x0, b.x0)

    def test_undirected_any_margin(self, rng):
        g, dec = random_undirected_valid(rng, 5, 2)
        design = design_fixed(g, dec, np.ones(2), margin=0.05)
        assert design.delta == pytest.approx(0.05)
        assert design.bound_c == 0.0
        assert verify_design(g, design).spec_ok


class TestVerifyDesign:
    def test_benchmark_report(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        report = verify_design(net_a, design)
        assert report.spec_ok and report.null_ok
        assert report.min_real_part == pytest.approx(0.9334, abs=1e-3)
        assert report.equilibrium_residual < 1e-9
        assert report.spectral.null_dim == 3

    def test_weak_variant_loses_spectral_gap(self, net_a_weak, net_a_dec):
        design = design_fixed(net_a_weak, net_a_dec, THETA, delta=7.0495)
        report = verify_design(net_a_weak, design)
        assert not report.spec_ok
        assert abs(report.min_real_part) < 1e-6

    def test_equilibrium_exists_even_without_gap(self, net_a_weak, net_a_dec):
        design = design_fixed(net_a_weak, net_a_dec, THETA, delta=7.0495)
        report = verify_design(net_a_weak, design)
        assert report.equilibrium_residual < 1e-9

    def test_spectral_report_serialization(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        payload = verify_design(net_a, design).spectral.to_dict()
        assert set(payload) == {"minRealPart", "nullDim", "psiMatch", "eigenvalues"}
        assert len(payload["eigenvalues"]) == 21
        assert all(len(z) == 2 for z in payload["eigenvalues"])


class TestDesignSwitching:
    def _designs(self, net_a, net_b, net_c):
        graphs = {0: net_a, 1: net_b, 2: net_c}
        decs = {
            0: Decomposition.of(net_a, BUNDLED_V1["net_a"]),
            1: Decomposition.of(net_b, BUNDLED_V1["net_b"]),
            2: Decomposition.of(net_c, BUNDLED_V1["net_c"]),
        }
        deltas = {
            0: SWITCHING_DELTAS["net_a"],
            1: SWITCHING_DELTAS["net_b"],
            2: SWITCHING_DELTAS["net_c"],
        }
        return design_switching(graphs, decs, THETA, alpha=0.02, deltas=deltas)

    def test_benchmark_switching_designs(self, net_a, net_b, net_c):
        sdesign = self._designs(net_a, net_b, net_c)
        assert sdesign.designs[0].delta == pytest.approx(7.0495)
        assert sdesign.designs[1].delta == pytest.approx(7.2440)
        assert sdesign.designs[2].delta == pytest.approx(3.1000)
        assert np.allclose(sdesign.designs[1].x0, [1.2761, 2.5522, -1.2761], atol=1e-4)
        assert np.allclose(sdesign.designs[2].x0, [1.6452, 3.2903, -1.6452], atol=1e-4)

    def test_single_graph_reduces_to_fixed(self, net_a, net_a_dec):
        sdesign = design_switching({0: net_a}, {0: net_a_dec}, THETA, alpha=0.02)
        fixed = design_fixed(net_a, net_a_dec, THETA)
        assert sdesign.designs[0].delta == pytest.approx(fixed.delta)

    def test_failing_graph_named_in_error(self, net_a, net_a_weak, net_a_dec):
        with pytest.raises(AssumptionViolatedError, match="graph 1"):
            design_switching(
                {0: net_a, 1: net_a_weak},
                {0: net_a_dec, 1: net_a_dec},
                THETA,
                alpha=0.02,
            )


class TestContractionFactor:
    def test_analytic_exponent(self, net_a, net_a_dec):
        sdesign = design_switching({0: net_a}, {0: net_a_dec}, THETA, alpha=1.0)
        report = contraction_factor(sdesign, {0: net_a})
        lmin = report.per_graph_lmin[0]
        assert report.factor == pytest.approx(np.exp(-2.0 * lmin))

    def test_benchmark_factor_in_unit_interval(self, net_a, net_b, net_c):
        sdesign = TestDesignSwitching()._designs(net_a, net_b, net_c)
        report = contraction_factor(sdesign, {0: net_a, 1: net_b, 2: net_c})
        assert 0.0 < report.factor < 1.0

    def test_monotone_in_alpha(self, net_a, net_a_dec):
        factors = []
        for alpha in (0.01, 0.05, 0.5):
            sdesign = design_switching({0: net_a}, {0: net_a_dec}, THETA, alpha=alpha)
            factors.append(contraction_factor(sdesign, {0: net_a}).factor)
        assert factors[0] > factors[1] > factors[2]

    def test_not_contracting_reported(self, net_a_weak, net_a_dec):
        from ntconsensus import SwitchingDesign

        design = design_fixed(net_a_weak, net_a_dec, THETA, delta=7.0495)
        sdesign = SwitchingDesign(designs={0: design}, alpha=0.02)
        with pytest.raises(NotContractingError):
            contraction_factor(sdesign, {0: net_a_weak})


class TestNecessaryCondition:
    def test_shared_design_direction_accepted(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        _, aug = design_laplacians(net_a, design)
        from ntconsensus import consensus_space

        z = consensus_space(net_a.n, net_a.d, 1.0, design.k1) @ THETA
        assert necessary_condition_check(z, [aug.matrix])

    def test_random_vector_rejected(self, net_a, net_a_dec, rng):
        design = design_fixed(net_a, net_a_dec, THETA)
        _, aug = design_laplacians(net_a, design)
        assert not necessary_condition_check(rng.normal(size=24), [aug.matrix])

    def test_intersection_across_switching_designs(self, net_a, net_b, net_c):
        sdesign = TestDesignSwitching()._designs(net_a, net_b, net_c)
        mats = [
            design_laplacians(g, sdesign.designs[gid])[1].matrix
            for gid, g in {0: net_a, 1: net_b, 2: net_c}.items()
        ]
        from ntconsensus import consensus_space

        # k1 differs per graph, so no common augmented direction survives
        z = consensus_space(7, 3, 1.0, sdesign.designs[0].k1) @ THETA
        assert not necessary_condition_check(z, mats)


def _designed(name, tiled):
    """A design on a bundled network (its bundled V1, the switching run's
    coefficient, or net_a's for net_a_weak) or on the tiled network."""
    if name == "tiled":
        g, dec = tiled
        return g, design_fixed(g, dec, THETA)
    g = bundled_graph(name)
    delta = SWITCHING_DELTAS.get(name, SWITCHING_DELTAS["net_a"])
    return g, design_fixed(g, bundled_decomposition(name), THETA, delta=delta)


class TestClosedLoop:
    @pytest.mark.parametrize("name", ["net_a", "net_b", "net_c", "net_a_weak", "tiled"])
    def test_operator_matches_dense_laplacians(self, name, tiled):
        g, design = _designed(name, tiled)
        grounded, augmented = design_laplacians(g, design)
        loop = closed_loop(g, design)
        # exact equality; toarray() turns a stored -0.0 into +0.0, so not tobytes()
        assert np.array_equal(loop.laplacian.toarray(), grounded.matrix)
        nd = g.n * g.d
        forcing = -augmented.matrix[:nd, nd:] @ design.x0
        assert np.allclose(loop.forcing, forcing, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name, h, dense", [("net_a", 1e-2, True), ("tiled", 5e-2, False)])
    def test_step_map_is_the_rk4_step(self, name, h, dense, tiled, rng):
        g, design = _designed(name, tiled)
        loop = closed_loop(g, design)
        p, q = loop.step_map(h)
        assert isinstance(p, np.ndarray) == dense
        assert loop.step_map(h) is loop.step_map(h)
        lap = design_laplacians(g, design)[0].matrix
        for _ in range(3):
            x = rng.uniform(-5.0, 5.0, g.n * g.d)
            want = rk4_reference_step(lap, loop.forcing, x, h)
            assert np.linalg.norm(p @ x + q - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("name, h", [("net_a", 1e-2), ("tiled", 5e-2)])
    def test_step_block_stacks_powers(self, name, h, tiled):
        g, design = _designed(name, tiled)
        loop = closed_loop(g, design)
        p, q = loop.step_map(h)
        nd = g.n * g.d
        # a dense P is stacked up to the byte budget; a CSR P is not stacked
        cap = STACK_BYTES // (nd * nd * 8) if isinstance(p, np.ndarray) else 1
        assert name == "tiled" or 5 < cap < 1000
        for steps in (5, 1000):
            stack, offsets = loop.step_block(h, steps)
            m = min(steps, cap)
            assert offsets.shape == (m, nd) and stack.shape == (m * nd, nd)
            power, offset = np.eye(nd), np.zeros(nd)
            for k in range(m):
                power, offset = p @ power, p @ offset + q
                row = stack[k * nd : (k + 1) * nd]
                assert np.linalg.norm(row - power) <= 1e-13 * np.linalg.norm(power)
                assert np.linalg.norm(offsets[k] - offset) <= 1e-13 * np.linalg.norm(offset)
        # built once per (h, m): 1000 and 2000 steps share the capped stack
        assert loop.step_block(h, 5) is loop.step_block(h, 5)
        assert loop.step_block(h, 1000) is loop.step_block(h, 2000)
        if name == "tiled":
            assert loop.step_block(h, 1000)[0] is p

    def test_sparse_operator_keeps_a_sparse_step_map(self, rng):
        # a directed path: L is under a quarter full, P = R(-hL) is not;
        # the storage follows L
        n = 10
        g = SignedGraph.from_edges(
            n, 2, True, {(v + 1, v): random_spd(rng, 2) for v in range(1, n)}
        )
        lap = csr_matrix(signed_laplacian(g).matrix + np.eye(2 * n))
        loop = ClosedLoop(laplacian=lap, forcing=rng.normal(size=2 * n))
        assert 4 * lap.nnz < (2 * n) ** 2
        p, q = loop.rk4_map(0.1)
        assert issparse(p) and 4 * p.nnz > (2 * n) ** 2
        x = rng.normal(size=2 * n)
        want = rk4_reference_step(lap.toarray(), loop.forcing, x, 0.1)
        assert np.linalg.norm(p @ x + q - want) <= 1e-13 * np.linalg.norm(want)
