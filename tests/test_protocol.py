"""Coupling bounds, design synthesis, and the switching design machinery."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import eigh, solve_triangular
from scipy.sparse import coo_matrix, csr_matrix, issparse

from ntconsensus import (
    ClosedLoop,
    Decomposition,
    ProtocolDesign,
    SignedGraph,
    SwitchingDesign,
    bundled_decomposition,
    bundled_graph,
    closed_loop,
    consensus_space,
    contraction_factor,
    design_fixed,
    design_laplacians,
    design_switching,
    integrate_fixed,
    necessary_condition_check,
    suggest_decomposition,
    verify_assumption,
    verify_design,
)
from ntconsensus.errors import (
    AssumptionViolatedError,
    DegenerateCouplingError,
    DimensionMismatchError,
    NonFiniteError,
    NotContractingError,
    ZeroThetaError,
)
from ntconsensus.networks import BUNDLED_V1, SWITCHING_DELTAS
from ntconsensus.graph import classify_stack
from ntconsensus import protocol, simulate
from ntconsensus.simulate import STACK_BYTES, _cut, _full_step
from ntconsensus.spectral import laplacian_blocks

from conftest import (
    edge_codes,
    edge_magnitudes,
    edge_weights,
    random_directed_valid,
    random_spd,
    random_undirected_valid,
    rk4_reference_step,
    tiled_graph,
)
from reference import (
    affine_loop, grounded_block, necessary_condition_svd, null_space, principal_angle,
    signed_laplacian, top_row_step_map,
)
from test_graph import _random_signed_digraph

THETA = np.array([1.0, 2.0, -1.0])


class TestCouplingBound:
    def test_two_node_negative_edge(self):
        # v1 has no out-edges, so its bound is negative: any delta > 0 works
        g = SignedGraph.from_edges(2, 3, True, {(1, 2): -np.eye(3)})
        per, c = protocol._bound(g.in_out_gaps, [1, 2], np.array([np.eye(3), np.eye(3)]))
        assert per[1] == pytest.approx(-0.5)
        assert per[2] == pytest.approx(0.5)
        assert c == pytest.approx(0.5)

    def test_benchmark_bound(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        assert design.bound_c == pytest.approx(6.9495, abs=1e-3)
        assert design.per_vertex_c[2] == pytest.approx(design.bound_c)

    def test_matches_unsymmetric_eigensolver(self, rng):
        """The reduction by |B|'s eigendecomposition against a direct
        eigensolve of |B|^-1 M; and, on |B| of condition number 10 to 1e6,
        against SciPy's generalized eigh(M, |B|), within 10 eps cond(|B|)
        relative to max(1, |C_i|) (seen: at most 1.5 eps cond(|B|))."""
        for _ in range(20):
            g, _ = random_directed_valid(rng, 3, 2)
            b = random_spd(rng, 2)
            per, _ = protocol._bound(g.in_out_gaps, [1], b[None])
            m = np.zeros((2, 2))
            for (a, src), w in edge_magnitudes(g).items():
                if src == 1:
                    m += w
                if a == 1:
                    m -= w
            direct = 0.5 * float(np.max(np.linalg.eigvals(np.linalg.inv(b) @ m)).real)
            assert per[1] == pytest.approx(direct, abs=1e-9)
        for cond in np.repeat([1e1, 1e3, 1e6], 20):
            g, _ = random_directed_valid(rng, 4, 3)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            b = (q * np.geomspace(1.0, 1.0 / cond, 3)) @ q.T
            b = (b + b.T) / 2.0
            gaps = g.in_out_gaps
            per, _ = protocol._bound(gaps, [1], b[None])
            reference = 0.5 * eigh(0.0 - gaps[0], b, eigvals_only=True)[-1]
            bound = 10.0 * np.finfo(float).eps * np.linalg.cond(b)
            assert abs(per[1] - reference) <= bound * max(1.0, abs(reference))

    def test_nan_gap_makes_c_nan(self):
        gaps = np.array([np.eye(2), np.full((2, 2), np.nan)])
        per, c = protocol._bound(gaps, [1, 2], np.array([np.eye(2), np.eye(2)]))
        assert per[1] == pytest.approx(-0.5)
        assert np.isnan(per[2]) and np.isnan(c)

    def test_singular_block_rejected(self):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.diag([1.0, 0.0]), (2, 1): -np.eye(2)}
        )
        with pytest.raises(DegenerateCouplingError):
            design_fixed(g, Decomposition.of(g, [1]), np.ones(2))

    def test_first_singular_v1_vertex_named(self):
        # B_1 is singular and vertex 2 has no block; B_2 alone is singular
        g = SignedGraph.from_edges(2, 2, True, {(1, 2): -np.diag([1.0, 0.0])})
        with pytest.raises(DegenerateCouplingError, match="V1 vertex 1 lacks"):
            design_fixed(g, Decomposition.of(g, [1, 2]), np.ones(2), delta=1.0)
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.diag([1.0, 0.0])}
        )
        with pytest.raises(DegenerateCouplingError, match="V1 vertex 2 lacks"):
            design_fixed(g, Decomposition.of(g, [1, 2]), np.ones(2), delta=1.0)

    def test_assumption_gate(self, net_a_weak, net_a_dec):
        with pytest.raises(AssumptionViolatedError, match=r"vertices \[5, 6, 7\]"):
            design_fixed(net_a_weak, net_a_dec, THETA)

    def test_scaling_invariance(self, rng):
        g, dec = random_directed_valid(rng, 4, 2)
        scaled = SignedGraph.from_edges(
            4, 2, True, {k: 3.7 * w for k, w in edge_weights(g).items()}
        )
        d1 = design_fixed(g, dec, np.ones(2))
        d2 = design_fixed(scaled, dec, np.ones(2))
        assert d1.bound_c == pytest.approx(d2.bound_c, abs=1e-9)


class TestDesignFixed:
    def test_benchmark_reproduction(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA, margin=0.1)
        assert design.delta == pytest.approx(7.0495, abs=1e-3)
        assert design.informed.tolist() == [1, 2, 3, 4, 6]
        assert np.allclose(design.x0, [1.2837, 2.5674, -1.2837], atol=1e-4)
        assert design.k1 == pytest.approx(1 + 2 / design.delta)

    def test_block_formula(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        magnitudes = edge_magnitudes(net_a)
        blocks = dict(zip(design.informed.tolist(), design.blocks))
        assert np.allclose(blocks[4], magnitudes[(4, 3)] + magnitudes[(4, 7)])
        assert np.allclose(blocks[6], magnitudes[(6, 2)])

    def test_zero_theta_rejected(self, net_a, net_a_dec):
        with pytest.raises(ZeroThetaError):
            design_fixed(net_a, net_a_dec, np.zeros(3))

    @pytest.mark.parametrize("theta", [(1.0, 2.0), (1.0, 2.0, -1.0, 4.0)])
    def test_theta_of_wrong_length_rejected(self, net_a, net_a_dec, theta):
        with pytest.raises(DimensionMismatchError, match="graph has d=3"):
            design_fixed(net_a, net_a_dec, np.array(theta))

    @pytest.mark.parametrize("theta, margin, delta", [
        ((np.nan, 1.0, 1.0), 0.1, None),
        ((1.0, np.inf, 1.0), 0.1, None),
        ((1.0, 2.0, -1.0), np.nan, None),
        ((1.0, 2.0, -1.0), 0.1, np.nan),
        ((1.0, 2.0, -1.0), 0.1, np.inf),
        ((1.0, 2.0, -1.0), np.inf, None),
    ])
    def test_non_finite_input_rejected(self, net_a, net_a_dec, theta, margin, delta):
        with pytest.raises(NonFiniteError):
            design_fixed(net_a, net_a_dec, np.array(theta), margin=margin, delta=delta)

    @pytest.mark.parametrize("margin, delta", [(-0.5, None), (0.0, None), (-0.5, 7.0495)])
    def test_non_positive_margin_rejected(self, net_a, net_a_dec, margin, delta):
        # C + margin with margin <= 0 would leave delta <= C
        with pytest.raises(DegenerateCouplingError, match="margin must be positive"):
            design_fixed(net_a, net_a_dec, THETA, margin=margin, delta=delta)

    def test_theta_is_a_read_only_copy(self, net_a, net_a_dec, rng):
        """A design keeps its own copy of theta: writing to the caller's
        float64 array afterwards changes neither the design's theta, x0 and
        dict nor a later run's theta, and the copy cannot be written."""
        th = THETA.copy()
        design = design_fixed(net_a, net_a_dec, th)
        x0, payload = design.x0.copy(), design.to_dict()
        th[0] = 99.0
        assert design.theta.tolist() == THETA.tolist()
        assert design.x0.tobytes() == x0.tobytes()
        assert design.to_dict() == payload
        run = integrate_fixed(net_a, design, rng.uniform(-5, 5, 21), h=1e-3, horizon=0.01)
        assert run.theta.tolist() == THETA.tolist()
        assert not design.theta.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            design.theta[0] = 99.0

    @pytest.mark.parametrize("build", ["replace", "direct"])
    def test_a_given_theta_becomes_a_read_only_copy(self, net_a, net_a_dec, build):
        """A design made by ``dataclasses.replace`` or built directly gets
        a read-only float copy of a writable or integer theta, so writing to
        the caller's array afterwards leaves its theta and x0 alone; a
        read-only float theta is kept as it is."""
        design = design_fixed(net_a, net_a_dec, THETA)
        for given in (THETA.copy(), np.array([1, 2, -1])):
            if build == "replace":
                made = dataclasses.replace(design, theta=given)
            else:
                made = ProtocolDesign(given, design.delta, design.informed, design.blocks,
                                      design.bound_c, dict(design.per_vertex_c))
            x0 = made.x0.copy()
            given[0] = 99
            assert made.theta.tolist() == THETA.tolist() and made.theta.dtype == float
            assert made.x0.tobytes() == x0.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                made.theta[0] = 99.0
        assert dataclasses.replace(design, delta=3.0).theta is design.theta

    @pytest.mark.parametrize("count, message", [
        (2, "weight overflows when symmetrized"),
        (3, "weight has NaN or infinite entries"),
    ])
    def test_overflowing_block_sum_rejected(self, count, message):
        """Each -8e307 I in-edge is a finite weight, but the magnitudes of
        two sum to 1.6e308, which overflows when symmetrized, and those of
        three to inf (in the gap and the block sum, with NumPy's overflow
        warning, ignored here).  The explicit delta waives the assumption
        check, so the block sums are classified and the first error is
        raised."""
        edges = {(1, j): -8e307 * np.eye(2) for j in range(2, 2 + count)}
        g = SignedGraph.from_edges(1 + count, 2, True, edges)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=f"^{message}$"):
            design_fixed(g, Decomposition.of(g, [1]), np.ones(2), delta=1.0)

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

    def test_first_degenerate_v1_vertex_named(self):
        g = SignedGraph.from_edges(3, 2, True, {(3, 1): np.eye(2), (3, 2): np.eye(2)})
        with pytest.raises(DegenerateCouplingError, match="V1 vertex 1 lacks"):
            design_fixed(g, Decomposition.of(g, [1, 2]), np.ones(2))

    def test_equilibrium_identity(self, rng):
        g = SignedGraph.from_edges(
            2, 2, True, {(1, 2): -np.eye(2), (2, 1): -np.eye(2)}
        )
        design = design_fixed(g, Decomposition.of(g, [1]), np.array([1.0, 0.0]), delta=2.0)
        grounded, _ = design_laplacians(g, design)
        theta_stack = np.tile(design.theta, 2)
        forcing = np.zeros(4)
        for i, b in zip(design.informed.tolist(), design.blocks):
            forcing[(i - 1) * 2 : i * 2] = design.delta * (b @ design.x0)
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


def _per_vertex_design(g, v1):
    """The blocks and bounds the way the design computed them one vertex at
    a time: the gaps summed edge by edge, each B_i summed over a set of
    negative in-neighbours (set iteration order) and classified alone (as
    positive, since it is a sum of magnitudes), and each C_i by its own
    Cholesky reduction."""
    weights, codes = edge_magnitudes(g), edge_codes(g)
    gaps = {v: np.zeros((g.d, g.d)) for v in g.vertices}
    negative_in = {v: set() for v in g.vertices}
    for (i, j), w in weights.items():
        gaps[i] += w
        gaps[j] -= w
        if codes[(i, j)] < 0:
            negative_in[i].add(j)
    blocks = {}
    for i in sorted(v for v in g.vertices if negative_in[v]):
        total = np.zeros((g.d, g.d))
        for j in negative_in[i]:
            total += weights[(i, j)]
        sym, code, errors = classify_stack(total[None])
        assert not errors and code[0] > 0
        blocks[i] = sym[0]
    per_vertex = {}
    for i in sorted(v1):
        r = np.linalg.cholesky(blocks[i])
        m = 0.0 - gaps[i]
        reduced = solve_triangular(r, solve_triangular(r, m.T, lower=True).T, lower=True)
        per_vertex[i] = 0.5 * float(np.max(np.linalg.eigvalsh((reduced + reduced.T) / 2.0)))
    return blocks, per_vertex, negative_in


def _designs_by_both_routes(g, dec, delta=None):
    design = design_fixed(g, dec, np.ones(g.d), delta=delta)
    blocks, per_vertex, negative_in = _per_vertex_design(g, dec.v1)
    assert design.informed.tolist() == sorted(blocks)
    stacked = dict(zip(design.informed.tolist(), design.blocks))
    return design, stacked, blocks, per_vertex, max(len(s) for s in negative_in.values())


class TestStackedDesign:
    """The stacked design against the per-vertex loop it replaced."""

    def _networks(self, tiled):
        rng = np.random.default_rng(8)
        nets = [bundled_decomposition(name) for name in BUNDLED_V1]
        nets = [(bundled_graph(name), dec) for name, dec in zip(BUNDLED_V1, nets)]
        nets += [tiled, tiled_graph(rng, 30)]
        nets += [random_directed_valid(rng, int(rng.integers(3, 12)), 3) for _ in range(30)]
        return nets

    def test_bit_identical_on_bundled_tree_and_tiled_networks(self, tiled):
        """Every vertex of these networks has at most two negative
        in-neighbours, so edge order and set order add the same terms in an
        order that rounds alike: blocks and classes agree bit for bit.  C_i
        comes from B_i's eigendecomposition here and from its Cholesky
        factor in the reference, so C_i and delta agree within 1e-14
        relative to max(1, |C_i|), and C is exactly the largest C_i.
        net_a_weak and net_c fail the assumption check at their bundled V1,
        so they get an explicit delta."""
        for g, dec in self._networks(tiled):
            delta = None if verify_assumption(g, dec).ok else 5.0
            design, stacked, blocks, per_vertex, most = _designs_by_both_routes(g, dec, delta)
            assert most <= 2
            for i, b in blocks.items():
                assert stacked[i].tobytes() == b.tobytes()
            assert design.per_vertex_c.keys() == per_vertex.keys()
            for i, c in per_vertex.items():
                assert abs(design.per_vertex_c[i] - c) <= 1e-14 * max(1.0, abs(c))
            assert design.bound_c == max(design.per_vertex_c.values())
            reference = delta or max(per_vertex.values()) + 0.1
            assert abs(design.delta - reference) <= 1e-14 * max(1.0, abs(reference))

    def test_edge_order_within_tolerance_on_random_digraphs(self):
        """With three or more negative in-neighbours the summation order
        shows: blocks agree to 1e-15 of their largest entry, and C_i to 1e-12
        relative to max(1, |C_i|) on V1 vertices whose |B_i| has condition
        number below 1e4 (seen: 3.1e-16 and 3.7e-16, with 61 of 1240 blocks
        not bit-identical).  V1 is the informed vertices with such blocks, and
        delta is given, so the assumption check does not gate the bound."""
        rng = np.random.default_rng(300)
        differing = compared = 0
        for _ in range(300):
            n, d = int(rng.integers(3, 9)), int(rng.integers(2, 4))
            g, _, _ = _random_signed_digraph(rng, n, d, p_definite=0.8, p_negative=0.7)
            blocks, _, _ = _per_vertex_design(g, [])
            v1 = [i for i, b in blocks.items() if np.linalg.cond(b) < 1e4]
            if not v1:
                continue
            design, stacked, blocks, per_vertex, _ = _designs_by_both_routes(
                g, Decomposition.of(g, v1), delta=1.0
            )
            for i, b in blocks.items():
                scale = np.max(np.abs(b))
                assert np.max(np.abs(stacked[i] - b)) <= 1e-15 * scale
                differing += stacked[i].tobytes() != b.tobytes()
                compared += 1
            for i, c in per_vertex.items():
                assert abs(design.per_vertex_c[i] - c) <= 1e-12 * max(1.0, abs(c))
        # the draw must hold blocks where the order shows, or the tolerance is untested
        assert compared >= 300 and differing >= 20

    def test_sums_follow_edge_order(self):
        """Three negative in-edges at vertex 1 whose sum rounds differently
        by order: 1 + 1 + 2^53 is 2^53 + 2, while 2^53 + 1 + 1 rounds to
        2^53.  B_1 and the gap take the order of ``from_edges``."""
        big = 2.0 ** 53
        edges = {(1, 4): -np.eye(1), (1, 3): -np.eye(1), (1, 2): -big * np.eye(1)}
        g = SignedGraph.from_edges(4, 1, True, edges)
        design = design_fixed(g, Decomposition.of(g, [1]), np.ones(1), delta=1.0)
        assert design.blocks[0, 0, 0] == big + 2.0
        assert g.in_out_gaps[0, 0, 0] == big + 2.0

    def test_design_linear_algebra_is_stacked(self, net_a_dec, monkeypatch):
        """design_fixed makes as many eigh and eigvalsh calls on the
        630-state tiled network as on net_a, so no per-vertex loop of them
        is left.  Both graphs are fresh objects, so no design is reused."""
        big, big_dec = tiled_graph(np.random.default_rng(3), 30)
        assert big.n * big.d == 630

        def counts(g, dec):
            return _linalg_calls(monkeypatch, ("eigh", "eigvalsh"), design_fixed, g, dec, THETA)

        small = counts(bundled_graph("net_a"), net_a_dec)
        assert small == counts(big, big_dec)
        assert small["eigh"] == 1


def _linalg_calls(monkeypatch, names, call, *args):
    """How often call(*args) calls each of the ``np.linalg`` functions named."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*a, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*a, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    call(*args)
    monkeypatch.undo()
    return calls


class TestVerifyDesign:
    def test_benchmark_report(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        report = verify_design(net_a, design)
        assert report.spec_ok and report.null_ok
        assert report.min_real_part == pytest.approx(0.9334, abs=1e-3)
        assert report.equilibrium_residual < 1e-9
        assert report.null_dim == 3

    def test_weak_variant_loses_spectral_gap(self, net_a_weak, net_a_dec):
        design = design_fixed(net_a_weak, net_a_dec, THETA, delta=7.0495)
        report = verify_design(net_a_weak, design)
        assert not report.spec_ok
        assert abs(report.min_real_part) < 1e-6

    def test_equilibrium_exists_even_without_gap(self, net_a_weak, net_a_dec):
        design = design_fixed(net_a_weak, net_a_dec, THETA, delta=7.0495)
        report = verify_design(net_a_weak, design)
        assert report.equilibrium_residual < 1e-9

    def test_theorem_on_graphs_not_built_to_pass(self, net_a_weak, net_a_dec):
        """delta = C + margin puts the grounded spectrum in the open right
        half-plane and makes the augmented null space the span of psi, on
        random digraphs with cycles and semidefinite edges.  More definite
        and more negative edges than the generator's default make a positive
        definite block at every V1 vertex, which the design needs, likelier.

        On every design the verdicts agree with the SVD reference: null_dim
        is M's nullity, and where it is d, null_ok holds exactly when the
        principal angle to span psi is below 1e-6.  A third of the draws take
        an explicit delta in [1e-3, 10], and a third also a random V1 of
        vertices with a negative in-edge, which may fail the decomposition
        check; with net_a_weak at delta = 7.0495, these give singular L_B."""
        rng = np.random.default_rng(20261018)
        drawn = [(net_a_weak, design_fixed(net_a_weak, net_a_dec, THETA, delta=7.0495), False)]
        reached = with_semidefinite = singular = 0
        for _ in range(600):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 4))
            g, magnitudes, definite = _random_signed_digraph(
                rng, n, d, p_definite=0.8, p_negative=0.7
            )
            dec, delta, route = suggest_decomposition(g), None, int(rng.integers(3))
            if route:
                delta = float(10.0 ** rng.uniform(-3.0, 1.0))
            negative = np.unique(g.heads[g.classes < 0]) + 1
            if route == 2 and negative.size:
                dec = Decomposition.of(g, negative[rng.random(negative.size) < 0.5].tolist()
                                       or [int(negative[0])])
            try:
                design = design_fixed(g, dec, rng.normal(size=d), delta=delta)
            except DegenerateCouplingError:
                continue
            drawn.append((g, design, delta is None))
            if delta is None:
                with_semidefinite += len(definite) < len(magnitudes)
        for g, design, margin_rule in drawn:
            report = verify_design(g, design)
            basis = null_space(design_laplacians(g, design)[1].matrix)
            assert report.null_dim == basis.shape[1]
            if report.null_dim == g.d:
                psi, _ = np.linalg.qr(consensus_space(g.n, g.d, 1.0, design.k1))
                assert report.null_ok == (principal_angle(basis, psi) < 1e-6)
            if margin_rule:
                assert report.spec_ok and report.null_ok and report.null_dim == g.d
            reached += margin_rule
            singular += report.null_dim > g.d
        # the draw must reach designs, semidefinite edges and singular L_B
        # included, to show anything
        assert reached >= 30 and with_semidefinite >= 10 and singular >= 30

    def test_verdicts_take_one_eigvals_one_solve_and_no_svd(self, net_a_dec, monkeypatch):
        """Both verdicts come from the grounded spectrum and one solve, on
        net_a and on the 630-state tiled network alike."""
        big, big_dec = tiled_graph(np.random.default_rng(3), 30)
        for g, dec in ((bundled_graph("net_a"), net_a_dec), (big, big_dec)):
            design = design_fixed(g, dec, THETA)
            calls = _linalg_calls(monkeypatch, ("eigvals", "solve", "svd"), verify_design, g, design)
            assert calls == {"eigvals": 1, "solve": 1, "svd": 0}

    def test_spectral_report_serialization(self, net_a, net_a_dec):
        design = design_fixed(net_a, net_a_dec, THETA)
        payload = verify_design(net_a, design).spectral_dict()
        assert set(payload) == {"minRealPart", "nullDim", "psiMatch", "eigenvalues"}
        assert len(payload["eigenvalues"]) == 21
        assert all(len(z) == 2 for z in payload["eigenvalues"])


class TestDesignSwitching:
    def _designs(self, net_a, net_b, net_c, alpha=0.02, theta=THETA):
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
        return design_switching(graphs, decs, theta, alpha=alpha, deltas=deltas)

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

    @pytest.mark.parametrize("alpha", [0.0, -0.02])
    def test_non_positive_dwell_rejected(self, net_a, net_a_dec, alpha):
        with pytest.raises(DimensionMismatchError, match="dwell time must be positive"):
            design_switching({0: net_a}, {0: net_a_dec}, THETA, alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_dwell_rejected(self, net_a, net_b, net_c, alpha):
        # unchecked, the bundled cycle's Lambda came out NaN for a NaN dwell
        # and 0.0 for an infinite one
        with pytest.raises(NonFiniteError, match="dwell time must be finite"):
            self._designs(net_a, net_b, net_c, alpha=alpha)

    def test_graphs_share_one_read_only_theta(self, net_a, net_b, net_c):
        sdesign = self._designs(net_a, net_b, net_c)
        theta = sdesign.designs[0].theta
        assert all(d.theta is theta for d in sdesign.designs.values())
        # a design remade with the shared read-only theta keeps it by identity
        assert dataclasses.replace(sdesign.designs[1], delta=7.0).theta is theta
        assert theta.tolist() == THETA.tolist() and theta is not THETA
        assert not theta.flags.writeable

    @pytest.mark.parametrize("theta, error, message", [
        (np.zeros(3), ZeroThetaError, "the preset consensus state must be nonzero"),
        (np.array([1.0, np.nan, 2.0]), NonFiniteError, "theta has NaN or infinite entries"),
        (np.array([1.0, 2.0]), DimensionMismatchError, "theta has dimension 2, graph has d=3"),
    ])
    def test_theta_errors_name_the_first_graph(self, net_a, net_b, net_c, theta, error, message):
        with pytest.raises(error) as info:
            self._designs(net_a, net_b, net_c, theta=theta)
        assert str(info.value) == f"graph 0: {message}"

    @pytest.mark.parametrize("missing", [0, 2])
    def test_graph_without_decomposition_named(self, net_a, net_b, net_c, missing):
        # a missing id used to raise KeyError("graph 0: 0"), printed quoted
        graphs = {0: net_a, 1: net_b, 2: net_c}
        decs = {k: Decomposition.of(g, BUNDLED_V1[f"net_{'abc'[k]}"])
                for k, g in graphs.items() if k != missing}
        with pytest.raises(DimensionMismatchError) as info:
            design_switching(graphs, decs, THETA, alpha=0.02)
        assert str(info.value) == f"graph id {missing} has no decomposition"

    def test_delta_pinned_for_a_missing_graph_named(self, net_a, net_b):
        # the pinned 3.0 for graph 5 used to be dropped without a word
        graphs = {0: net_a, 1: net_b}
        decs = {k: Decomposition.of(g, BUNDLED_V1[f"net_{'ab'[k]}"]) for k, g in graphs.items()}
        with pytest.raises(DimensionMismatchError) as info:
            design_switching(graphs, decs, THETA, alpha=0.02, deltas={0: 7.0, 5: 3.0, 9: 1.0})
        assert str(info.value) == "graph id 5 has a pinned delta and no graph"
        pinned = design_switching(graphs, decs, THETA, alpha=0.02, deltas={0: 7.0})
        assert pinned.designs[0].delta == 7.0

    def test_failing_graph_named_in_error(self, net_a, net_a_weak, net_a_dec):
        with pytest.raises(AssumptionViolatedError, match="graph 1"):
            design_switching(
                {0: net_a, 1: net_a_weak},
                {0: net_a_dec, 1: net_a_dec},
                THETA,
                alpha=0.02,
            )


    def test_graphs_of_different_sizes_rejected(self, net_a, net_a_dec):
        small = SignedGraph.from_edges(2, 3, True, {(1, 2): -np.eye(3), (2, 1): -np.eye(3)})
        with pytest.raises(DimensionMismatchError, match=r"graph 1 has \(n, d\) = \(2, 3\)"):
            design_switching(
                {0: net_a, 1: small},
                {0: net_a_dec, 1: Decomposition.of(small, [1, 2])},
                THETA,
                alpha=0.02,
                deltas={0: 8.0, 1: 8.0},
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

        # k1 differs per graph, so no common augmented direction survives
        z = consensus_space(7, 3, 1.0, sdesign.designs[0].k1) @ THETA
        assert not necessary_condition_check(z, mats)

    def test_switching_verdict_takes_no_svd(self, net_a, net_b, net_c, monkeypatch):
        sdesign = TestDesignSwitching()._designs(net_a, net_b, net_c)
        mats = [
            design_laplacians(g, sdesign.designs[gid])[1].matrix
            for gid, g in {0: net_a, 1: net_b, 2: net_c}.items()
        ]

        svds = _count_svds(monkeypatch)
        for gid, design in sdesign.designs.items():
            z = consensus_space(7, 3, 1.0, design.k1) @ THETA
            # graph gid's own direction passes on it, and every direction
            # fails on some other graph, each by a cheap bound
            assert necessary_condition_check(z, [mats[gid]])
            assert not necessary_condition_check(z, mats)
        assert svds == []

    @pytest.mark.parametrize("rank_one", [False, True])
    @pytest.mark.parametrize("scale", [0.05, 1.0, 30.0])
    def test_matches_the_svd_formula_either_side_of_each_bound(self, rank_one, scale, monkeypatch):
        rng = np.random.default_rng(17 + 3 * rank_one + int(scale * 100))
        for _ in range(6):
            k = int(rng.integers(3, 13))
            if rank_one:  # ||M||_2 = ||M||_F
                m = np.outer(rng.normal(size=k), rng.normal(size=k))
            else:
                m = rng.normal(size=(k, k))
            m[:, 0] = 0.0  # so e_1 is a null vector
            m *= scale / np.linalg.norm(m, 2)
            sigma = max(1.0, float(np.linalg.norm(m, 2)))
            frobenius = max(1.0, float(np.linalg.norm(m))) * (1.0 + 1e-12)
            w = rng.normal(size=k)
            w[0] = 0.0
            svds = _count_svds(monkeypatch)
            for bound, decided in ((1.0, True), (sigma, False), (frobenius, True)):
                for side in (1.0 - 1e-9, 1.0 + 1e-9):
                    z = _residual_at(m, w, bound * side)
                    before = len(svds)
                    got = necessary_condition_check(z, [m])
                    took_svd = len(svds) > before
                    assert got == necessary_condition_svd(z, [m])
                    if bound == sigma:
                        assert got == (side < 1.0)
                    # a cheap bound decides outside (s, s max(1, ||M||_F) (1 + 1e-12)]
                    if decided and ((bound == 1.0) == (side < 1.0)):
                        assert not took_svd
            for factor in (0.5, 2.0 * frobenius):
                z = _residual_at(m, w, factor)
                before = len(svds)
                assert necessary_condition_check(z, [m]) == (factor < 1.0)
                assert len(svds) == before


def _count_svds(monkeypatch):
    """A list that gets one entry per spectral norm np.linalg.norm(m, 2)
    taken from now on."""
    calls = []
    norm = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(1)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


def _residual_at(m, w, factor):
    """z = e_1 + lam w with ||m z|| = factor 1e-6 ||z|| to within rounding,
    for m whose first column is zero and w with w[0] = 0."""
    z = np.zeros(m.shape[1])
    z[0] = 1.0
    mw = np.linalg.norm(m @ w)
    for _ in range(4):
        lam = factor * protocol.MEMBER_TOL * np.linalg.norm(z) / mw
        z = np.zeros(m.shape[1])
        z[0] = 1.0
        z = z + lam * w
    return z


def _designed(name, tiled):
    """A design on a bundled network (its bundled V1, the switching run's
    coefficient, or net_a's for net_a_weak) or on the tiled network."""
    if name == "tiled":
        g, dec = tiled
        return g, design_fixed(g, dec, THETA)
    g = bundled_graph(name)
    delta = SWITCHING_DELTAS.get(name, SWITCHING_DELTAS["net_a"])
    return g, design_fixed(g, bundled_decomposition(name), THETA, delta=delta)


def _path_design(rng):
    """A design on a sparse directed path 1 -> 2 -> ... -> 10, informed at 1,
    which the quarter rule stores as CSR."""
    n = 10
    edges = {(v + 1, v): random_spd(rng, 2) for v in range(1, n)}
    edges[(1, n)] = -random_spd(rng, 2)
    g = SignedGraph.from_edges(n, 2, True, edges)
    return g, design_fixed(g, Decomposition.of(g, [1]), np.array([1.0, -2.0]), delta=2.0)


def _square_arrays(loop, width):
    """The arrays of at least width x width entries that a loop's fields
    reach, each as the array that owns its memory."""
    found, todo = {}, [getattr(loop, f.name) for f in dataclasses.fields(loop)]
    while todo:
        value = todo.pop()
        if isinstance(value, dict):
            todo += list(value.values())
        elif isinstance(value, (tuple, list)):
            todo += list(value)
        elif hasattr(value, "indptr"):
            todo += [value.data, value.indices, value.indptr]
        elif isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            found[id(value)] = value
    return [a for a in found.values() if a.size >= width * width]


class TestClosedLoop:
    @pytest.mark.parametrize("name", ["net_a", "tiled"])
    def test_grounded_is_the_augmented_leading_block(self, name, tiled):
        g, design = _designed(name, tiled)
        grounded, _ = design_laplacians(g, design)
        alone = grounded_block(g, design.delta, design.informed, design.blocks)
        assert np.ascontiguousarray(grounded.matrix).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("name", ["net_a", "net_b", "net_c", "net_a_weak", "tiled"])
    def test_operator_matches_dense_laplacians(self, name, tiled):
        """The loop's one matrix is the augmented Laplacian M, (n+1)d
        square, with the design's k1 beside it; the bundled loops are
        stored dense, the tiled one in CSR form."""
        g, design = _designed(name, tiled)
        _, augmented = design_laplacians(g, design)
        loop = closed_loop(g, design)
        nd = g.n * g.d
        m = loop.matrix
        assert m.shape == (nd + g.d, nd + g.d)
        assert (loop.nd, loop.k1) == (nd, design.k1)
        assert isinstance(m, np.ndarray) == (name != "tiled")
        # exact equality; toarray() turns a stored -0.0 into +0.0, so not tobytes()
        assert np.array_equal(m if isinstance(m, np.ndarray) else m.toarray(), augmented.matrix)

    @pytest.mark.parametrize("name", ["net_a", "net_b", "net_c", "net_a_weak", "tiled", "path"])
    def test_operator_storage_follows_its_fill(self, name, tiled, rng):
        """A loop's M is stored dense when more than a quarter of the
        nd x (nd + d) entries of its top block row are triplet entries, and
        in CSR form otherwise; either way it holds the values of both
        builds of the same triplets, a NumPy scatter and a COO sum, which
        adds up any repeated (row, column) pair."""
        g, design = _path_design(rng) if name == "path" else _designed(name, tiled)
        rows, cols, data = laplacian_blocks(g, design.delta, design.informed, design.blocks)
        d, nd = g.d, g.n * g.d
        scattered = np.zeros((g.n + 1, d, g.n + 1, d))
        scattered[rows, :, cols, :] = data
        k = np.arange(d)
        r = np.broadcast_to(rows[:, None, None] * d + k[:, None], data.shape).ravel()
        c = np.broadcast_to(cols[:, None, None] * d + k, data.shape).ravel()
        summed = coo_matrix((data.ravel(), (r, c)), shape=(nd + d, nd + d)).toarray()
        assert np.array_equal(scattered.reshape(nd + d, nd + d), summed)
        op = closed_loop(g, design).matrix
        dense = name not in ("tiled", "path")
        assert isinstance(op, np.ndarray) == dense
        assert dense == (4 * data.size > nd * (nd + d))
        assert np.array_equal(op if dense else op.toarray(), summed)
        with pytest.raises(ValueError, match="read-only"):
            (op if dense else op.data)[0] = 1.0

    @pytest.mark.parametrize("h", [1e-3, 3e-3, 7.3e-4])
    @pytest.mark.parametrize("name", ["net_a", "net_b", "net_c", "tiled", "path"])
    def test_step_map_is_the_top_row_construction(self, name, h, tiled, rng):
        """Scaling a copy of M's signal columns by k1 where the step map is
        built gives the bytes of the map built from M_theta's top block
        row, with k1 applied to the triplets (``reference.top_row_step_map``),
        dense and CSR."""
        g, design = _path_design(rng) if name == "path" else _designed(name, tiled)
        got = simulate._step_map(closed_loop(g, design), h)
        want = top_row_step_map(g, design, h)
        assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray) \
            == (name not in ("tiled", "path"))
        if isinstance(want, np.ndarray):
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        else:
            for attr in ("data", "indices", "indptr"):
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()

    def test_dense_loop_holds_one_matrix(self, net_a_dec):
        """design_laplacians gives a dense loop's own M and a view of it,
        and the store entry holds no other (n+1)d-square array after the
        design is verified and its contraction factor taken."""
        g = bundled_graph("net_a")
        design = design_fixed(g, net_a_dec, THETA)
        verify_design(g, design)
        contraction_factor(SwitchingDesign({0: design}, alpha=1.0), {0: g})
        grounded, augmented = design_laplacians(g, design)
        loop = closed_loop(g, design)
        assert augmented.matrix is loop.matrix and np.shares_memory(grounded.matrix, loop.matrix)
        held = _square_arrays(protocol._STORE[g], (g.n + 1) * g.d)
        assert len(held) == 1 and np.shares_memory(held[0], loop.matrix)

    def test_csr_loop_holds_no_dense_matrix(self, tiled):
        """A loop that the quarter rule stores as CSR keeps no dense M: after
        the design is verified, its contraction factor taken and a run made,
        its store entry holds no (n+1)d-square array."""
        g = dataclasses.replace(tiled[0])
        design = design_fixed(g, tiled[1], THETA)
        verify_design(g, design)
        contraction_factor(SwitchingDesign({0: design}, alpha=1.0), {0: g})
        assert protocol._STORE[g].matrix is None  # design_laplacians builds no CSR
        integrate_fixed(g, design, np.zeros(g.n * g.d), h=1e-3, horizon=0.0105)
        assert not isinstance(protocol._STORE[g].matrix, np.ndarray)
        assert _square_arrays(protocol._STORE[g], (g.n + 1) * g.d) == []

    @pytest.mark.parametrize("name, h, dense", [("net_a", 1e-2, True), ("tiled", 5e-2, False)])
    def test_step_map_is_the_rk4_step(self, name, h, dense, tiled, rng):
        g, design = _designed(name, tiled)
        top = _full_step(closed_loop(g, design), h)
        assert isinstance(top, np.ndarray) == dense
        lap, forcing = affine_loop(g, design)
        for _ in range(3):
            x = rng.uniform(-5.0, 5.0, g.n * g.d)
            want = rk4_reference_step(lap, forcing, x, h)
            got = top @ np.concatenate([x, design.theta])
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("name, h", [("net_a", 1e-2), ("tiled", 5e-2)])
    def test_cut_stacks_powers(self, name, h, tiled):
        g, design = _designed(name, tiled)
        loop = closed_loop(g, design)
        top = _full_step(loop, h)
        nd, width = g.n * g.d, g.n * g.d + g.d
        step = np.eye(width)  # the whole step map R, its bottom rows [0 | I]
        step[:nd] = top if isinstance(top, np.ndarray) else top.toarray()
        # a dense map is stacked up to the byte budget; a CSR map is not stacked
        cap = STACK_BYTES // (nd * nd * 8) if isinstance(top, np.ndarray) else 1
        assert name == "tiled" or 5 < cap < 1000
        for steps in (5, 1000):
            m = min(steps, cap)
            (piece, reps), *tail = _cut(loop, 0, h, steps, 0.0, {})
            assert piece.rows == m and reps == steps // m
            assert [t.rows for t, _ in tail] == ([steps % m] if steps % m else [])
            stack = piece.stack
            assert stack.shape == (m * nd, width)
            power = np.eye(width)
            for k in range(m):
                power = step @ power
                row = stack[k * nd : (k + 1) * nd]
                assert np.linalg.norm(row - power[:nd]) <= 1e-13 * np.linalg.norm(power[:nd])
        # the step map is the one-row stack and every (h, m) is built once:
        # 1000 and 2000 steps share the capped stack
        capped = _cut(loop, 0, h, 1000, 0.0, {})[0][0]
        assert _cut(loop, 0, h, 2000, 0.0, {})[0][0].stack is capped.stack
        # the step map and the stacks outlive the run in the loop's maps,
        # under (h, m); the step map is the one-row stack (h, 1)
        assert loop.maps[(h, cap)] is capped.stack
        assert loop.maps[(h, 1)] is top

    def test_sparse_operator_keeps_a_sparse_step_map(self, rng):
        # a directed path with a signal into its first vertex: M is under a
        # quarter full, the step map is not; the storage follows M
        n = 10
        g = SignedGraph.from_edges(
            n, 2, True, {(v + 1, v): random_spd(rng, 2) for v in range(1, n)}
        )
        lap = signed_laplacian(g) + np.eye(2 * n)
        signal = np.zeros((2 * n, 2))
        signal[:2] = -random_spd(rng, 2)
        m = np.vstack([np.hstack([lap, signal]), np.zeros((2, 2 * n + 2))])
        loop = ClosedLoop(matrix=csr_matrix(m), nd=2 * n)
        assert 4 * loop.matrix.nnz < 2 * n * (2 * n + 2)
        top = _full_step(loop, 0.1)
        assert issparse(top) and 4 * top.nnz > 2 * n * (2 * n + 2)
        x, theta = rng.normal(size=2 * n), rng.normal(size=2)
        want = rk4_reference_step(lap, -signal @ theta, x, 0.1)
        got = top @ np.concatenate([x, theta])
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
