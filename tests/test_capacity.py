import functools

import numpy as np
import pytest

from conftest import random_density
from polychan import (
    BipartiteSplit,
    ConnectionGraph,
    DensityOperator,
    RateTuple,
    SystemLayout,
    apply_with_reference,
    check_dpi,
    coherent_information,
    continuity_gap,
    dephasing,
    depolarizing,
    identity_channel,
    make_rng,
    maximally_entangled_vector,
    product_channel,
    random_channel,
    region_pareto,
    region_sample,
    simplex_weight_grid,
    split_rng,
)
from polychan._optim import complex_parts, pack_states, project_tangent, renormalize_rows
from polychan.capacity import _RegionProblem
from polychan.channels import KrausChannel, tensor_power
from polychan.errors import CapExceededError
from polychan.linalg import permute_legs_vector


def bell_state(d=2):
    return DensityOperator.from_vector(maximally_entangled_vector(d), SystemLayout([d, d]))


def scalar_entropy(probs):
    probs = np.asarray(probs, dtype=float)
    pos = probs[probs > 0]
    return float(-np.sum(pos * np.log2(pos)))


SPLIT_22 = BipartiteSplit([2, 2], [0], [1])


class TestCoherentInformation:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled(self, d):
        split = BipartiteSplit([d, d], [0], [1])
        assert abs(coherent_information(bell_state(d), split) - np.log2(d)) < 1e-9

    def test_maximally_mixed(self):
        rho = DensityOperator.maximally_mixed([2, 2])
        assert abs(coherent_information(rho, SPLIT_22) - (-1.0)) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarized_bell_scalar_oracle(self, p):
        out = apply_with_reference(depolarizing(2, p), bell_state(), ref_legs=1)
        # spectrum of the depolarized maximally entangled state
        eigs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
        want = 1.0 - scalar_entropy(eigs)
        assert abs(coherent_information(out, SPLIT_22) - want) < 1e-9

    def test_range_bound(self, rng):
        for _ in range(50):
            rho = DensityOperator(random_density(4, rng), SystemLayout([2, 2]))
            ic = coherent_information(rho, SPLIT_22)
            assert -1.0 - 1e-9 <= ic <= 1.0 + 1e-9

    def test_split_validation(self):
        with pytest.raises(ValueError):
            BipartiteSplit([2, 2], [0], [0, 1])
        with pytest.raises(ValueError):
            BipartiteSplit([2, 2], [0], [])


class TestDataProcessing:
    def test_identity_margin_zero(self):
        assert abs(check_dpi(bell_state(), SPLIT_22, identity_channel([2]))) < 1e-12

    def test_fully_depolarizing_margin_two(self):
        margin = check_dpi(bell_state(), SPLIT_22, depolarizing(2, 1.0))
        assert abs(margin - 2.0) < 1e-9

    def test_random_sweep(self, rng):
        for stream in split_rng(rng, 200):
            rho = DensityOperator(random_density(4, rng), SystemLayout([2, 2]))
            post = random_channel(2, 2, 2, stream)
            assert check_dpi(rho, SPLIT_22, post) >= -1e-9

    def test_leg_mismatch(self, rng):
        with pytest.raises(ValueError):
            check_dpi(bell_state(), SPLIT_22, identity_channel([3]))


class TestContinuity:
    def test_equal_states(self, rng):
        rho = DensityOperator(random_density(4, rng), SystemLayout([2, 2]))
        lhs, rhs = continuity_gap(rho, rho, SPLIT_22)
        assert lhs < 1e-9
        # f = 0 up to fidelity round-off; the square root amplifies that to ~1e-6
        assert abs(rhs - 2.0) < 1e-5

    def test_bell_vs_maximally_mixed(self):
        lhs, rhs = continuity_gap(bell_state(), DensityOperator.maximally_mixed([2, 2]),
                                  SPLIT_22)
        assert abs(lhs - 2.0) < 1e-9
        assert abs(rhs - 5.464101615137754) < 1e-6

    def test_random_sweep(self, rng):
        for _ in range(200):
            rho = DensityOperator(random_density(4, rng), SystemLayout([2, 2]))
            sigma = DensityOperator(random_density(4, rng), SystemLayout([2, 2]))
            lhs, rhs = continuity_gap(rho, sigma, SPLIT_22)
            assert lhs <= rhs + 1e-9

    def test_nearby_states(self, rng):
        for _ in range(200):
            m = random_density(4, rng)
            rho = DensityOperator(m, SystemLayout([2, 2]))
            sigma = DensityOperator(0.99 * m + 0.01 * np.eye(4) / 4, SystemLayout([2, 2]))
            lhs, rhs = continuity_gap(rho, sigma, SPLIT_22)
            assert lhs <= rhs + 1e-9


def identity_pair():
    graph = ConnectionGraph.diagonal([2, 2])
    ch = product_channel([identity_channel([2]), identity_channel([2])], graph)
    return ch, graph


def isotropic_scan_best_rate(ch, points=2001):
    """Independent 1-parameter oracle: inputs cos(t)|00> + sin(t)|11>."""
    split = BipartiteSplit([2, 2], [0], [1])
    best = -np.inf
    for t in np.linspace(0.0, np.pi / 2, points):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.cos(t), np.sin(t)
        state = DensityOperator.from_vector(v, SystemLayout([2, 2]))
        out = apply_with_reference(ch, state, ref_legs=1)
        best = max(best, coherent_information(out, split))
    return best


class TestRegionSample:
    def test_identity_pair(self):
        ch, graph = identity_pair()
        rt = region_sample(ch, graph, 1, (1.0, 1.0), make_rng(21), restarts=4)
        assert rt.rates[0] >= 0.99 and rt.rates[1] >= 0.99

    def test_fully_depolarizing_clamps_to_zero(self):
        ch = depolarizing(2, 1.0)
        rt = region_sample(ch, ConnectionGraph.single(2), 1, (1.0,), make_rng(5), restarts=4)
        assert all(r <= 1e-12 for r in rt.achievable)
        assert all(r >= 0.0 for r in rt.achievable)

    def test_depolarizing_matches_isotropic_scan(self):
        ch = depolarizing(2, 0.05)
        want = isotropic_scan_best_rate(ch)
        rt = region_sample(ch, ConnectionGraph.single(2), 1, (1.0,), make_rng(37), restarts=8)
        assert abs(rt.rates[0] - want) < 1e-3

    def test_rates_recompute_at_achieving_state(self):
        # independent recompute: assemble the joint input from the stored sender
        # states by hand, push it through the channel, and take the marginals
        from polychan.linalg import permute_legs_vector

        ch, graph = identity_pair()
        rt = region_sample(ch, graph, 1, (1.0, 0.5), make_rng(9), restarts=4)
        joint = np.kron(rt.sender_states[0], rt.sender_states[1])
        # sender-major legs (R0, A0, R1, A1) -> (R0, R1, A0, A1)
        joint = permute_legs_vector(joint, [2, 2, 2, 2], [0, 2, 1, 3])
        state = DensityOperator.from_vector(joint, SystemLayout([2, 2, 2, 2]))
        out = apply_with_reference(ch, state, ref_legs=2)
        for i in range(2):
            marg = out.reduced([i, 2 + i])
            ic = coherent_information(marg, BipartiteSplit(marg.layout, [0], [1]))
            assert abs(ic - rt.rates[i]) < 1e-9

    def test_blocklength_two_seeded_regression(self):
        ch = depolarizing(2, 0.1)
        graph = ConnectionGraph.single(2)
        r1 = region_sample(ch, graph, 1, (1.0,), make_rng(11), restarts=4)
        r2 = region_sample(ch, graph, 2, (1.0,), make_rng(13), restarts=2)
        assert r2.objective >= r1.objective - 1e-6

    def test_weight_validation(self):
        ch, graph = identity_pair()
        with pytest.raises(ValueError):
            region_sample(ch, graph, 1, (0.0, 0.0), make_rng(0))
        with pytest.raises(ValueError):
            region_sample(ch, graph, 1, (1.0,), make_rng(0))

    def test_blocklength_cap(self):
        ch, graph = identity_pair()
        with pytest.raises(CapExceededError):
            region_sample(ch, graph, 5, (1.0, 1.0), make_rng(0))

    def test_rate_tuple_invariants(self):
        with pytest.raises(ValueError):
            RateTuple(rates=(2.5,), dims=(2,), blocklength=1, weights=(1.0,),
                      objective=2.5, sender_states=(np.ones(4),), restart_index=0)


class TestRegionPareto:
    def test_identity_pair_frontier(self):
        ch, graph = identity_pair()
        grid = [(1.0, 1.0), (1.0, 0.2), (0.2, 1.0)]
        points = region_pareto(ch, graph, 1, grid, make_rng(31), restarts=4)
        assert any(p.achievable[0] >= 0.99 and p.achievable[1] >= 0.99 for p in points)
        for p in points:
            for r, d in zip(p.rates, p.dims):
                assert -np.log2(d) - 1e-6 <= r <= np.log2(d) + 1e-6

    def test_vertex_weight_matches_single_user(self):
        # weight concentrated on one connection: that connection reaches its
        # single-user optimum from the isotropic-scan oracle
        dep = depolarizing(2, 0.05)
        graph = ConnectionGraph.diagonal([2, 2])
        ch = product_channel([dep, dep], graph)
        want = isotropic_scan_best_rate(dep)
        points = region_pareto(ch, graph, 1, [(1.0, 0.0), (0.0, 1.0)], make_rng(41),
                               restarts=8)
        best0 = max(p.achievable[0] for p in points)
        best1 = max(p.achievable[1] for p in points)
        assert abs(best0 - want) < 1e-3
        assert abs(best1 - want) < 1e-3

    @pytest.mark.parametrize("size, counts", [(2, range(3, 11)), (3, range(4, 11))])
    def test_weight_grid_distinct(self, size, counts):
        for count in counts:
            grid = simplex_weight_grid(size, count, make_rng(0))
            assert len(set(grid)) == len(grid) == count
            assert all(abs(sum(w) - 1.0) < 1e-12 and min(w) >= 0.0 for w in grid)

    def test_weight_grid_shapes(self):
        grid = simplex_weight_grid(2, 6, make_rng(0))
        assert (1.0, 0.0) in grid and (0.0, 1.0) in grid
        assert all(len(w) == 2 for w in grid)
        grid3 = simplex_weight_grid(3, 7, make_rng(0))
        assert all(abs(sum(w) - 1.0) < 1e-9 for w in grid3)


class TestOtherTopologies:
    def test_broadcast_single_sender(self):
        # one sender feeding two receivers through independent perfect wires
        graph = ConnectionGraph([(0, 0, 2), (0, 1, 2)])
        ch = product_channel([identity_channel([2]), identity_channel([2])], graph)
        rt = region_sample(ch, graph, 1, (1.0, 1.0), make_rng(51), restarts=4)
        assert rt.rates[0] >= 0.99 and rt.rates[1] >= 0.99

    def test_multiple_access_two_senders(self):
        # two senders into one receiver; the noisy wire caps its own connection
        graph = ConnectionGraph([(0, 0, 2), (1, 0, 2)])
        ch = product_channel([identity_channel([2]), depolarizing(2, 1.0)], graph)
        rt = region_sample(ch, graph, 1, (1.0, 1.0), make_rng(53), restarts=4)
        assert rt.rates[0] >= 0.99
        assert rt.achievable[1] <= 1e-9


def oracle_coherent_infos(ch, graph, n, sender_states):
    """Per-connection I_c(R_i > B_i) through explicit density matrices.

    Assembles the joint input by hand (refs R_0..R_{g-1}, then the input
    blocks in sender-major order), applies the n-fold channel with
    ``apply_with_reference`` and takes each connection's reduced state.
    """
    g = graph.size
    dims = [d**n for d in graph.dims]
    tags, leg_dims = [], []
    for grp in (grp for grp in graph.sender_groups() if grp):
        tags += [("R", i) for i in grp] + [("A", i) for i in grp]
        leg_dims += [dims[i] for i in grp] * 2
    order = [tags.index(("R", i)) for i in range(g)] + [
        tags.index(("A", i)) for i in graph.input_order]
    joint = permute_legs_vector(functools.reduce(np.kron, sender_states), leg_dims, order)
    layout = SystemLayout([leg_dims[o] for o in order])
    block = KrausChannel(ch.kraus_ops, graph.in_block_dims, graph.out_block_dims)
    out = apply_with_reference(tensor_power(block, n), DensityOperator.from_vector(joint, layout),
                               ref_legs=g)
    infos = []
    for i in range(g):
        first = g + n * graph.output_order.index(i)
        marg = out.reduced([i] + list(range(first, first + n)))
        infos.append(coherent_information(
            marg, BipartiteSplit(marg.layout, [0], range(1, n + 1))))
    return infos


class TestBatchedObjective:
    """The batched objective against the density-matrix route, row by row."""

    GRAPHS = {
        "diagonal": ConnectionGraph.diagonal([2, 2]),
        "multiple_access": ConnectionGraph([(0, 0, 2), (1, 0, 2)]),
        "broadcast": ConnectionGraph([(0, 0, 2), (0, 1, 2)]),
        "two_plus_one": ConnectionGraph([(0, 0, 2), (0, 1, 2), (1, 1, 2)]),
    }

    @pytest.mark.parametrize("name, n", [
        ("diagonal", 1), ("diagonal", 2), ("multiple_access", 1), ("multiple_access", 2),
        ("broadcast", 1), ("broadcast", 2), ("two_plus_one", 1),
    ])
    def test_matches_density_matrix_route(self, name, n):
        graph = self.GRAPHS[name]
        d = graph.total_dim()
        rng = make_rng(61)
        ch = random_channel(d, d, 3, rng)
        problem = _RegionProblem(ch, graph, n)
        senders = [grp for grp in graph.sender_groups() if grp]
        part_dims = [int(np.prod([graph.dims[i] ** n for i in grp])) ** 2 for grp in senders]
        # one row, and a batch over several evaluation blocks with a ragged last one
        # (the block is shrunk so the density-matrix route stays cheap at n = 1)
        problem.block_rows = 3
        for rows in (1, 7):
            parts = []
            for p in part_dims:
                z = rng.standard_normal((rows, p)) + 1j * rng.standard_normal((rows, p))
                parts.append(z / np.linalg.norm(z, axis=1, keepdims=True))
            got = problem.coherent_infos(parts)
            assert got.shape == (rows, graph.size)
            for r in range(rows):
                want = oracle_coherent_infos(ch, graph, n, [q[r] for q in parts])
                assert np.max(np.abs(got[r] - want)) < 1e-12


def readme_pair():
    graph = ConnectionGraph.diagonal([2, 2])
    return product_channel([dephasing(0.1), depolarizing(2, 0.3)], graph), graph


class TestRegionGradient:
    """The exact packed gradient of the weighted objective, against finite differences."""

    GRAPHS = dict(TestBatchedObjective.GRAPHS, crossed=ConnectionGraph([(0, 1, 2), (1, 0, 2)]))

    @pytest.mark.parametrize("zero_weight", [False, True])
    @pytest.mark.parametrize("name, n", [
        ("diagonal", 1), ("diagonal", 2), ("multiple_access", 1), ("multiple_access", 2),
        ("broadcast", 1), ("broadcast", 2), ("two_plus_one", 1), ("crossed", 1), ("crossed", 2),
    ])
    def test_matches_central_difference(self, name, n, zero_weight):
        graph = self.GRAPHS[name]
        d = graph.total_dim()
        rng = make_rng(71)
        problem = _RegionProblem(random_channel(d, d, 3, rng), graph, n)
        weights = rng.uniform(0.2, 1.5, graph.size)
        if zero_weight:
            weights[1] = 0.0
        dims = problem.part_dims
        x = renormalize_rows(rng.standard_normal(2 * sum(dims)), dims)[0]
        got = project_tangent(x, problem.packed_gradient(x, weights), dims)
        # fourth-order central difference of the (scale-invariant) batched objective
        h = 1e-3
        steps = np.array([2.0, 1.0, -1.0, -2.0]) * h
        pts = x[None, None, :] + steps[None, :, None] * np.eye(x.size)[:, None, :]
        vals = -(problem.coherent_infos(complex_parts(pts.reshape(-1, x.size), dims)) @ weights)
        vals = vals.reshape(x.size, 4)
        fd = (-vals[:, 0] + 8.0 * vals[:, 1] - 8.0 * vals[:, 2] + vals[:, 3]) / (12.0 * h)
        want = project_tangent(x, fd, dims)
        assert np.linalg.norm(want) > 0.1
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("pair", [readme_pair, identity_pair])
    @pytest.mark.parametrize("n", [1, 2])
    def test_stationary_at_maximally_entangled_start(self, pair, n):
        # rho_RB is rank-deficient here, so the floored eigenvalues are in play
        ch, graph = pair()
        problem = _RegionProblem(ch, graph, n)
        dims = problem.part_dims
        x = renormalize_rows(pack_states(
            [problem.me_sender_state(w) for w in range(len(dims))]), dims)[0]
        grad = problem.packed_gradient(x, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(grad))
        assert np.linalg.norm(project_tangent(x, grad, dims)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_readme_pair_closed_form(self, n):
        # dephasing(0.1) reaches 1 - h2(0.1) at every blocklength (it is degradable);
        # depolarizing(2, 0.3) is past its hashing point, so its best rate is 0
        ch, graph = readme_pair()
        rt = region_sample(ch, graph, n, (1.0, 1.0), make_rng(81), restarts=4)
        h2 = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
        assert abs(rt.rates[0] - (1.0 - h2)) < 1e-9
        assert abs(rt.achievable[1]) < 1e-9
