import functools

import numpy as np
import pytest

from conftest import (
    dense_coherent_information,
    dense_uhlmann_fidelity,
    density_factor,
    random_density,
    tangent_gradient,
    unit_parts,
)
from polychan import (
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
    region_sample,
    region_sweep,
    simplex_weight_grid,
    uhlmann_fidelity,
)
from polychan.capacity import _lift_sender_states, _log2m, _RegionProblem
from polychan.channels import KrausChannel, connection_kraus, tensor_power
from polychan.errors import CapExceededError
from polychan.linalg import BLOCK_BYTES, eigh, entropy_of_spectrum, kron_rows, permute_legs_vector


def bell_state(d=2):
    return DensityOperator.from_vector(maximally_entangled_vector(d), SystemLayout([d, d]))


def bell_factor(d=2):
    """The maximally entangled state as its one-column factor."""
    return maximally_entangled_vector(d)[:, None]


def random_factor(d, rng):
    """A factor of a random full(ish)-rank density matrix."""
    return density_factor(random_density(d, rng))


def scalar_entropy(probs):
    probs = np.asarray(probs, dtype=float)
    pos = probs[probs > 0]
    return float(-np.sum(pos * np.log2(pos)))


def rows_a_first(phi, dims, a_leg):
    """A factor, or a stack of them, with its rows over the legs ``dims`` permuted so
    that leg ``a_leg`` comes first."""
    lead = phi.shape[:-2]
    legs = phi.reshape(lead + tuple(dims) + phi.shape[-1:])
    return np.moveaxis(legs, len(lead) + a_leg, len(lead)).reshape(phi.shape)


class TestCoherentInformation:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled(self, d):
        assert abs(coherent_information(bell_factor(d), d) - np.log2(d)) < 1e-9

    def test_maximally_mixed(self):
        phi = np.eye(4) / 2
        assert abs(coherent_information(phi, 2) - (-1.0)) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarized_bell_scalar_oracle(self, p):
        out = apply_with_reference(depolarizing(2, p), bell_state(), ref_legs=1)
        # spectrum of the depolarized maximally entangled state
        eigs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
        want = 1.0 - scalar_entropy(eigs)
        assert abs(coherent_information(density_factor(out), 2) - want) < 1e-9

    def test_range_bound(self, rng):
        for _ in range(50):
            ic = coherent_information(random_factor(4, rng), 2)
            assert -1.0 - 1e-9 <= ic <= 1.0 + 1e-9

    def test_split_validation(self, rng):
        # a factor's 4 rows split into A and B only for a_dim 1, 2 or 4
        phi = random_factor(4, rng)
        for a_dim in (0, 3, 8):
            with pytest.raises(ValueError, match="do not split"):
                coherent_information(phi, a_dim)
            with pytest.raises(ValueError, match="do not split"):
                check_dpi(phi, a_dim, identity_channel([2]).kraus_stack())
            with pytest.raises(ValueError, match="do not split"):
                continuity_gap(phi, phi, a_dim)


class TestDataProcessing:
    def test_identity_margin_zero(self):
        assert abs(check_dpi(bell_factor(), 2, identity_channel([2]).kraus_stack())) < 1e-12

    def test_fully_depolarizing_margin_two(self):
        margin = check_dpi(bell_factor(), 2, depolarizing(2, 1.0).kraus_stack())
        assert abs(margin - 2.0) < 1e-9

    def test_random_sweep(self, rng):
        for stream in rng.spawn(200):
            phi = random_factor(4, rng)
            post = random_channel(2, 2, 2, stream)
            assert check_dpi(phi, 2, post.kraus_stack()) >= -1e-9

    def test_leg_mismatch(self, rng):
        with pytest.raises(ValueError):
            check_dpi(bell_factor(), 2, identity_channel([3]).kraus_stack())


class TestContinuity:
    def test_equal_states(self, rng):
        phi = random_factor(4, rng)
        lhs, rhs = continuity_gap(phi, phi, 2)
        assert lhs < 1e-9
        # f = 0 up to fidelity round-off; the square root amplifies that to ~1e-6
        assert abs(rhs - 2.0) < 1e-5

    def test_bell_vs_maximally_mixed(self):
        lhs, rhs = continuity_gap(bell_factor(), np.eye(4) / 2, 2)
        assert abs(lhs - 2.0) < 1e-9
        assert abs(rhs - 5.464101615137754) < 1e-6

    def test_random_sweep(self, rng):
        for _ in range(200):
            phi, chi = random_factor(4, rng), random_factor(4, rng)
            lhs, rhs = continuity_gap(phi, chi, 2)
            assert lhs <= rhs + 1e-9

    def test_nearby_states(self, rng):
        for _ in range(200):
            m = random_density(4, rng)
            phi = density_factor(m)
            chi = density_factor(0.99 * m + 0.01 * np.eye(4) / 4)
            lhs, rhs = continuity_gap(phi, chi, 2)
            assert lhs <= rhs + 1e-9


class TestStacks:
    """A stack of factors gives, member by member, what single-factor calls give."""

    @staticmethod
    def random_stack(d, rng, count=6):
        # full rank, rank 2 and pure members, each as a d x d factor (zero columns past
        # its rank): the fidelity's zero-mode rule is exercised
        return np.array([density_factor(random_density(d, rng, rank=[d, 2, 1][t % 3]))
                         for t in range(count)])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("a_leg", [0, 1])
    def test_members_match_single_calls(self, dims, a_leg, rng):
        layout = SystemLayout(dims)
        d, da, db = layout.total_dim, dims[a_leg], dims[1 - a_leg]
        phis, chis = (rows_a_first(self.random_stack(d, rng), dims, a_leg) for _ in range(2))
        posts = [random_channel(db, db, 2, stream) for stream in rng.spawn(len(phis))]
        infos = coherent_information(phis, da)
        margins = check_dpi(phis, da, np.array([p.kraus_stack() for p in posts]))
        shared = check_dpi(phis, da, posts[0].kraus_stack())
        lhs, rhs = continuity_gap(phis, chis, da)
        fids = uhlmann_fidelity(phis, chis)
        for values in (infos, margins, shared, lhs, rhs, fids):
            assert values.shape == (len(phis),)
        for t, post in enumerate(posts):
            one, other = phis[t], chis[t]
            single = [coherent_information(one, da), check_dpi(one, da, post.kraus_stack()),
                      check_dpi(one, da, posts[0].kraus_stack()), *continuity_gap(one, other, da),
                      uhlmann_fidelity(one, other)]
            assert all(type(v) is float for v in single)
            stacked = [infos[t], margins[t], shared[t], lhs[t], rhs[t], fids[t]]
            assert np.max(np.abs(np.subtract(stacked, single))) < 1e-12

    def test_postprocessings_must_match_the_stack(self, rng):
        phis = self.random_stack(4, rng)
        kraus = random_channel(2, 2, 2, rng).kraus_stack()
        with pytest.raises(ValueError):
            check_dpi(phis, 2, np.array([kraus] * 5))
        with pytest.raises(ValueError):
            check_dpi(phis, 2, np.array([kraus] * 6)[..., :1])


class TestFactorRoute:
    """The factor functions against the density-matrix route on the same states."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("a_leg", [0, 1])
    @pytest.mark.parametrize("rank", [1, 2, 6])
    def test_matches_density_matrices(self, dims, a_leg, rank, rng):
        layout = SystemLayout(dims)
        d, da, db = layout.total_dim, dims[a_leg], dims[1 - a_leg]
        g = [rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
             for _ in range(2)]
        phi, chi = (x / np.linalg.norm(x) for x in g)
        post = random_channel(db, 3, 2, rng)
        rho, sigma = (DensityOperator(x @ x.conj().T, layout) for x in (phi, chi))
        before = dense_coherent_information(rho, [1 - a_leg])
        # the B leg last, then (I_A (x) post) on it
        moved = rho.matrix.reshape(dims * 2).transpose(
            a_leg, 1 - a_leg, 2 + a_leg, 3 - a_leg).reshape(d, d)
        a_first = DensityOperator(moved, SystemLayout([dims[a_leg], db]))
        after = dense_coherent_information(apply_with_reference(post, a_first, 1), [1])
        fid = dense_uhlmann_fidelity(rho.matrix, sigma.matrix)
        gap = abs(before - dense_coherent_information(sigma, [1 - a_leg]))
        bound = 4 * np.sqrt(max(0.0, 1 - fid)) * np.log2(dims[a_leg]) + 2
        # the factors with A's rows first, as the factor functions read them
        phi_a, chi_a = rows_a_first(phi, dims, a_leg), rows_a_first(chi, dims, a_leg)
        assert abs(coherent_information(phi_a, da) - before) < 1e-12
        assert abs(check_dpi(phi_a, da, post.kraus_stack()) - (before - after)) < 1e-12
        assert np.max(np.abs(np.subtract(continuity_gap(phi_a, chi_a, da), (gap, bound)))) < 1e-9


def identity_pair():
    graph = ConnectionGraph.diagonal([2, 2])
    ch = product_channel([identity_channel([2]), identity_channel([2])], graph)
    return ch, graph


def isotropic_scan_best_rate(ch, points=2001):
    """Independent 1-parameter oracle: inputs cos(t)|00> + sin(t)|11>."""
    best = -np.inf
    for t in np.linspace(0.0, np.pi / 2, points):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.cos(t), np.sin(t)
        state = DensityOperator.from_vector(v, SystemLayout([2, 2]))
        out = apply_with_reference(ch, state, ref_legs=1)
        best = max(best, dense_coherent_information(out, [1]))
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
            ic = dense_coherent_information(out.reduced([i, 2 + i]), [1])
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
        # a NaN or infinite weight is named before any descent, with no RuntimeWarning
        for bad in [(float("nan"), 1.0), (float("inf"), 1.0)]:
            with pytest.raises(ValueError, match="weights must be finite"):
                region_sample(ch, graph, 1, bad, make_rng(0))

    def test_blocklength_cap(self):
        ch, graph = identity_pair()
        with pytest.raises(CapExceededError):
            region_sample(ch, graph, 5, (1.0, 1.0), make_rng(0))
        # a blocklength-2 input of dimension 128^2 is past MAX_DIM
        with pytest.raises(CapExceededError):
            region_sample(identity_channel([128]), ConnectionGraph.single(128), 2, (1.0,),
                          make_rng(0))

    def test_rate_tuple_invariants(self):
        with pytest.raises(ValueError):
            RateTuple(rates=(2.5,), dims=(2,), blocklength=1, weights=(1.0,),
                      objective=2.5, sender_states=(np.ones(4),), restart_index=0)


class TestRegionPareto:
    def test_identity_pair_frontier(self):
        ch, graph = identity_pair()
        grid = [(1.0, 1.0), (1.0, 0.2), (0.2, 1.0)]
        points = region_sweep(ch, graph, 1, grid, make_rng(31), restarts=4)
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
        points = region_sweep(ch, graph, 1, [(1.0, 0.0), (0.0, 1.0)], make_rng(41),
                              restarts=8)
        best0 = max(p.achievable[0] for p in points)
        best1 = max(p.achievable[1] for p in points)
        assert abs(best0 - want) < 1e-3
        assert abs(best1 - want) < 1e-3

    def test_sweep_runs_one_sample_per_weight_on_spawned_streams(self):
        ch, graph = identity_pair()
        grid = [(1.0, 0.0), (0.5, 0.5)]
        points = region_sweep(ch, graph, 1, grid, make_rng(61), restarts=2)
        streams = make_rng(61).spawn(2)
        for p, w, s in zip(points, grid, streams):
            want = region_sample(ch, graph, 1, w, s, restarts=2)
            assert p.weights == w and p.rates == want.rates
        with pytest.raises(ValueError):
            region_sweep(ch, graph, 1, [], make_rng(61))

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
        infos.append(dense_coherent_information(marg, range(1, n + 1)))
    return infos


class TestBatchedObjective:
    """The batched objective against the density-matrix route, row by row."""

    GRAPHS = {
        "diagonal": ConnectionGraph.diagonal([2, 2]),
        "multiple_access": ConnectionGraph([(0, 0, 2), (1, 0, 2)]),
        "broadcast": ConnectionGraph([(0, 0, 2), (0, 1, 2)]),
        "two_plus_one": ConnectionGraph([(0, 0, 2), (0, 1, 2), (1, 1, 2)]),
        # sender-major, connection and receiver-major orders all differ
        "shuffled": ConnectionGraph([(1, 1, 2), (0, 0, 3), (0, 1, 2)]),
    }

    @pytest.mark.parametrize("name, n", [
        ("diagonal", 1), ("diagonal", 2), ("multiple_access", 1), ("multiple_access", 2),
        ("broadcast", 1), ("broadcast", 2), ("two_plus_one", 1), ("shuffled", 1),
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


def tensor_power_superops(ch, graph, n):
    """Each connection's n-use marginal superoperator, summed over all K^n Kraus
    operators of the tensor power: sup[(b, b'), (x, x')] =
    sum_k sum_c A_k[(b, c), x] conj(A_k[(b', c), x']), c over the other outputs."""
    d1 = graph.total_dim()
    one = KrausChannel(connection_kraus(ch, graph).reshape(-1, d1, d1), graph.dims, graph.dims)
    dims = graph.powered(n).dims
    d_in = d1**n
    kraus = tensor_power(one, n).kraus_stack().reshape(-1, *dims, d_in)
    sups = []
    for i, d in enumerate(dims):
        ops = np.moveaxis(kraus, 1 + i, 1).reshape(len(kraus), d, -1, d_in)
        ops = ops.transpose(0, 1, 3, 2).reshape(len(kraus), d * d_in, -1)
        s = sum(a @ a.conj().T for a in ops)
        sups.append(s.reshape(d, d_in, d, d_in).transpose(0, 2, 1, 3).reshape(d * d, -1))
    return sups


def fold_order(sup, graph, n, i):
    """Connection i's map sup[(b, b'), (x, x')] in fold order [(a, a'), (o, o'), (b, b')]:
    a over the inputs of the sender holding i, o over every other sender's inputs,
    sender after sender, each sender's (o, o') together."""
    dims = graph.powered(n).dims
    g = len(dims)
    senders = [grp for grp in graph.sender_groups() if grp]
    own = next(grp for grp in senders if i in grp)
    legs = [leg for grp in [own] + [grp for grp in senders if grp != own]
            for leg in [1 + j for j in grp] + [1 + g + j for j in grp]]
    folded = sup.reshape(-1, *dims, *dims).transpose(legs + [0])
    return folded.reshape(int(np.prod([dims[j] for j in own])) ** 2, -1, sup.shape[0])


class TestBlocklengthSuperoperators:
    """The n-use problem is built from one use's marginal superoperators."""

    GRAPHS = TestBatchedObjective.GRAPHS
    CASES = [("diagonal", 2), ("diagonal", 3), ("multiple_access", 2), ("multiple_access", 3),
             ("broadcast", 2), ("broadcast", 3), ("shuffled", 2)]

    @pytest.mark.parametrize("name, n", CASES)
    def test_match_tensor_power_oracle(self, name, n):
        graph = self.GRAPHS[name]
        d = graph.total_dim()
        ch = random_channel(d, d, 3, make_rng(91))
        problem = _RegionProblem(ch, graph, n)
        for i, want in enumerate(tensor_power_superops(ch, graph, n)):
            assert np.max(np.abs(problem.fold_ops[i] - fold_order(want, graph, n, i))) < 1e-12

    @pytest.mark.parametrize("name, n", CASES)
    def test_lifted_product_is_additive(self, name, n):
        # n copies of a one-use product input give n times its coherent informations
        graph = self.GRAPHS[name]
        d = graph.total_dim()
        rng = make_rng(93)
        ch = random_channel(d, d, 3, rng)
        one = _RegionProblem(ch, graph, 1)
        parts = unit_parts(rng.standard_normal(2 * sum(one.part_dims)), one.part_dims)
        lifted = _lift_sender_states([p[0] for p in parts], graph, n)
        got = _RegionProblem(ch, graph, n).coherent_infos([s[None] for s in lifted])
        want = n * one.coherent_infos(parts)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_more_kraus_operators_than_the_power_cap(self):
        # K^2 = 4225 Kraus operators would exceed MAX_KRAUS; only K are ever formed
        graph = ConnectionGraph.single(2)
        rng = make_rng(95)
        ch = random_channel(2, 2, 65, rng)
        one = _RegionProblem(ch, graph, 1)
        parts = unit_parts(rng.standard_normal(2 * sum(one.part_dims)), one.part_dims)
        lifted = _lift_sender_states([p[0] for p in parts], graph, 2)
        got = _RegionProblem(ch, graph, 2).coherent_infos([s[None] for s in lifted])
        assert np.max(np.abs(got - 2 * one.coherent_infos(parts))) < 1e-12


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
        ("shuffled", 1),
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
        states = [p[0] for p in unit_parts(rng.standard_normal(2 * sum(dims)), dims)]
        got = tangent_gradient(states, [g[0] for g in problem.packed_gradient(
            [s[None] for s in states], weights)])
        # fourth-order central difference, over the real coordinates, of the batched
        # objective at the renormalized points
        x = np.concatenate(states).view(float)
        h = 1e-3
        steps = np.array([2.0, 1.0, -1.0, -2.0]) * h
        pts = x[None, None, :] + steps[None, :, None] * np.eye(x.size)[:, None, :]
        vals = -(problem.coherent_infos(unit_parts(pts.reshape(-1, x.size), dims)) @ weights)
        vals = vals.reshape(x.size, 4)
        fd = (-vals[:, 0] + 8.0 * vals[:, 1] - 8.0 * vals[:, 2] + vals[:, 3]) / (12.0 * h)
        want = tangent_gradient(states, np.split(fd.view(complex) / 2.0, np.cumsum(dims)[:-1]))
        assert np.linalg.norm(want) > 0.1
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("pair", [readme_pair, identity_pair])
    @pytest.mark.parametrize("n", [1, 2])
    def test_stationary_at_maximally_entangled_start(self, pair, n):
        # rho_RB is rank-deficient here, so the floored eigenvalues are in play
        ch, graph = pair()
        problem = _RegionProblem(ch, graph, n)
        # a sender's part holds its refs then its inputs: dimension D ** 2
        states = [maximally_entangled_vector(int(np.sqrt(p))) for p in problem.part_dims]
        grad = [g[0] for g in problem.packed_gradient([s[None] for s in states],
                                                       np.array([1.0, 1.0]))]
        assert all(np.all(np.isfinite(g)) for g in grad)
        assert np.linalg.norm(tangent_gradient(states, grad)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_readme_pair_closed_form(self, n):
        # dephasing(0.1) reaches 1 - h2(0.1) at every blocklength (it is degradable);
        # depolarizing(2, 0.3) is past its hashing point, so its best rate is 0.
        # At n = 3 the warm starts alone descend (a random start there is slow).
        ch, graph = readme_pair()
        rt = region_sample(ch, graph, n, (1.0, 1.0), make_rng(81), restarts=4 if n < 3 else 0)
        h2 = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
        assert abs(rt.rates[0] - (1.0 - h2)) < 1e-9
        assert abs(rt.achievable[1]) < 1e-9


class FullInputRoute:
    """The full-input route that the folded objective replaced, as an oracle.

    Each connection's reduced input sigma_i = Tr_{other refs} |psi><psi| is
    taken over the *whole* joint input and pushed through the n-use
    superoperator of the K^n-operator tensor power; the gradient pulls X_i back
    through that map's adjoint onto (R_i, the joint input) and then onto each
    sender by the product rule.
    """

    def __init__(self, problem, ch, graph, n):
        self.problem = problem
        g = problem.graph.size
        d_in = problem.graph.total_dim()
        sups = tensor_power_superops(ch, graph, n)
        # transposed: it multiplies vectorized operators from the right
        self.superops_t = [sup.T for sup in sups]
        # the adjoint map sup^dag as adj[x][(b, b'), x'] = conj(sup)[(b, b'), (x, x')]
        self.adjoints = [sup.conj().reshape(-1, d_in, d_in).transpose(1, 0, 2) for sup in sups]
        # joint legs (sender-major): per sender, ref blocks then input blocks
        legs = [(side, i) for grp in problem.groups for side in "RA" for i in grp]
        pos = {leg: p for p, leg in enumerate(legs)}
        self.leg_dims = [problem.block_dims[i] for _, i in legs]
        self.d_in = problem.graph.total_dim()
        # per connection: joint legs -> (R_i, the other refs, the inputs in index order)
        self.leg_axes = []
        for i in range(g):
            refs = [pos["R", i]] + [pos["R", j] for j in range(g) if j != i]
            axes = [0] + [1 + p for p in refs + [pos["A", j] for j in range(g)]]
            self.leg_axes.append((axes, [self.leg_dims[a - 1] for a in axes[1:]],
                                  np.argsort(axes)))

    def connection_legs(self, ket, i, inverse=False):
        axes, dims, back = self.leg_axes[i]
        rows = ket.shape[0]
        if inverse:
            return ket.reshape(rows, *dims).transpose(back).reshape(rows, -1)
        legs = ket.reshape(rows, *self.leg_dims).transpose(axes)
        return legs.reshape(rows, dims[0], -1, self.d_in)

    def output_states(self, psi, i):
        rows, d = psi.shape[:2]
        sigma = psi.swapaxes(2, 3)[:, :, None] @ psi.conj()[:, None]
        rho = (sigma.reshape(rows, d * d, -1) @ self.superops_t[i]).reshape(
            rows, d, d, d, d)
        rho_rb = rho.transpose(0, 1, 3, 2, 4).reshape(rows, d * d, d * d)
        return rho_rb, np.trace(rho, axis1=1, axis2=2)

    def coherent_infos(self, parts):
        rows = parts[0].shape[0]
        out = np.empty((rows, self.problem.graph.size))
        for r in range(rows):
            ket = kron_rows([p[r : r + 1] for p in parts])
            for i in range(self.problem.graph.size):
                rho_rb, rho_b = self.output_states(self.connection_legs(ket, i), i)
                out[r, i] = (entropy_of_spectrum(eigh(rho_b, vectors=False)[0])
                             - entropy_of_spectrum(eigh(rho_rb, vectors=False)[0]))[0]
        return out

    def packed_gradient(self, parts, weights):
        rows = [self.row_gradient([p[r : r + 1] for p in parts], weights)
                for r in range(parts[0].shape[0])]
        return [np.concatenate(g) for g in zip(*rows)]

    def row_gradient(self, parts, weights):
        problem = self.problem
        ket = kron_rows(parts)
        grad = np.zeros_like(ket)
        d_in = self.d_in
        for i, (d, adj) in enumerate(zip(problem.block_dims, self.adjoints)):
            if weights[i] == 0:
                continue
            psi = self.connection_legs(ket, i)
            rho_rb, rho_b = self.output_states(psi, i)
            log_rb = _log2m(rho_rb).reshape(1, d, d, d, d).transpose(0, 1, 3, 2, 4)
            x_rr = np.eye(d)[:, :, None, None] * _log2m(rho_b)[:, None, None] - log_rb
            y = (x_rr.reshape(1, 1, d * d, -1) @ adj).reshape(1, d_in, d, d, d_in)
            y = y.transpose(0, 2, 1, 3, 4).reshape(1, d, d_in, d * d_in)
            y_psi = y @ psi.swapaxes(2, 3).reshape(1, 1, d * d_in, -1)
            grad += weights[i] * self.connection_legs(y_psi.swapaxes(2, 3), i, inverse=True)
        grad = grad.reshape(1, *problem.part_dims)
        senders = range(len(parts))
        out = []
        for w in senders:
            args = [grad, [0, *(v + 1 for v in senders)]]
            for v in senders:
                if v != w:
                    args += [parts[v].conj(), [0, v + 1]]
            out.append(np.einsum(*args, [0, w + 1]))
        return out


class TestFoldedObjective:
    """The folded objective and its gradient against the full-input route, row by row."""

    # three senders: each connection has more than one other sender's marginal to fold in
    GRAPHS = dict(TestRegionGradient.GRAPHS,
                  three_senders=ConnectionGraph([(0, 0, 2), (1, 0, 2), (2, 1, 2)]))

    @staticmethod
    def random_parts(problem, rows, rng):
        parts = []
        for p in problem.part_dims:
            z = rng.standard_normal((rows, p)) + 1j * rng.standard_normal((rows, p))
            parts.append(z / np.linalg.norm(z, axis=1, keepdims=True))
        return parts

    def assert_matches_full_input_route(self, oracle, rows, rng):
        problem = oracle.problem
        weights = rng.uniform(0.2, 1.5, problem.graph.size)
        parts = self.random_parts(problem, rows, rng)
        got = problem.coherent_infos(parts)
        assert np.max(np.abs(got - oracle.coherent_infos(parts))) < 1e-12
        for w in (weights, np.where(np.arange(len(weights)) == 1, 0.0, weights)):
            got = problem.packed_gradient(parts, w)
            want = oracle.packed_gradient(parts, w)
            assert [g.shape for g in got] == [(rows, p) for p in problem.part_dims]
            assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_matches_full_input_route(self, name, n):
        graph = self.GRAPHS[name]
        d = graph.total_dim()
        rng = make_rng(101)
        ch = random_channel(d, d, 3, rng)
        problem = _RegionProblem(ch, graph, n)
        # a batch over two evaluation blocks, the last one ragged
        problem.block_rows = 3
        self.assert_matches_full_input_route(FullInputRoute(problem, ch, graph, n), 4, rng)

    def test_readme_pair_blocklength_three(self):
        ch, graph = readme_pair()
        oracle = FullInputRoute(_RegionProblem(ch, graph, 3), ch, graph, 3)
        self.assert_matches_full_input_route(oracle, 3, make_rng(103))

    @pytest.mark.parametrize("name, n", [("diagonal", 2), ("diagonal", 3), ("broadcast", 2),
                                         ("two_plus_one", 2), ("shuffled", 1)])
    def test_block_stacks_fit_the_budget(self, name, n):
        # one block's sigma_i, folded-map and rho_RB stacks (with the rho that rho_RB is
        # copied from) stay within BLOCK_BYTES; the widest connection's would not
        # with one more row
        graph = self.GRAPHS[name]
        d = graph.total_dim()
        rng = make_rng(105)
        problem = _RegionProblem(random_channel(d, d, 3, rng), graph, n)
        rows = problem.block_rows
        parts = self.random_parts(problem, rows, rng)
        marginals = problem._input_marginals(parts)
        per_row = []
        for i in range(graph.size):
            sigma, fold, rho_rb = problem._folded_states(parts, marginals, i)[1:4]
            assert sigma.shape[0] == fold.shape[0] == rho_rb.shape[0] == rows
            held = sigma.nbytes + fold.nbytes + 2 * rho_rb.nbytes
            assert held <= BLOCK_BYTES
            per_row.append(held // rows)
        assert (rows + 1) * max(per_row) > BLOCK_BYTES
