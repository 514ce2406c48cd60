import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import quadratic_overlap_oracle, random_density, tangent_gradient, unit_parts
from polychan import (
    ConnectionGraph,
    average_fidelity_mc,
    channel_fidelity,
    channel_fidelity_report,
    dephasing,
    depolarizing,
    group_fidelity,
    haar_state,
    identity_channel,
    make_rng,
    min_subspace_fidelity,
    product_channel,
    pure_state_fidelity,
    random_channel,
)
from polychan import fidelities
from polychan.channels import KrausChannel, connection_kraus
from polychan.errors import CapExceededError
from polychan.fidelities import MC_DRAW_ROWS, SUBSET_CAP, QuadraticOverlap

QUBIT_GRAPH = ConnectionGraph.single(2)
PAIR_GRAPH = ConnectionGraph.diagonal([2, 2])


def mixed_inputs(graph):
    return [np.eye(d) / d for d in graph.dims]


def trace_form_fidelity(ch, graph, inputs):
    """Independent oracle: F_e = sum_K |tr(rho_prod A_K)|^2 with connection-ordered
    Kraus tensors (no purification machinery)."""
    rho = inputs[0]
    for extra in inputs[1:]:
        rho = np.kron(rho, extra)
    g = graph.size
    d = int(np.prod(graph.dims))
    total = 0.0
    for t in connection_kraus(ch, graph):
        a = t.reshape(d, d)
        total += abs(np.trace(a @ rho)) ** 2
    return total


def random_pair_channel(rng, kraus=3):
    return random_channel(4, 4, kraus, rng), PAIR_GRAPH


def subset_average_oracle(ch, graph):
    """Exact average from the subset decomposition of the report's group channel
    fidelities: removed subsets S in itertools order, each weighted by
    d / prod_{j in S} d_j (the empty kept group counts 1), over prod_i (d_i + 1)."""
    g, dims = graph.size, graph.dims
    groups = channel_fidelity_report(ch, graph).group_values
    d_total = float(np.prod(dims))
    total = 0.0
    for r in range(g + 1):
        for removed in itertools.combinations(range(g), r):
            coeff = d_total / float(np.prod([dims[j] for j in removed])) if removed else d_total
            kept = frozenset(range(g)) - frozenset(removed)
            total += coeff * (groups[kept] if kept else 1.0)
    return total / float(np.prod([d + 1 for d in dims]))


class TestEntanglementFidelity:
    def test_identity(self, rng):
        for _ in range(3):
            rho = random_density(2, rng)
            assert abs(group_fidelity(identity_channel([2]), [rho], QUBIT_GRAPH) - 1) < 1e-10

    def test_fully_depolarizing(self):
        val = group_fidelity(depolarizing(2, 1.0), mixed_inputs(QUBIT_GRAPH), QUBIT_GRAPH)
        assert abs(val - 0.25) < 1e-12

    def test_dephasing_direct_oracle(self):
        # 4x4 oracle: overlap of (1-p)Phi+ + p Phi- with Phi+
        p = 0.4
        val = group_fidelity(dephasing(p), mixed_inputs(QUBIT_GRAPH), QUBIT_GRAPH)
        assert abs(val - (1 - p)) < 1e-12

    def test_matches_trace_form_oracle(self, rng):
        for d in (2, 3):
            graph = ConnectionGraph.single(d)
            ch = random_channel(d, d, 3, rng)
            rho = random_density(d, rng)
            got = group_fidelity(ch, [rho], graph)
            want = trace_form_fidelity(ch, graph, [rho])
            assert abs(got - want) < 1e-12

    def test_convexity(self, rng):
        # F_e(sum p_i rho_i) <= sum p_i F_e(rho_i)
        for _ in range(25):
            ch = random_channel(2, 2, 2, rng)
            a, b = random_density(2, rng), random_density(2, rng)
            lam = rng.uniform()
            mix = lam * a + (1 - lam) * b
            lhs = group_fidelity(ch, [mix], QUBIT_GRAPH)
            rhs = lam * group_fidelity(ch, [a], QUBIT_GRAPH) + (
                1 - lam
            ) * group_fidelity(ch, [b], QUBIT_GRAPH)
            assert lhs <= rhs + 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_densities(self, bad):
        # named before the purification's eigendecomposition, which would warn or
        # return NaN
        ch = identity_channel([2, 2])
        density = np.array([[bad, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="connection 0 contains non-finite"):
            group_fidelity(ch, [density, [1, 0]], PAIR_GRAPH)
        with pytest.raises(ValueError, match="connection 1 contains non-finite"):
            group_fidelity(ch, [np.eye(2) / 2, density], PAIR_GRAPH)

    @pytest.mark.parametrize("density, check", [
        (np.eye(2), "trace"), (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (np.ones((1, 2)) / 2, "square"),
    ], ids=["trace", "negative", "not_square"])
    def test_rejects_a_non_density_matrix(self, density, check):
        with pytest.raises(ValueError, match=check):
            group_fidelity(identity_channel([2]), [density], QUBIT_GRAPH)


class TestGroupFidelities:
    def test_identity_local_values(self, rng):
        ch = product_channel([identity_channel([2]), identity_channel([2])], PAIR_GRAPH)
        inputs = mixed_inputs(PAIR_GRAPH)
        for i in (0, 1):
            assert abs(group_fidelity(ch, inputs, PAIR_GRAPH, [i]) - 1) < 1e-10

    def test_identity_times_depolarizing(self):
        ch = product_channel([identity_channel([2]), depolarizing(2, 1.0)], PAIR_GRAPH)
        inputs = mixed_inputs(PAIR_GRAPH)
        assert abs(group_fidelity(ch, inputs, PAIR_GRAPH, [0]) - 1.0) < 1e-10
        assert abs(group_fidelity(ch, inputs, PAIR_GRAPH, [1]) - 0.25) < 1e-10
        assert abs(group_fidelity(ch, inputs, PAIR_GRAPH) - 0.25) < 1e-10

    def test_full_group_equals_global(self, rng):
        ch, graph = random_pair_channel(rng)
        inputs = [random_density(2, rng) for _ in range(2)]
        a = group_fidelity(ch, inputs, graph, [0, 1])
        b = group_fidelity(ch, inputs, graph)
        assert abs(a - b) < 1e-10

    def test_subset_monotonicity(self, rng):
        # F^[G'] <= F^[G] + tol whenever G subset of G' (tracing cannot decrease)
        for _ in range(10):
            ch, graph = random_pair_channel(rng)
            inputs = [random_density(2, rng) for _ in range(2)]
            full = group_fidelity(ch, inputs, graph, [0, 1])
            for single in ([0], [1]):
                assert group_fidelity(ch, inputs, graph, single) >= full - 1e-9

    def test_invalid_subset(self, rng):
        ch, graph = random_pair_channel(rng)
        with pytest.raises(ValueError):
            group_fidelity(ch, mixed_inputs(graph), graph, [7])


class TestChannelFidelityRoutes:
    def test_identity(self):
        for d in (2, 3):
            g = ConnectionGraph.single(d)
            ch = identity_channel([d])
            assert abs(channel_fidelity(ch, g, "definition") - 1) < 1e-12
            assert abs(channel_fidelity(ch, g, "kraus_trace") - 1) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.7, 1.0])
    def test_depolarizing_closed_form(self, p):
        # both routes must agree with 1 - 3p/4 from the Kraus traces
        ch = depolarizing(2, p)
        want = 1 - 3 * p / 4
        assert abs(channel_fidelity(ch, QUBIT_GRAPH, "definition") - want) < 1e-12
        assert abs(channel_fidelity(ch, QUBIT_GRAPH, "kraus_trace") - want) < 1e-12

    def test_two_qubit_fully_depolarizing(self):
        ch = product_channel([depolarizing(2, 1.0), depolarizing(2, 1.0)], PAIR_GRAPH)
        assert abs(channel_fidelity(ch, PAIR_GRAPH, "definition") - 1 / 16) < 1e-12

    def test_routes_agree_on_random_channels(self, rng):
        for _ in range(20):
            ch, graph = random_pair_channel(rng)
            a = channel_fidelity(ch, graph, "definition")
            b = channel_fidelity(ch, graph, "kraus_trace")
            assert abs(a - b) < 1e-10

    def test_group_routes_agree(self, rng):
        for _ in range(10):
            ch, graph = random_pair_channel(rng)
            inputs = mixed_inputs(graph)
            groups = channel_fidelity_report(ch, graph).group_values
            assert len(groups) == 3
            for kept, b in groups.items():
                assert abs(group_fidelity(ch, inputs, graph, kept) - b) < 1e-10

    def test_routes_agree_on_a_128_dimensional_channel(self):
        # seven qubit links: the purification is 128 x 128, within MAX_DIM on either side
        graph = ConnectionGraph.diagonal([2] * 7)
        noise = random_channel(128, 128, 2, make_rng(41))
        ops = [np.sqrt(0.9) * np.eye(128)] + [np.sqrt(0.1) * k for k in noise.kraus_ops]
        ch = KrausChannel(ops, [2] * 7, [2] * 7)
        a = channel_fidelity(ch, graph, "definition")
        b = channel_fidelity(ch, graph, "kraus_trace")
        assert abs(a - b) < 1e-12
        inputs = mixed_inputs(graph)
        groups = channel_fidelity_report(ch, graph).group_values
        for kept in ([0], [1, 3, 5]):
            a = group_fidelity(ch, inputs, graph, kept)
            assert abs(a - groups[frozenset(kept)]) < 1e-12

    def test_kraus_route_connection_cap_before_work(self):
        # 27 one-dimensional connections: the guard fires before any contraction
        graph = ConnectionGraph.diagonal([1] * 27)
        with pytest.raises(CapExceededError, match="too many connections"):
            channel_fidelity(identity_channel([1] * 27), graph, "kraus_trace")

    @pytest.mark.parametrize("g", [26, 32])
    def test_definition_route_connection_cap_before_work(self, g, monkeypatch):
        # the overlap einsum needs 2g + 1 labels and numpy has 52; at 32 connections
        # the sent states would also pass numpy's 64 dimensions
        graph = ConnectionGraph.diagonal([1] * g)
        ch = identity_channel([1] * g)
        if g == 26:
            assert abs(channel_fidelity(ch, graph, "kraus_trace") - 1.0) < 1e-12
            small = ConnectionGraph.diagonal([1] * 25)
            assert abs(channel_fidelity(identity_channel([1] * 25), small) - 1.0) < 1e-12

        def no_contraction(*args):
            raise AssertionError("contraction started")

        monkeypatch.setattr(fidelities, "kron_all", no_contraction)
        with pytest.raises(CapExceededError, match="too many connections"):
            channel_fidelity(ch, graph, "definition")

    @pytest.mark.parametrize("entry", ["stacked pure_state_fidelity", "average_fidelity_mc",
                                       "min_subspace_fidelity"])
    def test_kernel_connection_cap_before_work(self, entry, monkeypatch):
        # the kernel takes no more connections than the definitional route it is checked
        # against (2g + 1 einsum labels), and says so before the Kraus stack is built
        def run(g):
            graph, ch = ConnectionGraph.diagonal([1] * g), identity_channel([1] * g)
            if entry == "average_fidelity_mc":
                return average_fidelity_mc(ch, graph, 2, make_rng(0))[0]
            if entry == "min_subspace_fidelity":
                return min_subspace_fidelity(ch, graph, make_rng(0), restarts=1)[0]
            return pure_state_fidelity(ch, graph, [np.ones((3, 1))] * g)

        assert np.all(np.abs(run(25) - 1.0) < 1e-12)

        def no_contraction(*args):
            raise AssertionError("contraction started")

        monkeypatch.setattr(fidelities, "connection_kraus", no_contraction)
        with pytest.raises(CapExceededError, match="too many connections"):
            run(26)

    def test_kraus_route_identity_group(self):
        ch = product_channel([identity_channel([2]), depolarizing(2, 1.0)], PAIR_GRAPH)
        groups = channel_fidelity_report(ch, PAIR_GRAPH).group_values
        assert abs(groups[frozenset([0])] - 1.0) < 1e-12

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            channel_fidelity(identity_channel([2]), QUBIT_GRAPH, "nope")

    def test_rectangular_rejects_graph(self, rng):
        ch = random_channel(2, 3, 3, rng)
        with pytest.raises(ValueError):
            channel_fidelity(ch, QUBIT_GRAPH, "kraus_trace")


class TestPureStateFidelity:
    def test_stack_validation(self, rng):
        states = [np.array([haar_state(2, rng) for _ in range(3)]) for _ in range(2)]
        with pytest.raises(ValueError):
            pure_state_fidelity(identity_channel([2, 2]), PAIR_GRAPH, [states[0], states[1][:2]])
        states[1][1] = 0.0
        with pytest.raises(ValueError):
            pure_state_fidelity(identity_channel([2, 2]), PAIR_GRAPH, states)
        with pytest.raises(ValueError):
            pure_state_fidelity(identity_channel([2, 2]), PAIR_GRAPH, [states[0][:, :1], states[0]])

    def test_rejects_single_states(self, rng):
        # one product state of 1-D vectors is group_fidelity's input, not a stack
        psi = haar_state(2, rng)
        with pytest.raises(ValueError, match="group_fidelity"):
            pure_state_fidelity(identity_channel([2]), QUBIT_GRAPH, [psi])
        with pytest.raises(ValueError, match="group_fidelity"):
            pure_state_fidelity(identity_channel([2, 2]), PAIR_GRAPH, [psi[None], psi])

    def test_identity(self, rng):
        psi = haar_state(2, rng)
        assert abs(group_fidelity(identity_channel([2]), [psi], QUBIT_GRAPH) - 1) < 1e-10

    def test_fully_depolarizing_pair(self, rng):
        ch = product_channel([depolarizing(2, 1.0), depolarizing(2, 1.0)], PAIR_GRAPH)
        states = [haar_state(2, rng), haar_state(2, rng)]
        assert abs(group_fidelity(ch, states, PAIR_GRAPH) - 0.25) < 1e-12

    def test_dephasing_plus_state(self):
        # 2x2 oracle
        p = 0.3
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert abs(group_fidelity(dephasing(p), [plus], QUBIT_GRAPH) - (1 - p)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_states(self, bad, rng):
        # named before any contraction, as one 1-D state to group_fidelity (next to a
        # pure or a mixed input) and on the stacked path, where one bad row would
        # otherwise give one NaN
        ch = identity_channel([2, 2])
        good, state = haar_state(2, rng), np.array([bad, 1], dtype=complex)
        with pytest.raises(ValueError, match="connection 1 contains non-finite"):
            group_fidelity(ch, [good, state], PAIR_GRAPH)
        with pytest.raises(ValueError, match="connection 1 contains non-finite"):
            group_fidelity(ch, [np.eye(2) / 2, state], PAIR_GRAPH)
        stacks = [np.array([haar_state(2, rng) for _ in range(2)]) for _ in range(2)]
        stacks[0][1] = state
        with pytest.raises(ValueError, match="connection 0 contains non-finite"):
            pure_state_fidelity(ch, PAIR_GRAPH, stacks)


class TestAverageFidelity:
    def test_exact_identity_pair(self):
        ch = product_channel([identity_channel([2]), identity_channel([2])], PAIR_GRAPH)
        assert abs(channel_fidelity_report(ch, PAIR_GRAPH).average - 1.0) < 1e-12

    def test_exact_fully_depolarizing_pair(self):
        # analytic subset values: (1/9)(4/16 + 1/2 + 1/2 + 1) = 1/4
        ch = product_channel([depolarizing(2, 1.0), depolarizing(2, 1.0)], PAIR_GRAPH)
        assert abs(channel_fidelity_report(ch, PAIR_GRAPH).average - 0.25) < 1e-12

    def test_single_connection_reduction(self, rng):
        # |G| = 1 closed form (d F_c + 1) / (d + 1)
        for d in (2, 3):
            graph = ConnectionGraph.single(d)
            ch = random_channel(d, d, 2, rng)
            fc = channel_fidelity(ch, graph, "kraus_trace")
            want = (d * fc + 1) / (d + 1)
            assert abs(channel_fidelity_report(ch, graph).average - want) < 1e-12

    def test_mc_identity(self):
        ch = identity_channel([2])
        mean, stderr = average_fidelity_mc(ch, QUBIT_GRAPH, 2000, make_rng(3))
        assert abs(mean - 1.0) < 1e-12
        assert stderr < 1e-12

    def test_mc_constant_integrand(self, rng):
        ch = product_channel([depolarizing(2, 1.0), depolarizing(2, 1.0)], PAIR_GRAPH)
        mean, stderr = average_fidelity_mc(ch, PAIR_GRAPH, 2000, make_rng(4))
        assert abs(mean - 0.25) < 1e-12

    def test_mc_depolarizing_matches_exact(self):
        ch = depolarizing(2, 1.0)
        exact = channel_fidelity_report(ch, QUBIT_GRAPH).average
        assert abs(exact - 0.5) < 1e-12
        mean, stderr = average_fidelity_mc(ch, QUBIT_GRAPH, 20000, make_rng(5))
        assert abs(mean - exact) <= 3 * stderr + 1e-12

    def test_mc_matches_exact_random(self, rng):
        cases = [(ConnectionGraph.single(2), random_channel(2, 2, 2, rng)),
                 (ConnectionGraph.single(3), random_channel(3, 3, 3, rng)),
                 (PAIR_GRAPH, random_channel(4, 4, 3, rng)),
                 (ConnectionGraph.diagonal([2, 3]), random_channel(6, 6, 3, rng))]
        for graph, ch in cases:
            exact = channel_fidelity_report(ch, graph).average
            mean, stderr = average_fidelity_mc(ch, graph, 50000, make_rng(6))
            assert abs(mean - exact) <= 3 * stderr

    def test_large_d_gap_shrinks(self):
        # |F_bar - F_c| = (1 - F_c) / (d + 1) for one connection; fixed p
        p = 0.3
        gaps = []
        for d in (2, 4, 16):
            graph = ConnectionGraph.single(d)
            ch = depolarizing(d, p)
            gap = abs(channel_fidelity_report(ch, graph).average
                      - channel_fidelity(ch, graph, "kraus_trace"))
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_pure_fidelity_haar_average(self, rng):
        # sampling pure-state fidelities at Haar states estimates the exact average
        ch = random_channel(2, 2, 2, rng)
        exact = channel_fidelity_report(ch, QUBIT_GRAPH).average
        vals = [
            group_fidelity(ch, [haar_state(2, stream)], QUBIT_GRAPH)
            for stream in make_rng(8).spawn(4000)
        ]
        vals = np.asarray(vals)
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 4 * stderr

    def test_mc_draw_order(self, monkeypatch):
        # draw blocks of MC_DRAW_ROWS samples, connection after connection, real parts
        # then imaginary parts; each sample rebuilt and sent through the single-vector
        # route; 20 samples in blocks of 7 leave a short last block
        graph = ConnectionGraph.diagonal([2, 3])
        ch = random_channel(6, 6, 3, make_rng(4))
        monkeypatch.setattr(fidelities, "MC_DRAW_ROWS", 7)
        mean, stderr = average_fidelity_mc(ch, graph, 20, make_rng(9))
        stream, vals = make_rng(9), []
        for b in (7, 7, 6):
            states = [stream.standard_normal((b, d)) + 1j * stream.standard_normal((b, d))
                      for d in graph.dims]
            vals += [group_fidelity(ch, [s[r] for s in states], graph) for r in range(b)]
        assert abs(mean - np.mean(vals)) < 1e-13
        assert abs(stderr - np.std(vals, ddof=1) / np.sqrt(20)) < 1e-13

    def test_mc_memory_stays_under_one_draw_blocks_kets(self, rng):
        # five qubit links: one draw block's product kets would be 16 * MC_DRAW_ROWS * 32
        # bytes; the kernel forms kets one row block at a time, so the draws, their
        # states and the per-sample values stay well under that
        ch = random_channel(32, 32, 3, rng)
        tracemalloc.start()
        try:
            average_fidelity_mc(ch, CROSS5_GRAPH, 100000, make_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * MC_DRAW_ROWS * 32


class TestMinSubspaceFidelity:
    def test_identity(self):
        val, _ = min_subspace_fidelity(identity_channel([2]), QUBIT_GRAPH, make_rng(0),
                                       restarts=4)
        assert abs(val - 1.0) < 1e-9

    def test_qutrit_killer_grid_oracle(self):
        # channel: identity on span{|0>,|1>}, |2> -> |0>
        p01 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        k2 = np.zeros((3, 3), dtype=complex)
        k2[0, 2] = 1.0
        ch = KrausChannel([p01, k2], [3], [3])
        graph = ConnectionGraph.single(3)

        # coarse exhaustive grid over qutrit pure states
        def fid(psi):
            return group_fidelity(ch, [psi], graph)

        grid_best = 1.0
        steps = np.linspace(0, 1, 5)
        phases = np.exp(2j * np.pi * np.linspace(0, 0.75, 4))
        for a in steps:
            for b in steps:
                if a + b > 1:
                    continue
                c = 1 - a - b
                for u in phases:
                    for v in phases:
                        psi = np.array([np.sqrt(a), np.sqrt(b) * u, np.sqrt(c) * v])
                        grid_best = min(grid_best, fid(psi))
        val, states = min_subspace_fidelity(ch, graph, make_rng(23), restarts=8)
        assert val <= grid_best + 1e-9
        assert val < 1e-8
        assert abs(states[0][2]) ** 2 > 1 - 1e-6

    def test_dephasing_equator(self):
        # closed form: F(psi) = 1 - 2 p |alpha|^2 |beta|^2 * 2, minimized at the equator
        p = 0.25
        val, states = min_subspace_fidelity(dephasing(p), QUBIT_GRAPH, make_rng(1), restarts=8)
        grid = [
            1 - 2 * p * (t * (1 - t)) * 2
            for t in np.linspace(0, 1, 2001)
        ]
        assert abs(val - min(grid)) < 1e-9
        assert abs(val - (1 - p)) < 1e-9
        assert abs(abs(states[0][0]) ** 2 - 0.5) < 1e-4


CROSS5_GRAPH = ConnectionGraph([(s, r, 2) for s, r in [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)]])


class TestQuadraticOverlap:
    """Values and gradients of the product-state fidelity kernel, against the
    definitional overlap route, a complex-arithmetic oracle and finite differences."""

    # the one case, named in the test ids: input order != output order
    CASES = ["cross5"]

    def build(self, rng):
        """(channel, graph, kernel) for the case."""
        ch = random_channel(32, 32, 3, rng)
        return ch, CROSS5_GRAPH, QuadraticOverlap(ch, CROSS5_GRAPH)

    @pytest.mark.parametrize("rows", [1, 17])
    @pytest.mark.parametrize("case", CASES)
    def test_batch_values_match_overlap_route(self, case, rows, rng):
        ch, graph, problem = self.build(rng)
        psis = unit_parts(rng.standard_normal((rows, 2 * sum(problem.dims))), problem.dims)
        got = problem.batch_values(psis)
        assert got.shape == (rows,)
        for r in range(rows):
            want = group_fidelity(ch, [p[r] for p in psis], graph)
            assert abs(got[r] - want) < 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_gradient_matches_central_differences(self, case, rng):
        *_, problem = self.build(rng)
        dims = problem.dims
        n = 2 * sum(dims)
        # sixth-order central stencil: truncation and round-off both near 1e-14 here
        h, stencil = 2e-3, [(1, 3 / 4), (2, -3 / 20), (3, 1 / 60)]
        for _ in range(3):
            states = [p[0] for p in unit_parts(rng.standard_normal(n), dims)]
            grad = tangent_gradient(states, [g[0] for g in problem.packed_gradient(
                [s[None] for s in states])])
            # over the real coordinates, at the renormalized points
            x = np.concatenate(states).view(float)
            fd = np.zeros(n)
            for k, c in stencil:
                step = k * h * np.eye(n)
                fd += c * (problem.batch_values(unit_parts(x + step, dims))
                           - problem.batch_values(unit_parts(x - step, dims))) / h
            assert np.max(np.abs(grad - fd.view(complex))) < 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_ragged_blocks_match_one_block(self, case, rng):
        # blocks of 3 over 7 rows leave a short last block
        *_, problem = self.build(rng)
        psis = unit_parts(rng.standard_normal((7, 2 * sum(problem.dims))), problem.dims)
        assert min(problem.value_rows, problem.gradient_rows) >= 7
        values, grads = problem.batch_values(psis), problem.packed_gradient(psis)
        problem.value_rows = problem.gradient_rows = 3
        assert np.max(np.abs(problem.batch_values(psis) - values)) < 1e-14
        for got, want in zip(problem.packed_gradient(psis), grads):
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("dims", [(1,), (3,), (1, 2, 3), (2,) * 6])
    def test_values_match_complex_oracle(self, dims, rng):
        # the real-coordinate kernel against sum_K |phi^dag R_K phi|^2 in complex
        # arithmetic, over three whole row blocks and a short last one
        graph = ConnectionGraph.diagonal(list(dims))
        d = graph.total_dim()
        problem = QuadraticOverlap(random_channel(d, d, 3, rng), graph)
        rows = 3 * problem.value_rows + 5
        psis = unit_parts(rng.standard_normal((rows, 2 * sum(dims))), dims)
        want = quadratic_overlap_oracle(problem.red, psis)
        assert np.max(np.abs(problem.batch_values(psis) - want)) < 1e-13


class TestCrossedGraph:
    """Graphs whose input and output block orders differ from connection order, so
    every ordering convention in the engine is exercised.  In "crossed", sender 0
    feeds receiver 1 and vice versa.  In "shuffled", sender-major order (1, 2, 0),
    receiver-major order (1, 0, 2) and connection order all differ, and so do the
    dimensions."""

    GRAPHS = {
        "crossed": ConnectionGraph([(0, 1, 2), (1, 0, 3)]),
        "shuffled": ConnectionGraph([(1, 1, 2), (0, 0, 3), (0, 1, 2)]),
    }

    def crossed(self, rng):
        for graph in self.GRAPHS.values():
            parts = [random_channel(d, d, 2, rng) for d in graph.dims]
            yield product_channel(parts, graph), graph, parts

    def test_routes_agree(self, rng):
        for ch, graph, _ in self.crossed(rng):
            a = channel_fidelity(ch, graph, "definition")
            b = channel_fidelity(ch, graph, "kraus_trace")
            assert abs(a - b) < 1e-10

    def test_product_factorizes(self, rng):
        for ch, graph, parts in self.crossed(rng):
            part_fcs = [channel_fidelity(part, ConnectionGraph.single(d), "kraus_trace")
                        for part, d in zip(parts, graph.dims)]
            assert abs(channel_fidelity(ch, graph, "kraus_trace") - np.prod(part_fcs)) < 1e-10
            groups = channel_fidelity_report(ch, graph).group_values
            for i, part_fc in enumerate(part_fcs):
                assert abs(groups[frozenset([i])] - part_fc) < 1e-10

    def test_exact_average_matches_subset_oracle(self, rng):
        # the report's one enumeration sums the same terms in the same order
        for ch, graph, _ in self.crossed(rng):
            for case in (ch, random_channel(graph.total_dim(), graph.total_dim(), 3, rng)):
                want = subset_average_oracle(case, graph)
                assert channel_fidelity_report(case, graph).average == want

    def test_mc_matches_exact(self, rng):
        for ch, graph, _ in self.crossed(rng):
            exact = channel_fidelity_report(ch, graph).average
            mean, stderr = average_fidelity_mc(ch, graph, 50000, make_rng(12))
            assert abs(mean - exact) <= 3 * stderr

    def test_mc_batch_matches_pure_state_fidelity(self, rng):
        # the stacked call runs the Monte Carlo kernel: two whole row blocks and a short
        # tail, and a batch shorter than one block, against the single-vector route
        for ch, graph, _ in self.crossed(rng):
            problem = QuadraticOverlap(ch, graph)
            for rows in (2 * problem.value_rows + 5, 3):
                states = [np.array([haar_state(dim, rng) for _ in range(rows)])
                          for dim in graph.dims]
                got = pure_state_fidelity(ch, graph, states)
                assert got.shape == (rows,)
                for r in range(rows):
                    want = group_fidelity(ch, [s[r] for s in states], graph)
                    assert abs(got[r] - want) < 1e-12


class TestFidelityReport:
    def test_identity_report(self):
        ch = product_channel([identity_channel([2]), identity_channel([2])], PAIR_GRAPH)
        report = channel_fidelity_report(ch, PAIR_GRAPH)
        assert abs(report.global_value - 1) < 1e-12
        assert all(abs(v - 1) < 1e-12 for v in report.group_values.values())
        report.check()

    def test_report_invariants_random(self, rng):
        for _ in range(5):
            ch, graph = random_pair_channel(rng)
            channel_fidelity_report(ch, graph).check()

    def test_average_matches_subset_oracle_random(self, rng):
        for _ in range(5):
            ch, graph = random_pair_channel(rng)
            report = channel_fidelity_report(ch, graph)
            assert report.average == subset_average_oracle(ch, graph)

    def test_subset_cap_before_work(self):
        # 17 one-dimensional connections: the cap is checked before any contraction
        graph = ConnectionGraph.diagonal([1] * 17)
        ch = identity_channel([1] * 17)
        with pytest.raises(CapExceededError, match=f"capped at {SUBSET_CAP} connections"):
            channel_fidelity_report(ch, graph)
