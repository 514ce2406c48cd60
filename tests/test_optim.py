import numpy as np
import pytest

from polychan import (
    ConnectionGraph,
    KrausChannel,
    dephasing,
    depolarizing,
    identity_channel,
    make_rng,
    maximally_entangled_vector,
    product_channel,
    random_channel,
)
from polychan import _optim
from polychan._optim import minimize_product_states
from polychan.capacity import _RegionProblem
from polychan.fidelities import QuadraticOverlap


def random_hermitian(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


class ProductEnergy:
    """<psi|H|psi> over product states psi = c_0 (x) c_1 (x) ..., with its exact
    gradient df/d conj(c_w) on stacks of points."""

    def __init__(self, h, dims):
        self.h, self.dims = h, tuple(dims)
        self.seen: list[list[np.ndarray]] = []

    def ket(self, parts):
        ket = parts[0]
        for p in parts[1:]:
            ket = (ket[:, :, None] * p[:, None, :]).reshape(ket.shape[0], -1)
        return ket

    def objective_batch(self, parts):
        self.seen.append([p.copy() for p in parts])
        ket = self.ket(parts)
        return np.einsum("ri,ij,rj->r", ket.conj(), self.h, ket).real

    def gradient(self, parts):
        h_psi = (self.ket(parts) @ self.h.T).reshape(-1, *self.dims)
        legs = [1 + w for w in range(len(parts))]
        out = []
        for w in range(len(parts)):
            args = [h_psi, [0, *legs]]
            for v in range(len(parts)):
                if v != w:
                    args += [parts[v].conj(), [0, legs[v]]]
            out.append(np.einsum(*args, [0, legs[w]]))
        return out

    def minimize(self, seed, **kwargs):
        return minimize_product_states(self.objective_batch, self.dims, make_rng(seed),
                                       self.gradient, **kwargs)


def test_one_part_rayleigh_quotient_reaches_lowest_eigenvalue():
    h = random_hermitian(5, make_rng(3))
    res = ProductEnergy(h, [5]).minimize(11, restarts=4)
    lowest = np.linalg.eigvalsh(h)[0]
    assert abs(res.value - lowest) < 1e-10
    assert abs(np.vdot(res.states[0], h @ res.states[0]).real - lowest) < 1e-10


def test_two_part_local_sum_reaches_sum_of_lowest_eigenvalues():
    rng = make_rng(4)
    h1, h2 = random_hermitian(2, rng), random_hermitian(3, rng)
    h = np.kron(h1, np.eye(3)) + np.kron(np.eye(2), h2)
    res = ProductEnergy(h, [2, 3]).minimize(12, restarts=4)
    want = np.linalg.eigvalsh(h1)[0] + np.linalg.eigvalsh(h2)[0]
    assert abs(res.value - want) < 1e-10
    assert [s.shape for s in res.states] == [(2,), (3,)]


def test_objective_sees_only_unit_rows():
    rng = make_rng(6)
    problem = ProductEnergy(random_hermitian(6, rng), [2, 3])
    # a warm start off the spheres must be normalized before anything sees it
    warm = [[3.0 * np.array([1.0, 1j]), np.array([0.5, 0.0, 2.0])]]
    problem.minimize(13, restarts=3, warm_starts=warm)
    rows = 0
    for parts in problem.seen:
        for p in parts:
            assert np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0)) < 1e-12
        rows += parts[0].shape[0]
    assert rows > 4 * 17  # the starts and at least a few line searches


def test_random_starts_draw_interleaved_re_im():
    problem = ProductEnergy(np.diag(np.arange(6.0)).astype(complex), [2, 3])
    problem.minimize(14, restarts=1, max_iters=0)
    x = make_rng(14).standard_normal(10)
    z = x[0::2] + 1j * x[1::2]
    for got, want in zip(problem.seen[0], (z[:2], z[2:])):
        assert np.array_equal(got[0], want / np.linalg.norm(want))


@pytest.mark.parametrize("dims", [[4], [2, 3]])
def test_same_seed_same_result(dims):
    h = random_hermitian(int(np.prod(dims)), make_rng(7))
    first = ProductEnergy(h, dims).minimize(15, restarts=5, max_iters=20)
    second = ProductEnergy(h, dims).minimize(15, restarts=5, max_iters=20)
    assert first.value == second.value
    assert first.restart_index == second.restart_index
    for a, b in zip(first.states, second.states):
        assert np.array_equal(a, b)


def sequential_descend(objective_batch, gradient, x0, max_iters):
    """One restart at a time, one point per gradient call: L-BFGS on the product of
    spheres, written apart from the batched loop as its oracle.  The last 8 curvature
    pairs are projected onto each new tangent space; a pair is kept only if
    <s, y> > 1e-12 |s| |y|.  The two-loop direction, scaled by <s, y>/<y, y> of the
    newest pair when it was kept, is tried at 4, 2, 1, 1/2 and 1/4 times itself; with
    no pairs, or if it does not descend, the gradient times the last gradient step is
    tried there instead.  If none of those points lowers the value, the pairs are
    dropped and the gradient step is tried at 8, 4, ... 2^-13 times itself.  A point
    lowers the value only if it does so by more than max(1e-13 |f|, 1e-16)."""

    def project(x, v):
        return [vw - np.vdot(c, vw).real * c for c, vw in zip(x, v)]

    def inner(a, b):
        return sum(np.vdot(u, w).real for u, w in zip(a, b))

    def search(x, direction, powers):
        trials = 2.0 ** powers
        cands = [c[None, :] - trials[:, None] * dw[None, :] for c, dw in zip(x, direction)]
        cands = [p / np.linalg.norm(p, axis=1, keepdims=True) for p in cands]
        vals = objective_batch(cands)
        k = int(np.argmin(vals))
        return [p[k] for p in cands], float(vals[k]), trials[k]

    x = x0
    fx = float(objective_batch([c[None, :] for c in x])[0])
    step, pairs, scale, last = 0.5, [], 0.0, None
    for _ in range(max_iters):
        g = project(x, [2.0 * gw[0] for gw in gradient([c[None, :] for c in x])])
        if np.sqrt(inner(g, g)) < 1e-12:
            break
        pairs = [(project(x, s), project(x, y), rho) for s, y, rho in pairs]
        if last is not None:
            s = project(x, last[0])
            y = [a - b for a, b in zip(g, project(x, last[1]))]
            sy = inner(s, y)
            if sy > 1e-12 * np.sqrt(inner(s, s) * inner(y, y)):
                pairs, scale = (pairs + [(s, y, 1.0 / sy)])[-8:], sy / inner(y, y)
        q, alphas = list(g), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * inner(s, q))
            q = [qw - alphas[-1] * yw for qw, yw in zip(q, y)]
        direction = [scale * qw for qw in q]
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * inner(y, direction)
            direction = [dw + (a - b) * sw for dw, sw in zip(direction, s)]
        along_gradient = not pairs or inner(direction, g) <= 0
        if along_gradient:
            direction = [step * gw for gw in g]
        new_x, new_f, t = search(x, direction, np.arange(2, -3, -1))
        target = fx - max(1e-13 * abs(fx), 1e-16)
        if new_f >= target:
            pairs, scale, along_gradient = [], 0.0, True
            direction = [step * gw for gw in g]
            new_x, new_f, t = search(x, direction, np.arange(3, -14, -1))
            if new_f >= target:
                break
        if along_gradient:
            step = float(np.clip(t * step, 1e-12, 1e7))
        last = ([-t * dw for dw in direction], g)
        x, fx = new_x, new_f
    return fx, x


def sequential_values(objective_batch, gradient, part_dims, rng, restarts=32, max_iters=300,
                      warm_starts=()):
    """Every restart's final value, with the starts drawn and descended one at a time."""
    splits = np.cumsum(part_dims)[:-1]
    starts = [[np.asarray(s, dtype=complex) for s in ws] for ws in warm_starts]
    for _ in range(restarts):
        z = rng.standard_normal(2 * int(np.sum(part_dims))).view(complex)
        starts.append(np.split(z, splits))
    starts = [[c / np.linalg.norm(c) for c in x] for x in starts]
    return np.array([sequential_descend(objective_batch, gradient, x0, max_iters)[0]
                     for x0 in starts])


def assert_matches_oracle(objective_batch, gradient, part_dims, seed, **kwargs):
    result = minimize_product_states(objective_batch, part_dims, make_rng(seed), gradient,
                                     **kwargs)
    want = sequential_values(objective_batch, gradient, part_dims, make_rng(seed), **kwargs)
    assert result.values.shape == want.shape
    assert np.max(np.abs(result.values - want)) < 1e-10
    assert abs(result.value - np.min(want)) < 1e-10
    return result


def readme_region(n):
    """Objective, gradient, part dims and maximally entangled warm start of the
    README pair's region problem at weights (1, 1)."""
    graph = ConnectionGraph.diagonal([2, 2])
    ch = product_channel([dephasing(0.1), depolarizing(2, 0.3)], graph)
    problem = _RegionProblem(ch, graph, n)
    weights = np.array([1.0, 1.0])
    warm = [[maximally_entangled_vector(int(np.sqrt(d))) for d in problem.part_dims]]
    return (lambda parts: -(problem.coherent_infos(parts) @ weights),
            lambda parts: problem.packed_gradient(parts, weights), problem.part_dims, warm)


@pytest.mark.parametrize("n, restarts", [(1, 16), (2, 4)])
def test_batched_descent_matches_sequential_on_readme_pair(n, restarts):
    objective, gradient, dims, warm = readme_region(n)
    assert_matches_oracle(objective, gradient, dims, 31, restarts=restarts, warm_starts=warm)


def cross5_problem():
    """The worst-case fidelity problem of near-identity correlated noise on five qubit
    links whose block orders differ."""
    graph = ConnectionGraph([(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 2, 2), (2, 2, 2)])
    routing = product_channel([identity_channel([2])] * graph.size, graph)
    r = routing.kraus_ops[0]
    ops = [np.sqrt(0.95) * r]
    ops += [np.sqrt(0.05) * m @ r for m in random_channel(32, 32, 3, make_rng(1)).kraus_ops]
    ch = KrausChannel(ops, routing.in_layout, routing.out_layout)
    return QuadraticOverlap(ch, graph, {i: np.eye(2) for i in range(graph.size)}, {})


def test_batched_descent_matches_sequential_on_cross5():
    problem = cross5_problem()
    assert_matches_oracle(problem.batch_values, problem.packed_gradient, problem.part_dims, 32)


@pytest.mark.parametrize("seed", [3, 7])
def test_no_cross5_restart_stops_at_max_iters(seed):
    problem = cross5_problem()
    res = minimize_product_states(problem.batch_values, problem.part_dims, make_rng(seed),
                                  problem.packed_gradient)
    assert len(res.stops) == 32 and "max_iters" not in res.stops


@pytest.mark.parametrize("k", range(10))
def test_batched_descent_matches_sequential_near_identity(k):
    # the phase-averaging problems: one or two qubits through the identity plus 1e-3 noise
    rng = make_rng(330 + k)
    graph = ConnectionGraph.single(2) if k < 5 else ConnectionGraph.diagonal([2, 2])
    d = graph.total_dim()
    ops = [np.sqrt(1 - 1e-3) * np.eye(d, dtype=complex)]
    ops += [np.sqrt(1e-3) * m for m in random_channel(d, d, 3, rng).kraus_ops]
    ch = KrausChannel(ops, graph.dims, graph.dims)
    problem = QuadraticOverlap(ch, graph, {i: np.eye(2) for i in range(graph.size)}, {})
    assert_matches_oracle(problem.batch_values, problem.packed_gradient, problem.part_dims,
                          340 + k)


def test_row_stopped_at_iteration_zero_leaves_the_others_descending():
    rng = make_rng(8)
    h1, h2 = random_hermitian(2, rng), random_hermitian(3, rng)
    h = np.kron(h1, np.eye(3)) + np.kron(np.eye(2), h2)
    # the top eigenvector pair is a stationary point: its row stops before any step
    top = [np.linalg.eigh(h1)[1][:, -1], np.linalg.eigh(h2)[1][:, -1]]
    problem = ProductEnergy(h, [2, 3])
    res = assert_matches_oracle(problem.objective_batch, problem.gradient, [2, 3], 16,
                                restarts=4, warm_starts=[top])
    assert res.stops[0] == "grad_norm" and res.iterations[0] == 0
    assert all(i > 0 for i in res.iterations[1:])
    want = np.linalg.eigvalsh(h1)[0] + np.linalg.eigvalsh(h2)[0]
    assert abs(res.value - want) < 1e-10 and res.restart_index > 0
    assert res.agreement == 4


def ladder_points(problem, x, step, multiples):
    """The renormalized steps ``multiples * step`` from the product point ``x`` (one
    vector per part) against its tangent gradient, one row per multiple."""
    g = [gw[0] for gw in problem.gradient([c[None, :] for c in x])]
    tangent = [2.0 * (gw - np.vdot(c, gw).real * c) for c, gw in zip(x, g)]
    pts = [c[None, :] - (step * multiples)[:, None] * t[None, :] for c, t in zip(x, tangent)]
    return [p / np.linalg.norm(p, axis=1, keepdims=True) for p in pts]


WINDOW_POWERS = np.arange(2, -3, -1)
LADDER_POWERS = np.arange(3, -14, -1)


def test_decreasing_windows_send_five_rows_per_active_row():
    problem = ProductEnergy(random_hermitian(6, make_rng(21)), [2, 3])
    res = problem.minimize(22, restarts=4, max_iters=1)
    # every window lowered its row's value, so the iteration made no second call
    assert list(res.iterations) == [1] * 4
    starts, window = problem.seen
    assert window[0].shape[0] == 5 * 4
    for r in range(4):
        want = ladder_points(problem, [p[r] for p in starts], 0.5, 2.0 ** WINDOW_POWERS)
        for got, w in zip(window, want):
            assert np.max(np.abs(got[5 * r:5 * r + 5] - w)) < 1e-12


def test_no_decrease_stop_follows_the_outside_ladder_points():
    problem = ProductEnergy(random_hermitian(5, make_rng(23)), [5])
    res = problem.minimize(24, restarts=1)
    assert res.stops == ("no_decrease",)
    sizes = [parts[0].shape[0] for parts in problem.seen]
    assert sizes[0] == 1 and set(sizes[1:]) == {5, 17}
    assert sizes[-2:] == [5, 17]
    # a 17-row call only ever follows the 5-row window call of the same iteration
    for i in np.flatnonzero(np.array(sizes) == 17):
        assert sizes[i - 1] == 5
    # the last call is the whole ladder along the gradient at the last gradient step
    ladder = problem.seen[-1][0]
    matches = [m for m in range(-45, 25)
               if np.max(np.abs(ladder - ladder_points(problem, res.states, 0.5 * 2.0 ** m,
                                                       2.0 ** LADDER_POWERS)[0])) < 1e-12]
    assert len(matches) == 1


def step_to_two_to_the_minus_six(start_value, target_value):
    """One iteration from a warm start whose objective is ``start_value`` there,
    ``target_value`` at 2^-6 of the start's gradient step 1/2, and higher anywhere else,
    so that only the ladder can find the target.  Returns the result, the target and the
    batch sizes the objective saw."""
    problem = ProductEnergy(random_hermitian(3, make_rng(25)), [3])
    start = np.array([1.0, 0.5j, -0.25])
    start = start / np.linalg.norm(start)
    target = ladder_points(problem, [start], 0.5, np.array([2.0 ** -6]))[0][0]

    def objective(parts):
        problem.seen.append([p.copy() for p in parts])
        at_start = np.max(np.abs(parts[0] - start), axis=1) < 1e-12
        at_target = np.max(np.abs(parts[0] - target), axis=1) < 1e-12
        return np.where(at_target, target_value,
                        np.where(at_start, start_value, abs(start_value) + 1.0))

    res = minimize_product_states(objective, [3], make_rng(26), problem.gradient, restarts=0,
                                  max_iters=1, warm_starts=[[start]])
    return res, target, [parts[0].shape[0] for parts in problem.seen]


def test_row_whose_only_decrease_is_two_to_the_minus_six_still_moves():
    res, target, sizes = step_to_two_to_the_minus_six(0.0, -1.0)
    assert res.value == -1.0 and res.stops == ("max_iters",) and list(res.iterations) == [1]
    assert np.max(np.abs(res.states[0] - target)) < 1e-12
    assert sizes == [1, 5, 17]


@pytest.mark.parametrize("start_value, target_value, moves", [
    (1.0, 1.0 - 2e-13, True), (1.0, 1.0 - 5e-14, False), (-1.0, -1.0 - 5e-14, False),
    (1e-6, 1e-6 - 1e-15, True), (0.0, -2e-16, True), (0.0, -0.5e-16, False),
], ids=["above_ftol", "below_ftol", "below_ftol_negative", "small_f_relative",
        "zero_f_above_floor", "zero_f_below_floor"])
def test_a_decrease_must_beat_ftol_times_the_value_or_the_floor(start_value, target_value,
                                                                  moves):
    # a step counts only if it lowers f by more than max(FTOL |f|, 1e-16): relative to |f|
    # alone, so near f = 0 the 1e-16 floor still lets a row descend
    res, target, sizes = step_to_two_to_the_minus_six(start_value, target_value)
    assert sizes == [1, 5, 17]
    if moves:
        assert res.value == target_value and res.stops == ("max_iters",)
        assert np.max(np.abs(res.states[0] - target)) < 1e-12
    else:
        assert res.value == start_value and res.stops == ("no_decrease",)
    assert list(res.iterations) == [int(moves)]


def test_rounding_level_decreases_end_the_descent(monkeypatch):
    # the Rayleigh quotient of 1 + diag(0, 1e-8, 0.5) in a random basis: once the 0.5
    # direction has converged, the 1e-8 one lowers f by less than FTOL |f| = 1e-13 a
    # step, so the rows stop within a few steps instead of creeping on
    q = np.linalg.qr(random_hermitian(3, make_rng(5)) + 1j * np.eye(3))[0]
    problem = ProductEnergy((q * np.array([1.0, 1.0 + 1e-8, 1.5])) @ q.conj().T, [3])
    res = problem.minimize(41, restarts=4, max_iters=10)
    assert res.stops == ("no_decrease",) * 4 and max(res.iterations) < 10
    assert np.all(res.values - 1.0 < 1e-8)
    # counting every decrease above 1e-16, the same rows are still descending at 10 steps
    monkeypatch.setattr(_optim, "FTOL", 0.0)
    assert problem.minimize(41, restarts=4, max_iters=10).stops == ("max_iters",) * 4


@pytest.mark.parametrize("offsets, best", [([0.0, 1e-13], 0), ([0.0, 1e-11], 1),
                                           ([0.0, 0.9e-12, 1.8e-12], 1)])
def test_restarts_within_1e12_of_the_lowest_go_to_the_lowest_index(offsets, best):
    # with no iterations each restart keeps its start's value, 1 - offsets[r]
    d = len(offsets)
    problem = ProductEnergy(np.diag(1.0 - np.array(offsets)).astype(complex), [d])
    res = problem.minimize(27, restarts=0, max_iters=0, warm_starts=[[e] for e in np.eye(d)])
    assert res.restart_index == best
    assert res.value == res.values[best]
    assert np.array_equal(res.states[0], np.eye(d)[best])


def test_max_iters_is_reported():
    problem = ProductEnergy(random_hermitian(6, make_rng(9)), [2, 3])
    res = problem.minimize(17, restarts=3, max_iters=1)
    assert res.stops == ("max_iters",) * 3
    assert list(res.iterations) == [1, 1, 1]


def test_maximally_entangled_warm_start_is_stationary_on_readme_pair():
    objective, gradient, dims, warm = readme_region(1)
    res = minimize_product_states(objective, dims, make_rng(33), gradient, restarts=2,
                                  warm_starts=warm)
    assert res.stops[0] == "grad_norm" and res.iterations[0] == 0
    assert set(res.stops[1:]) <= {"grad_norm", "no_decrease"}


@pytest.mark.parametrize("restarts, warm", [(-1, 0), (-1, 1), (0, 0)])
def test_no_start_or_negative_restarts_is_rejected(restarts, warm):
    problem = ProductEnergy(random_hermitian(2, make_rng(10)), [2])
    with pytest.raises(ValueError):
        problem.minimize(18, restarts=restarts, warm_starts=[[np.array([1.0, 0.0])]] * warm)


def test_warm_starts_alone_are_enough():
    problem = ProductEnergy(np.diag([1.0, 0.0]).astype(complex), [2])
    res = problem.minimize(19, restarts=0, warm_starts=[[np.array([1.0, 1.0])]])
    assert len(res.values) == 1 and abs(res.value) < 1e-10
