import numpy as np
import pytest

from polychan import make_rng
from polychan._optim import minimize_product_states


def random_hermitian(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


class ProductEnergy:
    """<psi|H|psi> over product states psi = c_0 (x) c_1 (x) ..., with its exact
    gradient df/d conj(c_w) at one point."""

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

    def gradient(self, states):
        h_psi = (self.h @ self.ket([s[None, :] for s in states])[0]).reshape(self.dims)
        parts = range(len(states))
        out = []
        for w in parts:
            args = [h_psi, list(parts)]
            for v in parts:
                if v != w:
                    args += [states[v].conj(), [v]]
            out.append(np.einsum(*args, [w]))
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
