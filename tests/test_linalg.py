import re

import numpy as np
import pytest

from conftest import dense_uhlmann_fidelity, density_factor, random_density
from polychan import (
    eigh,
    entropy,
    haar_unitary,
    kron,
    make_rng,
    maximally_entangled_vector,
    partial_trace,
    uhlmann_fidelity,
)
from polychan.errors import CapExceededError
from polychan.linalg import (
    EIGENVALUE_TOL,
    MAX_ARRAY_RANK,
    check_density,
    check_factor,
    PAULI_X,
    entropy_of_spectrum,
    permute_legs_vector,
)


def naive_partial_trace(m, dims, keep):
    """Index-summation oracle with explicit loops."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)
    shape = tuple(dims)
    t = m.reshape(shape + shape)
    for row in np.ndindex(*[dims[i] for i in keep]):
        for col in np.ndindex(*[dims[i] for i in keep]):
            for tr in np.ndindex(*[dims[i] for i in traced]):
                ia = [0] * len(dims)
                ib = [0] * len(dims)
                for k, i in enumerate(keep):
                    ia[i] = row[k]
                    ib[i] = col[k]
                for k, i in enumerate(traced):
                    ia[i] = tr[k]
                    ib[i] = tr[k]
                r = np.ravel_multi_index(row, [dims[i] for i in keep]) if keep else 0
                c = np.ravel_multi_index(col, [dims[i] for i in keep]) if keep else 0
                out[r, c] += t[tuple(ia) + tuple(ib)]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_basis_action(self):
        v00 = np.zeros(4)
        v00[0] = 1.0
        assert np.allclose(kron(PAULI_X, PAULI_X) @ v00, [0, 0, 0, 1])

    def test_cap(self):
        with pytest.raises(CapExceededError):
            kron(np.eye(100), np.eye(100))


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        phi = maximally_entangled_vector(2)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(partial_trace(rho, [2, 2], {0}), np.eye(2) / 2, atol=1e-12)

    def test_product_case(self, rng):
        a = random_density(2, rng)
        b = random_density(3, rng)
        got = partial_trace(np.kron(a, b), [2, 3], {0})
        assert np.allclose(got, a, atol=1e-12)

    def test_against_naive_oracle(self, rng):
        m = random_density(8, rng)
        for keep in ({0}, {1}, {0, 1}):
            got = partial_trace(m, [2, 4], keep)
            want = naive_partial_trace(m, [2, 4], keep)
            assert np.max(np.abs(got - want)) < 1e-12
            assert abs(np.trace(got) - np.trace(m)) < 1e-12

    def test_psd_preserved(self, rng):
        for _ in range(20):
            m = random_density(12, rng)
            out = partial_trace(m, [2, 3, 2], {1})
            assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) > -1e-10

    def test_bad_index(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 2], {5})

    def test_rejects_a_stack(self, rng):
        with pytest.raises(ValueError):
            partial_trace(np.array([random_density(4, rng)] * 2), [2, 2], {0})

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match leg dimension 3"):
            partial_trace(np.eye(4) / 4, [3], [0])

    def test_label_cap_before_work(self):
        # 27 legs, all kept: 54 einsum labels, past numpy's 52; raised before the
        # 54-axis reshape, which numpy < 2 would refuse with its own ValueError
        with pytest.raises(CapExceededError, match="too many legs"):
            partial_trace(np.eye(1), [1] * 27, range(27))

    def test_rank_cap_before_work(self):
        # one leg more than half of numpy's axis limit: the reshape to row and column
        # legs would take two axes past it
        legs = MAX_ARRAY_RANK // 2 + 1
        with pytest.raises(CapExceededError, match=f"too many legs \\({legs}\\) for one array"):
            partial_trace(np.eye(1), [1] * legs, [0])

    @pytest.mark.skipif(MAX_ARRAY_RANK < 54, reason="numpy < 2 reshapes to at most 32 axes")
    def test_27_legs_keeping_one(self):
        # 28 labels: one per row leg and one for the kept column leg
        assert np.array_equal(partial_trace(np.eye(1), [1] * 27, [0]), [[1.0]])


class TestPermute:
    def test_vector_roundtrip(self, rng):
        v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        w = permute_legs_vector(v, [2, 3, 4], [2, 0, 1])
        back = permute_legs_vector(w, [4, 2, 3], [1, 2, 0])
        assert np.allclose(back, v)


class TestEigh:
    def test_diagonal(self):
        w, _ = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1, 2, 3])

    def test_pauli_x(self):
        w, _ = eigh(PAULI_X)
        assert np.allclose(w, [-1, 1])

    def test_reconstruction(self, rng):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (g + g.conj().T) / 2
        w, v = eigh(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_density_eigenvalues_sum_to_one(self, rng):
        w, _ = eigh(random_density(5, rng))
        assert abs(np.sum(w) - 1.0) < 1e-9

    def test_stack_matches_members(self, rng):
        stack = np.stack([random_density(4, rng) for _ in range(5)])
        w, v = eigh(stack)
        values_only, none = eigh(stack, vectors=False)
        assert none is None
        for k, m in enumerate(stack):
            wk, vk = eigh(m)
            assert np.allclose(w[k], wk) and np.allclose(values_only[k], wk)
            assert np.max(np.abs(v[k] @ np.diag(w[k]) @ v[k].conj().T - m)) < 1e-12

    def test_stack_rejects_one_non_hermitian_member(self, rng):
        stack = np.stack([random_density(3, rng) for _ in range(4)])
        stack[2, 0, 1] += 1e-6
        for vectors in (True, False):
            with pytest.raises(ValueError, match="not Hermitian"):
                eigh(stack, vectors=vectors)


class TestEntropy:
    def test_spectrum_stack_matches_rows(self):
        spectra = np.array([[1.0, 0.0, 0.0, 0.0], [0.25] * 4, [0.5, 0.5, 0.0, 0.0]])
        got = entropy_of_spectrum(spectra)
        assert got.shape == (3,)
        assert np.array_equal(got, [entropy_of_spectrum(w) for w in spectra])
        assert np.allclose(got, [0.0, 2.0, 1.0])

    def test_spectrum_stack_rejects_one_negative_row(self):
        spectra = np.array([[0.5, 0.5], [1.0 + 2 * EIGENVALUE_TOL, -2 * EIGENVALUE_TOL],
                            [1.0, 0.0]])
        with pytest.raises(ValueError, match="below"):
            entropy_of_spectrum(spectra)
        # the same row inside the tolerance is clipped, not rejected
        spectra[1] = [1.0 + EIGENVALUE_TOL / 2, -EIGENVALUE_TOL / 2]
        assert np.allclose(entropy_of_spectrum(spectra), [1.0, 0.0, 0.0])

    def test_pure_state(self):
        assert entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            assert abs(entropy(np.eye(d) / d) - np.log2(d)) < 1e-12

    def test_known_spectrum(self):
        # scalar oracle: -(0.75 log2 0.75 + 0.25 log2 0.25)
        got = entropy(np.diag([0.75, 0.25]).astype(complex))
        assert abs(got - 0.8112781244591328) < 1e-12

    def test_unitary_invariance(self, rng):
        rho = random_density(4, rng)
        u = haar_unitary(4, rng)
        assert abs(entropy(rho) - entropy(u @ rho @ u.conj().T)) < 1e-9

    def test_rejects_too_negative(self):
        bad = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            entropy(bad)


class TestHaar:
    def test_unitarity(self, rng):
        for d in (1, 2, 5):
            u = haar_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10

    def test_seed_reproducible(self):
        a = haar_unitary(4, make_rng(99))
        b = haar_unitary(4, make_rng(99))
        assert np.array_equal(a, b)

    def test_first_moment(self):
        # Monte Carlo check of the Haar identity E[U rho U^dag] = I/d
        rng = make_rng(7)
        rho = np.diag([0.9, 0.1]).astype(complex)
        n = 100000
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            u = haar_unitary(2, rng)
            acc += u @ rho @ u.conj().T
        acc /= n
        # entries fluctuate at scale ~ 1/sqrt(n)
        assert np.max(np.abs(acc - np.eye(2) / 2)) < 3 * 2.0 / np.sqrt(n)

    def test_fourth_moment(self):
        # E |<0|U|0>|^4 = 2 / (d (d + 1))
        rng = make_rng(11)
        d, n = 2, 100000
        vals = np.empty(n)
        for i in range(n):
            u = haar_unitary(d, rng)
            vals[i] = abs(u[0, 0]) ** 4
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 2 / (d * (d + 1))) < 3 * stderr


class TestUhlmannFidelity:
    """The fidelity from factors; a density matrix enters through its eigenvector factor."""

    def test_identical(self, rng):
        phi = density_factor(random_density(3, rng))
        assert abs(uhlmann_fidelity(phi, phi) - 1.0) < 1e-9

    def test_pure_vs_mixed(self, rng):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        sigma = random_density(3, rng)
        want = np.real(psi.conj() @ sigma @ psi)
        # a pure state is its own one-column factor
        got = uhlmann_fidelity(psi[:, None], density_factor(sigma))
        assert abs(got - want) < 1e-9

    def test_commuting_closed_form(self):
        # hand arithmetic: (sqrt(1/2 * 3/4) + sqrt(1/2 * 1/4))^2
        got = uhlmann_fidelity(np.diag(np.sqrt([0.5, 0.5])), np.diag(np.sqrt([0.75, 0.25])))
        assert abs(got - 0.9330127018922192) < 1e-9

    def test_symmetric(self, rng):
        a, b = density_factor(random_density(4, rng)), density_factor(random_density(4, rng))
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-9

    def test_monotone_under_partial_trace(self, rng):
        for _ in range(20):
            a, b = random_density(6, rng), random_density(6, rng)
            fa = uhlmann_fidelity(density_factor(a), density_factor(b))
            fr = uhlmann_fidelity(density_factor(partial_trace(a, [2, 3], {0})),
                                  density_factor(partial_trace(b, [2, 3], {0})))
            assert fr >= fa - 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            uhlmann_fidelity(np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(3))

    def test_matches_matrix_square_roots(self, rng):
        # factors of rank 1 to 4 against (tr |sqrt(rho) sqrt(sigma)|)^2 on the 4 x 4 matrices
        for rank in range(1, 5):
            g = [rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
                 for _ in range(2)]
            phi, chi = (x / np.linalg.norm(x) for x in g)
            want = dense_uhlmann_fidelity(phi @ phi.conj().T, chi @ chi.conj().T)
            assert abs(uhlmann_fidelity(phi, chi) - want) < 1e-9


class TestDensityOperator:
    """Gross defects in a 2x2 matrix; TestCheckDensity probes each check at its
    tolerance."""

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_density(np.diag([1.5, -0.5]).astype(complex))


def bad_density(defect: str) -> np.ndarray:
    """A 3x3 matrix that fails exactly one density-operator check."""
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    if defect == "non_hermitian":
        m[0, 1] = 1e-3
    elif defect == "trace":
        m = np.diag([0.5, 0.4, 0.0]).astype(complex)
    elif defect == "negative":
        m = np.diag([0.5, 0.5 + 1e-6, -1e-6]).astype(complex)
    elif defect == "nan":
        m[1, 2] = m[2, 1] = np.nan
    return m


class TestCheckDensity:
    MESSAGES = {
        "non_hermitian": "density operator not Hermitian (defect 1.000e-03)",
        "trace": "density operator trace (0.9+0j) differs from 1",
        "negative": "density operator has negative eigenvalue -1.000e-06",
        "nan": "density operator contains non-finite entries",
    }

    def test_valid(self, rng):
        rho = random_density(4, rng)
        assert check_density(rho) is rho

    @pytest.mark.parametrize("defect", sorted(MESSAGES))
    def test_single_bad_matrix_fails(self, defect):
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGES[defect])}$"):
            check_density(bad_density(defect))

    def test_rejects_a_stack(self, rng):
        with pytest.raises(ValueError, match="must be a square matrix"):
            check_density(np.array([random_density(4, rng) for _ in range(3)]))


def bad_factor(defect: str) -> np.ndarray:
    """A 3 x 2 factor (of diag(5/8, 3/8, 0)) that fails exactly one factor check."""
    phi = np.sqrt(np.diag([0.5, 0.3, 0.2]).astype(complex))[:, :2] / np.sqrt(0.8)
    if defect == "trace":
        phi *= np.sqrt(0.9)
    elif defect == "nan":
        phi[1, 1] = np.nan
    return phi


class TestCheckFactor:
    """A density factor phi (rho = phi phi^dag) is checked for finite entries and unit
    trace; Hermiticity and positivity hold by construction."""

    MESSAGES = {
        "trace": "density factor trace 0.9 differs from 1",
        "nan": "density factor contains non-finite entries",
    }

    def test_valid_stack_passes(self, rng):
        stack = np.array([density_factor(random_density(3, rng)) for _ in range(5)])
        assert check_factor(stack) is stack
        phi = bad_factor("none")
        assert check_factor(phi) is phi

    @pytest.mark.parametrize("defect", sorted(MESSAGES))
    def test_bad_factor_fails(self, defect, rng):
        message = f"^{re.escape(self.MESSAGES[defect])}$"
        with pytest.raises(ValueError, match=message):
            check_factor(bad_factor(defect))
        stack = np.array([density_factor(random_density(3, rng))[:, :2] for _ in range(5)])
        stack /= np.linalg.norm(stack, axis=(1, 2), keepdims=True)
        stack[2] = bad_factor(defect)
        with pytest.raises(ValueError, match=message):
            check_factor(stack)
