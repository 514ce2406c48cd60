import numpy as np
import pytest

from polychan import DensityOperator, SystemLayout, entropy, make_rng, partial_trace


@pytest.fixture
def rng():
    return make_rng(1234)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full(ish)-rank density matrix from a Gaussian purification."""
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def density_factor(rho) -> np.ndarray:
    """A factor phi with rho = phi phi^dag: the eigenvectors scaled by the root eigenvalues."""
    w, v = np.linalg.eigh(rho.matrix if isinstance(rho, DensityOperator) else rho)
    return v * np.sqrt(np.clip(w, 0.0, None))


def dense_coherent_information(rho: DensityOperator, b_legs) -> float:
    """I_c(A>B) = S(rho_B) - S(rho_AB) through the density matrix and its partial trace."""
    return entropy(partial_trace(rho.matrix, rho.layout, b_legs)) - entropy(rho)


def dense_uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """(tr |sqrt(a) sqrt(b)|)^2 through the matrix square roots.

    Eigenvalues of sqrt(a) b sqrt(a) below 1e-14 of the largest are zero modes,
    and round-off up to 1e-9 above 1 is clipped.
    """
    w, v = np.linalg.eigh(a)
    ra = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    s = np.clip(np.linalg.eigvalsh(ra @ b @ ra), 0.0, None)
    s[s < 1e-14 * max(1.0, s[-1])] = 0.0
    val = float(np.sum(np.sqrt(s)) ** 2)
    return min(val, 1.0) if val <= 1.0 + 1e-9 else val


def random_density_operator(dims, rng: np.random.Generator) -> DensityOperator:
    layout = SystemLayout(dims)
    return DensityOperator(random_density(layout.total_dim, rng), layout)


def unit_parts(rows: np.ndarray, dims) -> list[np.ndarray]:
    """Real rows (re, im interleaved) -> per-part complex batches, unit-norm per part."""
    z = np.ascontiguousarray(np.atleast_2d(rows), dtype=float).view(complex)
    parts = np.split(z, np.cumsum(dims)[:-1], axis=1)
    return [p / np.linalg.norm(p, axis=1, keepdims=True) for p in parts]


def tangent_gradient(states, grads) -> np.ndarray:
    """The optimizer's real gradient 2 df/d conj(c), radial parts removed, as one
    complex vector over all parts."""
    return np.concatenate([2.0 * (g - np.vdot(c, g).real * c) for c, g in zip(states, grads)])


def quadratic_overlap_oracle(red: np.ndarray, psis) -> np.ndarray:
    """sum_K |phi^dag R_K phi|^2 per row, in complex arithmetic: phi is the row-wise
    Kronecker product of the per-part states ``psis`` (each (rows, d_i)) and ``red``
    the (K, D, D) stack R_K."""
    phi = psis[0]
    for p in psis[1:]:
        phi = np.einsum("bi,bj->bij", phi, p).reshape(phi.shape[0], -1)
    m = np.einsum("bd,kde,be->kb", phi.conj(), red, phi)
    return np.sum(m.real ** 2 + m.imag ** 2, axis=0)
