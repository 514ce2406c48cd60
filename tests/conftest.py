import numpy as np
import pytest

from polychan import DensityOperator, SystemLayout, make_rng


@pytest.fixture
def rng():
    return make_rng(1234)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full(ish)-rank density matrix from a Gaussian purification."""
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


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
