import numpy as np
import pytest

from confsym.geometry import Metric, dilation, lorentz_rotation, special_conformal, translation

SEED = 42


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(params=[3, 4, 5, 6])
def metric(request):
    return Metric(request.param)


@pytest.fixture
def metric4():
    return Metric(4)


@pytest.fixture
def metric3():
    return Metric(3)


def _same_bits(batch, rows):
    """The batched result equals the stacked per-row results bit for bit,
    signed zeros included, in the same dtype."""
    rows = np.array(rows)
    batch = np.asarray(batch)
    assert batch.dtype == rows.dtype
    assert batch.shape == rows.shape
    assert np.array_equal(batch, rows)
    assert batch.tobytes() == rows.tobytes()


@pytest.fixture
def same_bits():
    return _same_bits


def _basis_rows(dim):
    """The generators of ``basis_generators(dim)`` one at a time, in its
    order, each from its own constructor: the per-generator oracle of the
    basis stack."""
    eye = np.eye(dim)
    rotations = []
    for mu in range(dim):
        for nu in range(mu + 1, dim):
            omega = np.zeros((dim, dim))
            omega[mu, nu], omega[nu, mu] = 1.0, -1.0
            rotations.append(lorentz_rotation(omega))
    return [translation(e) for e in eye] + rotations + [dilation(1.0, dim)] + [special_conformal(e) for e in eye]


@pytest.fixture
def basis_rows():
    return _basis_rows
