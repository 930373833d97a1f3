import numpy as np
import pytest

from confsym.geometry import Metric

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
