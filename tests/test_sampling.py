"""The rejection samplers keep the sample stream of their one-try loops.

Each reference below is the one-try loop the sampler replaced, kept as the
oracle: for the same generator state a sampler must return the same values
and leave the generator in the same state, so the next draw is the same.
"""

import numpy as np
import pytest

from confsym import sampling
from confsym.geometry import Metric, conformal_factor


def ref_off_cone_points(rng, dim, n, scale=0.6, min_frac=0.05):
    metric = Metric(dim)
    out = np.empty((n, dim))
    count = 0
    while count < n:
        x = rng.normal(0.0, scale, size=dim)
        if abs(metric.norm2(x)) > min_frac * (1.0 + float(x @ x)):
            out[count] = x
            count += 1
    return out


def ref_timelike_points(rng, dim, n, min_square=0.2):
    metric = Metric(dim)
    out = np.empty((n, dim))
    count = 0
    while count < n:
        x = rng.normal(0.0, 0.4, size=dim)
        x[0] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        if metric.norm2(x) > min_square:
            out[count] = x
            count += 1
    return out


def ref_nonsingular_pairs(rng, dim, n, point_scale=0.6, param_scale=0.15, min_factor=0.2):
    metric = Metric(dim)
    xs = np.empty((n, dim))
    cs = np.empty((n, dim))
    count = 0
    while count < n:
        x = rng.normal(0.0, point_scale, size=dim)
        c = rng.normal(0.0, param_scale, size=dim)
        if abs(conformal_factor(x, c, metric)) > min_factor:
            xs[count] = x
            cs[count] = c
            count += 1
    return xs, cs


def ref_polynomial_components(rng, dim, n_comp, degree=3, n_terms=6, scale=0.5):
    components = []
    for _ in range(n_comp):
        monos = []
        for _ in range(n_terms):
            while True:
                exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=dim))
                if sum(exps) <= degree:
                    break
            monos.append((float(rng.normal(0.0, scale)), exps))
        components.append(tuple(monos))
    return tuple(components)


def _polynomial_components(rng, *args, **kwargs):
    return sampling.random_polynomial_multiplet(rng, *args, **kwargs).components


def _pairs(draw):
    return lambda rng, *args, **kwargs: np.concatenate(draw(rng, *args, **kwargs), axis=-1)


SAMPLERS = {
    "off_cone_points": (sampling.off_cone_points, ref_off_cone_points),
    "timelike_points": (sampling.timelike_points, ref_timelike_points),
    "nonsingular_pairs": (_pairs(sampling.nonsingular_pairs), _pairs(ref_nonsingular_pairs)),
}


def _same_stream(new, ref, seed, *args, **kwargs):
    """Both samplers, from one generator state: equal values, equal end
    state and an equal next draw."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = new(rng_new, *args, **kwargs), ref(rng_ref, *args, **kwargs)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert np.array_equal(rng_new.normal(size=3), rng_ref.normal(size=3))
    assert rng_new.integers(0, 7) == rng_ref.integers(0, 7)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [0, 1, 7, 250])
def test_sampler_keeps_the_one_try_stream(name, dim, n):
    new, ref = SAMPLERS[name]
    _same_stream(new, ref, [dim, n, 13], dim, n)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_comp", [1, 3])
def test_polynomial_multiplet_keeps_the_one_try_stream(dim, n_comp):
    _same_stream(_polynomial_components, ref_polynomial_components, [dim, n_comp], dim, n_comp)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_rare_acceptance_draws_several_blocks(monkeypatch, dim):
    # few tries pass, so each call needs more than its first block
    _same_stream(sampling.off_cone_points, ref_off_cone_points, dim, dim, 40, min_frac=0.5)
    monkeypatch.setattr(sampling, "MIN_FACTOR", 0.9)
    _same_stream(
        _pairs(sampling.nonsingular_pairs), lambda *args: _pairs(ref_nonsingular_pairs)(*args, min_factor=0.9),
        dim, dim, 40,
    )


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("n", [1, 7, 250])
def test_timelike_points_keeps_the_one_try_stream_on_many_seeds(seed, n):
    for dim in (3, 6):
        _same_stream(sampling.timelike_points, ref_timelike_points, seed, dim, n)


class _CountingMetric(Metric):
    """A metric that records the number of points each ``norm2`` call gets."""

    calls = []

    def norm2(self, x):
        self.calls.append(len(x))
        return super().norm2(x)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_timelike_points_rare_acceptance_takes_several_rounds(monkeypatch, seed, dim):
    # few tries pass, so the sampler draws several rounds, each of as many
    # tries as it still needs points, and tests each round once
    monkeypatch.setattr(_CountingMetric, "calls", [])
    monkeypatch.setattr(sampling, "Metric", _CountingMetric)
    monkeypatch.setattr(sampling, "MIN_SQUARE", 3.0)
    _same_stream(sampling.timelike_points, lambda *args: ref_timelike_points(*args, min_square=3.0), seed, dim, 40)
    rounds = _CountingMetric.calls
    assert len(rounds) >= 3 and rounds[0] == 40
    assert all(later <= earlier for earlier, later in zip(rounds, rounds[1:]))


@pytest.mark.parametrize("seed", range(4))
def test_polynomial_multiplet_at_both_extremes(seed):
    # about 2% of exponent tries pass at D = 6; every try passes at D = 1
    _same_stream(_polynomial_components, ref_polynomial_components, seed, 6, 2, n_terms=9)
    _same_stream(_polynomial_components, ref_polynomial_components, seed, 1, 3, degree=4)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_negative_count_raises(name):
    new, ref = SAMPLERS[name]
    with pytest.raises(ValueError):
        ref(np.random.default_rng(0), 3, -1)
    with pytest.raises(ValueError):
        new(np.random.default_rng(0), 3, -1)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("dim", [2, 6])
def test_zero_count_draws_nothing(name, dim):
    new, _ = SAMPLERS[name]
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    width = 2 * dim if name == "nonsingular_pairs" else dim
    assert new(rng, dim, 0).shape == (0, width)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_default_acceptance_takes_one_round(monkeypatch, seed, dim):
    # the first block holds enough accepted tries, so each call tests
    # acceptance once (a first block of n tries needs a second round)
    calls = []

    def counted(fn):
        return lambda *args: calls.append(len(args[0])) or fn(*args)

    monkeypatch.setattr(sampling, "_inner", counted(sampling._inner))
    monkeypatch.setattr(sampling, "conformal_factor", counted(sampling.conformal_factor))
    sampling.off_cone_points(np.random.default_rng(seed), dim, 100)
    assert len(calls) == 1 and calls[0] > 100
    calls.clear()
    sampling.nonsingular_pairs(np.random.default_rng(seed), dim, 250)
    assert len(calls) == 1 and calls[0] > 250


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("min_frac", [0.05, 0.1, 0.15])
def test_off_cone_rate_is_a_floor_of_the_acceptance(dim, min_frac):
    x = np.random.default_rng([dim, round(100 * min_frac)]).normal(0.0, 0.6, (20_000, dim))
    passed = abs(Metric(dim).norm2(x)) > min_frac * (1.0 + np.vecdot(x, x))
    assert sampling._off_cone_rate(dim, min_frac) < np.mean(passed)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_off_cone_first_block_follows_the_dimension(monkeypatch, seed, dim):
    # most tries pass from D = 3 on: a 100-point call tests one block well
    # under the 229 tries that a floor of one half asks for
    sizes = []
    inner = sampling._inner
    monkeypatch.setattr(sampling, "_inner", lambda u, v: sizes.append(len(u)) or inner(u, v))
    sampling.off_cone_points(np.random.default_rng(seed), dim, 100)
    assert len(sizes) == 1 and 100 < sizes[0] < 140


class _Recorder:
    """Stands in for a generator: counts its ``integers`` calls and each
    time its bit generator's state is set."""

    def __init__(self, rng):
        self.rng, self.integers_calls, self.state_sets = rng, 0, 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.state_sets += 1
        self.rng.bit_generator.state = value

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self.rng.integers(*args, **kwargs)

    def normal(self, *args, **kwargs):
        return self.rng.normal(*args, **kwargs)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("degree", [1, 3, 4])
def test_no_over_draw_where_every_try_passes(seed, degree):
    # at D = 1 every exponent try passes: one integers call per monomial,
    # and nothing drawn ahead, so the state is never set back
    rng = _Recorder(np.random.default_rng(seed))
    components = sampling.random_polynomial_multiplet(rng, 1, 3, degree=degree).components
    assert rng.integers_calls == 3 * 6 and rng.state_sets == 0
    assert components == ref_polynomial_components(np.random.default_rng(seed), 1, 3, degree=degree)
