"""Seeded sample generators shared by the test suite and the CLI checks.

Every generator takes a ``numpy.random.Generator`` so runs are reproducible
from a single recorded seed.  A rejection sampler draws its tries in blocks,
yet gives the values of its one-try loop and leaves the generator in that
loop's end state (:func:`_accepted`): the sample stream is the loop's.  The
first block is sized by the sampler's acceptance, so most calls draw once.
``0.0 + scales * rng.standard_normal(size)`` is ``rng.normal(0.0, scales,
size)`` bit for bit, through numpy's fill path, not its broadcast loop.

:func:`timelike_points` cannot draw a block: a try's sign reads the bit
generator's buffered 32-bit half-word between its normal and uniform draws.
It draws its tries one by one, in rounds of as many tries as it still needs
points (the one-try loop draws all of them too), and tests a round's
acceptance with one stacked ``norm2``, so it also keeps the loop's stream.
"""

from __future__ import annotations

from math import ceil, comb, sqrt

import numpy as np

from .fields import CosineMultiplet, CosineSpinor, PolynomialMultiplet
from .geometry import Metric, _inner, conformal_factor

# spread of drawn points and special conformal parameters
POINT_SCALE = 0.6
PARAM_SCALE = 0.15
# floors of the rejection samplers: x.x of a timelike point, and the
# conformal factor of a nonsingular pair
MIN_SQUARE = 0.2
MIN_FACTOR = 0.2


def _accepted(rng, n: int, draw, accept, rate: float) -> np.ndarray:
    """The first ``n`` accepted tries of a rejection loop, one per row.

    ``draw(m)`` gives m tries as rows, the values m one-try draws give in
    turn, and ``accept`` one bool per row.  At acceptance ``rate`` (or a
    floor of it) the first block passes n tries plus two standard deviations,
    so most calls test once, and it is n tries when every try passes.  When
    the blocks drew past the n-th accepted try, the generator is set back and
    exactly the used tries are drawn again, so it ends where the loop ends.
    """
    start = rng.bit_generator.state
    tries = draw(ceil((n + 2 * sqrt(max(n, 0) * (1.0 - rate))) / rate))
    passed = accept(tries)
    while np.count_nonzero(passed) < n:
        more = draw(len(tries) + 16)
        tries = np.concatenate([tries, more])
        passed = np.concatenate([passed, accept(more)])
    used = np.flatnonzero(passed)[:n]
    if n and used[-1] + 1 < len(tries):
        rng.bit_generator.state = start
        draw(used[-1] + 1)
    return tries[used]


def points(rng, dim: int, n: int, scale: float = POINT_SCALE) -> np.ndarray:
    return rng.normal(0.0, scale, size=(n, dim))


def _off_cone_rate(dim: int, min_frac: float) -> float:
    """A floor of the share of ``off_cone_points`` tries that pass, for
    min_frac <= 0.15 from D = 2 on: over half pass, and fewer than
    11 min_frac / D fail (measured on 200k tries at D = 2..8)."""
    return max(0.5, 1.0 - 11.0 * min_frac / dim)


def off_cone_points(rng, dim: int, n: int, min_frac: float = 0.05):
    """Points with |x.x| bounded away from zero relative to their size."""
    metric = Metric.shared(dim)
    return _accepted(
        rng, n, lambda m: rng.normal(0.0, POINT_SCALE, size=(m, dim)),
        lambda x: abs(metric.norm2(x)) > min_frac * (1.0 + _inner(x, x)),
        _off_cone_rate(dim, min_frac),
    )


def timelike_points(rng, dim: int, n: int) -> np.ndarray:
    """Points with x.x comfortably positive (both time orientations)."""
    metric = Metric.shared(dim)
    out = np.empty((n, dim))
    count = 0
    while count < n:
        # the one-try loop draws at least this many more tries, so none is
        # drawn ahead; acceptance is one stacked norm2, each value its
        # one-point bits
        tries = np.empty((n - count, dim))
        for x in tries:
            x[:] = rng.normal(0.0, 0.4, size=dim)
            # the top bit of the next 32-bit output, as integers(0, 2) reads
            # it, times uniform(1.0, 2.0), which is 1.0 + random()
            x[0] = (1.0 if rng.random(dtype=np.float32) >= 0.5 else -1.0) * (1.0 + rng.random())
        passed = tries[metric.norm2(tries) > MIN_SQUARE]
        out[count:count + len(passed)] = passed
        count += len(passed)
    return out


def small_parameters(rng, dim: int, n: int, scale: float = PARAM_SCALE) -> np.ndarray:
    return rng.normal(0.0, scale, size=(n, dim))


def nonsingular_pairs(rng, dim: int, n: int):
    """(x, c) samples keeping the conformal factor away from zero."""
    metric = Metric.shared(dim)
    scales = np.repeat([POINT_SCALE, PARAM_SCALE], dim)
    pairs = _accepted(
        rng, n, lambda m: 0.0 + scales * rng.standard_normal((m, 2 * dim)),
        lambda xc: abs(conformal_factor(xc[:, :dim], xc[:, dim:], metric)) > MIN_FACTOR,
        0.9,  # about 99% of tries pass at MIN_FACTOR, any D
    )
    return pairs[:, :dim], pairs[:, dim:]


def null_vector(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    """A null wave vector with unit-magnitude spatial direction."""
    space = rng.normal(0.0, 1.0, size=dim - 1)
    space /= np.linalg.norm(space)
    k = np.empty(dim)
    k[0] = 1.0
    k[1:] = space
    return scale * k


def transverse_polarisation(rng, k, metric: Metric) -> np.ndarray:
    """A polarisation vector with k.eps = 0 (exact to rounding).

    Subtracts the time-direction component, which never degenerates because a
    null k always has k^0 != 0.
    """
    dim = metric.dim
    ref = np.zeros(dim)
    ref[0] = 1.0
    denom = metric.dot(k, ref)
    while True:
        eps = rng.normal(0.0, 1.0, size=dim)
        eps = eps - ref * metric.dot(k, eps) / denom
        if np.linalg.norm(eps) > 0.1:
            return eps


def random_polynomial_multiplet(
    rng, dim: int, n_comp: int, degree: int = 3, n_terms: int = 6, scale: float = 0.5
) -> PolynomialMultiplet:
    """Random polynomial multiplet of bounded total degree."""
    rate = comb(degree + dim, dim) / (degree + 1) ** dim  # exact acceptance
    components = []
    for _ in range(n_comp):
        monos = []
        for _ in range(n_terms):
            exps = _accepted(
                rng, 1, lambda m: rng.integers(0, degree + 1, size=(m, dim)),
                lambda e: e.sum(axis=1) <= degree, rate,
            )[0]
            monos.append((float(rng.normal(0.0, scale)), tuple(exps.tolist())))
        components.append(monos)
    return PolynomialMultiplet(dim, components)


def random_plane_wave_multiplet(
    rng, metric: Metric, n_comp: int = 1, null: bool = False
) -> CosineMultiplet:
    dim = metric.dim
    if null:
        k = null_vector(rng, dim, scale=rng.uniform(0.5, 1.5))
    else:
        k = rng.normal(0.0, 0.8, size=dim)
    amp = rng.normal(0.0, 1.0, size=n_comp)
    return CosineMultiplet(k, amp, rng.uniform(0.0, 2.0 * np.pi), metric)


def random_onshell_potential(rng, metric: Metric) -> CosineMultiplet:
    """On-shell Maxwell plane wave: null wave vector, transverse polarisation."""
    k = null_vector(rng, metric.dim, scale=rng.uniform(0.5, 1.5))
    eps = transverse_polarisation(rng, k, metric)
    return CosineMultiplet(k, metric.lower(eps), rng.uniform(0.0, 2.0 * np.pi), metric)


def random_offshell_potential(rng, metric: Metric) -> CosineMultiplet:
    """Generic plane-wave potential with no on-shell constraints."""
    k = rng.normal(0.0, 0.8, size=metric.dim)
    eps = rng.normal(0.0, 1.0, size=metric.dim)
    return CosineMultiplet(k, metric.lower(eps), rng.uniform(0.0, 2.0 * np.pi), metric)


def random_spinor(rng, metric: Metric, size: int) -> CosineSpinor:
    k = rng.normal(0.0, 0.8, size=metric.dim)
    u = rng.normal(0.0, 1.0, size=size) + 1.0j * rng.normal(0.0, 1.0, size=size)
    v = rng.normal(0.0, 1.0, size=size) + 1.0j * rng.normal(0.0, 1.0, size=size)
    return CosineSpinor(k, u, v, rng.uniform(0.0, 2.0 * np.pi), metric)
