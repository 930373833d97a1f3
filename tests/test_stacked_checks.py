"""Checks that stack a loop's axis onto the sample axis make one kernel call,
and give, bit for bit, the residuals of the loop they replaced.

Each oracle below is that loop: one kernel call per finite-difference step,
per sigma, per direction or per generator.  Where the loop lived in a
helper, the check runs twice on the same seeded generator, once with the
loop in place of the helper; where it lived in the check's body, the old
body is the oracle.  Residuals are compared as hex strings.  That
``fd_gradient`` calls its function once is tested in ``test_fields.py``.
"""

from collections import Counter

import numpy as np
import pytest

import confsym.suites as suites
from confsym import dual3, sampling, transforms
from confsym.fields import Jet
from confsym.geometry import (
    Metric,
    _inner,
    canonical_weight,
    dilation,
    killing_divergence,
    killing_gradient,
    killing_residual,
    killing_vector,
    special_conformal,
)
from confsym.modelspec import ModelSpec
from confsym.noether import action_variation_identity, improved_scalar_stress, improved_scalar_stress_divergence
from confsym.suites import run_suite
from confsym.transforms import delta, lie_derivative_vector

DIMS = [3, 4, 5, 6]
SEEDS = [1, 2, 3]


def _hex(result):
    """Hex strings of residuals; for a check's (residuals, keep) pair, the
    strings and the mask."""
    if isinstance(result, tuple):
        values, keep = result
        return _hex(values), keep.tolist()
    return [float(r).hex() for r in result]


def _points_major(columns) -> list:
    """One residual per (point, column), points-major, from one residual
    array per column (a generator, a sigma), each with one entry per point."""
    return np.stack(columns, axis=-1).ravel().tolist()


def _run_check(name, spec):
    metric = Metric(spec.dimension)
    return suites.CHECKS[name].fn(spec, metric, suites._rng_for(spec, name))


def _same_as_loop(monkeypatch, name, spec, helper, loop):
    stacked = _run_check(name, spec)
    with monkeypatch.context() as patch:
        patch.setattr(suites, helper, loop)
        looped = _run_check(name, spec)
    assert _hex(stacked) == _hex(looped)
    return stacked


# --- the loops the stacked helpers replaced ---------------------------------


def _finite_variation_fd_loop(factory, x, eps):
    plus = factory(eps).value(x)
    minus = factory(-eps).value(x)
    return (np.asarray(plus) - np.asarray(minus)) / (2.0 * eps)


def _order_residuals_loop(rng, metric, make_view, variation):
    d = canonical_weight(metric.dim)
    xs = sampling.timelike_points(rng, metric.dim, 5)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    target = variation(cs, xs)
    errs = np.stack([
        suites._sample_gap(_finite_variation_fd_loop(lambda t: make_view(t * cs, d), xs, eps), target) + 1e-30
        for eps in (1e-2, 1e-3, 1e-4)
    ], axis=-1)
    finite = np.isfinite(errs)
    with np.errstate(invalid="ignore"):
        shortfall = 1.9 - np.log10(errs[:, 0] / errs[:, 1])
    shortfall = np.where(errs[:, 2] > 10.0 * errs[:, 1], np.maximum(shortfall, 1.0), shortfall)
    first_bad = np.take_along_axis(errs, np.argmin(finite, axis=-1)[:, None], -1)[:, 0]
    return np.where(finite.all(axis=-1), shortfall, first_bad).tolist()


def _per_sigma_loop(kind, model, fixture, pts, metric):
    jet = Jet(fixture, pts)
    return _points_major(
        [abs(action_variation_identity(kind, model, jet, pts, metric, s)) for s in range(metric.dim)]
    )


def _fd_gradient_loop(func, x, step):
    x = np.asarray(x, dtype=float)
    cols = []
    for mu in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[mu] = step
        cols.append((np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


# --- bit equality with the loops --------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("field", ["scalar", "vector", "spinor"])
def test_finite_infinitesimal_matches_the_step_loop(monkeypatch, field, dim, seed):
    spec = ModelSpec(kind="maxwell", dimension=dim, seed=seed)
    residuals = _same_as_loop(monkeypatch, f"finite-infinitesimal-{field}", spec,
                              "_order_residuals", _order_residuals_loop)
    assert len(residuals) == 5


@pytest.mark.parametrize("dim", DIMS)
def test_finite_variation_fd_matches_the_two_call_form(dim):
    # a single step keeps the shape and the bits of the two-call form, on
    # one point and on a stack with one parameter per point
    g = Metric(dim)
    rng = np.random.default_rng(dim)
    A = sampling.random_offshell_potential(rng, g)
    xs = sampling.timelike_points(rng, dim, 4)
    cs = sampling.small_parameters(rng, dim, len(xs), scale=0.4)
    for x, c in ((xs, cs), (xs[0], cs[0])):
        factory = lambda t: transforms.FiniteVectorTransform(A, t * c, 1.5, g)
        steps = np.array([1e-2, 1e-3])
        stacked = transforms.finite_variation_fd(factory, x, steps)
        for row, eps in zip(stacked, steps):
            loop = _finite_variation_fd_loop(factory, x, float(eps))
            assert _hex(row.ravel()) == _hex(loop.ravel())
        single = transforms.finite_variation_fd(factory, x, 1e-3)
        assert _hex(single.ravel()) == _hex(_finite_variation_fd_loop(factory, x, 1e-3).ravel())
        assert single.shape == np.shape(A.value(x))


# points each per-sigma check draws
_SIGMA_POINTS = {"action-conformal-identity": 8, "action-assumed-primary": 6}
_SIGMA_CASES = [
    ("action-conformal-identity", ModelSpec(kind="maxwell", dimension=4)),
    ("action-conformal-identity", ModelSpec(kind="interacting-multiplet", dimension=4, components=2, coupling=0.3)),
    ("action-conformal-identity", ModelSpec(kind="general-scalar", dimension=4, profile="linear")),
    ("action-conformal-identity", ModelSpec(kind="general-scalar", dimension=4, profile="quadratic")),
    ("action-conformal-identity", ModelSpec(kind="dual-scalar-3", dimension=3)),
    ("action-assumed-primary", ModelSpec(kind="maxwell", dimension=4)),
]


@pytest.mark.parametrize("name,base,dim", [
    pytest.param(name, base, dim, id=f"{name}-{base.kind}-{base.profile}-{dim}")
    for name, base in _SIGMA_CASES
    # the dual scalar lives in three dimensions
    for dim in (DIMS if base.kind != "dual-scalar-3" else [3])
])
def test_per_sigma_matches_the_sigma_loop(monkeypatch, name, base, dim):
    for seed in SEEDS:
        spec = ModelSpec(kind=base.kind, dimension=dim, components=base.components,
                         coupling=base.coupling, profile=base.profile, seed=seed)
        residuals = _same_as_loop(monkeypatch, name, spec, "_per_sigma", _per_sigma_loop)
        assert len(residuals) == _SIGMA_POINTS[name] * dim


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", ["reflection-derivative", "jacobian-oracle", "virial-structure"])
def test_fd_checks_match_the_direction_loop(monkeypatch, name, dim, seed):
    kind = "interacting-multiplet" if name == "virial-structure" else "maxwell"
    spec = ModelSpec(kind=kind, dimension=dim, seed=seed)
    _same_as_loop(monkeypatch, name, spec, "fd_gradient", _fd_gradient_loop)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
def test_killing_equation_matches_the_generator_loop(dim, seed, basis_rows):
    spec = ModelSpec(kind="maxwell", dimension=dim, seed=seed)
    metric = Metric(dim)
    rng = suites._rng_for(spec, "killing-equation")
    pts = sampling.points(rng, dim, 20, scale=1.0)
    loop = [r for gen in basis_rows(dim) for r in killing_residual(gen, pts, metric).tolist()]
    assert _hex(_run_check("killing-equation", spec)) == _hex(loop)


def _killing_current_loop(theta, theta_div, pts, metric, gens):
    # the kernel as it was, one basis generator per call
    per_gen = []
    for gen in gens:
        f_low = metric.lower(killing_vector(gen, pts, metric))
        grad_f_low = np.swapaxes(metric.diag[:, None] * killing_gradient(gen, pts, metric), -1, -2)
        per_gen.append(abs(_inner(theta_div, f_low) + np.sum(theta * grad_f_low, axis=(-2, -1))))
    return _points_major(per_gen)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("components", [1, 3])
def test_killing_current_matches_the_generator_loop(components, dim, seed, basis_rows):
    spec = ModelSpec(kind="interacting-multiplet", dimension=dim, components=components, coupling=0.4, seed=seed)
    metric = Metric(dim)
    rng = suites._rng_for(spec, "killing-current-conservation")
    phi = suites._scalar_fixture(spec, metric, rng, null=True)
    pts = sampling.points(rng, dim, 4)
    jet = Jet(phi, pts)
    theta = improved_scalar_stress(jet, pts, metric)
    theta_div = improved_scalar_stress_divergence(jet, pts, metric)
    loop = _killing_current_loop(theta, theta_div, pts, metric, basis_rows(dim))
    assert _hex(_run_check("killing-current-conservation", spec)) == _hex(loop)


def _lie_loop(name, spec):
    # the check's body as it was, one generator per call
    metric = Metric(spec.dimension)
    dim = metric.dim
    rng = suites._rng_for(spec, name)
    A = sampling.random_offshell_potential(rng, metric)
    gens = [dilation(0.7, dim, spin="vector"), special_conformal(rng.normal(0.0, 0.3, dim), spin="vector")]
    jet = Jet(A, sampling.points(rng, dim, 8))

    def residual(gen):
        lie, via_field_strength = lie_derivative_vector(gen, jet, jet.x, metric)
        if name == "lie-derivative-forms":
            return suites._sample_gap(lie, via_field_strength)
        varied = delta(gen, jet, jet.x, metric)
        shift = ((dim - 4.0) / (2.0 * dim)) * killing_divergence(gen, jet.x, metric)[:, None] * jet.value
        return suites._sample_gap(varied - lie, shift)

    return _points_major([residual(gen) for gen in gens])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", ["lie-derivative-forms", "lie-derivative-weight"])
def test_lie_checks_match_the_generator_loop(name, dim, seed):
    spec = ModelSpec(kind="maxwell", dimension=dim, seed=seed)
    assert _hex(_run_check(name, spec)) == _hex(_lie_loop(name, spec))


def _dual_sigma_loop(name, jet, metric):
    if name == "dual-nonprimary-shift":
        return [dual3.nonprimary_shift_residual(jet, jet.x, s, metric) for s in range(3)]
    return [
        suites._sample_gap(dual3.delta_bar_F(jet, jet.x, s, metric), dual3.delta_bar_F_chain_rule(jet, jet.x, s, metric))
        for s in range(3)
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fixture", [{}, {"kind": "plane-wave", "k": [1.0, 0.6, -0.8], "phase": 0.3}],
                         ids=["random", "plane-wave"])
@pytest.mark.parametrize("name", ["dual-nonprimary-shift", "dual-variation-consistency"])
def test_dual_sigma_checks_match_the_sigma_loop(name, fixture, seed):
    spec = ModelSpec(kind="dual-scalar-3", dimension=3, fixture=fixture, seed=seed)
    metric = Metric(3)
    rng = suites._rng_for(spec, name)
    phi = suites._scalar_fixture(spec, metric, rng, n_comp=1)
    jet = Jet(phi, sampling.points(rng, 3, 8))
    loop = _points_major(_dual_sigma_loop(name, jet, metric))
    assert _hex(_run_check(name, spec)) == _hex(loop)


# --- one kernel call per check ----------------------------------------------


def _counting(calls, key, func):
    def counted(*args, **kwargs):
        calls[key] += 1
        return func(*args, **kwargs)
    return counted


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("field,cls", [
    ("scalar", "FiniteScalarTransform"),
    ("vector", "FiniteVectorTransform"),
    ("spinor", "FiniteSpinorTransform"),
])
def test_finite_infinitesimal_evaluates_the_transform_once(monkeypatch, field, cls, dim):
    # three steps of both signs: one value call where the loop made six
    calls = Counter()
    view = getattr(transforms, cls)
    monkeypatch.setattr(view, "value", _counting(calls, "value", view.value))
    report = run_suite(ModelSpec(kind="maxwell", dimension=dim, checks=[f"finite-infinitesimal-{field}"]))
    assert report.checks[0].ok and report.checks[0].samples == 5
    assert calls == {"value": 1}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", ["action-conformal-identity", "action-assumed-primary"])
def test_per_sigma_checks_call_the_identity_once(monkeypatch, name, dim):
    # one call on the (point, sigma) stack where the loop made one per sigma
    calls = Counter()
    monkeypatch.setattr(suites, "action_variation_identity",
                        _counting(calls, name, suites.action_variation_identity))
    report = run_suite(ModelSpec(kind="maxwell", dimension=dim, checks=[name]))
    assert report.checks[0].samples == _SIGMA_POINTS[name] * dim
    assert calls == {name: 1}


@pytest.mark.parametrize("name,kernels", [
    ("dual-nonprimary-shift", ["nonprimary_shift_residual"]),
    ("dual-variation-consistency", ["delta_bar_F", "delta_bar_F_chain_rule"]),
])
def test_dual_sigma_checks_call_each_kernel_once(monkeypatch, name, kernels):
    calls = Counter()
    for kernel in kernels:
        monkeypatch.setattr(dual3, kernel, _counting(calls, kernel, getattr(dual3, kernel)))
    report = run_suite(ModelSpec(kind="dual-scalar-3", dimension=3, checks=[name]))
    assert report.checks[0].ok and report.checks[0].samples == 24
    assert calls == {kernel: 1 for kernel in kernels}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name,kind,points,kernels", [
    ("killing-equation", "maxwell", 20, ["killing_gradient", "killing_residual_from_gradient"]),
    ("killing-current-conservation", "interacting-multiplet", 4, ["bessel_hagen_divergence"]),
    ("lie-derivative-forms", "maxwell", 8, ["lie_derivative_vector"]),
    ("lie-derivative-weight", "maxwell", 8, ["lie_derivative_vector", "delta", "killing_divergence"]),
])
def test_generator_checks_call_each_kernel_once(monkeypatch, name, kind, points, kernels, dim):
    # one call on the generator stack, not one per generator: the whole
    # basis, or the (dilation, special conformal) pair of the lie checks
    calls = Counter()
    for kernel in kernels:
        monkeypatch.setattr(suites, kernel, _counting(calls, kernel, getattr(suites, kernel)))
    components = 2 if kind == "interacting-multiplet" else 1
    report = run_suite(ModelSpec(kind=kind, dimension=dim, components=components, checks=[name]))
    generators = 2 if name.startswith("lie") else (dim + 1) * (dim + 2) // 2
    assert report.checks[0].ok and report.checks[0].samples == points * generators
    assert calls == {kernel: 1 for kernel in kernels}
