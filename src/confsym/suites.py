"""Named verification checks and the suite runner behind the CLI.

Each check exercises one identity through the library API and returns its
residuals as one 1-D float array in draw order, or, when it skips samples,
the pair (evaluated residuals, bool mask over the samples drawn);
:func:`run_suite` reduces either into a :class:`CheckReport` with the
maximum, the number of samples evaluated, and an ``error`` when a residual
is not finite or fewer than half of the samples (or none) were evaluated.
A report has one verdict, ``ok``: no error and the maximum at most the
tolerance.  No check is expected to fail: where a theory is not conformal,
a check measures why, as a shortfall below a stated floor.
A check evaluates its whole sample array once, with the step, sigma,
direction or generator of an identity stated per index stacked onto it:
when a kernel meets a singular sample the check raises the first error any
kernel raises on the whole stack, which names that kernel's first bad
sample (``ConfsymError.sample``), and that error becomes the report's; only
the route checks drop that sample and run the rest again.
Each fold of per-sample terms propagates NaN, so a non-finite term reaches
the non-finite error rather than a pass.  The mapping from check names to
the identities they verify is tabulated in the README.  Checks draw their
samples from a generator seeded by (suite seed, check name), so a report is
deterministic however the checks are scheduled.
"""

from __future__ import annotations

import inspect
import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import __version__, dual3, sampling
from .clifford import (
    anticommutator_residual,
    build_gammas,
    sandwich_identity_residual,
)
from .errors import ConfsymError
from .fields import (
    ConstantFieldShift,
    CosineMultiplet,
    GaussianMultiplet,
    Jet,
    ShiftedPotential,
    fd_gradient,
    make_onshell_maxwell_plane_wave,
)
from .geometry import (
    GeneratorAction,
    Metric,
    _det,
    _inner,
    _lift,
    _max_abs,
    _mm,
    _outer,
    basis_generators,
    canonical_weight,
    conformal_factor,
    conformal_jacobian,
    dilation,
    inversion,
    inversion_matrix,
    killing_divergence,
    killing_gradient,
    killing_residual_from_gradient,
    large_parameter_map,
    map_jacobian,
    special_conformal,
    special_conformal_map,
    special_conformal_map_via_inversion,
)
from .mechanics import (
    MechParams,
    MechState,
    delta_conformal_q,
    delta_scale_q,
    initial_state,
    integrate,
    so21_bracket_residuals,
)
from .modelspec import FIELD_KINDS, ModelSpec, time_span
from .noether import (
    DualScalarModel,
    MaxwellModel,
    MultipletModel,
    action_variation_identity,
    bessel_hagen_divergence,
    current_divergence_identity,
    field_virial,
    gauge_shift_divergence,
    gauge_shift_scale_current,
    improved_scalar_stress_divergence,
    improved_scalar_stress_trace,
    linear_scalar_model,
    maxwell_stress_divergence,
    maxwell_stress_trace,
    maxwell_virial_first_principles,
    noether_scale_current_maxwell_divergence,
    offshell_trace_law,
    quadratic_scalar_model,
    scalar_stress_divergence,
    _f_squared,
)
from .transforms import (
    FiniteScalarTransform,
    FiniteSpinorTransform,
    FiniteVectorTransform,
    commutator_stack,
    decoupled_spinor_residual,
    decoupled_vector_residual,
    decoupling_bracket_residual,
    delta,
    delta_field_strength,
    eom_violation_conformal,
    finite_variation_fd,
    lie_derivative_vector,
    variation,
)


@dataclass(frozen=True)
class CheckDef:
    """A registered check; ``fn(spec, metric, rng)`` returns residuals or (residuals, keep)."""

    name: str
    kinds: tuple
    description: str
    fn: Callable
    tolerance: Union[str, float] = "exact"  # a class in spec.tolerances, or a fixed number


CHECKS: dict = {}


def _register(name, kinds, tolerance, description):
    def wrap(fn):
        CHECKS[name] = CheckDef(name, tuple(kinds), description, fn, tolerance)
        return fn

    return wrap


def _rng_for(spec: ModelSpec, name: str) -> np.random.Generator:
    """The generator ``np.random.default_rng([spec.seed, crc32(name)])``,
    its ``SeedSequence`` given the 32-bit words numpy derives from that list
    (each integer's words, low word first) as one uint32 array, which numpy
    takes without converting each entry."""
    seed = spec.seed
    if seed < 0:
        raise ValueError(f"a check generator needs a non-negative seed, got {seed}")
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    words.append(zlib.crc32(name.encode()))
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))


def _sample_gap(a, b):
    """Largest entry of |a - b| per sample (the leading axis)."""
    gap = a - b
    return _max_abs(gap, gap.ndim - 1)


def _sigma_stack(pts, dim):
    """Each point once per sigma = 0..D-1, points-major, and the matching
    sigma index stack: one sample per (point, sigma), points-major."""
    return np.repeat(pts, dim, axis=0), np.tile(np.arange(dim), len(pts))


def _route_gaps(make, routes, ys, cs):
    """(gaps, keep): per kept sample, the gap between the finite transforms
    that ``make`` builds on the parameter stack ``cs`` by the two ``routes``,
    at ``ys``.  A sample a route rejects leaves ``keep`` and the rest run
    again as one stack; a sample rejected in a stack is rejected alone, so
    ``keep`` is false exactly where a route rejects the sample alone."""
    first, second = routes
    keep = np.ones(len(ys), dtype=bool)
    while keep.any():
        y, c = ys[keep], cs[keep]
        try:
            return _sample_gap(make(c, first).value(y), make(c, second).value(y)), keep
        except ConfsymError as exc:
            if exc.sample is None:
                raise
            keep[np.flatnonzero(keep)[exc.sample]] = False
    return np.empty(0), keep


# ---------------------------------------------------------------------------
# fixtures from the spec (falling back to seeded random ones)
# ---------------------------------------------------------------------------


def _scalar_fixture(spec, metric, rng, null=False, n_comp=None):
    n_comp = n_comp if n_comp is not None else spec.components
    fixture = spec.fixture
    if fixture.get("kind") == "plane-wave" and "k" in fixture and not null:
        amp = fixture.get("amplitude", [1.0])
        amp = (amp * n_comp)[:n_comp]
        return sampling.CosineMultiplet(
            np.asarray(fixture["k"]), amp, fixture.get("phase", 0.0), metric
        )
    return sampling.random_plane_wave_multiplet(rng, metric, n_comp, null=null)


def _onshell_potential(spec, metric, rng):
    fixture = spec.fixture
    if fixture.get("kind") == "plane-wave" and "k" in fixture and "epsilon" in fixture:
        return make_onshell_maxwell_plane_wave(
            np.asarray(fixture["k"]),
            np.asarray(fixture["epsilon"]),
            metric,
            fixture.get("phase", 0.0),
        )
    return sampling.random_onshell_potential(rng, metric)


def _model_for(spec: ModelSpec, metric: Metric):
    if spec.kind == "maxwell":
        return MaxwellModel(metric.dim)
    if spec.kind == "interacting-multiplet":
        return MultipletModel(metric.dim, spec.components, spec.coupling)
    if spec.kind == "dual-scalar-3":
        return DualScalarModel()
    if spec.kind == "general-scalar":
        if spec.profile == "linear":
            return linear_scalar_model(metric.dim, spec.l0, spec.l1)
        return quadratic_scalar_model(metric.dim)
    raise ConfsymError(f"no field model for kind {spec.kind!r}")


def _model_fixture(spec, metric, rng):
    """(model, off-shell fixture) pair appropriate for action identities."""
    model = _model_for(spec, metric)
    if spec.kind == "maxwell":
        return model, sampling.random_offshell_potential(rng, metric)
    if spec.kind == "general-scalar":
        # fractional powers of the field require a positive configuration
        linear = rng.normal(0.0, 0.2, metric.dim)
        gaussian = GaussianMultiplet(metric.dim, [1.3], linear, 0.08 * metric.identity)
        return model, gaussian
    if spec.kind == "dual-scalar-3":
        return model, _scalar_fixture(spec, metric, rng, n_comp=1)
    return model, _scalar_fixture(spec, metric, rng)


# ---------------------------------------------------------------------------
# geometry / algebra checks (all field kinds)
# ---------------------------------------------------------------------------


@_register("map-composition", FIELD_KINDS, "exact", "conformal factor and map compose additively in the parameter")
def _chk_map_composition(spec, metric, rng):
    xs, cs = sampling.nonsingular_pairs(rng, metric.dim, 250)
    _, cps = sampling.nonsingular_pairs(rng, metric.dim, len(xs))
    s1 = conformal_factor(xs, cs, metric)
    xps = special_conformal_map(xs, cs, metric)
    s2 = conformal_factor(xps, cps, metric)
    s12 = conformal_factor(xs, cs + cps, metric)
    keep = ~((abs(s2) < 0.2) | (abs(s12) < 0.2))
    two_step = special_conformal_map(xps[keep], cps[keep], metric)
    one_step = special_conformal_map(xs[keep], (cs + cps)[keep], metric)
    return np.maximum(abs(s1 * s2 - s12)[keep], _sample_gap(two_step, one_step)), keep


@_register("map-inversion-route", FIELD_KINDS, "exact", "the map equals invert, translate, invert")
def _chk_map_route(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 100)
    cs = sampling.small_parameters(rng, metric.dim, len(xs))
    keep = abs(conformal_factor(xs, cs, metric)) >= 0.2
    xs, cs = xs[keep], cs[keep]
    route = special_conformal_map_via_inversion(xs, cs, metric)
    return _sample_gap(special_conformal_map(xs, cs, metric), route), keep


@_register("inversion-involution", FIELD_KINDS, "exact", "inversion applied twice is the identity")
def _chk_involution(spec, metric, rng):
    pts = sampling.off_cone_points(rng, metric.dim, 100)
    return _sample_gap(inversion(inversion(pts, metric), metric), pts)


@_register("reflection-matrix", FIELD_KINDS, "exact", "reflection matrix squares to one, preserves the metric, det = -1")
def _chk_reflection(spec, metric, rng):
    imat = inversion_matrix(sampling.off_cone_points(rng, metric.dim, 100), metric)
    g = metric.matrix
    square_gap = _sample_gap(_mm(imat, imat), metric.identity)
    metric_gap = _sample_gap(_mm(_mm(imat, g), np.swapaxes(imat, -1, -2)), g)
    return np.maximum.reduce([square_gap, metric_gap, abs(_det(imat) + 1.0)])


@_register("reflection-derivative", FIELD_KINDS, "oracle", "reflection matrix equals x^2 times the inversion Jacobian")
def _chk_reflection_fd(spec, metric, rng):
    pts = sampling.off_cone_points(rng, metric.dim, 50, min_frac=0.15)
    imat = inversion_matrix(pts, metric)
    x2 = metric.norm2(pts)[:, None, None]
    fd = fd_gradient(lambda y: inversion(y, metric), pts, 1e-6)
    return _sample_gap(imat, x2 * np.swapaxes(fd, -1, -2))


@_register("jacobian-identity", FIELD_KINDS, "exact", "map Jacobian factorises through the two reflection matrices")
def _chk_jacobian(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 60)
    cs = sampling.small_parameters(rng, metric.dim, len(xs))
    keep = ~(abs(conformal_factor(xs, cs, metric)) < 0.3)
    image = special_conformal_map(xs[keep], cs[keep], metric)
    keep[keep] = ~(abs(metric.norm2(image)) < 0.02)
    xs, cs = xs[keep], cs[keep]
    fwd, inv = conformal_jacobian(xs, cs, metric)
    jac_gap = _sample_gap(fwd, map_jacobian(xs, cs, metric))
    return np.maximum(jac_gap, _sample_gap(_mm(fwd, inv), metric.identity)), keep


@_register("jacobian-oracle", FIELD_KINDS, "oracle", "map Jacobian agrees with central finite differences")
def _chk_jacobian_fd(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 30)
    cs = sampling.small_parameters(rng, metric.dim, len(xs))
    keep = ~(abs(conformal_factor(xs, cs, metric)) < 0.3)
    xs, cs = xs[keep], cs[keep]
    fd = fd_gradient(lambda y: special_conformal_map(y, cs, metric), xs, 1e-5)
    return _sample_gap(map_jacobian(xs, cs, metric), fd), keep


@_register("killing-equation", FIELD_KINDS, "exact", "every generator satisfies the conformal Killing equation")
def _chk_killing(spec, metric, rng):
    pts = sampling.points(rng, metric.dim, 20, scale=1.0)
    # the basis stack behind each point; the report lists the residuals
    # generator-major
    grads = killing_gradient(basis_generators(metric.dim), pts[:, None, :], metric)
    return killing_residual_from_gradient(grads, metric).T.ravel()


@_register("commutator-algebra", FIELD_KINDS, "identity", "translation/conformal commutator closes on dilation plus rotation")
def _chk_commutator(spec, metric, rng):
    wave = _scalar_fixture(spec, metric, rng, n_comp=2)
    poly = sampling.random_polynomial_multiplet(rng, metric.dim, 2)
    # four points per field, drawn one block after the other
    pts = sampling.points(rng, metric.dim, 8)
    stacks = [commutator_stack(f, x, metric) for f, x in ((wave, pts[:4]), (poly, pts[4:]))]
    return np.concatenate([_max_abs(lhs - rhs, 1) for lhs, rhs in stacks]).ravel()


@_register("gamma-reflection", FIELD_KINDS, "exact", "gamma algebra holds and slashed units reproduce the reflection matrix")
def _chk_gamma(spec, metric, rng):
    gammas = build_gammas(metric.dim)
    anti = anticommutator_residual(gammas, metric)
    pts = sampling.timelike_points(rng, metric.dim, 50)
    return np.maximum(anti, sandwich_identity_residual(pts, gammas, metric))


@_register("decoupling-bracket", FIELD_KINDS, "identity", "the reflection-matrix transport bracket vanishes")
def _chk_bracket(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 50, min_frac=0.1)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    return _max_abs(decoupling_bracket_residual(xs, cs, metric), 2)


@_register("vector-decoupling", FIELD_KINDS, "identity", "reflected vectors follow the scalar transformation rule")
def _chk_vec_decoupling(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    xs = sampling.off_cone_points(rng, metric.dim, 30, min_frac=0.1)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    return decoupled_vector_residual(A, xs, cs, metric)


@_register("spinor-decoupling", FIELD_KINDS, "identity", "slashed spinors follow the scalar transformation rule")
def _chk_spin_decoupling(spec, metric, rng):
    gammas = build_gammas(metric.dim)
    psi = sampling.random_spinor(rng, metric, gammas.size)
    xs = sampling.timelike_points(rng, metric.dim, 30)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    return decoupled_spinor_residual(psi, xs, cs, metric, gammas)


@_register("large-parameter-decay", FIELD_KINDS, 0.2, "large-parameter map error decays with the inverse parameter cube")
def _chk_large_c(spec, metric, rng):
    # sample i is the point at row 2i and the direction c0 at row 2i + 1, the
    # order of two one-point draws; rows of xs, cs are (sample, scale) pairs
    pts = sampling.timelike_points(rng, metric.dim, 10)
    xs = np.repeat(pts[0::2], 3, axis=0)
    cs = (np.array([10.0, 20.0, 40.0])[:, None] * pts[1::2, None, :]).reshape(xs.shape)
    errs = _sample_gap(special_conformal_map(xs, cs, metric), large_parameter_map(xs, cs, metric)).reshape(5, 3)
    return np.max(abs(errs[:, :-1] / errs[:, 1:] - 8.0) / 8.0, axis=1)


def _order_residuals(rng, metric, make_view, variation):
    """Per point, how far the convergence order of the parameter derivative of
    a finite transform ``make_view(c, weight)`` towards the infinitesimal
    variation falls short of 1.9; 1.0 at least where the third regresses,
    and the first non-finite error where a step has one.  One parameter is
    drawn per point.  The three steps and their signs are one parameter
    stack in front of the points' parameters (:func:`finite_variation_fd`),
    so the transform is built and evaluated once."""
    d = canonical_weight(metric.dim)
    xs = sampling.timelike_points(rng, metric.dim, 5)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    target = variation(cs, xs)
    fd = finite_variation_fd(lambda t: make_view(t * cs, d), xs, np.array([1e-2, 1e-3, 1e-4]))
    errs = _max_abs(fd - target, target.ndim - 1).T + 1e-30
    finite = np.isfinite(errs)
    with np.errstate(invalid="ignore"):
        shortfall = 1.9 - np.log10(errs[:, 0] / errs[:, 1])
    shortfall = np.where(errs[:, 2] > 10.0 * errs[:, 1], np.maximum(shortfall, 1.0), shortfall)
    first_bad = np.take_along_axis(errs, np.argmin(finite, axis=-1)[:, None], -1)[:, 0]
    return np.where(finite.all(axis=-1), shortfall, first_bad)


@_register("finite-infinitesimal-scalar", FIELD_KINDS, 0.0, "finite scalar transform linearises to the scalar variation")
def _chk_order_scalar(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=2)
    return _order_residuals(
        rng, metric,
        lambda c, d: FiniteScalarTransform(phi, c, d, metric),
        lambda c, x: delta(special_conformal(c), phi, x, metric),
    )


@_register("finite-infinitesimal-vector", FIELD_KINDS, 0.0, "finite vector transform linearises to the vector variation")
def _chk_order_vector(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    return _order_residuals(
        rng, metric,
        lambda c, d: FiniteVectorTransform(A, c, d, metric),
        lambda c, x: delta(special_conformal(c, spin="vector"), A, x, metric),
    )


@_register("finite-infinitesimal-spinor", FIELD_KINDS, 0.0, "finite spinor transform linearises to the spinor variation")
def _chk_order_spinor(spec, metric, rng):
    gammas = build_gammas(metric.dim)
    psi = sampling.random_spinor(rng, metric, gammas.size)
    return _order_residuals(
        rng, metric,
        lambda c, d: FiniteSpinorTransform(psi, c, d, metric, gammas, route="compact"),
        lambda c, x: delta(special_conformal(c, spin="spinor"), psi, x, metric, gammas),
    )


@_register("finite-vector-routes", FIELD_KINDS, "exact", "Jacobian and double-reflection vector transforms agree")
def _chk_vec_routes(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    xs = sampling.timelike_points(rng, metric.dim, 40)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.08)
    make = lambda c, route: FiniteVectorTransform(A, c, 1.0, metric, route=route)
    return _route_gaps(make, ("jacobian", "reflection"), xs, cs)


@_register("finite-spinor-routes", FIELD_KINDS, "exact", "paired-slash and compact spinor transforms agree")
def _chk_spinor_routes(spec, metric, rng):
    gammas = build_gammas(metric.dim)
    psi = sampling.random_spinor(rng, metric, gammas.size)
    xs = sampling.timelike_points(rng, metric.dim, 40)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.05)
    make = lambda c, route: FiniteSpinorTransform(psi, c, 1.0, metric, gammas, route=route)
    return _route_gaps(make, ("pair", "compact"), xs, cs)


@_register("finite-scalar-composition", FIELD_KINDS, "exact", "finite scalar transforms compose additively in the parameter")
def _chk_scalar_composition(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=1)
    xs = sampling.points(rng, metric.dim, 40)
    # the two parameters (c1, c2) of each point, on axis -2
    cs = sampling.small_parameters(rng, metric.dim, 2 * len(xs), scale=0.06).reshape(len(xs), 2, metric.dim)

    def make(c, route):
        c1, c2 = c[..., 0, :], c[..., 1, :]
        if route == "once":
            return FiniteScalarTransform(phi, c1 + c2, 1.0, metric)
        return FiniteScalarTransform(FiniteScalarTransform(phi, c1, 1.0, metric), c2, 1.0, metric)

    return _route_gaps(make, ("once", "twice"), xs, cs)


# ---------------------------------------------------------------------------
# shared action identities (model built from the spec)
# ---------------------------------------------------------------------------


@_register("action-scale-identity", FIELD_KINDS, "identity", "dilation changes the density by a pure total derivative, off shell")
def _chk_action_scale(spec, metric, rng):
    model, fixture = _model_fixture(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 8)
    return abs(action_variation_identity("scale", model, fixture, pts, metric))


def _per_sigma(kind, model, fixture, pts, metric):
    """|identity| of ``kind`` at every point once per sigma = 0..D-1,
    points-major, from one call on the (point, sigma) stack."""
    xs, sigma = _sigma_stack(pts, metric.dim)
    return abs(action_variation_identity(kind, model, fixture, xs, metric, sigma))


@_register("action-conformal-identity", FIELD_KINDS, "identity", "conformal variation of the density is a total derivative plus twice the virial")
def _chk_action_conformal(spec, metric, rng):
    model, fixture = _model_fixture(spec, metric, rng)
    return _per_sigma("conformal", model, fixture, sampling.points(rng, metric.dim, 8), metric)


# The least relative witness (:func:`_virial_witness`) that shows a virial is
# no divergence: far above rounding, which leaves a divergence's at 0.
NO_DIVERGENCE_FLOOR = 1e-3


def _gauge_function(metric, rng):
    """A gauge function Omega: a cosine wave on a drawn wave vector."""
    return CosineMultiplet(rng.normal(0.0, 0.5, metric.dim), [0.8], 0.3, metric)


def _virial_witness(model, jet, virial, metric, rng):
    """Per sample, a relative measure that is 0 when the virial is a
    divergence d_n sigma^{nm}.  Maxwell: how far V moves under A -> A + d
    omega, over max|F| max|d omega|, which no gauge-invariant sigma allows.
    Scalars: how far V(Phi, 2 dPhi) departs from 2 V(Phi, dPhi), relative to
    the latter, which no sigma(Phi) allows."""
    if isinstance(model, MaxwellModel):
        omega = Jet(_gauge_function(metric, rng), jet.x)
        moved = field_virial(model, ShiftedPotential(jet, omega), jet.x, metric).value - virial
        return _max_abs(moved, 1) / (_max_abs(jet.F, 2) * _max_abs(omega.grad, 2))
    # field_virial reads Phi and dPhi only: this jet holds the doubled gradient
    steep = Jet(jet.field, jet.x)
    steep.value, steep.grad = jet.value, 2.0 * jet.grad
    return _sample_gap(field_virial(model, steep, jet.x, metric).value, 2.0 * virial) / _max_abs(2.0 * virial, 1)


@_register("virial-structure", FIELD_KINDS, "oracle", "the virial is the divergence of its potential, or a witness shows it is none")
def _chk_virial_structure(spec, metric, rng):
    model, fixture = _model_fixture(spec, metric, rng)
    jet = Jet(fixture, sampling.points(rng, metric.dim, 6))
    info = field_virial(model, jet, jet.x, metric)
    witness = _virial_witness(model, jet, info.value, metric, rng)
    if not info.is_total_divergence:
        return NO_DIVERGENCE_FLOOR - witness
    fd = fd_gradient(info.potential, jet.x, 1e-5)  # fd[..., m, a, r] = d_r sigma^{ma}
    return np.maximum(witness, _sample_gap(np.einsum("...mam->...a", fd), info.value))


# ---------------------------------------------------------------------------
# Maxwell checks
# ---------------------------------------------------------------------------


@_register("stress-trace-law", ("maxwell",), "exact", "stress trace equals (-1 + D/4) F^2 at every point")
def _chk_trace_law(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    jet = Jet(A, sampling.points(rng, metric.dim, 10))
    expected = (-1.0 + metric.dim / 4.0) * _f_squared(jet.F, metric)
    return abs(maxwell_stress_trace(jet, jet.x, metric) - expected)


@_register("stress-conservation", ("maxwell",), "identity", "stress tensor is conserved on shell")
def _chk_stress_cons(spec, metric, rng):
    A = _onshell_potential(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    return _max_abs(maxwell_stress_divergence(A, pts, metric), 1)


def _scale_current_case(spec, metric, rng):
    """The on-shell potential plus a constant field, whose F^2 a null wave
    lacks, on drawn points: its jet and the divergence of the dilation's
    Killing current theta^m_a x^a + V^m there."""
    A = _onshell_potential(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    jet = Jet(ConstantFieldShift(A, rng.normal(0.0, 0.5, (metric.dim, metric.dim))), pts)
    scale = dilation(1.0, metric.dim, spin="vector")
    return jet, bessel_hagen_divergence(scale, MaxwellModel(metric.dim), jet, pts, metric)


@_register("scale-current-conservation", ("maxwell",), "identity", "improved scale current is conserved on shell in every D")
def _chk_scale_current(spec, metric, rng):
    return abs(_scale_current_case(spec, metric, rng)[1])


@_register("current-construction-equivalence", ("maxwell",), "identity", "raw and improved scale currents share one divergence")
def _chk_current_equiv(spec, metric, rng):
    jet, improved = _scale_current_case(spec, metric, rng)
    return abs(noether_scale_current_maxwell_divergence(jet, jet.x, metric) - improved)


def _conformal_current_case(spec, metric, rng):
    """An on-shell potential's jet on the points and a special conformal
    parameter drawn per point."""
    jet = Jet(_onshell_potential(spec, metric, rng), sampling.points(rng, metric.dim, 10))
    return jet, rng.normal(0.0, 0.4, (len(jet.x), metric.dim))


@_register("conformal-current-identity", ("maxwell",), "identity", "conformal current divergence equals its closed-form anomaly")
def _chk_conf_current(spec, metric, rng):
    jet, cs = _conformal_current_case(spec, metric, rng)
    lhs, rhs = current_divergence_identity(special_conformal(cs), jet, jet.x, metric)
    return abs(lhs - rhs)


# the naive current: off D = 4 its divergence is 2 c.V, not 0; BENCHMARK.json
# times this check by its name
@_register("conformal-current-naive", ("maxwell",), "identity", "the naive conformal current's divergence equals 2 c.V, V the field virial")
def _chk_conf_naive(spec, metric, rng):
    jet, cs = _conformal_current_case(spec, metric, rng)
    model = MaxwellModel(metric.dim)
    lhs = bessel_hagen_divergence(special_conformal(cs), model, jet, jet.x, metric)
    return abs(lhs - 2.0 * _inner(metric.lower(cs), field_virial(model, jet, jet.x, metric).value))


@_register("virial-closed-form", ("maxwell",), "exact", "first-principles virial equals its (4-D)/2 F A closed form")
def _chk_virial(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    jet = Jet(A, sampling.points(rng, metric.dim, 10))
    info = field_virial(MaxwellModel(metric.dim), jet, jet.x, metric)
    mismatch = _sample_gap(info.value, maxwell_virial_first_principles(jet, jet.x, metric))
    if metric.dim == 4:
        mismatch = np.maximum(mismatch, _max_abs(info.value, 1))
    return mismatch


@_register("action-assumed-primary", ("maxwell",), "identity", "pretend-primary conformal rule makes the action invariant")
def _chk_assumed_primary(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    pts = sampling.points(rng, metric.dim, 6)
    return _per_sigma("conformal-assumed-primary", MaxwellModel(metric.dim), A, pts, metric)


@_register("gauge-shift-pointwise", ("maxwell",), "identity", "gauge change shifts the scale current by the predicted divergence")
def _chk_gauge_shift(spec, metric, rng):
    A, omega = _onshell_potential(spec, metric, rng), _gauge_function(metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    return _sample_gap(*gauge_shift_scale_current(A, omega, pts, metric))


@_register("gauge-shift-conserved", ("maxwell",), "identity", "the gauge-induced current shift is trivially conserved on shell")
def _chk_gauge_shift_div(spec, metric, rng):
    A, omega = _onshell_potential(spec, metric, rng), _gauge_function(metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    return abs(gauge_shift_divergence(A, omega, pts, metric))


def _lie_case(metric, rng):
    """A dilation and a random special conformal generator acting on
    vectors, as one stack of two, and a jet of a random potential on points
    ``(N, 1, D)``, behind which the stack gives one sample per (point,
    generator), points-major."""
    dim = metric.dim
    A = sampling.random_offshell_potential(rng, metric)
    c = np.stack([np.zeros(dim), rng.normal(0.0, 0.3, dim)])
    gens = GeneratorAction(dim, canonical_weight(dim), lam=[0.7, 0.0], c=c, spin="vector")
    return gens, Jet(A, sampling.points(rng, dim, 8)[:, None, :])


@_register("lie-derivative-forms", ("maxwell",), "exact", "transport and gauge-covariant Lie derivative forms agree")
def _chk_lie_forms(spec, metric, rng):
    gens, jet = _lie_case(metric, rng)
    direct, via_field_strength = lie_derivative_vector(gens, jet, jet.x, metric)
    return _max_abs(direct - via_field_strength, 1).ravel()


@_register("lie-derivative-weight", ("maxwell",), "exact", "field variation differs from the Lie derivative by the weight term")
def _chk_lie_weight(spec, metric, rng):
    gens, jet = _lie_case(metric, rng)
    dim = metric.dim
    lie, _ = lie_derivative_vector(gens, jet, jet.x, metric)
    varied = delta(gens, jet, jet.x, metric)
    shift = _lift(((dim - 4.0) / (2.0 * dim)) * killing_divergence(gens, jet.x, metric)) * jet.value
    return _max_abs(varied - lie - shift, 1).ravel()


@_register("primary-rule-discrepancy", ("maxwell",), "exact", "induced and pretend-primary F variations differ by (D-4) potential terms")
def _chk_primary_disc(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    dim = metric.dim
    jet = Jet(A, sampling.points(rng, dim, 8))
    cs = rng.normal(0.0, 0.3, (len(jet.x), dim))
    induced = delta_field_strength(special_conformal(cs, spin="vector"), jet, jet.x, metric)
    gen_f = special_conformal(cs, weight=dim / 2.0, spin="field-strength")
    primary = variation(gen_f, jet.F, jet.dF, jet.x, metric)
    outer = _outer(metric.lower(cs), jet.value)
    expected = (dim - 4.0) * (outer - np.swapaxes(outer, -1, -2))
    return _sample_gap(induced - primary, expected)


@_register("eom-conformal-violation", ("maxwell",), "identity", "the varied field strength violates the equations of motion off D = 4")
def _chk_eom_violation(spec, metric, rng):
    A = _onshell_potential(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 8)
    cs = rng.normal(0.0, 0.3, pts.shape)
    return _sample_gap(*eom_violation_conformal(A, pts, metric, cs))


# ---------------------------------------------------------------------------
# scalar multiplet checks
# ---------------------------------------------------------------------------


@_register("multiplet-stress-conservation", ("interacting-multiplet",), "identity", "free canonical stress tensor is conserved on shell")
def _chk_mult_cons(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True)
    pts = sampling.points(rng, metric.dim, 10)
    return _max_abs(scalar_stress_divergence(phi, pts, metric), 1)


@_register("improved-trace-onshell", ("interacting-multiplet", "dual-scalar-3"), "identity", "improved stress tensor is traceless on shell")
def _chk_improved_trace(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True, n_comp=max(1, spec.components))
    pts = sampling.points(rng, metric.dim, 10)
    return abs(improved_scalar_stress_trace(phi, pts, metric))


@_register("improved-trace-law", ("interacting-multiplet",), "identity", "improved trace follows its hand-derived off-shell closed form")
def _chk_trace_law_offshell(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng)
    jet = Jet(phi, sampling.points(rng, metric.dim, 10))
    lhs = improved_scalar_stress_trace(jet, jet.x, metric, spec.coupling)
    return abs(lhs - offshell_trace_law(jet, jet.x, metric, spec.coupling))


@_register("improved-conservation", ("interacting-multiplet", "dual-scalar-3"), "identity", "improved stress tensor stays conserved on shell")
def _chk_improved_cons(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True, n_comp=max(1, spec.components))
    pts = sampling.points(rng, metric.dim, 10)
    return _max_abs(improved_scalar_stress_divergence(phi, pts, metric), 1)


@_register("killing-current-conservation", ("interacting-multiplet",), "identity", "stress-times-Killing currents are conserved on shell (free)")
def _chk_killing_current(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True)
    pts = sampling.points(rng, metric.dim, 4)
    # the free model's current for the basis stack behind each point
    model = MultipletModel(metric.dim, spec.components)
    divergence = bessel_hagen_divergence(basis_generators(metric.dim), model, phi, pts[:, None, :], metric)
    return abs(divergence).ravel()


# ---------------------------------------------------------------------------
# dual-sector checks
# ---------------------------------------------------------------------------


@_register("dual-roundtrip", ("dual-scalar-3",), "exact", "the dual map inverts: half the symbol contraction rebuilds the gradient")
def _chk_dual_roundtrip(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=1)
    return dual3.dual_roundtrip_residual(phi, sampling.points(rng, 3, 10), metric)


@_register("dual-motion-identity", ("dual-scalar-3",), "exact", "the field equation holds identically for any dual scalar")
def _chk_dual_motion(spec, metric, rng):
    poly = sampling.random_polynomial_multiplet(rng, 3, 1)
    wave = _scalar_fixture(spec, metric, rng, n_comp=1)
    # eight points per field, drawn one block after the other
    pts = sampling.points(rng, 3, 16)
    eom = [dual3.maxwell_eom_from_dual(phi, x, metric) for phi, x in ((poly, pts[:8]), (wave, pts[8:]))]
    return _max_abs(np.concatenate(eom), 1)


@_register("dual-bianchi-dynamics", ("dual-scalar-3",), "exact", "the cyclic identity carries the wave operator of the dual scalar")
def _chk_dual_bianchi(spec, metric, rng):
    phi = sampling.random_polynomial_multiplet(rng, 3, 1)
    return dual3.bianchi_pattern_residual(phi, sampling.points(rng, 3, 10), metric)


@_register("dual-nonprimary-shift", ("dual-scalar-3",), "exact", "dual F variation exceeds the primary rule by the symbol times phi")
def _chk_dual_nonprimary(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=1)
    xs, sigma = _sigma_stack(sampling.points(rng, 3, 8), 3)
    return dual3.nonprimary_shift_residual(phi, xs, sigma, metric)


@_register("dual-variation-consistency", ("dual-scalar-3",), "identity", "explicit dual F variation equals the chain rule through the gradient")
def _chk_dual_chain(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=1)
    xs, sigma = _sigma_stack(sampling.points(rng, 3, 8), 3)
    jet = Jet(phi, xs)
    return _sample_gap(dual3.delta_bar_F(jet, xs, sigma, metric), dual3.delta_bar_F_chain_rule(jet, xs, sigma, metric))


@_register("dual-stress-equality", ("dual-scalar-3",), "identity", "F-form and scalar-form improved stress tensors agree on shell")
def _chk_dual_stress(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True, n_comp=1)
    jet = Jet(phi, sampling.points(rng, 3, 10))
    a = dual3.improved_stress_from_F(jet, jet.x, metric)
    b = dual3.improved_stress_scalar_form(jet, jet.x, metric)
    return np.maximum(_sample_gap(a, b), abs(np.einsum("m,...mm->...", metric.diag, a)))


@_register("duality-match", ("dual-scalar-3",), 1e-10, "a matched plane-wave pair satisfies the duality relation pointwise")
def _chk_duality_match(spec, metric, rng):
    k = sampling.null_vector(rng, 3, scale=1.2)
    phi, A = dual3.matched_plane_wave_pair(k, 0.9, 0.4, metric)
    return _max_abs(dual3.duality_mismatch(A, phi, sampling.points(rng, 3, 10), metric), 1)


# ---------------------------------------------------------------------------
# mechanics checks
# ---------------------------------------------------------------------------


@_register("mech-free-motion", ("mechanics",), "exact", "the free flow reproduces straight lines to rounding")
def _chk_mech_free(spec, metric, rng):
    start = MechState.make(0.0, [1.0, 2.0], [0.3, -0.1])
    traj = integrate(start, MechParams(2, 0.0), 2.0, 1e-3)
    exact = start.q[None, :] + traj.times[:, None] * start.p[None, :]
    gap = np.abs(traj.q - exact)
    return np.maximum(gap[:, 0], gap[:, 1])  # a max over the 2-wide rows is ~50x slower


@_register("mech-charge-drift", ("mechanics",), "drift", "energy, dilation and conformal charges hold along trajectories")
def _chk_mech_drift(spec, metric, rng):
    mech = spec.mechanics
    t_end, step = time_span(mech)
    couplings = [spec.coupling] if spec.coupling else [0.0, 0.5, 2.0]
    sizes = [len(mech["q0"])] if "q0" in mech else [1, 2, 3]
    return np.array([
        np.max(integrate(initial_state(mech, n), MechParams(n, lam), t_end, step).charge_drift())
        for lam in couplings for n in sizes
    ])


@_register("mech-so21", ("mechanics",), "exact", "charge Poisson brackets close on the hand-derived table")
def _chk_mech_so21(spec, metric, rng):
    # (coupling, sample, q or p, component): the values of one draw of three
    # per q and per p, sample by sample, since numpy fills normals in order
    draws = rng.normal(0.0, 1.0, (2, 10, 2, 3))

    def residuals(lam, qp):
        state = MechState.make(np.zeros(len(qp)), qp[:, 0] + 2.0, qp[:, 1])
        return so21_bracket_residuals(state, MechParams(3, lam)).max(axis=1)

    return np.concatenate([residuals(0.0, draws[0]), residuals(spec.coupling or 1.0, draws[1])])


@_register("mech-rk4-order", ("mechanics",), 0.5, "halving the step cuts the drift sixteenfold")
def _chk_mech_order(spec, metric, rng):
    start = MechState.make(0.0, [3.0], [-1.0])
    d1 = integrate(start, MechParams(1, 1.0), 8.0, 0.05).charge_drift()[0]
    d2 = integrate(start, MechParams(1, 1.0), 8.0, 0.025).charge_drift()[0]
    return np.array([abs(float(np.log2(d1 / d2)) - 4.0)])


@_register("mech-reduction", ("mechanics",), "identity", "one-dimensional scalar variations reduce to the mechanics rules")
def _chk_mech_reduction(spec, metric, rng):
    one = Metric(1)
    poly = sampling.random_polynomial_multiplet(rng, 1, 3, degree=4)
    ts = rng.uniform(-2.0, 2.0, 12)
    jet = Jet(poly, ts[:, None])
    state = MechState.make(ts, jet.value, jet.grad[..., 0])
    return np.maximum(
        _sample_gap(delta(dilation(1.0, 1), jet, jet.x, one), delta_scale_q(state)),
        _sample_gap(delta(special_conformal(np.array([1.0])), jet, jet.x, one), delta_conformal_q(state)),
    )


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


# The saved check: each field CheckReport.to_dict writes and RunReport.from_dict
# reads, in reading order, with the JSON types it may take (a bool is never a
# number); one with a default in CheckReport's constructor may be absent.
# ok is recomputed.
_SAVED_CHECK_FIELDS = {
    "name": (str,),
    "dim": (int,),
    "samples": (int,),
    "max_residual": (int, float),
    "tolerance": (int, float),
    "seed": (int,),
    "error": (str, type(None)),
}


def _field(record, key, kinds, where, default=inspect.Parameter.empty):
    """``record[key]``, or ``default`` when it is absent, checked against ``kinds``."""
    value = record.get(key, default)
    if value is inspect.Parameter.empty:
        raise ConfsymError(f"saved report: {where} has no {key!r}")
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ConfsymError(f"saved report: {where} {key!r} has the wrong type")
    return value


def _reject_non_finite(value, where="report"):
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfsymError(f"saved report: non-finite number {value} in {where}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{index}]")


class CheckReport:
    """Structured outcome of one verification: residual against tolerance.

    ``wall_ms`` is the check's wall time when it ran in this process; it
    stays out of :meth:`to_dict`, so saved reports carry no timing.
    """

    def __init__(self, name: str, dim: int, samples: int, max_residual: float, tolerance: float, seed: int,
                 error: Optional[str] = None, wall_ms: Optional[float] = None):
        self.name = name
        self.dim = dim
        self.samples = samples
        self.max_residual = max_residual
        self.tolerance = tolerance
        self.seed = seed
        self.error = error
        self.wall_ms = wall_ms

    @property
    def ok(self) -> bool:
        """True when the check ran without error and met its tolerance."""
        return self.error is None and self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        saved = {key: getattr(self, key) for key in _SAVED_CHECK_FIELDS}
        return saved | {"ok": self.ok}


class RunReport:
    """Outcome of one suite run: per-check reports plus provenance.

    ``wall_time`` is the run's wall time when it ran in this process, None
    for a loaded report; it stays out of :meth:`to_dict`.
    """

    def __init__(self, version: str, spec_echo: dict, checks: list, seed: int, wall_time: Optional[float] = None):
        self.version = version
        self.spec_echo = spec_echo
        self.checks = checks
        self.seed = seed
        self.wall_time = wall_time

    @property
    def overall_ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> dict:
        """The golden json form; timing stays out of it."""
        return {
            "version": self.version,
            "seed": self.seed,
            "spec": self.spec_echo,
            "checks": [check.to_dict() for check in self.checks],
            "overall_ok": self.overall_ok,
        }

    @classmethod
    def from_dict(cls, data) -> "RunReport":
        """Rebuild a run report from its saved json; raises ConfsymError on a
        missing key, a value of the wrong type or a non-finite number."""
        if not isinstance(data, dict):
            raise ConfsymError("saved report: not a json object")
        _reject_non_finite(data)
        defaults = {name: p.default for name, p in inspect.signature(CheckReport).parameters.items()}
        checks = []
        for index, record in enumerate(_field(data, "checks", (list,), "report")):
            where = f"check {index}"
            if not isinstance(record, dict):
                raise ConfsymError(f"saved report: {where} is not a json object")
            if record.get("expected_fail") is True:  # its ok meant the opposite of ok now
                raise ConfsymError(f"saved report: {where} is an expected failure, which the schema no longer has")
            checks.append(CheckReport(**{key: _field(record, key, kinds, where, defaults[key])
                                         for key, kinds in _SAVED_CHECK_FIELDS.items()}))
        return cls(_field(data, "version", (str,), "report"), _field(data, "spec", (dict,), "report"),
                   checks, _field(data, "seed", (int,), "report"))


def applicable_checks(kind: str) -> list:
    return [name for name, cd in CHECKS.items() if kind in cd.kinds]


def _reduce(result):
    """(samples evaluated, max residual, error) of one check's result, its
    residuals or the pair (residuals, keep mask); the max residual is 0.0
    when there is an error, which keeps the json finite, and an error's
    sample index counts every sample drawn."""
    values, keep = result if isinstance(result, tuple) else (result, np.ones(len(result), dtype=bool))
    evaluated, drawn = len(values), len(keep)
    bad = ~np.isfinite(values)
    if bad.any():
        index = int(np.argmax(bad))
        return evaluated, 0.0, f"non-finite residual {float(values[index])} at sample {np.flatnonzero(keep)[index]}"
    if 2 * evaluated < drawn or not evaluated:
        return evaluated, 0.0, f"only {evaluated} of {drawn} samples evaluated"
    return evaluated, float(values.max()), None


def _run_check(spec: ModelSpec, metric: Metric, name: str) -> CheckReport:
    cd = CHECKS[name]
    tol = 0.0
    started = time.perf_counter()
    try:
        tol = float(spec.tolerances.get(cd.tolerance, cd.tolerance))  # a class, or a number
        samples, residual, error = _reduce(cd.fn(spec, metric, _rng_for(spec, name)))
    except Exception as exc:  # deliberate: a broken check must not kill the run
        samples, residual, error = 0, 0.0, f"{type(exc).__name__}: {exc}"
    wall_ms = 1e3 * (time.perf_counter() - started)
    return CheckReport(name, spec.dimension, samples, residual, tol, spec.seed, error, wall_ms)


def run_suite(spec: ModelSpec) -> RunReport:
    """Execute the selected checks; check failures become failed reports,
    never crashes."""
    names = applicable_checks(spec.kind)
    if spec.checks is not None:
        unknown = [n for n in spec.checks if n not in names]
        if unknown:
            raise ConfsymError(
                f"checks not applicable to kind {spec.kind!r}: {', '.join(unknown)}"
            )
        names = [n for n in names if n in spec.checks]
    metric = Metric(spec.dimension)
    started = time.perf_counter()
    reports = [_run_check(spec, metric, name) for name in names]
    wall = time.perf_counter() - started
    return RunReport(__version__, spec.echo(), reports, spec.seed, wall)
