"""Named verification checks and the suite runner behind the CLI.

Each check exercises one identity through the library API and returns one
residual per drawn sample (``None`` for a sample it skips); :func:`run_suite`
reduces them into a :class:`~confsym.noether.CheckReport` with the maximum,
the number of samples evaluated, and an ``error`` when a residual is not
finite or fewer than half of the samples (or none) were evaluated.  The
mapping from check names to the identities they verify is tabulated in the
README.  Checks draw their samples from a generator seeded by (suite seed,
check name), so a report is deterministic however the checks are scheduled.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import dual3, sampling
from .clifford import (
    anticommutator_residual,
    build_gammas,
    sandwich_identity_residual,
)
from .errors import ConfsymError
from .fields import (
    GaussianMultiplet,
    fd_gradient,
    field_strength_from_potential,
    make_gauge_function,
    make_onshell_maxwell_plane_wave,
)
from .geometry import (
    Metric,
    _max_abs,
    basis_generators,
    canonical_weight,
    conformal_factor,
    conformal_jacobian,
    dilation,
    inversion,
    inversion_matrix,
    killing_divergence,
    killing_residual,
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
    integrate_many,
    so21_bracket_residuals,
)
from .modelspec import FIELD_KINDS, ModelSpec
from .noether import (
    CheckReport,
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
    scale_current_maxwell_divergence,
    _f_squared,
)
from .transforms import (
    FiniteScalarTransform,
    FiniteSpinorTransform,
    FiniteVectorTransform,
    commutator_residuals,
    decoupled_spinor_residual,
    decoupled_vector_residual,
    decoupling_bracket_residual,
    delta_field_strength,
    delta_field_strength_primary,
    delta_scalar,
    delta_spinor,
    delta_vector_potential,
    eom_violation_conformal,
    finite_variation_fd,
    lie_derivative_vector,
)

try:
    from importlib.metadata import version as _pkg_version

    TOOLKIT_VERSION = _pkg_version("confsym")
except Exception:  # pragma: no cover
    TOOLKIT_VERSION = "0.1.0"

@dataclass(frozen=True)
class CheckDef:
    """A registered check; ``fn(spec, metric, rng)`` returns its residuals."""

    name: str
    kinds: tuple
    description: str
    fn: Callable
    tolerance: Union[str, float] = "exact"  # a class in spec.tolerances, or a fixed number
    expected_fail: Optional[Callable] = None  # spec -> True where the identity must fail


CHECKS: dict = {}


def _register(name, kinds, tolerance, description, expected_fail=None):
    def wrap(fn):
        CHECKS[name] = CheckDef(name, tuple(kinds), description, fn, tolerance, expected_fail)
        return fn

    return wrap


def _rng_for(spec: ModelSpec, name: str) -> np.random.Generator:
    return np.random.default_rng([spec.seed, zlib.crc32(name.encode())])


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def _gap(a, b) -> float:
    """Largest entry of |a - b|."""
    return _maxabs(a - b)


def _sample_gap(a, b):
    """Largest entry of |a - b| per sample (the leading axis)."""
    gap = a - b
    return _max_abs(gap, gap.ndim - 1)


def _first_max(first, *rest):
    """Per-sample ``max(first, *rest)`` under Python's rule: a later value
    wins only where it is greater."""
    for other in rest:
        first = np.where(other > first, other, first)
    return first


def _scatter(keep, values) -> list:
    """One residual per sample: ``values`` at the kept samples, in order, and
    None at the skipped ones."""
    out = [None] * len(keep)
    for index, value in zip(np.flatnonzero(keep).tolist(), values.tolist()):
        out[index] = value
    return out


def _in_sample_order(residuals, *samples):
    """``residuals(*samples)`` on whole sample arrays.  When a kernel raises,
    the samples run again one at a time, so that the error raised is the one
    a per-sample loop would raise first."""
    try:
        return residuals(*samples)
    except ConfsymError:
        for index in range(len(samples[0])):
            residuals(*(sample[index:index + 1] for sample in samples))
        raise


def _route_gaps(make, routes, ys, cs):
    """Per sample, the gap between the finite transforms that ``make`` builds
    on the parameter stack ``cs`` by the two ``routes``, at ``ys``.  When a
    route raises a ConfsymError the samples run again one at a time through
    :func:`_agreement`, which gives None where either route raises."""
    first, second = routes
    try:
        return _sample_gap(make(cs, first).value(ys), make(cs, second).value(ys)).tolist()
    except ConfsymError:
        return [_agreement(make(c, first), make(c, second), y) for y, c in zip(ys, cs)]


def _agreement(first, second, x):
    """Gap between two finite transforms at x, or None where either is singular."""
    try:
        return _gap(first.value(x), second.value(x))
    except ConfsymError:
        return None


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
        gaussian = GaussianMultiplet(metric.dim, [1.3], linear, 0.08 * np.eye(metric.dim))
        return model, gaussian.component(0)
    if spec.kind == "dual-scalar-3":
        return model, _scalar_fixture(spec, metric, rng, n_comp=1).component(0)
    return model, _scalar_fixture(spec, metric, rng)


# ---------------------------------------------------------------------------
# geometry / algebra checks (all field kinds)
# ---------------------------------------------------------------------------


@_register("map-composition", FIELD_KINDS, "exact", "conformal factor and map compose additively in the parameter")
def _chk_map_composition(spec, metric, rng):
    xs, cs = sampling.nonsingular_pairs(rng, metric.dim, 250)
    _, cps = sampling.nonsingular_pairs(rng, metric.dim, len(xs))

    def residuals(x, c, cp):
        s1 = conformal_factor(x, c, metric)
        xp = special_conformal_map(x, c, metric)
        s2 = conformal_factor(xp, cp, metric)
        s12 = conformal_factor(x, c + cp, metric)
        keep = ~((abs(s2) < 0.2) | (abs(s12) < 0.2))
        two_step = special_conformal_map(xp[keep], cp[keep], metric)
        one_step = special_conformal_map(x[keep], (c + cp)[keep], metric)
        return _scatter(keep, _first_max(abs(s1 * s2 - s12)[keep], _sample_gap(two_step, one_step)))

    return _in_sample_order(residuals, xs, cs, cps)


@_register("map-inversion-route", FIELD_KINDS, "exact", "the map equals invert, translate, invert")
def _chk_map_route(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 100)
    cs = sampling.small_parameters(rng, metric.dim, len(xs))

    def residuals(x, c):
        keep = abs(conformal_factor(x, c, metric)) >= 0.2
        x, c = x[keep], c[keep]
        route = special_conformal_map_via_inversion(x, c, metric)
        return _scatter(keep, _sample_gap(special_conformal_map(x, c, metric), route))

    return _in_sample_order(residuals, xs, cs)


@_register("inversion-involution", FIELD_KINDS, "exact", "inversion applied twice is the identity")
def _chk_involution(spec, metric, rng):
    pts = sampling.off_cone_points(rng, metric.dim, 100)
    return _in_sample_order(lambda x: _sample_gap(inversion(inversion(x, metric), metric), x).tolist(), pts)


@_register("reflection-matrix", FIELD_KINDS, "exact", "reflection matrix squares to one, preserves the metric, det = -1")
def _chk_reflection(spec, metric, rng):
    def residuals(x):
        imat = inversion_matrix(x, metric)
        g = metric.matrix
        return _first_max(
            _sample_gap(imat @ imat, np.eye(metric.dim)),
            _sample_gap(imat @ g @ np.swapaxes(imat, -1, -2), g),
            abs(np.linalg.det(imat) + 1.0),
        ).tolist()

    return _in_sample_order(residuals, sampling.off_cone_points(rng, metric.dim, 100))


@_register("reflection-derivative", FIELD_KINDS, "oracle", "reflection matrix equals x^2 times the inversion Jacobian")
def _chk_reflection_fd(spec, metric, rng):
    def residuals(x):
        imat = inversion_matrix(x, metric)
        x2 = metric.norm2(x)[:, None, None]
        fd = fd_gradient(lambda y: inversion(y, metric), x, 1e-6)
        return _sample_gap(imat, x2 * np.swapaxes(fd, -1, -2)).tolist()

    return _in_sample_order(residuals, sampling.off_cone_points(rng, metric.dim, 50, min_frac=0.15))


@_register("jacobian-identity", FIELD_KINDS, "exact", "map Jacobian factorises through the two reflection matrices")
def _chk_jacobian(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 60)
    cs = sampling.small_parameters(rng, metric.dim, len(xs))

    def residuals(x, c):
        keep = ~(abs(conformal_factor(x, c, metric)) < 0.3)
        image = special_conformal_map(x[keep], c[keep], metric)
        keep[keep] = ~(abs(metric.norm2(image)) < 0.02)
        x, c = x[keep], c[keep]
        fwd, inv = conformal_jacobian(x, c, metric)
        jac_gap = _sample_gap(fwd, map_jacobian(x, c, metric))
        return _scatter(keep, _first_max(jac_gap, _sample_gap(fwd @ inv, np.eye(metric.dim))))

    return _in_sample_order(residuals, xs, cs)


@_register("jacobian-oracle", FIELD_KINDS, "oracle", "map Jacobian agrees with central finite differences")
def _chk_jacobian_fd(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 30)
    cs = sampling.small_parameters(rng, metric.dim, len(xs))

    def residuals(x, c):
        keep = ~(abs(conformal_factor(x, c, metric)) < 0.3)
        x, c = x[keep], c[keep]
        fd = fd_gradient(lambda y: special_conformal_map(y, c, metric), x, 1e-5)
        return _scatter(keep, _sample_gap(map_jacobian(x, c, metric), fd))

    return _in_sample_order(residuals, xs, cs)


@_register("killing-equation", FIELD_KINDS, "exact", "every generator satisfies the conformal Killing equation")
def _chk_killing(spec, metric, rng):
    pts = sampling.points(rng, metric.dim, 20, scale=1.0)
    return [r for gen in basis_generators(metric.dim) for r in killing_residual(gen, pts, metric).tolist()]


@_register("commutator-algebra", FIELD_KINDS, "identity", "translation/conformal commutator closes on dilation plus rotation")
def _chk_commutator(spec, metric, rng):
    wave = _scalar_fixture(spec, metric, rng, n_comp=2)
    poly = sampling.random_polynomial_multiplet(rng, metric.dim, 2)
    return [
        _maxabs(residual)
        for f in (wave, poly)
        for x in sampling.points(rng, metric.dim, 4)
        for residual in commutator_residuals(f, x, metric)
    ]


@_register("gamma-reflection", FIELD_KINDS, "exact", "gamma algebra holds and slashed units reproduce the reflection matrix")
def _chk_gamma(spec, metric, rng):
    gammas = build_gammas(metric.dim)
    anti = anticommutator_residual(gammas, metric)
    pts = sampling.timelike_points(rng, metric.dim, 50)
    return _in_sample_order(lambda x: _first_max(anti, sandwich_identity_residual(x, gammas, metric)).tolist(), pts)


@_register("decoupling-bracket", FIELD_KINDS, "identity", "the reflection-matrix transport bracket vanishes")
def _chk_bracket(spec, metric, rng):
    xs = sampling.off_cone_points(rng, metric.dim, 50, min_frac=0.1)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    return _in_sample_order(lambda x, c: _max_abs(decoupling_bracket_residual(x, c, metric), 2).tolist(), xs, cs)


@_register("vector-decoupling", FIELD_KINDS, "identity", "reflected vectors follow the scalar transformation rule")
def _chk_vec_decoupling(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    xs = sampling.off_cone_points(rng, metric.dim, 30, min_frac=0.1)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    return _in_sample_order(lambda x, c: decoupled_vector_residual(A, x, c, metric).tolist(), xs, cs)


@_register("spinor-decoupling", FIELD_KINDS, "identity", "slashed spinors follow the scalar transformation rule")
def _chk_spin_decoupling(spec, metric, rng):
    gammas = build_gammas(metric.dim)
    psi = sampling.random_spinor(rng, metric, gammas.size)
    xs = sampling.timelike_points(rng, metric.dim, 30)
    cs = sampling.small_parameters(rng, metric.dim, len(xs), scale=0.4)
    return _in_sample_order(lambda x, c: decoupled_spinor_residual(psi, x, c, metric, gammas).tolist(), xs, cs)


@_register("large-parameter-decay", FIELD_KINDS, 0.2, "large-parameter map error decays with the inverse parameter cube")
def _chk_large_c(spec, metric, rng):
    def residual():
        x = sampling.timelike_points(rng, metric.dim, 1)[0]
        c0 = sampling.timelike_points(rng, metric.dim, 1)[0]
        errs = [
            _gap(special_conformal_map(x, c, metric), large_parameter_map(x, c, metric))
            for c in (10.0 * c0, 20.0 * c0, 40.0 * c0)
        ]
        return max(abs(e1 / e2 - 8.0) / 8.0 for e1, e2 in zip(errs, errs[1:]))

    return [residual() for _ in range(5)]


def _order_residuals(rng, metric, make_view, variation):
    """Per point, how far the convergence order of the parameter derivative of
    a finite transform ``make_view(c, weight)`` towards the infinitesimal
    variation falls short of 1.9; 1.0 at least where the third regresses."""
    d = canonical_weight(metric.dim)

    def residual(x):
        c = sampling.small_parameters(rng, metric.dim, 1, scale=0.4)[0]
        target = variation(c, x)
        errs = [
            _gap(finite_variation_fd(lambda t: make_view(t * c, d), x, eps), target) + 1e-30
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        shortfall = 1.9 - np.log10(errs[0] / errs[1])
        return max(shortfall, 1.0) if errs[2] > 10.0 * errs[1] else shortfall

    return [residual(x) for x in sampling.timelike_points(rng, metric.dim, 5)]


@_register("finite-infinitesimal-scalar", FIELD_KINDS, 0.0, "finite scalar transform linearises to the scalar variation")
def _chk_order_scalar(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=2)
    return _order_residuals(
        rng, metric,
        lambda c, d: FiniteScalarTransform(phi, c, d, metric),
        lambda c, x: delta_scalar(special_conformal(c), phi, x, metric),
    )


@_register("finite-infinitesimal-vector", FIELD_KINDS, 0.0, "finite vector transform linearises to the vector variation")
def _chk_order_vector(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    return _order_residuals(
        rng, metric,
        lambda c, d: FiniteVectorTransform(A, c, d, metric),
        lambda c, x: delta_vector_potential(special_conformal(c, spin="vector"), A, x, metric),
    )


@_register("finite-infinitesimal-spinor", FIELD_KINDS, 0.0, "finite spinor transform linearises to the spinor variation")
def _chk_order_spinor(spec, metric, rng):
    gammas = build_gammas(metric.dim)
    psi = sampling.random_spinor(rng, metric, gammas.size)
    return _order_residuals(
        rng, metric,
        lambda c, d: FiniteSpinorTransform(psi, c, d, metric, gammas, route="compact"),
        lambda c, x: delta_spinor(special_conformal(c, spin="spinor"), psi, x, metric, gammas),
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

    def residual(x):
        c1 = sampling.small_parameters(rng, metric.dim, 1, scale=0.06)[0]
        c2 = sampling.small_parameters(rng, metric.dim, 1, scale=0.06)[0]
        once = FiniteScalarTransform(phi, c1 + c2, 1.0, metric)
        twice = FiniteScalarTransform(FiniteScalarTransform(phi, c1, 1.0, metric), c2, 1.0, metric)
        return _agreement(once, twice, x)

    return [residual(x) for x in sampling.points(rng, metric.dim, 40)]


# ---------------------------------------------------------------------------
# shared action identities (model built from the spec)
# ---------------------------------------------------------------------------


@_register("action-scale-identity", FIELD_KINDS, "identity", "dilation changes the density by a pure total derivative, off shell")
def _chk_action_scale(spec, metric, rng):
    model, fixture = _model_fixture(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 8)
    return [abs(action_variation_identity("scale", model, fixture, x, metric)) for x in pts]


@_register("action-conformal-identity", FIELD_KINDS, "identity", "conformal variation of the density is the stated total derivative",
           expected_fail=lambda spec: spec.kind == "general-scalar" and spec.profile != "linear")
def _chk_action_conformal(spec, metric, rng):
    model, fixture = _model_fixture(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 8)
    return [
        abs(action_variation_identity("conformal", model, fixture, x, metric, s))
        for x in pts for s in range(metric.dim)
    ]


@_register("virial-structure", FIELD_KINDS, "oracle", "virial total-divergence status and its potential check out")
def _chk_virial_structure(spec, metric, rng):
    model, fixture = _model_fixture(spec, metric, rng)
    expect_flag = {
        "maxwell": metric.dim == 4,
        "interacting-multiplet": True,
        "dual-scalar-3": True,
        "general-scalar": spec.profile == "linear",
    }[spec.kind]

    def residual(x):
        info = field_virial(model, fixture, x, metric)
        flag_error = 0.0 if info.is_total_divergence == expect_flag else 1.0
        if not info.is_total_divergence or info.potential is None:
            return flag_error
        fd = fd_gradient(info.potential, x, 1e-5)  # fd[m, a, r] = d_r sigma^{ma}
        return max(flag_error, _gap(np.einsum("mam->a", fd), info.value))

    return [residual(x) for x in sampling.points(rng, metric.dim, 6)]


# ---------------------------------------------------------------------------
# Maxwell checks
# ---------------------------------------------------------------------------


@_register("stress-trace-law", ("maxwell",), "exact", "stress trace equals (-1 + D/4) F^2 at every point")
def _chk_trace_law(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)

    def residual(x):
        F = field_strength_from_potential(A, x).F
        expected = (-1.0 + metric.dim / 4.0) * _f_squared(F, metric)
        return abs(maxwell_stress_trace(A, x, metric) - expected)

    return [residual(x) for x in sampling.points(rng, metric.dim, 10)]


@_register("stress-conservation", ("maxwell",), "identity", "stress tensor is conserved on shell")
def _chk_stress_cons(spec, metric, rng):
    A = _onshell_potential(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    return [_maxabs(maxwell_stress_divergence(A, x, metric)) for x in pts]


@_register("scale-current-conservation", ("maxwell",), "identity", "improved scale current is conserved on shell in every D")
def _chk_scale_current(spec, metric, rng):
    A = _onshell_potential(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    return [abs(scale_current_maxwell_divergence(A, x, metric)) for x in pts]


@_register("current-construction-equivalence", ("maxwell",), "identity", "raw and improved scale currents share one divergence")
def _chk_current_equiv(spec, metric, rng):
    A = _onshell_potential(spec, metric, rng)
    raw, improved = noether_scale_current_maxwell_divergence, scale_current_maxwell_divergence
    pts = sampling.points(rng, metric.dim, 10)
    return [abs(raw(A, x, metric) - improved(A, x, metric)) for x in pts]


def _conformal_current_sides(spec, metric, rng):
    """(divergence, closed-form anomaly) of the conformal current of an
    on-shell potential, at each point for a parameter drawn per point."""
    A = _onshell_potential(spec, metric, rng)
    dim = metric.dim
    return [
        current_divergence_identity(special_conformal(rng.normal(0.0, 0.4, dim)), A, x, metric)
        for x in sampling.points(rng, dim, 10)
    ]


@_register("conformal-current-identity", ("maxwell",), "identity", "conformal current divergence equals its closed-form anomaly")
def _chk_conf_current(spec, metric, rng):
    return [abs(lhs - rhs) for lhs, rhs in _conformal_current_sides(spec, metric, rng)]


@_register("conformal-current-naive", ("maxwell",), "identity", "naive conformal conservation: holds only in four dimensions",
           expected_fail=lambda spec: spec.dimension != 4)
def _chk_conf_naive(spec, metric, rng):
    return [abs(lhs) for lhs, _ in _conformal_current_sides(spec, metric, rng)]


@_register("virial-closed-form", ("maxwell",), "exact", "first-principles virial equals its (4-D)/2 F A closed form")
def _chk_virial(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)

    def residual(x):
        info = field_virial(MaxwellModel(metric.dim), A, x, metric)
        mismatch = _gap(info.value, maxwell_virial_first_principles(A, x, metric))
        return max(mismatch, _maxabs(info.value)) if metric.dim == 4 else mismatch

    return [residual(x) for x in sampling.points(rng, metric.dim, 10)]


@_register("action-assumed-primary", ("maxwell",), "identity", "pretend-primary conformal rule makes the action invariant")
def _chk_assumed_primary(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    model = MaxwellModel(metric.dim)
    pts = sampling.points(rng, metric.dim, 6)
    return [
        abs(action_variation_identity("conformal-assumed-primary", model, A, x, metric, s))
        for x in pts for s in range(metric.dim)
    ]


def _gauge_fixture(spec, metric, rng):
    A = _onshell_potential(spec, metric, rng)
    omega = make_gauge_function(
        "plane-wave", metric, k=rng.normal(0.0, 0.5, metric.dim), amplitude=0.8, phase=0.3
    )
    return A, omega


@_register("gauge-shift-pointwise", ("maxwell",), "identity", "gauge change shifts the scale current by the predicted divergence")
def _chk_gauge_shift(spec, metric, rng):
    A, omega = _gauge_fixture(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    return [_gap(*gauge_shift_scale_current(A, omega, x, metric)) for x in pts]


@_register("gauge-shift-conserved", ("maxwell",), "identity", "the gauge-induced current shift is trivially conserved on shell")
def _chk_gauge_shift_div(spec, metric, rng):
    A, omega = _gauge_fixture(spec, metric, rng)
    pts = sampling.points(rng, metric.dim, 10)
    return [abs(gauge_shift_divergence(A, omega, x, metric)) for x in pts]


def _vector_generators(metric, rng):
    """A dilation and a random special conformal generator acting on vectors."""
    return [
        dilation(0.7, metric.dim, spin="vector"),
        special_conformal(rng.normal(0.0, 0.3, metric.dim), spin="vector"),
    ]


@_register("lie-derivative-forms", ("maxwell",), "exact", "transport and gauge-covariant Lie derivative forms agree")
def _chk_lie_forms(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    gens = _vector_generators(metric, rng)
    pts = sampling.points(rng, metric.dim, 8)
    return [_gap(*lie_derivative_vector(gen, A, x, metric)) for x in pts for gen in gens]


@_register("lie-derivative-weight", ("maxwell",), "exact", "field variation differs from the Lie derivative by the weight term")
def _chk_lie_weight(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    dim = metric.dim
    gens = _vector_generators(metric, rng)

    def residual(x, gen):
        lie, _ = lie_derivative_vector(gen, A, x, metric)
        delta = delta_vector_potential(gen, A, x, metric)
        shift = ((dim - 4.0) / (2.0 * dim)) * killing_divergence(gen, x, metric) * A.value(x)
        return _maxabs(delta - lie - shift)

    return [residual(x, gen) for x in sampling.points(rng, dim, 8) for gen in gens]


@_register("primary-rule-discrepancy", ("maxwell",), "exact", "induced and pretend-primary F variations differ by (D-4) potential terms")
def _chk_primary_disc(spec, metric, rng):
    A = sampling.random_offshell_potential(rng, metric)
    dim = metric.dim

    def residual(x):
        c = rng.normal(0.0, 0.3, dim)
        induced = delta_field_strength(special_conformal(c, spin="vector"), A, x, metric)
        gen_f = special_conformal(c, weight=dim / 2.0, spin="field-strength")
        fs = field_strength_from_potential(A, x)
        primary = delta_field_strength_primary(gen_f, fs, x, metric)
        cl = metric.lower(c)
        val = A.value(x)
        expected = (dim - 4.0) * (np.outer(cl, val) - np.outer(cl, val).T)
        return _maxabs(induced - primary - expected)

    return [residual(x) for x in sampling.points(rng, dim, 8)]


@_register("eom-conformal-violation", ("maxwell",), "identity", "the varied field strength violates the equations of motion off D = 4")
def _chk_eom_violation(spec, metric, rng):
    A = _onshell_potential(spec, metric, rng)
    return [
        _gap(*eom_violation_conformal(A, x, metric, rng.normal(0.0, 0.3, metric.dim)))
        for x in sampling.points(rng, metric.dim, 8)
    ]


# ---------------------------------------------------------------------------
# scalar multiplet checks
# ---------------------------------------------------------------------------


@_register("multiplet-stress-conservation", ("interacting-multiplet",), "identity", "free canonical stress tensor is conserved on shell")
def _chk_mult_cons(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True)
    pts = sampling.points(rng, metric.dim, 10)
    return [_maxabs(scalar_stress_divergence(phi, x, metric)) for x in pts]


@_register("improved-trace-onshell", ("interacting-multiplet", "dual-scalar-3"), "identity", "improved stress tensor is traceless on shell")
def _chk_improved_trace(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True, n_comp=max(1, spec.components))
    pts = sampling.points(rng, metric.dim, 10)
    return [abs(improved_scalar_stress_trace(phi, x, metric)) for x in pts]


@_register("improved-trace-law", ("interacting-multiplet",), "identity", "improved trace follows its hand-derived off-shell closed form")
def _chk_trace_law_offshell(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng)
    lam = spec.coupling

    def residual(x):
        lhs = improved_scalar_stress_trace(phi, x, metric, lam)
        return abs(lhs - offshell_trace_law(phi, x, metric, lam))

    return [residual(x) for x in sampling.points(rng, metric.dim, 10)]


@_register("improved-conservation", ("interacting-multiplet", "dual-scalar-3"), "identity", "improved stress tensor stays conserved on shell")
def _chk_improved_cons(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True, n_comp=max(1, spec.components))
    pts = sampling.points(rng, metric.dim, 10)
    return [_maxabs(improved_scalar_stress_divergence(phi, x, metric)) for x in pts]


@_register("killing-current-conservation", ("interacting-multiplet",), "identity", "stress-times-Killing currents are conserved on shell (free)")
def _chk_killing_current(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True)
    model = MultipletModel(metric.dim, spec.components, 0.0)
    gens = basis_generators(metric.dim)
    pts = sampling.points(rng, metric.dim, 4)
    return [abs(bessel_hagen_divergence(gen, model, phi, x, metric)) for x in pts for gen in gens]


# ---------------------------------------------------------------------------
# dual-sector checks
# ---------------------------------------------------------------------------


@_register("dual-roundtrip", ("dual-scalar-3",), "exact", "the dual map inverts: half the symbol contraction rebuilds the gradient")
def _chk_dual_roundtrip(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=1).component(0)
    return [dual3.dual_roundtrip_residual(phi, x, metric) for x in sampling.points(rng, 3, 10)]


@_register("dual-motion-identity", ("dual-scalar-3",), "exact", "the field equation holds identically for any dual scalar")
def _chk_dual_motion(spec, metric, rng):
    poly = sampling.random_polynomial_multiplet(rng, 3, 1)
    return [
        _maxabs(dual3.maxwell_eom_from_dual(phi, x, metric))
        for phi in (poly.component(0), _scalar_fixture(spec, metric, rng, n_comp=1).component(0))
        for x in sampling.points(rng, 3, 8)
    ]


@_register("dual-bianchi-dynamics", ("dual-scalar-3",), "exact", "the cyclic identity carries the wave operator of the dual scalar")
def _chk_dual_bianchi(spec, metric, rng):
    phi = sampling.random_polynomial_multiplet(rng, 3, 1).component(0)
    return [dual3.bianchi_pattern_residual(phi, x, metric) for x in sampling.points(rng, 3, 10)]


@_register("dual-nonprimary-shift", ("dual-scalar-3",), "exact", "dual F variation exceeds the primary rule by the symbol times phi")
def _chk_dual_nonprimary(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=1).component(0)
    pts = sampling.points(rng, 3, 8)
    return [dual3.nonprimary_shift_residual(phi, x, s, metric) for x in pts for s in range(3)]


@_register("dual-variation-consistency", ("dual-scalar-3",), "identity", "explicit dual F variation equals the chain rule through the gradient")
def _chk_dual_chain(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, n_comp=1).component(0)
    pts = sampling.points(rng, 3, 8)
    return [
        _gap(dual3.delta_bar_F(phi, x, s, metric), dual3.delta_bar_F_chain_rule(phi, x, s, metric))
        for x in pts for s in range(3)
    ]


@_register("dual-stress-equality", ("dual-scalar-3",), "identity", "F-form and scalar-form improved stress tensors agree on shell")
def _chk_dual_stress(spec, metric, rng):
    phi = _scalar_fixture(spec, metric, rng, null=True, n_comp=1).component(0)

    def residual(x):
        a = dual3.improved_stress_from_F(phi, x, metric)
        b = dual3.improved_stress_scalar_form(phi, x, metric)
        return max(_gap(a, b), abs(float(np.einsum("m,mm->", metric.diag, a))))

    return [residual(x) for x in sampling.points(rng, 3, 10)]


@_register("duality-match", ("dual-scalar-3",), 1e-10, "a matched plane-wave pair satisfies the duality relation pointwise")
def _chk_duality_match(spec, metric, rng):
    k = sampling.null_vector(rng, 3, scale=1.2)
    phi, A = dual3.matched_plane_wave_pair(k, 0.9, 0.4, metric)
    return [_maxabs(dual3.duality_mismatch(A, phi, x, metric)) for x in sampling.points(rng, 3, 10)]


# ---------------------------------------------------------------------------
# mechanics checks
# ---------------------------------------------------------------------------


@_register("mech-free-motion", ("mechanics",), "exact", "the free flow reproduces straight lines to rounding")
def _chk_mech_free(spec, metric, rng):
    start = MechState.make(0.0, [1.0, 2.0], [0.3, -0.1])
    traj = integrate(start, MechParams(2, 0.0), 2.0, 1e-3)
    exact = start.q[None, :] + traj.times[:, None] * start.p[None, :]
    return list(np.max(np.abs(traj.q - exact), axis=1))


@_register("mech-charge-drift", ("mechanics",), "drift", "energy, dilation and conformal charges hold along trajectories")
def _chk_mech_drift(spec, metric, rng):
    mech = spec.mechanics
    t_end, step = mech.get("t-end", 10.0), mech.get("step", 1e-3)
    couplings = [spec.coupling] if spec.coupling else [0.0, 0.5, 2.0]
    sizes = [len(mech["q0"])] if "q0" in mech else [1, 2, 3]
    grid = [(lam, n) for lam in couplings for n in sizes]
    trajs = integrate_many(
        [initial_state(mech, n) for _, n in grid], [MechParams(n, lam) for lam, n in grid], t_end, step
    )
    return [float(np.max(traj.charge_drift())) for traj in trajs]


@_register("mech-so21", ("mechanics",), "exact", "charge Poisson brackets close on the hand-derived table")
def _chk_mech_so21(spec, metric, rng):
    def residual(lam):
        q = rng.normal(0.0, 1.0, 3) + 2.0
        p = rng.normal(0.0, 1.0, 3)
        return float(np.max(so21_bracket_residuals(MechState.make(0.0, q, p), MechParams(3, lam))))

    return [residual(lam) for lam in (0.0, spec.coupling or 1.0) for _ in range(10)]


@_register("mech-rk4-order", ("mechanics",), 0.5, "halving the step cuts the drift sixteenfold")
def _chk_mech_order(spec, metric, rng):
    start = MechState.make(0.0, [3.0], [-1.0])
    d1 = integrate(start, MechParams(1, 1.0), 8.0, 0.05).charge_drift()[0]
    d2 = integrate(start, MechParams(1, 1.0), 8.0, 0.025).charge_drift()[0]
    return [abs(float(np.log2(d1 / d2)) - 4.0)]


@_register("mech-reduction", ("mechanics",), "identity", "one-dimensional scalar variations reduce to the mechanics rules")
def _chk_mech_reduction(spec, metric, rng):
    one = Metric(1)
    poly = sampling.random_polynomial_multiplet(rng, 1, 3, degree=4)
    gen_s = dilation(1.0, 1)
    gen_c = special_conformal(np.array([1.0]))

    def residual(t):
        x = np.array([t])
        state = MechState.make(t, poly.value(x), poly.grad(x)[:, 0])
        return max(
            _gap(delta_scalar(gen_s, poly, x, one), delta_scale_q(state)),
            _gap(delta_scalar(gen_c, poly, x, one), delta_conformal_q(state)),
        )

    return [residual(t) for t in rng.uniform(-2.0, 2.0, 12)]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Outcome of one suite run: per-check reports plus provenance."""

    version: str
    spec_echo: dict
    checks: list
    seed: int
    wall_time: float = 0.0

    @property
    def overall_ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "version": self.version,
            "seed": self.seed,
            "spec": self.spec_echo,
            "checks": [check.to_dict() for check in self.checks],
            "overall_ok": self.overall_ok,
        }
        if include_timing:
            out["wall_time_seconds"] = self.wall_time
        return out


def applicable_checks(kind: str) -> list:
    return [name for name, cd in CHECKS.items() if kind in cd.kinds]


def _reduce(residuals: list):
    """(samples evaluated, max residual, error) of one check's residuals; the
    max residual is 0.0 when there is an error, which keeps the json finite."""
    values = [r for r in residuals if r is not None]
    for index, r in enumerate(residuals):
        if r is not None and not math.isfinite(r):
            return len(values), 0.0, f"non-finite residual {r} at sample {index}"
    if 2 * len(values) < len(residuals) or not values:
        return len(values), 0.0, f"only {len(values)} of {len(residuals)} samples evaluated"
    return len(values), float(max(values)), None


def _run_check(spec: ModelSpec, metric: Metric, name: str) -> CheckReport:
    cd = CHECKS[name]
    tol, xfail = 0.0, False
    try:
        tol = float(spec.tolerances.get(cd.tolerance, cd.tolerance))  # a class, or a number
        xfail = cd.expected_fail is not None and cd.expected_fail(spec)
        samples, residual, error = _reduce(cd.fn(spec, metric, _rng_for(spec, name)))
    except Exception as exc:  # deliberate: a broken check must not kill the run
        samples, residual, error = 0, 0.0, f"{type(exc).__name__}: {exc}"
    return CheckReport(name, spec.dimension, samples, residual, tol, spec.seed, xfail, error)


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
    return RunReport(TOOLKIT_VERSION, spec.echo(), reports, spec.seed, wall)
