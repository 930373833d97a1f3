"""Lagrangian models, stress tensors, improvements, virials and currents.

Each scalar model owns its formulas: ``density(value, grad, metric)`` is L,
``conjugates(value, grad, metric)`` is (dL/dPhi_i, shape (N,); Pi^{im} =
dL/d(d_m Phi_i), index up, shape (N, D)), ``kinetic_coefficient`` is L'(0)
and ``linear`` is True when L is linear in the kinetic ratio z (the
multiplet, -coupling + z/2, the dual scalar, -z/2, and a linear profile).

Index conventions follow the rest of the package: stress tensors are stored
with both indices up, ``theta[m, n] = theta^{mn}``, and their analytic
derivative stacks carry the derivative axis last,
``dtheta[m, n, r] = d_r theta^{mn}``.

Leading sample axis: every kernel here, and each model's ``density`` and
``conjugates`` on value and gradient stacks ``(..., N)`` and ``(..., N, D)``,
takes points ``x`` of shape ``(..., D)`` (with a special conformal parameter
stack of the same shape, or a ``sigma`` index stack of shape ``(...)``) and
returns one result per sample; a single point is a stack with no sample
axis.  Each sample's result is bit for bit its single-point result, by the
rules of :mod:`confsym.geometry`.

Each kernel takes ``fields`` as a fixture or as its
:class:`~confsym.fields.Jet` on the same ``x`` (a jet on other points raises
ValueError) and reads the fixture only through that jet; a kernel built on
others passes its jet down, so one call evaluates each derivative order of
a fixture at most once (the gauge shift's shifted potential reads the
potential and the gauge function through their jets).  A Maxwell potential
is the D-component multiplet of its lower components; what sets it apart
from a scalar multiplet is the ``vector`` spin tag of the generators that
vary it (:func:`~confsym.transforms.delta_with_gradient`).

:func:`bessel_hagen_divergence` is the one divergence of each stress-tensor
current, the improved Maxwell scale current theta.x + V (the dilation's) too.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import FieldDomainError, UnsupportedDimension
from .fields import Jet, ShiftedPotential, as_jet
from .geometry import (
    GeneratorAction,
    Metric,
    _ReadOnly,
    _inner,
    _lift,
    _mv,
    _reject,
    _vm,
    canonical_weight,
    dilation,
    killing_divergence,
    killing_divergence_gradient,
    killing_gradient,
    killing_vector,
    sigma_basis_conformal,
)
from .transforms import delta_with_gradient, variation

# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class MaxwellModel(_ReadOnly):
    """Free electromagnetic field formulated through a vector potential."""

    def __init__(self, dim: int):
        self._bind(dim=dim)


class MultipletModel(_ReadOnly):
    """N-component scalar with the scale/conformal-invariant power potential.

    Density: half the kinetic square minus coupling * (Phi.Phi)^(D/(D-2)).
    Requires D >= 3 so the exponent is finite.
    """

    kinetic_coefficient = 0.5
    linear = True

    def __init__(self, dim: int, n_comp: int, coupling: float = 0.0):
        if dim < 3:
            raise UnsupportedDimension("the power potential needs D >= 3")
        if coupling < 0:
            raise ValueError("coupling must be non-negative")
        self._bind(dim=dim, n_comp=n_comp, coupling=coupling)

    @property
    def power(self) -> float:
        return self.dim / (self.dim - 2.0)

    def potential(self, s):
        """The power potential at s = Phi.Phi."""
        return self.coupling * np.float_power(s, self.power)

    def density(self, value, grad, metric: Metric):
        kinetic = 0.5 * np.einsum("m,...im,...im->...", metric.diag, grad, grad)
        return kinetic - self.potential(_inner(value, value))

    def conjugates(self, value, grad, metric: Metric):
        s = _inner(value, value)
        scale = -2.0 * self.coupling * self.power * np.float_power(s, self.power - 1.0)
        return _lift(scale) * value, grad * metric.diag


class GeneralScalarModel(_ReadOnly):
    """Single scalar with density L(z) phi^p, z = (dphi.dphi) / phi^p.

    Scale invariant for every profile L; conformally invariant only when L is
    linear.  ``linear`` is True when the profile is known to be linear,
    which gives the virial its closed-form potential.  The density
    is defined where phi^p is real and nonzero: phi > 0, or phi != 0 when p
    is an integer; elsewhere ``density`` and ``conjugates`` raise
    :class:`~confsym.errors.FieldDomainError`.
    """

    def __init__(self, dim: int, profile: Callable[[float], float], profile_prime: Callable[[float], float],
                 linear: bool = False):
        if dim < 3:
            raise UnsupportedDimension("the scale-invariant power needs D >= 3")
        self._bind(dim=dim, profile=profile, profile_prime=profile_prime, linear=linear)

    @property
    def power(self) -> float:
        return 2.0 * self.dim / (self.dim - 2.0)

    @property
    def kinetic_coefficient(self) -> float:
        """L'(0); the coefficient entering the conformal improvement term."""
        return float(self.profile_prime(0.0))

    def _ratio(self, value, grad, metric: Metric):
        """(phi, phi^p, z) per sample, after the domain test."""
        phi = value[..., 0]
        bad = phi == 0.0 if self.power.is_integer() else ~(phi > 0.0)
        _reject(bad, phi, FieldDomainError,
                f"phi = {{}} at sample {{sample}}: the general scalar needs phi^p real and nonzero, p = {self.power:g}")
        power_term = np.float_power(phi, self.power)
        s = np.einsum("m,...m,...m->...", metric.diag, grad[..., 0, :], grad[..., 0, :])
        return phi, power_term, s / power_term

    def density(self, value, grad, metric: Metric):
        _, power_term, z = self._ratio(value, grad, metric)
        return self.profile(z) * power_term

    def conjugates(self, value, grad, metric: Metric):
        phi, _, z = self._ratio(value, grad, metric)
        p = self.power
        lp = self.profile_prime(z)
        dl_dphi = p * np.float_power(phi, p - 1.0) * (self.profile(z) - z * lp)
        return np.asarray(dl_dphi)[..., None], 2.0 * _lift(lp, 2) * metric.diag * grad


def linear_scalar_model(dim: int, l0: float, l1: float) -> GeneralScalarModel:
    return GeneralScalarModel(dim, lambda z: l0 + l1 * z, lambda z: l1, linear=True)


def quadratic_scalar_model(dim: int) -> GeneralScalarModel:
    """The z^2 profile: scale invariant, conformally non-invariant."""
    return GeneralScalarModel(dim, lambda z: z * z, lambda z: 2.0 * z)


class DualScalarModel(_ReadOnly):
    """Scalar-potential formulation of the D = 3 Maxwell theory.

    The density is minus half the kinetic square: the duality map fixes this
    sign, and the quadratic improvement term inherits it.
    """

    kinetic_coefficient = -0.5
    linear = True

    def __init__(self, dim: int = 3):
        if dim != 3:
            raise UnsupportedDimension("the dual scalar formulation lives at D = 3")
        self._bind(dim=dim)

    def density(self, value, grad, metric: Metric):
        return -0.5 * np.einsum("m,...m,...m->...", metric.diag, grad[..., 0, :], grad[..., 0, :])

    def conjugates(self, value, grad, metric: Metric):
        return np.zeros_like(value), -metric.diag * grad


# ---------------------------------------------------------------------------
# small index helpers
# ---------------------------------------------------------------------------


def _at(a, index):
    """``a[..., index]`` with one index per sample from an index stack."""
    return np.take_along_axis(a, index[..., None], axis=-1)[..., 0]


def _raise2(T, metric: Metric):
    return metric.diag[:, None] * T * metric.diag[None, :]


def _raise_dF(dF, metric: Metric):
    """d_r F^{ab}: both field-strength indices of ``dF[a, b, r]`` raised."""
    return metric.diag[:, None, None] * dF * metric.diag[None, :, None]


def _f_squared(F, metric: Metric):
    return np.sum(_raise2(F, metric) * F, axis=(-2, -1))


def _div_f_times(jet, v, dv, metric: Metric):
    """d_m (F^{ma} v_a) for the potential's jet and a co-vector v with
    ``dv[a, m] = d_m v_a``."""
    out = np.einsum("...mam,...a->...", _raise_dF(jet.dF, metric), v)
    return out + np.einsum("...ma,...am->...", _raise2(jet.F, metric), dv)


# ---------------------------------------------------------------------------
# Lagrangian values and gradients
# ---------------------------------------------------------------------------


def lagrangian(model, fields, x, metric: Metric):
    """(L, d_m L): the pointwise Lagrange density of the given model and its
    total derivative along the field configuration."""
    jet = as_jet(fields, x)
    if isinstance(model, MaxwellModel):
        lag = -0.25 * _f_squared(jet.F, metric)
        return lag, -0.5 * np.einsum("...ab,...abm->...m", _raise2(jet.F, metric), jet.dF)
    density = model.density(jet.value, jet.grad, metric)
    return density, _density_gradient(model, jet.value, jet.grad, jet.hess, metric)


def _density_gradient(model, value, grad, hess, metric: Metric) -> np.ndarray:
    """d_m L = Pi^{ia} d_m d_a Phi_i + dL/dPhi_i d_m Phi_i of a scalar model."""
    dl_dphi, mom = model.conjugates(value, grad, metric)
    return np.einsum("...ia,...iam->...m", mom, hess) + _vm(dl_dphi, grad)


# ---------------------------------------------------------------------------
# stress tensors
# ---------------------------------------------------------------------------


def maxwell_stress(A, x, metric: Metric) -> np.ndarray:
    """theta^{mn} = -F^{ma} F^n_a + g^{mn} F^2 / 4; symmetric, conserved on
    shell, traceless only at D = 4."""
    F = as_jet(A, x).F
    f_up = _raise2(F, metric)
    mixed = metric.diag[:, None] * F  # F^n_a stored [n, a]
    theta = -np.einsum("...ma,...na->...mn", f_up, mixed)
    theta += metric.matrix * _lift(0.25 * _f_squared(F, metric), 2)
    return theta


def maxwell_stress_divergence(A, x, metric: Metric) -> np.ndarray:
    """d_m theta^{mn}; vanishes on shell."""
    jet = as_jet(A, x)
    f_up = _raise2(jet.F, metric)
    df_up = _raise_dF(jet.dF, metric)
    mixed = metric.diag[:, None] * jet.F
    dmixed = metric.diag[:, None, None] * jet.dF
    dtheta = -np.einsum("...mar,...na->...mnr", df_up, mixed)
    dtheta -= np.einsum("...ma,...nar->...mnr", f_up, dmixed)
    df2 = 2.0 * np.einsum("...ab,...abr->...r", f_up, jet.dF)
    dtheta += 0.25 * np.einsum("mn,...r->...mnr", metric.matrix, df2)
    return np.einsum("...mnm->...n", dtheta)


def maxwell_stress_trace(A, x, metric: Metric):
    """g_{mn} theta^{mn}; equals (-1 + D/4) F^2 identically."""
    theta = maxwell_stress(A, x, metric)
    return np.einsum("m,...mm->...", metric.diag, theta)


def scalar_stress(phi, x, metric: Metric, coupling: float = 0.0) -> np.ndarray:
    """Canonical scalar stress tensor d^m Phi . d^n Phi - g^{mn} density.

    ``coupling`` adds the conformal power potential of :class:`MultipletModel`.
    The dual-scalar sector reuses this standard form (the duality map sends
    the Maxwell stress tensor to it, regardless of the sign carried by the
    dual density).
    """
    jet = as_jet(phi, x)
    value, grad = jet.value, jet.grad
    grad_up = grad * metric.diag[None, :]
    theta = np.einsum("...im,...in->...mn", grad_up, grad_up)
    model = MultipletModel(metric.dim, value.shape[-1], coupling)
    theta -= metric.matrix * _lift(model.density(value, grad, metric), 2)
    return theta


def scalar_stress_divergence(phi, x, metric: Metric, coupling: float = 0.0):
    """d_m theta^{mn} for the canonical scalar tensor."""
    jet = as_jet(phi, x)
    value, grad, hess = jet.value, jet.grad, jet.hess
    model = MultipletModel(metric.dim, value.shape[-1], coupling)
    grad_up = grad * metric.diag[None, :]
    hess_up = hess * metric.diag[None, :, None]
    dtheta = np.einsum("...imr,...in->...mnr", hess_up, grad_up)
    dtheta += np.einsum("...im,...inr->...mnr", grad_up, hess_up)
    dl = _density_gradient(model, value, grad, hess, metric)
    dtheta -= np.einsum("mn,...r->...mnr", metric.matrix, dl)
    return np.einsum("...mnm->...n", dtheta)


def improvement_coefficient(dim: int) -> float:
    """(D - 2) / (4 (D - 1)): the unique weight making the improved scalar
    stress tensor traceless on shell in any dimension."""
    return (dim - 2.0) / (4.0 * (dim - 1.0))


def improved_scalar_stress(phi, x, metric: Metric, coupling: float = 0.0) -> np.ndarray:
    """Canonical tensor plus xi (g^{mn} box - d^m d^n) of Phi.Phi.

    The dual scalar sector uses the same tensor: its improvement term has
    the standard sign.
    """
    xi = improvement_coefficient(metric.dim)
    jet = as_jet(phi, x)
    theta = scalar_stress(jet, x, metric, coupling)
    value, grad, hess = jet.value, jet.grad, jet.hess
    # the derivative stacks of S = Phi.Phi are exactly symmetric by construction
    s_hess = 2.0 * (
        np.einsum("...im,...in->...mn", grad, grad)
        + np.einsum("...i,...imn->...mn", value, hess)
    )
    box_s = np.einsum("m,...mm->...", metric.diag, s_hess)
    improvement = metric.matrix * _lift(box_s, 2) - _raise2(s_hess, metric)
    return theta + xi * improvement


def improved_scalar_stress_divergence(phi, x, metric: Metric, coupling: float = 0.0):
    """d_m theta_improved^{mn}; the improvement part cancels identically."""
    jet = as_jet(phi, x)
    div = scalar_stress_divergence(jet, x, metric, coupling)
    xi = improvement_coefficient(metric.dim)
    value, grad, hess, third = jet.value, jet.grad, jet.hess, jet.third
    s_third = 2.0 * (
        np.einsum("...imn,...ir->...mnr", hess, grad)
        + np.einsum("...imr,...in->...mnr", hess, grad)
        + np.einsum("...inr,...im->...mnr", hess, grad)
        + np.einsum("...i,...imnr->...mnr", value, third)
    )
    d_box = np.einsum("a,...aar->...r", metric.diag, s_third)
    box_d = np.einsum("m,...mnm->...n", metric.diag, s_third)
    return div + xi * (metric.diag * d_box - metric.diag * box_d)


def improved_scalar_stress_trace(phi, x, metric: Metric, coupling: float = 0.0):
    """g_{mn} theta_improved^{mn}; vanishes on shell."""
    theta = improved_scalar_stress(phi, x, metric, coupling)
    return np.einsum("m,...mm->...", metric.diag, theta)


def offshell_trace_law(phi, x, metric: Metric, coupling: float = 0.0):
    """Closed form of the improved trace valid off shell:
    D * potential + (D - 2)/2 * Phi . box Phi.  Derived by hand; serves as an
    independent oracle for the trace computation."""
    jet = as_jet(phi, x)
    dim = metric.dim
    model = MultipletModel(dim, jet.value.shape[-1], coupling)
    potential = dim * model.potential(_inner(jet.value, jet.value))
    return potential + 0.5 * (dim - 2.0) * _inner(jet.value, jet.box(metric))


# ---------------------------------------------------------------------------
# virials
# ---------------------------------------------------------------------------


class VirialInfo(_ReadOnly):
    """Virial value with its total-divergence status.

    When ``is_total_divergence`` the ``potential`` callable returns the
    rank-two tensor sigma[m, a] (indices up) whose divergence d_m sigma^{ma}
    reproduces the virial.
    """

    def __init__(self, value: np.ndarray, is_total_divergence: bool, potential: Optional[Callable] = None):
        self._bind(value=value, is_total_divergence=is_total_divergence, potential=potential)


def field_virial(model, fields, x, metric: Metric) -> VirialInfo:
    """The field virial V^m, index up: d Phi_i Pi^{im} for a scalar of weight
    d, (4 - D)/2 F^{ma} A_a for Maxwell.  A conformal variation of the
    density is a total derivative plus 2 V (:func:`action_variation_identity`),
    so the theory is conformal exactly when V is a divergence d_n sigma^{nm},
    sigma the ``potential``: for a density linear in the kinetic ratio
    (sigma = d L'(0) g Phi.Phi) and for Maxwell at D = 4 (V = 0)."""
    dim = metric.dim
    d = canonical_weight(dim)
    jet = as_jet(fields, x)
    if isinstance(model, MaxwellModel):
        value = 0.5 * (4.0 - dim) * _mv(_raise2(jet.F, metric), jet.value)
        if dim == 4:
            return VirialInfo(value, True, lambda y: np.zeros(np.shape(y)[:-1] + (dim, dim)))
        return VirialInfo(value, False)
    _, mom = model.conjugates(jet.value, jet.grad, metric)  # mom carries an upper index
    v = d * np.einsum("...i,...im->...m", jet.value, mom)
    if not model.linear:
        return VirialInfo(v, False)
    coeff = d * model.kinetic_coefficient

    def potential(y):
        val = Jet(jet.field, y).value
        return coeff * metric.matrix * _lift(_inner(val, val), 2)

    return VirialInfo(v, True, potential)


def maxwell_virial_first_principles(A, x, metric: Metric):
    """The virial evaluated straight from its definition with the vector spin
    matrix; an independent route to the (4 - D)/2 F A closed form."""
    d = canonical_weight(metric.dim)
    jet = as_jet(A, x)
    value = jet.value
    # mom[m, b] = dL / d(d^m A_b) = -F_m^b
    mom = -metric.diag[None, :] * jet.F
    upper = metric.diag * value
    term1 = d * metric.diag * _mv(mom, value)
    trace = np.trace(mom, axis1=-2, axis2=-1)
    return term1 + (-_lift(trace) * upper + _mv(np.swapaxes(mom, -1, -2), upper))


# ---------------------------------------------------------------------------
# currents
# ---------------------------------------------------------------------------


def scale_current_maxwell(A, x, metric: Metric) -> np.ndarray:
    """J^m = theta^m_a x^a + V^m, V the :func:`field_virial`: the improved
    scale current, the dilation's Killing current, whose divergence
    :func:`bessel_hagen_divergence` gives."""
    x = metric._check(x)
    jet = as_jet(A, x)
    theta = maxwell_stress(jet, x, metric)
    return _mv(theta, metric.lower(x)) + field_virial(MaxwellModel(metric.dim), jet, x, metric).value


def noether_scale_current_maxwell_divergence(A, x, metric: Metric):
    """Divergence of the raw Noether scale current, momentum times the
    dilation variation minus x^m times the density, before the trivially
    conserved piece is dropped; equals the improved one on shell."""
    x = metric._check(x)
    gen = dilation(1.0, metric.dim, spin="vector")
    jet = as_jet(A, x)
    delta, ddelta = delta_with_gradient(gen, jet, x, metric)
    lag, dlag = lagrangian(MaxwellModel(metric.dim), jet, x, metric)
    return -_div_f_times(jet, delta, ddelta, metric) - metric.dim * lag - _inner(x, dlag)


def killing_current_divergence(theta, theta_div, f, df, metric: Metric):
    """d_m (theta^{mn} f_n) for a stress tensor ``theta`` with divergence
    ``theta_div`` at some points, and a conformal Killing vector f^n with
    gradient df[n, m] = d_m f^n at the same points.  ``f`` and ``df`` may
    carry axes in front of the points', such as a generator-major stack of
    :func:`killing_vector` and :func:`killing_gradient`: the stress is built
    once and contracted with every generator in one call."""
    f_low = metric.lower(f)
    # [m, n] = d_m f_n
    grad_f_low = np.swapaxes(metric.diag[:, None] * df, -1, -2)
    return _inner(theta_div, f_low) + np.sum(theta * grad_f_low, axis=(-2, -1))


def bessel_hagen_divergence(gen: GeneratorAction, model, fields, x, metric: Metric):
    """d_m J^m of the current built from the stress tensor and a conformal
    Killing vector f, all derivatives analytic.

    Maxwell: J^m = theta^{ma} f_a + (d.f / D) V^m, V the field virial
    (4 - D)/2 F^{mb} A_b; the dilation's is :func:`scale_current_maxwell`.
    Multiplet and dual scalar: J^m = theta_improved^{mn} f_n.  The general
    scalar's stress tensor is not that tensor, so it raises TypeError.
    """
    if not isinstance(model, (MaxwellModel, MultipletModel, DualScalarModel)):
        raise TypeError(f"no stress-tensor current is built for {model!r}")
    x = metric._check(x)
    jet = as_jet(fields, x)
    f, df = killing_vector(gen, x, metric), killing_gradient(gen, x, metric)
    if isinstance(model, MaxwellModel):
        dim = metric.dim
        theta = maxwell_stress(jet, x, metric)
        theta_div = maxwell_stress_divergence(jet, x, metric)
        out = killing_current_divergence(theta, theta_div, f, df, metric)
        coeff = (4.0 - dim) / (2.0 * dim)
        div = killing_divergence(gen, x, metric)
        ddiv = killing_divergence_gradient(gen, metric)
        fa = _mv(_raise2(jet.F, metric), jet.value)
        div_fa = _div_f_times(jet, jet.value, jet.grad, metric)
        return out + coeff * (_inner(ddiv, fa) + div * div_fa)
    coupling = model.coupling if isinstance(model, MultipletModel) else 0.0
    theta = improved_scalar_stress(jet, x, metric, coupling)
    theta_div = improved_scalar_stress_divergence(jet, x, metric, coupling)
    return killing_current_divergence(theta, theta_div, f, df, metric)


def current_divergence_identity(gen: GeneratorAction, A, x, metric):
    """(computed, predicted) divergence of the Maxwell Killing current.

    The prediction is (4 - D) c_m F^{mb} A_b, which vanishes for Poincare
    and scale transformations (c = 0); on shell the computed value matches
    it.
    """
    x = metric._check(x)
    jet = as_jet(A, x)
    lhs = bessel_hagen_divergence(gen, MaxwellModel(metric.dim), jet, x, metric)
    cl = metric.lower(gen.c)
    rhs = (4.0 - metric.dim) * _inner(cl, _mv(_raise2(jet.F, metric), jet.value))
    return lhs, rhs


# ---------------------------------------------------------------------------
# gauge response of the scale current
# ---------------------------------------------------------------------------


def gauge_shift_scale_current(A, gauge, x, metric):
    """(shift, predicted) change of the scale current under A -> A + d Omega,
    with Omega component 0 of ``gauge``.

    ``shift`` is evaluated literally as the difference of the two currents;
    ``predicted`` is the divergence form (4-D)/2 d_a (F^{ma} Omega), which
    matches pointwise on shell.
    """
    x = metric._check(x)
    jet, omega = as_jet(A, x), as_jet(gauge, x)
    shifted = ShiftedPotential(jet, omega)
    shift = scale_current_maxwell(shifted, x, metric) - scale_current_maxwell(jet, x, metric)
    trace_df = np.einsum("...maa->...m", _raise_dF(jet.dF, metric))
    coeff = 0.5 * (4.0 - metric.dim)
    f_d_omega = _mv(_raise2(jet.F, metric), omega.grad[..., 0, :])
    return shift, coeff * (trace_df * _lift(omega.value[..., 0]) + f_d_omega)


def gauge_shift_divergence(A, gauge, x, metric):
    """d_m of the scale-current shift; trivially conserved on shell."""
    x = metric._check(x)
    omega = as_jet(gauge, x)
    d_omega, dd_omega = omega.grad[..., 0, :], omega.hess[..., 0, :, :]
    return 0.5 * (4.0 - metric.dim) * _div_f_times(as_jet(A, x), d_omega, dd_omega, metric)


# ---------------------------------------------------------------------------
# off-shell action variation identities
# ---------------------------------------------------------------------------


def _delta_lagrangian(model, gen, jet, x, metric):
    """delta L = dL/dPhi . delta Phi + Pi . d(delta Phi); Maxwell's Pi is -F."""
    delta, ddelta = delta_with_gradient(gen, jet, x, metric)
    if isinstance(model, MaxwellModel):
        return -np.einsum("...ma,...am->...", _raise2(jet.F, metric), ddelta)
    dl_dphi, mom = model.conjugates(jet.value, jet.grad, metric)
    return _inner(dl_dphi, delta) + np.sum(mom * ddelta, axis=(-2, -1))


def action_variation_identity(kind: str, model, fields, x, metric: Metric, sigma=0):
    """Residual of an off-shell action variation identity at the point x.

    ``kind``:

    * ``"scale"``: delta_S L minus d_m (x^m L); zero for every model here,
      including the general scalar with arbitrary profile.
    * ``"conformal"``: delta_s L - d_m (k_s^m L) - 2 V^s for the special
      conformal generator of index s, k_s^m = 2 x_s x^m - g^{sm} x^2 and
      V the :func:`field_virial`; zero for every model.  The theory is
      conformal exactly when V^s = d_n sigma^{ns}, which makes 2 V^s a total
      derivative too.
    * ``"conformal-assumed-primary"``: Maxwell only; the variation computed
      with the pretend-primary rule for F is a pure total derivative.

    With points ``(..., D)``, ``sigma`` may be an index stack ``(...)``, one
    index per sample; :func:`~confsym.geometry.sigma_basis_conformal` rejects
    an index outside 0..D-1.
    """
    x = metric._check(x)
    dim = metric.dim
    maxwell = isinstance(model, MaxwellModel)
    spin = "vector" if maxwell else "scalar"
    if kind == "scale":
        gen = dilation(1.0, dim, spin=spin)
    elif kind == "conformal":
        gen = sigma_basis_conformal(sigma, metric, canonical_weight(dim), spin)
    elif kind == "conformal-assumed-primary":
        if not maxwell:
            raise TypeError("the pretend-primary rule applies to the Maxwell model")
        gen = sigma_basis_conformal(sigma, metric, 0.5 * dim, "field-strength")
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    jet = as_jet(fields, x)
    lag, dlag = lagrangian(model, jet, x, metric)

    if kind == "scale":
        delta_l = _delta_lagrangian(model, gen, jet, x, metric)
        return delta_l - (dim * lag + _inner(x, dlag))

    sigma = np.broadcast_to(sigma, x.shape[:-1])
    x_sigma, diag_sigma = _at(x, sigma), metric.diag[sigma]
    x2 = metric.norm2(x)
    # written out, not taken from killing_vector: the one independent copy of
    # the special conformal Killing vector, so the action checks see its faults
    k_vec = 2.0 * _lift(x_sigma) * x - _lift(diag_sigma) * metric.identity[sigma] * _lift(x2)
    total_derivative = 2.0 * dim * x_sigma * lag + _inner(k_vec, dlag)

    if kind == "conformal":
        delta_l = _delta_lagrangian(model, gen, jet, x, metric)
        return delta_l - total_derivative - 2.0 * _at(field_virial(model, jet, x, metric).value, sigma)

    delta_f = variation(gen, jet.F, jet.dF, x, metric)
    delta_l = -0.5 * np.sum(_raise2(jet.F, metric) * delta_f, axis=(-2, -1))
    return delta_l - total_derivative
