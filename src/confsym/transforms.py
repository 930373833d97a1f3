"""Infinitesimal and finite conformal-group actions on fields.

The parametrised variation of any field is assembled from three pieces that
only depend on the generator through its coordinate vector field f:

    delta field = f^mu d_mu field
                + (weight / D) (d.f) field
                + (1/4)(d_mu f_nu - d_nu f_mu) Sigma^{mu nu} field

which reproduces the conventional translation / rotation / dilation /
special-conformal rules for every spin representation.

A note on operator composition: commutators of variations compose through
the field argument, so successive variations multiply in the opposite order
to the bare differential operators.  :func:`commutator_residual` follows the
successive-variation convention.

Leading sample axis: :func:`spin_coefficient`, the vector and spinor spin
actions, :func:`delta_vector_potential` and :func:`delta_spinor` on the
cosine fixtures, :func:`vector_spin_term`, :func:`decoupling_bracket_with`,
:func:`decoupling_bracket_residual`, :func:`decoupled_vector_residual`,
:func:`decoupled_spinor_residual` and the ``value`` of
:class:`FiniteVectorTransform` and :class:`FiniteSpinorTransform` take points
``x`` (or ``y``) of shape ``(..., D)`` with a parameter stack ``c`` of the
same shape, and return one result per sample.  Each sample's result is bit
for bit its single-point result, by mirroring the single point's operations
(see :mod:`confsym.geometry`): a per-point ``@``, ``dot`` or ``tensordot``
is a stacked ``matmul`` on operands of the same memory layout, a per-point
``einsum`` is the same ``einsum`` with a leading sample index, and a power of
a per-sample value is ``np.float_power``.  A single point gives the float or
array it always gave; a floor or timelike test raises for the first sample
that fails it.  The other functions here take one point.
"""

from __future__ import annotations

import numpy as np

from .clifford import GammaSet, gamma_slash_unit
from .errors import NonTimelikePoint, SingularMap
from .fields import (
    FieldStrengthValue,
    VectorPotential,
    field_strength_from_potential,
    multiplet_stack,
)
from .geometry import (
    SINGULARITY_FLOOR,
    GeneratorAction,
    Metric,
    _lift,
    _max_abs,
    _mv,
    _outer,
    _reject,
    canonical_weight,
    conformal_factor,
    inversion_matrix,
    inversion_matrix_gradient,
    killing_divergence,
    killing_divergence_gradient,
    killing_gradient,
    killing_second_gradient,
    killing_vector,
    map_jacobian,
    special_conformal,
    special_conformal_map,
)

__all__ = [
    "spin_coefficient",
    "delta_scalar",
    "delta_scalar_with_gradient",
    "delta_vector_potential",
    "delta_vector_potential_with_gradient",
    "delta_spinor",
    "delta_field_strength_primary",
    "delta_field_strength",
    "delta_field_strength_with_gradient",
    "eom_violation_conformal",
    "lie_derivative_vector",
    "commutator_residual",
    "commutator_residuals",
    "scalar_commutator_pair",
    "FiniteScalarTransform",
    "FiniteVectorTransform",
    "FiniteSpinorTransform",
    "vector_spin_term",
    "decoupling_bracket_residual",
    "decoupling_bracket_with",
    "decoupled_vector_residual",
    "decoupled_spinor_residual",
    "finite_variation_fd",
]


# ---------------------------------------------------------------------------
# spin actions
# ---------------------------------------------------------------------------


def _contract(grad, f):
    """grad[..., i, m] f^m per sample, every component index i in one
    matrix-vector product, as ``tensordot(grad, f, axes=([-1], [0]))`` forms
    it for one point."""
    rows = grad.reshape(f.shape[:-1] + (-1, f.shape[-1]))
    return _mv(rows, f).reshape(grad.shape[:-1])


def spin_coefficient(gen: GeneratorAction, x, metric: Metric) -> np.ndarray:
    """Antisymmetric lower-index coefficient C of the spin term C_{mn} Sigma^{mn}.

    C is one quarter of the curl of the Killing co-vector; symmetric parts of
    the gradient never reach the spin matrix.
    """
    df = killing_gradient(gen, x, metric)
    lowered = np.swapaxes(metric.diag[:, None] * df, -1, -2)  # P[m, n] = d_m f_n
    return 0.25 * (lowered - np.swapaxes(lowered, -1, -2))


def _spin_action(C, value, spin, metric: Metric, gammas: GammaSet | None):
    """Contract C_{mn} Sigma^{mn} against a field value in representation
    ``spin``; C need not be antisymmetric (only its odd part contributes)."""
    if spin == "scalar":
        return np.zeros_like(value)
    asym = C - np.swapaxes(C, -1, -2)
    if spin == "vector":
        return _mv(asym, metric.diag * value)
    if spin == "field-strength":
        up_first = metric.diag[:, None] * value  # F^m_b
        up_second = value * metric.diag[None, :]  # F_a^m
        return asym @ up_first + up_second @ np.swapaxes(asym, -1, -2)
    if spin == "spinor":
        if gammas is None:
            raise ValueError("spinor action requires a GammaSet")
        mat = np.zeros(C.shape[:-2] + (gammas.size, gammas.size), dtype=complex)
        for mu in range(metric.dim):
            for nu in range(mu + 1, metric.dim):
                mat += _lift(C[..., mu, nu] - C[..., nu, mu], 2) * gammas.spins[mu, nu]
        return _mv(mat, value)
    raise ValueError(f"unknown spin representation {spin!r}")


def _variation(gen, value, grad, x, metric, gammas=None):
    f = killing_vector(gen, x, metric)
    div = killing_divergence(gen, x, metric)
    out = _contract(grad, f)
    # one trailing axis per component index of the value
    out = out + _lift((gen.weight / metric.dim) * div, value.ndim - f.ndim + 1) * value
    return out + _spin_action(spin_coefficient(gen, x, metric), value, gen.spin, metric, gammas)


# ---------------------------------------------------------------------------
# parametrised variations per representation
# ---------------------------------------------------------------------------


def delta_scalar(gen: GeneratorAction, field, x, metric: Metric) -> np.ndarray:
    """Infinitesimal variation of a scalar multiplet under ``gen``."""
    if gen.spin != "scalar":
        raise ValueError("generator is not tagged for scalar fields")
    value, grad, _ = multiplet_stack(field, x)
    return _variation(gen, value, grad, x, metric)


def delta_vector_potential(gen: GeneratorAction, A: VectorPotential, x, metric: Metric):
    """Infinitesimal variation of a covariant vector field under ``gen``."""
    if gen.spin != "vector":
        raise ValueError("generator is not tagged for vector fields")
    return _variation(gen, A.value(x), A.grad(x), x, metric)


def delta_spinor(gen: GeneratorAction, psi, x, metric: Metric, gammas: GammaSet):
    """Infinitesimal variation of a spinor field under ``gen``."""
    if gen.spin != "spinor":
        raise ValueError("generator is not tagged for spinor fields")
    return _variation(gen, psi.value(x), psi.grad(x), x, metric, gammas)


def delta_field_strength_primary(
    gen: GeneratorAction, fs: FieldStrengthValue, x, metric: Metric
):
    """Variation of F under the rule that pretends F is primary.

    The physically induced variation (from the potential) differs from this
    by (D - 4)(g^s_a A_b - g^s_b A_a); the two coincide only at D = 4.
    """
    if gen.spin != "field-strength":
        raise ValueError("generator is not tagged for field-strength values")
    return _variation(gen, fs.F, fs.dF, x, metric)


def delta_scalar_with_gradient(gen: GeneratorAction, field, x, metric: Metric):
    """(delta phi, d(delta phi)) for a scalar multiplet, all analytic."""
    if gen.spin != "scalar":
        raise ValueError("generator is not tagged for scalar fields")
    x = metric._check(x)
    value, grad, hess = multiplet_stack(field, x)
    f = killing_vector(gen, x, metric)
    df = killing_gradient(gen, x, metric)
    div = killing_divergence(gen, x, metric)
    ddiv = killing_divergence_gradient(gen, metric)
    w = gen.weight / metric.dim
    delta = grad @ f + w * div * value
    dout = np.einsum("rm,ir->im", df, grad)
    dout += np.einsum("irm,r->im", hess, f)
    dout += w * np.outer(value, ddiv)
    dout += w * div * grad
    return delta, dout


def delta_vector_potential_with_gradient(
    gen: GeneratorAction, A: VectorPotential, x, metric: Metric
):
    """(delta A, d(delta A)) with dout[a, m] = d_m (delta A)_a, all analytic."""
    if gen.spin != "vector":
        raise ValueError("generator is not tagged for vector fields")
    x = metric._check(x)
    dim = metric.dim
    value = A.value(x)
    grad = A.grad(x)
    hess = A.hess(x)
    f = killing_vector(gen, x, metric)
    df = killing_gradient(gen, x, metric)
    div = killing_divergence(gen, x, metric)
    ddiv = killing_divergence_gradient(gen, metric)
    C = spin_coefficient(gen, x, metric)
    dC = _spin_coefficient_gradient(gen, metric)
    w = gen.weight / dim

    delta = grad @ f + w * div * value + _spin_action(C, value, "vector", metric, None)

    upper = metric.diag * value
    dupper = metric.diag[:, None] * grad  # d_m A^k stored [k, m]
    asym = C - C.T
    dout = np.einsum("rm,ar->am", df, grad)
    dout += np.einsum("arm,r->am", hess, f)
    dout += w * np.outer(value, ddiv)
    dout += w * div * grad
    dout += np.einsum("akm,k->am", dC - np.swapaxes(dC, 0, 1), upper)
    dout += np.einsum("ak,km->am", asym, dupper)
    return delta, dout


def _spin_coefficient_gradient(gen, metric: Metric) -> np.ndarray:
    """dC[m, n, r] = d_r C_{mn}; constant in x, built from the second
    gradient of the Killing vector (zero except for special conformal)."""
    d2 = killing_second_gradient(gen, metric)  # d2[m, n, r] = d_r d_n f^m
    low = metric.diag[:, None, None] * d2  # d_r d_n f_m
    # C = (1/4)(d_m f_n - d_n f_m)  ->  dC[m, n, r] = (1/4)(d2 f_n;mr - d2 f_m;nr)
    term = np.einsum("nmr->mnr", low)
    return 0.25 * (term - low)


def _as_vector_generator(gen: GeneratorAction, metric: Metric) -> GeneratorAction:
    """Same transformation acting on the potential at its canonical weight."""
    return GeneratorAction(gen.kind, gen.param, gen.dim, canonical_weight(metric.dim), "vector")


def delta_field_strength(gen: GeneratorAction, A: VectorPotential, x, metric: Metric):
    """Variation of F induced from the potential: the curl of delta A.

    The potential always transforms at its canonical weight here, whatever
    weight ``gen`` carries for the field it was built for.
    """
    gen_vec = _as_vector_generator(gen, metric)
    _, dout = delta_vector_potential_with_gradient(gen_vec, A, x, metric)
    return dout.T - dout


def delta_field_strength_with_gradient(
    gen: GeneratorAction, A: VectorPotential, x, metric: Metric
):
    """(delta F, d(delta F)) from the potential route; needs third derivatives
    of A because delta F already contains first derivatives."""
    gen = _as_vector_generator(gen, metric)
    x = metric._check(x)
    _, d1 = delta_vector_potential_with_gradient(gen, A, x, metric)
    grad = A.grad(x)
    hess = A.hess(x)
    third = A.third(x)
    f = killing_vector(gen, x, metric)
    df = killing_gradient(gen, x, metric)
    d2f = killing_second_gradient(gen, metric)
    div = killing_divergence(gen, x, metric)
    ddiv = killing_divergence_gradient(gen, metric)
    C = spin_coefficient(gen, x, metric)
    dC = _spin_coefficient_gradient(gen, metric)
    w = gen.weight / metric.dim

    asym = C - C.T
    dasym = dC - np.swapaxes(dC, 0, 1)
    dupper = metric.diag[:, None] * grad
    d2upper = metric.diag[:, None, None] * hess

    # second derivative d2[a, m, n] = d_n d_m (delta A)_a ; the Killing vector
    # is quadratic, so its own third gradient vanishes.
    d2 = np.einsum("rmn,ar->amn", d2f, grad)
    d2 += np.einsum("rm,arn->amn", df, hess)
    d2 += np.einsum("rn,arm->amn", df, hess)
    d2 += np.einsum("armn,r->amn", third, f)
    d2 += w * np.einsum("an,m->amn", grad, ddiv)
    d2 += w * np.einsum("am,n->amn", grad, ddiv)
    d2 += w * div * hess
    d2 += np.einsum("akm,kn->amn", dasym, dupper)
    d2 += np.einsum("akn,km->amn", dasym, dupper)
    d2 += np.einsum("ak,kmn->amn", asym, d2upper)

    delta_F = d1.T - d1
    d_delta_F = np.einsum("bam->abm", d2) - d2
    return delta_F, d_delta_F


def eom_violation_conformal(A: VectorPotential, x, metric: Metric, c):
    """Divergence of the conformally varied field strength, contracted with c.

    Returns ``(lhs, rhs)`` where ``lhs^b = d_a (delta F)^{ab}`` for the
    special conformal variation with parameter c, and
    ``rhs^b = (D - 4)(d^b A^s - g^{bs} d.A) c_s``.  On shell the two agree,
    showing the equations of motion are not conformally invariant off D = 4.
    """
    gen = special_conformal(c, spin="vector")
    _, d_delta_F = delta_field_strength_with_gradient(gen, A, x, metric)
    d = metric.diag
    lhs = np.einsum("a,b,aba->b", d, d, d_delta_F)

    grad = A.grad(x)  # grad[a, m] = d_m A_a
    cl = metric.lower(np.asarray(c, dtype=float))
    div_A = float(np.einsum("m,mm->", d, grad))
    # d^b A^s = g^{bm} g^{sa} d_m A_a
    dba = np.einsum("b,s,sb->bs", d, d, grad)
    rhs = (metric.dim - 4.0) * (dba @ cl - d * cl * div_A)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Lie derivative comparison
# ---------------------------------------------------------------------------


def lie_derivative_vector(gen: GeneratorAction, A: VectorPotential, x, metric: Metric):
    """Both presentations of the Lie derivative of a covariant vector.

    Returns ``(direct, via_field_strength)``: the transport form
    f^mu d_mu A_a + (d_a f^mu) A_mu and the manifestly gauge-covariant form
    f^mu F_{mu a} + d_a (f^mu A_mu).  They agree identically.
    """
    x = metric._check(x)
    f = killing_vector(gen, x, metric)
    df = killing_gradient(gen, x, metric)  # df[m, a] = d_a f^m
    value = A.value(x)
    grad = A.grad(x)
    direct = grad @ f + df.T @ value
    fs = field_strength_from_potential(A, x)
    via_fs = fs.F.T @ f + df.T @ value + grad.T @ f
    return direct, via_fs


# ---------------------------------------------------------------------------
# commutator of translation and special conformal variations (scalars)
# ---------------------------------------------------------------------------


def _op_translation(sigma, metric, x, value, grad, hess=None):
    """Index-stripped translation acting on a scalar: upper-index derivative."""
    s = metric.diag[sigma]
    new_value = s * grad[..., sigma]
    if hess is None:
        return new_value, None
    return new_value, s * hess[..., sigma, :]


def _op_conformal(sigma, weight, metric, x, value, grad, hess=None):
    """Index-stripped special conformal operator on a scalar multiplet."""
    dim = metric.dim
    x2 = metric.norm2(x)
    xl = metric.lower(x)
    unit = np.eye(dim)[sigma]
    k = 2.0 * x[sigma] * x - metric.diag[sigma] * unit * x2
    w = 2.0 * weight * x[sigma]
    new_value = grad @ k + w * value
    if hess is None:
        return new_value, None
    # dk[r, m] = d_m k^r
    dk = 2.0 * np.einsum("r,m->rm", x, unit)
    dk += 2.0 * x[sigma] * np.eye(dim)
    dk -= 2.0 * metric.diag[sigma] * np.einsum("r,m->rm", unit, xl)
    dw = 2.0 * weight * unit
    new_grad = np.einsum("...r,rm->...m", grad, dk)
    new_grad += np.einsum("...rm,r->...m", hess, k)
    new_grad += np.einsum("...,m->...m", value, dw)
    new_grad += w * grad
    return new_value, new_grad


def scalar_commutator_pair(sigma, tau, field, x, metric: Metric):
    """(lhs, rhs) of the translation/special-conformal commutator on a scalar.

    lhs applies the two index-stripped variations successively in both
    orders; successive variations compose through the field argument, so the
    bare operators multiply in reversed order.  rhs is
    -2 g^{sigma tau} (dilation) + 2 (Lorentz rotation), all at the canonical
    weight.
    """
    x = metric._check(x)
    return _commutator_pairs([sigma], [tau], metric, x, *multiplet_stack(field, x))[0]


def _commutator_pairs(sigmas, taus, metric, x, value, grad, hess):
    """:func:`scalar_commutator_pair` for every (sigma, tau), sigma-major, from
    the field's stack at a checked x; each one-index operator acts on the
    stack once."""
    weight = canonical_weight(metric.dim)
    translated = [_op_translation(sigma, metric, x, value, grad, hess) for sigma in sigmas]
    conformal = [_op_conformal(tau, weight, metric, x, value, grad, hess) for tau in taus]
    dilat = grad @ x + weight * value
    pairs = []
    for sigma, (tv, tg) in zip(sigmas, translated):
        for tau, (cv, cg) in zip(taus, conformal):
            first, _ = _op_conformal(tau, weight, metric, x, tv, tg)
            second, _ = _op_translation(sigma, metric, x, cv, cg)
            lhs = first - second

            g_st = metric.diag[sigma] if sigma == tau else 0.0
            ds, dt = metric.diag[sigma], metric.diag[tau]
            lorentz = x[sigma] * dt * grad[..., tau] - x[tau] * ds * grad[..., sigma]
            rhs = -2.0 * g_st * dilat + 2.0 * lorentz
            pairs.append((lhs, rhs))
    return pairs


def commutator_residual(sigma, tau, field, x, metric: Metric):
    """Residual of the commutator identity; ~0 for any smooth scalar field."""
    lhs, rhs = scalar_commutator_pair(sigma, tau, field, x, metric)
    return lhs - rhs


def commutator_residuals(field, x, metric: Metric) -> list:
    """:func:`commutator_residual` for every (sigma, tau), sigma-major, from
    one evaluation of the field's derivative stack at x."""
    x = metric._check(x)
    indices = range(metric.dim)
    pairs = _commutator_pairs(indices, indices, metric, x, *multiplet_stack(field, x))
    return [lhs - rhs for lhs, rhs in pairs]


# ---------------------------------------------------------------------------
# finite transformations (lazy field views)
# ---------------------------------------------------------------------------


def _preimage(y, c, metric):
    """Point x mapping to y under the parameter-c conformal map."""
    return special_conformal_map(y, -np.asarray(c, dtype=float), metric)


def _positive_factor(x, c, metric):
    s = conformal_factor(x, c, metric)
    _reject(s < SINGULARITY_FLOOR, s, SingularMap,
            "conformal factor {} left the positive branch of the transformation")
    return s


class FiniteScalarTransform:
    """View of the finitely transformed scalar: value at y is
    sigma(x, c)^weight times the original value at the preimage x."""

    def __init__(self, field, c, weight, metric: Metric):
        self.field = field
        self.c = np.asarray(c, dtype=float)
        self.weight = float(weight)
        self.metric = metric

    def value(self, y):
        x = _preimage(y, self.c, self.metric)
        s = _positive_factor(x, self.c, self.metric)
        return s**self.weight * self.field.value(x)


class FiniteVectorTransform:
    """Finitely transformed covariant vector, by either equivalent route.

    ``route='jacobian'`` multiplies by sigma^(weight-1) and the inverse map
    Jacobian; ``route='reflection'`` multiplies by sigma^weight and the two
    reflection matrices at image and preimage.  The routes agree wherever
    both are defined.
    """

    def __init__(self, A, c, weight, metric: Metric, route="jacobian"):
        if route not in ("jacobian", "reflection"):
            raise ValueError(f"unknown route {route!r}")
        self.A = A
        self.c = np.asarray(c, dtype=float)
        self.weight = float(weight)
        self.metric = metric
        self.route = route

    def value(self, y):
        y = self.metric._check(y)
        x = _preimage(y, self.c, self.metric)
        s = _positive_factor(x, self.c, self.metric)
        v = self.A.value(x)
        if self.route == "jacobian":
            # jac_inv[b, a] = d x^b / d y^a: forward Jacobian of the inverse map
            jac_inv = map_jacobian(y, -self.c, self.metric)
            scale = np.float_power(s, self.weight - 1.0)
            mat = np.swapaxes(jac_inv, -1, -2)
        else:
            scale = np.float_power(s, self.weight)
            mat = inversion_matrix(y, self.metric) @ inversion_matrix(x, self.metric)
        return _lift(scale) * _mv(mat, v)


class FiniteSpinorTransform:
    """Finitely transformed spinor, by either equivalent route.

    ``route='pair'`` sandwiches between the slashed unit vectors at image and
    preimage; ``route='compact'`` uses sigma^(weight - 1/2) (1 + c_m x_n
    gamma^m gamma^n).  Requires timelike points along the evaluation.
    """

    def __init__(self, psi, c, weight, metric: Metric, gammas: GammaSet, route="pair"):
        if route not in ("pair", "compact"):
            raise ValueError(f"unknown route {route!r}")
        self.psi = psi
        self.c = np.asarray(c, dtype=float)
        self.weight = float(weight)
        self.metric = metric
        self.gammas = gammas
        self.route = route

    def value(self, y):
        metric, gammas = self.metric, self.gammas
        y = metric._check(y)
        x = _preimage(y, self.c, metric)
        s = _positive_factor(x, self.c, metric)
        v = self.psi.value(x)
        if self.route == "pair":
            scale = np.float_power(s, self.weight)
            mat = gamma_slash_unit(y, gammas, metric) @ gamma_slash_unit(x, gammas, metric)
        else:
            spacelike = (metric.norm2(x) <= 0) | (metric.norm2(y) <= 0)
            _reject(spacelike, 0.0, NonTimelikePoint, "spinor transform requires timelike points")
            scale = np.float_power(s, self.weight - 0.5)
            slashes = gammas.slash_lower(metric.diag * self.c) @ gammas.slash_lower(metric.diag * x)
            mat = np.eye(gammas.size, dtype=complex) + slashes
        return _lift(scale) * _mv(mat, v)


def finite_variation_fd(factory, x, eps: float):
    """Central difference in the parameter scale of a finite transform family.

    ``factory(t)`` must return a transformed-field view at parameter t*c; the
    derivative at t = 0 estimates the infinitesimal variation with an error
    of second order in ``eps``.
    """
    plus = factory(eps).value(x)
    minus = factory(-eps).value(x)
    return (np.asarray(plus) - np.asarray(minus)) / (2.0 * eps)


# ---------------------------------------------------------------------------
# index decoupling through the reflection matrix
# ---------------------------------------------------------------------------


def vector_spin_term(c, x, metric: Metric) -> np.ndarray:
    """n[a, b] = 2 c_a x^b - 2 c^b x_a, the vector spin action of parameter c."""
    c = np.asarray(c, dtype=float)
    x = metric._check(x)
    return 2.0 * _outer(metric.lower(c), x) - np.swapaxes(2.0 * _outer(c, metric.diag * x), -1, -2)


def decoupling_bracket_with(f, x, c, metric: Metric) -> np.ndarray:
    """f^m d_m I_a^g - I_a^b n_b^g for an arbitrary coordinate vector f.

    Vanishes identically when f is the special conformal Killing vector of c;
    nonzero otherwise (useful as a negative control).
    """
    f = np.asarray(f, dtype=float)
    grad_i = inversion_matrix_gradient(x, metric)
    imat = inversion_matrix(x, metric)
    n = vector_spin_term(c, x, metric)
    return np.einsum("...abm,...m->...ab", grad_i, f) - imat @ n


def decoupling_bracket_residual(x, c, metric: Metric) -> np.ndarray:
    """The decoupling bracket with f the conformal Killing vector of c."""
    gen = special_conformal(c)
    f = killing_vector(gen, x, metric)
    return decoupling_bracket_with(f, x, c, metric)


def _scalar_rule(gen, tilde, d_tilde, x, metric):
    """f.d(tilde) + 2 (c.x) weight tilde: the scalar rule's special conformal
    variation of a field ``tilde`` with gradient ``d_tilde``."""
    f = killing_vector(gen, x, metric)
    cx = metric.dot(gen.param, x)
    return _mv(d_tilde, f) + _lift(2.0 * cx * gen.weight) * tilde


def decoupled_vector_residual(A: VectorPotential, x, c, metric: Metric):
    """Reflected vector transforms by the scalar rule: max-norm residual of
    I . (delta A) against f.d(I A) + 2 (c.x) weight (I A)."""
    x = metric._check(x)
    gen = special_conformal(c, spin="vector")
    delta = delta_vector_potential(gen, A, x, metric)
    imat = inversion_matrix(x, metric)
    grad_i = inversion_matrix_gradient(x, metric)
    value = A.value(x)
    tilde = _mv(imat, value)
    d_tilde = np.einsum("...abm,...b->...am", grad_i, value) + imat @ A.grad(x)
    return _max_abs(_mv(imat, delta) - _scalar_rule(gen, tilde, d_tilde, x, metric), 1)


def decoupled_spinor_residual(psi, x, c, metric: Metric, gammas: GammaSet):
    """Slashed spinor transforms by the scalar rule: max-norm residual of
    (slash x) delta psi against f.d(slash-x psi) + 2 (c.x) weight (...), at
    the canonical weight."""
    x = metric._check(x)
    gen = special_conformal(c, spin="spinor")
    delta = delta_spinor(gen, psi, x, metric, gammas)
    x2 = metric.norm2(x)
    _reject(x2 <= 0, x2, NonTimelikePoint, "x^2 = {} must be positive")
    slash = gamma_slash_unit(x, gammas, metric)
    value = psi.value(x)
    tilde = _mv(slash, value)
    # d_m (x^n / sqrt(x^2)) = delta^n_m / sqrt(x^2) - x^n x_m / (x^2)^(3/2)
    x2 = _lift(x2, 2)
    dxhat = np.eye(metric.dim) / np.sqrt(x2) - _outer(x, metric.diag * x) / np.float_power(x2, 1.5)
    # column m of d_tilde, one slashed derivative per m on axis -3
    dslash = gammas.slash_lower(metric.diag * np.swapaxes(dxhat, -1, -2))
    columns = _mv(dslash, value[..., None, :]) + _mv(slash[..., None, :, :], np.swapaxes(psi.grad(x), -1, -2))
    # C order per sample, as one point's np.stack(axis=-1) gives it: the
    # layout selects the BLAS routine the product with f runs
    d_tilde = np.ascontiguousarray(np.swapaxes(columns, -1, -2))
    return _max_abs(_mv(slash, delta) - _scalar_rule(gen, tilde, d_tilde, x, metric), 1)
