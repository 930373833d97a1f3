"""Infinitesimal and finite conformal-group actions on fields.

The parametrised variation of any field is assembled from three pieces that
only depend on the generator through its coordinate vector field f:

    delta field = f^mu d_mu field
                + (weight / D) (d.f) field
                + (1/4)(d_mu f_nu - d_nu f_mu) Sigma^{mu nu} field

which reproduces the conventional translation / rotation / dilation /
special-conformal rules for every spin representation.  The representation
is the generator's spin tag alone: :func:`delta` varies any field, a scalar
multiplet, a vector potential (the multiplet of its lower components) or a
spinor, by the tag of the generator it is given, and :func:`variation`
applies the rule to a value and gradient given directly.

A note on operator composition: commutators of variations compose through
the field argument, so successive variations multiply in the opposite order
to the bare differential operators.  :func:`commutator_stack` follows the
successive-variation convention.

Every kernel takes points ``x`` (or ``y``) of shape ``(..., D)``, with a
parameter stack ``c`` of the same shape, and returns one result per sample,
bit for bit its single-point result; a single point is a stack with no
sample axis (the contract of :mod:`confsym.geometry`).  A floor or timelike
test raises for the first sample that fails it.  Every kernel reads a
fixture through its :class:`~confsym.fields.Jet` on ``x``, as in
:mod:`confsym.noether`; the finite transforms are field views and evaluate
the field they wrap.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .clifford import GammaSet, gamma_slash_unit
from .errors import NonTimelikePoint, SingularMap
from .fields import as_jet
from .geometry import (
    SINGULARITY_FLOOR,
    GeneratorAction,
    Metric,
    _lift,
    _max_abs,
    _mm,
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
    sigma_basis_conformal,
    special_conformal,
    special_conformal_map,
)


# ---------------------------------------------------------------------------
# spin actions
# ---------------------------------------------------------------------------


def _contract(grad, f, samples: int):
    """grad[..., i, m] f^m per sample, every component index i in one
    matrix-vector product, as ``tensordot(grad, f, axes=([-1], [0]))`` forms
    it for one point.  ``grad`` has ``samples`` leading sample axes, against
    which ``f`` may broadcast a generator stack."""
    rows = grad.reshape(grad.shape[:samples] + (-1, grad.shape[-1]))
    out = _mv(rows, f)
    return out.reshape(out.shape[:-1] + grad.shape[samples:-1])


def spin_coefficient(gen: GeneratorAction, x, metric: Metric) -> np.ndarray:
    """Antisymmetric lower-index coefficient C of the spin term C_{mn} Sigma^{mn}.

    C is one quarter of the curl of the Killing co-vector; symmetric parts of
    the gradient never reach the spin matrix.
    """
    return _curl_quarter(killing_gradient(gen, x, metric), metric)


def _curl_quarter(df, metric: Metric) -> np.ndarray:
    """C from the Killing gradient ``df[m, n] = d_n f^m``."""
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
        return _mm(asym, up_first) + _mm(up_second, np.swapaxes(asym, -1, -2))
    if spin == "spinor":
        if gammas is None:
            raise ValueError("spinor action requires a GammaSet")
        mat = np.zeros(C.shape[:-2] + (gammas.size, gammas.size), dtype=complex)
        for mu in range(metric.dim):
            for nu in range(mu + 1, metric.dim):
                mat += _lift(C[..., mu, nu] - C[..., nu, mu], 2) * gammas.spins[mu, nu]
        return _mv(mat, value)
    raise ValueError(f"unknown spin representation {spin!r}")


def variation(gen: GeneratorAction, value, grad, x, metric: Metric, gammas: GammaSet | None = None):
    """Infinitesimal variation under ``gen`` of a field with ``value`` and
    ``grad`` (derivative axis last) at x, in the representation of the
    generator's spin tag; a spinor tag needs ``gammas``.

    With a ``field-strength`` tag, F_{ab} and ``dF[a, b, m] = d_m F_{ab}``
    vary by the rule that pretends F is primary.  The physically induced
    variation (from the potential, :func:`delta_field_strength`) differs
    from it by (D - 4)(g^s_a A_b - g^s_b A_a); the two coincide only at D = 4.
    """
    f = killing_vector(gen, x, metric)
    div = killing_divergence(gen, x, metric)
    C = spin_coefficient(gen, x, metric)
    return _variation(gen, value, grad, f, div, C, np.ndim(x) - 1, metric, gammas)


def _variation(gen, value, grad, f, div, C, samples: int, metric: Metric, gammas=None):
    """The body of :func:`variation`, from the Killing vector f of ``gen``,
    its divergence and its spin coefficient C at the field's points, which
    have ``samples`` sample axes; the Killing data may carry a generator
    stack, which the field's arrays broadcast against."""
    out = _contract(grad, f, samples)
    # one trailing axis per component index of the value
    out = out + _lift((gen.weight / metric.dim) * div, value.ndim - samples) * value
    return out + _spin_action(C, value, gen.spin, metric, gammas)


# ---------------------------------------------------------------------------
# parametrised variations of fields
# ---------------------------------------------------------------------------


def delta(gen: GeneratorAction, field, x, metric: Metric, gammas: GammaSet | None = None):
    """Infinitesimal variation of ``field`` (a fixture or its jet on x) under
    ``gen``, in the representation of the generator's spin tag."""
    jet = as_jet(field, x)
    return variation(gen, jet.value, jet.grad, x, metric, gammas)


def delta_with_gradient(gen: GeneratorAction, field, x, metric: Metric):
    """(delta, d(delta)) with dout[a, m] = d_m delta_a, all analytic, for the
    components a of a scalar multiplet (scalar tag) or a covector (vector
    tag, which adds two spin terms); another tag raises ValueError."""
    if gen.spin not in ("scalar", "vector"):
        raise ValueError(f"no analytic gradient of the {gen.spin!r} variation")
    x = metric._check(x)
    jet = as_jet(field, x)
    value, grad, hess = jet.value, jet.grad, jet.hess
    f = killing_vector(gen, x, metric)
    df = killing_gradient(gen, x, metric)
    div = killing_divergence(gen, x, metric)
    ddiv = killing_divergence_gradient(gen, metric)
    C = _curl_quarter(df, metric)
    w = gen.weight / metric.dim

    dout = np.einsum("...rm,...ar->...am", df, grad)
    dout += np.einsum("...arm,...r->...am", hess, f)
    dout += w * _outer(value, ddiv)
    dout += _lift(w * div, 2) * grad
    if gen.spin == "vector":
        dC = _spin_coefficient_gradient(gen, metric)
        upper = metric.diag * value
        dupper = metric.diag[:, None] * grad  # d_m A^k stored [k, m]
        asym = C - np.swapaxes(C, -1, -2)
        dout += np.einsum("...akm,...k->...am", dC - np.swapaxes(dC, -3, -2), upper)
        dout += np.einsum("...ak,...km->...am", asym, dupper)
    return _variation(gen, value, grad, f, div, C, x.ndim - 1, metric), dout


def _spin_coefficient_gradient(gen, metric: Metric) -> np.ndarray:
    """dC[m, n, r] = d_r C_{mn}; constant in x, built from the second
    gradient of the Killing vector (zero except for special conformal)."""
    d2 = killing_second_gradient(gen, metric)  # d2[m, n, r] = d_r d_n f^m
    low = metric.diag[:, None, None] * d2  # d_r d_n f_m
    # C = (1/4)(d_m f_n - d_n f_m)  ->  dC[m, n, r] = (1/4)(d2 f_n;mr - d2 f_m;nr)
    term = np.swapaxes(low, -3, -2)
    return 0.25 * (term - low)


def delta_field_strength(gen: GeneratorAction, A, x, metric: Metric):
    """Variation of F induced from the potential: the curl of delta A.

    The potential always transforms at its canonical weight here, whatever
    weight ``gen`` carries for the field it was built for.
    """
    gen_vec = replace(gen, weight=canonical_weight(metric.dim), spin="vector")
    _, dout = delta_with_gradient(gen_vec, A, x, metric)
    return np.swapaxes(dout, -1, -2) - dout


def delta_field_strength_gradient(
    gen: GeneratorAction, A, x, metric: Metric
):
    """d(delta F) from the potential route, ``[a, b, m] = d_m (delta F)_{ab}``;
    needs third derivatives of A because delta F already contains first
    derivatives."""
    gen = replace(gen, weight=canonical_weight(metric.dim), spin="vector")
    x = metric._check(x)
    jet = as_jet(A, x)
    grad, hess, third = jet.grad, jet.hess, jet.third
    f = killing_vector(gen, x, metric)
    df = killing_gradient(gen, x, metric)
    d2f = killing_second_gradient(gen, metric)
    div = killing_divergence(gen, x, metric)
    ddiv = killing_divergence_gradient(gen, metric)
    C = _curl_quarter(df, metric)
    dC = _spin_coefficient_gradient(gen, metric)
    w = gen.weight / metric.dim

    asym = C - np.swapaxes(C, -1, -2)
    dasym = dC - np.swapaxes(dC, -3, -2)
    dupper = metric.diag[:, None] * grad
    d2upper = metric.diag[:, None, None] * hess

    # second derivative d2[a, m, n] = d_n d_m (delta A)_a ; the Killing vector
    # is quadratic, so its own third gradient vanishes.
    d2 = np.einsum("...rmn,...ar->...amn", d2f, grad)
    d2 += np.einsum("...rm,...arn->...amn", df, hess)
    d2 += np.einsum("...rn,...arm->...amn", df, hess)
    d2 += np.einsum("...armn,...r->...amn", third, f)
    d2 += w * np.einsum("...an,...m->...amn", grad, ddiv)
    d2 += w * np.einsum("...am,...n->...amn", grad, ddiv)
    d2 += _lift(w * div, 3) * hess
    d2 += np.einsum("...akm,...kn->...amn", dasym, dupper)
    d2 += np.einsum("...akn,...km->...amn", dasym, dupper)
    d2 += np.einsum("...ak,...kmn->...amn", asym, d2upper)

    return np.einsum("...bam->...abm", d2) - d2


def eom_violation_conformal(A, x, metric: Metric, c):
    """Divergence of the conformally varied field strength, contracted with c.

    Returns ``(lhs, rhs)`` where ``lhs^b = d_a (delta F)^{ab}`` for the
    special conformal variation with parameter c, and
    ``rhs^b = (D - 4)(d^b A^s - g^{bs} d.A) c_s``.  On shell the two agree,
    showing the equations of motion are not conformally invariant off D = 4.
    """
    gen = special_conformal(c, spin="vector")
    x = metric._check(x)
    jet = as_jet(A, x)
    d_delta_F = delta_field_strength_gradient(gen, jet, x, metric)
    d = metric.diag
    lhs = np.einsum("a,b,...aba->...b", d, d, d_delta_F)

    grad = jet.grad  # grad[a, m] = d_m A_a
    cl = metric.lower(np.asarray(c, dtype=float))
    div_A = np.einsum("m,...mm->...", d, grad)
    # d^b A^s = g^{bm} g^{sa} d_m A_a
    dba = np.einsum("b,s,...sb->...bs", d, d, grad)
    rhs = (metric.dim - 4.0) * (_mv(dba, cl) - d * cl * _lift(div_A))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Lie derivative comparison
# ---------------------------------------------------------------------------


def lie_derivative_vector(gen: GeneratorAction, A, x, metric: Metric):
    """Both presentations of the Lie derivative of a covariant vector.

    Returns ``(direct, via_field_strength)``: the transport form
    f^mu d_mu A_a + (d_a f^mu) A_mu and the manifestly gauge-covariant form
    f^mu F_{mu a} + d_a (f^mu A_mu).  They agree identically.
    """
    x = metric._check(x)
    f = killing_vector(gen, x, metric)
    df = killing_gradient(gen, x, metric)  # df[m, a] = d_a f^m
    jet = as_jet(A, x)
    value, grad = jet.value, jet.grad
    df_t = np.swapaxes(df, -1, -2)
    direct = _mv(grad, f) + _mv(df_t, value)
    via_fs = _mv(np.swapaxes(jet.F, -1, -2), f) + _mv(df_t, value) + _mv(np.swapaxes(grad, -1, -2), f)
    return direct, via_fs


# ---------------------------------------------------------------------------
# commutator of translation and special conformal variations (scalars)
# ---------------------------------------------------------------------------


def commutator_stack(field, x, metric: Metric):
    """(lhs, rhs) of the translation/special-conformal commutator on a scalar
    multiplet, ``[..., sigma, tau, i]`` for every index pair, from one jet.

    lhs applies the two index-stripped variations successively in both
    orders; successive variations compose through the field argument, so the
    bare operators multiply in reversed order.  rhs is
    -2 g^{sigma tau} (dilation) + 2 (Lorentz rotation), all at the canonical
    weight.
    """
    x = metric._check(x)
    jet = as_jet(field, x)
    value, grad, hess = jet.value, jet.grad, jet.hess
    d, eye = metric.diag, metric.identity
    weight = canonical_weight(metric.dim)
    grad_t = np.swapaxes(grad, -1, -2)  # [..., mu, i] = d_mu phi_i
    # the translation by sigma, an upper-index derivative: value [sigma, i],
    # gradient [sigma, i, m]
    t_value = d[:, None] * grad_t
    t_grad = d[:, None, None] * np.moveaxis(hess, -2, -3)
    # the special conformal operator by tau: its vector field k[tau] and
    # weight term w[tau], their gradients dk[tau] and dw[tau], and the
    # gradient of the varied field [tau, i, m]
    gen = sigma_basis_conformal(np.arange(metric.dim), metric, weight, "scalar")
    k, dk = killing_vector(gen, x[..., None, :], metric), killing_gradient(gen, x[..., None, :], metric)
    w = 2.0 * weight * x
    dw = 2.0 * weight * eye
    c_grad = np.einsum("...nr,...trm->...tnm", grad, dk)
    c_grad += np.einsum("...nrm,...tr->...tnm", hess, k)
    c_grad += np.einsum("...n,tm->...tnm", value, dw)
    c_grad += _lift(w, 2) * grad[..., None, :, :]
    # lhs[sigma, tau]: the conformal operator on the translated field, less
    # the translation of the conformally varied one
    first = _mv(t_grad[..., :, None, :, :], k[..., None, :, :])
    first = first + w[..., None, :, None] * t_value[..., :, None, :]
    second = d[:, None, None] * np.moveaxis(c_grad, -1, -3)
    # rhs[sigma, tau]: -2 g^{sigma tau} times the dilation, plus twice the
    # rotation x^sigma d^tau phi - x^tau d^sigma phi
    dilat = _mv(grad, x) + weight * value
    x_d = x[..., :, None] * d
    lorentz = x_d[..., None] * grad_t[..., None, :, :]
    lorentz = lorentz - np.swapaxes(x_d, -1, -2)[..., None] * grad_t[..., :, None, :]
    rhs = (-2.0 * metric.matrix)[..., None] * dilat[..., None, None, :] + 2.0 * lorentz
    return first - second, rhs


def commutator_residual(sigma, tau, field, x, metric: Metric):
    """Residual of the commutator identity for one index pair, sliced from
    :func:`commutator_stack`; ~0 for any smooth scalar field."""
    lhs, rhs = commutator_stack(field, x, metric)
    return lhs[..., sigma, tau, :] - rhs[..., sigma, tau, :]


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
        return _lift(np.float_power(s, self.weight)) * self.field.value(x)


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
            mat = _mm(inversion_matrix(y, self.metric), inversion_matrix(x, self.metric))
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
            mat = _mm(gamma_slash_unit(y, gammas, metric), gamma_slash_unit(x, gammas, metric))
        else:
            spacelike = (metric.norm2(x) <= 0) | (metric.norm2(y) <= 0)
            _reject(spacelike, 0.0, NonTimelikePoint, "spinor transform requires timelike points")
            scale = np.float_power(s, self.weight - 0.5)
            slashes = _mm(gammas.slash_lower(metric.diag * self.c), gammas.slash_lower(metric.diag * x))
            mat = np.eye(gammas.size, dtype=complex) + slashes
        return _lift(scale) * _mv(mat, v)


def finite_variation_fd(factory, x, eps):
    """Central difference in the parameter scale of a finite transform family.

    ``factory(t)`` must return a transformed-field view at parameter t*c; the
    derivative at t = 0 estimates the infinitesimal variation with an error
    of second order in ``eps``.  ``eps`` is one step or an array of steps,
    whose shape the result has in front.  The family is built and evaluated
    once: ``t`` is the stack of +eps and -eps, step-major with + before -,
    with one unit axis per axis of ``x`` behind it, so that ``t * c`` puts
    the stack in front of a parameter or a parameter stack matching ``x``,
    and the view is evaluated on ``x`` repeated to match.
    """
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    t = np.stack([eps, -eps], axis=-1)
    t = t.reshape(t.shape + (1,) * x.ndim)
    values = np.asarray(factory(t).value(np.broadcast_to(x, t.shape[:eps.ndim + 1] + x.shape).copy()))
    plus, minus = np.moveaxis(values, eps.ndim, 0)
    return (plus - minus) / _lift(2.0 * eps, plus.ndim - eps.ndim)


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
    return np.einsum("...abm,...m->...ab", grad_i, f) - _mm(imat, n)


def decoupling_bracket_residual(x, c, metric: Metric) -> np.ndarray:
    """The decoupling bracket with f the conformal Killing vector of c."""
    gen = special_conformal(c)
    f = killing_vector(gen, x, metric)
    return decoupling_bracket_with(f, x, c, metric)


def _scalar_rule(gen, tilde, d_tilde, x, metric):
    """f.d(tilde) + 2 (c.x) weight tilde: the scalar rule's special conformal
    variation of a field ``tilde`` with gradient ``d_tilde``."""
    f = killing_vector(gen, x, metric)
    cx = metric.dot(gen.c, x)
    return _mv(d_tilde, f) + _lift(2.0 * cx * gen.weight) * tilde


def decoupled_vector_residual(A, x, c, metric: Metric):
    """Reflected vector transforms by the scalar rule: max-norm residual of
    I . (delta A) against f.d(I A) + 2 (c.x) weight (I A)."""
    x = metric._check(x)
    gen = special_conformal(c, spin="vector")
    jet = as_jet(A, x)
    varied = delta(gen, jet, x, metric)
    imat = inversion_matrix(x, metric)
    grad_i = inversion_matrix_gradient(x, metric)
    value = jet.value
    tilde = _mv(imat, value)
    d_tilde = np.einsum("...abm,...b->...am", grad_i, value) + _mm(imat, jet.grad)
    return _max_abs(_mv(imat, varied) - _scalar_rule(gen, tilde, d_tilde, x, metric), 1)


def decoupled_spinor_residual(psi, x, c, metric: Metric, gammas: GammaSet):
    """Slashed spinor transforms by the scalar rule: max-norm residual of
    (slash x) delta psi against f.d(slash-x psi) + 2 (c.x) weight (...), at
    the canonical weight."""
    x = metric._check(x)
    gen = special_conformal(c, spin="spinor")
    jet = as_jet(psi, x)
    varied = delta(gen, jet, x, metric, gammas)
    x2 = metric.norm2(x)
    _reject(x2 <= 0, x2, NonTimelikePoint, "x^2 = {} must be positive")
    slash = gamma_slash_unit(x, gammas, metric)
    value = jet.value
    tilde = _mv(slash, value)
    # d_m (x^n / sqrt(x^2)) = delta^n_m / sqrt(x^2) - x^n x_m / (x^2)^(3/2)
    x2 = _lift(x2, 2)
    dxhat = metric.identity / np.sqrt(x2) - _outer(x, metric.diag * x) / np.float_power(x2, 1.5)
    # column m of d_tilde, one slashed derivative per m on axis -3
    dslash = gammas.slash_lower(metric.diag * np.swapaxes(dxhat, -1, -2))
    columns = _mv(dslash, value[..., None, :]) + _mv(slash[..., None, :, :], np.swapaxes(jet.grad, -1, -2))
    # C order per sample, as one point's np.stack(axis=-1) gives it: the
    # layout selects the BLAS routine the product with f runs
    d_tilde = np.ascontiguousarray(np.swapaxes(columns, -1, -2))
    return _max_abs(_mv(slash, varied) - _scalar_rule(gen, tilde, d_tilde, x, metric), 1)
