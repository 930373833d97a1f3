"""Minkowski geometry: metric, special conformal maps, inversion structure,
and conformal Killing vectors.

Conventions used across the package:

* the signature is (+, -, ..., -) and is not configurable;
* coordinate arrays hold upper components ``x^mu``;
* mixed-index matrices store the lower index first, ``M[a, b] = M_a^b``,
  so index chains contract as ordinary matrix products;
* derivative axes always come last: ``df[mu, nu] = d_nu f^mu``;
* leading sample axis: the map kernels (the metric's ``lower``, ``dot``
  and ``norm2``, ``invariant_square``, ``conformal_factor``,
  ``special_conformal_map``, ``inversion``,
  ``special_conformal_map_via_inversion``, ``inversion_matrix``,
  ``inversion_matrix_gradient``, ``map_jacobian``, ``conformal_jacobian``,
  ``killing_vector``, ``killing_gradient``, ``killing_divergence``,
  ``killing_residual_from_gradient`` and ``killing_residual``) take points
  of shape ``(..., D)`` and return one result per sample; a special
  conformal generator may carry a parameter stack ``(..., D)``, one
  parameter per sample.  A single point is the case without that axis and
  gives the float or array it always gave.  Each sample's result is bit for
  bit its single-point result: per-sample dot products are stacked
  ``matmul`` calls, ``(..., 1, D) @ (..., D, 1)``, which sum in the order a
  1-D ``u @ v`` sums (``einsum`` and ``sum(-1)`` do not), and a power of a
  per-sample value is ``np.float_power``, which calls libm's ``pow`` as a
  Python float's ``**`` does (numpy's ``**`` squares or takes ``sqrt``).  A
  floor test raises for the first sample in sample order that fails it.
  The other functions here take one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    DimensionMismatch,
    LightConePoint,
    SingularMap,
    UnsupportedDimension,
)

# Relative floor guarding the genuine singular surfaces of the conformal map.
SINGULARITY_FLOOR = 1e-9


class Metric:
    """Diagonal Minkowski metric diag(1, -1, ..., -1) in ``dim`` dimensions."""

    def __init__(self, dim: int):
        if int(dim) < 1:
            raise UnsupportedDimension(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        diag = -np.ones(self.dim)
        diag[0] = 1.0
        diag.flags.writeable = False
        self.diag = diag

    def __repr__(self):
        return f"Metric(dim={self.dim})"

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)

    def _check(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if not v.ndim or v.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim}-vectors, got shape {v.shape}"
            )
        return v

    def lower(self, v) -> np.ndarray:
        """Lower an upper index: v_mu = g_{mu nu} v^nu.  The metric is its own
        inverse, so this also raises a lower index."""
        return self.diag * self._check(v)

    def dot(self, u, v):
        """Minkowski inner product u^0 v^0 - sum_i u^i v^i."""
        return _inner(self._check(u), self.lower(v))

    def norm2(self, x):
        """Invariant square x.x (any sign)."""
        x = self._check(x)
        return _inner(x, self.diag * x)


def _inner(u, v):
    """u . v over the last axis: a float for two single vectors, else one
    value per sample.  The stacked matmul runs numpy's dot routine once per
    sample, the routine a 1-D ``u @ v`` runs, so each value has the bits of
    the single-vector product."""
    if u.ndim == 1 and v.ndim == 1:
        return float(u @ v)
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _lift(a, axes: int = 1):
    """Per-sample values with ``axes`` trailing axes, to broadcast against
    per-sample vectors (1) or matrices (2); a single sample's float as is."""
    return a.reshape(a.shape + (1,) * axes) if isinstance(a, np.ndarray) else a


def _outer(u, v):
    """Per-sample outer product u^a v^b."""
    return u[..., :, None] * v[..., None, :]


def _mv(matrix, vector):
    """Per-sample matrix @ vector as a stacked matmul; for one sample it is
    the matrix-vector product ``matrix @ vector`` itself."""
    return (matrix @ vector[..., None])[..., 0]


def _scale_floor(x):
    return SINGULARITY_FLOOR * (1.0 + _inner(x, x))


def _reject(bad, value, error, message):
    """Raise ``error`` with ``message`` formatted with ``value`` at the first
    sample where ``bad`` holds (``bad`` and ``value`` are scalars for a
    single sample)."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        value = np.broadcast_to(value, bad.shape).flat[np.argmax(bad)]
    elif not bad:
        return
    raise error(message.format(float(value)))


def _max_abs(a, axes: int):
    """Largest |entry| over the last ``axes`` axes: one value per sample, a
    float for a single sample."""
    worst = np.max(np.abs(a), axis=tuple(range(-axes, 0)))
    return float(worst) if worst.ndim == 0 else worst


def invariant_square(x, metric: Metric):
    """x.x, raising :class:`LightConePoint` when numerically null."""
    x = metric._check(x)
    x2 = metric.norm2(x)
    _reject(abs(x2) < _scale_floor(x), x2, LightConePoint, "x^2 = {} is below the singularity floor")
    return x2


def conformal_factor(x, c, metric: Metric):
    """Scalar denominator 1 + 2 c.x + c^2 x^2 of the special conformal map."""
    x = metric._check(x)
    c = metric._check(c)
    xl = metric.diag * x
    return 1.0 + 2.0 * _inner(c, xl) + _inner(c, metric.diag * c) * _inner(x, xl)


def _regular_factor(x, c, metric: Metric):
    """(x, c, sigma) with x and c checked, raising :class:`SingularMap` where
    the conformal factor sigma is numerically zero."""
    x = metric._check(x)
    c = metric._check(c)
    s = conformal_factor(x, c, metric)
    _reject(abs(s) < _scale_floor(x), s, SingularMap, "conformal factor {} is below the singularity floor")
    return x, c, s


def special_conformal_map(x, c, metric: Metric):
    """Finite special conformal coordinate map x -> (x + c x^2) / sigma."""
    x, c, s = _regular_factor(x, c, metric)
    return (x + c * _lift(metric.norm2(x))) / _lift(s)


def inversion(x, metric: Metric):
    """Coordinate inversion x^mu / x^2; an involution off the light cone."""
    x = metric._check(x)
    return x / _lift(invariant_square(x, metric))


def special_conformal_map_via_inversion(x, c, metric: Metric):
    """Alternative route: invert, translate by c, invert again.

    Requires x^2 != 0, unlike :func:`special_conformal_map`; both agree where
    both are defined.
    """
    big_x = inversion(x, metric)
    return inversion(big_x + metric._check(c), metric)


def inversion_matrix(x, metric: Metric):
    """Mixed-index reflection matrix I_a^b = delta_a^b - 2 x_a x^b / x^2.

    An improper Lorentz matrix: it squares to the identity, preserves the
    metric and has determinant -1.  The projector is written with x_a x^b/x^2
    so the formula extends analytically to spacelike x; only null x is
    rejected.
    """
    x = metric._check(x)
    x2 = invariant_square(x, metric)
    return np.eye(metric.dim) - 2.0 * _outer(metric.lower(x), x) / _lift(x2, 2)


def inversion_matrix_gradient(x, metric: Metric):
    """Exact gradient dI[a, b, m] = d_m I_a^b of the inversion matrix."""
    x = metric._check(x)
    x2 = _lift(invariant_square(x, metric), 3)
    xl = metric.diag * x
    dim = metric.dim
    grad = np.zeros(x.shape[:-1] + (dim, dim, dim))
    g = metric.matrix
    # d_m (x_a x^b) = g_{am} x^b + x_a delta^b_m
    grad -= 2.0 * (g[:, None, :] * x[..., None, :, None] + xl[..., :, None, None] * np.eye(dim)) / x2
    grad += 4.0 * np.einsum("...a,...b,...m->...abm", xl, x, xl) / np.float_power(x2, 2)
    return grad


def map_jacobian(x, c, metric: Metric):
    """Forward Jacobian J[mu, beta] = d x'^mu / d x^beta by direct differentiation.

    Valid wherever the map itself is (x^2 may vanish here).
    """
    x, c, s = _regular_factor(x, c, metric)
    x2 = metric.norm2(x)
    c2 = metric.norm2(c)
    xl = metric.lower(x)
    cl = metric.lower(c)
    num = x + c * _lift(x2)
    ds = 2.0 * cl + 2.0 * _lift(c2) * xl  # d_beta sigma
    s = _lift(s, 2)
    jac = (np.eye(metric.dim) + 2.0 * _outer(c, xl)) / s
    # a float's s**2 is libm's pow, which is not always s * s; float_power
    # calls pow for an array too, where ** would square
    jac -= _outer(num, ds) / np.float_power(s, 2)
    return jac


def map_jacobian_inverse(x, c, metric: Metric):
    """Inverse Jacobian J[beta, mu] = d x^beta / d x'^mu.

    The inverse map is the map with parameter -c, so this is just the forward
    Jacobian of that map evaluated at the image point.
    """
    xp = special_conformal_map(x, c, metric)
    return map_jacobian(xp, -np.asarray(c, dtype=float), metric)


def conformal_jacobian(x, c, metric: Metric):
    """Jacobian pair of the special conformal map through inversion matrices.

    Returns ``(fwd, inv)`` with ``fwd[mu, beta] = d x'^mu / d x^beta`` given by
    I(x) I(x') / sigma and ``inv[beta, mu] = d x^beta / d x'^mu`` given by
    I(x') I(x) sigma.  Needs x^2 != 0 and x'^2 != 0 in addition to sigma != 0;
    use :func:`map_jacobian` for the unrestricted closed form.
    """
    x, c, s = _regular_factor(x, c, metric)
    xp = (x + c * _lift(metric.norm2(x))) / _lift(s)
    ix = inversion_matrix(x, metric)
    ixp = inversion_matrix(xp, metric)
    # (I(x) I(x'))_b^m carries (lower b, upper m); transpose to row = output.
    s = _lift(s, 2)
    fwd = np.swapaxes(ix @ ixp, -1, -2) / s
    inv = np.swapaxes(ixp @ ix, -1, -2) * s
    return fwd, inv


def large_parameter_map(x, c, metric: Metric):
    """Leading behaviour of the conformal map for large parameter c.

    Composition of a translation by c/c^2, a 1/c^2 dilation, the improper
    reflection built from c and the inversion of x.  The error against the
    exact map decays like the inverse cube of the parameter magnitude.
    """
    x = metric._check(x)
    c = metric._check(c)
    c2 = invariant_square(c, metric)
    big_x = inversion(x, metric)
    reflected = big_x - 2.0 * c * metric.dot(c, big_x) / c2
    return c / c2 + reflected / c2


# ---------------------------------------------------------------------------
# Levi-Civita symbol (three dimensions)
# ---------------------------------------------------------------------------


def _perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def levi_civita3() -> np.ndarray:
    """Totally antisymmetric rank-3 symbol, lower indices, eps_{012} = +1."""
    eps = np.zeros((3, 3, 3))
    for perm in permutations(range(3)):
        eps[perm] = _perm_sign(perm)
    eps.flags.writeable = False
    return eps


def levi_civita3_upper(metric: Metric) -> np.ndarray:
    """All-upper symbol obtained by raising each index with the metric.

    With signature (+,-,-) the two spatial sign flips cancel, so numerically
    eps^{012} = +1 as well.
    """
    if metric.dim != 3:
        raise DimensionMismatch("the rank-3 symbol lives at dimension 3")
    eps = levi_civita3()
    d = metric.diag
    return np.einsum("abc,a,b,c->abc", eps, d, d, d)


# ---------------------------------------------------------------------------
# Conformal group generators and their Killing vectors
# ---------------------------------------------------------------------------

SPIN_TAGS = ("scalar", "vector", "field-strength", "spinor")

KIND_TRANSLATION = "translation"
KIND_LORENTZ = "lorentz"
KIND_SCALE = "scale"
KIND_CONFORMAL = "special-conformal"


def canonical_weight(dim: int) -> float:
    """Scale dimension (D - 2) / 2 of a canonical bosonic field."""
    return 0.5 * (dim - 2)


@dataclass(frozen=True)
class GeneratorAction:
    """One conformal-group generator with its parameters and field action.

    ``param`` is a D-vector for translations and special conformal
    transformations (for the latter also a ``(..., D)`` stack, one parameter
    per sample), an exactly antisymmetric DxD matrix for Lorentz rotations,
    and a scalar for dilations.  ``weight`` is the scale dimension
    assigned to the transformed field and ``spin`` selects how the spin
    matrix acts on its components.
    """

    kind: str
    param: object
    dim: int
    weight: float
    spin: str = "scalar"

    def __post_init__(self):
        if self.spin not in SPIN_TAGS:
            raise ValueError(f"unknown spin tag {self.spin!r}")


def _vector_param(param, dim, stack=()):
    param = np.array(param, dtype=float)
    if param.shape != stack + (dim,):
        raise DimensionMismatch(f"parameter must be a {dim}-vector")
    param.flags.writeable = False
    return param


def translation(a, spin="scalar") -> GeneratorAction:
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    w = canonical_weight(dim)
    return GeneratorAction(KIND_TRANSLATION, _vector_param(a, dim), dim, w, spin)


def lorentz_rotation(omega) -> GeneratorAction:
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimensionMismatch("Lorentz parameter must be a square matrix")
    if not np.array_equal(omega, -omega.T):
        raise ValueError("Lorentz parameter must be exactly antisymmetric")
    dim = omega.shape[0]
    omega = np.array(omega, dtype=float)
    omega.flags.writeable = False
    return GeneratorAction(KIND_LORENTZ, omega, dim, canonical_weight(dim))


def dilation(strength, dim, weight=None, spin="scalar") -> GeneratorAction:
    w = canonical_weight(dim) if weight is None else float(weight)
    return GeneratorAction(KIND_SCALE, float(strength), int(dim), w, spin)


def special_conformal(c, weight=None, spin="scalar") -> GeneratorAction:
    """Special conformal generator of parameter c, or of a parameter stack
    ``(..., D)`` with one parameter per sample."""
    c = np.asarray(c, dtype=float)
    dim = c.shape[-1]
    w = canonical_weight(dim) if weight is None else float(weight)
    return GeneratorAction(KIND_CONFORMAL, _vector_param(c, dim, c.shape[:-1]), dim, w, spin)


def sigma_basis_conformal(sigma: int, metric: Metric, weight, spin) -> GeneratorAction:
    """Special conformal generator whose parameter has the sigma-th basis
    vector as its lower components, so that contracting its variation with
    c gives the sigma-indexed variation."""
    c = np.zeros(metric.dim)
    c[sigma] = metric.diag[sigma]
    return special_conformal(c, weight=weight, spin=spin)


def killing_vector(gen: GeneratorAction, x, metric: Metric) -> np.ndarray:
    """Coordinate vector field f^mu generated by ``gen`` at the point x.

    Translations give the constant a^mu, Lorentz rotations omega^{mu a} x_a,
    dilations c x^mu, and special conformal transformations
    2 (c.x) x^mu - c^mu x^2.
    """
    x = metric._check(x)
    if gen.kind == KIND_TRANSLATION:
        return np.broadcast_to(gen.param, x.shape).copy()
    if gen.kind == KIND_LORENTZ:
        return _mv(gen.param, metric.lower(x))
    if gen.kind == KIND_SCALE:
        return gen.param * x
    if gen.kind == KIND_CONFORMAL:
        c = gen.param
        return 2.0 * _lift(metric.dot(c, x)) * x - c * _lift(metric.norm2(x))
    raise ValueError(f"unknown generator kind {gen.kind!r}")


def killing_gradient(gen: GeneratorAction, x, metric: Metric) -> np.ndarray:
    """Exact gradient df[mu, nu] = d_nu f^mu (f is polynomial in x)."""
    x = metric._check(x)
    dim = metric.dim
    shape = x.shape[:-1] + (dim, dim)
    if gen.kind == KIND_TRANSLATION:
        return np.zeros(shape)
    if gen.kind == KIND_LORENTZ:
        return np.broadcast_to(gen.param * metric.diag[None, :], shape)
    if gen.kind == KIND_SCALE:
        return np.broadcast_to(gen.param * np.eye(dim), shape)
    if gen.kind == KIND_CONFORMAL:
        c = gen.param
        cl = metric.lower(c)
        xl = metric.lower(x)
        return (
            2.0 * _outer(x, cl)
            + 2.0 * _lift(metric.dot(c, x), 2) * np.eye(dim)
            - 2.0 * _outer(c, xl)
        )
    raise ValueError(f"unknown generator kind {gen.kind!r}")


def killing_second_gradient(gen: GeneratorAction, metric: Metric) -> np.ndarray:
    """Constant second gradient d2f[mu, nu, rho] = d_rho d_nu f^mu."""
    dim = metric.dim
    d2 = np.zeros((dim, dim, dim))
    if gen.kind == KIND_CONFORMAL:
        c = gen.param
        cl = metric.lower(c)
        eye = np.eye(dim)
        d2 += 2.0 * np.einsum("n,mr->mnr", cl, eye)
        d2 += 2.0 * np.einsum("r,mn->mnr", cl, eye)
        d2 -= 2.0 * np.einsum("m,nr->mnr", c, metric.matrix)
    return d2


def killing_divergence(gen: GeneratorAction, x, metric: Metric):
    """d_mu f^mu; vanishes for Poincare, c D for dilations, 2 D c.x here."""
    if gen.kind == KIND_CONFORMAL:
        return 2.0 * metric.dim * metric.dot(gen.param, x)
    if gen.kind in (KIND_TRANSLATION, KIND_LORENTZ):
        div = 0.0
    elif gen.kind == KIND_SCALE:
        div = gen.param * metric.dim
    else:
        raise ValueError(f"unknown generator kind {gen.kind!r}")
    x = metric._check(x)
    return div if x.ndim == 1 else np.full(x.shape[:-1], div)


def killing_divergence_gradient(gen: GeneratorAction, metric: Metric) -> np.ndarray:
    """d_m (d.f); nonzero only for special conformal generators (2 D c_m)."""
    if gen.kind == KIND_CONFORMAL:
        return 2.0 * metric.dim * metric.lower(gen.param)
    return np.zeros(metric.dim)


def killing_residual_from_gradient(df, metric: Metric):
    """Max-norm of d_mu f_nu + d_nu f_mu - (2/D) g_{mu nu} d.f for given df."""
    df = np.asarray(df, dtype=float)
    lowered = metric.diag[:, None] * df  # f_nu gradient: [nu, mu] = d_mu f_nu
    sym = np.swapaxes(lowered, -1, -2) + lowered
    div = np.trace(df, axis1=-2, axis2=-1)
    residual = sym - (2.0 / metric.dim) * metric.matrix * _lift(div, 2)
    return _max_abs(residual, 2)


def killing_residual(gen: GeneratorAction, x, metric: Metric):
    """Conformal Killing equation residual for ``gen`` at x (exactly ~0)."""
    return killing_residual_from_gradient(killing_gradient(gen, x, metric), metric)


def basis_generators(dim: int):
    """The full (D+1)(D+2)/2 generator basis at dimension ``dim``, acting on
    scalars of canonical weight."""
    gens = []
    for mu in range(dim):
        a = np.zeros(dim)
        a[mu] = 1.0
        gens.append(translation(a))
    for mu in range(dim):
        for nu in range(mu + 1, dim):
            omega = np.zeros((dim, dim))
            omega[mu, nu] = 1.0
            omega[nu, mu] = -1.0
            gens.append(lorentz_rotation(omega))
    gens.append(dilation(1.0, dim))
    for mu in range(dim):
        c = np.zeros(dim)
        c[mu] = 1.0
        gens.append(special_conformal(c))
    return gens
