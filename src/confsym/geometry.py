"""Minkowski geometry: metric, special conformal maps, inversion structure,
and conformal Killing vectors.

Conventions used across the package:

* the signature is (+, -, ..., -) and is not configurable;
* coordinate arrays hold upper components ``x^mu``;
* mixed-index matrices store the lower index first, ``M[a, b] = M_a^b``,
  so index chains contract as ordinary matrix products;
* derivative axes always come last: ``df[mu, nu] = d_nu f^mu``.
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
        if v.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected a {self.dim}-vector, got shape {v.shape}"
            )
        return v

    def lower(self, v) -> np.ndarray:
        """Lower an upper index: v_mu = g_{mu nu} v^nu.  The metric is its own
        inverse, so this also raises a lower index."""
        return self.diag * self._check(v)

    def dot(self, u, v) -> float:
        """Minkowski inner product u^0 v^0 - sum_i u^i v^i."""
        u = self._check(u)
        v = self._check(v)
        return float(u @ (self.diag * v))

    def norm2(self, x) -> float:
        """Invariant square x.x (any sign)."""
        return self.dot(x, x)


def _scale_floor(x) -> float:
    x = np.asarray(x, dtype=float)
    return SINGULARITY_FLOOR * (1.0 + float(x @ x))


def invariant_square(x, metric: Metric) -> float:
    """x.x, raising :class:`LightConePoint` when numerically null."""
    x2 = metric.norm2(x)
    if abs(x2) < _scale_floor(x):
        raise LightConePoint(f"x^2 = {x2} is below the singularity floor")
    return x2


def conformal_factor(x, c, metric: Metric) -> float:
    """Scalar denominator 1 + 2 c.x + c^2 x^2 of the special conformal map."""
    return 1.0 + 2.0 * metric.dot(c, x) + metric.norm2(c) * metric.norm2(x)


def _regular_factor(x, c, metric: Metric):
    """(x, c, sigma) with x and c checked, raising :class:`SingularMap` where
    the conformal factor sigma is numerically zero."""
    x = metric._check(x)
    c = metric._check(c)
    s = conformal_factor(x, c, metric)
    if abs(s) < _scale_floor(x):
        raise SingularMap(f"conformal factor {s} is below the singularity floor")
    return x, c, s


def special_conformal_map(x, c, metric: Metric):
    """Finite special conformal coordinate map x -> (x + c x^2) / sigma."""
    x, c, s = _regular_factor(x, c, metric)
    return (x + c * metric.norm2(x)) / s


def inversion(x, metric: Metric):
    """Coordinate inversion x^mu / x^2; an involution off the light cone."""
    x = metric._check(x)
    return x / invariant_square(x, metric)


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
    return np.eye(metric.dim) - 2.0 * np.outer(metric.lower(x), x) / x2


def inversion_matrix_gradient(x, metric: Metric):
    """Exact gradient dI[a, b, m] = d_m I_a^b of the inversion matrix."""
    x = metric._check(x)
    x2 = invariant_square(x, metric)
    xl = metric.lower(x)
    dim = metric.dim
    grad = np.zeros((dim, dim, dim))
    eye = np.eye(dim)
    g = metric.matrix
    # d_m (x_a x^b) = g_{am} x^b + x_a delta^b_m
    grad -= 2.0 * (g[:, None, :] * x[None, :, None] + xl[:, None, None] * eye[None, :, :]) / x2
    grad += 4.0 * np.einsum("a,b,m->abm", xl, x, xl) / x2**2
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
    num = x + c * x2
    ds = 2.0 * cl + 2.0 * c2 * xl  # d_beta sigma
    jac = (np.eye(metric.dim) + 2.0 * np.outer(c, xl)) / s
    jac -= np.outer(num, ds) / s**2
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
    xp = (x + c * metric.norm2(x)) / s
    ix = inversion_matrix(x, metric)
    ixp = inversion_matrix(xp, metric)
    # (I(x) I(x'))_b^m carries (lower b, upper m); transpose to row = output.
    fwd = (ix @ ixp).T / s
    inv = (ixp @ ix).T * s
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
    transformations, an exactly antisymmetric DxD matrix for Lorentz
    rotations, and a scalar for dilations.  ``weight`` is the scale dimension
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


def _vector_param(param, dim):
    param = np.array(param, dtype=float)
    if param.shape != (dim,):
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
    c = np.asarray(c, dtype=float)
    dim = c.shape[0]
    w = canonical_weight(dim) if weight is None else float(weight)
    return GeneratorAction(KIND_CONFORMAL, _vector_param(c, dim), dim, w, spin)


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
        return gen.param.copy()
    if gen.kind == KIND_LORENTZ:
        return gen.param @ metric.lower(x)
    if gen.kind == KIND_SCALE:
        return gen.param * x
    if gen.kind == KIND_CONFORMAL:
        c = gen.param
        return 2.0 * metric.dot(c, x) * x - c * metric.norm2(x)
    raise ValueError(f"unknown generator kind {gen.kind!r}")


def killing_gradient(gen: GeneratorAction, x, metric: Metric) -> np.ndarray:
    """Exact gradient df[mu, nu] = d_nu f^mu (f is polynomial in x)."""
    x = metric._check(x)
    dim = metric.dim
    if gen.kind == KIND_TRANSLATION:
        return np.zeros((dim, dim))
    if gen.kind == KIND_LORENTZ:
        return gen.param * metric.diag[None, :]
    if gen.kind == KIND_SCALE:
        return gen.param * np.eye(dim)
    if gen.kind == KIND_CONFORMAL:
        c = gen.param
        cl = metric.lower(c)
        xl = metric.lower(x)
        return (
            2.0 * np.outer(x, cl)
            + 2.0 * metric.dot(c, x) * np.eye(dim)
            - 2.0 * np.outer(c, xl)
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


def killing_divergence(gen: GeneratorAction, x, metric: Metric) -> float:
    """d_mu f^mu; vanishes for Poincare, c D for dilations, 2 D c.x here."""
    if gen.kind in (KIND_TRANSLATION, KIND_LORENTZ):
        return 0.0
    if gen.kind == KIND_SCALE:
        return gen.param * metric.dim
    if gen.kind == KIND_CONFORMAL:
        return 2.0 * metric.dim * metric.dot(gen.param, x)
    raise ValueError(f"unknown generator kind {gen.kind!r}")


def killing_divergence_gradient(gen: GeneratorAction, metric: Metric) -> np.ndarray:
    """d_m (d.f); nonzero only for special conformal generators (2 D c_m)."""
    if gen.kind == KIND_CONFORMAL:
        return 2.0 * metric.dim * metric.lower(gen.param)
    return np.zeros(metric.dim)


def killing_residual_from_gradient(df, metric: Metric) -> float:
    """Max-norm of d_mu f_nu + d_nu f_mu - (2/D) g_{mu nu} d.f for given df."""
    df = np.asarray(df, dtype=float)
    lowered = metric.diag[:, None] * df  # f_nu gradient: [nu, mu] = d_mu f_nu
    sym = lowered.T + lowered
    div = float(np.trace(df))
    residual = sym - (2.0 / metric.dim) * metric.matrix * div
    return float(np.max(np.abs(residual)))


def killing_residual(gen: GeneratorAction, x, metric: Metric) -> float:
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
