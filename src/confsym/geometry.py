"""Minkowski geometry: metric, special conformal maps, inversion structure,
and conformal Killing vectors.

Conventions used across the package:

* the signature is (+, -, ..., -) and is not configurable;
* a :class:`Metric` holds its dimension's constants, each built once and
  read-only: ``diag``, ``matrix`` (the D x D metric) and ``identity`` (the
  D x D unit matrix); a kernel reads them rather than building its own
  ``np.diag`` or ``np.eye`` on every call;
* coordinate arrays hold upper components ``x^mu``;
* mixed-index matrices store the lower index first, ``M[a, b] = M_a^b``,
  so index chains contract as ordinary matrix products;
* derivative axes always come last: ``df[mu, nu] = d_nu f^mu``;
* leading sample axis: every kernel of the package that takes points, here
  and in :mod:`confsym.fields`, :mod:`confsym.clifford`,
  :mod:`confsym.transforms`, :mod:`confsym.noether` and
  :mod:`confsym.dual3`, takes points of shape ``(..., D)`` and returns one
  result per sample.  The parameters of a :class:`GeneratorAction` may carry
  leading stack axes, which broadcast against the points' sample axes by
  numpy's rules: a stack of the points' sample shape is one generator per
  sample (``special_conformal`` takes a parameter stack ``(..., D)`` and
  ``sigma_basis_conformal`` builds one from an index stack), and a stack of
  G generators acts on N points ``(N, 1, D)`` as a ``(N, G)`` result, or on
  points ``(N, D)`` once its parameters carry a unit axis, ``(G, 1, D)``, as
  a ``(G, N)`` result.  ``killing_divergence_gradient`` and
  ``killing_second_gradient`` take no points and follow the stack alone.  A
  single point is a stack with no sample axis: it runs the same code and
  returns numpy values, a scalar result as an ``np.float64``.  Each
  sample's result is bit for bit its single-point result, and each
  generator's in a stack its own result, by mirroring the single point's
  operations: per-sample dot products are ``vecdot`` calls, which run the
  dot routine of a 1-D ``u @ v`` once per sample and so sum in its order
  (``einsum`` and ``sum(-1)`` do not); every BLAS or LAPACK call of the
  package is one of ``_inner``, ``_mv``, ``_vm``, ``_mm``, ``_norm``,
  ``_det`` and ``_lstsq`` here, each one plain numpy call, so a per-point
  product is the same stacked ``matmul``, and the operands' memory layout
  still selects the routine (so a fixture returns C-ordered samples); a
  per-point ``einsum`` is the same ``einsum`` with a leading sample index;
  a per-point ``sum`` or ``trace`` reduces the trailing axes of the same
  layout; and a power of a per-sample value is ``np.float_power``, which
  calls libm's ``pow`` as a Python float's ``**`` does (numpy's ``**``
  squares or takes ``sqrt``).  A floor test raises for
  the first sample in sample order that fails it, with that sample's index
  as the error's ``sample``, so a chain of kernels over a sample array
  raises the error of the first kernel that meets a singular sample, naming
  that kernel's first bad sample (0 for a single point); a per-sample loop
  may meet another error first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
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


class _ReadOnly:
    """Base of the package's immutable records, which compare and hash by
    identity.  ``__init__`` binds each attribute once through :meth:`_bind`;
    rebinding or deleting one afterwards raises AttributeError.  A
    ``functools.cached_property`` still fills on first use, since it writes
    the instance dict directly."""

    __slots__ = ()

    def _bind(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a {type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a {type(self).__name__} is read-only: cannot delete {name!r}")


@dataclass(frozen=True, eq=False)
class Metric:
    """Diagonal Minkowski metric diag(1, -1, ..., -1) in ``dim`` dimensions,
    immutable, since :meth:`shared` hands one per dimension to every caller.

    Its constants are built once, read-only: ``diag``, the diagonal;
    ``matrix``, the D x D metric ``np.diag(diag)``; and ``identity``, the
    D x D ``np.eye(dim)``.  A kernel reads these instead of building them."""

    dim: int
    diag: np.ndarray = field(init=False, repr=False)
    matrix: np.ndarray = field(init=False, repr=False)
    identity: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.dim) < 1:
            raise UnsupportedDimension(f"dimension must be >= 1, got {self.dim}")
        dim = int(self.dim)
        diag = -np.ones(dim)
        diag[0] = 1.0
        object.__setattr__(self, "dim", dim)
        for name, value in (("diag", diag), ("matrix", np.diag(diag)), ("identity", np.eye(dim))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    @cache
    def shared(cls, dim: int):
        """The one instance of this class at ``dim``, built on first use."""
        return cls(dim)

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
    """u . v over the last axis of real arrays, one value per sample, with
    the bits of the 1-D ``u @ v`` (``vecdot`` runs its dot routine per
    sample, and conjugates ``u``)."""
    return np.vecdot(u, v)


def _lift(a, axes: int = 1):
    """Per-sample values with ``axes`` trailing axes, to broadcast against
    per-sample vectors (1) or matrices (2)."""
    a = np.asarray(a)
    return a.reshape(a.shape + (1,) * axes)


def _outer(u, v):
    """Per-sample outer product u^a v^b."""
    return u[..., :, None] * v[..., None, :]


def _mv(matrix, vector):
    """Per-sample matrix @ vector as a stacked matmul; for one sample it is
    the matrix-vector product ``matrix @ vector`` itself."""
    return (matrix @ vector[..., None])[..., 0]


def _vm(vector, matrix):
    """Per-sample vector @ matrix as a stacked matmul."""
    return (vector[..., None, :] @ matrix)[..., 0, :]


def _mm(a, b):
    """``a @ b``: a stacked matmul, or the dot routine for two 1-D arrays."""
    return a @ b


def _norm(a):
    """``np.linalg.norm(a)``: the 2-norm of a vector, Frobenius of a matrix."""
    return np.linalg.norm(a)


def _det(a):
    """``np.linalg.det(a)``: per-sample determinant of a matrix stack."""
    return np.linalg.det(a)


def _lstsq(a, b):
    """``np.linalg.lstsq(a, b, rcond=None)``'s least-squares solution."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _sum_left_to_right(terms):
    """sum_i terms[..., i], accumulated from 0.0 left to right as numpy's 1-D
    ``einsum("i,i->", u, v)`` sums when ``v`` is strided (its contiguous and
    stacked forms may add in SIMD lanes)."""
    total = 0.0
    for i in range(terms.shape[-1]):
        total = total + terms[..., i]
    return total


def _scale_floor(x):
    return SINGULARITY_FLOOR * (1.0 + _inner(x, x))


def _reject(bad, value, error, message):
    """Raise ``error`` at the first sample where ``bad`` holds, its flat
    index set as the error's ``sample``, with ``message`` formatted with that
    sample's ``value`` and with the index as ``{sample}``."""
    bad = np.asarray(bad)
    if not bad.any():
        return
    sample = int(np.argmax(bad))
    value = np.broadcast_to(value, bad.shape).flat[sample]
    exc = error(message.format(float(value), sample=sample))
    exc.sample = sample
    raise exc


def _max_abs(a, axes: int):
    """Largest |entry| over the last ``axes`` axes, one value per sample."""
    return np.abs(a).max(axis=tuple(range(-axes, 0)))


def invariant_square(x, metric: Metric):
    """x.x, raising :class:`LightConePoint` when numerically null."""
    x = metric._check(x)
    x2 = metric.norm2(x)
    _reject(abs(x2) < _scale_floor(x), x2, LightConePoint, "x^2 = {} is below the singularity floor")
    return x2


def conformal_factor(x, c, metric: Metric):
    """Scalar denominator 1 + 2 c.x + c^2 x^2 of the special conformal map."""
    x = metric._check(x)
    return _factor(x, metric._check(c), metric.norm2(x), metric)


def _factor(x, c, x2, metric: Metric):
    """The conformal factor of checked x and c, given x2 = x.x."""
    cl = metric.diag * c
    return 1.0 + 2.0 * _inner(cl, x) + _inner(c, cl) * x2


def _regular_factor(x, c, metric: Metric):
    """(x, c, sigma, x.x) with x and c checked, raising :class:`SingularMap`
    where the conformal factor sigma is numerically zero."""
    x, c = metric._check(x), metric._check(c)
    x2 = metric.norm2(x)
    s = _factor(x, c, x2, metric)
    _reject(abs(s) < _scale_floor(x), s, SingularMap, "conformal factor {} is below the singularity floor")
    return x, c, s, x2


def special_conformal_map(x, c, metric: Metric):
    """Finite special conformal coordinate map x -> (x + c x^2) / sigma."""
    x, c, s, x2 = _regular_factor(x, c, metric)
    return (x + c * _lift(x2)) / _lift(s)


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
    return metric.identity - 2.0 * _outer(metric.lower(x), x) / _lift(x2, 2)


def inversion_matrix_gradient(x, metric: Metric):
    """Exact gradient dI[a, b, m] = d_m I_a^b of the inversion matrix."""
    x = metric._check(x)
    x2 = _lift(invariant_square(x, metric), 3)
    xl = metric.diag * x
    dim = metric.dim
    grad = np.zeros(x.shape[:-1] + (dim, dim, dim))
    g = metric.matrix
    # d_m (x_a x^b) = g_{am} x^b + x_a delta^b_m
    grad -= 2.0 * (g[:, None, :] * x[..., None, :, None] + xl[..., :, None, None] * metric.identity) / x2
    grad += 4.0 * np.einsum("...a,...b,...m->...abm", xl, x, xl) / np.float_power(x2, 2)
    return grad


def map_jacobian(x, c, metric: Metric):
    """Forward Jacobian J[mu, beta] = d x'^mu / d x^beta by direct differentiation.

    Valid wherever the map itself is (x^2 may vanish here).
    """
    x, c, s, x2 = _regular_factor(x, c, metric)
    c2 = metric.norm2(c)
    xl = metric.lower(x)
    cl = metric.lower(c)
    num = x + c * _lift(x2)
    ds = 2.0 * cl + 2.0 * _lift(c2) * xl  # d_beta sigma
    s = _lift(s, 2)
    jac = (metric.identity + 2.0 * _outer(c, xl)) / s
    # a float's s**2 is libm's pow, which is not always s * s; float_power
    # calls pow for an array too, where ** would square
    jac -= _outer(num, ds) / np.float_power(s, 2)
    return jac


def conformal_jacobian(x, c, metric: Metric):
    """Jacobian pair of the special conformal map through inversion matrices.

    Returns ``(fwd, inv)`` with ``fwd[mu, beta] = d x'^mu / d x^beta`` given by
    I(x) I(x') / sigma and ``inv[beta, mu] = d x^beta / d x'^mu`` given by
    I(x') I(x) sigma.  Needs x^2 != 0 and x'^2 != 0 in addition to sigma != 0;
    use :func:`map_jacobian` for the unrestricted closed form.
    """
    x, c, s, x2 = _regular_factor(x, c, metric)
    xp = (x + c * _lift(x2)) / _lift(s)
    ix = inversion_matrix(x, metric)
    ixp = inversion_matrix(xp, metric)
    # (I(x) I(x'))_b^m carries (lower b, upper m); transpose to row = output.
    s = _lift(s, 2)
    fwd = np.swapaxes(_mm(ix, ixp), -1, -2) / s
    inv = np.swapaxes(_mm(ixp, ix), -1, -2) * s
    return fwd, inv


def large_parameter_map(x, c, metric: Metric):
    """Leading behaviour of the conformal map for large parameter c.

    Composition of a translation by c/c^2, a 1/c^2 dilation, the improper
    reflection built from c and the inversion of x.  The error against the
    exact map decays like the inverse cube of the parameter magnitude.
    """
    x = metric._check(x)
    c = metric._check(c)
    c2 = _lift(invariant_square(c, metric))
    big_x = inversion(x, metric)
    reflected = big_x - 2.0 * c * _lift(metric.dot(c, big_x)) / c2
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


def canonical_weight(dim: int) -> float:
    """Scale dimension (D - 2) / 2 of a canonical bosonic field."""
    return 0.5 * (dim - 2)


@dataclass(frozen=True, eq=False)
class GeneratorAction:
    """One element of the conformal algebra so(D, 2), or a stack of them,
    with the field it acts on.

    The element is the set of coefficients of its Killing vector
    f^mu = a^mu + omega^{mu nu} x_nu + lam x^mu + 2 (c.x) x^mu - c^mu x^2:
    D-vectors ``a`` and ``c``, a DxD matrix ``omega`` and a scalar ``lam``,
    each zero when not given.  Each is held as a read-only float array and
    may carry leading stack axes (the module's sample-axis contract).
    ``weight`` is the scale dimension assigned to the transformed field and
    ``spin`` selects how the spin matrix acts on its components.  A
    generator is immutable, since :func:`basis_generators` shares one per
    dimension, and compares and hashes by identity, as a ``GammaSet`` does.
    """

    dim: int
    weight: float
    a: np.ndarray = None
    omega: np.ndarray = None
    lam: np.ndarray = None
    c: np.ndarray = None
    spin: str = "scalar"

    def __post_init__(self):
        if self.spin not in SPIN_TAGS:
            raise ValueError(f"unknown spin tag {self.spin!r}")
        if self.dim < 1:
            raise UnsupportedDimension(f"dimension must be >= 1, got {self.dim}")
        for name, axes in (("a", 1), ("omega", 2), ("lam", 0), ("c", 1)):
            part = getattr(self, name)
            part = np.zeros((self.dim,) * axes) if part is None else np.array(part, dtype=float)
            if part.shape[part.ndim - axes:] != (self.dim,) * axes:
                raise DimensionMismatch(f"{name} must end in {axes} axes of length {self.dim}, got {part.shape}")
            part.flags.writeable = False
            object.__setattr__(self, name, part)


def translation(a, spin="scalar") -> GeneratorAction:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(f"translation parameter must be a D-vector, got shape {a.shape}")
    return GeneratorAction(a.shape[0], canonical_weight(a.shape[0]), a=a, spin=spin)


def lorentz_rotation(omega) -> GeneratorAction:
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise DimensionMismatch("Lorentz parameter must be a square matrix")
    if not np.array_equal(omega, -omega.T):
        raise ValueError("Lorentz parameter must be exactly antisymmetric")
    return GeneratorAction(omega.shape[0], canonical_weight(omega.shape[0]), omega=omega)


def dilation(strength, dim, weight=None, spin="scalar") -> GeneratorAction:
    w = canonical_weight(dim) if weight is None else float(weight)
    return GeneratorAction(int(dim), w, lam=float(strength), spin=spin)


def special_conformal(c, weight=None, spin="scalar") -> GeneratorAction:
    """Special conformal generator of parameter c, or of a parameter stack
    ``(..., D)`` with one parameter per sample."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        raise DimensionMismatch("special conformal parameter must be a D-vector or a stack of them")
    w = canonical_weight(c.shape[-1]) if weight is None else float(weight)
    return GeneratorAction(c.shape[-1], w, c=c, spin=spin)


def sigma_basis_conformal(sigma, metric: Metric, weight, spin) -> GeneratorAction:
    """Special conformal generator whose parameter has the sigma-th basis
    vector as its lower components, so that contracting its variation with
    c gives the sigma-indexed variation.  ``sigma`` is an integer or an
    integer index stack, one index per sample, each in 0..D-1; anything else
    raises ValueError."""
    c = metric.matrix[_axis_index(sigma, metric.dim)]
    return special_conformal(c, weight=weight, spin=spin)


def _axis_index(sigma, dim: int) -> np.ndarray:
    """``sigma`` as an integer array, ValueError unless every entry is an
    integer (not a bool) in 0..dim-1."""
    index = np.asarray(sigma)
    if index.dtype.kind not in "iu" or not ((0 <= index) & (index < dim)).all():
        raise ValueError(f"sigma must be an integer index in 0..{dim - 1}, got {sigma!r}")
    return index


def _parts(gen: GeneratorAction, metric: Metric):
    """(a, omega, lam, c) of ``gen``, which must act at the metric's
    dimension."""
    if gen.dim != metric.dim:
        raise DimensionMismatch(f"a D = {gen.dim} generator cannot act at D = {metric.dim}")
    return gen.a, gen.omega, gen.lam, gen.c


# Each Killing formula below computes the special conformal part first, in
# the order that the special conformal generator alone was computed in, then
# adds the other parts: a generator with one part keeps the bits it had, up
# to the sign of a zero.


def killing_vector(gen: GeneratorAction, x, metric: Metric) -> np.ndarray:
    """Coordinate vector field f^mu generated by ``gen`` at the point x:
    a^mu + omega^{mu nu} x_nu + lam x^mu + 2 (c.x) x^mu - c^mu x^2."""
    a, omega, lam, c = _parts(gen, metric)
    x = metric._check(x)
    xl = metric.diag * x
    f = 2.0 * _lift(_inner(c, xl)) * x - c * _lift(_inner(x, xl))
    return f + a + _mv(omega, xl) + _lift(lam) * x


def killing_gradient(gen: GeneratorAction, x, metric: Metric) -> np.ndarray:
    """Exact gradient df[mu, nu] = d_nu f^mu (f is polynomial in x)."""
    a, omega, lam, c = _parts(gen, metric)
    x = metric._check(x)
    xl = metric.diag * x
    eye = metric.identity
    df = 2.0 * _outer(x, metric.diag * c) + 2.0 * _lift(_inner(c, xl), 2) * eye - 2.0 * _outer(c, xl)
    return df + omega * metric.diag + _lift(lam, 2) * eye


def killing_second_gradient(gen: GeneratorAction, metric: Metric) -> np.ndarray:
    """Constant second gradient d2f[mu, nu, rho] = d_rho d_nu f^mu, one per
    special conformal parameter of a stack."""
    *_, c = _parts(gen, metric)
    cl = metric.diag * c
    eye = metric.identity
    d2 = np.zeros(c.shape[:-1] + (metric.dim,) * 3)
    d2 += 2.0 * np.einsum("...n,mr->...mnr", cl, eye)
    d2 += 2.0 * np.einsum("...r,mn->...mnr", cl, eye)
    d2 -= 2.0 * np.einsum("...m,nr->...mnr", c, metric.matrix)
    return d2


def killing_divergence(gen: GeneratorAction, x, metric: Metric):
    """d_mu f^mu = 2 D c.x + D lam; Poincare generators are divergence-free."""
    _, _, lam, c = _parts(gen, metric)
    return 2.0 * metric.dim * _inner(c, metric.lower(x)) + lam * metric.dim


def killing_divergence_gradient(gen: GeneratorAction, metric: Metric) -> np.ndarray:
    """d_m (d.f) = 2 D c_m."""
    *_, c = _parts(gen, metric)
    return 2.0 * metric.dim * (metric.diag * c)


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


@cache
def basis_generators(dim: int) -> GeneratorAction:
    """The full (D+1)(D+2)/2 generator basis at dimension ``dim``, acting on
    scalars of canonical weight, as one stack along a leading axis: the
    translations along each axis, the rotations in each plane mu < nu, the
    dilation and the special conformal transformations along each axis.
    The stack is built once per dimension and shared."""
    planes = [(mu, nu) for mu in range(dim) for nu in range(mu + 1, dim)]
    count = 2 * dim + len(planes) + 1
    a, omega, lam, c = np.zeros((count, dim)), np.zeros((count, dim, dim)), np.zeros(count), np.zeros((count, dim))
    a[:dim] = c[count - dim:] = np.eye(dim)
    for k, (mu, nu) in enumerate(planes, start=dim):
        omega[k, mu, nu], omega[k, nu, mu] = 1.0, -1.0
    lam[dim + len(planes)] = 1.0
    return GeneratorAction(dim, canonical_weight(dim), a, omega, lam, c)
