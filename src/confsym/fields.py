"""Closed-form test fields with exact derivatives, plus a finite-difference oracle.

Every field family carries analytic derivatives up to third order; finite
differences are used only as an independent cross-check.  Derivative index
layout (derivative axes last):

* scalar multiplet: ``value (N,)``, ``grad (N, D)``, ``hess (N, D, D)``,
  ``third (N, D, D, D)`` with ``grad[i, mu] = d_mu phi_i``;
* vector potential: lower-component ``value (D,)`` giving A_alpha and
  ``grad[alpha, mu] = d_mu A_alpha`` and so on;
* spinors carry complex values and first derivatives only.

Leading sample axis: ``value``, ``grad``, ``hess`` and ``third`` of
:class:`CosineMultiplet` and :class:`CosineVectorPotential`, ``value`` and
``grad`` of :class:`CosineSpinor`, the component view :class:`ScalarField`
of a cosine multiplet and :class:`ShiftedPotential` over them take points of
shape ``(..., D)`` and return the shapes above with the sample axes in front,
each sample bit for bit its single-point result (the rules are stated in
:mod:`confsym.geometry`): the phase ``k.x`` is a stacked ``matmul`` and the
constant amplitude tensors are scaled per sample.  A single point gives the
array or float it always gave.  The polynomial and Gaussian families take
one point.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OffShellParameters
from .geometry import Metric, _inner, _lift

MAX_POLY_DEGREE = 4

NULLNESS_TOL = 1e-12


# ---------------------------------------------------------------------------
# scalar multiplets
# ---------------------------------------------------------------------------


class ScalarMultiplet:
    """N-component scalar field with exact derivatives to third order."""

    def __init__(self, dim: int, n_comp: int):
        self.dim = int(dim)
        self.n_comp = int(n_comp)

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x) -> np.ndarray:
        raise NotImplementedError

    def third(self, x) -> np.ndarray:
        raise NotImplementedError

    def box(self, x, metric: Metric) -> np.ndarray:
        """Wave operator g^{mu nu} d_mu d_nu applied to each component."""
        return np.einsum("m,imm->i", metric.diag, self.hess(x))

    def component(self, index: int) -> "ScalarField":
        return ScalarField(self, index)


class ScalarField:
    """Single-component view of a multiplet, with scalar-shaped evaluators."""

    def __init__(self, multiplet: ScalarMultiplet, index: int = 0):
        if not 0 <= index < multiplet.n_comp:
            raise IndexError(f"component {index} out of range")
        self._m = multiplet
        self._i = index
        self.dim = multiplet.dim

    def value(self, x):
        value = self._m.value(x)[..., self._i]
        return float(value) if value.ndim == 0 else value

    def grad(self, x) -> np.ndarray:
        return self._m.grad(x)[..., self._i, :]

    def hess(self, x) -> np.ndarray:
        return self._m.hess(x)[..., self._i, :, :]

    def third(self, x) -> np.ndarray:
        return self._m.third(x)[..., self._i, :, :, :]

    def box(self, x, metric: Metric) -> float:
        return float(self._m.box(x, metric)[self._i])


class CosineMultiplet(ScalarMultiplet):
    """amplitude_i * cos(k.x + phase); solves the wave equation iff k^2 = 0."""

    def __init__(self, k, amplitude, phase: float, metric: Metric):
        k = metric._check(k)
        amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        super().__init__(metric.dim, amplitude.shape[0])
        self.k = k.copy()
        self.k_low = metric.lower(k)
        self.amplitude = amplitude
        self.phase = float(phase)

    def _angle(self, x):
        return _inner(np.asarray(x, dtype=float), self.k_low) + self.phase

    def value(self, x):
        return self.amplitude * _lift(np.cos(self._angle(x)))

    def grad(self, x):
        s = np.sin(self._angle(x))
        return -np.einsum("i,m->im", self.amplitude, self.k_low) * _lift(s, 2)

    def hess(self, x):
        c = np.cos(self._angle(x))
        return -np.einsum("i,m,n->imn", self.amplitude, self.k_low, self.k_low) * _lift(c, 3)

    def third(self, x):
        s = np.sin(self._angle(x))
        kl = self.k_low
        return np.einsum("i,m,n,r->imnr", self.amplitude, kl, kl, kl) * _lift(s, 4)


class PolynomialMultiplet(ScalarMultiplet):
    """Per-component polynomials given as [(coef, exponent-tuple), ...]."""

    def __init__(self, dim: int, components):
        super().__init__(dim, len(components))
        cleaned = []
        for mono_list in components:
            comp = []
            for coef, exps in mono_list:
                exps = tuple(int(e) for e in exps)
                if len(exps) != dim:
                    raise DimensionMismatch("exponent tuple length must equal dim")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                if sum(exps) > MAX_POLY_DEGREE:
                    raise ValueError(
                        f"total degree capped at {MAX_POLY_DEGREE}, got {sum(exps)}"
                    )
                comp.append((float(coef), exps))
            cleaned.append(tuple(comp))
        self.components = tuple(cleaned)

    @staticmethod
    def _mono_derive(coef, exps, direction):
        e = exps[direction]
        if e == 0:
            return 0.0, exps
        new = list(exps)
        new[direction] = e - 1
        return coef * e, tuple(new)

    @staticmethod
    def _mono_eval(coef, exps, x):
        out = coef
        for xi, e in zip(x, exps):
            if e:
                out *= xi**e
        return out

    def _derive_eval(self, x, order: int):
        x = np.asarray(x, dtype=float)
        out = np.zeros((self.n_comp,) + (self.dim,) * order)
        for i, comp in enumerate(self.components):
            for idx in np.ndindex(*(self.dim,) * order):
                total = 0.0
                for coef, exps in comp:
                    for d in idx:
                        coef, exps = self._mono_derive(coef, exps, d)
                        if coef == 0.0:
                            break
                    else:
                        total += self._mono_eval(coef, exps, x)
                out[(i,) + idx] = total
        return out

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.array(
            [
                sum(self._mono_eval(c, e, x) for c, e in comp)
                for comp in self.components
            ]
        )

    def grad(self, x):
        return self._derive_eval(x, 1)

    def hess(self, x):
        return self._derive_eval(x, 2)

    def third(self, x):
        return self._derive_eval(x, 3)


class GaussianMultiplet(ScalarMultiplet):
    """amplitude_i * exp(b.x + x.G x) with symmetric G (componentwise sums)."""

    def __init__(self, dim: int, amplitude, linear, quad):
        amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        super().__init__(dim, amplitude.shape[0])
        linear = np.asarray(linear, dtype=float)
        quad = np.asarray(quad, dtype=float)
        if linear.shape != (dim,) or quad.shape != (dim, dim):
            raise DimensionMismatch("exponent coefficients have wrong shape")
        self.amplitude = amplitude
        self.linear = linear.copy()
        self.quad = 0.5 * (quad + quad.T)

    def _core(self, x):
        x = np.asarray(x, dtype=float)
        q = float(self.linear @ x + x @ self.quad @ x)
        u = self.linear + 2.0 * self.quad @ x
        return np.exp(q), u

    def value(self, x):
        e, _ = self._core(x)
        return self.amplitude * e

    def grad(self, x):
        e, u = self._core(x)
        return np.einsum("i,m->im", self.amplitude * e, u)

    def hess(self, x):
        e, u = self._core(x)
        core = np.outer(u, u) + 2.0 * self.quad
        return np.einsum("i,mn->imn", self.amplitude * e, core)

    def third(self, x):
        e, u = self._core(x)
        core = np.einsum("m,n,r->mnr", u, u, u)
        core = core + 2.0 * (
            np.einsum("mn,r->mnr", self.quad, u)
            + np.einsum("mr,n->mnr", self.quad, u)
            + np.einsum("nr,m->mnr", self.quad, u)
        )
        return np.einsum("i,mnr->imnr", self.amplitude * e, core)


def multiplet_stack(phi, x):
    """(value (N,), grad (N, D), hess (N, D, D)) of a multiplet, with a
    single-component :class:`ScalarField` given a leading axis of length one."""
    value = np.atleast_1d(phi.value(x))
    grad = np.atleast_2d(phi.grad(x))
    hess = phi.hess(x)
    if hess.ndim == 2:
        hess = hess[None, ...]
    return value, grad, hess


# ---------------------------------------------------------------------------
# vector potentials and field strengths
# ---------------------------------------------------------------------------


class VectorPotential:
    """Covariant vector field A_alpha with exact derivatives to third order."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x) -> np.ndarray:
        raise NotImplementedError

    def third(self, x) -> np.ndarray:
        raise NotImplementedError


class CosineVectorPotential(VectorPotential):
    """A_alpha = eps_alpha cos(k.x + phase), eps stored with the index down."""

    def __init__(self, k, eps, phase: float, metric: Metric):
        k = metric._check(k)
        eps = metric._check(eps)
        super().__init__(metric.dim)
        self.k = k.copy()
        self.k_low = metric.lower(k)
        self.eps_low = metric.lower(eps)
        self.phase = float(phase)

    def _angle(self, x):
        return _inner(np.asarray(x, dtype=float), self.k_low) + self.phase

    def value(self, x):
        return self.eps_low * _lift(np.cos(self._angle(x)))

    def grad(self, x):
        return -np.outer(self.eps_low, self.k_low) * _lift(np.sin(self._angle(x)), 2)

    def hess(self, x):
        kl = self.k_low
        return -np.einsum("a,m,n->amn", self.eps_low, kl, kl) * _lift(np.cos(self._angle(x)), 3)

    def third(self, x):
        kl = self.k_low
        return np.einsum("a,m,n,r->amnr", self.eps_low, kl, kl, kl) * _lift(
            np.sin(self._angle(x)), 4
        )


class PolynomialVectorPotential(VectorPotential):
    """Each covariant component is an independent polynomial."""

    def __init__(self, dim: int, components):
        super().__init__(dim)
        if len(components) != dim:
            raise DimensionMismatch("need one polynomial per component")
        self._poly = PolynomialMultiplet(dim, components)

    def value(self, x):
        return self._poly.value(x)

    def grad(self, x):
        return self._poly.grad(x)

    def hess(self, x):
        return self._poly.hess(x)

    def third(self, x):
        return self._poly.third(x)


class ShiftedPotential(VectorPotential):
    """Gauge-shifted potential A_alpha + d_alpha Omega."""

    def __init__(self, base: VectorPotential, gauge: ScalarField):
        if gauge.dim != base.dim:
            raise DimensionMismatch("gauge function dimension mismatch")
        super().__init__(base.dim)
        self.base = base
        self.gauge = gauge

    def value(self, x):
        return self.base.value(x) + self.gauge.grad(x)

    def grad(self, x):
        return self.base.grad(x) + self.gauge.hess(x)

    def hess(self, x):
        return self.base.hess(x) + self.gauge.third(x)


def make_onshell_maxwell_plane_wave(
    k, eps, metric: Metric, phase: float = 0.0
) -> CosineVectorPotential:
    """Plane-wave potential solving the free Maxwell equations exactly.

    Requires a null wave vector and a transverse polarisation; violations
    beyond 1e-12 raise :class:`OffShellParameters`.
    """
    k2 = metric.norm2(k)
    ke = metric.dot(k, eps)
    if abs(k2) > NULLNESS_TOL:
        raise OffShellParameters(f"wave vector is not null: k^2 = {k2}")
    if abs(ke) > NULLNESS_TOL:
        raise OffShellParameters(f"polarisation is not transverse: k.eps = {ke}")
    return CosineVectorPotential(k, eps, phase, metric)


class FieldStrengthValue:
    """Pointwise antisymmetric F_{ab} with its first derivatives,
    ``dF[a, b, m] = d_m F_{ab}``."""

    def __init__(self, F, dF):
        self.F = F
        self.dF = dF


def field_strength_from_potential(A: VectorPotential, x) -> FieldStrengthValue:
    """F_{ab} = d_a A_b - d_b A_a and its first derivatives, built exactly."""
    grad = A.grad(x)  # grad[b, a] = d_a A_b
    hess = A.hess(x)
    F = grad.T - grad
    dF = np.transpose(hess, (1, 0, 2)) - hess
    return FieldStrengthValue(F, dF)


# ---------------------------------------------------------------------------
# spinors and gauge functions
# ---------------------------------------------------------------------------


class CosineSpinor:
    """psi(x) = u cos(k.x + phase) + v sin(k.x + phase), complex u, v."""

    def __init__(self, k, u, v, phase: float, metric: Metric):
        k = metric._check(k)
        self.dim = metric.dim
        self.k_low = metric.lower(k)
        self.u = np.asarray(u, dtype=complex)
        self.v = np.asarray(v, dtype=complex)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise DimensionMismatch("spinor amplitudes must be equal-length vectors")
        self.n_comp = self.u.shape[0]
        self.phase = float(phase)

    def _angle(self, x):
        return _inner(np.asarray(x, dtype=float), self.k_low) + self.phase

    def value(self, x):
        t = self._angle(x)
        return self.u * _lift(np.cos(t)) + self.v * _lift(np.sin(t))

    def grad(self, x):
        t = self._angle(x)
        coeff = -self.u * _lift(np.sin(t)) + self.v * _lift(np.cos(t))
        return np.einsum("...i,m->...im", coeff, self.k_low.astype(complex))


def make_gauge_function(kind: str, metric: Metric, **params) -> ScalarField:
    """Convenience constructor for gauge functions Omega(x).

    ``kind`` is one of ``linear`` (params ``slope``, ``offset``),
    ``plane-wave`` (``k``, ``amplitude``, ``phase``) or ``polynomial``
    (``monomials``).
    """
    dim = metric.dim
    if kind == "linear":
        slope = np.asarray(params["slope"], dtype=float)
        offset = float(params.get("offset", 0.0))
        monos = [(offset, (0,) * dim)] if offset else []
        for mu in range(dim):
            if slope[mu]:
                exps = [0] * dim
                exps[mu] = 1
                monos.append((slope[mu], tuple(exps)))
        if not monos:
            monos = [(0.0, (0,) * dim)]
        return PolynomialMultiplet(dim, [monos]).component(0)
    if kind == "plane-wave":
        return CosineMultiplet(
            params["k"], [params.get("amplitude", 1.0)], params.get("phase", 0.0), metric
        ).component(0)
    if kind == "polynomial":
        return PolynomialMultiplet(dim, [params["monomials"]]).component(0)
    raise ValueError(f"unknown gauge function kind {kind!r}")


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def fd_oracle(func, x, direction: int, step: float):
    """Central difference (f(x + h e_mu) - f(x - h e_mu)) / 2h.

    Exact for polynomials of degree <= 2 in the stepped coordinate; the
    independent check against every analytic derivative in this module.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.shape[-1])
    e[direction] = step
    plus = np.asarray(func(x + e))
    minus = np.asarray(func(x - e))
    return (plus - minus) / (2.0 * step)


def fd_gradient(func, x, step: float):
    """Stack :func:`fd_oracle` over all directions, derivative axis last.

    ``x`` may carry a leading sample axis, points ``(..., D)``, when ``func``
    takes one; each direction is then one call over all samples."""
    cols = [fd_oracle(func, x, mu, step) for mu in range(np.shape(x)[-1])]
    return np.stack(cols, axis=-1)
