"""Closed-form test fields with exact derivatives, plus a finite-difference oracle.

Every field family carries analytic derivatives up to third order; finite
differences are used only as an independent cross-check.  Derivative index
layout (derivative axes last):

* scalar multiplet: ``value (N,)``, ``grad (N, D)``, ``hess (N, D, D)``,
  ``third (N, D, D, D)`` with ``grad[i, mu] = d_mu phi_i``;
* spinors carry complex values and first derivatives only.

A single scalar field is a one-component multiplet: its evaluators keep the
component axis, ``value (1,)``, ``grad (1, D)`` and so on.  A vector
potential is the D-component multiplet of its lower components, A_alpha at
component alpha, so ``grad[alpha, mu] = d_mu A_alpha``; a plane-wave
potential is a :class:`CosineMultiplet` with the lowered polarisation as its
amplitude.  What a field is, and so how it transforms, is the spin tag of
the generator that varies it (:mod:`confsym.transforms`), not its class.

Every evaluator takes points of shape ``(..., D)`` and returns the shapes
above with the sample axes in front, C-ordered, each sample bit for bit its
single-point result; a single point is a stack with no sample axis (the
contract of :mod:`confsym.geometry`).

The kernels of :mod:`confsym.noether`, :mod:`confsym.transforms` and
:mod:`confsym.dual3` read a fixture only through its :class:`Jet` on their
points, which evaluates each derivative order once (:func:`as_jet`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, OffShellParameters
from .geometry import Metric, _inner, _lift, _mv, _norm, _outer, _sum_left_to_right, _vm

MAX_POLY_DEGREE = 4

NULLNESS_TOL = 1e-12


# ---------------------------------------------------------------------------
# scalar multiplets
# ---------------------------------------------------------------------------


class CosineMultiplet:
    """amplitude_i * cos(k.x + phase); solves the wave equation iff k^2 = 0."""

    def __init__(self, k, amplitude, phase: float, metric: Metric):
        k = metric._check(k)
        amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        self.dim = metric.dim
        self.n_comp = amplitude.shape[0]
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


class PolynomialMultiplet:
    """Per-component polynomials given as [(coef, exponent-tuple), ...]."""

    def __init__(self, dim: int, components):
        self.dim = int(dim)
        self.n_comp = len(components)
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
        self._terms = {}
        self._tables = {}

    def _entries(self, order: int):
        """The monomials (coefficient, exponents) of every derivative entry
        ``[i, mu_1, ..., mu_order]``, one list per entry in C order, built on
        first use from the previous order's: entry ``idx + (mu,)`` takes
        d_mu of each monomial of entry ``idx``, in order, and drops those
        whose coefficient becomes zero, so each coefficient is its
        monomial's product taken factor by factor in the order of ``idx``."""
        if order not in self._terms:
            if order == 0:
                entries = [list(comp) for comp in self.components]
            else:
                entries = []
                for terms in self._entries(order - 1):
                    for mu in range(self.dim):
                        derived = []
                        for coef, exps in terms:
                            e = exps[mu]
                            if e and coef * e != 0.0:
                                derived.append((coef * e, exps[:mu] + (e - 1,) + exps[mu + 1:]))
                        entries.append(derived)
            self._terms[order] = entries
        return self._terms[order]

    def _table(self, order: int):
        """(coefficients, exponents) of :meth:`_entries` as arrays, one row
        per entry, padded with zero monomials to a common width; built on
        first use."""
        if order not in self._tables:
            entries = self._entries(order)
            width = max([1] + [len(terms) for terms in entries])
            zero = (0,) * self.dim
            coefs, exps = [], []
            for terms in entries:
                for coef, e in terms:
                    coefs.append(coef)
                    exps += e
                pad = width - len(terms)
                coefs += [0.0] * pad
                exps += zero * pad
            self._tables[order] = (
                np.array(coefs, dtype=float).reshape(len(entries), width),
                np.array(exps, dtype=int).reshape(len(entries), width, self.dim),
            )
        return self._tables[order]

    def _derive_eval(self, x, order: int):
        """Each entry's monomials at x, multiplied coordinate by coordinate in
        axis order (a zero exponent multiplies by an exact 1.0) and summed
        left to right from 0.0."""
        x = np.asarray(x, dtype=float)
        coefs, exps = self._table(order)
        powers = np.float_power(x[..., :, None], np.arange(MAX_POLY_DEGREE + 1))
        terms = coefs
        for mu in range(self.dim):
            terms = terms * np.take(powers[..., mu, :], exps[..., mu], axis=-1)
        return _sum_left_to_right(terms).reshape(x.shape[:-1] + (self.n_comp,) + (self.dim,) * order)

    def value(self, x):
        return self._derive_eval(x, 0)

    def grad(self, x):
        return self._derive_eval(x, 1)

    def hess(self, x):
        return self._derive_eval(x, 2)

    def third(self, x):
        return self._derive_eval(x, 3)


class GaussianMultiplet:
    """amplitude_i * exp(b.x + x.G x) with symmetric G (componentwise sums)."""

    def __init__(self, dim: int, amplitude, linear, quad):
        amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        self.dim = int(dim)
        self.n_comp = amplitude.shape[0]
        linear = np.asarray(linear, dtype=float)
        quad = np.asarray(quad, dtype=float)
        if linear.shape != (dim,) or quad.shape != (dim, dim):
            raise DimensionMismatch("exponent coefficients have wrong shape")
        self.amplitude = amplitude
        self.linear = linear.copy()
        self.quad = 0.5 * (quad + quad.T)

    def _core(self, x):
        x = np.asarray(x, dtype=float)
        x_quad = _vm(x, self.quad)
        q = _inner(self.linear, x) + _inner(x_quad, x)
        u = self.linear + _mv(2.0 * self.quad, x)
        return np.exp(q), u

    def value(self, x):
        e, _ = self._core(x)
        return self.amplitude * _lift(e)

    def grad(self, x):
        e, u = self._core(x)
        return np.einsum("...i,...m->...im", self.amplitude * _lift(e), u)

    def hess(self, x):
        e, u = self._core(x)
        core = _outer(u, u) + 2.0 * self.quad
        return np.einsum("...i,...mn->...imn", self.amplitude * _lift(e), core)

    def third(self, x):
        e, u = self._core(x)
        core = np.einsum("...m,...n,...r->...mnr", u, u, u)
        core = core + 2.0 * (
            np.einsum("mn,...r->...mnr", self.quad, u)
            + np.einsum("mr,...n->...mnr", self.quad, u)
            + np.einsum("nr,...m->...mnr", self.quad, u)
        )
        return np.einsum("...i,...mnr->...imnr", self.amplitude * _lift(e), core)


# ---------------------------------------------------------------------------
# vector potentials
# ---------------------------------------------------------------------------


class ConstantFieldShift:
    """base_a + M_{ab} x^b: ``base``'s field strength plus the constant
    M^T - M, on shell when ``base`` is; ``base`` is read through its jet."""

    def __init__(self, base, matrix):
        self.dim = base.dim
        self.base = base
        self.matrix = np.asarray(matrix, dtype=float)

    def value(self, x):
        return as_jet(self.base, x).value + _mv(self.matrix, x)

    def grad(self, x):
        return as_jet(self.base, x).grad + self.matrix

    def hess(self, x):
        return as_jet(self.base, x).hess


class ShiftedPotential:
    """Gauge-shifted potential A_alpha + d_alpha Omega, with Omega component 0
    of the ``gauge`` multiplet.  ``base`` and ``gauge`` are fixtures or their
    jets, read through their jets on the points evaluated."""

    def __init__(self, base, gauge):
        if gauge.dim != base.dim:
            raise DimensionMismatch("gauge function dimension mismatch")
        self.dim = base.dim
        self.base = base
        self.gauge = gauge

    def value(self, x):
        return as_jet(self.base, x).value + as_jet(self.gauge, x).grad[..., 0, :]

    def grad(self, x):
        return as_jet(self.base, x).grad + as_jet(self.gauge, x).hess[..., 0, :, :]

    def hess(self, x):
        return as_jet(self.base, x).hess + as_jet(self.gauge, x).third[..., 0, :, :, :]


def check_null(k, metric: Metric) -> None:
    """Raise :class:`OffShellParameters` unless the wave vector ``k`` is
    null, |k^2| <= 1e-12 k.k with the Euclidean k.k, so that the test does
    not depend on the size of ``k``.  NaN fails."""
    k = metric._check(k)
    k2 = metric.norm2(k)
    if not abs(k2) <= NULLNESS_TOL * _inner(k, k):
        raise OffShellParameters(f"wave vector is not null: k^2 = {k2}")


def check_maxwell_plane_wave(k, eps, metric: Metric) -> None:
    """Raise :class:`OffShellParameters` unless the wave vector ``k`` is null
    (:func:`check_null`), the polarisation ``eps`` (index up) transverse,
    |k.eps| <= 1e-12 |k| |eps| with Euclidean norms, and the field strength
    k ^ eps exceeds 1e-12 |k| |eps|: F = 0 solves the field equations
    vacuously.  NaN fails every test."""
    check_null(k, metric)
    bound = NULLNESS_TOL * _norm(k) * _norm(eps)
    ke = metric.dot(k, eps)
    if not abs(ke) <= bound:
        raise OffShellParameters(f"polarisation is not transverse: k.eps = {ke}")
    wedge = np.outer(k, eps) - np.outer(eps, k)
    if not _norm(wedge) > bound:
        raise OffShellParameters("F = 0: k and eps must be nonzero and not parallel")


def make_onshell_maxwell_plane_wave(k, eps, metric: Metric, phase: float = 0.0) -> CosineMultiplet:
    """Plane-wave potential eps_alpha cos(k.x + phase) solving the free
    Maxwell equations exactly, ``eps`` given with its index up; parameters
    that fail :func:`check_maxwell_plane_wave` raise its error."""
    check_maxwell_plane_wave(k, eps, metric)
    return CosineMultiplet(k, metric.lower(eps), phase, metric)


# ---------------------------------------------------------------------------
# spinors
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


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


class Jet:
    """One field on one point stack ``x`` of shape ``(..., D)``.

    ``value``, ``grad``, ``hess`` and ``third`` are the field's evaluators on
    ``x``, each evaluated on first use and then kept.  For a vector potential
    ``F[a, b] = d_a A_b - d_b A_a`` and ``dF[a, b, m] = d_m F_{ab}`` are built
    from ``grad`` and ``hess``.
    """

    def __init__(self, field, x):
        self.field = field
        self.dim = field.dim
        self.x = x

    value = cached_property(lambda self: self.field.value(self.x))
    grad = cached_property(lambda self: self.field.grad(self.x))
    hess = cached_property(lambda self: self.field.hess(self.x))
    third = cached_property(lambda self: self.field.third(self.x))
    # grad[b, a] = d_a A_b
    F = cached_property(lambda self: np.swapaxes(self.grad, -1, -2) - self.grad)
    dF = cached_property(lambda self: np.swapaxes(self.hess, -3, -2) - self.hess)

    def box(self, metric: Metric) -> np.ndarray:
        """Wave operator g^{mu nu} d_mu d_nu applied to each component."""
        return np.einsum("m,...imm->...i", metric.diag, self.hess)


def as_jet(field, x) -> Jet:
    """The jet of ``field`` on the points ``x``: ``field`` itself when it is a
    jet on those points, a new jet when it is a fixture.  A jet on other
    points raises ValueError."""
    if not isinstance(field, Jet):
        return Jet(field, x)
    if field.x is not x and not np.array_equal(field.x, x):
        raise ValueError(
            f"a jet on points of shape {np.shape(field.x)} was passed with other points"
        )
    return field


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def fd_gradient(func, x, step: float):
    """Central differences (f(x + h e_mu) - f(x - h e_mu)) / 2h over every
    direction mu, derivative axis last.

    Exact for polynomials of degree <= 2 in the stepped coordinate; the
    independent check against every analytic derivative in this module.
    ``func`` is called once, on the stack of stepped points of shape
    ``(D, 2, ..., D)``: direction-major and + before -, the order in which a
    loop over directions would step them.  So ``func`` takes points
    ``(..., D)``, and parameters it holds per sample of ``x`` broadcast
    against the stack's trailing sample axes.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    e = (step * np.eye(dim)).reshape((dim, 1) + (1,) * (x.ndim - 1) + (dim,))
    values = np.asarray(func(np.concatenate([x + e, x - e], axis=1)))
    # C-ordered, as a stack of the directions' columns is
    return np.ascontiguousarray(np.moveaxis((values[:, 0] - values[:, 1]) / (2.0 * step), 0, -1))
