"""Scalar-potential formulation of the D = 3 Maxwell theory.

The antisymmetric field strength is represented through the rank-3 symbol
and the gradient of a single scalar, which interchanges the roles of the
equation of motion and the cyclic (Bianchi) identity: the former becomes an
identity, the latter carries the dynamics.  The dual scalar is a
one-component multiplet, read through its :class:`~confsym.fields.Jet` at
component 0, and the vector potential the three-component multiplet of its
lower components; each function takes the scalar or its jet on points ``x``
of shape ``(..., D)``, with ``sigma`` an index or an index stack, and
returns one result per sample (the contract of :mod:`confsym.geometry`).
F varies by the ``field-strength`` tag's rule through
:func:`~confsym.transforms.variation`.
"""

from __future__ import annotations

import numpy as np

from .errors import OffShellParameters, WrongDimension
from .fields import CosineMultiplet, Jet, as_jet, check_null
from .geometry import Metric, _lift, _lstsq, _max_abs, _mm, levi_civita3, levi_civita3_upper, sigma_basis_conformal
from .noether import improved_scalar_stress, _f_squared, _raise2
from .transforms import delta_with_gradient, variation


def _check_dim3(metric: Metric, phi=None):
    if metric.dim != 3:
        raise WrongDimension("the dual scalar formulation lives at D = 3")
    if phi is not None and phi.dim != 3:
        raise WrongDimension("dual scalar field must be three-dimensional")
    if phi is not None and phi.n_comp != 1:
        raise WrongDimension(f"dual scalar field must have one component, not {phi.n_comp}")


def _dual_jet(phi, x, metric: Metric) -> Jet:
    """The jet of the dual scalar (or ``phi`` itself, a jet on x), after the
    dimension checks."""
    jet = as_jet(phi, x)
    _check_dim3(metric, jet.field)
    return jet


def field_strength_from_dual(phi, x, metric: Metric):
    """(F, dF): F_{ab} = eps_{abm} d^m phi and ``dF[a, b, r] = d_r F_{ab}``."""
    jet = _dual_jet(phi, x, metric)
    eps = levi_civita3()
    grad_up = metric.lower(jet.grad[..., 0, :])
    hess_up = metric.diag[:, None] * jet.hess[..., 0, :, :]  # d^m d_r phi, [m, r]
    return np.einsum("abm,...m->...ab", eps, grad_up), np.einsum("abm,...mr->...abr", eps, hess_up)


def dual_roundtrip_residual(phi, x, metric: Metric):
    """Half the symbol contraction of F must rebuild the raised gradient."""
    jet = _dual_jet(phi, x, metric)
    F, _ = field_strength_from_dual(jet, x, metric)
    rebuilt = 0.5 * np.einsum("mab,...ab->...m", levi_civita3_upper(metric), F)
    return _max_abs(rebuilt - metric.lower(jet.grad[..., 0, :]), 1)


def maxwell_eom_from_dual(phi, x, metric: Metric) -> np.ndarray:
    """d_a F^{ab} for the dual-built F: an identity (zero for any phi)."""
    _, dF = field_strength_from_dual(phi, x, metric)
    return np.einsum("a,b,...aba->...b", metric.diag, metric.diag, dF)


def bianchi_pattern_residual(phi, x, metric: Metric):
    """Cyclic derivative sum of the dual F against its closed form
    eps_{bca} box phi (hand-worked symbol identity)."""
    jet = _dual_jet(phi, x, metric)
    _, dF = field_strength_from_dual(jet, x, metric)
    cyc = np.einsum("...bca->...abc", dF) + np.einsum("...cab->...abc", dF) + dF
    expected = np.einsum("bca->abc", levi_civita3()) * _lift(jet.box(metric)[..., 0], 3)
    return _max_abs(cyc - expected, 3)


def primary_rule_F(phi, x, sigma, metric: Metric) -> np.ndarray:
    """The pretend-primary conformal rule applied to the dual-built F."""
    F, dF = field_strength_from_dual(phi, x, metric)
    gen = sigma_basis_conformal(sigma, metric, 1.5, "field-strength")
    return variation(gen, F, dF, x, metric)


def _symbol_phi(jet: Jet, sigma, metric: Metric) -> np.ndarray:
    """eps_{ab}^sigma phi, the inhomogeneous term of the dual F variation."""
    eps = np.moveaxis(levi_civita3()[:, :, sigma], (0, 1), (-2, -1))
    return eps * _lift(metric.diag[sigma], 2) * _lift(jet.value[..., 0], 2)


def delta_bar_F(phi, x, sigma, metric: Metric) -> np.ndarray:
    """Conformal variation of F induced by the scalar-potential rule.

    Equals the pretend-primary rule plus the inhomogeneous eps_{ab}^sigma phi
    term, so F stays non-primary in the dual formulation as well.
    """
    jet = _dual_jet(phi, x, metric)
    return primary_rule_F(jet, x, sigma, metric) + _symbol_phi(jet, sigma, metric)


def delta_bar_F_chain_rule(phi, x, sigma, metric: Metric):
    """Independent route: the symbol contraction of the raised gradient of
    the scalar conformal variation (weight one half)."""
    jet = _dual_jet(phi, x, metric)
    gen = sigma_basis_conformal(sigma, metric, 0.5, "scalar")
    _, ddelta = delta_with_gradient(gen, jet, x, metric)
    d_up = metric.diag * ddelta[..., 0, :]
    return np.einsum("abm,...m->...ab", levi_civita3(), d_up)


def nonprimary_shift_residual(phi, x, sigma, metric: Metric):
    """delta-bar F minus the pretend-primary rule minus eps_{ab}^sigma phi."""
    jet = _dual_jet(phi, x, metric)
    shift = delta_bar_F_chain_rule(jet, x, sigma, metric) - primary_rule_F(jet, x, sigma, metric)
    return _max_abs(shift - _symbol_phi(jet, sigma, metric), 2)


def improved_stress_from_F(phi, x, metric: Metric) -> np.ndarray:
    """The improved, traceless stress tensor written through F and phi.

    -3/4 F^{ma} F^n_a + 1/4 g^{mn} F^2 - phi/16 (d^m W^n + d^n W^m) with
    W^n the symbol contraction of F.  Equals the scalar-form improved tensor
    when phi is on shell (their difference is proportional to box phi).
    """
    jet = _dual_jet(phi, x, metric)
    F, dF = field_strength_from_dual(jet, x, metric)
    f_up = _raise2(F, metric)
    mixed = metric.diag[:, None] * F  # F^n_a
    eps_up = levi_civita3_upper(metric)
    # dW[n, r] = d_r W^n, then raise r
    dW = np.einsum("nab,...abr->...nr", eps_up, dF)
    dW_up = dW * metric.diag[None, :]
    theta = -0.75 * np.einsum("...ma,...na->...mn", f_up, mixed)
    theta += 0.25 * np.diag(metric.diag) * _lift(_f_squared(F, metric), 2)
    theta -= _lift(jet.value[..., 0] / 16.0, 2) * (dW_up + np.swapaxes(dW_up, -1, -2))
    return theta


def improved_stress_scalar_form(phi, x, metric: Metric) -> np.ndarray:
    """The same tensor from the scalar side (canonical plus improvement)."""
    return improved_scalar_stress(_dual_jet(phi, x, metric), x, metric, coupling=0.0)


def duality_mismatch(A, phi, x, metric: Metric):
    """Diagnostic eps^{mab} d_a A_b - d^m phi.

    Carries no pass/fail contract: the relation between the two formulations
    is non-local and only special pairs satisfy it pointwise.
    """
    jet = _dual_jet(phi, x, metric)
    potential = as_jet(A, x)
    if potential.field.dim != 3:
        raise WrongDimension("vector potential must be three-dimensional")
    # grad[b, a] = d_a A_b
    curl = np.einsum("mab,...ba->...m", levi_civita3_upper(metric), potential.grad)
    return curl - metric.lower(jet.grad[..., 0, :])


def matched_plane_wave_pair(k, amplitude, phase, metric: Metric):
    """(phi, A) plane-wave pair satisfying the duality relation pointwise.

    Solves the algebraic cross-product condition for the polarisation; only
    null wave vectors admit a solution.  The least-squares residual is
    bounded relative to the largest entry of the right-hand side, so the test
    does not depend on the size of ``k``; a NaN residual fails it.  The
    amplitude must be finite and non-zero: a NaN pair would make every
    duality residual NaN, and a zero pair makes them vacuous.
    """
    _check_dim3(metric)
    k = metric._check(k)
    check_null(k, metric)
    if not (np.isfinite(amplitude) and amplitude != 0.0):
        raise OffShellParameters(f"the wave amplitude must be finite and non-zero, not {amplitude}")
    eps_up = levi_civita3_upper(metric)
    m = np.einsum("mab,a->mb", eps_up, metric.lower(k))
    rhs = float(amplitude) * k
    w_low = _lstsq(m, rhs)
    if not np.max(np.abs(_mm(m, w_low) - rhs)) <= 1e-10 * np.max(np.abs(rhs)):
        raise OffShellParameters("no polarisation solves the duality condition")
    phi = CosineMultiplet(k, [amplitude], phase, metric)
    A = CosineMultiplet(k, w_low, phase, metric)
    return phi, A
