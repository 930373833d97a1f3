"""Gamma matrices in 2..6 dimensions, spin matrices, and the reflection
identity that decouples spinor indices from finite conformal transformations.

Leading sample axis: ``GammaSet.slash_lower``, :func:`gamma_slash_unit` and
:func:`sandwich_identity_residual` take vectors of shape ``(..., D)`` and
return one result per sample, each bit for bit its single-point result, by
the rules stated in :mod:`confsym.geometry`: a per-point matrix product is a
stacked ``matmul`` and a sum over the vector index keeps its order, broadcast
over the samples.  A single vector is a stack with no sample axis.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DimensionMismatch, NonTimelikePoint, UnsupportedDimension
from .geometry import Metric, _ReadOnly, _lift, _max_abs, _mm, _reject, inversion_matrix

MIN_DIM = 2
MAX_DIM = 6

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


class GammaSet(_ReadOnly):
    """Gamma matrices satisfying {gamma^mu, gamma^nu} = 2 g^{mu nu} exactly.

    Holds read-only copies of the ``dim`` matrices and the spin matrices
    ``spins[mu, nu]``, built once from each index pair's two products.  A set
    is immutable, since :func:`build_gammas` shares one per dimension: its
    arrays cannot be written, and rebinding or deleting ``dim``, ``size``,
    ``matrices`` or ``spins`` raises AttributeError.
    """

    __slots__ = ("dim", "matrices", "size", "spins")

    def __init__(self, dim: int, matrices):
        dim = int(dim)
        matrices = tuple(np.array(m, dtype=complex) for m in matrices)
        if not matrices or len(matrices) != dim:
            raise DimensionMismatch(f"need {dim} gamma matrices, got {len(matrices)}")
        shape = matrices[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in matrices):
            raise DimensionMismatch("gamma matrices must be square and of one size")
        size = shape[0]
        spins = np.zeros((dim, dim, size, size), dtype=complex)
        for mu in range(dim):
            for nu in range(mu + 1, dim):
                forward = _mm(matrices[mu], matrices[nu])
                backward = _mm(matrices[nu], matrices[mu])
                spins[mu, nu] = 0.25 * (forward - backward)
                spins[nu, mu] = 0.25 * (backward - forward)
        for m in matrices + (spins,):
            m.flags.writeable = False
        self._bind(dim=dim, matrices=matrices, size=size, spins=spins)

    def __getitem__(self, mu: int) -> np.ndarray:
        return self.matrices[mu]

    def slash_lower(self, v_lower) -> np.ndarray:
        """Contraction v_mu gamma^mu for lower-index coefficient vectors
        ``(..., D)``, summed in index order."""
        v_lower = np.asarray(v_lower)
        out = np.zeros(v_lower.shape[:-1] + (self.size, self.size), dtype=complex)
        for mu in range(self.dim):
            out += _lift(v_lower[..., mu], 2) * self.matrices[mu]
        return out


@cache
def build_gammas(dim: int) -> GammaSet:
    """Recursive tensor-product construction of a gamma set for 2 <= D <= 6.

    Starting from the two-dimensional pair, odd dimensions append the
    normalised product of all matrices so far, and even dimensions tensor the
    set up one Pauli level.  Matrix size is 2^floor(D/2).  The set is built
    once per dimension and then shared: its arrays are read-only.
    """
    if not MIN_DIM <= dim <= MAX_DIM:
        raise UnsupportedDimension(f"gamma sets support {MIN_DIM} <= D <= {MAX_DIM}")
    gammas = [_SIGMA_X.copy(), -1.0j * _SIGMA_Y]
    while len(gammas) < dim:
        if len(gammas) % 2 == 0:
            prod = gammas[0]
            for m in gammas[1:]:
                prod = _mm(prod, m)
            square = _mm(prod, prod)
            # spatial matrices must square to -1
            if square[0, 0].real > 0:
                prod = 1.0j * prod
            gammas.append(prod)
        else:
            size = gammas[0].shape[0]
            gammas = [np.kron(_SIGMA_X, m) for m in gammas]
            gammas.append(np.kron(1.0j * _SIGMA_Y, np.eye(size, dtype=complex)))
    return GammaSet(dim, gammas)


def anticommutator_residual(gammas: GammaSet, metric: Metric) -> float:
    """Max-norm violation of the defining relation over all index pairs."""
    g = np.stack(gammas.matrices)
    acomm = _mm(g[:, None], g[None, :]) + _mm(g[None, :], g[:, None])
    target = 2.0 * _lift(np.diag(metric.diag), 2) * np.eye(gammas.size)
    return _max_abs(acomm - target, 4)


def gamma_slash_unit(x, gammas: GammaSet, metric: Metric) -> np.ndarray:
    """gamma_mu x^mu / sqrt(x^2); squares to the identity for timelike x."""
    x = metric._check(x)
    x2 = metric.norm2(x)
    _reject(x2 <= 0, x2, NonTimelikePoint, "x^2 = {} must be positive")
    return gammas.slash_lower(metric.diag * x / _lift(np.sqrt(x2)))


def sandwich_identity_residual(x, gammas: GammaSet, metric: Metric):
    """Residual of the reflection identity tying the slashed unit vector to
    the inversion matrix:  (slash x) gamma_mu (slash x) = -I_mu^nu gamma_nu,
    the largest entry over every mu.
    """
    slash = gamma_slash_unit(x, gammas, metric)[..., None, :, :]
    imat = inversion_matrix(x, metric)
    # axis -3 runs over mu
    lhs = _mm(_mm(slash, metric.diag[:, None, None] * np.stack(gammas.matrices)), slash)
    rhs = np.zeros_like(lhs)
    for nu in range(gammas.dim):
        rhs -= _lift(imat[..., :, nu] * metric.diag[nu], 2) * gammas[nu]
    return _max_abs(lhs - rhs, 3)
