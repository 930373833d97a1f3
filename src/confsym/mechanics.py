"""N-dimensional conformal mechanics: the inverse-square system obtained by
reducing the conformal scalar multiplet to a single time dimension.

The trajectory integrator is the one genuinely hot loop in the package: a
fixed-step RK4 kernel in plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularApproach, SingularConfiguration

MIN_RADIUS = 1e-6


@dataclass(frozen=True)
class MechParams:
    """Configuration-space dimension and the inverse-square coupling."""

    n: int
    coupling: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("configuration dimension must be >= 1")
        if self.coupling < 0:
            raise ValueError("attractive couplings (fall to the centre) are rejected")


@dataclass(frozen=True)
class MechState:
    """Phase-space point (t, q, p) with p the velocity conjugate."""

    t: float
    q: np.ndarray
    p: np.ndarray

    @staticmethod
    def make(t, q, p) -> "MechState":
        q = np.atleast_1d(np.asarray(q, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if q.shape != p.shape:
            raise ValueError("q and p must have the same shape")
        return MechState(float(t), q, p)


class ChargeTriple(NamedTuple):
    hamiltonian: float
    dilation: float
    conformal: float


def _q2(q, coupling):
    r2 = float(q @ q)
    if coupling > 0.0 and r2 == 0.0:
        raise SingularConfiguration("q = 0 sits on the potential singularity")
    return r2


def hamiltonian(state: MechState, params: MechParams) -> float:
    """H = p.p / 2 + coupling / q.q."""
    h = 0.5 * float(state.p @ state.p)
    if params.coupling:
        h += params.coupling / _q2(state.q, params.coupling)
    return h


def delta_scale_q(state: MechState) -> np.ndarray:
    """Dilation variation t q' - q / 2 (velocity read from p)."""
    return state.t * state.p - 0.5 * state.q


def delta_conformal_q(state: MechState) -> np.ndarray:
    """Conformal variation t^2 q' - t q."""
    return state.t**2 * state.p - state.t * state.q


def charges(state: MechState, params: MechParams) -> ChargeTriple:
    """Conserved charges of time translation, dilation and the conformal map.

    The dilation and conformal charges are the standard Noether charges of
    the two variations above; their conservation along the flow is derived by
    hand (d/dt of each vanishes using the equations of motion) and verified
    by the integrator tests.
    """
    h = hamiltonian(state, params)
    qp = float(state.q @ state.p)
    d = state.t * h - 0.5 * qp
    k = state.t**2 * h - state.t * qp + 0.5 * float(state.q @ state.q)
    return ChargeTriple(h, d, k)


def so21_bracket_residuals(state: MechState, params: MechParams) -> np.ndarray:
    """Deviation of the Poisson brackets of (H, D0, K0) from the hand-derived
    table {D0, H} = -H, {K0, H} = -2 D0, {D0, K0} = K0, with
    D0 = -q.p / 2 and K0 = q.q / 2 the charges at t = 0.
    """
    q, p, lam = state.q, state.p, params.coupling
    h = hamiltonian(MechState(0.0, q, p), params)
    d0 = -0.5 * float(q @ p)
    k0 = 0.5 * float(q @ q)

    if lam:
        r2 = _q2(q, lam)
        grad_q_h = -2.0 * lam * q / r2**2
    else:
        grad_q_h = np.zeros_like(q)
    grad_p_h = p
    grad_q_d0 = -0.5 * p
    grad_p_d0 = -0.5 * q
    grad_q_k0 = q
    grad_p_k0 = np.zeros_like(q)

    def pb(aq, ap, bq, bp):
        return float(aq @ bp - ap @ bq)

    res = np.array(
        [
            pb(grad_q_d0, grad_p_d0, grad_q_h, grad_p_h) + h,
            pb(grad_q_k0, grad_p_k0, grad_q_h, grad_p_h) + 2.0 * d0,
            pb(grad_q_d0, grad_p_d0, grad_q_k0, grad_p_k0) - k0,
        ]
    )
    return np.abs(res)


# ---------------------------------------------------------------------------
# trajectory integration (hot kernel)
# ---------------------------------------------------------------------------


def _rk4_core(q0, p0, lam, dt, nsteps, qs, ps, min_radius):
    """Classic fixed-step RK4 for q' = p, p' = 2 lam q / (q.q)^2.

    Fills ``qs``/``ps`` (shape (nsteps + 1, n)) and returns the number of
    completed steps; stops early when the radius drops below ``min_radius``
    with a repulsive coupling active.
    """
    q = q0.copy()
    p = p0.copy()
    qs[0] = q
    ps[0] = p
    sixth = dt / 6.0
    for i in range(nsteps):
        if lam > 0.0:
            r2 = (q * q).sum()
            if np.sqrt(r2) < min_radius:
                return i
            a1 = (2.0 * lam / (r2 * r2)) * q
        else:
            a1 = np.zeros_like(q)
        q2 = q + 0.5 * dt * p
        p2 = p + 0.5 * dt * a1
        if lam > 0.0:
            r2 = (q2 * q2).sum()
            a2 = (2.0 * lam / (r2 * r2)) * q2
        else:
            a2 = np.zeros_like(q)
        q3 = q + 0.5 * dt * p2
        p3 = p + 0.5 * dt * a2
        if lam > 0.0:
            r2 = (q3 * q3).sum()
            a3 = (2.0 * lam / (r2 * r2)) * q3
        else:
            a3 = np.zeros_like(q)
        q4 = q + dt * p3
        p4 = p + dt * a3
        if lam > 0.0:
            r2 = (q4 * q4).sum()
            a4 = (2.0 * lam / (r2 * r2)) * q4
        else:
            a4 = np.zeros_like(q)
        q = q + sixth * (p + 2.0 * p2 + 2.0 * p3 + p4)
        p = p + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        qs[i + 1] = q
        ps[i + 1] = p
    return nsteps


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory with per-sample conserved-charge series."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    params: MechParams

    def state(self, index: int) -> MechState:
        return MechState(float(self.times[index]), self.q[index], self.p[index])

    def charge_series(self) -> np.ndarray:
        """(n_samples, 3) array of (H, D, K) along the trajectory."""
        t = self.times
        lam = self.params.coupling
        h = 0.5 * np.einsum("in,in->i", self.p, self.p)
        if lam:
            h = h + lam / np.einsum("in,in->i", self.q, self.q)
        qp = np.einsum("in,in->i", self.q, self.p)
        q2 = np.einsum("in,in->i", self.q, self.q)
        d = t * h - 0.5 * qp
        k = t**2 * h - t * qp + 0.5 * q2
        return np.stack([h, d, k], axis=1)

    def charge_drift(self) -> np.ndarray:
        """Max absolute deviation of each charge from its initial value."""
        series = self.charge_series()
        return np.max(np.abs(series - series[0]), axis=0)


def integrate(
    state0: MechState, params: MechParams, t_end: float, step: float
) -> Trajectory:
    """Integrate the flow from ``state0`` to ``t_end`` at fixed ``step``."""
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end <= state0.t:
        raise ValueError("t_end must exceed the initial time")
    nsteps = int(round((t_end - state0.t) / step))
    q0 = np.asarray(state0.q, dtype=float)
    p0 = np.asarray(state0.p, dtype=float)
    if params.coupling > 0.0 and np.sqrt(q0 @ q0) < MIN_RADIUS:
        raise SingularConfiguration("initial point is inside the singular radius")
    qs = np.empty((nsteps + 1, q0.shape[0]))
    ps = np.empty_like(qs)
    done = _rk4_core(q0, p0, float(params.coupling), float(step), nsteps, qs, ps, MIN_RADIUS)
    if done < nsteps:
        raise SingularApproach(
            f"radius dropped below {MIN_RADIUS} after {done} steps "
            f"(t = {state0.t + done * step})"
        )
    times = state0.t + step * np.arange(nsteps + 1)
    return Trajectory(times, qs, ps, params)


def dump_trajectory(traj: Trajectory, stream) -> None:
    """Write the delimited text dump: t, q components, p components, H, D, K."""
    series = traj.charge_series()
    n = traj.q.shape[1]
    header = ["t"]
    header += [f"q{i}" for i in range(n)]
    header += [f"p{i}" for i in range(n)]
    header += ["H", "D", "K"]
    stream.write("# " + " ".join(header) + "\n")
    for i in range(traj.times.shape[0]):
        row = [traj.times[i], *traj.q[i], *traj.p[i], *series[i]]
        stream.write(" ".join(f"{v:.17g}" for v in row) + "\n")
