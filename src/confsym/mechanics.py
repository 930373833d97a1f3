"""N-dimensional conformal mechanics: the inverse-square system obtained by
reducing the conformal scalar multiplet to a single time dimension.

The trajectory integrator is the one genuinely hot loop in the package: a
fixed-step RK4 kernel in plain numpy that steps one trajectory or, for
``integrate_many``, a whole ensemble per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularApproach, SingularConfiguration

MIN_RADIUS = 1e-6
_DUMP_ROWS = 4096  # rows formatted per write, which bounds the dump's memory


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


def initial_state(mech: dict, n: int) -> MechState:
    """Start of a spec's trajectories at t = 0: ``q0`` from its [mechanics]
    section with ``p0`` (zeros when absent), else the default point with ``n``
    components."""
    if "q0" in mech:
        q0 = np.asarray(mech["q0"], dtype=float)
        return MechState.make(0.0, q0, mech.get("p0", np.zeros_like(q0)))
    return MechState.make(0.0, 1.2 * np.ones(n), 0.3 * (-1.0) ** np.arange(n))


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

    The state is components first: ``q0``/``p0`` have shape (n,) for one
    trajectory or (n, B) for an ensemble of B members stepped together, and
    ``lam`` is a float or has shape (B,).  Either every member is repulsive
    (``lam > 0``) or the call is free (``lam == 0.0``) and never evaluates
    the force, so a free member may pass through q = 0.  ``r2`` reduces the
    component axis, which numpy sums left to right for fewer than eight
    components on either layout, so each member of an ensemble matches its
    own one-trajectory run bit for bit (zero-padded components add +0.0).

    Fills ``qs``/``ps`` (shape (nsteps + 1,) + q0.shape) and returns the
    number of completed steps; stops early when the radius of any member
    drops below ``min_radius`` with a repulsive coupling active.
    """
    q = q0.copy()
    p = p0.copy()
    qs[0] = q
    ps[0] = p
    half = 0.5 * dt
    sixth = dt / 6.0
    repulsive = bool(np.any(lam > 0.0))
    two_lam = 2.0 * lam
    zero = np.zeros_like(q)
    a1 = a2 = a3 = a4 = zero
    # the stop test is a numpy bool for one trajectory (``.any()`` on it would
    # cost a reduction per step) and an array over an ensemble
    inside = bool if q.ndim == 1 else np.count_nonzero
    for i in range(nsteps):
        if repulsive:
            r2 = np.add.reduce(q * q, 0)
            if inside(np.sqrt(r2) < min_radius):
                return i
            a1 = (two_lam / (r2 * r2)) * q
        q2 = q + half * p
        p2 = p + half * a1
        if repulsive:
            r2 = np.add.reduce(q2 * q2, 0)
            a2 = (two_lam / (r2 * r2)) * q2
        q3 = q + half * p2
        p3 = p + half * a2
        if repulsive:
            r2 = np.add.reduce(q3 * q3, 0)
            a3 = (two_lam / (r2 * r2)) * q3
        q4 = q + dt * p3
        p4 = p + dt * a3
        if repulsive:
            r2 = np.add.reduce(q4 * q4, 0)
            a4 = (two_lam / (r2 * r2)) * q4
        q = np.add(q, sixth * (p + 2.0 * p2 + 2.0 * p3 + p4), out=qs[i + 1])
        p = np.add(p, sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4), out=ps[i + 1])
    return nsteps


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory with per-sample conserved-charge series."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    params: MechParams

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


def _start(state0: MechState, params: MechParams, t_end: float, step: float):
    """Step count and initial arrays of one trajectory, after the argument and
    singular-start checks."""
    if step <= 0:
        raise ValueError("step must be positive")
    nsteps = int(round((t_end - state0.t) / step))
    if nsteps < 1:
        raise ValueError("t_end must lie at least half a step past the initial time")
    q0 = np.asarray(state0.q, dtype=float)
    p0 = np.asarray(state0.p, dtype=float)
    if params.coupling > 0.0 and np.sqrt(q0 @ q0) < MIN_RADIUS:
        raise SingularConfiguration("initial point is inside the singular radius")
    return nsteps, q0, p0


def _approach(t0: float, done: int, step: float) -> SingularApproach:
    return SingularApproach(
        f"radius dropped below {MIN_RADIUS} after {done} steps (t = {t0 + done * step})"
    )


def integrate(
    state0: MechState, params: MechParams, t_end: float, step: float
) -> Trajectory:
    """Integrate the flow from ``state0`` to ``t_end`` at fixed ``step``."""
    nsteps, q0, p0 = _start(state0, params, t_end, step)
    qs = np.empty((nsteps + 1, q0.shape[0]))
    ps = np.empty_like(qs)
    done = _rk4_core(q0, p0, float(params.coupling), float(step), nsteps, qs, ps, MIN_RADIUS)
    if done < nsteps:
        raise _approach(state0.t, done, step)
    times = state0.t + step * np.arange(nsteps + 1)
    return Trajectory(times, qs, ps, params)


# numpy sums eight or more terms pairwise along a 1-D axis but left to right
# down axis 0, so states this wide step alone to keep their one-trajectory bits
_PAIRWISE_MIN = 8


def integrate_many(states, params_list, t_end: float, step: float) -> list:
    """Integrate an ensemble of trajectories that share their start time.

    Returns what ``[integrate(s, p, t_end, step) for s, p in ...]`` returns,
    bit for bit.  Every member's arguments and start are checked, in member
    order, before any member is integrated; a member that then comes inside
    the singular radius stops its kernel call, which raises that call's first
    stop.  The free members are stepped together in one kernel call and the
    repulsive ones in another, each zero-padded to the widest state of its
    call; a lone member, or a state of eight or more components, is the 1-D
    case.
    """
    states, params_list = list(states), list(params_list)
    if len(states) != len(params_list):
        raise ValueError("one MechParams per state")
    if len({s.t for s in states}) > 1:
        raise ValueError("ensemble members must share their start time")
    starts = [_start(state0, params, t_end, step) for state0, params in zip(states, params_list)]
    if len(states) < 2 or max(np.size(s.q) for s in states) >= _PAIRWISE_MIN:
        return [integrate(s, p, t_end, step) for s, p in zip(states, params_list)]
    nsteps = starts[0][0]
    times = states[0].t + step * np.arange(nsteps + 1)
    lam = np.array([params.coupling for params in params_list])
    free = lam == 0.0
    trajs = [None] * len(starts)
    for members, coupling in ((np.flatnonzero(free), 0.0), (np.flatnonzero(~free), lam[~free])):
        if members.size == 0:
            continue
        width = max(starts[j][1].shape[0] for j in members)
        q0s = np.zeros((width, members.size))
        p0s = np.zeros_like(q0s)
        for col, j in enumerate(members):
            _, q0, p0 = starts[j]
            q0s[: q0.shape[0], col] = q0
            p0s[: p0.shape[0], col] = p0
        qs = np.empty((nsteps + 1,) + q0s.shape)
        ps = np.empty_like(qs)
        done = _rk4_core(q0s, p0s, coupling, float(step), nsteps, qs, ps, MIN_RADIUS)
        if done < nsteps:
            raise _approach(states[0].t, done, step)
        for col, j in enumerate(members):
            n = starts[j][1].shape[0]
            trajs[j] = Trajectory(
                times,
                np.ascontiguousarray(qs[:, :n, col]),
                np.ascontiguousarray(ps[:, :n, col]),
                params_list[j],
            )
    return trajs


def dump_trajectory(traj: Trajectory, stream) -> None:
    """Write the delimited text dump: t, q components, p components, H, D, K."""
    table = np.column_stack([traj.times, traj.q, traj.p, traj.charge_series()])
    n = traj.q.shape[1]
    header = ["t"]
    header += [f"q{i}" for i in range(n)]
    header += [f"p{i}" for i in range(n)]
    header += ["H", "D", "K"]
    stream.write("# " + " ".join(header) + "\n")
    row = " ".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], _DUMP_ROWS):
        stream.write("".join([row % tuple(r) for r in table[start : start + _DUMP_ROWS].tolist()]))
