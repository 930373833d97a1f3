"""N-dimensional conformal mechanics: the inverse-square system obtained by
reducing the conformal scalar multiplet to a single time dimension.

The trajectory integrator is the one genuinely hot loop in the package: a
fixed-step RK4 kernel in float arithmetic, generated per component count,
free or repulsive, and unrolled over the components and over blocks of
``_BLOCK`` steps, that steps one trajectory at a time and appends a block's
rows in one call.  Its radius test compares q.q with the least double whose
sqrt reaches the radius, which stops exactly where the sqrt test stops, with
no sqrt per stage.

A :class:`MechState` is one state or a stack of them, and the charges and
variations follow the sample-axis contract of :mod:`confsym.geometry`: one
result per state of a stack, each with its single-state bits, and a single
state is a stack with no sample axis.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import SingularApproach, SingularConfiguration
from .geometry import _inner, _lift, _reject

MIN_RADIUS = 1e-6
MAX_STEPS = 10**7  # longest trajectory; its rows are held in memory
_DUMP_ROWS = 4096  # rows formatted per write, which bounds the dump's memory
_BLOCK = 4  # RK4 steps per pass of the kernel's main loop, appended in one call


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
    """Phase-space point (t, q, p) with p the velocity conjugate: a 0-d t
    and (n,) q and p, or a stack of N states, t (N,) and q and p (N, n)."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray

    @staticmethod
    def make(t, q, p) -> "MechState":
        t = np.asarray(t, dtype=float)
        q = np.atleast_1d(np.asarray(q, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if q.shape != p.shape or q.shape[:-1] != t.shape:
            raise ValueError("q and p must have the same shape, one row per time")
        return MechState(t, q, p)


def initial_state(mech: dict, n: int) -> MechState:
    """Start of a spec's trajectories at t = 0: ``q0`` from its [mechanics]
    section with ``p0`` (zeros when absent), else the default point with ``n``
    components."""
    if "q0" in mech:
        q0 = np.asarray(mech["q0"], dtype=float)
        return MechState.make(0.0, q0, mech.get("p0", np.zeros_like(q0)))
    return MechState.make(0.0, 1.2 * np.ones(n), 0.3 * (-1.0) ** np.arange(n))


def _q2(q, coupling):
    """q.q, one value per state of a stack; raises for the first coupled
    state at q = 0."""
    r2 = _inner(q, q)
    if coupling > 0.0:
        _reject(r2 == 0.0, r2, SingularConfiguration, "q = 0 sits on the potential singularity")
    return r2


def hamiltonian(state: MechState, params: MechParams):
    """H = p.p / 2 + coupling / q.q."""
    h = 0.5 * _inner(state.p, state.p)
    if params.coupling:
        h += params.coupling / _q2(state.q, params.coupling)
    return h


def delta_scale_q(state: MechState) -> np.ndarray:
    """Dilation variation t q' - q / 2 (velocity read from p)."""
    return _lift(state.t) * state.p - 0.5 * state.q


def delta_conformal_q(state: MechState) -> np.ndarray:
    """Conformal variation t^2 q' - t q."""
    return _lift(np.float_power(state.t, 2)) * state.p - _lift(state.t) * state.q


def so21_bracket_residuals(state: MechState, params: MechParams) -> np.ndarray:
    """Deviation of the Poisson brackets of (H, D0, K0) from the hand-derived
    table {D0, H} = -H, {K0, H} = -2 D0, {D0, K0} = K0, with
    D0 = -q.p / 2 and K0 = q.q / 2 the charges at t = 0 (``state.t`` is not
    read): shape (3,), or (N, 3) for a stack.
    """
    q, p, lam = state.q, state.p, params.coupling
    h = hamiltonian(state, params)
    d0 = -0.5 * _inner(q, p)
    k0 = 0.5 * _inner(q, q)

    if lam:
        r2 = _q2(q, lam)
        grad_q_h = -2.0 * lam * q / _lift(np.float_power(r2, 2))
    else:
        grad_q_h = np.zeros_like(q)
    grad_p_h = p
    grad_q_d0 = -0.5 * p
    grad_p_d0 = -0.5 * q
    grad_q_k0 = q
    grad_p_k0 = np.zeros_like(q)

    def pb(aq, ap, bq, bp):
        return _inner(aq, bp) - _inner(ap, bq)

    res = np.stack(
        [
            pb(grad_q_d0, grad_p_d0, grad_q_h, grad_p_h) + h,
            pb(grad_q_k0, grad_p_k0, grad_q_h, grad_p_h) + 2.0 * d0,
            pb(grad_q_d0, grad_p_d0, grad_q_k0, grad_p_k0) - k0,
        ],
        axis=-1,
    )
    return np.abs(res)


# ---------------------------------------------------------------------------
# trajectory integration (hot kernel)
# ---------------------------------------------------------------------------


def _sum_source(terms: list) -> str:
    """Source that adds ``terms`` in ``np.add.reduce``'s order along a 1-D
    array: left to right below eight terms, eight pairwise accumulators up to
    128, and above that two halves split on a multiple of eight."""
    n = len(terms)
    if n < 8:
        return " + ".join(terms)
    if n <= 128:
        m = n - n % 8
        a = ["(" + " + ".join(terms[j:m:8]) + ")" for j in range(8)]
        blocks = f"((({a[0]} + {a[1]}) + ({a[2]} + {a[3]})) + (({a[4]} + {a[5]}) + ({a[6]} + {a[7]})))"
        return " + ".join([blocks] + terms[m:])
    half = n // 2 - (n // 2) % 8
    return f"({_sum_source(terms[:half])}) + ({_sum_source(terms[half:])})"


@functools.cache
def _kernel(n: int, repulsive: bool):
    """The RK4 loop for ``n`` components, unrolled over them and over blocks
    of ``_BLOCK`` steps in float arithmetic, compiled on first use (see
    ``_rk4_core``).  Row ``j`` of a block is ``(r{j}q_*, r{j}p_*)``; its last
    step writes row 0, the first of the next block.  A free loop has no
    force and no radius test; its zero forces still reach p, as they do in
    numpy's step."""

    def each(template):
        return "; ".join(template.format(k=k) for k in range(n))

    def row(j):
        return ", ".join([f"r{j}q_{k}" for k in range(n)] + [f"r{j}p_{k}" for k in range(n)])

    def step(j, to, stop):
        """One step from row ``j`` to row ``to``; a stage inside the radius
        runs ``stop``."""
        q, p = f"r{j}q", f"r{j}p"

        def force(a, at):
            if not repulsive:
                return []
            r2 = _sum_source([f"{at}_{k} * {at}_{k}" for k in range(n)])
            return [
                f"r2 = {r2}", "if r2 < min_r2:", f"    {stop}",
                "f = two_lam / (r2 * r2); " + each(f"{a}_{{k}} = f * {at}_{{k}}"),
            ]

        return [
            *force("a1", q),
            each(f"q2_{{k}} = {q}_{{k}} + half * {p}_{{k}}; p2_{{k}} = {p}_{{k}} + half * a1_{{k}}"),
            *force("a2", "q2"),
            each(f"q3_{{k}} = {q}_{{k}} + half * p2_{{k}}; p3_{{k}} = {p}_{{k}} + half * a2_{{k}}"),
            *force("a3", "q3"),
            each(f"q4_{{k}} = {q}_{{k}} + dt * p3_{{k}}; p4_{{k}} = {p}_{{k}} + dt * a3_{{k}}"),
            *force("a4", "q4"),
            each(f"r{to}q_{{k}} = {q}_{{k}} + sixth * ({p}_{{k}} + 2.0 * p2_{{k}} + 2.0 * p3_{{k}} + p4_{{k}})"),
            each(f"r{to}p_{{k}} = {p}_{{k}} + sixth * (a1_{{k}} + 2.0 * a2_{{k}} + 2.0 * a3_{{k}} + a4_{{k}})"),
        ]

    def stop(j):
        """A stop at step ``j`` of a block, which first appends the rows of
        the block's finished steps."""
        return f"extend(({', '.join(row(i) for i in range(1, j + 1))})); return i + {j}" if j else "return i"

    def body(lines):
        return "\n        ".join(lines)

    block = [line for j in range(_BLOCK) for line in step(j, (j + 1) % _BLOCK, stop(j))]
    source = f"""
def rk4(q0, p0, two_lam, half, dt, sixth, nsteps, min_r2, extend):
    {each("r0q_{k} = q0[{k}]; r0p_{k} = p0[{k}]; a1_{k} = a2_{k} = a3_{k} = a4_{k} = 0.0")}
    extend(({row(0)}))
    blocked = nsteps - nsteps % {_BLOCK}
    for i in range(0, blocked, {_BLOCK}):
        {body(block)}
        extend(({", ".join(row((j + 1) % _BLOCK) for j in range(_BLOCK))}))
    for i in range(blocked, nsteps):
        {body(step(0, 0, "return i"))}
        extend(({row(0)}))
    return nsteps
"""
    namespace = {}
    exec(compile(source, f"<rk4 kernel, n = {n}, repulsive = {repulsive}>", "exec"), namespace)
    return namespace["rk4"]


def _min_r2(min_radius: float) -> float:
    """The least double whose ``math.sqrt`` is at least ``min_radius`` (a
    positive float).  sqrt is correctly rounded and monotone, so
    ``r2 < _min_r2(min_radius)`` is ``sqrt(r2) < min_radius`` on every double
    r2, 0, inf and NaN included."""
    if not min_radius > 0.0:
        raise ValueError("min_radius must be positive")
    r2 = min_radius * min_radius
    while r2 > 0.0 and math.sqrt(r2) >= min_radius:
        r2 = math.nextafter(r2, 0.0)
    while math.sqrt(r2) < min_radius:
        r2 = math.nextafter(r2, math.inf)
    return r2


def _rk4_core(q0, p0, lam, dt, nsteps, min_radius):
    """Classic fixed-step RK4 for q' = p, p' = 2 lam q / (q.q)^2 from the
    (n,) start ``q0``, ``p0``.

    Returns the completed steps ``done`` and the (done + 1, n) rows of q and
    of p.  A free call (``lam == 0.0``) never evaluates the force, so it may
    pass through q = 0; a repulsive one stops when the radius at any of a
    step's four stages is below ``min_radius`` (> 0), so the force never
    divides by zero.  The kernel does numpy's float64 operations in numpy's
    order, ``r2`` included, so a trajectory keeps the bits of an array-wise
    RK4 step; it tests ``r2`` against ``_min_r2(min_radius)``, which stops
    where the radius test stops.
    """
    n = q0.shape[0]
    rows = array("d")
    done = _kernel(n, lam > 0.0)(
        q0.tolist(), p0.tolist(), 2.0 * lam, 0.5 * dt, dt, dt / 6.0, nsteps, _min_r2(min_radius), rows.extend
    )
    rows = np.frombuffer(rows).reshape(done + 1, 2 * n)
    return done, np.ascontiguousarray(rows[:, :n]), np.ascontiguousarray(rows[:, n:])


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory with per-sample conserved-charge series."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    params: MechParams

    def charge_series(self) -> np.ndarray:
        """(n_samples, 3) read-only array of (H, D, K) along the trajectory,
        computed on first use, so the drift and the dump share it."""
        return self._charges

    @functools.cached_property
    def _charges(self) -> np.ndarray:
        t = self.times
        lam = self.params.coupling
        h = 0.5 * np.einsum("in,in->i", self.p, self.p)
        if lam:
            h = h + lam / np.einsum("in,in->i", self.q, self.q)
        qp = np.einsum("in,in->i", self.q, self.p)
        q2 = np.einsum("in,in->i", self.q, self.q)
        d = t * h - 0.5 * qp
        k = t**2 * h - t * qp + 0.5 * q2
        series = np.stack([h, d, k], axis=1)
        series.flags.writeable = False
        return series

    def charge_drift(self) -> np.ndarray:
        """Max absolute deviation of each charge from its initial value."""
        series = self.charge_series()
        return np.max(np.abs(series - series[0]), axis=0)


def _start(state0: MechState, params: MechParams, t_end: float, step: float):
    """Step count, start time and initial arrays of one trajectory, after the
    argument and singular-start checks.  The start time is a Python float, so
    a step count that overflows is inf, not a numpy overflow warning."""
    if step <= 0:
        raise ValueError("step must be positive")
    t0 = float(state0.t)
    steps = (t_end - t0) / step
    if steps > MAX_STEPS:
        raise ValueError(f"a trajectory takes at most {MAX_STEPS} steps")
    nsteps = int(round(steps))
    if nsteps < 1:
        raise ValueError("t_end must lie at least half a step past the initial time")
    q0 = np.asarray(state0.q, dtype=float)
    p0 = np.asarray(state0.p, dtype=float)
    if params.coupling > 0.0 and np.sqrt(q0 @ q0) < MIN_RADIUS:
        raise SingularConfiguration("initial point is inside the singular radius")
    return nsteps, t0, q0, p0


def integrate(
    state0: MechState, params: MechParams, t_end: float, step: float
) -> Trajectory:
    """Integrate the flow from ``state0`` to ``t_end`` at fixed ``step``;
    raises ``SingularApproach`` when it comes inside the singular radius."""
    nsteps, t0, q0, p0 = _start(state0, params, t_end, step)
    done, qs, ps = _rk4_core(q0, p0, float(params.coupling), float(step), nsteps, MIN_RADIUS)
    if done < nsteps:
        raise SingularApproach(
            f"radius dropped below {MIN_RADIUS} after {done} steps (t = {t0 + done * step})"
        )
    return Trajectory(t0 + step * np.arange(nsteps + 1), qs, ps, params)


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
        block = table[start : start + _DUMP_ROWS]
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))
