"""N-dimensional conformal mechanics: the inverse-square system obtained by
reducing the conformal scalar multiplet to a single time dimension.

A trajectory costs two passes over its rows.  A repulsive one runs a
fixed-step RK4 kernel in float arithmetic, generated per component count
and unrolled over the components and over blocks of ``_BLOCK`` steps, that
steps one trajectory at a time and writes a block's rows as raw float64
bytes with one ``struct`` pack.  Its radius test compares q.q with the
least double whose sqrt reaches the radius, which stops exactly where the
sqrt test stops, with no sqrt per stage.  A free one has RK4's rows in
closed form: with no force, p is constant after one step and q gains the
same increment every step, so one ``np.add.accumulate`` adds them with the
step loop's bits.  The dump writes every value as C's ``%.17g`` through
:func:`_g17`, which decides the 17 digits exactly in array arithmetic and
lays out the text in fixed byte columns, with Python's ``%`` only for the
values outside its range.

A :class:`MechState` is one state or a stack of them, and the charges and
variations follow the sample-axis contract of :mod:`confsym.geometry`: one
result per state of a stack, each with its single-state bits, and a single
state is a stack with no sample axis.  :func:`charges` is the one kernel of
the SO(2,1) charges H, D and K; the trajectory's series and the bracket
table read it, and a trajectory row has the bits of its state alone.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import SingularApproach, SingularConfiguration
from .geometry import _ReadOnly, _lift, _mm, _reject

MIN_RADIUS = 1e-6
MAX_STEPS = 10**7  # longest trajectory; its rows are held in memory
_DUMP_VALUES = 4096  # values formatted per write: bounds the dump's memory, keeps its arrays cache-sized
_BLOCK = 4  # RK4 steps per pass of the kernel's main loop, appended in one call


class MechParams(_ReadOnly):
    """Configuration-space dimension and the inverse-square coupling."""

    def __init__(self, n: int, coupling: float = 0.0):
        if n < 1:
            raise ValueError("configuration dimension must be >= 1")
        if not 0.0 <= coupling < math.inf:
            raise ValueError("the coupling must be finite and non-negative: attractive ones fall to the centre")
        self._bind(n=n, coupling=coupling)


class MechState(_ReadOnly):
    """Phase-space point (t, q, p) with p the velocity conjugate: a 0-d t
    and (n,) q and p, or a stack of N states, t (N,) and q and p (N, n)."""

    def __init__(self, t: np.ndarray, q: np.ndarray, p: np.ndarray):
        self._bind(t=t, q=q, p=p)

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


def _dot(a, b):
    """a . b over the last axis, one value per state of a stack."""
    return np.einsum("...n,...n->...", a, b)


def charges(state: MechState, params: MechParams):
    """(H, D, K) at ``state.t``, one value per state: H = p.p / 2 + coupling / q.q,
    D = t H - q.p / 2 and K = t^2 H - t q.p + q.q / 2.  A coupled state at
    q = 0 raises, the first of a stack."""
    t, q, p, lam = state.t, state.q, state.p, params.coupling
    q2 = _dot(q, q)
    h = 0.5 * _dot(p, p)
    if lam:
        _reject(q2 == 0.0, q2, SingularConfiguration, "q = 0 sits on the potential singularity")
        h = h + lam / q2
    qp = _dot(q, p)
    return h, t * h - 0.5 * qp, t**2 * h - t * qp + 0.5 * q2


def delta_scale_q(state: MechState) -> np.ndarray:
    """Dilation variation t q' - q / 2 (velocity read from p)."""
    return _lift(state.t) * state.p - 0.5 * state.q


def delta_conformal_q(state: MechState) -> np.ndarray:
    """Conformal variation t^2 q' - t q."""
    return _lift(np.float_power(state.t, 2)) * state.p - _lift(state.t) * state.q


def so21_bracket_residuals(state: MechState, params: MechParams) -> np.ndarray:
    """Deviation of the Poisson brackets of (H, D0, K0), the :func:`charges`
    of (q, p) at t = 0 (``state.t`` is not read), from the hand-derived
    table {D0, H} = -H, {K0, H} = -2 D0, {D0, K0} = K0: shape (3,), or
    (N, 3) for a stack.  The gradients are written by hand from H and the
    t = 0 forms D0 = -q.p / 2 and K0 = q.q / 2.
    """
    q, p, lam = state.q, state.p, params.coupling
    h, d0, k0 = charges(MechState(np.zeros(q.shape[:-1]), q, p), params)
    # each charge's (d/dq, d/dp)
    grad_h = (-2.0 * lam * q / _lift(np.float_power(_dot(q, q), 2)) if lam else np.zeros_like(q), p)
    grad_d0 = (-0.5 * p, -0.5 * q)
    grad_k0 = (q, np.zeros_like(q))

    def pb(a, b):
        return _dot(a[0], b[1]) - _dot(a[1], b[0])

    return np.abs(np.stack([pb(grad_d0, grad_h) + h, pb(grad_k0, grad_h) + 2.0 * d0, pb(grad_d0, grad_k0) - k0], -1))


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
def _kernel(n: int):
    """The repulsive RK4 loop for ``n`` components, unrolled over them and
    over blocks of ``_BLOCK`` steps in float arithmetic, compiled on first
    use (see ``_rk4_core``).  Row ``j`` of a block is ``(r{j}q_*, r{j}p_*)``;
    its last step writes row 0, the first of the next block.  ``pack{j}``
    packs ``j`` finished rows as native doubles, which copies each value's
    bits, -0.0, inf and NaN included, and ``extend`` appends those bytes."""

    def each(template):
        return "; ".join(template.format(k=k) for k in range(n))

    def row(j):
        return ", ".join([f"r{j}q_{k}" for k in range(n)] + [f"r{j}p_{k}" for k in range(n)])

    def step(j, to, stop):
        """One step from row ``j`` to row ``to``; a stage inside the radius
        runs ``stop``."""
        q, p = f"r{j}q", f"r{j}p"

        def force(a, at):
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
        return f"extend(pack{j}({', '.join(row(i) for i in range(1, j + 1))})); return i + {j}" if j else "return i"

    def body(lines):
        return "\n        ".join(lines)

    block = [line for j in range(_BLOCK) for line in step(j, (j + 1) % _BLOCK, stop(j))]
    source = f"""
def rk4(q0, p0, two_lam, half, dt, sixth, nsteps, min_r2, extend):
    {each("r0q_{k} = q0[{k}]; r0p_{k} = p0[{k}]")}
    extend(pack1({row(0)}))
    blocked = nsteps - nsteps % {_BLOCK}
    for i in range(0, blocked, {_BLOCK}):
        {body(block)}
        extend(pack{_BLOCK}({", ".join(row((j + 1) % _BLOCK) for j in range(_BLOCK))}))
    for i in range(blocked, nsteps):
        {body(step(0, 0, "return i"))}
        extend(pack1({row(0)}))
    return nsteps
"""
    namespace = {f"pack{j}": struct.Struct(f"{2 * n * j}d").pack for j in range(1, _BLOCK + 1)}
    exec(compile(source, f"<rk4 kernel, n = {n}>", "exec"), namespace)
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
    (n,) start ``q0``, ``p0``, with the bits of an array-wise numpy step.

    Returns the completed steps ``done`` and the (done + 1, n) rows of q and
    of p.  A repulsive call (``lam > 0.0``) runs the kernel, which writes its
    rows as float64 bytes into a ``bytearray`` that ``np.frombuffer`` reads
    back.  The kernel does numpy's float64 operations in numpy's order,
    ``r2`` included; it stops when the radius at any of a step's four
    stages is below ``min_radius`` (> 0), tested as
    ``r2 < _min_r2(min_radius)``, so the force never divides by zero.  Any
    other call is free and never evaluates the force, so it may pass
    through q = 0.  With dt > 0 finite its forces are +0.0, so every
    stage's p and the new p are ``p + 0.0``: after one step p is constant
    and q gains the same increment every step, which ``np.add.accumulate``
    adds left to right, as the loop does.
    """
    if lam > 0.0:
        n = q0.shape[0]
        rows = bytearray()
        done = _kernel(n)(
            q0.tolist(), p0.tolist(), 2.0 * lam, 0.5 * dt, dt, dt / 6.0, nsteps, _min_r2(min_radius), rows.extend
        )
        rows = np.frombuffer(rows).reshape(done + 1, 2 * n)
        return done, np.ascontiguousarray(rows[:, :n]), np.ascontiguousarray(rows[:, n:])
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):  # float arithmetic never warns
        p = p0 + 0.0
        qs = np.empty((nsteps + 1, q0.shape[0]))
        qs[0], qs[1], qs[2:] = q0, sixth * (p0 + 2.0 * p + 2.0 * p + p), sixth * (p + 2.0 * p + 2.0 * p + p)
        np.add.accumulate(qs, axis=0, out=qs)
    ps = np.empty_like(qs)
    ps[0], ps[1:] = p0, p
    return nsteps, qs, ps


class Trajectory(_ReadOnly):
    """Fixed-step trajectory with per-sample conserved-charge series."""

    def __init__(self, times: np.ndarray, q: np.ndarray, p: np.ndarray, params: MechParams):
        self._bind(times=times, q=q, p=p, params=params)

    def charge_series(self) -> np.ndarray:
        """(n_samples, 3) read-only array of the :func:`charges` (H, D, K)
        along the trajectory, computed on first use, so the drift and the
        dump share it."""
        return self._charges

    @functools.cached_property
    def _charges(self) -> np.ndarray:
        series = np.stack(charges(MechState(self.times, self.q, self.p), self.params), axis=1)
        series.flags.writeable = False
        return series

    def charge_drift(self) -> np.ndarray:
        """Max absolute deviation of each charge from its initial value,
        reduced one charge column at a time: a reduction over the series'
        3-wide rows takes numpy's slow path, about ten times slower."""
        return np.array([np.max(np.abs(column - column[0])) for column in self.charge_series().T])


def _start(state0: MechState, params: MechParams, t_end: float, step: float):
    """Step count, start time and initial arrays of one trajectory, after the
    argument and singular-start checks.  The start time is a Python float, so
    a step count that overflows is inf, not a numpy overflow warning."""
    if not step > 0:
        raise ValueError("step must be positive")
    t0 = float(state0.t)
    steps = (t_end - t0) / step
    if steps > MAX_STEPS:
        raise ValueError(f"a trajectory takes at most {MAX_STEPS} steps")
    if not math.isfinite(steps):
        raise ValueError("t_end and the initial time must be finite")
    nsteps = int(round(steps))
    if nsteps < 1:
        raise ValueError("t_end must lie at least half a step past the initial time")
    q0 = np.asarray(state0.q, dtype=float)
    p0 = np.asarray(state0.p, dtype=float)
    if not (np.isfinite(q0).all() and np.isfinite(p0).all()):
        raise ValueError("the initial q and p must be finite")
    if params.coupling > 0.0 and np.sqrt(_mm(q0, q0)) < MIN_RADIUS:
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


# ---------------------------------------------------------------------------
# trajectory dump: C's %.17g at array speed
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant for binary64


def _split(a):
    """Veltkamp's split ``a = high + low``, each half at most 26 bits wide, so
    a product of halves is exact."""
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


@functools.cache
def _g17_tables():
    """Tables of :func:`_g17`, built on first use.

    ``digits[n]`` holds the four ASCII digits of n < 10^4 in its low bytes
    and above them 64 plus the place (1 to 4) of n's last non-zero digit,
    or 52 for n = 0.  ``tens[:, s]`` is 10^s = hi + lo exactly, s = 0..46,
    with hi split.  Row ``17 (X + 30) + last`` of ``lower``, ``upper`` and
    ``text`` serves the values of decimal exponent X = -30..16 whose digits
    after digit ``last`` (0..16) are zeros: per word of the slot, the masks
    of the digits before and after the point, and the point, ``e-NN`` and a
    space.
    """
    n = np.arange(10000, dtype=np.uint64)
    d = [n // 1000, n // 100 % 10, n // 10 % 10, n % 10]
    place = np.select([d[3] > 0, d[2] > 0, d[1] > 0, d[0] > 0], [68, 67, 66, 65], 52).astype(np.uint64)
    digits = 0x30303030 + d[0] + (d[1] << 8) + (d[2] << 16) + (d[3] << 24) + (place << 32)
    hi = np.array([float(10**s) for s in range(47)])
    lo = [float(10**s - int(h)) for s, h in zip(range(47), hi)]
    tens = np.stack([hi, *_split(hi), lo])
    x = np.arange(-30, 17)[:, None, None]
    z = 4 + np.arange(17)[:, None]  # the last non-zero digit in "0000" + digits
    pos = np.arange(32, dtype=np.int8)
    point = np.where(x < -4, 4, 4 + x)  # the digit the point follows
    frac = z > point
    end = np.where(frac, z + 2, point + 1)
    lower = (pos > np.minimum(point, 4)) & (pos <= np.minimum(end, point + 1))
    upper = (pos >= point + 3) & (pos <= end)
    text = (frac & (pos == point + 2)) * np.uint8(ord("."))
    e = -x[..., 0]
    text[..., 23:27] = (x < -4) * np.stack(np.broadcast_arrays(ord("e"), ord("-"), 48 + e // 10, 48 + e % 10), -1)
    text[..., 27] = ord(" ")
    masks = (lower * np.uint8(255), upper * np.uint8(255), text)
    return digits, tens, [np.ascontiguousarray(m.view("<u8").reshape(-1, 4).T, np.uint64) for m in masks]


def _times_ten_to(x, s, tens):
    """x 10^s rounded half to even, as int64, with the remainder
    ``x 10^s - M`` and whether that remainder is exact.

    x 10^s = p + e + x lo, with p + e = x hi exactly (Dekker's product), and
    p an even integer when at least 2^53.  The rest r = e + x lo is off by at
    most 2^-48 while |r| < 32, and exact when lo = 0.
    """
    hi, hi_h, hi_l, lo = tens.take(s, axis=1)
    x_h, x_l = _split(x)
    p = x * hi
    q = x * lo
    r = (((x_h * hi_h - p) + x_h * hi_l + x_l * hi_h) + x_l * hi_l) + q
    k = np.rint(r)
    return p.astype(np.int64) + k.astype(np.int64), r - k, q == 0.0


def _g17(table: np.ndarray) -> bytes:
    """``b"%.17g" % v`` for each value of a 2-D float table, with a space
    after each value of a row and a newline after its last.

    Each value fills a 32-byte slot: byte 0 the sign, bytes 1..22 "0000" and
    the 17 digits with a point after digit ``point`` (the digits after it one
    byte further on), 23..26 ``e-NN``, 27 the separator.  Masks blank what
    the value does not print, and one pass deletes the zero bytes of every
    slot, so no byte moves between slots.

    A zero, or a |v| from just above 1e-30 to just below 1e17, is formatted
    here.  Its digits are M = |v| 10^s rounded half to even, s = 16 - X,
    decided exactly: X = floor(log10 |v|) is a guess, moved by one where M
    falls outside [1e16, 1e17]; a carry to 1e17 raises X.  The leading term
    of the product is an even integer above 2^53, so rounding the rest keeps
    the parity of a tie.  A remainder within 2^-40 of a half, when 10^s is
    not a double, leaves M undecided: that value, like every value outside
    the range, takes Python's correctly rounded ``%``.
    """
    digits, tens, (lower, upper, text) = _g17_tables()
    v = table.ravel()
    x = np.abs(v)
    zero = x == 0.0
    ok = (x >= 1.000000000001e-30) & (x < 9.99999999999e16)  # False on inf and NaN; log10 keeps 0 <= s <= 46
    x[~ok] = 1.0
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    ok |= zero
    m, f, exact = _times_ten_to(x, s, tens)
    under = (m < 10**16) | ((m == 10**16) & (f < 0.0))
    redo = np.flatnonzero(under | (m > 10**17))
    if redo.size:
        s[redo] += 2 * under[redo] - 1
        ok[redo] &= (s[redo] >= 0) & (s[redo] <= 46)
        s[redo] = np.clip(s[redo], 0, 46)
        m[redo], f[redo], exact[redo] = _times_ten_to(x[redo], s[redo], tens)
        ok[redo] &= (m[redo] >= 10**16) & (m[redo] <= 10**17)
    ok &= exact | (np.abs(f) < 0.5 - 2.0**-40)
    carry = m == 10**17
    m[carry] = 10**16
    m[zero] = 0
    # M is the lead digit and four groups of four, a b c d
    high = m // 10**8
    low = m - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    a = high // 10**4
    c = low // 10**4
    a, b, c, d = digits[a], digits[high - a * 10**4], digits[c], digits[low - c * 10**4]
    # 64 plus the place of M's last non-zero digit after the lead, 64 when there is none
    last = np.maximum(np.maximum(a >> 32, (b >> 32) + 4), np.maximum((c >> 32) + 8, (d >> 32) + 12))
    code = last.view(np.int64) + 17 * (carry - s) + 718  # the row 17 (X + 30) + last, X = 16 - s + carry
    code[~ok] = 0
    w1 = a & 0xFFFFFFFF | b << 32
    w2 = c & 0xFFFFFFFF | d << 32
    z0 = 0x30303030 << 8 | (lead.view(np.uint64) + 48) << 40 | w1 << 48
    z1 = w1 >> 16 | w2 << 48
    out = np.empty((v.size, 4), "<u8")
    out[:, 0] = z0 & lower[0][code] | z0 << 8 & upper[0][code] | text[0][code] | np.signbit(v) * np.uint64(45)
    out[:, 1] = z1 & lower[1][code] | (z1 << 8 | z0 >> 56) & upper[1][code] | text[1][code]
    out[:, 2] = w2 >> 16 & lower[2][code] | w2 >> 8 & upper[2][code] | text[2][code]
    out[:, 3] = text[3][code]
    raw = out.view(np.uint8)
    rest = np.flatnonzero(~ok)
    if rest.size:
        printed = b"".join([(b"%.17g" % value).ljust(27, b"\0") for value in v[rest].tolist()])
        raw[rest, :27] = np.frombuffer(printed, np.uint8).reshape(-1, 27)
    raw.reshape(table.shape[0], -1)[:, -5] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def dump_trajectory(traj: Trajectory, stream) -> None:
    """Write the delimited text dump to a text stream: a header, then one
    row per sample of t, the q components, the p components, H, D and K,
    each value as C's ``%.17g``, which round-trips."""
    table = np.column_stack([traj.times, traj.q, traj.p, traj.charge_series()])
    n = traj.q.shape[1]
    header = ["t"]
    header += [f"q{i}" for i in range(n)]
    header += [f"p{i}" for i in range(n)]
    header += ["H", "D", "K"]
    stream.write("# " + " ".join(header) + "\n")
    rows = max(1, _DUMP_VALUES // table.shape[1])
    for start in range(0, table.shape[0], rows):
        stream.write(_g17(table[start : start + rows]).decode("ascii"))
