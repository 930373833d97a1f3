import io
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.errors import SingularApproach, SingularConfiguration
from confsym.geometry import Metric, dilation, special_conformal
from confsym.mechanics import (
    MechParams,
    MechState,
    Trajectory,
    charges,
    delta_conformal_q,
    delta_scale_q,
    dump_trajectory,
    initial_state,
    integrate,
    so21_bracket_residuals,
)
from confsym.transforms import delta
from confsym import mechanics, sampling


class TestHamiltonian:
    def test_free_particle(self):
        state = MechState.make(0.0, [7.0, -3.0], [1.0, 0.0])
        assert charges(state, MechParams(2, 0.0))[0] == 0.5

    def test_unit_coupling_at_unit_radius(self):
        state = MechState.make(0.0, [1.0, 0.0], [0.0, 0.0])
        assert charges(state, MechParams(2, 1.0))[0] == 1.0

    def test_mixed_state_arithmetic_oracle(self):
        # 0.5 * 2 + 2 / 2 = 2
        state = MechState.make(0.0, [1.0, 1.0], [1.0, -1.0])
        assert charges(state, MechParams(2, 2.0))[0] == 2.0

    def test_singular_configuration(self):
        with pytest.raises(SingularConfiguration):
            charges(MechState.make(0.0, [0.0], [1.0]), MechParams(1, 1.0))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            MechParams(1, -0.5)

    @pytest.mark.parametrize("coupling", [math.nan, math.inf])
    def test_non_finite_coupling_rejected(self, coupling):
        # nan < 0 is false, so a sign test alone lets NaN through: it would
        # take the free closed form while every charge reads NaN, and an
        # infinite coupling would give NaN rows
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            MechParams(1, coupling)


class TestVariations:
    def test_values_at_time_zero(self, rng):
        q = rng.normal(size=3)
        p = rng.normal(size=3)
        state = MechState.make(0.0, q, p)
        npt.assert_array_equal(delta_scale_q(state), -0.5 * q)
        npt.assert_array_equal(delta_conformal_q(state), np.zeros(3))

    def test_free_motion_closed_form(self, rng):
        # q = q0 + v t gives t v - (q0 + v t)/2 = -q0/2 + v t / 2
        q0 = rng.normal(size=2)
        v = rng.normal(size=2)
        for t in (0.0, 0.7, -1.3):
            state = MechState.make(t, q0 + v * t, v)
            npt.assert_allclose(delta_scale_q(state), -0.5 * q0 + 0.5 * v * t, atol=1e-14)

    def test_conformal_by_direct_evaluation(self, rng):
        q = rng.normal(size=2)
        p = rng.normal(size=2)
        state = MechState.make(1.0, q, p)
        npt.assert_array_equal(delta_conformal_q(state), p - q)


class TestCharges:
    def test_simple_state(self):
        # (H, D, K) at t = 0, q = 0, p = 1
        traj = Trajectory(np.array([0.0]), np.array([[0.0]]), np.array([[1.0]]), MechParams(1, 0.0))
        assert traj.charge_series().tolist() == [[0.5, 0.0, 0.0]]

    def test_constant_along_free_motion(self, rng):
        # analytic oracle: D(t) = -q0.v / 2 for q = q0 + v t
        q0 = rng.normal(size=3)
        v = rng.normal(size=3)
        t = np.array([0.0, 0.5, 2.0, 7.0])
        traj = Trajectory(t, q0 + v * t[:, None], np.tile(v, (4, 1)), MechParams(3, 0.0))
        npt.assert_allclose(traj.charge_series()[:, 1], -0.5 * float(q0 @ v), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_drift_along_integrated_trajectory(self, lam, n):
        q0 = 1.2 * np.ones(n)
        p0 = 0.3 * (-1.0) ** np.arange(n)
        traj = integrate(MechState.make(0.0, q0, p0), MechParams(n, lam), 10.0, 1e-3)
        assert np.max(traj.charge_drift()) < 1e-8

    @pytest.mark.parametrize("special", [[], [np.nan], [np.inf], [-np.inf], [-0.0], [np.nan, np.inf, -0.0]])
    @pytest.mark.parametrize("rows", [1, 2, 10001])
    def test_drift_has_the_bits_of_the_row_reduction(self, rng, rows, special):
        # the column-by-column drift against the reduction over (H, D, K) rows
        series = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-3, 4, size=(rows, 3))
        places = rng.integers(0, series.size, size=len(special))
        series.flat[places] = special
        traj = integrate(MechState.make(0.0, [1.0], [0.5]), MechParams(1, 0.0), 1.0, 0.5)
        vars(traj)["_charges"] = series  # the cached series the drift reads
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.max(np.abs(series - series[0]), axis=0)
            got = traj.charge_drift()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_each_row_has_its_single_state_charges(self, n):
        params = MechParams(n, 0.7)
        traj = integrate(MechState.make(0.0, 1.2 - 0.1 * np.arange(n), 0.3 * (-1.0) ** np.arange(n)), params, 4.0, 0.01)
        rows = [np.array(charges(MechState.make(*row), params)) for row in zip(traj.times, traj.q, traj.p)]
        assert np.array(rows).tobytes() == traj.charge_series().tobytes()

    def test_charges_are_computed_once(self):
        traj = integrate(MechState.make(0.0, [1.0, 0.5], [0.2, -0.1]), MechParams(2, 0.5), 1.0, 0.01)
        assert "_charges" not in vars(traj)
        series = traj.charge_series()
        assert traj.charge_series() is series and not series.flags.writeable


class TestBrackets:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_close_on_hand_table(self, lam, rng):
        params = MechParams(3, lam)
        for _ in range(10):
            state = MechState.make(0.0, rng.normal(0, 1, 3) + 2.0, rng.normal(0, 1, 3))
            assert np.max(so21_bracket_residuals(state, params)) < 1e-12

    def test_degenerate_state(self):
        state = MechState.make(0.0, [0.0, 0.0], [0.0, 0.0])
        npt.assert_array_equal(
            so21_bracket_residuals(state, MechParams(2, 0.0)), np.zeros(3)
        )


class TestIntegrator:
    def test_free_motion_exact(self):
        q0 = np.array([1.0, 2.0])
        p0 = np.array([0.3, -0.1])
        traj = integrate(MechState.make(0.0, q0, p0), MechParams(2, 0.0), 2.0, 1e-3)
        exact = q0[None, :] + traj.times[:, None] * p0[None, :]
        assert np.max(np.abs(traj.q - exact)) < 1e-12

    def test_scattering_drift(self):
        # 1D repulsive scattering with positive energy
        traj = integrate(
            MechState.make(0.0, [3.0], [-1.0]), MechParams(1, 1.0), 10.0, 1e-3
        )
        assert traj.charge_drift()[0] < 1e-8

    def test_step_halving_cuts_drift_sixteenfold(self):
        params = MechParams(1, 1.0)
        state = MechState.make(0.0, [3.0], [-1.0])
        d1 = integrate(state, params, 8.0, 0.05).charge_drift()[0]
        d2 = integrate(state, params, 8.0, 0.025).charge_drift()[0]
        assert np.log2(d1 / d2) == pytest.approx(4.0, abs=0.5)

    def test_singular_start_rejected(self):
        with pytest.raises(SingularConfiguration):
            integrate(MechState.make(0.0, [1e-8], [0.0]), MechParams(1, 1.0), 1.0, 1e-3)

    def test_singular_approach_halts(self):
        # a fast inbound particle against a feeble barrier dips below the
        # singular radius mid-flight
        with pytest.raises(SingularApproach):
            integrate(
                MechState.make(0.0, [0.01], [-5.0]), MechParams(1, 1e-13), 1.0, 1e-4
            )

    def test_invalid_arguments(self):
        state = MechState.make(0.0, [1.0], [0.0])
        with pytest.raises(ValueError):
            integrate(state, MechParams(1, 0.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(state, MechParams(1, 0.0), -1.0, 0.1)
        with pytest.raises(ValueError):  # rounds to zero steps
            integrate(state, MechParams(1, 0.0), 0.04, 0.1)

    def test_non_finite_step_or_span(self):
        state, params = MechState.make(0.0, [1.0], [0.1]), MechParams(1, 0.0)
        with pytest.raises(ValueError, match="^step must be positive$"):
            mechanics._start(state, params, 1.0, math.nan)
        for start, t_end in ((state, math.nan), (state, -math.inf), (MechState.make(math.nan, [1.0], [0.1]), 1.0)):
            with pytest.raises(ValueError, match="^t_end and the initial time must be finite$"):
                mechanics._start(start, params, t_end, 1e-3)

    @pytest.mark.parametrize("coupling", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, coupling, bad):
        # sqrt(nan) < MIN_RADIUS is false, so the singular-start test alone
        # let q0 = [nan] run to NaN rows and a NaN drift with no error
        for q0, p0 in (([bad], [0.1]), ([1.0], [bad])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^the initial q and p must be finite$"):
                    integrate(MechState.make(0.0, q0, p0), MechParams(1, coupling), 1.0, 1e-3)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2))
    @settings(max_examples=20, deadline=None)
    def test_free_flow_matches_lines(self, q0, v, t_end):
        traj = integrate(
            MechState.make(0.0, [q0], [v]), MechParams(1, 0.0), t_end, t_end / 100
        )
        npt.assert_allclose(traj.q[-1, 0], q0 + v * traj.times[-1], atol=1e-10)


def _assert_oracle_bits(traj, state, params, t_end, step):
    """``traj`` has the times, the rows and the params of the numpy RK4 step
    from ``state``, bit for bit."""
    nsteps = int(round((t_end - state.t) / step))
    qs = np.empty((nsteps + 1, state.q.shape[0]))
    ps = np.empty_like(qs)
    assert _numpy_rk4(state.q, state.p, params.coupling, step, nsteps, qs, ps, mechanics.MIN_RADIUS) == nsteps
    times = state.t + step * np.arange(nsteps + 1)
    for got, want in ((traj.times, times), (traj.q, qs), (traj.p, ps)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert traj.params == params


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestEnsemble:
    @pytest.mark.parametrize("couplings", [(0.0, 0.5, 2.0), (0.7,), (0.0,)])
    def test_grid_matches_serial_bit_for_bit(self, couplings):
        # the mech-charge-drift grid: free and repulsive members of 1 to 3 components
        for lam in couplings:
            for n in (1, 2, 3):
                state, params = initial_state({}, n), MechParams(n, lam)
                _assert_oracle_bits(integrate(state, params, 2.0, 1e-3), state, params, 2.0, 1e-3)

    def test_signed_zero_and_wide_states_keep_their_bits(self):
        # free member at rest at q < 0 with p = -0.0: its run adds +0.0 forces and
        # reaches p = +0.0; a force formed as 0 * q = -0.0 would keep p = -0.0
        members = [(MechState.make(0.0, [-1.0, -0.0], [-0.0, 0.5]), MechParams(2, 0.0)),
                   (MechState.make(0.0, [2.0], [-0.0]), MechParams(1, 1.0))]
        # nine components: numpy sums them pairwise, not left to right
        members += [(MechState.make(0.0, np.linspace(1.0, 2.0, 9) * k, np.full(9, 0.1)), MechParams(9, lam))
                    for k, lam in ((1, 0.7), (2, 0.3))]
        for state, params in members:
            _assert_oracle_bits(integrate(state, params, 1.0, 0.01), state, params, 1.0, 0.01)

    def test_free_member_through_the_origin(self):
        # q = -1 + t reaches q = 0 exactly at t = 1 (step 0.25), where the
        # force 2 lam q / (q.q)^2 of a repulsive member would read 0 / 0
        members = [(MechState.make(0.0, [-1.0], [1.0]), MechParams(1, 0.0)),
                   (initial_state({}, 2), MechParams(2, 0.5)),
                   (MechState.make(0.0, [3.0], [-1.0]), MechParams(1, 1.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajs = [integrate(state, params, 2.0, 0.25) for state, params in members]
        assert trajs[0].q[4, 0] == 0.0
        assert all(np.all(np.isfinite(t.q)) and np.all(np.isfinite(t.p)) for t in trajs)
        for traj, (state, params) in zip(trajs, members):
            _assert_oracle_bits(traj, state, params, 2.0, 0.25)

    def test_singular_approach_is_the_kernels_first_stop(self):
        # each trajectory reports the steps it completed before a stage came
        # inside the radius, as the numpy step counts them: the last stage of
        # step 40 dips inside from q0 = 0.02, of step 10 from q0 = 0.005
        stops = []
        for q0 in (0.02, 0.005):
            qs = np.empty((10_001, 1))
            done = _numpy_rk4(np.array([q0]), np.array([-5.0]), 1e-13, 1e-4, 10_000, qs, np.empty_like(qs), 1e-6)
            raised = _raised(lambda: integrate(MechState.make(0.0, [q0], [-5.0]), MechParams(1, 1e-13), 1.0, 1e-4))
            assert raised == (SingularApproach, f"radius dropped below 1e-06 after {done} steps (t = {done * 1e-4})")
            stops.append(done)
        assert stops == [39, 9]


def _numpy_rk4(q0, p0, lam, dt, nsteps, qs, ps, min_radius):
    """Reference RK4 in array-wise numpy for one (n,) trajectory: fills
    ``qs``/``ps`` (shape (nsteps + 1, n)) and returns the completed steps."""
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
    for i in range(nsteps):
        if repulsive:
            r2 = np.add.reduce(q * q, 0)
            if bool(np.sqrt(r2) < min_radius):
                return i
            a1 = (two_lam / (r2 * r2)) * q
        q2 = q + half * p
        p2 = p + half * a1
        if repulsive:
            r2 = np.add.reduce(q2 * q2, 0)
            if bool(np.sqrt(r2) < min_radius):
                return i
            a2 = (two_lam / (r2 * r2)) * q2
        q3 = q + half * p2
        p3 = p + half * a2
        if repulsive:
            r2 = np.add.reduce(q3 * q3, 0)
            if bool(np.sqrt(r2) < min_radius):
                return i
            a3 = (two_lam / (r2 * r2)) * q3
        q4 = q + dt * p3
        p4 = p + dt * a3
        if repulsive:
            r2 = np.add.reduce(q4 * q4, 0)
            if bool(np.sqrt(r2) < min_radius):
                return i
            a4 = (two_lam / (r2 * r2)) * q4
        q = np.add(q, sixth * (p + 2.0 * p2 + 2.0 * p3 + p4), out=qs[i + 1])
        p = np.add(p, sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4), out=ps[i + 1])
    return nsteps


def _assert_kernel_matches_numpy(q0, p0, lam, dt, nsteps):
    q0, p0 = np.asarray(q0, dtype=float), np.asarray(p0, dtype=float)
    qs = np.empty((nsteps + 1, q0.shape[0]))
    ps = np.empty_like(qs)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = _numpy_rk4(q0, p0, lam, dt, nsteps, qs, ps, mechanics.MIN_RADIUS)
    done, q, p = mechanics._rk4_core(q0, p0, lam, dt, nsteps, mechanics.MIN_RADIUS)
    assert done == expected
    for got, want in ((q, qs[: done + 1]), (p, ps[: done + 1])):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return done, q, p


class TestKernelOracle:
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("n", [*range(1, 10), 16, 127, 128, 129, 130, 200])
    def test_matches_numpy_bit_for_bit(self, n, lam):
        # q.q near 1 and small velocities: the force's low bits reach p at
        # once, so a sum of q.q taken in another order than numpy's shows
        rng = np.random.default_rng(n)
        q0 = rng.uniform(0.5, 1.5, n) / np.sqrt(n)
        p0 = rng.normal(size=n) * 1e-3
        assert _assert_kernel_matches_numpy(q0, p0, lam, 0.01, 40)[0] == 40

    def test_signed_zero_starts(self):
        _assert_kernel_matches_numpy([-1.0, -0.0], [-0.0, 0.5], 0.0, 0.01, 100)
        _assert_kernel_matches_numpy([2.0], [-0.0], 1.0, 0.01, 100)

    def test_early_stop(self):
        # step 10 ends on q = 0 to rounding; its last stage lands there first
        done, q, _ = _assert_kernel_matches_numpy([0.005], [-5.0], 1e-13, 1e-4, 10_000)
        assert done == 9 and q.shape == (10, 1)

    def test_stage_on_zero_radius_stops(self):
        # stage 1 passes the radius test at q = 1; stage 2 lands on q = 0
        # exactly, where the force 2 lam q / (q.q)^2 would read 0 / 0: the
        # stage's radius test stops the run before it, with no step completed
        done, q, p = _assert_kernel_matches_numpy([1.0], [-4.0], 1.0, 0.5, 4)
        assert done == 0 and q.tolist() == [[1.0]] and p.tolist() == [[-4.0]]
        with pytest.raises(SingularApproach, match=r"after 0 steps \(t = 0.0\)"):
            integrate(MechState.make(0.0, [1.0], [-4.0]), MechParams(1, 1.0), 2.0, 0.5)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_step_count_modulo_the_block(self, n, lam):
        # the block loop, the remainder loop, and both
        counts = range(1, 3 * mechanics._BLOCK + 1)
        assert {c % mechanics._BLOCK for c in counts} == set(range(mechanics._BLOCK))
        q0, p0 = initial_state({}, n).q, initial_state({}, n).p
        for nsteps in counts:
            assert _assert_kernel_matches_numpy(q0, p0, lam, 0.05, nsteps)[0] == nsteps

    @staticmethod
    def _head_on(m, n):
        """A start 5e-4 * m out along axis 0 moving in at 5, cut to ``n``
        components; the signed zeros of the others reach the packed rows."""
        return [5e-4 * m, -0.0, 0.0][:n], [-5.0, 0.0, -0.0][:n]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_early_stop_at_each_step_of_a_block(self, n):
        # a particle at -5 crosses 5e-4 per step, so a start m * 5e-4 away
        # stops after m - 1 steps: one stop at each step of a block, each
        # appending the rows of that block's finished steps
        dones = [_assert_kernel_matches_numpy(*self._head_on(m, n), 1e-13, 1e-4, 10_000)[0] for m in range(9, 13)]
        assert dones == [8, 9, 10, 11]
        assert {done % mechanics._BLOCK for done in dones} == set(range(mechanics._BLOCK))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_early_stop_in_the_remainder_loop(self, n):
        # ten steps: the block loop runs steps 0-7, the remainder 8 and 9
        assert 10 % mechanics._BLOCK and 10 - 10 % mechanics._BLOCK <= 9
        done, q, _ = _assert_kernel_matches_numpy(*self._head_on(10, n), 1e-13, 1e-4, 10)
        assert done == 9 and q.shape == (10, n)

    def test_r2_source_sums_in_numpys_order(self):
        rng = np.random.default_rng(7)
        for n in range(1, 301):
            source = mechanics._sum_source([f"q[{k}] * q[{k}]" for k in range(n)])
            r2 = eval("lambda q: " + source)
            for _ in range(3):
                q = rng.normal(size=n) * np.exp(rng.normal(size=n) * 5)
                assert r2(q.tolist()) == np.add.reduce(q * q, 0), n


class TestFreeClosedForm:
    """A free run takes its rows from one ``np.add.accumulate`` and keeps
    the bits of the numpy step loop."""

    @pytest.mark.parametrize("dt", [1 / 3, 7e-4, 0.05])
    def test_matches_numpy_bit_for_bit(self, dt):
        # -0.0 in q and p: the first step turns p = -0.0 into +0.0
        starts = [([-0.0], [-0.0]), ([1.2, -0.0, -3.5], [-0.0, 0.3, -0.7]), ([0.0, 2.0], [-1e-3, -0.0])]
        for q0, p0 in starts:
            for nsteps in (1, 2, 3, 4, 5, 10_000):
                assert _assert_kernel_matches_numpy(q0, p0, 0.0, dt, nsteps)[0] == nsteps

    def test_overflow_keeps_the_bits_and_never_warns(self):
        # q0 = p0 = 1e308 overflows to inf; a start at q = inf moving back
        # meets inf - inf, which is NaN; the float loop warned about neither
        q0, p0 = np.array([1e308, math.inf, -1e308]), np.array([1e308, -1e308, -0.0])
        for nsteps in (1, 2, 5, 100):
            qs = np.empty((nsteps + 1, 3))
            ps = np.empty_like(qs)
            with np.errstate(all="ignore"):
                assert _numpy_rk4(q0, p0, 0.0, 0.05, nsteps, qs, ps, mechanics.MIN_RADIUS) == nsteps
            with warnings.catch_warnings(), np.errstate(all="warn"):
                warnings.simplefilter("error")
                done, q, p = mechanics._rk4_core(q0, p0, 0.0, 0.05, nsteps, mechanics.MIN_RADIUS)
            assert done == nsteps and q.tobytes() == qs.tobytes() and p.tobytes() == ps.tobytes()
            assert np.isinf(q[1:, 0]).all() and np.isnan(q[1:, 1]).all()

    def test_free_run_builds_no_kernel(self):
        before = mechanics._kernel.cache_info()
        integrate(MechState.make(0.0, np.ones(23), np.full(23, 0.1)), MechParams(23, 0.0), 1.0, 1e-3)
        assert mechanics._kernel.cache_info() == before


def _neighbours(x, count=3):
    """``x`` and the ``count`` doubles on either side of it."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


class TestStopThreshold:
    RADII = [mechanics.MIN_RADIUS, 1e-6, 0.3, 1.0, 1e-160, 1e-300, 1e200]

    @pytest.mark.parametrize("radius", RADII)
    def test_squared_test_is_the_radius_test(self, radius):
        min_r2 = mechanics._min_r2(radius)
        assert math.sqrt(min_r2) >= radius
        assert min_r2 == 0.0 or math.sqrt(math.nextafter(min_r2, 0.0)) < radius
        tiny = sys.float_info.min
        values = [0.0, -0.0, 5e-324, 2e-323, math.nextafter(tiny, 0.0), tiny, math.inf, math.nan,
                  sys.float_info.max, *_neighbours(min_r2), *_neighbours(radius * radius)]
        for r2 in values:
            if r2 >= 0.0 or math.isnan(r2):
                assert (r2 < min_r2) == (math.sqrt(r2) < radius), (radius, r2)

    @given(st.floats().map(abs))
    @settings(max_examples=300, deadline=None)
    def test_squared_test_on_any_double(self, r2):
        for radius in (mechanics.MIN_RADIUS, 1e-6):
            assert (r2 < mechanics._min_r2(radius)) == (math.sqrt(r2) < radius)

    @pytest.mark.parametrize("radius", [0.0, -1e-6, math.nan])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="positive"):
            mechanics._min_r2(radius)


def _stack(rng, n, size=7):
    """(t, q, p) of ``size`` states with magnitudes spread over decades; q
    and p are strided slices of one (size, 2, n) draw, as in mech-so21."""
    t = rng.normal(size=size) * np.exp(rng.normal(size=size) * 3)
    t[0] = 0.0
    qp = rng.normal(size=(size, 2, n)) * np.exp(rng.normal(size=(size, 2, 1)) * 3)
    return t, qp[:, 0], qp[:, 1]


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStackedStates:
    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_sample_has_its_single_state_bits(self, n, lam):
        params = MechParams(n, lam)
        t, q, p = _stack(np.random.default_rng([n, int(10 * lam)]), n)
        stack = MechState.make(t, q, p)
        singles = [MechState.make(*row) for row in zip(t, q, p)]
        for fn in (lambda s: np.stack(charges(s, params), -1), delta_scale_q,
                   delta_conformal_q, lambda s: so21_bracket_residuals(s, params)):
            got = fn(stack)
            assert len(got) == len(singles)
            assert all(_same_bits(g, fn(single)) for g, single in zip(got, singles))

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    def test_single_states_keep_their_python_float_bits(self, lam):
        # the formulas as Python floats around the einsum dot products the
        # charges take: ** is libm's pow, as np.float_power
        rng = np.random.default_rng(3)
        for t, q, p in zip(*_stack(rng, 3, size=20)):
            state, t = MechState.make(t, q, p), float(t)
            r2, qp = float(np.einsum("n,n->", q, q)), float(np.einsum("n,n->", q, p))
            h = 0.5 * float(np.einsum("n,n->", p, p)) + (lam / r2 if lam else 0.0)
            assert charges(state, MechParams(3, lam)) == (h, t * h - 0.5 * qp, t**2 * h - t * qp + 0.5 * r2)
            assert _same_bits(delta_scale_q(state), t * p - 0.5 * q)
            assert _same_bits(delta_conformal_q(state), t**2 * p - t * q)
            if lam:
                assert _same_bits(-2.0 * lam * q / r2**2, -2.0 * lam * q / np.float_power(r2, 2))

    def test_coupled_stack_with_a_zero_q_raises(self):
        t, q, p = _stack(np.random.default_rng(4), 2)
        q[3] = 0.0
        stack = MechState.make(t, q, p)
        for fn in (charges, so21_bracket_residuals):
            with pytest.raises(SingularConfiguration):
                fn(stack, MechParams(2, 0.5))
            assert np.all(np.isfinite(fn(stack, MechParams(2, 0.0))))

    def test_zero_q_error_names_its_state(self):
        t, q, p = _stack(np.random.default_rng(4), 2)
        q[[3, 5]] = 0.0
        with pytest.raises(SingularConfiguration) as err:
            charges(MechState.make(t, q, p), MechParams(2, 0.5))
        assert err.value.sample == 3
        with pytest.raises(SingularConfiguration) as err:
            so21_bracket_residuals(MechState.make(t[5], q[5], p[5]), MechParams(2, 0.5))
        assert err.value.sample == 0

    def test_times_must_match_the_rows(self):
        with pytest.raises(ValueError, match="one row per time"):
            MechState.make(0.0, np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="one row per time"):
            MechState.make(np.zeros(2), np.ones((3, 2)), np.ones((3, 2)))


class TestStepCeiling:
    def test_start_rejects_more_than_max_steps(self):
        state, params = MechState.make(0.0, [1.0], [0.0]), MechParams(1, 0.0)
        assert mechanics._start(state, params, 0.5 * mechanics.MAX_STEPS, 0.5)[0] == mechanics.MAX_STEPS
        for t_end, step in ((0.5 * mechanics.MAX_STEPS + 0.5, 0.5), (10.0, 1e-300), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="at most"):
                integrate(state, params, t_end, step)


class TestInitialState:
    def test_q0_without_p0_starts_at_rest(self):
        state = initial_state({"q0": [3.0, 1.0]}, 5)
        npt.assert_array_equal(state.q, [3.0, 1.0])
        npt.assert_array_equal(state.p, [0.0, 0.0])
        assert state.t == 0.0

    def test_default_point(self):
        state = initial_state({}, 3)
        npt.assert_array_equal(state.q, [1.2, 1.2, 1.2])
        npt.assert_array_equal(state.p, [0.3, -0.3, 0.3])


def _printf_g17(table) -> bytes:
    """The reference rows: each value of the 2-D ``table`` through Python's
    ``%.17g``, a space between the values of a row."""
    rows, cols = table.shape
    return ((b" ".join([b"%.17g"] * cols) + b"\n") * rows) % tuple(table.ravel().tolist())


def _decade_neighbours(k):
    """10^k and the 17-digit rounding boundary 10^k - 5e(k-18), each with its
    four nearest doubles on either side."""
    out = []
    for edge in (Fraction(10) ** k, Fraction(10) ** k - 5 * Fraction(10) ** (k - 18)):
        x = float(edge)
        for step in range(-4, 5):
            y = x
            for _ in range(abs(step)):
                y = math.nextafter(y, math.inf if step > 0 else 0.0)
            out += [y, -y]
    return out


def _ties(rng, count):
    """Doubles odd / 2^j with exactly 18 significant digits, the last a 5: each
    lies exactly halfway between two 17-digit decimals."""
    out = []
    while len(out) < count:
        for x in ((rng.integers(1, 2**53, 1000) | 1) / 2.0 ** rng.integers(2, 60, 1000)).tolist():
            if len(Decimal(x).as_tuple().digits) == 18:
                out += [x, -x]
    return out[:count]


class TestG17Format:
    def test_powers_of_ten_are_exact_double_doubles(self):
        _, tens, _ = mechanics._g17_tables()
        hi, hi_h, hi_l, lo = tens
        for s in range(47):
            assert int(hi[s]) + int(lo[s]) == 10**s, s
            assert hi_h[s] + hi_l[s] == hi[s]
            for half in (abs(int(hi_h[s])), abs(int(hi_l[s]))):  # products of halves are exact
                assert half == 0 or (half // (half & -half)).bit_length() <= 26

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_any_double(self, values):
        # NaN, inf, -0.0 and subnormals included; as one column and as one row
        table = np.array(values).reshape(-1, 1)
        assert mechanics._g17(table) == _printf_g17(table)
        assert mechanics._g17(table.T.copy()) == _printf_g17(table.T)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(float)
        exponents = np.repeat(np.arange(-30, 19), 17_500)
        decades = rng.uniform(1.0, 10.0, exponents.size) * 10.0**exponents * rng.choice([-1.0, 1.0], exponents.size)
        for table in (bits.reshape(-1, 8), decades.reshape(-1, 10)):
            for start in range(0, len(table), 4096):
                block = table[start : start + 4096]
                assert mechanics._g17(block) == _printf_g17(block)

    def test_decade_edges_and_rounding_boundaries(self):
        table = np.array([x for k in range(-34, 24) for x in _decade_neighbours(k)]).reshape(-1, 6)
        assert mechanics._g17(table) == _printf_g17(table)

    def test_exact_ties_round_half_to_even(self):
        table = np.array(_ties(np.random.default_rng(5), 2000)).reshape(-1, 8)
        assert mechanics._g17(table) == _printf_g17(table)

    @pytest.mark.parametrize("cols", [1, 6, 8, 10])
    @pytest.mark.parametrize("rows", [1, 7, 513, 1700])
    def test_table_shapes(self, cols, rows):
        rng = np.random.default_rng([cols, rows])
        table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-20, 18, size=(rows, cols))
        table[rng.random((rows, cols)) < 0.05] = 0.0
        assert mechanics._g17(table) == _printf_g17(table)


class TestTrajectoryDump:
    def test_format_and_roundtrip(self):
        traj = integrate(
            MechState.make(0.0, [1.2, 0.4], [0.3, -0.2]), MechParams(2, 0.5), 0.5, 0.01
        )
        buf = io.StringIO()
        dump_trajectory(traj, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("# t q0 q1 p0 p1 H D K")
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])))
        assert data.shape == (traj.times.size, 1 + 2 + 2 + 3)
        # %.17g round-trips, so every column reads back bit for bit
        npt.assert_array_equal(data[:, 0], traj.times)
        npt.assert_array_equal(data[:, 1:3], traj.q)
        npt.assert_array_equal(data[:, 3:5], traj.p)
        npt.assert_array_equal(data[:, 5:], traj.charge_series())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_across_write_blocks(self, n):
        # 1500 rows of 6, 8 or 10 columns: not a multiple of the rows per write
        rng = np.random.default_rng(n)
        q, p = rng.normal(size=(2, 1500, n)) * 10.0 ** rng.integers(-12, 6, size=(2, 1500, n))
        traj = Trajectory(np.arange(1500) * 0.001, q, p, MechParams(n, 0.5))
        buf = io.StringIO()
        dump_trajectory(traj, buf)
        _, body = buf.getvalue().split("\n", 1)
        table = np.column_stack([traj.times, q, p, traj.charge_series()])
        assert 1500 % (mechanics._DUMP_VALUES // table.shape[1]) != 0
        assert body.encode() == _printf_g17(table)


class TestDimensionalReduction:
    def test_scalar_variations_reduce_to_mechanics(self, rng):
        # one-dimensional scalar machinery against the mechanics rules:
        # the canonical weight at D = 1 is -1/2 automatically
        one = Metric(1)
        poly = sampling.random_polynomial_multiplet(rng, 1, 3, degree=4)
        gen_scale = dilation(1.0, 1)
        gen_conf = special_conformal(np.array([1.0]))
        assert gen_scale.weight == -0.5
        for t in rng.uniform(-2.0, 2.0, 10):
            x = np.array([t])
            state = MechState.make(t, poly.value(x), poly.grad(x)[:, 0])
            npt.assert_allclose(
                delta(gen_scale, poly, x, one), delta_scale_q(state), atol=1e-12
            )
            npt.assert_allclose(
                delta(gen_conf, poly, x, one), delta_conformal_q(state), atol=1e-12
            )
