import io
import warnings

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
    delta_conformal_q,
    delta_scale_q,
    dump_trajectory,
    hamiltonian,
    initial_state,
    integrate,
    integrate_many,
    so21_bracket_residuals,
)
from confsym.transforms import delta_scalar
from confsym import mechanics, sampling


class TestHamiltonian:
    def test_free_particle(self):
        state = MechState.make(0.0, [7.0, -3.0], [1.0, 0.0])
        assert hamiltonian(state, MechParams(2, 0.0)) == 0.5

    def test_unit_coupling_at_unit_radius(self):
        state = MechState.make(0.0, [1.0, 0.0], [0.0, 0.0])
        assert hamiltonian(state, MechParams(2, 1.0)) == 1.0

    def test_mixed_state_arithmetic_oracle(self):
        # 0.5 * 2 + 2 / 2 = 2
        state = MechState.make(0.0, [1.0, 1.0], [1.0, -1.0])
        assert hamiltonian(state, MechParams(2, 2.0)) == 2.0

    def test_singular_configuration(self):
        with pytest.raises(SingularConfiguration):
            hamiltonian(MechState.make(0.0, [0.0], [1.0]), MechParams(1, 1.0))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            MechParams(1, -0.5)


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

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2))
    @settings(max_examples=20, deadline=None)
    def test_free_flow_matches_lines(self, q0, v, t_end):
        traj = integrate(
            MechState.make(0.0, [q0], [v]), MechParams(1, 0.0), t_end, t_end / 100
        )
        npt.assert_allclose(traj.q[-1, 0], q0 + v * traj.times[-1], atol=1e-10)


def _serial(states, params, t_end, step):
    return [integrate(s, p, t_end, step) for s, p in zip(states, params)]


def _same_bits(a, b):
    return all(
        x.tobytes() == y.tobytes() and x.shape == y.shape
        for x, y in ((a.times, b.times), (a.q, b.q), (a.p, b.p))
    )


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestEnsemble:
    @pytest.mark.parametrize("couplings", [(0.0, 0.5, 2.0), (0.7,), (0.0,)])
    def test_grid_matches_serial_bit_for_bit(self, couplings):
        # the mech-charge-drift grid: free and repulsive members, sizes zero-padded to 3
        grid = [(lam, n) for lam in couplings for n in (1, 2, 3)]
        states = [initial_state({}, n) for _, n in grid]
        params = [MechParams(n, lam) for lam, n in grid]
        many = integrate_many(states, params, 2.0, 1e-3)
        serial = _serial(states, params, 2.0, 1e-3)
        for a, b in zip(many, serial):
            assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
            assert _same_bits(a, b)
            assert a.params == b.params

    def test_signed_zero_and_wide_states_keep_their_bits(self):
        # free member at rest at q < 0 with p = -0.0: its run adds +0.0 forces and
        # reaches p = +0.0; a force formed as 0 * q = -0.0 would keep p = -0.0
        states = [MechState.make(0.0, [-1.0, -0.0], [-0.0, 0.5]), MechState.make(0.0, [2.0], [-0.0])]
        params = [MechParams(2, 0.0), MechParams(1, 1.0)]
        for a, b in zip(integrate_many(states, params, 1.0, 0.01), _serial(states, params, 1.0, 0.01)):
            assert _same_bits(a, b)
        # nine components: numpy sums them pairwise, not left to right
        wide = [MechState.make(0.0, np.linspace(1.0, 2.0, 9) * k, np.full(9, 0.1)) for k in (1, 2)]
        wide_params = [MechParams(9, 0.7), MechParams(9, 0.3)]
        for a, b in zip(integrate_many(wide, wide_params, 1.0, 0.01), _serial(wide, wide_params, 1.0, 0.01)):
            assert _same_bits(a, b)

    def test_free_member_through_the_origin(self):
        # q = -1 + t reaches q = 0 exactly at t = 1 (step 0.25), where the
        # force 2 lam q / (q.q)^2 of a repulsive member would read 0 / 0
        states = [MechState.make(0.0, [-1.0], [1.0]), initial_state({}, 2), MechState.make(0.0, [3.0], [-1.0])]
        params = [MechParams(1, 0.0), MechParams(2, 0.5), MechParams(1, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many = integrate_many(states, params, 2.0, 0.25)
        assert many[0].q[4, 0] == 0.0
        assert all(np.all(np.isfinite(t.q)) and np.all(np.isfinite(t.p)) for t in many)
        for a, b in zip(many, _serial(states, params, 2.0, 0.25)):
            assert _same_bits(a, b)

    def test_singular_approach_is_the_kernels_first_stop(self):
        # member 2 dips inside the radius after 10 steps, member 1 after 40;
        # the repulsive members share one kernel call, which stops at step 10
        states = [
            initial_state({}, 2),
            MechState.make(0.0, [0.02], [-5.0]),
            MechState.make(0.0, [0.005], [-5.0]),
        ]
        params = [MechParams(2, 0.0), MechParams(1, 1e-13), MechParams(1, 1e-13)]
        first_stop = _raised(lambda: integrate(states[2], params[2], 1.0, 1e-4))
        assert first_stop == (SingularApproach, "radius dropped below 1e-06 after 10 steps (t = 0.001)")
        assert _raised(lambda: integrate_many(states, params, 1.0, 1e-4)) == first_stop

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_singular_start_is_raised_before_any_member_runs(self, order, monkeypatch):
        # the first member of the pair would come inside the radius after 40
        # steps; the second starts inside it
        pair = [(MechState.make(0.0, [0.02], [-5.0]), MechParams(1, 1e-13)),
                (MechState.make(0.0, [1e-8], [0.0]), MechParams(1, 1.0))]
        states, params = zip(*[pair[i] for i in order])
        calls, kernel = [], mechanics._rk4_core
        monkeypatch.setattr(mechanics, "_rk4_core", lambda *args: calls.append(args) or kernel(*args))
        raised = _raised(lambda: integrate_many(states, params, 1.0, 1e-4))
        assert raised == (SingularConfiguration, "initial point is inside the singular radius")
        assert calls == []

    def test_lone_member_and_empty_ensemble(self):
        state, params = initial_state({}, 3), MechParams(3, 0.5)
        (one,) = integrate_many([state], [params], 1.0, 1e-2)
        assert _same_bits(one, integrate(state, params, 1.0, 1e-2))
        assert integrate_many([], [], 1.0, 1e-2) == []

    def test_rejects_mismatched_members(self):
        with pytest.raises(ValueError):
            integrate_many([initial_state({}, 1)], [], 1.0, 0.1)
        with pytest.raises(ValueError):
            integrate_many(
                [initial_state({}, 1), MechState.make(0.5, [1.0], [0.0])],
                [MechParams(1, 0.0), MechParams(1, 0.0)], 1.0, 0.1,
            )


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
        npt.assert_allclose(data[:, 0], traj.times)
        npt.assert_allclose(data[:, 1:3], traj.q)
        npt.assert_allclose(data[:, 5], traj.charge_series()[:, 0])


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
                delta_scalar(gen_scale, poly, x, one), delta_scale_q(state), atol=1e-12
            )
            npt.assert_allclose(
                delta_scalar(gen_conf, poly, x, one), delta_conformal_q(state), atol=1e-12
            )
