import numpy as np
import numpy.testing as npt
import pytest

from confsym.errors import OffShellParameters
from confsym.fields import (
    CosineMultiplet,
    CosineVectorPotential,
    GaussianMultiplet,
    PolynomialMultiplet,
    PolynomialVectorPotential,
    ShiftedPotential,
    fd_gradient,
    fd_oracle,
    field_strength_from_potential,
    make_gauge_function,
    make_onshell_maxwell_plane_wave,
)
from confsym.noether import bianchi_residual, maxwell_eom_residual
from confsym.geometry import Metric
from confsym import sampling


class TestPlaneWaveScalar:
    def test_zero_wavevector_is_constant(self, metric4, rng):
        f = CosineMultiplet(np.zeros(4), [2.0, -1.0], 0.0, metric4)
        for x in sampling.points(rng, 4, 5):
            npt.assert_array_equal(f.value(x), [2.0, -1.0])
            assert np.all(f.grad(x) == 0)
            assert np.all(f.hess(x) == 0)

    def test_null_wave_is_harmonic(self, metric4, rng):
        f = CosineMultiplet(np.array([1.0, 1, 0, 0]), [1.3], 0.2, metric4)
        for x in sampling.points(rng, 4, 10):
            assert abs(f.box(x, metric4)[0]) < 1e-12

    def test_gradient_against_fd(self, metric, rng):
        k = rng.normal(size=metric.dim)
        f = CosineMultiplet(k, [1.0, 0.5], 0.7, metric)
        for x in sampling.points(rng, metric.dim, 20):
            npt.assert_allclose(f.grad(x), fd_gradient(f.value, x, 1e-5), atol=1e-6)

    def test_hessian_symmetric_and_exact(self, metric4, rng):
        f = CosineMultiplet(rng.normal(size=4), [1.0], 0.1, metric4)
        x = rng.normal(size=4)
        h = f.hess(x)
        npt.assert_array_equal(h, np.swapaxes(h, 1, 2))
        npt.assert_allclose(h, fd_gradient(f.grad, x, 1e-5), atol=1e-6)

    def test_third_symmetric(self, metric4, rng):
        # one ulp of slack: product associativity differs between index orders
        f = CosineMultiplet(rng.normal(size=4), [1.0], 0.1, metric4)
        t = f.third(rng.normal(size=4))
        npt.assert_allclose(t, np.swapaxes(t, 1, 2), rtol=1e-15, atol=1e-16)
        npt.assert_allclose(t, np.swapaxes(t, 2, 3), rtol=1e-15, atol=1e-16)


class TestOnShellMaxwellWave:
    def test_solves_field_equations(self, metric4, rng):
        A = make_onshell_maxwell_plane_wave(
            np.array([1.0, 0, 0, 1]), np.array([0.0, 1, 0, 0]), metric4
        )
        for x in sampling.points(rng, 4, 10):
            # direct substitution oracle: both residuals vanish identically
            assert np.max(np.abs(maxwell_eom_residual(A, x, metric4))) < 1e-12
            assert bianchi_residual(A, x) < 1e-12

    def test_non_null_wavevector_rejected(self, metric4):
        with pytest.raises(OffShellParameters):
            make_onshell_maxwell_plane_wave(
                np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]), metric4
            )

    def test_non_transverse_polarisation_rejected(self, metric4):
        with pytest.raises(OffShellParameters):
            make_onshell_maxwell_plane_wave(
                np.array([1.0, 0, 0, 1]), np.array([1.0, 0, 0, 0]), metric4
            )


class TestFieldStrength:
    def test_constant_potential_gives_zero(self, metric4, rng):
        A = CosineVectorPotential(np.zeros(4), np.array([0.3, 1, 0, 0]), 0.0, metric4)
        fs = field_strength_from_potential(A, rng.normal(size=4))
        assert np.all(fs.F == 0)
        assert np.all(fs.dF == 0)

    def test_linear_potential_hand_values(self, metric4):
        # A_1 = x^0 gives F_{01} = 1, F_{10} = -1, everything else zero
        comps = [[(0.0, (0, 0, 0, 0))] for _ in range(4)]
        comps[1] = [(1.0, (1, 0, 0, 0))]
        A = PolynomialVectorPotential(4, comps)
        fs = field_strength_from_potential(A, np.array([0.3, -0.2, 0.5, 0.1]))
        expected = np.zeros((4, 4))
        expected[0, 1] = 1.0
        expected[1, 0] = -1.0
        npt.assert_array_equal(fs.F, expected)

    def test_plane_wave_closed_form(self, metric4, rng):
        # F_{ab} = -(k_a eps_b - k_b eps_a) sin(k.x + phase)
        k = rng.normal(size=4)
        eps = rng.normal(size=4)
        A = CosineVectorPotential(k, eps, 0.4, metric4)
        kl, el = metric4.lower(k), metric4.lower(eps)
        wedge = np.outer(kl, el) - np.outer(el, kl)
        for x in sampling.points(rng, 4, 10):
            fs = field_strength_from_potential(A, x)
            phase = float(kl @ x) + 0.4
            npt.assert_allclose(fs.F, -wedge * np.sin(phase), atol=1e-12)

    def test_antisymmetry_is_exact(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        fs = field_strength_from_potential(A, rng.normal(size=metric.dim))
        npt.assert_array_equal(fs.F, -fs.F.T)
        npt.assert_array_equal(fs.dF, -np.swapaxes(fs.dF, 0, 1))


class TestFdOracle:
    def test_linear_field_exact(self):
        func = lambda x: 3.0 * x[0] - 2.0 * x[2]
        x = np.array([0.3, 0.1, -0.4, 0.2])
        for h in (1e-1, 1e-3, 1e-6):
            assert fd_oracle(func, x, 0, h) == pytest.approx(3.0, abs=1e-9)
            assert fd_oracle(func, x, 2, h) == pytest.approx(-2.0, abs=1e-9)

    def test_cosine_within_taylor_bound(self, metric4, rng):
        k = rng.normal(size=4)
        kl = metric4.lower(k)
        func = lambda x: np.cos(float(kl @ x))
        for x in sampling.points(rng, 4, 10):
            for mu in range(4):
                exact = -kl[mu] * np.sin(float(kl @ x))
                assert abs(fd_oracle(func, x, mu, 1e-5) - exact) < 1e-6

    def test_quadratic_exact_up_to_rounding(self):
        func = lambda x: x[1] * x[1] + 2.0 * x[0] * x[1]
        x = np.array([0.7, -0.3])
        npt.assert_allclose(fd_oracle(func, x, 1, 0.1), 2 * x[1] + 2 * x[0], atol=1e-12)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_oracle(lambda x: x[0], np.zeros(2), 0, 0.0)


class TestPolynomialFields:
    def test_degree_cap(self):
        with pytest.raises(ValueError):
            PolynomialMultiplet(3, [[(1.0, (3, 1, 1))]])

    def test_derivatives_against_fd(self, rng):
        f = sampling.random_polynomial_multiplet(rng, 4, 2)
        for x in sampling.points(rng, 4, 5):
            npt.assert_allclose(f.grad(x), fd_gradient(f.value, x, 1e-5), atol=1e-6)
            npt.assert_allclose(f.hess(x), fd_gradient(f.grad, x, 1e-5), atol=1e-6)

    def test_third_matches_fd_of_hess(self, rng):
        f = sampling.random_polynomial_multiplet(rng, 3, 1, degree=4)
        x = rng.normal(size=3)
        npt.assert_allclose(f.third(x), fd_gradient(f.hess, x, 1e-4), atol=1e-5)


class TestGaussianFields:
    def test_derivatives_against_fd(self, rng):
        f = GaussianMultiplet(4, [1.2, -0.5], rng.normal(0, 0.3, 4), 0.1 * np.eye(4))
        for x in sampling.points(rng, 4, 5):
            npt.assert_allclose(f.grad(x), fd_gradient(f.value, x, 1e-6), atol=1e-6)
            npt.assert_allclose(f.hess(x), fd_gradient(f.grad, x, 1e-6), atol=1e-6)

    def test_symmetries(self, rng):
        quad = rng.normal(0, 0.2, (4, 4))
        f = GaussianMultiplet(4, [1.0], rng.normal(0, 0.3, 4), quad)
        x = rng.normal(size=4)
        h, t = f.hess(x), f.third(x)
        # hessians symmetric bitwise; thirds to one ulp (product associativity)
        npt.assert_array_equal(h, np.swapaxes(h, 1, 2))
        npt.assert_allclose(t, np.swapaxes(t, 1, 2), rtol=1e-15, atol=1e-16)
        npt.assert_allclose(t, np.swapaxes(t, 2, 3), rtol=1e-15, atol=1e-16)


class TestSpinorFields:
    def test_gradient_against_fd(self, metric4, rng):
        psi = sampling.random_spinor(rng, metric4, 4)
        for x in sampling.points(rng, 4, 5):
            npt.assert_allclose(psi.grad(x), fd_gradient(psi.value, x, 1e-5), atol=1e-6)


class TestGaugeFunctions:
    def test_linear_gradient_exact(self, metric4, rng):
        slope = np.array([1.0, -2.0, 0.5, 0.0])
        om = make_gauge_function("linear", metric4, slope=slope, offset=3.0)
        x = rng.normal(size=4)
        assert om.value(x) == pytest.approx(3.0 + slope @ x)
        npt.assert_array_equal(om.grad(x), slope)
        assert np.all(om.hess(x) == 0)

    def test_gradient_against_fd(self, metric4, rng):
        om = make_gauge_function("plane-wave", metric4, k=rng.normal(size=4), amplitude=0.7)
        for x in sampling.points(rng, 4, 5):
            npt.assert_allclose(om.grad(x), fd_gradient(om.value, x, 1e-5), atol=1e-6)

    def test_shift_keeps_field_strength(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        om = make_gauge_function("plane-wave", metric4, k=rng.normal(size=4), amplitude=0.7)
        shifted = ShiftedPotential(A, om)
        for x in sampling.points(rng, 4, 5):
            fs0 = field_strength_from_potential(A, x)
            fs1 = field_strength_from_potential(shifted, x)
            npt.assert_allclose(fs1.F, fs0.F, atol=1e-14)


class TestDerivativeContract:
    def test_every_family_agrees_with_fd(self, metric, rng):
        dim = metric.dim
        fields = [
            sampling.random_plane_wave_multiplet(rng, metric, 2),
            sampling.random_polynomial_multiplet(rng, dim, 2),
            GaussianMultiplet(dim, [0.8], rng.normal(0, 0.2, dim), 0.05 * np.eye(dim)),
        ]
        for f in fields:
            for x in sampling.points(rng, dim, 10):
                grad = f.grad(x)
                fd = fd_gradient(f.value, x, 1e-5)
                scale = 1.0 + np.max(np.abs(grad))
                assert np.max(np.abs(grad - fd)) / scale < 1e-6


class TestSampleAxis:
    """The cosine fixtures on an (N, D) stack give, bit for bit and in the
    same dtype, what they give one row at a time."""

    @staticmethod
    def _fixtures(dim, rng):
        g = Metric(dim)
        multiplet = sampling.random_plane_wave_multiplet(rng, g, 3)
        potential = sampling.random_offshell_potential(rng, g)
        gauge = make_gauge_function("plane-wave", g, k=rng.normal(size=dim), amplitude=0.7, phase=0.3)
        return g, multiplet, potential, gauge

    @pytest.mark.parametrize("n", [1, 257])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_stack_equals_rows(self, dim, n, same_bits):
        rng = np.random.default_rng([dim, n])
        g, multiplet, potential, gauge = self._fixtures(dim, rng)
        xs = sampling.points(rng, dim, n)
        shifted = ShiftedPotential(potential, gauge)
        spinor = sampling.random_spinor(rng, g, 4)
        evaluators = [
            getattr(field, method)
            for field in (multiplet, potential, gauge)
            for method in ("value", "grad", "hess", "third")
        ]
        evaluators += [shifted.value, shifted.grad, shifted.hess, spinor.value, spinor.grad]
        for fn in evaluators:
            same_bits(fn(xs), [fn(x) for x in xs])
        assert spinor.value(xs).dtype == spinor.grad(xs).dtype == complex

    def test_single_point_keeps_its_type(self, rng):
        g, multiplet, _, gauge = self._fixtures(4, rng)
        x = rng.normal(size=4)
        assert type(gauge.value(x)) is float
        assert multiplet.value(x).shape == (3,)
        assert gauge.grad(x).shape == (4,)
