import numpy as np
import numpy.testing as npt
import pytest

from confsym.dual3 import (
    bianchi_pattern_residual,
    delta_bar_F,
    delta_bar_F_chain_rule,
    dual_roundtrip_residual,
    duality_mismatch,
    field_strength_from_dual,
    improved_stress_from_F,
    improved_stress_scalar_form,
    matched_plane_wave_pair,
    maxwell_eom_from_dual,
    nonprimary_shift_residual,
    primary_rule_F,
)
from confsym.errors import OffShellParameters, WrongDimension
from confsym.fields import CosineMultiplet, Jet, PolynomialMultiplet
from confsym.geometry import Metric, levi_civita3
from confsym import sampling


@pytest.fixture
def poly_phi(rng):
    return sampling.random_polynomial_multiplet(rng, 3, 1, degree=4)


@pytest.fixture
def onshell_phi(rng, metric3):
    k = sampling.null_vector(rng, 3, scale=1.1)
    return CosineMultiplet(k, [1.2], 0.4, metric3)


class TestDualMap:
    def test_constant_scalar_gives_zero_field(self, metric3):
        phi = CosineMultiplet(np.zeros(3), [2.0], 0.0, metric3)
        F, _ = field_strength_from_dual(phi, np.zeros(3), metric3)
        npt.assert_array_equal(F, 0.0)

    def test_roundtrip(self, metric3, poly_phi, rng):
        for x in sampling.points(rng, 3, 10):
            assert dual_roundtrip_residual(poly_phi, x, metric3) < 1e-12

    def test_field_equation_is_identity_offshell(self, metric3, poly_phi, rng):
        # holds for ANY scalar, not just solutions
        for x in sampling.points(rng, 3, 10):
            assert np.max(np.abs(maxwell_eom_from_dual(poly_phi, x, metric3))) < 1e-12

    def test_wrong_dimension_rejected(self, rng):
        g4 = Metric(4)
        phi = sampling.random_polynomial_multiplet(rng, 4, 1)
        with pytest.raises(WrongDimension):
            field_strength_from_dual(phi, np.zeros(4), g4)


    @pytest.mark.parametrize("fn", [
        field_strength_from_dual, dual_roundtrip_residual, maxwell_eom_from_dual,
        bianchi_pattern_residual, improved_stress_from_F, improved_stress_scalar_form,
    ])
    def test_two_components_rejected(self, fn, metric3, rng):
        phi = sampling.random_polynomial_multiplet(rng, 3, 2)
        with pytest.raises(WrongDimension, match="one component"):
            fn(phi, np.ones(3), metric3)


class TestDualDynamics:
    def test_null_wave_solves(self, metric3, onshell_phi, rng):
        for x in sampling.points(rng, 3, 8):
            assert abs(Jet(onshell_phi, x).box(metric3)) < 1e-12

    def test_quadratic_time_profile(self, metric3):
        # phi = (x^0)^2 has wave-operator value 2
        phi = PolynomialMultiplet(3, [[(1.0, (2, 0, 0))]])
        assert Jet(phi, np.array([0.3, 1.0, -2.0])).box(metric3) == 2.0

    def test_cyclic_identity_pattern(self, metric3, poly_phi, rng):
        # hand-worked: the cyclic derivative sum equals eps_{bca} box phi
        for x in sampling.points(rng, 3, 10):
            assert bianchi_pattern_residual(poly_phi, x, metric3) < 1e-12


class TestDualVariation:
    def test_origin_leaves_only_symbol_term(self, metric3, poly_phi):
        # every other contribution carries an explicit factor of x, so the
        # variation at the origin is exactly the symbol times phi(0)
        x0 = np.zeros(3)
        value = poly_phi.value(x0)
        eps = levi_civita3()
        for s in range(3):
            expected = eps[:, :, s] * metric3.diag[s] * value
            npt.assert_allclose(delta_bar_F(poly_phi, x0, s, metric3), expected, atol=1e-13)
            npt.assert_allclose(primary_rule_F(poly_phi, x0, s, metric3), 0.0, atol=1e-13)

    def test_nonprimary_shift(self, metric3, poly_phi, rng):
        for x in sampling.points(rng, 3, 8):
            for s in range(3):
                assert nonprimary_shift_residual(poly_phi, x, s, metric3) < 1e-12

    def test_chain_rule_consistency(self, metric3, poly_phi, rng):
        for x in sampling.points(rng, 3, 8):
            for s in range(3):
                a = delta_bar_F(poly_phi, x, s, metric3)
                b = delta_bar_F_chain_rule(poly_phi, x, s, metric3)
                npt.assert_allclose(a, b, atol=1e-10)

    def test_shift_nonzero_for_generic_scalar(self, metric3, poly_phi, rng):
        # the inhomogeneous term makes F non-primary whenever phi != 0
        hit = 0
        for x in sampling.points(rng, 3, 8):
            for s in range(3):
                shift = delta_bar_F(poly_phi, x, s, metric3) - primary_rule_F(
                    poly_phi, x, s, metric3
                )
                hit += np.max(np.abs(shift)) > 1e-6
        assert hit > 12


class TestDualStress:
    def test_traceless_on_shell(self, metric3, onshell_phi, rng):
        for x in sampling.points(rng, 3, 8):
            theta = improved_stress_from_F(onshell_phi, x, metric3)
            assert abs(float(np.einsum("m,mm->", metric3.diag, theta))) < 1e-10

    def test_equals_scalar_form_on_shell(self, metric3, onshell_phi, rng):
        for x in sampling.points(rng, 3, 8):
            a = improved_stress_from_F(onshell_phi, x, metric3)
            b = improved_stress_scalar_form(onshell_phi, x, metric3)
            npt.assert_allclose(a, b, atol=1e-10)

    def test_offshell_difference_is_quarter_box(self, metric3, poly_phi, rng):
        # off shell the two forms differ by g/4 phi box(phi): derived by hand
        for x in sampling.points(rng, 3, 6):
            a = improved_stress_from_F(poly_phi, x, metric3)
            b = improved_stress_scalar_form(poly_phi, x, metric3)
            box = Jet(poly_phi, x).box(metric3)
            expected = 0.25 * np.diag(metric3.diag) * poly_phi.value(x) * box
            npt.assert_allclose(b - a, expected, atol=1e-10)

    def test_constant_scalar_gives_zero(self, metric3):
        phi = CosineMultiplet(np.zeros(3), [3.0], 0.0, metric3)
        npt.assert_allclose(
            improved_stress_from_F(phi, np.ones(3), metric3), 0.0, atol=1e-14
        )


class TestDualityMismatch:
    def test_zero_pair(self, metric3):
        phi = CosineMultiplet(np.zeros(3), [0.0], 0.0, metric3)
        A = CosineMultiplet(np.zeros(3), np.zeros(3), 0.0, metric3)
        npt.assert_array_equal(duality_mismatch(A, phi, np.zeros(3), metric3), 0.0)

    def test_matched_pair_is_dual(self, metric3, rng):
        k = sampling.null_vector(rng, 3, scale=1.3)
        phi, A = matched_plane_wave_pair(k, 0.9, 0.4, metric3)
        for x in sampling.points(rng, 3, 10):
            assert np.max(np.abs(duality_mismatch(A, phi, x, metric3))) < 1e-12

    def test_generic_pair_mismatches(self, metric3, rng):
        phi = sampling.random_polynomial_multiplet(rng, 3, 1)
        A = sampling.random_offshell_potential(rng, metric3)
        worst = 0.0
        for x in sampling.points(rng, 3, 8):
            worst = max(worst, np.max(np.abs(duality_mismatch(A, phi, x, metric3))))
        assert worst > 1e-3

    def test_non_null_wavevector_rejected(self, metric3):
        with pytest.raises(OffShellParameters):
            matched_plane_wave_pair(np.array([1.0, 0.0, 0.0]), 1.0, 0.0, metric3)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf, 0.0, -0.0])
    def test_non_finite_or_zero_amplitude_rejected(self, metric3, amplitude):
        # a NaN pair makes every duality residual NaN, a zero pair makes them vacuous
        with pytest.raises(OffShellParameters, match="finite and non-zero"):
            matched_plane_wave_pair(np.array([1.0, 0.6, 0.8]), amplitude, 0.4, metric3)

    def test_amplitude_bits_are_kept(self, metric3):
        # the pair the duality-match check builds; the amplitude guard keeps its bits
        phi, A = matched_plane_wave_pair(np.array([1.0, 0.6, 0.8]), 0.9, 0.4, metric3)
        npt.assert_array_equal(phi.amplitude, [0.9])
        npt.assert_array_equal(
            A.amplitude,
            [float.fromhex(h) for h in ("-0x1.823563f6a7c90p-105", "0x1.70a3d70a3d70bp-1", "-0x1.147ae147ae148p-1")],
        )
        assert (phi.phase, A.phase) == (0.4, 0.4)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e9])
    def test_polarisation_bound_follows_the_wave_vector(self, metric3, scale):
        # the least-squares residual grows with |k|, and so does its bound
        k = scale * np.array([1.0, 0.6, 0.8])
        phi, A = matched_plane_wave_pair(k, 0.9, 0.4, metric3)
        x = sampling.points(np.random.default_rng(7), 3, 10)
        assert np.max(np.abs(duality_mismatch(A, phi, x, metric3))) < 1e-12 * scale
        with pytest.raises(OffShellParameters, match="not null"):
            matched_plane_wave_pair(scale * np.array([1.0, 0.6, 0.0]), 0.9, 0.4, metric3)

    def test_nullness_is_relative_to_the_wave_vector(self, metric3):
        # k^2 = 7.5e-15 is below 1e-12, but 0.6 of k.k
        with pytest.raises(OffShellParameters, match="not null"):
            matched_plane_wave_pair(np.array([1e-7, 0.0, 5e-8]), 1.0, 0.0, metric3)
