from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from confsym.errors import ConfsymError, FieldDomainError
from confsym.fields import (
    CosineMultiplet,
    GaussianMultiplet,
    Jet,
    fd_gradient,
    PolynomialMultiplet,
)
from confsym.geometry import (
    Metric,
    basis_generators,
    dilation,
    killing_gradient,
    killing_second_gradient,
    killing_vector,
    sigma_basis_conformal,
    special_conformal,
    translation,
)
from confsym.noether import (
    DualScalarModel,
    MaxwellModel,
    MultipletModel,
    action_variation_identity,
    bessel_hagen_divergence,
    current_divergence_identity,
    field_virial,
    gauge_shift_divergence,
    gauge_shift_scale_current,
    improvement_coefficient,
    improved_scalar_stress,
    improved_scalar_stress_divergence,
    improved_scalar_stress_trace,
    killing_current_divergence,
    lagrangian,
    linear_scalar_model,
    maxwell_stress,
    maxwell_stress_divergence,
    maxwell_stress_trace,
    maxwell_virial_first_principles,
    noether_scale_current_maxwell_divergence,
    offshell_trace_law,
    quadratic_scalar_model,
    scalar_stress,
    scalar_stress_divergence,
    scale_current_maxwell,
    scale_current_maxwell_divergence,
    _sum_left_to_right,
)
from confsym.transforms import (
    commutator_stack,
    delta_field_strength,
    delta_field_strength_gradient,
    delta_with_gradient,
    eom_violation_conformal,
    lie_derivative_vector,
    variation,
)
from confsym import dual3, sampling
from confsym.suites import CheckReport


def _f_squared(F, metric):
    up = metric.diag[:, None] * F * metric.diag[None, :]
    return float(np.sum(up * F))


class TestLagrangianValues:
    def test_maxwell_constant_potential(self, metric4, rng):
        A = CosineMultiplet(np.zeros(4), metric4.lower(rng.normal(size=4)), 0.0, metric4)
        assert lagrangian(MaxwellModel(4), A, rng.normal(size=4), metric4)[0] == 0.0

    def test_dual_scalar_closed_form(self, metric3, rng):
        # density by direct substitution: -(a^2 k.k / 2) sin^2(k.x + ph)
        k = rng.normal(size=3)
        phi = CosineMultiplet(k, [1.2], 0.3, metric3)
        model = DualScalarModel()
        for x in sampling.points(rng, 3, 6):
            phase = metric3.dot(k, x) + 0.3
            expected = -0.5 * 1.2**2 * metric3.norm2(k) * np.sin(phase) ** 2
            assert lagrangian(model, phi, x, metric3)[0] == pytest.approx(
                expected, abs=1e-12
            )
            # and through the field strength: minus a quarter of F squared
            from confsym.dual3 import field_strength_from_dual

            F, _ = field_strength_from_dual(phi, x, metric3)
            assert lagrangian(model, phi, x, metric3)[0] == pytest.approx(
                -0.25 * _f_squared(F, metric3), abs=1e-12
            )

    def test_multiplet_free_limit(self, metric4, rng):
        phi = sampling.random_plane_wave_multiplet(rng, metric4, 2)
        free = MultipletModel(4, 2, 0.0)
        x = rng.normal(size=4)
        grad = phi.grad(x)
        kinetic = 0.5 * float(np.einsum("m,im,im->", metric4.diag, grad, grad))
        assert lagrangian(free, phi, x, metric4)[0] == pytest.approx(kinetic)


def _scalar_models(dim):
    """One of each scalar model at ``dim``, with its component count."""
    models = [(MultipletModel(dim, 2, 0.7), 2), (MultipletModel(dim, 1, 1.3), 1),
              (linear_scalar_model(dim, -0.4, 0.5), 1), (quadratic_scalar_model(dim), 1)]
    return models + [(DualScalarModel(), 1)] * (dim == 3)


class TestModelConjugates:
    # the oracle is central differences of each model's own density
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_conjugates_are_the_density_derivatives(self, dim, rng):
        g, h = Metric(dim), 1e-6
        for model, n in _scalar_models(dim):
            for _ in range(4):
                value = rng.uniform(0.5, 1.5, n)  # positive: phi^p is real
                grad = rng.normal(0.0, 0.6, (n, dim))
                dl_dphi, mom = model.conjugates(value, grad, g)
                assert dl_dphi.shape == (n,) and mom.shape == (n, dim)
                for i in range(n):
                    step = h * np.eye(n)[i]
                    fd = (model.density(value + step, grad, g)
                          - model.density(value - step, grad, g)) / (2 * h)
                    assert dl_dphi[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
                    for m in range(dim):
                        step = np.zeros((n, dim))
                        step[i, m] = h
                        fd = (model.density(value, grad + step, g)
                              - model.density(value, grad - step, g)) / (2 * h)
                        assert mom[i, m] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_linear_momentum_is_the_raised_gradient(self, dim, rng):
        g = Metric(dim)
        for model, n in _scalar_models(dim):
            if model.linear_part is None:
                continue
            value = rng.uniform(0.5, 1.5, n)
            grad = rng.normal(0.0, 0.6, (n, dim))
            _, mom = model.conjugates(value, grad, g)
            expected = 2.0 * model.kinetic_coefficient * grad * g.diag[None, :]
            npt.assert_allclose(mom, expected, rtol=1e-14, atol=0.0)

    def test_only_the_quadratic_profile_is_not_linear(self):
        flags = [model.linear_part is None for model, _ in _scalar_models(3)]
        assert flags == [False, False, False, True, False]


class TestMaxwellStress:
    def test_vanishes_for_zero_field(self, metric4, rng):
        A = CosineMultiplet(np.zeros(4), metric4.lower(rng.normal(size=4)), 0.0, metric4)
        npt.assert_array_equal(maxwell_stress(A, rng.normal(size=4), metric4), 0.0)

    def test_trace_law(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        dim = metric.dim
        for x in sampling.points(rng, dim, 8):
            F = Jet(A, x).F
            expected = (-1.0 + dim / 4.0) * _f_squared(F, metric)
            assert maxwell_stress_trace(A, x, metric) == pytest.approx(
                expected, abs=1e-12
            )

    def test_traceless_only_at_four_dimensions(self, rng):
        for dim in (3, 4, 5):
            g = Metric(dim)
            A = sampling.random_offshell_potential(rng, g)
            x = rng.normal(size=dim)
            tr = maxwell_stress_trace(A, x, g)
            if dim == 4:
                assert abs(tr) < 1e-12
            else:
                assert abs(tr) > 1e-4

    def test_conserved_on_shell(self, metric, rng):
        A = sampling.random_onshell_potential(rng, metric)
        for x in sampling.points(rng, metric.dim, 8):
            assert np.max(np.abs(maxwell_stress_divergence(A, x, metric))) < 1e-10

    def test_symmetric(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        theta = maxwell_stress(A, rng.normal(size=metric.dim), metric)
        npt.assert_allclose(theta, theta.T, atol=1e-12)


class TestScalarStress:
    def test_constant_free_field_vanishes(self, metric4, rng):
        phi = CosineMultiplet(np.zeros(4), [1.5], 0.0, metric4)
        npt.assert_array_equal(scalar_stress(phi, rng.normal(size=4), metric4), 0.0)

    def test_conserved_on_shell_three_dimensions(self, rng):
        g = Metric(3)
        phi = sampling.random_plane_wave_multiplet(rng, g, 1, null=True)
        for x in sampling.points(rng, 3, 8):
            assert np.max(np.abs(scalar_stress_divergence(phi, x, g))) < 1e-10

    def test_energy_density_nonnegative(self, metric, rng):
        phi = sampling.random_plane_wave_multiplet(rng, metric, 2)
        for x in sampling.points(rng, metric.dim, 8):
            assert scalar_stress(phi, x, metric)[0, 0] >= 0.0


class TestImprovedStress:
    def test_improvement_coefficient_values(self):
        assert improvement_coefficient(3) == pytest.approx(1.0 / 8.0)
        assert improvement_coefficient(4) == pytest.approx(1.0 / 6.0)
        assert improvement_coefficient(6) == pytest.approx(1.0 / 5.0)

    def test_three_dimensional_form_reproduced(self, metric3, rng):
        # at D = 3 the improvement is exactly one eighth of (g box - dd) phi^2
        phi = sampling.random_plane_wave_multiplet(rng, metric3, 1)
        x = rng.normal(size=3)
        theta = scalar_stress(phi, x, metric3)
        value = phi.value(x)[0]
        grad = phi.grad(x)[0]
        hess = phi.hess(x)[0]
        s_hess = 2.0 * (np.outer(grad, grad) + value * hess)
        box_s = float(np.einsum("m,mm->", metric3.diag, s_hess))
        up = metric3.diag[:, None] * s_hess * metric3.diag[None, :]
        expected = theta + (np.diag(metric3.diag) * box_s - up) / 8.0
        npt.assert_allclose(improved_scalar_stress(phi, x, metric3), expected, atol=1e-13)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_traceless_on_shell(self, dim, rng):
        g = Metric(dim)
        phi = sampling.random_plane_wave_multiplet(rng, g, 1, null=True)
        for x in sampling.points(rng, dim, 8):
            assert abs(improved_scalar_stress_trace(phi, x, g)) < 1e-10

    def test_conserved_on_shell(self, metric, rng):
        phi = sampling.random_plane_wave_multiplet(rng, metric, 2, null=True)
        for x in sampling.points(rng, metric.dim, 8):
            div = improved_scalar_stress_divergence(phi, x, metric)
            assert np.max(np.abs(div)) < 1e-10

    def test_offshell_trace_closed_form(self, metric, rng):
        # hand-derived law: trace = D U + (D-2)/2 Phi.box(Phi), any coupling
        phi = sampling.random_polynomial_multiplet(rng, metric.dim, 2)
        for lam in (0.0, 0.7):
            for x in sampling.points(rng, metric.dim, 5):
                lhs = improved_scalar_stress_trace(phi, x, metric, lam)
                rhs = offshell_trace_law(phi, x, metric, lam)
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestVirial:
    def test_maxwell_vanishes_at_four_dimensions(self, rng):
        g = Metric(4)
        A = sampling.random_offshell_potential(rng, g)
        info = field_virial(MaxwellModel(4), A, rng.normal(size=4), g)
        npt.assert_allclose(info.value, 0.0, atol=1e-14)
        assert info.is_total_divergence

    @pytest.mark.parametrize("dim", [3, 5, 6])
    def test_maxwell_matches_first_principles(self, dim, rng):
        g = Metric(dim)
        A = sampling.random_offshell_potential(rng, g)
        model = MaxwellModel(dim)
        for x in sampling.points(rng, dim, 8):
            info = field_virial(model, A, x, g)
            direct = maxwell_virial_first_principles(A, x, g)
            npt.assert_allclose(info.value, direct, atol=1e-12)
            assert not info.is_total_divergence

    def test_free_scalar_total_divergence(self, metric, rng):
        phi = sampling.random_plane_wave_multiplet(rng, metric, 2)
        model = MultipletModel(metric.dim, 2, 0.0)
        for x in sampling.points(rng, metric.dim, 5):
            info = field_virial(model, phi, x, metric)
            assert info.is_total_divergence
            fd = fd_gradient(info.potential, x, 1e-5)
            npt.assert_allclose(np.einsum("mam->a", fd), info.value, atol=1e-6)

    def test_general_scalar_flags(self, metric4, rng):
        phi = GaussianMultiplet(4, [1.3], rng.normal(0, 0.2, 4), 0.08 * np.eye(4))
        x = rng.normal(size=4)
        lin = field_virial(linear_scalar_model(4, -0.4, 0.5), phi, x, metric4)
        quad = field_virial(quadratic_scalar_model(4), phi, x, metric4)
        assert lin.is_total_divergence
        assert not quad.is_total_divergence
        fd = fd_gradient(lin.potential, x, 1e-5)
        npt.assert_allclose(np.einsum("mam->a", fd), lin.value, atol=1e-6)


class TestScaleCurrent:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_conserved_on_shell(self, dim, rng):
        g = Metric(dim)
        A = sampling.random_onshell_potential(rng, g)
        for x in sampling.points(rng, dim, 8):
            assert abs(scale_current_maxwell_divergence(A, x, g)) < 1e-10

    def test_reduces_to_stress_times_position_at_four(self, rng):
        g = Metric(4)
        A = sampling.random_offshell_potential(rng, g)
        for x in sampling.points(rng, 4, 5):
            expected = maxwell_stress(A, x, g) @ g.lower(x)
            npt.assert_allclose(scale_current_maxwell(A, x, g), expected, atol=1e-13)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_raw_construction_same_divergence(self, dim, rng):
        g = Metric(dim)
        A = sampling.random_onshell_potential(rng, g)
        for x in sampling.points(rng, dim, 8):
            raw = noether_scale_current_maxwell_divergence(A, x, g)
            improved = scale_current_maxwell_divergence(A, x, g)
            assert raw == pytest.approx(improved, abs=1e-10)


class TestBesselHagen:
    # off shell, where both sides of each identity are nonzero
    def test_translation_reduces_to_stress_row(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        a = rng.normal(size=metric.dim)
        gen = translation(a)
        model = MaxwellModel(metric.dim)
        for x in sampling.points(rng, metric.dim, 5):
            expected = maxwell_stress_divergence(A, x, metric) @ metric.lower(a)
            assert bessel_hagen_divergence(gen, model, A, x, metric) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_dilation_reproduces_scale_current(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        gen = dilation(1.0, metric.dim)
        model = MaxwellModel(metric.dim)
        for x in sampling.points(rng, metric.dim, 5):
            expected = scale_current_maxwell_divergence(A, x, metric)
            assert bessel_hagen_divergence(gen, model, A, x, metric) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_scalar_conformal_current_conserved(self, rng):
        g = Metric(3)
        phi = sampling.random_plane_wave_multiplet(rng, g, 1, null=True)
        model = MultipletModel(3, 1, 0.0)
        gen = special_conformal(rng.normal(0, 0.4, 3))
        for x in sampling.points(rng, 3, 8):
            assert abs(bessel_hagen_divergence(gen, model, phi, x, g)) < 1e-10

    def test_dual_scalar_current_conserved(self, metric3, rng):
        # the dual sector's stress tensor is the free improved one
        phi = sampling.random_plane_wave_multiplet(rng, metric3, 1, null=True)
        for x in sampling.points(rng, 3, 2):
            assert np.max(abs(bessel_hagen_divergence(basis_generators(3), DualScalarModel(), phi, x, metric3))) < 1e-10

    @pytest.mark.parametrize("model", [linear_scalar_model(4, -0.4, 0.5), quadratic_scalar_model(4),
                                       object()], ids=["linear", "quadratic", "unknown"])
    def test_models_without_a_current_are_rejected(self, model, metric4, rng):
        # the general scalar's stress tensor is not the free improved tensor
        phi = GaussianMultiplet(4, [1.3], rng.normal(0, 0.2, 4), 0.08 * np.eye(4))
        with pytest.raises(TypeError):
            bessel_hagen_divergence(dilation(1.0, 4), model, phi, np.full(4, 0.1), metric4)

    def test_all_generators_conserved_free_scalar(self, metric, rng):
        phi = sampling.random_plane_wave_multiplet(rng, metric, 1, null=True)
        model = MultipletModel(metric.dim, 1, 0.0)
        for x in sampling.points(rng, metric.dim, 3):
            assert np.max(abs(bessel_hagen_divergence(basis_generators(metric.dim), model, phi, x, metric))) < 1e-10


class TestCurrentDivergenceIdentity:
    def test_four_dimensions_both_zero(self, rng):
        g = Metric(4)
        A = sampling.random_onshell_potential(rng, g)
        for x in sampling.points(rng, 4, 5):
            lhs, rhs = current_divergence_identity(
                special_conformal(rng.normal(0, 0.4, 4)), A, x, g
            )
            assert abs(lhs) < 1e-10
            assert rhs == 0.0 or abs(rhs) < 1e-10

    def test_five_dimensions_nonzero_anomaly(self, rng):
        g = Metric(5)
        A = sampling.random_onshell_potential(rng, g)
        hit = 0
        for x in sampling.points(rng, 5, 8):
            lhs, rhs = current_divergence_identity(
                special_conformal(rng.normal(0, 0.4, 5)), A, x, g
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)
            hit += abs(rhs) > 1e-3
        assert hit > 4  # generically nonzero

    def test_five_dimensions_scale_still_conserved(self, rng):
        g = Metric(5)
        A = sampling.random_onshell_potential(rng, g)
        for x in sampling.points(rng, 5, 8):
            lhs, rhs = current_divergence_identity(dilation(1.0, 5), A, x, g)
            assert rhs == 0.0
            assert abs(lhs) < 1e-10


class TestActionVariationIdentities:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_maxwell_scale_identity_offshell(self, dim, rng):
        g = Metric(dim)
        A = sampling.random_offshell_potential(rng, g)
        model = MaxwellModel(dim)
        for x in sampling.points(rng, dim, 6):
            assert abs(action_variation_identity("scale", model, A, x, g)) < 1e-10

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_maxwell_conformal_anomaly_offshell(self, dim, rng):
        g = Metric(dim)
        A = sampling.random_offshell_potential(rng, g)
        model = MaxwellModel(dim)
        for x in sampling.points(rng, dim, 6):
            for s in range(dim):
                assert (
                    abs(action_variation_identity("conformal", model, A, x, g, s))
                    < 1e-10
                )

    def test_maxwell_assumed_primary_invariance(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        model = MaxwellModel(metric.dim)
        for x in sampling.points(rng, metric.dim, 6):
            for s in range(metric.dim):
                res = action_variation_identity(
                    "conformal-assumed-primary", model, A, x, metric, s
                )
                assert abs(res) < 1e-10

    def test_dual_scalar_conformal_identity(self, metric3, rng):
        # off-shell configuration: generic polynomial
        phi = sampling.random_polynomial_multiplet(rng, 3, 1)
        model = DualScalarModel()
        for x in sampling.points(rng, 3, 6):
            for s in range(3):
                res = action_variation_identity("conformal", model, phi, x, metric3, s)
                assert abs(res) < 1e-10

    def test_multiplet_identities_any_coupling(self, metric, rng):
        model = MultipletModel(metric.dim, 2, 0.9)
        phi = sampling.random_plane_wave_multiplet(rng, metric, 2)
        for x in sampling.points(rng, metric.dim, 5):
            assert abs(action_variation_identity("scale", model, phi, x, metric)) < 1e-10
            for s in range(metric.dim):
                assert (
                    abs(action_variation_identity("conformal", model, phi, x, metric, s))
                    < 1e-10
                )

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_general_scalar_scale_holds_for_any_profile(self, dim, rng):
        g = Metric(dim)
        phi = GaussianMultiplet(dim, [1.3], rng.normal(0, 0.2, dim), 0.08 * np.eye(dim))
        for model in (linear_scalar_model(dim, -0.4, 0.5), quadratic_scalar_model(dim)):
            for x in sampling.points(rng, dim, 5):
                assert abs(action_variation_identity("scale", model, phi, x, g)) < 1e-10

    def test_general_scalar_conformal_obstruction(self, metric4, rng):
        # linear profile passes; the quadratic profile fails strictly
        phi = GaussianMultiplet(4, [1.3], rng.normal(0, 0.2, 4), 0.08 * np.eye(4))
        lin = linear_scalar_model(4, -0.4, 0.5)
        quad = quadratic_scalar_model(4)
        worst_quad = 0.0
        for x in sampling.points(rng, 4, 6):
            for s in range(4):
                assert abs(action_variation_identity("conformal", lin, phi, x, metric4, s)) < 1e-10
                worst_quad = max(
                    worst_quad,
                    abs(action_variation_identity("conformal", quad, phi, x, metric4, s)),
                )
        assert worst_quad > 1e-6

    def test_unknown_kind_rejected(self, metric4, rng):
        with pytest.raises(ValueError):
            action_variation_identity(
                "rotation", MaxwellModel(4),
                sampling.random_offshell_potential(rng, metric4),
                np.zeros(4), metric4,
            )


class TestGaugeShift:
    def test_constant_gauge_function_no_shift(self, metric, rng):
        A = sampling.random_onshell_potential(rng, metric)
        om = PolynomialMultiplet(metric.dim, [[(5.0, (0,) * metric.dim)]])
        x = rng.normal(size=metric.dim)
        shift, predicted = gauge_shift_scale_current(A, om, x, metric)
        npt.assert_allclose(shift, 0.0, atol=1e-13)
        npt.assert_allclose(predicted, 0.0, atol=1e-13)

    def test_four_dimensions_no_shift(self, rng):
        g = Metric(4)
        A = sampling.random_onshell_potential(rng, g)
        om = CosineMultiplet(rng.normal(size=4), [0.8], 0.0, g)
        for x in sampling.points(rng, 4, 5):
            shift, _ = gauge_shift_scale_current(A, om, x, g)
            npt.assert_allclose(shift, 0.0, atol=1e-12)

    def test_five_dimensions_shift_conserved(self, rng):
        # time-coordinate gauge function on an on-shell fixture
        g = Metric(5)
        A = sampling.random_onshell_potential(rng, g)
        om = PolynomialMultiplet(5, [[(1.0, (1, 0, 0, 0, 0))]])
        for x in sampling.points(rng, 5, 6):
            shift, predicted = gauge_shift_scale_current(A, om, x, g)
            npt.assert_allclose(shift, predicted, atol=1e-10)
            assert abs(gauge_shift_divergence(A, om, x, g)) < 1e-10

    def test_shift_matches_prediction_pointwise(self, metric, rng):
        A = sampling.random_onshell_potential(rng, metric)
        om = CosineMultiplet(rng.normal(0, 0.5, metric.dim), [0.8], 0.3, metric)
        for x in sampling.points(rng, metric.dim, 6):
            shift, predicted = gauge_shift_scale_current(A, om, x, metric)
            npt.assert_allclose(shift, predicted, atol=1e-10)


class TestCheckReport:
    def test_pass_iff_within_tolerance(self):
        good = CheckReport("demo", 4, 10, 1e-13, 1e-12, 42)
        bad = CheckReport("demo", 4, 10, 1e-11, 1e-12, 42)
        assert good.passed and good.ok
        assert not bad.passed and not bad.ok

    def test_expected_fail_inverts_ok(self):
        xfail = CheckReport("demo", 5, 10, 1.0, 1e-12, 42, expected_fail=True)
        surprise = CheckReport("demo", 5, 10, 0.0, 1e-12, 42, expected_fail=True)
        assert not xfail.passed and xfail.ok
        assert surprise.passed and not surprise.ok

    def test_error_marks_failure(self):
        broken = CheckReport("demo", 4, 0, 0.0, 1e-12, 42, error="boom")
        assert not broken.passed and not broken.ok
        assert broken.to_dict()["error"] == "boom"


def _field_kinds(dim, rng):
    """(model, off-shell fixture, on-shell fixture or None) for each field
    kind at ``dim``: Maxwell, the multiplet at N = 1..3, both general-scalar
    profiles on a Gaussian and, at D = 3, the dual scalar."""
    g = Metric(dim)
    kinds = [(MaxwellModel(dim), sampling.random_offshell_potential(rng, g),
              sampling.random_onshell_potential(rng, g))]
    for n in (1, 2, 3):
        kinds.append((MultipletModel(dim, n, 0.7), sampling.random_plane_wave_multiplet(rng, g, n),
                      sampling.random_plane_wave_multiplet(rng, g, n, null=True)))
    gaussian = GaussianMultiplet(dim, [1.3], rng.normal(0, 0.2, dim), 0.08 * np.eye(dim))
    kinds += [(linear_scalar_model(dim, -0.4, 0.5), gaussian, None), (quadratic_scalar_model(dim), gaussian, None)]
    if dim == 3:
        kinds.append((DualScalarModel(), sampling.random_plane_wave_multiplet(rng, g, 1),
                      sampling.random_plane_wave_multiplet(rng, g, 1, null=True)))
    return kinds


def _value_grad(field, x):
    jet = Jet(field, x)
    return jet.value, jet.grad


class TestSampleAxis:
    """The field kernels of fields, transforms, noether and dual3 on (S, D)
    stacks of points, with a special conformal parameter stack or a sigma
    index stack, give bit for bit and in the same dtype what they give one
    row at a time."""

    # "D": as many samples as dimensions, where a kernel that mixes up the
    # sample axis and an index axis still broadcasts
    @pytest.mark.parametrize("n", [1, "D", 37])
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_stack_equals_rows(self, dim, n, same_bits, basis_rows):
        n = dim if n == "D" else n
        g = Metric(dim)
        rng = np.random.default_rng([dim, n])
        xs = sampling.points(rng, dim, n)
        cs = rng.normal(0.0, 0.4, (n, dim))
        sigmas = rng.integers(0, dim, n)

        def check(fn):
            """fn(x, c, sigma) on the stacks against the rows; a tuple
            result is compared part by part."""
            batch = fn(xs, cs, sigmas)
            rows = [fn(x, c, s) for x, c, s in zip(xs, cs, sigmas)]
            for k, part in enumerate(batch if isinstance(batch, tuple) else (batch,)):
                same_bits(part, [row[k] if isinstance(batch, tuple) else row for row in rows])

        check(lambda x, c, s: sigma_basis_conformal(s, g, 1.0, "vector").c)
        check(lambda x, c, s: killing_second_gradient(special_conformal(c), g))
        gens = [lambda c, gen=gen: gen for gen in basis_rows(dim)] + [special_conformal]
        gaussian = GaussianMultiplet(dim, [1.3, -0.6], rng.normal(0, 0.2, dim), rng.normal(0, 0.1, (dim, dim)))
        poly = sampling.random_polynomial_multiplet(rng, dim, 3, degree=4, n_terms=9)
        for name in ("value", "grad", "hess", "third"):
            check(lambda x, c, s: getattr(gaussian, name)(x))
            check(lambda x, c, s: getattr(poly, name)(x))
        check(lambda x, c, s: commutator_stack(poly, x, g))
        omega = CosineMultiplet(rng.normal(0.0, 0.5, dim), [0.8], 0.3, g)
        for model, off, on in _field_kinds(dim, rng):
            for name in ("value", "grad", "hess", "third"):
                check(lambda x, c, s: getattr(Jet(off, x), name))
            check(lambda x, c, s: field_virial(model, off, x, g).value)
            check(lambda x, c, s: lagrangian(model, off, x, g))
            check(lambda x, c, s: action_variation_identity("scale", model, off, x, g))
            check(lambda x, c, s: action_variation_identity("conformal", model, off, x, g, s))
            if isinstance(model, MaxwellModel):
                check(lambda x, c, s: action_variation_identity("conformal-assumed-primary", model, off, x, g, s))
                check(lambda x, c, s: (Jet(off, x).F, Jet(off, x).dF))
                check(lambda x, c, s: variation(
                    special_conformal(c, weight=0.5 * dim, spin="field-strength"),
                    Jet(off, x).F, Jet(off, x).dF, x, g))
                check(lambda x, c, s: maxwell_virial_first_principles(off, x, g))
                for gen in (lambda c: special_conformal(c, spin="vector"), lambda c: dilation(0.7, dim, spin="vector")):
                    check(lambda x, c, s: delta_with_gradient(gen(c), off, x, g))
                for kernel in (maxwell_stress, maxwell_stress_divergence, maxwell_stress_trace,
                               scale_current_maxwell, scale_current_maxwell_divergence,
                               noether_scale_current_maxwell_divergence):
                    check(lambda x, c, s: kernel(on, x, g))
                check(lambda x, c, s: gauge_shift_scale_current(on, omega, x, g))
                check(lambda x, c, s: gauge_shift_divergence(on, omega, x, g))
                check(lambda x, c, s: eom_violation_conformal(on, x, g, c))
                for gen in gens:
                    check(lambda x, c, s: bessel_hagen_divergence(gen(c), model, on, x, g))
                    check(lambda x, c, s: current_divergence_identity(gen(c), on, x, g))
                    for kernel in (lie_derivative_vector, delta_field_strength, delta_field_strength_gradient):
                        check(lambda x, c, s: kernel(gen(c), off, x, g))
                continue
            check(lambda x, c, s: model.density(*_value_grad(off, x), g))
            check(lambda x, c, s: model.conjugates(*_value_grad(off, x), g))
            check(lambda x, c, s: Jet(off, x).box(g))
            check(lambda x, c, s: offshell_trace_law(off, x, g, 0.7))
            if model.linear_part is not None:
                check(lambda x, c, s: field_virial(model, off, x, g).potential(x))
            check(lambda x, c, s: delta_with_gradient(sigma_basis_conformal(s, g, 0.5, "scalar"), off, x, g))
            check(lambda x, c, s: commutator_stack(off, x, g))
            if isinstance(model, DualScalarModel):
                A = sampling.random_offshell_potential(rng, g)
                for phi in (off, on, sampling.random_polynomial_multiplet(rng, 3, 1)):
                    for kernel in (dual3.field_strength_from_dual, dual3.dual_roundtrip_residual,
                                   dual3.maxwell_eom_from_dual, dual3.bianchi_pattern_residual,
                                   dual3.improved_stress_from_F, dual3.improved_stress_scalar_form):
                        check(lambda x, c, s: kernel(phi, x, g))
                    for kernel in (dual3.primary_rule_F, dual3.delta_bar_F, dual3.delta_bar_F_chain_rule,
                                   dual3.nonprimary_shift_residual):
                        check(lambda x, c, s: kernel(phi, x, s, g))
                    check(lambda x, c, s: dual3.duality_mismatch(A, phi, x, g))
            if on is None:
                continue
            coupling = getattr(model, "coupling", 0.0)
            for kernel in (scalar_stress, scalar_stress_divergence, improved_scalar_stress,
                           improved_scalar_stress_divergence, improved_scalar_stress_trace):
                check(lambda x, c, s: kernel(on, x, g, coupling))
            for gen in gens:
                check(lambda x, c, s: bessel_hagen_divergence(gen(c), model, on, x, g))
                check(lambda x, c, s: killing_current_divergence(
                    improved_scalar_stress(on, x, g), improved_scalar_stress_divergence(on, x, g),
                    killing_vector(gen(c), x, g), killing_gradient(gen(c), x, g), g))

    # the scalar conformal identity's residuals at N = 3, as the per-point
    # code rounded them: the stacked and single-point forms share one sum
    # order, so only fixed figures show a change of that order
    PINNED_CONFORMAL = [
        ["-0x1.8000000000000p-52", "-0x1.8000000000000p-55", "0x1.8000000000000p-53", "0x0.0p+0"],
        ["-0x1.0000000000000p-50", "-0x1.0000000000000p-54", "0x1.0000000000000p-52", "0x1.4000000000000p-49"],
        ["-0x1.0000000000000p-51", "-0x1.0000000000000p-53", "-0x1.0000000000000p-52", "0x1.4000000000000p-49"],
        ["-0x1.0000000000000p-51", "-0x1.0000000000000p-51", "0x1.8000000000000p-55", "-0x1.0000000000000p-51", "-0x1.0000000000000p-51", "0x1.0000000000000p-51"],
        ["-0x1.0000000000000p-50", "0x1.0000000000000p-52", "0x1.2000000000000p-53", "-0x1.0000000000000p-51", "-0x1.0000000000000p-50", "-0x1.8000000000000p-50"],
        ["0x1.0000000000000p-49", "0x1.4000000000000p-51", "-0x1.0000000000000p-54", "0x0.0p+0", "-0x1.0000000000000p-51", "0x0.0p+0"],
    ]

    def test_scalar_conformal_identity_keeps_its_rounding(self):
        got = []
        for dim in (4, 6):
            g = Metric(dim)
            phi = CosineMultiplet(np.linspace(0.3, -0.5, dim), [0.9, -1.1, 0.7], 0.4, g)
            model = MultipletModel(dim, 3, 0.6)
            for j in range(3):
                x = np.linspace(-0.4, 0.5, dim) * (j + 1) / 2.0
                got.append([action_variation_identity("conformal", model, phi, x, g, s).hex() for s in range(dim)])
        assert got == self.PINNED_CONFORMAL

    def test_left_to_right_sum_is_the_strided_einsum(self, rng):
        for n in range(1, 10):
            value, grad = rng.normal(size=(50, n)), rng.normal(size=(50, n, 5))
            sigma = rng.integers(0, 5, 50)
            columns = np.take_along_axis(grad, sigma[:, None, None], -1)[..., 0]
            rows = [np.einsum("i,i->", v, gr[:, s]) for v, gr, s in zip(value, grad, sigma)]
            assert _sum_left_to_right(value * columns).tobytes() == np.array(rows).tobytes()

    def test_single_points_give_floats(self, metric4, rng):
        x = rng.normal(0.0, 0.6, 4)
        A = sampling.random_offshell_potential(rng, metric4)
        phi = sampling.random_plane_wave_multiplet(rng, metric4, 2, null=True)
        assert type(action_variation_identity("conformal", MaxwellModel(4), A, x, metric4, 2)) is float
        assert type(maxwell_stress_trace(A, x, metric4)) is float
        assert type(bessel_hagen_divergence(special_conformal(x), MultipletModel(4, 2), phi, x, metric4)) is float
        assert current_divergence_identity(dilation(1.0, 4), A, x, metric4)[1] == 0.0


class TestOneJetPerCall:
    """Each kernel call evaluates each derivative order of its fixture at most
    once: a composite kernel passes its jet down."""

    @staticmethod
    def _counted(field):
        calls = []
        for name in ("value", "grad", "hess", "third"):
            def counting(x, _name=name, _evaluate=getattr(field, name)):
                calls.append(_name)
                return _evaluate(x)

            setattr(field, name, counting)
        return calls

    def _assert_once(self, field, kernel):
        calls = self._counted(field)
        kernel(field)
        assert calls and sorted(calls) == sorted(set(calls)), calls

    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_each_order_evaluated_at_most_once(self, dim, rng):
        g = Metric(dim)
        xs = sampling.points(rng, dim, 5)
        gens = [dilation(0.7, dim), special_conformal(rng.normal(0.0, 0.3, dim))]
        cosine = lambda: sampling.random_plane_wave_multiplet(rng, g, 2)
        gaussian = lambda: GaussianMultiplet(dim, [1.3], rng.normal(0, 0.2, dim), 0.08 * np.eye(dim))
        potential = lambda: sampling.random_offshell_potential(rng, g)
        cases = [(MultipletModel(dim, 2, 0.7), cosine), (linear_scalar_model(dim, -0.4, 0.5), gaussian),
                 (quadratic_scalar_model(dim), gaussian), (MaxwellModel(dim), potential)]
        for model, make in cases:
            kinds = ["scale", "conformal"] + ["conformal-assumed-primary"] * isinstance(model, MaxwellModel)
            for kind in kinds:
                self._assert_once(make(), lambda f: action_variation_identity(kind, model, f, xs, g, 1))
        for make in (cosine, gaussian):
            self._assert_once(make(), lambda f: improved_scalar_stress_divergence(f, xs, g, 0.7))
        for gen in gens:
            self._assert_once(cosine(), lambda f: bessel_hagen_divergence(gen, MultipletModel(dim, 2), f, xs, g))
            vector_gen = replace(gen, spin="vector")
            self._assert_once(potential(), lambda f: bessel_hagen_divergence(vector_gen, MaxwellModel(dim), f, xs, g))
            self._assert_once(potential(), lambda f: current_divergence_identity(vector_gen, f, xs, g))
        for kernel in (scale_current_maxwell_divergence, noether_scale_current_maxwell_divergence):
            self._assert_once(potential(), lambda f: kernel(f, xs, g))
        # the gauge pair: the shifted potential reads both through their jets
        for kernel in (gauge_shift_scale_current, gauge_shift_divergence):
            A, omega = potential(), CosineMultiplet(rng.normal(0.0, 0.5, dim), [0.8], 0.3, g)
            calls = self._counted(A), self._counted(omega)
            kernel(A, omega, xs, g)
            for called in calls:
                assert called and sorted(called) == sorted(set(called)), called

    def test_a_jet_on_other_points_is_rejected(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        xs = sampling.points(rng, 4, 3)
        jet = Jet(A, xs)
        assert maxwell_stress(jet, xs.copy(), metric4).tobytes() == maxwell_stress(A, xs, metric4).tobytes()
        with pytest.raises(ValueError, match="other points"):
            maxwell_stress(jet, xs[:2], metric4)
        with pytest.raises(ValueError, match="other points"):
            action_variation_identity("scale", MaxwellModel(4), jet, xs + 1e-9, metric4)


class TestSigmaIndex:
    # every sigma passes through sigma_basis_conformal, which accepts only
    # integers 0 <= sigma < D; a negative one used to alias a real axis
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_out_of_range_or_non_integer_sigma_rejected(self, dim, rng):
        g = Metric(dim)
        x = rng.normal(0.0, 0.6, dim)
        xs = sampling.points(rng, dim, 3)
        for model, off, _ in _field_kinds(dim, rng):
            kinds = ["conformal"] + ["conformal-assumed-primary"] * isinstance(model, MaxwellModel)
            for kind in kinds:
                for sigma in (-1, dim, 1.0, True):
                    with pytest.raises(ValueError, match="sigma must be an integer index"):
                        action_variation_identity(kind, model, off, x, g, sigma)
                for stack in ([0, dim, 1], [0, -1, 1], [0.0, 1.0, 2.0], [True, False, True]):
                    with pytest.raises(ValueError, match="sigma must be an integer index"):
                        action_variation_identity(kind, model, off, xs, g, np.array(stack))

    def test_integer_types_accepted(self, metric4):
        for sigma in (3, np.int64(3), np.uint8(3)):
            assert sigma_basis_conformal(sigma, metric4, 1.0, "scalar").c.tolist() == [0.0, 0.0, 0.0, -1.0]


class TestGeneralScalarDomain:
    # phi^p must be real and nonzero: a bare TypeError (complex power) or
    # ZeroDivisionError used to escape, and a batched power would give NaN
    def test_negative_phi_at_a_fractional_power(self, rng):
        g = Metric(5)  # p = 10/3
        value, grad = np.array([-0.7]), rng.normal(0.0, 0.5, (1, 5))
        for model in (linear_scalar_model(5, -0.4, 0.5), quadratic_scalar_model(5)):
            for method in (model.density, model.conjugates):
                with pytest.raises(FieldDomainError, match=r"phi = -0\.7: .*p = 3\.33333"):
                    method(value, grad, g)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_zero_phi(self, dim):
        g = Metric(dim)
        poly = PolynomialMultiplet(dim, [[(1.0, (1,) + (0,) * (dim - 1)), (0.5, (0, 1) + (0,) * (dim - 2))]])
        model = linear_scalar_model(dim, -0.4, 0.5)
        for kind in ("scale", "conformal"):
            with pytest.raises(FieldDomainError, match="phi = 0.0"):
                action_variation_identity(kind, model, poly, np.zeros(dim), g)
        assert issubclass(FieldDomainError, ConfsymError)

    def test_first_bad_sample_is_named(self, rng):
        g = Metric(5)
        value = np.array([[0.4], [0.9], [-0.2], [0.0], [1.1]])
        grad = rng.normal(0.0, 0.5, (5, 1, 5))
        with pytest.raises(FieldDomainError, match=r"phi = -0\.2 at sample 2"):
            quadratic_scalar_model(5).conjugates(value, grad, g)
        with pytest.raises(FieldDomainError, match=r"phi = 0\.0 at sample 3"):
            quadratic_scalar_model(4).density(value, grad[..., :4], Metric(4))

    def test_negative_phi_at_an_integer_power(self, rng):
        # p = 4 at D = 4: phi^p is real, and the density is even in phi
        g = Metric(4)
        grad = rng.normal(0.0, 0.5, (1, 4))
        model = quadratic_scalar_model(4)
        assert model.density(np.array([-0.8]), grad, g) == model.density(np.array([0.8]), grad, g)
