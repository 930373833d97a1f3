from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from confsym.clifford import build_gammas, gamma_slash_unit
from confsym.errors import DimensionMismatch, SingularMap
from confsym.fields import (
    CosineMultiplet,
    Jet,
    PolynomialMultiplet,
    ShiftedPotential,
)
from confsym.geometry import (
    Metric,
    basis_generators,
    canonical_weight,
    conformal_factor,
    inversion_matrix,
    map_jacobian,
    special_conformal_map,
    dilation,
    killing_divergence,
    killing_gradient,
    killing_vector,
    special_conformal,
    translation,
)
from confsym.transforms import (
    FiniteScalarTransform,
    FiniteSpinorTransform,
    FiniteVectorTransform,
    commutator_stack,
    decoupled_spinor_residual,
    decoupled_vector_residual,
    decoupling_bracket_residual,
    decoupling_bracket_with,
    delta,
    delta_field_strength,
    delta_field_strength_gradient,
    delta_with_gradient,
    eom_violation_conformal,
    finite_variation_fd,
    lie_derivative_vector,
    spin_coefficient,
    variation,
    vector_spin_term,
)
from confsym import sampling


class TestDeltaScalar:
    def test_dilation_on_constant_field(self, metric, rng):
        f = CosineMultiplet(np.zeros(metric.dim), [2.0, -0.5], 0.0, metric)
        gen = dilation(1.0, metric.dim)
        x = rng.normal(size=metric.dim)
        npt.assert_allclose(
            delta(gen, f, x, metric),
            canonical_weight(metric.dim) * f.value(x),
            atol=1e-14,
        )

    def test_translation_on_cosine(self, metric4, rng):
        # closed-form oracle: a contracted with the upper-index derivative
        k = rng.normal(size=4)
        f = CosineMultiplet(k, [1.3], 0.2, metric4)
        a = rng.normal(size=4)
        gen = translation(a)
        for x in sampling.points(rng, 4, 5):
            phase = metric4.dot(k, x) + 0.2
            expected = -metric4.dot(a, k) * 1.3 * np.sin(phase)
            npt.assert_allclose(delta(gen, f, x, metric4), [expected], atol=1e-12)

    def test_conformal_vanishes_at_origin(self, metric, rng):
        f = sampling.random_plane_wave_multiplet(rng, metric, 2)
        gen = special_conformal(rng.normal(size=metric.dim))
        npt.assert_allclose(
            delta(gen, f, np.zeros(metric.dim), metric), 0.0, atol=1e-14
        )

    def test_tag_mismatch_rejected(self, metric4, rng):
        # the analytic gradient has a rule for scalar and vector tags only
        f = sampling.random_plane_wave_multiplet(rng, metric4, 4)
        for spin in ("spinor", "field-strength"):
            with pytest.raises(ValueError):
                delta_with_gradient(special_conformal(np.ones(4), spin=spin), f, np.zeros(4), metric4)

    def test_generator_of_another_dimension_rejected(self, metric3, rng):
        # a D = 4 dilation would vary a D = 3 field with the D = 4 weight
        f = sampling.random_plane_wave_multiplet(rng, metric3, 2)
        for gen in (dilation(1.0, 4), translation(np.ones(4)), special_conformal(np.ones(4))):
            with pytest.raises(DimensionMismatch):
                delta(gen, f, np.full(3, 0.1), metric3)

    def test_gradient_helper_matches_fd(self, metric4, rng):
        f = sampling.random_plane_wave_multiplet(rng, metric4, 2)
        gen = special_conformal(rng.normal(0, 0.3, 4))
        x = rng.normal(size=4)
        _, dout = delta_with_gradient(gen, f, x, metric4)
        from confsym.fields import fd_gradient

        fd = fd_gradient(lambda y: delta(gen, f, y, metric4), x, 1e-5)
        npt.assert_allclose(dout, fd, atol=1e-6)


class TestDeltaVector:
    def test_dilation_on_constant_potential(self, metric, rng):
        A = CosineMultiplet(
            np.zeros(metric.dim), metric.lower(rng.normal(size=metric.dim)), 0.0, metric
        )
        gen = dilation(1.0, metric.dim, spin="vector")
        x = rng.normal(size=metric.dim)
        npt.assert_allclose(
            delta(gen, A, x, metric),
            canonical_weight(metric.dim) * A.value(x),
            atol=1e-14,
        )

    def test_conformal_vanishes_at_origin(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        gen = special_conformal(rng.normal(size=metric.dim), spin="vector")
        npt.assert_allclose(
            delta(gen, A, np.zeros(metric.dim), metric),
            0.0,
            atol=1e-14,
        )

    def test_matches_richardson_of_finite_map(self, metric4, rng):
        # Richardson-extrapolated parameter derivative of the finite transform
        A = sampling.random_offshell_potential(rng, metric4)
        d = canonical_weight(4)
        c = rng.normal(0, 0.3, 4)
        gen = special_conformal(c, spin="vector")
        for x in sampling.timelike_points(rng, 4, 5):
            target = delta(gen, A, x, metric4)
            factory = lambda t: FiniteVectorTransform(A, t * c, d, metric4)
            coarse = finite_variation_fd(factory, x, 2e-2)
            fine = finite_variation_fd(factory, x, 1e-2)
            richardson = (4.0 * fine - coarse) / 3.0
            npt.assert_allclose(richardson, target, atol=1e-6)

    def test_gradient_helper_matches_fd(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        gen = special_conformal(rng.normal(0, 0.3, 4), spin="vector")
        x = rng.normal(size=4)
        _, dout = delta_with_gradient(gen, A, x, metric4)
        from confsym.fields import fd_gradient

        fd = fd_gradient(lambda y: delta(gen, A, y, metric4), x, 1e-5)
        npt.assert_allclose(dout, fd, atol=1e-6)


class TestDeltaFieldStrength:
    def test_primary_and_induced_agree_at_four_dimensions(self, rng):
        g = Metric(4)
        A = sampling.random_offshell_potential(rng, g)
        c = rng.normal(0, 0.4, 4)
        gen = special_conformal(c, spin="vector")
        gen_f = special_conformal(c, weight=2.0, spin="field-strength")
        for x in sampling.points(rng, 4, 6):
            induced = delta_field_strength(gen, A, x, g)
            fs = Jet(A, x)
            primary = variation(gen_f, fs.F, fs.dF, x, g)
            npt.assert_allclose(induced, primary, atol=1e-12)

    @pytest.mark.parametrize("dim", [3, 5, 6])
    def test_discrepancy_closed_form(self, dim, rng):
        g = Metric(dim)
        A = sampling.random_offshell_potential(rng, g)
        c = rng.normal(0, 0.4, dim)
        gen = special_conformal(c, spin="vector")
        gen_f = special_conformal(c, weight=dim / 2.0, spin="field-strength")
        for x in sampling.points(rng, dim, 6):
            induced = delta_field_strength(gen, A, x, g)
            fs = Jet(A, x)
            primary = variation(gen_f, fs.F, fs.dF, x, g)
            cl = g.lower(c)
            val = A.value(x)
            expected = (dim - 4.0) * (np.outer(cl, val) - np.outer(cl, val).T)
            npt.assert_allclose(induced - primary, expected, atol=1e-12)

    def test_dilation_weight_on_field_strength(self, metric, rng):
        # the field strength scales with weight D/2
        A = sampling.random_offshell_potential(rng, metric)
        gen = dilation(1.0, metric.dim, weight=metric.dim / 2.0, spin="field-strength")
        for x in sampling.points(rng, metric.dim, 5):
            fs = Jet(A, x)
            via_primary = variation(gen, fs.F, fs.dF, x, metric)
            expected = np.einsum("abm,m->ab", fs.dF, x) + 0.5 * metric.dim * fs.F
            npt.assert_allclose(via_primary, expected, atol=1e-12)
            # the induced variation agrees: dilations never mix in the potential
            npt.assert_allclose(
                delta_field_strength(gen, A, x, metric), expected, atol=1e-12
            )

    def test_gradient_route_matches_fd(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        gen = special_conformal(rng.normal(0, 0.3, 4), spin="vector")
        x = rng.normal(size=4)
        dout = delta_field_strength_gradient(gen, A, x, metric4)
        from confsym.fields import fd_gradient

        fd = fd_gradient(lambda y: delta_field_strength(gen, A, y, metric4), x, 1e-5)
        npt.assert_allclose(dout, fd, atol=1e-6)


class TestEomViolation:
    def test_four_dimensions_gives_zero(self, rng):
        g = Metric(4)
        A = sampling.random_onshell_potential(rng, g)
        for x in sampling.points(rng, 4, 5):
            lhs, rhs = eom_violation_conformal(A, x, g, rng.normal(0, 0.3, 4))
            npt.assert_allclose(lhs, 0.0, atol=1e-12)
            npt.assert_allclose(rhs, 0.0, atol=1e-12)

    def test_five_dimensions_closed_form(self, rng):
        g = Metric(5)
        A = sampling.random_onshell_potential(rng, g)
        for x in sampling.points(rng, 5, 6):
            lhs, rhs = eom_violation_conformal(A, x, g, rng.normal(0, 0.3, 5))
            assert np.max(np.abs(rhs)) > 1e-3  # genuinely nonzero
            npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_constant_potential_gives_zero(self, metric, rng):
        A = CosineMultiplet(np.zeros(metric.dim), metric.lower(rng.normal(size=metric.dim)), 0.0, metric)
        lhs, rhs = eom_violation_conformal(
            A, rng.normal(size=metric.dim), metric, np.ones(metric.dim)
        )
        npt.assert_allclose(lhs, 0.0, atol=1e-14)
        npt.assert_allclose(rhs, 0.0, atol=1e-14)


class TestLieDerivative:
    def test_translation_is_pure_transport(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        a = rng.normal(size=4)
        gen = translation(a, spin="vector")
        for x in sampling.points(rng, 4, 5):
            direct, via_fs = lie_derivative_vector(gen, A, x, metric4)
            expected = A.grad(x) @ a
            npt.assert_allclose(direct, expected, atol=1e-13)
            npt.assert_allclose(via_fs, expected, atol=1e-13)

    def test_both_forms_agree(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        gens = [
            dilation(0.7, metric.dim, spin="vector"),
            special_conformal(rng.normal(0, 0.3, metric.dim), spin="vector"),
        ]
        for x in sampling.points(rng, metric.dim, 5):
            for gen in gens:
                direct, via_fs = lie_derivative_vector(gen, A, x, metric)
                npt.assert_allclose(direct, via_fs, atol=1e-12)

    def test_weight_shift_from_lie_derivative(self, metric, rng):
        dim = metric.dim
        A = sampling.random_offshell_potential(rng, metric)
        gens = [
            dilation(0.7, dim, spin="vector"),
            special_conformal(rng.normal(0, 0.3, dim), spin="vector"),
        ]
        for x in sampling.points(rng, dim, 5):
            for gen in gens:
                lie, _ = lie_derivative_vector(gen, A, x, metric)
                varied = delta(gen, A, x, metric)
                shift = (
                    (dim - 4.0)
                    / (2.0 * dim)
                    * killing_divergence(gen, x, metric)
                    * A.value(x)
                )
                npt.assert_allclose(varied - lie, shift, atol=1e-12)

    def test_gauge_response(self, metric, rng):
        # the delta-minus-Lie piece shifts by its weight factor times dOmega,
        # while the Lie derivative shifts by a pure gauge term
        dim = metric.dim
        A = sampling.random_offshell_potential(rng, metric)
        om = CosineMultiplet(rng.normal(0, 0.5, dim), [0.9], 0.0, metric)
        shifted = ShiftedPotential(A, om)
        gen = special_conformal(rng.normal(0, 0.3, dim), spin="vector")
        for x in sampling.points(rng, dim, 5):
            div = killing_divergence(gen, x, metric)
            d_om = om.grad(x)[0]
            diff_base = (
                delta(gen, A, x, metric)
                - lie_derivative_vector(gen, A, x, metric)[0]
            )
            diff_shifted = (
                delta(gen, shifted, x, metric)
                - lie_derivative_vector(gen, shifted, x, metric)[0]
            )
            npt.assert_allclose(
                diff_shifted - diff_base,
                (dim - 4.0) / (2.0 * dim) * div * d_om,
                atol=1e-12,
            )
            lie_shift = (
                lie_derivative_vector(gen, shifted, x, metric)[0]
                - lie_derivative_vector(gen, A, x, metric)[0]
            )
            f = killing_vector(gen, x, metric)
            df = killing_gradient(gen, x, metric)
            pure_gauge = om.hess(x)[0] @ f + df.T @ d_om  # gradient of f.dOmega
            npt.assert_allclose(lie_shift, pure_gauge, atol=1e-12)


class TestCommutator:
    def test_hand_oracle_on_quadratic(self, rng):
        # phi = x^0 x^1 at D = 3: worked by hand, the bracket value is
        # -2((x^0)^2 + (x^1)^2)
        g = Metric(3)
        phi = PolynomialMultiplet(3, [[(1.0, (1, 1, 0))]])
        xs = sampling.points(rng, 3, 6)
        lhs, rhs = commutator_stack(phi, xs, g)
        oracle = -2.0 * (xs[:, 0] ** 2 + xs[:, 1] ** 2)
        npt.assert_allclose(lhs[:, 0, 1, 0], oracle, rtol=0, atol=1e-12)
        npt.assert_allclose(rhs[:, 0, 1, 0], oracle, rtol=0, atol=1e-12)

    def test_plane_wave_all_pairs(self, metric, rng):
        f = sampling.random_plane_wave_multiplet(rng, metric, 2)
        lhs, rhs = commutator_stack(f, sampling.points(rng, metric.dim, 4), metric)
        assert lhs.shape == (4, metric.dim, metric.dim, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_polynomial_fields(self, rng):
        g = Metric(3)
        f = sampling.random_polynomial_multiplet(rng, 3, 2)
        lhs, rhs = commutator_stack(f, sampling.points(rng, 3, 4), g)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_equal_indices_reduce_to_dilation(self, metric4, rng):
        # no rotation term survives when the two indices coincide
        f = sampling.random_plane_wave_multiplet(rng, metric4, 1)
        d = canonical_weight(4)
        xs = sampling.points(rng, 4, 4)
        lhs, rhs = commutator_stack(f, xs, metric4)
        dilat = np.einsum("pim,pm->pi", f.grad(xs), xs) + d * f.value(xs)
        for s in range(4):
            npt.assert_allclose(rhs[:, s, s], -2.0 * metric4.diag[s] * dilat, atol=1e-12)
            npt.assert_allclose(lhs[:, s, s], rhs[:, s, s], atol=1e-10)


class TestFiniteScalar:
    def test_zero_parameter_is_identity(self, metric4, rng):
        f = sampling.random_plane_wave_multiplet(rng, metric4, 2)
        view = FiniteScalarTransform(f, np.zeros(4), 1.0, metric4)
        for x in sampling.points(rng, 4, 5):
            npt.assert_allclose(view.value(x), f.value(x), atol=1e-14)

    def test_composition_law(self, metric, rng):
        f = sampling.random_plane_wave_multiplet(rng, metric, 1)
        d = canonical_weight(metric.dim)
        for x in sampling.points(rng, metric.dim, 10):
            c1 = sampling.small_parameters(rng, metric.dim, 1, scale=0.05)[0]
            c2 = sampling.small_parameters(rng, metric.dim, 1, scale=0.05)[0]
            try:
                once = FiniteScalarTransform(f, c1 + c2, d, metric).value(x)
                steps = FiniteScalarTransform(
                    FiniteScalarTransform(f, c1, d, metric), c2, d, metric
                ).value(x)
            except SingularMap:
                continue
            npt.assert_allclose(steps, once, atol=1e-12)

    @pytest.mark.parametrize("n_comp", [2, 3])
    def test_as_many_points_as_components(self, n_comp, same_bits):
        # the conformal factor scales each point's components: with one
        # point per component it used to scale across points instead
        g = Metric(4)
        rng = np.random.default_rng(n_comp)
        f = sampling.random_plane_wave_multiplet(rng, g, n_comp)
        xs = sampling.points(rng, 4, n_comp)
        cs = sampling.small_parameters(rng, 4, n_comp, scale=0.05)
        for c in (cs[0], cs):
            view = FiniteScalarTransform(f, c, 1.3, g)
            rows = [FiniteScalarTransform(f, c if c.ndim == 1 else c[i], 1.3, g).value(x) for i, x in enumerate(xs)]
            same_bits(view.value(xs), rows)

    def test_small_parameter_limit(self, metric4, rng):
        f = sampling.random_plane_wave_multiplet(rng, metric4, 2)
        d = canonical_weight(4)
        c = rng.normal(0, 0.4, 4)
        gen = special_conformal(c)
        for x in sampling.timelike_points(rng, 4, 4):
            target = delta(gen, f, x, metric4)
            errs = []
            for eps in (1e-2, 1e-3):
                est = finite_variation_fd(
                    lambda t: FiniteScalarTransform(f, t * c, d, metric4), x, eps
                )
                errs.append(np.max(np.abs(est - target)))
            order = np.log10(errs[0] / errs[1])
            assert order > 1.9

    def test_singular_branch_rejected(self, metric4):
        from confsym.geometry import conformal_factor, special_conformal_map

        f = CosineMultiplet(np.zeros(4), [1.0], 0.0, metric4)
        c = np.array([1.0, 0, 0, 0])
        x = np.array([0.0, 2, 0, 0])
        assert conformal_factor(x, c, metric4) < 0  # negative branch
        y = special_conformal_map(x, c, metric4)
        view = FiniteScalarTransform(f, c, 0.5, metric4)
        with pytest.raises(SingularMap):
            view.value(y)


class TestFiniteVector:
    def test_zero_parameter_is_identity(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        view = FiniteVectorTransform(A, np.zeros(4), 1.0, metric4)
        x = sampling.off_cone_points(rng, 4, 1)[0]
        npt.assert_allclose(view.value(x), A.value(x), atol=1e-14)

    def test_routes_agree(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        count = 0
        xs = sampling.timelike_points(rng, metric.dim, 40)
        cs = sampling.small_parameters(rng, metric.dim, 40, scale=0.08)
        for x, c in zip(xs, cs):
            try:
                a = FiniteVectorTransform(A, c, 1.0, metric, route="jacobian").value(x)
                b = FiniteVectorTransform(A, c, 1.0, metric, route="reflection").value(x)
            except SingularMap:
                continue
            count += 1
            npt.assert_allclose(a, b, atol=1e-12)
        assert count > 10

    def test_small_parameter_limit(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        d = canonical_weight(4)
        c = rng.normal(0, 0.4, 4)
        gen = special_conformal(c, spin="vector")
        for x in sampling.timelike_points(rng, 4, 4):
            target = delta(gen, A, x, metric4)
            errs = []
            for eps in (1e-2, 1e-3):
                est = finite_variation_fd(
                    lambda t: FiniteVectorTransform(A, t * c, d, metric4), x, eps
                )
                errs.append(np.max(np.abs(est - target)))
            assert np.log10(errs[0] / errs[1]) > 1.9


class TestFiniteSpinor:
    def test_zero_parameter_is_identity(self, metric4, rng):
        gammas = build_gammas(4)
        psi = sampling.random_spinor(rng, metric4, gammas.size)
        view = FiniteSpinorTransform(psi, np.zeros(4), 1.0, metric4, gammas)
        x = sampling.timelike_points(rng, 4, 1)[0]
        npt.assert_allclose(view.value(x), psi.value(x), atol=1e-14)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_routes_agree(self, dim, rng):
        g = Metric(dim)
        gammas = build_gammas(dim)
        psi = sampling.random_spinor(rng, g, gammas.size)
        count = 0
        xs = sampling.timelike_points(rng, dim, 40)
        cs = sampling.small_parameters(rng, dim, 40, scale=0.05)
        for x, c in zip(xs, cs):
            try:
                a = FiniteSpinorTransform(psi, c, 1.5, g, gammas, route="pair").value(x)
                b = FiniteSpinorTransform(psi, c, 1.5, g, gammas, route="compact").value(x)
            except Exception:
                continue
            count += 1
            npt.assert_allclose(a, b, atol=1e-12)
        assert count > 10

    def test_small_parameter_limit_with_spin(self, metric4, rng):
        gammas = build_gammas(4)
        psi = sampling.random_spinor(rng, metric4, gammas.size)
        d = canonical_weight(4)
        c = rng.normal(0, 0.3, 4)
        gen = special_conformal(c, spin="spinor")
        for x in sampling.timelike_points(rng, 4, 4):
            target = delta(gen, psi, x, metric4, gammas)
            errs = []
            for eps in (1e-2, 1e-3):
                est = finite_variation_fd(
                    lambda t: FiniteSpinorTransform(
                        psi, t * c, d, metric4, gammas, route="compact"
                    ),
                    x,
                    eps,
                )
                errs.append(np.max(np.abs(est - target)))
            assert np.log10(errs[0] / errs[1]) > 1.9


class TestDecoupling:
    def test_bracket_vanishes(self, metric, rng):
        xs = sampling.off_cone_points(rng, metric.dim, 30, min_frac=0.1)
        cs = sampling.small_parameters(rng, metric.dim, 30, scale=0.4)
        for x, c in zip(xs, cs):
            res = decoupling_bracket_residual(x, c, metric)
            assert np.max(np.abs(res)) < 1e-10

    def test_zero_parameter_trivial(self, metric4, rng):
        x = sampling.off_cone_points(rng, 4, 1)[0]
        res = decoupling_bracket_residual(x, np.zeros(4), metric4)
        npt.assert_allclose(res, 0.0, atol=1e-15)

    def test_non_killing_field_fails(self, metric4, rng):
        x = sampling.timelike_points(rng, 4, 1)[0]
        bad = np.zeros(4)
        bad[0] = metric4.norm2(x)
        res = decoupling_bracket_with(bad, x, 0.3 * np.ones(4), metric4)
        assert np.max(np.abs(res)) > 0.01

    def test_spin_term_antisymmetric_when_lowered(self, metric4, rng):
        c = rng.normal(size=4)
        x = rng.normal(size=4)
        n = vector_spin_term(c, x, metric4)
        lowered = n * metric4.diag[None, :]
        npt.assert_allclose(lowered, -lowered.T, atol=1e-14)

    def test_reflected_vector_follows_scalar_rule(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        xs = sampling.off_cone_points(rng, metric.dim, 20, min_frac=0.1)
        cs = sampling.small_parameters(rng, metric.dim, 20, scale=0.4)
        for x, c in zip(xs, cs):
            assert decoupled_vector_residual(A, x, c, metric) < 1e-10

    def test_slashed_spinor_follows_scalar_rule(self, metric, rng):
        gammas = build_gammas(metric.dim)
        psi = sampling.random_spinor(rng, metric, gammas.size)
        xs = sampling.timelike_points(rng, metric.dim, 20)
        cs = sampling.small_parameters(rng, metric.dim, 20, scale=0.4)
        for x, c in zip(xs, cs):
            assert decoupled_spinor_residual(psi, x, c, metric, gammas) < 1e-10


class TestSampleAxis:
    """The spin and vector kernels on (N, D) stacks of points and parameters
    give, bit for bit and in the same dtype, what they give one row at a
    time."""

    @staticmethod
    def _case(dim, n):
        g = Metric(dim)
        rng = np.random.default_rng([dim, n])
        xs = sampling.timelike_points(rng, dim, n)
        cs = sampling.small_parameters(rng, dim, n, scale=0.02)
        return g, rng, xs, cs

    @pytest.mark.parametrize("n", [1, 257])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_stack_equals_rows(self, dim, n, same_bits, basis_rows):
        g, rng, xs, cs = self._case(dim, n)
        pairs = list(zip(xs, cs))
        gammas = build_gammas(dim)
        A = sampling.random_offshell_potential(rng, g)
        psi = sampling.random_spinor(rng, g, gammas.size)
        fs = rng.normal(size=(n, dim))
        for spin, field in (("vector", A), ("spinor", psi)):
            stack = special_conformal(cs, spin=spin)
            same_bits(spin_coefficient(stack, xs, g),
                      [spin_coefficient(special_conformal(c, spin=spin), x, g) for x, c in pairs])
        same_bits(delta(special_conformal(cs, spin="vector"), A, xs, g),
                  [delta(special_conformal(c, spin="vector"), A, x, g) for x, c in pairs])
        for gen in basis_rows(dim):
            vec, spinor = replace(gen, spin="vector"), replace(gen, spin="spinor")
            same_bits(delta(vec, A, xs, g), [delta(vec, A, x, g) for x in xs])
            same_bits(delta(spinor, psi, xs, g, gammas), [delta(spinor, psi, x, g, gammas) for x in xs])
        # the basis stack behind the points and, with a unit axis, in front
        # of them gives each generator's bits
        basis = basis_generators(dim)
        front = replace(basis, **{name: getattr(basis, name)[:, None] for name in ("a", "omega", "lam", "c")})
        for spin, field, extra in (("vector", A, ()), ("spinor", psi, (gammas,))):
            rows = [delta(replace(gen, spin=spin), field, xs, g, *extra) for gen in basis_rows(dim)]
            same_bits(delta(replace(basis, spin=spin), field, xs[:, None, :], g, *extra), np.stack(rows, axis=1))
            same_bits(delta(replace(front, spin=spin), field, xs, g, *extra), rows)
        for part in (0, 1):
            rows = [lie_derivative_vector(gen, A, xs, g)[part] for gen in basis_rows(dim)]
            same_bits(lie_derivative_vector(basis, A, xs[:, None, :], g)[part], np.stack(rows, axis=1))
            same_bits(lie_derivative_vector(front, A, xs, g)[part], rows)
        batch = delta(special_conformal(cs, spin="spinor"), psi, xs, g, gammas)
        assert batch.dtype == complex
        same_bits(batch, [delta(special_conformal(c, spin="spinor"), psi, x, g, gammas) for x, c in pairs])
        same_bits(vector_spin_term(cs, xs, g), [vector_spin_term(c, x, g) for x, c in pairs])
        same_bits(decoupling_bracket_residual(xs, cs, g),
                  [decoupling_bracket_residual(x, c, g) for x, c in pairs])
        same_bits(decoupling_bracket_with(fs, xs, cs, g),
                  [decoupling_bracket_with(f, x, c, g) for f, (x, c) in zip(fs, pairs)])
        same_bits(decoupled_vector_residual(A, xs, cs, g),
                  [decoupled_vector_residual(A, x, c, g) for x, c in pairs])
        same_bits(decoupled_spinor_residual(psi, xs, cs, g, gammas),
                  [decoupled_spinor_residual(psi, x, c, g, gammas) for x, c in pairs])
        phi = sampling.random_plane_wave_multiplet(rng, g, 2)
        for weight in (1.0, 1.3):
            scalar = lambda c: FiniteScalarTransform(phi, c, weight, g)
            for make in [scalar] + self._finite_transforms(A, psi, g, gammas, weight):
                same_bits(make(cs).value(xs), [make(c).value(x) for x, c in pairs])
        assert make(cs).value(xs).dtype == complex

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_gradient_route_keeps_the_variation(self, dim, basis_rows):
        # delta_with_gradient takes its delta from variation, so on stacks it
        # gives delta's bits for every scalar and vector generator
        g, rng, xs, cs = self._case(dim, 33)
        fields = {"scalar": sampling.random_polynomial_multiplet(rng, dim, 2),
                  "vector": sampling.random_offshell_potential(rng, g)}
        for spin, field in fields.items():
            gens = [special_conformal(cs, spin=spin)] + [replace(gen, spin=spin) for gen in basis_rows(dim)]
            for gen in gens:
                varied, _ = delta_with_gradient(gen, Jet(field, xs), xs, g)
                assert varied.tobytes() == delta(gen, field, xs, g).tobytes()
        psi = sampling.random_spinor(rng, g, build_gammas(dim).size)
        with pytest.raises(ValueError):
            delta_with_gradient(special_conformal(cs, spin="spinor"), psi, xs, g)

    @staticmethod
    def _finite_transforms(A, psi, g, gammas, weight=1.0):
        return [
            lambda c: FiniteVectorTransform(A, c, weight, g, route="jacobian"),
            lambda c: FiniteVectorTransform(A, c, weight, g, route="reflection"),
            lambda c: FiniteSpinorTransform(psi, c, weight, g, gammas, route="pair"),
            lambda c: FiniteSpinorTransform(psi, c, weight, g, gammas, route="compact"),
        ]

    def test_single_point_residuals_are_floats(self, metric4, rng):
        x, c = sampling.timelike_points(rng, 4, 1)[0], rng.normal(0.0, 0.1, 4)
        A = sampling.random_offshell_potential(rng, metric4)
        gammas = build_gammas(4)
        psi = sampling.random_spinor(rng, metric4, gammas.size)
        assert type(decoupled_vector_residual(A, x, c, metric4)) is float
        assert type(decoupled_spinor_residual(psi, x, c, metric4, gammas)) is float

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_first_row_off_the_positive_branch_raises(self, dim):
        g, rng, ys, cs = self._case(dim, 9)
        gammas = build_gammas(dim)
        A = sampling.random_offshell_potential(rng, g)
        psi = sampling.random_spinor(rng, g, gammas.size)
        for row in (3, 5):
            # sigma(preimage, c) = -1 / b^2 for y = e_0 and c = e_0 + b e_1
            ys[row] = 0.0
            ys[row, 0] = 1.0
            cs[row] = 0.0
            cs[row, :2] = 1.0, 0.5 + 0.01 * row
        for make in self._finite_transforms(A, psi, g, gammas):
            messages = []
            for rows in (slice(None), 3, 5):
                with pytest.raises(SingularMap) as err:
                    make(cs[rows]).value(ys[rows])
                messages.append(str(err.value))
            assert messages[0] == messages[1] != messages[2]

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_matches_the_per_point_formulas(self, dim):
        # the decoupling residuals written one point at a time, with numpy's
        # per-point operations; the kernels must reproduce their bits
        g, rng, xs, cs = self._case(dim, 40)
        gammas = build_gammas(dim)
        A = sampling.random_offshell_potential(rng, g)
        psi = sampling.random_spinor(rng, g, gammas.size)
        for x, c in zip(xs, cs):
            assert decoupling_bracket_residual(x, c, g).tobytes() == _bracket_per_point(x, c, g).tobytes()
            assert decoupled_vector_residual(A, x, c, g) == _vector_residual_per_point(A, x, c, g)
            assert decoupled_spinor_residual(psi, x, c, g, gammas) == _spinor_residual_per_point(psi, x, c, g, gammas)
            for weight in (1.0, 1.3):
                for route in ("jacobian", "reflection"):
                    value = FiniteVectorTransform(A, c, weight, g, route=route).value(x)
                    assert value.tobytes() == _finite_vector_per_point(A, c, weight, g, route, x).tobytes()
                for route in ("pair", "compact"):
                    value = FiniteSpinorTransform(psi, c, weight, g, gammas, route=route).value(x)
                    assert value.tobytes() == _finite_spinor_per_point(psi, c, weight, g, gammas, route, x).tobytes()


def _inversion_per_point(x, g):
    """(I, dI) of the reflection matrix at one point."""
    x2 = g.norm2(x)
    xl, eye = g.lower(x), np.eye(g.dim)
    grad = np.zeros((g.dim,) * 3)
    grad -= 2.0 * (g.matrix[:, None, :] * x[None, :, None] + xl[:, None, None] * eye[None, :, :]) / x2
    grad += 4.0 * np.einsum("a,b,m->abm", xl, x, xl) / x2**2
    return eye - 2.0 * np.outer(xl, x) / x2, grad


def _killing_per_point(x, c, g):
    return 2.0 * g.dot(c, x) * x - c * g.norm2(x)


def _bracket_per_point(x, c, g):
    imat, grad_i = _inversion_per_point(x, g)
    n = 2.0 * np.outer(g.lower(c), x) - 2.0 * np.outer(c, g.lower(x)).T
    return np.einsum("abm,m->ab", grad_i, _killing_per_point(x, c, g)) - imat @ n


def _scalar_rule_per_point(tilde, d_tilde, x, c, g, weight):
    return d_tilde @ _killing_per_point(x, c, g) + 2.0 * g.dot(c, x) * weight * tilde


def _vector_residual_per_point(A, x, c, g):
    gen = special_conformal(c, spin="vector")
    varied = delta(gen, A, x, g)
    imat, grad_i = _inversion_per_point(x, g)
    value = A.value(x)
    d_tilde = np.einsum("abm,b->am", grad_i, value) + imat @ A.grad(x)
    rule = _scalar_rule_per_point(imat @ value, d_tilde, x, c, g, gen.weight)
    return float(np.max(np.abs(imat @ varied - rule)))


def _spinor_residual_per_point(psi, x, c, g, gammas):
    gen = special_conformal(c, spin="spinor")
    varied = delta(gen, psi, x, g, gammas)
    x2 = g.norm2(x)
    slash = gammas.slash_lower(g.lower(x) / np.sqrt(x2))
    value, grad = psi.value(x), psi.grad(x)
    dxhat = np.eye(g.dim) / np.sqrt(x2) - np.outer(x, g.lower(x)) / x2**1.5
    d_tilde = np.stack(
        [gammas.slash_lower(g.diag * dxhat[:, m]) @ value + slash @ grad[:, m] for m in range(g.dim)],
        axis=-1,
    )
    rule = _scalar_rule_per_point(slash @ value, d_tilde, x, c, g, gen.weight)
    return float(np.max(np.abs(slash @ varied - rule)))


def _finite_vector_per_point(A, c, weight, g, route, y):
    x = special_conformal_map(y, -c, g)
    s = conformal_factor(x, c, g)
    if route == "jacobian":
        return s ** (weight - 1.0) * (map_jacobian(y, -c, g).T @ A.value(x))
    return s**weight * (inversion_matrix(y, g) @ inversion_matrix(x, g) @ A.value(x))


def _finite_spinor_per_point(psi, c, weight, g, gammas, route, y):
    x = special_conformal_map(y, -c, g)
    s = conformal_factor(x, c, g)
    if route == "pair":
        return s**weight * (gamma_slash_unit(y, gammas, g) @ gamma_slash_unit(x, gammas, g) @ psi.value(x))
    mat = np.eye(gammas.size, dtype=complex)
    mat += gammas.slash_lower(g.lower(c)) @ gammas.slash_lower(g.lower(x))
    return s ** (weight - 0.5) * (mat @ psi.value(x))
