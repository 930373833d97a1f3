from dataclasses import FrozenInstanceError, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsym.clifford import build_gammas, sandwich_identity_residual
from confsym.errors import (
    DimensionMismatch,
    LightConePoint,
    SingularMap,
    UnsupportedDimension,
)
from confsym.fields import fd_gradient
from confsym.geometry import (
    GeneratorAction,
    Metric,
    _inner,
    _regular_factor,
    basis_generators,
    canonical_weight,
    conformal_factor,
    conformal_jacobian,
    dilation,
    inversion,
    inversion_matrix,
    inversion_matrix_gradient,
    invariant_square,
    killing_divergence,
    killing_divergence_gradient,
    killing_gradient,
    killing_residual,
    killing_residual_from_gradient,
    killing_second_gradient,
    killing_vector,
    large_parameter_map,
    levi_civita3,
    levi_civita3_upper,
    lorentz_rotation,
    map_jacobian,
    sigma_basis_conformal,
    special_conformal,
    special_conformal_map,
    special_conformal_map_via_inversion,
    translation,
)
from confsym.noether import (
    MaxwellModel,
    MultipletModel,
    action_variation_identity,
    bessel_hagen_divergence,
    current_divergence_identity,
    maxwell_stress_trace,
)
from confsym.transforms import decoupled_spinor_residual, decoupled_vector_residual
from confsym import sampling


class TestMinkowskiDot:
    def test_timelike_unit(self):
        g = Metric(4)
        u = np.array([1.0, 0, 0, 0])
        assert g.dot(u, u) == 1.0

    def test_spacelike_unit(self):
        g = Metric(4)
        u = np.array([0.0, 1, 0, 0])
        assert g.dot(u, u) == -1.0

    def test_mixed_vectors(self):
        # oracle by direct arithmetic: 1*1 - (1 * -1) = 2
        g = Metric(4)
        u = np.array([1.0, 1, 0, 0])
        v = np.array([1.0, -1, 0, 0])
        assert g.dot(u, v) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Metric(4).dot(np.ones(3), np.ones(4))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_bilinearity(self, dim, seed):
        g = Metric(dim)
        r = np.random.default_rng(seed)
        u, v, w = r.normal(size=(3, dim))
        assert g.dot(u, v) == g.dot(v, u)
        npt.assert_allclose(
            g.dot(u, v + w),
            g.dot(u, v) + g.dot(u, w),
            atol=1e-12,
        )

    def test_metric_inverse_is_metric(self, metric):
        gmat = metric.matrix
        npt.assert_array_equal(gmat @ gmat, np.eye(metric.dim))

    def test_lower_then_raise_is_identity(self, metric, rng):
        v = rng.normal(size=metric.dim)
        # the metric is its own inverse, so lower also raises
        npt.assert_array_equal(metric.lower(metric.lower(v)), v)

    def test_rejects_dim_zero(self):
        with pytest.raises(UnsupportedDimension):
            Metric(0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_constants_are_built_once_and_read_only(self, dim):
        metric = Metric(dim)
        diag = np.array([1.0] + [-1.0] * (dim - 1))
        for name, want in (("diag", diag), ("matrix", np.diag(diag)), ("identity", np.eye(dim))):
            value = getattr(metric, name)
            assert getattr(metric, name) is value
            assert (value.dtype, value.shape) == (want.dtype, want.shape)
            assert value.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                value[(0,) * value.ndim] = 2.0
            with pytest.raises(FrozenInstanceError):
                setattr(metric, name, want)
        assert Metric.shared(dim).identity is Metric.shared(dim).identity

    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    def test_sigma_parameters_are_rows_of_the_metric(self, dim):
        # the parameter stack as once built: zeros with diag[sigma] put at sigma
        metric = Metric(dim)
        for sigma in (dim - 1, np.arange(dim), np.arange(2 * dim).reshape(2, dim) % dim):
            sigma = np.asarray(sigma)
            want = np.zeros(sigma.shape + (dim,))
            np.put_along_axis(want, sigma[..., None], metric.diag[sigma][..., None], axis=-1)
            got = sigma_basis_conformal(sigma, metric, 1.0, "scalar").c
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable and not np.shares_memory(got, metric.matrix)


class TestConformalFactor:
    def test_zero_parameter(self, metric, rng):
        x = rng.normal(size=metric.dim)
        assert conformal_factor(x, np.zeros(metric.dim), metric) == 1.0

    def test_parallel_parameter(self):
        # x^2 = 1 and c = 0.1 x gives 1 + 0.2 + 0.01 = 1.21
        g = Metric(4)
        x = np.array([1.0, 0, 0, 0])
        assert conformal_factor(x, 0.1 * x, g) == pytest.approx(1.21, abs=1e-15)

    def test_composition_law(self, metric, rng):
        # factor at the mapped point composes multiplicatively
        xs, cs = sampling.nonsingular_pairs(rng, metric.dim, 100)
        _, cps = sampling.nonsingular_pairs(rng, metric.dim, 100)
        for x, c, cp in zip(xs, cs, cps):
            s1 = conformal_factor(x, c, metric)
            xp = special_conformal_map(x, c, metric)
            s2 = conformal_factor(xp, cp, metric)
            assert abs(s1 * s2 - conformal_factor(x, c + cp, metric)) < 1e-12


class TestSpecialConformalMap:
    def test_zero_parameter_is_identity(self, metric, rng):
        x = rng.normal(size=metric.dim)
        npt.assert_array_equal(special_conformal_map(x, np.zeros(metric.dim), metric), x)

    def test_agrees_with_inversion_route(self, metric, rng):
        xs = sampling.off_cone_points(rng, metric.dim, 50)
        cs = sampling.small_parameters(rng, metric.dim, 50)
        for x, c in zip(xs, cs):
            if abs(conformal_factor(x, c, metric)) < 0.2:
                continue
            a = special_conformal_map(x, c, metric)
            b = special_conformal_map_via_inversion(x, c, metric)
            npt.assert_allclose(a, b, atol=1e-12)

    def test_composition_is_additive(self, metric, rng):
        xs, cs = sampling.nonsingular_pairs(rng, metric.dim, 50)
        _, cps = sampling.nonsingular_pairs(rng, metric.dim, 50)
        for x, c, cp in zip(xs, cs, cps):
            xp = special_conformal_map(x, c, metric)
            if abs(conformal_factor(xp, cp, metric)) < 0.2:
                continue
            npt.assert_allclose(
                special_conformal_map(xp, cp, metric),
                special_conformal_map(x, c + cp, metric),
                atol=1e-12,
            )

    def test_singular_map_raises(self):
        g = Metric(4)
        x = np.array([1.0, 0, 0, 0])
        # sigma = 1 + 2 c.x + c^2 x^2 = 0 at c = -x
        with pytest.raises(SingularMap):
            special_conformal_map(x, -x, g)


class TestInversion:
    def test_simple_point(self):
        g = Metric(4)
        npt.assert_array_equal(
            inversion(np.array([2.0, 0, 0, 0]), g), np.array([0.5, 0, 0, 0])
        )

    def test_involution(self, metric, rng):
        for x in sampling.off_cone_points(rng, metric.dim, 50):
            npt.assert_allclose(inversion(inversion(x, metric), metric), x, atol=1e-12)

    def test_null_vector_rejected(self):
        with pytest.raises(LightConePoint):
            inversion(np.array([1.0, 1, 0, 0]), Metric(4))


class TestInversionMatrix:
    def test_rest_frame(self):
        g = Metric(4)
        imat = inversion_matrix(np.array([1.0, 0, 0, 0]), g)
        npt.assert_array_equal(imat, np.diag([-1.0, 1.0, 1.0, 1.0]))

    def test_determinant_is_minus_one(self, metric, rng):
        for x in sampling.off_cone_points(rng, metric.dim, 50):
            assert abs(np.linalg.det(inversion_matrix(x, metric)) + 1.0) < 1e-10

    def test_squares_to_identity(self, metric, rng):
        for x in sampling.off_cone_points(rng, metric.dim, 50):
            imat = inversion_matrix(x, metric)
            npt.assert_allclose(imat @ imat, np.eye(metric.dim), atol=1e-12)

    def test_preserves_metric(self, metric, rng):
        for x in sampling.off_cone_points(rng, metric.dim, 50):
            imat = inversion_matrix(x, metric)
            npt.assert_allclose(imat @ metric.matrix @ imat.T, metric.matrix, atol=1e-12)

    def test_equals_scaled_inversion_jacobian(self, metric, rng):
        # finite-difference oracle for the derivative identity
        for x in sampling.off_cone_points(rng, metric.dim, 30, min_frac=0.15):
            imat = inversion_matrix(x, metric)
            fd = fd_gradient(lambda y: inversion(y, metric), x, 1e-6)
            npt.assert_allclose(imat, metric.norm2(x) * fd.T, atol=1e-6)

    def test_gradient_closed_form(self, metric, rng):
        for x in sampling.off_cone_points(rng, metric.dim, 10, min_frac=0.15):
            grad = inversion_matrix_gradient(x, metric)
            fd = fd_gradient(lambda y: inversion_matrix(y, metric), x, 1e-6)
            npt.assert_allclose(grad, fd, atol=1e-6)

    def test_null_rejected(self):
        with pytest.raises(LightConePoint):
            inversion_matrix(np.array([1.0, 1, 0, 0]), Metric(4))


class TestConformalJacobian:
    def _samples(self, metric, rng, n):
        xs = sampling.off_cone_points(rng, metric.dim, n)
        cs = sampling.small_parameters(rng, metric.dim, n)
        for x, c in zip(xs, cs):
            if abs(conformal_factor(x, c, metric)) < 0.3:
                continue
            if abs(metric.norm2(special_conformal_map(x, c, metric))) < 0.02:
                continue
            yield x, c

    def test_zero_parameter_gives_identity(self, metric, rng):
        x = sampling.off_cone_points(rng, metric.dim, 1)[0]
        fwd, inv = conformal_jacobian(x, np.zeros(metric.dim), metric)
        npt.assert_allclose(fwd, np.eye(metric.dim), atol=1e-14)
        npt.assert_allclose(inv, np.eye(metric.dim), atol=1e-14)

    def test_forward_times_inverse(self, metric, rng):
        for x, c in self._samples(metric, rng, 30):
            fwd, inv = conformal_jacobian(x, c, metric)
            npt.assert_allclose(fwd @ inv, np.eye(metric.dim), atol=1e-12)

    def test_reflection_route_equals_direct(self, metric, rng):
        for x, c in self._samples(metric, rng, 30):
            fwd, _ = conformal_jacobian(x, c, metric)
            npt.assert_allclose(fwd, map_jacobian(x, c, metric), atol=1e-12)

    def test_against_finite_differences(self, metric, rng):
        for x, c in self._samples(metric, rng, 15):
            fwd, _ = conformal_jacobian(x, c, metric)
            fd = fd_gradient(lambda y: special_conformal_map(y, c, metric), x, 1e-5)
            npt.assert_allclose(fwd, fd, atol=1e-6)


class TestKillingVectors:
    def test_dilation_vector_is_position(self):
        g = Metric(4)
        gen = dilation(1.0, 4)
        x = np.array([1.0, 2, 0, 0])
        npt.assert_array_equal(killing_vector(gen, x, g), x)

    def test_translation_is_constant(self, metric, rng):
        a = rng.normal(size=metric.dim)
        gen = translation(a)
        for x in sampling.points(rng, metric.dim, 5):
            npt.assert_array_equal(killing_vector(gen, x, metric), a)

    def test_conformal_vector_hand_value(self):
        # c = e_0 at x = e_1: c.x = 0, x^2 = -1, so f = -c x^2 = +e_0
        g = Metric(4)
        gen = special_conformal(np.array([1.0, 0, 0, 0]))
        x = np.array([0.0, 1, 0, 0])
        npt.assert_array_equal(killing_vector(gen, x, g), np.array([1.0, 0, 0, 0]))

    @pytest.mark.parametrize("stack", [(), (5,), (2, 3), "basis"])
    def test_killing_data_match_finite_differences(self, metric, rng, stack):
        # generators that mix all four parts, alone or stacked, and the basis
        dim = metric.dim
        if stack == "basis":
            gens = basis_generators(dim)
            stack = gens.lam.shape
        else:
            omega = rng.normal(size=stack + (dim, dim))
            gens = GeneratorAction(dim, 1.0, a=rng.normal(size=stack + (dim,)),
                                   omega=omega - np.swapaxes(omega, -1, -2),
                                   lam=rng.normal(size=stack), c=rng.normal(0.0, 0.5, stack + (dim,)))
        # the stack behind each of four points
        x = sampling.points(rng, dim, 4).reshape((4,) + (1,) * len(stack) + (dim,))
        df = killing_gradient(gens, x, metric)
        div = killing_divergence(gens, x, metric)
        fd = lambda fn: fd_gradient(lambda y: fn(gens, y, metric), x, 1e-3)
        npt.assert_allclose(df, fd(killing_vector), atol=1e-9)
        npt.assert_allclose(np.broadcast_to(killing_second_gradient(gens, metric), df.shape + (dim,)),
                            fd(killing_gradient), atol=1e-9)
        npt.assert_allclose(np.broadcast_to(killing_divergence_gradient(gens, metric), div.shape + (dim,)),
                            fd(killing_divergence), atol=1e-9)
        npt.assert_allclose(div, np.trace(df, axis1=-2, axis2=-1), atol=1e-12)
        assert df.shape == (4,) + stack + (dim, dim)
        assert np.max(killing_residual(gens, x, metric)) < 1e-12

    def test_basis_stacks_the_constructors(self, metric, basis_rows):
        dim = metric.dim
        basis, rows = basis_generators(dim), basis_rows(dim)
        assert len(rows) == (dim + 1) * (dim + 2) // 2
        for name in ("a", "omega", "lam", "c"):
            npt.assert_array_equal(getattr(basis, name), np.stack([getattr(row, name) for row in rows]))
        assert (basis.dim, basis.weight, basis.spin) == (dim, canonical_weight(dim), "scalar")

    def test_basis_is_built_once_and_read_only(self):
        basis = basis_generators(4)
        assert basis_generators(4) is basis
        for name in ("a", "omega", "lam", "c"):
            with pytest.raises(ValueError):
                getattr(basis, name)[0] = 2.0
            with pytest.raises(FrozenInstanceError):
                setattr(basis, name, np.zeros(4))
        # compared and hashed by identity, as a GammaSet is: no array truth test
        assert basis == basis and {basis: 1}[basis_generators(4)] == 1
        assert dilation(1.0, 4) != dilation(1.0, 4)

    def test_lorentz_parameter_must_be_antisymmetric(self):
        with pytest.raises(ValueError):
            lorentz_rotation(np.eye(3))

    def test_unknown_spin_tag(self):
        with pytest.raises(ValueError):
            GeneratorAction(4, 1.0, lam=1.0, spin="tensor-soup")

    @pytest.mark.parametrize("make,error", [
        (lambda: translation(1.0), DimensionMismatch),
        (lambda: special_conformal(1.0), DimensionMismatch),
        (lambda: lorentz_rotation(np.zeros(3)), DimensionMismatch),
        (lambda: GeneratorAction(3, 0.5, omega=np.zeros((3, 4))), DimensionMismatch),
        (lambda: GeneratorAction(3, 0.5, c=np.zeros((3, 1))), DimensionMismatch),
        (lambda: translation(np.zeros(0)), UnsupportedDimension),
        (lambda: special_conformal(np.zeros((4, 0))), UnsupportedDimension),
        (lambda: dilation(1.0, 0), UnsupportedDimension),
        (lambda: lorentz_rotation(np.zeros((0, 0))), UnsupportedDimension),
        (lambda: basis_generators(0), UnsupportedDimension),
    ], ids=["translation-scalar", "conformal-scalar", "rotation-vector",
            "omega-shape", "c-shape", "translation-d0", "conformal-d0", "dilation-d0", "rotation-d0", "basis-d0"])
    def test_constructors_reject_bad_dimensions(self, make, error):
        with pytest.raises(error):
            make()

    def test_generator_must_act_at_the_metric_dimension(self, metric3, basis_rows):
        x = np.full(3, 0.1)
        for gen in basis_rows(4) + [basis_generators(4)]:
            for fn in (killing_vector, killing_gradient, killing_divergence, killing_residual):
                with pytest.raises(DimensionMismatch):
                    fn(gen, x, metric3)
            for fn in (killing_second_gradient, killing_divergence_gradient):
                with pytest.raises(DimensionMismatch):
                    fn(gen, metric3)


class TestKillingEquation:
    def test_all_generators_satisfy_it(self, metric, rng):
        # the basis stack behind each point
        xs = sampling.points(rng, metric.dim, 10, scale=1.0)[:, None, :]
        assert np.max(killing_residual(basis_generators(metric.dim), xs, metric)) < 1e-12

    def test_corrupted_rotation_fails(self, metric):
        # a symmetric spatial part injected by hand violates the equation
        # (a symmetric time-space pair would be a legitimate boost)
        df = np.zeros((metric.dim, metric.dim))
        df[1, 2] = df[2, 1] = 1.0
        assert killing_residual_from_gradient(df, metric) > 0.5

    def test_dilation_gradient_structure(self, metric, rng):
        c = 0.7
        gen = dilation(c, metric.dim)
        x = rng.normal(size=metric.dim)
        df = killing_gradient(gen, x, metric)
        lowered = (metric.diag[:, None] * df).T
        npt.assert_array_equal(lowered + lowered.T, 2.0 * c * metric.matrix)
        assert killing_divergence(gen, x, metric) == c * metric.dim


class TestLargeParameterMap:
    def test_third_order_decay(self, metric4):
        x = np.array([1.3, 0.4, -0.2, 0.1])
        c0 = np.array([0.9, 0.2, 0.1, -0.3])
        errs = []
        for lam in (10.0, 20.0, 40.0):
            c = lam * c0
            exact = special_conformal_map(x, c, metric4)
            errs.append(np.max(np.abs(exact - large_parameter_map(x, c, metric4))))
        for e1, e2 in zip(errs, errs[1:]):
            assert abs(e1 / e2 - 8.0) < 0.2 * 8.0

    def test_leading_term_dominates(self, metric4):
        x = np.array([0.7, 0.2, 0.1, 0.0])
        c = 50.0 * np.array([1.0, 0.1, 0.0, -0.2])
        approx = large_parameter_map(x, c, metric4)
        lead = c / metric4.norm2(c)
        assert np.linalg.norm(approx - lead) < 0.2 * np.linalg.norm(lead)

    def test_error_at_scale_hundred(self, metric4):
        # The absolute deviation sits far below 1e-4 on the unit scale of x;
        # measured relative to the (small) image it is a few times 1e-4.
        x = np.array([1.0, 0.0, 0.0, 0.0])
        c = 100.0 * np.array([0.9, 0.2, 0.1, -0.3])
        exact = special_conformal_map(x, c, metric4)
        approx = large_parameter_map(x, c, metric4)
        assert np.linalg.norm(exact - approx) < 1e-4
        assert np.linalg.norm(exact - approx) < 1e-3 * np.linalg.norm(exact)

    def test_null_parameter_rejected(self, metric4):
        with pytest.raises(LightConePoint):
            large_parameter_map(
                np.array([1.0, 0, 0, 0]), np.array([1.0, 1.0, 0, 0]), metric4
            )


class TestLeviCivita:
    def test_normalisation(self):
        eps = levi_civita3()
        assert eps[0, 1, 2] == 1.0
        assert eps[1, 0, 2] == -1.0

    def test_total_antisymmetry(self):
        eps = levi_civita3()
        npt.assert_array_equal(eps, -np.swapaxes(eps, 0, 1))
        npt.assert_array_equal(eps, -np.swapaxes(eps, 1, 2))
        npt.assert_array_equal(eps, -np.swapaxes(eps, 0, 2))

    def test_raised_symbol_keeps_sign(self, metric3):
        # two spatial sign flips cancel in this signature
        npt.assert_array_equal(levi_civita3_upper(metric3), levi_civita3())


def _sample_axis_case(dim, n):
    """n points and parameters, drawn so that every map kernel is defined."""
    metric = Metric(dim)
    rng = np.random.default_rng([dim, n])
    xs = sampling.off_cone_points(rng, dim, n)
    cs = sampling.small_parameters(rng, dim, n)
    return metric, xs, cs


class TestSampleAxis:
    """Each map kernel on an (N, D) stack gives, bit for bit, what it gives
    one row at a time; a single row keeps its float or array type."""

    @pytest.mark.parametrize("n", [1, 257])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_stack_equals_rows(self, dim, n, same_bits, basis_rows):
        g, xs, cs = _sample_axis_case(dim, n)
        pairs = list(zip(xs, cs))
        same_bits(g.dot(xs, cs), [g.dot(x, c) for x, c in pairs])
        same_bits(g.norm2(xs), [g.norm2(x) for x in xs])
        same_bits(g._check(xs), [g._check(x) for x in xs])
        same_bits(g.lower(xs), [g.lower(x) for x in xs])
        same_bits(invariant_square(xs, g), [invariant_square(x, g) for x in xs])
        same_bits(conformal_factor(xs, cs, g), [conformal_factor(x, c, g) for x, c in pairs])
        for batch, rows in zip(_regular_factor(xs, cs, g), zip(*[_regular_factor(x, c, g) for x, c in pairs])):
            same_bits(batch, rows)
        for fn in (special_conformal_map, special_conformal_map_via_inversion, map_jacobian):
            same_bits(fn(xs, cs, g), [fn(x, c, g) for x, c in pairs])
        same_bits(large_parameter_map(xs, 30.0 * cs, g), [large_parameter_map(x, 30.0 * c, g) for x, c in pairs])
        fwd, inv = conformal_jacobian(xs, cs, g)
        same_bits(fwd, [conformal_jacobian(x, c, g)[0] for x, c in pairs])
        same_bits(inv, [conformal_jacobian(x, c, g)[1] for x, c in pairs])
        for fn in (inversion, inversion_matrix, inversion_matrix_gradient):
            same_bits(fn(xs, g), [fn(x, g) for x in xs])
        # one parameter for every point, as a finite-difference oracle calls it
        same_bits(special_conformal_map(xs, cs[0], g), [special_conformal_map(x, cs[0], g) for x in xs])
        same_bits(fd_gradient(lambda y: inversion(y, g), xs, 1e-6),
                   [fd_gradient(lambda y: inversion(y, g), x, 1e-6) for x in xs])
        rows = basis_rows(dim)
        for gen in rows + [special_conformal(cs[0])]:
            for fn in (killing_vector, killing_divergence):
                same_bits(fn(gen, xs, g), [fn(gen, x, g) for x in xs])
            df = killing_gradient(gen, xs, g)
            same_bits(df, [killing_gradient(gen, x, g) for x in xs])
            same_bits(killing_residual_from_gradient(df, g),
                       [killing_residual_from_gradient(row, g) for row in df])
            same_bits(killing_residual(gen, xs, g), [killing_residual(gen, x, g) for x in xs])
        # one special conformal parameter per sample
        stack = special_conformal(cs)
        for fn in (killing_vector, killing_gradient, killing_divergence):
            same_bits(fn(stack, xs, g), [fn(special_conformal(c), x, g) for x, c in pairs])
        # the basis stack behind the points and, with a unit axis, in front
        basis = basis_generators(dim)
        front = replace(basis, **{name: getattr(basis, name)[:, None] for name in ("a", "omega", "lam", "c")})
        for fn in (killing_vector, killing_gradient, killing_divergence, killing_residual):
            same_bits(fn(basis, xs[:, None, :], g), np.stack([fn(gen, xs, g) for gen in rows], axis=1))
            same_bits(fn(front, xs, g), [fn(gen, xs, g) for gen in rows])
        for fn in (killing_second_gradient, killing_divergence_gradient):
            same_bits(fn(basis, g), [fn(gen, g) for gen in rows])

    def test_parameter_stack_must_end_in_the_dimension(self):
        assert special_conformal(np.zeros((5, 3))).c.shape == (5, 3)
        with pytest.raises(DimensionMismatch):
            translation(np.zeros((5, 3)))

    def test_a_single_point_is_a_one_row_stack(self, metric4, rng, basis_rows):
        # a single point runs the stack code: a scalar result is an
        # np.float64 with the bits of the one-row stack's row
        g, x, c = metric4, sampling.timelike_points(rng, 4, 1)[0], rng.normal(0.0, 0.1, 4)
        A = sampling.random_offshell_potential(rng, g)
        phi = sampling.random_plane_wave_multiplet(rng, g, 2, null=True)
        gammas = build_gammas(4)
        psi = sampling.random_spinor(rng, g, gammas.size)
        scalars = [
            lambda x, c: g.dot(x, c),
            lambda x, c: g.norm2(x),
            lambda x, c: conformal_factor(x, c, g),
            lambda x, c: killing_residual(special_conformal(c), x, g),
            *(lambda x, c, gen=gen: killing_divergence(gen, x, g) for gen in basis_rows(4)),
            lambda x, c: sandwich_identity_residual(x, gammas, g),
            lambda x, c: action_variation_identity("conformal", MaxwellModel(4), A, x, g, 2),
            lambda x, c: maxwell_stress_trace(A, x, g),
            lambda x, c: bessel_hagen_divergence(special_conformal(c), MultipletModel(4, 2), phi, x, g),
            lambda x, c: decoupled_vector_residual(A, x, c, g),
            lambda x, c: decoupled_spinor_residual(psi, x, c, g, gammas),
        ]
        for kernel in scalars:
            single, rows = kernel(x, c), kernel(x[None], c[None])
            assert type(single) is np.float64 and rows.shape == (1,)
            assert single.tobytes() == rows[0].tobytes()
        for kernel, shape in ((special_conformal_map, (4,)), (map_jacobian, (4, 4))):
            single = kernel(x, c, g)
            assert single.shape == shape
            assert single.tobytes() == kernel(x[None], c[None], g)[0].tobytes()
        assert current_divergence_identity(dilation(1.0, 4), A, x, g)[1] == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_first_singular_row_raises(self, dim):
        g, xs, cs = _sample_axis_case(dim, 257)
        null, singular = xs.copy(), cs.copy()
        for row in (3, 5):
            # x^2 and sigma below the floor, at different values in each row
            null[row] = 0.0
            null[row, :2] = 1.0, 1.0 + 1e-12 * row
            lam = 1.0 + 1e-6 * row  # sigma(x, -lam x / x^2) = (1 - lam)^2
            singular[row] = -lam * xs[row] / g.norm2(xs[row])
        cases = [
            (LightConePoint, inversion, (null,)),
            (LightConePoint, inversion_matrix, (null,)),
            (LightConePoint, inversion_matrix_gradient, (null,)),
            (LightConePoint, special_conformal_map_via_inversion, (null, cs)),
            (SingularMap, special_conformal_map, (xs, singular)),
            (SingularMap, map_jacobian, (xs, singular)),
            (SingularMap, conformal_jacobian, (xs, singular)),
        ]
        for error, fn, args in cases:
            messages = []
            for rows in (slice(None), 3, 5):
                with pytest.raises(error) as err:
                    fn(*(a[rows] for a in args), g)
                messages.append(str(err.value))
            assert messages[0] == messages[1] != messages[2]

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_floor_error_names_its_sample(self, dim):
        # a stack's error carries the index of its first rejected sample, a
        # single point's carries 0 and any error but a floor test's None
        g, xs, cs = _sample_axis_case(dim, 257)
        null = xs.copy()
        null[[3, 5], :2] = 1.0, 1.0
        null[[3, 5], 2:] = 0.0
        with pytest.raises(LightConePoint) as err:
            inversion(null, g)
        assert err.value.sample == 3
        with pytest.raises(LightConePoint) as err:
            inversion(null[5], g)
        assert err.value.sample == 0
        with pytest.raises(DimensionMismatch) as err:
            inversion(xs[:, :-1], g)
        assert err.value.sample is None


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_commutator_algebra_evaluates_each_fixture_once(dim, monkeypatch):
    # two fields at four points each: one (value, grad, hess) call per field
    # on its four points, where one call per point made eight
    from collections import Counter

    from confsym.fields import CosineMultiplet, PolynomialMultiplet
    from confsym.modelspec import ModelSpec
    from confsym.suites import run_suite

    calls = Counter()
    for cls in (CosineMultiplet, PolynomialMultiplet):
        for name in ("value", "grad", "hess", "third"):
            def counting(self, x, _name=name, _evaluate=getattr(cls, name)):
                calls[_name] += 1
                return _evaluate(self, x)

            monkeypatch.setattr(cls, name, counting)
    report = run_suite(ModelSpec(kind="interacting-multiplet", dimension=dim,
                                 checks=["commutator-algebra"]))
    assert report.checks[0].ok and report.checks[0].samples == 8 * dim * dim
    assert calls == {"value": 2, "grad": 2, "hess": 2}


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("dim", range(1, 9))
def test_inner_has_the_bits_of_the_one_vector_dot(dim):
    # magnitudes spread over 16 decades, so a different summation order
    # shows in the last bits
    rng = np.random.default_rng(dim)
    wide = rng.normal(size=(40, 2 * dim)) * 10.0 ** rng.integers(-8, 8, size=(40, 2 * dim))
    xs, ys = np.ascontiguousarray(wide[:, :dim]), np.ascontiguousarray(wide[:, dim:])
    stack = wide[:3, None, ::-1][..., :dim]
    assert _hexes(_inner(xs, ys)) == _hexes([float(u @ v) for u, v in zip(xs, ys)])
    # column slices of one array, as a sampler's pairs are
    cols = wide[:, :dim], wide[:, dim:]
    assert _hexes(_inner(*cols)) == _hexes([float(u @ v) for u, v in zip(*cols)])
    assert _hexes(_inner(ys[0], xs)) == _hexes([float(ys[0] @ v) for v in xs])
    got = _inner(stack, xs)
    assert got.shape == (3, 40)
    assert _hexes(got) == _hexes([float(g[0] @ v) for g in stack for v in xs])
    assert isinstance(_inner(xs[0], ys[0]), float)


@pytest.mark.parametrize("dim", range(1, 7))
def test_shared_metric_is_read_only(dim):
    g = Metric.shared(dim)
    assert Metric.shared(dim) is g
    diag = g.diag.copy()
    for name in ("dim", "diag"):
        with pytest.raises(AttributeError):
            setattr(g, name, 2)
        with pytest.raises(AttributeError):
            delattr(g, name)
    with pytest.raises(ValueError):
        g.diag[0] = 2.0
    assert g.dim == dim and g.diag.tobytes() == diag.tobytes()
    assert Metric.shared(dim) is g
