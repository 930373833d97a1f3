import numpy as np
import numpy.testing as npt
import pytest

from confsym.errors import OffShellParameters
from confsym.fields import (
    CosineMultiplet,
    GaussianMultiplet,
    Jet,
    PolynomialMultiplet,
    ShiftedPotential,
    fd_gradient,
    make_onshell_maxwell_plane_wave,
)
from confsym.geometry import Metric, inversion, killing_vector, special_conformal, special_conformal_map
from confsym import dual3, sampling


def fd_oracle(func, x, direction: int, step: float):
    """Central difference (f(x + h e_mu) - f(x - h e_mu)) / 2h in one
    direction, two calls of ``func``: the loop that fd_gradient stacks."""
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.shape[-1])
    e[direction] = step
    plus = np.asarray(func(x + e))
    minus = np.asarray(func(x - e))
    return (plus - minus) / (2.0 * step)


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
            assert abs(Jet(f, x).box(metric4)[0]) < 1e-12

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

    @pytest.mark.parametrize("k, eps", [([0.0, 0, 0, 0], [0.0, 1, 0, 0]), ([1.0, 0, 0, 1], [0.0, 0, 0, 0]),
                                        ([1.0, 0, 0, 1], [2.0, 0, 0, 2])])
    def test_wave_with_no_field_strength_rejected(self, metric4, k, eps):
        with pytest.raises(OffShellParameters, match="F = 0"):
            make_onshell_maxwell_plane_wave(np.array(k), np.array(eps), metric4)


class TestPlaneWavePotential:
    """A plane-wave potential is the D-component cosine multiplet of its
    lower components, whichever constructor builds it."""

    @staticmethod
    def _potentials(g):
        """(A, k, eps, phase) per constructor, eps with its index up; the
        random ones are redrawn from a generator in the same state."""
        dim = g.dim
        rng, mirror = np.random.default_rng([dim, 1]), np.random.default_rng([dim, 1])
        A = sampling.random_offshell_potential(rng, g)
        yield A, mirror.normal(0.0, 0.8, dim), mirror.normal(0.0, 1.0, dim), mirror.uniform(0.0, 2.0 * np.pi)
        A = sampling.random_onshell_potential(rng, g)
        k = sampling.null_vector(mirror, dim, scale=mirror.uniform(0.5, 1.5))
        eps = sampling.transverse_polarisation(mirror, k, g)
        yield A, k, eps, mirror.uniform(0.0, 2.0 * np.pi)
        yield make_onshell_maxwell_plane_wave(k, eps, g, 0.3), k, eps, 0.3
        if dim == 3:
            # the polarisation solves the duality condition (tested in
            # test_dual3); lowering it twice is exact
            _, A = dual3.matched_plane_wave_pair(k, 0.9, 0.4, g)
            yield A, k, g.lower(A.amplitude), 0.4

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_value_is_the_lowered_polarisation_times_the_cosine(self, dim):
        g = Metric(dim)
        xs = sampling.points(np.random.default_rng(dim), dim, 7)
        for A, k, eps, phase in self._potentials(g):
            assert A.dim == A.n_comp == dim
            rows = [g.lower(eps) * np.cos(float(x @ g.lower(k)) + phase) for x in xs]
            for x, row in zip(xs, rows):
                assert A.value(x).tobytes() == row.tobytes()
            assert A.value(xs).tobytes() == np.array(rows).tobytes()


class TestFieldStrength:
    def test_constant_potential_gives_zero(self, metric4, rng):
        A = CosineMultiplet(np.zeros(4), metric4.lower([0.3, 1, 0, 0]), 0.0, metric4)
        fs = Jet(A, rng.normal(size=4))
        assert np.all(fs.F == 0)
        assert np.all(fs.dF == 0)

    def test_linear_potential_hand_values(self, metric4):
        # A_1 = sin(x^0), linear in x^0 at x^0 = 0: F_{01} = 1, F_{10} = -1,
        # everything else zero
        A = CosineMultiplet([1.0, 0, 0, 0], metric4.lower([0.0, -1, 0, 0]), -np.pi / 2, metric4)
        fs = Jet(A, np.array([0.0, -0.2, 0.5, 0.1]))
        expected = np.zeros((4, 4))
        expected[0, 1] = 1.0
        expected[1, 0] = -1.0
        npt.assert_array_equal(fs.F, expected)

    def test_plane_wave_closed_form(self, metric4, rng):
        # F_{ab} = -(k_a eps_b - k_b eps_a) sin(k.x + phase)
        k = rng.normal(size=4)
        eps = rng.normal(size=4)
        A = CosineMultiplet(k, metric4.lower(eps), 0.4, metric4)
        kl, el = metric4.lower(k), metric4.lower(eps)
        wedge = np.outer(kl, el) - np.outer(el, kl)
        for x in sampling.points(rng, 4, 10):
            fs = Jet(A, x)
            phase = float(kl @ x) + 0.4
            npt.assert_allclose(fs.F, -wedge * np.sin(phase), atol=1e-12)

    def test_antisymmetry_is_exact(self, metric, rng):
        A = sampling.random_offshell_potential(rng, metric)
        fs = Jet(A, rng.normal(size=metric.dim))
        npt.assert_array_equal(fs.F, -fs.F.T)
        npt.assert_array_equal(fs.dF, -np.swapaxes(fs.dF, 0, 1))


class TestFdOracle:
    def test_linear_field_exact(self):
        func = lambda x: 3.0 * x[..., 0] - 2.0 * x[..., 2]
        x = np.array([0.3, 0.1, -0.4, 0.2])
        for h in (1e-1, 1e-3, 1e-6):
            fd = fd_gradient(func, x, h)
            assert fd[0] == pytest.approx(3.0, abs=1e-9)
            assert fd[2] == pytest.approx(-2.0, abs=1e-9)

    def test_cosine_within_taylor_bound(self, metric4, rng):
        k = rng.normal(size=4)
        kl = metric4.lower(k)
        func = lambda x: np.cos(x @ kl)
        for x in sampling.points(rng, 4, 10):
            fd = fd_gradient(func, x, 1e-5)
            for mu in range(4):
                exact = -kl[mu] * np.sin(float(kl @ x))
                assert abs(fd[mu] - exact) < 1e-6

    def test_quadratic_exact_up_to_rounding(self):
        func = lambda x: x[..., 1] * x[..., 1] + 2.0 * x[..., 0] * x[..., 1]
        x = np.array([0.7, -0.3])
        npt.assert_allclose(fd_gradient(func, x, 0.1)[1], 2 * x[1] + 2 * x[0], atol=1e-12)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda x: x[..., 0], np.zeros(2), 0.0)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_one_call_equals_the_direction_loop(self, dim):
        # fd_gradient calls func once, on every stepped point, and gives the
        # bits of the two-calls-per-direction loop, on one point and on a
        # stack whose per-sample parameters broadcast against the steps
        g = Metric(dim)
        rng = np.random.default_rng(dim)
        xs = sampling.off_cone_points(rng, dim, 7)
        cs = sampling.small_parameters(rng, dim, len(xs))
        wave = sampling.random_plane_wave_multiplet(rng, g, 2)
        gen = special_conformal(rng.normal(size=dim))
        calls = []

        def counted(func):
            def wrapped(y):
                calls.append(np.shape(y))
                return func(y)
            return wrapped

        cases = [
            (lambda y: inversion(y, g), xs, 1e-6),
            (lambda y: special_conformal_map(y, cs, g), xs, 1e-5),
            (lambda y: killing_vector(gen, y, g), xs[0], 1e-6),
            (wave.value, xs, 1e-5),
            (wave.grad, xs[0], 1e-5),
        ]
        for func, x, step in cases:
            loop = np.stack([fd_oracle(func, x, mu, step) for mu in range(dim)], axis=-1)
            calls.clear()
            fd = fd_gradient(counted(func), x, step)
            assert calls == [(dim, 2) + x.shape]
            assert fd.flags.c_contiguous
            assert fd.dtype == loop.dtype and fd.shape == loop.shape
            assert [v.hex() for v in fd.ravel()] == [v.hex() for v in loop.ravel()]


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


def per_monomial_table(poly, order):
    """The derivative tables as built one entry at a time: every monomial of
    a component is differentiated along the entry's whole index, dropped
    when its coefficient becomes zero, and written into zero-padded arrays
    element by element.  The oracle of the order-by-order tables."""
    def derive(coef, exps, direction):
        e = exps[direction]
        if e == 0:
            return 0.0, exps
        new = list(exps)
        new[direction] = e - 1
        return coef * e, tuple(new)

    entries = []
    for comp in poly.components:
        for idx in np.ndindex(*(poly.dim,) * order):
            terms = []
            for coef, exps in comp:
                for d in idx:
                    coef, exps = derive(coef, exps, d)
                    if coef == 0.0:
                        break
                else:
                    terms.append((coef, exps))
            entries.append(terms)
    width = max([1] + [len(terms) for terms in entries])
    coefs = np.zeros((len(entries), width))
    exps = np.zeros((len(entries), width, poly.dim), dtype=int)
    for row, terms in enumerate(entries):
        for col, (coef, e) in enumerate(terms):
            coefs[row, col] = coef
            exps[row, col] = e
    return coefs, exps


def _random_components(rng, dim):
    """One to three components of up to six monomials, with zero and signed
    zero coefficients and zero exponents among them, total degree <= 4."""
    components = []
    for _ in range(int(rng.integers(1, 4))):
        monos = []
        for _ in range(int(rng.integers(0, 7))):
            coef = [0.0, -0.0, 1.0, -2.5, float(rng.normal())][int(rng.integers(0, 5))]
            exps = rng.integers(0, 3, dim)
            while exps.sum() > 4:
                exps = rng.integers(0, 2, dim)
            monos.append((coef, tuple(exps.tolist())))
        components.append(monos)
    return components


class TestPolynomialTables:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_order_by_order_equals_the_per_monomial_loop(self, dim):
        rng = np.random.default_rng(dim)
        polys = [PolynomialMultiplet(dim, _random_components(rng, dim)) for _ in range(12)]
        polys.append(sampling.random_polynomial_multiplet(rng, dim, 2))
        ones = tuple(int(mu < 4) for mu in range(dim))
        polys.append(PolynomialMultiplet(dim, [[(0.0, ones)], [(3.0, (0,) * dim), (-0.0, (0,) * dim)]]))
        for poly in polys:
            # highest order first: the tables below it are built on the way
            for order in (3, 2, 1, 0):
                got, want = poly._table(order), per_monomial_table(poly, order)
                for a, b in zip(got, want):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape)
                    assert a.tobytes() == b.tobytes()

    def test_zero_terms_drop_after_order_zero(self):
        poly = PolynomialMultiplet(2, [[(0.0, (2, 0)), (1.5, (0, 0)), (2.0, (1, 1))]])
        coefs, exps = poly._table(0)
        assert coefs.tolist() == [[0.0, 1.5, 2.0]]
        coefs, exps = poly._table(1)
        assert coefs.tolist() == [[2.0], [2.0]]
        assert exps.tolist() == [[[0, 1]], [[1, 0]]]
        coefs, exps = poly._table(2)
        assert coefs.tolist() == [[0.0], [2.0], [2.0], [0.0]]


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
        om = PolynomialMultiplet(4, [[(3.0, (0, 0, 0, 0)), (1.0, (1, 0, 0, 0)),
                                      (-2.0, (0, 1, 0, 0)), (0.5, (0, 0, 1, 0))]])
        x = rng.normal(size=4)
        assert om.value(x)[0] == pytest.approx(3.0 + slope @ x)
        npt.assert_array_equal(om.grad(x)[0], slope)
        assert np.all(om.hess(x) == 0)

    def test_gradient_against_fd(self, metric4, rng):
        om = CosineMultiplet(rng.normal(size=4), [0.7], 0.0, metric4)
        for x in sampling.points(rng, 4, 5):
            npt.assert_allclose(om.grad(x), fd_gradient(om.value, x, 1e-5), atol=1e-6)

    def test_shift_keeps_field_strength(self, metric4, rng):
        A = sampling.random_offshell_potential(rng, metric4)
        om = CosineMultiplet(rng.normal(size=4), [0.7], 0.0, metric4)
        shifted = ShiftedPotential(A, om)
        for x in sampling.points(rng, 4, 5):
            fs0 = Jet(A, x)
            fs1 = Jet(shifted, x)
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
        gauge = CosineMultiplet(rng.normal(size=dim), [0.7], 0.3, g)
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
        assert gauge.value(x).shape == (1,)
        assert multiplet.value(x).shape == (3,)
        assert gauge.grad(x).shape == (1, 4)
