from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from confsym.clifford import (
    GammaSet,
    anticommutator_residual,
    build_gammas,
    gamma_slash_unit,
    sandwich_identity_residual,
)
from confsym.errors import DimensionMismatch, NonTimelikePoint, UnsupportedDimension
from confsym.geometry import Metric, inversion_matrix
from confsym.transforms import _spin_action
from confsym import sampling

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_defining_relation_exact(dim):
    gammas = build_gammas(dim)
    assert anticommutator_residual(gammas, Metric(dim)) == 0.0


def test_defining_relation_propagates_nan():
    # a NaN entry must read as NaN, not as an exact pass
    broken = GammaSet(2, [_SX, np.full((2, 2), np.nan)])
    assert np.isnan(anticommutator_residual(broken, Metric(2)))


@pytest.mark.parametrize("dim,size", [(2, 2), (3, 2), (4, 4), (5, 4), (6, 8)])
def test_matrix_sizes(dim, size):
    assert build_gammas(dim).size == size


def test_three_dimensional_pauli_oracle():
    # independent explicit representation: sigma_x, -i sigma_y, i sigma_z
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    oracle = GammaSet(3, [sx, -1j * sy, 1j * sz])
    assert anticommutator_residual(oracle, Metric(3)) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_build_gammas_shares_one_read_only_set_per_dimension(dim):
    gammas = build_gammas(dim)
    assert build_gammas(dim) is gammas
    assert not any(m.flags.writeable for m in gammas.matrices + (gammas.spins,))
    fresh = GammaSet(dim, gammas.matrices)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fresh.matrices, gammas.matrices))
    assert fresh.spins.tobytes() == gammas.spins.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", ["dim", "size", "matrices", "spins"])
def test_shared_set_cannot_be_rebound(dim, name):
    gammas = build_gammas(dim)
    before = (gammas.dim, gammas.size, [m.tobytes() for m in gammas.matrices], gammas.spins.tobytes())
    other = build_gammas(2 if dim > 2 else 3)
    with pytest.raises(AttributeError):
        setattr(gammas, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(gammas, name)
    with pytest.raises(AttributeError):
        gammas.extra = None
    assert build_gammas(dim) is gammas
    after = (gammas.dim, gammas.size, [m.tobytes() for m in gammas.matrices], gammas.spins.tobytes())
    assert after == before
    assert anticommutator_residual(gammas, Metric(dim)) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_the_matrices_are_one_read_only_stack(dim):
    gammas = build_gammas(dim)
    stack = gammas.stack
    assert stack.shape == (dim, gammas.size, gammas.size) and stack.dtype == complex
    assert stack.tobytes() == np.stack(gammas.matrices).tobytes()
    assert all(np.shares_memory(m, stack) for m in gammas.matrices)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 2.0
    with pytest.raises(AttributeError):
        gammas.stack = stack.copy()
    with pytest.raises(AttributeError):
        del gammas.stack


@pytest.mark.parametrize("dim", [1, 7])
def test_unsupported_dimension(dim):
    with pytest.raises(UnsupportedDimension):
        build_gammas(dim)


def test_gamma_set_copies_the_callers_matrices():
    mats = [_SX.copy(), np.eye(2, dtype=complex)]
    gammas = GammaSet(2, mats)
    assert all(m.flags.writeable for m in mats)
    mats[1][0, 0] = 5.0
    assert gammas[1][0, 0] == 1.0
    assert not any(m.flags.writeable for m in gammas.matrices + (gammas.spins,))


@pytest.mark.parametrize(
    "dim,matrices",
    [
        (3, [_SX, _SY]),
        (2, [_SX, _SY, _SZ]),
        (2, [_SX, np.eye(4)]),
        (2, [np.ones((2, 3)), np.ones((2, 3))]),
        (2, [np.ones(2), np.ones(2)]),
        (0, []),
    ],
    ids=["too-few", "too-many", "mixed-sizes", "not-square", "not-matrices", "none"],
)
def test_gamma_set_needs_dim_square_matrices_of_one_size(dim, matrices):
    with pytest.raises(DimensionMismatch):
        GammaSet(dim, matrices)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_spin_matrices_are_stored_commutators(dim):
    gammas = build_gammas(dim)
    for mu in range(dim):
        for nu in range(dim):
            commut = 0.25 * (gammas[mu] @ gammas[nu] - gammas[nu] @ gammas[mu])
            assert gammas.spins[mu, nu].tobytes() == commut.tobytes()


def test_spinor_spin_action_reads_the_stored_spin_matrices(rng):
    # with every stored spin matrix replaced by one marker matrix the action
    # is that marker times the summed coefficients; a gamma set cannot be
    # rebound, so the marker goes on a stand-in with the attributes read
    g = Metric(4)
    marker = np.arange(16.0).reshape(4, 4).astype(complex)
    gammas = SimpleNamespace(size=4, spins=np.broadcast_to(marker, build_gammas(4).spins.shape))
    C = rng.normal(size=(4, 4))
    value = rng.normal(size=4) + 0j
    coefficient = sum(C[mu, nu] - C[nu, mu] for mu in range(4) for nu in range(mu + 1, 4))
    npt.assert_allclose(_spin_action(C, value, "spinor", g, gammas), coefficient * marker @ value)


def test_spin_matrices_antisymmetric():
    gammas = build_gammas(4)
    for mu in range(4):
        npt.assert_array_equal(gammas.spins[mu, mu], np.zeros((4, 4)))
        for nu in range(4):
            npt.assert_array_equal(gammas.spins[mu, nu], -gammas.spins[nu, mu])
            commut = gammas[mu] @ gammas[nu] - gammas[nu] @ gammas[mu]
            npt.assert_array_equal(gammas.spins[mu, nu], 0.25 * commut)


class TestSlashedUnit:
    def test_rest_frame_is_gamma_zero(self):
        g = Metric(4)
        gammas = build_gammas(4)
        slash = gamma_slash_unit(np.array([1.0, 0, 0, 0]), gammas, g)
        npt.assert_array_equal(slash, gammas[0])
        npt.assert_allclose(slash @ slash, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_squares_to_identity(self, dim, rng):
        g = Metric(dim)
        gammas = build_gammas(dim)
        for x in sampling.timelike_points(rng, dim, 20):
            slash = gamma_slash_unit(x, gammas, g)
            npt.assert_allclose(slash @ slash, np.eye(gammas.size), atol=1e-12)

    def test_spacelike_point_rejected(self):
        with pytest.raises(NonTimelikePoint):
            gamma_slash_unit(np.array([0.0, 1, 0, 0]), build_gammas(4), Metric(4))


def _sandwich_by_index(x, gammas, g, imat):
    """The reflection identity's residual, one index pair at a time."""
    slash = gamma_slash_unit(x, gammas, g)
    worst = 0.0
    for mu in range(g.dim):
        lhs = slash @ (g.diag[mu] * gammas[mu]) @ slash
        rhs = np.zeros_like(lhs)
        for nu in range(g.dim):
            rhs -= imat[mu, nu] * g.diag[nu] * gammas[nu]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


class TestSandwichIdentity:
    def test_rest_frame_by_hand(self):
        # at x = e_0 the left side for mu = 0 is gamma_0 and the reflection
        # matrix entry is -1, so both sides equal gamma_0 exactly
        g = Metric(4)
        gammas = build_gammas(4)
        assert sandwich_identity_residual(np.array([1.0, 0, 0, 0]), gammas, g) < 1e-15

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_random_timelike(self, dim, rng):
        g = Metric(dim)
        gammas = build_gammas(dim)
        for x in sampling.timelike_points(rng, dim, 25):
            assert sandwich_identity_residual(x, gammas, g) < 1e-12

    def test_sign_flip_negative_control(self, rng):
        # flipping the reflection matrix sign must leave a residual of order one
        g = Metric(4)
        gammas = build_gammas(4)
        x = sampling.timelike_points(rng, 4, 1)[0]
        assert _sandwich_by_index(x, gammas, g, -inversion_matrix(x, g)) > 1.0

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_equals_the_loop_over_indices(self, dim, rng):
        g = Metric(dim)
        gammas = build_gammas(dim)
        for x in sampling.timelike_points(rng, dim, 25):
            expected = _sandwich_by_index(x, gammas, g, inversion_matrix(x, g))
            assert sandwich_identity_residual(x, gammas, g).hex() == expected.hex()

    def test_spacelike_rejected(self):
        with pytest.raises(NonTimelikePoint):
            sandwich_identity_residual(np.array([0.0, 2, 0, 0]), build_gammas(4), Metric(4))

    def test_nan_point_gives_nan(self):
        # a NaN coordinate must read as NaN, not as an exact pass
        x = np.array([1.0, np.nan, 0.0, 0.0])
        assert np.isnan(sandwich_identity_residual(x, build_gammas(4), Metric(4)))


class TestSampleAxis:
    """The slashed kernels on an (N, D) stack give, bit for bit and in the
    same dtype, what they give one row at a time."""

    @pytest.mark.parametrize("n", [1, 257])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_stack_equals_rows(self, dim, n, same_bits):
        g, gammas = Metric(dim), build_gammas(dim)
        rng = np.random.default_rng([dim, n])
        xs = sampling.timelike_points(rng, dim, n)
        vs = rng.normal(size=(n, dim))
        assert gammas.slash_lower(vs).dtype == complex
        same_bits(gammas.slash_lower(vs), [gammas.slash_lower(v) for v in vs])
        for fn in (gamma_slash_unit, sandwich_identity_residual):
            same_bits(fn(xs, gammas, g), [fn(x, gammas, g) for x in xs])

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_first_spacelike_row_raises(self, dim):
        g, gammas = Metric(dim), build_gammas(dim)
        xs = sampling.timelike_points(np.random.default_rng(dim), dim, 9)
        for row in (3, 5):
            xs[row] = 0.0
            xs[row, :2] = 0.1 * row, 1.0  # x^2 differs per row
        for fn in (gamma_slash_unit, sandwich_identity_residual):
            messages = []
            for rows in (slice(None), 3, 5):
                with pytest.raises(NonTimelikePoint) as err:
                    fn(xs[rows], gammas, g)
                messages.append(str(err.value))
            assert messages[0] == messages[1] != messages[2]
