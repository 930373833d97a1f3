"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from confsym.clifford import build_gammas, sandwich_identity_residual
from confsym.cli import main
from confsym.dual3 import (
    bianchi_pattern_residual,
    dual_roundtrip_residual,
    improved_stress_from_F,
    improved_stress_scalar_form,
    maxwell_eom_from_dual,
    nonprimary_shift_residual,
)
from confsym.fields import CosineMultiplet, Jet, fd_gradient
from confsym.geometry import (
    Metric,
    basis_generators,
    canonical_weight,
    conformal_factor,
    inversion,
    inversion_matrix,
    killing_residual,
    large_parameter_map,
    special_conformal,
    special_conformal_map,
)
from confsym.mechanics import MechParams, MechState, integrate, so21_bracket_residuals
from confsym.noether import (
    DualScalarModel,
    MaxwellModel,
    action_variation_identity,
    current_divergence_identity,
    field_virial,
    maxwell_stress_trace,
    maxwell_virial_first_principles,
    scale_current_maxwell_divergence,
)
from confsym.transforms import (
    FiniteScalarTransform,
    FiniteSpinorTransform,
    FiniteVectorTransform,
    commutator_stack,
    decoupling_bracket_residual,
    delta,
    finite_variation_fd,
)
from confsym import sampling

SEED = 42
DIMS = (3, 4, 5, 6)
SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def _announce(number, description, worst, bound):
    status = "PASS" if worst <= bound else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description}: max {worst:.3e} vs {bound:.1e}")
    assert worst <= bound, f"criterion {number}: {worst} > {bound}"


def test_criterion_01_composition_law():
    worst = 0.0
    for dim in DIMS:
        g = Metric(dim)
        rng = np.random.default_rng(SEED)
        xs, cs = sampling.nonsingular_pairs(rng, dim, 1000)
        _, cps = sampling.nonsingular_pairs(rng, dim, 1000)
        for x, c, cp in zip(xs, cs, cps):
            s1 = conformal_factor(x, c, g)
            xp = special_conformal_map(x, c, g)
            s2 = conformal_factor(xp, cp, g)
            if abs(s2) < 0.2 or abs(conformal_factor(x, c + cp, g)) < 0.2:
                continue
            worst = max(worst, abs(s1 * s2 - conformal_factor(x, c + cp, g)))
            worst = max(
                worst,
                float(np.max(np.abs(
                    special_conformal_map(xp, cp, g) - special_conformal_map(x, c + cp, g)
                ))),
            )
    _announce(1, "composition law over 1000 samples per dimension", worst, 1e-12)


def test_criterion_02_inversion_matrix():
    worst_alg, worst_fd = 0.0, 0.0
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        g = Metric(dim)
        eye = np.eye(dim)
        for x in sampling.off_cone_points(rng, dim, 200, min_frac=0.15):
            imat = inversion_matrix(x, g)
            worst_alg = max(worst_alg, float(np.max(np.abs(imat @ imat - eye))))
            worst_alg = max(
                worst_alg, float(np.max(np.abs(imat @ g.matrix @ imat.T - g.matrix)))
            )
            worst_alg = max(worst_alg, abs(np.linalg.det(imat) + 1.0))
        for x in sampling.off_cone_points(rng, dim, 50, min_frac=0.15):
            fd = fd_gradient(lambda y: inversion(y, g), x, 1e-6)
            worst_fd = max(worst_fd, float(np.max(np.abs(inversion_matrix(x, g) - g.norm2(x) * fd.T))))
    _announce(2, "reflection matrix algebra (200 samples each)", worst_alg, 1e-12)
    _announce(2, "reflection matrix vs inversion Jacobian", worst_fd, 1e-6)


def test_criterion_03_killing_suite():
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        g = Metric(dim)
        basis = basis_generators(dim)
        assert basis.lam.shape == ((dim + 1) * (dim + 2) // 2,)
        # the basis stack behind each point
        xs = sampling.points(rng, dim, 10, scale=1.0)[:, None, :]
        worst = max(worst, float(np.max(killing_residual(basis, xs, g))))
    _announce(3, "full generator basis solves the Killing equation", worst, 1e-12)


def test_criterion_04_commutator_algebra():
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        g = Metric(dim)
        fields = [
            sampling.random_plane_wave_multiplet(rng, g, 2),
            sampling.random_polynomial_multiplet(rng, dim, 2),
        ]
        for f in fields:
            lhs, rhs = commutator_stack(f, sampling.points(rng, dim, 4), g)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _announce(4, "translation/conformal commutator on both families", worst, 1e-10)


def test_criterion_05_trace_law():
    worst, worst4 = 0.0, 0.0
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        g = Metric(dim)
        A = sampling.random_offshell_potential(rng, g)
        for x in sampling.points(rng, dim, 20):
            F = Jet(A, x).F
            f_up = g.diag[:, None] * F * g.diag[None, :]
            expected = (-1.0 + dim / 4.0) * float(np.sum(f_up * F))
            worst = max(worst, abs(maxwell_stress_trace(A, x, g) - expected))
            if dim == 4:
                worst4 = max(worst4, abs(maxwell_stress_trace(A, x, g)))
    _announce(5, "Maxwell stress trace law", worst, 1e-12)
    _announce(5, "trace vanishes identically at D=4", worst4, 1e-12)


def test_criterion_06_scale_and_conformal_currents():
    worst_scale, worst_conf = 0.0, 0.0
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        g = Metric(dim)
        A = sampling.random_onshell_potential(rng, g)
        for x in sampling.points(rng, dim, 15):
            worst_scale = max(worst_scale, abs(scale_current_maxwell_divergence(A, x, g)))
            c = rng.normal(0.0, 0.4, dim)
            lhs, rhs = current_divergence_identity(special_conformal(c), A, x, g)
            worst_conf = max(worst_conf, abs(lhs - rhs))
            if dim == 4:
                worst_conf = max(worst_conf, abs(lhs))
    _announce(6, "scale current conserved on shell", worst_scale, 1e-10)
    _announce(6, "conformal divergence equals its anomaly", worst_conf, 1e-10)


def test_criterion_07_virial():
    worst, worst4 = 0.0, 0.0
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        g = Metric(dim)
        A = sampling.random_offshell_potential(rng, g)
        model = MaxwellModel(dim)
        for x in sampling.points(rng, dim, 15):
            info = field_virial(model, A, x, g)
            direct = maxwell_virial_first_principles(A, x, g)
            worst = max(worst, float(np.max(np.abs(info.value - direct))))
            if dim == 4:
                worst4 = max(worst4, float(np.max(np.abs(info.value))))
    _announce(7, "Maxwell virial closed form", worst, 1e-12)
    _announce(7, "virial vanishes identically at D=4", worst4, 1e-12)


def test_criterion_08_offshell_action_identities():
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for dim in DIMS:
        g = Metric(dim)
        A = sampling.random_offshell_potential(rng, g)
        model = MaxwellModel(dim)
        for x in sampling.points(rng, dim, 6):
            worst = max(worst, abs(action_variation_identity("scale", model, A, x, g)))
            for s in range(dim):
                worst = max(
                    worst, abs(action_variation_identity("conformal", model, A, x, g, s))
                )
                worst = max(
                    worst,
                    abs(action_variation_identity("conformal-assumed-primary", model, A, x, g, s)),
                )
    g3 = Metric(3)
    phi = sampling.random_polynomial_multiplet(rng, 3, 1)
    dual = DualScalarModel()
    for x in sampling.points(rng, 3, 6):
        for s in range(3):
            worst = max(worst, abs(action_variation_identity("conformal", dual, phi, x, g3, s)))
    _announce(8, "off-shell action variation identities", worst, 1e-10)


def test_criterion_09_dual_sector():
    g = Metric(3)
    rng = np.random.default_rng(SEED)
    poly = sampling.random_polynomial_multiplet(rng, 3, 1, degree=4)
    k = sampling.null_vector(rng, 3, scale=1.1)
    onshell = CosineMultiplet(k, [1.2], 0.4, g)
    worst_exact, worst_id = 0.0, 0.0
    for x in sampling.points(rng, 3, 15):
        worst_exact = max(worst_exact, dual_roundtrip_residual(poly, x, g))
        worst_exact = max(worst_exact, float(np.max(np.abs(maxwell_eom_from_dual(poly, x, g)))))
        worst_exact = max(worst_exact, bianchi_pattern_residual(poly, x, g))
        for s in range(3):
            worst_exact = max(worst_exact, nonprimary_shift_residual(poly, x, s, g))
        theta_f = improved_stress_from_F(onshell, x, g)
        theta_s = improved_stress_scalar_form(onshell, x, g)
        worst_id = max(worst_id, float(np.max(np.abs(theta_f - theta_s))))
        worst_id = max(worst_id, abs(float(np.einsum("m,mm->", g.diag, theta_f))))
    _announce(9, "dual map, interchange and non-primary shift", worst_exact, 1e-12)
    _announce(9, "dual improved stress: trace and form equality", worst_id, 1e-10)


def test_criterion_10_finite_infinitesimal_order():
    rng = np.random.default_rng(SEED)
    worst = -np.inf
    for dim in (3, 4):
        g = Metric(dim)
        gammas = build_gammas(dim)
        d = canonical_weight(dim)
        phi = sampling.random_plane_wave_multiplet(rng, g, 2)
        A = sampling.random_offshell_potential(rng, g)
        psi = sampling.random_spinor(rng, g, gammas.size)
        cases = [
            (lambda c: FiniteScalarTransform(phi, c, d, g),
             lambda c, x: delta(special_conformal(c), phi, x, g)),
            (lambda c: FiniteVectorTransform(A, c, d, g),
             lambda c, x: delta(special_conformal(c, spin="vector"), A, x, g)),
            (lambda c: FiniteSpinorTransform(psi, c, d, g, gammas, route="compact"),
             lambda c, x: delta(special_conformal(c, spin="spinor"), psi, x, g, gammas)),
        ]
        for make_view, variation in cases:
            for x in sampling.timelike_points(rng, dim, 4):
                c = sampling.small_parameters(rng, dim, 1, scale=0.4)[0]
                target = variation(c, x)
                errs = [
                    float(np.max(np.abs(
                        finite_variation_fd(lambda t: make_view(t * c), x, eps) - target
                    )))
                    for eps in (1e-2, 1e-3)
                ]
                order = np.log10(errs[0] / errs[1])
                worst = max(worst, 1.9 - order)
    _announce(10, "finite transforms linearise at order >= 1.9 (slack)", worst, 0.0)


def test_criterion_11_decoupling():
    rng = np.random.default_rng(SEED)
    worst_bracket, worst_gamma = 0.0, 0.0
    for dim in DIMS:
        g = Metric(dim)
        gammas = build_gammas(dim)
        xs = sampling.off_cone_points(rng, dim, 40, min_frac=0.1)
        cs = sampling.small_parameters(rng, dim, 40, scale=0.4)
        for x, c in zip(xs, cs):
            worst_bracket = max(
                worst_bracket, float(np.max(np.abs(decoupling_bracket_residual(x, c, g))))
            )
        for x in sampling.timelike_points(rng, dim, 25):
            worst_gamma = max(worst_gamma, sandwich_identity_residual(x, gammas, g))
    _announce(11, "reflection-transport bracket vanishes", worst_bracket, 1e-10)
    _announce(11, "gamma reflection identity", worst_gamma, 1e-12)


def test_criterion_12_large_parameter_decay():
    g = Metric(4)
    x = np.array([1.3, 0.4, -0.2, 0.1])
    c0 = np.array([0.9, 0.2, 0.1, -0.3])
    errs = []
    for lam in (10.0, 20.0, 40.0):
        c = lam * c0
        errs.append(float(np.max(np.abs(
            special_conformal_map(x, c, g) - large_parameter_map(x, c, g)
        ))))
    worst = max(abs(e1 / e2 - 8.0) / 8.0 for e1, e2 in zip(errs, errs[1:]))
    _announce(12, "large-parameter error decays at third order", worst, 0.2)


def test_criterion_13_mechanics():
    worst_drift = 0.0
    for lam in (0.0, 0.5, 2.0):
        for n in (1, 2, 3):
            q0 = 1.2 * np.ones(n)
            p0 = 0.3 * (-1.0) ** np.arange(n)
            traj = integrate(MechState.make(0.0, q0, p0), MechParams(n, lam), 10.0, 1e-3)
            worst_drift = max(worst_drift, float(np.max(traj.charge_drift())))
    _announce(13, "charge drift over t in [0, 10] at step 1e-3", worst_drift, 1e-8)

    rng = np.random.default_rng(SEED)
    worst_br = 0.0
    for lam in (0.0, 1.0):
        for _ in range(10):
            state = MechState.make(0.0, rng.normal(0, 1, 3) + 2.0, rng.normal(0, 1, 3))
            worst_br = max(worst_br, float(np.max(so21_bracket_residuals(state, MechParams(3, lam)))))
    _announce(13, "bracket table closes", worst_br, 1e-12)

    params = MechParams(1, 1.0)
    state = MechState.make(0.0, [3.0], [-1.0])
    d1 = integrate(state, params, 8.0, 0.05).charge_drift()[0]
    d2 = integrate(state, params, 8.0, 0.025).charge_drift()[0]
    order_err = abs(float(np.log2(d1 / d2)) - 4.0)
    _announce(13, "step halving confirms fourth order", order_err, 0.5)


def test_criterion_14_cli(tmp_path):
    worst = 0.0
    for spec_path in sorted(SPEC_DIR.glob("*.spec")):
        out1 = tmp_path / (spec_path.stem + "-1.json")
        out2 = tmp_path / (spec_path.stem + "-2.json")
        code1 = main(["audit", str(spec_path), "--format", "json", "--out", str(out1)])
        code2 = main(["audit", str(spec_path), "--format", "json", "--out", str(out2)])
        identical = out1.read_bytes() == out2.read_bytes()
        if code1 != 0 or code2 != 0 or not identical:
            worst = 1.0
    data = json.loads((tmp_path / "maxwell_d5-1.json").read_text())
    naive = [c for c in data["checks"] if c["name"] == "conformal-current-naive"]
    if not (naive and naive[0]["expected_fail"] and not naive[0]["passed"] and naive[0]["ok"]):
        worst = 1.0
    _announce(14, "audit determinism, exit codes and expected failure", worst, 0.0)
