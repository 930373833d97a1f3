import ast
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confsym.suites as suites
from confsym import mechanics
from confsym.cli import _json_bytes, emit_report, main
from confsym.errors import ConfsymError
from confsym.modelspec import ModelSpec
from confsym.suites import RunReport, applicable_checks, run_suite

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CHECK_KEYS = {"name", "dim", "samples", "max_residual", "tolerance", "seed", "ok", "error"}

SMALL_MAXWELL = """
[model]
kind = maxwell
dimension = 4

[suite]
checks = map-composition, killing-equation, stress-trace-law
seed = 7
"""


@pytest.fixture
def small_spec(tmp_path):
    path = tmp_path / "small.spec"
    path.write_text(SMALL_MAXWELL)
    return path


def test_audit_exits_zero_and_is_deterministic(small_spec, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["audit", str(small_spec), "--format", "json", "--out", str(out1)]) == 0
    assert main(["audit", str(small_spec), "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_audit_text_output(small_spec, tmp_path):
    out = tmp_path / "r.txt"
    assert main(["audit", str(small_spec), "--format", "text", "--out", str(out)]) == 0
    text = out.read_text()
    assert "PASS" in text
    assert "overall: PASS" in text
    # each check line carries its wall time beside the sample count; the
    # json has no timing, so a report of the saved file prints none
    lines = [line for line in text.splitlines() if line.startswith("  ")]
    assert len(lines) == 3
    assert all(re.search(r"\(n=\d+, \d+\.\d ms\)$", line) for line in lines)
    saved, again = tmp_path / "r.json", tmp_path / "again.txt"
    assert main(["audit", str(small_spec), "--format", "json", "--out", str(saved)]) == 0
    assert all(set(check) == CHECK_KEYS for check in json.loads(saved.read_text())["checks"])
    assert main(["report", str(saved), "--format", "text", "--out", str(again)]) == 0
    reported = [line for line in again.read_text().splitlines() if line.startswith("  ")]
    assert reported == [re.sub(r", \d+\.\d ms\)$", ")", line) for line in lines]


def test_audit_bad_spec_exits_two(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("[model]\nkind = maxwell\ndimension = 4\nbogus = 1\n")
    assert main(["audit", str(path)]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_audit_non_finite_coupling_exits_two(tmp_path, capsys, value):
    path = tmp_path / "coupling.spec"
    path.write_text(f"[model]\nkind = mechanics\ndimension = 1\n[params]\nlambda = {value}\n")
    assert main(["audit", str(path)]) == 2
    assert f"bad float value '{value}'" in capsys.readouterr().err


def test_audit_failing_tolerance_exits_one(tmp_path):
    path = tmp_path / "strict.spec"
    path.write_text(
        "[model]\nkind = maxwell\ndimension = 4\n"
        "[suite]\nchecks = map-composition\n"
        "[tolerances]\nexact = 1e-30\n"
    )
    out = tmp_path / "r.json"
    assert main(["audit", str(path), "--format", "json", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["overall_ok"] is False
    text_out = tmp_path / "r.txt"
    assert main(["audit", str(path), "--format", "text", "--out", str(text_out)]) == 1
    text = text_out.read_text()
    assert "FAIL" in text and "overall: FAIL" in text


def test_shipped_specs_all_pass(tmp_path):
    for spec_path in sorted(SPEC_DIR.glob("*.spec")):
        out = tmp_path / (spec_path.stem + ".json")
        code = main(["audit", str(spec_path), "--format", "json", "--out", str(out)])
        assert code == 0, spec_path.name


def test_d5_maxwell_passes_every_check(tmp_path):
    out = tmp_path / "d5.json"
    assert main(["audit", str(SPEC_DIR / "maxwell_d5.spec"), "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [c["name"] for c in data["checks"]] == applicable_checks("maxwell")
    assert all(c["ok"] for c in data["checks"])


# -- faults in the virial that the conformal checks must see -----------------


def _audit(spec_stem):
    """The checks of a shipped spec's audit, by name."""
    from confsym.modelspec import parse_spec

    report = run_suite(parse_spec((SPEC_DIR / f"{spec_stem}.spec").read_text()))
    return {check.name: check for check in report.checks}


def _audit_with_virial(monkeypatch, spec_stem, edit):
    """The audit of a shipped spec, with every field_virial result of a
    model passed through ``edit(model, info)``."""
    from confsym import noether

    original = noether.field_virial
    faulty = lambda model, fields, x, metric: edit(model, original(model, fields, x, metric))
    monkeypatch.setattr(noether, "field_virial", faulty)
    monkeypatch.setattr(suites, "field_virial", faulty)
    return _audit(spec_stem)


def _scaled(kind, factor):
    from confsym.noether import VirialInfo

    def edit(model, info):
        if not isinstance(model, kind):
            return info
        return VirialInfo(info.value * factor, info.is_total_divergence, info.potential)

    return edit


@pytest.mark.parametrize("stem", ["general_scalar_quadratic_d4", "general_scalar_quadratic_d6"])
def test_a_scaled_scalar_virial_fails_the_conformal_identity(monkeypatch, stem):
    from confsym.noether import GeneralScalarModel

    checks = _audit_with_virial(monkeypatch, stem, _scaled(GeneralScalarModel, 1.0 + 1e-6))
    assert not checks["action-conformal-identity"].ok


@pytest.mark.parametrize("dim", [3, 5, 6])
def test_a_scaled_maxwell_virial_fails_the_conformal_current(monkeypatch, dim):
    from confsym.noether import MaxwellModel

    checks = _audit_with_virial(monkeypatch, f"maxwell_d{dim}", _scaled(MaxwellModel, 1.0 + 1e-6))
    assert not checks["conformal-current-naive"].ok


@pytest.mark.parametrize("dim", [3, 5, 6])
def test_a_scaled_maxwell_virial_current_fails_the_scale_current(monkeypatch, dim):
    # the Maxwell branch's virial term of bessel_hagen_divergence,
    # (4 - D)/(2D) (d(d.f) . F A + d.f d(F A)), is linear in d.f and its
    # gradient: scaling both scales the term, which is 0 at D = 4
    from confsym import noether

    for name in ("killing_divergence", "killing_divergence_gradient"):
        original = getattr(noether, name)
        monkeypatch.setattr(noether, name, lambda *args, original=original: original(*args) * (1.0 + 1e-6))
    checks = _audit(f"maxwell_d{dim}")
    assert not checks["scale-current-conservation"].ok
    assert not checks["current-construction-equivalence"].ok


@pytest.mark.parametrize("charge", [0, 1, 2], ids=["H", "D", "K"])
def test_a_scaled_charge_fails_the_bracket_table(monkeypatch, charge):
    original = mechanics.charges

    def faulty(state, params):
        values = list(original(state, params))
        values[charge] = values[charge] * (1.0 + 1e-6)
        return tuple(values)

    monkeypatch.setattr(mechanics, "charges", faulty)
    assert not _audit("mechanics")["mech-so21"].ok


@pytest.mark.parametrize("stem", ["general_scalar_quadratic_d4", "general_scalar_quadratic_d6"])
def test_a_claimed_divergence_fails_on_its_witness(monkeypatch, stem):
    from confsym.noether import VirialInfo

    def claim(model, info):
        # sigma^{0a}(y) = y^0 V^a: its divergence reproduces V at every
        # sample, so the finite-difference test alone would pass it
        def potential(y):
            sigma = np.zeros(np.shape(y) + np.shape(y)[-1:])
            sigma[..., 0, :] = y[..., :1] * info.value
            return sigma

        return VirialInfo(info.value, True, potential)

    check = _audit_with_virial(monkeypatch, stem, claim)["virial-structure"]
    # V(2 dPhi) = 8 V(dPhi) for the z^2 profile: the witness reads 3
    assert not check.ok and check.error is None and abs(check.max_residual - 3.0) < 1e-9


def test_a_denied_divergence_fails_on_its_witness(monkeypatch):
    from confsym.noether import VirialInfo

    deny = lambda model, info: VirialInfo(info.value, False)
    check = _audit_with_virial(monkeypatch, "general_scalar_linear_d5", deny)["virial-structure"]
    # the linear profile's V is exactly linear in dPhi: the witness reads 0
    assert not check.ok and check.max_residual == suites.NO_DIVERGENCE_FLOOR


def test_json_round_trip_preserves_residuals():
    spec = ModelSpec(kind="maxwell", dimension=4,
                     checks=["map-composition", "stress-trace-law"])
    report = run_suite(spec)
    payload = emit_report(report, "json")
    data = json.loads(payload)
    rebuilt = RunReport.from_dict(data)
    assert emit_report(rebuilt, "json") == payload
    for orig, back in zip(report.checks, rebuilt.checks):
        assert back.max_residual == orig.max_residual
        assert back.tolerance == orig.tolerance


def test_loaded_report_has_no_wall_time():
    # a saved report carries no timing, so its text shows none
    report = run_suite(ModelSpec(kind="maxwell", dimension=4, checks=["map-composition"]))
    assert b"  wall: " in emit_report(report, "text")
    rebuilt = RunReport.from_dict(json.loads(emit_report(report, "json")))
    assert rebuilt.wall_time is None and rebuilt.checks[0].wall_ms is None
    footer = emit_report(rebuilt, "text").decode().splitlines()[-2]
    assert footer == "checks: 1  ok: 1  not ok: 0"


def test_empty_selection_passes():
    spec = ModelSpec(kind="maxwell", dimension=4, checks=[])
    report = run_suite(spec)
    assert report.checks == []
    assert report.overall_ok
    assert json.loads(emit_report(report, "json"))["overall_ok"] is True


def test_run_suite_never_crashes_on_broken_fixture(monkeypatch):
    # force one check to blow up; it must surface as an error report
    import confsym.suites as suites

    def boom(spec, metric, rng):
        raise RuntimeError("fixture exploded")

    monkeypatch.setitem(
        suites.CHECKS,
        "map-composition",
        suites.CheckDef("map-composition", ("maxwell",), "demo", boom),
    )
    spec = ModelSpec(kind="maxwell", dimension=4, checks=["map-composition"])
    report = run_suite(spec)
    assert not report.overall_ok
    assert report.checks[0].error is not None


def test_scan_dims(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["scan-dims", "--kind", "maxwell", "--dims", "4..5",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert [s["spec"]["dimension"] for s in data["scans"]] == [4, 5]
    assert data["overall_ok"] is True


def test_scan_dims_rejects_a_dimension_the_parser_rejects(monkeypatch, capsys):
    # D = 1 has no transverse polarisation: stress-conservation would never
    # return, so the rule must hold before any check runs
    monkeypatch.setattr("confsym.cli.run_suite", lambda spec: pytest.fail("a check ran"))
    assert main(["scan-dims", "--dims", "1"]) == 2
    assert main(["scan-dims", "--dims", "4,7"]) == 2
    assert "3 <= dimension <= 6" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["3..x", "a,4", "5..3"])
def test_scan_dims_bad_dims_exit_two(dims, capsys):
    assert main(["scan-dims", "--dims", dims]) == 2
    assert f"--dims {dims!r}" in capsys.readouterr().err


def test_algebra_command(tmp_path):
    out = tmp_path / "alg.json"
    assert main(["algebra", "--dim", "6", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    names = {c["name"] for c in data["checks"]}
    assert "commutator-algebra" in names
    assert "killing-equation" in names


def test_mech_sim(tmp_path):
    out = tmp_path / "traj.txt"
    code = main(["mech-sim", str(SPEC_DIR / "mechanics.spec"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 10002  # header plus 10001 samples
    row = np.array(lines[1].split(), dtype=float)
    assert row.size == 1 + 2 + 2 + 3


# sha256 of `confsym mech-sim specs/mechanics.spec` output as written before
# the ensemble integrator and the one-format-string dump replaced the
# per-row loops; pins the kernel's bits and the dump's bytes together
MECH_SIM_SHA256 = "5473d59f9255f1f7a3722be466f893f5e0c5988d2ce74dc6461e351eb9cabc3c"


def test_mech_sim_dump_is_pinned(tmp_path):
    out = tmp_path / "traj.txt"
    assert main(["mech-sim", str(SPEC_DIR / "mechanics.spec"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MECH_SIM_SHA256


def test_mech_sim_stdout_is_the_out_file(tmp_path, capsys):
    out = tmp_path / "traj.txt"
    assert main(["mech-sim", str(SPEC_DIR / "mechanics.spec"), "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert main(["mech-sim", str(SPEC_DIR / "mechanics.spec")]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == out.read_bytes()
    assert captured.err == summary


def _mech_sweep_specs():
    """Mechanics specs of 1 to 3 components, free and repulsive, whose step
    counts take every residue modulo the kernel's block of steps."""
    specs = []
    for i, (n, lam, steps) in enumerate(itertools.product((1, 2, 3), (0.0, 0.7), range(40, 44))):
        q0 = ", ".join(str(round(1.2 - 0.1 * k + 0.01 * i, 2)) for k in range(n))
        p0 = ", ".join(str(round(0.3 * (-1) ** k - 0.02 * i, 2)) for k in range(n))
        specs.append(
            f"[model]\nkind = mechanics\ndimension = 1\n[params]\nlambda = {lam}\ncomponents = {n}\n"
            f"[mechanics]\nq0 = {q0}\np0 = {p0}\nt-end = {steps / 100}\nstep = 0.01\n"
            f"[suite]\nchecks = all\nseed = {11 + i}\n"
        )
    assert {steps % mechanics._BLOCK for steps in range(40, 44)} == set(range(mechanics._BLOCK))
    return specs


# sha256 over the exit status and output of `audit --format json` and of
# `mech-sim --out` for each spec of _mech_sweep_specs, as written before the
# RK4 kernel stepped in blocks and the mechanics checks took stacked states,
# in the report schema that gives each check one verdict, with mech-so21
# reading the charges' einsum dot products
MECH_SWEEP_SHA256 = "56c6772fbc0ac7b0a5ebd753f829e5539daf0802b230bf02b9147ff5fd9ffeb1"


def test_mechanics_sweep_is_pinned(tmp_path):
    spec, out = tmp_path / "m.spec", tmp_path / "out"
    digest = hashlib.sha256()
    for text in _mech_sweep_specs():
        spec.write_text(text)
        for argv in (["audit", str(spec), "--format", "json"], ["mech-sim", str(spec)]):
            digest.update(b"%d" % main(argv + ["--out", str(out)]) + out.read_bytes())
    assert digest.hexdigest() == MECH_SWEEP_SHA256


def _specgen():
    """The benchmark's spec generator, ``perfbench/specgen.py``, loaded from
    its file: it imports nothing of confsym and writes nothing."""
    path = SPEC_DIR.parent / "perfbench" / "specgen.py"
    spec = importlib.util.spec_from_file_location("specgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 over the exit status and `--out` bytes of `audit --format json` for
# each spec of specgen.field_specs at seeds 1-40 and each spec of specs/, then
# of `algebra --dim N --format json` for N = 2..6, as written once the two
# Maxwell scale-current checks took the dilation's Killing current on the
# on-shell potential plus a constant field
AUDIT_SWEEP_SHA256 = "8d146a2f54c1ed09ec9ccb45833ecee27cfede00fd663583e146416e5cf83a85"


def test_audit_sweep_is_pinned(tmp_path):
    """The 535 reports of the field sweep keep their bytes and exit statuses.

    Like the golden files, the digest holds only on hosts whose OpenBLAS
    picks the same kernels: a BLAS product's rounding depends on the kernel.
    """
    specgen = _specgen()
    texts = [text for seed in range(1, 41) for _, text in specgen.field_specs(seed)]
    texts += [path.read_text() for path in sorted(SPEC_DIR.glob("*.spec"))]
    assert len(texts) == 530
    spec, out = tmp_path / "s.spec", tmp_path / "out"
    digest = hashlib.sha256()

    def run(argv):
        digest.update(b"%d" % main(argv + ["--format", "json", "--out", str(out)]) + out.read_bytes())

    for text in texts:
        spec.write_text(text)
        run(["audit", str(spec)])
    for dim in range(2, 7):
        run(["algebra", "--dim", str(dim)])
    assert digest.hexdigest() == AUDIT_SWEEP_SHA256


def test_audit_and_mech_sim_start_from_the_same_state(tmp_path, monkeypatch):
    spec = tmp_path / "q0.spec"
    spec.write_text(
        "[model]\nkind = mechanics\ndimension = 1\n[params]\nlambda = 0.5\n"
        "[mechanics]\nq0 = 3.0, 1.0\nt-end = 0.5\nstep = 0.01\n"
        "[suite]\nchecks = mech-charge-drift\n"
    )
    starts, integrate = [], suites.integrate

    def recording(state0, params, t_end, step):
        starts.append(state0)
        return integrate(state0, params, t_end, step)

    monkeypatch.setattr(suites, "integrate", recording)
    assert main(["audit", str(spec)]) == 0
    out = tmp_path / "traj.txt"
    assert main(["mech-sim", str(spec), "--out", str(out)]) == 0
    first = np.array(out.read_text().splitlines()[1].split(), dtype=float)
    assert len(starts) == 1
    npt.assert_array_equal(first[:5], [0.0, 3.0, 1.0, 0.0, 0.0])
    npt.assert_array_equal(np.concatenate([starts[0].q, starts[0].p]), first[1:5])
    report = tmp_path / "report.json"
    assert main(["audit", str(spec), "--format", "json", "--out", str(report)]) == 0
    assert json.loads(report.read_text())["spec"]["components"] == 2  # from q0


@pytest.mark.parametrize("command", ["audit", "mech-sim"])
def test_components_other_than_q0_exit_two(command, tmp_path, capsys):
    # the state size came from q0 while the report echoed components = 3
    spec = tmp_path / "bad.spec"
    spec.write_text("[model]\nkind = mechanics\ndimension = 1\n[params]\ncomponents = 3\n"
                    "[mechanics]\nq0 = 1.0, 2.0\nt-end = 0.1\n")
    assert main([command, str(spec)]) == 2
    assert capsys.readouterr().err.startswith("spec error:")


@pytest.mark.parametrize("kind_line", ["kind = planewave\n", ""])
def test_fixture_without_the_plane_wave_kind_exits_two(kind_line, tmp_path, capsys):
    # such a fixture used to be ignored, the checks falling back to random ones
    spec = tmp_path / "bad.spec"
    spec.write_text("[model]\nkind = interacting-multiplet\ndimension = 4\n"
                    f"[fixture]\n{kind_line}k = 1, 0, 0, 1\n"
                    "[suite]\nchecks = commutator-algebra\n")
    assert main(["audit", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("spec error:")


@pytest.mark.parametrize("k, epsilon, error", [
    ("1, 0, 0, 0.5", "0, 1, 0, 0", "not null"),
    ("1e-7, 0, 0, 5e-8", "0, 1, 0, 0", "not null"),
    ("1, 0, 0, 1", "1, 0, 0, 0", "not transverse"),
    ("0, 0, 0, 0", "0, 1, 0, 0", "F = 0"),
    ("1, 0, 0, 1", "0, 0, 0, 0", "F = 0"),
    ("1, 0, 0, 1", "2, 0, 0, 2", "F = 0"),
], ids=["off-shell-k", "small-off-shell-k", "longitudinal", "zero-k", "zero-epsilon", "parallel"])
def test_maxwell_fixture_off_shell_or_with_no_field_exits_two(k, epsilon, error, tmp_path, capsys):
    # off shell, such a wave failed 8 checks at run time; with F = 0 every
    # check passed
    spec = tmp_path / "bad.spec"
    spec.write_text("[model]\nkind = maxwell\ndimension = 4\n"
                    f"[fixture]\nkind = plane-wave\nk = {k}\nepsilon = {epsilon}\n")
    assert main(["audit", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: fixture") and error in err


@pytest.mark.parametrize("k, status, not_ok", [("1e-7, 0, 0, 1e-7", 0, 0), ("1e150, 0, 0, 1e150", 1, 10)],
                         ids=["small", "large"])
def test_null_wave_vector_parses_at_any_size(k, status, not_ok, tmp_path):
    # nullness is tested against k.k, so the size of k does not decide it;
    # at 1e150 ten checks still fail, at their fixed tolerances
    spec = tmp_path / "wave.spec"
    spec.write_text("[model]\nkind = maxwell\ndimension = 4\n"
                    f"[fixture]\nkind = plane-wave\nk = {k}\nepsilon = 0, 1, 0, 0\n")
    out = tmp_path / "report.json"
    assert main(["audit", str(spec), "--format", "json", "--out", str(out)]) == status
    assert sum(not check["ok"] for check in json.loads(out.read_text())["checks"]) == not_ok


MECH_HEAD = "[model]\nkind = mechanics\ndimension = 1\n[params]\ncomponents = 2\nlambda = 0.5\n"


@pytest.mark.parametrize("command", ["audit", "mech-sim"])
@pytest.mark.parametrize("mechanics", ["p0 = 5.0, 5.0", "q0 = ,", "q0 = 1.0\np0 = ,"])
def test_mechanics_spec_errors_exit_two(command, mechanics, tmp_path, capsys):
    # p0 without q0 used to be dropped silently, and a number list without a
    # number used to reach the integrator as an empty state
    spec = tmp_path / "bad.spec"
    spec.write_text(MECH_HEAD + f"[mechanics]\n{mechanics}\nt-end = 0.1\n")
    assert main([command, str(spec)]) == 2
    assert capsys.readouterr().err.startswith("spec error:")


@pytest.mark.parametrize("command", ["audit", "mech-sim"])
@pytest.mark.parametrize("t_end", ["0.0", "-3.0", "0.0004"])
def test_zero_step_trajectory_exits_two(command, t_end, tmp_path, capsys):
    # 0.0 and -3.0 used to escape main as a ValueError traceback; 0.0004 made
    # a one-point trajectory on which mech-charge-drift passed with drift 0
    spec = tmp_path / "bad.spec"
    spec.write_text(MECH_HEAD + f"[mechanics]\nt-end = {t_end}\nstep = 0.001\n")
    assert main([command, str(spec)]) == 2
    assert capsys.readouterr().err.startswith("spec error:")


@pytest.mark.parametrize("command", ["audit", "mech-sim"])
@pytest.mark.parametrize("mechanics", ["step = 1e-300", "t-end = 1e300\nstep = 1e-300"])
def test_too_many_steps_exits_two(command, mechanics, tmp_path, capsys):
    # both used to escape main as a traceback (exit 1): numpy's "Maximum
    # allowed dimension exceeded" and round()'s OverflowError
    spec = tmp_path / "bad.spec"
    spec.write_text(MECH_HEAD + f"[mechanics]\n{mechanics}\n")
    assert main([command, str(spec)]) == 2
    assert capsys.readouterr().err.startswith("spec error: t-end / step must be at most")


def test_mech_sim_stage_on_zero_radius_exits_two(tmp_path, capsys):
    # RK4 stage 2 of the first step lands on q = 0 exactly: the stage's radius
    # test stops the run as a singular approach, without a traceback or rows
    spec, out = tmp_path / "zero.spec", tmp_path / "traj.txt"
    spec.write_text("[model]\nkind = mechanics\ndimension = 1\n[params]\nlambda = 1.0\n"
                    "[mechanics]\nq0 = 1.0\np0 = -4.0\nt-end = 2.0\nstep = 0.5\n")
    assert main(["mech-sim", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radius dropped below 1e-06 after 0 steps (t = 0.0)\n"
    assert not out.exists()


def test_negative_suite_seed_exits_two(tmp_path, capsys):
    # every check used to report "expected non-negative integer", exit 1
    spec = tmp_path / "bad.spec"
    spec.write_text("[model]\nkind = maxwell\ndimension = 4\n[suite]\nseed = -5\n")
    assert main(["audit", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("spec error:")


def test_duplicated_check_name_exits_two(tmp_path, capsys):
    spec = tmp_path / "twice.spec"
    spec.write_text("[model]\nkind = maxwell\ndimension = 4\n"
                    "[suite]\nchecks = stress-conservation, stress-conservation\n")
    assert main(["audit", str(spec)]) == 2
    assert "check 'stress-conservation' is listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["algebra", "--dim", "4"], ["scan-dims", "--dims", "3..4"]])
def test_negative_command_seed_exits_two_before_any_check(argv, monkeypatch, capsys):
    monkeypatch.setattr("confsym.cli.run_suite", lambda spec: pytest.fail("a check ran"))
    assert main(argv + ["--seed", "-1"]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["[fixture]\namplitude = ,\n", "[suite]\nchecks = ,\n",
                                   "[suite]\nchecks = none\n"])
def test_field_spec_errors_exit_two(extra, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("[model]\nkind = interacting-multiplet\ndimension = 4\n" + extra)
    assert main(["audit", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("spec error:")


@pytest.mark.parametrize("dim, code", [(1, 2), (2, 0), (7, 2)])
def test_algebra_dimension_range(dim, code, capsys):
    assert main(["algebra", "--dim", str(dim)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""  # rejected before any check runs
        assert "2 <= D <= 6" in captured.err
    else:
        assert "overall: PASS" in captured.out


def test_report_reemit(tmp_path, small_spec):
    saved = tmp_path / "r.json"
    main(["audit", str(small_spec), "--format", "json", "--out", str(saved)])
    out = tmp_path / "again.json"
    assert main(["report", str(saved), "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == saved.read_bytes()


def test_report_text_from_saved(tmp_path, small_spec):
    saved = tmp_path / "r.json"
    main(["audit", str(small_spec), "--format", "json", "--out", str(saved)])
    out = tmp_path / "r.txt"
    assert main(["report", str(saved), "--format", "text", "--out", str(out)]) == 0
    assert "overall: PASS" in out.read_text()


def test_check_names_have_descriptions():
    from confsym.suites import CHECKS

    for name, cd in CHECKS.items():
        assert cd.description, name
        assert cd.kinds, name


def test_every_check_has_a_readme_index_row():
    from confsym.suites import CHECKS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    index = readme.split("## Check index", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip().strip("`") for line in index.splitlines() if line.startswith("| `")]
    assert sorted(rows) == sorted(CHECKS)


def test_every_kind_has_checks():
    for kind in ("maxwell", "general-scalar", "interacting-multiplet",
                 "dual-scalar-3", "mechanics"):
        assert applicable_checks(kind)


@pytest.mark.parametrize("spec_path", sorted(SPEC_DIR.glob("*.spec")), ids=lambda p: p.stem)
def test_audit_json_matches_golden_file(spec_path, tmp_path):
    out = tmp_path / "report.json"
    main(["audit", str(spec_path), "--format", "json", "--out", str(out)])
    assert out.read_bytes() == (GOLDEN_DIR / f"{spec_path.stem}.json").read_bytes()


# the shipped specs never run D = 2 or D = 6 through the algebra checks, nor
# every multiplet dimension; these pin what the kernels compute there
GOLDEN_COMMANDS = {
    "algebra_d2": ["algebra", "--dim", "2"],
    "algebra_d6": ["algebra", "--dim", "6"],
    "scan_multiplet_d3-6": ["scan-dims", "--kind", "interacting-multiplet", "--dims", "3..6"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_command_json_matches_golden_file(name, tmp_path):
    out = tmp_path / "report.json"
    assert main(GOLDEN_COMMANDS[name] + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


# sha256 of the output of commands whose bytes no golden file holds, as
# written when the saved-report reader still lived in the cli module, but
# for the footer of a saved report's text, which leaves out the wall time
# it does not know, for the one-verdict report schema, for the 5-wide status
# column and for the scale-current rows of maxwell_d4.json; a live run's
# wall times are masked
PINNED_OUTPUT = {
    "report-text": (["report", str(GOLDEN_DIR / "maxwell_d4.json"), "--format", "text"],
                    "9255c5a7551a09d275bbcc79dbbfa377fe41ec74d7d4ba74c09427b775d53d24"),
    "report-json": (["report", str(GOLDEN_DIR / "maxwell_d4.json"), "--format", "json"],
                    "5fbcaaec0ec9d190fe5c474b73298a8b8b1e54c3a2d7c1b71c8e2b07dd7f1702"),
    "scan-dims-text": (["scan-dims", "--kind", "maxwell", "--dims", "3..4", "--format", "text"],
                       "9619ab00fb0f75c2ff945572258be73489513316a735d94a0a9efc1675f0a398"),
}


def _without_timing(text: bytes) -> bytes:
    """Text output with the wall times of a live run masked."""
    text = re.sub(rb", [0-9.]+ ms\)", b", - ms)", text)
    return re.sub(rb"wall: [0-9.]+s", b"wall: -s", text)


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_command_output_is_pinned(name, tmp_path):
    argv, sha256 = PINNED_OUTPUT[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    payload = out.read_bytes() if argv[0] == "report" else _without_timing(out.read_bytes())
    assert hashlib.sha256(payload).hexdigest() == sha256


HELP_SHA256 = {
    "audit": "8104608592a1eec6299994c6ae0d569f6adce8fa6b3b8f3f11197ea9dd1d1724",
    "scan-dims": "1e4df09c5f3cfa5ca6fc42b4e2fa7c5b98f4b5bdd99cbae67fa52053122ee7f1",
    "mech-sim": "9e1a22525167b0776a306df1e263a70e7050de2892187b334b0ca09a8552ee40",
    "algebra": "8b2b4e6cea47329b42ba90dfebce567ee70c46d3c7ac28a7cec4a40c690cde5f",
    "report": "7f3054eaa3ae806b7b5b6f3b830c53b775e844e3f5d8dc1f5e66dbaa0757e8d1",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_subcommand_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[command]


@pytest.mark.parametrize("edit,message", [
    (lambda check: check.pop("name"), "check 0 has no 'name'"),
    (lambda check: check.update(samples=True), "check 0 'samples' has the wrong type"),
    (lambda check: check.update(max_residual=float("nan")),
     "non-finite number nan in report.checks[0].max_residual"),
], ids=["no-name", "bool-samples", "nan-residual"])
def test_bad_saved_report_messages_are_pinned(edit, message, tmp_path, capsys):
    data = json.loads((GOLDEN_DIR / "maxwell_d4.json").read_text())
    edit(data["checks"][0])
    saved = tmp_path / "bad.json"
    saved.write_text(json.dumps(data))
    assert main(["report", str(saved)]) == 2
    assert capsys.readouterr().err == f"error: saved report: {message}\n"


def test_readme_schema_has_the_keys_a_report_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("JSON report schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    documented = json.loads(block)
    written = json.loads(emit_report(run_suite(ModelSpec(kind="maxwell", dimension=4,
                                                         checks=["map-composition"])), "json"))
    assert documented.keys() == written.keys()
    assert documented["checks"][0].keys() == written["checks"][0].keys()


def _run_patched(monkeypatch, residuals, tolerance="exact"):
    """Run map-composition with its function replaced by one returning
    ``residuals`` in draw order, None at a skipped sample: the residual
    array, or with a skip the pair (evaluated residuals, keep mask); return
    its check report."""
    keep = np.array([r is not None for r in residuals], dtype=bool)
    values = np.array([r for r in residuals if r is not None], dtype=float)
    result = values if keep.all() else (values, keep)
    monkeypatch.setitem(
        suites.CHECKS,
        "map-composition",
        suites.CheckDef("map-composition", ("maxwell",), "demo",
                        lambda spec, metric, rng: result, tolerance),
    )
    report = run_suite(ModelSpec(kind="maxwell", dimension=4, checks=["map-composition"]))
    json.loads(emit_report(report, "json"))  # stays valid, finite json
    assert report.overall_ok == report.checks[0].ok
    return report.checks[0]


def test_samples_counts_evaluated_residuals_only(monkeypatch):
    check = _run_patched(monkeypatch, [None, 2e-13, 1e-13], tolerance="identity")
    assert (check.samples, check.max_residual, check.tolerance) == (2, 2e-13, 1e-10)
    assert check.ok and check.error is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_residual_is_an_error(monkeypatch, bad):
    check = _run_patched(monkeypatch, [1e-15, bad, 1e-15])
    assert not check.ok and check.max_residual == 0.0
    assert "non-finite residual" in check.error and "sample 1" in check.error


def test_non_finite_residual_after_a_skip_names_its_drawn_sample(monkeypatch):
    # the NaN is the second evaluated residual and the third sample drawn
    check = _run_patched(monkeypatch, [None, 1e-15, float("nan"), 1e-15])
    assert not check.ok and check.samples == 3
    assert check.error == "non-finite residual nan at sample 2"


@pytest.mark.parametrize("residuals", [[None] * 5, [], [None, None, None, 0.0, 0.0]])
def test_vacuous_or_mostly_skipped_check_is_an_error(monkeypatch, residuals):
    check = _run_patched(monkeypatch, residuals)
    evaluated = sum(r is not None for r in residuals)
    assert not check.ok and check.max_residual == 0.0 and check.samples == evaluated
    assert f"only {evaluated} of {len(residuals)} samples evaluated" in check.error


def test_half_evaluated_check_passes(monkeypatch):
    check = _run_patched(monkeypatch, [None, 0.0])
    assert check.ok and check.samples == 1


# one shipped spec of each kind
SPEC_PER_KIND = ["maxwell_d4", "general_scalar_linear_d5", "multiplet_d4", "dual_scalar_d3", "mechanics"]


@pytest.mark.parametrize("stem", SPEC_PER_KIND)
def test_every_check_returns_an_array_or_an_array_and_its_mask(stem):
    from confsym.geometry import Metric
    from confsym.modelspec import parse_spec

    spec = parse_spec((Path(__file__).resolve().parents[1] / "specs" / f"{stem}.spec").read_text())
    for name in applicable_checks(spec.kind):
        result = suites.CHECKS[name].fn(spec, Metric(spec.dimension), suites._rng_for(spec, name))
        values, keep = result if isinstance(result, tuple) else (result, None)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1, name
        if keep is not None:
            assert isinstance(keep, np.ndarray) and keep.dtype == bool and keep.ndim == 1, name
            assert keep.sum() == len(values), name


def _saved_report():
    report = run_suite(ModelSpec(kind="maxwell", dimension=4,
                                 checks=["map-composition", "stress-trace-law"]))
    return json.loads(emit_report(report, "json"))


SAVED = _saved_report()


def _edited_saved(path, value=None, delete=False):
    """A copy of SAVED with the entry at ``path`` replaced or deleted."""
    data = json.loads(json.dumps(SAVED))
    *parents, key = path
    target = data
    for part in parents:
        target = target[part]
    if delete:
        del target[key]
    else:
        target[key] = value
    return data


REQUIRED_TOP = ("checks", "version", "spec", "seed")
REQUIRED_CHECK = ("name", "dim", "samples", "max_residual", "tolerance", "seed")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@given(
    path=st.sampled_from([(k,) for k in REQUIRED_TOP + ("wall_time_seconds",)]
                         + [("checks", 0, k) for k in REQUIRED_CHECK + ("expected_fail", "error")]
                         + [("spec", "dimension")]),
    value=JSON_VALUES,
)
@settings(max_examples=300, deadline=None)
def test_report_from_dict_accepts_or_rejects_cleanly(path, value):
    try:
        report = RunReport.from_dict(_edited_saved(path, value))
    except ConfsymError:
        return
    json.loads(emit_report(report, "json"))
    emit_report(report, "text")


@given(path=st.sampled_from([(k,) for k in REQUIRED_TOP] + [("checks", 1, k) for k in REQUIRED_CHECK]))
@settings(max_examples=50, deadline=None)
def test_report_from_dict_rejects_missing_keys(path):
    with pytest.raises(ConfsymError, match="has no"):
        RunReport.from_dict(_edited_saved(path, delete=True))


def test_report_from_dict_fills_the_optional_check_keys():
    data = _edited_saved(("checks", 0, "error"), delete=True)
    data["checks"][1]["error"] = "kept"
    first, second = RunReport.from_dict(data).checks
    assert (first.error, second.error) == (None, "kept")


def test_report_rejects_a_saved_expected_failure(tmp_path, capsys):
    saved = tmp_path / "old.json"
    saved.write_text(json.dumps(_edited_saved(("checks", 1, "expected_fail"), True)))
    assert main(["report", str(saved)]) == 2
    assert capsys.readouterr().err == "error: saved report: check 1 is an expected failure, which the schema no longer has\n"


@pytest.mark.parametrize("old_keys", [{"expected_fail": False}, {"passed": True}, {"passed": False}],
                         ids=["not-expected-to-fail", "passed", "not-passed"])
def test_report_loads_old_keys_it_does_not_read(old_keys):
    data = json.loads(json.dumps(SAVED))
    for check in data["checks"]:
        check.update(old_keys)
    assert RunReport.from_dict(data).to_dict() == SAVED


@given(
    path=st.sampled_from([("checks", 0, "max_residual"), ("checks", 1, "tolerance"),
                          ("spec", "tolerances", "exact"), ("wall_time_seconds",)]),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
@settings(max_examples=30, deadline=None)
def test_report_from_dict_rejects_non_finite_numbers(path, value):
    with pytest.raises(ConfsymError, match="non-finite"):
        RunReport.from_dict(_edited_saved(path, value))


@pytest.mark.parametrize("text", [
    '{"version": "0.1.0", "seed": 42, "spec": {}}',  # no checks
    json.dumps(_edited_saved(("checks", 0, "max_residual"), float("nan"))),  # writes NaN
    '{"checks": [',
    "not json at all",
], ids=["no-checks", "nan", "truncated", "not-json"])
def test_report_rejects_bad_saved_files_with_exit_two(tmp_path, capsys, text):
    saved = tmp_path / "bad.json"
    saved.write_text(text)
    out = tmp_path / "out.json"
    assert main(["report", str(saved), "--format", "json", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_batched_check_reports_the_first_rejecting_kernel(monkeypatch):
    # rows 3 and 5 are null, which the first kernel (inversion_matrix) rejects;
    # row 1 is not, but its finite-difference step x - h e_0 is, which only
    # the second kernel (inversion, inside fd_gradient) rejects.  The check
    # reports the first kernel's error for its first bad row, row 3.
    from confsym.errors import LightConePoint
    from confsym.geometry import Metric, inversion, inversion_matrix

    g = Metric(4)
    real = suites.sampling.off_cone_points
    pts = real(np.random.default_rng(5), 4, 50, min_frac=0.15)
    pts[1] = [1.0 + 1e-6, 1.0, 0.0, 0.0]
    pts[3] = [1.0, 1.0, 3e-5, 0.0]
    pts[5] = [1.0, 1.0, 0.0, 0.0]
    monkeypatch.setattr(suites.sampling, "off_cone_points", lambda *args, **kwargs: pts.copy())
    inversion_matrix(pts[1], g)
    with pytest.raises(LightConePoint):
        inversion(pts[1] - [1e-6, 0.0, 0.0, 0.0], g)
    with pytest.raises(LightConePoint) as first:
        inversion_matrix(pts[3], g)
    (check,) = run_suite(ModelSpec(kind="maxwell", dimension=4, checks=["reflection-derivative"])).checks
    assert check.error == f"LightConePoint: {first.value}"
    assert not check.ok and check.samples == 0


@pytest.mark.parametrize("name,kernel,kind", [
    ("gamma-reflection", "sandwich_identity_residual", "maxwell"),
    ("mech-reduction", "delta_conformal_q", "mechanics"),
])
def test_nan_second_term_is_a_non_finite_error(monkeypatch, name, kernel, kind):
    # the check's residual folds a first term with this kernel's term; a NaN
    # in the second term must reach the non-finite error, not read as a pass
    real = getattr(suites, kernel)
    monkeypatch.setattr(suites, kernel, lambda *args: np.full(np.shape(real(*args)), np.nan))
    (check,) = run_suite(ModelSpec(kind=kind, dimension=4 if kind == "maxwell" else 1, checks=[name])).checks
    assert not check.ok
    assert check.error == "non-finite residual nan at sample 0"


class _CubicFamily:
    """Stand-in finite transform family, exact up to a cubic term in the
    parameter: value t c + (t c)^3 against the variation c, so the parameter
    derivative's error falls 100-fold per 10-fold step (order 2).  The view
    is NaN at every row whose step is ``nan_step``.  ``c`` is the check's
    parameter stack, one parameter per point; the view gets it with the
    signed steps stacked in front."""

    def __init__(self, nan_step):
        self.nan_step = nan_step

    def variation(self, c, x):
        self.c = c
        return c

    def view(self, tc, weight):
        value = tc + tc**3
        if self.nan_step:
            at_step = np.isclose(abs(tc[..., 0] / self.c[..., 0]), self.nan_step)
            value = np.where(at_step[..., None], np.nan, value)
        return SimpleNamespace(value=lambda x: value)


def test_order_residuals_of_an_order_two_family_pass():
    from confsym.geometry import Metric

    family = _CubicFamily(nan_step=None)
    residuals = suites._order_residuals(np.random.default_rng(5), Metric(4), family.view, family.variation)
    npt.assert_allclose(residuals, -0.1, atol=1e-3)


@pytest.mark.parametrize("nan_step", [1e-2, 1e-3, 1e-4])
def test_non_finite_error_at_any_step_is_a_non_finite_residual(nan_step):
    # a NaN error at the smallest step used to fail the regression test
    # errs[2] > 10 errs[1] and so read as the first pair's passing shortfall
    from confsym.geometry import Metric

    family = _CubicFamily(nan_step)
    residuals = suites._order_residuals(np.random.default_rng(5), Metric(4), family.view, family.variation)
    assert len(residuals) == 5 and all(np.isnan(r) for r in residuals)
    assert suites._reduce(residuals)[2] == "non-finite residual nan at sample 0"


@pytest.mark.parametrize(
    "seed,skipped,samples,max_residual",
    [(102447505, [36], 39, "0x1.b000000000000p-48"), (1822532997, [39], 39, "0x1.6e00000000000p-41")],
)
def test_finite_vector_routes_skips_the_samples_the_serial_loop_skipped(seed, skipped, samples, max_residual):
    # at these suite seeds one (x, c) draw leaves the positive branch of the
    # finite map (sigma < 0), so both routes raise there and the sample is
    # skipped; the pinned figures are those of the per-sample loop
    from confsym.geometry import Metric
    from confsym.modelspec import parse_spec

    text = f"[model]\nkind = maxwell\ndimension = 4\n\n[suite]\nchecks = all\nseed = {seed}\n"
    spec = parse_spec(text)
    gaps, keep = suites.CHECKS["finite-vector-routes"].fn(spec, Metric(4), suites._rng_for(spec, "finite-vector-routes"))
    assert len(keep) == 40 and len(gaps) == keep.sum()
    assert np.flatnonzero(~keep).tolist() == skipped
    report = next(c for c in run_suite(spec).checks if c.name == "finite-vector-routes")
    assert report.ok and report.samples == samples
    assert report.max_residual.hex() == max_residual


def _agreement_loop(make, routes, ys, cs):
    """The per-sample loop the route checks once ran: per sample, the gap
    between the two routes' transforms, or None where either raises."""
    gaps = []
    for y, c in zip(ys, cs):
        try:
            gaps.append(float(np.max(np.abs(make(c, routes[0]).value(y) - make(c, routes[1]).value(y)))))
        except ConfsymError:
            gaps.append(None)
    return gaps


@pytest.mark.parametrize("bad_rows", [[0, 5, 6, 11], list(range(12))], ids=["some", "all"])
def test_route_gaps_skip_exactly_where_the_serial_agreement_skips(bad_rows):
    # rows in bad_rows leave the positive branch (both routes raise); row 8 is
    # null, which only the reflection route rejects
    from confsym import sampling
    from confsym.geometry import Metric
    from confsym.transforms import FiniteVectorTransform

    g = Metric(4)
    rng = np.random.default_rng(11)
    A = sampling.random_offshell_potential(rng, g)
    ys = sampling.timelike_points(rng, 4, 12)
    cs = sampling.small_parameters(rng, 4, 12, scale=0.02)
    ys[8] = [1.0, 1.0, 0.0, 0.0]
    for row in bad_rows:
        ys[row] = [1.0, 0.0, 0.0, 0.0]
        cs[row] = [1.0, 0.5 + 0.01 * row, 0.0, 0.0]
    make = lambda c, route: FiniteVectorTransform(A, c, 1.0, g, route=route)
    routes = ("jacobian", "reflection")
    serial = _agreement_loop(make, routes, ys, cs)
    assert [i for i, r in enumerate(serial) if r is None] == sorted(set(bad_rows) | {8})
    gaps, keep = suites._route_gaps(make, routes, ys, cs)
    assert keep.tolist() == [r is not None for r in serial]
    assert gaps.tolist() == [r for r in serial if r is not None]
    evaluated = 12 - len(set(bad_rows) | {8})
    assert suites._reduce((gaps, keep))[:2] == (evaluated, max(gaps.tolist(), default=0.0))
    if not evaluated:
        assert suites._reduce((gaps, keep))[2] == "only 0 of 12 samples evaluated"


def test_route_gaps_raise_an_error_that_names_no_sample():
    # only a floor test's error names a sample to drop; any other is the check's
    def make(c, route):
        raise ConfsymError("no sample named")

    with pytest.raises(ConfsymError, match="no sample named"):
        suites._route_gaps(make, ("first", "second"), np.ones((3, 4)), np.zeros((3, 4)))


# The six Noether-layer checks evaluate whole sample arrays; each must return
# the residuals that single-point library calls give in the per-point loop
# order (points-major, sigma or generator minor), drawn in the same order.
ORDER_SPECS = {
    "maxwell": "[model]\nkind = maxwell\ndimension = {dim}\n",
    "interacting-multiplet": "[model]\nkind = interacting-multiplet\ndimension = {dim}\n[params]\ncomponents = 3\nlambda = 0.8\n",
    "general-scalar-linear": "[model]\nkind = general-scalar\ndimension = {dim}\n[params]\nprofile = linear\n",
    "general-scalar-quadratic": "[model]\nkind = general-scalar\ndimension = {dim}\n[params]\nprofile = quadratic\n",
    "dual-scalar-3": "[model]\nkind = dual-scalar-3\ndimension = {dim}\n",
}


def _order_case(kind, dim, name):
    from confsym.geometry import Metric
    from confsym.modelspec import parse_spec

    spec = parse_spec(ORDER_SPECS[kind].format(dim=dim) + "[suite]\nseed = 1234\n")
    metric = Metric(dim)
    got = suites.CHECKS[name].fn(spec, metric, suites._rng_for(spec, name))
    return spec, metric, got, suites._rng_for(spec, name)


@pytest.mark.parametrize("kind,dim", [
    ("maxwell", 3), ("maxwell", 6), ("interacting-multiplet", 4), ("general-scalar-linear", 5),
    ("general-scalar-quadratic", 6), ("dual-scalar-3", 3),
])
def test_action_checks_keep_the_per_point_order(kind, dim):
    from confsym import sampling
    from confsym.noether import action_variation_identity

    spec, metric, got, rng = _order_case(kind, dim, "action-scale-identity")
    model, fixture = suites._model_fixture(spec, metric, rng)
    expected = [abs(action_variation_identity("scale", model, fixture, x, metric))
                for x in sampling.points(rng, dim, 8)]
    assert got.tolist() == expected and len(got) == 8

    spec, metric, got, rng = _order_case(kind, dim, "action-conformal-identity")
    model, fixture = suites._model_fixture(spec, metric, rng)
    expected = [abs(action_variation_identity("conformal", model, fixture, x, metric, s))
                for x in sampling.points(rng, dim, 8) for s in range(dim)]
    assert got.tolist() == expected and len(got) == 8 * dim


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_maxwell_current_checks_keep_the_per_point_order(dim):
    from confsym import sampling
    from confsym.geometry import _inner, special_conformal
    from confsym.noether import MaxwellModel, action_variation_identity, current_divergence_identity, field_virial

    spec, metric, got, rng = _order_case("maxwell", dim, "action-assumed-primary")
    A = sampling.random_offshell_potential(rng, metric)
    expected = [abs(action_variation_identity("conformal-assumed-primary", MaxwellModel(dim), A, x, metric, s))
                for x in sampling.points(rng, dim, 6) for s in range(dim)]
    assert got.tolist() == expected and len(got) == 6 * dim

    for name in ("conformal-current-identity", "conformal-current-naive"):
        spec, metric, got, rng = _order_case("maxwell", dim, name)
        A = suites._onshell_potential(spec, metric, rng)
        pts = sampling.points(rng, dim, 10)
        expected = []
        for x in pts:  # all points first, then one parameter per point
            gen = special_conformal(rng.normal(0.0, 0.4, dim))
            lhs, rhs = current_divergence_identity(gen, A, x, metric)
            if name.endswith("naive"):
                rhs = 2.0 * _inner(metric.lower(gen.c), field_virial(MaxwellModel(dim), A, x, metric).value)
            expected.append(abs(lhs - rhs))
        assert got.tolist() == expected and len(got) == 10


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_killing_current_check_keeps_the_per_point_order(dim, basis_rows):
    from confsym import sampling
    from confsym.noether import MultipletModel, bessel_hagen_divergence

    spec, metric, got, rng = _order_case("interacting-multiplet", dim, "killing-current-conservation")
    phi = suites._scalar_fixture(spec, metric, rng, null=True)
    model = MultipletModel(dim, spec.components, 0.0)
    gens = basis_rows(dim)
    expected = [abs(bessel_hagen_divergence(gen, model, phi, x, metric))
                for x in sampling.points(rng, dim, 4) for gen in gens]
    assert got.tolist() == expected and len(got) == 4 * len(gens)


SHORT_MECHANICS = """
[model]
kind = mechanics
dimension = 1

[params]
lambda = 0.5
components = 2

[mechanics]
q0 = 1.2, 0.4
p0 = 0.3, -0.2
t-end = 0.05
step = 0.01
"""

# One process, one parser: commands interleaved, an --out then none, and
# errors (argparse's and confsym's) between the calls.
REUSE_CALLS = [
    ["audit", "small.spec", "--format", "json", "--out", "first.json"],
    ["audit", "small.spec", "--format", "json"],
    ["mech-sim", "short.spec"],
    ["audit", "small.spec", "--no-such-flag"],
    ["algebra", "--dim", "2", "--format", "json"],
    ["report", "first.json", "--format", "text"],
    ["scan-dims", "--kind", "maxwell", "--dims", "3", "--format", "json", "--out", "scan.json"],
    ["algebra"],
    ["mech-sim", "short.spec", "--out", "traj.txt"],
    ["algebra", "--dim", "9"],
    ["report", "first.json", "--format", "json", "--out", "again.json"],
    ["--version"],
    ["audit", "small.spec", "--format", "json"],
]
REUSE_FILES = ["first.json", "scan.json", "traj.txt", "again.json"]


def _reuse_workdir(path):
    path.mkdir()
    (path / "small.spec").write_text(SMALL_MAXWELL)
    (path / "short.spec").write_text(SHORT_MECHANICS)
    return path


def _child_env():
    """The environment for a new interpreter that imports this confsym."""
    import confsym

    src = Path(confsym.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


def test_parser_is_built_on_first_use_and_then_shared():
    code = ("import confsym.cli as cli; assert cli._parser is None; "
            "parser = cli.build_parser(); assert cli.build_parser() is parser")
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True, timeout=300)


def test_reused_parser_gives_the_bytes_of_a_fresh_process(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    warm, cold = _reuse_workdir(tmp_path / "warm"), _reuse_workdir(tmp_path / "cold")
    env = _child_env()
    monkeypatch.chdir(warm)
    statuses, stdouts = [], []
    for argv in REUSE_CALLS:
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        out, err = capsysbinary.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "confsym.cli", *argv], cwd=cold, env=env,
                               capture_output=True, timeout=300)
        assert (status, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        statuses.append(status)
        stdouts.append(out)
    assert statuses == [0, 0, 0, 2, 0, 0, 0, 2, 0, 2, 0, 0, 0]
    # an audit after one with --out writes its report to stdout
    assert stdouts[1] == stdouts[-1] == (warm / "first.json").read_bytes()
    for name in REUSE_FILES:
        assert (warm / name).read_bytes() == (cold / name).read_bytes(), name


def test_out_runs_write_nothing_past_their_files(tmp_path, capfd):
    # a caller that prints its own last line after a run, in the same
    # process or in a parent reading this one's stdout, keeps that line last
    # only if no command writes to a stream bound at import, to fd 1 or 2
    # directly, or at interpreter exit
    work = _reuse_workdir(tmp_path / "work")
    calls = [
        ["audit", "small.spec", "--format", "json", "--out", "report.json"],
        ["algebra", "--dim", "3", "--format", "json", "--out", "algebra.json"],
        ["report", "report.json", "--format", "text", "--out", "report.txt"],
        ["mech-sim", "short.spec", "--out", "traj.txt"],
    ]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        statuses = [main(argv) for argv in calls]
    assert statuses == [0, 0, 0, 0]
    assert capfd.readouterr() == ("", "")
    assert stderr.getvalue() == ""
    summary = stdout.getvalue()
    assert re.fullmatch(r"steps: 5  coupling: 0\.5  drift H/D/K: \S+ \S+ \S+\n", summary)
    cold = _reuse_workdir(tmp_path / "cold")
    fresh = subprocess.run([sys.executable, "-m", "confsym.cli", *calls[-1]], cwd=cold, env=_child_env(),
                           capture_output=True, timeout=300)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, summary.encode(), b"")
    assert (cold / "traj.txt").read_bytes() == (work / "traj.txt").read_bytes()


def _traced_layers():
    """The ``LAYERS`` tuple of the benchmark's tracer, read from its source
    without importing it."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_importing_the_cli_imports_every_traced_layer():
    # a traced benchmark run reads each layer's import time from this same
    # `-X importtime` child and fails the run when a layer is missing, so a
    # layer imported lazily would pass every other test and still fail it
    layers = _traced_layers()
    assert "mechanics" in layers and "cli" in layers
    child = subprocess.run([sys.executable, "-X", "importtime", "-c", "import confsym.cli"], env=_child_env(),
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    imported = {line.split("|")[-1].strip() for line in child.stderr.splitlines() if line.count("|") == 2}
    assert {f"confsym.{layer}" for layer in layers} <= imported


# Prints the exit status of ``main(argv)`` and whether ``numpy.random`` was
# imported, on the last line of stdout.
NUMPY_RANDOM_PROBE = """
import sys
import zlib
from confsym.cli import main
try:
    status = main(sys.argv[1:]) if sys.argv[1:] else 0
except SystemExit as exc:
    status = exc.code
print(status, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("argv, imported", [
    ([], False),
    (["--version"], False),
    (["report", "saved.json", "--format", "text", "--out", "report.txt"], False),
    (["mech-sim", "short.spec", "--out", "traj.txt"], False),
    (["audit", "small.spec", "--format", "json", "--out", "report.json"], True),
])
def test_only_a_run_of_checks_imports_numpy_random(tmp_path, argv, imported):
    # importing numpy.random costs a fresh process about 10-14 ms (2-vCPU
    # Xeon host), so the commands that draw no sample leave it unimported
    work = _reuse_workdir(tmp_path / "work")
    (work / "saved.json").write_text(json.dumps(SAVED))
    child = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE, *argv], cwd=work, env=_child_env(),
                           capture_output=True, text=True, timeout=300)
    assert child.stdout.splitlines()[-1] == f"0 {imported}", child.stderr


# -- the report renderer ----------------------------------------------------


def _dumps_bytes(data) -> bytes:
    """The report bytes as the pure-Python ``indent=2`` encoder writes them."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False).encode() + b"\n"


RENDER_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.sampled_from([2**63, -2**63 - 1, 2**64 + 3, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 2.0**-1074, 1.1e-14]),
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "},\n      {", "],\n    [", "élan ∂μ 中", " ", ""]),
)

RENDER_VALUES = st.recursive(
    RENDER_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(['"', "\n", "é"])), inner, max_size=4),
    ),
    max_leaves=24,
)


@given(data=st.dictionaries(st.text(max_size=4), RENDER_VALUES, max_size=5))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_renderer_writes_the_indent_2_bytes(data):
    assert _json_bytes(data) == _dumps_bytes(data)


@pytest.mark.parametrize("data", [
    {}, [], {"a": {}, "b": [], "c": [[], {}], "d": [{}]},
    {"a": (1, (2, {"b": ()}))},  # tuples are json arrays
    {1: "int keys", 2: [1.5]},  # keys json converts to strings
    {"outer": {2.5: {"x": [1]}, 1: None}},
    {"q": [np.float64(-0.0), np.float64(1e300)]},  # float subclasses
    [{"a": 1}, {"b": [2, {"c": 3}]}, 4],
])
def test_renderer_writes_the_indent_2_bytes_on_unusual_shapes(data):
    assert _json_bytes(data) == _dumps_bytes(data)


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_renderer_rewrites_every_golden_file(path):
    golden = path.read_bytes()
    assert _json_bytes(json.loads(golden)) == golden == _dumps_bytes(json.loads(golden))


def test_renderer_writes_the_scan_dims_payload(tmp_path):
    out = tmp_path / "scan.json"
    main(["scan-dims", "--kind", "general-scalar", "--dims", "3,5", "--format", "json", "--out", str(out)])
    payload = out.read_bytes()
    assert payload == _dumps_bytes(json.loads(payload))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [
    lambda v: v, lambda v: {"a": v}, lambda v: {"a": [1, v]}, lambda v: {"a": {"b": [{"c": v}]}},
    lambda v: {"a": {v: 1}}, lambda v: {v: [1]},
], ids=["top", "dict", "list", "nested", "key", "key-of-nested"])
def test_renderer_rejects_non_finite_numbers(bad, where):
    with pytest.raises(ValueError):
        _dumps_bytes(where(bad))
    with pytest.raises(ValueError):
        _json_bytes(where(bad))


# -- the check generators ----------------------------------------------------

RNG_SEEDS = [0, 42, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3]


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_check_generators_keep_the_stream_of_default_rng(seed):
    spec = ModelSpec(kind="maxwell", dimension=4, seed=seed)
    for name in suites.CHECKS:
        want = np.random.default_rng([seed, zlib.crc32(name.encode())])
        assert suites._rng_for(spec, name).bit_generator.state == want.bit_generator.state, name


def test_the_generator_seeds_reach_past_the_low_word():
    # an entropy array of the seed's low word alone gives the same state up
    # to 2^32 - 1 and another one from 2^32 on, which the seeds above catch
    def low_word_only(seed, name):
        words = np.array([seed & 0xFFFFFFFF, zlib.crc32(name.encode())], dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words))).bit_generator.state

    def reference(seed, name):
        return np.random.default_rng([seed, zlib.crc32(name.encode())]).bit_generator.state

    assert low_word_only(2**32 - 1, "killing-equation") == reference(2**32 - 1, "killing-equation")
    assert low_word_only(2**32, "killing-equation") != reference(2**32, "killing-equation")


def test_check_generators_reject_a_negative_seed():
    with pytest.raises(ValueError):
        suites._rng_for(ModelSpec(kind="maxwell", dimension=4, seed=-1), "killing-equation")


# -- README's report schema ---------------------------------------------------


def _readme_schema():
    """The JSON report example in README, and the keys of each of its
    objects in the order written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("JSON report schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    orders = []

    def keep_order(pairs):
        orders.append([key for key, _ in pairs])
        return dict(pairs)

    return json.loads(block, object_pairs_hook=keep_order), orders


def _key_tree(value):
    """The keys of every object in ``value``, nested as the objects are; a
    list contributes its first item."""
    if isinstance(value, dict):
        return {key: _key_tree(item) for key, item in value.items()}
    if isinstance(value, list) and value:
        return [_key_tree(value[0])]
    return None


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_every_golden_check_has_one_verdict_and_the_written_keys(path):
    # README's example has these keys too: test_readme_schema_has_the_keys_a_report_writes
    written = RunReport.from_dict(SAVED).to_dict()
    data = json.loads(path.read_text())
    for report in data.get("scans", [data]):
        assert report.keys() == written.keys()
        for check in report["checks"]:
            assert check.keys() == written["checks"][0].keys()
            assert check["ok"] == (check["error"] is None and check["max_residual"] <= check["tolerance"])
        assert report["overall_ok"] == all(check["ok"] for check in report["checks"])


def test_readme_schema_lists_a_reports_keys_in_rendered_order():
    example, orders = _readme_schema()
    report = json.loads((GOLDEN_DIR / "maxwell_d4.json").read_text())
    assert _key_tree(example) == _key_tree(report)
    assert set(example["checks"][0]) == CHECK_KEYS
    assert all(keys == sorted(keys) for keys in orders), "list keys in the order the renderer writes them"
