import hashlib
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confsym.suites as suites
from confsym.cli import emit_report, main, report_from_dict
from confsym.errors import ConfsymError
from confsym.modelspec import ModelSpec
from confsym.suites import applicable_checks, run_suite

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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


def test_audit_bad_spec_exits_two(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("[model]\nkind = maxwell\ndimension = 4\nbogus = 1\n")
    assert main(["audit", str(path)]) == 2


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


def test_d5_maxwell_reports_expected_failure(tmp_path):
    out = tmp_path / "d5.json"
    assert main(["audit", str(SPEC_DIR / "maxwell_d5.spec"), "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    naive = [c for c in data["checks"] if c["name"] == "conformal-current-naive"]
    assert len(naive) == 1
    assert naive[0]["expected_fail"] is True
    assert naive[0]["passed"] is False
    assert naive[0]["ok"] is True


def test_json_round_trip_preserves_residuals():
    spec = ModelSpec(kind="maxwell", dimension=4,
                     checks=["map-composition", "stress-trace-law"])
    report = run_suite(spec)
    payload = emit_report(report, "json")
    data = json.loads(payload)
    rebuilt = report_from_dict(data)
    assert emit_report(rebuilt, "json") == payload
    for orig, back in zip(report.checks, rebuilt.checks):
        assert back.max_residual == orig.max_residual
        assert back.tolerance == orig.tolerance


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


def test_audit_and_mech_sim_start_from_the_same_state(tmp_path, monkeypatch):
    spec = tmp_path / "q0.spec"
    spec.write_text(
        "[model]\nkind = mechanics\ndimension = 1\n[params]\nlambda = 0.5\n"
        "[mechanics]\nq0 = 3.0, 1.0\nt-end = 0.5\nstep = 0.01\n"
        "[suite]\nchecks = mech-charge-drift\n"
    )
    starts, integrate_many = [], suites.integrate_many

    def recording(states, params, t_end, step):
        starts.extend(states)
        return integrate_many(states, params, t_end, step)

    monkeypatch.setattr(suites, "integrate_many", recording)
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
    # the README index is generated from these descriptions; every check
    # must carry one
    from confsym.suites import CHECKS

    for name, cd in CHECKS.items():
        assert cd.description, name
        assert cd.kinds, name


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


def _run_patched(monkeypatch, residuals, tolerance="exact"):
    """Run map-composition with its function replaced by one returning
    ``residuals``; return its check report."""
    monkeypatch.setitem(
        suites.CHECKS,
        "map-composition",
        suites.CheckDef("map-composition", ("maxwell",), "demo",
                        lambda spec, metric, rng: list(residuals), tolerance),
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


@pytest.mark.parametrize("residuals", [[None] * 5, [], [None, None, None, 0.0, 0.0]])
def test_vacuous_or_mostly_skipped_check_is_an_error(monkeypatch, residuals):
    check = _run_patched(monkeypatch, residuals)
    evaluated = sum(r is not None for r in residuals)
    assert not check.ok and check.max_residual == 0.0 and check.samples == evaluated
    assert f"only {evaluated} of {len(residuals)} samples evaluated" in check.error


def test_half_evaluated_check_passes(monkeypatch):
    check = _run_patched(monkeypatch, [None, 0.0])
    assert check.ok and check.samples == 1


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
        report = report_from_dict(_edited_saved(path, value))
    except ConfsymError:
        return
    json.loads(emit_report(report, "json"))
    emit_report(report, "text")


@given(path=st.sampled_from([(k,) for k in REQUIRED_TOP] + [("checks", 1, k) for k in REQUIRED_CHECK]))
@settings(max_examples=50, deadline=None)
def test_report_from_dict_rejects_missing_keys(path):
    with pytest.raises(ConfsymError, match="has no"):
        report_from_dict(_edited_saved(path, delete=True))


@given(
    path=st.sampled_from([("checks", 0, "max_residual"), ("checks", 1, "tolerance"),
                          ("spec", "tolerances", "exact"), ("wall_time_seconds",)]),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
@settings(max_examples=30, deadline=None)
def test_report_from_dict_rejects_non_finite_numbers(path, value):
    with pytest.raises(ConfsymError, match="non-finite"):
        report_from_dict(_edited_saved(path, value))


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


def test_batched_check_raises_the_first_error_in_sample_order():
    # sample 4 is null, which the first (inversion) stage rejects; sample 2
    # has sigma = 0, which only the second (map) stage rejects.  A loop over
    # samples meets sample 2 first, the whole-batch stages meet sample 4 first.
    from confsym.errors import SingularMap
    from confsym.geometry import Metric, inversion, special_conformal_map

    g = Metric(4)
    rng = np.random.default_rng(5)
    xs = rng.normal(0.0, 0.6, (6, 4)) + [2.0, 0.0, 0.0, 0.0]
    cs = rng.normal(0.0, 0.1, (6, 4))
    xs[4] = [1.0, 1.0, 0.0, 0.0]
    cs[2] = -xs[2] / g.norm2(xs[2])

    def residuals(x, c):
        inversion(x, g)
        return special_conformal_map(x, c, g)

    with pytest.raises(SingularMap) as serial:
        for x, c in zip(xs, cs):
            residuals(x, c)
    with pytest.raises(SingularMap) as batched:
        suites._in_sample_order(residuals, xs, cs)
    assert str(batched.value) == str(serial.value)


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
    residuals = suites.CHECKS["finite-vector-routes"].fn(spec, Metric(4), suites._rng_for(spec, "finite-vector-routes"))
    assert len(residuals) == 40
    assert [i for i, r in enumerate(residuals) if r is None] == skipped
    report = next(c for c in run_suite(spec).checks if c.name == "finite-vector-routes")
    assert report.ok and report.samples == samples
    assert report.max_residual.hex() == max_residual


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
    serial = [suites._agreement(make(c, "jacobian"), make(c, "reflection"), y) for y, c in zip(ys, cs)]
    assert [i for i, r in enumerate(serial) if r is None] == sorted(set(bad_rows) | {8})
    assert suites._route_gaps(make, ("jacobian", "reflection"), ys, cs) == serial
