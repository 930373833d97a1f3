"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kernels
import run
import specgen
from tracer import LAYERS, LayerTracer

cli = run.load_program()
from confsym import geometry, modelspec, suites  # noqa: E402

SEEDS = (0, 1, 7, 12345)
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = specgen.render({
    "model": {"kind": "maxwell", "dimension": 4},
    "suite": {"checks": "map-composition, finite-vector-routes, stress-trace-law", "seed": 3},
})


def all_spec_texts(seed):
    yield from (text for _, text in specgen.field_specs(seed))
    yield from (text for _, text, _ in specgen.mech_specs(seed))
    yield from (text for _, text in specgen.cheap_specs(seed))
    yield specgen.short_mech_spec(seed)[1]
    yield from (kernels.spec_text(dim) for dim in kernels.KERNEL_DIMS)


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_is_deterministic_and_specs_parse(seed):
    texts = list(all_spec_texts(seed))
    assert texts == list(all_spec_texts(seed))
    for text in texts:
        modelspec.parse_spec(text)
    assert len(specgen.field_specs(seed)) == 13


def test_seeds_give_different_specs():
    assert specgen.field_specs(1) != specgen.field_specs(2)
    assert specgen.mech_specs(1) != specgen.mech_specs(2)


def test_declared_metric_names_are_valid_and_unique():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(name) for name in names)


def _audit(tmp_path, name, text=SMALL):
    spec = tmp_path / f"{name}.spec"
    spec.write_text(text)
    out = tmp_path / f"{name}.json"
    return run.Call("audit", name, ["audit", str(spec), "--format", "json", "--out", str(out)], out)


def test_traced_output_matches_untraced_and_originals_return(tmp_path):
    originals = (geometry.special_conformal_map, suites.special_conformal_map,
                 geometry.Metric.__init__, suites.CHECKS["map-composition"], cli.main)
    call = _audit(tmp_path, "small")
    reference = {}
    untraced = run.run_call(call, run.Warm(cli), reference)
    tracer = LayerTracer()
    tracer.install(layers=True)
    assert suites.special_conformal_map is not originals[1]
    traced = run.run_call(call, run.Warm(cli), reference)
    assert tracer.uninstall()
    assert untraced.problems == [] and traced.problems == []  # byte-identical
    assert (geometry.special_conformal_map, suites.special_conformal_map,
            geometry.Metric.__init__, suites.CHECKS["map-composition"], cli.main) == originals
    stats = tracer.snapshot()
    assert stats["layers"]["geometry"][0] > 0 and stats["layers"]["cli"][0] == 3  # main, build_parser, emit_report
    assert set(stats["checks"]) == {"map-composition", "finite-vector-routes", "stress-trace-law"}
    assert all(self_s >= 0.0 for _, self_s, _ in stats["layers"].values())


def test_self_time_excludes_child_spans():
    tracer = LayerTracer()
    tracer.install(layers=True)
    try:
        metric = geometry.Metric(4)
        geometry.special_conformal_map([0.1, 0.2, 0.0, 0.3], [0.01, 0.0, 0.02, 0.0], metric)
    finally:
        assert tracer.uninstall()
    calls, self_s, raised = tracer.snapshot()["layers"]["geometry"]
    assert calls >= 3 and raised == 0 and self_s > 0.0


def test_samples_a_check_skips_are_counted():
    tracer = LayerTracer()

    def sample():
        raise ValueError("singular point")

    sample_span = tracer._span(sample, "transforms")

    def check():
        for _ in range(3):
            try:
                sample_span()
            except ValueError:
                continue
        return "report"

    def failing_check():
        sample_span()

    assert tracer._span(check, "suites", check="demo")() == "report"
    with pytest.raises(ValueError):
        tracer._span(failing_check, "suites", check="broken")()
    assert tracer.skipped == {"demo": 3}
    assert tracer.stats["transforms"].raised == 4 and tracer.stats["suites"].raised == 1


def test_layer_and_check_metric_names(monkeypatch):
    rounds = [{"layers": {layer: (1, 0.1, 0) for layer in LAYERS}, "checks": {"map-composition": 0.01},
               "skipped": {"finite-vector-routes": 2}}]
    metrics, detail = run.per_layer(rounds, [1.0], [1.2], list(suites.CHECKS))
    monkeypatch.setattr(kernels, "BUDGET_S", 0.0)
    metrics.update(kernels.measure(1))
    imports, problems = run.import_ms()
    metrics.update(imports)
    assert problems == []
    declared = set(run.declared_metrics(trace=True))
    assert declared == set(metrics)
    assert detail["calls_repeat"] and detail["skipped_total"] == 2
    assert metrics["trace.overhead_share"][0] == pytest.approx(0.2)


def test_gate_catches_wrong_status_and_changed_bytes(tmp_path):
    call = _audit(tmp_path, "gate")
    reference = {}
    assert run.run_call(call, run.Warm(cli), reference).problems == []
    assert run.verify(call, 1, "", reference).problems == ["exit status 1 but overall_ok True"]
    call.out.write_bytes(call.out.read_bytes().replace(b'"overall_ok": true', b'"overall_ok": true '))
    assert run.verify(call, 0, "", reference).problems == ["output differs from the first run of the same call"]


def test_gate_checks_trajectory_rows(tmp_path):
    name, text = specgen.short_mech_spec(3)
    call = run._mech_sim(tmp_path, name, text, specgen.SHORT_T_END)
    result = run.run_call(call, run.Warm(cli), {})
    assert result.problems == [] and result.rows == 2001
    call.rows = 2000
    assert "2001 trajectory rows, expected 2000" in run.verify(call, result.status, "", {}).problems


def test_times_are_scaled_to_the_nominal_host_speed(tmp_path):
    report = {"checks": [{"ok": True, "samples": 10}], "overall_ok": True}
    audit = run.Call("audit", "a", [], tmp_path / "a.json")
    sim = run.Call("mech-sim", "s", [], tmp_path / "s.traj", rows=100)

    def result(call, seconds, ref_s):
        return run.Result(call, seconds, 0, checks=report["checks"] if call is audit else [],
                          rows=call.rows, ref_s=ref_s)

    nominal = run.REF_NOMINAL_S
    fast = [result(audit, 0.1, nominal), result(sim, 0.1, nominal)]
    slow = [result(audit, 0.2, 2 * nominal), result(sim, 0.2, 2 * nominal)]
    metrics, detail = run.end_to_end([fast, slow], 0.2, 0.4)
    assert metrics["audit_ms_p50"][0] == pytest.approx(100.0)
    assert metrics["checks_per_s"][0] == pytest.approx(5.0)  # 2 checks over 0.4 s of scaled time
    assert metrics["sim_rows_per_s"][0] == pytest.approx(1000.0)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert detail["host_speed"] == [1.0, 0.5]
    assert detail["unscaled"]["audit_ms_p50"] == pytest.approx(150.0)


def test_tail_has_ten_calls_beyond():
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0  # never below the median
    assert run.tail([4.0, 1.0, 2.0, 3.0])[0] == 3.0


def test_fails_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
