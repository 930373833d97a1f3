#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for the confsym command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload field-audit --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own interpreter.  Workloads (BENCHMARK.json records why each exists):

* ``field-audit``: ``audit --format json`` over every field kind at
  D = 3..6, plus one short ``mech-sim``, in this process through
  ``confsym.cli.main``.
* ``mech-trajectory``: ``audit`` then ``mech-sim --out`` over mechanics
  specs, in this process.
* ``cli-cold``: a fresh interpreter per call: audits that select 2-3 cheap
  checks, ``algebra``, ``report`` and a short ``mech-sim``.

All workloads are a closed loop with one client; ``cli-cold`` runs one child
at a time.  The benchmark and its children run on one CPU (see
:func:`pin_one_cpu`), so a change that spreads work over several CPUs does
not show here.  The program sees only spec files generated from ``--seed`` and
its command lines.  A run repeats whole passes over the workload's calls
until ``--seconds`` have elapsed.  Every output is checked; see
:func:`verify`.

``--trace 0`` prints the end-to-end metrics.  Every workload reports all of
them, which is why the field and cold passes each hold one short
``mech-sim``.  Their times are scaled to a nominal host speed, measured by
a reference loop around every call (see ``REF_NOMINAL_S``); the unscaled
figures are on the ``detail`` line.  ``ok_share`` is one minus the failed
share: checks that are not ok, plus calls whose exit status contradicts
their output, over checks attempted.  Checks that fail at the program's
current state count as they are; the ``detail`` line lists them.

``--trace 1`` measures the kernels and per-layer import times, then runs the
workload in this process in rounds of three passes: checks timed, untraced,
and every confsym layer wrapped (see ``tracer.py``).  It prints the
per-layer metrics; ``trace.overhead_share`` compares the scaled walls of
the last two passes of each round.  Its ``detail`` line lists the samples
each check skipped because a call inside it raised (``skipped_samples``).

Lines before the last carry provenance and details; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count CLI invocations.  The metric names printed are exactly those declared
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import specgen  # noqa: E402

WORKLOADS = ("field-audit", "mech-trajectory", "cli-cold")
# What the `confsym` console script runs.
ENTRY = "import sys; from confsym.cli import main; sys.exit(main())"
SETUP_SPAWNS = 9  # timed `confsym --version` spawns per run, after one warm-up
IMPORT_SPAWNS = 5  # `-X importtime` spawns per traced run, after one warm-up
TAIL_BEYOND = 10  # calls that must lie beyond the reported tail percentile
DRIFT_TOL = 1e-8  # drift tolerance of the generated mechanics specs (the default)
CALL_TIMEOUT_S = 120
# Host speed.  On a shared virtual machine the CPU can run the same code up
# to twice as slowly, for seconds or minutes at a time, and every wall time
# moves with it.  Right before and right after each timed call the benchmark
# times a fixed reference loop of Python arithmetic and small numpy
# products, the kind of work the program's inner loops do.  End-to-end times
# are scaled to the speed at which that loop takes REF_NOMINAL_S: a call's
# time is multiplied by REF_NOMINAL_S over the mean of its two loop times.
# Work that slows less than the loop, such as starting a process, is
# over-corrected while the host is slow, most on `cli-cold`.  The unscaled
# figures are printed on the `detail` line.
REF_ITERATIONS = 3000
REF_NOMINAL_S = 0.002  # about the loop's time on an Intel Xeon vCPU at full speed, Python 3.11, numpy 2.4


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program source)."""


@dataclass
class Call:
    """One CLI invocation; ``key`` names its output for byte-identity checks."""

    kind: str  # audit | algebra | report | mech-sim
    key: str
    argv: list
    out: Path
    rows: int = 0  # mech-sim: expected trajectory rows
    saved: Path | None = None  # report: the file it re-emits


@dataclass
class Result:
    call: Call
    seconds: float
    status: int | None
    ref_s: float = 0.0  # mean time of the reference loop right before and after the call
    checks: list = field(default_factory=list)
    rows: int = 0
    problems: list = field(default_factory=list)
    bad_status: bool = False  # the exit status contradicts the output


# ---------------------------------------------------------------------------
# executing calls
# ---------------------------------------------------------------------------


def reference_s() -> float:
    """Wall time of one run of the fixed reference loop."""
    vec = numpy.ones(3)
    total = 0.0
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        total += float(numpy.dot(vec, vec)) * 0.5 + i % 7
    return time.perf_counter() - start


def pin_one_cpu() -> int:
    """Run this process, and so every child it starts, on one CPU, so that
    the reference loop times the CPU the calls run on: on a shared host each
    CPU's speed varies on its own.  Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_program():
    """Import confsym from this checkout's ``src`` and nowhere else."""
    if not (SRC / "confsym" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC / 'confsym'}")
    sys.path.insert(0, str(SRC))
    import confsym.cli

    if Path(confsym.__file__).resolve().parent != (SRC / "confsym").resolve():
        raise SetupError(f"confsym was imported from {confsym.__file__}, not from {SRC}")
    return confsym.cli


class Warm:
    """Calls ``confsym.cli.main`` in this process (looked up per call, so a
    traced ``main`` is the one called)."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, argv):
        sink = io.StringIO()
        error = ""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed call, not a dead benchmark
                status, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        return status, seconds, error or sink.getvalue()


class Cold:
    """Runs each call in a fresh interpreter, one child at a time."""

    def __init__(self):
        self.env = child_env()

    def __call__(self, argv):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CALL_TIMEOUT_S,
        )
        return proc.returncode, time.perf_counter() - start, proc.stderr


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _verify_report(call, result, payload):
    problems = result.problems
    try:
        data = json.loads(payload)
        checks = data["checks"]
        overall = data["overall_ok"]
        residuals = [c["max_residual"] for c in checks]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unparsable report: {exc}")
        return []
    if not all(isinstance(r, (int, float)) and math.isfinite(r) for r in residuals):
        problems.append("non-finite max_residual")
    if overall != all(c["ok"] for c in checks):
        problems.append("overall_ok disagrees with the checks")
    if result.status != (0 if overall else 1):
        result.bad_status = True
        problems.append(f"exit status {result.status} but overall_ok {overall}")
    if call.kind == "report" and payload != call.saved.read_bytes():
        problems.append("report did not reproduce the saved bytes")
    return checks if call.kind != "report" else []


def _verify_dump(call, result, payload):
    problems = result.problems
    lines = payload.decode().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    if len(body) != call.rows:
        problems.append(f"{len(body)} trajectory rows, expected {call.rows}")
    try:
        table = [[float(v) for v in line.split()] for line in body]
        hdk = [row[-3:] for row in table]
        drift = max(abs(row[i] - hdk[0][i]) for row in hdk for i in range(3))
    except (ValueError, IndexError) as exc:
        problems.append(f"unparsable trajectory dump: {exc}")
        return len(body)
    if result.status != (0 if drift <= DRIFT_TOL else 1):
        result.bad_status = True
        problems.append(f"exit status {result.status} but recomputed drift {drift:.3e}")
    return len(body)


def verify(call, status, message, reference) -> Result:
    """Check one call's output.

    * audit/algebra/report JSON parses, every ``max_residual`` is finite,
      and the exit status is 0 exactly when ``overall_ok`` is true;
    * ``report`` reproduces the saved bytes exactly;
    * ``mech-sim`` wrote ``round(t_end/step)+1`` rows and its exit status
      matches the H/D/K drift recomputed from the dump;
    * the same call gives byte-identical output every time it runs
      (``reference`` holds the first output of each key, traced or not).
    """
    result = Result(call, 0.0, status)
    if status not in (0, 1):
        result.bad_status = True
        result.problems.append(f"exit status {status}: {message.strip()[-300:]}")
        return result
    try:
        payload = call.out.read_bytes()
    except OSError as exc:
        result.problems.append(f"no output: {exc}")
        return result
    if call.kind == "mech-sim":
        result.rows = _verify_dump(call, result, payload)
    else:
        result.checks = _verify_report(call, result, payload)
    if payload != reference.setdefault(call.key, payload):
        result.problems.append("output differs from the first run of the same call")
    return result


def run_call(call, execute, reference) -> Result:
    call.out.unlink(missing_ok=True)
    before = reference_s()
    try:
        status, seconds, message = execute(call.argv)
    except subprocess.TimeoutExpired:
        status, seconds, message = None, float(CALL_TIMEOUT_S), "timed out"
    ref_s = (before + reference_s()) / 2
    result = verify(call, status, message, reference)
    result.seconds = seconds
    result.ref_s = ref_s
    return result


def run_pass(calls, execute, reference) -> list:
    return [run_call(call, execute, reference) for call in calls]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workdir:
    """Scratch space inside the checkout, removed when the run ends."""

    def __init__(self, workload):
        self.path = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.path.parent.rmdir()


def _write(work, name, text) -> Path:
    path = work / f"{name}.spec"
    path.write_text(text, encoding="utf-8")
    return path


def _audit(work, name, text) -> Call:
    out = work / f"{name}.json"
    return Call("audit", name, ["audit", str(_write(work, name, text)), "--format", "json", "--out", str(out)], out)


def _mech_sim(work, name, text, t_end) -> Call:
    out = work / f"{name}.traj"
    rows = int(round(t_end / specgen.MECH_STEP)) + 1
    return Call("mech-sim", f"{name}.sim", ["mech-sim", str(_write(work, name, text)), "--out", str(out)], out, rows=rows)


def _report(work, key, saved) -> Call:
    out = work / f"{key}.out.json"
    return Call("report", key, ["report", str(saved), "--format", "json", "--out", str(out)], out, saved=saved)


def build_plan(workload, seed, work):
    """(set-up calls, calls of one pass) for a workload and seed."""
    short = _mech_sim(work, *specgen.short_mech_spec(seed), specgen.SHORT_T_END)
    if workload == "field-audit":
        return [], [_audit(work, name, text) for name, text in specgen.field_specs(seed)] + [short]
    if workload == "mech-trajectory":
        calls = []
        for name, text, t_end in specgen.mech_specs(seed):
            calls += [_audit(work, name, text), _mech_sim(work, name, text, t_end)]
        return [], calls
    audits = [_audit(work, name, text) for name, text in specgen.cheap_specs(seed)]
    saved = work / "saved.json"
    setup = Call("audit", "saved", audits[0].argv[:-1] + [str(saved)], saved)
    algebra_out = work / "algebra.json"
    algebra = Call("algebra", "algebra", ["algebra", "--dim", str(specgen.ALGEBRA_DIM), "--seed", str(specgen.algebra_seed(seed)),
                                         "--format", "json", "--out", str(algebra_out)], algebra_out)
    report = _report(work, "report", saved)
    return [setup], [audits[0], algebra, audits[1], report, audits[2], short, audits[3]]


def report_gate(reference, work, execute, reports) -> list:
    """`confsym report saved.json --format json` must reproduce each saved
    audit report byte for byte."""
    results = []
    for key, payload in sorted(reports.items()):
        saved = work / f"gate-{key}.json"
        saved.write_bytes(payload)
        results.append(run_call(_report(work, f"gate-{key}", saved), execute, reference))
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies):
    """(value, percentile, n): the highest percentile with at least
    TAIL_BEYOND calls beyond it, and never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n // 2, n - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / n, n


def timed_spawns(argv, count, check):
    """(wall, reference loop time) of ``count`` fresh interpreters running
    ``argv`` after one untimed warm-up, as for :func:`run_call`;
    ``check(proc)`` returns a problem string or None."""
    env = child_env()
    timings, problems, outputs = [], [], []
    for i in range(count + 1):
        before = reference_s()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CALL_TIMEOUT_S)
        wall = time.perf_counter() - start
        ref_s = (before + reference_s()) / 2
        problem = check(proc)
        if problem:
            problems.append(problem)
        if i:
            timings.append((wall, ref_s))
            outputs.append(proc)
    return timings, problems, outputs


def setup_seconds():
    """Median wall of `confsym --version` spawns, scaled and unscaled."""

    def check(proc):
        if proc.returncode != 0 or not proc.stdout.startswith("confsym "):
            return f"`confsym --version` failed: {proc.returncode} {proc.stderr.strip()[-200:]}"
        return None

    timings, problems, _ = timed_spawns(["-c", ENTRY, "--version"], SETUP_SPAWNS, check)
    scaled = statistics.median(wall * REF_NOMINAL_S / ref_s for wall, ref_s in timings)
    return scaled, statistics.median(wall for wall, _ in timings), problems


def import_ms():
    """Median self import time of each layer in a fresh interpreter."""
    from tracer import LAYERS

    def check(proc):
        return None if proc.returncode == 0 else f"import failed: {proc.stderr.strip()[-200:]}"

    _, problems, procs = timed_spawns(["-X", "importtime", "-c", "import confsym.cli"], IMPORT_SPAWNS, check)
    samples = {layer: [] for layer in LAYERS}
    for proc in procs:
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("confsym."):
                layer = parts[2][len("confsym."):]
                if layer in samples:
                    samples[layer].append(int(parts[0].split(":")[-1]) / 1000.0)
    out = {}
    for layer, values in samples.items():
        if values:
            out[f"{layer}.import_ms"] = (statistics.median(values), "ms")
        else:
            problems.append(f"no import time for confsym.{layer}")
    return out, problems


def scaled_seconds(result) -> float:
    """A call's wall time at the nominal host speed (see REF_NOMINAL_S)."""
    return result.seconds * REF_NOMINAL_S / result.ref_s


def _timings(timed, setup_s):
    """Timing metrics from (result, seconds) pairs.  Rates are total work
    over the summed time of the calls that did it."""
    checks = [c for r, _ in timed for c in r.checks]
    sims = [(r, t) for r, t in timed if r.call.kind == "mech-sim"]
    audits = [t for r, t in timed if r.call.kind == "audit"]
    tail_s, tail_pct, n_audits = tail(audits)
    metrics = {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (len(checks) / sum(t for _, t in timed), "1/s"),
        "samples_per_s": (sum(c["samples"] for c in checks) / sum(t for _, t in timed), "1/s"),
        "audit_ms_p50": (1000.0 * statistics.median(audits), "ms"),
        "audit_ms_tail": (1000.0 * tail_s, "ms"),
        "sim_rows_per_s": (sum(r.rows for r, _ in sims) / sum(t for _, t in sims), "1/s"),
    }
    return metrics, tail_pct, n_audits


def end_to_end(passes, setup_s, setup_unscaled_s):
    """End-to-end metrics from untraced passes, with times scaled to the
    nominal host speed (see REF_NOMINAL_S), and details."""
    results = [r for p in passes for r in p]
    scaled = [(r, scaled_seconds(r)) for r in results]
    metrics, tail_pct, n_audits = _timings(scaled, setup_s)
    unscaled, _, _ = _timings([(r, r.seconds) for r in results], setup_unscaled_s)
    checks = [c for r in results for c in r.checks]
    not_ok = sum(1 for c in checks if not c["ok"])
    # Failed checks, plus calls whose exit status contradicts their output.
    failed_share = (not_ok + sum(r.bad_status for r in results)) / len(checks)
    metrics["ok_share"] = (1.0 - failed_share, "ratio")
    detail = {
        "passes": len(passes),
        "pass_seconds": [round(sum(r.seconds for r in p), 4) for p in passes],
        "host_speed": [round(REF_NOMINAL_S / statistics.median(r.ref_s for r in p), 3) for p in passes],
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
        "audit_calls": n_audits,
        "audit_tail_percentile": round(tail_pct, 2),
        "checks_attempted": len(checks),
        "checks_not_ok": not_ok,
        "failed_share": failed_share,
        "failing_checks": sorted({f"{r.call.key}/{c['name']}" for r in results for c in r.checks if not c["ok"]}),
    }
    return metrics, detail


def per_layer(rounds, untraced_walls, traced_walls, check_names):
    """Per-layer metrics from traced rounds: (calls, self_s, raised) per
    layer per pass, total ms per check per pass.  The detail holds the
    samples each check skipped in one traced pass."""
    first = rounds[0]["layers"]
    metrics = {}
    for layer, (calls, _, raised) in first.items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (statistics.median(r["layers"][layer][1] for r in rounds), "s")
        metrics[f"{layer}.raised"] = (raised, "count")
    for name in check_names:
        per_round = [1000.0 * r["checks"].get(name, 0.0) for r in rounds]
        metrics[f"check.{name}.ms"] = (statistics.median(per_round), "ms")
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    repeat = all(
        {k: v[0] for k, v in r["layers"].items()} == {k: v[0] for k, v in first.items()}
        and r["skipped"] == rounds[0]["skipped"] for r in rounds
    )
    skipped = rounds[0]["skipped"]
    return metrics, {"rounds": len(rounds), "calls_repeat": repeat,
                     "skipped_samples": dict(sorted(skipped.items())), "skipped_total": sum(skipped.values())}


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def provenance(seed, workload):
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "confsym").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "CONFSYM_NO_NUMBA": os.environ.get("CONFSYM_NO_NUMBA"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def emit(correct, attempted, failed, computed, trace, problems):
    """Print the result line with exactly the metrics BENCHMARK.json declares."""
    metrics = {}
    for name in declared_metrics(trace):
        if name not in computed:
            problems.append(f"metric {name} was not measured")
            correct = False
            continue
        value, unit = computed[name]
        metrics[name] = {"value": value, "unit": unit}
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _tally(results):
    return len(results), sum(1 for r in results if r.problems), [p for r in results for p in r.problems]


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics."""
    cli = load_program()
    execute = Cold() if workload == "cli-cold" else Warm(cli)
    with Workdir(workload) as work:
        setup_calls, calls = build_plan(workload, seed, work)
        setup_s, setup_unscaled_s, problems = setup_seconds()
        reference = {}
        results = run_pass(setup_calls, execute, reference)
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(calls, execute, reference))
        reports = {c.key: reference[c.key] for c in calls if c.kind in ("audit", "algebra")}
        results += report_gate(reference, work, execute, reports)
    results += [r for p in passes for r in p]
    attempted, failed, call_problems = _tally(results)
    metrics, detail = end_to_end(passes, setup_s, setup_unscaled_s)
    return attempted, failed, problems + call_problems, metrics, detail


def measure_traced(workload, seed, seconds):
    """Traced run, in this process: per-layer metrics."""
    import kernels
    from tracer import LayerTracer

    cli = load_program()
    execute = Warm(cli)
    tracer = LayerTracer()
    check_names = list(tracer.layers["suites"].CHECKS)
    deadline = time.perf_counter() + seconds
    metrics = kernels.measure(seed)
    imports, problems = import_ms()
    metrics.update(imports)
    with Workdir(workload) as work:
        setup_calls, calls = build_plan(workload, seed, work)
        reference = {}
        results = run_pass(setup_calls, execute, reference)
        rounds, untraced_walls, traced_walls = [], [], []
        while not rounds or time.perf_counter() < deadline:
            # The check-timing pass goes first, so it also warms the process
            # up before the two passes whose walls give the tracing overhead.
            tracer.install(layers=False)
            timed_checks = run_pass(calls, execute, reference)
            restored = tracer.uninstall()
            check_s = dict(tracer.check_s)
            tracer.reset()
            untraced = run_pass(calls, execute, reference)
            tracer.install(layers=True)
            traced = run_pass(calls, execute, reference)
            restored = tracer.uninstall() and restored
            snapshot = tracer.snapshot()
            tracer.reset()
            if not restored:
                problems.append("tracer did not restore every original function")
            snapshot["checks"] = check_s
            rounds.append(snapshot)
            untraced_walls.append(sum(map(scaled_seconds, untraced)))
            traced_walls.append(sum(map(scaled_seconds, traced)))
            results += timed_checks + untraced + traced
    attempted, failed, call_problems = _tally(results)
    layer_metrics, detail = per_layer(rounds, untraced_walls, traced_walls, check_names)
    metrics.update(layer_metrics)
    return attempted, failed, problems + call_problems, metrics, detail


def run_all(args) -> int:
    """Each workload in its own interpreter; the last line merges their
    results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"{workload}: " + "; ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cpu = pin_one_cpu()
    try:
        run = measure_traced if args.trace else measure
        attempted, failed, problems, metrics, detail = run(args.workload, args.seed, args.seconds)
        prov = provenance(args.seed, args.workload) | {"pinned_cpu": cpu}
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = not problems
    emit(correct, attempted, failed, metrics, bool(args.trace), problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
