"""Command-line front-end: audit model specs, scan dimensions, run the
mechanics simulator, and re-emit saved reports.

Exit status is 0 exactly when every check in the run is ok.  JSON output is
stable-ordered and excludes timing, so identical spec + seed produce
byte-identical reports.  The saved format
itself belongs to :class:`~confsym.suites.RunReport`; this module only
renders it, through one JSON encoder, and every report command writes and
sets its exit status through one path.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .clifford import MAX_DIM, MIN_DIM
from .errors import ConfsymError, ParseError, SemanticError
from .mechanics import MechParams, dump_trajectory, initial_state, integrate
from .modelspec import ModelSpec, check_dimension, parse_spec, time_span
from .suites import RunReport, run_suite


# The types json writes as one token.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _json_bytes(data: dict) -> bytes:
    """The one json encoding of every report: sorted keys, two-space indent,
    no NaN or infinity, and a final newline; the bytes of
    ``json.dumps(data, sort_keys=True, indent=2, allow_nan=False)``.

    ``indent`` puts ``json`` on its pure-Python encoder, so the indent is
    written here and only single-line encodings are left to ``json``, which
    then runs its C encoder: a container whose items are all scalars is one
    ``encode`` whose item separator is the comma, the newline and the items'
    indent; any other container is rendered item by item.  A dict with a
    key that is not a string goes to ``json.dumps`` whole."""
    encoders = {}

    def encode(value, newline):
        # newline is "\n" and the indent of value's own items
        if newline not in encoders:
            encoders[newline] = json.JSONEncoder(
                sort_keys=True, allow_nan=False, separators=("," + newline, ": ")
            ).encode
        return encoders[newline](value)

    def render(value, newline):
        # newline is "\n" and the indent of the line that value starts on
        if isinstance(value, dict):
            brackets, items = "{}", value.values()
        elif isinstance(value, (list, tuple)):
            brackets, items = "[]", value
        else:
            return encode(value, newline)
        if not items:
            return brackets
        inner = newline + "  "
        if set(map(type, items)) <= _SCALARS:
            body = encode(value, inner)[1:-1]
        elif brackets == "[]":
            body = ("," + inner).join([render(item, inner) for item in value])
        elif set(map(type, value)) == {str}:
            pairs = [f"{encode(key, inner)}: {render(value[key], inner)}" for key in sorted(value)]
            body = ("," + inner).join(pairs)
        else:
            return json.dumps(value, sort_keys=True, indent=2, allow_nan=False).replace("\n", newline)
        return brackets[0] + inner + body + newline + brackets[1]

    return (render(data, "\n") + "\n").encode()


def emit_report(report: RunReport, fmt: str) -> bytes:
    """Render a run report; json form is byte-stable for golden files."""
    if fmt == "json":
        return _json_bytes(report.to_dict())
    if fmt == "text":
        lines = [f"conformal symmetry verification report (confsym {report.version})"]
        spec = report.spec_echo
        lines.append(
            f"model: {spec.get('kind')}  D={spec.get('dimension')}  seed={report.seed}"
        )
        for check in report.checks:
            status = "ERROR" if check.error is not None else "PASS" if check.ok else "FAIL"
            detail = check.error if check.error is not None else f"max {check.max_residual:.3e}  tol {check.tolerance:.1e}"
            timing = "" if check.wall_ms is None else f", {check.wall_ms:.1f} ms"
            lines.append(f"  {status:<5} {check.name:<32} {detail}  (n={check.samples}{timing})")
        n_ok = sum(1 for c in report.checks if c.ok)
        wall = "" if report.wall_time is None else f"  wall: {report.wall_time:.2f}s"
        lines.append(f"checks: {len(report.checks)}  ok: {n_ok}  not ok: {len(report.checks) - n_ok}{wall}")
        lines.append(f"overall: {'PASS' if report.overall_ok else 'FAIL'}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _write_output(payload: bytes, out_path):
    if out_path:
        with open(out_path, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.buffer.write(payload)


def _finish(report: RunReport, args) -> int:
    """Write ``report`` as ``--format`` asks to ``--out`` or stdout; the exit
    status is 0 exactly when every check is ok."""
    _write_output(emit_report(report, args.format), args.out)
    return 0 if report.overall_ok else 1


def _cmd_audit(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = parse_spec(handle.read())
    return _finish(run_suite(spec), args)


def _parse_dims(raw: str):
    """``--dims`` as a list of dimensions; ConfsymError unless it is a
    non-empty range like 3..6 or list like 3,5."""
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfsymError(f"--dims {raw!r} is not a range like 3..6 or a list like 3,5") from None
    if not dims:
        raise ConfsymError(f"--dims {raw!r} selects no dimension")
    return dims


def _check_seed(seed: int) -> None:
    """ConfsymError unless ``--seed`` can seed the check generators."""
    if seed < 0:
        raise ConfsymError(f"--seed must be non-negative, got {seed}")


def _cmd_scan_dims(args) -> int:
    dims = _parse_dims(args.dims)
    for dim in dims:
        check_dimension(args.kind, dim)
    _check_seed(args.seed)
    reports = []
    for dim in dims:
        spec = ModelSpec(
            kind=args.kind,
            dimension=dim,
            components=2 if args.kind == "interacting-multiplet" else 1,
            seed=args.seed,
        )
        reports.append(run_suite(spec))
    ok = all(r.overall_ok for r in reports)
    if args.format == "json":
        scans = [r.to_dict() for r in reports]
        payload = _json_bytes({"version": __version__, "kind": args.kind, "overall_ok": ok, "scans": scans})
    else:
        payload = b"\n".join(emit_report(r, "text") for r in reports)
    _write_output(payload, args.out)
    return 0 if ok else 1


def _cmd_mech_sim(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = parse_spec(handle.read())
    if spec.kind != "mechanics":
        raise SemanticError("mech-sim requires a mechanics model spec")
    mech = spec.mechanics
    state0 = initial_state(mech, spec.components)
    params = MechParams(state0.q.shape[0], spec.coupling)
    traj = integrate(state0, params, *time_span(mech))
    drift = traj.charge_drift()
    summary = (
        f"steps: {traj.times.size - 1}  coupling: {params.coupling}  "
        f"drift H/D/K: {drift[0]:.3e} {drift[1]:.3e} {drift[2]:.3e}\n"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            dump_trajectory(traj, handle)
        sys.stdout.write(summary)
    else:
        dump_trajectory(traj, sys.stdout)
        sys.stderr.write(summary)
    return 0 if float(np.max(drift)) <= spec.tolerances["drift"] else 1


ALGEBRA_CHECKS = [
    "map-composition",
    "killing-equation",
    "commutator-algebra",
    "gamma-reflection",
    "decoupling-bracket",
]


def _cmd_algebra(args) -> int:
    if not MIN_DIM <= args.dim <= MAX_DIM:
        raise ConfsymError(f"algebra supports {MIN_DIM} <= D <= {MAX_DIM}, got --dim {args.dim}")
    _check_seed(args.seed)
    spec = ModelSpec(kind="maxwell", dimension=args.dim, checks=list(ALGEBRA_CHECKS), seed=args.seed)
    return _finish(run_suite(spec), args)


def _cmd_report(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # not json, or not utf-8
            raise ConfsymError(f"{args.file} is not a json report: {exc}") from exc
    return _finish(RunReport.from_dict(data), args)


def _output_args(p: argparse.ArgumentParser) -> None:
    """``--format`` and ``--out`` of a report command, declared after its own
    arguments so that they close its usage and help."""
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None)


_parser = None


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after:
    each parse starts from a new namespace and leaves the parser unchanged."""
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="confsym",
        description="verify scale and conformal symmetry identities of classical fields",
    )
    parser.add_argument("--version", action="version", version=f"confsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="run the check suite for a model spec file")
    p.add_argument("spec")
    _output_args(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("scan-dims", help="run one model kind across a dimension range")
    p.add_argument("--kind", default="maxwell",
                   choices=("maxwell", "interacting-multiplet", "general-scalar"))
    p.add_argument("--dims", default="3..6", help="range like 3..6 or list like 3,5")
    p.add_argument("--seed", type=int, default=ModelSpec.seed)
    _output_args(p)
    p.set_defaults(fn=_cmd_scan_dims)

    p = sub.add_parser("mech-sim", help="integrate a mechanics spec and dump the trajectory")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_mech_sim)

    p = sub.add_parser("algebra", help="generator-algebra checks at one dimension, 2..6")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=ModelSpec.seed)
    _output_args(p)
    p.set_defaults(fn=_cmd_algebra)

    p = sub.add_parser("report", help="re-emit a saved json report")
    p.add_argument("file")
    _output_args(p)
    p.set_defaults(fn=_cmd_report)

    _parser = parser
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SemanticError) as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 2
    except ConfsymError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
