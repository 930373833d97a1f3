"""Strict line-oriented model-spec parser.

Format: ``[section]`` headers followed by ``key = value`` lines.  Blank lines
and lines starting with ``#`` are ignored.  Anything else is an error with
an exact line number: unknown sections, unknown keys, duplicated keys,
malformed or non-finite values, number lists without a number.  Semantic
constraints (dimension versus model kind, ``p0`` without ``q0``,
``components`` other than the length of ``q0``, a ``[fixture]`` whose
``kind`` is not ``plane-wave``, a Maxwell ``k`` and ``epsilon`` that fail
:func:`~confsym.fields.check_maxwell_plane_wave`, a ``t-end`` shorter
than half a ``step`` or longer than ``MAX_STEPS`` steps, a negative seed,
an empty check selection) raise :class:`SemanticError` after parsing.  A
mechanics spec with ``q0`` and no ``components`` takes its component count
from ``q0``; an absent ``t-end`` or ``step`` reads as its
``DEFAULT_TIME_SPAN`` value.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import OffShellParameters, ParseError, SemanticError
from .fields import check_maxwell_plane_wave
from .geometry import Metric
from .mechanics import MAX_STEPS

MODEL_KINDS = (
    "maxwell",
    "general-scalar",
    "interacting-multiplet",
    "dual-scalar-3",
    "mechanics",
)

FIELD_KINDS = ("maxwell", "general-scalar", "interacting-multiplet", "dual-scalar-3")

DEFAULT_TOLERANCES = {
    "exact": 1e-12,
    "identity": 1e-10,
    "oracle": 1e-6,
    "drift": 1e-8,
}

# the mechanics trajectory's span and step when a spec leaves them out
DEFAULT_TIME_SPAN = {"t-end": 10.0, "step": 1e-3}

_SCHEMA = {
    "model": {"kind": "str", "dimension": "int"},
    "params": {
        "lambda": "float",
        "components": "int",
        "profile": "str",
        "l0": "float",
        "l1": "float",
    },
    "fixture": {
        "kind": "str",
        "k": "floats",
        "epsilon": "floats",
        "amplitude": "floats",
        "phase": "float",
    },
    "mechanics": {
        "q0": "floats",
        "p0": "floats",
        "t-end": "float",
        "step": "float",
    },
    "suite": {"checks": "str", "seed": "int"},
    "tolerances": dict.fromkeys(DEFAULT_TOLERANCES, "float"),
}


class ModelSpec:
    """Parsed and validated declarative model description.

    ``fixture``, ``mechanics`` and ``tolerances`` default to a fresh dict
    per spec (the tolerances a copy of ``DEFAULT_TOLERANCES``), and
    ``checks`` to None, the full applicable set.  Two specs are equal when
    every attribute is.
    """

    seed = 42  # the default seed, which cli also offers for --seed

    def __init__(self, kind: str, dimension: int, coupling: float = 0.0, components: int = 1,
                 profile: str = "linear", l0: float = 0.0, l1: float = 0.5, fixture: Optional[dict] = None,
                 mechanics: Optional[dict] = None, checks: Optional[list] = None, seed: int = seed,
                 tolerances: Optional[dict] = None):
        self.kind = kind
        self.dimension = dimension
        self.coupling = coupling
        self.components = components
        self.profile = profile
        self.l0 = l0
        self.l1 = l1
        self.fixture = {} if fixture is None else fixture
        self.mechanics = {} if mechanics is None else mechanics
        self.checks = checks
        self.seed = seed
        self.tolerances = dict(DEFAULT_TOLERANCES) if tolerances is None else tolerances

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def echo(self) -> dict:
        """Normalised key/value form embedded in reports."""
        out = {
            "kind": self.kind,
            "dimension": self.dimension,
            "coupling": self.coupling,
            "components": self.components,
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
        }
        if self.kind == "general-scalar":
            out["profile"] = self.profile
            if self.profile == "linear":
                out["l0"] = self.l0
                out["l1"] = self.l1
        if self.fixture:
            out["fixture"] = {k: self.fixture[k] for k in sorted(self.fixture)}
        if self.mechanics:
            out["mechanics"] = {k: self.mechanics[k] for k in sorted(self.mechanics)}
        out["checks"] = "all" if self.checks is None else list(self.checks)
        return out


def time_span(mechanics: dict) -> tuple:
    """(t-end, step) of a ``[mechanics]`` section, defaults filled in; the
    section itself keeps only what the spec set, since reports echo it."""
    return tuple(mechanics.get(key, value) for key, value in DEFAULT_TIME_SPAN.items())


def check_dimension(kind: str, dimension: int) -> None:
    """Raise SemanticError unless ``kind`` is defined at ``dimension``."""
    if kind == "dual-scalar-3" and dimension != 3:
        raise SemanticError("dual-scalar-3 requires dimension = 3")
    if kind == "mechanics" and dimension != 1:
        raise SemanticError("mechanics has one-dimensional (time only) semantics")
    if kind in FIELD_KINDS and not 3 <= dimension <= 6:
        raise SemanticError("field models support 3 <= dimension <= 6")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _convert(raw, kind, lineno):
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(float(raw))
        if kind == "floats":
            values = [_finite(float(part.strip())) for part in raw.split(",") if part.strip()]
            if values:
                return values
            raise ValueError("no numbers in the list")
    except ValueError as exc:
        raise ParseError(f"bad {kind} value {raw!r}", lineno) from exc
    raise ParseError(f"unknown schema type {kind!r}", lineno)


def parse_spec(text: str) -> ModelSpec:
    """Parse the strict key = value format into a validated ModelSpec."""
    sections: dict = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        if current is None:
            raise ParseError("entry outside any [section]", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        schema = _SCHEMA[current]
        if key not in schema:
            raise ParseError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", lineno)
        if not value:
            raise ParseError(f"empty value for {key!r}", lineno)
        sections[current][key] = (_convert(value, schema[key], lineno), lineno)
    return _validate(sections)


def _take(sections, section, key):
    """The value of ``key`` in ``[section]``, or None where the spec leaves it out."""
    entry = sections.get(section, {}).get(key)
    return None if entry is None else entry[0]


def _validate(sections) -> ModelSpec:
    if "model" not in sections:
        raise SemanticError("missing [model] section")
    kind = _take(sections, "model", "kind")
    dimension = _take(sections, "model", "dimension")
    if kind is None or dimension is None:
        raise SemanticError("[model] must set both kind and dimension")
    if kind not in MODEL_KINDS:
        raise SemanticError(f"unknown model kind {kind!r}")

    check_dimension(kind, dimension)

    coupling = _take(sections, "params", "lambda")
    if coupling is not None and coupling < 0:
        raise SemanticError("lambda must be non-negative")
    components = _take(sections, "params", "components")
    if components is not None and components < 1:
        raise SemanticError("components must be >= 1")
    profile = _take(sections, "params", "profile")
    if profile not in (None, "linear", "quadratic"):
        raise SemanticError(f"unknown profile {profile!r}")

    fixture = {k: v[0] for k, v in sections.get("fixture", {}).items()}
    if "fixture" in sections and fixture.get("kind") != "plane-wave":
        raise SemanticError("[fixture] needs kind = plane-wave, the only fixture kind")
    for key in ("k", "epsilon"):
        if key in fixture and len(fixture[key]) != dimension:
            raise SemanticError(f"fixture {key} must have {dimension} components")
    if kind == "maxwell" and "k" in fixture and "epsilon" in fixture:
        try:
            with np.errstate(all="ignore"):  # an overflow reads as NaN or inf, and fails
                check_maxwell_plane_wave(fixture["k"], fixture["epsilon"], Metric.shared(dimension))
        except OffShellParameters as exc:
            raise SemanticError(f"fixture is not a Maxwell plane wave: {exc}") from None

    mech = {k: v[0] for k, v in sections.get("mechanics", {}).items()}
    if kind != "mechanics" and mech:
        raise SemanticError("[mechanics] section is only valid for kind = mechanics")
    if "p0" in mech and "q0" not in mech:
        raise SemanticError("p0 needs q0")
    if "q0" in mech and "p0" in mech and len(mech["q0"]) != len(mech["p0"]):
        raise SemanticError("q0 and p0 must have equal lengths")
    if "q0" in mech:
        if components is not None and components != len(mech["q0"]):
            raise SemanticError(f"components = {components} but q0 has {len(mech['q0'])}")
        components = len(mech["q0"])
    t_end, step = time_span(mech)
    if step <= 0:
        raise SemanticError("step must be positive")
    steps = t_end / step
    if steps > MAX_STEPS:
        raise SemanticError(f"t-end / step must be at most {MAX_STEPS}")
    if round(steps) < 1:
        raise SemanticError("t-end / step must round to at least one step")

    seed = _take(sections, "suite", "seed")
    if seed is not None and seed < 0:
        raise SemanticError("seed must be non-negative")
    checks_raw = _take(sections, "suite", "checks")
    checks = None
    if checks_raw not in (None, "all"):
        checks = [part.strip() for part in checks_raw.split(",") if part.strip()]
        if not checks:
            raise SemanticError("checks selects no check")
        from .suites import CHECKS  # deferred: avoid a cycle at import time

        for index, name in enumerate(checks):
            if name not in CHECKS:
                raise SemanticError(f"unknown check name {name!r}")
            if name in checks[:index]:
                raise SemanticError(f"check {name!r} is listed twice")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, entry in sections.get("tolerances", {}).items():
        if entry[0] <= 0:
            raise SemanticError(f"tolerance {key} must be positive")
        tolerances[key] = entry[0]

    # a key the spec leaves out keeps ModelSpec's default
    given = dict(coupling=coupling, components=components, profile=profile, seed=seed,
                 l0=_take(sections, "params", "l0"), l1=_take(sections, "params", "l1"))
    return ModelSpec(kind=kind, dimension=dimension, fixture=fixture, mechanics=mech, checks=checks,
                     tolerances=tolerances, **{key: value for key, value in given.items() if value is not None})
