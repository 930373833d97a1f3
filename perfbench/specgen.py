"""Seeded model-spec generator for the benchmark workloads.

The program under test only ever sees the spec text written here and the
command lines built in ``run.py``; nothing in this module imports confsym.
The same seed always yields byte-identical spec text.
"""

from __future__ import annotations

import random

FIELD_DIMS = (3, 4, 5, 6)

# Field checks that finish in a few milliseconds each at D <= 6, so that a
# cold `audit` call is dominated by import and one-time set-up.  Their sample
# counts do not depend on D.
CHEAP_CHECKS = (
    "inversion-involution",
    "reflection-matrix",
    "map-inversion-route",
    "gamma-reflection",
    "decoupling-bracket",
)
# `algebra` runs at one D: its sample count grows with D.
ALGEBRA_DIM = 4

MECH_STEP = 1e-3
# The grid spec integrates 10k-step trajectories.  The single-trajectory
# specs use 5k steps: short enough that a run holds enough audits for a tail
# latency, long enough that one audit spans many swings of host speed.
GRID_T_END = 10.0
SINGLE_T_END = 5.0
# The one `mech-sim` of each field and cold pass: 2k steps.
SHORT_T_END = 2.0


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(sections: dict) -> str:
    """Strict ``[section]`` / ``key = value`` text, in insertion order."""
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_fmt(value)}" for key, value in entries.items())
        lines.append("")
    return "\n".join(lines)


def _suite(rng, checks="all") -> dict:
    return {"checks": checks, "seed": rng.randrange(2**31)}


def _round(x: float) -> float:
    return round(x, 6)


def field_specs(seed: int) -> list:
    """Every field kind at D = 3..6, each with its own suite seed.

    Returns ``(name, text)`` pairs: maxwell, general-scalar and
    interacting-multiplet (random coupling) at each D, plus dual-scalar-3.
    The seed shuffles which D gets which scalar profile and how many
    multiplet components, from a fixed mix, so that every seed asks for
    about the same amount of work.
    """
    rng = random.Random(f"field-audit/{seed}")
    profiles = rng.sample(("linear", "linear", "quadratic", "quadratic"), 4)
    components = rng.sample((1, 2, 2, 3), 4)
    out = []
    for i, dim in enumerate(FIELD_DIMS):
        out.append((f"maxwell_d{dim}", render({
            "model": {"kind": "maxwell", "dimension": dim},
            "suite": _suite(rng),
        })))
        out.append((f"general_scalar_d{dim}", render({
            "model": {"kind": "general-scalar", "dimension": dim},
            "params": {"profile": profiles[i]},
            "suite": _suite(rng),
        })))
        out.append((f"multiplet_d{dim}", render({
            "model": {"kind": "interacting-multiplet", "dimension": dim},
            "params": {
                "components": components[i],
                "lambda": _round(rng.uniform(0.0, 2.0)),
            },
            "suite": _suite(rng),
        })))
    out.append(("dual_scalar_d3", render({
        "model": {"kind": "dual-scalar-3", "dimension": 3},
        "suite": _suite(rng),
    })))
    return out


def mechanics_spec(rng, *, grid: bool, t_end: float, n: int) -> str:
    """A mechanics spec with ``n`` components; ``grid`` leaves out lambda and
    q0, which makes `mech-charge-drift` integrate its 3x3 coupling-by-size
    grid."""
    sections = {"model": {"kind": "mechanics", "dimension": 1}}
    mech = {"t-end": t_end, "step": MECH_STEP}
    if grid:
        sections["params"] = {"components": n}
    else:
        sections["params"] = {"lambda": _round(rng.uniform(0.2, 2.0)), "components": n}
        mech["q0"] = [_round(rng.uniform(0.8, 1.6) * rng.choice((-1, 1))) for _ in range(n)]
        mech["p0"] = [_round(rng.uniform(-0.4, 0.4)) for _ in range(n)]
    sections["mechanics"] = mech
    sections["suite"] = _suite(rng)
    return render(sections)


def mech_specs(seed: int) -> list:
    """(name, text, t_end): one grid spec plus twelve single-trajectory specs
    with random coupling, q0 and p0.  The seed shuffles the component counts,
    four each of 1, 2 and 3, because the dump costs time per column."""
    rng = random.Random(f"mech-trajectory/{seed}")
    out = [("mech_grid", mechanics_spec(rng, grid=True, t_end=GRID_T_END, n=2), GRID_T_END)]
    sizes = rng.sample((1, 2, 3) * 4, 12)
    out += [(f"mech_{i}", mechanics_spec(rng, grid=False, t_end=SINGLE_T_END, n=n), SINGLE_T_END)
            for i, n in enumerate(sizes)]
    return out


def short_mech_spec(seed: int) -> tuple:
    """The mechanics spec for the one `mech-sim` call of each field and cold
    pass, which keeps mechanics under a few percent of the pass.  Its size is
    fixed, because the dump costs time per column."""
    rng = random.Random(f"short-mech/{seed}")
    return ("mech_short", mechanics_spec(rng, grid=False, t_end=SHORT_T_END, n=2))


def cheap_specs(seed: int) -> list:
    """Four field specs, one per D = 3..6 in shuffled order, that select
    2, 2, 3 and 3 cheap checks.  Each cheap check is selected exactly twice,
    so every seed asks for the same checks."""
    rng = random.Random(f"cli-cold/{seed}")
    dims = rng.sample(FIELD_DIMS, 4)
    sizes = rng.sample((2, 2, 3, 3), 4)
    cycle = rng.sample(CHEAP_CHECKS, len(CHEAP_CHECKS)) * 2
    out = []
    for i, (dim, size) in enumerate(zip(dims, sizes)):
        kinds = ("maxwell", "general-scalar", "interacting-multiplet")
        kind = rng.choice(kinds + ("dual-scalar-3",) if dim == 3 else kinds)
        checks, cycle = cycle[:size], cycle[size:]
        out.append((f"cheap_{i}", render({
            "model": {"kind": kind, "dimension": dim},
            "suite": _suite(rng, ", ".join(checks)),
        })))
    return out


def algebra_seed(seed: int) -> int:
    """Non-negative suite seed for the `algebra` call."""
    return random.Random(f"algebra/{seed}").randrange(2**31)
