"""Kernel rows: throughput of single library calls through the public API.

Each kernel is timed at D = 4 and D = 6 on seeded inputs, plus the RK4
integrator (through ``mechanics.integrate``) and the trajectory dump.  Every
function is looked up on its module at call time, so a later version that
rewrites the internals behind the same public name is timed the same way.
"""

from __future__ import annotations

import io
import statistics
import time

import numpy as np

import specgen

KERNEL_DIMS = (4, 6)
BLOCK = 64  # calls per timed block
BUDGET_S = 0.15  # timed seconds per field kernel; the RK4 and dump rows get three times this
RK4_T_END = 2.0
RK4_STEP = 1e-3


def _rate(run_block, work_per_block: int, budget_s: float) -> float:
    """Median rate over at least three blocks, run until ``budget_s`` has
    elapsed."""
    run_block()  # warm-up, not timed
    rates = []
    deadline = time.perf_counter() + budget_s
    while len(rates) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        run_block()
        rates.append(work_per_block / (time.perf_counter() - start))
    return statistics.median(rates)


def spec_text(dim: int) -> str:
    """The spec that the ``parse_spec`` kernel parses: every section kind a
    field spec uses."""
    return specgen.render({
        "model": {"kind": "maxwell", "dimension": dim},
        "fixture": {"kind": "plane-wave", "k": [1.0, 1.0] + [0.0] * (dim - 2), "phase": 0.25},
        "suite": {"checks": ", ".join(specgen.CHEAP_CHECKS), "seed": 42},
        "tolerances": {"identity": 1e-10},
    })


def _field_kernels(dim, seed):
    from confsym import fields, geometry, modelspec, noether, sampling, transforms

    rng = np.random.default_rng([seed % 2**32, dim])
    metric = geometry.Metric(dim)
    xs, cs = sampling.nonsingular_pairs(rng, dim, BLOCK)
    wave = fields.CosineMultiplet(sampling.null_vector(rng, dim), [1.0, 0.5], 0.3, metric)
    potential = sampling.random_onshell_potential(rng, metric)
    pairs = [(s % dim, (s * 7 + 3) % dim) for s in range(BLOCK)]
    text = spec_text(dim)

    def conformal_map():
        for x, c in zip(xs, cs):
            geometry.special_conformal_map(x, c, metric)

    def jacobian():
        for x, c in zip(xs, cs):
            geometry.map_jacobian(x, c, metric)

    def hess():
        for x in xs:
            wave.hess(x)

    def third():
        for x in xs:
            wave.third(x)

    def stress():
        for x in xs:
            noether.maxwell_stress(potential, x, metric)

    def commutator():
        for (s, t), x in zip(pairs, xs):
            transforms.commutator_residual(s, t, wave, x, metric)

    def parse():
        for _ in range(BLOCK):
            modelspec.parse_spec(text)

    return {
        "special_conformal_map": conformal_map,
        "map_jacobian": jacobian,
        "CosineMultiplet.hess": hess,
        "CosineMultiplet.third": third,
        "maxwell_stress": stress,
        "commutator_residual": commutator,
        "parse_spec": parse,
    }


def measure(seed: int) -> dict:
    """``kernel.*`` metrics as {name: (value, unit)}."""
    from confsym import mechanics

    out = {}
    for dim in KERNEL_DIMS:
        for name, block in _field_kernels(dim, seed).items():
            out[f"kernel.{name}.d{dim}.per_s"] = (_rate(block, BLOCK, BUDGET_S), "1/s")

    state = mechanics.MechState.make(0.0, [1.2, 0.4], [0.3, -0.2])
    params = mechanics.MechParams(2, 0.5)
    steps = int(round(RK4_T_END / RK4_STEP))
    out["kernel.rk4.steps_per_s"] = (
        _rate(lambda: mechanics.integrate(state, params, RK4_T_END, RK4_STEP), steps, 3 * BUDGET_S),
        "1/s",
    )
    traj = mechanics.integrate(state, params, RK4_T_END, RK4_STEP)
    out["kernel.dump_trajectory.rows_per_s"] = (
        _rate(lambda: mechanics.dump_trajectory(traj, io.StringIO()), steps + 1, 3 * BUDGET_S),
        "1/s",
    )
    return out
