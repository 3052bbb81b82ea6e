"""The benchmark's workloads: operations on efftc's public functions.

An operation is one scenario run or one `verify_cover` call.  `build(name,
seed, work_dir)` makes a workload's inputs and returns its operations; each
carries a checker from `checks` that compares the output with values known
apart from efftc.  Importing this module imports efftc, so the benchmark
times the import as part of set-up.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from efftc import bounds, models, planners, scenarios

import checks
import generate


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _scenario_op(scenario, check) -> Operation:
    return Operation(scenario.id, lambda: scenarios.run_scenario_obj(scenario),
                     lambda result: check(result.as_dict()))


def _shuffled(ops: list, seed: int) -> list:
    random.Random(seed).shuffle(ops)
    return ops


def sphere_certify(seed: int, work_dir: str) -> list[Operation]:
    """s2-involution (tc covers at stages 1-3, a based cat cover) and
    s2-antipodal (a stage-2 tc cover, two cat covers) at the default
    resolution; the seed orders them."""
    ops = [_scenario_op(scenarios.load_scenario(name), checks.check_scenario)
           for name in ("s2-involution", "s2-antipodal")]
    return _shuffled(ops, seed)


REFUTE_ACTIONS = {"antipodal": models.sphere_antipodal,
                  "codim1": models.sphere_codim1,
                  "rotation": models.sphere_rotation,
                  "trivial": models.sphere_trivial}
REFUTE_GRIDS = (24, 32, 40)


def sphere_refute(seed: int, work_dir: str) -> list[Operation]:
    """verify_cover on the single-set adversarial S^2 cover claiming TC = 0,
    both variants, under four actions at three grids; the seed orders them."""
    ops = []
    for action_name, make in REFUTE_ACTIONS.items():
        action = make(2)
        for honest in (False, True):
            cover = planners.adversarial_sphere_cover(
                action, honest_membership=honest,
                name=f"adversarial-{action_name}-{'honest' if honest else 'all'}")
            for grid in REFUTE_GRIDS:
                params = dict(scenarios.DEFAULT_PARAMS, grid=grid)
                ops.append(Operation(
                    f"{cover.name}@{grid}",
                    lambda cover=cover, params=params:
                        bounds.verify_cover(cover, **params),
                    lambda cert, cover=cover, params=params:
                        checks.check_refutation(cover, cert, params)))
    return _shuffled(ops, seed)


def torus_exact(seed: int, work_dir: str) -> list[Operation]:
    """t2-trivial and t2-halfturn: zero divisors on the materialised X x X
    dominate; the seed orders them."""
    ops = [_scenario_op(scenarios.load_scenario(name), checks.check_scenario)
           for name in ("t2-trivial", "t2-halfturn")]
    return _shuffled(ops, seed)


def generated_actions(seed: int, work_dir: str) -> list[Operation]:
    """Cycles and grid tori with seeded generators and vertex labels,
    written as .cx/.act/scenario files and run from those files."""
    ops = []
    for spec, path in generate.generate(seed, work_dir):
        expected = generate.theory(spec)
        ops.append(_scenario_op(
            scenarios.load_scenario(path),
            lambda result, expected=expected:
                checks.check_generated(result, expected)))
    return _shuffled(ops, seed)


WORKLOADS = {
    "sphere-certify": sphere_certify,
    "sphere-refute": sphere_refute,
    "torus-exact": torus_exact,
    "generated-actions": generated_actions,
}


def build(name: str, seed: int, work_dir: str) -> list[Operation]:
    return WORKLOADS[name](seed, work_dir)
