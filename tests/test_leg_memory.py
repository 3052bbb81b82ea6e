"""Leg builders hold no full-size scratch arrays.

For every cover of the builtin catalog and the adversarial cover, each
set's `build_legs` runs on about 12k accepted grid pairs under
`tracemalloc`; its peak, divided by the bytes of the moving legs it
returns, is the set's ratio.  Constant legs are read-only views and count
for nothing; a set whose legs are all constant views is skipped.
"""
import tracemalloc

import numpy as np

from efftc import models, planners
from efftc.pathspace import Sphere
from efftc.scenarios import BUILTINS, DEFAULT_PARAMS, build_bundle, build_planner

PAIRS = 12_000
SAMPLES = DEFAULT_PARAMS["samples"]
# per space, a grid of 150-260 points (the point space has one): its pairs
# in grid order hold more than 12k accepted pairs of every set, antipodal
# pairs included
RESOLUTION = {"point": 1, "sphere1": 150, "sphere2": 16, "torus2": 200,
              "wedge2": 80, "wedge3": 80}
S2_CEILING = 1.5
# each cover's ratio (the largest over its sets) while its builders still
# held full-size scratch arrays: whole-array slerp buffers, a second copy of
# the adversarial legs, lifts and sections checked on whole legs
FORMER_RATIO = {
    "s1-antipodal/covering-lift": 3.563,
    "s1-antipodal/cat-covering-lift": 2.126,
    "s1-flip/strict-section": 3.000,
    "s1-flip/involution2": 2.111,
    "s1-flip/cat-strict-section": 3.000,
    "s2-involution/farber": 2.077,
    "s2-involution/involution2": 2.077,
    "s2-involution/involution3": 1.666,
    "s2-involution/cat-strict-section": 2.135,
    "s2-antipodal/involution2": 2.093,
    "s2-antipodal/cat-covering-lift": 2.093,
    "s2-antipodal/cat-geodesic": 2.103,
    "s2-rotation/farber": 2.077,
    "s2-rotation/cat-geodesic": 2.103,
    "t2-trivial/torus-cut": 2.037,
    "t2-trivial/cat-torus-cut": 2.037,
    "t2-halfturn/covering-lift": 6.000,
    "t2-halfturn/cat-torus-cut": 2.037,
    "wedge-z2/wedge": 2.500,
    "wedge-z2/cat-strict-section": 2.500,
    "wedge-z3/wedge": 2.500,
    "wedge-z3/cat-strict-section": 2.500,
}
ADVERSARIAL_ACTIONS = {"antipodal": models.sphere_antipodal,
                       "codim1": models.sphere_codim1,
                       "rotation": models.sphere_rotation,
                       "trivial": models.sphere_trivial}
FORMER_RATIO.update({f"adversarial-{name}-{variant}": ratio
                     for name in ADVERSARIAL_ACTIONS
                     for variant, ratio in (("all", 3.102), ("honest", 3.114))})


def catalog_covers():
    """(label, cover) for every planner step of every builtin scenario,
    then the adversarial S^2 cover under each catalog sphere action."""
    for scenario in BUILTINS.values():
        bundle = build_bundle(scenario)
        for step in scenario.pipeline:
            if step["op"] in ("upper", "cat-upper"):
                cover = build_planner(step["planner"], bundle)
                if step["op"] == "cat-upper" and cover.kind != "cat":
                    cover = planners.restrict_to_cat(cover, bundle.basepoint)
                yield f"{scenario.id}/{step['planner']}", cover
    for name, make in ADVERSARIAL_ACTIONS.items():
        for honest in (False, True):
            cover = planners.adversarial_sphere_cover(make(2),
                                                      honest_membership=honest)
            yield f"adversarial-{name}-{'honest' if honest else 'all'}", cover


def accepted_pairs(cover, cs):
    """The first PAIRS accepted pairs of set cs in grid order (repeated
    cyclically when the set accepts fewer)."""
    space = cover.action.space
    ypts = space.grid(RESOLUTION[space.name])
    if cover.kind == "cat":
        xpts = np.asarray(cover.basepoint, float)[None, :]
    else:
        xpts = ypts
    X = np.repeat(xpts, len(ypts), axis=0)
    Y = np.tile(ypts, (len(xpts), 1))
    rows = np.flatnonzero(cs.margin(X, Y) >= DEFAULT_PARAMS["epsilon"])
    rows = np.resize(rows, PAIRS)
    return np.ascontiguousarray(X[rows]), np.ascontiguousarray(Y[rows])


def peak_ratio(cs, X, Y):
    """build_legs' traced peak over the bytes of its moving legs, or None
    when every leg is a constant view."""
    cs.build_legs(X[:2], Y[:2], SAMPLES)      # imports and caches first
    tracemalloc.start()
    try:
        legs = cs.build_legs(X, Y, SAMPLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    moving = sum(leg.nbytes for leg in legs if leg.strides[1] != 0)
    return peak / moving if moving else None


def leg_peak_ratios():
    """{(cover label, set name): ratio} over the catalog and adversarial
    covers, skipping all-constant sets."""
    ratios = {}
    for label, cover in catalog_covers():
        for cs in cover.sets:
            ratio = peak_ratio(cs, *accepted_pairs(cover, cs))
            if ratio is not None:
                ratios[label, cs.name] = ratio
    return ratios


def test_leg_builders_stay_within_their_memory_budget():
    ratios = leg_peak_ratios()
    over = {}
    for (label, set_name), ratio in ratios.items():
        ceiling = FORMER_RATIO[label]
        if label.startswith(("s2-", "adversarial-")):
            ceiling = min(ceiling, S2_CEILING)
        if ratio > ceiling:
            over[label, set_name] = (round(ratio, 3), ceiling)
    assert not over, over
    # every catalog cover but the all-constant point covers was measured
    labels = {label for label, _ in ratios}
    assert labels == set(FORMER_RATIO)


def test_sphere_geodesic_holds_one_block_beyond_its_output():
    sphere = Sphere(2)
    rng = np.random.default_rng(5)
    P, Q = sphere.random_points(rng, 30_000), sphere.random_points(rng, 30_000)
    tracemalloc.start()
    try:
        leg = sphere.geodesic(P, Q, SAMPLES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * leg.nbytes, peak / leg.nbytes
