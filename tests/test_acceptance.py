"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s).  The
pinned parameters are grid=32, epsilon=0.05, delta=1e-6, modulus=10 with 64
samples per leg; exact computations carry no sampling parameters at all.
"""

import os
import pathlib
import time

import numpy as np
import pytest

from efftc.bounds import (
    cd_bound_check,
    orbit_nilpotency_lower_bound,
    usable_cpus,
    verify_cover,
    zero_divisor_cup_length,
)
from efftc.complexes import build_complex, coboundary_matrix, cohomology
from efftc.models import (
    hexagon_antipodal_action,
    hexagon_reflection_action,
    sphere_antipodal,
    sphere_swap_action,
    torus9_complex,
)
from efftc.planners import adversarial_sphere_cover
from efftc.scenarios import BUILTINS, build_bundle, run_scenario
from efftc.symmetry import (
    pointwise_fixed_subcomplex,
    product_complex,
    saturated_diagonal,
    trivial_action,
)

from oracles import catalog_certification, oracle_betti

_RESULTS: dict = {}
_TIMES: dict = {}


def scenario_result(name):
    if name not in _RESULTS:
        t0 = time.monotonic()
        _RESULTS[name] = run_scenario(name)
        _TIMES[name] = time.monotonic() - t0
    return _RESULTS[name]


def _report(result, invariant, stage):
    rep = result.report_for(invariant, stage)
    assert rep is not None, (invariant, stage)
    return rep


def _announce(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_involution_sphere_sequence():
    res = scenario_result("s2-involution")
    elapsed = _TIMES["s2-involution"]
    s1 = _report(res, "tc", 1)
    s2 = _report(res, "tc", 2)
    s3 = _report(res, "tc", 3)
    uppers = (s1.upper.value, s2.upper.value, s3.upper.value)
    ok = (uppers == (2, 1, 0)
          and s2.lower.value == 1
          and s2.lower.source == "cd-criterion"
          and s1.lower.value >= 1
          and all(res.params[k] == v for k, v in
                  {"grid": 32, "epsilon": 0.05, "delta": 1e-6,
                   "modulus": 10.0, "samples": 64}.items())
          and res.consistent
          and elapsed < 30.0)
    _announce(1, ok, f"stage uppers {uppers}, stage-2 interval "
                     f"[{s2.lower.value},{s2.upper.value}], {elapsed:.1f}s")


def test_criterion_2_free_antipodal_circle():
    res = scenario_result("s1-antipodal")
    elapsed = _TIMES["s1-antipodal"]
    s2 = _report(res, "tc", 2)
    inf = _report(res, "tc", "inf")
    ok = (s2.upper.value == 1 and s2.upper.source.startswith("covering-lift")
          and s2.lower.value >= 1 and s2.lower.source == "zero-divisor"
          and (inf.lower.value, inf.upper.value) == (1, 1)
          and res.consistent and elapsed < 10.0)
    _announce(2, ok, f"interval [{inf.lower.value},{inf.upper.value}] "
                     f"via {s2.upper.source}, {elapsed:.1f}s")


def test_criterion_3_flip_circle():
    res = scenario_result("s1-flip")
    elapsed = _TIMES["s1-flip"]
    inf = _report(res, "tc", "inf")
    crit = next(c for c in res.checks if c["name"] == "cd-criterion")
    strict = next(c for c in res.checks if c["name"] == "tc-cover:strict-section")
    ok = (inf.upper.value == 0 and strict["ok"]
          and crit["verdict"] == "inconclusive"
          and res.consistent and elapsed < 10.0)
    _announce(3, ok, f"strict-section upper {inf.upper.value}, criterion "
                     f"{crit['verdict']}, {elapsed:.1f}s")


def test_criterion_4_wedge_realization():
    details = []
    ok = True
    for name in ("wedge-z2", "wedge-z3"):
        res = scenario_result(name)
        elapsed = _TIMES[name]
        inf = _report(res, "tc", "inf")
        good = (inf.upper.value == 1
                and inf.upper.source.startswith("wedge")
                and res.consistent and elapsed < 10.0)
        ok = ok and good
        details.append(f"{name}: upper {inf.upper.value} ({elapsed:.1f}s)")
    _announce(4, ok, "; ".join(details))


def test_criterion_5_saturated_diagonal_cd_bound():
    t0 = time.monotonic()
    cases = [
        ("hexagon antipodal", hexagon_antipodal_action()),
        ("hexagon reflection", hexagon_reflection_action()),
        ("boundary-delta3 codim-1", sphere_swap_action()),
    ]
    details = []
    ok = True
    for label, action in cases:
        rep = cd_bound_check(action)
        details.append(f"{label}: cd(diag)={rep.cd_diagonal} <= {rep.bound}")
        ok = ok and rep.passed and rep.hypothesis_ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _announce(5, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_6_classical_torus_consistency():
    t0 = time.monotonic()
    act = trivial_action(torus9_complex())
    zd = zero_divisor_cup_length(act)
    nil = orbit_nilpotency_lower_bound(act)
    elapsed = time.monotonic() - t0
    ok = zd == 2 and nil == 2 and elapsed < 5.0
    _announce(6, ok, f"zero-divisor {zd}, orbit nilpotency {nil} ({elapsed:.1f}s)")


def test_criterion_7a_delta_and_kunneth_random():
    rng = np.random.default_rng(20250810)
    checked = 0
    t0 = time.monotonic()
    while checked < 20:
        nverts = int(rng.integers(3, 7))
        maximal = []
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, min(4, nverts) + 1))
            maximal.append(list(rng.choice(nverts, size=size, replace=False)))
        K = build_complex(maximal)
        for d in range(K.dimension):
            dd = (coboundary_matrix(K, d + 1).to_dense()
                  @ coboundary_matrix(K, d).to_dense())
            assert not (dd % 2).any()
        assert cohomology(K).betti == oracle_betti(maximal)
        L = build_complex([[0, 1], [1, 2], [0, 2]])
        prod = product_complex(K, L)
        bk, bl = cohomology(K).betti, cohomology(L).betti
        expected = [0] * (len(bk) + len(bl) - 1)
        for i, x in enumerate(bk):
            for j, y in enumerate(bl):
                expected[i + j] += x * y
        got = list(cohomology(prod).betti) + [0] * len(expected)
        assert got[:len(expected)] == expected
        checked += 1
    _announce("7a", True,
              f"delta^2 = 0 and Kunneth on {checked} random complexes "
              f"({time.monotonic() - t0:.1f}s)")


_CATALOG_COVERS = [
    ("point", "point", 16),
    ("s1-antipodal", "covering-lift", 32),
    ("s1-flip", "strict-section", 32),
    ("s1-flip", "involution2", 32),
    ("s2-involution", "farber", 16),
    ("s2-involution", "involution2", 16),
    ("s2-involution", "involution3", 16),
    ("s2-antipodal", "involution2", 16),
    ("t2-trivial", "torus-cut", 32),
    ("t2-halfturn", "covering-lift", 32),
    ("wedge-z2", "wedge", 32),
    ("wedge-z3", "wedge", 32),
]


def test_criterion_7b_embedding_preserves_certification():
    # memoized: the sweep's oracle test checks the same certifications
    t0 = time.monotonic()
    cpus = usable_cpus()
    for scenario_name, planner, grid in _CATALOG_COVERS:
        base = catalog_certification(scenario_name, planner, grid, False, cpus)
        assert base.certified, (scenario_name, planner, base.failure)
        emb = catalog_certification(scenario_name, planner, grid, True, cpus)
        assert emb.certified, (scenario_name, planner, emb.failure)
        assert emb.bound == base.bound
        assert emb.stage == base.stage + 1
    _announce("7b", True,
              f"{len(_CATALOG_COVERS)} catalog covers certified after "
              f"embedding ({time.monotonic() - t0:.1f}s)")


_CATALOG_ACTIONS = [
    "point", "s1-antipodal", "s1-flip", "s2-involution", "s2-antipodal",
    "s2-rotation", "t2-trivial", "t2-halfturn", "wedge-z2", "wedge-z3",
]


def test_criterion_7c_slice_intersection_identity():
    t0 = time.monotonic()
    count = 0
    for name in _CATALOG_ACTIONS:
        bundle = build_bundle(BUILTINS[name])
        action = bundle.group_action
        diag = saturated_diagonal(action)
        base = diag.base
        for g in diag.elements:
            for h in diag.elements:
                rel = base.group.mul(base.group.inv(h), g)
                fixed = pointwise_fixed_subcomplex(base, [rel])
                expected = {
                    tuple(sorted((base.apply_vertex(g, v), v) for v in s))
                    for s in fixed.all_simplices()}
                assert diag.slices[g] & diag.slices[h] == frozenset(expected), \
                    (name, g, h)
                count += 1
    _announce("7c", True, f"{count} slice pairs across {len(_CATALOG_ACTIONS)} "
                          f"actions ({time.monotonic() - t0:.1f}s)")


def test_criterion_7d_chain_checks_never_flag():
    flagged = []
    for name in _CATALOG_ACTIONS:
        res = scenario_result(name)
        for check in res.checks:
            if check["name"].startswith("chain:") and not check["ok"]:
                flagged.append((name, check))
    _announce("7d", not flagged, f"chain checks clean on {len(_CATALOG_ACTIONS)} "
                                 f"scenarios {flagged or ''}")


@pytest.mark.skipif("EFFTC_SEED" in os.environ,
                    reason="the seed is recorded in the report params")
@pytest.mark.parametrize("name", _CATALOG_ACTIONS)
def test_builtin_reports_match_golden(name):
    # tests/golden holds each builtin's report bytes at the default seed; a
    # change meant to alter a report rewrites its file and says which bytes moved
    golden = pathlib.Path(__file__).parent / "golden" / f"{name}.json"
    assert scenario_result(name).to_json().encode("utf-8") == golden.read_bytes()


def test_criterion_7e_adversarial_cover_refuted():
    t0 = time.monotonic()
    act = sphere_antipodal(2)
    everything = verify_cover(adversarial_sphere_cover(act, honest_membership=False),
                              grid=16)
    honest = verify_cover(adversarial_sphere_cover(act, honest_membership=True),
                          grid=16)
    ok = (not everything.certified and everything.failure["reason"] == "continuity"
          and not honest.certified and honest.failure["reason"] == "coverage")
    _announce("7e", ok,
              f"tc=0 claims refuted ({everything.failure['reason']}/"
              f"{honest.failure['reason']}) ({time.monotonic() - t0:.1f}s)")
