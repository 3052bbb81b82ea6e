"""Output checks against values known apart from efftc.

Each checker takes an operation's output and returns a list of problems; an
empty list means the output is correct.  Scenario checkers read the report
dict of `ScenarioResult.as_dict()`, so a test can tamper with it freely.

Reference values:
- the sphere table in the efftc README: tc^{G,inf} is 1 for the free
  antipodal action on S^2 and 0 for the codimension-1 involution, whose
  stage sequence tc^{G,1..3} is (2, 1, 0);
- classical values bound every effective one from above:
  TC(S^2) = 2, cat(S^2) = 1, TC(T^2) = cat(T^2) = 2, and TC(T^2) = cat(T^2)
  = 2 is attained by the trivial action;
- the zero-divisor cup length of X bounds its restricted kernel: 2 for T^2,
  1 for S^1;
- `generate.theory` for the generated inputs.
"""
from __future__ import annotations

import numpy as np

# (scenario, invariant, stage) -> value the certified interval must contain
KNOWN_VALUES = {
    ("s2-involution", "tc", 1): 2,
    ("s2-involution", "tc", 2): 1,
    ("s2-involution", "tc", 3): 0,
    ("s2-involution", "tc", "inf"): 0,
    ("s2-antipodal", "tc", "inf"): 1,
    ("t2-trivial", "tc", 1): 2,
    ("t2-trivial", "tc", "inf"): 2,
    ("t2-trivial", "cat", "inf"): 2,
}

# classical TC and cat of the underlying space: ceilings for every stage
CLASSICAL = {"s2-involution": {"tc": 2, "cat": 1},
             "s2-antipodal": {"tc": 2, "cat": 1},
             "t2-trivial": {"tc": 2, "cat": 2},
             "t2-halfturn": {"tc": 2, "cat": 2}}

# stage-2 zero-divisor lower bounds never exceed the classical zero-divisor
# cup length of X
ZERO_DIVISOR_CEILING = {"t2-trivial": 2, "t2-halfturn": 2}


def _report(result: dict, kind: str, stage):
    return next((r for r in result["reports"]
                 if r["kind"] == kind and r["stage"] == stage), None)


def check_scenario(result: dict) -> list[str]:
    """Certified intervals of a builtin sphere or torus scenario."""
    sid = result["scenario"]
    problems = []
    for r in result["reports"]:
        where = f"{sid} {r['kind']} stage {r['stage']}"
        if r["status"] != "consistent":
            problems.append(f"{where}: status {r['status']}")
        if r["upper"] is not None and r["lower"] > r["upper"]:
            problems.append(f"{where}: lower {r['lower']} > upper {r['upper']}")
        ceiling = CLASSICAL[sid][r["kind"]]
        if r["lower"] > ceiling:
            problems.append(f"{where}: lower {r['lower']} exceeds the "
                            f"classical value {ceiling}")
    for (scenario, kind, stage), value in KNOWN_VALUES.items():
        if scenario != sid:
            continue
        r = _report(result, kind, stage)
        if r is None or r["upper"] is None:
            problems.append(f"{sid} {kind} stage {stage}: no certified interval")
        elif not r["lower"] <= value <= r["upper"]:
            problems.append(f"{sid} {kind} stage {stage}: [{r['lower']}, "
                            f"{r['upper']}] misses the known value {value}")
    if sid in ZERO_DIVISOR_CEILING:
        r = _report(result, "tc", 2) or _report(result, "tc", 1)
        if r is None:
            problems.append(f"{sid}: no stage-2 lower bound")
        elif r["lower"] > ZERO_DIVISOR_CEILING[sid]:
            problems.append(f"{sid}: zero-divisor lower bound {r['lower']} "
                            f"exceeds the classical cup length "
                            f"{ZERO_DIVISOR_CEILING[sid]}")
    for c in result["checks"]:
        if c.get("hard", True) and not c["ok"]:
            problems.append(f"{sid}: check {c['name']} failed: {c.get('detail')}")
    return problems


def _angle(p, q) -> float:
    """Great-circle distance on the unit sphere."""
    return float(np.arccos(np.clip(np.dot(p, q), -1.0, 1.0)))


def check_refutation(cover, cert, params: dict) -> list[str]:
    """An adversarial claim of bound 0 must be refuted with a true witness.

    The witness is re-checked here, outside the sweep: a coverage failure
    needs the cover's margin at the reported pair below epsilon; a
    continuity failure needs the sections at the pair and its neighbour to
    lie further apart than the reported allowance, and that allowance to be
    L times the distance between the two grid pairs.
    """
    if cert.certified:
        return [f"{cover.name}: the bound-0 claim was certified"]
    f = cert.failure or {}
    eps, modulus = params["epsilon"], params["modulus"]
    pair = np.asarray(f.get("pair", ()), float)
    if pair.shape != (2, 3) or not np.allclose(np.linalg.norm(pair, axis=1), 1.0):
        return [f"{cover.name}: witness pair {f.get('pair')} is not on S^2 x S^2"]
    cs = cover.sets[0]
    if f["reason"] == "coverage":
        margin = float(cs.margin(pair[:1], pair[1:])[0])
        if not margin < eps:
            return [f"{cover.name}: coverage witness has margin {margin} >= {eps}"]
        return []
    if f["reason"] != "continuity":
        return [f"{cover.name}: unexpected refutation {f}"]
    nbr = np.asarray(f["neighbor"], float)
    moved = [i for i in range(2) if not np.array_equal(pair[i], nbr[i])]
    if len(moved) != 1:
        return [f"{cover.name}: neighbour {f['neighbor']} differs from the "
                f"pair in {len(moved)} factors"]
    step = _angle(pair[moved[0]], nbr[moved[0]])
    problems = []
    if abs(f["allowed"] - modulus * step) > 1e-9 * max(1.0, f["allowed"]):
        problems.append(f"{cover.name}: allowed {f['allowed']} is not "
                        f"L * {step}")
    legs_a = cs.build_legs(pair[:1], pair[1:], params["samples"])
    legs_b = cs.build_legs(nbr[:1], nbr[1:], params["samples"])
    sup = max(_angle(p, q) for la, lb in zip(legs_a, legs_b)
              for p, q in zip(la[0], lb[0]))
    if not sup > modulus * step:
        problems.append(f"{cover.name}: recomputed sup-distance {sup} is "
                        f"within L * {step}")
    return problems


def check_generated(result: dict, expected: dict) -> list[str]:
    """A generated input's scenario against `generate.theory`."""
    sid = result["scenario"]
    problems = []
    checks = {c["name"]: c for c in result["checks"]}
    crit = checks.get("cd-criterion")
    if crit is None:
        problems.append(f"{sid}: no cd-criterion result")
    else:
        for key, want in (("cd", expected["cd_x"]),
                          ("hypothesis_ok", expected["hypothesis_ok"]),
                          ("verdict", expected["criterion"])):
            if crit[key] != want:
                problems.append(f"{sid}: cd-criterion {key} {crit[key]!r}, "
                                f"theory {want!r}")
    cat = _report(result, "cat", "inf")
    if cat is None or cat["lower"] != expected["orbit_nilpotency"]:
        problems.append(f"{sid}: orbit nilpotency "
                        f"{None if cat is None else cat['lower']}, theory "
                        f"{expected['orbit_nilpotency']}")
    if "cd_diagonal" in expected:
        bound = checks.get("cd-bound")
        if bound is None:
            problems.append(f"{sid}: no cd-bound result")
        else:
            if bound["ok"] != expected["cd_bound"]:
                problems.append(f"{sid}: cd-bound passed={bound['ok']}")
            if bound["cd_diagonal"] != expected["cd_diagonal"]:
                problems.append(f"{sid}: cd of the saturated diagonal "
                                f"{bound['cd_diagonal']}, theory "
                                f"{expected['cd_diagonal']}")
            if not bound["hypothesis_ok"]:
                problems.append(f"{sid}: cd-bound hypothesis failed")
    tc2 = _report(result, "tc", 2)
    positive = 1 if expected["criterion"] == "positive" else 0
    want = max(positive, expected.get("zero_divisor", 0))
    if tc2 is None or tc2["lower"] != want:
        problems.append(f"{sid}: stage-2 tc lower "
                        f"{None if tc2 is None else tc2['lower']}, theory {want}")
    elif "zero_divisor" in expected and tc2["lower_source"] != "zero-divisor":
        problems.append(f"{sid}: stage-2 lower comes from "
                        f"{tc2['lower_source']}, not the zero divisors")
    return problems
