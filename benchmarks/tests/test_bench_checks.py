"""Each output checker accepts a genuine result and rejects a tampered one.

Run with `python3 -m pytest benchmarks/tests -q` from the repository root.
"""
import copy
import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
from efftc import bounds, models, planners, scenarios  # noqa: E402

PARAMS = dict(scenarios.DEFAULT_PARAMS, grid=16)


def _set(result, kind, stage, **values):
    for r in result["reports"]:
        if r["kind"] == kind and r["stage"] == stage:
            r.update(values)
            return result
    raise KeyError((kind, stage))


@pytest.fixture(scope="module")
def torus_result():
    return scenarios.run_scenario("t2-trivial").as_dict()


def test_scenario_checker_accepts_the_genuine_torus(torus_result):
    assert checks.check_scenario(torus_result) == []


@pytest.mark.parametrize("tamper", [
    lambda r: _set(r, "tc", "inf", upper=1),            # misses TC(T^2) = 2
    lambda r: _set(r, "tc", 1, upper=1, lower=1),       # misses TC(T^2) = 2
    lambda r: _set(r, "cat", "inf", upper=None),        # nothing certified
    lambda r: _set(r, "tc", 2, lower=3),                # above the zero divisors
    lambda r: _set(r, "cat", "inf", lower=3, upper=2),  # crossed interval
    lambda r: _set(r, "tc", "inf", status="contradiction"),
    lambda r: r["checks"][0].update(ok=False) or r,     # a refuted cover
    lambda r: r.update(reports=[x for x in r["reports"] if x["stage"] != 1]) or r,
])
def test_scenario_checker_rejects_tampering(torus_result, tamper):
    assert checks.check_scenario(tamper(copy.deepcopy(torus_result)))


def _sphere_involution_shaped():
    """The report layout of s2-involution with its known intervals."""
    def report(kind, stage, lower, upper):
        return {"kind": kind, "stage": stage, "lower": lower, "upper": upper,
                "lower_source": "trivial", "status": "consistent"}
    return {"scenario": "s2-involution", "checks": [],
            "reports": [report("tc", 1, 1, 2), report("tc", 2, 1, 1),
                        report("tc", 3, 0, 0), report("tc", "inf", 0, 0),
                        report("cat", "inf", 0, 0)]}


def test_scenario_checker_knows_the_stage_sequence():
    assert checks.check_scenario(_sphere_involution_shaped()) == []
    for stage, interval in ((1, (1, 1)), (2, (0, 0)), (3, (1, 1)),
                            ("inf", (1, 1))):
        r = _set(_sphere_involution_shaped(), "tc", stage,
                 lower=interval[0], upper=interval[1])
        assert checks.check_scenario(r), stage
    r = _set(_sphere_involution_shaped(), "cat", "inf", lower=2, upper=2)
    assert checks.check_scenario(r)     # above cat(S^2) = 1


@pytest.fixture(scope="module")
def refutations():
    action = models.sphere_antipodal(2)
    out = {}
    for honest in (False, True):
        cover = planners.adversarial_sphere_cover(action, honest_membership=honest)
        out[honest] = (cover, bounds.verify_cover(cover, **PARAMS))
    return out


def test_refutation_checker_accepts_both_witnesses(refutations):
    reasons = set()
    for cover, cert in refutations.values():
        assert checks.check_refutation(cover, cert, PARAMS) == []
        reasons.add(cert.failure["reason"])
    assert reasons == {"continuity", "coverage"}


def _tampered(cert, **failure):
    return dataclasses.replace(cert, failure=dict(cert.failure, **failure))


def test_refutation_checker_rejects_tampering(refutations):
    cover, cert = refutations[False]
    f = cert.failure
    pair, nbr = f["pair"], f["neighbor"]
    bad = [
        dataclasses.replace(cert, certified=True, bound=0, failure=None),
        _tampered(cert, allowed=f["allowed"] * 2),
        _tampered(cert, neighbor=pair),                  # no step at all
        _tampered(cert, neighbor=[nbr[0], nbr[1]][::-1]),
        _tampered(cert, pair=nbr, neighbor=nbr),
        _tampered(cert, pair=[[1.0, 0.0], [0.0, 1.0]]),  # not on S^2
        _tampered(cert, reason="validation"),
    ]
    for c in bad:
        assert checks.check_refutation(cover, c, PARAMS), c.failure
    # a consistent allowance that the recomputed sup-distance stays within
    assert checks.check_refutation(
        cover, _tampered(cert, allowed=f["allowed"] * 100),
        dict(PARAMS, modulus=PARAMS["modulus"] * 100))


def test_coverage_checker_rejects_a_covered_pair(refutations):
    cover, cert = refutations[True]
    x = cert.failure["pair"][0]
    assert checks.check_refutation(cover, _tampered(cert, pair=[x, x]), PARAMS)


@pytest.fixture(scope="module")
def cycle_result(tmp_path_factory):
    spec = next(s for s in generate.SPECS if s.id == "c12-Z4")
    path = generate.write_input(spec, 1, str(tmp_path_factory.mktemp("gen")))
    return spec, scenarios.run_scenario(path).as_dict()


def _check_entry(result, name, **values):
    next(c for c in result["checks"] if c["name"] == name).update(values)
    return result


@pytest.mark.parametrize("tamper", [
    lambda r: _set(r, "cat", "inf", lower=1),             # nil for even k is 0
    lambda r: _set(r, "tc", 2, lower=2),                  # above zd-cl(S^1) = 1
    lambda r: _set(r, "tc", 2, lower_source="cd-criterion"),
    lambda r: _check_entry(r, "cd-criterion", verdict="positive"),
    lambda r: _check_entry(r, "cd-criterion", cd=2),
    lambda r: _check_entry(r, "cd-criterion", hypothesis_ok=False),
    lambda r: _check_entry(r, "cd-bound", cd_diagonal=2),
    lambda r: _check_entry(r, "cd-bound", ok=False),
    lambda r: r.update(checks=[c for c in r["checks"] if c["name"] != "cd-bound"]) or r,
])
def test_generated_checker_rejects_tampering(cycle_result, tamper):
    spec, result = cycle_result
    expected = generate.theory(spec)
    assert checks.check_generated(result, expected) == []
    assert checks.check_generated(tamper(copy.deepcopy(result)), expected)
