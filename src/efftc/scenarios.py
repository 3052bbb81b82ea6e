"""Scenario runner: builds space/action bundles, executes bound pipelines,
reconciles reports and evaluates golden expectations.

A scenario is a single JSON document; builtin scenarios are addressable by
name.  Bounds from covers propagate across stages by the witness-level
embedding (a stage-k cover certifies every stage >= k); exact lower bounds
target stage 2 and extend to the stabilized invariant only for free
actions.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as B
from . import models as M
from . import planners as P
from .complexes import read_complex_text
from .errors import RUN_ERRORS, PipelineStepError
from .pathspace import (
    Arc,
    Circle,
    FlatTorus,
    PointSpace,
    Sphere,
    WedgeCircles,
    sampling_seed,
    trivial_space_action,
)
from .planners import DEFAULT_PARAMS
from .symmetry import read_action_text, trivial_action



def check_params(params: dict) -> None:
    """Reject verification parameters no certification can run on: a grid,
    epsilon or modulus that is not positive, a negative delta, or fewer
    than two samples per leg (ValueError)."""
    rules = {"grid": (lambda v: v > 0, "positive"),
             "epsilon": (lambda v: v > 0, "positive"),
             "modulus": (lambda v: v > 0, "positive"),
             "delta": (lambda v: v >= 0, "non-negative"),
             "samples": (lambda v: v >= 2, "at least 2")}
    for key, (ok, what) in rules.items():
        if key in params and not ok(params[key]):
            raise ValueError(f"{key} must be {what}, got {params[key]!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _name(value, what: str):
    """`value` when it is a name (a string) or None, else ValueError."""
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{what} must be a name, got {value!r}")
    return value


def _asserts_something(exp) -> bool:
    """An expectation names a check's outcome ("criterion", "cd_bound"), or
    an invariant ("tc" or "cat") with its lower or upper value."""
    if not isinstance(exp, dict):
        return False
    if "criterion" in exp or "cd_bound" in exp:
        return True
    return exp.get("invariant") in ("tc", "cat") and ("lower" in exp or "upper" in exp)


def _known_keys(obj: dict, keys, what: str) -> None:
    """ValueError naming the keys of `obj` outside `keys`: nothing reads them."""
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {what}")


def _check_expectation(exp) -> None:
    """ValueError unless the expectation asserts something, with integer
    bounds, at an integer stage or "inf", and has no key
    _evaluate_expectation does not read."""
    if not _asserts_something(exp):
        raise ValueError(f"an expectation asserts nothing: {exp!r}")
    # as _evaluate_expectation reads it: a criterion, else a cd bound, else
    # an invariant's bounds
    keys = next(([key] for key in ("criterion", "cd_bound") if key in exp),
                ("invariant", "stage", "lower", "upper"))
    _known_keys(exp, keys, f"the expectation {exp!r}")
    for key in ("lower", "upper"):
        if key in exp and not _is_int(exp[key]):
            raise ValueError(f"an expectation's {key} is not an integer: {exp!r}")
    if "stage" in exp and not (_is_int(exp["stage"]) or exp["stage"] == "inf"):
        raise ValueError(f"an expectation's stage is not an integer or 'inf': {exp!r}")


@dataclass
class Scenario:
    """A scenario; every name in it is checked against the tables below
    when it is made, so an unknown one is a load error."""

    id: str
    space: dict
    action: str
    complex: str | None = None
    simplicial_action: str | None = None
    pipeline: list = field(default_factory=list)
    expected: list = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"the scenario's id must be a name, got {self.id!r}")
        if not isinstance(self.space, dict):
            raise ValueError("the scenario's space is not a JSON object")
        kind = _name(self.space.get("kind"), "the space kind")
        if (kind, _name(self.action, "the action")) not in _SPACE_ACTIONS:
            raise ValueError(f"no action {self.action!r} on space kind {kind!r}")
        sizes = _SPACE_SIZES.get(kind, {})
        _known_keys(self.space, {"kind", *sizes}, f"a {kind} space")
        for key, value in sizes.items():
            given = self.space.get(key, value)
            if not (_is_int(given) and (given == value if value else given >= 1)):
                want = f"{key!r} = {value}" if value else f"a positive integer {key!r}"
                raise ValueError(f"a {kind} space needs {want}, got {given!r}")
        if _name(self.complex, "the complex") is not None:
            if not _is_file(self.complex, ".cx") and self.complex not in _COMPLEXES:
                raise ValueError(f"unknown complex {self.complex!r}")
            act = _name(self.simplicial_action, "the simplicial action") or "trivial"
            if act != "trivial" and not _is_file(act, ".act") \
                    and (self.complex, act) not in _SIMPLICIAL_ACTIONS:
                raise ValueError(f"no simplicial action {act!r} on {self.complex!r}")
        if not isinstance(self.pipeline, list):
            raise ValueError("the scenario's pipeline is not a JSON list")
        for step in self.pipeline:
            if not isinstance(step, dict):
                raise ValueError(f"a pipeline step is not a JSON object: {step!r}")
            op, method = _name(step.get("op"), "op"), _name(step.get("method"), "method")
            if (op, method) not in _STEPS:
                raise ValueError(f"unknown pipeline step: op {op!r}, "
                                 f"method {method!r}")
            _known_keys(step, {"op", "planner" if method is None else "method",
                               *_STEP_OPTIONS.get((op, method), ())},
                        f"the pipeline step {step!r}")
            if method is None:
                planner = _name(step.get("planner"), "planner")
                _check_planner(planner, kind, self.action)
                if op == "upper" and _PLANNERS[planner][1] == "cat":
                    raise ValueError(f"planner {planner!r} builds a based (cat) "
                                     "cover: an upper step takes tc planners only")
            elements = step.get("elements")
            if elements is not None and not (isinstance(elements, list) and elements
                                             and all(map(_is_int, elements))):
                raise ValueError(f"elements must be a non-empty list of integers, "
                                 f"got {elements!r}")
            needs_model, _ = _STEPS[op, method]
            if needs_model and self.complex is None:
                raise ValueError("exact lower bounds and checks need a simplicial "
                                 "model: the scenario names no complex")
        if not isinstance(self.expected, list):
            raise ValueError("the scenario's expected is not a JSON list")
        for exp in self.expected:
            _check_expectation(exp)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ValueError("a scenario is a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        missing = {"id", "space", "action"} - set(data)
        if missing:
            raise ValueError(f"missing scenario fields: {sorted(missing)}")
        return cls(**data)


@dataclass
class Bundle:
    scenario: Scenario
    space_action: object | None = None
    group_action: object | None = None
    quotient_model: object | None = None
    basepoint: np.ndarray | None = None


# ----------------------------------------------------------- construction

def _sphere(make, quotients=None):
    """A sphere entry: the action on S^n, and its quotient model for the
    dimensions n that have one."""
    quotients = quotients or {}
    return (lambda spec: make(int(spec["n"])),
            lambda act: quotients.get(act.space.n, _no_quotient)(act))


def _no_quotient(space_action):
    return None


_CODIM1_QUOTIENTS = {1: M.circle_flip_quotient, 2: M.sphere2_codim1_quotient}

# (space kind, action) -> (SpaceAction of the space spec, quotient model of
# that action, or None)
_SPACE_ACTIONS = {
    ("point", "trivial"): (lambda spec: M.point_trivial(), _no_quotient),
    ("sphere", "trivial"): _sphere(M.sphere_trivial),
    ("sphere", "antipodal"): _sphere(M.sphere_antipodal,
                                     {1: M.circle_antipodal_quotient}),
    ("sphere", "flip"): _sphere(M.sphere_codim1, _CODIM1_QUOTIENTS),
    ("sphere", "codim1-involution"): _sphere(M.sphere_codim1, _CODIM1_QUOTIENTS),
    ("sphere", "rotation"): _sphere(M.sphere_rotation),
    ("torus", "trivial"): (lambda spec: M.torus_trivial(), _no_quotient),
    ("torus", "torus-halfturn"): (lambda spec: M.torus_halfturn(),
                                  M.torus_halfturn_quotient),
    ("wedge", "wedge-swap"): (lambda spec: M.wedge_swap(int(spec["branches"])),
                              M.wedge_quotient),
}

# space kind -> {size: None, for a positive integer its spec must give, or
# the one value the spec may give}
_SPACE_SIZES = {"sphere": {"n": None}, "wedge": {"branches": None}, "torus": {"n": 2}}

# space class -> (default basepoint, radius of the cat-covering-lift balls)
_BASEPOINTS = {
    Sphere: (lambda space: np.eye(space.point_dim)[0], np.pi / 2 + 0.3),
    FlatTorus: (lambda space: np.zeros(space.point_dim), 0.7),
    WedgeCircles: (lambda space: np.zeros(2), 0.7),
    PointSpace: (lambda space: np.zeros(1), 0.7),
}

_COMPLEXES = {
    "point": M.point_complex,
    "hexagon": M.hexagon_complex,
    "boundary-delta3": M.boundary_delta3_complex,
    "octahedron": M.octahedron_complex,
    "torus9": M.torus9_complex,
    "torus43": M.torus43_complex,
    "wedge-triangles-2": lambda: M.wedge_triangles_complex(2),
    "wedge-triangles-3": lambda: M.wedge_triangles_complex(3),
}

_SIMPLICIAL_ACTIONS = {
    ("hexagon", "antipodal"): M.hexagon_antipodal_action,
    ("hexagon", "flip"): M.hexagon_reflection_action,
    ("boundary-delta3", "codim1-involution"): M.sphere_swap_action,
    ("octahedron", "antipodal"): M.octahedron_antipodal_action,
    ("octahedron", "rotation"): M.octahedron_rotation_action,
    ("torus43", "torus-halfturn"): M.torus43_halfturn_action,
    ("wedge-triangles-2", "wedge-swap"): lambda: M.wedge_swap_action(2),
    ("wedge-triangles-3", "wedge-swap"): lambda: M.wedge_swap_action(3),
}


def _is_file(name: str, suffix: str) -> bool:
    return name.endswith(suffix) or "/" in name


def _build_group_action(scenario: Scenario):
    name = scenario.complex
    if name is None:
        return None
    K = read_complex_text(name) if _is_file(name, ".cx") else _COMPLEXES[name]()
    act_name = scenario.simplicial_action or "trivial"
    if act_name == "trivial":
        return trivial_action(K)
    if _is_file(act_name, ".act"):
        return read_action_text(K, act_name)
    return _SIMPLICIAL_ACTIONS[(name, act_name)]()


def build_bundle(scenario: Scenario) -> Bundle:
    make_action, make_quotient = _SPACE_ACTIONS[(scenario.space.get("kind"),
                                                 scenario.action)]
    space_action = make_action(scenario.space)
    space = space_action.space
    return Bundle(scenario=scenario, space_action=space_action,
                  group_action=_build_group_action(scenario),
                  quotient_model=make_quotient(space_action),
                  basepoint=_BASEPOINTS[type(space)][0](space))


# ------------------------------------------------------- planner registry

# quotient-space class -> its covers by invariant, each on the quotient's
# trivial action (the torus quotient has no strict section to carry a cat
# cover back)
_QUOTIENT_COVERS = {
    Circle: {"tc": P.circle_cover, "cat": P.circle_cover},
    Arc: {"tc": P.arc_cover, "cat": P.arc_cover},
    M.Hemisphere: {"tc": P.hemisphere_cover, "cat": P.hemisphere_cat_cover},
    FlatTorus: {"tc": P.torus_cut_cover},
}


def _quotient_cover(bundle: Bundle, invariant: str):
    """The `invariant` ("tc" or "cat") cover of the bundle's quotient."""
    model = bundle.quotient_model
    if model is None:
        raise ValueError(f"no quotient model of {bundle.scenario.action} "
                         f"on {bundle.space_action.space.name}")
    q = model.quotient_space
    return _QUOTIENT_COVERS[type(q)][invariant](trivial_space_action(q))


# the (space kind, action) pairs a planner runs on
_EVERY = frozenset(_SPACE_ACTIONS)
_SPHERES = frozenset(pair for pair in _SPACE_ACTIONS if pair[0] == "sphere")
_CODIM1 = frozenset({("sphere", "flip"), ("sphere", "codim1-involution")})
_SECTIONS = _CODIM1 | {("wedge", "wedge-swap")}
_INVOLUTIONS = _CODIM1 | {("sphere", "antipodal")}
_FREE = frozenset({("sphere", "antipodal"), ("torus", "torus-halfturn")})
_TRIVIAL = frozenset(pair for pair in _SPACE_ACTIONS if pair[1] == "trivial")
_TORI = frozenset(pair for pair in _SPACE_ACTIONS if pair[0] == "torus")


# the strict-section transfer of the quotient's tc cover, which is also the
# wedge planner
_STRICT_SECTION = (_SECTIONS, "tc", lambda b: P.cover_from_strict_section(
    b.quotient_model, _quotient_cover(b, "tc")))

# planner name -> (its domain, the kind of cover it builds, the cover from a
# Bundle); a scenario whose cover step names a planner outside its domain,
# or a based ("cat") planner in an upper step, does not load
_PLANNERS = {
    "farber": (_SPHERES, "tc", lambda b: P.farber_sphere_cover(b.space_action)),
    "involution2": (_INVOLUTIONS, "tc",
                    lambda b: P.involution_two_stage_cover(b.space_action)),
    "involution3": (_CODIM1, "tc",
                    lambda b: P.involution_three_stage_planner(b.space_action)),
    "strict-section": _STRICT_SECTION,
    "covering-lift": (_FREE, "tc", lambda b: P.cover_from_covering_lift(
        b.quotient_model, _quotient_cover(b, "tc"))),
    "wedge": _STRICT_SECTION,
    "torus-cut": (_TORI, "tc", lambda b: P.torus_cut_cover(b.space_action)),
    "point": (_EVERY, "tc", lambda b: P.point_cover(b.space_action)),
    "adversarial": (_SPHERES, "tc",
                    lambda b: P.adversarial_sphere_cover(b.space_action)),
    "cat-strict-section": (_SECTIONS, "cat", lambda b: P.cat_cover_from_strict_section(
        b.quotient_model, _quotient_cover(b, "cat"), b.basepoint)),
    "cat-covering-lift": (_FREE | _TRIVIAL, "cat", lambda b: P.cat_cover_covering_lift(
        b.space_action, b.basepoint, _BASEPOINTS[type(b.space_action.space)][1])),
    "cat-geodesic": (_SPHERES, "cat",
                     lambda b: P.cat_geodesic_cover(b.space_action, b.basepoint)),
    "cat-torus-cut": (_TORI, "cat", lambda b: P.restrict_to_cat(
        P.torus_cut_cover(b.space_action), b.basepoint)),
    "cat-point": (_EVERY, "cat", lambda b: P.restrict_to_cat(
        P.point_cover(b.space_action), b.basepoint)),
}


def _check_planner(name, kind, action) -> None:
    """ValueError unless `name` is a planner that runs on a `kind` space
    with `action` (its domain in _PLANNERS)."""
    if name not in _PLANNERS:
        raise ValueError(f"unknown planner {name!r}")
    if (kind, action) not in _PLANNERS[name][0]:
        raise ValueError(f"planner {name!r} does not run on a "
                         f"{kind} space with action {action!r}")


def build_planner(name: str, bundle: Bundle):
    scenario = bundle.scenario
    _check_planner(name, scenario.space.get("kind"), scenario.action)
    return _PLANNERS[name][2](bundle)


# ---------------------------------------------------------- pipeline steps

@dataclass
class _Findings:
    """What the pipeline steps found.  `uppers` holds (stage, BoundValue)
    and `lowers` (scope, BoundValue) per invariant ("tc", "cat"); `stages`
    the stages the steps spoke about; `checks` the report's check entries."""

    uppers: dict = field(default_factory=lambda: {"tc": [], "cat": []})
    lowers: dict = field(default_factory=lambda: {"tc": [], "cat": []})
    stages: dict = field(default_factory=lambda: {"tc": set(), "cat": set()})
    checks: list = field(default_factory=list)


def _upper(invariant, step, bundle, params, found):
    cover = build_planner(step["planner"], bundle)
    if invariant == "cat" and cover.kind != "cat":
        cover = P.restrict_to_cat(cover, bundle.basepoint)
    cert = B.verify_cover(cover, **params)
    found.checks.append({"name": f"{invariant}-cover:{step['planner']}",
                         "ok": cert.certified, "detail": cert.describe()})
    if cert.certified:
        source = f"{step['planner']}@stage{cover.stage}"
        found.uppers[invariant].append((cover.stage,
                                        B.BoundValue(cert.bound, source)))
    found.stages[invariant].add(cover.stage)


def _zero_divisor(step, bundle, params, found):
    value = B.zero_divisor_cup_length(bundle.group_action)
    found.lowers["tc"].append(("stage2", B.BoundValue(value, "zero-divisor")))
    found.stages["tc"].add(2)


def _cd_criterion(step, bundle, params, found):
    rep = B.cd_positivity_criterion(bundle.group_action)
    found.checks.append({"name": "cd-criterion", "ok": True, "hard": False,
                         "verdict": rep.verdict, "hypothesis_ok": rep.hypothesis_ok,
                         "cd": rep.cd_x, "group_order": rep.group_order})
    if rep.verdict == "positive":
        found.lowers["tc"].append(("stage2", B.BoundValue(1, "cd-criterion")))
    found.stages["tc"].add(2)


def _orbit_nilpotency(step, bundle, params, found):
    value = B.orbit_nilpotency_lower_bound(bundle.group_action)
    found.lowers["cat"].append(("all", B.BoundValue(value, "orbit-nilpotency")))


def _cd_bound(step, bundle, params, found):
    r = B.cd_bound_check(bundle.group_action, step.get("elements"))
    found.checks.append({"name": "cd-bound", "ok": r.passed,
                         "cd_diagonal": r.cd_diagonal, "bound": r.bound,
                         "hypothesis_ok": r.hypothesis_ok})


# (op, method) -> (needs the simplicial model, step); the cover steps have
# no method and name a planner
_STEPS = {
    ("upper", None): (False, functools.partial(_upper, "tc")),
    ("cat-upper", None): (False, functools.partial(_upper, "cat")),
    ("lower", "zero-divisor"): (True, _zero_divisor),
    ("lower", "cd-criterion"): (True, _cd_criterion),
    ("cat-lower", "orbit-nilpotency"): (True, _orbit_nilpotency),
    ("check", "cd-bound"): (True, _cd_bound),
}
# (op, method) -> the keys a step may give beside its op and method
_STEP_OPTIONS = {("check", "cd-bound"): ("elements",)}


# ------------------------------------------------------------ the runner

def _step_name(index: int, step: dict) -> str:
    """"2: op 'lower', method 'zero-divisor'"; a cover step names its planner."""
    kind = "method" if step.get("method") else "planner"
    return f"{index}: op {step['op']!r}, {kind} {step[kind]!r}"


def _stage_leq(a, b) -> bool:
    if b == "inf":
        return True
    if a == "inf":
        return False
    return a <= b


@dataclass
class ScenarioResult:
    scenario: Scenario
    params: dict
    reports: list
    checks: list
    expected_results: list

    @property
    def consistent(self) -> bool:
        return all(r.status == "consistent" for r in self.reports)

    @property
    def expected_ok(self) -> bool:
        return all(e["ok"] for e in self.expected_results)

    @property
    def checks_ok(self) -> bool:
        return all(c["ok"] for c in self.checks if c.get("hard", True))

    @property
    def ok(self) -> bool:
        return self.consistent and self.expected_ok and self.checks_ok

    def report_for(self, invariant, stage):
        for r in self.reports:
            if r.invariant == invariant and r.stage == stage:
                return r
        return None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario.id,
            "params": self.params,
            "reports": [r.as_dict() for r in self.reports],
            "checks": self.checks,
            "expected": self.expected_results,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def csv_rows(self) -> list[str]:
        rows = ["invariant,stage,scenario,lower,lower_source,upper,upper_source,status"]
        for r in self.reports:
            d = r.as_dict()
            rows.append(",".join(str(d[k]) if d[k] is not None else ""
                                 for k in ("invariant", "stage", "scenario",
                                           "lower", "lower_source", "upper",
                                           "upper_source", "status")))
        return rows


def run_scenario_obj(scenario: Scenario, overrides=None) -> ScenarioResult:
    params = dict(DEFAULT_PARAMS)
    params.update(overrides or {})
    check_params(params)
    params.setdefault("seed", sampling_seed())
    verify_params = {k: params[k] for k in DEFAULT_PARAMS}
    bundle = build_bundle(scenario)
    free = bundle.group_action.is_free() if bundle.group_action else None

    found = _Findings()
    for index, step in enumerate(scenario.pipeline):
        _, run = _STEPS[step["op"], step.get("method")]
        try:
            run(step, bundle, verify_params, found)
        except RUN_ERRORS as exc:
            raise PipelineStepError(_step_name(index, step), exc) from exc

    reports = []
    for invariant in ("tc", "cat"):
        if not found.uppers[invariant] and not found.lowers[invariant] \
                and not found.stages[invariant]:
            continue
        stage_list = sorted(s for s in found.stages[invariant] if s != "inf")
        stage_list.append("inf")
        for stage in stage_list:
            ups = [bv for s, bv in found.uppers[invariant] if _stage_leq(s, stage)]
            lows = [B.BoundValue(0, "trivial")]
            for scope, bv in found.lowers[invariant]:
                if scope == "all":
                    lows.append(bv)
                elif scope == "stage2":
                    applies = (stage in (1, 2)) or (stage == "inf" and free)
                    if applies:
                        lows.append(bv)
            reports.append(B.reconcile(scenario.id, invariant, stage,
                                       lows, ups, params))

    tc_inf = next((r for r in reports if r.invariant == "tc" and r.stage == "inf"), None)
    cat_inf = next((r for r in reports if r.invariant == "cat" and r.stage == "inf"), None)
    if tc_inf and cat_inf:
        for c in B.chain_checks(tc_inf, cat_inf):
            c["name"] = "chain:" + c["name"]
            found.checks.append(c)

    expected_results = []
    for exp in scenario.expected:
        expected_results.append(_evaluate_expectation(exp, reports, found.checks))

    result = ScenarioResult(scenario=scenario, params=params, reports=reports,
                            checks=found.checks, expected_results=expected_results)
    B.require_consistent(reports)
    return result


def _evaluate_expectation(exp: dict, reports, checks) -> dict:
    out = dict(exp)
    if "criterion" in exp:
        entry = next((c for c in checks if c["name"] == "cd-criterion"), None)
        out["ok"] = entry is not None and entry["verdict"] == exp["criterion"]
        return out
    if "cd_bound" in exp:
        entry = next((c for c in checks if c["name"] == "cd-bound"), None)
        out["ok"] = entry is not None and entry["ok"] == exp["cd_bound"]
        return out
    stage = exp.get("stage", "inf")
    report = next((r for r in reports if r.invariant == exp["invariant"]
                   and r.stage == stage), None)
    if report is None:
        out["ok"] = False
        return out
    ok = True
    if "lower" in exp:
        ok = ok and report.lower.value == exp["lower"]
    if "upper" in exp:
        ok = ok and report.upper is not None and report.upper.value == exp["upper"]
    out["ok"] = bool(ok)
    return out


# --------------------------------------------------------------- builtins

def _builtin_list() -> list[Scenario]:
    scenarios = [
        Scenario(
            id="point",
            space={"kind": "point"}, action="trivial",
            complex="point", simplicial_action="trivial",
            pipeline=[
                {"op": "upper", "planner": "point"},
                {"op": "cat-upper", "planner": "cat-point"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
            ],
            expected=[
                {"invariant": "tc", "stage": "inf", "lower": 0, "upper": 0},
                {"invariant": "cat", "stage": "inf", "lower": 0, "upper": 0},
            ],
        ),
        Scenario(
            id="s1-antipodal",
            space={"kind": "sphere", "n": 1}, action="antipodal",
            complex="hexagon", simplicial_action="antipodal",
            pipeline=[
                {"op": "upper", "planner": "covering-lift"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "lower", "method": "cd-criterion"},
                {"op": "cat-upper", "planner": "cat-covering-lift"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
                {"op": "check", "method": "cd-bound"},
            ],
            expected=[
                {"invariant": "tc", "stage": 2, "lower": 1, "upper": 1},
                {"invariant": "tc", "stage": "inf", "lower": 1, "upper": 1},
                {"criterion": "inconclusive"},
                {"cd_bound": True},
            ],
        ),
        Scenario(
            id="s1-flip",
            space={"kind": "sphere", "n": 1}, action="flip",
            complex="hexagon", simplicial_action="flip",
            pipeline=[
                {"op": "upper", "planner": "strict-section"},
                {"op": "upper", "planner": "involution2"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "lower", "method": "cd-criterion"},
                {"op": "cat-upper", "planner": "cat-strict-section"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
                {"op": "check", "method": "cd-bound"},
            ],
            expected=[
                {"invariant": "tc", "stage": "inf", "lower": 0, "upper": 0},
                {"invariant": "tc", "stage": 2, "lower": 1, "upper": 1},
                {"invariant": "cat", "stage": "inf", "lower": 0, "upper": 0},
                {"criterion": "inconclusive"},
                {"cd_bound": True},
            ],
        ),
        Scenario(
            id="s2-involution",
            space={"kind": "sphere", "n": 2}, action="codim1-involution",
            complex="boundary-delta3", simplicial_action="codim1-involution",
            pipeline=[
                {"op": "upper", "planner": "farber"},
                {"op": "upper", "planner": "involution2"},
                {"op": "upper", "planner": "involution3"},
                {"op": "lower", "method": "cd-criterion"},
                {"op": "cat-upper", "planner": "cat-strict-section"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
            ],
            expected=[
                {"invariant": "tc", "stage": 1, "lower": 1, "upper": 2},
                {"invariant": "tc", "stage": 2, "lower": 1, "upper": 1},
                {"invariant": "tc", "stage": 3, "upper": 0},
                {"invariant": "tc", "stage": "inf", "lower": 0, "upper": 0},
                {"invariant": "cat", "stage": "inf", "lower": 0, "upper": 0},
                {"criterion": "positive"},
            ],
        ),
        Scenario(
            id="s2-antipodal",
            space={"kind": "sphere", "n": 2}, action="antipodal",
            complex="octahedron", simplicial_action="antipodal",
            pipeline=[
                {"op": "upper", "planner": "involution2"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "lower", "method": "cd-criterion"},
                {"op": "cat-upper", "planner": "cat-covering-lift"},
                {"op": "cat-upper", "planner": "cat-geodesic"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
                {"op": "check", "method": "cd-bound"},
            ],
            expected=[
                {"invariant": "tc", "stage": 2, "lower": 1, "upper": 1},
                {"invariant": "tc", "stage": "inf", "lower": 1, "upper": 1},
                {"invariant": "cat", "stage": "inf", "lower": 0, "upper": 1},
                {"criterion": "positive"},
                {"cd_bound": True},
            ],
        ),
        Scenario(
            id="s2-rotation",
            space={"kind": "sphere", "n": 2}, action="rotation",
            complex="octahedron", simplicial_action="rotation",
            pipeline=[
                {"op": "upper", "planner": "farber"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "lower", "method": "cd-criterion"},
                {"op": "cat-upper", "planner": "cat-geodesic"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
                {"op": "check", "method": "cd-bound"},
            ],
            expected=[
                {"invariant": "tc", "stage": 1, "lower": 1, "upper": 2},
                {"invariant": "tc", "stage": "inf", "lower": 0, "upper": 2},
                {"criterion": "positive"},
                {"cd_bound": True},
            ],
        ),
        Scenario(
            id="t2-trivial",
            space={"kind": "torus", "n": 2}, action="trivial",
            complex="torus9", simplicial_action="trivial",
            pipeline=[
                {"op": "upper", "planner": "torus-cut"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "cat-upper", "planner": "cat-torus-cut"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
            ],
            expected=[
                {"invariant": "tc", "stage": 1, "lower": 2, "upper": 2},
                {"invariant": "tc", "stage": "inf", "lower": 2, "upper": 2},
                {"invariant": "cat", "stage": "inf", "lower": 2, "upper": 2},
            ],
        ),
        Scenario(
            id="t2-halfturn",
            space={"kind": "torus", "n": 2}, action="torus-halfturn",
            complex="torus43", simplicial_action="torus-halfturn",
            pipeline=[
                {"op": "upper", "planner": "covering-lift"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "lower", "method": "cd-criterion"},
                {"op": "cat-upper", "planner": "cat-torus-cut"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
                {"op": "check", "method": "cd-bound"},
            ],
            expected=[
                {"invariant": "tc", "stage": 2, "lower": 2, "upper": 2},
                {"invariant": "tc", "stage": "inf", "lower": 2, "upper": 2},
                {"invariant": "cat", "stage": "inf", "lower": 1, "upper": 2},
                {"criterion": "positive"},
                {"cd_bound": True},
            ],
        ),
    ]
    for branches in (2, 3):
        scenarios.append(Scenario(
            id=f"wedge-z{branches}",
            space={"kind": "wedge", "branches": branches}, action="wedge-swap",
            complex=f"wedge-triangles-{branches}", simplicial_action="wedge-swap",
            pipeline=[
                {"op": "upper", "planner": "wedge"},
                {"op": "lower", "method": "zero-divisor"},
                {"op": "cat-upper", "planner": "cat-strict-section"},
                {"op": "cat-lower", "method": "orbit-nilpotency"},
            ],
            expected=[
                {"invariant": "tc", "stage": "inf", "upper": 1},
                {"invariant": "tc", "stage": 2, "lower": 1},
                {"invariant": "cat", "stage": "inf", "lower": 1, "upper": 1},
            ],
        ))
    return scenarios


BUILTINS = {s.id: s for s in _builtin_list()}


def load_scenario(path_or_name) -> Scenario:
    """A builtin by name, a scenario JSON file by path; a Scenario as is."""
    if isinstance(path_or_name, Scenario):
        return path_or_name
    if path_or_name in BUILTINS:
        return BUILTINS[path_or_name]
    with open(path_or_name, "r", encoding="utf-8") as fh:
        return Scenario.from_dict(json.load(fh))


def run_scenario(path_or_name, overrides=None) -> ScenarioResult:
    return run_scenario_obj(load_scenario(path_or_name), overrides)


# ------------------------------------------------------------------ table

TABLE_ROWS = [
    {"action_class": "free", "n": 1, "scenario": "s1-antipodal",
     "stage": "inf", "reference": 1},
    {"action_class": "free", "n": 2, "scenario": "s2-antipodal",
     "stage": "inf", "reference": 1},
    {"action_class": "r=n-1 linear", "n": 1, "scenario": "s1-flip",
     "stage": "inf", "reference": 0},
    {"action_class": "r=n-1 linear", "n": 2, "scenario": "s2-involution",
     "stage": "inf", "reference": 0},
    {"action_class": "orientation-preserving", "n": 2, "scenario": "s2-rotation",
     "stage": 1, "reference": 2},
]

# the keys emit_table reads of each entry of a stored report's "reports"
_REPORT_KEYS = frozenset({"kind", "stage", "lower", "upper"})


def _readable_report(r) -> bool:
    """An entry emit_table can read: its keys, with integer or null bounds."""
    return (isinstance(r, dict) and _REPORT_KEYS <= r.keys()
            and all(r[k] is None or type(r[k]) is int for k in ("lower", "upper")))


def emit_table(report_dir: str):
    """Assemble the desk-scale sphere table from stored scenario reports.

    Returns (rows, missing); each row gets a match flag
    lower <= reference value <= upper.  JSON files that are not scenario
    reports (no "scenario" key) are skipped; a file that is not JSON, or a
    scenario report whose reports the table cannot read, raises ValueError
    naming the file.
    """
    loaded = {}
    for fname in sorted(os.listdir(report_dir)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(report_dir, fname)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
        if not isinstance(data, dict) or "scenario" not in data:
            continue
        reports = data.get("reports")
        if not (isinstance(data["scenario"], str) and isinstance(reports, list)
                and all(_readable_report(r) for r in reports)):
            raise ValueError(f"{path} is not a scenario report: it needs a scenario name "
                             f"and a list of reports, each with {sorted(_REPORT_KEYS)}, "
                             "the bounds integers or null")
        loaded[data["scenario"]] = data
    rows = []
    missing = []
    for row_spec in TABLE_ROWS:
        data = loaded.get(row_spec["scenario"])
        if data is None:
            missing.append(row_spec["scenario"])
            continue
        report = next((r for r in data["reports"]
                       if r["kind"] == "tc" and r["stage"] == row_spec["stage"]),
                      None)
        if report is None:
            missing.append(row_spec["scenario"])
            continue
        lower, upper = report["lower"], report["upper"]
        match = (lower is not None and upper is not None
                 and lower <= row_spec["reference"] <= upper)
        rows.append({"action_class": row_spec["action_class"],
                     "n": row_spec["n"], "stage": row_spec["stage"],
                     "lower": lower, "upper": upper,
                     "reference": row_spec["reference"], "match": bool(match)})
    return rows, missing


def format_table(rows) -> str:
    header = (f"{'action class':<24}{'n':>3}{'stage':>7}{'lower':>7}"
              f"{'upper':>7}{'ref':>7}  match")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['action_class']:<24}{r['n']:>3}{str(r['stage']):>7}"
                     f"{r['lower']:>7}{r['upper']:>7}{r['reference']:>7}  "
                     f"{'yes' if r['match'] else 'NO'}")
    return "\n".join(lines)


def table_csv(rows) -> str:
    out = ["action_class,n,stage,lower,upper,reference,match"]
    for r in rows:
        out.append(f"{r['action_class']},{r['n']},{r['stage']},{r['lower']},"
                   f"{r['upper']},{r['reference']},{int(r['match'])}")
    return "\n".join(out) + "\n"
