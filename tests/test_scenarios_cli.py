import contextlib
import copy
import io
import itertools
import json
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from efftc.cli import main
from efftc.errors import (
    DegreeError,
    GeodesicDegeneracyError,
    LiftError,
    PipelineStepError,
    RegularityError,
)
from efftc import scenarios
from efftc.scenarios import (
    BUILTINS,
    Scenario,
    build_bundle,
    build_planner,
    emit_table,
    format_table,
    load_scenario,
    run_scenario,
)


@pytest.fixture(scope="module")
def flip_result():
    return run_scenario("s1-flip")


def test_builtin_names():
    assert {"point", "s1-antipodal", "s1-flip", "s2-involution",
            "s2-antipodal", "s2-rotation", "t2-trivial", "t2-halfturn",
            "wedge-z2", "wedge-z3"} == set(BUILTINS)


def test_scenario_rejects_unknown_fields():
    with pytest.raises(ValueError):
        Scenario.from_dict({"id": "x", "space": {}, "action": "trivial",
                            "bogus": 1})


def test_point_scenario_all_zero():
    res = run_scenario("point")
    assert res.ok
    for inv in ("tc", "cat"):
        rep = res.report_for(inv, "inf")
        assert rep.lower.value == 0 and rep.upper.value == 0


def test_flip_reports(flip_result):
    res = flip_result
    assert res.ok
    inf = res.report_for("tc", "inf")
    assert inf.upper.value == 0
    assert inf.upper.source.startswith("strict-section")
    s2 = res.report_for("tc", 2)
    assert (s2.lower.value, s2.upper.value) == (1, 1)
    crit = next(c for c in res.checks if c["name"] == "cd-criterion")
    assert crit["verdict"] == "inconclusive"


def test_flip_chain_checks_present(flip_result):
    names = {c["name"] for c in flip_result.checks}
    assert {"chain:cat<=tc", "chain:tc<=2cat", "chain:zero-equivalence"} <= names
    assert all(c["ok"] for c in flip_result.checks if c["name"].startswith("chain:"))


def test_result_json_roundtrip_and_determinism(flip_result):
    blob1 = flip_result.to_json()
    blob2 = run_scenario("s1-flip").to_json()
    assert blob1 == blob2
    data = json.loads(blob1)
    assert data["scenario"] == "s1-flip"
    assert all({"invariant", "kind", "stage", "lower", "upper", "status",
                "lower_source", "upper_source", "params",
                "scenario"} <= set(r) for r in data["reports"])
    assert any(r["invariant"] == "tc^{G,inf}" for r in data["reports"])


def test_scenario_file_loading(tmp_path):
    spec = {
        "id": "custom-point",
        "space": {"kind": "point"},
        "action": "trivial",
        "complex": "point",
        "simplicial_action": "trivial",
        "pipeline": [{"op": "upper", "planner": "point"},
                     {"op": "lower", "method": "zero-divisor"}],
        "expected": [{"invariant": "tc", "stage": "inf", "upper": 0}],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec))
    res = run_scenario(str(path))
    assert res.ok
    assert res.scenario.id == "custom-point"


def test_cli_run_writes_report(tmp_path):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    rc = main(["run", "s1-flip", "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["ok"] is True
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("invariant,stage")
    assert len(lines) > 2


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    missing_table = tmp_path / "empty"
    missing_table.mkdir()
    assert main(["table", str(missing_table)]) == 1
    # expectation miss -> exit 1
    spec = {
        "id": "doomed",
        "space": {"kind": "point"},
        "action": "trivial",
        "complex": "point",
        "pipeline": [{"op": "upper", "planner": "point"}],
        "expected": [{"invariant": "tc", "stage": "inf", "upper": 5}],
    }
    p = tmp_path / "doomed.json"
    p.write_text(json.dumps(spec))
    assert main(["run", str(p), "--out", str(tmp_path / "d.json")]) == 1


@pytest.mark.parametrize("text", [
    "{not json",
    '{"scenario": "s1-flip"}',
    '{"scenario": "s1-flip", "reports": {"kind": "tc"}}',
    '{"scenario": "s1-flip", "reports": [{"kind": "tc", "stage": 2}]}',
    '{"scenario": ["s1-flip"], "reports": []}',
    '{"scenario": "s1-flip", "reports": [{"kind": "tc", "stage": 2, "lower": "1", "upper": 1}]}',
], ids=["not-json", "no-reports", "reports-not-a-list", "report-without-bounds",
        "unhashable-scenario", "bound-not-an-integer"])
def test_table_of_malformed_reports_exits_2_naming_the_file(tmp_path, capsys, text):
    (tmp_path / "s1-flip.json").write_text(run_scenario("s1-flip").to_json())
    bad = tmp_path / "a.json"
    bad.write_text(text)
    assert main(["table", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    # JSON that is not a scenario report is skipped, as before
    bad.write_text('{"note": "not a report"}')
    assert main(["table", str(tmp_path)]) == 1         # the S^2 rows are missing
    assert main(["table", str(tmp_path / "absent")]) == 2


def test_cli_grid_override(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["run", "point", "--grid", "8", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["params"]["grid"] == 8


@pytest.mark.parametrize("name", ["wedge-z2", "wedge-z3"])
def test_wedge_at_grid_1_writes_a_report(tmp_path, capsys, name):
    # a one-point wedge grid has no neighbour edge; it used to have (0, 1)
    # and (0, 0), and the run exited 4 on an IndexError
    out = tmp_path / "w.json"
    assert main(["run", name, "--grid", "1", "--out", str(out)]) in (0, 1)
    assert json.loads(out.read_text())["params"]["grid"] == 1
    assert "Traceback" not in capsys.readouterr().err


def test_table_assembly(tmp_path):
    for name in ("s1-antipodal", "s1-flip"):
        res = run_scenario(name)
        (tmp_path / f"{name}.json").write_text(res.to_json())
    rows, missing = emit_table(tmp_path)
    assert missing  # sphere-2 scenarios absent
    assert {r["n"] for r in rows} == {1}
    for r in rows:
        assert r["match"]
    text = format_table(rows)
    assert "free" in text and "yes" in text


def test_seed_env_recorded(monkeypatch):
    monkeypatch.setenv("EFFTC_SEED", "12345")
    res = run_scenario("point")
    assert res.params["seed"] == 12345


def test_cli_contradiction_exit(monkeypatch, tmp_path):
    from efftc import cli as cli_mod
    from efftc.errors import ContradictionError

    def boom(name, overrides=None):
        raise ContradictionError("lower 2 exceeds upper 1")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    assert cli_mod.main(["run", "point"]) == 1


def test_missing_simplicial_model_is_a_load_error(tmp_path):
    spec = {
        "id": "no-model",
        "space": {"kind": "sphere", "n": 1},
        "action": "antipodal",
        "pipeline": [{"op": "lower", "method": "zero-divisor"}],
    }
    p = tmp_path / "no-model.json"
    p.write_text(json.dumps(spec))
    assert main(["run", str(p)]) == 2


@pytest.mark.parametrize("error", [
    GeodesicDegeneracyError("antipodal pair"),
    DegreeError("degree 3 out of range"),
    RegularityError("quotient irregular after two subdivisions"),
    LiftError("lift diverged"),
])
def test_cli_run_failure_exit(monkeypatch, capsys, error):
    # a step that raises while the scenario runs is a run failure (exit 3),
    # whether it raises a ValueError or a RuntimeError, not a load error
    from efftc import bounds

    def boom(action):
        raise error

    monkeypatch.setattr(bounds, "zero_divisor_cup_length", boom)
    assert main(["run", "point"]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: scenario run failed: {type(error).__name__}: "
                   f"{error} (pipeline step 2: op 'lower', method 'zero-divisor')\n")


def test_run_failure_names_the_cover_step(monkeypatch, capsys):
    # a cover step is named by its planner; the report goes nowhere, and the
    # error the step raised stays reachable from the one the run raises
    build = scenarios.build_planner

    def failing(name, bundle):
        if name == "cat-point":
            raise RuntimeError("planner gave up")
        return build(name, bundle)

    monkeypatch.setattr(scenarios, "build_planner", failing)
    assert main(["run", "point"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: scenario run failed: RuntimeError: planner gave up "
                   "(pipeline step 1: op 'cat-upper', planner 'cat-point')\n")
    with pytest.raises(PipelineStepError) as raised:
        run_scenario("point")
    assert raised.value.step == "1: op 'cat-upper', planner 'cat-point'"
    assert raised.value.__cause__ is raised.value.cause
    assert str(raised.value.cause) == "planner gave up"


def test_an_internal_error_exits_4_with_its_traceback(monkeypatch, capsys):
    # an exception no step is expected to raise is a bug, not a refutation:
    # it used to escape main, and Python exited 1
    def crashing(name, bundle):
        raise IndexError("index 1 is out of bounds")

    monkeypatch.setattr(scenarios, "build_planner", crashing)
    assert main(["run", "point"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal error\nTraceback (most recent call last):\n")
    assert err.endswith("IndexError: index 1 is out of bounds\n")


@pytest.mark.parametrize("text", [
    None,                                               # no such file
    "[1, 2]",                                           # not an object
    '{"space": {"kind": "point"}, "action": "trivial"}',  # no id
])
def test_cli_load_error_exit(capsys, tmp_path, text):
    path = tmp_path / "scenario.json"
    if text is not None:
        path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load scenario: ")


_POINT = {"id": "bad", "space": {"kind": "point"}, "action": "trivial",
          "complex": "point"}


@pytest.mark.parametrize("fields", [
    {"pipeline": [{"op": "nope"}]},
    {"pipeline": [{"op": "lower", "method": "nope"}]},
    {"pipeline": [{"op": "lower", "method": "zero-divisor"},
                  {"op": "upper", "planner": "nope"}]},
    {"space": {"kind": "klein"}},
    {"space": {"kind": "sphere", "n": 2}, "action": "nope"},
    {"complex": "nope"},
    {"complex": "hexagon", "simplicial_action": "rotation"},
], ids=["op", "method", "planner-after-a-step", "space-kind", "action",
        "complex", "simplicial-action"])
def test_unknown_names_are_load_errors(capsys, tmp_path, fields):
    # every name is checked when the scenario loads, before any step runs
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_POINT, **fields}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load scenario: ")


@pytest.mark.parametrize("fields, message", [
    ({"space": [1]}, "the scenario's space is not a JSON object"),
    ({"pipeline": ["upper"]}, "a pipeline step is not a JSON object: 'upper'"),
    ({"pipeline": "upper"}, "the scenario's pipeline is not a JSON list"),
    ({"basepoint": "anything at all"}, "unknown scenario fields: ['basepoint']"),
    # keys nothing reads: each of these used to load and run without them
    ({"space": {"kind": "torus", "n": 5, "colour": "blue"}},
     "unknown keys ['colour'] in a torus space"),
    ({"space": {"kind": "torus", "n": 5}}, "a torus space needs 'n' = 2, got 5"),
    ({"space": {"kind": "torus", "n": True}}, "a torus space needs 'n' = 2, got True"),
    ({"space": {"kind": "sphere", "n": 2, "radius": 7}},
     "unknown keys ['radius'] in a sphere space"),
    ({"space": {"kind": "point", "n": 1}}, "unknown keys ['n'] in a point space"),
    ({"space": {"kind": "wedge", "branches": 2, "n": 1}, "action": "wedge-swap"},
     "unknown keys ['n'] in a wedge space"),
    ({"pipeline": [{"op": "upper", "planner": "point", "grid": 3}]},
     "unknown keys ['grid'] in the pipeline step "
     "{'op': 'upper', 'planner': 'point', 'grid': 3}"),
    ({"pipeline": [{"op": "lower", "method": "zero-divisor", "elements": [0]}]},
     "unknown keys ['elements'] in the pipeline step "
     "{'op': 'lower', 'method': 'zero-divisor', 'elements': [0]}"),
    ({"pipeline": [{"op": "lower", "method": "zero-divisor", "planner": "point"}]},
     "unknown keys ['planner'] in the pipeline step "
     "{'op': 'lower', 'method': 'zero-divisor', 'planner': 'point'}"),
    ({"expected": [{"invariant": "tc", "upper": 0, "stgae": 1}]},
     "unknown keys ['stgae'] in the expectation "
     "{'invariant': 'tc', 'upper': 0, 'stgae': 1}"),
    ({"expected": [{"criterion": "positive", "cd_bound": True}]},
     "unknown keys ['cd_bound'] in the expectation "
     "{'criterion': 'positive', 'cd_bound': True}"),
], ids=["space", "pipeline-step", "pipeline", "basepoint", "torus-key", "torus-n",
        "torus-n-bool", "sphere-key", "point-key", "wedge-key", "cover-step-key",
        "elements-off-cd-bound", "method-step-planner", "expectation-key",
        "criterion-and-cd-bound"])
def test_malformed_scenarios_are_load_errors(capsys, tmp_path, fields, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_POINT, **fields}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot load scenario: {message}\n"


@pytest.mark.parametrize("space", [{"kind": "torus"}, {"kind": "torus", "n": 2}])
def test_a_torus_space_may_state_its_dimension(space):
    # the builtins and the benchmark's generated scenarios write n = 2
    assert Scenario.from_dict({**_POINT, "space": space}).space == space


@pytest.mark.parametrize("args, message", [
    (["--grid", "0"], "grid must be positive, got 0"),
    (["--grid", "-3"], "grid must be positive, got -3"),
    (["--epsilon", "-1"], "epsilon must be positive, got -1.0"),
    (["--epsilon", "nan"], "epsilon must be positive, got nan"),
    (["--modulus", "0"], "modulus must be positive, got 0.0"),
    (["--delta", "-0.5"], "delta must be non-negative, got -0.5"),
    (["--samples", "1"], "samples must be at least 2, got 1"),
], ids=["grid-0", "grid-negative", "epsilon", "epsilon-nan", "modulus", "delta",
        "samples"])
def test_parameters_no_certification_can_run_on_are_load_errors(capsys, args,
                                                                message):
    # rejected before any step runs: --grid 0 used to end in an uncaught
    # ZeroDivisionError (exit 1), --epsilon -1 in a planner's GeodesicDegeneracyError
    assert main(["run", "s2-antipodal"] + args) == 2
    assert capsys.readouterr() == ("", f"error: cannot load scenario: {message}\n")
    key = args[0][2:]
    with pytest.raises(ValueError, match=key):
        run_scenario("point", {key: float(args[1])})


def test_boundary_parameters_still_run(tmp_path):
    # delta 0 and two samples per leg are accepted
    assert main(["run", "point", "--delta", "0", "--samples", "2",
                 "--out", str(tmp_path / "p.json")]) == 0


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("where, message", [
    (".", "[Errno 21] Is a directory: '{tmp}'"),
    ("missing/r.json", "[Errno 2] no such directory: '{tmp}/missing'"),
], ids=["directory", "missing-directory"])
def test_a_report_path_that_cannot_be_written_is_a_load_error(monkeypatch, capsys,
                                                               tmp_path, flag, where,
                                                               message):
    # checked before the run: the run used to finish, then exit 4 with an
    # IsADirectoryError or FileNotFoundError traceback
    runs = []
    monkeypatch.setattr("efftc.cli.run_scenario", lambda *args: runs.append(args))
    path = tmp_path if where == "." else tmp_path / where
    assert main(["run", "point", flag, str(path)]) == 2
    expected = "error: cannot write report: " + message.format(tmp=tmp_path) + "\n"
    assert capsys.readouterr() == ("", expected)
    assert runs == []
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("expected, message", [
    ([{"invariant": "tc"}], "an expectation asserts nothing: {'invariant': 'tc'}"),
    ([{"invariant": "tc", "stage": 2}],
     "an expectation asserts nothing: {'invariant': 'tc', 'stage': 2}"),
    ([{"invariant": "TC", "upper": 0}],
     "an expectation asserts nothing: {'invariant': 'TC', 'upper': 0}"),
    ([{}], "an expectation asserts nothing: {}"),
    (["tc"], "an expectation asserts nothing: 'tc'"),
    ({"invariant": "tc"}, "the scenario's expected is not a JSON list"),
], ids=["no-bound", "stage-only", "unknown-invariant", "empty", "not-an-object",
        "not-a-list"])
def test_expectations_that_assert_nothing_are_load_errors(capsys, tmp_path,
                                                          expected, message):
    # {"invariant": "tc"} used to count as met, so such a run exited 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_POINT, "pipeline": [{"op": "upper", "planner": "point"}],
                                "expected": expected}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot load scenario: {message}\n"


@pytest.mark.parametrize("fields, error", [
    ({"complex": "no-such-dir/missing.cx"}, "FileNotFoundError"),
    ({"space": {"kind": "sphere", "n": 2}, "action": "antipodal",
      "pipeline": [{"op": "upper", "planner": "covering-lift"}]},
     "ValueError: no quotient model of antipodal on sphere2"),
], ids=["missing-complex-file", "no-quotient-model"])
def test_scenario_run_failures(capsys, tmp_path, fields, error):
    # files are opened, and quotient models looked up, when the run needs them
    path = tmp_path / "fails.json"
    path.write_text(json.dumps({**_POINT, **fields}))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: scenario run failed: {error}")


@pytest.mark.parametrize("line, images", [("g1: 2 -2 0", [2, -2, 0]),
                                          ("g1: 1 2 7", [1, 2, 7])],
                         ids=["negative-index", "index-out-of-range"])
def test_an_action_file_line_must_be_a_permutation(capsys, tmp_path, line, images):
    # a line's images used to be read through Python indexing: -2 wrapped to
    # the reflection swapping 0 and 2 (exit 0), and 7 raised IndexError (exit 4)
    (tmp_path / "triangle.cx").write_text("0 1\n1 2\n0 2\n")
    (tmp_path / "triangle.act").write_text(line + "\n")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_POINT, "complex": str(tmp_path / "triangle.cx"),
                                "simplicial_action": str(tmp_path / "triangle.act"),
                                "pipeline": [{"op": "lower", "method": "zero-divisor"}]}))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: scenario run failed: ValueError: not a permutation: {images}\n")


@pytest.mark.parametrize("action, planner", [("trivial", "cat-geodesic"),
                                             ("codim1-involution", "cat-strict-section")])
def test_an_upper_step_takes_no_based_planner(capsys, tmp_path, action, planner):
    # these used to run and report the based cover's bound as a tc bound:
    # tc^{G,1} upper 1 on S^2, whose TC is 2, and tc^{G,2} upper 0 where
    # s2-involution certifies that stage as exactly 1; as a cat-upper step
    # the planner still runs
    doc = {"id": "t", "space": {"kind": "sphere", "n": 2}, "action": action,
           "pipeline": [{"op": "upper", "planner": planner}]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--grid", "4", "--samples", "8"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot load scenario: planner {planner!r} builds a based (cat) "
        "cover: an upper step takes tc planners only\n")
    doc["pipeline"][0]["op"] = "cat-upper"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--grid", "4", "--samples", "8"]) in (0, 1)


def test_the_planner_table_gives_the_kind_of_cover_each_planner_builds():
    for name, (domain, kind, _) in sorted(scenarios._PLANNERS.items()):
        for space_kind, action in sorted(domain):
            space = {"kind": space_kind}
            if space_kind in _SIZES:
                key, sizes = _SIZES[space_kind]
                space[key] = sizes[-1]
            bundle = build_bundle(Scenario(id="t", space=space, action=action))
            if name == "covering-lift" and bundle.quotient_model is None:
                continue
            assert build_planner(name, bundle).kind == kind, (name, space, action)


def test_cat_upper_restricts_a_tc_cover(monkeypatch):
    from efftc import bounds

    verified = []
    verify = bounds.verify_cover

    def spy(cover, **params):
        verified.append(cover)
        return verify(cover, **params)

    monkeypatch.setattr(bounds, "verify_cover", spy)
    res = run_scenario(Scenario(id="p", space={"kind": "point"}, action="trivial",
                                pipeline=[{"op": "cat-upper", "planner": "point"}]))
    assert [(c.kind, c.name) for c in verified] == [("cat", "point@base")]
    assert np.array_equal(verified[0].basepoint, np.zeros(1))
    assert res.report_for("cat", "inf").upper.value == 0


def _readme_part(start: str, end: str) -> str:
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    begin = text.index(start)
    return text[begin:text.index(end, begin)]


def _names(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def _bullets(text: str) -> list[tuple[list[str], list[str]]]:
    """(names before the colon, names after it) of each '- ' line."""
    return [(_names(head), _names(tail)) for head, tail in
            re.findall(r"^- (.*?): (.*)$", text, re.M)]


def test_readme_lists_the_scenario_names():
    steps = set()
    for op, methods in re.findall(r"^\| `([a-z-]+)` \| ([^|]*) \|",
                                  _readme_part("Pipeline steps", "Planner names"),
                                  re.M):
        steps |= {(op, m) for m in
                  [m for m in _names(methods) if m != "planner"] or [None]}
    assert steps == set(scenarios._STEPS)

    # "- `a`, `b`: `kind` with `action`, ...; `kind` with any action"; a
    # group naming no kind is any space
    domains = {}
    for heads, tail in re.findall(r"^- (.*?): (.*)$", _readme_part(
            "Planner names", "Actions, by space kind"), re.M):
        pairs = set()
        for group in tail.split(";"):
            kind, *actions = _names(group) or [None]
            pairs |= {(k, a) for k, a in scenarios._SPACE_ACTIONS
                      if kind in (None, k) and (not actions or a in actions)}
        domains.update(dict.fromkeys(_names(heads), pairs))
    assert domains == {name: domain for name, (domain, *_) in scenarios._PLANNERS.items()}

    actions = {(kinds[0], a) for kinds, names in
               _bullets(_readme_part("Actions, by space kind", "Builtin complexes"))
               for a in names}
    assert actions == set(scenarios._SPACE_ACTIONS)

    carried = _bullets(_readme_part("Builtin complexes", "`complex` may also"))
    assert {cx for complexes, _ in carried for cx in complexes} \
        == set(scenarios._COMPLEXES)
    assert {(cx, a) for complexes, names in carried
            for cx in complexes for a in names} \
        == set(scenarios._SIMPLICIAL_ACTIONS)


_HEXAGON = {"id": "bad", "space": {"kind": "sphere", "n": 1}, "action": "antipodal",
            "complex": "hexagon", "simplicial_action": "antipodal"}


@pytest.mark.parametrize("fields, message", [
    ({"action": ["antipodal"]}, "the action must be a name, got ['antipodal']"),
    ({"complex": ["hexagon"]}, "the complex must be a name, got ['hexagon']"),
    ({"space": {"kind": ["sphere"], "n": 1}},
     "the space kind must be a name, got ['sphere']"),
    ({"pipeline": [{"op": "upper", "planner": ["point"]}]},
     "planner must be a name, got ['point']"),
    ({"space": {"kind": "sphere"}},
     "a sphere space needs a positive integer 'n', got None"),
    ({"space": {"kind": "sphere", "n": "1"}},
     "a sphere space needs a positive integer 'n', got '1'"),
    ({"space": {"kind": "sphere", "n": 0}},
     "a sphere space needs a positive integer 'n', got 0"),
    ({"space": {"kind": "sphere", "n": 1.0}},
     "a sphere space needs a positive integer 'n', got 1.0"),
    ({"space": {"kind": "wedge", "branches": 0}, "action": "wedge-swap",
      "complex": None}, "a wedge space needs a positive integer 'branches', got 0"),
    ({"space": {"kind": "wedge", "branches": "two"}, "action": "wedge-swap",
      "complex": None}, "a wedge space needs a positive integer 'branches', got 'two'"),
    ({"expected": [{"invariant": "tc", "lower": "1"}]},
     "an expectation's lower is not an integer: {'invariant': 'tc', 'lower': '1'}"),
    ({"expected": [{"invariant": "tc", "upper": 1.5}]},
     "an expectation's upper is not an integer: {'invariant': 'tc', 'upper': 1.5}"),
    ({"expected": [{"invariant": "tc", "stage": "2", "upper": 1}]},
     "an expectation's stage is not an integer or 'inf': "
     "{'invariant': 'tc', 'stage': '2', 'upper': 1}"),
    ({"expected": [{"invariant": "tc", "stage": True, "upper": 1}]},
     "an expectation's stage is not an integer or 'inf': "
     "{'invariant': 'tc', 'stage': True, 'upper': 1}"),
    ({"pipeline": [{"op": "check", "method": "cd-bound", "elements": "ab"}]},
     "elements must be a non-empty list of integers, got 'ab'"),
    ({"pipeline": [{"op": "check", "method": "cd-bound", "elements": [1.0]}]},
     "elements must be a non-empty list of integers, got [1.0]"),
    ({"pipeline": [{"op": "check", "method": "cd-bound", "elements": []}]},
     "elements must be a non-empty list of integers, got []"),
    ({"action": "rotation", "pipeline": [{"op": "upper", "planner": "involution2"}]},
     "planner 'involution2' does not run on a sphere space with action 'rotation'"),
    ({"pipeline": [{"op": "upper", "planner": "involution3"}]},
     "planner 'involution3' does not run on a sphere space with action 'antipodal'"),
], ids=["action-list", "complex-list", "kind-list", "planner-list", "n-missing",
        "n-string", "n-zero", "n-float", "branches-zero", "branches-string",
        "lower-string", "upper-float", "stage-string", "stage-bool",
        "elements-string", "elements-float", "elements-empty",
        "involution2-rotation", "involution3-antipodal"])
def test_malformed_values_are_load_errors(capsys, tmp_path, fields, message):
    # these used to end in a TypeError traceback (names that are lists),
    # in exit 3 mid-run (space sizes and planners on a space they do not
    # run on), in an expectation miss (exit 1), or in an IndexError
    # traceback (elements)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_HEXAGON, **fields}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot load scenario: {message}\n"


@pytest.mark.parametrize("elements", [[-1, 0], [7], [0, 2]])
def test_cd_bound_elements_outside_the_group_fail_their_step(capsys, tmp_path,
                                                             elements):
    # [-1, 0] used to pass, computed for element 1 by numpy's wrap-around;
    # [7] ended in an IndexError traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_HEXAGON, "pipeline": [
        {"op": "lower", "method": "zero-divisor"},
        {"op": "check", "method": "cd-bound", "elements": elements}]}))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: scenario run failed: ValueError: elements must be group elements "
        f"0..1, got {elements!r} (pipeline step 1: op 'check', method 'cd-bound')\n")


# ------------------------------------------- malformed documents, generated

_SIZES = {"sphere": ("n", [1, 2]), "wedge": ("branches", [2, 3]), "torus": ("n", [2])}
_STEP_TEMPLATES = (
    [{"op": op, "method": method} for op, method in scenarios._STEPS if method]
    + [{"op": op, "planner": planner} for op in ("upper", "cat-upper")
       for planner in scenarios._PLANNERS]
    + [{"op": "check", "method": "cd-bound", "elements": [0]}])
_EXPECTATIONS = [{"invariant": "tc", "stage": "inf", "lower": 0, "upper": 1},
                 {"invariant": "cat", "stage": 2, "upper": 0},
                 {"criterion": "positive"}, {"cd_bound": True}]
# what a mutation puts in place of a value: malformed values, and names
# from the tables in the wrong place
_MUTANTS = [None, "", "nope", "inf", 0, -1, 2, 3, 1.5, True, [], [0], [-1, 7],
            ["farber"], {}, {"kind": "point"}, "farber", "hexagon", "antipodal",
            "cd-bound", "sphere", "x.cx"]


@st.composite
def scenario_documents(draw):
    """A scenario document from the name tables, then up to two values in
    it replaced by a mutant or deleted."""
    kind, action = draw(st.sampled_from(sorted(scenarios._SPACE_ACTIONS)))
    space = {"kind": kind}
    if kind in _SIZES:
        key, sizes = _SIZES[kind]
        space[key] = draw(st.sampled_from(sizes))
    complex_, simplicial = draw(st.sampled_from(
        sorted(scenarios._SIMPLICIAL_ACTIONS)
        + [(name, "trivial") for name in sorted(scenarios._COMPLEXES)]))
    doc = {"id": "generated", "space": space, "action": action,
           "complex": complex_, "simplicial_action": simplicial,
           "pipeline": draw(st.lists(st.sampled_from(_STEP_TEMPLATES), max_size=3)),
           "expected": draw(st.lists(st.sampled_from(_EXPECTATIONS), max_size=2))}
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 2))):
        paths = []

        def collect(node, path):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                paths.append(path + (key,))
                collect(child, path + (key,))

        collect(doc, ())
        *parent, key = draw(st.sampled_from(paths))
        node = doc
        for step in parent:
            node = node[step]
        if draw(st.booleans()):
            # a copy: a later mutation may land inside this one, and must
            # change neither _MUTANTS nor a mutant into its own child
            node[key] = copy.deepcopy(draw(st.sampled_from(_MUTANTS)))
        else:
            del node[key]
    return doc


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenario_documents())
# adversarial on a point space set the second coordinate of a point of one
# (an IndexError traceback, and exit 1, the refutation code)
@example(doc={"id": "generated", "space": {"kind": "point"}, "action": "trivial",
              "pipeline": [{"op": "upper", "planner": "adversarial"}]})
# involution2 on a point space read the sphere dimension before it checked
# the action (an AttributeError traceback, not exit 3)
@example(doc={"id": "generated", "space": {"kind": "point"}, "action": "trivial",
              "complex": "boundary-delta3", "simplicial_action": "codim1-involution",
              "pipeline": [{"op": "cat-upper", "planner": "involution2"}],
              "expected": []})
def test_malformed_documents_exit_with_a_code_never_a_traceback(doc):
    # 0 all met; 1 only with a failed check, a missed expectation or a
    # contradiction; 2 a load error; 3 a failed run, both with a message;
    # never 4, an internal error
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--grid", "4", "--samples", "8"])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (code, doc)
    if code == 1:
        assert re.search(r"^(failed check|missed expectation|contradiction): ", err,
                         re.M), (doc, err)
    elif code == 2:
        assert err.startswith("error: cannot load scenario: "), (doc, err)
    elif code == 3:
        assert err.startswith("error: scenario run failed: "), (doc, err)


# ------------------------------------------- every planner on every space

def test_every_planner_runs_exactly_on_its_domain():
    # each (space, action) pair, at both sizes where the space has one, with
    # each planner as an upper and a cat-upper step: a planner outside its
    # domain is a load error naming it, the space kind and the action, and so
    # is a based (cat) planner in an upper step; otherwise the run ends with
    # a verdict, apart from the one pair whose quotient model does not exist
    spaces = [({"kind": kind} if kind not in _SIZES else
               {"kind": kind, _SIZES[kind][0]: size}, action)
              for kind, action in sorted(scenarios._SPACE_ACTIONS)
              for size in _SIZES.get(kind, (None, [None]))[1]]
    codes, based_runs = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        for (space, action), planner, op in itertools.product(
                spaces, sorted(scenarios._PLANNERS), ("upper", "cat-upper")):
            path.write_text(json.dumps({"id": "t", "space": space, "action": action,
                                        "pipeline": [{"op": op, "planner": planner}]}))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", str(path), "--grid", "4", "--samples", "8"])
            kind = space["kind"]
            run = (kind, space.get("n", space.get("branches")), action, planner, op)
            codes[run] = code
            outside = (kind, action) not in scenarios._PLANNERS[planner][0]
            based = op == "upper" and scenarios._PLANNERS[planner][1] == "cat"
            assert (code == 2) == (outside or based), run
            if outside:
                assert err.getvalue() == (
                    f"error: cannot load scenario: planner {planner!r} does not "
                    f"run on a {kind} space with action {action!r}\n"), run
            elif based:
                based_runs.append(run)
                assert err.getvalue() == (
                    f"error: cannot load scenario: planner {planner!r} builds a "
                    "based (cat) cover: an upper step takes tc planners only\n"), run
    assert len(codes) == 420
    assert len(based_runs) == 40
    assert set(codes.values()) <= {0, 1, 2, 3}
    assert sorted(run for run, code in codes.items() if code == 3) == [
        ("sphere", 2, "antipodal", "covering-lift", "cat-upper"),
        ("sphere", 2, "antipodal", "covering-lift", "upper")]


def test_build_planner_checks_the_planner_domain():
    # a library caller that builds its own bundle meets the load check's
    # error, not a builder's IndexError
    bundle = build_bundle(Scenario(id="p", space={"kind": "point"}, action="trivial"))
    with pytest.raises(ValueError) as raised:
        build_planner("adversarial", bundle)
    assert str(raised.value) == ("planner 'adversarial' does not run on a point "
                                 "space with action 'trivial'")
    with pytest.raises(ValueError, match="unknown planner 'nope'"):
        build_planner("nope", bundle)
    assert build_planner("point", bundle).claimed_bound == 0
