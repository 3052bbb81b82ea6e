import json
import pathlib
import re

import numpy as np
import pytest

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


def test_cli_grid_override(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["run", "point", "--grid", "8", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["params"]["grid"] == 8


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
], ids=["space", "pipeline-step", "pipeline", "basepoint"])
def test_malformed_scenarios_are_load_errors(capsys, tmp_path, fields, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_POINT, **fields}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot load scenario: {message}\n"


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
      "pipeline": [{"op": "upper", "planner": "strict-section"}]},
     "ValueError: no quotient model of antipodal on sphere2"),
], ids=["missing-complex-file", "no-quotient-model"])
def test_scenario_run_failures(capsys, tmp_path, fields, error):
    # files are opened, and quotient models looked up, when the run needs them
    path = tmp_path / "fails.json"
    path.write_text(json.dumps({**_POINT, **fields}))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: scenario run failed: {error}")


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

    planners = _names(_readme_part("Planner names", "Actions, by space kind"))
    assert sorted(planners) == sorted(scenarios._PLANNERS)

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
