import json

import numpy as np
import pytest

from efftc.cli import main
from efftc.errors import (
    DegreeError,
    GeodesicDegeneracyError,
    LiftError,
    RegularityError,
)
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
                   f"{error}\n")


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
