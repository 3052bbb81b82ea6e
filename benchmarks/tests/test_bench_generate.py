"""The generated inputs reproduce their theory values on two seeds.

Run with `python3 -m pytest benchmarks/tests -q` from the repository root.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import generate  # noqa: E402
from efftc import scenarios  # noqa: E402


@pytest.mark.parametrize("seed", [3, 17])
def test_generated_inputs_match_theory(seed, tmp_path):
    for spec, path in generate.generate(seed, str(tmp_path)):
        result = scenarios.run_scenario(path).as_dict()
        assert checks.check_generated(result, generate.theory(spec)) == [], spec.id


def test_same_seed_same_files_other_seed_other_labels(tmp_path):
    def files(seed):
        out = tmp_path / str(seed)
        generate.generate(seed, str(out))
        return {p: (out / p).read_text().replace(str(out), "DIR")
                for p in sorted(os.listdir(out))}

    first = files(5)
    assert files(5) == first
    other = files(6)
    assert other.keys() == first.keys()
    assert other != first


def test_relabelling_keeps_the_group_action():
    for spec in generate.SPECS:
        simplices, perms = generate.relabelled(spec, 9)
        faces = {frozenset(s) for s in simplices}
        assert len(faces) == len(simplices)
        for perm in perms:
            assert sorted(perm) == list(range(spec.vertices))
            assert {frozenset(perm[v] for v in s) for s in simplices} == faces


def test_theory_values():
    by_id = {spec.id: generate.theory(spec) for spec in generate.SPECS}
    assert by_id["t4x4-Z2xZ2"]["orbit_nilpotency"] == 0
    assert by_id["t4x3-Z2xZ3"]["orbit_nilpotency"] == 1
    assert by_id["t3x3-Z3xZ1"]["orbit_nilpotency"] == 2
    assert by_id["t4x4-Z2xZ1"]["criterion"] == "positive"
    assert by_id["t3x3-Z3xZ1"]["criterion"] == "inconclusive"
    assert by_id["c15-Z3"]["orbit_nilpotency"] == 1
    assert by_id["c16-Z8"]["orbit_nilpotency"] == 0
    assert by_id["c12-D6"]["orbit_nilpotency"] == 0
    assert by_id["c12-Z4"]["zero_divisor"] == 1
