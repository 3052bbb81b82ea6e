"""The reports of the benchmark's generated exact-side inputs, byte for byte.

`benchmarks/generate.py` writes seeded cycles and grid tori with their group
actions; tests/golden/generated/seed-<S>/<id>.json holds the report of each
input at seeds 1 and 7.  The reports hold no file path, so an input written
into a temporary directory must give the golden bytes.
"""
import importlib.util
import os
import pathlib
import sys

import pytest

from efftc.scenarios import run_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
GENERATE = ROOT / "benchmarks" / "generate.py"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "generated"
SEEDS = (1, 7)


def _load_generate():
    spec = importlib.util.spec_from_file_location("efftc_benchmark_generate", GENERATE)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True      # leave the benchmark directory as it is
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]
    return module


GENERATED = _load_generate()
SPECS = {spec.id: spec for spec in GENERATED.SPECS}


@pytest.mark.parametrize("seed", SEEDS)
def test_every_generated_input_has_a_golden_report(seed):
    assert sorted(p.stem for p in (GOLDEN / f"seed-{seed}").glob("*.json")) == sorted(SPECS)


@pytest.mark.skipif("EFFTC_SEED" in os.environ,
                    reason="the seed is recorded in the report params")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec_id", sorted(SPECS))
def test_generated_reports_match_golden(spec_id, seed, tmp_path):
    path = GENERATED.write_input(SPECS[spec_id], seed, str(tmp_path))
    golden = GOLDEN / f"seed-{seed}" / f"{spec_id}.json"
    assert run_scenario(path).to_json().encode("utf-8") == golden.read_bytes()
