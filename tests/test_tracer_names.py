"""The benchmark tracer wraps efftc functions by name: every entry of its
`FUNCTIONS` table must still be an attribute defined on its owner, so that a
rename fails here rather than in a later traced benchmark run."""
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("efftc_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True      # leave the benchmark directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_every_traced_function_resolves_on_its_owner():
    functions = _load_tracing().FUNCTIONS
    assert functions
    missing = [name for name, (owner, attr) in functions.items()
               if attr not in vars(owner)]
    assert missing == []

