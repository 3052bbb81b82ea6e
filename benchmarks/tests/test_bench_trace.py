"""The traced run: layer names, worker spans, unchanged outputs.

Run with `python3 -m pytest benchmarks/tests -q` from the repository root.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from efftc import bounds, models, planners  # noqa: E402
from efftc.symmetry import saturated_diagonal  # noqa: E402

import run  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_layer_names_match_the_benchmark_file():
    bench = _benchmark()
    assert sorted(m["name"] for m in bench["per_layer"]) == tracing.metric_names()
    assert {m["name"] for m in bench["end_to_end"]} == {
        "pass_s", "slowest_op_s", "peak_rss_mb", "setup_s"}
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def _farber(grid=16):
    cover = planners.farber_sphere_cover(models.sphere_codim1(2))
    return cover, dict(grid=grid, epsilon=0.05, delta=1e-6, modulus=10.0,
                       samples=64)


def test_traced_certification_reaches_the_trace(tmp_path):
    cover, params = _farber()
    plain = bounds.verify_cover(cover, **params)
    tracer = tracing.Tracer(str(tmp_path))
    with tracing.traced(tracer):
        traced = bounds.verify_cover(cover, **params)
    assert bounds.verify_cover.__module__ == "efftc.bounds"
    assert saturated_diagonal is sys.modules["efftc.bounds"].saturated_diagonal
    assert traced == plain and traced.certified

    spans, counts = tracer.take()
    assert os.listdir(tmp_path) == []
    names = {s[1] for s in spans}
    assert {"bounds.verify_cover", "bounds.first_failure", "planners.margin",
            "planners.build_legs", "pathspace.supdiff_pairs",
            "pathspace.grid_neighbor_pairs"} <= names
    ids = {s[0] for s in spans}
    assert all(parent is None or parent in ids for *_, parent in spans)
    if bounds.usable_cpus() > 1:
        workers = {s for s in spans if not s[0].startswith(f"{os.getpid()}.")}
        assert {s[1] for s in workers} >= {"planners.build_legs",
                                          "pathspace.supdiff_pairs"}
    m_y = len(cover.action.space.grid(params["grid"]))
    assert counts["bounds.grid_pairs"] == m_y * m_y
    assert counts["bounds.jobs"] == 2
    # the x pass and the y pass each build every accepted section once
    assert counts["planners.legs_rows"] == 2 * counts["bounds.accepted_pairs"]

    metrics = tracing.summarize(spans, counts, 1, 1.0)
    assert sorted(metrics) == tracing.metric_names()
    assert metrics["bounds.section_evals_per_pair"]["value"] == 2.0


def test_tracing_keeps_exact_results(tmp_path):
    action = models.hexagon_antipodal_action()
    plain = bounds.zero_divisor_cup_length(action), bounds.cd_bound_check(action)
    tracer = tracing.Tracer(str(tmp_path))
    with tracing.traced(tracer):
        traced = bounds.zero_divisor_cup_length(action), bounds.cd_bound_check(action)
    assert traced == plain
    spans, counts = tracer.take()
    names = {s[1] for s in spans}
    assert {"bounds.zero_divisor_cup_length", "symmetry.saturated_diagonal",
            "symmetry.product_complex", "complexes.cohomology", "f2.rref",
            "bounds.cd_bound_check", "symmetry.subgroups"} <= names
    assert counts["symmetry.product_simplices"] > 0
