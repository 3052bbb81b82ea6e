"""Spans and counters around calls into efftc, installed from outside it.

`traced(tracer)` replaces the layer functions listed below with wrappers that
record a span (id, name, start, end, parent) per call and bump the layer's
counters, and puts the originals back on exit.  Nothing inside efftc is
edited: module attributes and class methods are swapped, and every efftc
module that imported a function by name gets the wrapper too.

Certification jobs may run in forked workers (`bounds.first_failure`).  A
worker inherits the tracer, records into its own copy, and appends what one
job recorded to `<spool_dir>/<pid>.jsonl` when the job ends; `collect()`
merges those files in the parent.  The worker count is left to efftc.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from efftc import bounds, complexes, f2, pathspace, scenarios, symmetry

# span name -> (owner, attribute); owners are modules or classes
FUNCTIONS = {
    "bounds.verify_cover": (bounds, "verify_cover"),
    "bounds.first_failure": (bounds, "first_failure"),
    "bounds.zero_divisor_cup_length": (bounds, "zero_divisor_cup_length"),
    "bounds.cd_bound_check": (bounds, "cd_bound_check"),
    "bounds.cd_positivity_criterion": (bounds, "cd_positivity_criterion"),
    "bounds.orbit_nilpotency_lower_bound": (bounds, "orbit_nilpotency_lower_bound"),
    "complexes.cohomology": (complexes, "cohomology"),
    "complexes.cup_length": (complexes, "cup_length"),
    "f2.rref": (f2.F2Matrix, "rref"),
    "f2.reduce_batch": (f2.F2RowSpace, "reduce_batch"),
    "symmetry.saturated_diagonal": (symmetry, "saturated_diagonal"),
    "symmetry.product_complex": (symmetry, "product_complex"),
    "symmetry.subgroups": (symmetry.FiniteGroup, "subgroups"),
    "symmetry.fixed_subcomplex": (symmetry, "fixed_subcomplex"),
    "symmetry.quotient_complex": (symmetry, "quotient_complex"),
    "symmetry.subdivided": (symmetry.GroupAction, "subdivided"),
    "scenarios.build_bundle": (scenarios, "build_bundle"),
    "scenarios.build_planner": (scenarios, "build_planner"),
}
# methods overridden per space class; every definition is wrapped
SPACE_METHODS = {
    "pathspace.supdiff_pairs": "supdiff_pairs",
    "pathspace.grid_neighbor_pairs": "grid_neighbor_pairs",
}
# wrapped per CoverSet when a cover reaches verify_cover
COVER_SPANS = ("planners.margin", "planners.build_legs")

COUNTERS = (
    "bounds.jobs",                  # jobs handed to first_failure
    "bounds.grid_pairs",            # grid pairs of every verified cover
    "bounds.neighbor_edges",        # adjacent grid pairs checked for continuity
    "bounds.accepted_pairs",        # (pair, set) with margin >= epsilon
    "planners.legs_rows",           # rows passed to build_legs
    "pathspace.supdiff_edges",      # edges given to supdiff_pairs
    "complexes.cohomology_simplices",   # simplices of complexes passed to cohomology
    "f2.rref_rows",                 # rows of matrices put in reduced echelon form
    "symmetry.product_simplices",   # simplices of built staircase products
)


def span_names() -> list[str]:
    return sorted(list(FUNCTIONS) + list(SPACE_METHODS) + list(COVER_SPANS))


def metric_names() -> list[str]:
    """Every per-layer metric `summarize` reports."""
    names = [n + "_s" for n in span_names()] + list(COUNTERS)
    names.remove("bounds.accepted_pairs")
    names += ["bounds.section_evals_per_pair", "trace.pass_s", "trace.spans"]
    return sorted(names)


class Tracer:
    """In-memory spans and counters of one process; see the module doc."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self._reset(self.owner)

    def _reset(self, pid):
        self.pid = pid
        self.spans: list[tuple] = []        # (id, name, start, end, parent)
        self.counts: Counter = Counter()
        self.stack: list[tuple[str, str]] = []  # open (id, name)
        self.serial = 0

    def _here(self):
        pid = os.getpid()
        if pid != self.pid:
            # a forked worker: drop the parent's records, keep its open spans
            # as parents of this worker's spans
            stack = self.stack
            self._reset(pid)
            self.stack = stack

    @contextmanager
    def span(self, name: str):
        """Time the block; a span nested in one of the same name is not kept,
        so per-name totals count each interval once."""
        self._here()
        if any(n == name for _, n in self.stack):
            yield False
            return
        self.serial += 1
        sid = f"{self.pid}.{self.serial}"
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield True
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def count(self, name: str, n) -> None:
        self._here()
        self.counts[name] += int(n)

    def flush_worker(self) -> None:
        """In a forked worker, append this job's records to the spool."""
        if os.getpid() == self.owner or not (self.spans or self.counts):
            return
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans,
                                 "counts": dict(self.counts)}) + "\n")
        self.spans, self.counts = [], Counter()

    def collect(self) -> None:
        """Merge and remove the spools written by finished workers."""
        for fname in sorted(os.listdir(self.spool_dir)):
            if not fname.endswith(".jsonl"):
                continue
            path = os.path.join(self.spool_dir, fname)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.spans.extend(tuple(s) for s in rec["spans"])
                    self.counts.update(rec["counts"])
            os.remove(path)

    def take(self) -> tuple[list[tuple], Counter]:
        self.collect()
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def summarize(spans, counts, passes: int, traced_pass_s: float) -> dict:
    """Per-layer metrics per pass: seconds inside each span name, counters,
    the section-evaluation ratio, the traced pass time and the span count."""
    totals = dict.fromkeys(span_names(), 0.0)
    for _, name, start, end, _ in spans:
        totals[name] += end - start
    out = {f"{name}_s": (totals[name] / passes, "s") for name in span_names()}
    for name in COUNTERS:
        if name != "bounds.accepted_pairs":
            out[name] = (counts.get(name, 0) / passes, "count")
    accepted = counts.get("bounds.accepted_pairs", 0)
    ratio = counts.get("planners.legs_rows", 0) / accepted if accepted else 0.0
    out["bounds.section_evals_per_pair"] = (ratio, "rows/pair")
    out["trace.pass_s"] = (traced_pass_s, "s")
    out["trace.spans"] = (len(spans) / passes, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


# ------------------------------------------------------------- wrappers

def _plain(tracer, name, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as outer:
            result = fn(*args, **kwargs)
            if outer and counter:
                counter(tracer, args, kwargs, result)
            return result
    return wrapper


def _count_cohomology(tracer, args, kwargs, result):
    tracer.count("complexes.cohomology_simplices", args[0].total_simplices())


def _count_rref(tracer, args, kwargs, result):
    tracer.count("f2.rref_rows", args[0].nrows)


def _count_product(tracer, args, kwargs, result):
    tracer.count("symmetry.product_simplices", result.total_simplices())


def _count_supdiff(tracer, args, kwargs, result):
    tracer.count("pathspace.supdiff_edges", len(args[2]))


COUNTED = {"complexes.cohomology": _count_cohomology,
           "f2.rref": _count_rref,
           "symmetry.product_complex": _count_product,
           "pathspace.supdiff_pairs": _count_supdiff}


def _traced_cover(tracer, cover):
    def wrap_set(cs):
        def legs_counter(tr, args, kwargs, result):
            tr.count("planners.legs_rows", len(args[0]))
        return dataclasses.replace(
            cs, margin=_plain(tracer, "planners.margin", cs.margin),
            build_legs=_plain(tracer, "planners.build_legs", cs.build_legs,
                              legs_counter))
    return dataclasses.replace(cover, sets=[wrap_set(cs) for cs in cover.sets])


def _grid_work(cover, grid, epsilon, neighbor_pairs):
    """(grid pairs, neighbour edges, accepted (pair, set)) of a cover's sweep."""
    space = cover.action.space
    ypts = space.grid(grid)
    e_y = len(neighbor_pairs(space, grid))
    if cover.kind == "cat":
        xpts = np.asarray(cover.basepoint, float)[None, :]
        e_x = 0
    else:
        xpts, e_x = ypts, e_y
    m_x, m_y = len(xpts), len(ypts)
    accepted = 0
    rows = max(1, 200_000 // m_y)
    for lo in range(0, m_x, rows):
        X = np.repeat(xpts[lo:lo + rows], m_y, axis=0)
        Y = np.tile(ypts, (len(X) // m_y, 1))
        for cs in cover.sets:
            accepted += int(np.count_nonzero(cs.margin(X, Y) >= epsilon))
    return m_x * m_y, m_x * e_y + m_y * e_x, accepted


def _verify_cover(tracer, fn, neighbor_pairs):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        cover = bound.arguments["cover"]
        bound.arguments["cover"] = _traced_cover(tracer, cover)
        with tracer.span("bounds.verify_cover") as outer:
            result = fn(*bound.args, **bound.kwargs)
        if outer:
            # from the unwrapped cover and grid functions: records no spans
            pairs, edges, accepted = _grid_work(
                cover, bound.arguments["grid"], bound.arguments["epsilon"],
                neighbor_pairs)
            tracer.count("bounds.grid_pairs", pairs)
            tracer.count("bounds.neighbor_edges", edges)
            tracer.count("bounds.accepted_pairs", accepted)
        return result
    return wrapper


def _first_failure(tracer, fn):
    def traced_job(job):
        try:
            return job()
        finally:
            tracer.flush_worker()

    @functools.wraps(fn)
    def wrapper(jobs, *args, **kwargs):
        with tracer.span("bounds.first_failure") as outer:
            if outer:
                tracer.count("bounds.jobs", len(jobs))
            jobs = [functools.partial(traced_job, job) for job in jobs]
            return fn(jobs, *args, **kwargs)
    return wrapper


def _efftc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "efftc" or name.startswith("efftc."))]


def _space_classes():
    classes = set()
    for mod in _efftc_modules():
        for value in vars(mod).values():
            if isinstance(value, type) and issubclass(value, pathspace.Space):
                classes.add(value)
    return sorted(classes, key=lambda c: (c.__module__, c.__qualname__))


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    originals = {}
    for cls in _space_classes():
        for name, attr in SPACE_METHODS.items():
            if attr in vars(cls):
                original = vars(cls)[attr]
                originals[(cls, attr)] = original
                swap(cls, attr, _plain(tracer, name, original, COUNTED.get(name)))

    def neighbor_pairs(space, grid):
        owner = next(c for c in type(space).__mro__
                     if (c, "grid_neighbor_pairs") in originals)
        return originals[(owner, "grid_neighbor_pairs")](space, grid)

    for name, (owner, attr) in FUNCTIONS.items():
        original = vars(owner)[attr]
        if name == "bounds.verify_cover":
            wrapper = _verify_cover(tracer, original, neighbor_pairs)
        elif name == "bounds.first_failure":
            wrapper = _first_failure(tracer, original)
        else:
            wrapper = _plain(tracer, name, original, COUNTED.get(name))
        if isinstance(owner, type):
            swap(owner, attr, wrapper)
            continue
        # every module that imported the function by name
        for mod in _efftc_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    swap(mod, key, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
