"""Certified upper bounds from covers, exact lower bounds, reconciliation.

Upper bounds are grid certifications: every sampled pair must be covered
with clearance epsilon, every section output must validate, and section
outputs at adjacent accepted grid pairs must differ leg-wise by at most
L times the input distance.  A refutation is a result, not an error.

Lower bounds are exact F2 computations on simplicial models and never
depend on sampling parameters.
"""
from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .complexes import (
    Cochain,
    coboundary_space,
    cohomology,
    cohomology_ring,
    cup_length,
    cup_product,
    f2_cd,
    product_length,
)
from .f2 import F2Matrix
from .errors import ContradictionError
from .planners import PlannerCover
from .symmetry import (
    GroupAction,
    fixed_subcomplex,
    quotient_complex,
    saturated_diagonal,
)


# ------------------------------------------------------------ certification

@dataclass
class Certification:
    certified: bool
    bound: int | None
    params: dict
    sets: int
    stage: int
    failure: dict | None = None

    def describe(self) -> str:
        if self.certified:
            return (f"certified bound {self.bound} at resolution "
                    f"(grid={self.params['grid']}, eps={self.params['epsilon']}, "
                    f"delta={self.params['delta']}, L={self.params['modulus']})")
        return f"refuted: {self.failure}"


def verify_cover(cover: PlannerCover, grid: int = 32, epsilon: float = 0.05,
                 delta: float = 1e-6, modulus: float = 10.0,
                 samples: int = 64) -> Certification:
    """Certify or refute a planner cover on the deterministic grid."""
    action = cover.action
    space = action.space
    params = {"grid": grid, "epsilon": epsilon, "delta": delta,
              "modulus": modulus, "samples": samples}
    ypts = space.grid(grid)
    ynbr = space.grid_neighbor_pairs(grid)
    if cover.kind == "cat":
        if cover.basepoint is None:
            raise ValueError("cat cover verification needs a basepoint")
        xpts = np.asarray(cover.basepoint, float)[None, :]
        xnbr = np.zeros((0, 2), dtype=np.intp)
    else:
        xpts = ypts
        xnbr = ynbr

    m_y = ypts.shape[0]
    m_x = xpts.shape[0]
    endpoint_tol = 1e-6
    chunk_rows = max(1, 2_000_000 // (m_y * samples))

    def failure(reason, **detail):
        return {"reason": reason, **detail}

    def continuity(cs, X, Y, legs, pos, a, b, indist):
        supdiff = np.zeros(a.size)
        for leg in legs:
            supdiff = np.maximum(
                supdiff, space.supdiff_pairs(leg, pos[a], pos[b]))
        bad = supdiff > modulus * indist
        if bad.any():
            w = int(np.argmax(bad))
            return failure("continuity", set=cs.name,
                           pair=[X[a[w]].tolist(), Y[a[w]].tolist()],
                           neighbor=[X[b[w]].tolist(), Y[b[w]].tolist()],
                           supdiff=float(supdiff[w]),
                           allowed=float(modulus * indist[w]))
        return None

    def x_chunk(start):
        # coverage + validation + y-direction continuity on x rows
        xidx = np.arange(start, min(start + chunk_rows, m_x))
        k = xidx.size
        X = np.repeat(xpts[xidx], m_y, axis=0)
        Y = np.tile(ypts, (k, 1))
        total = k * m_y
        base = np.arange(k) * m_y
        nbr_a = (base[:, None] + ynbr[None, :, 0]).ravel()
        nbr_b = (base[:, None] + ynbr[None, :, 1]).ravel()
        nbr_dist = np.tile(space.dist(ypts[ynbr[:, 0]], ypts[ynbr[:, 1]]), k)
        covered = np.zeros(total, dtype=bool)
        for cs in cover.sets:
            margins = cs.margin(X, Y)
            acc = margins >= epsilon
            covered |= acc
            if not acc.any():
                continue
            rows = np.nonzero(acc)[0]
            legs = cs.build_legs(X[rows], Y[rows], samples)
            for i in range(len(legs) - 1):
                joint = action.orbit_dist(legs[i][:, -1], legs[i + 1][:, 0])
                bad = joint > delta
                if bad.any():
                    r = rows[int(np.argmax(bad))]
                    return failure("validation", set=cs.name,
                                   pair=[X[r].tolist(), Y[r].tolist()],
                                   joint_residual=float(joint.max()))
            res0 = space.dist(legs[0][:, 0], X[rows])
            res1 = space.dist(legs[-1][:, -1], Y[rows])
            bad = (res0 > endpoint_tol) | (res1 > endpoint_tol)
            if bad.any():
                r = rows[int(np.argmax(bad))]
                return failure("validation", set=cs.name,
                               pair=[X[r].tolist(), Y[r].tolist()],
                               endpoint_residual=float(max(res0.max(), res1.max())))
            pos = np.full(total, -1, dtype=np.intp)
            pos[rows] = np.arange(rows.size)
            both = acc[nbr_a] & acc[nbr_b]
            if both.any():
                found = continuity(cs, X, Y, legs, pos, nbr_a[both],
                                   nbr_b[both], nbr_dist[both])
                if found:
                    return found
        if not covered.all():
            r = int(np.argmax(~covered))
            return failure("coverage", pair=[X[r].tolist(), Y[r].tolist()])
        return None

    def y_chunk(start):
        # continuity along the x factor on y rows
        yidx = np.arange(start, min(start + chunk_rows, m_y))
        k = yidx.size
        Y = np.repeat(ypts[yidx], m_x, axis=0)
        X = np.tile(xpts, (k, 1))
        total = k * m_x
        base = np.arange(k) * m_x
        nbr_a = (base[:, None] + xnbr[None, :, 0]).ravel()
        nbr_b = (base[:, None] + xnbr[None, :, 1]).ravel()
        nbr_dist = np.tile(space.dist(xpts[xnbr[:, 0]], xpts[xnbr[:, 1]]), k)
        for cs in cover.sets:
            margins = cs.margin(X, Y)
            acc = margins >= epsilon
            both = acc[nbr_a] & acc[nbr_b]
            if not both.any():
                continue
            rows = np.nonzero(acc)[0]
            legs = cs.build_legs(X[rows], Y[rows], samples)
            pos = np.full(total, -1, dtype=np.intp)
            pos[rows] = np.arange(rows.size)
            found = continuity(cs, X, Y, legs, pos, nbr_a[both], nbr_b[both],
                               nbr_dist[both])
            if found:
                return found
        return None

    # every x chunk before any y chunk: the serial order of the two passes
    jobs = [partial(x_chunk, start) for start in range(0, m_x, chunk_rows)]
    if xnbr.size:
        jobs += [partial(y_chunk, start) for start in range(0, m_y, chunk_rows)]
    found = first_failure(jobs)
    if found:
        return Certification(certified=False, bound=None, params=params,
                             sets=len(cover.sets), stage=cover.stage,
                             failure=found)
    return Certification(certified=True, bound=cover.claimed_bound, params=params,
                         sets=len(cover.sets), stage=cover.stage)


_WORKER_JOBS: list = []


def _set_worker_jobs(jobs) -> None:
    # runs in each forked worker only; the parent's table stays empty
    global _WORKER_JOBS
    _WORKER_JOBS = jobs


def _run_worker_job(index: int):
    return _WORKER_JOBS[index]()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def first_failure(jobs, workers: int | None = None):
    """The first non-None result of the zero-argument jobs, in job order.

    Jobs run on min(workers, len(jobs)) worker processes, serially when that
    is one.  By default workers is usable_cpus(), or 1 when the numba
    kernels are in use: they already run on every core, and their threading
    layers are not safe to fork once a parallel region has run.  Covers hold
    closures, which cannot be pickled, so the job table reaches the workers
    by fork inheritance; only job indices and results cross the process
    boundary.  Results are taken in job order and the first failure stops
    the run, so the outcome is exactly that of the serial loop.
    """
    if workers is None:
        workers = 1 if _kernels.HAVE_NUMBA else usable_cpus()
    workers = min(workers, len(jobs))
    if workers <= 1 or "fork" not in mp.get_all_start_methods():
        for job in jobs:
            found = job()
            if found:
                return found
        return None
    pool = ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                               initializer=_set_worker_jobs, initargs=(jobs,))
    try:
        futures = [pool.submit(_run_worker_job, i) for i in range(len(jobs))]
        for future in futures:
            found = future.result()
            if found:
                return found
        return None
    finally:
        # drop queued jobs; a worker that died raises BrokenProcessPool above
        pool.shutdown(cancel_futures=True)


def verify_cat_cover(cover: PlannerCover, basepoint=None, **params) -> Certification:
    """verify_cover with the first pair coordinate frozen at the basepoint."""
    if cover.kind != "cat":
        from .planners import restrict_to_cat
        if basepoint is None:
            raise ValueError("need a basepoint to restrict a tc cover")
        cover = restrict_to_cat(cover, basepoint)
    elif basepoint is not None:
        cover = PlannerCover(action=cover.action, sets=cover.sets,
                             stage=cover.stage, kind="cat",
                             basepoint=np.asarray(basepoint, float),
                             name=cover.name)
    return verify_cover(cover, **params)


# ------------------------------------------------------------ lower bounds

def effective_zero_divisors(action: GroupAction):
    """Kernel of H^+(X x X; F2) -> H^+(T), T the saturated diagonal.

    X x X is never built.  By the Kunneth theorem H*(X x X) is
    H*(X) (x) H*(X), with e_i (x) e_j the cross product p1*e_i u p2*e_j, and
    its restriction to T is (p1|T)*e_i u (p2|T)*e_j: both coordinates
    strictly increase along every simplex of T, so the projections restrict
    to simplicial maps T -> X that keep the vertex order.  Returns
    (diagonal, ring, kernel): `ring` is H*(X) of the (possibly subdivided)
    base and `kernel` a basis of the zero divisors, as coordinate rows over
    the basis e_i (x) e_j of `ring.tensor_multiply`.
    """
    diag = saturated_diagonal(action)
    K, T = diag.base.complex, diag.union_complex
    ring = cohomology_ring(K)
    n = len(ring.basis)

    def pullbacks(coord: int) -> list[Cochain]:
        # every basis class pulled back along the projection p_coord|T
        index = {d: [K.index(tuple(v[coord] for v in s)) for s in T.simplices(d)]
                 for d in set(ring.degrees.tolist())}
        return [Cochain(c.degree, c.coeffs[index[c.degree]]) for c in ring.basis]

    first, second = pullbacks(0), pullbacks(1)
    kernel = [np.zeros((0, n * n), dtype=np.uint8)]
    for d in range(1, 2 * K.dimension + 1):
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if ring.degrees[i] + ring.degrees[j] == d]
        if not pairs:
            continue
        flat = np.array([i * n + j for i, j in pairs], dtype=np.intp)
        if d > T.dimension:
            combos = np.eye(len(pairs), dtype=np.uint8)
        else:
            restricted = np.array([cup_product(T, first[i], second[j]).coeffs
                                   for i, j in pairs])
            reduced = coboundary_space(T, d).reduce_batch(restricted)
            combos = np.array(F2Matrix.from_dense(reduced.T).kernel_basis(),
                              dtype=np.uint8).reshape(-1, len(pairs))
        classes = np.zeros((len(combos), n * n), dtype=np.uint8)
        classes[:, flat] = combos
        kernel.append(classes)
    return diag, ring, np.vstack(kernel)


def zero_divisor_cup_length(action: GroupAction) -> int:
    """Cup length of ker(H^+(X x X; F2) -> H^+(diagonal saturation); F2).

    A lower bound for the stage-2 effective topological complexity; for a
    free action it also bounds the stabilized value.
    """
    _, ring, kernel = effective_zero_divisors(action)
    return product_length(kernel, ring.tensor_multiply)


@dataclass
class CriterionReport:
    verdict: str                       # "positive" | "inconclusive"
    hypothesis_ok: bool
    cd_x: int
    group_order: int
    subgroup_cds: list[tuple[tuple[int, ...], int]]

    @property
    def lower_bound(self) -> int:
        return 1 if self.verdict == "positive" else 0


def cd_positivity_criterion(action: GroupAction) -> CriterionReport:
    """Positivity of stage-2 effective tc from cohomological dimensions.

    Positive when cd(X^H) <= cd(X) for every nontrivial subgroup H and
    |G| <= cd(X); otherwise inconclusive (never "zero").
    """
    cd_x = f2_cd(action.complex)
    details = []
    hypothesis_ok = True
    for H in action.group.subgroups():
        if len(H) == 1:
            continue
        cd_h = f2_cd(fixed_subcomplex(action, sorted(H)))
        details.append((tuple(sorted(H)), cd_h))
        if cd_h > cd_x:
            hypothesis_ok = False
    positive = hypothesis_ok and action.group.order <= cd_x
    return CriterionReport(verdict="positive" if positive else "inconclusive",
                           hypothesis_ok=hypothesis_ok, cd_x=cd_x,
                           group_order=action.group.order,
                           subgroup_cds=details)


@dataclass
class CdBoundReport:
    elements: list[int]
    cd_diagonal: int
    cd_x: int
    bound: int
    hypothesis_ok: bool
    passed: bool


def cd_bound_check(action: GroupAction, elements=None) -> CdBoundReport:
    """Exact check of cd(diagonal slices union) <= cd(X) + |L| - 1."""
    criterion = cd_positivity_criterion(action)
    diag = saturated_diagonal(action, elements)
    cd_t = f2_cd(diag.union_complex)
    cd_x = f2_cd(action.complex)
    bound = cd_x + len(diag.elements) - 1
    return CdBoundReport(elements=list(diag.elements), cd_diagonal=cd_t,
                         cd_x=cd_x, bound=bound,
                         hypothesis_ok=criterion.hypothesis_ok,
                         passed=cd_t <= bound)


def orbit_map_pullback(action: GroupAction):
    """The quotient complex, its cohomology pulled back along the orbit map."""
    Q, vmap, base = quotient_complex(action)
    summary = cohomology(Q)
    K = base.complex
    pullbacks: list[Cochain] = []
    for d in range(1, Q.dimension + 1):
        if d > K.dimension:
            break
        for rep in summary.representatives[d]:
            vec = np.zeros(K.n_simplices(d), dtype=np.uint8)
            for i, s in enumerate(K.simplices(d)):
                image = tuple(sorted({vmap[v] for v in s}))
                if len(image) == len(s):
                    vec[i] = rep.coeffs[Q.index(image)]
            pullbacks.append(Cochain(d, vec))
    return Q, base, pullbacks


def orbit_nilpotency_lower_bound(action: GroupAction) -> int:
    """nil of the image of H^+(X/G; F2) -> H^+(X; F2) under the orbit map."""
    Q, base, pullbacks = orbit_map_pullback(action)
    live = [c for c in pullbacks if not c.is_zero()]
    if not live:
        return 0
    return cup_length(base.complex, live)


# ----------------------------------------------------------- reconciliation

@dataclass
class BoundValue:
    value: int
    source: str


@dataclass
class BoundReport:
    scenario: str
    invariant: str              # "tc" | "cat"
    stage: object               # int or "inf"
    lower: BoundValue
    upper: BoundValue | None
    params: dict
    status: str                 # "consistent" | "contradiction"

    @property
    def label(self) -> str:
        return f"{self.invariant}^{{G,{self.stage}}}"

    def as_dict(self) -> dict:
        return {
            "invariant": self.label,
            "kind": self.invariant,
            "stage": self.stage,
            "scenario": self.scenario,
            "lower": self.lower.value,
            "lower_source": self.lower.source,
            "upper": None if self.upper is None else self.upper.value,
            "upper_source": None if self.upper is None else self.upper.source,
            "params": self.params,
            "status": self.status,
        }


def reconcile(scenario: str, invariant: str, stage, lowers, uppers,
              params=None) -> BoundReport:
    """Max of lowers vs min of uppers; contradiction when they cross."""
    lowers = list(lowers) or [BoundValue(0, "trivial")]
    best_lower = max(lowers, key=lambda b: b.value)
    best_upper = min(uppers, key=lambda b: b.value) if uppers else None
    status = "consistent"
    if best_upper is not None and best_lower.value > best_upper.value:
        status = "contradiction"
    return BoundReport(scenario=scenario, invariant=invariant, stage=stage,
                       lower=best_lower, upper=best_upper,
                       params=params or {}, status=status)


def chain_checks(tc_report: BoundReport, cat_report: BoundReport) -> list[dict]:
    """Consistency assertions between stabilized cat and tc intervals.

    Flags only when the certified intervals force a violation of
    cat <= tc <= 2 cat or of the zero-equivalence.
    """
    checks = []
    tc_up = None if tc_report.upper is None else tc_report.upper.value
    cat_up = None if cat_report.upper is None else cat_report.upper.value
    ok = tc_up is None or cat_report.lower.value <= tc_up
    checks.append({"name": "cat<=tc", "ok": bool(ok),
                   "detail": f"cat lower {cat_report.lower.value}, tc upper {tc_up}"})
    ok = cat_up is None or tc_report.lower.value <= 2 * cat_up
    checks.append({"name": "tc<=2cat", "ok": bool(ok),
                   "detail": f"tc lower {tc_report.lower.value}, cat upper {cat_up}"})
    zero_violation = ((tc_up == 0 and cat_report.lower.value >= 1)
                      or (cat_up == 0 and tc_report.lower.value >= 1))
    checks.append({"name": "zero-equivalence", "ok": not zero_violation,
                   "detail": f"tc upper {tc_up}, cat upper {cat_up}"})
    return checks


def require_consistent(reports: list[BoundReport]) -> None:
    bad = [r for r in reports if r.status == "contradiction"]
    if bad:
        r = bad[0]
        raise ContradictionError(
            f"scenario {r.scenario}: {r.invariant} stage {r.stage} lower "
            f"{r.lower.value} ({r.lower.source}) exceeds upper "
            f"{r.upper.value} ({r.upper.source})")
