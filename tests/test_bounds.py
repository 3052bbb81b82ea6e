import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from efftc import bounds, complexes, symmetry
from efftc.bounds import (
    BoundValue,
    cd_bound_check,
    cd_positivity_criterion,
    chain_checks,
    effective_zero_divisors,
    first_failure,
    orbit_nilpotency_lower_bound,
    reconcile,
    require_consistent,
    verify_cover,
    zero_divisor_cup_length,
)
from efftc.complexes import build_complex, coboundary_space, cohomology, cup_product
from efftc.errors import ContradictionError, GeodesicDegeneracyError
from efftc.models import (
    circle_antipodal_quotient,
    circle_flip_quotient,
    hexagon_antipodal_action,
    hexagon_reflection_action,
    octahedron_antipodal_action,
    octahedron_rotation_action,
    point_complex,
    point_trivial,
    sphere_antipodal,
    sphere_codim1,
    sphere_swap_action,
    torus43_halfturn_action,
    torus9_complex,
    torus_trivial,
    wedge_swap_action,
)
from efftc.pathspace import Arc, Circle, trivial_space_action
from efftc.planners import (
    adversarial_sphere_cover,
    arc_cover,
    circle_cover,
    cover_from_covering_lift,
    cover_from_strict_section,
    farber_sphere_cover,
    point_cover,
    restrict_to_cat,
    torus_cut_cover,
)
from efftc.symmetry import action_from_generator_perms, trivial_action

from oracles import leg_pieces, product_zero_divisor_cup_length, product_zero_divisors


# ------------------------------------------------------------ verification

def test_point_cover_certifies_zero():
    cert = verify_cover(point_cover(point_trivial()), grid=4)
    assert cert.certified and cert.bound == 0


def test_farber_circle_certifies_one():
    cert = verify_cover(farber_sphere_cover(sphere_antipodal(1)), grid=32)
    assert cert.certified and cert.bound == 1


def test_covering_lift_circle_certifies_one():
    model = circle_antipodal_quotient(sphere_antipodal(1))
    qcover = circle_cover(trivial_space_action(Circle(np.pi)))
    cert = verify_cover(cover_from_covering_lift(model, qcover), grid=32)
    assert cert.certified and cert.bound == 1


def test_strict_section_flip_certifies_zero():
    model = circle_flip_quotient(sphere_codim1(1))
    cover = cover_from_strict_section(
        model, arc_cover(trivial_space_action(Arc(np.pi))))
    cert = verify_cover(cover, grid=32)
    assert cert.certified and cert.bound == 0


def test_torus_cover_certifies_two():
    cert = verify_cover(torus_cut_cover(torus_trivial()), grid=32)
    assert cert.certified and cert.bound == 2


def test_adversarial_refuted_by_continuity():
    adv = adversarial_sphere_cover(sphere_antipodal(2), honest_membership=False)
    cert = verify_cover(adv, grid=16)
    assert not cert.certified
    assert cert.failure["reason"] == "continuity"


def test_adversarial_refuted_by_coverage():
    adv = adversarial_sphere_cover(sphere_antipodal(2), honest_membership=True)
    cert = verify_cover(adv, grid=16)
    assert not cert.certified
    assert cert.failure["reason"] == "coverage"


def test_sharded_verification_matches_serial(monkeypatch):
    act = sphere_antipodal(2)
    covers = [(adversarial_sphere_cover(act, honest_membership=False), 16),
              (adversarial_sphere_cover(act, honest_membership=True), 16),
              (adversarial_sphere_cover(act, honest_membership=False), 32),
              (adversarial_sphere_cover(act, honest_membership=True), 32),
              (farber_sphere_cover(act), 16)]
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(bounds, "usable_cpus", lambda n=cpus: n)
        runs[cpus] = [verify_cover(cover, grid=grid) for cover, grid in covers]
    assert runs[1] == runs[2]
    assert [c.certified for c in runs[2]] == [False] * 4 + [True]
    assert [c.failure["reason"] for c in runs[2][:4]] == ["continuity", "coverage"] * 2


def test_first_failure_takes_job_order(monkeypatch):
    # the earliest failing job wins even when a later failure finishes first;
    # the jobs are lambdas, which reach forked workers without pickling
    def job(i):
        if i == 3:
            time.sleep(0.2)
        return {"job": i} if i >= 3 else None

    jobs = [lambda i=i: job(i) for i in range(6)]
    for cpus in (1, 2):
        monkeypatch.setattr(bounds, "usable_cpus", lambda n=cpus: n)
        assert first_failure(jobs) == {"job": 3}
        assert first_failure(jobs[:3]) is None


def test_first_failure_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.setattr(bounds, "usable_cpus", lambda: 2)
    parent = os.getpid()
    jobs = [lambda: os.getpid(), lambda: os.getpid()]
    if "fork" in multiprocessing.get_all_start_methods():
        assert first_failure(jobs) != parent
    # one usable CPU: the jobs run in this process
    monkeypatch.setattr(bounds, "usable_cpus", lambda: 1)
    assert first_failure(jobs) == parent
    assert 1 <= bounds.usable_cpus() <= (os.cpu_count() or 1)


@pytest.fixture
def two_cpus(monkeypatch):
    """first_failure runs its jobs in two forked children."""
    monkeypatch.setattr(bounds, "usable_cpus", lambda: 2)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="worker processes are started by fork")
def test_first_failure_reports_a_dead_worker(two_cpus):
    from concurrent.futures.process import BrokenProcessPool
    with pytest.raises(BrokenProcessPool):
        first_failure([lambda: None, lambda: os._exit(1)])


forked = pytest.mark.skipif(not hasattr(os, "fork"),
                            reason="certification children are started by fork")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgumentError(Exception):
    # pickled with its message as its only argument, which it cannot be
    # rebuilt from
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@forked
@pytest.mark.parametrize("error", [
    GeodesicDegeneracyError("antipodal endpoints have no unique arc"),
    ValueError("no such row"),
])
def test_a_jobs_exception_reaches_the_caller(error, two_cpus):
    parent = os.getpid()

    def boom():
        if os.getpid() == parent:
            return {"ran": "in the caller"}
        raise error

    with pytest.raises(type(error)) as raised:
        first_failure([lambda: None, boom, lambda: None])
    assert type(raised.value) is type(error)
    assert str(raised.value) == str(error)
    assert "raise error" in str(raised.value.__cause__)
    assert_no_child_left()


@forked
@pytest.mark.parametrize("make", [
    lambda: TwoArgumentError("lift", "row 3"),
    lambda: ValueError("lift at row 3", lambda: None),
], ids=["not-rebuilt", "not-pickled"])
def test_an_exception_that_cannot_be_pickled_keeps_its_type_name(make, two_cpus):
    def boom():
        raise make()

    name = type(make()).__name__
    with pytest.raises(RuntimeError, match=f"^{name}: "):
        first_failure([lambda: None, boom])
    assert_no_child_left()


@forked
def test_first_failure_leaves_no_child(monkeypatch):
    # a certification, a refutation, and an exception while a later job
    # sleeps: that job's child is stopped, not waited for
    monkeypatch.setattr(bounds, "usable_cpus", lambda: 2)
    act = sphere_antipodal(2)
    assert verify_cover(farber_sphere_cover(act), grid=16).certified
    assert_no_child_left()
    assert not verify_cover(adversarial_sphere_cover(act), grid=16).certified
    assert_no_child_left()

    def boom():
        raise GeodesicDegeneracyError("antipodal pair")

    start = time.monotonic()
    with pytest.raises(GeodesicDegeneracyError):
        first_failure([boom, lambda: time.sleep(60)])
    assert time.monotonic() - start < 30.0
    assert_no_child_left()


@forked
def test_a_stopped_job_writes_what_its_finally_blocks_write(tmp_path, two_cpus):
    # job 1 is stopped mid-loop when job 0 fails; its finally block (a
    # tracer's spool line) still writes its whole line, 600 kB long
    started, spool = tmp_path / "started", tmp_path / "spool.jsonl"

    def fails():
        while not started.exists():
            time.sleep(0.001)
        return {"reason": "first"}

    def loops():
        try:
            started.touch()
            while True:
                pass
        finally:
            with open(spool, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"rows": list(range(100_000))}) + "\n")

    assert first_failure([fails, loops]) == {"reason": "first"}
    lines = spool.read_text(encoding="utf-8").split("\n")
    assert lines[1:] == [""]
    assert json.loads(lines[0]) == {"rows": list(range(100_000))}
    assert_no_child_left()


def test_verify_monotone_in_resolution():
    cover = farber_sphere_cover(sphere_antipodal(1))
    fine = verify_cover(cover, grid=64)
    coarse = verify_cover(cover, grid=16)
    assert fine.certified and coarse.certified


def test_verify_cat_cover_arc_bound_zero():
    from efftc.planners import cat_cover_from_strict_section
    act = sphere_codim1(1)
    model = circle_flip_quotient(act)
    base = np.array([0.0, 1.0])
    qcat = arc_cover(trivial_space_action(Arc(np.pi)))
    cover = cat_cover_from_strict_section(model, qcat, base)
    cert = verify_cover(cover, grid=32)
    assert cert.certified and cert.bound == 0


def test_verify_cat_restricts_tc_cover():
    # a tc cover used as a based cover certifies a cat bound
    cover = restrict_to_cat(farber_sphere_cover(sphere_antipodal(1)),
                            np.array([1.0, 0.0]))
    cert = verify_cover(cover, grid=32)
    assert cert.certified and cert.bound == 1


def test_validation_refutes_broken_section():
    # a cover whose section jumps to an unrelated point must be refuted
    from efftc.planners import CoverSet, PlannerCover, _const_legs
    act = sphere_antipodal(1)

    def margin(X, Y):
        return np.full(X.shape[0], np.inf)

    def legs(X, Y, m):
        bad = np.broadcast_to(np.array([0.0, 1.0]), Y.shape)
        return [_const_legs(X, m), _const_legs(bad, m)]

    cover = PlannerCover(action=act,
                         sets=[CoverSet("bad", 2, margin, leg_pieces(legs, 2))], stage=2)
    cert = verify_cover(cover, grid=8)
    assert not cert.certified
    assert cert.failure["reason"] == "validation"


# ------------------------------------------------------------ lower bounds

def test_zero_divisor_point():
    assert zero_divisor_cup_length(trivial_action(point_complex())) == 0


def test_zero_divisor_trivial_torus_is_two():
    act = trivial_action(torus9_complex())
    # independent oracle: exhaustive products of a kernel basis on X x X
    P, kernel = product_zero_divisors(act)
    cb = {d: coboundary_space(P, d) for d in range(1, P.dimension + 1)}
    deg1 = [c for c in kernel if c.degree == 1]
    assert any(not cb[2].contains(cup_product(P, a, b).coeffs)
               for a in deg1 for b in deg1)
    triple_zero = True
    for a in deg1:
        for b in deg1:
            ab = cup_product(P, a, b)
            if not ab.coeffs.any():
                continue
            for c in deg1:
                abc = cup_product(P, ab, c)
                if abc.degree <= P.dimension and abc.coeffs.any() \
                        and not cb[3].contains(abc.coeffs):
                    triple_zero = False
    assert triple_zero
    assert zero_divisor_cup_length(act) == 2


def _kernel_degrees(ring, kernel):
    degrees = np.add.outer(ring.degrees, ring.degrees).ravel()
    return sorted(int(degrees[np.argmax(row)]) for row in kernel)


@pytest.mark.parametrize("action", [
    lambda: trivial_action(point_complex()),
    hexagon_antipodal_action,
    hexagon_reflection_action,
    octahedron_antipodal_action,
    octahedron_rotation_action,
    lambda: wedge_swap_action(2),
    lambda: wedge_swap_action(3),
])
def test_zero_divisors_match_product_oracle(action):
    act = action()
    _, ring, kernel = effective_zero_divisors(act)
    _, oracle_kernel = product_zero_divisors(act)
    assert _kernel_degrees(ring, kernel) == sorted(c.degree for c in oracle_kernel)
    assert zero_divisor_cup_length(act) == product_zero_divisor_cup_length(act)


def test_zero_divisors_and_cd_bound_never_build_the_product(monkeypatch):
    def refuse(K, L):
        raise AssertionError("staircase product built")

    monkeypatch.setattr(symmetry, "product_complex", refuse)
    assert zero_divisor_cup_length(torus43_halfturn_action()) == 2
    assert cd_bound_check(sphere_swap_action()).passed


def _torus9_translations(*generators):
    K = torus9_complex()
    return action_from_generator_perms(
        K, [{(i, j): ((i + di) % 3, (j + dj) % 3) for i, j in K.vertices}
            for di, dj in generators])


@pytest.mark.parametrize("generators,order", [
    ([(1, 0)], 3),
    ([(1, 0), (0, 1)], 9),
])
def test_free_torus_translations(generators, order):
    # not order-monotone, so the torus is subdivided; the staircase product
    # of the subdivision with itself is never built
    act = _torus9_translations(*generators)
    assert act.group.order == order and act.is_free()
    assert zero_divisor_cup_length(act) == 2
    r = cd_bound_check(act)
    assert r.cd_diagonal == 2
    assert r.passed


def test_zero_divisor_hexagon_antipodal_at_least_one():
    assert zero_divisor_cup_length(hexagon_antipodal_action()) == 1


def test_zero_divisor_octahedron_antipodal():
    assert zero_divisor_cup_length(octahedron_antipodal_action()) == 1


def test_zero_divisor_halfturn_torus_is_two():
    assert zero_divisor_cup_length(torus43_halfturn_action()) == 2


def test_criterion_codim1_sphere_positive():
    rep = cd_positivity_criterion(sphere_swap_action())
    assert rep.verdict == "positive"
    assert rep.cd_x == 2
    assert rep.subgroup_cds == [((0, 1), 1)]  # fixed circle
    assert rep.lower_bound == 1


def test_criterion_circle_inconclusive():
    rep = cd_positivity_criterion(hexagon_antipodal_action())
    assert rep.verdict == "inconclusive"
    assert rep.hypothesis_ok
    assert rep.lower_bound == 0


def test_criterion_trivial_group_positive():
    rep = cd_positivity_criterion(trivial_action(torus9_complex()))
    assert rep.verdict == "positive"  # |G| = 1 <= cd = 2


def test_criterion_rotation_positive():
    rep = cd_positivity_criterion(octahedron_rotation_action())
    assert rep.verdict == "positive"
    assert rep.subgroup_cds == [((0, 1), 0)]  # two fixed poles


def test_cd_bound_trivial_group():
    r = cd_bound_check(trivial_action(torus9_complex()))
    assert r.cd_diagonal == r.cd_x == 2
    assert r.passed


@pytest.mark.parametrize("action,expect_cd", [
    (hexagon_antipodal_action, 1),
    (hexagon_reflection_action, 1),
])
def test_cd_bound_hexagons(action, expect_cd):
    r = cd_bound_check(action())
    assert r.cd_diagonal == expect_cd
    assert r.bound == 1 + 2 - 1
    assert r.passed and r.hypothesis_ok


def test_cd_bound_sphere_swap():
    r = cd_bound_check(sphere_swap_action())
    assert r.cd_diagonal == 2
    assert r.bound == 3
    assert r.passed


def test_cd_bound_sublists():
    act = hexagon_antipodal_action()
    for L in ([0], [1], [0, 1]):
        r = cd_bound_check(act, L)
        assert r.passed
        assert r.bound == 1 + len(L) - 1


def test_orbit_nilpotency_values():
    assert orbit_nilpotency_lower_bound(trivial_action(torus9_complex())) == 2
    assert orbit_nilpotency_lower_bound(hexagon_antipodal_action()) == 0
    assert orbit_nilpotency_lower_bound(wedge_swap_action(2)) == 1


def test_orbit_nilpotency_point():
    assert orbit_nilpotency_lower_bound(trivial_action(point_complex())) == 0


# ---------------------------------------------------------- reconciliation

def test_reconcile_consistent():
    r = reconcile("s", "tc", 2, [BoundValue(1, "zd")], [BoundValue(1, "cover")])
    assert r.status == "consistent"
    assert r.lower.value == r.upper.value == 1


def test_reconcile_contradiction_aborts():
    r = reconcile("s", "tc", 2, [BoundValue(2, "zd")], [BoundValue(1, "cover")])
    assert r.status == "contradiction"
    with pytest.raises(ContradictionError):
        require_consistent([r])


def test_reconcile_takes_extremes():
    r = reconcile("s", "tc", "inf",
                  [BoundValue(0, "trivial"), BoundValue(1, "zd")],
                  [BoundValue(3, "a"), BoundValue(2, "b")])
    assert r.lower.value == 1 and r.lower.source == "zd"
    assert r.upper.value == 2 and r.upper.source == "b"


def test_chain_checks_flags_only_forced_violations():
    tc = reconcile("s", "tc", "inf", [BoundValue(0, "t")], [BoundValue(0, "c")])
    cat = reconcile("s", "cat", "inf", [BoundValue(1, "nil")], [BoundValue(1, "c")])
    checks = chain_checks(tc, cat)
    by_name = {c["name"]: c for c in checks}
    assert not by_name["cat<=tc"]["ok"]          # cat lower 1 > tc upper 0
    assert not by_name["zero-equivalence"]["ok"]
    ok_tc = reconcile("s", "tc", "inf", [BoundValue(1, "t")], [BoundValue(1, "c")])
    ok_cat = reconcile("s", "cat", "inf", [BoundValue(0, "t")], [BoundValue(1, "c")])
    assert all(c["ok"] for c in chain_checks(ok_tc, ok_cat))


def test_cd_bound_holds_on_all_catalog_actions():
    # every catalog action satisfying the fixed-set hypothesis passes
    from efftc.scenarios import BUILTINS, build_bundle
    for name in BUILTINS:
        bundle = build_bundle(BUILTINS[name])
        rep = cd_bound_check(bundle.group_action)
        if rep.hypothesis_ok:
            assert rep.passed, (name, rep)


def _hexagon_dihedral():
    K = build_complex([[i, (i + 1) % 6] for i in range(6)])
    return action_from_generator_perms(K, [{i: (i + 1) % 6 for i in range(6)},
                                           {i: (5 - i) % 6 for i in range(6)}])


def test_cd_bound_reuses_the_fixed_sets_of_the_criterion(monkeypatch):
    # D6 on the hexagon: 15 nontrivial subgroups, some of whose fixed sets
    # need the subdivision; each is built once, for the criterion
    act = _hexagon_dihedral()
    built = []
    pointwise = symmetry.pointwise_fixed_subcomplex

    def counted(action, elements):
        built.append(tuple(elements))
        return pointwise(action, elements)

    monkeypatch.setattr(symmetry, "pointwise_fixed_subcomplex", counted)
    first = cd_positivity_criterion(act)
    report = cd_bound_check(act)
    nontrivial = sorted(tuple(sorted(H)) for H in act.group.subgroups() if len(H) > 1)
    assert len(nontrivial) == 15
    assert sorted(built) == nontrivial
    assert report.hypothesis_ok == first.hypothesis_ok


def test_each_cached_result_is_built_once_per_object(monkeypatch):
    # every keyed result on a complex or an action, counted per object
    # across two rounds of the lower bounds: each is built on first request
    builds, owners = {}, []
    real = complexes.cached

    def counting(owner, key, build):
        def counted():
            owners.append(owner)        # keeps ids from being reused
            builds[id(owner), key] = builds.get((id(owner), key), 0) + 1
            return build()
        return real(owner, key, counted)

    for module in (complexes, symmetry):
        monkeypatch.setattr(module, "cached", counting)
    act = _hexagon_dihedral()
    for _ in range(2):
        cd_positivity_criterion(act)
        orbit_nilpotency_lower_bound(act)
        zero_divisor_cup_length(act)
        cd_bound_check(act)
    assert set(builds.values()) == {1}
    assert {key if isinstance(key, str) else key[0] for _, key in builds} == {
        "faces", "cup_faces", "coboundary_space", "cohomology", "ring",
        "subdivided", "fixed"}


def _grid_torus_translations(a, b, steps, seed=0):
    """The a x b grid torus, vertices relabelled at random, with the group
    of translations by the given (di, dj) steps."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(a * b).tolist()

    def v(i, j):
        return label[(i % a) * b + j % b]

    K = build_complex([t for i in range(a) for j in range(b)
                       for t in ([v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                                 [v(i, j), v(i, j + 1), v(i + 1, j + 1)])])
    return action_from_generator_perms(
        K, [{v(i, j): v(i + di, j + dj) for i in range(a) for j in range(b)}
            for di, dj in steps])


@pytest.mark.parametrize("steps, order, nilpotency", [
    ([(3, 0), (0, 3)], 4, 0),       # Z2 x Z2: both H^1 generators doubled
    ([(2, 0), (0, 3)], 6, 1),       # Z3 x Z2: one generator tripled
], ids=["Z2xZ2", "Z3xZ2"])
def test_exact_steps_on_6x6_tori(steps, order, nilpotency):
    act = _grid_torus_translations(6, 6, steps)
    assert act.group.order == order and act.is_free()
    criterion = cd_positivity_criterion(act)
    assert (criterion.cd_x, criterion.hypothesis_ok, criterion.verdict) == (
        2, True, "inconclusive")
    assert orbit_nilpotency_lower_bound(act) == nilpotency
    report = cd_bound_check(act)
    assert (report.cd_diagonal, report.passed) == (2, True)
