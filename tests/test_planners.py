import dataclasses

import numpy as np
import pytest

from efftc.models import (
    circle_antipodal_quotient,
    circle_flip_quotient,
    sphere2_codim1_quotient,
    sphere_antipodal,
    sphere_codim1,
    torus_halfturn,
    torus_halfturn_quotient,
    torus_trivial,
    wedge_quotient,
    wedge_swap,
)
from efftc.pathspace import (
    ENDPOINT_TOL,
    JOINT_TOL,
    Arc,
    Circle,
    QuotientModel,
    trivial_space_action,
)
from efftc.planners import (
    CoverSet,
    PlannerCover,
    _const_legs,
    adversarial_sphere_cover,
    arc_cover,
    cat_cover_covering_lift,
    cat_cover_from_strict_section,
    cat_geodesic_cover,
    circle_cover,
    cover_from_covering_lift,
    cover_from_strict_section,
    embed_cover,
    farber_sphere_cover,
    hemisphere_cat_cover,
    involution_three_stage_planner,
    involution_two_stage_cover,
    torus_cut_cover,
)

from efftc import scenarios
from efftc.scenarios import Scenario, build_bundle

from oracles import former_cat_cover_covering_lift, leg_pieces, residuals_of_legs


def assert_valid(cover, legs, x, y):
    """The legs make a broken path from x to y, checked apart from plan."""
    joints, ends = residuals_of_legs(cover.action, [leg[None] for leg in legs],
                                     np.asarray(x, float)[None], np.asarray(y, float)[None])
    assert (joints <= JOINT_TOL).all() and (ends <= ENDPOINT_TOL).all(), (joints, ends)


def plan_and_validate(cover, x, y, epsilon=0.05):
    name, legs = cover.plan(x, y, epsilon)
    assert_valid(cover, legs, x, y)
    return name, legs


def test_farber_set_counts():
    assert len(farber_sphere_cover(sphere_antipodal(1)).sets) == 2
    assert farber_sphere_cover(sphere_antipodal(1)).claimed_bound == 1
    assert len(farber_sphere_cover(sphere_codim1(2)).sets) == 3
    assert farber_sphere_cover(sphere_codim1(2)).claimed_bound == 2
    assert len(farber_sphere_cover(sphere_antipodal(3)).sets) == 2


def test_farber_sections_validate_on_samples():
    cover = farber_sphere_cover(sphere_codim1(2))
    rng = np.random.default_rng(3)
    pts = cover.action.space.random_points(rng, 12)
    for i in range(6):
        plan_and_validate(cover, pts[2 * i], pts[2 * i + 1])


def test_involution2_structure():
    cover = involution_two_stage_cover(sphere_codim1(2))
    assert cover.stage == 2
    assert len(cover.sets) == 2
    assert cover.claimed_bound == 1


def test_involution2_u1_constant_on_fixed_diagonal():
    cover = involution_two_stage_cover(sphere_codim1(2))
    x = np.array([0.0, 1.0, 0.0])  # on the fixed equator
    name, legs = cover.plan(x, x)
    assert name == "U1"
    assert np.allclose(legs[0], x)


def test_involution2_covers_antipodal_over_equator():
    cover = involution_two_stage_cover(sphere_codim1(2))
    x = np.array([0.0, 1.0, 0.0])
    name, legs = plan_and_validate(cover, x, -x)
    assert name == "U2"
    # first leg rides the half-turn rotation, one jump lands on -x
    assert np.allclose(legs[1][0], -x, atol=1e-12)


def test_involution2_free_case_formula():
    cover = involution_two_stage_cover(sphere_antipodal(2))
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.96, 0.28, 0.0])
    # y close to x: handled by U2 = {y != x}? no: d(y,-x) large so U1 wins
    name, _ = cover.plan(x, y)
    assert name == "U1"
    name, legs = plan_and_validate(cover, x, -x)
    assert name == "U2"
    assert np.allclose(legs[0], x)  # constant first leg


def test_involution3_single_set_and_examples():
    cover = involution_three_stage_planner(sphere_codim1(2))
    assert cover.claimed_bound == 0
    n = np.array([1.0, 0.0, 0.0])
    name, legs = cover.plan(n, n)
    assert all(np.allclose(leg, n) for leg in legs)
    # lower-hemisphere start: the first joint jumps orbits
    x = np.array([-0.8, 0.6, 0.0])
    name, legs = plan_and_validate(cover, x, n)
    assert not np.allclose(legs[1][0], x)
    assert np.allclose(legs[1][0], cover.action.act(1, x), atol=1e-12)


def test_circle_cover_two_sets():
    cover = circle_cover(trivial_space_action(Circle(np.pi)))
    assert len(cover.sets) == 2
    x = np.array([0.1])
    y = np.array([2.0])
    plan_and_validate(cover, x, y)


def test_strict_section_flip_circle():
    model = circle_flip_quotient(sphere_codim1(1))
    qcover = arc_cover(trivial_space_action(Arc(np.pi)))
    cover = cover_from_strict_section(model, qcover)
    assert cover.stage == 3
    assert cover.claimed_bound == 0
    x = np.array([np.cos(0.3), np.sin(0.3)])
    y = np.array([np.cos(-2.0), np.sin(-2.0)])
    _, legs = plan_and_validate(cover, x, y)
    assert len(legs) == 3
    # middle leg lives in the upper semicircle (the section image)
    assert np.all(legs[1][:, 0] >= -1e-12) or np.all(legs[1][:, 1] >= -1e-12)


def test_strict_section_requires_section():
    model = circle_antipodal_quotient(sphere_antipodal(1))
    qcover = circle_cover(trivial_space_action(Circle(np.pi)))
    with pytest.raises(ValueError, match="needs a strict section"):
        cover_from_strict_section(model, qcover)


def test_strict_section_guards_report_the_residual():
    # a section that misses by 0.1: both transfers refuse it, and say by how much
    act = sphere_codim1(1)
    good = circle_flip_quotient(act)
    model = QuotientModel(act, good.quotient_space, good.project,
                          section=lambda q: good.section(q + 0.1))
    qcover = arc_cover(trivial_space_action(Arc(np.pi)))
    with pytest.raises(ValueError, match=r"section check failed: residual 1\.00e-01"):
        cover_from_strict_section(model, qcover)
    with pytest.raises(ValueError, match=r"section check failed: residual 1\.00e-01"):
        cat_cover_from_strict_section(model, qcover, np.array([0.0, 1.0]))


def test_strict_section_trivial_group_embeds_cover():
    # trivial group, identity section: output is the input cover at stage 3
    act = trivial_space_action(Circle(2 * np.pi))
    model = QuotientModel(act, act.space, lambda p: p, section=lambda q: q)
    qcover = circle_cover(act)
    cover = cover_from_strict_section(model, qcover)
    assert cover.claimed_bound == qcover.claimed_bound
    assert cover.stage == 3


def test_covering_lift_circle():
    model = circle_antipodal_quotient(sphere_antipodal(1))
    qcover = circle_cover(trivial_space_action(Circle(np.pi)))
    cover = cover_from_covering_lift(model, qcover)
    assert cover.stage == 2
    assert cover.claimed_bound == 1
    x = np.array([1.0, 0.0])
    y = np.array([0.0, -1.0])
    _, legs = plan_and_validate(cover, x, y)
    assert np.allclose(legs[0][0], x)


def test_covering_lift_rejects_non_free():
    model = sphere2_codim1_quotient(sphere_codim1(2))
    qcover = arc_cover(trivial_space_action(Arc(np.pi)))
    with pytest.raises(ValueError):
        cover_from_covering_lift(model, qcover)


def test_covering_lift_torus():
    model = torus_halfturn_quotient(torus_halfturn())
    qcover = torus_cut_cover(torus_trivial())
    cover = cover_from_covering_lift(model, qcover)
    assert cover.claimed_bound == 2
    x = np.array([0.12, 0.7])
    y = np.array([0.8, 0.33])
    plan_and_validate(cover, x, y)


def test_wedge_planner_bounds():
    # the wedge planner: the strict section onto the identity copy
    for branches in (2, 3):
        model = wedge_quotient(wedge_swap(branches))
        base = circle_cover(trivial_space_action(Circle(2 * np.pi)))
        cover = cover_from_strict_section(model, base)
        assert cover.claimed_bound == 1
        assert cover.stage == 3
        x = np.array([0.0, 1.2])
        y = np.array([branches - 1.0, 5.0])
        plan_and_validate(cover, x, y)


def test_embed_cover_preserves_membership_and_bound():
    cover = involution_two_stage_cover(sphere_codim1(2))
    emb = embed_cover(cover)
    assert emb.stage == 3
    assert emb.claimed_bound == cover.claimed_bound
    x = np.array([0.0, 1.0, 0.0])
    _, legs = plan_and_validate(emb, x, -x)
    assert len(legs) == 3
    assert np.allclose(legs[2], legs[1][-1])


def test_torus_cut_cover_three_sets():
    cover = torus_cut_cover(torus_trivial())
    assert cover.claimed_bound == 2
    rng = np.random.default_rng(5)
    for _ in range(8):
        x, y = rng.uniform(0, 1, (2, 2))
        plan_and_validate(cover, x, y)


def test_cat_geodesic_cover():
    act = sphere_antipodal(2)
    base = np.array([1.0, 0.0, 0.0])
    cover = cat_geodesic_cover(act, base)
    assert cover.kind == "cat"
    assert cover.claimed_bound == 1
    for y in (np.array([0.0, 0.0, 1.0]), -base):
        plan_and_validate(cover, base, y)


def test_cat_covering_lift_antipodal_sphere():
    act = sphere_antipodal(2)
    base = np.array([1.0, 0.0, 0.0])
    cover = cat_cover_covering_lift(act, base, np.pi / 2 + 0.3)
    assert cover.claimed_bound == 1
    y = -base
    name, legs = plan_and_validate(cover, base, y)
    # the lifted leg starts at the basepoint
    assert np.allclose(legs[0][0], base)


_LIFT_SPACES = {"point": [{"kind": "point"}], "torus": [{"kind": "torus", "n": 2}],
                "sphere": [{"kind": "sphere", "n": n} for n in (1, 2)]}


@pytest.mark.parametrize("space, action", [
    pytest.param(space, action, id=f"{space['kind']}{space.get('n', '')}-{action}")
    for kind, action in sorted(scenarios._PLANNERS["cat-covering-lift"][0])
    for space in _LIFT_SPACES[kind]])
def test_cat_covering_lift_reads_centres_and_deck_moves_off_the_group(space, action):
    # set g is centred at g·b with deck move g^-1, which carries the centre
    # to b; its margins and legs are the former search-built cover's, bit
    # for bit, and every leg starts at b
    bundle = build_bundle(Scenario(id="t", space=space, action=action))
    act, base = bundle.space_action, bundle.basepoint
    radius = scenarios._BASEPOINTS[type(act.space)][1]
    for g in range(act.group.order):
        centre = act.act(g, base)
        assert float(act.space.dist(act.act(act.group.inv(g), centre), base)) <= 1e-9
    cover = cat_cover_covering_lift(act, base, radius)
    former = former_cat_cover_covering_lift(
        act, base, [act.act(g, base) for g in range(act.group.order)], radius)
    assert [cs.name for cs in cover.sets] == [cs.name for cs in former.sets]
    grid = act.space.grid(7)
    for cs, old in zip(cover.sets, former.sets):
        margin = cs.margin(np.broadcast_to(base, grid.shape), grid)
        assert np.array_equal(margin, old.margin(np.broadcast_to(base, grid.shape), grid))
        # the legs on the pairs the set accepts
        Y = grid[margin >= 0.05]
        X = np.broadcast_to(base, Y.shape)
        assert len(Y)
        legs, old_legs = cs.build_legs(X, Y, 9), old.build_legs(X, Y, 9)
        assert len(legs) == len(old_legs) == 2
        for leg, old_leg in zip(legs, old_legs):
            assert np.array_equal(leg, old_leg)
        assert np.max(act.space.dist(legs[0][:, 0], X)) <= 1e-9


def test_cat_strict_section_flip():
    act = sphere_codim1(1)
    model = circle_flip_quotient(act)
    base = np.array([0.0, 1.0])
    qcat = arc_cover(trivial_space_action(Arc(np.pi)))
    qcat.kind = "cat"
    cover = cat_cover_from_strict_section(model, qcat, base)
    assert cover.claimed_bound == 0
    y = np.array([0.6, -0.8])
    plan_and_validate(cover, base, y)


def test_hemisphere_cat_cover_bound_zero():
    from efftc.models import Hemisphere
    cover = hemisphere_cat_cover(trivial_space_action(Hemisphere()))
    assert cover.claimed_bound == 0


def test_covering_lift_output_projects_to_quotient_section():
    # construction round trip: the lifted stage-2 section projects back to
    # the quotient-cover section path
    model = circle_antipodal_quotient(sphere_antipodal(1))
    qcover = circle_cover(trivial_space_action(Circle(np.pi)))
    cover = cover_from_covering_lift(model, qcover)
    x = np.array([np.cos(0.4), np.sin(0.4)])
    y = np.array([np.cos(2.9), np.sin(2.9)])
    name, legs = plan_and_validate(cover, x, y)
    projected = np.concatenate([model.project(leg) for leg in legs])
    qx, qy = model.project(x), model.project(y)
    qset = next(s for s in qcover.sets if s.name == name)
    expected = qset.build_legs(qx[None, :], qy[None, :], 64)[0][0]
    lead = projected[:64]
    assert np.max(model.quotient_space.dist(lead, expected)) < 1e-6
    # the tail is the constant leg at [y]
    assert np.max(model.quotient_space.dist(projected[64:], expected[-1])) < 1e-6


def test_farber_sections_validate_on_s3():
    act = sphere_antipodal(3)
    cover = farber_sphere_cover(act)
    assert len(cover.sets) == 2
    rng = np.random.default_rng(9)
    pts = act.space.random_points(rng, 10)
    for i in range(5):
        plan_and_validate(cover, pts[2 * i], pts[2 * i + 1])


def test_constant_legs_are_read_only_views():
    from efftc.planners import _const_legs
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(7, 3))
    leg = _const_legs(pts, 64)
    assert leg.shape == (7, 64, 3) and leg.strides[1] == 0
    assert np.shares_memory(leg, pts) and not leg.flags.writeable
    assert np.array_equal(leg, np.repeat(pts[:, None, :], 64, axis=1))

    space = sphere_codim1(2).space
    X, Y = space.random_points(rng, 5), space.random_points(rng, 5)
    first, _, last = involution_three_stage_planner(
        sphere_codim1(2)).sets[0].build_legs(X, Y, 64)
    for leg, end in ((first, X), (last, Y)):
        assert leg.strides[1] == 0 and not leg.flags.writeable
        assert np.array_equal(leg, np.repeat(end[:, None, :], 64, axis=1))
    # the tail an embedding appends is a constant piece at the last leg's
    # endpoints: of the adversarial arcs (built whole), and of farber's U1
    # (an arc piece, its end from the arc's endpoint)
    for base in (adversarial_sphere_cover(sphere_codim1(2)),
                 farber_sphere_cover(sphere_codim1(2))):
        legs = embed_cover(base).sets[0].build_legs(X, Y, 64)
        assert len(legs) == 2 and legs[1].strides[1] == 0 and not legs[1].flags.writeable
        assert np.array_equal(legs[1], np.repeat(legs[0][:, -1:, :], 64, axis=1))


def test_plan_returns_valid_legs():
    cover = involution_three_stage_planner(sphere_codim1(2))
    rng = np.random.default_rng(6)
    x, y = cover.action.space.random_points(rng, 2)
    name, legs = plan_and_validate(cover, x, y)
    assert [leg.shape for leg in legs] == [(64, 3)] * 3
    assert all(leg.flags.writeable for leg in legs)
    assert np.array_equal(legs[0], np.repeat(x[None, :], 64, axis=0))
    name, legs = plan_and_validate(embed_cover(cover), x, y)
    assert name == "U" and len(legs) == 4
    assert np.array_equal(legs[-1], np.repeat(y[None, :], 64, axis=0))


def test_plan_raises_on_an_invalid_section():
    # a set whose second leg starts off the orbit of the first leg's end,
    # and a set whose path ends away from y
    act = sphere_codim1(2)
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

    def everywhere(X, Y):
        return np.full(len(X), np.inf)

    z = np.array([[0.0, 0.0, 1.0]])

    def jumps(X, Y, m):
        return [act.space.geodesic(X, Y, m), _const_legs(z, m)]

    def misses(X, Y, m):
        return [act.space.geodesic(X, z, m)]

    for pieces, what in ((leg_pieces(jumps, 2), "joint residuals \\[1.57"),
                         (leg_pieces(misses), "endpoint residuals \\[0.0, 1.57")):
        cover = PlannerCover(action=act, sets=[CoverSet("V", 1, everywhere, pieces)],
                             stage=1)
        with pytest.raises(ValueError, match=f"set V gives no broken path.*{what}"):
            cover.plan(x, y)


def test_a_cover_set_needs_pieces():
    # a set fails when it is made without pieces, or with a legs function
    # where they go, bare or wrapped as a leg
    def margin(X, Y):
        return np.zeros(len(X))

    def legs(X, Y, m):
        return [act.space.geodesic(X, Y, m)]

    act = sphere_codim1(2)
    with pytest.raises(TypeError):
        CoverSet("U", 1, margin)
    with pytest.raises(TypeError):
        CoverSet("U", 1, margin, legs)
    with pytest.raises(TypeError, match="'U': pieces must be tuples of Pieces"):
        CoverSet("U", 1, margin, ((legs,),))
    # build_legs is derived from the pieces; a traced copy that replaces
    # it keeps them
    cs = involution_three_stage_planner(act).sets[0]
    assert CoverSet("U", 3, cs.margin, cs.pieces).build_legs is not None
    assert dataclasses.replace(cs, build_legs=cs.build_legs).pieces == cs.pieces


def test_adversarial_legs_match_the_legs_built_by_parts():
    # the legs, built in place, bit for bit against the former assembly
    # from a separate geodesic; S^2 grids are closed under sign flips, so
    # every x row holds its antipode, the rows without a unique arc; the
    # 5,776 pairs of grid 10 span a slerp block edge
    from efftc.planners import adversarial_sphere_cover
    from oracles import adversarial_cover_by_parts
    act = sphere_codim1(2)
    grid = act.space.grid(10)
    X = np.repeat(grid, len(grid), axis=0)
    Y = np.tile(grid, (len(grid), 1))
    antipodal = act.space.dist(X, Y) > np.pi - 1e-6
    assert antipodal.sum() == len(grid)
    for honest in (False, True):
        got, = adversarial_sphere_cover(act, honest).sets[0].build_legs(X, Y, 64)
        expected, = adversarial_cover_by_parts(act, honest).sets[0].build_legs(X, Y, 64)
        assert np.array_equal(got[antipodal], expected[antipodal])
        assert np.array_equal(got, expected)
