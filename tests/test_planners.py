import numpy as np
import pytest

from efftc.models import (
    circle_antipodal_quotient,
    circle_flip_quotient,
    sphere2_codim1_quotient,
    sphere_antipodal,
    sphere_codim1,
    sphere_rotation,
    torus_halfturn,
    torus_halfturn_quotient,
    torus_trivial,
    wedge_quotient,
    wedge_swap,
)
from efftc.pathspace import (
    Arc,
    Circle,
    FlatTorus,
    trivial_space_action,
    validate_broken_path,
)
from efftc.planners import (
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
    wedge_planner,
)


def plan_and_validate(cover, x, y, epsilon=0.05):
    name, bp = cover.plan(x, y, epsilon)
    report = validate_broken_path(bp, request=(x, y))
    assert report.valid, (name, report)
    return name, bp


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
    name, bp = cover.plan(x, x)
    assert name == "U1"
    assert np.allclose(bp.legs[0].points, x)


def test_involution2_covers_antipodal_over_equator():
    cover = involution_two_stage_cover(sphere_codim1(2))
    x = np.array([0.0, 1.0, 0.0])
    name, bp = plan_and_validate(cover, x, -x)
    assert name == "U2"
    # first leg rides the half-turn rotation, one jump lands on -x
    assert np.allclose(bp.legs[1].points[0], -x, atol=1e-12)


def test_involution2_free_case_formula():
    cover = involution_two_stage_cover(sphere_antipodal(2))
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.96, 0.28, 0.0])
    # y close to x: handled by U2 = {y != x}? no: d(y,-x) large so U1 wins
    name, _ = cover.plan(x, y)
    assert name == "U1"
    name, bp = plan_and_validate(cover, x, -x)
    assert name == "U2"
    assert np.allclose(bp.legs[0].points, x)  # constant first leg


def test_involution2_rejects_wrong_action():
    with pytest.raises(ValueError):
        involution_two_stage_cover(sphere_rotation(2))


def test_involution3_single_set_and_examples():
    cover = involution_three_stage_planner(sphere_codim1(2))
    assert cover.claimed_bound == 0
    n = np.array([1.0, 0.0, 0.0])
    name, bp = cover.plan(n, n)
    assert all(np.allclose(leg.points, n) for leg in bp.legs)
    # lower-hemisphere start: the first joint jumps orbits
    x = np.array([-0.8, 0.6, 0.0])
    name, bp = plan_and_validate(cover, x, n)
    assert not np.allclose(bp.legs[1].points[0], x)
    assert np.allclose(bp.legs[1].points[0], cover.action.act(1, x), atol=1e-12)


def test_involution3_requires_codim1():
    with pytest.raises(ValueError):
        involution_three_stage_planner(sphere_antipodal(2))


def test_circle_cover_two_sets():
    cover = circle_cover(trivial_space_action(Circle(np.pi)))
    assert len(cover.sets) == 2
    x = np.array([0.1])
    y = np.array([2.0])
    name, bp = cover.plan(x, y)
    rep = validate_broken_path(bp, request=(x, y))
    assert rep.valid


def test_strict_section_flip_circle():
    model = circle_flip_quotient(sphere_codim1(1))
    qcover = arc_cover(trivial_space_action(Arc(np.pi)))
    cover = cover_from_strict_section(model, qcover)
    assert cover.stage == 3
    assert cover.claimed_bound == 0
    x = np.array([np.cos(0.3), np.sin(0.3)])
    y = np.array([np.cos(-2.0), np.sin(-2.0)])
    _, bp = plan_and_validate(cover, x, y)
    assert bp.stage == 3
    # middle leg lives in the upper semicircle (the section image)
    assert np.all(bp.legs[1].points[:, 0] >= -1e-12) or np.all(bp.legs[1].points[:, 1] >= -1e-12)


def test_strict_section_requires_section():
    model = circle_antipodal_quotient(sphere_antipodal(1))
    qcover = circle_cover(trivial_space_action(Circle(np.pi)))
    with pytest.raises(ValueError):
        cover_from_strict_section(model, qcover)


def test_strict_section_trivial_group_embeds_cover():
    # trivial group, identity section: output is the input cover at stage 3
    act = trivial_space_action(Circle(2 * np.pi))
    from efftc.pathspace import QuotientModel
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
    _, bp = plan_and_validate(cover, x, y)
    assert np.allclose(bp.legs[0].points[0], x)


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
    _, bp = plan_and_validate(cover, x, y)


def test_wedge_planner_bounds():
    for branches in (2, 3):
        model = wedge_quotient(wedge_swap(branches))
        base = circle_cover(trivial_space_action(Circle(2 * np.pi)))
        cover = wedge_planner(model, base)
        assert cover.claimed_bound == 1
        assert cover.stage == 3
        x = np.array([0.0, 1.2])
        y = np.array([branches - 1.0, 5.0])
        _, bp = plan_and_validate(cover, x, y)


def test_embed_cover_preserves_membership_and_bound():
    cover = involution_two_stage_cover(sphere_codim1(2))
    emb = embed_cover(cover)
    assert emb.stage == 3
    assert emb.claimed_bound == cover.claimed_bound
    x = np.array([0.0, 1.0, 0.0])
    _, bp = plan_and_validate(emb, x, -x)
    assert bp.stage == 3
    assert np.allclose(bp.legs[2].points, bp.legs[1].points[-1])


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
        name, bp = cover.plan(base, y)
        rep = validate_broken_path(bp, request=(base, y))
        assert rep.valid


def test_cat_covering_lift_antipodal_sphere():
    act = sphere_antipodal(2)
    base = np.array([1.0, 0.0, 0.0])
    cover = cat_cover_covering_lift(act, base, [base, -base], np.pi / 2 + 0.3)
    assert cover.claimed_bound == 1
    y = -base
    name, bp = cover.plan(base, y)
    rep = validate_broken_path(bp, request=(base, y))
    assert rep.valid
    # the lifted leg starts at the basepoint
    assert np.allclose(bp.legs[0].points[0], base)


def test_cat_covering_lift_needs_orbit_centers():
    act = sphere_antipodal(2)
    base = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        cat_cover_covering_lift(act, base, [np.array([0.0, 1.0, 0.0])], 2.0)


def test_cat_strict_section_flip():
    act = sphere_codim1(1)
    model = circle_flip_quotient(act)
    base = np.array([0.0, 1.0])
    qcat = arc_cover(trivial_space_action(Arc(np.pi)))
    qcat.kind = "cat"
    cover = cat_cover_from_strict_section(model, qcat, base)
    assert cover.claimed_bound == 0
    y = np.array([0.6, -0.8])
    name, bp = cover.plan(base, y)
    rep = validate_broken_path(bp, request=(base, y))
    assert rep.valid


def test_hemisphere_cat_cover_bound_zero():
    from efftc.models import Hemisphere
    cover = hemisphere_cat_cover(trivial_space_action(Hemisphere()))
    assert cover.claimed_bound == 0


def test_covering_lift_output_projects_to_quotient_section():
    # construction round trip: the lifted stage-2 section projects back to
    # the quotient-cover section path
    from efftc.pathspace import project_to_orbit
    model = circle_antipodal_quotient(sphere_antipodal(1))
    qcover = circle_cover(trivial_space_action(Circle(np.pi)))
    cover = cover_from_covering_lift(model, qcover)
    x = np.array([np.cos(0.4), np.sin(0.4)])
    y = np.array([np.cos(2.9), np.sin(2.9)])
    name, bp = cover.plan(x, y, epsilon=0.05, n=64)
    projected = project_to_orbit(bp, model)
    qx, qy = model.project(x), model.project(y)
    qset = next(s for s in qcover.sets if s.name == name)
    expected = qset.build_legs(qx[None, :], qy[None, :], 64)[0][0]
    lead = projected.points[:64]
    assert np.max(model.quotient_space.dist(lead, expected)) < 1e-6
    # the tail is the constant leg at [y]
    assert np.max(model.quotient_space.dist(projected.points[64:],
                                            expected[-1])) < 1e-6


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
    # the tail an embedding appends is a view of the last leg's endpoints
    base = farber_sphere_cover(sphere_codim1(2))
    legs = embed_cover(base).sets[0].build_legs(X, Y, 64)
    assert len(legs) == 2 and legs[1].strides[1] == 0
    assert np.shares_memory(legs[1], legs[0]) and not legs[1].flags.writeable
    assert np.array_equal(legs[1], np.repeat(legs[0][:, -1:, :], 64, axis=1))


def test_section_one_and_plan_return_valid_paths():
    cover = involution_three_stage_planner(sphere_codim1(2))
    rng = np.random.default_rng(6)
    x, y = cover.action.space.random_points(rng, 2)
    bp = cover.sets[0].section_one(cover.action, x, y)
    assert [leg.points.shape for leg in bp.legs] == [(64, 3)] * 3
    assert all(leg.points.flags.writeable for leg in bp.legs)
    assert np.array_equal(bp.legs[0].points, np.repeat(x[None, :], 64, axis=0))
    assert validate_broken_path(bp, request=(x, y)).valid
    name, bp = plan_and_validate(embed_cover(cover), x, y)
    assert name == "U" and bp.stage == 4
    assert np.array_equal(bp.legs[-1].points, np.repeat(y[None, :], 64, axis=0))
    assert bp.legs[-1].max_gap() == 0.0


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
