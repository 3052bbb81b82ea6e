import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efftc.errors import GeodesicDegeneracyError
from efftc.models import (
    Hemisphere,
    circle_antipodal_quotient,
    circle_flip_quotient,
    sphere_antipodal,
    sphere_codim1,
    sphere2_codim1_quotient,
    sphere_rotation,
    torus_halfturn,
    torus_halfturn_quotient,
    wedge_quotient,
    wedge_swap,
)
from efftc.pathspace import (
    ENDPOINT_TOL,
    Arc,
    Circle,
    FlatTorus,
    PointSpace,
    Sphere,
    WedgeCircles,
    check_arcs,
    leg_residuals,
    no_arc,
)
from efftc.planners import (
    DEFAULT_PARAMS,
    CoverSet,
    PlannerCover,
    _arc_piece,
    _const_legs,
    _fold,
    adversarial_sphere_cover,
    embed_cover,
)

from oracles import (
    former_fold,
    former_halfturn_preimage,
    former_halfturn_project,
    former_hemisphere_flip,
    former_hemisphere_project,
    former_sphere_involution,
    former_torus_half,
    former_wedge_shift,
    leg_pieces,
    residuals_of_legs,
    slerp_chain,
)


def length(space, points):
    """Length of the polyline through the samples of one leg."""
    return float(np.sum(space.dist(points[:-1], points[1:])))


def test_sphere_distance_basics():
    s = Sphere(2)
    e0 = np.array([1.0, 0, 0])
    e1 = np.array([0, 1.0, 0])
    assert abs(s.dist(e0, e1) - np.pi / 2) < 1e-12
    assert abs(s.dist(e0, -e0) - np.pi) < 1e-12


def test_geodesic_constant_when_equal():
    s = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    p = s.geodesic(x, x, 16)
    assert p.shape == (16, 3)
    assert np.allclose(p, x)


def test_geodesic_quarter_circle_length():
    s = Sphere(2)
    north = np.array([1.0, 0.0, 0.0])
    east = np.array([0.0, 1.0, 0.0])
    p = s.geodesic(north, east, 64)
    assert abs(length(s, p) - np.pi / 2) < 1e-6
    assert np.allclose(p[0], north)
    assert np.allclose(p[-1], east)


def test_geodesic_antipodal_rejected():
    s = Sphere(2)
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(GeodesicDegeneracyError):
        s.geodesic(x, -x, 8)


def test_torus_wraparound_geodesic():
    t = FlatTorus(2)
    p = t.geodesic(np.array([0.1, 0.1]), np.array([0.9, 0.1]), 64)
    # brute force over the four unwrapped representatives
    deltas = [np.array([0.8, 0.0]), np.array([-0.2, 0.0]),
              np.array([0.8, 1.0]), np.array([0.8, -1.0])]
    best = min(np.linalg.norm(d) for d in deltas)
    assert abs(length(t, p) - best) < 1e-9
    assert abs(best - 0.2) < 1e-12


def test_wedge_metric_and_geodesic():
    w = WedgeCircles(2)
    p = np.array([0.0, 1.0])
    q = np.array([1.0, 2 * np.pi - 1.0])
    # cross-branch distance goes through the basepoint: 1 + 1
    assert abs(w.dist(p, q) - 2.0) < 1e-12
    path = w.geodesic(p, q, 65)
    assert np.allclose(path[0], p)
    assert np.allclose(path[-1], w.canonical(q))
    assert np.max(w.dist(path[:-1], path[1:])) < 0.1


def test_concat_two_quarter_arcs_length():
    s = Sphere(2)
    n, e = np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])
    sth = -n
    c = np.concatenate([s.geodesic(n, e, 64), s.geodesic(e, sth, 64)])
    gap = np.max(s.dist(c[:-1], c[1:]))
    assert abs(length(s, c) - np.pi) < 2 * gap


def test_reverse_matches_swapped_geodesic():
    s = Sphere(2)
    rng = np.random.default_rng(0)
    x, y = s.random_points(rng, 2)
    fwd = s.geodesic(x, y, 33)
    back = s.geodesic(y, x, 33)
    assert np.allclose(fwd[::-1], back, atol=1e-12)


def test_validate_constant_orbit_jump():
    act = sphere_antipodal(2)
    x = np.array([[0.0, 0.0, 1.0]])
    legs = [_const_legs(x, 8), _const_legs(-x, 8)]
    joints, ends = residuals_of_legs(act, legs, x, -x)
    assert joints.tolist() == [[0.0]]
    assert ends.tolist() == [[0.0], [0.0]]


def test_validate_detects_orbit_mismatch():
    act = sphere_antipodal(2)
    x = np.array([0.0, 0.0, 1.0])
    z = np.array([0.0, 1.0, 0.0])
    joints, _ = leg_residuals(act, [x[None], z[None]], [x[None], z[None]],
                              x[None], z[None])
    # residual equals min over g of dist(g x, z), brute force over G
    expected = min(float(act.space.dist(act.act(g, x), z)) for g in (0, 1))
    assert joints.shape == (1, 1)
    assert joints[0, 0] > DEFAULT_PARAMS["delta"]
    assert abs(joints[0, 0] - expected) < 1e-12
    assert expected > 0


def test_leg_residuals_match_a_loop_over_rows():
    # every joint and endpoint residual, row by row through orbit_dist and
    # dist, on legs that jump by a group element, by noise, or not at all
    rng = np.random.default_rng(13)
    for act in (sphere_antipodal(2), sphere_codim1(2), sphere_rotation(2)):
        space, order = act.space, act.group.order
        for k in (1, 2, 4):
            X, Y = space.random_points(rng, 30), space.random_points(rng, 30)
            starts = [X.copy()] + [space.random_points(rng, 30) for _ in range(k - 1)]
            ends = [np.array(act.act(int(g), p)) for g, p in
                    zip(rng.integers(0, order, size=k), starts[1:] + [Y])]
            starts[0][:5] += 1e-3 * rng.normal(size=(5, 3))
            ends[0][5:10] += 1e-3 * rng.normal(size=(5, 3))
            joints, endpoints = leg_residuals(act, starts, ends, X, Y)
            assert joints.shape == (k - 1, 30) and endpoints.shape == (2, 30)
            assert (endpoints[0, :5] > 0).all() and (endpoints[0, 5:] == 0).all()
            for r in range(30):
                row = slice(r, r + 1)
                for i in range(k - 1):
                    assert joints[i, r] == act.orbit_dist(ends[i][row], starts[i + 1][row])[0]
                assert endpoints[0, r] == space.dist(starts[0][row], X[row])[0]
                assert endpoints[1, r] == space.dist(ends[-1][row], Y[row])[0]


def test_jump_planner_formula_on_generic_pair():
    # (c_x, s'(gx, tau(x)) * s'(tau(x), y)) with tau = g on a generic pair
    act = sphere_codim1(2)
    s = act.space
    x = np.array([0.6, 0.48, 0.64])
    x /= np.linalg.norm(x)
    y = np.array([-0.2, 0.9, 0.38])
    y /= np.linalg.norm(y)
    gx = act.act(1, x)
    leg2 = np.concatenate([s.geodesic(gx, gx, 4), s.geodesic(gx, y, 64)])
    legs = [_const_legs(x[None], 64), leg2[None]]
    joints, ends = residuals_of_legs(act, legs, x[None], y[None])
    assert (joints <= DEFAULT_PARAMS["delta"]).all() and (ends <= ENDPOINT_TOL).all()


def test_embed_stage_preserves_endpoints_and_validity():
    act = sphere_antipodal(2)
    x = np.array([[1.0, 0, 0]])
    y = np.array([[0.0, 1.0, 0]])

    def legs(X, Y, m):
        return [act.space.geodesic(X, Y, m)]

    cover = PlannerCover(action=act, sets=[CoverSet("U", 1, None, leg_pieces(legs))],
                         stage=1)
    base = legs(x, y, 16)
    emb = embed_cover(cover).sets[0].build_legs(x, y, 16)
    assert len(emb) == 2
    assert np.allclose(emb[-1][:, -1], base[-1][:, -1])
    joints, ends = residuals_of_legs(act, emb, x, y)
    assert joints.tolist() == [[0.0]]
    assert (ends <= ENDPOINT_TOL).all()
    emb2 = embed_cover(embed_cover(cover)).sets[0].build_legs(x, y, 16)
    assert len(emb2) == 3
    assert np.allclose(emb2[2], emb2[1][:, -1:])


def test_project_to_orbit_constant():
    # a valid broken path projects to one continuous quotient path: here a
    # jump to the antipode projects to a constant
    act = sphere_antipodal(1)
    model = circle_antipodal_quotient(act)
    x = np.array([[1.0, 0.0]])
    legs = [_const_legs(x, 8), _const_legs(-x, 8)]
    joints, _ = residuals_of_legs(act, legs, x, -x)
    assert (joints <= DEFAULT_PARAMS["delta"]).all()
    q = np.concatenate([model.project(leg[0]) for leg in legs])
    assert np.allclose(q, q[0])


def test_project_to_orbit_rejects_invalid():
    # a joint between different orbits: the residual flags it, and the
    # projected legs jump there by that residual
    act = sphere_antipodal(1)
    model = circle_antipodal_quotient(act)
    x = np.array([[1.0, 0.0]])
    z = np.array([[0.0, 1.0]])
    legs = [_const_legs(x, 8), _const_legs(z, 8)]
    joints, _ = residuals_of_legs(act, legs, x, z)
    assert joints[0, 0] > DEFAULT_PARAMS["delta"]
    jump = model.quotient_space.dist(model.project(x), model.project(z))
    assert np.allclose(jump, joints[0])


def test_lift_path_round_trip_circle():
    act = sphere_antipodal(1)
    model = circle_antipodal_quotient(act)
    quotient = model.quotient_space
    qpath = quotient.geodesic(np.array([[0.2]]), np.array([[2.8]]), 64)
    start = model.any_preimage(qpath[:, 0])
    lifted = model.lift_path(qpath, start)
    assert np.max(quotient.dist(model.project(lifted), qpath)) < 1e-9


def test_lift_path_torus():
    act = torus_halfturn()
    model = torus_halfturn_quotient(act)
    qpath = model.quotient_space.geodesic(np.array([[0.1, 0.2]]),
                                          np.array([[0.9, 0.8]]), 64)
    start = np.array([[0.55, 0.2]])
    assert float(model.quotient_space.dist(model.project(start), qpath[:, 0])[0]) < 1e-12
    lifted = model.lift_path(qpath, start)
    assert np.allclose(lifted[:, 0], start)
    assert np.max(model.quotient_space.dist(model.project(lifted), qpath)) < 1e-9


def test_strict_sections_check():
    assert circle_flip_quotient(sphere_codim1(1)).check_section() < 1e-9
    assert wedge_quotient(wedge_swap(2)).check_section() < 1e-9


def test_isometry_check_rejects_bad_map():
    s = Sphere(2)
    from efftc.pathspace import SpaceAction
    from efftc.symmetry import FiniteGroup
    squash = lambda p: p * np.array([1.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        SpaceAction(s, FiniteGroup.cyclic(2), [lambda p: p, squash])


def test_slerp_matches_closed_form():
    # the Chebyshev recurrence against (sin((1-t)a) P + sin(ta) Q) / sin(a)
    import efftc._kernels as K
    s = Sphere(2)
    rng = np.random.default_rng(4)
    P = s.random_points(rng, 40)
    Q = s.random_points(rng, 40)
    Q[0] = P[0]    # degenerate arc: the constant path

    def closed_form(P, Q, n):
        t = np.linspace(0.0, 1.0, n)[None, :, None]
        theta = np.arccos(np.clip((P * Q).sum(axis=1), -1.0, 1.0))[:, None, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (np.sin((1 - t) * theta) * P[:, None, :]
                   + np.sin(t * theta) * Q[:, None, :]) / np.sin(theta)
        return np.where(theta > 0, out, P[:, None, :])

    assert np.allclose(K.slerp_batch(P, Q, 17), closed_form(P, Q, 17), atol=1e-9)
    chain = slerp_chain([(P, Q), (Q, P)], 16)
    expected = np.concatenate([closed_form(P, Q, 8), closed_form(Q, P, 8)],
                              axis=1)
    assert np.allclose(chain, expected, atol=1e-9)


def test_rowspace_python_fallback():
    # reduce, reduce_batch, dim and the independent rows against dense
    # mod-2 elimination
    from efftc.f2 import F2Matrix, F2RowSpace
    from oracles import dense_rank_mod2, dense_reduce_mod2
    rng = np.random.default_rng(8)
    vecs = rng.integers(0, 2, size=(12, 40)).astype(np.uint8)
    probe = rng.integers(0, 2, size=40).astype(np.uint8)
    probes = np.vstack([probe, vecs,
                        rng.integers(0, 2, size=(8, 40)).astype(np.uint8)])

    M = F2Matrix.from_dense(vecs)
    space = F2RowSpace.from_matrix(M)
    assert space.dim == M.independent_rows().sum() == dense_rank_mod2(vecs)
    expected = np.array([dense_reduce_mod2(vecs, p) for p in probes])
    assert np.array_equal(space.reduce(probe), expected[0])
    assert np.array_equal(space.reduce_batch(probes), expected)
    assert np.array_equal(space.reduce_batch(probes),
                          np.array([space.reduce(p) for p in probes]))
    assert not space.reduce_batch(vecs).any()


def test_chunked_sup_scans_match_full_gather():
    # an edge count that is not a multiple of the scan chunk; the reference
    # is Space.supdiff (dist, then the max over samples) on every space
    from efftc.pathspace import EDGE_CHUNK
    rng = np.random.default_rng(11)
    edges = 3 * EDGE_CHUNK + 17
    for space in (Sphere(2), FlatTorus(2)):
        leg = np.stack([space.random_points(rng, 9) for _ in range(50)])
        ia = rng.integers(0, 50, size=edges)
        ib = rng.integers(0, 50, size=edges)
        assert np.array_equal(space.supdiff_pairs(leg, ia, ib),
                              space.supdiff(leg[ia], leg[ib]))


def test_sup_scans_on_constant_views_match_copies():
    # constant legs are read-only zero-stride views, which the sweep scans
    # where L is too small for their frames to clear an edge; the scan
    # must equal that of contiguous copies, bit for bit
    from efftc.planners import _const_legs
    rng = np.random.default_rng(12)
    for space in (Sphere(2), FlatTorus(2)):
        pts = space.random_points(rng, 60)
        moving = np.stack([space.random_points(rng, 9) for _ in range(60)])
        const = _const_legs(pts, 9)
        other = _const_legs(space.random_points(rng, 60), 9)
        ia = rng.integers(0, 60, size=600)
        ib = rng.integers(0, 60, size=600)
        for leg, second in ((const, None), (const, other), (const, moving),
                            (moving, const)):
            dense = np.ascontiguousarray(leg)
            dense_second = None if second is None else np.ascontiguousarray(second)
            expected = space.supdiff_pairs(dense, ia, ib, dense_second)
            assert np.array_equal(space.supdiff_pairs(leg, ia, ib, second),
                                  expected)
            full = space.supdiff(dense[ia], (dense if second is None
                                             else dense_second)[ib])
            assert np.array_equal(expected, full)


def _arcs_across_block_edges(rng, m, edges):
    """m random arcs on S^2; on each side of every block edge, one row each
    is degenerate (P = Q), exactly antipodal, and near-antipodal just
    above and just below the degeneracy cutoff sin(theta) = 1e-9."""
    s = Sphere(2)
    P, Q = s.random_points(rng, m), s.random_points(rng, m)
    kinds = ("same", "anti", 1e-7, 1e-10)
    for edge in edges:
        for offset in range(-4, 4):
            r, kind = edge + offset, kinds[offset % 4]
            if not 0 <= r < m:
                continue
            if kind == "same":
                Q[r] = P[r]
            elif kind == "anti":
                Q[r] = -P[r]
            else:
                tilt = np.cross(P[r], [0.0, 0.0, 1.0])
                Q[r] = -P[r] + kind * tilt / np.linalg.norm(tilt)
                Q[r] /= np.linalg.norm(Q[r])
    return P, Q


def test_blocked_slerp_is_bit_identical_to_whole_recurrence(monkeypatch):
    import efftc._kernels as K
    from oracles import whole_slerp_into
    rng = np.random.default_rng(21)
    block = K.BLOCK_ROWS
    cases = [(2 * block + 37, 64, block),   # not a multiple of the block
             (100, 64, block),              # fewer rows than one block
             (61, 17, 8), (64, 5, 8), (3, 2, 8), (0, 9, 8)]
    for m, n, rows in cases:
        monkeypatch.setattr(K, "BLOCK_ROWS", rows)
        P, Q = _arcs_across_block_edges(rng, m, range(rows, m, rows))
        got = K.slerp_batch(P, Q, n)
        expected = whole_slerp_into(P, Q, np.empty((m, n, 3)))
        assert np.array_equal(got, expected), (m, n, rows)
        assert np.isfinite(got).all()


def test_blocked_slerp_into_strided_chain_pieces(monkeypatch):
    import efftc._kernels as K
    from oracles import whole_slerp_into
    monkeypatch.setattr(K, "BLOCK_ROWS", 8)
    rng = np.random.default_rng(22)
    P, Q = _arcs_across_block_edges(rng, 45, (8, 16, 40))
    W = Sphere(2).random_points(rng, 45)
    chain = slerp_chain([(P, Q), (Q, W), (W, P)], 20)
    expected = np.empty((45, 21, 3))
    for k, (a, b) in enumerate(((P, Q), (Q, W), (W, P))):
        whole_slerp_into(a, b, expected[:, 7 * k:7 * (k + 1)])
    assert np.array_equal(chain, expected)


def test_neighbor_pairs_match_set_loop():
    # the same edges, orientation and order as the Python-set loop: ring
    # wrap edges keep (last, first), continuity failures name them so
    from oracles import neighbor_pairs_by_sets
    for n in (1, 2):
        sphere = Sphere(n)
        for grid in range(1, 81):
            got = sphere.grid_neighbor_pairs(grid)
            expected = neighbor_pairs_by_sets(sphere, grid)
            assert got.dtype == expected.dtype and got.flags.c_contiguous
            assert np.array_equal(got, expected), (n, grid)


# one space of every kind and shape the package builds, the hemisphere too
EVERY_SPACE = [PointSpace(), Sphere(1), Sphere(2), FlatTorus(1), FlatTorus(2),
               FlatTorus(3), Circle(2 * np.pi), Circle(1.5), Arc(1.0), Arc(np.pi),
               WedgeCircles(1), WedgeCircles(2), WedgeCircles(3), Hemisphere()]


def _name(space):
    return space.name


@pytest.mark.parametrize("space", EVERY_SPACE, ids=_name)
def test_neighbor_indices_lie_in_the_grid_without_self_loops(space):
    # resolution 1 included: a wedge branch then holds no grid point
    for grid in range(1, 13):
        n = len(space.grid(grid))
        nbr = space.grid_neighbor_pairs(grid)
        assert nbr.dtype == np.intp and nbr.ndim == 2 and nbr.shape[1] == 2
        assert ((0 <= nbr) & (nbr < n)).all(), grid
        assert (nbr[:, 0] != nbr[:, 1]).all(), grid


# the sphere rules are checked against their set loop above
@pytest.mark.parametrize("space", [s for s in EVERY_SPACE if not isinstance(s, Sphere)],
                         ids=_name)
def test_neighbor_rules_and_grids_match_the_former_loops(space):
    from oracles import neighbor_pairs_by_loops, wedge_grid_by_points
    for grid in range(2, 41):
        got = space.grid_neighbor_pairs(grid)
        if isinstance(space, (PointSpace, Hemisphere)):
            expected = np.zeros((0, 2), dtype=np.intp)
        else:
            expected = neighbor_pairs_by_loops(space, grid)
        assert got.dtype == expected.dtype and got.flags.c_contiguous, grid
        assert got.shape == expected.shape and np.array_equal(got, expected), grid
        if isinstance(space, WedgeCircles):
            pts, expected = space.grid(grid), wedge_grid_by_points(space, grid)
            assert pts.dtype == expected.dtype and np.array_equal(pts, expected), grid


@pytest.mark.parametrize("space", [s for s in EVERY_SPACE if not isinstance(s, Hemisphere)],
                         ids=_name)
def test_geodesic_shapes_points_one_way_for_every_space(space):
    # two points give (n, d); anything else is broadcast to (M, n, d), and
    # every row is the geodesic of its own two points, bit for bit
    rng = np.random.default_rng(7)
    P, Q = space.random_points(rng, 6), space.random_points(rng, 6)
    n, d = 9, space.point_dim
    one = space.geodesic(P[0], Q[0], n)
    assert one.shape == (n, d) and one.dtype == np.float64
    rows, fan_q, fan_p = (space.geodesic(P, Q, n), space.geodesic(P[0], Q, n),
                          space.geodesic(P, Q[0], n))
    assert rows.shape == fan_q.shape == fan_p.shape == (6, n, d)
    assert np.array_equal(rows[0], one)
    for i in range(6):
        assert np.array_equal(rows[i], space.geodesic(P[i], Q[i], n))
        assert np.array_equal(fan_q[i], space.geodesic(P[0], Q[i], n))
        assert np.array_equal(fan_p[i], space.geodesic(P[i], Q[0], n))


def test_hemisphere_has_no_geodesics():
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NotImplementedError):
        Hemisphere().geodesic(p, p, 4)


# angles that tie: the basepoint, the antipode of the basepoint, both ends
# of [0, 2 pi), angles out of range, and grid angles
_WEDGE_ANGLES = st.one_of(
    st.sampled_from([0.0, np.pi, 2 * np.pi, -np.pi, 3 * np.pi, np.pi / 2,
                     3 * np.pi / 2, 2 * np.pi / 3, 4 * np.pi / 3, -2 * np.pi]),
    st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False))
_WEDGE_ROWS = st.lists(st.tuples(st.integers(0, 2), _WEDGE_ANGLES, st.integers(0, 2),
                                 _WEDGE_ANGLES, st.sampled_from(["free", "antipode", "mirror", "equal"])),
                       min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(rows=_WEDGE_ROWS, n=st.integers(1, 40))
def test_wedge_geodesics_match_the_row_loop(rows, n):
    from oracles import wedge_geodesics_by_rows
    space = WedgeCircles(3)
    P = np.array([(b, a) for b, a, _, _, _ in rows], dtype=float)
    Q = np.array([(c, z) for _, _, c, z, _ in rows], dtype=float)
    for i, (_, _, _, _, how) in enumerate(rows):
        if how == "antipode":       # the same branch, half a turn on
            Q[i] = P[i, 0], P[i, 1] + np.pi
        elif how == "mirror":       # the next branch, as far from the basepoint
            Q[i] = (P[i, 0] + 1) % 3, 2 * np.pi - P[i, 1]
        elif how == "equal":
            Q[i] = P[i]
    got = space.geodesic(P, Q, n)
    expected = wedge_geodesics_by_rows(space, P, Q, n)
    assert got.shape == expected.shape and np.array_equal(got, expected)
    assert np.array_equal(space.geodesic(P[0], Q[0], n), expected[0])
    assert np.array_equal(space.geodesic(P[0], Q, n),
                          wedge_geodesics_by_rows(space, P[0], Q, n))


def _magnitudes(rng, shape):
    """Values of either sign across magnitudes 1e-8 to 1e8, zeros of
    either sign among them."""
    sign = rng.choice([-1.0, 1.0], size=shape)
    return sign * np.where(rng.random(shape) < 0.1, 0.0, 10.0 ** rng.uniform(-8, 8, size=shape))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 7), layout=st.sampled_from(["rows", "legs", "against-one", "point"]),
       relation=st.sampled_from(["random", "identical", "antipodal"]),
       m=st.integers(1, 40), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_coordinate_sums_equal_the_reduction(d, layout, relation, m, n, seed):
    # coord_dot adds the columns in order: bit-identical to one add.reduce
    # per row below 8 coordinates, on rows (M, d), legs (M, n, d), rows
    # against one row (1, d), and single points, with identical and
    # antipodal pairs among them
    from efftc._kernels import coord_dot
    from oracles import reduce_coord_dot

    rng = np.random.default_rng(seed)
    shape = {"rows": (m, d), "legs": (m, n, d), "against-one": (m, d), "point": (d,)}[layout]
    P = _magnitudes(rng, shape)
    Q = {"random": _magnitudes(rng, (1, d) if layout == "against-one" else shape),
         "identical": P.copy(), "antipodal": -P}[relation]
    if layout == "against-one" and relation != "random":
        Q = Q[:1]
    D = P - Q
    for a, b in ((D, D), (P, Q), (Q, P)):
        got, want = coord_dot(a, b), reduce_coord_dot(a, b)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if layout == "rows":
        assert coord_dot(P, Q).tobytes() == (P * Q).sum(axis=1).tobytes()


def test_coordinate_sums_fall_back_to_the_reduction_from_8_coordinates():
    # numpy adds 8 or more terms pairwise: there the column order differs
    # (5 against 4 here) and coord_dot is the reduction itself
    from efftc._kernels import PAIRWISE_TERMS, coord_dot
    from oracles import reduce_coord_dot

    assert PAIRWISE_TERMS == 8
    a = np.array([[1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0]])
    ones = np.ones_like(a)
    in_order = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        in_order += a[:, c]
    assert in_order[0] == 5.0 and reduce_coord_dot(a, ones)[0] == 4.0
    assert coord_dot(a, ones).tobytes() == reduce_coord_dot(a, ones).tobytes()
    rng = np.random.default_rng(8)
    for d in (8, 9, 16):
        A, B = rng.normal(size=(50, 3, d)), rng.normal(size=(1, d))
        assert coord_dot(A, B).tobytes() == reduce_coord_dot(A, B).tobytes()


def test_sphere_dist_keeps_its_shapes_and_values():
    # single 1-D points give a numpy scalar, rows against a point broadcast,
    # and every value is that of the chord summed by one reduction
    from oracles import reduce_sphere_dist

    s = Sphere(2)
    p, q = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
    got = s.dist(p, q)
    assert isinstance(got, np.float64) and got == reduce_sphere_dist(p, q)
    assert got == pytest.approx(np.pi / 2)
    assert s.dist(p, p) == 0.0 and s.dist(p, -p) == np.pi
    rows = s.random_points(np.random.default_rng(3), 100)
    for a, b in ((rows, p), (p, rows), (rows, rows[::-1]), (rows[:, None], rows[None])):
        got = s.dist(a, b)
        assert got.tobytes() == reduce_sphere_dist(a, b).tobytes()
    assert s.dist(rows[:, None], rows[None]).shape == (100, 100)


def test_orbit_dist_is_the_minimum_over_the_group_nans_included():
    # a running minimum over the group, bit for bit the minimum of the
    # stacked distances, a NaN of any element included
    from efftc.pathspace import SpaceAction
    from efftc.symmetry import FiniteGroup
    from oracles import stacked_orbit_dist

    s = Sphere(2)
    maps = [lambda p: p, lambda p: -p,
            lambda p: p * [1.0, -1.0, 1.0],
            lambda p: np.where(p[..., :1] > 0.5, np.nan, p * [-1.0, 1.0, -1.0])]
    action = SpaceAction(s, FiniteGroup.cyclic(4), maps, check=False)
    rng = np.random.default_rng(4)
    P, Q = s.random_points(rng, 300), s.random_points(rng, 300)
    P[::37] = np.nan
    for p, q in ((P, Q), (P[0], Q), (P[5], Q[5]), (P[:, None], Q[None, :50])):
        got, want = action.orbit_dist(p, q), stacked_orbit_dist(action, p, q)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.isnan(action.orbit_dist(P, Q)).sum() > 300 // 37


def _first_coordinate_maps():
    """(id, the map as the catalog writes it with on_first, its former
    body, point dimension, coordinate values special to it)."""
    torus_model = torus_halfturn_quotient(torus_halfturn())
    maps = [("torus-half", torus_halfturn().point_maps[1], former_torus_half, 2, ()),
            ("hemisphere-flip", Hemisphere()._flip, former_hemisphere_flip, 3, ()),
            ("hemisphere-project", sphere2_codim1_quotient(sphere_codim1(2)).project,
             former_hemisphere_project, 3, ()),
            ("torus-project", torus_model.project, former_halfturn_project, 2, ()),
            ("torus-preimage", torus_model.any_preimage, former_halfturn_preimage, 2, ())]
    for branches in (2, 3):
        action = wedge_swap(branches)
        maps += [(f"wedge{branches}-shift{k}", action.point_maps[k],
                  former_wedge_shift(action.space, k), 2, (branches - 1, 2 * np.pi))
                 for k in range(branches)]
    return maps


def _coordinate_rows(d, extra):
    """Every row of d coordinates from the values the maps treat apart:
    signed zeros, NaN, the torus's 0.5 and 1.0, and `extra`."""
    values = [0.0, -0.0, np.nan, 0.5, 1.0, -0.5, 0.75, 1.5, np.pi, *extra]
    return np.array(list(itertools.product(values, repeat=d)))


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, new, old, d, extra", _first_coordinate_maps(),
                         ids=[m[0] for m in _first_coordinate_maps()])
def test_first_coordinate_maps_match_their_former_bodies(name, new, old, d, extra):
    # on (M, d) rows, (M, n, d) legs, single points and lists of points
    rows = _coordinate_rows(d, extra)
    legs = rows[:(len(rows) // 4) * 4].reshape(-1, 4, d)
    inputs = [rows, legs, *rows[:40], rows[:5].tolist(), rows[7].tolist()]
    for points in inputs:
        assert _same_bytes(new(points), old(points)), (name, points)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_involutions_keep_their_matrices(n):
    # a matrix product is not bit-equal to on_first(np.negative), so these
    # stay products, of the same matrices, off-diagonal signed zeros included
    rows = _coordinate_rows(n + 1, (-1.0,))
    for make, first in ((sphere_codim1, -1.0), (sphere_rotation, 1.0)):
        new, old = make(n).point_maps[1], former_sphere_involution(n, first)
        assert _same_bytes(new(rows), old(rows))
        assert _same_bytes(new(rows[:4].reshape(2, 2, n + 1)),
                           old(rows[:4].reshape(2, 2, n + 1)))


def test_the_fold_matches_its_former_body():
    # the fold was only ever given (M, d) rows of a sphere model
    for d in (2, 3, 4):
        rows = _coordinate_rows(d, ())
        assert _same_bytes(_fold(rows), former_fold(rows))
        assert _same_bytes(_fold(rows[:1]), former_fold(rows[:1]))


def _pairs_about_the_arc_limit():
    """Pairs of S^2 points at angles about pi - 1e-6, on either side of it,
    and two ordinary pairs."""
    angles = np.pi - 1e-6 + np.array([-1e-7, -5e-8, 5e-8, 1e-7, 5e-7, -3.0, -1.0])
    X = np.tile([1.0, 0.0, 0.0], (angles.size, 1))
    Y = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=1)
    return X, Y


def test_one_rule_says_which_arcs_exist():
    # the sphere's geodesics, the arc pieces and the adversarial tie-break
    # all ask no_arc, on the space's own metric
    space = Sphere(2)
    X, Y = _pairs_about_the_arc_limit()
    bad = no_arc(space, X, Y)
    assert bad.tolist() == [False, False, True, True, True, False, False]
    arc = _arc_piece(space, "xy", lambda X, Y: X, lambda X, Y: Y)
    for rows in (slice(0, 2), slice(5, 7)):
        check_arcs(space, X[rows], Y[rows])
        space.geodesic(X[rows], Y[rows], 8)
        arc.endpoints(X[rows], Y[rows])
    for row in (2, 3, 4):
        for call in (lambda: check_arcs(space, X[row:row + 1], Y[row:row + 1]),
                     lambda: space.geodesic(X[row:row + 1], Y[row:row + 1], 8),
                     lambda: arc.endpoints(X[row:row + 1], Y[row:row + 1])):
            with pytest.raises(GeodesicDegeneracyError,
                               match="antipodal endpoints have no unique arc"):
                call()
    (piece,), = adversarial_sphere_cover(sphere_codim1(2)).sets[0].pieces
    _, Q = piece.endpoints(X, Y)
    assert ((Q != Y).any(axis=1) == bad).all()


def test_hemisphere_arcs_are_guarded_by_the_orbit_metric():
    # a pair antipodal on S^2 whose orbits are not: no_arc reads the
    # hemisphere's dist, so its arc piece accepts the pair
    hemi = Hemisphere()
    P, Q = np.array([[0.6, 0.8, 0.0]]), np.array([[-0.6, -0.8, 0.0]])
    assert no_arc(Sphere(2), P, Q).all() and not no_arc(hemi, P, Q).any()
    _arc_piece(hemi, "xy", lambda X, Y: X, lambda X, Y: Y).endpoints(P, Q)
    equator = np.array([[0.0, 1.0, 0.0]]), np.array([[0.0, -1.0, 0.0]])
    with pytest.raises(GeodesicDegeneracyError):
        check_arcs(hemi, *equator)

