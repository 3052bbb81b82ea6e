"""Leg pieces against the legs they replace.

Every cover set describes its legs as pieces of x, of y, of both or of
neither.  `build_legs` must still return the former legs bit for bit: of
the farber, involution2 and involution3 sphere covers, the hemisphere
covers and the geodesic cat cover (tests/oracles.py::whole_sphere_legs and
whole_chain_legs), whose arcs slerp_chain joined, also when the samples do
not split evenly over the pieces; and of the point, circle, arc and
torus-cut covers and the covers transferred from a quotient cover
(former_whole_legs); and of the adversarial claim, an arc piece with a
sampler of its own, embedded too (former_adversarial_legs).  A piece built
once per distinct input must equal the same piece built on every pair.
"""
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from efftc import models
from efftc.errors import GeodesicDegeneracyError
from efftc.pathspace import Arc, Circle, FlatTorus, trivial_space_action
from efftc.planners import (
    adversarial_sphere_cover,
    arc_cover,
    embed_cover,
    circle_cover,
    farber_sphere_cover,
    hemisphere_cat_cover,
    hemisphere_cover,
    piece_samples,
    torus_cut_cover,
)
from efftc.scenarios import BUILTINS, DEFAULT_PARAMS, build_bundle, build_planner

from oracles import (
    former_adversarial_legs,
    former_quotient_legs,
    former_whole_legs,
    whole_chain_legs,
    whole_sphere_legs,
)

FACTORED = ("farber", "involution2", "involution3")
SAMPLES = (64, 65, 2, 3, 7, 17)


def factored_covers():
    """(label, planner, cover) for every catalog step of a factored planner,
    and the farber cover of S^3 (an odd sphere with three moving pairs)."""
    for scenario in BUILTINS.values():
        bundle = build_bundle(scenario)
        for step in scenario.pipeline:
            if step.get("planner") in FACTORED:
                cover = build_planner(step["planner"], bundle)
                yield f"{scenario.id}/{step['planner']}", step["planner"], cover
    yield "s3-antipodal/farber", "farber", farber_sphere_cover(models.sphere_antipodal(3))


def accepted_pairs(cover, cs, resolution=12):
    """The grid pairs set cs accepts (a random sample of points on S^3)."""
    space = cover.action.space
    if space.n <= 2:
        pts = space.grid(resolution)
    else:
        pts = space.random_points(np.random.default_rng(3), 40)
    X = np.repeat(pts, len(pts), axis=0)
    Y = np.tile(pts, (len(pts), 1))
    rows = np.flatnonzero(cs.margin(X, Y) >= DEFAULT_PARAMS["epsilon"])
    return X[rows], Y[rows]


def test_pieces_reproduce_the_former_legs():
    seen = set()
    for label, planner, cover in factored_covers():
        former = whole_sphere_legs(planner, cover.action)
        for cs in cover.sets:
            X, Y = accepted_pairs(cover, cs)
            assert len(X) > 100, (label, cs.name)
            for m in SAMPLES:
                got = cs.build_legs(X, Y, m)
                expected = former[cs.name](X, Y, m)
                assert len(got) == len(expected), (label, cs.name, m)
                for leg, old in zip(got, expected):
                    assert leg.shape == old.shape, (label, cs.name, m)
                    assert np.array_equal(leg, old), (label, cs.name, m)
                    # a constant leg stays a zero-stride view
                    assert (leg.strides[1] == 0) == (old.strides[1] == 0)
            seen.add((label, cs.name, cs.pieces is not None))
    factored = {(label, name) for label, name, has in seen if has}
    assert {("s2-involution/farber", "U1"),
            ("s2-involution/farber", "U2"), ("s2-involution/farber", "U3"),
            ("s2-involution/involution2", "U1"), ("s2-involution/involution2", "U2"),
            ("s2-involution/involution3", "U"), ("s2-antipodal/involution2", "U2"),
            ("s1-flip/involution2", "U2")} <= factored


def chained_covers():
    """(label, cover, x rows) of the covers whose arcs slerp_chain used to
    join: the hemisphere covers of the quotient of s2-involution (every
    grid point), and the geodesic cat covers of the catalog (the
    basepoint)."""
    hemisphere = trivial_space_action(models.Hemisphere())
    points = hemisphere.space.grid(12)
    yield "hemisphere", hemisphere_cover(hemisphere), points
    yield "hemisphere-cat", hemisphere_cat_cover(hemisphere), points
    for scenario in BUILTINS.values():
        if any(step.get("planner") == "cat-geodesic" for step in scenario.pipeline):
            cover = build_planner("cat-geodesic", build_bundle(scenario))
            yield f"{scenario.id}/cat-geodesic", cover, cover.basepoint[None, :]


def test_chained_arcs_as_pieces_reproduce_slerp_chain():
    labels = []
    for label, cover, xs in chained_covers():
        former = whole_chain_legs(cover)
        ys = cover.action.space.grid(32 if cover.kind == "cat" else 12)
        X = np.repeat(xs, len(ys), axis=0)
        Y = np.tile(ys, (len(xs), 1))
        for cs in cover.sets:
            assert cs.pieces is not None, (label, cs.name)
            rows = np.flatnonzero(cs.margin(X, Y) >= DEFAULT_PARAMS["epsilon"])
            assert len(rows) > 100, (label, cs.name)
            for m in SAMPLES:
                got = cs.build_legs(X[rows], Y[rows], m)
                expected = former[cs.name](X[rows], Y[rows], m)
                assert len(got) == len(expected) == 1, (label, cs.name, m)
                assert got[0].shape == expected[0].shape, (label, cs.name, m)
                assert np.array_equal(got[0], expected[0]), (label, cs.name, m)
        labels.append(label)
    assert labels == ["hemisphere", "hemisphere-cat", "s2-antipodal/cat-geodesic",
                      "s2-rotation/cat-geodesic"]


def test_uneven_splits_take_slerp_chains_sample_count():
    assert [piece_samples(65, k) for k in (1, 2, 3, 4)] == [65, 33, 22, 17]
    assert [piece_samples(m, 4) for m in (2, 3, 7, 8)] == [2, 2, 2, 2]
    cover = build_planner("farber", build_bundle(BUILTINS["s2-involution"]))
    u2, u3 = cover.sets[1], cover.sets[2]
    X, Y = accepted_pairs(cover, u3)
    assert u3.build_legs(X, Y, 65)[0].shape == (len(X), 4 * 17, 3)
    X, Y = accepted_pairs(cover, u2)
    assert u2.build_legs(X, Y, 65)[0].shape == (len(X), 3 * 22, 3)


def test_pieces_raise_where_the_former_legs_raise():
    # involution2's U2 on the codim1 S^2: the arc from -x to y has no unique
    # shortest path at y = x; the rotation piece of x builds first, and the
    # geodesic of both raises as the whole leg did
    cover = build_planner("involution2", build_bundle(BUILTINS["s2-involution"]))
    former = whole_sphere_legs("involution2", cover.action)
    X = cover.action.space.grid(8)
    for build in (cover.sets[1].build_legs, former["U2"]):
        with pytest.raises(GeodesicDegeneracyError):
            build(X, X, 64)


@functools.lru_cache(maxsize=None)
def factored_sets_on_grids():
    """(cover, set) for every set with pieces of a catalog cover of S^1 or S^2."""
    return [(cover, cs) for _, _, cover in factored_covers()
            if cover.action.space.n <= 2 for cs in cover.sets if cs.pieces is not None]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(which=st.integers(0, 100), resolution=st.integers(4, 12),
       density=st.floats(0.02, 1.0), seed=st.integers(0, 2**16),
       m=st.integers(2, 70))
def test_a_piece_built_on_distinct_rows_equals_it_built_per_pair(
        which, resolution, density, seed, m):
    # a random subset of the grid pairs a set accepts: every piece of x or
    # of y, built once per distinct row and gathered, equals the piece built
    # on each pair's own row
    covers = factored_sets_on_grids()
    cover, cs = covers[which % len(covers)]
    pts = cover.action.space.grid(resolution)
    rng = np.random.default_rng(seed)
    X = np.repeat(pts, len(pts), axis=0)
    Y = np.tile(pts, (len(pts), 1))
    keep = ((cs.margin(X, Y) >= DEFAULT_PARAMS["epsilon"])
            & (rng.random(len(X)) < density))
    xi, yi = np.divmod(np.flatnonzero(keep), len(pts))
    ux, x_of = np.unique(xi, return_inverse=True)
    uy, y_of = np.unique(yi, return_inverse=True)
    rows = {"x": x_of, "y": y_of, "": np.zeros(xi.size, dtype=np.intp)}
    for leg in cs.pieces:
        n = piece_samples(m, len(leg))
        for piece in leg:
            if piece.inputs != "xy":
                gathered = piece.on(pts[ux], pts[uy], n)[rows[piece.inputs]]
                per_pair = piece.on(pts[xi], pts[yi], n)
                assert np.array_equal(np.broadcast_to(per_pair, gathered.shape),
                                      gathered)


# the catalog planners whose sets were whole legs, and the inputs of the
# pieces of each leg of their sets
CONVERTED = {
    "point": [("x",)],
    "cat-point": [("x",)],
    "torus-cut": [("xy",)],
    "cat-torus-cut": [("xy",)],
    "covering-lift": [("xy",), ("y",)],
    "cat-covering-lift": [("y",), ("y",)],
    "strict-section": [("x",), ("xy",), ("y",)],
    "wedge": [("x",), ("xy",), ("y",)],
    "cat-strict-section": [("xy",), ("y",)],
}
CONVERTED_SAMPLES = (64, 65, 2, 17)


def converted_covers():
    """(label, cover, former legs) for every catalog step of a converted
    planner, then the circle, arc and torus-cut covers of the quotients."""
    for scenario in BUILTINS.values():
        bundle = build_bundle(scenario)
        for step in scenario.pipeline:
            planner = step.get("planner")
            if planner in CONVERTED:
                yield (f"{scenario.id}/{planner}", build_planner(planner, bundle),
                       former_whole_legs(planner, bundle))
    for space, make in ((Circle(np.pi), circle_cover), (Circle(2 * np.pi), circle_cover),
                        (Arc(np.pi), arc_cover), (FlatTorus(2), torus_cut_cover)):
        act = trivial_space_action(space)
        yield f"quotient/{space.name}", make(act), former_quotient_legs(act, "tc")


def grid_pairs(cover, cs):
    """The pairs of a small grid that set cs accepts (x the basepoint for
    a cat cover)."""
    space = cover.action.space
    ys = space.grid(12 if space.name == "sphere2" else 24)
    xs = cover.basepoint[None, :] if cover.kind == "cat" else ys
    X, Y = np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))
    rows = np.flatnonzero(cs.margin(X, Y) >= DEFAULT_PARAMS["epsilon"])
    return X[rows], Y[rows]


def test_converted_covers_reproduce_their_whole_legs():
    labels = []
    for label, cover, former in converted_covers():
        assert [cs.name for cs in cover.sets] == list(former), label
        for cs in cover.sets:
            X, Y = grid_pairs(cover, cs)
            assert len(X) > 0, (label, cs.name)
            for m in CONVERTED_SAMPLES:
                got = cs.build_legs(X, Y, m)
                expected = former[cs.name](X, Y, m)
                assert len(got) == len(expected), (label, cs.name, m)
                for leg, old in zip(got, expected):
                    assert leg.shape == old.shape, (label, cs.name, m)
                    assert np.array_equal(leg, old), (label, cs.name, m)
                    # a constant leg stays a zero-stride view
                    assert (leg.strides[1] == 0) == (old.strides[1] == 0), (label, m)
        labels.append(label)
    assert len(labels) == 20, labels


def test_transferred_covers_inherit_the_quotient_pieces_inputs():
    seen = set()
    for label, cover, _ in converted_covers():
        planner = label.split("/")[1]
        if planner not in CONVERTED:
            continue
        for cs in cover.sets:
            inputs = [tuple(piece.inputs for piece in leg) for leg in cs.pieces]
            expected = CONVERTED[planner]
            if label == "s2-involution/cat-strict-section":
                # the hemisphere's cat cover is an arc of y, so its section is
                expected = [("y",), ("y",)]
            assert inputs == expected, (label, cs.name, inputs)
            seen.add(label)
    assert "s2-involution/cat-strict-section" in seen


ADVERSARIAL_ACTIONS = (models.sphere_antipodal, models.sphere_codim1,
                       models.sphere_rotation, models.sphere_trivial)


def test_the_adversarial_arc_piece_reproduces_its_former_leg():
    # every pair of an S^2 grid, antipodal ones included: the arc piece's
    # sampler between its ends draws the former leg bit for bit, its ends
    # are that leg's first and last samples, and the embedded claim's
    # constant leg is that last sample
    for make in ADVERSARIAL_ACTIONS:
        action = make(2)
        space = action.space
        former = former_adversarial_legs(space)
        pts = space.grid(12)
        X, Y = np.repeat(pts, len(pts), axis=0), np.tile(pts, (len(pts), 1))
        assert (space.dist(X, Y) > np.pi - 1e-6).sum() >= len(pts), make
        for honest in (False, True):
            cover = adversarial_sphere_cover(action, honest_membership=honest)
            (piece,), = cover.sets[0].pieces
            P, Q = piece.endpoints(X, Y)
            for m in SAMPLES:
                (expected,) = former(X, Y, m)
                (leg,) = cover.sets[0].build_legs(X, Y, m)
                assert np.array_equal(leg, expected), (make, honest, m)
                assert np.array_equal(P, expected[:, 0]), (make, m)
                assert Q.tobytes() == expected[:, -1].tobytes(), (make, m)
                leg, end = embed_cover(cover).sets[0].build_legs(X, Y, m)
                assert np.array_equal(leg, expected), (make, honest, m)
                assert end.tobytes() == np.repeat(expected[:, -1:], m, axis=1).tobytes()
                assert end.strides[1] == 0
