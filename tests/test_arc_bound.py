"""The endpoint bound of arc pieces, and the edges it lets the sweep skip.

An arc piece on a sphere is held by the sweep as its endpoints and frames
(P, U, theta), and an edge is scanned only when neither the space's
diameter nor `Sphere.frame_bound` clears it: a chord bound, compared with the
edge's chord threshold `Sphere.frame_threshold`.  The bound must hold for the
sampled legs the pieces build, the threshold must clear no edge that the
angle rule (`oracles.angle_arc_bound` + ARC_SLACK <= L h) keeps, and every
verdict and failure dict must stay the chunk-order oracle's, which builds
whole legs and scans every edge.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from efftc import bounds, planners
from efftc._kernels import slerp_batch
from efftc.pathspace import (
    ARC_MAX_SAMPLES,
    ARC_MIN_SIN,
    ARC_SLACK,
    FlatTorus,
    Sphere,
    trivial_space_action,
)
from efftc.planners import CoverSet, PlannerCover
from efftc.scenarios import BUILTINS, build_bundle, build_planner

from oracles import CPU_COUNTS, angle_arc_bound, chunk_order_verify_cover

# arc angles the property test draws from: anywhere, at the frame
# threshold, tiny, next to the antipodal guard, and zero (equal endpoints)
NEAR_THRESHOLD = float(np.arcsin(ARC_MIN_SIN))
ANGLES = st.one_of(
    st.floats(0.0, np.pi - 1e-6),
    st.floats(0.5 * NEAR_THRESHOLD, 2.0 * NEAR_THRESHOLD),
    st.floats(0.0, 1e-7),
    st.floats(np.pi - 2e-3, np.pi - 1e-6),
    st.just(0.0),
)


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def arcs(rng, d, theta, rows):
    """`rows` arcs on S^(d-1) of angle theta: (P, Q)."""
    P = unit(rng.normal(size=(rows, d)))
    W = rng.normal(size=(rows, d))
    W = unit(W - (W * P).sum(axis=1, keepdims=True) * P)
    return P, np.cos(theta) * P + np.sin(theta) * W


def arc_pairs(sphere, d, theta, theta2, move, stretch, seed, rows=16):
    """Pairs of arcs (P, Q), (P2, Q2): the second either the first with its
    angle changed (same P and U, so that only |theta - theta2| separates
    them) or an arc of angle theta2 from a start moved by `move`."""
    rng = np.random.default_rng(seed)
    P, Q = arcs(rng, d, theta, rows)
    if stretch:
        U = sphere.frames(P, Q, 64)[d:2 * d].T
        if not np.all(np.isclose(np.linalg.norm(U, axis=1), 1.0)):
            _, W = arcs(rng, d, np.pi / 2, rows)
            U = unit(W - (W * P).sum(axis=1, keepdims=True) * P)
        P2, Q2 = P, np.cos(theta2) * P + np.sin(theta2) * U
    else:
        P2 = unit(P + move * rng.normal(size=(rows, d)))
        _, Q2 = arcs(rng, d, theta2, rows)
        Q2 = np.cos(theta2) * P2 + np.sin(theta2) * unit(
            Q2 - (Q2 * P2).sum(axis=1, keepdims=True) * P2)
    return P, Q, P2, Q2


def as_angle(chord):
    """A chord bound as the angle the scan could read at most, before the
    ARC_SLACK for the rounding of its arcsin."""
    return 2.0 * np.arcsin(np.minimum(1.0, (chord + ARC_SLACK) / 2.0))


ARC_PAIRS = dict(d=st.sampled_from([2, 3, 4]), theta=ANGLES, theta2=ANGLES,
                 move=st.floats(0.0, 0.3), stretch=st.booleans(),
                 seed=st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 3, 17, 22, 64]), **ARC_PAIRS)
def test_scanned_arcs_stay_within_the_endpoint_bound(n, d, theta, theta2, move,
                                                     stretch, seed):
    sphere = Sphere(d - 1)
    P, Q, P2, Q2 = arc_pairs(sphere, d, theta, theta2, move, stretch, seed)
    legs, legs2 = slerp_batch(P, Q, n), slerp_batch(P2, Q2, n)
    idx = np.arange(len(P))
    scanned = sphere.supdiff_pairs(legs, idx, idx, legs2)
    frames, frames2 = sphere.frames(P, Q, n), sphere.frames(P2, Q2, n)
    assert frames.flags.c_contiguous and frames.shape == (2 * d + 2, len(P))
    bound = as_angle(sphere.frame_bound(frames, idx, frames2, idx))
    # below the threshold, a short arc is its start within a radius, and a
    # near-antipodal one has NaN frames
    for F, A, B in ((frames, P, Q), (frames2, P2, Q2)):
        angle = np.arccos(np.clip((A * B).sum(axis=1), -1.0, 1.0))
        flat = np.sin(angle) < ARC_MIN_SIN
        short = flat & (angle < np.pi / 2)
        assert np.array_equal(F[:d].T, A)
        assert np.array_equal(np.isnan(F).any(axis=0), flat & ~short)
        assert np.all(F[d:-1, short] == 0.0) and np.all(F[-1, ~flat] == 0.0)
    given_bound = ~np.isnan(bound)
    assert np.all(scanned[given_bound] <= bound[given_bound] + ARC_SLACK), (
        scanned, bound)


# L h: anywhere below pi, next to pi, and just around the angle rule's
# verdict on each edge (offsets from angle_arc_bound + ARC_SLACK, also in
# units in the last place)
LIMITS = st.one_of(
    st.tuples(st.just("at"), st.floats(0.0, np.pi)),
    st.tuples(st.just("at"), st.floats(np.pi - 1e-6, np.pi, exclude_max=True)),
    st.tuples(st.just("around"), st.floats(-1e-9, 1e-9)),
    st.tuples(st.just("around"), st.floats(-1e-11, 1e-11)),
    st.tuples(st.just("ulps"), st.integers(-4, 4)),
)


def limits(limit, former):
    """Each edge's L h < pi for a LIMITS draw, given the angle rule's bound."""
    how, value = limit
    if how == "at":
        allowed = np.full(former.shape, value)
    elif how == "around":
        allowed = former + ARC_SLACK + value
    else:
        allowed = former + ARC_SLACK
        allowed = allowed + value * np.spacing(allowed)
    return np.where(np.isnan(allowed), 1.0, np.minimum(allowed, np.nextafter(np.pi, 0.0)))


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([2, 17, 64]), limit=LIMITS, **ARC_PAIRS)
def test_edges_the_chord_threshold_clears_cannot_fail(n, limit, d, theta, theta2,
                                                      move, stretch, seed):
    # no edge the threshold clears scans above L h; a near-antipodal arc
    # (NaN frames) is never cleared
    sphere = Sphere(d - 1)
    P, Q, P2, Q2 = arc_pairs(sphere, d, theta, theta2, move, stretch, seed)
    idx = np.arange(len(P))
    frames, frames2 = sphere.frames(P, Q, 64), sphere.frames(P2, Q2, 64)
    allowed = limits(limit, angle_arc_bound(frames, idx, frames2, idx))
    cleared = sphere.frame_bound(frames, idx, frames2, idx) <= sphere.frame_threshold(allowed)
    scanned = sphere.supdiff_pairs(slerp_batch(P, Q, n), idx, idx, slerp_batch(P2, Q2, n))
    assert np.all(scanned[cleared] <= allowed[cleared]), (scanned, allowed, cleared)
    nan_frames = np.isnan(frames).any(axis=0) | np.isnan(frames2).any(axis=0)
    assert not np.any(cleared & nan_frames)


@settings(max_examples=300, deadline=None)
@given(limit=LIMITS, **ARC_PAIRS)
def test_the_chord_threshold_clears_only_what_the_angle_rule_clears(limit, d, theta,
                                                                    theta2, move,
                                                                    stretch, seed):
    sphere = Sphere(d - 1)
    P, Q, P2, Q2 = arc_pairs(sphere, d, theta, theta2, move, stretch, seed)
    idx = np.arange(len(P))
    frames, frames2 = sphere.frames(P, Q, 64), sphere.frames(P2, Q2, 64)
    former = angle_arc_bound(frames, idx, frames2, idx)
    allowed = limits(limit, former)
    cleared = sphere.frame_bound(frames, idx, frames2, idx) <= sphere.frame_threshold(allowed)
    assert np.all(former[cleared] + ARC_SLACK <= allowed[cleared]), (former, allowed)


def test_the_chord_threshold_clears_what_the_angle_rule_clears_on_grid_edges():
    # on the arcs of farber U1 between grid neighbours, at the moduli of
    # the refutation tests and the default: the threshold clears a subset of
    # what the angle rule clears, and gives up only edges within its margin
    sphere = Sphere(2)
    for grid in (16, 32):
        pts = sphere.grid(grid)
        nbr = sphere.grid_neighbor_pairs(grid)
        a, b = nbr.T
        h = sphere.dist(pts[a], pts[b])
        for x in pts[::7]:
            keep = sphere.dist(pts, -x) > 1e-3
            P, Q = np.broadcast_to(x, pts[keep].shape), pts[keep]
            frames = sphere.frames(P, Q, 64)
            pos = np.cumsum(keep) - 1
            on = keep[a] & keep[b]
            ia, ib = pos[a[on]], pos[b[on]]
            former = angle_arc_bound(frames, ia, frames, ib)
            chord = sphere.frame_bound(frames, ia, frames, ib)
            for modulus in (1.0, 2.0, 3.0, 10.0):
                allowed = modulus * h[on]
                old = former + ARC_SLACK <= allowed
                new = chord <= sphere.frame_threshold(allowed)
                assert not np.any(new & ~old)
                assert np.all(new[old & (former + ARC_SLACK + 1e-10 <= allowed)])


def test_the_bound_is_tight_on_grid_arcs():
    # farber U1's arcs between grid neighbours: the bound never falls below
    # the scan, and meets it within 10% on some edge
    sphere = Sphere(2)
    pts = sphere.grid(16)
    nbr = sphere.grid_neighbor_pairs(16)
    x = pts[5]
    P, Q = np.broadcast_to(x, pts.shape), pts
    keep = sphere.dist(Q, -P) > 0.2
    a, b = nbr[keep[nbr[:, 0]] & keep[nbr[:, 1]]].T
    frames = sphere.frames(P, Q, 64)
    bound = as_angle(sphere.frame_bound(frames, a, frames, b))
    legs = slerp_batch(P, Q, 64)
    scanned = sphere.supdiff_pairs(legs, a, b)
    given = ~np.isnan(bound)
    assert given.mean() > 0.9
    ratio = scanned[given] / bound[given]
    assert 0.9 < ratio.max() <= 1.0


def through_the_south_pole(action):
    """A cover of S^2 x S^2 whose first set is arcs X -> S (a piece of x)
    and S -> Y (a piece of y) on the pairs with y near S, where the arcs
    to S are Lipschitz in y but not in x near the north pole; the second
    set, the adversarial claim's, accepts every pair."""
    space = action.space
    south = -planners._north(space)
    pieces = ((planners._arc_piece(space, "x", planners._same, south),
               planners._arc_piece(space, "y", south, planners._same)),)
    through = CoverSet("S", 1, lambda X, Y: 1.3 - space.dist(Y, south[None, :]),
                       pieces=pieces)
    rest = planners.adversarial_sphere_cover(action).sets[0]
    return PlannerCover(action=action, sets=[through, rest], stage=1,
                        name="through-south")


def assert_matches_oracle(cover, **params):
    expected = chunk_order_verify_cover(cover, **params)
    for cpus in CPU_COUNTS:
        with mock.patch.object(bounds, "usable_cpus", lambda n=cpus: n):
            got = bounds.verify_cover(cover, **params)
        assert got == expected, (cover.name, params, cpus, got, expected)
    return expected


def test_refutations_of_arc_covers_match_the_oracle():
    # the farber and involution2 covers of S^2 fail continuity along y at
    # small moduli, the cover through the south pole along x
    bundle = build_bundle(BUILTINS["s2-involution"])
    covers = [build_planner(planner, bundle) for planner in ("farber", "involution2")]
    covers.append(through_the_south_pole(bundle.space_action))
    axes = set()
    for cover in covers:
        assert cover.sets[0].pieces[0][0].ends is not None
        for grid in (16, 24):
            for modulus in (1.0, 2.0, 3.0):
                failure = assert_matches_oracle(cover, grid=grid, modulus=modulus).failure
                assert failure["reason"] == "continuity", (cover.name, failure)
                assert failure["set"] == cover.sets[0].name, (cover.name, failure)
                axis = "y" if failure["pair"][0] == failure["neighbor"][0] else "x"
                axes.add((cover.name, axis))
    assert axes == {("farber", "y"), ("involution2", "y"), ("through-south", "x")}, axes


def count_scanned(cover, legs=None, **params):
    """(certification, edges given to Sphere.supdiff_pairs) on one CPU;
    with `legs`, only the edges of the leg arrays for which legs(leg)."""
    seen = []
    scan = Sphere.supdiff_pairs

    def counted(self, leg, ia, ib, other=None):
        if legs is None or legs(leg):
            seen.append(len(ia))
        return scan(self, leg, ia, ib, other)

    with mock.patch.object(Sphere, "supdiff_pairs", counted), \
            mock.patch.object(bounds, "usable_cpus", lambda: 1):
        cert = bounds.verify_cover(cover, **params)
    return cert, sum(seen)


def test_few_farber_edges_reach_the_scan():
    # at grid 16 and L = 10, fewer than 5% of the edges the sweep scanned
    # without the endpoint bound are scanned with it
    cover = build_planner("farber", build_bundle(BUILTINS["s2-involution"]))
    cert, scanned = count_scanned(cover, grid=16, modulus=10.0)
    with mock.patch.object(Sphere, "frame_bound",
                           staticmethod(lambda F, ia, F2, ib: np.full(len(ia), np.nan))):
        unbounded, every = count_scanned(cover, grid=16, modulus=10.0)
    assert cert == unbounded and cert.certified
    assert every > 100_000
    assert scanned < 0.05 * every, (scanned, every)


def test_constant_legs_are_cleared_by_their_frames():
    # a constant leg on a sphere is an arc of length 0, whose frame bound
    # is the chord of its edge: at L = 10 that clears every edge, so no
    # constant (zero-stride) leg of an S^2 catalog cover at grid 32 reaches
    # the scan.  involution2 used to pass 84,421 such entries of 90,285
    s2_covers = [(name, step["planner"]) for name, scenario in BUILTINS.items()
                 if name.startswith("s2-")
                 for step in scenario.pipeline if "planner" in step]
    assert len(s2_covers) == 9
    for name, planner in s2_covers:
        cover = build_planner(planner, build_bundle(BUILTINS[name]))
        cert, scanned = count_scanned(cover, lambda leg: leg.strides[1] == 0,
                                      grid=32, modulus=10.0)
        assert cert.certified and scanned == 0, (name, planner, scanned)


def test_vacuous_edges_are_not_scanned():
    # S^1 at grid <= 18 and T^2 at grid 32: L h >= diam X on every edge, so
    # nothing is scanned, and the certifications are the oracle's.  At grid
    # 20, L h = 10 * 2 pi / 20 falls short of pi by rounding on some edges
    claim = planners.adversarial_sphere_cover(trivial_space_action(Sphere(1)))
    for grid in (16, 18, 20):
        cert, scanned = count_scanned(claim, grid=grid)
        assert cert.certified and (scanned == 0) == (grid <= 18)
        assert cert == assert_matches_oracle(claim, grid=grid)
    cert = assert_matches_oracle(claim, grid=22)
    assert not cert.certified and cert.failure["reason"] == "continuity"

    torus = planners.torus_cut_cover(trivial_space_action(FlatTorus(2)))
    with mock.patch.object(FlatTorus, "supdiff_pairs",
                           side_effect=AssertionError("scanned")), \
            mock.patch.object(bounds, "usable_cpus", lambda: 1):
        cert = bounds.verify_cover(torus, grid=32)
    assert cert.certified
    assert cert == assert_matches_oracle(torus, grid=32)


def test_embedded_piece_covers_keep_their_pieces():
    # the constant leg an embedding appends is a piece of the inputs of the
    # last piece; the embedded legs are the former legs plus that constant
    for scenario, planner in (("s2-involution", "farber"),
                              ("s2-involution", "involution2"),
                              ("s2-antipodal", "involution2"),
                              ("s2-involution", "involution3")):
        cover = build_planner(planner, build_bundle(BUILTINS[scenario]))
        embedded = planners.embed_cover(cover)
        pts = cover.action.space.grid(8)
        X, Y = np.repeat(pts, len(pts), axis=0), np.tile(pts, (len(pts), 1))
        for cs, es in zip(cover.sets, embedded.sets):
            assert es.pieces[:-1] == cs.pieces
            assert es.pieces[-1][0].inputs == cs.pieces[-1][-1].inputs
            rows = np.flatnonzero(cs.margin(X, Y) >= 0.05)
            for m in (64, 7):
                base = cs.build_legs(X[rows], Y[rows], m)
                legs = es.build_legs(X[rows], Y[rows], m)
                assert len(legs) == len(base) + 1
                for leg, old in zip(legs, base):
                    assert np.array_equal(leg, old)
                assert legs[-1].strides[1] == 0
                assert np.array_equal(legs[-1], np.repeat(base[-1][:, -1:], m, axis=1))


def test_arc_pieces_with_many_samples_are_scanned_from_samples():
    # above ARC_MAX_SAMPLES the sweep holds an arc piece's samples, so the
    # endpoint bound is not used, and the verdict is the oracle's.  The
    # arcs of involution3 are two to a leg: ARC_MAX_SAMPLES + 1 samples each
    cover = build_planner("involution3", build_bundle(BUILTINS["s2-involution"]))
    params = dict(grid=8, modulus=3.0, samples=2 * ARC_MAX_SAMPLES + 2)
    cert, scanned = count_scanned(
        cover, lambda leg: leg.shape[1] == ARC_MAX_SAMPLES + 1, **params)
    assert scanned > 0
    assert cert == assert_matches_oracle(cover, **params)
