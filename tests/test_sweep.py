"""The one-pass certification sweep against the chunk-order oracle.

`verify_cover` evaluates every accepted (pair, set) once, checks the
continuity along x from a halo of earlier rows, and reports the first
failure of the first chunk of x rows that has one.  `chunk_order_verify_cover`
(tests/oracles.py) checks the chunks one after another, each with legs of
its own.  Their Certifications, failure dicts included, must be identical
at every CPU count of `CPU_COUNTS`: one run in the caller; the caller's
first block, then forked runs; and more runs than CPUs.
"""

import functools
import time
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from efftc import _kernels, bounds, models, planners
from efftc.bounds import verify_cover
from efftc.pathspace import FlatTorus, Sphere, trivial_space_action
from efftc.planners import CoverSet, Piece, PlannerCover, embed_cover
from efftc.scenarios import BUILTINS, build_bundle, build_planner

from oracles import (
    CPU_COUNTS,
    adversarial_cover_by_parts,
    adversarial_oracle,
    catalog_certification,
    chunk_order_verify_cover,
    leg_pieces,
)

# the criterion-7b catalog covers, at their grids
CATALOG_COVERS = [
    ("point", "point", 16),
    ("s1-antipodal", "covering-lift", 32),
    ("s1-antipodal", "cat-covering-lift", 32),
    ("s1-flip", "strict-section", 32),
    ("s1-flip", "involution2", 32),
    ("s1-flip", "cat-strict-section", 32),
    ("s2-involution", "farber", 16),
    ("s2-involution", "involution2", 16),
    ("s2-involution", "involution3", 16),
    ("s2-involution", "cat-strict-section", 16),
    ("s2-antipodal", "involution2", 16),
    ("s2-antipodal", "cat-covering-lift", 16),
    ("s2-antipodal", "cat-geodesic", 16),
    ("t2-trivial", "torus-cut", 32),
    ("t2-halfturn", "covering-lift", 32),
    ("wedge-z2", "wedge", 32),
    ("wedge-z2", "cat-strict-section", 32),
    ("wedge-z3", "wedge", 32),
]
# covers with constant legs, at L = 0.9: a constant leg's frame clears no
# edge there, so its samples are scanned, and each cover fails on them
LOW_MODULUS_COVERS = [
    ("s2-involution", "involution2", 16),
    ("s2-involution", "involution3", 16),
    ("s2-antipodal", "cat-covering-lift", 16),
]


def assert_matches_oracle(cover, grid, budget=bounds.SAMPLE_BUDGET, **params):
    expected = chunk_order_verify_cover(cover, grid=grid, budget=budget, **params)
    for cpus in CPU_COUNTS:
        with mock.patch.object(bounds, "usable_cpus", lambda n=cpus: n), \
                mock.patch.object(bounds, "SAMPLE_BUDGET", budget):
            got = verify_cover(cover, grid=grid, **params)
        assert got == expected, (cover.name, grid, cpus, got, expected)
    return expected


def with_jump(cover, jump, end_error=None, piece=None):
    """The cover with the interior samples of set s's first leg shifted by
    jump(s, X, Y), and its last leg's end by end_error(s, X, Y), each leg
    then one piece of both inputs: a discontinuous jump breaks continuity
    and nothing else.  With
    piece=(s, leg, k), the jump shifts instead the samples of piece k of
    that leg of set s alone that are interior to the leg (all but the leg's
    first and last), by jump(s, *rows) of the piece's own input rows, and
    the set keeps its pieces."""
    def wrap(s, cs):
        def legs(X, Y, m):
            out = [np.array(leg) for leg in cs.build_legs(X, Y, m)]
            out[0][:, 1:-1] += jump(s, X, Y)[:, None, :]
            if end_error is not None:
                out[-1][:, -1] += end_error(s, X, Y)
            return out
        return CoverSet(cs.name, cs.stage, cs.margin, leg_pieces(legs, len(cs.pieces)))

    def wrap_piece(s, cs):
        target, leg, k = piece
        if s != target:
            return cs
        old = cs.pieces[leg][k]
        lo, hi = int(k == 0), -1 if k == len(cs.pieces[leg]) - 1 else None

        def build(*args):
            out = np.array(old.build(*args))
            out[:, lo:hi] += jump(s, *args[:-1])[:, None, :]
            return out

        pieces = [list(p) for p in cs.pieces]
        pieces[leg][k] = Piece(old.inputs, build)
        return CoverSet(cs.name, cs.stage, cs.margin,
                        pieces=tuple(tuple(p) for p in pieces))
    return PlannerCover(action=cover.action,
                        sets=[(wrap if piece is None else wrap_piece)(s, cs)
                              for s, cs in enumerate(cover.sets)],
                        stage=cover.stage, kind=cover.kind,
                        basepoint=cover.basepoint, name=cover.name + "+jump")


@functools.lru_cache(maxsize=None)
def adversarial_certification(make, honest, grid, cpus):
    """verify_cover of the adversarial S^2 claim under make(2) on `cpus`
    CPUs, once per test run: two tests certify the same claims."""
    cover = planners.adversarial_sphere_cover(make(2), honest_membership=honest)
    with mock.patch.object(bounds, "usable_cpus", lambda: cpus):
        return verify_cover(cover, grid=grid)


def test_sweep_matches_oracle_on_catalog_and_embedded_covers():
    # the certifications are memoized: criterion 7b checks the same ones
    for scenario, planner, grid in CATALOG_COVERS:
        cover = build_planner(planner, build_bundle(BUILTINS[scenario]))
        for embedded, c in ((False, cover), (True, embed_cover(cover))):
            expected = chunk_order_verify_cover(c, grid=grid)
            assert expected.certified, (scenario, planner, embedded)
            for cpus in CPU_COUNTS:
                got = catalog_certification(scenario, planner, grid, embedded, cpus)
                assert got == expected, (scenario, planner, embedded, cpus, got)
    for scenario, planner, grid in LOW_MODULUS_COVERS:
        cover = build_planner(planner, build_bundle(BUILTINS[scenario]))
        for c in (cover, embed_cover(cover)):
            expected = assert_matches_oracle(c, grid, modulus=0.9)
            assert expected.failure["reason"] == "continuity", (scenario, planner)


def test_sweep_matches_oracle_on_adversarial_covers():
    # the claim is an arc piece, bounded from its ends and sampled only on
    # the edges the bound leaves; the oracle builds its former whole leg on
    # every pair (grids 24, 32 and 40 are the sphere-refute claims)
    for make in (models.sphere_antipodal, models.sphere_codim1,
                 models.sphere_rotation, models.sphere_trivial):
        for honest in (False, True):
            for grid in (16, 24, 32, 40):
                expected = adversarial_oracle(make, honest, grid)
                assert not expected.certified
                for cpus in CPU_COUNTS:
                    got = adversarial_certification(make, honest, grid, cpus)
                    assert got == expected, (make, honest, grid, cpus, got, expected)


def test_refutations_of_adversarial_legs_built_in_place():
    # the 24 sphere-refute claims: the legs built in place and the legs
    # assembled from parts are refuted with equal failure dicts
    cpus = bounds.usable_cpus()
    for make in (models.sphere_antipodal, models.sphere_codim1,
                 models.sphere_rotation, models.sphere_trivial):
        action = make(2)
        for honest in (False, True):
            parts = adversarial_cover_by_parts(action, honest_membership=honest)
            for grid in (24, 32, 40):
                got = adversarial_certification(make, honest, grid, cpus)
                assert not got.certified
                assert got == verify_cover(parts, grid=grid), (make, honest, grid)


def test_sweep_finds_failures_on_wrap_edges():
    # a jump as the first coordinate of x wraps: only the continuity along
    # x fails, on the wrap-around edges, which the last block closes
    circle = planners.farber_sphere_cover(trivial_space_action(Sphere(1)))

    def angle_jump(s, X, Y):
        return (np.arctan2(X[:, 1], X[:, 0]) % (2 * np.pi))[:, None] * [0.5, 0.0]

    cert = assert_matches_oracle(with_jump(circle, angle_jump), 32)
    assert cert.failure["reason"] == "continuity"
    assert cert.failure["pair"][0] != cert.failure["neighbor"][0]

    # T^2 on a 10 x 10 grid with L = 4, where L h = 0.4 < diam T^2 (at the
    # default L no continuity check on T^2 can fail)
    torus = with_jump(planners.torus_cut_cover(trivial_space_action(FlatTorus(2))),
                      lambda s, X, Y: X[:, :1] * [[0.45, 0.45]])
    cert = assert_matches_oracle(torus, 100, modulus=4.0)
    assert cert.failure["reason"] == "continuity"
    (x, y), (nx, ny) = cert.failure["pair"], cert.failure["neighbor"]
    assert y == ny and abs(x[0] - nx[0]) > 0.5      # a wrap edge along x
    # the same with chunks of three rows, split over blocks and runs
    assert assert_matches_oracle(torus, 100, budget=3 * 100 * 64,
                                 modulus=4.0) == cert


def test_sweep_finds_x_failures_across_blocks():
    # a jump between two latitude rings of S^2: edges from one block to an
    # earlier one fail; small budgets put block and chunk edges everywhere
    cover = planners.farber_sphere_cover(models.sphere_codim1(2))
    jumpy = with_jump(cover, lambda s, X, Y: (X[:, :1] > 0.3) * [[0.0, 0.0, 3.0]])
    for budget in (bounds.SAMPLE_BUDGET, 40 * 172 * 64, 7 * 172 * 64):
        cert = assert_matches_oracle(jumpy, 16, budget=budget)
        assert cert.failure["reason"] == "continuity"
        assert cert.failure["pair"][0] != cert.failure["neighbor"][0]
    # inside the first failing chunk the earlier set wins: U1 jumps only on
    # the southern y rows (ramped in, so that nothing fails along y), U3
    # (accepted from y0 < 0.9 on) everywhere
    def gated_jump(s, X, Y):
        ramp = np.clip(1.5 * (-0.3 - Y[:, :1]), 0.0, 1.0) if s == 0 else (s == 2)
        return (X[:, :1] > 0.3) * ramp * [[0.0, 0.0, 3.0]]

    gated = with_jump(cover, gated_jump)
    cert = assert_matches_oracle(gated, 16, budget=20 * 172 * 64)
    assert cert.failure["set"] == "U1"



def test_pieces_skipped_along_an_edge_are_those_that_cannot_move():
    # a jump injected into one piece of a factored set: a piece of x only
    # fails along x, a piece of y only along y, a piece of both either way;
    # each refutation, in chunks of 20 rows of the 172-point grid, is the
    # oracle's, which scans the concatenated legs
    farber = planners.farber_sphere_cover(models.sphere_codim1(2))
    three = planners.involution_three_stage_planner(models.sphere_codim1(2))

    def along(axis):
        # a jump at the first coordinate 0.3 of x (axis 0) or of y (axis 1)
        def jump(s, *rows):
            return (rows[min(axis, len(rows) - 1)][:, :1] > 0.3) * [[0.0, 0.0, 3.0]]
        return jump

    cases = [(farber, (2, 0, 0), 0),       # U3: X -> N, a piece of x
             (farber, (2, 0, 3), 1),       # U3: S -> Y, a piece of y
             (three, (0, 0, 0), 0),        # the constant leg at x
             (three, (0, 1, 0), 0),        # fold(X) -> N, a piece of x
             (three, (0, 1, 1), 1),        # N -> fold(Y), a piece of y
             (farber, (1, 0, 0), 0),       # U2: X -> -Y, a piece of both
             (farber, (1, 0, 0), 1)]
    for cover, piece, axis in cases:
        jumpy = with_jump(cover, along(axis), piece=piece)
        name = cover.sets[piece[0]].name
        cert = assert_matches_oracle(jumpy, 16, budget=20 * 172 * 64)
        assert cert.failure["reason"] == "continuity", (piece, axis, cert)
        assert cert.failure["set"] == name, (piece, axis, cert)
        pair, neighbor = cert.failure["pair"], cert.failure["neighbor"]
        assert (pair[axis] != neighbor[axis]) and (pair[1 - axis] == neighbor[1 - axis])


def test_x_failures_are_taken_in_y_order():
    # T^2 on a 10 x 10 grid with L = 4: the low x edges (first coordinate
    # 0.2|0.3 and 0.5|0.6) jump at y near 0.6, the high ones near 0.1, with
    # bumps that change slowly enough along y.  In one chunk the least y
    # wins over the least edge; in chunks of three rows the low edges'
    # chunk comes first
    def bump(t, c):
        d = np.abs(np.mod(t - c + 0.5, 1.0) - 0.5)
        return np.clip(1.5 - 5.0 * d, 0.0, 1.0)

    def jump(s, X, Y):
        low = ((X[:, 0] > 0.25) & (X[:, 0] < 0.55)) * bump(Y[:, 0], 0.6)
        high = ((X[:, 0] > 0.65) & (X[:, 0] < 0.85)) * bump(Y[:, 0], 0.1)
        return (low + high)[:, None] * [[0.45, 0.45]]

    torus = with_jump(planners.torus_cut_cover(trivial_space_action(FlatTorus(2))),
                      jump)
    cert = assert_matches_oracle(torus, 100, modulus=4.0)
    assert (cert.failure["pair"], cert.failure["neighbor"]) == (
        [[0.6, 0.0], [0.0, 0.0]], [[0.7, 0.0], [0.0, 0.0]])
    cert = assert_matches_oracle(torus, 100, budget=3 * 100 * 64, modulus=4.0)
    assert [cert.failure["pair"][0], cert.failure["neighbor"][0]] == [[0.2, 0.0],
                                                                     [0.3, 0.0]]

def test_coverage_is_checked_before_any_leg_is_built():
    # the honest adversarial claim leaves the antipodal pairs uncovered: the
    # first uncovered pair of chunk 0 refutes it, and no section is built
    honest = planners.adversarial_sphere_cover(models.sphere_antipodal(2),
                                               honest_membership=True)
    (cs,) = honest.sets
    calls = []

    def counted(piece):
        def build(*args):
            calls.append(piece.inputs)
            return piece.build(*args)
        return Piece(piece.inputs, build)

    pieces = tuple(tuple(counted(piece) for piece in leg) for leg in cs.pieces)
    counted_cover = PlannerCover(action=honest.action,
                                 sets=[CoverSet(cs.name, cs.stage, cs.margin, pieces)],
                                 stage=honest.stage, name=honest.name)
    with mock.patch.object(bounds, "usable_cpus", lambda: 1):
        cert = verify_cover(counted_cover, grid=32)
    assert calls == []
    # the counter sees a piece build when one happens
    x = honest.action.space.grid(4)[:1]
    counted_cover.sets[0].build_legs(x, x, 2)
    assert calls == ["xy"]
    pts = honest.action.space.grid(32)
    chunk_rows = bounds.SAMPLE_BUDGET // (len(pts) * 64)
    X = np.repeat(pts[:chunk_rows], len(pts), axis=0)
    Y = np.tile(pts, (chunk_rows, 1))
    r = int(np.argmax(cs.margin(X, Y) < 0.05))
    assert cert.failure == {"reason": "coverage",
                            "pair": [X[r].tolist(), Y[r].tolist()]}


def test_sweep_reports_the_first_failure_of_the_whole_chunk():
    # in the first chunk (45 rows at grid 32), U1 jumps along y on the first
    # rings (rows 0-9, the first block) and misses its endpoints on the
    # fourth ring (rows 20 on, a later block); the chunk reports the
    # endpoints first, with the largest residual of the whole chunk
    cover = planners.farber_sphere_cover(models.sphere_codim1(2))

    def jump(s, X, Y):
        return ((s == 0) & (X[:, 0] > 0.97) & (Y[:, 0] > 0.0))[:, None] * [[0.0, 3.0, 0.0]]

    def end_error(s, X, Y):
        ring = (s == 0) & (X[:, 0] > 0.9) & (X[:, 0] < 0.94)
        return (ring * 1e-3 * (1.0 + 10.0 * (0.94 - X[:, 0])))[:, None] * [[1.0, 0.0, 0.0]]

    cert = assert_matches_oracle(with_jump(cover, jump, end_error), 32)
    assert cert.failure["reason"] == "validation" and cert.failure["set"] == "U1"


# chunks of 40 rows of the 172-point S^2 grid: blocks of 20 rows on one CPU,
# and on more the caller's first chunk in blocks of 10.  The grid's rings
# (first coordinate) hold rows 0-3 (0.98), 4-9 (0.93), 10-17 (0.85), 18-27
# (0.74) and 28-39 (0.60)
FINISH_BUDGET = 40 * 172 * 64


def _ring(X, lo, hi):
    return (X[:, 0] > lo) & (X[:, 0] < hi)


def with_three_legs(cover, joint_error):
    """The cover with its first set's leg cut into three legs that share
    their joint samples; leg k + 1 starts off by joint_error(k, X) along
    the first axis, and the first leg jumps along y on the first ring."""
    cs = cover.sets[0]

    def legs(X, Y, m):
        leg = cs.build_legs(X, Y, m)[0]
        out = [np.array(leg[:, :22]), np.array(leg[:, 21:43]), np.array(leg[:, 42:])]
        jump = _ring(X, 0.97, 1.0) & (Y[:, 0] > 0.0)
        out[0][:, 1:-1] += jump[:, None, None] * [0.0, 3.0, 0.0]
        for k in (0, 1):
            out[k + 1][:, 0] += joint_error(k, X)[:, None] * [1.0, 0.0, 0.0]
        return out

    sets = [CoverSet(cs.name, cs.stage, cs.margin, leg_pieces(legs, 3)), *cover.sets[1:]]
    return PlannerCover(action=cover.action, sets=sets, stage=cover.stage,
                        name=cover.name + "+joints")


def test_a_chunk_is_finished_block_by_block():
    # the first block of the chunk fails along y (the first ring); later
    # blocks fail earlier phases, and the chunk's failure is the least
    farber = planners.farber_sphere_cover(trivial_space_action(Sphere(2)))
    pts = farber.action.space.grid(16)
    # joint 1 fails on the third ring and joint 0 on the fifth: joint 0
    # wins, at its first pair, though a block before it failed joint 1
    late_joint_0 = with_three_legs(farber, lambda k, X: 1e-3 * (
        _ring(X, 0.8, 0.9) if k == 1 else _ring(X, 0.5, 0.7)))
    cert = assert_matches_oracle(late_joint_0, 16, budget=FINISH_BUDGET)
    assert cert.failure["reason"] == "validation"
    assert cert.failure["pair"][0] == pts[28].tolist()
    # joint 0 fails by 1e-3 on the third ring and by 2e-3 on the fifth, a
    # third block on more than one CPU: the failure is at the first pair,
    # with the largest residual of the chunk
    largest_later = with_three_legs(farber, lambda k, X: (k == 0) * 1e-3 * (
        _ring(X, 0.8, 0.9) + 2.0 * _ring(X, 0.5, 0.7)))
    cert = assert_matches_oracle(largest_later, 16, budget=FINISH_BUDGET)
    assert cert.failure["pair"][0] == pts[10].tolist()
    assert abs(cert.failure["joint_residual"] - 2e-3) < 1e-8


def test_a_later_block_holds_a_smaller_column_along_x():
    # U1 jumps along x at the equator's columns from the second ring to the
    # third (edges the block of rows 10-17 closes), and at the first columns
    # from the fourth ring to the fifth (edges closed from row 28 on): the
    # later block's failure has the smaller column, and wins
    farber = planners.farber_sphere_cover(trivial_space_action(Sphere(2)))

    def jump(s, X, Y):
        equator = np.clip(1.5 * (0.6 - np.abs(Y[:, 0])), 0.0, 1.0)
        north = np.clip(1.5 * (Y[:, 0] - 0.3), 0.0, 1.0)
        step = (X[:, 0] < 0.9) * equator + (X[:, 0] < 0.7) * north
        return (s == 0) * step[:, None] * [[0.0, 0.0, 3.0]]

    cert = assert_matches_oracle(with_jump(farber, jump), 16, budget=FINISH_BUDGET)
    pts = farber.action.space.grid(16)
    assert cert.failure["reason"] == "continuity" and cert.failure["set"] == "U1"
    assert cert.failure["pair"][1] == pts[0].tolist()
    assert cert.failure["neighbor"][0] == pts[28].tolist()


def test_sweep_with_more_runs_than_cpus():
    # four runs on this machine's CPUs share the fork-inherited failure flags:
    # an early refutation ends the later runs, and every answer is the
    # oracle's, within a time bound
    cover = planners.farber_sphere_cover(models.sphere_codim1(2))
    jumpy = with_jump(cover, lambda s, X, Y: (X[:, :1] > 0.3) * [[0.0, 0.0, 3.0]])
    adversarial = planners.adversarial_sphere_cover(models.sphere_antipodal(2),
                                                    honest_membership=True)
    for c, grid in ((adversarial, 32), (jumpy, 16), (cover, 16)):
        expected = chunk_order_verify_cover(c, grid=grid)
        with mock.patch.object(bounds, "usable_cpus", lambda: 4):
            start = time.monotonic()
            assert verify_cover(c, grid=grid) == expected
            assert time.monotonic() - start < 60.0


SPACES = {
    "circle": (Sphere(1), lambda a: planners.farber_sphere_cover(a)),
    "sphere": (Sphere(2), lambda a: planners.farber_sphere_cover(a)),
    "torus": (FlatTorus(2), lambda a: planners.torus_cut_cover(a)),
}
# pieces of a single input in those covers, as with_jump's piece=(s, leg, k):
# U2's arcs of y, and farber U3's arc of x (X -> N) and of y (S -> Y) on S^2
SINGLE_INPUT_PIECES = {
    "circle": [(1, 0, 1), (1, 0, 2)],
    "sphere": [(1, 0, 1), (2, 0, 0), (2, 0, 3)],
    "torus": [],
}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(SPACES)), grid=st.integers(6, 14),
       chunk_rows=st.integers(1, 40), modulus=st.floats(0.5, 12.0),
       seed=st.integers(0, 2**16), bad_ends=st.booleans(), data=st.data())
def test_sweep_matches_oracle_on_random_jumps(kind, grid, chunk_rows, modulus,
                                              seed, bad_ends, data):
    # per set, jumps along x gated by y and along y gated by x, at random
    # cuts, and optional endpoint errors of varying size; or a jump inside
    # one piece of a single input, across a random cut of that input; and a
    # chunk size that splits the grid anywhere
    space, make = SPACES[kind]
    piece = data.draw(st.sampled_from([None] + SINGLE_INPUT_PIECES[kind]), label="piece")
    rng = np.random.default_rng(seed)
    d = space.point_dim
    cuts = rng.normal(size=(3, 4, d)), rng.uniform(-0.6, 0.6, size=(3, 4))
    sizes = rng.uniform(-0.6, 0.6, size=(3, 2, d))

    def side(s, k, P):
        return P @ cuts[0][s, k] > cuts[1][s, k]

    def jump(s, X, Y):
        along_x = side(s, 0, X) & side(s, 1, Y)
        along_y = side(s, 2, Y) & side(s, 3, X)
        return np.outer(along_x, sizes[s, 0]) + np.outer(along_y, sizes[s, 1])

    def end_error(s, X, Y):
        return np.outer(side(s, 3, X) & side(s, 0, Y), sizes[s, 0]) * 1e-2

    def piece_jump(s, P):
        # long enough to fail where L h is close to the diameter, which the
        # unjumped cover on S^2 needs at the finer grids
        return np.outer(side(s, 0, P), 4.0 * sizes[s, 0])

    if piece is None:
        cover = with_jump(make(trivial_space_action(space)), jump,
                          end_error if bad_ends else None)
    else:
        cover = with_jump(make(trivial_space_action(space)), piece_jump, piece=piece)
    m_y = len(space.grid(grid))
    assert_matches_oracle(cover, grid, budget=chunk_rows * m_y * 8,
                          modulus=modulus, samples=8)


def arc_tables(cover, rows=6, grid=16):
    """The frame tables (bounds._Frames) the sweep builds for each set of
    `cover` on its first `rows` x rows of the grid."""
    space = cover.action.space
    pts, nbr = space.grid(grid), space.grid_neighbor_pairs(grid)
    sweep = bounds._Sweep(cover, pts, nbr, pts, nbr, 0.05, 1e-6, 10.0, 64, 1)
    X = np.repeat(pts[:rows], len(pts), axis=0)
    Y = np.tile(pts, (rows, 1))
    tables = []
    for s, cs in enumerate(cover.sets):
        flat = cs.margin(X, Y) >= 0.05
        if flat.any():
            sec = sweep.sections(s, np.arange(rows), flat, X, Y)
            tables += [t for _, t in sec.tables if isinstance(t, bounds._Frames)]
    return tables


def test_batched_samples_are_those_of_each_table():
    # farber's arcs of x, y and both at 64, 32 and 16 samples, and the
    # adversarial claim's own sampler (with rows that take its tie-break)
    bundle = build_bundle(BUILTINS["s2-involution"])
    tables = arc_tables(build_planner("farber", bundle))
    claim = planners.adversarial_sphere_cover(bundle.space_action)
    tables += arc_tables(claim)
    assert len({(t.sample, t.n) for t in tables}) >= 4
    rng = np.random.default_rng(5)
    wanted = {}
    for t in tables:
        rows = np.unique(rng.integers(0, len(t.Q), size=min(40, len(t.Q))))
        if t.sample is claim.sets[0].pieces[0][0].sample:
            antipodal = np.flatnonzero(np.isnan(t.frames).any(axis=0))
            assert antipodal.size
            rows = np.union1d(rows, antipodal[:5])
        wanted[t] = rows
    drawn = bounds._draw(wanted)
    for t, rows in wanted.items():
        got_rows, samples = drawn[t]
        assert np.array_equal(got_rows, rows)
        alone = t.samples(rows)
        assert samples.shape == alone.shape == (rows.size, t.n, 3)
        assert samples.tobytes() == alone.tobytes()


def test_one_sampling_call_per_set_block_pass_and_sample_count():
    # s2-involution's covers at grid 32 on one CPU: within a block, a set
    # samples what clearing leaves of all its arc tables along y, then along
    # x, in at most one slerp call per sample count each (every sampler is
    # slerp_batch)
    bundle = build_bundle(BUILTINS["s2-involution"])
    where = {"block": None, "set": None, "run": None}
    runs, calls = [], []
    rows_failure, sections, run = (bounds._Sweep.rows_failure, bounds._Sweep.sections,
                                   bounds._Scans.run)
    slerp_into = _kernels.slerp_into

    def in_block(self, x0, x1, halo, start):
        where["block"] = (x0, x1)
        return rows_failure(self, x0, x1, halo, start)

    def of_set(self, s, *args):
        where["set"] = s
        return sections(self, s, *args)

    def sampling(self):
        runs.append((where["block"], where["set"]))
        where["run"] = len(runs)
        try:
            return run(self)
        finally:
            where["run"] = None

    def counted(P, Q, out):
        if where["run"] is not None:
            calls.append((where["run"], out.shape[1], out.shape[0]))
        return slerp_into(P, Q, out)

    with mock.patch.object(bounds, "usable_cpus", lambda: 1), \
            mock.patch.object(bounds._Sweep, "rows_failure", in_block), \
            mock.patch.object(bounds._Sweep, "sections", of_set), \
            mock.patch.object(bounds._Scans, "run", sampling), \
            mock.patch.object(_kernels, "slerp_into", counted):
        for planner in ("farber", "involution2", "involution3", "cat-strict-section"):
            runs.clear()
            calls.clear()
            cert = verify_cover(build_planner(planner, bundle), grid=32)
            assert cert.certified
            assert max(Counter(runs).values()) <= 2, planner
            keys = [call[:2] for call in calls]
            assert len(set(keys)) == len(keys), planner
            if planner != "cat-strict-section":     # whose arcs all clear
                assert keys and sum(call[2] for call in calls) > len(calls), planner


def _grain_cover(action, pieces, margin):
    """A test set of `pieces` and `margin` (set 0), then involution3's one
    global set, which covers every pair and validates everywhere."""
    (three,) = planners.involution_three_stage_planner(action).sets
    return PlannerCover(action=action, stage=3, name="grain",
                        sets=[CoverSet("T", 3, margin, pieces), three])


def _moved(build, sample, shift):
    """A piece builder: `build` with sample `sample` of every row moved by
    shift(rows) (the rows of the piece's own inputs)."""
    def moved(*args):
        out = np.array(build(*args))
        out[:, sample] += shift(*args[:-1])
        return out
    return moved


def test_residuals_computed_per_grain_fail_as_per_pair():
    # a validation failure of each grain: a joint of x alone, an endpoint of
    # y alone, a joint of two constant pieces, a joint of both inputs, and
    # endpoints of x and of y in one mask.  The test set accepts pairs with
    # y away from x, so along the first x rows the first failing column is
    # not the first of the failing columns (the first row rejects it): the
    # first failing pair in pair order is not the grain's first.  Every
    # failure dict is the oracle's, on 1 and 2 CPUs, in whole chunks and in
    # chunks of 20 rows
    action = models.sphere_codim1(2)
    space = action.space
    north, south = np.eye(3)[0], -np.eye(3)[0]
    west, off_west = np.eye(3)[1], np.array([0.0, 1.0, 1e-3]) / np.hypot(1.0, 1e-3)

    def away(X, Y):
        return space.dist(Y, X) - 0.6

    def y_bad(Y):
        return (Y[:, 1] > 0.05)[:, None] * (1e-3 * (1.0 + Y[:, 2:]))

    def x_bad(X):
        return (X[:, :1] < 0.2) * (1e-3 * (1.0 + X[:, 1:2]))

    def xy_bad(X, Y):
        return ((X[:, 1] * Y[:, 2]) > 0.3)[:, None] * (1e-3 * (1.0 + Y[:, :1]))

    def slerp(P, Q):
        return lambda *args: _kernels.slerp_batch(P(*args[:-1]), Q(*args[:-1]), args[-1])

    fold_arcs = (planners._arc_piece(space, "x", planners._fold, north),
                 planners._arc_piece(space, "y", north, planners._fold))
    const_y = Piece("y", _const_legs_copy)
    cases = {
        "x joint": ("joint_residual", (
            (Piece("x", _moved(_const_legs_copy, -1, x_bad)),), fold_arcs, (const_y,))),
        "y endpoint": ("endpoint_residual", (
            (planners._arc_piece(space, "x", planners._same, north),
             planners._arc_piece(space, "", north, west),
             planners._arc_piece(space, "", west, south),
             Piece("y", _moved(slerp(lambda Y: np.broadcast_to(south, Y.shape),
                                     planners._same), -1, y_bad))),)),
        "constant joint": ("joint_residual", (
            (planners._arc_piece(space, "x", planners._same, north),
             planners._arc_piece(space, "", north, west)),
            (planners._arc_piece(space, "", off_west, south),
             planners._arc_piece(space, "y", south, planners._same)))),
        "xy joint": ("joint_residual", (
            (Piece("xy", _moved(slerp(lambda X, Y: X, lambda X, Y: Y), -1, xy_bad)),),
            (const_y,))),
        "x and y endpoints": ("endpoint_residual", (
            (Piece("x", _moved(_const_legs_copy, 0, x_bad)),), fold_arcs,
            (Piece("y", _moved(_const_legs_copy, -1, y_bad)),))),
    }
    pts = space.grid(16)
    for case, (residual, pieces) in cases.items():
        margin = (lambda X, Y: space.dist(Y, -X) - 0.12) if case == "xy joint" else away
        cover = _grain_cover(action, pieces, margin)
        for budget in (bounds.SAMPLE_BUDGET, 20 * len(pts) * 64):
            cert = assert_matches_oracle(cover, 16, budget=budget)
            assert cert.failure["reason"] == "validation", (case, cert)
            assert cert.failure["set"] == "T" and residual in cert.failure, (case, cert)
        if case in ("y endpoint", "x and y endpoints"):
            # the first failing column is rejected in the first row
            (x, y) = cert.failure["pair"]
            first_bad = pts[np.flatnonzero(pts[:, 1] > 0.05)[0]]
            assert x == pts[0].tolist() and y != first_bad.tolist(), case


def _const_legs_copy(points, n):
    """Constant legs at the rows of points, as a writable array."""
    return np.array(planners._const_legs(points, n))
