"""Executable motion-planner covers.

A cover set carries a clearance function (margin from the set's boundary)
and a batched section map producing the legs of a broken path for every
accepted pair.  Verification accepts a pair into a set only with clearance
at least epsilon, so sections are evaluated strictly inside their domains.

Every set describes its legs as pieces: each leg is a sequence of pieces,
and each piece is a function of x alone, of y alone, of both or of neither.
A piece's builder receives only the inputs it depends on, so the
certification sweep builds it once per distinct input and skips it on the
grid edges along which it cannot move.  `build_legs` returns the pieces
concatenated along the samples, each piece of a leg of m samples cut into k
pieces taking ceil(m / k) of them, at least 2 (piece_samples).  A cover
transferred from a quotient keeps the inputs of the quotient's pieces.

A builder trusts the space and action it is given (`scenarios._PLANNERS`
says where each planner runs, checked when a scenario loads); it checks
only the data it is handed: sections, freeness, quotient stages, lifts.

Sphere conventions for the involution scenarios: the involution negates the
first coordinate, its fixed equator is {x0 = 0}, and the pole of the upper
hemisphere is N = e0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._kernels import coord_dot, slerp_batch
from .errors import LiftError
from .pathspace import (
    ENDPOINT_TOL,
    QuotientModel,
    SpaceAction,
    check_arcs,
    leg_residuals,
    no_arc,
    on_first,
    wrapped_lines,
)


# the verification parameters by default: bounds.verify_cover, plan (delta
# bounds its joint residuals) and the scenario runner read them here
# (bounds imports this module, so the table cannot live there)
DEFAULT_PARAMS = {"grid": 32, "epsilon": 0.05, "delta": 1e-6,
                  "modulus": 10.0, "samples": 64}


@dataclass(frozen=True)
class Piece:
    """A stretch of a leg as a function of the inputs it names: "x", "y",
    "xy" (both) or "" (neither).  `build` receives the rows of just those
    inputs, then the piece's sample count n: build(X, n), build(Y, n),
    build(X, Y, n) or build(n).  It returns (rows, n, d) samples, a single
    row for a constant piece.

    A piece that is drawn between two ends gives `ends` instead: from the
    same input rows, its endpoints (P, Q), each (rows, d), after checking
    that they are valid.  Its `build` is then `sample(P, Q, n)` between
    them, slerp_batch by default, and the certification sweep may bound the
    piece from its ends alone where the space gives frames of them
    (Space.frames).  On a sphere, a `sample` of its own must draw
    slerp_batch's arc on every row where sin(theta) >= ARC_MIN_SIN, keep
    its samples within the radius r of P on the short rows (Sphere.frames),
    and keep P and Q as its first and last samples up to the signs of
    zeros.  A constant leg is such a piece with Q = P (_const_piece)."""

    inputs: str
    build: object = None
    ends: object = None
    sample: object = slerp_batch

    def __post_init__(self):
        if self.build is None:
            if self.ends is None:
                raise ValueError("a piece needs build or ends")
            object.__setattr__(self, "build", partial(_sample_ends, self.ends, self.sample))

    def _args(self, X, Y):
        return {"": (), "x": (X,), "y": (Y,), "xy": (X, Y)}[self.inputs]

    def on(self, X, Y, n):
        """The piece on the rows of X (for "x"), of Y ("y"), of the pairs
        (X, Y) ("xy"), or on one row ("")."""
        return self.build(*self._args(X, Y), n)

    def endpoints(self, X, Y):
        """(P, Q) of an arc piece on the same rows as `on`."""
        return self.ends(*self._args(X, Y))


def _sample_ends(ends, sample, *args):
    *rows, n = args
    return sample(*ends(*rows), n)


def piece_samples(m: int, count: int) -> int:
    """Samples of each piece of a leg of m samples cut into `count` pieces:
    ceil(m / count), at least 2, and all m for a leg of one piece."""
    return m if count == 1 else max(2, -(-m // count))


def _on_rows(piece, X, Y, n):
    """The piece on the pairs (X, Y), a constant one broadcast to each row."""
    part = piece.on(X, Y, n)
    return part if piece.inputs else np.broadcast_to(part, (len(X),) + part.shape[1:])


def legs_from_pieces(pieces, X, Y, m):
    """The legs of a set given as pieces (one tuple of Pieces per leg) on
    the pairs (X, Y).  A leg of one piece is that piece as built; a longer
    leg is its pieces concatenated along the samples, built by blocks of
    rows."""
    legs = []
    for leg in pieces:
        n = piece_samples(m, len(leg))
        if len(leg) == 1:
            legs.append(_on_rows(leg[0], X, Y, n))
        else:
            legs.append(_by_blocks(len(X), lambda rows, leg=leg, n=n: np.concatenate(
                [_on_rows(p, X[rows], Y[rows], n) for p in leg], axis=1)))
    return legs


@dataclass
class CoverSet:
    """One open set of a planner cover, as margin + batched section.

    `pieces` is one tuple of Pieces per leg, and verification sweeps them;
    `build_legs` is their concatenation (legs_from_pieces)."""

    name: str
    stage: int
    margin: object        # (X, Y) -> (M,) clearance values
    pieces: tuple
    build_legs: object = None   # (X, Y, n) -> list of (M, n, d) leg arrays

    def __post_init__(self):
        if not all(isinstance(p, Piece) for leg in self.pieces for p in leg):
            raise TypeError(f"cover set {self.name!r}: pieces must be tuples of Pieces")
        if self.build_legs is None:
            self.build_legs = partial(legs_from_pieces, self.pieces)


@dataclass
class PlannerCover:
    """A stage-k cover of X x X (or of X, when kind == "cat")."""

    action: SpaceAction
    sets: list[CoverSet]
    stage: int
    kind: str = "tc"
    basepoint: np.ndarray | None = None
    name: str = ""

    @property
    def claimed_bound(self) -> int:
        return len(self.sets) - 1

    def plan(self, x, y, epsilon: float = DEFAULT_PARAMS["epsilon"],
             n: int = DEFAULT_PARAMS["samples"]):
        """(set name, legs) of the lowest-index set accepting (x, y): its
        section as a list of (n_i, d) leg arrays.  Raises ValueError when
        no set accepts the pair, or when the legs do not make a broken path
        from x to y (leg_residuals against the default delta and
        ENDPOINT_TOL)."""
        X = np.asarray(x, float)[None, :]
        Y = np.asarray(y, float)[None, :]
        for cs in self.sets:
            if float(cs.margin(X, Y)[0]) >= epsilon:
                legs = [np.array(leg[0]) for leg in cs.build_legs(X, Y, n)]
                joints, ends = leg_residuals(self.action, [leg[:1] for leg in legs],
                                             [leg[-1:] for leg in legs], X, Y)
                if (joints > DEFAULT_PARAMS["delta"]).any() or (ends > ENDPOINT_TOL).any():
                    raise ValueError(
                        f"set {cs.name} gives no broken path from x to y: joint "
                        f"residuals {joints.ravel().tolist()}, endpoint residuals "
                        f"{ends.ravel().tolist()}")
                return cs.name, legs
        raise ValueError("pair not covered at the requested margin")


# --------------------------------------------------------------- helpers

def _const_legs(points, n):
    """Constant legs as a read-only view: every sample is the row's point."""
    return np.broadcast_to(points[:, None, :], (points.shape[0], n, points.shape[1]))


def _const_sample(P, Q, n):
    """The constant legs at P, as a piece's sampler."""
    return _const_legs(P, n)


def _arc_then_half(space, field):
    """The pieces of one leg: the shortest arc from X to -Y (of both
    inputs), then the half circle -Y -> Y as two quarter arcs through the
    unit tangent field(Y) (of y alone)."""
    def turn(Y):
        return _tangent_unit(Y, field(Y))

    return (_arc_piece(space, "xy", lambda X, Y: X, lambda X, Y: -Y),
            _arc_piece(space, "y", np.negative, turn),
            _arc_piece(space, "y", turn, _same))


def _same(rows):
    return rows


def _everywhere(X, Y):
    """The margin of a set that accepts every pair."""
    return np.full(X.shape[0], np.inf)


def _north(space):
    """The pole e0 of a sphere model."""
    north = np.zeros(space.point_dim)
    north[0] = 1.0
    return north


def _const_piece(inputs):
    """The constant leg at x or at y, as a piece with both ends at the
    input: on a sphere its frame is an arc of length 0.  Its sampler is a
    module function, so that the sweep samples every constant leg of a
    pass in one call per sample count."""
    return Piece(inputs, ends=lambda rows: (rows, rows), sample=_const_sample)


def _geodesic_piece(space, start=_same):
    """The shortest arc from start(X) to Y on a sphere, as a piece of both
    inputs."""
    return _arc_piece(space, "xy", lambda X, Y: start(X), lambda X, Y: Y)


def _arc_piece(space, inputs, start, end):
    """The guarded arc from `start` to `end` as a piece of `inputs`: each
    end is a fixed point, or a function of the piece's input rows."""
    def ends(*rows):
        shape = rows[0].shape if rows else (1, space.point_dim)
        P, Q = (e(*rows) if callable(e) else np.broadcast_to(e, shape)
                for e in (start, end))
        check_arcs(space, P, Q)
        return P, Q

    return Piece(inputs, ends=ends)


def _pairing_field(Y):
    """Unit tangent field on an odd sphere: rotate coordinate pairs."""
    V = np.empty_like(Y)
    V[:, 0::2] = -Y[:, 1::2]
    V[:, 1::2] = Y[:, 0::2]
    return V


def _stereo_field(Y):
    """Tangent field on an even sphere vanishing only at the south pole -e0.

    Pullback of a constant field under stereographic projection from -e0.
    """
    s = 1.0 + Y[:, 0]
    u = Y[:, 1:] / s[:, None]
    norm2 = 1.0 + coord_dot(u, u)
    c = np.zeros_like(u)
    c[:, 0] = 1.0
    uc = u[:, 0]
    v0 = -4.0 * uc / norm2 ** 2
    vrest = (2.0 * c * norm2[:, None] - 4.0 * u * uc[:, None]) / (norm2 ** 2)[:, None]
    V = np.concatenate([v0[:, None], vrest], axis=1)
    return V


def _tangent_unit(Y, V):
    """Project V to the tangent space at Y and normalize."""
    W = V - coord_dot(V, Y)[:, None] * Y
    return W / np.sqrt(coord_dot(W, W))[:, None]


# the point of the orbit of x in the upper hemisphere {x0 >= 0}
_fold = on_first(np.abs)


def _rotation_leg(X, n):
    """Trajectory of the half-turn rotation fixing e0 (pairs the rest)."""
    d = X.shape[1]
    if (d - 1) % 2 != 0:
        raise ValueError("rotation leg needs an even number of moving coordinates")
    t = np.linspace(0.0, np.pi, n)
    out = np.empty((X.shape[0], n, d))
    out[:, :, 0] = X[:, None, 0]
    for k in range(1, d, 2):
        a, b = X[:, k][:, None], X[:, k + 1][:, None]
        out[:, :, k] = a * np.cos(t)[None, :] - b * np.sin(t)[None, :]
        out[:, :, k + 1] = a * np.sin(t)[None, :] + b * np.cos(t)[None, :]
    out[:, -1, 0] = X[:, 0]
    return out


# ------------------------------------------------------- sphere planners

FIELD_EXCLUSION = 0.45
# clearance kept from an arc's degenerate locus, so that shortest-arc
# sections stay Lipschitz well under the default continuity modulus on the
# accepted region (modulus ~ pi / (2 * clearance))
ARC_EXCLUSION = 0.12


def farber_sphere_cover(action: SpaceAction) -> PlannerCover:
    """Stage-1 cover of S^n x S^n: 2 sets for odd n, 3 for even n."""
    space = action.space
    n = space.n

    def margin_u1(X, Y):
        return space.dist(Y, -X) - ARC_EXCLUSION

    sets = [CoverSet("U1", 1, margin_u1, pieces=((_geodesic_piece(space),),))]

    if n % 2 == 1:
        def margin_u2(X, Y):
            return space.dist(Y, X) - ARC_EXCLUSION

        sets.append(CoverSet("U2", 1, margin_u2,
                             pieces=(_arc_then_half(space, _pairing_field),)))
    else:
        south = np.zeros(space.point_dim)
        south[0] = -1.0
        north = -south
        w_dir = np.zeros(space.point_dim)
        w_dir[1] = 1.0

        def margin_u2(X, Y):
            return np.minimum(space.dist(Y, X) - ARC_EXCLUSION,
                              space.dist(Y, south[None, :]) - FIELD_EXCLUSION)

        def margin_u3(X, Y):
            return np.minimum(space.dist(X, south[None, :]),
                              space.dist(Y, north[None, :])) - FIELD_EXCLUSION

        # X -> N -> W -> S -> Y: only the first arc moves with x, the last with y
        u3 = (_arc_piece(space, "x", _same, north),
              _arc_piece(space, "", north, w_dir),
              _arc_piece(space, "", w_dir, south),
              _arc_piece(space, "y", south, _same))
        sets.append(CoverSet("U2", 1, margin_u2,
                             pieces=(_arc_then_half(space, _stereo_field),)))
        sets.append(CoverSet("U3", 1, margin_u3, pieces=(u3,)))
    return PlannerCover(action=action, sets=sets, stage=1, name="farber")


def involution_two_stage_cover(action: SpaceAction) -> PlannerCover:
    """Two-set stage-2 cover for the antipodal or codimension-1 involution.

    The free antipodal case uses the one-jump planner
    (c_x, arc(gx, y)) on {y != x}.  For the codimension-1 involution the
    first leg instead rides the half-turn rotation about the fixed axis, so
    that one orbit jump after it lands exactly on -x; this keeps the set at
    {y != x} and covers the antipodal pairs over the fixed equator.
    """
    space = action.space

    def margin_u1(X, Y):
        return space.dist(Y, -X) - ARC_EXCLUSION

    def margin_u2(X, Y):
        return space.dist(Y, X) - ARC_EXCLUSION

    u1 = ((_geodesic_piece(space),), (_const_piece("y"),))
    if action.is_geometrically_free():
        u2 = ((_const_piece("x"),), (_geodesic_piece(space, np.negative),))
    elif space.n % 2 == 0:
        u2 = ((Piece("x", _rotation_leg),), (_geodesic_piece(space, np.negative),))
    else:
        u2 = (_arc_then_half(space, _pairing_field), (_const_piece("y"),))
    return PlannerCover(action=action,
                        sets=[CoverSet("U1", 2, margin_u1, pieces=u1),
                              CoverSet("U2", 2, margin_u2, pieces=u2)],
                        stage=2, name="involution2")


def involution_three_stage_planner(action: SpaceAction) -> PlannerCover:
    """Single global stage-3 planner through the pole of the upper hemisphere."""
    space, north = action.space, _north(action.space)
    # const x | fold(x) -> N | N -> fold(y) | const y
    pieces = ((_const_piece("x"),),
              (_arc_piece(space, "x", _fold, north), _arc_piece(space, "y", north, _fold)),
              (_const_piece("y"),))
    return PlannerCover(action=action,
                        sets=[CoverSet("U", 3, _everywhere, pieces=pieces)],
                        stage=3, name="involution3")


def adversarial_sphere_cover(action: SpaceAction, honest_membership: bool = False,
                             name: str = "adversarial") -> PlannerCover:
    """A single-set stage-1 "cover" claiming bound 0; verification refutes it.

    Its one leg is an arc piece of both inputs: the shortest arc from x to
    y, and on a row without a unique arc a deterministic tie-break, the half
    circle from x through a fixed direction, whose last sample is then the
    piece's end Q."""
    space = action.space
    w = np.zeros(space.point_dim)
    w[1] = 1.0

    def margin(X, Y):
        if honest_membership:
            return space.dist(Y, -X)
        return np.full(X.shape[0], np.inf)

    def half_circles(X, t):
        dirs = _tangent_unit(X, np.broadcast_to(w, X.shape).copy())
        return (np.cos(np.pi * t)[None, :, None] * X[:, None, :]
                + np.sin(np.pi * t)[None, :, None] * dirs[:, None, :])

    def ends(X, Y):
        bad = no_arc(space, X, Y)
        if not bad.any():
            return X, Y
        Q = Y.copy()
        Q[bad] = half_circles(X[bad], np.ones(1))[:, 0]
        return X, Q

    def arcs(P, Q, n):
        # every row's shortest arc in place; a tie-break row (whose end Q
        # is again no unique arc away) first gets the harmless target P
        bad = no_arc(space, P, Q)
        out = slerp_batch(P, np.where(bad[:, None], P, Q), n)
        if bad.any():
            out[bad] = half_circles(P[bad], np.linspace(0.0, 1.0, n))
        return out

    leg = (Piece("xy", ends=ends, sample=arcs),)
    return PlannerCover(action=action, sets=[CoverSet("U", 1, margin, (leg,))],
                        stage=1, name=name)


def point_cover(action: SpaceAction) -> PlannerCover:
    return PlannerCover(action=action,
                        sets=[CoverSet("U", 1, _everywhere, ((_const_piece("x"),),))],
                        stage=1, name="point")


# -------------------------------------------------- circle / torus covers

def circle_cover(action: SpaceAction) -> PlannerCover:
    """Two-set stage-1 planner on a circle: shortest arc + oriented arc."""
    space = action.space
    length = space.length

    def margin_u1(X, Y):
        return length / 2.0 - space.dist(X, Y)

    def margin_u2(X, Y):
        return space.dist(X, Y)

    def oriented(X, Y, m):
        pts = wrapped_lines(X, np.mod(Y - X, length), m, length)
        pts[:, -1, :] = np.mod(Y, length)
        return pts

    shortest = ((Piece("xy", space.geodesic),),)
    return PlannerCover(action=action,
                        sets=[CoverSet("U1", 1, margin_u1, shortest),
                              CoverSet("U2", 1, margin_u2, ((Piece("xy", oriented),),))],
                        stage=1, name="circle")


def arc_cover(action: SpaceAction) -> PlannerCover:
    """Single-set stage-1 planner on a contractible arc (claimed bound 0)."""
    geodesic = ((Piece("xy", action.space.geodesic),),)
    return PlannerCover(action=action, sets=[CoverSet("U", 1, _everywhere, geodesic)],
                        stage=1, name="arc")


def hemisphere_cover(action: SpaceAction) -> PlannerCover:
    """Single-set stage-1 planner on the closed upper hemisphere: route
    through the pole (claimed bound 0; the quotient disk is contractible)."""
    space, north = action.space, _north(action.space)
    # X -> N -> Y: the first arc moves with x, the second with y
    legs = ((_arc_piece(space, "x", _same, north), _arc_piece(space, "y", north, _same)),)
    return PlannerCover(action=action, sets=[CoverSet("U", 1, _everywhere, pieces=legs)],
                        stage=1, name="hemisphere")


def hemisphere_cat_cover(action: SpaceAction) -> PlannerCover:
    """Single-set based cover of the hemisphere disk from the pole."""
    space, north = action.space, _north(action.space)
    legs = ((_arc_piece(space, "y", north, _same),),)
    return PlannerCover(action=action, sets=[CoverSet("U", 1, _everywhere, pieces=legs)],
                        stage=1, kind="cat", basepoint=north,
                        name="hemisphere-cat")


TORUS_CUTS = ((0.5, 0.5), (1.0 / 6.0, 5.0 / 6.0), (5.0 / 6.0, 1.0 / 6.0))


def _circ_dist(vals, cut):
    d = np.abs(np.mod(vals - cut, 1.0))
    return np.minimum(d, 1.0 - d)


def torus_cut_cover(action: SpaceAction) -> PlannerCover:
    """Stage-1 cover of T^2 x T^2 by three branch-cut sets (claimed bound 2)."""
    space = action.space
    sets = []
    for idx, cuts in enumerate(TORUS_CUTS):
        def margin(X, Y, cuts=cuts):
            d = Y - X
            return np.minimum(_circ_dist(d[:, 0], cuts[0]),
                              _circ_dist(d[:, 1], cuts[1]))

        def lines(X, Y, m, cuts=cuts):
            d = Y - X
            rep = np.empty_like(d)
            for ax in range(2):
                rep[:, ax] = np.mod(d[:, ax] - cuts[ax], 1.0) + cuts[ax] - 1.0
            pts = wrapped_lines(X, rep, m, 1.0)
            pts[:, -1, :] = np.mod(Y, 1.0)
            return pts

        sets.append(CoverSet(f"V{idx}", 1, margin, ((Piece("xy", lines),),)))
    return PlannerCover(action=action, sets=sets, stage=1, name="torus-cut")


# ------------------------------------------------------ cover transfer

# rows per block of a leg built from a quotient leg or an action: a block
# holds several arrays of its size at once (the quotient leg, its image,
# the lift check), so blocks are about a quarter of the slerp's
LIFT_ROWS = 1024


def _by_blocks(total, block):
    """One (total, ...) array from block(rows) on row slices of LIFT_ROWS
    rows (one empty slice when total is 0): beside the result only one
    block's arrays are alive."""
    out = None
    for lo in range(0, max(total, 1), LIFT_ROWS):
        rows = slice(lo, lo + LIFT_ROWS)
        part = block(rows)
        if out is None:
            out = np.empty((total,) + part.shape[1:])
        out[rows] = part
    return out


def _section_piece(model: QuotientModel, piece: Piece) -> Piece:
    """The strict section of a quotient piece, sample by sample, as a piece
    of the same inputs: the quotient piece on the projected rows, built in
    blocks of LIFT_ROWS rows."""
    def build(*args):
        *rows, n = args
        projected = [model.project(r) for r in rows]

        def block(at):
            part = piece.build(*(p[at] for p in projected), n)
            flat = model.section(part.reshape(-1, part.shape[-1]))
            return flat.reshape(part.shape[0], part.shape[1], -1)

        return _by_blocks(len(rows[0]) if rows else 1, block)

    return Piece(piece.inputs, build)


def _section_leg(model: QuotientModel, qset: CoverSet) -> tuple:
    """The strict section of quotient set qset's first leg, piece by piece."""
    return tuple(_section_piece(model, piece) for piece in qset.pieces[0])


def _check_strict_section(model: QuotientModel):
    """Raise ValueError unless the model has a strict section q o s = id."""
    if model.section is None:
        raise ValueError("strict-section transfer needs a strict section")
    residual = model.check_section()
    if residual > 1e-9:
        raise ValueError(f"section check failed: residual {residual:.2e}")


def _transferred_sets(model: QuotientModel, quotient_cover: PlannerCover,
                      stage: int, legs) -> list[CoverSet]:
    """One stage-`stage` set per set qset of a stage-1 cover of X/G: the
    margin of qset at the projected pairs, and the pieces legs(qset)."""
    if quotient_cover.stage != 1:
        raise ValueError("quotient cover must be stage 1")

    def margin(qset):
        return lambda X, Y: qset.margin(model.project(X), model.project(Y))

    return [CoverSet(qset.name, stage, margin(qset), legs(qset))
            for qset in quotient_cover.sets]


def cover_from_strict_section(model: QuotientModel,
                              quotient_cover: PlannerCover) -> PlannerCover:
    """Stage-3 cover of X x X from a stage-1 cover of X/G and a strict
    section (on a wedge of copies of a space: onto the identity copy)."""
    _check_strict_section(model)
    sets = _transferred_sets(model, quotient_cover, 3, lambda qset: (
        (_const_piece("x"),), _section_leg(model, qset), (_const_piece("y"),)))
    return PlannerCover(action=model.action, sets=sets, stage=3, name="strict-section")


def _lift_piece(model: QuotientModel, qset: CoverSet) -> Piece:
    """The unique lift from x of quotient set qset's first leg on the
    projected pairs, as a piece of both inputs, built in blocks of LIFT_ROWS
    rows; LiftError when the lift strays from that leg."""
    def build(X, Y, n):
        pX, pY, errs = model.project(X), model.project(Y), []

        def block(rows):
            qleg = qset.build_legs(pX[rows], pY[rows], n)[0]
            lifted = model.lift_path(qleg, X[rows])
            errs.append(np.max(model.quotient_space.dist(
                model.project(lifted), qleg)))
            return lifted

        lifted = _by_blocks(X.shape[0], block)
        err = max(errs)
        if err > 1e-6:
            raise LiftError(f"lift diverged by {err:.2e}")
        return lifted

    return Piece("xy", build)


def cover_from_covering_lift(model: QuotientModel,
                             quotient_cover: PlannerCover) -> PlannerCover:
    """Stage-2 cover of X x X for a free action, by unique path lifting."""
    if not model.action.is_geometrically_free():
        raise ValueError("covering-lift transfer needs a free action")
    sets = _transferred_sets(model, quotient_cover, 2, lambda qset: (
        (_lift_piece(model, qset),), (_const_piece("y"),)))
    return PlannerCover(action=model.action, sets=sets, stage=2, name="covering-lift")


def _end_piece(leg):
    """The constant leg at the end of `leg` (a tuple of pieces), as a piece
    of the inputs of its last piece, from that piece's final sample (an arc
    piece's endpoint Q)."""
    last = leg[-1]

    def build(*args):
        *rows, n = args
        if last.ends is not None:
            end = last.ends(*rows)[1]
        else:
            end = last.build(*rows, piece_samples(n, len(leg)))[:, -1].copy()
        return _const_legs(end, n)

    return Piece(last.inputs, build)


def embed_cover(cover: PlannerCover) -> PlannerCover:
    """Stage k -> k+1 embedding: append the constant leg at the endpoint,
    as a piece (_end_piece)."""
    sets = [CoverSet(cs.name, cs.stage + 1, cs.margin,
                     cs.pieces + ((_end_piece(cs.pieces[-1]),),))
            for cs in cover.sets]
    return PlannerCover(action=cover.action, sets=sets, stage=cover.stage + 1,
                        kind=cover.kind, basepoint=cover.basepoint,
                        name=cover.name + "+embed")


# ------------------------------------------------------------- cat covers

def cat_cover_from_strict_section(model: QuotientModel,
                                  quotient_cat_cover: PlannerCover,
                                  basepoint) -> PlannerCover:
    """Stage-2 based cover of X from a based cover of X/G (strict section)."""
    _check_strict_section(model)
    sets = _transferred_sets(model, quotient_cat_cover, 2, lambda qset: (
        _section_leg(model, qset), (_const_piece("y"),)))
    return PlannerCover(action=model.action, sets=sets, stage=2, kind="cat",
                        basepoint=np.asarray(basepoint, float),
                        name="cat-strict-section")


def cat_cover_covering_lift(action: SpaceAction, basepoint,
                            radius: float) -> PlannerCover:
    """Stage-2 based cover of X for a free action via unique path lifting.

    Set Bg is the geodesic ball of `radius` around g·b, for each group
    element g and the basepoint b; the lift of the projected contraction is
    realized exactly by the deck move g^-1, which carries that center to b.
    """
    if not action.is_geometrically_free():
        raise ValueError("covering-lift cat cover needs a free action")
    space, group = action.space, action.group
    basepoint = np.asarray(basepoint, float)
    sets = []
    for g in range(group.order):
        center, deck = np.asarray(action.act(g, basepoint), float), group.inv(g)

        def margin(X, Y, center=center):
            return radius - space.dist(np.broadcast_to(center, Y.shape), Y)

        def moved_arcs(Y, m, center=center, deck=deck):
            # the arcs center -> y, carried to the basepoint by the deck move
            def block(rows):
                Yb = Y[rows]
                arc = space.geodesic(np.broadcast_to(center, Yb.shape), Yb, m)
                flat = arc.reshape(-1, arc.shape[-1])
                return action.act(deck, flat).reshape(arc.shape)

            return _by_blocks(Y.shape[0], block)

        sets.append(CoverSet(f"B{g}", 2, margin,
                             ((Piece("y", moved_arcs),), (_const_piece("y"),))))
    return PlannerCover(action=action, sets=sets, stage=2, kind="cat",
                        basepoint=basepoint, name="cat-covering-lift")


def cat_geodesic_cover(action: SpaceAction, basepoint) -> PlannerCover:
    """Stage-1 based cover of a sphere: cat(S^n) = 1 with two sets.

    Both sets keep a structural clearance from their degenerate antipode so
    the sections stay uniformly Lipschitz on the accepted region.
    """
    space = action.space
    basepoint = np.asarray(basepoint, float)
    w = np.zeros(space.point_dim)
    w[1] = 1.0
    if abs(float(np.dot(w, basepoint))) > 0.9:
        w = np.zeros(space.point_dim)
        w[2 % space.point_dim] = 1.0
    w_dir = w - np.dot(w, basepoint) * basepoint
    w_dir = w_dir / np.linalg.norm(w_dir)

    def margin_a1(X, Y):
        return space.dist(Y, -basepoint[None, :]) - FIELD_EXCLUSION

    def margin_a2(X, Y):
        return space.dist(Y, basepoint[None, :]) - FIELD_EXCLUSION

    # A1: the arc b -> Y; A2: b -> W -> -b, fixed, then -b -> Y
    a1 = (_arc_piece(space, "y", basepoint, _same),)
    a2 = (_arc_piece(space, "", basepoint, w_dir),
          _arc_piece(space, "", w_dir, -basepoint),
          _arc_piece(space, "y", -basepoint, _same))
    return PlannerCover(action=action,
                        sets=[CoverSet("A1", 1, margin_a1, pieces=(a1,)),
                              CoverSet("A2", 1, margin_a2, pieces=(a2,))],
                        stage=1, kind="cat", basepoint=basepoint, name="cat-geodesic")


def restrict_to_cat(cover: PlannerCover, basepoint) -> PlannerCover:
    """Reuse a tc cover as a based (cat) cover by freezing the first factor."""
    return PlannerCover(action=cover.action, sets=cover.sets, stage=cover.stage,
                        kind="cat", basepoint=np.asarray(basepoint, float),
                        name=cover.name + "@base")
