"""Certified upper bounds from covers, exact lower bounds, reconciliation.

Upper bounds are grid certifications: every sampled pair must be covered
with clearance epsilon, every section output must validate, and section
outputs at adjacent accepted grid pairs must differ leg-wise by at most
L times the input distance.  A refutation is a result, not an error.

Lower bounds are exact F2 computations on simplicial models and never
depend on sampling parameters.
"""
from __future__ import annotations

import mmap
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np

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
from .pathspace import ARC_MAX_SAMPLES, ENDPOINT_TOL, Sphere, residual_terms
from .planners import PlannerCover, piece_samples
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


# rows of (pair, sample) per leg array a certification block may hold
SAMPLE_BUDGET = 2_000_000


def verify_cover(cover: PlannerCover, grid: int = 32, epsilon: float = 0.05,
                 delta: float = 1e-6, modulus: float = 10.0,
                 samples: int = 64) -> Certification:
    """Certify or refute a planner cover on the deterministic grid.

    Pairs (x, y) are swept in blocks of x rows, in grid order, and every
    accepted (pair, set) is evaluated once.  Each block checks coverage,
    validation and continuity along y within its rows, and continuity along
    x on the neighbour edges it closes, from its own legs and from a halo:
    the legs of earlier rows that still have a neighbour ahead.

    Every set is given as pieces (planners.Piece) and evaluated piece by
    piece: a piece of x once per distinct accepted x of a block, a piece of
    y once per distinct accepted y, a constant piece once, a piece of both
    on every accepted pair (_Rows.row).  One rule checks continuity along
    either axis (_Sweep.continuity): a piece of both inputs is scanned per
    two accepted pairs across an edge, a piece of the axis's own input (y
    along y, x along x) once per edge, and the others, the same samples at
    both ends, are skipped.  The largest
    distance over the pieces is the largest over their concatenated legs,
    so verdicts and failures are those of the legs `build_legs` returns.

    No edge is scanned that an a-priori bound clears (_Scans.scan): none
    where L h reaches the space's diameter, and no arc piece on a sphere
    where the bound from the two arcs' endpoints (Sphere.arc_bound) is at
    most the edge's chord threshold (Sphere.arc_threshold, computed once
    per edge).  Arc pieces are held as their endpoints and column-major
    frames, and sampled only on the edges left to scan: for each set on
    each block, the y edges, then the x edges, are cleared, and the rows
    each pass leaves of every arc table are sampled in one call per
    (sampler, n) before that pass is scanned.

    A refutation names one failure.  The x rows are cut into chunks of
    `chunk_rows` rows, and the failure is the first of the first chunk
    that has one, checked in this order: coverage of the chunk's pairs,
    read off the margins before any leg is built; then set by set, orbit
    joints, endpoints, continuity along y, and continuity along x on the
    edges whose larger endpoint lies in the chunk.  A block smaller than
    its chunk that fails is answered by checking its whole chunk again.
    """
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
    sweep = _Sweep(cover, xpts, xnbr, ypts, ynbr, epsilon, delta, modulus,
                   samples, usable_cpus())
    found = first_failure(sweep.jobs())
    if found:
        return Certification(certified=False, bound=None, params=params,
                             sets=len(cover.sets), stage=cover.stage,
                             failure=found)
    return Certification(certified=True, bound=cover.claimed_bound, params=params,
                         sets=len(cover.sets), stage=cover.stage)


@dataclass(eq=False)
class _Arcs:
    """An arc piece on its rows, held as the arcs' frames (Sphere.arc_frames:
    one (2d + 2, rows) array, P, U, theta and r as rows) and ends Q instead
    of their n samples each, with the piece's sampler (Piece.sample)."""

    frames: np.ndarray
    Q: np.ndarray
    n: int
    sample: object

    @property
    def P(self):
        """The starts, (rows, d): a view of the frames, whose row gathers
        are C-ordered as the endpoints were."""
        return self.frames[:self.Q.shape[1]].T

    def samples(self, rows):
        """The piece's samples on `rows`, as the piece builds them."""
        return self.sample(self.P[rows], self.Q[rows], self.n)


class _Scans:
    """The continuity scans of one pass, along y or along x, of one set on
    one block.

    `scan` clears at once what an a-priori bound clears, and keeps the
    rest; `run` samples the rows of every arc table that a kept entry
    reads, one sampling call per (sampler, n) for the whole pass (_draw),
    then scans them all."""

    def __init__(self, sweep):
        self.space, self.allowed = sweep.space, sweep.allowed
        self.chord = sweep.chord
        self.kept = []          # (table, ia, other, ib, into, at)

    def scan(self, table, ia, ib, axis, edge, into, at=None, other=None):
        """The supdiff of the rows ia of a piece's table against the rows ib
        of `other` (default: the same table), along the edges `edge` of
        `axis` ("y" or "x"), each of which may move by L h; run maxes it
        into into[at] (default: into itself, an entry per pair).

        An edge an a-priori bound clears is not scanned, and reads 0: one
        with L h >= the space's diameter, and, for an arc table, one whose
        chord bound (Sphere.arc_bound) is at most the edge's chord threshold
        (Sphere.arc_threshold).  A cleared edge cannot fail, and the largest
        distance of a failing edge is not a cleared piece's, so verdicts and
        failure dicts are those of the full scan."""
        other = table if other is None else other
        keep = self.allowed[axis][edge] < self.space.diameter
        if isinstance(table, _Arcs):
            bound = self.space.arc_bound(table.frames, ia, other.frames, ib)
            keep &= ~(bound <= self.chord[axis][edge])
        keep = np.flatnonzero(keep)
        if keep.size:
            self.kept.append((table, ia[keep], other, ib[keep], into,
                              keep if at is None else at[keep]))

    def run(self):
        """Max the supdiff of every kept entry into its place into[at]."""
        wanted = {}             # arc table -> the row arrays read of it
        for table, ia, other, ib, _, _ in self.kept:
            for t, rows in ((table, ia), (other, ib)):
                if isinstance(t, _Arcs):
                    wanted.setdefault(t, []).append(rows)
        drawn = _draw({t: np.unique(np.concatenate(rows)) for t, rows in wanted.items()})
        for table, ia, other, ib, into, at in self.kept:
            if isinstance(table, _Arcs):
                rows, table = drawn[table]
                ia = np.searchsorted(rows, ia)
            if isinstance(other, _Arcs):
                rows, other = drawn[other]
                ib = np.searchsorted(rows, ib)
            into[at] = np.maximum(into[at], self.space.supdiff_pairs(table, ia, ib, other))


def _draw(wanted):
    """The samples of arc tables on their rows, {table: rows} -> {table:
    (rows, samples)}, drawn in one call per (sampler, n): bit-identical to
    table.samples(rows), as every sampler is row-independent."""
    groups = {}
    for t, rows in wanted.items():
        groups.setdefault((t.sample, t.n), []).append((t, rows))
    drawn = {}
    for (sample, n), members in groups.items():
        legs = sample(np.concatenate([t.P[rows] for t, rows in members]),
                      np.concatenate([t.Q[rows] for t, rows in members]), n)
        cuts = np.cumsum([rows.size for _, rows in members])[:-1]
        for (t, rows), part in zip(members, np.split(legs, cuts)):
            drawn[t] = rows, part
    return drawn


@dataclass
class _Rows:
    """Grid rows x with their acceptance (len(x), m_y) in one cover set and
    that set's leg pieces on them: `tables` holds (inputs, table) per piece
    in leg order, the table the piece's samples or, for an arc piece on a
    sphere, its _Arcs; `starts` marks the first piece of each leg.  A
    piece of both inputs has a row per accepted pair, in row-major order; a
    piece of x a row per x row that accepts a pair (`xrow` maps the rows
    to them, -1 for none), a piece of y a row per column that does (`ycol`),
    a constant piece one row (`row`)."""

    x: np.ndarray
    acc: np.ndarray
    tables: list = field(default_factory=list)
    starts: list = field(default_factory=list)

    def __post_init__(self):
        self.xrow = _positions(self.acc.any(axis=1))
        self.ycol = _positions(self.acc.any(axis=0))
        self.rank = _positions(self.acc.ravel())

    def row(self, inputs, w=None, c=None):
        """The rows of the pairs (x[w], column c) in the table of a piece of
        `inputs`: the pair's rank among the accepted pairs ("xy"), xrow[w]
        ("x"), ycol[c] ("y") or 0 (""); by default those of every accepted
        pair in row-major order, for "xy" every row (a slice)."""
        if w is None:
            if inputs == "xy":
                return slice(None)
            w, c = np.nonzero(self.acc)
        if inputs == "xy":
            return self.rank[w * self.acc.shape[1] + c]
        if inputs == "x":
            return self.xrow[w]
        return self.ycol[c] if inputs == "y" else np.zeros(len(w), dtype=np.intp)

    def at(self, inputs, grain):
        """The rows of the table of a piece of `inputs` for the rows of a
        grain that holds those inputs: the accepted pairs ("xy", in the
        order of row), the x rows that accept a pair ("x"), the columns
        that do ("y") or one row ("")."""
        if grain == "xy":
            return self.row(inputs)
        if inputs == grain:
            return slice(None)
        size = {"x": self.xrow, "y": self.ycol}[grain].max() + 1
        return np.zeros(size, dtype=np.intp)


def _positions(mask):
    """Each entry's rank among the True entries of mask, -1 where False."""
    out = np.full(mask.size, -1, dtype=np.intp)
    out[mask] = np.arange(np.count_nonzero(mask))
    return out


def _failure(reason, **detail):
    return {"reason": reason, **detail}


def _continuity_failure(cs, pair, neighbor, supdiff, allowed):
    return _failure("continuity", set=cs.name,
                    pair=[pair[0].tolist(), pair[1].tolist()],
                    neighbor=[neighbor[0].tolist(), neighbor[1].tolist()],
                    supdiff=float(supdiff), allowed=float(allowed))


class _Sweep:
    """The block sweep of one verify_cover call, split into runs (jobs)."""

    def __init__(self, cover, xpts, xnbr, ypts, ynbr, epsilon, delta, modulus,
                 samples, cpus):
        self.cover, self.action = cover, cover.action
        self.space = cover.action.space
        self.xpts, self.xnbr, self.ypts, self.ynbr = xpts, xnbr, ypts, ynbr
        self.epsilon, self.delta, self.modulus = epsilon, delta, modulus
        self.samples = samples
        self.arcs = isinstance(self.space, Sphere)
        m_x, m_y = self.m_x, self.m_y = len(xpts), len(ypts)
        self.chunk_rows = max(1, SAMPLE_BUDGET // (m_y * samples))
        self.ydist = self.space.dist(ypts[ynbr[:, 0]], ypts[ynbr[:, 1]])
        self.xdist = self.space.dist(xpts[xnbr[:, 0]], xpts[xnbr[:, 1]])
        # L h on each edge along y and along x, and the chord threshold of
        # arc pieces on a sphere (_Scans.scan)
        self.allowed = {"y": modulus * self.ydist, "x": modulus * self.xdist}
        self.chord = {axis: self.space.arc_threshold(allowed)
                      for axis, allowed in self.allowed.items()} if self.arcs else {}
        # the edge (a, b) is checked by the block holding max(a, b); row x
        # stays in the halo while x < boundary <= reach[x]
        self.closer = xnbr.max(axis=1)
        self.reach = np.full(m_x, -1, dtype=np.intp)
        np.maximum.at(self.reach, xnbr.min(axis=1), self.closer)
        held = self.reach >= 0
        opened = np.bincount(np.flatnonzero(held) + 1, minlength=m_x + 1)
        closed = np.bincount(self.reach[held] + 1, minlength=m_x + 1)
        most_open = int(np.cumsum(opened - closed).max())
        # the halo counts against the sample budget, down to a quarter
        # chunk; and there is a block for every CPU
        rows = max(self.chunk_rows // 4, self.chunk_rows - most_open, 1)
        rows = min(rows, -(-m_x // cpus))
        self.cpus = cpus
        self.blocks = []
        for c0 in range(0, m_x, self.chunk_rows):
            c1 = min(c0 + self.chunk_rows, m_x)
            cuts = np.linspace(c0, c1, -(-(c1 - c0) // rows) + 1).round()
            self.blocks += list(zip(cuts[:-1].astype(int).tolist(),
                                    cuts[1:].astype(int).tolist()))

    def jobs(self):
        """One job per CPU, each a contiguous run of blocks.  A run that
        fails marks its flag (fork-shared), and the runs after it end at
        their next block: first_failure would stop them, but meanwhile they
        compete with the failing run's check of its whole chunk."""
        count = max(1, min(self.cpus, len(self.blocks)))
        cut = np.linspace(0, len(self.blocks), count + 1).round().astype(int)
        failed = mmap.mmap(-1, count)
        return [partial(self.run, int(lo), int(hi), index, failed)
                for index, (lo, hi) in enumerate(zip(cut[:-1], cut[1:]))]

    def run(self, first, last, index, failed):
        """Blocks [first, last): the first failure of the first chunk that
        has one, else None."""
        start = self.blocks[first][0]
        halo: dict[int, list[_Rows]] = {}     # set index -> blocks held
        for b in range(first, last):
            if any(failed[:index]):
                return None
            x0, x1 = self.blocks[b]
            found = self.rows_failure(x0, x1, halo, start)
            if found:
                failed[index] = 1
                halo.clear()                  # free its legs for the chunk
                c0 = x0 - x0 % self.chunk_rows
                c1 = min(c0 + self.chunk_rows, self.m_x)
                if (x0, x1) == (c0, c1):
                    return found
                return None if any(failed[:index]) else self.rows_failure(c0, c1, {}, c0)
        return None

    def sections(self, s, x, flat, X, Y):
        """_Rows of set s on the x rows `x`, where `flat` accepts the pairs
        (X, Y) (x-major).  Each piece is built on just the inputs it
        depends on."""
        sec = _Rows(x, flat.reshape(x.size, self.m_y))
        rows = np.flatnonzero(flat)
        inputs = {"xy": (X[rows], Y[rows]),
                  "x": (self.xpts[x[sec.xrow >= 0]], None),
                  "y": (None, self.ypts[sec.ycol >= 0]), "": (None, None)}
        for leg in self.cover.sets[s].pieces:
            n = piece_samples(self.samples, len(leg))
            for i, piece in enumerate(leg):
                rows = inputs[piece.inputs]
                if piece.ends is not None and self.arcs and n <= ARC_MAX_SAMPLES:
                    P, Q = piece.endpoints(*rows)
                    table = _Arcs(self.space.arc_frames(P, Q), Q, n, piece.sample)
                else:
                    table = piece.on(*rows, n)
                sec.tables.append((piece.inputs, table))
                sec.starts.append(i == 0)
        return sec

    def rows_failure(self, x0, x1, halo, start):
        """The first failure on the x rows [x0, x1), in the order of
        verify_cover, or None.  `halo` holds, per set, the earlier rows of
        a sweep from `start` that still have a neighbour ahead (advance)."""
        X = np.repeat(self.xpts[x0:x1], self.m_y, axis=0)
        Y = np.tile(self.ypts, (x1 - x0, 1))
        accepted = [cs.margin(X, Y) >= self.epsilon for cs in self.cover.sets]
        covered = np.zeros(len(X), dtype=bool)
        for acc in accepted:
            covered |= acc
        if not covered.all():
            r = int(np.argmax(~covered))
            return _failure("coverage", pair=[X[r].tolist(), Y[r].tolist()])
        a, b = self.ynbr.T
        for s, (cs, acc) in enumerate(zip(self.cover.sets, accepted)):
            if not acc.any():
                continue
            sec = self.sections(s, np.arange(x0, x1), acc, X, Y)
            found = self.validation(cs, sec, np.flatnonzero(acc), X, Y)
            if found:
                return found
            # the y edges with both ends accepted, row by row
            w, e = np.divmod(np.flatnonzero(sec.acc[:, a] & sec.acc[:, b]), a.size)
            found = (self.continuity(s, "y", [sec], w, a[e], w, b[e], e)
                     or self.advance(halo, s, start, sec))
            if found:
                return found
            del sec
        return None

    def validation(self, cs, sec, rows, X, Y):
        """The first orbit-joint, then endpoint, failure of the accepted
        pairs `rows` (of X, Y) of set cs, or None.  Each residual
        (residual_terms) is computed once at the grain of its operands, the
        union of their inputs (X counts as "x", Y as "y"), and read in pair
        order through _Rows.row: per accepted x row, per accepted column,
        once, or per pair.  The bad pairs, the first of them and the
        largest residual are those of every pair computed alone."""
        def kind(op):
            return op if isinstance(op, str) else sec.tables[op[0]][0]

        def operand(op, grain):
            # a grid input, or sample j (0 or -1) of table t: an arc
            # table's P or Q, bit-equal to those samples (P C-ordered, as
            # the samples are)
            if op == "x":
                return X[rows] if grain == "xy" else self.xpts[sec.x[sec.xrow >= 0]]
            if op == "y":
                return Y[rows] if grain == "xy" else self.ypts[sec.ycol >= 0]
            (inputs, table), j = sec.tables[op[0]], op[1]
            at = sec.at(inputs, grain)
            if not isinstance(table, _Arcs):
                return table[:, j][at]
            return table.Q[at] if j else np.ascontiguousarray(table.P[at])

        def residual(measure, a, b):
            # (the residual's grain, its value on each row of the grain)
            grain = "".join(sorted(set(kind(a) + kind(b))))
            return grain, measure(operand(a, grain), operand(b, grain))

        def first_bad(*grained):
            # the first pair at which any of the (grain, bad) masks is set
            bad = np.zeros(rows.size, dtype=bool)
            for grain, mask in grained:
                bad |= mask[sec.row(grain)]
            r = rows[int(np.argmax(bad))]
            return [X[r].tolist(), Y[r].tolist()]

        firsts = [t for t, first in enumerate(sec.starts) if first]
        lasts = [t - 1 for t in firsts[1:]] + [len(sec.tables) - 1]
        joints, ends = residual_terms(self.action, [(t, 0) for t in firsts],
                                      [(t, -1) for t in lasts], "x", "y")
        for term in joints:
            grain, joint = residual(*term)
            bad = joint > self.delta
            if bad.any():
                return _failure("validation", set=cs.name, pair=first_bad((grain, bad)),
                                joint_residual=float(joint.max()))
        (g0, res0), (g1, res1) = (residual(*term) for term in ends)
        bad0, bad1 = res0 > ENDPOINT_TOL, res1 > ENDPOINT_TOL
        if bad0.any() or bad1.any():
            return _failure("validation", set=cs.name,
                            pair=first_bad((g0, bad0), (g1, bad1)),
                            endpoint_residual=float(max(res0.max(), res1.max())))
        return None

    def continuity(self, s, axis, parts, wa, ca, wb, cb, edge):
        """The first continuity failure of set s along `axis` ("y" or "x"),
        or None.  Entry i, in failure order, joins the pair at window row
        wa[i], column ca[i] to (wb[i], cb[i]) across edge[i] of the axis;
        the window is the rows of `parts`, one after another.  A piece of
        both inputs is scanned per entry, one of the axis's own input once
        per edge (it has the same rows on all the edge's entries), the
        others not at all; with more than one part, the scans are grouped
        by the parts of the two ends.  _Scans samples their arcs together."""
        if not edge.size:
            return None
        n = len(parts)
        if n > 1:
            # each window row's part, and its row in that part
            sizes = [part.x.size for part in parts]
            owner = np.repeat(np.arange(n), sizes)
            local = np.arange(owner.size) - np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
        kinds = {inputs for inputs, _ in parts[-1].tables}
        # (inputs, into, the entries scanned, their places in `into`)
        supdiff = np.zeros(edge.size)
        passes = [("xy", supdiff, slice(None), None)] if "xy" in kinds else []
        if axis in kinds:
            # one entry of each edge, whose distance goes to per_edge[edge]
            one = np.full(self.allowed[axis].size, -1, dtype=np.intp)
            one[edge] = np.arange(edge.size)
            ids = np.flatnonzero(one >= 0)
            per_edge = np.zeros(one.size)
            passes.append((axis, per_edge, one[ids], ids))
        scans = _Scans(self)
        for inputs, into, pick, place in passes:
            a, b, c_a, c_b, e = wa[pick], wb[pick], ca[pick], cb[pick], edge[pick]
            groups = [(0, slice(None))]
            if n > 1:
                combo = owner[a] * n + owner[b]
                groups = [(c, np.flatnonzero(combo == c))
                          for c in np.flatnonzero(np.bincount(combo))]
                a, b = local[a], local[b]
            for c, sel in groups:
                part_a, part_b = parts[c // n], parts[c % n]
                ia = part_a.row(inputs, a[sel], c_a[sel])
                ib = part_b.row(inputs, b[sel], c_b[sel])
                at = place[sel] if place is not None else (None if n == 1 else sel)
                for (kind, leg_a), (_, leg_b) in zip(part_a.tables, part_b.tables):
                    if kind == inputs:
                        scans.scan(leg_a, ia, ib, axis, e[sel], into, at, leg_b)
        scans.run()
        if axis in kinds:
            supdiff = np.maximum(supdiff, per_edge[edge])
        allowed = self.allowed[axis][edge]
        bad = supdiff > allowed
        if not bad.any():
            return None
        i = int(np.argmax(bad))
        x = np.concatenate([part.x for part in parts])
        return _continuity_failure(self.cover.sets[s], (self.xpts[x[wa[i]]], self.ypts[ca[i]]),
                                   (self.xpts[x[wb[i]]], self.ypts[cb[i]]), supdiff[i],
                                   allowed[i])

    def advance(self, halo, s, start, sec):
        """x-continuity of set s on the edges block `sec` closes, from it and
        the set's halo: its first failure or None; then the block joins the
        halo, from which every block with no neighbour ahead any more drops."""
        x0, x1 = int(sec.x[0]), int(sec.x[-1]) + 1
        parts = halo.get(s)
        if parts is None:
            parts = [self.open_rows(s, start, x0)]
        parts = parts + [sec]
        halo[s] = [part for part in parts
                   if part.x.size and self.reach[part.x].max() >= x1]
        edges = np.flatnonzero((self.closer >= x0) & (self.closer < x1))
        # window rows: the parts' rows, then an all-rejecting row for
        # endpoints in none (rows whose pairs this set never accepted)
        window = np.vstack([part.acc for part in parts]
                           + [np.zeros((1, self.m_y), dtype=bool)])
        loc = np.full(self.m_x, -1, dtype=np.intp)
        loc[np.concatenate([part.x for part in parts])] = np.arange(window.shape[0] - 1)
        la, lb = loc[self.xnbr[edges, 0]], loc[self.xnbr[edges, 1]]
        y, j = np.nonzero((window[la] & window[lb]).T)
        return self.continuity(s, "x", parts, la[j], y, lb[j], y, edges[j])

    def open_rows(self, s, start, x0):
        """Set s on the rows before `start` still open at x0: the halo a run
        that starts at `start` rebuilds (with no tables when it accepts no
        pair there, so that no edge reaches it)."""
        cs, m_y = self.cover.sets[s], self.m_y
        xs = np.flatnonzero(self.reach[:start] >= x0)
        acc = np.zeros((xs.size, m_y), dtype=bool)
        if xs.size:
            X = np.repeat(self.xpts[xs], m_y, axis=0)
            Y = np.tile(self.ypts, (xs.size, 1))
            flat = cs.margin(X, Y) >= self.epsilon
            if flat.any():
                return self.sections(s, xs, flat, X, Y)
            acc = flat.reshape(xs.size, m_y)
        return _Rows(xs, acc)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# seconds a stopped child has to unwind its job before it is killed outright
STOP_GRACE = 2.0


def first_failure(jobs):
    """The first failure of the zero-argument jobs.

    A job returns None or a failure, and the first failure in job order
    wins and stops the run.  Jobs run in min(usable_cpus(), len(jobs))
    forked children, and serially in this process when that is one.  Covers
    hold closures, which cannot be pickled, so the jobs reach the children
    by fork inheritance: child k runs jobs k, k + w, ... and pickles each
    result, or the exception a job raised, into a pipe of its own.  The
    caller reads the pipes in job order, so the outcome is exactly that of
    the serial loop.  At the first failure, the first exception or the last
    result, every child still running is stopped (_stop) and reaped: no
    child outlives the call.  A job's exception is raised here with its
    type and message (its traceback in the child as the cause); a child
    that dies before its result raises BrokenProcessPool.
    """
    workers = min(usable_cpus(), len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        return _first(job() for job in jobs)
    children = []
    try:
        for k in range(workers):
            children.append(_fork_child(jobs[k::workers]))
        return _first(_result(children[i % workers][1]) for i in range(len(jobs)))
    finally:
        _stop(children)


def _first(results):
    return next((found for found in results if found), None)


class _Stop(BaseException):
    """Raised in a child at its next Python instruction when it is stopped:
    the job unwinds (its finally blocks run) and the child exits."""


def _raise_stop(signum, frame):
    raise _Stop


class _ChildTraceback(Exception):
    """The traceback of a job's exception in the child that raised it."""


def _fork_child(jobs):
    """Fork a child that runs `jobs` in order and writes each pickled
    (raised, value, traceback) to a pipe; (pid, the pipe's read end)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    # the child: it leaves by os._exit only, never back into the caller
    # (the outer finally catches a stop raised in the inner one)
    try:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, _raise_stop)
            os.close(read)
            with os.fdopen(write, "wb") as out:
                for job in jobs:
                    try:
                        message = pickle.dumps((False, job(), None))
                    except Exception as exc:
                        message = _pickled_exception(exc)
                    out.write(message)
                    out.flush()
        finally:
            os._exit(0)
    finally:
        os._exit(0)


def _pickled_exception(exc):
    """(True, exc, its traceback) pickled; an exception that does not
    survive pickling goes as a RuntimeError naming its type and message."""
    tb = traceback.format_exc()
    try:
        message = pickle.dumps((True, exc, tb))
        pickle.loads(message)
    except Exception:
        message = pickle.dumps((True, RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
    return message


def _result(pipe):
    """The next result of a child from its pipe; its job's exception raised."""
    try:
        raised, value, tb = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool("a certification child died before its result") from None
    if raised:
        value.__cause__ = _ChildTraceback(tb)
        raise value
    return value


def _stop(children):
    """Stop and reap the children: their pipes are closed and each gets
    SIGTERM, which raises _Stop at its next Python instruction, not at the
    end of its block.  A job so stopped unwinds, so that whatever its
    finally blocks write (a tracer's spool line) is written whole.  A child
    still running after STOP_GRACE seconds gets SIGKILL."""
    for pid, pipe in children:
        pipe.close()
        os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + STOP_GRACE
    for pid, _ in children:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.0002)


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
        index = {d: K.simplex_index.find(d, diag.pairs[T.rows[d]][..., coord])
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
    Q, _, base = quotient_complex(action)
    summary = cohomology(Q)
    K = base.complex
    # Q's vertices are the orbits, in the order of their least members
    orbit = base.perm.min(axis=0)
    to_q = np.searchsorted(np.unique(orbit), orbit)
    pullbacks: list[Cochain] = []
    for d in range(1, min(Q.dimension, K.dimension) + 1):
        # a simplex the orbit map collapses (not found in Q) pulls back to 0
        image = Q.simplex_index.find(d, np.sort(to_q[base.index.rows[d]], axis=1))
        hit = image >= 0
        for rep in summary.representatives[d]:
            vec = np.zeros(K.n_simplices(d), dtype=np.uint8)
            vec[hit] = rep.coeffs[image[hit]]
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
