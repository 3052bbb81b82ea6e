"""Geometric configuration spaces, group actions on them, and the
residuals of broken paths.

A path is a leg array: its samples along the second axis, (M, n, d) for M
paths at once.  A broken path is a sequence of legs whose consecutive
break points lie in a common orbit of the attached symmetry;
`leg_residuals` measures how far a batch of them is from that, and from
its requested endpoints, so that verification can treat failures as
results.

All point sets are numpy arrays whose last axis is the model coordinate:
spheres use unit vectors, flat tori coordinates in [0,1) per axis, wedges
pairs (branch index, angle).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._kernels import coord_dot, slerp_batch
from .errors import GeodesicDegeneracyError
from .symmetry import FiniteGroup

ENDPOINT_TOL = 1e-6
ISOMETRY_TOL = 1e-9
# edges per gather in the sup-distance scans: keeps the (chunk, n, d)
# temporaries cache-sized instead of materializing (E, n, d) arrays
EDGE_CHUNK = 256
# below this sin(theta), a near-antipodal arc gets NaN frames, so that no
# bound clears an edge of it, and a short one counts as a point within a
# radius (Sphere.frames); well above slerp_into's 1e-9 lerp cutoff
ARC_MIN_SIN = 1e-3
# the error budget of Sphere.frame_bound, once as a chord and once as an angle.
# An arc edge whose chord bound c (frame_bound) has 2 arcsin(min(1, (c + S) / 2))
# + S <= L h, S = ARC_SLACK, cannot fail.  The sweep compares in chord space
# instead, with no arcsin per edge: for L h < pi (the diameter clears the
# rest), arcsin is increasing on [0, 1], so the rule holds exactly when
#     c <= 2 sin((L h - S) / 2) - S,
# and never when L h < S (the right side is then negative).  Sphere.frame_threshold
# computes the right side once per edge and subtracts ARC_CHORD_MARGIN.  The
# margin covers the rounding of that side (a subtraction, a halving, sin
# within an ulp, a doubling and a subtraction: a few ulps of 2, under 1e-15)
# and the rounding in which frame_bound's chord differs from a chord summed
# in another order (a few ulps of c < 8, under 1e-14).  Past the margin,
# c <= threshold implies the angle rule with room to spare: arcsin has a
# slope of at least 1, so the angle falls short of L h by at least the
# margin, which also outweighs the rounding of an arcsin evaluated there.
# A cleared edge is thus one the angle rule clears.
ARC_SLACK = 1e-9
ARC_CHORD_MARGIN = 1e-12
# arcs of more samples than this are scanned sample by sample: the
# recurrence error of their legs is no longer well inside ARC_SLACK
ARC_MAX_SAMPLES = 1024
# the grids on which is_geometrically_free and check_section test an action
FREENESS_GRID = 32
SECTION_GRID = 64


def sampling_seed() -> int:
    """The recorded seed for every randomized sampling (EFFTC_SEED)."""
    return int(os.environ.get("EFFTC_SEED", "20250810"))


class Space:
    """Base class: a metric model with deterministic verification grids.

    A space states its geometry once: `dist`, the batched geodesics
    `_geodesics`, `grid` and its neighbour rule `grid_neighbor_pairs`.
    `geodesic` shapes the points for every space, and `supdiff_pairs`
    scans any space through `dist`.  A space that can bound the distance
    between two pieces from their ends alone gives `frames`, and with them
    `frame_bound` and `frame_threshold` (Sphere).
    """

    name = "space"
    point_dim = 1
    # an upper bound of supdiff over any two leg arrays: no continuity check
    # with modulus * h >= diameter can fail (inf: none known)
    diameter = np.inf

    def dist(self, p, q):
        raise NotImplementedError

    def geodesic(self, p, q, n):
        """Shortest constant-speed path in n samples: two points (d,) give
        (n, d); otherwise both are broadcast to (M, d) and give (M, n, d)."""
        p, q = np.asarray(p, float), np.asarray(q, float)
        P, Q = np.broadcast_arrays(np.atleast_2d(p), np.atleast_2d(q))
        pts = self._geodesics(P, Q, n)
        return pts[0] if p.ndim == 1 and q.ndim == 1 else pts

    def _geodesics(self, P, Q, n):
        """The geodesics from the rows of P to those of Q: (M, d), (M, d)
        -> (M, n, d)."""
        raise NotImplementedError

    def grid(self, resolution):
        raise NotImplementedError

    def grid_neighbor_pairs(self, resolution):
        """Combinatorial adjacency on grid(resolution), as an (E,2) array."""
        raise NotImplementedError

    def random_points(self, rng, m):
        raise NotImplementedError

    def frames(self, P, Q, n):
        """The frames of the pieces of n samples with ends P and Q, from
        which frame_bound bounds their distances, or None: no bound is
        known here, and each piece is built whole."""
        return None

    def supdiff(self, a, b):
        """Max over the sample axis of dist(a, b); a, b shaped (..., n, d)."""
        return self.dist(a, b).max(axis=-1)

    def supdiff_pairs(self, leg, ia, ib, other=None):
        """supdiff(leg[ia], other[ib]) without materializing the gathers;
        `other` defaults to `leg`."""
        other = leg if other is None else other
        out = np.empty(ia.shape[0])
        for lo in range(0, ia.shape[0], EDGE_CHUNK):
            hi = lo + EDGE_CHUNK
            out[lo:hi] = self.supdiff(leg[ia[lo:hi]], other[ib[lo:hi]])
        return out


def no_arc(space, P, Q):
    """The rows (P, Q) of a sphere model too near antipodal to have a
    unique arc between them, by the space's own metric: a mask."""
    return space.dist(P, Q) > np.pi - 1e-6


def check_arcs(space, P, Q):
    """GeodesicDegeneracyError unless every row (P, Q) has a unique arc
    (no_arc)."""
    if np.any(no_arc(space, P, Q)):
        raise GeodesicDegeneracyError("antipodal endpoints have no unique arc")


def on_first(f):
    """The point map that returns a float copy of its points with f applied
    to coordinate 0 (the rest unchanged)."""
    def move(p):
        out = np.array(p, dtype=float, copy=True)
        out[..., 0] = f(out[..., 0])
        return out

    return move


def wrapped_lines(p, rep, n, period):
    """Samples t = 0..1 of the lines p + t rep, taken mod period in place:
    (M, d), (M, d) -> (M, n, d), holding no array beyond the result."""
    t = np.linspace(0.0, 1.0, n)
    pts = t[None, :, None] * rep[:, None, :]
    pts += p[:, None, :]
    return np.mod(pts, period, out=pts)


def _ring(r):
    """The edges (k, k + 1 mod r) of a ring of r points, in order of k."""
    k = np.arange(r, dtype=np.intp)
    return np.stack([k, np.roll(k, -1)], axis=1)


class PointSpace(Space):
    name = "point"
    point_dim = 1

    def dist(self, p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        return np.zeros(np.broadcast(p[..., 0], q[..., 0]).shape)

    def _geodesics(self, P, Q, n):
        return np.zeros((P.shape[0], n, 1))

    def grid(self, resolution):
        return np.zeros((1, 1))

    def grid_neighbor_pairs(self, resolution):
        return np.zeros((0, 2), dtype=np.intp)

    def random_points(self, rng, m):
        return np.zeros((m, 1))


class Sphere(Space):
    """Unit sphere S^n in (n+1)-space with the geodesic (angle) metric."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.n = n
        self.point_dim = n + 1
        self.name = f"sphere{n}"
        # supdiff clips its chord at 2, so no scan reads more than pi
        self.diameter = np.pi

    def dist(self, p, q):
        d = np.asarray(p, float) - np.asarray(q, float)
        # np.linalg.norm(d, axis=-1), bit for bit (coord_dot)
        chord = np.sqrt(coord_dot(d, d))
        return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))

    def _geodesics(self, P, Q, n):
        check_arcs(self, P, Q)
        return slerp_batch(P, Q, n)

    def supdiff_pairs(self, leg, ia, ib, other=None):
        """Space.supdiff_pairs, bit for bit, without the temporaries of its
        gathers and subtraction.  It is kept for the sphere alone because it
        was measured: over three serial `sphere-refute` passes (one CPU,
        under cProfile), the base scan took 0.055 s and this one 0.020 s,
        a saving of about 2 % of the passes."""
        chord2 = np.empty(ia.shape[0])
        for lo in range(0, ia.shape[0], EDGE_CHUNK):
            hi = lo + EDGE_CHUNK
            d = leg[ia[lo:hi]]
            d -= (leg if other is None else other)[ib[lo:hi]]
            chord2[lo:hi] = coord_dot(d, d).max(axis=-1)
        return 2.0 * np.arcsin(np.clip(np.sqrt(chord2) / 2.0, 0.0, 1.0))

    @staticmethod
    def frames(P, Q, n):
        """The frames of the arcs of n samples slerp_into draws from the
        rows of P to those of Q, column-major: one (2d + 2, rows) array
        whose rows are the coordinates of P, then of U, then theta, then r,
        such that every sample lies within r (and ARC_SLACK) of
        cos(t theta) P + sin(t theta) U at its t; None above ARC_MAX_SAMPLES.

        - Where sin(theta) >= ARC_MIN_SIN, U = (Q - cos(theta) P) / sin(theta)
          with theta computed as slerp_into computes it, and r = 0: the
          recurrence draws exactly that curve, up to its rounding.
        - A short arc (sin(theta) < ARC_MIN_SIN, theta < pi / 2) is its
          start P, U = 0 and theta = 0, within r = 2 |Q - P| + theta^2: its
          lerp samples lie within |Q - P| + |Q - P|^2 / 8 of P, its
          recurrence samples within (1 - cos theta) + |Q - cos(theta) P|.
        - A near-antipodal arc has NaN frames: frame_bound gives no bound.

        A constant piece (Q = P) is a short arc of length 0: P, U = 0,
        theta = 0 and r about 0."""
        if n > ARC_MAX_SAMPLES:
            return None
        P, Q = np.asarray(P, float), np.asarray(Q, float)
        d = P.shape[1]
        theta = np.arccos(np.clip(coord_dot(P, Q), -1.0, 1.0))
        sin = np.sin(theta)
        flat = sin < ARC_MIN_SIN
        short = flat & (theta < np.pi / 2)
        frames = np.empty((2 * d + 2, theta.size))
        frames[:d] = P.T
        r = frames[-1]
        r[:] = 0.0
        chord = Q[short] - P[short]
        r[short] = 2.0 * np.sqrt(coord_dot(chord, chord)) + theta[short] ** 2
        theta[flat] = np.where(short[flat], 0.0, np.nan)
        frames[-2] = theta
        sin[flat] = np.where(short[flat], np.inf, np.nan)    # U = 0, or NaN
        cos = np.cos(theta)
        for c in range(d):
            np.divide(Q[:, c] - cos * P[:, c], sin, out=frames[d + c])
        return frames

    @staticmethod
    def frame_bound(F, ia, F2, ib):
        """An upper bound of the chord between the sampled arcs with frames
        F[:, ia] and F2[:, ib] (frames), entry by entry; NaN where a
        frame is.  Each frame row is gathered as a column of its own, so no
        (entries, 2d + 2) array is made.

        For every t in [0, 1], arcs cos(t theta) P + sin(t theta) U with
        orthonormal (P, U), or with U = 0 and theta = 0, satisfy
            |gamma(t) - gamma2(t)| <= sqrt(|P - P2|^2 + |U - U2|^2) + |theta - theta2|:
        Cauchy-Schwarz bounds cos(t theta)(P - P2) + sin(t theta)(U - U2), and
        the rest, (cos a - cos b) P2 + (sin a - sin b) U2 (expanded about
        the arc that is not short), is at most |a - b|.  The radii r and r2
        are added.  One ARC_SLACK on this chord covers the recurrence error
        of the sampled legs against their curves (below 3e-13 at 64 samples
        and 1e-10 at ARC_MAX_SAMPLES, measured with sin(theta) down to
        ARC_MIN_SIN), the cancellation in U (about eps / sin(theta) <= 1e-12)
        and the rounding of the scan's chord; frame_threshold takes it off
        the threshold."""
        moved = F.shape[0] - 2
        chord = F[0].take(ia)
        chord -= F2[0].take(ib)
        chord *= chord
        for c in range(1, moved):
            diff = F[c].take(ia)
            diff -= F2[c].take(ib)
            diff *= diff
            chord += diff
        np.sqrt(chord, out=chord)
        diff = F[moved].take(ia)
        diff -= F2[moved].take(ib)
        chord += np.abs(diff, out=diff)
        chord += F[-1].take(ia)
        chord += F2[-1].take(ib)
        return chord

    @staticmethod
    def frame_threshold(allowed):
        """The chord threshold of each edge that may move by `allowed` =
        L h < pi: a frame_bound at most this clears the edge.  It is
        2 sin((L h - ARC_SLACK) / 2) - ARC_SLACK less ARC_CHORD_MARGIN, the
        angle rule 2 arcsin(min(1, (c + ARC_SLACK) / 2)) + ARC_SLACK <= L h
        solved for c (the argument is next to ARC_SLACK)."""
        half = np.minimum((np.asarray(allowed, float) - ARC_SLACK) / 2.0, np.pi / 2.0)
        return 2.0 * np.sin(half) - (ARC_SLACK + ARC_CHORD_MARGIN)

    def _ring_sizes(self, resolution):
        r = resolution + (resolution % 2)
        theta = np.pi * (np.arange(r) + 1) / (r + 1)
        sizes = np.maximum(4, 2 * np.round((r / 2) * np.sin(theta)).astype(int))
        return theta, sizes

    def grid(self, resolution):
        """Deterministic quasi-uniform grid, closed under coordinate sign flips.

        For S^2: latitude rings about the first axis with an even number of
        evenly spaced longitudes proportional to sin(theta) (poles omitted),
        so spacing stays near-isotropic and every catalog involution maps
        grid points to grid points.
        """
        if self.n == 1:
            r = resolution + (resolution % 2)
            ang = 2 * np.pi * np.arange(r) / r
            return np.stack([np.cos(ang), np.sin(ang)], axis=1)
        if self.n == 2:
            theta, sizes = self._ring_sizes(resolution)
            pts = []
            for th, nl in zip(theta, sizes):
                phi = 2 * np.pi * np.arange(nl) / nl
                ring = np.stack([np.full(nl, np.cos(th)),
                                 np.sin(th) * np.cos(phi),
                                 np.sin(th) * np.sin(phi)], axis=-1)
                pts.append(ring)
            return np.concatenate(pts, axis=0)
        raise NotImplementedError("verification grids implemented for S^1, S^2")

    def grid_neighbor_pairs(self, resolution):
        """Ring edges (i, next on the ring), so each ring's wrap edge runs
        from its last point to its first; edges between consecutive rings,
        from each point of either ring to the nearest longitude of the
        other, as (lower index, higher index).  Distinct, in lexicographic
        order."""
        if self.n == 1:
            return _ring(resolution + (resolution % 2))
        if self.n == 2:
            _, sizes = self._ring_sizes(resolution)
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            ring = np.repeat(np.arange(sizes.size), sizes)
            k = np.arange(offsets[-1]) - offsets[ring]
            nl = sizes[ring]
            along = [offsets[ring] + k, offsets[ring] + (k + 1) % nl]
            # from ring j down to ring j + 1, and from ring j + 1 up to ring j
            down = ring < sizes.size - 1
            nxt = sizes[ring[down] + 1]
            k2 = np.round(k[down] * nxt / nl[down]).astype(np.intp) % nxt
            to_next = [np.flatnonzero(down), offsets[ring[down] + 1] + k2]
            up = ring > 0
            prev = sizes[ring[up] - 1]
            k1 = np.round(k[up] * prev / nl[up]).astype(np.intp) % prev
            to_prev = [offsets[ring[up] - 1] + k1, np.flatnonzero(up)]
            edges = np.stack([np.concatenate(side)
                              for side in zip(along, to_next, to_prev)], axis=1)
            return np.ascontiguousarray(np.unique(edges, axis=0), dtype=np.intp)
        raise NotImplementedError

    def random_points(self, rng, m):
        v = rng.normal(size=(m, self.point_dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)


class FlatTorus(Space):
    """T^n = [0,1)^n with the wraparound Euclidean metric."""

    def __init__(self, n: int):
        self.n = n
        self.point_dim = n
        self.name = f"torus{n}"
        # every coordinate of a minimal representative lies in [-1/2, 1/2]
        self.diameter = np.sqrt(n) / 2.0

    @staticmethod
    def _min_rep(delta):
        """Coordinatewise minimal representative in [-1/2, 1/2).

        A tie |delta| = 1/2 resolves to -1/2, the lexicographically smaller
        unwrapped endpoint, keeping geodesics deterministic.
        """
        return np.mod(np.asarray(delta, float) + 0.5, 1.0) - 0.5

    def dist(self, p, q):
        rep = self._min_rep(np.asarray(q, float) - np.asarray(p, float))
        return np.sqrt(coord_dot(rep, rep))

    def _geodesics(self, P, Q, n):
        pts = wrapped_lines(P, self._min_rep(Q - P), n, 1.0)
        pts[:, -1, :] = np.mod(Q, 1.0)
        return pts

    def grid(self, resolution):
        m = self._side(resolution)
        axes = [np.arange(m) / m for _ in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.n)

    def _side(self, resolution):
        m = max(4, int(np.ceil(resolution ** (1.0 / self.n))))
        return m + (m % 2)

    def grid_neighbor_pairs(self, resolution):
        """(i, the next point along each axis, cyclically), by point i and
        then by axis."""
        m = self._side(resolution)
        flat = np.arange(m ** self.n, dtype=np.intp).reshape((m,) * self.n)
        nxt = np.stack([np.roll(flat, -1, axis=a) for a in range(self.n)], axis=-1)
        return np.stack([np.broadcast_to(flat[..., None], nxt.shape), nxt],
                        axis=-1).reshape(-1, 2)

    def random_points(self, rng, m):
        return rng.uniform(0.0, 1.0, size=(m, self.n))


class Circle(Space):
    """A circle of given circumference, coordinate s in [0, L)."""

    def __init__(self, circumference: float):
        self.length = float(circumference)
        self.point_dim = 1
        self.name = f"circle({self.length:g})"
        # _rep lies in [-L/2, L/2]
        self.diameter = self.length / 2.0

    def _rep(self, delta):
        rep = np.mod(np.asarray(delta, float) + self.length / 2, self.length) - self.length / 2
        return np.where(rep == -self.length / 2, self.length / 2, rep)

    def dist(self, p, q):
        return np.abs(self._rep(np.asarray(q, float) - np.asarray(p, float)))[..., 0]

    def _geodesics(self, P, Q, n):
        pts = wrapped_lines(P, self._rep(Q - P), n, self.length)
        pts[:, -1, :] = np.mod(Q, self.length)
        return pts

    def grid(self, resolution):
        r = resolution + (resolution % 2)
        return (self.length * np.arange(r) / r)[:, None]

    def grid_neighbor_pairs(self, resolution):
        return _ring(resolution + (resolution % 2))

    def random_points(self, rng, m):
        return rng.uniform(0.0, self.length, size=(m, 1))


class Arc(Space):
    """A closed interval [0, L] with the absolute-value metric."""

    def __init__(self, length: float):
        self.length = float(length)
        self.point_dim = 1
        self.name = f"arc({self.length:g})"

    def dist(self, p, q):
        return np.abs(np.asarray(q, float) - np.asarray(p, float))[..., 0]

    def _geodesics(self, P, Q, n):
        t = np.linspace(0.0, 1.0, n)
        return P[:, None, :] + t[None, :, None] * (Q - P)[:, None, :]

    def grid(self, resolution):
        return (self.length * np.arange(resolution + 1) / resolution)[:, None]

    def grid_neighbor_pairs(self, resolution):
        """The path (k, k + 1) through the grid."""
        k = np.arange(resolution, dtype=np.intp)
        return np.stack([k, k + 1], axis=1)

    def random_points(self, rng, m):
        return rng.uniform(0.0, self.length, size=(m, 1))


class WedgeCircles(Space):
    """A wedge of unit circles; points are (branch index, angle in [0, 2pi)).

    The basepoint is angle 0 on every branch and is canonicalized to
    branch 0.  The metric is the path metric: within a branch the circle
    arc, across branches through the basepoint.
    """

    def __init__(self, branches: int):
        if branches < 1:
            raise ValueError("need at least one branch")
        self.branches = branches
        self.point_dim = 2
        self.name = f"wedge{branches}"

    @staticmethod
    def canonical(p):
        p = np.asarray(p, dtype=float).copy()
        ang = np.mod(p[..., 1], 2 * np.pi)
        branch = np.where(ang == 0.0, 0.0, p[..., 0])
        return np.stack([branch, ang], axis=-1)

    def _base_dist(self, ang):
        return np.minimum(ang, 2 * np.pi - ang)

    def dist(self, p, q):
        p, q = self.canonical(p), self.canonical(q)
        same = p[..., 0] == q[..., 0]
        d_ang = np.abs(p[..., 1] - q[..., 1])
        circle = np.minimum(d_ang, 2 * np.pi - d_ang)
        through = self._base_dist(p[..., 1]) + self._base_dist(q[..., 1])
        return np.where(same, np.minimum(circle, through), through)

    def _geodesics(self, P, Q, n):
        """Within a branch the short arc (a tie goes the positive way);
        across branches down branch p the short way, then up branch q.  A
        path across branches starts at p (s = 0 leaves p on its branch)
        and ends at q, which is set exactly."""
        P, Q = self.canonical(P), self.canonical(Q)
        t = np.linspace(0.0, 1.0, n)
        p0, p1, q0, q1 = P[:, :1], P[:, 1:], Q[:, :1], Q[:, 1:]
        delta = np.mod(q1 - p1 + np.pi, 2 * np.pi) - np.pi
        delta[delta == -np.pi] = np.pi
        d1 = self._base_dist(p1)
        total = d1 + self._base_dist(q1)
        s = t * total
        down = s <= d1
        u = s - d1
        through = np.where(down, np.where(p1 <= np.pi, p1 - s, p1 + s),
                           np.where(q1 <= np.pi, u, -u))
        same = p0 == q0
        ang = np.where(same, p1 + t * delta, through)
        branch = np.where(same | down, p0, q0)
        pts = np.stack([branch, np.mod(ang, 2 * np.pi)], axis=-1)
        cross = ~same[:, 0]
        pts[cross, -1] = Q[cross]
        return self.canonical(pts)

    def grid(self, resolution):
        """The basepoint, then the angles 2 pi k / resolution, 0 < k <
        resolution, branch by branch."""
        ang = 2 * np.pi * np.arange(1, resolution) / resolution
        branch = np.repeat(np.arange(self.branches, dtype=float), ang.size)
        return np.concatenate([np.zeros((1, 2)),
                               np.stack([branch, np.tile(ang, self.branches)], axis=1)])

    def grid_neighbor_pairs(self, resolution):
        """One ring per branch through the basepoint 0, branch by branch; a
        branch that holds no grid point has no edge."""
        per = resolution - 1
        if per < 1:
            return np.zeros((0, 2), dtype=np.intp)
        ring = np.zeros((self.branches, per + 1), dtype=np.intp)
        ring[:, 1:] = 1 + np.arange(self.branches * per).reshape(self.branches, per)
        return ring[:, _ring(per + 1)].reshape(-1, 2)

    def random_points(self, rng, m):
        branch = rng.integers(0, self.branches, size=m).astype(float)
        ang = rng.uniform(0.0, 2 * np.pi, size=m)
        return self.canonical(np.stack([branch, ang], axis=-1))


class SpaceAction:
    """An isometric action of a finite group on a space, as point maps."""

    def __init__(self, space: Space, group: FiniteGroup, point_maps, check=True):
        self.space = space
        self.group = group
        self.point_maps = list(point_maps)
        if len(self.point_maps) != group.order:
            raise ValueError("one point map per group element required")
        if check:
            self._check()

    def _check(self):
        rng = np.random.default_rng(sampling_seed())
        pts = self.space.random_points(rng, 32)
        qts = self.space.random_points(rng, 32)
        base = self.space.dist(pts, qts)
        ident = self.point_maps[0](pts)
        if np.max(self.space.dist(ident, pts)) > ISOMETRY_TOL:
            raise ValueError("identity element must act as the identity map")
        for g in range(1, self.group.order):
            gp, gq = self.point_maps[g](pts), self.point_maps[g](qts)
            if np.max(np.abs(self.space.dist(gp, gq) - base)) > ISOMETRY_TOL:
                raise ValueError(f"element {g} is not an isometry")

    def act(self, g: int, p):
        return self.point_maps[g](np.asarray(p, dtype=float))

    def orbit_dist(self, p, q):
        """min over g of dist(g p, q); broadcasts over leading axes."""
        p, q = np.asarray(p, float), np.asarray(q, float)
        best = np.asarray(self.space.dist(self.act(0, p), q))
        for g in range(1, self.group.order):
            np.minimum(best, self.space.dist(self.act(g, p), q), out=best)
        return best[()]

    def is_geometrically_free(self) -> bool:
        """Grid test for freeness: an action with a fixed point moves some
        point of the grid at FREENESS_GRID by at most twice its spacing."""
        pts = self.space.grid(FREENESS_GRID)
        nbr = self.space.grid_neighbor_pairs(FREENESS_GRID)
        if nbr.size:
            h = float(np.max(self.space.dist(pts[nbr[:, 0]], pts[nbr[:, 1]])))
        else:
            h = 0.0
        threshold = max(2.0 * h, 1e-6)
        for g in range(1, self.group.order):
            if np.min(self.space.dist(self.act(g, pts), pts)) <= threshold:
                return False
        return True


def trivial_space_action(space: Space) -> SpaceAction:
    return SpaceAction(space, FiniteGroup.trivial(), [lambda p: p], check=False)


def residual_terms(action: SpaceAction, starts, ends, X, Y):
    """The residuals of broken paths as (measure, a, b) terms, each
    measure(a, b): the orbit distance across each of the k - 1 joints
    (ends[i], starts[i + 1]), then the distances of the first start from X
    and of the last end from Y.  The operands are passed through as given,
    so that a caller may name them and resolve them to arrays itself."""
    joints = [(action.orbit_dist, ends[i], starts[i + 1]) for i in range(len(starts) - 1)]
    return joints, [(action.space.dist, starts[0], X), (action.space.dist, ends[-1], Y)]


def leg_residuals(action: SpaceAction, starts, ends, X, Y):
    """The residuals of M broken paths, given by the first and the last
    sample of each of their k legs (starts and ends, k arrays of (M, d)):
    the orbit distance across each joint, (k - 1, M), and the distances of
    the first start from X and of the last end from Y, (2, M)
    (residual_terms).  A broken path is valid when every joint lies within
    the joint tolerance (delta) and both ends within ENDPOINT_TOL."""
    joints, ends = residual_terms(action, starts, ends, X, Y)
    residuals = np.zeros((len(joints), len(X)))
    for i, (measure, a, b) in enumerate(joints):
        residuals[i] = measure(a, b)
    return residuals, np.stack([measure(a, b) for measure, a, b in ends])


@dataclass
class QuotientModel:
    """A concrete model of the orbit map X -> X/G: `project` maps points of
    the action's space to `quotient_space`; `section`, when given, is a
    strict section of it; `any_preimage`, when given, a map to some
    preimage, from which `lift_path` lifts through the covering.  Each map
    takes float arrays of points."""

    action: SpaceAction
    quotient_space: Space
    project: object
    section: object = None
    any_preimage: object = None

    def check_section(self) -> float:
        """Max residual of q o s = id over the quotient grid at SECTION_GRID."""
        grid = self.quotient_space.grid(SECTION_GRID)
        back = self.project(self.section(grid))
        return float(np.max(self.quotient_space.dist(back, grid)))

    def lift_path(self, quotient_points, start):
        """Unique-path-lift through the covering of M quotient paths
        (M, N, dq) from their starts (M, d), project(start) =
        quotient_points[:, 0]: greedy orbit-nearest continuation, whose
        exactness the caller checks."""
        space, order = self.action.space, self.action.group.order
        m, n, _ = quotient_points.shape
        out = np.zeros((m, n, space.point_dim))
        out[:, 0] = start
        for j in range(1, n):
            base = self.any_preimage(quotient_points[:, j])
            cands = np.stack([self.action.act(g, base) for g in range(order)])
            dists = np.stack([space.dist(cands[g], out[:, j - 1]) for g in range(order)])
            best = np.argmin(dists, axis=0)
            out[:, j] = cands[best, np.arange(m)]
        return out
