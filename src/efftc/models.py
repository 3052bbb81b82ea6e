"""Catalog of standard spaces, actions and quotient models.

Geometric and simplicial realizations of the named scenario actions live
here; scenario files address them by name.  Simplicial vertex labelings are
chosen so that the slice graphs of the frequently used actions are already
order-monotone (interleaving v and gv), which keeps saturated-diagonal
products small; the hexagon keeps its natural ring labels and exercises the
subdivision path instead.
"""
from __future__ import annotations

import numpy as np

from .complexes import SimplicialComplex, build_complex
from .pathspace import (
    Arc,
    Circle,
    FlatTorus,
    PointSpace,
    QuotientModel,
    Space,
    SpaceAction,
    Sphere,
    WedgeCircles,
    trivial_space_action,
)
from .symmetry import FiniteGroup, GroupAction, action_from_generator_perms, trivial_action


# ------------------------------------------------------------- geometric

def _linear_map(matrix):
    m = np.asarray(matrix, dtype=float)
    return lambda p: p @ m.T


def sphere_antipodal(n: int) -> SpaceAction:
    space = Sphere(n)
    return SpaceAction(space, FiniteGroup.cyclic(2),
                       [lambda p: p, lambda p: -p])


def sphere_codim1(n: int) -> SpaceAction:
    """The codimension-1 linear involution: negate the first coordinate."""
    space = Sphere(n)
    g = np.eye(n + 1)
    g[0, 0] = -1.0
    return SpaceAction(space, FiniteGroup.cyclic(2),
                       [lambda p: p, _linear_map(g)])


def sphere_rotation(n: int = 2) -> SpaceAction:
    """Half-turn rotation about the first axis (orientation preserving)."""
    space = Sphere(n)
    g = -np.eye(n + 1)
    g[0, 0] = 1.0
    return SpaceAction(space, FiniteGroup.cyclic(2),
                       [lambda p: p, _linear_map(g)])


def torus_halfturn() -> SpaceAction:
    space = FlatTorus(2)

    def half(p):
        out = np.array(p, dtype=float, copy=True)
        out[..., 0] = np.mod(out[..., 0] + 0.5, 1.0)
        return out

    return SpaceAction(space, FiniteGroup.cyclic(2), [lambda p: p, half])


def wedge_swap(branches: int) -> SpaceAction:
    space = WedgeCircles(branches)

    def shift(k):
        def act(p):
            out = np.array(p, dtype=float, copy=True)
            out[..., 0] = np.mod(out[..., 0] + k, branches)
            return space.canonical(out)
        return act

    return SpaceAction(space, FiniteGroup.cyclic(branches),
                       [shift(k) for k in range(branches)])


def point_trivial() -> SpaceAction:
    return trivial_space_action(PointSpace())


def sphere_trivial(n: int) -> SpaceAction:
    return trivial_space_action(Sphere(n))


def torus_trivial() -> SpaceAction:
    return trivial_space_action(FlatTorus(2))


# --------------------------------------------------------- quotient models

def circle_antipodal_quotient(action: SpaceAction) -> QuotientModel:
    """S^1 -> S^1/antipodal, modelled as a circle of circumference pi."""
    quotient = Circle(np.pi)

    def project(p):
        ang = np.arctan2(p[..., 1], p[..., 0])
        return np.mod(ang, np.pi)[..., None]

    def any_preimage(q):
        s = q[..., 0]
        return np.stack([np.cos(s), np.sin(s)], axis=-1)

    return QuotientModel(action, quotient, project, any_preimage=any_preimage)


def circle_flip_quotient(action: SpaceAction) -> QuotientModel:
    """S^1 -> S^1/flip; the quotient is the arc [0, pi], section the upper
    semicircle inclusion."""
    quotient = Arc(np.pi)

    def project(p):
        # fold onto the x0 >= 0 semicircle; arc coordinate runs from the
        # fixed point (0, 1) through (1, 0) to the fixed point (0, -1)
        ang = np.arctan2(p[..., 1], np.abs(p[..., 0]))
        return (np.pi / 2.0 - ang)[..., None]

    def section(q):
        beta = np.pi / 2.0 - q[..., 0]
        return np.stack([np.cos(beta), np.sin(beta)], axis=-1)

    return QuotientModel(action, quotient, project, section=section)


class Hemisphere(Space):
    """Quotient model of the codimension-1 involution on S^2: the closed
    upper hemisphere {x0 >= 0} with the orbit metric.  Its covers build
    their legs directly, so it has no geodesics."""

    def __init__(self):
        self.point_dim = 3
        self.name = "hemisphere"
        self._sphere = Sphere(2)

    def _flip(self, p):
        out = np.array(p, dtype=float, copy=True)
        out[..., 0] = -out[..., 0]
        return out

    def dist(self, p, q):
        return np.minimum(self._sphere.dist(p, q),
                          self._sphere.dist(p, self._flip(q)))

    def grid(self, resolution):
        pts = self._sphere.grid(resolution)
        return pts[pts[:, 0] >= -1e-12]

    def grid_neighbor_pairs(self, resolution):
        return np.zeros((0, 2), dtype=np.intp)

    def random_points(self, rng, m):
        pts = self._sphere.random_points(rng, m)
        pts[:, 0] = np.abs(pts[:, 0])
        return pts


def sphere2_codim1_quotient(action: SpaceAction) -> QuotientModel:
    quotient = Hemisphere()

    def project(p):
        out = np.array(p, dtype=float, copy=True)
        out[..., 0] = np.abs(out[..., 0])
        return out

    def section(q):
        return np.array(q, dtype=float, copy=True)

    return QuotientModel(action, quotient, project, section=section)


def torus_halfturn_quotient(action: SpaceAction) -> QuotientModel:
    quotient = FlatTorus(2)

    def project(p):
        out = np.array(p, dtype=float, copy=True)
        out[..., 0] = np.mod(2.0 * out[..., 0], 1.0)
        return out

    def any_preimage(q):
        out = np.array(q, dtype=float, copy=True)
        out[..., 0] = out[..., 0] / 2.0
        return out

    return QuotientModel(action, quotient, project, any_preimage=any_preimage)


def wedge_quotient(action: SpaceAction) -> QuotientModel:
    """Wedge of |G| circles -> one circle, section onto the identity copy."""
    quotient = Circle(2 * np.pi)

    def project(p):
        return np.asarray(p, dtype=float)[..., 1:2]

    def section(q):
        ang = np.mod(q[..., 0], 2 * np.pi)
        return np.stack([np.zeros_like(ang), ang], axis=-1)

    return QuotientModel(action, quotient, project, section=section)


# ------------------------------------------------------------- simplicial

def hexagon_complex() -> SimplicialComplex:
    return build_complex([[i, (i + 1) % 6] for i in range(6)])


def hexagon_antipodal_action() -> GroupAction:
    return action_from_generator_perms(hexagon_complex(),
                                       [{i: (i + 3) % 6 for i in range(6)}])


def hexagon_reflection_action() -> GroupAction:
    return action_from_generator_perms(hexagon_complex(),
                                       [{i: (6 - i) % 6 for i in range(6)}])


def boundary_delta3_complex() -> SimplicialComplex:
    return build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def sphere_swap_action() -> GroupAction:
    """Codimension-1 involution on the tetrahedron boundary: swap 0 and 1."""
    return action_from_generator_perms(boundary_delta3_complex(),
                                       [{0: 1, 1: 0, 2: 2, 3: 3}])


def octahedron_complex() -> SimplicialComplex:
    """Octahedron with antipodal vertex pairs interleaved in the order:
    ids (0,1), (2,3), (4,5) are the +-e1, +-e2, +-e3 pairs."""
    faces = []
    for a in (0, 1):
        for b in (2, 3):
            for c in (4, 5):
                faces.append([a, b, c])
    return build_complex(faces)


def octahedron_antipodal_action() -> GroupAction:
    return action_from_generator_perms(octahedron_complex(),
                                       [{0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}])


def octahedron_rotation_action() -> GroupAction:
    """Half turn about the third axis: fixes 4, 5; swaps the other pairs."""
    return action_from_generator_perms(octahedron_complex(),
                                       [{0: 1, 1: 0, 2: 3, 3: 2, 4: 4, 5: 5}])


def torus9_complex() -> SimplicialComplex:
    """Staircase 3x3 grid torus: the square with identified opposite sides."""
    tris = []
    for i in range(3):
        for j in range(3):
            a = (i, j)
            b = ((i + 1) % 3, j)
            c = ((i + 1) % 3, (j + 1) % 3)
            d = (i, (j + 1) % 3)
            tris.append([a, b, c])
            tris.append([a, d, c])
    return build_complex(tris)


_RING4 = (0, 2, 1, 3)  # position -> id: interleaves i and i+2


def torus43_complex() -> SimplicialComplex:
    """4x3 grid torus with the 4-ring relabeled so the half turn on the
    first factor is order-monotone on every simplex."""
    tris = []
    for i in range(4):
        for j in range(3):
            a = (_RING4[i], j)
            b = (_RING4[(i + 1) % 4], j)
            c = (_RING4[(i + 1) % 4], (j + 1) % 3)
            d = (_RING4[i], (j + 1) % 3)
            tris.append([a, b, c])
            tris.append([a, d, c])
    return build_complex(tris)


def torus43_halfturn_action() -> GroupAction:
    K = torus43_complex()
    shift = {_RING4[i]: _RING4[(i + 2) % 4] for i in range(4)}
    return action_from_generator_perms(
        K, [{(r, j): (shift[r], j) for r in range(4) for j in range(3)}])


def wedge_triangles_complex(branches: int) -> SimplicialComplex:
    """Wedge of triangle circles sharing vertex 0; branch b uses vertices
    2b+1, 2b+2."""
    edges = []
    for b in range(branches):
        u, v = 2 * b + 1, 2 * b + 2
        edges += [[0, u], [u, v], [0, v]]
    return build_complex(edges)


def wedge_swap_action(branches: int) -> GroupAction:
    K = wedge_triangles_complex(branches)
    perm = {0: 0}
    for b in range(branches):
        nb = (b + 1) % branches
        perm[2 * b + 1] = 2 * nb + 1
        perm[2 * b + 2] = 2 * nb + 2
    return action_from_generator_perms(K, [perm])


def point_complex() -> SimplicialComplex:
    return build_complex([[0]])
