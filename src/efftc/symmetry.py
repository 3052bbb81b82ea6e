"""Finite groups acting simplicially: orbits, fixed sets, quotients,
staircase products and the saturated diagonal.

Actions that are not regular enough for a given construction get repaired
by barycentric subdivision (at most twice) before the construction fails
explicitly; a wrong complex is never returned silently.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    from_simplex_set,
)
from .errors import GroupClosureError, RegularityError

MAX_GROUP_ORDER = 64


class FiniteGroup:
    """A finite group given by its multiplication table (index 0 = identity)."""

    def __init__(self, table: list[list[int]]):
        self.table = [list(row) for row in table]
        self._validate()
        self.inverse = [row.index(0) for row in self.table]

    def _validate(self) -> None:
        n = self.order
        if any(self.table[0][b] != b or self.table[b][0] != b for b in range(n)):
            raise ValueError("index 0 is not an identity element")
        if any(sorted(row) != list(range(n)) for row in self.table):
            raise ValueError("table rows must be permutations")
        # entry (a, b, c): (ab)c against a(bc)
        t = np.array(self.table, dtype=np.intp).reshape(n, n)
        if (t[t] != t[:, t]).any():
            raise ValueError("table is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls([[0]])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table)

    def is_subgroup(self, indices) -> bool:
        s = set(indices)
        if 0 not in s:
            return False
        return all(self.mul(a, b) in s and self.inv(a) in s for a in s for b in s)

    def subgroup_closure(self, indices) -> frozenset[int]:
        """The subgroup generated by the indices: in a finite group, every
        product of generators, found breadth first from the identity."""
        gens = sorted(set(indices))
        found = {0}
        queue = [0]
        for x in queue:
            for g in gens:
                y = self.table[x][g]
                if y not in found:
                    found.add(y)
                    queue.append(y)
        return frozenset(found)

    def subgroups(self) -> list[frozenset[int]]:
        """All subgroups, ordered by (size, sorted elements).

        Every subgroup is the join of the cyclic subgroups of its elements,
        so joining each subgroup found with every cyclic subgroup until
        nothing new appears reaches all of them, at one closure per
        (subgroup, cyclic subgroup) pair.
        """
        cyclic: dict[frozenset[int], int] = {}
        for g in range(1, self.order):
            cyclic.setdefault(self.subgroup_closure([g]), g)
        trivial = frozenset([0])
        found = {trivial}
        frontier = [(trivial, ())]
        while frontier:
            joined = []
            for H, gens in frontier:
                for C, g in cyclic.items():
                    if C <= H:
                        continue
                    J = self.subgroup_closure(gens + (g,))
                    if J not in found:
                        found.add(J)
                        joined.append((J, gens + (g,)))
            frontier = joined
        return sorted(found, key=lambda s: (len(s), sorted(s)))


def group_from_permutations(generators: list[list[int]]
                            ) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Close generator permutations into a group; returns (group, permutations).

    The permutation list is indexed like the group elements; element 0 is the
    identity.  Closure is capped at MAX_GROUP_ORDER.
    """
    degree = len(generators[0])
    for g in generators:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation: {g}")
    identity = tuple(range(degree))
    perms = [identity]
    index = {identity: 0}
    queue = [identity]
    gen_tuples = [tuple(g) for g in generators]
    while queue:
        p = queue.pop(0)
        for g in gen_tuples:
            q = tuple(g[p[i]] for i in range(degree))
            if q not in index:
                if len(perms) >= MAX_GROUP_ORDER:
                    raise GroupClosureError(
                        f"generator closure exceeds {MAX_GROUP_ORDER} elements")
                index[q] = len(perms)
                perms.append(q)
                queue.append(q)
    n = len(perms)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            composed = tuple(perms[a][perms[b][i]] for i in range(degree))
            table[a][b] = index[composed]
    group = FiniteGroup(table)
    return group, perms


class GroupAction:
    """A finite group realized as simplicial automorphisms of a complex.

    The action is held as integer tables over `index = K.simplex_index`:
    `perm[g, i]` is the index of g·vᵢ and `tables[d][g, i]` the index of
    g·σᵢ among the d-simplices.  `vertex_maps` gives the same action as one
    {vertex: image} dict per element.
    """

    def __init__(self, group: FiniteGroup, complex: SimplicialComplex,
                 vertex_maps: list[dict]):
        verts, where = complex.vertices, complex.vertex_index
        # a map whose keys are not the vertices gets a row that is no permutation
        rows = [[where.get(vm[v], -1) for v in verts] if vm.keys() == where.keys()
                else [-1] * len(verts) for vm in vertex_maps]
        self._setup(group, complex,
                    np.array(rows, dtype=np.intp).reshape(len(rows), len(verts)),
                    vertex_maps)

    @classmethod
    def _from_perm(cls, group: FiniteGroup, complex: SimplicialComplex,
                   perm: np.ndarray) -> "GroupAction":
        action = cls.__new__(cls)
        action._setup(group, complex, perm, None)
        return action

    def _setup(self, group, complex, perm, vertex_maps) -> None:
        self.group = group
        self.complex = complex
        self.index = complex.simplex_index
        self.perm = perm
        self._vertex_maps = vertex_maps
        self._subdivided: GroupAction | None = None
        self._fixed: dict[tuple, SimplicialComplex] = {}
        self._validate()

    def _validate(self) -> None:
        """Check that the maps are a simplicial action, building the tables
        on the way; raise ValueError naming the first failure."""
        n, identity = self.group.order, np.arange(self.perm.shape[1])
        if self.perm.shape[0] != n:
            raise ValueError("one vertex map per group element required")
        moved = np.flatnonzero((np.sort(self.perm, axis=1) != identity).any(axis=1))
        if moved.size:
            raise ValueError(f"element {moved[0]}: not a vertex permutation")
        if (self.perm[0] != identity).any():
            raise ValueError("identity element must act as the identity map")
        self.tables = [self.index.find(d, np.sort(self.perm[:, rows], axis=2))
                       for d, rows in enumerate(self.index.rows)]
        for g in range(n):
            for d, table in enumerate(self.tables):
                lost = np.flatnonzero(table[g] < 0)
                if lost.size:
                    raise ValueError(f"element {g} does not map simplex "
                                     f"{self.complex.simplices(d)[lost[0]]} to a simplex")
        mul = np.array(self.group.table, dtype=np.intp)
        for a in range(n):
            # row b: a(b(v)) against (ab)(v)
            if (self.perm[a][self.perm] != self.perm[mul[a]]).any():
                raise ValueError("vertex maps are not a homomorphism")

    @property
    def vertex_maps(self) -> list[dict]:
        if self._vertex_maps is None:
            verts = self.complex.vertices
            self._vertex_maps = [dict(zip(verts, map(verts.__getitem__, row)))
                                 for row in self.perm.tolist()]
        return self._vertex_maps

    def apply(self, g: int, simplex: tuple) -> tuple:
        vm = self.vertex_maps[g]
        return tuple(sorted(vm[v] for v in simplex))

    def apply_vertex(self, g: int, v):
        return self.vertex_maps[g][v]

    def vertex_orbit(self, v) -> frozenset:
        verts = self.complex.vertices
        return frozenset(verts[j] for j in self.perm[:, self.complex.vertex_index[v]])

    def is_free(self) -> bool:
        """No nontrivial element fixes any simplex setwise (hence no point)."""
        return not any((t[1:] == np.arange(t.shape[1])).any() for t in self.tables)

    def subdivided(self) -> "GroupAction":
        """The action on the barycentric subdivision, made once and kept.

        The subdivision's vertices (d, σ) are sorted dimension first, so
        (d, σᵢ) has index offset_d + i and g sends it to offset_d +
        tables[d][g, i].
        """
        if self._subdivided is None:
            K2 = barycentric_subdivision(self.complex)
            offsets = np.cumsum([0] + [t.shape[1] for t in self.tables])
            perm = np.hstack([np.zeros((self.group.order, 0), dtype=np.intp)]
                             + [t + o for t, o in zip(self.tables, offsets)])
            self._subdivided = GroupAction._from_perm(self.group, K2, perm)
        return self._subdivided


def trivial_action(K: SimplicialComplex) -> GroupAction:
    return GroupAction._from_perm(FiniteGroup.trivial(), K,
                                  np.arange(len(K.vertices))[None, :])


def action_from_generator_perms(K: SimplicialComplex,
                                generator_maps: list[dict]) -> GroupAction:
    """Close generator vertex maps into a full group action."""
    where = K.vertex_index
    return _closed_action(K, [[where[vm[v]] for v in K.vertices]
                              for vm in generator_maps])


def _closed_action(K: SimplicialComplex, generators: list[list[int]]) -> GroupAction:
    """The action of the group that generator index permutations close into
    (group_from_permutations: ValueError for a list that is not one)."""
    group, perms = group_from_permutations(generators)
    return GroupAction._from_perm(
        group, K, np.array(perms, dtype=np.intp).reshape(len(perms), len(K.vertices)))


def read_action_text(K: SimplicialComplex, path) -> GroupAction:
    """Parse the generator-per-line action format "g<i>: p(0) p(1) ...".

    Vertex ids must be the integers 0..n-1 in identifier order, and each
    line a permutation of them (ValueError otherwise).
    """
    gens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError(f"bad action line {line!r}")
            _, perm = line.split(":", 1)
            images = [int(p) for p in perm.split()]
            if len(images) != len(K.vertices):
                raise ValueError("permutation length does not match vertex count")
            gens.append(images)
    if not gens:
        raise ValueError("no generators in action file")
    return _closed_action(K, gens)


def write_action_text(action: GroupAction, path) -> None:
    verts = list(action.complex.vertices)
    vert_index = {v: i for i, v in enumerate(verts)}
    lines = ["# generators, one per line"]
    for g in range(1, action.group.order):
        imgs = " ".join(str(vert_index[action.vertex_maps[g][v]]) for v in verts)
        lines.append(f"g{g}: {imgs}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def pointwise_fixed_subcomplex(action: GroupAction, elements) -> SimplicialComplex:
    """Simplices fixed vertex-by-vertex by every listed element (no repair)."""
    perm = action.perm[list(elements)]
    fixed = (perm == np.arange(perm.shape[1])).all(axis=0)
    # a fixed vertex's index among the fixed vertices
    relabel = np.cumsum(fixed) - 1
    levels = []
    for rows in action.index.rows:
        # the kept simplices are closed under faces: none kept, none above
        kept = rows[fixed[rows].all(axis=1)]
        if not len(kept):
            break
        levels.append(relabel[kept])
    verts = action.complex.vertices
    return SimplicialComplex.from_rows(
        [verts[i] for i in np.flatnonzero(fixed).tolist()], levels)


def _setwise_implies_pointwise(action: GroupAction, elements) -> bool:
    g = list(elements)
    for rows, table in zip(action.index.rows, action.tables):
        setwise = table[g] == np.arange(table.shape[1])
        pointwise = (action.perm[g][:, rows] == rows).all(axis=2)
        if (setwise & ~pointwise).any():
            return False
    return True


def _repaired(action: GroupAction, test, error: str):
    """(the action subdivided until test(action) is not None, the number of
    subdivisions, that value): at most two subdivisions, after which a
    RegularityError with the message `error`."""
    current, subdivisions = action, 0
    while (value := test(current)) is None:
        if subdivisions == 2:
            raise RegularityError(error)
        current, subdivisions = current.subdivided(), subdivisions + 1
    return current, subdivisions, value


def fixed_subcomplex(action: GroupAction, subgroup) -> SimplicialComplex:
    """The subcomplex modelling the fixed point set of a subgroup.

    Requires setwise-invariant simplices to be pointwise fixed so that the
    subcomplex realizes |X|^H; one barycentric subdivision always repairs
    this, a second is allowed for symmetry with the other constructions.
    The result is kept on the action, one per subgroup.
    """
    subgroup = sorted(set(subgroup))
    if not action.group.is_subgroup(subgroup):
        raise ValueError("element set is not a subgroup")
    key = tuple(subgroup)
    if key not in action._fixed:
        current, _, _ = _repaired(
            action, lambda a: _setwise_implies_pointwise(a, subgroup) or None,
            "fixed subcomplex irregular after two subdivisions")
        action._fixed[key] = pointwise_fixed_subcomplex(current, subgroup)
    return action._fixed[key]


def _orbit_images(action: GroupAction) -> list[np.ndarray] | None:
    """Per degree, the image under the orbit map of each G-orbit of
    simplices, as rows of orbit ids (an orbit's id is its least member) in
    lexicographic order; None when the action is not regular enough to
    quotient."""
    orbit = action.perm.min(axis=0)
    levels = []
    for rows, table in zip(action.index.rows, action.tables):
        image = np.sort(orbit[rows], axis=1)
        # (a) the orbit map is injective on every simplex
        if (image[:, 1:] == image[:, :-1]).any():
            return None
        # one simplex per G-orbit: the one whose least image is itself
        image = image[table.min(axis=0) == np.arange(len(rows))]
        image = image[np.lexsort(image.T[::-1])]
        # (b) simplices with the same orbit image lie in one G-orbit
        if (image[1:] == image[:-1]).all(axis=1).any():
            return None
        levels.append(image)
    return levels


def quotient_complex(action: GroupAction):
    """Quotient complex and vertex orbit map.

    Regular actions quotient directly; otherwise the action is subdivided
    (at most twice) first.  Irregularity after that is an explicit failure.
    """
    current, _, images = _repaired(action, _orbit_images,
                                   "quotient irregular after two subdivisions")
    verts = current.complex.vertices
    # deterministic quotient vertex labels: minimal orbit member
    orbit = current.perm.min(axis=0)
    vmap = dict(zip(verts, map(verts.__getitem__, orbit.tolist())))
    # the images are closed under faces, a simplex of X/G each; orbit id
    # ranks keep their rows increasing and sorted
    ids = np.unique(orbit)
    Q = SimplicialComplex.from_rows([verts[i] for i in ids.tolist()],
                                    [np.searchsorted(ids, level) for level in images])
    return Q, vmap, current


def product_complex(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |K| x |L| on the vertex set V(K) x V(L).

    Simplices are the chains of the coordinatewise partial order supported
    on products of simplices; projections onto either factor are simplicial.
    """
    if K.is_empty() or L.is_empty():
        raise ValueError("product of empty complex")
    from .complexes import _maximal_simplices
    simplices: set[tuple] = set()

    def shuffles(sigma: tuple, tau: tuple):
        p, q = len(sigma) - 1, len(tau) - 1
        # lattice paths from (0,0) to (p,q)
        for moves in itertools.combinations(range(p + q), p):
            moveset = set(moves)
            path = [(sigma[0], tau[0])]
            i = j = 0
            for step in range(p + q):
                if step in moveset:
                    i += 1
                else:
                    j += 1
                path.append((sigma[i], tau[j]))
            yield tuple(path)

    for sigma in _maximal_simplices(K):
        for tau in _maximal_simplices(L):
            for top in shuffles(sigma, tau):
                simplices.add(top)
    return from_simplex_set(simplices)


def product_projections(product: SimplicialComplex):
    """The two simplicial projections of a staircase product, as vertex maps."""
    first = {v: v[0] for v in product.vertices}
    second = {v: v[1] for v in product.vertices}
    return first, second


@dataclass
class SaturatedDiagonal:
    """Slices {(gx, x)} of the (possibly subdivided) base and their union,
    a subcomplex of the staircase product that is never built.

    Vertex t of the union is the pair of base vertex indices `pairs[t]` =
    (a, b), the point (v_a, v_b); the vertices are ranked by a n_0 + b.
    """

    base: GroupAction
    elements: list[int]
    pairs: np.ndarray = field(compare=False)
    union_complex: SimplicialComplex
    subdivisions: int

    @cached_property
    def slices(self) -> dict[int, frozenset]:
        """The simplices of each slice, as tuples of vertex pairs."""
        verts = self.base.complex.vertices
        return {g: frozenset(tuple((verts[image[v]], verts[v]) for v in row)
                             for rows in self.base.index.rows for row in rows.tolist())
                for g, image in zip(self.elements, self.base.perm[self.elements].tolist())}

    def slice_complex(self, g: int) -> SimplicialComplex:
        return from_simplex_set(self.slices[g])


def _monotone_on_simplices(action: GroupAction, g: int) -> bool:
    image = action.perm[g]
    return all((image[rows[:, 1:]] > image[rows[:, :-1]]).all()
               for rows in action.index.rows[1:])


def saturated_diagonal(action: GroupAction, elements=None) -> SaturatedDiagonal:
    """Slices for the listed elements (default: all of G) and their union.

    Each slice is the graph of a group element; graphs embed simplicially in
    the staircase product exactly when the element is order-monotone on every
    simplex, which one subdivision (dimension-primary order) guarantees.  A
    slice simplex lies in the product when both its coordinate tuples
    strictly increase, so the monotonicity check is that test on every
    simplex.  An element
    that is not an integer in range(|G|) is a ValueError.
    """
    order = action.group.order
    if elements is None:
        elements = list(range(order))
    elements = list(elements)
    if not all(isinstance(g, (int, np.integer)) and not isinstance(g, bool)
               and 0 <= g < order for g in elements):
        raise ValueError(f"elements must be group elements 0..{order - 1}, got {elements!r}")
    elements = sorted(set(int(g) for g in elements))
    # the slice simplex of σ pairs its vertices v with g(v) in the order of
    # g(v); it is a chain of the product when that order is the order of v
    current, subdivisions, _ = _repaired(
        action, lambda a: all(_monotone_on_simplices(a, g) for g in elements) or None,
        "slices not simplicial after two subdivisions")
    verts, rows_by_dim = current.complex.vertices, current.index.rows
    # every slice simplex as a row of vertex codes g(v) n_0 + v; the union is
    # closed under faces, and its unique rows come out in lexicographic order
    n0 = len(verts)
    codes = [current.perm[elements][:, rows] * n0 + rows for rows in rows_by_dim]
    ranks = np.unique(codes[0]) if codes else np.zeros(0, dtype=np.intp)
    levels = [np.searchsorted(ranks, np.unique(c.reshape(-1, c.shape[2]), axis=0))
              for c in codes if c.size]
    pairs = np.stack(np.divmod(ranks, n0), axis=1)
    union = SimplicialComplex.from_rows(
        [(verts[a], verts[b]) for a, b in pairs.tolist()], levels)
    return SaturatedDiagonal(base=current, elements=elements, pairs=pairs,
                             union_complex=union, subdivisions=subdivisions)
