"""Finite groups acting simplicially: orbits, fixed sets, quotients,
staircase products and the saturated diagonal.

Actions that are not regular enough for a given construction get repaired
by barycentric subdivision (at most twice) before the construction fails
explicitly; a wrong complex is never returned silently.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex, barycentric_subdivision, from_simplex_set
from .errors import GroupClosureError, RegularityError

MAX_GROUP_ORDER = 64


class FiniteGroup:
    """A finite group given by its multiplication table (index 0 = identity)."""

    def __init__(self, table: list[list[int]], names: list[str] | None = None):
        n = len(table)
        self.table = [list(row) for row in table]
        self.names = list(names) if names else [f"g{i}" for i in range(n)]
        self._validate()
        self.inverse = [0] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == 0:
                    self.inverse[a] = b

    def _validate(self) -> None:
        n = self.order
        seen_identity = all(self.table[0][b] == b and self.table[b][0] == b
                            for b in range(n))
        if not seen_identity:
            raise ValueError("index 0 is not an identity element")
        for a in range(n):
            if sorted(self.table[a]) != list(range(n)):
                raise ValueError("table rows must be permutations")
            if not any(self.table[a][b] == 0 for b in range(n)):
                raise ValueError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
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
        return cls([[0]], names=["e"])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(table, names=[f"r{i}" if i else "e" for i in range(n)])

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


def group_from_permutations(generators: list[list[int]],
                            names: list[str] | None = None
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
    group = FiniteGroup(table, names=names)
    return group, perms


class GroupAction:
    """A finite group realized as simplicial automorphisms of a complex."""

    def __init__(self, group: FiniteGroup, complex: SimplicialComplex,
                 vertex_maps: list[dict]):
        self.group = group
        self.complex = complex
        self.vertex_maps = vertex_maps
        self._validate()

    def _validate(self) -> None:
        verts = set(self.complex.vertices)
        if len(self.vertex_maps) != self.group.order:
            raise ValueError("one vertex map per group element required")
        for g, vm in enumerate(self.vertex_maps):
            if set(vm.keys()) != verts or set(vm.values()) != verts:
                raise ValueError(f"element {g}: not a vertex permutation")
        ident = self.vertex_maps[0]
        if any(ident[v] != v for v in verts):
            raise ValueError("identity element must act as the identity map")
        for g, vm in enumerate(self.vertex_maps):
            for s in self.complex.all_simplices():
                if not self.complex.contains(self.apply(g, s)):
                    raise ValueError(
                        f"element {g} does not map simplex {s} to a simplex")
        for a in range(self.group.order):
            for b in range(self.group.order):
                ab = self.group.mul(a, b)
                for v in verts:
                    if self.vertex_maps[a][self.vertex_maps[b][v]] != self.vertex_maps[ab][v]:
                        raise ValueError("vertex maps are not a homomorphism")

    def apply(self, g: int, simplex: tuple) -> tuple:
        vm = self.vertex_maps[g]
        return tuple(sorted(vm[v] for v in simplex))

    def apply_vertex(self, g: int, v):
        return self.vertex_maps[g][v]

    def vertex_orbit(self, v) -> frozenset:
        return frozenset(vm[v] for vm in self.vertex_maps)

    def is_free(self) -> bool:
        """No nontrivial element fixes any simplex setwise (hence no point)."""
        for g in range(1, self.group.order):
            for s in self.complex.all_simplices():
                if self.apply(g, s) == s:
                    return False
        return True

    def subdivided(self) -> "GroupAction":
        K2 = barycentric_subdivision(self.complex)
        maps = []
        for g in range(self.group.order):
            vm = {}
            for bary in K2.vertices:
                d, sigma = bary
                vm[bary] = (d, self.apply(g, sigma))
            maps.append(vm)
        return GroupAction(self.group, K2, maps)


def trivial_action(K: SimplicialComplex) -> GroupAction:
    return GroupAction(FiniteGroup.trivial(), K, [{v: v for v in K.vertices}])


def action_from_generator_perms(K: SimplicialComplex,
                                generator_maps: list[dict]) -> GroupAction:
    """Close generator vertex maps into a full group action."""
    verts = list(K.vertices)
    vert_index = {v: i for i, v in enumerate(verts)}
    gen_perms = [[vert_index[vm[v]] for v in verts] for vm in generator_maps]
    group, perms = group_from_permutations(gen_perms)
    maps = [{verts[i]: verts[p[i]] for i in range(len(verts))} for p in perms]
    return GroupAction(group, K, maps)


def read_action_text(K: SimplicialComplex, path) -> GroupAction:
    """Parse the generator-per-line action format "g<i>: p(0) p(1) ...".

    Vertex ids must be the integers 0..n-1 in identifier order.
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
            verts = list(K.vertices)
            if len(images) != len(verts):
                raise ValueError("permutation length does not match vertex count")
            gens.append({verts[i]: verts[images[i]] for i in range(len(verts))})
    if not gens:
        raise ValueError("no generators in action file")
    return action_from_generator_perms(K, gens)


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
    fixed = []
    for s in action.complex.all_simplices():
        if all(action.apply_vertex(g, v) == v for g in elements for v in s):
            fixed.append(s)
    return from_simplex_set(fixed)


def _setwise_implies_pointwise(action: GroupAction, elements) -> bool:
    for g in elements:
        for s in action.complex.all_simplices():
            if action.apply(g, s) == s and any(
                    action.apply_vertex(g, v) != v for v in s):
                return False
    return True


def fixed_subcomplex(action: GroupAction, subgroup) -> SimplicialComplex:
    """The subcomplex modelling the fixed point set of a subgroup.

    Requires setwise-invariant simplices to be pointwise fixed so that the
    subcomplex realizes |X|^H; one barycentric subdivision always repairs
    this, a second is allowed for symmetry with the other constructions.
    """
    subgroup = sorted(set(subgroup))
    if not action.group.is_subgroup(subgroup):
        raise ValueError("element set is not a subgroup")
    current = action
    for subdivisions in range(3):
        if _setwise_implies_pointwise(current, subgroup):
            return pointwise_fixed_subcomplex(current, subgroup)
        if subdivisions == 2:
            break
        current = current.subdivided()
    raise RegularityError("fixed subcomplex irregular after two subdivisions")


def _quotient_regular(action: GroupAction) -> bool:
    # (a) the orbit map is injective on every simplex
    for s in action.complex.all_simplices():
        orbits = [action.vertex_orbit(v) for v in s]
        if len(set(orbits)) != len(orbits):
            return False
    # (b) simplices with the same orbit image lie in one G-orbit
    by_image: dict[frozenset, tuple] = {}
    for s in action.complex.all_simplices():
        image = frozenset(action.vertex_orbit(v) for v in s)
        if image in by_image:
            rep = by_image[image]
            if not any(action.apply(g, s) == rep
                       for g in range(action.group.order)):
                return False
        else:
            by_image[image] = s
    return True


def quotient_complex(action: GroupAction):
    """Quotient complex and vertex orbit map.

    Regular actions quotient directly; otherwise the action is subdivided
    (at most twice) first.  Irregularity after that is an explicit failure.
    """
    current = action
    for subdivisions in range(3):
        if _quotient_regular(current):
            orbit_of = {v: current.vertex_orbit(v) for v in current.complex.vertices}
            # deterministic quotient vertex labels: minimal orbit member
            label = {orb: min(orb) for orb in set(orbit_of.values())}
            vmap = {v: label[orbit_of[v]] for v in current.complex.vertices}
            simplices = {tuple(sorted(vmap[v] for v in s))
                         for s in current.complex.all_simplices()}
            return from_simplex_set(simplices), vmap, current
        if subdivisions == 2:
            break
        current = current.subdivided()
    raise RegularityError("quotient irregular after two subdivisions")


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
    a subcomplex of the staircase product that is never built."""

    base: GroupAction
    elements: list[int]
    slices: dict[int, frozenset]
    union_complex: SimplicialComplex
    subdivisions: int

    def slice_complex(self, g: int) -> SimplicialComplex:
        return from_simplex_set(self.slices[g])


def _monotone_on_simplices(action: GroupAction, g: int) -> bool:
    vm = action.vertex_maps[g]
    for s in action.complex.all_simplices():
        if len(s) < 2:
            continue
        images = [vm[v] for v in s]
        if any(images[i] >= images[i + 1] for i in range(len(images) - 1)):
            return False
    return True


def _is_chain(pairs: tuple) -> bool:
    """Both coordinates strictly increase: a simplex of the staircase product."""
    return all(a[0] < b[0] and a[1] < b[1] for a, b in zip(pairs, pairs[1:]))


def saturated_diagonal(action: GroupAction, elements=None) -> SaturatedDiagonal:
    """Slices for the listed elements (default: all of G) and their union.

    Each slice is the graph of a group element; graphs embed simplicially in
    the staircase product exactly when the element is order-monotone on every
    simplex, which one subdivision (dimension-primary order) guarantees.  A
    slice simplex lies in the product when both its coordinate tuples
    strictly increase, which is checked simplex by simplex.
    """
    if elements is None:
        elements = list(range(action.group.order))
    elements = sorted(set(elements))
    current = action
    subdivisions = 0
    while not all(_monotone_on_simplices(current, g) for g in elements):
        if subdivisions >= 2:
            raise RegularityError("slices not simplicial after two subdivisions")
        current = current.subdivided()
        subdivisions += 1
    slices: dict[int, frozenset] = {}
    for g in elements:
        vm = current.vertex_maps[g]
        slice_simplices = set()
        for s in current.complex.all_simplices():
            pair = tuple(sorted((vm[v], v) for v in s))
            if not _is_chain(pair):
                raise RegularityError(f"slice simplex {pair} missing from product")
            slice_simplices.add(pair)
        slices[g] = frozenset(slice_simplices)
    union = from_simplex_set(set().union(*slices.values()))
    return SaturatedDiagonal(base=current, elements=elements, slices=slices,
                             union_complex=union, subdivisions=subdivisions)
