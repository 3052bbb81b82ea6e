"""Finite simplicial complexes with exact F2 cohomology.

Vertices carry a global total order (their identifier order), and vertex i
is the i-th vertex in it.  A complex stores each degree's simplices as
rows of increasing vertex indices in lexicographic order; the tuples of
vertex identifiers are a view built from those rows when first asked for.
Cup products use the front-face/back-face rule relative to that order, so
everything downstream (cup lengths, zero-divisor kernels, cohomological
dimension) is exact mod 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DegreeError
from .f2 import F2Matrix, F2RowSpace


class SimplicialComplex:
    """A downward-closed family of simplices over totally ordered vertices.

    The complex on `vertices` (in identifier order) whose d-simplices are
    the rows of `rows[d]`: increasing vertex indices, rows sorted
    lexicographically, closed under faces, no degree empty.
    `simplices_by_dim` and `vertex_index` are views built on first use;
    `cache` holds what `cached` builds on the complex.
    """

    def __init__(self, vertices, rows: list[np.ndarray]):
        self.vertices = tuple(vertices)
        self.rows = rows
        self.simplex_index = SimplexIndex(rows, len(self.vertices))
        self.cache: dict = {}

    @cached_property
    def simplices_by_dim(self) -> list[list[tuple]]:
        """The simplices as increasing vertex tuples, per degree."""
        names = np.fromiter(self.vertices, dtype=object, count=len(self.vertices))
        return [list(zip(*names[level].T.tolist())) for level in self.rows]

    @cached_property
    def vertex_index(self) -> dict:
        """{vertex: its index}."""
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def dimension(self) -> int:
        return len(self.rows) - 1

    def simplices(self, d: int) -> list[tuple]:
        if 0 <= d <= self.dimension:
            return self.simplices_by_dim[d]
        return []

    def n_simplices(self, d: int) -> int:
        return len(self.rows[d]) if 0 <= d <= self.dimension else 0

    def total_simplices(self) -> int:
        return sum(len(level) for level in self.rows)

    def _find(self, simplex: tuple) -> int:
        """The simplex's index among those of its degree, or -1 where a
        vertex is foreign or there is no such simplex (`SimplexIndex.find`
        finds no row whose vertices do not increase)."""
        where = self.vertex_index
        row = [where.get(v, -1) for v in simplex]
        if not row or min(row) < 0:
            return -1
        return int(self.simplex_index.find(len(row) - 1, row))

    def index(self, simplex: tuple) -> int:
        i = self._find(simplex)
        if i < 0:
            raise KeyError(simplex)
        return i

    def contains(self, simplex: tuple) -> bool:
        return self._find(simplex) >= 0

    def all_simplices(self):
        for level in self.simplices_by_dim:
            yield from level

    def is_empty(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and len(self.rows) == len(other.rows)
                and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows)))

    def __repr__(self):
        counts = tuple(len(level) for level in self.rows)
        return f"SimplicialComplex(counts={counts})"


class SimplexIndex:
    """Rows of vertex indices, one (n_d, d + 1) array per degree, each
    sorted lexicographically, and the lookup of such rows among them.

    A d-simplex is keyed by (index of its face without the last vertex,
    last vertex); those keys increase along each degree, so a sorted search
    finds a row.
    """

    def __init__(self, rows: list[np.ndarray], n_vertices: int):
        self.rows = rows
        self.n_vertices = n_vertices
        self._keys: list[np.ndarray] = []
        for d, level in enumerate(rows):
            self._keys.append(level[:, 0] if d == 0 else
                              self.find(d - 1, level[:, :-1]) * n_vertices + level[:, -1])

    def find(self, d: int, rows: np.ndarray) -> np.ndarray:
        """Index among the d-simplices of each row of d + 1 vertex indices,
        or -1 where the row is not a simplex.

        The rows are looked up one vertex at a time: a row whose front face
        is no simplex (index -1) gets a negative key, which matches none.
        A key pairs a front face with a vertex above its vertices, so a row
        of indices in range(n_vertices) that do not increase matches none
        either.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if d >= len(self.rows):
            return np.full(rows.shape[:-1], -1, dtype=np.intp)
        found = rows[..., 0]
        for e in range(1, d + 1):
            key, keys = found * self.n_vertices + rows[..., e], self._keys[e]
            pos = np.minimum(keys.searchsorted(key), len(keys) - 1)
            found = np.where(keys[pos] == key, pos, -1)
        return found


def cached(owner, key, build):
    """owner.cache[key], made by build() on the first request: the one memo
    of complexes and actions (callers do not mutate what it returns)."""
    if key not in owner.cache:
        owner.cache[key] = build()
    return owner.cache[key]


@dataclass
class Cochain:
    """An F2 cochain: one bit per simplex of the given degree."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.uint8) & 1

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other: "Cochain") -> "Cochain":
        if other.degree != self.degree:
            raise DegreeError("cannot add cochains of different degrees")
        return Cochain(self.degree, self.coeffs ^ other.coeffs)


@dataclass
class CohomologySummary:
    betti: tuple[int, ...]
    representatives: list[list[Cochain]]
    cd: int


def build_complex(simplices) -> SimplicialComplex:
    """Downward closure of the given simplices.

    Vertices inside one simplex must be distinct, and the vertex ids must
    have a common order (ValueError otherwise).  The vertex ids are
    sorted, each simplex becomes a tuple of increasing vertex indices, and
    its faces are the `combinations` of that tuple.
    """
    simplices = [list(s) for s in simplices]
    for s in simplices:
        if not s:
            raise ValueError("empty simplex")
        if len(set(s)) != len(s):
            raise ValueError(f"duplicate vertex within simplex {s}")
    ids = {v for s in simplices for v in s}
    try:
        vertices = sorted(ids)
    except TypeError as exc:
        raise ValueError(f"vertex ids with no common order: "
                         f"{', '.join(sorted(map(repr, ids)))}") from exc
    where = {v: i for i, v in enumerate(vertices)}
    levels: list[set[tuple]] = [set() for _ in range(max(map(len, simplices), default=0))]
    for s in {tuple(sorted(where[v] for v in s)) for s in simplices}:
        for k in range(1, len(s) + 1):
            levels[k - 1].update(combinations(s, k))
    return SimplicialComplex(vertices, [
        np.array(sorted(level), dtype=np.intp).reshape(len(level), d + 1)
        for d, level in enumerate(levels)])


def _faces(K: SimplicialComplex, d: int) -> np.ndarray:
    """(n_d, d + 1) indices of the codimension-1 faces of each d-simplex
    (d >= 1)."""
    return cached(K, ("faces", d), lambda: _face_table(K, d, d - 1))


def simplex_images(K: SimplicialComplex, vertex_map: np.ndarray,
                   L: SimplicialComplex) -> list[np.ndarray]:
    """The simplicial map K -> L given by its vertex table over the simplices.

    `vertex_map[i]` is the index among L's vertices of the image of K's
    vertex i; a stack of tables, (m, n_0), maps m times.  Per degree d of
    K: the index among L's d-simplices of each d-simplex's image, (n_d,) or
    (m, n_d), or -1 where the image collapses (a repeated vertex, which
    `SimplexIndex.find` finds no row for) or is no simplex of L.
    """
    return [L.simplex_index.find(d, np.sort(vertex_map[..., rows], axis=-1))
            for d, rows in enumerate(K.rows)]


def pull_back(images: list[np.ndarray], cochain: Cochain) -> Cochain:
    """The cochain of L pulled back along a map with these `simplex_images`:
    its coefficient on each simplex's image, and 0 where the image is -1."""
    padded = np.append(cochain.coeffs, np.uint8(0))
    return Cochain(cochain.degree, padded[images[cochain.degree]])


def _face_table(K: SimplicialComplex, d: int, e: int) -> np.ndarray:
    """(n_d, C(d + 1, e + 1)) indices of the e-faces of each d-simplex, in
    the order of `combinations` over its vertex positions."""
    index = K.simplex_index
    positions = np.array(list(combinations(range(d + 1), e + 1)), dtype=np.intp)
    return index.find(e, index.rows[d][:, positions])


def _set_bits(m: F2Matrix, rows: np.ndarray, cols: np.ndarray) -> F2Matrix:
    bits = np.uint64(1) << (cols & 63).astype(np.uint64)
    np.bitwise_xor.at(m.packed, (rows, cols >> 6), bits)
    return m


def coboundary_matrix(K: SimplicialComplex, d: int) -> F2Matrix:
    """Matrix of delta: C^d -> C^{d+1}; rows indexed by (d+1)-simplices."""
    if K.is_empty() or d < 0 or d > K.dimension:
        raise DegreeError(f"degree {d} out of range for dimension {K.dimension}")
    m = F2Matrix.zeros(K.n_simplices(d + 1), K.n_simplices(d))
    if d == K.dimension:
        return m
    faces = _faces(K, d + 1)
    return _set_bits(m, np.repeat(np.arange(m.nrows), d + 2), faces.ravel())


def coboundary_apply(K: SimplicialComplex, c: Cochain) -> Cochain:
    """delta(c), computed without materializing the matrix."""
    d = c.degree
    if d >= K.dimension:
        return Cochain(d + 1, np.zeros(K.n_simplices(d + 1), dtype=np.uint8))
    return Cochain(d + 1, np.bitwise_xor.reduce(c.coeffs[_faces(K, d + 1)], axis=1))


def is_cocycle(K: SimplicialComplex, c: Cochain) -> bool:
    return not coboundary_apply(K, c).coeffs.any()


def coboundary_space(K: SimplicialComplex, d: int) -> F2RowSpace:
    """Row space of im(delta_{d-1}) inside C^d (cached on K; do not mutate)."""
    return cached(K, ("coboundary_space", d), lambda: _coboundary_space(K, d))


def _coboundary_space(K: SimplicialComplex, d: int) -> F2RowSpace:
    n = K.n_simplices(d)
    if d == 0 or d > K.dimension:
        return F2RowSpace(n)
    # rows indexed by (d-1)-simplices: the transpose of delta_{d-1}
    m = F2Matrix.zeros(K.n_simplices(d - 1), n)
    _set_bits(m, _faces(K, d).ravel(), np.repeat(np.arange(n), d + 1))
    return F2RowSpace.from_matrix(m)


def cohomology(K: SimplicialComplex) -> CohomologySummary:
    """F2 Betti numbers, canonical cocycle representatives and cd.

    The empty complex reports cd = -1 so the saturated-diagonal bound
    arithmetic stays total on empty fixed sets.  Cached on K.
    """
    return cached(K, "cohomology", lambda: _cohomology(K))


def _cohomology(K: SimplicialComplex) -> CohomologySummary:
    reps: list[list[Cochain]] = []
    for d in range(K.dimension + 1):
        # Reduction mod coboundaries is a projection with kernel B, so v lies
        # in B + span(kept cocycles) iff its residue lies in the span of the
        # kept residues: keep each residue independent of those before it.
        kernel = coboundary_matrix(K, d).kernel_basis()
        residues = coboundary_space(K, d).reduce_batch(kernel)
        kept = F2Matrix.from_dense(residues).independent_rows()
        reps.append([Cochain(d, r) for r in residues[kept]])
    return CohomologySummary(betti=tuple(map(len, reps)), representatives=reps,
                             cd=f2_cd(K))


def f2_cd(K: SimplicialComplex) -> int:
    """Cohomological dimension over constant F2 coefficients (-1 if empty).

    Read off ranks, from the top degree down: b_d = n_d - dim B^{d+1} -
    dim B^d with the cached coboundary spaces, so no kernel basis or
    representative is computed.
    """
    for d in range(K.dimension, -1, -1):
        if K.n_simplices(d) > coboundary_space(K, d + 1).dim + coboundary_space(K, d).dim:
            return d
    return -1


def _cup_faces(K: SimplicialComplex, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(front p-face, back q-face) indices of each (p + q)-simplex."""
    index, rows = K.simplex_index, K.rows[p + q]
    return cached(K, ("cup_faces", p, q), lambda: (
        index.find(p, rows[:, :p + 1]), index.find(q, rows[:, p:])))


def cup_product(K: SimplicialComplex, a: Cochain, b: Cochain) -> Cochain:
    """Front-face/back-face cup product on the ordered complex."""
    p, q = a.degree, b.degree
    if p + q > K.dimension:
        return Cochain(p + q, np.zeros(0, dtype=np.uint8))
    front, back = _cup_faces(K, p, q)
    return Cochain(p + q, a.coeffs[front] & b.coeffs[back])


def _level_rows(level: list[Cochain], n: int) -> np.ndarray:
    return np.array([c.coeffs for c in level], dtype=np.uint8).reshape(-1, n)


class CohomologyRing:
    """H*(K; F2) on the basis e_0, e_1, ... of the representatives that
    `cohomology(K)` lists, degree by degree, with its structure constants:
    table[i, k] holds the coordinates of e_i ∪ e_k.
    """

    def __init__(self, K: SimplicialComplex):
        reps = cohomology(K).representatives
        self.complex = K
        self.basis = [c for level in reps for c in level]
        self.degrees = np.array([c.degree for c in self.basis], dtype=np.intp)
        self.offsets = np.cumsum([0] + [len(level) for level in reps])
        # rows [e | unit tag]: reducing [v | 0] against them leaves [0 | x]
        # for v = sum x_l e_l, as the representatives are independent
        self._tagged = [
            F2RowSpace.from_matrix(F2Matrix.from_dense(np.hstack(
                [_level_rows(level, K.n_simplices(d)),
                 np.eye(len(level), dtype=np.uint8)])))
            for d, level in enumerate(reps)]
        n = len(self.basis)
        self.table = np.zeros((n, n, n), dtype=np.uint8)
        for p, a in enumerate(reps):
            for q, b in enumerate(reps):
                if not a or not b or p + q > K.dimension:
                    continue
                front, back = _cup_faces(K, p, q)
                prods = (_level_rows(a, K.n_simplices(p))[:, None, front]
                         & _level_rows(b, K.n_simplices(q))[None, :, back])
                self.table[self.offsets[p]:self.offsets[p + 1],
                           self.offsets[q]:self.offsets[q + 1]] = self.coordinates(
                    p + q, prods.reshape(len(a) * len(b), -1)).reshape(len(a), len(b), n)

    def coordinates(self, d: int, cocycles: np.ndarray) -> np.ndarray:
        """Coordinates of the classes of degree-d cocycles, as (k, n) rows."""
        n_d = self.complex.n_simplices(d)
        residues = coboundary_space(self.complex, d).reduce_batch(cocycles)
        b_d = self.offsets[d + 1] - self.offsets[d]
        tagged = self._tagged[d].reduce_batch(
            np.hstack([residues, np.zeros((len(residues), b_d), dtype=np.uint8)]))
        if tagged[:, :n_d].any():
            raise ValueError("class outside the span of the representatives")
        out = np.zeros((len(residues), len(self.basis)), dtype=np.uint8)
        out[:, self.offsets[d]:self.offsets[d + 1]] = tagged[:, n_d:]
        return out

    def tensor_multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Every product of a row of x with a row of y, as rows, in
        H*(K) ⊗ H*(K) on the basis e_i ⊗ e_j at index i n + j:
        (a ⊗ b)(c ⊗ d) = ac ⊗ bd, with no sign mod 2."""
        n = len(self.basis)
        t = self.table.astype(np.int64)
        z = np.einsum("aij,bkl,ikm,jlo->abmo", x.reshape(-1, n, n).astype(np.int64),
                      y.reshape(-1, n, n).astype(np.int64), t, t, optimize=True)
        return (z & 1).astype(np.uint8).reshape(-1, n * n)


def cohomology_ring(K: SimplicialComplex) -> CohomologyRing:
    """The cohomology ring of K (cached on K)."""
    return cached(K, "ring", lambda: CohomologyRing(K))


def _row_basis(rows: np.ndarray) -> np.ndarray:
    """The rows independent of the rows before them."""
    return rows[F2Matrix.from_dense(rows).independent_rows()]


def product_length(generators: np.ndarray, multiply) -> int:
    """Largest k with a nonzero k-fold product from the span of `generators`.

    Rows are elements of a graded F2 algebra, each of one degree, written
    in a canonical form (rows are independent exactly when the elements
    are); `multiply(x, y)` returns every product of a row of x with a row of
    y in that form.  Level k + 1 is a basis of level k times the
    generators, so level k spans the k-th power of their span.  Returns 0
    if they span 0.
    """
    gens = _row_basis(generators)
    level = gens
    length = 0
    while level.shape[0]:
        length += 1
        level = _row_basis(multiply(level, gens))
    return length


def cup_length(K: SimplicialComplex, classes) -> int:
    """Longest nonzero product of positive-degree classes from the span.

    `classes` are cocycle representatives; a non-cocycle is rejected.
    Returns 0 for an empty family or when every class is a coboundary.
    Classes are rows over the cochains of all degrees, reduced modulo
    coboundaries degree by degree, so H*(K) itself is never computed.
    """
    offsets = np.cumsum([0] + [K.n_simplices(d) for d in range(K.dimension + 1)])

    def reduced(d: int, coeffs: np.ndarray) -> np.ndarray:
        row = np.zeros(offsets[-1], dtype=np.uint8)
        if d <= K.dimension:
            row[offsets[d]:offsets[d + 1]] = coboundary_space(K, d).reduce(coeffs)
        return row

    def cochain(row: np.ndarray) -> Cochain:
        d = int(np.searchsorted(offsets, np.flatnonzero(row)[0], side="right")) - 1
        return Cochain(d, row[offsets[d]:offsets[d + 1]])

    def multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        rows = []
        for a in map(cochain, x):
            for b in map(cochain, y):
                prod = cup_product(K, a, b)
                rows.append(reduced(prod.degree, prod.coeffs))
        return np.array(rows, dtype=np.uint8).reshape(-1, offsets[-1])

    rows = []
    for c in classes:
        if c.degree <= 0:
            raise ValueError("cup_length expects positive-degree classes")
        if not is_cocycle(K, c):
            raise ValueError("representative is not a cocycle")
        rows.append(reduced(c.degree, c.coeffs))
    return product_length(np.array(rows, dtype=np.uint8).reshape(-1, offsets[-1]),
                          multiply)


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision.

    The subdivision vertex for a simplex sigma is (dim sigma, sigma); the
    identifier order is therefore dimension-primary, which makes every
    simplicial automorphism of K order-monotone on the subdivided simplices.

    (d, σᵢ) has index offset_d + i, so a simplex of the subdivision, a chain
    of faces, is a row of increasing indices.  The chains are grown from
    the bottom: a chain whose smallest simplex has dimension d gains each
    proper face of it, read off the face tables.
    """
    if K.is_empty():
        return SimplicialComplex((), [])
    counts = [K.n_simplices(d) for d in range(K.dimension + 1)]
    offsets = np.cumsum([0] + counts)
    faces = {(d, e): _face_table(K, d, e) + offsets[e]
             for d in range(1, len(counts)) for e in range(d)}
    # chains[d]: the chains of the current length whose bottom has dimension d
    chains = [(offsets[d] + np.arange(n, dtype=np.intp))[:, None]
              for d, n in enumerate(counts)]
    rows = []
    while True:
        level = np.concatenate(chains)
        if not len(level):
            break
        rows.append(level[np.lexsort(level.T[::-1])])
        grown = [[np.zeros((0, level.shape[1] + 1), dtype=np.intp)] for _ in counts]
        for (d, e), table in faces.items():
            chain = chains[d]
            below = table[chain[:, 0] - offsets[d]]
            grown[e].append(np.column_stack(
                [below.ravel(), np.repeat(chain, below.shape[1], axis=0)]))
        chains = [np.concatenate(g) for g in grown]
    return SimplicialComplex(
        [(d, s) for d, level in enumerate(K.simplices_by_dim) for s in level], rows)


def _maximal_simplices(K: SimplicialComplex) -> list[tuple]:
    """The simplices that are no face of another, top dimension first."""
    maximal = []
    for d in range(K.dimension, -1, -1):
        is_face = np.zeros(K.n_simplices(d), dtype=bool)
        if d < K.dimension:
            is_face[_faces(K, d + 1).ravel()] = True
        level = K.simplices(d)
        maximal.extend(level[i] for i in np.flatnonzero(~is_face))
    return maximal


def write_complex_text(K: SimplicialComplex, path) -> None:
    """One line per maximal simplex, whitespace-separated integer vertex ids."""
    lines = ["# maximal simplices, one per line"]
    for s in sorted(_maximal_simplices(K)):
        lines.append(" ".join(str(v) for v in s))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_complex_text(path) -> SimplicialComplex:
    simplices = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                simplices.append([int(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"bad vertex id in line {line!r}") from exc
    if not simplices:
        raise ValueError("no simplices in file")
    return build_complex(simplices)
