"""Independent oracles used across the test suite.

The linear algebra and subgroup enumeration here are deliberately written
from scratch (dense mod-2 row reduction, explicit simplex combinatorics,
generator-subset closures) so they share no code path with the package
implementation they check.  The zero-divisor oracle takes the other route
through the package instead: it builds the staircase product X x X and
computes its cohomology, where the package works in H*(X) (x) H*(X).  The
certification oracle checks the chunks of x rows one after another, in the
order `verify_cover` states, with no halo: each chunk builds its own legs,
and fresh ones for the far rows of its x edges.
The leg oracles are the whole-array forms of builders that now work in row
blocks, in place or in pieces: the slerp recurrence over all rows in one
buffer, the adversarial legs assembled from a separate geodesic of the rows
with a unique arc, and built whole in place as they were before they became
an arc piece, the legs of the sphere covers built whole on every pair
(before they were cut into pieces of x, of y, of both and of neither), the
chains of arcs of the hemisphere and geodesic cat covers joined by
`slerp_chain` (before they were given as pieces), the whole legs of the
point, circle, arc and torus-cut covers and of the covers transferred from
a quotient (before every set was given as pieces), the Python-set
neighbour loop of the sphere grids, the point-by-point neighbour loops and
wedge grid of the other spaces, and the wedge geodesics built row by row.  `leg_pieces` turns a test's whole-leg
builder into the pieces a cover set is made from.  `sphere_action_kind`
tells the catalog sphere actions apart by sampling, as the package did
before the two-stage involution cover chose its branch by freeness.
The group-action oracles are the tuple-and-dict forms of what `symmetry`
now does on integer tables: they apply vertex maps simplex by simplex, and
look simplices up in sets and dicts built from a complex's tuple view,
never through `SimplicialComplex.index` or `contains`.  `complex_of`
spells a set of simplex tuples as the rows the one `SimplicialComplex`
constructor takes, and `perm_of_maps` spells vertex-map dicts as the table
the one `GroupAction` constructor takes.
The coordinate-sum oracles are the reductions that `_kernels.coord_dot`
replaced: `np.add.reduce` over the last axis, and the orbit distance as
the minimum over a stack of one distance array per group element.
The elimination and subdivision oracles are the forms that `f2` and
`complexes` replaced: the F2 row reduction that reads one pivot column per
numpy step, and the subdivision that enumerates the chains of every maximal
simplex through permutations of its vertices and closes them under faces.
The first-coordinate oracles are the bodies that `pathspace.on_first`
replaced, each written out as it was: the torus half turn, the wedge shift,
the hemisphere flip, the hemisphere and torus projections, the torus
preimage and the fold of the involution planner; the sphere involutions'
matrices as they were built; the arc guard is planners' former
`_guard_arc`, which `pathspace.check_arcs` replaced.
"""
from __future__ import annotations

import functools
from itertools import combinations, permutations
from unittest import mock

import numpy as np

from efftc import bounds
from efftc.bounds import Certification
from efftc._kernels import slerp_batch, slerp_into
from efftc.models import Hemisphere
from efftc.pathspace import (
    ARC_SLACK,
    Arc,
    Circle,
    FlatTorus,
    WedgeCircles,
    leg_residuals,
    trivial_space_action,
    wrapped_lines,
)
from efftc.planners import (
    CoverSet,
    Piece,
    PlannerCover,
    TORUS_CUTS,
    _by_blocks,
    _const_legs,
    _const_piece,
    _pairing_field,
    _rotation_leg,
    _stereo_field,
    _tangent_unit,
    embed_cover,
    hemisphere_cat_cover,
    hemisphere_cover,
)
from efftc.complexes import (
    Cochain,
    SimplicialComplex,
    coboundary_space,
    cohomology,
    cup_length,
)
from efftc.errors import GeodesicDegeneracyError, RegularityError
from efftc.f2 import F2Matrix
from efftc.scenarios import BUILTINS, build_bundle, build_planner
from efftc.symmetry import GroupAction, product_complex, saturated_diagonal


def dense_rank_mod2(M) -> int:
    """Plain dense Gaussian elimination over F2."""
    A = (np.array(M, dtype=np.int64) % 2).astype(np.int64)
    if A.size == 0:
        return 0
    rows, cols = A.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if A[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        A[[rank, pivot]] = A[[pivot, rank]]
        for r in range(rows):
            if r != rank and A[r, c]:
                A[r] = (A[r] + A[rank]) % 2
        rank += 1
        if rank == rows:
            break
    return rank


def dense_rref_mod2(M) -> tuple[np.ndarray, list[int]]:
    """Plain dense reduced row echelon form over F2: (nonzero rows, pivots)."""
    A = np.array(M, dtype=np.int64).reshape(len(M), -1) % 2
    rows, cols = A.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        hits = [i for i in range(r, rows) if A[i, c]]
        if not hits:
            continue
        A[[r, hits[0]]] = A[[hits[0], r]]
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] + A[r]) % 2
        pivots.append(c)
    return A[:len(pivots)], pivots


def dense_reduce_mod2(M, vec) -> np.ndarray:
    """The representative of vec mod the row space of M that vanishes on
    every pivot column of the reduced row echelon form."""
    R, pivots = dense_rref_mod2(M)
    v = np.array(vec, dtype=np.int64) % 2
    for row, c in zip(R, pivots):
        if v[c]:
            v = (v + row) % 2
    return v.astype(np.uint8)


def column_loop_rref(M: F2Matrix) -> tuple[F2Matrix, list[int]]:
    """Reduced row echelon form of a packed matrix, one pivot column per
    numpy step: (nonzero rows, pivot columns)."""
    rows = M.packed.copy()
    nrows = rows.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(M.ncols):
        if r == nrows:
            break
        hit = ((rows[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)).astype(bool)
        nz = np.flatnonzero(hit[r:])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            rows[[r, i]] = rows[[i, r]]
            hit[i] = hit[r]
        hit[r] = False
        if hit.any():
            rows[hit] ^= rows[r]
        pivots.append(c)
        r += 1
    return F2Matrix(rows[:r].copy(), M.ncols), pivots


def closure_of(simplices) -> set[tuple]:
    closed: set[tuple] = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            for face in combinations(s, k):
                closed.add(face)
    return closed


def simplices_by_dim(simplex_set) -> list[list[tuple]]:
    if not simplex_set:
        return []
    maxdim = max(len(s) for s in simplex_set) - 1
    by_dim = [[] for _ in range(maxdim + 1)]
    for s in simplex_set:
        by_dim[len(s) - 1].append(tuple(s))
    for level in by_dim:
        level.sort()
    return by_dim


def complex_of(simplex_set) -> SimplicialComplex:
    """The complex whose simplices are the given increasing tuples, closed
    under faces: its vertices the 0-simplices, its rows each degree's
    tuples sorted and spelled in vertex positions through a dict."""
    by_dim = simplices_by_dim(simplex_set)
    vertices = [s[0] for s in by_dim[0]] if by_dim else []
    where = {v: i for i, v in enumerate(vertices)}
    return SimplicialComplex(vertices, [
        np.array([[where[v] for v in s] for s in level], dtype=np.intp).reshape(len(level), d + 1)
        for d, level in enumerate(by_dim)])


def perm_of_maps(K, vertex_maps) -> np.ndarray:
    """The permutation table of {vertex: image} dicts over K's vertex
    indices, -1 for an image that is no vertex; a dict whose keys are not
    the vertices gets a row of -1, which is no permutation."""
    where = {v: i for i, v in enumerate(K.vertices)}
    rows = [[where.get(vm[v], -1) for v in K.vertices] if vm.keys() == where.keys()
            else [-1] * len(K.vertices) for vm in vertex_maps]
    return np.array(rows, dtype=np.intp).reshape(len(rows), len(K.vertices))


def vertex_dict(K, table, L) -> dict:
    """A vertex table K -> L spelled as the {vertex: image} dict."""
    return {v: L.vertices[j] for v, j in zip(K.vertices, table.tolist())}


def simplex_images_by_tuples(K, table, L) -> list[list[int]]:
    """complexes.simplex_images of one vertex table, simplex by simplex:
    each simplex's image tuple looked up among L's simplices of its degree,
    -1 where two vertices meet or L has no such simplex."""
    where = [{s: i for i, s in enumerate(level)} for level in L.simplices_by_dim]
    out = []
    for d, level in enumerate(K.simplices_by_dim):
        images = []
        for s in level:
            image = tuple(sorted({L.vertices[table[K.vertex_index[v]]] for v in s}))
            found = len(image) == d + 1 and d < len(where)
            images.append(where[d].get(image, -1) if found else -1)
        out.append(images)
    return out


def oracle_coboundary(by_dim, d) -> np.ndarray:
    """Dense coboundary matrix C^d -> C^{d+1} built from scratch."""
    rows = by_dim[d + 1] if d + 1 < len(by_dim) else []
    cols = by_dim[d]
    col_index = {s: i for i, s in enumerate(cols)}
    M = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for i, tau in enumerate(rows):
        for j in range(len(tau)):
            face = tau[:j] + tau[j + 1:]
            M[i, col_index[face]] += 1
    return M % 2


def oracle_betti(maximal) -> tuple[int, ...]:
    """F2 Betti numbers from dense rank computations."""
    by_dim = simplices_by_dim(closure_of(maximal))
    if not by_dim:
        return ()
    dim = len(by_dim) - 1
    betti = []
    prev_rank = 0
    for d in range(dim + 1):
        n_d = len(by_dim[d])
        if d < dim:
            rank_d = dense_rank_mod2(oracle_coboundary(by_dim, d))
        else:
            rank_d = 0
        betti.append(n_d - rank_d - prev_rank)
        prev_rank = rank_d
    return tuple(betti)


def maximal_by_subsets(K) -> list[tuple]:
    """The simplices of K contained in no simplex one dimension up, top
    dimension first, each degree in K's order."""
    return [s for d in range(K.dimension, -1, -1) for s in K.simplices(d)
            if not any(set(s) <= set(t) for t in K.simplices(d + 1))]


def subdivision_by_chains(K) -> SimplicialComplex:
    """The barycentric subdivision with vertices (dim σ, σ): the chains of
    faces read off each ordering of the vertices of each maximal simplex,
    closed under faces."""
    chains = {tuple(sorted((i, tuple(sorted(perm[:i + 1]))) for i in range(len(perm))))
              for sigma in maximal_by_subsets(K) for perm in permutations(sigma)}
    return complex_of(closure_of(chains))


def oracle_cd(maximal) -> int:
    betti = oracle_betti(maximal)
    nz = [d for d, b in enumerate(betti) if b > 0]
    return max(nz) if nz else -1


def subgroups_by_generator_subsets(G) -> list[frozenset]:
    """Every subgroup of G, as the closures of all generator subsets of size
    up to log2 |G| (a subgroup of order m has a generating set of at most
    log2 m elements), ordered by (size, sorted elements)."""
    n = G.order

    def closure(gens):
        s = {0} | set(gens)
        while True:
            grown = s | {G.table[a][b] for a in s for b in s}
            if grown == s:
                return frozenset(s)
            s = grown

    found = {frozenset([0])}
    for k in range(1, min(n - 1, max(1, n.bit_length())) + 1):
        for gens in combinations(range(1, n), k):
            found.add(closure(gens))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def product_zero_divisors(action):
    """(X x X, kernel cocycles) of H^+(X x X) -> H^+(saturated diagonal),
    computed on the materialised staircase product of the base with itself."""
    diag = saturated_diagonal(action)
    P = product_complex(diag.base.complex, diag.base.complex)
    T = diag.union_complex
    reps = cohomology(P).representatives
    kernel = []
    for d in range(1, P.dimension + 1):
        if not reps[d]:
            continue
        if d > T.dimension:
            kernel.extend(reps[d])
            continue
        # raises KeyError if a slice simplex is missing from the product
        where = {s: i for i, s in enumerate(P.simplices(d))}
        idx = np.array([where[s] for s in T.simplices(d)], dtype=np.intp)
        cb = coboundary_space(T, d)
        columns = np.stack([cb.reduce(rep.coeffs[idx]) for rep in reps[d]], axis=1)
        for combo in F2Matrix.from_dense(columns).kernel_basis():
            vec = np.zeros(P.n_simplices(d), dtype=np.uint8)
            for k in np.nonzero(combo)[0]:
                vec ^= reps[d][int(k)].coeffs
            kernel.append(Cochain(d, vec))
    return P, kernel


def product_zero_divisor_cup_length(action) -> int:
    """Zero-divisor cup length on the materialised product X x X."""
    P, kernel = product_zero_divisors(action)
    return cup_length(P, kernel) if kernel else 0


def chunk_order_verify_cover(cover, grid: int = 32, epsilon: float = 0.05,
                             delta: float = 1e-6, modulus: float = 10.0,
                             samples: int = 64,
                             budget: int = 2_000_000) -> Certification:
    """verify_cover as one serial loop over chunks of x rows.  A chunk
    checks the coverage of its pairs, then set by set: orbit joints,
    endpoints, continuity along y, and continuity along x on the edges whose
    larger endpoint lies in the chunk.  Every chunk builds its own legs, and
    the x edges get fresh legs for both of their rows, the far one outside
    the chunk included.  `budget` is the sample budget of a chunk
    (verify_cover's SAMPLE_BUDGET)."""
    action = cover.action
    space = action.space
    params = {"grid": grid, "epsilon": epsilon, "delta": delta,
              "modulus": modulus, "samples": samples}
    ypts = space.grid(grid)
    ynbr = space.grid_neighbor_pairs(grid)
    if cover.kind == "cat":
        xpts = np.asarray(cover.basepoint, float)[None, :]
        xnbr = np.zeros((0, 2), dtype=np.intp)
    else:
        xpts = ypts
        xnbr = ynbr

    m_y = ypts.shape[0]
    m_x = xpts.shape[0]
    endpoint_tol = 1e-6
    chunk_rows = max(1, budget // (m_y * samples))

    def failure(reason, **detail):
        return {"reason": reason, **detail}

    def pairs_of(xidx):
        return np.repeat(xpts[xidx], m_y, axis=0), np.tile(ypts, (len(xidx), 1))

    def continuity(cs, X, Y, legs, pos, a, b, indist):
        supdiff = np.zeros(a.size)
        for leg in legs:
            supdiff = np.maximum(
                supdiff, space.supdiff_pairs(leg, pos[a], pos[b]))
        bad = supdiff > modulus * indist
        if bad.any():
            w = int(np.argmax(bad))
            return failure("continuity", set=cs.name,
                           pair=[X[a[w]].tolist(), Y[a[w]].tolist()],
                           neighbor=[X[b[w]].tolist(), Y[b[w]].tolist()],
                           supdiff=float(supdiff[w]),
                           allowed=float(modulus * indist[w]))
        return None

    def sections(cs, X, Y):
        # (acceptance, legs of the accepted pairs, their row in the legs)
        acc = cs.margin(X, Y) >= epsilon
        rows = np.nonzero(acc)[0]
        legs = cs.build_legs(X[rows], Y[rows], samples) if rows.size else []
        pos = np.full(acc.size, -1, dtype=np.intp)
        pos[rows] = np.arange(rows.size)
        return acc, rows, legs, pos

    def y_checks(cs, X, Y, k):
        acc, rows, legs, pos = sections(cs, X, Y)
        if not rows.size:
            return None
        for i in range(len(legs) - 1):
            joint = action.orbit_dist(legs[i][:, -1], legs[i + 1][:, 0])
            bad = joint > delta
            if bad.any():
                r = rows[int(np.argmax(bad))]
                return failure("validation", set=cs.name,
                               pair=[X[r].tolist(), Y[r].tolist()],
                               joint_residual=float(joint.max()))
        res0 = space.dist(legs[0][:, 0], X[rows])
        res1 = space.dist(legs[-1][:, -1], Y[rows])
        bad = (res0 > endpoint_tol) | (res1 > endpoint_tol)
        if bad.any():
            r = rows[int(np.argmax(bad))]
            return failure("validation", set=cs.name,
                           pair=[X[r].tolist(), Y[r].tolist()],
                           endpoint_residual=float(max(res0.max(), res1.max())))
        base = np.arange(k) * m_y
        nbr_a = (base[:, None] + ynbr[None, :, 0]).ravel()
        nbr_b = (base[:, None] + ynbr[None, :, 1]).ravel()
        nbr_dist = np.tile(space.dist(ypts[ynbr[:, 0]], ypts[ynbr[:, 1]]), k)
        both = acc[nbr_a] & acc[nbr_b]
        return continuity(cs, X, Y, legs, pos, nbr_a[both], nbr_b[both],
                          nbr_dist[both])

    def x_checks(cs, edges):
        # the pairs (x_a, y), (x_b, y) of every edge (a, b), y-major
        if not edges.size:
            return None
        xs = np.unique(xnbr[edges])
        X, Y = pairs_of(xs)
        acc, rows, legs, pos = sections(cs, X, Y)
        if not rows.size:
            return None
        ends = np.searchsorted(xs, xnbr[edges])
        y, j = np.divmod(np.arange(m_y * edges.size), edges.size)
        a, b = ends[j, 0] * m_y + y, ends[j, 1] * m_y + y
        both = acc[a] & acc[b]
        indist = space.dist(xpts[xnbr[edges, 0]], xpts[xnbr[edges, 1]])[j]
        return continuity(cs, X, Y, legs, pos, a[both], b[both], indist[both])

    def chunk(start):
        xidx = np.arange(start, min(start + chunk_rows, m_x))
        X, Y = pairs_of(xidx)
        covered = np.zeros(X.shape[0], dtype=bool)
        for cs in cover.sets:
            covered |= cs.margin(X, Y) >= epsilon
        if not covered.all():
            r = int(np.argmax(~covered))
            return failure("coverage", pair=[X[r].tolist(), Y[r].tolist()])
        closer = xnbr.max(axis=1)
        edges = np.flatnonzero((closer >= xidx[0]) & (closer <= xidx[-1]))
        for cs in cover.sets:
            found = y_checks(cs, X, Y, xidx.size) or x_checks(cs, edges)
            if found:
                return found
        return None

    found = next((f for f in map(chunk, range(0, m_x, chunk_rows)) if f), None)
    if found:
        return Certification(certified=False, bound=None, params=params,
                             sets=len(cover.sets), stage=cover.stage,
                             failure=found)
    return Certification(certified=True, bound=cover.claimed_bound, params=params,
                         sets=len(cover.sets), stage=cover.stage)


@functools.lru_cache(maxsize=None)
def catalog_certification(scenario, planner, grid, embedded, cpus):
    """verify_cover of a catalog planner's cover (embedded one stage up when
    `embedded`) at `grid`, on `cpus` CPUs, once per test run: criterion 7b
    and the sweep's oracle test certify the same covers."""
    cover = build_planner(planner, build_bundle(BUILTINS[scenario]))
    if embedded:
        cover = embed_cover(cover)
    with mock.patch.object(bounds, "usable_cpus", lambda: cpus):
        return bounds.verify_cover(cover, grid=grid)


def leg_pieces(legs, count=1):
    """A whole-leg builder legs(X, Y, m) -> `count` (M, m, d) arrays as the
    pieces of a cover set: leg k is one piece of both inputs, built as
    legs(X, Y, m)[k]."""
    return tuple((Piece("xy", lambda X, Y, m, k=k: legs(X, Y, m)[k]),)
                 for k in range(count))


def residuals_of_legs(action, legs, X, Y):
    """leg_residuals of the broken paths whose legs are (M, n_i, d) arrays."""
    return leg_residuals(action, [leg[:, 0] for leg in legs],
                         [leg[:, -1] for leg in legs], X, Y)


def reduce_coord_dot(a, b):
    """The sum over the last axis of a * b by one numpy reduction."""
    return np.add.reduce(a * b, axis=-1)


def reduce_sphere_dist(p, q):
    """Sphere.dist with its chord summed by reduce_coord_dot."""
    d = np.asarray(p, float) - np.asarray(q, float)
    chord = np.sqrt(reduce_coord_dot(d, d))
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


def stacked_orbit_dist(action, p, q):
    """SpaceAction.orbit_dist as the minimum over a (|G|, ...) stack."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    stack = np.stack([action.space.dist(action.act(g, p), q)
                      for g in range(action.group.order)], axis=0)
    return stack.min(axis=0)


def angle_arc_bound(F, ia, F2, ib):
    """The endpoint bound of the arcs with (column-major) frames F[:, ia]
    and F2[:, ib] as an angle, Sphere.frame_bound in its former form: gathered as
    whole (entries, 2d + 2) rows, the chord summed by einsum, then
    2 arcsin(min(1, (chord + ARC_SLACK) / 2)).  An edge it clears has
    angle + ARC_SLACK <= L h."""
    F, F2 = F.T[ia], F2.T[ib]
    diff = F - F2
    moved = diff[:, :-2]
    chord = np.sqrt(np.einsum("ij,ij->i", moved, moved))
    chord += np.abs(diff[:, -2]) + F[:, -1] + F2[:, -1]
    return 2.0 * np.arcsin(np.minimum(1.0, (chord + ARC_SLACK) / 2.0))


def whole_slerp_into(P, Q, out):
    """The Chebyshev slerp recurrence over all rows at once, in one
    sample-major (n, d, M) buffer."""
    P = np.ascontiguousarray(P, dtype=np.float64)
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    m, n = out.shape[0], out.shape[1]
    theta = np.arccos(np.clip((P * Q).sum(axis=1), -1.0, 1.0))
    s = np.sin(theta)
    arc = s >= 1e-9
    step = theta / max(n - 1.0, 1.0)
    inv_s = 1.0 / np.where(arc, s, 1.0)
    a1 = np.sin(theta - step) * inv_s
    b1 = np.sin(step) * inv_s
    k = 2.0 * np.cos(step)
    Pt, Qt = P.T, Q.T
    buf = np.empty((n, P.shape[1], m))
    buf[0] = Pt
    if n > 2:
        buf[1] = a1 * Pt + b1 * Qt
    for j in range(2, n - 1):
        np.multiply(k, buf[j - 1], out=buf[j])
        buf[j] -= buf[j - 2]
    if not arc.all():
        rows = np.flatnonzero(~arc)
        t = np.linspace(0.0, 1.0, n)[:, None, None]
        lerp = (1.0 - t) * Pt[:, rows] + t * Qt[:, rows]
        norm = np.sqrt((lerp * lerp).sum(axis=1, keepdims=True))
        buf[:, :, rows] = lerp / np.where(norm > 0.0, norm, 1.0)
    out[:] = buf.transpose(2, 0, 1)
    out[:, 0] = P
    out[:, -1] = Q
    return out


def _adversarial_claim(action, honest_membership, legs):
    """The single-set claim of adversarial_sphere_cover, its one leg built
    whole by legs(X, Y, m)."""
    space = action.space

    def margin(X, Y):
        if honest_membership:
            return space.dist(Y, -X)
        return np.full(X.shape[0], np.inf)

    return PlannerCover(action=action, sets=[CoverSet("U", 1, margin, leg_pieces(legs))],
                        stage=1, name="adversarial")


def former_adversarial_legs(space):
    """The adversarial claim's leg as adversarial_sphere_cover built it
    whole before it became an arc piece: every row slerped in place, then
    the rows without a unique arc overwritten by the half-circle
    tie-break."""
    w = np.zeros(space.point_dim)
    w[1] = 1.0

    def legs(X, Y, m):
        bad = space.dist(X, Y) > np.pi - 1e-6
        out = slerp_batch(X, np.where(bad[:, None], X, Y), m)
        if bad.any():
            dirs = _tangent_unit(X[bad], np.broadcast_to(w, X[bad].shape).copy())
            t = np.linspace(0.0, 1.0, m)
            out[bad] = (np.cos(np.pi * t)[None, :, None] * X[bad][:, None, :]
                        + np.sin(np.pi * t)[None, :, None] * dirs[:, None, :])
        return [out]

    return legs


def former_adversarial_cover(action, honest_membership: bool = False):
    """adversarial_sphere_cover with its former whole-leg builder."""
    return _adversarial_claim(action, honest_membership,
                              former_adversarial_legs(action.space))


def adversarial_cover_by_parts(action, honest_membership: bool = False):
    """adversarial_sphere_cover with its legs assembled from parts: an
    empty (M, m, d) array, the geodesic of the rows with a unique arc
    scattered into it, then the half-circle tie-break on the others."""
    space = action.space
    w = np.zeros(space.point_dim)
    w[1] = 1.0

    def legs(X, Y, m):
        out = np.empty((X.shape[0], m, space.point_dim))
        good = space.dist(X, Y) <= np.pi - 1e-6
        if good.any():
            out[good] = space.geodesic(X[good], Y[good], m)
        bad = ~good
        if bad.any():
            dirs = _tangent_unit(X[bad], np.broadcast_to(w, X[bad].shape).copy())
            t = np.linspace(0.0, 1.0, m)
            out[bad] = (np.cos(np.pi * t)[None, :, None] * X[bad][:, None, :]
                        + np.sin(np.pi * t)[None, :, None] * dirs[:, None, :])
        return [out]

    return _adversarial_claim(action, honest_membership, legs)


def slerp_chain(waypoint_pairs, samples):
    """Concatenated slerp arcs: [(P1,Q1),...] -> (M, >=samples, d).

    The requested leg sample count is split evenly over the pieces.
    """
    pieces = len(waypoint_pairs)
    n = max(2, int(np.ceil(samples / pieces)))
    P = np.stack([np.ascontiguousarray(p, dtype=np.float64)
                  for p, _ in waypoint_pairs])
    Q = np.stack([np.ascontiguousarray(q, dtype=np.float64)
                  for _, q in waypoint_pairs])
    m, d = P.shape[1], P.shape[2]
    out = np.empty((m, pieces * n, d))
    for k in range(pieces):
        slerp_into(P[k], Q[k], out[:, k * n:(k + 1) * n])
    return out


def whole_chain_legs(cover) -> dict:
    """{set name: build_legs} of a hemisphere, hemisphere-cat or
    cat-geodesic cover, each leg one slerp_chain over every pair."""
    space = cover.action.space
    if cover.name in ("hemisphere", "hemisphere-cat"):
        north = np.zeros(space.point_dim)
        north[0] = 1.0

        def legs(X, Y, m):
            north_t = np.broadcast_to(north, Y.shape)
            if cover.name == "hemisphere-cat":
                return [slerp_chain([(north_t, Y)], m)]
            return [slerp_chain([(X, north_t), (north_t, Y)], m)]

        return {"U": legs}
    if cover.name != "cat-geodesic":
        raise ValueError(f"no chained-leg oracle for {cover.name!r}")
    basepoint = cover.basepoint
    w = np.zeros(space.point_dim)
    w[1] = 1.0
    if abs(float(np.dot(w, basepoint))) > 0.9:
        w = np.zeros(space.point_dim)
        w[2 % space.point_dim] = 1.0
    w_dir = w - np.dot(w, basepoint) * basepoint
    w_dir = w_dir / np.linalg.norm(w_dir)

    def legs_a1(X, Y, m):
        base_t = np.broadcast_to(basepoint, Y.shape)
        former_guard_arc(space, base_t, Y)
        return [slerp_chain([(base_t, Y)], m)]

    def legs_a2(X, Y, m):
        base_t = np.broadcast_to(basepoint, Y.shape)
        anti_t = np.broadcast_to(-basepoint, Y.shape)
        w_t = np.broadcast_to(w_dir, Y.shape)
        former_guard_arc(space, anti_t, Y)
        return [slerp_chain([(base_t, w_t), (w_t, anti_t), (anti_t, Y)], m)]

    return {"A1": legs_a1, "A2": legs_a2}


def _whole_arc_then_half(space, X, Y, field_unit, m):
    former_guard_arc(space, X, -Y)
    return slerp_chain([(X, -Y), (-Y, field_unit), (field_unit, Y)], m)


def sphere_action_kind(action) -> str:
    """"trivial", "antipodal", "codim1" or "other": the catalog sphere
    actions told apart by where the involution sends random points."""
    if action.group.order == 1:
        return "trivial"
    if action.group.order != 2:
        return "other"
    pts = action.space.random_points(np.random.default_rng(1), 16)
    img = action.act(1, pts)
    if np.allclose(img, -pts, atol=1e-9):
        return "antipodal"
    codim1 = pts.copy()
    codim1[:, 0] = -codim1[:, 0]
    return "codim1" if np.allclose(img, codim1, atol=1e-9) else "other"


def whole_sphere_legs(planner, action) -> dict:
    """{set name: build_legs} of the farber, involution2 or involution3
    cover of a sphere action, each leg built whole on every pair."""
    space = action.space
    n = space.n
    north = np.zeros(space.point_dim)
    north[0] = 1.0
    south, w_dir = -north, np.zeros(space.point_dim)
    w_dir[1] = 1.0
    field = _pairing_field if n % 2 == 1 else _stereo_field

    def half_turn(X, Y, m):
        return _whole_arc_then_half(space, X, Y, _tangent_unit(Y, field(Y)), m)

    if planner == "farber":
        def u3(X, Y, m):
            north_t = np.broadcast_to(north, X.shape)
            south_t = np.broadcast_to(south, Y.shape)
            w_t = np.broadcast_to(w_dir, X.shape)
            former_guard_arc(space, X, north_t)
            former_guard_arc(space, south_t, Y)
            return [slerp_chain([(X, north_t), (north_t, w_t),
                                 (w_t, south_t), (south_t, Y)], m)]

        legs = {"U1": lambda X, Y, m: [space.geodesic(X, Y, m)],
                "U2": lambda X, Y, m: [half_turn(X, Y, m)]}
        if n % 2 == 0:
            legs["U3"] = u3
        return legs
    if planner == "involution2":
        if sphere_action_kind(action) == "antipodal":
            def u2(X, Y, m):
                return [_const_legs(X, m), space.geodesic(-X, Y, m)]
        elif n % 2 == 0:
            def u2(X, Y, m):
                return [_rotation_leg(X, m), space.geodesic(-X, Y, m)]
        else:
            def u2(X, Y, m):
                return [half_turn(X, Y, m), _const_legs(Y, m)]
        return {"U1": lambda X, Y, m: [space.geodesic(X, Y, m), _const_legs(Y, m)],
                "U2": u2}
    if planner == "involution3":
        def u(X, Y, m):
            fx, fy = former_fold(X), former_fold(Y)
            north_t = np.broadcast_to(north, X.shape)
            former_guard_arc(space, fx, north_t)
            former_guard_arc(space, north_t, fy)
            mid = slerp_chain([(fx, north_t), (north_t, fy)], m)
            return [_const_legs(X, m), mid, _const_legs(Y, m)]

        return {"U": u}
    raise ValueError(f"no whole-leg oracle for {planner!r}")


def former_quotient_legs(q_action, kind) -> dict:
    """{set name: build_legs} of the tc ("tc") or cat ("cat") cover of a
    quotient space, as circle_cover, arc_cover and torus_cut_cover built
    their legs whole, and the hemisphere covers as whole_chain_legs does."""
    space = q_action.space
    if isinstance(space, Hemisphere):
        make = hemisphere_cat_cover if kind == "cat" else hemisphere_cover
        return whole_chain_legs(make(q_action))
    if isinstance(space, FlatTorus):
        def torus_legs(cuts):
            def legs(X, Y, m):
                d = Y - X
                rep = np.empty_like(d)
                for ax in range(2):
                    rep[:, ax] = np.mod(d[:, ax] - cuts[ax], 1.0) + cuts[ax] - 1.0
                pts = wrapped_lines(X, rep, m, 1.0)
                pts[:, -1, :] = np.mod(Y, 1.0)
                return [pts]
            return legs

        return {f"V{i}": torus_legs(cuts) for i, cuts in enumerate(TORUS_CUTS)}
    geodesic = {"U": lambda X, Y, m: [space.geodesic(X, Y, m)]}
    if isinstance(space, Arc):
        return geodesic

    def oriented(X, Y, m):
        pts = wrapped_lines(X, np.mod(Y - X, space.length), m, space.length)
        pts[:, -1, :] = np.mod(Y, space.length)
        return [pts]

    return {"U1": geodesic["U"], "U2": oriented}


def former_whole_legs(planner, bundle) -> dict:
    """{set name: build_legs} of a catalog planner whose sets were given as
    whole legs, each leg built whole on every pair: the point and torus-cut
    covers, and the covers transferred from a quotient cover (whose legs
    are former_quotient_legs), as they were before they became pieces."""
    act = bundle.space_action
    model = bundle.quotient_model
    if planner in ("point", "cat-point"):
        return {"U": lambda X, Y, m: [_const_legs(X, m)]}
    if planner in ("torus-cut", "cat-torus-cut"):
        return former_quotient_legs(act, "tc")
    if planner == "cat-covering-lift":
        base = bundle.basepoint
        legs = {}
        for i in range(act.group.order):
            center = act.act(i, base)
            deck = next(g for g in range(act.group.order)
                        if float(act.space.dist(act.act(g, center), base)) <= 1e-9)

            def moved(X, Y, m, center=center, deck=deck):
                arc = act.space.geodesic(np.broadcast_to(center, Y.shape), Y, m)
                flat = act.act(deck, arc.reshape(-1, arc.shape[-1]))
                return [flat.reshape(arc.shape), _const_legs(Y, m)]

            legs[f"B{i}"] = moved
        return legs
    if planner not in ("covering-lift", "strict-section", "wedge", "cat-strict-section"):
        raise ValueError(f"no former whole-leg builder for {planner!r}")
    kind = "cat" if planner.startswith("cat-") else "tc"
    quotient = former_quotient_legs(
        trivial_space_action(model.quotient_space), kind)

    def transfer(qlegs):
        def legs(X, Y, m):
            qleg = qlegs(model.project(X), model.project(Y), m)[0]
            if planner == "covering-lift":
                return [model.lift_path(qleg, X), _const_legs(Y, m)]
            flat = model.section(qleg.reshape(-1, qleg.shape[-1]))
            lifted = flat.reshape(qleg.shape[0], qleg.shape[1], -1)
            if kind == "cat":
                return [lifted, _const_legs(Y, m)]
            return [_const_legs(X, m), lifted, _const_legs(Y, m)]
        return legs

    return {name: transfer(qlegs) for name, qlegs in quotient.items()}


def neighbor_pairs_by_sets(sphere, resolution) -> np.ndarray:
    """The neighbour edges of an S^1 or S^2 grid, collected point by point
    in a Python set and sorted: ring edges (i, next on the ring), edges
    between consecutive rings as sorted tuples."""
    if sphere.n == 1:
        r = resolution + (resolution % 2)
        return np.array([(k, (k + 1) % r) for k in range(r)], dtype=np.intp)
    theta, sizes = sphere._ring_sizes(resolution)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pairs = set()
    for j, nl in enumerate(sizes):
        base = offsets[j]
        for k in range(nl):
            pairs.add((base + k, base + (k + 1) % nl))
        if j + 1 < len(sizes):
            nxt, base2 = sizes[j + 1], offsets[j + 1]
            for k in range(nl):
                k2 = int(np.round(k * nxt / nl)) % nxt
                pairs.add(tuple(sorted((base + k, base2 + k2))))
            for k2 in range(nxt):
                k1 = int(np.round(k2 * nl / nxt)) % nl
                pairs.add(tuple(sorted((base + k1, base2 + k2))))
    return np.array(sorted(pairs), dtype=np.intp)


def neighbor_pairs_by_loops(space, resolution) -> np.ndarray:
    """The neighbour edges of a circle, arc, flat torus or wedge grid,
    collected point by point as the package did before its rules became
    array expressions: the circle's ring (k, k + 1 mod r), the arc's path,
    the torus lattice through `unravel_index` by point and then by axis,
    and each wedge branch as a ring through the basepoint (resolution >= 2:
    at 1 this loop emitted a self-loop and an index outside the grid)."""
    if isinstance(space, Circle):
        r = resolution + (resolution % 2)
        return np.array([(k, (k + 1) % r) for k in range(r)], dtype=np.intp)
    if isinstance(space, Arc):
        return np.array([(k, k + 1) for k in range(resolution)], dtype=np.intp)
    if isinstance(space, FlatTorus):
        m = space._side(resolution)
        shape = (m,) * space.n
        pairs = []
        for flat in range(m ** space.n):
            coords = np.unravel_index(flat, shape)
            for axis in range(space.n):
                nxt = list(coords)
                nxt[axis] = (nxt[axis] + 1) % m
                pairs.append((flat, int(np.ravel_multi_index(nxt, shape))))
        return np.array(pairs, dtype=np.intp)
    if isinstance(space, WedgeCircles):
        pairs = []
        per = resolution - 1
        for b in range(space.branches):
            start = 1 + b * per
            pairs.append((0, start))
            for k in range(per - 1):
                pairs.append((start + k, start + k + 1))
            pairs.append((start + per - 1, 0))
        return np.array(pairs, dtype=np.intp)
    raise TypeError(f"no loop rule for {space.name}")


def wedge_grid_by_points(space, resolution) -> np.ndarray:
    """The wedge grid appended point by point: the basepoint, then the
    angles 2 pi k / resolution of each branch."""
    pts = [np.array([0.0, 0.0])]
    for b in range(space.branches):
        for k in range(1, resolution):
            pts.append(np.array([float(b), 2 * np.pi * k / resolution]))
    return np.stack(pts, axis=0)


def wedge_geodesics_by_rows(space, p, q, n) -> np.ndarray:
    """Wedge geodesics of broadcast (M, 2) endpoints, row by row and, across
    branches, sample by sample: the form `WedgeCircles` computed them in
    before they were batched."""
    p, q = np.broadcast_arrays(space.canonical(np.atleast_2d(p)),
                               space.canonical(np.atleast_2d(q)))
    t = np.linspace(0.0, 1.0, n)
    out = np.zeros((p.shape[0], n, 2))
    for i in range(p.shape[0]):
        out[i] = _wedge_geodesic_one(space, p[i], q[i], t)
    return out


def _wedge_geodesic_one(space, p, q, t):
    n = len(t)
    if p[0] == q[0]:
        delta = np.mod(q[1] - p[1] + np.pi, 2 * np.pi) - np.pi
        if delta == -np.pi:
            delta = np.pi
        ang = np.mod(p[1] + t * delta, 2 * np.pi)
        return space.canonical(np.stack([np.full(n, p[0]), ang], axis=-1))
    # through the basepoint: down branch p the short way, then up branch q
    d1 = float(space._base_dist(np.array(p[1])))
    d2 = float(space._base_dist(np.array(q[1])))
    total = d1 + d2
    pts = np.zeros((n, 2))
    for k, tk in enumerate(t):
        s = tk * total
        if s <= d1 and total > 0:
            ang = p[1] - s if p[1] <= np.pi else p[1] + s
            pts[k] = [p[0], np.mod(ang, 2 * np.pi)]
        else:
            u = s - d1
            ang = u if q[1] <= np.pi else -u
            pts[k] = [q[0], np.mod(ang, 2 * np.pi)]
    pts[0] = p
    pts[-1] = q
    return space.canonical(pts)


# ------------------------------------------------------ group-action oracles

def apply_by_map(action, g: int, simplex: tuple) -> tuple:
    vm = action.vertex_maps[g]
    return tuple(sorted(vm[v] for v in simplex))


def validate_by_maps(group, K, vertex_maps) -> None:
    """The checks of an action, vertex by vertex and simplex by simplex;
    raises the ValueError that GroupAction raises."""
    verts = set(K.vertices)
    if len(vertex_maps) != group.order:
        raise ValueError("one vertex map per group element required")
    for g, vm in enumerate(vertex_maps):
        if set(vm.keys()) != verts or set(vm.values()) != verts:
            raise ValueError(f"element {g}: not a vertex permutation")
    ident = vertex_maps[0]
    if any(ident[v] != v for v in verts):
        raise ValueError("identity element must act as the identity map")
    simplices = set(K.all_simplices())
    for g, vm in enumerate(vertex_maps):
        for s in K.all_simplices():
            if tuple(sorted(vm[v] for v in s)) not in simplices:
                raise ValueError(
                    f"element {g} does not map simplex {s} to a simplex")
    for a in range(group.order):
        for b in range(group.order):
            ab = group.mul(a, b)
            for v in verts:
                if vertex_maps[a][vertex_maps[b][v]] != vertex_maps[ab][v]:
                    raise ValueError("vertex maps are not a homomorphism")


def is_free_by_maps(action) -> bool:
    return not any(apply_by_map(action, g, s) == s
                   for g in range(1, action.group.order)
                   for s in action.complex.all_simplices())


def vertex_orbit_by_maps(action, v) -> frozenset:
    return frozenset(vm[v] for vm in action.vertex_maps)


def subdivided_by_maps(action):
    """The action on the barycentric subdivision, from dicts: (d, σ) goes
    to (d, g·σ)."""
    K2 = subdivision_by_chains(action.complex)
    maps = [{bary: (bary[0], apply_by_map(action, g, bary[1])) for bary in K2.vertices}
            for g in range(action.group.order)]
    return GroupAction(action.group, K2, perm_of_maps(K2, maps))


def pointwise_fixed_by_maps(action, elements):
    return complex_of(
        [s for s in action.complex.all_simplices()
         if all(action.vertex_maps[g][v] == v for g in elements for v in s)])


def _setwise_implies_pointwise_by_maps(action, elements) -> bool:
    for g in elements:
        for s in action.complex.all_simplices():
            if apply_by_map(action, g, s) == s and any(
                    action.vertex_maps[g][v] != v for v in s):
                return False
    return True


def fixed_subcomplex_by_maps(action, subgroup):
    subgroup = sorted(set(subgroup))
    current = action
    for subdivisions in range(3):
        if _setwise_implies_pointwise_by_maps(current, subgroup):
            return pointwise_fixed_by_maps(current, subgroup)
        if subdivisions == 2:
            break
        current = subdivided_by_maps(current)
    raise RegularityError("fixed subcomplex irregular after two subdivisions")


def quotient_regular_by_maps(action) -> bool:
    # (a) the orbit map is injective on every simplex
    for s in action.complex.all_simplices():
        orbits = [vertex_orbit_by_maps(action, v) for v in s]
        if len(set(orbits)) != len(orbits):
            return False
    # (b) simplices with the same orbit image lie in one G-orbit
    by_image = {}
    for s in action.complex.all_simplices():
        image = frozenset(vertex_orbit_by_maps(action, v) for v in s)
        if image in by_image:
            rep = by_image[image]
            if not any(apply_by_map(action, g, s) == rep
                       for g in range(action.group.order)):
                return False
        else:
            by_image[image] = s
    return True


def quotient_by_maps(action):
    """(quotient complex, vertex orbit map, base action), as quotient_complex."""
    current = action
    for subdivisions in range(3):
        if quotient_regular_by_maps(current):
            orbit_of = {v: vertex_orbit_by_maps(current, v)
                        for v in current.complex.vertices}
            label = {orb: min(orb) for orb in set(orbit_of.values())}
            vmap = {v: label[orbit_of[v]] for v in current.complex.vertices}
            simplices = {tuple(sorted(vmap[v] for v in s))
                         for s in current.complex.all_simplices()}
            return complex_of(closure_of(simplices)), vmap, current
        if subdivisions == 2:
            break
        current = subdivided_by_maps(current)
    raise RegularityError("quotient irregular after two subdivisions")


def _monotone_by_maps(action, g) -> bool:
    vm = action.vertex_maps[g]
    return all(vm[a] < vm[b] for s in action.complex.all_simplices()
               for a, b in zip(s, s[1:]))


def saturated_diagonal_by_maps(action, elements=None):
    """(slices, union complex, subdivisions, base action), as
    saturated_diagonal: each slice simplex sorted and checked to be a
    chain of the staircase product."""
    elements = sorted(set(range(action.group.order) if elements is None else elements))
    current = action
    subdivisions = 0
    while not all(_monotone_by_maps(current, g) for g in elements):
        if subdivisions >= 2:
            raise RegularityError("slices not simplicial after two subdivisions")
        current = subdivided_by_maps(current)
        subdivisions += 1
    slices = {}
    for g in elements:
        vm = current.vertex_maps[g]
        pairs = set()
        for s in current.complex.all_simplices():
            pair = tuple(sorted((vm[v], v) for v in s))
            if not all(a[0] < b[0] and a[1] < b[1] for a, b in zip(pair, pair[1:])):
                raise RegularityError(f"slice simplex {pair} missing from product")
            pairs.add(pair)
        slices[g] = frozenset(pairs)
    union = complex_of(closure_of(set().union(*slices.values())))
    return slices, union, subdivisions, current


def orbit_map_pullback_by_maps(action):
    """(Q, base, pullbacks) as bounds.orbit_map_pullback, image by image."""
    Q, vmap, base = quotient_by_maps(action)
    summary = cohomology(Q)
    K = base.complex
    pullbacks = []
    for d in range(1, Q.dimension + 1):
        if d > K.dimension:
            break
        where = {s: i for i, s in enumerate(Q.simplices(d))}
        images = []        # (simplex of K, its image in Q) unless collapsed
        for i, s in enumerate(K.simplices(d)):
            image = tuple(sorted({vmap[v] for v in s}))
            if len(image) == len(s):
                images.append((i, where[image]))
        for rep in summary.representatives[d]:
            vec = np.zeros(K.n_simplices(d), dtype=np.uint8)
            for i, q in images:
                vec[i] = rep.coeffs[q]
            pullbacks.append(Cochain(d, vec))
    return Q, base, pullbacks


def validate_table_by_loops(table) -> None:
    """FiniteGroup's former table check, verbatim but for taking the table:
    the identity, rows that are permutations, an inverse per element, and
    associativity by the triple loop; ValueError naming the first failure."""
    n = len(table)
    seen_identity = all(table[0][b] == b and table[b][0] == b for b in range(n))
    if not seen_identity:
        raise ValueError("index 0 is not an identity element")
    for a in range(n):
        if sorted(table[a]) != list(range(n)):
            raise ValueError("table rows must be permutations")
        if not any(table[a][b] == 0 for b in range(n)):
            raise ValueError(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValueError("table is not associative")


def former_cat_cover_covering_lift(action, basepoint, centers, radius: float,
                                   name: str = "cat-covering-lift") -> PlannerCover:
    """cat_cover_covering_lift as it was when it took its centers: each
    set's deck move found by searching the group for the element that
    carries the center to the basepoint."""
    if not action.is_geometrically_free():
        raise ValueError("covering-lift cat cover needs a free action")
    space = action.space
    basepoint = np.asarray(basepoint, float)
    sets = []
    for i, center in enumerate(centers):
        center = np.asarray(center, float)
        deck = None
        for g in range(action.group.order):
            if float(space.dist(action.act(g, center), basepoint)) <= 1e-9:
                deck = g
                break
        if deck is None:
            raise ValueError("cover centers must lie in the basepoint orbit")

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

        sets.append(CoverSet(f"B{i}", 2, margin,
                             ((Piece("y", moved_arcs),), (_const_piece("y"),))))
    return PlannerCover(action=action, sets=sets, stage=2, kind="cat",
                        basepoint=basepoint, name=name)


# ---------------------------------------------- first-coordinate maps, as written

def former_guard_arc(space, P, Q):
    if np.any(space.dist(P, Q) > np.pi - 1e-6):
        raise GeodesicDegeneracyError("antipodal endpoints have no unique arc")


def former_torus_half(p):
    out = np.array(p, dtype=float, copy=True)
    out[..., 0] = np.mod(out[..., 0] + 0.5, 1.0)
    return out


def former_wedge_shift(space, k):
    def act(p):
        out = np.array(p, dtype=float, copy=True)
        out[..., 0] = np.mod(out[..., 0] + k, space.branches)
        return space.canonical(out)
    return act


def former_hemisphere_flip(p):
    out = np.array(p, dtype=float, copy=True)
    out[..., 0] = -out[..., 0]
    return out


def former_hemisphere_project(p):
    out = np.array(p, dtype=float, copy=True)
    out[..., 0] = np.abs(out[..., 0])
    return out


def former_halfturn_project(p):
    out = np.array(p, dtype=float, copy=True)
    out[..., 0] = np.mod(2.0 * out[..., 0], 1.0)
    return out


def former_halfturn_preimage(q):
    out = np.array(q, dtype=float, copy=True)
    out[..., 0] = out[..., 0] / 2.0
    return out


def former_sphere_involution(n, first):
    """p -> p g^T for g the identity of R^(n + 1) with g[0, 0] = first (the
    codimension-1 involution at -1), or its negative (the half-turn
    rotation at 1)."""
    g = np.eye(n + 1) if first < 0 else -np.eye(n + 1)
    g[0, 0] = first
    return lambda p: p @ g.T


def former_fold(X):
    """The fold of (M, d) rows, the only shape it was given."""
    out = X.copy()
    out[:, 0] = np.abs(out[:, 0])
    return out
