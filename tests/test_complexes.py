import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efftc import scenarios
from efftc.complexes import (
    Cochain,
    SimplicialComplex,
    _maximal_simplices,
    barycentric_subdivision,
    build_complex,
    coboundary_apply,
    coboundary_matrix,
    coboundary_space,
    cohomology,
    cohomology_ring,
    cup_length,
    cup_product,
    f2_cd,
    is_cocycle,
    pull_back,
    read_complex_text,
    simplex_images,
    write_complex_text,
)
from efftc.errors import DegreeError

from oracles import (
    closure_of,
    complex_of,
    dense_rank_mod2,
    maximal_by_subsets,
    oracle_betti,
    oracle_cd,
    simplex_images_by_tuples,
    subdivision_by_chains,
)

CIRCLE = [[0, 1], [1, 2], [0, 2]]
POINT = [[0]]
SPHERE2 = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def torus_grid(m=3, n=3):
    """Staircase triangulation of the square with identifications."""
    tris = []
    for i in range(m):
        for j in range(n):
            a = (i, j)
            b = ((i + 1) % m, j)
            c = ((i + 1) % m, (j + 1) % n)
            d = (i, (j + 1) % n)
            tris.append([a, b, c])
            tris.append([a, d, c])
    return tris


def test_build_circle():
    K = build_complex(CIRCLE)
    assert K.n_simplices(0) == 3
    assert K.n_simplices(1) == 3
    assert K.dimension == 1
    assert cohomology(K).betti == (1, 1)
    assert oracle_betti(CIRCLE) == (1, 1)


def test_build_point():
    K = build_complex(POINT)
    assert cohomology(K).betti == (1,)
    assert f2_cd(K) == 0


def test_build_sphere2():
    K = build_complex(SPHERE2)
    assert cohomology(K).betti == (1, 0, 1)
    assert oracle_betti(SPHERE2) == (1, 0, 1)
    assert f2_cd(K) == 2


def test_build_rejects_duplicate_vertex():
    with pytest.raises(ValueError):
        build_complex([[0, 0, 1]])


def test_build_rejects_empty_simplex():
    with pytest.raises(ValueError, match="empty simplex"):
        build_complex([[0, 1], []])


def test_build_rejects_ids_with_no_common_order():
    # ids are sorted to index them: mixed ints and strings are a ValueError
    # that names them, not the TypeError of the comparison
    with pytest.raises(ValueError, match="no common order: 'a', 0"):
        build_complex([[0, "a"]])


def test_closure_is_downward_closed():
    K = build_complex([[3, 1, 2]])
    assert K.contains((1, 2))
    assert K.contains((3,))
    assert K.contains((1, 2, 3))


@st.composite
def simplex_lists(draw):
    """Simplices over int or tuple vertex ids, in any vertex order, with
    repeats and faces of other simplices among them."""
    ids = draw(st.sampled_from([lambda i: i, lambda i: (i % 3, i // 3)]))
    n = draw(st.integers(1, 8))
    simplices = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                                       unique=True), min_size=1, max_size=8))
    simplices += [s[:draw(st.integers(1, len(s)))] for s in
                  draw(st.lists(st.sampled_from(simplices), max_size=4))]
    return [[ids(i) for i in s] for s in simplices]


@settings(max_examples=150, deadline=None)
@given(simplex_lists())
def test_build_complex_is_the_closure_of_its_simplices(simplices):
    K = build_complex(simplices)
    assert K == complex_of(closure_of(simplices))
    assert build_complex(K.all_simplices()) == K


@settings(max_examples=150, deadline=None)
@given(simplex_lists(), simplex_lists(), st.booleans(), st.data())
def test_simplex_images_and_pull_back_match_a_tuple_loop(k_simplices, l_simplices,
                                                          onto_itself, data):
    # random vertex tables collapse simplices and miss L's simplices; a
    # stack of tables maps like each of its rows
    K = build_complex(k_simplices)
    L = K if onto_itself else build_complex(l_simplices)
    n, m = len(K.vertices), len(L.vertices)
    tables = np.array(data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n,
                                                  max_size=n), min_size=1, max_size=3)),
                      dtype=np.intp)
    stacked = simplex_images(K, tables, L)
    for k, table in enumerate(tables):
        want = simplex_images_by_tuples(K, table, L)
        images = simplex_images(K, table, L)
        assert [level.tolist() for level in images] == want
        assert [level[k].tolist() for level in stacked] == want
        for d in range(K.dimension + 1):
            coeffs = data.draw(st.lists(st.integers(0, 1), min_size=L.n_simplices(d),
                                        max_size=L.n_simplices(d)))
            pulled = pull_back(images, Cochain(d, coeffs))
            assert pulled.degree == d
            assert pulled.coeffs.tolist() == [coeffs[j] if j >= 0 else 0 for j in want[d]]


@pytest.mark.parametrize("name", sorted(scenarios._COMPLEXES))
def test_catalog_complexes_are_the_closure_of_their_simplices(name):
    K = scenarios._COMPLEXES[name]()
    maximal = _maximal_simplices(K)
    assert K == build_complex(maximal) == complex_of(closure_of(maximal))


def assert_looks_up_like_dicts(K):
    """`index` and `contains` against {simplex: index} dicts of the tuple
    view: every simplex, the empty tuple, a foreign vertex, unsorted
    tuples, a repeated vertex and tuples longer than dimension + 1."""
    dicts = [{s: i for i, s in enumerate(level)} for level in K.simplices_by_dim]

    def by_dicts(probe):
        return dicts[len(probe) - 1].get(probe, -1) if 0 < len(probe) <= len(dicts) else -1

    probes = list(K.all_simplices()) + [(), ("foreign",)]
    probes += [s[:-1] + ("foreign",) for s in K.all_simplices() if len(s) > 1][:5]
    probes += [s[::-1] for s in K.all_simplices() if len(s) > 1][:5]
    probes += [K.vertices[:K.dimension + 2], K.vertices[:1] * 2,
               K.vertices[:1] * (K.dimension + 2)]
    for probe in probes:
        want = by_dicts(probe)
        assert K.contains(probe) == (want >= 0)
        if want >= 0:
            assert K.index(probe) == want
        else:
            with pytest.raises(KeyError):
                K.index(probe)


@pytest.mark.parametrize("name", sorted(scenarios._COMPLEXES))
def test_catalog_lookups_match_the_dicts(name):
    assert_looks_up_like_dicts(scenarios._COMPLEXES[name]())


@settings(max_examples=60, deadline=None)
@given(simplex_lists())
def test_lookups_match_the_dicts(simplices):
    assert_looks_up_like_dicts(build_complex(simplices))


def test_coboundary_point_degree0_empty():
    K = build_complex(POINT)
    M = coboundary_matrix(K, 0)
    assert M.shape == (0, 1)


def test_coboundary_circle_rank():
    K = build_complex(CIRCLE)
    M = coboundary_matrix(K, 0)
    assert M.shape == (3, 3)
    assert M.rank() == 2
    assert dense_rank_mod2(M.to_dense()) == 2


def test_coboundary_sphere_rank():
    K = build_complex(SPHERE2)
    assert coboundary_matrix(K, 1).rank() == 3


def test_coboundary_out_of_range():
    K = build_complex(CIRCLE)
    with pytest.raises(DegreeError):
        coboundary_matrix(K, 2)
    with pytest.raises(DegreeError):
        coboundary_matrix(K, -1)


def test_delta_squared_zero():
    K = build_complex(torus_grid())
    d0 = coboundary_matrix(K, 0).to_dense()
    d1 = coboundary_matrix(K, 1).to_dense()
    assert not ((d1 @ d0) % 2).any()


def test_torus_betti():
    tris = torus_grid()
    K = build_complex(tris)
    assert cohomology(K).betti == (1, 2, 1)
    assert oracle_betti(tris) == (1, 2, 1)


def test_disjoint_circles_betti():
    K = build_complex([[(c, v) for v in s] for c in (0, 1) for s in CIRCLE])
    assert cohomology(K).betti == (2, 2)


def test_representatives_are_cocycles():
    K = build_complex(torus_grid())
    summary = cohomology(K)
    for level in summary.representatives:
        for rep in level:
            assert is_cocycle(K, rep)
    assert len(summary.representatives[1]) == 2


def test_cup_with_zero_is_zero():
    K = build_complex(torus_grid())
    h1 = cohomology(K).representatives[1]
    zero = Cochain(1, np.zeros(K.n_simplices(1), dtype=np.uint8))
    assert cup_product(K, h1[0], zero).is_zero()


def test_torus_cup_product_nonzero():
    K = build_complex(torus_grid())
    summary = cohomology(K)
    a, b = summary.representatives[1]
    prod = cup_product(K, a, b)
    # [a][b] must be nonzero in H^2: not a coboundary
    from efftc.complexes import coboundary_space
    assert not coboundary_space(K, 2).contains(prod.coeffs)


def test_sphere_cup_of_degree1_trivial():
    K = build_complex(SPHERE2)
    # H^1(S^2)=0 so any two degree-1 cocycles cup to a coboundary
    from efftc.complexes import coboundary_space
    d0 = coboundary_matrix(K, 1)
    cocycles = d0.kernel_basis()
    cb2 = coboundary_space(K, 2)
    for u in cocycles:
        for v in cocycles:
            prod = cup_product(K, Cochain(1, u), Cochain(1, v))
            assert cb2.contains(prod.coeffs)


def test_cup_degree_overflow_returns_zero():
    K = build_complex(CIRCLE)
    rep = cohomology(K).representatives[1][0]
    prod = cup_product(K, rep, rep)
    assert prod.degree == 2
    assert prod.is_zero()


def test_cup_commutative_up_to_coboundary():
    K = build_complex(torus_grid())
    a, b = cohomology(K).representatives[1]
    ab = cup_product(K, a, b)
    ba = cup_product(K, b, a)
    from efftc.complexes import coboundary_space
    assert coboundary_space(K, 2).contains(ab.coeffs ^ ba.coeffs)


def test_cup_of_cocycles_is_cocycle():
    K = build_complex(torus_grid())
    a, b = cohomology(K).representatives[1]
    assert is_cocycle(K, cup_product(K, a, b))


def test_cup_length_empty():
    K = build_complex(torus_grid())
    assert cup_length(K, []) == 0


def test_cup_length_torus_h1():
    K = build_complex(torus_grid())
    # independent oracle: exhaustive products of the H^1 basis
    a, b = cohomology(K).representatives[1]
    from efftc.complexes import coboundary_space
    cb2 = coboundary_space(K, 2)
    pairs = [cup_product(K, x, y) for x in (a, b) for y in (a, b)]
    assert any(not cb2.contains(p.coeffs) for p in pairs)
    assert cup_length(K, [a, b]) == 2


def test_cup_length_sphere_h2():
    K = build_complex(SPHERE2)
    reps = cohomology(K).representatives[2]
    assert cup_length(K, reps) == 1


def test_cup_length_rejects_non_cocycle():
    K = build_complex(torus_grid())
    bad = np.zeros(K.n_simplices(1), dtype=np.uint8)
    bad[0] = 1
    if is_cocycle(K, Cochain(1, bad)):
        pytest.skip("indicator happened to be a cocycle")
    with pytest.raises(ValueError):
        cup_length(K, [Cochain(1, bad)])


def test_cone_is_acyclic():
    K = build_complex(torus_grid())
    C = build_complex([s + ((99, 99),) for s in _maximal_simplices(K)])
    betti = cohomology(C).betti
    assert betti[0] == 1
    assert not any(betti[1:])


def test_barycentric_subdivision_preserves_cohomology():
    for maximal in (CIRCLE, SPHERE2, torus_grid()):
        K = build_complex(maximal)
        K2 = barycentric_subdivision(K)
        assert cohomology(K2).betti == cohomology(K).betti


def test_subdivision_counts_circle():
    K = barycentric_subdivision(build_complex(CIRCLE))
    assert K.n_simplices(0) == 6
    assert K.n_simplices(1) == 6


def assert_subdivision_matches_oracle(K):
    """The subdivision built from face-table rows is the tuple subdivision:
    the same vertices, rows, keys and tuple view."""
    K2 = barycentric_subdivision(K)
    oracle = subdivision_by_chains(K)
    assert K2 == oracle
    assert K2.simplices_by_dim == oracle.simplices_by_dim
    for got, want in zip(K2.simplex_index._keys, oracle.simplex_index._keys):
        assert np.array_equal(got, want)
    return K2


@pytest.mark.parametrize("name", sorted(scenarios._COMPLEXES))
def test_catalog_exact_side_matches_oracles(name):
    K = scenarios._COMPLEXES[name]()
    maximal = maximal_by_subsets(K)
    assert _maximal_simplices(K) == maximal
    assert f2_cd(K) == cohomology(K).cd == oracle_cd(maximal)
    K2 = assert_subdivision_matches_oracle(K)
    assert barycentric_subdivision(K2) == subdivision_by_chains(subdivision_by_chains(K))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_simplex_subdivision_matches_oracle(n):
    K = build_complex([list(range(n + 1))])
    K2 = assert_subdivision_matches_oracle(K)
    factorial = int(np.prod(np.arange(1, n + 2)))
    assert K2.n_simplices(n) == factorial
    assert f2_cd(K2) == 0


@settings(max_examples=6, deadline=None)
@given(st.integers(3, 6), st.integers(3, 6))
def test_torus_subdivision_matches_oracle(m, n):
    K = build_complex(torus_grid(m, n))
    assert _maximal_simplices(K) == maximal_by_subsets(K)
    assert f2_cd(assert_subdivision_matches_oracle(K)) == f2_cd(K) == 2


def test_empty_complex_exact_side():
    K = SimplicialComplex((), [])
    assert f2_cd(K) == cohomology(K).cd == -1
    assert _maximal_simplices(K) == []
    assert barycentric_subdivision(K).is_empty()


def test_complex_text_round_trip(tmp_path):
    K = build_complex(SPHERE2)
    path = tmp_path / "s2.cx"
    write_complex_text(K, path)
    K2 = read_complex_text(path)
    assert K2.simplices_by_dim == K.simplices_by_dim
    write_complex_text(K2, tmp_path / "s2b.cx")
    assert (tmp_path / "s2.cx").read_text() == (tmp_path / "s2b.cx").read_text()


def test_complex_text_comments_and_errors(tmp_path):
    p = tmp_path / "c.cx"
    p.write_text("# comment\n0 1\n1 2\n0 2\n")
    K = read_complex_text(p)
    assert cohomology(K).betti == (1, 1)
    bad = tmp_path / "bad.cx"
    bad.write_text("0 x\n")
    with pytest.raises(ValueError):
        read_complex_text(bad)


def test_coboundary_apply_matches_matrix():
    K = build_complex(torus_grid())
    rng = np.random.default_rng(2)
    M = coboundary_matrix(K, 1)
    for _ in range(5):
        v = rng.integers(0, 2, size=K.n_simplices(1)).astype(np.uint8)
        assert np.array_equal(coboundary_apply(K, Cochain(1, v)).coeffs, M.apply(v))


@pytest.mark.parametrize("K", [build_complex(torus_grid()), build_complex(SPHERE2)],
                         ids=["torus", "sphere"])
def test_ring_structure_constants_are_cup_products(K):
    ring = cohomology_ring(K)
    for i, a in enumerate(ring.basis):
        for k, b in enumerate(ring.basis):
            d = a.degree + b.degree
            if d > K.dimension:
                continue
            coords = ring.table[i, k]
            assert not coords[ring.degrees != d].any()
            combo = np.zeros(K.n_simplices(d), dtype=np.uint8)
            for m in np.flatnonzero(coords):
                combo ^= ring.basis[m].coeffs
            assert coboundary_space(K, d).contains(
                combo ^ cup_product(K, a, b).coeffs)


def test_ring_torus_product_is_the_top_class():
    ring = cohomology_ring(build_complex(torus_grid()))
    a, b = np.flatnonzero(ring.degrees == 1)
    top = np.flatnonzero(ring.degrees == 2)
    assert not ring.table[a, a].any() and not ring.table[b, b].any()
    assert ring.table[a, b].tolist() == ring.table[b, a].tolist()
    assert np.flatnonzero(ring.table[a, b]).tolist() == top.tolist()


def test_tensor_square_multiplies_factorwise():
    # (x (x) y)(z (x) w) = xz (x) yw on pure tensors, index i n + j
    ring = cohomology_ring(build_complex(torus_grid()))
    n = len(ring.basis)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y, z, w = rng.integers(0, 2, size=(4, 1, n)).astype(np.uint8)
        got = ring.tensor_multiply(np.kron(x, y), np.kron(z, w))
        xz, yw = (np.einsum("ai,bk,ikm->abm", u, v, ring.table).reshape(1, n) % 2
                  for u, v in ((x, z), (y, w)))
        expected = np.kron(xz, yw)
        assert got.tolist() == expected.tolist()
