"""Property-based suites for the exact and geometric layers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efftc.bounds import zero_divisor_cup_length
from efftc.complexes import (
    Cochain,
    barycentric_subdivision,
    build_complex,
    coboundary_matrix,
    coboundary_space,
    cohomology,
    cup_product,
    _maximal_simplices,
    f2_cd,
    is_cocycle,
)
from efftc.models import sphere_antipodal, sphere_codim1
from efftc.pathspace import SpaceAction, leg_residuals
from efftc.planners import CoverSet, PlannerCover, _const_legs, embed_cover
from efftc.symmetry import (
    FiniteGroup,
    action_from_generator_perms,
    pointwise_fixed_subcomplex,
    product_complex,
    saturated_diagonal,
)

from oracles import (
    leg_pieces,
    maximal_by_subsets,
    oracle_betti,
    oracle_cd,
    product_zero_divisor_cup_length,
    residuals_of_legs,
    subdivision_by_chains,
)


@st.composite
def small_complex(draw, max_vertices=6, max_simplices=5):
    nverts = draw(st.integers(min_value=1, max_value=max_vertices))
    n_max = draw(st.integers(min_value=1, max_value=max_simplices))
    maximal = []
    for _ in range(n_max):
        size = draw(st.integers(min_value=1, max_value=min(4, nverts)))
        verts = draw(st.permutations(range(nverts)))
        maximal.append(list(verts[:size]))
    return maximal


@settings(max_examples=40, deadline=None)
@given(small_complex())
def test_delta_squared_zero(maximal):
    K = build_complex(maximal)
    for d in range(K.dimension):
        dd = coboundary_matrix(K, d + 1).to_dense() @ coboundary_matrix(K, d).to_dense()
        assert not (dd % 2).any()


@settings(max_examples=25, deadline=None)
@given(small_complex())
def test_betti_matches_oracle(maximal):
    K = build_complex(maximal)
    assert cohomology(K).betti == oracle_betti(maximal)


@settings(max_examples=25, deadline=None)
@given(small_complex())
def test_betti_vanishes_beyond_dimension_and_cd(maximal):
    K = build_complex(maximal)
    summary = cohomology(K)
    assert len(summary.betti) == K.dimension + 1
    assert summary.cd <= K.dimension


@settings(max_examples=15, deadline=None)
@given(small_complex(max_vertices=5, max_simplices=4))
def test_cone_is_always_acyclic(maximal):
    K = build_complex(maximal)
    C = build_complex([s + (99,) for s in _maximal_simplices(K)])
    betti = cohomology(C).betti
    assert betti[0] == 1 and not any(betti[1:])


@settings(max_examples=15, deadline=None)
@given(small_complex(max_vertices=5, max_simplices=3), small_complex(max_vertices=4, max_simplices=2))
def test_kunneth_products(m1, m2):
    K = build_complex(m1)
    L = build_complex(m2)
    prod = product_complex(K, L)
    bk, bl = cohomology(K).betti, cohomology(L).betti
    expected = [0] * (len(bk) + len(bl) - 1)
    for i, x in enumerate(bk):
        for j, y in enumerate(bl):
            expected[i + j] += x * y
    got = list(cohomology(prod).betti) + [0] * len(expected)
    assert got[:len(expected)] == expected


@settings(max_examples=12, deadline=None)
@given(small_complex(max_vertices=6, max_simplices=4), st.integers(0, 10 ** 6))
def test_cup_products_of_cocycles(maximal, seed):
    K = build_complex(maximal)
    if K.dimension < 2:
        return
    rng = np.random.default_rng(seed)
    kernel1 = coboundary_matrix(K, 1).kernel_basis()
    if not kernel1:
        return
    a = Cochain(1, kernel1[rng.integers(len(kernel1))])
    b = Cochain(1, kernel1[rng.integers(len(kernel1))])
    ab = cup_product(K, a, b)
    assert is_cocycle(K, ab)
    ba = cup_product(K, b, a)
    assert coboundary_space(K, 2).contains(ab.coeffs ^ ba.coeffs)


@settings(max_examples=60, deadline=None)
@given(small_complex(max_vertices=7, max_simplices=6))
def test_exact_side_matches_oracles_on_random_complexes(maximal):
    K = build_complex(maximal)
    assert f2_cd(K) == cohomology(K).cd == oracle_cd(maximal)
    assert _maximal_simplices(K) == maximal_by_subsets(K)
    assert barycentric_subdivision(K) == subdivision_by_chains(K)


@settings(max_examples=10, deadline=None)
@given(small_complex(max_vertices=5, max_simplices=3))
def test_subdivision_preserves_cohomology(maximal):
    K = build_complex(maximal)
    assert cohomology(barycentric_subdivision(K)).betti == cohomology(K).betti


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=1, max_value=8))
def test_cycle_rotation_slice_identity(n, shift):
    """Slice intersections match pointwise fixed sets for cycle rotations."""
    K = build_complex([[i, (i + 1) % n] for i in range(n)])
    rot = action_from_generator_perms(K, [{i: (i + shift) % n for i in range(n)}])
    diag = saturated_diagonal(rot)
    base = diag.base
    for g in diag.elements:
        for h in diag.elements:
            rel = base.group.mul(base.group.inv(h), g)
            fixed = pointwise_fixed_subcomplex(base, [rel])
            expected = {tuple(sorted((base.apply_vertex(g, v), v) for v in s))
                        for s in fixed.all_simplices()}
            assert diag.slices[g] & diag.slices[h] == frozenset(expected)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=7),
       st.booleans())
def test_zero_divisors_kunneth_match_product(n, shift, reflect):
    """The Kunneth zero-divisor cup length equals the one computed on the
    materialised product X x X, for cycle rotations and reflections."""
    K = build_complex([[i, (i + 1) % n] for i in range(n)])
    if reflect:
        perm = {i: (shift - i) % n for i in range(n)}
    else:
        perm = {i: (i + shift) % n for i in range(n)}
    act = action_from_generator_perms(K, [perm])
    assert zero_divisor_cup_length(act) == product_zero_divisor_cup_length(act)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sphere_geodesic_reverse_symmetry(seed):
    act = sphere_antipodal(2)
    rng = np.random.default_rng(seed)
    x, y = act.space.random_points(rng, 2)
    if act.space.dist(x, y) > np.pi - 1e-3:
        return
    fwd = act.space.geodesic(x, y, 17)
    back = act.space.geodesic(y, x, 17)
    assert np.allclose(fwd[::-1], back, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_embedding_preserves_endpoints_and_residuals(seed):
    act = sphere_codim1(2)
    rng = np.random.default_rng(seed)
    X, Y = act.space.random_points(rng, 2)[:, None, :]

    def legs(X, Y, m):
        # an orbit jump at the end of the first leg, then the arc to y
        return [_const_legs(X, m), act.space.geodesic(act.act(1, X), Y, m)]

    cover = PlannerCover(action=act, sets=[CoverSet("U", 2, None, leg_pieces(legs, 2))],
                         stage=2)
    base = legs(X, Y, 8)
    emb = embed_cover(cover).sets[0].build_legs(X, Y, 8)
    assert np.array_equal(emb[0][:, 0], base[0][:, 0])
    assert np.array_equal(emb[-1][:, -1], base[-1][:, -1])
    joints, ends = residuals_of_legs(act, base, X, Y)
    joints_emb, ends_emb = residuals_of_legs(act, emb, X, Y)
    assert np.array_equal(joints_emb[:len(joints)], joints)
    assert joints_emb[-1].tolist() == [0.0]
    assert np.array_equal(ends_emb, ends)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_subgroup_validity_monotone(seed):
    """A broken path valid under a subgroup is valid under the full group
    with residuals no larger (witness level of tc^{G,k} <= tc^{H,k})."""
    rng = np.random.default_rng(seed)
    space = sphere_antipodal(2).space
    # G = Z4 acting by quarter-turn rotations about the first axis; H = Z2
    def rot(k):
        c, s = np.cos(np.pi * k / 2), np.sin(np.pi * k / 2)
        m = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        return lambda p: p @ m.T
    g_full = SpaceAction(space, FiniteGroup.cyclic(4), [rot(k) for k in range(4)])
    h_maps = [rot(0), rot(2)]
    h_sub = SpaceAction(space, FiniteGroup.cyclic(2), h_maps)
    x, y = space.random_points(rng, 2)[:, None, :]
    starts = ends = [x, y]
    res_h, _ = leg_residuals(h_sub, starts, ends, x, y)
    res_g, _ = leg_residuals(g_full, starts, ends, x, y)
    assert res_g.shape == res_h.shape == (1, 1)
    assert (res_g <= res_h + 1e-12).all()
