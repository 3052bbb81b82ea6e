import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efftc import symmetry
from efftc.complexes import build_complex, cohomology, f2_cd
from efftc.errors import GroupClosureError, RegularityError
from efftc.symmetry import (
    FiniteGroup,
    GroupAction,
    action_from_generator_perms,
    fixed_subcomplex,
    group_from_permutations,
    pointwise_fixed_subcomplex,
    product_complex,
    quotient_complex,
    read_action_text,
    saturated_diagonal,
    trivial_action,
    write_action_text,
)

from oracles import (
    oracle_betti,
    subgroups_by_generator_subsets,
    validate_table_by_loops,
    vertex_dict,
)


def hexagon():
    return build_complex([[i, (i + 1) % 6] for i in range(6)])


def hexagon_antipodal():
    K = hexagon()
    return action_from_generator_perms(K, [{i: (i + 3) % 6 for i in range(6)}])


def hexagon_reflection():
    K = hexagon()
    return action_from_generator_perms(K, [{i: (6 - i) % 6 for i in range(6)}])


def sphere_swap01():
    K = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    perm = {0: 1, 1: 0, 2: 2, 3: 3}
    return action_from_generator_perms(K, [perm])


# ---------------------------------------------------------------- groups

def test_cyclic_group_axioms():
    G = FiniteGroup.cyclic(6)
    assert G.order == 6
    assert G.inv(1) == 5
    assert G.mul(4, 5) == 3


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])
    # non-associative magma with identity: build one explicitly
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])


def test_group_from_permutations_closure():
    G, perms = group_from_permutations([[1, 2, 0]])
    assert G.order == 3
    assert perms[0] == (0, 1, 2)


def test_group_closure_cap():
    # a permutation of order 65 > cap on 65 points
    n = 65
    cycle = [(i + 1) % n for i in range(n)]
    with pytest.raises(GroupClosureError):
        group_from_permutations([cycle])


def test_subgroups_of_z6():
    G = FiniteGroup.cyclic(6)
    subs = {frozenset(s) for s in G.subgroups()}
    assert subs == {frozenset({0}), frozenset({0, 3}), frozenset({0, 2, 4}),
                    frozenset(range(6))}


def test_subgroups_of_klein_four():
    G, _ = group_from_permutations([[1, 0, 3, 2], [2, 3, 0, 1]])
    assert G.order == 4
    assert len(G.subgroups()) == 5  # trivial, three Z2s, full


def _dihedral(n):
    rotation = [(i + 1) % n for i in range(n)]
    reflection = [(-i) % n for i in range(n)]
    return group_from_permutations([rotation, reflection])[0]


def _elementary_abelian(k):
    # Z2^k as translations of the hypercube vertices 0..2^k - 1
    return group_from_permutations(
        [[v ^ (1 << b) for v in range(1 << k)] for b in range(k)])[0]


def _catalog_groups():
    from efftc.scenarios import BUILTINS, build_bundle
    groups = []
    for scenario in BUILTINS.values():
        bundle = build_bundle(scenario)
        groups.append(bundle.space_action.group)
        if bundle.group_action is not None:
            groups.append(bundle.group_action.group)
    return groups


def _table_check(table):
    """(accepted, message) of FiniteGroup on a table."""
    try:
        FiniteGroup(table)
    except ValueError as exc:
        return False, str(exc)
    return True, None


def _loop_check(table):
    try:
        validate_table_by_loops(table)
    except ValueError as exc:
        return False, str(exc)
    return True, None


@st.composite
def group_tables(draw):
    """The table of a cyclic, dihedral or elementary abelian group, as is,
    with two entries swapped, or relabelled so that 0 is not the identity."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "elementary"]))
    if kind == "cyclic":
        G = FiniteGroup.cyclic(draw(st.integers(1, 12)))
    elif kind == "dihedral":
        G = _dihedral(draw(st.integers(3, 6)))
    else:
        G = _elementary_abelian(draw(st.integers(1, 3)))
    table = [list(row) for row in G.table]
    n = len(table)
    change = draw(st.sampled_from(["valid", "swapped", "identity"]))
    if change == "swapped":
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        (a, b), (c, d) = draw(cells), draw(cells)
        table[a][b], table[c][d] = table[c][d], table[a][b]
    elif change == "identity" and n > 1:
        # relabel by a permutation that moves 0
        sigma = draw(st.permutations(range(n)).filter(lambda p: p[0] != 0))
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[sigma[a]][sigma[b]] = sigma[table[a][b]]
        table = relabelled
    return table


@settings(max_examples=300, deadline=None)
@given(group_tables())
def test_table_check_matches_the_former_loops(table):
    # accept/reject and the message agree with the former triple loop, and
    # each element's inverse is the b with ab = 0
    assert _table_check(table) == _loop_check(table)
    if _table_check(table)[0]:
        G = FiniteGroup(table)
        assert [G.mul(a, G.inv(a)) for a in range(G.order)] == [0] * G.order


def test_subgroups_match_generator_subset_closures():
    groups = ([FiniteGroup.trivial()]
              + [FiniteGroup.cyclic(n) for n in range(2, 17)]
              + [_dihedral(n) for n in (3, 4, 5, 6, 8)]
              + [_elementary_abelian(k) for k in (2, 3, 4)]
              + [group_from_permutations([[1, 2, 0, 3, 4, 5],
                                          [0, 1, 2, 4, 5, 3]])[0]]  # Z3 x Z3
              + _catalog_groups())
    for G in groups:
        assert G.order <= 16
        assert G.subgroups() == subgroups_by_generator_subsets(G), G.order


def test_subgroups_of_order_64_groups_are_fast():
    G = FiniteGroup.cyclic(64)
    t0 = time.monotonic()
    subs = G.subgroups()
    assert time.monotonic() - t0 < 1.0
    # one subgroup per divisor of 64, ordered by size
    assert [len(s) for s in subs] == [1, 2, 4, 8, 16, 32, 64]
    assert subs[3] == frozenset(range(0, 64, 8))
    # the dihedral group of order 2n has tau(n) + sigma(n) subgroups
    t0 = time.monotonic()
    assert len(_dihedral(32).subgroups()) == 6 + 63
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------- actions

def test_action_validation_rejects_non_simplicial():
    K = build_complex([[0, 1], [1, 2]])
    # swapping 0 and 2 maps {0,1} to {2,1}: a simplex; but map 0->1,1->0,2->2
    # sends {1,2} to {0,2} which is not a simplex
    with pytest.raises(ValueError):
        action_from_generator_perms(K, [{0: 1, 1: 0, 2: 2}])


def test_action_free_detection():
    assert hexagon_antipodal().is_free()
    assert not hexagon_reflection().is_free()
    assert not sphere_swap01().is_free()


def test_action_text_round_trip(tmp_path):
    act = hexagon_antipodal()
    path = tmp_path / "a.act"
    write_action_text(act, path)
    act2 = read_action_text(act.complex, path)
    assert act2.group.order == 2
    assert act2.vertex_maps == act.vertex_maps


# ------------------------------------------------------------- fixed sets

def test_fixed_trivial_subgroup_is_whole_complex():
    act = hexagon_reflection()
    F = fixed_subcomplex(act, [0])
    assert F.simplices_by_dim == act.complex.simplices_by_dim


def test_fixed_hexagon_reflection_two_vertices():
    F = fixed_subcomplex(hexagon_reflection(), [0, 1])
    assert F.dimension == 0
    assert F.n_simplices(0) == 2
    assert cohomology(F).betti == (2,)


def test_fixed_hexagon_antipodal_empty():
    F = fixed_subcomplex(hexagon_antipodal(), [0, 1])
    assert F.is_empty()
    assert f2_cd(F) == -1


def test_fixed_swap01_is_circle_after_repair():
    # raw fixed subcomplex is just the edge {2,3}; the repaired one is the
    # equator circle of the realization
    act = sphere_swap01()
    raw = pointwise_fixed_subcomplex(act, [1])
    raw_betti = cohomology(raw).betti
    assert raw_betti[0] == 1 and not any(raw_betti[1:])  # contractible edge
    F = fixed_subcomplex(act, [0, 1])
    assert cohomology(F).betti == (1, 1)


def test_fixed_rejects_non_subgroup():
    act = hexagon_antipodal()
    with pytest.raises(ValueError):
        fixed_subcomplex(act, [1])  # missing identity closure flag
    G, _ = group_from_permutations([[1, 2, 0]])
    K = build_complex([[0, 1], [1, 2], [0, 2]])
    rot = action_from_generator_perms(K, [{0: 1, 1: 2, 2: 0}])
    with pytest.raises(ValueError):
        fixed_subcomplex(rot, [0, 1][:1] + [2, 2])  # {0,2} not closed in Z3? closure check
    # well-formed subgroup passes
    assert fixed_subcomplex(rot, [0]).dimension == 1


# -------------------------------------------------------------- quotients

def test_quotient_trivial_group_isomorphic():
    K = hexagon()
    Q, _, _ = quotient_complex(trivial_action(K))
    assert cohomology(Q).betti == cohomology(K).betti
    assert Q.n_simplices(0) == 6


def test_quotient_hexagon_antipodal_is_triangle():
    Q, orbit_map, base = quotient_complex(hexagon_antipodal())
    vmap = vertex_dict(base.complex, orbit_map, Q)
    assert Q.n_simplices(0) == 3
    assert Q.n_simplices(1) == 3
    assert cohomology(Q).betti == (1, 1)
    # orbit map sends simplices to simplices
    for s in base.complex.all_simplices():
        image = tuple(sorted({vmap[v] for v in s}))
        assert Q.contains(image)


def test_quotient_two_triangles_swapped():
    K = build_complex([[0, 1, 2], [3, 4, 5]])
    act = action_from_generator_perms(K, [{0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}])
    Q, _, _ = quotient_complex(act)
    assert Q.n_simplices(0) == 3
    assert Q.n_simplices(2) == 1


def test_quotient_square_antipodal_subdivides():
    # naive image complex would be a single edge; regularity must subdivide
    K = build_complex([[0, 1], [1, 2], [2, 3], [0, 3]])
    act = action_from_generator_perms(K, [{0: 2, 1: 3, 2: 0, 3: 1}])
    Q, _, base = quotient_complex(act)
    assert cohomology(Q).betti == (1, 1)  # the quotient circle
    assert base.complex.n_simplices(0) > 4  # subdivision happened


def test_quotient_hexagon_reflection_is_arc():
    Q, _, _ = quotient_complex(hexagon_reflection())
    betti = cohomology(Q).betti
    assert betti[0] == 1 and not any(betti[1:])


# --------------------------------------------------------------- products

def test_product_point_times_k():
    P = build_complex([[0]])
    K = hexagon()
    prod = product_complex(P, K)
    assert cohomology(prod).betti == cohomology(K).betti


def test_product_circle_circle_torus():
    tri = build_complex([[0, 1], [1, 2], [0, 2]])
    prod = product_complex(tri, tri)
    assert cohomology(prod).betti == (1, 2, 1)


def test_product_circle_sphere():
    tri = build_complex([[0, 1], [1, 2], [0, 2]])
    s2 = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    prod = product_complex(tri, s2)
    assert cohomology(prod).betti == (1, 1, 1, 1)


def test_product_kunneth_random():
    rng = np.random.default_rng(0)
    for _ in range(6):
        nverts = int(rng.integers(3, 6))
        n_max = int(rng.integers(2, 4))
        maximal = []
        for _ in range(n_max):
            size = int(rng.integers(2, 4))
            maximal.append(list(rng.choice(nverts, size=size, replace=False)))
        K = build_complex(maximal)
        L = build_complex([[0, 1], [1, 2], [0, 2]])
        prod = product_complex(K, L)
        bk, bl = cohomology(K).betti, cohomology(L).betti
        expected = [0] * (len(bk) + len(bl) - 1)
        for i, x in enumerate(bk):
            for j, y in enumerate(bl):
                expected[i + j] += x * y
        got = list(cohomology(prod).betti)
        got += [0] * (len(expected) - len(got))
        assert got == expected


# ------------------------------------------------------ saturated diagonal

def test_diagonal_trivial_group_is_diagonal():
    K = hexagon()
    diag = saturated_diagonal(trivial_action(K))
    assert diag.elements == [0]
    D = build_complex(diag.slices[0])
    assert cohomology(D).betti == cohomology(K).betti


def test_diagonal_hexagon_antipodal_two_circles():
    diag = saturated_diagonal(hexagon_antipodal())
    assert diag.subdivisions <= 1
    T = diag.union_complex
    assert cohomology(T).betti == (2, 2)  # two disjoint circles
    assert f2_cd(T) == 1
    # slices pairwise disjoint for the free action
    assert not (diag.slices[0] & diag.slices[1])


def test_diagonal_elements_must_be_group_elements():
    # numpy indexing would wrap -1 round to element 1, and 7 or "a" would
    # end in an IndexError
    act = hexagon_antipodal()
    for elements in ([-1, 0], [7], [0, 2], "ab", [1.0], [True]):
        with pytest.raises(ValueError, match=r"elements must be group elements 0\.\.1"):
            saturated_diagonal(act, elements)
    assert saturated_diagonal(act, [np.int64(1), 1]).elements == [1]


def test_diagonal_hexagon_reflection_two_circles_meeting():
    act = hexagon_reflection()
    diag = saturated_diagonal(act)
    T = diag.union_complex
    betti = cohomology(T).betti
    assert betti[0] == 1  # connected: slices meet at the fixed set
    # slice intersection equals the fixed subcomplex, embedded via x -> (gx, x)
    inter = diag.slices[0] & diag.slices[1]
    fixed = pointwise_fixed_subcomplex(diag.base, [1])
    expected = set()
    for s in fixed.all_simplices():
        expected.add(tuple(sorted((v, v) for v in s)))
    assert inter == frozenset(expected)


def test_diagonal_slice_intersection_identity_z3():
    K = build_complex([[i, (i + 1) % 6] for i in range(6)])
    rot2 = action_from_generator_perms(K, [{i: (i + 2) % 6 for i in range(6)}])
    diag = saturated_diagonal(rot2)
    for g in diag.elements:
        for h in diag.elements:
            inter = diag.slices[g] & diag.slices[h]
            rel = diag.base.group.mul(diag.base.group.inv(h), g)
            fixed = pointwise_fixed_subcomplex(diag.base, [rel])
            expected = {tuple(sorted((diag.base.apply_vertex(g, v), v) for v in s))
                        for s in fixed.all_simplices()}
            assert inter == frozenset(expected)


def test_diagonal_slices_are_chains_of_the_product():
    # the antipodal hexagon map is not order-monotone: without the
    # subdivision, the slice of edge (2, 3) is ((0, 3), (5, 2)), which is not
    # a chain of the staircase product.  The subdivision loop is what rules
    # such a slice out: every slice simplex of the result is a chain
    act = hexagon_antipodal()
    assert not symmetry._monotone_on_simplices(act, 1)
    diag = saturated_diagonal(act)
    assert diag.subdivisions == 1
    rank = {v: i for i, v in enumerate(diag.base.complex.vertices)}
    for g in diag.elements:
        for simplex in diag.slices[g]:
            for (ga, a), (gb, b) in zip(simplex, simplex[1:]):
                assert rank[ga] < rank[gb] and rank[a] < rank[b], simplex


def test_diagonal_free_component_count():
    diag = saturated_diagonal(hexagon_antipodal())
    betti = cohomology(diag.union_complex).betti
    assert betti[0] == 2  # |G| components per component of X


def test_diagonal_cd_bound_examples():
    # cd(slice union) <= cd(X) + |L| - 1 on the spec's examples
    for act in (hexagon_antipodal(), hexagon_reflection()):
        diag = saturated_diagonal(act)
        assert f2_cd(diag.union_complex) <= f2_cd(act.complex) + 2 - 1


def test_quotient_preimage_is_invariant():
    act = hexagon_antipodal()
    Q, orbit_map, base = quotient_complex(act)
    vmap = vertex_dict(base.complex, orbit_map, Q)
    for q_simplex in Q.all_simplices():
        preimage = {s for s in base.complex.all_simplices()
                    if tuple(sorted({vmap[v] for v in s})) == q_simplex}
        for g in range(base.group.order):
            assert {base.apply(g, s) for s in preimage} == preimage


def test_diagonal_components_scale_with_group_order():
    K = build_complex([[i, (i + 1) % 9] for i in range(9)])
    rot = action_from_generator_perms(K, [{i: (i + 3) % 9 for i in range(9)}])
    assert rot.group.order == 3
    assert rot.is_free()
    diag = saturated_diagonal(rot)
    assert cohomology(diag.union_complex).betti[0] == 3
    for g in diag.elements:
        for h in diag.elements:
            if g != h:
                assert not (diag.slices[g] & diag.slices[h])


def test_product_projections_are_simplicial():
    tri = build_complex([[0, 1], [1, 2], [0, 2]])
    K = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    prod = product_complex(tri, K)
    for s in prod.all_simplices():
        img1 = tuple(sorted({v[0] for v in s}))
        img2 = tuple(sorted({v[1] for v in s}))
        assert tri.contains(img1)
        assert K.contains(img2)


def test_octahedron_antipodal_quotient_is_projective_plane():
    from efftc.models import octahedron_antipodal_action
    from efftc.complexes import cup_length, cup_product, coboundary_space
    Q, _, _ = quotient_complex(octahedron_antipodal_action())
    summary = cohomology(Q)
    assert summary.betti == (1, 1, 1)
    w = summary.representatives[1][0]
    # the degree-1 generator squares to the top class mod 2
    square = cup_product(Q, w, w)
    assert not coboundary_space(Q, 2).contains(square.coeffs)
    assert cup_length(Q, summary.representatives[1] + summary.representatives[2]) == 2


def test_halfturn_quotient_is_torus():
    from efftc.models import torus43_halfturn_action
    Q, _, _ = quotient_complex(torus43_halfturn_action())
    assert cohomology(Q).betti == (1, 2, 1)


def test_exact_steps_subdivide_each_level_once(monkeypatch, tmp_path):
    # the 3x3 torus under the half turn and a translation (a group of order
    # 6): fixed sets of the half turns, the quotient and the slices all
    # need subdivisions, which the three steps share through the action
    from efftc import scenarios
    from efftc.complexes import write_complex_text

    def v(i, j):
        return (i % 3) * 3 + j % 3

    K = build_complex([t for i in range(3) for j in range(3)
                       for t in ([v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                                 [v(i, j), v(i, j + 1), v(i + 1, j + 1)])])
    act = action_from_generator_perms(
        K, [{v(i, j): v(-i, -j) for i in range(3) for j in range(3)},
            {v(i, j): v(i + 1, j) for i in range(3) for j in range(3)}])
    assert act.group.order == 6
    write_complex_text(K, tmp_path / "t.cx")
    write_action_text(act, tmp_path / "t.act")
    scenario = scenarios.Scenario.from_dict({
        "id": "t3x3", "space": {"kind": "torus", "n": 2}, "action": "trivial",
        "complex": str(tmp_path / "t.cx"), "simplicial_action": str(tmp_path / "t.act"),
        "pipeline": [{"op": "lower", "method": "cd-criterion"},
                     {"op": "cat-lower", "method": "orbit-nilpotency"},
                     {"op": "check", "method": "cd-bound"}]})
    subdivided = []
    subdivide = symmetry.barycentric_subdivision

    def counted(complex):
        subdivided.append(complex)
        return subdivide(complex)

    monkeypatch.setattr(symmetry, "barycentric_subdivision", counted)
    result = scenarios.run_scenario_obj(scenario).as_dict()
    checks = {c["name"]: c for c in result["checks"]}
    assert checks["cd-bound"]["ok"] and checks["cd-bound"]["cd_diagonal"] == 2
    # the first subdivision, then the second for the quotient
    assert len(subdivided) == 2
    assert subdivided[1] is not subdivided[0]
