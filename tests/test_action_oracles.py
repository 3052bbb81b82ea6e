"""The table-based group actions against the tuple-based oracles.

Every construction of `symmetry` that works on the integer tables of an
action (validation, images, orbits, freeness, subdivision, fixed sets,
quotients, slices of the saturated diagonal, the orbit-map pullback) must
give exactly what the oracles in `oracles.py` give by applying vertex maps
simplex by simplex.  Inputs: relabelled cycles and grid tori under rotation,
reflection and translation groups, (Z2)^k acting on cross-polytope
boundaries by sign changes, and every action of the builtin catalog.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efftc import bounds, scenarios
from efftc.complexes import build_complex
from efftc.errors import RegularityError
from efftc.symmetry import (
    FiniteGroup,
    GroupAction,
    _orbit_images,
    action_from_generator_perms,
    fixed_subcomplex,
    pointwise_fixed_subcomplex,
    quotient_complex,
    saturated_diagonal,
    trivial_action,
)

import oracles


def _outcome(make):
    """make()'s value, or the RegularityError it raised, as a comparable."""
    try:
        return make()
    except RegularityError as exc:
        return ("RegularityError", str(exc))


def _same_action(a, b):
    assert a.complex == b.complex
    assert a.vertex_maps == b.vertex_maps


def assert_looks_up_like_tuples(K):
    """K, built from rows, has the vertices, rows and keys of the complex
    built from its tuple view; `index` finds every simplex at its position,
    and unsorted tuples, foreign vertices and non-simplices are not found,
    as with the former {simplex: index} dicts."""
    rebuilt = oracles.complex_of(set(K.all_simplices()))
    assert K == rebuilt
    for got, want in zip(K.simplex_index._keys, rebuilt.simplex_index._keys):
        assert np.array_equal(got, want)
    for level in K.simplices_by_dim:
        assert [K.index(s) for s in level] == list(range(len(level)))
        assert all(K.contains(s) for s in level[:10])
    simplices = set(K.all_simplices())
    rng = np.random.default_rng(len(simplices))
    probes = [(object(),), ()]
    probes += [s[::-1] for s in K.simplices(1)[:5] + K.simplices(2)[:5]]
    probes += [s[:-1] + (object(),) for s in K.simplices(K.dimension)[:5]]
    for k in range(2, K.dimension + 3):
        if k <= len(K.vertices):
            for _ in range(10):
                picks = np.sort(rng.choice(len(K.vertices), size=k, replace=False))
                probe = tuple(K.vertices[i] for i in picks)
                if probe not in simplices:
                    probes.append(probe)
    for probe in probes:
        assert not K.contains(probe)
        with pytest.raises(KeyError):
            K.index(probe)


def assert_matches_oracles(action):
    K, G = action.complex, action.group
    for g in range(G.order):
        for d, table in enumerate(action.tables):
            level = K.simplices(d)
            assert [level[j] for j in table[g]] == [
                oracles.apply_by_map(action, g, s) for s in level]
        assert all(action.apply(g, s) == oracles.apply_by_map(action, g, s)
                   for s in K.all_simplices())
    assert action.is_free() == oracles.is_free_by_maps(action)
    # the orbit ids the quotient labels vertices with: least orbit members
    assert [K.vertices[i] for i in action.perm.min(axis=0)] == [
        min(oracles.vertex_orbit_by_maps(action, v)) for v in K.vertices]
    assert (_orbit_images(action) is not None) == oracles.quotient_regular_by_maps(action)
    _same_action(action.subdivided(), oracles.subdivided_by_maps(action))
    assert_looks_up_like_tuples(action.subdivided().complex)

    for H in G.subgroups():
        got = _outcome(lambda: fixed_subcomplex(action, H).simplices_by_dim)
        want = _outcome(lambda: oracles.fixed_subcomplex_by_maps(action, H)
                        .simplices_by_dim)
        assert got == want
        if not isinstance(got, tuple):
            assert_looks_up_like_tuples(fixed_subcomplex(action, H))
    for g in range(G.order):
        assert (pointwise_fixed_subcomplex(action, [g])
                == oracles.pointwise_fixed_by_maps(action, [g]))

    def quotient(make):
        Q, vmap, base = make(action)
        if make is quotient_complex:
            vmap = oracles.vertex_dict(base.complex, vmap, Q)
        return Q.simplices_by_dim, vmap, base.complex, base.vertex_maps
    assert (_outcome(lambda: quotient(quotient_complex))
            == _outcome(lambda: quotient(oracles.quotient_by_maps)))

    def pullback(make):
        Q, base, cochains = make(action)
        return (Q.simplices_by_dim, base.complex,
                [(c.degree, c.coeffs.tolist()) for c in cochains])
    assert (_outcome(lambda: pullback(bounds.orbit_map_pullback))
            == _outcome(lambda: pullback(oracles.orbit_map_pullback_by_maps)))

    for elements in (None, [], [G.order - 1]):
        def diagonal(make):
            if make is saturated_diagonal:
                diag = saturated_diagonal(action, elements)
                slices, union, subdivisions, base = (
                    diag.slices, diag.union_complex, diag.subdivisions, diag.base)
            else:
                slices, union, subdivisions, base = make(action, elements)
            return slices, union.simplices_by_dim, subdivisions, base.complex
        assert (_outcome(lambda: diagonal(saturated_diagonal))
                == _outcome(lambda: diagonal(oracles.saturated_diagonal_by_maps)))

    for built in (lambda: quotient_complex(action)[0],
                  lambda: saturated_diagonal(action).union_complex):
        try:
            assert_looks_up_like_tuples(built())
        except RegularityError:
            pass


def _relabelled_action(maximal, generators, labels):
    """The action of the generator permutations of range(n) on the complex,
    with vertex v renamed labels[v]."""
    K = build_complex([[labels[v] for v in s] for s in maximal])
    maps = [{labels[v]: labels[p[v]] for v in range(len(labels))} for p in generators]
    return action_from_generator_perms(K, maps)


@st.composite
def cycle_actions(draw):
    n = draw(st.integers(3, 12))
    gens = []
    if draw(st.booleans()):
        shift = draw(st.integers(1, n - 1))
        gens.append([(v + shift) % n for v in range(n)])
    if draw(st.booleans()) or not gens:
        axis = draw(st.integers(0, n - 1))
        gens.append([(axis - v) % n for v in range(n)])
    labels = draw(st.permutations(range(n)))
    return _relabelled_action([[v, (v + 1) % n] for v in range(n)], gens, labels)


def _torus_triangles(a, b):
    def v(i, j):
        return (i % a) * b + (j % b)
    return [t for i in range(a) for j in range(b)
            for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]


@st.composite
def torus_actions(draw):
    a, b = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    cells = [(i, j) for i in range(a) for j in range(b)]

    def perm(f):
        return [(f(i, j)[0] % a) * b + f(i, j)[1] % b for i, j in cells]

    kinds = draw(st.lists(st.sampled_from(["row", "column", "halfturn", "swap"]),
                          min_size=1, max_size=2, unique=True))
    gens = []
    for kind in kinds:
        if kind == "row":
            step = draw(st.integers(1, a - 1))
            gens.append(perm(lambda i, j: (i + step, j)))
        elif kind == "column":
            step = draw(st.integers(1, b - 1))
            gens.append(perm(lambda i, j: (i, j + step)))
        elif kind == "halfturn":
            gens.append(perm(lambda i, j: (-i, -j)))
        elif a == b:
            gens.append(perm(lambda i, j: (j, i)))
    if not gens:
        gens.append(list(range(a * b)))
    labels = draw(st.permutations(range(a * b)))
    return _relabelled_action(_torus_triangles(a, b), gens, labels)


def cross_polytope_sign_action(k, labels):
    """(Z2)^k changing the signs of the coordinates of the boundary of the
    k-dimensional cross-polytope; vertex 2i is +e_i, vertex 2i + 1 is -e_i."""
    facets = [[2 * i + s for i, s in enumerate(signs)]
              for signs in itertools.product((0, 1), repeat=k)]
    gens = [[v ^ 1 if v // 2 == i else v for v in range(2 * k)] for i in range(k)]
    return _relabelled_action(facets, gens, labels)


@settings(max_examples=25, deadline=None)
@given(cycle_actions())
def test_cycle_actions_match_oracles(action):
    assert_matches_oracles(action)
    _same_action(action.subdivided().subdivided(),
                 oracles.subdivided_by_maps(oracles.subdivided_by_maps(action)))


@settings(max_examples=10, deadline=None)
@given(torus_actions())
def test_torus_actions_match_oracles(action):
    assert_matches_oracles(action)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.permutations(range(2 * k)))))
def test_elementary_abelian_actions_match_oracles(case):
    k, labels = case
    action = cross_polytope_sign_action(k, labels)
    assert action.group.order == 2 ** k
    assert_matches_oracles(action)


def _catalog_actions():
    actions = {f"{complex}-{name}": make
               for (complex, name), make in scenarios._SIMPLICIAL_ACTIONS.items()}
    for name, make in scenarios._COMPLEXES.items():
        actions[f"{name}-trivial"] = lambda make=make: trivial_action(make())
    return actions


@pytest.mark.parametrize("name", sorted(_catalog_actions()))
def test_catalog_actions_match_oracles(name):
    assert_matches_oracles(_catalog_actions()[name]())


# ------------------------------------------------------------- rejection

def _triangle_path():
    return build_complex([[0, 1], [1, 2]])


@pytest.mark.parametrize("group, maps", [
    (FiniteGroup.cyclic(2), [{0: 0, 1: 1, 2: 2}]),                  # too few maps
    (FiniteGroup.cyclic(2), [{0: 0, 1: 1, 2: 2}, {0: 1, 1: 1, 2: 2}]),  # not onto
    (FiniteGroup.cyclic(2), [{0: 0, 1: 1, 2: 2}, {0: 0, 1: 1}]),        # a key short
    (FiniteGroup.cyclic(2), [{0: 0, 1: 1, 2: 2}, {0: 2, 1: 1, 2: 0, 3: 3}]),
    (FiniteGroup.cyclic(2), [{0: 0, 1: 1, 2: 2}, {0: 2, 1: 1, 2: 7}]),  # not a vertex
    (FiniteGroup.cyclic(2), [{0: 2, 1: 1, 2: 0}, {0: 0, 1: 1, 2: 2}]),  # identity moves
    (FiniteGroup.cyclic(2), [{0: 0, 1: 1, 2: 2}, {0: 1, 1: 0, 2: 2}]),  # not simplicial
    (FiniteGroup.cyclic(3), [{0: 0, 1: 1, 2: 2}, {0: 2, 1: 1, 2: 0},
                             {0: 0, 1: 1, 2: 2}]),                   # no homomorphism
], ids=["count", "not-onto", "missing-key", "extra-key", "foreign-value",
        "identity", "non-simplicial", "non-homomorphism"])
def test_rejections_match_the_oracle(group, maps):
    K = _triangle_path()
    with pytest.raises(ValueError) as want:
        oracles.validate_by_maps(group, K, maps)
    with pytest.raises(ValueError) as got:
        GroupAction(group, K, oracles.perm_of_maps(K, maps))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("perm", [np.arange(4)[None, :], np.arange(2)[None, :]],
                         ids=["wide", "narrow"])
def test_a_table_without_one_image_per_vertex_is_rejected(perm):
    # a wide table used to be accepted and a narrow one to end in an IndexError
    with pytest.raises(ValueError, match=r"one image per vertex required, got a table "
                                         r"of shape \(1, [24]\)"):
        GroupAction(FiniteGroup.trivial(), _triangle_path(), perm)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_maps_are_accepted_or_rejected_like_the_oracle(data):
    n = data.draw(st.integers(2, 5))
    K = build_complex(data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=4)))
    verts = list(K.vertices)
    order = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        # the powers of one permutation: a homomorphism when its order divides
        step = dict(zip(verts, data.draw(st.permutations(verts))))
        maps = [{v: v for v in verts}]
        for _ in range(order - 1):
            maps.append({v: step[maps[-1][v]] for v in verts})
    else:
        images = st.permutations(verts) | st.lists(
            st.sampled_from(verts), min_size=len(verts), max_size=len(verts))
        maps = [dict(zip(verts, data.draw(images))) for _ in range(order)]
        if data.draw(st.booleans()):
            maps[0] = {v: v for v in verts}
    group = FiniteGroup.cyclic(order)
    try:
        oracles.validate_by_maps(group, K, maps)
        want = None
    except ValueError as exc:
        want = str(exc)
    try:
        GroupAction(group, K, oracles.perm_of_maps(K, maps))
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want
