import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efftc.f2 import F2Matrix, F2RowSpace

from oracles import column_loop_rref, dense_rank_mod2, dense_rref_mod2

NCOLS = [1, 63, 64, 65, 128]


def _random_matrix(seed, nrows, ncols, kind):
    """A 0/1 matrix: "dense" (fair bits), "coboundary" (each row has d + 2
    ones, as a row of delta_d has), "sparse" (a few ones a row, some rows
    repeated), or "zero"."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8)
    dense = np.zeros((nrows, ncols), dtype=np.uint8)
    if kind == "coboundary":
        ones = min(ncols, int(rng.integers(2, 6)))
        for row in dense:
            row[rng.choice(ncols, size=ones, replace=False)] = 1
    elif kind == "sparse":
        for row in dense:
            row[rng.integers(0, ncols, size=int(rng.integers(0, 4)))] = 1
        if nrows > 1:
            dense[rng.integers(0, nrows, size=nrows // 3)] = dense[0]
    return dense


def _assert_rref_matches_oracles(dense):
    ncols = dense.shape[1]
    M = F2Matrix.from_dense(dense)
    reduced, pivots = M.rref()
    loop, loop_pivots = column_loop_rref(M)
    want, want_pivots = dense_rref_mod2(dense) if len(dense) else (
        np.zeros((0, ncols)), [])
    assert pivots == loop_pivots == want_pivots
    assert reduced.shape == (len(pivots), ncols)
    assert np.array_equal(reduced.packed, loop.packed)
    assert np.array_equal(reduced.to_dense(), want)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 70),
       st.sampled_from(NCOLS) | st.integers(1, 200),
       st.sampled_from(["dense", "coboundary", "sparse", "zero"]))
def test_rref_is_bit_identical_to_the_oracles(seed, nrows, ncols, kind):
    _assert_rref_matches_oracles(_random_matrix(seed, nrows, ncols, kind))


@pytest.mark.parametrize("ncols", NCOLS)
def test_rref_of_empty_zero_and_identity_matrices(ncols):
    for nrows in (0, 1, 5):
        _assert_rref_matches_oracles(np.zeros((nrows, ncols), dtype=np.uint8))
    _assert_rref_matches_oracles(np.eye(ncols, dtype=np.uint8)[::-1])
    _assert_rref_matches_oracles(np.ones((3, ncols), dtype=np.uint8))


@pytest.mark.parametrize("ncols", NCOLS)
@pytest.mark.parametrize("kind", ["coboundary", "sparse", "dense", "zero"])
def test_independent_rows_follow_the_prefix_ranks(kind, ncols):
    # row i is independent of the rows before it iff it raises their rank
    for seed, nrows in ((0, 0), (1, 1), (2, 24), (3, 24)):
        dense = _random_matrix(seed + ncols, nrows, ncols, kind)
        ranks = [dense_rank_mod2(dense[:i]) for i in range(nrows + 1)]
        assert (F2Matrix.from_dense(dense).independent_rows().tolist()
                == [b > a for a, b in zip(ranks, ranks[1:])])


@pytest.mark.parametrize("ncols", NCOLS)
def test_row_conversions_round_trip(ncols):
    dense = _random_matrix(ncols, 7, ncols, "dense")
    M = F2Matrix.from_rows(list(dense), ncols)
    assert np.array_equal(M.packed, F2Matrix.from_dense(dense).packed)
    assert np.array_equal(M.to_dense(), dense)
    assert F2Matrix.from_rows([], ncols).to_dense().shape == (0, ncols)
    with pytest.raises(ValueError, match="row length"):
        F2Matrix.from_rows([dense[0], dense[1][:-1]], ncols)


def test_rank_small_known():
    M = F2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert M.rank() == 2  # rows sum to zero mod 2


def test_rank_matches_dense_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = rng.integers(1, 40)
        cols = rng.integers(1, 90)
        dense = rng.integers(0, 2, size=(rows, cols))
        assert F2Matrix.from_dense(dense).rank() == dense_rank_mod2(dense)


def test_kernel_vectors_are_in_kernel():
    rng = np.random.default_rng(11)
    for _ in range(15):
        dense = rng.integers(0, 2, size=(rng.integers(1, 30), rng.integers(1, 70)))
        M = F2Matrix.from_dense(dense)
        basis = M.kernel_basis()
        assert len(basis) == M.ncols - M.rank()
        for v in basis:
            assert not M.apply(v).any()
        if len(basis) > 1:
            stacked = F2Matrix.from_rows(basis, M.ncols)
            assert stacked.rank() == len(basis)


def test_apply_matches_dense():
    rng = np.random.default_rng(3)
    dense = rng.integers(0, 2, size=(20, 33))
    M = F2Matrix.from_dense(dense)
    for _ in range(10):
        v = rng.integers(0, 2, size=33)
        assert np.array_equal(M.apply(v), (dense @ v) % 2)


def test_round_trip_dense():
    rng = np.random.default_rng(5)
    dense = rng.integers(0, 2, size=(9, 130)).astype(np.uint8)
    assert np.array_equal(F2Matrix.from_dense(dense).to_dense(), dense)


def test_rowspace_reduce_and_contains():
    # the third row is the sum of the first two
    M = F2Matrix.from_dense([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]])
    assert M.independent_rows().tolist() == [True, True, False]
    space = F2RowSpace.from_matrix(M)
    assert space.dim == 2
    assert space.contains([1, 0, 1, 0])
    assert not space.contains([0, 0, 0, 1])
    # canonical form is stable
    r1 = space.reduce([1, 1, 1, 1])
    r2 = space.reduce(r1)
    assert np.array_equal(r1, r2)


def test_rowspace_from_matrix():
    M = F2Matrix.from_dense([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    space = F2RowSpace.from_matrix(M)
    assert space.dim == 2
    assert space.contains([1, 1, 0])


def test_empty_matrix():
    M = F2Matrix.zeros(0, 5)
    assert M.rank() == 0
    assert len(M.kernel_basis()) == 5
