"""Exact linear algebra over the two-element field.

Vectors are numpy uint8 arrays of 0/1 entries.  Matrices pack their rows
into uint64 words.  Elimination (`F2Matrix.rref`) works on each row as one
Python integer, bit c for column c, and keeps a dictionary from pivot
columns to rows: a reduction step is one XOR of whole rows, and the sparse
coboundary rows (d + 2 ones each) meet few pivots.  Reduction modulo a row
space (`F2RowSpace`) XORs the packed rows a batch of vectors hits.  Every
rank, kernel and reduction in the package is exact.
"""
from __future__ import annotations

import numpy as np

_WORD = 64


def _pack_rows(dense: np.ndarray, nwords: int) -> np.ndarray:
    """Pack the 0/1 rows of a (k, ncols) array into (k, nwords) words."""
    packed = np.packbits(dense, axis=1, bitorder="little")
    out = np.zeros((dense.shape[0], nwords * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view(np.uint64)


class F2Matrix:
    """A dense matrix over F2 with bit-packed rows."""

    def __init__(self, packed: np.ndarray, ncols: int):
        self.packed = packed
        self.ncols = ncols

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "F2Matrix":
        nwords = max(1, (ncols + _WORD - 1) // _WORD)
        return cls(np.zeros((nrows, nwords), dtype=np.uint64), ncols)

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "F2Matrix":
        """Rows of nonzero (1) and zero entries, each of length ncols."""
        rows = list(rows)
        lengths = {len(r) for r in rows} - {ncols}
        if lengths:
            raise ValueError(f"row length {min(lengths)} != ncols {ncols}")
        return cls.from_dense(np.asarray(rows, dtype=bool).reshape(len(rows), ncols))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "F2Matrix":
        dense = np.asarray(dense, dtype=np.uint8) & 1
        if dense.ndim != 2:
            raise ValueError("expected a 2-d array")
        nwords = max(1, (dense.shape[1] + _WORD - 1) // _WORD)
        return cls(_pack_rows(dense, nwords), dense.shape[1])

    @property
    def nrows(self) -> int:
        return self.packed.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def to_dense(self) -> np.ndarray:
        bits = np.unpackbits(self.packed.view(np.uint8), axis=1, bitorder="little")
        return bits[:, :self.ncols]

    def copy(self) -> "F2Matrix":
        return F2Matrix(self.packed.copy(), self.ncols)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product over F2 (vec indexed by columns)."""
        vec = np.asarray(vec, dtype=np.uint8) & 1
        if vec.shape[0] != self.ncols:
            raise ValueError("vector length mismatch")
        packed_v = _pack_rows(vec[None, :], self.packed.shape[1])[0]
        parities = np.bitwise_count(self.packed & packed_v).sum(axis=1)
        return (parities & 1).astype(np.uint8)

    def _forward_pass(self) -> tuple[dict[int, int], np.ndarray]:
        """Echelon rows keyed by their lowest set bit, and which rows of the
        matrix are independent of the rows before them.

        Each row is a Python integer, reduced by the stored row whose lowest
        set bit it shares until that bit is a new pivot; a row that reduces
        to 0 is a sum of rows before it.
        """
        nbytes = self.packed.shape[1] * 8
        data = self.packed.tobytes()
        by_low: dict[int, int] = {}
        independent = np.zeros(self.nrows, dtype=bool)
        for i, start in enumerate(range(0, len(data), nbytes)):
            row = int.from_bytes(data[start:start + nbytes], "little")
            while row:
                low = (row & -row).bit_length() - 1
                if low not in by_low:
                    by_low[low] = row
                    independent[i] = True
                    break
                row ^= by_low[low]
        return by_low, independent

    def independent_rows(self) -> np.ndarray:
        """Mask of the rows independent of the rows before them."""
        return self._forward_pass()[1]

    def rref(self) -> tuple["F2Matrix", list[int]]:
        """Reduced row echelon form; returns (nonzero rows, pivot columns).

        After the forward pass, the back pass, from the highest pivot down,
        clears the other pivot bits of each row with the finished rows of
        those pivots.
        """
        nwords = self.packed.shape[1]
        nbytes = nwords * 8
        by_low = self._forward_pass()[0]
        pivots = sorted(by_low)
        mask = 0
        for p in reversed(pivots):
            row = by_low[p]
            hits = row & mask
            while hits:
                bit = hits & -hits
                row ^= by_low[bit.bit_length() - 1]
                hits ^= bit
            by_low[p] = row
            mask |= 1 << p
        rows = b"".join(by_low[p].to_bytes(nbytes, "little") for p in pivots)
        packed = np.frombuffer(rows, dtype=np.uint64).reshape(len(pivots), nwords).copy()
        return F2Matrix(packed, self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[np.ndarray]:
        """Basis of {v : M v = 0}, as uint8 vectors of length ncols."""
        reduced, pivots = self.rref()
        free = np.setdiff1d(np.arange(self.ncols), pivots)
        basis = np.zeros((len(free), self.ncols), dtype=np.uint8)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = reduced.to_dense()[:, free].T
        return list(basis)


class F2RowSpace:
    """A row space in reduced echelon form.

    Supports canonical reduction of vectors modulo the space, which is how
    cocycles get reduced modulo coboundaries everywhere in the package.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.nwords = max(1, (ncols + _WORD - 1) // _WORD)
        self._rows = np.zeros((0, self.nwords), dtype=np.uint64)
        self._pivots = np.zeros(0, dtype=np.int64)

    @classmethod
    def from_matrix(cls, m: F2Matrix) -> "F2RowSpace":
        space = cls(m.ncols)
        reduced, pivots = m.rref()
        space._rows = reduced.packed[:len(pivots)].copy()
        space._pivots = np.array(pivots, dtype=np.int64)
        return space

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Canonical representative of vec modulo the row space."""
        return self.reduce_batch(vec)[0]

    def reduce_batch(self, vecs) -> np.ndarray:
        """Canonical representatives of many vectors, as (k, ncols) rows.

        The rows stay fully reduced (a pivot bit is set in its own row
        only), so the residue of v is v XOR the rows whose pivots v hits;
        the hits are read off v directly, with no sequential dependency.
        """
        dense = np.asarray(vecs, dtype=np.uint8).reshape(-1, self.ncols) & 1
        hits = dense[:, self._pivots].astype(bool)
        packed = _pack_rows(dense, self.nwords)
        if len(packed) == 1:
            packed[0] ^= np.bitwise_xor.reduce(self._rows[hits[0]], axis=0)
        else:
            for i in np.flatnonzero(hits.any(axis=0)):
                packed[hits[:, i]] ^= self._rows[i]
        bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
        return bits[:, :self.ncols]

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()
