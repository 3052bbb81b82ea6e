"""Slerp kernels for the verification hot loops, in numpy.

Legs along great circles are filled by the Chebyshev recurrence
p_(j+1) = 2 cos(step) p_j - p_(j-1), so that each arc costs O(1)
transcendentals.  The recurrence runs over blocks of BLOCK_ROWS rows: each
block advances in one sample-major (n, d, rows) buffer, so that every step
is one pass over contiguous, cache-sized memory, and is then copied into
its rows of the output.  The buffer is the only scratch array, whatever
the number of rows; each row's arithmetic does not depend on the block it
falls in, so the legs are bit-identical to one whole-array recurrence.
"""
from __future__ import annotations

import numpy as np

# rows per block of the recurrence; at 64 samples on S^2 its buffer is 6 MB.
# Not a power of two: the buffer's coordinate rows would then lie 32 KB
# apart and share cache sets (on x86-64, 4096-row blocks slerped 5k-30k
# arcs 1.2-2.7x slower than 4104-row blocks)
BLOCK_ROWS = 4104
# numpy adds a row of fewer terms than this one term after another, and a
# longer one pairwise, in 8 partial sums
PAIRWISE_TERMS = 8


def coord_dot(a, b):
    """The sum over the last axis of a * b, bit-identical to
    np.add.reduce(a * b, axis=-1).  Below PAIRWISE_TERMS coordinates it is
    taken a column at a time, in order, which is how numpy adds each row,
    but in whole-array passes instead of one short reduction per row (d * d
    of 7,480 rows of 3 coordinates: 3.1 against 19 ns a row, on an x86-64
    Xeon with numpy 2.4); from PAIRWISE_TERMS on it is that reduction.  a
    and b broadcast as a * b does, on an equal last axis."""
    if a.shape[-1] >= PAIRWISE_TERMS:
        return np.add.reduce(a * b, axis=-1)
    total = a[..., 0] * b[..., 0]
    # the reduction starts from +0.0, which makes a sum of -0.0 terms +0.0
    total += 0.0
    for c in range(1, a.shape[-1]):
        total += a[..., c] * b[..., c]
    return total


def slerp_into(P, Q, out):
    """Fill out[:, j] with the slerp from P to Q; returns out."""
    P = np.ascontiguousarray(P, dtype=np.float64)
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    m, n = out.shape[0], out.shape[1]
    theta = np.arccos(np.clip(coord_dot(P, Q), -1.0, 1.0))
    s = np.sin(theta)
    arc = s >= 1e-9
    step = theta / max(n - 1.0, 1.0)
    inv_s = 1.0 / np.where(arc, s, 1.0)
    a1 = np.sin(theta - step) * inv_s
    b1 = np.sin(step) * inv_s
    k = 2.0 * np.cos(step)
    t = np.linspace(0.0, 1.0, n)[:, None, None]
    buf = np.empty((n, P.shape[1], min(m, BLOCK_ROWS)))
    for lo in range(0, m, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, m)
        Pt, Qt, blk = P[lo:hi].T, Q[lo:hi].T, buf[:, :, :hi - lo]
        blk[0] = Pt
        if n > 2:
            blk[1] = a1[lo:hi] * Pt + b1[lo:hi] * Qt
        kb = k[lo:hi]
        for j in range(2, n - 1):
            np.multiply(kb, blk[j - 1], out=blk[j])
            blk[j] -= blk[j - 2]
        rows = np.flatnonzero(~arc[lo:hi])
        if rows.size:
            # (near-)degenerate arcs: normalised linear interpolation
            lerp = (1.0 - t) * Pt[:, rows] + t * Qt[:, rows]
            norm = np.sqrt((lerp * lerp).sum(axis=1, keepdims=True))
            blk[:, :, rows] = lerp / np.where(norm > 0.0, norm, 1.0)
        out[lo:hi] = blk.transpose(2, 0, 1)
    out[:, 0] = P
    out[:, -1] = Q
    return out


def slerp_batch(P, Q, n):
    out = np.empty((P.shape[0], n, P.shape[1]))
    return slerp_into(P, Q, out)

