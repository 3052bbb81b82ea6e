"""Slerp kernels for the verification hot loops, in numpy.

Legs along great circles are filled by the Chebyshev recurrence
p_(j+1) = 2 cos(step) p_j - p_(j-1), so that each arc costs O(1)
transcendentals; all rows advance together in a sample-major buffer.
"""
from __future__ import annotations

import numpy as np


def slerp_into(P, Q, out):
    """Fill out[:, j] with the slerp from P to Q; returns out."""
    P = np.ascontiguousarray(P, dtype=np.float64)
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    # the recurrence, vectorised over rows in a sample-major (n, d, M)
    # buffer so every step is one pass over contiguous memory
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
        # (near-)degenerate arcs: normalised linear interpolation
        rows = np.flatnonzero(~arc)
        t = np.linspace(0.0, 1.0, n)[:, None, None]
        lerp = (1.0 - t) * Pt[:, rows] + t * Qt[:, rows]
        norm = np.sqrt((lerp * lerp).sum(axis=1, keepdims=True))
        buf[:, :, rows] = lerp / np.where(norm > 0.0, norm, 1.0)
    out[:] = buf.transpose(2, 0, 1)
    out[:, 0] = P
    out[:, -1] = Q
    return out


def slerp_batch(P, Q, n):
    out = np.empty((P.shape[0], n, P.shape[1]))
    return slerp_into(P, Q, out)


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
