"""Vectorized helpers for symmetric 2x2 matrices.

A symmetric 2x2 matrix [[a, b], [b, c]] is carried as the component triple
(a, b, c); every function broadcasts elementwise over arrays of such
triples, so a "stack" of matrices is just three equally shaped arrays.
The Gibbs sweep keeps its per-coefficient covariances in this form to
avoid (n, 2, 2) temporaries and generic linear-algebra dispatch.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "det",
    "inv",
    "inv_rows",
    "quad",
    "sandwich",
    "chol",
    "eig_min",
    "unpack",
    "to_matrix",
    "from_matrix",
    "is_spd",
]


def det(a, b, c):
    return a * c - b * b


def inv(a, b, c):
    """Inverse triple of [[a, b], [b, c]]; caller guarantees det != 0."""
    d = a * c - b * b
    return c / d, -b / d, a / d


def inv_rows(m):
    """Inverse triples of a (3, ...) stack of triples, stacked alike; caller guarantees det != 0.

    The inverse of [[a, b], [b, c]] is (c, -b, a) / det, one division of
    the reversed components.
    """
    inv = m[::-1] / det(*m)
    np.negative(inv[1], out=inv[1])
    return inv


def quad(a, b, c, x1, x2):
    """Quadratic form x' M x for M = [[a, b], [b, c]], x = (x1, x2)."""
    return a * x1 * x1 + 2.0 * b * x1 * x2 + c * x2 * x2


def sandwich(a, b, c, ga, gb, gc):
    """Triple of A G A for A = [[a, b], [b, c]] and G = [[ga, gb], [gb, gc]]."""
    p, q = a * ga + b * gb, a * gb + b * gc  # first row of A G
    s, t = b * ga + c * gb, b * gb + c * gc  # second row
    return p * a + q * b, p * b + q * c, s * b + t * c


def chol(a, b, c):
    """Lower Cholesky factors (l11, l21, l22) of an SPD triple."""
    l11 = np.sqrt(a)
    l21 = b / l11
    l22 = np.sqrt(c - l21 * l21)
    return l11, l21, l22


def eig_min(a, b, c):
    """Smaller eigenvalue of the symmetric matrix [[a, b], [b, c]]."""
    half = 0.5 * (a + c)
    return half - np.sqrt(0.25 * (a - c) ** 2 + b * b)


def unpack(m):
    """Split a (..., 3) array into its component triple."""
    m = np.asarray(m)
    return m[..., 0], m[..., 1], m[..., 2]


def to_matrix(m):
    """(..., 3) triple array -> full (..., 2, 2) symmetric matrices."""
    a, b, c = unpack(m)
    return np.stack(
        [np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2
    )


def from_matrix(mat):
    """Full (..., 2, 2) symmetric matrices -> (..., 3) triple array."""
    mat = np.asarray(mat, dtype=float)
    return np.stack([mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 1]], axis=-1)


def is_spd(a, b, c):
    return (np.asarray(a) > 0.0) & (det(a, b, c) > 0.0)
