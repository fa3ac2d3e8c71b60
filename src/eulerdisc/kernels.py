"""Exact integer determinant and adjugate for lattice geometry.

`det_adj` works on Python integers, so entries and intermediate minors
never overflow.  The lattice code calls it once per placing
triangulation: the first simplex takes its volume from the determinant
and the normals of all its facets from the columns of the adjugate.
"""

from __future__ import annotations

__all__ = ["det_adj"]


def det_adj(rows):
    """Determinant and adjugate of a square integer matrix.

    One fraction-free Gauss-Jordan elimination of [M | I] (Bareiss 1968):
    every entry after step k is a (k+1)-minor of [M | I], so each division
    is exact, and the last step leaves det(PM) I on the left and
    det(PM) M^-1 on the right, for the row permutation P of the pivoting.
    Returns (det M, adj M) with adj M a list of rows, so that
    M adj M = det M I; a singular matrix gives (0, None).
    """
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    for i, r in enumerate(m):
        r.extend(int(i == j) for j in range(n))
    sign = 1
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            a = row[k]
            m[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev, [[sign * x for x in r[n:]] for r in m]
