"""Tests for the exact integer determinant and the lattice cofactor normal.

A Laplace expansion serves as an independent exact oracle.
"""

import math
import random

from eulerdisc import kernels
from eulerdisc.lattice import _normal


def rand_mat(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def laplace(mat):
    """Oracle: the determinant by Laplace expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    total = 0
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * laplace(minor)
    return total


class TestDetInt:
    def test_against_laplace(self):
        rng = random.Random(101)
        for n in range(1, 7):
            for _ in range(20):
                m = rand_mat(rng, n)
                assert kernels.det_int(m) == laplace(m)

    def test_big_integers_exact(self):
        # entries far beyond int64
        rng = random.Random(102)
        m = [[rng.randint(-(10**30), 10**30) for _ in range(4)] for _ in range(4)]
        assert kernels.det_int(m) == laplace(m)

    def test_empty_and_singular(self):
        assert kernels.det_int([]) == 1
        assert kernels.det_int([[1, 2], [2, 4]]) == 0


class TestBatch:
    """Cofactor normals of d points in Z^d (`lattice._normal`)."""

    def test_normals_orthogonal_and_primitive(self):
        rng = random.Random(104)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                pts = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d)]
                n = _normal(pts)
                if not any(n):
                    continue  # degenerate sample
                for p in pts[1:]:
                    diff = [a - b for a, b in zip(p, pts[0])]
                    assert sum(a * b for a, b in zip(n, diff)) == 0
                assert math.gcd(*(abs(x) for x in n)) == 1

    def test_normals_degenerate_zero(self):
        pts = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert _normal(pts) == (0, 0, 0)

    def test_known_normal(self):
        # plane x + y + z = 1 through the unit triangle
        n = _normal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert n in ((1, 1, 1), (-1, -1, -1))
