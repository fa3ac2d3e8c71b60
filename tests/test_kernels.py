"""Tests for the exact integer determinant and adjugate, and for the first
simplex of the placing triangulation that is built from them.

A Laplace expansion serves as an independent exact oracle.
"""

import math
import random

import pytest

from eulerdisc import kernels
from eulerdisc.errors import InputError
from eulerdisc.lattice import _placing


def rand_mat(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def laplace(mat):
    """Oracle: the determinant by Laplace expansion along the first row."""
    if not mat:
        return 1
    if len(mat) == 1:
        return mat[0][0]
    total = 0
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * laplace(minor)
    return total


def assert_adjugate(m, det, adj):
    """M adj = det I, and every entry of adj is the Laplace cofactor."""
    n = len(m)
    for i in range(n):
        for j in range(n):
            assert sum(m[i][k] * adj[k][j] for k in range(n)) == det * (i == j)
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(m) if k != j]
            assert adj[i][j] == (-1) ** (i + j) * laplace(minor)


class TestDetInt:
    """The determinant of `kernels.det_adj` against Laplace, and its adjugate."""

    def test_against_laplace(self):
        rng = random.Random(101)
        mats = [rand_mat(rng, n) for n in range(1, 7) for _ in range(20)]
        # zero leading pivots force row swaps; the signs must follow them
        mats += [
            [[0, 1], [1, 0]],
            [[0, 0, 2], [0, 3, 0], [5, 0, 0]],
            [[0, 2, 1], [3, 0, 0], [1, 1, 0]],
        ]
        for m in mats:
            det, adj = kernels.det_adj(m)
            assert det == laplace(m)
            if det:
                assert_adjugate(m, det, adj)
            else:
                assert adj is None

    def test_big_integers_exact(self):
        # entries far beyond int64
        rng = random.Random(102)
        for n in range(1, 7):
            m = rand_mat(rng, n, -(10**30), 10**30)
            det, adj = kernels.det_adj(m)
            assert det == laplace(m) != 0
            assert_adjugate(m, det, adj)

    def test_empty_and_singular(self):
        assert kernels.det_adj([]) == (1, [])
        assert kernels.det_adj([[0]]) == (0, None)
        assert kernels.det_adj([[1, 2], [2, 4]]) == (0, None)
        # a zero pivot that a row swap fixes, then a dependent last row
        assert kernels.det_adj([[0, 1, 2], [1, 0, 3], [1, 1, 5]]) == (0, None)
        with pytest.raises(ValueError):
            kernels.det_adj([[1, 2]])


def cofactor_normal(vertices):
    """Oracle: the normal of the hyperplane through d points of Z^d, from
    the signed maximal minors of their d-1 difference vectors."""
    d = len(vertices[0])
    diffs = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    return [(-1) ** j * laplace([r[:j] + r[j + 1 :] for r in diffs]) for j in range(d)]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class TestFirstSimplex:
    """`_placing` on one simplex: its boundary is the first simplex's facets."""

    def test_boundary_normals_areas_and_heights(self):
        rng = random.Random(104)
        for d in range(1, 7):
            done = 0
            while done < 15:
                pts = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d + 1)]
                det = laplace([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
                if det == 0:
                    continue  # degenerate sample
                done += 1
                volume, boundary = _placing(pts, d)
                assert volume == abs(det)
                assert len(boundary) == d + 1
                unique = sorted(pts)
                for f, (normal, offset, area) in boundary.items():
                    (opposite,) = set(range(d + 1)) - set(f)
                    vertices = [unique[i] for i in f]
                    assert math.gcd(*normal) == 1
                    assert all(dot(normal, v) == offset for v in vertices)
                    height = offset - dot(normal, unique[opposite])
                    assert height > 0
                    assert area * height == abs(det)
                    # the cofactor normal is parallel, and its gcd is the
                    # facet's lattice area
                    raw = cofactor_normal(vertices)
                    g = math.gcd(*raw)
                    assert g == area
                    assert normal in (tuple(x // g for x in raw), tuple(-x // g for x in raw))

    def test_unit_simplex(self):
        # the facet opposite the origin lies on x + y + z = 1
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        volume, boundary = _placing(pts, 3)
        assert volume == 1
        unique = sorted(pts)
        far = tuple(sorted(unique.index(p) for p in pts[1:]))
        assert boundary[far] == ((1, 1, 1), 1, 1)

    def test_degenerate_start_raises(self):
        with pytest.raises(InputError):
            _placing([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)], 3)
