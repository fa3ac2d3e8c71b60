"""Integer point configurations and exact lattice polytope geometry.

Everything here is exact: volumes are normalized lattice volumes (a basis
simplex of the reference lattice has volume 1), and one placing
triangulation gives the volume (the sum of its simplex volumes) and the
facets (its boundary simplices grouped by supporting hyperplane).  The
f-vector intersects facets level by level from there, with no rank.

Every lattice reduction is one incremental Hermite echelon, `_insert`,
with integer row operations only (Euclid's algorithm on each shared pivot
column; Cohen, A Course in Computational Algebraic Number Theory, §2.4):
normalization inserts each difference vector, a rank counts the inserts
that grew it, and the placing's first simplex takes one insert per
candidate point.
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import HypothesisError, InputError, SizeLimitError
from .graphs import (
    BipartiteSubgraph, PatternGraph, condition_star, induced, is_connected, star_violation
)
from .kernels import det_adj

__all__ = [
    "PointConfiguration",
    "edge_config",
    "lattice_normalize",
    "normalized_volume",
    "f_vector",
    "volume_and_f_vector",
    "facets",
    "subdiagram_volume",
]


class PointConfiguration:
    """Ordered list of integer points of a common ambient dimension."""

    __slots__ = ("points",)

    def __init__(self, points):
        points = tuple(tuple(int(x) for x in p) for p in points)
        if points:
            d = len(points[0])
            if any(len(p) != d for p in points):
                raise InputError("points have mixed dimensions")
        self.points = points

    def __len__(self):
        return len(self.points)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def __repr__(self):
        return f"PointConfiguration({len(self.points)} points in dim {self.ambient_dim})"


def edge_config(g: PatternGraph) -> PointConfiguration:
    """One 0/1 column e_i + e_j per edge, in the graph's edge order."""
    n = g.left_size + g.right_size
    return PointConfiguration(
        tuple(int(v in e) for v in range(n)) for e in g.edge_order()
    )


# ---------------------------------------------------------------------------
# Integer row reduction (Hermite style, by Euclid's algorithm on columns)


def _insert(basis, row) -> bool:
    """Add one integer row to an echelon basis of a lattice, in place.

    `basis` maps each pivot column to the basis row whose first nonzero
    entry is there.  A row meeting a taken pivot column is combined with
    that basis row by Euclid's algorithm on the column; the basis keeps
    the last nonzero remainder, of either sign, and the other row goes on
    to its next nonzero column.  A row reaching a free column is stored
    there with its pivot made positive.  Returns whether the rank grew.
    """
    lead = next((j for j, x in enumerate(row) if x), None)
    while lead is not None:
        b = basis.get(lead)
        if b is None:
            basis[lead] = row if row[lead] > 0 else [-x for x in row]
            return True
        while row[lead]:
            q = b[lead] // row[lead]
            b, row = row, [x - q * y for x, y in zip(b, row)]
        basis[lead] = b
        lead = next((j for j in range(lead + 1, len(row)) if row[j]), None)
    return False


def _solve_lattice(basis, pivots, vec):
    """Coordinates of vec in the row basis; None when vec is outside."""
    rem = list(vec)
    coords = []
    for b, p in zip(basis, pivots):
        if rem[p] % b[p]:
            return None
        c = rem[p] // b[p]
        coords.append(c)
        if c:
            rem = [x - c * y for x, y in zip(rem, b)]
    if any(rem):
        return None
    return coords


def lattice_normalize(c: PointConfiguration):
    """Reduce to full-dimensional coordinates in the difference lattice.

    Translates by the first point, takes the lattice generated by the
    difference vectors, and rewrites every point in a basis of that
    lattice.  Returns (d, points in Z^d).
    """
    if not c.points:
        raise InputError("cannot normalize an empty configuration")
    p0 = c.points[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in c.points]
    echelon = {}
    for v in diffs:
        _insert(echelon, v)
    pivots = sorted(echelon)
    basis = [echelon[p] for p in pivots]
    out = []
    for v in diffs:
        coords = _solve_lattice(basis, pivots, v)
        assert coords is not None
        out.append(tuple(coords))
    return len(basis), out


# ---------------------------------------------------------------------------
# Placing triangulation: volume and facets


def _placing(pts, d):
    """Placing (beneath-beyond) triangulation of lattice points spanning Z^d.

    The distinct points are sorted; a greedily chosen affinely independent
    d+1 of them form the first simplex, and every other point in turn is
    coned over the boundary simplices it lies strictly beyond (points in
    the current hull see none and are skipped).  Returns (volume, boundary):
    the normalized volume, which is the sum of |det| over the simplices,
    and a dict mapping each boundary (d-1)-simplex, a sorted tuple of
    indices into the sorted distinct points, to (normal, offset, area).
    The normal is primitive and outward, so that normal . p <= offset on
    the hull; the area is the simplex's normalized volume in the lattice
    of its hyperplane.

    Only the first simplex needs linear algebra: one `det_adj` of its edge
    vectors gives its volume and, from the adjugate's columns, the normals
    and areas of all its facets.  A new boundary simplex takes its normal
    from the two boundary simplices at its horizon ridge, and a simplex has
    volume area x lattice height over any of its facets.
    """
    if d == 0:
        return 1, {}
    unique = sorted(set(pts))
    start = [0]
    echelon = {}
    for i in range(1, len(unique)):
        if len(start) == d + 1:
            break
        if _insert(echelon, [a - b for a, b in zip(unique[i], unique[0])]):
            start.append(i)
    if len(start) < d + 1:
        raise InputError("configuration is not full-dimensional")
    boundary = {}
    owners = {}  # ridge -> the two boundary simplices that contain it

    def add(f, side):
        boundary[f] = side
        for k in range(d):
            owners.setdefault(f[:k] + f[k + 1:], []).append(f)

    # With rows v_k - v_0 in M, M adj M = det M I: column k of adj M is
    # normal to every row but the k-th, so to the facet opposite v_(k+1),
    # and the sum of the columns is normal to the facet opposite v_0.
    # Each meets its opposite vertex at height det M, so the sign of det M
    # orients them all, and a column with gcd g leaves that vertex at
    # lattice height |det M| / g: the facet's area is g.
    apex = unique[start[0]]
    det, adj = det_adj([[a - b for a, b in zip(unique[i], apex)] for i in start[1:]])
    volume = abs(det)
    sign = 1 if det > 0 else -1
    normals = [[sign * sum(r) for r in adj]] + [[-sign * x for x in c] for c in zip(*adj)]
    for k, normal in enumerate(normals):
        f = tuple(start[:k] + start[k + 1:])
        area = math.gcd(*normal)
        normal = tuple(x // area for x in normal)
        add(f, (normal, sum(a * b for a, b in zip(normal, unique[f[0]])), area))
    placed = set(start)
    for i, p in enumerate(unique):
        if i in placed:
            continue
        height = {
            f: sum(a * b for a, b in zip(normal, p)) - offset
            for f, (normal, offset, _) in boundary.items()
        }
        visible = [f for f, h in height.items() if h > 0]
        cone = []
        for f in visible:
            simplex = boundary[f][2] * height[f]
            volume += simplex
            for k in range(d):
                ridge = f[:k] + f[k + 1:]
                (other,) = (g for g in owners[ridge] if g != f)
                if height[other] > 0:
                    continue
                # A horizon ridge: the new facet's hyperplane is the one of
                # the pencil through the ridge that passes through p.  The
                # combination is nonnegative in two outward normals, so it
                # is outward too.
                a, b = height[f], -height[other]
                (n1, c1, _), (n2, c2, _) = boundary[other], boundary[f]
                normal = [a * x + b * y for x, y in zip(n1, n2)]
                g = math.gcd(*normal)
                normal = tuple(x // g for x in normal)
                offset = (a * c1 + b * c2) // g
                # f[k] is the vertex of the new simplex opposite the new facet.
                lift = offset - sum(x * y for x, y in zip(normal, unique[f[k]]))
                cone.append((tuple(sorted(ridge + (i,))), (normal, offset, simplex // lift)))
        for f in visible:
            del boundary[f]
            for k in range(d):
                owners[f[:k] + f[k + 1:]].remove(f)
        for f, side in cone:
            add(f, side)
    return volume, boundary


def normalized_volume(c: PointConfiguration) -> int:
    """Lattice volume of the hull, measured in its own difference lattice."""
    d, pts = lattice_normalize(c)
    return _placing(pts, d)[0]


# ---------------------------------------------------------------------------
# Faces


def _hull(c: PointConfiguration):
    """(normalized volume, facet supports) from one placing, after the
    face gate (see `facets`)."""
    d, pts = lattice_normalize(c)
    _check_desk_scale(d, len(set(pts)))
    volume, boundary = _placing(pts, d)
    return volume, sorted(
        tuple(i for i, p in enumerate(pts) if sum(a * b for a, b in zip(normal, p)) == offset)
        for normal, offset in dict.fromkeys(side[:2] for side in boundary.values())
    )


def facets(c: PointConfiguration):
    """Facet supports as tuples of point indices, in a deterministic order:
    each holds the points on one supporting hyperplane of the placing's
    boundary."""
    return _hull(c)[1]


def _check_desk_scale(d, npts):
    if d > 8 or npts > 20:
        raise SizeLimitError(
            f"face enumeration limited to dimension 8 and 20 points (got d={d}, {npts})"
        )


def f_vector(c: PointConfiguration) -> Tuple[int, ...]:
    """Counts of proper faces by dimension 0..d-1."""
    return volume_and_f_vector(c)[1]


def volume_and_f_vector(c: PointConfiguration) -> Tuple[int, Tuple[int, ...]]:
    """`normalized_volume(c)` and `f_vector(c)` from one placing, after the
    face gate, so a refused input costs no volume.

    Each face is identified by the set of configuration points it
    contains.  Level 0 is the facets, and each next level is the facets
    of the faces in the one before, so, the face lattice being graded,
    level k holds the faces of dimension d-1-k and no face is ranked.  The
    facets of a face F are the inclusion-maximal sets F & G, G a facet,
    other than F and the empty set: a facet H of F is F & G for any facet
    G that contains H but not F, and every other such intersection is a
    proper face of F, so lies in a facet of F (Ziegler, Lectures on
    Polytopes, §2.2).
    """
    volume, supports = _hull(c)
    facet_sets = [frozenset(m) for m in supports]
    counts = []
    level = set(facet_sets)
    while level:
        counts.append(len(level))
        below = set()
        for f in level:
            kept = []
            # a set lies only in larger ones, which come first
            for h in sorted({f & g for g in facet_sets} - {f, frozenset()}, key=len, reverse=True):
                if not any(h <= k for k in kept):
                    kept.append(h)
            below.update(kept)
        level = below
    return volume, tuple(reversed(counts))


# ---------------------------------------------------------------------------
# Subdiagram volumes


def _rank_of(points) -> int:
    if not points:
        return 0
    p0, echelon = points[0], {}
    return sum(_insert(echelon, [a - b for a, b in zip(p, p0)]) for p in points[1:])


def subdiagram_volume(g: PatternGraph, h: BipartiteSubgraph) -> int:
    """Exponent attached to a contracted configuration.

    Computed as vol(Conv({0} u A')) - vol(Conv(A')) where A' is the
    configuration after contracting h, with both volumes measured in the
    lattice generated by A'; a lower-dimensional Conv(A') contributes 0.
    The difference is the cone from 0 over the boundary simplices of
    Conv(A') that 0 lies beyond, the step that would place 0 last.
    """
    if not is_connected(h):
        raise HypothesisError("subgraph must be connected")
    if len(h.left) != len(h.right):
        raise HypothesisError("subgraph must use equally many rows and columns")
    if induced(g, h.left, h.right).edges != h.edges:
        raise HypothesisError("subgraph must be induced")
    if not condition_star(h):
        w = star_violation(h)
        detail = f"violating W = {sorted(w)}" if w else "single row with no edge"
        raise HypothesisError(
            f"precondition violated: subgraph fails the expansion condition ({detail})"
        )
    # A': each edge of g outside h keeps its unit entries at the vertices
    # outside h; the rows of V(h) and the columns of E(h) are gone
    inside = set(h.vertices)
    survivors = [v for v in g.left + g.right if v not in inside]
    a_prime = [tuple(int(v in e) for v in survivors) for e in g.edge_order() if e not in h.edges]
    d, pts0 = lattice_normalize(PointConfiguration([(0,) * len(survivors)] + a_prime))
    rest = pts0[1:]
    if not rest or _rank_of(rest) < d:
        return _placing(pts0, d)[0]
    # lattice_normalize put the origin at pts0[0] = 0, so its height over
    # a boundary simplex is -offset.
    _, boundary = _placing(rest, d)
    return sum(-offset * area for _, offset, area in boundary.values() if offset < 0)
