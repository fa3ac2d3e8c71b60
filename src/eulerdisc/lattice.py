"""Integer point configurations and exact lattice polytope geometry.

Everything here is exact: volumes are normalized lattice volumes (a basis
simplex of the reference lattice has volume 1), coordinates are reduced
with integer row operations only, and one placing triangulation gives
the volume (the sum of its simplex volumes) and the facets (its boundary
simplices grouped by supporting hyperplane).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from .errors import HypothesisError, InputError, SizeLimitError
from .graphs import BipartiteSubgraph, PatternGraph, condition_star, contract, induced, is_connected
from .kernels import det_int

__all__ = [
    "PointConfiguration",
    "edge_config",
    "contracted_config",
    "lattice_normalize",
    "normalized_volume",
    "f_vector",
    "facets",
    "subdiagram_volume",
]


class PointConfiguration:
    """Ordered list of integer points of a common ambient dimension."""

    __slots__ = ("points", "labels")

    def __init__(self, points, labels: Optional[Sequence[str]] = None):
        points = tuple(tuple(int(x) for x in p) for p in points)
        if points:
            d = len(points[0])
            if any(len(p) != d for p in points):
                raise InputError("points have mixed dimensions")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(points) or len(set(labels)) != len(labels):
                raise InputError("labels must be unique and aligned with points")
        self.points = points
        self.labels = labels

    def __len__(self):
        return len(self.points)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def dump(self) -> str:
        """Matrix view with points as columns, optionally headed by labels."""
        if not self.points:
            return "(empty configuration)"
        cols = [[str(x) for x in p] for p in self.points]
        if self.labels:
            for c, lab in zip(cols, self.labels):
                c.insert(0, lab)
        widths = [max(len(s) for s in c) for c in cols]
        nrows = len(cols[0])
        lines = []
        for r in range(nrows):
            lines.append("  ".join(c[r].rjust(w) for c, w in zip(cols, widths)))
        return "\n".join(lines)

    def __repr__(self):
        return f"PointConfiguration({len(self.points)} points in dim {self.ambient_dim})"


def edge_config(g: PatternGraph) -> PointConfiguration:
    """One 0/1 column e_i + e_j per edge, in the graph's edge order."""
    n = g.left_size + g.right_size
    pts = []
    labels = []
    for i, j in g.edge_order():
        v = [0] * n
        v[i] = 1
        v[j] = 1
        pts.append(v)
        labels.append(f"{i}{j}")
    return PointConfiguration(pts, labels)


def contracted_config(g: PatternGraph, h: BipartiteSubgraph) -> PointConfiguration:
    """Edge configuration after contracting h: rows of V(h) and columns of
    E(h) are removed; a surviving edge keeps unit entries at its surviving
    endpoints only."""
    survivors, out = contract(g, h)
    index = {v: i for i, v in enumerate(survivors)}
    pts = []
    labels = []
    for (i, j), kept in out:
        v = [0] * len(survivors)
        for w in kept:
            v[index[w]] = 1
        pts.append(v)
        labels.append(f"{i}{j}")
    return PointConfiguration(pts, labels)


# ---------------------------------------------------------------------------
# Integer row reduction (Hermite style)


def _row_reduce(rows):
    """Integer row echelon basis of the lattice spanned by the rows.

    Returns (basis, pivots) with basis[i] having its first nonzero entry in
    column pivots[i], positive, and pivots strictly increasing.
    """
    rows = [list(r) for r in rows if any(r)]
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        while True:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                break
            k = next((i for i, p in enumerate(pivots) if p == lead), None)
            if k is None:
                if row[lead] < 0:
                    row = [-x for x in row]
                pos = next((i for i, p in enumerate(pivots) if p > lead), len(pivots))
                basis.insert(pos, row)
                pivots.insert(pos, lead)
                break
            b = basis[k]
            # gcd step in the shared pivot column
            while row[lead]:
                q = b[lead] // row[lead]
                b2 = [x - q * y for x, y in zip(b, row)]
                basis[k], row = row, b2
                b = basis[k]
                lead_new = next((j for j, x in enumerate(row) if x), None)
                if lead_new != lead:
                    break
            lead2 = next((j for j, x in enumerate(row) if x), None)
            if lead2 == lead:
                continue
            if lead2 is None:
                break
    return basis, pivots


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
    basis, pivots = _row_reduce(diffs)
    d = len(basis)
    out = []
    for v in diffs:
        coords = _solve_lattice(basis, pivots, v)
        assert coords is not None
        out.append(tuple(coords))
    return d, out


# ---------------------------------------------------------------------------
# Placing triangulation: volume and facets


def _normal(points) -> tuple:
    """Primitive normal of the hyperplane through d points in Z^d.

    Components are the signed maximal minors of the (d-1) x d matrix of
    differences (a generalized cross product).  Returns the zero vector
    when the points do not span a hyperplane.
    """
    pts = [list(map(int, p)) for p in points]
    d = len(pts[0])
    if len(pts) != d:
        raise ValueError("need exactly d points in dimension d")
    diffs = [[pts[i][j] - pts[0][j] for j in range(d)] for i in range(1, d)]
    normal = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in diffs]
        normal.append((-1) ** j * det_int(minor))
    g = math.gcd(*normal)
    if g > 1:
        normal = [x // g for x in normal]
    return tuple(normal)


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

    Only the first simplex needs cofactor normals and a determinant.  A
    new boundary simplex takes its normal from the two boundary simplices
    at its horizon ridge, and a simplex has volume area x lattice height
    over any of its facets.
    """
    if d == 0:
        return 1, {}
    unique = sorted(set(pts))
    start = [0]
    for i in range(1, len(unique)):
        if len(start) == d + 1:
            break
        if _rank_of([unique[j] for j in start] + [unique[i]]) == len(start):
            start.append(i)
    if len(start) < d + 1:
        raise InputError("configuration is not full-dimensional")
    # (d+1) times the centroid of the first simplex: integral, and interior
    # to every hull the placing grows from it.
    inner = [sum(unique[i][k] for i in start) for k in range(d)]

    def oriented(simplex):
        normal = _normal([unique[i] for i in simplex])
        offset = sum(a * b for a, b in zip(normal, unique[simplex[0]]))
        if sum(a * b for a, b in zip(normal, inner)) > (d + 1) * offset:
            return tuple(-x for x in normal), -offset
        return normal, offset

    boundary = {}
    owners = {}  # ridge -> the two boundary simplices that contain it

    def add(f, side):
        boundary[f] = side
        for k in range(d):
            owners.setdefault(f[:k] + f[k + 1:], []).append(f)

    apex = unique[start[0]]
    volume = abs(det_int([[a - b for a, b in zip(unique[i], apex)] for i in start[1:]]))
    for k, v in enumerate(start):
        f = tuple(start[:k] + start[k + 1:])
        normal, offset = oriented(f)
        lift = offset - sum(a * b for a, b in zip(normal, unique[v]))
        add(f, (normal, offset, volume // lift))
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


def _hull_facets(pts, d):
    """Facets of a full-dimensional hull, each as the tuple of indices of
    the points of `pts` on its supporting hyperplane."""
    _, boundary = _placing(pts, d)
    return [
        tuple(
            i
            for i, p in enumerate(pts)
            if sum(a * b for a, b in zip(normal, p)) == offset
        )
        for normal, offset in dict.fromkeys(side[:2] for side in boundary.values())
    ]


def normalized_volume(c: PointConfiguration) -> int:
    """Lattice volume of the hull, measured in its own difference lattice."""
    d, pts = lattice_normalize(c)
    return _placing(pts, d)[0]


# ---------------------------------------------------------------------------
# Faces


def _rank_of(points) -> int:
    if not points:
        return 0
    p0 = points[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in points[1:]]
    basis, _ = _row_reduce(diffs)
    return len(basis)


def facets(c: PointConfiguration, max_points=None):
    """Facet supports as tuples of point indices, in a deterministic order."""
    d, pts = lattice_normalize(c)
    _check_desk_scale(d, len(set(pts)), max_points)
    return sorted(_hull_facets(pts, d))


def _check_desk_scale(d, npts, max_points=None):
    limit = 20 if max_points is None else max_points
    if d > 8 or npts > limit:
        raise SizeLimitError(
            f"face enumeration limited to dimension 8 and {limit} points"
            f" (got d={d}, {npts})"
        )


def f_vector(c: PointConfiguration, max_points=None) -> Tuple[int, ...]:
    """Counts of proper faces by dimension 0..d-1.

    Proper faces are intersections of facets; each face is identified by
    the set of configuration points it contains.
    """
    d, pts = lattice_normalize(c)
    _check_desk_scale(d, len(set(pts)), max_points)
    facet_sets = [frozenset(m) for m in _hull_facets(pts, d)]
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    new.add(h)
        faces |= new
        frontier = new
    counts = [0] * d
    for f in faces:
        dim = _rank_of([pts[i] for i in sorted(f)])
        counts[dim] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# Subdiagram volumes


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
        from .graphs import star_violation

        w = star_violation(h)
        detail = f"violating W = {sorted(w)}" if w else "single row with no edge"
        raise HypothesisError(
            f"precondition violated: subgraph fails the expansion condition ({detail})"
        )
    conf = contracted_config(g, h)
    with_origin = PointConfiguration(((0,) * conf.ambient_dim,) + conf.points)
    d, pts0 = lattice_normalize(with_origin)
    rest = pts0[1:]
    if not rest or _rank_of(rest) < d:
        return _placing(pts0, d)[0]
    # lattice_normalize put the origin at pts0[0] = 0, so its height over
    # a boundary simplex is -offset.
    _, boundary = _placing(rest, d)
    return sum(-offset * area for _, offset, area in boundary.values() if offset < 0)
