"""Wavefunction coefficients and discriminants of graph arrangements.

Builds, for a Feynman-style graph with vertex energies X and edge energies
Y: the flat-space wavefunction coefficient of a tree (by the edge-splitting
recursion), the facet hyperplanes of the associated polytope (one per
connected subgraph), the physical coefficient family of the shifted
arrangement, and its discriminants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .discriminant import DiscriminantReport, FactoredPolynomial, ParamFamily, euler_disc, pad_sparse
from .errors import HypothesisError, SizeLimitError
from .graphs import CosmoGraph, PatternGraph, connected_subgraphs
from .symcore import MultiPoly, RationalFunction, VarTable

__all__ = [
    "energy_vars",
    "LinearForm",
    "wavefunction",
    "facet_forms",
    "coefficient_family",
    "cosmo_pattern",
    "cosmo_pad",
    "cosmo_euler_disc",
]


def energy_vars(g: CosmoGraph) -> VarTable:
    """X variable per vertex then Y variable per edge id."""
    names = [f"X{v}" for v in range(1, g.vertex_count + 1)]
    names += [f"Y{eid}" for _, _, eid in g.edges]
    return VarTable(names)


@dataclass(frozen=True)
class LinearForm:
    """A facet hyperplane: constant part in (X, Y) plus 0/1 coefficients
    for the shifted vertex variables."""

    constant: MultiPoly
    alpha: Tuple[int, ...]


# ---------------------------------------------------------------------------
# Wavefunction recursion (trees)


def wavefunction(g: CosmoGraph) -> RationalFunction:
    """Flat-space wavefunction coefficient of a tree.

    Single vertex: 1 / X.  Otherwise 1 / (sum of the X's) times the sum
    over edges of the product of the coefficients of the two components of
    the split, with the edge's Y added to the X of each endpoint.
    """
    if g.vertex_count > 8:
        raise SizeLimitError("wavefunction limited to 8 vertices")
    if not g.is_tree():
        raise HypothesisError(
            "the recursion is defined for trees only; this graph has a cycle"
        )
    vt = energy_vars(g)
    one = MultiPoly.const(vt, 1)
    memo: Dict = {}

    def x_of(v, shift):
        p = MultiPoly.var(vt, f"X{v}")
        for eid in shift.get(v, ()):
            p = p + MultiPoly.var(vt, f"Y{eid}")
        return p

    # each level clears its edge terms over one common denominator and
    # cancels once, in RationalFunction, instead of reducing after every
    # pairwise operation
    def psi(verts, shift):
        key = (verts, tuple(sorted((v, shift[v]) for v in shift if v in verts)))
        if key in memo:
            return memo[key]
        if len(verts) == 1:
            v = next(iter(verts))
            out = RationalFunction(one, FactoredPolynomial([(x_of(v, shift), 1)]))
        else:
            total = MultiPoly.zero(vt)
            for v in verts:
                total = total + x_of(v, shift)
            inner = [e for e in g.edges if e[0] in verts and e[1] in verts]
            terms = []
            common: Dict[MultiPoly, int] = {}
            for i, j, eid in inner:
                side_i = _component(verts, inner, i, eid)
                side_j = verts - side_i
                ri = psi(side_i, _add_shift(shift, i, eid))
                rj = psi(side_j, _add_shift(shift, j, eid))
                den = dict(ri.den.factors)
                for p, e in rj.den:
                    den[p] = den.get(p, 0) + e
                terms.append((ri.num * rj.num, den))
                for p, e in den.items():
                    if common.get(p, 0) < e:
                        common[p] = e
            num = MultiPoly.zero(vt)
            for tn, den in terms:
                for p, e in common.items():
                    missing = e - den.get(p, 0)
                    for _ in range(missing):
                        tn = tn * p
                num = num + tn
            common[total] = common.get(total, 0) + 1
            out = RationalFunction(num, FactoredPolynomial(common.items()))
        memo[key] = out
        return out

    return psi(frozenset(range(1, g.vertex_count + 1)), {})


def _component(verts, edges, start, removed_eid):
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for i, j, eid in edges:
            if eid == removed_eid:
                continue
            if i == v and j in verts and j not in seen:
                seen.add(j)
                queue.append(j)
            elif j == v and i in verts and i not in seen:
                seen.add(i)
                queue.append(i)
    return frozenset(seen)


def _add_shift(shift, v, eid):
    out = {k: tuple(vs) for k, vs in shift.items()}
    out[v] = tuple(sorted(out.get(v, ()) + (eid,)))
    return out


# ---------------------------------------------------------------------------
# Facet hyperplanes


def facet_forms(g: CosmoGraph, max_vertices: int = 8, max_edges: int = 12):
    """One linear form per connected subgraph, scattering facet first.

    For a subgraph (V, E): sum of X_v over V, plus Y_e for edges with one
    endpoint in V, plus 2 Y_e for edges with both endpoints in V that are
    not in E.  The 0/1 alpha pattern marks V.
    """
    vt = energy_vars(g)
    subs = connected_subgraphs(g, max_vertices, max_edges)
    # scattering facet: the whole graph with all of its edges
    full = next(
        s
        for s in subs
        if len(s.vertices) == g.vertex_count and len(s.edge_ids) == len(g.edges)
    )
    ordered = [full] + [s for s in subs if s is not full]
    forms = []
    seen = set()
    for s in ordered:
        V = set(s.vertices)
        E = set(s.edge_ids)
        p = MultiPoly.zero(vt)
        for v in s.vertices:
            p = p + MultiPoly.var(vt, f"X{v}")
        for i, j, eid in g.edges:
            inside = (i in V) + (j in V)
            if inside == 1:
                p = p + MultiPoly.var(vt, f"Y{eid}")
            elif inside == 2 and eid not in E:
                p = p + MultiPoly.var(vt, f"Y{eid}") * 2
        alpha = tuple(1 if v in V else 0 for v in range(1, g.vertex_count + 1))
        form = LinearForm(p, alpha)
        if (p, alpha) not in seen:
            seen.add((p, alpha))
            forms.append(form)
    return forms


def coefficient_family(g: CosmoGraph) -> ParamFamily:
    """Family of the shifted arrangement: row 0 holds the constant parts of
    the facet forms, row v the 0/1 coefficient of the shifted vertex v."""
    vt = energy_vars(g)
    forms = facet_forms(g)
    n = g.vertex_count
    entries = [[f.constant for f in forms]]
    for v in range(n):
        entries.append([MultiPoly.const(vt, f.alpha[v]) for f in forms])
    return ParamFamily(n, vt, entries)


def cosmo_pattern(g: CosmoGraph) -> PatternGraph:
    """Bipartite sparsity pattern of the coefficient family: left vertices
    are the rows 0..n, right vertices the facet columns."""
    fam = coefficient_family(g)
    left = fam.k + 1
    edges = []
    for i, row in enumerate(fam.entries):
        for c, p in enumerate(row):
            if not p.is_zero:
                edges.append((i, left + c))
    return PatternGraph(left, fam.ncols, edges)


def cosmo_pad(g: CosmoGraph) -> FactoredPolynomial:
    """Principal A-determinant of the sparsity pattern of the family, with
    each nonzero entry treated as an independent variable."""
    return pad_sparse(cosmo_pattern(g))


def cosmo_euler_disc(g: CosmoGraph, seed: int = 0) -> DiscriminantReport:
    """Euler discriminant of the physical family in the (X, Y) energies.

    Factors equal to a single edge energy Y are flagged as normalized away
    by the integrand numerator.
    """
    fam = coefficient_family(g)
    y_names = [f"Y{eid}" for _, _, eid in g.edges]
    return euler_disc(fam, seed=seed, numerator_vars=y_names)
