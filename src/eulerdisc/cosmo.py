"""Wavefunction coefficients and discriminants of graph arrangements.

Builds, for a Feynman-style graph with vertex energies X and edge energies
Y: the flat-space wavefunction coefficient of a tree (by the edge-splitting
recursion), the facet hyperplanes of the associated polytope (one per
connected subgraph), the physical coefficient family of the shifted
arrangement, and its discriminants.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Tuple

from .discriminant import DiscriminantReport, FactoredPolynomial, ParamFamily, euler_disc, pad_sparse
from .errors import HypothesisError, SizeLimitError
from .graphs import CosmoGraph, PatternGraph, automorphisms, connected_subgraphs, reachable
from .symcore import MultiPoly, RationalFunction, VarTable, _mul_into, _unpack

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


# path6's bound, 184,756 (159,328 actual terms, about 124 MB peak RSS), is
# admitted; the next 6-vertex tree's, 1,144,066, is not
MAX_PSI_TERMS = 500_000


def _psi_term_bound(g: CosmoGraph) -> int:
    """C(T - 1, 2n - 2) for a tree with n vertices and T tubes (connected
    vertex subsets): the number of monomials of degree T - (2n - 1) in the
    2n - 1 energies, which bounds the terms of the homogeneous numerator."""
    n = g.vertex_count
    return math.comb(len(connected_subgraphs(g)) - 1, 2 * n - 2)


def _psi_width(g: CosmoGraph) -> int:
    """Bytes per exponent field of the keys `wavefunction` packs: enough for
    T - (2n - 1), the degree of the numerator."""
    degree = len(connected_subgraphs(g)) - (2 * g.vertex_count - 1)
    return max(1, (degree.bit_length() + 7) // 8)


def wavefunction(g: CosmoGraph) -> RationalFunction:
    """Flat-space wavefunction coefficient of a tree.

    Single vertex: 1 / X.  Otherwise 1 / (sum of the X's) times the sum
    over edges of the product of the coefficients of the two components of
    the split, with the edge's Y added to the X of each endpoint.

    The result is the canonical form of the cosmological polytope
    (Arkani-Hamed, Benincasa, Postnikov, arXiv:1709.02813): its denominator
    is the squarefree product of the tube (facet) forms, one per connected
    vertex subset, and its numerator is the adjoint, which none of them
    divides.  So it is reduced as built, and nothing is cancelled.

    Raises SizeLimitError before any polynomial is built when the
    numerator may have more than MAX_PSI_TERMS terms.
    """
    if g.vertex_count > 8:
        raise SizeLimitError("wavefunction limited to 8 vertices")
    if not g.is_tree():
        raise HypothesisError(
            "the recursion is defined for trees only; this graph has a cycle"
        )
    bound = _psi_term_bound(g)
    if bound > MAX_PSI_TERMS:
        raise SizeLimitError(
            f"wavefunction numerator may have {bound} terms (limit {MAX_PSI_TERMS})"
        )
    # The recursion runs on packed keys (see `symcore._mul_into`), unpacked
    # once at the end.  Each numerator it builds, a subtree's or part of a
    # level's sum, has degree at most T - (2n - 1): a subtree on m vertices
    # with T' tubes has degree T' - (2m - 1), and each vertex outside it
    # adds at least two tubes.  No exponent exceeds that, so no field carries.
    vt = energy_vars(g)
    w = _psi_width(g)
    unit = {name: 1 << (8 * w * i) for i, name in enumerate(vt.names)}
    forms: Dict[int, Dict[int, int]] = {}  # sum of a tube form's units -> the form
    memo: Dict = {}

    def form(units):
        forms.setdefault(sum(units), dict.fromkeys(units, 1))
        return sum(units)

    def x_of(v, shift):
        return [unit[f"X{v}"]] + [unit[f"Y{eid}"] for eid in shift.get(v, ())]

    # each level clears its edge terms over one common denominator, the set
    # of its tube forms (the two sides of a split have disjoint X's); that
    # product is squarefree and the numerator is the adjoint, so the level
    # is already reduced.  No coefficient is negative, so no sum is zero.
    def psi(verts, shift):
        key = (verts, tuple(sorted((v, shift[v]) for v in shift if v in verts)))
        if key in memo:
            return memo[key]
        if len(verts) == 1:
            out = {0: 1}, frozenset([form(x_of(next(iter(verts)), shift))])
        else:
            inner = [e for e in g.edges if e[0] in verts and e[1] in verts]
            terms = []
            for i, j, eid in inner:
                side_i = frozenset(reachable(i, [e for e in inner if e[2] != eid]))
                num_i, den_i = psi(side_i, _add_shift(shift, i, eid))
                num_j, den_j = psi(verts - side_i, _add_shift(shift, j, eid))
                if len(num_i) < len(num_j):
                    num_i, num_j = num_j, num_i
                terms.append((_mul_into({}, num_i, num_j), den_i | den_j))
            common = frozenset().union(*(den for _, den in terms))
            num = _level_sum({}, [(tn, common - den) for tn, den in terms], forms)
            out = num, common | {form([u for v in verts for u in x_of(v, shift)])}
        memo[key] = out
        return out

    num, den = psi(frozenset(range(1, g.vertex_count + 1)), {})

    def poly(packed):
        return MultiPoly._raw(vt, dict(zip(_unpack(packed, len(vt), w), packed.values())))

    return RationalFunction(poly(num), FactoredPolynomial((poly(forms[p]), 1) for p in den))


def _level_sum(out, items, forms):
    """Add the sum of tn times the product of forms[p] over p in missing,
    for each (tn, missing) in items, into out and return out.

    Greedy multivariate Horner (Ceberio, Kreinovich, ACM SIGSAM Bulletin
    38(1), 2004): the form missing from the most items, the smallest key
    on a tie, multiplies the sum of those items once.  A level's numerator
    is dense in its degree, so that sum is about as large as one of its
    terms.  Items that share no form take their own products.
    """
    counts = Counter(p for _, missing in items for p in missing)
    p, n = max(counts.items(), key=lambda pn: (pn[1], -pn[0]), default=(0, 0))
    if n < 2:
        # each item times its missing forms; the last product goes
        # straight into out
        for tn, missing in items:
            missing = [forms[q] for q in missing]
            last = missing.pop() if missing else {0: 1}
            for f in missing:
                tn = _mul_into({}, tn, f)
            _mul_into(out, tn, last)
        return out
    shared = [(tn, missing - {p}) for tn, missing in items if p in missing]
    _mul_into(out, _level_sum({}, shared, forms), forms[p])
    return _level_sum(out, [item for item in items if p not in item[1]], forms)


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


def cosmo_euler_disc(
    g: CosmoGraph, seed: int = 0, find_witnesses: bool = True
) -> DiscriminantReport:
    """Euler discriminant of the physical family in the (X, Y) energies.

    Factors equal to a single edge energy Y are flagged as normalized away
    by the integrand numerator.  find_witnesses is passed to `euler_disc`,
    with each automorphism of g as a renaming of the energies: it permutes
    the facet columns and the shifted-vertex rows of the family.
    """
    fam = coefficient_family(g)
    y_names = [f"Y{eid}" for _, _, eid in g.edges]
    symmetries = [
        {**{f"X{v}": f"X{t}" for v, t in vmap.items()},
         **{f"Y{e}": f"Y{t}" for e, t in emap.items()}}
        for vmap, emap in automorphisms(g)
    ]
    return euler_disc(fam, seed=seed, numerator_vars=y_names,
                      find_witnesses=find_witnesses, symmetries=symmetries)
