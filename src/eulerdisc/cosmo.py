"""Wavefunction coefficients and discriminants of graph arrangements.

Builds, for a Feynman-style graph with vertex energies X and edge energies
Y: the flat-space wavefunction coefficient of a tree (the edge-splitting
recursion, evaluated once per tube), the facet hyperplanes of the associated
polytope (one per connected subgraph), the physical coefficient family of
the shifted arrangement, and its discriminants.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import HypothesisError, SizeLimitError
from .graphs import CosmoGraph, PatternGraph, automorphisms, connected_subgraphs, reachable
from .symcore import FactoredPolynomial, MultiPoly, RationalFunction, VarTable, _mul_into, _places

# the discriminant pipeline is imported by the functions that build a
# family or a principal A-determinant, so `cosmo-psi` does not load it
if TYPE_CHECKING:
    from .discriminant import DiscriminantReport, ParamFamily

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


class LinearForm(NamedTuple):
    """A facet hyperplane: constant part in (X, Y) plus 0/1 coefficients
    for the shifted vertex variables."""

    constant: MultiPoly
    alpha: Tuple[int, ...]


# ---------------------------------------------------------------------------
# Wavefunction recursion (trees)


# A tree the gate admits runs `cosmo-psi` within a budget of 512 MB peak
# RSS.  Measured CLI peaks (Python 3.11, 2-CPU host), by bound: path6
# 184,756, 39 MB and 1.1-1.3 s of CPU; spur6 (edges 1-2, 2-3, 3-4, 4-5,
# 2-6) 1,144,066, 237 MB and 10-13 s.  The next 6-vertex tree, spur6b (3-6
# for the last edge), bounds 1,961,256 and peaks at 439 MB (21-27 s, run
# with the gate lifted), too close to the budget to admit; caterpillar6
# bounds 8,436,285 and star6 254,186,856.
MAX_PSI_TERMS = 1_200_000


class _Tube(NamedTuple):
    """A tube of a tree, a connected vertex subset."""

    form: Tuple[int, ...]  # the indices of its form's variables, in `energy_vars`
    # one (side, other side) per edge inside it, as positions in the tube list
    splits: Tuple[Tuple[int, int], ...]


def _tubes(g: CosmoGraph):
    """The tubes of the tree g, smallest first.  A tube's form is the sum
    of its X's and of the Y's of the edges that leave it; cutting an edge
    inside it splits it into two smaller tubes."""
    n = g.vertex_count
    vertex_sets = [frozenset(s.vertices) for s in connected_subgraphs(g)]
    position = {vs: k for k, vs in enumerate(vertex_sets)}
    tubes = []
    for vs in vertex_sets:
        form = sorted(v - 1 for v in vs)
        form += [n + k for k, (i, j, _) in enumerate(g.edges) if (i in vs) != (j in vs)]
        inner = [e for e in g.edges if e[0] in vs and e[1] in vs]
        splits = []
        for i, _, eid in inner:
            side = frozenset(reachable(i, [e for e in inner if e[2] != eid]))
            splits.append((position[side], position[vs - side]))
        tubes.append(_Tube(tuple(form), tuple(splits)))
    return tubes


def _levels(tubes, keys, leaf, times, level_sum):
    """Run the recursion over the tube list, keys[k] the key of tube k's
    form, and return the root's (value, set of the keys of its forms).

    A vertex's value is leaf, over its own form.  Each split of a larger
    tube has the term times(a, b), a and b its sides' values, over the
    union of the sides' forms.  The tube's value is level_sum(items), one
    item (term, the keys of the forms its term lacks) per split, over the
    union of all the splits' forms and its own.
    """
    table = []
    for tube, key in zip(tubes, keys):
        if not tube.splits:
            table.append((leaf, frozenset([key])))
            continue
        terms = []
        for a, b in tube.splits:
            (value_a, den_a), (value_b, den_b) = table[a], table[b]
            terms.append((times(value_a, value_b), den_a | den_b))
        common = frozenset().union(*(den for _, den in terms))
        table.append((level_sum([(t, common - den) for t, den in terms]), common | {key}))
    return table[-1]


def _degrees(tubes, nv):
    """Each of the nv variables' degree in the root's numerator: the
    recursion of `_levels` in max-plus arithmetic, each form keyed by its
    tube's position.  A term's degree vector sums its sides' and adds one
    for each form it lacks that holds the variable, and a level takes the
    largest over its terms.  No coefficient of the recursion is negative,
    so no term cancels and these degrees are exact."""

    def level(items):
        top = [0] * nv
        for degree, missing in items:
            degree = list(degree)
            for k in missing:
                for i in tubes[k].form:
                    degree[i] += 1
            top = list(map(max, top, degree))
        return top

    return _levels(tubes, range(len(tubes)), [0] * nv, lambda a, b: list(map(add, a, b)), level)[0]


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

    Every subtree the splitting meets is a tube, its Y's those of the tree
    edges that leave it, so each tube's coefficient is built once, smallest
    tube first, from those of its two sides at each split.

    Raises SizeLimitError before any polynomial is built when the
    numerator may have more than MAX_PSI_TERMS terms: C(T - 1, 2n - 2) for
    T tubes, the monomials of its degree T - (2n - 1) in 2n - 1 energies.
    """
    if g.vertex_count > 8:
        raise SizeLimitError("wavefunction limited to 8 vertices")
    if not g.is_tree():
        raise HypothesisError(
            "the recursion is defined for trees only; this graph has a cycle"
        )
    n = g.vertex_count
    tubes = _tubes(g)
    bound = math.comb(len(tubes) - 1, 2 * n - 2)
    if bound > MAX_PSI_TERMS:
        raise SizeLimitError(
            f"wavefunction numerator may have {bound} terms (limit {MAX_PSI_TERMS})"
        )
    # The coefficients are built on packed keys (see `symcore._mul_into`),
    # and the numerator stays packed.  Each variable's radix exceeds its
    # degree in the root's numerator, and is at least 2 for the forms.
    # Every numerator, edge term and partial sum built is a factor of a
    # term of a larger tube's numerator, and so of the root's, with
    # nonnegative coefficients: no digit carries.
    vt = energy_vars(g)
    # A tube form is keyed by the mask with bit 8i set for each of its
    # variables i.  That key fixes the order in which `_level_sum` breaks ties, and,
    # through the hashes that order its frozensets, the work it does: on
    # path6, bit i for variable i gives the same text with 1,625,660 pair
    # updates where this takes 1,624,307.
    keys = [sum(1 << 8 * i for i in tube.form) for tube in tubes]
    places = _places([max(d + 1, 2) for d in _degrees(tubes, len(vt))])
    forms = {key: dict.fromkeys((places[i] for i in tube.form), 1) for tube, key in zip(tubes, keys)}

    def times(a, b):
        return _mul_into({}, a, b) if len(a) >= len(b) else _mul_into({}, b, a)

    # each level clears its edge terms over one common denominator, the set
    # of its tube forms (the two sides of a split have disjoint X's); that
    # product is squarefree and the numerator is the adjoint, so the level
    # is already reduced.  No coefficient is negative, so no sum is zero.
    num, den = _levels(tubes, keys, {0: 1}, times, lambda items: _level_sum({}, items, forms))
    return RationalFunction(
        MultiPoly._from_packed(vt, places, num),
        FactoredPolynomial((MultiPoly._from_packed(vt, places, forms[p]), 1) for p in den),
    )


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
        # each item times its missing forms, in the iteration order of its
        # frozenset, and the last product goes straight into out.  That
        # order sets the sizes of the partial products, so `wavefunction`
        # must build each set as the frozenset `common - den`.  On path6,
        # descending key order gives the same text with 1,518,566 pair
        # updates where this takes 1,624,307, but peaks at 44.4 MB in the
        # CLI instead of 43.3 MB; ascending key order takes 1,671,222.
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


# ---------------------------------------------------------------------------
# Facet hyperplanes


def facet_forms(g: CosmoGraph):
    """One linear form per connected subgraph, scattering facet first.

    For a subgraph (V, E): sum of X_v over V, plus Y_e for edges with one
    endpoint in V, plus 2 Y_e for edges with both endpoints in V that are
    not in E.  The 0/1 alpha pattern marks V.  Distinct subgraphs give
    distinct (form, alpha) pairs: alpha fixes V, and the 2 Y_e terms fix E.
    """
    vt = energy_vars(g)
    subs = connected_subgraphs(g)
    # scattering facet: the whole graph with all of its edges
    full = next(
        s
        for s in subs
        if len(s.vertices) == g.vertex_count and len(s.edge_ids) == len(g.edges)
    )
    ordered = [full] + [s for s in subs if s is not full]
    forms = []
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
        forms.append(LinearForm(p, alpha))
    return forms


def coefficient_family(g: CosmoGraph) -> ParamFamily:
    """Family of the shifted arrangement: row 0 holds the constant parts of
    the facet forms, row v the 0/1 coefficient of the shifted vertex v."""
    from .discriminant import ParamFamily

    vt = energy_vars(g)
    forms = facet_forms(g)
    n = g.vertex_count
    entries = [[f.constant for f in forms]]
    for v in range(n):
        entries.append([MultiPoly.const(vt, f.alpha[v]) for f in forms])
    return ParamFamily(n, vt, entries)


def cosmo_pattern(g: CosmoGraph) -> PatternGraph:
    """Bipartite sparsity pattern of the coefficient family: left vertices
    are the rows 0..n, right vertices the facet columns.  Row 0 holds the
    facet constants, none of them zero, and row v is alpha[v - 1]."""
    alphas = [f.alpha for f in facet_forms(g)]
    left = g.vertex_count + 1
    edges = [(0, left + c) for c in range(len(alphas))]
    for v in range(g.vertex_count):
        edges += [(v + 1, left + c) for c, alpha in enumerate(alphas) if alpha[v]]
    return PatternGraph(left, len(alphas), edges)


def cosmo_pad(g: CosmoGraph) -> FactoredPolynomial:
    """Principal A-determinant of the sparsity pattern of the family, with
    each nonzero entry treated as an independent variable."""
    from .discriminant import pad_sparse

    return pad_sparse(cosmo_pattern(g))


# The gate counts the (I, J) pairs of the family's minors.  Measured
# `cosmo-disc` CLI runs (Python 3.11, 2-CPU host): the 5-star, 230,229
# pairs, 90 MB peak and 2.7-3.9 s of CPU.  The minors no longer set the
# cost: in process, `all_minors` takes 1.8-2.6 s on the 6-path (1,184,039
# pairs) and 1.5-2.3 s on the 5-cycle (906,191), each within 20 MB of peak
# RSS.  It is the beta memo of their witness search that outgrows memory:
# under a 1 GB address-space limit each stops after fewer than 300 of its
# orbits.
MAX_DISC_PAIRS = 250_000


def _minor_pairs(fam: ParamFamily) -> int:
    """Sum over s of C(k + 1, s) * C(ncols, s): the (I, J) pairs that
    `ParamFamily.all_minors` visits."""
    rows = fam.k + 1
    return sum(math.comb(rows, s) * math.comb(fam.ncols, s) for s in range(1, rows + 1))


def cosmo_euler_disc(
    g: CosmoGraph, seed: int = 0, find_witnesses: bool = True
) -> DiscriminantReport:
    """Euler discriminant of the physical family in the (X, Y) energies.

    Factors equal to a single edge energy Y are flagged as normalized away
    by the integrand numerator.  find_witnesses is passed to `euler_disc`,
    with each automorphism of g as a renaming of the energies: it permutes
    the facet columns and the shifted-vertex rows of the family.

    Raises SizeLimitError before any minor is built when the family has
    more than MAX_DISC_PAIRS (I, J) pairs.
    """
    from .discriminant import DiscriminantReport, euler_disc

    fam = coefficient_family(g)
    pairs = _minor_pairs(fam)
    if pairs > MAX_DISC_PAIRS:
        raise SizeLimitError(
            f"coefficient family has {pairs} minor pairs (limit {MAX_DISC_PAIRS})"
        )
    symmetries = [
        {**{f"X{v}": f"X{t}" for v, t in vmap.items()},
         **{f"Y{e}": f"Y{t}" for e, t in emap.items()}}
        for vmap, emap in automorphisms(g)
    ]
    rep = euler_disc(fam, seed=seed, find_witnesses=find_witnesses, symmetries=symmetries)
    # the factors are canonical, so a single-Y factor is that Y itself
    ys = {MultiPoly.var(fam.params, f"Y{eid}") for _, _, eid in g.edges}
    return DiscriminantReport(rep.chi_star, (
        (delta, exponent, witness, flags + ("numerator-normalized",) if delta in ys else flags)
        for delta, exponent, witness, flags in rep.per_factor
    ))
