"""Oracles shared by the tests: plain reference versions of operations the
library does not need itself."""

from fractions import Fraction
from itertools import combinations, permutations
from operator import getitem

from eulerdisc.lattice import facets
from eulerdisc.symcore import FactoredPolynomial, MultiPoly, minors, try_div


def factor_multiplicity(p, factor):
    """Largest e with factor^e dividing p, by repeated exact division."""
    e = 0
    while True:
        q = try_div(p, factor)
        if q is None:
            return e
        p = q
        e += 1


def factor_set(f):
    """The factors of a FactoredPolynomial, without their exponents."""
    return frozenset(p for p, _ in f.factors)


def reduced(rep):
    """The product of a DiscriminantReport's factors."""
    return FactoredPolynomial((f, 1) for f, _, _, _ in rep.per_factor)


def with_multiplicity(rep):
    """The product of a DiscriminantReport's factors to their exponents, an
    unknown exponent counted as 1."""
    return FactoredPolynomial(
        (f, e if isinstance(e, int) else 1) for f, e, _, _ in rep.per_factor
    )


def expand(f, vars=None):
    """The product of a FactoredPolynomial's factor powers as one MultiPoly;
    an empty product is 1 over vars."""
    if not f.factors:
        if vars is None:
            raise ValueError("cannot expand an empty product without a VarTable")
        return MultiPoly.const(vars, 1)
    out = MultiPoly.const(f.factors[0][0].vars, 1)
    for p, e in f.factors:
        out = out * p**e
    return out


def subs(p, images):
    """p with each name in images replaced by its image, term by term;
    the images share one VarTable, and every other name of p must be in
    it.  With no images, p itself."""
    if not images:
        return p
    vt = next(iter(images.values())).vars
    imgs = [images[name] if name in images else MultiPoly.var(vt, name) for name in p.vars.names]
    total = MultiPoly.zero(vt)
    for e, c in p.terms.items():
        m = MultiPoly.const(vt, c)
        for img, k in zip(imgs, e):
            if k:
                m = m * img**k
        total = total + m
    return total


def poly_str(p):
    """MultiPoly's printed form, built term by term: graded lex order,
    highest first, each term its coefficient (dropped when 1) and its
    variable powers joined by "*"."""
    if not p.terms:
        return "0"
    # lex order, then a stable sort by degree
    order = sorted(p.terms, reverse=True)
    order.sort(key=sum, reverse=True)
    # for each variable, the text of each power of it that occurs
    powers = [
        {k: "" if k == 0 else name if k == 1 else f"{name}^{k}" for k in set(column)}
        for name, column in zip(p.vars.names, zip(*order))
    ]
    parts = []
    for e in order:
        c = p.terms[e]
        text = "*".join(filter(None, map(getitem, powers, e)))
        if abs(c) != 1 or not text:
            text = f"{abs(c)}*{text}" if text else str(abs(c))
        parts += (" - " if c < 0 else " + ", text)
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def eval_fraction(p, values):
    """The value of p at the point values (name -> int or Fraction), term
    by term in Fractions."""
    total = Fraction(0)
    for e, c in p.terms.items():
        m = Fraction(c)
        for name, k in zip(p.vars.names, e):
            m *= Fraction(values[name]) ** k
        total += m
    return total


def psi_value(g, point):
    """Independent oracle: the edge-splitting recursion of the tree g in
    Fractions, at the energies point[f"X{v}"] and point[f"Y{eid}"].

    One vertex gives 1/X; more give 1/(the sum of their X) times the sum
    over their edges of the product of the two sides' values, with the
    edge's Y added to the X of each endpoint.  It reads only g.edges and
    g.vertex_count, and uses nothing from symcore.
    """

    def rec(verts, xs):
        if len(verts) == 1:
            return 1 / Fraction(xs[next(iter(verts))])
        inner = [(i, j, eid) for i, j, eid in g.edges if i in verts and j in verts]
        total = Fraction(0)
        for i, j, eid in inner:
            side = {i}
            grew = True
            while grew:
                grew = False
                for a, b, other in inner:
                    if other != eid and (a in side) != (b in side):
                        side |= {a, b}
                        grew = True
            xi = {v: x for v, x in xs.items() if v in side}
            xj = {v: x for v, x in xs.items() if v not in side}
            xi[i] += point[f"Y{eid}"]
            xj[j] += point[f"Y{eid}"]
            total += rec(frozenset(xi), xi) * rec(frozenset(xj), xj)
        return total / sum(xs.values())

    xs = {v: point[f"X{v}"] for v in range(1, g.vertex_count + 1)}
    return rec(frozenset(xs), xs)


def exact_rank(rows):
    """Rank of a matrix by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def f_vector_by_closure(c):
    """Face counts of a configuration's hull by dimension 0..d-1: the
    facets closed under intersection, each face then ranked by its own
    rational elimination.  Within `lattice.facets`' size gate."""
    facet_sets = [frozenset(m) for m in facets(c)]
    faces = set(facet_sets)
    frontier = faces
    while frontier:
        frontier = {f & g for f in frontier for g in facet_sets} - faces - {frozenset()}
        faces |= frontier

    def dim(members):
        p0 = c.points[members[0]]
        return exact_rank([[a - b for a, b in zip(c.points[i], p0)] for i in members])

    counts = [0] * dim(range(len(c.points)))
    for f in faces:
        counts[dim(sorted(f))] += 1
    return tuple(counts)


def beta_whitney(m):
    """Crapo beta of the column matroid of the rational matrix m (a list of
    rows) by the signed Whitney rank sum over all column subsets, each rank
    by `exact_rank`."""

    def rank(cols):
        return exact_rank([[row[c] for c in cols] for row in m])

    n = len(m[0])
    total = 0
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            total += (-1) ** size * rank(sub)
    return (-1) ** rank(range(n)) * total


def leibniz(m, vars=None):
    """The determinant as the signed sum over permutations: a MultiPoly over
    vars, or an int for an integer matrix when vars is None."""
    n = len(m)
    total = 0 if vars is None else MultiPoly.zero(vars)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign if vars is None else MultiPoly.const(vars, sign)
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


def leibniz_minors(m, vars):
    """Every balanced (I, J) of the matrix m with the Leibniz value of its
    minor, by size, then I, then J."""
    nr, nc = len(m), len(m[0])
    out = []
    for size in range(1, min(nr, nc) + 1):
        for I in combinations(range(nr), size):
            for J in combinations(range(nc), size):
                out.append(((I, J), leibniz([[m[i][j] for j in J] for i in I], vars)))
    return out


def first_nonzero(values):
    """The nonzero polynomials among values, each once, in the order of its
    first occurrence: the list `ParamFamily.all_minors` makes of a block's
    minors taken by size, then I, then J."""
    return list(dict.fromkeys(v for v in values if not v.is_zero))


def expanded_minors(m):
    """The minors of every balanced (I, J) of the matrix m, by size, then I,
    then J, each from one `symcore.minors` (Laplace along the first row of
    the minor, memoized), however many rows of m are constant."""
    minor = minors(m)
    nr, nc = len(m), len(m[0])
    return [
        minor(I, J)
        for size in range(1, min(nr, nc) + 1)
        for I in combinations(range(nr), size)
        for J in combinations(range(nc), size)
    ]


def beta_from_bases(n, bases):
    """Crapo beta of the matroid on range(n) with the given bases (bit
    masks), by the signed Whitney rank sum.  A set is independent when it
    lies in a basis; a dependent set has the largest rank of the sets one
    element smaller."""
    independent = set()
    for b in bases:
        sub = b
        while True:
            independent.add(sub)
            if not sub:
                break
            sub = (sub - 1) & b
    rank = [0] * (1 << n)
    total = 0
    for a in range(1, 1 << n):
        if a in independent:
            rank[a] = bin(a).count("1")
        else:
            rank[a] = max(rank[a & ~(1 << i)] for i in range(n) if a >> i & 1)
        total += (-1) ** bin(a).count("1") * rank[a]
    return (-1) ** rank[-1] * total


def divisibility_beta(family, delta=None):
    """Beta of [I | z] at a witness of the basis factor delta, or at a
    generic point when delta is None, without drawing any point.

    A (k+1)-set B of columns is a basis when its maximal minor m_B, up to
    sign a Leibniz minor of z, is not identically zero and delta does not
    divide it (`try_div`).  At a witness of delta, which avoids every other
    basis factor, these are the minors that do not vanish.  The chi drop
    of delta is beta(family) - beta(family, delta).  Exponential in the
    number of columns, so only for small families.
    """
    z, vt = family.entries, family.params
    rows = len(z)
    n = rows + family.ncols
    bases = []
    for cols in combinations(range(n), rows):
        unit = {c for c in cols if c < rows}
        zcols = [c - rows for c in cols if c >= rows]
        m = leibniz([[z[i][j] for j in zcols] for i in range(rows) if i not in unit], vt)
        if m.is_zero or (delta is not None and try_div(m, delta) is not None):
            continue
        bases.append(sum(1 << c for c in cols))
    return beta_from_bases(n, bases)


def _adjacency(edges, from_left):
    adj = {}
    for i, j in edges:
        a, b = (i, j) if from_left else (j, i)
        adj.setdefault(a, []).append(b)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def _max_matching(g, side):
    """Maximum matching of a bipartite graph (anything with left, right and
    edges) by augmenting paths from each vertex of the chosen side in turn.

    Returns (adjacency from that side, its vertex -> matched vertex, its
    vertices left unmatched).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    source = g.left if side == "left" else g.right
    adj = _adjacency(g.edges, from_left=(side == "left"))
    match_src = {}
    match_dst = {}

    def augment(u, visited):
        for v in adj.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            if v not in match_dst or augment(match_dst[v], visited):
                match_src[u] = v
                match_dst[v] = u
                return True
        return False

    free = [u for u in source if not augment(u, set())]
    return adj, match_src, free


def saturating_matching(g, side="left"):
    """Matching covering the chosen side via augmenting paths, or None."""
    _, match_src, free = _max_matching(g, side)
    if free:
        return None
    if side == "left":
        return dict(sorted(match_src.items()))
    return {v: u for u, v in sorted(match_src.items())}


def hall_obstruction(g, side="left"):
    """A subset W of the chosen side with |N(W)| < |W|, or None if saturable."""
    adj, match_src, free = _max_matching(g, side)
    if not free:
        return None
    # Grow the alternating tree from an unmatched source vertex of the
    # maximum matching; the reached source vertices violate Hall.
    match_dst = {v: u for u, v in match_src.items()}
    reached_src = {free[-1]}
    reached_dst = set()
    changed = True
    while changed:
        changed = False
        for u in list(reached_src):
            for v in adj.get(u, ()):
                if v not in reached_dst:
                    reached_dst.add(v)
                    changed = True
                    if v in match_dst and match_dst[v] not in reached_src:
                        reached_src.add(match_dst[v])
    return frozenset(reached_src)
