"""Oracles shared by the tests: plain reference versions of operations the
library does not need itself."""

from fractions import Fraction

from eulerdisc.symcore import MultiPoly, try_div


def factor_multiplicity(p, factor):
    """Largest e with factor^e dividing p, by repeated exact division."""
    e = 0
    while True:
        q = try_div(p, factor)
        if q is None:
            return e
        p = q
        e += 1


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


def poly_str(p):
    """MultiPoly's printed form, built term by term: graded lex order,
    highest first, each term its coefficient (dropped when 1) and its
    variable powers joined by "*"."""
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = p.terms[e]
        factors = []
        for name, k in zip(p.vars.names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        parts.append((c < 0, "*".join(factors)))
    neg, text = parts[0]
    out = ("-" if neg else "") + text
    for neg, text in parts[1:]:
        out += (" - " if neg else " + ") + text
    return out


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
