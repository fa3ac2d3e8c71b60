"""Oracles shared by the tests: plain reference versions of operations the
library does not need itself."""

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
