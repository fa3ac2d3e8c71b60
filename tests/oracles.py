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
