"""Linear matroids over the rationals and signed Euler characteristics.

The signed Euler characteristic of a hyperplane arrangement complement is
computed combinatorially as the Crapo beta invariant of the column matroid
of the coefficient matrix prefixed with an identity block; no topology is
involved.  Beta runs by deletion-contraction on integer matrices in a
canonical RREF, reduced fraction-free with each row primitive and its pivot
positive: a fixed rescaling of the unique RREF, hence a sound memo key.
Minors of rank 1 and 2 are answered in closed form and never memoized;
only the rank >= 3 nodes go through the memo.  The memo lives for one call
(`euler_disc` shares one across its witness points); nothing is cached
between calls.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .errors import HypothesisError, InputError

__all__ = [
    "LinearMatroid",
    "beta",
    "signed_euler_char",
    "generic_euler_char",
]


def _primitive(row):
    """The row divided by its content, its leading entry made positive."""
    g = gcd(*row)
    if g and row[_lead(row)] < 0:
        g = -g
    return tuple(x // g for x in row) if g not in (0, 1) else tuple(row)


def _lead(row):
    return row.index(next(filter(None, row)))


def _eliminate(row, prow, c):
    """row with column c cleared against prow (prow[c] != 0), by
    cross-multiplication; returned primitive."""
    p, f = prow[c], row[c]
    if not f:
        return row
    return _primitive(tuple(p * a - f * b for a, b in zip(row, prow)))


def _rref_int(rows):
    """Canonical integer RREF of rational rows, zero rows dropped: each row
    scaled to integers, then reduced fraction-free with zeros above and
    below every pivot."""
    m = []
    for row in filter(any, rows):
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m = [row if i == r else _eliminate(row, m[r], c) for i, row in enumerate(m)]
        m = [row for row in m if any(row)]
        r += 1
    return tuple(_primitive(row) for row in m)


class LinearMatroid:
    """Column matroid of an exact rational matrix."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise InputError("matrix rows have mixed lengths")
        else:
            raise InputError("matrix must have at least one row")
        self.rows = rows
        self.ncols = len(rows[0])

    def rank(self, subset=None) -> int:
        if subset is None:
            subset = range(self.ncols)
        cols = sorted(set(subset))
        if not all(0 <= c < self.ncols for c in cols):
            raise InputError("subset out of range")
        return len(_rref_int([[row[c] for c in cols] for row in self.rows]))


# ---------------------------------------------------------------------------
# Crapo beta invariant


def _beta(rows, memo):
    """Beta of the column matroid of a canonical integer RREF.

    Rank 1 and rank 2 are answered in closed form (`_beta_rank2`), before
    the memo.  Above that, a coloop is the pivot of a row with no other
    nonzero entry.  Without loops, the pivot e of the first row with two
    nonzero entries is thus the first element that is neither, and
    beta(M) = beta(M - e) + beta(M / e).  Contracting e drops its row and
    column; deleting it re-pivots its row by cross-multiplication.
    """
    if len(rows) < 2:
        # rank 0: every element is a loop; rank 1: U(1, n), beta 1, unless
        # a zero entry (a loop) makes it 0
        return int(bool(rows) and 0 not in rows[0])
    if len(rows) == 2:
        return _beta_rank2(rows)
    hit = memo.get(rows)
    if hit is not None:
        return hit
    i = next((i for i, row in enumerate(rows) if row.count(0) < len(row) - 1), None)
    value = 0  # a loop, or free of rank >= 3
    if i is not None and all(map(any, zip(*rows))):
        e = _lead(rows[i])
        contracted = [row[:e] + row[e + 1:] for row in rows]
        prow = _primitive(contracted.pop(i))
        c = _lead(prow)
        deleted = [_eliminate(row, prow, c) for row in contracted]
        deleted.insert(sum(_lead(row) < c for row in deleted), prow)
        value = _beta(tuple(deleted), memo) + _beta(tuple(contracted), memo)
    memo[rows] = value
    return value


def _beta_rank2(rows):
    """Beta of a rank-2 matroid given by two integer rows: 0 with a loop,
    else the number of parallel classes minus 2.  Adding an element
    parallel to another leaves beta unchanged (its contraction has a
    loop), beta(U(2, m)) = m - 2, and two classes are a direct sum, beta 0.
    A column's class is its primitive form, first nonzero entry positive."""
    classes = set()
    for a, b in zip(*rows):
        g = gcd(a, b)
        if not g:
            return 0
        if a < 0 or (not a and b < 0):
            g = -g
        classes.add((a // g, b // g))
    return len(classes) - 2


def beta(m: LinearMatroid) -> int:
    """Crapo beta invariant; 0 when a loop is present (with more than one
    element), 1 for a single coloop."""
    if m.ncols == 0:
        raise InputError("beta needs a nonempty ground set")
    return _beta(_rref_int(m.rows), {})


def beta_whitney(m: LinearMatroid) -> int:
    """Brute-force beta via the signed Whitney rank sum (test oracle)."""
    from itertools import combinations

    n = m.ncols
    r = m.rank()
    total = 0
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            total += (-1) ** size * m.rank(sub)
    return (-1) ** r * total


# ---------------------------------------------------------------------------
# Euler characteristics


def signed_euler_char(z_rows, *, memo=None) -> int:
    """(-1)^k times the Euler characteristic of the arrangement complement
    with coefficient matrix z (k+1 rows); equals beta of [I | z].

    memo, when given, is a beta memo dict shared with other calls, so a
    caller evaluating many points of one family (`euler_disc`,
    `generic_euler_char`) reuses the minors they have in common.
    """
    if not z_rows:
        raise InputError("matrix must have at least one row")
    n = len(z_rows[0])
    if any(len(row) != n for row in z_rows):
        raise InputError("matrix rows have mixed lengths")
    k = len(z_rows)
    full = [[int(i == j) for j in range(k)] + [Fraction(x) for x in row]
            for i, row in enumerate(z_rows)]
    return _beta(_rref_int(full), {} if memo is None else memo)


def generic_euler_char(family, trials: int = 3, seed: int = 0, retry_budget: int = 200) -> int:
    """Signed Euler characteristic at generic parameters of a family.

    Samples random rational parameter points, rejects any point where an
    identically-nonzero minor of the coefficient block vanishes, and checks
    that all accepted samples agree.  The family must expose param_names,
    z_at(values) and all_minors().
    """
    if trials < 2:
        raise InputError("need at least 2 trials")
    rng = random.Random(seed)
    minors = list(dict.fromkeys(family.all_minors()))  # each distinct minor once
    memo = {}
    values = []
    for _ in range(trials):
        for _ in range(retry_budget):
            point = {
                name: Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
                for name in family.param_names
            }
            if all(m.eval(point) != 0 for m in minors):
                values.append(signed_euler_char(family.z_at(point), memo=memo))
                break
        else:
            raise HypothesisError(
                "could not sample a parameter point off the discriminant; "
                "the family may lie inside its own discriminant"
            )
    if len(set(values)) != 1:
        raise HypothesisError(
            f"Euler characteristic not stable across samples: {sorted(set(values))}"
        )
    return values[0]
