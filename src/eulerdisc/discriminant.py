"""Principal A-determinants of sparse arrangements and Euler discriminants.

Two pipelines: a closed-form product of minors with volume exponents for
a sparse coefficient pattern, and a reduced discriminant with
multiplicities from Euler characteristic drops for a parametrized
coefficient family.  Each imports the lattice or matroid code it runs in
its own body, so neither pipeline loads the other's.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import List, Mapping, Optional, Sequence, Tuple

from .errors import HypothesisError, InputError
from .graphs import PatternGraph, condition_star, induced, is_connected
from .symcore import (
    FactoredPolynomial,
    MultiPoly,
    VarTable,
    _uni_coeffs,
    canonical,
    coprime_basis,
    eval_mod_p,
    minors,
    residue_terms,
    residues,
)

__all__ = [
    "ParamFamily",
    "DiscriminantReport",
    "pad_sparse",
    "pad_dense",
    "euler_disc",
    "witness_point",
    "degree_check",
]


# ---------------------------------------------------------------------------
# Principal A-determinant of a sparse arrangement


def pattern_vars(g: PatternGraph) -> VarTable:
    """One variable per edge of the pattern, in edge order."""
    return VarTable(g.var_name(i, j) for i, j in g.edge_order())


def _symbolic_block(g: PatternGraph, vt: VarTable):
    """The coefficient block as a matrix of variables and zeros."""
    rows = []
    for i in g.left:
        row = []
        for j in g.right:
            if (i, j) in g.edges:
                row.append(MultiPoly.var(vt, g.var_name(i, j)))
            else:
                row.append(MultiPoly.zero(vt))
        rows.append(row)
    return rows


def pad_sparse(g: PatternGraph) -> FactoredPolynomial:
    """Principal A-determinant of the arrangement with coefficient pattern g.

    Product over pairs (I, J) of equal-size row and column subsets whose
    induced subgraph is connected and satisfies the expansion condition, of
    the minor det(z_{I,J}) raised to its subdiagram volume.  The minors
    come from one `symcore.minors` of the symbolic block, so each is
    expanded over the smaller minors it contains.
    """
    from .lattice import subdiagram_volume

    if not is_connected(g):
        raise HypothesisError("pattern graph must be connected")
    vt = pattern_vars(g)
    minor = minors(_symbolic_block(g, vt))
    jcols = {j: c for c, j in enumerate(g.right)}
    merged = {}
    for size in range(1, min(g.left_size, g.right_size) + 1):
        for I in combinations(g.left, size):
            for J in combinations(g.right, size):
                h = induced(g, I, J)
                if not is_connected(h):
                    continue
                if not condition_star(h):
                    continue
                exponent = subdiagram_volume(g, h)
                if exponent == 0:
                    continue
                factor = canonical(minor(I, tuple(jcols[j] for j in J)))[0]
                merged[factor] = merged.get(factor, 0) + exponent
    return FactoredPolynomial(merged.items())


def pad_dense(k: int, n: int) -> FactoredPolynomial:
    """Principal A-determinant for a fully generic coefficient matrix
    ((k+1) x (n-k), no structural zeros)."""
    if not (n > k >= 0):
        raise InputError("need n > k >= 0")
    left = k + 1
    right = n - k
    edges = [(i, left + j) for i in range(left) for j in range(right)]
    return pad_sparse(PatternGraph(left, right, edges))


def degree_check(e: FactoredPolynomial, c) -> bool:
    """Degree identity: deg E_A = (dim + 1) * normalized volume."""
    from .lattice import lattice_normalize, normalized_volume

    d, _ = lattice_normalize(c)
    return e.total_degree() == (d + 1) * normalized_volume(c)


# ---------------------------------------------------------------------------
# Parametrized families


class ParamFamily:
    """Coefficient block of an arrangement family, with polynomial entries.

    The implicit full matrix is the identity prefixed to `entries`; only
    the entries vary with the parameters.
    """

    __slots__ = ("k", "params", "entries")

    def __init__(self, k: int, params: VarTable, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != k + 1:
            raise InputError(f"expected {k + 1} rows, got {len(entries)}")
        ncols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != ncols:
                raise InputError("entry rows have mixed lengths")
            for p in row:
                if not isinstance(p, MultiPoly) or p.vars != params:
                    raise InputError("entries must share the params VarTable")
        if ncols == 0:
            raise InputError("family needs at least one column")
        self.k = k
        self.params = params
        self.entries = entries

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def z_at(self, point):
        """Numeric coefficient block at a parameter point (name -> value)."""
        return [
            [Fraction(p.eval(point)) for p in row] for row in self.entries
        ]

    def all_minors(self):
        """Distinct minors det(z_{I,J}) of the block over all |I| = |J| >= 1,
        each once, in the order of its first (size, I, J), with the
        identically-zero ones dropped.

        A block with at most one non-constant row, such as every cosmo
        family, goes through `_one_row_minors`.  Any other block goes
        through one `symcore.minors`, which expands each minor over the
        minors one size smaller."""
        symbolic = [i for i, row in enumerate(self.entries)
                    if not all(p.is_constant for p in row)]
        if len(symbolic) <= 1:
            return _one_row_minors(self.entries, symbolic[0] if symbolic else 0)
        minor = minors(self.entries)
        out = {}
        nr, nc = self.k + 1, self.ncols
        for size in range(1, min(nr, nc) + 1):
            for I in combinations(range(nr), size):
                for J in combinations(range(nc), size):
                    m = minor(I, J)
                    if not m.is_zero:
                        out[m] = None
        return list(out)


def _one_row_minors(entries, r):
    """`ParamFamily.all_minors` of a block whose rows other than r are
    integer constants.

    Laplace along row r: with r at position p of the rows I, the minor on
    I and the columns J is the sum over k of (-1)^(p + k) L[J[k]] times
    det(A[I - r, J - J[k]]), where A is the integer rows and L row r.  So
    it is an integer vector over the monomials of row r, and a minor
    without row r is an integer, the vector on the monomial 1.  The
    integer minors of A are kept for two sizes at a time, each expanded
    along its first row.  The vectors are compared as tuples, and only the
    distinct ones become a MultiPoly.
    """
    vt = entries[r][0].vars
    nr, nc = len(entries), len(entries[0])
    one = (0,) * len(vt)
    monomials = sorted({one}.union(*(p.terms for p in entries[r])))
    at = {e: i for i, e in enumerate(monomials)}
    unit, width = at[one], len(monomials)
    row_r = [[(at[e], c) for e, c in p.terms.items()] for p in entries[r]]
    A = {i: [p.constant_value() for p in row] for i, row in enumerate(entries) if i != r}
    bit = [1 << j for j in range(nc)]

    def columns(size):
        """Each column tuple J of this size, with its mask."""
        return zip(combinations(range(nc), size), map(sum, combinations(bit, size)))

    # (row mask << nc | column mask) -> det of A on those rows and columns,
    # nonzero ones only; prev holds the minors one size smaller than cur
    prev = {0: 1}
    out = {}
    for size in range(1, min(nr, nc) + 1):
        cur = {}
        for I in combinations(range(nr), size):
            if r in I:
                p = I.index(r)
                rest = sum(1 << i for i in I if i != r) << nc
                for J, jmask in columns(size):
                    v = [0] * width
                    for k, j in enumerate(J):
                        d = prev.get(rest | jmask ^ bit[j])
                        if d:
                            if (p + k) & 1:
                                d = -d
                            for t, c in row_r[j]:
                                v[t] += d * c
                    if any(v):
                        out.setdefault(tuple(v))
                continue
            top = A[I[0]]
            rest = sum(1 << i for i in I[1:]) << nc
            here = rest | 1 << I[0] << nc
            for J, jmask in columns(size):
                d = 0
                for k, j in enumerate(J):
                    a = top[j]
                    if a:
                        sub = prev.get(rest | jmask ^ bit[j])
                        if sub:
                            d += -a * sub if k & 1 else a * sub
                if d:
                    cur[here | jmask] = d
                    v = [0] * width
                    v[unit] = d
                    out.setdefault(tuple(v))
        prev = cur
    return [
        MultiPoly._raw(vt, {monomials[t]: c for t, c in enumerate(v) if c})
        for v in out
    ]


class DiscriminantReport:
    """Result of a discriminant computation with multiplicities."""

    __slots__ = ("chi_star", "per_factor")

    def __init__(self, chi_star, per_factor):
        self.chi_star = chi_star
        # (factor, exponent or "unknown", witness dict or None, flags tuple)
        # for each coprime factor, in basis order
        self.per_factor = tuple(per_factor)

    def _counted(self):
        """(factor, exponent) pairs, an unknown exponent counted as 1."""
        return [(f, e if isinstance(e, int) else 1) for f, e, _, _ in self.per_factor]

    def _degree(self) -> int:
        return sum(f.total_degree() * e for f, e in self._counted())

    @property
    def has_unknown(self) -> bool:
        return any(e == "unknown" for _, e, _, _ in self.per_factor)

    def to_dict(self):
        return {
            "chi_star": self.chi_star,
            "has_unknown": self.has_unknown,
            "degree": self._degree(),
            "factors": [
                {
                    "poly": str(f),
                    "exponent": e,
                    "witness": (
                        {k: str(v) for k, v in sorted(w.items())} if w else None
                    ),
                    "flags": list(flags),
                }
                for f, e, w, flags in self.per_factor
            ],
        }

    def __str__(self):
        lines = [f"chi_star = {self.chi_star}"]
        for f, e, w, flags in self.per_factor:
            note = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(f"  ({f})^{e}{note}")
        degree = self._degree()
        unknown = sum(e == "unknown" for _, e, _, _ in self.per_factor)
        if unknown:
            # each unknown exponent is at least 1, and counted as 1
            s = "" if unknown == 1 else "s"
            lines.append(f"degree >= {degree}  [{unknown} unknown exponent{s} counted as 1]")
        else:
            lines.append(f"degree = {degree}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Witness points


def _rational_roots(coeffs):
    """Rational roots of a univariate polynomial given as Fraction
    coefficients in increasing degree order."""
    # clear denominators to integers
    mult = 1
    for c in coeffs:
        mult = mult * c.denominator // gcd(mult, c.denominator)
    ints = [int(c * mult) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []  # identically zero: any value works, handled by caller
    low = next(i for i, c in enumerate(ints) if c != 0)
    roots = set()
    if low > 0:
        roots.add(Fraction(0))
    ints = ints[low:]
    if len(ints) == 1:
        return sorted(roots)
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                if d * d != n:
                    out.append(n // d)
            d += 1
        return out

    # p/q in lowest terms is a root iff sum c_i p^i q^(n-i) = 0; a pair
    # with a common divisor is skipped, since its reduced pair is also tried
    for p in divisors(a0):
        for q in divisors(an):
            if gcd(p, q) != 1:
                continue
            for s in (p, -p):
                acc, qk = ints[-1], 1
                for c in reversed(ints[:-1]):
                    qk *= q
                    acc = acc * s + c * qk
                if acc == 0:
                    roots.add(Fraction(s, q))
    return sorted(roots)


def _avoids_all(avoid, screens, point, names) -> bool:
    """True when no avoid polynomial vanishes at point.  A nonzero residue
    mod P is the only shortcut to "nonzero"; a zero residue is checked by
    exact evaluation."""
    r = residues(point, names)
    for a, terms in zip(avoid, screens):
        if r is not None and eval_mod_p(terms, r):
            continue
        if a.eval(point) == 0:
            return False
    return True


def witness_point(delta: MultiPoly, avoid: Sequence[MultiPoly] = (), seed: int = 0,
                  *, screens=None):
    """A rational point with delta = 0 and every avoid polynomial nonzero.

    Tries solving for a variable of degree 1 first, then a rational-root
    search on random univariate slices.  Returns a name -> Fraction map, or
    None when 600 attempts find none.  A candidate root at which delta does
    not vanish is an internal fault: it raises ArithmeticError, naming
    delta and the point.  screens, when given, holds the
    `residue_terms` of each avoid polynomial, so a caller that searches
    many witnesses against one set builds them once.

    Coordinates are drawn from [-B, B] with B the larger of 12 and the
    summed total degree of avoid.  An avoid polynomial that does not
    vanish on delta = 0 vanishes at a uniform draw of the free
    coordinates with probability at most its degree / (2B + 1)
    (Schwartz, JACM 1980).  By the union bound an attempt for a linear
    delta then clears the whole set with probability above 1/2.
    """
    if delta.is_constant:
        raise InputError("witness needs a nonconstant polynomial")
    box = max(12, sum(a.total_degree() for a in avoid))
    rng = random.Random(seed)
    names = delta.vars.names
    present = sorted(delta.variables_present())
    linear_vars = [names[i] for i in present if delta.degree_in(names[i]) == 1]
    search_vars = linear_vars or [names[i] for i in present]
    if screens is None:
        screens = [residue_terms(a) for a in avoid]
    # delta as a univariate in each search variable: degree -> coefficient
    slices = {v: _uni_coeffs(delta, delta.vars.index(v)) for v in search_vars}

    for attempt in range(600):
        v = search_vars[attempt % len(search_vars)]
        den = 1 if attempt < 2 * len(search_vars) else rng.randint(1, 3)
        values = {
            name: Fraction(rng.randint(-box, box), den)
            for name in names
            if name != v
        }
        values[v] = 0  # eval reads every name; no coefficient involves v
        coeffs = slices[v]
        poly = [
            Fraction(coeffs[i].eval(values)) if i in coeffs else Fraction(0)
            for i in range(max(coeffs) + 1)
        ]
        if all(c == 0 for c in poly):
            candidates = [Fraction(rng.randint(-box, box))]
        elif len(poly) >= 2 and poly[1] != 0 and all(c == 0 for c in poly[2:]):
            candidates = [-poly[0] / poly[1]]
        else:
            candidates = _rational_roots(poly)
        for root in candidates:
            point = dict(values)
            point[v] = root
            # each candidate is a root of delta's slice, so delta vanishes
            if delta.eval(point) != 0:
                coords = ", ".join(f"{k}={x}" for k, x in sorted(point.items()))
                raise ArithmeticError(f"witness candidate for {delta} is not a root: {coords}")
            if _avoids_all(avoid, screens, point, names):
                return point
    return None


# ---------------------------------------------------------------------------
# Euler discriminant


def euler_disc(f: ParamFamily, seed: int = 0, find_witnesses: bool = True, *,
               symmetries: Sequence[Mapping[str, str]] = ()) -> DiscriminantReport:
    """Reduced Euler discriminant of a family with multiplicities.

    The reduced discriminant is the product of the pairwise-coprime factors
    of the not-identically-zero minors of the coefficient block.  Each
    factor's multiplicity is the drop of the signed Euler characteristic at
    a rational witness on that factor's vanishing locus, read at the witness
    one search at seed finds; factors it finds none for report "unknown",
    and a drop below 1 raises ArithmeticError.

    chi* is beta at the first of at most 200 points drawn at seed where no
    basis factor vanishes.  Every nonzero minor is a constant times a
    product of basis factors, each dividing some minor, so the minors that
    vanish are the same at all such points, and at all witnesses of delta
    (the minors delta divides).  So is the matroid of [I | z], whose bases
    are read off its maximal minors: up to sign, 1 and the minors of z.

    symmetries, when given, are renamings of the parameters (name -> name,
    a permutation) under which the block is the same up to permuting its
    rows and columns, such as those a graph automorphism induces.  The
    matroid of [I | z] is then relabelled, and beta is a matroid invariant
    (Crapo, J. Combin. Theory 1967), so the image s(delta) of a factor has
    delta's exponent and s(w) is a witness for it.  The witness search and
    beta then run once per orbit, on its first factor.  A renaming that
    does not map the factor set onto itself is not used.
    """
    from .matroid import signed_euler_char

    minors = f.all_minors()
    if not minors:
        raise HypothesisError("every minor of the family vanishes identically")
    factors = coprime_basis(minors)
    screens = [residue_terms(q) for q in factors]
    names = f.params.names
    rng = random.Random(seed)
    for _ in range(200):
        point = {name: Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4)) for name in names}
        if _avoids_all(factors, screens, point, names):
            break
    else:
        raise HypothesisError(
            "could not sample a parameter point off the discriminant; "
            "the family may lie inside its own discriminant"
        )
    chi_star = signed_euler_char(f.z_at(point))
    if chi_star <= 0:
        raise HypothesisError("generic Euler characteristic is zero")
    images = _factor_images(factors, f.params, symmetries)
    memo = {}  # beta memo shared by every witness point of this call
    found = {}  # factor index -> (exponent, witness) from an orbit's first factor
    per_factor = []
    for idx, delta in enumerate(factors):
        if idx in found:
            exponent, witness = found[idx]
        elif not find_witnesses:
            exponent, witness = "unknown", None
        else:
            exponent, witness = _chi_drop(f, chi_star, factors, screens, idx, seed, memo)
            if exponent != "unknown":
                for rename, image in images:
                    moved = {rename[name]: v for name, v in witness.items()}
                    found.setdefault(image[idx], (exponent, moved))
        flags = ()
        if exponent == "unknown":
            flags = ("no-rational-witness" if find_witnesses else "witness-search-disabled",)
        per_factor.append((delta, exponent, witness, flags))
    return DiscriminantReport(chi_star, per_factor)


def _chi_drop(f, chi_star, factors, screens, idx, seed, memo):
    """(exponent, witness) of factors[idx]: the chi drop at the witness the
    search at seed finds, and ("unknown", None) when it finds none.  A
    drop below 1 at a witness is an internal inconsistency: it raises
    ArithmeticError rather than being reported as "unknown"."""
    from .matroid import signed_euler_char

    delta = factors[idx]
    others = factors[:idx] + factors[idx + 1 :]
    w = witness_point(delta, avoid=others, seed=seed,
                      screens=screens[:idx] + screens[idx + 1 :])
    if w is None:
        return "unknown", None
    drop = chi_star - signed_euler_char(f.z_at(w), memo=memo)
    if drop < 1:
        point = ", ".join(f"{k}={v}" for k, v in sorted(w.items()))
        raise ArithmeticError(f"chi drop {drop} < 1 for factor {delta} at witness {point}")
    return drop, w


def _factor_images(factors, vt, symmetries):
    """(renaming, image) for each renaming of the variables vt that maps
    the factor set onto itself, where image[i] is the index of the factor
    that renaming factors[i] gives, up to sign and content."""
    where = {p: i for i, p in enumerate(factors)}
    out = []
    for rename in symmetries:
        rename = {name: rename.get(name, name) for name in vt.names}
        if sorted(rename.values()) != sorted(vt.names):
            raise InputError("a symmetry must permute the parameters")
        # exponent e of p becomes e' with e'[index of rename[x]] = e[index of x]
        source = [0] * len(vt)
        for name, target in rename.items():
            source[vt.index(target)] = vt.index(name)
        image = []
        for p in factors:
            q = MultiPoly._raw(vt, {tuple(e[i] for i in source): c for e, c in p.terms.items()})
            image.append(where.get(canonical(q)[0]))
        if None not in image:
            out.append((rename, image))
    return out
