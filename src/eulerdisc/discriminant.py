"""Principal A-determinants of sparse arrangements and Euler discriminants.

Two pipelines: a closed-form product of minors with volume exponents for
a sparse coefficient pattern, and a reduced discriminant with
multiplicities from Euler characteristic drops for a parametrized
coefficient family.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import List, Mapping, Optional, Sequence, Tuple

from .errors import HypothesisError, InputError
from .graphs import PatternGraph, condition_star, induced, is_connected
from .lattice import edge_config, lattice_normalize, normalized_volume, subdiagram_volume
from .matroid import generic_euler_char, signed_euler_char
from .symcore import (
    FactoredPolynomial,
    MultiPoly,
    VarTable,
    canonical,
    coprime_basis,
    eval_mod_p,
    minors,
    parse,
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
    d, _ = lattice_normalize(c)
    return e.total_degree() == (d + 1) * normalized_volume(c)


# ---------------------------------------------------------------------------
# Parametrized families


class ParamFamily:
    """Coefficient block of an arrangement family, with polynomial entries.

    The implicit full matrix is the identity prefixed to `entries`; only
    the entries vary with the parameters.
    """

    __slots__ = ("k", "params", "entries", "_minors")

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
        self._minors = None

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def param_names(self):
        return self.params.names

    @classmethod
    def from_strings(cls, k: int, param_names, rows) -> "ParamFamily":
        vt = VarTable(param_names)
        entries = [[parse(str(s), vt) for s in row] for row in rows]
        return cls(k, vt, entries)

    def z_at(self, point):
        """Numeric coefficient block at a parameter point (name -> value)."""
        return [
            [Fraction(p.eval(point)) for p in row] for row in self.entries
        ]

    def all_minors(self):
        """Minors det(z_{I,J}) of the block for all |I| = |J| >= 1, by size,
        then I, then J, with the identically-zero ones dropped; cached.
        One `symcore.minors` expands each over the minors one size smaller."""
        if self._minors is None:
            minor = minors(self.entries)
            out = []
            nr, nc = self.k + 1, self.ncols
            for size in range(1, min(nr, nc) + 1):
                for I in combinations(range(nr), size):
                    for J in combinations(range(nc), size):
                        m = minor(I, J)
                        if not m.is_zero:
                            out.append(m)
            self._minors = out
        return self._minors


class DiscriminantReport:
    """Result of a discriminant computation with multiplicities."""

    __slots__ = ("reduced", "with_multiplicity", "chi_star", "per_factor")

    def __init__(self, reduced, with_multiplicity, chi_star, per_factor):
        self.reduced = reduced
        self.with_multiplicity = with_multiplicity
        self.chi_star = chi_star
        # (factor, exponent or "unknown", witness dict or None, flags tuple)
        self.per_factor = tuple(per_factor)
        if reduced.factor_set() != with_multiplicity.factor_set():
            raise ValueError("reduced and exponent forms disagree on factors")

    @property
    def has_unknown(self) -> bool:
        return any(e == "unknown" for _, e, _, _ in self.per_factor)

    def to_dict(self):
        return {
            "chi_star": self.chi_star,
            "has_unknown": self.has_unknown,
            "degree": self.with_multiplicity.total_degree(),
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
        degree = self.with_multiplicity.total_degree()
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
                  budget: int = 600, *, screens=None):
    """A rational point with delta = 0 and every avoid polynomial nonzero.

    Tries solving for a variable of degree 1 first, then a rational-root
    search on random univariate slices.  Returns a name -> Fraction map, or
    None when the budget is exhausted.  screens, when given, holds the
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

    for attempt in range(budget):
        v = search_vars[attempt % len(search_vars)]
        den = 1 if attempt < 2 * len(search_vars) else rng.randint(1, 3)
        values = {
            name: Fraction(rng.randint(-box, box), den)
            for name in names
            if name != v
        }
        # collect delta as a univariate in v
        vi = delta.vars.index(v)
        coeffs = {}
        for e, c in delta.terms.items():
            rest = 1
            for idx, p in enumerate(e):
                if idx != vi and p:
                    rest *= values[names[idx]] ** p
            coeffs[e[vi]] = coeffs.get(e[vi], Fraction(0)) + c * rest
        top = max(coeffs)
        poly = [coeffs.get(i, Fraction(0)) for i in range(top + 1)]
        if all(c == 0 for c in poly):
            candidates = [Fraction(rng.randint(-box, box))]
        elif len(poly) >= 2 and poly[1] != 0 and all(c == 0 for c in poly[2:]):
            candidates = [-poly[0] / poly[1]]
        else:
            candidates = _rational_roots(poly)
        for root in candidates:
            point = dict(values)
            point[v] = root
            if delta.eval(point) != 0:
                continue
            if _avoids_all(avoid, screens, point, names):
                return point
    return None


# ---------------------------------------------------------------------------
# Euler discriminant


def euler_disc(f: ParamFamily, seed: int = 0, trials: int = 3,
               numerator_vars: Sequence[str] = (),
               find_witnesses: bool = True, *,
               symmetries: Sequence[Mapping[str, str]] = ()) -> DiscriminantReport:
    """Reduced Euler discriminant of a family with multiplicities.

    The reduced discriminant is the product of the pairwise-coprime factors
    of the not-identically-zero minors of the coefficient block.  Each
    factor's multiplicity is the drop of the signed Euler characteristic at
    a rational witness on that factor's vanishing locus; factors without a
    usable witness report "unknown".  Factor equal to a variable listed in
    numerator_vars are flagged as normalized away by the integrand
    numerator.

    symmetries, when given, are renamings of the parameters (name -> name,
    a permutation) under which the block is the same up to permuting its
    rows and columns, such as those a graph automorphism induces.  The
    matroid of [I | z] is then relabelled, and beta is a matroid invariant
    (Crapo, J. Combin. Theory 1967), so the image s(delta) of a factor has
    delta's exponent and s(w) is a witness for it.  The witness search and
    beta then run once per orbit, on its first factor.  A renaming that
    does not map the factor set onto itself is not used.
    """
    minors = list(dict.fromkeys(f.all_minors()))  # each distinct minor once
    if not minors:
        raise HypothesisError("every minor of the family vanishes identically")
    chi_star = generic_euler_char(f, trials=trials, seed=seed)
    if chi_star <= 0:
        raise HypothesisError("generic Euler characteristic is zero")
    factors = coprime_basis(minors)
    images = _factor_images(factors, f.params, symmetries)
    memo = {}  # beta memo shared by every witness point of this call
    screens = [residue_terms(q) for q in factors]
    seeds = (seed, seed + 1000) if find_witnesses else ()
    found = {}  # factor index -> (exponent, witness) from an orbit's first factor
    per_factor = []
    pairs = []
    for idx, delta in enumerate(factors):
        if idx in found:
            exponent, witness = found[idx]
        else:
            exponent, witness = _chi_drop(f, chi_star, factors, screens, idx, seeds, memo)
            if exponent != "unknown":
                for rename, image in images:
                    moved = {rename[name]: v for name, v in witness.items()}
                    found.setdefault(image[idx], (exponent, moved))
        flags = []
        if exponent == "unknown":
            flags.append(
                "no-rational-witness" if find_witnesses else "witness-search-disabled"
            )
        if len(delta.terms) == 1 and delta.total_degree() == 1:
            var_idx = next(iter(delta.variables_present()))
            if f.params.names[var_idx] in numerator_vars:
                flags.append("numerator-normalized")
        per_factor.append((delta, exponent, witness, tuple(flags)))
        pairs.append((delta, exponent if isinstance(exponent, int) else 1))
    reduced = FactoredPolynomial([(p, 1) for p in factors])
    with_mult = FactoredPolynomial(pairs)
    return DiscriminantReport(reduced, with_mult, chi_star, per_factor)


def _chi_drop(f, chi_star, factors, screens, idx, seeds, memo):
    """(exponent, witness) of factors[idx]: the chi drop where the witness
    searches at seeds agree, else ("unknown", the witness found, if any)."""
    delta = factors[idx]
    others = factors[:idx] + factors[idx + 1 :]
    others_screens = screens[:idx] + screens[idx + 1 :]
    drops = []
    witness = None
    for wseed in seeds:
        w = witness_point(delta, avoid=others, seed=wseed, screens=others_screens)
        if w is None:
            continue
        chi_w = signed_euler_char(f.z_at(w), memo=memo)
        drops.append(chi_star - chi_w)
        if witness is None:
            witness = w
    if drops and len(set(drops)) == 1 and drops[0] >= 1:
        return drops[0], witness
    return "unknown", witness


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
