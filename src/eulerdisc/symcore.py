"""Exact sparse multivariate polynomial arithmetic over the integers.

Polynomials are stored as a mapping from exponent vectors to nonzero
arbitrary-precision integer coefficients, relative to an ordered variable
table.  The monomial order is graded lexicographic by variable position;
it fixes the canonical printed form and every "leading" notion below.
"""

from __future__ import annotations

import heapq
import math
import random as _random
import re
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InputError

__all__ = [
    "VarTable",
    "MultiPoly",
    "FactoredPolynomial",
    "RationalFunction",
    "parse",
    "poly_gcd",
    "exact_div",
    "try_div",
    "canonical",
    "cancel_factors",
    "coprime_basis",
    "det",
    "minors",
]


class VarTable:
    """Ordered list of distinct variable names; position defines the order."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names in table")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({list(self.names)!r})"


def _grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: VarTable, terms: Mapping[tuple, int]):
        self.vars = vars
        nv = len(vars)
        clean = {}
        for e, c in terms.items():
            if c == 0:
                continue
            e = tuple(int(x) for x in e)
            if len(e) != nv or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for {nv} variables")
            clean[e] = int(c)
        self.terms = clean
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, vars: VarTable, terms: dict) -> "MultiPoly":
        """Internal constructor for terms already known to be clean
        (integer coefficients, nonzero, correctly sized exponent tuples)."""
        obj = cls.__new__(cls)
        obj.vars = vars
        obj.terms = terms
        obj._hash = None
        return obj

    @classmethod
    def zero(cls, vars: VarTable) -> "MultiPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: VarTable, c: int) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars): int(c)})

    @classmethod
    def var(cls, vars: VarTable, name: str) -> "MultiPoly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1})

    # -- basic queries --------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def variables_present(self):
        present = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    present.add(i)
        return present

    def leading_exponent(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_exponent()]

    def int_content(self) -> int:
        return math.gcd(*self.terms.values()) if self.terms else 0

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("operands use different variable tables")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.vars)
            return MultiPoly._raw(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        if len(self.terms) * len(other.terms) > 4096:
            return self._mul_packed(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly._raw(self.vars, out)

    def _mul_packed(self, other):
        """Product via single-integer exponent keys; avoids building and
        hashing an exponent tuple in the inner loop of large products."""
        import numpy as np

        nv = len(self.vars)
        ea = np.array(list(self.terms.keys()), dtype=np.int64).reshape(-1, nv)
        eb = np.array(list(other.terms.keys()), dtype=np.int64).reshape(-1, nv)
        maxd = ea.max(axis=0) + eb.max(axis=0)
        widths = [max(1, int(d).bit_length()) for d in maxd]
        shifts = [0] * nv
        for i in range(1, nv):
            shifts[i] = shifts[i - 1] + widths[i - 1]
        key_bits = sum(widths)
        amax = max(abs(c) for c in self.terms.values())
        bmax = max(abs(c) for c in other.terms.values())
        bound = amax * bmax * min(len(ea), len(eb))
        if key_bits < 63 and bound < (1 << 62):
            w = np.array([1 << s for s in shifts], dtype=np.int64)
            va = np.fromiter(self.terms.values(), dtype=np.int64, count=len(ea))
            vb = np.fromiter(other.terms.values(), dtype=np.int64, count=len(eb))
            keys = ((ea @ w)[:, None] + (eb @ w)[None, :]).ravel()
            vals = (va[:, None] * vb[None, :]).ravel()
            uniq, inv = np.unique(keys, return_inverse=True)
            acc = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(acc, inv, vals)
            nz = acc != 0
            uniq, acc = uniq[nz], acc[nz]
            sh = np.array(shifts, dtype=np.int64)
            mk = np.array([(1 << w_) - 1 for w_ in widths], dtype=np.int64)
            exps = (uniq[:, None] >> sh) & mk
            out = dict(zip(map(tuple, exps.tolist()), acc.tolist()))
            return MultiPoly._raw(self.vars, out)

        # coefficients or keys too large for int64: packed big-int dict loop
        def pack(e):
            k = 0
            for x, s in zip(e, shifts):
                k |= x << s
            return k

        a = [(pack(e), c) for e, c in self.terms.items()]
        b = [(pack(e), c) for e, c in other.terms.items()]
        conv = {}
        for k1, c1 in a:
            for k2, c2 in b:
                k = k1 + k2
                s = conv.get(k, 0) + c1 * c2
                if s:
                    conv[k] = s
                else:
                    del conv[k]
        masks = [(1 << w) - 1 for w in widths]
        out = {
            tuple((k >> s) & m for s, m in zip(shifts, masks)): c
            for k, c in conv.items()
        }
        return MultiPoly._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other)
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- evaluation and substitution ------------------------------------

    def eval(self, values: Mapping[str, int | Fraction]):
        """Evaluate at a point given as name -> number (int or Fraction)."""
        point = [values[name] for name in self.vars.names]
        total = 0
        for e, c in self.terms.items():
            m = c
            for v, p in zip(point, e):
                if p:
                    m *= v**p
            total += m
        return total

    def subs(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables (unmapped names map to themselves)."""
        vt = None
        for img in images.values():
            vt = img.vars
            break
        if vt is None:
            return self
        imgs = []
        for name in self.vars.names:
            if name in images:
                imgs.append(images[name])
            else:
                imgs.append(MultiPoly.var(vt, name))
        total = MultiPoly.zero(vt)
        for e, c in self.terms.items():
            m = MultiPoly.const(vt, c)
            for img, p in zip(imgs, e):
                if p:
                    m = m * img**p
            total = total + m
        return total

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, p in zip(self.vars.names, e):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            parts.append((c < 0, "*".join(factors)))
        neg, text = parts[0]
        out = ("-" if neg else "") + text
        for neg, text in parts[1:]:
            out += (" - " if neg else " + ") + text
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


# ---------------------------------------------------------------------------
# Parser


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos and not text[pos:].strip():
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3) is not None:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
        if pos == m.start() and text[pos:].strip():
            raise InputError(f"unexpected character {text[pos]!r}", pos)
    rest = text[pos:].strip()
    if rest:
        raise InputError(f"unexpected character {rest[0]!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, vars):
        self.tokens = _tokenize(text)
        self.vars = vars
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise InputError(f"expected {op!r}", pos)

    def parse_expr(self):
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        result = self.parse_term() * sign
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                term = self.parse_term()
                result = result + term if val == "+" else result - term
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self):
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise InputError("exponent must be a non-negative integer literal", pos)
            return base**val
        return base

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            return MultiPoly.const(self.vars, val)
        if kind == "name":
            if val not in self.vars:
                raise InputError(f"unknown variable {val!r}", pos)
            return MultiPoly.var(self.vars, val)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.parse_factor()
        raise InputError("expected a number, variable or parenthesis", pos)


def parse(text: str, vars: VarTable) -> MultiPoly:
    """Parse an expression built from +, -, *, ^, parentheses and integers."""
    p = _Parser(text, vars)
    result = p.parse_expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise InputError("trailing input", pos)
    return result


# ---------------------------------------------------------------------------
# Division, gcd, canonical form


def try_div(a: MultiPoly, b: MultiPoly):
    """Return a / b when the division is exact, else None."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return MultiPoly.zero(a.vars)
    lead_b = b.leading_exponent()
    cb = b.terms[lead_b]
    rem = dict(a.terms)
    quot = {}
    # min-heap keyed to pop remaining terms in descending grlex order;
    # stale entries are skipped when no longer present in rem
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapq.heapify(heap)
    while rem:
        while heap:
            _, _, lead_r = heapq.heappop(heap)
            if lead_r in rem:
                break
        else:
            break
        e = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(x < 0 for x in e):
            return None
        cr = rem[lead_r]
        if cr % cb:
            return None
        q = cr // cb
        quot[e] = q
        for eb, coeff in b.terms.items():
            ee = tuple(x + y for x, y in zip(e, eb))
            s = rem.get(ee, 0) - q * coeff
            if s:
                if ee not in rem:
                    heapq.heappush(heap, (-sum(ee), tuple(-x for x in ee), ee))
                rem[ee] = s
            else:
                rem.pop(ee, None)
    if rem:
        return None
    return MultiPoly._raw(a.vars, quot)


_PRECHECK_PRIME = 2147483647


def nondivisibility_certificates(a: MultiPoly, bs) -> list:
    """For each linear polynomial in bs, True when a is provably not
    divisible by it.

    Evaluates a modulo a 31-bit prime at random points of each hyperplane
    {b = 0}; a nonzero value certifies non-divisibility over the rationals.
    False means no certificate, not divisibility.
    """
    import numpy as np

    P = _PRECHECK_PRIME
    out = [False] * len(bs)
    if a.is_zero or not bs:
        return out
    nv = len(a.vars)
    terms = list(a.terms.items())
    E = np.array([e for e, _ in terms], dtype=np.int64)
    C = np.array([c % P for _, c in terms], dtype=np.int64)
    maxdeg = E.max(axis=0)
    rng = _random.Random(2)
    for bi, b in enumerate(bs):
        if b.is_zero or b.total_degree() != 1:
            continue
        lead = b.leading_exponent()
        (i,) = [k for k, x in enumerate(lead) if x]
        for _ in range(2):
            vals = [rng.randint(1, P - 2) for _ in range(nv)]
            rest = 0
            for e, c in b.terms.items():
                if e == lead:
                    continue
                m = c % P
                for k, x in enumerate(e):
                    if x:
                        m = m * pow(vals[k], x, P) % P
                rest = (rest + m) % P
            vals[i] = (-rest) * pow(b.terms[lead], P - 2, P) % P
            acc = C.copy()
            for k in range(nv):
                md = int(maxdeg[k])
                if md == 0:
                    continue
                row = [1] * (md + 1)
                for d in range(1, md + 1):
                    row[d] = row[d - 1] * vals[k] % P
                acc = acc * np.asarray(row, dtype=np.int64)[E[:, k]] % P
            if int(acc.sum()) % P:
                out[bi] = True
                break
    return out


def cancel_factors(num: MultiPoly, factors):
    """Divide num by every power of a listed factor that divides it exactly.

    factors is a sequence of (polynomial, positive exponent) pairs.
    Returns (quotient, the pairs left with a positive exponent, in input
    order).  A modular certificate rules out most non-divisibilities
    without attempting the division; the certificates of the later factors
    are redrawn whenever the numerator changes.
    """
    items = list(factors)
    out = []
    certs = nondivisibility_certificates(num, [p for p, _ in items])
    i = 0
    while i < len(items):
        p, e = items[i]
        changed = False
        while e > 0 and not certs[i]:
            q = try_div(num, p)
            if q is None:
                break
            num = q
            e -= 1
            changed = True
        if e > 0:
            out.append((p, e))
        i += 1
        if changed and i < len(items):
            certs[i:] = nondivisibility_certificates(num, [q for q, _ in items[i:]])
    return num, out


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    q = try_div(a, b)
    if q is None:
        raise ValueError("inexact polynomial division")
    return q


def canonical(p: MultiPoly):
    """Strip content and sign: return (primitive poly with positive lead, sign, content)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no canonical form")
    content = p.int_content()
    sign = 1 if p.leading_coeff() > 0 else -1
    d = sign * content
    poly = MultiPoly._raw(p.vars, {e: c // d for e, c in p.terms.items()})
    return poly, sign, content


def _uni_coeffs(p: MultiPoly, vi: int):
    """View p as univariate in variable vi: degree -> coefficient MultiPoly."""
    out = {}
    for e, c in p.terms.items():
        d = e[vi]
        e0 = e[:vi] + (0,) + e[vi + 1 :]
        coeff = out.setdefault(d, {})
        coeff[e0] = coeff.get(e0, 0) + c
    return {d: MultiPoly(p.vars, t) for d, t in out.items() if any(t.values())}


def _from_uni(coeffs, vi: int, vars: VarTable):
    terms = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            e2 = e[:vi] + (d,) + e[vi + 1 :]
            terms[e2] = terms.get(e2, 0) + c
    return MultiPoly(vars, terms)


def _uni_degree(coeffs):
    return max(coeffs) if coeffs else -1


def _pseudo_rem(u, v, vi, vars):
    """Pseudo-remainder of u by v, both as univariate coefficient dicts in vi."""
    du, dv = _uni_degree(u), _uni_degree(v)
    lv = v[dv]
    r = dict(u)
    while True:
        dr = _uni_degree(r)
        if dr < dv or dr < 0:
            return r
        lr = r[dr]
        # r <- lv * r - lr * x^(dr-dv) * v
        new = {}
        for d, c in r.items():
            new[d] = c * lv
        for d, c in v.items():
            shifted = d + dr - dv
            new[shifted] = new.get(shifted, MultiPoly.zero(vars)) - lr * c
        r = {d: c for d, c in new.items() if not c.is_zero}


def _content_of_coeffs(coeffs):
    polys = list(coeffs.values())
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.is_constant and abs(g.constant_value()) == 1:
            break
    return canonical(g)[0]


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd over the integers with positive leading coefficient.

    Includes the shared integer content; gcd(a, 0) is a up to sign.
    Raises ArithmeticError if the pseudo-remainder sequence yields a
    result that does not divide both operands.
    """
    if a.vars != b.vars:
        raise ValueError("operands use different variable tables")
    if a.is_zero and b.is_zero:
        return MultiPoly.zero(a.vars)
    if a.is_zero:
        return b if b.leading_coeff() > 0 else -b
    if b.is_zero:
        return a if a.leading_coeff() > 0 else -a
    if a.is_constant or b.is_constant:
        return MultiPoly.const(a.vars, math.gcd(a.int_content(), b.int_content()))
    shared = a.variables_present() & b.variables_present()
    if not shared:
        return MultiPoly.const(a.vars, math.gcd(a.int_content(), b.int_content()))
    ic = math.gcd(a.int_content(), b.int_content())
    vi = min(shared)
    ua, ub = _uni_coeffs(a, vi), _uni_coeffs(b, vi)
    cont_a = _content_of_coeffs(ua)
    cont_b = _content_of_coeffs(ub)
    g_cont = poly_gcd(cont_a, cont_b)
    pa = _uni_coeffs(exact_div(a, cont_a), vi)
    pb = _uni_coeffs(exact_div(b, cont_b), vi)
    if _uni_degree(pa) < _uni_degree(pb):
        pa, pb = pb, pa
    u, v = pa, pb
    while v:
        r = _pseudo_rem(u, v, vi, a.vars)
        if r:
            rp = _from_uni(r, vi, a.vars)
            rp = exact_div(rp, _content_of_coeffs(_uni_coeffs(rp, vi)))
            r = _uni_coeffs(rp, vi)
        u, v = v, r
    g = _from_uni(u, vi, a.vars)
    g = exact_div(g, _content_of_coeffs(_uni_coeffs(g, vi)))
    g = canonical(g * g_cont)[0]
    # The PRS gives a gcd of the primitive parts; a result that does not
    # divide both inputs is an internal fault, never a plausible answer.
    if try_div(a, g) is None or try_div(b, g) is None:
        raise ArithmeticError(f"poly_gcd({a}, {b}): PRS result {g} does not divide both")
    # Reinstate the shared integer content (Gauss: gcd = gcd of contents
    # times gcd of primitive parts).
    return g * ic


def coprime_basis(ps):
    """Gcd-free basis of a set of polynomials.

    Returns pairwise-coprime canonical non-constant polynomials such that
    every input is, up to a rational constant, a product of powers of basis
    elements.  Constants are dropped.  Deterministic order: ascending total
    degree, then descending leading monomial under the graded-lex order.

    Worklist refinement (Bernstein, "Factoring into coprimes in essentially
    linear time", J. Algorithms 2005): the basis stays pairwise coprime, and
    each polynomial taken from the worklist is compared with its members
    once.  A common factor g with member b replaces b by g, a/g and b/g on
    the worklist.  The order of the splits does not change the result.
    """
    work = []
    for p in ps:
        if p.is_zero:
            raise ValueError("coprime_basis requires nonzero inputs")
        q = canonical(p)[0]
        if not q.is_constant:
            work.append(q)
    work.reverse()
    basis = {}  # member -> whether it is linear, in insertion order
    while work:
        a = work.pop()
        if a in basis:
            continue
        a_lin = a.total_degree() == 1
        for b, b_lin in basis.items():
            g = _common_factor(a, a_lin, b, b_lin)
            if g is not None:
                break
        else:
            basis[a] = a_lin
            continue
        del basis[b]
        for q in (g, exact_div(a, g), exact_div(b, g)):
            q = canonical(q)[0]
            if not q.is_constant:
                work.append(q)
    return sorted(basis, key=_basis_key)


def _common_factor(a, a_lin, b, b_lin):
    """A non-constant common factor of two distinct canonical polynomials
    (a_lin, b_lin: whether each is linear), or None when they are coprime.

    A primitive linear polynomial is irreducible, so it either divides the
    other operand, which one exact division decides, or is coprime to it.
    Two distinct canonical linear forms are never associates.
    """
    if a_lin and b_lin:
        return None
    if a_lin or b_lin:
        lin, other = (a, b) if a_lin else (b, a)
        return lin if try_div(other, lin) is not None else None
    g = poly_gcd(a, b)
    return None if g.is_constant else g


def _basis_key(p: MultiPoly):
    return (p.total_degree(), tuple(-x for x in p.leading_exponent()), str(p))


def factor_multiplicity(p: MultiPoly, factor: MultiPoly) -> int:
    """Largest e with factor^e dividing p."""
    e = 0
    while True:
        q = try_div(p, factor)
        if q is None:
            return e
        p = q
        e += 1


# ---------------------------------------------------------------------------
# Determinants


def minors(matrix):
    """The minors of a matrix of MultiPoly, rectangular or square.

    Returns minor(I, J), the determinant of the submatrix on the increasing
    row tuple I and column tuple J of equal length.  Each minor is the
    Laplace expansion along row I[0] over minors one size smaller, which
    are memoized for as long as the returned function lives, so a minor is
    computed once however many larger minors contain it.  Zero entries and
    zero sub-minors are skipped; no division is needed.
    """
    memo = {}

    def minor(I, J):
        m = memo.get((I, J))
        if m is not None:
            return m
        row = matrix[I[0]]
        if len(I) == 1:
            m = row[J[0]]
        else:
            m = MultiPoly.zero(row[J[0]].vars)
            for k, j in enumerate(J):
                if row[j].is_zero:
                    continue
                sub = minor(I[1:], J[:k] + J[k + 1 :])
                if not sub.is_zero:
                    m = m + row[j] * sub if k % 2 == 0 else m - row[j] * sub
        memo[(I, J)] = m
        return m

    return minor


def det(matrix) -> MultiPoly:
    """Exact determinant of a square matrix of MultiPoly: the full minor of
    `minors`."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a non-empty square matrix")
    vars = matrix[0][0].vars
    for row in matrix:
        for p in row:
            if p.vars != vars:
                raise ValueError("matrix entries use different variable tables")
    full = tuple(range(n))
    return minors(matrix)(full, full)


# ---------------------------------------------------------------------------
# Factored polynomials and rational functions


class FactoredPolynomial:
    """Ordered list of (canonical primitive factor, positive exponent) pairs."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        seen = []
        for p, e in factors:
            if e <= 0:
                raise ValueError("exponents must be positive")
            q = canonical(p)[0]
            for other, _ in seen:
                if other == q:
                    raise ValueError(f"repeated factor {q}")
            seen.append((q, int(e)))
        self.factors = tuple(sorted(seen, key=lambda fe: _basis_key(fe[0])))

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def __eq__(self, other):
        return isinstance(other, FactoredPolynomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def total_degree(self) -> int:
        return sum(p.total_degree() * e for p, e in self.factors)

    def expand(self, vars=None) -> MultiPoly:
        if not self.factors:
            if vars is None:
                raise ValueError("cannot expand an empty product without a VarTable")
            return MultiPoly.const(vars, 1)
        vars = self.factors[0][0].vars
        out = MultiPoly.const(vars, 1)
        for p, e in self.factors:
            out = out * p**e
        return out

    def factor_set(self):
        return frozenset(p for p, _ in self.factors)

    def as_pairs(self):
        return [(str(p), e) for p, e in self.factors]

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            text = str(p)
            if e == 1:
                parts.append(f"({text})" if len(p.terms) > 1 else text)
            else:
                bare_var = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text)
                base = text if bare_var else f"({text})"
                parts.append(f"{base}^{e}")
        return " * ".join(parts)

    def __repr__(self):
        return f"FactoredPolynomial({self})"


class RationalFunction:
    """Numerator polynomial over a factored denominator, kept gcd-reduced."""

    __slots__ = ("num", "den", "den_const")

    def __init__(self, num: MultiPoly, den: FactoredPolynomial, den_const: int = 1):
        if den_const == 0:
            raise ZeroDivisionError("zero denominator constant")
        self.num = num
        self.den = den
        self.den_const = den_const
        self._reduce()

    def _reduce(self):
        if self.num.is_zero:
            self.den = FactoredPolynomial([])
            self.den_const = 1
            return
        self.num, factors = cancel_factors(self.num, self.den)
        self.den = FactoredPolynomial(factors)
        if self.den_const < 0:
            self.den_const = -self.den_const
            self.num = -self.num
        g = math.gcd(self.num.int_content(), self.den_const)
        if g > 1:
            self.num = MultiPoly(self.num.vars, {e: c // g for e, c in self.num.terms.items()})
            self.den_const //= g

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        merged = {}
        for p, e in list(self.den) + list(other.den):
            merged[p] = merged.get(p, 0) + e
        return RationalFunction(
            self.num * other.num,
            FactoredPolynomial(list(merged.items())),
            self.den_const * other.den_const,
        )

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        a, b = dict(self.den.factors), dict(other.den.factors)
        common = {p: max(a.get(p, 0), b.get(p, 0)) for p in set(a) | set(b)}
        const = math.lcm(self.den_const, other.den_const)
        vars = self.num.vars
        na = self.num * (const // self.den_const)
        nb = other.num * (const // other.den_const)
        for p, e in common.items():
            ea, eb = a.get(p, 0), b.get(p, 0)
            if e > ea:
                na = na * p ** (e - ea)
            if e > eb:
                nb = nb * p ** (e - eb)
        return RationalFunction(na + nb, FactoredPolynomial(list(common.items())), const)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
            and self.den_const == other.den_const
        )

    def __str__(self):
        den = str(self.den)
        if self.den_const != 1:
            den = f"{self.den_const} * {den}"
        return f"({self.num}) / ({den})"

    def __repr__(self):
        return f"RationalFunction({self})"
