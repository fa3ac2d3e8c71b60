"""Exact sparse multivariate polynomial arithmetic over the integers.

Polynomials are stored as a mapping from exponent vectors to nonzero
arbitrary-precision integer coefficients, relative to an ordered variable
table.  The monomial order is graded lexicographic by variable position;
it fixes the canonical printed form and every "leading" notion below.
A rational function is a numerator over a factored denominator, kept as
built: this module cancels no common factor.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError, SizeLimitError

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
    "coprime_basis",
    "minors",
]


class VarTable:
    """Ordered list of distinct variable names; position defines the order."""

    __slots__ = ("names", "_index", "_texts")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names in table")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._texts = {}  # places -> the memos of key halves (see `_halves`)

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


# The product loop keys each monomial by one int, a mixed-radix number with
# one digit per variable: the sum of each exponent times its variable's
# place, variable 0 at the highest place, so integer order is lex order.
# When every exponent of a product is below its variable's radix, no digit
# carries, and the key of a product monomial is the sum of the keys of its
# factors.  `MultiPoly.__mul__` packs a w-byte field per variable: the case
# of uniform radices 256^w, which `_pack` and `_unpack` convert in C.


def _mul_into(out, big, small):
    """Add the product of big and small into out and return out.

    All three map keys packed at one tuple of places to coefficients, and
    the radices hold every exponent of the result.  Zero sums stay in out.
    The loop over big is the inner one, so big should be the larger
    operand.
    """
    get = out.get
    for k2, c2 in small.items():
        for k1, c1 in big.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _places(radices):
    """The place of each variable's digit in keys with these radices."""
    places = []
    p = 1
    for r in reversed(radices):
        places.append(p)
        p *= r
    return tuple(reversed(places))


def _pack(exps, w):
    """The keys of the exponent tuples exps, packed in w-byte fields."""
    if w == 1:
        return map(int.from_bytes, map(bytes, exps), repeat("big"))
    return (
        int.from_bytes(b"".join(x.to_bytes(w, "big") for x in e), "big")
        for e in exps
    )


def _unpack(keys, nv, w):
    """The exponent tuples, of nv variables each, of keys packed in w-byte
    fields."""
    if w == 1:
        return map(tuple, map(int.to_bytes, keys, repeat(nv), repeat("big")))
    n = nv * w
    return (
        tuple(int.from_bytes(kb[i : i + w], "big") for i in range(0, n, w))
        for kb in (k.to_bytes(n, "big") for k in keys)
    )


def _width(top):
    """Bytes per field of keys whose largest exponent is top."""
    return max(1, (top.bit_length() + 7) // 8)


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

    @staticmethod
    def _from_packed(vars: VarTable, places: tuple, keys: dict) -> "MultiPoly":
        """Internal constructor for keys packed at the tuple of places of
        the variables (see `_places`), mapping to nonzero integer
        coefficients.  The exponent tuples of `.terms` are unpacked on first
        access; printing reads the keys."""
        obj = _PackedPoly.__new__(_PackedPoly)
        obj.vars = vars
        obj._packed = (places, keys)
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
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return MultiPoly.zero(self.vars)
        w = _width(max(map(max, zip(*big)), default=0) + max(map(max, zip(*small)), default=0))
        packed_big = dict(zip(_pack(big, w), big.values()))
        out = _mul_into({}, packed_big, dict(zip(_pack(small, w), small.values())))
        for k in [k for k, c in out.items() if not c]:
            del out[k]
        return MultiPoly._raw(self.vars, dict(zip(_unpack(out, len(self.vars), w), out.values())))

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
        """Evaluate at a point given as name -> number (int or Fraction).

        With each x_i = a_i / b_i (b_i = 1 at an integer), the sum of
        c * prod a_i^e_i * b_i^(d_i - e_i), with d_i the degree in x_i, is
        taken in integers and divided once by prod b_i^d_i.
        """
        point = [values[name] for name in self.vars.names]
        den = 1
        tables = []  # (i, a_i^p * b_i^(d_i - p) for p = 0..d_i) where d_i > 0
        for i, d in enumerate(map(max, zip(*self.terms))):
            if d:
                a, b = point[i].numerator, point[i].denominator
                if b == 1:
                    tables.append((i, [a**p for p in range(d + 1)]))
                else:
                    tables.append((i, [a**p * b ** (d - p) for p in range(d + 1)]))
                    den *= b**d
        total = 0
        for e, c in self.terms.items():
            for i, t in tables:
                c *= t[e[i]]
            total += c
        return total if den == 1 else Fraction(total, den)

    # -- printing -------------------------------------------------------

    def _keys(self):
        """(places, keys): the terms packed in byte fields that hold them."""
        w = _width(max(chain.from_iterable(self.terms), default=0))
        places = _places((256**w,) * len(self.vars))
        return places, dict(zip(_pack(self.terms, w), self.terms.values()))

    def text_chunks(self):
        """The text of `str(self)` as a list of chunks, whose join it is."""
        return _format(self.vars, *self._keys())

    def __str__(self):
        return "".join(self.text_chunks())

    def __repr__(self):
        return f"MultiPoly({self})"


class _PackedPoly(MultiPoly):
    """A MultiPoly from `MultiPoly._from_packed`.  Its `terms` slot stays
    unset until first read, when `__getattr__` fills it.  A class of its
    own, because a `__getattr__` on MultiPoly would slow every attribute
    read of every polynomial."""

    __slots__ = ("_packed",)

    def _keys(self):
        return self._packed

    def __getattr__(self, name):
        # reached only for unset slots
        if name != "terms":
            raise AttributeError(name)
        places, keys = self._packed
        high, low, cut = _halves(self.vars, places)
        self.terms = {high[k // cut][0] + low[k % cut][0]: c for k, c in keys.items()}
        return self.terms


class _Powers(dict):
    """Memo: a number with one digit per variable of names, at the places
    given -> (its exponents, their sum, the text of its variable powers
    joined by "*")."""

    __slots__ = ("names", "places")

    def __init__(self, names, places):
        self.names, self.places = names, places

    def __missing__(self, k):
        exps = []
        rest = k
        for p in self.places:
            exps.append(rest // p)
            rest %= p
        text = "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(self.names, exps) if e])
        memo = self[k] = (tuple(exps), sum(exps), text)
        return memo


def _halves(vars, places):
    """(high, low, cut): the halves of a key packed at places over the
    table vars are divmod(key, cut), the digits of the first (nv + 1) // 2
    variables and those of the rest, and high and low are their memos (see
    `_Powers`).  The memos live on the table, one pair per tuple of places.
    """
    memos = vars._texts.get(places)
    if memos is None:
        names = vars.names
        split = (len(names) + 1) // 2
        cut = places[split - 1] if split else 1
        high = _Powers(names[:split], [p // cut for p in places[:split]])
        memos = vars._texts[places] = (high, _Powers(names[split:], places[split:]), cut)
    return memos


class _Coefficients(dict):
    """Memo: coefficient -> the text before a term's variables, its sign
    and, unless it is 1, its absolute value."""

    __slots__ = ()

    def __missing__(self, c):
        sign = " - " if c < 0 else " + "
        text = self[c] = sign if abs(c) == 1 else f"{sign}{abs(c)}*"
        return text


# terms per chunk of `_format`'s text: path6's 159,328-term numerator comes
# out in 39 chunks of about 120 kB, and a small polynomial in one
_CHUNK_TERMS = 4096


def _format(vars, places, keys):
    """The text of the polynomial whose terms are keys, packed at places
    over the table vars, mapped to nonzero coefficients: graded lex order,
    highest first, each term its coefficient (dropped when 1) and its
    variable powers joined by "*".  It comes as a list of chunks, each the
    text of up to _CHUNK_TERMS terms, so that a caller can write a large
    polynomial without ever holding its text as one string.

    A key's text joins the memoized texts of its high and low halves (see
    `_halves`), and its degree sums theirs.  A dense polynomial has far
    fewer distinct halves than terms (path6's 159,328 terms have 6,782 and
    1,623), and in lex order keys that share their high half are adjacent.
    The memos live on the table, so the small polynomials of one table,
    printed again and again, mostly find their halves there.  No per-term
    string is built and no function is called per term: the pieces of a
    chunk are joined once, so the printer stays linear under a profile
    hook.
    """
    if not keys:
        return ["0"]
    high, low, cut = _halves(vars, places)
    order = sorted(keys, reverse=True)
    degrees = [high[k // cut][1] + low[k % cut][1] for k in order]
    if min(degrees) != max(degrees):
        # stable, so lex order holds within a degree
        order = [k for _, k in sorted(zip(degrees, order), key=itemgetter(0), reverse=True)]
    del degrees
    chunks = []
    const = keys[order.pop()] if order[-1] == 0 else 0
    if order:
        coefficient = _Coefficients({1: " + ", -1: " - "})
        for start in range(0, len(order), _CHUNK_TERMS):
            out = []
            for k in order[start : start + _CHUNK_TERMS]:
                h, lo = high[k // cut][2], low[k % cut][2]
                out += (coefficient[keys[k]], h, "*", lo) if h and lo else (coefficient[keys[k]], h or lo)
            if not start:
                out[0] = ("-" if out[0][1] == "-" else "") + out[0][3:]
            chunks.append("".join(out))
    if const:
        chunks.append(f"{' - ' if const < 0 else ' + '}{abs(const)}" if chunks else str(const))
    return chunks


# ---------------------------------------------------------------------------
# Parser


def _past_digit_limit(c: int) -> bool:
    """Whether |c| has more decimal digits than `sys.get_int_max_str_digits()`
    lets an int be read or printed with (never, when that limit is 0).
    Below 2^(3 limit) the answer is no without a power of ten."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and c.bit_length() > 3 * limit and abs(c) >= 10**limit


def _check_coefficients(p):
    """Refuse p when a coefficient is past the digit limit."""
    for c in p.terms.values():
        if _past_digit_limit(c):
            raise SizeLimitError(
                f"coefficient of more than {sys.get_int_max_str_digits()} digits"
            )


def _check_power(base, n):
    """Refuse base^n when its coefficient bound (sum of |c|)^n is past the
    digit limit, before the power is computed: estimated by logarithms,
    and computed only within a digit of the limit."""
    limit = sys.get_int_max_str_digits()
    s = sum(map(abs, base.terms.values()))
    if not limit or s < 2:
        return
    # s^n >= 2^n, past the limit once n > 4 limit
    digits = n * math.log10(s) if n <= 4 * limit else math.inf
    if digits > limit + 1 or digits > limit - 1 and _past_digit_limit(s**n):
        raise SizeLimitError(
            f"power may have coefficients of more than {limit} digits"
        )


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos and not text[pos:].strip():
            break
        if m.group(1) is not None:
            digits = m.group(1)
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) > limit:
                raise SizeLimitError(f"integer literal of {len(digits)} digits (limit {limit})")
            tokens.append(("int", int(digits), m.start(1)))
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
    def __init__(self, text, vars, images):
        self.tokens = _tokenize(text)
        self.vars = vars
        self.images = images or {}
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
                # a chain of products grows its coefficients' digits by
                # the sum of its factors'
                _check_coefficients(result)
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
            _check_power(base, val)
            return base**val
        return base

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            return MultiPoly.const(self.vars, val)
        if kind == "name":
            if val in self.images:
                return self.images[val]
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


def parse(text: str, vars: VarTable,
          images: Mapping[str, MultiPoly] | None = None) -> MultiPoly:
    """Parse an expression built from +, -, *, ^, parentheses and integers.

    A name in images stands for its image, a polynomial over vars, so an
    eliminated variable is substituted as the text is read.

    Raises SizeLimitError for an integer that Python could not read or
    print (see `sys.get_int_max_str_digits`): a literal with more digits,
    a power whose coefficients may have more, before it is computed, and
    a result with a coefficient that has more."""
    p = _Parser(text, vars, images)
    result = p.parse_expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise InputError("trailing input", pos)
    _check_coefficients(result)
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


# ---------------------------------------------------------------------------
# Evaluation modulo a prime: a nonzero residue proves a nonzero value


PRIME = 2147483647  # 2^31 - 1


def residue_terms(p: MultiPoly):
    """The terms of p as (coefficient mod PRIME, ((variable index, power),
    ...)), the form `eval_mod_p` evaluates."""
    return [
        (c % PRIME, tuple((i, x) for i, x in enumerate(e) if x))
        for e, c in p.terms.items()
    ]


def residues(point, names):
    """Each coordinate a/b of point as a * b^-1 mod PRIME, in the order of
    names, or None when some denominator is divisible by PRIME."""
    out = []
    for name in names:
        v = point[name]
        if v.denominator % PRIME == 0:
            return None
        out.append(v.numerator * pow(v.denominator, -1, PRIME) % PRIME)
    return out


def eval_mod_p(terms, r) -> int:
    """The value mod PRIME, at the residues r, of the polynomial given by
    `residue_terms`.  A nonzero value proves the exact value nonzero."""
    total = 0
    for c, mono in terms:
        for i, x in mono:
            c = c * (r[i] if x == 1 else pow(r[i], x, PRIME)) % PRIME
        total += c
    return total % PRIME


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
    """Sort key of a basis member p: ascending total degree, then
    descending leading exponent, then the text of p."""
    return (p.total_degree(), tuple(-x for x in p.leading_exponent()), str(p))


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


# ---------------------------------------------------------------------------
# Factored polynomials and rational functions


class FactoredPolynomial:
    """Ordered list of (canonical primitive factor, positive exponent) pairs."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        seen = {}
        for p, e in factors:
            if e <= 0:
                raise ValueError("exponents must be positive")
            q = canonical(p)[0]
            if q in seen:
                raise ValueError(f"repeated factor {q}")
            seen[q] = int(e)
        self.factors = tuple(sorted(seen.items(), key=lambda fe: _basis_key(fe[0])))

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


class RationalFunction(NamedTuple):
    """Numerator polynomial over a factored denominator, stored as given.

    No common factor is cancelled: num / den is the same rational function
    either way, and a caller that needs a reduced value builds it reduced
    (as `cosmo.wavefunction` does).
    """

    num: MultiPoly
    den: FactoredPolynomial

    def __str__(self):
        return f"({self.num}) / ({self.den})"
