"""Tests for the exact polynomial core.

Randomized checks use a seeded generator; oracles are independent of the
implementation under test (evaluation homomorphisms, cofactor expansion,
construct-then-check for gcd).
"""

import random
import sys
from fractions import Fraction
from itertools import chain, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerdisc.symcore as symcore
from eulerdisc.errors import InputError, SizeLimitError
from eulerdisc.kernels import det_adj
from eulerdisc.symcore import (
    FactoredPolynomial,
    MultiPoly,
    RationalFunction,
    VarTable,
    _basis_key,
    _mul_into,
    _pack,
    _places,
    _unpack,
    _width,
    canonical,
    coprime_basis,
    exact_div,
    minors,
    parse,
    poly_gcd,
    try_div,
)
from oracles import (
    eval_fraction,
    expand,
    factor_multiplicity,
    first_nonzero,
    leibniz_minors,
    poly_str,
    subs,
)

VT = VarTable(["x", "y", "z"])


def rand_poly(rng, vars=VT, max_terms=5, max_deg=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in vars.names)
        terms[e] = rng.randint(-max_coeff, max_coeff)
    return MultiPoly(vars, terms)


def rand_point(rng, vars=VT):
    return {name: rng.randint(-5, 5) for name in vars.names}


class TestRingAxioms:
    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(120):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + MultiPoly.zero(VT) == a
            assert a * MultiPoly.const(VT, 1) == a
            assert a - a == MultiPoly.zero(VT)

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(12)
        for _ in range(120):
            a, b = rand_poly(rng), rand_poly(rng)
            pt = rand_point(rng)
            assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
            assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
            assert (a**3).eval(pt) == a.eval(pt) ** 3

    def test_eval_fractions(self):
        p = parse("x^2 - y", VT)
        assert p.eval({"x": Fraction(1, 2), "y": Fraction(1, 4), "z": 0}) == 0

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(13)
        for _ in range(20):
            a = rand_poly(rng)
            prod = MultiPoly.const(VT, 1)
            for k in range(5):
                assert a**k == prod
                prod = prod * a

    def test_subs_matches_eval(self):
        rng = random.Random(14)
        vt2 = VarTable(["u", "v"])
        for _ in range(40):
            p = rand_poly(rng)
            images = {
                "x": rand_poly(rng, vt2, max_terms=3, max_deg=2),
                "y": rand_poly(rng, vt2, max_terms=3, max_deg=2),
                "z": rand_poly(rng, vt2, max_terms=3, max_deg=2),
            }
            q = subs(p, images)
            pt = rand_point(rng, vt2)
            expected = p.eval({name: images[name].eval(pt) for name in VT.names})
            assert q.eval(pt) == expected


def expressions(names):
    """Expression texts over names: integers and names, joined by + and -,
    products, powers up to 3, parentheses and unary minus."""
    leaves = st.integers(0, 9).map(str) | st.sampled_from(names)
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(" ".join),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda t: f"({t})"),
        sub.map(lambda t: f"-{t}"),
    ), max_leaves=6)


class TestParsePrint:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_images_match_substituting_after(self, data):
        names = ["a", "b", "c", "d"]
        gone = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        kept = VarTable([n for n in names if n not in gone])
        images = {n: parse(data.draw(expressions(kept.names)), kept) for n in gone}
        text = data.draw(expressions(names))
        assert parse(text, kept, images) == subs(parse(text, VarTable(names)), images)

    def test_round_trip_random(self):
        rng = random.Random(21)
        count = 0
        while count < 120:
            p = rand_poly(rng)
            if p.is_zero:
                continue
            count += 1
            assert parse(str(p), VT) == p

    def test_zero_prints_and_parses(self):
        assert str(MultiPoly.zero(VT)) == "0"
        assert parse("0", VT).is_zero

    def test_explicit_forms(self):
        assert str(parse("x + x", VT)) == "2*x"
        assert str(parse("-x^2 + y - 3", VT)) == "-x^2 + y - 3"
        assert str(parse("(x + y)*(x - y)", VT)) == "x^2 - y^2"
        assert str(parse("x*y^2*z", VT)) == "x*y^2*z"

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse("x + w", VT)
        with pytest.raises(InputError):
            parse("x^y", VT)
        with pytest.raises(InputError):
            parse("x + ", VT)
        with pytest.raises(InputError):
            parse("x @ y", VT)
        with pytest.raises(InputError):
            parse("(x + y", VT)
        err = None
        try:
            parse("x + $", VT)
        except InputError as exc:
            err = exc
        assert err is not None and err.position is not None


class TestDigitLimit:
    """An int past `sys.get_int_max_str_digits()` digits, which Python could
    neither read nor print, is refused as the text is parsed."""

    @pytest.fixture(autouse=True)
    def limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    def test_literal(self):
        assert str(parse("9" * 4300, VT)) == "9" * 4300
        with pytest.raises(SizeLimitError, match="literal of 4301 digits"):
            parse("x + " + "9" * 4301, VT)

    def test_power_bound(self):
        # 2^14284 has 4300 digits and 2^14285 has 4301; (x + 1)^n has the
        # bound 2^n, refused before any product
        assert len(str(parse("2^14284", VT))) == 4300
        for text in ("2^14285", "(x + 1)^14285", "(x - y)^" + "9" * 4000, "(10^3000)^2"):
            with pytest.raises(SizeLimitError, match="power may have coefficients"):
                parse(text, VT)
        # a single term with coefficient 1 or -1 has no coefficient growth
        assert str(parse("(-x)^100001", VT)) == "-x^100001"

    def test_products_and_sums(self):
        assert str(parse("10^2000 * 10^2000", VT)) == "1" + "0" * 4000
        for text in ("10^3000 * 10^3000", "x*10^3000 * 10^3000*y", "9" * 4300 + " + " + "9" * 4300):
            with pytest.raises(SizeLimitError, match="coefficient of more than 4300 digits"):
                parse(text, VT)


class TestDivision:
    def test_exact_div_recovers_factor(self):
        rng = random.Random(31)
        done = 0
        while done < 60:
            a, b = rand_poly(rng), rand_poly(rng)
            if a.is_zero or b.is_zero:
                continue
            done += 1
            assert exact_div(a * b, b) == a

    def test_try_div_rejects_inexact(self):
        assert try_div(parse("x^2 + 1", VT), parse("x + 1", VT)) is None
        assert try_div(parse("2*x", VT), parse("3", VT)) is None

    def test_canonical(self):
        p, sign, content = canonical(parse("-2*x - 2*y", VT))
        assert p == parse("x + y", VT)
        assert sign == -1 and content == 2

    def test_factor_multiplicity(self):
        f = parse("x + y", VT)
        p = f**3 * parse("x - y", VT)
        assert factor_multiplicity(p, f) == 3
        assert factor_multiplicity(p, parse("z + 1", VT)) == 0


class TestGcd:
    def test_gcd_construct_then_check(self):
        rng = random.Random(41)
        done = 0
        while done < 40:
            f = rand_poly(rng, max_terms=3, max_deg=2)
            g = rand_poly(rng, max_terms=3, max_deg=2)
            h = rand_poly(rng, max_terms=3, max_deg=2)
            if f.is_zero or g.is_zero or h.is_zero:
                continue
            done += 1
            d = poly_gcd(f * g, f * h)
            # d must be a common divisor divisible by the primitive part of f
            assert try_div(f * g, d) is not None
            assert try_div(f * h, d) is not None
            assert try_div(d, canonical(f)[0]) is not None

    def test_gcd_known_values(self):
        assert poly_gcd(parse("x^2 - y^2", VT), parse("x + y", VT)) == parse("x + y", VT)
        assert poly_gcd(parse("6*x", VT), parse("4*x^2", VT)) == parse("2*x", VT)
        assert poly_gcd(parse("x + 1", VT), parse("y + 1", VT)) == parse("1", VT)
        assert poly_gcd(MultiPoly.zero(VT), parse("-3*x", VT)) == parse("3*x", VT)

    def test_gcd_raises_when_prs_result_does_not_divide(self, monkeypatch):
        # A pseudo-remainder that always vanishes makes the PRS stop at
        # x + 2, which does not divide x^2 + 1.
        import eulerdisc.symcore as symcore

        monkeypatch.setattr(symcore, "_pseudo_rem", lambda u, v, vi, vars: {})
        with pytest.raises(ArithmeticError, match=r"poly_gcd\(x\^2 \+ 1, x \+ 2\)"):
            poly_gcd(parse("x^2 + 1", VT), parse("x + 2", VT))

    def test_gcd_symmetric_and_positive(self):
        rng = random.Random(42)
        for _ in range(30):
            a, b = rand_poly(rng, max_terms=3), rand_poly(rng, max_terms=3)
            if a.is_zero or b.is_zero:
                continue
            g1, g2 = poly_gcd(a, b), poly_gcd(b, a)
            assert g1 == g2
            assert g1.leading_coeff() > 0


class TestCoprimeBasis:
    def test_properties_random(self):
        rng = random.Random(51)
        for _ in range(25):
            inputs = [rand_poly(rng, max_terms=2, max_deg=2) for _ in range(3)]
            inputs = [p for p in inputs if not p.is_zero]
            if not inputs:
                continue
            basis = coprime_basis(inputs)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert poly_gcd(basis[i], basis[j]).is_constant
            for p in inputs:
                q = canonical(p)[0]
                for b in basis:
                    while True:
                        r = try_div(q, b)
                        if r is None:
                            break
                        q = r
                assert q.is_constant
            # every basis member divides some input
            canon = [canonical(p)[0] for p in inputs]
            for b in basis:
                assert any(try_div(q, b) is not None for q in canon)

    def test_splits_difference_of_squares(self):
        basis = coprime_basis([parse("x^2 - y^2", VT), parse("x + y", VT)])
        assert set(basis) == {parse("x - y", VT), parse("x + y", VT)}

    def test_deterministic(self):
        ps = [parse(s, VT) for s in ["x*y", "y*z", "x*z"]]
        assert coprime_basis(ps) == coprime_basis(list(reversed(ps)))


def restart_coprime_basis(ps):
    """Oracle: the quadratic gcd-free basis loop that rescans every pair
    after each split, replacing a pair with a non-constant gcd g by g, a/g
    and b/g."""
    items = []
    for p in ps:
        q = canonical(p)[0]
        if not q.is_constant and q not in items:
            items.append(q)
    changed = True
    while changed:
        changed = False
        n = len(items)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = items[i], items[j]
                g = poly_gcd(a, b)
                if g.is_constant:
                    continue
                new = {g}
                for q in (exact_div(a, g), exact_div(b, g)):
                    if not canonical(q)[0].is_constant:
                        new.add(canonical(q)[0])
                replaced = [p for k, p in enumerate(items) if k not in (i, j)]
                for q in sorted(new, key=basis_key):
                    if q not in replaced:
                        replaced.append(q)
                if set(replaced) != set(items):
                    items = replaced
                    changed = True
                    break
            if changed:
                break
    return sorted(items, key=basis_key)


def basis_key(p):
    return (p.total_degree(), tuple(-x for x in p.leading_exponent()), str(p))


VT2 = VarTable(["x", "y"])
coeff = st.integers(-3, 3)
linear_factor = st.tuples(coeff, coeff, coeff).filter(lambda t: t[0] or t[1]).map(
    lambda t: MultiPoly(VT2, {(1, 0): t[0], (0, 1): t[1], (0, 0): t[2]})
)
quadratic_factor = st.dictionaries(
    st.sampled_from([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]), coeff, min_size=2, max_size=4
).map(lambda t: MultiPoly(VT2, t)).filter(lambda p: p.total_degree() == 2)


@st.composite
def factor_products(draw):
    """Products of factors drawn from a small shared pool of linear and
    quadratic polynomials, with repeats and exponents up to 2, times an
    integer constant."""
    pool = draw(st.lists(st.one_of(linear_factor, quadratic_factor), min_size=1, max_size=4))
    products = []
    for _ in range(draw(st.integers(1, 4))):
        p = MultiPoly.const(VT2, draw(st.sampled_from([1, -1, 2, -6])))
        for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
            p = p * f ** draw(st.integers(1, 2))
        products.append(p)
    return products


class TestCoprimeBasisOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inputs=factor_products(), data=st.data())
    def test_against_restart_loop(self, inputs, data):
        basis = coprime_basis(inputs)
        assert basis == restart_coprime_basis(inputs)
        # invariant under the order of the inputs
        shuffled = data.draw(st.permutations(inputs))
        assert coprime_basis(shuffled) == basis
        # pairwise coprime under the exact gcd
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert poly_gcd(basis[i], basis[j]).is_constant
        # each input is a rational constant times a product of basis powers
        for p in inputs:
            product = MultiPoly.const(VT2, 1)
            for b in basis:
                product = product * b ** factor_multiplicity(p, b)
            assert product == canonical(p)[0]

    def test_linear_factor_of_non_squarefree_input(self):
        # (x + y)^2 (x - y) against x + y: a linear form divides the other
        # operand, so the split runs without a gcd computation
        p = parse("(x + y)^2 * (x - y)", VT)
        basis = coprime_basis([p, parse("x + y", VT), parse("3*x - 3*y + 6*z", VT)])
        assert set(basis) == {parse("x + y", VT), parse("x - y", VT), parse("x - y + 2*z", VT)}
        assert len(basis) == 3


class TestBasisOrder:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ps=st.lists(st.one_of(linear_factor, quadratic_factor), max_size=8))
    def test_matches_the_full_key(self, ps):
        # the order of the test's own key: degree, leading exponent, text
        assert sorted(ps, key=_basis_key) == sorted(ps, key=basis_key)


def full_minor(m):
    """The determinant of a square matrix: its full minor by `minors`."""
    full = tuple(range(len(m)))
    return minors(m)(full, full)


class TestDet:
    def test_matches_cofactor_oracle_4x4(self):
        rng = random.Random(61)

        def oracle(m):
            n = len(m)
            total = MultiPoly.zero(VT)
            for perm in permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = MultiPoly.const(VT, sign)
                for i in range(n):
                    prod = prod * m[i][perm[i]]
                total = total + prod
            return total

        for _ in range(10):
            m = [[rand_poly(rng, max_terms=2, max_deg=1) for _ in range(4)] for _ in range(4)]
            assert full_minor(m) == oracle(m)

    def test_row_swap_negates(self):
        rng = random.Random(62)
        for _ in range(10):
            m = [[rand_poly(rng, max_terms=2, max_deg=1) for _ in range(4)] for _ in range(4)]
            swapped = [m[1], m[0]] + m[2:]
            assert full_minor(swapped) == -full_minor(m)

    def test_singular_integer_matrix(self):
        one = MultiPoly.const(VT, 1)
        m = [[one, one, one, one] for _ in range(4)]
        assert full_minor(m).is_zero

    def test_symbolic_three_by_three(self):
        names = [f"z{i}{j}" for i in range(3) for j in range(3, 6)]
        vt = VarTable(names)
        m = [[MultiPoly.var(vt, f"z{i}{j}") for j in range(3, 6)] for i in range(3)]
        d = full_minor(m)
        assert len(d.terms) == 6
        assert d.total_degree() == 3
        pt = {name: k * k + 1 for k, name in enumerate(names)}
        assert d.eval(pt) == det_adj([[pt[f"z{i}{j}"] for j in range(3, 6)] for i in range(3)])[0]


const_entry = st.integers(-3, 3).map(lambda c: MultiPoly.const(VT, c))
poly_entry = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)), st.integers(-3, 3), max_size=3
).map(lambda t: MultiPoly(VT, t))


@st.composite
def poly_matrices(draw):
    """Matrices up to 4 x 6 whose entries are zeros, integer constants and
    small polynomials; some rows are entirely constant."""
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = []
    for _ in range(nr):
        entry = draw(st.sampled_from([const_entry, st.one_of(const_entry, poly_entry)]))
        rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
    return rows


class TestMinorsOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=poly_matrices(), data=st.data())
    def test_every_minor_matches_leibniz(self, m, data):
        minor = minors(m)
        # queried in any order, so a minor may be asked for before the
        # smaller minors it is expanded over
        for (I, J), expected in data.draw(st.permutations(leibniz_minors(m, VT))):
            assert minor(I, J) == expected

    def test_all_minors_match_leibniz(self):
        from eulerdisc.cosmo import coefficient_family
        from eulerdisc.formats import ingest_family
        from eulerdisc.graphs import CosmoGraph

        triangle = coefficient_family(CosmoGraph.from_pairs(3, [(1, 2), (2, 3), (1, 3)]))
        z1 = ingest_family({
            "k": 2,
            "params": ["w1", "w2", "w3"],
            "entries": [["w1+w2", "1", "0", "0"], ["1", "0", "1", "w2+w3"],
                        ["0", "w1-w3", "w1+w2+w3", "1"]],
        })
        for fam in (triangle, z1):
            expected = first_nonzero(v for _, v in leibniz_minors(fam.entries, fam.params))
            assert fam.all_minors() == expected


def naive_product(a, b):
    """Oracle: the product as a sum over all term pairs of exponent tuples."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiPoly(a.vars, out)


# exponents on both sides of the one-byte and two-byte key fields, and
# coefficients past int64
mul_exponent = st.one_of(st.integers(0, 3), st.sampled_from([127, 128, 255, 256, 65535, 2**64]))
mul_coeff = st.one_of(
    st.integers(-5, 5), st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63))
)


@st.composite
def poly_pairs(draw):
    """Two polynomials over a table of 0 to 4 variables."""
    nv = draw(st.integers(0, 4))
    vt = VarTable([f"v{i}" for i in range(nv)])
    exps = st.tuples(*[mul_exponent] * nv)
    return tuple(
        MultiPoly(vt, draw(st.dictionaries(exps, mul_coeff, max_size=6))) for _ in range(2)
    )


class TestMulOracle:
    """MultiPoly.__mul__ against the term-pair sum, including products whose
    terms cancel, zero operands, wide exponent fields and the empty table."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=poly_pairs())
    def test_against_term_pair_sum(self, pair):
        a, b = pair
        assert a * b == naive_product(a, b)
        assert b * a == naive_product(a, b)
        # (a + b)(a - b): the cross terms cancel
        assert (a + b) * (a - b) == naive_product(a + b, a - b)
        assert (a + b) * (a - b) == a * a - b * b
        zero = MultiPoly.zero(a.vars)
        assert (a * zero).is_zero and (zero * a).is_zero

    def test_large_coefficients(self):
        rng = random.Random(81)

        def big_poly():
            terms = {}
            while len(terms) < 40:
                e = tuple(rng.randint(0, 6) for _ in VT.names)
                terms[e] = rng.choice([-1, 1]) * rng.randint(1 << 63, 1 << 80)
            return MultiPoly(VT, terms)

        p, q = big_poly(), big_poly()
        a, b = p + q, p - q
        prod = a * b
        assert prod == naive_product(a, b)
        for _ in range(3):
            pt = {name: rng.randint(-3, 3) for name in VT.names}
            assert prod.eval(pt) == a.eval(pt) * b.eval(pt)

    def test_wide_exponent_fields(self):
        x, y = MultiPoly.var(VT, "x"), MultiPoly.var(VT, "y")
        assert (x**128 * x**127).terms == {(255, 0, 0): 1}
        assert (x**128 * x**128).terms == {(256, 0, 0): 1}
        p = x**255 + y**300 + 1
        assert p * (x + y) == naive_product(p, x + y)
        huge = x ** (2**64)
        assert (huge * x).terms == {(2**64 + 1, 0, 0): 1}
        assert (huge * huge).terms == {(2**65, 0, 0): 1}
        assert (huge * (x - y)) * (x + y) == huge * (x * x - y * y)

    def test_empty_table(self):
        vt = VarTable([])
        three = MultiPoly.const(vt, 3)
        assert (three * three).terms == {(): 9}
        assert (three * MultiPoly.zero(vt)).is_zero

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=poly_pairs(), data=st.data())
    def test_mul_into_adds_to_what_out_holds(self, pair, data):
        # _mul_into(out, a, b) on packed dicts leaves c + a*b in an out that
        # held c, whichever operand is big; c = -a*b cancels every sum
        a, b = pair
        ab = naive_product(a, b)
        c = data.draw(st.sampled_from([MultiPoly.zero(a.vars), a, b, -ab, b - ab]))
        def top(p):
            return max((x for e in p.terms for x in e), default=0)

        w = max(1, (max(top(c), top(a) + top(b)).bit_length() + 7) // 8)

        def packed(p):
            return dict(zip(_pack(p.terms, w), p.terms.values()))

        for big, small in ((a, b), (b, a)):
            out = packed(c)
            assert _mul_into(out, packed(big), packed(small)) is out
            got = {e: v for e, v in zip(_unpack(out, len(a.vars), w), out.values()) if v}
            assert MultiPoly(a.vars, got) == c + ab


# exponents of every key field width from one to three bytes, mostly zero
wide_exponent = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3, 255, 256, 65536])
wide_coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9), st.integers(2**63, 2**70))


@st.composite
def wide_polys(draw):
    """A polynomial over a table of 1 to 12 variables, with a constant term
    or not."""
    nv = draw(st.integers(1, 12))
    vt = VarTable([f"v{i}" for i in range(nv)])
    terms = draw(st.dictionaries(st.tuples(*[wide_exponent] * nv), wide_coeff, max_size=8))
    if draw(st.booleans()):
        terms[(0,) * nv] = draw(wide_coeff)
    return MultiPoly(vt, terms)


class TestPrintOracle:
    """MultiPoly.__str__ against the term-by-term printer, on the zero
    polynomial, constants (the empty table included), negative and wide
    coefficients and exponents on both sides of 255."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=poly_pairs())
    def test_str_matches_reference(self, pair):
        for p in pair:
            assert str(p) == poly_str(p)
            assert str(-p) == poly_str(-p)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(p=wide_polys(), size=st.integers(1, 3))
    def test_chunks_join_to_the_text(self, p, size):
        # each chunk holds the text of up to _CHUNK_TERMS terms, and a
        # constant term comes as a chunk of its own
        with mock.patch.object(symcore, "_CHUNK_TERMS", size):
            chunks = p.text_chunks()
        assert "".join(chunks) == poly_str(p)
        const = (0,) * len(p.vars) in p.terms
        assert len(chunks) == max(1, -(-(len(p.terms) - const) // size) + const)
        assert all(chunks)

    def test_explicit_edge_cases(self):
        empty = VarTable([])
        for p in (MultiPoly.zero(VT), MultiPoly.const(VT, -7), MultiPoly.const(empty, 3),
                  MultiPoly.zero(empty), parse("-x^300*y + 2*z - 1", VT)):
            assert str(p) == poly_str(p)
        assert str(MultiPoly.const(VT, -7)) == "-7"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=wide_polys(), extra=st.integers(0, 2))
    def test_wide_tables_and_packed_twin(self, p, extra):
        # 1 to 12 variables: the text of a key joins its high and low
        # halves, so either half comes out empty, a single field or full
        assert str(p) == poly_str(p)
        assert str(-p) == poly_str(-p)
        # the same terms packed in byte fields of a width that holds them,
        # or wider
        w = _width(max(chain.from_iterable(p.terms), default=0)) + extra
        places = _places((256**w,) * len(p.vars))
        twin = MultiPoly._from_packed(p.vars, places, dict(zip(_pack(p.terms, w), p.terms.values())))
        assert str(twin) == str(p)
        assert twin.terms == p.terms and twin == p

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=wide_polys(), data=st.data())
    def test_mixed_radix_twin(self, p, data):
        # the same terms packed with one radix per variable, each at least
        # 2 and above the variable's largest exponent: the text and the
        # unpacked terms are the same
        tops = [max(x) for x in zip(*p.terms)] if p.terms else [0] * len(p.vars)
        radices = [data.draw(st.integers(max(t + 1, 2), t + 4)) for t in tops]
        places = _places(radices)
        assert all(a == b * r for a, b, r in zip(places, places[1:], radices[1:]))
        assert places[-1:] in ((), (1,))
        keys = {sum(x * q for x, q in zip(e, places)): c for e, c in p.terms.items()}
        twin = MultiPoly._from_packed(p.vars, places, keys)
        assert str(twin) == str(p) == poly_str(p)
        assert twin.terms == p.terms

    def test_high_or_low_part_empty(self):
        vt = VarTable([f"v{i}" for i in range(12)])
        for text in ("v0", "v11", "v0*v11", "-v9^65536 + v0^255*v5^256", "v0*v1*v2 + v9*v10*v11 + 1",
                     "-v3 - 1", "v8^2*v9 - 3*v2 + 7", "-1"):
            p = parse(text, vt)
            assert str(p) == poly_str(p) == text
        x = VarTable(["x"])
        for text in ("x", "-x^65536 + x^256 - x^255 + 2", "5"):
            assert str(parse(text, x)) == text

    def test_packed_terms_on_first_access(self):
        vt = VarTable(["a", "b"])
        keys = dict(zip(_pack([(2, 0), (0, 1)], 1), [3, -1]))
        p = MultiPoly._from_packed(vt, (256, 1), keys)
        with pytest.raises(AttributeError):
            object.__getattribute__(p, "terms")
        assert str(p) == "3*a^2 - b"
        assert p.terms == {(2, 0): 3, (0, 1): -1}
        assert object.__getattribute__(p, "terms") is p.terms
        with pytest.raises(AttributeError):
            p.no_such_attribute


class TestEvalOracle:
    """MultiPoly.eval against term-by-term Fraction evaluation, at integer,
    rational and mixed points."""

    coord = st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-6, 6)),
    )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pair=poly_pairs(), data=st.data())
    def test_matches_fraction_evaluation(self, pair, data):
        for p in pair:
            if any(x > 255 for e in p.terms for x in e):
                continue  # a^(2^64) is out of reach of any evaluation
            point = {name: data.draw(self.coord) for name in p.vars.names}
            assert p.eval(point) == eval_fraction(p, point)

    def test_zero_constant_and_edge_points(self):
        empty = VarTable([])
        assert MultiPoly.zero(VT).eval({n: Fraction(1, 2) for n in VT.names}) == 0
        assert MultiPoly.const(VT, -4).eval({n: Fraction(3, 7) for n in VT.names}) == -4
        assert MultiPoly.const(empty, 5).eval({}) == 5
        p = parse("3*x^3*y - 2*x*z^2 + y^4 - 1", VT)
        for point in (
            {"x": Fraction(-2, 3), "y": Fraction(0), "z": Fraction(5, 4)},
            {"x": Fraction(4), "y": Fraction(-1), "z": Fraction(-7, 9)},
            {"x": Fraction(1, 2), "y": 3, "z": 0},
            {"x": 2, "y": -3, "z": 5},
        ):
            assert p.eval(point) == eval_fraction(p, point)
        # an integer point gives an int, with no Fraction in the way
        assert type(p.eval({"x": 2, "y": -3, "z": 5})) is int


class TestFactoredAndRational:
    def test_factored_expand_and_str(self):
        f = FactoredPolynomial([(parse("x + y", VT), 2), (parse("x", VT), 1)])
        assert expand(f) == parse("(x + y)^2 * x", VT)
        assert str(f) == "x * (x + y)^2"
        assert f.total_degree() == 3

    def test_factored_canonicalizes_sign(self):
        f = FactoredPolynomial([(parse("-x - y", VT), 1)])
        assert f.as_pairs() == [("x + y", 1)]

    def test_factored_monomial_power_parenthesized(self):
        f = FactoredPolynomial([(parse("x*y", VT), 2)])
        assert str(f) == "(x*y)^2"

    def test_rational_stored_as_given(self):
        # no cancellation: the common factor x + y stays on both sides
        num = parse("(x + y)*(x - y)", VT)
        den = FactoredPolynomial([(parse("x + y", VT), 2)])
        r = RationalFunction(num, den)
        assert (r.num, r.den) == (num, den)
        assert str(r) == "(x^2 - y^2) / ((x + y)^2)"
