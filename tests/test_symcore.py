"""Tests for the exact polynomial core.

Randomized checks use a seeded generator; oracles are independent of the
implementation under test (evaluation homomorphisms, cofactor expansion,
construct-then-check for gcd).
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdisc.errors import InputError
from eulerdisc.symcore import (
    FactoredPolynomial,
    MultiPoly,
    RationalFunction,
    VarTable,
    canonical,
    coprime_basis,
    det,
    exact_div,
    factor_multiplicity,
    minors,
    parse,
    poly_gcd,
    try_div,
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
            q = p.subs(images)
            pt = rand_point(rng, vt2)
            expected = p.eval({name: images[name].eval(pt) for name in VT.names})
            assert q.eval(pt) == expected


class TestParsePrint:
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
            assert det(m) == oracle(m)

    def test_row_swap_negates(self):
        rng = random.Random(62)
        for _ in range(10):
            m = [[rand_poly(rng, max_terms=2, max_deg=1) for _ in range(4)] for _ in range(4)]
            swapped = [m[1], m[0]] + m[2:]
            assert det(swapped) == -det(m)

    def test_singular_integer_matrix(self):
        one = MultiPoly.const(VT, 1)
        m = [[one, one, one, one] for _ in range(4)]
        assert det(m).is_zero

    def test_symbolic_three_by_three(self):
        names = [f"z{i}{j}" for i in range(3) for j in range(3, 6)]
        vt = VarTable(names)
        m = [[MultiPoly.var(vt, f"z{i}{j}") for j in range(3, 6)] for i in range(3)]
        d = det(m)
        assert len(d.terms) == 6
        assert d.total_degree() == 3
        pt = {name: k * k + 1 for k, name in enumerate(names)}
        import numpy as np

        arr = np.array([[pt[f"z{i}{j}"] for j in range(3, 6)] for i in range(3)])
        assert d.eval(pt) == round(float(np.linalg.det(arr)))


def leibniz(m, vars):
    """Oracle: the determinant as the signed sum over permutations."""
    n = len(m)
    total = MultiPoly.zero(vars)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = MultiPoly.const(vars, sign)
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


def leibniz_minors(m, vars):
    """Every balanced (I, J) of m with the Leibniz value of its minor, by
    size, then I, then J."""
    nr, nc = len(m), len(m[0])
    out = []
    for size in range(1, min(nr, nc) + 1):
        for I in combinations(range(nr), size):
            for J in combinations(range(nc), size):
                out.append(((I, J), leibniz([[m[i][j] for j in J] for i in I], vars)))
    return out


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
        from eulerdisc.discriminant import ParamFamily
        from eulerdisc.graphs import CosmoGraph

        triangle = coefficient_family(CosmoGraph.from_pairs(3, [(1, 2), (2, 3), (1, 3)]))
        z1 = ParamFamily.from_strings(
            2,
            ["w1", "w2", "w3"],
            [["w1+w2", "1", "0", "0"], ["1", "0", "1", "w2+w3"], ["0", "w1-w3", "w1+w2+w3", "1"]],
        )
        for fam in (triangle, z1):
            expected = [v for _, v in leibniz_minors(fam.entries, fam.params) if not v.is_zero]
            assert fam.all_minors() == expected

    def test_det_rejects_bad_input(self):
        x = MultiPoly.var(VT, "x")
        with pytest.raises(ValueError):
            det([])
        with pytest.raises(ValueError):
            det([[x, x]])
        with pytest.raises(ValueError):
            det([[x], [x, x]])
        with pytest.raises(ValueError):
            det([[x, x], [x, MultiPoly.var(VarTable(["x"]), "x")]])


class TestMulPackedBigInt:
    """Products whose coefficients or packed exponent keys overflow int64
    take the big-integer loop of MultiPoly._mul_packed.  Each product is
    (p + q)(p - q), so its cross terms cancel exactly."""

    @staticmethod
    def check_product(a, b, monkeypatch, rng):
        import numpy as np

        def int64_branch(*args, **kwargs):
            raise AssertionError("the int64 branch ran")

        with monkeypatch.context() as mp:
            mp.setattr(np, "unique", int64_branch)
            prod = a * b
        # partial products over chunks of b small enough for the tuple loop
        step = 4096 // len(a.terms)
        items = list(b.terms.items())
        expected = MultiPoly.zero(a.vars)
        for k in range(0, len(items), step):
            chunk = MultiPoly(b.vars, dict(items[k : k + step]))
            assert len(a.terms) * len(chunk.terms) <= 4096
            expected = expected + a * chunk
        assert prod == expected
        for _ in range(3):
            pt = {name: rng.randint(-3, 3) for name in a.vars.names}
            assert prod.eval(pt) == a.eval(pt) * b.eval(pt)

    def test_large_coefficients(self, monkeypatch):
        rng = random.Random(81)

        def big_poly():
            terms = {}
            while len(terms) < 40:
                e = tuple(rng.randint(0, 6) for _ in VT.names)
                terms[e] = rng.choice([-1, 1]) * rng.randint(1 << 31, 1 << 40)
            return MultiPoly(VT, terms)

        p, q = big_poly(), big_poly()
        a, b = p + q, p - q
        assert len(a.terms) * len(b.terms) > 4096
        assert min(abs(c) for c in a.terms.values()) >= 1 << 31
        self.check_product(a, b, monkeypatch, rng)

    def test_wide_exponent_keys(self, monkeypatch):
        rng = random.Random(82)
        vt = VarTable([f"v{i}" for i in range(10)])

        def high_degree_poly():
            terms = {}
            while len(terms) < 35:
                e = tuple(rng.randint(0, 60) for _ in vt.names)
                terms[e] = rng.choice([-2, -1, 1, 2])
            return MultiPoly(vt, terms)

        p, q = high_degree_poly(), high_degree_poly()
        a, b = p + q, p - q
        # 7-bit exponent fields for each of 10 variables: at least 63 key bits
        assert all(max(e[i] for e in a.terms) + max(e[i] for e in b.terms) >= 64 for i in range(10))
        self.check_product(a, b, monkeypatch, rng)


class TestFactoredAndRational:
    def test_factored_expand_and_str(self):
        f = FactoredPolynomial([(parse("x + y", VT), 2), (parse("x", VT), 1)])
        assert f.expand() == parse("(x + y)^2 * x", VT)
        assert str(f) == "x * (x + y)^2"
        assert f.total_degree() == 3

    def test_factored_canonicalizes_sign(self):
        f = FactoredPolynomial([(parse("-x - y", VT), 1)])
        assert f.as_pairs() == [("x + y", 1)]

    def test_factored_monomial_power_parenthesized(self):
        f = FactoredPolynomial([(parse("x*y", VT), 2)])
        assert str(f) == "(x*y)^2"

    def test_rational_reduction(self):
        num = parse("(x + y)*(x - y)", VT)
        den = FactoredPolynomial([(parse("x + y", VT), 2)])
        r = RationalFunction(num, den)
        assert r.num == parse("x - y", VT)
        assert r.den.as_pairs() == [("x + y", 1)]

    def test_rational_add_mul_against_eval(self):
        rng = random.Random(71)
        a = RationalFunction(parse("x", VT), FactoredPolynomial([(parse("y + 1", VT), 1)]))
        b = RationalFunction(parse("y", VT), FactoredPolynomial([(parse("x + 2", VT), 1)]), 3)
        s = a + b
        p = a * b
        for _ in range(20):
            pt = {n: Fraction(rng.randint(2, 9)) for n in VT.names}
            va = Fraction(a.num.eval(pt), a.den.expand(VT).eval(pt) * a.den_const)
            vb = Fraction(b.num.eval(pt), b.den.expand(VT).eval(pt) * b.den_const)
            vs = Fraction(s.num.eval(pt), s.den.expand(VT).eval(pt) * s.den_const)
            vp = Fraction(p.num.eval(pt), p.den.expand(VT).eval(pt) * p.den_const)
            assert vs == va + vb
            assert vp == va * vb
