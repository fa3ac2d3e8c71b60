"""Tests for the exact polynomial core.

Randomized checks use a seeded generator; oracles are independent of the
implementation under test (evaluation homomorphisms, cofactor expansion,
construct-then-check for gcd).
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

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
