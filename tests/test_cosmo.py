"""Tests for wavefunction coefficients, facet hyperplanes, and the
discriminants of the associated coefficient families."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdisc.errors import HypothesisError, SizeLimitError
from eulerdisc.graphs import CosmoGraph, connected_subgraphs
import eulerdisc.cosmo as cosmo
from eulerdisc.cosmo import (
    coefficient_family,
    cosmo_euler_disc,
    cosmo_pad,
    cosmo_pattern,
    energy_vars,
    MAX_PSI_TERMS,
    _level_sum,
    _psi_term_bound,
    _psi_width,
    facet_forms,
    wavefunction,
)
from eulerdisc.matroid import signed_euler_char
from eulerdisc.symcore import MultiPoly, _mul_into, canonical, parse
from oracles import psi_value


def two_site():
    return CosmoGraph.from_pairs(2, [(1, 2)])


def three_site():
    return CosmoGraph.from_pairs(3, [(1, 2), (2, 3)])


def bubble():
    return CosmoGraph.from_pairs(2, [(1, 2), (1, 2)])


def assert_coprime(psi, rng):
    """Exact oracle: for each denominator factor f, psi.num is nonzero at a
    rational point of {f = 0}, so f does not divide psi.num.

    The point is a random integer point r with the lead variable x_i of f
    moved onto {f = 0}; psi.num restricted to the line through r along x_i
    is computed once per i, as its coefficient of each power of x_i.
    """
    num = psi.num
    names = num.vars.names
    r = [rng.randint(1, 10**6) for _ in names]
    powers = [[x**d for d in range(num.total_degree() + 1)] for x in r]
    lines = {}
    for f, _ in psi.den.factors:
        lead = f.leading_exponent()
        i = lead.index(1)
        if i not in lines:
            line = lines[i] = {}
            for e, c in num.terms.items():
                for j, d in enumerate(e):
                    if d and j != i:
                        c *= powers[j][d]
                line[e[i]] = line.get(e[i], 0) + c
        point = dict(zip(names, r))
        point[names[i]] = 0
        t = point[names[i]] = Fraction(-f.eval(point), f.terms[lead])
        assert f.eval(point) == 0
        value = sum(c * t**d for d, c in lines[i].items())
        assert value != 0, f"{f} divides the numerator"


def psi_at(psi, point):
    """psi.num / (psi.den_const * the product of the denominator factors).

    The numerator is summed in integers: with x = a/b and d the highest
    power of x in it, x^k is a^k b^(d - k) over b^d, read from a table.
    Fraction arithmetic per term would take seconds on path6.
    """
    xs = [Fraction(point[name]) for name in psi.num.vars.names]
    top = [max(e[i] for e in psi.num.terms) for i in range(len(xs))]
    tables = [
        [x.numerator**k * x.denominator ** (d - k) for k in range(d + 1)]
        for x, d in zip(xs, top)
    ]
    total = 0
    for e, c in psi.num.terms.items():
        for table, k in zip(tables, e):
            c *= table[k]
        total += c
    den = Fraction(psi.den_const)
    for x, d in zip(xs, top):
        den *= x.denominator**d
    for p, e in psi.den.factors:
        den *= p.eval(point) ** e
    return total / den


def spans(n, edges):
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            w = b if a == v else a if b == v else None
            if w is not None and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def all_trees(n):
    """Every labelled tree on the vertices 1..n."""
    if n == 1:
        yield CosmoGraph.from_pairs(1, [])
        return
    verts = range(1, n + 1)
    for cand in combinations(combinations(verts, 2), n - 1):
        if spans(n, cand):
            yield CosmoGraph.from_pairs(n, list(cand))


def path6():
    return CosmoGraph.from_pairs(6, [(v, v + 1) for v in range(1, 6)])


@pytest.fixture(scope="module")
def tree_psis():
    """(g, wavefunction(g)) for all 146 labelled trees on up to 5 vertices,
    then the 6-path: each wavefunction is built once for the module."""
    graphs = [g for n in range(1, 6) for g in all_trees(n)] + [path6()]
    return [(g, wavefunction(g)) for g in graphs]


def star5():
    return CosmoGraph.from_pairs(5, [(1, v) for v in range(2, 6)])


@pytest.fixture(scope="module")
def star5_psi():
    return wavefunction(star5())


def random_tree(rng, n):
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    return CosmoGraph.from_pairs(n, edges)


class TestWavefunction:
    def test_single_site(self):
        g = CosmoGraph.from_pairs(1, [])
        psi = wavefunction(g)
        assert str(psi.num) == "1"
        assert psi.den.as_pairs() == [("X1", 1)]

    def test_two_site(self):
        psi = wavefunction(two_site())
        assert str(psi.num) == "1"
        assert dict(psi.den.as_pairs()) == {
            "X1 + X2": 1,
            "X1 + Y12": 1,
            "X2 + Y12": 1,
        }
        assert psi.den_const == 1

    def test_three_site(self):
        psi = wavefunction(three_site())
        assert str(psi.num) == "X1 + 2*X2 + X3 + Y12 + Y23"
        assert dict(psi.den.as_pairs()) == {
            "X1 + X2 + X3": 1,
            "X1 + Y12": 1,
            "X3 + Y23": 1,
            "X2 + Y12 + Y23": 1,
            "X1 + X2 + Y23": 1,
            "X2 + X3 + Y12": 1,
        }

    def test_denominator_squarefree_on_random_trees(self):
        rng = random.Random(501)
        for n in (2, 3, 4, 5):
            for _ in range(3):
                psi = wavefunction(random_tree(rng, n))
                assert all(e == 1 for _, e in psi.den.as_pairs())

    def test_rejects_cycles(self):
        with pytest.raises(HypothesisError):
            wavefunction(bubble())
        square = CosmoGraph.from_pairs(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(HypothesisError):
            wavefunction(square)

    def test_size_limit(self):
        g = CosmoGraph.from_pairs(9, [(v, v + 1) for v in range(1, 9)])
        with pytest.raises(SizeLimitError):
            wavefunction(g)

    def test_term_bound_gate_builds_nothing(self, monkeypatch):
        # star6 and caterpillar6 would need gigabytes; the gate refuses
        # them before a single polynomial exists
        def boom(*args, **kwargs):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(MultiPoly, "__init__", boom)
        monkeypatch.setattr(MultiPoly, "_raw", boom)
        star6 = CosmoGraph.from_pairs(6, [(1, v) for v in range(2, 7)])
        caterpillar6 = CosmoGraph.from_pairs(6, [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6)])
        for g, bound in ((star6, 254_186_856), (caterpillar6, 8_436_285)):
            assert _psi_term_bound(g) == bound
            with pytest.raises(SizeLimitError, match=f"{bound} terms"):
                wavefunction(g)

    def test_term_bound_admits_path6(self):
        path6 = CosmoGraph.from_pairs(6, [(v, v + 1) for v in range(1, 6)])
        assert _psi_term_bound(path6) == 184_756 <= MAX_PSI_TERMS

    def test_specialization_oracle(self):
        # check the symbolic three-site answer against a direct numeric
        # evaluation of the recursion at one point
        from fractions import Fraction

        psi = wavefunction(three_site())
        pt = {"X1": Fraction(2), "X2": Fraction(3), "X3": Fraction(5),
              "Y12": Fraction(7), "Y23": Fraction(11)}
        X1, X2, X3, Y12, Y23 = pt["X1"], pt["X2"], pt["X3"], pt["Y12"], pt["Y23"]

        def psi1(x):
            return 1 / x

        def psi2(xa, xb, y):
            return (1 / (xa + xb)) * psi1(xa + y) * psi1(xb + y)

        direct = (1 / (X1 + X2 + X3)) * (
            psi1(X1 + Y12) * psi2(X2 + Y12, X3, Y23)
            + psi2(X1, X2 + Y23, Y12) * psi1(X3 + Y23)
        )
        num = Fraction(psi.num.eval(pt))
        den = Fraction(psi.den_const)
        for p, e in psi.den.factors:
            den *= Fraction(p.eval(pt)) ** e
        assert num / den == direct

    def test_psi_oracle_on_all_small_trees(self, tree_psis, star5_psi):
        # every tree on up to 5 vertices, path6 and star5 against the
        # Fraction recursion of `oracles.psi_value`, at one seeded point
        # with positive rational energies each
        rng = random.Random(13)
        cases = tree_psis + [(star5(), star5_psi)]
        assert len(cases) == 148
        for g, psi in cases:
            point = {
                name: Fraction(rng.randint(1, 60), rng.randint(1, 12))
                for name in psi.num.vars.names
            }
            assert psi_at(psi, point) == psi_value(g, point)


class TestFacetForms:
    def test_two_site(self):
        forms = facet_forms(two_site())
        got = [(str(f.constant), f.alpha) for f in forms]
        assert got[0] == ("X1 + X2", (1, 1))
        assert set(got) == {
            ("X1 + X2", (1, 1)),
            ("X1 + Y12", (1, 0)),
            ("X2 + Y12", (0, 1)),
        }

    def test_three_site(self):
        forms = facet_forms(three_site())
        got = {(str(f.constant), f.alpha) for f in forms}
        assert len(forms) == len(got) == 6
        assert got == {
            ("X1 + X2 + X3", (1, 1, 1)),
            ("X1 + Y12", (1, 0, 0)),
            ("X2 + Y12 + Y23", (0, 1, 0)),
            ("X3 + Y23", (0, 0, 1)),
            ("X1 + X2 + Y23", (1, 1, 0)),
            ("X2 + X3 + Y12", (0, 1, 1)),
        }
        assert str(forms[0].constant) == "X1 + X2 + X3"

    def test_bubble_parallel_edges(self):
        forms = facet_forms(bubble())
        got = {(str(f.constant), f.alpha) for f in forms}
        assert got == {
            ("X1 + X2", (1, 1)),
            ("X1 + X2 + 2*Ya", (1, 1)),
            ("X1 + X2 + 2*Yb", (1, 1)),
            ("X1 + Ya + Yb", (1, 0)),
            ("X2 + Ya + Yb", (0, 1)),
        }
        assert str(forms[0].constant) == "X1 + X2"

    def test_tree_facets_match_wavefunction_denominator(self, tree_psis):
        # for every tree on up to 5 vertices, and the 6-path, the facet
        # constants at alpha-shift zero are exactly the denominator factors
        # of psi, and psi has the value of the recursion at a positive point
        rng = random.Random(9)
        assert len(tree_psis) == 147
        for g, psi in tree_psis:
            den = {p for p, _ in psi.den.as_pairs()}
            facets = {str(f.constant) for f in facet_forms(g)}
            assert den == facets
            assert len(psi.num.terms) <= _psi_term_bound(g) <= MAX_PSI_TERMS
            point = {name: rng.randint(1, 50) for name in psi.num.vars.names}
            assert psi_at(psi, point) == psi_value(g, point)
            if g.vertex_count <= 5:
                assert_coprime(psi, rng)

    def test_packed_width_holds_numerator_degree(self, tree_psis):
        # the gate admits every tree on up to 5 vertices and, of the
        # 6-vertex trees, only the paths; each numerator is homogeneous of
        # degree T - (2n - 1), which the width derived from T holds
        admitted6 = [g for g in all_trees(6) if _psi_term_bound(g) <= MAX_PSI_TERMS]
        assert len(admitted6) == 360
        for g in admitted6:
            assert max(sum(v in e[:2] for e in g.edges) for v in range(1, 7)) == 2
        for g, psi in tree_psis:
            n = g.vertex_count
            degree = len(connected_subgraphs(g)) - (2 * n - 1)
            assert {sum(e) for e in psi.num.terms} == {degree}
            assert degree < 256 ** _psi_width(g)

    def test_size_limits(self):
        path9 = CosmoGraph.from_pairs(9, [(v, v + 1) for v in range(1, 9)])
        with pytest.raises(SizeLimitError):
            facet_forms(path9)


def nonzero(d):
    return {k: c for k, c in d.items() if c}


def naive_level_sum(items, forms):
    """The sum of tn times the product of forms[p] over p in missing, one
    product per item, with zero coefficients dropped."""
    out = {}
    for tn, missing in items:
        prod = dict(tn)
        for p in missing:
            step = {}
            for k1, c1 in prod.items():
                for k2, c2 in forms[p].items():
                    step[k1 + k2] = step.get(k1 + k2, 0) + c1 * c2
            prod = step
        for k, c in prod.items():
            out[k] = out.get(k, 0) + c
    return nonzero(out)


packed_dicts = st.dictionaries(st.integers(0, 4000), st.integers(-9, 9), min_size=1, max_size=6)


@st.composite
def level_items(draw):
    keys = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True))
    forms = {p: draw(packed_dicts) for p in keys}
    items = draw(st.lists(
        st.tuples(packed_dicts, st.frozensets(st.sampled_from(keys))),
        min_size=1, max_size=7,
    ))
    return items, forms


class TestLevelSum:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(level_items())
    def test_matches_naive_sum(self, case):
        items, forms = case
        out = _level_sum({}, items, forms)
        assert nonzero(out) == naive_level_sum(items, forms)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(level_items(), packed_dicts)
    def test_adds_to_what_out_holds(self, case, start):
        items, forms = case
        out = _level_sum(dict(start), items, forms)
        want = dict(start)
        for k, c in naive_level_sum(items, forms).items():
            want[k] = want.get(k, 0) + c
        assert nonzero(out) == nonzero(want)

    def test_single_item(self):
        forms = {7: {1: 1, 2: 3}, 9: {4: 2}}
        items = [({0: 2, 5: 1}, frozenset([7, 9]))]
        assert _level_sum({}, items, forms) == naive_level_sum(items, forms)

    def test_empty_missing_sets(self):
        items = [({0: 2, 5: 1}, frozenset()), ({5: 4, 6: 1}, frozenset())]
        assert _level_sum({}, items, {}) == {0: 2, 5: 5, 6: 1}

    def test_form_every_item_shares_is_multiplied_once(self, monkeypatch):
        # the form missing from all items multiplies their sum once
        forms = {3: {1: 1, 10: 1}, 4: {100: 1, 200: 2}, 5: {1000: 3}}
        items = [
            ({0: 1, 2: 5}, frozenset([3, 4])),
            ({2: 2}, frozenset([3])),
            ({7: 1}, frozenset([3, 5])),
        ]
        calls = []

        def counting(out, big, small):
            calls.append(small)
            return _mul_into(out, big, small)

        monkeypatch.setattr(cosmo, "_mul_into", counting)
        assert _level_sum({}, items, forms) == naive_level_sum(items, forms)
        assert sum(small is forms[3] for small in calls) == 1

    def test_most_shared_form_first_smallest_key_on_tie(self, monkeypatch):
        forms = {p: {p: 1} for p in (11, 12, 13)}
        items = [
            ({0: 1}, frozenset([12, 13])),
            ({1: 1}, frozenset([11, 13])),
            ({2: 1}, frozenset([11, 12])),
        ]
        order = []

        def recording(out, big, small):
            order.append(next(iter(small)))
            return _mul_into(out, big, small)

        monkeypatch.setattr(cosmo, "_mul_into", recording)
        _level_sum({}, items, forms)
        # each form is missing from two items: 11, the smallest, takes the
        # second and third (left with 13 and 12 apart) and multiplies their
        # sum once, and the first takes its own products
        assert order[:3] == [13, 12, 11]
        assert sorted(order[3:]) == [12, 13]


class TestPsiRegression:
    # sha256 of str(wavefunction(g)), recorded before the level sum was
    # Horner-factored; the products are exact, so the text is unchanged
    SHA256 = {
        "star5": "f6351613745a6035a6249c462a418ce8509723b6a9d4b6c84a47d998c9b64c35",
        "path6": "c1b2d68052f8024c4cc4a26d328c0050b068b1c1f205350176b734eedee46757",
    }
    # multiply-kernel pair updates, len(big) * len(small) per call, of the
    # Horner level sum; one product per edge term and missing form took
    # 1,640,140 and 2,651,712
    PAIR_UPDATES = {"star5": 1_113_360, "path6": 1_624_307}

    def test_recorded_text(self, tree_psis, star5_psi):
        g, path6_psi = tree_psis[-1]
        assert g.edges == path6().edges
        for name, psi in (("star5", star5_psi), ("path6", path6_psi)):
            assert hashlib.sha256(str(psi).encode()).hexdigest() == self.SHA256[name]

    def test_pair_updates(self, monkeypatch):
        # a guard on the work the recursion does that does not depend on
        # machine load
        count = [0]

        def counting(out, big, small):
            count[0] += len(big) * len(small)
            return _mul_into(out, big, small)

        monkeypatch.setattr(cosmo, "_mul_into", counting)
        for name, g in (("star5", star5()), ("path6", path6())):
            count[0] = 0
            wavefunction(g)
            assert count[0] <= self.PAIR_UPDATES[name], name


class TestCoefficientFamily:
    def test_two_site_shape(self):
        fam = coefficient_family(two_site())
        assert fam.k == 2
        assert fam.ncols == 3
        assert [str(p) for p in fam.entries[0]] == ["X1 + X2", "X1 + Y12", "X2 + Y12"]
        assert [str(p) for p in fam.entries[1]] == ["1", "1", "0"]
        assert [str(p) for p in fam.entries[2]] == ["1", "0", "1"]

    def test_pattern_graph(self):
        g = cosmo_pattern(two_site())
        assert g.left_size == 3 and g.right_size == 3
        assert (1, 5) not in g.edges and (2, 4) not in g.edges
        assert len(g.edges) == 7

    def test_three_site_pattern_sparsity(self):
        g = cosmo_pattern(three_site())
        assert g.left_size == 4 and g.right_size == 6
        missing = {(i, j - 4) for i in range(4) for j in range(4, 10)
                   if (i, j) not in g.edges}
        assert missing == {
            (1, 2), (1, 3), (1, 5), (2, 1), (2, 3), (3, 1), (3, 2), (3, 4),
        }


class TestCosmoPad:
    def test_two_site_degree(self):
        e = cosmo_pad(two_site())
        assert e.total_degree() == 20
        assert len(e.factors) == 10

    def test_three_site_degree(self):
        e = cosmo_pad(three_site())
        assert e.total_degree() == 270


class TestCosmoEulerDisc:
    def test_two_site(self):
        rep = cosmo_euler_disc(two_site())
        assert rep.chi_star == 4
        vt = energy_vars(two_site())
        expected = {
            (str(parse(s, vt)), k)
            for s, k in [
                ("X1+X2", 1), ("X1+Y12", 2), ("X2+Y12", 2),
                ("X1-Y12", 1), ("X2-Y12", 1), ("Y12", 1),
            ]
        }
        assert set(rep.with_multiplicity.as_pairs()) == expected
        assert not rep.has_unknown

    def test_three_site(self):
        rep = cosmo_euler_disc(three_site())
        assert rep.chi_star == 25
        assert rep.with_multiplicity.total_degree() == 77
        vt = energy_vars(three_site())
        expected = {
            (str(parse(s, vt)), k)
            for s, k in [
                ("X1+X2+X3", 1), ("X1+Y12", 10), ("X2+Y12+Y23", 9),
                ("X3+Y23", 10), ("X1+X2+Y23", 3), ("X2+X3+Y12", 3),
                ("X2+X3-Y12", 1), ("X3-Y23", 6), ("X1+X3-Y12-Y23", 1),
                ("X1-Y12", 6), ("X1+X2-Y23", 1), ("X1-X3-Y12+Y23", 1),
                ("X2-Y12+Y23", 3), ("X2+Y12-Y23", 3), ("Y12", 6),
                ("Y23", 6), ("X3-2*Y12-Y23", 1), ("X1-Y12-2*Y23", 1),
                ("X2-Y12-Y23", 1), ("X1-Y12+2*Y23", 1), ("X3+2*Y12-Y23", 1),
                ("Y12-Y23", 1), ("Y12+Y23", 1),
            ]
        }
        assert set(rep.with_multiplicity.as_pairs()) == expected
        assert not rep.has_unknown
        y_flagged = {
            str(f)
            for f, _, _, flags in rep.per_factor
            if "numerator-normalized" in flags
        }
        assert y_flagged == {"Y12", "Y23"}


def triangle():
    return CosmoGraph.from_pairs(3, [(1, 2), (2, 3), (1, 3)])


# Recorded, not independent: the factor -> exponent table of the triangle at
# seed 0, as the CLI printed it before the beta layer moved to integer
# matrices (the same table the benchmark checks its reports against).
TRIANGLE_FACTORS = {
    "X1 + X2 + 2*Y12 - Y23 - Y13": 1, "X1 + X2 + X3": 1, "X1 + X2 + X3 + 2*Y12": 1,
    "X1 + X2 + X3 + 2*Y13": 1, "X1 + X2 + X3 + 2*Y23": 1, "X1 + X2 + Y23 + Y13": 7,
    "X1 + X2 + Y23 - Y13": 1, "X1 + X2 - Y23 + Y13": 1, "X1 + X2 - Y23 - Y13": 1,
    "X1 + X3 + Y12 + Y23": 7, "X1 + X3 + Y12 - Y23": 1, "X1 + X3 - Y12 + Y23": 1,
    "X1 + X3 - Y12 - Y23": 1, "X1 + X3 - Y12 - Y23 + 2*Y13": 1,
    "X1 + Y12 + 2*Y23 + Y13": 1, "X1 + Y12 + 2*Y23 - Y13": 2, "X1 + Y12 + Y13": 29,
    "X1 + Y12 - 2*Y23 - Y13": 1, "X1 + Y12 - Y13": 11, "X1 + Y23": 1,
    "X1 - X2 + Y23 - Y13": 1, "X1 - X3 - Y12 + Y23": 1, "X1 - Y12 + 2*Y23 + Y13": 2,
    "X1 - Y12 + 2*Y23 - Y13": 5, "X1 - Y12 + Y13": 11, "X1 - Y12 - 2*Y23 + Y13": 1,
    "X1 - Y12 - 2*Y23 - Y13": 1, "X1 - Y12 - Y13": 6, "X2 + X3 + Y12 + Y13": 7,
    "X2 + X3 + Y12 - Y13": 1, "X2 + X3 - Y12 + 2*Y23 - Y13": 1,
    "X2 + X3 - Y12 + Y13": 1, "X2 + X3 - Y12 - Y13": 1, "X2 + Y12 + Y23": 29,
    "X2 + Y12 + Y23 + 2*Y13": 1, "X2 + Y12 - Y23": 11, "X2 + Y12 - Y23 + 2*Y13": 2,
    "X2 + Y12 - Y23 - 2*Y13": 1, "X2 + Y13": 1, "X2 - X3 - Y12 + Y13": 1,
    "X2 - Y12 + Y23": 11, "X2 - Y12 + Y23 + 2*Y13": 2, "X2 - Y12 + Y23 - 2*Y13": 1,
    "X2 - Y12 - Y23": 6, "X2 - Y12 - Y23 + 2*Y13": 5, "X2 - Y12 - Y23 - 2*Y13": 1,
    "X3 + 2*Y12 + Y23 + Y13": 1, "X3 + 2*Y12 + Y23 - Y13": 2,
    "X3 + 2*Y12 - Y23 + Y13": 2, "X3 + 2*Y12 - Y23 - Y13": 5, "X3 + Y12": 1,
    "X3 + Y23 + Y13": 29, "X3 + Y23 - Y13": 11, "X3 - 2*Y12 + Y23 - Y13": 1,
    "X3 - 2*Y12 - Y23 + Y13": 1, "X3 - 2*Y12 - Y23 - Y13": 1, "X3 - Y23 + Y13": 11,
    "X3 - Y23 - Y13": 6, "Y12": 33, "Y12 + Y13": 6, "Y12 + Y23": 6,
    "Y12 + Y23 + Y13": 2, "Y12 + Y23 - Y13": 6, "Y12 - Y13": 20, "Y12 - Y23": 20,
    "Y12 - Y23 + Y13": 6, "Y12 - Y23 - Y13": 6, "Y13": 33, "Y23": 33, "Y23 + Y13": 6,
    "Y23 - Y13": 20,
}


@pytest.fixture(scope="module")
def triangle_report():
    return cosmo_euler_disc(triangle(), seed=0)


class TestEulerDiscRegression:
    def test_triangle_recorded_table(self, triangle_report):
        data = triangle_report.to_dict()
        assert data["chi_star"] == 99
        assert data["degree"] == 450
        assert {f["poly"]: f["exponent"] for f in data["factors"]} == TRIANGLE_FACTORS

    def test_consecutive_calls_agree(self, triangle_report):
        assert cosmo_euler_disc(triangle(), seed=0).to_dict() == triangle_report.to_dict()

    def test_no_module_level_beta_cache(self, triangle_report):
        # The beta memo lives for one euler_disc call; nothing in the module
        # keeps state between calls.
        from eulerdisc import matroid

        state = [
            name
            for name, value in vars(matroid).items()
            if not name.startswith("__")
            and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
        ]
        assert state == []


def path4():
    return CosmoGraph.from_pairs(4, [(1, 2), (2, 3), (3, 4)])


def star4():
    return CosmoGraph.from_pairs(4, [(1, 2), (1, 3), (1, 4)])


def cycle4():
    return CosmoGraph.from_pairs(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


class TestOrbitWitnesses:
    """Every factor's exponent, orbit images included, is the chi drop at
    its reported witness, recomputed here with a fresh beta, and the
    witness lies on its factor and on no other."""

    @pytest.mark.parametrize("make", [triangle, path4, star4])
    def test_every_witness_is_exact(self, make):
        g = make()
        fam = coefficient_family(g)
        rep = cosmo_euler_disc(g, seed=0)
        assert not rep.has_unknown
        factors = [f for f, _, _, _ in rep.per_factor]
        for f, e, w, _ in rep.per_factor:
            assert f.eval(w) == 0
            assert all(q.eval(w) != 0 for q in factors if q is not f)
            assert signed_euler_char(fam.z_at(w)) == rep.chi_star - e


# Recorded, not independent: the factor -> exponent table of the 4-cycle at
# seed 0.  A search with the box fixed at [-12, 12] and no orbits found 382
# of these exponents, all equal to the recorded ones, and reported the
# other 141 factors "unknown".
CYCLE4 = json.loads((Path(__file__).parent / "fixtures" / "cycle4_disc.json").read_text())


class TestCycle4Regression:
    def test_recorded_table_without_unknown(self):
        data = cosmo_euler_disc(cycle4(), seed=0).to_dict()
        assert not data["has_unknown"]
        assert data["chi_star"] == CYCLE4["chi_star"] == 1525
        assert data["degree"] == CYCLE4["degree"]
        table = {f["poly"]: f["exponent"] for f in data["factors"]}
        assert len(table) == 523
        assert table == CYCLE4["factors"]


@st.composite
def relabelled_graphs(draw):
    """(g, relabelled g, energy renaming) for a connected multigraph g on
    at most 4 vertices: a tree plus extra edges, loops and parallel edges
    among them, at most 4 edges in all and 3 on 4 vertices (a 4-vertex
    graph with 4 edges takes seconds)."""
    n = draw(st.integers(1, 4))
    pairs = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    vertex = st.integers(1, n)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=(3 if n == 4 else 4) - len(pairs)))
    pairs += [tuple(sorted(p)) for p in extra]
    perm = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    g = CosmoGraph.from_pairs(n, pairs)
    h = CosmoGraph.from_pairs(n, [(perm[i], perm[j]) for i, j in pairs])
    # from_pairs keeps the edge order, so the k-th edge of g is the k-th of h
    rename = {f"X{v}": f"X{perm[v]}" for v in perm}
    rename.update({f"Y{a[2]}": f"Y{b[2]}" for a, b in zip(g.edges, h.edges)})
    return g, h, rename


class TestRelabelling:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(case=relabelled_graphs())
    def test_relabelling_permutes_factors_and_keeps_exponents(self, case):
        g, h, rename = case
        rep_g = cosmo_euler_disc(g, seed=0)
        rep_h = cosmo_euler_disc(h, seed=0)
        assert rep_g.chi_star == rep_h.chi_star
        vt_h = energy_vars(h)
        images = {name: MultiPoly.var(vt_h, rename[name]) for name in energy_vars(g).names}
        moved = {canonical(f.subs(images))[0]: e for f, e, _, _ in rep_g.per_factor}
        assert moved == {f: e for f, e, _, _ in rep_h.per_factor}
        assert not rep_g.has_unknown
