"""Tests for wavefunction coefficients, facet hyperplanes, and the
discriminants of the associated coefficient families."""

import random
from itertools import combinations

import pytest

from eulerdisc.errors import HypothesisError, SizeLimitError
from eulerdisc.graphs import CosmoGraph
from eulerdisc.cosmo import (
    coefficient_family,
    cosmo_euler_disc,
    cosmo_pad,
    cosmo_pattern,
    energy_vars,
    facet_forms,
    wavefunction,
)
from eulerdisc.symcore import MultiPoly, parse


def two_site():
    return CosmoGraph.from_pairs(2, [(1, 2)])


def three_site():
    return CosmoGraph.from_pairs(3, [(1, 2), (2, 3)])


def bubble():
    return CosmoGraph.from_pairs(2, [(1, 2), (1, 2)])


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

    def test_tree_facets_match_wavefunction_denominator(self):
        # for every tree on up to 5 vertices, the facet constants at
        # alpha-shift zero are exactly the denominator factors of psi
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
            if n == 1:
                yield CosmoGraph.from_pairs(1, [])
                return
            verts = range(1, n + 1)
            for cand in combinations(combinations(verts, 2), n - 1):
                if spans(n, cand):
                    yield CosmoGraph.from_pairs(n, list(cand))

        for n in range(1, 6):
            for g in all_trees(n):
                psi = wavefunction(g)
                den = {p for p, _ in psi.den.as_pairs()}
                facets = {str(f.constant) for f in facet_forms(g)}
                assert den == facets

    def test_size_limits(self):
        path9 = CosmoGraph.from_pairs(9, [(v, v + 1) for v in range(1, 9)])
        with pytest.raises(SizeLimitError):
            facet_forms(path9)


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
