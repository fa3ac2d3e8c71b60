"""Tests for the principal A-determinant and Euler discriminant pipelines."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdisc.cosmo import coefficient_family
from eulerdisc.errors import HypothesisError, InputError
from eulerdisc.graphs import (
    CosmoGraph,
    PatternGraph,
    automorphisms,
    condition_star,
    induced,
    is_connected,
)
from eulerdisc.lattice import edge_config
from eulerdisc.matroid import generic_euler_char, signed_euler_char
from eulerdisc import discriminant
from eulerdisc.discriminant import (
    DiscriminantReport,
    ParamFamily,
    degree_check,
    euler_disc,
    pad_dense,
    pad_sparse,
    pattern_vars,
    witness_point,
)
from eulerdisc.symcore import (
    PRIME,
    FactoredPolynomial,
    MultiPoly,
    VarTable,
    canonical,
    coprime_basis,
    eval_mod_p,
    parse,
    residue_terms,
    residues,
)
from oracles import expand


def two_site_pattern():
    return PatternGraph(3, 3, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5)])


def artificial_pattern():
    return PatternGraph(3, 4, [(0, 3), (0, 4), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)])


def z1_family():
    rows = [
        ["w1+w2", "1", "0", "0"],
        ["1", "0", "1", "w2+w3"],
        ["0", "w1-w3", "w1+w2+w3", "1"],
    ]
    return ParamFamily.from_strings(2, ["w1", "w2", "w3"], rows)


def triangle_family():
    return coefficient_family(CosmoGraph.from_pairs(3, [(1, 2), (2, 3), (1, 3)]))


def z2_family():
    fam = z1_family()
    vt2 = VarTable(["w1", "w2"])
    sub = {"w3": parse("-w1-w2", vt2)}
    entries = [[p.subs(sub) for p in row] for row in fam.entries]
    return ParamFamily(2, vt2, entries)


class TestPadSparse:
    def test_single_edge(self):
        e = pad_sparse(PatternGraph(1, 1, [(0, 1)]))
        assert e.as_pairs() == [("z01", 1)]

    def test_two_site(self):
        e = pad_sparse(two_site_pattern())
        assert str(e) == (
            "z03 * z04^2 * z05^2 * z13^2 * z14^2 * z23^2 * z25^2"
            " * (z03*z14 - z04*z13) * (z03*z25 - z05*z23)"
            " * (z03*z14*z25 - z04*z13*z25 - z05*z14*z23)"
        )
        assert e.total_degree() == 20

    def test_artificial(self):
        e = pad_sparse(artificial_pattern())
        vt = pattern_vars(artificial_pattern())
        expected = {
            (str(parse(s, vt)), k)
            for s, k in [
                ("z03", 3), ("z04", 3), ("z13", 3), ("z24", 3),
                ("z15", 2), ("z25", 2), ("z16", 2), ("z26", 2),
                ("z15*z26 - z16*z25", 2),
                ("z03*z15*z24 + z04*z13*z25", 1),
                ("z03*z16*z24 + z04*z13*z26", 1),
            ]
        }
        assert set(e.as_pairs()) == expected
        assert e.total_degree() == 30

    def test_rejects_disconnected(self):
        g = PatternGraph(2, 2, [(0, 2), (1, 3)])
        with pytest.raises(HypothesisError):
            pad_sparse(g)

    def test_matching_failures_give_zero_minors(self):
        # a balanced (I, J) with no perfect matching in the induced graph
        # has an identically zero minor, so skipping it loses nothing
        from itertools import combinations

        from eulerdisc.discriminant import _symbolic_block
        from eulerdisc.graphs import saturating_matching
        from eulerdisc.symcore import minors

        g = artificial_pattern()
        vt = pattern_vars(g)
        minor = minors(_symbolic_block(g, vt))
        jcols = {j: c for c, j in enumerate(g.right)}
        seen_zero = 0
        for size in range(1, 4):
            for I in combinations(g.left, size):
                for J in combinations(g.right, size):
                    h = induced(g, I, J)
                    if saturating_matching(h, side="left") is None:
                        m = minor(I, tuple(jcols[j] for j in J))
                        assert m.is_zero
                        seen_zero += 1
        assert seen_zero > 0


class TestPadDense:
    def test_smallest(self):
        assert pad_dense(0, 1).as_pairs() == [("z01", 1)]

    def test_two_by_two_block(self):
        e = pad_dense(1, 3)
        names = {p for p, _ in e.as_pairs()}
        assert names == {"z02", "z03", "z12", "z13", "z02*z13 - z03*z12"}

    def test_degree_identity(self):
        g = PatternGraph(2, 3, [(i, 2 + j) for i in range(2) for j in range(3)])
        assert degree_check(pad_dense(1, 4), edge_config(g))

    def test_input_validation(self):
        with pytest.raises(InputError):
            pad_dense(2, 2)


class TestDegreeCheck:
    def test_paper_examples(self):
        assert degree_check(pad_sparse(two_site_pattern()), edge_config(two_site_pattern()))
        assert degree_check(pad_sparse(artificial_pattern()), edge_config(artificial_pattern()))

    def test_detects_mismatch(self):
        vt = pattern_vars(two_site_pattern())
        wrong = FactoredPolynomial([(parse("z03", vt), 1)])
        assert not degree_check(wrong, edge_config(two_site_pattern()))


class TestWitnessPoint:
    def test_linear(self):
        vt = VarTable(["w1", "w2"])
        delta = parse("w1 + w2", vt)
        w = witness_point(delta, seed=3)
        assert w is not None and delta.eval(w) == 0

    def test_respects_avoid(self):
        vt = VarTable(["w1", "w2"])
        delta = parse("w1 + w2", vt)
        avoid = [parse("w1 - 1", vt), parse("w2 + 5", vt)]
        w = witness_point(delta, avoid=avoid, seed=4)
        assert delta.eval(w) == 0
        assert all(a.eval(w) != 0 for a in avoid)

    def test_quadratic_found_by_root_search(self):
        vt = VarTable(["u", "v"])
        # (u - v)(u + v) = u^2 - v^2: quadratic in each variable's slice
        delta = parse("u^2 - v^2", vt)
        w = witness_point(delta, seed=5)
        assert w is not None and delta.eval(w) == 0

    def test_absent_is_none(self):
        vt = VarTable(["u", "v"])
        # u^2 + v^2 + 1 has no rational (or real) zeros
        delta = parse("u^2 + v^2 + 1", vt)
        assert witness_point(delta, seed=6, budget=40) is None

    def test_rejects_constant(self):
        vt = VarTable(["u"])
        with pytest.raises(InputError):
            witness_point(parse("3", vt))

    def test_deterministic(self):
        vt = VarTable(["u", "v", "w"])
        delta = parse("u*v - w^2 + 1", vt)
        assert witness_point(delta, seed=9) == witness_point(delta, seed=9)


class TestWitnessBox:
    def test_linear_delta_against_many_random_hyperplanes(self):
        vt = VarTable(["u", "v", "w", "x"])
        rng = random.Random(77)
        for trial in range(5):
            delta = MultiPoly(vt, {e: rng.choice([-2, -1, 1, 2]) for e in
                                   [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]})
            avoid = []
            while len(avoid) < 60:
                coeffs = [rng.randint(-3, 3) for _ in range(5)]
                terms = {tuple(int(i == k) for i in range(4)): c for k, c in enumerate(coeffs[:4])}
                terms[(0, 0, 0, 0)] = coeffs[4]
                a = MultiPoly(vt, terms)
                # no witness exists when a is a multiple of delta
                if a.total_degree() == 1 and canonical(a)[0] != canonical(delta)[0]:
                    avoid.append(a)
            w = witness_point(delta, avoid=avoid, seed=trial)
            assert w is not None and delta.eval(w) == 0
            assert all(a.eval(w) != 0 for a in avoid)

    def test_box_outgrows_every_value_the_old_box_could_draw(self):
        # the avoid set removes v = c / d for every c in [-12, 12] and
        # d in {1, 2, 3}: every value a box of [-12, 12] with those
        # denominators can give v, by a draw or by solving u + v = 0 for a
        # drawn u.  75 hyperplanes make the box [-75, 75].
        vt = VarTable(["u", "v"])
        delta = parse("u + v", vt)
        avoid = [parse(f"{d}*v - ({c})", vt) for d in (1, 2, 3) for c in range(-12, 13)]
        w = witness_point(delta, avoid=avoid, seed=0)
        assert w is not None and delta.eval(w) == 0
        assert all(a.eval(w) != 0 for a in avoid)
        assert abs(w["v"]) > 12
        # 12 hyperplanes keep the box at [-12, 12]
        for seed in range(20):
            w = witness_point(delta, avoid=avoid[:12], seed=seed)
            assert max(abs(w["u"]), abs(w["v"])) <= 12


class TestSymmetries:
    def test_one_search_per_orbit(self, monkeypatch):
        g = CosmoGraph.from_pairs(3, [(1, 2), (2, 3), (1, 3)])
        fam = coefficient_family(g)
        renamings = [
            {**{f"X{v}": f"X{t}" for v, t in vmap.items()},
             **{f"Y{e}": f"Y{t}" for e, t in emap.items()}}
            for vmap, emap in automorphisms(g)
        ]
        plain = euler_disc(fam, seed=0)
        searched = []
        search = discriminant.witness_point
        monkeypatch.setattr(discriminant, "witness_point",
                            lambda delta, *a, **k: searched.append(delta) or search(delta, *a, **k))
        rep = euler_disc(fam, seed=0, symmetries=renamings)
        # orbits of the factor set, by substituting each renaming
        vt = fam.params
        factors = [f for f, _, _, _ in plain.per_factor]
        orbits = {
            frozenset(canonical(f.subs({x: MultiPoly.var(vt, r[x]) for x in vt.names}))[0]
                      for r in renamings)
            for f in factors
        }
        assert len(orbits) < len(factors)
        first = [next(f for f in factors if f in orbit) for orbit in orbits]
        assert sorted(map(str, searched)) == sorted(map(str, first * 2))
        assert rep.with_multiplicity == plain.with_multiplicity
        # the first factor of each orbit keeps its own witness
        assert [w for f, _, w, _ in rep.per_factor if f in first] == \
            [w for f, _, w, _ in plain.per_factor if f in first]

    def test_renaming_that_moves_a_factor_off_the_set_is_not_used(self):
        # w1 <-> w2 does not map the z1 factor set onto itself
        rep = euler_disc(z1_family(), seed=0, symmetries=[{"w1": "w2", "w2": "w1"}])
        assert rep.to_dict() == euler_disc(z1_family(), seed=0).to_dict()

    def test_non_permutation_rejected(self):
        with pytest.raises(InputError):
            euler_disc(z1_family(), seed=0, symmetries=[{"w1": "w2"}])
        with pytest.raises(InputError):
            euler_disc(z1_family(), seed=0, symmetries=[{"w1": "v"}])


class TestEulerDisc:
    def test_two_site_physical(self):
        fam = ParamFamily.from_strings(
            2,
            ["X1", "X2", "Y12"],
            [["X1+X2", "X1+Y12", "X2+Y12"], ["1", "1", "0"], ["1", "0", "1"]],
        )
        rep = euler_disc(fam, numerator_vars=["Y12"])
        assert rep.chi_star == 4
        vt = fam.params
        expected = {
            (str(parse(s, vt)), k)
            for s, k in [
                ("X1+X2", 1), ("X1+Y12", 2), ("X2+Y12", 2),
                ("X2-Y12", 1), ("X1-Y12", 1), ("Y12", 1),
            ]
        }
        assert set(rep.with_multiplicity.as_pairs()) == expected
        flagged = [f for f, _, _, flags in rep.per_factor if "numerator-normalized" in flags]
        assert [str(f) for f in flagged] == ["Y12"]
        assert not rep.has_unknown

    def test_z1_family(self):
        rep = euler_disc(z1_family())
        assert rep.chi_star == 5
        vt = z1_family().params
        got = {str(f): e for f, e, _, _ in rep.per_factor}
        assert got[str(parse("w1+w2", vt))] == 3
        assert got[str(parse("w1-w3", vt))] == 3
        assert got[str(parse("w2+w3", vt))] == 2
        assert got[str(parse("w1+w2+w3", vt))] == 2
        assert got[str(parse("w1*w2+w1*w3+w2^2+2*w2*w3+w3^2-1", vt))] == 2
        assert got[str(parse("w1^2+w1*w2-w1*w3+w1-w2*w3+w2+w3", vt))] == 1
        # the cubic component has no small rational points; its exponent is
        # honestly unresolved rather than guessed
        cubic = parse("w1^2*w2+w1^2*w3+w1*w2^2-w1*w3^2-w2^2*w3-w2*w3^2+1", vt)
        assert got[str(cubic)] == "unknown"
        assert len(got) == 7

    def test_z2_family(self):
        rep = euler_disc(z2_family())
        assert rep.chi_star == 3
        vt = z2_family().params
        got = {str(f): e for f, e, _, _ in rep.per_factor}
        assert got[str(parse("w1+w2", vt))] == 2
        assert got[str(parse("2*w1+w2", vt))] == 2
        assert got["w1"] == 2
        # w1 (w1+w2) (2 w1+w2) = 1 parametrizes u v (u+v) = 1, which has no
        # rational points (it would solve the Fermat cubic), so the witness
        # search must come back empty
        assert got[str(parse("2*w1^3+3*w1^2*w2+w1*w2^2-1", vt))] == "unknown"
        assert rep.has_unknown

    def test_generic_family_matches_sparse_pattern(self):
        # entries = independent parameters: the reduced factors coincide
        # with the factor set of the closed-form product for the pattern
        names = [f"a{i}{j}" for i in range(2) for j in range(2)]
        vt = VarTable(names)
        fam = ParamFamily(
            1, vt, [[parse(f"a0{j}", vt) for j in range(2)],
                    [parse(f"a1{j}", vt) for j in range(2)]]
        )
        rep = euler_disc(fam)
        dense = pad_dense(1, 3)
        rename = {f"z{i}{j}": parse(f"a{i}{j - 2}", vt) for i in range(2) for j in (2, 3)}
        expected = {str(p.subs(rename)) for p in dense.factor_set()}
        assert {str(f) for f in rep.reduced.factor_set()} == expected

    def test_central_family_rejected(self):
        vt = VarTable(["t"])
        fam = ParamFamily(2, vt, [[parse("0", vt)], [parse("t", vt)], [parse("0", vt)]])
        with pytest.raises(HypothesisError):
            euler_disc(fam)

    def test_report_consistency_and_serialization(self):
        rep = euler_disc(z2_family())
        assert rep.reduced.factor_set() == rep.with_multiplicity.factor_set()
        d = rep.to_dict()
        assert d["chi_star"] == 3
        assert d["has_unknown"] is True
        assert len(d["factors"]) == 4
        for f in d["factors"]:
            assert isinstance(f["poly"], str)

    def test_degree_line_marks_unknown_exponents(self):
        # an unknown exponent is counted as 1, so the printed degree is a
        # lower bound; the structured degree keeps the same number
        rep = euler_disc(z2_family())
        assert str(rep).splitlines()[-1] == "degree >= 9  [1 unknown exponent counted as 1]"
        assert rep.to_dict()["degree"] == 9
        vt = VarTable(["a", "b"])
        a, b, ab = parse("a", vt), parse("b", vt), parse("a + b + 1", vt)
        exps = [(a, 2), (b, "unknown"), (ab, "unknown")]
        rep = DiscriminantReport(
            FactoredPolynomial([(p, 1) for p, _ in exps]),
            FactoredPolynomial([(p, e if isinstance(e, int) else 1) for p, e in exps]),
            2,
            [(p, e, None, ()) for p, e in exps],
        )
        assert str(rep).splitlines()[-1] == "degree >= 4  [2 unknown exponents counted as 1]"
        rep = DiscriminantReport(
            FactoredPolynomial([(a, 1)]), FactoredPolynomial([(a, 3)]), 2, [(a, 3, None, ())]
        )
        assert str(rep).splitlines()[-1] == "degree = 3"


class TestChiDrop:
    def test_on_and_off_factors_two_site(self):
        fam = ParamFamily.from_strings(
            2,
            ["X1", "X2", "Y12"],
            [["X1+X2", "X1+Y12", "X2+Y12"], ["1", "1", "0"], ["1", "0", "1"]],
        )
        rep = euler_disc(fam)
        factors = list(rep.reduced.factor_set())
        rng = random.Random(401)
        # on each factor: strictly smaller than the generic value
        for delta in factors:
            hits = 0
            seed = 0
            while hits < 20:
                seed += 1
                others = [q for q in factors if q != delta]
                w = witness_point(delta, avoid=others, seed=rng.randint(0, 10**6))
                if w is None:
                    continue
                hits += 1
                assert signed_euler_char(fam.z_at(w)) < 4
        # off the discriminant: exactly the generic value
        count = 0
        while count < 20:
            point = {
                name: Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
                for name in fam.param_names
            }
            if any(f.eval(point) == 0 for f in factors):
                continue
            count += 1
            assert signed_euler_char(fam.z_at(point)) == 4

    def test_scaling_covariance(self):
        e = pad_sparse(two_site_pattern())
        vt = pattern_vars(two_site_pattern())
        rng = random.Random(402)
        point = {n: rng.randint(1, 50) for n in vt.names}
        a = 3
        scaled = {n: a * v for n, v in point.items()}
        val = expand(e, vt).eval(point)
        assert expand(e, vt).eval(scaled) == a ** e.total_degree() * val

    def test_volume_exponents_equal_chi_drops(self):
        # closed-form exponents against Euler characteristic drops at
        # witnesses, for the fully symbolic two-site family
        g = two_site_pattern()
        vt = pattern_vars(g)
        e = pad_sparse(g)
        entries = []
        for i in g.left:
            row = []
            for j in g.right:
                if (i, j) in g.edges:
                    row.append(parse(g.var_name(i, j), vt))
                else:
                    row.append(parse("0", vt))
            entries.append(row)
        fam = ParamFamily(g.left_size - 1, vt, entries)
        rep = euler_disc(fam)
        closed = dict(e.as_pairs())
        for f, exponent, _, _ in rep.per_factor:
            assert closed[str(f)] == exponent


# ---------------------------------------------------------------------------
# Oracles for the fast paths of the witness search

oracle_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _roots_by_fraction_sums(coeffs):
    """Every divisor candidate +-p/q of the cleared integer polynomial,
    kept when the Fraction sum of coeffs at it is zero (plus 0 when the
    constant term vanishes)."""
    ints = list(coeffs)
    while ints and ints[-1] == 0:
        ints.pop()
    roots = {Fraction(0)} if ints and ints[0] == 0 else set()
    while ints and ints[0] == 0:
        ints.pop(0)
    if len(ints) < 2:
        return sorted(roots)
    mult = 1
    for c in ints:
        mult = mult * c.denominator // gcd(mult, c.denominator)
    a0, an = abs(int(ints[0] * mult)), abs(int(ints[-1] * mult))
    for p in _divisors(a0):
        for q in _divisors(an):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r**i for i, c in enumerate(ints)) == 0:
                    roots.add(r)
    return sorted(roots)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


small_int = st.integers(min_value=-6, max_value=6)
planted_root = st.tuples(st.integers(-8, 8), st.integers(1, 6)).map(lambda t: Fraction(*t))


class TestRationalRootsOracle:
    @oracle_settings
    @given(
        roots=st.lists(planted_root, min_size=0, max_size=3),
        extra=st.lists(small_int, min_size=1, max_size=3).filter(lambda c: any(c)),
        scale=st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    )
    def test_matches_fraction_evaluation(self, roots, extra, scale):
        # (q x - p) for each planted root p/q, times an arbitrary cofactor,
        # scaled by a fraction so the input is not integral
        coeffs = [Fraction(c) for c in extra]
        for r in roots:
            coeffs = _poly_mul(coeffs, [Fraction(-r.numerator), Fraction(r.denominator)])
        coeffs = [c * Fraction(*scale) for c in coeffs]
        got = discriminant._rational_roots(coeffs)
        assert got == _roots_by_fraction_sums(coeffs)
        assert set(roots) <= set(got)
        assert got == sorted(set(got))

    def test_zero_root_and_non_reduced_pairs(self):
        # x^2 (4x^2 - 1) (2x + 4): roots 0, +-1/2, -2; divisor pairs such as
        # 2/4 reduce to 1/2 and must not add a duplicate
        coeffs = _poly_mul(_poly_mul([0, 0, 1], [-1, 0, 4]), [4, 2])
        got = discriminant._rational_roots([Fraction(c) for c in coeffs])
        assert got == [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 2)]


VT3 = VarTable(["w1", "w2", "w3"])
frac_value = st.tuples(st.integers(-12, 12), st.integers(1, 3)).map(lambda t: Fraction(*t))
exponent = st.tuples(*[st.integers(0, 2)] * 3)
coefficient = st.integers(-3 * PRIME, 3 * PRIME).filter(bool)
poly3 = st.dictionaries(exponent, coefficient, min_size=1, max_size=4).map(
    lambda t: MultiPoly(VT3, t)
).filter(lambda p: not p.is_zero)


class TestModPScreenOracle:
    @oracle_settings
    @given(polys=st.lists(poly3, min_size=1, max_size=5),
           point=st.tuples(frac_value, frac_value, frac_value))
    def test_screen_agrees_with_exact_eval(self, polys, point):
        point = dict(zip(VT3.names, point))
        r = residues(point, VT3.names)
        for p in polys:
            if eval_mod_p(residue_terms(p), r):
                assert p.eval(point) != 0
            else:
                assert Fraction(p.eval(point)).numerator % PRIME == 0
        screens = [residue_terms(p) for p in polys]
        assert discriminant._avoids_all(polys, screens, point, VT3.names) == all(
            p.eval(point) != 0 for p in polys
        )

    def test_false_zero_is_not_rejected(self):
        # w1 - P at w1 = 0 is -P: zero mod P but not zero
        a = parse(f"w1 - {PRIME}", VT3)
        point = {"w1": Fraction(0), "w2": Fraction(1), "w3": Fraction(-2)}
        r = residues(point, VT3.names)
        assert not eval_mod_p(residue_terms(a), r)
        assert discriminant._avoids_all([a], [residue_terms(a)], point, VT3.names)
        w = witness_point(parse("w1", VT3), avoid=[a], seed=0)
        assert w is not None and w["w1"] == 0

    def test_denominator_divisible_by_p_falls_back_to_exact(self):
        point = {"w1": Fraction(1, PRIME), "w2": Fraction(0), "w3": Fraction(0)}
        assert residues(point, VT3.names) is None
        a = parse(f"{PRIME}*w1 - 1", VT3)
        b = parse("w2 + 1", VT3)
        screens = [residue_terms(p) for p in (a, b)]
        assert not discriminant._avoids_all([a, b], screens, point, VT3.names)
        assert discriminant._avoids_all([b], screens[1:], point, VT3.names)

    @pytest.mark.parametrize("family", [z1_family, z2_family])
    def test_witnesses_equal_unscreened_search(self, family, monkeypatch):
        # with the screen disabled every avoid check is an exact evaluation
        factors = coprime_basis(family().all_minors())
        screened = [
            witness_point(d, avoid=[q for q in factors if q is not d], seed=s, budget=60)
            for d in factors for s in (0, 1000)
        ]
        monkeypatch.setattr(discriminant, "eval_mod_p", lambda terms, r: 0)
        exact = [
            witness_point(d, avoid=[q for q in factors if q is not d], seed=s, budget=60)
            for d in factors for s in (0, 1000)
        ]
        assert screened == exact
        assert any(w is not None for w in exact)

    def test_euler_disc_builds_each_screen_once(self, monkeypatch):
        factors = coprime_basis(z1_family().all_minors())
        calls = []

        def counted(p):
            calls.append(p)
            return residue_terms(p)

        monkeypatch.setattr(discriminant, "residue_terms", counted)
        report = euler_disc(z1_family(), seed=0)
        assert sorted(map(str, calls)) == sorted(map(str, factors))
        prebuilt = [residue_terms(q) for q in factors[1:]]
        for s in (0, 1000):
            assert witness_point(factors[0], factors[1:], s, screens=prebuilt) == witness_point(
                factors[0], factors[1:], s
            )
        assert report.per_factor[0][2] == witness_point(factors[0], factors[1:], 0)


class TestDistinctMinors:
    """`euler_disc` and `generic_euler_char` use each distinct minor once,
    in first-occurrence order, so repeating every minor changes nothing."""

    @pytest.mark.parametrize("family", [z1_family, triangle_family])
    def test_repeated_minors_change_nothing(self, family, monkeypatch):
        minors = family().all_minors()
        assert len(set(minors)) < len(minors)  # all_minors keeps duplicates
        chi = generic_euler_char(family(), seed=0)
        report = euler_disc(family(), seed=0).to_dict()

        inputs = []
        basis = discriminant.coprime_basis
        monkeypatch.setattr(discriminant, "coprime_basis",
                            lambda ps: inputs.append(list(ps)) or basis(ps))
        plain_all_minors = ParamFamily.all_minors
        monkeypatch.setattr(ParamFamily, "all_minors",
                            lambda self: [m for m in plain_all_minors(self) for _ in (0, 1)])
        repeated = family()
        assert repeated.all_minors() == [m for m in minors for _ in (0, 1)]
        assert generic_euler_char(repeated, seed=0) == chi
        assert euler_disc(repeated, seed=0).to_dict() == report
        assert inputs == [list(dict.fromkeys(minors))]
