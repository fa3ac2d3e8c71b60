"""Acceptance suite: seven end-to-end criteria, one pass/fail line each.

Each criterion checks exact values in exact arithmetic and enforces a
wall-clock budget.  Run with `pytest -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from eulerdisc.formats import ingest_family
from eulerdisc.graphs import BipartiteSubgraph, CosmoGraph, PatternGraph
from eulerdisc.kernels import det_adj
from eulerdisc.lattice import (
    edge_config,
    f_vector,
    lattice_normalize,
    normalized_volume,
    subdiagram_volume,
)
from eulerdisc.matroid import beta, signed_euler_char
from eulerdisc.discriminant import (
    ParamFamily,
    degree_check,
    euler_disc,
    pad_sparse,
    pattern_vars,
    witness_point,
)
from eulerdisc.cosmo import (
    coefficient_family,
    cosmo_euler_disc,
    cosmo_pad,
    facet_forms,
)
from eulerdisc.symcore import VarTable, parse
from oracles import (
    beta_whitney,
    factor_set,
    hall_obstruction,
    reduced,
    saturating_matching,
    subs,
    with_multiplicity,
)


def artificial():
    return PatternGraph(3, 4, [(0, 3), (0, 4), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)])


def two_site_pattern():
    return PatternGraph(3, 3, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5)])


def two_site_family():
    return ingest_family({
        "k": 2,
        "params": ["X1", "X2", "Y12"],
        "entries": [["X1+X2", "X1+Y12", "X2+Y12"], ["1", "1", "0"], ["1", "0", "1"]],
    })


def z1_family():
    rows = [
        ["w1+w2", "1", "0", "0"],
        ["1", "0", "1", "w2+w3"],
        ["0", "w1-w3", "w1+w2+w3", "1"],
    ]
    return ingest_family({"k": 2, "params": ["w1", "w2", "w3"], "entries": rows})


def z2_family():
    fam = z1_family()
    vt2 = VarTable(["w1", "w2"])
    sub = {"w3": parse("-w1-w2", vt2)}
    return ParamFamily(2, vt2, [[subs(p, sub) for p in row] for row in fam.entries])


def symbolic_family(g):
    vt = pattern_vars(g)
    entries = [
        [
            parse(g.var_name(i, j), vt) if (i, j) in g.edges else parse("0", vt)
            for j in g.right
        ]
        for i in g.left
    ]
    return ParamFamily(g.left_size - 1, vt, entries)


class _Criterion:
    """Per-criterion runtime budget, enforced on process CPU time so the
    result does not depend on how loaded the machine happens to be; the
    wall-clock time is printed alongside for reference."""

    def __init__(self, number, budget):
        self.number = number
        self.budget = budget

    def __enter__(self):
        self.start_wall = time.time()
        self.start_cpu = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        cpu = time.process_time() - self.start_cpu
        wall = time.time() - self.start_wall
        status = "PASS" if exc_type is None and cpu < self.budget else "FAIL"
        print(
            f"criterion {self.number}: {status} "
            f"({cpu:.1f}s cpu, {wall:.1f}s wall / budget {self.budget}s)"
        )
        if exc_type is None:
            assert cpu < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_artificial_polytope_and_pad():
    with _Criterion(1, 60):
        g = artificial()
        c = edge_config(g)
        d, _ = lattice_normalize(c)
        assert d == 5
        assert tuple(f_vector(c)) == (8, 26, 41, 31, 10)
        assert normalized_volume(c) == 5
        e = pad_sparse(g)
        assert e.total_degree() == 30
        assert len(e.factors) == 11
        vt = pattern_vars(g)
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


def test_criterion_2_subdiagram_volumes():
    with _Criterion(2, 5):
        g = artificial()
        h1 = BipartiteSubgraph((0,), (3,), frozenset({(0, 3)}))
        assert subdiagram_volume(g, h1) == 3
        h2 = BipartiteSubgraph((1,), (5,), frozenset({(1, 5)}))
        assert subdiagram_volume(g, h2) == 2


def test_criterion_3_two_site_chain():
    with _Criterion(3, 30):
        g = two_site_pattern()
        c = edge_config(g)
        # printed tuple counts the polytope itself as its top face
        assert tuple(f_vector(c)) + (1,) == (7, 17, 18, 8, 1)
        assert normalized_volume(c) == 4
        e = pad_sparse(g)
        assert e.total_degree() == 20
        assert len(e.factors) == 10
        rep = cosmo_euler_disc(CosmoGraph.from_pairs(2, [(1, 2)]))
        assert rep.chi_star == 4
        vt = two_site_family().params
        expected = {
            (str(parse(s, vt)), k)
            for s, k in [
                ("X1+X2", 1), ("X1+Y12", 2), ("X2+Y12", 2),
                ("X2-Y12", 1), ("X1-Y12", 1), ("Y12", 1),
            ]
        }
        assert set(with_multiplicity(rep).as_pairs()) == expected
        assert not rep.has_unknown


def test_criterion_4_three_site_chain():
    with _Criterion(4, 600):
        three = CosmoGraph.from_pairs(3, [(1, 2), (2, 3)])
        assert cosmo_pad(three).total_degree() == 270
        rep = cosmo_euler_disc(three)
        vt = coefficient_family(three).params
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
        got = set(with_multiplicity(rep).as_pairs())
        assert {p for p, _ in got} == {p for p, _ in expected}
        # every exponent matches the printed table, not just the six
        # linear-in-one-variable ones the criterion requires at minimum
        assert got == expected
        assert with_multiplicity(rep).total_degree() == 77
        assert not rep.has_unknown
        # the quoted generic value 30 is the volume of the sparsity
        # pattern's edge polytope: the fully generic sparse family attains
        # it, while the physical 0/1-alpha family tops out at 25 (the
        # printed exponents are drops from 25, as verified above)
        pattern = symbolic_family(
            PatternGraph(
                4,
                6,
                [
                    (i, 4 + j)
                    for i in range(4)
                    for j in range(6)
                    if not coefficient_family(three).entries[i][j].is_zero
                ],
            )
        )
        # every accepted point gives the same value
        assert {euler_disc(pattern, seed=s, find_witnesses=False).chi_star
                for s in (11, 12)} == {30}
        assert rep.chi_star == 25


def test_criterion_5_z1_z2_families():
    with _Criterion(5, 120):
        rep1 = euler_disc(z1_family())
        assert rep1.chi_star == 5
        vt = z1_family().params
        got1 = {str(f): e for f, e, _, _ in rep1.per_factor}
        assert got1[str(parse("w1+w2", vt))] == 3
        assert got1[str(parse("w1-w3", vt))] == 3
        assert got1[str(parse("w2+w3", vt))] == 2
        assert got1[str(parse("w1+w2+w3", vt))] == 2
        assert got1[str(parse("w1*w2+w1*w3+w2^2+2*w2*w3+w3^2-1", vt))] == 2
        assert got1[str(parse("w1^2+w1*w2-w1*w3+w1-w2*w3+w2+w3", vt))] == 1
        assert len(got1) == 7

        rep2 = euler_disc(z2_family())
        assert rep2.chi_star == 3
        vt2 = z2_family().params
        got2 = {str(f): e for f, e, _, _ in rep2.per_factor}
        assert got2[str(parse("w1+w2", vt2))] == 2
        assert got2[str(parse("2*w1+w2", vt2))] == 2
        assert got2["w1"] == 2
        cubic = str(parse("2*w1^3+3*w1^2*w2+w1*w2^2-1", vt2))
        assert cubic in got2
        # the cubic has no rational points (it encodes u v (u+v) = 1, a
        # disguise of the Fermat cubic), so the witness search cannot
        # confirm its exponent; the run must say so and flag it
        assert got2[cubic] == "unknown"
        assert rep2.has_unknown
        flags = {
            str(f): fl for f, _, _, fl in rep2.per_factor if str(f) == cubic
        }
        assert "no-rational-witness" in flags[cubic]


def test_criterion_6_property_suites(small_tree_psis):
    with _Criterion(6, 300):
        # (a) Hall condition <=> saturating matching, and matching <=>
        # nonzero determinant, exhaustively on patterns up to 4+4
        for l in range(1, 5):
            for r in range(1, 5):
                cells = [(i, l + j) for i in range(l) for j in range(r)]
                for mask in range(1, 1 << (l * r)):
                    edges = frozenset(c for b, c in enumerate(cells) if mask >> b & 1)
                    g = BipartiteSubgraph(
                        tuple(range(l)), tuple(range(l, l + r)), edges
                    )
                    hall = hall_obstruction(g, "left") is None
                    matched = saturating_matching(g, "left") is not None
                    assert hall == matched
                    if l == r:
                        rng = random.Random(mask)
                        seen_nonzero = False
                        for _ in range(4):
                            m = [
                                [
                                    rng.randint(1, 997) if (i, l + j) in edges else 0
                                    for j in range(r)
                                ]
                                for i in range(l)
                            ]
                            if det_adj(m)[0] != 0:
                                seen_nonzero = True
                                break
                        assert seen_nonzero == matched

        # (b) degree identity on 20 random connected patterns up to 4+4
        rng = random.Random(61)
        found = 0
        while found < 20:
            l, r = rng.randint(1, 4), rng.randint(1, 4)
            cells = [(i, l + j) for i in range(l) for j in range(r)]
            edges = [c for c in cells if rng.random() < 0.7]
            covered = {v for e in edges for v in e}
            if covered != set(range(l + r)):
                continue
            from eulerdisc.graphs import is_connected

            g = PatternGraph(l, r, edges)
            if not is_connected(g):
                continue
            found += 1
            assert degree_check(pad_sparse(g), edge_config(g))

        # (c) closed-form volume exponents equal chi drops at witnesses
        for g in (artificial(), two_site_pattern()):
            closed = dict(pad_sparse(g).as_pairs())
            rep = euler_disc(symbolic_family(g))
            for f, e, _, _ in rep.per_factor:
                assert closed[str(f)] == e

        # (d) beta deletion-contraction against the Whitney oracle on 50
        # random realized matroids
        rng = random.Random(62)
        for _ in range(50):
            rows = [
                [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 7))]
                for _ in range(rng.randint(1, 3))
            ]
            width = min(len(r) for r in rows)
            m = [r[:width] for r in rows]
            assert beta(m) == beta_whitney(m)

        # (e) psi denominator factors = facet forms on all trees up to 5
        # vertices
        assert len(small_tree_psis) == 146
        for g, psi in small_tree_psis:
            den = {p for p, _ in psi.den.as_pairs()}
            assert den == {str(f.constant) for f in facet_forms(g)}

        # (f) expression round-trip and evaluation homomorphism
        vt = VarTable(["x", "y", "z"])
        rng = random.Random(63)
        exprs = [
            "x^3 - 2*x*y + 7", "(x + y)*(x - y) - x^2 + y^2 + z",
            "-x*y*z + 4*(x + 1)^2", "z^5 - z", "x*(y - z)^3 + y*(z - x)^3",
        ]
        for s in exprs:
            p = parse(s, vt)
            assert parse(str(p), vt) == p
            for q_s in exprs:
                q = parse(q_s, vt)
                point = {n: rng.randint(-9, 9) for n in vt.names}
                assert (p * q).eval(point) == p.eval(point) * q.eval(point)
                assert (p + q).eval(point) == p.eval(point) + q.eval(point)


def test_criterion_7_chi_drop_two_site():
    with _Criterion(7, 60):
        fam = two_site_family()
        rep = euler_disc(fam)
        factors = list(factor_set(reduced(rep)))
        rng = random.Random(71)
        for delta in factors:
            hits = 0
            while hits < 20:
                others = [q for q in factors if q != delta]
                w = witness_point(delta, avoid=others, seed=rng.randint(0, 10**6))
                if w is None:
                    continue
                hits += 1
                assert signed_euler_char(fam.z_at(w)) < 4
        count = 0
        while count < 20:
            point = {
                name: Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
                for name in fam.params.names
            }
            if any(f.eval(point) == 0 for f in factors):
                continue
            count += 1
            assert signed_euler_char(fam.z_at(point)) == 4
