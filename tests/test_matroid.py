"""Tests for linear matroids and the beta invariant.

Oracles: the brute-force signed Whitney rank sum over all column subsets
for beta (also for the closed-form rank-1 and rank-2 leaves), and the
largest nonzero minor (by `kernels.det_int`) for rank.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdisc.errors import HypothesisError, InputError
from eulerdisc.kernels import det_int
from eulerdisc.matroid import (
    LinearMatroid,
    _beta,
    _rref_int,
    beta,
    beta_whitney,
    generic_euler_char,
    signed_euler_char,
)
from eulerdisc.symcore import MultiPoly, VarTable, parse


def rand_matroid(rng, max_rows=3, max_cols=7):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return LinearMatroid(
        [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    )


class TestRank:
    def test_trivial(self):
        m = LinearMatroid([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert m.rank(()) == 0
        assert m.rank() == 3

    def test_realized_two_site_basis(self):
        X1, X2, Y = Fraction(1), Fraction(2), Fraction(3)
        z = [
            [1, 0, 0, X1 + X2, X1 + Y, X2 + Y],
            [0, 1, 0, 1, 1, 0],
            [0, 0, 1, 1, 0, 1],
        ]
        m = LinearMatroid(z)
        assert m.rank([0, 1, 2]) == 3
        assert m.rank([3, 4, 5]) == 3

    def test_rank_axioms_random(self):
        rng = random.Random(301)
        for _ in range(15):
            m = rand_matroid(rng, max_cols=5)
            n = m.ncols
            subsets = [
                frozenset(s)
                for size in range(n + 1)
                for s in combinations(range(n), size)
            ]
            rk = {s: m.rank(s) for s in subsets}
            for s in subsets:
                assert 0 <= rk[s] <= min(len(s), len(m.rows))
                for e in range(n):
                    assert rk[s] <= rk[s | {e}] <= rk[s] + 1
            for s in subsets:
                for t in subsets:
                    assert rk[s | t] + rk[s & t] <= rk[s] + rk[t]


class TestBeta:
    def test_base_cases(self):
        assert beta(LinearMatroid([[1]])) == 1  # single coloop
        assert beta(LinearMatroid([[0]])) == 0  # single loop
        assert beta(LinearMatroid([[1, 0], [0, 1]])) == 0  # two coloops
        assert beta(LinearMatroid([[1, 2, 0]])) == 0  # loop present

    def test_uniform_binomials(self):
        # generic points on a moment curve realize U_{r,n}
        for n in range(1, 7):
            for r in range(1, min(n, 4) + 1):
                rows = [[Fraction(c + 1) ** i for c in range(n)] for i in range(r)]
                m = LinearMatroid(rows)
                assert m.rank() == r
                expected = comb(n - 2, r - 1) if n >= 2 else 1
                assert beta(m) == expected

    def test_matches_whitney_oracle(self):
        rng = random.Random(302)
        for _ in range(40):
            m = rand_matroid(rng)
            assert beta(m) == beta_whitney(m)

    def test_deletion_contraction_identity(self):
        rng = random.Random(303)
        checked = 0
        while checked < 15:
            m = rand_matroid(rng, max_cols=6)
            n = m.ncols
            r = m.rank()
            for e in range(n):
                rest = [c for c in range(n) if c != e]
                if m.rank([e]) == 0 or m.rank(rest) < r:
                    continue  # loop or coloop
                deleted = LinearMatroid([[row[c] for c in rest] for row in m.rows])
                # contract by elimination on column e
                rows = [list(row) for row in m.rows]
                piv = next(i for i, row in enumerate(rows) if row[e] != 0)
                rows[0], rows[piv] = rows[piv], rows[0]
                rows[0] = [x / rows[0][e] for x in rows[0]]
                for i in range(1, len(rows)):
                    f = rows[i][e]
                    if f:
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[0])]
                contracted = LinearMatroid(
                    [[row[c] for c in rest] for row in rows[1:]]
                    or [[Fraction(0)] * (n - 1)]
                )
                assert beta(m) == beta(deleted) + beta(contracted)
                checked += 1
                break


oracle_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)

nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
entries = st.one_of(st.integers(-3, 3).map(Fraction), nonzero)


@st.composite
def matrices(draw, max_rows=3, max_cols=7):
    """Rational matrices with negative and fractional entries, and
    optionally zero columns, proportional columns, zero rows and repeated
    rows."""
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    col = st.integers(0, nc - 1)
    row = st.integers(0, nr - 1)
    for j in draw(st.lists(col, max_size=2)):
        for r in rows:
            r[j] = Fraction(0)
    for j, k, f in draw(st.lists(st.tuples(col, col, nonzero), max_size=2)):
        for r in rows:
            r[j] = f * r[k]
    if draw(st.booleans()):
        rows[draw(row)] = [Fraction(0)] * nc
    if draw(st.booleans()):
        rows[draw(row)] = list(rows[draw(row)])
    return rows


def minor_rank(rows, cols):
    """Largest k with a nonzero k x k minor on the given columns."""
    ints = [[x * prod(y.denominator for y in r) for x in r] for r in rows]
    for k in range(min(len(rows), len(cols)), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(cols, k):
                if det_int([[int(ints[i][j]) for j in cs] for i in rs]):
                    return k
    return 0


class TestOracles:
    @oracle_settings
    @given(matrices())
    def test_beta_matches_whitney(self, rows):
        m = LinearMatroid(rows)
        assert beta(m) == beta_whitney(m)

    @oracle_settings
    @given(matrices(), st.data())
    def test_rank_is_largest_nonzero_minor(self, rows, data):
        m = LinearMatroid(rows)
        sub = data.draw(st.sets(st.integers(0, m.ncols - 1)))
        assert m.rank() == minor_rank(rows, range(m.ncols))
        assert m.rank(sub) == minor_rank(rows, sorted(sub))

    @oracle_settings
    @given(matrices(), st.data())
    def test_rref_int_invariant_under_row_operations(self, rows, data):
        key = _rref_int(rows)
        row = st.integers(0, len(rows) - 1)
        moved = [list(r) for r in rows]
        i, f = data.draw(row), data.draw(nonzero)
        moved[i] = [f * x for x in moved[i]]
        i, k, f = data.draw(row), data.draw(row), data.draw(entries)
        if i != k:
            moved[i] = [a + f * b for a, b in zip(moved[i], moved[k])]
        moved = data.draw(st.permutations(moved))
        assert _rref_int(moved) == key

    @oracle_settings
    @given(matrices())
    def test_memo_keys_are_canonical(self, rows):
        # Every minor the recursion visits is already in canonical form, so
        # equal minors share one memo entry.
        memo = {}
        _beta(_rref_int(rows), memo)
        assert all(_rref_int(key) == key for key in memo)


@st.composite
def low_rank_matrices(draw):
    """One or two rows over at most 9 columns, with zero columns, repeated
    columns, negated columns and (0, b) columns with b < 0 forced in."""
    nr = draw(st.integers(1, 2))
    cols = [tuple(draw(entries) for _ in range(nr)) for _ in range(draw(st.integers(1, 5)))]
    negative = nonzero.map(lambda x: -abs(x))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "negate", "axis"]), max_size=4)):
        if kind == "zero":
            cols.append((Fraction(0),) * nr)
        elif kind == "repeat":
            cols.append(draw(st.sampled_from(cols)))
        elif kind == "negate":
            cols.append(tuple(-x for x in draw(st.sampled_from(cols))))
        else:
            cols.append((Fraction(0),) * (nr - 1) + (draw(negative),))
    cols = draw(st.permutations(cols))
    return [list(row) for row in zip(*cols)]


@st.composite
def cosmo_blocks(draw):
    """[I | z] with 4-5 rows and at most 10 columns, z one random rational
    row over 0/1 rows, the shape of the cosmological families."""
    nr = draw(st.integers(4, 5))
    nc = draw(st.integers(1, 10 - nr))
    z = [[draw(entries) for _ in range(nc)]]
    z += [[Fraction(draw(st.integers(0, 1))) for _ in range(nc)] for _ in range(nr - 1)]
    return z, [[Fraction(int(i == j)) for j in range(nr)] + row for i, row in enumerate(z)]


class TestClosedFormLeaves:
    @oracle_settings
    @given(low_rank_matrices())
    def test_rank_one_and_two_match_whitney(self, rows):
        memo = {}
        assert _beta(_rref_int(rows), memo) == beta_whitney(LinearMatroid(rows))
        assert memo == {}  # closed-form leaves are never memoized

    @oracle_settings
    @given(cosmo_blocks())
    def test_cosmo_blocks_match_whitney(self, block):
        # the recursion reaches the rank-2 leaves from inside
        z, full = block
        expected = beta_whitney(LinearMatroid(full))
        assert _beta(_rref_int(full), {}) == expected
        assert signed_euler_char(z) == expected


class TestSignedEulerChar:
    def test_single_column_parallel_to_axis(self):
        assert signed_euler_char([[0], [1], [0]]) == 0

    def test_two_site_physical(self):
        X1, X2, Y = Fraction(1), Fraction(2), Fraction(3)
        z = [[X1 + X2, X1 + Y, X2 + Y], [1, 1, 0], [1, 0, 1]]
        assert signed_euler_char(z) == 4

    def test_artificial_generic(self):
        rng = random.Random(304)
        edges = {(0, 3), (0, 4), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)}
        vals = set()
        for _ in range(3):
            z = [
                [
                    Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
                    if (i, j) in edges
                    else 0
                    for j in range(3, 7)
                ]
                for i in range(3)
            ]
            vals.add(signed_euler_char(z))
        # matroid invariance: all generic samples agree, and equal the volume
        assert vals == {5}

    def test_three_site_generic(self):
        rng = random.Random(305)
        pat = {
            (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
            (1, 4), (1, 5), (1, 8),
            (2, 4), (2, 6), (2, 8), (2, 9),
            (3, 4), (3, 7), (3, 9),
        }
        z = [
            [
                Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
                if (i, j) in pat
                else 0
                for j in range(4, 10)
            ]
            for i in range(4)
        ]
        assert signed_euler_char(z) == 30

    def test_shared_memo(self):
        X1, X2, Y = Fraction(1), Fraction(2), Fraction(3)
        z = [[X1 + X2, X1 + Y, X2 + Y], [1, 1, 0], [1, 0, 1]]
        memo = {}
        assert signed_euler_char(z, memo=memo) == 4
        filled = dict(memo)
        assert filled
        assert signed_euler_char(z, memo=memo) == 4
        assert memo == filled  # the second call only reads the memo

    def test_input_checks(self):
        with pytest.raises(InputError, match="mixed lengths"):
            signed_euler_char([[1, 2], [3]])
        with pytest.raises(InputError, match="at least one row"):
            signed_euler_char([])
        assert signed_euler_char([["1/2", Fraction(1, 2)]]) == 1


class _StubFamily:
    """Minimal family protocol for generic_euler_char."""

    def __init__(self):
        self.vt = VarTable(["a", "b"])
        self.param_names = ("a", "b")

    def all_minors(self):
        return [parse("a", self.vt), parse("b", self.vt), parse("a - b", self.vt)]

    def z_at(self, point):
        a, b = point["a"], point["b"]
        return [[a, b], [1, 1], [1, 0]]


class TestGenericEulerChar:
    def test_stub_family_stable(self):
        fam = _StubFamily()
        v = generic_euler_char(fam, trials=3, seed=1)
        assert v == generic_euler_char(fam, trials=3, seed=2)

    def test_requires_two_trials(self):
        with pytest.raises(InputError):
            generic_euler_char(_StubFamily(), trials=1)

    def test_degenerate_family_raises(self):
        class Bad(_StubFamily):
            def all_minors(self):
                return [parse("a - a", self.vt) + 0]  # identically zero

        bad = Bad()
        bad.all_minors = lambda: [MultiPoly.zero(bad.vt)]
        with pytest.raises(HypothesisError):
            generic_euler_char(bad, trials=2, seed=0, retry_budget=5)
