"""Tests for pattern graphs and multigraphs."""

import random
from itertools import combinations, permutations

import pytest

from eulerdisc.errors import HypothesisError, InputError, SizeLimitError
from eulerdisc.graphs import (
    CosmoGraph,
    PatternGraph,
    automorphisms,
    condition_star,
    connected_subgraphs,
    induced,
    is_connected,
    neighborhood,
    star_violation,
)
from oracles import hall_obstruction, saturating_matching


def two_site():
    # rows 0..2, columns 3..5; entries (1, 5) and (2, 4) are structural zeros
    edges = [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5)]
    return PatternGraph(3, 3, edges)


def artificial():
    edges = [(0, 3), (0, 4), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)]
    return PatternGraph(3, 4, edges)


def rand_pattern(rng):
    L = rng.randint(1, 4)
    R = rng.randint(1, 4)
    while True:
        edges = [
            (i, L + j)
            for i in range(L)
            for j in range(R)
            if rng.random() < 0.6
        ]
        covered = {v for e in edges for v in e}
        if covered == set(range(L + R)):
            return PatternGraph(L, R, edges)


class TestPatternGraph:
    def test_validation(self):
        with pytest.raises(InputError):
            PatternGraph(2, 2, [(0, 1)])  # 1 is a left vertex
        with pytest.raises(InputError):
            PatternGraph(2, 2, [(0, 2), (0, 3)])  # vertex 1 isolated
        with pytest.raises(InputError):
            PatternGraph(1, 1, [])

    def test_edge_order_deterministic(self):
        g = two_site()
        assert g.edge_order() == tuple(sorted(g.edges))


class TestConnectivity:
    def test_connected_examples(self):
        assert is_connected(two_site())
        assert is_connected(artificial())
        g = PatternGraph(2, 2, [(0, 2), (1, 3)])
        assert not is_connected(g)

    def test_induced_keeps_isolated_vertices(self):
        g = two_site()
        h = induced(g, [0, 1], [5])
        assert h.left == (0, 1) and h.right == (5,)
        assert h.edges == frozenset({(0, 5)})
        assert not is_connected(h)  # vertex 1 is isolated

    def test_induced_out_of_range(self):
        with pytest.raises(InputError):
            induced(two_site(), [0, 3], [4])

    def test_neighborhood(self):
        g = artificial()
        assert neighborhood(g, [0]) == frozenset({3, 4})
        assert neighborhood(g, [0, 2]) == frozenset({3, 4, 5, 6})
        assert neighborhood(g, [3]) == frozenset({0, 1})


class TestMatching:
    def test_perfect_matching_two_site(self):
        m = saturating_matching(two_site(), "left")
        assert set(m) == {0, 1, 2}
        assert len(set(m.values())) == 3
        for u, v in m.items():
            assert (u, v) in two_site().edges

    def test_no_matching_returns_none_with_obstruction(self):
        # left vertices 0,1 both only see right vertex 2
        g = PatternGraph(2, 2, [(0, 2), (1, 2), (1, 3), (0, 3)])
        h = induced(g, [0, 1], [2])
        # pattern with a genuine Hall violation: 0 and 1 share one neighbour
        bad = PatternGraph(3, 2, [(0, 3), (1, 3), (2, 3), (2, 4)])
        assert saturating_matching(bad, "left") is None
        W = hall_obstruction(bad, "left")
        assert W is not None
        assert len(neighborhood(bad, W)) < len(W)

    def test_obstruction_none_when_saturable(self):
        assert hall_obstruction(two_site(), "left") is None

    def test_matching_agrees_with_hall_random(self):
        rng = random.Random(81)
        for _ in range(60):
            g = rand_pattern(rng)
            m = saturating_matching(g, "left")
            hall_ok = all(
                len(neighborhood(g, W)) >= len(W)
                for size in range(1, g.left_size + 1)
                for W in combinations(g.left, size)
            )
            assert (m is not None) == hall_ok
            if m is None:
                W = hall_obstruction(g, "left")
                assert len(neighborhood(g, W)) < len(W)


class TestConditionStar:
    def test_singleton_side(self):
        g = PatternGraph(3, 3, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
        h = induced(g, [0], [3])
        assert condition_star(h)
        h2 = induced(g, [1], [5])  # no edge between 1 and 5
        assert not condition_star(h2)
        assert star_violation(h2) == ()

    def test_artificial_true_pair(self):
        g = artificial()
        h = induced(g, [1, 2], [5, 6])
        assert condition_star(h)

    def test_artificial_false_pair(self):
        g = artificial()
        h = induced(g, [0, 1], [5, 6])
        assert not condition_star(h)
        W = star_violation(h)
        assert W == frozenset({0})
        assert len(neighborhood(h, W)) <= len(W)

    def test_unbalanced_rejected(self):
        with pytest.raises(InputError):
            condition_star(induced(artificial(), [0, 1], [5]))

    def test_violation_is_witness_random(self):
        rng = random.Random(82)
        for _ in range(60):
            g = rand_pattern(rng)
            k = min(g.left_size, g.right_size)
            I = tuple(rng.sample(g.left, k))
            J = tuple(rng.sample(g.right, k))
            h = induced(g, I, J)
            w = star_violation(h)
            if w is None:
                if len(I) == 1:
                    assert is_connected(h)
                else:
                    for size in range(1, len(I)):
                        for W in combinations(h.left, size):
                            assert len(neighborhood(h, W)) > len(W)
            elif w != ():
                assert len(neighborhood(h, w)) <= len(w)

    def test_size_limit(self):
        big = PatternGraph(13, 13, [(i, 13 + j) for i in range(13) for j in range(13)])
        with pytest.raises(SizeLimitError):
            condition_star(big)


class TestCosmoGraph:
    def test_from_pairs_ids(self):
        path = CosmoGraph.from_pairs(3, [(1, 2), (2, 3)])
        assert [e[2] for e in path.edges] == ["12", "23"]
        bubble = CosmoGraph.from_pairs(2, [(1, 2), (1, 2)])
        assert [e[2] for e in bubble.edges] == ["a", "b"]
        assert not bubble.is_tree()
        assert path.is_tree()

    def test_parallel_edge_letters(self):
        # parallel edges of all pairs share the 26 letter ids a..z
        g = CosmoGraph.from_pairs(3, [(1, 2)] * 13 + [(3, 2)] * 13)
        assert [e[2] for e in g.edges] == list("abcdefghijklmnopqrstuvwxyz")
        assert len(CosmoGraph.from_pairs(2, [(1, 2)] * 26).edges) == 26
        with pytest.raises(InputError, match="27 parallel edges"):
            CosmoGraph.from_pairs(3, [(1, 2)] * 14 + [(2, 3)] * 13)

    def test_validation(self):
        with pytest.raises(InputError):
            CosmoGraph(2, [(1, 2, "a"), (1, 2, "a")])
        with pytest.raises(HypothesisError):
            CosmoGraph.from_pairs(3, [(1, 2)])
        with pytest.raises(InputError):
            CosmoGraph.from_pairs(2, [(1, 3)])

    def test_connected_subgraphs_path(self):
        g = CosmoGraph.from_pairs(2, [(1, 2)])
        subs = connected_subgraphs(g)
        as_pairs = [(s.vertices, s.edge_ids) for s in subs]
        assert as_pairs == [((1,), ()), ((2,), ()), ((1, 2), ("12",))]

    def test_connected_subgraphs_counts(self):
        # path on 3 vertices: singletons (3), the two edges, the full path
        g = CosmoGraph.from_pairs(3, [(1, 2), (2, 3)])
        subs = connected_subgraphs(g)
        assert len(subs) == 6
        # bubble: 2 singletons, two single-edge subgraphs, the double edge
        b = CosmoGraph.from_pairs(2, [(1, 2), (1, 2)])
        assert len(connected_subgraphs(b)) == 5

    def test_connected_subgraphs_ordering(self):
        g = CosmoGraph.from_pairs(3, [(1, 2), (2, 3)])
        subs = connected_subgraphs(g)
        sizes = [len(s.vertices) for s in subs]
        assert sizes == sorted(sizes)

    def test_size_limit(self):
        g = CosmoGraph.from_pairs(9, [(i, i + 1) for i in range(1, 9)])
        with pytest.raises(SizeLimitError):
            connected_subgraphs(g)


def edge_counts(g):
    counts = {}
    for i, j, _ in g.edges:
        counts[(i, j)] = counts.get((i, j), 0) + 1
    return counts


def rand_multigraph(rng):
    """A connected multigraph on 1..5 vertices: a random tree plus up to
    three extra edges, loops and parallel edges among them."""
    n = rng.randint(1, 5)
    pairs = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    for _ in range(rng.randint(0, 3)):
        pairs.append(tuple(sorted((rng.randint(1, n), rng.randint(1, n)))))
    return CosmoGraph.from_pairs(n, pairs)


class TestAutomorphisms:
    @pytest.mark.parametrize("n, pairs, order", [
        (3, [(1, 2), (2, 3), (1, 3)], 6),
        (4, [(1, 2), (2, 3), (3, 4)], 2),
        (4, [(1, 2), (1, 3), (1, 4)], 6),
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)], 8),
        (5, [(1, 2), (1, 3), (1, 4), (1, 5)], 24),
        (2, [(1, 2), (1, 2)], 2),
        (3, [(1, 2), (1, 2), (2, 3)], 1),
    ])
    def test_group_orders(self, n, pairs, order):
        assert len(automorphisms(CosmoGraph.from_pairs(n, pairs))) == order

    def test_parallel_edges_in_order(self):
        g = CosmoGraph.from_pairs(3, [(1, 2), (1, 2), (2, 3), (2, 3)])
        (ident, _), (vmap, emap) = automorphisms(g)
        assert vmap == {1: 3, 2: 2, 3: 1}
        assert emap == {"a": "c", "b": "d", "c": "a", "d": "b"}

    def test_group_against_all_permutations(self):
        # oracle: every vertex permutation that keeps the edge count of
        # each vertex pair; the maps carry edges to edges, contain the
        # identity first, and are closed under composition
        rng = random.Random(12)
        for _ in range(60):
            g = rand_multigraph(rng)
            n = g.vertex_count
            counts = edge_counts(g)
            ends = {eid: (i, j) for i, j, eid in g.edges}
            want = []
            for perm in permutations(range(1, n + 1)):
                vmap = dict(zip(range(1, n + 1), perm))
                moved = {}
                for (i, j), k in counts.items():
                    moved[tuple(sorted((vmap[i], vmap[j])))] = k
                if moved == counts:
                    want.append(vmap)
            autos = automorphisms(g)
            assert [vmap for vmap, _ in autos] == want
            assert autos[0][0] == {v: v for v in range(1, n + 1)}
            maps = []
            for vmap, emap in autos:
                assert sorted(emap.values()) == sorted(ends)
                for eid, (i, j) in ends.items():
                    assert ends[emap[eid]] == tuple(sorted((vmap[i], vmap[j])))
                maps.append((vmap, emap))
            as_keys = [(tuple(v.items()), tuple(e.items())) for v, e in maps]
            for v1, e1 in maps:
                for v2, e2 in maps:
                    v = {u: v2[v1[u]] for u in v1}
                    e = {x: e2[e1[x]] for x in e1}
                    assert (tuple(v.items()), tuple(e.items())) in as_keys
