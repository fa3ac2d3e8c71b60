"""Tests for lattice point configurations, volumes and faces.

Volume oracles: 2-d shoelace area on an independently computed convex
hull, invariance under unimodular maps, additivity across a splitting
hyperplane, and Postnikov's spanning-tree count for bipartite edge
polytopes.  Face oracles: facet ranks and the Euler relation.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdisc.errors import HypothesisError, InputError, SizeLimitError
from eulerdisc.graphs import PatternGraph, induced, is_connected
from eulerdisc.lattice import (
    PointConfiguration,
    contracted_config,
    edge_config,
    f_vector,
    facets,
    lattice_normalize,
    normalized_volume,
    subdiagram_volume,
)


def two_site():
    return PatternGraph(3, 3, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5)])


def artificial():
    return PatternGraph(3, 4, [(0, 3), (0, 4), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)])


def hull_area_doubled(points):
    """Twice the area of the convex hull of 2-d points (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return abs(
        sum(
            hull[i][0] * hull[(i + 1) % len(hull)][1]
            - hull[(i + 1) % len(hull)][0] * hull[i][1]
            for i in range(len(hull))
        )
    )


def rand_unimodular(rng, d):
    """Random unimodular matrix via shear and permutation moves."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += c * m[j][k]
    rng.shuffle(m)
    return m


def apply_mat(m, p):
    return tuple(sum(m[i][j] * p[j] for j in range(len(p))) for i in range(len(m)))


class TestConfigBasics:
    def test_validation(self):
        with pytest.raises(InputError):
            PointConfiguration([(0, 1), (1,)])
        with pytest.raises(InputError):
            PointConfiguration([(0, 1)], labels=["a", "b"])

    def test_edge_config_artificial_matches_incidence(self):
        c = edge_config(artificial())
        assert c.labels == ("03", "04", "13", "15", "16", "24", "25", "26")
        assert len(c) == 8 and c.ambient_dim == 7
        for p, lab in zip(c.points, c.labels):
            assert sum(p) == 2
            assert p[int(lab[0])] == 1 and p[int(lab[1])] == 1

    def test_edge_config_single_edge(self):
        c = edge_config(PatternGraph(1, 1, [(0, 1)]))
        assert c.points == ((1, 1),)

    def test_dump_has_labels_and_columns(self):
        c = edge_config(PatternGraph(1, 2, [(0, 1), (0, 2)]))
        text = c.dump()
        lines = text.splitlines()
        assert lines[0].split() == ["01", "02"]
        assert len(lines) == 4  # header + 3 coordinate rows


class TestNormalize:
    def test_standard_triangle(self):
        d, pts = lattice_normalize(
            PointConfiguration([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        )
        assert d == 2
        assert pts[0] == (0, 0)
        assert sorted(pts) == [(0, 0), (0, 1), (1, 0)] or len(set(pts)) == 3

    def test_paper_dimensions(self):
        assert lattice_normalize(edge_config(artificial()))[0] == 5
        assert lattice_normalize(edge_config(two_site()))[0] == 4

    def test_dimension_is_vertices_minus_two(self):
        # connected bipartite edge polytopes have dim |V| - 2
        rng = random.Random(201)
        trials = 0
        while trials < 25:
            L, R = rng.randint(1, 4), rng.randint(1, 4)
            edges = [
                (i, L + j) for i in range(L) for j in range(R) if rng.random() < 0.6
            ]
            covered = {v for e in edges for v in e}
            if covered != set(range(L + R)):
                continue
            g = PatternGraph(L, R, edges)
            if not is_connected(g):
                continue
            trials += 1
            d, _ = lattice_normalize(edge_config(g))
            assert d == L + R - 2


class TestVolume:
    def test_unit_simplex(self):
        for d in (1, 2, 3, 4):
            pts = [(0,) * d] + [
                tuple(1 if j == i else 0 for j in range(d)) for i in range(d)
            ]
            assert normalized_volume(PointConfiguration(pts)) == 1

    def test_paper_volumes(self):
        assert normalized_volume(edge_config(artificial())) == 5
        assert normalized_volume(edge_config(two_site())) == 4

    def test_shoelace_oracle_2d(self):
        rng = random.Random(202)
        for _ in range(30):
            pts = {(0, 0), (1, 0), (0, 1)}
            for _ in range(rng.randint(0, 6)):
                pts.add((rng.randint(-3, 3), rng.randint(-3, 3)))
            pts = sorted(pts)
            # difference lattice is all of Z^2, so normalized volume is twice
            # the euclidean area
            assert normalized_volume(PointConfiguration(pts)) == hull_area_doubled(pts)

    def test_invariance(self):
        rng = random.Random(203)
        base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 1, 0)]
        ref = normalized_volume(PointConfiguration(base))
        for _ in range(20):
            m = rand_unimodular(rng, 3)
            t = tuple(rng.randint(-5, 5) for _ in range(3))
            mapped = [
                tuple(a + b for a, b in zip(apply_mat(m, p), t)) for p in base
            ]
            rng.shuffle(mapped)
            assert normalized_volume(PointConfiguration(mapped)) == ref

    def test_additivity_across_hyperplane(self):
        # rectangle [0,2] x [0,1] split by x = 1
        rect = [(0, 0), (2, 0), (0, 1), (2, 1), (1, 0), (1, 1)]
        left = [(0, 0), (1, 0), (0, 1), (1, 1)]
        right = [(1, 0), (2, 0), (1, 1), (2, 1)]
        v = normalized_volume(PointConfiguration(rect))
        assert v == normalized_volume(PointConfiguration(left)) + normalized_volume(
            PointConfiguration(right)
        )
        # same split for a 3-d box [0,2] x [0,1] x [0,1]
        box = [(x, y, z) for x in (0, 1, 2) for y in (0, 1) for z in (0, 1)]
        half1 = [p for p in box if p[0] <= 1]
        half2 = [p for p in box if p[0] >= 1]
        assert normalized_volume(PointConfiguration(box)) == normalized_volume(
            PointConfiguration(half1)
        ) + normalized_volume(PointConfiguration(half2))


class TestFaces:
    def test_triangle(self):
        c = PointConfiguration([(0, 0), (1, 0), (0, 1)])
        assert f_vector(c) == (3, 3)

    def test_paper_f_vectors(self):
        assert f_vector(edge_config(artificial())) == (8, 26, 41, 31, 10)
        # proper faces only; the printed paper tuple appends the polytope itself
        assert f_vector(edge_config(two_site())) == (7, 17, 18, 8)

    def test_euler_relation(self):
        for c in (
            edge_config(two_site()),
            edge_config(artificial()),
            PointConfiguration([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
        ):
            fv = f_vector(c)
            d = len(fv)
            alt = sum((-1) ** i * fv[i] for i in range(d))
            assert alt == 1 - (-1) ** d

    def test_size_limit(self):
        pts = [(x, y) for x in range(5) for y in range(5)]
        with pytest.raises(SizeLimitError):
            f_vector(PointConfiguration(pts))

    def test_faces_are_disjoint_unions_of_induced_subgraphs(self):
        g = two_site()
        c = edge_config(g)
        labels = c.labels
        for members in facets(c):
            edges = [(int(labels[i][0]), int(labels[i][1])) for i in members]
            # split into connected components
            comps = []
            for e in edges:
                hit = [k for k, comp in enumerate(comps) if set(e) & comp]
                merged = set(e)
                for k in reversed(hit):
                    merged |= comps.pop(k)
                comps.append(merged)
            for comp in comps:
                I = sorted(v for v in comp if v < g.left_size)
                J = sorted(v for v in comp if v >= g.left_size)
                sub = induced(g, I, J)
                comp_edges = {e for e in edges if set(e) <= comp}
                assert set(sub.edges) == comp_edges
                assert is_connected(sub)

    def test_functional_supports_face(self):
        rng = random.Random(204)
        g = artificial()
        c = edge_config(g)
        for _ in range(20):
            I = rng.sample(range(g.left_size), rng.randint(1, g.left_size))
            J = rng.sample(
                range(g.left_size, g.left_size + g.right_size),
                rng.randint(1, g.right_size),
            )
            chosen = set(I) | set(J)
            values = [sum(p[v] for v in chosen) for p in c.points]
            inside = {
                k
                for k, lab in enumerate(c.labels)
                if int(lab[0]) in chosen and int(lab[1]) in chosen
            }
            if not inside:
                continue
            best = max(values)
            assert best == 2
            assert {k for k, v in enumerate(values) if v == best} == inside


class TestSubdiagramVolume:
    def test_paper_values(self):
        g = artificial()
        assert subdiagram_volume(g, induced(g, [0], [3])) == 3
        assert subdiagram_volume(g, induced(g, [1], [5])) == 2
        assert subdiagram_volume(g, induced(g, [1, 2], [5, 6])) == 2
        assert subdiagram_volume(g, induced(g, [0, 1, 2], [3, 4, 5])) == 1

    def test_full_graph_gives_one_when_balanced(self):
        g = two_site()
        assert subdiagram_volume(g, induced(g, [0, 1, 2], [3, 4, 5])) == 1

    def test_rejects_disconnected(self):
        g = artificial()
        with pytest.raises(HypothesisError):
            subdiagram_volume(g, induced(g, [0], [6]))

    def test_rejects_filter_violation(self):
        g = artificial()
        # {0,1} x {5,6} leaves vertex 0 isolated: expansion condition fails
        with pytest.raises(HypothesisError):
            subdiagram_volume(g, induced(g, [0, 1], [5, 6]))

    def test_contracted_config_shapes(self):
        g = artificial()
        c = contracted_config(g, induced(g, [1, 2], [5, 6]))
        assert c.ambient_dim == 3  # survivors 0, 3, 4
        assert c.labels == ("03", "04", "13", "24")
        assert c.points == ((1, 1, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1))


# ---------------------------------------------------------------------------
# Property-based oracles (deterministic examples, no example database)

oracle_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def connected_patterns(draw):
    """Connected bipartite patterns up to 4 x 4: a random spanning tree of
    K_{L,R} plus any further edges."""
    L = draw(st.integers(1, 4))
    R = draw(st.integers(1, 4))
    tree = {(0, L)}
    left_in, right_in = [0], [L]
    for v in draw(st.permutations(list(range(1, L)) + list(range(L + 1, L + R)))):
        if v < L:
            tree.add((v, draw(st.sampled_from(right_in))))
            left_in.append(v)
        else:
            tree.add((draw(st.sampled_from(left_in)), v))
            right_in.append(v)
    pairs = [(i, L + j) for i in range(L) for j in range(R)]
    extra = draw(st.sets(st.sampled_from(pairs)))
    return PatternGraph(L, R, sorted(tree | extra))


def left_degree_vectors(g):
    """Distinct left-degree vectors of the spanning trees of g."""
    n = g.left_size + g.right_size
    vectors = set()
    for tree in combinations(sorted(g.edges), n - 1):
        parent = list(range(n))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for i, j in tree:
            ri, rj = root(i), root(j)
            if ri == rj:
                break
            parent[ri] = rj
        else:
            vectors.add(tuple(sum(1 for e in tree if e[0] == i) for i in g.left))
    return vectors


def unit(d, i, scale=1):
    return tuple(scale if j == i else 0 for j in range(d))


@st.composite
def full_dim_configs(draw):
    """Configurations spanning Z^d, d = 2..5, with duplicate points, points
    on the hyperplane x_d = 0, and optionally an interior origin."""
    d = draw(st.integers(2, 5))
    coord = st.integers(-2, 2)
    pts = [(0,) * d] + [unit(d, i) for i in range(d)]
    extra = draw(st.lists(st.tuples(*[coord] * d), max_size=5))
    pts += extra
    pts += [p[:-1] + (0,) for p in extra[: draw(st.integers(0, len(extra)))]]
    if draw(st.booleans()):
        pts += [unit(d, i, 2) for i in range(d)] + [(-1,) * d]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return d, draw(st.permutations(pts))


class TestOracles:
    @oracle_settings
    @given(connected_patterns())
    def test_postnikov_spanning_tree_count(self, g):
        # Postnikov, IMRN 2009, section 12
        assert normalized_volume(edge_config(g)) == len(left_degree_vectors(g))

    @oracle_settings
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=8),
        st.lists(st.integers(-3, 3), max_size=3),
        st.data(),
    )
    def test_shoelace_with_degenerate_points(self, extra, on_axis, data):
        pts = [(0, 0), (1, 0), (0, 1)] + extra + [(x, 0) for x in on_axis]
        pts += data.draw(st.lists(st.sampled_from(pts), max_size=3))
        pts = data.draw(st.permutations(pts))
        assert normalized_volume(PointConfiguration(pts)) == hull_area_doubled(pts)

    @oracle_settings
    @given(full_dim_configs())
    def test_facets_f_vector_and_placing_order(self, config):
        d, pts = config
        c = PointConfiguration(pts)
        assert lattice_normalize(c)[0] == d
        fs = facets(c, max_points=32)
        for members in fs:
            diffs = [np.subtract(pts[i], pts[members[0]]) for i in members]
            assert np.linalg.matrix_rank(np.array(diffs)) == d - 1
        fv = f_vector(c, max_points=32)
        assert fv[d - 1] == len(fs)
        assert sum((-1) ** i * f for i, f in enumerate(fv)) == 1 - (-1) ** d
        # reversed coordinates sort the points differently, so the placing
        # visits them in another order
        rev = PointConfiguration([p[::-1] for p in pts])
        assert normalized_volume(rev) == normalized_volume(c)
        assert facets(rev, max_points=32) == fs
