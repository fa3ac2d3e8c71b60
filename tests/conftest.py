"""Fixtures shared by the test modules."""

from itertools import combinations

import pytest

from eulerdisc.cosmo import wavefunction
from eulerdisc.graphs import CosmoGraph


def spans(n, edges):
    """Whether the edges connect the vertices 1..n."""
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


@pytest.fixture(scope="session")
def small_tree_psis():
    """(g, wavefunction(g)) for all 146 labelled trees on up to 5 vertices,
    each built once for the session."""
    return [(g, wavefunction(g)) for n in range(1, 6) for g in all_trees(n)]
