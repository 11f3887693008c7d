"""Shared fixtures, helpers and independently written oracle algorithms.

The oracles here deliberately avoid the package's vectorised code paths:
distances come from a queue-based BFS over plain adjacency lists, and the
shortest-odd-cycle oracle works on the bipartite double cover. They exist
to cross-examine the library, so they must not share its implementation.
"""

from collections import deque

import numpy as np
import pytest

from peerpressure import MainParams, Network, build_torus_grid, decision_table


def naive_bfs(adjacency, source):
    """Hop distances from source as a dict; pure-Python queue BFS."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def adjacency_lists(network):
    """Plain neighbour lists of a network, read one vertex at a time."""
    return [network.neighbors(u) for u in range(network.vertex_count)]


def naive_diameter(adjacency):
    n = len(adjacency)
    best = 0
    for s in range(n):
        dist = naive_bfs(adjacency, s)
        assert len(dist) == n, "oracle requires a connected graph"
        best = max(best, max(dist.values()))
    return best


def double_cover_odd_girth(network):
    """Shortest odd cycle length via the bipartite double cover.

    Vertex u splits into (u, 0) and (u, 1); every edge (u, v) becomes two
    cross-layer edges. A shortest odd closed walk through u has the same
    length as a shortest path from (u, 0) to (u, 1), and the minimum over
    all u is the odd girth. Returns None for bipartite graphs.
    """
    n = network.vertex_count
    cover = [[] for _ in range(2 * n)]
    for u, v in network.edges():
        cover[u].append(v + n)
        cover[v + n].append(u)
        cover[v].append(u + n)
        cover[u + n].append(v)
    best = None
    for u in range(n):
        dist = naive_bfs(cover, u)
        if u + n in dist:
            best = dist[u + n] if best is None else min(best, dist[u + n])
    return best


def random_connected_gnp(rng, n, p):
    """Small connected G(n, p) for tests; resamples until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        adjacency = [[] for _ in range(n)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        if len(naive_bfs(adjacency, 0)) == n:
            return Network.from_edges(n, edges)


def table_for(network, params, rule):
    """The decision table ``run`` builds: one for the network's maximum degree."""
    return decision_table(params, rule, int(network.degrees.max(initial=0)))


def petersen():
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    return Network.from_edges(10, edges)


@pytest.fixture
def triangle():
    return Network.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return Network.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def cycle6():
    return Network.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def torus5():
    return build_torus_grid(5, 5)


@pytest.fixture
def grid_params():
    # parameters used throughout the torus experiments
    return MainParams(e_h=0.1, rho_h=0.23, rho_d=0.45)
