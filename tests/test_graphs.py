"""Networks, generators, metrics, and the edge-list format."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerpressure import (
    GenerationError,
    Network,
    bfs_distances,
    build_torus_grid,
    compute_metrics,
    read_edge_list,
    sample_random_regular,
    write_edge_list,
)
from conftest import (
    adjacency_lists,
    double_cover_odd_girth,
    naive_bfs,
    naive_diameter,
    petersen,
    random_connected_gnp,
)


class TestNetworkValidation:
    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ValueError, match="neighbour 5 of vertex 1 out of range"):
            Network([0, 1, 3], [1, 0, 5])
        with pytest.raises(ValueError, match="neighbour -1 of vertex 0 out of range"):
            Network([0, 1, 2], [-1, 0])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            Network([0, 1], [0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Network([0, 2, 4], [1, 1, 0, 0])
        with pytest.raises(ValueError, match="duplicate"):
            Network.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_asymmetric_input(self):
        for indptr, indices, edge in [
            ([0, 1, 1], [1], "(0, 1)"),           # 0 lists 1, 1 lists nothing
            ([0, 0, 1], [0], "(1, 0)"),           # 1 lists 0, 0 lists nothing
            ([0, 1, 2, 3], [1, 2, 0], "(0, 1)"),  # a directed triangle
        ]:
            with pytest.raises(ValueError, match=f"asymmetric edge {re.escape(edge)}"):
                Network(indptr, indices)

    @pytest.mark.parametrize("indptr, indices", [
        ([1, 2, 2], [1, 0]),     # does not start at 0
        ([0, 2, 1, 2], [1, 0]),  # decreases
        ([0, 1, 2], [1, 0, 1]),  # last entry is not len(indices)
        ([], []),                # no entry for n = 0
    ])
    def test_rejects_malformed_indptr(self, indptr, indices):
        with pytest.raises(ValueError, match="indptr"):
            Network(indptr, indices)

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Network.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range"):
            Network.from_edges(2, [(0, 1), (-1, 0)])

    def test_sorts_adjacency(self):
        g = Network([0, 2, 3, 4], [2, 1, 0, 0])
        assert g.neighbors(0) == [1, 2]
        assert g.indices.tolist() == [1, 2, 0, 0]


def test_basic_counts_and_edges(triangle):
    assert triangle.vertex_count == 3
    assert triangle.edge_count == 3
    assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]
    assert triangle.degrees.tolist() == [2, 2, 2]


def test_flat_neighbor_arrays(path3):
    # indices concatenates the neighbour lists; neighbor_src labels each entry
    assert path3.indptr.tolist() == [0, 1, 3, 4]
    assert path3.indices.tolist() == [1, 0, 2, 1]
    assert path3.neighbor_src.tolist() == [0, 1, 1, 2]
    assert [path3.neighbors(u) for u in range(3)] == [[1], [0, 2], [1]]


def test_is_connected():
    assert Network.from_edges(3, [(0, 1), (1, 2)]).is_connected()
    assert not Network.from_edges(4, [(0, 1), (2, 3)]).is_connected()


def test_single_vertex_is_connected():
    assert Network([0, 0], []).is_connected()


class TestTorus:
    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            build_torus_grid(2, 5)
        with pytest.raises(ValueError):
            build_torus_grid(5, 2)

    def test_neighbors_of_origin(self):
        g = build_torus_grid(4, 3)
        # (0, 0) touches (1,0), (3,0), (0,1), (0,2)
        assert g.neighbors(0) == [1, 3, 4, 8]

    @pytest.mark.parametrize("w, h", [(3, 3), (3, 7), (6, 4)])
    def test_equals_listed_edges(self, w, h):
        # each vertex (x, y) joined to its right and lower neighbour
        edges = [(x + y * w, (x + 1) % w + y * w) for y in range(h) for x in range(w)]
        edges += [(x + y * w, x + (y + 1) % h * w) for y in range(h) for x in range(w)]
        g, want = build_torus_grid(w, h), Network.from_edges(w * h, edges)
        assert g.indptr.tolist() == want.indptr.tolist()
        assert g.indices.tolist() == want.indices.tolist()

    @given(w=st.integers(3, 10), h=st.integers(3, 10))
    @settings(max_examples=25, deadline=None)
    def test_four_regular_and_diameter(self, w, h):
        g = build_torus_grid(w, h)
        assert g.vertex_count == w * h
        assert set(g.degrees.tolist()) == {4}
        m = compute_metrics(g)
        # product of two cycles: eccentricities add up
        assert m.diameter == w // 2 + h // 2
        assert m.is_bipartite == (w % 2 == 0 and h % 2 == 0)

    def test_even_torus_bipartition_is_balanced(self):
        m = compute_metrics(build_torus_grid(4, 6))
        assert m.is_bipartite
        side_a, side_b = m.bipartition
        assert len(side_a) == len(side_b) == 12
        assert 0 in side_a  # vertex 0's class listed first

    def test_width_three_torus_has_triangle_girth(self):
        assert compute_metrics(build_torus_grid(3, 6)).odd_girth == 3


class TestRandomRegular:
    def test_regular_by_construction(self):
        g = sample_random_regular(50, 5, np.random.default_rng(3))
        assert set(g.degrees.tolist()) == {5}
        assert g.vertex_count <= 50
        assert g.is_connected()

    def test_odd_product_forces_discard(self):
        # no 5-regular graph on 50 vertices pairs up perfectly every time,
        # and n*d odd can never finish at full size
        g = sample_random_regular(51, 5, np.random.default_rng(0))
        assert g.vertex_count < 51
        assert set(g.degrees.tolist()) == {5}

    def test_deterministic_given_rng_state(self):
        a = sample_random_regular(30, 4, np.random.default_rng(11))
        b = sample_random_regular(30, 4, np.random.default_rng(11))
        assert a.indptr.tolist() == b.indptr.tolist()
        assert a.indices.tolist() == b.indices.tolist()

    def test_impossible_target_raises(self):
        # d=1 on four vertices always yields two disjoint edges
        with pytest.raises(GenerationError, match="in 100 attempts"):
            sample_random_regular(4, 1, np.random.default_rng(0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_random_regular(5, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_random_regular(5, 5, np.random.default_rng(0))


def test_bfs_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        g = random_connected_gnp(rng, n, float(rng.uniform(0.1, 0.6)))
        s = int(rng.integers(0, n))
        want = naive_bfs(adjacency_lists(g), s)
        got = bfs_distances(g, s)
        assert all(got[v] == want[v] for v in range(n))


def test_bfs_marks_unreachable():
    g = Network.from_edges(4, [(0, 1), (2, 3)])
    assert bfs_distances(g, 0).tolist() == [0, 1, -1, -1]


class TestMetrics:
    def test_requires_connected(self):
        with pytest.raises(ValueError, match="connected"):
            compute_metrics(Network.from_edges(4, [(0, 1), (2, 3)]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_metrics(Network([0], []))

    def test_odd_cycle(self):
        m = compute_metrics(Network.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
        assert (m.diameter, m.odd_girth, m.is_bipartite) == (2, 5, False)
        assert m.bipartition is None

    def test_even_cycle(self, cycle6):
        m = compute_metrics(cycle6)
        assert (m.diameter, m.odd_girth) == (3, None)
        assert m.bipartition == ((0, 2, 4), (1, 3, 5))

    def test_complete_graph(self):
        g = Network.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        m = compute_metrics(g)
        assert (m.diameter, m.odd_girth, m.min_degree) == (1, 3, 3)

    def test_petersen(self):
        m = compute_metrics(petersen())
        assert (m.diameter, m.odd_girth, m.min_degree) == (2, 5, 3)

    def test_one_bfs_per_source(self, monkeypatch, cycle6):
        # the bipartition comes from the source-0 sweep, not from an extra BFS
        import peerpressure.graphs as graphs

        assert cycle6.is_connected()  # cached, so only the metric sweeps count
        sources = []
        real = graphs.bfs_distances
        monkeypatch.setattr(graphs, "bfs_distances",
                            lambda g, s: sources.append(s) or real(g, s))
        m = compute_metrics(cycle6)
        assert sources == list(range(6))
        assert m.bipartition == ((0, 2, 4), (1, 3, 5))

    def test_diameter_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_connected_gnp(rng, int(rng.integers(3, 30)), 0.25)
            assert compute_metrics(g).diameter == naive_diameter(adjacency_lists(g))

    def test_odd_girth_matches_double_cover_oracle(self):
        rng = np.random.default_rng(8)
        seen = 0
        while seen < 25:
            g = random_connected_gnp(rng, int(rng.integers(4, 30)), 0.2)
            m = compute_metrics(g)
            oracle = double_cover_odd_girth(g)
            assert m.odd_girth == oracle
            if m.odd_girth is not None:
                seen += 1


def test_edge_list_round_trip(tmp_path, torus5):
    path = str(tmp_path / "g.edges")
    write_edge_list(torus5, path)
    back = read_edge_list(path)
    assert adjacency_lists(back) == adjacency_lists(torus5)
    with open(path, encoding="ascii") as fh:
        assert fh.readline() == "25 50\n"


def test_edge_list_tolerates_whitespace(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("3  2\n0 1\n\n  1   2 \n")
    g = read_edge_list(str(path))
    assert adjacency_lists(g) == [[1], [0, 2], [1]]


def test_edge_list_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.edges"
    for text, message in [
        ("", "missing header"),
        ("3 2\n0 1\n", "expected 2 edges, found 1"),
        ("-5 0\n", "negative counts n=-5, m=0"),
        ("3 -1\n", "negative counts n=3, m=-1"),
        ("3 1\n0 1 extra\n", r"odd number of edge endpoints \(3\)"),
        ("3 1\n0 3\n", "out of range"),
        ("3 1\n0 99999999999999999999\n", "out of range"),
    ]:
        bad.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_edge_list(str(bad))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_random_graph_edge_list_round_trip(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_gnp(rng, int(rng.integers(2, 25)), 0.3)
    path = str(tmp_path_factory.mktemp("edges") / "g.edges")
    write_edge_list(g, path)
    assert adjacency_lists(read_edge_list(path)) == adjacency_lists(g)
