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

    @pytest.mark.parametrize("build, value", [
        (lambda: Network.from_edges(3, [(0, 1.7), (1, 2.2)]), "1.7"),
        (lambda: Network([0, 1, 2], [1.9, 0.3]), "1.9"),
        (lambda: Network([0, 1.5, 2], [1, 0]), "1.5"),
        (lambda: Network.from_edges(2, [(0, 1), (float("nan"), 1)]), "nan"),
        (lambda: Network([0, 1, 2], [float("inf"), 0]), "inf"),
        (lambda: Network.from_edges(2, [(0, -float("inf"))]), "-inf"),
        (lambda: Network.from_edges(2, [(0, 1e300)]), "1e+300"),
    ])
    def test_rejects_values_that_are_not_whole(self, build, value):
        # the int64 cast would truncate them (1.7 -> 1) or warn (NaN, inf)
        with pytest.raises(ValueError, match=f"^{re.escape(value)} is not a whole number"):
            build()

    def test_whole_numbers_of_any_dtype_build(self):
        want = Network.from_edges(3, [(0, 1), (1, 2)])
        for g in (Network.from_edges(3, [(0, 1.0), (1, 2.0)]),
                  Network.from_edges(3, np.array([[0, 1], [1, 2]], dtype=np.int32)),
                  Network([0.0, 1.0, 3.0, 4.0], [1.0, 0.0, 2.0, 1.0])):
            assert g.indptr.dtype == g.indices.dtype == np.int64
            assert np.array_equal(g.indptr, want.indptr)
            assert np.array_equal(g.indices, want.indices)
        assert Network([0, 0], []).vertex_count == 1
        assert Network.from_edges(2, []).edge_count == 0

    def test_sorts_adjacency(self):
        g = Network([0, 2, 3, 4], [2, 1, 0, 0])
        assert g.neighbors(0) == [1, 2]
        assert g.indices.tolist() == [1, 2, 0, 0]

    # (rows, the message or None): empty rows first, in the middle and
    # last; a repeat inside a sorted row and inside an unsorted one; a
    # self-loop; asymmetric arcs with sorted rows
    ROW_CASES = [
        ([[], [2, 5], [1, 5], [], [], [1, 2], []], None),
        ([[], [3], [3], [1, 2]], None),
        ([[1, 2, 3], [0, 2], [], [0, 1], [0]], "asymmetric edge (0, 2)"),
        ([[1, 2, 2], [0], [0, 0]], "duplicate edge (0, 2)"),
        ([[3, 1, 3], [0], [], [0, 0]], "duplicate edge (0, 3)"),
        ([[], [2, 3], [1], [1, 3]], "self-loop at vertex 3"),
        ([[1, 2], [0, 2], [0]], "asymmetric edge (1, 2)"),
    ]

    @pytest.mark.parametrize("rows, message", ROW_CASES)
    def test_row_order_does_not_change_the_result(self, rows, message):
        """Rows given sorted, reversed or shuffled store identical arrays,
        or raise the identical message."""
        rng = np.random.default_rng(29)
        indptr = np.cumsum([0] + [len(row) for row in rows])
        orders = {"as given": rows, "sorted": [sorted(row) for row in rows],
                  "reversed": [sorted(row)[::-1] for row in rows],
                  "shuffled": [rng.permutation(row).tolist() for row in rows]}
        for name, ordered in orders.items():
            indices = np.array([v for row in ordered for v in row], dtype=np.int64)
            if message is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    Network(indptr, indices)
                continue
            g = Network(indptr, indices)
            assert g.indptr.tolist() == indptr.tolist(), name
            assert g.indices.dtype == np.int64, name
            assert [g.neighbors(u) for u in range(len(rows))] == orders["sorted"], name

    def test_from_edges_leaves_its_input_unchanged(self):
        edges = np.array([[2, 0], [0, 1], [3, 2], [1, 2]], dtype=np.int64)
        before = edges.copy()
        g = Network.from_edges(4, edges)
        assert np.array_equal(edges, before)
        assert g.indices.tolist() == [1, 2, 0, 2, 0, 1, 3, 2]


def test_basic_counts_and_edges(triangle):
    assert triangle.vertex_count == 3
    assert triangle.edge_count == 3
    assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]
    assert triangle.degrees.tolist() == [2, 2, 2]


def test_flat_neighbor_arrays(path3):
    assert path3.indptr.tolist() == [0, 1, 3, 4]
    assert path3.indices.tolist() == [1, 0, 2, 1]
    assert [path3.neighbors(u) for u in range(3)] == [[1], [0, 2], [1]]


def test_is_connected():
    assert Network.from_edges(3, [(0, 1), (1, 2)]).is_connected()
    assert not Network.from_edges(4, [(0, 1), (2, 3)]).is_connected()
    # 4-regular like a torus, but two components
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    two_k5 = Network.from_edges(10, k5 + [(u + 5, v + 5) for u, v in k5])
    assert set(two_k5.degrees.tolist()) == {4}
    assert not two_k5.is_connected()


def test_single_vertex_is_connected():
    assert Network([0, 0], []).is_connected()


class TestTorus:
    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            build_torus_grid(2, 5)
        with pytest.raises(ValueError):
            build_torus_grid(5, 2)

    def test_rows_equal_a_sorting_reference(self):
        """``_torus_rows`` equals a straightforward build that sorts every
        row, for every shape from 3x3 to 39x39 and a few larger ones."""
        from peerpressure.graphs import _torus_rows

        def reference(width, height):
            x = np.tile(np.arange(width, dtype=np.int64), height)
            row = np.repeat(np.arange(height, dtype=np.int64) * width, width)
            n = width * height
            rows = np.stack([(x + 1) % width + row, (x - 1) % width + row,
                             (row + width) % n + x, (row - width) % n + x], axis=1)
            rows.sort(axis=1)
            return rows

        shapes = [(w, h) for w in range(3, 40) for h in range(3, 40)]
        for w, h in shapes + [(50, 50), (301, 300)]:
            got = _torus_rows(w, h)
            assert got.dtype == np.int64 and got.shape == (w * h, 4), (w, h)
            assert np.array_equal(got, reference(w, h)), (w, h)

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
        assert want.torus_shape() == (w, h)

    def test_other_four_regular_graphs_have_no_torus_shape(self):
        k5 = Network.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert set(k5.degrees.tolist()) == {4} and k5.torus_shape() is None
        assert Network.from_edges(3, [(0, 1), (1, 2), (2, 0)]).torus_shape() is None
        # 4-regular on 10 and 12 vertices, with no torus rows
        two_k5 = Network.from_edges(10, [(u + 5 * c, v + 5 * c) for c in (0, 1)
                                         for u in range(5) for v in range(u + 1, 5)])
        circulant = Network.from_edges(12, [(u, (u + s) % 12) for u in range(12) for s in (1, 5)])
        for g in (two_k5, circulant):
            assert set(g.degrees.tolist()) == {4} and g.torus_shape() is None
        # ruled out once: later calls read the cache
        assert circulant._torus == ()
        assert Network([0, 0], []).torus_shape() is None

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
        assert m.bipartition.dtype == bool and m.bipartition.shape == (24,)
        assert np.count_nonzero(m.bipartition) == 12
        assert not m.bipartition[0]  # True marks odd distance from vertex 0

    def test_width_three_torus_has_triangle_girth(self):
        assert compute_metrics(build_torus_grid(3, 6)).odd_girth == 3

    def test_closed_form_matches_search(self):
        for width in range(3, 10):
            for height in range(3, 10):
                g = build_torus_grid(width, height)
                # the same arrays with the torus ruled out are searched
                searched = Network(g.indptr, g.indices)
                searched._torus = ()
                assert searched.torus_shape() is None
                closed, found = compute_metrics(g), compute_metrics(searched)
                for name in ("diameter", "min_degree", "odd_girth"):
                    assert getattr(closed, name) == getattr(found, name), (width, height, name)
                if found.bipartition is None:
                    assert closed.bipartition is None, (width, height)
                else:
                    assert closed.bipartition.dtype == found.bipartition.dtype == bool
                    assert np.array_equal(closed.bipartition, found.bipartition), (width, height)

    def test_no_search_on_a_torus(self, tmp_path, monkeypatch):
        import peerpressure.graphs as graphs

        calls = []
        real = graphs.bfs_distances
        monkeypatch.setattr(graphs, "bfs_distances",
                            lambda g, s: calls.append(s) or real(g, s))
        torus = build_torus_grid(12, 10)
        write_edge_list(torus, str(tmp_path / "torus.edges"))
        perm = np.random.default_rng(3).permutation(120)
        edges = set(torus.edges())
        # two edges swapped for two others: still 4-regular, not the torus
        edges ^= {(65, 66), (85, 86), (65, 85), (66, 86)}
        rng = np.random.default_rng(4)
        cases = {
            "built": (torus, False),
            "read back": (read_edge_list(str(tmp_path / "torus.edges")), False),
            "relabelled": (Network.from_edges(120, perm[np.array(torus.edges())]), True),
            "switched": (Network.from_edges(120, sorted(edges)), True),
            "gnp": (random_connected_gnp(rng, 30, 0.2), True),
        }
        for name, (g, searched) in cases.items():
            calls.clear()
            assert g.is_connected(), name
            compute_metrics(g)
            assert (g.torus_shape() is None) == searched, name
            assert bool(calls) == searched, name


class TestTrustedBuilders:
    """Every network built through the trusted door equals the one the
    validating constructor makes from its edges."""

    @staticmethod
    def assert_validated_equal(g):
        want = Network.from_edges(g.vertex_count, g.edges())
        for name in ("indptr", "indices", "degrees"):
            got, expected = getattr(g, name), getattr(want, name)
            assert got.dtype == expected.dtype, name
            assert np.array_equal(got, expected), name
        assert g.torus_shape() == want.torus_shape()
        assert g.is_connected() == want.is_connected()

    @pytest.mark.parametrize("w, h", [(w, h) for w in range(3, 11) for h in range(3, 11)]
                             + [(60, 50), (59, 47), (60, 3), (3, 50), (31, 4), (11, 50)])
    def test_torus(self, w, h):
        g = build_torus_grid(w, h)
        assert g.torus_shape() == (w, h) and g.is_connected()
        self.assert_validated_equal(g)

    def test_suite_families(self):
        from peerpressure.suites import _complete, _complete_bipartite, _cycle, _random_gnp

        rng = np.random.default_rng(22)
        for n in range(3, 61):
            self.assert_validated_equal(_cycle(n))
            self.assert_validated_equal(_complete(n))
            self.assert_validated_equal(_complete_bipartite(1 + 7 * n % (n - 1), n))
            for p in (None, 0.08, 0.4, 0.9):
                self.assert_validated_equal(_random_gnp(rng, n, p))


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
        assert m.bipartition.tolist() == [False, True] * 3

    def test_complete_graph(self):
        g = Network.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        m = compute_metrics(g)
        assert (m.diameter, m.odd_girth, m.min_degree) == (1, 3, 3)

    def test_petersen(self):
        m = compute_metrics(petersen())
        assert (m.diameter, m.odd_girth, m.min_degree) == (2, 5, 3)

    def test_trivial_networks(self):
        # a single vertex has no arcs at all, which the level sweep must not reach
        m = compute_metrics(Network([0, 0], []))
        assert (m.diameter, m.min_degree, m.odd_girth) == (0, 0, None)
        assert m.bipartition.tolist() == [False]
        m = compute_metrics(Network.from_edges(2, [(0, 1)]))
        assert (m.diameter, m.bipartition.tolist(), m.odd_girth) == (1, [False, True], None)

    def test_no_per_source_bfs(self, monkeypatch, cycle6):
        # all sources are searched at once; the bipartition needs no extra BFS
        import peerpressure.graphs as graphs

        assert cycle6.is_connected()  # cached, so only calls from the metrics count
        sources = []
        real = graphs.bfs_distances
        monkeypatch.setattr(graphs, "bfs_distances",
                            lambda g, s: sources.append(s) or real(g, s))
        m = compute_metrics(cycle6)
        assert sources == []
        assert m.bipartition.tolist() == [False, True] * 3

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_cycles_across_chunks(self, n):
        # sources are searched 64 at a time; these straddle the chunk edges
        m = compute_metrics(Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
        assert m.diameter == n // 2
        if n % 2:
            assert (m.odd_girth, m.bipartition) == (n, None)
        else:
            assert m.odd_girth is None
            assert m.bipartition.tolist() == [v % 2 == 1 for v in range(n)]

    def test_odd_torus_across_chunks(self):
        m = compute_metrics(build_torus_grid(9, 13))  # n = 117
        assert (m.diameter, m.odd_girth, m.bipartition) == (10, 9, None)

    def test_even_torus_classes_across_chunks(self):
        m = compute_metrics(build_torus_grid(10, 12))  # n = 120, vertex x + 10 y
        parity = [(v % 10 + v // 10) % 2 for v in range(120)]
        assert m.odd_girth is None
        assert m.diameter == 11
        assert m.bipartition.tolist() == [p == 1 for p in parity]

    def test_extremes_seen_only_by_a_later_chunk(self):
        # A path of 130 vertices whose middle 64 carry labels 0..63, with a
        # triangle closing its far end: chunk 0 holds none of the endpoints
        # of a longest shortest path and no vertex of the triangle.
        order = list(range(64, 97)) + list(range(64)) + list(range(97, 130))
        g = Network.from_edges(130, list(zip(order, order[1:])) + [(order[-3], order[-1])])
        m = compute_metrics(g)
        assert (m.diameter, m.odd_girth) == (128, 3)
        assert m.diameter == naive_diameter(adjacency_lists(g))
        assert m.odd_girth == double_cover_odd_girth(g)

    def test_random_graphs_across_chunks_match_oracles(self):
        rng = np.random.default_rng(11)
        for n in (65, 90, 128, 150):
            g = random_connected_gnp(rng, n, 6 / n)
            m = compute_metrics(g)
            assert m.diameter == naive_diameter(adjacency_lists(g))
            assert m.odd_girth == double_cover_odd_girth(g)

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


def _pinned_networks():
    rng = np.random.default_rng(28)
    return {
        "torus 30x20": build_torus_grid(30, 20),
        "10-regular": sample_random_regular(60, 10, rng),
        "gnp": random_connected_gnp(rng, 40, 0.2),
    }


@pytest.mark.parametrize("name", ["torus 30x20", "10-regular", "gnp"])
def test_edge_list_read_back_arrays(tmp_path, name):
    """Reading an edge list back gives the written network's CSR arrays,
    dtypes and torus shape, not only its adjacency lists."""
    g = _pinned_networks()[name]
    path = str(tmp_path / "g.edges")
    write_edge_list(g, path)
    back = read_edge_list(path)
    for field in ("indptr", "indices", "degrees"):
        got, want = getattr(back, field), getattr(g, field)
        assert got.dtype == np.int64, field
        assert np.array_equal(got, want), field
    assert back.torus_shape() == g.torus_shape()


@pytest.mark.parametrize("name", ["torus 30x20", "10-regular", "gnp"])
def test_from_edges_ignores_edge_order_and_orientation(name):
    g = _pinned_networks()[name]
    edges = np.array(g.edges(), dtype=np.int64)
    rng = np.random.default_rng(5)
    shuffled = edges[rng.permutation(len(edges))]
    swap = rng.random(len(edges)) < 0.5
    shuffled[swap] = shuffled[swap, ::-1]
    back = Network.from_edges(g.vertex_count, shuffled)
    for field in ("indptr", "indices", "degrees"):
        got, want = getattr(back, field), getattr(g, field)
        assert got.dtype == np.int64, field
        assert np.array_equal(got, want), field


def test_edge_list_tolerates_whitespace(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("3  2\n0 1\n\n  1   2 \n")
    g = read_edge_list(str(path))
    assert adjacency_lists(g) == [[1], [0, 2], [1]]


# Malformed edge lists that the byte parse must hand to the token path, and
# the token path's message for each. Several are traps for the byte parse:
# whitespace alone parses as [0], a lone sign as a sign of the next number
# or as 0, and overflow saturates at INT64_MAX.
EDGE_LIST_TRAPS = [
    ("", "missing header"),
    ("  \n", "missing header"),
    ("3 2\n0 1\n", "expected 2 edges, found 1"),
    ("-5 0\n", "negative counts n=-5, m=0"),
    ("3 -1\n", "negative counts n=3, m=-1"),
    ("3 1\n0 1 extra\n", r"odd number of edge endpoints \(3\)"),
    ("3 1\n0 1\n\x00x", r"odd number of edge endpoints \(3\)"),
    ("3 1\n0 - 1\n", r"odd number of edge endpoints \(3\)"),
    ("3 1\n0 + 1\n", r"odd number of edge endpoints \(3\)"),
    ("3 1\n0 1 -\n", r"odd number of edge endpoints \(3\)"),
    ("3 1\n0 1-\n", "invalid literal for int.*'1-'"),
    ("3 1\n0 99999999999999999999\n", "edge endpoint out of range for n=3"),
    ("3 1\n0 9223372036854775808\n", "edge endpoint out of range for n=3"),
    ("3 1\n0 9223372036854775807\n", r"edge \(0, 9223372036854775807\) out of range for n=3"),
    ("x 0\n", "invalid literal for int"),
    ("3 1\n0 1.5\n", "invalid literal for int.*'1.5'"),
    ("3 1\n0 2.5\n", "invalid literal for int.*'2.5'"),
    ("3 1\n0 0x2\n", "invalid literal for int.*'0x2'"),
    ("3 1\n0 \u00e9\n", "'ascii' codec can't decode"),
    ("\ufeff3 1\n0 1\n", "'ascii' codec can't decode byte 0xef in position 0"),
]
# Well formed for the byte parse; from_edges finds what is wrong.
MALFORMED_EDGE_LISTS = EDGE_LIST_TRAPS + [
    ("3 1\n0 3\n", "out of range"),
    # 728 TiB of row offsets: the allocation fails at once
    ("100000000000000 0\n", "header vertex count n=100000000000000 is too large"),
]


def test_edge_list_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.edges"
    for text, message in MALFORMED_EDGE_LISTS:
        bad.write_text(text, encoding="utf-8")
        # every message names the file first
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: .*{message}"):
            read_edge_list(str(bad))


# An edge list that only the token path reads right.
INT_ONLY_EDGE_LIST = b"1001 2\r\n+1\t007\x1c1_000 0\r\n"


def test_edge_list_accepts_what_int_accepts(tmp_path):
    """Signs, leading zeros, digit underscores and every whitespace that
    ``str.split`` knows (here CRLF, a tab and the 0x1c separator) read as
    ``int`` reads them."""
    path = tmp_path / "g.edges"
    path.write_bytes(INT_ONLY_EDGE_LIST)
    g = read_edge_list(str(path))
    want = Network.from_edges(1001, [(1, 7), (1000, 0)])
    for field in ("indptr", "indices", "degrees"):
        assert getattr(g, field).dtype == np.int64, field
        assert np.array_equal(getattr(g, field), getattr(want, field)), field


def test_edge_list_byte_parse_is_taken(tmp_path, monkeypatch):
    """A well-formed file never reaches the token path, and every trap and
    every file that only ``int`` reads right does."""
    import peerpressure.graphs as graphs

    def token_path(data):
        raise AssertionError("token path reached")

    monkeypatch.setattr(graphs, "_token_edges", token_path)
    path = tmp_path / "g.edges"
    torus = build_torus_grid(12, 10)
    write_edge_list(torus, str(path))
    assert np.array_equal(read_edge_list(str(path)).indices, torus.indices)
    for text, message in MALFORMED_EDGE_LISTS[len(EDGE_LIST_TRAPS):]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_edge_list(str(path))
    for text, _ in EDGE_LIST_TRAPS:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(AssertionError, match="token path reached"):
            read_edge_list(str(path))
    path.write_bytes(INT_ONLY_EDGE_LIST)
    with pytest.raises(AssertionError, match="token path reached"):
        read_edge_list(str(path))


def _traced_peak(build):
    """``build()`` and the peak bytes that tracemalloc saw it allocate."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _kept_bytes(g):
    return g.indptr.nbytes + g.indices.nbytes + g.degrees.nbytes


def test_edge_list_read_peak_memory(tmp_path):
    """Reading a 100x100 torus allocates at most three times the arrays it
    keeps: no list of tokens, and few per-arc int64 temporaries."""
    path = str(tmp_path / "g.edges")
    write_edge_list(build_torus_grid(100, 100), path)
    g, peak = _traced_peak(lambda: read_edge_list(path))
    assert peak <= 3 * _kept_bytes(g), peak / _kept_bytes(g)


def test_torus_build_peak_memory():
    """A 100x100 torus is built within one and a half times the arrays it
    keeps, and recognised within twice its ``indices``: its rows are made
    without a per-row sort."""
    g, peak = _traced_peak(lambda: build_torus_grid(100, 100))
    assert peak <= 1.5 * _kept_bytes(g), peak / _kept_bytes(g)
    unmarked = Network(g.indptr, g.indices)
    shape, peak = _traced_peak(unmarked.torus_shape)
    assert shape == (100, 100)
    assert peak <= 2 * g.indices.nbytes, peak / g.indices.nbytes


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_random_graph_edge_list_round_trip(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_gnp(rng, int(rng.integers(2, 25)), 0.3)
    path = str(tmp_path_factory.mktemp("edges") / "g.edges")
    write_edge_list(g, path)
    assert adjacency_lists(read_edge_list(path)) == adjacency_lists(g)
