"""Simple undirected networks: construction, sampling, and structural metrics.

Vertices are integers ``0..n-1``. A :class:`Network` stores sorted adjacency
lists and rejects self-loops, duplicate edges and asymmetric input. Two
generators are provided: a wrap-around grid where every vertex has exactly
four neighbours, and a random d-regular sampler that pairs deficient
vertices uniformly at random until no legal pair remains, discarding the
few left-over vertices so the result is d-regular by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GenerationError(RuntimeError):
    """Raised when random graph generation exhausts its retry budget."""


@dataclass(eq=False)
class Network:
    """Undirected simple graph held as sorted adjacency lists.

    Parameters
    ----------
    adjacency : list[list[int]]
        ``adjacency[u]`` lists the neighbours of ``u``. Must be symmetric,
        without self-loops or repeated entries. Lists are sorted on
        construction so that equal graphs have identical representations.
    """

    adjacency: list[list[int]]
    _flat: np.ndarray = field(init=False, repr=False)
    _src: np.ndarray = field(init=False, repr=False)
    _degrees: np.ndarray = field(init=False, repr=False)
    _regular_degree: int | None = field(init=False, repr=False)
    _connected: bool | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.adjacency)
        seen = [set() for _ in range(n)]
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if not 0 <= v < n:
                    raise ValueError(f"neighbour {v} of vertex {u} out of range")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if v in seen[u]:
                    raise ValueError(f"duplicate edge ({u}, {v})")
                seen[u].add(v)
        for u in range(n):
            for v in seen[u]:
                if u not in seen[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")
        self.adjacency = [sorted(nbrs) for nbrs in self.adjacency]
        self._degrees = np.array([len(a) for a in self.adjacency], dtype=np.int64)
        if n and self._degrees.sum():
            self._flat = np.concatenate([np.asarray(a, dtype=np.int64) for a in self.adjacency])
        else:
            self._flat = np.zeros(0, dtype=np.int64)
        self._src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        regular = n > 0 and bool((self._degrees == self._degrees[0]).all())
        self._regular_degree = int(self._degrees[0]) if regular else None

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return int(self._degrees.sum()) // 2

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def regular_degree(self) -> int | None:
        """The degree shared by every vertex; None if degrees differ or n = 0."""
        return self._regular_degree

    @property
    def neighbor_flat(self) -> np.ndarray:
        """All neighbour lists concatenated; pairs with :attr:`neighbor_src`."""
        return self._flat

    @property
    def neighbor_src(self) -> np.ndarray:
        """Source vertex of each entry in :attr:`neighbor_flat`."""
        return self._src

    def edges(self) -> list[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]

    def is_connected(self) -> bool:
        if self._connected is None:
            n = self.vertex_count
            if n == 0:
                self._connected = True
            else:
                self._connected = int((bfs_distances(self, 0) >= 0).sum()) == n
        return self._connected

    @classmethod
    def from_edges(cls, n: int, edges: list[tuple[int, int]]) -> "Network":
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adjacency[u].append(v)
            adjacency[v].append(u)
        return cls(adjacency)


@dataclass(frozen=True)
class GraphMetrics:
    """Structural summary of a connected network.

    Exactly one of ``bipartition`` and ``odd_girth`` is set: bipartite
    graphs carry their two vertex classes (the class containing vertex 0
    first), non-bipartite graphs carry the length of a shortest odd cycle.
    """

    diameter: int
    min_degree: int
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_girth: int | None

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition is not None


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def build_torus_grid(width: int, height: int) -> Network:
    """Wrap-around rectangular grid; every vertex has exactly 4 neighbours.

    Vertex (x, y) has index ``x + y * width`` and is adjacent to
    (x +/- 1 mod width, y) and (x, y +/- 1 mod height). Both dimensions
    must be at least 3, otherwise wrap-around neighbours would coincide
    and the graph would not be simple and 4-regular.
    """
    if width < 3 or height < 3:
        raise ValueError(f"torus dimensions must be >= 3, got {width}x{height}")
    adjacency = []
    for y in range(height):
        for x in range(width):
            adjacency.append([
                (x + 1) % width + y * width,
                (x - 1) % width + y * width,
                x + ((y + 1) % height) * width,
                x + ((y - 1) % height) * width,
            ])
    return Network(adjacency)


def sample_random_regular(n: int, d: int, rng: np.random.Generator,
                          max_restarts: int = 100) -> Network:
    """Sample a connected d-regular graph on at most ``n`` vertices.

    Edges are added one at a time between two distinct vertices of degree
    below ``d``, chosen uniformly at random; pairs that would create a
    duplicate edge are rejected and redrawn. When no legal pair remains,
    vertices still short of degree ``d`` are discarded together with their
    edges and pairing resumes among the newly deficient vertices, so the
    surviving graph is d-regular by construction (its vertex count may be
    slightly below ``n``). Disconnected outcomes trigger a restart.

    Raises
    ------
    GenerationError
        If no connected d-regular graph is produced in ``max_restarts``
        attempts.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    for _ in range(max_restarts):
        g = _try_pairing(n, d, rng)
        if g is not None and g.is_connected():
            return g
    raise GenerationError(
        f"no connected {d}-regular graph on <= {n} vertices in {max_restarts} attempts")


def _try_pairing(n: int, d: int, rng: np.random.Generator) -> Network | None:
    alive = list(range(n))
    neighbors: list[set[int]] = [set() for _ in range(n)]

    def pair_up() -> None:
        # Pair deficient vertices until no non-adjacent pair is left.
        deficient = [u for u in alive if len(neighbors[u]) < d]
        while len(deficient) > 1:
            found = False
            for _ in range(50):
                i, j = rng.integers(0, len(deficient), size=2)
                u, v = deficient[int(i)], deficient[int(j)]
                if u != v and v not in neighbors[u]:
                    found = True
                    break
            if not found:
                # Rejection is stalling; enumerate the legal pairs exactly.
                legal = [(u, v) for a, u in enumerate(deficient)
                         for v in deficient[a + 1:] if v not in neighbors[u]]
                if not legal:
                    return
                u, v = legal[int(rng.integers(0, len(legal)))]
            neighbors[u].add(v)
            neighbors[v].add(u)
            if len(neighbors[u]) == d:
                deficient.remove(u)
            if len(neighbors[v]) == d:
                deficient.remove(v)

    while True:
        pair_up()
        leftovers = [u for u in alive if len(neighbors[u]) < d]
        if not leftovers:
            break
        for u in leftovers:
            for v in neighbors[u]:
                neighbors[v].discard(u)
            neighbors[u].clear()
        alive = [u for u in alive if u not in set(leftovers)]
        if len(alive) <= d:
            return None
    relabel = {u: i for i, u in enumerate(alive)}
    return Network([[relabel[v] for v in sorted(neighbors[u])] for u in alive])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def bfs_distances(network: Network, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable vertices get -1."""
    n = network.vertex_count
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    offsets = np.concatenate([[0], np.cumsum(network.degrees)])
    flat = network.neighbor_flat
    while frontier.size:
        starts = offsets[frontier]
        lens = offsets[frontier + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        # gather all neighbours of the frontier in one shot
        idx = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens) + np.repeat(starts, lens)
        nbrs = flat[idx]
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        level += 1
        dist[fresh] = level
        frontier = fresh
    return dist


def compute_metrics(network: Network) -> GraphMetrics:
    """Diameter, minimum degree, and bipartition or shortest odd cycle.

    Requires a connected network. The diameter is the largest breadth-first
    eccentricity over all vertices. For non-bipartite graphs the shortest
    odd cycle length is recovered from the same sweep: for every source s,
    any edge (u, v) with dist_s(u) == dist_s(v) closes an odd walk of
    length 2*dist_s(u) + 1, and the minimum of these over all sources is
    exact because distances from a vertex on a shortest odd cycle to the
    cycle's far edge are realised inside the cycle.
    """
    n = network.vertex_count
    if n == 0:
        raise ValueError("empty network")
    if not network.is_connected():
        raise ValueError("metrics require a connected network")

    color = _two_coloring(network)
    edge_u = network.neighbor_src
    edge_v = network.neighbor_flat
    bipartite = bool(np.all(color[edge_u] != color[edge_v])) if edge_u.size else True

    diameter = 0
    odd_girth: int | None = None
    for s in range(n):
        dist = bfs_distances(network, s)
        diameter = max(diameter, int(dist.max()))
        if not bipartite:
            same = dist[edge_u] == dist[edge_v]
            if same.any():
                cand = 2 * int(dist[edge_u][same].min()) + 1
                odd_girth = cand if odd_girth is None else min(odd_girth, cand)

    bipartition = None
    if bipartite:
        side_a = tuple(int(v) for v in np.flatnonzero(color == color[0]))
        side_b = tuple(int(v) for v in np.flatnonzero(color != color[0]))
        bipartition = (side_a, side_b)
    return GraphMetrics(
        diameter=diameter,
        min_degree=int(network.degrees.min()),
        bipartition=bipartition,
        odd_girth=odd_girth,
    )


def _two_coloring(network: Network) -> np.ndarray:
    """Alternate 0/1 colours along a breadth-first sweep from vertex 0."""
    return bfs_distances(network, 0) % 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_edge_list(network: Network, path: str) -> None:
    """Write ``n m`` then one ``u v`` line per edge, 0-based."""
    edges = network.edges()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{network.vertex_count} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str) -> Network:
    """Inverse of :func:`write_edge_list`; tolerant of extra whitespace."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing header")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise ValueError(f"{path}: expected {m} edges, found {(len(tokens) - 2) // 2}")
    edges = [(int(tokens[2 + 2 * i]), int(tokens[3 + 2 * i])) for i in range(m)]
    return Network.from_edges(n, edges)
