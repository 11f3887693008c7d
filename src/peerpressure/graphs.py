"""Simple undirected networks: construction, sampling, and structural metrics.

Vertices are integers ``0..n-1``. A :class:`Network` is held in compressed
sparse row form only: row offsets ``indptr`` and the concatenated, sorted
neighbour lists ``indices``. Construction rejects self-loops, duplicate
edges and asymmetric input with array operations. Two generators are
provided: a wrap-around grid where every vertex has exactly four
neighbours, and a random d-regular sampler that pairs deficient vertices
uniformly at random until no legal pair remains, discarding the few
left-over vertices so the result is d-regular by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GenerationError(RuntimeError):
    """Raised when random graph generation exhausts its retry budget."""


@dataclass(eq=False)
class Network:
    """Undirected simple graph in compressed sparse row (CSR) form.

    Parameters
    ----------
    indptr : array of int, length n + 1
        Row offsets: the neighbours of ``u`` are
        ``indices[indptr[u]:indptr[u + 1]]``. Must start at 0, never
        decrease and end at ``len(indices)``.
    indices : array of int
        All neighbour lists concatenated. Must be symmetric, without
        self-loops or repeated entries. Rows are sorted on construction so
        that equal graphs have identical arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    #: Source vertex of each entry in ``indices``.
    neighbor_src: np.ndarray = field(init=False, repr=False)
    degrees: np.ndarray = field(init=False, repr=False)
    #: The degree shared by every vertex; None if degrees differ or n = 0.
    regular_degree: int | None = field(init=False, repr=False)
    _connected: bool | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        if (indptr.ndim != 1 or indices.ndim != 1 or indptr.size == 0 or indptr[0] != 0
                or indptr[-1] != indices.size or (indptr[1:] < indptr[:-1]).any()):
            raise ValueError("indptr must start at 0, never decrease and end at len(indices)")
        n = indptr.size - 1
        degrees = indptr[1:] - indptr[:-1]
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        bad = np.flatnonzero((indices < 0) | (indices >= n))
        if bad.size:
            raise ValueError(f"neighbour {indices[bad[0]]} of vertex {src[bad[0]]} out of range")
        loops = np.flatnonzero(indices == src)
        if loops.size:
            raise ValueError(f"self-loop at vertex {src[loops[0]]}")
        # One sort orders every row (src is already non-decreasing) and
        # brings repeated neighbours side by side.
        row_base = src * n
        keys = np.sort(row_base + indices)
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            u, v = divmod(int(keys[dup[0]]), n)
            raise ValueError(f"duplicate edge ({u}, {v})")
        # Symmetric exactly when the reversed arcs are the same set.
        reverse = np.sort(indices * n + src)
        if not np.array_equal(keys, reverse):
            u, v = divmod(int(np.setdiff1d(keys, reverse, assume_unique=True)[0]), n)
            raise ValueError(f"asymmetric edge ({u}, {v})")
        self.indptr = indptr
        self.indices = keys - row_base
        self.neighbor_src = src
        self.degrees = degrees
        regular = n > 0 and bool((degrees == degrees[0]).all())
        self.regular_degree = int(degrees[0]) if regular else None

    @property
    def vertex_count(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, u: int) -> list[int]:
        """The sorted neighbours of ``u`` as a plain list."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]].tolist()

    def edges(self) -> list[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, sorted."""
        keep = self.neighbor_src < self.indices
        return list(zip(self.neighbor_src[keep].tolist(), self.indices[keep].tolist()))

    def is_connected(self) -> bool:
        if self._connected is None:
            n = self.vertex_count
            if n == 0:
                self._connected = True
            else:
                self._connected = int((bfs_distances(self, 0) >= 0).sum()) == n
        return self._connected

    @classmethod
    def from_edges(cls, n: int, edges) -> "Network":
        """Network on ``n`` vertices from ``m`` edges, an ``(m, 2)`` array or a list of pairs."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            u, v = edges[((edges < 0) | (edges >= n)).any(axis=1)][0].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        # Both arcs of every edge, grouped by source; rows are sorted later.
        src = edges.ravel()
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr, edges[:, ::-1].ravel()[order])


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
    x = np.tile(np.arange(width, dtype=np.int64), height)
    row = np.repeat(np.arange(height, dtype=np.int64) * width, width)
    n = width * height
    columns = np.stack([(x + 1) % width + row, (x - 1) % width + row,
                        (row + width) % n + x, (row - width) % n + x], axis=1)
    return Network(np.arange(0, 4 * n + 1, 4), columns.ravel())


def sample_random_regular(n: int, d: int, rng: np.random.Generator) -> Network:
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
        If no connected d-regular graph is produced in 100 attempts.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    for _ in range(100):
        g = _try_pairing(n, d, rng)
        if g is not None and g.is_connected():
            return g
    raise GenerationError(
        f"no connected {d}-regular graph on <= {n} vertices in 100 attempts")


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
    # Survivors keep their order, renumbered 0..len(alive)-1.
    edges = [(u, v) for u in alive for v in neighbors[u] if u < v]
    return Network.from_edges(len(alive), np.searchsorted(alive, edges))


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
    indptr, indices = network.indptr, network.indices
    while frontier.size:
        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        # gather all neighbours of the frontier in one shot
        idx = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens) + np.repeat(starts, lens)
        nbrs = indices[idx]
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        level += 1
        dist[fresh] = level
        frontier = fresh
    return dist


def compute_metrics(network: Network) -> GraphMetrics:
    """Diameter, minimum degree, and bipartition or shortest odd cycle.

    Requires a connected network. The diameter is the largest breadth-first
    eccentricity over all vertices. The shortest odd cycle length is
    recovered from the same sweep: for every source s, any edge (u, v)
    with dist_s(u) == dist_s(v) closes an odd walk of length
    2*dist_s(u) + 1, and the minimum of these over all sources is exact
    because distances from a vertex on a shortest odd cycle to the cycle's
    far edge are realised inside the cycle. The graph is bipartite exactly
    when no source finds such an edge, and then the parity of the
    distances from vertex 0 gives the two classes.
    """
    n = network.vertex_count
    if n == 0:
        raise ValueError("empty network")
    if not network.is_connected():
        raise ValueError("metrics require a connected network")

    edge_u = network.neighbor_src
    edge_v = network.indices
    diameter = 0
    odd_girth: int | None = None
    for s in range(n):
        dist = bfs_distances(network, s)
        if s == 0:
            color = dist % 2
        diameter = max(diameter, int(dist.max()))
        same = dist[edge_u] == dist[edge_v]
        if same.any():
            cand = 2 * int(dist[edge_u][same].min()) + 1
            odd_girth = cand if odd_girth is None else min(odd_girth, cand)

    bipartition = None
    if odd_girth is None:
        side_a = tuple(int(v) for v in np.flatnonzero(color == 0))
        side_b = tuple(int(v) for v in np.flatnonzero(color != 0))
        bipartition = (side_a, side_b)
    return GraphMetrics(
        diameter=diameter,
        min_degree=int(network.degrees.min()),
        bipartition=bipartition,
        odd_girth=odd_girth,
    )


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
    if n < 0 or m < 0:
        raise ValueError(f"{path}: header gives negative counts n={n}, m={m}")
    if len(tokens) % 2:
        raise ValueError(f"{path}: odd number of edge endpoints ({len(tokens) - 2})")
    if len(tokens) != 2 + 2 * m:
        raise ValueError(f"{path}: expected {m} edges, found {(len(tokens) - 2) // 2}")
    try:
        edges = np.array(tokens[2:], dtype=np.int64).reshape(m, 2)
    except OverflowError:
        raise ValueError(f"{path}: edge endpoint out of range for n={n}") from None
    return Network.from_edges(n, edges)
