"""Simple undirected networks: construction, sampling, and structural metrics.

Vertices are integers ``0..n-1``. A :class:`Network` is held in compressed
sparse row form only: row offsets ``indptr`` and the concatenated, sorted
neighbour lists ``indices``. A network has two doors. The public
constructor, :meth:`Network.from_edges` and :func:`read_edge_list` take
user input and reject self-loops, duplicate edges and asymmetric input
with array operations. The package's own generators, whose arrays are
right by construction, check nothing. Two generators are provided: a
wrap-around grid where every vertex has exactly four neighbours, which
holds only its shape until its arrays are read, and a random d-regular
sampler that pairs deficient vertices uniformly at random until no legal
pair remains, discarding the few left-over vertices so the result is
d-regular by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


# Vertices whose rows torus recognition compares at once.
_COMPARE_ROWS = 1 << 13
# The int64 4 that each read of a shape-only torus's degrees views.
_FOUR = np.int64(4).tobytes()


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

    ``Network(indptr, indices)`` is the validating door, for user input:
    it checks every condition above and raises ``ValueError`` naming the
    first offending vertex or edge. Rows that do not strictly rise are
    first ordered by one stable sort of the arc keys ``u * n + v``, which
    brings repeats side by side. Every input then costs one sort of the
    reversed arcs ``v * n + u``, built in the array it keeps: reduced
    modulo ``n`` they equal ``indices`` exactly when the arcs are
    symmetric, and are stored. Only a failed check rebuilds the keys, to
    name the smallest one-way arc. Beside its input the door holds one
    per-arc int64 array on rising rows, two otherwise; the stored
    ``indices`` is its own, ``indptr`` is kept as given when int64.
    :meth:`from_edges` and :func:`read_edge_list` sort their arcs once and
    hand this door sorted rows. The verify suites' graphs use the trusted
    door instead, ``Network._trusted`` (or ``_from_adjacency``), which
    takes arrays already in final form and checks nothing.

    ``degrees`` is set once on construction; an arc's source is read from
    ``indptr``, not stored, so ``indices`` is the only per-arc array kept.
    Whether the network is exactly a row-major torus, :meth:`torus_shape`,
    is set by :func:`build_torus_grid` or worked out on first use and
    cached; a recognised torus is connected and has closed-form metrics, so
    it is never searched, and :meth:`neighbour_counts` counts on it with a
    slice stencil.

    A torus from :func:`build_torus_grid` holds only its shape, and so do
    its copies and pickles: each read of ``degrees`` is a new read-only
    zero-stride view of one 4, and ``vertex_count``, ``edge_count``, the
    stencil, its metrics, its repr and :func:`write_edge_list` read nothing
    else. It makes ``indptr`` and ``indices`` from :func:`_torus_rows` when
    either is first read, and keeps them. Other networks hold their arrays
    from construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray = field(init=False)
    _connected: bool | None = field(default=None, init=False)
    #: (width, height) once recognised as a torus, () once ruled out.
    _torus: tuple[int, ...] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        indptr = _int64_array(self.indptr)
        indices = _int64_array(self.indices)
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
        if not ((indices[1:] > indices[:-1]) | (src[1:] != src[:-1])).all():
            # One stable sort of the keys u * n + v orders every row and
            # brings repeated neighbours side by side.
            keys = src * n
            keys += indices
            keys.sort(kind="stable")
            dup = np.flatnonzero(keys[1:] == keys[:-1])
            if dup.size:
                u, v = divmod(int(keys[dup[0]]), n)
                raise ValueError(f"duplicate edge ({u}, {v})")
            keys %= n
            indices = keys
        # Rows now strictly rise, so no arc repeats. The reversed arcs, sorted
        # and reduced modulo n, equal indices only if every in-degree is the
        # degree, so only if they are the sorted keys: the arcs are symmetric.
        reverse = src  # becomes v * n + u in place, 8192 arcs at a time
        for lo in range(0, reverse.size, 8192):
            reverse[lo:lo + 8192] += indices[lo:lo + 8192] * n
        reverse.sort()
        reverse %= n
        if not np.array_equal(reverse, indices):
            # name the smallest arc key u * n + v that no reversed arc matches
            keys = np.repeat(np.arange(n, dtype=np.int64), degrees)
            reverse = np.sort(indices * n + keys)
            keys = keys * n + indices
            match = reverse.take(np.searchsorted(reverse, keys), mode="clip") == keys
            u, v = divmod(int(keys[match.argmin()]), n)
            raise ValueError(f"asymmetric edge ({u}, {v})")
        self.indptr, self.indices, self.degrees = indptr, reverse, degrees

    def __getattr__(self, name: str):
        # Only a torus from build_torus_grid lacks its arrays: it views
        # _FOUR as degrees, and makes its CSR arrays on first read and keeps
        # them. _torus is read from __dict__, because copy and unpickling
        # look up attributes before any is set.
        shape = self.__dict__.get("_torus")
        if not shape or name not in ("degrees", "indptr", "indices"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n = shape[0] * shape[1]
        if name == "degrees":
            return np.ndarray(n, np.int64, _FOUR, strides=(0,))
        self.indptr = np.arange(0, 4 * n + 1, 4, dtype=np.int64)
        self.indices = _torus_rows(*shape, 0, n).ravel()
        return self.__dict__[name]

    def __repr__(self) -> str:
        # a shape-only torus names its shape rather than make its arrays
        if "indices" not in self.__dict__:
            return f"build_torus_grid{self._torus}"
        return f"{type(self).__name__}(indptr={self.indptr!r}, indices={self.indices!r})"

    @classmethod
    def _trusted(cls, indptr: np.ndarray, indices: np.ndarray) -> "Network":
        """The unchecked door for the verify suites' graphs.

        ``indptr`` and ``indices`` must be int64 CSR arrays of a simple,
        symmetric and connected graph with every row already sorted,
        exactly what the validating constructor would store. The network
        is marked connected; whether it is a torus is worked out on first
        use.
        """
        network = cls.__new__(cls)
        network.indptr = indptr
        network.indices = indices
        network.degrees = indptr[1:] - indptr[:-1]
        network._connected = True
        return network

    @classmethod
    def _from_adjacency(cls, adjacency: np.ndarray) -> "Network":
        """Trusted network, marked connected, from the symmetric boolean
        adjacency matrix of a connected graph, with a false diagonal."""
        indptr = np.zeros(adjacency.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(adjacency, axis=1), out=indptr[1:])
        return cls._trusted(indptr, np.nonzero(adjacency)[1].astype(np.int64, copy=False))

    @property
    def vertex_count(self) -> int:
        return self.degrees.size

    @property
    def edge_count(self) -> int:
        return 2 * self.vertex_count if self._torus else self.indices.size // 2

    def neighbors(self, u: int) -> list[int]:
        """The sorted neighbours of ``u`` as a plain list."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]].tolist()

    def edges(self) -> list[tuple[int, int]]:
        """Each undirected edge once, as (u, v) with u < v, sorted."""
        src = np.repeat(np.arange(self.vertex_count), self.degrees)
        keep = src < self.indices
        return list(zip(src[keep].tolist(), self.indices[keep].tolist()))

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0, cached; a
        recognised torus is, without a search."""
        if self._connected is None:
            n = self.vertex_count
            self._connected = (n == 0 or self.torus_shape() is not None
                               or int((bfs_distances(self, 0) >= 0).sum()) == n)
        return self._connected

    def torus_shape(self) -> tuple[int, int] | None:
        """``(width, height)`` if this network is exactly
        ``build_torus_grid(width, height)``, else None.

        On such a network the vertices lie row-major on a ``(height,
        width)`` grid: vertex ``x + y * width`` is adjacent to
        ``(x +/- 1) % width + y * width`` and ``x + ((y +/- 1) % height) *
        width``, so a per-vertex array reshaped to ``(height, width)`` is the
        grid itself. :func:`build_torus_grid` records its shape. Any other
        network is recognised from its CSR arrays alone, so a torus read back
        from an edge list is recognised too: only a 4-regular network of at
        least 9 vertices is checked, its width is vertex 0's third-smallest
        neighbour (its sorted neighbours are ``1, width - 1, width, n -
        width``), and every row must then equal the torus's, compared a
        block of rows at a time. Checked on the first call; every later call
        reads the cache. This layout is what
        :func:`_torus_rows` builds and what the stencil of
        :meth:`neighbour_counts` slices.
        """
        if self._torus is None:
            self._torus = ()
            n = self.vertex_count
            if n >= 9 and (self.degrees == 4).all():
                width = int(self.indices[2])
                height = n // width
                rows = self.indices.reshape(n, 4)
                if width >= 3 and height >= 3 and width * height == n and all(
                        np.array_equal(_torus_rows(width, height, lo, min(lo + _COMPARE_ROWS, n)),
                                       rows[lo:lo + _COMPARE_ROWS])
                        for lo in range(0, n, _COMPARE_ROWS)):
                    self._torus = (width, height)
        return self._torus or None

    def neighbour_counts(self, mask: np.ndarray) -> np.ndarray:
        """Each vertex's number of masked neighbours, one per entry of ``mask``.

        A network whose :meth:`torus_shape` is known counts in ``uint8``
        with the slice stencil of :func:`_torus_counts`, whatever its size.
        Every other network counts by symmetry: each masked vertex adds one
        to every neighbour, so the counts are one int64 ``bincount`` of the
        masked vertices' neighbour lists, 0 on an isolated vertex.
        """
        shape = self.torus_shape()
        if shape is not None:
            return _torus_counts(mask.view(np.uint8), *shape)
        return np.bincount(self.indices[np.repeat(mask, self.degrees)], minlength=mask.size)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Network":
        """Network on ``n`` vertices from ``m`` edges, an ``(m, 2)`` array or a list of pairs.

        The edges are copied once, as int64, and never written to.
        :meth:`_from_arcs` turns the copy into the sorted arcs in place
        with one sort, and the validating constructor checks them.
        """
        return cls._from_arcs(n, _int64_array(edges).reshape(-1, 2).copy())

    @classmethod
    def _from_arcs(cls, n: int, edges: np.ndarray) -> "Network":
        """Network on ``n`` vertices from an ``(m, 2)`` int64 edge buffer,
        which it overwrites.

        After the range check, ``indptr`` comes from a ``bincount`` of the
        endpoints. Each pair ``(u, v)`` is then rewritten in place as its
        two arc keys ``u * n + v`` and ``v * n + u``; one sort of the buffer
        orders every row, and reducing it modulo ``n`` in place leaves the
        sorted ``indices``. Beside the buffer it makes one ``(m,)`` column,
        half a per-arc array. The result passes through the validating
        constructor; these rows strictly rise unless an edge repeats, so
        it skips the key sort and sorts only the reversed arcs, in the
        array it keeps. ``read_edge_list`` passes its parsed file straight
        in.
        """
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            u, v = edges[((edges < 0) | (edges >= n)).any(axis=1)][0].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges.ravel(), minlength=n), out=indptr[1:])
        first = edges[:, 0].copy()
        edges[:, 0] *= n
        edges[:, 0] += edges[:, 1]
        edges[:, 1] *= n
        edges[:, 1] += first
        del first
        keys = edges.reshape(-1)
        keys.sort()
        keys %= n
        return cls(indptr, keys)


def _int64_array(values) -> np.ndarray:
    """``values`` as int64; a float that is no whole int64 (1.7, NaN, inf)
    or an integer past int64 (``2**63`` as uint64, a Python ``2**64``)
    raises ``ValueError`` naming it instead of being truncated or wrapped.
    The name is the caller's own number: a list mixing ``-1`` or ``0`` with
    ``2**63`` reaches numpy as float64, which would round it."""
    array = np.asarray(values)
    bad = ()
    if array.dtype.kind == "f":
        bad = np.flatnonzero((array != np.trunc(array)) | ~(np.abs(array) < 2.0 ** 63))
    elif array.dtype.kind in "uO":
        bad = np.flatnonzero((array >= 2 ** 63) | (array < -2 ** 63))
    if len(bad):
        value = np.asarray(values, dtype=object).flat[bad[0]]
        raise ValueError(f"{value} is not a whole number in the int64 range")
    return array.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class GraphMetrics:
    """Structural summary of a connected network.

    Exactly one of ``bipartition`` and ``odd_girth`` is set: a bipartite
    graph carries its two vertex classes as one boolean ``(n,)`` mask, True
    at odd distance from vertex 0, and a non-bipartite graph the length of
    a shortest odd cycle. Metrics compare by identity (``eq=False``).
    """

    diameter: int
    min_degree: int
    bipartition: np.ndarray | None
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
    (x +/- 1 mod width, y) and (x, y +/- 1 mod height). The network is
    marked connected and holds only its shape, with no array:
    :meth:`Network.torus_shape` returns ``(width, height)`` without a
    check, each read of ``degrees`` makes a zero-stride view, and the CSR
    arrays are made from the sorted rows of :func:`_torus_rows`, without
    validation or a sort, only when ``indptr`` or ``indices`` is first
    read. Both dimensions must be at least 3, otherwise wrap-around
    neighbours would coincide and the graph would not be simple and
    4-regular.
    """
    if width < 3 or height < 3:
        raise ValueError(f"torus dimensions must be >= 3, got {width}x{height}")
    torus = Network.__new__(Network)
    torus._connected, torus._torus = True, (width, height)
    return torus


def _torus_rows(width: int, height: int, lo: int, hi: int) -> np.ndarray:
    """The ``(hi - lo, 4)`` neighbours of vertices ``lo..hi-1`` of the
    row-major torus, each row sorted: row ``x + y * width`` holds the
    neighbours at x +/- 1 and y +/- 1.

    An interior row is ``v - width, v - 1, v + 1, v + width``, already in
    order, so the rows are filled that way without a sort; only the rim
    rows (first and last row and column) wrap, and they alone are
    recomputed and sorted. Beside the result it holds one ``(hi - lo,)``
    array.
    """
    n = width * height
    vertices = np.arange(lo, hi, dtype=np.int64)
    rows = np.empty((hi - lo, 4), dtype=np.int64)
    for column, offset in enumerate((-width, -1, 1, width)):
        # four strided adds take about half the time of one broadcast add
        np.add(vertices, offset, out=rows[:, column])
    rim = np.concatenate([np.arange(lo, min(hi, width)), np.arange(max(lo, n - width), hi),
                          np.arange(lo + -lo % width, hi, width),
                          np.arange(lo + (-lo - 1) % width, hi, width)])
    x = rim % width
    y = rim - x
    wrapped = np.stack([(x + 1) % width + y, (x - 1) % width + y,
                        (y + width) % n + x, (y - width) % n + x], axis=1)
    wrapped.sort(axis=1)
    rows[rim - lo] = wrapped
    return rows


def _torus_counts(mask: np.ndarray, width: int, height: int) -> np.ndarray:
    """Neighbour counts on the row-major ``width`` x ``height`` torus from a
    ``uint8`` mask, as four shifted whole-array adds and four column fixes.

    The slices need no gather through ``indices``: about thirty times faster
    than the ``bincount`` at 300x300 and about 7 us slower per call below
    30x30, a millisecond over the 165 stencil calls of ``verify all --seed
    3``. A built torus carries its shape, so it pays no recognition.
    """
    n = mask.size
    k = np.empty(n, dtype=np.uint8)
    # vertical neighbours u + width and u - width, wrapping modulo n
    k[:n - width] = mask[width:]
    k[n - width:] = mask[:width]
    k[width:] += mask[:n - width]
    k[:width] += mask[n - width:]
    # horizontal neighbours u + 1 and u - 1 read across row ends, so the
    # last column took the next row's first vertex and the first column the
    # previous row's last; swap those for the vertex at the own row's far end
    k[:-1] += mask[1:]
    k[1:] += mask[:-1]
    grid, k_grid = mask.reshape(height, width), k.reshape(height, width)
    k_grid[:, -1] += grid[:, 0]
    k_grid[:-1, -1] -= grid[1:, 0]
    k_grid[:, 0] += grid[:, -1]
    k_grid[1:, 0] -= grid[:-1, -1]
    return k


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
        dropped = set(leftovers)
        alive = [u for u in alive if u not in dropped]
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

    Requires a connected network. A recognised torus
    (:meth:`Network.torus_shape`) has them in closed form: diameter ``width
    // 2 + height // 2``; bipartite, with classes by the parity of ``x +
    y``, when both sides are even; otherwise odd girth the smallest odd side.

    Every other network is searched from all sources breadth-first at once,
    64 per chunk: each vertex holds one ``uint64`` word whose bit i marks
    "reached from source base + i at the current level", so one level of
    the whole chunk is a single OR over every row of neighbours
    (bit-parallel BFS, Akiba, Iwata & Yoshida, SIGMOD 2013). A chunk keeps
    a few words per vertex and gathers one word per arc, O(n + m) words,
    whatever the number of chunks.

    The diameter is the deepest level any chunk reaches. A vertex u at
    level L from source s with a neighbour also at level L from s closes
    an odd walk of length 2L + 1; the shortest odd cycle is found this way
    from each of its own vertices, at the level of the cycle's far edge.
    Levels grow within a chunk, so a chunk's first such level is its
    minimum, and the minimum over chunks is exact: later chunks only
    check levels that could still beat it. The graph is bipartite exactly
    when no level closes an odd walk, and then the parity of each vertex's
    level from source 0 is the bipartition mask.
    """
    n = network.vertex_count
    if n == 0:
        raise ValueError("empty network")
    if not network.is_connected():
        raise ValueError("metrics require a connected network")

    diameter = 0
    odd_girth: int | None = None
    odd_level = np.zeros(n, dtype=bool)  # vertices at odd distance from vertex 0
    shape = network.torus_shape()
    if shape is not None:
        width, height = shape
        diameter = width // 2 + height // 2
        odd_girth = min((side for side in shape if side % 2), default=None)
        odd_level = ((np.arange(height) % 2 == 1)[:, None] ^ (np.arange(width) % 2 == 1)).ravel()
    # A recognised torus needs no search. reduceat cannot take empty rows,
    # and in a connected network only a single vertex has one; its metrics
    # are the initial values.
    for base in range(0, n if n > 1 and shape is None else 0, 64):
        indptr, indices = network.indptr, network.indices
        chunk = min(64, n - base)
        front = np.zeros(n, dtype=np.uint64)
        front[base:base + chunk] = np.uint64(1) << np.arange(chunk, dtype=np.uint64)
        seen = front.copy()
        level = 0
        while True:
            reach = np.bitwise_or.reduceat(front[indices], indptr[:-1])
            if (odd_girth is None or 2 * level + 1 < odd_girth) and (front & reach).any():
                odd_girth = 2 * level + 1
            front = reach & ~seen
            if not front.any():
                break
            seen |= front
            level += 1
            if base == 0 and level % 2:
                odd_level |= (front & 1).astype(bool)
        diameter = max(diameter, level)

    return GraphMetrics(
        diameter=diameter,
        min_degree=int(network.degrees.min()),
        bipartition=odd_level if odd_girth is None else None,
        odd_girth=odd_girth,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


# Vertices whose edges write_edge_list formats at once; the Python ints,
# tuple and text of a block take about 200 bytes per edge.
_WRITE_ROWS = 1 << 10


def write_edge_list(network: Network, path: str) -> None:
    """Write ``n m`` then one ``u v`` line per edge, 0-based, in the order
    of :meth:`Network.edges`.

    The lines are formatted a block of rows at a time, so no Python list of
    every edge is built: from the CSR arrays, or on a network whose
    :meth:`Network.torus_shape` is known from :func:`_torus_rows`, so a
    built torus never makes its arrays. ``degrees`` is read once.
    """
    degrees, shape = network.degrees, network._torus
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{degrees.size} {network.edge_count}\n")
        for start in range(0, degrees.size, _WRITE_ROWS):
            stop = min(start + _WRITE_ROWS, degrees.size)
            src = np.repeat(np.arange(start, stop), degrees[start:stop])
            dst = (_torus_rows(*shape, start, stop).ravel() if shape else
                   network.indices[network.indptr[start]:network.indptr[stop]])
            keep = src < dst
            pairs = np.stack([src[keep], dst[keep]], axis=1).ravel().tolist()
            fh.write(("%d %d\n" * (len(pairs) // 2)) % tuple(pairs))


def read_edge_list(path: str) -> Network:
    """Inverse of :func:`write_edge_list`; tolerant of extra whitespace.

    The file is read as bytes. A well-formed file (see
    :func:`_well_formed_edges`) is parsed by one ``np.fromstring`` call,
    with no Python object per number. Every other file falls back to the
    token path, ``str.split`` and ``int`` per token, which reads what
    ``int`` reads (signs, leading zeros, digit underscores, any whitespace
    ``str.split`` knows) and alone writes the header and count messages.
    The parsed buffer goes straight to ``Network._from_arcs``, which turns
    it into the sorted rows in place, so the bytes are dropped first and
    the door's kept ``indices`` is the one per-arc array beside it.
    Every malformed-input error is a ``ValueError`` whose message starts
    with ``path``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        parsed = _well_formed_edges(data)
        n, edges = parsed or _token_edges(data)
        del data
        try:
            return Network._from_arcs(n, edges)
        except MemoryError:
            raise ValueError(f"header vertex count n={n} is too large to allocate") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _well_formed_edges(data: bytes) -> tuple[int, np.ndarray] | None:
    """``(n, edges)`` parsed from an edge list's bytes, or None unless the
    file is well formed: the parse reads to the end, no ``+`` or ``-`` byte
    occurs (a lone sign parses as part of the next number or as 0), there
    are a header and ``m`` pairs, and no value saturated at the int64 limit.
    Whitespace alone parses as ``[0]`` and fails the count. None writes no
    message; the token path finds what is wrong.
    """
    if b"+" in data or b"-" in data:
        return None
    with warnings.catch_warnings():
        # numpy < 2 warns on unmatched data and returns what it parsed
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(data, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if (values.size < 2 or values.size != 2 + 2 * int(values[1])
            or values.max() == np.iinfo(np.int64).max):
        return None
    return int(values[0]), values[2:].reshape(-1, 2)


def _token_edges(data: bytes) -> tuple[int, np.ndarray]:
    tokens = data.decode("ascii").split()
    if len(tokens) < 2:
        raise ValueError("missing header")
    n, m = int(tokens[0]), int(tokens[1])
    if n < 0 or m < 0:
        raise ValueError(f"header gives negative counts n={n}, m={m}")
    if len(tokens) % 2:
        raise ValueError(f"odd number of edge endpoints ({len(tokens) - 2})")
    if len(tokens) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges, found {(len(tokens) - 2) // 2}")
    try:
        return n, np.array(tokens[2:], dtype=np.int64).reshape(m, 2)
    except OverflowError:
        raise ValueError(f"edge endpoint out of range for n={n}") from None
