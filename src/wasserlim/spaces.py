"""Finite pointed metric spaces.

Points are dense integer ids 0..n-1; external names ride along as metadata.
A space built by ``graph_metric`` carries the weighted edge list it was
induced from, with its shortest-path trees, for geodesic interpolation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, floyd_warshall

from .errors import (
    Asymmetric,
    CoincidentPoints,
    Disconnected,
    EmptySubset,
    NegativeDistance,
    NonpositiveWeight,
    TriangleViolation,
)

#: Relative tolerance for the metric axioms: each must hold up to
#: METRIC_TOL times the matrix's diameter (its largest entry), so whether a
#: matrix validates does not depend on the unit its distances are in.
METRIC_TOL = 1e-9

Edge = tuple[int, int, float]


class FiniteMetricSpace:
    """A finite metric space with a distinguished base point.

    Construction copies the matrix it is given, so the caller's array
    stays writable and later changes to it do not reach the space, and
    checks the metric axioms on the copy at METRIC_TOL times the
    diameter, and refuses distinct points at distance exactly 0. Only
    ``graph_metric`` builds a space with geodesic structure: through the
    private ``_graph`` argument it hands over its edge list with the
    all-pairs shortest-path distances and predecessors solved from it,
    so the three always agree. Those matrices are metrics
    by construction (its docstring gives the rounding bound), so that path
    skips the copy and the O(n^3) triangle check. Either way a held
    instance is a valid space.
    """

    def __init__(
        self,
        dist: np.ndarray,
        base_point: int = 0,
        names: Optional[Sequence] = None,
        *,
        _graph: Optional[tuple[tuple[Edge, ...], np.ndarray, np.ndarray]] = None,
    ):
        if _graph is None:
            dist = np.array(dist, dtype=np.float64)
            _check_metric(dist)
        n = dist.shape[0]
        if not 0 <= base_point < n:
            raise ValueError(f"base_point {base_point} out of range 0..{n - 1}")
        if names is not None and len(names) != n:
            raise ValueError("names length must match point count")
        self._dist = dist
        self._dist.setflags(write=False)
        self._base = int(base_point)
        self._names = list(names) if names is not None else None
        # (edges, all-pairs distances, predecessors) of the inducing graph.
        self._graph = _graph

    @property
    def n_points(self) -> int:
        return self._dist.shape[0]

    @property
    def points(self) -> range:
        return range(self.n_points)

    @property
    def dist(self) -> np.ndarray:
        """Full distance matrix, read-only."""
        return self._dist

    @property
    def base_point(self) -> int:
        return self._base

    @property
    def names(self) -> Optional[list]:
        return list(self._names) if self._names is not None else None

    @property
    def geodesic_structure(self) -> Optional[tuple[Edge, ...]]:
        return self._graph[0] if self._graph is not None else None

    def d(self, i: int, j: int) -> float:
        self._check_vertex(i)
        self._check_vertex(j)
        return float(self._dist[i, j])

    def __repr__(self) -> str:
        kind = "geodesic" if self._graph is not None else "metric"
        return (
            f"FiniteMetricSpace(n={self.n_points}, base={self._base}, "
            f"{kind}, diam={diameter(self):g})"
        )

    def shortest_path_tree(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """(distances, predecessors) from ``source`` over the edge graph.

        Predecessor ties at equal distance resolve to the lowest vertex
        index, so reconstructed paths are the lexicographically smallest
        shortest paths and identical across runs. Every predecessor chain
        ends at ``source``, whose entry is -1. The rows returned are
        read-only views of the space's predecessor matrix.
        """
        dist, pred = self._path_matrices()
        self._check_vertex(source)
        return dist[source], pred[source]

    def _check_vertex(self, x: int) -> None:
        """Refuse an index that is no point, before numpy wraps it, refuses
        a non-integer with a bare ``IndexError`` or reads a bool as a mask."""
        if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                or not 0 <= x < self.n_points):
            raise ValueError(f"vertex {x} is not a point of this space "
                             f"(n = {self.n_points})")

    def _path_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs (distances, predecessors) of the edge graph."""
        if self._graph is None:
            raise ValueError("space has no geodesic structure")
        return self._graph[1], self._graph[2]

    def shortest_path(self, x: int, y: int) -> list[int]:
        """Vertex sequence of the canonical shortest x-y path."""
        _, pred = self.shortest_path_tree(x)
        self._check_vertex(y)
        path = [y]
        while path[-1] != x:
            path.append(int(pred[path[-1]]))
        return path[::-1]

    def mesh(self) -> float:
        """Largest edge weight; the resolution limit for interpolation."""
        return max((w for _, _, w in self.geodesic_structure or ()), default=0.0)


@dataclass(frozen=True)
class CoveringCertificate:
    """Witness that ``k`` balls of radius ``epsilon`` cover a space."""

    epsilon: float
    centers: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.centers)


def same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
    """Whether two space objects denote the same metric space."""
    if a is b:
        return True
    return (
        a.n_points == b.n_points
        and a.base_point == b.base_point
        and np.array_equal(a.dist, b.dist)
    )


def _check_metric(dist: np.ndarray) -> None:
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    if not np.all(np.isfinite(dist)):
        raise ValueError("distance matrix entries must be finite")
    n = dist.shape[0]
    if np.any(dist < 0):
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        raise NegativeDistance(f"d({i},{j}) = {dist[i, j]:g} < 0")
    tol = METRIC_TOL * float(dist.max(initial=0.0))
    diag = np.abs(np.diagonal(dist))
    if np.any(diag > tol):
        i = int(np.argmax(diag))
        raise NegativeDistance(f"d({i},{i}) = {dist[i, i]:g} != 0")
    asym = np.abs(dist - dist.T)
    if np.any(asym > tol):
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise Asymmetric(f"d({i},{j}) = {dist[i, j]:g} but d({j},{i}) = {dist[j, i]:g}")
    # Floyd-Warshall certificate: its entries only decrease and fl(a + b)
    # is monotone, so shortest[i, j] <= fl(d[i,k] + d[k,j]) for every k, and
    # with fl(a - b) monotone in b no triple breaks the tolerance unless
    # dist - shortest does. Only then is the scan repeated k by k to name
    # the violation (smallest k, then the largest excess); a chain of
    # sub-tolerance slacks can trip the certificate with no triple at
    # fault, and then the scan finds nothing. Every entry is an edge of the
    # sparse input, zero distances too, which a dense input would drop.
    cols = np.tile(np.arange(n, dtype=np.int32), n)
    indptr = np.arange(0, n * n + 1, n, dtype=np.int32)
    graph = csr_matrix((dist.ravel(), cols, indptr), shape=(n, n))
    shortest = floyd_warshall(graph, directed=True)
    if np.any(np.subtract(dist, shortest, out=shortest) > tol):
        for k in range(n):
            excess = dist - (dist[:, k : k + 1] + dist[k : k + 1, :])
            if np.any(excess > tol):
                i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
                raise TriangleViolation(i, j, k, float(excess[i, j]))
    # Distinct points at distance exactly 0 make a pseudometric, over which
    # distinct Diracs are at W_p distance 0. Exact zero, not the tolerance:
    # a graph metric's distances may legitimately span many decades.
    zero = dist == 0
    np.fill_diagonal(zero, False)
    if np.any(zero):
        i, j = np.unravel_index(int(np.argmax(zero)), zero.shape)
        raise CoincidentPoints(i, j)


def validate_metric(
    dist_matrix,
    base_point: int = 0,
    names: Optional[Sequence] = None,
) -> FiniteMetricSpace:
    """Validate a raw distance matrix and wrap it as a space.

    The space keeps a float64 copy of ``dist_matrix``. Raises Asymmetric,
    NegativeDistance, TriangleViolation or CoincidentPoints naming the
    first violated axiom.
    """
    return FiniteMetricSpace(dist_matrix, base_point=base_point, names=names)


def diameter(space: FiniteMetricSpace, subset: Optional[Sequence[int]] = None) -> float:
    """Max pairwise distance over ``subset`` (default: all points)."""
    if subset is None:
        return float(space.dist.max(initial=0.0))
    points = set(subset)
    if not points:
        raise EmptySubset("diameter of an empty subset")
    for x in points:
        space._check_vertex(x)
    idx = np.asarray(sorted(points), dtype=np.intp)
    sub = space.dist[np.ix_(idx, idx)]
    return float(sub.max(initial=0.0))


def covering_number(
    space: FiniteMetricSpace, epsilon: float, exact: bool = False
) -> CoveringCertificate:
    """Cover the space by epsilon-balls and return the certificate.

    The default is a farthest-first traversal seeded at the base point: add
    the point farthest from the current centers until everything is within
    epsilon. The traversal order does not depend on epsilon, which makes
    k(epsilon) monotone nonincreasing in epsilon, and the construction is
    the standard greedy 2-approximation. ``exact=True`` (allowed below 20
    points) minimizes k by brute force instead.
    """
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    n = space.n_points
    dist = space.dist
    centers = [space.base_point]
    cover = dist[space.base_point].copy()
    while cover.max() > epsilon:
        nxt = int(np.argmax(cover))  # first max = lowest index on ties
        centers.append(nxt)
        np.minimum(cover, dist[nxt], out=cover)
    greedy = CoveringCertificate(float(epsilon), tuple(centers))
    if not exact:
        return greedy
    if n >= 20:
        raise ValueError("exact covering search is limited to n < 20")
    # Returns by k = greedy.k: the greedy centers are one of the combinations.
    for k in range(1, greedy.k + 1):
        for combo in itertools.combinations(range(n), k):
            if np.all(dist[list(combo)].min(axis=0) <= epsilon):
                return CoveringCertificate(float(epsilon), tuple(combo))


def graph_metric(
    vertices,
    weighted_edges: Sequence[Edge],
    base_point: int = 0,
) -> FiniteMetricSpace:
    """Shortest-path metric of a connected weighted graph.

    ``vertices`` is either a point count or a sequence of names. Edges are
    (u, v, w) with finite positive w; the graph is undirected. This is the
    only builder of spaces with an edge list, which geodesic interpolation
    walks along the shortest paths solved here.

    The result is a metric by construction and is not re-checked with the
    O(n^3) triangle scan that ``validate_metric`` runs: distances are
    finite (connectivity is checked), nonnegative, zero on the diagonal
    and symmetrized below, and each one is a float sum along a path of
    at most n - 1 edges, so any triangle slack is at most about
    4 * n * 2**-53 * diam. That stays below METRIC_TOL * diam for every n
    under about 2e6, and a seeded Tier-1 corpus of graph metrics is
    checked against the full ``_check_metric``.
    """
    if isinstance(vertices, (int, np.integer)):
        n, names = int(vertices), None
    else:
        names = list(vertices)
        n = len(names)
    if n == 0:
        raise ValueError("graph needs at least one vertex")
    edges = []
    for u, v, w in weighted_edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of vertex range")
        if u == v:
            continue
        if w <= 0 or not math.isfinite(w):
            raise NonpositiveWeight(f"edge ({u},{v}) has weight {w:g}")
        edges.append((u, v, w))

    dist, pred = _shortest_paths(n, edges)
    # Symmetrize away float noise from summing the same weights in two
    # orders; the exactness claim is about the shortest-path values.
    return FiniteMetricSpace(np.minimum(dist, dist.T), base_point=base_point,
                             names=names, _graph=(tuple(edges), dist, pred))


def dyadic_interval_space(level: int) -> FiniteMetricSpace:
    """The unit interval sampled at 2^-level steps, base point 0.

    A path graph on the points j * 2^-level, 0 <= j <= 2^level; distances
    are exact dyadic floats.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    step = 2.0 ** (-level)
    n = 2**level + 1
    names = [j * step for j in range(n)]
    edges = [(j, j + 1, step) for j in range(n - 1)]
    return graph_metric(names, edges, base_point=0)


def _shortest_paths(n: int, edges: Sequence[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs distances and lowest-index predecessors of a connected
    edge graph; raises Disconnected otherwise.

    ``pred[s, v]`` is the smallest neighbour u of v with
    d(s, u) + w(u, v) == d(s, v); it is -1 at the source. Both arrays are
    read-only.
    """
    u = np.array([e[0] for e in edges], dtype=np.intp)
    v = np.array([e[1] for e in edges], dtype=np.intp)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    rows, cols, wts = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    # csr_matrix sums duplicate entries, so keep only the lightest of
    # parallel edges; sorting by (row, col) also gives each row its
    # neighbours in ascending order.
    order = np.lexsort((wts, cols, rows))
    rows, cols, wts = rows[order], cols[order], wts[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    cols, wts = cols[first], wts[first]
    indptr = np.searchsorted(rows[first], np.arange(n + 1))
    dist = dijkstra(csr_matrix((wts, cols, indptr), shape=(n, n)))
    unreachable = np.isinf(dist)
    if unreachable.any():
        s = int(np.argmax(unreachable.any(axis=1)))
        missing = int(np.argmax(unreachable[s]))
        raise Disconnected(f"vertex {missing} unreachable from {s}")
    pred = np.full((n, n), -1, dtype=np.int64)
    for x in range(n):
        lo, hi = indptr[x], indptr[x + 1]
        if lo == hi:
            continue  # a lone vertex: argmax over an empty axis raises
        tight = dist[:, cols[lo:hi]] + wts[lo:hi] == dist[:, x:x + 1]
        pred[:, x] = cols[lo:hi][np.argmax(tight, axis=1)]
    # Dijkstra sets each d(s, v) to some fl(d(s, u) + w(u, v)), so v has a
    # tight neighbour unless v is the source, which has no predecessor.
    np.fill_diagonal(pred, -1)
    dist.setflags(write=False)
    pred.setflags(write=False)
    return dist, pred
