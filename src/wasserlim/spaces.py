"""Finite pointed metric spaces.

Points are dense integer ids 0..n-1; external names ride along as metadata.
A space may carry the weighted edge list it was induced from, in which case
shortest-path trees are available for geodesic interpolation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (
    Asymmetric,
    Disconnected,
    EmptySubset,
    NegativeDistance,
    NonpositiveWeight,
    TriangleViolation,
)

#: Absolute tolerance for metric axioms. Distances are assumed to live on an
#: O(1)-O(1e3) scale; rescale before constructing a space if yours do not.
METRIC_TOL = 1e-9

Edge = tuple[int, int, float]


class FiniteMetricSpace:
    """A finite metric space with a distinguished base point.

    Instances are immutable after construction and safe to share across
    threads. Construction validates the metric axioms at METRIC_TOL, so a
    held instance is always a valid space.
    """

    def __init__(
        self,
        dist: np.ndarray,
        base_point: int = 0,
        names: Optional[Sequence] = None,
        geodesic_structure: Optional[Sequence[Edge]] = None,
    ):
        dist = np.asarray(dist, dtype=np.float64)
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
        self._edges = (
            tuple((int(u), int(v), float(w)) for u, v, w in geodesic_structure)
            if geodesic_structure is not None
            else None
        )
        # One (distances, predecessors) row pair per source, views into the
        # all-pairs arrays; a list lookup keeps shortest_path cheap.
        self._paths: Optional[list[tuple[np.ndarray, np.ndarray]]] = None

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
        return self._edges

    def d(self, i: int, j: int) -> float:
        return float(self._dist[i, j])

    def name_of(self, i: int):
        return self._names[i] if self._names is not None else i

    def __repr__(self) -> str:
        kind = "geodesic" if self._edges is not None else "metric"
        return (
            f"FiniteMetricSpace(n={self.n_points}, base={self._base}, "
            f"{kind}, diam={diameter(self):g})"
        )

    def shortest_path_tree(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """(distances, predecessors) from ``source`` over the edge graph.

        Predecessor ties at equal distance resolve to the lowest vertex
        index, so reconstructed paths are the lexicographically smallest
        shortest paths and identical across runs. All sources are solved
        in one pass, the first time any tree of the space is asked for;
        the rows returned are read-only.
        """
        if self._edges is None:
            raise ValueError("space has no geodesic structure")
        if self._paths is None:
            self._paths = list(zip(*_shortest_paths(self.n_points, self._edges)))
        return self._paths[source]

    def shortest_path(self, x: int, y: int) -> list[int]:
        """Vertex sequence of the canonical shortest x-y path."""
        _, pred = self.shortest_path_tree(x)
        path = [y]
        while path[-1] != x:
            p = int(pred[path[-1]])
            if p < 0:
                raise ValueError(f"no path from {x} to {y}")
            path.append(p)
        path.reverse()
        return path

    def mesh(self) -> float:
        """Largest edge weight; the resolution limit for interpolation."""
        if self._edges is None or not self._edges:
            return 0.0
        return max(w for _, _, w in self._edges)


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
    diag = np.abs(np.diagonal(dist))
    if np.any(diag > METRIC_TOL):
        i = int(np.argmax(diag))
        raise NegativeDistance(f"d({i},{i}) = {dist[i, i]:g} != 0")
    asym = np.abs(dist - dist.T)
    if np.any(asym > METRIC_TOL):
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise Asymmetric(f"d({i},{j}) = {dist[i, j]:g} but d({j},{i}) = {dist[j, i]:g}")
    # One row broadcast per intermediate point keeps this O(n^3) scan in
    # numpy; n stays in the hundreds for this library.
    for k in range(n):
        excess = dist - (dist[:, k : k + 1] + dist[k : k + 1, :])
        if np.any(excess > METRIC_TOL):
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            raise TriangleViolation(i, j, k, float(excess[i, j]))


def validate_metric(
    dist_matrix,
    base_point: int = 0,
    names: Optional[Sequence] = None,
) -> FiniteMetricSpace:
    """Validate a raw distance matrix and wrap it as a space.

    Raises Asymmetric, NegativeDistance, or TriangleViolation naming the
    first violated axiom.
    """
    return FiniteMetricSpace(np.asarray(dist_matrix, dtype=np.float64),
                             base_point=base_point, names=names)


def diameter(space: FiniteMetricSpace, subset: Optional[Sequence[int]] = None) -> float:
    """Max pairwise distance over ``subset`` (default: all points)."""
    if subset is None:
        return float(space.dist.max(initial=0.0))
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=np.intp)
    if idx.size == 0:
        raise EmptySubset("diameter of an empty subset")
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
    if epsilon <= 0:
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
    for k in range(1, greedy.k + 1):
        for combo in itertools.combinations(range(n), k):
            if np.all(dist[list(combo)].min(axis=0) <= epsilon):
                return CoveringCertificate(float(epsilon), tuple(combo))
    return greedy  # unreachable: greedy itself is a valid cover


def graph_metric(
    vertices,
    weighted_edges: Sequence[Edge],
    base_point: int = 0,
) -> FiniteMetricSpace:
    """Shortest-path metric of a connected weighted graph.

    ``vertices`` is either a point count or a sequence of names. Edges are
    (u, v, w) with positive w; the graph is undirected. The edge list is
    retained on the space so geodesic interpolation can walk actual paths.
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
    unreachable = np.isinf(dist)
    if unreachable.any():
        s = int(np.argmax(unreachable.any(axis=1)))
        missing = int(np.argmax(unreachable[s]))
        raise Disconnected(f"vertex {missing} unreachable from {s}")
    # Symmetrize away float noise from summing the same weights in two
    # orders; the exactness claim is about the shortest-path values.
    space = FiniteMetricSpace(np.minimum(dist, dist.T), base_point=base_point,
                              names=names, geodesic_structure=edges)
    space._paths = list(zip(dist, pred))
    return space


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
    """All-pairs distances and lowest-index predecessors of an edge graph.

    ``pred[s, v]`` is the smallest neighbour u of v with
    d(s, u) + w(u, v) == d(s, v); it is -1 at the source and at vertices
    unreachable from it. Both arrays are read-only.
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
    pred = np.full((n, n), -1, dtype=np.int64)
    for x in range(n):
        lo, hi = indptr[x], indptr[x + 1]
        if lo == hi:
            continue  # isolated vertex: argmax over an empty axis raises
        to_x = dist[:, x:x + 1]
        # inf + w == inf, so unreachable targets must be ruled out.
        tight = (dist[:, cols[lo:hi]] + wts[lo:hi] == to_x) & np.isfinite(to_x)
        found = tight.any(axis=1)
        pred[found, x] = cols[lo:hi][np.argmax(tight, axis=1)[found]]
    # The source has no predecessor, even across a zero-weight edge.
    np.fill_diagonal(pred, -1)
    dist.setflags(write=False)
    pred.setflags(write=False)
    return dist, pred
