"""Displacement interpolation on graph-metric spaces.

Couplings move mass along shortest paths; interpolating every coupled pair
at time t yields a discrete stand-in for the constant-speed geodesic
between the endpoint measures. Vertex rounding is unavoidable on a finite
space, so every operation reports its defect instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoGeodesicStructure, SpaceMismatch
from .measures import DiscreteMeasure
from .spaces import FiniteMetricSpace, same_space
from .transport import Coupling, has_alternate_optimum, wasserstein_p


class InterpolationResult(NamedTuple):
    point: int
    defect: float


@dataclass(frozen=True)
class MidpointReport:
    """Quality certificate for a computed W2 midpoint."""

    endpoints_cost: float
    left_defect: float
    right_defect: float
    max_vertex_defect: float
    coupling_nonunique: bool


@dataclass(frozen=True)
class WassersteinPath:
    """Measures along a displacement interpolation, with defect records.

    ``pair_defects`` holds (s, t, |W2(mu_s, mu_t) - |s-t| * W2(mu_0, mu_1)|)
    for every pair of grid times; a true constant-speed geodesic would make
    all of them zero.
    """

    times: tuple[float, ...]
    measures: tuple[DiscreteMeasure, ...]
    endpoints_cost: float
    coupling_used: Coupling
    pair_defects: tuple[tuple[float, float, float], ...]

    @property
    def constant_speed_defect(self) -> float:
        return max((d for _, _, d in self.pair_defects), default=0.0)


def _require_geodesic(space: FiniteMetricSpace) -> None:
    if space.geodesic_structure is None:
        raise NoGeodesicStructure(
            "space has a bare metric matrix; interpolation needs a "
            "graph-induced metric"
        )


def _shared_geodesic_space(
    mu0: DiscreteMeasure, mu1: DiscreteMeasure
) -> FiniteMetricSpace:
    if not same_space(mu0.space, mu1.space):
        raise SpaceMismatch("endpoint measures live on different spaces")
    _require_geodesic(mu0.space)
    return mu0.space


def _check_time(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter {t} outside [0, 1]")


def _place_pairs(
    space: FiniteMetricSpace, xs: np.ndarray, ys: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Time-t vertex and rounding defect of every pair (xs[k], ys[k]).

    Each pair's vertex is the one on its canonical shortest path with
    d(x, z) nearest t*d(x, y), ties toward x; x == y gives (x, 0). All
    paths are walked in lockstep from y back to x through the space's
    predecessor matrix, and a vertex replaces the best one so far when its
    defect is no larger, so the vertex nearest x wins ties. The space's
    graph is connected, so every walk reaches x.
    """
    dist = space.dist
    pred = space._path_matrices()[1]
    points = ys.copy()
    defects = np.zeros(xs.size)
    walk = np.flatnonzero(xs != ys)  # pairs still on their way to x
    x, z = xs[walk], ys[walk]
    target = t * dist[x, z]
    best = np.abs(dist[x, z] - target)
    at = z.copy()
    while walk.size:
        z = pred[x, z]
        defect = np.abs(dist[x, z] - target)
        closer = defect <= best
        best = np.where(closer, defect, best)
        at = np.where(closer, z, at)
        done = z == x
        if done.any():
            points[walk[done]] = at[done]
            defects[walk[done]] = best[done]
            keep = ~done
            walk, x, z, target, best, at = (
                a[keep] for a in (walk, x, z, target, best, at))
    return points, defects


def point_interpolate(
    space: FiniteMetricSpace, x: int, y: int, t: float
) -> InterpolationResult:
    """Vertex at parameter t along the canonical shortest x-y path.

    The canonical path is the lexicographically smallest shortest path
    (lowest-index predecessor wins distance ties). Among its vertices the
    one with d(x, z) nearest t*d(x, y) is returned, ties toward x, together
    with the rounding defect |d(x, z) - t*d(x, y)|.
    """
    _require_geodesic(space)
    _check_time(t)
    space._check_vertex(x)
    space._check_vertex(y)
    if x == y:
        return InterpolationResult(x, 0.0)
    points, defects = _place_pairs(space, np.array([x]), np.array([y]), t)
    return InterpolationResult(int(points[0]), float(defects[0]))


def interpolate_coupling(
    coupling: Coupling, t: float
) -> tuple[DiscreteMeasure, float]:
    """Push every coupled mass pair to its time-t point.

    All coupled cells are placed in one pass over the space's predecessor
    matrix (see ``point_interpolate`` for the rule), and their masses are
    added up in row-major cell order. Returns the interpolated measure and
    the largest vertex-rounding defect over all moved pairs.
    """
    space = coupling.space
    _require_geodesic(space)
    _check_time(t)
    # Row-major like np.nonzero, which is several times slower in 2-D.
    rows, cols = np.divmod(np.flatnonzero(coupling.matrix > 0), coupling.matrix.shape[1])
    points, defects = _place_pairs(space, rows, cols, t)
    weights = np.zeros(space.n_points)
    np.add.at(weights, points, coupling.matrix[rows, cols])
    return DiscreteMeasure(space, weights), float(defects.max(initial=0.0))


def w2_midpoint(
    mu0: DiscreteMeasure, mu1: DiscreteMeasure
) -> tuple[DiscreteMeasure, MidpointReport]:
    """Displacement midpoint of two measures, with its defect report.

    An exact midpoint would satisfy W2(mu0, mid) = W2(mid, mu1)
    = W2(mu0, mu1)/2; the report carries both deviations, the worst
    vertex-rounding defect, and whether the optimal coupling was
    non-unique (in which case the solver's deterministic basis defines
    the midpoint).
    """
    _shared_geodesic_space(mu0, mu1)
    cost, coupling = wasserstein_p(mu0, mu1, 2)
    midpoint, vertex_defect = interpolate_coupling(coupling, 0.5)
    left, _ = wasserstein_p(mu0, midpoint, 2)
    right, _ = wasserstein_p(midpoint, mu1, 2)
    report = MidpointReport(
        endpoints_cost=cost,
        left_defect=abs(left - 0.5 * cost),
        right_defect=abs(right - 0.5 * cost),
        max_vertex_defect=vertex_defect,
        coupling_nonunique=has_alternate_optimum(coupling),
    )
    return midpoint, report


def displacement_path(
    mu0: DiscreteMeasure,
    mu1: DiscreteMeasure,
    grid: tuple[float, ...] = (0.0, 0.5, 1.0),
) -> WassersteinPath:
    """Interpolate mu0 to mu1 at every grid time.

    Grid times must lie in [0, 1], which refuses NaN, and the grid must
    contain 0 and 1; endpoints are returned as-is rather than
    reconstructed. Constant-speed defects are measured for every pair of
    grid times with fresh solver calls, except the (0, 1) pair, whose
    solve is the deterministic endpoint solve that gave ``cost``.
    """
    _shared_geodesic_space(mu0, mu1)
    times = {float(g) for g in grid}
    # Checked before sorting: NaN compares false both ways.
    if not all(0.0 <= t <= 1.0 for t in times):
        raise ValueError("grid times must lie in [0, 1]")
    times = tuple(sorted(times))
    if not times or times[0] != 0.0 or times[-1] != 1.0:
        raise ValueError("grid must contain both 0 and 1")
    cost, coupling = wasserstein_p(mu0, mu1, 2)
    measures = []
    for t in times:
        if t == 0.0:
            measures.append(mu0)
        elif t == 1.0:
            measures.append(mu1)
        else:
            measures.append(interpolate_coupling(coupling, t)[0])
    defects = []
    last = len(times) - 1
    for a in range(len(times)):
        for b in range(a + 1, len(times)):
            if (a, b) == (0, last):
                w_ab = cost
            else:
                w_ab, _ = wasserstein_p(measures[a], measures[b], 2)
            gap = abs(w_ab - (times[b] - times[a]) * cost)
            defects.append((times[a], times[b], gap))
    return WassersteinPath(times, tuple(measures), cost, coupling,
                           tuple(defects))
