"""Metric validation, graph metrics, covering numbers, dyadic grids."""

import heapq

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall

from wasserlim import (
    DiscreteMeasure,
    covering_number,
    diameter,
    dyadic_interval_space,
    graph_metric,
    validate_metric,
    wasserstein_p,
)
from wasserlim import spaces as spaces_module
from wasserlim.spaces import METRIC_TOL, FiniteMetricSpace, _check_metric
from wasserlim.errors import (
    Asymmetric,
    CoincidentPoints,
    Disconnected,
    EmptySubset,
    NegativeDistance,
    NonpositiveWeight,
    TriangleViolation,
)
from conftest import euclidean_space, seeded


class TestValidateMetric:
    def test_two_point_space(self):
        space = validate_metric(np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert space.n_points == 2
        assert diameter(space) == 3.0

    def test_asymmetric_rejected(self):
        with pytest.raises(Asymmetric):
            validate_metric(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_negative_rejected(self):
        with pytest.raises(NegativeDistance):
            validate_metric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(NegativeDistance, match=r"d\(1,1\) = 0.5 != 0"):
            validate_metric(np.array([[0.0, 1.0], [1.0, 0.5]]))

    @pytest.mark.parametrize("kwargs, message", [
        ({"base_point": 2}, "base_point 2 out of range 0..1"),
        ({"base_point": -1}, "base_point -1 out of range 0..1"),
        ({"names": ["a"]}, "names length must match point count"),
    ], ids=["base_point_n", "base_point_minus1", "names"])
    def test_base_point_and_names_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), **kwargs)

    def test_triangle_violation_names_triple(self):
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(np.array([[0.0, 1, 3], [1, 0, 1], [3, 1, 0]]))
        assert exc.value.triple == (0, 2, 1)

    def test_coincident_points_rejected(self):
        # A pseudometric: W_1 between the distinct Diracs at 0 and 1 would be 0.
        with pytest.raises(CoincidentPoints) as exc:
            validate_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert exc.value.pair == (0, 1)
        with pytest.raises(CoincidentPoints):
            validate_metric(np.array([[0.0, -0.0], [-0.0, 0.0]]))

    def test_coincident_points_rejected_after_the_triangle_scan(self):
        # The chain of sub-tolerance slacks below trips the shortest-path
        # certificate, so the k-by-k scan runs and finds no violation; the
        # duplicate of point 0 must still be refused on that exit.
        n = 8
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        dist = np.where(gap > 0, gap + 0.6 * METRIC_TOL * (n - 1) * (gap - 1), 0.0)
        dist = np.vstack([dist, dist[:1]])
        dist = np.hstack([dist, dist[:, :1]])
        assert reference_triangle_violation(dist) is None
        with pytest.raises(CoincidentPoints) as exc:
            validate_metric(dist)
        assert exc.value.pair == (0, n)

    def test_tiny_distances_are_not_coincident(self):
        space = validate_metric(np.array([[0.0, 1e-300], [1e-300, 0.0]]))
        assert space.d(0, 1) == 1e-300

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_tolerance_follows_the_unit(self, scale):
        # The same triangle violation (3x) and the same valid line at every
        # scale: an absolute 1e-9 accepted the violation at 1e-10.
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(np.array([[0.0, 1, 3], [1, 0, 1], [3, 1, 0]]) * scale)
        assert exc.value.triple == (0, 2, 1)
        line = validate_metric(np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]) * scale)
        assert diameter(line) == 2 * scale

    def test_heavy_graph_metrics_validate(self):
        # Shortest-path sums of weights near 1e9 round by ~1e-7, which an
        # absolute 1e-9 refused as triangle violations on every case.
        for seed in range(30):
            rng = seeded(8, seed)
            n = 60
            w = rng.uniform(0.5e9, 1.5e9, size=3 * n)
            edges = [(j, j + 1, float(w[j])) for j in range(n - 1)]
            edges += [(int(a), int(b), float(x)) for a, b, x in
                      zip(rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n), w[n:])]
            assert graph_metric(n, edges).n_points == n

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            validate_metric(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            validate_metric(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
    def test_euclidean_embeddings_always_validate(self, seed, n):
        rng = seeded(1, seed)
        space = euclidean_space(rng, n)
        d = space.dist
        # random-triple spot check on top of the constructor's full pass
        for _ in range(20):
            i, j, k = rng.integers(0, n, size=3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestGraphMetric:
    def test_path_distances(self):
        space = graph_metric(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])
        assert space.d(0, 2) == 2.0
        assert space.names == ["a", "b", "c"]

    def test_heavy_edge_bypassed(self):
        space = graph_metric(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert space.d(0, 2) == 2.0

    def test_single_vertex(self):
        space = graph_metric(1, [])
        assert space.n_points == 1
        assert diameter(space) == 0.0

    def test_no_vertex_rejected(self):
        with pytest.raises(ValueError, match="graph needs at least one vertex"):
            graph_metric(0, [])

    def test_bare_metric_has_no_path_tree(self):
        space = validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="space has no geodesic structure"):
            space.shortest_path_tree(0)

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            graph_metric(3, [(0, 1, 1.0)])

    @pytest.mark.parametrize("w", [-1.0, 0.0, np.nan, np.inf])
    def test_nonpositive_weight_rejected(self, w):
        with pytest.raises(NonpositiveWeight):
            graph_metric(3, [(0, 1, 1.0), (1, 2, w)])

    @pytest.mark.parametrize("edge", [(0, 7), (-1, 1), (2, 3)])
    def test_out_of_range_vertex_rejected(self, edge):
        with pytest.raises(ValueError, match="out of vertex range"):
            graph_metric(3, [(0, 1, 1.0), (1, 2, 1.0), (*edge, 1.0)])

    def test_edges_upper_bound_distances(self):
        rng = seeded(2)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            edges = [(i, i + 1, float(rng.uniform(0.5, 2.0))) for i in range(n - 1)]
            for _ in range(2):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    edges.append((int(u), int(v), float(rng.uniform(0.5, 4.0))))
            space = graph_metric(n, edges)
            for u, v, w in edges:
                assert space.d(u, v) <= w + 1e-12

    def test_shortest_path_prefers_lowest_index(self):
        # two equal-length routes 0-1-3 and 0-2-3; canonical path takes vertex 1
        space = graph_metric(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        assert space.shortest_path(0, 3) == [0, 1, 3]

    @pytest.mark.parametrize("bad", [-1, 3, np.int64(-1), 1.5, np.float64(1.0), True],
                             ids=["minus1", "n", "np_int64", "half", "np_float64", "bool"])
    def test_vertex_outside_the_space_refused(self, path3, bad):
        # Without the check numpy wraps -1 round to vertex 2.
        message = f"vertex {bad} is not a point of this space \\(n = 3\\)"
        with pytest.raises(ValueError, match=message):
            path3.shortest_path_tree(bad)
        with pytest.raises(ValueError, match=message):
            path3.shortest_path(0, bad)
        with pytest.raises(ValueError, match=message):
            path3.shortest_path(bad, 0)
        with pytest.raises(ValueError, match=message):
            path3.d(0, bad)
        with pytest.raises(ValueError, match=message):
            path3.d(bad, 0)
        with pytest.raises(ValueError, match=message):
            diameter(path3, [bad, 0])

    def test_numpy_integer_vertex_accepted(self, path3):
        assert path3.shortest_path(np.int64(0), np.int64(2)) == [0, 1, 2]

    def test_mesh_is_max_edge_weight(self):
        space = graph_metric(3, [(0, 1, 0.25), (1, 2, 0.75)])
        assert space.mesh() == 0.75


class TestSpaceOwnsItsMatrix:
    """A space copies the matrix it is given: the caller's array stays
    writable, and writing to it does not reach the space."""

    LINE = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]

    @pytest.mark.parametrize("build", [validate_metric, FiniteMetricSpace])
    def test_callers_array_stays_writable_and_detached(self, build):
        base = np.array(self.LINE)
        space = build(base[:, :])
        assert base.flags.writeable
        base[0, 2] = base[2, 0] = 50.0
        assert space.d(0, 2) == 2.0
        assert not space.dist.flags.writeable
        w1, _ = wasserstein_p(DiscreteMeasure.dirac(space, 0),
                              DiscreteMeasure.dirac(space, 2), 1)
        assert w1 == 2.0

    def test_list_input_and_graph_metrics_are_read_only(self):
        for space in (validate_metric(self.LINE), graph_metric(3, [(0, 1, 1.0), (1, 2, 1.0)])):
            assert not space.dist.flags.writeable
            with pytest.raises(ValueError):
                space.dist[0, 1] = 5.0


def shortest_path_slack(dist):
    """Largest amount by which an entry exceeds the shortest path through
    the matrix's own entries (a Floyd-Warshall pass)."""
    n = dist.shape[0]
    cols = np.tile(np.arange(n, dtype=np.int32), n)
    indptr = np.arange(0, n * n + 1, n, dtype=np.int32)
    shortest = floyd_warshall(csr_matrix((dist.ravel(), cols, indptr), shape=(n, n)))
    return float((dist - shortest).max())


def rounding_bound(dist):
    """The triangle slack graph_metric documents: 4 * n * 2**-53 * diam."""
    return 4 * dist.shape[0] * 2.0**-53 * float(dist.max())


class TestGraphMetricsAreMetrics:
    """graph_metric skips the O(n^3) triangle check because shortest-path
    matrices are metrics by construction; this corpus holds it to the full
    check instead, and to the rounding bound its docstring states."""

    def test_skips_the_runtime_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spaces_module, "_check_metric", calls.append)
        graph_metric(3, [(0, 1, 1.0), (1, 2, 1.0)])
        dyadic_interval_space(4)
        assert calls == []
        validate_metric([[0.0, 1.0], [1.0, 0.0]])
        assert len(calls) == 1

    def test_random_graphs_with_parallel_edges_and_mixed_weights(self):
        rng = seeded(9)
        for _ in range(40):
            n = int(rng.integers(2, 80))
            m = int(rng.integers(n - 1, 4 * n))
            # Weights from 1e-6 to 1e12 in one graph.
            w = 10.0 ** rng.uniform(-6, 12, size=m + n - 1)
            perm = rng.permutation(n)
            edges = [(int(perm[j]), int(perm[j + 1]), float(w[j])) for j in range(n - 1)]
            edges += [(int(a), int(b), float(x)) for a, b, x in
                      zip(rng.integers(0, n, m), rng.integers(0, n, m), w[n - 1:])]
            edges += [(u, v, 2 * x) for u, v, x in edges[: n // 2]]  # parallel
            dist = graph_metric(n, edges).dist
            _check_metric(dist)
            assert shortest_path_slack(dist) <= rounding_bound(dist)

    @pytest.mark.parametrize("kind", ["mixed", "tenths"])
    def test_long_paths(self, kind):
        rng = seeded(10, len(kind))
        n = 1000
        if kind == "mixed":
            w = 10.0 ** rng.uniform(-6, 12, size=n - 1)
        else:
            w = np.full(n - 1, 0.1)  # not dyadic: every sum rounds
        dist = graph_metric(n, [(j, j + 1, float(w[j])) for j in range(n - 1)]).dist
        _check_metric(dist)

    def test_dyadic_intervals(self):
        for level in range(11):
            dist = dyadic_interval_space(level).dist
            _check_metric(dist)
            if level <= 8:
                assert shortest_path_slack(dist) <= rounding_bound(dist)


def reference_dijkstra(n, edges, source):
    """Heap Dijkstra with the canonical rule: on equal distance, the lowest
    predecessor index wins, without reopening the vertex."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj:
        lst.sort()
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    done = [False] * n
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and u < pred[v]:
                pred[v] = u
    return dist, pred


def assert_same_bits(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_trees_match_reference(space, edges):
    for s in space.points:
        dist, pred = space.shortest_path_tree(s)
        ref_dist, ref_pred = reference_dijkstra(space.n_points, edges, s)
        assert_same_bits(dist, ref_dist)
        assert_same_bits(pred, ref_pred)


def random_weights(rng, kind, size):
    if kind == "integer":
        return rng.integers(1, 5, size=size).astype(float)
    if kind == "tenths":
        return rng.integers(1, 30, size=size) * 0.1
    if kind == "dyadic":
        return rng.integers(1, 9, size=size) * 0.125
    return rng.uniform(0.1, 3.0, size=size)


class TestShortestPathsAgainstReference:
    """Distances and predecessors agree bit for bit with a heap Dijkstra."""

    @pytest.mark.parametrize("kind", ["integer", "tenths", "dyadic", "uniform"])
    def test_random_graphs(self, kind):
        rng = seeded(5, len(kind))
        for _ in range(25):
            n = int(rng.integers(1, 30))
            extra = int(rng.integers(0, 3 * n + 1))
            w = random_weights(rng, kind, n - 1 + extra)
            perm = rng.permutation(n)
            edges = [(int(perm[j]), int(perm[j + 1]), float(w[j])) for j in range(n - 1)]
            for e in range(extra):
                u, v = rng.integers(0, n, size=2)
                edges.append((int(u), int(v), float(w[n - 1 + e])))
            edges.append((int(perm[0]), int(perm[0]), 1.0))  # self-loop, dropped
            space = graph_metric(n, edges)
            kept = [(u, v, w) for u, v, w in edges if u != v]
            ref = np.array([reference_dijkstra(n, kept, s)[0] for s in range(n)])
            assert_same_bits(space.dist, np.minimum(ref, ref.T))
            assert_trees_match_reference(space, kept)

    def test_parallel_edges_keep_the_lightest(self):
        edges = [(0, 1, 2.0), (0, 1, 0.5), (1, 2, 1.0), (2, 1, 0.25), (0, 2, 1.0)]
        space = graph_metric(3, edges)
        assert space.d(0, 1) == 0.5
        assert space.d(1, 2) == 0.25
        assert space.d(0, 2) == 0.75
        assert_trees_match_reference(space, edges)

    def test_single_vertex(self):
        space = graph_metric(1, [])
        assert_trees_match_reference(space, [])

    @pytest.mark.parametrize("kind", ["integer", "tenths", "dyadic", "uniform"])
    def test_every_predecessor_chain_reaches_its_source(self, kind):
        # Path walks have no "no path" exit: they rely on graph_metric, the
        # only builder of edge-carrying spaces, leaving no chain that stops
        # short of its source or cycles, at any unit of the weights.
        rng = seeded(9, len(kind))
        for trial in range(60):
            n = int(rng.integers(1, 40))
            extra = int(rng.integers(0, 3 * n + 1))
            w = random_weights(rng, kind, n - 1 + extra) * 10.0 ** (9 * (trial % 3 - 1))
            perm = rng.permutation(n)
            edges = [(int(perm[j]), int(perm[j + 1]), float(w[j])) for j in range(n - 1)]
            edges += [(int(a), int(b), float(x)) for a, b, x in
                      zip(rng.integers(0, n, extra), rng.integers(0, n, extra), w[n - 1:])]
            space = graph_metric(n, edges)
            for s in space.points:
                pred = space.shortest_path_tree(s)[1]
                assert pred[s] == -1
                assert (np.delete(pred, s) >= 0).all()
                at = np.arange(n)
                for _ in range(n - 1):
                    at = np.where(at == s, s, pred[at])
                assert (at == s).all()


def scaled_tolerance(dist):
    """The absolute slack validate_metric allows: METRIC_TOL times the
    largest distance."""
    return METRIC_TOL * float(np.max(dist))


def reference_triangle_violation(dist):
    """The triangle scan k by k, as validate_metric ran it before it took
    the two-step minimum first: (triple, excess) at the smallest k that
    breaks the scaled tolerance and its largest excess (first in row-major
    order), or None."""
    tol = scaled_tolerance(dist)
    for k in range(dist.shape[0]):
        excess = dist - (dist[:, k : k + 1] + dist[k : k + 1, :])
        if np.any(excess > tol):
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            return (int(i), int(j), k), float(excess[i, j])
    return None


def reported_triangle_violation(dist):
    try:
        validate_metric(dist)
    except TriangleViolation as exc:
        return exc.triple, exc.excess
    return None


class TestTriangleScanAgainstReference:
    """validate_metric reports the triple and excess of the k-by-k scan."""

    @pytest.mark.parametrize("kind", ["integer", "dyadic", "uniform"])
    def test_planted_violations(self, kind):
        rng = seeded(6, len(kind))
        outcomes = set()
        for trial in range(30):
            n = int(rng.integers(3, 30))
            w = random_weights(rng, kind, 2 * n)
            edges = [(j, j + 1, float(w[j])) for j in range(n - 1)]
            edges += [(int(a), int(b), float(x))
                      for a, b, x in zip(rng.integers(0, n, n), rng.integers(0, n, n), w[n:])]
            dist = np.array(graph_metric(n, edges).dist)
            tol = scaled_tolerance(dist)
            # Raise d(i, j) above its shortest two-step detour by a bump just
            # below, just above or well above the tolerance; trial % 3
            # plants 0, 1 or 2 of them.
            for _ in range(trial % 3):
                i, j = rng.choice(n, size=2, replace=False)
                detour = min(dist[i, k] + dist[k, j] for k in range(n) if k not in (i, j))
                bump = float(rng.choice([0.5 * tol, 1.25 * tol, 0.25, 1.0]))
                dist[i, j] = dist[j, i] = detour + bump
            expected = reference_triangle_violation(dist)
            got = reported_triangle_violation(dist)
            outcomes.add(expected is None)
            if expected is None:
                assert got is None
            else:
                assert got[0] == expected[0]
                assert got[1].hex() == expected[1].hex()
        assert outcomes == {True, False}

    def test_clean_euclidean_matrices(self):
        rng = seeded(7)
        for _ in range(10):
            d = euclidean_space(rng, int(rng.integers(2, 60))).dist
            assert reference_triangle_violation(d) is None
            assert reported_triangle_violation(d) is None

    def test_violation_through_zero_distance(self):
        # A dense Floyd-Warshall input would read d(0, 1) = 0 as no edge
        # and miss the detour 0-1-2.
        dist = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        expected = reference_triangle_violation(dist)
        assert expected == ((0, 2, 1), 4.0)
        assert reported_triangle_violation(dist) == expected

    def test_chain_of_small_slacks_validates(self):
        # Every triple on this line is slack by 0.6 times the tolerance, so
        # none breaks it, but the slacks add up along the chain and the
        # shortest-path certificate alone would refuse the matrix.
        n = 8
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        tol = METRIC_TOL * (n - 1)  # the diameter is n - 1 and a little more
        dist = np.where(gap > 0, gap + 0.6 * tol * (gap - 1), 0.0)
        shortest = floyd_warshall(csgraph_from_dense(dist, null_value=np.inf))
        assert (dist - shortest).max() > scaled_tolerance(dist)
        assert reference_triangle_violation(dist) is None
        assert reported_triangle_violation(dist) is None


class TestDyadicInterval:
    def test_level_zero(self):
        space = dyadic_interval_space(0)
        assert space.n_points == 2
        assert space.d(0, 1) == 1.0

    def test_level_one_points(self):
        space = dyadic_interval_space(1)
        assert space.names == [0.0, 0.5, 1.0]
        assert space.base_point == 0

    def test_level_three_mesh(self):
        space = dyadic_interval_space(3)
        assert space.n_points == 9
        assert space.mesh() == 0.125

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            dyadic_interval_space(-1)


class TestDiameter:
    def test_subset(self, path5):
        assert diameter(path5) == 4.0
        assert diameter(path5, {1, 3}) == 2.0

    def test_singleton_subset(self, path5):
        assert diameter(path5, {2}) == 0.0

    def test_empty_subset(self, path5):
        with pytest.raises(EmptySubset):
            diameter(path5, set())


class TestCoveringNumber:
    def test_single_ball_above_diameter(self, path5):
        cert = covering_number(path5, 100.0)
        assert cert.k == 1

    def test_isolated_points_need_one_each(self):
        n = 6
        d = np.ones((n, n)) - np.eye(n)
        space = validate_metric(d)
        assert covering_number(space, 0.5).k == n

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_dyadic_budget(self, level):
        space = dyadic_interval_space(level)
        eps = 2.0 ** -level
        greedy = covering_number(space, eps)
        exact = covering_number(space, eps, exact=True)
        assert exact.k <= greedy.k <= 2 ** (level - 1) + 1

    def test_certificate_covers_everything(self):
        rng = seeded(3)
        for _ in range(15):
            space = euclidean_space(rng, int(rng.integers(2, 14)))
            eps = float(rng.uniform(0.2, 3.0))
            cert = covering_number(space, eps)
            dmin = space.dist[:, cert.centers].min(axis=1)
            assert (dmin <= eps + 1e-12).all()

    def test_k_monotone_in_epsilon(self):
        rng = seeded(4)
        space = euclidean_space(rng, 12)
        ks = [covering_number(space, eps).k for eps in (4.0, 2.0, 1.0, 0.5, 0.25, 0.1)]
        assert ks == sorted(ks)

    def test_nonpositive_epsilon_rejected(self, path5):
        with pytest.raises(ValueError):
            covering_number(path5, 0.0)

    @pytest.mark.parametrize("eps", [-1.0, np.nan])
    def test_epsilon_must_be_positive(self, path5, eps):
        # NaN passes an `epsilon <= 0` guard.
        with pytest.raises(ValueError, match="epsilon must be positive"):
            covering_number(path5, eps)
