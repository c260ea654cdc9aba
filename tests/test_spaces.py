"""Metric validation, graph metrics, covering numbers, dyadic grids."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wasserlim import (
    covering_number,
    diameter,
    dyadic_interval_space,
    graph_metric,
    validate_metric,
)
from wasserlim.spaces import FiniteMetricSpace
from wasserlim.errors import (
    Asymmetric,
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

    def test_triangle_violation_names_triple(self):
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(np.array([[0.0, 1, 3], [1, 0, 1], [3, 1, 0]]))
        assert exc.value.triple == (0, 2, 1)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            validate_metric(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            validate_metric(np.array([[0.0, np.inf], [np.inf, 0.0]]))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None)
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

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            graph_metric(3, [(0, 1, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonpositiveWeight):
            graph_metric(2, [(0, 1, 0.0)])

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

    def test_mesh_is_max_edge_weight(self):
        space = graph_metric(3, [(0, 1, 0.25), (1, 2, 0.75)])
        assert space.mesh() == 0.75


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

    def test_disconnected_structure_has_no_predecessors_across(self):
        edges = [(0, 1, 1.0), (2, 3, 2.0)]
        d = np.array([[0, 1, 5, 7], [1, 0, 5, 7], [5, 5, 0, 2], [7, 7, 2, 0.0]])
        space = FiniteMetricSpace(d, geodesic_structure=edges)
        assert_trees_match_reference(space, edges)
        dist, pred = space.shortest_path_tree(0)
        assert np.isinf(dist[2:]).all()
        assert pred.tolist() == [-1, 0, -1, -1]
        with pytest.raises(ValueError):
            space.shortest_path(0, 3)


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
