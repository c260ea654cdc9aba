"""Displacement interpolation: vertex rounding, midpoints, full paths."""

import hashlib
import math

import numpy as np
import pytest

from wasserlim import (
    DiscreteMeasure,
    displacement_path,
    dyadic_interval_space,
    graph_metric,
    interpolate_coupling,
    point_interpolate,
    w2_midpoint,
    wasserstein_p,
)
from wasserlim import geodesics
from wasserlim.errors import NoGeodesicStructure
from wasserlim.transport import alternate_optimal_couplings
from conftest import euclidean_space, random_measure, seeded


def random_graph_space(rng, n):
    """Connected weighted graph: random spanning tree plus a few chords."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.2, 1.5))))
    for _ in range(n // 2):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v), float(rng.uniform(0.2, 1.5))))
    return graph_metric(n, edges)


def dyadic_measure(rng, space, step=4, atoms=3):
    """Measure supported on every ``step``-th vertex of a dyadic space."""
    grid = np.arange(0, space.n_points, step)
    chosen = rng.choice(grid, size=min(atoms, len(grid)), replace=False)
    weights = np.zeros(space.n_points)
    weights[chosen] = rng.uniform(0.1, 1.0, size=len(chosen))
    return DiscreteMeasure(space, weights / weights.sum())


class TestPointInterpolate:
    def test_endpoints(self, path3):
        assert point_interpolate(path3, 0, 2, 0.0).point == 0
        assert point_interpolate(path3, 0, 2, 1.0).point == 2

    def test_exact_midpoint(self, path3):
        result = point_interpolate(path3, 0, 2, 0.5)
        assert result == (1, 0.0)

    def test_quarter_rounds_toward_x(self, path3):
        # both 0 and 1 sit 0.5 away from the target; tie keeps 0
        result = point_interpolate(path3, 0, 2, 0.25)
        assert result.point == 0
        assert result.defect == pytest.approx(0.5)

    def test_lexicographic_route_chosen(self):
        # diamond: two equal-length routes 0-1-3 and 0-2-3
        space = graph_metric(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        assert point_interpolate(space, 0, 3, 0.5).point == 1

    def test_degenerate_pair(self, path5):
        assert point_interpolate(path5, 2, 2, 0.7) == (2, 0.0)

    @pytest.mark.parametrize("bad", [-1, 3, np.int64(-1)], ids=["minus1", "n", "np_int64"])
    def test_vertex_outside_the_space_refused(self, path3, bad):
        message = f"vertex {bad} is not a point of this space \\(n = 3\\)"
        for x, y in [(0, bad), (bad, 0), (bad, bad)]:
            with pytest.raises(ValueError, match=message):
                point_interpolate(path3, x, y, 0.5)

    def test_numpy_integer_vertex_accepted(self, path3):
        assert point_interpolate(path3, np.int64(0), np.int64(2), 0.5) == (1, 0.0)

    def test_out_of_range_t(self, path3):
        with pytest.raises(ValueError):
            point_interpolate(path3, 0, 2, 1.5)

    def test_bare_matrix_refused(self):
        space = euclidean_space(seeded(30), 4)
        with pytest.raises(NoGeodesicStructure):
            point_interpolate(space, 0, 1, 0.5)

    def test_defect_bounded_by_half_mesh_on_unit_paths(self, path5):
        for t in np.linspace(0.0, 1.0, 17):
            result = point_interpolate(path5, 0, 4, float(t))
            assert result.defect <= 0.5 * path5.mesh() + 1e-12


class TestW2Midpoint:
    def test_equal_endpoints(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.2, 0.0, 0.5, 0.3, 0.0]))
        mid, report = w2_midpoint(mu, mu)
        assert np.array_equal(mid.weights, mu.weights)
        assert report.left_defect == 0.0
        assert report.right_defect == 0.0
        assert report.endpoints_cost == 0.0

    def test_dirac_endpoints(self, path3):
        mid, report = w2_midpoint(
            DiscreteMeasure.dirac(path3, 0), DiscreteMeasure.dirac(path3, 2)
        )
        assert mid.weights.tolist() == [0.0, 1.0, 0.0]
        assert report.left_defect == pytest.approx(0.0, abs=1e-12)
        assert report.max_vertex_defect == 0.0

    def test_shifted_uniform_pair(self, path5):
        mu0 = DiscreteMeasure(path5, np.array([0.5, 0.0, 0.5, 0.0, 0.0]))
        mu1 = DiscreteMeasure(path5, np.array([0.0, 0.0, 0.5, 0.0, 0.5]))
        mid, report = w2_midpoint(mu0, mu1)
        assert np.allclose(mid.weights, [0.0, 0.5, 0.0, 0.5, 0.0])
        assert report.left_defect <= 1e-12
        assert report.right_defect <= 1e-12

    def test_mass_conserved(self):
        rng = seeded(31)
        for _ in range(10):
            space = random_graph_space(rng, int(rng.integers(3, 12)))
            mu0, mu1 = random_measure(rng, space), random_measure(rng, space)
            mid, _ = w2_midpoint(mu0, mu1)
            assert abs(mid.weights.sum() - 1.0) <= 1e-12

    def test_defects_bounded_by_mesh(self):
        rng = seeded(32)
        for _ in range(10):
            space = random_graph_space(rng, int(rng.integers(3, 12)))
            mu0, mu1 = random_measure(rng, space), random_measure(rng, space)
            _, report = w2_midpoint(mu0, mu1)
            assert report.left_defect <= space.mesh()
            assert report.right_defect <= space.mesh()
            assert report.max_vertex_defect <= space.mesh()

    def test_nonunique_coupling_flagged(self):
        space = graph_metric(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        mu0 = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5, 0.0]))
        mu1 = DiscreteMeasure(space, np.array([0.0, 0.5, 0.0, 0.5]))
        _, report = w2_midpoint(mu0, mu1)
        assert report.coupling_nonunique

    def test_exact_on_fine_dyadic(self):
        rng = seeded(33)
        space = dyadic_interval_space(4)  # vertices k/16
        for _ in range(5):
            mu0 = dyadic_measure(rng, space, step=2)
            mu1 = dyadic_measure(rng, space, step=2)
            mid, report = w2_midpoint(mu0, mu1)
            # every pair midpoint lands on a vertex: (even+even)/2 is integer
            assert report.max_vertex_defect == 0.0
            assert report.left_defect <= 1e-9
            assert report.right_defect <= 1e-9


class TestDisplacementPath:
    def test_endpoints_reproduced(self, path5):
        mu0 = DiscreteMeasure(path5, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        mu1 = DiscreteMeasure(path5, np.array([0.0, 0.0, 0.0, 0.5, 0.5]))
        path = displacement_path(mu0, mu1)
        assert path.measures[0] is mu0
        assert path.measures[-1] is mu1
        assert path.times == (0.0, 0.5, 1.0)

    def test_dirac_to_dirac_walks_the_vertex_geodesic(self, path5):
        path = displacement_path(
            DiscreteMeasure.dirac(path5, 0),
            DiscreteMeasure.dirac(path5, 4),
            grid=(0.0, 0.25, 0.5, 0.75, 1.0),
        )
        hits = [int(np.argmax(m.weights)) for m in path.measures]
        assert hits == [0, 1, 2, 3, 4]
        assert path.constant_speed_defect <= 1e-12

    def test_half_grid_matches_midpoint(self, path5):
        mu0 = DiscreteMeasure(path5, np.array([0.5, 0.0, 0.5, 0.0, 0.0]))
        mu1 = DiscreteMeasure(path5, np.array([0.0, 0.0, 0.5, 0.0, 0.5]))
        path = displacement_path(mu0, mu1, grid=(0.0, 0.5, 1.0))
        mid, _ = w2_midpoint(mu0, mu1)
        assert np.array_equal(path.measures[1].weights, mid.weights)

    def test_grid_must_span_unit_interval(self, path3):
        mu = DiscreteMeasure.uniform(path3)
        with pytest.raises(ValueError):
            displacement_path(mu, mu, grid=(0.0, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.25, math.inf])
    def test_grid_times_outside_unit_interval(self, path3, bad):
        # NaN sorts anywhere, so it must be refused before the endpoint test.
        mu = DiscreteMeasure.uniform(path3)
        with pytest.raises(ValueError, match=r"grid times must lie in \[0, 1\]"):
            displacement_path(mu, mu, grid=(0.0, bad, 0.5, 1.0))

    def test_constant_speed_on_fine_dyadic(self):
        rng = seeded(34)
        space = dyadic_interval_space(4)
        for _ in range(4):
            mu0 = dyadic_measure(rng, space, step=4)
            mu1 = dyadic_measure(rng, space, step=4)
            path = displacement_path(mu0, mu1, grid=(0.0, 0.25, 0.5, 0.75, 1.0))
            assert path.constant_speed_defect <= 1e-7

    def test_coarse_defect_bounded_by_mesh(self):
        rng = seeded(35)
        for _ in range(6):
            space = random_graph_space(rng, int(rng.integers(3, 10)))
            mu0, mu1 = random_measure(rng, space), random_measure(rng, space)
            path = displacement_path(mu0, mu1, grid=(0.0, 0.25, 0.5, 0.75, 1.0))
            assert path.constant_speed_defect <= space.mesh() + 1e-12
            for measure in path.measures:
                assert abs(measure.weights.sum() - 1.0) <= 1e-12

    def test_endpoint_pair_reuses_the_endpoint_solve(self, path5, monkeypatch):
        mu0 = DiscreteMeasure(path5, np.array([0.3, 0.7, 0.0, 0.0, 0.0]))
        mu1 = DiscreteMeasure(path5, np.array([0.0, 0.0, 0.2, 0.0, 0.8]))
        calls = []

        def counting(a, b, p):
            calls.append((a, b))
            return wasserstein_p(a, b, p)

        monkeypatch.setattr(geodesics, "wasserstein_p", counting)
        path = displacement_path(mu0, mu1, grid=(0.0, 0.25, 0.5, 0.75, 1.0))
        # One endpoint solve and the nine other pairs of the ten.
        assert len(calls) == 10
        assert calls.count((mu0, mu1)) == 1
        assert path.pair_defects[3] == (0.0, 1.0, 0.0)

    def test_endpoint_cost_agrees_with_solver(self, path5):
        mu0 = DiscreteMeasure(path5, np.array([0.3, 0.7, 0.0, 0.0, 0.0]))
        mu1 = DiscreteMeasure(path5, np.array([0.0, 0.0, 0.2, 0.0, 0.8]))
        path = displacement_path(mu0, mu1)
        assert path.endpoints_cost == wasserstein_p(mu0, mu1, 2)[0]


def reference_point_interpolate(space, x, y, t):
    """point_interpolate as it was before the one-pass kernel: one Python
    walk of the canonical path per pair, first minimum toward x."""
    if space.geodesic_structure is None:
        raise NoGeodesicStructure("bare metric")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter {t} outside [0, 1]")
    if x == y:
        return x, 0.0
    path = space.shortest_path(x, y)
    cum = space.dist[x, path]
    target = t * space.dist[x, y]
    k = int(np.argmin(np.abs(cum - target)))
    return int(path[k]), float(abs(cum[k] - target))


def reference_interpolate_coupling(coupling, t):
    """interpolate_coupling as it was: the per-cell loop in row-major order."""
    space = coupling.space
    weights = np.zeros(space.n_points)
    worst = 0.0
    rows, cols = np.nonzero(coupling.matrix > 0)
    for i, j in zip(rows, cols):
        z, defect = reference_point_interpolate(space, int(i), int(j), t)
        weights[z] += coupling.matrix[i, j]
        worst = max(worst, defect)
    return DiscreteMeasure(space, weights), worst


TIMES = (0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0, math.nan, 1.5)


def outcome(fn, *args):
    """What an interpolate_coupling call returned, bit for bit, or the
    error it raised."""
    try:
        measure, defect = fn(*args)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("returned", measure.weights.tobytes(), float(defect).hex())


def point_outcome(fn, space, x, y, t):
    """The same for a point_interpolate call."""
    try:
        z, defect = fn(space, x, y, t)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("returned", int(z), float(defect).hex())


def cycle_space(n, weights):
    return graph_metric(n, [(j, (j + 1) % n, float(weights[j])) for j in range(n)])


def multigraph_space(rng, n):
    """A random path plus chords, some of them parallel to earlier edges."""
    order = rng.permutation(n)
    edges = [(int(order[j]), int(order[j + 1]), float(rng.integers(1, 5)))
             for j in range(n - 1)]
    for _ in range(n):
        u, v, _ = edges[int(rng.integers(len(edges)))]
        edges.append((u, v, float(rng.integers(1, 5))))
        a, b = rng.integers(0, n, size=2)
        edges.append((int(a), int(b), float(rng.uniform(0.5, 3.0))))
    return graph_metric(n, edges)


def interpolation_spaces():
    rng = seeded(36)
    out = [(dyadic_interval_space(level), 3 if level == 8 else 5) for level in range(4, 9)]
    # Integer weights; equal ones give two equal-length routes between
    # antipodes.
    for n in rng.integers(3, 13, size=12):
        out.append((cycle_space(n, rng.integers(1, 4, size=n)), 3))
    out += [(cycle_space(n, np.ones(n)), 3) for n in (4, 6, 8, 10)]
    out += [(multigraph_space(rng, int(rng.integers(2, 13))), 3) for _ in range(12)]
    return out


def corpus_pair(rng, space):
    """Random measures, or, one time in two on an even cycle of equal
    edges, equal masses on the even and on the odd vertices: each even
    vertex then has two nearest odd ones, so the optimum is not unique."""
    edges = space.geodesic_structure
    if (space.n_points % 2 == 0 and len({w for _, _, w in edges}) == 1
            and len(edges) == space.n_points and rng.random() < 0.5):
        even = (np.arange(space.n_points) % 2 == 0).astype(float)
        return DiscreteMeasure(space, even), DiscreteMeasure(space, 1.0 - even)
    return random_measure(rng, space), random_measure(rng, space)


def interpolation_corpus():
    """(coupling, t) pairs: optimal couplings of seeded measure pairs and
    their alternate optima, at every time in TIMES."""
    rng = seeded(37)
    for space, pairs in interpolation_spaces():
        for _ in range(pairs):
            mu, nu = corpus_pair(rng, space)
            _, coupling = wasserstein_p(mu, nu, 2)
            for c in [coupling] + alternate_optimal_couplings(coupling, limit=4):
                for t in TIMES:
                    yield c, t


def interpolation_digest() -> str:
    """sha256 over interpolate_coupling on the corpus and point_interpolate
    on every pair of the spaces below 16 points: weights bytes and defect
    bits, or the error type and message. Equal digests on two versions of
    the package mean they interpolate alike."""
    h = hashlib.sha256()
    for coupling, t in interpolation_corpus():
        h.update(repr(outcome(interpolate_coupling, coupling, t)).encode())
    for space, _ in interpolation_spaces():
        if space.n_points < 16:
            for x in space.points:
                for y in space.points:
                    for t in TIMES:
                        h.update(repr(point_outcome(point_interpolate, space, x, y, t)).encode())
    return h.hexdigest()


INTERPOLATION_DIGEST = "0a0100efd52b43294ff4bb4f035e5f245ea071c5ae60451ffe45035295f7b9d4"


def test_interpolation_digest_is_unchanged():
    assert interpolation_digest() == INTERPOLATION_DIGEST


class TestInterpolationAgainstReference:
    """The one-pass kernel places every pair as the per-pair walk did."""

    def test_couplings(self):
        kinds = set()
        for coupling, t in interpolation_corpus():
            expected = outcome(reference_interpolate_coupling, coupling, t)
            assert outcome(interpolate_coupling, coupling, t) == expected
            kinds.add(expected[2].split()[0] if expected[0] == "raised" else expected[0])
        assert kinds == {"returned", "interpolation"}

    def test_points(self):
        for space, _ in interpolation_spaces():
            if space.n_points < 16:
                for x in space.points:
                    for y in space.points:
                        for t in TIMES:
                            assert (point_outcome(point_interpolate, space, x, y, t)
                                    == point_outcome(reference_point_interpolate, space, x, y, t))


if __name__ == "__main__":
    print(interpolation_digest())
