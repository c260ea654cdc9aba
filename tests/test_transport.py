"""Solver, assignment route, enumeration oracle, projections."""

import math

import numpy as np
import pytest

from wasserlim import (
    DiscreteMeasure,
    assignment_wasserstein,
    brute_force_wasserstein,
    graph_metric,
    nearest_atom_projection,
    total_variation,
    validate_metric,
    wasserstein_p,
)
from wasserlim.errors import (
    NotUniformCloud,
    SizeMismatch,
    SolverFailure,
    SpaceMismatch,
    TooLarge,
)
from wasserlim.transport import alternate_optimal_couplings, has_alternate_optimum
from conftest import euclidean_space, random_measure, seeded, uniform_cloud


def small_pair(rng, max_cells=12):
    """Random measure pair whose support box fits the enumeration oracle."""
    shapes = [(1, 1), (1, 11), (2, 6), (3, 4), (2, 5), (3, 3), (2, 4), (4, 3)]
    m, k = shapes[int(rng.integers(0, len(shapes)))]
    space = euclidean_space(rng, max(m, k) + int(rng.integers(0, 3)))
    return random_measure(rng, space, atoms=m), random_measure(rng, space, atoms=k)


class TestWassersteinP:
    def test_dirac_pair_is_plain_distance(self, path5):
        a = DiscreteMeasure.dirac(path5, 0)
        b = DiscreteMeasure.dirac(path5, 3)
        for p in (1.0, 2.0, 3.5):
            value, coupling = wasserstein_p(a, b, p)
            assert value == pytest.approx(3.0, abs=1e-12)
            assert coupling.matrix[0, 3] == pytest.approx(1.0)

    def test_identical_measures_cost_zero(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.1, 0.3, 0.0, 0.4, 0.2]))
        assert wasserstein_p(mu, mu, 2.0)[0] == 0.0

    def test_unit_shift_of_uniform_pair(self, path3):
        mu = DiscreteMeasure(path3, np.array([0.5, 0.5, 0.0]))
        nu = DiscreteMeasure(path3, np.array([0.0, 0.5, 0.5]))
        assert wasserstein_p(mu, nu, 1.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_p_below_one_rejected(self, path3):
        mu = DiscreteMeasure.uniform(path3)
        with pytest.raises(ValueError):
            wasserstein_p(mu, mu, 0.5)

    def test_space_mismatch(self, path3, path5):
        with pytest.raises(SpaceMismatch):
            wasserstein_p(
                DiscreteMeasure.uniform(path3), DiscreteMeasure.uniform(path5), 2.0
            )

    def test_symmetry_exact(self):
        rng = seeded(20)
        for _ in range(15):
            space = euclidean_space(rng, int(rng.integers(2, 9)))
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            p = float(rng.uniform(1.0, 3.0))
            assert wasserstein_p(mu, nu, p)[0] == wasserstein_p(nu, mu, p)[0]

    def test_triangle_inequality(self):
        rng = seeded(21)
        for _ in range(12):
            space = euclidean_space(rng, int(rng.integers(3, 9)))
            a, b, c = (random_measure(rng, space) for _ in range(3))
            for p in (1.0, 2.0):
                assert (
                    wasserstein_p(a, c, p)[0]
                    <= wasserstein_p(a, b, p)[0] + wasserstein_p(b, c, p)[0] + 1e-7
                )

    def test_zero_cost_implies_equal_weights(self):
        rng = seeded(22)
        for _ in range(10):
            space = euclidean_space(rng, 6)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            value = wasserstein_p(mu, nu, 1.0)[0]
            if np.array_equal(mu.weights, nu.weights):
                assert value == 0.0
            else:
                assert value > 0.0

    def test_monotone_in_p(self):
        rng = seeded(23)
        for _ in range(10):
            space = euclidean_space(rng, 7)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            values = [wasserstein_p(mu, nu, p)[0] for p in (1.0, 1.5, 2.0, 3.0)]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-9

    def test_coupling_marginals_and_cost(self):
        rng = seeded(24)
        space = euclidean_space(rng, 8)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        value, coupling = wasserstein_p(mu, nu, 2.0)
        assert np.allclose(coupling.matrix.sum(axis=1), mu.weights, atol=1e-12)
        assert np.allclose(coupling.matrix.sum(axis=0), nu.weights, atol=1e-12)
        recomputed = (coupling.matrix * space.dist**2).sum() ** 0.5
        assert value == pytest.approx(recomputed, abs=1e-12)
        # optimal bases are trees: support can't exceed m + n - 1 cells
        assert (coupling.matrix > 0).sum() <= mu.support.size + nu.support.size - 1

    def test_deterministic_coupling(self):
        rng = seeded(25)
        space = euclidean_space(rng, 10)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        first = wasserstein_p(mu, nu, 2.0)[1].matrix
        second = wasserstein_p(mu, nu, 2.0)[1].matrix
        assert np.array_equal(first, second)

    def test_huge_costs_refused_not_garbled(self):
        space = validate_metric(np.array([[0.0, 1e8], [1e8, 0.0]]))
        mu = DiscreteMeasure.dirac(space, 0)
        nu = DiscreteMeasure.dirac(space, 1)
        with pytest.raises(SolverFailure):
            wasserstein_p(mu, nu, 3.0)


class TestBruteForceOracle:
    def test_three_random_instances_match_solver(self):
        rng = seeded(26)
        for trial in range(3):
            mu, nu = small_pair(rng)
            p = (1.0, 2.0, 3.0)[trial]
            assert brute_force_wasserstein(mu, nu, p) == pytest.approx(
                wasserstein_p(mu, nu, p)[0], abs=1e-7
            )

    def test_identical_measures(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.4, 0.0, 0.6, 0.0, 0.0]))
        assert brute_force_wasserstein(mu, mu, 2.0) == 0.0

    def test_dirac_pair(self, path5):
        a, b = DiscreteMeasure.dirac(path5, 0), DiscreteMeasure.dirac(path5, 4)
        assert brute_force_wasserstein(a, b, 1.0) == pytest.approx(4.0)

    def test_cell_bound_enforced(self):
        rng = seeded(27)
        space = euclidean_space(rng, 9)
        mu = random_measure(rng, space, atoms=5)
        nu = random_measure(rng, space, atoms=3)
        with pytest.raises(TooLarge):
            brute_force_wasserstein(mu, nu, 2.0)


class TestAssignment:
    def test_single_atom_clouds(self, two_point):
        a = DiscreteMeasure.dirac(two_point, 0)
        b = DiscreteMeasure.dirac(two_point, 1)
        value, assignment = assignment_wasserstein(a, b, 2.0)
        assert value == pytest.approx(3.0)
        assert assignment.permutation == (0,)

    def test_identical_clouds_cost_zero(self, path5):
        cloud = DiscreteMeasure(path5, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        value, _ = assignment_wasserstein(cloud, cloud, 1.0)
        assert value == 0.0

    def test_interleaved_pairs_keep_order(self):
        space = validate_metric(
            np.abs(np.subtract.outer([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]))
        )
        a = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5, 0.0]))
        b = DiscreteMeasure(space, np.array([0.0, 0.5, 0.0, 0.5]))
        value, assignment = assignment_wasserstein(a, b, 2.0)
        assert value == pytest.approx(1.0)
        assert assignment.permutation == (0, 1)

    def test_matches_solver_on_random_clouds(self):
        rng = seeded(28)
        for trial in range(30):
            space = euclidean_space(rng, int(rng.integers(2, 12)))
            size = int(rng.integers(1, 65))
            a = uniform_cloud(rng, space, size)
            b = uniform_cloud(rng, space, size)
            p = (1.0, 2.0, 3.0)[trial % 3]
            assert assignment_wasserstein(a, b, p)[0] == pytest.approx(
                wasserstein_p(a, b, p)[0], abs=1e-9
            )

    def test_non_uniform_weights_rejected(self, two_point):
        # 1/pi has a rational approximant within 5.8e-10; must still refuse
        lopsided = DiscreteMeasure(two_point, np.array([1 / np.pi, 1 - 1 / np.pi]))
        with pytest.raises(NotUniformCloud):
            assignment_wasserstein(lopsided, DiscreteMeasure.dirac(two_point, 0), 2.0)

    def test_incompatible_sizes_rejected(self, two_point):
        a = DiscreteMeasure(two_point, np.array([504 / 1009, 505 / 1009]))
        b = DiscreteMeasure(two_point, np.array([506 / 1013, 507 / 1013]))
        with pytest.raises(SizeMismatch):
            assignment_wasserstein(a, b, 2.0)


class TestNearestAtomProjection:
    def test_single_atom_cloud_collapses(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        cloud = DiscreteMeasure.dirac(path5, 2)
        result = nearest_atom_projection(mu, cloud, 2.0)
        assert {result.tau[int(x)] for x in mu.support} == {2}
        moment = sum(w * path5.d(j, 2) ** 2 for j, w in zip(range(5), mu.weights))
        assert result.cost == pytest.approx(moment**0.5)

    def test_covering_cloud_is_identity(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.5, 0.0, 0.5, 0.0, 0.0]))
        cloud = DiscreteMeasure(path5, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        result = nearest_atom_projection(mu, cloud, 2.0)
        assert result.cost == 0.0
        assert np.array_equal(result.pushforward.weights, mu.weights)

    def test_hand_example_off_grid_point(self):
        space = validate_metric(
            np.array([[0.0, 0.4, 1.0], [0.4, 0.0, 0.6], [1.0, 0.6, 0.0]])
        )
        mu = DiscreteMeasure.uniform(space)
        cloud = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5]))
        result = nearest_atom_projection(mu, cloud, 2.0)
        assert result.tau[1] == 0  # 0.4 beats 0.6
        assert np.allclose(result.pushforward.weights, [2 / 3, 0.0, 1 / 3])
        assert result.cost == pytest.approx((0.16 / 3) ** 0.5)

    def test_tie_takes_lowest_atom_index(self, path5):
        mu = DiscreteMeasure.dirac(path5, 2)
        cloud = DiscreteMeasure(path5, np.array([0.5, 0.0, 0.0, 0.0, 0.5]))
        result = nearest_atom_projection(mu, cloud, 1.0)
        assert result.tau[2] == 0

    def test_sandwich_against_solver(self):
        rng = seeded(29)
        for _ in range(20):
            space = euclidean_space(rng, int(rng.integers(3, 10)))
            mu = random_measure(rng, space)
            cloud = uniform_cloud(rng, space, int(rng.integers(1, 9)))
            p = float(rng.choice([1.0, 2.0]))
            result = nearest_atom_projection(mu, cloud, p)
            lower = wasserstein_p(mu, result.pushforward, p)[0]
            upper = wasserstein_p(mu, cloud, p)[0]
            assert lower <= result.cost + 1e-9
            assert result.cost <= upper + 1e-9


class TestAlternateOptima:
    def _square_measures(self):
        # 4-cycle: both matchings of {0,2} onto {1,3} cost the same
        space = graph_metric(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        mu = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5, 0.0]))
        nu = DiscreteMeasure(space, np.array([0.0, 0.5, 0.0, 0.5]))
        return mu, nu

    def _square_tie(self):
        return wasserstein_p(*self._square_measures(), 2.0)

    def test_tie_detected(self):
        _, coupling = self._square_tie()
        assert has_alternate_optimum(coupling)

    def test_alternates_are_valid_and_cost_equal(self):
        value, coupling = self._square_tie()
        others = alternate_optimal_couplings(coupling)
        assert 1 <= len(others) <= 8
        for other in others:
            assert not np.array_equal(other.matrix, coupling.matrix)
            assert np.allclose(
                other.matrix.sum(axis=1), coupling.matrix.sum(axis=1), atol=1e-12
            )
            assert np.allclose(
                other.matrix.sum(axis=0), coupling.matrix.sum(axis=0), atol=1e-12
            )
            assert other.cost_p == pytest.approx(value, abs=1e-9)

    def test_alternates_transpose_with_argument_order(self):
        # One order is solved as given and the other flipped; both must
        # present the same plans.
        mu, nu = self._square_measures()
        _, there = wasserstein_p(mu, nu, 2.0)
        _, back = wasserstein_p(nu, mu, 2.0)
        assert there._state.flipped != back._state.flipped
        forward = alternate_optimal_couplings(there)
        backward = alternate_optimal_couplings(back)
        assert len(forward) == len(backward) >= 1
        for f, b in zip(forward, backward):
            assert np.array_equal(f.matrix, b.matrix.T)
            assert f.cost_p.hex() == b.cost_p.hex()

    def test_unique_optimum_has_no_alternates(self, path3):
        mu = DiscreteMeasure.dirac(path3, 0)
        nu = DiscreteMeasure.dirac(path3, 2)
        _, coupling = wasserstein_p(mu, nu, 2.0)
        assert not has_alternate_optimum(coupling)
        assert alternate_optimal_couplings(coupling) == []
