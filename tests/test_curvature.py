"""Entropy, midpoint K-convexity, slope, log-Sobolev, density bounds."""

import math

import numpy as np
import pytest

from wasserlim import (
    DiscreteMeasure,
    cd_midpoint_check,
    descending_slope,
    displacement_path,
    dyadic_interval_space,
    estimate_k,
    graph_metric,
    log_sobolev_check,
    rajala_bound_check,
    relative_entropy,
    validate_metric,
    wasserstein_p,
)
from wasserlim import curvature
from wasserlim.curvature import random_density_pair
from wasserlim.errors import (
    AbsoluteContinuityFailure,
    InfiniteEntropy,
    NonpositiveK,
    NoValidPairs,
    SpaceMismatch,
)
from conftest import euclidean_space, random_measure, seeded


def bump_pair(space):
    """Two smooth positive densities against the uniform reference."""
    lam = DiscreteMeasure.uniform(space)
    x = np.linspace(0.0, 1.0, space.n_points)
    f0 = 1.0 + 0.8 * np.cos(2 * np.pi * x)
    f1 = 1.0 + 0.8 * np.sin(np.pi * x)
    nu0 = DiscreteMeasure(space, f0 * lam.weights)
    nu1 = DiscreteMeasure(space, f1 * lam.weights)
    return lam, nu0, nu1


class TestRelativeEntropy:
    def test_reference_against_itself_is_zero(self, path5):
        lam = DiscreteMeasure(path5, np.array([0.1, 0.2, 0.3, 0.4, 0.0]))
        assert relative_entropy(lam, lam) == 0.0

    def test_dirac_against_uniform(self, path5):
        lam = DiscreteMeasure.uniform(path5)
        nu = DiscreteMeasure.dirac(path5, 3)
        assert relative_entropy(nu, lam) == pytest.approx(math.log(5), abs=1e-12)

    def test_mass_off_reference_support(self, path3):
        lam = DiscreteMeasure(path3, np.array([0.5, 0.5, 0.0]))
        nu = DiscreteMeasure.dirac(path3, 2)
        assert relative_entropy(nu, lam) == math.inf

    def test_gibbs_nonnegativity(self):
        rng = seeded(40)
        for _ in range(25):
            space = euclidean_space(rng, int(rng.integers(2, 8)))
            lam = DiscreteMeasure.uniform(space)
            nu = random_measure(rng, space)
            h = relative_entropy(nu, lam)
            assert h >= 0.0
            if h <= 1e-12:
                assert np.allclose(nu.weights, lam.weights, atol=1e-9)

    def test_convex_under_mixtures(self):
        rng = seeded(41)
        for _ in range(15):
            space = euclidean_space(rng, int(rng.integers(2, 8)))
            lam = DiscreteMeasure.uniform(space)
            nu_a, nu_b = random_measure(rng, space), random_measure(rng, space)
            t = float(rng.uniform(0.0, 1.0))
            mix = DiscreteMeasure(
                space, t * nu_a.weights + (1 - t) * nu_b.weights
            )
            bound = t * relative_entropy(nu_a, lam) + (1 - t) * relative_entropy(
                nu_b, lam
            )
            assert relative_entropy(mix, lam) <= bound + 1e-12

    def test_conventions_agree_on_probability_pairs(self):
        """The phi form equals the plain sum of lam * f log f."""
        rng = seeded(42)
        space = euclidean_space(rng, 6)
        lam = DiscreteMeasure.uniform(space)
        nu = random_measure(rng, space, atoms=6)
        plain = sum(
            ref * (mass / ref) * math.log(mass / ref)
            for mass, ref in zip(nu.weights, lam.weights) if mass > 0
        )
        assert relative_entropy(nu, lam) == pytest.approx(plain, abs=1e-12)

    def test_space_mismatch(self, path3, path5):
        with pytest.raises(SpaceMismatch):
            relative_entropy(
                DiscreteMeasure.uniform(path3), DiscreteMeasure.uniform(path5)
            )


class TestCdMidpointCheck:
    def test_reference_pair_holds_every_k(self, path5):
        lam = DiscreteMeasure.uniform(path5)
        for k in (-100.0, 0.0, 100.0):
            check = cd_midpoint_check(lam, lam, lam, k)
            assert check.holds
            assert check.slack == 0.0

    def test_very_negative_k_dominates(self, path5):
        lam = DiscreteMeasure.uniform(path5)
        nu0 = DiscreteMeasure(path5, np.array([0.6, 0.1, 0.1, 0.1, 0.1]))
        nu1 = DiscreteMeasure(path5, np.array([0.1, 0.1, 0.1, 0.1, 0.6]))
        check = cd_midpoint_check(nu0, nu1, lam, -1e6)
        assert check.holds
        assert check.slack > 1.0

    def test_flat_bumps_hold_at_zero(self):
        lam, nu0, nu1 = bump_pair(dyadic_interval_space(4))
        check = cd_midpoint_check(nu0, nu1, lam, 0.0)
        assert check.holds
        assert check.slack > 0.0

    def test_monotone_in_k(self):
        rng = seeded(43)
        space = dyadic_interval_space(3)
        lam = DiscreteMeasure.uniform(space)
        nu0, nu1 = random_density_pair(lam, rng)
        slacks = [cd_midpoint_check(nu0, nu1, lam, k).slack for k in (2.0, 0.0, -4.0)]
        assert slacks[0] <= slacks[1] <= slacks[2]

    def test_infinite_endpoint_entropy(self, path3):
        lam = DiscreteMeasure(path3, np.array([0.5, 0.5, 0.0]))
        nu = DiscreteMeasure.dirac(path3, 2)
        with pytest.raises(InfiniteEntropy):
            cd_midpoint_check(nu, lam, lam, 0.0)

    def test_tie_interpolates_each_coupling_once(self, monkeypatch):
        # 4-cycle: both matchings of {0,2} onto {1,3} are optimal, and no
        # midpoint meets k = 1e6, so the primary and its one alternate are
        # each interpolated exactly once.
        space = graph_metric(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        lam = DiscreteMeasure.uniform(space)
        nu0 = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5, 0.0]))
        nu1 = DiscreteMeasure(space, np.array([0.0, 0.5, 0.0, 0.5]))
        calls = []
        real = curvature.interpolate_coupling

        def counting(coupling, t):
            calls.append(t)
            return real(coupling, t)

        monkeypatch.setattr(curvature, "interpolate_coupling", counting)
        check = cd_midpoint_check(nu0, nu1, lam, 1e6)
        assert calls == [0.5, 0.5]
        assert check.holds is False
        assert type(check.slack) is float


class TestEstimateK:
    def test_singleton_reference_all_degenerate(self):
        space = validate_metric(np.zeros((1, 1)))
        lam = DiscreteMeasure.uniform(space)
        with pytest.raises(NoValidPairs):
            estimate_k(lam, 5, seed=0)

    def test_two_point_reproducible(self):
        space = graph_metric(2, [(0, 1, 1.0)])
        lam = DiscreteMeasure.uniform(space)
        first = estimate_k(lam, 6, seed=11)
        second = estimate_k(lam, 6, seed=11)
        assert first.values == second.values
        assert first.k_witnessed == second.k_witnessed
        assert math.isfinite(first.k_witnessed)

    def test_report_shape(self):
        space = dyadic_interval_space(3)
        lam = DiscreteMeasure.uniform(space)
        report = estimate_k(lam, 8, seed=5)
        assert report.pairs_tested + report.skipped == 8
        assert report.k_witnessed == min(report.values)
        nu0, nu1, mid, h_mid, rhs = report.worst_pair
        # at k_witnessed the binding pair sits on the boundary
        assert h_mid == pytest.approx(rhs, abs=1e-9)
        for m in (nu0, nu1, mid):
            assert abs(m.weights.sum() - 1.0) <= 1e-12

    def test_zero_pairs_rejected(self, two_point):
        lam = DiscreteMeasure.uniform(two_point)
        with pytest.raises(ValueError):
            estimate_k(lam, 0, seed=1)

    def test_relabeling_leaves_witness_value_unchanged(self):
        # transport space, reference and pair through a permutation; the
        # witnessed value for the pair survives (up to summation order
        # inside the entropy dot products)
        rng = seeded(18)
        space = dyadic_interval_space(3)
        lam = DiscreteMeasure.uniform(space)
        nu0, nu1 = random_density_pair(lam, rng)
        perm = rng.permutation(space.n_points)
        inverse = np.argsort(perm)
        edges = [
            (int(inverse[u]), int(inverse[v]), w)
            for u, v, w in space.geodesic_structure
        ]
        new_space = graph_metric(space.n_points, edges)

        def moved(m):
            return DiscreteMeasure(new_space, m.weights[perm])

        def witness(a, b, ref):
            cost, _ = wasserstein_p(a, b, 2)
            return 8.0 * cd_midpoint_check(a, b, ref, 0.0).slack / cost**2

        original = witness(nu0, nu1, lam)
        relabeled = witness(moved(nu0), moved(nu1), moved(lam))
        assert relabeled == pytest.approx(original, abs=1e-9)


class TestDescendingSlope:
    def test_constant_function(self, path5):
        f = np.full(5, 3.7)
        for x in range(5):
            assert descending_slope(f, path5, x) == 0.0

    def test_two_point_hand_case(self):
        space = validate_metric(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert descending_slope([1.0, 0.0], space, 0) == pytest.approx(0.5)
        assert descending_slope([1.0, 0.0], space, 1) == 0.0

    def test_singleton(self):
        space = validate_metric(np.zeros((1, 1)))
        assert descending_slope([4.2], space, 0) == 0.0

    def test_graph_metric_restricts_to_neighbors(self, path3):
        # all-points reading would see (1 - 0)/2 = 0.5 from vertex 0
        assert descending_slope([0.0, 5.0, 1.0], path3, 2) == 0.0

    def test_bare_matrix_uses_all_points(self):
        space = validate_metric(
            np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        )
        assert descending_slope([1.0, 1.0, 0.0], space, 0) == pytest.approx(0.5)

    def test_wrong_shape(self, path3):
        with pytest.raises(ValueError):
            descending_slope([1.0, 2.0], path3, 0)

    @pytest.mark.parametrize("x", [-1, 3])
    def test_point_out_of_range(self, path3, x):
        # Not 0.0, which the edge scan used to answer on graph metrics.
        with pytest.raises(ValueError, match="out of range"):
            descending_slope([0.0, 1.0, 2.0], path3, x)


def reference_descending_slope(f, space, x):
    """descending_slope as it was: one scan of the edge list per point."""
    if space.geodesic_structure is not None:
        others = sorted(
            {v for u, v, _ in space.geodesic_structure if u == x}
            | {u for u, v, _ in space.geodesic_structure if v == x}
        )
    else:
        others = [y for y in range(space.n_points) if y != x]
    slope = 0.0
    for y in others:
        d = space.dist[x, y]
        if d > 0:
            slope = max(slope, max(f[x] - f[y], 0.0) / d)
    return slope


def reference_fisher_rhs(nu, lam, k):
    f = np.zeros(nu.space.n_points)
    sup = lam.support
    f[sup] = nu.weights[sup] / lam.weights[sup]
    fisher = 0.0
    for j in sup:
        if f[j] > 0:
            fisher += lam.weights[j] * reference_descending_slope(f, lam.space, int(j)) ** 2 / f[j]
    return float(fisher / (2.0 * k))


def slope_spaces():
    """Graph metrics, whose edge lists keep parallel edges, and bare metric
    matrices."""
    rng = seeded(48)
    out = [dyadic_interval_space(3)]
    for _ in range(6):
        n = int(rng.integers(2, 12))
        edges = [(j, j + 1, float(rng.integers(1, 4))) for j in range(n - 1)]
        edges += [(int(a), int(b), float(rng.integers(1, 4)))
                  for a, b in rng.integers(0, n, size=(n, 2))]
        out.append(graph_metric(n, edges))
        out.append(euclidean_space(rng, n))
    return out, rng


class TestSlopesAgainstReference:
    def test_every_point(self):
        spaces, rng = slope_spaces()
        for space in spaces:
            for trial in range(6):
                # Generic values, ties and zero drops, then NaN and -0.0
                # entries, which the old max() chain passed over.
                f = (rng.integers(0, 3, space.n_points).astype(float) if trial % 2
                     else rng.uniform(0.0, 2.0, space.n_points))
                if trial >= 4:
                    f[rng.random(space.n_points) < 0.3] = -0.0
                    f[rng.integers(space.n_points)] = np.nan
                slopes = curvature._descending_slopes(f, space)
                for x in space.points:
                    expected = float(reference_descending_slope(f, space, x)).hex()
                    assert float(slopes[x]).hex() == expected
                    assert descending_slope(f, space, x).hex() == expected

    def test_log_sobolev_rhs(self):
        spaces, rng = slope_spaces()
        for space in spaces:
            lam = random_measure(rng, space)
            for _ in range(3):
                nu = random_measure(rng, space)
                nu = DiscreteMeasure(space, np.where(lam.weights > 0, nu.weights, 0.0)
                                     + lam.weights)
                check = log_sobolev_check(nu, lam, 0.7)
                assert check.rhs.hex() == reference_fisher_rhs(nu, lam, 0.7).hex()


class TestLogSobolev:
    def test_reference_pair(self, path5):
        lam = DiscreteMeasure.uniform(path5)
        check = log_sobolev_check(lam, lam, 1.0)
        assert check == (True, 0.0, 0.0)

    def test_singleton(self):
        space = validate_metric(np.zeros((1, 1)))
        lam = DiscreteMeasure.uniform(space)
        assert log_sobolev_check(lam, lam, 2.0) == (True, 0.0, 0.0)

    def test_two_point_hand_sums(self, two_point):
        # unit distance keeps the hand sums short; the shared fixture has d=3
        space = validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lam = DiscreteMeasure.uniform(space)
        nu = DiscreteMeasure(space, np.array([0.9, 0.1]))
        check = log_sobolev_check(nu, lam, 1.0)
        lhs = 0.5 * (1.8 * math.log(1.8) + 0.2 * math.log(0.2))
        rhs = (0.5 * 1.6**2 / 1.8) / 2.0
        assert check.lhs == pytest.approx(lhs, abs=1e-12)
        assert check.rhs == pytest.approx(rhs, abs=1e-12)
        # discrete slope loses against the entropy here; recorded, not a bug
        assert check.holds is False
        assert type(check.lhs) is float and type(check.rhs) is float

    def test_nonpositive_k(self, path3):
        lam = DiscreteMeasure.uniform(path3)
        with pytest.raises(NonpositiveK):
            log_sobolev_check(lam, lam, 0.0)

    @pytest.mark.parametrize("k", [-1.0, math.nan])
    def test_k_must_be_positive(self, path3, k):
        # NaN passes a `k <= 0` guard.
        lam = DiscreteMeasure.uniform(path3)
        with pytest.raises(NonpositiveK):
            log_sobolev_check(DiscreteMeasure.dirac(path3, 0), lam, k)


class TestRajalaBound:
    def test_reference_to_itself(self):
        space = dyadic_interval_space(3)
        lam = DiscreteMeasure.uniform(space)
        path = displacement_path(lam, lam, grid=(0.0, 0.5, 1.0))
        check = rajala_bound_check(path, lam, 0.0)
        assert check.holds
        assert check.max_density == pytest.approx(1.0)
        assert check.bound == pytest.approx(2.0)

    def test_nonnegative_k_drops_the_exponent(self):
        space = dyadic_interval_space(3)
        lam, nu0, nu1 = bump_pair(space)
        path = displacement_path(nu0, nu1, grid=(0.0, 0.5, 1.0))
        zero = rajala_bound_check(path, lam, 0.0)
        positive = rajala_bound_check(path, lam, 5.0)
        sup_sum = max(_density(nu0, lam)) + max(_density(nu1, lam))
        assert zero.bound == pytest.approx(sup_sum, abs=1e-12)
        assert positive.bound == zero.bound

    def test_negative_k_inflates_by_hand_factor(self):
        space = dyadic_interval_space(3)
        lam, nu0, nu1 = bump_pair(space)
        path = displacement_path(nu0, nu1, grid=(0.0, 0.5, 1.0))
        base = rajala_bound_check(path, lam, 0.0)
        inflated = rajala_bound_check(path, lam, -6.0)
        union = sorted(set(nu0.support) | set(nu1.support))
        d = max(space.dist[i, j] for i in union for j in union)
        assert inflated.bound == pytest.approx(base.bound * math.exp(6 * d**2 / 12))

    def test_bump_midpoint_within_bound(self):
        space = dyadic_interval_space(4)
        lam, nu0, nu1 = bump_pair(space)
        path = displacement_path(nu0, nu1, grid=(0.0, 0.25, 0.5, 0.75, 1.0))
        check = rajala_bound_check(path, lam, 0.0)
        assert check.holds
        assert check.max_density <= check.bound + 1e-6

    def test_interior_leak_raises(self, path3):
        lam = DiscreteMeasure(path3, np.array([0.5, 0.0, 0.5]))
        path = displacement_path(
            DiscreteMeasure.dirac(path3, 0), DiscreteMeasure.dirac(path3, 2)
        )
        with pytest.raises(AbsoluteContinuityFailure):
            rajala_bound_check(path, lam, 0.0)


def _density(nu, lam):
    sup = lam.support
    return nu.weights[sup] / lam.weights[sup]
