"""Measures, densities, truncation, sampling, quantization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wasserlim import (
    DiscreteMeasure,
    dyadic_interval_space,
    empirical_sample,
    normalize_density,
    pth_moment,
    relative_entropy,
    total_variation,
    truncate_density,
    uniform_quantization,
    validate_metric,
    wasserstein_p,
)
from wasserlim.errors import (
    EmptyTruncation,
    QuantizationBudgetExceeded,
    SpaceMismatch,
    ZeroMass,
)
from wasserlim.measures import Density, quantize_at
from conftest import euclidean_space, random_measure, seeded


class TestDiscreteMeasure:
    def test_renormalizes_and_records_defect(self, two_point):
        mu = DiscreteMeasure(two_point, np.array([2.0, 2.0]))
        assert mu.weights.tolist() == [0.5, 0.5]
        assert mu.normalization_defect == pytest.approx(3.0)

    def test_zero_mass_rejected(self, two_point):
        with pytest.raises(ValueError):
            DiscreteMeasure(two_point, np.array([0.0, 0.0]))

    def test_negative_weight_rejected(self, two_point):
        with pytest.raises(ValueError):
            DiscreteMeasure(two_point, np.array([1.5, -0.5]))

    @pytest.mark.parametrize("weights, message", [
        ([1.0], r"weights: expected 2 entries, got shape \(1,\)"),
        ([1.0, np.nan], "weights: entries must be finite"),
        ([1.0, np.inf], "weights: entries must be finite"),
    ], ids=["short", "nan", "inf"])
    def test_malformed_weights_rejected(self, two_point, weights, message):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(two_point, weights)

    def test_dirac_and_uniform(self, path5):
        assert DiscreteMeasure.dirac(path5, 3).support.tolist() == [3]
        assert DiscreteMeasure.uniform(path5).weights.tolist() == [0.2] * 5

    @pytest.mark.parametrize("bad", [-1, 3, np.int64(-1), 1.5, np.float64(1.0), True],
                             ids=["minus1", "n", "np_int64", "half", "np_float64", "bool"])
    def test_dirac_outside_the_space_refused(self, path3, bad):
        # Without the check numpy wraps -1 round to point 2.
        with pytest.raises(ValueError, match=f"vertex {bad} is not a point"):
            DiscreteMeasure.dirac(path3, bad)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=50)
    def test_weights_always_sum_to_one(self, seed):
        rng = seeded(10, seed)
        space = euclidean_space(rng, int(rng.integers(2, 10)))
        mu = random_measure(rng, space)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12
        assert mu.support.size > 0


class TestPthMoment:
    def test_dirac_at_base(self, two_point):
        assert pth_moment(DiscreteMeasure.dirac(two_point, 0), 2.0) == 0.0

    def test_dirac_at_distance_two(self):
        space = validate_metric(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert pth_moment(DiscreteMeasure.dirac(space, 1), 2.0) == 4.0

    def test_uniform_endpoints(self):
        space = dyadic_interval_space(0)
        assert pth_moment(DiscreteMeasure.uniform(space), 2.0) == 0.5


class TestTotalVariation:
    def test_identical(self, path5):
        mu = DiscreteMeasure.uniform(path5)
        assert total_variation(mu, mu) == 0.0

    def test_disjoint_supports(self, path5):
        assert total_variation(
            DiscreteMeasure.dirac(path5, 0), DiscreteMeasure.dirac(path5, 4)
        ) == 1.0

    def test_hand_value(self, two_point):
        mu = DiscreteMeasure(two_point, np.array([0.5, 0.5]))
        nu = DiscreteMeasure(two_point, np.array([0.75, 0.25]))
        assert total_variation(mu, nu) == pytest.approx(0.25)

    def test_space_mismatch(self, two_point, path5):
        with pytest.raises(SpaceMismatch):
            total_variation(
                DiscreteMeasure.uniform(two_point), DiscreteMeasure.uniform(path5)
            )

    def test_metric_properties(self):
        rng = seeded(11)
        space = euclidean_space(rng, 8)
        ms = [random_measure(rng, space) for _ in range(6)]
        for a in ms:
            for b in ms:
                tv = total_variation(a, b)
                assert 0.0 <= tv <= 1.0
                assert tv == total_variation(b, a)
            for b in ms:
                for c in ms:
                    assert total_variation(a, c) <= (
                        total_variation(a, b) + total_variation(b, c) + 1e-12
                    )


class TestEmpiricalSample:
    def test_dirac_sampling_is_identity(self, path5):
        mu = DiscreteMeasure.dirac(path5, 2)
        emp = empirical_sample(mu, 17, rng_seed=5)
        assert np.array_equal(emp.weights, mu.weights)

    def test_single_draw_lands_in_support(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.0, 0.4, 0.0, 0.6, 0.0]))
        emp = empirical_sample(mu, 1, rng_seed=9)
        assert emp.support.size == 1
        assert emp.support[0] in mu.support

    def test_needs_a_draw(self, path5):
        with pytest.raises(ValueError, match="n must be >= 1"):
            empirical_sample(DiscreteMeasure.uniform(path5), 0, rng_seed=1)

    def test_seed_determinism(self, path5):
        mu = DiscreteMeasure.uniform(path5)
        a = empirical_sample(mu, 100, rng_seed=3)
        b = empirical_sample(mu, 100, rng_seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_median_error_shrinks_with_n(self):
        rng = seeded(12)
        space = euclidean_space(rng, 6, scale=2.0)
        mu = random_measure(rng, space, atoms=6)
        medians = []
        for n in (8, 64, 512):
            errs = [
                wasserstein_p(empirical_sample(mu, n, rng_seed=s), mu, 1.0)[0]
                for s in range(30)
            ]
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]


class TestDensity:
    def test_from_measure_roundtrip(self, path5):
        lam = DiscreteMeasure.uniform(path5)
        nu = DiscreteMeasure(path5, np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
        f = Density.from_measure(nu, lam)
        assert np.allclose(f.measure().weights, nu.weights)
        assert f.normalized

    def test_mass_off_reference_rejected(self, path5):
        lam = DiscreteMeasure(path5, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        nu = DiscreteMeasure.dirac(path5, 4)
        with pytest.raises(ValueError):
            Density.from_measure(nu, lam)

    def test_truncate_hand_example(self, two_point):
        lam = DiscreteMeasure(two_point, np.array([0.5, 0.5]))
        f = Density.create(lam, np.array([2.0, 0.5]))
        cut = truncate_density(f, 1.0, {0, 1})
        assert cut.values.tolist() == [1.0, 0.5]
        assert cut.mass == pytest.approx(0.75)
        normed = normalize_density(cut)
        assert np.allclose(normed.values, [4 / 3, 2 / 3])
        assert normed.normalized

    def test_truncate_above_max_is_identity(self, two_point):
        lam = DiscreteMeasure(two_point, np.array([0.5, 0.5]))
        f = Density.create(lam, np.array([1.5, 0.5]))
        cut = truncate_density(f, 10.0, {0, 1})
        assert np.array_equal(cut.values, f.values)
        assert cut.mass == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [0.0, -1.0, np.nan])
    def test_height_must_be_positive(self, two_point, m):
        lam = DiscreteMeasure(two_point, np.array([0.5, 0.5]))
        f = Density.create(lam, np.array([1.5, 0.5]))
        with pytest.raises(ValueError, match="truncation height must be positive"):
            truncate_density(f, m, {0, 1})

    def test_empty_mask_rejected(self, two_point):
        lam = DiscreteMeasure(two_point, np.array([0.5, 0.5]))
        f = Density.create(lam, np.array([1.0, 1.0]))
        with pytest.raises(EmptyTruncation):
            truncate_density(f, 1.0, set())

    def test_mask_outside_support_rejected(self, path5):
        lam = DiscreteMeasure(path5, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        f = Density.create(lam, np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            truncate_density(f, 1.0, {0, 4})

    def test_normalize_zero_mass(self, two_point):
        lam = DiscreteMeasure(two_point, np.array([0.5, 0.5]))
        f = Density.create(lam, np.array([0.0, 0.0]))
        with pytest.raises(ZeroMass):
            normalize_density(f)

    def test_truncation_chain_converges(self):
        # doubling the cap drives both TV and entropy gaps to zero; once the
        # cap clears the max density the truncation is the identity
        rng = seeded(13)
        space = euclidean_space(rng, 9, scale=2.0)
        lam = DiscreteMeasure.uniform(space)
        values = rng.uniform(0.2, 6.0, size=9)
        nu = DiscreteMeasure(space, values * lam.weights)
        f = Density.from_measure(nu, lam)
        h_target = relative_entropy(nu, lam)
        mask = set(int(j) for j in lam.support)
        tv_gaps, h_gaps = [], []
        m = 1.0
        while m < 2.0 * f.sup_norm():
            approx = normalize_density(truncate_density(f, m, mask)).measure()
            tv_gaps.append(total_variation(approx, nu))
            h_gaps.append(abs(relative_entropy(approx, lam) - h_target))
            m *= 2.0
        assert all(a >= b - 1e-12 for a, b in zip(tv_gaps, tv_gaps[1:]))
        assert tv_gaps[-1] == 0.0
        assert h_gaps[-1] <= 1e-12


class TestQuantization:
    def test_uniform_cloud_fixed_point(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        res = uniform_quantization(mu, delta=5.0, p=1.0)
        assert res.error == 0.0
        assert np.array_equal(res.cloud.weights, mu.weights)

    def test_dirac_needs_one_atom(self, path5):
        mu = DiscreteMeasure.dirac(path5, 1)
        res = uniform_quantization(mu, delta=0.001, p=2.0)
        assert res.error == 0.0
        assert res.n_atoms == 1
        assert res.cloud.support.tolist() == [1]

    def test_three_quarters_split(self):
        space = validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        mu = DiscreteMeasure(space, np.array([0.75, 0.25]))
        res = uniform_quantization(mu, delta=0.01, p=1.0)
        assert res.error == 0.0
        assert res.n_atoms == 4
        assert np.array_equal(res.cloud.weights, mu.weights)

    def test_error_bound_honored(self):
        rng = seeded(14)
        for _ in range(10):
            space = euclidean_space(rng, int(rng.integers(2, 8)))
            mu = random_measure(rng, space)
            delta = float(rng.uniform(0.05, 0.5))
            res = uniform_quantization(mu, delta, p=2.0)
            assert res.error <= delta
            assert wasserstein_p(res.cloud, mu, 2.0)[0] == pytest.approx(res.error, abs=1e-12)
            # every weight an integer multiple of the smallest one (1/N grid)
            w = res.cloud.weights[res.cloud.support]
            assert np.allclose(w * res.n_atoms, np.round(w * res.n_atoms))

    def test_budget_exceeded(self):
        space = validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        mu = DiscreteMeasure(space, np.array([1 / np.sqrt(2), 1 - 1 / np.sqrt(2)]))
        with pytest.raises(QuantizationBudgetExceeded):
            uniform_quantization(mu, delta=1e-12, p=1.0)

    @pytest.mark.parametrize("p", [0.5, np.nan, np.inf])
    def test_p_checked_on_uniform_input(self, path5, p):
        # A uniform measure returns before any solve, so the solver's own
        # check on p never runs.
        with pytest.raises(ValueError, match="p must be a finite number >= 1"):
            uniform_quantization(DiscreteMeasure.uniform(path5), 0.1, p)

    @pytest.mark.parametrize("delta", [0.0, -0.5, np.nan])
    def test_delta_must_be_positive(self, path5, delta):
        # NaN passes a `delta <= 0` guard.
        mu = DiscreteMeasure(path5, np.array([0.5, 0.25, 0.25, 0.0, 0.0]))
        with pytest.raises(ValueError, match="delta must be positive"):
            uniform_quantization(mu, delta, p=2.0)

    @pytest.mark.parametrize("n_atoms", [0, -3])
    def test_quantize_at_needs_an_atom(self, two_point, n_atoms):
        # With n_atoms = 0 the rounding divides 0 by 0.
        mu = DiscreteMeasure(two_point, np.array([0.7, 0.3]))
        with pytest.raises(ValueError, match="n_atoms must be >= 1"):
            quantize_at(mu, n_atoms, 1.0)

    def test_quantize_at_returns_cloud_and_error(self, two_point):
        mu = DiscreteMeasure(two_point, np.array([0.7, 0.3]))
        cloud, err = quantize_at(mu, 10, 1.0)
        assert np.array_equal(cloud.weights, mu.weights)
        assert err == 0.0
