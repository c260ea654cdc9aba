"""Sequence harness: stabilization rule, escaping mass, audits."""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from wasserlim import (
    DiscreteMeasure,
    SpaceSequence,
    density_family,
    dyadic_interval_space,
    dyadic_sequence,
    escaping_mass_family,
    escaping_mass_sequence,
    estimate_k,
    quantization_uniformity_audit,
    sequence_cd,
    sequence_total_variation,
    sequence_wasserstein,
    tail_verdict,
    total_variation,
    validate_metric,
    wasserstein_p,
)
from wasserlim.errors import FamilyLengthMismatch, QuantizationBudgetExceeded, SpaceMismatch
from conftest import seeded


def cosine_profile(r):
    return 1.0 + 0.8 * np.cos(2 * np.pi * r)


def sine_profile(r):
    return 1.0 + 0.8 * np.sin(np.pi * r)


class TestTailVerdict:
    def test_constant_sequence(self):
        verdict = tail_verdict("w2", [2.5] * 6, tol=1e-9)
        assert verdict.stabilized
        assert verdict.tail_start == 0
        assert verdict.limit_estimate == 2.5
        assert verdict.tail_min == 2.5

    @pytest.mark.parametrize("value", [-math.inf, math.inf])
    @pytest.mark.parametrize("length", [3, 4])
    def test_constant_infinite_sequence(self, value, length):
        verdict = tail_verdict("k", [value] * length, tol=1e-3)
        assert verdict.stabilized
        assert verdict.tail_start == 0
        assert verdict.limit_estimate == value

    def test_infinite_prefix_is_outside_a_finite_tail(self):
        verdict = tail_verdict("k", [-math.inf, 1.0, 1.0, 1.0], tol=0.5)
        assert verdict.stabilized
        assert verdict.tail_start == 1

    def test_alternating_values(self):
        verdict = tail_verdict("w2", [1.0, 2.0, 1.0, 2.0, 1.0, 2.0], tol=0.1)
        assert not verdict.stabilized

    def test_settling_sequence_reports_onset(self):
        verdict = tail_verdict("w2", [5.0, 1.0, 1.0, 1.0], tol=0.5)
        assert verdict.stabilized
        assert verdict.tail_start == 1
        assert verdict.limit_estimate == 1.0

    def test_tail_start_does_not_cross_a_jump(self):
        verdict = tail_verdict("w2", [8.0, 4.0, 2.0, 1.0, 1.0, 1.0], tol=0.5)
        assert verdict.stabilized
        assert verdict.tail_start == 3
        assert verdict.tail_min == 1.0

    def test_stabilized_invariant(self):
        rng = seeded(50)
        for _ in range(40):
            values = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 12)))
            tol = float(rng.uniform(0.05, 1.0))
            verdict = tail_verdict("q", values, tol)
            if verdict.stabilized:
                for v in verdict.values[verdict.tail_start :]:
                    assert abs(v - verdict.limit_estimate) <= tol

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            tail_verdict("q", [1.0], tol=0.0)
        with pytest.raises(ValueError):
            tail_verdict("q", [], tol=0.1)

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        # NaN passes a `tol <= 0` guard.
        with pytest.raises(ValueError, match="tolerance must be positive"):
            tail_verdict("q", [1.0, 1.0], tol=tol)


class TestSpaceSequence:
    @pytest.mark.parametrize("case, error, message", [
        ("empty", ValueError, "sequence needs at least one entry"),
        ("labels", ValueError, "one label per entry"),
        ("off-space", SpaceMismatch, "reference measure off its entry's space"),
    ])
    def test_malformed_sequence_rejected(self, path5, path3, case, error, message):
        entry = (path5, DiscreteMeasure.uniform(path5))
        entries, labels = {
            "empty": ((), ()),
            "labels": ((entry, entry), ("only",)),
            "off-space": (((path5, DiscreteMeasure.uniform(path3)),), ()),
        }[case]
        with pytest.raises(error, match=message):
            SpaceSequence(entries, labels)


class TestSequenceWasserstein:
    def test_constant_instance(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        nu = DiscreteMeasure(path5, np.array([0.0, 0.0, 0.0, 0.5, 0.5]))
        seq = SpaceSequence(tuple((path5, mu) for _ in range(4)))
        verdict = sequence_wasserstein(seq, [mu] * 4, [nu] * 4, 2.0, 1e-9)
        assert verdict.stabilized
        assert verdict.tail_start == 0
        assert verdict.limit_estimate == wasserstein_p(mu, nu, 2.0)[0]

    def test_dyadic_refinement_converges(self):
        seq = dyadic_sequence(range(2, 9))
        mu_family = density_family(seq, cosine_profile)
        nu_family = density_family(seq, sine_profile)
        verdict = sequence_wasserstein(seq, mu_family, nu_family, 2.0, 5e-3)
        gaps = [
            abs(b - a) for a, b in zip(verdict.values, verdict.values[1:])
        ]
        # refinement halves the discretization error per level
        for earlier, later in zip(gaps[1:], gaps[2:]):
            assert later <= earlier
        finest_mesh = seq.entries[-1][0].mesh()
        assert abs(verdict.limit_estimate - verdict.values[-1]) <= finest_mesh
        assert verdict.stabilized

    def test_alternating_pair_not_stabilized(self, path5):
        mu = DiscreteMeasure.dirac(path5, 0)
        near = DiscreteMeasure.dirac(path5, 1)
        far = DiscreteMeasure.dirac(path5, 4)
        seq = SpaceSequence(tuple((path5, mu) for _ in range(6)))
        nus = [near, far] * 3
        verdict = sequence_wasserstein(seq, [mu] * 6, nus, 2.0, 0.5)
        assert not verdict.stabilized

    def test_family_length_mismatch(self, path5):
        mu = DiscreteMeasure.uniform(path5)
        seq = SpaceSequence(((path5, mu),))
        with pytest.raises(FamilyLengthMismatch):
            sequence_wasserstein(seq, [mu, mu], [mu, mu], 2.0, 0.1)

    def test_family_off_space(self, path5, path3):
        mu5 = DiscreteMeasure.uniform(path5)
        mu3 = DiscreteMeasure.uniform(path3)
        seq = SpaceSequence(((path5, mu5),))
        with pytest.raises(SpaceMismatch):
            sequence_wasserstein(seq, [mu3], [mu3], 2.0, 0.1)


def line_wasserstein(xs, wx, ys, wy, p):
    """W_p between atomic measures on the real line, with atoms ``xs`` of
    integer masses ``wx`` and so on, by the quantile formula
    W_p^p = integral over t in (0, 1) of |F^-1(t) - G^-1(t)|^p. Both
    quantile functions are steps; their breakpoints are kept exact."""
    def steps(atoms, masses):
        order = np.argsort(atoms)
        total = sum(masses)
        return ([atoms[i] for i in order],
                list(accumulate(Fraction(int(masses[i]), int(total)) for i in order)))

    (qx, cx), (qy, cy) = steps(xs, wx), steps(ys, wy)
    i = j = 0
    t, acc = Fraction(0), 0.0
    while t < 1:
        nxt = min(cx[i], cy[j])
        acc += float(nxt - t) * abs(qx[i] - qy[j]) ** p
        t = nxt
        i += cx[i] == t
        j += cy[j] == t
    return acc ** (1 / p)


def grid_projection(space, level, atoms, masses):
    """The measure that moves each atom in [0, 1] to its nearest point of
    ``dyadic_interval_space(level)``, at most 2^-(level + 1) away."""
    w = np.zeros(space.n_points)
    np.add.at(w, np.rint(np.asarray(atoms) * 2**level).astype(int), masses)
    return DiscreteMeasure(space, w)


class TestFiniteShadowOfTheLimit:
    """On [0, 1] the embedding of P_p(X) into the limit of the P_p(X_l)
    has a finite shadow: projecting mu and nu onto the 2^-l grid moves
    each by at most 2^-(l + 1) in W_p, so W_p of the projections is within
    2^-l of W_p(mu, nu)."""

    LEVELS = range(2, 11)

    @pytest.fixture(scope="class")
    def seq(self):
        return dyadic_sequence(self.LEVELS)

    @staticmethod
    def pairs():
        rng = seeded(60)
        out = []
        for _ in range(6):
            k, k2 = rng.integers(1, 7, size=2)
            out.append((rng.uniform(0, 1, k), rng.integers(1, 6, k),
                        rng.uniform(0, 1, k2), rng.integers(1, 6, k2)))
        return out

    def test_projections_converge_to_the_line_value(self, seq):
        for xs, wx, ys, wy in self.pairs():
            for p in (1.0, 2.0):
                exact = line_wasserstein(xs, wx, ys, wy, p)
                for level, (space, _) in zip(self.LEVELS, seq.entries):
                    mu = grid_projection(space, level, xs, wx)
                    nu = grid_projection(space, level, ys, wy)
                    assert abs(wasserstein_p(mu, nu, p)[0] - exact) <= 2.0**-level

    def test_limit_estimate_is_within_the_tail_mesh(self, seq):
        for xs, wx, ys, wy in self.pairs():
            mus = [grid_projection(space, level, xs, wx)
                   for level, (space, _) in zip(self.LEVELS, seq.entries)]
            nus = [grid_projection(space, level, ys, wy)
                   for level, (space, _) in zip(self.LEVELS, seq.entries)]
            verdict = sequence_wasserstein(seq, mus, nus, 2.0, 2.0**-8)
            coarsest = self.LEVELS[verdict.tail_start]
            exact = line_wasserstein(xs, wx, ys, wy, 2.0)
            assert abs(verdict.limit_estimate - exact) <= 2.0**-coarsest


class TestEscapingMass:
    def test_displayed_small_case(self):
        _, nu_family = escaping_mass_family([4])
        nu = nu_family[0]
        assert nu.space.dist[0, 1] == 2.0
        assert nu.weights.tolist() == [0.75, 0.25]

    def test_w2_pinned_at_one(self):
        mu_family, nu_family = escaping_mass_family([4, 100, 10**4])
        for mu, nu in zip(mu_family, nu_family):
            assert wasserstein_p(mu, nu, 2.0)[0] == pytest.approx(1.0, abs=1e-9)

    def test_tv_vanishes(self):
        mu_family, nu_family = escaping_mass_family([4, 100, 10**4])
        for n, (mu, nu) in zip([4, 100, 10**4], zip(mu_family, nu_family)):
            assert total_variation(mu, nu) == pytest.approx(1.0 / n, abs=1e-15)

    def test_verdicts_split_by_tolerance(self):
        seq, mu_family, nu_family = escaping_mass_sequence([4, 10**4, 10**6])
        w2 = sequence_wasserstein(seq, mu_family, nu_family, 2.0, 1e-9)
        assert w2.stabilized
        assert w2.limit_estimate == pytest.approx(1.0, abs=1e-9)
        loose = sequence_total_variation(seq, mu_family, nu_family, 1e-3)
        assert loose.stabilized
        assert abs(loose.limit_estimate) <= 1e-3
        strict = sequence_total_variation(seq, mu_family, nu_family, 1e-7)
        assert not strict.stabilized

    def test_bad_n(self):
        with pytest.raises(ValueError):
            escaping_mass_family([4, 2.5])


class TestSequenceCd:
    def test_constant_entries_match_single_estimate(self):
        space = dyadic_interval_space(3)
        lam = DiscreteMeasure.uniform(space)
        seq = SpaceSequence(tuple((space, lam) for _ in range(3)))
        verdict = sequence_cd(seq, n_pairs=5, seed=9, tol=1e-9)
        single = estimate_k(lam, 5, seed=9).k_witnessed
        assert verdict.values == (single, single, single)
        assert verdict.stabilized
        assert verdict.tail_start == 0
        assert verdict.limit_estimate == single

    def test_single_entry_trivially_stabilized(self):
        space = dyadic_interval_space(2)
        lam = DiscreteMeasure.uniform(space)
        seq = SpaceSequence(((space, lam),))
        verdict = sequence_cd(seq, n_pairs=4, seed=3, tol=1.0)
        assert verdict.stabilized
        assert verdict.tail_min == verdict.values[0]

    def test_deterministic_across_runs(self):
        seq = dyadic_sequence([3, 4, 5])
        first = sequence_cd(seq, n_pairs=4, seed=2, tol=10.0)
        second = sequence_cd(seq, n_pairs=4, seed=2, tol=10.0)
        assert first.values == second.values


class TestQuantizationAudit:
    def test_constant_sequence_constant_n(self, path5):
        lam = DiscreteMeasure(path5, np.array([0.5, 0.25, 0.25, 0.0, 0.0]))
        seq = SpaceSequence(tuple((path5, lam) for _ in range(3)))
        audit = quantization_uniformity_audit(seq, delta=0.05, p=2.0)
        sizes = {row.n_atoms for row in audit.rows}
        assert len(sizes) == 1
        assert audit.uniform_n == sizes.pop()
        assert audit.uniform_ok

    def test_dirac_family_needs_one_atom(self):
        spaces = [dyadic_interval_space(l) for l in (2, 3, 4)]
        entries = tuple(
            (s, DiscreteMeasure.dirac(s, s.n_points // 2)) for s in spaces
        )
        audit = quantization_uniformity_audit(SpaceSequence(entries), 0.01, 2.0)
        assert audit.uniform_n == 1
        assert all(row.error == 0.0 for row in audit.rows)

    def test_dyadic_family_uniformly_bounded(self):
        seq = dyadic_sequence([2, 3, 4, 5])
        audit = quantization_uniformity_audit(seq, delta=0.1, p=2.0)
        assert audit.uniform_ok
        for row in audit.rows:
            assert row.error <= 0.1
            assert row.n_atoms <= audit.uniform_n

    def test_bad_delta(self, path3):
        seq = SpaceSequence(((path3, DiscreteMeasure.uniform(path3)),))
        with pytest.raises(ValueError):
            quantization_uniformity_audit(seq, delta=0.0, p=2.0)

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_delta_must_be_positive(self, path3, delta):
        lam = DiscreteMeasure(path3, np.array([0.5, 0.25, 0.25]))
        seq = SpaceSequence(((path3, lam),))
        with pytest.raises(ValueError, match="delta must be positive"):
            quantization_uniformity_audit(seq, delta=delta, p=2.0)

    def test_budget_failure_propagates(self):
        space = validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lam = DiscreteMeasure(space, np.array([1 / math.sqrt(2), 1 - 1 / math.sqrt(2)]))
        seq = SpaceSequence(((space, lam),))
        with pytest.raises(QuantizationBudgetExceeded):
            quantization_uniformity_audit(seq, delta=1e-12, p=2.0)
