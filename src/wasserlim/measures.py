"""Discrete probability measures and densities on finite metric spaces.

Weights live in 64-bit floats and are renormalized on construction; the
pre-normalization defect is kept for diagnostics. Densities are stored
relative to an explicit reference measure, with values forced to zero off
the reference support so absolute continuity holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._util import as_weight_vector, check_p, make_rng
from .errors import (
    EmptyTruncation,
    QuantizationBudgetExceeded,
    SpaceMismatch,
    ZeroMass,
)
from .spaces import FiniteMetricSpace, covering_number, same_space

#: Hard cap on uniform-cloud atom counts.
ATOM_CAP = 10**6

#: Construction renormalizes weight sums to 1 within this tolerance.
WEIGHT_TOL = 1e-12


class DiscreteMeasure:
    """A finitely supported probability measure on a FiniteMetricSpace."""

    def __init__(self, space: FiniteMetricSpace, weights):
        w = as_weight_vector(weights, space.n_points, "weights")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("measure needs positive total mass")
        self.space = space
        self.normalization_defect = abs(total - 1.0)
        self._w = w / total
        self._w.setflags(write=False)

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def support(self) -> np.ndarray:
        """Indices with strictly positive weight, ascending."""
        return np.flatnonzero(self._w)

    @classmethod
    def dirac(cls, space: FiniteMetricSpace, point: int) -> "DiscreteMeasure":
        space._check_vertex(point)
        w = np.zeros(space.n_points)
        w[point] = 1.0
        return cls(space, w)

    @classmethod
    def uniform(cls, space: FiniteMetricSpace) -> "DiscreteMeasure":
        return cls(space, np.full(space.n_points, 1.0 / space.n_points))

    def __repr__(self) -> str:
        return (
            f"DiscreteMeasure(n={self.space.n_points}, "
            f"support={len(self.support)})"
        )


@dataclass(frozen=True)
class Density:
    """Nonnegative values relative to a reference measure.

    ``values[j]`` is meaningful only where the reference has mass; other
    entries are stored as zero. ``mass`` is the induced total, and
    ``normalized`` says whether the induced measure is a probability
    measure. Truncation produces unnormalized densities on purpose.
    """

    base: DiscreteMeasure
    values: np.ndarray
    mass: float
    normalized: bool

    @classmethod
    def create(cls, base: DiscreteMeasure, values) -> "Density":
        f = as_weight_vector(values, base.space.n_points, "density values")
        f = np.where(base.weights > 0, f, 0.0)
        f.setflags(write=False)
        mass = float(f @ base.weights)
        return cls(base, f, mass, abs(mass - 1.0) <= WEIGHT_TOL)

    @classmethod
    def from_measure(cls, nu: DiscreteMeasure, lam: DiscreteMeasure) -> "Density":
        """dnu/dlam; raises ValueError if nu has mass off supp(lam)."""
        if not same_space(nu.space, lam.space):
            raise SpaceMismatch("density endpoints live on different spaces")
        off = (nu.weights > 0) & (lam.weights == 0)
        if np.any(off):
            j = int(np.argmax(off))
            raise ValueError(f"measure has mass at point {j} where reference is 0")
        f = np.zeros(lam.space.n_points)
        on = lam.weights > 0
        f[on] = nu.weights[on] / lam.weights[on]
        return cls.create(lam, f)

    def measure(self) -> DiscreteMeasure:
        """The induced measure (renormalized if mass differs from 1)."""
        return DiscreteMeasure(self.base.space, self.values * self.base.weights)

    def sup_norm(self) -> float:
        return float(self.values.max(initial=0.0))


def pth_moment(mu: DiscreteMeasure, p: float) -> float:
    """Sum of w_j d(e, x_j)^p about the space's base point."""
    check_p(p)
    d = mu.space.dist[mu.space.base_point]
    return float(mu.weights @ d**p)


def total_variation(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Half the l1 distance between weight vectors; in [0, 1]."""
    if not same_space(mu.space, nu.space):
        raise SpaceMismatch("total variation needs a shared space")
    return 0.5 * float(np.abs(mu.weights - nu.weights).sum())


def empirical_sample(mu: DiscreteMeasure, n: int, rng_seed: int) -> DiscreteMeasure:
    """(1/n) sum of n i.i.d. atoms drawn from mu; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(rng_seed)
    draws = rng.choice(mu.space.n_points, size=n, p=mu.weights)
    counts = np.bincount(draws, minlength=mu.space.n_points)
    return DiscreteMeasure(mu.space, counts / n)


def truncate_density(f: Density, m: float, mask: Sequence[int]) -> Density:
    """Cut the density at height m and restrict it to ``mask``.

    The result is unnormalized; its mass is reported on the Density. The
    mask must lie inside the reference support.
    """
    if not (m > 0):
        raise ValueError("truncation height must be positive")
    lam = f.base
    mask_idx = sorted(set(int(i) for i in mask))
    support = set(int(i) for i in lam.support)
    stray = [i for i in mask_idx if i not in support]
    if stray:
        raise ValueError(f"mask point {stray[0]} is outside the reference support")
    vals = np.zeros(lam.space.n_points)
    if mask_idx:
        idx = np.asarray(mask_idx, dtype=np.intp)
        vals[idx] = np.minimum(m, f.values[idx])
    out = Density.create(lam, vals)
    if out.mass <= 0.0:
        raise EmptyTruncation(f"truncation at height {m:g} kept no mass")
    return out


def normalize_density(f: Density) -> Density:
    """Scale a density to unit induced mass."""
    if f.mass <= 0.0:
        raise ZeroMass("cannot normalize a zero-mass density")
    if f.normalized:
        return f
    return Density.create(f.base, f.values / f.mass)


class QuantizationResult(NamedTuple):
    cloud: DiscreteMeasure
    error: float
    n_atoms: int
    covering_budget: int


def quantize_at(mu: DiscreteMeasure, n_atoms: int, p: float) -> tuple[DiscreteMeasure, float]:
    """Round mu's weights to multiples of 1/n_atoms on the same support.

    Largest-remainder rounding: floor every scaled weight, then hand the
    leftover units to the largest fractional parts (ties to lowest index).
    Returns the cloud and its exact W_p distance to mu.
    """
    from .transport import wasserstein_p  # deferred: transport builds on measures

    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    scaled = mu.weights * n_atoms
    counts = np.floor(scaled).astype(np.int64)
    remainder = scaled - counts
    short = int(n_atoms - counts.sum())
    if short > 0:
        order = np.argsort(-remainder, kind="stable")
        counts[order[:short]] += 1
    cloud = DiscreteMeasure(mu.space, counts / n_atoms)
    err, _ = wasserstein_p(cloud, mu, p)
    return cloud, err


def uniform_quantization(mu: DiscreteMeasure, delta: float, p: float) -> QuantizationResult:
    """Uniform Dirac cloud within W_p distance delta of mu.

    Doubles the atom count until the exact transport error drops to delta,
    starting from a single atom. The greedy covering number at scale delta
    is reported alongside as the theoretical budget; the doubling search is
    what actually chooses N.
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    check_p(p)
    budget = covering_number(mu.space, delta).k
    positive = mu.weights[mu.support]
    if np.ptp(positive) == 0.0:
        # already a uniform cloud; keep it rather than coarsen to a larger delta
        return QuantizationResult(mu, 0.0, len(positive), budget)
    n = 1
    while True:
        cloud, err = quantize_at(mu, n, p)
        if err <= delta:
            return QuantizationResult(cloud, err, n, budget)
        if n >= ATOM_CAP:
            raise QuantizationBudgetExceeded(
                f"no uniform cloud of at most {ATOM_CAP} atoms reaches "
                f"W_{p:g} error {delta:g} (best at N={n}: {err:g})"
            )
        n = min(2 * n, ATOM_CAP)
