"""Relative entropy and midpoint-convexity curvature checks.

The central quantity is H(nu | lam) = sum lam_j * phi(f_j) with
f = dnu/dlam and phi(x) = x*log(x) - x + 1. For probability pairs this
equals the plain sum of f*log(f) terms exactly, and since phi >= 0
pointwise, nonnegativity of the entropy is automatic rather than a
cancellation accident. A K-convexity check at the midpoint, an estimator
for the largest witnessed K, a discrete descending slope, a log-Sobolev
check, and a sup-norm bound on interpolant densities complete the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import make_rng, ordered_map
from .errors import (
    AbsoluteContinuityFailure,
    InfiniteEntropy,
    NonpositiveK,
    NoValidPairs,
    SpaceMismatch,
)
from .geodesics import WassersteinPath, interpolate_coupling
from .measures import DiscreteMeasure
from .spaces import FiniteMetricSpace, diameter, same_space
from .transport import alternate_optimal_couplings, wasserstein_p

#: Default absolute tolerance on entropy comparisons.
ENTROPY_TOL = 1e-7

#: Pairs closer than this in W2 are skipped by estimate_k.
DEGENERATE_W2 = 1e-9


class CdCheck(NamedTuple):
    holds: bool
    slack: float


class LogSobolevCheck(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


class RajalaCheck(NamedTuple):
    holds: bool
    max_density: float
    bound: float


@dataclass(frozen=True)
class CurvatureReport:
    """Outcome of a K-witness search over sampled density pairs.

    ``k_witnessed`` is the largest K for which the midpoint inequality
    held on every tested pair; ``worst_pair`` is
    (nu0, nu1, midpoint, lhs, rhs) for the binding pair, with rhs
    evaluated at k_witnessed so lhs == rhs there up to rounding.
    """

    k_witnessed: float
    pairs_tested: int
    worst_pair: tuple
    tolerance: float
    values: tuple[float, ...]
    skipped: int


def relative_entropy(
    nu: DiscreteMeasure, lam: DiscreteMeasure, convention: str = "phi"
) -> float:
    """H(nu | lam); +inf when nu puts mass where lam has none.

    convention "phi" sums lam * (f log f - f + 1), "plain" sums
    lam * f log f. The two agree exactly for probability pairs; "phi"
    is the internal default because its terms are individually
    nonnegative.
    """
    if not same_space(nu.space, lam.space):
        raise SpaceMismatch("entropy needs both measures on one space")
    if convention not in ("phi", "plain"):
        raise ValueError(f"unknown entropy convention {convention!r}")
    zero_ref = lam.weights <= 0
    if np.any(nu.weights[zero_ref] > 0):
        return math.inf
    sup = lam.support
    lw = lam.weights[sup]
    f = nu.weights[sup] / lw
    xlogx = np.where(f > 0, f * np.log(np.where(f > 0, f, 1.0)), 0.0)
    if convention == "phi":
        return float(lw @ (xlogx - f + 1.0))
    return float(lw @ xlogx)


def _midpoint_candidates(coupling):
    """Primary displacement midpoint, then midpoints from alternate
    optimal couplings when the optimum is non-unique; the alternates are
    only searched once the primary midpoint has been consumed."""
    yield interpolate_coupling(coupling, 0.5)[0]
    for alternate in alternate_optimal_couplings(coupling):
        yield interpolate_coupling(alternate, 0.5)[0]


def cd_midpoint_check(
    nu0: DiscreteMeasure,
    nu1: DiscreteMeasure,
    lam: DiscreteMeasure,
    k: float,
    tol: float = ENTROPY_TOL,
) -> CdCheck:
    """Midpoint form of K-convexity of the entropy.

    Tests H(mid | lam) <= H0/2 + H1/2 - (k/8) W2(nu0, nu1)^2 + tol for
    the displacement midpoint. On failure, midpoints built from alternate
    optimal couplings are tried before reporting, since K-convexity only
    asks for *some* optimal geodesic; the reported slack is the best one
    found (rhs - lhs, positive when the inequality holds with margin).
    """
    h0 = relative_entropy(nu0, lam)
    h1 = relative_entropy(nu1, lam)
    if math.isinf(h0) or math.isinf(h1):
        raise InfiniteEntropy("endpoint entropy is infinite")
    cost, coupling = wasserstein_p(nu0, nu1, 2)
    rhs = 0.5 * h0 + 0.5 * h1 - (k / 8.0) * cost**2
    slack = -math.inf
    for mid in _midpoint_candidates(coupling):
        slack = max(slack, rhs - relative_entropy(mid, lam))
        if slack >= -tol:
            break
    return CdCheck(bool(slack >= -tol), float(slack))


def random_density_pair(
    lam: DiscreteMeasure, rng: np.random.Generator
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Two measures with bounded positive densities against lam.

    Densities are drawn uniformly from [0.25, 4] on supp(lam) before
    normalization, keeping entropies finite and interpolants absolutely
    continuous whenever lam has full support.
    """
    sup = lam.support
    out = []
    for _ in range(2):
        values = rng.uniform(0.25, 4.0, size=len(sup))
        w = np.zeros(lam.space.n_points)
        w[sup] = values * lam.weights[sup]
        out.append(DiscreteMeasure(lam.space, w))
    return out[0], out[1]


def estimate_k(
    lam: DiscreteMeasure,
    n_pairs: int,
    seed: int,
    tolerance: float = ENTROPY_TOL,
) -> CurvatureReport:
    """Largest K witnessed by midpoint convexity over sampled pairs.

    Pair k draws its densities from an independent stream keyed by
    (seed, k), so results are reproducible and pair sets with the same
    seed match across different reference measures. Each pair contributes
    8 * (H0/2 + H1/2 - H_mid) / W2^2, maximized over the available
    optimal midpoints; k_witnessed is the minimum over pairs. Pairs with
    W2 below 1e-9 carry no information and are skipped.
    """
    if n_pairs < 1:
        raise ValueError("need at least one pair")

    def one_pair(index: int):
        rng = make_rng(seed, index)
        nu0, nu1 = random_density_pair(lam, rng)
        cost, coupling = wasserstein_p(nu0, nu1, 2)
        if cost < DEGENERATE_W2:
            return None
        h0 = relative_entropy(nu0, lam)
        h1 = relative_entropy(nu1, lam)
        best_value = -math.inf
        best_mid = None
        best_h = math.inf
        for mid in _midpoint_candidates(coupling):
            h_mid = relative_entropy(mid, lam)
            value = 8.0 * (0.5 * h0 + 0.5 * h1 - h_mid) / cost**2
            # A midpoint of infinite entropy scores -inf; keep the first one.
            if best_mid is None or value > best_value:
                best_value, best_mid, best_h = value, mid, h_mid
        return (best_value, nu0, nu1, best_mid, h0, h1, best_h, cost)

    results = ordered_map(one_pair, range(n_pairs))
    kept = [r for r in results if r is not None]
    if not kept:
        raise NoValidPairs(
            f"all {n_pairs} sampled pairs were degenerate (W2 < {DEGENERATE_W2})"
        )
    values = tuple(r[0] for r in kept)
    k_witnessed = min(values)
    worst = kept[values.index(k_witnessed)]
    _, nu0, nu1, mid, h0, h1, h_mid, cost = worst
    rhs = 0.5 * h0 + 0.5 * h1 - (k_witnessed / 8.0) * cost**2
    return CurvatureReport(
        k_witnessed=k_witnessed,
        pairs_tested=len(kept),
        worst_pair=(nu0, nu1, mid, h_mid, rhs),
        tolerance=tolerance,
        values=values,
        skipped=n_pairs - len(kept),
    )


def descending_slope(f, space: FiniteMetricSpace, x: int) -> float:
    """Steepest local decrease rate of f at x.

    On graph metrics the competitors are the neighbors of x (the finite
    reading of a local limsup); on bare metric matrices every other point
    competes. Singletons and isolated points give 0.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n_points,):
        raise ValueError("f must assign one value per point")
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


def log_sobolev_check(
    nu: DiscreteMeasure,
    lam: DiscreteMeasure,
    k: float,
    tol: float = ENTROPY_TOL,
) -> LogSobolevCheck:
    """H(nu|lam) against the Fisher-information bound (1/2K) I(nu|lam).

    I sums lam_j * slope(f)^2 / f_j over points with positive density,
    using the descending slope of f = dnu/dlam. The verdict is reported
    per instance: the discrete slope can make the inequality fail on
    coarse spaces, and such a failure is information, not a bug.
    """
    if k <= 0:
        raise NonpositiveK(f"log-Sobolev constant must be positive, got {k}")
    lhs = relative_entropy(nu, lam)
    f = np.zeros(nu.space.n_points)
    sup = lam.support
    f[sup] = nu.weights[sup] / lam.weights[sup]
    fisher = 0.0
    for j in sup:
        if f[j] > 0:
            fisher += lam.weights[j] * descending_slope(f, lam.space, int(j)) ** 2 / f[j]
    rhs = fisher / (2.0 * k)
    return LogSobolevCheck(bool(lhs <= rhs + tol), lhs, float(rhs))


def _sup_density(measure: DiscreteMeasure, lam: DiscreteMeasure) -> float:
    zero_ref = lam.weights <= 0
    if np.any(measure.weights[zero_ref] > 0):
        raise AbsoluteContinuityFailure(
            "measure has mass outside the reference support"
        )
    sup = lam.support
    f = measure.weights[sup] / lam.weights[sup]
    return float(f.max(initial=0.0))


def rajala_bound_check(
    path: WassersteinPath,
    lam: DiscreteMeasure,
    k: float,
    tol: float = 1e-6,
) -> RajalaCheck:
    """Sup-norm control on interior densities of a displacement path.

    The bound is exp(K_minus * D^2 / 12) * (sup f0 + sup f1) with
    K_minus = max(-k, 0) and D the diameter of the union of the endpoint
    supports; for k >= 0 the exponential factor is exactly 1. Interior
    measures leaking mass off supp(lam) are an absolute-continuity
    failure and raise instead of returning a verdict.
    """
    first = path.measures[0]
    last = path.measures[-1]
    if not same_space(first.space, lam.space):
        raise SpaceMismatch("path and reference live on different spaces")
    sup0 = _sup_density(first, lam)
    sup1 = _sup_density(last, lam)
    union = sorted(set(first.support.tolist()) | set(last.support.tolist()))
    big_d = diameter(lam.space, union)
    k_minus = max(-k, 0.0)
    bound = math.exp(k_minus * big_d**2 / 12.0) * (sup0 + sup1)
    max_density = 0.0
    for t, measure in zip(path.times, path.measures):
        if 0.0 < t < 1.0:
            max_density = max(max_density, _sup_density(measure, lam))
    return RajalaCheck(max_density <= bound + tol, max_density, bound)
