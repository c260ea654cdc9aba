"""Sequences of pointed metric-measure spaces and tail stabilization.

Limit arguments have no finite counterpart, so this module drives
families of finite instances through the transport and curvature
pipelines and asks a decidable question instead: do the derived
quantities stop moving? A quantity "stabilizes" when the last half of
its values sit within tolerance of their median. That rule is a declared
surrogate, not a claim about any actual limit object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import ordered_map
from .curvature import estimate_k
from .errors import FamilyLengthMismatch, SpaceMismatch
from .measures import (
    DiscreteMeasure,
    QuantizationResult,
    quantize_at,
    total_variation,
    uniform_quantization,
)
from .spaces import FiniteMetricSpace, dyadic_interval_space, same_space, validate_metric
from .transport import wasserstein_p


@dataclass(frozen=True)
class SpaceSequence:
    """Ordered family of (space, reference measure) entries."""

    entries: tuple[tuple[FiniteMetricSpace, DiscreteMeasure], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.entries:
            raise ValueError("sequence needs at least one entry")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(str(i) for i in range(len(self.entries)))
            )
        if len(self.labels) != len(self.entries):
            raise ValueError("one label per entry")
        for space, lam in self.entries:
            if not same_space(space, lam.space):
                raise SpaceMismatch("reference measure off its entry's space")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class StabilizationVerdict:
    """Tail behavior of one derived quantity along a sequence.

    ``stabilized`` means every value from ``tail_start`` on lies within
    ``tolerance`` of the tail median, which is reported as
    ``limit_estimate``. ``tail_min`` is the smallest tail value, useful
    for quantities where the conservative reading is a lower bound.
    """

    quantity: str
    values: tuple[float, ...]
    stabilized: bool
    limit_estimate: float
    tail_start: int
    tail_min: float
    tolerance: float


def tail_verdict(
    quantity: str, values: Sequence[float], tol: float
) -> StabilizationVerdict:
    """Apply the last-half-within-tolerance-of-median rule."""
    if not (tol > 0):
        raise ValueError("tolerance must be positive")
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("no values to judge")
    tail_start = len(vals) // 2
    tail = vals[tail_start:]
    estimate = float(np.median(tail))

    def near(v: float) -> bool:
        # An infinite value equal to the estimate is stable; inf - inf is NaN.
        return v == estimate or abs(v - estimate) <= tol

    stabilized = all(near(v) for v in tail)
    if stabilized:
        # Report the true onset: constant sequences stabilize at index 0,
        # not at the half-rule cutoff used for the verdict itself.
        while tail_start > 0 and near(vals[tail_start - 1]):
            tail_start -= 1
    return StabilizationVerdict(
        quantity=quantity,
        values=vals,
        stabilized=stabilized,
        limit_estimate=estimate,
        tail_start=tail_start,
        tail_min=min(vals[tail_start:]),
        tolerance=tol,
    )


def _check_families(
    seq: SpaceSequence, *families: Sequence[DiscreteMeasure]
) -> None:
    for family in families:
        if len(family) != len(seq):
            raise FamilyLengthMismatch(
                f"family has {len(family)} measures for {len(seq)} entries"
            )
        for (space, _), measure in zip(seq.entries, family):
            if not same_space(space, measure.space):
                raise SpaceMismatch("family measure off its entry's space")


def sequence_wasserstein(
    seq: SpaceSequence,
    mu_family: Sequence[DiscreteMeasure],
    nu_family: Sequence[DiscreteMeasure],
    p: float,
    tol: float,
) -> StabilizationVerdict:
    """Per-entry W_p values and their stabilization verdict."""
    _check_families(seq, mu_family, nu_family)
    values = ordered_map(
        lambda i: wasserstein_p(mu_family[i], nu_family[i], p)[0],
        range(len(seq)),
    )
    return tail_verdict(f"w{p:g}", values, tol)


def sequence_total_variation(
    seq: SpaceSequence,
    mu_family: Sequence[DiscreteMeasure],
    nu_family: Sequence[DiscreteMeasure],
    tol: float,
) -> StabilizationVerdict:
    """Per-entry TV distances and their stabilization verdict."""
    _check_families(seq, mu_family, nu_family)
    values = ordered_map(
        lambda i: total_variation(mu_family[i], nu_family[i]),
        range(len(seq)),
    )
    return tail_verdict("tv", values, tol)


def escaping_mass_family(
    n_values: Sequence[int],
) -> tuple[list[DiscreteMeasure], list[DiscreteMeasure]]:
    """The vanishing-mass-at-distance-sqrt(N) family.

    For each N this builds the two-point line space {0, sqrt(N)} with
    mu = delta_0 and nu = (1 - 1/N) delta_0 + (1/N) delta_sqrt(N).
    W2(mu, nu) equals 1 for every N while TV(mu, nu) = 1/N vanishes,
    which is the whole point of the family.
    """
    mu_family: list[DiscreteMeasure] = []
    nu_family: list[DiscreteMeasure] = []
    for n in n_values:
        if int(n) != n or n <= 0:
            raise ValueError(f"N values must be positive integers, got {n!r}")
        n = int(n)
        r = math.sqrt(n)
        space = validate_metric(
            np.array([[0.0, r], [r, 0.0]]),
            base_point=0,
            names=("0", format(r, ".17g")),
        )
        mu_family.append(DiscreteMeasure.dirac(space, 0))
        nu_family.append(DiscreteMeasure(space, np.array([1.0 - 1.0 / n, 1.0 / n])))
    return mu_family, nu_family


def escaping_mass_sequence(
    n_values: Sequence[int],
) -> tuple[SpaceSequence, list[DiscreteMeasure], list[DiscreteMeasure]]:
    """Same family wrapped as a SpaceSequence (reference = nu per entry)."""
    mu_family, nu_family = escaping_mass_family(n_values)
    entries = tuple((nu.space, nu) for nu in nu_family)
    labels = tuple(str(int(n)) for n in n_values)
    return SpaceSequence(entries, labels), mu_family, nu_family


def dyadic_sequence(levels: Sequence[int]) -> SpaceSequence:
    """Dyadic interval refinements with uniform reference measures."""
    entries = []
    for level in levels:
        space = dyadic_interval_space(level)
        entries.append((space, DiscreteMeasure.uniform(space)))
    return SpaceSequence(tuple(entries), tuple(f"level-{l}" for l in levels))


def density_family(
    seq: SpaceSequence, profile: Callable[[np.ndarray], np.ndarray]
) -> list[DiscreteMeasure]:
    """Measures with a common density profile against each entry's reference.

    ``profile`` maps an array of distances from the base point to
    nonnegative density values; useful for refining families that
    approximate one fixed continuum measure.
    """
    family = []
    for space, lam in seq.entries:
        radii = space.dist[space.base_point]
        values = np.asarray(profile(radii), dtype=float)
        if values.shape != radii.shape or np.any(values < 0):
            raise ValueError("profile must return nonnegative per-point values")
        family.append(DiscreteMeasure(space, values * lam.weights))
    return family


def sequence_cd(
    seq: SpaceSequence,
    n_pairs: int,
    seed: int,
    tol: float,
) -> StabilizationVerdict:
    """k_witnessed along the sequence, with matched pair seeds.

    Every entry consumes the same seed, so pair k of entry i and pair k
    of entry j are drawn from identical streams; differences between
    entries then reflect the spaces, not the sampling. ``tail_min`` of
    the verdict is the conservative tail reading of the witnessed K.
    """
    values = [estimate_k(lam, n_pairs, seed).k_witnessed for _, lam in seq.entries]
    return tail_verdict("k_witnessed", values, tol)


@dataclass(frozen=True)
class AuditRow:
    index: int
    label: str
    n_atoms: int
    covering_budget: int
    error: float
    uniform_error: float


@dataclass(frozen=True)
class QuantizationAudit:
    """Per-entry quantization results plus the uniform-size check.

    ``uniform_n`` is the largest per-entry atom count; every entry is
    re-quantized at that single size and ``uniform_ok`` records whether
    all re-quantized errors still meet delta.
    """

    rows: tuple[AuditRow, ...]
    uniform_n: int
    uniform_ok: bool
    delta: float
    p: float


def quantization_uniformity_audit(
    seq: SpaceSequence, delta: float, p: float
) -> QuantizationAudit:
    """Quantize every entry's reference measure to tolerance delta.

    Reports each entry's own atom count and covering budget, then
    verifies that the single worst-case atom count works for the whole
    family, which is the finite content of a uniform N(delta).
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    results: list[QuantizationResult] = list(
        ordered_map(
            lambda i: uniform_quantization(seq.entries[i][1], delta, p),
            range(len(seq)),
        )
    )
    uniform_n = max(r.n_atoms for r in results)
    rows = []
    uniform_ok = True
    for i, res in enumerate(results):
        lam = seq.entries[i][1]
        if res.n_atoms == uniform_n:
            uniform_error = res.error
        else:
            uniform_error = quantize_at(lam, uniform_n, p)[1]
        uniform_ok = uniform_ok and uniform_error <= delta
        rows.append(
            AuditRow(
                index=i,
                label=seq.labels[i],
                n_atoms=res.n_atoms,
                covering_budget=res.covering_budget,
                error=res.error,
                uniform_error=uniform_error,
            )
        )
    return QuantizationAudit(tuple(rows), uniform_n, uniform_ok, delta, p)
