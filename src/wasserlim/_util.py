"""Internal helpers: seeded RNG streams, ordered mapping, weight vectors."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Derived random stream for ``(seed, path...)``.

    Streams are Philox counter-based generators keyed by
    ``SeedSequence(entropy=seed, spawn_key=path)``. The same (seed, path)
    always yields the same draw sequence, and distinct paths give
    statistically independent streams, which is what lets per-pair seeds
    match across a sequence of spaces.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items`` in order.

    Sequential: the solver is pure Python and holds the GIL, so a thread
    pool measured no faster. It stays a named function because the
    benchmark's per-layer trace counts its calls (``util.ordered_map``).
    """
    return [fn(x) for x in items]


def as_weight_vector(values: Iterable[float], n: int, what: str) -> np.ndarray:
    """Finite nonnegative float vector of length ``n``; raises ValueError."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{what}: expected {n} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: entries must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{what}: entries must be nonnegative")
    return arr
