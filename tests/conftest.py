"""Shared generators and fixtures for the test suite."""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from wasserlim import (
    DiscreteMeasure,
    dyadic_interval_space,
    graph_metric,
    validate_metric,
)
from wasserlim._util import make_rng

# Every property test draws the same examples on every run, writes no
# example database and has no per-example deadline, which a busy shared
# host would trip.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=40)
settings.load_profile("tier1")


def pytest_configure(config):
    # Whatever the settings, hypothesis caches the constants it reads from
    # local modules in its storage directory, .hypothesis/ in the working
    # directory unless moved: use one that is removed after the run.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def euclidean_space(rng, n, scale=4.0):
    """Random metric from points in R^3; triangle inequality holds by construction."""
    pts = rng.uniform(0.0, scale, size=(n, 3))
    d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    np.fill_diagonal(d, 0.0)
    return validate_metric((d + d.T) / 2)


def random_measure(rng, space, atoms=None):
    """Measure with a random (or requested) number of support atoms."""
    k = int(atoms) if atoms is not None else int(rng.integers(1, space.n_points + 1))
    idx = rng.choice(space.n_points, size=k, replace=False)
    w = np.zeros(space.n_points)
    w[idx] = rng.uniform(0.05, 1.0, size=k)
    return DiscreteMeasure(space, w)


def uniform_cloud(rng, space, size):
    """Uniform-weight cloud of `size` atoms; repeated atoms allowed."""
    idx = rng.choice(space.n_points, size=size, replace=True)
    w = np.bincount(idx, minlength=space.n_points).astype(float)
    return DiscreteMeasure(space, w)


def seeded(*path):
    """Independent RNG stream for an integer-labelled test site."""
    return make_rng(20260822, *(int(p) for p in path))


@pytest.fixture
def two_point():
    return validate_metric(np.array([[0.0, 3.0], [3.0, 0.0]]))


@pytest.fixture
def path3():
    return graph_metric(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def path5():
    return graph_metric(5, [(i, i + 1, 1.0) for i in range(4)])


@pytest.fixture
def dyadic4():
    return dyadic_interval_space(4)
