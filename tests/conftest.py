"""Shared generators and fixtures for the test suite."""

import math
import tempfile
from itertools import combinations

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
from wasserlim._util import check_p, make_rng

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


#: Cell bound for the enumeration oracle (|supp mu| * |supp nu|).
BRUTE_FORCE_LIMIT = 12


def brute_force_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Exact W_p by enumerating every vertex of the transport polytope.

    Each vertex is the unique flow carried by some spanning tree of the
    complete bipartite support graph, so trying all trees and keeping the
    cheapest feasible flow is exact. (Permuted north-west-corner fills
    are NOT enough: a tree with leaf rows on three distinct columns plus
    a full row is no staircase in any ordering.) Exponentially slow, so
    only for supports of at most BRUTE_FORCE_LIMIT cells. It shares no
    code with the library's solvers, only the check of ``p``.
    """
    check_p(p)
    space = mu.space
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    assert m * n <= BRUTE_FORCE_LIMIT, f"{m}*{n} cells is too many to enumerate"
    a = mu.weights[rows]
    b = nu.weights[cols]
    cost = space.dist[np.ix_(rows, cols)] ** p
    cells = [(i, j) for i in range(m) for j in range(n)]
    best = math.inf
    for combo in combinations(cells, m + n - 1):
        flows = _tree_flows(combo, a, b)
        if flows is None:
            continue
        total = sum(f * cost[i, j] for (i, j), f in zip(combo, flows))
        best = min(best, total)
    return best ** (1.0 / p)


def _tree_flows(arcs, a, b):
    """Flow values forced by a candidate basis, or None.

    Returns None when the arcs contain a cycle (then they are no basis)
    or when peeling leaves produces a negative allocation (then the basis
    is infeasible and carries no vertex).
    """
    m, n = len(a), len(b)
    size = m + n
    link = list(range(size))

    def find(x: int) -> int:
        while link[x] != x:
            link[x] = link[link[x]]
            x = link[x]
        return x

    for i, j in arcs:
        ri, rj = find(i), find(m + j)
        if ri == rj:
            return None
        link[ri] = rj
    # m+n-1 acyclic arcs on m+n nodes necessarily span; no extra check.
    supply = list(a) + list(b)
    open_arcs: list[set[int]] = [set() for _ in range(size)]
    for idx, (i, j) in enumerate(arcs):
        open_arcs[i].add(idx)
        open_arcs[m + j].add(idx)
    flows: list[float] = [0.0] * len(arcs)
    stack = [v for v in range(size) if len(open_arcs[v]) == 1]
    while stack:
        v = stack.pop()
        if len(open_arcs[v]) != 1:
            continue
        idx = open_arcs[v].pop()
        i, j = arcs[idx]
        other = m + j if v == i else i
        f = supply[v]
        if f < -1e-12:
            return None
        flows[idx] = max(f, 0.0)
        supply[v] = 0.0
        supply[other] -= f
        open_arcs[other].discard(idx)
        if len(open_arcs[other]) == 1:
            stack.append(other)
    return flows


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
