"""Properties of W_p on degenerate inputs: equal or integer masses on
integer-length cycles and on points of a small integer grid, where many
pivots move no flow and optima tie, and on those spaces rescaled."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from wasserlim import (
    DiscreteMeasure,
    graph_metric,
    validate_metric,
    wasserstein_p,
)
from conftest import BRUTE_FORCE_LIMIT, brute_force_wasserstein


@st.composite
def spaces(draw, max_points=12):
    """A cycle with edge lengths 1 to 3, or distinct points of a 5 x 5
    grid in the plane."""
    n = draw(st.integers(3, max_points))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        return graph_metric(n, [(i, (i + 1) % n, float(w)) for i, w in enumerate(lengths)])
    cell = st.tuples(st.integers(0, 4), st.integers(0, 4))
    pts = np.array(draw(st.lists(cell, min_size=n, max_size=n, unique=True)), dtype=float)
    return validate_metric(np.linalg.norm(pts[:, None] - pts[None], axis=-1))


@st.composite
def masses(draw, n, atoms=None):
    """Equal masses (0 or 1 each) or integer masses 0 to 4 on n points,
    not all zero; with ``atoms``, on exactly that many points."""
    top = draw(st.sampled_from([1, 4]))
    if atoms is None:
        w = draw(st.lists(st.integers(0, top), min_size=n, max_size=n).filter(any))
        return np.array(w, dtype=float)
    where = draw(st.lists(st.integers(0, n - 1), min_size=atoms, max_size=atoms,
                          unique=True))
    w = np.zeros(n)
    w[where] = draw(st.lists(st.integers(1, top), min_size=atoms, max_size=atoms))
    return w


@st.composite
def measure_lists(draw, count):
    space = draw(spaces())
    return [DiscreteMeasure(space, draw(masses(space.n_points))) for _ in range(count)]


@given(measure_lists(2), st.sampled_from([1.0, 2.0, 3.0]))
def test_symmetric_to_the_last_bit(pair, p):
    mu, nu = pair
    there, forward = wasserstein_p(mu, nu, p)
    back, backward = wasserstein_p(nu, mu, p)
    assert there.hex() == back.hex()
    assert forward.matrix.tobytes() == backward.matrix.T.tobytes()


@given(measure_lists(3), st.sampled_from([1.0, 2.0]))
def test_triangle_inequality(triple, p):
    a, b, c = triple
    w = {(x, y): wasserstein_p(x, y, p)[0] for x, y in [(a, b), (b, c), (a, c)]}
    assert w[a, c] <= (w[a, b] + w[b, c]) * (1 + 1e-12)


@given(measure_lists(2))
def test_monotone_in_p(pair):
    # Jensen: W_p <= W_q for p <= q on probability measures.
    values = [wasserstein_p(*pair, p)[0] for p in (1.0, 1.5, 2.0, 3.0)]
    for lower, higher in zip(values, values[1:]):
        assert lower <= higher * (1 + 1e-12)


def rescaled(pair, s):
    """The pair on its space with every distance multiplied by s. The
    weights are normalized afresh, so compare with ``rescaled(pair, 1.0)``
    to the last bit."""
    space = validate_metric(pair[0].space.dist * s)
    return [DiscreteMeasure(space, mu.weights) for mu in pair]


def cycle_pair():
    """A fixed pair on a 3-cycle with edge lengths 1, 2, 2."""
    space = graph_metric(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 2.0)])
    return [DiscreteMeasure(space, np.array([1.0, 1.0, 0.0])),
            DiscreteMeasure(space, np.array([0.0, 1.0, 3.0]))]


# The derandomized draws need not reach p = 2 at the smallest scale, where
# every cost is near 1e-300.
@example(cycle_pair(), 2.0, 1e-150)
@given(measure_lists(2), st.sampled_from([1.0, 2.0]),
       st.sampled_from([1e-150, 1e-8, 1e-6, 1e-5, 1e-3, 0.3, 300.0, 1e5, 1e150]))
def test_homogeneous_in_the_distance_scale(pair, p, s):
    value = wasserstein_p(*rescaled(pair, 1.0), p)[0]
    assert abs(wasserstein_p(*rescaled(pair, s), p)[0] - s * value) <= 1e-12 * s * value


@given(measure_lists(2), st.sampled_from([1.0, 2.0]),
       st.one_of(st.integers(-30, 20), st.sampled_from([-490, 490])))
def test_power_of_two_scale_leaves_the_plan_unchanged(pair, p, k):
    # Each cost is scaled by 2**(k p) exactly, and the solve's own scale
    # by 2**(-k p), so the integer costs and every pivot are the same.
    plan = wasserstein_p(*rescaled(pair, 1.0), p)[1].matrix
    assert wasserstein_p(*rescaled(pair, 2.0**k), p)[1].matrix.tobytes() == plan.tobytes()


@st.composite
def oracle_pairs(draw):
    """A pair whose supports span at most BRUTE_FORCE_LIMIT cells."""
    space = draw(spaces(max_points=6))
    n = space.n_points
    m = draw(st.integers(1, min(n, 4)))
    k = draw(st.integers(1, min(n, BRUTE_FORCE_LIMIT // m)))
    return (DiscreteMeasure(space, draw(masses(n, m))),
            DiscreteMeasure(space, draw(masses(n, k))))


@settings(max_examples=25)
@given(oracle_pairs(), st.sampled_from([1.0, 2.0]))
def test_matches_the_enumeration_oracle(pair, p):
    value = wasserstein_p(*pair, p)[0]
    assert abs(value - brute_force_wasserstein(*pair, p)) <= 1e-12 * max(value, 1.0)
