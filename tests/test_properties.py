"""Properties of W_p on degenerate inputs: equal or integer masses on
integer-length cycles and on points of a small integer grid, where many
pivots move no flow and optima tie."""

import numpy as np
from hypothesis import given, settings, strategies as st

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
