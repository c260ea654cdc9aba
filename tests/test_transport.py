"""Solver, assignment route, enumeration oracle, projections."""

import hashlib
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from wasserlim import (
    DiscreteMeasure,
    assignment_wasserstein,
    dyadic_interval_space,
    estimate_k,
    graph_metric,
    nearest_atom_projection,
    pth_moment,
    total_variation,
    validate_metric,
    wasserstein_p,
)
from wasserlim.errors import (
    NotUniformCloud,
    SizeMismatch,
    SolverFailure,
    SpaceMismatch,
)
from wasserlim import curvature, transport
from wasserlim.transport import alternate_optimal_couplings, has_alternate_optimum
from conftest import (
    brute_force_wasserstein,
    euclidean_space,
    random_measure,
    seeded,
    uniform_cloud,
)


def small_pair(rng, max_cells=12):
    """Random measure pair whose support box fits the enumeration oracle."""
    shapes = [(1, 1), (1, 11), (2, 6), (3, 4), (2, 5), (3, 3), (2, 4), (4, 3)]
    m, k = shapes[int(rng.integers(0, len(shapes)))]
    space = euclidean_space(rng, max(m, k) + int(rng.integers(0, 3)))
    return random_measure(rng, space, atoms=m), random_measure(rng, space, atoms=k)


class TestWassersteinP:
    def test_dirac_pair_is_plain_distance(self, path5):
        a = DiscreteMeasure.dirac(path5, 0)
        b = DiscreteMeasure.dirac(path5, 3)
        for p in (1.0, 2.0, 3.5):
            value, coupling = wasserstein_p(a, b, p)
            assert value == pytest.approx(3.0, abs=1e-12)
            assert coupling.matrix[0, 3] == pytest.approx(1.0)

    def test_identical_measures_cost_zero(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.1, 0.3, 0.0, 0.4, 0.2]))
        assert wasserstein_p(mu, mu, 2.0)[0] == 0.0

    def test_unit_shift_of_uniform_pair(self, path3):
        mu = DiscreteMeasure(path3, np.array([0.5, 0.5, 0.0]))
        nu = DiscreteMeasure(path3, np.array([0.0, 0.5, 0.5]))
        assert wasserstein_p(mu, nu, 1.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_p_below_one_rejected(self, path3):
        mu = DiscreteMeasure.uniform(path3)
        with pytest.raises(ValueError):
            wasserstein_p(mu, mu, 0.5)

    @pytest.mark.parametrize("p", [0.5, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("route", [
        wasserstein_p, assignment_wasserstein, brute_force_wasserstein,
        nearest_atom_projection, lambda mu, nu, p: pth_moment(mu, p),
    ], ids=["simplex", "assignment", "brute_force", "projection", "moment"])
    def test_p_outside_one_to_inf_rejected(self, route, p):
        # d**inf is 0 or inf, so no route can give W_inf (1/2 here), and
        # NaN compares false against every bound.
        space = dyadic_interval_space(1)
        mu, nu = DiscreteMeasure.dirac(space, 0), DiscreteMeasure.dirac(space, 1)
        with pytest.raises(ValueError, match="p must be a finite number >= 1"):
            route(mu, nu, p)

    def test_space_mismatch(self, path3, path5):
        with pytest.raises(SpaceMismatch):
            wasserstein_p(
                DiscreteMeasure.uniform(path3), DiscreteMeasure.uniform(path5), 2.0
            )

    def test_symmetry_exact(self):
        rng = seeded(20)
        for _ in range(15):
            space = euclidean_space(rng, int(rng.integers(2, 9)))
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            p = float(rng.uniform(1.0, 3.0))
            assert wasserstein_p(mu, nu, p)[0] == wasserstein_p(nu, mu, p)[0]

    def test_triangle_inequality(self):
        rng = seeded(21)
        for _ in range(12):
            space = euclidean_space(rng, int(rng.integers(3, 9)))
            a, b, c = (random_measure(rng, space) for _ in range(3))
            for p in (1.0, 2.0):
                assert (
                    wasserstein_p(a, c, p)[0]
                    <= wasserstein_p(a, b, p)[0] + wasserstein_p(b, c, p)[0] + 1e-7
                )

    def test_zero_cost_implies_equal_weights(self):
        rng = seeded(22)
        for _ in range(10):
            space = euclidean_space(rng, 6)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            value = wasserstein_p(mu, nu, 1.0)[0]
            if np.array_equal(mu.weights, nu.weights):
                assert value == 0.0
            else:
                assert value > 0.0

    def test_monotone_in_p(self):
        rng = seeded(23)
        for _ in range(10):
            space = euclidean_space(rng, 7)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            values = [wasserstein_p(mu, nu, p)[0] for p in (1.0, 1.5, 2.0, 3.0)]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-9

    def test_coupling_marginals_and_cost(self):
        rng = seeded(24)
        space = euclidean_space(rng, 8)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        value, coupling = wasserstein_p(mu, nu, 2.0)
        assert np.allclose(coupling.matrix.sum(axis=1), mu.weights, atol=1e-12)
        assert np.allclose(coupling.matrix.sum(axis=0), nu.weights, atol=1e-12)
        recomputed = (coupling.matrix * space.dist**2).sum() ** 0.5
        assert value == pytest.approx(recomputed, abs=1e-12)
        # optimal bases are trees: support can't exceed m + n - 1 cells
        assert (coupling.matrix > 0).sum() <= mu.support.size + nu.support.size - 1

    def test_deterministic_coupling(self):
        rng = seeded(25)
        space = euclidean_space(rng, 10)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        first = wasserstein_p(mu, nu, 2.0)[1].matrix
        second = wasserstein_p(mu, nu, 2.0)[1].matrix
        assert np.array_equal(first, second)

    @staticmethod
    def _two_points(d, p):
        space = validate_metric(np.array([[0.0, d], [d, 0.0]]))
        return wasserstein_p(DiscreteMeasure.dirac(space, 0),
                             DiscreteMeasure.dirac(space, 1), p)[0]

    def test_huge_costs_solved_exactly(self):
        # The cost 1e24 is exact; its float cube root is 1.04e-15 below 1e8.
        assert self._two_points(1e8, 3.0) == pytest.approx(1e8, rel=2e-15)

    def test_overflowing_costs_refused(self):
        # d**p is inf; the suite turns any escaping RuntimeWarning into an
        # error, so this also checks that none escapes.
        with pytest.raises(SolverFailure, match=r"= inf at d = 1e\+200 has no exact scale"):
            self._two_points(1e200, 2.0)

    def test_costs_below_every_power_of_two_scale_refused(self):
        # d**p = 1e-320 is subnormal: 2**shift would exceed the float range.
        with pytest.raises(SolverFailure, match=r"= 1e-320 at d = 1e-160 has"):
            self._two_points(1e-160, 2.0)

    def test_costs_that_all_underflow_refused(self):
        space = dyadic_interval_space(1)  # points 0, 1/2, 1
        with pytest.raises(SolverFailure, match=r"= 0 at d = 0.5 has"):
            wasserstein_p(DiscreteMeasure.dirac(space, 0),
                          DiscreteMeasure.dirac(space, 1), 1e6)


class TestBruteForceOracle:
    def test_three_random_instances_match_solver(self):
        rng = seeded(26)
        for trial in range(3):
            mu, nu = small_pair(rng)
            p = (1.0, 2.0, 3.0)[trial]
            assert brute_force_wasserstein(mu, nu, p) == pytest.approx(
                wasserstein_p(mu, nu, p)[0], abs=1e-7
            )

    def test_identical_measures(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.4, 0.0, 0.6, 0.0, 0.0]))
        assert brute_force_wasserstein(mu, mu, 2.0) == 0.0

    def test_dirac_pair(self, path5):
        a, b = DiscreteMeasure.dirac(path5, 0), DiscreteMeasure.dirac(path5, 4)
        assert brute_force_wasserstein(a, b, 1.0) == pytest.approx(4.0)


class TestAssignment:
    def test_single_atom_clouds(self, two_point):
        a = DiscreteMeasure.dirac(two_point, 0)
        b = DiscreteMeasure.dirac(two_point, 1)
        value, assignment = assignment_wasserstein(a, b, 2.0)
        assert value == pytest.approx(3.0)
        assert assignment.permutation == (0,)

    def test_identical_clouds_cost_zero(self, path5):
        cloud = DiscreteMeasure(path5, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        value, _ = assignment_wasserstein(cloud, cloud, 1.0)
        assert value == 0.0

    def test_interleaved_pairs_keep_order(self):
        space = validate_metric(
            np.abs(np.subtract.outer([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]))
        )
        a = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5, 0.0]))
        b = DiscreteMeasure(space, np.array([0.0, 0.5, 0.0, 0.5]))
        value, assignment = assignment_wasserstein(a, b, 2.0)
        assert value == pytest.approx(1.0)
        assert assignment.permutation == (0, 1)

    def test_matches_solver_on_random_clouds(self):
        rng = seeded(28)
        for trial in range(30):
            space = euclidean_space(rng, int(rng.integers(2, 12)))
            size = int(rng.integers(1, 65))
            a = uniform_cloud(rng, space, size)
            b = uniform_cloud(rng, space, size)
            p = (1.0, 2.0, 3.0)[trial % 3]
            assert assignment_wasserstein(a, b, p)[0] == pytest.approx(
                wasserstein_p(a, b, p)[0], abs=1e-9
            )

    def test_non_uniform_weights_rejected(self, two_point):
        # 1/pi has a rational approximant within 5.8e-10; must still refuse
        lopsided = DiscreteMeasure(two_point, np.array([1 / np.pi, 1 - 1 / np.pi]))
        with pytest.raises(NotUniformCloud):
            assignment_wasserstein(lopsided, DiscreteMeasure.dirac(two_point, 0), 2.0)

    def test_incompatible_sizes_rejected(self, two_point):
        a = DiscreteMeasure(two_point, np.array([504 / 1009, 505 / 1009]))
        b = DiscreteMeasure(two_point, np.array([506 / 1013, 507 / 1013]))
        with pytest.raises(SizeMismatch):
            assignment_wasserstein(a, b, 2.0)


class TestNearestAtomProjection:
    def test_single_atom_cloud_collapses(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        cloud = DiscreteMeasure.dirac(path5, 2)
        result = nearest_atom_projection(mu, cloud, 2.0)
        assert {result.tau[int(x)] for x in mu.support} == {2}
        moment = sum(w * path5.d(j, 2) ** 2 for j, w in zip(range(5), mu.weights))
        assert result.cost == pytest.approx(moment**0.5)

    def test_covering_cloud_is_identity(self, path5):
        mu = DiscreteMeasure(path5, np.array([0.5, 0.0, 0.5, 0.0, 0.0]))
        cloud = DiscreteMeasure(path5, np.array([0.25, 0.25, 0.25, 0.25, 0.0]))
        result = nearest_atom_projection(mu, cloud, 2.0)
        assert result.cost == 0.0
        assert np.array_equal(result.pushforward.weights, mu.weights)

    def test_hand_example_off_grid_point(self):
        space = validate_metric(
            np.array([[0.0, 0.4, 1.0], [0.4, 0.0, 0.6], [1.0, 0.6, 0.0]])
        )
        mu = DiscreteMeasure.uniform(space)
        cloud = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5]))
        result = nearest_atom_projection(mu, cloud, 2.0)
        assert result.tau[1] == 0  # 0.4 beats 0.6
        assert np.allclose(result.pushforward.weights, [2 / 3, 0.0, 1 / 3])
        assert result.cost == pytest.approx((0.16 / 3) ** 0.5)

    def test_tie_takes_lowest_atom_index(self, path5):
        mu = DiscreteMeasure.dirac(path5, 2)
        cloud = DiscreteMeasure(path5, np.array([0.5, 0.0, 0.0, 0.0, 0.5]))
        result = nearest_atom_projection(mu, cloud, 1.0)
        assert result.tau[2] == 0

    def test_sandwich_against_solver(self):
        rng = seeded(29)
        for _ in range(20):
            space = euclidean_space(rng, int(rng.integers(3, 10)))
            mu = random_measure(rng, space)
            cloud = uniform_cloud(rng, space, int(rng.integers(1, 9)))
            p = float(rng.choice([1.0, 2.0]))
            result = nearest_atom_projection(mu, cloud, p)
            lower = wasserstein_p(mu, result.pushforward, p)[0]
            upper = wasserstein_p(mu, cloud, p)[0]
            assert lower <= result.cost + 1e-9
            assert result.cost <= upper + 1e-9


class TestAlternateOptima:
    def _square_measures(self):
        # 4-cycle: both matchings of {0,2} onto {1,3} cost the same
        space = graph_metric(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        mu = DiscreteMeasure(space, np.array([0.5, 0.0, 0.5, 0.0]))
        nu = DiscreteMeasure(space, np.array([0.0, 0.5, 0.0, 0.5]))
        return mu, nu

    def _square_tie(self):
        return wasserstein_p(*self._square_measures(), 2.0)

    def test_tie_detected(self):
        _, coupling = self._square_tie()
        assert has_alternate_optimum(coupling)

    def test_alternates_are_valid_and_cost_equal(self):
        value, coupling = self._square_tie()
        others = alternate_optimal_couplings(coupling)
        assert 1 <= len(others) <= 8
        for other in others:
            assert not np.array_equal(other.matrix, coupling.matrix)
            assert np.allclose(
                other.matrix.sum(axis=1), coupling.matrix.sum(axis=1), atol=1e-12
            )
            assert np.allclose(
                other.matrix.sum(axis=0), coupling.matrix.sum(axis=0), atol=1e-12
            )
            assert other.cost_p == pytest.approx(value, abs=1e-9)

    def test_alternates_transpose_with_argument_order(self):
        # One order is solved as given and the other flipped; both must
        # present the same plans.
        mu, nu = self._square_measures()
        _, there = wasserstein_p(mu, nu, 2.0)
        _, back = wasserstein_p(nu, mu, 2.0)
        assert there._state.flipped != back._state.flipped
        forward = alternate_optimal_couplings(there)
        backward = alternate_optimal_couplings(back)
        assert len(forward) == len(backward) >= 1
        for f, b in zip(forward, backward):
            assert np.array_equal(f.matrix, b.matrix.T)
            assert f.cost_p.hex() == b.cost_p.hex()

    def test_unique_optimum_has_no_alternates(self, path3):
        mu = DiscreteMeasure.dirac(path3, 0)
        nu = DiscreteMeasure.dirac(path3, 2)
        _, coupling = wasserstein_p(mu, nu, 2.0)
        assert not has_alternate_optimum(coupling)
        assert alternate_optimal_couplings(coupling) == []

    def test_no_alternate_skips_the_arc_scan(self, path3, monkeypatch):
        def refuse(state):
            raise AssertionError("zero-cost arcs scanned with none to find")

        monkeypatch.setattr(transport, "_zero_cost_nonbasic", refuse)
        _, coupling = wasserstein_p(DiscreteMeasure.dirac(path3, 0),
                                    DiscreteMeasure.dirac(path3, 2), 2.0)
        assert alternate_optimal_couplings(coupling) == []


# -- the network simplex against a from-scratch reference -------------------
#
# reference_simplex is the solver loop as it was before the basis tree was
# kept across pivots and held in arrays, with Dantzig pricing: flows live
# in a dict keyed by cell, the basis in a set, and tree, depths and
# potentials are rebuilt from scratch on every pivot. It checks the
# north-west staircase first and, when that is not optimal, starts again
# from its own matrix-minimum basis. Its leaving arc is the last blocking
# arc of the cycle list rotated to start at the apex. When it left the
# staircase, its flows are then summed afresh over its final basis. The
# solver, priced with one block of all rows (Dantzig's rule), must make
# the same pivots and end in the same state, bit for bit; dict_state
# converts its array state to the reference's form.

def _reference_northwest(a, b):
    m, n = len(a), len(b)
    rem_a = a.astype(np.float64).copy()
    rem_b = b.astype(np.float64).copy()
    flows = {}
    i = j = 0
    while True:
        take = min(rem_a[i], rem_b[j])
        flows[(i, j)] = float(take)
        rem_a[i] -= take
        rem_b[j] -= take
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] == 0.0 and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return flows


def _reference_least_cost(a, b, cost_int):
    """Flows by cell of the matrix-minimum start.

    Cells in order of (cost, flat index); a cell whose row and column are
    open closes one of them and carries its remainder. A remainder is
    [mass, epsilon coefficient]: each line but row 0 starts with one
    epsilon of supply (a column's demand is one epsilon less), and row 0
    gives up m + n - 1. The smaller remainder closes, unless its side has
    one line left; the last cell carries the larger remainder.
    """
    m, n = cost_int.shape
    rows = {i: [float(a[i]), 1] for i in range(m)}
    rows[0][1] = 1 - m - n
    cols = {j: [float(b[j]), -1] for j in range(n)}
    flows = {}
    for k in sorted(range(m * n), key=lambda k: (int(cost_int.flat[k]), k)):
        i, j = divmod(k, n)
        if i not in rows or j not in cols:
            continue
        if len(rows) == len(cols) == 1:
            flows[(i, j)] = max(rows[i][0], cols[j][0])
            break
        if len(cols) == 1:
            shut_row = True
        elif len(rows) == 1:
            shut_row = False
        else:
            shut_row = tuple(rows[i]) < tuple(cols[j])
        shut, other = (rows.pop(i), cols[j]) if shut_row else (cols.pop(j), rows[i])
        flows[(i, j)] = shut[0]
        other[0] -= shut[0]
        other[1] -= shut[1]
    return flows


def dict_state(parent, flow, m):
    """(flows by cell, basic cells) of an array state, in Python numbers."""
    parent, flow = parent.tolist(), flow.tolist()
    flows = {}
    for x in range(1, len(parent)):
        cell = (x, parent[x] - m) if x < m else (parent[x], x - m)
        flows[cell] = flow[x]
    return flows, set(flows)


def _reference_tree(basic, m, n):
    size = m + n
    nbr = [[] for _ in range(size)]
    for i, j in basic:
        nbr[i].append(m + j)
        nbr[m + j].append(i)
    parent = [-2] * size
    parent[0] = -1
    order = [0]
    for node in order:
        for q in nbr[node]:
            if parent[q] == -2:
                parent[q] = node
                order.append(q)
    assert len(order) == size
    return parent, order


def _reference_depths(parent, order):
    depth = [0] * len(parent)
    for node in order[1:]:
        depth[node] = depth[parent[node]] + 1
    return depth


def _reference_potentials(parent, order, cost_int):
    m, n = cost_int.shape
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    for node in order[1:]:
        par = parent[node]
        if node >= m:
            v[node - m] = cost_int[par, node - m] - u[par]
        else:
            u[node] = cost_int[node, par - m] - v[par - m]
    return u, v


def _reference_pivot(parent, depth, m, flows, arc):
    x, y = arc[0], m + arc[1]
    px, py = [x], [y]
    dx, dy = depth[x], depth[y]
    while dx > dy:
        x = parent[x]
        px.append(x)
        dx -= 1
    while dy > dx:
        y = parent[y]
        py.append(y)
        dy -= 1
    while x != y:
        x = parent[x]
        px.append(x)
        y = parent[y]
        py.append(y)
    seq = py + px[-2::-1]
    cells, signs = [arc], [1]
    prev, sgn = seq[0], -1
    for node in seq[1:]:
        cells.append((prev, node - m) if prev < m else (node, prev - m))
        signs.append(sgn)
        sgn = -sgn
        prev = node
    # The cycle runs along the entering arc, then up from the sink; the
    # apex is seq[len(py) - 1], and cells[len(py)] is the arc after it.
    apex = len(py)
    cells, signs = cells[apex:] + cells[:apex], signs[apex:] + signs[:apex]
    drains = [c for c, s in zip(cells, signs) if s < 0]
    theta = min(flows[c] for c in drains)
    leaving = [c for c in drains if flows[c] == theta][-1]
    for c, s in zip(cells, signs):
        if s > 0:
            flows[c] = flows.get(c, 0.0) + theta
        else:
            flows[c] = max(flows[c] - theta, 0.0)
    flows.pop(leaving)
    return theta, leaving


def _reference_basis_flows(basic, a, b):
    """Flows by cell of a basis: each arc carries the net supply of the
    side of the tree it cuts off from source 0. The subtrees are summed
    deepest node first, ties to the lower node, and a sum of 0 or below
    reads +0.0."""
    m, n = len(a), len(b)
    parent, order = _reference_tree(basic, m, n)
    depth = _reference_depths(parent, order)
    held = {x: float(a[x]) if x < m else -float(b[x - m]) for x in range(m + n)}
    flows = {}
    for node in sorted(range(1, m + n), key=lambda x: (-depth[x], x)):
        up = parent[node]
        held[up] += held[node]
        f = held[node] if node < m else -held[node]
        cell = (node, up - m) if node < m else (up, node - m)
        flows[cell] = f if f > 0.0 else 0.0
    return flows


def reference_simplex(a, b, cost_int):
    """(flows, basic, u, v, entering arcs), rebuilding the basis tree on
    every pivot."""
    m, n = cost_int.shape
    flows = _reference_northwest(a, b)
    basic = set(flows)
    parent, order = _reference_tree(basic, m, n)
    u, v = _reference_potentials(parent, order, cost_int)
    if (cost_int - u[:, None] - v[None, :]).min() >= 0:
        return flows, basic, u, v, []
    flows = _reference_least_cost(a, b, cost_int)
    basic = set(flows)
    entered = []
    while True:
        parent, order = _reference_tree(basic, m, n)
        u, v = _reference_potentials(parent, order, cost_int)
        reduced = cost_int - u[:, None] - v[None, :]
        k = int(np.argmin(reduced))
        if reduced.flat[k] >= 0:
            break
        entering = (k // n, k % n)
        depth = _reference_depths(parent, order)
        basic.discard(_reference_pivot(parent, depth, m, flows, entering)[1])
        basic.add(entering)
        entered.append(entering)
    return _reference_basis_flows(basic, a, b), basic, u, v, entered


def half_support_cycle_pair():
    """Equal masses on half the points of a unit-length 48-cycle: many
    pivots move no flow."""
    n = 48
    space = graph_metric(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    rng = seeded(35)
    masses = np.zeros((2, n))
    for w in masses:
        w[rng.choice(n, size=n // 2, replace=False)] = 1.0
    return tuple(DiscreteMeasure(space, w) for w in masses)


def cycle_space(rng, n):
    """Cycle graph with integer edge weights: many equal-cost paths."""
    w = rng.integers(1, 4, size=n)
    return graph_metric(n, [(i, (i + 1) % n, float(w[i])) for i in range(n)])


def uniform_measure(rng, space):
    """Equal weights on a random subset of points: ties, degenerate pivots."""
    w = np.zeros(space.n_points)
    k = int(rng.integers(1, space.n_points + 1))
    w[rng.choice(space.n_points, size=k, replace=False)] = 1.0
    return DiscreteMeasure(space, w)


def simplex_corpus():
    """Seeded (mu, nu, p) cases, each pair in both argument orders.

    Random Euclidean spaces and integer-weight cycles up to n = 40, with
    random or uniform weights on partial supports, so m != n, ties and
    degenerate (theta = 0) pivots all occur.
    """
    rng = seeded(30)
    cases = []
    for trial in range(48):
        n = int(rng.integers(3, 41))
        space = euclidean_space(rng, n) if trial % 2 == 0 else cycle_space(rng, n)
        draw = uniform_measure if trial % 3 == 0 else random_measure
        mu, nu = draw(rng, space), draw(rng, space)
        p = 1.0 if trial % 4 < 2 else 2.0
        cases += [(mu, nu, p), (nu, mu, p)]
    return cases


def simplex_inputs(mu, nu, p):
    """The integer problem wasserstein_p hands the simplex, unflipped."""
    rows, cols = mu.support, nu.support
    return (mu.weights[rows], nu.weights[cols],
            transport._integer_costs(mu.space.dist[np.ix_(rows, cols)], p))


def assert_tree_matches_rebuild(parent, depth, basic, m, n):
    """The kept basis tree is the one a breadth-first rebuild gives."""
    ref_parent, order = _reference_tree(basic, m, n)
    assert parent.tolist() == ref_parent
    assert depth.tolist() == _reference_depths(ref_parent, order)


def assert_simplex_matches_reference(a, b, cost_int):
    """Same pivots and end state as the reference, under Dantzig pricing;
    returns the pivot count."""
    entered = []
    real_pivot = transport._pivot

    def recording_pivot(*args):
        entered.append(args[-1])
        return real_pivot(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_pivot", recording_pivot)
        mp.setattr(transport, "_BLOCK_ROWS", len(a))
        parent, depth, flow, u, v, reduced = transport._network_simplex(
            a, b, cost_int.copy())
    m, n = cost_int.shape
    flows, basic = dict_state(parent, flow, m)
    ref_flows, ref_basic, ref_u, ref_v, ref_entered = reference_simplex(a, b, cost_int)
    assert entered == ref_entered
    assert [(c, f.hex()) for c, f in sorted(flows.items())] == [
        (c, f.hex()) for c, f in sorted(ref_flows.items())
    ]
    assert basic == ref_basic
    assert u.dtype == v.dtype == np.int64
    assert u.tobytes() == ref_u.tobytes()
    assert v.tobytes() == ref_v.tobytes()
    assert reduced.tobytes() == (cost_int - ref_u[:, None] - ref_v[None, :]).tobytes()
    assert_tree_matches_rebuild(parent, depth, basic, m, n)
    return len(entered)


def reference_plan(coupling, flows):
    """W_p value and presented matrix of ``flows`` (a dict by solved cell)
    on the solved cells of ``coupling``: the sorted dict walk the solver
    used before its state became arrays."""
    st = coupling._state
    cost_float = coupling.space.dist[np.ix_(st.rows, st.cols)] ** coupling.p
    cost_pow = 0.0
    gamma = np.zeros((coupling.space.n_points, coupling.space.n_points))
    for (i, j), f in sorted(flows.items()):
        cost_pow += f * cost_float[i, j]
        gamma[st.rows[i], st.cols[j]] = f
    if st.flipped:
        gamma = gamma.T.copy()
    return cost_pow ** (1.0 / coupling.p), gamma


def assert_coupling_matches_reference(value, coupling):
    st = coupling._state
    flows = dict_state(st.parent, st.flow, len(st.rows))[0]
    ref_value, ref_matrix = reference_plan(coupling, flows)
    assert type(value) is type(ref_value)
    assert value.hex() == ref_value.hex() == coupling.cost_p.hex()
    # Row-major, like the matrices the reference built; the reduced costs
    # too, or the row blocks that pricing reads are strided.
    assert coupling.matrix.flags.c_contiguous and st.reduced.flags.c_contiguous
    assert coupling.matrix.tobytes() == ref_matrix.tobytes()


def reference_alternates(coupling, limit):
    """(zero-cost nonbasic arcs, alternate (value, matrix) pairs, reduced
    costs), from a breadth-first rebuild of the basis tree and reduced
    costs recomputed from the integer costs."""
    st = coupling._state
    m, n = len(st.rows), len(st.cols)
    flows, basic = dict_state(st.parent, st.flow, m)
    parent, order = _reference_tree(basic, m, n)
    depth = _reference_depths(parent, order)
    cost_int = transport._integer_costs(coupling.space.dist[np.ix_(st.rows, st.cols)],
                                        coupling.p)
    u, v = _reference_potentials(parent, order, cost_int)
    reduced = cost_int - u[:, None] - v[None, :]
    arcs = [(int(i), int(j)) for i, j in zip(*np.nonzero(reduced == 0)) if (i, j) not in basic]
    plans = []
    for arc in arcs:
        moved = dict(flows)
        theta, _ = _reference_pivot(parent, depth, m, moved, arc)
        if theta > 0.0:
            plans.append(reference_plan(coupling, moved))
        if len(plans) >= limit:
            break
    return arcs, plans, reduced


def corpus_digest() -> str:
    """sha256 over every solve, alternate and K-estimate of the corpus.

    Covers the coupling matrix bytes, the value, the integer potentials and
    the sorted basis of each ``wasserstein_p`` solve, its alternate optima
    (limit 64), and ``estimate_k`` values and worst midpoints on
    ``dyadic_interval_space(6)``. Equal digests on two versions of the
    solver mean they return the same couplings.
    """
    h = hashlib.sha256()
    for mu, nu, p in simplex_corpus():
        value, coupling = wasserstein_p(mu, nu, p)
        st = coupling._state
        h.update(coupling.matrix.tobytes())
        h.update(value.hex().encode())
        h.update(st.u.tobytes() + st.v.tobytes())
        h.update(repr(sorted(dict_state(st.parent, st.flow, len(st.rows))[1])).encode())
        for other in alternate_optimal_couplings(coupling, limit=64):
            h.update(other.matrix.tobytes())
            h.update(other.cost_p.hex().encode())
    lam = DiscreteMeasure.uniform(dyadic_interval_space(6))
    for seed in range(6):
        report = estimate_k(lam, 2, seed)
        h.update(repr([x.hex() for x in report.values]).encode())
        h.update(report.worst_pair[2].weights.tobytes())
    return h.hexdigest()


CORPUS_DIGEST = "169f7d16b2760b6c0da24690d9febd30bf29e23ba3155c60c060803723a66c18"


def test_corpus_digest_is_unchanged():
    assert corpus_digest() == CORPUS_DIGEST


class TestSimplexAgainstReference:
    def test_seeded_corpus(self):
        pivots = [assert_simplex_matches_reference(*simplex_inputs(mu, nu, p))
                  for mu, nu, p in simplex_corpus()]
        assert sum(pivots) > 0
        assert 0 in pivots

    def test_small_pairs_match_the_oracle(self):
        rng = seeded(31)
        pivots = 0
        for trial in range(24):
            mu, nu = small_pair(rng)
            p = (1.0, 2.0)[trial % 2]
            pivots += assert_simplex_matches_reference(*simplex_inputs(mu, nu, p))
            assert wasserstein_p(mu, nu, p)[0] == pytest.approx(
                brute_force_wasserstein(mu, nu, p), abs=1e-7
            )
        assert pivots > 0


def test_every_pivot_keeps_the_tree_strongly_feasible(monkeypatch):
    # Strongly feasible: every zero-flow tree arc points toward the root.
    # Arcs run from row to column, so such an arc hangs a row under a
    # column. Checked on each start tree and after every pivot.
    counts = {"pivots": 0, "degenerate": 0}
    real_pivot = transport._pivot

    def assert_strongly_feasible(parent, flow, m):
        assert [x for x in range(m, len(parent)) if flow[x] == 0.0] == []

    def checking_pivot(parent, depth, flow, nbr, m, entering):
        assert_strongly_feasible(parent, flow, m)
        out = real_pivot(parent, depth, flow, nbr, m, entering)
        assert_strongly_feasible(parent, flow, m)
        counts["pivots"] += 1
        counts["degenerate"] += out[0] == 0.0
        return out

    monkeypatch.setattr(transport, "_pivot", checking_pivot)
    for mu, nu, p in simplex_corpus() + [(*half_support_cycle_pair(), 2.0)]:
        wasserstein_p(mu, nu, p)
    assert counts["degenerate"] > 0
    assert counts["pivots"] > counts["degenerate"]


def start_sweep():
    """Seeded transportation problems with m, n <= 30 and integer costs in
    {0..4}·1e9, so many cells tie. Masses are w / w.sum() for integer w in
    1..3, or uniform 1/m against 1/n, whose float totals drift apart."""
    rng = seeded(36)
    cases = []
    for trial in range(3000):
        m, n = (int(x) for x in rng.integers(1, 31, size=2))
        cost = rng.integers(0, 5, size=(m, n)) * 10**9
        if trial % 3 == 0:
            a, b = np.full(m, 1 / m), np.full(n, 1 / n)
        else:
            wa, wb = rng.integers(1, 4, size=m), rng.integers(1, 4, size=n)
            a, b = wa / wa.sum(), wb / wb.sum()
        cases.append((a, b, cost))
    return cases


def test_least_cost_start_is_strongly_feasible():
    # A tie in mass that closes the row, or a forced last line that gives
    # the smaller remainder, each leaves zero-flow column arcs here.
    for a, b, cost in start_sweep():
        m, n = cost.shape
        parent, _, flow, u, v = transport._least_cost_tree(a, b, cost)
        assert parent[0] == -1 and min(parent[1:], default=0) >= 0  # m + n - 1 cells
        assert min(flow) >= 0.0
        assert 0.0 not in flow[m:]
        x = np.arange(1, m + n)
        i, j = np.minimum(x, parent[1:]), np.maximum(x, parent[1:]) - m
        assert (cost[i, j] == u[i] + v[j]).all()


def test_start_moves_no_tie_free_solve(monkeypatch):
    # A tie-free, nondegenerate optimum is fixed by its basis, so pivoting
    # from the staircase ends in the same bytes, after more pivots.
    def staircase_start(a, b, cost_int):
        parent, depth, flow, u, v = transport._staircase_tree(
            *transport._northwest_basis(a, b), cost_int)
        return parent.tolist(), depth.tolist(), flow.tolist(), u, v

    pivots = []
    real_pivot = transport._pivot

    def counting_pivot(*args):
        pivots[-1] += 1
        return real_pivot(*args)

    monkeypatch.setattr(transport, "_pivot", counting_pivot)
    solved = []
    for start in (transport._least_cost_tree, staircase_start):
        monkeypatch.setattr(transport, "_least_cost_tree", start)
        pivots.append(0)
        solved.append([solve_bytes(*wasserstein_p(mu, nu, p))
                       for mu, nu, p in euclidean_pairs()])
    assert solved[0] == solved[1]
    assert pivots[0] < pivots[1]


def test_pivot_budget_is_enforced(monkeypatch):
    # A pivot that changes no tree arc and reports the whole tree as the
    # re-hung subtree shifts every potential alike, so the same arc enters
    # forever; the loop must give up after 10000 + 200·m·n pivots.
    rng = seeded(40)
    space = euclidean_space(rng, 4)
    mu, nu = random_measure(rng, space, 4), random_measure(rng, space, 4)
    calls = 0
    real_pivot = transport._pivot

    def counting_pivot(*args):
        nonlocal calls
        calls += 1
        return real_pivot(*args)

    def stuck_pivot(parent, depth, flow, nbr, m, entering):
        nonlocal calls
        calls += 1
        return 0.0, entering[0], list(range(len(parent)))

    monkeypatch.setattr(transport, "_pivot", counting_pivot)
    wasserstein_p(mu, nu, 2.0)
    assert calls > 0
    calls = 0
    monkeypatch.setattr(transport, "_pivot", stuck_pivot)
    budget = 10000 + 200 * 4 * 4
    with pytest.raises(SolverFailure,
                       match=f"pivot budget exhausted after {budget + 1} pivots"):
        wasserstein_p(mu, nu, 2.0)
    assert calls == budget + 1


class TestCouplingAgainstReference:
    """Values and matrices are those of the sorted dict walk, bit for bit."""

    def test_seeded_corpus(self):
        for mu, nu, p in simplex_corpus():
            assert_coupling_matches_reference(*wasserstein_p(mu, nu, p))

    def test_other_powers(self):
        for mu, nu, _ in simplex_corpus()[:24]:
            for p in (1.5, 3):
                assert_coupling_matches_reference(*wasserstein_p(mu, nu, p))

    def test_full_support_pairs_need_no_pivot(self, monkeypatch):
        # Densities on a line: the north-west start is optimal, so the
        # whole coupling comes from the staircase arrays.
        def no_pivot(*args):
            raise AssertionError("unexpected pivot")

        monkeypatch.setattr(transport, "_pivot", no_pivot)
        lam = DiscreteMeasure.uniform(dyadic_interval_space(8))
        rng = seeded(33)
        for _ in range(4):
            mu, nu = curvature.random_density_pair(lam, rng)
            assert_coupling_matches_reference(*wasserstein_p(mu, nu, 2))
            assert_coupling_matches_reference(*wasserstein_p(nu, mu, 2))

    def test_signed_zero_distance(self):
        # -0.0 is a valid distance; the sequential sum from 0.0 gives W = 0.0.
        space = validate_metric(np.array([[-0.0, 1.0], [1.0, -0.0]]))
        mu = DiscreteMeasure.dirac(space, 0)
        value, coupling = wasserstein_p(mu, mu, 1.0)
        assert value.hex() == "0x0.0p+0"
        assert_coupling_matches_reference(value, coupling)


def euclidean_pairs():
    """Seeded full-support W_2 pairs on Euclidean spaces up to n = 128,
    where the rows outnumber one pricing block: no ties."""
    rng = seeded(34)
    cases = []
    for n in (24, 48, 96, 128):
        space = euclidean_space(rng, n)
        cases.append((random_measure(rng, space, n), random_measure(rng, space, n), 2.0))
    return cases


def solve_recording(mu, nu, p, block=None):
    """(W_p, coupling, number of pivoting passes); with ``block``, the
    solver prices that many rows per block."""
    passes = 0
    real = transport._pivot_until_optimal

    def recording(*args):
        nonlocal passes
        passes += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_pivot_until_optimal", recording)
        if block is not None:
            mp.setattr(transport, "_BLOCK_ROWS", block)
        value, coupling = wasserstein_p(mu, nu, p)
    return value, coupling, passes


def solve_bytes(value, coupling):
    st = coupling._state
    return (coupling.matrix.tobytes(), value.hex(), st.u.tobytes(), st.v.tobytes(),
            st.reduced.tobytes(), st.parent.tobytes())


class TestBlockSearch:
    """Block search ends where Dantzig pricing (one block of all rows) does."""

    def test_tie_free_corpus_matches_dantzig(self):
        corpus = euclidean_pairs() + [case for case in simplex_corpus()
                                      if case[0].space.geodesic_structure is None]
        moved = 0
        for mu, nu, p in corpus:
            value, coupling, passes = solve_recording(mu, nu, p)
            assert not has_alternate_optimum(coupling)
            assert passes <= 1
            dantzig = solve_recording(mu, nu, p, block=10**9)
            assert solve_bytes(value, coupling) == solve_bytes(*dantzig[:2])
            moved += passes and len(coupling._state.rows) > transport._BLOCK_ROWS
        assert moved >= 4

    def test_ties_take_one_pass_and_match_dantzig_value(self):
        # A tie plan is the one block search stops at; Dantzig pricing may
        # stop at another plan of the same cost.
        tied = 0
        for mu, nu, p in simplex_corpus():
            value, coupling, passes = solve_recording(mu, nu, p)
            if not has_alternate_optimum(coupling):
                continue
            assert passes <= 1
            dantzig = solve_recording(mu, nu, p, block=10**9)[0]
            assert abs(value - dantzig) <= 1e-15 * dantzig
            tied += passes
        assert tied > 0

    def test_no_coupling_entry_is_negative(self):
        for mu, nu, p in simplex_corpus():
            matrix = wasserstein_p(mu, nu, p)[1].matrix
            assert not np.signbit(matrix).any()


class TestAlternatesAgainstReference:
    """The tree and reduced costs kept in the state are those a rebuild
    gives, and the alternates pivot from them as the dict reference does."""

    def test_seeded_corpus(self):
        square = TestAlternateOptima()._square_measures()
        alternates = 0
        for mu, nu, p in simplex_corpus() + [(*square, 2.0), (*square[::-1], 2.0)]:
            _, coupling = wasserstein_p(mu, nu, p)
            arcs, plans, reduced = reference_alternates(coupling, 64)
            assert coupling._state.reduced.tobytes() == reduced.tobytes()
            assert has_alternate_optimum(coupling) == bool(arcs)
            others = alternate_optimal_couplings(coupling, limit=64)
            assert [(o.cost_p.hex(), o.matrix.tobytes()) for o in others] == [
                (value.hex(), matrix.tobytes()) for value, matrix in plans
            ]
            for st in [coupling._state] + [o._state for o in others]:
                basic = dict_state(st.parent, st.flow, len(st.rows))[1]
                assert_tree_matches_rebuild(st.parent, st.depth, basic,
                                            len(st.rows), len(st.cols))
            alternates += len(others)
        assert alternates > 0


def highs_cost(mu, nu, p):
    """Optimal sum(gamma * d^p) over couplings of mu and nu, by HiGHS."""
    a, b = mu.weights[mu.support], nu.weights[nu.support]
    cost = mu.space.dist[np.ix_(mu.support, nu.support)] ** p
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    res = linprog(cost.ravel(), A_eq=sparse.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


class TestAgainstHighs:
    def test_well_scaled_instances(self):
        # Distances O(1) only: HiGHS works to absolute tolerances, so it is
        # no oracle on spaces scaled far below 1.
        rng = seeded(32)
        for trial in range(20):
            space = euclidean_space(rng, int(rng.integers(2, 49)))
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            p = (1.0, 2.0)[trial % 2]
            assert wasserstein_p(mu, nu, p)[0] ** p == pytest.approx(
                highs_cost(mu, nu, p), rel=1e-9
            )


if __name__ == "__main__":
    print(corpus_digest())
