"""Exact p-Wasserstein distances and optimal couplings.

Three independent routes:

* ``wasserstein_p``: primal network simplex on the bipartite support graph
  with integer-scaled costs, so every pivot decision compares exact
  integers and the returned optimum is bit-stable across runs. The final
  cost is recomputed in floating point from the integral optimal basis.
* ``assignment_wasserstein``: expands equal-weight clouds to atom lists and
  solves the assignment problem with scipy's exact solver; shares no code
  with the simplex.
* ``brute_force_wasserstein``: enumerates transport-polytope vertices as
  spanning-tree flows of the bipartite support graph. Slow, small
  instances only; this is the oracle the other two are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    NotUniformCloud,
    SizeMismatch,
    SolverFailure,
    SpaceMismatch,
    TooLarge,
)
from .measures import ATOM_CAP, DiscreteMeasure
from .spaces import FiniteMetricSpace, same_space

#: Cost integerization factor; pivoting is exact on round(d^p * SCALE).
SCALE = 10**9

#: Cell bound for the enumeration oracle (|supp mu| * |supp nu|).
BRUTE_FORCE_LIMIT = 12

#: Largest expanded cloud size the assignment route will materialize; the
#: cost matrix is dense, so this bounds memory at ~32 MB.
ASSIGNMENT_CAP = 2048


@dataclass(frozen=True)
class _SolverState:
    """Internal simplex terminal state, kept for optimum diagnostics."""

    rows: np.ndarray
    cols: np.ndarray
    cost_float: np.ndarray
    cost_int: np.ndarray
    flows: dict
    basic: frozenset
    u: np.ndarray
    v: np.ndarray
    #: True when the presented coupling is the transpose of the solved one.
    flipped: bool


@dataclass(frozen=True)
class Coupling:
    """A transport plan between two measures, with its p-cost."""

    row_space: FiniteMetricSpace
    col_space: FiniteMetricSpace
    matrix: np.ndarray
    cost_p: float
    p: float
    _state: Optional[_SolverState] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Assignment:
    """An optimal pairing of two equal-size atom lists."""

    permutation: tuple[int, ...]
    cost_p: float
    p: float
    atoms_a: tuple[int, ...]
    atoms_b: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.permutation)


class ProjectionResult(NamedTuple):
    tau: dict[int, int]
    pushforward: DiscreteMeasure
    cost: float


def _shared_space(mu: DiscreteMeasure, nu: DiscreteMeasure) -> FiniteMetricSpace:
    if not same_space(mu.space, nu.space):
        raise SpaceMismatch("measures live on different spaces")
    return mu.space


def wasserstein_p(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: float
) -> tuple[float, Coupling]:
    """Exact W_p distance and an optimal coupling.

    Deterministic: identical inputs give the identical coupling, because
    all pivot choices break ties by arc index over exact integers.
    Symmetric to the last bit: the pair is solved in a fixed orientation
    and transposed back, so both argument orders share every pivot and
    every rounding.
    """
    space = _shared_space(mu, nu)
    if p < 1:
        raise ValueError("p must be >= 1")
    flipped = nu.weights.tobytes() < mu.weights.tobytes()
    src, dst = (nu, mu) if flipped else (mu, nu)
    rows = src.support
    cols = dst.support
    cost_float = space.dist[np.ix_(rows, cols)] ** p
    # Guard on the float side: the int64 cast itself wraps on overflow.
    biggest = float(np.abs(cost_float).max(initial=0.0)) * SCALE
    if not np.isfinite(biggest) or biggest * (len(rows) + len(cols) + 2) >= 2.0**60:
        raise SolverFailure(
            "scaled costs too large for exact pivoting; rescale distances "
            "toward the documented O(1)-O(1e3) range"
        )
    cost_int = np.rint(cost_float * SCALE).astype(np.int64)
    flows, basic, u, v = _network_simplex(src.weights[rows], dst.weights[cols], cost_int)
    state = _SolverState(rows, cols, cost_float, cost_int, flows,
                         frozenset(basic), u, v, flipped)
    return _coupling_from_state(state, mu.space, nu.space, p)


def _coupling_from_state(
    state: _SolverState,
    row_space: FiniteMetricSpace,
    col_space: FiniteMetricSpace,
    p: float,
) -> tuple[float, Coupling]:
    """The presented coupling of a solver state, and its W_p value.

    Flows are summed in arc order, so a plan and its transpose share every
    rounding.
    """
    cost_pow = 0.0
    gamma = np.zeros((row_space.n_points, col_space.n_points))
    for (i, j), f in sorted(state.flows.items()):
        cost_pow += f * state.cost_float[i, j]
        gamma[state.rows[i], state.cols[j]] = f
    if state.flipped:
        gamma = gamma.T.copy()
    value = cost_pow ** (1.0 / p)
    return value, Coupling(row_space, col_space, gamma, value, p, state)


def _zero_cost_nonbasic(state: _SolverState) -> list[tuple[int, int]]:
    """Nonbasic arcs with reduced cost exactly zero, in arc-index order."""
    red = state.cost_int - state.u[:, None] - state.v[None, :]
    mask = red == 0
    for i, j in state.basic:
        mask[i, j] = False
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]


def has_alternate_optimum(coupling: Coupling) -> bool:
    """Whether a second optimal basis exists (zero reduced cost check)."""
    st = coupling._state
    return st is not None and bool(_zero_cost_nonbasic(st))


def alternate_optimal_couplings(coupling: Coupling, limit: int = 8) -> list[Coupling]:
    """Optimal couplings adjacent to this one through zero-cost pivots.

    Enumerates nonbasic arcs with reduced cost exactly zero in arc-index
    order, pivots each in, and keeps the pivots that actually move mass
    (degenerate pivots reproduce the same plan and are skipped). Bounded by
    ``limit``; this is a local search, not a full enumeration of the
    optimal face.
    """
    st = coupling._state
    if st is None or limit <= 0:
        return []
    arcs = _zero_cost_nonbasic(st)
    if not arcs:
        return []
    m, n = st.cost_int.shape
    parent, order = _build_tree(st.basic, m, n)
    depth = _depths(parent, order)
    out: list[Coupling] = []
    for arc in arcs:
        flows = dict(st.flows)
        theta, leaving = _pivot(parent, depth, m, flows, arc)
        if theta <= 0.0:
            continue
        # The entering arc has zero reduced cost, so u and v stay valid
        # optimal potentials for the new basis.
        state = _SolverState(st.rows, st.cols, st.cost_float, st.cost_int, flows,
                             st.basic - {leaving} | {arc}, st.u, st.v, st.flipped)
        out.append(_coupling_from_state(state, coupling.row_space,
                                        coupling.col_space, coupling.p)[1])
        if len(out) >= limit:
            break
    return out


def assignment_wasserstein(
    cloud_a: DiscreteMeasure, cloud_b: DiscreteMeasure, p: float
) -> tuple[float, Assignment]:
    """W_p between two uniform Dirac clouds via an optimal permutation.

    Each cloud's uniform size is recovered from its weights (rational
    reconstruction; repeated atoms allowed), the clouds are expanded to a
    common size, and the assignment problem is solved exactly. The value
    matches ``wasserstein_p`` on the same inputs to 1e-9.
    """
    space = _shared_space(cloud_a, cloud_b)
    if p < 1:
        raise ValueError("p must be >= 1")
    na, counts_a = _uniform_size(cloud_a)
    nb, counts_b = _uniform_size(cloud_b)
    common = na * nb // math.gcd(na, nb)
    if common > ASSIGNMENT_CAP:
        raise SizeMismatch(
            f"clouds of sizes {na} and {nb} share no uniform size "
            f"within {ASSIGNMENT_CAP} atoms"
        )
    atoms_a = np.repeat(cloud_a.support, counts_a * (common // na))
    atoms_b = np.repeat(cloud_b.support, counts_b * (common // nb))
    cost = space.dist[np.ix_(atoms_a, atoms_b)] ** p
    ridx, sigma = linear_sum_assignment(cost)
    cost_pow = float(cost[ridx, sigma].sum()) / common
    value = cost_pow ** (1.0 / p)
    return value, Assignment(tuple(int(s) for s in sigma), value, p,
                             tuple(int(x) for x in atoms_a),
                             tuple(int(x) for x in atoms_b))


def _uniform_size(cloud: DiscreteMeasure) -> tuple[int, np.ndarray]:
    """Minimal N with all weights integer multiples of 1/N, plus counts."""
    sup = cloud.support
    w = cloud.weights[sup]
    n = 1
    for x in w:
        frac = Fraction(float(x)).limit_denominator(ATOM_CAP)
        # A true count/N weight sits within one ulp of its fraction; 1e-12
        # keeps that while rejecting lucky approximants of irrationals
        # (1/pi is 5.8e-10 from its best small-denominator rational).
        if abs(float(frac) - float(x)) > 1e-12:
            raise NotUniformCloud(
                f"weight {x:.12g} is not a multiple of 1/N for any N <= {ATOM_CAP}"
            )
        n = n * frac.denominator // math.gcd(n, frac.denominator)
        if n > ATOM_CAP:
            raise NotUniformCloud(
                f"weights need more than {ATOM_CAP} atoms to realize uniformly"
            )
    counts = np.rint(w * n).astype(np.int64)
    if int(counts.sum()) != n or np.any(np.abs(w * n - counts) > 1e-8):
        raise NotUniformCloud("weights do not form an equal-weight cloud")
    return n, counts


def brute_force_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Exact W_p by enumerating every vertex of the transport polytope.

    Each vertex is the unique flow carried by some spanning tree of the
    complete bipartite support graph, so trying all trees and keeping the
    cheapest feasible flow is exact. (Permuted north-west-corner fills
    are NOT enough: a tree with leaf rows on three distinct columns plus
    a full row is no staircase in any ordering.) Exponentially slow; the
    cell bound keeps it honest.
    """
    space = _shared_space(mu, nu)
    if p < 1:
        raise ValueError("p must be >= 1")
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    if m * n > BRUTE_FORCE_LIMIT:
        raise TooLarge(
            f"supports give {m}*{n} cells; oracle bound is {BRUTE_FORCE_LIMIT}"
        )
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


def nearest_atom_projection(
    mu: DiscreteMeasure, cloud: DiscreteMeasure, p: float
) -> ProjectionResult:
    """Map every point of supp(mu) to its nearest cloud atom.

    Ties resolve to the lowest atom index. The projection cost sits between
    W_p(mu, pushforward) and W_p(mu, cloud); both bounds are exact and
    asserted in the tests via the solver.
    """
    space = _shared_space(mu, cloud)
    if p < 1:
        raise ValueError("p must be >= 1")
    atoms = cloud.support
    sources = mu.support
    d_pow = space.dist[np.ix_(sources, atoms)] ** p
    choice = np.argmin(d_pow, axis=1)  # first minimum = lowest atom index
    tau = {int(x): int(atoms[c]) for x, c in zip(sources, choice)}
    push = np.zeros(space.n_points)
    np.add.at(push, atoms[choice], mu.weights[sources])
    cost_pow = float(mu.weights[sources] @ d_pow[np.arange(len(sources)), choice])
    return ProjectionResult(tau, DiscreteMeasure(space, push),
                            cost_pow ** (1.0 / p))


# -- network simplex core ---------------------------------------------------

def _northwest_basis(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible flow: the north-west corner staircase."""
    m, n = len(a), len(b)
    rem_a = a.astype(np.float64).copy()
    rem_b = b.astype(np.float64).copy()
    flows: dict[tuple[int, int], float] = {}
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


def _build_tree(basic, m: int, n: int):
    """Parent array and preorder for the basis tree, rooted at source 0."""
    size = m + n
    nbr: list[list[int]] = [[] for _ in range(size)]
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
    if len(order) != size:
        raise SolverFailure("basis lost spanning-tree structure")
    return parent, order


def _depths(parent, order):
    depth = [0] * len(parent)
    for node in order[1:]:
        depth[node] = depth[parent[node]] + 1
    return depth


def _potentials(parent, order, cost_int: np.ndarray):
    """Dual values making every basic arc's reduced cost zero."""
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


def _pivot_cycle(parent, depth, m: int, arc: tuple[int, int]):
    """Cycle closed by ``arc``, as alternating-sign cells.

    The first cell is the entering arc with sign +1; signs alternate along
    the traversal, which is exact because every cycle in a bipartite graph
    alternates sides.
    """
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
    seq = py + px[-2::-1]  # entering sink up to the meet, then down to source
    cells = [arc]
    signs = [1]
    prev = seq[0]
    sgn = -1
    for node in seq[1:]:
        if prev < m:
            cells.append((prev, node - m))
        else:
            cells.append((node, prev - m))
        signs.append(sgn)
        sgn = -sgn
        prev = node
    return cells, signs


def _pivot(parent, depth, m: int, flows: dict, entering: tuple[int, int]):
    """Push flow around the cycle that ``entering`` closes.

    Theta is the least flow on the draining cells; the leaving arc is the
    lowest-index drained cell that carried exactly theta. ``flows`` is
    updated in place, the leaving arc dropped from it, and
    ``(theta, leaving)`` returned.
    """
    cells, signs = _pivot_cycle(parent, depth, m, entering)
    drains = [c for c, s in zip(cells, signs) if s < 0]
    if not drains:
        raise SolverFailure("unbounded pivot on a bounded polytope")
    theta = min(flows[c] for c in drains)
    leaving = min(c for c in drains if flows[c] == theta)
    for c, s in zip(cells, signs):
        if s > 0:
            flows[c] = flows.get(c, 0.0) + theta
        else:
            flows[c] = max(flows[c] - theta, 0.0)
    flows.pop(leaving)
    return theta, leaving


def _network_simplex(a: np.ndarray, b: np.ndarray, cost_int: np.ndarray):
    """Minimize the integer-scaled cost over the transport polytope.

    Dantzig pricing with lexicographic tie-breaks; falls back to Bland's
    rule after a pivot budget so termination is guaranteed even on
    degenerate instances. All optimality decisions are integer-exact.
    """
    m, n = cost_int.shape
    flows = _northwest_basis(a, b)
    basic = set(flows.keys())
    dantzig_budget = 50 * (m + n)
    hard_cap = 10000 + 200 * m * n
    pivots = 0
    while True:
        parent, order = _build_tree(basic, m, n)
        u, v = _potentials(parent, order, cost_int)
        reduced = cost_int - u[:, None] - v[None, :]
        if pivots < dantzig_budget:
            k = int(np.argmin(reduced))
            if reduced.flat[k] >= 0:
                break
        else:
            negative = reduced.ravel() < 0
            if not negative.any():
                break
            k = int(np.argmax(negative))
        entering = (k // n, k % n)
        depth = _depths(parent, order)
        _, leaving = _pivot(parent, depth, m, flows, entering)
        basic.discard(leaving)
        basic.add(entering)
        pivots += 1
        if pivots > hard_cap:
            raise SolverFailure(f"pivot budget exhausted after {pivots} pivots")
    return flows, basic, u, v
