"""Exact p-Wasserstein distances and optimal couplings.

Two independent routes:

* ``wasserstein_p``: primal network simplex with block-search pricing on
  the bipartite support graph, on costs scaled by a per-solve power of
  two and rounded, so every pivot decision compares exact integers in any
  distance unit. It returns the north-west staircase when that is
  optimal, and otherwise pivots from a least-cost start (the
  matrix-minimum rule). The coupling is read from the final basis alone
  (its flows are summed over the final tree), and the cost is recomputed
  from it in floating point, so the returned optimum is bit-stable.
* ``assignment_wasserstein``: expands equal-weight clouds to atom lists and
  solves the assignment problem with scipy's exact solver; shares no
  optimization code with the simplex.

The test suite checks both against an enumeration of the transport
polytope's vertices on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._util import check_p
from .errors import (
    NotUniformCloud,
    SizeMismatch,
    SolverFailure,
    SpaceMismatch,
)
from .measures import ATOM_CAP, DiscreteMeasure
from .spaces import FiniteMetricSpace, same_space

#: Rows priced per step of the block search (see ``_price``). On random
#: Euclidean W_2 solves at n = 128 and 256 (2-vCPU Xeon), 8 to 32 rows
#: were equally fast and 64 slower: smaller blocks take more pivots,
#: larger ones price more cells per pivot.
_BLOCK_ROWS = 16

#: The least normal float: a p-cost below it has lost precision to underflow.
_TINY = np.finfo(np.float64).tiny

#: Largest expanded cloud size the assignment route will materialize; the
#: cost matrix is dense, so this bounds memory at ~32 MB.
ASSIGNMENT_CAP = 2048


@dataclass(frozen=True)
class _SolverState:
    """Internal simplex terminal state, kept for optimum diagnostics: the
    solved supports, the basis tree by node (see the network simplex
    core), and the integer duals and reduced costs."""

    rows: np.ndarray
    cols: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    flow: np.ndarray
    u: np.ndarray
    v: np.ndarray
    reduced: np.ndarray
    #: True when the presented coupling is the transpose of the solved one.
    flipped: bool


@dataclass(frozen=True)
class Coupling:
    """A transport plan between two measures on one space, with its p-cost.

    Only the solver builds couplings; ``_state`` is the simplex state the
    plan was read from, which the optimum diagnostics inspect.
    """

    space: FiniteMetricSpace
    matrix: np.ndarray
    cost_p: float
    p: float
    _state: _SolverState = field(repr=False, compare=False)


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

    Deterministic: identical inputs give the identical coupling. Pivot
    choices compare exact integers and break ties by arc index or by
    place on the pivot's cycle, and the coupling is a function of the
    final basis alone, not of the pivots that reached it. Where optima tie
    (the final basis has a nonbasic arc of reduced cost zero), the
    coupling is the one of the basis where block search stops. Symmetric
    to the last bit: the pair is solved in a fixed orientation and
    transposed back, so both argument orders share every pivot and every
    rounding.
    """
    space = _shared_space(mu, nu)
    check_p(p)
    flipped = nu.weights.tobytes() < mu.weights.tobytes()
    src, dst = (nu, mu) if flipped else (mu, nu)
    rows, cols = src.support, dst.support
    cost_int = _integer_costs(space.dist[rows].take(cols, axis=1), p)
    state = _SolverState(rows, cols,
                         *_network_simplex(src.weights[rows], dst.weights[cols], cost_int),
                         flipped)
    return _coupling_from_state(state, space, p)


def _integer_costs(dist_block: np.ndarray, p: float) -> np.ndarray:
    """``dist_block ** p`` times the power of two that puts the top cost under
    2**60 / (m + n + 2) (by frexp(top): the product may be inf), so no int64
    potential or reduced cost overflows, rounded. ``np.ldexp`` scales exactly
    for any shift, so a solve is invariant to the distance scale, though not
    to the block's dynamic range: a cost below about (m + n + 2) * 2**-60 of
    the top rounds to 0. Overwrites the block, which must be C-ordered for
    pricing. ``SolverFailure`` if the top cost overflows; a plan whose costs
    underflowed is refused at its value (``_pth_root``)."""
    top_dist = dist_block.max(initial=0.0)
    with np.errstate(over="ignore"):
        cost, top = np.power(dist_block, p, out=dist_block), top_dist ** p
    if not np.isfinite(top):
        raise SolverFailure(f"d**p = {top:.3g} at d = {top_dist:.3g} has no exact scale")
    shift = 60 - math.frexp(top)[1] - (sum(dist_block.shape) + 2).bit_length()
    np.ldexp(cost, shift, out=cost)
    return np.rint(cost, out=cost).astype(np.int64)


def _pth_root(cost_pow: float, p: float, dist: np.ndarray, mass: np.ndarray) -> float:
    """W_p from a plan's p-cost ``cost_pow``; the plan's cells move ``mass``
    over ``dist``.

    ``SolverFailure`` if the p-cost is below the normal float range while
    some cell moves mass over a positive distance: some ``d**p`` underflowed,
    so the value (and the plan chosen on it) cannot be trusted, as when
    ``0.5**1e6`` reads 0. The distances are read only then.
    """
    if cost_pow < _TINY and np.any(dist[mass > 0] > 0.0):
        raise SolverFailure(f"p-cost {cost_pow:.3g} of a plan that moves mass "
                            "is below the normal float range")
    return cost_pow ** (1.0 / p)


def _coupling_from_state(
    state: _SolverState, space: FiniteMetricSpace, p: float
) -> tuple[float, Coupling]:
    """The presented coupling of a solver state, and its W_p value.

    Flows are summed sequentially in arc order (``cumsum``, not the
    pairwise ``sum``), so a plan and its transpose share every rounding.
    The sum starts from 0.0, which turns an all -0.0 sum into 0.0. Cell
    (i, j) costs ``space.dist[rows[i], cols[j]] ** p``, in the orientation
    that was solved.
    """
    i, j = _basic_cells(state.parent, len(state.rows))
    order = np.argsort(i * len(state.cols) + j)
    x, y, f = state.rows[i[order]], state.cols[j[order]], state.flow[1:][order]
    d = space.dist[x, y]
    cost_pow = 0.0 + np.cumsum(f * d ** p)[-1]
    gamma = np.zeros((space.n_points, space.n_points))
    gamma[(y, x) if state.flipped else (x, y)] = f
    value = _pth_root(cost_pow, p, d, f)
    return value, Coupling(space, gamma, value, p, state)


def _basic_cells(parent: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each non-root node's arc to its parent; rows are
    numbered below columns, so the row is the lower node."""
    nodes = np.arange(1, len(parent))
    up = parent[1:]
    return np.minimum(nodes, up), np.maximum(nodes, up) - m


def _zero_cost_nonbasic(state: _SolverState) -> list[tuple[int, int]]:
    """Nonbasic arcs with reduced cost exactly zero, in arc-index order."""
    mask = state.reduced == 0
    mask[_basic_cells(state.parent, len(state.rows))] = False
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]


def has_alternate_optimum(coupling: Coupling) -> bool:
    """Whether a second optimal basis exists: a nonbasic arc has reduced
    cost exactly zero."""
    reduced = coupling._state.reduced
    # Each of the m + n - 1 basic arcs has reduced cost zero; any further
    # zero is a nonbasic one.
    return int(np.count_nonzero(reduced == 0)) >= sum(reduced.shape)


def alternate_optimal_couplings(coupling: Coupling, limit: int = 8) -> list[Coupling]:
    """Optimal couplings adjacent to this one through zero-cost pivots.

    Enumerates nonbasic arcs with reduced cost exactly zero in arc-index
    order, pivots each in, and keeps the pivots that actually move mass
    (degenerate pivots reproduce the same plan and are skipped). Bounded by
    ``limit``; this is a local search, not a full enumeration of the
    optimal face.
    """
    st = coupling._state
    # One count of the zeros rules out most couplings before the full
    # mask of zero-cost arcs is built.
    if limit <= 0 or not has_alternate_optimum(coupling):
        return []
    arcs = _zero_cost_nonbasic(st)
    tree = st.parent.tolist(), st.depth.tolist(), st.flow.tolist()
    nbr = _adjacency(tree[0])
    out: list[Coupling] = []
    for arc in arcs:
        parent, depth, flow = (list(x) for x in tree)
        theta, _, _ = _pivot(parent, depth, flow, [list(x) for x in nbr],
                             len(st.rows), arc)
        if theta <= 0.0:
            continue
        # The entering arc has zero reduced cost, so u, v and the reduced
        # costs stay those of the new basis.
        state = _SolverState(st.rows, st.cols, np.array(parent),
                             np.array(depth), np.array(flow), st.u, st.v,
                             st.reduced, st.flipped)
        out.append(_coupling_from_state(state, coupling.space, coupling.p)[1])
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
    check_p(p)
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
    # Imported here: scipy.optimize is slow to import, and nothing else
    # (the CLI included) needs it.
    from scipy.optimize import linear_sum_assignment

    ridx, sigma = linear_sum_assignment(cost)
    cost_pow = float(cost[ridx, sigma].sum()) / common
    value = _pth_root(cost_pow, p, space.dist[atoms_a[ridx], atoms_b[sigma]],
                      np.ones(common))
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


def nearest_atom_projection(
    mu: DiscreteMeasure, cloud: DiscreteMeasure, p: float
) -> ProjectionResult:
    """Map every point of supp(mu) to its nearest cloud atom.

    Ties resolve to the lowest atom index. The projection cost sits between
    W_p(mu, pushforward) and W_p(mu, cloud); both bounds are exact and
    asserted in the tests via the solver.
    """
    space = _shared_space(mu, cloud)
    check_p(p)
    atoms = cloud.support
    sources = mu.support
    d_pow = space.dist[np.ix_(sources, atoms)] ** p
    choice = np.argmin(d_pow, axis=1)  # first minimum = lowest atom index
    tau = {int(x): int(atoms[c]) for x, c in zip(sources, choice)}
    push = np.zeros(space.n_points)
    np.add.at(push, atoms[choice], mu.weights[sources])
    mass = mu.weights[sources]
    cost_pow = float(mass @ d_pow[np.arange(len(sources)), choice])
    return ProjectionResult(tau, DiscreteMeasure(space, push),
                            _pth_root(cost_pow, p, space.dist[sources, atoms[choice]], mass))


# -- network simplex core ---------------------------------------------------
#
# Nodes 0..m-1 are the sources (rows), m..m+n-1 the sinks (columns). The
# basis is a spanning tree of the bipartite support graph rooted at source
# 0, held in arrays indexed by node: parent, depth, and the flow on each
# non-root node's arc to its parent (as in LEMON's NetworkSimplex), with
# integer potentials u (rows) and v (columns) that give every basic arc
# reduced cost zero. The north-west staircase is such a tree, built by a
# few array passes, and is returned when it is optimal, as it is for
# measures on a line. Otherwise pivoting starts from the matrix-minimum
# tree, which places cells in ascending cost (Reinfeld and Vogel, 1958),
# and so takes far fewer pivots where the staircase ignores the costs;
# the adjacency lists that a pivot's re-hang walks are built only then.
# A pivot swaps one arc, re-hangs only the subtree that the leaving arc
# cuts off and shifts that subtree's potentials by one constant (Ahuja,
# Magnanti, Orlin, *Network Flows*, ch. 11), which are held meanwhile in
# one node array, u for the rows and -v for the columns. Parent, depth
# and the potentials rooted at u[0] = 0 are fixed by the tree alone, so
# updating them in place gives the values a rebuild from scratch would,
# bit for bit. The flows that the start and the pivots give in floating
# point are used to choose the leaving arcs only; the flows returned are
# summed afresh over the final tree, so they too are fixed by the tree,
# whichever start reached it. Pricing is block search, the fastest rule
# in LEMON's experiments (Kovács, *Minimum-cost flow algorithms: an
# experimental evaluation*, OMS 2015): it reads a few rows of reduced
# costs per pivot, where Dantzig's rule reads them all.
#
# Degeneracy is handled by the leaving-arc rule alone. The tree is kept
# strongly feasible: every arc with zero flow points toward the root, and
# since arcs run from row to column, every zero-flow arc hangs a row under
# a column. The staircase is such a tree (a step that exhausts a row and
# a column together goes down, hanging the next row under the column with
# zero flow), so is the matrix-minimum start (see ``_least_cost_tree``),
# and each pivot keeps it so by letting the last blocking arc met on the
# cycle leave (see ``_pivot``). Then no basis repeats, so the simplex
# cannot cycle under any pricing rule (Cunningham, *A network simplex
# method*, Math. Programming 11, 1976; Ahuja, Magnanti and Orlin, section
# 11.5).

def _northwest_basis(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible flow: the north-west corner staircase.

    Returns, for each of its m + n - 1 cells in order, whether the step
    into the next cell goes down a row (else right a column), and the
    cell's flow. The remainders are Python floats, which round as numpy's
    float64 does.
    """
    m, n = len(a), len(b)
    rem_a, rem_b = a.tolist(), b.tolist()
    down = [False] * (m + n - 2)
    flow = [0.0] * (m + n - 1)
    i = j = 0
    ra, rb = rem_a[0], rem_b[0]
    for k in range(m + n - 2):
        take = rb if rb < ra else ra
        flow[k] = take
        ra -= take
        rb -= take
        if (ra == 0.0 and i < m - 1) or j == n - 1:
            i += 1
            ra = rem_a[i]
            down[k] = True
        else:
            j += 1
            rb = rem_b[j]
    flow[-1] = rb if rb < ra else ra
    return np.array(down, dtype=bool), np.array(flow)


def _staircase_tree(down: np.ndarray, flow: np.ndarray, cost_int: np.ndarray):
    """Parent, depth, node flows and potentials of the staircase basis.

    Cell k of the staircase is (i, k - i). Each cell after the first adds
    one node, the next row (a step down) or the next column (a step
    right), whose parent is the cell's other endpoint; the first cell
    hangs column 0 under source 0. A node is one level deeper than the
    last node added on the other side, so depth counts the turns of the
    staircase. Consecutive cells share a node, so the potential of the
    node a step adds moves by the cost difference of the two cells.
    """
    m, n = cost_int.shape
    ii = np.concatenate(([0], np.cumsum(down)))
    jj = np.arange(m + n - 1) - ii
    child = np.where(down, ii[1:], m + jj[1:])
    parent = np.full(m + n, -1)
    parent[m] = 0
    parent[child] = np.where(down, m + jj[1:], ii[1:])
    depth = np.zeros(m + n, dtype=np.int64)
    depth[m] = 1
    depth[child] = 1 + np.cumsum(np.diff(down, prepend=False))
    node_flow = np.zeros(m + n)
    node_flow[m] = flow[0]
    node_flow[child] = flow[1:]
    step = np.diff(cost_int[ii, jj])
    u = np.zeros(m, dtype=np.int64)
    v = np.full(n, cost_int[0, 0])
    u[1:] = np.cumsum(step[down])
    v[1:] += np.cumsum(step[~down])
    return parent, depth, node_flow, u, v


def _least_cost_tree(a: np.ndarray, b: np.ndarray, cost_int: np.ndarray):
    """Parent, depth and node flows (as lists) and potentials of the
    matrix-minimum start, a strongly feasible basis.

    Cells are visited in ascending integer cost, ties to the lower flat
    index, skipping those with a closed line. Each placed cell closes one
    of its two lines and carries that line's whole remainder, which the
    other line loses, so the m + n - 1 placed cells form a spanning tree.
    The line with the smaller remainder closes. Remainders are compared as
    (mass, coefficient of epsilon) under the perturbation that adds one
    epsilon to the supply of every node but source 0 (a column's demand
    shrinks by it) and takes m + n - 1 of them from source 0 (Cunningham,
    1976). Under it no two remainders tie before the last cell and none
    goes below zero, so a row that closes with no mass left lies on the
    far side of its cell from source 0: it hangs under the column, as
    strong feasibility asks. When one side has one line left open, the
    other side's line closes however the floats have drifted, and the last
    cell carries the larger of its two remainders. Parent, depth and
    potentials come from one breadth-first pass from node 0, and each
    node's flow is its cell's take.
    """
    m, n = cost_int.shape
    ra, rb = a.tolist(), b.tolist()
    ea, eb = [1] * m, [-1] * n
    ea[0] = 1 - m - n
    row_open = np.ones(m, dtype=bool)
    col_open = np.ones(n, dtype=bool)
    rows_left, cols_left = m, n
    nbr: list[list[tuple[int, float, int]]] = [[] for _ in range(m + n)]
    flat_cost = cost_int.ravel()
    order = np.argsort(flat_cost, kind="stable")
    chunk = m + n
    for lo in range(0, m * n, chunk):
        cells = order[lo:lo + chunk]
        ii, jj = np.divmod(cells, n)
        keep = row_open[ii] & col_open[jj]
        for i, j, c in zip(ii[keep].tolist(), jj[keep].tolist(),
                           flat_cost[cells[keep]].tolist()):
            if not (row_open[i] and col_open[j]):
                continue
            if rows_left == cols_left == 1:  # the last cell; no other is open
                take = ra[i] if ra[i] > rb[j] else rb[j]
            elif cols_left == 1 or (rows_left > 1 and (ra[i], ea[i]) < (rb[j], eb[j])):
                take = ra[i]
                rb[j] -= take
                eb[j] -= ea[i]
                row_open[i] = False
                rows_left -= 1
            else:
                take = rb[j]
                ra[i] -= take
                ea[i] -= eb[j]
                col_open[j] = False
                cols_left -= 1
            nbr[i].append((m + j, take, c))
            nbr[m + j].append((i, take, c))
    parent = [-2] * (m + n)
    parent[0] = -1
    depth = [0] * (m + n)
    flow = [0.0] * (m + n)
    pot = [0] * (m + n)  # u by row, then v by column
    bfs = [0]
    for node in bfs:
        for q, take, c in nbr[node]:
            if parent[q] == -2:
                parent[q] = node
                depth[q] = depth[node] + 1
                flow[q] = take
                pot[q] = c - pot[node]  # a basic arc has c_ij = u_i + v_j
                bfs.append(q)
    return (parent, depth, flow, np.array(pot[:m], dtype=np.int64),
            np.array(pot[m:], dtype=np.int64))


def _adjacency(parent: list) -> list[list[int]]:
    """Neighbour lists of the tree given by ``parent`` (root at node 0)."""
    nbr: list[list[int]] = [[] for _ in parent]
    for x in range(1, len(parent)):
        nbr[x].append(parent[x])
        nbr[parent[x]].append(x)
    return nbr


def _pivot(parent: list, depth: list, flow: list, nbr: list, m: int,
           entering: tuple[int, int]):
    """Swap ``entering`` into the basis tree, pushing flow around its cycle.

    The cycle is the entering arc plus the tree paths from its endpoints
    up to where they meet, the apex. It alternates sides, so the tree arcs
    at even distance from either endpoint drain and the others gain. Theta
    is the least flow on the draining arcs, and of those that carried
    exactly theta (the blocking arcs) the last one met walking the cycle
    from the apex along the entering arc leaves: down to the source, then
    across and up from the sink. This keeps the tree strongly feasible
    (see the network simplex core). The subtree it cuts off holds exactly
    one entering endpoint, the inner one, and is re-hung from it under the
    other: the arcs on the stem from the inner endpoint up to the cut turn
    over, so each stem arc's flow moves to the node that is now its child,
    and one traversal resets ``parent`` and ``depth`` below the inner
    endpoint. All lists are updated in place. Returns theta, the inner
    endpoint and the subtree's nodes.
    """
    x = source = entering[0]
    y = sink = m + entering[1]
    px, py = [], []  # child nodes of the tree arcs on each side
    while x != y:
        if depth[x] > depth[y]:
            px.append(x)
            x = parent[x]
        else:
            py.append(y)
            y = parent[y]
    # The draining arcs in the order the walk from the apex meets them.
    drains = px[::2][::-1] + py[::2]
    theta = min(flow[c] for c in drains)
    cut = next(c for c in reversed(drains) if flow[c] == theta)
    for c in px[1::2] + py[1::2]:
        flow[c] += theta
    for c in drains:
        flow[c] -= theta  # theta is their least flow, so none goes negative
    side, inner, outer = (px, source, sink) if cut in px else (py, sink, source)
    stem = side[:side.index(cut) + 1]
    for lower, upper in zip(stem[-2::-1], stem[:0:-1]):
        flow[upper] = flow[lower]
    flow[inner] = theta
    up = parent[cut]
    nbr[cut].remove(up)
    nbr[up].remove(cut)
    nbr[inner].append(outer)
    nbr[outer].append(inner)
    parent[inner] = outer
    depth[inner] = depth[outer] + 1
    subtree = [inner]
    for node in subtree:
        up, below = parent[node], depth[node] + 1
        for q in nbr[node]:
            if q != up:
                parent[q] = node
                depth[q] = below
                subtree.append(q)
    return theta, inner, subtree


def _network_simplex(a: np.ndarray, b: np.ndarray, cost_int: np.ndarray):
    """Minimize the integer-scaled cost over the transport polytope.

    The north-west staircase is checked first: its tree, depths, flows and
    potentials come from a few array passes over its cells, and its
    reduced costs are written over ``cost_int``. When none is negative the
    staircase is optimal and is returned as it is. Otherwise the integer
    costs are restored (adding the potentials back is exact), the
    matrix-minimum tree (``_least_cost_tree``) replaces the staircase, and
    its potentials go into one node array, u for the rows and -v for the
    columns, which pivoting updates in place (``_pivot_until_optimal``).
    The flows of such a solve are read from its final basis
    (``_basis_flows``), so they do not depend on the start, and its reduced
    costs are computed once at the end, again over ``cost_int``. All
    optimality decisions are integer-exact. Returns parent, depth, flow
    (by node), u, v and the reduced costs.
    """
    m = len(a)
    parent, depth, flow, u, v = _staircase_tree(*_northwest_basis(a, b), cost_int)
    reduced = cost_int
    reduced -= u[:, None]
    reduced -= v
    if reduced.min() >= 0:
        return parent, depth, flow, u, v, reduced
    cost_int += u[:, None]  # the integer costs again, exactly
    cost_int += v
    parent, depth, flow, u, v = _least_cost_tree(a, b, cost_int)
    pot = np.concatenate((u, -v))
    _pivot_until_optimal(cost_int, parent, depth, flow, pot)
    reduced -= pot[:m, None]
    reduced += pot[m:]
    return (np.array(parent), np.array(depth), _basis_flows(parent, depth, a, b),
            pot[:m], -pot[m:], reduced)


def _pivot_until_optimal(cost: np.ndarray, parent: list, depth: list, flow: list,
                         pot: np.ndarray) -> None:
    """Pivot from the given tree until no reduced cost is negative.

    ``cost`` holds the integer costs and is only read. ``pot`` holds one
    potential per node, u for the rows and -v for the columns, so cell
    (i, j) has reduced cost ``cost[i, j] - pot[i] + pot[m + j]``, exactly.
    Each pivot re-hangs the subtree below the leaving arc and shifts that
    subtree's potentials by one constant, which keeps its own arcs at
    reduced cost zero and brings the entering arc's to zero. More than
    ``hard_cap`` pivots means a fault, since the strongly feasible tree
    rules out cycling. The lists and ``pot`` are updated in place.
    """
    m, n = cost.shape
    nbr = _adjacency(parent)
    hard_cap = 10000 + 200 * m * n
    pivots = 0
    k, delta = _price(cost, pot, 0)
    while delta < 0:
        _, inner, subtree = _pivot(parent, depth, flow, nbr, m, (k // n, k % n))
        pivots += 1
        if pivots > hard_cap:
            raise SolverFailure(f"pivot budget exhausted after {pivots} pivots")
        # Converted once; a list index is converted to read and again to write.
        pot[np.array(subtree)] += -delta if inner >= m else delta
        k, delta = _price(cost, pot, k // n)


def _price(cost: np.ndarray, pot: np.ndarray, row: int) -> tuple[int, int]:
    """The entering arc's flat index and reduced cost; the cost is >= 0
    when no arc can enter.

    Block search: the rows are cut into blocks of ``_BLOCK_ROWS``, and the
    blocks are priced in turn, from the block of ``row`` round to the one
    before it. A block's reduced costs are its rows of ``cost`` less the
    rows' potentials plus the columns' (the node array holds -v). The
    first block with a negative reduced cost gives its least one, ties to
    the lowest arc index. One block of all m rows is Dantzig's rule.
    """
    m = len(cost)
    u, w = pot[:m], pot[m:]
    block = _BLOCK_ROWS
    count = -(-m // block)
    for step in range(count):
        lo = (row // block + step) % count * block
        red = cost[lo:lo + block] - u[lo:lo + block, None]
        red += w
        k = int(red.argmin())
        delta = int(red.flat[k])
        if delta < 0:
            return lo * cost.shape[1] + k, delta
    return -1, 0


def _basis_flows(parent: list, depth: list, a: np.ndarray, b: np.ndarray):
    """Node flows of a basis tree, as sums over the subtrees it cuts off.

    The arc from node x up to its parent carries the supplies ``a`` of the
    rows in x's subtree less the demands ``b`` of its columns: out of x
    when x is a row, into x when it is a column. The sums run leaf to
    root, each node's total added to its parent's in the order
    (-depth, node), so the flows are fixed by the tree alone. An arc whose
    true flow is 0 (a degenerate one) can sum to a residue of a few ulps;
    a negative or -0.0 result is clamped to +0.0, so no flow is negative.
    The root's entry is 0.0.
    """
    m = len(a)
    total = a.tolist() + (-b).tolist()
    order = np.lexsort((np.arange(len(parent)), -np.asarray(depth)))
    for x in order[:-1].tolist():  # the root, at depth 0, sorts last
        total[parent[x]] += total[x]
    flow = np.array(total)
    flow[m:] *= -1.0
    flow[0] = 0.0
    flow[flow <= 0.0] = 0.0
    return flow
