"""Reference routes that check the benchmark's outputs.

Nothing in this module calls into wasserlim. Every expected value is
recomputed from the raw inputs with numpy and scipy, so a defect in the
solver or the interpolation cannot hide behind the code that made it.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: Agreement of two float evaluations of the same sum.
REL_TOL = 1e-12

#: Largest certified relative suboptimality (in W_p^p) of a coupling.
#: Correct solves certify at about 1e-15; the small-scale defect at 5e-2
#: and above.
CERT_TOL = 1e-9

#: Marginal error allowed for a coupling of unit total mass.
MARGINAL_TOL = 1e-12


def fmt17(x: float) -> str:
    """A float at 17 significant digits, as the CLI prints it."""
    return format(float(x), ".17g")


def close(x: float, ref: float, rel: float = REL_TOL) -> bool:
    return abs(x - ref) <= rel * max(abs(ref), 1e-300)


# -- transport --------------------------------------------------------------

def certified_gap(gamma: np.ndarray, cost: np.ndarray) -> float | None:
    """Relative suboptimality of ``gamma`` that its duals can certify.

    Potentials u, v are fitted on the support of gamma (u_i + v_j = c_ij
    along a spanning tree of it). For any coupling pi of unit mass,
    sum(pi*c) >= sum(a*u) + sum(b*v) + min(reduced), while
    sum(gamma*c) <= sum(a*u) + sum(b*v) + max|reduced on the support|,
    so their difference bounds the gap to the optimum. Returns None when
    the support does not span both sides (a degenerate plan), where the
    caller falls back to the LP route.
    """
    m, n = cost.shape
    rows, cols = np.nonzero(gamma > 0)
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot: list = [None] * (m + n)
    pot[0] = 0.0
    queue = [0]
    for x in queue:
        for y in adj[x]:
            if pot[y] is None:
                pot[y] = cost[x, y - m] - pot[x] if x < m else cost[y, x - m] - pot[x]
                queue.append(y)
    if any(q is None for q in pot):
        return None
    u = np.array(pot[:m])
    v = np.array(pot[m:])
    reduced = cost - u[:, None] - v[None, :]
    slack = max(0.0, -float(reduced.min())) + float(np.abs(reduced[rows, cols]).max())
    return slack / float((gamma * cost).sum())


def lp_cost(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Optimal sum(pi*c) over couplings of a and b, by HiGHS."""
    m, n = cost.shape
    row_sums = sparse.kron(sparse.eye(m), np.ones((1, n)))
    col_sums = sparse.kron(np.ones((1, m)), sparse.eye(n))
    res = linprog(
        cost.ravel(),
        A_eq=sparse.vstack([row_sums, col_sums]).tocsr(),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def coupling_problems(value: float, gamma: np.ndarray, a: np.ndarray,
                      b: np.ndarray, dist: np.ndarray, p: float = 2.0) -> list[str]:
    """Check a claimed W_p value and optimal coupling of a and b."""
    if gamma.shape != (len(a), len(b)) or (gamma < 0).any():
        return ["coupling has the wrong shape or negative mass"]
    out = []
    if (np.abs(gamma.sum(axis=1) - a).max() > MARGINAL_TOL
            or np.abs(gamma.sum(axis=0) - b).max() > MARGINAL_TOL):
        out.append("coupling marginals differ from the weights")
    cost = dist ** p
    total = float((gamma * cost).sum())
    if not close(value, total ** (1.0 / p)):
        out.append(f"value {fmt17(value)} != (sum gamma*d^p)^(1/p) = {fmt17(total ** (1.0 / p))}")
    gap = certified_gap(gamma, cost)
    if gap is None:
        best = lp_cost(a, b, cost)
        if total - best > CERT_TOL * best:
            out.append(f"coupling cost {total!r} above the HiGHS optimum {best!r}")
    elif gap > CERT_TOL:
        out.append(f"dual certificate leaves a relative gap of {gap:.3g}")
    return out


# -- measures on a line -----------------------------------------------------

def quantile_plan(a: np.ndarray, b: np.ndarray):
    """Monotone coupling of weights a, b on points sorted along a line.

    Returns (i, j, mass) arrays: the quantile functions of a and b are
    step functions, and on each interval between their jumps they sit at
    atoms i and j.
    """
    fa = np.cumsum(a)[:-1]
    fb = np.cumsum(b)[:-1]
    cuts = np.unique(np.concatenate([fa, fb]))
    edges = np.concatenate([[0.0], cuts[(cuts > 0.0) & (cuts < 1.0)], [1.0]])
    right = edges[1:]
    i = np.searchsorted(fa, right, side="left")
    j = np.searchsorted(fb, right, side="left")
    return i, j, np.diff(edges)


def line_w2(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """W_2 between a and b at sorted positions x, by the quantile formula."""
    i, j, mass = quantile_plan(a, b)
    return float(np.sqrt(mass @ (x[i] - x[j]) ** 2))


def path_graph_interpolant(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Time-t displacement interpolant of a and b on a uniform path graph.

    Each coupled pair (i, j) moves its mass to the vertex at offset
    round(t*|j - i|) from i, with ties toward i: the vertex of the one
    shortest path nearest t of the way along it.
    """
    i, j, mass = quantile_plan(a, b)
    offset = np.ceil(t * np.abs(j - i) - 0.5).astype(np.int64)
    z = i + np.sign(j - i) * offset
    out = np.zeros(len(a))
    np.add.at(out, z, mass)
    return out


def entropy(nu: np.ndarray, lam: np.ndarray) -> float:
    """H(nu | lam) = sum nu log(nu/lam), for nu << lam."""
    pos = nu > 0
    return float(nu[pos] @ np.log(nu[pos] / lam[pos]))


def path_graph_fisher(nu: np.ndarray, lam: np.ndarray, step: float) -> float:
    """sum lam*slope(f)^2/f for f = nu/lam on a uniform path graph.

    The descending slope at j is the steepest drop of f to a neighbour,
    divided by the edge length.
    """
    f = nu / lam
    drop = np.zeros_like(f)
    drop[1:] = np.maximum(drop[1:], f[1:] - f[:-1])
    drop[:-1] = np.maximum(drop[:-1], f[:-1] - f[1:])
    pos = f > 0
    return float(lam[pos] @ ((drop[pos] / step) ** 2 / f[pos]))


def philox_pair(lam: np.ndarray, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The density pair estimate_k documents for pair ``index``.

    Stream (seed, index) is Philox keyed by SeedSequence(seed, spawn_key);
    each density is uniform on [0.25, 4] over supp(lam), then normalized.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    rng = np.random.Generator(np.random.Philox(ss))
    sup = np.flatnonzero(lam)
    out = []
    for _ in range(2):
        w = np.zeros(len(lam))
        w[sup] = rng.uniform(0.25, 4.0, size=len(sup)) * lam[sup]
        out.append(w / float(w.sum()))
    return out[0], out[1]
