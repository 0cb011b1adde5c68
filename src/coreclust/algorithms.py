"""Clustering procedures with core-fairness guarantees.

* alg_line       -- place centers at every lambda-th sorted agent;
* alg_tree       -- open a center on each deepest subtree holding at least
                    lambda agents, pruning as it goes;
* alg_greedy_ball -- grow balls around every candidate at equal speed and
                    open a center whenever a ball captures a proportional
                    share of uncovered agents;
* alg_mst_cover  -- centers on a vertex cover of the agents' MST (wants
                    k >= n/2);
* alg_refined    -- two-stage refinement: greedy-ball clusters first, then a
                    proportional center budget per cluster optimized under a
                    social objective;
* optimal_total_distance -- exact total-distance minimizer at desk scale;
* ALGORITHMS     -- the name -> procedure registry behind the CLI and the
                    bench grid, with the k-means baselines.

All procedures are pure functions of (instance, parameters, seed) with
deterministic tie-breaking, so runs are reproducible and safe to execute
concurrently.

When a procedure naturally produces fewer than k centers, the remainder is
filled greedily: repeatedly add the candidate that most reduces the total
agent distance, ties to the lowest candidate index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .baselines import (KMEANS, KMEDIANS, _forward_select, kmeans_pp,
                        lloyd_kmedians, medoid_opt)
from .errors import ParameterError, SizeLimitError, ValidationError
from .instance import Clustering, Instance
from .metric import LINE, TREE, PointRef, cross_distances

__all__ = [
    "alg_line", "alg_tree", "alg_greedy_ball", "alg_mst_cover", "alg_refined",
    "optimal_total_distance", "greedy_fill", "proportional_budgets",
    "assign_agents", "GreedyTrace", "TraceEvent", "RefinedPlan", "ceil_div",
    "ALGORITHMS",
]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_lambda(lam: int, n: int) -> int:
    lam = int(lam)
    if not (1 <= lam <= n):
        raise ParameterError(f"lambda must be in [1, n={n}], got {lam}")
    return lam


# ---------------------------------------------------------------------------
# line
# ---------------------------------------------------------------------------

def alg_line(inst: Instance, lam: int) -> Clustering:
    """Quantile placement on the line: centers at the lambda*i-th sorted agent.

    The i-th center (1-based, i < k) sits on sorted agent lambda*i; the last
    sits on agent min(lambda*k, n).  Between consecutive centers at most
    lambda-1 agents remain strictly inside the gap.
    """
    if inst.space.kind != LINE:
        raise ParameterError(f"alg_line needs a line instance, got {inst.space.kind}")
    n = inst.n
    k = inst.k
    lam = _check_lambda(lam, n)
    if lam * (k - 1) > n:
        raise ParameterError(
            f"lambda={lam} overflows: lambda*(k-1)={lam * (k - 1)} exceeds n={n}")
    xs = sorted(float(a) for a in inst.agents)
    centers = [xs[lam * i - 1] for i in range(1, k)]
    centers.append(xs[min(lam * k, n) - 1])
    return Clustering(centers=centers)


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------

def alg_tree(inst: Instance, lam: int, root: int = 0) -> Clustering:
    """Subtree-threshold placement on a tree.

    Working from the deepest level upward (vertex ids ascending within a
    level), open a center at any vertex whose surviving subtree still holds
    at least lambda agents, then prune that subtree; stop opening once k
    centers exist; each visited vertex passes its surviving count up to its
    parent.  Removing the chosen centers from the tree leaves every
    component with at most lambda-1 agents whenever the k-cap never bound.
    """
    if inst.space.kind != TREE:
        raise ParameterError(f"alg_tree needs a tree instance, got {inst.space.kind}")
    tree = inst.space.tree
    nv = tree.vertex_count
    if not (0 <= root < nv):
        raise ParameterError(f"root {root} out of range [0, {nv})")
    lam = _check_lambda(lam, inst.n)

    preorder, parent, _ = tree.rooted(root)
    depth = [0] * nv
    for v in preorder[1:]:
        depth[v] = depth[parent[v]] + 1
    counts = np.bincount(np.asarray(inst.agents, dtype=np.int64), minlength=nv).tolist()
    centers: List[int] = []
    for x in sorted(range(nv), key=lambda v: (-depth[v], v)):
        if counts[x] >= lam and len(centers) < inst.k:
            centers.append(x)
            counts[x] = 0
        if parent[x] >= 0:
            counts[parent[x]] += counts[x]
    return Clustering(centers=greedy_fill(inst, centers))


# ---------------------------------------------------------------------------
# greedy ball growing
# ---------------------------------------------------------------------------

@dataclass
class TraceEvent:
    delta: float
    kind: str  # "absorb" | "open"
    center: PointRef
    removed: List[int]

    def to_json(self) -> dict:
        c = self.center
        if isinstance(c, tuple):
            c = [float(v) for v in c]
        return {"delta": float(self.delta), "kind": self.kind,
                "center": c, "removed": [int(i) for i in self.removed]}


@dataclass
class GreedyTrace:
    """Chronological record of the ball-growing run: every absorption and
    every center opening, with the radius it happened at."""

    events: List[TraceEvent] = field(default_factory=list)

    def to_json(self) -> list:
        return [e.to_json() for e in self.events]


_BLOCK = 64  # candidate rows per block of lower bounds and of exact sweeps


def _opening_radii(DTu: np.ndarray, md: np.ndarray, threshold: int
                   ) -> np.ndarray:
    """Per candidate row of DTu (its distances to the uncovered agents): the
    earliest radius at which its ball holds `threshold` uncovered agents,
    accounting for absorption along the way; inf when it never does.

    An uncovered agent i contributes to candidate j over the radius interval
    [d(i,j), d(i,Y)): it enters when the ball reaches it and leaves when an
    existing center absorbs it (md holds d(i,Y)).  The answer per candidate
    is the first event radius where the running interval count reaches the
    threshold; exits at a given radius are counted before entries to honor
    absorb-before-open.
    """
    enters = DTu < md
    entry_vals = np.where(enters, DTu, math.inf)
    exit_vals = np.where(enters & np.isfinite(md), md, math.inf)
    vals = np.hstack([exit_vals, entry_vals])
    order = np.argsort(vals, axis=1, kind="stable")
    vals_sorted = np.take_along_axis(vals, order, axis=1)
    run = np.where(order < md.size, -1, 1).cumsum(axis=1)
    hit = (run >= threshold) & np.isfinite(vals_sorted)
    any_hit = hit.any(axis=1)
    first = np.where(any_hit, hit.argmax(axis=1), 0)
    return np.where(any_hit, vals_sorted[np.arange(len(vals)), first], math.inf)


def _next_opening(DT: np.ndarray, uncovered: np.ndarray, min_d: np.ndarray,
                  open_mask: np.ndarray, threshold: int) -> Tuple[float, int]:
    """Earliest radius at which some unopened candidate ball holds
    `threshold` uncovered agents (see _opening_radii), and that candidate;
    ties go to the lowest candidate index.  (inf, -1) when none ever does.

    Prune, then solve.  When ball j opens at radius r, at least `threshold`
    uncovered agents have d(i,j) <= r < d(i,Y).  So r is at least lb_j, the
    threshold-th smallest d(i,j) over the uncovered agents with
    d(i,j) < d(i,Y), and below cap, the threshold-th largest d(i,Y).  While
    no uncovered agent can be absorbed (every d(i,Y) is inf) the radius is
    exactly lb_j.  Otherwise candidates are swept in ascending (lb_j, j)
    order, in blocks, skipping those with lb_j above the best radius found
    so far (cap at first) and stopping at the first block that starts above
    it.  Only candidates strictly worse than the best are skipped, and each
    radius depends on its own candidate alone, so the answer is that of a
    sweep over all candidates.
    """
    u_idx = np.flatnonzero(uncovered)
    if u_idx.size < threshold or open_mask.all():
        return math.inf, -1
    md = min_d[u_idx]
    cols = np.flatnonzero(~open_mask)
    lb = np.empty(cols.size)
    for lo in range(0, cols.size, _BLOCK):
        rows = DT[np.ix_(cols[lo:lo + _BLOCK], u_idx)]
        rows = np.where(rows < md, rows, math.inf)
        lb[lo:lo + _BLOCK] = np.partition(rows, threshold - 1, axis=1)[:, threshold - 1]
    order = np.argsort(lb, kind="stable")
    cols, lb = cols[order], lb[order]
    if np.isinf(md).all():
        return (float(lb[0]), int(cols[0])) if lb[0] < math.inf else (math.inf, -1)
    best, best_j = np.partition(md, md.size - threshold)[md.size - threshold], -1
    for lo in range(0, cols.size, _BLOCK):
        if lb[lo] > best:
            break
        sel = cols[lo:lo + _BLOCK][lb[lo:lo + _BLOCK] <= best]
        radii = _opening_radii(DT[np.ix_(sel, u_idx)], md, threshold)
        r = radii.min()
        j = int(sel[radii == r].min())
        if r < best or (r == best and j < best_j):
            best, best_j = float(r), j
    return (best, best_j) if best_j >= 0 else (math.inf, -1)


def alg_greedy_ball(inst: Instance, fill: bool = True
                    ) -> Tuple[Clustering, GreedyTrace]:
    """Grow balls of equal radius around all candidates; open centers on
    balls that capture at least ceil(n/k) uncovered agents.

    At each radius existing centers absorb reachable uncovered agents before
    any new center opens; simultaneous openings resolve by ascending
    candidate index.  Every opening removes at least ceil(n/k) agents, so at
    most k centers open naturally; with `fill` the remainder is topped up
    greedily to exactly k.

    Each opening is found by prune-then-solve (_next_opening): a candidate
    cannot open before the ceil(n/k)-th smallest of its distances to the
    uncovered agents it reaches before they are absorbed, so the exact event
    sweep runs only on candidates whose bound does not exceed the best
    radius found, in ascending bound order.  Only strictly later candidates
    are skipped, so the centers, radii and ties (to the lowest candidate
    index) are those of a sweep over all candidates.
    """
    if inst.continuous_candidates:
        raise ParameterError("alg_greedy_ball needs finite candidates; use alg_line")
    cands = inst.candidate_list()
    n, m, k = inst.n, len(cands), inst.k
    threshold = ceil_div(n, k)
    DT = cross_distances(inst.space, inst.agents, cands).T.copy()

    uncovered = np.ones(n, dtype=bool)
    min_d = np.full(n, math.inf)
    nearest_open = np.full(n, -1, dtype=np.int64)
    open_mask = np.zeros(m, dtype=bool)
    opened: List[int] = []
    events: List[TraceEvent] = []

    def absorb_upto(delta: float) -> None:
        hit = uncovered & (min_d <= delta)
        if not hit.any():
            return
        groups: dict = {}
        for i in np.flatnonzero(hit):
            groups.setdefault((float(min_d[i]), int(nearest_open[i])), []).append(int(i))
        for (d_val, c_pos), agents in sorted(groups.items()):
            events.append(TraceEvent(delta=d_val, kind="absorb",
                                     center=cands[opened[c_pos]], removed=agents))
        uncovered[hit] = False

    while uncovered.any():
        delta, j = _next_opening(DT, uncovered, min_d, open_mask, threshold)
        if j < 0:
            absorb_upto(math.inf)
            break
        absorb_upto(delta)
        ball = uncovered & (DT[j] <= delta)
        events.append(TraceEvent(delta=delta, kind="open", center=cands[j],
                                 removed=[int(i) for i in np.flatnonzero(ball)]))
        uncovered[ball] = False
        open_mask[j] = True
        opened.append(j)
        better = DT[j] < min_d
        min_d[better] = DT[j, better]
        nearest_open[better] = len(opened) - 1

    centers: List[PointRef] = [cands[j] for j in opened]
    if fill and len(centers) < k:
        centers = _fill(cands, np.ascontiguousarray(DT.T), min_d, centers, k)
    return Clustering(centers=centers), GreedyTrace(events=events)


# ---------------------------------------------------------------------------
# MST vertex cover
# ---------------------------------------------------------------------------

def alg_mst_cover(inst: Instance) -> Clustering:
    """Centers on a vertex cover of the agents' minimum spanning tree.

    Builds the complete metric graph on agent locations, extracts an MST
    with Prim's algorithm (ties to the smallest vertex index), 2-colors it
    by depth parity from vertex 0, and places centers on the smaller color
    class (ties to the odd class).  Every MST edge then touches a center.
    Requires n/2 <= k <= n-2.
    """
    n, k = inst.n, inst.k
    if 2 * k < n or k > n - 2:
        raise ParameterError(f"alg_mst_cover needs n/2 <= k <= n-2, got n={n}, k={k}")
    pts = list(inst.agents)
    if not inst.continuous_candidates:
        cand_set = {_hashable(c) for c in inst.candidates}
        missing = [p for p in pts if _hashable(p) not in cand_set]
        if missing:
            raise ParameterError(
                f"candidates must include all agent locations; missing {missing[0]!r}")
    D = cross_distances(inst.space, pts, pts)

    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    key = D[0].copy()
    parent = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    key[0] = 0.0
    for _ in range(n - 1):
        masked = np.where(in_tree, math.inf, key)
        v = int(np.argmin(masked))
        in_tree[v] = True
        depth[v] = depth[parent[v]] + 1
        improve = (~in_tree) & (D[v] < key)
        key[improve] = D[v][improve]
        parent[improve] = v

    even = np.flatnonzero(depth % 2 == 0)
    odd = np.flatnonzero(depth % 2 == 1)
    cover = odd if len(odd) <= len(even) else even
    centers: List[PointRef] = [pts[int(v)] for v in sorted(cover)]
    if len(centers) > k:
        raise ParameterError(
            f"cover of size {len(centers)} exceeds k={k}; preconditions violated")
    return Clustering(centers=greedy_fill(inst, centers))


def _hashable(p: PointRef):
    if isinstance(p, tuple):
        return tuple(map(float, p))
    if isinstance(p, (int, np.integer)):
        return int(p)
    return float(p)


# ---------------------------------------------------------------------------
# refined two-stage procedure
# ---------------------------------------------------------------------------

@dataclass
class RefinedPlan:
    """Stage-1 clusters and the per-cluster center budgets they received."""

    stage1_centers: List[PointRef]
    clusters: List[List[int]]
    budgets: List[int]
    remainder: int

    @property
    def sizes(self) -> List[int]:
        return [len(c) for c in self.clusters]


def proportional_budgets(sizes: Sequence[int], n: int, k: int
                         ) -> Tuple[List[int], int]:
    """Split k centers across clusters proportionally to their sizes.

    Cluster i gets floor(sizes[i]*k/n) centers, and the r = k - sum(floors)
    clusters with the largest remainders (ties to the lower cluster index)
    get one extra.  Exact rational arithmetic keeps the remainder order
    independent of float rounding.
    """
    if sum(sizes) != n:
        raise ValidationError(f"cluster sizes sum to {sum(sizes)}, expected n={n}")
    quotas = [Fraction(int(s) * k, n) for s in sizes]
    floors = [int(q.numerator // q.denominator) for q in quotas]
    rems = [q - f for q, f in zip(quotas, floors)]
    r = k - sum(floors)
    order = sorted(range(len(sizes)), key=lambda i: (-rems[i], i))
    budgets = list(floors)
    for pos in range(r):
        budgets[order[pos]] += 1
    assert sum(budgets) == k
    return budgets, r


def alg_refined(inst: Instance, obj: str = "kmeans", seed: int = 0
                ) -> Tuple[Clustering, RefinedPlan]:
    """Two-stage refinement of the greedy ball procedure.

    Stage 1 runs the ball-growing procedure without fill and assigns every
    agent to its nearest stage-1 center (ties to the lowest center index).
    Stage 2 hands each cluster a proportional share of the k centers and
    picks that many candidate locations minimizing `obj` over the cluster's
    agents; candidates stay global, only the evaluation is restricted.
    """
    stage1, _ = alg_greedy_ball(inst, fill=False)
    centers1 = list(stage1.centers)
    assign = assign_agents(inst, stage1)
    clusters: List[List[int]] = [[] for _ in centers1]
    for i, c in enumerate(assign):
        clusters[int(c)].append(i)
    budgets, r = proportional_budgets([len(c) for c in clusters], inst.n, inst.k)
    centers: List[PointRef] = []
    for cluster, k_i in zip(clusters, budgets):
        if k_i == 0:
            continue
        centers.extend(medoid_opt(inst, cluster, k_i, obj, seed=seed))
    plan = RefinedPlan(stage1_centers=centers1, clusters=clusters,
                       budgets=budgets, remainder=r)
    assert len(centers) == inst.k
    return Clustering(centers=centers), plan


# ---------------------------------------------------------------------------
# exact small-scale optimum
# ---------------------------------------------------------------------------

OPT_MAX_N = 10
OPT_MAX_CANDS = 12


def optimal_total_distance(inst: Instance) -> Clustering:
    """Clustering minimizing the total agent distance, exactly.

    k=1 scans all candidates; otherwise instances must be small (n <= 10,
    at most 12 candidates) and all center subsets are enumerated.  Ties
    break to the lexicographically smallest candidate index tuple.
    """
    cands = inst.candidate_list()
    D = cross_distances(inst.space, inst.agents, cands)
    k = inst.k
    if k == 1:
        costs = D.sum(axis=0)
        j = int(np.argmin(costs))
        return Clustering(centers=[cands[j]])
    if inst.n > OPT_MAX_N or len(cands) > OPT_MAX_CANDS:
        raise SizeLimitError(
            f"exhaustive search limited to n <= {OPT_MAX_N} and "
            f"{OPT_MAX_CANDS} candidates; got n={inst.n}, m={len(cands)}")
    import itertools
    if k >= len(cands):
        centers = list(cands) + [cands[0]] * (k - len(cands))
        return Clustering(centers=centers)
    best_cost = math.inf
    best: Optional[Tuple[int, ...]] = None
    for combo in itertools.combinations(range(len(cands)), k):
        cost = float(D[:, combo].min(axis=1).sum())
        if cost < best_cost - 1e-12 * max(1.0, abs(cost)):
            best_cost = cost
            best = combo
    assert best is not None
    return Clustering(centers=[cands[j] for j in best])


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def greedy_fill(inst: Instance, centers: List[PointRef]) -> List[PointRef]:
    """Top a partial center list up to k: each step adds the candidate that
    most reduces total agent distance, ties to the lowest candidate index."""
    if inst.k <= len(centers):
        return list(centers)
    cands = inst.candidate_list()
    D = cross_distances(inst.space, inst.agents, cands)
    if centers:
        cur = cross_distances(inst.space, inst.agents, centers).min(axis=1)
    else:
        cur = np.full(inst.n, math.inf)
    return _fill(cands, D, cur, centers, inst.k)


def _fill(cands: List[PointRef], D: np.ndarray, cur: np.ndarray,
          centers: List[PointRef], k: int) -> List[PointRef]:
    """greedy_fill from D (agents x cands, C-order); cur[i] = d(agent i, centers)."""
    # Candidates at one location share a group: the first index holding it.
    first: dict = {}
    group = np.array([first.setdefault(_hashable(c), j) for j, c in enumerate(cands)])
    taken = np.zeros(len(cands), dtype=bool)
    taken[[first[h] for h in map(_hashable, centers) if h in first]] = True
    picks = _forward_select(D, cur, k - len(centers), ~taken[group], group)
    return list(centers) + [cands[j] for j in picks]


def assign_agents(inst: Instance, clustering: Clustering) -> np.ndarray:
    """Index of the nearest center per agent (ties to the lowest index)."""
    D = cross_distances(inst.space, inst.agents, list(clustering.centers))
    return D.argmin(axis=1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _quantile(place: Callable[[Instance, int], Clustering]):
    return lambda inst, seed=0, lam=None: (
        place(inst, ceil_div(inst.n, inst.k) if lam is None else lam), None)


def _refined(obj: str):
    return lambda inst, seed=0, lam=None: (alg_refined(inst, obj, seed)[0], None)


def _lloyd(fit: Callable[..., Clustering]):
    return lambda inst, seed=0, lam=None: (fit(inst.agents, inst.k, seed=seed), None)


# name -> f(inst, seed=0, lam=None) -> (Clustering, GreedyTrace or None).
# lam is the line/tree quantile step, ceil(n/k) when None; the others
# ignore it, and only greedy returns a trace.
ALGORITHMS: Dict[str, Callable[..., Tuple[Clustering, Optional[GreedyTrace]]]] = {
    "line": _quantile(alg_line),
    "tree": _quantile(alg_tree),
    "greedy": lambda inst, seed=0, lam=None: alg_greedy_ball(inst),
    "mst": lambda inst, seed=0, lam=None: (alg_mst_cover(inst), None),
    "refined": _refined(KMEANS),
    "refined-kmeans": _refined(KMEANS),
    "refined-kmedians": _refined(KMEDIANS),
    "kmeans": _lloyd(kmeans_pp),
    "kmedians": _lloyd(lloyd_kmedians),
}
