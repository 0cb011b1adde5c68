"""Classic clustering baselines and social-cost objectives.

Three objective kinds appear throughout:

* ``kmeans``   -- sum of squared 2-norm distances (squared metric distance
                  on graph spaces);
* ``kmedians`` -- sum of 1-norm (Manhattan) distances on Euclidean/line
                  data, plain metric distance on graph spaces;
* ``medoid``   -- sum of metric distances over finite candidate centers.

kmeans_pp and lloyd_kmedians run Lloyd iterations over unrestricted center
locations with k-means++ style seeding, best-of-restarts selection, and
deterministic behavior for a fixed seed.  medoid_opt picks centers from the
candidate set only (exact scan for one center, greedy seeding plus
single-swap local search otherwise) and is the optimizer behind the refined
two-stage procedure.
"""
from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, ValidationError
from .instance import Clustering, Instance
from .metric import _ROWS, EUCLIDEAN, PointRef, cross_distances

KMEANS = "kmeans"
KMEDIANS = "kmedians"
MEDOID = "medoid"

OBJECTIVES = (KMEANS, KMEDIANS, MEDOID)

DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-6


def _as_matrix(points: Sequence[PointRef]) -> np.ndarray:
    """Stack line floats or Euclidean tuples into an (n, d) float array."""
    if len(points) == 0:
        raise ValidationError("need at least one point")
    first = points[0]
    if isinstance(first, (tuple, list, np.ndarray)):
        return np.asarray([tuple(float(x) for x in p) for p in points], dtype=float)
    return np.asarray([[float(p)] for p in points], dtype=float)


def _centers_to_points(centers: np.ndarray, flat: bool) -> List[PointRef]:
    if flat:
        return [float(c[0]) for c in centers]
    return [tuple(float(x) for x in c) for c in centers]


def point_costs(inst: Instance, pts_a: Sequence[PointRef],
                pts_b: Sequence[PointRef], obj: str) -> np.ndarray:
    """Per-pair cost matrix between agents and potential centers under obj."""
    if obj not in OBJECTIVES:
        raise ParameterError(f"unknown objective {obj!r}; pick from {OBJECTIVES}")
    kind = inst.space.kind
    if obj == KMEDIANS and kind == EUCLIDEAN:
        a = _as_matrix(pts_a)
        b = _as_matrix(pts_b)
        # Row blocks bound the tensor as in cross_distances, with the same bits.
        out = np.empty((len(a), len(b)))
        for lo in range(0, len(a), _ROWS):
            out[lo:lo + _ROWS] = np.abs(a[lo:lo + _ROWS, None, :] - b[None, :, :]).sum(axis=2)
        return out
    d = cross_distances(inst.space, pts_a, pts_b)
    if obj == KMEANS:
        return d * d
    return d


def social_cost(inst: Instance, clustering: Clustering, obj: str) -> float:
    """Total per-agent cost to the nearest center under the objective."""
    costs = point_costs(inst, inst.agents, list(clustering.centers), obj)
    return float(costs.min(axis=1).sum())


# ---------------------------------------------------------------------------
# Lloyd-style algorithms on unrestricted centers
# ---------------------------------------------------------------------------

def _assign_dists(pts: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
    """n x k table of squared 2-norm (kmeans) or 1-norm (kmedians) distances.

    Below 8 coordinates numpy sums the short last axis of the difference
    tensor left to right, so adding one coordinate at a time gives the same
    bits without the n x k x d tensor.  From 8 on it sums pairwise, so the
    tensor expression stays.
    """
    d = pts.shape[1]
    if d >= 8:
        diff = pts[:, None, :] - centers[None, :, :]
        if metric == KMEDIANS:
            return np.abs(diff).sum(axis=2)
        return (diff * diff).sum(axis=2)  # squared 2-norm; argmin matches 2-norm
    out = np.zeros((pts.shape[0], centers.shape[0]))
    for q in range(d):
        diff = pts[:, q, None] - centers[None, :, q]
        if metric == KMEDIANS:
            out += np.abs(diff)
        else:
            out += diff * diff
    return out


def _seed_pp(pts: np.ndarray, k: int, rng: np.random.Generator,
             metric: str) -> np.ndarray:
    """k-means++ seeding: next center drawn with probability proportional to
    the squared current assignment distance."""
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    first = int(rng.integers(n))
    centers[0] = pts[first]
    d2 = _assign_dists(pts, centers[:1], metric).min(axis=1)
    if metric == KMEDIANS:
        d2 = d2 * d2
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random(),
                                      side="right"))
            idx = min(idx, n - 1)
        centers[c] = pts[idx]
        dnew = _assign_dists(pts, centers[c:c + 1], metric).min(axis=1)
        if metric == KMEDIANS:
            dnew = dnew * dnew
        d2 = np.minimum(d2, dnew)
    return centers


def _lloyd_once(pts: np.ndarray, k: int, rng: np.random.Generator, metric: str,
                max_iter: int, tol: float) -> Tuple[np.ndarray, float, List[float]]:
    centers = _seed_pp(pts, k, rng, metric)
    n, d = pts.shape
    trace: List[float] = []
    for _ in range(max_iter):
        dists = _assign_dists(pts, centers, metric)
        assign = dists.argmin(axis=1)
        current = dists[np.arange(n), assign]
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            # Revive each empty cluster at the point farthest from its
            # center among clusters that keep another member, so that no
            # revival empties a cluster (one always has two while k <= n).
            for c in np.flatnonzero(counts == 0):
                far = int(np.argmax(np.where(counts[assign] > 1, current, -math.inf)))
                counts[assign[far]] -= 1
                counts[c] = 1
                centers[c] = pts[far]
                assign[far] = c
                current[far] = 0.0
        trace.append(float(current.sum()))
        if metric == KMEANS and d > 1:
            # bincount adds each cluster's members in index order, as
            # members.mean(axis=0) does row by row over several columns.
            new_centers = np.stack(
                [np.bincount(assign, weights=pts[:, q], minlength=k)
                 for q in range(d)], axis=1) / counts[:, None]
        else:
            # np.median per cluster; and numpy sums a single column
            # pairwise, which bincount does not reproduce.
            reduce = np.median if metric == KMEDIANS else np.mean
            new_centers = centers.copy()
            for c in range(k):
                new_centers[c] = reduce(pts[assign == c], axis=0)
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < tol:
            break
    dists = _assign_dists(pts, centers, metric)
    final_obj = float(dists.min(axis=1).sum())
    trace.append(final_obj)
    return centers, final_obj, trace


def _lloyd_restarts(points: Sequence[PointRef], k: int, seed: int,
                    restarts: int, max_iter: int, tol: float, metric: str,
                    return_trace: bool):
    pts = _as_matrix(points)
    n = pts.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n={n}, got k={k}")
    rng = np.random.default_rng(seed)
    best = None
    for r in range(max(1, restarts)):
        centers, obj, trace = _lloyd_once(pts, k, rng, metric, max_iter, tol)
        if best is None or obj < best[1]:
            best = (centers, obj, trace)
    flat = not isinstance(points[0], (tuple, list, np.ndarray))
    clustering = Clustering(centers=_centers_to_points(best[0], flat))
    if return_trace:
        return clustering, best[2]
    return clustering


def kmeans_pp(points: Sequence[PointRef], k: int, seed: int = 0,
              restarts: int = DEFAULT_RESTARTS, max_iter: int = DEFAULT_MAX_ITER,
              tol: float = DEFAULT_TOL, return_trace: bool = False):
    """Lloyd's algorithm for the k-means objective with k-means++ seeding.

    Returns the best of `restarts` runs by objective; centroids may land
    anywhere, not just on candidate locations.  With return_trace the best
    run's per-iteration objective values come back too (never increasing).
    """
    return _lloyd_restarts(points, k, seed, restarts, max_iter, tol,
                           KMEANS, return_trace)


def lloyd_kmedians(points: Sequence[PointRef], k: int, seed: int = 0,
                   restarts: int = DEFAULT_RESTARTS, max_iter: int = DEFAULT_MAX_ITER,
                   tol: float = DEFAULT_TOL, return_trace: bool = False):
    """Lloyd's algorithm for k-medians: 1-norm assignment, per-coordinate
    median updates, same restart and termination scheme as kmeans_pp."""
    return _lloyd_restarts(points, k, seed, restarts, max_iter, tol,
                           KMEDIANS, return_trace)


# ---------------------------------------------------------------------------
# medoid optimization over candidate locations
# ---------------------------------------------------------------------------

_SWAP_SWEEPS = 100


def medoid_opt(inst: Instance, subset: Sequence[int], k_i: int, obj: str,
               seed: int = 0) -> List[PointRef]:
    """Choose k_i candidate centers minimizing obj over a subset of agents.

    One center is an exact scan over all candidates.  More are seeded by
    greedy forward selection and polished by best-improvement single swaps
    until a local optimum; all ties break to the lowest candidate index, so
    the result is deterministic.
    """
    subset = list(subset)
    if not subset:
        raise ValidationError("medoid_opt needs a non-empty agent subset")
    if k_i < 1:
        raise ParameterError(f"need k_i >= 1, got {k_i}")
    cands = inst.candidate_list()
    pts = [inst.agents[i] for i in subset]
    C = point_costs(inst, pts, cands, obj)
    chosen = _forward_select(C, np.full(len(subset), math.inf), min(k_i, C.shape[1]))
    while len(chosen) < k_i:
        chosen.append(chosen[0])  # duplicates allowed when k_i exceeds candidates

    if k_i >= 2:
        chosen = _swap_improve(C, chosen)
    return [cands[j] for j in chosen]


def _forward_select(C: np.ndarray, cur: np.ndarray, steps: int,
                    allowed: Optional[np.ndarray] = None,
                    group: Optional[np.ndarray] = None) -> List[int]:
    """Greedy forward selection over the columns of C (agents x candidates).

    Each step picks the column that minimizes sum(min(cur, C[:, j])), ties
    to the lowest index, and lowers cur to it.  With an `allowed` mask only
    allowed columns are picked, and a pick disallows every column of its
    `group`; once none is allowed, the pick is column 0.
    """
    chosen: List[int] = []
    for _ in range(steps):
        totals = np.minimum(cur[:, None], C).sum(axis=0)
        if allowed is None:
            j = int(np.argmin(totals))
        elif allowed.any():
            j = int(np.argmin(np.where(allowed, totals, math.inf)))
            allowed = allowed & (group != group[j])
        else:
            j = 0
        chosen.append(j)
        cur = np.minimum(cur, C[:, j])
    return chosen


def _swap_improve(C: np.ndarray, chosen: List[int]) -> List[int]:
    chosen = list(chosen)
    cost = float(C[:, chosen].min(axis=1).sum())
    for _ in range(_SWAP_SWEEPS):
        best = None  # (new_cost, position, candidate)
        for p in range(len(chosen)):
            others = chosen[:p] + chosen[p + 1:]
            if others:
                without = C[:, others].min(axis=1)
            else:
                without = np.full(C.shape[0], math.inf)
            totals = np.minimum(without[:, None], C).sum(axis=0)
            j = int(np.argmin(totals))
            if best is None or totals[j] < best[0]:
                best = (float(totals[j]), p, j)
        if best is None or best[0] >= cost - 1e-12 * max(1.0, abs(cost)):
            break
        cost = best[0]
        chosen[best[1]] = best[2]
    return chosen
