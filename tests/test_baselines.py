"""k-means++/k-medians baselines and the medoid optimizer."""

import numpy as np
import pytest

from coreclust.baselines import (KMEANS, KMEDIANS, MEDOID, kmeans_pp,
                                 lloyd_kmedians, medoid_opt, point_costs,
                                 social_cost)
from coreclust.errors import ParameterError, ValidationError
from coreclust.instance import Clustering, Instance, gen_kmedians_bad
from coreclust.metric import Space


def test_kmeans_separated_pairs():
    pts = [(0.0, 0.0), (0.0, 2.0), (100.0, 0.0), (100.0, 2.0)]
    clustering = kmeans_pp(pts, 2, seed=0)
    got = sorted(clustering.centers)
    assert got[0] == pytest.approx((0.0, 1.0))
    assert got[1] == pytest.approx((100.0, 1.0))


def test_kmeans_k1_is_mean():
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 6.0)]
    clustering = kmeans_pp(pts, 1, seed=0)
    assert clustering.centers[0] == pytest.approx((2.0, 2.0))


def test_kmeans_k_equals_n_zero_objective():
    pts = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)]
    clustering, trace = kmeans_pp(pts, 3, seed=0, return_trace=True)
    assert trace[-1] == pytest.approx(0.0, abs=1e-12)


def test_kmeans_k_exceeds_n():
    with pytest.raises(ParameterError):
        kmeans_pp([(0.0, 0.0)], 2)


def test_lloyd_objective_never_increases():
    rng = np.random.default_rng(0)
    pts = [tuple(float(x) for x in rng.uniform(0, 10, size=2)) for _ in range(60)]
    for fn in (kmeans_pp, lloyd_kmedians):
        _, trace = fn(pts, 4, seed=1, restarts=1, return_trace=True)
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9


def test_restarts_never_hurt():
    rng = np.random.default_rng(1)
    pts = [tuple(float(x) for x in rng.uniform(0, 10, size=2)) for _ in range(50)]
    inst = Instance(space=Space.euclidean(2), agents=pts, candidates=list(pts), k=5)
    few = kmeans_pp(pts, 5, seed=7, restarts=2)
    many = kmeans_pp(pts, 5, seed=7, restarts=10)
    assert social_cost(inst, many, KMEANS) <= social_cost(inst, few, KMEANS) + 1e-9


def test_kmedians_line_median():
    clustering = lloyd_kmedians([0.0, 0.0, 10.0], 1, seed=0)
    assert clustering.centers[0] == pytest.approx(0.0)


def test_kmedians_group_a_center_at_one():
    inst = gen_kmedians_bad(7)
    group_a = [a for a in inst.agents if a <= 2]
    clustering = lloyd_kmedians(group_a, 1, seed=0)
    assert clustering.centers[0] == pytest.approx(1.0)


def test_kmedians_k_equals_n():
    pts = [0.0, 3.0, 9.0]
    _, trace = lloyd_kmedians(pts, 3, seed=0, return_trace=True)
    assert trace[-1] == pytest.approx(0.0, abs=1e-12)


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(2)
    pts = [tuple(float(x) for x in rng.uniform(0, 5, size=2)) for _ in range(30)]
    assert kmeans_pp(pts, 3, seed=11).centers == kmeans_pp(pts, 3, seed=11).centers


# ---------------------------------------------------------------------------
# medoid_opt
# ---------------------------------------------------------------------------

def euclid_instance(pts, k, cands=None):
    return Instance(space=Space.euclidean(2), agents=pts,
                    candidates=cands or list(dict.fromkeys(pts)), k=k)


def test_medoid_single_agent_nearest_candidate():
    pts = [(0.0, 0.0), (10.0, 0.0)]
    inst = euclid_instance(pts, 1, cands=[(1.0, 0.0), (9.0, 0.0)])
    assert medoid_opt(inst, [1], 1, MEDOID) == [(9.0, 0.0)]


def test_medoid_collinear_median():
    inst = Instance(space=Space.line(), agents=[0.0, 1.0, 2.0],
                    candidates=[0.0, 1.0, 2.0], k=1)
    assert medoid_opt(inst, [0, 1, 2], 1, MEDOID) == [1.0]


def test_medoid_full_cover_zero_cost():
    pts = [(0.0, 0.0), (5.0, 5.0), (9.0, 1.0)]
    inst = euclid_instance(pts, 3)
    centers = medoid_opt(inst, [0, 1, 2], 3, MEDOID)
    assert sorted(centers) == sorted(pts)


def test_medoid_k1_matches_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        pts = [tuple(float(x) for x in rng.uniform(0, 10, size=2))
               for _ in range(n)]
        inst = euclid_instance(pts, 1)
        subset = list(rng.choice(n, size=max(1, n // 2), replace=False))
        subset = [int(i) for i in subset]
        for obj in (KMEANS, KMEDIANS, MEDOID):
            got = medoid_opt(inst, subset, 1, obj)[0]
            inst1 = Instance(space=inst.space,
                             agents=[pts[i] for i in subset],
                             candidates=inst.candidates, k=1)
            best = min(inst.candidates,
                       key=lambda c: social_cost(inst1, Clustering(centers=[c]), obj))
            cost_got = social_cost(inst1, Clustering(centers=[got]), obj)
            cost_best = social_cost(inst1, Clustering(centers=[best]), obj)
            assert cost_got == pytest.approx(cost_best)


def test_medoid_empty_subset_rejected():
    inst = euclid_instance([(0.0, 0.0), (1.0, 1.0)], 1)
    with pytest.raises(ValidationError):
        medoid_opt(inst, [], 1, MEDOID)


def test_medoid_duplicates_when_k_exceeds_candidates():
    inst = Instance(space=Space.line(), agents=[0.0, 0.0, 0.0],
                    candidates=[0.0], k=3)
    centers = medoid_opt(inst, [0, 1, 2], 3, MEDOID)
    assert centers == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# social cost
# ---------------------------------------------------------------------------

def test_social_cost_zero_on_centers():
    inst = Instance(space=Space.line(), agents=[1.0, 5.0],
                    candidates=[1.0, 5.0], k=2)
    clustering = Clustering(centers=[1.0, 5.0])
    for obj in (KMEANS, KMEDIANS, MEDOID):
        assert social_cost(inst, clustering, obj) == 0.0


def test_social_cost_examples():
    inst = Instance(space=Space.line(), agents=[0.0, 2.0], candidates=[1.0], k=1)
    clustering = Clustering(centers=[1.0])
    assert social_cost(inst, clustering, KMEANS) == pytest.approx(2.0)
    assert social_cost(inst, clustering, KMEDIANS) == pytest.approx(2.0)


def test_social_cost_kmedians_is_manhattan():
    inst = Instance(space=Space.euclidean(2), agents=[(0.0, 0.0)],
                    candidates=[(1.0, 1.0)], k=1)
    clustering = Clustering(centers=[(1.0, 1.0)])
    assert social_cost(inst, clustering, KMEDIANS) == pytest.approx(2.0)
    assert social_cost(inst, clustering, KMEANS) == pytest.approx(2.0)
    assert social_cost(inst, clustering, MEDOID) == pytest.approx(np.sqrt(2))


# ---------------------------------------------------------------------------
# Lloyd iterations against the per-cluster loop they replaced
# ---------------------------------------------------------------------------

def _ref_assign_dists(pts, centers, metric):
    diff = pts[:, None, :] - centers[None, :, :]
    if metric == KMEDIANS:
        return np.abs(diff).sum(axis=2)
    return (diff * diff).sum(axis=2)


def _ref_seed_pp(pts, k, rng, metric):
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    first = int(rng.integers(n))
    centers[0] = pts[first]
    d2 = _ref_assign_dists(pts, centers[:1], metric).min(axis=1)
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
        dnew = _ref_assign_dists(pts, centers[c:c + 1], metric).min(axis=1)
        if metric == KMEDIANS:
            dnew = dnew * dnew
        d2 = np.minimum(d2, dnew)
    return centers


def _ref_lloyd_once(pts, k, rng, metric, max_iter, tol, revivals):
    centers = _ref_seed_pp(pts, k, rng, metric)
    trace = []
    for _ in range(max_iter):
        dists = _ref_assign_dists(pts, centers, metric)
        assign = dists.argmin(axis=1)
        current = dists[np.arange(len(pts)), assign]
        for c in range(k):
            if not (assign == c).any():
                revivals.append(c)
                # the farthest point among clusters that keep another member
                sizes = np.bincount(assign, minlength=k)[assign]
                far = int(np.argmax(np.where(sizes > 1, current, -np.inf)))
                centers[c] = pts[far]
                assign[far] = c
                current[far] = 0.0
        obj = float(current.sum())
        trace.append(obj)
        new_centers = centers.copy()
        for c in range(k):
            members = pts[assign == c]
            if metric == KMEDIANS:
                new_centers[c] = np.median(members, axis=0)
            else:
                new_centers[c] = members.mean(axis=0)
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < tol:
            break
    dists = _ref_assign_dists(pts, centers, metric)
    final_obj = float(dists.min(axis=1).sum())
    trace.append(final_obj)
    return centers, final_obj, trace


def _ref_lloyd(pts, k, seed, restarts, metric, revivals):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers, obj, trace = _ref_lloyd_once(pts, k, rng, metric, 100, 1e-6,
                                              revivals)
        if best is None or obj < best[1]:
            best = (centers, obj, trace)
    return best[0], best[2]


def _lloyd_cases():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3, 9):
        for n, k in ((40, 3), (300, 8), (257, 13)):
            yield f"d{d}-n{n}-k{k}", rng.standard_normal((n, d)) * 7.3 + 2.0, k
        # Four distinct locations, each repeated: seeding repeats a center,
        # so every restart revives an empty cluster.  At k=6 a second
        # revival must not take the first's only point.
        dup = rng.standard_normal((4, d))[rng.integers(0, 4, 50)]
        yield f"d{d}-dup-k5", dup, 5
        yield f"d{d}-dup-k6", dup, 6
        yield f"d{d}-int-dup", rng.integers(0, 3, size=(60, d)).astype(float), 5


@pytest.mark.parametrize("fn, metric", [(kmeans_pp, KMEANS),
                                        (lloyd_kmedians, KMEDIANS)])
def test_lloyd_matches_per_cluster_loop(fn, metric):
    finite_revival = False
    for label, pts, k in _lloyd_cases():
        points = ([float(p[0]) for p in pts] if pts.shape[1] == 1
                  else [tuple(float(x) for x in p) for p in pts])
        for seed in (0, 5):
            revivals = []
            got, trace = fn(points, k, seed=seed, restarts=3, return_trace=True)
            centers, ref_trace = _ref_lloyd(pts, k, seed, 3, metric, revivals)
            got = np.asarray(got.centers, dtype=float).reshape(centers.shape)
            assert np.isfinite(got).all() and np.isfinite(trace).all(), label
            assert np.array_equal(got, centers), label
            assert np.array_equal(trace, ref_trace), label
            finite_revival |= bool(revivals) and bool(np.isfinite(trace).all())
    assert finite_revival, "no case revived an empty cluster with a finite trace"


@pytest.mark.parametrize("dim", [2, 3, 9])
def test_blocked_kmedians_point_costs_match_one_shot(dim):
    rng = np.random.default_rng(dim)
    a = [tuple(p) for p in rng.standard_normal((600, dim)) * 1e3]
    b = [tuple(p) for p in rng.standard_normal((70, dim))]
    inst = Instance(space=Space.euclidean(dim), agents=a, candidates=b, k=2)
    A, B = np.asarray(a), np.asarray(b)
    one_shot = np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2)
    assert np.array_equal(point_costs(inst, a, b, KMEDIANS), one_shot)
