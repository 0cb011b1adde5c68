"""Clustering procedures: worked examples, invariants, determinism."""
import itertools
import math

import networkx as nx
import numpy as np
import pytest

from coreclust import algorithms
from coreclust.algorithms import (alg_greedy_ball, alg_line, alg_mst_cover,
                                  alg_refined, alg_tree, assign_agents,
                                  ceil_div, greedy_fill, optimal_total_distance,
                                  proportional_budgets)
from coreclust.baselines import KMEANS, MEDOID, social_cost
from coreclust.bench import (random_line_instance, random_matrix_instance,
                             random_tree_instance)
from coreclust.errors import ParameterError, SizeLimitError
from coreclust.instance import (CONTINUOUS_LINE, Clustering, Instance,
                                gen_clique, gen_gaussian, gen_k4,
                                gen_line_beta_lb)
from coreclust.metric import Space, cross_distances


def line_instance(agents, k, candidates=CONTINUOUS_LINE):
    return Instance(space=Space.line(), agents=[float(a) for a in agents],
                    candidates=candidates, k=k)


# ---------------------------------------------------------------------------
# alg_line
# ---------------------------------------------------------------------------

def test_alg_line_step_three():
    inst = line_instance([0, 1, 2, 3, 4, 5], k=2)
    assert alg_line(inst, 3).centers == [2.0, 5.0]


def test_alg_line_step_two():
    inst = line_instance([0, 1, 2, 3, 4, 5], k=2)
    assert alg_line(inst, 2).centers == [1.0, 3.0]


def test_alg_line_center_on_every_agent():
    inst = line_instance([3, 1, 4, 1, 5], k=5)
    assert alg_line(inst, 1).centers == [1.0, 1.0, 3.0, 4.0, 5.0]


def test_alg_line_overflow_rejected():
    inst = line_instance(list(range(9)), k=7)
    with pytest.raises(ParameterError):
        alg_line(inst, 2)  # 2*(7-1) > 9


def test_alg_line_gap_invariant():
    rng = np.random.default_rng(0)
    for _ in range(40):
        inst = random_line_instance(rng)
        lam = ceil_div(inst.n, inst.k)
        centers = sorted(alg_line(inst, lam).centers)
        xs = sorted(inst.agents)
        for lo, hi in zip(centers, centers[1:]):
            strictly_between = sum(1 for x in xs if lo < x < hi)
            assert strictly_between <= lam - 1


# ---------------------------------------------------------------------------
# alg_tree
# ---------------------------------------------------------------------------

def test_alg_tree_path_root():
    sp = Space.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
    inst = Instance(space=sp, agents=[0, 1, 2], candidates=[0, 1, 2], k=1)
    assert alg_tree(inst, 3, root=0).centers == [0]


def test_alg_tree_star_fill():
    edges = [(0, leaf, 1.0) for leaf in range(1, 6)]
    sp = Space.from_edges(edges)
    inst = Instance(space=sp, agents=list(range(6)), candidates=list(range(6)), k=2)
    centers = alg_tree(inst, 3).centers
    assert centers[0] == 0          # hub subtree is the only one holding >= 3
    assert centers == [0, 1]        # greedy fill ties break to the lowest leaf


def test_alg_tree_every_agent_vertex():
    sp = Space.from_edges([(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    inst = Instance(space=sp, agents=[0, 2, 3], candidates=list(range(4)), k=3)
    centers = alg_tree(inst, 1).centers
    assert sorted(centers) == [0, 2, 3]


def _components_after_removal(inst, centers):
    tree = inst.space.tree
    removed = set(centers)
    adj = tree.adjacency()
    seen = set(removed)
    counts = []
    agents_at = {}
    for a in inst.agents:
        agents_at[a] = agents_at.get(a, 0) + 1
    for start in range(tree.vertex_count):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        total = 0
        while stack:
            u = stack.pop()
            total += agents_at.get(u, 0)
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        counts.append(total)
    return counts


def test_alg_tree_component_invariant():
    rng = np.random.default_rng(1)
    for _ in range(40):
        inst = random_tree_instance(rng)
        lam = ceil_div(inst.n, inst.k)  # the cap never binds for this step
        centers = alg_tree(inst, lam).centers
        for count in _components_after_removal(inst, centers):
            assert count <= lam - 1


def test_alg_tree_root_parameter():
    sp = Space.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
    inst = Instance(space=sp, agents=[0, 1, 2], candidates=[0, 1, 2], k=1)
    assert alg_tree(inst, 3, root=2).centers == [2]


# ---------------------------------------------------------------------------
# alg_greedy_ball
# ---------------------------------------------------------------------------

def test_greedy_ball_colocated_pairs():
    pts = [0.0, 5.0, 10.0]
    sp = Space.from_matrix(np.abs(np.subtract.outer(pts, pts)))
    inst = Instance(space=sp, agents=[0, 0, 2, 2], candidates=[0, 1, 2], k=2)
    clustering, trace = alg_greedy_ball(inst)
    assert clustering.centers == [0, 2]
    assert all(e.delta == 0.0 for e in trace.events)


def test_greedy_ball_k4():
    inst = gen_k4()
    clustering, trace = alg_greedy_ball(inst)
    assert clustering.centers == [0, 1]
    opens = [e for e in trace.events if e.kind == "open"]
    assert opens[0].delta == 1.0


def test_greedy_ball_every_agent_a_center():
    inst = line_instance([0, 1, 2], k=3, candidates=[0.0, 1.0, 2.0])
    clustering, trace = alg_greedy_ball(inst)
    assert sorted(clustering.centers) == [0.0, 1.0, 2.0]
    assert all(e.delta == 0.0 for e in trace.events)


def test_greedy_ball_trace_invariants():
    rng = np.random.default_rng(2)
    from coreclust.bench import random_metric_instance
    for _ in range(25):
        inst = random_metric_instance(rng, n_max_euc=40, n_max_mat=25)
        clustering, trace = alg_greedy_ball(inst)
        deltas = [e.delta for e in trace.events]
        assert deltas == sorted(deltas)
        removed = [i for e in trace.events for i in e.removed]
        assert sorted(removed) == list(range(inst.n))
        opens = [e for e in trace.events if e.kind == "open"]
        assert len(opens) <= inst.k
        for e in opens:
            assert len(e.removed) >= ceil_div(inst.n, inst.k)
        assert len(clustering.centers) == inst.k


def test_greedy_ball_rejects_continuous():
    inst = gen_line_beta_lb(2)
    with pytest.raises(ParameterError):
        alg_greedy_ball(inst)


def _reference_greedy_ball(inst):
    """Literal radius sweep over every distinct pairwise distance: absorb
    into existing centers first, then open eligible candidates by ascending
    index.  Slow but direct; the oracle the event-sweep version must match."""
    cands = list(inst.candidates)
    D = cross_distances(inst.space, inst.agents, cands)
    threshold = ceil_div(inst.n, inst.k)
    uncovered = set(range(inst.n))
    opened, open_deltas = [], []
    for delta in sorted(set(float(x) for x in D.ravel())):
        for j in opened:
            uncovered -= {i for i in uncovered if D[i, j] <= delta}
        while True:
            for j in range(len(cands)):
                if j in opened:
                    continue
                ball = {i for i in uncovered if D[i, j] <= delta}
                if len(ball) >= threshold:
                    opened.append(j)
                    open_deltas.append(delta)
                    uncovered -= ball
                    break
            else:
                break
        if not uncovered:
            break
    return [cands[j] for j in opened], open_deltas


def test_greedy_ball_matches_reference_sweep():
    from coreclust.bench import random_metric_instance
    from coreclust.instance import gen_kmedians_bad
    rng = np.random.default_rng(12)
    cases = [gen_k4(), gen_kmedians_bad(7), gen_clique(8)]
    cases += [random_metric_instance(rng, n_max_euc=25, n_max_mat=18)
              for _ in range(20)]
    for inst in cases:
        ref_centers, ref_deltas = _reference_greedy_ball(inst)
        fast, trace = alg_greedy_ball(inst, fill=False)
        fast_deltas = [e.delta for e in trace.events if e.kind == "open"]
        assert fast.centers == ref_centers
        assert fast_deltas == pytest.approx(ref_deltas, abs=1e-12)


def _full_width_opening(DT, uncovered, min_d, open_mask, threshold):
    """Exact opening radius of every unopened candidate, lowest index at ties."""
    u_idx = np.flatnonzero(uncovered)
    cols = np.flatnonzero(~open_mask)
    if u_idx.size == 0 or cols.size == 0:
        return math.inf, -1
    radii = algorithms._opening_radii(DT[np.ix_(cols, u_idx)], min_d[u_idx],
                                      threshold)
    best = int(np.argmin(radii))
    if math.isinf(radii[best]):
        return math.inf, -1
    return float(radii[best]), int(cols[best])


def _greedy_sweep_cases():
    rng = np.random.default_rng(21)
    base = gen_gaussian(n=400, seed=4)
    for k in (3, 6, 9, 13, 17):
        yield "gaussian", base.with_k(k)
    for _ in range(6):
        n = int(rng.integers(20, 120))
        pts = [tuple(float(x) for x in p) for p in rng.integers(0, 4, size=(n, 2))]
        k = int(rng.integers(1, 12))
        yield "integer-grid", Instance(space=Space.euclidean(2), agents=pts,
                                       candidates=list(dict.fromkeys(pts)), k=k)
        yield "integer-grid-dup", Instance(space=Space.euclidean(2), agents=pts,
                                           candidates=list(pts), k=k)
    for n in (6, 20, 60):
        yield "clique", gen_clique(n)
    for _ in range(8):
        yield "matrix", random_matrix_instance(rng, n_max=60)
    # After the opening at 0, candidate 2 (at 2) and candidate 1 (at 198)
    # both open at radius 98, when the agents at 100 enter.  The bound puts
    # the fillers at 1.5 (bound 1.5, radius 98.5: the agents they reach
    # early are absorbed in turn) and candidate 2 (bound 3) in the first
    # block, and candidate 1 (bound 98) alone in the next one, which starts
    # exactly at the best radius: the tie must still go to candidate 1.
    pts = [(x,) for x in [0.0] * 3 + [1.0] * 2 + [3.0] * 2 + [5.0] + [100.0] * 3]
    cands = [(0.0,), (198.0,), (2.0,)] + [(1.5,)] * (algorithms._BLOCK - 1)
    yield "cross-block-tie", Instance(space=Space.euclidean(1), agents=pts,
                                      candidates=cands, k=4)
    # groups of 10, 10 and 5 far apart, threshold 9: after two openings
    # fewer than 9 agents are uncovered, so the third group is absorbed
    pts = [(100.0 * g + 0.1 * i, 0.0) for g, size in enumerate((10, 10, 5))
           for i in range(size)]
    yield "below-threshold", Instance(space=Space.euclidean(2), agents=pts,
                                      candidates=list(pts), k=3)


def test_greedy_ball_pruned_matches_full_sweep(monkeypatch):
    count = {"swept": 0, "unopened": 0}
    opening_radii = algorithms._opening_radii
    next_opening = algorithms._next_opening

    def counted_radii(DTu, md, threshold):
        count["swept"] += len(DTu)
        return opening_radii(DTu, md, threshold)

    def counted_opening(DT, uncovered, min_d, open_mask, threshold):
        count["unopened"] += int((~open_mask).sum())
        return next_opening(DT, uncovered, min_d, open_mask, threshold)

    for name, inst in _greedy_sweep_cases():
        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "_opening_radii", counted_radii)
            patch.setattr(algorithms, "_next_opening", counted_opening)
            pruned, pruned_trace = alg_greedy_ball(inst, fill=False)
        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "_next_opening", _full_width_opening)
            full, full_trace = alg_greedy_ball(inst, fill=False)
        assert pruned.centers == full.centers, name
        assert pruned_trace.to_json() == full_trace.to_json(), name
        if name == "cross-block-tie":
            assert pruned.centers == [(0.0,), (198.0,)]
        if name == "below-threshold":
            assert len(pruned.centers) == 2
            absorbed = {i for e in pruned_trace.events if e.kind == "absorb"
                        for i in e.removed}
            assert absorbed >= set(range(20, 25))
    # the bounds skip candidates: most unopened candidates are never swept
    assert 0 < count["swept"] < count["unopened"] / 2


# ---------------------------------------------------------------------------
# alg_mst_cover
# ---------------------------------------------------------------------------

def test_mst_cover_collinear():
    inst = line_instance([0, 1, 2, 3], k=2, candidates=[0.0, 1.0, 2.0, 3.0])
    assert alg_mst_cover(inst).centers == [1.0, 3.0]


def test_mst_cover_clique_star():
    inst = gen_clique(6).with_k(3)
    assert alg_mst_cover(inst).centers == [0, 1, 2]


def test_mst_cover_parameter_errors():
    inst = line_instance([0, 1, 2, 3, 4, 5], k=2, candidates=[float(i) for i in range(6)])
    with pytest.raises(ParameterError):
        alg_mst_cover(inst)  # k < n/2


def test_mst_cover_touches_every_mst_edge():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(6, 16))
        pts = [tuple(float(x) for x in rng.uniform(0, 100, size=2)) for _ in range(n)]
        k = int(rng.integers(ceil_div(n, 2), n - 1))
        inst = Instance(space=Space.euclidean(2), agents=pts,
                        candidates=list(pts), k=k)
        centers = set(alg_mst_cover(inst).centers)
        g = nx.Graph()
        d = cross_distances(inst.space, pts, pts)
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(i, j, weight=float(d[i, j]))
        mst = nx.minimum_spanning_tree(g)  # unique: random distances are distinct
        for u, v in mst.edges:
            assert pts[u] in centers or pts[v] in centers


def test_mst_cover_with_colocated_pair():
    pts = [(0.0, 0.0), (0.0, 0.0), (5.0, 0.0), (9.0, 0.0)]
    inst = Instance(space=Space.euclidean(2), agents=pts,
                    candidates=list(dict.fromkeys(pts)), k=2)
    centers = alg_mst_cover(inst).centers
    assert len(centers) == 2


# ---------------------------------------------------------------------------
# alg_refined
# ---------------------------------------------------------------------------

def test_proportional_budgets_canonical_split():
    assert proportional_budgets([200, 300, 500], 1000, 10)[0] == [2, 3, 5]


def test_proportional_budgets_tie_by_index():
    budgets, r = proportional_budgets([5, 5], 10, 3)
    assert budgets == [2, 1] and r == 1


def test_proportional_budgets_sum():
    rng = np.random.default_rng(4)
    for _ in range(100):
        parts = int(rng.integers(1, 6))
        sizes = [int(x) for x in rng.integers(1, 50, size=parts)]
        n = sum(sizes)
        k = int(rng.integers(1, n + 1))
        budgets, r = proportional_budgets(sizes, n, k)
        assert sum(budgets) == k
        assert 0 <= r <= parts


def test_refined_single_cluster_reduces_to_objective():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    inst = Instance(space=Space.euclidean(2), agents=pts, candidates=list(pts), k=2)
    clustering, plan = alg_refined(inst, KMEANS)
    assert len(plan.clusters) == 1 and plan.budgets == [2]
    assert len(clustering.centers) == 2


def test_refined_proportional_on_separated_groups():
    pts = []
    for mean, size in (((0.0, 0.0), 20), ((100.0, 0.0), 30), ((200.0, 0.0), 50)):
        pts += [mean] * size
    inst = Instance(space=Space.euclidean(2), agents=pts,
                    candidates=list(dict.fromkeys(pts)), k=10)
    clustering, plan = alg_refined(inst, KMEANS)
    assert plan.sizes == [20, 30, 50]
    assert plan.budgets == [2, 3, 5]
    assert len(clustering.centers) == 10


def test_refined_budgets_track_cluster_sizes():
    rng = np.random.default_rng(5)
    pts = []
    for mean, size in (((0.0, 0.0), 20), ((100.0, 0.0), 30), ((200.0, 0.0), 50)):
        pts += [tuple(np.asarray(mean) + rng.standard_normal(2)) for _ in range(size)]
    inst = Instance(space=Space.euclidean(2), agents=pts, candidates=list(pts), k=10)
    clustering, plan = alg_refined(inst, KMEANS)
    assert sum(plan.budgets) == 10
    for size, budget in zip(plan.sizes, plan.budgets):
        quota = size * 10 / 100
        assert math.floor(quota) <= budget <= math.ceil(quota)


def test_refined_deterministic():
    rng = np.random.default_rng(6)
    pts = [tuple(float(x) for x in rng.uniform(0, 10, size=2)) for _ in range(30)]
    inst = Instance(space=Space.euclidean(2), agents=pts, candidates=list(pts), k=4)
    a, _ = alg_refined(inst, KMEANS, seed=0)
    b, _ = alg_refined(inst, KMEANS, seed=0)
    assert a.centers == b.centers


# ---------------------------------------------------------------------------
# optimal_total_distance
# ---------------------------------------------------------------------------

def test_optimal_k1_scan():
    inst = line_instance([0, 0, 10], k=1, candidates=[0.0, 1.0, 10.0])
    assert optimal_total_distance(inst).centers == [0.0]


def test_optimal_k_equals_n_zero_cost():
    inst = line_instance([1, 2, 3], k=3, candidates=[1.0, 2.0, 3.0])
    clustering = optimal_total_distance(inst)
    assert social_cost(inst, clustering, MEDOID) == 0.0


def test_optimal_k4_lexicographic():
    assert optimal_total_distance(gen_k4()).centers == [0, 1]


def test_optimal_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        coords = [float(x) for x in rng.integers(0, 12, size=n)]
        cands = sorted(set(coords))
        k = int(rng.integers(1, min(3, len(cands)) + 1))
        inst = line_instance(coords, k=k, candidates=cands)
        got = optimal_total_distance(inst)
        best = min(
            sum(min(abs(a - c) for c in combo) for a in coords)
            for combo in itertools.combinations(cands, k))
        assert social_cost(inst, got, MEDOID) == pytest.approx(best)


def test_optimal_size_limit():
    inst = line_instance(list(range(40)), k=3,
                         candidates=[float(i) for i in range(40)])
    with pytest.raises(SizeLimitError):
        optimal_total_distance(inst)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_greedy_fill_tie_breaks_by_index():
    inst = gen_k4()
    filled = greedy_fill(inst, [0])
    assert filled == [0, 1]


def test_assign_agents_tie_to_lowest_center():
    inst = line_instance([1, 1], k=2, candidates=[0.0, 2.0])
    assign = assign_agents(inst, Clustering(centers=[0.0, 2.0]))
    assert list(assign) == [0, 0]
