"""Tree consumers against the traversals they replaced.

apsp, alg_tree and alg_mst_cover now read TreeGraph.rooted (or, for the
MST, the parent Prim just linked).  The references below are the earlier
forms, written into the test: apsp walked the tree once per source with a
stack, alg_tree ran a BFS and a level loop over children lists, and
alg_mst_cover walked every vertex up to the root for its depth.  All three
compare exactly: matrices with np.array_equal, centers as lists.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coreclust.algorithms import alg_mst_cover, alg_tree, ceil_div, greedy_fill
from coreclust.instance import Instance
from coreclust.metric import Space, TreeGraph, apsp, cross_distances


def _ref_apsp(tree):
    n = tree.vertex_count
    adj = tree.adjacency()
    out = np.zeros((n, n), dtype=float)
    for src in range(n):
        dist = out[src]
        visited = [False] * n
        visited[src] = True
        stack = [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if not visited[v]:
                    visited[v] = True
                    dist[v] = dist[u] + w
                    stack.append(v)
    return out


def _ref_alg_tree(inst, lam, root):
    tree = inst.space.tree
    nv = tree.vertex_count
    own = np.zeros(nv, dtype=np.int64)
    for a in inst.agents:
        own[int(a)] += 1
    adj = tree.adjacency()
    depth = np.full(nv, -1, dtype=np.int64)
    children = [[] for _ in range(nv)]
    depth[root] = 0
    queue = [root]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v, _ in adj[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                children[u].append(v)
                queue.append(v)
    levels = {}
    for v in range(nv):
        levels.setdefault(int(depth[v]), []).append(v)
    counts = np.zeros(nv, dtype=np.int64)
    centers = []
    for level in sorted(levels, reverse=True):
        for x in sorted(levels[level]):
            counts[x] = own[x] + sum(counts[c] for c in children[x])
            if counts[x] >= lam and len(centers) < inst.k:
                centers.append(x)
                counts[x] = 0
    if len(centers) < inst.k:
        centers = greedy_fill(inst, centers)
    return centers


def _ref_alg_mst_cover(inst):
    n = inst.n
    pts = list(inst.agents)
    D = cross_distances(inst.space, pts, pts)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    key = D[0].copy()
    parent = np.zeros(n, dtype=np.int64)
    key[0] = 0.0
    for _ in range(n - 1):
        masked = np.where(in_tree, math.inf, key)
        v = int(np.argmin(masked))
        in_tree[v] = True
        improve = (~in_tree) & (D[v] < key)
        key[improve] = D[v][improve]
        parent[improve] = v
    depth = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        d, u = 0, v
        while u != 0:
            u = int(parent[u])
            d += 1
        depth[v] = d
    even = np.flatnonzero(depth % 2 == 0)
    odd = np.flatnonzero(depth % 2 == 1)
    cover = odd if len(odd) <= len(even) else even
    centers = [pts[int(v)] for v in sorted(cover)]
    if len(centers) < inst.k:
        centers = greedy_fill(inst, centers)
    return centers


@st.composite
def trees(draw):
    """A tree on 1..40 vertices shaped as a random tree, a path, a star or a
    broom (a path handle ending in a star), with float weights, relabelled
    vertices, and edges in a shuffled order and orientation."""
    nv = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["random", "path", "star", "broom"]))
    if shape == "random":
        parents = [draw(st.integers(0, v - 1)) for v in range(1, nv)]
    elif shape == "path":
        parents = list(range(nv - 1))
    elif shape == "star":
        parents = [0] * (nv - 1)
    else:
        handle = draw(st.integers(0, nv - 1))
        parents = [v - 1 if v <= handle else handle for v in range(1, nv)]
    weight = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.3]),
                       st.floats(0.0, 1e3, allow_nan=False))
    label = draw(st.permutations(range(nv)))
    edges = []
    for v in range(1, nv):
        u, x = label[parents[v - 1]], label[v]
        if draw(st.booleans()):
            u, x = x, u
        edges.append((u, x, draw(weight)))
    edges = draw(st.permutations(edges))
    return TreeGraph(nv, tuple(edges))


@st.composite
def tree_cases(draw):
    """A tree instance with a random root and a quantile step: agents spread
    over the vertices or stacked on one, k small enough that the cap binds
    when lambda is 1, and lambda in {1, ceil(n/k), n/2, random}."""
    tree = draw(trees())
    nv = tree.vertex_count
    vertex = st.integers(0, nv - 1)
    if draw(st.booleans()):
        agents = draw(st.lists(vertex, min_size=1, max_size=60))
    else:
        agents = [draw(vertex)] * draw(st.integers(1, 20))
    n = len(agents)
    k = draw(st.integers(1, n))
    lam = draw(st.sampled_from([1, ceil_div(n, k), max(1, n // 2), draw(st.integers(1, n))]))
    inst = Instance(space=Space.from_tree(tree), agents=agents,
                    candidates=list(range(nv)), k=k)
    return inst, lam, draw(vertex)


@settings(max_examples=400)
@given(trees())
def test_apsp_matches_per_source_walk(tree):
    assert np.array_equal(apsp(Space.from_tree(tree)), _ref_apsp(tree))


def test_apsp_matches_per_source_walk_at_scale():
    rng = np.random.default_rng(5)
    for nv in (300, 700):
        edges = tuple((int(rng.integers(0, v)), v, float(rng.uniform(0.0, 10.0)))
                      for v in range(1, nv))
        tree = TreeGraph(nv, edges)
        assert np.array_equal(apsp(Space.from_tree(tree)), _ref_apsp(tree))


@settings(max_examples=600)
@given(tree_cases())
def test_alg_tree_matches_level_loop(case):
    inst, lam, root = case
    assert alg_tree(inst, lam, root).centers == _ref_alg_tree(inst, lam, root)


@st.composite
def mst_cases(draw):
    """Euclidean agents on a small integer grid (many equal distances, some
    co-located agents) or spread by float coordinates, candidates at the
    agents, and k in [n/2, n-2]."""
    n = draw(st.integers(4, 16))
    if draw(st.booleans()):
        coord = st.integers(0, 3).map(float)
    else:
        coord = st.floats(-50.0, 50.0, allow_nan=False)
    agents = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    k = draw(st.integers(ceil_div(n, 2), n - 2))
    return Instance(space=Space.euclidean(2), agents=agents,
                    candidates=list(dict.fromkeys(agents)), k=k)


@settings(max_examples=300)
@given(mst_cases())
def test_mst_cover_matches_root_walk(inst):
    assert alg_mst_cover(inst).centers == _ref_alg_mst_cover(inst)
